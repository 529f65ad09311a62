use crate::defect::DefectMap;
use crate::ids::{ChipletId, LinkKind, PhysQubit};
use crate::kernels::{BfsControl, BfsKernel, RoutingGraph};
use crate::spec::{evenly_spaced, ChipletSpec};
use crate::structures::{cells_coupled, has_qubit};

/// One coupling link out of a qubit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Link {
    /// The neighboring qubit.
    pub to: PhysQubit,
    /// Whether the link crosses a chiplet boundary.
    pub kind: LinkKind,
}

/// A chiplet-array coupling graph.
///
/// Qubits are indexed densely in global-grid row-major order. The topology
/// records, per qubit, its global grid coordinate, owning chiplet and
/// adjacency (with on-chip/cross-chip tags), plus an all-pairs hop-distance
/// table used by the routers.
///
/// The adjacency is stored flat in compressed-sparse-row form —
/// `row_offsets` slicing `neighbors`/`kinds`, each row sorted by neighbor
/// id — so the heavy-traversal consumers (data-region A*, entrance scans,
/// SABRE's inner loop) walk one cache-dense array instead of chasing a
/// pointer per qubit, and [`Topology::coupling`] binary-searches a sorted
/// row. See `DESIGN.md` §10 for the routing-substrate contract.
///
/// # Example
///
/// ```
/// use mech_chiplet::{ChipletSpec, PhysQubit};
/// let topo = ChipletSpec::square(4, 1, 2).build();
/// assert_eq!(topo.num_qubits(), 32);
/// // Corner to far corner: Manhattan distance on the joined grid.
/// let a = topo.qubit_at(0, 0).unwrap();
/// let b = topo.qubit_at(3, 7).unwrap();
/// assert_eq!(topo.distance(a, b), 10);
/// ```
#[derive(Debug, Clone)]
pub struct Topology {
    spec: ChipletSpec,
    grid_rows: u32,
    grid_cols: u32,
    /// grid[gr * grid_cols + gc] = qubit at that cell, if occupied.
    grid: Vec<Option<PhysQubit>>,
    coords: Vec<(u32, u32)>,
    chiplet_of: Vec<ChipletId>,
    /// CSR row bounds: qubit `q`'s links live in
    /// `neighbors[row_offsets[q]..row_offsets[q+1]]`.
    row_offsets: Vec<u32>,
    /// Flat neighbor ids, each row sorted ascending.
    neighbors: Vec<PhysQubit>,
    /// Link kinds parallel to `neighbors`.
    kinds: Vec<LinkKind>,
    /// Row-major `num_qubits × num_qubits` hop distances (`u16::MAX` =
    /// unreachable — which only happens on defect-masked topologies; a
    /// pristine valid spec is always connected).
    dist: Vec<u16>,
    num_cross_links: usize,
    /// The defects masked out of the CSR rows (empty on pristine builds).
    defects: DefectMap,
}

impl Topology {
    pub(crate) fn build(spec: ChipletSpec) -> Topology {
        let d = spec.chiplet_size();
        let grid_rows = spec.array_rows() * d;
        let grid_cols = spec.array_cols() * d;
        let structure = spec.structure();

        let mut grid = vec![None; (grid_rows * grid_cols) as usize];
        let mut coords = Vec::new();
        let mut chiplet_of = Vec::new();

        for gr in 0..grid_rows {
            for gc in 0..grid_cols {
                let (r, c) = (gr % d, gc % d);
                if has_qubit(structure, r, c, d) {
                    let id = PhysQubit(coords.len() as u32);
                    grid[(gr * grid_cols + gc) as usize] = Some(id);
                    coords.push((gr, gc));
                    let chip = ChipletId((gr / d) * spec.array_cols() + (gc / d));
                    chiplet_of.push(chip);
                }
            }
        }

        let (adj, num_cross_links) = link_lists(&spec, &grid, &coords, grid_rows, grid_cols);

        // Flatten the per-qubit lists into sorted CSR rows.
        let n = coords.len();
        let mut row_offsets = Vec::with_capacity(n + 1);
        let total: usize = adj.iter().map(Vec::len).sum();
        let mut neighbors = Vec::with_capacity(total);
        let mut kinds = Vec::with_capacity(total);
        row_offsets.push(0u32);
        let mut row: Vec<Link> = Vec::new();
        for links in &adj {
            row.clear();
            row.extend_from_slice(links);
            row.sort_by_key(|l| l.to);
            for l in &row {
                neighbors.push(l.to);
                kinds.push(l.kind);
            }
            row_offsets.push(neighbors.len() as u32);
        }

        let mut topo = Topology {
            spec,
            grid_rows,
            grid_cols,
            grid,
            coords,
            chiplet_of,
            row_offsets,
            neighbors,
            kinds,
            dist: Vec::new(),
            num_cross_links,
            defects: DefectMap::default(),
        };
        topo.dist = topo.compute_all_pairs();
        topo
    }

    /// A copy of this topology with every CSR edge killed by `defects`
    /// removed (dead qubits lose their whole row; dead links lose both
    /// directed entries) and the all-pairs hop table recomputed over the
    /// surviving fabric. Dead qubits keep their grid cell and index —
    /// they exist physically — but have degree zero and hop distance
    /// `u16::MAX` to everything, so no kernel can ever route through
    /// them.
    ///
    /// An empty `defects` returns a plain clone: no row is touched and
    /// the hop table is byte-identical.
    pub fn masked(&self, defects: &DefectMap) -> Topology {
        let mut topo = self.clone();
        if defects.is_empty() {
            return topo;
        }
        let n = self.num_qubits() as usize;
        let mut row_offsets = Vec::with_capacity(n + 1);
        let mut neighbors = Vec::with_capacity(self.neighbors.len());
        let mut kinds = Vec::with_capacity(self.kinds.len());
        let mut num_cross_links = 0usize;
        row_offsets.push(0u32);
        for q in self.qubits() {
            for link in self.neighbor_links(q) {
                if defects.kills_edge(q, link.to) {
                    continue;
                }
                neighbors.push(link.to);
                kinds.push(link.kind);
                if link.kind == LinkKind::CrossChip && q < link.to {
                    num_cross_links += 1;
                }
            }
            row_offsets.push(neighbors.len() as u32);
        }
        topo.row_offsets = row_offsets;
        topo.neighbors = neighbors;
        topo.kinds = kinds;
        topo.num_cross_links = num_cross_links;
        topo.defects = defects.clone();
        topo.dist = topo.compute_all_pairs();
        topo
    }

    /// The defects masked out of this topology (empty on pristine
    /// builds).
    pub fn defects(&self) -> &DefectMap {
        &self.defects
    }

    /// All-pairs hop distances on the shared stamped-BFS kernel: one
    /// scratch serves every source, each row written straight from the
    /// settle callback.
    fn compute_all_pairs(&self) -> Vec<u16> {
        let n = self.num_qubits() as usize;
        let mut dist = vec![u16::MAX; n * n];
        let mut bfs = BfsKernel::default();
        for (src, row) in dist.chunks_exact_mut(n).enumerate() {
            bfs.run(
                self,
                PhysQubit(src as u32),
                |_| true,
                |q, d| {
                    row[q.index()] = d as u16;
                    BfsControl::Expand
                },
            );
        }
        dist
    }

    /// The spec this topology was built from.
    pub fn spec(&self) -> &ChipletSpec {
        &self.spec
    }

    /// Total number of physical qubits.
    pub fn num_qubits(&self) -> u32 {
        self.coords.len() as u32
    }

    /// Number of chiplets in the array.
    pub fn num_chiplets(&self) -> u32 {
        self.spec.num_chiplets()
    }

    /// Number of (undirected) cross-chip links.
    pub fn num_cross_links(&self) -> usize {
        self.num_cross_links
    }

    /// Global grid dimensions `(rows, cols)`.
    pub fn grid_dims(&self) -> (u32, u32) {
        (self.grid_rows, self.grid_cols)
    }

    /// The neighbors of `q`, ascending — one contiguous CSR row, the form
    /// every hot traversal consumes.
    pub fn neighbors(&self, q: PhysQubit) -> &[PhysQubit] {
        let lo = self.row_offsets[q.index()] as usize;
        let hi = self.row_offsets[q.index() + 1] as usize;
        &self.neighbors[lo..hi]
    }

    /// The links out of `q` with their kinds, ascending by neighbor.
    pub fn neighbor_links(&self, q: PhysQubit) -> impl Iterator<Item = Link> + '_ {
        let lo = self.row_offsets[q.index()] as usize;
        let hi = self.row_offsets[q.index() + 1] as usize;
        self.neighbors[lo..hi]
            .iter()
            .zip(&self.kinds[lo..hi])
            .map(|(&to, &kind)| Link { to, kind })
    }

    /// The link kind between `a` and `b`, or `None` if they are not
    /// coupled. O(log degree): binary search on the sorted CSR row (this
    /// runs inside SABRE's inner loop and the physical-op validator).
    pub fn coupling(&self, a: PhysQubit, b: PhysQubit) -> Option<LinkKind> {
        let lo = self.row_offsets[a.index()] as usize;
        let hi = self.row_offsets[a.index() + 1] as usize;
        let row = &self.neighbors[lo..hi];
        let i = row.partition_point(|&q| q < b);
        (i < row.len() && row[i] == b).then(|| self.kinds[lo + i])
    }

    /// `true` if `a` and `b` share a coupler.
    pub fn are_coupled(&self, a: PhysQubit, b: PhysQubit) -> bool {
        self.coupling(a, b).is_some()
    }

    /// The chiplet owning `q`.
    pub fn chiplet(&self, q: PhysQubit) -> ChipletId {
        self.chiplet_of[q.index()]
    }

    /// Global grid coordinate of `q`.
    pub fn coord(&self, q: PhysQubit) -> (u32, u32) {
        self.coords[q.index()]
    }

    /// The qubit at global grid cell `(gr, gc)`, if occupied.
    pub fn qubit_at(&self, gr: u32, gc: u32) -> Option<PhysQubit> {
        if gr < self.grid_rows && gc < self.grid_cols {
            self.grid[(gr * self.grid_cols + gc) as usize]
        } else {
            None
        }
    }

    /// Hop distance between two qubits on the coupling graph.
    pub fn distance(&self, a: PhysQubit, b: PhysQubit) -> u32 {
        let n = self.num_qubits() as usize;
        u32::from(self.dist[a.index() * n + b.index()])
    }

    /// Hop distances from `src` to every qubit, as one contiguous row of
    /// the all-pairs table (`u16::MAX` = unreachable). The routers use
    /// this as the A* heuristic: indexing a borrowed row in the inner loop
    /// beats recomputing the row offset per lookup.
    pub fn distances_from(&self, src: PhysQubit) -> &[u16] {
        let n = self.num_qubits() as usize;
        &self.dist[src.index() * n..(src.index() + 1) * n]
    }

    /// Iterates over all qubits.
    pub fn qubits(&self) -> impl Iterator<Item = PhysQubit> {
        (0..self.num_qubits()).map(PhysQubit)
    }

    /// The grid-position `(row, col)` of a chiplet within the array.
    pub fn chiplet_pos(&self, chip: ChipletId) -> (u32, u32) {
        (
            chip.0 / self.spec.array_cols(),
            chip.0 % self.spec.array_cols(),
        )
    }

    /// The adjacency rebuilt through the retained pre-CSR builder, as
    /// per-qubit link lists in legacy insertion order. This is the *oracle*
    /// the property tests pin the CSR arrays against (degree lists,
    /// neighbor sets, BFS distances) — it shares no code with the flat
    /// layout beyond the grid construction. On a defect-masked topology
    /// the lists are filtered by the same edge-kill predicate the mask
    /// applied, so the oracle stays valid for degraded devices.
    pub fn reference_adjacency(&self) -> Vec<Vec<Link>> {
        let mut adj = link_lists(
            &self.spec,
            &self.grid,
            &self.coords,
            self.grid_rows,
            self.grid_cols,
        )
        .0;
        if !self.defects.is_empty() {
            for (idx, links) in adj.iter_mut().enumerate() {
                let q = PhysQubit(idx as u32);
                links.retain(|l| !self.defects.kills_edge(q, l.to));
            }
        }
        adj
    }
}

impl RoutingGraph for Topology {
    fn num_nodes(&self) -> usize {
        self.coords.len()
    }

    fn neighbors(&self, q: PhysQubit) -> &[PhysQubit] {
        Topology::neighbors(self, q)
    }
}

/// The legacy pointer-chained adjacency builder: per-qubit `Vec<Link>`
/// lists in discovery order (on-chip sweeps first, then cross-chip
/// stitches). [`Topology::build`] flattens its output into the CSR arrays;
/// [`Topology::reference_adjacency`] exposes it as the test oracle.
fn link_lists(
    spec: &ChipletSpec,
    grid: &[Option<PhysQubit>],
    coords: &[(u32, u32)],
    grid_rows: u32,
    grid_cols: u32,
) -> (Vec<Vec<Link>>, usize) {
    let d = spec.chiplet_size();
    let structure = spec.structure();
    let n = coords.len();
    let mut adj: Vec<Vec<Link>> = vec![Vec::new(); n];
    let at = |gr: u32, gc: u32| -> Option<PhysQubit> {
        if gr < grid_rows && gc < grid_cols {
            grid[(gr * grid_cols + gc) as usize]
        } else {
            None
        }
    };
    let mut num_cross_links = 0usize;

    // On-chip links: orthogonal neighbors within the same chiplet.
    for (idx, &(gr, gc)) in coords.iter().enumerate() {
        let q = PhysQubit(idx as u32);
        for (nr, nc) in [(gr + 1, gc), (gr, gc + 1)] {
            if nr / d != gr / d || nc / d != gc / d {
                continue; // crosses a chiplet boundary; handled below
            }
            if let Some(nb) = at(nr, nc) {
                let (r, c) = (gr % d, gc % d);
                let (r2, c2) = (nr % d, nc % d);
                if cells_coupled(structure, r, c, r2, c2) {
                    adj[q.index()].push(Link {
                        to: nb,
                        kind: LinkKind::OnChip,
                    });
                    adj[nb.index()].push(Link {
                        to: q,
                        kind: LinkKind::OnChip,
                    });
                }
            }
        }
    }

    // Cross-chip links: facing boundary qubits, sparsified per edge.
    let keep = spec.cross_links_per_edge();
    let mut add_cross = |pairs: Vec<(PhysQubit, PhysQubit)>, adj: &mut Vec<Vec<Link>>| {
        let kept_idx = match keep {
            Some(k) => evenly_spaced(pairs.len() as u32, k),
            None => (0..pairs.len() as u32).collect(),
        };
        for i in kept_idx {
            let (a, b) = pairs[i as usize];
            adj[a.index()].push(Link {
                to: b,
                kind: LinkKind::CrossChip,
            });
            adj[b.index()].push(Link {
                to: a,
                kind: LinkKind::CrossChip,
            });
            num_cross_links += 1;
        }
    };

    // Vertical chiplet boundaries (east-west neighbors).
    for ci in 0..spec.array_rows() {
        for cj in 0..spec.array_cols().saturating_sub(1) {
            let east_col = cj * d + d - 1;
            let west_col = (cj + 1) * d;
            let mut pairs = Vec::new();
            for r in 0..d {
                let gr = ci * d + r;
                if let (Some(a), Some(b)) = (at(gr, east_col), at(gr, west_col)) {
                    pairs.push((a, b));
                }
            }
            add_cross(pairs, &mut adj);
        }
    }
    // Horizontal chiplet boundaries (north-south neighbors).
    for ci in 0..spec.array_rows().saturating_sub(1) {
        for cj in 0..spec.array_cols() {
            let south_row = ci * d + d - 1;
            let north_row = (ci + 1) * d;
            let mut pairs = Vec::new();
            for c in 0..d {
                let gc = cj * d + c;
                if let (Some(a), Some(b)) = (at(south_row, gc), at(north_row, gc)) {
                    pairs.push((a, b));
                }
            }
            add_cross(pairs, &mut adj);
        }
    }

    (adj, num_cross_links)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::CouplingStructure;

    #[test]
    fn square_array_counts() {
        let t = ChipletSpec::square(5, 2, 3).build();
        assert_eq!(t.num_qubits(), 6 * 25);
        assert_eq!(t.num_chiplets(), 6);
        let on = t
            .qubits()
            .flat_map(|q| t.neighbor_links(q))
            .filter(|l| l.kind == LinkKind::OnChip)
            .count();
        // Each 5x5 chiplet: 2*5*4 = 40 on-chip links, seen from both ends.
        assert_eq!(on, 2 * 6 * 40);
        // Boundaries: vertical 2 rows * 2 = 4, horizontal 1 * 3 = 3; each
        // with 5 links.
        assert_eq!(t.num_cross_links(), 7 * 5);
    }

    #[test]
    fn sparsity_reduces_cross_links() {
        let dense = ChipletSpec::square(7, 3, 3).build();
        let sparse = ChipletSpec::square(7, 3, 3)
            .with_cross_links_per_edge(1)
            .build();
        assert_eq!(dense.num_cross_links(), 12 * 7);
        assert_eq!(sparse.num_cross_links(), 12);
    }

    #[test]
    fn sparse_middle_link_survives() {
        let t = ChipletSpec::square(7, 1, 2)
            .with_cross_links_per_edge(1)
            .build();
        // The single kept link should be at the middle row (3).
        let a = t.qubit_at(3, 6).unwrap();
        let b = t.qubit_at(3, 7).unwrap();
        assert_eq!(t.coupling(a, b), Some(LinkKind::CrossChip));
    }

    #[test]
    fn cross_links_connect_adjacent_chiplets_only() {
        let t = ChipletSpec::square(4, 2, 2).build();
        for q in t.qubits() {
            for l in t.neighbor_links(q) {
                let (ca, cb) = (t.chiplet(q), t.chiplet(l.to));
                match l.kind {
                    LinkKind::OnChip => assert_eq!(ca, cb),
                    LinkKind::CrossChip => {
                        assert_ne!(ca, cb);
                        let (ra, cla) = t.chiplet_pos(ca);
                        let (rb, clb) = t.chiplet_pos(cb);
                        assert_eq!(ra.abs_diff(rb) + cla.abs_diff(clb), 1);
                    }
                }
            }
        }
    }

    #[test]
    fn distances_are_symmetric_and_metric_on_samples() {
        let t = ChipletSpec::square(4, 2, 2).build();
        let qs = [PhysQubit(0), PhysQubit(7), PhysQubit(20), PhysQubit(63)];
        for &a in &qs {
            assert_eq!(t.distance(a, a), 0);
            for &b in &qs {
                assert_eq!(t.distance(a, b), t.distance(b, a));
                for &c in &qs {
                    assert!(t.distance(a, c) <= t.distance(a, b) + t.distance(b, c));
                }
            }
        }
    }

    #[test]
    fn every_structure_is_connected() {
        for s in CouplingStructure::ALL {
            let t = ChipletSpec::new(s, 8, 2, 2).build();
            let far = PhysQubit(t.num_qubits() - 1);
            assert!(
                t.distance(PhysQubit(0), far) < u32::from(u16::MAX),
                "{s} disconnected"
            );
        }
    }

    #[test]
    fn heavy_square_has_no_odd_odd_qubits() {
        let t = ChipletSpec::new(CouplingStructure::HeavySquare, 6, 1, 1).build();
        for q in t.qubits() {
            let (r, c) = t.coord(q);
            assert!(!(r % 2 == 1 && c % 2 == 1));
        }
    }

    #[test]
    fn hexagon_degree_at_most_three_inside_chiplet() {
        let t = ChipletSpec::new(CouplingStructure::Hexagon, 8, 1, 1).build();
        for q in t.qubits() {
            assert!(t.neighbors(q).len() <= 3, "degree too high at {q}");
        }
    }

    #[test]
    fn coupling_is_mutual() {
        let t = ChipletSpec::new(CouplingStructure::HeavyHexagon, 8, 2, 2).build();
        for q in t.qubits() {
            for l in t.neighbor_links(q) {
                assert_eq!(t.coupling(l.to, q), Some(l.kind));
            }
        }
    }

    #[test]
    fn qubit_at_round_trips_coords() {
        let t = ChipletSpec::new(CouplingStructure::HeavyHexagon, 8, 1, 2).build();
        for q in t.qubits() {
            let (gr, gc) = t.coord(q);
            assert_eq!(t.qubit_at(gr, gc), Some(q));
        }
    }

    #[test]
    fn masking_with_empty_defects_is_byte_identical() {
        let t = ChipletSpec::square(5, 1, 2).build();
        let m = t.masked(&DefectMap::default());
        assert_eq!(m.row_offsets, t.row_offsets);
        assert_eq!(m.neighbors, t.neighbors);
        assert_eq!(m.kinds, t.kinds);
        assert_eq!(m.dist, t.dist);
        assert_eq!(m.num_cross_links(), t.num_cross_links());
    }

    #[test]
    fn dead_qubits_lose_every_edge_and_become_unreachable() {
        let t = ChipletSpec::square(5, 1, 2).build();
        let dead = PhysQubit(12);
        let m = t.masked(&DefectMap::new().with_dead_qubit(dead));
        assert!(m.neighbors(dead).is_empty());
        for q in m.qubits() {
            assert!(!m.are_coupled(q, dead));
            if q != dead {
                assert_eq!(m.distance(q, dead), u32::from(u16::MAX));
            }
        }
        // Rows of live qubits keep their other neighbors.
        assert!(m.qubits().any(|q| !m.neighbors(q).is_empty()));
    }

    #[test]
    fn dead_links_disappear_in_both_directions() {
        let t = ChipletSpec::square(5, 1, 2).build();
        let a = t.qubit_at(2, 4).unwrap();
        let b = t.qubit_at(2, 5).unwrap();
        assert_eq!(t.coupling(a, b), Some(LinkKind::CrossChip));
        let m = t.masked(&DefectMap::new().with_dead_link(b, a));
        assert_eq!(m.coupling(a, b), None);
        assert_eq!(m.coupling(b, a), None);
        assert_eq!(m.num_cross_links(), t.num_cross_links() - 1);
        // The device stays connected through the other cross links.
        assert!(m.distance(a, b) < u32::from(u16::MAX));
        assert!(m.distance(a, b) > 1);
    }

    #[test]
    fn masked_reference_adjacency_matches_masked_csr() {
        let t = ChipletSpec::square(5, 2, 2).build();
        let defects = DefectMap::new()
            .with_dead_qubit(PhysQubit(7))
            .with_dead_link(PhysQubit(0), PhysQubit(1))
            .with_dead_link(PhysQubit(30), PhysQubit(31));
        let m = t.masked(&defects);
        let reference = m.reference_adjacency();
        for q in m.qubits() {
            let mut legacy: Vec<Link> = reference[q.index()].clone();
            legacy.sort_by_key(|l| l.to);
            let flat: Vec<Link> = m.neighbor_links(q).collect();
            assert_eq!(flat, legacy, "masked row diverged at {q}");
        }
    }

    #[test]
    fn csr_rows_are_sorted_and_match_the_reference_builder() {
        for s in CouplingStructure::ALL {
            let t = ChipletSpec::new(s, 6, 2, 2).build();
            let reference = t.reference_adjacency();
            for q in t.qubits() {
                let row = t.neighbors(q);
                assert!(row.windows(2).all(|w| w[0] < w[1]), "{s}: row unsorted");
                let mut legacy: Vec<Link> = reference[q.index()].clone();
                legacy.sort_by_key(|l| l.to);
                let flat: Vec<Link> = t.neighbor_links(q).collect();
                assert_eq!(flat, legacy, "{s}: row diverged at {q}");
            }
        }
    }
}
