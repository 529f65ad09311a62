//! Generation of the multi-entry communication highway layout.
//!
//! The highway is a mesh of corridors of ancillary qubits spanning every
//! chiplet (paper §5, Fig. 9): `density` horizontal and `density` vertical
//! corridors per chiplet, stitched across chiplet boundaries through
//! cross-chip links. Along a corridor, highway qubits are *interleaved*
//! with ordinary data ("interval") qubits to reduce the ancilla overhead —
//! a bridge gate entangles highway qubits separated by one interval qubit —
//! except at *critical positions* where the layout stays dense:
//!
//! * crossroads (corridor intersections) and their corridor neighbors,
//!   because the GHZ preparation latency is set by the maximum number of
//!   bridge gates any single qubit participates in;
//! * chiplet boundaries, so inter-chiplet entanglement uses one direct
//!   cross-chip CNOT rather than a (noisier) cross-chip bridge.

use std::collections::{HashMap, HashSet};

use crate::defect::DefectMap;
use crate::ids::{ChipletId, LinkKind, PhysQubit};
use crate::pathfind::shortest_path_avoiding;
use crate::topology::Topology;

/// How two adjacent highway qubits are entangled during GHZ preparation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HighwayEdgeKind {
    /// Directly coupled on-chip: one CNOT/CZ.
    Direct,
    /// Separated by one interval (data) qubit: one bridge gate (4 CNOTs)
    /// through `via`, which keeps holding its data.
    Bridge {
        /// The interval qubit in the middle.
        via: PhysQubit,
    },
    /// A cross-chip link: one cross-chip CNOT.
    Cross,
}

/// An undirected edge of the highway graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HighwayEdge {
    /// One endpoint (always a highway qubit).
    pub a: PhysQubit,
    /// The other endpoint (always a highway qubit).
    pub b: PhysQubit,
    /// Entanglement mechanism along this edge.
    pub kind: HighwayEdgeKind,
}

impl HighwayEdge {
    /// The endpoint opposite to `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is neither endpoint.
    pub fn other(&self, q: PhysQubit) -> PhysQubit {
        if q == self.a {
            self.b
        } else {
            assert_eq!(q, self.b, "qubit {q} is not on this edge");
            self.a
        }
    }
}

/// The allocated highway: which qubits are ancillary, and the graph along
/// which GHZ states are grown.
///
/// # Example
///
/// ```
/// use mech_chiplet::{ChipletSpec, HighwayLayout};
/// let topo = ChipletSpec::square(7, 2, 2).build();
/// let hw = HighwayLayout::generate(&topo, 1);
/// // Roughly one row + one column of (interleaved) ancillas per chiplet.
/// assert!(hw.percentage() > 0.05 && hw.percentage() < 0.30);
/// assert!(hw.is_connected(), "highway mesh must be connected");
/// ```
#[derive(Debug, Clone)]
pub struct HighwayLayout {
    is_highway: Vec<bool>,
    /// dead[q] = the qubit is out of service (defect-pruned layouts only;
    /// all-false on pristine builds). Dead qubits are neither highway nor
    /// data.
    dead: Vec<bool>,
    nodes: Vec<PhysQubit>,
    edges: Vec<HighwayEdge>,
    /// CSR bounds over `adj_edges`: the edge indices incident to qubit `q`
    /// live in `adj_edges[adj_starts[q]..adj_starts[q + 1]]`, ascending.
    adj_starts: Vec<u32>,
    /// Flat indices into `edges`, grouped by incident qubit.
    adj_edges: Vec<u32>,
    crossroads: Vec<PhysQubit>,
    density: u32,
    num_qubits: u32,
    /// Total dead qubits (after pruning no dead qubit is a highway node,
    /// so this is exactly the population excluded from both `nodes` and
    /// the data region — pre-computed so `num_data_qubits` stays O(1)).
    num_dead_data: u32,
}

/// Flattens per-edge incidence into CSR arrays: for each qubit, the
/// indices of `edges` touching it, ascending (edges are scanned in index
/// order, so per-row order is insertion order — identical to the former
/// `Vec<Vec<u32>>` push order).
fn build_adj(n: usize, edges: &[HighwayEdge]) -> (Vec<u32>, Vec<u32>) {
    let mut counts = vec![0u32; n + 1];
    for e in edges {
        counts[e.a.index() + 1] += 1;
        counts[e.b.index() + 1] += 1;
    }
    for i in 0..n {
        counts[i + 1] += counts[i];
    }
    let adj_starts = counts.clone();
    let mut cursor = counts;
    let mut adj_edges = vec![0u32; adj_starts[n] as usize];
    for (idx, e) in edges.iter().enumerate() {
        for q in [e.a, e.b] {
            adj_edges[cursor[q.index()] as usize] = idx as u32;
            cursor[q.index()] += 1;
        }
    }
    (adj_starts, adj_edges)
}

impl HighwayLayout {
    /// Generates the highway mesh on `topo` with `density` horizontal and
    /// vertical corridors per chiplet (paper Fig. 15 evaluates densities
    /// 1–3).
    ///
    /// # Panics
    ///
    /// Panics if `density == 0` or the corridors cannot be carved (which
    /// would indicate a disconnected chiplet).
    pub fn generate(topo: &Topology, density: u32) -> Self {
        assert!(density >= 1, "highway density must be at least 1");
        let spec = *topo.spec();
        let d = spec.chiplet_size();
        let m = density.min(d / 2).max(1);

        // Corridor offsets within a chiplet, e.g. d=7, m=1 -> [3].
        let offsets: Vec<u32> = (0..m).map(|i| ((i + 1) * d) / (m + 1)).collect();

        let mut paths: Vec<Vec<PhysQubit>> = Vec::new();

        // Horizontal corridors: one per (chiplet row of the array is NOT the
        // unit — corridors span the full array) per array row of chiplets
        // and per offset; built chiplet by chiplet and stitched by cross
        // links, so we record per-chiplet corridor pieces plus the stitch
        // edges separately.
        let mut stitch_edges: Vec<(PhysQubit, PhysQubit)> = Vec::new();

        for ci in 0..spec.array_rows() {
            for &hr in &offsets {
                for cj in 0..spec.array_cols() {
                    let chip = ChipletId(ci * spec.array_cols() + cj);
                    let west = if cj == 0 {
                        nearest_in_chiplet(topo, chip, hr, 0)
                    } else {
                        let (_, me) = cross_anchor(topo, chip, ChipletId(chip.0 - 1), hr, true);
                        me
                    };
                    let east = if cj + 1 == spec.array_cols() {
                        nearest_in_chiplet(topo, chip, hr, d - 1)
                    } else {
                        let peer = ChipletId(chip.0 + 1);
                        let (other, me) = cross_anchor(topo, chip, peer, hr, true);
                        stitch_edges.push((me, other));
                        me
                    };
                    let waypoints = corridor_waypoints(topo, chip, hr, &offsets, true, west, east);
                    paths.push(carve(topo, chip, &waypoints));
                }
            }
        }

        // Vertical corridors.
        for cj in 0..spec.array_cols() {
            for &hc in &offsets {
                for ci in 0..spec.array_rows() {
                    let chip = ChipletId(ci * spec.array_cols() + cj);
                    let north = if ci == 0 {
                        nearest_in_chiplet(topo, chip, 0, hc)
                    } else {
                        let peer = ChipletId(chip.0 - spec.array_cols());
                        let (_, me) = cross_anchor(topo, chip, peer, hc, false);
                        me
                    };
                    let south = if ci + 1 == spec.array_rows() {
                        nearest_in_chiplet(topo, chip, d - 1, hc)
                    } else {
                        let peer = ChipletId(chip.0 + spec.array_cols());
                        let (other, me) = cross_anchor(topo, chip, peer, hc, false);
                        stitch_edges.push((me, other));
                        me
                    };
                    let waypoints =
                        corridor_waypoints(topo, chip, hc, &offsets, false, north, south);
                    paths.push(carve(topo, chip, &waypoints));
                }
            }
        }

        // Forced-dense nodes: corridor endpoints, crossroads (nodes on >=2
        // corridors) and the corridor neighbors of crossroads.
        let mut occurrences: HashMap<PhysQubit, u32> = HashMap::new();
        for path in &paths {
            let unique: HashSet<PhysQubit> = path.iter().copied().collect();
            for q in unique {
                *occurrences.entry(q).or_insert(0) += 1;
            }
        }
        let crossroad_set: HashSet<PhysQubit> = occurrences
            .iter()
            .filter(|&(_, &n)| n >= 2)
            .map(|(&q, _)| q)
            .collect();

        let mut forced: HashSet<PhysQubit> = crossroad_set.clone();
        for path in &paths {
            if let Some(&first) = path.first() {
                forced.insert(first);
            }
            if let Some(&last) = path.last() {
                forced.insert(last);
            }
            for (i, q) in path.iter().enumerate() {
                if crossroad_set.contains(q) {
                    if i > 0 {
                        forced.insert(path[i - 1]);
                    }
                    if i + 1 < path.len() {
                        forced.insert(path[i + 1]);
                    }
                }
            }
        }

        // Interleaved marking: walk each corridor keeping gaps of at most
        // one interval qubit between consecutive highway qubits.
        let n = topo.num_qubits() as usize;
        let mut is_highway = vec![false; n];
        for path in &paths {
            let mut last_hw: Option<usize> = None;
            for (i, &q) in path.iter().enumerate() {
                let must = forced.contains(&q)
                    || last_hw.is_none_or(|l| i - l >= 2)
                    || i + 1 == path.len();
                if must {
                    is_highway[q.index()] = true;
                    last_hw = Some(i);
                } else if is_highway[q.index()] {
                    // Already highway via another corridor.
                    last_hw = Some(i);
                }
            }
        }

        // Derive edges along each corridor between consecutive highway
        // qubits (distance 1 -> direct, distance 2 -> bridge).
        let mut edge_keys: HashSet<(PhysQubit, PhysQubit)> = HashSet::new();
        let mut edges: Vec<HighwayEdge> = Vec::new();
        let mut push_edge =
            |a: PhysQubit, b: PhysQubit, kind: HighwayEdgeKind, edges: &mut Vec<HighwayEdge>| {
                let key = (a.min(b), a.max(b));
                if edge_keys.insert(key) {
                    edges.push(HighwayEdge { a, b, kind });
                }
            };

        for path in &paths {
            let hw_pos: Vec<usize> = (0..path.len())
                .filter(|&i| is_highway[path[i].index()])
                .collect();
            for w in hw_pos.windows(2) {
                let (i, j) = (w[0], w[1]);
                let (a, b) = (path[i], path[j]);
                match j - i {
                    1 => push_edge(a, b, HighwayEdgeKind::Direct, &mut edges),
                    2 => push_edge(
                        a,
                        b,
                        HighwayEdgeKind::Bridge { via: path[i + 1] },
                        &mut edges,
                    ),
                    gap => unreachable!("corridor gap of {gap} between highway qubits"),
                }
            }
        }
        for (a, b) in stitch_edges {
            is_highway[a.index()] = true;
            is_highway[b.index()] = true;
            debug_assert_eq!(topo.coupling(a, b), Some(LinkKind::CrossChip));
            push_edge(a, b, HighwayEdgeKind::Cross, &mut edges);
        }

        let nodes: Vec<PhysQubit> = (0..n as u32)
            .map(PhysQubit)
            .filter(|q| is_highway[q.index()])
            .collect();
        let (adj_starts, adj_edges) = build_adj(n, &edges);
        let mut crossroads: Vec<PhysQubit> = crossroad_set.into_iter().collect();
        crossroads.sort();

        HighwayLayout {
            is_highway,
            dead: vec![false; n],
            nodes,
            edges,
            adj_starts,
            adj_edges,
            crossroads,
            density: m,
            num_qubits: topo.num_qubits(),
            num_dead_data: 0,
        }
    }

    /// A copy of this layout with every resource killed by `defects`
    /// pruned: dead qubits leave the node (or data) population, and a
    /// corridor edge disappears when an endpoint is dead or any coupler it
    /// rides is — `Direct`/`Cross` edges when their own link dies,
    /// `Bridge` edges when either hop through the `via` qubit (or the via
    /// itself) dies. Live highway nodes that lose every incident edge stay
    /// highway nodes: isolated corridor stubs that no claim search ever
    /// reaches.
    ///
    /// Generation always runs on the *pristine* topology (corridor carving
    /// assumes connected chiplet interiors); pruning is the post-pass that
    /// applies a calibration epoch. An empty `defects` returns a plain
    /// clone.
    pub fn pruned(&self, defects: &DefectMap) -> HighwayLayout {
        let mut layout = self.clone();
        if defects.is_empty() {
            return layout;
        }
        layout.edges = self
            .edges
            .iter()
            .filter(|e| !match e.kind {
                HighwayEdgeKind::Direct | HighwayEdgeKind::Cross => defects.kills_edge(e.a, e.b),
                HighwayEdgeKind::Bridge { via } => {
                    defects.kills_edge(e.a, via) || defects.kills_edge(via, e.b)
                }
            })
            .copied()
            .collect();
        let n = self.num_qubits as usize;
        let mut num_dead = 0u32;
        for q in defects.dead_qubits() {
            if q.index() >= n || layout.dead[q.index()] {
                continue;
            }
            layout.dead[q.index()] = true;
            layout.is_highway[q.index()] = false;
            num_dead += 1;
        }
        layout.num_dead_data += num_dead;
        layout.nodes.retain(|q| layout.is_highway[q.index()]);
        layout.crossroads.retain(|q| layout.is_highway[q.index()]);
        let (adj_starts, adj_edges) = build_adj(n, &layout.edges);
        layout.adj_starts = adj_starts;
        layout.adj_edges = adj_edges;
        layout
    }

    /// `true` if `q` is an ancillary (highway) qubit.
    pub fn is_highway(&self, q: PhysQubit) -> bool {
        self.is_highway[q.index()]
    }

    /// All highway qubits, ascending.
    pub fn nodes(&self) -> &[PhysQubit] {
        &self.nodes
    }

    /// All highway edges.
    pub fn edges(&self) -> &[HighwayEdge] {
        &self.edges
    }

    /// `true` if `q` is out of service (defect-pruned layouts only).
    pub fn is_dead(&self, q: PhysQubit) -> bool {
        self.dead[q.index()]
    }

    /// The edges incident to highway qubit `q` — one contiguous CSR slice.
    pub fn incident_edges(&self, q: PhysQubit) -> impl Iterator<Item = &HighwayEdge> {
        let lo = self.adj_starts[q.index()] as usize;
        let hi = self.adj_starts[q.index() + 1] as usize;
        self.adj_edges[lo..hi]
            .iter()
            .map(|&i| &self.edges[i as usize])
    }

    /// Highway-graph neighbors of `q`.
    pub fn highway_neighbors(&self, q: PhysQubit) -> impl Iterator<Item = PhysQubit> + '_ {
        self.incident_edges(q).map(move |e| e.other(q))
    }

    /// The edge between two highway qubits, if any.
    pub fn edge_between(&self, a: PhysQubit, b: PhysQubit) -> Option<&HighwayEdge> {
        self.incident_edges(a).find(|e| e.a == b || e.b == b)
    }

    /// Number of ancillary qubits.
    pub fn num_highway_qubits(&self) -> usize {
        self.nodes.len()
    }

    /// Number of data qubits (total minus highway minus dead).
    pub fn num_data_qubits(&self) -> u32 {
        self.num_qubits - self.nodes.len() as u32 - self.num_dead_data
    }

    /// Fraction of all qubits devoted to the highway.
    pub fn percentage(&self) -> f64 {
        self.nodes.len() as f64 / f64::from(self.num_qubits)
    }

    /// Corridor intersection qubits.
    pub fn crossroads(&self) -> &[PhysQubit] {
        &self.crossroads
    }

    /// The density (corridors per chiplet per direction) actually used.
    pub fn density(&self) -> u32 {
        self.density
    }

    /// The data qubits (non-highway, alive), ascending. Dead qubits are
    /// excluded, so trivial placement over this list can never seat a
    /// logical qubit on a defect.
    pub fn data_qubits(&self) -> Vec<PhysQubit> {
        (0..self.num_qubits)
            .map(PhysQubit)
            .filter(|q| !self.is_highway(*q) && !self.is_dead(*q))
            .collect()
    }

    /// `true` if the highway graph is one connected component.
    pub fn is_connected(&self) -> bool {
        let Some(&start) = self.nodes.first() else {
            return true;
        };
        let mut seen: HashSet<PhysQubit> = HashSet::from([start]);
        let mut stack = vec![start];
        while let Some(q) = stack.pop() {
            for nb in self.highway_neighbors(q) {
                if seen.insert(nb) {
                    stack.push(nb);
                }
            }
        }
        seen.len() == self.nodes.len()
    }
}

/// The occupied qubit of `chip` nearest to local cell `(r, c)` (Manhattan
/// metric on the footprint, ties broken by row then column).
fn nearest_in_chiplet(topo: &Topology, chip: ChipletId, r: u32, c: u32) -> PhysQubit {
    let d = topo.spec().chiplet_size();
    let (ci, cj) = topo.chiplet_pos(chip);
    let (gr0, gc0) = (ci * d, cj * d);
    let mut best: Option<(u32, u32, u32, PhysQubit)> = None;
    for lr in 0..d {
        for lc in 0..d {
            if let Some(q) = topo.qubit_at(gr0 + lr, gc0 + lc) {
                let dist = lr.abs_diff(r) + lc.abs_diff(c);
                let key = (dist, lr, lc, q);
                if best.is_none_or(|b| (key.0, key.1, key.2) < (b.0, b.1, b.2)) {
                    best = Some(key);
                }
            }
        }
    }
    best.expect("chiplet contains at least one qubit").3
}

/// The cross-chip link between `chip` and `peer` nearest to corridor offset
/// `off`, returning `(peer_endpoint, own_endpoint)`.
///
/// `horizontal` selects whether `off` is a row (east-west stitch) or a
/// column (north-south stitch).
fn cross_anchor(
    topo: &Topology,
    chip: ChipletId,
    peer: ChipletId,
    off: u32,
    horizontal: bool,
) -> (PhysQubit, PhysQubit) {
    let d = topo.spec().chiplet_size();
    let (ci, cj) = topo.chiplet_pos(chip);
    let target = if horizontal {
        ci * d + off
    } else {
        cj * d + off
    };
    let mut best: Option<(u32, PhysQubit, PhysQubit)> = None;
    for q in topo.qubits() {
        if topo.chiplet(q) != chip {
            continue;
        }
        for link in topo.neighbor_links(q) {
            if link.kind == LinkKind::CrossChip && topo.chiplet(link.to) == peer {
                let (gr, gc) = topo.coord(q);
                let pos = if horizontal { gr } else { gc };
                let key = (pos.abs_diff(target), link.to, q);
                if best.is_none_or(|b| (key.0, key.1) < (b.0, b.1)) {
                    best = Some(key);
                }
            }
        }
    }
    let (_, other, me) = best.expect("adjacent chiplets share at least one cross link");
    (other, me)
}

/// Waypoints of one corridor inside a chiplet: the entry anchor, the
/// crossing qubits with every perpendicular corridor, and the exit anchor.
fn corridor_waypoints(
    topo: &Topology,
    chip: ChipletId,
    off: u32,
    offsets: &[u32],
    horizontal: bool,
    from: PhysQubit,
    to: PhysQubit,
) -> Vec<PhysQubit> {
    let mut wp = vec![from];
    for &perp in offsets {
        let x = if horizontal {
            nearest_in_chiplet(topo, chip, off, perp)
        } else {
            nearest_in_chiplet(topo, chip, perp, off)
        };
        if x != *wp.last().expect("nonempty") && x != to {
            wp.push(x);
        }
    }
    if to != *wp.last().expect("nonempty") {
        wp.push(to);
    }
    wp
}

/// Concatenates shortest paths between consecutive waypoints, staying
/// inside `chip`.
fn carve(topo: &Topology, chip: ChipletId, waypoints: &[PhysQubit]) -> Vec<PhysQubit> {
    let mut path: Vec<PhysQubit> = vec![waypoints[0]];
    for w in waypoints.windows(2) {
        let seg = shortest_path_avoiding(topo, w[0], w[1], |q| topo.chiplet(q) != chip)
            .expect("chiplet interior is connected");
        path.extend_from_slice(&seg[1..]);
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ChipletSpec, CouplingStructure};

    fn square_hw(d: u32, rows: u32, cols: u32, density: u32) -> (Topology, HighwayLayout) {
        let topo = ChipletSpec::square(d, rows, cols).build();
        let hw = HighwayLayout::generate(&topo, density);
        (topo, hw)
    }

    #[test]
    fn single_chiplet_has_a_cross_of_ancillas() {
        let (_, hw) = square_hw(7, 1, 1, 1);
        assert!(hw.num_highway_qubits() >= 7);
        assert!(hw.is_connected());
        assert_eq!(hw.crossroads().len(), 1);
    }

    #[test]
    fn array_highway_is_connected_across_chiplets() {
        let (_, hw) = square_hw(7, 3, 3, 1);
        assert!(hw.is_connected());
        let has_cross = hw
            .edges()
            .iter()
            .any(|e| matches!(e.kind, HighwayEdgeKind::Cross));
        assert!(has_cross, "stitches must use cross-chip links");
    }

    #[test]
    fn percentage_decreases_with_chiplet_size() {
        let p6 = square_hw(6, 3, 3, 1).1.percentage();
        let p9 = square_hw(9, 3, 3, 1).1.percentage();
        assert!(p6 > p9, "p6={p6} p9={p9}");
        assert!(p6 < 0.30 && p9 > 0.08);
    }

    #[test]
    fn density_increases_percentage_monotonically() {
        let p1 = square_hw(9, 2, 3, 1).1.percentage();
        let p2 = square_hw(9, 2, 3, 2).1.percentage();
        let p3 = square_hw(9, 2, 3, 3).1.percentage();
        assert!(p1 < p2 && p2 < p3, "{p1} {p2} {p3}");
    }

    #[test]
    fn bridge_vias_are_data_qubits() {
        let (_, hw) = square_hw(7, 2, 2, 1);
        let mut bridges = 0;
        for e in hw.edges() {
            if let HighwayEdgeKind::Bridge { via } = e.kind {
                bridges += 1;
                assert!(!hw.is_highway(via), "via {via} must stay a data qubit");
            }
        }
        assert!(bridges > 0, "interleaving must produce bridge edges");
    }

    #[test]
    fn edges_connect_highway_qubits_by_valid_mechanisms() {
        let (topo, hw) = square_hw(7, 2, 2, 1);
        for e in hw.edges() {
            assert!(hw.is_highway(e.a) && hw.is_highway(e.b));
            match e.kind {
                HighwayEdgeKind::Direct => {
                    assert_eq!(topo.coupling(e.a, e.b), Some(LinkKind::OnChip));
                }
                HighwayEdgeKind::Bridge { via } => {
                    assert!(topo.are_coupled(e.a, via) && topo.are_coupled(via, e.b));
                }
                HighwayEdgeKind::Cross => {
                    assert_eq!(topo.coupling(e.a, e.b), Some(LinkKind::CrossChip));
                }
            }
        }
    }

    #[test]
    fn works_with_sparse_cross_links() {
        let topo = ChipletSpec::square(7, 2, 2)
            .with_cross_links_per_edge(1)
            .build();
        let hw = HighwayLayout::generate(&topo, 1);
        assert!(hw.is_connected());
    }

    #[test]
    fn works_on_all_structures() {
        for s in CouplingStructure::ALL {
            let topo = ChipletSpec::new(s, 8, 2, 2).build();
            let hw = HighwayLayout::generate(&topo, 1);
            assert!(hw.is_connected(), "{s} highway disconnected");
            assert!(hw.num_highway_qubits() > 0, "{s} has no highway");
            assert!(hw.percentage() < 0.45, "{s} overhead too high");
        }
    }

    #[test]
    fn data_qubits_partition_the_device() {
        let (topo, hw) = square_hw(6, 2, 2, 1);
        let data = hw.data_qubits();
        assert_eq!(
            data.len() + hw.num_highway_qubits(),
            topo.num_qubits() as usize
        );
        for q in &data {
            assert!(!hw.is_highway(*q));
        }
        assert_eq!(hw.num_data_qubits() as usize, data.len());
    }

    #[test]
    fn crossroad_neighborhood_is_dense() {
        let (_, hw) = square_hw(7, 1, 1, 1);
        // Around the single crossroad, corridor neighbors must be direct.
        let x = hw.crossroads()[0];
        for e in hw.incident_edges(x) {
            assert!(
                !matches!(e.kind, HighwayEdgeKind::Bridge { .. }),
                "crossroad {x} should have no incident bridges"
            );
        }
    }

    #[test]
    fn max_bridge_load_is_bounded() {
        let (_, hw) = square_hw(9, 2, 2, 1);
        // Interleaving keeps every qubit (endpoint or `via`) in at most 2
        // bridge gates, so GHZ preparation stays constant-depth.
        let mut load: HashMap<PhysQubit, usize> = HashMap::new();
        for e in hw.edges() {
            if let HighwayEdgeKind::Bridge { via } = e.kind {
                for q in [e.a, e.b, via] {
                    *load.entry(q).or_insert(0) += 1;
                }
            }
        }
        let max = load.values().copied().max().unwrap_or(0);
        assert!(max <= 2, "load {max}");
    }

    #[test]
    fn pruning_with_empty_defects_is_identity() {
        let (_, hw) = square_hw(7, 1, 2, 1);
        let p = hw.pruned(&DefectMap::default());
        assert_eq!(p.nodes, hw.nodes);
        assert_eq!(p.edges.len(), hw.edges.len());
        assert_eq!(p.adj_starts, hw.adj_starts);
        assert_eq!(p.adj_edges, hw.adj_edges);
        assert_eq!(p.num_data_qubits(), hw.num_data_qubits());
    }

    #[test]
    fn dead_highway_node_leaves_nodes_and_edges() {
        let (_, hw) = square_hw(7, 1, 2, 1);
        let dead = hw.nodes()[hw.nodes().len() / 2];
        let incident = hw.incident_edges(dead).count();
        assert!(incident > 0);
        let p = hw.pruned(&DefectMap::new().with_dead_qubit(dead));
        assert!(!p.is_highway(dead));
        assert!(p.is_dead(dead));
        assert!(!p.nodes().contains(&dead));
        assert_eq!(p.incident_edges(dead).count(), 0);
        assert_eq!(p.edges().len(), hw.edges().len() - incident);
        // The dead ex-highway qubit must not resurface as a data qubit.
        assert!(!p.data_qubits().contains(&dead));
        assert_eq!(p.num_data_qubits(), hw.num_data_qubits());
    }

    #[test]
    fn dead_data_qubit_shrinks_the_data_region_and_kills_bridges() {
        let (_, hw) = square_hw(7, 1, 2, 1);
        let via = hw
            .edges()
            .iter()
            .find_map(|e| match e.kind {
                HighwayEdgeKind::Bridge { via } => Some(via),
                _ => None,
            })
            .expect("interleaving produces bridges");
        let p = hw.pruned(&DefectMap::new().with_dead_qubit(via));
        assert_eq!(p.num_data_qubits(), hw.num_data_qubits() - 1);
        assert!(!p.data_qubits().contains(&via));
        assert!(
            !p.edges()
                .iter()
                .any(|e| matches!(e.kind, HighwayEdgeKind::Bridge { via: v } if v == via)),
            "bridges through a dead via must be pruned"
        );
    }

    #[test]
    fn dead_link_prunes_exactly_the_edges_riding_it() {
        let (_, hw) = square_hw(7, 2, 2, 1);
        let cross = hw
            .edges()
            .iter()
            .find(|e| matches!(e.kind, HighwayEdgeKind::Cross))
            .copied()
            .expect("arrays have stitch edges");
        let p = hw.pruned(&DefectMap::new().with_dead_link(cross.a, cross.b));
        assert_eq!(p.edges().len(), hw.edges().len() - 1);
        assert!(p.edge_between(cross.a, cross.b).is_none());
        // Both endpoints stay live highway nodes.
        assert!(p.is_highway(cross.a) && p.is_highway(cross.b));
        assert_eq!(p.nodes().len(), hw.nodes().len());
    }

    #[test]
    fn csr_adj_matches_edge_incidence() {
        let (_, hw) = square_hw(8, 2, 2, 2);
        for &q in hw.nodes() {
            let via_adj: Vec<HighwayEdge> = hw.incident_edges(q).copied().collect();
            let via_scan: Vec<HighwayEdge> = hw
                .edges()
                .iter()
                .filter(|e| e.a == q || e.b == q)
                .copied()
                .collect();
            assert_eq!(via_adj, via_scan, "CSR incidence diverged at {q}");
        }
    }

    #[test]
    fn edge_between_and_other_work() {
        let (_, hw) = square_hw(6, 1, 1, 1);
        let e = hw.edges()[0];
        assert_eq!(e.other(e.a), e.b);
        let found = hw.edge_between(e.a, e.b).unwrap();
        assert_eq!(found.a, e.a);
        assert!(hw.highway_neighbors(e.a).any(|n| n == e.b));
    }
}
