//! Property-based oracle suite for the flat routing substrate.
//!
//! `Topology` stores its adjacency as sorted CSR rows and every graph walk
//! runs through the `mech_chiplet` kernel layer (see `DESIGN.md` §10).
//! These tests pin the flat layout against the *retained* pre-CSR builder
//! ([`Topology::reference_adjacency`]: per-qubit `Vec<Link>` lists in
//! legacy insertion order) across all coupling structures, device shapes
//! and cross-link sparsities:
//!
//! * degree lists and neighbor sets (with link kinds) must match the
//!   reference exactly;
//! * `coupling`'s binary search must agree with a linear scan of the
//!   reference lists, both ways;
//! * BFS distances computed by the stamped kernel over the CSR rows must
//!   match a reference BFS over the legacy lists, on pristine, sparse and
//!   defect-masked topologies;
//! * every link joins grid-adjacent cells, so the grid (Manhattan)
//!   distance — the local router's A* heuristic — is at most the hop
//!   distance, and changes by exactly 1 per hop (consistency);
//! * the entrance search must reproduce the legacy traversal exactly —
//!   its mid-level cutoff and first-visited accesses are pinned by the
//!   golden schedules, so the scan-order graph it runs on is contract,
//!   not accident.

use std::collections::VecDeque;

use proptest::prelude::*;

use mech_chiplet::{
    ChipletSpec, CouplingStructure, DefectMap, HighwayLayout, Link, PhysQubit, Topology,
};
use mech_highway::entrance_candidates;

fn arb_structure() -> impl Strategy<Value = CouplingStructure> {
    prop_oneof![
        Just(CouplingStructure::Square),
        Just(CouplingStructure::Hexagon),
        Just(CouplingStructure::HeavySquare),
        Just(CouplingStructure::HeavyHexagon),
    ]
}

/// Reference BFS over the legacy adjacency lists.
fn reference_bfs(adj: &[Vec<Link>], src: PhysQubit) -> Vec<u32> {
    let mut dist = vec![u32::MAX; adj.len()];
    dist[src.index()] = 0;
    let mut queue = VecDeque::from([src]);
    while let Some(q) = queue.pop_front() {
        for l in &adj[q.index()] {
            if dist[l.to.index()] == u32::MAX {
                dist[l.to.index()] = dist[q.index()] + 1;
                queue.push_back(l.to);
            }
        }
    }
    dist
}

/// The seed compiler's entrance search, verbatim, over the legacy
/// adjacency: BFS through data qubits in legacy insertion order, recording
/// the first-visited access per entrance and cutting off mid-level once
/// `limit` options exist.
fn reference_entrances(
    adj: &[Vec<Link>],
    hw: &HighwayLayout,
    from: PhysQubit,
    limit: usize,
) -> Vec<(PhysQubit, PhysQubit, u32)> {
    let mut options: Vec<(PhysQubit, PhysQubit, u32)> = Vec::new();
    let mut dist = vec![u32::MAX; adj.len()];
    dist[from.index()] = 0;
    let mut queue = VecDeque::from([from]);
    while let Some(v) = queue.pop_front() {
        for l in &adj[v.index()] {
            if hw.is_highway(l.to)
                && !options
                    .iter()
                    .any(|&(e, _, d)| e == l.to && d <= dist[v.index()])
            {
                options.push((l.to, v, dist[v.index()]));
            }
        }
        if options.len() >= limit {
            break;
        }
        for l in &adj[v.index()] {
            if !hw.is_highway(l.to) && dist[l.to.index()] == u32::MAX {
                dist[l.to.index()] = dist[v.index()] + 1;
                queue.push_back(l.to);
            }
        }
    }
    options.sort_by_key(|&(e, a, d)| (d, e, a));
    options.truncate(limit);
    options
}

fn build(
    structure: CouplingStructure,
    d: u32,
    rows: u32,
    cols: u32,
    keep: Option<u32>,
) -> Topology {
    let mut spec = ChipletSpec::new(structure, d, rows, cols);
    if let Some(k) = keep {
        spec = spec.with_cross_links_per_edge(k);
    }
    spec.build()
}

/// `topo` with the qubits and links picked by `qubit_picks` / `link_picks`
/// (indices reduced modulo the qubit and link counts) masked dead.
fn masked(topo: &Topology, qubit_picks: &[u32], link_picks: &[u32]) -> Topology {
    let n = topo.num_qubits();
    let links: Vec<(PhysQubit, PhysQubit)> = topo
        .qubits()
        .flat_map(|q| {
            topo.neighbors(q)
                .iter()
                .filter(move |&&b| q < b)
                .map(move |&b| (q, b))
        })
        .collect();
    let mut map = DefectMap::new();
    for &pick in qubit_picks {
        map = map.with_dead_qubit(PhysQubit(pick % n));
    }
    for &pick in link_picks {
        let (a, b) = links[pick as usize % links.len()];
        map = map.with_dead_link(a, b);
    }
    topo.masked(&map)
}

/// Manhattan distance between two qubits' global grid cells.
fn grid_distance(topo: &Topology, a: PhysQubit, b: PhysQubit) -> u32 {
    let ((ra, ca), (rb, cb)) = (topo.coord(a), topo.coord(b));
    ra.abs_diff(rb) + ca.abs_diff(cb)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// CSR rows are sorted and hold exactly the reference builder's links,
    /// on pristine, sparse and defect-masked topologies, and every link
    /// joins cells at grid distance 1.
    #[test]
    fn csr_matches_reference_adjacency(
        structure in arb_structure(),
        d in 4u32..9,
        rows in 1u32..3,
        cols in 1u32..4,
        keep in prop::option::of(1u32..5),
        qubit_picks in prop::collection::vec(0u32..10_000, 0..4),
        link_picks in prop::collection::vec(0u32..10_000, 0..4),
    ) {
        let topo = masked(&build(structure, d, rows, cols, keep), &qubit_picks, &link_picks);
        let reference = topo.reference_adjacency();
        prop_assert_eq!(reference.len(), topo.num_qubits() as usize);
        for q in topo.qubits() {
            let row = topo.neighbors(q);
            prop_assert!(row.windows(2).all(|w| w[0] < w[1]), "unsorted row at {}", q);
            // Degree list.
            prop_assert_eq!(row.len(), reference[q.index()].len(), "degree at {}", q);
            // Neighbor set with kinds.
            let mut legacy: Vec<Link> = reference[q.index()].clone();
            legacy.sort_by_key(|l| l.to);
            let flat: Vec<Link> = topo.neighbor_links(q).collect();
            prop_assert_eq!(flat, legacy, "links at {}", q);
            for &nb in row {
                prop_assert_eq!(grid_distance(&topo, q, nb), 1, "link {}-{} spans cells", q, nb);
            }
        }
    }

    /// The binary-search coupling lookup agrees with a linear scan of the
    /// reference lists, for couplers and non-couplers alike.
    #[test]
    fn coupling_binary_search_matches_linear_scan(
        structure in arb_structure(),
        d in 4u32..8,
        keep in prop::option::of(1u32..4),
        probe in 0u32..10_000,
    ) {
        let topo = build(structure, d, 2, 2, keep);
        let reference = topo.reference_adjacency();
        let n = topo.num_qubits();
        // A deterministic pseudo-random pair per probe, plus every real
        // coupler of one source qubit.
        let a = PhysQubit(probe % n);
        let b = PhysQubit((probe * 31 + 7) % n);
        let scan = reference[a.index()].iter().find(|l| l.to == b).map(|l| l.kind);
        prop_assert_eq!(topo.coupling(a, b), scan);
        prop_assert_eq!(topo.are_coupled(a, b), scan.is_some());
        for l in &reference[a.index()] {
            prop_assert_eq!(topo.coupling(a, l.to), Some(l.kind));
            prop_assert_eq!(topo.coupling(l.to, a), Some(l.kind));
        }
    }

    /// Kernel BFS distances over the CSR match a reference BFS over the
    /// legacy lists on pristine, sparse and defect-masked topologies, and
    /// the grid distance never exceeds them.
    #[test]
    fn bfs_distances_match_reference(
        structure in arb_structure(),
        d in 4u32..9,
        rows in 1u32..3,
        cols in 1u32..3,
        keep in prop::option::of(1u32..4),
        qubit_picks in prop::collection::vec(0u32..10_000, 0..4),
        link_picks in prop::collection::vec(0u32..10_000, 0..4),
        src_seed in 0u32..10_000,
    ) {
        let topo = masked(&build(structure, d, rows, cols, keep), &qubit_picks, &link_picks);
        let reference = topo.reference_adjacency();
        let src = PhysQubit(src_seed % topo.num_qubits());
        let oracle = reference_bfs(&reference, src);
        let kernel = mech_chiplet::bfs_distances(&topo, src);
        prop_assert_eq!(&kernel, &oracle);
        for q in topo.qubits() {
            if kernel[q.index()] != u32::MAX {
                prop_assert!(
                    grid_distance(&topo, src, q) <= kernel[q.index()],
                    "grid distance exceeds hops at {}", q
                );
            }
        }
    }

    /// The kernel-based entrance search reproduces the legacy traversal
    /// bit-for-bit: same entrances, same accesses, same distances, same
    /// cutoff — on every structure, not just the golden square devices.
    #[test]
    fn entrance_search_matches_legacy_traversal(
        structure in arb_structure(),
        d in 6u32..9,
        limit in 1usize..6,
    ) {
        let topo = build(structure, d, 2, 2, None);
        let hw = HighwayLayout::generate(&topo, 1);
        let reference = topo.reference_adjacency();
        for q in hw.data_qubits() {
            let kernel: Vec<(PhysQubit, PhysQubit, u32)> = entrance_candidates(&topo, &hw, q, limit)
                .into_iter()
                .map(|o| (o.entrance, o.access, o.distance))
                .collect();
            let legacy = reference_entrances(&reference, &hw, q, limit);
            prop_assert_eq!(kernel, legacy, "entrance table diverged at {}", q);
        }
    }
}
