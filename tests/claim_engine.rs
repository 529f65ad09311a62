//! Oracle-equivalence suite for the one-search highway claim engine.
//!
//! The claim engine answers every candidate entrance from one lazily
//! drained search. That is a pure refactor of the seed behavior: a claim
//! must return exactly the path (and exactly the error) the old
//! *per-candidate* Dijkstra returned. This file pins that property against
//! a reference implementation of the old algorithm under randomized
//! claim/release churn, and asserts the engine's fast-path counters
//! actually engage on a real compile.

use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use mech::{CompilerConfig, MechCompiler};
use mech_bench::programs;
use mech_chiplet::{ChipletSpec, HighwayLayout, PhysQubit, Topology};
use mech_highway::{GroupId, HighwayOccupancy, HighwaySkeleton, RouteError};

/// Reference implementation: the seed compiler's claim bookkeeping with a
/// dedicated early-exit Dijkstra per claim (the algorithm `try_claim`
/// replaced), including its O(len) edge dedup and O(n) counters.
struct Oracle {
    owner: Vec<Option<GroupId>>,
    nodes: Vec<(GroupId, Vec<PhysQubit>)>,
    edges: Vec<(GroupId, Vec<(PhysQubit, PhysQubit)>)>,
}

impl Oracle {
    fn new(topo: &Topology) -> Self {
        Oracle {
            owner: vec![None; topo.num_qubits() as usize],
            nodes: Vec::new(),
            edges: Vec::new(),
        }
    }

    fn nodes_of(&self, g: GroupId) -> &[PhysQubit] {
        self.nodes
            .iter()
            .find(|(gid, _)| *gid == g)
            .map_or(&[], |(_, v)| v.as_slice())
    }

    fn edges_of(&self, g: GroupId) -> &[(PhysQubit, PhysQubit)] {
        self.edges
            .iter()
            .find(|(gid, _)| *gid == g)
            .map_or(&[], |(_, v)| v.as_slice())
    }

    fn claimed_count(&self) -> usize {
        self.owner.iter().filter(|o| o.is_some()).count()
    }

    fn active_groups(&self) -> Vec<GroupId> {
        let mut gs: Vec<GroupId> = self.nodes.iter().map(|(g, _)| *g).collect();
        gs.sort();
        gs
    }

    fn release(&mut self, g: GroupId) {
        if let Some(i) = self.nodes.iter().position(|(gid, _)| *gid == g) {
            for &q in &self.nodes[i].1 {
                self.owner[q.index()] = None;
            }
            self.nodes.remove(i);
        }
        if let Some(i) = self.edges.iter().position(|(gid, _)| *gid == g) {
            self.edges.remove(i);
        }
    }

    fn release_all(&mut self) {
        self.owner.iter_mut().for_each(|o| *o = None);
        self.nodes.clear();
        self.edges.clear();
    }

    /// The seed `claim_route`: per-candidate Dijkstra with
    /// `((cost, hops), qubit)` pop order, early exit at `to`, and backward
    /// min-id path reconstruction.
    fn claim_route(
        &mut self,
        layout: &HighwayLayout,
        from: PhysQubit,
        to: PhysQubit,
        g: GroupId,
    ) -> Result<Vec<PhysQubit>, RouteError> {
        for q in [from, to] {
            if !layout.is_highway(q) {
                return Err(RouteError::NotHighway { qubit: q });
            }
        }
        let avail =
            |owner: &[Option<GroupId>], q: PhysQubit| owner[q.index()].is_none_or(|o| o == g);
        if !avail(&self.owner, from) || !avail(&self.owner, to) {
            return Err(RouteError::Congested);
        }

        const UNREACHED: (u32, u32) = (u32::MAX, u32::MAX);
        let mut cost = vec![UNREACHED; self.owner.len()];
        let owned = |owner: &[Option<GroupId>], q: PhysQubit| owner[q.index()] == Some(g);
        let start = (u32::from(!owned(&self.owner, from)), 0);
        cost[from.index()] = start;
        let mut heap = BinaryHeap::new();
        heap.push(Reverse((start, from)));
        while let Some(Reverse((c, q))) = heap.pop() {
            if c > cost[q.index()] {
                continue;
            }
            if q == to {
                break;
            }
            for nb in layout.highway_neighbors(q) {
                if !avail(&self.owner, nb) {
                    continue;
                }
                let nc = (c.0 + u32::from(!owned(&self.owner, nb)), c.1 + 1);
                if nc < cost[nb.index()] {
                    cost[nb.index()] = nc;
                    heap.push(Reverse((nc, nb)));
                }
            }
        }
        if cost[to.index()] == UNREACHED {
            return Err(RouteError::Congested);
        }

        // Backward reconstruction by minimum-id predecessor.
        let mut path = vec![to];
        let mut cur = to;
        let mut g_cur = cost[to.index()];
        while cur != from {
            let w = (u32::from(!owned(&self.owner, cur)), 1);
            let target = (g_cur.0 - w.0, g_cur.1 - w.1);
            let mut parent: Option<PhysQubit> = None;
            for u in layout.highway_neighbors(cur) {
                if cost[u.index()] == target && parent.is_none_or(|p| u < p) {
                    parent = Some(u);
                }
            }
            let u = parent.expect("settled node has a predecessor");
            path.push(u);
            cur = u;
            g_cur = target;
        }
        path.reverse();

        // Seed bookkeeping: claim new nodes, dedup edges by linear scan.
        if !self.nodes.iter().any(|(gid, _)| *gid == g) {
            self.nodes.push((g, Vec::new()));
            self.edges.push((g, Vec::new()));
        }
        let group_nodes = &mut self
            .nodes
            .iter_mut()
            .find(|(gid, _)| *gid == g)
            .expect("just ensured")
            .1;
        for &q in &path {
            if self.owner[q.index()].is_none() {
                self.owner[q.index()] = Some(g);
                group_nodes.push(q);
            }
        }
        let group_edges = &mut self
            .edges
            .iter_mut()
            .find(|(gid, _)| *gid == g)
            .expect("just ensured")
            .1;
        for w in path.windows(2) {
            let key = (w[0].min(w[1]), w[0].max(w[1]));
            if !group_edges.contains(&key) {
                group_edges.push(key);
            }
        }
        Ok(path)
    }
}

/// One churn step, decoded from proptest scalars.
#[derive(Debug, Clone, Copy)]
enum Op {
    Claim { g: u8, from: u16, to: u16 },
    Release { g: u8 },
    ReleaseAll,
}

fn decode(kind: u8, g: u8, a: u16, b: u16) -> Op {
    match kind % 8 {
        6 => Op::Release { g: g % 4 },
        7 => Op::ReleaseAll,
        _ => Op::Claim {
            g: g % 4,
            from: a,
            to: b,
        },
    }
}

/// Asserts that engine and oracle hold identical bookkeeping.
fn assert_same_books(engine: &HighwayOccupancy, oracle: &Oracle, groups: u32) {
    prop_assert_eq!(engine.claimed_count(), oracle.claimed_count());
    prop_assert_eq!(engine.active_groups(), oracle.active_groups());
    for gid in 0..groups {
        let g = GroupId(gid);
        prop_assert_eq!(engine.nodes_of(g), oracle.nodes_of(g));
        prop_assert_eq!(engine.edges_of(g), oracle.edges_of(g));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Under random claim/release churn, the one-search engine returns
    /// exactly the paths and errors of the per-candidate Dijkstra and keeps
    /// identical bookkeeping (nodes, edges, counters, active groups).
    #[test]
    fn claim_engine_matches_per_candidate_dijkstra(
        d in 5u32..8,
        cols in 1u32..3,
        density in 1u32..3,
        ops in prop::collection::vec((0u8..8, 0u8..4, 0u16..512, 0u16..512), 1..60),
    ) {
        let topo = ChipletSpec::square(d, 2, cols).build();
        let hw = HighwayLayout::generate(&topo, density);
        let skeleton = HighwaySkeleton::build(topo.num_qubits() as usize, &hw);
        let mut engine = HighwayOccupancy::new(Arc::new(skeleton));
        let mut oracle = Oracle::new(&topo);
        let hw_nodes = hw.nodes();

        for &(kind, g, a, b) in &ops {
            match decode(kind, g, a, b) {
                Op::Claim { g, from, to } => {
                    let g = GroupId(u32::from(g));
                    let from = hw_nodes[from as usize % hw_nodes.len()];
                    let to = hw_nodes[to as usize % hw_nodes.len()];
                    let expected = oracle.claim_route(&hw, from, to, g);
                    let got = engine.claim_route(from, to, g);
                    prop_assert_eq!(&got, &expected, "claim diverged: {}->{} {}", from, to, g);
                }
                Op::Release { g } => {
                    let g = GroupId(u32::from(g));
                    engine.release(g);
                    oracle.release(g);
                }
                Op::ReleaseAll => {
                    engine.release_all();
                    oracle.release_all();
                }
            }
            // Bookkeeping stays identical after every step.
            assert_same_books(&engine, &oracle, 4);
        }
    }
}

/// One step of a group's assembly, decoded from proptest scalars.
#[derive(Debug, Clone, Copy)]
enum AssemblyStep {
    /// A claim from the group's origin to any highway node: often
    /// unavailable, owned by another group or walled off.
    Anywhere(u16),
    /// A claim to a node the group already owns (zero growth).
    Owned(u16),
    /// A claim to a neighbor of a node the group owns (small growth).
    Adjacent(u16, u8),
    /// Another active group claims from its own first node.
    OtherClaims(u16, u16),
    /// Another active group is released.
    OtherReleases(u16),
}

fn decode_step(kind: u8, a: u16, b: u16) -> AssemblyStep {
    match kind % 10 {
        0..=2 => AssemblyStep::Anywhere(a),
        3..=4 => AssemblyStep::Owned(a),
        5..=7 => AssemblyStep::Adjacent(a, b as u8),
        8 => AssemblyStep::OtherClaims(a, b),
        _ => AssemblyStep::OtherReleases(a),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Shaped like group assembly: each group claims its origin, then runs
    /// many consecutive claims from that one origin — growing and
    /// zero-growth, to unavailable, foreign-owned and unreachable
    /// candidates, including claims against a search the previous claims
    /// drained to exhaustion — with other groups claiming and releasing in
    /// between. Each `(origin, group)` keeps one live search across its own
    /// growth, so this exercises the in-place repair (and its finality
    /// rule) that the churn test above, which rarely repeats a key, does
    /// not. `try_claim` and `claim_route` alternate so both the stopped and
    /// the full backward walk run against the same marks.
    #[test]
    fn group_assembly_matches_per_candidate_dijkstra(
        d in 5u32..8,
        cols in 1u32..3,
        density in 1u32..3,
        groups in prop::collection::vec(
            (
                0u16..512,
                prop::collection::vec((0u8..10, 0u16..512, 0u16..512), 1..40),
                0u8..4,
            ),
            1..10,
        ),
    ) {
        let topo = ChipletSpec::square(d, 2, cols).build();
        let hw = HighwayLayout::generate(&topo, density);
        let skeleton = HighwaySkeleton::build(topo.num_qubits() as usize, &hw);
        let mut engine = HighwayOccupancy::new(Arc::new(skeleton));
        let mut oracle = Oracle::new(&topo);
        let hw_nodes = hw.nodes();
        let pick = |i: u16| hw_nodes[i as usize % hw_nodes.len()];
        let num_groups = groups.len() as u32;

        for (gi, (origin, steps, shuttle_end)) in groups.iter().enumerate() {
            let g = GroupId(gi as u32);
            let origin = pick(*origin);
            // The hub self-claim, as group assembly opens with.
            let expected = oracle.claim_route(&hw, origin, origin, g).map(|_| ());
            prop_assert_eq!(engine.try_claim(origin, origin, g), expected);
            assert_same_books(&engine, &oracle, num_groups);

            for (si, &(kind, a, b)) in steps.iter().enumerate() {
                let owned = oracle.nodes_of(g).to_vec();
                let others: Vec<GroupId> =
                    oracle.active_groups().into_iter().filter(|&h| h != g).collect();
                let to = match decode_step(kind, a, b) {
                    AssemblyStep::Anywhere(a) => Some(pick(a)),
                    AssemblyStep::Owned(a) if !owned.is_empty() => {
                        Some(owned[a as usize % owned.len()])
                    }
                    AssemblyStep::Adjacent(a, b) if !owned.is_empty() => {
                        let q = owned[a as usize % owned.len()];
                        let nbs: Vec<PhysQubit> = hw.highway_neighbors(q).collect();
                        Some(nbs[b as usize % nbs.len()])
                    }
                    AssemblyStep::OtherClaims(a, b) if !others.is_empty() => {
                        let h = others[a as usize % others.len()];
                        let from = oracle.nodes_of(h)[0];
                        let to = pick(b);
                        let expected = oracle.claim_route(&hw, from, to, h).map(|_| ());
                        prop_assert_eq!(engine.try_claim(from, to, h), expected);
                        None
                    }
                    AssemblyStep::OtherReleases(a) if !others.is_empty() => {
                        let h = others[a as usize % others.len()];
                        engine.release(h);
                        oracle.release(h);
                        None
                    }
                    _ => Some(pick(a)),
                };
                if let Some(to) = to {
                    let expected = oracle.claim_route(&hw, origin, to, g);
                    if si % 2 == 0 {
                        prop_assert_eq!(
                            engine.try_claim(origin, to, g),
                            expected.map(|_| ()),
                            "claim diverged: {}->{} {}", origin, to, g
                        );
                    } else {
                        prop_assert_eq!(
                            engine.claim_route(origin, to, g),
                            expected,
                            "claim diverged: {}->{} {}", origin, to, g
                        );
                    }
                }
                assert_same_books(&engine, &oracle, num_groups);
            }

            // Shuttle boundaries: sometimes the group is abandoned, and
            // sometimes every claim is released.
            match shuttle_end {
                0 => {
                    engine.release(g);
                    oracle.release(g);
                }
                1 => {
                    engine.release_all();
                    oracle.release_all();
                }
                _ => {}
            }
            assert_same_books(&engine, &oracle, num_groups);
        }
    }
}

/// The engine's fast paths must engage on a real workload: a QFT compile
/// resolves most claims without a search, and keeps one search per group
/// across the group's own corridor growth (the seed engine ran one per
/// candidate entrance; restarting on every growth ran about one per
/// growing component).
#[test]
fn qft_compile_searches_drop_below_candidate_count() {
    let device = mech::DeviceSpec::square(6, 2, 2).build_artifacts();
    let n = device.num_data_qubits();
    let compiler = MechCompiler::new(device, CompilerConfig::default());
    let r = compiler.compile(&programs::qft(n)).expect("compiles");

    // The seed engine ran at least one search per executed component plus
    // one per hub self-claim; the one-search engine must stay well below
    // that, with every avoided search counted as a skip.
    let seed_floor = r.shuttle_stats.components + r.shuttle_stats.highway_gates;
    assert!(r.claim_skips > 0, "no fast path engaged");
    assert!(
        r.claim_searches < r.shuttle_stats.components,
        "searches ({}) must drop below the component count ({})",
        r.claim_searches,
        r.shuttle_stats.components
    );
    assert!(
        2 * r.claim_searches < seed_floor,
        "searches ({}) must stay well below the seed floor ({seed_floor})",
        r.claim_searches
    );
    // Group assembly claims from one origin (the hub entrance) per group,
    // and the search survives the group's own growth: at most one search
    // per executed group.
    assert!(
        r.claim_searches <= r.shuttle_stats.highway_gates,
        "searches ({}) must not exceed the executed groups ({})",
        r.claim_searches,
        r.shuttle_stats.highway_gates
    );
    // Every claim attempt either ran a search or was skipped, and each
    // executed component plus each hub claim was one successful attempt.
    assert!(r.claim_searches + r.claim_skips >= seed_floor);
}
