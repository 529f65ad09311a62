//! SWAP-chain local routing across the data region.
//!
//! MECH keeps the highway layout fixed for the whole computation, so data
//! qubits normally travel through data positions only. When the highway
//! corridor pinches the data region (possible on degree-3 lattices such as
//! hexagon chiplets), the router may *cross* an idle highway qubit with a
//! 3-SWAP pass-through that restores the ancilla to its position, or close
//! a terminal gap with a bridge gate — never disturbing highway state.
//! Paths always avoid *pinned* positions (hubs of open shuttles and
//! highway qubits claimed by live GHZ states).
//!
//! Pathfinding is A* over the coupling graph with the Manhattan distance
//! between grid coordinates as the (admissible, consistent) heuristic —
//! every link joins grid-adjacent cells and every step costs at least 1 —
//! running in a generation-stamped [`RoutingScratch`] so steady-state searches
//! allocate nothing. Paths are reconstructed backwards by minimum-id
//! predecessor, which reproduces exactly the tree a plain Dijkstra with
//! `(cost, qubit)` pop order builds — the search upgrade cannot change
//! compiled schedules.

use std::fmt;

use mech_chiplet::fault::{self, FaultSite};
use mech_chiplet::{
    astar_route, CancelToken, HighwayLayout, PhysCircuit, PhysQubit, QubitSet, RoutingScratch,
    SemGate2, Topology,
};

use crate::mapping::Mapping;

/// Errors from local routing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RoutingError {
    /// No route exists between the endpoints even crossing idle highway
    /// qubits (the pinned set disconnects the device).
    Disconnected {
        /// Route source.
        from: PhysQubit,
        /// Route destination.
        to: PhysQubit,
    },
}

impl fmt::Display for RoutingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RoutingError::Disconnected { from, to } => {
                write!(f, "no data route from {from} to {to}")
            }
        }
    }
}

impl std::error::Error for RoutingError {}

/// SWAP-based router over the data region.
///
/// Owns its search workspace, so routing methods take `&mut self`; create
/// one router per compilation session and reuse it for every route.
///
/// # Example
///
/// ```
/// use std::collections::HashSet;
/// use mech_chiplet::{ChipletSpec, CostModel, HighwayLayout, PhysCircuit};
/// use mech_circuit::Qubit;
/// use mech_router::{LocalRouter, Mapping};
///
/// let topo = ChipletSpec::square(5, 1, 1).build();
/// let hw = HighwayLayout::generate(&topo, 1);
/// let data = hw.data_qubits();
/// let mut mapping = Mapping::trivial(2, &data);
/// let mut pc = PhysCircuit::new(topo.num_qubits(), CostModel::default());
/// let mut router = LocalRouter::new(&topo, &hw);
/// let dest = *data.last().unwrap();
/// router
///     .route_to(&mut pc, &mut mapping, Qubit(0), dest, &HashSet::new())
///     .unwrap();
/// assert_eq!(mapping.phys(Qubit(0)), dest);
/// ```
#[derive(Debug, Clone)]
pub struct LocalRouter<'a> {
    topo: &'a Topology,
    layout: &'a HighwayLayout,
    scratch: RoutingScratch,
}

impl<'a> LocalRouter<'a> {
    /// Creates a router for the given hardware and highway layout.
    pub fn new(topo: &'a Topology, layout: &'a HighwayLayout) -> Self {
        LocalRouter {
            topo,
            layout,
            scratch: RoutingScratch::default(),
        }
    }

    /// Shares a cancellation token with the routing kernel: a cancelled
    /// token makes in-flight searches abort as unreachable, so the session
    /// can surface `Cancelled` instead of finishing the search.
    pub fn set_cancel(&mut self, cancel: CancelToken) {
        self.scratch.cancel = cancel;
    }

    /// A* over all unpinned positions with node weights reflecting SWAP
    /// cost: stepping onto a data qubit costs 1 swap; stepping onto an
    /// idle highway qubit costs 2 (the forward swap plus the restoring
    /// swap that puts the ancilla back once the traveler has passed). A
    /// run of `k` consecutive highway qubits therefore costs `2k + 1`
    /// swaps. The search runs on the shared [`astar_route`] kernel over the
    /// topology's CSR rows, with the grid (Manhattan) distance to `to` as
    /// the heuristic: each link changes it by exactly 1 and each hop costs
    /// at least 1, so it is consistent. A coupled pair skips the search:
    /// its one hop is the only optimal path. Leaves the node path from
    /// `from` to `to` inclusive in `self.scratch.path`.
    fn find_path<S: QubitSet>(
        &mut self,
        from: PhysQubit,
        to: PhysQubit,
        pinned: &S,
    ) -> Result<(), RoutingError> {
        let topo = self.topo;
        let layout = self.layout;
        let scratch = &mut self.scratch;
        scratch.path.clear();
        if fault::trip(FaultSite::LocalRouter) {
            // Injected pathfinding failure: the pair reports its natural
            // error (retryable while a shuttle is open).
            return Err(RoutingError::Disconnected { from, to });
        }
        if from == to {
            scratch.path.push(from);
            return Ok(());
        }
        if topo.are_coupled(from, to) {
            // The direct link costs w(to); any detour pays w(mid) + w(to)
            // with w ≥ 1, so the one hop is the strict optimum.
            scratch.path.extend([from, to]);
            return Ok(());
        }

        let (r_to, c_to) = topo.coord(to);
        let reached = astar_route(
            scratch,
            topo,
            from,
            to,
            |v| !pinned.contains_qubit(v),
            |v| if layout.is_highway(v) { 2 } else { 1 },
            |q| {
                let (r, c) = topo.coord(q);
                r.abs_diff(r_to) + c.abs_diff(c_to)
            },
        );
        if !reached {
            return Err(RoutingError::Disconnected { from, to });
        }

        scratch.reconstruct_path(
            from,
            to,
            |q| if layout.is_highway(q) { (2, 0) } else { (1, 0) },
            |q| topo.neighbors(q).iter().copied(),
            |_| false,
        );
        debug_assert_eq!(scratch.path[0], from);
        Ok(())
    }

    /// Emits the swaps moving the traveler along `path` (from `path[0]` to
    /// the last node), restoring every crossed highway ancilla to its
    /// position. The path must end on a data qubit.
    fn emit_path(&self, pc: &mut PhysCircuit, mapping: &mut Mapping, path: &[PhysQubit]) {
        let mut run_start = 0usize; // index of the data node before the current highway run
        for i in 1..path.len() {
            pc.swap(self.topo, path[i - 1], path[i]);
            mapping.swap_phys(path[i - 1], path[i]);
            if self.layout.is_highway(path[i]) {
                continue;
            }
            // Landed on a data qubit: restore the highway run (if any)
            // between run_start and i by swapping backwards.
            for j in (run_start + 1..i).rev() {
                pc.swap(self.topo, path[j], path[j - 1]);
                mapping.swap_phys(path[j], path[j - 1]);
            }
            run_start = i;
        }
        debug_assert!(
            !self.layout.is_highway(*path.last().expect("nonempty")),
            "routing must end on a data qubit"
        );
    }

    /// Moves logical qubit `q` to physical position `dest` by SWAPs,
    /// updating `mapping` and emitting ops.
    ///
    /// # Errors
    ///
    /// [`RoutingError::Disconnected`] if no route exists.
    pub fn route_to<S: QubitSet>(
        &mut self,
        pc: &mut PhysCircuit,
        mapping: &mut Mapping,
        q: mech_circuit::Qubit,
        dest: PhysQubit,
        pinned: &S,
    ) -> Result<(), RoutingError> {
        let from = mapping.phys(q);
        self.find_path(from, dest, pinned)?;
        self.emit_path(pc, mapping, &self.scratch.path);
        debug_assert_eq!(mapping.phys(q), dest);
        Ok(())
    }

    /// Brings two logical qubits together and emits the two-qubit gate
    /// between them. Used for off-highway ("regular") gates. If exactly one
    /// idle highway qubit separates the final positions, the gate executes
    /// as a bridge through the ancilla (4 CNOTs) instead of displacing it.
    ///
    /// `sem` names the routed gate's semantics for the trace (`a` is the
    /// control); it is ignored when recording is off.
    ///
    /// # Errors
    ///
    /// [`RoutingError::Disconnected`] if no route exists.
    pub fn execute_two_qubit<S: QubitSet>(
        &mut self,
        pc: &mut PhysCircuit,
        mapping: &mut Mapping,
        a: mech_circuit::Qubit,
        b: mech_circuit::Qubit,
        pinned: &S,
        sem: SemGate2,
    ) -> Result<(), RoutingError> {
        for _attempt in 0..4 {
            let pa = mapping.phys(a);
            let pb = mapping.phys(b);
            if self.topo.are_coupled(pa, pb) {
                pc.record_gate2(sem, pa, pb);
                pc.two_qubit(self.topo, pa, pb);
                return Ok(());
            }
            self.find_path(pa, pb, pinned)?;
            // Locate the highway run (if any) immediately before `b`'s
            // position: the traveler must stop on the last data node.
            let mut stop = self.scratch.path.len() - 1; // index of pb
            let mut gap = 0usize;
            while stop > 0 && self.layout.is_highway(self.scratch.path[stop - 1]) {
                stop -= 1;
                gap += 1;
            }
            match gap {
                0 => {
                    // Stop adjacent to pb on plain data.
                    let end = self.scratch.path.len() - 1;
                    self.emit_path(pc, mapping, &self.scratch.path[..end]);
                    let (pa, pb) = (mapping.phys(a), mapping.phys(b));
                    pc.record_gate2(sem, pa, pb);
                    pc.two_qubit(self.topo, pa, pb);
                    return Ok(());
                }
                1 => {
                    // Terminal single-qubit highway gap: bridge through the
                    // idle ancilla.
                    let via = self.scratch.path[stop];
                    self.emit_path(pc, mapping, &self.scratch.path[..stop]);
                    let at = mapping.phys(a);
                    // The 4-CNOT bridge gadget acts as an exact two-qubit
                    // gate on (at, pb) with `via` untouched.
                    pc.record_gate2(sem, at, pb);
                    pc.bridge(self.topo, at, via, pb);
                    return Ok(());
                }
                _ => {
                    // `b` sits behind a multi-qubit highway run: pull it
                    // across to a data position on this side and retry.
                    // `path[stop-1]` is the data node before the run —
                    // unless that is `a` itself (the pair is separated
                    // purely by the run), in which case any free data
                    // neighbor of `a` works as the landing spot. If `a`
                    // has none, `a` crosses to a free data neighbor of `b`
                    // instead.
                    let near = self.scratch.path[stop - 1];
                    let free_neighbor = |of: PhysQubit, other: PhysQubit| {
                        self.topo.neighbors(of).iter().copied().find(|&q| {
                            q != other && !self.layout.is_highway(q) && !pinned.contains_qubit(q)
                        })
                    };
                    let (mover, dest) = if near != pa {
                        (b, Some(near))
                    } else if let Some(dest) = free_neighbor(pa, pb) {
                        (b, Some(dest))
                    } else {
                        (a, free_neighbor(pb, pa))
                    };
                    match dest {
                        Some(dest) => self.route_to(pc, mapping, mover, dest, pinned)?,
                        None => break,
                    }
                }
            }
        }
        let (pa, pb) = (mapping.phys(a), mapping.phys(b));
        Err(RoutingError::Disconnected { from: pa, to: pb })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mech_chiplet::{ChipletSpec, CostModel, CouplingStructure, DefectMap, LinkKind};
    use mech_circuit::Qubit;
    use std::cmp::Reverse;
    use std::collections::HashSet;

    fn setup() -> (Topology, HighwayLayout) {
        let topo = ChipletSpec::square(7, 2, 2).build();
        let hw = HighwayLayout::generate(&topo, 1);
        (topo, hw)
    }

    #[test]
    fn route_moves_qubit_and_updates_mapping() {
        let (topo, hw) = setup();
        let data = hw.data_qubits();
        let mut m = Mapping::trivial(4, &data);
        let mut pc = PhysCircuit::new(topo.num_qubits(), CostModel::default());
        let mut r = LocalRouter::new(&topo, &hw);
        let dest = *data.last().unwrap();
        r.route_to(&mut pc, &mut m, Qubit(0), dest, &HashSet::new())
            .unwrap();
        assert_eq!(m.phys(Qubit(0)), dest);
        assert!(m.is_consistent());
        assert!(pc.counts().on_chip_cnots.is_multiple_of(3)); // swaps only
    }

    #[test]
    fn crossing_restores_the_ancilla_mapping() {
        let (topo, hw) = setup();
        let data = hw.data_qubits();
        let mut m = Mapping::trivial(data.len() as u32, &data);
        let mut pc = PhysCircuit::new(topo.num_qubits(), CostModel::default());
        let mut r = LocalRouter::new(&topo, &hw);
        // Route across the device; even if the path crosses the highway,
        // no highway position may hold a logical qubit afterwards.
        r.route_to(
            &mut pc,
            &mut m,
            Qubit(0),
            *data.last().unwrap(),
            &HashSet::new(),
        )
        .unwrap();
        for q in hw.nodes() {
            assert_eq!(m.logical(*q), None, "logical qubit stranded on {q}");
        }
        assert!(m.is_consistent());
    }

    #[test]
    fn data_region_is_routable_for_all_structures() {
        for s in CouplingStructure::ALL {
            let topo = ChipletSpec::new(s, 8, 2, 2).build();
            let hw = HighwayLayout::generate(&topo, 1);
            let mut r = LocalRouter::new(&topo, &hw);
            let data = hw.data_qubits();
            let first = data[0];
            for &q in data.iter().skip(1) {
                assert!(
                    r.find_path(first, q, &HashSet::new()).is_ok(),
                    "{s}: cannot route from {first} to {q}"
                );
            }
        }
    }

    #[test]
    fn path_cost_matches_plain_dijkstra() {
        // The A* search must agree with an oracle Dijkstra on both the
        // optimal cost and the reconstructed path, under random pinned
        // sets. The grid-distance heuristic is exact only on full square
        // arrays, so the cases cover every coupling structure, a
        // sparse-cross-link device and a defect-masked one, where it
        // underestimates.
        let mut cases: Vec<(String, Topology, HighwayLayout)> = CouplingStructure::ALL
            .into_iter()
            .map(|s| {
                let topo = ChipletSpec::new(s, 7, 2, 2).build();
                let hw = HighwayLayout::generate(&topo, 1);
                (s.to_string(), topo, hw)
            })
            .collect();
        let sparse = ChipletSpec::square(7, 2, 2)
            .with_cross_links_per_edge(1)
            .build();
        let sparse_hw = HighwayLayout::generate(&sparse, 1);
        cases.push(("sparse".into(), sparse, sparse_hw));
        let (topo, hw) = setup();
        let data = hw.data_qubits();
        let seam = topo
            .qubits()
            .find_map(|q| {
                topo.neighbor_links(q)
                    .find(|l| l.kind == LinkKind::CrossChip)
                    .map(|l| (q, l.to))
            })
            .unwrap();
        let defects = DefectMap::new()
            .with_dead_qubit(data[data.len() / 2])
            .with_dead_qubit(hw.nodes()[hw.nodes().len() / 2])
            .with_dead_link(seam.0, seam.1);
        cases.push(("masked".into(), topo.masked(&defects), hw.pruned(&defects)));

        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next_rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for (name, topo, hw) in &cases {
            let mut r = LocalRouter::new(topo, hw);
            let data = hw.data_qubits();
            let mut searches = 0;
            // Round 0 pins nothing; later rounds pin about one qubit in
            // eight, endpoints included: the destination stays enterable
            // and the source is never entered.
            for round in 0..4 {
                let pinned: HashSet<PhysQubit> = topo
                    .qubits()
                    .filter(|_| round > 0 && next_rand() % 8 == 0)
                    .collect();
                for &from in data.iter().step_by(data.len() / 4) {
                    for &to in data.iter().step_by(3) {
                        let (cost, path) = dijkstra_oracle(topo, hw, &pinned, from, to);
                        if r.find_path(from, to, &pinned).is_err() {
                            assert_eq!(cost, u32::MAX, "{name}: A* missed {from}->{to}");
                            continue;
                        }
                        searches += 1;
                        let astar_path = r.scratch.path.clone();
                        let astar_cost: u32 = astar_path[1..]
                            .iter()
                            .map(|&q| if hw.is_highway(q) { 2 } else { 1 })
                            .sum();
                        assert_eq!(astar_cost, cost, "{name}: cost mismatch {from}->{to}");
                        assert_eq!(astar_path, path, "{name}: path mismatch {from}->{to}");
                    }
                }
                // A coupled pair takes the one-hop shortcut; it must route
                // exactly as the searched path did: same ops, same mapping.
                for (i, &a) in data.iter().enumerate() {
                    for &b in topo.neighbors(a) {
                        if hw.is_highway(b) {
                            continue;
                        }
                        let route = |r: &mut LocalRouter, searched: bool| {
                            let mut m = Mapping::trivial(data.len() as u32, &data);
                            let mut pc = PhysCircuit::new(topo.num_qubits(), CostModel::default());
                            if searched {
                                let (_, path) = dijkstra_oracle(topo, hw, &pinned, a, b);
                                r.emit_path(&mut pc, &mut m, &path);
                            } else {
                                r.route_to(&mut pc, &mut m, Qubit(i as u32), b, &pinned)
                                    .unwrap();
                            }
                            (pc.ops().to_vec(), m)
                        };
                        assert_eq!(
                            route(&mut r, false),
                            route(&mut r, true),
                            "{name}: coupled pair {a}->{b}"
                        );
                    }
                }
            }
            assert!(searches > 100, "{name}: too few routed pairs ({searches})");
        }
    }

    /// Reference implementation: the seed compiler's Dijkstra with
    /// `(cost, qubit)` pop order and strict-improvement prev tracking,
    /// entering no pinned qubit but the destination.
    fn dijkstra_oracle(
        topo: &Topology,
        hw: &HighwayLayout,
        pinned: &HashSet<PhysQubit>,
        from: PhysQubit,
        to: PhysQubit,
    ) -> (u32, Vec<PhysQubit>) {
        let n = topo.num_qubits() as usize;
        let mut cost = vec![u32::MAX; n];
        let mut prev: Vec<Option<PhysQubit>> = vec![None; n];
        cost[from.index()] = 0;
        let mut heap = std::collections::BinaryHeap::new();
        heap.push(Reverse((0u32, from)));
        while let Some(Reverse((c, u))) = heap.pop() {
            if c > cost[u.index()] {
                continue;
            }
            if u == to {
                break;
            }
            for &v in topo.neighbors(u) {
                if v != to && pinned.contains(&v) {
                    continue;
                }
                let step = if hw.is_highway(v) { 2 } else { 1 };
                let nc = c + step;
                if nc < cost[v.index()] {
                    cost[v.index()] = nc;
                    prev[v.index()] = Some(u);
                    heap.push(Reverse((nc, v)));
                }
            }
        }
        let mut path = vec![to];
        let mut cur = to;
        while let Some(p) = prev[cur.index()] {
            path.push(p);
            cur = p;
        }
        path.reverse();
        (cost[to.index()], path)
    }

    #[test]
    fn execute_two_qubit_ends_with_coupled_gate() {
        let (topo, hw) = setup();
        let data = hw.data_qubits();
        let mut m = Mapping::trivial(8, &data);
        let mut pc = PhysCircuit::new(topo.num_qubits(), CostModel::default());
        let mut r = LocalRouter::new(&topo, &hw);
        r.execute_two_qubit(
            &mut pc,
            &mut m,
            Qubit(0),
            Qubit(7),
            &HashSet::new(),
            SemGate2::Cnot,
        )
        .unwrap();
        let last = pc.ops().last().unwrap();
        assert!(topo.are_coupled(last.a, last.b.unwrap()));
        assert!(m.is_consistent());
    }

    #[test]
    fn adjacent_gate_needs_no_swaps() {
        let (topo, hw) = setup();
        let data = hw.data_qubits();
        let (i, j) = {
            let mut found = None;
            'outer: for (i, &a) in data.iter().enumerate() {
                for (j, &b) in data.iter().enumerate().skip(i + 1) {
                    if topo.are_coupled(a, b) {
                        found = Some((i, j));
                        break 'outer;
                    }
                }
            }
            found.unwrap()
        };
        let mut m = Mapping::trivial(data.len() as u32, &data);
        let mut pc = PhysCircuit::new(topo.num_qubits(), CostModel::default());
        let mut r = LocalRouter::new(&topo, &hw);
        r.execute_two_qubit(
            &mut pc,
            &mut m,
            Qubit(i as u32),
            Qubit(j as u32),
            &HashSet::new(),
            SemGate2::Cnot,
        )
        .unwrap();
        assert_eq!(pc.counts().on_chip_cnots + pc.counts().cross_chip_cnots, 1);
    }

    #[test]
    fn pinned_blockade_reports_disconnected() {
        let (topo, hw) = setup();
        let data = hw.data_qubits();
        let mut m = Mapping::trivial(1, &data);
        let mut pc = PhysCircuit::new(topo.num_qubits(), CostModel::default());
        let mut r = LocalRouter::new(&topo, &hw);
        // Pin every qubit except source and destination: nothing can move.
        let dest = *data.last().unwrap();
        let pinned: HashSet<PhysQubit> = topo
            .qubits()
            .filter(|&q| q != data[0] && q != dest)
            .collect();
        assert_eq!(
            r.route_to(&mut pc, &mut m, Qubit(0), dest, &pinned),
            Err(RoutingError::Disconnected {
                from: data[0],
                to: dest
            })
        );
    }

    #[test]
    fn distance_zero_for_same_position() {
        let (topo, hw) = setup();
        let mut r = LocalRouter::new(&topo, &hw);
        let q = hw.data_qubits()[0];
        assert_eq!(r.find_path(q, q, &HashSet::new()), Ok(()));
        assert_eq!(r.scratch.path, [q], "no hop, so no SWAP cost");
    }
}
