//! A SABRE-style swap router, standing in for the paper's baseline
//! (Qiskit transpiler at optimization level 3, whose routing stage is
//! `SabreSwap`).
//!
//! The algorithm (Li, Ding & Xie, ASPLOS 2019) maintains a *front layer* of
//! executable two-qubit gates; whenever none of them acts on coupled
//! physical qubits, it inserts the SWAP minimizing a lookahead heuristic
//!
//! ```text
//! H(swap) = decay(swap) · ( Σ_{g∈F} d(g)/|F| + w · Σ_{g∈E} d(g)/|E| )
//! ```
//!
//! where `d(g)` is the hop distance between `g`'s mapped operands, `E` an
//! *extended set* of upcoming gates, and `decay` discourages ping-ponging
//! the same qubits. `d` reads a private all-pairs hop table built once per
//! [`sabre_route`] call: nothing else in the stack needs exact hop
//! distances, so the device tier keeps none. The router runs on the full
//! coupling graph — cross-chip links included, exactly like the paper's
//! baseline — and schedules ops ASAP so depth and operation counts fall
//! out of the same [`PhysCircuit`] machinery used by MECH.

use mech_chiplet::{bfs_distances, CostModel, PhysCircuit, PhysQubit, Topology};
use mech_circuit::{Circuit, CommutationDag, Gate, GateId, Qubit};

use crate::mapping::Mapping;

// Tuning constants of the SABRE baseline, fixed like the module constants
// of Qiskit's `SabreSwap`.

/// Number of upcoming gates in the extended (lookahead) set.
const EXTENDED_SIZE: usize = 20;
/// Weight of the extended set in the heuristic.
const EXTENDED_WEIGHT: f64 = 0.5;
/// Decay added to a qubit each time it participates in a SWAP.
const DECAY_INCREMENT: f64 = 0.001;
/// SWAPs between decay resets.
const DECAY_RESET_INTERVAL: u32 = 5;
/// Front-layer gates considered for SWAP candidates and scoring (caps the
/// per-decision cost on very wide circuits).
const FRONT_CAP: usize = 16;
/// Gate completions between full front rescans. Between rescans only gates
/// touching swapped positions execute incrementally; a rescan drains
/// everything executable, refreshes the capped front layer and the
/// extended set. Small values track the front closely but pay the
/// O(ready) rebuild often; large values go stale on wide all-commuting
/// fronts and pick worse swaps.
///
/// 128 comes from a wall-clock sweep over {16, 32, 64, 128, 256, 512,
/// 1024} on the 441-qubit device across QFT/QAOA/BV/rand-dense (see
/// `DESIGN.md` §8.4): 128 routed 1–3% faster than the previous 256 on
/// every family, with byte-identical output on QFT/BV/rand-dense and a
/// 2.4% depth increase on QAOA. Below 64 wall-clock degrades sharply (the
/// rebuild dominates); above 256 nothing changes (fronts go stale first).
const RESCAN_INTERVAL: usize = 128;

/// Routes `circuit` onto `topo` with the SABRE heuristic and a trivial
/// initial layout (logical `i` on physical `i`), returning the scheduled
/// physical circuit.
///
/// # Panics
///
/// Panics if the circuit is wider than the device.
///
/// # Example
///
/// ```
/// use mech_chiplet::{ChipletSpec, CostModel};
/// use mech_circuit::benchmarks::qft;
/// use mech_router::sabre_route;
///
/// let topo = ChipletSpec::square(4, 1, 1).build();
/// let pc = sabre_route(&qft(8), &topo, CostModel::default());
/// assert!(pc.depth() > 0);
/// ```
pub fn sabre_route(circuit: &Circuit, topo: &Topology, cost: CostModel) -> PhysCircuit {
    assert!(
        circuit.num_qubits() <= topo.num_qubits(),
        "circuit needs {} qubits but device has {}",
        circuit.num_qubits(),
        topo.num_qubits()
    );

    let slots: Vec<PhysQubit> = (0..circuit.num_qubits()).map(PhysQubit).collect();
    let mut mapping = Mapping::trivial(circuit.num_qubits(), &slots);
    let mut pc = PhysCircuit::new(topo.num_qubits(), cost);
    // Exact hop distances for the swap score and `force_route`: one BFS
    // per source, once per call.
    let hops: Vec<Vec<u32>> = topo.qubits().map(|q| bfs_distances(topo, q)).collect();

    let dag = CommutationDag::new(circuit);
    let mut sched = dag.schedule();
    let mut decay = vec![1.0f64; topo.num_qubits() as usize];
    let mut swaps_since_reset = 0u32;
    let mut extended_cursor = 0usize;
    let mut stagnant = 0u32;

    // Per-scan caches: rebuilding them per swap would be quadratic on
    // wide all-commuting fronts (QAOA readies tens of thousands of gates).
    // `qubit_gates[q]` holds the blocked ready 2q gates touching logical q;
    // `front`/`extended` feed the heuristic; `scan_buf` and `candidates`
    // are reusable buffers so the routing loop allocates nothing in steady
    // state.
    let mut front: Vec<(GateId, Qubit, Qubit)> = Vec::new();
    let mut extended: Vec<(Qubit, Qubit)> = Vec::new();
    let mut qubit_gates: Vec<Vec<GateId>> = vec![Vec::new(); circuit.num_qubits() as usize];
    let mut scan_buf: Vec<GateId> = Vec::new();
    let mut candidates: Vec<(PhysQubit, PhysQubit)> = Vec::new();
    let mut completions_since_scan = 0usize;
    let mut need_scan = true;

    while !sched.is_finished() {
        if need_scan || completions_since_scan >= RESCAN_INTERVAL || front.is_empty() {
            // Full scan: execute everything executable, then rebuild the
            // caches from the blocked remainder.
            let mut progressed = true;
            while progressed {
                progressed = false;
                // Free gates drain straight off the partitioned front.
                while let Some(id) = sched.pop_ready_one_qubit() {
                    match circuit.gates()[id.index()] {
                        Gate::One { q, .. } => pc.one_qubit(mapping.phys(q)),
                        Gate::Measure { q } => {
                            pc.measure(mapping.phys(q));
                        }
                        Gate::Two { .. } => unreachable!("front is partitioned by kind"),
                    }
                    progressed = true;
                }
                // Coupled two-qubit gates execute in ascending id order;
                // anything they unlock is handled by the next sweep.
                scan_buf.clear();
                scan_buf.extend(sched.ready_two_qubit());
                for &id in &scan_buf {
                    let Gate::Two { a, b, .. } = circuit.gates()[id.index()] else {
                        unreachable!("front is partitioned by kind");
                    };
                    let (pa, pb) = (mapping.phys(a), mapping.phys(b));
                    if topo.are_coupled(pa, pb) {
                        pc.two_qubit(topo, pa, pb);
                        sched.complete(id);
                        progressed = true;
                        stagnant = 0;
                    }
                }
            }
            if sched.is_finished() {
                break;
            }

            front.clear();
            qubit_gates.iter_mut().for_each(Vec::clear);
            for id in sched.ready_two_qubit() {
                let Gate::Two { a, b, .. } = circuit.gates()[id.index()] else {
                    unreachable!("front is partitioned by kind");
                };
                if front.len() < FRONT_CAP {
                    front.push((id, a, b));
                }
                qubit_gates[a.index()].push(id);
                qubit_gates[b.index()].push(id);
            }
            debug_assert!(!front.is_empty(), "blocked with no two-qubit gate in front");

            // Extended set: upcoming two-qubit gates in program order.
            while extended_cursor < circuit.len()
                && sched.is_completed(GateId(extended_cursor as u32))
            {
                extended_cursor += 1;
            }
            extended.clear();
            for idx in extended_cursor..circuit.len() {
                if extended.len() >= EXTENDED_SIZE {
                    break;
                }
                let id = GateId(idx as u32);
                if sched.is_completed(id) || sched.is_gate_ready(id) {
                    continue;
                }
                if let Gate::Two { a, b, .. } = circuit.gates()[idx] {
                    extended.push((a, b));
                }
            }
            completions_since_scan = 0;
            need_scan = false;
        }

        stagnant += 1;
        if stagnant > 200 {
            // Fallback: force the first front gate together along a
            // shortest path (guards against heuristic livelock).
            let (_, a, b) = front[0];
            force_route(&mut pc, topo, &hops, &mut mapping, a, b);
            need_scan = true;
            stagnant = 0;
            continue;
        }

        // Candidate swaps: links touching any front-layer qubit.
        candidates.clear();
        for &(_, a, b) in &front {
            for q in [mapping.phys(a), mapping.phys(b)] {
                for &nb in topo.neighbors(q) {
                    let pair = (q.min(nb), q.max(nb));
                    if !candidates.contains(&pair) {
                        candidates.push(pair);
                    }
                }
            }
        }

        let dist_after = |swap: (PhysQubit, PhysQubit), x: Qubit, y: Qubit| -> f64 {
            let map_through = |p: PhysQubit| -> PhysQubit {
                if p == swap.0 {
                    swap.1
                } else if p == swap.1 {
                    swap.0
                } else {
                    p
                }
            };
            let pa = map_through(mapping.phys(x));
            let pb = map_through(mapping.phys(y));
            f64::from(hops[pa.index()][pb.index()])
        };

        let mut best: Option<((PhysQubit, PhysQubit), f64)> = None;
        for &swap in &candidates {
            let f_score: f64 = front
                .iter()
                .map(|&(_, a, b)| dist_after(swap, a, b))
                .sum::<f64>()
                / front.len() as f64;
            let e_score: f64 = if extended.is_empty() {
                0.0
            } else {
                extended
                    .iter()
                    .map(|&(a, b)| dist_after(swap, a, b))
                    .sum::<f64>()
                    / extended.len() as f64
            };
            let d = decay[swap.0.index()].max(decay[swap.1.index()]);
            let score = d * (f_score + EXTENDED_WEIGHT * e_score);
            if best.is_none_or(|(_, s)| score < s) {
                best = Some((swap, score));
            }
        }

        let ((sa, sb), _) = best.expect("front-layer qubits always offer a swap");
        pc.swap(topo, sa, sb);
        mapping.swap_phys(sa, sb);
        decay[sa.index()] += DECAY_INCREMENT;
        decay[sb.index()] += DECAY_INCREMENT;
        swaps_since_reset += 1;
        if swaps_since_reset >= DECAY_RESET_INTERVAL {
            decay.iter_mut().for_each(|d| *d = 1.0);
            swaps_since_reset = 0;
        }

        // Cheap incremental execution: only gates touching the swapped
        // positions can have become executable.
        for p in [sa, sb] {
            let Some(lq) = mapping.logical(p) else {
                continue;
            };
            for &id in &qubit_gates[lq.index()] {
                if sched.is_completed(id) || !sched.is_gate_ready(id) {
                    continue;
                }
                let Gate::Two { a, b, .. } = circuit.gates()[id.index()] else {
                    continue;
                };
                let (pa, pb) = (mapping.phys(a), mapping.phys(b));
                if topo.are_coupled(pa, pb) {
                    pc.two_qubit(topo, pa, pb);
                    sched.complete(id);
                    completions_since_scan += 1;
                    stagnant = 0;
                    front.retain(|&(fid, _, _)| fid != id);
                }
            }
        }
        if front.is_empty() {
            need_scan = true;
        }
    }

    pc
}

/// Moves `a` adjacent to `b` along a shortest path unconditionally.
fn force_route(
    pc: &mut PhysCircuit,
    topo: &Topology,
    hops: &[Vec<u32>],
    mapping: &mut Mapping,
    a: Qubit,
    b: Qubit,
) {
    let target = mapping.phys(b);
    loop {
        let cur = mapping.phys(a);
        if topo.are_coupled(cur, target) {
            break;
        }
        let next = topo
            .neighbors(cur)
            .iter()
            .copied()
            .min_by_key(|&n| hops[n.index()][target.index()])
            .expect("connected topology");
        pc.swap(topo, cur, next);
        mapping.swap_phys(cur, next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mech_chiplet::ChipletSpec;
    use mech_circuit::benchmarks::{bernstein_vazirani, qft, random_circuit};
    use mech_circuit::CircuitStats;

    fn device() -> Topology {
        ChipletSpec::square(4, 2, 2).build()
    }

    #[test]
    fn adjacent_circuit_needs_no_swaps() {
        let topo = device();
        let mut c = Circuit::new(2);
        c.cnot(Qubit(0), Qubit(1)).unwrap();
        let pc = sabre_route(&c, &topo, CostModel::default());
        assert_eq!(pc.counts().on_chip_cnots, 1);
    }

    #[test]
    fn distant_gate_inserts_swaps() {
        let topo = device();
        let mut c = Circuit::new(topo.num_qubits());
        // Qubit 0 (corner) with the far corner.
        c.cnot(Qubit(0), Qubit(topo.num_qubits() - 1)).unwrap();
        let pc = sabre_route(&c, &topo, CostModel::default());
        let total = pc.counts().on_chip_cnots + pc.counts().cross_chip_cnots;
        assert!(total > 1, "needs swaps, got {total} gates");
        assert_eq!((total - 1) % 3, 0, "swap gates come in threes");
    }

    #[test]
    fn all_gates_are_routed_on_random_circuits() {
        let topo = device();
        for seed in 0..3 {
            let c = random_circuit(topo.num_qubits(), 120, seed);
            let stats: CircuitStats = c.stats();
            let pc = sabre_route(&c, &topo, CostModel::default());
            assert_eq!(pc.counts().measurements as usize, stats.measurements);
            // Every emitted 2q op acts on coupled qubits (two_qubit panics
            // otherwise), so reaching here means the routing is valid.
            assert!(pc.depth() > 0);
        }
    }

    #[test]
    fn qft_routes_and_grows_with_size() {
        let topo = device();
        let small = sabre_route(&qft(8), &topo, CostModel::default());
        let large = sabre_route(&qft(16), &topo, CostModel::default());
        assert!(large.depth() > small.depth());
        assert!(large.eff_cnots() > small.eff_cnots());
    }

    #[test]
    fn bv_depth_scales_with_distance_not_gates() {
        let topo = ChipletSpec::square(5, 1, 2).build();
        let pc = sabre_route(&bernstein_vazirani(20, 3), &topo, CostModel::default());
        assert!(pc.depth() > 0);
    }

    #[test]
    #[should_panic(expected = "device has")]
    fn oversized_circuit_panics() {
        let topo = ChipletSpec::square(3, 1, 1).build();
        let c = Circuit::new(100);
        sabre_route(&c, &topo, CostModel::default());
    }

    #[test]
    fn deterministic_output() {
        let topo = device();
        let c = random_circuit(topo.num_qubits(), 80, 9);
        let a = sabre_route(&c, &topo, CostModel::default());
        let b = sabre_route(&c, &topo, CostModel::default());
        assert_eq!(a.depth(), b.depth());
        assert_eq!(a.counts(), b.counts());
    }
}
