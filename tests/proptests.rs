//! Property-based tests over the whole stack: random programs and random
//! architectures must always produce valid, deterministic compilations,
//! and the core data structures must maintain their invariants.

use proptest::prelude::*;

use mech::{BaselineCompiler, CompilerConfig, MechCompiler};
use mech_bench::programs;
use mech_chiplet::{
    ChipletSpec, CouplingStructure, HighwayLayout, LinkKind, PhysOpKind, PhysQubit,
};
use mech_circuit::benchmarks::random_circuit;
use mech_circuit::{
    aggregate_controlled, commutes, Circuit, CommutationDag, DagSchedule, Gate, GateId,
    OneQubitGate,
};
use mech_router::Mapping;

/// The whole ready front of `sched`, ascending.
fn ready_snapshot(sched: &DagSchedule<'_>) -> Vec<GateId> {
    let mut all: Vec<GateId> = sched
        .ready_one_qubit()
        .chain(sched.ready_two_qubit())
        .collect();
    all.sort_unstable();
    all
}

fn arb_structure() -> impl Strategy<Value = CouplingStructure> {
    prop_oneof![
        Just(CouplingStructure::Square),
        Just(CouplingStructure::Hexagon),
        Just(CouplingStructure::HeavySquare),
        Just(CouplingStructure::HeavyHexagon),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random programs on random square arrays compile to valid circuits
    /// on both pipelines, deterministically.
    #[test]
    fn random_programs_compile_validly(
        seed in 0u64..1000,
        gates in 20usize..120,
        d in 5u32..7,
    ) {
        let device = mech::DeviceSpec::square(d, 2, 2).build_artifacts();
        let topo = device.topology();
        let n = device.num_data_qubits().min(30);
        let program = random_circuit(n, gates, seed);
        let config = CompilerConfig::default();

        let a = MechCompiler::new(device.clone(), config).compile(&program).unwrap();
        let b = MechCompiler::new(device.clone(), config).compile(&program).unwrap();
        prop_assert_eq!(a.circuit.depth(), b.circuit.depth());
        prop_assert_eq!(a.circuit.counts(), b.circuit.counts());

        for op in a.circuit.ops() {
            if let PhysOpKind::TwoQubit(kind) = op.kind {
                prop_assert_eq!(topo.coupling(op.a, op.b.unwrap()), Some(kind));
            }
        }

        let base = BaselineCompiler::new(topo, config).compile(&program).unwrap();
        prop_assert!(base.depth() >= 1);
    }

    /// Topology invariants hold for every structure and array shape:
    /// symmetric coupling, cross-chip links only between adjacent
    /// chiplets, connectivity.
    #[test]
    fn topology_invariants(
        structure in arb_structure(),
        d in 4u32..9,
        rows in 1u32..3,
        cols in 1u32..4,
        keep in prop::option::of(1u32..5),
    ) {
        let mut spec = ChipletSpec::new(structure, d, rows, cols);
        if let Some(k) = keep {
            spec = spec.with_cross_links_per_edge(k);
        }
        let topo = spec.build();
        prop_assert!(topo.num_qubits() > 0);
        for q in topo.qubits() {
            for l in topo.neighbor_links(q) {
                prop_assert_eq!(topo.coupling(l.to, q), Some(l.kind));
                match l.kind {
                    LinkKind::OnChip => prop_assert_eq!(topo.chiplet(q), topo.chiplet(l.to)),
                    LinkKind::CrossChip => prop_assert!(topo.chiplet(q) != topo.chiplet(l.to)),
                }
            }
        }
        // Connectivity: every qubit reachable from qubit 0.
        let hops = mech_chiplet::bfs_distances(&topo, PhysQubit(0));
        prop_assert!(hops.iter().all(|&d| d < u32::MAX));
    }

    /// The highway mesh is connected, within budget, and its bridge vias
    /// stay data qubits for all structures and densities.
    #[test]
    fn highway_invariants(
        structure in arb_structure(),
        d in 6u32..10,
        density in 1u32..3,
    ) {
        let topo = ChipletSpec::new(structure, d, 2, 2).build();
        let hw = HighwayLayout::generate(&topo, density);
        prop_assert!(hw.is_connected());
        // Density 1 must stay a clear minority; denser meshes on tiny
        // degree-3 chiplets may legitimately exceed half the device.
        let budget = if density == 1 { 0.50 } else { 0.80 };
        prop_assert!(hw.percentage() < budget, "{}", hw.percentage());
        for e in hw.edges() {
            prop_assert!(hw.is_highway(e.a) && hw.is_highway(e.b));
            if let mech_chiplet::HighwayEdgeKind::Bridge { via } = e.kind {
                prop_assert!(!hw.is_highway(via));
            }
        }
    }

    /// Aggregation partitions the ready set: every ready gate lands in
    /// exactly one group or in the leftovers, and groups share a hub.
    #[test]
    fn aggregation_is_a_partition(seed in 0u64..500, gates in 10usize..80) {
        let program = random_circuit(12, gates, seed);
        let dag = CommutationDag::new(&program);
        let sched = dag.schedule();
        let ready: Vec<GateId> = ready_snapshot(&sched);
        let (groups, rest) = aggregate_controlled(
            &program,
            &ready,
            CompilerConfig::default().min_components,
        );

        let mut seen = std::collections::HashSet::new();
        for g in &groups {
            prop_assert!(g.len() >= 2);
            for c in &g.components {
                prop_assert!(seen.insert(c.gate), "gate in two groups");
                let gate = &program.gates()[c.gate.index()];
                prop_assert!(gate.acts_on(g.hub));
                prop_assert!(gate.acts_on(c.other));
            }
        }
        for id in &rest {
            prop_assert!(seen.insert(*id), "leftover also grouped");
        }
        prop_assert_eq!(seen.len(), ready.len());
    }

    /// The ready set of the commutation DAG is always an antichain of
    /// pairwise-commuting gates, and completing gates in any ready-first
    /// order finishes the whole circuit.
    #[test]
    fn dag_ready_sets_commute_and_drain(seed in 0u64..500, gates in 5usize..60) {
        let program = random_circuit(8, gates, seed);
        let dag = CommutationDag::new(&program);
        let mut sched = dag.schedule();
        let mut steps = 0usize;
        while !sched.is_finished() {
            let ready = ready_snapshot(&sched);
            prop_assert!(!ready.is_empty());
            for (i, &a) in ready.iter().enumerate() {
                for &b in &ready[i + 1..] {
                    prop_assert!(
                        commutes(&program.gates()[a.index()], &program.gates()[b.index()]),
                        "ready gates {a:?} and {b:?} do not commute"
                    );
                }
            }
            // Complete the last ready gate (stresses non-FIFO orders).
            sched.complete(*ready.last().unwrap());
            steps += 1;
            prop_assert!(steps <= program.len());
        }
        prop_assert_eq!(sched.completed_count(), program.len());
    }

    /// Mappings stay bijective under arbitrary swap sequences.
    #[test]
    fn mapping_stays_consistent(swaps in prop::collection::vec((0u32..40, 0u32..40), 0..60)) {
        let slots: Vec<PhysQubit> = (0..20).map(PhysQubit).collect();
        let mut m = Mapping::trivial(20, &slots);
        for (a, b) in swaps {
            if a != b {
                m.swap_phys(PhysQubit(a), PhysQubit(b));
                prop_assert!(m.is_consistent());
            }
        }
    }

    /// Circuit validation rejects exactly the out-of-range gates.
    #[test]
    fn circuit_validation(n in 1u32..10, q1 in 0u32..20, q2 in 0u32..20) {
        let mut c = Circuit::new(n);
        let r = c.cnot(mech_circuit::Qubit(q1), mech_circuit::Qubit(q2));
        if q1 >= n || q2 >= n || q1 == q2 {
            prop_assert!(r.is_err());
        } else {
            prop_assert!(r.is_ok());
        }
    }
}

/// `circuit` with every `Rx`/`Ry`/`Rz` angle and every two-qubit
/// interaction angle replaced by a pseudo-random value drawn from `seed`
/// (splitmix64, uniform in [-π, π)).
fn with_random_angles(circuit: &Circuit, seed: u64) -> Circuit {
    let mut state = seed;
    let mut angle = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        ((z >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * std::f64::consts::TAU
    };
    let mut out = Circuit::with_capacity(circuit.num_qubits(), circuit.len());
    for &gate in circuit.gates() {
        let gate = match gate {
            Gate::One { gate, q } => {
                let gate = match gate {
                    OneQubitGate::Rx(_) => OneQubitGate::Rx(angle()),
                    OneQubitGate::Ry(_) => OneQubitGate::Ry(angle()),
                    OneQubitGate::Rz(_) => OneQubitGate::Rz(angle()),
                    fixed => fixed,
                };
                Gate::One { gate, q }
            }
            Gate::Two { kind, a, b, .. } => Gate::Two {
                kind,
                a,
                b,
                angle: angle(),
            },
            measure @ Gate::Measure { .. } => measure,
        };
        out.push(gate).expect("operands of a valid circuit");
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Angles never affect compilation (`mech_circuit::Gate`): QFT, QAOA
    /// and VQE with every angle re-drawn compile to exactly the original
    /// op stream and final placement.
    #[test]
    fn angles_never_change_the_schedule(seed in 0u64..u64::MAX) {
        let device = mech::DeviceSpec::square(6, 2, 2).build_artifacts();
        let n = device.num_data_qubits();
        let compiler = MechCompiler::new(device, CompilerConfig::default());
        for program in [programs::qft(n), programs::qaoa(n), programs::vqe(n)] {
            let redrawn = with_random_angles(&program, seed);
            prop_assert_ne!(&redrawn, &program);
            let original = compiler.compile(&program).unwrap();
            let rotated = compiler.compile(&redrawn).unwrap();
            prop_assert_eq!(rotated.circuit.ops(), original.circuit.ops());
            prop_assert_eq!(rotated.final_positions, original.final_positions);
        }
    }
}
