//! Cross-validation: whenever the compiler's commutation analysis claims
//! two gates commute, the simulator must agree that applying them in either
//! order yields the same state. This is the soundness property the whole
//! MECH scheduler rests on (the aggregator reorders commuting gates onto
//! shuttles).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use mech_circuit::{commutes, Circuit, CommutationDag, Gate, OneQubitGate, Qubit, TwoQubitKind};
use mech_statevec::State;

const N: u32 = 4;
const EPS: f64 = 1e-9;

fn arb_gate() -> impl Strategy<Value = Gate> {
    let one = (0u32..N, 0usize..7).prop_map(|(q, k)| {
        let gate = match k {
            0 => OneQubitGate::H,
            1 => OneQubitGate::X,
            2 => OneQubitGate::Z,
            3 => OneQubitGate::S,
            4 => OneQubitGate::Rz(0.37),
            5 => OneQubitGate::Rx(0.81),
            _ => OneQubitGate::Ry(1.13),
        };
        Gate::One { gate, q: Qubit(q) }
    });
    let two = (0u32..N, 0u32..N, 0usize..4).prop_filter_map("distinct operands", |(a, b, k)| {
        if a == b {
            return None;
        }
        let kind = match k {
            0 => TwoQubitKind::Cnot,
            1 => TwoQubitKind::Cz,
            2 => TwoQubitKind::Cphase,
            _ => TwoQubitKind::Rzz,
        };
        Some(Gate::Two {
            kind,
            a: Qubit(a),
            b: Qubit(b),
            angle: 0.59,
        })
    });
    prop_oneof![one, two]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `commutes(a, b) == true` implies order-independence on states.
    #[test]
    fn claimed_commutation_is_physically_sound(a in arb_gate(), b in arb_gate()) {
        if commutes(&a, &b) {
            let mut rng = StdRng::seed_from_u64(42);
            let input = State::random_product(N, &mut rng);
            let mut ab = input.clone();
            ab.apply(&a);
            ab.apply(&b);
            let mut ba = input;
            ba.apply(&b);
            ba.apply(&a);
            prop_assert!(
                ab.approx_eq(&ba, EPS),
                "{a} and {b} claimed to commute but differ (fidelity {})",
                ab.fidelity(&ba)
            );
        }
    }

    /// Any topological order of the commutation DAG produces the same
    /// final state as program order (on measurement-free circuits).
    #[test]
    fn dag_orders_preserve_semantics(seed in 0u64..200) {
        // Build a random measurement-free circuit.
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::Rng as _;
        let mut c = Circuit::new(N);
        for _ in 0..12 {
            let (a, b) = loop {
                let a = rng.gen_range(0..N);
                let b = rng.gen_range(0..N);
                if a != b { break (a, b); }
            };
            match rng.gen_range(0..5u32) {
                0 => c.h(Qubit(a)).unwrap(),
                1 => c.rz(Qubit(a), 0.3).unwrap(),
                2 => c.cnot(Qubit(a), Qubit(b)).unwrap(),
                3 => c.cz(Qubit(a), Qubit(b)).unwrap(),
                _ => c.rzz(Qubit(a), Qubit(b), 0.7).unwrap(),
            }
        }

        // Program order.
        let mut reference = State::zero(N);
        for g in c.gates() {
            reference.apply(g);
        }

        // A greedy anti-program order: always complete the LAST ready gate.
        let dag = CommutationDag::new(&c);
        let mut sched = dag.schedule();
        let mut state = State::zero(N);
        while !sched.is_finished() {
            // The highest ready id of either kind.
            let id = sched.ready_one_qubit().chain(sched.ready_two_qubit()).max().unwrap();
            state.apply(&c.gates()[id.index()]);
            sched.complete(id);
        }
        prop_assert!(
            state.approx_eq(&reference, EPS),
            "seed {seed}: reordered execution diverged (fidelity {})",
            state.fidelity(&reference)
        );
    }
}
