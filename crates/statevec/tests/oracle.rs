//! Oracle cross-check: the bit-matrix stabilizer backend and the dense
//! state-vector simulator must tell the same story on random Clifford
//! circuits. The two implementations share no code — one is boolean linear
//! algebra over GF(2), the other complex amplitudes — so agreement is
//! strong evidence both are right.
//!
//! The circuits are run in lockstep. At every measurement the tableau's
//! determinedness claim is checked against the state vector's marginal
//! (determined ⇔ probability 0 or 1, random ⇔ probability ½), and the
//! state vector is collapsed onto the tableau's outcome. At the end, every
//! stabilizer generator the tableau reports must have expectation +1 in
//! the surviving state vector.
//!
//! `Tableau::membership` is checked the same way: on random signed Pauli
//! strings and random signed products of the generators, `In`,
//! `InWithWrongSign` and `NotIn` must match expectations +1, −1 and 0.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mech_circuit::benchmarks::random_clifford;
use mech_circuit::{Circuit, Gate, OneQubitGate, TwoQubitKind};
use mech_sim::{Membership, PauliString, Tableau};
use mech_statevec::{State, C64};

const EPS: f64 = 1e-9;

fn apply_tab(tab: &mut Tableau, gate: &Gate) {
    match *gate {
        Gate::One { gate, q } => match gate {
            OneQubitGate::H => tab.h(q.0),
            OneQubitGate::X => tab.x(q.0),
            OneQubitGate::Y => tab.y(q.0),
            OneQubitGate::Z => tab.z(q.0),
            OneQubitGate::S => tab.s(q.0),
            OneQubitGate::Sdg => tab.sdg(q.0),
            _ => unreachable!("non-clifford gate in a clifford circuit"),
        },
        Gate::Two { kind, a, b, .. } => match kind {
            TwoQubitKind::Cnot => tab.cnot(a.0, b.0),
            TwoQubitKind::Cz => tab.cz(a.0, b.0),
            TwoQubitKind::Swap => tab.swap(a.0, b.0),
            _ => unreachable!("non-clifford gate in a clifford circuit"),
        },
        Gate::Measure { .. } => unreachable!("measurements handled by the caller"),
    }
}

/// `⟨ψ|P|ψ⟩` for a signed Pauli string.
fn expectation(state: &State, p: &PauliString) -> C64 {
    let mut applied = state.clone();
    for q in 0..p.num_qubits() {
        match (p.x_bit(q), p.z_bit(q)) {
            (true, true) => applied.y(q),
            (true, false) => applied.x(q),
            (false, true) => applied.z(q),
            (false, false) => {}
        }
    }
    let e = state.inner(&applied);
    if p.neg {
        C64::new(-e.re, -e.im)
    } else {
        e
    }
}

/// Runs both backends in lockstep and cross-checks every measurement and
/// the final stabilizer group.
fn cross_check(circuit: &Circuit, outcome_seed: u64) {
    let n = circuit.num_qubits();
    let (sv, tab) = lockstep(circuit, outcome_seed);
    for g in 0..n {
        let p = tab.stabilizer(g);
        let e = expectation(&sv, &p);
        assert!(
            (e.re - 1.0).abs() < EPS && e.im.abs() < EPS,
            "generator {g} ({p}) has expectation {e:?}, want +1"
        );
    }
}

/// Runs both backends in lockstep, checking every measurement, and
/// returns the final states.
fn lockstep(circuit: &Circuit, outcome_seed: u64) -> (State, Tableau) {
    let n = circuit.num_qubits();
    let mut sv = State::zero(n);
    let mut tab = Tableau::new(n);
    let mut rng = StdRng::seed_from_u64(outcome_seed);
    for (i, gate) in circuit.gates().iter().enumerate() {
        if let Gate::Measure { q } = gate {
            let p1 = sv.probability_of_qubit(q.0);
            let m = tab.measure(q.0, rng.gen_bool(0.5));
            if m.determined {
                let expect = if m.value { 1.0 } else { 0.0 };
                assert!(
                    (p1 - expect).abs() < EPS,
                    "gate {i}: tableau says determined {}, state vector p1 = {p1}",
                    m.value
                );
            } else {
                assert!(
                    (p1 - 0.5).abs() < EPS,
                    "gate {i}: tableau says random, state vector p1 = {p1}"
                );
            }
            sv.collapse(q.0, m.value);
        } else {
            sv.apply(gate);
            apply_tab(&mut tab, gate);
        }
    }
    (sv, tab)
}

/// The signed product `a · b` of two commuting Pauli strings.
fn product(a: &PauliString, b: &PauliString) -> PauliString {
    let n = a.num_qubits();
    let mut out = PauliString::identity(n);
    // Exponent of i: per qubit, P(x, z) = i^(xz) X^x Z^z, and moving b's X
    // left past a's Z costs a −1.
    let mut e = 2 * (a.neg as u32 + b.neg as u32);
    for q in 0..n {
        let (ax, az, bx, bz) = (a.x_bit(q), a.z_bit(q), b.x_bit(q), b.z_bit(q));
        let (x, z) = (ax ^ bx, az ^ bz);
        e += (ax && az) as u32 + (bx && bz) as u32 + 2 * (az && bx) as u32;
        e += 3 * (x && z) as u32;
        if x {
            out.set_x(q);
        }
        if z {
            out.set_z(q);
        }
    }
    assert_eq!(e % 2, 0, "commuting strings multiply to a real sign");
    out.neg = e % 4 == 2;
    out
}

/// `membership` against the state vector: `In` ⇔ expectation +1,
/// `InWithWrongSign` ⇔ −1, `NotIn` ⇔ 0. Probes uniformly random signed
/// strings (mostly outside the group) and random signed products of the
/// generators (inside it).
fn membership_check(circuit: &Circuit, seed: u64, seen: &mut [usize; 3]) {
    let n = circuit.num_qubits();
    let (sv, mut tab) = lockstep(circuit, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    for probe in 0..32 {
        let mut p = PauliString::identity(n);
        if probe % 2 == 0 {
            for q in 0..n {
                if rng.gen_bool(0.5) {
                    p.set_x(q);
                }
                if rng.gen_bool(0.5) {
                    p.set_z(q);
                }
            }
        } else {
            for g in 0..n {
                if rng.gen_bool(0.5) {
                    p = product(&p, &tab.stabilizer(g));
                }
            }
        }
        p.neg = rng.gen_bool(0.5);
        let e = expectation(&sv, &p);
        assert!(e.im.abs() < EPS, "{p}: expectation {e:?} is not real");
        let want = if (e.re - 1.0).abs() < EPS {
            Membership::In
        } else if (e.re + 1.0).abs() < EPS {
            Membership::InWithWrongSign
        } else {
            assert!(e.re.abs() < EPS, "{p}: expectation {e:?}");
            Membership::NotIn
        };
        assert_eq!(tab.membership(&p), want, "{p}: expectation {e:?}");
        seen[want as usize] += 1;
    }
}

/// `head` with its measurements, then `tail`'s gates without its final
/// measurements: a state that collapsed mid-circuit and was entangled
/// again.
fn collapse_then_entangle(head: &Circuit, tail: &Circuit) -> Circuit {
    let mut c = Circuit::with_capacity(head.num_qubits(), head.len() + tail.len());
    for (i, g) in head.gates().iter().chain(tail.gates()).enumerate() {
        match *g {
            Gate::One { gate, q } => {
                c.one(gate, q).unwrap();
            }
            Gate::Two { kind, a, b, .. } => {
                match kind {
                    TwoQubitKind::Cnot => c.cnot(a, b).unwrap(),
                    TwoQubitKind::Cz => c.cz(a, b).unwrap(),
                    _ => unreachable!("random_clifford emits cnot/cz only"),
                };
            }
            Gate::Measure { q } if i < head.len() => {
                c.measure(q).unwrap();
            }
            Gate::Measure { .. } => {}
        }
    }
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn stabilizer_backend_agrees_with_state_vector(
        n in 2u32..9,
        gates in 0usize..81,
        circuit_seed in 0u64..(1u64 << 48),
        outcome_seed in 0u64..(1u64 << 48),
    ) {
        cross_check(&random_clifford(n, gates, circuit_seed), outcome_seed);
    }
}

#[test]
fn cross_check_holds_on_a_dense_fixed_corpus() {
    // A deterministic sweep that does not depend on proptest's RNG, for
    // quick plain `cargo test` confidence.
    for seed in 0..40 {
        cross_check(&random_clifford(7, 120, seed), seed ^ 0xdead);
    }
}

#[test]
fn mid_circuit_measurements_cross_check() {
    // random_clifford only measures at the end; splice two of them so
    // measurements happen mid-circuit with gates after the collapse.
    use mech_circuit::Qubit;
    for seed in 0..10 {
        let head = random_clifford(5, 40, seed);
        let tail = random_clifford(5, 40, seed + 1000);
        let mut c = Circuit::with_capacity(5, head.len() + tail.len());
        for g in head.gates().iter().chain(tail.gates()) {
            match *g {
                Gate::One { gate, q } => {
                    c.one(gate, q).unwrap();
                }
                Gate::Two { kind, a, b, .. } => {
                    match kind {
                        TwoQubitKind::Cnot => c.cnot(a, b).unwrap(),
                        TwoQubitKind::Cz => c.cz(a, b).unwrap(),
                        _ => unreachable!("random_clifford emits cnot/cz only"),
                    };
                }
                Gate::Measure { q } => {
                    c.measure(q).unwrap();
                }
            }
        }
        assert!(c.is_clifford());
        let _ = c.measure(Qubit(0));
        cross_check(&c, seed);
    }
}

#[test]
fn membership_agrees_with_state_vector_expectations() {
    let mut seen = [0usize; 3];
    for seed in 0..40 {
        let n = 2 + (seed % 7) as u32;
        let head = random_clifford(n, 5 * n as usize, seed);
        let tail = random_clifford(n, 10 * n as usize, seed + 1000);
        membership_check(&collapse_then_entangle(&head, &tail), seed, &mut seen);
    }
    assert!(
        seen.iter().all(|&k| k > 0),
        "In / InWithWrongSign / NotIn: {seen:?}"
    );
}
