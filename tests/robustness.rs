//! The robustness contract without fault injection (DESIGN.md §12):
//! compile budgets are observed within one round, malformed circuits
//! surface structured errors at the session boundary instead of panicking
//! mid-compile, and an unlimited budget changes nothing — the compiled
//! schedule stays bit-identical to a budget-free compile.
//!
//! The injected-fault half of the contract (stalls, panic isolation,
//! chaos workloads) lives in `tests/chaos.rs` behind `--features
//! fault-inject`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use mech::{CancelToken, CompileBudget, CompileError, CompilerConfig, DeviceSpec, MechCompiler};
use mech_circuit::benchmarks::qft;
use mech_circuit::{Circuit, Gate, OneQubitGate, Qubit, TwoQubitKind};

/// The paper's 441-qubit evaluation device: a 3×3 array of 7×7 square
/// chiplets.
fn device_441q() -> Arc<mech::DeviceArtifacts> {
    DeviceSpec::square(7, 3, 3).build_artifacts()
}

#[test]
fn expired_deadline_is_observed_before_the_first_round() {
    let device = device_441q();
    let compiler = MechCompiler::new(device.clone(), CompilerConfig::default());
    let program = qft(device.num_data_qubits().min(60));
    let budget = CompileBudget::unlimited().with_deadline(Instant::now());
    let err = compiler.compile_with_budget(&program, budget).unwrap_err();
    assert_eq!(err, CompileError::DeadlineExceeded { rounds: 0 });
    assert!(err.is_client_error());
}

#[test]
fn pre_cancelled_token_aborts_before_the_first_round() {
    let device = device_441q();
    let compiler = MechCompiler::new(device.clone(), CompilerConfig::default());
    let program = qft(device.num_data_qubits().min(60));
    let cancel = CancelToken::new();
    cancel.cancel();
    let budget = CompileBudget::unlimited().with_cancel(cancel);
    let err = compiler.compile_with_budget(&program, budget).unwrap_err();
    assert_eq!(err, CompileError::Cancelled { rounds: 0 });
    assert!(err.is_client_error());
}

#[test]
fn round_cap_stops_a_multi_round_compile_after_exactly_that_round() {
    let device = device_441q();
    let compiler = MechCompiler::new(device.clone(), CompilerConfig::default());
    let program = qft(device.num_data_qubits().min(60));
    // The program needs many rounds; a cap of 1 must stop after round 1 —
    // the budget is checked between rounds, so the observation latency is
    // exactly one round.
    let budget = CompileBudget::unlimited().with_max_rounds(1);
    let err = compiler.compile_with_budget(&program, budget).unwrap_err();
    assert_eq!(err, CompileError::DeadlineExceeded { rounds: 1 });
}

#[test]
fn mid_compile_cancellation_surfaces_as_cancelled() {
    let device = device_441q();
    let compiler = MechCompiler::new(device.clone(), CompilerConfig::default());
    let program = qft(device.num_data_qubits().min(60));
    let cancel = CancelToken::new();
    let budget = CompileBudget::unlimited().with_cancel(cancel.clone());
    let worker = std::thread::spawn(move || compiler.compile_with_budget(&program, budget));
    std::thread::sleep(Duration::from_millis(2));
    cancel.cancel();
    match worker.join().unwrap() {
        // The compile may legitimately win the race and finish first; what
        // it must never do is fail with anything but Cancelled.
        Ok(_) => {}
        Err(e) => assert!(matches!(e, CompileError::Cancelled { .. }), "got {e}"),
    }
}

#[test]
fn unlimited_budget_compiles_bit_identically_to_no_budget() {
    let device = DeviceSpec::square(6, 2, 2).build_artifacts();
    let compiler = MechCompiler::new(device.clone(), CompilerConfig::default());
    let program = qft(device.num_data_qubits().min(40));
    let plain = compiler.compile(&program).unwrap();
    let budgeted = compiler
        .compile_with_budget(&program, CompileBudget::unlimited())
        .unwrap();
    let generous = compiler
        .compile_with_budget(
            &program,
            CompileBudget::unlimited()
                .with_timeout(Duration::from_secs(3600))
                .with_max_rounds(u64::MAX),
        )
        .unwrap();
    assert_eq!(plain.circuit.ops(), budgeted.circuit.ops());
    assert_eq!(plain.circuit.ops(), generous.circuit.ops());
}

#[test]
fn hand_built_invalid_circuits_error_instead_of_panicking() {
    let device = DeviceSpec::square(5, 1, 1).build_artifacts();
    let compiler = MechCompiler::new(device.clone(), CompilerConfig::default());

    // Out-of-range operand smuggled past push() via Extend.
    let mut out_of_range = Circuit::new(3);
    out_of_range.extend([Gate::Two {
        kind: TwoQubitKind::Cnot,
        a: Qubit(0),
        b: Qubit(40),
        angle: 0.0,
    }]);
    let err = compiler.compile(&out_of_range).unwrap_err();
    assert!(matches!(err, CompileError::InvalidCircuit(_)), "got {err}");
    assert!(err.is_client_error());

    // Duplicate operand on a two-qubit gate.
    let mut duplicate = Circuit::new(3);
    duplicate.extend([Gate::Two {
        kind: TwoQubitKind::Cz,
        a: Qubit(1),
        b: Qubit(1),
        angle: 0.0,
    }]);
    let err = compiler.compile(&duplicate).unwrap_err();
    assert!(matches!(err, CompileError::InvalidCircuit(_)), "got {err}");
}

/// One raw, unvalidated gate: operand indices intentionally range past the
/// circuit width so a slice of them builds adversarial circuits.
fn arb_raw_gate(max_q: u32) -> impl Strategy<Value = Gate> {
    prop_oneof![
        (0..max_q).prop_map(|q| Gate::One {
            gate: OneQubitGate::H,
            q: Qubit(q),
        }),
        (0..max_q).prop_map(|q| Gate::Measure { q: Qubit(q) }),
        (0..max_q, 0..max_q).prop_map(|(a, b)| Gate::Two {
            kind: TwoQubitKind::Cnot,
            a: Qubit(a),
            b: Qubit(b),
            angle: 0.0,
        }),
        (0..max_q, 0..max_q).prop_map(|(a, b)| Gate::Two {
            kind: TwoQubitKind::Rzz,
            a: Qubit(a),
            b: Qubit(b),
            angle: 0.25,
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Adversarial hand-built circuits (operands beyond the width,
    /// duplicate operands, any mix) either compile or fail with a
    /// structured client error — the session boundary never panics.
    #[test]
    fn adversarial_circuits_never_panic(
        num_qubits in 1u32..24,
        gates in proptest::collection::vec(arb_raw_gate(32), 0..40),
    ) {
        let device = DeviceSpec::square(5, 1, 1).build_artifacts();
        let compiler = MechCompiler::new(device.clone(), CompilerConfig::default());
        let mut circuit = Circuit::new(num_qubits);
        circuit.extend(gates);
        match compiler.compile(&circuit) {
            Ok(result) => prop_assert!(circuit.is_empty() || result.circuit.depth() > 0),
            Err(e) => {
                prop_assert!(
                    matches!(
                        e,
                        CompileError::InvalidCircuit(_) | CompileError::TooManyQubits { .. }
                    ),
                    "unexpected error class: {}",
                    e
                );
                prop_assert!(e.is_client_error());
            }
        }
    }
}
