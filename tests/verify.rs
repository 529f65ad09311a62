//! Semantic schedule verification suite (DESIGN.md §14): compiled
//! schedules — GHZ highway preparation, shuttle open/close and the
//! measurement-based CNOT protocol included — are replayed on the
//! device-scale stabilizer backend and proven *equal* to the ideal
//! circuit's state, modulo the final qubit mapping.
//!
//! Byte-identity (the golden suite) proves the compiler didn't change;
//! this suite proves the schedule is *correct*: every Clifford family on
//! the full 441-qubit device, under the outcome-policy sweep that drives
//! each classically-controlled correction down both branches.

use std::sync::Arc;

use mech::{CompilerConfig, DeviceSpec, MechCompiler};
use mech_bench::{programs, verify};
use mech_sim::VerifyError;

fn device_441q() -> Arc<mech::DeviceArtifacts> {
    DeviceSpec::square(7, 3, 3).build_artifacts()
}

#[test]
fn pristine_441q_clifford_families_verify_under_the_policy_sweep() {
    let device = device_441q();
    let config = verify::recording(CompilerConfig::default());
    let n = device.num_data_qubits();
    for (family, gen) in programs::CLIFFORD_FAMILIES {
        let program = gen(n);
        let result = MechCompiler::new(Arc::clone(&device), config)
            .compile(&program)
            .unwrap_or_else(|e| panic!("{family} must compile: {e}"));
        let reports = verify::verify_compiled(&program, &result)
            .unwrap_or_else(|e| panic!("{family} schedule failed verification: {e}"));
        assert_eq!(reports.len(), 3, "{family}: zeros, ones, seeded");
        let measures = program
            .gates()
            .iter()
            .filter(|g| matches!(g, mech_circuit::Gate::Measure { .. }))
            .count() as u32;
        for r in &reports {
            assert_eq!(r.logical_measurements, measures, "{family}");
        }
        // The highway families must actually exercise the protocol: a
        // verification pass with zero protocol measurements would mean the
        // trace silently skipped the shuttle.
        if family != "ghz" {
            assert!(
                reports[0].protocol_measurements > 0,
                "{family} must exercise the measurement-based protocol"
            );
        }
    }
}

#[test]
fn trace_recording_never_changes_the_schedule() {
    // The semantic trace is a side channel: with recording on, the emitted
    // ops must stay byte-identical — which is also what keeps the goldens
    // valid for verified compiles.
    let device = DeviceSpec::square(5, 1, 2).build_artifacts();
    let n = device.num_data_qubits();
    for (family, gen) in programs::CLIFFORD_FAMILIES {
        let program = gen(n);
        let plain = MechCompiler::new(Arc::clone(&device), CompilerConfig::default())
            .compile(&program)
            .unwrap();
        assert!(plain.circuit.sem_events().is_empty(), "{family}");
        let recorded = MechCompiler::new(
            Arc::clone(&device),
            verify::recording(CompilerConfig::default()),
        )
        .compile(&program)
        .unwrap();
        assert_eq!(
            plain.circuit.ops(),
            recorded.circuit.ops(),
            "{family}: recording changed the schedule"
        );
        assert!(!recorded.circuit.sem_events().is_empty(), "{family}");
    }
}

#[test]
fn non_clifford_programs_are_screened_not_verified() {
    let device = DeviceSpec::square(5, 1, 2).build_artifacts();
    let n = device.num_data_qubits();
    let program = programs::qft(n.min(12));
    let result = MechCompiler::new(
        Arc::clone(&device),
        verify::recording(CompilerConfig::default()),
    )
    .compile(&program)
    .unwrap();
    let err = verify::verify_compiled(&program, &result).unwrap_err();
    assert!(
        matches!(err, VerifyError::NonCliffordInput { .. }),
        "qft is outside the stabilizer formalism: {err}"
    );
}

#[test]
fn unrecorded_schedules_report_a_missing_trace() {
    let device = DeviceSpec::square(5, 1, 2).build_artifacts();
    let program = programs::ghz(device.num_data_qubits());
    let result = MechCompiler::new(Arc::clone(&device), CompilerConfig::default())
        .compile(&program)
        .unwrap();
    assert_eq!(
        verify::verify_compiled(&program, &result).unwrap_err(),
        VerifyError::MissingTrace
    );
}
