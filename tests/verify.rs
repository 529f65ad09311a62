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
//!
//! The mutation tests corrupt a real compile's trace or final map and pin
//! the exact `VerifyError`: a passing schedule is decided by one
//! uncompute check, and only a failing one runs the membership scan that
//! names the diverging generator or ancilla.

use std::sync::Arc;

use mech::{CompileResult, CompilerConfig, DeviceSpec, MechCompiler};
use mech_bench::verify::{OutcomePolicy, SchedVerifier};
use mech_bench::{programs, verify};
use mech_chiplet::{ChipletSpec, CouplingStructure, PhysQubit, SemEvent, SemEventKind, SemGate1};
use mech_circuit::Circuit;
use mech_sim::{Membership, PauliString, VerifyError};

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

/// A real compile on `square(6, 2, 2)` with its recorded trace: `bv(16)`
/// or `rand_clifford(32)`, both of which verify with protocol
/// measurements.
fn compiled_on_144q(program: &Circuit) -> CompileResult {
    let device = DeviceSpec::square(6, 2, 2).build_artifacts();
    let result = MechCompiler::new(device, verify::recording(CompilerConfig::default()))
        .compile(program)
        .unwrap();
    let reports = verify::verify_compiled(program, &result).expect("unmutated trace verifies");
    assert!(reports[0].protocol_measurements > 0);
    result
}

/// A lifted Pauli on `n` qubits with X on `xs`, Z on `zs`.
fn pauli(n: u32, xs: &[u32], zs: &[u32], neg: bool) -> PauliString {
    let mut p = PauliString::identity(n);
    xs.iter().for_each(|&q| p.set_x(q));
    zs.iter().for_each(|&q| p.set_z(q));
    p.neg = neg;
    p
}

#[test]
fn dropped_correction_passes_zeros_and_fails_ones_on_a_real_compile() {
    // (program, which correction of the trace to drop, its qubit, the
    // diverging generator and its lifted Pauli under the Ones policy).
    let cases = [
        (programs::bv(16), 2, 9, 6, pauli(159, &[29], &[8], false)),
        (
            programs::rand_clifford(32),
            3,
            45,
            14,
            pauli(176, &[], &[16, 22, 31], true),
        ),
    ];
    for (program, k, q, generator, lifted) in cases {
        let result = compiled_on_144q(&program);
        let mut events = result.circuit.sem_events().to_vec();
        let at = events
            .iter()
            .enumerate()
            .filter(|(_, e)| matches!(e.kind, SemEventKind::CondPauli { .. }))
            .nth(k)
            .map(|(i, _)| i)
            .unwrap();
        let dropped = events.remove(at);
        assert!(
            matches!(dropped.kind, SemEventKind::CondPauli { q: p, .. } if p == PhysQubit(q)),
            "{dropped:?}"
        );
        let v = SchedVerifier::new(&program, 144, &events, &result.final_positions);
        assert!(
            v.verify(OutcomePolicy::Zeros).is_ok(),
            "zeros never fires it"
        );
        assert_eq!(
            v.verify(OutcomePolicy::Ones).unwrap_err(),
            VerifyError::StabilizerMismatch {
                generator,
                pauli: lifted,
                membership: Membership::InWithWrongSign,
            }
        );
    }
}

#[test]
fn swapped_final_positions_are_a_stabilizer_mismatch() {
    let cases = [
        (programs::bv(16), pauli(159, &[], &[29], false)),
        (
            programs::rand_clifford(32),
            pauli(176, &[35, 144], &[], true),
        ),
    ];
    for (program, lifted) in cases {
        let result = compiled_on_144q(&program);
        let mut positions = result.final_positions.clone();
        let last = positions.len() - 1;
        positions.swap(0, last);
        let v = SchedVerifier::new(&program, 144, result.circuit.sem_events(), &positions);
        assert_eq!(
            v.verify_sweep().unwrap_err(),
            VerifyError::StabilizerMismatch {
                generator: 0,
                pauli: lifted,
                membership: Membership::NotIn,
            }
        );
    }
}

#[test]
fn an_x_on_a_non_image_qubit_entangles_that_ancilla() {
    for program in [programs::bv(16), programs::rand_clifford(32)] {
        let result = compiled_on_144q(&program);
        let q = (0..144)
            .find(|&q| !result.final_positions.contains(&PhysQubit(q)))
            .unwrap();
        let mut events = result.circuit.sem_events().to_vec();
        events.push(SemEvent {
            op: result.circuit.ops().len() as u32,
            kind: SemEventKind::Gate1 {
                q: PhysQubit(q),
                g: SemGate1::X,
            },
        });
        let v = SchedVerifier::new(&program, 144, &events, &result.final_positions);
        assert_eq!(
            v.verify_sweep().unwrap_err(),
            VerifyError::AncillaEntangled { q: 3 }
        );
    }
}

#[test]
fn the_sweep_reusing_one_tableau_equals_three_fresh_passes() {
    // `verify_sweep` resets one tableau between policies; each `verify`
    // call starts from a fresh one. A passing compile must report the
    // same three passes, and a known miscompile the same first error:
    // `bv(14)` fails under the first policy, `rand_clifford(57)` only
    // under the third, after two passes on the reused tableau.
    let device = DeviceSpec::square(6, 2, 2).build_artifacts();
    let config = verify::recording(CompilerConfig::default());
    let cases = [
        programs::bv(16),
        programs::rand_clifford(32),
        programs::bv(14),
        programs::rand_clifford(57),
    ]
    .map(|program| {
        let result = MechCompiler::new(Arc::clone(&device), config)
            .compile(&program)
            .unwrap();
        (result, program)
    });
    for (i, (result, program)) in cases.iter().enumerate() {
        let v = SchedVerifier::new(
            program,
            144,
            result.circuit.sem_events(),
            &result.final_positions,
        );
        let fresh: Result<Vec<_>, _> = OutcomePolicy::SWEEP
            .iter()
            .map(|&policy| v.verify(policy))
            .collect();
        assert_eq!(fresh.is_ok(), i < 2, "the first two compiles verify");
        assert_eq!(v.verify_sweep(), fresh);
    }
}

#[test]
fn a_multi_qubit_highway_run_beside_a_boxed_in_qubit_still_routes() {
    // On hexagon chiplets a gate's target can sit behind a highway run
    // while its control has no free data neighbor; the control then
    // crosses to the target's side. These compiles used to fail with
    // "no data route".
    let hexagon = |d, r, c| DeviceSpec::new(ChipletSpec::new(CouplingStructure::Hexagon, d, r, c));
    for (spec, width) in [(hexagon(7, 3, 3), 162), (hexagon(6, 2, 2), 22)] {
        let device = spec.build_artifacts();
        let program = programs::ghz(width);
        let result = MechCompiler::new(
            Arc::clone(&device),
            verify::recording(CompilerConfig::default()),
        )
        .compile(&program)
        .unwrap_or_else(|e| panic!("ghz({width}) must compile: {e}"));
        device.audit(&result.circuit).unwrap();
        verify::verify_compiled(&program, &result).unwrap();
    }
}

/// The miscompiles the small-device sweep below is known to find, keyed
/// by the aggregation threshold (`min_components`) they were compiled at
/// and each labelled with the ROADMAP item that owns its fix. The sweep
/// asserts that its failing set *equals* this list: a new miscompile fails
/// it, and so does a fixed one until its entry is deleted here.
const KNOWN_SMALL_DEVICE_MISCOMPILES: [(usize, &str, &str, u32, &str); 151] = [
    (2, "square(6,2,2)", "bv", 14, "ROADMAP item 1"),
    (2, "square(6,2,2)", "bv", 20, "ROADMAP item 1"),
    (2, "square(6,2,2)", "bv", 36, "ROADMAP item 1"),
    (2, "square(6,2,2)", "bv", 41, "ROADMAP item 1"),
    (2, "square(6,2,2)", "rand-clifford", 22, "ROADMAP item 1"),
    (2, "square(6,2,2)", "rand-clifford", 29, "ROADMAP item 1"),
    (2, "square(6,2,2)", "rand-clifford", 38, "ROADMAP item 1"),
    (2, "square(6,2,2)", "rand-clifford", 42, "ROADMAP item 1"),
    (2, "square(6,2,2)", "rand-clifford", 44, "ROADMAP item 1"),
    (2, "square(6,2,2)", "rand-clifford", 45, "ROADMAP item 1"),
    (2, "square(6,2,2)", "rand-clifford", 49, "ROADMAP item 1"),
    (2, "square(6,2,2)", "rand-clifford", 64, "ROADMAP item 1"),
    (2, "square(6,2,2)", "rand-clifford", 71, "ROADMAP item 1"),
    (2, "square(6,2,2)", "rand-clifford", 89, "ROADMAP item 1"),
    (2, "square(6,2,2)", "rand-clifford", 94, "ROADMAP item 1"),
    (2, "square(6,2,2)", "rand-clifford", 96, "ROADMAP item 1"),
    (2, "square(6,2,2)", "rand-clifford", 97, "ROADMAP item 1"),
    (2, "square(6,2,2)", "rand-clifford", 98, "ROADMAP item 1"),
    (2, "square(6,2,2)", "rand-clifford", 101, "ROADMAP item 1"),
    (3, "square(6,2,2)", "bv", 14, "ROADMAP item 1"),
    (3, "square(6,2,2)", "bv", 20, "ROADMAP item 1"),
    (3, "square(6,2,2)", "bv", 36, "ROADMAP item 1"),
    (3, "square(6,2,2)", "bv", 41, "ROADMAP item 1"),
    (3, "square(6,2,2)", "rand-clifford", 57, "ROADMAP item 1"),
    (3, "square(6,2,2)", "rand-clifford", 103, "ROADMAP item 1"),
    (5, "square(6,2,2)", "bv", 14, "ROADMAP item 1"),
    (5, "square(6,2,2)", "bv", 20, "ROADMAP item 1"),
    (5, "square(6,2,2)", "bv", 36, "ROADMAP item 1"),
    (5, "square(6,2,2)", "bv", 41, "ROADMAP item 1"),
    (3, "hexagon(6,2,2)", "bv", 17, "ROADMAP item 1"),
    (3, "hexagon(6,2,2)", "bv", 47, "ROADMAP item 1"),
    (3, "hexagon(6,2,2)", "bv", 48, "ROADMAP item 1"),
    (3, "hexagon(6,2,2)", "bv", 49, "ROADMAP item 1"),
    (3, "hexagon(6,2,2)", "bv", 53, "ROADMAP item 1"),
    (3, "hexagon(6,2,2)", "bv", 54, "ROADMAP item 1"),
    (3, "hexagon(6,2,2)", "bv", 63, "ROADMAP item 1"),
    (3, "hexagon(6,2,2)", "rand-clifford", 5, "ROADMAP item 1"),
    (3, "hexagon(6,2,2)", "rand-clifford", 6, "ROADMAP item 1"),
    (3, "hexagon(6,2,2)", "rand-clifford", 11, "ROADMAP item 1"),
    (3, "hexagon(6,2,2)", "rand-clifford", 21, "ROADMAP item 1"),
    (3, "hexagon(6,2,2)", "rand-clifford", 55, "ROADMAP item 1"),
    (3, "heavy-square(6,2,2)", "bv", 28, "ROADMAP item 1"),
    (3, "heavy-square(6,2,2)", "bv", 49, "ROADMAP item 1"),
    (3, "heavy-square(6,2,2)", "bv", 60, "ROADMAP item 1"),
    (3, "heavy-square(6,2,2)", "bv", 67, "ROADMAP item 1"),
    (
        3,
        "heavy-square(6,2,2)",
        "rand-clifford",
        5,
        "ROADMAP item 1",
    ),
    (
        3,
        "heavy-square(6,2,2)",
        "rand-clifford",
        6,
        "ROADMAP item 1",
    ),
    (
        3,
        "heavy-square(6,2,2)",
        "rand-clifford",
        30,
        "ROADMAP item 1",
    ),
    (
        3,
        "heavy-square(6,2,2)",
        "rand-clifford",
        37,
        "ROADMAP item 1",
    ),
    (
        3,
        "heavy-square(6,2,2)",
        "rand-clifford",
        61,
        "ROADMAP item 1",
    ),
    (
        3,
        "heavy-square(6,2,2)",
        "rand-clifford",
        68,
        "ROADMAP item 1",
    ),
    (3, "heavy-hexagon(6,2,2)", "bv", 15, "ROADMAP item 1"),
    (3, "heavy-hexagon(6,2,2)", "bv", 17, "ROADMAP item 1"),
    (3, "heavy-hexagon(6,2,2)", "bv", 39, "ROADMAP item 1"),
    (3, "heavy-hexagon(6,2,2)", "bv", 47, "ROADMAP item 1"),
    (
        3,
        "heavy-hexagon(6,2,2)",
        "rand-clifford",
        39,
        "ROADMAP item 1",
    ),
    (3, "heavy-square(8,2,2)", "bv", 44, "ROADMAP item 1"),
    (3, "heavy-square(8,2,2)", "bv", 46, "ROADMAP item 1"),
    (3, "heavy-square(8,2,2)", "bv", 52, "ROADMAP item 1"),
    (3, "heavy-square(8,2,2)", "bv", 58, "ROADMAP item 1"),
    (3, "heavy-square(8,2,2)", "bv", 59, "ROADMAP item 1"),
    (3, "heavy-square(8,2,2)", "bv", 65, "ROADMAP item 1"),
    (3, "heavy-square(8,2,2)", "bv", 66, "ROADMAP item 1"),
    (3, "heavy-square(8,2,2)", "bv", 67, "ROADMAP item 1"),
    (3, "heavy-square(8,2,2)", "bv", 68, "ROADMAP item 1"),
    (3, "heavy-square(8,2,2)", "bv", 118, "ROADMAP item 1"),
    (3, "heavy-square(8,2,2)", "bv", 123, "ROADMAP item 1"),
    (3, "heavy-square(8,2,2)", "bv", 126, "ROADMAP item 1"),
    (3, "heavy-square(8,2,2)", "bv", 131, "ROADMAP item 1"),
    (3, "heavy-square(8,2,2)", "bv", 132, "ROADMAP item 1"),
    (3, "heavy-square(8,2,2)", "bv", 133, "ROADMAP item 1"),
    (3, "heavy-square(8,2,2)", "bv", 139, "ROADMAP item 1"),
    (3, "heavy-square(8,2,2)", "bv", 140, "ROADMAP item 1"),
    (3, "heavy-square(8,2,2)", "bv", 141, "ROADMAP item 1"),
    (3, "heavy-square(8,2,2)", "bv", 142, "ROADMAP item 1"),
    (3, "heavy-square(8,2,2)", "bv", 145, "ROADMAP item 1"),
    (3, "heavy-square(8,2,2)", "bv", 148, "ROADMAP item 1"),
    (
        3,
        "heavy-square(8,2,2)",
        "rand-clifford",
        37,
        "ROADMAP item 1",
    ),
    (
        3,
        "heavy-square(8,2,2)",
        "rand-clifford",
        42,
        "ROADMAP item 1",
    ),
    (
        3,
        "heavy-square(8,2,2)",
        "rand-clifford",
        61,
        "ROADMAP item 1",
    ),
    (
        3,
        "heavy-square(8,2,2)",
        "rand-clifford",
        73,
        "ROADMAP item 1",
    ),
    (
        3,
        "heavy-square(8,2,2)",
        "rand-clifford",
        75,
        "ROADMAP item 1",
    ),
    (
        3,
        "heavy-square(8,2,2)",
        "rand-clifford",
        81,
        "ROADMAP item 1",
    ),
    (
        3,
        "heavy-square(8,2,2)",
        "rand-clifford",
        98,
        "ROADMAP item 1",
    ),
    (
        3,
        "heavy-square(8,2,2)",
        "rand-clifford",
        100,
        "ROADMAP item 1",
    ),
    (
        3,
        "heavy-square(8,2,2)",
        "rand-clifford",
        111,
        "ROADMAP item 1",
    ),
    (
        3,
        "heavy-square(8,2,2)",
        "rand-clifford",
        120,
        "ROADMAP item 1",
    ),
    (
        3,
        "heavy-square(8,2,2)",
        "rand-clifford",
        131,
        "ROADMAP item 1",
    ),
    (
        3,
        "heavy-square(8,2,2)",
        "rand-clifford",
        136,
        "ROADMAP item 1",
    ),
    (
        3,
        "heavy-square(8,2,2)",
        "rand-clifford",
        138,
        "ROADMAP item 1",
    ),
    (
        3,
        "heavy-square(8,2,2)",
        "rand-clifford",
        142,
        "ROADMAP item 1",
    ),
    (3, "heavy-hexagon(7,3,3)", "bv", 17, "ROADMAP item 1"),
    (3, "heavy-hexagon(7,3,3)", "bv", 18, "ROADMAP item 1"),
    (3, "heavy-hexagon(7,3,3)", "bv", 27, "ROADMAP item 1"),
    (3, "heavy-hexagon(7,3,3)", "bv", 43, "ROADMAP item 1"),
    (3, "heavy-hexagon(7,3,3)", "bv", 51, "ROADMAP item 1"),
    (3, "heavy-hexagon(7,3,3)", "bv", 57, "ROADMAP item 1"),
    (3, "heavy-hexagon(7,3,3)", "bv", 62, "ROADMAP item 1"),
    (3, "heavy-hexagon(7,3,3)", "bv", 63, "ROADMAP item 1"),
    (3, "heavy-hexagon(7,3,3)", "bv", 68, "ROADMAP item 1"),
    (3, "heavy-hexagon(7,3,3)", "bv", 69, "ROADMAP item 1"),
    (3, "heavy-hexagon(7,3,3)", "bv", 74, "ROADMAP item 1"),
    (3, "heavy-hexagon(7,3,3)", "bv", 75, "ROADMAP item 1"),
    (3, "heavy-hexagon(7,3,3)", "bv", 80, "ROADMAP item 1"),
    (3, "heavy-hexagon(7,3,3)", "bv", 81, "ROADMAP item 1"),
    (3, "heavy-hexagon(7,3,3)", "bv", 90, "ROADMAP item 1"),
    (3, "heavy-hexagon(7,3,3)", "bv", 92, "ROADMAP item 1"),
    (3, "heavy-hexagon(7,3,3)", "bv", 96, "ROADMAP item 1"),
    (3, "heavy-hexagon(7,3,3)", "bv", 98, "ROADMAP item 1"),
    (3, "heavy-hexagon(7,3,3)", "bv", 102, "ROADMAP item 1"),
    (3, "heavy-hexagon(7,3,3)", "bv", 106, "ROADMAP item 1"),
    (3, "heavy-hexagon(7,3,3)", "bv", 113, "ROADMAP item 1"),
    (3, "heavy-hexagon(7,3,3)", "bv", 114, "ROADMAP item 1"),
    (3, "heavy-hexagon(7,3,3)", "bv", 119, "ROADMAP item 1"),
    (3, "heavy-hexagon(7,3,3)", "bv", 120, "ROADMAP item 1"),
    (3, "heavy-hexagon(7,3,3)", "bv", 125, "ROADMAP item 1"),
    (3, "heavy-hexagon(7,3,3)", "bv", 126, "ROADMAP item 1"),
    (3, "heavy-hexagon(7,3,3)", "bv", 131, "ROADMAP item 1"),
    (3, "heavy-hexagon(7,3,3)", "bv", 132, "ROADMAP item 1"),
    (3, "heavy-hexagon(7,3,3)", "bv", 137, "ROADMAP item 1"),
    (3, "heavy-hexagon(7,3,3)", "bv", 138, "ROADMAP item 1"),
    (3, "heavy-hexagon(7,3,3)", "bv", 143, "ROADMAP item 1"),
    (3, "heavy-hexagon(7,3,3)", "bv", 144, "ROADMAP item 1"),
    (3, "heavy-hexagon(7,3,3)", "bv", 152, "ROADMAP item 1"),
    (3, "heavy-hexagon(7,3,3)", "bv", 153, "ROADMAP item 1"),
    (3, "heavy-hexagon(7,3,3)", "bv", 155, "ROADMAP item 1"),
    (3, "heavy-hexagon(7,3,3)", "bv", 159, "ROADMAP item 1"),
    (3, "heavy-hexagon(7,3,3)", "bv", 161, "ROADMAP item 1"),
    (3, "heavy-hexagon(7,3,3)", "bv", 165, "ROADMAP item 1"),
    (3, "heavy-hexagon(7,3,3)", "bv", 169, "ROADMAP item 1"),
    (3, "heavy-hexagon(7,3,3)", "bv", 176, "ROADMAP item 1"),
    (3, "heavy-hexagon(7,3,3)", "bv", 177, "ROADMAP item 1"),
    (3, "heavy-hexagon(7,3,3)", "bv", 183, "ROADMAP item 1"),
    (3, "heavy-hexagon(7,3,3)", "bv", 189, "ROADMAP item 1"),
    (
        3,
        "heavy-hexagon(7,3,3)",
        "rand-clifford",
        40,
        "ROADMAP item 1",
    ),
    (
        3,
        "heavy-hexagon(7,3,3)",
        "rand-clifford",
        45,
        "ROADMAP item 1",
    ),
    (
        3,
        "heavy-hexagon(7,3,3)",
        "rand-clifford",
        49,
        "ROADMAP item 1",
    ),
    (
        3,
        "heavy-hexagon(7,3,3)",
        "rand-clifford",
        77,
        "ROADMAP item 1",
    ),
    (
        3,
        "heavy-hexagon(7,3,3)",
        "rand-clifford",
        111,
        "ROADMAP item 1",
    ),
    (
        3,
        "heavy-hexagon(7,3,3)",
        "rand-clifford",
        113,
        "ROADMAP item 1",
    ),
    (
        3,
        "heavy-hexagon(7,3,3)",
        "rand-clifford",
        115,
        "ROADMAP item 1",
    ),
    (
        3,
        "heavy-hexagon(7,3,3)",
        "rand-clifford",
        129,
        "ROADMAP item 1",
    ),
    (
        3,
        "heavy-hexagon(7,3,3)",
        "rand-clifford",
        130,
        "ROADMAP item 1",
    ),
    (
        3,
        "heavy-hexagon(7,3,3)",
        "rand-clifford",
        133,
        "ROADMAP item 1",
    ),
    (
        3,
        "heavy-hexagon(7,3,3)",
        "rand-clifford",
        134,
        "ROADMAP item 1",
    ),
    (
        3,
        "heavy-hexagon(7,3,3)",
        "rand-clifford",
        136,
        "ROADMAP item 1",
    ),
    (
        3,
        "heavy-hexagon(7,3,3)",
        "rand-clifford",
        138,
        "ROADMAP item 1",
    ),
    (
        3,
        "heavy-hexagon(7,3,3)",
        "rand-clifford",
        149,
        "ROADMAP item 1",
    ),
    (
        3,
        "heavy-hexagon(7,3,3)",
        "rand-clifford",
        167,
        "ROADMAP item 1",
    ),
    (
        3,
        "heavy-hexagon(7,3,3)",
        "rand-clifford",
        170,
        "ROADMAP item 1",
    ),
    (
        3,
        "heavy-hexagon(7,3,3)",
        "rand-clifford",
        178,
        "ROADMAP item 1",
    ),
];

/// Every Clifford family at every width from 2 to the data-qubit count:
/// on three small square devices at the default aggregation threshold (3)
/// and at 2 and 5 (3 × 519 compile + verify pairs), on the hexagon,
/// heavy-square and heavy-hexagon `(6, 2, 2)` devices at 3 (621 pairs),
/// on the heavy-square `(8, 2, 2)` recalibration device at 3 (441 pairs)
/// and on the heavy-hexagon `(7, 3, 3)` device at 3 (564 pairs). Never
/// shrink the sweep to drop a failing width; update the known list
/// instead.
#[test]
fn small_device_sweep_fails_exactly_the_known_miscompiles() {
    let structure = |s| DeviceSpec::new(ChipletSpec::new(s, 6, 2, 2));
    let devices = [
        ("square(6,2,2)", DeviceSpec::square(6, 2, 2), &[2, 3, 5][..]),
        ("square(5,1,2)", DeviceSpec::square(5, 1, 2), &[2, 3, 5]),
        ("square(4,2,2)", DeviceSpec::square(4, 2, 2), &[2, 3, 5]),
        (
            "hexagon(6,2,2)",
            structure(CouplingStructure::Hexagon),
            &[3],
        ),
        (
            "heavy-square(6,2,2)",
            structure(CouplingStructure::HeavySquare),
            &[3],
        ),
        (
            "heavy-hexagon(6,2,2)",
            structure(CouplingStructure::HeavyHexagon),
            &[3],
        ),
        (
            "heavy-square(8,2,2)",
            DeviceSpec::new(ChipletSpec::new(CouplingStructure::HeavySquare, 8, 2, 2)),
            &[3],
        ),
        (
            "heavy-hexagon(7,3,3)",
            DeviceSpec::new(ChipletSpec::new(CouplingStructure::HeavyHexagon, 7, 3, 3)),
            &[3],
        ),
    ];
    let mut cases = 0;
    let mut failing = Vec::new();
    for (name, spec, thresholds) in devices {
        let device = spec.build_artifacts();
        for &min_components in thresholds {
            let config = verify::recording(CompilerConfig {
                min_components,
                ..CompilerConfig::default()
            });
            for (family, gen) in programs::CLIFFORD_FAMILIES {
                for width in 2..=device.num_data_qubits() {
                    let program = gen(width);
                    let result = MechCompiler::new(Arc::clone(&device), config)
                        .compile(&program)
                        .unwrap_or_else(|e| {
                            panic!("{name} {family}({width}) at min {min_components} must compile: {e}")
                        });
                    cases += 1;
                    if let Err(e) = verify::verify_compiled(&program, &result) {
                        failing.push((min_components, name, family, width, e.to_string()));
                    }
                }
            }
        }
    }
    assert_eq!(
        cases,
        3 * 519 + 621 + 441 + 564,
        "the sweep covers every family at every width"
    );
    let known: Vec<(usize, &str, &str, u32)> = KNOWN_SMALL_DEVICE_MISCOMPILES
        .iter()
        .map(|&(min, device, family, width, _)| (min, device, family, width))
        .collect();
    let new: Vec<_> = failing
        .iter()
        .filter(|(m, d, f, w, _)| !known.contains(&(*m, *d, *f, *w)))
        .collect();
    let fixed: Vec<_> = KNOWN_SMALL_DEVICE_MISCOMPILES
        .iter()
        .filter(|&&(m, d, f, w, _)| !failing.iter().any(|x| (x.0, x.1, x.2, x.3) == (m, d, f, w)))
        .collect();
    assert!(
        new.is_empty() && fixed.is_empty(),
        "new miscompiles: {new:#?}\nknown miscompiles that now verify \
         (delete their entries): {fixed:#?}"
    );
}
