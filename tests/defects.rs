//! Defect-tolerance suite (DESIGN.md §13): compiling around dead qubits,
//! dead links and dead highway nodes.
//!
//! The contract under test:
//!
//! * an *empty* defect map is byte-identical to a pristine device — equal
//!   spec, same artifacts, same schedules;
//! * a degraded device either compiles a schedule that touches **zero**
//!   dead resources (the artifact auditor is the oracle) or fails with the
//!   structured client error [`CompileError::DeviceDegraded`] — it never
//!   panics and never emits a wrong schedule;
//! * the canonical degraded 441-qubit fixture (`mech_bench::defects`)
//!   compiles every timed program family.

use std::sync::Arc;

use proptest::prelude::*;

use mech::mech_chiplet::{ChipletSpec, CouplingStructure, DefectMap, LinkKind, PhysQubit};
use mech::{CompileError, CompilerConfig, DeviceSpec, MechCompiler};
use mech_bench::{defects::degraded_441q, programs};

fn compile_on(
    device: &Arc<mech::DeviceArtifacts>,
    program: &mech_circuit::Circuit,
) -> Result<mech::CompileResult, CompileError> {
    MechCompiler::new(Arc::clone(device), CompilerConfig::default()).compile(program)
}

#[test]
fn degraded_441q_compiles_every_timed_family_on_surviving_fabric() {
    let device = degraded_441q().build_artifacts();
    let defects = device.spec().defects();
    let dead = defects.num_dead_qubits() + defects.num_dead_links();
    assert!(dead > 0, "the fixture must actually be degraded");
    assert!(
        defects.num_dead_qubits() * 50 <= device.topology().num_qubits() as usize,
        "the canonical fixture stays at <= 2% dead qubits"
    );
    let n = device.num_data_qubits().min(60);
    for (name, gen) in programs::TIMED_FAMILIES {
        let r = compile_on(&device, &gen(n))
            .unwrap_or_else(|e| panic!("{name} failed on degraded 441q: {e}"));
        device
            .audit(&r.circuit)
            .unwrap_or_else(|e| panic!("{name} schedule touches a dead resource: {e}"));
    }
}

#[test]
fn degraded_441q_clifford_families_verify_clean() {
    // Defect tolerance is not just "compiles and avoids dead resources":
    // the schedule routed around the dead set must still implement the
    // program. Every Clifford family on the canonical fixture is replayed
    // on the stabilizer backend.
    let device = degraded_441q().build_artifacts();
    let n = device.num_data_qubits();
    let config = mech_bench::verify::recording(CompilerConfig::default());
    for (family, gen) in programs::CLIFFORD_FAMILIES {
        let program = gen(n);
        let r = MechCompiler::new(Arc::clone(&device), config)
            .compile(&program)
            .unwrap_or_else(|e| panic!("{family} failed on degraded 441q: {e}"));
        device
            .audit(&r.circuit)
            .unwrap_or_else(|e| panic!("{family} schedule touches a dead resource: {e}"));
        mech_bench::verify::verify_compiled(&program, &r)
            .unwrap_or_else(|e| panic!("{family} failed semantic verification: {e}"));
    }
}

#[test]
fn empty_defect_map_is_byte_identical_to_pristine() {
    let pristine = DeviceSpec::square(5, 1, 2);
    let scrubbed = pristine.clone().with_defects(DefectMap::new());
    // Same spec: an empty map names the pristine device.
    assert_eq!(pristine, scrubbed);
    // And independently built bundles compile byte-identically.
    let a = pristine.build_artifacts();
    let b = scrubbed.build_artifacts();
    let n = a.num_data_qubits();
    for (name, gen) in programs::TIMED_FAMILIES {
        let program = gen(n.min(20));
        let ra = compile_on(&a, &program).unwrap();
        let rb = compile_on(&b, &program).unwrap();
        assert_eq!(ra.circuit.ops(), rb.circuit.ops(), "{name}");
    }
}

#[test]
fn unroutable_degraded_device_returns_a_structured_client_error() {
    // Kill every cross-chip link of a 1×2 array: the surviving fabric is
    // two disconnected islands, and a program spanning both is unroutable
    // — a property of the degraded device, reported as the client error
    // `DeviceDegraded`, never as a panic or a layout-bug `Routing`.
    let spec = DeviceSpec::square(5, 1, 2);
    let pristine = spec.build_artifacts();
    let topo = pristine.topology();
    let mut seams = Vec::new();
    for q in (0..topo.num_qubits()).map(PhysQubit) {
        for link in topo.neighbor_links(q) {
            if link.kind == LinkKind::CrossChip && q < link.to {
                seams.push((q, link.to));
            }
        }
    }
    assert!(!seams.is_empty());
    let device = spec
        .with_defects(DefectMap::new().with_dead_links(seams))
        .build_artifacts();
    let program = programs::qft(device.num_data_qubits());
    let err = compile_on(&device, &program).unwrap_err();
    assert!(
        matches!(err, CompileError::DeviceDegraded { .. }),
        "expected DeviceDegraded, got {err}"
    );
    assert!(err.is_client_error());
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
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random dead sets at 0–5% density, across every coupling structure:
    /// a compile on the degraded device either produces a schedule using
    /// no dead resource, or fails with a structured client error. It
    /// never panics (a panic fails the test) and never emits a schedule
    /// the auditor rejects.
    #[test]
    fn random_defect_maps_compile_clean_or_fail_structurally(
        structure in arb_structure(),
        size in 5u32..7,
        rows in 1u32..3,
        cols in 1u32..3,
        qubit_picks in proptest::collection::vec(0u32..1_000_000, 0..8),
        link_picks in proptest::collection::vec(0u32..1_000_000, 0..8),
        width in 2u32..20,
    ) {
        let spec = DeviceSpec::new(ChipletSpec::new(structure, size, rows, cols));
        let pristine = spec.build_artifacts();
        let topo = pristine.topology();
        let nq = topo.num_qubits();
        let mut links = Vec::new();
        for q in (0..nq).map(PhysQubit) {
            for l in topo.neighbor_links(q) {
                if q < l.to {
                    links.push((q, l.to));
                }
            }
        }
        // Cap the dead set at 5% of the fabric.
        let max_dead = (nq as usize / 20).max(1);
        let mut map = DefectMap::new();
        for pick in qubit_picks.iter().take(max_dead) {
            map = map.with_dead_qubit(PhysQubit(pick % nq));
        }
        for pick in link_picks.iter().take(max_dead) {
            let (a, b) = links[*pick as usize % links.len()];
            map = map.with_dead_link(a, b);
        }

        let device = spec.with_defects(map).build_artifacts();
        let n = width.min(device.num_data_qubits().max(1));
        let program = programs::vqe(n);
        match compile_on(&device, &program) {
            Ok(r) => {
                prop_assert!(
                    device.audit(&r.circuit).is_ok(),
                    "schedule touches a dead resource: {:?}",
                    device.audit(&r.circuit)
                );
            }
            Err(e) => {
                prop_assert!(e.is_client_error(), "non-structured failure: {e}");
            }
        }
    }
}
