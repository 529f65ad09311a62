//! End-to-end integration tests spanning all crates: program → chiplet
//! array → highway → compiled physical circuit, checked for validity and
//! for the paper's headline behaviour (MECH beats the baseline).

use mech::{BaselineCompiler, CompilerConfig, DeviceSpec, MechCompiler, Metrics};
use mech_chiplet::{ChipletSpec, CouplingStructure, PhysOpKind};
use mech_circuit::benchmarks::{
    bernstein_vazirani, qaoa_maxcut, qft, vqe_full_entanglement, Benchmark,
};

fn compile_pair(
    spec: DeviceSpec,
    program: &mech_circuit::Circuit,
) -> (mech::CompileResult, Metrics) {
    let device = spec.build_artifacts();
    let config = CompilerConfig::default();
    let m = MechCompiler::new(device.clone(), config)
        .compile(program)
        .expect("mech compiles");
    let b = BaselineCompiler::new(device.topology(), config)
        .compile(program)
        .expect("baseline compiles");
    (m, Metrics::from_circuit(&b))
}

#[test]
fn every_benchmark_compiles_on_every_structure() {
    for structure in CouplingStructure::ALL {
        let device = DeviceSpec::new(ChipletSpec::new(structure, 6, 2, 2)).build_artifacts();
        let n = device.num_data_qubits().min(24);
        for bench in Benchmark::ALL {
            let program = bench.generate(n, 3);
            let config = CompilerConfig::default();
            let r = MechCompiler::new(device.clone(), config)
                .compile(&program)
                .unwrap_or_else(|e| panic!("{bench} on {structure}: {e}"));
            assert!(r.circuit.depth() > 0, "{bench} on {structure} empty");
        }
    }
}

#[test]
fn compiled_ops_respect_the_coupling_graph() {
    let device = DeviceSpec::square(6, 2, 2).build_artifacts();
    let topo = device.topology();
    let program = qft(device.num_data_qubits().min(40));
    let r = MechCompiler::new(device.clone(), CompilerConfig::default())
        .compile(&program)
        .unwrap();
    for op in r.circuit.ops() {
        if let PhysOpKind::TwoQubit(kind) = op.kind {
            let b = op.b.expect("two-qubit op has two operands");
            assert_eq!(
                topo.coupling(op.a, b),
                Some(kind),
                "op on uncoupled pair {:?}",
                op
            );
        }
    }
}

#[test]
fn mech_beats_baseline_depth_on_qft() {
    let (m, b) = compile_pair(DeviceSpec::square(6, 2, 2), &qft(100));
    let depth_improvement = m.metrics().depth_improvement_over(&b);
    assert!(
        depth_improvement > 0.2,
        "expected >20% depth improvement, got {:.1}%",
        100.0 * depth_improvement
    );
}

#[test]
fn mech_beats_baseline_depth_on_bv_by_a_lot() {
    let (m, b) = compile_pair(DeviceSpec::square(6, 2, 2), &bernstein_vazirani(100, 5));
    let depth_improvement = m.metrics().depth_improvement_over(&b);
    assert!(
        depth_improvement > 0.6,
        "expected >60% depth improvement on BV, got {:.1}%",
        100.0 * depth_improvement
    );
}

#[test]
fn mech_reduces_eff_cnots_on_qaoa_at_scale() {
    // QAOA's all-commuting cost layer is the baseline's best case, so the
    // eff_CNOT win only appears beyond ~200 qubits (cf. paper Fig. 12b,
    // where the 4-chiplet point dips toward zero).
    let spec = DeviceSpec::square(7, 2, 3);
    let program = qaoa_maxcut(spec.build_artifacts().num_data_qubits(), 1, 9);
    let (m, b) = compile_pair(spec, &program);
    let eff = m.metrics().eff_cnots_improvement_over(&b);
    assert!(
        eff > 0.0,
        "expected positive eff_CNOT improvement at 240 qubits, got {:.1}%",
        100.0 * eff
    );
    let depth = m.metrics().depth_improvement_over(&b);
    assert!(
        depth > 0.1,
        "expected >10% depth improvement, got {:.1}%",
        100.0 * depth
    );
}

#[test]
fn improvements_grow_with_scale_on_vqe() {
    let (m1, b1) = compile_pair(DeviceSpec::square(6, 1, 2), &vqe_full_entanglement(40, 1));
    let (m2, b2) = compile_pair(DeviceSpec::square(6, 2, 3), &vqe_full_entanglement(120, 1));
    let small = m1.metrics().depth_improvement_over(&b1);
    let large = m2.metrics().depth_improvement_over(&b2);
    assert!(
        large > small,
        "improvement should grow with scale: {small:.3} -> {large:.3}"
    );
}

#[test]
fn measurement_counts_cover_program_measurements() {
    let device = DeviceSpec::square(5, 2, 2).build_artifacts();
    let n = device.num_data_qubits().min(30);
    let program = qft(n);
    let r = MechCompiler::new(device, CompilerConfig::default())
        .compile(&program)
        .unwrap();
    // Program measurements plus highway protocol measurements.
    assert!(r.circuit.counts().measurements >= u64::from(n));
}

#[test]
fn bv_oracle_rides_one_shuttle_at_scale() {
    let device = DeviceSpec::square(7, 2, 2).build_artifacts();
    let program = bernstein_vazirani(device.num_data_qubits(), 11);
    let r = MechCompiler::new(device, CompilerConfig::default())
        .compile(&program)
        .unwrap();
    assert_eq!(r.shuttle_stats.shuttles, 1);
    assert_eq!(r.shuttle_stats.highway_gates, 1);
}

#[test]
fn sparse_cross_links_hurt_baseline_more_than_mech() {
    let program = qft(60);
    let dense = DeviceSpec::square(7, 2, 2);
    let sparse = DeviceSpec::new(ChipletSpec::square(7, 2, 2).with_cross_links_per_edge(1));
    let (md, bd) = compile_pair(dense, &program);
    let (ms, bs) = compile_pair(sparse, &program);
    // Normalized depth (mech/baseline) should shrink or hold as links
    // thin out (paper Fig. 14a): the baseline degrades faster.
    let nd_dense = md.metrics().depth as f64 / bd.depth as f64;
    let nd_sparse = ms.metrics().depth as f64 / bs.depth as f64;
    assert!(
        nd_sparse <= nd_dense * 1.10,
        "normalized depth grew too much with sparsity: {nd_dense:.3} -> {nd_sparse:.3}"
    );
}

#[test]
fn deeper_highway_density_reduces_depth_ratio() {
    let mut ratios = Vec::new();
    for density in [1u32, 2] {
        let device = DeviceSpec::square(9, 1, 2)
            .with_density(density)
            .build_artifacts();
        let config = CompilerConfig::default();
        let program = qft(device.num_data_qubits().min(80));
        let m = MechCompiler::new(device.clone(), config)
            .compile(&program)
            .unwrap();
        let b = BaselineCompiler::new(device.topology(), config)
            .compile(&program)
            .unwrap();
        ratios.push(m.metrics().depth as f64 / b.depth() as f64);
    }
    assert!(
        ratios[1] <= ratios[0] * 1.15,
        "density 2 should not degrade the depth ratio much: {ratios:?}"
    );
}

/// Fig. 13(a) path: a non-default measurement latency reaches every
/// measurement both compilers emit, and MECH's depth pays for it (every
/// highway shuttle measures).
#[test]
fn measurement_latency_sets_measure_duration_and_mech_depth() {
    let device = DeviceSpec::square(5, 2, 2).build_artifacts();
    let n = device.num_data_qubits();
    for bench in Benchmark::ALL {
        let program = bench.generate(n, 2024);
        let mut mech_depths = Vec::new();
        for meas_latency in [1u32, 2, 20] {
            let config = CompilerConfig {
                cost: mech::CostModel {
                    meas_latency,
                    ..mech::CostModel::default()
                },
                ..CompilerConfig::default()
            };
            let m = MechCompiler::new(device.clone(), config)
                .compile(&program)
                .unwrap_or_else(|e| panic!("{bench} at latency {meas_latency}: {e}"));
            let b = BaselineCompiler::new(device.topology(), config)
                .compile(&program)
                .unwrap_or_else(|e| panic!("{bench} baseline at latency {meas_latency}: {e}"));
            for (who, pc) in [("mech", &m.circuit), ("baseline", &b)] {
                for op in pc.ops().iter().filter(|op| op.kind == PhysOpKind::Measure) {
                    assert_eq!(
                        op.duration, meas_latency,
                        "{bench} {who}: measure lasts {} at latency {meas_latency}",
                        op.duration
                    );
                }
            }
            mech_depths.push(m.circuit.depth());
        }
        assert!(
            mech_depths.windows(2).all(|w| w[0] < w[1]),
            "{bench}: MECH depth must grow with measurement latency, got {mech_depths:?}"
        );
    }
}
