//! Quickstart: compile a QFT with MECH and with the SABRE baseline on a
//! 2×2 array of 6×6 square chiplets, and compare the paper's metrics.
//!
//! Run with: `cargo run --release --example quickstart`

use mech::{BaselineCompiler, CompilerConfig, DeviceSpec, MechCompiler, Metrics};
use mech_circuit::benchmarks::qft;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Name the hardware: a 2×2 array of 6×6 square chiplets.
    //    `build_artifacts()` builds the immutable device tier (topology,
    //    highway layout, entrance table) once; share the returned `Arc`
    //    with every compile against this device.
    let device = DeviceSpec::square(6, 2, 2).build_artifacts();
    let topo = device.topology();
    println!(
        "device: {} qubits on {} chiplets ({} cross-chip links)",
        topo.num_qubits(),
        topo.num_chiplets(),
        topo.num_cross_links()
    );

    // 2. The highway came with the bundle (density 1 ≈ one corridor per
    //    chiplet per direction).
    let layout = device.layout();
    println!(
        "highway: {} ancillas ({:.1}% of qubits), {} data qubits",
        layout.num_highway_qubits(),
        100.0 * layout.percentage(),
        layout.num_data_qubits()
    );

    // 3. A program sized to the data region.
    let n = device.num_data_qubits().min(100);
    let program = qft(n);
    println!(
        "program: QFT-{n} with {} two-qubit gates",
        program.two_qubit_count()
    );

    // 4. Compile with MECH and with the baseline.
    let config = CompilerConfig::default();
    let mech = MechCompiler::new(device.clone(), config).compile(&program)?;
    let baseline = BaselineCompiler::new(device.topology(), config).compile(&program)?;

    let m = mech.metrics();
    let b = Metrics::from_circuit(&baseline);

    println!("\n              {:>12} {:>12}", "baseline", "MECH");
    println!("depth         {:>12} {:>12}", b.depth, m.depth);
    println!("eff_CNOTs     {:>12.0} {:>12.0}", b.eff_cnots, m.eff_cnots);
    println!(
        "\ndepth improvement:     {:>6.1}%",
        100.0 * m.depth_improvement_over(&b)
    );
    println!(
        "eff_CNOT improvement:  {:>6.1}%",
        100.0 * m.eff_cnots_improvement_over(&b)
    );
    println!(
        "shuttles: {}  highway gates: {}  components: {}  regular gates: {}",
        mech.shuttle_stats.shuttles,
        mech.shuttle_stats.highway_gates,
        mech.shuttle_stats.components,
        mech.regular_gates
    );
    Ok(())
}
