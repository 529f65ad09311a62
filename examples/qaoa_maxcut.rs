//! QAOA max-cut on chiplets: commuting RZZ layers give the MECH aggregator
//! many multi-target gates at once, exercising the *spatial* sharing of the
//! highway — several gates claim disjoint highway paths within the same
//! shuttle.
//!
//! Run with: `cargo run --release --example qaoa_maxcut`

use mech::{BaselineCompiler, CompilerConfig, DeviceSpec, MechCompiler, Metrics};
use mech_circuit::benchmarks::{qaoa_maxcut, random_maxcut_graph};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let device = DeviceSpec::square(7, 2, 2).build_artifacts();
    let n = device.num_data_qubits().min(120);

    let edges = random_maxcut_graph(n, 7);
    println!(
        "max-cut instance: {n} vertices, {} edges (half of all pairs)",
        edges.len()
    );

    let config = CompilerConfig::default();
    let mech = MechCompiler::new(device.clone(), config);
    let baseline = BaselineCompiler::new(device.topology(), config);

    for layers in 1..=2 {
        let program = qaoa_maxcut(n, layers, 7);
        let m = mech.compile(&program)?;
        let b = Metrics::from_circuit(&baseline.compile(&program)?);
        let mm = m.metrics();
        println!(
            "\np={layers}: baseline depth {} | MECH depth {} ({:+.1}%)",
            b.depth,
            mm.depth,
            100.0 * mm.depth_improvement_over(&b)
        );
        println!(
            "      eff_CNOTs {:.0} -> {:.0} ({:+.1}%)",
            b.eff_cnots,
            mm.eff_cnots,
            100.0 * mm.eff_cnots_improvement_over(&b)
        );
        println!(
            "      {} highway gates shared {} shuttles ({:.1} gates/shuttle)",
            m.shuttle_stats.highway_gates,
            m.shuttle_stats.shuttles,
            m.shuttle_stats.highway_gates as f64 / m.shuttle_stats.shuttles.max(1) as f64
        );
    }
    Ok(())
}
