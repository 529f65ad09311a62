//! Architecture sweep: compare MECH across the four coupling structures
//! the paper evaluates (square, hexagon, heavy-square, heavy-hexagon) on a
//! fixed program, and show how the highway adapts its layout — ancilla
//! percentage, bridge count and cross-chip stitches — to each lattice.
//!
//! Run with: `cargo run --release --example architecture_sweep`

use mech::{BaselineCompiler, CompilerConfig, DeviceSpec, MechCompiler, Metrics};
use mech_chiplet::{ChipletSpec, CouplingStructure, HighwayEdgeKind};
use mech_circuit::benchmarks::vqe_full_entanglement;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = CompilerConfig::default();
    println!(
        "{:<16} {:>6} {:>6} {:>7} {:>8} {:>8} {:>10} {:>9}",
        "structure", "qubits", "data", "hw %", "bridges", "stitches", "MECH depth", "improve"
    );

    for structure in CouplingStructure::ALL {
        let device = DeviceSpec::new(ChipletSpec::new(structure, 8, 2, 2)).build_artifacts();
        let layout = device.layout();
        let bridges = layout
            .edges()
            .iter()
            .filter(|e| matches!(e.kind, HighwayEdgeKind::Bridge { .. }))
            .count();
        let stitches = layout
            .edges()
            .iter()
            .filter(|e| matches!(e.kind, HighwayEdgeKind::Cross))
            .count();

        let n = device.num_data_qubits().min(80);
        let program = vqe_full_entanglement(n, 1);
        let m = MechCompiler::new(device.clone(), config).compile(&program)?;
        let b = Metrics::from_circuit(
            &BaselineCompiler::new(device.topology(), config).compile(&program)?,
        );
        let mm = m.metrics();

        println!(
            "{:<16} {:>6} {:>6} {:>6.1}% {:>8} {:>8} {:>10} {:>8.1}%",
            structure.name(),
            device.topology().num_qubits(),
            layout.num_data_qubits(),
            100.0 * layout.percentage(),
            bridges,
            stitches,
            mm.depth,
            100.0 * mm.depth_improvement_over(&b)
        );
    }
    Ok(())
}
