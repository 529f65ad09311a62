//! Bernstein–Vazirani on the highway: the clearest demonstration of the
//! MECH protocol. All oracle CNOTs share the ancilla as target, so MECH
//! conjugates them into a single multi-target gate and executes the whole
//! oracle in one highway shuttle — depth stays nearly constant while the
//! baseline's grows with the secret length.
//!
//! Run with: `cargo run --release --example bv_highway`

use mech::{BaselineCompiler, CompilerConfig, DeviceSpec, MechCompiler, Metrics};
use mech_circuit::benchmarks::bernstein_vazirani;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let device = DeviceSpec::square(6, 2, 2).build_artifacts();
    let config = CompilerConfig::default();
    let mech = MechCompiler::new(device.clone(), config);
    let baseline = BaselineCompiler::new(device.topology(), config);

    println!(
        "{:>6} {:>14} {:>10} {:>9} {:>10}",
        "n", "baseline depth", "MECH depth", "shuttles", "improve"
    );
    for n in [16u32, 32, 64, device.num_data_qubits()] {
        let program = bernstein_vazirani(n, 42);
        let m = mech.compile(&program)?;
        let b = Metrics::from_circuit(&baseline.compile(&program)?);
        let mm = m.metrics();
        println!(
            "{:>6} {:>14} {:>10} {:>9} {:>9.1}%",
            n,
            b.depth,
            mm.depth,
            m.shuttle_stats.shuttles,
            100.0 * mm.depth_improvement_over(&b)
        );
    }
    Ok(())
}
