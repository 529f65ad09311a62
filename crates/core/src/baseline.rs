//! The evaluation baseline: a SABRE-routed compilation without the highway.
//!
//! The paper's baseline is the Qiskit transpiler at optimization level 3,
//! whose routing stage is `SabreSwap`. [`BaselineCompiler`] runs the
//! from-scratch SABRE implementation in [`mech_router`] on the same
//! coupling graph (on-chip *and* cross-chip links) and reports metrics with
//! the same cost model as MECH, so the two pipelines are directly
//! comparable.

use mech_chiplet::{PhysCircuit, Topology};
use mech_circuit::Circuit;
use mech_router::sabre_route;

use crate::config::CompilerConfig;
use crate::error::CompileError;

/// The SABRE baseline compiler.
///
/// # Example
///
/// ```
/// use mech::{BaselineCompiler, CompilerConfig};
/// use mech_chiplet::ChipletSpec;
/// use mech_circuit::benchmarks::qft;
///
/// # fn main() -> Result<(), mech::CompileError> {
/// let topo = ChipletSpec::square(5, 2, 2).build();
/// let baseline = BaselineCompiler::new(&topo, CompilerConfig::default());
/// let pc = baseline.compile(&qft(30))?;
/// assert!(pc.depth() > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct BaselineCompiler<'a> {
    topo: &'a Topology,
    config: CompilerConfig,
}

impl<'a> BaselineCompiler<'a> {
    /// Creates a baseline compiler for the device.
    pub fn new(topo: &'a Topology, config: CompilerConfig) -> Self {
        BaselineCompiler { topo, config }
    }

    /// Routes `circuit` with SABRE over the full coupling graph.
    ///
    /// # Errors
    ///
    /// [`CompileError::TooManyQubits`] if the circuit is wider than the
    /// device.
    pub fn compile(&self, circuit: &Circuit) -> Result<PhysCircuit, CompileError> {
        if circuit.num_qubits() > self.topo.num_qubits() {
            return Err(CompileError::TooManyQubits {
                requested: circuit.num_qubits(),
                available: self.topo.num_qubits(),
            });
        }
        Ok(sabre_route(circuit, self.topo, self.config.cost))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metrics;
    use mech_chiplet::ChipletSpec;
    use mech_circuit::benchmarks::{bernstein_vazirani, qft};

    #[test]
    fn baseline_routes_qft() {
        let topo = ChipletSpec::square(4, 2, 2).build();
        let b = BaselineCompiler::new(&topo, CompilerConfig::default());
        let m = Metrics::from_circuit(&b.compile(&qft(20)).unwrap());
        assert!(m.depth > 0);
        assert_eq!(m.measurements, 20);
    }

    #[test]
    fn oversized_circuit_is_rejected() {
        let topo = ChipletSpec::square(3, 1, 1).build();
        let b = BaselineCompiler::new(&topo, CompilerConfig::default());
        assert!(matches!(
            b.compile(&Circuit::new(50)),
            Err(CompileError::TooManyQubits { .. })
        ));
    }

    #[test]
    fn bv_depth_grows_with_distance() {
        let topo = ChipletSpec::square(5, 2, 2).build();
        let b = BaselineCompiler::new(&topo, CompilerConfig::default());
        let small = Metrics::from_circuit(&b.compile(&bernstein_vazirani(10, 1)).unwrap());
        let large = Metrics::from_circuit(&b.compile(&bernstein_vazirani(80, 1)).unwrap());
        assert!(large.depth > small.depth);
    }
}
