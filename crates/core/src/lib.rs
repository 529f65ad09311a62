//! MECH: Multi-Entry Communication Highway compilation for superconducting
//! quantum chiplets.
//!
//! A from-scratch Rust reproduction of *MECH: Multi-Entry Communication
//! Highway for Superconducting Quantum Chiplets* (Zhang et al., ASPLOS
//! 2024). MECH trades ancillary qubits for program concurrency: a fixed
//! mesh of *highway* qubits spans every chiplet, GHZ states are prepared on
//! it in constant depth, and commutable controlled gates sharing a control
//! aggregate into multi-target gates that execute concurrently over the
//! highway regardless of qubit distances.
//!
//! # Quick start
//!
//! ```
//! use mech::{BaselineCompiler, CompilerConfig, DeviceSpec, MechCompiler};
//! use mech_circuit::benchmarks::qft;
//!
//! # fn main() -> Result<(), mech::CompileError> {
//! // A 2×2 array of 6×6 square chiplets, memoized in the device cache:
//! // every caller naming this spec shares one immutable artifact bundle.
//! let device = DeviceSpec::square(6, 2, 2).cached();
//!
//! let program = qft(40);
//! let config = CompilerConfig::default();
//!
//! let mech = MechCompiler::new(device.clone(), config).compile(&program)?;
//! let baseline = BaselineCompiler::new(device.topology(), config).compile(&program)?;
//!
//! let m = mech.metrics();
//! let b = mech::Metrics::from_circuit(&baseline);
//! println!("depth improvement: {:.1}%", 100.0 * m.depth_improvement_over(&b));
//! # Ok(())
//! # }
//! ```
//!
//! # Crate map
//!
//! * [`mech_circuit`] — logical circuit IR, commutation DAG, multi-target
//!   aggregation, benchmark generators;
//! * [`mech_chiplet`] — chiplet-array topologies, highway layouts, the
//!   hardware cost model and physical circuits;
//! * [`mech_highway`] — GHZ preparation, path occupancy, shuttles,
//!   entrances;
//! * [`mech_router`] — local SWAP routing and the SABRE baseline;
//! * this crate — the end-to-end [`MechCompiler`] and [`BaselineCompiler`].

mod baseline;
mod compiler;
mod config;
mod device;
mod error;
mod metrics;

pub use baseline::BaselineCompiler;
pub use compiler::{CompileResult, CompileSession, MechCompiler, STALL_ROUND_LIMIT};
pub use config::{BudgetExceeded, CompileBudget, CompilerConfig, GhzStyle};
pub use device::{
    DeviceArtifacts, DeviceCache, DeviceSpec, DEFAULT_DEVICE_CACHE_CAPACITY,
    DEFAULT_ENTRANCE_CANDIDATES, DEFAULT_HIGHWAY_DENSITY,
};
pub use error::CompileError;
pub use metrics::Metrics;

// Re-export the substrate crates so downstream users need a single
// dependency.
pub use mech_chiplet;
pub use mech_circuit;
pub use mech_highway;
pub use mech_router;

// The most common types, re-exported flat for convenience.
pub use mech_chiplet::{
    CancelToken, ChipletSpec, CostModel, CouplingStructure, DefectMap, HighwayLayout, PhysCircuit,
    Topology,
};
pub use mech_circuit::{benchmarks, Circuit, Qubit};
