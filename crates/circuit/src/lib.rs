//! Logical quantum circuit IR for the MECH chiplet compiler.
//!
//! This crate is the Rust analogue of the paper's `Circuit.py`: it defines a
//! gate set, a circuit container, commutation rules, a commutation-aware
//! dependency DAG (used to find the earliest execution opportunity of every
//! gate), and the aggregation of commutable controlled gates into
//! *multi-target gates* — the unit of work executed on the communication
//! highway.
//!
//! It also ships generators for the four benchmark families evaluated in the
//! paper: QFT, QAOA (max-cut on random graphs), VQE (full-entanglement
//! ansatz) and Bernstein–Vazirani. Circuits are built in code through
//! [`Circuit`]'s gate methods; there is no text front end.
//!
//! # Example
//!
//! ```
//! use mech_circuit::{Circuit, Gate, Qubit};
//!
//! # fn main() -> Result<(), mech_circuit::CircuitError> {
//! let mut c = Circuit::new(3);
//! c.h(Qubit(0))?;
//! c.cnot(Qubit(0), Qubit(1))?;
//! c.cnot(Qubit(0), Qubit(2))?;
//! assert_eq!(c.two_qubit_count(), 2);
//! # Ok(())
//! # }
//! ```

mod aggregate;
mod circuit;
mod commute;
mod dag;
mod gate;
mod qubit;

pub mod benchmarks;

pub use aggregate::{
    aggregate_controlled, AggregationFront, CarvedGroup, GroupKind, MultiTargetGate,
    TargetComponent,
};
pub use circuit::{Circuit, CircuitError, CircuitStats};
pub use commute::commutes;
pub use dag::{CommutationDag, DagSchedule, GateId};
pub use gate::{Gate, OneQubitGate, TwoQubitKind};
pub use qubit::Qubit;
