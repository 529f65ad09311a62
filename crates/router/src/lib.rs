//! Qubit routing for the MECH compiler.
//!
//! This crate is the Rust analogue of the paper's `Router.py`, plus the
//! evaluation baseline:
//!
//! * [`Mapping`] — the logical-to-physical qubit assignment, updated as
//!   SWAPs move qubits around;
//! * [`LocalRouter`] — SWAP-chain routing of data qubits across the data
//!   region (never through the highway), used both to bring qubits to
//!   highway access positions and to execute off-highway gates;
//! * [`sabre_route`] — a from-scratch SABRE-style swap router (front
//!   layer, extended-set lookahead, decay), standing in for Qiskit's
//!   optimization-level-3 transpiler as the paper's baseline.

mod local;
mod mapping;
mod sabre;

pub use local::{LocalRouter, RoutingError};
pub use mapping::Mapping;
pub use sabre::sabre_route;
