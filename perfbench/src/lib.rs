//! Support code of the MECH benchmark: seeded inputs, order statistics,
//! the host-speed probe, the span recorder, result-file parsing and the
//! compare verdict. The workloads themselves live in `main.rs`.

pub mod compare;
pub mod json;
pub mod probe;
pub mod rng;
pub mod stats;
pub mod trace;
