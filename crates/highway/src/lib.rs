//! The highway mechanism: efficient management of the ancillary-qubit
//! communication channel.
//!
//! This crate is the Rust analogue of the paper's `HighwayOccupancy.py`.
//! Given a [`HighwayLayout`](mech_chiplet::HighwayLayout), it provides:
//!
//! * [`HighwayOccupancy`] — spatial sharing: assignment of *highway paths*
//!   to multi-target gates, minimizing newly occupied qubits by reusing the
//!   paths already claimed by the same gate (paper §6.1). Claiming runs a
//!   **one-search engine**: one settled Dijkstra over the device's shared
//!   [`HighwaySkeleton`] serves every candidate entrance of a group, with
//!   O(1) accept/reject;
//! * [`prepare_ghz_with`] — the constant-depth GHZ preparation over a claimed
//!   path: cluster state (direct/bridge/cross-chip entangling), measurement
//!   of alternate qubits, Pauli corrections and re-entanglement of measured
//!   entrances (paper §4–5, Figs. 5–8);
//! * [`ShuttleState`] — temporal sharing: the lifecycle of a *highway
//!   shuttle*, the period during which GHZ states live and gate components
//!   accumulate, closed by measuring the highway back out (paper §6.2);
//! * [`entrance_candidates`] — enumeration of highway entrances reachable
//!   from a data qubit, for earliest-execution entrance selection.

mod entrance;
mod ghz;
mod occupancy;
mod shuttle;
mod skeleton;

pub use entrance::{entrance_candidates, entrance_search_count, EntranceOption, EntranceTable};
pub use ghz::{prepare_ghz_chain, prepare_ghz_with, GhzPrep, GhzScratch};
pub use occupancy::{GroupId, HighwayOccupancy, RouteError};
pub use shuttle::{
    ActiveGroup, PinnedView, PinnedViewExcluding, ShuttleRecord, ShuttleState, ShuttleStats,
};
pub use skeleton::HighwaySkeleton;
