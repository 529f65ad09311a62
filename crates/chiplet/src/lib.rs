//! Chiplet-array hardware models for the MECH compiler.
//!
//! This crate is the Rust analogue of the paper's `Chiplet.py`. It builds
//! multi-chip topologies in the four coupling structures evaluated by the
//! paper (square, hexagon, heavy-square, heavy-hexagon), distinguishes
//! on-chip from cross-chip links, controls cross-chip link sparsity, and
//! generates the *multi-entry communication highway* layout: mesh-shaped
//! paths of ancillary qubits spanning every chiplet, dense at crossroads
//! and chiplet boundaries, interleaved elsewhere.
//!
//! # Example
//!
//! ```
//! use mech_chiplet::{ChipletSpec, CouplingStructure, HighwayLayout};
//!
//! let spec = ChipletSpec::new(CouplingStructure::Square, 6, 2, 2);
//! let topo = spec.build();
//! assert_eq!(topo.num_qubits(), 4 * 36);
//! let highway = HighwayLayout::generate(&topo, 1);
//! assert!(highway.num_highway_qubits() > 0);
//! assert!(highway.percentage() < 0.5);
//! ```

mod cost;
mod defect;
pub mod fault;
mod highway;
mod ids;
mod kernels;
mod pathfind;
mod phys;
mod render;
mod scratch;
mod sem;
mod spec;
mod structures;
mod topology;

pub use cost::CostModel;
pub use defect::DefectMap;
pub use highway::{HighwayEdge, HighwayEdgeKind, HighwayLayout};
pub use ids::{ChipletId, LinkKind, PhysQubit};
pub use kernels::{
    astar_route, AdjacencyView, BfsControl, BfsKernel, CsrGraph, DialSearch, RoutingGraph,
};
pub use pathfind::{bfs_distances, shortest_path_avoiding};
pub use phys::{OpCounts, PhysCircuit, PhysOp, PhysOpKind};
pub use render::render_layout;
pub use scratch::{CancelToken, QubitSet, RoutingScratch, StampMap, StampSet, UNREACHED};
pub use sem::{SemEvent, SemEventKind, SemGate1, SemGate2, SemPauli};
pub use spec::{ChipletSpec, CouplingStructure};
pub use topology::{Link, Topology};
