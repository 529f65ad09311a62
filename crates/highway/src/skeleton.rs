//! The immutable routing skeleton of one device's highway.
//!
//! [`HighwaySkeleton`] is everything the claim engine derives from a
//! [`HighwayLayout`] that does not change per compilation: the flat CSR
//! copy of the highway graph (kernel-layer [`CsrGraph`]: sorted rows plus
//! edge-id lookup), the highway-membership mask, and the Dial bucket
//! bound. It is `Send + Sync` and is meant to be built once per device
//! and shared across concurrent
//! [`HighwayOccupancy`](crate::HighwayOccupancy) tables via `Arc` — the
//! mutable claim state stays per-occupancy, the graph is read-only for its
//! whole life.

use mech_chiplet::{CsrGraph, HighwayLayout, PhysQubit};

/// Immutable per-device view of the highway graph shared by every
/// occupancy table compiled against the same device.
#[derive(Debug)]
pub struct HighwaySkeleton {
    /// Flat CSR view of the layout's highway graph.
    graph: CsrGraph,
    /// `is_highway[q]` = `q` is a highway node of the source layout.
    is_highway: Vec<bool>,
    /// Dial bucket bound: primary cost ≤ one per distinct highway node on
    /// a path.
    dial_levels: usize,
}

impl HighwaySkeleton {
    /// Builds the skeleton for a device with `num_qubits` physical qubits
    /// from its highway layout.
    pub fn build(num_qubits: usize, layout: &HighwayLayout) -> Self {
        let endpoints: Vec<(PhysQubit, PhysQubit)> =
            layout.edges().iter().map(|e| (e.a, e.b)).collect();
        let mut is_highway = vec![false; num_qubits];
        for &q in layout.nodes() {
            is_highway[q.index()] = true;
        }
        HighwaySkeleton {
            graph: CsrGraph::from_edges(num_qubits, &endpoints),
            is_highway,
            dial_levels: layout.nodes().len() + 1,
        }
    }

    /// The CSR highway graph.
    pub fn csr(&self) -> &CsrGraph {
        &self.graph
    }

    /// Number of physical qubits on the device.
    pub(crate) fn num_qubits(&self) -> usize {
        self.is_highway.len()
    }

    /// `true` if `q` is a highway node of the source layout.
    pub fn is_highway(&self, q: PhysQubit) -> bool {
        self.is_highway[q.index()]
    }

    /// Upper bound on distinct primary-cost levels a claim search can
    /// produce (sizes the resumable Dial's bucket array).
    pub(crate) fn dial_levels(&self) -> usize {
        self.dial_levels
    }
}
