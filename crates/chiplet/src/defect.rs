//! Device defect maps: dead qubits and dead couplers.
//!
//! Real chiplet hardware publishes calibration data naming qubits and
//! couplers that are out of service; the compiler must route *around*
//! them, the way storage stacks remap bad blocks. A [`DefectMap`] is the
//! value-typed description of one such calibration epoch: a sorted set of
//! dead qubits plus a sorted set of dead links (normalized `a < b`).
//!
//! The map itself is inert — each layer consumes it at device-artifact
//! build time (see `DESIGN.md` §13):
//!
//! * `Topology` masks its CSR rows so no kernel ever sees a dead edge;
//! * `HighwayLayout` prunes corridor nodes/edges that lost a qubit or an
//!   underlying coupler;
//! * the entrance table and claim skeleton are rebuilt from the pruned
//!   structures and never mention dead resources.
//!
//! An **empty** map is the common case and is contractually free: builds
//! with `DefectMap::default()` take the exact pristine code paths and
//! produce byte-identical artifacts and schedules.

use std::collections::BTreeSet;

use crate::ids::PhysQubit;

/// The dead qubits and dead links of one calibration epoch.
///
/// Order-insensitive by construction: qubits live in a sorted set and
/// links are normalized to `(min, max)`, so two maps describing the same
/// defects are `Eq` and hash identically — [`DefectMap`] participates in
/// device-spec equality.
///
/// # Example
///
/// ```
/// use mech_chiplet::{DefectMap, PhysQubit};
///
/// let defects = DefectMap::new()
///     .with_dead_qubit(PhysQubit(3))
///     .with_dead_link(PhysQubit(7), PhysQubit(6));
/// assert!(defects.is_dead_qubit(PhysQubit(3)));
/// // Links are undirected; insertion order does not matter.
/// assert!(defects.is_dead_link(PhysQubit(6), PhysQubit(7)));
/// assert!(defects.kills_edge(PhysQubit(3), PhysQubit(4)));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct DefectMap {
    dead_qubits: BTreeSet<PhysQubit>,
    dead_links: BTreeSet<(PhysQubit, PhysQubit)>,
}

impl DefectMap {
    /// An empty map: the pristine device.
    pub fn new() -> Self {
        DefectMap::default()
    }

    /// `true` when nothing is dead — the pristine fast path. Builders
    /// check this before doing any masking work, which is what makes
    /// empty-defect artifacts byte-identical to pre-defect builds.
    pub fn is_empty(&self) -> bool {
        self.dead_qubits.is_empty() && self.dead_links.is_empty()
    }

    /// Marks `q` dead (its couplers die with it).
    pub fn with_dead_qubit(mut self, q: PhysQubit) -> Self {
        self.dead_qubits.insert(q);
        self
    }

    /// Marks every qubit in `qs` dead.
    pub fn with_dead_qubits(mut self, qs: impl IntoIterator<Item = PhysQubit>) -> Self {
        self.dead_qubits.extend(qs);
        self
    }

    /// Marks the undirected coupler `a—b` dead (both qubits stay alive).
    pub fn with_dead_link(mut self, a: PhysQubit, b: PhysQubit) -> Self {
        self.dead_links.insert((a.min(b), a.max(b)));
        self
    }

    /// Marks every coupler in `links` dead.
    pub fn with_dead_links(
        mut self,
        links: impl IntoIterator<Item = (PhysQubit, PhysQubit)>,
    ) -> Self {
        for (a, b) in links {
            self.dead_links.insert((a.min(b), a.max(b)));
        }
        self
    }

    /// `true` if `q` is dead.
    pub fn is_dead_qubit(&self, q: PhysQubit) -> bool {
        self.dead_qubits.contains(&q)
    }

    /// `true` if the coupler `a—b` itself is dead (regardless of whether
    /// its endpoints are).
    pub fn is_dead_link(&self, a: PhysQubit, b: PhysQubit) -> bool {
        self.dead_links.contains(&(a.min(b), a.max(b)))
    }

    /// `true` if the edge `a—b` must not be used: the coupler is dead or
    /// either endpoint is. This is the single predicate every masking
    /// layer applies.
    pub fn kills_edge(&self, a: PhysQubit, b: PhysQubit) -> bool {
        self.is_dead_qubit(a) || self.is_dead_qubit(b) || self.is_dead_link(a, b)
    }

    /// The dead qubits, ascending.
    pub(crate) fn dead_qubits(&self) -> impl Iterator<Item = PhysQubit> + '_ {
        self.dead_qubits.iter().copied()
    }

    /// Number of dead qubits.
    pub fn num_dead_qubits(&self) -> usize {
        self.dead_qubits.len()
    }

    /// Number of dead links.
    pub fn num_dead_links(&self) -> usize {
        self.dead_links.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_map_kills_nothing() {
        let d = DefectMap::new();
        assert!(d.is_empty());
        assert!(!d.kills_edge(PhysQubit(0), PhysQubit(1)));
        assert_eq!(d.num_dead_qubits() + d.num_dead_links(), 0);
    }

    #[test]
    fn links_are_normalized_and_undirected() {
        let d = DefectMap::new().with_dead_link(PhysQubit(9), PhysQubit(2));
        assert!(d.is_dead_link(PhysQubit(2), PhysQubit(9)));
        assert!(d.is_dead_link(PhysQubit(9), PhysQubit(2)));
        assert_eq!(d.dead_links.first(), Some(&(PhysQubit(2), PhysQubit(9))));
        // Same defect inserted in the other orientation is a no-op.
        let d2 = d.clone().with_dead_link(PhysQubit(2), PhysQubit(9));
        assert_eq!(d, d2);
        assert_eq!(d2.num_dead_links(), 1);
    }

    #[test]
    fn dead_qubits_kill_incident_edges() {
        let d = DefectMap::new().with_dead_qubit(PhysQubit(5));
        assert!(d.kills_edge(PhysQubit(5), PhysQubit(6)));
        assert!(d.kills_edge(PhysQubit(4), PhysQubit(5)));
        assert!(!d.kills_edge(PhysQubit(4), PhysQubit(6)));
        assert!(!d.is_dead_link(PhysQubit(5), PhysQubit(6)));
    }

    #[test]
    fn maps_compare_structurally_for_cache_keys() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let a = DefectMap::new()
            .with_dead_qubits([PhysQubit(1), PhysQubit(2)])
            .with_dead_link(PhysQubit(3), PhysQubit(4));
        let b = DefectMap::new()
            .with_dead_qubit(PhysQubit(2))
            .with_dead_link(PhysQubit(4), PhysQubit(3))
            .with_dead_qubit(PhysQubit(1));
        assert_eq!(a, b);
        let hash = |m: &DefectMap| {
            let mut h = DefaultHasher::new();
            m.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&a), hash(&b));
        assert_ne!(a, a.clone().with_dead_qubit(PhysQubit(9)));
    }
}
