use std::fmt;

use crate::topology::Topology;

/// The coupling structure of each chiplet (paper Fig. 11).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CouplingStructure {
    /// Full square lattice: every grid cell holds a qubit, orthogonal
    /// neighbors are coupled. Degree ≤ 4.
    Square,
    /// Hexagonal (brick-wall) lattice: every cell holds a qubit, all
    /// horizontal couplers plus vertical couplers on alternating columns.
    /// Degree ≤ 3.
    Hexagon,
    /// Heavy-square lattice: qubits on the nodes *and* edges of a square
    /// lattice (grid cells except odd-row/odd-column).
    HeavySquare,
    /// Heavy-hexagon lattice in the IBM style: full qubit rows at even grid
    /// rows, sparse connector qubits between them.
    HeavyHexagon,
}

impl CouplingStructure {
    /// All four structures in the paper's Fig. 16 order.
    pub const ALL: [CouplingStructure; 4] = [
        CouplingStructure::Square,
        CouplingStructure::Hexagon,
        CouplingStructure::HeavySquare,
        CouplingStructure::HeavyHexagon,
    ];

    /// Display name used by the experiment harness.
    pub fn name(self) -> &'static str {
        match self {
            CouplingStructure::Square => "square",
            CouplingStructure::Hexagon => "hexagon",
            CouplingStructure::HeavySquare => "heavy-square",
            CouplingStructure::HeavyHexagon => "heavy-hexagon",
        }
    }
}

impl fmt::Display for CouplingStructure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A description of a chiplet array: structure, per-chiplet footprint and
/// array shape, plus optional cross-chip link sparsity.
///
/// `chiplet_size` is the side of the square *footprint* each chiplet
/// occupies on the global grid; for heavy structures not every footprint
/// cell holds a qubit (an 8×8 heavy-square chiplet has 48 qubits, an 8×8
/// heavy-hexagon chiplet has 40).
///
/// # Example
///
/// ```
/// use mech_chiplet::{ChipletSpec, CouplingStructure};
/// let topo = ChipletSpec::new(CouplingStructure::Square, 7, 3, 3)
///     .with_cross_links_per_edge(3)
///     .build();
/// assert_eq!(topo.num_qubits(), 9 * 49);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChipletSpec {
    structure: CouplingStructure,
    chiplet_size: u32,
    array_rows: u32,
    array_cols: u32,
    cross_links_per_edge: Option<u32>,
}

impl ChipletSpec {
    /// Creates a spec for an `array_rows × array_cols` array of chiplets
    /// with the given structure and footprint side.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or `chiplet_size < 3` (highway
    /// layouts need at least a 3-wide corridor).
    pub fn new(
        structure: CouplingStructure,
        chiplet_size: u32,
        array_rows: u32,
        array_cols: u32,
    ) -> Self {
        assert!(chiplet_size >= 3, "chiplet size must be at least 3");
        assert!(
            array_rows >= 1 && array_cols >= 1,
            "array must be non-empty"
        );
        ChipletSpec {
            structure,
            chiplet_size,
            array_rows,
            array_cols,
            cross_links_per_edge: None,
        }
    }

    /// Convenience constructor for square chiplets (the paper's default).
    pub fn square(chiplet_size: u32, array_rows: u32, array_cols: u32) -> Self {
        ChipletSpec::new(
            CouplingStructure::Square,
            chiplet_size,
            array_rows,
            array_cols,
        )
    }

    /// Limits the number of cross-chip links on each chiplet-to-chiplet
    /// edge (paper Fig. 14 keeps 7, 3 or 1 of the 7 candidates). Links are
    /// kept evenly spaced, always including the middle one so the highway
    /// can cross.
    pub fn with_cross_links_per_edge(mut self, kept: u32) -> Self {
        assert!(kept >= 1, "at least one cross link per edge is required");
        self.cross_links_per_edge = Some(kept);
        self
    }

    /// The coupling structure.
    pub fn structure(&self) -> CouplingStructure {
        self.structure
    }

    /// Side of each chiplet's square footprint.
    pub(crate) fn chiplet_size(&self) -> u32 {
        self.chiplet_size
    }

    /// Rows of chiplets in the array.
    pub(crate) fn array_rows(&self) -> u32 {
        self.array_rows
    }

    /// Columns of chiplets in the array.
    pub(crate) fn array_cols(&self) -> u32 {
        self.array_cols
    }

    /// Number of chiplets.
    pub(crate) fn num_chiplets(&self) -> u32 {
        self.array_rows * self.array_cols
    }

    /// Cross-chip links kept per chiplet edge (`None` = all candidates).
    pub(crate) fn cross_links_per_edge(&self) -> Option<u32> {
        self.cross_links_per_edge
    }

    /// Builds the physical topology described by this spec.
    pub fn build(self) -> Topology {
        Topology::build(self)
    }
}

/// Selects `keep` indices out of `0..n`, evenly spaced and symmetric so
/// that (for odd `keep`) the middle candidate is always kept.
///
/// Used for cross-chip link sparsification; the middle link carries the
/// highway between chiplets.
pub(crate) fn evenly_spaced(n: u32, keep: u32) -> Vec<u32> {
    let keep = keep.min(n);
    (0..keep).map(|i| ((2 * i + 1) * n) / (2 * keep)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evenly_spaced_includes_middle_for_odd_counts() {
        assert_eq!(evenly_spaced(7, 1), vec![3]);
        assert_eq!(evenly_spaced(7, 3), vec![1, 3, 5]);
        assert_eq!(evenly_spaced(7, 7), vec![0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn evenly_spaced_caps_at_n() {
        assert_eq!(evenly_spaced(3, 10).len(), 3);
    }

    #[test]
    fn spec_accessors() {
        let s = ChipletSpec::square(7, 2, 3).with_cross_links_per_edge(3);
        assert_eq!(s.structure(), CouplingStructure::Square);
        assert_eq!(s.chiplet_size(), 7);
        assert_eq!(s.num_chiplets(), 6);
        assert_eq!(s.cross_links_per_edge(), Some(3));
    }

    #[test]
    #[should_panic(expected = "chiplet size")]
    fn tiny_chiplets_are_rejected() {
        ChipletSpec::square(2, 2, 2);
    }

    #[test]
    fn structure_names_match_paper() {
        assert_eq!(CouplingStructure::HeavyHexagon.to_string(), "heavy-hexagon");
        assert_eq!(CouplingStructure::ALL.len(), 4);
    }
}
