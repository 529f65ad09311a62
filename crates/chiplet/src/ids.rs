use std::fmt;

/// A physical qubit on the chiplet array.
///
/// Physical qubits are dense indices assigned by the topology generator in
/// row-major global-grid order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysQubit(pub u32);

impl PhysQubit {
    /// The raw index as `usize`, for table lookups.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PhysQubit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Q{}", self.0)
    }
}

/// Identifier of one chiplet within the array, row-major.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ChipletId(pub u32);

impl fmt::Display for ChipletId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "chip{}", self.0)
    }
}

/// Whether a coupling link lives within one chiplet or crosses chips.
///
/// Cross-chip links (flip-chip bonds / cryogenic cables) have markedly lower
/// fidelity than on-chip couplers; the cost model weights them separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkKind {
    /// Intra-chiplet coupler.
    OnChip,
    /// Inter-chiplet link.
    CrossChip,
}

impl fmt::Display for LinkKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkKind::OnChip => write!(f, "on-chip"),
            LinkKind::CrossChip => write!(f, "cross-chip"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_compact() {
        assert_eq!(PhysQubit(12).to_string(), "Q12");
        assert_eq!(ChipletId(2).to_string(), "chip2");
        assert_eq!(LinkKind::CrossChip.to_string(), "cross-chip");
    }

    #[test]
    fn index_round_trips() {
        assert_eq!(PhysQubit(3).index(), 3);
    }
}
