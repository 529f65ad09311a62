//! Per-structure lattice rules: which footprint cells hold qubits and which
//! orthogonally adjacent cells are coupled on-chip.
//!
//! All four structures are expressed over a `d × d` footprint of grid cells
//! with local coordinates `(r, c)`, `0 ≤ r, c < d`. This uniform encoding
//! lets the topology builder and highway generator treat structures
//! generically.

use crate::spec::CouplingStructure;

/// Returns `true` if footprint cell `(r, c)` of a `d`-sized chiplet holds a
/// qubit under `structure`.
pub(crate) fn has_qubit(structure: CouplingStructure, r: u32, c: u32, _d: u32) -> bool {
    match structure {
        CouplingStructure::Square | CouplingStructure::Hexagon => true,
        CouplingStructure::HeavySquare => !(r % 2 == 1 && c % 2 == 1),
        CouplingStructure::HeavyHexagon => {
            if r.is_multiple_of(2) {
                true
            } else {
                // Sparse connector qubits: every 4th column, offset
                // alternating between odd rows (IBM heavy-hex pattern).
                (r % 4 == 1 && c.is_multiple_of(4)) || (r % 4 == 3 && c % 4 == 2)
            }
        }
    }
}

/// Returns `true` if two orthogonally adjacent occupied cells are coupled
/// on-chip. `(r, c)` and `(r2, c2)` must differ by exactly one step in one
/// axis and both satisfy [`has_qubit`]; the caller guarantees this.
pub(crate) fn cells_coupled(
    structure: CouplingStructure,
    r: u32,
    c: u32,
    r2: u32,
    _c2: u32,
) -> bool {
    match structure {
        CouplingStructure::Square
        | CouplingStructure::HeavySquare
        | CouplingStructure::HeavyHexagon => true,
        CouplingStructure::Hexagon => {
            if r == r2 {
                true // all horizontal couplers
            } else {
                // Vertical couplers only on alternating columns (brick wall):
                // between rows (r, r+1) the rung sits at columns where
                // (min(r, r2) + c) is even.
                (r.min(r2) + c).is_multiple_of(2)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Number of qubits in one chiplet of side `d`.
    fn qubits_per_chiplet(structure: CouplingStructure, d: u32) -> u32 {
        (0..d)
            .map(|r| (0..d).filter(|&c| has_qubit(structure, r, c, d)).count() as u32)
            .sum()
    }

    #[test]
    fn square_fills_the_footprint() {
        assert_eq!(qubits_per_chiplet(CouplingStructure::Square, 7), 49);
    }

    #[test]
    fn hexagon_fills_the_footprint() {
        assert_eq!(qubits_per_chiplet(CouplingStructure::Hexagon, 8), 64);
    }

    #[test]
    fn heavy_square_drops_odd_odd_cells() {
        // 8×8 footprint: 64 - 16 odd/odd cells = 48, matching the paper's
        // heavy-square-351 setting (432 total qubits on a 3×3 array).
        assert_eq!(qubits_per_chiplet(CouplingStructure::HeavySquare, 8), 48);
    }

    #[test]
    fn heavy_hexagon_has_sparse_connectors() {
        // 8×8 footprint: 4 full rows of 8 plus 2 connectors per odd row
        // = 32 + 8 = 40, matching heavy-hex-336 (480 total on 3×4).
        assert_eq!(qubits_per_chiplet(CouplingStructure::HeavyHexagon, 8), 40);
    }

    #[test]
    fn hexagon_vertical_rungs_alternate() {
        // Row pair (0,1): rung at even columns.
        assert!(cells_coupled(CouplingStructure::Hexagon, 0, 0, 1, 0));
        assert!(!cells_coupled(CouplingStructure::Hexagon, 0, 1, 1, 1));
        // Row pair (1,2): rung at odd columns.
        assert!(cells_coupled(CouplingStructure::Hexagon, 1, 1, 2, 1));
        assert!(!cells_coupled(CouplingStructure::Hexagon, 1, 0, 2, 0));
    }

    #[test]
    fn heavy_hex_connector_positions() {
        assert!(has_qubit(CouplingStructure::HeavyHexagon, 1, 0, 8));
        assert!(has_qubit(CouplingStructure::HeavyHexagon, 1, 4, 8));
        assert!(!has_qubit(CouplingStructure::HeavyHexagon, 1, 2, 8));
        assert!(has_qubit(CouplingStructure::HeavyHexagon, 3, 2, 8));
        assert!(has_qubit(CouplingStructure::HeavyHexagon, 3, 6, 8));
        assert!(!has_qubit(CouplingStructure::HeavyHexagon, 3, 0, 8));
    }
}
