//! Commutation rules between gates.
//!
//! MECH's scheduler relies on knowing when two gates may be reordered: a
//! controlled gate can join a multi-target highway gate only if it commutes
//! with everything between it and the aggregation point. We use the standard
//! sufficient condition based on per-qubit Pauli frames: two gates commute
//! if, on every shared qubit, both act within the same Pauli frame
//! (both diagonal in Z, or both X-type).
//!
//! This is conservative (it may report `false` for some commuting pairs, it
//! never reports `true` for a non-commuting pair), which is the safe
//! direction for a compiler.

use crate::gate::Gate;

/// The Pauli frame a gate occupies on one of its operand qubits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum PauliRole {
    /// Diagonal in the computational (Z) basis on this qubit: Rz, S, T,
    /// CZ/CP/RZZ on either operand, CNOT on its control.
    Z,
    /// X-type on this qubit (a linear combination of I and X): X, Rx, CNOT
    /// on its target.
    X,
    /// Anything else (H, Y, SWAP, measurement): acts as a barrier.
    Other,
}

impl PauliRole {
    /// Whether two single-qubit actions in these frames commute.
    pub(crate) fn commutes_with(self, other: PauliRole) -> bool {
        matches!(
            (self, other),
            (PauliRole::Z, PauliRole::Z) | (PauliRole::X, PauliRole::X)
        )
    }
}

/// Returns `true` if gates `a` and `b` are known to commute.
///
/// Gates on disjoint qubits always commute. Otherwise, on every shared
/// qubit, both gates must act in the same Pauli frame: both diagonal in Z,
/// or both X-type.
///
/// # Example
///
/// ```
/// use mech_circuit::{commutes, Gate, Qubit, TwoQubitKind};
///
/// let cx01 = Gate::Two { kind: TwoQubitKind::Cnot, a: Qubit(0), b: Qubit(1), angle: 0.0 };
/// let cx02 = Gate::Two { kind: TwoQubitKind::Cnot, a: Qubit(0), b: Qubit(2), angle: 0.0 };
/// let cx12 = Gate::Two { kind: TwoQubitKind::Cnot, a: Qubit(1), b: Qubit(2), angle: 0.0 };
///
/// assert!(commutes(&cx01, &cx02)); // shared control
/// assert!(!commutes(&cx01, &cx12)); // target of one is control of other
/// ```
pub fn commutes(a: &Gate, b: &Gate) -> bool {
    for q in &a.qubits() {
        if b.acts_on(q) {
            let ra = a.role_on(q);
            let rb = b.role_on(q);
            if !ra.commutes_with(rb) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{OneQubitGate, TwoQubitKind};
    use crate::qubit::Qubit;

    fn cx(a: u32, b: u32) -> Gate {
        Gate::Two {
            kind: TwoQubitKind::Cnot,
            a: Qubit(a),
            b: Qubit(b),
            angle: 0.0,
        }
    }

    fn cp(a: u32, b: u32) -> Gate {
        Gate::Two {
            kind: TwoQubitKind::Cphase,
            a: Qubit(a),
            b: Qubit(b),
            angle: 0.5,
        }
    }

    fn rzz(a: u32, b: u32) -> Gate {
        Gate::Two {
            kind: TwoQubitKind::Rzz,
            a: Qubit(a),
            b: Qubit(b),
            angle: 0.7,
        }
    }

    #[test]
    fn disjoint_gates_commute() {
        assert!(commutes(&cx(0, 1), &cx(2, 3)));
    }

    #[test]
    fn shared_control_cnots_commute() {
        assert!(commutes(&cx(0, 1), &cx(0, 2)));
    }

    #[test]
    fn shared_target_cnots_commute() {
        assert!(commutes(&cx(0, 2), &cx(1, 2)));
    }

    #[test]
    fn chained_cnots_do_not_commute() {
        assert!(!commutes(&cx(0, 1), &cx(1, 2)));
        assert!(!commutes(&cx(1, 2), &cx(0, 1)));
    }

    #[test]
    fn diagonal_gates_always_commute_with_each_other() {
        assert!(commutes(&cp(0, 1), &cp(1, 2)));
        assert!(commutes(&rzz(0, 1), &rzz(1, 2)));
        assert!(commutes(&cp(0, 1), &rzz(0, 1)));
    }

    #[test]
    fn diagonal_commutes_with_cnot_control_only() {
        // CP(1,2) shares qubit 1 with CNOT(1,0): qubit 1 is CNOT's control
        // (Z role) and CP is diagonal -> commute.
        assert!(commutes(&cp(1, 2), &cx(1, 0)));
        // CP(1,2) shares qubit 2 with CNOT(0,2): qubit 2 is CNOT's target
        // (X role) -> do not commute.
        assert!(!commutes(&cp(1, 2), &cx(0, 2)));
    }

    #[test]
    fn rz_commutes_with_control_x_with_target() {
        let rz = Gate::One {
            gate: OneQubitGate::Rz(0.2),
            q: Qubit(0),
        };
        let x = Gate::One {
            gate: OneQubitGate::X,
            q: Qubit(1),
        };
        assert!(commutes(&rz, &cx(0, 1)));
        assert!(commutes(&x, &cx(0, 1)));
        assert!(!commutes(&rz, &cx(1, 0)));
    }

    #[test]
    fn hadamard_is_a_barrier() {
        let h = Gate::One {
            gate: OneQubitGate::H,
            q: Qubit(0),
        };
        assert!(!commutes(&h, &cx(0, 1)));
        assert!(!commutes(&h, &cp(0, 1)));
    }

    #[test]
    fn measurement_is_a_barrier() {
        let m = Gate::Measure { q: Qubit(1) };
        assert!(!commutes(&m, &cx(0, 1)));
        assert!(!commutes(&cx(0, 1), &m));
        assert!(commutes(&m, &cx(2, 3)));
    }

    #[test]
    fn commutation_is_symmetric_on_samples() {
        let gates = [cx(0, 1), cx(1, 0), cx(0, 2), cp(0, 1), rzz(1, 2)];
        for a in &gates {
            for b in &gates {
                assert_eq!(commutes(a, b), commutes(b, a), "{a} vs {b}");
            }
        }
    }
}
