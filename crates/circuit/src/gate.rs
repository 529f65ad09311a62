use std::fmt;

use crate::commute::PauliRole;
use crate::qubit::Qubit;

/// One-qubit gates.
///
/// Rotation angles are carried for completeness of the IR; the MECH cost
/// model treats all one-qubit gates as free (they are an order of magnitude
/// faster and higher-fidelity than two-qubit gates), so angles never affect
/// compilation results.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OneQubitGate {
    /// Hadamard.
    H,
    /// Pauli-X.
    X,
    /// Pauli-Y.
    Y,
    /// Pauli-Z.
    Z,
    /// Phase gate S = diag(1, i).
    S,
    /// Inverse phase gate.
    Sdg,
    /// T = diag(1, e^{iπ/4}).
    T,
    /// Inverse T gate.
    Tdg,
    /// Rotation about the X axis.
    Rx(f64),
    /// Rotation about the Y axis.
    Ry(f64),
    /// Rotation about the Z axis.
    Rz(f64),
}

impl OneQubitGate {
    /// Whether this gate is a Clifford operation (normalizes the Pauli
    /// group). Rotations report `false` even at Clifford angles — the
    /// classification is syntactic, matching what the stabilizer backend
    /// can execute.
    pub(crate) fn is_clifford(self) -> bool {
        matches!(
            self,
            OneQubitGate::H
                | OneQubitGate::X
                | OneQubitGate::Y
                | OneQubitGate::Z
                | OneQubitGate::S
                | OneQubitGate::Sdg
        )
    }

    /// The Pauli frame in which this gate is diagonal, used by the
    /// commutation analysis.
    pub(crate) fn role(self) -> PauliRole {
        match self {
            OneQubitGate::Z
            | OneQubitGate::S
            | OneQubitGate::Sdg
            | OneQubitGate::T
            | OneQubitGate::Tdg
            | OneQubitGate::Rz(_) => PauliRole::Z,
            OneQubitGate::X | OneQubitGate::Rx(_) => PauliRole::X,
            OneQubitGate::H | OneQubitGate::Y | OneQubitGate::Ry(_) => PauliRole::Other,
        }
    }
}

impl fmt::Display for OneQubitGate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OneQubitGate::H => write!(f, "h"),
            OneQubitGate::X => write!(f, "x"),
            OneQubitGate::Y => write!(f, "y"),
            OneQubitGate::Z => write!(f, "z"),
            OneQubitGate::S => write!(f, "s"),
            OneQubitGate::Sdg => write!(f, "sdg"),
            OneQubitGate::T => write!(f, "t"),
            OneQubitGate::Tdg => write!(f, "tdg"),
            OneQubitGate::Rx(a) => write!(f, "rx({a:.4})"),
            OneQubitGate::Ry(a) => write!(f, "ry({a:.4})"),
            OneQubitGate::Rz(a) => write!(f, "rz({a:.4})"),
        }
    }
}

/// The flavor of a two-qubit interaction.
///
/// For [`TwoQubitKind::Cnot`] and [`TwoQubitKind::Cphase`] the first operand
/// of [`Gate::Two`] is the control. [`TwoQubitKind::Cz`] and
/// [`TwoQubitKind::Rzz`] are symmetric; [`TwoQubitKind::Swap`] is symmetric
/// too and appears only in routed (physical) circuits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TwoQubitKind {
    /// Controlled-X. Diagonal (Z) on the control, X-type on the target.
    Cnot,
    /// Controlled-Z. Diagonal on both operands.
    Cz,
    /// Controlled-phase with an arbitrary angle. Diagonal on both operands.
    Cphase,
    /// exp(-iθ Z⊗Z/2), the QAOA cost-layer interaction. Diagonal on both.
    Rzz,
    /// SWAP, used by routers; treated as three CNOTs by cost models.
    Swap,
}

impl TwoQubitKind {
    /// Whether this interaction is a *controlled* gate that the MECH
    /// protocol can execute over a GHZ state (`Cnot`, `Cz`, `Cphase`, `Rzz`).
    pub(crate) fn is_controlled(self) -> bool {
        !matches!(self, TwoQubitKind::Swap)
    }

    /// Whether this interaction is a Clifford operation. Parameterized
    /// kinds (`Cphase`, `Rzz`) report `false` regardless of angle.
    pub(crate) fn is_clifford(self) -> bool {
        matches!(
            self,
            TwoQubitKind::Cnot | TwoQubitKind::Cz | TwoQubitKind::Swap
        )
    }

    /// Commutation role of the first operand.
    pub(crate) fn role_a(self) -> PauliRole {
        match self {
            TwoQubitKind::Cnot => PauliRole::Z,
            TwoQubitKind::Cz | TwoQubitKind::Cphase | TwoQubitKind::Rzz => PauliRole::Z,
            TwoQubitKind::Swap => PauliRole::Other,
        }
    }

    /// Commutation role of the second operand.
    pub(crate) fn role_b(self) -> PauliRole {
        match self {
            TwoQubitKind::Cnot => PauliRole::X,
            TwoQubitKind::Cz | TwoQubitKind::Cphase | TwoQubitKind::Rzz => PauliRole::Z,
            TwoQubitKind::Swap => PauliRole::Other,
        }
    }
}

impl fmt::Display for TwoQubitKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TwoQubitKind::Cnot => write!(f, "cx"),
            TwoQubitKind::Cz => write!(f, "cz"),
            TwoQubitKind::Cphase => write!(f, "cp"),
            TwoQubitKind::Rzz => write!(f, "rzz"),
            TwoQubitKind::Swap => write!(f, "swap"),
        }
    }
}

/// A gate (or measurement) in a logical circuit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gate {
    /// A one-qubit gate.
    One {
        /// Which gate.
        gate: OneQubitGate,
        /// The operand.
        q: Qubit,
    },
    /// A two-qubit gate. For controlled kinds, `a` is the control and `b`
    /// the target.
    Two {
        /// Interaction flavor.
        kind: TwoQubitKind,
        /// First operand (control for `Cnot`/`Cphase`).
        a: Qubit,
        /// Second operand (target for `Cnot`/`Cphase`).
        b: Qubit,
        /// Interaction angle for parameterized kinds (`Cphase`, `Rzz`).
        angle: f64,
    },
    /// A computational-basis measurement.
    Measure {
        /// The measured qubit.
        q: Qubit,
    },
}

impl Gate {
    /// The qubits this gate acts on, in operand order.
    ///
    /// One-qubit gates and measurements return a single qubit; two-qubit
    /// gates return both.
    pub(crate) fn qubits(&self) -> GateQubits {
        match *self {
            Gate::One { q, .. } | Gate::Measure { q } => GateQubits::one(q),
            Gate::Two { a, b, .. } => GateQubits::two(a, b),
        }
    }

    /// Returns `true` if the gate acts on `q`.
    pub fn acts_on(&self, q: Qubit) -> bool {
        self.qubits().as_slice().contains(&q)
    }

    /// The commutation role of the gate on qubit `q`.
    ///
    /// Returns [`PauliRole::Other`] if the gate does not act on `q` in a
    /// basis-preserving way (measurements, SWAPs, Hadamards) — callers
    /// should first check [`Gate::acts_on`].
    pub(crate) fn role_on(&self, q: Qubit) -> PauliRole {
        match *self {
            Gate::One { gate, q: gq } if gq == q => gate.role(),
            Gate::Two { kind, a, .. } if a == q => kind.role_a(),
            Gate::Two { kind, b, .. } if b == q => kind.role_b(),
            // Z-basis measurement commutes with diagonal gates but we treat
            // it conservatively: it fixes a hard barrier on its qubit.
            _ => PauliRole::Other,
        }
    }

    /// `true` for two-qubit gates (of any kind).
    pub(crate) fn is_two_qubit(&self) -> bool {
        matches!(self, Gate::Two { .. })
    }

    /// Whether a stabilizer simulator can execute this gate: Clifford
    /// unitaries and computational-basis measurements.
    pub fn is_clifford(&self) -> bool {
        match *self {
            Gate::One { gate, .. } => gate.is_clifford(),
            Gate::Two { kind, .. } => kind.is_clifford(),
            Gate::Measure { .. } => true,
        }
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Gate::One { gate, q } => write!(f, "{gate} {q}"),
            Gate::Two { kind, a, b, angle } => {
                if matches!(kind, TwoQubitKind::Cphase | TwoQubitKind::Rzz) {
                    write!(f, "{kind}({angle:.4}) {a}, {b}")
                } else {
                    write!(f, "{kind} {a}, {b}")
                }
            }
            Gate::Measure { q } => write!(f, "measure {q}"),
        }
    }
}

/// Small fixed-capacity view of a gate's operand list.
///
/// Avoids heap allocation in the hot paths of the DAG construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct GateQubits {
    qs: [Qubit; 2],
    len: u8,
}

impl GateQubits {
    fn one(q: Qubit) -> Self {
        GateQubits {
            qs: [q, Qubit(u32::MAX)],
            len: 1,
        }
    }

    fn two(a: Qubit, b: Qubit) -> Self {
        GateQubits { qs: [a, b], len: 2 }
    }

    /// The operands as a slice of length 1 or 2.
    pub(crate) fn as_slice(&self) -> &[Qubit] {
        &self.qs[..self.len as usize]
    }
}

impl<'a> IntoIterator for &'a GateQubits {
    type Item = Qubit;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, Qubit>>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qubit_lists_have_expected_lengths() {
        let g = Gate::One {
            gate: OneQubitGate::H,
            q: Qubit(0),
        };
        assert_eq!(g.qubits().as_slice(), &[Qubit(0)]);
        let g = Gate::Two {
            kind: TwoQubitKind::Cnot,
            a: Qubit(1),
            b: Qubit(2),
            angle: 0.0,
        };
        assert_eq!(g.qubits().as_slice(), &[Qubit(1), Qubit(2)]);
        assert!(g.acts_on(Qubit(2)));
        assert!(!g.acts_on(Qubit(3)));
    }

    #[test]
    fn cnot_roles_are_control_z_target_x() {
        let g = Gate::Two {
            kind: TwoQubitKind::Cnot,
            a: Qubit(0),
            b: Qubit(1),
            angle: 0.0,
        };
        assert_eq!(g.role_on(Qubit(0)), PauliRole::Z);
        assert_eq!(g.role_on(Qubit(1)), PauliRole::X);
    }

    #[test]
    fn diagonal_kinds_report_diagonal() {
        // Diagonal gates act as Z on both operands, which is what lets
        // them commute with every other Z-role gate on either qubit.
        let diagonal = |k: TwoQubitKind| k.role_a() == PauliRole::Z && k.role_b() == PauliRole::Z;
        assert!(diagonal(TwoQubitKind::Cz));
        assert!(diagonal(TwoQubitKind::Cphase));
        assert!(diagonal(TwoQubitKind::Rzz));
        assert!(!diagonal(TwoQubitKind::Cnot));
        assert!(!diagonal(TwoQubitKind::Swap));
        assert!(!TwoQubitKind::Swap.is_controlled());
    }

    #[test]
    fn measurement_role_is_barrier() {
        let m = Gate::Measure { q: Qubit(4) };
        assert_eq!(m.role_on(Qubit(4)), PauliRole::Other);
    }

    #[test]
    fn display_formats() {
        let g = Gate::Two {
            kind: TwoQubitKind::Cphase,
            a: Qubit(0),
            b: Qubit(1),
            angle: 1.5,
        };
        assert_eq!(g.to_string(), "cp(1.5000) q0, q1");
        let g = Gate::Two {
            kind: TwoQubitKind::Cnot,
            a: Qubit(0),
            b: Qubit(1),
            angle: 0.0,
        };
        assert_eq!(g.to_string(), "cx q0, q1");
    }

    #[test]
    fn one_qubit_roles() {
        assert_eq!(OneQubitGate::Rz(0.3).role(), PauliRole::Z);
        assert_eq!(OneQubitGate::X.role(), PauliRole::X);
        assert_eq!(OneQubitGate::H.role(), PauliRole::Other);
    }
}
