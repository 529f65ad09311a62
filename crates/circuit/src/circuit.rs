use std::fmt;

use crate::gate::{Gate, OneQubitGate, TwoQubitKind};
use crate::qubit::Qubit;

/// Errors produced when constructing a [`Circuit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CircuitError {
    /// A gate referenced a qubit index `>= num_qubits`.
    QubitOutOfRange {
        /// The offending qubit.
        qubit: Qubit,
        /// The circuit width.
        num_qubits: u32,
    },
    /// A two-qubit gate used the same qubit for both operands.
    DuplicateOperand {
        /// The repeated qubit.
        qubit: Qubit,
    },
    /// A commutation DAG was paired with a circuit it was not built from.
    DagMismatch,
}

impl fmt::Display for CircuitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CircuitError::QubitOutOfRange { qubit, num_qubits } => {
                write!(f, "qubit {qubit} out of range for width {num_qubits}")
            }
            CircuitError::DuplicateOperand { qubit } => {
                write!(f, "two-qubit gate uses {qubit} for both operands")
            }
            CircuitError::DagMismatch => {
                write!(f, "commutation DAG was built from a different circuit")
            }
        }
    }
}

impl std::error::Error for CircuitError {}

/// Aggregate statistics of a logical circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CircuitStats {
    /// Number of one-qubit gates.
    pub one_qubit: usize,
    /// Number of two-qubit gates (all kinds).
    pub two_qubit: usize,
    /// Number of measurements.
    pub measurements: usize,
}

/// An ordered list of gates over `num_qubits` logical qubits.
///
/// The container validates operands eagerly ([`CircuitError`]) so that all
/// downstream passes can index per-qubit tables without bounds checks
/// failing.
///
/// # Example
///
/// ```
/// use mech_circuit::{Circuit, Qubit};
/// # fn main() -> Result<(), mech_circuit::CircuitError> {
/// let mut c = Circuit::new(2);
/// c.h(Qubit(0))?;
/// c.cnot(Qubit(0), Qubit(1))?;
/// c.measure(Qubit(1))?;
/// assert_eq!(c.len(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Circuit {
    num_qubits: u32,
    gates: Vec<Gate>,
}

impl Circuit {
    /// Creates an empty circuit over `num_qubits` qubits.
    pub fn new(num_qubits: u32) -> Self {
        Circuit {
            num_qubits,
            gates: Vec::new(),
        }
    }

    /// Creates an empty circuit with capacity for `cap` gates.
    pub fn with_capacity(num_qubits: u32, cap: usize) -> Self {
        Circuit {
            num_qubits,
            gates: Vec::with_capacity(cap),
        }
    }

    /// The circuit width (number of logical qubits).
    pub fn num_qubits(&self) -> u32 {
        self.num_qubits
    }

    /// The gates, in program order.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Number of gates (including measurements).
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// `true` when the circuit contains no gates.
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// Whether every gate is Clifford (executable on a stabilizer
    /// simulator). See [`Gate::is_clifford`].
    pub fn is_clifford(&self) -> bool {
        self.gates.iter().all(Gate::is_clifford)
    }

    fn check(&self, q: Qubit) -> Result<(), CircuitError> {
        if q.0 >= self.num_qubits {
            return Err(CircuitError::QubitOutOfRange {
                qubit: q,
                num_qubits: self.num_qubits,
            });
        }
        Ok(())
    }

    /// Appends an arbitrary gate after validating its operands.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::QubitOutOfRange`] for out-of-range operands
    /// and [`CircuitError::DuplicateOperand`] when a two-qubit gate repeats
    /// an operand.
    pub fn push(&mut self, gate: Gate) -> Result<(), CircuitError> {
        match gate {
            Gate::One { q, .. } | Gate::Measure { q } => self.check(q)?,
            Gate::Two { a, b, .. } => {
                self.check(a)?;
                self.check(b)?;
                if a == b {
                    return Err(CircuitError::DuplicateOperand { qubit: a });
                }
            }
        }
        self.gates.push(gate);
        Ok(())
    }

    /// Appends a one-qubit gate.
    ///
    /// # Errors
    ///
    /// See [`Circuit::push`].
    pub fn one(&mut self, gate: OneQubitGate, q: Qubit) -> Result<(), CircuitError> {
        self.push(Gate::One { gate, q })
    }

    /// Appends a Hadamard gate.
    ///
    /// # Errors
    ///
    /// See [`Circuit::push`].
    pub fn h(&mut self, q: Qubit) -> Result<(), CircuitError> {
        self.one(OneQubitGate::H, q)
    }

    /// Appends an X gate.
    ///
    /// # Errors
    ///
    /// See [`Circuit::push`].
    pub fn x(&mut self, q: Qubit) -> Result<(), CircuitError> {
        self.one(OneQubitGate::X, q)
    }

    /// Appends an Rz rotation.
    ///
    /// # Errors
    ///
    /// See [`Circuit::push`].
    pub fn rz(&mut self, q: Qubit, angle: f64) -> Result<(), CircuitError> {
        self.one(OneQubitGate::Rz(angle), q)
    }

    /// Appends an Ry rotation.
    ///
    /// # Errors
    ///
    /// See [`Circuit::push`].
    pub(crate) fn ry(&mut self, q: Qubit, angle: f64) -> Result<(), CircuitError> {
        self.one(OneQubitGate::Ry(angle), q)
    }

    /// Appends a CNOT with control `c` and target `t`.
    ///
    /// # Errors
    ///
    /// See [`Circuit::push`].
    pub fn cnot(&mut self, c: Qubit, t: Qubit) -> Result<(), CircuitError> {
        self.push(Gate::Two {
            kind: TwoQubitKind::Cnot,
            a: c,
            b: t,
            angle: 0.0,
        })
    }

    /// Appends a CZ gate.
    ///
    /// # Errors
    ///
    /// See [`Circuit::push`].
    pub fn cz(&mut self, a: Qubit, b: Qubit) -> Result<(), CircuitError> {
        self.push(Gate::Two {
            kind: TwoQubitKind::Cz,
            a,
            b,
            angle: 0.0,
        })
    }

    /// Appends a controlled-phase gate with the given angle.
    ///
    /// # Errors
    ///
    /// See [`Circuit::push`].
    pub(crate) fn cp(&mut self, c: Qubit, t: Qubit, angle: f64) -> Result<(), CircuitError> {
        self.push(Gate::Two {
            kind: TwoQubitKind::Cphase,
            a: c,
            b: t,
            angle,
        })
    }

    /// Appends an RZZ interaction with the given angle.
    ///
    /// # Errors
    ///
    /// See [`Circuit::push`].
    pub fn rzz(&mut self, a: Qubit, b: Qubit, angle: f64) -> Result<(), CircuitError> {
        self.push(Gate::Two {
            kind: TwoQubitKind::Rzz,
            a,
            b,
            angle,
        })
    }

    /// Appends a measurement.
    ///
    /// # Errors
    ///
    /// See [`Circuit::push`].
    pub fn measure(&mut self, q: Qubit) -> Result<(), CircuitError> {
        self.push(Gate::Measure { q })
    }

    /// Appends measurements on all qubits, in index order.
    pub fn measure_all(&mut self) {
        for q in 0..self.num_qubits {
            self.gates.push(Gate::Measure { q: Qubit(q) });
        }
    }

    /// Number of two-qubit gates.
    pub fn two_qubit_count(&self) -> usize {
        self.gates.iter().filter(|g| g.is_two_qubit()).count()
    }

    /// Aggregate gate counts.
    pub fn stats(&self) -> CircuitStats {
        let mut s = CircuitStats::default();
        for g in &self.gates {
            match g {
                Gate::One { .. } => s.one_qubit += 1,
                Gate::Two { .. } => s.two_qubit += 1,
                Gate::Measure { .. } => s.measurements += 1,
            }
        }
        s
    }

    /// Re-checks every gate's operands against the circuit width.
    ///
    /// [`Circuit::push`] validates eagerly, but [`Extend`] (and direct
    /// construction of gate vectors) does not — compilers call this at the
    /// session boundary so a hand-built circuit surfaces a structured
    /// error instead of panicking mid-compile.
    ///
    /// # Errors
    ///
    /// Returns the first [`CircuitError::QubitOutOfRange`] or
    /// [`CircuitError::DuplicateOperand`] in program order.
    pub fn validate(&self) -> Result<(), CircuitError> {
        for g in &self.gates {
            match *g {
                Gate::One { q, .. } | Gate::Measure { q } => self.check(q)?,
                Gate::Two { a, b, .. } => {
                    self.check(a)?;
                    self.check(b)?;
                    if a == b {
                        return Err(CircuitError::DuplicateOperand { qubit: a });
                    }
                }
            }
        }
        Ok(())
    }

    /// Iterates over gates together with their [`GateId`](crate::GateId)s
    /// (positions in program order).
    pub(crate) fn iter(&self) -> impl Iterator<Item = (crate::GateId, &Gate)> {
        self.gates
            .iter()
            .enumerate()
            .map(|(i, g)| (crate::GateId(i as u32), g))
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "circuit({} qubits, {} gates)",
            self.num_qubits,
            self.gates.len()
        )?;
        for g in &self.gates {
            writeln!(f, "  {g}")?;
        }
        Ok(())
    }
}

impl Extend<Gate> for Circuit {
    /// Extends without validation; prefer [`Circuit::push`] for untrusted
    /// input.
    fn extend<T: IntoIterator<Item = Gate>>(&mut self, iter: T) {
        self.gates.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_out_of_range_qubits() {
        let mut c = Circuit::new(2);
        assert_eq!(
            c.h(Qubit(2)),
            Err(CircuitError::QubitOutOfRange {
                qubit: Qubit(2),
                num_qubits: 2
            })
        );
        assert_eq!(
            c.cnot(Qubit(0), Qubit(5)),
            Err(CircuitError::QubitOutOfRange {
                qubit: Qubit(5),
                num_qubits: 2
            })
        );
    }

    #[test]
    fn rejects_duplicate_operands() {
        let mut c = Circuit::new(2);
        assert_eq!(
            c.cnot(Qubit(1), Qubit(1)),
            Err(CircuitError::DuplicateOperand { qubit: Qubit(1) })
        );
    }

    #[test]
    fn stats_count_by_category() {
        let mut c = Circuit::new(3);
        c.h(Qubit(0)).unwrap();
        c.cnot(Qubit(0), Qubit(1)).unwrap();
        c.cp(Qubit(1), Qubit(2), 0.5).unwrap();
        c.measure_all();
        let s = c.stats();
        assert_eq!(s.one_qubit, 1);
        assert_eq!(s.two_qubit, 2);
        assert_eq!(s.measurements, 3);
        assert_eq!(c.two_qubit_count(), 2);
        assert_eq!(c.len(), 6);
        assert!(!c.is_empty());
    }

    #[test]
    fn display_lists_gates() {
        let mut c = Circuit::new(2);
        c.cnot(Qubit(0), Qubit(1)).unwrap();
        let text = c.to_string();
        assert!(text.contains("cx q0, q1"));
    }

    #[test]
    fn iter_yields_program_order_ids() {
        let mut c = Circuit::new(2);
        c.h(Qubit(0)).unwrap();
        c.cnot(Qubit(0), Qubit(1)).unwrap();
        let ids: Vec<u32> = c.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![0, 1]);
    }

    #[test]
    fn validate_catches_unchecked_extend() {
        let mut c = Circuit::new(2);
        c.cnot(Qubit(0), Qubit(1)).unwrap();
        assert_eq!(c.validate(), Ok(()));
        c.extend([Gate::Two {
            kind: TwoQubitKind::Cnot,
            a: Qubit(0),
            b: Qubit(7),
            angle: 0.0,
        }]);
        assert_eq!(
            c.validate(),
            Err(CircuitError::QubitOutOfRange {
                qubit: Qubit(7),
                num_qubits: 2
            })
        );
        let mut dup = Circuit::new(3);
        dup.extend([Gate::Two {
            kind: TwoQubitKind::Cz,
            a: Qubit(2),
            b: Qubit(2),
            angle: 0.0,
        }]);
        assert_eq!(
            dup.validate(),
            Err(CircuitError::DuplicateOperand { qubit: Qubit(2) })
        );
    }

    #[test]
    fn error_messages_are_lowercase() {
        let e = CircuitError::DuplicateOperand { qubit: Qubit(1) };
        let msg = e.to_string();
        assert!(msg.starts_with(char::is_lowercase));
    }
}
