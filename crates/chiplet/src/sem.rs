//! Semantic events: what a scheduled physical op *means*.
//!
//! [`PhysOp`](crate::PhysOp) is deliberately coarse — the cost model only
//! distinguishes two-qubit gates by link kind, and one-qubit gates are free
//! placeholders — so the op stream alone cannot be re-executed on a
//! simulator. When semantic recording is enabled on a
//! [`PhysCircuit`](crate::PhysCircuit), the layers that *know* what they are
//! emitting (the GHZ preparation, the shuttle protocol, the router, the
//! compiler's free-gate phase) append [`SemEvent`]s describing the actual
//! unitary/measurement semantics, including the classically-controlled
//! Pauli corrections of the measurement-based protocols.
//!
//! Recording is opt-in and side-channel only: it never changes the emitted
//! ops, clocks, or counts, so schedules stay byte-identical whether or not
//! a trace is captured. The stabilizer verifier in `mech-sim` executes the
//! event stream in emission order (which is a valid causal order: per-qubit
//! clocks are monotone and corrections are recorded after the measurements
//! they depend on).

use std::fmt;

use crate::ids::PhysQubit;

/// A single-qubit Pauli operator, used by classically-controlled
/// corrections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SemPauli {
    /// Pauli-X.
    X,
    /// Pauli-Y.
    Y,
    /// Pauli-Z.
    Z,
}

/// The semantic identity of a one-qubit gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SemGate1 {
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
    /// Identity (a placeholder op with no semantic effect, e.g. the free
    /// basis-change slots the cost model reserves).
    Id,
    /// A non-Clifford gate (T, rotations): the stabilizer verifier rejects
    /// traces containing these.
    NonClifford,
}

/// The semantic identity of a two-qubit gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SemGate2 {
    /// Controlled-X; the event's `a` operand is the control.
    Cnot,
    /// Controlled-Z (symmetric).
    Cz,
    /// SWAP (symmetric).
    Swap,
    /// A non-Clifford interaction (controlled-phase, RZZ): the stabilizer
    /// verifier rejects traces containing these.
    NonClifford,
}

/// What one recorded step of the schedule means.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SemEventKind {
    /// A one-qubit gate on `q`.
    Gate1 {
        /// Operand.
        q: PhysQubit,
        /// Which gate.
        g: SemGate1,
    },
    /// A two-qubit gate; `a` is the control for [`SemGate2::Cnot`].
    Gate2 {
        /// Interaction flavor.
        kind: SemGate2,
        /// First operand (control for CNOT).
        a: PhysQubit,
        /// Second operand.
        b: PhysQubit,
    },
    /// A computational-basis measurement of `q`. The event implicitly
    /// claims the next outcome slot (slots number measurements in event
    /// order); `logical` names the program qubit measured, or `None` for
    /// protocol-internal measurements.
    Measure {
        /// Measured physical qubit.
        q: PhysQubit,
        /// The logical (program) qubit this measurement realizes, if any.
        logical: Option<u32>,
    },
    /// A classically-controlled Pauli on `q`: applied iff the XOR of the
    /// outcomes in `slots` is 1. This is how the measurement-based GHZ
    /// preparation and shuttle open/close corrections are expressed.
    CondPauli {
        /// Corrected qubit.
        q: PhysQubit,
        /// Which Pauli.
        pauli: SemPauli,
        /// Outcome slots whose parity controls the correction.
        slots: Vec<u32>,
    },
}

/// A [`SemEventKind`] tagged with its position in the op stream, for
/// diagnostics (`op` is the index the next emitted op will take at record
/// time, i.e. the op this event describes or immediately precedes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SemEvent {
    /// Index into [`PhysCircuit::ops`](crate::PhysCircuit::ops) at record
    /// time.
    pub op: u32,
    /// What happened.
    pub kind: SemEventKind,
}

impl fmt::Display for SemEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            SemEventKind::Gate1 { q, g } => write!(f, "op{}: {g:?} {q}", self.op),
            SemEventKind::Gate2 { kind, a, b } => {
                write!(f, "op{}: {kind:?} {a}, {b}", self.op)
            }
            SemEventKind::Measure { q, logical } => match logical {
                Some(l) => write!(f, "op{}: measure {q} (logical q{l})", self.op),
                None => write!(f, "op{}: measure {q} (protocol)", self.op),
            },
            SemEventKind::CondPauli { q, pauli, slots } => {
                write!(f, "op{}: if parity{slots:?} {pauli:?} {q}", self.op)
            }
        }
    }
}

/// The recorded event stream of one compilation (see module docs).
#[derive(Debug, Clone, Default)]
pub(crate) struct SemTrace {
    pub(crate) events: Vec<SemEvent>,
    pub(crate) num_measures: u32,
}
