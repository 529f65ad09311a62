use std::fmt;

use mech_circuit::CircuitError;
use mech_router::RoutingError;

/// Errors from compilation, split into failure domains.
///
/// Variants where [`is_client_error`](CompileError::is_client_error)
/// returns `true` mean the *request* was unservable (bad circuit, too
/// large, out of budget) — retrying without changing the request cannot
/// succeed. The rest mean the *compiler* failed the request; a retry or a
/// bug report is appropriate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The program has more logical qubits than the device has data qubits
    /// (total minus highway ancillas).
    TooManyQubits {
        /// Logical qubits requested.
        requested: u32,
        /// Data qubits available.
        available: u32,
    },
    /// The circuit itself is malformed (out-of-range qubit index,
    /// duplicate operand). Caught at the session boundary before any
    /// compilation state is built.
    InvalidCircuit(CircuitError),
    /// The compile budget ran out: the wall-clock deadline passed or the
    /// round cap was reached before the schedule finished.
    DeadlineExceeded {
        /// Rounds completed before the budget expired.
        rounds: u64,
    },
    /// The request's [`CancelToken`](crate::CancelToken) was cancelled.
    Cancelled {
        /// Rounds completed before cancellation was observed.
        rounds: u64,
    },
    /// The progress watchdog fired: the session made zero schedule
    /// progress for too many consecutive rounds and even the
    /// forced-progress fallback could not commit a gate. Outside fault
    /// injection this indicates a compiler bug, surfaced as a structured
    /// error instead of a livelock.
    Stalled {
        /// Rounds completed before the watchdog fired.
        rounds: u64,
    },
    /// No route joins a regular gate's operands, even crossing idle
    /// highway qubits. On a pristine device this is a compiler bug.
    Routing(RoutingError),
    /// The circuit is unroutable on the surviving fabric of a *degraded*
    /// device (non-empty defect map): routing or schedule progress failed
    /// because dead qubits/links disconnected the resources the program
    /// needs. A client error — the same request can only succeed on a
    /// healthier device.
    DeviceDegraded {
        /// Dead qubits in the device's defect map.
        dead_qubits: u32,
        /// Dead links in the device's defect map.
        dead_links: u32,
        /// What failed on the surviving fabric.
        detail: String,
    },
    /// The compiler itself broke: a panic caught at the service boundary,
    /// or an invariant violation downgraded to an error.
    Internal {
        /// Human-readable description (panic payload or invariant).
        detail: String,
    },
    /// Semantic verification rejected the compiled schedule: executing the
    /// schedule on the stabilizer backend produced a state different from
    /// the ideal circuit's. A server-class error — the schedule is wrong,
    /// not the request.
    Miscompiled {
        /// Which check failed (stabilizer generator, op index, …).
        detail: String,
    },
}

impl CompileError {
    /// `true` when the *request* is at fault (malformed, too large, or out
    /// of budget) and retrying the identical request cannot succeed;
    /// `false` for compiler-side failures (`Routing`, `Stalled`,
    /// `Internal`).
    pub fn is_client_error(&self) -> bool {
        match self {
            CompileError::TooManyQubits { .. }
            | CompileError::InvalidCircuit(_)
            | CompileError::DeadlineExceeded { .. }
            | CompileError::Cancelled { .. }
            | CompileError::DeviceDegraded { .. } => true,
            CompileError::Routing(_)
            | CompileError::Stalled { .. }
            | CompileError::Internal { .. }
            | CompileError::Miscompiled { .. } => false,
        }
    }
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::TooManyQubits {
                requested,
                available,
            } => write!(
                f,
                "program needs {requested} data qubits but the layout provides {available}"
            ),
            CompileError::InvalidCircuit(e) => write!(f, "invalid circuit: {e}"),
            CompileError::DeadlineExceeded { rounds } => {
                write!(f, "compile budget exhausted after {rounds} rounds")
            }
            CompileError::Cancelled { rounds } => {
                write!(f, "compilation cancelled after {rounds} rounds")
            }
            CompileError::Stalled { rounds } => write!(
                f,
                "compilation stalled: no schedule progress after {rounds} rounds"
            ),
            CompileError::Routing(e) => write!(f, "routing failed: {e}"),
            CompileError::DeviceDegraded {
                dead_qubits,
                dead_links,
                detail,
            } => write!(
                f,
                "unroutable on degraded device ({dead_qubits} dead qubits, {dead_links} dead links): {detail}"
            ),
            CompileError::Internal { detail } => write!(f, "internal compiler error: {detail}"),
            CompileError::Miscompiled { detail } => {
                write!(f, "semantic verification failed: {detail}")
            }
        }
    }
}

impl std::error::Error for CompileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CompileError::Routing(e) => Some(e),
            CompileError::InvalidCircuit(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RoutingError> for CompileError {
    fn from(e: RoutingError) -> Self {
        CompileError::Routing(e)
    }
}

impl From<CircuitError> for CompileError {
    fn from(e: CircuitError) -> Self {
        CompileError::InvalidCircuit(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mech_chiplet::PhysQubit;
    use mech_circuit::Qubit;

    #[test]
    fn messages_are_lowercase_and_specific() {
        let e = CompileError::TooManyQubits {
            requested: 10,
            available: 5,
        };
        assert!(e.to_string().contains("10"));
        let e = CompileError::Routing(RoutingError::Disconnected {
            from: PhysQubit(0),
            to: PhysQubit(1),
        });
        assert!(e.to_string().starts_with("routing failed"));
        let e = CompileError::Stalled { rounds: 7 };
        assert!(e.to_string().contains('7'));
        let e = CompileError::Internal {
            detail: "worker panicked".into(),
        };
        assert!(e.to_string().contains("worker panicked"));
        let e = CompileError::DeviceDegraded {
            dead_qubits: 4,
            dead_links: 2,
            detail: "no path".into(),
        };
        assert!(e.to_string().contains("degraded"));
        assert!(e.to_string().contains('4') && e.to_string().contains("no path"));
        let e = CompileError::Miscompiled {
            detail: "generator 3 diverged".into(),
        };
        assert!(e.to_string().contains("generator 3 diverged"));
    }

    #[test]
    fn client_error_split_matches_the_taxonomy() {
        assert!(CompileError::TooManyQubits {
            requested: 2,
            available: 1
        }
        .is_client_error());
        assert!(CompileError::InvalidCircuit(CircuitError::QubitOutOfRange {
            qubit: Qubit(9),
            num_qubits: 4
        })
        .is_client_error());
        assert!(CompileError::DeadlineExceeded { rounds: 0 }.is_client_error());
        assert!(CompileError::Cancelled { rounds: 1 }.is_client_error());
        assert!(CompileError::DeviceDegraded {
            dead_qubits: 1,
            dead_links: 0,
            detail: "x".into()
        }
        .is_client_error());
        assert!(!CompileError::Stalled { rounds: 3 }.is_client_error());
        assert!(!CompileError::Internal { detail: "x".into() }.is_client_error());
        assert!(!CompileError::Miscompiled { detail: "x".into() }.is_client_error());
        assert!(!CompileError::Routing(RoutingError::Disconnected {
            from: PhysQubit(0),
            to: PhysQubit(1),
        })
        .is_client_error());
    }

    #[test]
    fn circuit_errors_convert_to_invalid_circuit() {
        let e: CompileError = CircuitError::DuplicateOperand { qubit: Qubit(3) }.into();
        assert_eq!(
            e,
            CompileError::InvalidCircuit(CircuitError::DuplicateOperand { qubit: Qubit(3) })
        );
        assert!(std::error::Error::source(&e).is_some());
    }
}
