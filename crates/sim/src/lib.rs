//! A small dense state-vector simulator and a device-scale stabilizer
//! verifier.
//!
//! The MECH compiler never simulates states — its evaluation is purely
//! structural (depth and weighted gate counts, like the paper's). This
//! crate exists to *verify the physics the compiler relies on*. The
//! state-vector tests in [`protocol`] turn these circuit identities into
//! executable checks:
//!
//! * measurement-based GHZ preparation on a *path* — members in `|+⟩`, one
//!   explicit `|0⟩` auxiliary between each consecutive pair, auxiliaries
//!   measured and corrected (paper Figs. 5–6) — produces the same state as
//!   the naive CNOT chain;
//! * the multi-entry communication protocol (paper Fig. 3) — entangle the
//!   control into a GHZ state, measure, correct, apply per-target
//!   controlled gates, measure the highway back out — is equivalent to
//!   executing the controlled gates directly;
//! * the bridge-gate and Hadamard-conjugation identities used by the
//!   router and the aggregator.
//!
//! The path check does *not* cover the compiler's constant-depth GHZ
//! preparation on a claimed highway tree (`mech_highway::ghz`), which
//! measures every odd-BFS-depth tree node, leaves and branch nodes
//! included. No test here executes that op sequence.
//!
//! The device-scale backend is a bit-matrix Clifford [`Tableau`] and the
//! semantic schedule verifier ([`SchedVerifier`]). The verifier replays a
//! compiled schedule's recorded event trace — GHZ highway preparation,
//! shuttle open/close, measurement-based corrections and all — and proves
//! the final state equals the ideal circuit's, modulo the final qubit
//! mapping. It proves the *trace*, not the emitted ops: for GHZ
//! preparation the trace records the naive-cascade state rather than the
//! tree measurements above.
//!
//! # Example
//!
//! ```
//! use mech_sim::State;
//!
//! // A 2-qubit Bell pair.
//! let mut s = State::zero(2);
//! s.h(0);
//! s.cnot(0, 1);
//! assert!((s.probability(0b00) - 0.5).abs() < 1e-12);
//! assert!((s.probability(0b11) - 0.5).abs() < 1e-12);
//! ```

mod complex;
mod executor;
pub mod protocol;
mod state;
pub mod tableau;
pub mod verify;

pub use complex::C64;
pub use executor::{run_circuit, RunOutcome};
pub use state::State;
pub use tableau::{MeasureOutcome, Membership, PauliString, Tableau};
pub use verify::{OutcomePolicy, SchedVerifier, VerifyError, VerifyReport};
