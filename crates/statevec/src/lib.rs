//! A small dense state-vector simulator: the reference oracle for the
//! physics the MECH compiler relies on.
//!
//! The compiler never simulates states; its evaluation is purely
//! structural (depth and weighted gate counts, like the paper's). This
//! crate turns the circuit identities behind it into executable checks,
//! and it is the ground truth the stabilizer verifier in `mech_sim` is
//! cross-checked against. It is a dev-dependency only: no library links
//! it. The state-vector tests in [`protocol`] check that:
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
//!   router and the aggregator hold.
//!
//! The path check does *not* cover the compiler's constant-depth GHZ
//! preparation on a claimed highway tree (`mech_highway::ghz`), which
//! measures every odd-BFS-depth tree node, leaves and branch nodes
//! included. No test here executes that op sequence.
//!
//! # Example
//!
//! ```
//! use mech_statevec::State;
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

pub use complex::C64;
pub use executor::{run_circuit, RunOutcome};
pub use state::State;
