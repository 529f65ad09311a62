//! Device-scale semantic verification of compiled schedules.
//!
//! The MECH compiler never simulates states; its evaluation is purely
//! structural (depth and weighted gate counts, like the paper's). This
//! crate proves a compiled schedule correct. Its backend is a qubit-major
//! Clifford [`Tableau`], driven by the semantic schedule verifier
//! ([`SchedVerifier`]). The tableau stores an X and a Z column of row bits
//! per qubit, so a gate is a word loop over a few contiguous columns, and
//! measurement and [`Tableau::membership`] work column by column. The
//! verifier replays a compiled schedule's recorded event trace — GHZ
//! highway preparation, shuttle open/close, measurement-based corrections
//! and all — then runs the purified ideal circuit in reverse on the same
//! tableau through the final qubit mapping: the schedule is correct iff
//! that leaves `|0…0⟩`, which proves the final state equals the ideal
//! circuit's. Only a failing schedule pays for the per-generator
//! membership scan that names the divergence. It proves the *trace*, not
//! the emitted ops: for GHZ preparation the trace records the
//! naive-cascade state rather than the tree measurements.
//!
//! The dense state-vector simulator the tableau is cross-checked against
//! lives in the `mech-statevec` crate, a dev-dependency only, so nothing
//! here links it.
//!
//! # Example
//!
//! ```
//! use mech_sim::{Membership, PauliString, Tableau};
//!
//! // A 2-qubit Bell pair is stabilized by +XX and +ZZ, not by +ZI.
//! let mut t = Tableau::new(2);
//! t.h(0);
//! t.cnot(0, 1);
//! let mut zz = PauliString::identity(2);
//! zz.set_z(0);
//! zz.set_z(1);
//! assert_eq!(t.membership(&zz), Membership::In);
//! let mut zi = PauliString::identity(2);
//! zi.set_z(0);
//! assert_eq!(t.membership(&zi), Membership::NotIn);
//! ```

mod tableau;
mod verify;

pub use tableau::{MeasureOutcome, Membership, PauliString, Tableau};
pub use verify::{OutcomePolicy, SchedVerifier, VerifyError, VerifyReport};
