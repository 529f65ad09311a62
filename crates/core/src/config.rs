use std::time::{Duration, Instant};

use mech_chiplet::{CancelToken, CostModel};

/// How GHZ states are prepared on claimed highway paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GhzStyle {
    /// The paper's constant-depth scheme (Fig. 5): cluster state, measure
    /// alternate qubits, Pauli-correct, re-entangle entrances.
    #[default]
    MeasurementBased,
    /// The naive CNOT cascade (Fig. 1a): no measurements, but depth grows
    /// with the path length. Kept for the ablation that motivates the
    /// paper's scheme.
    Chain,
}

/// Configuration of the MECH compiler: the per-request knobs.
///
/// Device-shaped parameters (highway density, entrance-candidate limit)
/// live on [`DeviceSpec`](crate::DeviceSpec) instead — they determine the
/// immutable [`DeviceArtifacts`](crate::DeviceArtifacts) a compilation
/// runs against, not how one request is compiled.
///
/// # Example
///
/// ```
/// use mech::CompilerConfig;
/// let config = CompilerConfig {
///     min_components: 4,
///     ..CompilerConfig::default()
/// };
/// assert_eq!(config.min_components, 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompilerConfig {
    /// Hardware latency/fidelity parameters.
    pub cost: CostModel,
    /// Minimum components for a multi-target gate to ride the highway;
    /// smaller clusters execute as regular routed gates.
    pub min_components: usize,
    /// GHZ preparation scheme (measurement-based vs. naive chain).
    pub ghz_style: GhzStyle,
    /// Record a semantic event trace alongside the compiled schedule, for
    /// stabilizer verification (`mech_sim::SchedVerifier`). Recording is a
    /// side channel: the emitted ops, clocks and counts are **byte-identical**
    /// whether or not a trace is captured; the only cost is the trace memory.
    /// Defaults to `false`.
    pub record_sem_trace: bool,
}

/// Why a budget check failed (maps onto
/// [`CompileError`](crate::CompileError) variants in the session).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetExceeded {
    /// The wall-clock deadline passed or the round cap was reached.
    Deadline,
    /// The shared [`CancelToken`] was cancelled.
    Cancelled,
}

/// Bounds on a single compilation: wall-clock deadline, round cap, and a
/// shared cancellation token.
///
/// The default budget is unlimited — checking it never fails, and the
/// compiled schedule is bit-identical to a build without budget checks.
/// `CompileSession::run` consults the budget between rounds, so the
/// latency to observe a deadline or cancellation is one round (sub-second
/// on the evaluated devices).
///
/// # Example
///
/// ```
/// use std::time::Duration;
/// use mech::CompileBudget;
///
/// let budget = CompileBudget::unlimited()
///     .with_timeout(Duration::from_secs(30))
///     .with_max_rounds(10_000);
/// assert!(budget.check(0).is_ok());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CompileBudget {
    /// Absolute wall-clock deadline; `None` = no deadline.
    pub deadline: Option<Instant>,
    /// Maximum scheduling rounds; `None` = unlimited. Rounds are the
    /// deterministic time unit — a round cap gives reproducible budget
    /// errors where wall-clock deadlines cannot.
    pub max_rounds: Option<u64>,
    /// Cooperative cancellation, shared with the caller. Cloning the
    /// budget shares the token.
    pub cancel: CancelToken,
}

impl CompileBudget {
    /// A budget with no limits (the default).
    pub fn unlimited() -> Self {
        CompileBudget::default()
    }

    /// Sets an absolute wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the deadline to `timeout` from now. A timeout too large to
    /// represent as an `Instant` means no deadline.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.deadline = Instant::now().checked_add(timeout);
        self
    }

    /// Caps the number of scheduling rounds.
    pub fn with_max_rounds(mut self, max_rounds: u64) -> Self {
        self.max_rounds = Some(max_rounds);
        self
    }

    /// Attaches a caller-held cancellation token.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Checks the budget after `rounds` completed rounds. Cancellation
    /// wins ties: a cancelled token reports [`BudgetExceeded::Cancelled`]
    /// even when the deadline has also passed.
    pub fn check(&self, rounds: u64) -> Result<(), BudgetExceeded> {
        if self.cancel.is_cancelled() {
            return Err(BudgetExceeded::Cancelled);
        }
        if let Some(max) = self.max_rounds {
            if rounds >= max {
                return Err(BudgetExceeded::Deadline);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(BudgetExceeded::Deadline);
            }
        }
        Ok(())
    }
}

impl Default for CompilerConfig {
    fn default() -> Self {
        CompilerConfig {
            cost: CostModel::default(),
            min_components: 3,
            ghz_style: GhzStyle::default(),
            record_sem_trace: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = CompilerConfig::default();
        assert!(c.min_components >= 2);
        assert_eq!(c.cost, CostModel::default());
    }

    #[test]
    fn unlimited_budget_never_fails() {
        let b = CompileBudget::unlimited();
        assert!(b.check(0).is_ok());
        assert!(b.check(u64::MAX).is_ok());
    }

    #[test]
    fn round_cap_fires_deterministically() {
        let b = CompileBudget::unlimited().with_max_rounds(3);
        assert!(b.check(2).is_ok());
        assert_eq!(b.check(3), Err(BudgetExceeded::Deadline));
    }

    #[test]
    fn expired_deadline_fires() {
        let b = CompileBudget::unlimited().with_deadline(Instant::now());
        assert_eq!(b.check(0), Err(BudgetExceeded::Deadline));
    }

    #[test]
    fn unrepresentable_timeout_means_no_deadline() {
        let b = CompileBudget::unlimited().with_timeout(Duration::MAX);
        assert_eq!(b.deadline, None);
        assert!(b.check(0).is_ok());
    }

    #[test]
    fn cancellation_wins_over_deadline() {
        let b = CompileBudget::unlimited()
            .with_deadline(Instant::now())
            .with_max_rounds(0);
        b.cancel.cancel();
        assert_eq!(b.check(0), Err(BudgetExceeded::Cancelled));
    }
}
