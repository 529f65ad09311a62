//! Deterministic fault injection for the compile stack.
//!
//! Storage-controller firmware survives at scale because every failure
//! mode is enumerated, bounded, and *exercised*: faults are injected at
//! named sites and the degradation path is asserted, not hoped for. This
//! module gives the compiler the same discipline. A [`FaultPlan`] names
//! injection sites ([`FaultSite`]) and the hit numbers at which each
//! should fire, either as a structured error ([`FaultMode::Error`] — the
//! site degrades exactly like its natural failure: a congested claim, an
//! unroutable pair, an abandoned group) or as a panic
//! ([`FaultMode::Panic`] — exercising the serve layer's panic isolation).
//!
//! # Cost model
//!
//! Without the `fault-inject` feature, [`trip`] is a `const false` that
//! the optimizer deletes — the hot paths carry **zero** cost and the
//! compiled schedules are byte-identical to a build without this module.
//! With the feature enabled but no plan armed, a trip is one relaxed
//! atomic load. Plans are process-global (the serve worker pool spans
//! threads), so tests that arm plans must serialize on a lock.
//!
//! # Determinism
//!
//! Hit counters advance in program order, and a compilation runs on one
//! thread, so a given `(plan, workload)` pair fires at exactly the same
//! operations run after run. [`FaultPlan::seeded`] derives plans from a
//! seed via SplitMix64 — chaos suites enumerate seeds, and any failure
//! reproduces from its seed alone. With several serve workers compiling
//! concurrently, *which* request hits the Nth trip may vary; the chaos
//! rails (no deadlock, no lost ticket, stats reconcile) hold regardless.

use std::fmt;

/// A named injection point in the compile pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// `HighwayOccupancy::try_claim` — the one-search claim engine.
    /// Error mode fails the claim as `Congested` (the group assembly's
    /// ordinary degradation path).
    ClaimEngine,
    /// `LocalRouter` pathfinding. Error mode reports the pair
    /// `Disconnected` (retryable while a shuttle is open; a structured
    /// compile error otherwise).
    LocalRouter,
    /// GHZ preparation over a claimed corridor. Error mode abandons the
    /// group (claims released, gates stay ready for a later shuttle).
    GhzPrep,
    /// The regular-phase commit of a routed gate (and the forced-progress
    /// fallback). Error mode skips the gate for the round — persistent
    /// injection here is how the stall watchdog is exercised.
    RegularCommit,
    /// The serve layer's per-request device resolution. Error mode
    /// compiles the request against a transiently degraded device — the
    /// spec with one canonical link flipped dead mid-epoch — instead of
    /// the epoch's pristine bundle (the request still succeeds on the
    /// surviving fabric; subsequent requests see the pristine device
    /// again).
    DeviceDefect,
}

impl FaultSite {
    /// Every site, in a fixed order (chaos suites iterate this).
    pub const ALL: [FaultSite; 5] = [
        FaultSite::ClaimEngine,
        FaultSite::LocalRouter,
        FaultSite::GhzPrep,
        FaultSite::RegularCommit,
        FaultSite::DeviceDefect,
    ];

    /// Stable site name used in panic messages and reports.
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::ClaimEngine => "highway.claim",
            FaultSite::LocalRouter => "router.path",
            FaultSite::GhzPrep => "ghz.prep",
            FaultSite::RegularCommit => "regular.commit",
            FaultSite::DeviceDefect => "device.defect",
        }
    }

    #[cfg_attr(not(any(feature = "fault-inject", test)), allow(dead_code))]
    fn index(self) -> usize {
        match self {
            FaultSite::ClaimEngine => 0,
            FaultSite::LocalRouter => 1,
            FaultSite::GhzPrep => 2,
            FaultSite::RegularCommit => 3,
            FaultSite::DeviceDefect => 4,
        }
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What an armed trigger does when its hit comes up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// The site raises its natural structured error.
    Error,
    /// The site panics (exercises `catch_unwind` isolation in the serve
    /// layer).
    Panic,
}

/// One armed trigger: fire `mode` at `site` on hits
/// `from_hit .. from_hit + count` (1-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FaultTrigger {
    /// Where to fire.
    pub site: FaultSite,
    /// First hit (1-based) at which the trigger fires.
    pub from_hit: u64,
    /// Number of consecutive hits that fire (`u64::MAX` = forever).
    pub count: u64,
    /// Error or panic.
    pub mode: FaultMode,
}

impl FaultTrigger {
    #[cfg_attr(not(any(feature = "fault-inject", test)), allow(dead_code))]
    fn covers(&self, hit: u64) -> bool {
        hit >= self.from_hit && hit - self.from_hit < self.count
    }
}

/// A deterministic schedule of faults to inject, armed process-wide with
/// `arm` (present only with the `fault-inject` feature).
///
/// # Example
///
/// ```
/// use mech_chiplet::fault::{FaultMode, FaultPlan, FaultSite};
/// let plan = FaultPlan::new()
///     .fail_nth(FaultSite::ClaimEngine, 3, FaultMode::Error)
///     .fail_nth(FaultSite::GhzPrep, 1, FaultMode::Panic);
/// assert!(!plan.is_empty());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    triggers: Vec<FaultTrigger>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// `true` when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.triggers.is_empty()
    }

    /// Adds a single-shot trigger: fire `mode` at the `nth` (1-based) hit
    /// of `site`.
    pub fn fail_nth(mut self, site: FaultSite, nth: u64, mode: FaultMode) -> Self {
        self.triggers.push(FaultTrigger {
            site,
            from_hit: nth.max(1),
            count: 1,
            mode,
        });
        self
    }

    /// Adds a persistent trigger: fire `mode` at every hit of `site` from
    /// the `from`th (1-based) on. This is how livelocks are crafted — a
    /// commit site that never succeeds must surface as
    /// `CompileError::Stalled`, not spin.
    pub fn fail_from(mut self, site: FaultSite, from: u64, mode: FaultMode) -> Self {
        self.triggers.push(FaultTrigger {
            site,
            from_hit: from.max(1),
            count: u64::MAX,
            mode,
        });
        self
    }

    /// Derives a random single-shot plan from `seed`: up to `max_faults`
    /// triggers over random sites, hit numbers in `1..=32`, and modes.
    /// Pure function of the inputs (SplitMix64), so chaos failures
    /// reproduce from the seed alone.
    pub fn seeded(seed: u64, max_faults: usize) -> Self {
        let mut state = seed;
        let mut next = move || {
            // SplitMix64: the standard 64-bit mixer, good enough to
            // decorrelate consecutive draws from sequential seeds.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut plan = FaultPlan::new();
        let faults = 1 + (next() as usize) % max_faults.max(1);
        for _ in 0..faults {
            let site = FaultSite::ALL[(next() as usize) % FaultSite::ALL.len()];
            let nth = 1 + next() % 32;
            let mode = if next() % 4 == 0 {
                FaultMode::Panic
            } else {
                FaultMode::Error
            };
            plan = plan.fail_nth(site, nth, mode);
        }
        plan
    }
}

/// What an armed plan did: per-site hit totals and every fault it fired.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Total trips per site, indexed as [`FaultSite::ALL`].
    pub hits: [u64; 5],
    /// Every injected fault, in firing order: `(site, hit number, mode)`.
    pub injected: Vec<(FaultSite, u64, FaultMode)>,
}

impl FaultReport {
    /// Total faults fired.
    pub fn fired(&self) -> usize {
        self.injected.len()
    }
}

#[cfg(feature = "fault-inject")]
mod runtime {
    use super::{FaultMode, FaultPlan, FaultReport, FaultSite};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Mutex;

    struct Active {
        plan: FaultPlan,
        report: FaultReport,
    }

    static ARMED: AtomicBool = AtomicBool::new(false);
    static ACTIVE: Mutex<Option<Active>> = Mutex::new(None);

    fn active() -> std::sync::MutexGuard<'static, Option<Active>> {
        // A panic while holding the guard is possible only from the
        // assertions below; recover the data either way.
        match ACTIVE.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Arms `plan` process-wide, replacing any armed plan. Serialize
    /// callers (plans are global so serve worker threads can see them).
    pub fn arm(plan: FaultPlan) {
        let mut g = active();
        *g = Some(Active {
            plan,
            report: FaultReport::default(),
        });
        ARMED.store(true, Ordering::SeqCst);
    }

    /// Disarms injection and returns what the plan did. Idempotent: a
    /// second call returns an empty report.
    pub fn disarm() -> FaultReport {
        let mut g = active();
        ARMED.store(false, Ordering::SeqCst);
        g.take().map(|a| a.report).unwrap_or_default()
    }

    pub(super) fn check(site: FaultSite) -> Option<FaultMode> {
        if !ARMED.load(Ordering::Relaxed) {
            return None;
        }
        let mut g = active();
        let a = g.as_mut()?;
        let hit = &mut a.report.hits[site.index()];
        *hit += 1;
        let n = *hit;
        let mode = a
            .plan
            .triggers
            .iter()
            .find(|t| t.site == site && t.covers(n))
            .map(|t| t.mode)?;
        a.report.injected.push((site, n, mode));
        Some(mode)
    }
}

#[cfg(feature = "fault-inject")]
pub use runtime::{arm, disarm};

/// Trips the injection site: returns `true` when the armed plan injects
/// an error here (the caller raises its natural structured error), and
/// **panics** when the plan injects a panic. Without the `fault-inject`
/// feature this is a constant `false` the optimizer removes.
#[inline]
pub fn trip(site: FaultSite) -> bool {
    #[cfg(feature = "fault-inject")]
    {
        match runtime::check(site) {
            None => false,
            Some(FaultMode::Error) => true,
            Some(FaultMode::Panic) => panic!("injected panic at fault site {site}"),
        }
    }
    #[cfg(not(feature = "fault-inject"))]
    {
        let _ = site;
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_deterministic_and_nonempty() {
        for seed in 0..32 {
            let a = FaultPlan::seeded(seed, 6);
            let b = FaultPlan::seeded(seed, 6);
            assert_eq!(a, b);
            assert!(!a.is_empty());
            assert!(a.triggers.len() <= 6);
            for t in &a.triggers {
                assert!(t.from_hit >= 1 && t.from_hit <= 32);
                assert_eq!(t.count, 1);
            }
        }
        assert_ne!(FaultPlan::seeded(1, 6), FaultPlan::seeded(2, 6));
    }

    #[test]
    fn trigger_windows_cover_the_right_hits() {
        let nth = FaultTrigger {
            site: FaultSite::ClaimEngine,
            from_hit: 3,
            count: 1,
            mode: FaultMode::Error,
        };
        assert!(!nth.covers(2));
        assert!(nth.covers(3));
        assert!(!nth.covers(4));
        let from = FaultTrigger {
            site: FaultSite::ClaimEngine,
            from_hit: 5,
            count: u64::MAX,
            mode: FaultMode::Error,
        };
        assert!(!from.covers(4));
        assert!(from.covers(5));
        assert!(from.covers(u64::MAX));
        let plan = FaultPlan::new()
            .fail_nth(FaultSite::ClaimEngine, 3, FaultMode::Error)
            .fail_from(FaultSite::ClaimEngine, 5, FaultMode::Error);
        assert_eq!(plan.triggers, [nth, from]);
    }

    #[test]
    fn site_names_are_stable() {
        let names: Vec<&str> = FaultSite::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            [
                "highway.claim",
                "router.path",
                "ghz.prep",
                "regular.commit",
                "device.defect"
            ]
        );
        for (i, s) in FaultSite::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn armed_plan_fires_at_the_nth_hit_only() {
        // Serialized with any other armed-plan test by the global lock
        // inside arm/disarm; this crate has only this one.
        arm(FaultPlan::new().fail_nth(FaultSite::LocalRouter, 2, FaultMode::Error));
        assert!(!trip(FaultSite::LocalRouter));
        assert!(!trip(FaultSite::ClaimEngine), "other sites untouched");
        assert!(trip(FaultSite::LocalRouter));
        assert!(!trip(FaultSite::LocalRouter));
        let report = disarm();
        assert_eq!(report.hits[FaultSite::LocalRouter.index()], 3);
        assert_eq!(
            report.injected,
            vec![(FaultSite::LocalRouter, 2, FaultMode::Error)]
        );
        // Disarmed: nothing trips, nothing is counted.
        assert!(!trip(FaultSite::LocalRouter));
        assert_eq!(disarm(), FaultReport::default());
    }
}
