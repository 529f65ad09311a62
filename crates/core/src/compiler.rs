//! The MECH compilation pipeline.
//!
//! The pipeline is split into two layers (DESIGN.md §11):
//!
//! * [`DeviceArtifacts`](crate::DeviceArtifacts) — everything derived from
//!   the device alone (CSR topology, highway layout, entrance table, CSR
//!   claim skeleton), immutable and `Arc`-shared across any
//!   number of concurrent compilations;
//! * [`CompileSession`] — the cheap per-request state (mapping, scratch
//!   pools, occupancy, fronts), created per [`MechCompiler::compile`] call
//!   with **no device-derived rebuilds**.
//!
//! A session walks the program's commutation DAG front-to-back. Each
//! *round* runs three explicitly separated phases:
//!
//! 1. [free phase] all ready one-qubit gates and measurements (free/cheap);
//! 2. [highway phase] ready controlled gates are carved into multi-target
//!    gates by the incrementally maintained
//!    [`AggregationFront`](mech_circuit::AggregationFront), and the large
//!    ones execute over the highway: entrance selection by earliest
//!    execution time, highway path claiming with reuse, constant-depth GHZ
//!    preparation, hub attachment and streamed components (temporal +
//!    spatial sharing, paper §6);
//! 3. [regular phase] the remaining ("regular") two-qubit gates execute
//!    in gate order with SWAP routing through the data region.
//!
//! A session is single-threaded; concurrency lives one level up, in many
//! sessions sharing one device bundle (see `DESIGN.md` §8).
//!
//! When a round makes no further progress the open shuttle closes: the
//! highway is measured out, corrections feed forward to the hubs, and the
//! components executed during the shuttle retire in the DAG (their
//! logical effect is final only after the closing corrections).

use std::collections::HashSet;
use std::sync::Arc;

use mech_chiplet::fault::{self, FaultSite};
use mech_chiplet::{PhysCircuit, PhysQubit, QubitSet, SemGate1, SemGate2, StampSet};
use mech_circuit::{
    CarvedGroup, Circuit, CommutationDag, DagSchedule, Gate, GateId, GroupKind, MultiTargetGate,
    OneQubitGate, Qubit, TwoQubitKind,
};
use mech_highway::{
    prepare_ghz_chain, prepare_ghz_with, ActiveGroup, EntranceOption, GhzScratch, ShuttleState,
    ShuttleStats,
};
use mech_router::{LocalRouter, Mapping};

use crate::config::{BudgetExceeded, CompileBudget, CompilerConfig};
use crate::device::DeviceArtifacts;
use crate::error::CompileError;
use crate::metrics::Metrics;

/// The result of a MECH compilation.
#[derive(Debug, Clone)]
pub struct CompileResult {
    /// The scheduled physical circuit.
    pub circuit: PhysCircuit,
    /// Shuttle counters (GHZ rounds, highway gates, components).
    pub shuttle_stats: ShuttleStats,
    /// Per-shuttle timeline (close times, sharing degree, claimed qubits).
    pub shuttle_trace: Vec<mech_highway::ShuttleRecord>,
    /// Two-qubit gates executed off-highway.
    pub regular_gates: u64,
    /// Full highway-claim searches run by the one-search claim engine
    /// (diagnostic: one search serves every candidate entrance of a group,
    /// and the group's own corridor growth is repaired in place, so a tried
    /// group costs one search unless another group's claim or a release
    /// intervenes).
    pub claim_searches: u64,
    /// Highway-claim attempts resolved without a search: settled results
    /// reused across candidates, trivial hub self-claims, and
    /// endpoint-unavailable rejections (diagnostic: together with
    /// `claim_searches` this accounts for every claim attempt exactly
    /// once).
    pub claim_skips: u64,
    /// Fraction of physical qubits used as highway ancillas.
    pub highway_percentage: f64,
    /// Where each logical qubit ended up: `final_positions[q]` is the
    /// physical position of logical qubit `q` after the last SWAP. The
    /// semantic verifier lifts the ideal circuit's stabilizers through this
    /// map.
    pub final_positions: Vec<PhysQubit>,
}

impl CompileResult {
    /// The evaluation metrics of the compiled circuit.
    pub fn metrics(&self) -> Metrics {
        Metrics::from_circuit(&self.circuit)
    }
}

/// The MECH compiler: maps logical circuits onto a chiplet array with a
/// communication highway.
///
/// A compiler is a handle over `Arc`-shared [`DeviceArtifacts`] plus a
/// [`CompilerConfig`]; it is `Send + Sync` and cheap to clone, and every
/// [`MechCompiler::compile`] call runs an independent [`CompileSession`],
/// so one compiler (or many, sharing one artifact bundle) can serve
/// concurrent requests.
///
/// # Example
///
/// ```
/// use mech::{CompilerConfig, DeviceSpec, MechCompiler};
/// use mech_circuit::benchmarks::bernstein_vazirani;
///
/// # fn main() -> Result<(), mech::CompileError> {
/// // A 2×2 array of 6×6 square chiplets, built once and shared via `Arc`.
/// let device = DeviceSpec::square(6, 2, 2).build_artifacts();
/// let compiler = MechCompiler::new(device.clone(), CompilerConfig::default());
/// let program = bernstein_vazirani(device.num_data_qubits().min(40), 7);
/// let result = compiler.compile(&program)?;
/// assert!(result.shuttle_stats.shuttles >= 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MechCompiler {
    device: Arc<DeviceArtifacts>,
    config: CompilerConfig,
}

impl MechCompiler {
    /// Creates a compiler over a shared device-artifact bundle.
    pub fn new(device: Arc<DeviceArtifacts>, config: CompilerConfig) -> Self {
        MechCompiler { device, config }
    }

    /// Compiles `circuit`, returning the scheduled physical circuit and
    /// highway statistics. Each call builds the circuit's commutation DAG
    /// and runs one [`CompileSession`]; nothing device-derived is rebuilt.
    ///
    /// # Errors
    ///
    /// [`CompileError::InvalidCircuit`] if the circuit is malformed;
    /// [`CompileError::TooManyQubits`] if the program is wider than the
    /// data region; [`CompileError::Routing`] if no route joins a
    /// regular gate's operands, even crossing idle highway qubits.
    pub fn compile(&self, circuit: &Circuit) -> Result<CompileResult, CompileError> {
        self.compile_with_budget(circuit, CompileBudget::unlimited())
    }

    /// Like [`MechCompiler::compile`], but bounded by `budget`: the session
    /// checks the wall-clock deadline, round cap and cancellation token
    /// between rounds, and the routing kernels poll the token inside long
    /// searches.
    ///
    /// # Errors
    ///
    /// Everything [`MechCompiler::compile`] returns, plus
    /// [`CompileError::DeadlineExceeded`] and [`CompileError::Cancelled`]
    /// when the budget runs out.
    pub fn compile_with_budget(
        &self,
        circuit: &Circuit,
        budget: CompileBudget,
    ) -> Result<CompileResult, CompileError> {
        // Validate before the DAG build: the DAG indexes by operand and
        // would panic on a malformed hand-built circuit.
        circuit.validate()?;
        let dag = CommutationDag::new(circuit);
        let mut session = CompileSession::new(&self.device, self.config, circuit, &dag)?;
        session.set_budget(budget);
        session.run()
    }
}

/// One compilation request: every piece of mutable state the pipeline
/// touches, borrowing the immutable device tier.
///
/// Sessions are created per [`MechCompiler::compile`] call and consumed by
/// [`CompileSession::run`]. Construction is cheap — scratch buffers,
/// mapping and occupancy are sized from the device, but nothing
/// device-derived (entrance tables, CSR graphs) is rebuilt —
/// so any number of sessions can run concurrently against one
/// [`DeviceArtifacts`] bundle and produce schedules bit-identical to
/// serial runs.
///
/// The commutation DAG is passed in explicitly: it is per-*circuit* (not
/// per-request) state, so a front end compiling one program repeatedly
/// may build it once and fan sessions out from it.
pub struct CompileSession<'a> {
    device: &'a DeviceArtifacts,
    config: CompilerConfig,
    circuit: &'a Circuit,
    pc: PhysCircuit,
    mapping: Mapping,
    sched: DagSchedule<'a>,
    shuttle: ShuttleState,
    router: LocalRouter<'a>,
    /// Components executed in the open shuttle, retired at close.
    pending_close: Vec<GateId>,
    /// `pending[id] = true` iff the gate is in `pending_close` (flat mask:
    /// the hot path sets one bool per executed component instead of
    /// hashing).
    pending: Vec<bool>,
    regular_gates: u64,
    /// Highway-phase output: the carved groups, largest first.
    groups: Vec<CarvedGroup>,
    /// Highway-phase scratch: the group being tried, built from its
    /// carved header.
    group: MultiTargetGate,
    /// Highway-phase output: the round's regular two-qubit gates.
    regular: Vec<GateId>,
    /// The aggregation-front revision `groups` and `regular` were carved
    /// at.
    carved_at: Option<u64>,
    /// Group-assembly scratch: components ordered by highway distance.
    comps: Vec<(GateId, Qubit, u32)>,
    /// Group-assembly scratch: components with a claimed entrance.
    chosen: Vec<(GateId, Qubit, EntranceOption)>,
    /// Group-assembly scratch: candidate entrances for one component.
    ranked: Vec<EntranceOption>,
    /// Group-assembly scratch: entrances consumed by the current group
    /// (stamped mask, cleared in O(1) per group).
    entrance_set: StampSet,
    /// GHZ-preparation workspace, reused across groups.
    ghz_scratch: GhzScratch,
    /// Deadline, round cap and cancellation (default: unlimited).
    budget: CompileBudget,
    /// Completed scheduling rounds (the budget's deterministic time unit).
    rounds: u64,
    /// Consecutive rounds with zero schedule progress (watchdog state).
    stall_rounds: u32,
}

/// The semantic identity of a program one-qubit gate.
fn sem_of_one(g: OneQubitGate) -> SemGate1 {
    match g {
        OneQubitGate::H => SemGate1::H,
        OneQubitGate::X => SemGate1::X,
        OneQubitGate::Y => SemGate1::Y,
        OneQubitGate::Z => SemGate1::Z,
        OneQubitGate::S => SemGate1::S,
        OneQubitGate::Sdg => SemGate1::Sdg,
        OneQubitGate::T
        | OneQubitGate::Tdg
        | OneQubitGate::Rx(_)
        | OneQubitGate::Ry(_)
        | OneQubitGate::Rz(_) => SemGate1::NonClifford,
    }
}

/// The semantic identity of a program two-qubit gate.
fn sem_of_two(kind: TwoQubitKind) -> SemGate2 {
    match kind {
        TwoQubitKind::Cnot => SemGate2::Cnot,
        TwoQubitKind::Cz => SemGate2::Cz,
        TwoQubitKind::Swap => SemGate2::Swap,
        TwoQubitKind::Cphase | TwoQubitKind::Rzz => SemGate2::NonClifford,
    }
}

/// Consecutive zero-progress rounds before the watchdog surfaces
/// [`CompileError::Stalled`]. On valid input the forced-progress fallback
/// commits a gate every round the shuttle is closed, so a healthy session
/// never accumulates more than one; the margin only delays the inevitable
/// on a genuinely wedged session by a few cheap no-op rounds.
pub const STALL_ROUND_LIMIT: u32 = 16;

impl<'a> CompileSession<'a> {
    /// Creates the per-request state for compiling `circuit` against
    /// `device`: trivial mapping, empty shuttle (occupancy pre-seeded from
    /// the device's shared claim skeleton) and scratch pools.
    ///
    /// # Errors
    ///
    /// [`CompileError::InvalidCircuit`] if the circuit is malformed
    /// (out-of-range or duplicate operands) or `dag` was not built from
    /// it; [`CompileError::TooManyQubits`]
    /// if the program is wider than the device's data region.
    pub fn new(
        device: &'a DeviceArtifacts,
        config: CompilerConfig,
        circuit: &'a Circuit,
        dag: &'a CommutationDag,
    ) -> Result<Self, CompileError> {
        circuit.validate()?;
        dag.check_built_from(circuit)?;
        let topo = device.topology();
        let layout = device.layout();
        let data = layout.data_qubits();
        if circuit.num_qubits() as usize > data.len() {
            return Err(CompileError::TooManyQubits {
                requested: circuit.num_qubits(),
                available: data.len() as u32,
            });
        }

        let mapping = Mapping::trivial(circuit.num_qubits(), &data);
        let mut sched = dag.schedule();
        sched.attach_aggregation(circuit);
        let mut pc = PhysCircuit::new(topo.num_qubits(), config.cost);
        if config.record_sem_trace {
            pc.enable_sem_recording();
        }
        Ok(CompileSession {
            device,
            config,
            circuit,
            pc,
            mapping,
            sched,
            shuttle: ShuttleState::new(Arc::clone(device.skeleton())),
            router: LocalRouter::new(topo, layout),
            pending_close: Vec::new(),
            pending: vec![false; circuit.len()],
            regular_gates: 0,
            groups: Vec::new(),
            group: MultiTargetGate::default(),
            regular: Vec::new(),
            carved_at: None,
            comps: Vec::new(),
            chosen: Vec::new(),
            ranked: Vec::new(),
            entrance_set: StampSet::default(),
            ghz_scratch: GhzScratch::default(),
            budget: CompileBudget::unlimited(),
            rounds: 0,
            stall_rounds: 0,
        })
    }

    /// Installs a compile budget. The cancellation token is shared down to
    /// the routing kernels (router, claim engine) so a cancel aborts even
    /// mid-search; the deadline and round cap are checked between rounds.
    pub fn set_budget(&mut self, budget: CompileBudget) {
        self.router.set_cancel(budget.cancel.clone());
        self.shuttle.occupancy.set_cancel(budget.cancel.clone());
        self.budget = budget;
    }

    /// Maps a between-rounds budget violation onto the error taxonomy.
    fn check_budget(&self) -> Result<(), CompileError> {
        match self.budget.check(self.rounds) {
            Ok(()) => Ok(()),
            Err(BudgetExceeded::Cancelled) => Err(CompileError::Cancelled {
                rounds: self.rounds,
            }),
            Err(BudgetExceeded::Deadline) => Err(CompileError::DeadlineExceeded {
                rounds: self.rounds,
            }),
        }
    }

    /// Rewrites an in-round failure as `Cancelled` when the token is set:
    /// a cancelled routing kernel aborts its search as "unreachable", and
    /// the caller should see the cancellation, not the artifact.
    fn fail(&self, e: CompileError) -> CompileError {
        if self.budget.cancel.is_cancelled() {
            CompileError::Cancelled {
                rounds: self.rounds,
            }
        } else {
            e
        }
    }

    /// Runs the session to completion, consuming it.
    ///
    /// # Errors
    ///
    /// [`CompileError::Routing`] if no route joins a regular gate's
    /// operands, even crossing idle highway qubits;
    /// [`CompileError::DeadlineExceeded`] /
    /// [`CompileError::Cancelled`] when the budget installed by
    /// [`CompileSession::set_budget`] runs out (checked between rounds, so
    /// the observation latency is one round); [`CompileError::Stalled`]
    /// when the progress watchdog sees [`STALL_ROUND_LIMIT`] consecutive
    /// rounds of zero schedule progress — a structured error in place of a
    /// livelock. On a *degraded* device (non-empty
    /// [`DefectMap`](mech_chiplet::DefectMap)), routing failures and
    /// stalls become [`CompileError::DeviceDegraded`]: on surviving fabric
    /// they mean "unroutable here", a property of the request/device pair,
    /// not a compiler bug.
    pub fn run(self) -> Result<CompileResult, CompileError> {
        let defects = self.device.spec().defects();
        let (dead_qubits, dead_links) = (
            defects.num_dead_qubits() as u32,
            defects.num_dead_links() as u32,
        );
        match self.run_inner() {
            Err(e @ (CompileError::Routing(_) | CompileError::Stalled { .. }))
                if dead_qubits + dead_links > 0 =>
            {
                Err(CompileError::DeviceDegraded {
                    dead_qubits,
                    dead_links,
                    detail: e.to_string(),
                })
            }
            other => other,
        }
    }

    /// The session loop behind [`CompileSession::run`], with the raw error
    /// taxonomy (before degraded-device reclassification).
    fn run_inner(mut self) -> Result<CompileResult, CompileError> {
        let device = self.device;
        while !self.sched.is_finished() {
            self.check_budget()?;
            let mut productive = match self.round_pass() {
                Ok(p) => p,
                Err(e) => return Err(self.fail(e)),
            };
            if !productive {
                if self.shuttle.is_open() {
                    // Closing retires the in-flight components, which
                    // unblocks their DAG successors next round.
                    self.shuttle.close(&mut self.pc);
                    for id in self.pending_close.drain(..) {
                        self.pending[id.index()] = false;
                        self.sched.complete(id);
                    }
                    productive = true;
                } else {
                    productive = match self.force_one_gate() {
                        Ok(p) => p,
                        Err(e) => return Err(self.fail(e)),
                    };
                }
            }
            self.rounds += 1;
            if productive {
                self.stall_rounds = 0;
            } else {
                self.stall_rounds += 1;
                if self.stall_rounds >= STALL_ROUND_LIMIT {
                    return Err(CompileError::Stalled {
                        rounds: self.rounds,
                    });
                }
            }
        }

        let final_positions = (0..self.circuit.num_qubits())
            .map(|q| self.mapping.phys(Qubit(q)))
            .collect();
        Ok(CompileResult {
            circuit: self.pc,
            shuttle_stats: self.shuttle.stats(),
            shuttle_trace: self.shuttle.trace().to_vec(),
            regular_gates: self.regular_gates,
            claim_searches: self.shuttle.occupancy.claim_searches(),
            claim_skips: self.shuttle.occupancy.claim_skips(),
            highway_percentage: device.layout().percentage(),
            final_positions,
        })
    }

    /// Executes everything executable right now; returns whether any gate
    /// was completed or any highway component executed.
    fn round_pass(&mut self) -> Result<bool, CompileError> {
        let mut progressed = self.phase_free_gates();
        progressed |= self.phase_highway();
        progressed |= self.phase_regular()?;
        Ok(progressed)
    }

    /// Free phase: one-qubit gates and measurements, drained straight off
    /// the partitioned front. Gates pending a shuttle close are all
    /// two-qubit, so no filtering is needed here.
    fn phase_free_gates(&mut self) -> bool {
        let mut progressed = false;
        while let Some(id) = self.sched.pop_ready_one_qubit() {
            match self.circuit.gates()[id.index()] {
                Gate::One { gate, q } => {
                    let p = self.mapping.phys(q);
                    self.pc.record_gate1(p, sem_of_one(gate));
                    self.pc.one_qubit(p);
                }
                Gate::Measure { q } => {
                    let p = self.mapping.phys(q);
                    self.pc.record_measure(p, Some(q.0));
                    self.pc.measure(p);
                }
                Gate::Two { .. } => unreachable!("two-qubit gates stay on the two-qubit front"),
            }
            progressed = true;
        }
        progressed
    }

    /// Highway phase: carve the incrementally maintained aggregation front
    /// into multi-target gates and execute the large ones over the highway.
    /// Leaves the round's regular gates in `self.regular`.
    fn phase_highway(&mut self) -> bool {
        let mut progressed = false;
        let front = self
            .sched
            .aggregation_front_mut()
            .expect("session attaches an aggregation front");
        // An unchanged front (say, after a round that executed nothing,
        // before a shuttle close) would carve the same output again.
        if self.carved_at != Some(front.revision()) {
            front.carve(
                self.config.min_components,
                &mut self.groups,
                &mut self.regular,
            );
            self.carved_at = Some(front.revision());
        }
        // Stop attempting groups after a few consecutive congestion
        // failures: with the largest groups first, further ones would
        // mostly fail too, and they retry next shuttle anyway. Each group
        // is built just before its try, from the front it was carved from:
        // nothing in the loop reads the front, so executed components leave
        // it only after the loop.
        let groups = std::mem::take(&mut self.groups);
        let mut group = std::mem::take(&mut self.group);
        let executed_from = self.pending_close.len();
        let mut consecutive_failures = 0u32;
        for carved in &groups {
            if consecutive_failures >= 3 {
                break;
            }
            self.sched
                .aggregation_front_mut()
                .expect("session attaches an aggregation front")
                .build(carved, &mut group);
            let executed = self.try_group(&group);
            if executed.is_empty() {
                consecutive_failures += 1;
            } else {
                consecutive_failures = 0;
                progressed = true;
                for id in executed {
                    self.pending[id.index()] = true;
                    self.pending_close.push(id);
                }
            }
        }
        // In flight on the highway: out of the aggregation front until the
        // close retires them.
        for &id in &self.pending_close[executed_from..] {
            self.sched.suspend_from_aggregation(id);
        }
        self.groups = groups;
        self.group = group;
        progressed
    }

    /// Regular phase: the round's off-highway two-qubit gates, routed and
    /// committed in gate order. The pinned set — hubs of open groups and
    /// highway qubits holding live GHZ states — is a zero-cost view over
    /// incrementally maintained shuttle state, constant for the whole
    /// phase.
    fn phase_regular(&mut self) -> Result<bool, CompileError> {
        let mut progressed = false;
        let pinned = self.shuttle.pinned_view();
        for &id in &self.regular {
            let Gate::Two { kind, a, b, .. } = self.circuit.gates()[id.index()] else {
                continue;
            };
            // Never displace a pinned hub; its gates wait for the close.
            if pinned.contains_qubit(self.mapping.phys(a))
                || pinned.contains_qubit(self.mapping.phys(b))
            {
                continue;
            }
            if fault::trip(FaultSite::RegularCommit) {
                continue; // injected commit failure: the gate stays ready
            }
            match self.router.execute_two_qubit(
                &mut self.pc,
                &mut self.mapping,
                a,
                b,
                &pinned,
                sem_of_two(kind),
            ) {
                Ok(()) => {
                    self.sched.complete(id);
                    self.regular_gates += 1;
                    progressed = true;
                }
                Err(_) if self.shuttle.is_open() => {
                    // Blocked by live highway claims; retry after close.
                }
                Err(e) => return Err(e.into()),
            }
        }
        Ok(progressed)
    }

    /// Guaranteed-progress fallback: executes the first ready two-qubit
    /// gate as a regular gate with the shuttle closed. Returns whether a
    /// gate was committed (`false` only under injected commit faults); an
    /// unfinished schedule with no ready gate is a scheduler invariant
    /// violation, surfaced as [`CompileError::Stalled`] instead of a
    /// panic.
    fn force_one_gate(&mut self) -> Result<bool, CompileError> {
        debug_assert!(!self.shuttle.is_open());
        debug_assert!(
            self.sched.ready_one_qubit().next().is_none(),
            "phase A drains the one-qubit front"
        );
        let Some(id) = self
            .sched
            .ready_two_qubit()
            .find(|id| !self.pending[id.index()])
        else {
            return Err(CompileError::Stalled {
                rounds: self.rounds,
            });
        };
        if fault::trip(FaultSite::RegularCommit) {
            return Ok(false); // injected commit failure: the gate stays ready
        }
        let Gate::Two { kind, a, b, .. } = self.circuit.gates()[id.index()] else {
            unreachable!("the two-qubit front only holds two-qubit gates");
        };
        self.router.execute_two_qubit(
            &mut self.pc,
            &mut self.mapping,
            a,
            b,
            &HashSet::new(),
            sem_of_two(kind),
        )?;
        self.sched.complete(id);
        self.regular_gates += 1;
        Ok(true)
    }

    /// Attempts to execute a multi-target gate on the highway. Returns the
    /// component gate ids that were executed (empty = the group could not
    /// assemble and was abandoned; its gates stay ready).
    fn try_group(&mut self, group: &MultiTargetGate) -> Vec<GateId> {
        let device = self.device;
        let gid = self.shuttle.next_group_id();

        // Hub entrance: earliest execution time among claimable candidates,
        // borrowed straight from the device's precomputed entrance table.
        let hub_pos = self.mapping.phys(group.hub);
        let pinned = self.shuttle.pinned_view();
        let hub_choice = device
            .entrances()
            .at(hub_pos)
            .iter()
            .filter(|o| self.shuttle.occupancy.available_for(o.entrance, gid))
            .filter(|o| !pinned.contains_qubit(o.access) && !pinned.contains_qubit(o.entrance))
            .min_by_key(|o| {
                let t_arr = self.pc.time(hub_pos) + u64::from(3 * o.distance);
                // Any chosen entrance is floored to the shuttle horizon
                // before GHZ prep, so rank by the effective availability,
                // not the stale pre-horizon clock.
                let t_ava = self.pc.time(o.entrance).max(self.shuttle.horizon());
                (t_arr.max(t_ava), o.distance)
            })
            .copied();
        let Some(hub_choice) = hub_choice else {
            return Vec::new();
        };
        if self
            .shuttle
            .occupancy
            .try_claim(hub_choice.entrance, hub_choice.entrance, gid)
            .is_err()
        {
            return Vec::new();
        }

        // Component entrances, assigned in ascending order of distance to
        // the highway (paper §6.1), each claiming a highway route from the
        // hub entrance with maximal reuse. The occupancy's one-search claim
        // engine settles a single Dijkstra from the hub entrance and serves
        // every candidate below from it: candidates the settled costs
        // leave unreached are rejected in O(1), winning paths reconstruct
        // from the same search, and a claim that grows the group's own
        // corridor repairs the search in place — so the group costs one
        // search unless another group's claim or a release intervenes.
        self.comps.clear();
        for c in &group.components {
            let pos = self.mapping.phys(c.other);
            let d = device
                .entrances()
                .at(pos)
                .first()
                .map_or(u32::MAX, |o| o.distance);
            self.comps.push((c.gate, c.other, d));
        }
        self.comps.sort_by_key(|&(_, _, d)| d);

        self.chosen.clear();
        self.entrance_set
            .begin(device.topology().num_qubits() as usize);
        self.entrance_set.insert(hub_choice.entrance);
        for i in 0..self.comps.len() {
            let (gate, other, _) = self.comps[i];
            let pos = self.mapping.phys(other);
            let pinned = self.shuttle.pinned_view();
            self.ranked.clear();
            self.ranked.extend(
                device
                    .entrances()
                    .at(pos)
                    .iter()
                    // The hub's entrance is consumed by the attach
                    // measurement; components must enter elsewhere.
                    .filter(|o| o.entrance != hub_choice.entrance)
                    .filter(|o| !pinned.contains_qubit(o.access)),
            );
            self.ranked.sort_by_key(|o| {
                let t_arr = self.pc.time(pos) + u64::from(3 * o.distance);
                // Same horizon flooring as the hub ranking above.
                let t_ava = self.pc.time(o.entrance).max(self.shuttle.horizon());
                (t_arr.max(t_ava), o.distance)
            });
            for j in 0..self.ranked.len() {
                let o = self.ranked[j];
                if self
                    .shuttle
                    .occupancy
                    .try_claim(hub_choice.entrance, o.entrance, gid)
                    .is_ok()
                {
                    self.entrance_set.insert(o.entrance);
                    self.chosen.push((gate, other, o));
                    break;
                }
            }
        }

        if self.chosen.is_empty() {
            self.shuttle.occupancy.release(gid);
            return Vec::new();
        }
        if fault::trip(FaultSite::GhzPrep) {
            // Injected preparation failure: abandon the group before any
            // physical op is emitted — claims release, gates stay ready.
            self.shuttle.occupancy.release(gid);
            return Vec::new();
        }

        // Route the hub to its access position before entangling. The
        // group's own fresh claims are *not* pinned yet: they hold no GHZ
        // state, so the hub may pass through them.
        let pinned = self.shuttle.pinned_view_excluding(gid);
        if self
            .router
            .route_to(
                &mut self.pc,
                &mut self.mapping,
                group.hub,
                hub_choice.access,
                &pinned,
            )
            .is_err()
        {
            self.shuttle.occupancy.release(gid);
            return Vec::new();
        }
        // GHZ preparation over the claimed tree, borrowing the claim lists
        // in place. A shuttle is a global highway time window (paper §6.2):
        // nothing belonging to this shuttle may start before the previous
        // shuttle closed, even on highway qubits the previous shuttles
        // never touched.
        let horizon = self.shuttle.horizon();
        let nodes = self.shuttle.occupancy.nodes_of(gid);
        let edges = self.shuttle.occupancy.edges_of(gid);
        for &q in nodes {
            self.pc.advance(q, horizon);
        }
        let live = match self.config.ghz_style {
            crate::GhzStyle::MeasurementBased => prepare_ghz_with(
                &mut self.pc,
                device.topology(),
                device.layout(),
                nodes,
                edges,
                &self.entrance_set,
                &mut self.ghz_scratch,
            ),
            crate::GhzStyle::Chain => prepare_ghz_chain(
                &mut self.pc,
                device.topology(),
                device.layout(),
                nodes,
                edges,
                &mut self.ghz_scratch,
            ),
        };

        let conjugated = group.kind == GroupKind::Conjugated;
        self.shuttle.register_group(
            ActiveGroup {
                id: gid,
                hub_data: hub_choice.access,
                conjugated,
            },
            live,
        );
        if conjugated {
            self.pc.record_gate1(hub_choice.access, SemGate1::H);
            self.pc.one_qubit(hub_choice.access); // opening H on the hub
        }
        self.shuttle.attach_hub(
            &mut self.pc,
            device.topology(),
            gid,
            hub_choice.access,
            hub_choice.entrance,
        );

        // Stream the components; hubs of other groups stay pinned.
        let mut executed = Vec::new();
        for i in 0..self.chosen.len() {
            let (gate, other, opt) = self.chosen[i];
            let pinned = self.shuttle.pinned_view();
            if self
                .router
                .route_to(&mut self.pc, &mut self.mapping, other, opt.access, &pinned)
                .is_err()
            {
                continue; // stays ready; retried in a later shuttle
            }
            // The component's effective semantics on (entrance, access):
            // conjugated groups aggregate CNOTs targeting the hub, which the
            // opening/closing H turn into CZs; plain groups keep the gate's
            // own kind (the bus is a Z-basis copy of the hub, so Z-controlled
            // and diagonal interactions transfer to the entrance).
            let sem = if conjugated {
                SemGate2::Cz
            } else {
                match self.circuit.gates()[gate.index()] {
                    Gate::Two { kind, .. } => sem_of_two(kind),
                    _ => SemGate2::NonClifford,
                }
            };
            self.shuttle.component(
                &mut self.pc,
                device.topology(),
                gid,
                opt.entrance,
                opt.access,
                sem,
            );
            executed.push(gate);
        }
        executed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceSpec;
    use mech_circuit::benchmarks::{bernstein_vazirani, qaoa_maxcut, qft, random_circuit};
    use mech_circuit::{CircuitError, Qubit};

    fn device(d: u32, rows: u32, cols: u32) -> Arc<DeviceArtifacts> {
        DeviceSpec::square(d, rows, cols).build_artifacts()
    }

    #[test]
    fn empty_circuit_compiles_to_nothing() {
        let dev = device(5, 1, 1);
        let c = MechCompiler::new(dev, CompilerConfig::default());
        let r = c.compile(&Circuit::new(4)).unwrap();
        assert_eq!(r.circuit.depth(), 0);
        assert_eq!(r.shuttle_stats.shuttles, 0);
    }

    #[test]
    fn oversized_program_is_rejected() {
        let dev = device(4, 1, 1);
        let c = MechCompiler::new(dev, CompilerConfig::default());
        let err = c.compile(&Circuit::new(100)).unwrap_err();
        assert!(matches!(err, CompileError::TooManyQubits { .. }));
    }

    #[test]
    fn bv_uses_a_single_shuttle() {
        let dev = device(6, 2, 2);
        let n = 30.min(dev.num_data_qubits());
        let c = MechCompiler::new(dev, CompilerConfig::default());
        let r = c.compile(&bernstein_vazirani(n, 3)).unwrap();
        assert_eq!(r.shuttle_stats.shuttles, 1, "BV oracle fits one shuttle");
        assert!(r.shuttle_stats.components >= u64::from(n / 2) - 1);
    }

    #[test]
    fn qft_completes_all_gates() {
        let dev = device(5, 2, 2);
        let c = MechCompiler::new(dev, CompilerConfig::default());
        let n = 20;
        let program = qft(n);
        let r = c.compile(&program).unwrap();
        // All measurements present.
        assert!(r.circuit.counts().measurements >= u64::from(n));
        assert!(r.shuttle_stats.highway_gates > 0);
        assert!(r.circuit.depth() > 0);
    }

    #[test]
    fn qaoa_shares_shuttles_across_groups() {
        let dev = device(6, 2, 2);
        let c = MechCompiler::new(dev, CompilerConfig::default());
        let r = c.compile(&qaoa_maxcut(24, 1, 5)).unwrap();
        assert!(
            r.shuttle_stats.highway_gates > r.shuttle_stats.shuttles,
            "several multi-target gates should share shuttles: {} gates / {} shuttles",
            r.shuttle_stats.highway_gates,
            r.shuttle_stats.shuttles
        );
    }

    #[test]
    fn small_gates_run_off_highway() {
        let dev = device(5, 1, 1);
        let c = MechCompiler::new(dev, CompilerConfig::default());
        let mut prog = Circuit::new(4);
        prog.cnot(Qubit(0), Qubit(1)).unwrap();
        prog.cnot(Qubit(2), Qubit(3)).unwrap();
        let r = c.compile(&prog).unwrap();
        assert_eq!(r.shuttle_stats.highway_gates, 0);
        assert_eq!(r.regular_gates, 2);
    }

    #[test]
    fn random_circuits_compile_on_all_densities() {
        for density in 1..=2 {
            let dev = DeviceSpec::square(7, 2, 2)
                .with_density(density)
                .build_artifacts();
            let c = MechCompiler::new(dev, CompilerConfig::default());
            let r = c
                .compile(&random_circuit(40, 150, u64::from(density)))
                .unwrap();
            assert!(r.circuit.depth() > 0);
        }
    }

    #[test]
    fn compile_is_deterministic() {
        let dev = device(6, 2, 2);
        let c = MechCompiler::new(dev, CompilerConfig::default());
        let prog = qaoa_maxcut(20, 1, 11);
        let a = c.compile(&prog).unwrap();
        let b = c.compile(&prog).unwrap();
        assert_eq!(a.circuit.depth(), b.circuit.depth());
        assert_eq!(a.circuit.counts(), b.circuit.counts());
    }

    #[test]
    fn explicit_session_matches_compile() {
        // The session API is the compile() internals made public: driving
        // it by hand (shared DAG, per-request session) must produce the
        // identical schedule.
        let dev = device(6, 2, 2);
        let config = CompilerConfig::default();
        let prog = qaoa_maxcut(20, 1, 3);
        let via_compile = MechCompiler::new(Arc::clone(&dev), config)
            .compile(&prog)
            .unwrap();
        let dag = CommutationDag::new(&prog);
        let via_session = CompileSession::new(&dev, config, &prog, &dag)
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(via_compile.circuit.ops(), via_session.circuit.ops());
        // One DAG can fan out many sessions.
        let again = CompileSession::new(&dev, config, &prog, &dag)
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(via_compile.circuit.ops(), again.circuit.ops());
    }

    #[test]
    fn session_rejects_a_dag_of_another_circuit() {
        let dev = device(6, 2, 2);
        let config = CompilerConfig::default();
        let qft8_then = |gate| {
            let mut c = qft(8);
            c.extend([gate]);
            c
        };
        let cx = |a, b| Gate::Two {
            kind: TwoQubitKind::Cnot,
            a: Qubit(a),
            b: Qubit(b),
            angle: 0.0,
        };
        let cz = |a, b| Gate::Two {
            kind: TwoQubitKind::Cz,
            a: Qubit(a),
            b: Qubit(b),
            angle: 0.0,
        };
        let h = |q| Gate::One {
            gate: OneQubitGate::H,
            q: Qubit(q),
        };
        let cases = [
            (qft(8), qft(6)), // fewer gates and qubits
            (qft(8), qft(9)), // more gates and qubits
            // Same width and gate count, one gate on other operands.
            (qft8_then(cx(1, 0)), qft8_then(cx(0, 1))),
            (qft8_then(h(2)), qft8_then(h(3))),
            (qft8_then(h(2)), qft8_then(cx(2, 3))),
            // Same operands, other commutation roles: CZ is diagonal on
            // its second operand, CNOT is X-type there.
            (qft8_then(cz(0, 1)), qft8_then(cx(0, 1))),
        ];
        for (prog, other) in &cases {
            let dag = CommutationDag::new(other);
            let Err(err) = CompileSession::new(&dev, config, prog, &dag) else {
                panic!("a mismatched DAG was accepted");
            };
            assert_eq!(err, CompileError::InvalidCircuit(CircuitError::DagMismatch));
            assert!(err.is_client_error());
        }
        let prog = qft8_then(cx(1, 0));
        let dag = CommutationDag::new(&prog);
        assert!(CompileSession::new(&dev, config, &prog, &dag).is_ok());
    }

    #[test]
    fn chain_ghz_style_trades_depth_for_measurements() {
        let dev = device(7, 2, 2);
        let n = dev.num_data_qubits();
        let program = bernstein_vazirani(n, 5);
        let mb = MechCompiler::new(Arc::clone(&dev), CompilerConfig::default())
            .compile(&program)
            .unwrap();
        let chain_cfg = CompilerConfig {
            ghz_style: crate::GhzStyle::Chain,
            ..CompilerConfig::default()
        };
        let chain = MechCompiler::new(dev, chain_cfg).compile(&program).unwrap();
        // The cascade needs no preparation measurements (the growth of its
        // preparation *depth* with path length is asserted at the
        // mechanism level in mech-highway's tests).
        assert!(chain.circuit.counts().measurements < mb.circuit.counts().measurements);
        assert_eq!(
            chain.shuttle_stats.components, mb.shuttle_stats.components,
            "both styles execute the same logical components"
        );
    }

    #[test]
    fn shuttle_trace_matches_stats() {
        let dev = device(6, 2, 2);
        let c = MechCompiler::new(dev, CompilerConfig::default());
        let r = c.compile(&qaoa_maxcut(24, 1, 5)).unwrap();
        assert_eq!(r.shuttle_trace.len() as u64, r.shuttle_stats.shuttles);
        let traced_components: u64 = r.shuttle_trace.iter().map(|t| t.components).sum();
        assert_eq!(traced_components, r.shuttle_stats.components);
        let traced_groups: u64 = r.shuttle_trace.iter().map(|t| u64::from(t.groups)).sum();
        assert_eq!(traced_groups, r.shuttle_stats.highway_gates);
        // Close times are monotone.
        for w in r.shuttle_trace.windows(2) {
            assert!(w[0].closed_at <= w[1].closed_at);
            assert_eq!(w[0].index + 1, w[1].index);
        }
    }

    #[test]
    fn metrics_are_extractable() {
        let dev = device(5, 1, 2);
        let c = MechCompiler::new(dev, CompilerConfig::default());
        let r = c.compile(&bernstein_vazirani(16, 1)).unwrap();
        let m = r.metrics();
        assert_eq!(m.depth, r.circuit.depth());
        assert!(m.eff_cnots > 0.0);
        assert!(r.highway_percentage > 0.0 && r.highway_percentage < 0.5);
    }
}
