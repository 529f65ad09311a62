//! The MECH benchmark runner.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml --bin perfbench -- \
//!     --workload <serve-paper-mix|verify-clifford|recalibrate-sweep> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object `{correct, attempted, failed, metrics}`: with `--trace 0` the
//! end-to-end metrics, with `--trace 1` the per-layer metrics. The full
//! record (with `nproc`, the commit and the free compile counters) goes to
//! `.bench_out/results/`, and a traced run's spans to `.bench_out/spans/`.
//! The command exits 1 when any request failed, was refused or served a
//! schedule that failed a correctness check, and 2 on bad arguments or when
//! `MECH_THREADS` is set. `perfbench/README.md` describes the workloads and
//! what each metric is expected to move.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mech::{
    ChipletSpec, CompileBudget, CompileResult, CompileSession, CompilerConfig, CouplingStructure,
    DeviceArtifacts, DeviceSpec, HighwayLayout, MechCompiler, Metrics,
};
use mech_bench::serve::{CompileService, Request, ServeError, ServeOptions, ServeOutcome};
use mech_bench::verify::{recording, verify_compiled, SchedVerifier, VerifyReport};
use mech_bench::{defects, programs};
use mech_circuit::{Circuit, CommutationDag};
use mech_highway::{EntranceTable, HighwaySkeleton};
use perfbench::json::quote;
use perfbench::probe::SpeedProbe;
use perfbench::rng;
use perfbench::stats::{geomean, percentile, samples_beyond};
use perfbench::trace::{self_time_by_name, Tracer};

/// Program width of `serve-paper-mix` on the paper's 441-qubit
/// `square(7, 3, 3)` device. At 300-360 qubits a 36-second run holds only
/// about 200 requests, and their p95 spread by a fifth to a third between
/// runs; at 160 qubits a request costs about a third as much, so the same
/// load sends three times the requests.
const MIX_WIDTH: u32 = 160;
/// Program width of `verify-clifford` on the same device: at 360 qubits a
/// verified request costs about 230 ms, too few per run for a p95.
const VERIFY_WIDTH: u32 = 240;
/// Offered load of `serve-paper-mix`, in requests per second: the worker
/// is busy about 15% of the time, so queueing shows in the tail without
/// deciding it, and a run holds about 360 requests (18 beyond the p95).
const MIX_RATE_PER_S: f64 = 10.0;
/// Queue slots of the serving workloads: deep enough that a burst at the
/// offered load is never refused.
const QUEUE_CAPACITY: usize = 64;
/// Set-ups per run, `setup_s` being their median: at least
/// `SETUP_MIN_REPEATS` before the timed phase and as many after it, and
/// more while they have taken less than `SETUP_MIN_S` in total, so a cheap
/// set-up is timed often enough to be steady.
const SETUP_MIN_REPEATS: usize = 3;
const SETUP_MAX_REPEATS: usize = 60;
const SETUP_MIN_S: f64 = 4.0;
/// Device-tier builds timed per traced run on workloads that build their
/// device only in set-up.
const SETUP_BUILDS_TRACED: u64 = 3;
/// The open-loop generator probes the host only when its next send is at
/// least this far off, so probing never delays a send.
const PROBE_CLEARANCE: Duration = Duration::from_millis(4);
/// How long a blocked ticket may take before the request counts as lost.
const TICKET_TIMEOUT: Duration = Duration::from_secs(120);

/// End-to-end metrics, reported with `--trace 0`: (name, unit).
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("success_rate", "ratio"),
    ("peak_rss_mb", "MB"),
    ("schedule_depth", "layers"),
    ("eff_cnots", "cnots"),
];

/// The serve-paper-mix families, whose compile time is also reported per
/// family in the traced run.
const MIX_FAMILIES: [(&str, programs::FamilyGen); 5] = [
    ("qft", programs::qft),
    ("qaoa", programs::qaoa),
    ("vqe", programs::vqe),
    ("rand-sparse", programs::rand_sparse),
    ("rand-dense", programs::rand_dense),
];

/// Per-layer metrics, reported with `--trace 1`: (name, unit).
const PER_LAYER: [(&str, &str); 49] = [
    ("circuit.validate_ms", "ms"),
    ("circuit.dag_build_ms", "ms"),
    ("core.session_new_ms", "ms"),
    ("core.session_run_ms", "ms"),
    ("core.session_run_ms.qft", "ms"),
    ("core.session_run_ms.qaoa", "ms"),
    ("core.session_run_ms.vqe", "ms"),
    ("core.session_run_ms.rand-sparse", "ms"),
    ("core.session_run_ms.rand-dense", "ms"),
    ("highway.claim_searches", "count"),
    ("highway.claim_skips", "count"),
    ("highway.claim_skip_share", "ratio"),
    ("highway.shuttles", "count"),
    ("highway.components_per_shuttle", "ratio"),
    ("router.regular_gates", "count"),
    ("core.cross_chip_cnots", "count"),
    ("chiplet.phys_ops", "count"),
    ("chiplet.topology_build_ms", "ms"),
    ("chiplet.mask_ms", "ms"),
    ("highway.layout_ms", "ms"),
    ("highway.prune_ms", "ms"),
    ("highway.entrance_table_ms", "ms"),
    ("highway.skeleton_ms", "ms"),
    ("core.device_build_ms", "ms"),
    ("sim.verify_ms", "ms"),
    ("sim.events", "count"),
    ("sim.protocol_measurements", "count"),
    ("sim.verify_per_compile", "ratio"),
    ("serve.queue_ms.p50", "ms"),
    ("serve.queue_ms.p95", "ms"),
    ("serve.compile_ms.p50", "ms"),
    ("serve.compile_ms.p95", "ms"),
    ("serve.verify_ms.p50", "ms"),
    ("serve.verify_ms.p95", "ms"),
    ("serve.worker_busy_share", "ratio"),
    ("serve.refused", "count"),
    ("serve.shed", "count"),
    ("bench.generator_late_p95_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.requests", "count"),
    ("share.circuit_pct", "%"),
    ("share.core_session_pct", "%"),
    ("share.device_tier_pct", "%"),
    ("share.sim_pct", "%"),
    ("share.uncovered_pct", "%"),
    ("trace.request_ms", "ms"),
    ("trace.untraced_request_ms", "ms"),
    ("bench.requests_per_run", "count"),
    ("bench.host_slowdown", "ratio"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ServePaperMix,
    VerifyClifford,
    RecalibrateSweep,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::ServePaperMix,
        Workload::VerifyClifford,
        Workload::RecalibrateSweep,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::ServePaperMix => "serve-paper-mix",
            Workload::VerifyClifford => "verify-clifford",
            Workload::RecalibrateSweep => "recalibrate-sweep",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or(format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One (device, program) cell with its serial reference schedule.
struct Cell {
    family: &'static str,
    spec: DeviceSpec,
    device: Arc<DeviceArtifacts>,
    program: Arc<Circuit>,
    reference: CompileResult,
    metrics: Metrics,
}

impl Cell {
    /// Compiles the reference schedule serially and audits it.
    fn new(
        family: &'static str,
        device: Arc<DeviceArtifacts>,
        program: Circuit,
    ) -> Result<Cell, String> {
        let reference = MechCompiler::new(Arc::clone(&device), CompilerConfig::default())
            .compile(&program)
            .map_err(|e| format!("{family}: reference compile failed: {e}"))?;
        device
            .audit(&reference.circuit)
            .map_err(|e| format!("{family}: reference fails the audit: {e}"))?;
        let metrics = reference.metrics();
        Ok(Cell {
            family,
            spec: device.spec().clone(),
            device,
            program: Arc::new(program),
            reference,
            metrics,
        })
    }

    /// The correctness gate of every served schedule: byte-identical to the
    /// serial reference, and clean under the audit of the device it was
    /// compiled for (only coupled pairs, no dead resource).
    fn check(&self, device: &DeviceArtifacts, got: &CompileResult) -> Result<(), String> {
        if got.circuit.ops() != self.reference.circuit.ops()
            || got.final_positions != self.reference.final_positions
        {
            return Err(format!(
                "{}: schedule differs from the serial reference",
                self.family
            ));
        }
        device
            .audit(&got.circuit)
            .map_err(|e| format!("{}: audit: {e}", self.family))
    }
}

/// Counters the compiler and verifier report for free, summed over requests.
#[derive(Default)]
struct Counters {
    compiles: u64,
    claim_searches: u64,
    claim_skips: u64,
    shuttles: u64,
    components: u64,
    regular_gates: u64,
    cross_chip_cnots: u64,
    phys_ops: u64,
    verifies: u64,
    sim_events: u64,
    sim_protocol_measurements: u64,
}

impl Counters {
    fn add_compile(&mut self, r: &CompileResult, m: &Metrics) {
        self.compiles += 1;
        self.claim_searches += r.claim_searches;
        self.claim_skips += r.claim_skips;
        self.shuttles += r.shuttle_stats.shuttles;
        self.components += r.shuttle_stats.components;
        self.regular_gates += r.regular_gates;
        self.cross_chip_cnots += m.cross_chip_cnots;
        self.phys_ops += r.circuit.ops().len() as u64;
    }

    fn add_verify(&mut self, reports: &[VerifyReport]) {
        self.verifies += 1;
        for r in reports {
            self.sim_events += r.events as u64;
            self.sim_protocol_measurements += u64::from(r.protocol_measurements);
        }
    }

    fn per(total: u64, n: u64) -> f64 {
        if n == 0 {
            0.0
        } else {
            total as f64 / n as f64
        }
    }

    fn metrics(&self) -> Vec<(&'static str, f64)> {
        let n = self.compiles;
        vec![
            ("highway.claim_searches", Self::per(self.claim_searches, n)),
            ("highway.claim_skips", Self::per(self.claim_skips, n)),
            (
                "highway.claim_skip_share",
                Self::per(self.claim_skips, self.claim_skips + self.claim_searches),
            ),
            ("highway.shuttles", Self::per(self.shuttles, n)),
            (
                "highway.components_per_shuttle",
                Self::per(self.components, self.shuttles),
            ),
            ("router.regular_gates", Self::per(self.regular_gates, n)),
            ("core.cross_chip_cnots", Self::per(self.cross_chip_cnots, n)),
            ("chiplet.phys_ops", Self::per(self.phys_ops, n)),
            ("sim.events", Self::per(self.sim_events, self.verifies)),
            (
                "sim.protocol_measurements",
                Self::per(self.sim_protocol_measurements, self.verifies),
            ),
        ]
    }
}

/// What one timed phase saw.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    refused: u64,
    shed: u64,
    latencies_ms: Vec<f64>,
    /// When each latency was taken (its midpoint, on the probe's timeline).
    at_s: Vec<f64>,
    late_ms: Vec<f64>,
    queue_ms: Vec<f64>,
    compile_ms: Vec<f64>,
    verify_ms: Vec<f64>,
    busy_ms: f64,
    start_s: f64,
    elapsed_s: f64,
    served_cells: BTreeSet<usize>,
    counters: Counters,
    errors: Vec<String>,
}

impl Tally {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(why);
        }
    }

    /// Checks and drops one service outcome, redeemed at `done_s`;
    /// `latency` maps it to the request's latency.
    fn serve_outcome(
        &mut self,
        cells: &[Cell],
        cell: usize,
        got: Result<ServeOutcome, ServeError>,
        expect_verified: bool,
        done_s: f64,
        latency: impl FnOnce(&ServeOutcome) -> f64,
    ) {
        let c = &cells[cell];
        let out = match got {
            Ok(out) => out,
            Err(e) => return self.fail(format!("{}: {e}", c.family)),
        };
        if out.shed {
            self.shed += 1;
            return self.fail(format!("{}: shed", c.family));
        }
        let result = match &out.result {
            Ok(r) => r,
            Err(e) => return self.fail(format!("{}: {e}", c.family)),
        };
        if expect_verified && !out.verified {
            return self.fail(format!("{}: served unverified", c.family));
        }
        if let Err(e) = c.check(&c.device, result) {
            return self.fail(e);
        }
        self.push_latency(latency(&out), done_s);
        self.queue_ms.push(out.queued_ms);
        self.compile_ms.push(out.compile_ms);
        self.verify_ms.push(out.verify_ms);
        self.busy_ms += out.compile_ms + out.verify_ms;
        self.counters.add_compile(result, &c.metrics);
        self.served_cells.insert(cell);
    }

    fn push_latency(&mut self, ms: f64, done_s: f64) {
        self.latencies_ms.push(ms);
        self.at_s.push(done_s - ms / 2e3);
    }

    fn ok(&self) -> u64 {
        self.latencies_ms.len() as u64
    }

    /// Latencies divided by the host's slowdown when each was taken.
    fn adjusted_ms(&self, probe: &SpeedProbe) -> Vec<f64> {
        self.latencies_ms
            .iter()
            .zip(&self.at_s)
            .map(|(&ms, &at)| ms / probe.slowdown(at))
            .collect()
    }
}

/// Everything a workload builds before its timed phase.
struct Setup {
    cells: Vec<Cell>,
    service: Option<CompileService>,
    workers: usize,
}

/// Workers of `serve-paper-mix`: one CPU is left to the load generator, so
/// the generator never waits for a CPU to send on time.
fn mix_workers(nproc: usize) -> usize {
    nproc.saturating_sub(1).max(1)
}

fn paper_device() -> Arc<DeviceArtifacts> {
    DeviceSpec::square(7, 3, 3).build_artifacts()
}

/// The recalibration cycle: the devices of the paper's scaling, sparsity,
/// highway-density and coupling-structure sweeps (Figs. 12, 14, 15, 16 and
/// Table 2), plus the canonical degraded 441-qubit calibration epoch.
fn recalibration_specs() -> Vec<DeviceSpec> {
    use CouplingStructure::{HeavyHexagon, HeavySquare, Hexagon, Square};
    let s = |st, d, r, c| DeviceSpec::new(ChipletSpec::new(st, d, r, c));
    let sparse =
        |kept| DeviceSpec::new(ChipletSpec::square(7, 3, 3).with_cross_links_per_edge(kept));
    vec![
        s(Square, 7, 3, 3),
        defects::degraded_441q(),
        s(Hexagon, 7, 3, 3),
        s(HeavySquare, 7, 3, 3),
        s(HeavyHexagon, 7, 3, 3),
        s(Square, 6, 2, 2),
        s(Square, 8, 2, 3),
        s(Square, 9, 3, 4),
        s(Square, 6, 3, 4),
        s(Square, 9, 2, 2).with_density(2),
        s(Square, 8, 3, 3).with_density(2),
        sparse(1),
        sparse(3),
        s(Hexagon, 9, 2, 3),
        s(HeavySquare, 8, 2, 2),
        s(HeavyHexagon, 9, 3, 4),
    ]
}

fn setup(workload: Workload, nproc: usize) -> Result<Setup, String> {
    let config = CompilerConfig::default();
    match workload {
        Workload::ServePaperMix | Workload::VerifyClifford => {
            let device = paper_device();
            type Families = &'static [(&'static str, programs::FamilyGen)];
            let (families, width, workers, verify): (Families, u32, usize, bool) =
                if workload == Workload::ServePaperMix {
                    (&MIX_FAMILIES, MIX_WIDTH, mix_workers(nproc), false)
                } else {
                    (&programs::CLIFFORD_FAMILIES, VERIFY_WIDTH, 1, true)
                };
            let cells = families
                .iter()
                .map(|&(name, gen)| Cell::new(name, Arc::clone(&device), gen(width)))
                .collect::<Result<Vec<_>, _>>()?;
            let service = CompileService::start(
                device,
                config,
                ServeOptions {
                    workers,
                    queue_capacity: QUEUE_CAPACITY,
                    ..ServeOptions::default()
                },
            );
            // Warm-up: every program once through the service, checked.
            let mut warm = Tally::default();
            for (i, c) in cells.iter().enumerate() {
                let got = service
                    .submit_request(Request::new(Arc::clone(&c.program)).with_verify(verify))
                    .and_then(|t| t.wait_timeout(TICKET_TIMEOUT));
                warm.serve_outcome(&cells, i, got, verify, 0.0, |o| o.total_ms);
            }
            if let Some(e) = warm.errors.first() {
                return Err(format!("warm-up: {e}"));
            }
            Ok(Setup {
                cells,
                service: Some(service),
                workers,
            })
        }
        Workload::RecalibrateSweep => {
            let cells = recalibration_specs()
                .into_iter()
                .map(|spec| {
                    let device = spec.build_artifacts();
                    let width = device.num_data_qubits();
                    Cell::new("bv", device, programs::bv(width))
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Setup {
                cells,
                service: None,
                workers: 1,
            })
        }
    }
}

struct Pending {
    cell: usize,
    late_ms: f64,
    ticket: mech_bench::serve::Ticket,
}

/// Redeems finished tickets (all of them when `block`), checking and
/// dropping each schedule at once so held results never pile up.
fn drain(
    pending: &mut Vec<Pending>,
    cells: &[Cell],
    tally: &mut Tally,
    block: bool,
    probe: &SpeedProbe,
) {
    let wait = if block {
        TICKET_TIMEOUT
    } else {
        Duration::ZERO
    };
    let mut i = 0;
    while i < pending.len() {
        match pending[i].ticket.wait_timeout(wait) {
            Err(ServeError::Timeout) if !block => i += 1,
            got => {
                let p = pending.swap_remove(i);
                tally.serve_outcome(cells, p.cell, got, false, probe.now(), |o| {
                    p.late_ms + o.total_ms
                });
            }
        }
    }
}

/// `serve-paper-mix`: open loop at [`MIX_RATE_PER_S`]. Latency runs from
/// each request's due time, so a stalled generator or a full service both
/// show up in it. The generator probes the host while no send is near.
fn open_loop(s: &Setup, seed: u64, window_s: f64, probe: &mut SpeedProbe) -> Tally {
    let service = s.service.as_ref().expect("serving workload");
    // A whole number of draw blocks, so every family is sent equally often.
    let kinds = s.cells.len();
    let count = ((MIX_RATE_PER_S * window_s / kinds as f64).round().max(1.0) as usize) * kinds;
    let times = rng::arrivals(seed, count, window_s);
    let mut tally = Tally {
        start_s: probe.now(),
        ..Tally::default()
    };
    let mut pending: Vec<Pending> = Vec::new();
    let start = Instant::now();
    for (&t, cell) in times.iter().zip(rng::draws(seed, s.cells.len())) {
        let due = start + Duration::from_secs_f64(t);
        loop {
            drain(&mut pending, &s.cells, &mut tally, false, probe);
            let now = Instant::now();
            if now >= due {
                break;
            }
            if pending.is_empty() && due - now > PROBE_CLEARANCE {
                probe.tick();
            }
            std::thread::sleep(
                due.saturating_duration_since(Instant::now())
                    .min(Duration::from_millis(5)),
            );
        }
        let late_ms = ms(due.elapsed());
        tally.attempted += 1;
        tally.late_ms.push(late_ms);
        match service.try_submit(Arc::clone(&s.cells[cell].program)) {
            Ok(ticket) => pending.push(Pending {
                cell,
                late_ms,
                ticket,
            }),
            Err(e) => {
                if e == ServeError::QueueFull {
                    tally.refused += 1;
                }
                tally.fail(format!("{}: {e}", s.cells[cell].family));
            }
        }
    }
    drain(&mut pending, &s.cells, &mut tally, true, probe);
    tally.elapsed_s = start.elapsed().as_secs_f64();
    tally
}

/// `verify-clifford`: one client, one worker, every request verify-gated.
fn closed_loop_verify(s: &Setup, seed: u64, window_s: f64, probe: &mut SpeedProbe) -> Tally {
    let service = s.service.as_ref().expect("serving workload");
    let mut tally = Tally {
        start_s: probe.now(),
        ..Tally::default()
    };
    let start = Instant::now();
    let mut draws = rng::draws(seed, s.cells.len());
    while start.elapsed().as_secs_f64() < window_s {
        probe.tick();
        let cell = draws.next().expect("endless draw");
        tally.attempted += 1;
        let sent = Instant::now();
        let got = service
            .submit_request(Request::new(Arc::clone(&s.cells[cell].program)).with_verify(true))
            .and_then(|t| t.wait_timeout(TICKET_TIMEOUT));
        let wall_ms = ms(sent.elapsed());
        tally.serve_outcome(&s.cells, cell, got, true, probe.now(), |_| wall_ms);
    }
    tally.elapsed_s = start.elapsed().as_secs_f64();
    tally
}

/// `recalibrate-sweep`: one thread; every request builds a fresh device
/// bundle (as `CompileService::reconfigure` does) and compiles on it.
fn recalibrate_loop(s: &Setup, seed: u64, window_s: f64, probe: &mut SpeedProbe) -> Tally {
    let order = rng::cycle_order(seed, s.cells.len());
    let config = CompilerConfig::default();
    let mut tally = Tally {
        start_s: probe.now(),
        ..Tally::default()
    };
    let start = Instant::now();
    let mut k = 0;
    while start.elapsed().as_secs_f64() < window_s {
        probe.tick();
        let cell = order[k % order.len()];
        k += 1;
        let c = &s.cells[cell];
        tally.attempted += 1;
        let sent = Instant::now();
        let device = c.spec.build_artifacts();
        let got = MechCompiler::new(Arc::clone(&device), config).compile(&c.program);
        let latency_ms = ms(sent.elapsed());
        let result = match got {
            Ok(r) => r,
            Err(e) => {
                tally.fail(format!("{}: {e}", c.spec.chiplet().structure()));
                continue;
            }
        };
        if let Err(e) = c.check(&device, &result) {
            tally.fail(e);
            continue;
        }
        tally.push_latency(latency_ms, probe.now());
        tally.counters.add_compile(&result, &c.metrics);
        tally.served_cells.insert(cell);
    }
    tally.elapsed_s = start.elapsed().as_secs_f64();
    tally
}

fn timed_phase(
    workload: Workload,
    s: &Setup,
    seed: u64,
    window_s: f64,
    probe: &mut SpeedProbe,
) -> Tally {
    match workload {
        Workload::ServePaperMix => open_loop(s, seed, window_s, probe),
        Workload::VerifyClifford => closed_loop_verify(s, seed, window_s, probe),
        Workload::RecalibrateSweep => recalibrate_loop(s, seed, window_s, probe),
    }
}

/// The request sequence of the traced replay: the same seeded order the
/// untraced phase sends.
fn replay_order(workload: Workload, seed: u64, cells: usize) -> Box<dyn Iterator<Item = usize>> {
    match workload {
        Workload::RecalibrateSweep => Box::new(rng::cycle_order(seed, cells).into_iter().cycle()),
        _ => Box::new(rng::draws(seed, cells)),
    }
}

/// The device-tier builder steps of `DeviceArtifacts::build`, each timed
/// as its own span under a `device.steps` root.
fn traced_device_steps(t: &mut Tracer, spec: &DeviceSpec, request: u64) {
    let root = t.begin("device.steps", request);
    let topo = t.time("chiplet.topology_build", request, || spec.chiplet().build());
    let layout = t.time("highway.layout", request, || {
        HighwayLayout::generate(&topo, spec.highway_density())
    });
    let (topo, layout) = if spec.defects().is_empty() {
        (topo, layout)
    } else {
        let masked = t.time("chiplet.mask", request, || topo.masked(spec.defects()));
        let pruned = t.time("highway.prune", request, || layout.pruned(spec.defects()));
        (masked, pruned)
    };
    let entrances = t.time("highway.entrance_table", request, || {
        EntranceTable::build(&topo, &layout, spec.entrance_candidates())
    });
    let skeleton = t.time("highway.skeleton", request, || {
        HighwaySkeleton::build(topo.num_qubits() as usize, &layout)
    });
    std::hint::black_box((entrances, skeleton));
    t.end(root);
}

/// One request through the same public calls as the untraced path, with a
/// span around each: `validate` → `CommutationDag::new` →
/// `CompileSession::new` + `set_budget` → `run`, then the verifier.
fn traced_compile(
    t: &mut Tracer,
    request: u64,
    device: &DeviceArtifacts,
    config: CompilerConfig,
    program: &Circuit,
    verify: bool,
) -> Result<(CompileResult, Option<Vec<VerifyReport>>), String> {
    t.time("circuit.validate", request, || program.validate())
        .map_err(|e| e.to_string())?;
    let dag = t.time("circuit.dag_build", request, || {
        CommutationDag::new(program)
    });
    let session = t.time("core.session_new", request, || {
        CompileSession::new(device, config, program, &dag).map(|mut s| {
            s.set_budget(CompileBudget::unlimited());
            s
        })
    });
    let session = session.map_err(|e| e.to_string())?;
    let result = t
        .time("core.session_run", request, || session.run())
        .map_err(|e| e.to_string())?;
    let reports = if verify {
        let reports = t.time("sim.verify", request, || {
            SchedVerifier::new(
                program,
                result.circuit.num_qubits(),
                result.circuit.sem_events(),
                &result.final_positions,
            )
            .verify_sweep()
        });
        Some(reports.map_err(|e| e.to_string())?)
    } else {
        None
    };
    Ok((result, reports))
}

/// What the traced replay measured besides its spans.
#[derive(Default)]
struct Replay {
    requests: u64,
    failed: u64,
    traced_ms: f64,
    untraced_ms: f64,
    families: Vec<&'static str>,
    counters: Counters,
    errors: Vec<String>,
}

/// The traced run's second phase: replays the workload's seeded request
/// sequence serially, each request once untraced (one plain call) and once
/// through the span-wrapped calls, alternating which goes first.
fn traced_replay(
    workload: Workload,
    s: &Setup,
    seed: u64,
    window_s: f64,
    t: &mut Tracer,
) -> Replay {
    let base = CompilerConfig::default();
    let verify = workload == Workload::VerifyClifford;
    let config = if verify { recording(base) } else { base };
    let mut r = Replay::default();
    if workload != Workload::RecalibrateSweep {
        // These workloads build their device only in set-up; time it there.
        let spec = s.cells[0].spec.clone();
        for i in 0..SETUP_BUILDS_TRACED {
            let id = u64::MAX - i;
            std::hint::black_box(t.time("core.device_build", id, || spec.build_artifacts()));
            traced_device_steps(t, &spec, id);
        }
    }
    let start = Instant::now();
    let mut order = replay_order(workload, seed, s.cells.len());
    while start.elapsed().as_secs_f64() < window_s {
        let cell = order.next().expect("endless order");
        let c = &s.cells[cell];
        let id = r.requests;
        r.requests += 1;
        r.families.push(c.family);
        let untraced = |r: &mut Replay| {
            let sent = Instant::now();
            let device = match workload {
                Workload::RecalibrateSweep => c.spec.build_artifacts(),
                _ => Arc::clone(&c.device),
            };
            let got = MechCompiler::new(device, config).compile(&c.program);
            if let Ok(res) = &got {
                if verify {
                    std::hint::black_box(verify_compiled(&c.program, res).is_ok());
                }
            }
            r.untraced_ms += ms(sent.elapsed());
        };
        if id % 2 == 0 {
            untraced(&mut r);
        }
        let root = t.begin("request", id);
        let device = match workload {
            Workload::RecalibrateSweep => {
                t.time("core.device_build", id, || c.spec.build_artifacts())
            }
            _ => Arc::clone(&c.device),
        };
        let got = traced_compile(t, id, &device, config, &c.program, verify);
        r.traced_ms += t.end(root) as f64 / 1e6;
        if id % 2 == 1 {
            untraced(&mut r);
        }
        if workload == Workload::RecalibrateSweep {
            traced_device_steps(t, &c.spec, id);
        }
        let checked = got.and_then(|(res, reports)| {
            c.check(&device, &res)?;
            r.counters.add_compile(&res, &c.metrics);
            if let Some(reports) = reports {
                r.counters.add_verify(&reports);
            }
            Ok(())
        });
        if let Err(e) = checked {
            r.failed += 1;
            if r.errors.len() < 8 {
                r.errors.push(e);
            }
        }
    }
    r
}

/// Mean duration in ms of the spans named `name` (restricted to requests
/// for which `keep` holds), or 0 when there are none.
fn mean_span_ms(t: &Tracer, name: &str, keep: impl Fn(u64) -> bool) -> f64 {
    let (sum, n) = t
        .spans()
        .iter()
        .filter(|s| s.name == name && keep(s.request))
        .fold((0u64, 0u64), |(sum, n), s| (sum + s.duration_ns(), n + 1));
    if n == 0 {
        0.0
    } else {
        sum as f64 / n as f64 / 1e6
    }
}

fn pct(xs: &[f64], p: f64) -> f64 {
    percentile(xs, p).unwrap_or(0.0)
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit checked out at the current directory, read from `.git`
/// without running git ("unknown" outside a git checkout).
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(r) => read(r)
            .map(|h| h.trim().to_string())
            .or_else(|| {
                read("packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next())
                    .map(str::to_string)
            })
            .unwrap_or_else(|| "unknown".into()),
    }
}

/// FNV-1a digest of the program sources (`crates/`, sorted by path): names
/// the code under test even where the checkout is not a git repository.
fn source_hash() -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        if let Ok(entries) = std::fs::read_dir(dir) {
            for e in entries.flatten() {
                let p = e.path();
                if p.is_dir() {
                    walk(&p, files);
                } else {
                    files.push(p);
                }
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn end_to_end(
    workload: Workload,
    s: &Setup,
    tally: &Tally,
    probe: &SpeedProbe,
) -> BTreeMap<&'static str, f64> {
    let quality = |f: fn(&Metrics) -> f64| {
        let xs: Vec<f64> = tally
            .served_cells
            .iter()
            .map(|&c| f(&s.cells[c].metrics))
            .collect();
        geomean(&xs).unwrap_or(0.0)
    };
    let ok = tally.ok() as f64;
    let latencies = tally.adjusted_ms(probe);
    // The open loop's throughput is its offered rate, whatever the host's
    // speed; a closed loop's is paced by the host, so it is adjusted too.
    let elapsed_s = if workload == Workload::ServePaperMix {
        tally.elapsed_s
    } else {
        tally.elapsed_s / probe.mean_slowdown(tally.start_s, tally.start_s + tally.elapsed_s)
    };
    [
        ("latency_p50_ms", pct(&latencies, 50.0)),
        ("latency_p95_ms", pct(&latencies, 95.0)),
        ("throughput_per_s", ok / elapsed_s.max(1e-9)),
        ("raw.latency_p50_ms", pct(&tally.latencies_ms, 50.0)),
        ("raw.latency_p95_ms", pct(&tally.latencies_ms, 95.0)),
        ("raw.throughput_per_s", ok / tally.elapsed_s.max(1e-9)),
        ("success_rate", ok / (tally.attempted.max(1) as f64)),
        ("peak_rss_mb", peak_rss_mb()),
        ("schedule_depth", quality(|m| m.depth as f64)),
        ("eff_cnots", quality(|m| m.eff_cnots)),
    ]
    .into_iter()
    .collect()
}

fn per_layer(s: &Setup, tally: &Tally, t: &Tracer, replay: &Replay) -> BTreeMap<&'static str, f64> {
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let any = |_: u64| true;
    for (metric, span) in [
        ("circuit.validate_ms", "circuit.validate"),
        ("circuit.dag_build_ms", "circuit.dag_build"),
        ("core.session_new_ms", "core.session_new"),
        ("core.session_run_ms", "core.session_run"),
        ("chiplet.topology_build_ms", "chiplet.topology_build"),
        ("chiplet.mask_ms", "chiplet.mask"),
        ("highway.layout_ms", "highway.layout"),
        ("highway.prune_ms", "highway.prune"),
        ("highway.entrance_table_ms", "highway.entrance_table"),
        ("highway.skeleton_ms", "highway.skeleton"),
        ("core.device_build_ms", "core.device_build"),
        ("sim.verify_ms", "sim.verify"),
    ] {
        m.insert(metric, mean_span_ms(t, span, any));
    }
    for (metric, family) in [
        ("core.session_run_ms.qft", "qft"),
        ("core.session_run_ms.qaoa", "qaoa"),
        ("core.session_run_ms.vqe", "vqe"),
        ("core.session_run_ms.rand-sparse", "rand-sparse"),
        ("core.session_run_ms.rand-dense", "rand-dense"),
    ] {
        let of_family = |r: u64| replay.families.get(r as usize) == Some(&family);
        m.insert(metric, mean_span_ms(t, "core.session_run", of_family));
    }
    m.extend(replay.counters.metrics());
    let compile_ms =
        m["core.session_run_ms"] + m["core.session_new_ms"] + m["circuit.dag_build_ms"];
    m.insert(
        "sim.verify_per_compile",
        if compile_ms > 0.0 {
            m["sim.verify_ms"] / compile_ms
        } else {
            0.0
        },
    );

    // Self-time shares of request time, over the traced requests.
    let by = self_time_by_name(t.spans(), "request");
    let total: u64 = by.values().sum();
    let share = |names: &[&str]| {
        let ns: u64 = names.iter().filter_map(|n| by.get(n)).sum();
        if total == 0 {
            0.0
        } else {
            100.0 * ns as f64 / total as f64
        }
    };
    m.insert(
        "share.circuit_pct",
        share(&["circuit.validate", "circuit.dag_build"]),
    );
    m.insert(
        "share.core_session_pct",
        share(&["core.session_new", "core.session_run"]),
    );
    m.insert("share.device_tier_pct", share(&["core.device_build"]));
    m.insert("share.sim_pct", share(&["sim.verify"]));
    m.insert("share.uncovered_pct", share(&["request"]));

    let n = replay.requests.max(1) as f64;
    m.insert("trace.requests", replay.requests as f64);
    m.insert("trace.request_ms", replay.traced_ms / n);
    m.insert("trace.untraced_request_ms", replay.untraced_ms / n);
    m.insert(
        "trace.overhead_pct",
        if replay.untraced_ms > 0.0 {
            100.0 * (replay.traced_ms - replay.untraced_ms) / replay.untraced_ms
        } else {
            0.0
        },
    );

    // The serve layer, from the untraced phase's outcomes.
    m.insert("serve.queue_ms.p50", pct(&tally.queue_ms, 50.0));
    m.insert("serve.queue_ms.p95", pct(&tally.queue_ms, 95.0));
    m.insert("serve.compile_ms.p50", pct(&tally.compile_ms, 50.0));
    m.insert("serve.compile_ms.p95", pct(&tally.compile_ms, 95.0));
    m.insert("serve.verify_ms.p50", pct(&tally.verify_ms, 50.0));
    m.insert("serve.verify_ms.p95", pct(&tally.verify_ms, 95.0));
    m.insert(
        "serve.worker_busy_share",
        if s.service.is_some() {
            tally.busy_ms / 1e3 / (s.workers as f64 * tally.elapsed_s.max(1e-9))
        } else {
            0.0
        },
    );
    m.insert("serve.refused", tally.refused as f64);
    m.insert("serve.shed", tally.shed as f64);
    m.insert("bench.generator_late_p95_ms", pct(&tally.late_ms, 95.0));
    m.insert("bench.requests_per_run", tally.attempted as f64);
    m
}

/// `{"name":{"value":v,"unit":"u"},...}` in the order of `spec`.
fn metrics_json(spec: &[(&str, &str)], values: &BTreeMap<&'static str, f64>) -> String {
    let mut out = String::from("{");
    for (i, (name, unit)) in spec.iter().enumerate() {
        let v = values.get(name).copied().unwrap_or(f64::NAN);
        assert!(v.is_finite(), "metric {name} is not a finite number");
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{}:{{\"value\":{v},\"unit\":{}}}",
            quote(name),
            quote(unit)
        );
    }
    out.push('}');
    out
}

/// One timed set-up: when it ran (its midpoint, on the probe's timeline)
/// and how long it took, in seconds.
#[derive(Debug, Clone, Copy)]
struct SetupTime {
    at_s: f64,
    secs: f64,
}

/// Sets up `workload` again and again, timing each set-up and probing the
/// host around it, until `enough` holds for the times so far; returns the
/// last set-up.
fn set_up_until(
    workload: Workload,
    nproc: usize,
    probe: &mut SpeedProbe,
    times: &mut Vec<SetupTime>,
    enough: impl Fn(&[SetupTime]) -> bool,
) -> Result<Setup, String> {
    let mut kept = None;
    while kept.is_none() || !enough(times) {
        drop(kept.take());
        probe.sample();
        let (at, t0) = (probe.now(), Instant::now());
        kept = Some(setup(workload, nproc)?);
        let secs = t0.elapsed().as_secs_f64();
        times.push(SetupTime {
            at_s: at + secs / 2.0,
            secs,
        });
    }
    probe.sample();
    Ok(kept.expect("set up at least once"))
}

fn run(args: &Args) -> Result<bool, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (commit, source) = (commit(), source_hash());

    // Half of the set-up repeats run before the timed phase (the last one
    // serves it) and half after it, so that one slow or fast spell of the
    // shared host does not decide `setup_s` alone.
    let mut probe = SpeedProbe::new();
    let mut setup_times: Vec<SetupTime> = Vec::new();
    let total = |t: &[SetupTime]| t.iter().map(|x| x.secs).sum::<f64>();
    let s = set_up_until(args.workload, nproc, &mut probe, &mut setup_times, |t| {
        t.len() >= SETUP_MIN_REPEATS
            && (t.len() >= SETUP_MAX_REPEATS / 2 || total(t) >= SETUP_MIN_S / 2.0)
    })?;
    let before = setup_times.len();

    let (mut metrics, spec, attempted, failed, errors, counters): (_, &[(&str, &str)], _, _, _, _);
    let mut spans = None;
    if args.trace {
        let window = args.seconds / 2.0;
        let tally = timed_phase(args.workload, &s, args.seed, window, &mut probe);
        let mut tracer = Tracer::default();
        let replay = traced_replay(args.workload, &s, args.seed, window, &mut tracer);
        metrics = per_layer(&s, &tally, &tracer, &replay);
        metrics.insert("bench.host_slowdown", probe.mean_slowdown(0.0, probe.now()));
        spec = &PER_LAYER;
        attempted = tally.attempted + replay.requests;
        failed = tally.failed + replay.failed;
        errors = [tally.errors, replay.errors].concat();
        counters = replay.counters;
        spans = Some(tracer.to_jsonl());
    } else {
        let tally = timed_phase(args.workload, &s, args.seed, args.seconds, &mut probe);
        if samples_beyond(tally.latencies_ms.len(), 95.0) < 10 {
            eprintln!(
                "warning: {} latency samples leave fewer than ten beyond p95",
                tally.latencies_ms.len()
            );
        }
        metrics = end_to_end(args.workload, &s, &tally, &probe);
        spec = &END_TO_END;
        attempted = tally.attempted;
        failed = tally.failed;
        errors = tally.errors;
        counters = tally.counters;
    }
    drop(s);
    drop(set_up_until(
        args.workload,
        nproc,
        &mut probe,
        &mut setup_times,
        |t| {
            t.len() >= before + SETUP_MIN_REPEATS
                && (t.len() >= SETUP_MAX_REPEATS || total(t) >= SETUP_MIN_S)
        },
    )?);
    if !args.trace {
        let adjusted: Vec<f64> = setup_times
            .iter()
            .map(|t| t.secs / probe.slowdown(t.at_s))
            .collect();
        metrics.insert(
            "setup_s",
            perfbench::stats::median(&adjusted).unwrap_or(0.0),
        );
    }
    for e in &errors {
        eprintln!("failure: {e}");
    }
    let correct = failed == 0 && errors.is_empty();
    let metrics_text = metrics_json(spec, &metrics);
    let result = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{metrics_text}}}"
    );

    // The full record: the result plus what produced it, with the
    // unadjusted times next to the adjusted ones.
    let raw_text = metrics
        .iter()
        .filter_map(|(name, v)| Some((name.strip_prefix("raw.")?, v)))
        .map(|(name, v)| format!("{}:{v}", quote(name)))
        .collect::<Vec<_>>()
        .join(",");
    let counters_text = counters
        .metrics()
        .iter()
        .map(|(name, v)| format!("{}:{v}", quote(name)))
        .collect::<Vec<_>>()
        .join(",");
    let record = format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\"commit\":{},\
         \"source_hash\":{},\"setup_runs_s\":{:?},\"probe_median_ms\":{},\"raw\":{{{raw_text}}},\"correct\":{correct},\"attempted\":{attempted},\
         \"failed\":{failed},\"metrics\":{metrics_text},\"counters\":{{{counters_text}}}}}\n",
        quote(args.workload.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        quote(&commit),
        quote(&source),
        setup_times.iter().map(|t| t.secs).collect::<Vec<_>>(),
        probe.median_ms(),
    );
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let out = Path::new(".bench_out");
    let write = |dir: &str, name: String, body: &str| {
        let d = out.join(dir);
        std::fs::create_dir_all(&d)
            .and_then(|()| std::fs::write(d.join(name), body))
            .map_err(|e| format!("writing {}: {e}", d.display()))
    };
    write("results", format!("{stem}.json"), &record)?;
    if let Some(spans) = spans {
        write("spans", format!("{stem}.jsonl"), &spans)?;
    }
    for (name, unit) in spec {
        eprintln!("{name:<34} {:>14.4} {unit}", metrics[name]);
    }
    println!(
        "{{\"workload\":{},\"nproc\":{nproc},\"commit\":{},\"source_hash\":{}}}",
        quote(args.workload.name()),
        quote(&commit),
        quote(&source)
    );
    println!("{result}");
    Ok(correct)
}

fn main() -> ExitCode {
    if std::env::var_os("MECH_THREADS").is_some() {
        eprintln!("perfbench: unset MECH_THREADS; the benchmark measures the public defaults only");
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <serve-paper-mix|verify-clifford|\
                 recalibrate-sweep> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfbench::json::{self, Value};

    /// The metrics this runner prints are exactly the ones `BENCHMARK.json`
    /// declares, with the same units.
    #[test]
    fn printed_metrics_match_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let spec = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let declared = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(Value::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Value::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |xs: &[(&str, &str)]| -> Vec<(String, String)> {
            xs.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), own(&END_TO_END));
        assert_eq!(declared("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = spec
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap().to_string())
            .collect();
        assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_string()));
    }

    #[test]
    fn metrics_json_keeps_every_digit() {
        let values: BTreeMap<&'static str, f64> =
            [("setup_s", 0.123_456_789_012_3)].into_iter().collect();
        let j = metrics_json(&[("setup_s", "s")], &values);
        let v = json::parse(&j).unwrap();
        assert_eq!(
            v.get("setup_s")
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64),
            Some(0.123_456_789_012_3)
        );
    }
}
