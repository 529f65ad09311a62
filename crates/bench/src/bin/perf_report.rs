//! Compiler throughput tracker: times MECH and SABRE-baseline compilation
//! wall-clock across six benchmark families and appends a machine-readable
//! run record to `BENCH_compile.json`, so the repository accumulates a perf
//! trajectory across PRs.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p mech-bench --bin perf_report -- \
//!     [--quick] [--label <name>] [--out <path>] [--iters <k>]
//! cargo run --release -p mech-bench --bin perf_report -- --serve \
//!     [--quick] [--label <name>] [--serve-out <path>]
//! cargo run --release -p mech-bench --bin perf_report -- --check [--out <path>] [--serve-out <path>]
//! cargo run --release -p mech-bench --bin perf_report -- --degraded [--quick]
//! cargo run --release -p mech-bench --bin perf_report -- --verify [--quick]
//! ```
//!
//! `--quick` shrinks the device for a CI smoke run; `--label` names the run
//! record (e.g. `pre-refactor`); `--iters` controls how many timed
//! repetitions each cell gets (the minimum is reported; since PR 4 both
//! compilers also get one untimed warmup compile, which matters only for
//! `--iters 1` — min-of-k already discarded the cold run for k ≥ 2).
//! Every record holds one entry per (family, compiler) with the schema
//! `{family, compiler, qubits, gates, ms, gates_per_sec}` (older records
//! also carry a `threads` field); MECH cells additionally carry the
//! claim-engine breakdown `{claim_searches, claim_skips}`, and the harness
//! asserts the engine's fast paths engage on the QFT family (nonzero
//! skips, searches below the component count) — a CI-smoke guard against
//! the one-search engine silently regressing to per-candidate searches.
//!
//! `--serve` drives the multi-tenant front end instead: a ladder of
//! [`CompileService`] pools (1 worker, then 4) over one `Arc`-shared
//! device bundle, fed a mixed QFT/VQE/QAOA/rand-dense request stream, with
//! every served schedule asserted bit-identical to a direct serial
//! compile. Each rung appends `{label, mode, workers, cores, requests,
//! qubits, wall_ms, compiles_per_sec, p50_ms, p99_ms}` to
//! `BENCH_serve.json`.
//!
//! `--degraded` is the defect-tolerance smoke: it compiles the six timed
//! families on the canonical degraded device fixture
//! (`mech_bench::defects`, ≤ 2% dead qubits/links/highway nodes), audits
//! every schedule against the dead set, and prints a MECH-only table. It
//! appends nothing — the committed `BENCH_*.json` baselines stay pristine
//! — and exits nonzero if any family fails to compile or any schedule
//! touches a dead resource.
//!
//! `--verify` is the semantic-verification smoke: it compiles the three
//! Clifford families (`mech_bench::programs::CLIFFORD_FAMILIES`) on the
//! full 441-qubit device with trace recording on, replays each schedule on
//! the stabilizer backend under the standard outcome-policy sweep, and
//! prints per-family verify wall-clock alongside the event and protocol-
//! measurement counts. It appends nothing and exits nonzero on the first
//! miscompile — a CI guard that the compiler's output, not just its
//! byte-identity to goldens, is semantically correct at device scale.
//!
//! `--check` runs no benchmarks: it parses the *committed*
//! `BENCH_compile.json` and `BENCH_serve.json` and asserts the recorded
//! perf trajectories. For the compile file, the `post-csr` run must hold
//! the CSR routing-substrate bar (QFT and VQE MECH compile ≥ 10% faster
//! than `post-claim-engine`; both runs were recorded on the same machine,
//! so the ratio is meaningful where raw wall-clock in CI would not be).
//! For the serve file, the latest full-mode concurrent rung must hold the
//! serve bar against the latest full-mode serial rung: ≥ 2× compiles/sec
//! when the recording machine had ≥ 4 cores, else (artifact sharing and
//! queueing can't beat physics on one core) ≥ 0.9× — concurrency must be
//! overhead-free even where it cannot be faster. This keeps the baseline
//! files honest: a PR that regresses the hot path or the service and
//! silently re-records slower numbers fails CI.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use mech::{BaselineCompiler, CompileResult, CompilerConfig, DeviceSpec, MechCompiler};
use mech_bench::programs::{self, TIMED_FAMILIES};
use mech_bench::serve::{CompileService, ServeOptions, ServeOutcome};
use mech_circuit::Circuit;

struct Args {
    quick: bool,
    label: String,
    out: String,
    serve_out: String,
    iters: u32,
    check: bool,
    serve: bool,
    degraded: bool,
    verify: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        quick: false,
        label: "run".to_string(),
        out: "BENCH_compile.json".to_string(),
        serve_out: "BENCH_serve.json".to_string(),
        iters: 2,
        check: false,
        serve: false,
        degraded: false,
        verify: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => args.quick = true,
            "--check" => args.check = true,
            "--serve" => args.serve = true,
            "--degraded" => args.degraded = true,
            "--verify" => args.verify = true,
            "--label" => args.label = it.next().expect("--label needs a value"),
            "--out" => args.out = it.next().expect("--out needs a value"),
            "--serve-out" => args.serve_out = it.next().expect("--serve-out needs a value"),
            "--iters" => {
                args.iters = it
                    .next()
                    .expect("--iters needs a value")
                    .parse()
                    .expect("--iters takes a number")
            }
            other => {
                eprintln!(
                    "unknown argument {other}; supported: --quick --check --serve --degraded \
                     --verify --label <s> --out <path> --serve-out <path> --iters <k>"
                );
                std::process::exit(2);
            }
        }
    }
    args
}

/// The MECH `ms` cell for `(label, family)` in a `BENCH_compile.json`
/// body, scanning line-oriented records (the file is written one result
/// object per line by this binary).
fn mech_ms(body: &str, label: &str, family: &str) -> Option<f64> {
    let label_tag = format!("\"label\": \"{label}\"");
    let family_tag = format!("\"family\": \"{family}\"");
    let mut in_record = false;
    for line in body.lines() {
        if line.contains("\"label\": ") {
            in_record = line.contains(&label_tag);
        }
        if in_record && line.contains(&family_tag) && line.contains("\"compiler\": \"mech\"") {
            let ms = line.split("\"ms\": ").nth(1)?.split(',').next()?;
            return ms.trim().parse().ok();
        }
    }
    None
}

/// A numeric field from a single-line JSON record.
fn json_num(line: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\": ");
    let rest = line.split(&tag).nth(1)?;
    rest.trim_start()
        .split([',', '}'])
        .next()?
        .trim()
        .parse()
        .ok()
}

/// `--check`: asserts the committed compile trajectory (see module docs).
/// Exits nonzero with a diagnostic on violation.
fn check_trajectory(path: &str) {
    let body = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("--check needs the committed {path}: {e}"));
    let mut failed = false;
    for family in ["qft", "vqe"] {
        let base = mech_ms(&body, "post-claim-engine", family)
            .unwrap_or_else(|| panic!("{path} lacks a post-claim-engine {family} mech cell"));
        let csr = mech_ms(&body, "post-csr", family)
            .unwrap_or_else(|| panic!("{path} lacks a post-csr {family} mech cell"));
        let bar = base * 0.9;
        let ok = csr <= bar;
        println!(
            "check {family:<4}: post-claim-engine {base:.2} ms -> post-csr {csr:.2} ms \
             (bar {bar:.2} ms) {}",
            if ok { "ok" } else { "REGRESSED" }
        );
        failed |= !ok;
    }
    if failed {
        eprintln!("perf trajectory violated: post-csr must stay >= 10% below post-claim-engine");
        std::process::exit(1);
    }
}

/// `--check`: asserts the committed serve trajectory (see module docs).
/// Compares the latest full-mode serial (workers == 1) and concurrent
/// (workers ≥ 2) rungs; the required throughput ratio scales with the
/// *recorded* core count, so the bar is honest on any recording machine.
fn check_serve_trajectory(path: &str) {
    let body = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("--check needs the committed {path}: {e}"));
    let mut serial: Option<f64> = None;
    let mut concurrent: Option<(f64, f64, f64)> = None; // (cps, workers, cores)
    for line in body.lines() {
        if !line.contains("\"mode\": \"full\"") {
            continue;
        }
        let (Some(workers), Some(cps)) = (
            json_num(line, "workers"),
            json_num(line, "compiles_per_sec"),
        ) else {
            continue;
        };
        // Latest record wins: the file is append-only, so later lines
        // supersede earlier ones.
        if workers <= 1.0 {
            serial = Some(cps);
        } else {
            concurrent = Some((cps, workers, json_num(line, "cores").unwrap_or(1.0)));
        }
    }
    let serial = serial.unwrap_or_else(|| panic!("{path} lacks a full-mode serial serve record"));
    let (cps, workers, cores) =
        concurrent.unwrap_or_else(|| panic!("{path} lacks a full-mode concurrent serve record"));
    let ratio = cps / serial;
    // On a multi-core recorder the worker pool must scale; on fewer cores
    // than two workers, throughput parity (no concurrency overhead) is the
    // strongest honest bar.
    let bar = if cores >= 4.0 { 2.0 } else { 0.9 };
    let ok = ratio >= bar;
    println!(
        "check serve: serial {serial:.2} -> {workers:.0}-way {cps:.2} compiles/s \
         (ratio {ratio:.2}, bar {bar:.1} at {cores:.0} cores) {}",
        if ok { "ok" } else { "REGRESSED" }
    );
    if !ok {
        eprintln!("serve trajectory violated: concurrent throughput fell below the recorded bar");
        std::process::exit(1);
    }
}

struct Cell {
    family: &'static str,
    compiler: &'static str,
    qubits: u32,
    gates: usize,
    ms: f64,
    /// MECH only: `(claim_searches, claim_skips)` from one compile.
    claims: Option<(u64, u64)>,
}

impl Cell {
    fn gates_per_sec(&self) -> f64 {
        if self.ms <= 0.0 {
            0.0
        } else {
            self.gates as f64 / (self.ms / 1000.0)
        }
    }
}

/// Minimum wall-clock over `iters` timed runs of `f`, in milliseconds.
fn time_ms<F: FnMut()>(iters: u32, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iters.max(1) {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64() * 1000.0);
    }
    best
}

/// The device spec every perf run compiles against (441 physical qubits
/// full, 100 quick).
fn device_spec(quick: bool) -> DeviceSpec {
    if quick {
        DeviceSpec::square(5, 2, 2)
    } else {
        DeviceSpec::square(7, 3, 3)
    }
}

fn main() {
    let args = parse_args();
    if args.check {
        check_trajectory(&args.out);
        check_serve_trajectory(&args.serve_out);
        return;
    }
    if args.serve {
        run_serve(&args);
        return;
    }
    if args.degraded {
        run_degraded(&args);
        return;
    }
    if args.verify {
        run_verify(&args);
        return;
    }
    let device = device_spec(args.quick).cached();
    let config = CompilerConfig::default();
    let n = device.num_data_qubits();

    println!(
        "perf_report: {} device qubits, {} data qubits, label={:?}, iters={}",
        device.topology().num_qubits(),
        n,
        args.label,
        args.iters
    );
    println!(
        "{:<12} {:>7} {:>8} {:>12} {:>14} {:>12} {:>14}",
        "family", "qubits", "gates", "mech ms", "mech gates/s", "sabre ms", "sabre gates/s"
    );

    let mut cells: Vec<Cell> = Vec::new();
    for (family, gen) in TIMED_FAMILIES {
        let program = gen(n);
        let gates = program.len();

        let mech = MechCompiler::new(Arc::clone(&device), config);
        // Warmup compile doubles as the counter probe (counters are a pure
        // function of the schedule, not of timing).
        let probe = mech.compile(&program).expect("MECH compiles");
        if family == "qft" {
            // Hub self-claims alone would keep `claim_skips` nonzero, so
            // assert the property that actually matters: searches stay
            // below the component count (one per corridor growth, not one
            // per candidate entrance).
            assert!(
                probe.claim_skips > 0 && probe.claim_searches < probe.shuttle_stats.components,
                "claim-engine fast paths must engage on the QFT family \
                 (searches={}, skips={}, components={})",
                probe.claim_searches,
                probe.claim_skips,
                probe.shuttle_stats.components
            );
        }
        let mech_ms = time_ms(args.iters, || {
            mech.compile(&program).expect("MECH compiles");
        });
        let base = BaselineCompiler::new(device.topology(), config);
        // Matching warmup so both compilers are timed warm (the MECH probe
        // above would otherwise bias single-iteration runs).
        base.compile(&program).expect("baseline compiles");
        let sabre_ms = time_ms(args.iters, || {
            base.compile(&program).expect("baseline compiles");
        });

        let mech_cell = Cell {
            family,
            compiler: "mech",
            qubits: n,
            gates,
            ms: mech_ms,
            claims: Some((probe.claim_searches, probe.claim_skips)),
        };
        let sabre_cell = Cell {
            family,
            compiler: "sabre",
            qubits: n,
            gates,
            ms: sabre_ms,
            claims: None,
        };
        println!(
            "{:<12} {:>7} {:>8} {:>12.1} {:>14.0} {:>12.1} {:>14.0}",
            family,
            n,
            gates,
            mech_cell.ms,
            mech_cell.gates_per_sec(),
            sabre_cell.ms,
            sabre_cell.gates_per_sec()
        );
        cells.push(mech_cell);
        cells.push(sabre_cell);
    }

    let record = render_record(&args, &cells);
    append_record(&args.out, &record);
    println!("recorded run {:?} in {}", args.label, args.out);
}

/// The mixed request stream of the serve benchmark: the paper's three
/// structured families plus the aggregation-bound random family.
const SERVE_FAMILIES: [(&str, programs::FamilyGen); 4] = [
    ("qft", programs::qft),
    ("vqe", programs::vqe),
    ("qaoa", programs::qaoa),
    ("rand-dense", programs::rand_dense),
];

/// `--serve`: drives the [`CompileService`] ladder and records one
/// `BENCH_serve.json` rung per pool size (see module docs).
fn run_serve(args: &Args) {
    let device = device_spec(args.quick).cached();
    let n = device.num_data_qubits();
    let config = CompilerConfig::default();
    let rounds: usize = if args.quick { 2 } else { 4 };
    let requests = rounds * SERVE_FAMILIES.len();
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());

    let circuits: Vec<Arc<Circuit>> = SERVE_FAMILIES
        .iter()
        .map(|(_, gen)| Arc::new(gen(n)))
        .collect();
    // Serial reference schedules: every served compile must match these
    // bit-for-bit, or the shared-artifact tier leaked request state.
    let reference: Vec<CompileResult> = circuits
        .iter()
        .map(|p| {
            MechCompiler::new(Arc::clone(&device), config)
                .compile(p)
                .expect("reference compiles")
        })
        .collect();

    println!(
        "perf_report --serve: {} device qubits, {} data qubits, {} requests \
         ({} rounds x {} families), {} cores, label={:?}",
        device.topology().num_qubits(),
        n,
        requests,
        rounds,
        SERVE_FAMILIES.len(),
        cores,
        args.label
    );
    println!(
        "{:<8} {:>9} {:>16} {:>10} {:>10} {:>10}",
        "workers", "wall ms", "compiles/s", "p50 ms", "p99 ms", "identical"
    );

    for workers in [1usize, 4] {
        let service = CompileService::start(
            Arc::clone(&device),
            config,
            ServeOptions {
                workers,
                queue_capacity: 8,
            },
        );
        let wall = Instant::now();
        let tickets: Vec<(usize, mech_bench::serve::Ticket)> = (0..requests)
            .map(|i| {
                let which = i % circuits.len();
                (
                    which,
                    service
                        .submit(Arc::clone(&circuits[which]))
                        .expect("service accepts requests before shutdown"),
                )
            })
            .collect();
        let outcomes: Vec<(usize, ServeOutcome)> = tickets
            .into_iter()
            .map(|(which, t)| (which, t.wait().expect("serve worker stays alive")))
            .collect();
        let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
        service.shutdown();

        let mut latencies: Vec<f64> = Vec::with_capacity(outcomes.len());
        for (which, outcome) in &outcomes {
            let got = outcome.result.as_ref().expect("served compile succeeds");
            assert_eq!(
                got.circuit.ops(),
                reference[*which].circuit.ops(),
                "served schedule diverged from serial reference ({}, workers={workers})",
                SERVE_FAMILIES[*which].0
            );
            latencies.push(outcome.total_ms);
        }
        latencies.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        let p50 = percentile(&latencies, 50.0);
        let p99 = percentile(&latencies, 99.0);
        let cps = requests as f64 / (wall_ms / 1e3);
        println!(
            "{workers:<8} {wall_ms:>9.1} {cps:>16.2} {p50:>10.1} {p99:>10.1} {:>10}",
            "yes"
        );

        let record = render_serve_record(args, workers, cores, requests, n, wall_ms, cps, p50, p99);
        append_record(&args.serve_out, &record);
    }
    println!("recorded serve run {:?} in {}", args.label, args.serve_out);
}

/// `--degraded`: the defect-tolerance smoke. Compiles the six timed
/// families on the canonical degraded fixture and audits every schedule
/// against the dead set (see module docs). Appends no records.
fn run_degraded(args: &Args) {
    let spec = if args.quick {
        mech_bench::defects::degraded_square(5, 2, 2)
    } else {
        mech_bench::defects::degraded_441q()
    };
    let device = spec.build_artifacts();
    let defects = device.spec().defects();
    let config = CompilerConfig::default();
    let n = device.num_data_qubits();

    println!(
        "perf_report --degraded: {} device qubits, {} data qubits surviving, \
         {} dead qubits, {} dead links",
        device.topology().num_qubits(),
        n,
        defects.num_dead_qubits(),
        defects.num_dead_links()
    );
    println!(
        "{:<12} {:>7} {:>8} {:>12} {:>14} {:>8}",
        "family", "qubits", "gates", "mech ms", "mech gates/s", "audit"
    );

    for (family, gen) in TIMED_FAMILIES {
        let program = gen(n);
        let gates = program.len();
        let mech = MechCompiler::new(Arc::clone(&device), config);
        let probe = mech
            .compile(&program)
            .unwrap_or_else(|e| panic!("{family} must compile on the degraded fixture: {e}"));
        device
            .audit(&probe.circuit)
            .unwrap_or_else(|e| panic!("{family} schedule touches a dead resource: {e}"));
        let ms = time_ms(args.iters, || {
            mech.compile(&program).expect("MECH compiles");
        });
        let cell = Cell {
            family,
            compiler: "mech",
            qubits: n,
            gates,
            ms,
            claims: None,
        };
        println!(
            "{:<12} {:>7} {:>8} {:>12.1} {:>14.0} {:>8}",
            family,
            n,
            gates,
            cell.ms,
            cell.gates_per_sec(),
            "clean"
        );
    }
    println!("degraded-device smoke ok: all families compiled on surviving fabric");
}

/// `--verify`: the semantic-verification smoke. Compiles each Clifford
/// family with trace recording on, replays the schedule on the stabilizer
/// backend under the policy sweep, and prints verify wall-clock (see
/// module docs). Appends no records; panics on the first miscompile.
fn run_verify(args: &Args) {
    let device = device_spec(args.quick).cached();
    let n = device.num_data_qubits();
    let config = mech_bench::verify::recording(CompilerConfig::default());

    println!(
        "perf_report --verify: {} device qubits, {} data qubits",
        device.topology().num_qubits(),
        n
    );
    println!(
        "{:<14} {:>7} {:>8} {:>8} {:>10} {:>12} {:>12}",
        "family", "qubits", "gates", "events", "protocol", "compile ms", "verify ms"
    );

    for (family, gen) in programs::CLIFFORD_FAMILIES {
        let program = gen(n);
        let gates = program.len();
        let t = Instant::now();
        let result = MechCompiler::new(Arc::clone(&device), config)
            .compile(&program)
            .unwrap_or_else(|e| panic!("{family} must compile: {e}"));
        let compile_ms = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let reports = mech_bench::verify::verify_compiled(&program, &result)
            .unwrap_or_else(|e| panic!("{family} schedule failed semantic verification: {e}"));
        let verify_ms = t.elapsed().as_secs_f64() * 1e3;
        println!(
            "{:<14} {:>7} {:>8} {:>8} {:>10} {:>12.1} {:>12.1}",
            family,
            n,
            gates,
            reports[0].events,
            reports[0].protocol_measurements,
            compile_ms,
            verify_ms
        );
    }
    println!("semantic-verification smoke ok: all clifford families verified under the sweep");
}

/// Nearest-rank percentile of an ascending-sorted slice.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Renders one serve rung as a single-line JSON object (single-line so the
/// `--check` scanner stays line-oriented).
#[allow(clippy::too_many_arguments)]
fn render_serve_record(
    args: &Args,
    workers: usize,
    cores: usize,
    requests: usize,
    qubits: u32,
    wall_ms: f64,
    cps: f64,
    p50: f64,
    p99: f64,
) -> String {
    format!(
        "  {{\"label\": \"{}\", \"mode\": \"{}\", \"workers\": {workers}, \"cores\": {cores}, \
         \"requests\": {requests}, \"qubits\": {qubits}, \"wall_ms\": {wall_ms:.1}, \
         \"compiles_per_sec\": {cps:.2}, \"p50_ms\": {p50:.1}, \"p99_ms\": {p99:.1}}}",
        json_escape(&args.label),
        if args.quick { "quick" } else { "full" },
    )
}

/// Renders one run record as a JSON object (hand-rolled: the workspace has
/// no registry access, so no serde).
fn render_record(args: &Args, cells: &[Cell]) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "  {{\"label\": \"{}\", \"mode\": \"{}\", \"iters\": {}, \"results\": [",
        json_escape(&args.label),
        if args.quick { "quick" } else { "full" },
        args.iters
    );
    for (i, c) in cells.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let claims = c.claims.map_or(String::new(), |(searches, skips)| {
            format!(", \"claim_searches\": {searches}, \"claim_skips\": {skips}")
        });
        let _ = write!(
            s,
            "{sep}\n    {{\"family\": \"{}\", \"compiler\": \"{}\", \"qubits\": {}, \"gates\": {}, \"ms\": {:.2}, \"gates_per_sec\": {:.0}{}}}",
            c.family,
            c.compiler,
            c.qubits,
            c.gates,
            c.ms,
            c.gates_per_sec(),
            claims
        );
    }
    s.push_str("\n  ]}");
    s
}

/// Escapes a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Appends a record to the JSON array in `path`, creating the file if
/// missing. The file is always a single top-level array of run records.
fn append_record(path: &str, record: &str) {
    let body = match std::fs::read_to_string(path) {
        Ok(existing) => {
            let trimmed = existing.trim_end();
            let without_close = trimmed
                .strip_suffix(']')
                .unwrap_or_else(|| panic!("{path} is not a JSON array"))
                .trim_end();
            let without_close = without_close.strip_suffix(',').unwrap_or(without_close);
            if without_close.trim_end().ends_with('[') {
                format!("{without_close}\n{record}\n]\n")
            } else {
                format!("{without_close},\n{record}\n]\n")
            }
        }
        Err(_) => format!("[\n{record}\n]\n"),
    };
    std::fs::write(path, body).expect("write benchmark record file");
}
