//! Compares two sets of benchmark result records.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml --bin compare -- \
//!     [--spec BENCHMARK.json] <base> <head>
//! ```
//!
//! `<base>` and `<head>` are directories of result records (the runner
//! writes one per run under `.bench_out/results/`) or single record files.
//! Only untraced records are compared. For every (workload, end-to-end
//! metric) pair the command prints each side's median and quartiles, the
//! share of seed-paired runs the head won, and a verdict (see
//! `perfbench::compare`). It exits 1 if any verdict is `worse`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use perfbench::compare::{compare, metric_specs, record, Record, Verdict};
use perfbench::json::{self, Value};

fn usage() -> ExitCode {
    eprintln!("usage: compare [--spec BENCHMARK.json] <base dir|file> <head dir|file>");
    ExitCode::from(2)
}

fn load(path: &Path) -> Result<Vec<Record>, String> {
    let files: Vec<PathBuf> = if path.is_dir() {
        let mut v: Vec<PathBuf> = std::fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        v.sort();
        v
    } else {
        vec![path.to_path_buf()]
    };
    let mut out = Vec::new();
    for f in files {
        let text = std::fs::read_to_string(&f).map_err(|e| format!("{}: {e}", f.display()))?;
        let v = json::parse(&text).map_err(|e| format!("{}: {e}", f.display()))?;
        if v.get("trace").and_then(Value::as_f64) == Some(0.0) {
            out.push(record(&v).map_err(|e| format!("{}: {e}", f.display()))?);
        }
    }
    Ok(out)
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut spec_path = PathBuf::from("BENCHMARK.json");
    if args.first().map(String::as_str) == Some("--spec") {
        if args.len() < 2 {
            return usage();
        }
        spec_path = PathBuf::from(args.remove(1));
        args.remove(0);
    }
    let [base, head] = args.as_slice() else {
        return usage();
    };
    let run = || -> Result<bool, String> {
        let spec_text = std::fs::read_to_string(&spec_path)
            .map_err(|e| format!("{}: {e}", spec_path.display()))?;
        let specs = metric_specs(&json::parse(&spec_text)?)?;
        let (b, h) = (load(Path::new(base))?, load(Path::new(head))?);
        let rows = compare(&specs, &b, &h);
        println!(
            "{:<18} {:<18} {:>12} {:>25} {:>12} {:>25} {:>6} {:>5} verdict",
            "workload",
            "metric",
            "base median",
            "base q1..q3",
            "head median",
            "head q1..q3",
            "wins",
            "pairs"
        );
        for r in &rows {
            println!(
                "{:<18} {:<18} {:>12.4} {:>25} {:>12.4} {:>25} {:>6.2} {:>5} {}",
                r.workload,
                format!("{} ({})", r.metric, r.unit),
                r.base.median,
                format!("{:.4}..{:.4}", r.base.q1, r.base.q3),
                r.head.median,
                format!("{:.4}..{:.4}", r.head.q1, r.head.q3),
                r.win_share,
                r.pairs,
                r.verdict.as_str()
            );
        }
        Ok(rows.iter().any(|r| r.verdict == Verdict::Worse))
    };
    match run() {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => ExitCode::from(1),
        Err(e) => {
            eprintln!("compare: {e}");
            ExitCode::from(2)
        }
    }
}
