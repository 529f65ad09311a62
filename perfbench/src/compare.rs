//! Compares two sets of benchmark result records, metric by metric.
//!
//! The verdict follows the rule the benchmark is accepted under:
//!
//! * **better** — the head run wins at least nine tenths of the paired runs
//!   (ties count for neither side) and the medians differ, in the better
//!   direction, by more than the base runs' own interquartile range;
//! * **worse** — the head median is worse than the base median by more
//!   than the metric's bound (a share of the base median);
//! * **unresolved** — the base runs spread wider than the bound, so a
//!   regression within the noise cannot be ruled out (unless every head run
//!   beats every base run);
//! * **same** — none of the above: no gain shown, no regression beyond the
//!   bound.

use std::collections::BTreeMap;

use crate::json::Value;
use crate::stats::{median, quartiles};

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// One run's record: which workload and seed, and its metric values.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    pub workload: String,
    pub seed: u64,
    pub metrics: BTreeMap<String, f64>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Median and quartiles of one side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    pub fn of(xs: &[f64]) -> Option<Summary> {
        let m = median(xs)?;
        let (q1, q3) = quartiles(xs).unwrap_or((m, m));
        Some(Summary { median: m, q1, q3 })
    }
}

/// The comparison of one (workload, metric) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub base: Summary,
    pub head: Summary,
    pub pairs: usize,
    pub win_share: f64,
    pub verdict: Verdict,
}

/// Reads the end-to-end metric specs from a parsed `BENCHMARK.json`.
pub fn metric_specs(benchmark: &Value) -> Result<Vec<MetricSpec>, String> {
    let list = benchmark
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json lacks end_to_end")?;
    list.iter()
        .map(|m| {
            let field = |k: &str| m.get(k).ok_or(format!("metric lacks {k}"));
            Ok(MetricSpec {
                name: field("name")?.as_str().ok_or("name")?.to_string(),
                unit: field("unit")?.as_str().ok_or("unit")?.to_string(),
                lower_is_better: field("better")?.as_str() == Some("lower"),
                bound: field("bound")?.as_f64().ok_or("bound")?,
            })
        })
        .collect()
}

/// Reads a result record written by the runner.
pub fn record(v: &Value) -> Result<Record, String> {
    let workload = v
        .get("workload")
        .and_then(Value::as_str)
        .ok_or("record lacks workload")?
        .to_string();
    let seed = v
        .get("seed")
        .and_then(Value::as_f64)
        .ok_or("record lacks seed")? as u64;
    let metrics = v
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or("record lacks metrics")?
        .iter()
        .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok(Record {
        workload,
        seed,
        metrics,
    })
}

/// Pairs head and base values: by seed where both sides ran it, otherwise
/// in run order.
fn pairs(base: &[(u64, f64)], head: &[(u64, f64)]) -> Vec<(f64, f64)> {
    let by_seed: Vec<(f64, f64)> = base
        .iter()
        .filter_map(|&(s, b)| head.iter().find(|&&(t, _)| t == s).map(|&(_, h)| (b, h)))
        .collect();
    if by_seed.is_empty() {
        base.iter()
            .zip(head)
            .map(|(&(_, b), &(_, h))| (b, h))
            .collect()
    } else {
        by_seed
    }
}

/// The verdict for one metric given both sides' values (and their pairing).
pub fn verdict(
    spec: &MetricSpec,
    base: &[f64],
    head: &[f64],
    paired: &[(f64, f64)],
) -> (Verdict, f64) {
    let (Some(b), Some(h)) = (Summary::of(base), Summary::of(head)) else {
        return (Verdict::Unresolved, 0.0);
    };
    // `gain(x, y) > 0` when y is better than x.
    let gain = |x: f64, y: f64| if spec.lower_is_better { x - y } else { y - x };
    let wins = paired.iter().filter(|&&(x, y)| gain(x, y) > 0.0).count();
    let win_share = if paired.is_empty() {
        0.0
    } else {
        wins as f64 / paired.len() as f64
    };
    let base_iqr = b.q3 - b.q1;
    let delta = gain(b.median, h.median);
    if win_share >= 0.9 && delta > base_iqr {
        return (Verdict::Better, win_share);
    }
    let scale = b.median.abs();
    let rel = |x: f64| {
        if scale > 0.0 {
            x / scale
        } else if x > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    };
    if rel(base_iqr) > spec.bound {
        let worst_head = head
            .iter()
            .copied()
            .reduce(|x, y| if gain(x, y) < 0.0 { y } else { x });
        let best_base = base
            .iter()
            .copied()
            .reduce(|x, y| if gain(x, y) > 0.0 { y } else { x });
        let head_dominates =
            matches!((worst_head, best_base), (Some(w), Some(bb)) if gain(bb, w) > 0.0);
        return (
            if head_dominates {
                Verdict::Same
            } else {
                Verdict::Unresolved
            },
            win_share,
        );
    }
    if rel(-delta) > spec.bound {
        (Verdict::Worse, win_share)
    } else {
        (Verdict::Same, win_share)
    }
}

/// Compares every (workload, metric) pair present on both sides.
pub fn compare(specs: &[MetricSpec], base: &[Record], head: &[Record]) -> Vec<Row> {
    let workloads: std::collections::BTreeSet<&str> =
        base.iter().map(|r| r.workload.as_str()).collect();
    let mut rows = Vec::new();
    for w in workloads {
        for spec in specs {
            let side = |rs: &[Record]| -> Vec<(u64, f64)> {
                rs.iter()
                    .filter(|r| r.workload == w)
                    .filter_map(|r| Some((r.seed, *r.metrics.get(&spec.name)?)))
                    .collect()
            };
            let (b, h) = (side(base), side(head));
            if b.is_empty() || h.is_empty() {
                continue;
            }
            let values = |xs: &[(u64, f64)]| xs.iter().map(|&(_, v)| v).collect::<Vec<_>>();
            let (bv, hv) = (values(&b), values(&h));
            let paired = pairs(&b, &h);
            let (verdict, win_share) = verdict(spec, &bv, &hv, &paired);
            rows.push(Row {
                workload: w.to_string(),
                metric: spec.name.clone(),
                unit: spec.unit.clone(),
                base: Summary::of(&bv).expect("non-empty"),
                head: Summary::of(&hv).expect("non-empty"),
                pairs: paired.len(),
                win_share,
                verdict,
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn latency(bound: f64) -> MetricSpec {
        MetricSpec {
            name: "latency_ms".into(),
            unit: "ms".into(),
            lower_is_better: true,
            bound,
        }
    }

    fn paired(b: &[f64], h: &[f64]) -> Vec<(f64, f64)> {
        b.iter().copied().zip(h.iter().copied()).collect()
    }

    const BASE: [f64; 10] = [
        100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0,
    ];

    #[test]
    fn a_clear_win_is_better() {
        let head: Vec<f64> = BASE.iter().map(|x| x * 0.8).collect();
        let (v, share) = verdict(&latency(0.1), &BASE, &head, &paired(&BASE, &head));
        assert_eq!(v, Verdict::Better);
        assert_eq!(share, 1.0);
    }

    #[test]
    fn a_win_within_the_base_spread_is_not_better() {
        // Every pair wins, but by less than the base interquartile range.
        let head: Vec<f64> = BASE.iter().map(|x| x - 0.05).collect();
        let (v, share) = verdict(&latency(0.1), &BASE, &head, &paired(&BASE, &head));
        assert_eq!(share, 1.0);
        assert_eq!(v, Verdict::Same);
    }

    #[test]
    fn a_regression_beyond_the_bound_is_worse_and_within_it_is_same() {
        let slow: Vec<f64> = BASE.iter().map(|x| x * 1.2).collect();
        assert_eq!(
            verdict(&latency(0.1), &BASE, &slow, &paired(&BASE, &slow)).0,
            Verdict::Worse
        );
        let slight: Vec<f64> = BASE.iter().map(|x| x * 1.05).collect();
        assert_eq!(
            verdict(&latency(0.1), &BASE, &slight, &paired(&BASE, &slight)).0,
            Verdict::Same
        );
    }

    #[test]
    fn higher_is_better_metrics_flip_direction() {
        let spec = MetricSpec {
            lower_is_better: false,
            ..latency(0.1)
        };
        let up: Vec<f64> = BASE.iter().map(|x| x * 1.3).collect();
        assert_eq!(
            verdict(&spec, &BASE, &up, &paired(&BASE, &up)).0,
            Verdict::Better
        );
        let down: Vec<f64> = BASE.iter().map(|x| x * 0.7).collect();
        assert_eq!(
            verdict(&spec, &BASE, &down, &paired(&BASE, &down)).0,
            Verdict::Worse
        );
    }

    #[test]
    fn noise_wider_than_the_bound_is_unresolved() {
        let noisy = [
            50.0, 150.0, 80.0, 120.0, 60.0, 140.0, 100.0, 90.0, 110.0, 70.0,
        ];
        let head: Vec<f64> = noisy.iter().map(|x| x * 1.05).collect();
        assert_eq!(
            verdict(&latency(0.1), &noisy, &head, &paired(&noisy, &head)).0,
            Verdict::Unresolved
        );
        // ... unless every head run beats every base run.
        let fast = [40.0; 10];
        assert_ne!(
            verdict(&latency(0.1), &noisy, &fast, &paired(&noisy, &fast)).0,
            Verdict::Unresolved
        );
    }

    #[test]
    fn records_pair_by_seed_and_group_by_workload() {
        let rec = |w: &str, seed: u64, v: f64| Record {
            workload: w.into(),
            seed,
            metrics: [("latency_ms".to_string(), v)].into_iter().collect(),
        };
        let base: Vec<Record> = (0..10).map(|s| rec("mix", s, 100.0 + s as f64)).collect();
        // Head seeds in reverse order: pairing must follow seeds, not order.
        let head: Vec<Record> = (0..10)
            .rev()
            .map(|s| rec("mix", s, 99.0 + s as f64))
            .collect();
        let rows = compare(&[latency(0.1)], &base, &head);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].pairs, 10);
        assert_eq!(rows[0].win_share, 1.0);
        assert_eq!(
            rows[0].verdict,
            Verdict::Same,
            "a 1% gain is inside the base spread"
        );
    }
}
