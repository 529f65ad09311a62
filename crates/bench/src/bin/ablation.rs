//! Ablation study of MECH's design choices (not a paper figure; see
//! DESIGN.md §5):
//!
//! * `min_components` — the aggregation threshold below which gates run
//!   off-highway. Too low wastes shuttles on tiny bundles; too high strands
//!   medium bundles in SWAP routing.
//! * `entrance_candidates` — how many entrances each data qubit considers
//!   (a device-spec knob: each setting is a distinct device).
//!   One candidate forfeits the earliest-execution selection of §6.1.
//!
//! Usage: `cargo run --release -p mech-bench --bin ablation [-- --quick --csv]`

use mech::{CompilerConfig, DeviceSpec, GhzStyle};
use mech_bench::{run_cell, HarnessArgs};
use mech_circuit::benchmarks::Benchmark;

fn main() {
    let args = HarnessArgs::parse();
    let spec = if args.quick {
        DeviceSpec::square(5, 2, 2)
    } else {
        DeviceSpec::square(7, 2, 3)
    };

    println!("# ablation: aggregation threshold (min_components)");
    if args.csv {
        println!("min_components,program,depth_improvement,eff_improvement");
    } else {
        println!(
            "{:>14} {:<10} {:>18} {:>16}",
            "min_components", "program", "depth improvement", "eff improvement"
        );
    }
    for &min in &[2usize, 3, 5, 8] {
        let config = CompilerConfig {
            min_components: min,
            ..CompilerConfig::default()
        };
        for bench in [Benchmark::Qft, Benchmark::Qaoa] {
            let o = run_cell(spec.clone(), bench, 2024, config);
            if args.csv {
                println!(
                    "{min},{bench},{:.4},{:.4}",
                    o.depth_improvement(),
                    o.eff_improvement()
                );
            } else {
                println!(
                    "{:>14} {:<10} {:>17.1}% {:>15.1}%",
                    min,
                    bench.name(),
                    100.0 * o.depth_improvement(),
                    100.0 * o.eff_improvement()
                );
            }
        }
    }

    println!("\n# ablation: GHZ preparation scheme (paper Fig. 5 motivation)");
    if args.csv {
        println!("ghz_style,program,mech_depth,mech_measurements,depth_improvement");
    } else {
        println!(
            "{:>18} {:<10} {:>11} {:>14} {:>18}",
            "ghz_style", "program", "MECH depth", "measurements", "depth improvement"
        );
    }
    for (name, style) in [
        ("measurement-based", GhzStyle::MeasurementBased),
        ("chain", GhzStyle::Chain),
    ] {
        let config = CompilerConfig {
            ghz_style: style,
            ..CompilerConfig::default()
        };
        for bench in [Benchmark::Qft, Benchmark::Bv] {
            let o = run_cell(spec.clone(), bench, 2024, config);
            if args.csv {
                println!(
                    "{name},{bench},{},{},{:.4}",
                    o.mech.depth,
                    o.mech.measurements,
                    o.depth_improvement()
                );
            } else {
                println!(
                    "{:>18} {:<10} {:>11} {:>14} {:>17.1}%",
                    name,
                    bench.name(),
                    o.mech.depth,
                    o.mech.measurements,
                    100.0 * o.depth_improvement()
                );
            }
        }
    }

    println!("\n# ablation: entrance candidates per data qubit");
    if args.csv {
        println!("entrance_candidates,program,depth_improvement,eff_improvement");
    } else {
        println!(
            "{:>19} {:<10} {:>18} {:>16}",
            "entrance_candidates", "program", "depth improvement", "eff improvement"
        );
    }
    for &k in &[1usize, 2, 4, 8] {
        let config = CompilerConfig::default();
        for bench in [Benchmark::Qft, Benchmark::Qaoa] {
            let o = run_cell(
                spec.clone().with_entrance_candidates(k),
                bench,
                2024,
                config,
            );
            if args.csv {
                println!(
                    "{k},{bench},{:.4},{:.4}",
                    o.depth_improvement(),
                    o.eff_improvement()
                );
            } else {
                println!(
                    "{:>19} {:<10} {:>17.1}% {:>15.1}%",
                    k,
                    bench.name(),
                    100.0 * o.depth_improvement(),
                    100.0 * o.eff_improvement()
                );
            }
        }
    }
}
