//! Smoke tests for the workspace surface itself: the umbrella crate's
//! re-exports must resolve, and the quickstart example must run to
//! completion — guarding the build-system wiring (manifests, dependency
//! edges, example targets) that no unit test sees.

use std::process::Command;

// Compile-time assertions: every library crate is reachable through the
// umbrella paths documented in the README. The state-vector oracle is a
// dev-dependency, not part of the umbrella.
use mech_repro::mech::{BaselineCompiler, CompilerConfig, DeviceSpec, MechCompiler, Metrics};
use mech_repro::mech_circuit::benchmarks::qft;
use mech_repro::mech_highway::ShuttleStats;
use mech_repro::mech_router::Mapping;
use mech_repro::mech_sim::Tableau;
use mech_statevec::State;

#[test]
fn umbrella_reexports_are_usable() {
    // The compiler is reachable both directly and through `mech`'s own
    // re-exports of the substrate crates.
    let device = DeviceSpec::square(5, 1, 2).build_artifacts();
    let program = qft(10);
    let config = CompilerConfig::default();

    let mech = MechCompiler::new(device.clone(), config)
        .compile(&program)
        .expect("MECH compiles");
    let baseline = BaselineCompiler::new(device.topology(), config)
        .compile(&program)
        .expect("baseline compiles");

    let m = mech.metrics();
    let b = Metrics::from_circuit(&baseline);
    assert!(m.depth > 0 && b.depth > 0);

    // `mech`'s nested re-export path used by mech-bench.
    let _: ShuttleStats = mech.shuttle_stats;
    let _: mech_repro::mech::mech_highway::ShuttleStats = mech.shuttle_stats;

    // The router's mapping type round-trips through the umbrella path.
    let slots: Vec<_> = device.topology().qubits().take(4).collect();
    let mapping = Mapping::trivial(4, &slots);
    assert!(mapping.is_consistent());

    // The verifier's tableau and the state-vector oracle are independent
    // of the compiler stack.
    let mut t = Tableau::new(2);
    t.h(0);
    t.cnot(0, 1);
    assert_eq!(t.num_qubits(), 2);
    let mut s = State::zero(2);
    s.h(0);
    s.cnot(0, 1);
    assert!((s.probability(0b11) - 0.5).abs() < 1e-12);
}

#[test]
fn quickstart_example_runs_to_completion() {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let output = Command::new(cargo)
        .args(["run", "--example", "quickstart"])
        .env("CARGO_NET_OFFLINE", "true")
        .output()
        .expect("spawns cargo");
    assert!(
        output.status.success(),
        "quickstart failed:\n--- stdout ---\n{}\n--- stderr ---\n{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("depth improvement"),
        "quickstart did not print its metrics:\n{stdout}"
    );
}
