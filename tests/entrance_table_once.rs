//! Verifies entrance tables are built once per *device*, not per compile.
//!
//! Group assembly used to clone entrance-candidate vectors per multi-target
//! gate, then PR 2 hoisted the eager [`mech_highway::EntranceTable`] to
//! once per compile. The artifact/session split hoists it further: the
//! table lives in the immutable [`mech::DeviceArtifacts`] tier, so the
//! number of BFS entrance searches must equal the number of data qubits
//! per *device bundle* — zero per compile — no matter how many
//! compilations or sessions the bundle serves.
//!
//! This file deliberately holds a single test: the search counter is
//! process-global, and cargo gives every integration-test file its own
//! process.

use mech::{CompilerConfig, DeviceSpec, MechCompiler};
use mech_circuit::benchmarks::Benchmark;
use mech_highway::entrance_search_count;

#[test]
fn entrance_tables_are_built_once_per_device() {
    let spec = DeviceSpec::square(6, 2, 2);

    // Building the artifact bundle performs exactly one search per data
    // qubit.
    let before_build = entrance_search_count();
    let device = spec.build_artifacts();
    let data_qubits = u64::from(device.num_data_qubits());
    assert_eq!(
        entrance_search_count() - before_build,
        data_qubits,
        "expected exactly one entrance search per data qubit per device build"
    );

    // QAOA forms many multi-target groups, each touching many entrance
    // lookups — a per-group (or per-compile) search would advance the
    // counter far past zero.
    let program = Benchmark::Qaoa.generate(data_qubits as u32, 7);
    let compiler = MechCompiler::new(device, CompilerConfig::default());

    let before_compiles = entrance_search_count();
    let r = compiler.compile(&program).expect("compiles");
    compiler.compile(&program).expect("compiles");
    assert!(
        r.shuttle_stats.highway_gates > 10,
        "program must form plenty of groups (got {})",
        r.shuttle_stats.highway_gates
    );
    assert_eq!(
        entrance_search_count(),
        before_compiles,
        "compiling must not search entrances: the table is a device artifact"
    );
}
