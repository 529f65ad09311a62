//! The artifact/session contract under concurrency: any number of
//! [`CompileSession`]s running at once against one `Arc`-shared
//! [`DeviceArtifacts`] bundle must produce schedules bit-identical to
//! serial compiles. This pins the invariant of the compilation-as-a-service
//! split: the device tier is immutable, every mutable structure lives in
//! the session.

use std::sync::Arc;

use mech::{CompilerConfig, DeviceArtifacts, DeviceSpec, MechCompiler};
use mech_bench::programs;
use mech_circuit::Circuit;

/// The service must cope with more sessions than cores.
const CONCURRENCY: [usize; 2] = [1, 4];

fn spec() -> DeviceSpec {
    DeviceSpec::square(5, 2, 2)
}

fn mixed_programs(n: u32) -> Vec<Arc<Circuit>> {
    vec![
        Arc::new(programs::qft(n.min(20))),
        Arc::new(programs::vqe(n.min(20))),
        Arc::new(programs::qaoa(n.min(24))),
        Arc::new(programs::rand_sparse(n.min(24))),
    ]
}

/// Compiles `program` on `device` and renders the full op stream plus the
/// shuttle timeline — the strongest equality we can ask of two compiles.
fn schedule(device: &Arc<DeviceArtifacts>, program: &Circuit) -> String {
    let r = MechCompiler::new(Arc::clone(device), CompilerConfig::default())
        .compile(program)
        .expect("compiles");
    format!("{:?}|{:?}", r.circuit.ops(), r.shuttle_trace)
}

#[test]
fn concurrent_sessions_match_serial_goldens() {
    let device = spec().build_artifacts();
    let circuits = mixed_programs(device.num_data_qubits());
    // Serial reference schedules, one per program.
    let serial: Vec<String> = circuits.iter().map(|p| schedule(&device, p)).collect();
    for concurrency in CONCURRENCY {
        let got: Vec<(usize, String)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..concurrency * circuits.len())
                .map(|i| {
                    let which = i % circuits.len();
                    let device = &device;
                    let program = Arc::clone(&circuits[which]);
                    scope.spawn(move || (which, schedule(device, &program)))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (which, fp) in got {
            assert_eq!(
                fp, serial[which],
                "program {which} diverged at concurrency={concurrency}"
            );
        }
    }
}
