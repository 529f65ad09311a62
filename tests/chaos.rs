//! Chaos suite: deterministic fault injection × mixed workloads through
//! the compile service (`--features fault-inject`).
//!
//! The rails, from DESIGN.md §12: with faults firing at every named site,
//! in both error and panic mode, the service never deadlocks, never loses
//! a ticket, sheds expired requests with structured errors, reconciles
//! `submitted = served + shed + failed`, and — because injection is the
//! only source of nondeterminism — compiles run after the plan disarms
//! are bit-identical to direct serial compiles.
//!
//! Fault plans are process-global (serve workers are threads), so every
//! test serializes on [`chaos_lock`].
#![cfg(feature = "fault-inject")]

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use mech::mech_chiplet::fault::{arm, disarm, FaultMode, FaultPlan, FaultSite};
use mech::mech_chiplet::{DefectMap, LinkKind, PhysQubit};
use mech::{CompileError, CompilerConfig, DeviceSpec, MechCompiler, Qubit, STALL_ROUND_LIMIT};
use mech_bench::serve::{CompileService, Request, ServeError, ServeOptions, Ticket};
use mech_circuit::benchmarks::{bernstein_vazirani, qft};
use mech_circuit::Circuit;

/// Serializes armed plans across the test binary's threads.
static CHAOS_LOCK: Mutex<()> = Mutex::new(());

fn chaos_lock() -> MutexGuard<'static, ()> {
    match CHAOS_LOCK.lock() {
        Ok(g) => g,
        // A failed assertion in another chaos test poisons the lock; the
        // serialization it provides is intact.
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// A guard that disarms on drop, so a panicking test cannot leak an armed
/// plan into the next one.
struct Armed;

impl Armed {
    fn plan(plan: FaultPlan) -> Self {
        arm(plan);
        Armed
    }
}

impl Drop for Armed {
    fn drop(&mut self) {
        let _ = disarm();
    }
}

fn device() -> Arc<mech::DeviceArtifacts> {
    DeviceSpec::square(5, 1, 2).build_artifacts()
}

fn workload(device: &mech::DeviceArtifacts) -> Circuit {
    qft(device.num_data_qubits().min(20))
}

fn single_worker(device: Arc<mech::DeviceArtifacts>) -> CompileService {
    CompileService::start(
        device,
        CompilerConfig::default(),
        ServeOptions {
            workers: 1,
            queue_capacity: 8,
        },
    )
}

/// Waits with a generous bound: a deadlock shows up as a test failure
/// here instead of a hung suite.
fn bounded_wait(ticket: &Ticket) -> Result<mech_bench::serve::ServeOutcome, ServeError> {
    ticket.wait_timeout(Duration::from_secs(120))
}

#[test]
fn error_injection_at_every_site_degrades_structurally() {
    let _serial = chaos_lock();
    let device = device();
    let program = workload(&device);
    let direct = MechCompiler::new(Arc::clone(&device), CompilerConfig::default())
        .compile(&program)
        .unwrap();

    for site in FaultSite::ALL {
        let service = single_worker(Arc::clone(&device));
        let report = {
            let _armed = Armed::plan(
                FaultPlan::new()
                    .fail_nth(site, 1, FaultMode::Error)
                    .fail_nth(site, 2, FaultMode::Error),
            );
            let ticket = service.submit(Arc::new(program.clone())).unwrap();
            let outcome = bounded_wait(&ticket).unwrap();
            // Error-mode faults degrade like the site's natural failure:
            // most recover transparently, and the ones that cannot must
            // fail with a structured *server-side* error — never a panic,
            // never a livelock.
            match outcome.result {
                Ok(_) => {}
                Err(e) => assert!(!e.is_client_error(), "site {site}: {e}"),
            }
            disarm()
        };
        assert!(
            report.fired() >= 1,
            "site {site} was never hit by the workload"
        );

        // Post-fault compiles on the surviving worker are bit-identical
        // to direct serial compiles.
        let after = bounded_wait(&service.submit(Arc::new(program.clone())).unwrap())
            .unwrap()
            .result
            .unwrap();
        assert_eq!(after.circuit.ops(), direct.circuit.ops(), "site {site}");
        let stats = service.shutdown();
        assert_eq!(stats.submitted, stats.served + stats.shed + stats.failed);
        assert_eq!(stats.panicked, 0);
        assert_eq!(stats.worker_restarts, 0);
    }
}

#[test]
fn panic_injection_at_every_site_is_isolated_to_the_request() {
    let _serial = chaos_lock();
    let device = device();
    let program = workload(&device);
    let direct = MechCompiler::new(Arc::clone(&device), CompilerConfig::default())
        .compile(&program)
        .unwrap();

    for site in FaultSite::ALL {
        let service = single_worker(Arc::clone(&device));
        let report = {
            let _armed = Armed::plan(FaultPlan::new().fail_nth(site, 1, FaultMode::Panic));
            let ticket = service.submit(Arc::new(program.clone())).unwrap();
            let outcome = bounded_wait(&ticket).unwrap();
            let err = outcome.result.unwrap_err();
            assert!(
                matches!(err, CompileError::Internal { ref detail } if detail.contains(site.name())),
                "site {site}: {err}"
            );
            disarm()
        };
        assert_eq!(report.fired(), 1, "site {site}");

        // The worker survived the panic: the same service keeps serving,
        // bit-identically.
        let after = bounded_wait(&service.submit(Arc::new(program.clone())).unwrap())
            .unwrap()
            .result
            .unwrap();
        assert_eq!(after.circuit.ops(), direct.circuit.ops(), "site {site}");
        let stats = service.shutdown();
        assert_eq!(stats.panicked, 1, "site {site}");
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.served, 1);
        assert_eq!(stats.submitted, stats.served + stats.shed + stats.failed);
    }
}

#[test]
fn persistent_commit_faults_surface_stalled_not_livelock() {
    let _serial = chaos_lock();
    let device = device();
    let compiler = MechCompiler::new(Arc::clone(&device), CompilerConfig::default());
    // Two plain CNOTs: no highway groups, so every execution path goes
    // through the regular commit (or the forced-progress fallback) — and
    // a commit site that never succeeds must surface as `Stalled` after
    // the watchdog's round limit, not spin forever.
    let mut program = Circuit::new(4);
    program.cnot(Qubit(0), Qubit(1)).unwrap();
    program.cnot(Qubit(2), Qubit(3)).unwrap();
    let _armed =
        Armed::plan(FaultPlan::new().fail_from(FaultSite::RegularCommit, 1, FaultMode::Error));
    let err = compiler.compile(&program).unwrap_err();
    assert_eq!(
        err,
        CompileError::Stalled {
            rounds: u64::from(STALL_ROUND_LIMIT)
        }
    );
    assert!(!err.is_client_error());
}

#[test]
fn random_fault_plans_never_deadlock_and_stats_reconcile() {
    let _serial = chaos_lock();
    let device = device();
    let config = CompilerConfig::default();
    let n = device.num_data_qubits();
    let programs: Vec<Arc<Circuit>> = vec![
        Arc::new(qft(n.min(16))),
        Arc::new(bernstein_vazirani(n.min(24), 5)),
        Arc::new(Circuit::new(2)),
        Arc::new(Circuit::new(500)), // TooManyQubits: a failed request
    ];
    let reference: Vec<_> = programs
        .iter()
        .map(|p| MechCompiler::new(Arc::clone(&device), config).compile(p))
        .collect();

    for seed in 0..10u64 {
        let service = CompileService::start(
            Arc::clone(&device),
            config,
            ServeOptions {
                workers: 2,
                queue_capacity: 4,
            },
        );
        {
            let _armed = Armed::plan(FaultPlan::seeded(seed, 5));
            let tickets: Vec<(usize, Ticket)> = (0..8)
                .map(|i| {
                    let which = i % programs.len();
                    (which, service.submit(Arc::clone(&programs[which])).unwrap())
                })
                .collect();
            for (which, ticket) in tickets {
                // Never a lost ticket, never a deadlock: every wait
                // resolves (well under the bound) with an outcome.
                let outcome = bounded_wait(&ticket)
                    .unwrap_or_else(|e| panic!("seed {seed}: lost ticket ({e})"));
                match outcome.result {
                    Ok(got) => {
                        // An injected error may reroute the compile down
                        // its natural degradation path — a different but
                        // valid schedule (e.g. a failed claim demotes a
                        // group to regular routing, changing swap and
                        // ancilla-measurement counts). The request must
                        // still have been compilable at all.
                        assert!(reference[which].is_ok(), "seed {seed}");
                        assert!(
                            programs[which].is_empty() || got.circuit.depth() > 0,
                            "seed {seed}"
                        );
                    }
                    Err(e) => {
                        let expected_client = reference[which].is_err();
                        assert_eq!(e.is_client_error(), expected_client, "seed {seed}: {e}");
                    }
                }
            }
            disarm();
        }
        // Post-fault: the pool serves bit-identically again.
        let after = bounded_wait(&service.submit(Arc::clone(&programs[0])).unwrap())
            .unwrap()
            .result
            .unwrap();
        assert_eq!(
            after.circuit.ops(),
            reference[0].as_ref().unwrap().circuit.ops(),
            "seed {seed}"
        );
        let stats = service.shutdown();
        assert_eq!(stats.submitted, 9, "seed {seed}");
        assert_eq!(
            stats.submitted,
            stats.served + stats.shed + stats.failed,
            "seed {seed}: {stats:?}"
        );
        assert_eq!(stats.worker_restarts, 0, "seed {seed}");
    }
}

#[test]
fn device_defect_mid_epoch_flip_stays_transient_and_deterministic() {
    let _serial = chaos_lock();
    let device = device();
    let program = workload(&device);
    let config = CompilerConfig::default();

    // The persistent calibration flip kills the same canonical link the
    // `device.defect` injector degrades transiently: the first cross-chip
    // link in scan order.
    let topo = device.topology();
    let (a, b) = (0..topo.num_qubits())
        .map(PhysQubit)
        .find_map(|q| {
            topo.neighbor_links(q)
                .find(|l| l.kind == LinkKind::CrossChip && q < l.to)
                .map(|l| (q, l.to))
        })
        .unwrap();
    let degraded_spec = device
        .spec()
        .clone()
        .with_defects(DefectMap::new().with_dead_link(a, b));
    let degraded = degraded_spec.build_artifacts();
    let direct_degraded = MechCompiler::new(Arc::clone(&degraded), config)
        .compile(&program)
        .unwrap();
    degraded.audit(&direct_degraded.circuit).unwrap();

    let service = single_worker(Arc::clone(&device));
    let report = {
        let _armed =
            Armed::plan(FaultPlan::new().fail_nth(FaultSite::DeviceDefect, 1, FaultMode::Error));
        let outcome = bounded_wait(&service.submit(Arc::new(program.clone())).unwrap()).unwrap();
        // The injected defect reroutes this one request onto the degraded
        // bundle — deterministically the same schedule the persistent flip
        // will produce below.
        let got = outcome.result.unwrap();
        assert_eq!(got.circuit.ops(), direct_degraded.circuit.ops());
        disarm()
    };
    assert_eq!(report.fired(), 1);

    // Mid-epoch calibration flip: the link now goes dead *persistently*
    // via an epoch swap, and the new epoch serves the same schedule the
    // transient injection produced.
    let degraded_spec = device
        .spec()
        .clone()
        .with_defects(DefectMap::new().with_dead_link(a, b));
    service.reconfigure(degraded_spec).wait().unwrap();
    let got = bounded_wait(&service.submit(Arc::new(program.clone())).unwrap())
        .unwrap()
        .result
        .unwrap();
    assert_eq!(got.circuit.ops(), direct_degraded.circuit.ops());

    let stats = service.shutdown();
    assert_eq!(stats.epoch, 1);
    assert_eq!(stats.submitted, 2);
    assert_eq!(stats.submitted, stats.served + stats.shed + stats.failed);
}

#[test]
fn recovered_compiles_verify_semantically_at_every_fault_site() {
    let _serial = chaos_lock();
    let device = device();
    // A Clifford workload, so the serve-layer verify gate actually proves
    // the schedule instead of skipping (qft would be screened).
    let program = Arc::new(bernstein_vazirani(device.num_data_qubits().min(24), 5));

    for site in FaultSite::ALL {
        let service = single_worker(Arc::clone(&device));
        {
            let _armed = Armed::plan(FaultPlan::new().fail_nth(site, 1, FaultMode::Error));
            let ticket = service
                .submit_request(Request::new(Arc::clone(&program)).with_verify(true))
                .unwrap();
            let outcome = bounded_wait(&ticket).unwrap();
            // A transparently recovered compile is not exempt from
            // semantics: whatever degradation path the fault rerouted it
            // down, the served schedule must still prove out on the
            // stabilizer backend.
            match outcome.result {
                Ok(_) => assert!(
                    outcome.verified,
                    "site {site}: recovered compile must verify"
                ),
                Err(e) => assert!(!e.is_client_error(), "site {site}: {e}"),
            }
            disarm();
        }

        // Post-fault, the surviving worker still serves verified compiles.
        let outcome = bounded_wait(
            &service
                .submit_request(Request::new(Arc::clone(&program)).with_verify(true))
                .unwrap(),
        )
        .unwrap();
        assert!(outcome.result.is_ok(), "site {site}");
        assert!(outcome.verified, "site {site}");
        let stats = service.shutdown();
        assert_eq!(stats.miscompiled, 0, "site {site}");
        assert_eq!(stats.submitted, stats.served + stats.shed + stats.failed);
    }
}

#[test]
fn fault_reports_account_every_trip() {
    let _serial = chaos_lock();
    let device = device();
    let compiler = MechCompiler::new(Arc::clone(&device), CompilerConfig::default());
    let program = workload(&device);
    let report = {
        let _armed =
            Armed::plan(FaultPlan::new().fail_nth(FaultSite::ClaimEngine, 3, FaultMode::Error));
        compiler.compile(&program).unwrap();
        disarm()
    };
    // The workload exercises the claim engine and the router many times;
    // the report's per-site hit counters prove the sites are live.
    assert!(report.hits.iter().sum::<u64>() > 0);
    assert_eq!(
        report.injected,
        vec![(FaultSite::ClaimEngine, 3, FaultMode::Error)]
    );
}
