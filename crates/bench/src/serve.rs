//! Compilation-as-a-service: a multi-tenant front end over the compiler.
//!
//! [`CompileService`] owns a worker pool sharing one `Arc`-shared
//! [`DeviceArtifacts`] bundle and a **bounded**
//! request queue: submitters block while the queue is full (or use
//! [`CompileService::try_submit`] for a non-blocking [`ServeError::QueueFull`]),
//! so a burst of tenants applies back-pressure instead of growing memory
//! without bound. Each worker runs an independent
//! [`CompileSession`](mech::CompileSession) per request against the shared
//! device tier — compilation is deterministic, so a served schedule is
//! bit-identical to a direct [`MechCompiler::compile`] call.
//!
//! # Failure domains (DESIGN.md §12)
//!
//! The service is panic-free by construction (this file denies
//! `unwrap`/`expect`) and isolates the compiler's failure domains:
//!
//! * a panicking compile is caught per request (`catch_unwind`) and comes
//!   back as [`CompileError::Internal`]; the worker survives, and a panic
//!   outside that scope (in the verification gate) only restarts the
//!   worker loop;
//! * per-request deadlines ([`Request::with_deadline`]) bound queue +
//!   compile time, and a request whose deadline expired while still queued
//!   is *shed* without compiling;
//! * a cancelled [`CancelToken`] sheds a queued request and aborts a
//!   running one between rounds (and mid-search, via the kernels);
//! * [`ServiceStats`] reconciles every submitted request exactly once:
//!   `submitted = served + shed + failed`;
//! * an opt-in semantic verification gate ([`Request::with_verify`],
//!   DESIGN.md §14) compiles with trace recording (schedules stay
//!   byte-identical), replays the trace on the stabilizer backend, and
//!   turns any divergence from the ideal circuit into a server-class
//!   [`CompileError::Miscompiled`] counted in
//!   [`ServiceStats::miscompiled`] — a wrong schedule is never served.
//!
//! Each compile runs on its worker's thread: the pool is the service's only
//! parallelism, one request per worker.
//!
//! # Calibration epochs
//!
//! The device bundle is *hot-swappable*: [`CompileService::reconfigure`]
//! builds a new [`DeviceArtifacts`] bundle off the
//! worker pool (a detached builder thread) and installs it atomically.
//! Every request captures the current bundle at submit time, so requests
//! queued or in flight when the swap lands *drain on the old epoch's
//! bundle* while new submissions land on the new one — no request ever
//! sees a half-built device, and the old bundle is freed when its last
//! in-flight session drops it. [`ServiceStats::epoch`] counts installed
//! swaps.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mech::{
    CancelToken, CompileBudget, CompileError, CompileResult, CompilerConfig, DeviceArtifacts,
    DeviceSpec, MechCompiler,
};
use mech_chiplet::fault::{self, FaultSite};
use mech_chiplet::{DefectMap, LinkKind, PhysQubit};
use mech_circuit::Circuit;

/// Tuning of a [`CompileService`].
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    /// Worker threads compiling requests.
    pub workers: usize,
    /// Queue slots; submitters block while the queue is full.
    pub queue_capacity: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workers: 4,
            queue_capacity: 16,
        }
    }
}

/// Errors from the *service* layer, as opposed to [`CompileError`]s from
/// the compiler: how a request can fail without a compile outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeError {
    /// The service shut down (or began shutting down) before the request
    /// was accepted.
    Closed,
    /// `try_submit` found the queue full (blocking `submit` would wait).
    QueueFull,
    /// The serving worker was lost mid-request (it restarted after a
    /// catastrophic panic); the request was consumed but produced no
    /// outcome.
    WorkerLost,
    /// `wait_timeout` elapsed before the request completed; the ticket
    /// remains valid and can be waited on again.
    Timeout,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Closed => f.write_str("service is shut down"),
            ServeError::QueueFull => f.write_str("request queue is full"),
            ServeError::WorkerLost => f.write_str("serving worker was lost mid-request"),
            ServeError::Timeout => f.write_str("timed out waiting for the outcome"),
        }
    }
}

impl std::error::Error for ServeError {}

/// One compile request with its robustness envelope.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use std::time::Duration;
/// use mech_bench::serve::Request;
/// use mech_circuit::Circuit;
///
/// let request = Request::new(Arc::new(Circuit::new(4)))
///     .with_deadline(Duration::from_secs(5));
/// assert!(request.deadline.is_some());
/// ```
#[derive(Debug, Clone)]
pub struct Request {
    /// The circuit to compile.
    pub circuit: Arc<Circuit>,
    /// Budget for queue time + compile time, measured from submit. Expires
    /// queued requests (shed without compiling) as well as running ones.
    pub deadline: Option<Duration>,
    /// Cooperative cancellation: cancelling sheds the request if it is
    /// still queued and aborts the compile between rounds otherwise.
    pub cancel: CancelToken,
    /// Semantically verify the compiled schedule before serving it: the
    /// compile records its semantic trace (a side channel — the schedule
    /// stays byte-identical) and the stabilizer verifier replays it under
    /// the standard outcome-policy sweep. A failed verification comes back
    /// as [`CompileError::Miscompiled`] and counts in
    /// [`ServiceStats::miscompiled`] (and `failed`). Non-Clifford circuits
    /// cannot be verified; for them the gate is skipped and
    /// [`ServeOutcome::verified`] stays `false`.
    pub verify: bool,
}

impl Request {
    /// A request with no deadline, no cancellation, no verification.
    pub fn new(circuit: Arc<Circuit>) -> Self {
        Request {
            circuit,
            deadline: None,
            cancel: CancelToken::new(),
            verify: false,
        }
    }

    /// Bounds queue + compile time, measured from submit. A deadline too
    /// large to represent as an `Instant` means no deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Opts the request into the semantic verification gate.
    pub fn with_verify(mut self, verify: bool) -> Self {
        self.verify = verify;
        self
    }
}

/// What one served request experienced, end to end.
#[derive(Debug)]
pub struct ServeOutcome {
    /// The compilation result (compile errors are returned, not panicked:
    /// tenants share the pool, one bad request must not take it down).
    pub result: Result<CompileResult, CompileError>,
    /// Milliseconds spent queued before a worker picked the request up.
    pub queued_ms: f64,
    /// Milliseconds spent compiling (0 for shed requests).
    pub compile_ms: f64,
    /// Milliseconds from submit to completion (queue + compile).
    pub total_ms: f64,
    /// Index of the worker that served (or shed) the request.
    pub worker: usize,
    /// `true` when the request was shed without compiling: its deadline
    /// expired or its token was cancelled while it was still queued.
    pub shed: bool,
    /// `true` when the semantic verification gate actually ran (the
    /// request opted in, the compile succeeded, and the circuit was
    /// Clifford). A verified `Ok` outcome is a proven-correct schedule.
    pub verified: bool,
    /// Milliseconds spent in the verification gate (0 when it did not
    /// run).
    pub verify_ms: f64,
}

/// Handle to one submitted request; redeem with [`Ticket::wait`] or poll
/// with [`Ticket::wait_timeout`].
pub struct Ticket {
    rx: mpsc::Receiver<ServeOutcome>,
}

impl Ticket {
    /// Blocks until the request completes (served, failed, or shed — all
    /// arrive as a [`ServeOutcome`]).
    ///
    /// # Errors
    ///
    /// [`ServeError::WorkerLost`] if the serving worker was lost
    /// mid-request (its restart dropped the reply channel).
    pub fn wait(self) -> Result<ServeOutcome, ServeError> {
        self.rx.recv().map_err(|_| ServeError::WorkerLost)
    }

    /// Like [`Ticket::wait`] with an upper bound; on
    /// [`ServeError::Timeout`] the ticket remains valid, so callers can
    /// poll in a loop without risking a lost outcome.
    ///
    /// # Errors
    ///
    /// [`ServeError::Timeout`] if `timeout` elapsed first;
    /// [`ServeError::WorkerLost`] as for [`Ticket::wait`].
    pub fn wait_timeout(&self, timeout: Duration) -> Result<ServeOutcome, ServeError> {
        self.rx.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => ServeError::Timeout,
            RecvTimeoutError::Disconnected => ServeError::WorkerLost,
        })
    }
}

/// Handle to one in-flight [`CompileService::reconfigure`] call.
pub struct EpochTicket {
    rx: mpsc::Receiver<u64>,
}

impl EpochTicket {
    /// Blocks until the new bundle is built and installed; returns the new
    /// epoch number.
    ///
    /// # Errors
    ///
    /// [`ServeError::WorkerLost`] if the builder thread died (a panicking
    /// artifact build) before installing the epoch.
    pub fn wait(self) -> Result<u64, ServeError> {
        self.rx.recv().map_err(|_| ServeError::WorkerLost)
    }
}

/// Monotonic service counters; a consistent snapshot reconciles
/// `submitted = served + shed + failed` once all tickets are redeemed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests compiled to `Ok`.
    pub served: u64,
    /// Requests shed while queued (expired deadline or cancelled token),
    /// never compiled.
    pub shed: u64,
    /// Requests whose compile returned an error (including `Internal`
    /// after a caught panic, and `Miscompiled` from the verification gate).
    pub failed: u64,
    /// Requests whose compiled schedule failed semantic verification
    /// (also counted in `failed`; the tenant sees
    /// [`CompileError::Miscompiled`]).
    pub miscompiled: u64,
    /// Compiles that panicked and were caught.
    pub panicked: u64,
    /// Worker loops restarted after a panic escaped the per-request
    /// isolation (0 in healthy operation: the per-request `catch_unwind`
    /// absorbs compiler panics; only a panic in the verification gate gets
    /// this far).
    pub worker_restarts: u64,
    /// Calibration epochs installed by [`CompileService::reconfigure`]
    /// (0 until the first swap lands; requests submitted before a swap
    /// drain on the bundle they captured at submit time).
    pub epoch: u64,
}

#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    served: AtomicU64,
    shed: AtomicU64,
    failed: AtomicU64,
    miscompiled: AtomicU64,
    panicked: AtomicU64,
    worker_restarts: AtomicU64,
    epoch: AtomicU64,
}

impl Counters {
    fn snapshot(&self) -> ServiceStats {
        ServiceStats {
            submitted: self.submitted.load(Ordering::SeqCst),
            served: self.served.load(Ordering::SeqCst),
            shed: self.shed.load(Ordering::SeqCst),
            failed: self.failed.load(Ordering::SeqCst),
            miscompiled: self.miscompiled.load(Ordering::SeqCst),
            panicked: self.panicked.load(Ordering::SeqCst),
            worker_restarts: self.worker_restarts.load(Ordering::SeqCst),
            epoch: self.epoch.load(Ordering::SeqCst),
        }
    }
}

struct Job {
    request: Request,
    /// The epoch's device bundle, captured at submit time: a swap landing
    /// after submit does not retarget this request.
    device: Arc<DeviceArtifacts>,
    submitted: Instant,
    reply: mpsc::Sender<ServeOutcome>,
}

struct Queue {
    jobs: VecDeque<Job>,
    closed: bool,
}

/// The live calibration epoch: a counter plus the device bundle new
/// submissions compile against.
struct Epoch {
    number: u64,
    device: Arc<DeviceArtifacts>,
}

struct Shared {
    queue: Mutex<Queue>,
    /// Signals workers: a job arrived (or the queue closed).
    not_empty: Condvar,
    /// Signals submitters: a slot freed up.
    not_full: Condvar,
    capacity: usize,
    stats: Counters,
    /// Per-compile configuration; constant for the service lifetime.
    config: CompilerConfig,
    /// Swapped whole by [`CompileService::reconfigure`]; read (one `Arc`
    /// clone) per submission.
    epoch: Mutex<Epoch>,
}

impl Shared {
    /// Locks the epoch, recovering from poison as for the queue lock.
    fn lock_epoch(&self) -> MutexGuard<'_, Epoch> {
        match self.epoch.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// The bundle a submission landing now compiles against.
    fn current_device(&self) -> Arc<DeviceArtifacts> {
        Arc::clone(&self.lock_epoch().device)
    }

    /// Installs a freshly built bundle as the new epoch; returns the new
    /// epoch number.
    fn install_device(&self, device: Arc<DeviceArtifacts>) -> u64 {
        let mut epoch = self.lock_epoch();
        epoch.number += 1;
        epoch.device = device;
        self.stats.epoch.store(epoch.number, Ordering::SeqCst);
        epoch.number
    }
    /// Locks the queue, recovering from poison: the queue holds plain
    /// data whose invariants hold between mutations, and the service must
    /// keep serving even if a panicking thread died mid-lock.
    fn lock_queue(&self) -> MutexGuard<'_, Queue> {
        match self.queue.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn wait_not_empty<'g>(&self, guard: MutexGuard<'g, Queue>) -> MutexGuard<'g, Queue> {
        match self.not_empty.wait(guard) {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn wait_not_full<'g>(&self, guard: MutexGuard<'g, Queue>) -> MutexGuard<'g, Queue> {
        match self.not_full.wait(guard) {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

/// A bounded-queue worker pool compiling circuits against one shared
/// device-artifact bundle.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use mech::{CompilerConfig, DeviceSpec};
/// use mech_bench::serve::{CompileService, ServeOptions};
/// use mech_circuit::benchmarks::Benchmark;
///
/// let device = DeviceSpec::square(5, 1, 2).build_artifacts();
/// let program = Arc::new(Benchmark::Bv.generate(device.num_data_qubits(), 1));
/// let service = CompileService::start(
///     device,
///     CompilerConfig::default(),
///     ServeOptions { workers: 2, ..ServeOptions::default() },
/// );
/// let tickets: Vec<_> = (0..4)
///     .map(|_| service.submit(Arc::clone(&program)).unwrap())
///     .collect();
/// for t in tickets {
///     assert!(t.wait().unwrap().result.is_ok());
/// }
/// let stats = service.shutdown();
/// assert_eq!(stats.submitted, stats.served + stats.shed + stats.failed);
/// ```
pub struct CompileService {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl CompileService {
    /// Spawns the worker pool over `device` as calibration epoch 0. Each
    /// request captures the current epoch's bundle at submit time and a
    /// worker builds a cheap [`MechCompiler`] handle over it per job.
    ///
    /// # Panics
    ///
    /// Panics if `workers` or `queue_capacity` is zero, or if thread
    /// spawning fails.
    pub fn start(
        device: Arc<DeviceArtifacts>,
        config: CompilerConfig,
        options: ServeOptions,
    ) -> Self {
        assert!(options.workers >= 1, "a service needs at least one worker");
        assert!(options.queue_capacity >= 1, "queue capacity must be >= 1");
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                jobs: VecDeque::with_capacity(options.queue_capacity),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: options.queue_capacity,
            stats: Counters::default(),
            config,
            epoch: Mutex::new(Epoch { number: 0, device }),
        });
        let workers = (0..options.workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                let spawned = std::thread::Builder::new()
                    .name(format!("mech-serve-{w}"))
                    .spawn(move || worker_supervisor(w, &shared));
                match spawned {
                    Ok(handle) => handle,
                    Err(e) => panic!("spawn serve worker: {e}"),
                }
            })
            .collect();
        CompileService { shared, workers }
    }

    /// Hot-swaps the device tier: builds `spec`'s artifact bundle on a
    /// detached builder thread (the worker pool keeps serving the old
    /// epoch meanwhile) and installs it as the new epoch. Requests queued
    /// or in flight at the swap drain on the bundle they captured at
    /// submit; submissions after the swap compile against the new bundle.
    ///
    /// Returns an [`EpochTicket`]; [`EpochTicket::wait`] blocks until the
    /// new epoch is installed and yields its number. The swap lands even
    /// if the ticket is dropped, and even after the queue is closed (a
    /// closed service accepts no new submissions, so the new epoch then
    /// only shows in the counters [`CompileService::shutdown`] returns).
    ///
    /// # Panics
    ///
    /// Panics if the builder thread cannot be spawned.
    pub fn reconfigure(&self, spec: DeviceSpec) -> EpochTicket {
        let shared = Arc::clone(&self.shared);
        let (tx, rx) = mpsc::channel();
        let spawned = std::thread::Builder::new()
            .name("mech-serve-epoch".to_string())
            .spawn(move || {
                let device = spec.build_artifacts();
                let number = shared.install_device(device);
                let _ = tx.send(number);
            });
        if let Err(e) = spawned {
            panic!("spawn epoch builder: {e}");
        }
        EpochTicket { rx }
    }

    /// Enqueues one plain request (no deadline, no cancellation), blocking
    /// while the queue is full (back-pressure). Returns a [`Ticket`] to
    /// wait on.
    ///
    /// # Errors
    ///
    /// [`ServeError::Closed`] if the service has shut down.
    pub fn submit(&self, circuit: Arc<Circuit>) -> Result<Ticket, ServeError> {
        self.submit_request(Request::new(circuit))
    }

    /// Enqueues a [`Request`], blocking while the queue is full.
    ///
    /// # Errors
    ///
    /// [`ServeError::Closed`] if the service has shut down.
    pub fn submit_request(&self, request: Request) -> Result<Ticket, ServeError> {
        let (reply, rx) = mpsc::channel();
        let mut q = self.shared.lock_queue();
        while q.jobs.len() >= self.shared.capacity && !q.closed {
            q = self.shared.wait_not_full(q);
        }
        if q.closed {
            return Err(ServeError::Closed);
        }
        self.enqueue(q, request, reply);
        Ok(Ticket { rx })
    }

    /// Non-blocking submit: never waits for a queue slot.
    ///
    /// # Errors
    ///
    /// [`ServeError::QueueFull`] when blocking `submit` would wait;
    /// [`ServeError::Closed`] if the service has shut down.
    pub fn try_submit(&self, circuit: Arc<Circuit>) -> Result<Ticket, ServeError> {
        let (reply, rx) = mpsc::channel();
        let q = self.shared.lock_queue();
        if q.closed {
            return Err(ServeError::Closed);
        }
        if q.jobs.len() >= self.shared.capacity {
            return Err(ServeError::QueueFull);
        }
        self.enqueue(q, Request::new(circuit), reply);
        Ok(Ticket { rx })
    }

    fn enqueue(
        &self,
        mut q: MutexGuard<'_, Queue>,
        request: Request,
        reply: mpsc::Sender<ServeOutcome>,
    ) {
        q.jobs.push_back(Job {
            request,
            device: self.shared.current_device(),
            submitted: Instant::now(),
            reply,
        });
        drop(q);
        self.shared.stats.submitted.fetch_add(1, Ordering::SeqCst);
        self.shared.not_empty.notify_one();
    }

    /// Closes the queue without joining the workers: subsequent submits
    /// return [`ServeError::Closed`], and requests already queued are
    /// still drained and served.
    fn close(&self) {
        {
            let mut q = self.shared.lock_queue();
            q.closed = true;
        }
        self.shared.not_empty.notify_all();
        self.shared.not_full.notify_all();
    }

    /// Closes the queue, joins the workers, and returns the final
    /// counters. Requests already queued are drained and served before
    /// their worker exits.
    pub fn shutdown(mut self) -> ServiceStats {
        self.close_and_join();
        self.shared.stats.snapshot()
    }

    fn close_and_join(&mut self) {
        self.close();
        for handle in self.workers.drain(..) {
            // The supervisor absorbs worker panics; a join error would
            // mean a panic in the supervisor itself — nothing to do about
            // it at shutdown beyond not propagating.
            let _ = handle.join();
        }
    }
}

impl Drop for CompileService {
    fn drop(&mut self) {
        self.close_and_join();
    }
}

/// Keeps worker `index` alive for the lifetime of the service. Compiles
/// are isolated per request, but the verification gate runs outside that
/// `catch_unwind`: a verifier panic escapes to here, abandons the
/// in-flight request (its `reply` sender drops, so `Ticket::wait` reports
/// [`ServeError::WorkerLost`]), and the loop restarts on the same OS
/// thread.
fn worker_supervisor(index: usize, shared: &Shared) {
    loop {
        if catch_unwind(AssertUnwindSafe(|| worker_loop(index, shared))).is_ok() {
            return; // clean exit: queue closed and drained
        }
        shared.stats.worker_restarts.fetch_add(1, Ordering::SeqCst);
    }
}

fn worker_loop(index: usize, shared: &Shared) {
    loop {
        let job = {
            let mut q = shared.lock_queue();
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    break job;
                }
                if q.closed {
                    return;
                }
                q = shared.wait_not_empty(q);
            }
        };
        shared.not_full.notify_one();
        serve_one(index, shared, job);
    }
}

/// Serves one job end to end: shed if its envelope already expired while
/// queued, otherwise compile — against the device bundle the job captured
/// at submit — under the request's budget with per-request panic isolation,
/// then run the optional verification gate.
fn serve_one(index: usize, shared: &Shared, job: Job) {
    let queued_ms = job.submitted.elapsed().as_secs_f64() * 1e3;
    let stats = &shared.stats;

    // Queue-side load shedding: a request that can no longer meet its
    // envelope is not worth a session. `rounds: 0` marks "never compiled".
    let deadline = job
        .request
        .deadline
        .and_then(|d| job.submitted.checked_add(d));
    let shed_as = if job.request.cancel.is_cancelled() {
        Some(CompileError::Cancelled { rounds: 0 })
    } else if deadline.is_some_and(|d| Instant::now() >= d) {
        Some(CompileError::DeadlineExceeded { rounds: 0 })
    } else {
        None
    };
    if let Some(err) = shed_as {
        stats.shed.fetch_add(1, Ordering::SeqCst);
        let _ = job.reply.send(ServeOutcome {
            result: Err(err),
            queued_ms,
            compile_ms: 0.0,
            total_ms: job.submitted.elapsed().as_secs_f64() * 1e3,
            worker: index,
            shed: true,
            verified: false,
            verify_ms: 0.0,
        });
        return;
    }

    let mut budget = CompileBudget::unlimited().with_cancel(job.request.cancel.clone());
    if let Some(d) = deadline {
        budget = budget.with_deadline(d);
    }
    // Verify-gated requests compile with semantic-trace recording on; the
    // trace is a side channel, so the schedule is byte-identical to an
    // unverified compile of the same request.
    let config = if job.request.verify {
        crate::verify::recording(shared.config)
    } else {
        shared.config
    };
    let compiler = MechCompiler::new(Arc::clone(&job.device), config);
    // The `device.defect` fault site models a calibration defect landing
    // at per-request device resolution. It only arms for requests that
    // would actually reach the device (valid and narrow enough to place):
    // admission failures are decided before any device resolution.
    let resolves_device = job.request.circuit.validate().is_ok()
        && job.request.circuit.num_qubits() <= job.device.num_data_qubits();
    let started = Instant::now();
    let mut result = match catch_unwind(AssertUnwindSafe(|| {
        if resolves_device && fault::trip(FaultSite::DeviceDefect) {
            // Error mode: compile this one request against a
            // transiently degraded bundle (one canonical cross link
            // flipped dead). The epoch's bundle is untouched, so the
            // very next request compiles pristine again.
            let degraded = degraded_bundle(&job.device);
            return MechCompiler::new(degraded, config)
                .compile_with_budget(&job.request.circuit, budget);
        }
        compiler.compile_with_budget(&job.request.circuit, budget)
    })) {
        Ok(result) => result,
        Err(payload) => {
            stats.panicked.fetch_add(1, Ordering::SeqCst);
            Err(CompileError::Internal {
                detail: panic_detail(payload.as_ref()),
            })
        }
    };
    let compile_ms = started.elapsed().as_secs_f64() * 1e3;

    // The verification gate: replay the recorded trace on the stabilizer
    // backend and hold the schedule to the ideal circuit's state. A
    // divergence is a *server-side* failure (the tenant's request was
    // fine; the compiler produced a wrong schedule), reported as
    // `Miscompiled`. Non-Clifford circuits are outside the stabilizer
    // formalism: the gate skips them rather than failing valid requests.
    let mut verified = false;
    let mut verify_ms = 0.0;
    if job.request.verify {
        if let Ok(compiled) = &result {
            let vstart = Instant::now();
            match crate::verify::verify_compiled(&job.request.circuit, compiled) {
                Ok(_) => verified = true,
                Err(crate::verify::VerifyError::NonCliffordInput { .. }) => {}
                Err(e) => {
                    stats.miscompiled.fetch_add(1, Ordering::SeqCst);
                    result = Err(CompileError::Miscompiled {
                        detail: e.to_string(),
                    });
                }
            }
            verify_ms = vstart.elapsed().as_secs_f64() * 1e3;
        }
    }

    match &result {
        Ok(_) => stats.served.fetch_add(1, Ordering::SeqCst),
        Err(_) => stats.failed.fetch_add(1, Ordering::SeqCst),
    };
    // A dropped Ticket (submitter gave up) is fine; the work is done.
    let _ = job.reply.send(ServeOutcome {
        result,
        queued_ms,
        compile_ms,
        total_ms: job.submitted.elapsed().as_secs_f64() * 1e3,
        worker: index,
        shed: false,
        verified,
        verify_ms,
    });
}

/// The transiently degraded bundle used by error-mode `device.defect`
/// injections: the same spec with the first cross-chip link (scan order)
/// flipped dead. A single redundant seam link keeps every chaos workload
/// compilable on the surviving fabric. Devices with no cross link (single
/// chiplet) fall back to the pristine bundle — the trip still counts, the
/// degradation is a no-op.
fn degraded_bundle(device: &Arc<DeviceArtifacts>) -> Arc<DeviceArtifacts> {
    let topo = device.topology();
    let first_cross = (0..topo.num_qubits()).map(PhysQubit).find_map(|q| {
        topo.neighbor_links(q)
            .find(|l| l.kind == LinkKind::CrossChip && q < l.to)
            .map(|l| (q, l.to))
    });
    match first_cross {
        Some((a, b)) => device
            .spec()
            .clone()
            .with_defects(DefectMap::new().with_dead_link(a, b))
            .build_artifacts(),
        None => Arc::clone(device),
    }
}

/// Best-effort text of a caught panic payload.
fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("compile panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("compile panicked: {s}")
    } else {
        "compile panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::programs;
    use mech::DeviceSpec;

    #[test]
    fn served_compiles_match_direct_compiles() {
        let device = DeviceSpec::square(5, 1, 2).build_artifacts();
        let config = CompilerConfig::default();
        let n = device.num_data_qubits();
        let programs: Vec<Arc<Circuit>> = [
            programs::qft(n.min(16)),
            programs::vqe(n.min(16)),
            programs::bv(n),
            programs::rand_sparse(n),
            programs::qaoa(n.min(16)),
            programs::rand_dense(n),
        ]
        .into_iter()
        .map(Arc::new)
        .collect();
        let direct: Vec<CompileResult> = programs
            .iter()
            .map(|p| {
                MechCompiler::new(Arc::clone(&device), config)
                    .compile(p)
                    .unwrap()
            })
            .collect();

        let service = CompileService::start(
            Arc::clone(&device),
            config,
            ServeOptions {
                workers: 3,
                queue_capacity: 2, // force submit-side back-pressure
            },
        );
        // Two rounds of every program, interleaved, through 3 workers.
        let tickets: Vec<(usize, Ticket)> = (0..programs.len() * 2)
            .map(|i| {
                let which = i % programs.len();
                (which, service.submit(Arc::clone(&programs[which])).unwrap())
            })
            .collect();
        for (which, ticket) in tickets {
            let outcome = ticket.wait().unwrap();
            let got = outcome.result.expect("served compile succeeds");
            let want = &direct[which];
            assert_eq!(got.circuit.ops(), want.circuit.ops(), "program {which}");
            assert_eq!(got.shuttle_trace, want.shuttle_trace);
            assert!(outcome.compile_ms > 0.0);
            assert!(outcome.total_ms >= outcome.compile_ms);
            assert!(!outcome.shed);
        }
        let stats = service.shutdown();
        assert_eq!(stats.submitted, 12);
        assert_eq!(stats.served, 12);
        assert_eq!(stats.submitted, stats.served + stats.shed + stats.failed);
        assert_eq!(stats.panicked, 0);
        assert_eq!(stats.worker_restarts, 0);
    }

    #[test]
    fn errors_come_back_as_outcomes() {
        let device = DeviceSpec::square(4, 1, 1).build_artifacts();
        let wide = Arc::new(Circuit::new(500));
        let service =
            CompileService::start(device, CompilerConfig::default(), ServeOptions::default());
        let outcome = service.submit(wide).unwrap().wait().unwrap();
        assert!(matches!(
            outcome.result,
            Err(CompileError::TooManyQubits { .. })
        ));
        let stats = service.shutdown();
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.submitted, stats.served + stats.shed + stats.failed);
    }

    #[test]
    fn drop_without_shutdown_joins_cleanly() {
        let device = DeviceSpec::square(4, 1, 1).build_artifacts();
        let service =
            CompileService::start(device, CompilerConfig::default(), ServeOptions::default());
        drop(service);
    }

    #[test]
    fn submit_after_close_returns_closed() {
        let device = DeviceSpec::square(4, 1, 1).build_artifacts();
        let service =
            CompileService::start(device, CompilerConfig::default(), ServeOptions::default());
        service.close();
        let circuit = Arc::new(Circuit::new(2));
        assert_eq!(
            service.submit(Arc::clone(&circuit)).map(|_| ()),
            Err(ServeError::Closed)
        );
        assert_eq!(
            service.try_submit(circuit).map(|_| ()),
            Err(ServeError::Closed)
        );
        service.shutdown();
    }

    #[test]
    fn try_submit_reports_queue_full() {
        let device = DeviceSpec::square(5, 1, 2).build_artifacts();
        let n = device.num_data_qubits();
        // One worker, one slot: submit a slow job plus a queued one, and
        // the queue is provably full until the worker frees a slot.
        let service = CompileService::start(
            Arc::clone(&device),
            CompilerConfig::default(),
            ServeOptions {
                workers: 1,
                queue_capacity: 1,
            },
        );
        let slow = Arc::new(programs::qft(n.min(20)));
        let quick = Arc::new(Circuit::new(2));
        let mut tickets = vec![service.submit(Arc::clone(&slow)).unwrap()];
        // Fill the single queue slot (the first job may or may not have
        // been picked up yet, so allow one more on a race).
        let mut full = false;
        for _ in 0..3 {
            match service.try_submit(Arc::clone(&quick)) {
                Ok(t) => tickets.push(t),
                Err(e) => {
                    assert_eq!(e, ServeError::QueueFull);
                    full = true;
                    break;
                }
            }
        }
        assert!(full, "a 1-slot queue must eventually report QueueFull");
        for t in tickets {
            assert!(t.wait().unwrap().result.is_ok());
        }
        service.shutdown();
    }

    #[test]
    fn wait_timeout_times_out_and_then_succeeds() {
        let device = DeviceSpec::square(5, 1, 2).build_artifacts();
        let n = device.num_data_qubits();
        let service = CompileService::start(
            Arc::clone(&device),
            CompilerConfig::default(),
            ServeOptions {
                workers: 1,
                queue_capacity: 4,
            },
        );
        let ticket = service.submit(Arc::new(programs::qft(n.min(20)))).unwrap();
        // An instant timeout races the compile; the outcome must be either
        // a Timeout (ticket still redeemable) or the finished outcome.
        match ticket.wait_timeout(Duration::from_micros(1)) {
            Err(ServeError::Timeout) => {
                let outcome = ticket.wait_timeout(Duration::from_secs(60)).unwrap();
                assert!(outcome.result.is_ok());
            }
            Ok(outcome) => assert!(outcome.result.is_ok()),
            Err(e) => panic!("unexpected wait error: {e}"),
        }
        service.shutdown();
    }

    #[test]
    fn cancelled_queued_request_is_shed_without_compiling() {
        let device = DeviceSpec::square(5, 1, 2).build_artifacts();
        let n = device.num_data_qubits();
        // One worker busy on a slow job; the queued request is cancelled
        // before the worker can reach it.
        let service = CompileService::start(
            Arc::clone(&device),
            CompilerConfig::default(),
            ServeOptions {
                workers: 1,
                queue_capacity: 4,
            },
        );
        let slow = service.submit(Arc::new(programs::qft(n.min(20)))).unwrap();
        let cancel = CancelToken::new();
        // Cancel before the worker can possibly reach the request: the
        // shed is then deterministic regardless of scheduling.
        cancel.cancel();
        let mut request = Request::new(Arc::new(programs::qft(n.min(20))));
        request.cancel = cancel.clone();
        let queued = service.submit_request(request).unwrap();
        let outcome = queued.wait().unwrap();
        assert!(outcome.shed, "cancelled-in-queue request must be shed");
        assert_eq!(outcome.compile_ms, 0.0);
        assert!(matches!(
            outcome.result,
            Err(CompileError::Cancelled { rounds: 0 })
        ));
        assert!(slow.wait().unwrap().result.is_ok());
        let stats = service.shutdown();
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.served, 1);
        assert_eq!(stats.submitted, stats.served + stats.shed + stats.failed);
    }

    #[test]
    fn reconfigure_swaps_epochs_and_drains_old_epoch_tickets() {
        let old_spec = DeviceSpec::square(5, 1, 2);
        let device = old_spec.build_artifacts();
        let config = CompilerConfig::default();
        let n = device.num_data_qubits();
        let program = Arc::new(programs::qft(n.min(16)));
        let direct_old = MechCompiler::new(Arc::clone(&device), config)
            .compile(&program)
            .unwrap();

        let service = CompileService::start(
            Arc::clone(&device),
            config,
            ServeOptions {
                workers: 2,
                queue_capacity: 8,
            },
        );
        assert_eq!(service.shared.stats.snapshot().epoch, 0);
        // Submitted before the swap: these capture the old bundle, and
        // several are still queued when the new epoch lands.
        let old_tickets: Vec<Ticket> = (0..6)
            .map(|_| service.submit(Arc::clone(&program)).unwrap())
            .collect();

        let new_spec = DeviceSpec::square(6, 1, 2);
        let epoch = service.reconfigure(new_spec.clone()).wait().unwrap();
        assert_eq!(epoch, 1);
        assert_eq!(service.shared.stats.snapshot().epoch, 1);

        // Old-epoch tickets drain on the old bundle, bit-identically.
        for t in old_tickets {
            let got = t.wait().unwrap().result.expect("old-epoch compile");
            assert_eq!(got.circuit.ops(), direct_old.circuit.ops());
        }

        // A submission after the swap compiles against the new bundle.
        let direct_new = MechCompiler::new(new_spec.build_artifacts(), config)
            .compile(&program)
            .unwrap();
        assert_ne!(
            direct_old.circuit.ops(),
            direct_new.circuit.ops(),
            "the two epochs must be distinguishable for this test to prove anything"
        );
        let got = service
            .submit(Arc::clone(&program))
            .unwrap()
            .wait()
            .unwrap()
            .result
            .expect("new-epoch compile");
        assert_eq!(got.circuit.ops(), direct_new.circuit.ops());

        let stats = service.shutdown();
        assert_eq!(stats.submitted, 7);
        assert_eq!(stats.served, 7);
        assert_eq!(stats.submitted, stats.served + stats.shed + stats.failed);
        assert_eq!(stats.epoch, 1);
    }

    #[test]
    fn reconfigure_with_a_panicking_build_keeps_the_old_epoch() {
        let device = DeviceSpec::square(5, 1, 2).build_artifacts();
        let config = CompilerConfig::default();
        let program = Arc::new(programs::qft(device.num_data_qubits().min(16)));
        let direct = MechCompiler::new(Arc::clone(&device), config)
            .compile(&program)
            .unwrap();
        let service = CompileService::start(
            Arc::clone(&device),
            config,
            ServeOptions {
                workers: 1,
                ..ServeOptions::default()
            },
        );

        // Density 0 is rejected by the highway layout: the build panics on
        // the builder thread, before anything is installed.
        let invalid = DeviceSpec::square(6, 2, 2).with_density(0);
        assert_eq!(
            service.reconfigure(invalid).wait(),
            Err(ServeError::WorkerLost)
        );
        assert_eq!(service.shared.stats.snapshot().epoch, 0);

        // The service keeps serving the old bundle, bit-identically.
        let got = service
            .submit(Arc::clone(&program))
            .unwrap()
            .wait()
            .unwrap()
            .result
            .expect("old-epoch compile");
        assert_eq!(got.circuit.ops(), direct.circuit.ops());
        assert_eq!(service.shutdown().epoch, 0);
    }

    #[test]
    fn reconfigure_to_a_degraded_spec_serves_on_surviving_fabric() {
        // Flip one seam link dead via an epoch swap: the service keeps
        // serving, and the served schedule uses no dead resource (the
        // artifact auditor is the oracle).
        let spec = DeviceSpec::square(5, 1, 2);
        let service = CompileService::start(
            spec.build_artifacts(),
            CompilerConfig::default(),
            ServeOptions {
                workers: 1,
                queue_capacity: 4,
            },
        );
        let pristine = spec.build_artifacts();
        let topo = pristine.topology();
        let (a, b) = (0..topo.num_qubits())
            .map(PhysQubit)
            .find_map(|q| {
                topo.neighbor_links(q)
                    .find(|l| l.kind == LinkKind::CrossChip && q < l.to)
                    .map(|l| (q, l.to))
            })
            .unwrap();
        let degraded_spec = spec
            .clone()
            .with_defects(DefectMap::new().with_dead_link(a, b));
        let degraded = degraded_spec.build_artifacts();
        assert!(!degraded.spec().defects().is_empty());
        service.reconfigure(degraded_spec).wait().unwrap();

        let n = degraded.num_data_qubits();
        let program = Arc::new(programs::qft(n.min(16)));
        let got = service
            .submit(program)
            .unwrap()
            .wait()
            .unwrap()
            .result
            .expect("degraded device still serves");
        degraded
            .audit(&got.circuit)
            .expect("schedule avoids defects");
        let stats = service.shutdown();
        assert_eq!(stats.epoch, 1);
        assert_eq!(stats.submitted, stats.served + stats.shed + stats.failed);
    }

    #[test]
    fn verify_gate_proves_clifford_schedules_and_stays_byte_identical() {
        let device = DeviceSpec::square(5, 1, 2).build_artifacts();
        let config = CompilerConfig::default();
        let n = device.num_data_qubits();
        let service = CompileService::start(
            Arc::clone(&device),
            config,
            ServeOptions {
                workers: 2,
                queue_capacity: 8,
            },
        );
        for program in [
            programs::ghz(n),
            programs::bv(n),
            programs::rand_clifford(n),
        ] {
            let program = Arc::new(program);
            let direct = MechCompiler::new(Arc::clone(&device), config)
                .compile(&program)
                .unwrap();
            let outcome = service
                .submit_request(Request::new(Arc::clone(&program)).with_verify(true))
                .unwrap()
                .wait()
                .unwrap();
            assert!(outcome.verified, "clifford program must be verified");
            assert!(outcome.verify_ms >= 0.0);
            let got = outcome.result.expect("verified compile is served");
            // The gate records a semantic trace; the schedule itself must
            // be byte-identical to an unverified direct compile.
            assert_eq!(got.circuit.ops(), direct.circuit.ops());
        }
        let stats = service.shutdown();
        assert_eq!(stats.served, 3);
        assert_eq!(stats.miscompiled, 0);
        assert_eq!(stats.submitted, stats.served + stats.shed + stats.failed);
    }

    #[test]
    fn verify_gate_skips_non_clifford_circuits() {
        let device = DeviceSpec::square(5, 1, 2).build_artifacts();
        let n = device.num_data_qubits();
        let service = CompileService::start(
            Arc::clone(&device),
            CompilerConfig::default(),
            ServeOptions::default(),
        );
        let outcome = service
            .submit_request(Request::new(Arc::new(programs::qft(n.min(16)))).with_verify(true))
            .unwrap()
            .wait()
            .unwrap();
        assert!(outcome.result.is_ok(), "non-clifford requests still serve");
        assert!(!outcome.verified, "rotations are outside the formalism");
        let stats = service.shutdown();
        assert_eq!(stats.miscompiled, 0);
        assert_eq!(stats.served, 1);
    }

    #[test]
    fn expired_deadline_sheds_queued_request() {
        let device = DeviceSpec::square(5, 1, 2).build_artifacts();
        let n = device.num_data_qubits();
        let service = CompileService::start(
            Arc::clone(&device),
            CompilerConfig::default(),
            ServeOptions {
                workers: 1,
                queue_capacity: 4,
            },
        );
        // Keep the only worker busy long enough for the zero deadline of
        // the queued request to expire before pickup.
        let slow = service.submit(Arc::new(programs::qft(n.min(20)))).unwrap();
        let doomed = service
            .submit_request(Request::new(Arc::new(Circuit::new(2))).with_deadline(Duration::ZERO))
            .unwrap();
        let outcome = doomed.wait().unwrap();
        assert!(outcome.shed);
        assert!(matches!(
            outcome.result,
            Err(CompileError::DeadlineExceeded { rounds: 0 })
        ));
        assert!(slow.wait().unwrap().result.is_ok());
        let stats = service.shutdown();
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.submitted, stats.served + stats.shed + stats.failed);
    }

    #[test]
    fn unrepresentable_deadline_means_no_deadline() {
        let device = DeviceSpec::square(5, 1, 2).build_artifacts();
        let service = CompileService::start(
            Arc::clone(&device),
            CompilerConfig::default(),
            ServeOptions::default(),
        );
        let outcome = service
            .submit_request(Request::new(Arc::new(programs::ghz(4))).with_deadline(Duration::MAX))
            .unwrap()
            .wait()
            .unwrap();
        assert!(!outcome.shed, "an overflowing deadline must not expire");
        assert!(outcome.result.is_ok());
        let stats = service.shutdown();
        assert_eq!(stats.served, 1);
        assert_eq!(stats.shed, 0);
    }
}
