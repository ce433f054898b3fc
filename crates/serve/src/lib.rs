//! `scpg-serve`: a zero-external-dependency HTTP/1.1 JSON analysis
//! service over the SCPG engine.
//!
//! An energy-harvesting design team's questions — "sweep this design's
//! power curve", "what does a 30 µW budget buy", "how variation-sensitive
//! is the sub-threshold alternative" — are exactly the library calls
//! `scpg::analysis`, `scpg::budget` and `scpg_power::variation` already
//! answer. This crate puts those behind a shared service:
//!
//! * `POST /v1/sweep` / `/v1/table` / `/v1/headline` / `/v1/variation` —
//!   JSON queries (see [`api`] for the wire format);
//! * `POST /v1/compare` — a bake-off of registered low-power techniques
//!   (`baseline`, `scpg`, `ctsg`, `ddcg`, `lector`, see
//!   [`scpg_technique`]):
//!   per-technique power/area/delay across a frequency sweep, with the
//!   `scpg` row bit-identical to `/v1/sweep` for the same design;
//! * `POST /v1/netlists` — upload a structural-Verilog design; it is
//!   validated, compiled and stored content-addressed, after which any
//!   query can name it via `{"design": {"kind": "netlist", "id": ...}}`;
//! * `POST /v1/jobs` + `GET`/`DELETE /v1/jobs/{id}` — checkpointed
//!   asynchronous batch jobs over the same queries (see [`scpg_jobs`]);
//! * `GET /v1/designs` — design kinds, server limits, uploaded netlists;
//! * `GET /v1/traces` + `GET /v1/traces/{id}` — recent request/job
//!   traces from the bounded in-memory trace store: every request gets a
//!   trace id (client-supplied via `x-scpg-trace-id` or generated,
//!   echoed on the response) under which its per-stage spans are filed;
//! * `GET /healthz` — liveness;
//! * `GET /metrics` — Prometheus text ([`metrics`]).
//!
//! [`routes::ROUTES`] is the one list of these resources: dispatch,
//! `404`/`405` answers, metric labels and batch-job kinds all derive
//! from it.
//!
//! The serving model, back to front:
//!
//! 1. **Canonicalized result cache** ([`cache`]): the request JSON is
//!    canonicalized (sorted keys, shortest-round-trip numbers, transport
//!    fields stripped) into a cache key; a hit returns the original
//!    response body byte-identically without touching the engine.
//! 2. **Compiled-artifact sharing** ([`designs`]): misses for the same
//!    design share one lazily built [`scpg::ScpgAnalysis`] — the
//!    serving-layer continuation of PR 1's compile-once/simulate-many
//!    split.
//! 3. **Bounded queue with backpressure** ([`queue`]): admitted jobs run
//!    on a worker pool; a full queue answers `429` immediately, an
//!    expired per-request deadline answers `504`.
//! 4. **Event-driven connection handling**: one event-loop thread owns
//!    every socket (epoll on Linux, `poll` elsewhere — zero idle CPU at
//!    10k+ connections), speaking persistent HTTP/1.1 with request
//!    pipelining; I/O never computes and compute never blocks I/O —
//!    workers hand results back through a wake fd.
//! 5. **Graceful shutdown**: stop accepting, answer what is in flight
//!    (late pipelined requests get `503` + `Retry-After`), drain the
//!    queue, then close — no admitted request is dropped.
//! 6. **Two-lane scheduling**: batch-job chunks run on the same worker
//!    pool in a second, lower-priority lane; interactive requests always
//!    pop first and one worker never takes batch work at all, so a pile
//!    of long jobs cannot starve point queries. Chunk checkpoints go to
//!    the (optionally on-disk) [`scpg_jobs::Store`], so a restarted
//!    server resumes unfinished jobs where they left off.
//!
//! ```no_run
//! let handle = scpg_serve::Server::bind(scpg_serve::ServeConfig::default())
//!     .expect("bind")
//!     .spawn();
//! println!("serving on http://{}", handle.addr());
//! # handle.shutdown();
//! ```

#![warn(missing_docs)]

pub mod api;
pub mod cache;
pub mod client;
pub mod designs;
mod event_loop;
pub mod http;
pub mod metrics;
mod poller;
pub mod queue;
pub mod routes;

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use scpg::service::{Query, QueryLimits, QueryOutcome};
use scpg_jobs::{
    CancelOutcome, ChunkExecutor, ChunkRun, JobLimits, JobManager, JobSpec, LibraryLimits,
    LibraryRegistry, LibraryUploadError, NetlistLimits, NetlistRegistry, Store, SubmitError,
    UploadError,
};
use scpg_json::Json;
use scpg_liberty::Library;
use scpg_power::{VariationConfig, VariationStudy};
use scpg_technique::{TechniqueError, TechniqueRegistry};
use scpg_units::Frequency;

use crate::api::ApiRequest;
use crate::cache::ShardedCache;
use crate::designs::{DesignArtifact, DesignRegistry, DesignSpec};
use crate::http::Request;
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::queue::{Job, JobOutput, JobTiming, Slot, Work, WorkQueue};
use crate::routes::{Call, Lane, Record};

/// Server configuration. [`Default`] is a loopback service on an
/// ephemeral port, sized for this machine.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads consuming the queue (at least 2 so one slow job
    /// cannot starve the service even on a single-core host).
    pub workers: usize,
    /// Bounded work-queue capacity; pushes beyond it answer `429`.
    pub queue_capacity: usize,
    /// Result-cache shard count.
    pub cache_shards: usize,
    /// Entries per cache shard.
    pub cache_capacity_per_shard: usize,
    /// Deadline applied when a request names none.
    pub default_deadline_ms: u64,
    /// Hard ceiling on any requested deadline.
    pub max_deadline_ms: u64,
    /// Admission limits for queries and design sizes.
    pub limits: QueryLimits,
    /// Where uploaded netlists and job checkpoints persist. `None` (the
    /// default) keeps them in memory: uploads and jobs work, but do not
    /// survive a restart.
    pub store_dir: Option<String>,
    /// Work units (frequencies; one variation study = one unit) a batch
    /// job executes per chunk when the request names no `chunk_units`.
    pub chunk_units: usize,
    /// Batch jobs allowed in flight at once; submissions beyond it
    /// answer `429`.
    pub max_active_jobs: usize,
    /// Test/bench hook: artificial floor (sleep) per computed job (and
    /// per batch chunk), so backpressure, deadline and cancellation
    /// behaviour can be exercised deterministically. Zero (the default)
    /// in production.
    pub debug_job_delay_ms: u64,
    /// Traces retained by the in-memory trace store (`GET /v1/traces`);
    /// the oldest are evicted beyond it. Fixed at bind time — the store
    /// never grows.
    pub trace_capacity: usize,
    /// Settled-simulation engine for `/v1/activity`. [`Auto`] (the
    /// default) takes the bit-parallel fast path whenever the design
    /// levelizes; the binary maps `SCPG_FORCE_ENGINE=event|bitpar` onto
    /// the forced variants so the differential loopback test can pin each
    /// engine and prove the responses byte-identical.
    ///
    /// [`Auto`]: scpg_sim::EngineChoice::Auto
    pub force_engine: scpg_sim::EngineChoice,
    /// How long an idle keep-alive connection (no request in progress,
    /// nothing buffered) is kept open before eviction. A connection with
    /// a *partial* request buffered when this expires is answered
    /// `408 Request Timeout` first.
    pub idle_timeout_ms: u64,
    /// Requests served over one connection before the server closes it
    /// (`connection: close` on the final response) — bounds per-client
    /// resource pinning under keep-alive.
    pub max_requests_per_conn: u32,
    /// Wide events retained by the in-memory event log
    /// (`GET /v1/logs`); the oldest are evicted beyond it. Fixed at
    /// bind time — the log never grows.
    pub event_log_capacity: usize,
    /// Event-loop watchdog sentinel period: the poll wait is capped at
    /// this, so the loop self-times at least this often even when
    /// otherwise idle. The wake itself is a few microseconds of work,
    /// so the zero-idle-CPU property effectively survives.
    pub watchdog_tick_ms: u64,
    /// Event-loop iterations spending longer than this *processing*
    /// (poll return to next poll entry — sleep time excluded) count as
    /// stalls: `scpg_eventloop_stalls_total` increments and a
    /// `watchdog` wide event is recorded.
    pub watchdog_stall_ms: u64,
    /// Test hook: artificial sleep injected into every event-loop
    /// iteration so the watchdog path can be exercised
    /// deterministically. Zero (the default) in production.
    pub debug_loop_stall_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: scpg_exec::num_threads().max(2),
            queue_capacity: 64,
            cache_shards: 8,
            cache_capacity_per_shard: 128,
            default_deadline_ms: 30_000,
            max_deadline_ms: 120_000,
            limits: QueryLimits::default(),
            store_dir: None,
            chunk_units: 4,
            max_active_jobs: 8,
            debug_job_delay_ms: 0,
            trace_capacity: 256,
            force_engine: scpg_sim::EngineChoice::Auto,
            idle_timeout_ms: 10_000,
            max_requests_per_conn: 10_000,
            event_log_capacity: 1024,
            watchdog_tick_ms: 500,
            watchdog_stall_ms: 250,
            debug_loop_stall_ms: 0,
        }
    }
}

struct Shared {
    config: ServeConfig,
    queue: WorkQueue,
    cache: ShardedCache,
    metrics: Metrics,
    /// This server's latency histograms (per-endpoint and per-stage).
    /// Per-instance rather than process-global so several servers in one
    /// test process never pollute each other's counts.
    trace: scpg_trace::Registry,
    registry: Arc<DesignRegistry>,
    /// The registered low-power techniques behind `POST /v1/compare`.
    techniques: Arc<TechniqueRegistry>,
    /// Uploaded-netlist registry (content-addressed, possibly on disk).
    netlists: Arc<NetlistRegistry>,
    /// Uploaded Liberty-library registry (content-addressed, possibly on
    /// disk; parsed libraries held under an LRU bound).
    libraries: Arc<LibraryRegistry>,
    /// Batch-job manager; chunks run on the worker pool's batch lane.
    jobs: Arc<JobManager>,
    /// Per-request span store behind `GET /v1/traces`; bounded, shared
    /// with the job manager so batch-chunk spans land in the same traces.
    traces: Arc<scpg_trace::TraceStore>,
    /// Bounded wide-event log behind `GET /v1/logs` — one canonical
    /// record per request/chunk. Shared with the job manager so
    /// batch-chunk events land in the same ring.
    events: Arc<scpg_trace::EventLog>,
    /// When this server was bound (`scpg_uptime_seconds` baseline).
    started: Instant,
    /// Last observed event-loop iteration processing time, µs (the
    /// watchdog writes, `/v1/status` reads).
    loop_lag_last_us: AtomicU64,
    /// Maximum observed event-loop iteration processing time, µs.
    loop_lag_max_us: AtomicU64,
    /// This server incarnation's id, annotated onto batch-chunk spans so
    /// a trace read after a restart shows which boot ran which chunk.
    boot_id: String,
    shutdown: AtomicBool,
    /// Open connections (serving or idle keep-alive); the event loop
    /// owns the increments/decrements, everything else only reads.
    in_flight_conns: AtomicUsize,
    /// Wakes the event loop out of its poll wait — worker completions
    /// and shutdown both signal through it.
    wake: poller::Waker,
    /// Connection tokens whose queued job has completed; workers push
    /// (via the slot's notify hook) and the event loop drains.
    completions: std::sync::Mutex<Vec<u64>>,
}

impl Shared {
    /// Flags shutdown and wakes the event loop so it notices immediately
    /// (it parks in a poll wait, so a flag alone would only be seen on
    /// the next readiness event).
    fn begin_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return; // already shutting down; the loop was already woken
        }
        self.wake.wake();
    }

    /// Queues a completed-job notification and wakes the event loop.
    fn push_completion(&self, token: u64) {
        self.completions
            .lock()
            .expect("completions poisoned")
            .push(token);
        self.wake.wake();
    }

    /// Drains pending completion tokens (event-loop side).
    fn take_completions(&self) -> Vec<u64> {
        std::mem::take(&mut *self.completions.lock().expect("completions poisoned"))
    }

    /// The design artifact a request names, built on first use.
    fn artifact(&self, spec: &DesignSpec) -> Result<Arc<DesignArtifact>, String> {
        self.registry
            .get(spec, Some(&self.netlists), Some(&self.libraries))
    }

    /// Uniform [`scpg_trace::Introspect`] rows over every bounded
    /// in-memory structure, in the fixed order `GET /v1/status` and the
    /// `scpg_store_*` metric families report them.
    fn store_stats(&self) -> Vec<scpg_trace::StoreStats> {
        use scpg_trace::Introspect;
        vec![
            self.cache.stats(),
            self.registry.stats(),
            designs::TechniqueModelStores(Arc::clone(&self.registry)).stats(),
            self.libraries.stats(),
            self.traces.stats(),
            self.queue.stats(),
            self.events.stats(),
        ]
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    shared: Arc<Shared>,
    poller: poller::Poller,
}

impl Server {
    /// Binds the listener and builds the shared state.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(config: ServeConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let store = Arc::new(match &config.store_dir {
            None => Store::memory(),
            Some(dir) => Store::open(std::path::Path::new(dir))
                .map_err(|e| std::io::Error::other(format!("store {dir:?}: {e}")))?,
        });
        let netlists = Arc::new(NetlistRegistry::open(
            Arc::clone(&store),
            Library::ninety_nm(),
            NetlistLimits {
                max_source_bytes: config.limits.max_netlist_bytes,
                max_gates: config.limits.max_netlist_gates,
                ..NetlistLimits::default()
            },
        ));
        let libraries = Arc::new(LibraryRegistry::open(
            Arc::clone(&store),
            LibraryLimits::default(),
        ));
        let registry = Arc::new(DesignRegistry::new());
        let techniques = Arc::new(TechniqueRegistry::standard());
        let executor = Arc::new(ServeExecutor {
            registry: Arc::clone(&registry),
            techniques: Arc::clone(&techniques),
            netlists: Arc::clone(&netlists),
            libraries: Arc::clone(&libraries),
            limits: config.limits,
            debug_job_delay_ms: config.debug_job_delay_ms,
        });
        let jobs = Arc::new(JobManager::open(
            store,
            JobLimits {
                max_active_jobs: config.max_active_jobs.max(1),
                default_chunk_units: config.chunk_units.max(1),
                ..JobLimits::default()
            },
            executor,
        ));
        let traces = Arc::new(scpg_trace::TraceStore::new(config.trace_capacity.max(1)));
        let boot_id = format!("boot-{}", &scpg_trace::generate_trace_id()[1..]);
        // Replays checkpointed chunk marks of resumable jobs into the
        // fresh store, so `GET /v1/traces/{id}` after a restart still
        // shows the pre-restart chunks (tagged with their original boot).
        jobs.attach_tracing(Arc::clone(&traces), &boot_id);
        let events = Arc::new(scpg_trace::EventLog::new(config.event_log_capacity.max(1)));
        // Batch-chunk events go through the same ring as request events,
        // so `/v1/logs` is the one place where all work shows up.
        jobs.attach_event_log(Arc::clone(&events));
        let poller = poller::Poller::new()?;
        let wake = poller::Waker::new()?;
        let shared = Arc::new(Shared {
            queue: WorkQueue::new(config.queue_capacity),
            cache: ShardedCache::new(config.cache_shards, config.cache_capacity_per_shard),
            metrics: Metrics::default(),
            trace: scpg_trace::Registry::new(),
            registry,
            techniques,
            netlists,
            libraries,
            jobs,
            traces,
            events,
            started: Instant::now(),
            loop_lag_last_us: AtomicU64::new(0),
            loop_lag_max_us: AtomicU64::new(0),
            boot_id,
            shutdown: AtomicBool::new(false),
            in_flight_conns: AtomicUsize::new(0),
            wake,
            completions: std::sync::Mutex::new(Vec::new()),
            config,
        });
        Ok(Self {
            listener,
            addr,
            shared,
            poller,
        })
    }

    /// The bound address (useful with ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Starts the worker pool and the event loop, returning the control
    /// handle.
    pub fn spawn(self) -> ServerHandle {
        let workers = self.shared.config.workers.max(2);
        let mut worker_handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let shared = Arc::clone(&self.shared);
            // Worker 0 is interactive-only: whatever the batch lane holds,
            // at least one worker is always free for point queries.
            let allow_batch = i != 0;
            worker_handles.push(
                std::thread::Builder::new()
                    .name(format!("scpg-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared, allow_batch))
                    .expect("spawn worker"),
            );
        }
        // Re-dispatch jobs the store says are unfinished: a restarted
        // server picks each one up at its last checkpoint.
        for id in self.shared.jobs.resumable() {
            if let Err(id) = self.shared.queue.push_batch(id) {
                // Lane full at startup (capacity < unfinished jobs): the
                // job stays checkpointed on disk for the next restart.
                eprintln!("scpg-serve: warning: no batch slot to resume job {id}");
            }
        }
        let shared = Arc::clone(&self.shared);
        let listener = self.listener;
        let poller = self.poller;
        let event = std::thread::Builder::new()
            .name("scpg-serve-event".to_string())
            .spawn(move || event_loop::run(listener, poller, &shared))
            .expect("spawn event loop");
        ServerHandle {
            addr: self.addr,
            shared: self.shared,
            event: Some(event),
            workers: worker_handles,
        }
    }
}

/// Control handle for a running server.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    event: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A snapshot of the service counters (bench/test convenience; the
    /// full set is on `GET /metrics`).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Open connections right now, idle keep-alive included (the
    /// `scpg_connections_in_flight` gauge; tests use it to observe
    /// idle-timeout eviction).
    pub fn open_connections(&self) -> usize {
        self.shared.in_flight_conns.load(Ordering::SeqCst)
    }

    /// Requests shutdown without waiting (signal-handler safe side).
    pub fn trigger(&self) -> ShutdownTrigger {
        ShutdownTrigger {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Graceful shutdown: stop accepting, answer every request already
    /// in flight (their queued jobs complete on the workers; pipelined
    /// requests arriving after the flag get `503`), close the drained
    /// connections, then release the workers and close the listener.
    /// Every admitted request is answered.
    pub fn shutdown(mut self) {
        self.shared.begin_shutdown();
        if let Some(event) = self.event.take() {
            // The event-loop thread owns the listener and every
            // connection; joining it is the "all sockets closed" point.
            // Workers are still alive here, completing in-flight jobs
            // the loop is draining.
            let _ = event.join();
        }
        // No connections remain, so nothing can enqueue anymore: release
        // the workers once the queue drains.
        self.shared.queue.shutdown();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// A cloneable shutdown request, detached from the handle so a signal
/// handler (or another thread) can trip it while the main thread blocks
/// in [`ServerHandle::shutdown`]-style joins.
pub struct ShutdownTrigger {
    shared: Arc<Shared>,
}

impl ShutdownTrigger {
    /// Flags the server to begin graceful shutdown (and wakes the
    /// event loop so it notices immediately).
    pub fn trip(&self) {
        self.shared.begin_shutdown();
    }
}

fn worker_loop(shared: &Arc<Shared>, allow_batch: bool) {
    while let Some(work) = shared.queue.pop(allow_batch) {
        match work {
            Work::Interactive(job) => run_interactive(shared, job),
            Work::Batch(id) => run_batch_chunk(shared, id),
        }
    }
}

fn run_interactive(shared: &Arc<Shared>, job: Job) {
    if job.slot.is_abandoned() || Instant::now() >= job.deadline {
        // The requester is gone (it already answered 504); skip the
        // stale computation entirely.
        shared
            .metrics
            .results_dropped
            .fetch_add(1, Ordering::Relaxed);
        return;
    }
    let Job {
        enqueued_at,
        slot,
        cache_key,
        trace_id,
        work,
        ..
    } = job;
    let queue_wait = enqueued_at.elapsed();
    let cpu_before = scpg_trace::thread_cpu_time();
    // A panicking job must not kill the worker (silently shrinking
    // the pool) or leave the connection waiting for the deadline: it
    // becomes a 500 like any other failed computation.
    let mut out = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(work)) {
        Ok(out) => out,
        Err(_) => {
            shared
                .metrics
                .handler_panics
                .fetch_add(1, Ordering::Relaxed);
            JobOutput::new(
                500,
                api::error_body("internal error while computing this result"),
            )
        }
    };
    out.timing.queue_wait = Some(queue_wait);
    // CPU actually burned on this thread for this job: distinguishes
    // "slow because computing" from "slow because preempted" in the
    // wide event.
    out.timing.worker_cpu = Some(scpg_trace::thread_cpu_time().saturating_sub(cpu_before));
    shared
        .metrics
        .jobs_completed
        .fetch_add(1, Ordering::Relaxed);
    if out.status == 200 {
        // Cache on the worker side so even a result whose client
        // stopped waiting still warms the cache.
        shared.cache.insert(cache_key, Arc::new(out.body.clone()));
    }
    let executed = out.timing.execute.unwrap_or_default();
    let annotations = out.annotations.clone();
    if !slot.fulfill(out) {
        shared
            .metrics
            .results_dropped
            .fetch_add(1, Ordering::Relaxed);
        // The client stopped waiting (its side of the trace ends at the
        // 504), but the computation still happened — file it under the
        // same trace id so the trace explains where the worker time went.
        let mut annotations = annotations;
        annotations.push(("orphaned".to_string(), "true".to_string()));
        shared.traces.record_now(
            &trace_id,
            "request",
            "execute_orphaned",
            executed,
            annotations,
        );
    }
}

fn run_batch_chunk(shared: &Arc<Shared>, id: String) {
    let jobs = Arc::clone(&shared.jobs);
    // A panicking executor must not kill the worker; the job itself is
    // marked failed so pollers see a terminal state instead of a stall.
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| jobs.run_chunk(&id)));
    match outcome {
        Ok(ChunkRun::More) => {
            shared
                .metrics
                .job_chunks_completed
                .fetch_add(1, Ordering::Relaxed);
            // Back of the batch lane: chunks of concurrent jobs
            // round-robin instead of one job hogging the lane. If the
            // push loses a race with shutdown the token is dropped, but
            // the chunk just checkpointed — a restart resumes from it.
            let _ = shared.queue.push_batch(id);
        }
        Ok(ChunkRun::Finished) => {
            shared
                .metrics
                .job_chunks_completed
                .fetch_add(1, Ordering::Relaxed);
        }
        Ok(ChunkRun::Gone) => {}
        Err(_) => {
            shared
                .metrics
                .handler_panics
                .fetch_add(1, Ordering::Relaxed);
            shared
                .jobs
                .fail(&id, "internal error: chunk execution panicked");
        }
    }
}

/// Where one request's time went: filled in as the request flows through
/// parse → cache lookup → queue wait → compile → execute → serialize,
/// recorded into the server's histograms just before the response is
/// written (so a client that has seen its response is guaranteed to be
/// counted). `None` stages did not run (cache hit, early refusal, 504).
#[derive(Default)]
struct RequestTrace {
    endpoint: Option<&'static str>,
    /// What this request leaves in the trace store and event log: its
    /// route's, or everything when no route matched.
    record: Record,
    /// The request's trace id: the validated `x-scpg-trace-id` header
    /// value, or a generated one. Echoed on the response and used as the
    /// key for the spans this request files into the trace store.
    trace_id: String,
    /// The `Allow` header value when the reply is a 405.
    allow: Option<&'static str>,
    parse: Option<Duration>,
    cache_lookup: Option<Duration>,
    wait: Option<Duration>,
    /// Event-loop thread CPU time spent routing this request (parse
    /// excluded) — the loop-side half of the wide event's CPU columns.
    loop_cpu: Option<Duration>,
    job: JobTiming,
    /// `key=value` annotations for the trace's request span (cache
    /// disposition, design key, engine work deltas).
    annotations: Vec<(String, String)>,
}

impl RequestTrace {
    /// The stages that ran, in pipeline order, for histograms and the
    /// slow-request log line.
    fn stages(&self) -> Vec<(&'static str, Duration)> {
        [
            ("parse", self.parse),
            ("cache_lookup", self.cache_lookup),
            ("queue_wait", self.job.queue_wait),
            ("compile", self.job.compile),
            ("execute", self.job.execute),
            ("serialize", self.job.serialize),
            ("wait", self.wait),
        ]
        .into_iter()
        .filter_map(|(name, d)| d.map(|d| (name, d)))
        .collect()
    }
}

/// Finalises one request: counts the response, records latency
/// histograms, the slow-request log line and the trace-store spans, then
/// encodes the response bytes (trace id echoed, `Allow` on 405,
/// `Retry-After` on 429/503, `connection:` per `keep_alive`).
///
/// Everything is recorded *before* the bytes are handed to the socket:
/// once the client has seen its response, the request is visible in
/// `/metrics` (tests rely on this ordering).
fn finish_reply(
    shared: &Arc<Shared>,
    trace: &mut RequestTrace,
    total: Duration,
    reply: &Reply,
    keep_alive: bool,
) -> Vec<u8> {
    let (status, content_type, ref body) = *reply;
    if trace.trace_id.is_empty() {
        // The request never parsed (4xx); give the reply a fresh id
        // anyway so the client can quote it when reporting the error.
        trace.trace_id = scpg_trace::generate_trace_id();
    }
    shared.metrics.inc_response(status);
    let endpoint = trace.endpoint.unwrap_or("other");
    metrics::request_histogram(&shared.trace, endpoint).observe(total);
    let stages = trace.stages();
    for (stage, d) in &stages {
        metrics::stage_histogram(&shared.trace, stage).observe(*d);
    }
    scpg_trace::log_if_slow(endpoint, status, total, &stages);
    record_request_spans(shared, trace, endpoint, status, total, &stages);
    record_wide_event(shared, trace, endpoint, status, total);
    let mut extra: Vec<(&str, &str)> = vec![("x-scpg-trace-id", trace.trace_id.as_str())];
    match status {
        // RFC 7231 §6.5.5: 405 must name the methods that *would* work.
        405 => {
            if let Some(allow) = trace.allow {
                extra.push(("allow", allow));
            }
        }
        // Backpressure statuses carry a retry hint so well-behaved
        // clients back off instead of hammering.
        429 | 503 => extra.push(("retry-after", "1")),
        _ => {}
    }
    http::encode_response(status, content_type, &extra, body, keep_alive)
}

/// Emits one request's canonical wide event into the event log: the
/// single row per request carrying everything an operator filters on
/// (endpoint, status, timing breakdown, CPU columns, worker
/// annotations). Routes that record [`Record::Nothing`] are exempt.
fn record_wide_event(
    shared: &Arc<Shared>,
    trace: &RequestTrace,
    endpoint: &str,
    status: u16,
    total: Duration,
) {
    if trace.record == Record::Nothing {
        return;
    }
    let mut ev = scpg_trace::WideEvent::new("request", endpoint, status);
    ev.trace_id = trace.trace_id.clone();
    ev.total_us = scpg_trace::duration_us(total);
    ev.queue_wait_us = trace.job.queue_wait.map_or(0, scpg_trace::duration_us);
    ev.compile_us = trace.job.compile.map_or(0, scpg_trace::duration_us);
    ev.execute_us = trace.job.execute.map_or(0, scpg_trace::duration_us);
    ev.loop_cpu_us = trace.loop_cpu.map_or(0, scpg_trace::duration_us);
    ev.worker_cpu_us = trace.job.worker_cpu.map_or(0, scpg_trace::duration_us);
    ev.fields = trace.annotations.clone();
    shared.events.record(ev);
}

/// Files one request's spans into the trace store: each stage that ran,
/// laid out back-to-back from the request start, then a `request`
/// umbrella span covering the whole wall time with the endpoint, status
/// and worker-side annotations attached. Only routes that record
/// [`Record::All`] file spans.
fn record_request_spans(
    shared: &Arc<Shared>,
    trace: &RequestTrace,
    endpoint: &str,
    status: u16,
    total: Duration,
    stages: &[(&'static str, Duration)],
) {
    if trace.record != Record::All {
        return;
    }
    // Stage offsets are cumulative in pipeline order — an approximation
    // (the `wait` stage overlaps the worker-side stages), but one that
    // reads correctly as "where the time went".
    let mut offset = Duration::ZERO;
    for (stage, d) in stages {
        shared.traces.record_at(
            &trace.trace_id,
            "request",
            stage,
            scpg_trace::duration_us(offset),
            scpg_trace::duration_us(*d),
            Vec::new(),
        );
        offset += *d;
    }
    let mut annotations = vec![
        ("endpoint".to_string(), endpoint.to_string()),
        ("status".to_string(), status.to_string()),
    ];
    annotations.extend(trace.annotations.iter().cloned());
    shared.traces.record_at(
        &trace.trace_id,
        "request",
        "request",
        0,
        scpg_trace::duration_us(total),
        annotations,
    );
}

type Reply = (u16, &'static str, Vec<u8>);

/// A JSON reply carrying `doc`.
fn json_reply(status: u16, doc: &Json) -> Reply {
    (status, "application/json", doc.write().into_bytes())
}

/// A JSON error reply: `{"error": message}`.
fn error_reply(status: u16, message: &str) -> Reply {
    (status, "application/json", api::error_body(message))
}

/// A request body parsed as JSON; anything else is a `400`.
fn json_body(raw: &[u8]) -> Result<Json, Reply> {
    let text = std::str::from_utf8(raw).map_err(|_| error_reply(400, "body is not UTF-8"))?;
    Json::parse(text).map_err(|e| error_reply(400, &e.to_string()))
}

/// What routing a request produced: either a reply computed inline
/// (cache hits, admission refusals, introspection endpoints) or a job
/// admitted to the worker queue whose [`Slot`] the event loop must watch
/// until `deadline` (then answer `504`).
enum Outcome {
    Ready(Reply),
    Queued { slot: Arc<Slot>, deadline: Instant },
}

impl From<Reply> for Outcome {
    fn from(reply: Reply) -> Self {
        Outcome::Ready(reply)
    }
}

/// The raw value of `key` in an `a=1&b=2` query string. No percent
/// decoding: every value these endpoints accept is URL-safe already.
fn query_param<'a>(query: &'a str, key: &str) -> Option<&'a str> {
    query
        .split('&')
        .filter_map(|pair| pair.split_once('='))
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v)
}

/// The numeric query parameter `key`, if present. A value that does not
/// parse is a `422` reading "{key} {must}" rather than silently matching
/// everything — a typo in a triage query must not look like "no slow
/// requests".
fn query_number<T: std::str::FromStr>(
    query: &str,
    key: &str,
    must: &str,
) -> Result<Option<T>, Reply> {
    query_param(query, key)
        .map(|raw| {
            raw.parse()
                .map_err(|_| error_reply(422, &format!("{key} {must}")))
        })
        .transpose()
}

/// Routes one request through [`routes::ROUTES`]: a path no row matches
/// is a `404`, a method its row does not serve a `405` with the row's
/// `Allow` and message. Every routed request counts under its row's
/// endpoint, whatever the reply.
fn respond(shared: &Arc<Shared>, req: &Request, trace: &mut RequestTrace) -> Outcome {
    let (path, query) = req.path.split_once('?').unwrap_or((&req.path, ""));
    let Some((route, id)) = routes::lookup(path) else {
        return error_reply(404, "no such endpoint").into();
    };
    shared.metrics.inc_request(route.endpoint);
    trace.endpoint = Some(route.endpoint);
    trace.record = route.record;
    if !route.allows(&req.method) {
        trace.allow = Some(route.allow);
        return error_reply(405, route.wrong_method).into();
    }
    match route.lane {
        Lane::Inline(handler) => {
            let call = Call {
                req,
                id,
                query,
                trace_id: &trace.trace_id,
            };
            handler(shared, &call).into()
        }
        Lane::Queued(parse) | Lane::Batchable(parse) => {
            handle_api(shared, route.endpoint, parse, &req.body, trace)
        }
    }
}

fn handle_healthz(_: &Arc<Shared>, _: &Call<'_>) -> Reply {
    (200, "application/json", br#"{"status":"ok"}"#.to_vec())
}

fn handle_metrics(shared: &Arc<Shared>, _: &Call<'_>) -> Reply {
    let mut text = shared.metrics.render(
        shared.queue.depth(),
        shared.queue.capacity(),
        shared.in_flight_conns.load(Ordering::SeqCst),
        shared.cache.len(),
        shared.config.workers.max(2),
        shared.queue.batch_depth(),
    );
    // Trace-store occupancy, owned by this module (the store lives here,
    // not in `metrics`).
    text.push_str(&format!(
        "# HELP scpg_trace_store_entries Traces currently held by the trace store.\n\
         # TYPE scpg_trace_store_entries gauge\n\
         scpg_trace_store_entries {}\n",
        shared.traces.len()
    ));
    text.push_str(&format!(
        "# HELP scpg_trace_store_evicted_total Traces evicted to stay within capacity.\n\
         # TYPE scpg_trace_store_evicted_total counter\n\
         scpg_trace_store_evicted_total {}\n",
        shared.traces.evicted()
    ));
    // Build identity + uptime, then the uniform per-store gauge families
    // (one `store=` label per bounded structure).
    text.push_str(&metrics::render_build_info(
        shared.started.elapsed().as_secs_f64(),
    ));
    text.push_str(&metrics::render_stores(&shared.store_stats()));
    // This server's latency histograms, then the process-wide
    // engine-stage histograms (distinct family names, so the
    // concatenation stays valid exposition text).
    text.push_str(&shared.trace.render());
    text.push_str(&scpg_trace::global().render());
    (200, "text/plain; version=0.0.4", text.into_bytes())
}

fn handle_designs(shared: &Arc<Shared>, _: &Call<'_>) -> Reply {
    let doc = api::designs_response(
        &shared.config.limits,
        shared.netlists.summaries(),
        shared.libraries.summaries(),
        shared.libraries.limits(),
        api::technique_summaries(&shared.techniques),
    );
    json_reply(200, &doc)
}

/// The reply to an accepted upload: `201` with its summary when the
/// source is new (counted in `uploads`), `200` when it was already
/// stored.
fn upload_reply(created: bool, uploads: &AtomicU64, summary: &Json) -> Reply {
    if created {
        uploads.fetch_add(1, Ordering::Relaxed);
    }
    json_reply(if created { 201 } else { 200 }, summary)
}

fn handle_netlist_upload(shared: &Arc<Shared>, call: &Call<'_>) -> Reply {
    let source = match std::str::from_utf8(&call.req.body) {
        Ok(s) => s,
        Err(_) => return error_reply(400, "netlist source must be UTF-8 Verilog text"),
    };
    let clock = call.req.header("x-scpg-clock").unwrap_or("clk");
    match shared.netlists.upload(source, clock) {
        Ok((entry, created)) => {
            upload_reply(created, &shared.metrics.netlists_uploaded, &entry.summary())
        }
        Err(err) => {
            let status = match &err {
                UploadError::TooLarge { .. } => 413,
                UploadError::Parse { .. } | UploadError::Invalid(_) => 422,
                UploadError::Full { .. } => 429,
                UploadError::Store(_) => 500,
            };
            (status, "application/json", api::upload_error_body(&err))
        }
    }
}

fn handle_library_upload(shared: &Arc<Shared>, call: &Call<'_>) -> Reply {
    let source = match std::str::from_utf8(&call.req.body) {
        Ok(s) => s,
        Err(_) => return error_reply(400, "library source must be UTF-8 Liberty text"),
    };
    match shared.libraries.upload(source) {
        Ok((entry, created)) => upload_reply(
            created,
            &shared.metrics.libraries_uploaded,
            &entry.summary(),
        ),
        Err(err) => {
            let status = match &err {
                LibraryUploadError::TooLarge { .. } => 413,
                LibraryUploadError::Parse { .. } | LibraryUploadError::Invalid(_) => 422,
                LibraryUploadError::Full { .. } => 429,
                LibraryUploadError::Store(_) => 500,
            };
            (status, "application/json", api::library_error_body(&err))
        }
    }
}

fn no_such_job() -> Reply {
    error_reply(404, "no such job")
}

/// `POST /v1/jobs` submits a job, `GET /v1/jobs` lists them.
fn handle_jobs(shared: &Arc<Shared>, call: &Call<'_>) -> Reply {
    if call.req.method == "POST" {
        return handle_job_submit(shared, &call.req.body, call.trace_id);
    }
    let doc = Json::object([("jobs", Json::Arr(shared.jobs.summaries()))]);
    json_reply(200, &doc)
}

/// `GET /v1/jobs/{id}` reports a job, `DELETE /v1/jobs/{id}` cancels it.
fn handle_job(shared: &Arc<Shared>, call: &Call<'_>) -> Reply {
    let id = call.id;
    if call.req.method == "GET" {
        return match shared.jobs.status(id) {
            Some(doc) => json_reply(200, &doc),
            None => no_such_job(),
        };
    }
    match shared.jobs.cancel(id) {
        CancelOutcome::Cancelled => json_reply(
            200,
            &Json::object([("id", Json::from(id)), ("state", Json::from("cancelled"))]),
        ),
        CancelOutcome::AlreadyTerminal(state) => {
            error_reply(409, &format!("job already {}", state.key()))
        }
        CancelOutcome::Gone => no_such_job(),
    }
}

/// `GET /v1/jobs/{id}/result`: a finished job's assembled body.
fn handle_job_result(shared: &Arc<Shared>, call: &Call<'_>) -> Reply {
    match shared.jobs.result(call.id) {
        None => no_such_job(),
        Some((_, Some(body))) => (200, "application/json", body.as_ref().clone()),
        Some((state, None)) => {
            error_reply(409, &format!("job is {}; no result to fetch", state.key()))
        }
    }
}

/// `GET /v1/traces`: recent-first summaries, paginated by `limit=` and
/// `before=<seq>`.
fn handle_traces(shared: &Arc<Shared>, call: &Call<'_>) -> Reply {
    let limit = match query_number(call.query, "limit", "must be a non-negative integer") {
        Ok(limit) => limit,
        Err(reply) => return reply,
    };
    let before = match query_number(call.query, "before", "must be a trace sequence number") {
        Ok(before) => before,
        Err(reply) => return reply,
    };
    let mut summaries = shared.traces.summaries();
    if let Some(before) = before {
        summaries.retain(|s| s.seq < before);
    }
    if let Some(limit) = limit {
        summaries.truncate(limit);
    }
    // `seq` is the pagination cursor: pass the last row's value as
    // `before=` to fetch the next page.
    let traces: Vec<Json> = summaries
        .into_iter()
        .map(|s| {
            Json::object([
                ("id", Json::from(s.id)),
                ("seq", Json::from(s.seq)),
                ("kind", Json::from(s.kind)),
                ("started_unix_ms", Json::from(s.started_unix_ms)),
                ("spans", Json::from(s.spans)),
                ("total_us", Json::from(s.total_us)),
            ])
        })
        .collect();
    let doc = Json::object([
        ("boot", Json::from(shared.boot_id.as_str())),
        ("capacity", Json::from(shared.traces.capacity())),
        ("evicted", Json::from(shared.traces.evicted())),
        ("traces", Json::Arr(traces)),
    ]);
    json_reply(200, &doc)
}

/// `GET /v1/traces/{id}`: the full span list in canonical JSON.
fn handle_trace(shared: &Arc<Shared>, call: &Call<'_>) -> Reply {
    let Some(d) = shared.traces.detail(call.id) else {
        return error_reply(404, "no such trace (it may have been evicted)");
    };
    let spans: Vec<Json> = d
        .spans
        .iter()
        .map(|s| {
            Json::object([
                ("stage", Json::from(s.stage.as_str())),
                ("start_us", Json::from(s.start_us)),
                ("duration_us", Json::from(s.duration_us)),
                (
                    "annotations",
                    Json::Obj(
                        s.annotations
                            .iter()
                            .map(|(k, v)| (k.clone(), Json::from(v.as_str())))
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    let doc = Json::object([
        ("id", Json::from(d.id)),
        ("kind", Json::from(d.kind)),
        ("started_unix_ms", Json::from(d.started_unix_ms)),
        ("dropped_spans", Json::from(d.dropped_spans)),
        ("spans", Json::Arr(spans)),
    ]);
    json_reply(200, &doc)
}

/// One wide event in wire form (used by `GET /v1/logs`).
fn event_json(e: scpg_trace::WideEvent) -> Json {
    Json::object([
        ("seq", Json::from(e.seq)),
        ("unix_ms", Json::from(e.unix_ms)),
        ("trace_id", Json::from(e.trace_id)),
        ("kind", Json::from(e.kind)),
        ("endpoint", Json::from(e.endpoint)),
        ("status", Json::from(u64::from(e.status))),
        ("total_us", Json::from(e.total_us)),
        ("queue_wait_us", Json::from(e.queue_wait_us)),
        ("compile_us", Json::from(e.compile_us)),
        ("execute_us", Json::from(e.execute_us)),
        ("loop_cpu_us", Json::from(e.loop_cpu_us)),
        ("worker_cpu_us", Json::from(e.worker_cpu_us)),
        (
            "fields",
            Json::Obj(
                e.fields
                    .into_iter()
                    .map(|(k, v)| (k, Json::from(v)))
                    .collect(),
            ),
        ),
    ])
}

/// Events returned by `GET /v1/logs` when the request names no
/// `limit=`. The ring holds more; an explicit `limit=` raises it.
const DEFAULT_LOG_LIMIT: usize = 100;

/// The `GET /v1/logs` filter a query string names.
fn log_filter(query: &str) -> Result<scpg_trace::EventFilter, Reply> {
    const COUNT: &str = "must be a non-negative integer";
    Ok(scpg_trace::EventFilter {
        endpoint: query_param(query, "endpoint").map(str::to_string),
        status: query_number(query, "status", COUNT)?,
        min_duration_us: query_number(query, "min_duration_us", COUNT)?,
        since_unix_ms: query_number(query, "since", COUNT)?,
        limit: Some(query_number(query, "limit", COUNT)?.unwrap_or(DEFAULT_LOG_LIMIT)),
    })
}

/// `GET /v1/logs`: recent-first wide events, filterable by
/// `endpoint=`, `status=`, `min_duration_us=`, `since=` (Unix ms) and
/// `limit=`.
fn handle_logs(shared: &Arc<Shared>, call: &Call<'_>) -> Reply {
    let filter = match log_filter(call.query) {
        Ok(filter) => filter,
        Err(reply) => return reply,
    };
    let events: Vec<Json> = shared
        .events
        .query(&filter)
        .into_iter()
        .map(event_json)
        .collect();
    let doc = Json::object([
        ("capacity", Json::from(shared.events.capacity())),
        ("recorded", Json::from(shared.events.recorded())),
        ("evicted", Json::from(shared.events.evicted())),
        ("events", Json::Arr(events)),
    ]);
    json_reply(200, &doc)
}

/// `GET /v1/status`: one operational snapshot — build identity, uptime,
/// queue depths, event-loop lag, and the uniform [`scpg_trace::Introspect`]
/// row for every bounded structure.
fn handle_status(shared: &Arc<Shared>, _: &Call<'_>) -> Reply {
    let stores: Vec<Json> = shared
        .store_stats()
        .into_iter()
        .map(|s| {
            Json::object([
                ("name", Json::from(s.name)),
                ("entries", Json::from(s.entries)),
                ("capacity", Json::from(s.capacity)),
                ("bytes_estimate", Json::from(s.bytes_estimate)),
                ("hits", Json::from(s.hits)),
                ("misses", Json::from(s.misses)),
                ("evictions", Json::from(s.evictions)),
            ])
        })
        .collect();
    let snapshot = shared.metrics.snapshot();
    let doc = Json::object([
        ("boot", Json::from(shared.boot_id.as_str())),
        ("version", Json::from(metrics::BUILD_VERSION)),
        ("git", Json::from(metrics::BUILD_GIT)),
        (
            "uptime_seconds",
            Json::from(shared.started.elapsed().as_secs_f64()),
        ),
        (
            "connections_in_flight",
            Json::from(shared.in_flight_conns.load(Ordering::SeqCst)),
        ),
        ("workers", Json::from(shared.config.workers.max(2))),
        (
            "queue",
            Json::object([
                ("depth", Json::from(shared.queue.depth())),
                ("batch_depth", Json::from(shared.queue.batch_depth())),
                ("capacity", Json::from(shared.queue.capacity())),
            ]),
        ),
        (
            "event_loop",
            Json::object([
                (
                    "lag_last_us",
                    Json::from(shared.loop_lag_last_us.load(Ordering::Relaxed)),
                ),
                (
                    "lag_max_us",
                    Json::from(shared.loop_lag_max_us.load(Ordering::Relaxed)),
                ),
                ("stalls_total", Json::from(snapshot.eventloop_stalls)),
            ]),
        ),
        ("stores", Json::Arr(stores)),
    ]);
    json_reply(200, &doc)
}

fn handle_job_submit(shared: &Arc<Shared>, raw_body: &[u8], trace_id: &str) -> Reply {
    let body = match json_body(raw_body) {
        Ok(body) => body,
        Err(reply) => return reply,
    };
    let Some(kind) = body.get("kind").and_then(Json::as_str) else {
        let mut kinds: Vec<String> = routes::job_kinds().map(|k| format!("{k:?}")).collect();
        let last = kinds.pop().unwrap_or_default();
        let message = format!("kind must be {} or {last}", kinds.join(", "));
        return error_reply(422, &message);
    };
    let request = body
        .get("request")
        .cloned()
        .unwrap_or_else(|| Json::Obj(Vec::new()));
    let chunk_units = match body.get("chunk_units") {
        None => None,
        Some(v) => match v.as_u64() {
            Some(n) if n >= 1 => Some(n as usize),
            _ => return error_reply(422, "chunk_units must be a positive integer"),
        },
    };
    // The request's trace id becomes the job's: chunk spans executed
    // minutes later (or after a restart) file under the id the submitter
    // already holds.
    match shared
        .jobs
        .submit(kind, request, chunk_units, Some(trace_id))
    {
        Ok((id, total_units)) => {
            shared
                .metrics
                .jobs_submitted
                .fetch_add(1, Ordering::Relaxed);
            if let Err(id) = shared.queue.push_batch(id.clone()) {
                // No batch slot (lane full or shutting down): never leave
                // an accepted job stalled with no token to drive it.
                shared.jobs.fail(&id, "no batch capacity to run this job");
                return error_reply(429, "batch lane is full; retry with backoff");
            }
            let doc = Json::object([
                ("id", Json::from(id)),
                ("total_units", Json::from(total_units)),
                ("trace_id", Json::from(trace_id)),
            ]);
            json_reply(202, &doc)
        }
        Err(SubmitError::Refused(e)) => error_reply(422, &e),
        Err(err @ SubmitError::Busy { .. }) => error_reply(429, &err.to_string()),
    }
}

/// The cache key: endpoint + canonical body with transport-only fields
/// (the deadline) stripped, so retries with different deadlines still
/// hit.
fn cache_key(endpoint: &str, body: &Json) -> String {
    let mut keyed = body.clone();
    if let Json::Obj(ref mut pairs) = keyed {
        pairs.retain(|(k, _)| k != "deadline_ms");
    }
    format!("{endpoint} {}", keyed.canonical())
}

/// Answers an analysis endpoint: a cache hit inline, otherwise the body
/// parsed by the row's `parse` and queued for a worker.
fn handle_api(
    shared: &Arc<Shared>,
    endpoint: &'static str,
    parse: routes::Parser,
    raw_body: &[u8],
    trace: &mut RequestTrace,
) -> Outcome {
    let body = match json_body(raw_body) {
        Ok(body) => body,
        Err(reply) => return reply.into(),
    };

    // Validate the deadline before the cache lookup: a present but
    // non-integral value is a 422 like every other bad field, never
    // silently replaced by the default (or masked by a cache hit, since
    // the cache key strips `deadline_ms`).
    let requested_ms = match body.get("deadline_ms") {
        None => shared.config.default_deadline_ms,
        Some(v) => match v.as_u64() {
            Some(ms) => ms,
            None => {
                return error_reply(
                    422,
                    "deadline_ms must be a non-negative integral number of milliseconds",
                )
                .into()
            }
        },
    }
    .clamp(1, shared.config.max_deadline_ms);

    let key = cache_key(endpoint, &body);
    let lookup_started = Instant::now();
    let hit = shared.cache.get(&key);
    trace.cache_lookup = Some(lookup_started.elapsed());
    if let Some(hit) = hit {
        shared.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
        trace
            .annotations
            .push(("cache".to_string(), "hit".to_string()));
        return (200, "application/json", hit.as_ref().clone()).into();
    }
    shared.metrics.cache_misses.fetch_add(1, Ordering::Relaxed);
    trace
        .annotations
        .push(("cache".to_string(), "miss".to_string()));

    // Admission-check and fully parse the request *before* it costs a
    // queue slot; refusals answer 422 without touching the engine.
    let request = match parse(&body, &shared.config.limits, &shared.techniques) {
        Ok(request) => request,
        Err(e) => return error_reply(422, &e).into(),
    };
    let deadline = Instant::now() + Duration::from_millis(requested_ms);

    let slot = Slot::new();
    let worker_shared = Arc::clone(shared);
    let trace_id = trace.trace_id.clone();
    let job = Job {
        enqueued_at: Instant::now(),
        deadline,
        slot: Arc::clone(&slot),
        cache_key: key,
        trace_id: trace_id.clone(),
        work: Box::new(move || run_api(&worker_shared, request, &trace_id)),
    };
    if shared.queue.try_push(job).is_err() {
        shared
            .metrics
            .queue_rejections
            .fetch_add(1, Ordering::Relaxed);
        return error_reply(429, "work queue is full; retry with backoff").into();
    }

    // Admitted: the event loop parks the connection on this slot (its
    // notify hook wakes the loop when a worker fulfills it) and answers
    // `504` if `deadline` passes first. The connection's `wait` stage is
    // measured there.
    Outcome::Queued { slot, deadline }
}

fn debug_delay(delay_ms: u64) {
    if delay_ms > 0 {
        std::thread::sleep(Duration::from_millis(delay_ms));
    }
}

/// The worker-side trace annotations: which design ran and how much
/// engine work the window saw. The counters are process-wide, so under
/// concurrent load a delta attributes all engine work in the window —
/// exact on a quiet server, an upper bound otherwise (see
/// [`scpg::service::EngineWork`]).
fn work_annotations(
    spec: &designs::DesignSpec,
    before: scpg::service::EngineWork,
) -> Vec<(String, String)> {
    let delta = scpg::service::EngineWork::snapshot().delta_since(before);
    vec![
        ("design".to_string(), spec.key()),
        ("sim_events".to_string(), delta.sim.events.to_string()),
        (
            "sim_gate_evals".to_string(),
            delta.sim.gate_evals.to_string(),
        ),
        (
            "bitpar_words".to_string(),
            delta.bitpar.words_evaluated.to_string(),
        ),
        (
            "bitpar_cone_skips".to_string(),
            delta.bitpar.cone_skips.to_string(),
        ),
        ("exec_tasks".to_string(), delta.exec_tasks.to_string()),
    ]
}

/// The worker side of an analysis request.
fn run_api(shared: &Shared, request: ApiRequest, trace_id: &str) -> JobOutput {
    debug_delay(shared.config.debug_job_delay_ms);
    match request {
        ApiRequest::Query { spec, query } => run_query(shared, spec, &query),
        ApiRequest::Variation { spec, cfg } => run_variation(shared, spec, &cfg),
        ApiRequest::Activity { spec, request } => run_activity(shared, spec, request),
        ApiRequest::Compare {
            spec,
            frequencies,
            techniques,
        } => run_compare(shared, spec, &frequencies, &techniques, trace_id),
    }
}

/// Runs the `compile` stage (fetching or building what the request
/// needs from the design registry), timed into `timing`.
fn compile<T>(
    timing: &mut JobTiming,
    build: impl FnOnce() -> Result<T, String>,
) -> Result<T, String> {
    let started = Instant::now();
    let built = build();
    timing.compile = Some(started.elapsed());
    built
}

/// The `422` for a design the registry refused.
fn uncompilable(error: &str, timing: JobTiming) -> JobOutput {
    let mut out = JobOutput::new(422, api::error_body(error));
    out.timing = timing;
    out
}

fn run_query(shared: &Shared, spec: DesignSpec, query: &Query) -> JobOutput {
    let mut timing = JobTiming::default();
    let work_before = scpg::service::EngineWork::snapshot();
    let analysis = match compile(&mut timing, || shared.artifact(&spec)?.analysis()) {
        Ok(a) => a,
        Err(e) => return uncompilable(&e, timing),
    };

    let execute_started = Instant::now();
    let outcome = query.run(&analysis);
    timing.execute = Some(execute_started.elapsed());

    let serialize_started = Instant::now();
    let doc = match outcome {
        QueryOutcome::Points(points) => {
            let mode = match query {
                Query::Sweep { mode, .. } => *mode,
                _ => unreachable!("points only come from sweeps"),
            };
            api::sweep_response(&spec, mode, &points)
        }
        QueryOutcome::Rows(rows) => api::table_response(&spec, &rows),
        QueryOutcome::Headline(h) => api::headline_response(&spec, h.as_ref()),
    };
    let body = doc.write().into_bytes();
    timing.serialize = Some(serialize_started.elapsed());

    let mut out = JobOutput::new(200, body);
    out.timing = timing;
    out.annotations = work_annotations(&spec, work_before);
    out
}

fn run_variation(shared: &Shared, spec: DesignSpec, cfg: &VariationConfig) -> JobOutput {
    let mut timing = JobTiming::default();
    let work_before = scpg::service::EngineWork::snapshot();
    let artifact = match compile(&mut timing, || shared.artifact(&spec)) {
        Ok(a) => a,
        Err(e) => return uncompilable(&e, timing),
    };

    let execute_started = Instant::now();
    let study = VariationStudy::run(&artifact.baseline, &artifact.lib, artifact.spec.e_dyn, cfg);
    timing.execute = Some(execute_started.elapsed());

    let mut out = match study {
        Ok(study) => {
            let serialize_started = Instant::now();
            let body = api::variation_response(&spec, &study).write().into_bytes();
            timing.serialize = Some(serialize_started.elapsed());
            JobOutput::new(200, body)
        }
        Err(e) => JobOutput::new(
            422,
            api::error_body(&format!("variation study failed: {e}")),
        ),
    };
    out.timing = timing;
    out.annotations = work_annotations(&spec, work_before);
    out
}

fn run_activity(shared: &Shared, spec: DesignSpec, req: api::ActivityRequest) -> JobOutput {
    let mut timing = JobTiming::default();
    let work_before = scpg::service::EngineWork::snapshot();
    let compiled = compile(&mut timing, || {
        let artifact = shared.artifact(&spec)?;
        Ok((artifact.compiled()?, artifact.clock.clone()))
    });
    let (compiled, clock) = match compiled {
        Ok(c) => c,
        Err(e) => return uncompilable(&e, timing),
    };

    let execute_started = Instant::now();
    let report = scpg::extract_activity(
        &compiled,
        &clock,
        req.cycles,
        req.lanes,
        req.seed,
        shared.config.force_engine,
    );
    timing.execute = Some(execute_started.elapsed());

    let mut out = match report {
        Ok(report) => {
            let serialize_started = Instant::now();
            let body = api::activity_response(&spec, &report).write().into_bytes();
            timing.serialize = Some(serialize_started.elapsed());
            let mut out = JobOutput::new(200, body);
            // The engine that ran is trace-only: the response body stays
            // byte-identical across engines by construction.
            out.annotations
                .push(("engine".to_string(), report.engine.key().to_string()));
            out
        }
        Err(e) => JobOutput::new(
            422,
            api::error_body(&format!("activity extraction failed: {e}")),
        ),
    };
    out.timing = timing;
    out.annotations.extend(work_annotations(&spec, work_before));
    out
}

/// The `/v1/compare` worker: prepares each requested technique's model
/// against the shared design artifact (cached per (technique, params) in
/// the artifact's LRU, so repeated compares never recompile), evaluates
/// the frequency sweep, and assembles the rows through the same builders
/// the batch-job path uses. Each technique files a span under the
/// request's trace id.
fn run_compare(
    shared: &Shared,
    spec: DesignSpec,
    frequencies: &[Frequency],
    techniques: &[api::CompareTechnique],
    trace_id: &str,
) -> JobOutput {
    let mut timing = JobTiming::default();
    let work_before = scpg::service::EngineWork::snapshot();
    let artifact = match compile(&mut timing, || shared.artifact(&spec)) {
        Ok(a) => a,
        Err(e) => return uncompilable(&e, timing),
    };

    let execute_started = Instant::now();
    let mut rows = Vec::with_capacity(techniques.len());
    for t in techniques {
        let tech = shared
            .techniques
            .get(&t.name)
            .expect("parse_compare resolved every technique name");
        let tech_started = Instant::now();
        let model = match artifact.technique_model(tech, &t.params) {
            Ok(m) => m,
            Err(err) => {
                // AlreadyTransformed / Unsupported / BadParams are the
                // request's fault (422, structured for double-gating);
                // engine failures are ours (500).
                let status = match &err {
                    TechniqueError::Engine(_) => 500,
                    _ => 422,
                };
                let mut out = JobOutput::new(status, api::technique_error_body(&err));
                out.timing = timing;
                return out;
            }
        };
        let points: Vec<Json> = frequencies
            .iter()
            .map(|&f| api::technique_point_json(&model.evaluate(f)))
            .collect();
        shared.traces.record_now(
            trace_id,
            "request",
            &format!("technique:{}", t.name),
            tech_started.elapsed(),
            vec![("params".to_string(), t.params.canonical())],
        );
        shared
            .metrics
            .compare_techniques
            .fetch_add(1, Ordering::Relaxed);
        shared
            .metrics
            .compare_points
            .fetch_add(frequencies.len() as u64, Ordering::Relaxed);
        rows.push(api::compare_row_with_points(
            &t.name,
            &t.params,
            &model.area(),
            &model.delay(),
            points,
        ));
    }
    timing.execute = Some(execute_started.elapsed());

    let serialize_started = Instant::now();
    let body = api::compare_response_with_rows(&spec, rows)
        .write()
        .into_bytes();
    timing.serialize = Some(serialize_started.elapsed());

    let mut out = JobOutput::new(200, body);
    out.timing = timing;
    out.annotations = work_annotations(&spec, work_before);
    out.annotations.push((
        "techniques".to_string(),
        techniques
            .iter()
            .map(|t| t.name.as_str())
            .collect::<Vec<_>>()
            .join(","),
    ));
    out
}

/// [`ChunkExecutor`] over the serving layer. A job's request is parsed
/// by its kind's route-table parser and rendered by the interactive
/// endpoint's response builders, which is what makes an assembled job
/// result byte-identical to the interactive response for the same body.
struct ServeExecutor {
    registry: Arc<DesignRegistry>,
    techniques: Arc<TechniqueRegistry>,
    netlists: Arc<NetlistRegistry>,
    libraries: Arc<LibraryRegistry>,
    limits: QueryLimits,
    debug_job_delay_ms: u64,
}

impl ServeExecutor {
    fn parse(&self, spec: &JobSpec) -> Result<ApiRequest, String> {
        routes::job_parser(&spec.kind)?(&spec.request, &self.limits, &self.techniques)
    }

    fn artifact(&self, spec: &DesignSpec) -> Result<Arc<DesignArtifact>, String> {
        self.registry
            .get(spec, Some(&self.netlists), Some(&self.libraries))
    }

    /// The prepared model for one compare row (hot in the artifact's
    /// technique LRU after the first chunk).
    fn technique_model(
        &self,
        artifact: &DesignArtifact,
        t: &api::CompareTechnique,
    ) -> Result<Arc<dyn scpg_technique::TechniqueModel>, String> {
        let tech = self
            .techniques
            .get(&t.name)
            .ok_or_else(|| format!("unknown technique {:?}", t.name))?;
        artifact
            .technique_model(tech, &t.params)
            .map_err(|e| e.to_string())
    }
}

/// The refusal for a request kind whose route is not batchable
/// ([`routes::job_parser`] refuses those before a job exists).
fn not_batchable(spec: &JobSpec) -> String {
    format!("{:?} is not a batch job kind", spec.kind)
}

impl ChunkExecutor for ServeExecutor {
    /// One work unit is one frequency (sweeps, tables), one (technique,
    /// frequency) cell (compares) or one whole study (variation).
    fn plan(&self, spec: &JobSpec) -> Result<usize, String> {
        let request = self.parse(spec)?;
        // Resolve the design now so an unknown netlist id refuses the
        // submission outright instead of failing the job's first chunk.
        self.artifact(request.design())?;
        Ok(match &request {
            ApiRequest::Query {
                query: Query::Sweep { frequencies, .. } | Query::Table { frequencies },
                ..
            } => frequencies.len(),
            ApiRequest::Compare {
                frequencies,
                techniques,
                ..
            } => frequencies.len() * techniques.len(),
            _ => 1,
        })
    }

    fn execute(&self, spec: &JobSpec, start: usize, count: usize) -> Result<Vec<Json>, String> {
        debug_delay(self.debug_job_delay_ms);
        let request = self.parse(spec)?;
        let artifact = self.artifact(request.design())?;
        let units = start..start + count;
        match request {
            // Operating points are per-frequency independent, so a
            // sub-slice sweep equals the same slice of a full sweep.
            ApiRequest::Query {
                query: Query::Sweep { frequencies, mode },
                ..
            } => Ok(artifact
                .analysis()?
                .sweep(&frequencies[units], mode)
                .iter()
                .map(api::point_json)
                .collect()),
            ApiRequest::Query {
                query: Query::Table { frequencies },
                ..
            } => Ok(artifact
                .analysis()?
                .table(&frequencies[units])
                .iter()
                .map(api::row_json)
                .collect()),
            ApiRequest::Variation { spec, cfg } => {
                let study = VariationStudy::run(
                    &artifact.baseline,
                    &artifact.lib,
                    artifact.spec.e_dyn,
                    &cfg,
                )
                .map_err(|e| format!("variation study failed: {e}"))?;
                Ok(vec![api::variation_response(&spec, &study)])
            }
            // Units are technique-major: unit u is technique u/nf at
            // frequency u%nf, so one chunk slices cleanly out of the
            // full (technique × frequency) grid.
            ApiRequest::Compare {
                frequencies,
                techniques,
                ..
            } => {
                let nf = frequencies.len();
                units
                    .map(|unit| {
                        let model = self.technique_model(&artifact, &techniques[unit / nf])?;
                        Ok(api::technique_point_json(
                            &model.evaluate(frequencies[unit % nf]),
                        ))
                    })
                    .collect()
            }
            ApiRequest::Query { .. } | ApiRequest::Activity { .. } => Err(not_batchable(spec)),
        }
    }

    fn assemble(&self, spec: &JobSpec, fragments: &[Json]) -> Result<Vec<u8>, String> {
        let doc = match self.parse(spec)? {
            ApiRequest::Query {
                spec,
                query: Query::Sweep { mode, .. },
            } => api::sweep_response_with_points(&spec, mode, fragments.to_vec()),
            ApiRequest::Query {
                spec,
                query: Query::Table { .. },
            } => api::table_response_with_rows(&spec, fragments.to_vec()),
            ApiRequest::Variation { .. } => fragments
                .first()
                .ok_or("variation job produced no fragment")?
                .clone(),
            ApiRequest::Compare {
                spec,
                frequencies,
                techniques,
            } => {
                let nf = frequencies.len();
                if fragments.len() != nf * techniques.len() {
                    return Err(format!(
                        "compare job assembled {} fragments, expected {}",
                        fragments.len(),
                        nf * techniques.len()
                    ));
                }
                // Area/delay rollups come from the prepared models — hot
                // in the artifact's technique LRU after the chunks ran.
                let artifact = self.artifact(&spec)?;
                let rows = techniques
                    .iter()
                    .zip(fragments.chunks(nf))
                    .map(|(t, points)| {
                        let model = self.technique_model(&artifact, t)?;
                        Ok(api::compare_row_with_points(
                            &t.name,
                            &t.params,
                            &model.area(),
                            &model.delay(),
                            points.to_vec(),
                        ))
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                api::compare_response_with_rows(&spec, rows)
            }
            ApiRequest::Query { .. } | ApiRequest::Activity { .. } => {
                return Err(not_batchable(spec))
            }
        };
        Ok(doc.write().into_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> ServeConfig {
        ServeConfig {
            workers: 2,
            queue_capacity: 4,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn healthz_and_unknown_routes() {
        let handle = Server::bind(tiny_config()).unwrap().spawn();
        let addr = handle.addr();
        let ok = client::get(addr, "/healthz").unwrap();
        assert_eq!(ok.status, 200);
        assert!(ok.text().contains("ok"));
        let missing = client::get(addr, "/nope").unwrap();
        assert_eq!(missing.status, 404);
        let wrong_method = client::post(addr, "/healthz", "{}").unwrap();
        assert_eq!(wrong_method.status, 405);
        let wrong_method = client::get(addr, "/v1/sweep").unwrap();
        assert_eq!(wrong_method.status, 405);
        handle.shutdown();
    }

    #[test]
    fn cache_key_ignores_key_order_and_deadline() {
        let a =
            Json::parse(r#"{"frequencies_hz": [1e6], "mode": "scpg", "deadline_ms": 5}"#).unwrap();
        let b = Json::parse(r#"{"mode": "scpg", "deadline_ms": 900, "frequencies_hz": [1000000]}"#)
            .unwrap();
        assert_eq!(cache_key("sweep", &a), cache_key("sweep", &b));
        let c = Json::parse(r#"{"frequencies_hz": [2e6], "mode": "scpg"}"#).unwrap();
        assert_ne!(cache_key("sweep", &a), cache_key("sweep", &c));
        assert_ne!(cache_key("sweep", &a), cache_key("table", &a));
    }

    #[test]
    fn panicking_job_answers_500_and_keeps_workers_alive() {
        let server = Server::bind(tiny_config()).unwrap();
        let shared = Arc::clone(&server.shared);
        let handle = server.spawn();
        let slot = Slot::new();
        assert!(shared
            .queue
            .try_push(Job {
                enqueued_at: Instant::now(),
                deadline: Instant::now() + Duration::from_secs(5),
                slot: Arc::clone(&slot),
                cache_key: "test panic".to_string(),
                trace_id: "t-test-panic".to_string(),
                work: Box::new(|| panic!("deliberate test panic")),
            })
            .is_ok());
        let out = slot
            .wait_until(Instant::now() + Duration::from_secs(5))
            .expect("panic must still answer the waiter");
        assert_eq!(out.status, 500);
        assert_eq!(handle.metrics().handler_panics, 1);
        // The worker survived the unwind: the service still answers.
        let ok = client::get(handle.addr(), "/healthz").unwrap();
        assert_eq!(ok.status, 200);
        handle.shutdown();
    }

    #[test]
    fn unprocessable_requests_answer_422_without_queueing() {
        let handle = Server::bind(tiny_config()).unwrap().spawn();
        let addr = handle.addr();
        let resp = client::post(addr, "/v1/sweep", r#"{"frequencies_hz": []}"#).unwrap();
        assert_eq!(resp.status, 422);
        assert!(resp.text().contains("non-empty"), "{}", resp.text());
        let before = handle.metrics();
        assert_eq!(before.jobs_completed, 0, "nothing reached the workers");
        handle.shutdown();
    }
}
