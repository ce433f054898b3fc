//! Service counters and their Prometheus text rendering.
//!
//! Everything is a relaxed atomic — the metrics path must never contend
//! with the serving path. Gauges (queue depth, in-flight connections,
//! cache entries) are sampled at render time from their owning
//! structures rather than double-book-kept here.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// End-to-end request latency histogram family (per endpoint): from
/// head parsed to response about to be written.
pub const REQUEST_HISTOGRAM: &str = "scpg_request_duration_seconds";
/// Per-stage request latency histogram family (parse, cache_lookup,
/// queue_wait, compile, execute, serialize, wait).
pub const STAGE_HISTOGRAM: &str = "scpg_stage_duration_seconds";

/// The per-endpoint end-to-end latency histogram on a server's own
/// trace registry.
pub fn request_histogram(reg: &scpg_trace::Registry, endpoint: &str) -> Arc<scpg_trace::Histogram> {
    reg.histogram(
        REQUEST_HISTOGRAM,
        "End-to-end request latency in seconds, by endpoint.",
        "endpoint",
        endpoint,
    )
}

/// The per-stage latency histogram on a server's own trace registry.
pub fn stage_histogram(reg: &scpg_trace::Registry, stage: &str) -> Arc<scpg_trace::Histogram> {
    reg.histogram(
        STAGE_HISTOGRAM,
        "Request time spent per serving stage, in seconds.",
        "stage",
        stage,
    )
}

/// The endpoints with dedicated request counters. `"(refused)"` counts
/// requests the event loop answered without routing (malformed heads,
/// idle-timeout 408s, drain-time 503s) — what clients saw but no
/// handler did.
pub const ENDPOINTS: [&str; 16] = [
    "sweep",
    "table",
    "headline",
    "variation",
    "activity",
    "compare",
    "netlists",
    "libraries",
    "jobs",
    "traces",
    "logs",
    "status",
    "designs",
    "healthz",
    "metrics",
    "(refused)",
];

/// The status codes with dedicated response counters.
pub const STATUSES: [u16; 16] = [
    200, 201, 202, 400, 404, 405, 408, 409, 413, 422, 429, 500, 501, 503, 504, 505,
];

/// All service counters.
#[derive(Default)]
pub struct Metrics {
    requests: [AtomicU64; ENDPOINTS.len()],
    responses: [AtomicU64; STATUSES.len()],
    /// Requests answered from the result cache.
    pub cache_hits: AtomicU64,
    /// Requests that had to compute.
    pub cache_misses: AtomicU64,
    /// Jobs refused because the queue was full (`429`s).
    pub queue_rejections: AtomicU64,
    /// Requests whose deadline expired while queued or computing
    /// (`504`s).
    pub deadline_expirations: AtomicU64,
    /// Jobs fully computed by workers.
    pub jobs_completed: AtomicU64,
    /// Worker results dropped because the waiter had already gone.
    pub results_dropped: AtomicU64,
    /// Handler or job panics caught and converted to `500`s.
    pub handler_panics: AtomicU64,
    /// Netlists accepted by `POST /v1/netlists` (fresh uploads only;
    /// idempotent re-uploads do not count).
    pub netlists_uploaded: AtomicU64,
    /// Liberty libraries accepted by `POST /v1/libraries` (fresh uploads
    /// only; idempotent re-uploads do not count).
    pub libraries_uploaded: AtomicU64,
    /// Batch jobs accepted by `POST /v1/jobs`.
    pub jobs_submitted: AtomicU64,
    /// Batch-job chunks completed by workers (the throughput unit of the
    /// async-job subsystem).
    pub job_chunks_completed: AtomicU64,
    /// Technique rows computed by `/v1/compare` (interactive requests;
    /// batch compare jobs count chunks instead).
    pub compare_techniques: AtomicU64,
    /// Operating points computed by `/v1/compare` (interactive).
    pub compare_points: AtomicU64,
    /// Event-loop iterations whose processing time exceeded the
    /// configured stall threshold (the lag watchdog's alarm counter).
    pub eventloop_stalls: AtomicU64,
}

/// A point-in-time copy, for tests and the bench harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// See [`Metrics::cache_hits`].
    pub cache_hits: u64,
    /// See [`Metrics::cache_misses`].
    pub cache_misses: u64,
    /// See [`Metrics::queue_rejections`].
    pub queue_rejections: u64,
    /// See [`Metrics::deadline_expirations`].
    pub deadline_expirations: u64,
    /// See [`Metrics::jobs_completed`].
    pub jobs_completed: u64,
    /// See [`Metrics::handler_panics`].
    pub handler_panics: u64,
    /// See [`Metrics::netlists_uploaded`].
    pub netlists_uploaded: u64,
    /// See [`Metrics::libraries_uploaded`].
    pub libraries_uploaded: u64,
    /// See [`Metrics::jobs_submitted`].
    pub jobs_submitted: u64,
    /// See [`Metrics::job_chunks_completed`].
    pub job_chunks_completed: u64,
    /// See [`Metrics::compare_techniques`].
    pub compare_techniques: u64,
    /// See [`Metrics::compare_points`].
    pub compare_points: u64,
    /// See [`Metrics::eventloop_stalls`].
    pub eventloop_stalls: u64,
}

impl Metrics {
    /// Bumps the request counter for an endpoint name (unknown names are
    /// ignored — they still get a response counter).
    pub fn inc_request(&self, endpoint: &str) {
        if let Some(i) = ENDPOINTS.iter().position(|e| *e == endpoint) {
            self.requests[i].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Bumps the response counter for a status code.
    pub fn inc_response(&self, status: u16) {
        if let Some(i) = STATUSES.iter().position(|s| *s == status) {
            self.responses[i].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A coherent-enough copy for assertions and bench reporting.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            queue_rejections: self.queue_rejections.load(Ordering::Relaxed),
            deadline_expirations: self.deadline_expirations.load(Ordering::Relaxed),
            jobs_completed: self.jobs_completed.load(Ordering::Relaxed),
            handler_panics: self.handler_panics.load(Ordering::Relaxed),
            netlists_uploaded: self.netlists_uploaded.load(Ordering::Relaxed),
            libraries_uploaded: self.libraries_uploaded.load(Ordering::Relaxed),
            jobs_submitted: self.jobs_submitted.load(Ordering::Relaxed),
            job_chunks_completed: self.job_chunks_completed.load(Ordering::Relaxed),
            compare_techniques: self.compare_techniques.load(Ordering::Relaxed),
            compare_points: self.compare_points.load(Ordering::Relaxed),
            eventloop_stalls: self.eventloop_stalls.load(Ordering::Relaxed),
        }
    }

    /// Renders the Prometheus text exposition format. The gauges are
    /// passed in by the server, which owns the structures they sample.
    pub fn render(
        &self,
        queue_depth: usize,
        queue_capacity: usize,
        in_flight: usize,
        cache_entries: usize,
        workers: usize,
        batch_depth: usize,
    ) -> String {
        let mut out = String::with_capacity(2048);

        out.push_str("# HELP scpg_requests_total Requests received, by endpoint.\n");
        out.push_str("# TYPE scpg_requests_total counter\n");
        for (i, name) in ENDPOINTS.iter().enumerate() {
            out.push_str(&format!(
                "scpg_requests_total{{endpoint=\"{name}\"}} {}\n",
                self.requests[i].load(Ordering::Relaxed)
            ));
        }

        out.push_str("# HELP scpg_responses_total Responses sent, by status code.\n");
        out.push_str("# TYPE scpg_responses_total counter\n");
        for (i, code) in STATUSES.iter().enumerate() {
            out.push_str(&format!(
                "scpg_responses_total{{code=\"{code}\"}} {}\n",
                self.responses[i].load(Ordering::Relaxed)
            ));
        }

        let counters: [(&str, &str, u64); 14] = [
            (
                "scpg_cache_hits_total",
                "Requests answered from the result cache.",
                self.cache_hits.load(Ordering::Relaxed),
            ),
            (
                "scpg_cache_misses_total",
                "Requests that computed a fresh result.",
                self.cache_misses.load(Ordering::Relaxed),
            ),
            (
                "scpg_queue_rejections_total",
                "Jobs refused with 429 because the work queue was full.",
                self.queue_rejections.load(Ordering::Relaxed),
            ),
            (
                "scpg_deadline_expirations_total",
                "Requests that timed out (504) before their job finished.",
                self.deadline_expirations.load(Ordering::Relaxed),
            ),
            (
                "scpg_jobs_completed_total",
                "Jobs fully computed by worker threads.",
                self.jobs_completed.load(Ordering::Relaxed),
            ),
            (
                "scpg_results_dropped_total",
                "Worker results dropped because the client had gone.",
                self.results_dropped.load(Ordering::Relaxed),
            ),
            (
                "scpg_handler_panics_total",
                "Handler or job panics caught and answered with 500.",
                self.handler_panics.load(Ordering::Relaxed),
            ),
            (
                "scpg_netlists_uploaded_total",
                "Netlists accepted by POST /v1/netlists (fresh uploads).",
                self.netlists_uploaded.load(Ordering::Relaxed),
            ),
            (
                "scpg_libraries_uploaded_total",
                "Liberty libraries accepted by POST /v1/libraries (fresh uploads).",
                self.libraries_uploaded.load(Ordering::Relaxed),
            ),
            (
                "scpg_batch_jobs_submitted_total",
                "Batch jobs accepted by POST /v1/jobs.",
                self.jobs_submitted.load(Ordering::Relaxed),
            ),
            (
                "scpg_batch_chunks_completed_total",
                "Batch-job chunks completed by worker threads.",
                self.job_chunks_completed.load(Ordering::Relaxed),
            ),
            (
                "scpg_compare_techniques_total",
                "Technique rows computed by POST /v1/compare.",
                self.compare_techniques.load(Ordering::Relaxed),
            ),
            (
                "scpg_compare_points_total",
                "Operating points computed by POST /v1/compare.",
                self.compare_points.load(Ordering::Relaxed),
            ),
            (
                "scpg_eventloop_stalls_total",
                "Event-loop iterations exceeding the stall threshold.",
                self.eventloop_stalls.load(Ordering::Relaxed),
            ),
        ];
        for (name, help, value) in counters {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"
            ));
        }

        // The gauges section: point-in-time values sampled at render
        // time from the structures that own them (never book-kept here),
        // so a scrape can never observe a drifted double count. The
        // inventory is: queue depth/capacity, in-flight connections,
        // cache entries, worker threads, batch-lane depth.
        let gauges: [(&str, &str, u64); 6] = [
            (
                "scpg_queue_depth",
                "Jobs waiting in the bounded work queue.",
                queue_depth as u64,
            ),
            (
                "scpg_queue_capacity",
                "Admission capacity of the work queue.",
                queue_capacity as u64,
            ),
            (
                "scpg_connections_in_flight",
                "Open connections (serving or idle keep-alive).",
                in_flight as u64,
            ),
            (
                "scpg_cache_entries",
                "Entries across all result-cache shards.",
                cache_entries as u64,
            ),
            (
                "scpg_worker_threads",
                "Worker threads consuming the queue.",
                workers as u64,
            ),
            (
                "scpg_batch_queue_depth",
                "Batch-job tokens waiting in the batch lane.",
                batch_depth as u64,
            ),
        ];
        for (name, help, value) in gauges {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {value}\n"
            ));
        }

        // Pool introspection from the execution layer: total items its
        // fan-outs evaluated and how many fan-outs went parallel.
        out.push_str(&format!(
            "# HELP scpg_exec_tasks_total Work items evaluated by the scpg-exec pool.\n\
             # TYPE scpg_exec_tasks_total counter\n\
             scpg_exec_tasks_total {}\n",
            scpg_exec::tasks_executed()
        ));
        out.push_str(&format!(
            "# HELP scpg_exec_parallel_jobs_total Fan-outs that ran on more than one worker.\n\
             # TYPE scpg_exec_parallel_jobs_total counter\n\
             scpg_exec_parallel_jobs_total {}\n",
            scpg_exec::parallel_jobs()
        ));

        // NLDM table-lookup volume from the liberty crate: process-wide,
        // like the exec counters, because the table backend is evaluated
        // deep inside the physics layer with no handle on the server.
        out.push_str(&format!(
            "# HELP scpg_table_lookups_total NLDM table interpolations served by the liberty crate.\n\
             # TYPE scpg_table_lookups_total counter\n\
             scpg_table_lookups_total {}\n",
            scpg_liberty::table_lookups_total()
        ));

        // Engine work counters from the simulation kernel, routed through
        // `scpg::service::EngineWork`. Process-wide like the exec
        // counters above.
        let work = scpg::service::EngineWork::snapshot();
        let engine: [(&str, &str, u64); 7] = [
            (
                "scpg_sim_events_total",
                "Live events processed by the gate-level simulation kernel, no-op events included.",
                work.sim.events,
            ),
            (
                "scpg_sim_gate_evals_total",
                "Gate (cell) evaluations performed by the simulation kernel.",
                work.sim.gate_evals,
            ),
            (
                "scpg_sim_wheel_advance_total",
                "Time-wheel slot claims; no-op events never enter the wheel and are not counted.",
                work.sim.wheel_advances,
            ),
            (
                "scpg_sim_wheel_overflow_total",
                "Queued events sent to the far-future overflow heap; no-op events are not counted.",
                work.sim.wheel_overflows,
            ),
            (
                "scpg_sim_bitpar_words_evaluated_total",
                "Word-wide cell evaluations by the bit-parallel engine.",
                work.bitpar.words_evaluated,
            ),
            (
                "scpg_sim_bitpar_lanes_total",
                "Stimulus lanes simulated by the bit-parallel engine.",
                work.bitpar.lanes,
            ),
            (
                "scpg_sim_bitpar_cone_skips_total",
                "Combinational cones skipped as input-unchanged per settle.",
                work.bitpar.cone_skips,
            ),
        ];
        for (name, help, value) in engine {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"
            ));
        }
        out
    }
}

/// The crate version baked into `scpg_build_info` and `GET /v1/status`.
pub const BUILD_VERSION: &str = env!("CARGO_PKG_VERSION");

/// The git revision baked in at compile time (`SCPG_GIT_SHA` in the
/// build environment), or `"unknown"` for plain `cargo build`s.
pub const BUILD_GIT: &str = match option_env!("SCPG_GIT_SHA") {
    Some(sha) => sha,
    None => "unknown",
};

/// Renders the build-identity gauge (`scpg_build_info{version,git} 1`,
/// the Prometheus idiom for exposing labels rather than a value) and
/// the process uptime gauge.
pub fn render_build_info(uptime_seconds: f64) -> String {
    format!(
        "# HELP scpg_build_info Build identity; the value is always 1.\n\
         # TYPE scpg_build_info gauge\n\
         scpg_build_info{{version=\"{BUILD_VERSION}\",git=\"{BUILD_GIT}\"}} 1\n\
         # HELP scpg_uptime_seconds Seconds since this server was bound.\n\
         # TYPE scpg_uptime_seconds gauge\n\
         scpg_uptime_seconds {uptime_seconds}\n"
    )
}

/// Renders the uniform `scpg_store_*` families — one sample per bounded
/// structure per family, labelled `store="…"` — from [`Introspect`]
/// snapshots. One renderer covers every current and future store.
///
/// [`Introspect`]: scpg_trace::Introspect
pub fn render_stores(stores: &[scpg_trace::StoreStats]) -> String {
    use std::fmt::Write;
    type Get = fn(&scpg_trace::StoreStats) -> u64;
    let families: [(&str, &str, &str, Get); 6] = [
        (
            "scpg_store_entries",
            "gauge",
            "Entries resident in each bounded in-memory store.",
            |s| s.entries as u64,
        ),
        (
            "scpg_store_capacity",
            "gauge",
            "Configured entry ceiling of each bounded store.",
            |s| s.capacity as u64,
        ),
        (
            "scpg_store_bytes",
            "gauge",
            "Best-effort resident bytes of each bounded store.",
            |s| s.bytes_estimate as u64,
        ),
        (
            "scpg_store_hits_total",
            "counter",
            "Lookups served from each bounded store.",
            |s| s.hits,
        ),
        (
            "scpg_store_misses_total",
            "counter",
            "Lookups that missed each bounded store.",
            |s| s.misses,
        ),
        (
            "scpg_store_evictions_total",
            "counter",
            "Entries displaced by each bounded store's capacity bound.",
            |s| s.evictions,
        ),
    ];
    let mut out = String::with_capacity(256 * families.len());
    for (name, typ, help, get) in families {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} {typ}");
        for s in stores {
            let _ = writeln!(out, "{name}{{store=\"{}\"}} {}", s.name, get(s));
        }
    }
    out
}

/// Extracts a counter/gauge value from rendered Prometheus text — the
/// test-side accessor, kept next to the producer so the formats cannot
/// drift apart.
pub fn parse_metric(text: &str, name_and_labels: &str) -> Option<f64> {
    text.lines()
        .find(|l| {
            l.strip_prefix(name_and_labels)
                .is_some_and(|rest| rest.starts_with(' '))
        })
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_render_and_parse_back() {
        let m = Metrics::default();
        m.inc_request("sweep");
        m.inc_request("sweep");
        m.inc_request("metrics");
        m.inc_response(200);
        m.inc_response(429);
        m.cache_hits.fetch_add(3, Ordering::Relaxed);
        m.job_chunks_completed.fetch_add(7, Ordering::Relaxed);
        m.compare_techniques.fetch_add(4, Ordering::Relaxed);
        m.compare_points.fetch_add(12, Ordering::Relaxed);
        let text = m.render(2, 64, 1, 5, 4, 3);
        assert_eq!(
            parse_metric(&text, "scpg_requests_total{endpoint=\"sweep\"}"),
            Some(2.0)
        );
        assert_eq!(
            parse_metric(&text, "scpg_responses_total{code=\"429\"}"),
            Some(1.0)
        );
        assert_eq!(parse_metric(&text, "scpg_cache_hits_total"), Some(3.0));
        assert_eq!(parse_metric(&text, "scpg_queue_depth"), Some(2.0));
        assert_eq!(parse_metric(&text, "scpg_queue_capacity"), Some(64.0));
        assert_eq!(parse_metric(&text, "scpg_worker_threads"), Some(4.0));
        assert_eq!(parse_metric(&text, "scpg_batch_queue_depth"), Some(3.0));
        assert_eq!(
            parse_metric(&text, "scpg_batch_chunks_completed_total"),
            Some(7.0)
        );
        assert_eq!(
            parse_metric(&text, "scpg_compare_techniques_total"),
            Some(4.0)
        );
        assert_eq!(parse_metric(&text, "scpg_compare_points_total"), Some(12.0));
        assert_eq!(
            parse_metric(&text, "scpg_requests_total{endpoint=\"libraries\"}"),
            Some(0.0)
        );
        assert_eq!(
            parse_metric(&text, "scpg_libraries_uploaded_total"),
            Some(0.0)
        );
        assert!(
            parse_metric(&text, "scpg_table_lookups_total").is_some(),
            "table-lookup family must render (value is process-wide)"
        );
        assert_eq!(
            parse_metric(&text, "scpg_requests_total{endpoint=\"compare\"}"),
            Some(0.0)
        );
        assert!(parse_metric(&text, "scpg_exec_tasks_total").is_some());
        assert_eq!(parse_metric(&text, "scpg_nonexistent"), None);
    }

    #[test]
    fn gauges_and_engine_counters_render_and_parse_back() {
        let m = Metrics::default();
        m.handler_panics.fetch_add(2, Ordering::Relaxed);
        let text = m.render(0, 16, 5, 0, 2, 0);
        // The sampled gauges round-trip...
        assert_eq!(parse_metric(&text, "scpg_connections_in_flight"), Some(5.0));
        assert_eq!(parse_metric(&text, "scpg_cache_entries"), Some(0.0));
        // ...as do the panic counter and the engine work families (their
        // values are process-wide, so only presence is asserted).
        assert_eq!(parse_metric(&text, "scpg_handler_panics_total"), Some(2.0));
        for family in [
            "scpg_sim_events_total",
            "scpg_sim_gate_evals_total",
            "scpg_sim_wheel_advance_total",
            "scpg_sim_wheel_overflow_total",
            "scpg_sim_bitpar_words_evaluated_total",
            "scpg_sim_bitpar_lanes_total",
            "scpg_sim_bitpar_cone_skips_total",
        ] {
            assert!(
                parse_metric(&text, family).is_some(),
                "missing engine family {family}"
            );
        }
    }

    /// A minimal Prometheus exposition lint: every sample line parses as
    /// `name{labels} value`, every family is announced by exactly one
    /// HELP + TYPE pair before its first sample, and no family is
    /// declared twice (the classic copy-paste bug when a new counter is
    /// added to the render table).
    #[test]
    fn exposition_text_is_lint_clean() {
        let m = Metrics::default();
        // Lint the full exposition surface the server concatenates:
        // counters/gauges, build identity + uptime, and the uniform
        // store families.
        let stores = [
            scpg_trace::StoreStats {
                name: "result_cache",
                entries: 3,
                capacity: 64,
                bytes_estimate: 1234,
                hits: 7,
                misses: 2,
                evictions: 1,
            },
            scpg_trace::StoreStats {
                name: "trace_store",
                entries: 0,
                capacity: 256,
                bytes_estimate: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            },
        ];
        let text = m.render(1, 8, 2, 3, 4, 5) + &render_build_info(12.5) + &render_stores(&stores);
        let mut declared = std::collections::HashSet::new();
        let mut last_help: Option<String> = None;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let name = rest.split(' ').next().unwrap().to_string();
                assert!(
                    declared.insert(name.clone()),
                    "family {name} declared twice"
                );
                last_help = Some(name);
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut parts = rest.split(' ');
                let name = parts.next().unwrap();
                assert_eq!(
                    last_help.as_deref(),
                    Some(name),
                    "TYPE for {name} must directly follow its HELP"
                );
                assert!(
                    matches!(parts.next(), Some("counter" | "gauge" | "histogram")),
                    "bad TYPE line: {line}"
                );
                continue;
            }
            // Sample line: `name{labels} value` or `name value`.
            let (name_part, value) = line.rsplit_once(' ').expect("sample has a value");
            let family = name_part.split(['{', ' ']).next().unwrap();
            let family = family.trim_end_matches('}');
            assert!(
                declared.iter().any(|d| family.starts_with(d.as_str())),
                "sample {family} has no HELP/TYPE declaration"
            );
            assert!(
                value.parse::<f64>().is_ok(),
                "sample value must be numeric: {line}"
            );
        }
        assert!(declared.contains("scpg_libraries_uploaded_total"));
        assert!(declared.contains("scpg_table_lookups_total"));
        assert!(declared.contains("scpg_eventloop_stalls_total"));
        assert!(declared.contains("scpg_build_info"));
        assert!(declared.contains("scpg_uptime_seconds"));
        for family in [
            "scpg_store_entries",
            "scpg_store_capacity",
            "scpg_store_bytes",
            "scpg_store_hits_total",
            "scpg_store_misses_total",
            "scpg_store_evictions_total",
        ] {
            assert!(declared.contains(family), "missing store family {family}");
        }
        assert_eq!(
            parse_metric(&text, "scpg_store_hits_total{store=\"result_cache\"}"),
            Some(7.0)
        );
        assert_eq!(
            parse_metric(&text, "scpg_store_entries{store=\"trace_store\"}"),
            Some(0.0)
        );
        assert_eq!(parse_metric(&text, "scpg_uptime_seconds"), Some(12.5));
        assert_eq!(
            parse_metric(
                &text,
                &format!("scpg_build_info{{version=\"{BUILD_VERSION}\",git=\"{BUILD_GIT}\"}}")
            ),
            Some(1.0)
        );
        assert_eq!(
            parse_metric(&text, "scpg_requests_total{endpoint=\"(refused)\"}"),
            Some(0.0)
        );
    }

    #[test]
    fn unknown_endpoint_is_ignored_not_panicked() {
        let m = Metrics::default();
        m.inc_request("no-such-endpoint");
        m.inc_response(418);
        let text = m.render(0, 1, 0, 0, 1, 0);
        assert!(!text.contains("no-such-endpoint"));
    }

    #[test]
    fn snapshot_reflects_counters() {
        let m = Metrics::default();
        m.cache_misses.fetch_add(2, Ordering::Relaxed);
        m.jobs_completed.fetch_add(2, Ordering::Relaxed);
        let s = m.snapshot();
        assert_eq!(s.cache_misses, 2);
        assert_eq!(s.jobs_completed, 2);
        assert_eq!(s.cache_hits, 0);
    }
}
