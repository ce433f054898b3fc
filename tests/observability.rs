//! End-to-end tests of the operational introspection plane: wide-event
//! request logs (`GET /v1/logs`), the uniform store accounting behind
//! `GET /v1/status` and the `scpg_store_*` metric families, the
//! event-loop lag watchdog, `(refused)`-request accounting, and
//! `limit=`/`before=` pagination on `GET /v1/traces`.

use scpg_json::Json;
use scpg_serve::metrics::parse_metric;
use scpg_serve::{client, ServeConfig, Server};

const SWEEP_BODY: &str =
    r#"{"design": {"kind": "multiplier", "bits": 4}, "frequencies_hz": [1e6], "mode": "scpg"}"#;

fn tiny_server(config: ServeConfig) -> scpg_serve::ServerHandle {
    Server::bind(config).expect("bind").spawn()
}

fn parse_body(resp: &client::ClientResponse) -> Json {
    Json::parse(resp.text()).expect("response is JSON")
}

/// One cache-miss sweep produces exactly one wide event whose trace id
/// pivots into `GET /v1/traces/{id}`, with nonzero worker CPU time and
/// the engine-work columns attached.
#[test]
fn cache_miss_sweep_emits_one_queryable_wide_event() {
    let handle = tiny_server(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let addr = handle.addr();

    let sweep = client::post(addr, "/v1/sweep", SWEEP_BODY).expect("sweep");
    assert_eq!(sweep.status, 200, "{}", sweep.text());
    let trace_id = sweep
        .header("x-scpg-trace-id")
        .expect("trace id echoed")
        .to_string();

    let logs = client::get(addr, "/v1/logs?endpoint=sweep").expect("logs");
    assert_eq!(logs.status, 200, "{}", logs.text());
    let doc = parse_body(&logs);
    let events = doc.get("events").and_then(Json::as_array).expect("events");
    assert_eq!(events.len(), 1, "exactly one sweep event: {}", logs.text());
    let ev = &events[0];
    assert_eq!(ev.get("kind").and_then(Json::as_str), Some("request"));
    assert_eq!(ev.get("endpoint").and_then(Json::as_str), Some("sweep"));
    assert_eq!(ev.get("status").and_then(Json::as_u64), Some(200));
    assert_eq!(
        ev.get("trace_id").and_then(Json::as_str),
        Some(trace_id.as_str()),
        "the event carries the id the client saw"
    );
    let total_us = ev.get("total_us").and_then(Json::as_u64).unwrap();
    assert!(total_us > 0, "wall time recorded");
    let worker_cpu_us = ev.get("worker_cpu_us").and_then(Json::as_u64).unwrap();
    assert!(
        worker_cpu_us > 0,
        "a cache miss burns worker CPU: {}",
        logs.text()
    );
    let fields = ev.get("fields").expect("fields");
    assert_eq!(
        fields.get("cache").and_then(Json::as_str),
        Some("miss"),
        "{}",
        logs.text()
    );
    assert!(
        fields.get("sim_events").is_some() && fields.get("sim_gate_evals").is_some(),
        "engine-work columns attached: {}",
        logs.text()
    );

    // The same id resolves in the trace store — one id pivots between
    // the log row and the stage-by-stage trace.
    let trace = client::get(addr, &format!("/v1/traces/{trace_id}")).expect("trace");
    assert_eq!(trace.status, 200, "{}", trace.text());
    assert_eq!(
        parse_body(&trace).get("id").and_then(Json::as_str),
        Some(trace_id.as_str())
    );

    // The cache hit is a distinguishable second event: no worker ran.
    let hit = client::post(addr, "/v1/sweep", SWEEP_BODY).expect("sweep hit");
    assert_eq!(hit.status, 200);
    let logs = client::get(addr, "/v1/logs?endpoint=sweep").expect("logs");
    let doc = parse_body(&logs);
    let events = doc.get("events").and_then(Json::as_array).expect("events");
    assert_eq!(events.len(), 2);
    let newest = &events[0]; // recent first
    assert_eq!(
        newest
            .get("fields")
            .and_then(|f| f.get("cache"))
            .and_then(Json::as_str),
        Some("hit")
    );
    assert_eq!(
        newest.get("worker_cpu_us").and_then(Json::as_u64),
        Some(0),
        "a hit never reaches a worker"
    );

    handle.shutdown();
}

/// `GET /v1/logs` filters compose, garbage filter values answer 422,
/// and the ring stays bounded (evicting oldest) under sustained load.
#[test]
fn logs_filtering_and_ring_eviction() {
    let handle = tiny_server(ServeConfig {
        workers: 2,
        event_log_capacity: 8,
        ..ServeConfig::default()
    });
    let addr = handle.addr();

    for i in 0..20 {
        let resp = client::get(addr, &format!("/missing-{i}")).expect("404");
        assert_eq!(resp.status, 404);
    }
    let ok = client::get(addr, "/healthz").expect("healthz");
    assert_eq!(ok.status, 200);

    let logs = client::get(addr, "/v1/logs").expect("logs");
    let doc = parse_body(&logs);
    assert_eq!(doc.get("capacity").and_then(Json::as_u64), Some(8));
    assert!(
        doc.get("recorded").and_then(Json::as_u64).unwrap() >= 21,
        "{}",
        logs.text()
    );
    assert!(
        doc.get("evicted").and_then(Json::as_u64).unwrap() >= 13,
        "{}",
        logs.text()
    );
    let events = doc.get("events").and_then(Json::as_array).unwrap();
    assert!(events.len() <= 8, "ring never exceeds capacity");

    // Status filter: only the 404s.
    let logs = client::get(addr, "/v1/logs?status=404&limit=3").expect("logs");
    let events = parse_body(&logs)
        .get("events")
        .and_then(Json::as_array)
        .unwrap()
        .to_vec();
    assert_eq!(events.len(), 3);
    assert!(events
        .iter()
        .all(|e| e.get("status").and_then(Json::as_u64) == Some(404)));

    // min_duration_us high enough to exclude everything.
    let logs = client::get(addr, "/v1/logs?min_duration_us=60000000").expect("logs");
    let events = parse_body(&logs)
        .get("events")
        .and_then(Json::as_array)
        .unwrap()
        .to_vec();
    assert!(events.is_empty(), "nothing takes a minute");

    // Garbage numeric filters refuse instead of matching everything.
    let bad = client::get(addr, "/v1/logs?status=fast").expect("bad filter");
    assert_eq!(bad.status, 422, "{}", bad.text());

    // Reading the log does not append to it.
    let before = parse_body(&client::get(addr, "/v1/logs").expect("logs"))
        .get("recorded")
        .and_then(Json::as_u64)
        .unwrap();
    let _ = client::get(addr, "/v1/logs").expect("logs");
    let after = parse_body(&client::get(addr, "/v1/logs").expect("logs"))
        .get("recorded")
        .and_then(Json::as_u64)
        .unwrap();
    assert_eq!(before, after, "`/v1/logs` reads are exempt from the log");

    handle.shutdown();
}

/// `GET /v1/status` reports every bounded structure through the shared
/// `Introspect` seam, and `/metrics` exports the same rows as
/// `scpg_store_*` families plus build info and uptime.
#[test]
fn status_reports_every_store_and_metrics_mirror_it() {
    let handle = tiny_server(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let addr = handle.addr();

    // Populate a few stores: one miss + one hit on the result cache,
    // one artifact, one trace, events throughout.
    for _ in 0..2 {
        let resp = client::post(addr, "/v1/sweep", SWEEP_BODY).expect("sweep");
        assert_eq!(resp.status, 200);
    }

    let status = client::get(addr, "/v1/status").expect("status");
    assert_eq!(status.status, 200, "{}", status.text());
    let doc = parse_body(&status);
    assert!(doc.get("boot").and_then(Json::as_str).is_some());
    assert!(doc.get("version").and_then(Json::as_str).is_some());
    assert!(doc.get("uptime_seconds").and_then(Json::as_f64).unwrap() >= 0.0);
    assert!(doc.get("queue").and_then(|q| q.get("capacity")).is_some());
    assert!(doc
        .get("event_loop")
        .and_then(|l| l.get("stalls_total"))
        .is_some());

    let stores = doc.get("stores").and_then(Json::as_array).expect("stores");
    let names: Vec<&str> = stores
        .iter()
        .filter_map(|s| s.get("name").and_then(Json::as_str))
        .collect();
    for expected in [
        "result_cache",
        "design_registry",
        "technique_models",
        "library_lru",
        "trace_store",
        "work_queue",
        "event_log",
    ] {
        assert!(names.contains(&expected), "missing {expected}: {names:?}");
    }
    let cache = stores
        .iter()
        .find(|s| s.get("name").and_then(Json::as_str) == Some("result_cache"))
        .unwrap();
    assert_eq!(cache.get("entries").and_then(Json::as_u64), Some(1));
    assert_eq!(cache.get("hits").and_then(Json::as_u64), Some(1));
    assert_eq!(cache.get("misses").and_then(Json::as_u64), Some(1));
    assert!(cache.get("bytes_estimate").and_then(Json::as_u64).unwrap() > 0);
    let registry = stores
        .iter()
        .find(|s| s.get("name").and_then(Json::as_str) == Some("design_registry"))
        .unwrap();
    assert_eq!(registry.get("entries").and_then(Json::as_u64), Some(1));

    // The same rows on /metrics, next to build info and uptime.
    let metrics = client::get(addr, "/metrics").expect("metrics");
    let text = metrics.text();
    assert_eq!(
        parse_metric(text, "scpg_store_entries{store=\"result_cache\"}"),
        Some(1.0),
        "{text}"
    );
    assert_eq!(
        parse_metric(text, "scpg_store_misses_total{store=\"result_cache\"}"),
        Some(1.0)
    );
    assert!(parse_metric(text, "scpg_store_entries{store=\"event_log\"}").unwrap() > 0.0);
    assert!(text.contains("scpg_build_info{"), "{text}");
    assert!(parse_metric(text, "scpg_uptime_seconds").unwrap() >= 0.0);
    assert!(
        text.contains("scpg_eventloop_lag_seconds_bucket"),
        "watchdog histogram exported: {text}"
    );

    handle.shutdown();
}

/// An injected event-loop stall trips the watchdog: the stall counter
/// increments and a `watchdog` wide event lands in the log.
#[test]
fn injected_stall_trips_the_watchdog() {
    let handle = tiny_server(ServeConfig {
        workers: 2,
        watchdog_tick_ms: 20,
        watchdog_stall_ms: 10,
        debug_loop_stall_ms: 30,
        ..ServeConfig::default()
    });
    let addr = handle.addr();

    // Any request forces at least one loop iteration through the
    // injected 30 ms sleep (> the 10 ms stall threshold).
    let ok = client::get(addr, "/healthz").expect("healthz");
    assert_eq!(ok.status, 200);
    assert!(
        handle.metrics().eventloop_stalls >= 1,
        "stall counted: {}",
        handle.metrics().eventloop_stalls
    );

    let metrics = client::get(addr, "/metrics").expect("metrics");
    assert!(parse_metric(metrics.text(), "scpg_eventloop_stalls_total").unwrap() >= 1.0);

    let logs = client::get(addr, "/v1/logs?endpoint=(loop)").expect("logs");
    let doc = parse_body(&logs);
    let events = doc.get("events").and_then(Json::as_array).unwrap();
    assert!(
        !events.is_empty(),
        "watchdog event recorded: {}",
        logs.text()
    );
    let ev = &events[0];
    assert_eq!(ev.get("kind").and_then(Json::as_str), Some("watchdog"));
    assert!(ev.get("total_us").and_then(Json::as_u64).unwrap() >= 10_000);

    handle.shutdown();
}

/// Requests refused before routing (malformed, unsupported version)
/// are first-class in the accounting: counted under
/// `endpoint="(refused)"` and logged as wide events.
#[test]
fn refused_requests_are_counted_and_logged() {
    let handle = tiny_server(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let addr = handle.addr();

    let mut conn = client::ClientConn::connect(addr).expect("connect");
    conn.send_raw(b"GET / HTTP/2.0\r\nhost: scpg\r\n\r\n")
        .expect("send");
    let resp = conn.read_response().expect("refusal is a real response");
    assert_eq!(resp.status, 505, "{}", resp.text());

    let metrics = client::get(addr, "/metrics").expect("metrics");
    assert_eq!(
        parse_metric(
            metrics.text(),
            "scpg_requests_total{endpoint=\"(refused)\"}"
        ),
        Some(1.0),
        "{}",
        metrics.text()
    );

    let logs = client::get(addr, "/v1/logs?endpoint=(refused)").expect("logs");
    let events = parse_body(&logs)
        .get("events")
        .and_then(Json::as_array)
        .unwrap()
        .to_vec();
    assert_eq!(events.len(), 1, "{}", logs.text());
    assert_eq!(events[0].get("status").and_then(Json::as_u64), Some(505));

    handle.shutdown();
}

/// `GET /v1/traces` pages with `limit=` and `before=<seq>`; bad values
/// answer 422.
#[test]
fn traces_paginate_by_limit_and_before() {
    let handle = tiny_server(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let addr = handle.addr();

    // Three cheap trace-producing requests (404s still record a
    // request span under a fresh trace id).
    for i in 0..3 {
        let resp = client::get(addr, &format!("/missing-{i}")).expect("404");
        assert_eq!(resp.status, 404);
    }

    let all = parse_body(&client::get(addr, "/v1/traces").expect("traces"));
    let rows = all.get("traces").and_then(Json::as_array).unwrap();
    assert!(rows.len() >= 3);
    // Recent-first, with the seq cursor exposed.
    let seqs: Vec<u64> = rows
        .iter()
        .map(|t| t.get("seq").and_then(Json::as_u64).unwrap())
        .collect();
    assert!(seqs.windows(2).all(|w| w[0] > w[1]), "descending: {seqs:?}");

    let page1 = parse_body(&client::get(addr, "/v1/traces?limit=2").expect("page 1"));
    let rows1 = page1.get("traces").and_then(Json::as_array).unwrap();
    assert_eq!(rows1.len(), 2);
    let cursor = rows1[1].get("seq").and_then(Json::as_u64).unwrap();

    let page2 = parse_body(
        &client::get(addr, &format!("/v1/traces?limit=2&before={cursor}")).expect("page 2"),
    );
    let rows2 = page2.get("traces").and_then(Json::as_array).unwrap();
    assert!(!rows2.is_empty(), "a further page exists");
    assert!(rows2
        .iter()
        .all(|t| t.get("seq").and_then(Json::as_u64).unwrap() < cursor));

    let bad = client::get(addr, "/v1/traces?limit=lots").expect("bad limit");
    assert_eq!(bad.status, 422, "{}", bad.text());

    handle.shutdown();
}

/// Batch jobs report through the same plane: each chunk leaves a
/// `chunk` wide event under the job's trace id.
#[test]
fn batch_chunks_emit_wide_events() {
    let handle = tiny_server(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let addr = handle.addr();

    let submit = client::post(
        addr,
        "/v1/jobs",
        r#"{"kind": "sweep", "chunk_units": 2,
            "request": {"design": {"kind": "multiplier", "bits": 4},
                        "frequencies_hz": [1e6, 2e6, 3e6, 4e6], "mode": "scpg"}}"#,
    )
    .expect("submit");
    assert_eq!(submit.status, 202, "{}", submit.text());
    let trace_id = parse_body(&submit)
        .get("trace_id")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();

    // Poll until the job finishes (chunks run on the batch lane).
    let id = parse_body(&submit)
        .get("id")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    for _ in 0..200 {
        let status = client::get(addr, &format!("/v1/jobs/{id}")).expect("job status");
        if parse_body(&status).get("state").and_then(Json::as_str) == Some("done") {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    }

    let logs = client::get(addr, "/v1/logs?endpoint=job").expect("logs");
    let events = parse_body(&logs)
        .get("events")
        .and_then(Json::as_array)
        .unwrap()
        .to_vec();
    assert_eq!(events.len(), 2, "4 units / 2 per chunk: {}", logs.text());
    for ev in &events {
        assert_eq!(ev.get("kind").and_then(Json::as_str), Some("chunk"));
        assert_eq!(ev.get("status").and_then(Json::as_u64), Some(200));
        assert_eq!(
            ev.get("trace_id").and_then(Json::as_str),
            Some(trace_id.as_str()),
            "chunk events file under the submitter's trace id"
        );
        assert!(ev.get("worker_cpu_us").and_then(Json::as_u64).unwrap() > 0);
    }

    handle.shutdown();
}

/// A wrong-method request that matched a route counts under that
/// route's endpoint: request counter, latency histogram and wide event
/// all say `healthz`, and nothing lands under `other`.
#[test]
fn wrong_method_requests_count_under_their_endpoint() {
    let handle = tiny_server(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let addr = handle.addr();

    let resp = client::post(addr, "/healthz", "{}").expect("POST /healthz");
    assert_eq!(resp.status, 405, "{}", resp.text());

    let metrics = client::get(addr, "/metrics").expect("metrics");
    let text = metrics.text();
    assert_eq!(
        parse_metric(text, "scpg_requests_total{endpoint=\"healthz\"}"),
        Some(1.0),
        "{text}"
    );
    assert_eq!(
        parse_metric(
            text,
            "scpg_request_duration_seconds_count{endpoint=\"healthz\"}"
        ),
        Some(1.0),
        "{text}"
    );
    assert!(!text.contains("endpoint=\"other\""), "{text}");

    let logs = client::get(addr, "/v1/logs?endpoint=healthz").expect("logs");
    let events = parse_body(&logs)
        .get("events")
        .and_then(Json::as_array)
        .unwrap()
        .to_vec();
    assert_eq!(events.len(), 1, "{}", logs.text());
    assert_eq!(events[0].get("status").and_then(Json::as_u64), Some(405));

    handle.shutdown();
}
