//! Connection-lifecycle tests for the event-driven serve core:
//! HTTP/1.1 keep-alive, request pipelining, idle/partial-request
//! timeouts, the wire-protocol strictness sweep (smuggling-shaped
//! header names, HTTP version handling) and the diagnostic headers
//! (`Allow` on 405, `Retry-After` on 429/503).

use scpg_serve::client::{self, ClientConn};
use scpg_serve::routes::ROUTES;
use scpg_serve::{ServeConfig, Server};
use std::io::Read;
use std::time::Duration;

const DESIGN: &str = r#"{"kind": "multiplier", "bits": 4}"#;

fn body(rest: &str) -> String {
    format!(r#"{{"design": {DESIGN}, {rest}}}"#)
}

fn serve(config: ServeConfig) -> scpg_serve::ServerHandle {
    Server::bind(config).expect("bind").spawn()
}

fn default_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    }
}

#[test]
fn keep_alive_connection_serves_many_requests() {
    let handle = serve(default_config());
    let mut conn = ClientConn::connect(handle.addr()).expect("connect");
    for _ in 0..5 {
        let resp = conn.get("/healthz").expect("healthz");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("connection"), Some("keep-alive"));
        assert_eq!(resp.text(), r#"{"status":"ok"}"#);
    }
    // All five requests shared one server-side connection.
    assert_eq!(handle.open_connections(), 1);
    drop(conn);
    handle.shutdown();
}

#[test]
fn two_pipelined_requests_in_one_segment_get_two_responses_in_order() {
    let handle = serve(default_config());
    let mut conn = ClientConn::connect(handle.addr()).expect("connect");
    // One write carries both requests back to back; the parser must
    // retain the second request's bytes past the first and answer both
    // in order.
    conn.send_raw(
        b"GET /healthz HTTP/1.1\r\nhost: scpg\r\n\r\nGET /metrics HTTP/1.1\r\nhost: scpg\r\n\r\n",
    )
    .expect("pipeline writes");
    let first = conn.read_response().expect("first response");
    assert_eq!(first.status, 200);
    assert_eq!(first.text(), r#"{"status":"ok"}"#);
    let second = conn.read_response().expect("second response");
    assert_eq!(second.status, 200);
    assert!(second.text().contains("scpg_requests_total"));
    handle.shutdown();
}

#[test]
fn pipelined_body_and_follow_up_request_are_both_served() {
    let handle = serve(default_config());
    let mut conn = ClientConn::connect(handle.addr()).expect("connect");
    // A POST with a body and a GET behind it in the same segment: the
    // bytes past content-length are the next request, not garbage.
    let post_body = body(r#""frequencies_hz": [1e6]"#);
    let raw = format!(
        "POST /v1/sweep HTTP/1.1\r\nhost: scpg\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{post_body}GET /healthz HTTP/1.1\r\nhost: scpg\r\n\r\n",
        post_body.len()
    );
    conn.send_raw(raw.as_bytes()).expect("pipeline writes");
    let sweep = conn.read_response().expect("sweep response");
    assert_eq!(sweep.status, 200, "{}", sweep.text());
    let health = conn.read_response().expect("healthz response");
    assert_eq!(health.status, 200);
    assert_eq!(health.text(), r#"{"status":"ok"}"#);
    handle.shutdown();
}

#[test]
fn connection_close_mid_pipeline_answers_through_it_then_closes() {
    let handle = serve(default_config());
    let mut conn = ClientConn::connect(handle.addr()).expect("connect");
    // Three pipelined requests; the second asks to close. The server
    // answers the first two (second marked close) and discards the
    // third.
    conn.send_raw(
        b"GET /healthz HTTP/1.1\r\nhost: scpg\r\n\r\n\
          GET /healthz HTTP/1.1\r\nhost: scpg\r\nconnection: close\r\n\r\n\
          GET /healthz HTTP/1.1\r\nhost: scpg\r\n\r\n",
    )
    .expect("pipeline writes");
    let first = conn.read_response().expect("first response");
    assert_eq!(first.status, 200);
    assert_eq!(first.header("connection"), Some("keep-alive"));
    let second = conn.read_response().expect("second response");
    assert_eq!(second.status, 200);
    assert_eq!(second.header("connection"), Some("close"));
    // No third response: the connection is closed.
    assert!(conn.read_response().is_err(), "third request was answered");
    handle.shutdown();
}

#[test]
fn max_requests_per_conn_closes_after_the_cap() {
    let handle = serve(ServeConfig {
        max_requests_per_conn: 2,
        ..default_config()
    });
    let mut conn = ClientConn::connect(handle.addr()).expect("connect");
    let first = conn.get("/healthz").expect("first");
    assert_eq!(first.header("connection"), Some("keep-alive"));
    let second = conn.get("/healthz").expect("second");
    assert_eq!(second.header("connection"), Some("close"));
    assert!(conn.read_response().is_err() || conn.is_closed().unwrap());
    // A fresh connection starts a fresh budget.
    let mut again = ClientConn::connect(handle.addr()).expect("reconnect");
    assert_eq!(again.get("/healthz").expect("fresh").status, 200);
    handle.shutdown();
}

#[test]
fn http_1_0_defaults_to_close_but_honours_keep_alive() {
    let handle = serve(default_config());
    let resp = client::raw(
        handle.addr(),
        b"GET /healthz HTTP/1.0\r\nhost: scpg\r\n\r\n",
    )
    .expect("1.0 request");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("connection"), Some("close"));

    let mut conn = ClientConn::connect(handle.addr()).expect("connect");
    conn.send_raw(b"GET /healthz HTTP/1.0\r\nhost: scpg\r\nconnection: keep-alive\r\n\r\n")
        .expect("1.0 keep-alive request");
    let resp = conn.read_response().expect("response");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("connection"), Some("keep-alive"));
    // The connection really is still open.
    assert_eq!(conn.get("/healthz").expect("reuse").status, 200);
    handle.shutdown();
}

#[test]
fn request_trickled_across_an_idle_window_survives() {
    // Idle eviction measures from the last byte received, not from
    // connection start — a slow-but-live client survives several idle
    // windows.
    let handle = serve(ServeConfig {
        idle_timeout_ms: 300,
        ..default_config()
    });
    let mut conn = ClientConn::connect(handle.addr()).expect("connect");
    conn.send_raw(b"GET /healthz HTTP/1.1\r\n")
        .expect("head half");
    std::thread::sleep(Duration::from_millis(200));
    conn.send_raw(b"host: scpg\r\n").expect("a header");
    std::thread::sleep(Duration::from_millis(200));
    conn.send_raw(b"\r\n").expect("head end");
    let resp = conn.read_response().expect("trickled response");
    assert_eq!(resp.status, 200);
    handle.shutdown();
}

#[test]
fn idle_connection_is_evicted_silently() {
    let handle = serve(ServeConfig {
        idle_timeout_ms: 150,
        ..default_config()
    });
    let conn = ClientConn::connect(handle.addr()).expect("connect");
    // Nothing was ever sent: the eviction is a plain close, no response.
    let mut stream = conn.stream().try_clone().expect("clone");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut buf = [0u8; 64];
    let n = stream.read(&mut buf).expect("read close");
    assert_eq!(n, 0, "server sent bytes to a silent idle connection");
    assert_eq!(handle.open_connections(), 0);
    handle.shutdown();
}

#[test]
fn partial_request_at_idle_timeout_gets_408() {
    let handle = serve(ServeConfig {
        idle_timeout_ms: 150,
        ..default_config()
    });
    let mut conn = ClientConn::connect(handle.addr()).expect("connect");
    // Half a request head, then silence: the server says why before
    // hanging up.
    conn.send_raw(b"GET /healthz HTTP/1.1\r\nhost: sc")
        .expect("partial");
    let resp = conn.read_response().expect("408 response");
    assert_eq!(resp.status, 408);
    assert_eq!(resp.header("connection"), Some("close"));
    assert!(resp.text().contains("timed out"), "{}", resp.text());
    assert!(conn.is_closed().unwrap(), "connection left open after 408");
    handle.shutdown();
}

#[test]
fn whitespace_before_the_header_colon_is_rejected() {
    // A header name with trailing whitespace is the classic
    // request-smuggling shape (two parsers disagreeing on the name);
    // the only safe answer is 400, never normalisation.
    let handle = serve(default_config());
    let resp = client::raw(
        handle.addr(),
        b"GET /healthz HTTP/1.1\r\nhost: scpg\r\nx-evil : v\r\n\r\n",
    )
    .expect("smuggle-shaped request");
    assert_eq!(resp.status, 400);
    assert_eq!(resp.header("connection"), Some("close"));
    assert!(
        resp.text().contains("header name"),
        "error should name the offence: {}",
        resp.text()
    );

    // Obsolete line folding (a continuation line starting with
    // whitespace) is the same class of ambiguity.
    let folded = client::raw(
        handle.addr(),
        b"GET /healthz HTTP/1.1\r\nhost: scpg\r\n folded: v\r\n\r\n",
    )
    .expect("folded request");
    assert_eq!(folded.status, 400);
    handle.shutdown();
}

#[test]
fn transfer_encoding_is_refused_with_501() {
    let handle = serve(default_config());
    let resp = client::raw(
        handle.addr(),
        b"POST /v1/sweep HTTP/1.1\r\nhost: scpg\r\ntransfer-encoding: chunked\r\n\r\n",
    )
    .expect("chunked request");
    assert_eq!(resp.status, 501);
    assert!(resp.text().contains("content-length"), "{}", resp.text());
    handle.shutdown();
}

#[test]
fn non_http_1x_version_gets_505_and_garbage_gets_400() {
    let handle = serve(default_config());
    let two_oh = client::raw(
        handle.addr(),
        b"GET /healthz HTTP/2.0\r\nhost: scpg\r\n\r\n",
    )
    .expect("HTTP/2.0 request");
    assert_eq!(two_oh.status, 505);
    let garbage = client::raw(handle.addr(), b"GET /healthz SPDY/3\r\nhost: scpg\r\n\r\n")
        .expect("garbage version");
    assert_eq!(garbage.status, 400);
    handle.shutdown();
}

#[test]
fn method_not_allowed_names_the_allowed_methods() {
    let handle = serve(default_config());
    let get_on_post = client::get(handle.addr(), "/v1/sweep").expect("GET on POST endpoint");
    assert_eq!(get_on_post.status, 405);
    assert_eq!(get_on_post.header("allow"), Some("POST"));

    let post_on_get = client::post(handle.addr(), "/healthz", "{}").expect("POST on GET endpoint");
    assert_eq!(post_on_get.status, 405);
    assert_eq!(post_on_get.header("allow"), Some("GET"));

    let delete_on_jobs = client::delete(handle.addr(), "/v1/jobs").expect("DELETE on jobs");
    assert_eq!(delete_on_jobs.status, 405);
    assert_eq!(delete_on_jobs.header("allow"), Some("POST, GET"));

    // Every row of the route table: a method it does not serve answers
    // 405 with the row's exact `Allow` and the message it has always had.
    let expected = [
        ("/v1/sweep", "POST", "use POST for this endpoint"),
        ("/v1/table", "POST", "use POST for this endpoint"),
        ("/v1/headline", "POST", "use POST for this endpoint"),
        ("/v1/variation", "POST", "use POST for this endpoint"),
        ("/v1/activity", "POST", "use POST for this endpoint"),
        ("/v1/compare", "POST", "use POST for this endpoint"),
        ("/v1/netlists", "POST", "use POST for this endpoint"),
        ("/v1/libraries", "POST", "use POST for this endpoint"),
        (
            "/v1/jobs",
            "POST, GET",
            "use POST (submit) or GET (list) on /v1/jobs",
        ),
        (
            "/v1/jobs/{id}",
            "GET, DELETE",
            "use GET /v1/jobs/{id}[/result] or DELETE /v1/jobs/{id}",
        ),
        (
            "/v1/jobs/{id}/result",
            "GET",
            "use GET /v1/jobs/{id}[/result] or DELETE /v1/jobs/{id}",
        ),
        ("/v1/traces", "GET", "use GET on /v1/traces[/{id}]"),
        ("/v1/traces/{id}", "GET", "use GET on /v1/traces[/{id}]"),
        ("/v1/logs", "GET", "use GET for this endpoint"),
        ("/v1/status", "GET", "use GET for this endpoint"),
        ("/v1/designs", "GET", "use GET for this endpoint"),
        ("/healthz", "GET", "use GET for this endpoint"),
        ("/metrics", "GET", "use GET for this endpoint"),
    ];
    assert_eq!(ROUTES.len(), expected.len(), "one row per resource");
    for (route, (pattern, allow, message)) in ROUTES.iter().zip(expected) {
        assert_eq!(route.pattern, pattern);
        let method = ["GET", "POST", "DELETE", "PUT"]
            .into_iter()
            .find(|m| !route.allows(m))
            .expect("every row refuses some method");
        let path = pattern.replace("{id}", "j00000001");
        let raw = format!(
            "{method} {path} HTTP/1.1\r\nhost: scpg\r\ncontent-length: 0\r\nconnection: close\r\n\r\n"
        );
        let resp = client::raw(handle.addr(), raw.as_bytes()).expect("wrong method");
        assert_eq!(resp.status, 405, "{method} {path}: {}", resp.text());
        assert_eq!(resp.header("allow"), Some(allow), "{method} {path}");
        assert_eq!(
            resp.body,
            scpg_serve::api::error_body(message),
            "{method} {path}: {}",
            resp.text()
        );
    }
    handle.shutdown();
}

#[test]
fn unknown_job_sub_resources_answer_404() {
    let handle = serve(default_config());
    for path in ["/v1/jobs/abc/nope", "/v1/jobs/abc/"] {
        let resp = client::get(handle.addr(), path).expect("GET");
        assert_eq!(resp.status, 404, "{path}: {}", resp.text());
        assert_eq!(resp.header("allow"), None, "{path}");
        assert_eq!(
            resp.body,
            scpg_serve::api::error_body("no such endpoint"),
            "{path}"
        );
    }
    handle.shutdown();
}

#[test]
fn job_backpressure_429_carries_retry_after() {
    let handle = serve(ServeConfig {
        max_active_jobs: 1,
        debug_job_delay_ms: 200,
        ..default_config()
    });
    let submission = format!(
        r#"{{"kind": "sweep", "request": {}}}"#,
        body(r#""frequencies_hz": [1e6, 2e6]"#)
    );
    let first = client::submit_job(handle.addr(), &submission).expect("first job");
    assert_eq!(first.status, 202, "{}", first.text());
    // The active-jobs cap is 1 and the first job is still running its
    // delayed chunks: the second submission is refused, with advice.
    let second = client::submit_job(handle.addr(), &submission).expect("second job");
    assert_eq!(second.status, 429, "{}", second.text());
    assert_eq!(second.header("retry-after"), Some("1"));

    let id = scpg_json::Json::parse(first.text())
        .expect("job summary")
        .get("id")
        .and_then(|v| v.as_str().map(String::from))
        .expect("job id");
    let done = client::poll_job(handle.addr(), &id, Duration::from_secs(60)).expect("poll");
    assert_eq!(done.status, 200);
    handle.shutdown();
}

#[test]
fn shutdown_answers_late_pipelined_requests_with_503_retry_after() {
    let handle = serve(ServeConfig {
        debug_job_delay_ms: 300,
        ..default_config()
    });
    let addr = handle.addr();
    let mut conn = ClientConn::connect(addr).expect("connect");
    // A slow compute request with a pipelined healthz behind it. Drain
    // begins while the compute runs: the in-flight request must still be
    // answered normally, the pipelined one refused with 503 +
    // Retry-After, then the connection closed.
    let post_body = body(r#""frequencies_hz": [3.7e6]"#);
    let raw = format!(
        "POST /v1/sweep HTTP/1.1\r\nhost: scpg\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{post_body}GET /healthz HTTP/1.1\r\nhost: scpg\r\n\r\n",
        post_body.len()
    );
    conn.send_raw(raw.as_bytes()).expect("pipeline writes");
    std::thread::sleep(Duration::from_millis(100));
    let shutdown = std::thread::spawn(move || handle.shutdown());

    let sweep = conn.read_response().expect("in-flight response");
    assert_eq!(sweep.status, 200, "{}", sweep.text());
    let refused = conn.read_response().expect("drain refusal");
    assert_eq!(refused.status, 503);
    assert_eq!(refused.header("retry-after"), Some("1"));
    assert_eq!(refused.header("connection"), Some("close"));
    assert!(conn.is_closed().unwrap(), "connection open after drain");

    shutdown.join().expect("shutdown thread");
    assert!(
        ClientConn::connect(addr).is_err(),
        "listener still accepting after shutdown"
    );
}
