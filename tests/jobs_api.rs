//! End-to-end tests of the async-job subsystem over real loopback
//! sockets: netlist upload and content addressing, chunked batch jobs
//! whose assembled results are byte-identical to the interactive path
//! and to direct library calls, restart recovery from on-disk
//! checkpoints, cooperative cancellation, and the machine-readable
//! parse-error locations on refused uploads.

use std::time::Duration;

use scpg::service::netlist_analysis;
use scpg::Mode;
use scpg_json::Json;
use scpg_liberty::{Library, PvtCorner};
use scpg_netlist::parse_verilog;
use scpg_serve::designs::DesignSpec;
use scpg_serve::{api, client, ServeConfig, Server};
use scpg_units::Frequency;

/// The uploaded design under test: a 5-gate pipeline with three flops,
/// so the SCPG transform has registers to gate.
const PIPELINE: &str = "\
module pipeline (clk, d, q);
  input clk;
  input d;
  output q;
  wire s0;
  wire s1;
  wire s2;
  wire n0;
  DFF_X1 r0 (.D(d), .CK(clk), .Q(s0));
  DFF_X1 r1 (.D(s0), .CK(clk), .Q(s1));
  INV_X1 g0 (.A(s1), .Y(n0));
  DFF_X1 r2 (.D(n0), .CK(clk), .Q(s2));
  INV_X1 g1 (.A(s2), .Y(q));
endmodule
";

const FREQS_HZ: [f64; 5] = [1e6, 2e6, 5e6, 1e7, 2e7];

fn sweep_request(id: &str) -> String {
    format!(
        r#"{{"design": {{"kind": "netlist", "id": "{id}"}}, "frequencies_hz": [1e6, 2e6, 5e6, 1e7, 2e7], "mode": "scpg"}}"#
    )
}

/// The sweep body the server must produce for [`PIPELINE`], computed
/// with no serve-crate machinery beyond the response builder.
fn direct_sweep_bytes(id: &str) -> Vec<u8> {
    let spec = DesignSpec::netlist(id);
    let lib = Library::ninety_nm();
    let baseline = parse_verilog(PIPELINE, &lib).expect("fixture parses");
    let analysis = netlist_analysis(
        &lib,
        &baseline,
        "clk",
        spec.e_dyn,
        PvtCorner::at_voltage(spec.vdd),
    )
    .expect("fixture analyses");
    let freqs: Vec<Frequency> = FREQS_HZ.iter().map(|&f| Frequency::new(f)).collect();
    api::sweep_response(&spec, Mode::Scpg, &analysis.sweep(&freqs, Mode::Scpg))
        .write()
        .into_bytes()
}

fn upload_id(resp: &client::ClientResponse) -> String {
    Json::parse(resp.text())
        .expect("upload response is JSON")
        .get("id")
        .and_then(|v| v.as_str().map(String::from))
        .expect("upload response carries an id")
}

fn status_field_u64(resp: &client::ClientResponse, field: &str) -> Option<u64> {
    Json::parse(resp.text()).ok()?.get(field)?.as_u64()
}

fn status_state(resp: &client::ClientResponse) -> Option<String> {
    Json::parse(resp.text())
        .ok()?
        .get("state")?
        .as_str()
        .map(String::from)
}

/// Spins until the job has checkpointed at least one chunk but is not
/// yet terminal, so a shutdown/cancel lands mid-job. Panics if the job
/// finishes first (the per-chunk debug delay makes that impossible in
/// practice) or never starts.
fn wait_mid_job(addr: std::net::SocketAddr, job_id: &str) -> u64 {
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    loop {
        let status = client::job_status(addr, job_id).expect("status");
        assert_eq!(status.status, 200, "{}", status.text());
        let state = status_state(&status).expect("state");
        let done = status_field_u64(&status, "done_units").expect("done_units");
        assert!(
            state == "queued" || state == "running",
            "job went terminal ({state}) before the test could interrupt it"
        );
        if done >= 1 {
            return done;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "job never completed a first chunk"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn upload_async_job_and_interactive_results_are_bit_identical() {
    let handle = Server::bind(ServeConfig {
        workers: 2,
        chunk_units: 2,
        ..ServeConfig::default()
    })
    .expect("bind")
    .spawn();
    let addr = handle.addr();

    // Fresh upload answers 201; the identical re-upload answers 200 with
    // the same content-addressed id.
    let created = client::upload_netlist(addr, PIPELINE, "clk").expect("upload");
    assert_eq!(created.status, 201, "{}", created.text());
    let id = upload_id(&created);
    let summary = Json::parse(created.text()).unwrap();
    assert_eq!(summary.get("gates").unwrap().as_u64(), Some(5));
    assert_eq!(summary.get("clock").unwrap().as_str(), Some("clk"));
    let again = client::upload_netlist(addr, PIPELINE, "clk").expect("re-upload");
    assert_eq!(again.status, 200, "{}", again.text());
    assert_eq!(upload_id(&again), id);
    assert_eq!(handle.metrics().netlists_uploaded, 1, "one distinct design");

    // The discovery endpoint lists the kinds, the limits and the upload.
    let designs = client::get(addr, "/v1/designs").expect("designs");
    assert_eq!(designs.status, 200);
    let ddoc = Json::parse(designs.text()).unwrap();
    assert_eq!(ddoc.get("kinds").unwrap().as_array().unwrap().len(), 3);
    assert!(ddoc
        .get("limits")
        .unwrap()
        .get("max_netlist_gates")
        .is_some());
    assert!(designs.text().contains(&id), "{}", designs.text());

    // Interactive sweep naming the upload: byte-identical to the direct
    // library computation on the same parsed netlist.
    let expected = direct_sweep_bytes(&id);
    let request = sweep_request(&id);
    let served = client::post(addr, "/v1/sweep", &request).expect("sweep");
    assert_eq!(served.status, 200, "{}", served.text());
    assert_eq!(served.body, expected, "interactive sweep != direct bytes");

    // The same request as an async job, executed in 2-frequency chunks,
    // must poll to completion and assemble the very same bytes.
    let submit = client::submit_job(
        addr,
        &format!(r#"{{"kind": "sweep", "request": {request}}}"#),
    )
    .expect("submit");
    assert_eq!(submit.status, 202, "{}", submit.text());
    let sdoc = Json::parse(submit.text()).unwrap();
    let job_id = sdoc.get("id").unwrap().as_str().unwrap().to_string();
    assert_eq!(sdoc.get("total_units").unwrap().as_u64(), Some(5));

    let done = client::poll_job(addr, &job_id, Duration::from_secs(120)).expect("poll");
    assert_eq!(
        status_state(&done).as_deref(),
        Some("done"),
        "{}",
        done.text()
    );
    assert_eq!(status_field_u64(&done, "done_units"), Some(5));

    // The status document carries the job's trace id and a non-empty
    // per-chunk timing array (5 units / 2 per chunk = 3 chunks).
    let sdoc = Json::parse(done.text()).unwrap();
    assert!(
        sdoc.get("trace_id").and_then(|t| t.as_str()).is_some(),
        "{}",
        done.text()
    );
    assert_eq!(status_field_u64(&done, "chunks_total"), Some(3));
    assert_eq!(status_field_u64(&done, "chunks_completed"), Some(3));
    let chunks = sdoc
        .get("chunks")
        .and_then(|c| c.as_array())
        .expect("chunks array");
    assert_eq!(chunks.len(), 3, "{}", done.text());
    for chunk in chunks {
        assert!(chunk.get("index").and_then(Json::as_u64).is_some());
        assert!(chunk.get("units").and_then(Json::as_u64).unwrap() >= 1);
        assert!(chunk.get("duration_us").and_then(Json::as_u64).is_some());
    }

    let result = client::job_result(addr, &job_id).expect("result");
    assert_eq!(result.status, 200);
    assert_eq!(result.body, expected, "chunked job result != direct bytes");

    // The job list knows it; an unknown id answers 404.
    let list = client::get(addr, "/v1/jobs").expect("list");
    assert!(list.text().contains(&job_id), "{}", list.text());
    assert_eq!(client::job_status(addr, "j99999999").unwrap().status, 404);

    assert!(handle.metrics().jobs_submitted >= 1);
    assert!(
        handle.metrics().job_chunks_completed >= 3,
        "5 units / 2 per chunk"
    );
    handle.shutdown();
}

#[test]
fn refused_uploads_carry_machine_readable_locations() {
    let handle = Server::bind(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    })
    .expect("bind")
    .spawn();
    let addr = handle.addr();

    // A parse error (unknown pin on g1): the JSON body pinpoints
    // line/column/token so clients can point at the offending source.
    let broken = PIPELINE.replace(".Y(q)", ".QQ(q)");
    let resp = client::upload_netlist(addr, &broken, "clk").expect("upload");
    assert_eq!(resp.status, 422, "{}", resp.text());
    let doc = Json::parse(resp.text()).unwrap();
    assert!(doc.get("error").unwrap().as_str().is_some());
    assert_eq!(
        doc.get("line").unwrap().as_u64(),
        Some(13),
        "{}",
        resp.text()
    );
    assert!(doc.get("column").is_some());
    assert_eq!(doc.get("token").unwrap().as_str(), Some("QQ"));

    // A valid parse with the wrong clock name is refused without
    // location fields (there is no offending token).
    let wrong_clock = client::upload_netlist(addr, PIPELINE, "no_such_net").expect("upload");
    assert_eq!(wrong_clock.status, 422, "{}", wrong_clock.text());
    assert!(Json::parse(wrong_clock.text())
        .unwrap()
        .get("line")
        .is_none());

    // Queries naming an unregistered netlist are refused interactively
    // (422) and at job submission (422), never cached or enqueued.
    let request = sweep_request("00000000deadbeef");
    let direct = client::post(addr, "/v1/sweep", &request).expect("sweep");
    assert_eq!(direct.status, 422, "{}", direct.text());
    assert!(direct.text().contains("unknown netlist id"));
    let submit = client::submit_job(
        addr,
        &format!(r#"{{"kind": "sweep", "request": {request}}}"#),
    )
    .expect("submit");
    assert_eq!(submit.status, 422, "{}", submit.text());

    handle.shutdown();
}

#[test]
fn restart_resumes_jobs_from_disk_checkpoints_bit_identically() {
    let dir = std::env::temp_dir().join(format!("scpg-jobs-api-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = || ServeConfig {
        workers: 3,
        chunk_units: 1,
        store_dir: Some(dir.to_string_lossy().into_owned()),
        // One chunk = one frequency = ≥25 ms: the job is reliably still
        // in flight when the first server is torn down.
        debug_job_delay_ms: 25,
        ..ServeConfig::default()
    };

    // The client names the trace id at submission; it must survive the
    // restart below because it is persisted in the checkpoint record.
    let trace_id = "restart-trace.e2e";

    let first = Server::bind(config()).expect("bind").spawn();
    let addr = first.addr();
    let created = client::upload_netlist(addr, PIPELINE, "clk").expect("upload");
    assert_eq!(created.status, 201, "{}", created.text());
    let id = upload_id(&created);
    let request = sweep_request(&id);
    let submit = client::post_traced(
        addr,
        "/v1/jobs",
        &format!(r#"{{"kind": "sweep", "request": {request}}}"#),
        trace_id,
    )
    .expect("submit");
    assert_eq!(submit.status, 202, "{}", submit.text());
    assert_eq!(submit.header("x-scpg-trace-id"), Some(trace_id));
    let sdoc = Json::parse(submit.text()).unwrap();
    assert_eq!(sdoc.get("trace_id").unwrap().as_str(), Some(trace_id));
    let job_id = sdoc.get("id").unwrap().as_str().unwrap().to_string();

    // Kill the server mid-job, with at least one chunk checkpointed.
    let done_at_shutdown = wait_mid_job(addr, &job_id);
    first.shutdown();

    // A new server over the same store dir reloads the uploaded netlist
    // and resumes the job from its checkpoint — no client action needed.
    let second = Server::bind(config()).expect("rebind").spawn();
    let addr = second.addr();
    let done = client::poll_job(addr, &job_id, Duration::from_secs(120)).expect("poll");
    assert_eq!(
        status_state(&done).as_deref(),
        Some("done"),
        "{}",
        done.text()
    );

    // Resumed, not restarted: the second server ran strictly fewer
    // chunks than the sweep has frequencies.
    let resumed_chunks = second.metrics().job_chunks_completed;
    assert!(
        resumed_chunks < FREQS_HZ.len() as u64,
        "{resumed_chunks} chunks on the second server; {done_at_shutdown} were checkpointed"
    );

    // The stitched result (disk-round-tripped fragments + fresh ones)
    // is byte-identical to an uninterrupted direct computation.
    let result = client::job_result(addr, &job_id).expect("result");
    assert_eq!(result.status, 200);
    assert_eq!(result.body, direct_sweep_bytes(&id), "resume changed bytes");

    // The resumed job kept the client-supplied trace id, and the status
    // document's per-chunk timing covers every chunk from both runs.
    let status = client::job_status(addr, &job_id).expect("status");
    let stdoc = Json::parse(status.text()).unwrap();
    assert_eq!(stdoc.get("trace_id").unwrap().as_str(), Some(trace_id));
    assert_eq!(
        status_field_u64(&status, "chunks_completed"),
        Some(FREQS_HZ.len() as u64)
    );
    assert!(
        stdoc.get("eta_ms").is_none(),
        "terminal jobs must not advertise an ETA: {}",
        status.text()
    );

    // The trace read from the *second* server shows spans from both
    // incarnations: pre-kill chunks were replayed from the checkpoint
    // (keeping their original boot tag), post-restart chunks were
    // recorded live under the new boot — with gap-free, duplicate-free
    // chunk numbering across the kill.
    let detail = client::get(addr, &format!("/v1/traces/{trace_id}")).expect("trace");
    assert_eq!(detail.status, 200, "{}", detail.text());
    let tdoc = Json::parse(detail.text()).unwrap();
    let spans = tdoc.get("spans").and_then(|s| s.as_array()).unwrap();
    let mut chunk_tags: Vec<String> = Vec::new();
    let mut boots: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    for span in spans {
        if span.get("stage").and_then(|v| v.as_str()) != Some("chunk") {
            continue;
        }
        let ann = span.get("annotations").expect("chunk annotations");
        chunk_tags.push(
            ann.get("chunk")
                .and_then(|v| v.as_str())
                .expect("chunk tag")
                .to_string(),
        );
        boots.insert(
            ann.get("boot")
                .and_then(|v| v.as_str())
                .expect("boot tag")
                .to_string(),
        );
        assert!(span.get("duration_us").and_then(Json::as_u64).is_some());
    }
    let expected_tags: Vec<String> = (0..FREQS_HZ.len())
        .map(|i| format!("{i}/{}", FREQS_HZ.len()))
        .collect();
    let mut sorted = chunk_tags.clone();
    sorted.sort();
    assert_eq!(
        sorted, expected_tags,
        "chunk numbering has gaps or duplicates: {chunk_tags:?}"
    );
    assert_eq!(
        boots.len(),
        2,
        "expected spans from two server incarnations, got boots {boots:?}"
    );

    second.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cancellation_is_cooperative_and_final() {
    let handle = Server::bind(ServeConfig {
        workers: 2,
        chunk_units: 1,
        debug_job_delay_ms: 30,
        ..ServeConfig::default()
    })
    .expect("bind")
    .spawn();
    let addr = handle.addr();

    // A built-in design works for jobs too — no upload required.
    let submit = client::submit_job(
        addr,
        r#"{"kind": "sweep", "request": {"design": {"kind": "multiplier", "bits": 4}, "frequencies_hz": [1e6, 2e6, 3e6, 4e6, 5e6, 6e6, 7e6, 8e6], "mode": "scpg"}}"#,
    )
    .expect("submit");
    assert_eq!(submit.status, 202, "{}", submit.text());
    let job_id = Json::parse(submit.text())
        .unwrap()
        .get("id")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();

    // Cancel while a chunk is executing: the DELETE races the worker.
    wait_mid_job(addr, &job_id);
    let cancelled = client::cancel_job(addr, &job_id).expect("cancel");
    assert_eq!(cancelled.status, 200, "{}", cancelled.text());

    // Terminal and idempotent: a second DELETE is 409, the result is
    // 409 (nothing to fetch), and the in-flight chunk at cancel time
    // must not resurrect the job afterwards.
    assert_eq!(client::cancel_job(addr, &job_id).unwrap().status, 409);
    assert_eq!(client::job_result(addr, &job_id).unwrap().status, 409);
    std::thread::sleep(Duration::from_millis(120));
    let status = client::job_status(addr, &job_id).expect("status");
    assert_eq!(
        status_state(&status).as_deref(),
        Some("cancelled"),
        "{}",
        status.text()
    );

    // Cancelling the unknown and the already-cancelled differ: 404 / 409.
    assert_eq!(client::cancel_job(addr, "j99999999").unwrap().status, 404);

    handle.shutdown();
}

/// Every batchable route is a job `kind`; the interactive-only analysis
/// endpoints are refused with a 422 naming the kinds that exist.
#[test]
fn job_kinds_are_the_batchable_routes() {
    let handle = Server::bind(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    })
    .expect("bind")
    .spawn();
    let addr = handle.addr();
    let design = r#""design": {"kind": "multiplier", "bits": 4}"#;
    let kinds: Vec<&str> = scpg_serve::routes::job_kinds().collect();
    assert_eq!(kinds, ["sweep", "table", "variation", "compare"]);
    for kind in kinds {
        let request = match kind {
            "variation" => format!(r#"{{{design}, "samples": 1}}"#),
            _ => format!(r#"{{{design}, "frequencies_hz": [1e6]}}"#),
        };
        let resp = client::submit_job(
            addr,
            &format!(r#"{{"kind": "{kind}", "request": {request}}}"#),
        )
        .expect("submit");
        assert_eq!(resp.status, 202, "{kind}: {}", resp.text());
    }
    for kind in ["headline", "activity"] {
        let resp = client::submit_job(
            addr,
            &format!(r#"{{"kind": "{kind}", "request": {{{design}}}}}"#),
        )
        .expect("submit");
        assert_eq!(resp.status, 422, "{kind}: {}", resp.text());
        assert_eq!(
            resp.body,
            api::error_body(&format!(
                "unknown job kind \"{kind}\" (sweep | table | variation | compare)"
            )),
            "{}",
            resp.text()
        );
    }
    let missing = client::submit_job(addr, r#"{"request": {}}"#).expect("submit");
    assert_eq!(missing.status, 422);
    assert_eq!(
        missing.body,
        api::error_body(r#"kind must be "sweep", "table", "variation" or "compare""#)
    );
    handle.shutdown();
}
