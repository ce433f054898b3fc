//! The SCPG reproduction's benchmark: three workloads timed end to end
//! with tracing off, and split by crate in a separate traced run.
//!
//! See `perfbench/README.md` for the metric → layer → workload map.

pub mod reference;
pub mod report;
pub mod reproduce;
pub mod serve;
pub mod spans;
pub mod stats;

/// End-to-end metrics: (name, unit, better), as `BENCHMARK.json` lists
/// them. Every workload prints every one. `p50_rel` is a median latency
/// over the reference kernel's time in the same run (see
/// [`reference`]); the latencies in milliseconds print above the final
/// line.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("setup_s", "s", "lower"),
    ("p50_rel", "ratio", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
];

/// Per-layer metrics of the traced run: (name, unit, better), as
/// `BENCHMARK.json` lists them. A workload that does no work in a layer
/// prints 0 for it.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("circuits.generate_s", "s", "lower"),
    ("sim.compile_s", "s", "lower"),
    ("sim.event_s", "s", "lower"),
    ("sim.cycles_per_s", "1/s", "higher"),
    ("sim.events_per_cycle", "count", "lower"),
    ("sim.events", "count", "lower"),
    ("sim.gate_evals", "count", "lower"),
    ("isa.dhrystone_cycles", "count", "lower"),
    ("isa.assemble_s", "s", "lower"),
    ("power.dynamic_s", "s", "lower"),
    ("power.subthreshold_s", "s", "lower"),
    ("scpg.flow_s", "s", "lower"),
    ("sta.analyze_s", "s", "lower"),
    ("analog.header_s", "s", "lower"),
    ("scpg.analysis_build_s", "s", "lower"),
    ("waveform.windows_s", "s", "lower"),
    ("scpg.points", "count", "lower"),
    ("scpg.points_s", "s", "lower"),
    ("scpg.convergence_s", "s", "lower"),
    ("scpg.area_s", "s", "lower"),
    ("exec.tasks", "count", "lower"),
    ("exec.parallel_jobs", "count", "lower"),
    ("bench.write_s", "s", "lower"),
    ("bench.span_coverage", "ratio", "higher"),
    ("bench.results_diff_files", "count", "lower"),
    ("serve.http_parse_s", "s", "lower"),
    ("json.parse_s", "s", "lower"),
    ("json.canonical_s", "s", "lower"),
    ("json.serialize_s", "s", "lower"),
    ("serve.cache_lookup_s", "s", "lower"),
    ("serve.cache_hit_ratio", "ratio", "higher"),
    ("trace.event_record_s", "s", "lower"),
    ("trace.span_record_s", "s", "lower"),
    ("serve.design_get_s", "s", "lower"),
    ("serve.design_evictions", "count", "lower"),
    ("technique.prepare_s", "s", "lower"),
    ("technique.models_built", "count", "lower"),
    ("sim.bitpar_s", "s", "lower"),
    ("sim.bitpar_words", "count", "lower"),
    ("power.variation_s", "s", "lower"),
    ("liberty.parse_s", "s", "lower"),
    ("netlist.parse_s", "s", "lower"),
    ("jobs.admit_s", "s", "lower"),
    ("jobs.chunk_s", "s", "lower"),
    ("serve.queue_wait_s", "s", "lower"),
    ("serve.execute_s", "s", "lower"),
    ("serve.eventloop_lag_p99_ms", "ms", "lower"),
    ("serve.eventloop_stalls", "count", "lower"),
    ("loadgen.lag_p99_ms", "ms", "lower"),
    ("loadgen.sent", "count", "higher"),
];

/// The workloads, as `--workload` names them.
pub const WORKLOADS: [&str; 3] = ["reproduce", "serve_hot", "serve_mixed"];
