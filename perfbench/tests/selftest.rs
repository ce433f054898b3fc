//! Self-tests of the benchmark: the `reproduce` workload matches the
//! `reproduce` bin byte for byte, plans are a pure function of the seed,
//! percentiles follow the "≥ 10 samples beyond" rule, the reference
//! kernel repeats itself, and the metric lists agree with
//! `BENCHMARK.json`.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Mutex;
use std::time::Duration;

use scpg_json::Json;
use scpg_perfbench::reference::{Kernel, Reference};
use scpg_perfbench::serve::{windowed_p99, Kind, Outcome, Plan, Workload};
use scpg_perfbench::stats::{beyond, percentile, supported_percentile, MIN_BEYOND};
use scpg_perfbench::{reproduce, END_TO_END, PER_LAYER, WORKLOADS};

/// The simulator's work counters are process-wide: tests that simulate
/// take this lock so one test's deltas never include another's work.
static SIMULATING: Mutex<()> = Mutex::new(());

fn simulating() -> std::sync::MutexGuard<'static, ()> {
    SIMULATING
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits inside the repository")
        .to_path_buf()
}

#[test]
fn reproduce_workload_writes_the_bins_bytes() {
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR")).join("reproduce-bytes");
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).expect("temp dir");

    // Build and run the workspace's `reproduce` bin in the temp dir; it
    // writes `results/` relative to its working directory.
    let target = Path::new(env!("CARGO_TARGET_TMPDIR")).join("workspace-target");
    let status = Command::new(env!("CARGO"))
        .args([
            "build",
            "--release",
            "--offline",
            "-p",
            "scpg-bench",
            "--bin",
            "reproduce",
        ])
        .current_dir(repo_root())
        .env("CARGO_TARGET_DIR", &target)
        .status()
        .expect("cargo runs");
    assert!(status.success(), "building the reproduce bin failed");
    let status = Command::new(target.join("release").join("reproduce"))
        .current_dir(&tmp)
        .stdout(std::process::Stdio::null())
        .status()
        .expect("reproduce bin runs");
    assert!(status.success(), "the reproduce bin failed");

    let ours = {
        let _sim = simulating();
        reproduce::reproduce(&tmp.join("artifacts")).expect("workload reproduces")
    };
    let bin_files: Vec<_> = std::fs::read_dir(tmp.join("results"))
        .expect("bin wrote results/")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .into_string()
                .expect("utf-8 name")
        })
        .collect();
    assert_eq!(bin_files.len(), ours.artifacts.len(), "same artifact set");
    for (name, bytes) in &ours.artifacts {
        let theirs = std::fs::read(tmp.join("results").join(name)).expect("bin wrote it");
        assert!(theirs == *bytes, "{name} differs from the reproduce bin's");
    }
    let _ = std::fs::remove_dir_all(&tmp);
}

#[test]
fn exact_counts_repeat_between_reproductions() {
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR")).join("reproduce-counts");
    let _sim = simulating();
    let a = reproduce::reproduce(&tmp).expect("first");
    let b = reproduce::reproduce(&tmp).expect("second");
    assert_eq!(a.counts, b.counts);
    assert_eq!(a.artifacts, b.artifacts);
    assert!(a.counts.sim_events > 0 && a.counts.dhrystone_cycles > 0);
    let _ = std::fs::remove_dir_all(&tmp);
}

#[test]
fn engine_oracle_agrees_with_the_reference_simulator() {
    let _sim = simulating();
    assert!(reproduce::engine_oracle(reproduce::ORACLE_CYCLES).expect("engines agree") > 0);
}

#[test]
fn plans_are_a_pure_function_of_the_seed() {
    for workload in [Workload::Hot, Workload::Mixed] {
        let a = Plan::new(workload, 11, 4.0);
        let b = Plan::new(workload, 11, 4.0);
        assert_eq!(a, b, "{workload:?}: same seed, same plan");
        let c = Plan::new(workload, 12, 4.0);
        assert_ne!(
            a.nominal, c.nominal,
            "{workload:?}: the seed drives the mix"
        );
        // The schedule is the nominal rate, in uniformly spaced bursts.
        let burst = workload.burst();
        assert!(a.nominal[..burst].iter().all(|s| s.due == a.nominal[0].due));
        let gap = a.nominal[burst].due - a.nominal[0].due;
        let want = Duration::from_secs_f64(burst as f64 / workload.nominal_rps());
        assert!(gap.abs_diff(want) < Duration::from_micros(1));
    }
}

#[test]
fn mixed_plan_has_the_stated_shape() {
    let plan = Plan::new(Workload::Mixed, 5, 30.0);
    let sends: Vec<usize> = plan.nominal.iter().map(|s| s.request).collect();
    let writes = sends
        .iter()
        .filter(|&&i| plan.requests[i].kind.is_write())
        .count() as f64;
    let share = writes / sends.len() as f64;
    assert!((0.03..0.09).contains(&share), "write share {share}");
    let designs: std::collections::BTreeSet<String> = plan
        .requests
        .iter()
        .filter(|r| !r.kind.is_write())
        .filter_map(|r| Json::parse(&r.body).ok())
        .filter_map(|d| d.get("design").map(Json::canonical))
        .collect();
    assert!(designs.len() > 32, "{} designs", designs.len());
    assert!(plan
        .requests
        .iter()
        .any(|r| r.kind == Kind::Job && r.job_sweep.is_some()));
}

#[test]
fn hot_plan_reads_a_small_working_set() {
    let plan = Plan::new(Workload::Hot, 5, 30.0);
    // Only the 0.5 % fresh sweeps fall outside the warmed set.
    let outside = plan
        .nominal
        .iter()
        .filter(|s| !plan.warm.contains(&s.request))
        .count();
    let share = outside as f64 / plan.nominal.len() as f64;
    assert!(share > 0.0 && share < 0.01, "{share} of sends miss");
    assert!(plan.warm.len() <= 97, "{} warmed requests", plan.warm.len());
}

#[test]
fn percentiles_need_ten_samples_beyond() {
    let v: Vec<f64> = (1..=999).map(f64::from).collect();
    assert_eq!(beyond(999, 0.99), 9);
    assert!(supported_percentile(&v, 0.99).is_none());
    let v: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(beyond(1000, 0.99), MIN_BEYOND);
    assert_eq!(supported_percentile(&v, 0.99), Some(990.0));
    assert_eq!(percentile(&v, 0.5), 500.0);
    // Medians need 10 beyond them as well.
    assert!(supported_percentile(&v[..19], 0.5).is_none());
}

fn outcome(i: usize, latency_ms: f64) -> Outcome {
    let due = Duration::from_millis(i as u64);
    Outcome {
        request: 0,
        due,
        sent: due,
        done: Some(due + Duration::from_secs_f64(latency_ms / 1e3)),
        status: 200,
        body_hash: 0,
    }
}

#[test]
fn windowed_p99_takes_the_median_window() {
    // Three 1 000-send windows; one has a stall that would own the
    // whole phase's p99.
    let mut outcomes: Vec<Outcome> = (0..3000).map(|i| outcome(i, 1.0)).collect();
    for o in outcomes.iter_mut().skip(1000).take(40) {
        o.done = Some(o.due + Duration::from_millis(50));
    }
    let p = windowed_p99(&outcomes);
    assert!((p - 1.0).abs() < 1e-6, "p99 {p}");
    assert!(windowed_p99(&outcomes[..999]).is_infinite());
    outcomes[5].status = 429;
    assert!(windowed_p99(&outcomes).is_infinite());
}

#[test]
fn reference_kernels_repeat_their_results() {
    for kernel in [Kernel::EventSim, Kernel::Loopback] {
        let mut reference = Reference::new(kernel).expect("set up");
        reference
            .samples(3)
            .expect("every slice gives the first slice's result");
        assert_eq!(reference.samples_ms().len(), 3);
        assert!(reference.samples_ms().iter().all(|&ms| ms > 0.0));
    }
}

#[test]
fn metric_lists_match_benchmark_json() {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let doc = Json::parse(&text).expect("valid JSON");
    let listed = |key: &str| -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).expect("field").to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    };
    let ours = |list: &[(&str, &str, &str)]| -> Vec<(String, String, String)> {
        list.iter()
            .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), ours(END_TO_END));
    assert_eq!(listed("per_layer"), ours(PER_LAYER));
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(workloads, WORKLOADS);
}
