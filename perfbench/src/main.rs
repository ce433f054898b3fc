//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload from the repository root, prints every metric with
//! its unit, the host facts, and as the last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Exits 1 when a
//! correctness oracle failed, 2 on bad arguments or a failed set-up.

use std::path::PathBuf;
use std::process::ExitCode;

use scpg_perfbench::report::{HostFacts, RunReport};
use scpg_perfbench::{reproduce, serve, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds: f64 = 30.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {WORKLOADS:?})"
        ));
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The benchmark runs from the repository root and only writes under
    // `.perfbench/` there; the run's directory is removed at the end.
    let scratch = PathBuf::from(".perfbench").join(format!("run-{}", std::process::id()));
    let host = HostFacts::collect();
    let mut report = RunReport::new();
    let outcome = match args.workload.as_str() {
        "reproduce" => {
            println!(
                "reproduce: the paper's fixed workload; --seed {} does not affect it",
                args.seed
            );
            reproduce::run(args.seconds, args.trace, &scratch, &mut report)
        }
        "serve_hot" => serve::run(
            serve::Workload::Hot,
            args.seed,
            args.seconds,
            args.trace,
            &scratch,
            &mut report,
        ),
        _ => serve::run(
            serve::Workload::Mixed,
            args.seed,
            args.seconds,
            args.trace,
            &scratch,
            &mut report,
        ),
    };
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(".perfbench");
    if let Err(e) = outcome {
        eprintln!("perfbench: {e}");
        return ExitCode::from(2);
    }
    report.print(&host, args.trace);
    if report.correct && report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
