//! Run reports: metrics with units, host facts and the final JSON line.

use std::fmt::Write as _;
use std::process::Command;

use std::collections::BTreeMap;

use crate::{END_TO_END, PER_LAYER};

/// What one run produced.
#[derive(Debug, Default)]
pub struct RunReport {
    /// `false` when any correctness oracle failed.
    pub correct: bool,
    /// Operations whose outcome was checked.
    pub attempted: u64,
    /// Operations that failed or answered wrongly.
    pub failed: u64,
    /// Oracle failures, one line each.
    pub problems: Vec<String>,
    /// End-to-end metrics by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metrics by name (traced runs).
    pub layers: BTreeMap<&'static str, f64>,
    /// Lines printed above the final line only.
    pub lines: Vec<String>,
}

impl RunReport {
    /// A report that is correct until an oracle fails.
    pub fn new() -> Self {
        Self {
            correct: true,
            ..Self::default()
        }
    }

    /// Sets an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, value: f64) {
        self.e2e.insert(name, value);
    }

    /// Sets a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }

    /// Adds a `name value unit` line that stays out of the final line.
    pub fn note(&mut self, name: &str, value: f64, unit: &str) {
        self.lines.push(row(name, value, unit));
    }

    /// Adds a free-form line that stays out of the final line.
    pub fn text(&mut self, line: String) {
        self.lines.push(line);
    }

    /// Records an oracle failure.
    pub fn fail(&mut self, problem: String) {
        self.correct = false;
        self.problems.push(problem);
    }

    /// The metrics of the final line: every end-to-end metric, or with
    /// `traced` every per-layer metric (0 where a workload has no such
    /// work), in the order `BENCHMARK.json` lists them.
    pub fn final_metrics(&self, traced: bool) -> Vec<(&'static str, f64, &'static str)> {
        let (list, values) = if traced {
            (PER_LAYER, &self.layers)
        } else {
            (END_TO_END, &self.e2e)
        };
        list.iter()
            .map(|&(name, unit, _)| (name, values.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    }

    /// The final JSON line.
    pub fn json_line(&self, traced: bool) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.final_metrics(traced).into_iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            );
        }
        out.push_str("}}");
        out
    }

    /// Prints every measured metric with its unit, the host facts and
    /// then the JSON line, which is always the last line of standard
    /// output.
    pub fn print(&self, host: &HostFacts, traced: bool) {
        let mut rows = self.final_metrics(false);
        if traced {
            rows.extend(self.final_metrics(true));
        }
        for (name, value, unit) in rows {
            println!("{}", row(name, value, unit));
        }
        for line in &self.lines {
            println!("{line}");
        }
        for p in &self.problems {
            println!("ORACLE FAILED: {p}");
        }
        println!("host: {}", host.json());
        println!("{}", self.json_line(traced));
    }
}

fn row(name: &str, value: f64, unit: &str) -> String {
    format!("{name:<34} {:>22} {unit}", json_number(value))
}

/// A finite number in JSON (non-finite values, which no metric should
/// produce, print as `-1` so the line stays valid JSON).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "-1".to_string()
    }
}

/// Facts about the machine a run measured, printed beside its numbers.
#[derive(Debug, Clone)]
pub struct HostFacts {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// The execution pool's thread count (`scpg_exec::num_threads`).
    pub exec_threads: usize,
    /// `rustc --version`.
    pub rustc: String,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub git_rev: String,
}

impl HostFacts {
    /// Collects the facts (runs `rustc` and `git` once each and waits).
    pub fn collect() -> Self {
        let run = |cmd: &str, args: &[&str]| {
            Command::new(cmd)
                .args(args)
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
                .filter(|s| !s.is_empty())
                .unwrap_or_else(|| "unknown".to_string())
        };
        Self {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            exec_threads: scpg_exec::num_threads(),
            rustc: run("rustc", &["--version"]),
            git_rev: run("git", &["rev-parse", "HEAD"]),
        }
    }

    /// The facts as one JSON object.
    pub fn json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"exec_threads\": {}, \"rustc\": \"{}\", \"git_rev\": \"{}\"}}",
            self.nproc,
            self.exec_threads,
            self.rustc.replace('"', "'"),
            self.git_rev.replace('"', "'")
        )
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 when the
/// platform does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
