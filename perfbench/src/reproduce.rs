//! The `reproduce` workload: the whole paper pipeline in one process.
//!
//! [`reproduce`] makes the same library calls, in the same order, as the
//! `reproduce` bin of `scpg-bench` and renders the same artifact bytes,
//! but keeps them in memory and writes them to a directory the caller
//! chooses (never `results/`). Each call into a workspace crate sits in a
//! [`span`] named after the crate, so a traced run splits one
//! reproduction by layer.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::Path;
use std::time::{Duration, Instant};

use scpg::headers::{choose_header, profile_domain};
use scpg::service::EngineWork;
use scpg::{Mode, ScpgAnalysis, ScpgFlow};
use scpg_analog::SizingConstraints;
use scpg_bench::{curves_csv, CaseStudy, MEASURE_PERIOD_PS, TABLE1_MHZ, TABLE2_MHZ};
use scpg_circuits::{generate_cpu, generate_multiplier, CpuHarness};
use scpg_isa::dhrystone;
use scpg_liberty::{Library, Logic, PvtCorner};
use scpg_netlist::{NetId, Netlist};
use scpg_power::{PowerAnalyzer, SubthresholdCurve};
use scpg_rng::StdRng;
use scpg_sim::{ClockedTestbench, ReferenceSimulator, SimConfig, Simulator};
use scpg_synth::Word;
use scpg_units::{linspace, Frequency, Power, Time, Voltage};
use scpg_waveform::Activity;

use crate::reference::{Kernel, Reference};
use crate::report::{peak_rss_mb, RunReport};
use crate::spans::{self, count, span};
use crate::stats::median;

/// Simulated work of one reproduction. Every field is a deterministic
/// function of the code: two reproductions of the same build must agree
/// exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExactCounts {
    /// Event-engine events applied.
    pub sim_events: u64,
    /// Event-engine gate evaluations.
    pub sim_gate_evals: u64,
    /// Bit-parallel words evaluated.
    pub bitpar_words: u64,
    /// Gate-level cycles of the Dhrystone run.
    pub dhrystone_cycles: u64,
    /// Bit patterns of the multiplier and CPU `E_dyn`.
    pub e_dyn_bits: [u64; 2],
}

/// One finished reproduction.
#[derive(Debug, Clone)]
pub struct Reproduction {
    /// Artifact file name → bytes, as the `reproduce` bin writes them.
    pub artifacts: BTreeMap<String, Vec<u8>>,
    /// Exact simulated-work counts.
    pub counts: ExactCounts,
    /// Wall time of the whole reproduction, artifact writes included.
    pub wall: Duration,
    /// Wall time of the artifact writes alone.
    pub write: Duration,
    /// Tasks the execution pool ran.
    pub exec_tasks: u64,
    /// Parallel fan-outs the execution pool ran.
    pub exec_parallel_jobs: u64,
}

/// Runs the paper pipeline once and writes its artifacts into `out_dir`.
///
/// # Errors
///
/// A correctness oracle failed (the Dhrystone checksum, a halted run),
/// a library call refused, or a write failed.
pub fn reproduce(out_dir: &Path) -> Result<Reproduction, String> {
    let started = Instant::now();
    let work_before = EngineWork::snapshot();
    let tasks_before = scpg_exec::tasks_executed();
    let fanouts_before = scpg_exec::parallel_jobs();

    let mut files: Vec<(String, String)> = Vec::new();
    let mut md = String::from("# SCPG reproduction — measured results\n");

    let mult = multiplier_study()?;
    let cpu = cpu_study()?;

    for (study, mhz, tag) in [
        (&mult, &TABLE1_MHZ[..], "table1"),
        (&cpu, &TABLE2_MHZ[..], "table2"),
    ] {
        let table = span("scpg.points", || study.render_table(mhz));
        count("scpg.points", 3.0 * mhz.len() as f64);
        files.push((format!("{tag}.txt"), table.clone()));
        let _ = writeln!(md, "\n## {tag} — {}\n\n```\n{table}```", study.name);
        let _ = writeln!(
            md,
            "E_dyn/cycle = {}, workload cycles = {}",
            study.e_dyn, study.workload_cycles
        );
    }

    // Figs. 6/8 curves.
    for (study, fmax, tag) in [(&mult, 15.0, "fig6"), (&cpu, 10.0, "fig8")] {
        let pts = span("scpg.points", || study.curves(fmax, 60));
        count("scpg.points", 3.0 * pts.len() as f64);
        files.push((format!("{tag}.csv"), curves_csv(&pts)));
        let conv_scpg = span("scpg.convergence", || {
            study.convergence(Mode::Scpg).map(|f| f.as_mhz())
        });
        let _ = writeln!(
            md,
            "\n## {tag} — {}: convergence (SCPG vs baseline) at {:?} MHz",
            study.name, conv_scpg
        );
    }

    // Fig. 7 windows.
    let probs = span("waveform.windows", || {
        cpu.activity
            .window_switching_probabilities(MEASURE_PERIOD_PS)
    });
    let mut csv = String::from("group,switching_probability\n");
    for (i, p) in probs.iter().enumerate() {
        let _ = writeln!(csv, "{i},{p:.6}");
    }
    files.push(("fig7.csv".to_string(), csv));
    let pmax = probs.iter().cloned().fold(0.0_f64, f64::max);
    let pmin = probs.iter().cloned().fold(f64::INFINITY, f64::min);
    let pavg = probs.iter().sum::<f64>() / probs.len().max(1) as f64;
    let _ = writeln!(
        md,
        "\n## fig7 — {} groups of 10 vectors: p(min/avg/max) = {:.4}/{:.4}/{:.4}",
        probs.len(),
        pmin,
        pavg,
        pmax
    );

    // Figs. 9/10 sub-threshold sweeps.
    for (study, hi_v, tag) in [(&mult, 0.9, "fig9"), (&cpu, 0.7, "fig10")] {
        let volts: Vec<Voltage> = linspace(0.15, hi_v, 76)
            .into_iter()
            .map(Voltage::from_v)
            .collect();
        let curve = span("power.subthreshold", || {
            SubthresholdCurve::sweep(&study.baseline, &study.lib, study.e_dyn, &volts)
        })
        .map_err(|e| format!("{tag} sweep: {e}"))?;
        let mut csv = String::from("mv,e_op_pj,e_dyn_pj,e_leak_pj,fmax_mhz\n");
        for p in curve.points() {
            let _ = writeln!(
                csv,
                "{:.0},{:.4},{:.4},{:.4},{:.4}",
                p.voltage.as_mv(),
                p.e_op().as_pj(),
                p.e_dynamic.as_pj(),
                p.e_leak.as_pj(),
                p.f_max.as_mhz()
            );
        }
        files.push((format!("{tag}.csv"), csv));
        let min = curve
            .minimum()
            .ok_or_else(|| format!("{tag}: no minimum-energy point"))?;
        let _ = writeln!(
            md,
            "\n## {tag} — {}: minimum-energy point {} at {} ({}, {})",
            study.name, min.energy, min.voltage, min.frequency, min.power
        );
    }

    // Headlines (CPU budget: see EXPERIMENTS.md H2).
    for (study, mhz, budget_uw) in [
        (&mult, &TABLE1_MHZ[..], 30.0),
        (&cpu, &TABLE2_MHZ[..], 135.0),
    ] {
        let budget = Power::from_uw(budget_uw);
        let pick = |mode: Mode| {
            let limit = match mode {
                Mode::NoPg => budget.value(),
                _ => budget.value() * 1.10,
            };
            mhz.iter()
                .map(|&m| {
                    count("scpg.points", 1.0);
                    study.analysis.operating_point(Frequency::from_mhz(m), mode)
                })
                .rfind(|p| p.power.value() <= limit)
        };
        let (b, s, x) = span("scpg.points", || {
            (pick(Mode::NoPg), pick(Mode::Scpg), pick(Mode::ScpgMax))
        });
        if let (Some(b), Some(s), Some(x)) = (b, s, x) {
            let _ = writeln!(
                md,
                "\n## headline — {} at {budget_uw} µW: NoPG {} / {}, SCPG {} / {}, \
                 SCPG-Max {} / {} ⇒ {:.1}× clock, {:.1}× energy efficiency",
                study.name,
                b.frequency,
                b.energy_per_op,
                s.frequency,
                s.energy_per_op,
                x.frequency,
                x.energy_per_op,
                x.frequency / b.frequency,
                b.energy_per_op / x.energy_per_op
            );
        }
    }

    // Header sizing + area.
    let corner = PvtCorner::default();
    for study in [&mult, &cpu] {
        let timing = span("sta.analyze", || {
            scpg_sta::analyze(&study.design.netlist, &study.lib, corner.voltage)
        })
        .map_err(|e| format!("timing: {e}"))?;
        let picked = span("analog.header", || {
            let profile = profile_domain(
                &study.design,
                &study.lib,
                corner,
                study.e_dyn,
                timing.t_eval,
            )
            .map_err(|e| format!("profile: {e}"))?;
            choose_header(&profile, corner, &SizingConstraints::default())
                .map(|(picked, _)| picked)
                .map_err(|e| format!("header sizing: {e}"))
        })?;
        let ov = span("scpg.area", || {
            study.design.area_overhead(&study.baseline, &study.lib)
        });
        let _ = writeln!(
            md,
            "\n## headers/area — {}: header {:?}, {} isolation cells, area \
             overhead +{:.1} %",
            study.name,
            picked,
            study.design.isolation_cells,
            ov * 100.0
        );
    }
    files.push(("summary.md".to_string(), md));

    let write_started = Instant::now();
    span("bench.write", || -> Result<(), String> {
        fs::create_dir_all(out_dir).map_err(|e| format!("create {out_dir:?}: {e}"))?;
        for (name, text) in &files {
            fs::write(out_dir.join(name), text).map_err(|e| format!("write {name}: {e}"))?;
        }
        Ok(())
    })?;
    let write = write_started.elapsed();

    let work = EngineWork::snapshot().delta_since(work_before);
    let counts = ExactCounts {
        sim_events: work.sim.events,
        sim_gate_evals: work.sim.gate_evals,
        bitpar_words: work.bitpar.words_evaluated,
        dhrystone_cycles: cpu.workload_cycles,
        e_dyn_bits: [mult.e_dyn.value().to_bits(), cpu.e_dyn.value().to_bits()],
    };
    Ok(Reproduction {
        artifacts: files
            .into_iter()
            .map(|(name, text)| (name, text.into_bytes()))
            .collect(),
        counts,
        wall: started.elapsed(),
        write,
        exec_tasks: scpg_exec::tasks_executed().saturating_sub(tasks_before),
        exec_parallel_jobs: scpg_exec::parallel_jobs().saturating_sub(fanouts_before),
    })
}

fn drive_word(pairs: &mut Vec<(NetId, Logic)>, w: &Word, value: u64) {
    for (i, &bit) in w.bits().iter().enumerate() {
        pairs.push((bit, Logic::from_bool((value >> i) & 1 == 1)));
    }
}

/// `CaseStudy::multiplier`, call for call.
fn multiplier_study() -> Result<CaseStudy, String> {
    let (lib, (baseline, ports)) = span("circuits.generate", || {
        let lib = Library::ninety_nm();
        let generated = generate_multiplier(&lib, 16);
        (lib, generated)
    });
    let (cycles, activity) = {
        let mut rng = StdRng::seed_from_u64(0xD1CE);
        let sim = span("sim.compile", || {
            Simulator::new(&baseline, &lib, SimConfig::default())
        })
        .map_err(|e| format!("baseline multiplier: {e}"))?;
        span("sim.event", || {
            let mut tb = ClockedTestbench::new(sim, ports.clk, MEASURE_PERIOD_PS, 0.5);
            tb.sim_mut().set_input(ports.rst_n, Logic::Zero);
            tb.idle_cycles(2);
            tb.sim_mut().set_input(ports.rst_n, Logic::One);
            for _ in 0..64 {
                let mut stim = Vec::new();
                drive_word(&mut stim, &ports.a, rng.below(65_536));
                drive_word(&mut stim, &ports.b, rng.below(65_536));
                tb.cycle(&stim);
            }
            let cycles = tb.cycles();
            count("sim.cycles", cycles as f64);
            (cycles, tb.into_sim().finish().activity)
        })
    };
    build_study("16-bit multiplier", lib, baseline, activity, cycles)
}

/// `CaseStudy::cpu`, call for call, with the Dhrystone checksum oracle
/// returned as an error instead of a panic.
fn cpu_study() -> Result<CaseStudy, String> {
    let iterations = dhrystone::DEFAULT_ITERATIONS;
    let (lib, (baseline, ports)) = span("circuits.generate", || {
        let lib = Library::ninety_nm();
        let generated = generate_cpu(&lib);
        (lib, generated)
    });
    let words = span("isa.assemble", || dhrystone::assemble(iterations))
        .map_err(|e| format!("dhrystone assembles: {e}"))?;
    let cfg = SimConfig {
        window_ps: Some(10 * MEASURE_PERIOD_PS),
        ..SimConfig::default()
    };
    let mut sim = span("sim.compile", || Simulator::new(&baseline, &lib, cfg))
        .map_err(|e| format!("cpu: {e}"))?;
    let (halted, checksum, cycles, activity) = span("sim.event", || {
        let mut h = CpuHarness::new(words, dhrystone::memory_image());
        h.reset(&mut sim, &ports, MEASURE_PERIOD_PS, 3);
        let halted = h.run_to_halt(&mut sim, &ports, MEASURE_PERIOD_PS, 50_000);
        let cycles = h.cycles();
        count("sim.cycles", cycles as f64);
        (
            halted,
            h.mem(dhrystone::CHECKSUM_ADDR),
            cycles,
            sim.finish().activity,
        )
    });
    if !halted {
        return Err("dhrystone did not halt on the gate-level core".to_string());
    }
    let expected = dhrystone::expected_checksum(iterations);
    if checksum != expected {
        return Err(format!(
            "dhrystone checksum {checksum:#x} differs from the golden model's {expected:#x}"
        ));
    }
    build_study(
        "tm16 CPU (Cortex-M0 class)",
        lib,
        baseline,
        activity,
        cycles,
    )
}

/// `CaseStudy::build`, call for call.
fn build_study(
    name: &'static str,
    lib: Library,
    baseline: Netlist,
    activity: Activity,
    cycles: u64,
) -> Result<CaseStudy, String> {
    let corner = PvtCorner::default();
    let e_dyn = span("power.dynamic", || {
        PowerAnalyzer::new(&baseline, &lib, corner).map(|analyzer| {
            analyzer
                .dynamic(&activity)
                .energy_per_cycle(Time::from_ps(MEASURE_PERIOD_PS as f64))
        })
    })
    .map_err(|e| format!("{name}: power analysis: {e}"))?;
    let report = span("scpg.flow", || {
        ScpgFlow::new(&lib)
            .with_workload_energy(e_dyn)
            .run(&baseline, "clk")
    })
    .map_err(|e| format!("{name}: flow: {e}"))?;
    let design = report.design.clone();
    let analysis = span("scpg.analysis_build", || {
        ScpgAnalysis::new(&lib, &baseline, &design, e_dyn, corner)
    })
    .map_err(|e| format!("{name}: analysis: {e}"))?;
    Ok(CaseStudy {
        name,
        lib,
        baseline,
        design,
        analysis,
        e_dyn,
        activity,
        workload_cycles: cycles,
    })
}

/// Engine oracle: a short multiplier slice must apply exactly as many
/// events on the event engine as on `ReferenceSimulator`. Returns that
/// event count.
///
/// # Errors
///
/// The counts differ, or a simulator refused the netlist.
pub fn engine_oracle(cycles: usize) -> Result<u64, String> {
    const PERIOD_PS: u64 = MEASURE_PERIOD_PS;
    let lib = Library::ninety_nm();
    let (nl, ports) = generate_multiplier(&lib, 16);
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    let mut stimulus = Vec::with_capacity(cycles);
    for i in 0..cycles {
        let mut stim = Vec::new();
        if i == 0 {
            stim.push((ports.rst_n, Logic::Zero));
        }
        if i == 2 {
            stim.push((ports.rst_n, Logic::One));
        }
        if i >= 2 {
            drive_word(&mut stim, &ports.a, rng.below(65_536));
            drive_word(&mut stim, &ports.b, rng.below(65_536));
        }
        stimulus.push(stim);
    }
    // Mirrors `ClockedTestbench::cycle` on both engines.
    macro_rules! drive {
        ($sim:expr) => {{
            let mut events: u64 = 0;
            $sim.set_input(ports.clk, Logic::Zero);
            for (i, stim) in stimulus.iter().enumerate() {
                let t0 = i as u64 * PERIOD_PS;
                $sim.run_until(t0);
                $sim.set_input(ports.clk, Logic::One);
                events += $sim.run_until(t0 + PERIOD_PS / 100);
                for &(net, v) in stim.iter() {
                    $sim.set_input(net, v);
                }
                events += $sim.run_until(t0 + PERIOD_PS / 2);
                $sim.set_input(ports.clk, Logic::Zero);
                events += $sim.run_until(t0 + PERIOD_PS);
            }
            events
        }};
    }
    let mut sim = Simulator::new(&nl, &lib, SimConfig::default()).map_err(|e| e.to_string())?;
    let engine = drive!(sim);
    let mut rsim =
        ReferenceSimulator::new(&nl, &lib, SimConfig::default()).map_err(|e| e.to_string())?;
    let reference = drive!(rsim);
    if engine != reference {
        return Err(format!(
            "event engine applied {engine} events, ReferenceSimulator {reference}"
        ));
    }
    Ok(engine)
}

/// How many of the committed files under `results_dir` differ from (or
/// are missing in) this reproduction's artifacts.
pub fn results_diff_files(results_dir: &Path, artifacts: &BTreeMap<String, Vec<u8>>) -> usize {
    artifacts
        .iter()
        .filter(|(name, bytes)| {
            fs::read(results_dir.join(name)).map_or(true, |committed| committed != **bytes)
        })
        .count()
}

/// Runs the `reproduce` workload for `seconds` and fills `report`. Its
/// inputs are the paper's fixed workload: the seed does not affect it.
///
/// # Errors
///
/// The scratch directory could not be prepared, or the reference kernel
/// repeated a slice differently.
pub fn run(
    seconds: f64,
    traced: bool,
    scratch: &Path,
    report: &mut RunReport,
) -> Result<(), String> {
    // Set-up, `SETUPS` times: the run's artifact directory and the
    // engine-equivalence oracle.
    let mut setup_s = Vec::new();
    for i in 0..SETUPS {
        let t = Instant::now();
        let dir = scratch.join(format!("setup{i}"));
        fs::create_dir_all(&dir).map_err(|e| format!("create {dir:?}: {e}"))?;
        report.attempted += 1;
        if let Err(e) = engine_oracle(ORACLE_CYCLES) {
            report.failed += 1;
            report.fail(format!("engine oracle: {e}"));
        }
        setup_s.push(t.elapsed().as_secs_f64());
    }

    // A reference slice before the first reproduction and after each
    // one, so every reproduction sits between two slices.
    let mut reference = Reference::new(Kernel::EventSim)?;
    reference.sample()?;
    spans::set_enabled(traced);
    let out_dir = scratch.join("artifacts");
    let started = Instant::now();
    let mut runs: Vec<Reproduction> = Vec::new();
    while runs.len() < MIN_REPRODUCTIONS || started.elapsed().as_secs_f64() < seconds {
        report.attempted += 1;
        match reproduce(&out_dir) {
            Ok(r) => runs.push(r),
            Err(e) => {
                report.failed += 1;
                report.fail(format!("reproduction: {e}"));
                break;
            }
        }
        reference.sample()?;
    }
    let elapsed = started.elapsed().as_secs_f64();
    let summary = spans::take();
    spans::set_enabled(false);
    let Some(first) = runs.first() else {
        return Ok(());
    };

    for (i, r) in runs.iter().enumerate().skip(1) {
        if r.counts != first.counts {
            report.failed += 1;
            report.fail(format!(
                "reproduction {i}: exact counts {:?} differ from the first run's {:?}",
                r.counts, first.counts
            ));
        }
        if r.artifacts != first.artifacts {
            report.failed += 1;
            report.fail(format!("reproduction {i}: artifact bytes differ"));
        }
    }
    let written_ok = first
        .artifacts
        .iter()
        .all(|(name, bytes)| fs::read(out_dir.join(name)).is_ok_and(|on_disk| on_disk == *bytes));
    if !written_ok {
        report.failed += 1;
        report.fail("artifacts on disk differ from the rendered bytes".to_string());
    }

    let walls: Vec<f64> = runs.iter().map(|r| r.wall.as_secs_f64()).collect();
    let writes: Vec<f64> = runs.iter().map(|r| r.write.as_secs_f64() * 1e3).collect();
    // Each reproduction against the mean of the slices either side of it.
    let slices = reference.samples_ms();
    let rel: Vec<f64> = walls
        .iter()
        .enumerate()
        .map(|(i, w)| w * 1e3 / ((slices[i] + slices[i + 1]) / 2.0))
        .collect();
    let wall = median(&walls);
    report.e2e("setup_s", median(&setup_s));
    report.e2e("p50_rel", median(&rel));
    report.e2e("peak_rss_mb", peak_rss_mb());
    report.note("wall_s", wall, "s");
    report.note("p50_ms", wall * 1e3, "ms");
    // Too few reproductions for a p99: the slowest one stands in.
    report.note(
        "p99_ms",
        walls.iter().copied().fold(0.0, f64::max) * 1e3,
        "ms",
    );
    report.note("write_p50_ms", median(&writes), "ms");
    report.note("slo_rps", runs.len() as f64 / elapsed, "1/s");
    report.note("reference_ms", median(slices), "ms");
    report.note("samples.reproductions", runs.len() as f64, "count");
    report.note(
        "failed_share",
        report.failed as f64 / report.attempted.max(1) as f64,
        "ratio",
    );

    if traced {
        let n = runs.len() as f64;
        let c = first.counts;
        for (metric, name) in [
            ("circuits.generate_s", "circuits.generate"),
            ("sim.compile_s", "sim.compile"),
            ("sim.event_s", "sim.event"),
            ("power.dynamic_s", "power.dynamic"),
            ("power.subthreshold_s", "power.subthreshold"),
            ("scpg.flow_s", "scpg.flow"),
            ("scpg.analysis_build_s", "scpg.analysis_build"),
            ("scpg.points_s", "scpg.points"),
            ("scpg.convergence_s", "scpg.convergence"),
            ("scpg.area_s", "scpg.area"),
            ("sta.analyze_s", "sta.analyze"),
            ("analog.header_s", "analog.header"),
            ("waveform.windows_s", "waveform.windows"),
            ("isa.assemble_s", "isa.assemble"),
            ("bench.write_s", "bench.write"),
        ] {
            report.layer(metric, summary.secs(name) / n);
        }
        let covered: f64 = summary.self_time.values().map(|d| d.as_secs_f64()).sum();
        let traced_wall: f64 = walls.iter().sum();
        report.layer("bench.span_coverage", covered / traced_wall);
        let cycles = summary.count("sim.cycles") / n;
        let event_s = summary.secs("sim.event") / n;
        report.layer("sim.events", c.sim_events as f64);
        report.layer("sim.gate_evals", c.sim_gate_evals as f64);
        report.layer("sim.bitpar_words", c.bitpar_words as f64);
        report.layer("isa.dhrystone_cycles", c.dhrystone_cycles as f64);
        report.layer("sim.cycles_per_s", cycles / event_s);
        report.layer("sim.events_per_cycle", c.sim_events as f64 / cycles);
        report.layer("scpg.points", summary.count("scpg.points") / n);
        report.layer("exec.tasks", first.exec_tasks as f64);
        report.layer("exec.parallel_jobs", first.exec_parallel_jobs as f64);
    }
    let diff_files = results_diff_files(Path::new("results"), &first.artifacts) as f64;
    if traced {
        report.layer("bench.results_diff_files", diff_files);
    } else {
        report.note("bench.results_diff_files", diff_files, "count");
    }
    report.text(format!("exact counts: {:?}", first.counts));
    Ok(())
}

/// Cycles of the multiplier slice the engine oracle replays.
pub const ORACLE_CYCLES: usize = 24;
/// Set-ups per run (`setup_s` is their median).
pub const SETUPS: usize = 21;
/// Reproductions a run makes at least, however short `--seconds` is.
pub const MIN_REPRODUCTIONS: usize = 3;
