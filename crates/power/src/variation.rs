//! Monte-Carlo process-variation analysis (paper §IV, made quantitative).
//!
//! The paper argues qualitatively that sub-threshold designs are "more
//! sensitive to process variations such as variations in threshold
//! voltage", which "can skew the minimum energy point significantly",
//! while SCPG "operates above threshold voltage maintaining greater
//! stability". This module turns that argument into numbers: sample a
//! die-to-die threshold shift `ΔV_t ~ N(0, σ)`, re-characterise the
//! library per sample, and measure
//!
//! * the **performance spread**: near threshold, delay is exponential in
//!   `V_t`, so `F_max` at the nominal minimum-energy supply swings by
//!   multiples die-to-die; above threshold the same `ΔV_t` moves `F_max`
//!   by percents;
//! * the **minimum-energy-point skew**: each die's minimum-energy supply
//!   wanders, so a fixed sub-threshold design point is wrong for most
//!   dies.
//!
//! (Energy per operation itself is surprisingly variation-*tolerant* in
//! deep sub-threshold — the leakage increase and the delay decrease of a
//! low-`V_t` die cancel in `P·t` — which is exactly why the paper's
//! complaint is about performance and design-point uncertainty, not
//! energy.)

use scpg_liberty::{Library, PvtCorner};
use scpg_netlist::Netlist;
use scpg_sta::{StaError, TimingGraph};
use scpg_units::{Energy, Frequency, Voltage};

use crate::analyzer::PowerAnalyzer;
use crate::subthreshold::SubthresholdCurve;

/// Monte-Carlo settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariationConfig {
    /// Standard deviation of the die-to-die `V_t` shift (90 nm-class
    /// global variation is ≈20–40 mV).
    pub sigma_vt: Voltage,
    /// Number of Monte-Carlo samples.
    pub samples: usize,
    /// RNG seed (runs are reproducible).
    pub seed: u64,
}

impl Default for VariationConfig {
    fn default() -> Self {
        Self {
            sigma_vt: Voltage::from_mv(30.0),
            samples: 60,
            seed: 0x5CC6,
        }
    }
}

/// One Monte-Carlo die's outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariationSample {
    /// The sampled threshold shift.
    pub dvt: Voltage,
    /// `F_max` of this die at the *nominal* sub-threshold operating
    /// point (the nominal minimum-energy supply).
    pub f_subthreshold: Frequency,
    /// `F_max` of this die at the characterisation supply (0.6 V) — the
    /// SCPG operating regime.
    pub f_above_threshold: Frequency,
    /// Energy/op of this die at the nominal sub-threshold point.
    pub e_subthreshold: Energy,
    /// This die's own minimum-energy supply.
    pub v_min_of_die: Voltage,
}

/// The full study.
#[derive(Debug, Clone, PartialEq)]
pub struct VariationStudy {
    /// The nominal minimum-energy supply the sub-threshold design is
    /// pinned at.
    pub v_min_nominal: Voltage,
    /// Per-die outcomes.
    pub samples: Vec<VariationSample>,
}

fn cv(values: impl Iterator<Item = f64> + Clone) -> f64 {
    let n = values.clone().count().max(1) as f64;
    let mean = values.clone().sum::<f64>() / n;
    let var = values.map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    var.sqrt() / mean
}

impl VariationStudy {
    /// Runs the Monte-Carlo comparison for a design, evaluating dies in
    /// parallel.
    ///
    /// Each die draws its threshold shift from its own counter-based RNG
    /// stream ([`scpg_rng::StdRng::stream`] of `config.seed` and the die
    /// index), so the result is **bit-identical** for any worker count —
    /// including [`Self::run_serial`] — and per-die work can be scheduled
    /// freely.
    ///
    /// # Errors
    ///
    /// Propagates timing/netlist errors from the per-die sweeps (lowest
    /// die index wins when several fail).
    pub fn run(
        nl: &Netlist,
        lib: &Library,
        e_dyn_char: Energy,
        config: &VariationConfig,
    ) -> Result<Self, StaError> {
        Self::run_with_threads(nl, lib, e_dyn_char, config, scpg_exec::num_threads())
    }

    /// [`Self::run`] pinned to one worker — the baseline the speedup and
    /// determinism harnesses compare against.
    ///
    /// # Errors
    ///
    /// Propagates timing/netlist errors from the per-die sweeps.
    pub fn run_serial(
        nl: &Netlist,
        lib: &Library,
        e_dyn_char: Energy,
        config: &VariationConfig,
    ) -> Result<Self, StaError> {
        Self::run_with_threads(nl, lib, e_dyn_char, config, 1)
    }

    /// [`Self::run`] at an explicit worker count.
    ///
    /// # Errors
    ///
    /// Propagates timing/netlist errors from the per-die sweeps.
    pub fn run_with_threads(
        nl: &Netlist,
        lib: &Library,
        e_dyn_char: Energy,
        config: &VariationConfig,
        threads: usize,
    ) -> Result<Self, StaError> {
        let volts: Vec<Voltage> = scpg_units::linspace(0.18, 0.9, 97)
            .into_iter()
            .map(Voltage::from_v)
            .collect();
        let nominal = SubthresholdCurve::sweep(nl, lib, e_dyn_char, &volts)?;
        let v_min = nominal.minimum().expect("non-empty sweep").voltage;
        let v_char = lib.char_voltage();

        let results = scpg_exec::par_map_indices_with_threads(config.samples, threads, |die| {
            let mut rng = scpg_rng::StdRng::stream(config.seed, die as u64);
            let dvt = Voltage::new(config.sigma_vt.value() * rng.gaussian());
            Self::simulate_die(nl, lib, e_dyn_char, &volts, v_min, v_char, dvt)
        });
        let mut samples = Vec::with_capacity(config.samples);
        for r in results {
            samples.push(r?);
        }
        Ok(Self {
            v_min_nominal: v_min,
            samples,
        })
    }

    /// One die's full evaluation at threshold shift `dvt`.
    fn simulate_die(
        nl: &Netlist,
        lib: &Library,
        e_dyn_char: Energy,
        volts: &[Voltage],
        v_min: Voltage,
        v_char: Voltage,
        dvt: Voltage,
    ) -> Result<VariationSample, StaError> {
        let die = lib.vt_shifted(dvt);
        // One timing graph and one analyzer per die serve both operating
        // points and the die's own supply sweep.
        let graph = TimingGraph::build(nl, &die)?;
        let analyzer = PowerAnalyzer::new(nl, &die, PvtCorner::at_voltage(v_min))?;

        let f_sub = graph.analyze(v_min).f_max();
        let f_at = graph.analyze(v_char).f_max();

        let p_leak_sub = analyzer.leakage(None).total;
        let vr = v_min.as_v() / v_char.as_v();
        let e_dyn_sub = Energy::new(e_dyn_char.value() * vr * vr);
        let e_sub = e_dyn_sub + p_leak_sub / f_sub;

        let die_curve = SubthresholdCurve::sweep_built(
            &graph,
            &analyzer,
            die.char_voltage(),
            e_dyn_char,
            volts,
        );
        let v_min_die = die_curve.minimum().expect("non-empty").voltage;

        Ok(VariationSample {
            dvt,
            f_subthreshold: f_sub,
            f_above_threshold: f_at,
            e_subthreshold: e_sub,
            v_min_of_die: v_min_die,
        })
    }

    /// Coefficient of variation of the die frequency at the sub-threshold
    /// operating point.
    pub fn cv_f_subthreshold(&self) -> f64 {
        cv(self.samples.iter().map(|s| s.f_subthreshold.value()))
    }

    /// Coefficient of variation of the die frequency at the SCPG
    /// (above-threshold) operating point.
    pub fn cv_f_above_threshold(&self) -> f64 {
        cv(self.samples.iter().map(|s| s.f_above_threshold.value()))
    }

    /// Max/min spread of the sub-threshold die frequency.
    pub fn f_spread_subthreshold(&self) -> f64 {
        let fmax = self
            .samples
            .iter()
            .map(|s| s.f_subthreshold.value())
            .fold(f64::NEG_INFINITY, f64::max);
        let fmin = self
            .samples
            .iter()
            .map(|s| s.f_subthreshold.value())
            .fold(f64::INFINITY, f64::min);
        fmax / fmin
    }

    /// The range over which the minimum-energy supply wanders die-to-die
    /// ("can skew the minimum energy point significantly", §IV).
    pub fn v_min_skew(&self) -> Voltage {
        let hi = self
            .samples
            .iter()
            .map(|s| s.v_min_of_die.value())
            .fold(f64::NEG_INFINITY, f64::max);
        let lo = self
            .samples
            .iter()
            .map(|s| s.v_min_of_die.value())
            .fold(f64::INFINITY, f64::min);
        Voltage::new(hi - lo)
    }

    /// Fraction of dies that fail to reach the nominal die's frequency at
    /// the sub-threshold point (a first-order timing-yield figure).
    pub fn subthreshold_timing_yield(&self, f_required: Frequency) -> f64 {
        let pass = self
            .samples
            .iter()
            .filter(|s| s.f_subthreshold.value() >= f_required.value())
            .count();
        pass as f64 / self.samples.len().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scpg_liberty::Library;

    fn chain(n: usize) -> Netlist {
        let mut nl = Netlist::new("chain");
        let mut cur = nl.add_input("a");
        for i in 0..n {
            let next = if i + 1 == n {
                nl.add_output("y")
            } else {
                nl.add_fresh_net()
            };
            nl.add_instance(format!("u{i}"), "INV_X1", &[cur, next])
                .unwrap();
            cur = next;
        }
        nl
    }

    #[test]
    fn lower_vt_leaks_more_and_runs_faster() {
        let lib = Library::ninety_nm();
        let fast = lib.vt_shifted(Voltage::from_mv(-40.0));
        let slow = lib.vt_shifted(Voltage::from_mv(40.0));
        let nl = chain(16);
        let corner = PvtCorner::default();
        let leak_fast = PowerAnalyzer::new(&nl, &fast, corner)
            .unwrap()
            .leakage(None);
        let leak_slow = PowerAnalyzer::new(&nl, &slow, corner)
            .unwrap()
            .leakage(None);
        assert!(
            leak_fast.total.value() > 1.5 * leak_slow.total.value(),
            "{} vs {}",
            leak_fast.total,
            leak_slow.total
        );
        let f_fast = scpg_sta::f_max(&nl, &fast, corner.voltage).unwrap();
        let f_slow = scpg_sta::f_max(&nl, &slow, corner.voltage).unwrap();
        assert!(f_fast.value() > f_slow.value());
    }

    #[test]
    fn subthreshold_performance_is_far_more_variation_sensitive() {
        let lib = Library::ninety_nm();
        let nl = chain(32);
        let cfg = VariationConfig {
            samples: 24,
            ..Default::default()
        };
        let study = VariationStudy::run(&nl, &lib, Energy::from_fj(12.0), &cfg).unwrap();
        let cv_sub = study.cv_f_subthreshold();
        let cv_at = study.cv_f_above_threshold();
        assert!(
            cv_sub > 2.5 * cv_at,
            "§IV: near-threshold F_max CV {cv_sub:.3} must dwarf above-threshold {cv_at:.3}"
        );
        assert!(
            study.f_spread_subthreshold() > 1.8,
            "die-to-die frequency spread {:.2}× should be large near threshold",
            study.f_spread_subthreshold()
        );
        assert!(
            study.v_min_skew().as_mv() > 10.0,
            "minimum-energy point should wander tens of mV, got {}",
            study.v_min_skew()
        );
        // Yield at the nominal-die frequency is well below 100 %.
        let f_nom = scpg_sta::f_max(&nl, &lib, study.v_min_nominal).unwrap();
        let y = study.subthreshold_timing_yield(f_nom);
        assert!(y < 0.85, "timing yield at the nominal point: {y:.2}");
    }

    #[test]
    fn study_is_reproducible() {
        let lib = Library::ninety_nm();
        let nl = chain(8);
        let cfg = VariationConfig {
            samples: 6,
            ..Default::default()
        };
        let a = VariationStudy::run(&nl, &lib, Energy::from_fj(4.0), &cfg).unwrap();
        let b = VariationStudy::run(&nl, &lib, Energy::from_fj(4.0), &cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_study_is_bit_identical_to_serial() {
        let lib = Library::ninety_nm();
        let nl = chain(8);
        let cfg = VariationConfig {
            samples: 9,
            ..Default::default()
        };
        let serial = VariationStudy::run_serial(&nl, &lib, Energy::from_fj(4.0), &cfg).unwrap();
        // More workers than dies, odd counts, oversubscribed counts: the
        // per-die RNG streams make scheduling irrelevant.
        for threads in [2, 3, 16] {
            let par =
                VariationStudy::run_with_threads(&nl, &lib, Energy::from_fj(4.0), &cfg, threads)
                    .unwrap();
            assert_eq!(serial, par, "threads = {threads}");
        }
    }
}
