//! Sub-threshold minimum-energy analysis (paper §IV).
//!
//! Sub-threshold design lowers VDD until dynamic energy per operation
//! (falling as `V²`) balances leakage energy per operation (rising as
//! `P_leak(V) / F_max(V)`, because delay explodes below threshold). The
//! supply where they balance is the minimum-energy point: ≈310 mV /
//! 1.7 pJ / 10 MHz for the paper's multiplier and ≈450 mV / 12 pJ /
//! 24 MHz for its Cortex-M0.
//!
//! This module reproduces Figs. 9/10: sweep the supply, recompute
//! `F_max(V)` with [`scpg_sta`] and both energy components with the
//! library models, and locate the minimum.

use scpg_liberty::{Library, PvtCorner};
use scpg_netlist::Netlist;
use scpg_sta::{StaError, TimingGraph};
use scpg_units::{Energy, Frequency, Power, Voltage};

use crate::analyzer::PowerAnalyzer;

/// One point of the energy-versus-supply curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubthresholdPoint {
    /// Supply voltage.
    pub voltage: Voltage,
    /// Maximum clock frequency at this supply.
    pub f_max: Frequency,
    /// Leakage power at this supply.
    pub p_leak: Power,
    /// Dynamic energy per operation at this supply.
    pub e_dynamic: Energy,
    /// Leakage energy per operation (`p_leak / f_max`).
    pub e_leak: Energy,
}

impl SubthresholdPoint {
    /// Total energy per operation.
    pub fn e_op(&self) -> Energy {
        self.e_dynamic + self.e_leak
    }

    /// Average power when running flat-out at `f_max`.
    pub fn power_at_fmax(&self) -> Power {
        self.p_leak + self.e_dynamic * self.f_max
    }
}

/// The located minimum-energy point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MinimumEnergyPoint {
    /// The minimising supply.
    pub voltage: Voltage,
    /// Energy per operation there.
    pub energy: Energy,
    /// Operating frequency there.
    pub frequency: Frequency,
    /// Average power there.
    pub power: Power,
}

/// The full sweep result.
#[derive(Debug, Clone, PartialEq)]
pub struct SubthresholdCurve {
    points: Vec<SubthresholdPoint>,
}

impl SubthresholdCurve {
    /// Sweeps `voltages` for the design, using `e_dyn_char` as the
    /// measured dynamic energy per operation at the library's
    /// characterisation voltage (obtain it by simulating a workload at
    /// 0.6 V and asking [`crate::DynamicReport::energy_per_cycle`]).
    ///
    /// The design's timing graph and power analyzer are built once; the
    /// supply points are then independent, so they fan out across the
    /// [`scpg_exec`] pool (voltage order in the result is preserved);
    /// inside an outer parallel region — e.g. a Monte-Carlo die — it
    /// degrades to a serial loop.
    ///
    /// # Errors
    ///
    /// Returns an [`StaError`] if the netlist does not resolve or has a
    /// combinational loop.
    pub fn sweep(
        nl: &Netlist,
        lib: &Library,
        e_dyn_char: Energy,
        voltages: &[Voltage],
    ) -> Result<Self, StaError> {
        let graph = TimingGraph::build(nl, lib)?;
        let analyzer = PowerAnalyzer::new(nl, lib, PvtCorner::default())?;
        Ok(Self::sweep_built(
            &graph,
            &analyzer,
            lib.char_voltage(),
            e_dyn_char,
            voltages,
        ))
    }

    /// [`Self::sweep`] over an already-built graph and analyzer of one
    /// design whose library is characterised at `v_char`.
    pub(crate) fn sweep_built(
        graph: &TimingGraph<'_>,
        analyzer: &PowerAnalyzer<'_>,
        v_char: Voltage,
        e_dyn_char: Energy,
        voltages: &[Voltage],
    ) -> Self {
        let points = scpg_exec::par_sweep(voltages, |&v| {
            let f_max = graph.analyze(v).f_max();
            let p_leak = analyzer.leakage_at(PvtCorner::at_voltage(v), None).total;
            let vr = v.as_v() / v_char.as_v();
            let e_dynamic = Energy::new(e_dyn_char.value() * vr * vr);
            SubthresholdPoint {
                voltage: v,
                f_max,
                p_leak,
                e_dynamic,
                e_leak: p_leak / f_max,
            }
        });
        Self { points }
    }

    /// All sweep points, in the order given.
    pub fn points(&self) -> &[SubthresholdPoint] {
        &self.points
    }

    /// The minimum-energy point of the sweep, or `None` for an empty one.
    pub fn minimum(&self) -> Option<MinimumEnergyPoint> {
        self.points
            .iter()
            .min_by(|a, b| a.e_op().value().total_cmp(&b.e_op().value()))
            .map(|p| MinimumEnergyPoint {
                voltage: p.voltage,
                energy: p.e_op(),
                frequency: p.f_max,
                power: p.power_at_fmax(),
            })
    }

    /// Highest frequency achievable within `budget` when running at
    /// `f_max(V)` per supply point; the paper uses this to compare
    /// sub-threshold operation against SCPG at matched power.
    pub fn best_within_budget(&self, budget: Power) -> Option<&SubthresholdPoint> {
        self.points
            .iter()
            .filter(|p| p.power_at_fmax().value() <= budget.value())
            .max_by(|a, b| a.f_max.value().total_cmp(&b.f_max.value()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scpg_circuits::generate_multiplier;
    use scpg_liberty::Library;
    use scpg_units::linspace;

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

    fn sweep_for(n: usize, e_dyn_pj: f64) -> SubthresholdCurve {
        let lib = Library::ninety_nm();
        let nl = chain(n);
        let volts: Vec<Voltage> = linspace(0.15, 0.9, 76)
            .into_iter()
            .map(Voltage::from_v)
            .collect();
        SubthresholdCurve::sweep(&nl, &lib, Energy::from_pj(e_dyn_pj), &volts).unwrap()
    }

    // Dynamic energies below are sized so that, like the paper's designs,
    // leakage energy is ≈20 % of dynamic at 0.6 V — that ratio is what
    // puts the minimum-energy point near threshold.
    #[test]
    fn curve_is_u_shaped() {
        let curve = sweep_for(64, 0.012);
        let min = curve.minimum().unwrap();
        let first = curve.points().first().unwrap();
        let last = curve.points().last().unwrap();
        assert!(
            first.e_op().value() > min.energy.value() * 1.15,
            "left arm rises"
        );
        assert!(
            last.e_op().value() > min.energy.value() * 1.1,
            "right arm rises"
        );
        // Minimum is interior.
        assert!(min.voltage.as_mv() > 160.0 && min.voltage.as_mv() < 880.0);
    }

    #[test]
    fn minimum_sits_near_threshold_region() {
        // With leakage-heavy designs the minimum-energy point sits in the
        // 250–500 mV band (paper: 310 mV multiplier, 450 mV M0).
        let curve = sweep_for(64, 0.012);
        let min = curve.minimum().unwrap();
        assert!(
            (210.0..520.0).contains(&min.voltage.as_mv()),
            "min at {} outside the near-threshold band",
            min.voltage
        );
    }

    #[test]
    fn components_move_in_opposite_directions() {
        let curve = sweep_for(32, 0.012);
        let pts = curve.points();
        for w in pts.windows(2) {
            assert!(
                w[1].e_dynamic.value() > w[0].e_dynamic.value(),
                "dynamic rises with V"
            );
            assert!(
                w[1].f_max.value() > w[0].f_max.value(),
                "speed rises with V"
            );
        }
        // Leakage energy per op falls with V (delay shrinks faster than
        // leakage rises) through the sub/near-threshold region.
        let low = pts.first().unwrap().e_leak;
        let mid = pts[pts.len() / 2].e_leak;
        assert!(low.value() > mid.value());
    }

    #[test]
    fn budget_query_matches_brute_force() {
        let curve = sweep_for(32, 0.012);
        let budget = Power::from_uw(20.0);
        let best = curve.best_within_budget(budget);
        if let Some(best) = best {
            for p in curve.points() {
                if p.power_at_fmax().value() <= budget.value() {
                    assert!(p.f_max.value() <= best.f_max.value());
                }
            }
        }
        // Absurdly small budget yields nothing.
        assert!(curve.best_within_budget(Power::from_pw(1.0)).is_none());
    }

    #[test]
    fn sweep_is_bit_identical_to_per_point_analysis() {
        let base = Library::ninety_nm();
        let (nl, _) = generate_multiplier(&base, 8);
        let volts: Vec<Voltage> = linspace(0.15, 0.9, 76)
            .into_iter()
            .map(Voltage::from_v)
            .collect();
        let e_dyn = Energy::from_pj(3.0);
        for lib in [base.clone(), base.vt_shifted(Voltage::from_mv(-30.0))] {
            let curve = SubthresholdCurve::sweep(&nl, &lib, e_dyn, &volts).unwrap();
            assert_eq!(curve.points().len(), volts.len());
            for (p, &v) in curve.points().iter().zip(&volts) {
                let f_max = scpg_sta::analyze(&nl, &lib, v).unwrap().f_max();
                let p_leak = PowerAnalyzer::new(&nl, &lib, PvtCorner::at_voltage(v))
                    .unwrap()
                    .leakage(None)
                    .total;
                let vr = v.as_v() / lib.char_voltage().as_v();
                let e_dynamic = Energy::new(e_dyn.value() * vr * vr);
                let bits = |q: [f64; 5]| q.map(f64::to_bits);
                assert_eq!(
                    bits([
                        p.voltage.value(),
                        p.f_max.value(),
                        p.p_leak.value(),
                        p.e_dynamic.value(),
                        p.e_leak.value()
                    ]),
                    bits([
                        v.value(),
                        f_max.value(),
                        p_leak.value(),
                        e_dynamic.value(),
                        (p_leak / f_max).value()
                    ]),
                    "at {v}"
                );
            }
        }
    }

    #[test]
    fn empty_sweep_has_no_minimum() {
        let lib = Library::ninety_nm();
        let nl = chain(4);
        let curve = SubthresholdCurve::sweep(&nl, &lib, Energy::from_pj(1.0), &[]).unwrap();
        assert!(curve.minimum().is_none());
    }
}
