//! Static timing analysis.
//!
//! SCPG's whole premise is the gap between the combinational evaluation
//! time `T_eval` and the clock period `T_clk` (paper Fig. 1): frequency
//! scaling below `F_max` opens up `T_idle = T_clk − T_hold − T_eval −
//! T_setup`, which the technique converts into gated time. This crate
//! computes those quantities from the netlist:
//!
//! * [`TimingGraph`] — the netlist's timing structure, built once: each
//!   instance's cell, each output's load and base delay at the
//!   characterisation voltage, the launch points, the combinational
//!   evaluation order and the capture points. [`TimingGraph::analyze`]
//!   runs longest-path analysis at a supply voltage, returning
//!   [`TimingReport`] with `T_eval`, the critical path, and the minimum
//!   clock period. Every cell delay scales with the supply through its
//!   transistor model alone, so the supply sweeps of the sub-threshold
//!   study (Figs. 9/10) build one graph and analyse it per voltage;
//! * [`analyze`] — the one-shot form, building a graph for one supply.
//!
//! Timing arcs: primary inputs and flop/latch `Q` pins launch at the
//! clock-to-Q delay; flop `D` pins and output ports capture; combinational
//! cells contribute `delay(V, load)` per output. Combinational loops are
//! reported as errors.
//!
//! # Example
//!
//! ```
//! use scpg_liberty::Library;
//! use scpg_netlist::Netlist;
//! use scpg_sta::analyze;
//! use scpg_units::Voltage;
//!
//! let lib = Library::ninety_nm();
//! let mut nl = Netlist::new("t");
//! let a = nl.add_input("a");
//! let y = nl.add_output("y");
//! nl.add_instance("u", "INV_X1", &[a, y])?;
//! let report = analyze(&nl, &lib, Voltage::from_mv(600.0))?;
//! assert!(report.t_eval.as_ps() > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

#[cfg(test)]
mod reference;

use std::error::Error;
use std::fmt;

use scpg_liberty::{CellKind, Library};
use scpg_netlist::{InstId, NetId, Netlist, NetlistError, PortDirection, ResolvedCells};
use scpg_units::{Frequency, Time, Voltage};

/// Errors from timing analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StaError {
    /// The netlist does not resolve against the library.
    Netlist(NetlistError),
    /// A purely combinational cycle was found (no flop breaks the loop).
    CombinationalLoop {
        /// Name of a net on the cycle.
        net: String,
    },
    /// The design exceeds the analysis admission limits
    /// ([`analyze_limited`]).
    TooLarge {
        /// Instances in the design.
        instances: usize,
        /// The admission ceiling.
        limit: usize,
    },
}

impl fmt::Display for StaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StaError::Netlist(e) => write!(f, "netlist error: {e}"),
            StaError::CombinationalLoop { net } => {
                write!(f, "combinational loop through net `{net}`")
            }
            StaError::TooLarge { instances, limit } => {
                write!(
                    f,
                    "design too large for timing analysis: {instances} instances, limit {limit}"
                )
            }
        }
    }
}

impl Error for StaError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            StaError::Netlist(e) => Some(e),
            StaError::CombinationalLoop { .. } | StaError::TooLarge { .. } => None,
        }
    }
}

impl From<NetlistError> for StaError {
    fn from(e: NetlistError) -> Self {
        StaError::Netlist(e)
    }
}

/// Result of a longest-path analysis at one supply voltage.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingReport {
    /// The supply the analysis ran at.
    pub voltage: Voltage,
    /// Longest combinational evaluation time (launch to capture),
    /// including the launching flop's clock-to-Q delay.
    pub t_eval: Time,
    /// Largest setup requirement among capturing flops.
    pub t_setup: Time,
    /// Largest hold requirement among flops.
    pub t_hold: Time,
    /// Minimum clock period: `t_eval + t_setup`.
    pub min_period: Time,
    /// Instances along the critical path, launch to capture.
    pub critical_path: Vec<InstId>,
}

impl TimingReport {
    /// Maximum clock frequency at this supply.
    pub fn f_max(&self) -> Frequency {
        self.min_period.frequency()
    }

    /// Idle time inside a clock cycle at frequency `f`
    /// (`T_clk − T_eval − T_setup`, clamped at zero) — the raw material
    /// SCPG converts into leakage saving.
    pub fn t_idle(&self, f: Frequency) -> Time {
        let slack = f.period() - self.min_period;
        slack.max(Time::ZERO)
    }
}

/// Admission limits for [`analyze_limited`] — the hook the serving layer
/// uses so an uploaded netlist cannot demand unbounded timing work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaLimits {
    /// Maximum instances admitted to analysis.
    pub max_instances: usize,
}

impl Default for StaLimits {
    fn default() -> Self {
        // Matches the netlist-parse ceiling: comfortably above the
        // paper's 6 747-gate M0.
        Self {
            max_instances: 20_000,
        }
    }
}

/// [`analyze`] behind an explicit size admission check, for untrusted
/// (uploaded) designs.
///
/// # Errors
///
/// [`StaError::TooLarge`] when the design busts `limits`, otherwise as
/// [`analyze`].
pub fn analyze_limited(
    nl: &Netlist,
    lib: &Library,
    v: Voltage,
    limits: &StaLimits,
) -> Result<TimingReport, StaError> {
    if nl.instances().len() > limits.max_instances {
        return Err(StaError::TooLarge {
            instances: nl.instances().len(),
            limit: limits.max_instances,
        });
    }
    analyze(nl, lib, v)
}

/// Runs longest-path timing analysis at supply `v` (nominal temperature).
///
/// A one-shot [`TimingGraph::build`] plus [`TimingGraph::analyze`]; build
/// the graph yourself to analyse one netlist at many supplies.
///
/// # Errors
///
/// Returns [`StaError::Netlist`] if the netlist does not resolve, or
/// [`StaError::CombinationalLoop`] if combinational cells form a cycle.
pub fn analyze(nl: &Netlist, lib: &Library, v: Voltage) -> Result<TimingReport, StaError> {
    Ok(TimingGraph::build(nl, lib)?.analyze(v))
}

/// A netlist's timing structure, built once and analysed at any supply.
///
/// Everything that does not depend on the supply is resolved at build
/// time into flat arrays: each instance's library cell, each output's
/// load and base delay ([`scpg_liberty::Cell::delay_base`]), the
/// launch points, the combinational evaluation order and the capture
/// points. [`TimingGraph::analyze`] is then one pass that scales each
/// base delay by its cell's [`scpg_liberty::TransistorModel::delay_scale`],
/// evaluated once per distinct cell.
///
/// Launch points count as sourced whatever their clock-to-Q delay, so
/// the evaluation order is fixed at build time and does not depend on
/// the supply.
#[derive(Debug, Clone)]
pub struct TimingGraph<'lib> {
    cells: ResolvedCells<'lib>,
    /// CSR: instance `i`'s input nets are `in_net[in_start[i]..in_start[i + 1]]`.
    in_start: Vec<u32>,
    in_net: Vec<NetId>,
    /// CSR: instance `i`'s output arcs are `arc_start[i]..arc_start[i + 1]`,
    /// each an output net and its delay at the characterisation voltage.
    arc_start: Vec<u32>,
    arc_net: Vec<NetId>,
    arc_base: Vec<Time>,
    /// Per-net arrival (ps) before any cell fires: 0 for primary inputs,
    /// header rails and undriven nets, `-inf` elsewhere.
    init_arrival: Vec<f64>,
    /// Sequential instances, in instance order.
    launch: Vec<InstId>,
    /// Combinational instances, in evaluation (topological) order.
    order: Vec<InstId>,
    /// Flop/latch data nets, then output-port nets.
    capture: Vec<NetId>,
    t_setup: Time,
    t_hold: Time,
}

impl<'lib> TimingGraph<'lib> {
    /// Resolves `nl` against `lib` and orders its combinational cells.
    ///
    /// # Errors
    ///
    /// Returns [`StaError::Netlist`] if the netlist does not resolve, or
    /// [`StaError::CombinationalLoop`] if combinational cells form a cycle.
    pub fn build(nl: &Netlist, lib: &'lib Library) -> Result<Self, StaError> {
        let conn = nl.connectivity(lib)?;
        let cells = nl.resolve_cells(lib)?;
        let n_nets = nl.nets().len();
        let n_inst = nl.instances().len();

        let mut in_start = Vec::with_capacity(n_inst + 1);
        let mut in_net = Vec::new();
        let mut arc_start = Vec::with_capacity(n_inst + 1);
        let mut arc_net = Vec::new();
        let mut arc_base = Vec::new();
        in_start.push(0);
        arc_start.push(0);
        for (id, inst) in nl.iter_instances() {
            let cell = cells.cell(id);
            let (ins, outs) = inst.connections().split_at(cell.kind().num_inputs());
            in_net.extend_from_slice(ins);
            for &out in outs {
                let mut load = lib.wire_cap();
                for pin in conn.loads(out) {
                    load += cells.cell(pin.inst).input_cap();
                }
                arc_net.push(out);
                arc_base.push(cell.delay_base(load));
            }
            in_start.push(in_net.len() as u32);
            arc_start.push(arc_net.len() as u32);
        }

        // Sources: primary inputs at t=0; header rails and undriven nets
        // at t=0 (constants). Sequential outputs launch at clock-to-Q.
        let mut init_arrival = vec![f64::NEG_INFINITY; n_nets];
        for p in nl.ports() {
            if p.direction == PortDirection::Input {
                init_arrival[p.net.index()] = 0.0;
            }
        }
        let mut launch = Vec::new();
        let mut capture = Vec::new();
        let mut t_setup = Time::ZERO;
        let mut t_hold = Time::ZERO;
        let mut sourced: Vec<bool> = vec![false; n_nets];
        for (id, inst) in nl.iter_instances() {
            let cell = cells.cell(id);
            let kind = cell.kind();
            let outs = &inst.connections()[kind.num_inputs()..];
            if kind.is_sequential() {
                t_setup = t_setup.max(cell.setup_time());
                t_hold = t_hold.max(cell.hold_time());
                launch.push(id);
                // Data input is pin 0 by convention (D).
                capture.push(inst.connections()[0]);
                for &q in outs {
                    sourced[q.index()] = true;
                }
            } else if kind == CellKind::Header {
                for &out in outs {
                    init_arrival[out.index()] = 0.0;
                }
            }
        }
        for p in nl.ports() {
            if p.direction == PortDirection::Output {
                capture.push(p.net);
            }
        }
        for (i, a) in init_arrival.iter_mut().enumerate() {
            // Undriven-but-read nets would fail validation; treat as t=0
            // so analysis is robust on partial designs.
            if conn.driver(NetId::from_index(i)).is_none() {
                *a = 0.0;
            }
            sourced[i] |= a.is_finite();
        }

        // Kahn's algorithm over combinational cells: a cell is ready once
        // every input pin's net is sourced. The ready list is a stack.
        let comb: Vec<bool> = nl
            .iter_instances()
            .map(|(id, _)| cells.cell(id).kind().is_combinational())
            .collect();
        let mut remaining: Vec<usize> = vec![0; n_inst];
        let mut ready: Vec<InstId> = Vec::new();
        for (id, _) in nl.iter_instances() {
            if !comb[id.index()] {
                continue;
            }
            let ins = &in_net[in_start[id.index()] as usize..in_start[id.index() + 1] as usize];
            remaining[id.index()] = ins.iter().filter(|n| !sourced[n.index()]).count();
            if remaining[id.index()] == 0 {
                ready.push(id);
            }
        }
        let mut order = Vec::with_capacity(n_inst);
        while let Some(id) = ready.pop() {
            order.push(id);
            let arcs = arc_start[id.index()] as usize..arc_start[id.index() + 1] as usize;
            for &out in &arc_net[arcs] {
                // Wake readers whose inputs are now all sourced.
                for pin in conn.loads(out) {
                    let r = pin.inst.index();
                    if comb[r] && remaining[r] > 0 {
                        remaining[r] -= 1;
                        if remaining[r] == 0 {
                            ready.push(pin.inst);
                        }
                    }
                }
            }
        }
        if order.len() < comb.iter().filter(|&&c| c).count() {
            // Some combinational cell never became ready: a loop. Identify
            // a net on it for the report.
            let victim = nl
                .iter_instances()
                .find(|(id, _)| comb[id.index()] && remaining[id.index()] > 0)
                .map(|(_, inst)| nl.net(inst.connections()[0]).name().to_string())
                .unwrap_or_default();
            return Err(StaError::CombinationalLoop { net: victim });
        }

        Ok(Self {
            cells,
            in_start,
            in_net,
            arc_start,
            arc_net,
            arc_base,
            init_arrival,
            launch,
            order,
            capture,
            t_setup,
            t_hold,
        })
    }

    fn inputs(&self, id: InstId) -> &[NetId] {
        &self.in_net[self.in_start[id.index()] as usize..self.in_start[id.index() + 1] as usize]
    }

    fn arcs(&self, id: InstId) -> std::ops::Range<usize> {
        self.arc_start[id.index()] as usize..self.arc_start[id.index() + 1] as usize
    }

    /// Longest-path analysis at supply `v` (nominal temperature).
    pub fn analyze(&self, v: Voltage) -> TimingReport {
        let scale: Vec<f64> = self
            .cells
            .distinct()
            .iter()
            .map(|c| c.model().delay_scale(v))
            .collect();
        let delay_ps =
            |id: InstId, arc: usize| (self.arc_base[arc] * scale[self.cells.index(id)]).as_ps();

        // Per-net arrival time (ps) and the instance that set it.
        let mut arrival = self.init_arrival.clone();
        let mut from: Vec<Option<InstId>> = vec![None; arrival.len()];
        for &id in &self.launch {
            for arc in self.arcs(id) {
                let q = self.arc_net[arc].index();
                let clk_q = delay_ps(id, arc);
                if clk_q > arrival[q] {
                    arrival[q] = clk_q;
                    from[q] = Some(id);
                }
            }
        }
        for &id in &self.order {
            let in_arr = self
                .inputs(id)
                .iter()
                .map(|n| arrival[n.index()])
                .fold(0.0_f64, f64::max);
            for arc in self.arcs(id) {
                let out = self.arc_net[arc].index();
                let t = in_arr + delay_ps(id, arc);
                if t > arrival[out] {
                    arrival[out] = t;
                    from[out] = Some(id);
                }
            }
        }

        let mut worst = 0.0_f64;
        let mut worst_net: Option<NetId> = None;
        for &net in &self.capture {
            let a = arrival[net.index()];
            if a.is_finite() && a > worst {
                worst = a;
                worst_net = Some(net);
            }
        }

        // Trace the critical path backwards to a launch point.
        let mut critical_path = Vec::new();
        let mut cursor = worst_net;
        while let Some(id) = cursor.and_then(|net| from[net.index()]) {
            critical_path.push(id);
            // Predecessor: the input of `id` with max arrival.
            cursor = if self.cells.cell(id).kind().is_sequential() {
                None
            } else {
                self.inputs(id)
                    .iter()
                    .copied()
                    .filter(|n| arrival[n.index()].is_finite())
                    .max_by(|a, b| arrival[a.index()].total_cmp(&arrival[b.index()]))
            };
        }
        critical_path.reverse();

        let t_eval = Time::from_ps(worst);
        TimingReport {
            voltage: v,
            t_eval,
            t_setup: self.t_setup,
            t_hold: self.t_hold,
            min_period: t_eval + self.t_setup,
            critical_path,
        }
    }
}

/// Maximum operating frequency of `nl` at supply `v`.
///
/// # Errors
///
/// Propagates [`analyze`]'s errors.
pub fn f_max(nl: &Netlist, lib: &Library, v: Voltage) -> Result<Frequency, StaError> {
    Ok(analyze(nl, lib, v)?.f_max())
}

#[cfg(test)]
mod tests {
    use super::*;
    use scpg_liberty::Library;

    fn lib() -> Library {
        Library::ninety_nm()
    }

    /// inv chain of length n between an input and an output port.
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
    fn analyze_limited_refuses_oversized_designs() {
        let lib = lib();
        let v = Voltage::from_mv(600.0);
        let nl = chain(8);
        let err = analyze_limited(&nl, &lib, v, &StaLimits { max_instances: 4 })
            .expect_err("8 > 4 must refuse");
        assert_eq!(
            err,
            StaError::TooLarge {
                instances: 8,
                limit: 4
            }
        );
        // Within limits the result is the plain analysis, bit-identical.
        let limited = analyze_limited(&nl, &lib, v, &StaLimits::default()).unwrap();
        assert_eq!(limited, analyze(&nl, &lib, v).unwrap());
    }

    #[test]
    fn longer_chains_take_longer() {
        let lib = lib();
        let v = Voltage::from_mv(600.0);
        let t4 = analyze(&chain(4), &lib, v).unwrap().t_eval;
        let t8 = analyze(&chain(8), &lib, v).unwrap().t_eval;
        assert!(t8.as_ps() > 1.9 * t4.as_ps(), "{t4} vs {t8}");
    }

    #[test]
    fn critical_path_is_reported_in_order() {
        let lib = lib();
        let nl = chain(5);
        let r = analyze(&nl, &lib, Voltage::from_mv(600.0)).unwrap();
        assert_eq!(r.critical_path.len(), 5);
        let names: Vec<&str> = r
            .critical_path
            .iter()
            .map(|&id| nl.instance(id).name())
            .collect();
        assert_eq!(names, ["u0", "u1", "u2", "u3", "u4"]);
    }

    #[test]
    fn flop_to_flop_path_includes_clk_q_and_setup() {
        let lib = lib();
        let mut nl = Netlist::new("t");
        let clk = nl.add_input("clk");
        let d = nl.add_input("d");
        let q1 = nl.add_fresh_net();
        let n1 = nl.add_fresh_net();
        let q2 = nl.add_output("q2");
        nl.add_instance("ff1", "DFF_X1", &[d, clk, q1]).unwrap();
        nl.add_instance("inv", "INV_X1", &[q1, n1]).unwrap();
        nl.add_instance("ff2", "DFF_X1", &[n1, clk, q2]).unwrap();
        let r = analyze(&nl, &lib, Voltage::from_mv(600.0)).unwrap();
        assert!(r.t_setup.as_ps() > 0.0, "flop endpoints impose setup");
        assert!(r.t_hold.as_ps() > 0.0);
        // Path = clk→q + inv > inv alone.
        let inv_only = analyze(&chain(1), &lib, Voltage::from_mv(600.0)).unwrap();
        assert!(r.t_eval.as_ps() > inv_only.t_eval.as_ps());
        assert!(r.min_period.as_ps() > r.t_eval.as_ps());
    }

    #[test]
    fn lower_supply_means_lower_fmax() {
        let lib = lib();
        let nl = chain(16);
        let f6 = f_max(&nl, &lib, Voltage::from_mv(600.0)).unwrap();
        let f3 = f_max(&nl, &lib, Voltage::from_mv(310.0)).unwrap();
        let ratio = f6 / f3;
        assert!(
            (4.0..10.0).contains(&ratio),
            "0.6 V / 0.31 V f_max ratio {ratio:.2} (calibration band)"
        );
    }

    #[test]
    fn combinational_loop_is_detected() {
        let lib = lib();
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let n1 = nl.add_net("loop1");
        let n2 = nl.add_net("loop2");
        let y = nl.add_output("y");
        nl.add_instance("u1", "NAND2_X1", &[a, n2, n1]).unwrap();
        nl.add_instance("u2", "INV_X1", &[n1, n2]).unwrap();
        nl.add_instance("u3", "INV_X1", &[n1, y]).unwrap();
        assert!(matches!(
            analyze(&nl, &lib, Voltage::from_mv(600.0)),
            Err(StaError::CombinationalLoop { .. })
        ));
    }

    #[test]
    fn flops_legally_break_cycles() {
        let lib = lib();
        let mut nl = Netlist::new("t");
        let clk = nl.add_input("clk");
        let q = nl.add_net("q");
        let nq = nl.add_net("nq");
        nl.add_instance("ff", "DFF_X1", &[nq, clk, q]).unwrap();
        nl.add_instance("inv", "INV_X1", &[q, nq]).unwrap();
        let r = analyze(&nl, &lib, Voltage::from_mv(600.0)).unwrap();
        assert!(r.t_eval.as_ps() > 0.0);
    }

    #[test]
    fn t_idle_shrinks_with_frequency() {
        let lib = lib();
        let nl = chain(8);
        let r = analyze(&nl, &lib, Voltage::from_mv(600.0)).unwrap();
        let slow = r.t_idle(Frequency::from_khz(10.0));
        let fast = r.t_idle(r.f_max());
        assert!(slow.as_us() > 99.0, "10 kHz cycle is nearly all idle");
        assert!(fast.as_ps() < 1.0, "no idle at f_max");
    }
}
