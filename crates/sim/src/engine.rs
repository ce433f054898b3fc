//! The event queue and evaluation engine.
//!
//! The hot path works exclusively on the flat arrays of a
//! [`CompiledNetlist`] (see [`crate::compile`]) and an indexed
//! [`TimeWheel`](crate::wheel) event queue. Compilation is separable from
//! simulation: [`Simulator::new`] compiles and owns, while
//! [`Simulator::with_compiled`] borrows a shared, pre-compiled image so
//! frequency sweeps and parallel vector-group replays skip recompilation.
//!
//! More than half of what gate evaluation schedules drives a net to the
//! value it already holds while nothing else is pending for it. Such a
//! **no-op** event could only ever be popped, counted and found to change
//! nothing, so it never enters the wheel: the engine parks it in a dense
//! per-net list and settles its count exactly as the queue would have —
//! counted in the `run_until` call whose deadline covers it, or not at
//! all if a newer schedule for the net supersedes it first.

use scpg_liberty::{CellKind, Library, Logic, PvtCorner, SequentialKind};
use scpg_netlist::{NetId, Netlist, NetlistError};
use scpg_waveform::{Activity, ActivityBuilder, VcdWriter};

use crate::compile::{CompiledNetlist, MAX_INPUTS, MAX_OUTPUTS};
use crate::counters::{self, SimCounters};
use crate::wheel::{Event, TimeWheel};

/// Simulator configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Supply/temperature corner used to compute cell delays.
    pub corner: PvtCorner,
    /// Bin width for windowed activity (`None` disables windowing).
    pub window_ps: Option<u64>,
    /// Record a VCD of every net.
    pub vcd: bool,
    /// Delay from `SLEEP` rising to the virtual rail reading as collapsed.
    ///
    /// In silicon this is set by the domain's leakage discharging
    /// `C_VDDV`; the flow obtains it from the analog solver. The default
    /// is a conservative few nanoseconds.
    pub collapse_delay_ps: u64,
    /// Delay from `SLEEP` falling to the rail reading as restored
    /// (`T_PGStart` in the paper's Fig. 4).
    pub restore_delay_ps: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            corner: PvtCorner::default(),
            window_ps: None,
            vcd: false,
            collapse_delay_ps: 2_000,
            restore_delay_ps: 1_000,
        }
    }
}

/// Results of a finished simulation run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Per-net switching activity.
    pub activity: Activity,
    /// The VCD text, when [`SimConfig::vcd`] was enabled.
    pub vcd: Option<String>,
    /// Final simulation time in picoseconds.
    pub end_ps: u64,
}

/// [`Simulator::pending`] marker: the net's latest event has been popped
/// (or the net was never scheduled).
const SETTLED: u32 = u32::MAX;
/// [`Simulator::pending`] marker: the net's latest event is in the wheel.
const QUEUED: u32 = u32::MAX - 1;

/// An event that leaves its net unchanged, kept out of the wheel.
#[derive(Debug, Clone, Copy)]
struct NoOp {
    net: u32,
    time: u64,
}

pub(crate) fn tag_of(v: Logic) -> u8 {
    match v {
        Logic::Zero => 0,
        Logic::One => 1,
        Logic::X => 2,
        Logic::Z => 3,
    }
}

pub(crate) fn untag(t: u8) -> Logic {
    match t {
        0 => Logic::Zero,
        1 => Logic::One,
        2 => Logic::X,
        _ => Logic::Z,
    }
}

/// Owned-or-borrowed compiled netlist, so `Simulator::new` keeps its old
/// self-contained signature while sweeps share one compilation.
#[derive(Debug)]
enum Compiled<'a> {
    Owned(Box<CompiledNetlist>),
    Shared(&'a CompiledNetlist),
}

/// An event-driven simulator bound to one compiled netlist.
#[derive(Debug)]
pub struct Simulator<'a> {
    compiled: Compiled<'a>,
    values: Vec<Logic>,
    flop_state: Vec<Logic>,
    /// Inertial-delay bookkeeping: only the most recently scheduled event
    /// per net is allowed to fire, so pulses shorter than the driving
    /// cell's delay are filtered exactly as a real gate filters them.
    latest_event: Vec<u64>,
    /// Where each net's latest scheduled event lives: [`SETTLED`] (popped
    /// or never scheduled), [`QUEUED`] in the wheel, or otherwise the
    /// index of its pending no-op in `noops`.
    pending: Vec<u32>,
    /// Pending no-op events, one per net at most (see the module docs).
    noops: Vec<NoOp>,
    /// Latest time of a superseded, uncounted no-op. A heap queue would
    /// still hold it as a stale entry until then, so the design is not
    /// quiet before it.
    stale_until: u64,
    /// `seq` of the event being applied inside `run_until`; 0 between calls.
    now_seq: u64,
    wheel: TimeWheel,
    seq: u64,
    time: u64,
    rail_up: bool,
    events_processed: u64,
    gate_evals: u64,
    /// Process-global totals already credited for this run, so each
    /// `run_until` flushes only the delta.
    flushed: SimCounters,
    activity: ActivityBuilder,
    vcd: Option<VcdWriter>,
    config: SimConfig,
}

impl<'a> Simulator<'a> {
    /// Compiles `nl` against `lib` and prepares an all-`X` initial state.
    ///
    /// Delays are evaluated at `config.corner`. When running many
    /// simulations of the same netlist at one corner, compile once with
    /// [`CompiledNetlist::compile`] and use [`Simulator::with_compiled`]
    /// instead.
    ///
    /// # Errors
    ///
    /// Returns a [`NetlistError`] if the netlist does not resolve against
    /// the library.
    pub fn new(nl: &'a Netlist, lib: &Library, config: SimConfig) -> Result<Self, NetlistError> {
        let compiled = CompiledNetlist::compile(nl, lib, config.corner)?;
        Ok(Self::build(Compiled::Owned(Box::new(compiled)), config))
    }

    /// Binds a fresh all-`X` simulation state to a shared pre-compiled
    /// netlist, skipping connectivity resolution and delay evaluation.
    ///
    /// `config.corner` is ignored for delays — they were baked in at
    /// compile time from [`CompiledNetlist::corner`].
    pub fn with_compiled(compiled: &'a CompiledNetlist, config: SimConfig) -> Self {
        Self::build(Compiled::Shared(compiled), config)
    }

    fn build(compiled: Compiled<'a>, config: SimConfig) -> Self {
        let c = match &compiled {
            Compiled::Owned(b) => &**b,
            Compiled::Shared(r) => *r,
        };
        let num_nets = c.num_nets();
        let num_cells = c.num_cells();
        let vcd = config.vcd.then(|| {
            let names: Vec<&str> = c.net_names.iter().map(String::as_str).collect();
            VcdWriter::new(&c.design_name, &names)
        });
        let activity = ActivityBuilder::new(num_nets, config.window_ps);
        let mut sim = Self {
            compiled,
            values: vec![Logic::X; num_nets],
            flop_state: vec![Logic::X; num_cells],
            latest_event: vec![0; num_nets],
            pending: vec![SETTLED; num_nets],
            noops: Vec::new(),
            stale_until: 0,
            now_seq: 0,
            wheel: TimeWheel::new(),
            seq: 0,
            time: 0,
            rail_up: true,
            events_processed: 0,
            gate_evals: 0,
            flushed: SimCounters::default(),
            activity,
            vcd,
            config,
        };
        // Ties and other zero-input cells drive their constants at t=0.
        for k in 0..sim.c().tie_cells.len() {
            let idx = sim.c().tie_cells[k] as usize;
            sim.evaluate_cell(idx);
        }
        sim
    }

    /// The compiled netlist driving this simulation.
    #[inline]
    fn c(&self) -> &CompiledNetlist {
        match &self.compiled {
            Compiled::Owned(b) => b,
            Compiled::Shared(r) => r,
        }
    }

    /// Current simulation time in picoseconds.
    pub fn time_ps(&self) -> u64 {
        self.time
    }

    /// `true` while the virtual rail is powered.
    pub fn rail_up(&self) -> bool {
        self.rail_up
    }

    /// Total live events processed so far, no-op events included (the
    /// engine-throughput denominator).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// This run's work so far: events, gate evaluations, time-wheel
    /// advances and overflow promotions.
    pub fn counters(&self) -> SimCounters {
        SimCounters {
            events: self.events_processed,
            gate_evals: self.gate_evals,
            wheel_advances: self.wheel.advances,
            wheel_overflows: self.wheel.overflows,
        }
    }

    /// The current value of a net.
    pub fn value(&self, net: NetId) -> Logic {
        self.values[net.index()]
    }

    /// Drives a primary input at the current time.
    pub fn set_input(&mut self, net: NetId, value: Logic) {
        self.schedule(self.time, net.index() as u32, value);
    }

    /// Drives a primary input looked up by name.
    ///
    /// # Panics
    ///
    /// Panics if no net has this name.
    pub fn set_input_by_name(&mut self, name: &str, value: Logic) {
        let net = self
            .c()
            .net_by_name(name)
            .unwrap_or_else(|| panic!("no net named `{name}`"));
        self.set_input(net, value);
    }

    fn schedule(&mut self, time: u64, net: u32, value: Logic) {
        let n = net as usize;
        let queued = match self.pending[n] {
            QUEUED => true,
            SETTLED => false,
            k => {
                self.supersede_noop(k as usize);
                false
            }
        };
        self.seq += 1;
        self.latest_event[n] = self.seq;
        // With nothing in flight for the net, its value cannot change
        // before this event fires, so an equal value would be a no-op.
        if !queued && self.values[n] == value {
            self.pending[n] = self.noops.len() as u32;
            self.noops.push(NoOp { net, time });
            return;
        }
        self.pending[n] = QUEUED;
        self.wheel.push(Event {
            time,
            seq: self.seq,
            net,
            value_tag: tag_of(value),
        });
    }

    /// Drops pending no-op `k`, whose net is about to be scheduled again.
    /// A queue would already have popped (and counted) it if it sorts
    /// before the event being applied; otherwise it would linger there as
    /// a stale entry until its time.
    fn supersede_noop(&mut self, k: usize) {
        let NoOp { net, time } = self.noops[k];
        let seq = self.latest_event[net as usize];
        if self.now_seq != 0 && (time, seq) < (self.time, self.now_seq) {
            self.events_processed += 1;
        } else {
            self.stale_until = self.stale_until.max(time);
        }
        self.remove_noop(k);
    }

    fn remove_noop(&mut self, k: usize) {
        let gone = self.noops.swap_remove(k);
        self.pending[gone.net as usize] = SETTLED;
        if let Some(moved) = self.noops.get(k) {
            self.pending[moved.net as usize] = k as u32;
        }
    }

    /// Runs until the queue is empty or `deadline_ps` is reached, whichever
    /// comes first. Returns the number of processed events.
    pub fn run_until(&mut self, deadline_ps: u64) -> u64 {
        let start = self.events_processed;
        while let Some(ev) = self.wheel.pop_le(deadline_ps) {
            // Inertial filtering: a newer scheduled value for this net
            // supersedes (and swallows) this one.
            if self.latest_event[ev.net as usize] != ev.seq {
                continue;
            }
            self.pending[ev.net as usize] = SETTLED;
            self.time = ev.time;
            self.now_seq = ev.seq;
            self.apply(ev.net, untag(ev.value_tag));
            self.events_processed += 1;
        }
        self.now_seq = 0;
        // Every no-op the deadline covers fired in this call.
        let mut k = 0;
        while k < self.noops.len() {
            if self.noops[k].time <= deadline_ps {
                self.events_processed += 1;
                self.remove_noop(k);
            } else {
                k += 1;
            }
        }
        self.time = self.time.max(deadline_ps);
        // Credit this run's new work to the process-wide totals in one
        // batched add per call (never per event).
        let now = self.counters();
        counters::flush(now.delta_since(self.flushed));
        self.flushed = now;
        self.events_processed - start
    }

    /// Runs until no events remain, up to `max_ps`. Returns `true` when
    /// the design settled (queue drained) before the horizon.
    pub fn run_until_quiet(&mut self, max_ps: u64) -> bool {
        self.run_until(max_ps);
        self.wheel.is_empty() && self.noops.is_empty() && self.stale_until <= max_ps
    }

    fn apply(&mut self, net: u32, value: Logic) {
        let idx = net as usize;
        let old = self.values[idx];
        if old == value {
            return;
        }
        self.values[idx] = value;
        self.activity.record(self.time, idx, value);
        if let Some(v) = &mut self.vcd {
            v.change(self.time, idx, value);
        }
        // A virtual-rail transition switches the whole gated domain.
        if self.c().rail_nets[idx] {
            if value == Logic::One {
                self.rail_up = true;
                self.reevaluate_gated_domain();
            } else {
                self.rail_up = false;
                self.corrupt_gated_domain();
            }
        }
        // Notify readers straight out of the CSR arrays — no fanout-list
        // clone on the hot path.
        let (start, end) = self.c().readers(idx);
        for r in start..end {
            let cell = self.c().reader_cells[r] as usize;
            self.on_input_change(cell, net, old, value);
        }
    }

    fn on_input_change(&mut self, idx: usize, net: u32, old: Logic, new: Logic) {
        let kind = self.c().kinds[idx];
        match kind.sequential() {
            Some(SequentialKind::DffRising) => {
                // Pins: D, CK.
                let ins = self.c().inputs(idx);
                let (d_net, ck_net) = (ins[0], ins[1]);
                if ck_net == net && old != Logic::One && new == Logic::One {
                    let d = self.values[d_net as usize];
                    self.update_flop(idx, d);
                }
            }
            Some(SequentialKind::DffRisingResetN) => {
                // Pins: D, CK, RN.
                let ins = self.c().inputs(idx);
                let (d_net, ck_net, rn_net) = (ins[0], ins[1], ins[2]);
                let rn = self.values[rn_net as usize];
                if rn_net == net && new == Logic::Zero {
                    self.update_flop(idx, Logic::Zero);
                } else if rn != Logic::Zero
                    && ck_net == net
                    && old != Logic::One
                    && new == Logic::One
                {
                    let d = self.values[d_net as usize];
                    let d = if rn == Logic::One { d } else { Logic::X };
                    self.update_flop(idx, d);
                }
            }
            Some(SequentialKind::LatchHigh) => {
                // Pins: D, EN. Transparent while EN is high.
                let ins = self.c().inputs(idx);
                let (d_net, en_net) = (ins[0], ins[1]);
                let en = self.values[en_net as usize];
                if en == Logic::One {
                    let d = self.values[d_net as usize];
                    self.update_flop(idx, d);
                } else if en == Logic::X {
                    self.update_flop(idx, Logic::X);
                }
            }
            None => {
                if kind == CellKind::Header {
                    self.on_header_change(idx, new);
                } else {
                    self.evaluate_cell(idx);
                }
            }
        }
    }

    fn update_flop(&mut self, idx: usize, q: Logic) {
        if self.flop_state[idx] == q {
            return;
        }
        self.flop_state[idx] = q;
        let out = self.c().outputs(idx)[0];
        let delay = self.c().delays(idx)[0];
        self.schedule(self.time + delay, out, q);
    }

    fn evaluate_cell(&mut self, idx: usize) {
        self.gate_evals += 1;
        let c = self.c();
        let kind = c.kinds[idx];
        let gated_down = c.gated[idx] && !self.rail_up;
        // Snapshot pins into stack buffers (NAND4 is the widest cell) so
        // the compiled borrow ends before scheduling mutates `self`.
        let in_nets = c.inputs(idx);
        let n_in = in_nets.len();
        let mut ins = [Logic::X; MAX_INPUTS];
        for (slot, &n) in ins.iter_mut().zip(in_nets) {
            *slot = self.values[n as usize];
        }
        let out_nets = c.outputs(idx);
        let n_out = out_nets.len();
        let mut onet = [0u32; MAX_OUTPUTS];
        let mut odel = [0u64; MAX_OUTPUTS];
        onet[..n_out].copy_from_slice(out_nets);
        odel[..n_out].copy_from_slice(c.delays(idx));

        let outs = kind.eval(&ins[..n_in]);
        for (pos, &v) in outs.as_slice().iter().enumerate() {
            let v = if gated_down { Logic::X } else { v };
            self.schedule(self.time + odel[pos], onet[pos], v);
        }
    }

    fn on_header_change(&mut self, idx: usize, sleep: Logic) {
        // The rail *net* transition (scheduled here) is what actually
        // corrupts or revives the gated domain, so in-flight events and
        // the rail state can never disagree.
        let rail_net = self.c().outputs(idx)[0];
        match sleep {
            // Released: the domain's leakage discharges C_VDDV; the rail
            // reads as collapsed after the decay delay.
            Logic::One => self.schedule(
                self.time + self.config.collapse_delay_ps,
                rail_net,
                Logic::X,
            ),
            // Re-driven: reads as a solid 1 after T_PGStart (Fig. 4).
            Logic::Zero => self.schedule(
                self.time + self.config.restore_delay_ps,
                rail_net,
                Logic::One,
            ),
            _ => self.schedule(self.time + 1, rail_net, Logic::X),
        }
    }

    fn corrupt_gated_domain(&mut self) {
        for k in 0..self.c().gated_cells.len() {
            let idx = self.c().gated_cells[k] as usize;
            let c = self.c();
            let out_nets = c.outputs(idx);
            let n_out = out_nets.len();
            let mut onet = [0u32; MAX_OUTPUTS];
            let mut odel = [0u64; MAX_OUTPUTS];
            onet[..n_out].copy_from_slice(out_nets);
            odel[..n_out].copy_from_slice(c.delays(idx));
            for pos in 0..n_out {
                self.schedule(self.time + odel[pos], onet[pos], Logic::X);
            }
        }
    }

    fn reevaluate_gated_domain(&mut self) {
        // The rail is up again, so a plain evaluation schedules each
        // gated cell's true outputs.
        for k in 0..self.c().gated_cells.len() {
            let idx = self.c().gated_cells[k] as usize;
            self.evaluate_cell(idx);
        }
    }

    /// Finishes the run and returns the recorded activity/VCD.
    pub fn finish(self) -> SimResult {
        let end = self.time;
        SimResult {
            activity: self.activity.finish(end),
            vcd: self.vcd.map(|v| v.finish(end)),
            end_ps: end,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scpg_liberty::Library;
    use scpg_netlist::{Domain, NetId, Netlist};

    fn lib() -> Library {
        Library::ninety_nm()
    }

    #[test]
    fn combinational_chain_propagates_with_delay() {
        let lib = lib();
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let n1 = nl.add_fresh_net();
        let y = nl.add_output("y");
        nl.add_instance("u1", "INV_X1", &[a, n1]).unwrap();
        nl.add_instance("u2", "INV_X1", &[n1, y]).unwrap();
        let mut sim = Simulator::new(&nl, &lib, SimConfig::default()).unwrap();
        sim.set_input(a, Logic::Zero);
        assert!(sim.run_until_quiet(100_000));
        assert_eq!(sim.value(y), Logic::Zero);
        assert_eq!(sim.value(n1), Logic::One);
        assert!(sim.time_ps() > 0, "propagation must consume time");
    }

    #[test]
    fn glitches_are_simulated() {
        // XOR of a signal with a delayed copy glitches on every edge.
        let lib = lib();
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let d1 = nl.add_fresh_net();
        let d2 = nl.add_fresh_net();
        let y = nl.add_output("y");
        nl.add_instance("b1", "BUF_X1", &[a, d1]).unwrap();
        nl.add_instance("b2", "BUF_X1", &[d1, d2]).unwrap();
        nl.add_instance("x", "XOR2_X1", &[a, d2, y]).unwrap();
        let mut sim = Simulator::new(&nl, &lib, SimConfig::default()).unwrap();
        sim.set_input(a, Logic::Zero);
        sim.run_until_quiet(1_000_000);
        sim.set_input(a, Logic::One);
        sim.run_until_quiet(2_000_000);
        let res = sim.finish();
        // y pulses 0→1→0: at least 2 toggles beyond initialisation.
        let yact = res.activity.net(y.index());
        assert!(yact.toggles >= 2, "expected a glitch, got {yact:?}");
    }

    #[test]
    fn dff_samples_on_rising_edge_only() {
        let lib = lib();
        let mut nl = Netlist::new("t");
        let d = nl.add_input("d");
        let ck = nl.add_input("ck");
        let q = nl.add_output("q");
        nl.add_instance("ff", "DFF_X1", &[d, ck, q]).unwrap();
        let mut sim = Simulator::new(&nl, &lib, SimConfig::default()).unwrap();
        sim.set_input(ck, Logic::Zero);
        sim.set_input(d, Logic::One);
        sim.run_until_quiet(10_000);
        assert_eq!(sim.value(q), Logic::X, "no edge yet");
        sim.set_input(ck, Logic::One);
        sim.run_until_quiet(20_000);
        assert_eq!(sim.value(q), Logic::One, "sampled on posedge");
        sim.set_input(d, Logic::Zero);
        sim.run_until_quiet(30_000);
        assert_eq!(sim.value(q), Logic::One, "D changes do not pass through");
        sim.set_input(ck, Logic::Zero);
        sim.run_until_quiet(40_000);
        assert_eq!(sim.value(q), Logic::One, "negedge does not sample");
    }

    #[test]
    fn dffr_resets_asynchronously() {
        let lib = lib();
        let mut nl = Netlist::new("t");
        let d = nl.add_input("d");
        let ck = nl.add_input("ck");
        let rn = nl.add_input("rn");
        let q = nl.add_output("q");
        nl.add_instance("ff", "DFFR_X1", &[d, ck, rn, q]).unwrap();
        let mut sim = Simulator::new(&nl, &lib, SimConfig::default()).unwrap();
        sim.set_input(rn, Logic::Zero);
        sim.set_input(ck, Logic::Zero);
        sim.set_input(d, Logic::One);
        sim.run_until_quiet(10_000);
        assert_eq!(sim.value(q), Logic::Zero, "async reset");
        // Clock while in reset: stays 0.
        sim.set_input(ck, Logic::One);
        sim.run_until_quiet(20_000);
        assert_eq!(sim.value(q), Logic::Zero);
        // Release reset, clock in the 1.
        sim.set_input(rn, Logic::One);
        sim.set_input(ck, Logic::Zero);
        sim.run_until_quiet(30_000);
        sim.set_input(ck, Logic::One);
        sim.run_until_quiet(40_000);
        assert_eq!(sim.value(q), Logic::One);
    }

    #[test]
    fn latch_is_transparent_while_enabled() {
        let lib = lib();
        let mut nl = Netlist::new("t");
        let d = nl.add_input("d");
        let en = nl.add_input("en");
        let q = nl.add_output("q");
        nl.add_instance("lt", "LATCH_X1", &[d, en, q]).unwrap();
        let mut sim = Simulator::new(&nl, &lib, SimConfig::default()).unwrap();
        sim.set_input(en, Logic::One);
        sim.set_input(d, Logic::One);
        sim.run_until_quiet(10_000);
        assert_eq!(sim.value(q), Logic::One);
        sim.set_input(d, Logic::Zero);
        sim.run_until_quiet(20_000);
        assert_eq!(sim.value(q), Logic::Zero, "transparent");
        sim.set_input(en, Logic::Zero);
        sim.run_until_quiet(25_000);
        sim.set_input(d, Logic::One);
        sim.run_until_quiet(30_000);
        assert_eq!(sim.value(q), Logic::Zero, "opaque when disabled");
    }

    #[test]
    fn header_collapse_corrupts_gated_cells_and_restore_recovers() {
        let lib = lib();
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let sleep = nl.add_input("sleep");
        let vddv = nl.add_net("vddv");
        let n1 = nl.add_fresh_net();
        let y = nl.add_output("y");
        nl.add_instance("hdr", "HDR_X2", &[sleep, vddv]).unwrap();
        let g = nl.add_instance("g", "INV_X1", &[a, n1]).unwrap();
        nl.add_instance("k", "INV_X1", &[n1, y]).unwrap();
        nl.set_domain(g, Domain::Gated);

        let mut sim = Simulator::new(&nl, &lib, SimConfig::default()).unwrap();
        sim.set_input(sleep, Logic::Zero);
        sim.set_input(a, Logic::Zero);
        sim.run_until_quiet(50_000);
        assert_eq!(sim.value(n1), Logic::One);
        assert_eq!(sim.value(vddv), Logic::One);

        sim.set_input(sleep, Logic::One);
        sim.run_until_quiet(100_000);
        assert_eq!(sim.value(n1), Logic::X, "gated output corrupted");
        assert_eq!(sim.value(vddv), Logic::X, "rail collapsed");
        assert_eq!(sim.value(y), Logic::X, "no isolation: X escapes");

        sim.set_input(sleep, Logic::Zero);
        sim.run_until_quiet(200_000);
        assert_eq!(sim.value(vddv), Logic::One, "rail restored");
        assert_eq!(sim.value(n1), Logic::One, "gated logic re-evaluated");
        assert_eq!(sim.value(y), Logic::Zero);
    }

    #[test]
    fn isolation_blocks_x_during_gating() {
        let lib = lib();
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let sleep = nl.add_input("sleep");
        let vddv = nl.add_net("vddv");
        let n1 = nl.add_fresh_net();
        let iso = nl.add_fresh_net();
        let y = nl.add_output("y");
        nl.add_instance("hdr", "HDR_X2", &[sleep, vddv]).unwrap();
        let g = nl.add_instance("g", "INV_X1", &[a, n1]).unwrap();
        nl.set_domain(g, Domain::Gated);
        // Fig. 3 control: ISO = SLEEP-clock OR rail-not-up.
        nl.add_instance("ctl", "ISOCTL_X1", &[sleep, vddv, iso])
            .unwrap();
        nl.add_instance("clamp", "ISO_AND_X1", &[n1, iso, y])
            .unwrap();

        let mut sim = Simulator::new(&nl, &lib, SimConfig::default()).unwrap();
        sim.set_input(sleep, Logic::Zero);
        sim.set_input(a, Logic::Zero);
        sim.run_until_quiet(100_000);
        assert_eq!(sim.value(y), Logic::One, "transparent while powered");

        sim.set_input(sleep, Logic::One);
        sim.run_until_quiet(200_000);
        assert_eq!(sim.value(n1), Logic::X, "domain corrupted internally");
        assert_eq!(sim.value(y), Logic::Zero, "clamped, X never escapes");

        sim.set_input(sleep, Logic::Zero);
        sim.run_until_quiet(300_000);
        assert_eq!(sim.value(y), Logic::One, "released after rail restore");
    }

    #[test]
    fn activity_counts_real_toggles_only() {
        let lib = lib();
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let y = nl.add_output("y");
        nl.add_instance("u", "INV_X1", &[a, y]).unwrap();
        let mut sim = Simulator::new(&nl, &lib, SimConfig::default()).unwrap();
        sim.set_input(a, Logic::Zero);
        sim.run_until_quiet(10_000);
        for i in 0..4 {
            sim.set_input(a, if i % 2 == 0 { Logic::One } else { Logic::Zero });
            sim.run_until_quiet(10_000 * (i + 2));
        }
        let res = sim.finish();
        assert_eq!(res.activity.net(a.index()).toggles, 4);
        assert_eq!(res.activity.net(y.index()).toggles, 4);
    }

    #[test]
    fn vcd_output_parses_back() {
        let lib = lib();
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let y = nl.add_output("y");
        nl.add_instance("u", "INV_X1", &[a, y]).unwrap();
        let cfg = SimConfig {
            vcd: true,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(&nl, &lib, cfg).unwrap();
        sim.set_input(a, Logic::One);
        sim.run_until_quiet(10_000);
        let res = sim.finish();
        let dump = scpg_waveform::parse_vcd(res.vcd.as_deref().unwrap()).unwrap();
        assert!(dump.names.contains(&"a".to_string()));
        assert!(!dump.changes.is_empty());
    }

    #[test]
    fn shared_compiled_netlist_matches_owned_compilation() {
        let lib = lib();
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let n1 = nl.add_fresh_net();
        let y = nl.add_output("y");
        nl.add_instance("u1", "NAND2_X1", &[a, n1, y]).unwrap();
        nl.add_instance("u2", "INV_X1", &[a, n1]).unwrap();

        let compiled = CompiledNetlist::compile(&nl, &lib, SimConfig::default().corner).unwrap();

        let run = |mut sim: Simulator<'_>| {
            sim.set_input(a, Logic::Zero);
            sim.run_until_quiet(50_000);
            sim.set_input(a, Logic::One);
            sim.run_until_quiet(100_000);
            sim.finish()
        };
        let owned = run(Simulator::new(&nl, &lib, SimConfig::default()).unwrap());
        let shared = run(Simulator::with_compiled(&compiled, SimConfig::default()));
        assert_eq!(owned.end_ps, shared.end_ps);
        for n in 0..nl.nets().len() {
            assert_eq!(owned.activity.net(n), shared.activity.net(n), "net {n}");
        }
    }

    #[test]
    fn events_processed_counts_applied_events() {
        let lib = lib();
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let y = nl.add_output("y");
        nl.add_instance("u", "INV_X1", &[a, y]).unwrap();
        let mut sim = Simulator::new(&nl, &lib, SimConfig::default()).unwrap();
        assert_eq!(sim.events_processed(), 0);
        sim.set_input(a, Logic::One);
        sim.run_until_quiet(10_000);
        // At least the input edge and the inverter response.
        assert!(sim.events_processed() >= 2);
    }

    #[test]
    fn work_counters_track_run_and_flush_to_process_totals() {
        let lib = lib();
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let y = nl.add_output("y");
        nl.add_instance("u", "INV_X1", &[a, y]).unwrap();
        let before = crate::counters::totals();
        let mut sim = Simulator::new(&nl, &lib, SimConfig::default()).unwrap();
        sim.set_input(a, Logic::One);
        // Far-future stimulus exercises the overflow-promotion counter
        // (the wheel span is 8192 ps).
        sim.set_input(a, Logic::One);
        sim.run_until_quiet(10_000);
        sim.set_input(a, Logic::Zero);
        sim.run_until_quiet(20_000);
        let run = sim.counters();
        assert_eq!(run.events, sim.events_processed());
        assert!(run.gate_evals >= 2, "{run:?}");
        assert!(run.wheel_advances >= 2, "{run:?}");
        let after = crate::counters::totals();
        let delta = after.delta_since(before);
        // Other tests run concurrently, so the process totals grew by
        // *at least* this run's work.
        assert!(delta.events >= run.events, "{delta:?} vs {run:?}");
        assert!(delta.gate_evals >= run.gate_evals);
        assert!(delta.wheel_advances >= run.wheel_advances);
    }

    /// `y = NAND(a, b)` settled with `a = b = 0`, so `y = 1` and a rising
    /// `b` re-drives `y` to the 1 it already holds: a no-op event.
    fn nand_with_noop_on_b(nl: &mut Netlist) -> (NetId, NetId, NetId) {
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_output("y");
        nl.add_instance("u", "NAND2_X1", &[a, b, y]).unwrap();
        (a, b, y)
    }

    #[test]
    fn superseded_noop_is_not_counted() {
        let lib = lib();
        let mut nl = Netlist::new("t");
        let (a, b, _) = nand_with_noop_on_b(&mut nl);
        let mut sim = Simulator::new(&nl, &lib, SimConfig::default()).unwrap();
        let mut rsim = crate::ReferenceSimulator::new(&nl, &lib, SimConfig::default()).unwrap();
        for &(net, v) in &[(a, Logic::Zero), (b, Logic::Zero)] {
            sim.set_input(net, v);
            rsim.set_input(net, v);
        }
        assert!(sim.run_until_quiet(10_000));
        assert!(rsim.run_until_quiet(10_000));
        let t = sim.time_ps();
        // `b` rises: `y` gets a pending no-op one gate delay out ...
        sim.set_input(b, Logic::One);
        rsim.set_input(b, Logic::One);
        assert_eq!(sim.run_until(t), rsim.run_until(t));
        assert_eq!(sim.noops.len(), 1, "the re-drive of y is parked");
        // ... and `a` rising drives `y` low before the no-op fires, so the
        // no-op is superseded and never counts.
        sim.set_input(a, Logic::One);
        rsim.set_input(a, Logic::One);
        // Between calls: a primary input re-driven to its own value and
        // then overridden at the same instant is not counted either.
        sim.set_input(b, Logic::One);
        rsim.set_input(b, Logic::One);
        sim.set_input(b, Logic::Zero);
        rsim.set_input(b, Logic::Zero);
        let got = sim.run_until(t + 10_000);
        assert_eq!(got, rsim.run_until(t + 10_000));
        assert!(sim.noops.is_empty());
        assert_eq!(sim.counters().events, sim.events_processed());
    }

    #[test]
    fn noop_counts_in_the_call_whose_deadline_covers_it() {
        let lib = lib();
        let mut nl = Netlist::new("t");
        let (a, b, y) = nand_with_noop_on_b(&mut nl);
        let mut sim = Simulator::new(&nl, &lib, SimConfig::default()).unwrap();
        sim.set_input(a, Logic::Zero);
        sim.set_input(b, Logic::Zero);
        assert!(sim.run_until_quiet(10_000));
        let t = sim.time_ps();
        let delay = sim.c().delays(0)[0];
        sim.set_input(b, Logic::One);
        assert_eq!(sim.run_until(t), 1, "only the edge on b");
        assert_eq!(sim.run_until(t + delay - 1), 0, "the no-op is not due");
        assert_eq!(sim.run_until(t + delay), 1, "the no-op fires on time");
        assert!(sim.noops.is_empty());
        assert_eq!(sim.value(y), Logic::One);
    }

    #[test]
    fn noop_superseded_after_its_time_counts_as_fired() {
        // `a` reaches the NAND through a buffer chain slower than the
        // NAND itself, so the no-op on `y` is due before `a` supersedes
        // it — within the same call, where a queue would already have
        // popped and counted it.
        let lib = lib();
        let mut nl = Netlist::new("t");
        let c = nl.add_input("c");
        let b = nl.add_input("b");
        let n1 = nl.add_fresh_net();
        let n2 = nl.add_fresh_net();
        let a = nl.add_fresh_net();
        let y = nl.add_output("y");
        nl.add_instance("u", "NAND2_X1", &[a, b, y]).unwrap();
        nl.add_instance("b1", "BUF_X1", &[c, n1]).unwrap();
        nl.add_instance("b2", "BUF_X1", &[n1, n2]).unwrap();
        nl.add_instance("b3", "BUF_X1", &[n2, a]).unwrap();
        let mut sim = Simulator::new(&nl, &lib, SimConfig::default()).unwrap();
        let mut rsim = crate::ReferenceSimulator::new(&nl, &lib, SimConfig::default()).unwrap();
        let nand = sim.c().delays(0)[0];
        let chain: u64 = (1..4).map(|i| sim.c().delays(i)[0]).sum();
        assert!(chain > nand, "chain {chain} ps vs NAND {nand} ps");
        for &(net, v) in &[(c, Logic::Zero), (b, Logic::Zero)] {
            sim.set_input(net, v);
            rsim.set_input(net, v);
        }
        assert!(sim.run_until_quiet(10_000));
        assert!(rsim.run_until_quiet(10_000));
        let t = sim.time_ps();
        sim.set_input(b, Logic::One);
        rsim.set_input(b, Logic::One);
        sim.set_input(c, Logic::One);
        rsim.set_input(c, Logic::One);
        // Edges on b and c, the no-op on y, three buffer outputs, y falls.
        assert_eq!(sim.run_until(t + 10_000), 7);
        assert_eq!(rsim.run_until(t + 10_000), 7);
        assert_eq!(sim.value(y), Logic::Zero);
    }

    #[test]
    fn noop_tied_in_time_with_its_superseder_counts_by_seq() {
        // `a` and `b` reach the NAND through matched buffers. `b` rises
        // first, parking a no-op on `y`; `a` rises exactly one NAND delay
        // later, so its buffered edge re-drives the NAND at the instant
        // the no-op is due. The no-op was scheduled first, so a queue pops
        // it first: it counts.
        let lib = lib();
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let a1 = nl.add_fresh_net();
        let b1 = nl.add_fresh_net();
        let y = nl.add_output("y");
        nl.add_instance("u", "NAND2_X1", &[a1, b1, y]).unwrap();
        nl.add_instance("ba", "BUF_X1", &[a, a1]).unwrap();
        nl.add_instance("bb", "BUF_X1", &[b, b1]).unwrap();
        for k in 0..4 {
            let out = nl.add_fresh_net();
            nl.add_instance(format!("ld{k}"), "INV_X1", &[y, out])
                .unwrap();
        }
        let mut sim = Simulator::new(&nl, &lib, SimConfig::default()).unwrap();
        let mut rsim = crate::ReferenceSimulator::new(&nl, &lib, SimConfig::default()).unwrap();
        let (nand, buf) = (sim.c().delays(0)[0], sim.c().delays(1)[0]);
        assert_eq!(buf, sim.c().delays(2)[0], "matched buffers");
        assert!(buf <= nand, "b1 must park the no-op before a is driven");
        for &(net, v) in &[(a, Logic::Zero), (b, Logic::Zero)] {
            sim.set_input(net, v);
            rsim.set_input(net, v);
        }
        assert!(sim.run_until_quiet(10_000));
        assert!(rsim.run_until_quiet(10_000));
        let t = sim.time_ps();
        sim.set_input(b, Logic::One);
        rsim.set_input(b, Logic::One);
        assert_eq!(sim.run_until(t + nand), rsim.run_until(t + nand));
        sim.set_input(a, Logic::One);
        rsim.set_input(a, Logic::One);
        // a, a1, the no-op on y, y falls, four inverter outputs rise.
        assert_eq!(sim.run_until(t + 10_000), 8);
        assert_eq!(rsim.run_until(t + 10_000), 8);
    }

    #[test]
    fn pending_noop_beyond_the_horizon_is_not_quiet() {
        let lib = lib();
        let mut nl = Netlist::new("t");
        let (a, b, _) = nand_with_noop_on_b(&mut nl);
        let mut sim = Simulator::new(&nl, &lib, SimConfig::default()).unwrap();
        sim.set_input(a, Logic::Zero);
        sim.set_input(b, Logic::Zero);
        assert!(sim.run_until_quiet(10_000));
        let t = sim.time_ps();
        let delay = sim.c().delays(0)[0];
        sim.set_input(b, Logic::One);
        assert!(!sim.run_until_quiet(t + delay - 1), "a no-op is still due");
        assert!(sim.wheel.is_empty(), "nothing else is in flight");
        assert!(sim.run_until_quiet(t + delay));
    }

    #[test]
    fn superseded_noop_keeps_the_design_busy_until_its_time() {
        // The rail sits at X, so SLEEP rising schedules a no-op collapse
        // 2 ns out. SLEEP falling 100 ps later schedules the restore at
        // 1.1 ns, superseding it. A heap would keep the stale collapse
        // queued until 2 ns, so the design is not quiet before then.
        let lib = lib();
        let mut nl = Netlist::new("t");
        let sleep = nl.add_input("sleep");
        let vddv = nl.add_net("vddv");
        nl.add_instance("hdr", "HDR_X2", &[sleep, vddv]).unwrap();
        let mut sim = Simulator::new(&nl, &lib, SimConfig::default()).unwrap();
        let mut rsim = crate::ReferenceSimulator::new(&nl, &lib, SimConfig::default()).unwrap();
        sim.set_input(sleep, Logic::One);
        rsim.set_input(sleep, Logic::One);
        assert_eq!(sim.run_until(100), rsim.run_until(100));
        assert_eq!(sim.noops.len(), 1);
        sim.set_input(sleep, Logic::Zero);
        rsim.set_input(sleep, Logic::Zero);
        for max in [1_500, 2_500] {
            let before = sim.events_processed();
            let quiet = sim.run_until_quiet(max);
            assert_eq!(sim.events_processed() - before, rsim.run_until(max));
            assert_eq!(quiet, rsim.run_until_quiet(max), "horizon {max}");
            assert_eq!(quiet, max == 2_500);
        }
        assert_eq!(sim.value(vddv), Logic::One);
    }

    #[test]
    fn far_future_events_count_as_overflow_promotions() {
        let lib = lib();
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let y = nl.add_output("y");
        nl.add_instance("u", "INV_X1", &[a, y]).unwrap();
        let mut sim = Simulator::new(&nl, &lib, SimConfig::default()).unwrap();
        sim.set_input(a, Logic::Zero);
        sim.run_until_quiet(10_000);
        // Schedule an input edge 1 µs out: beyond the 8192 ps window.
        sim.schedule(sim.time + 1_000_000, a.index() as u32, Logic::One);
        sim.run_until_quiet(2_000_000);
        assert!(sim.counters().wheel_overflows >= 1, "{:?}", sim.counters());
    }
}
