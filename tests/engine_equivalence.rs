//! Differential test of the production simulator (CSR layout, an
//! indexed time-wheel queue and no-op events kept out of it) against the
//! retained reference engine (Vec-of-cells plus a binary heap). The two
//! are driven call for call on randomly built registered circuits, at
//! several supply corners, with and without a power-gated domain, under
//! deadlines that cut through in-flight activity and inputs re-driven
//! within one gate delay. Every `run_until` return, every
//! `run_until_quiet` answer, every net value after every call and the
//! final activity record must agree. This is the integration-level
//! guarantee that the hot-path rewrites changed performance only, never
//! semantics.

use scpg_liberty::{Library, Logic, PvtCorner};
use scpg_netlist::{Domain, NetId, Netlist};
use scpg_rng::StdRng;
use scpg_sim::{
    run_settled, CompiledNetlist, EngineChoice, NetChange, PackedStimulus, Phase,
    ReferenceSimulator, SettledEngine, SimConfig, Simulator,
};
use scpg_synth::LogicBuilder;
use scpg_units::Voltage;

const PERIOD: u64 = 1_000_000;

/// Builds a random registered circuit over 4 data inputs: a cloud of
/// random gates and one registered output.
fn build_random(rng: &mut StdRng, lib: &Library) -> (Netlist, Vec<NetId>, NetId) {
    let mut b = LogicBuilder::new("rand", lib);
    let clk = b.input("clk");
    let rn = b.input("rst_n");
    let inputs: Vec<NetId> = (0..4).map(|i| b.input(&format!("in{i}"))).collect();
    let mut pool = inputs.clone();
    let n_gates = 5 + rng.index(35);
    for _ in 0..n_gates {
        let n = pool.len();
        let pick = |rng: &mut StdRng| pool[rng.index(n)];
        let out = match rng.index(5) {
            0 => {
                let a = pick(rng);
                b.not(a)
            }
            1 => {
                let (a, c) = (pick(rng), pick(rng));
                b.and(a, c)
            }
            2 => {
                let (a, c) = (pick(rng), pick(rng));
                b.or(a, c)
            }
            3 => {
                let (a, c) = (pick(rng), pick(rng));
                b.xor(a, c)
            }
            _ => {
                let (s, a, c) = (pick(rng), pick(rng), pick(rng));
                b.mux(s, a, c)
            }
        };
        pool.push(out);
    }
    let last = *pool.last().unwrap();
    let q = b.dff_r(last, clk, rn);
    b.output("q", q);
    (b.finish(), inputs, clk)
}

/// One cycle's stimulus: random values on the data inputs.
fn random_stimulus(rng: &mut StdRng, inputs: &[NetId]) -> Vec<(NetId, Logic)> {
    inputs
        .iter()
        .map(|&n| (n, Logic::from_bool(rng.below(2) == 1)))
        .collect()
}

/// Puts every gate of a [`build_random`] cloud in a header-switched
/// domain and clamps the register input through Fig. 3 isolation onto a
/// new output. Returns the `sleep` input.
fn gate_cloud(nl: &mut Netlist) -> NetId {
    let sleep = nl.add_input("sleep");
    let vddv = nl.add_net("vddv");
    let cloud: Vec<_> = nl
        .iter_instances()
        .filter(|(_, inst)| !inst.cell().starts_with("DFF"))
        .map(|(id, _)| id)
        .collect();
    let d = nl
        .iter_instances()
        .find(|(_, inst)| inst.cell().starts_with("DFF"))
        .map(|(_, inst)| inst.connections()[0])
        .expect("the circuit has a register");
    for id in cloud {
        nl.set_domain(id, Domain::Gated);
    }
    let iso = nl.add_fresh_net();
    let clamped = nl.add_output("clamped");
    nl.add_instance("hdr", "HDR_X2", &[sleep, vddv]).unwrap();
    nl.add_instance("isoctl", "ISOCTL_X1", &[sleep, vddv, iso])
        .unwrap();
    nl.add_instance("clamp", "ISO_AND_X1", &[d, iso, clamped])
        .unwrap();
    sleep
}

/// A config at supply `mv`, or the default corner for `None`.
fn config_at(mv: Option<f64>) -> SimConfig {
    SimConfig {
        corner: mv.map_or_else(PvtCorner::default, |mv| {
            PvtCorner::at_voltage(Voltage::from_mv(mv))
        }),
        ..SimConfig::default()
    }
}

fn flip(v: Logic) -> Logic {
    Logic::from_bool(v != Logic::One)
}

/// Both engines, driven call for call and compared after every call.
struct Lockstep<'a> {
    sim: Simulator<'a>,
    rsim: ReferenceSimulator<'a>,
    nets: usize,
    /// Sum of the production engine's `run_until` returns.
    events: u64,
    ctx: String,
}

impl<'a> Lockstep<'a> {
    fn new(nl: &'a Netlist, lib: &Library, config: SimConfig, ctx: String) -> Self {
        Self {
            sim: Simulator::new(nl, lib, config.clone()).unwrap(),
            rsim: ReferenceSimulator::new(nl, lib, config).unwrap(),
            nets: nl.nets().len(),
            events: 0,
            ctx,
        }
    }

    fn set(&mut self, net: NetId, v: Logic) {
        self.sim.set_input(net, v);
        self.rsim.set_input(net, v);
    }

    fn time(&self) -> u64 {
        self.sim.time_ps()
    }

    fn run(&mut self, deadline: u64) {
        let got = self.sim.run_until(deadline);
        let want = self.rsim.run_until(deadline);
        assert_eq!(got, want, "{}: run_until({deadline}) returns", self.ctx);
        self.events += got;
        self.check(deadline);
    }

    fn quiet(&mut self, max: u64) {
        let before = self.sim.counters().events;
        let quiet = self.sim.run_until_quiet(max);
        let want = self.rsim.run_until(max);
        let got = self.sim.counters().events - before;
        assert_eq!(got, want, "{}: run_until_quiet({max}) events", self.ctx);
        assert_eq!(
            quiet,
            self.rsim.run_until_quiet(max),
            "{}: run_until_quiet({max})",
            self.ctx
        );
        self.events += got;
        self.check(max);
    }

    fn check(&self, at: u64) {
        assert_eq!(
            self.sim.counters().events,
            self.events,
            "{}: counters().events at {at} ps is not the sum of the returns",
            self.ctx
        );
        assert_eq!(self.sim.time_ps(), self.rsim.time_ps(), "{}", self.ctx);
        for net in 0..self.nets {
            let id = NetId::from_index(net);
            assert_eq!(
                self.sim.value(id),
                self.rsim.value(id),
                "{}: net {net} diverged at {at} ps",
                self.ctx
            );
        }
    }

    fn finish(self) {
        let res_new = self.sim.finish();
        let res_ref = self.rsim.finish();
        assert_eq!(res_new.end_ps, res_ref.end_ps, "{}", self.ctx);
        assert_eq!(
            res_new.activity, res_ref.activity,
            "{}: activity records diverged",
            self.ctx
        );
    }
}

/// Runs `cases` random circuits through 30 clock cycles on both engines.
/// Each cycle cuts the clock-edge wave at a random deadline, re-drives
/// one data input twice within a gate delay (superseding queued and
/// no-op events alike), and settles the falling edge through
/// `run_until_quiet` at a random horizon. With `gated`, the cloud sits in
/// a power-gated domain whose sleep control pulses at random, so rail
/// collapse and restore schedule X storms across it.
fn lockstep_random(mv: Option<f64>, gated: bool, seed: u64, cases: usize) {
    let lib = Library::ninety_nm();
    let mut rng = StdRng::seed_from_u64(seed);
    for case in 0..cases {
        let (mut nl, inputs, clk) = build_random(&mut rng, &lib);
        let sleep = gated.then(|| gate_cloud(&mut nl));
        let rst_n = nl.net_by_name("rst_n").expect("reset net exists");
        let ctx = format!("{mv:?} mV, gated {gated}, case {case}");
        let mut ls = Lockstep::new(&nl, &lib, config_at(mv), ctx);
        ls.set(rst_n, Logic::One);
        ls.set(clk, Logic::Zero);
        if let Some(sleep) = sleep {
            if case % 2 == 1 {
                // Power up from a collapsed start: the rail is still X, so
                // this collapse is a no-op that the restore supersedes.
                ls.set(sleep, Logic::One);
                ls.run(1 + rng.below(500));
            }
            ls.set(sleep, Logic::Zero);
            let now = ls.time();
            ls.quiet(now + rng.below(3_000));
        }
        for i in 0..30u64 {
            let stim = random_stimulus(&mut rng, &inputs);
            let t0 = i * PERIOD;
            ls.run(t0);
            ls.set(clk, Logic::One);
            for &(net, v) in &stim {
                ls.set(net, v);
            }
            ls.run(t0 + 1 + rng.below(3_000));
            let (net, v) = stim[rng.index(stim.len())];
            ls.set(net, flip(v));
            let now = ls.time();
            ls.run(now + rng.below(20));
            ls.set(net, if rng.below(2) == 0 { v } else { flip(v) });
            if rng.below(4) == 0 {
                // Same-instant double drive: the first is superseded
                // before the queue ever sees it.
                ls.set(net, v);
                ls.set(net, flip(v));
            }
            ls.run(t0 + PERIOD / 2);
            ls.set(clk, Logic::Zero);
            if let Some(sleep) = sleep {
                if rng.below(2) == 0 {
                    ls.set(sleep, Logic::One);
                    // Cut before, at or after the 2 ns collapse.
                    let now = ls.time();
                    ls.run(now + rng.below(4_000));
                    ls.set(sleep, Logic::Zero);
                }
            }
            let now = ls.time();
            ls.quiet(now + rng.below(6_000));
            ls.run(t0 + PERIOD - 1);
            ls.quiet(t0 + PERIOD);
        }
        ls.finish();
    }
}

#[test]
fn production_engine_matches_reference_on_random_circuits() {
    lockstep_random(None, false, 0xD1FF, 12);
}

/// At low supply the gate delays stretch past the wheel's 8 192 ps span,
/// so near-future events take the overflow path too.
#[test]
fn production_engine_matches_reference_at_low_voltage_corners() {
    for (mv, seed) in [(600.0, 0x600), (300.0, 0x300), (200.0, 0x200)] {
        lockstep_random(Some(mv), false, seed, 6);
    }
}

#[test]
fn production_engine_matches_reference_with_a_gated_domain() {
    for (mv, seed) in [(None, 0x6A7E), (Some(300.0), 0x6A73)] {
        lockstep_random(mv, true, seed, 8);
    }
}

/// Regression: an inverter driving 16 loads at 200 mV has a delay beyond
/// the wheel span. With only that output edge queued, a `run_until` that
/// stopped short of it used to move the wheel's base past the deadline,
/// so the next input flip queued behind it and simulated time ran
/// backwards (per-call counts `[1, 0, 0]` against the heap's
/// `[1, 1, 1]`).
#[test]
fn long_delay_after_a_short_deadline_keeps_time_order() {
    let lib = Library::ninety_nm();
    let mut nl = Netlist::new("fanout");
    let a = nl.add_input("a");
    let y = nl.add_fresh_net();
    nl.add_instance("drv", "INV_X1", &[a, y]).unwrap();
    for k in 0..16 {
        let out = nl.add_output(format!("o{k}"));
        nl.add_instance(format!("ld{k}"), "INV_X1", &[y, out])
            .unwrap();
    }
    let mut ls = Lockstep::new(&nl, &lib, config_at(Some(200.0)), "200 mV fanout".into());
    let mut v = Logic::Zero;
    for deadline in [100, 200, 300] {
        ls.set(a, v);
        ls.run(deadline);
        v = flip(v);
    }
    ls.quiet(100_000_000);
    ls.finish();
}

/// Packs `lanes` independent random stimulus sequences into one settled
/// program mirroring the drive protocol above: at each cycle boundary
/// the clock rises and fresh data applies (in that order, matching
/// event scheduling order); the clock falls mid-cycle; settled state is
/// observed at every boundary.
fn packed_random_program(
    rng: &mut StdRng,
    inputs: &[NetId],
    clk: NetId,
    rst_n: NetId,
    lanes: usize,
    cycles: usize,
) -> PackedStimulus {
    let all: u64 = (1u64 << lanes) - 1;
    let data = |rng: &mut StdRng| -> Vec<NetChange> {
        inputs
            .iter()
            .map(|&n| {
                let mut plane = 0u64;
                for lane in 0..lanes {
                    if rng.below(2) == 1 {
                        plane |= 1 << lane;
                    }
                }
                NetChange::word(n, all, plane)
            })
            .collect()
    };
    let mut phases = Vec::new();
    for i in 0..cycles {
        let t0 = i as u64 * PERIOD;
        let mut changes = Vec::new();
        if i == 0 {
            changes.push(NetChange::level(rst_n, all, true));
            changes.push(NetChange::level(clk, all, false));
        }
        changes.push(NetChange::level(clk, all, true));
        changes.extend(data(rng));
        phases.push(Phase {
            t: t0,
            observe: i > 0,
            changes,
        });
        phases.push(Phase {
            t: t0 + PERIOD / 2,
            observe: false,
            changes: vec![NetChange::level(clk, all, false)],
        });
    }
    phases.push(Phase {
        t: cycles as u64 * PERIOD,
        observe: true,
        changes: Vec::new(),
    });
    PackedStimulus {
        phases,
        lane_ends: vec![cycles as u64 * PERIOD; lanes],
    }
}

/// The bit-parallel engine must match per-lane event-engine runs exactly
/// — per-net toggle counts, unknown transitions and residency — on
/// seeded random registered circuits under the settled observation
/// protocol.
#[test]
fn bitparallel_matches_event_engine_on_random_circuits() {
    let lib = Library::ninety_nm();
    let mut rng = StdRng::seed_from_u64(0xB17);
    for case in 0..12 {
        let (nl, inputs, clk) = build_random(&mut rng, &lib);
        let rst_n = nl.net_by_name("rst_n").expect("reset net exists");
        let compiled = CompiledNetlist::compile(&nl, &lib, PvtCorner::default()).unwrap();
        let lanes = 1 + rng.index(33);
        let program = packed_random_program(&mut rng, &inputs, clk, rst_n, lanes, 30);

        let fast = run_settled(&compiled, &program, None, EngineChoice::BitParallel)
            .expect("random registered circuits levelize");
        assert_eq!(fast.engine, SettledEngine::BitParallel);
        let slow = run_settled(&compiled, &program, None, EngineChoice::Event).unwrap();
        assert_eq!(slow.engine, SettledEngine::Event);
        assert_eq!(fast.activities.len(), lanes);
        for lane in 0..lanes {
            assert_eq!(
                fast.activities[lane], slow.activities[lane],
                "case {case}, lane {lane}: settled activity diverged"
            );
        }
        // Auto picks the fast path for these designs.
        let auto = run_settled(&compiled, &program, None, EngineChoice::Auto).unwrap();
        assert_eq!(auto.engine, SettledEngine::BitParallel);
        assert_eq!(auto.activities, fast.activities);
    }
}

/// Designs the oblivious engine cannot represent fall back to the event
/// engine: a logic-driven (gated) flop clock must fail levelization, and
/// `Auto` must still serve the request.
#[test]
fn gated_clock_falls_back_to_event_engine() {
    let lib = Library::ninety_nm();
    let mut nl = Netlist::new("gated");
    let clk = nl.add_input("clk");
    let d = nl.add_input("d");
    let gclk = nl.add_fresh_net();
    let q = nl.add_output("q");
    nl.add_instance("g0", "INV_X1", &[clk, gclk]).unwrap();
    nl.add_instance("r0", "DFF_X1", &[d, gclk, q]).unwrap();
    let compiled = CompiledNetlist::compile(&nl, &lib, PvtCorner::default()).unwrap();

    let err = compiled.levelized().expect_err("gated clock must refuse");
    assert!(err.contains("gated clock"), "{err}");
    // The refusal is cached, not recomputed.
    assert_eq!(compiled.levelized().expect_err("still cached"), err);

    let program = PackedStimulus {
        phases: vec![
            Phase {
                t: 0,
                observe: false,
                changes: vec![
                    NetChange::level(clk, 1, false),
                    NetChange::level(d, 1, true),
                ],
            },
            Phase {
                t: PERIOD,
                observe: true,
                changes: Vec::new(),
            },
        ],
        lane_ends: vec![PERIOD],
    };
    assert!(run_settled(&compiled, &program, None, EngineChoice::BitParallel).is_err());
    let auto = run_settled(&compiled, &program, None, EngineChoice::Auto).unwrap();
    assert_eq!(auto.engine, SettledEngine::Event, "auto must fall back");
    assert_eq!(auto.activities.len(), 1);
}
