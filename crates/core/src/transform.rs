//! The SCPG netlist transform (paper Figs. 2, 3, 5).
//!
//! Steps, matching the two additions the paper makes to a standard
//! power-gating flow:
//!
//! 1. **Separate combinational and sequential logic** — every pure-logic
//!    cell is retagged into the [`Domain::Gated`] power domain; flops,
//!    latches, ties and the new SCPG control cells stay
//!    [`Domain::AlwaysOn`].
//! 2. **Combine the custom isolation circuitry** — a high-V_t header is
//!    inserted whose `SLEEP` pin is driven by `clock AND override_n`
//!    (active-low override forces the domain on); the Fig. 3 adaptive
//!    control cell senses the clock and the virtual rail and produces the
//!    isolation enable; every net that crosses from the gated domain into
//!    the always-on domain (flop data pins, output ports) gets an
//!    AND-type clamp.
//!
//! No retention registers and no power-gating controller are needed —
//! that is the point of the technique.
//!
//! [`Domain::Gated`]: scpg_netlist::Domain::Gated
//! [`Domain::AlwaysOn`]: scpg_netlist::Domain::AlwaysOn

use scpg_liberty::{CellKind, HeaderSize, Library};
use scpg_netlist::{Domain, NetId, Netlist, PinRef, PortDirection};

use crate::error::ScpgError;

/// Transform options.
#[derive(Debug, Clone)]
pub struct ScpgOptions {
    /// Sleep-header size. The flow normally picks this via
    /// [`crate::headers`]; the default X2 matches the paper's multiplier.
    pub header_size: HeaderSize,
}

impl Default for ScpgOptions {
    fn default() -> Self {
        Self {
            header_size: HeaderSize::X2,
        }
    }
}

/// The transformed design plus handles to the SCPG control network.
#[derive(Debug, Clone)]
pub struct ScpgDesign {
    /// The rewritten netlist (gated domain tagged, isolation inserted).
    pub netlist: Netlist,
    /// The clock net driving both the flops and the power gate.
    pub clk: NetId,
    /// Active-low override input: drive 0 to force the domain on
    /// (disabling SCPG for peak performance, §IV).
    pub override_n: NetId,
    /// The header's SLEEP control net (`clk AND override_n`).
    pub sleep: NetId,
    /// The virtual rail net.
    pub vddv: NetId,
    /// The isolation enable produced by the Fig. 3 control circuit.
    pub iso: NetId,
    /// The header size in use.
    pub header_size: HeaderSize,
    /// Number of isolation clamps inserted.
    pub isolation_cells: usize,
}

/// Applies the SCPG transform to gate-level netlists.
#[derive(Debug)]
pub struct ScpgTransform<'lib> {
    lib: &'lib Library,
}

/// Cell kinds that belong to the power-gated combinational cloud.
fn is_gateable(kind: CellKind) -> bool {
    kind.is_combinational()
        && !matches!(
            kind,
            CellKind::TieHi
                | CellKind::TieLo
                | CellKind::IsoAnd
                | CellKind::IsoOr
                | CellKind::IsoCtl
        )
}

impl<'lib> ScpgTransform<'lib> {
    /// Binds the transform to a library.
    pub fn new(lib: &'lib Library) -> Self {
        Self { lib }
    }

    /// Rewrites `nl` into an SCPG design, using the net named
    /// `clock_name` as the power-gating control.
    ///
    /// # Errors
    ///
    /// * [`ScpgError::NoSuchClock`] — no net has the given name.
    /// * [`ScpgError::NothingToGate`] — the design has no logic cells.
    /// * [`ScpgError::Netlist`] — the input or rewritten netlist fails
    ///   validation.
    pub fn apply(
        &self,
        nl: &Netlist,
        clock_name: &str,
        options: &ScpgOptions,
    ) -> Result<ScpgDesign, ScpgError> {
        nl.validate(self.lib)?;
        let mut out = nl.clone();
        let clk = out
            .net_by_name(clock_name)
            .ok_or_else(|| ScpgError::NoSuchClock {
                name: clock_name.to_string(),
            })?;

        // Step 1: domain separation.
        let gated: Vec<_> = out
            .iter_instances()
            .filter(|(_, inst)| {
                self.lib
                    .cell(inst.cell())
                    .is_some_and(|c| is_gateable(c.kind()))
            })
            .map(|(id, _)| id)
            .collect();
        if gated.is_empty() {
            return Err(ScpgError::NothingToGate);
        }
        for id in gated {
            out.set_domain(id, Domain::Gated);
        }

        // Step 2: control network. All control cells are always-on.
        let override_n = out.add_input("scpg_override_n");
        let sleep = out.add_net("scpg_sleep");
        let vddv = out.add_net("scpg_vddv");
        let iso = out.add_net("scpg_iso");
        let and2 = self.cell_name(CellKind::And2);
        out.add_instance("scpg_sleep_and", and2, &[clk, override_n, sleep])?;
        let header = self
            .lib
            .header(options.header_size)
            .ok_or(ScpgError::NoViableHeader)?;
        let _ = header; // existence check; the cell below carries the data
        out.add_instance(
            "scpg_header",
            options.header_size.cell_name(),
            &[sleep, vddv],
        )?;
        let isoctl = self.cell_name(CellKind::IsoCtl);
        out.add_instance("scpg_isoctl", isoctl, &[clk, vddv, iso])?;

        // Isolation insertion on every gated→always-on crossing.
        let iso_cell = self.cell_name(CellKind::IsoAnd).to_string();
        let conn = out.connectivity(self.lib)?;
        let mut port_driven = vec![false; out.nets().len()];
        for p in out.ports() {
            if p.direction == PortDirection::Output {
                port_driven[p.net.index()] = true;
            }
        }
        let mut planned: Vec<(NetId, Option<PinRef>, Vec<PinRef>)> = Vec::new();
        for (idx, _net) in out.nets().iter().enumerate() {
            let net = NetId::from_index(idx);
            let Some(driver) = conn.driver(net) else {
                continue;
            };
            if out.instance(driver.inst).domain() != Domain::Gated {
                continue;
            }
            let aon_sinks: Vec<_> = conn
                .loads(net)
                .iter()
                .copied()
                .filter(|pin| out.instance(pin.inst).domain() == Domain::AlwaysOn)
                .collect();
            let drives_port = port_driven[idx];
            if drives_port || !aon_sinks.is_empty() {
                planned.push((net, drives_port.then_some(driver), aon_sinks));
            }
        }

        // Each step below rewires only its own net's driver pin or sinks,
        // so the drivers recorded while planning stay valid throughout.
        let mut iso_count = 0usize;
        for (net, port_driver, aon_sinks) in planned {
            let inst_name = format!("scpg_iso_{iso_count}");
            iso_count += 1;
            if let Some(drv) = port_driver {
                // Keep the port on its named net: retarget the gated
                // driver to a fresh net and clamp into the original.
                let inner = out.add_fresh_net();
                out.rewire_pin(drv.inst, drv.pin, inner);
                // Everything that used to read the net now reads the
                // clamped version automatically (the net kept its id).
                out.add_instance(inst_name, iso_cell.clone(), &[inner, iso, net])?;
            } else {
                let clamped = out.add_fresh_net();
                out.add_instance(inst_name, iso_cell.clone(), &[net, iso, clamped])?;
                for pin in aon_sinks {
                    out.rewire_pin(pin.inst, pin.pin, clamped);
                }
            }
        }

        out.validate(self.lib)?;
        Ok(ScpgDesign {
            netlist: out,
            clk,
            override_n,
            sleep,
            vddv,
            iso,
            header_size: options.header_size,
            isolation_cells: iso_count,
        })
    }

    fn cell_name(&self, kind: CellKind) -> &str {
        self.lib
            .cell_of_kind(kind)
            .unwrap_or_else(|| panic!("library lacks a {kind:?} cell"))
            .name()
    }
}

impl ScpgDesign {
    /// Area overhead of the SCPG design relative to the baseline, as a
    /// fraction (paper §III: +3.9 % multiplier, +6.6 % M0).
    pub fn area_overhead(&self, baseline: &Netlist, lib: &Library) -> f64 {
        self.netlist
            .stats(lib)
            .area_overhead_vs(&baseline.stats(lib))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scpg_circuits::generate_multiplier;
    use scpg_liberty::{Library, Logic};
    use scpg_sim::{SimConfig, Simulator};

    fn lib() -> Library {
        Library::ninety_nm()
    }

    #[test]
    fn splits_domains_and_counts_isolation() {
        let lib = lib();
        let (nl, _) = generate_multiplier(&lib, 16);
        let scpg = ScpgTransform::new(&lib)
            .apply(&nl, "clk", &ScpgOptions::default())
            .unwrap();
        let stats = scpg.netlist.stats(&lib);
        assert!(stats.gated.combinational > 400, "array is gated");
        assert_eq!(stats.gated.sequential, 0, "flops stay always-on");
        assert!(stats.always_on.sequential == 64);
        // One clamp per product bit into the output registers plus one
        // per output port.
        assert!(
            (60..=70).contains(&scpg.isolation_cells),
            "isolation cells = {}",
            scpg.isolation_cells
        );
    }

    #[test]
    fn area_overhead_matches_paper_band() {
        let lib = lib();
        let (nl, _) = generate_multiplier(&lib, 16);
        let scpg = ScpgTransform::new(&lib)
            .apply(&nl, "clk", &ScpgOptions::default())
            .unwrap();
        let ov = scpg.area_overhead(&nl, &lib);
        // Paper: +3.9 % for the multiplier. Same class here.
        assert!(
            (0.02..0.08).contains(&ov),
            "area overhead {:.1} %",
            ov * 100.0
        );
    }

    #[test]
    fn missing_clock_is_reported() {
        let lib = lib();
        let (nl, _) = generate_multiplier(&lib, 4);
        let err = ScpgTransform::new(&lib)
            .apply(&nl, "no_such_clk", &ScpgOptions::default())
            .unwrap_err();
        assert!(matches!(err, ScpgError::NoSuchClock { .. }));
    }

    #[test]
    fn flop_only_design_has_nothing_to_gate() {
        let lib = lib();
        let mut nl = Netlist::new("ff");
        let clk = nl.add_input("clk");
        let d = nl.add_input("d");
        let q = nl.add_output("q");
        nl.add_instance("ff", "DFF_X1", &[d, clk, q]).unwrap();
        let err = ScpgTransform::new(&lib)
            .apply(&nl, "clk", &ScpgOptions::default())
            .unwrap_err();
        assert!(matches!(err, ScpgError::NothingToGate));
    }

    /// The key functional property: with the clock toggling (so the
    /// domain is power gated every single cycle), the SCPG multiplier
    /// still multiplies — isolation keeps every X inside the gated cloud.
    #[test]
    fn scpg_multiplier_still_multiplies() {
        let lib = lib();
        let (nl, ports) = generate_multiplier(&lib, 8);
        let scpg = ScpgTransform::new(&lib)
            .apply(&nl, "clk", &ScpgOptions::default())
            .unwrap();

        let mut sim = Simulator::new(&scpg.netlist, &lib, SimConfig::default()).unwrap();
        const PERIOD: u64 = 1_000_000; // 1 µs: plenty of eval room
        sim.set_input(scpg.override_n, Logic::One); // gating enabled
        sim.set_input(scpg.clk, Logic::Zero);
        sim.set_input_by_name("rst_n", Logic::Zero);

        let drive = |sim: &mut Simulator<'_>, w: &scpg_synth::Word, v: u64| {
            for (i, &bit) in w.bits().iter().enumerate() {
                sim.set_input(bit, Logic::from_bool((v >> i) & 1 == 1));
            }
        };
        let read = |sim: &Simulator<'_>, w: &scpg_synth::Word| -> Option<u64> {
            let mut v = 0u64;
            for (i, &bit) in w.bits().iter().enumerate() {
                match sim.value(bit).to_bool() {
                    Some(true) => v |= 1 << i,
                    Some(false) => {}
                    None => return None,
                }
            }
            Some(v)
        };

        let cycle = |sim: &mut Simulator<'_>, n: u64| {
            let t0 = n * PERIOD;
            sim.run_until(t0);
            sim.set_input(scpg.clk, Logic::One);
            sim.run_until(t0 + PERIOD / 2);
            sim.set_input(scpg.clk, Logic::Zero);
            sim.run_until(t0 + PERIOD);
        };

        // Reset, then release.
        cycle(&mut sim, 0);
        cycle(&mut sim, 1);
        sim.set_input_by_name("rst_n", Logic::One);
        drive(&mut sim, &ports.a, 23);
        drive(&mut sim, &ports.b, 19);
        for n in 2..6 {
            cycle(&mut sim, n);
        }
        assert_eq!(read(&sim, &ports.product), Some(23 * 19), "SCPG product");

        drive(&mut sim, &ports.a, 200);
        drive(&mut sim, &ports.b, 131);
        for n in 6..9 {
            cycle(&mut sim, n);
        }
        assert_eq!(read(&sim, &ports.product), Some(200 * 131));
    }

    /// A gated net feeding BOTH an output port and an always-on flop gets
    /// one clamp that serves every always-on reader.
    #[test]
    fn shared_crossing_net_is_clamped_once_for_all_sinks() {
        let lib = lib();
        let mut nl = Netlist::new("t");
        let clk = nl.add_input("clk");
        let a = nl.add_input("a");
        let y = nl.add_output("y"); // port AND flop D share this net
        let q = nl.add_fresh_net();
        nl.add_instance("g", "INV_X1", &[a, y]).unwrap();
        nl.add_instance("ff", "DFF_X1", &[y, clk, q]).unwrap();
        let design = ScpgTransform::new(&lib)
            .apply(&nl, "clk", &ScpgOptions::default())
            .unwrap();
        assert_eq!(design.isolation_cells, 1, "one clamp covers both sinks");
        design.netlist.validate(&lib).unwrap();

        // Functional check: while gated, both the port and the flop input
        // read the clamp, never an X.
        let mut sim = Simulator::new(&design.netlist, &lib, SimConfig::default()).unwrap();
        sim.set_input(design.override_n, Logic::One);
        sim.set_input(a, Logic::Zero);
        sim.set_input(clk, Logic::Zero);
        sim.run_until_quiet(10_000_000);
        assert_eq!(sim.value(y), Logic::One);
        sim.set_input(clk, Logic::One);
        sim.run_until(11_000_000);
        assert_eq!(sim.value(y), Logic::Zero, "clamped during gating, not X");
        sim.set_input(clk, Logic::Zero);
        sim.run_until(12_000_000);
        assert_eq!(sim.value(y), Logic::One, "restored after the low phase");
    }

    /// Gated logic driving several output ports — two of them from one
    /// full adder — and always-on flops. Each port keeps its net, now
    /// driven by a clamp whose data input is the port's original driver
    /// pin; always-on sinks read clamped nets.
    #[test]
    fn gated_port_drivers_are_clamped_in_place() {
        let lib = lib();
        let mut nl = Netlist::new("t");
        let clk = nl.add_input("clk");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let y0 = nl.add_output("y0");
        let y1 = nl.add_output("y1");
        let s = nl.add_output("s");
        let co = nl.add_output("co");
        let n = nl.add_net("n");
        let q0 = nl.add_output("q0");
        let q1 = nl.add_output("q1");
        nl.add_instance("g0", "NAND2_X1", &[a, b, y0]).unwrap();
        nl.add_instance("g1", "INV_X1", &[y0, y1]).unwrap();
        nl.add_instance("fa", "FA_X1", &[a, b, c, s, co]).unwrap();
        nl.add_instance("g2", "XOR2_X1", &[a, c, n]).unwrap();
        let ff0 = nl.add_instance("ff0", "DFF_X1", &[y0, clk, q0]).unwrap();
        let ff1 = nl.add_instance("ff1", "DFF_X1", &[n, clk, q1]).unwrap();
        let before = nl.connectivity(&lib).unwrap();

        let design = ScpgTransform::new(&lib)
            .apply(&nl, "clk", &ScpgOptions::default())
            .unwrap();
        let out = &design.netlist;
        out.validate(&lib).unwrap();
        // y0, y1, s, co and n each get one clamp; the flop outputs none.
        assert_eq!(design.isolation_cells, 5);
        // + sleep AND, header, isolation control, clamps.
        assert_eq!(out.instances().len(), nl.instances().len() + 3 + 5);

        let after = out.connectivity(&lib).unwrap();
        let iso_cell = lib.cell_of_kind(CellKind::IsoAnd).unwrap().name();
        for port in [y0, y1, s, co] {
            let p = out.ports().iter().find(|p| p.net == port).unwrap();
            assert_eq!(out.net(p.net).name(), p.name, "port keeps its named net");
            let clamp = out.instance(after.driver(port).unwrap().inst);
            assert!(clamp.name().starts_with("scpg_iso_"), "{}", p.name);
            assert_eq!(clamp.cell(), iso_cell);
            assert_eq!(clamp.connections()[1], design.iso);
            assert_eq!(
                after.driver(clamp.connections()[0]),
                before.driver(port),
                "clamp `{}` reads the original driver of `{}`",
                clamp.name(),
                p.name
            );
        }

        // Always-on sinks: ff0 reads the port net (now the clamp output),
        // ff1 reads a fresh clamped copy of `n`.
        assert_eq!(out.instance(ff0).connections()[0], y0);
        let ff1_d = out.instance(ff1).connections()[0];
        assert_ne!(ff1_d, n);
        let clamp = out.instance(after.driver(ff1_d).unwrap().inst);
        assert!(clamp.name().starts_with("scpg_iso_"));
        assert_eq!(clamp.connections()[0], n);
        // The flop outputs stay unclamped.
        for q in [q0, q1] {
            assert!(out
                .instance(after.driver(q).unwrap().inst)
                .name()
                .starts_with("ff"));
        }
    }

    /// The transform must not touch designs whose combinational outputs
    /// never cross to the always-on side beyond what isolation covers —
    /// i.e. every gated→AON crossing gets a clamp, none are missed.
    #[test]
    fn every_gated_to_aon_crossing_is_isolated() {
        let lib = lib();
        let (nl, _) = generate_multiplier(&lib, 8);
        let design = ScpgTransform::new(&lib)
            .apply(&nl, "clk", &ScpgOptions::default())
            .unwrap();
        let out = &design.netlist;
        let conn = out.connectivity(&lib).unwrap();
        for (idx, _) in out.nets().iter().enumerate() {
            let net = scpg_netlist::NetId::from_index(idx);
            let Some(driver) = conn.driver(net) else {
                continue;
            };
            if out.instance(driver.inst).domain() != Domain::Gated {
                continue;
            }
            for pin in conn.loads(net) {
                let sink = out.instance(pin.inst);
                if sink.domain() == Domain::AlwaysOn {
                    let kind = lib.expect_cell(sink.cell()).kind();
                    assert!(
                        matches!(
                            kind,
                            scpg_liberty::CellKind::IsoAnd | scpg_liberty::CellKind::IsoOr
                        ),
                        "gated net `{}` reaches always-on cell `{}` ({kind:?}) \
                         without isolation",
                        out.net(net).name(),
                        sink.name()
                    );
                }
            }
            // Output ports on gated-driven nets are only legal if the
            // driver is itself an isolation cell.
            for p in out.ports() {
                if p.net == net && p.direction == scpg_netlist::PortDirection::Output {
                    let kind = lib.expect_cell(out.instance(driver.inst).cell()).kind();
                    assert!(
                        matches!(
                            kind,
                            scpg_liberty::CellKind::IsoAnd | scpg_liberty::CellKind::IsoOr
                        ),
                        "output port `{}` driven by unclamped gated logic",
                        p.name
                    );
                }
            }
        }
    }

    /// With override asserted (low) the header stays on and the virtual
    /// rail never collapses.
    #[test]
    fn override_disables_gating() {
        let lib = lib();
        let (nl, _ports) = generate_multiplier(&lib, 4);
        let scpg = ScpgTransform::new(&lib)
            .apply(&nl, "clk", &ScpgOptions::default())
            .unwrap();
        let mut sim = Simulator::new(&scpg.netlist, &lib, SimConfig::default()).unwrap();
        sim.set_input(scpg.override_n, Logic::Zero); // force on
        sim.set_input(scpg.clk, Logic::Zero);
        sim.run_until_quiet(10_000_000);
        for n in 0..4u64 {
            let t0 = (n + 1) * 1_000_000;
            sim.set_input(scpg.clk, Logic::One);
            sim.run_until(t0 + 500_000);
            assert_eq!(sim.value(scpg.vddv), Logic::One, "rail on during clk high");
            sim.set_input(scpg.clk, Logic::Zero);
            sim.run_until(t0 + 1_000_000);
        }
    }

    /// With gating enabled the rail visibly collapses during the high
    /// phase and restores during the low phase.
    #[test]
    fn rail_toggles_with_the_clock() {
        let lib = lib();
        let (nl, _ports) = generate_multiplier(&lib, 4);
        let scpg = ScpgTransform::new(&lib)
            .apply(&nl, "clk", &ScpgOptions::default())
            .unwrap();
        let mut sim = Simulator::new(&scpg.netlist, &lib, SimConfig::default()).unwrap();
        sim.set_input(scpg.override_n, Logic::One);
        sim.set_input(scpg.clk, Logic::Zero);
        sim.run_until_quiet(10_000_000);

        sim.set_input(scpg.clk, Logic::One);
        sim.run_until(11_000_000);
        assert_eq!(
            sim.value(scpg.vddv),
            Logic::X,
            "rail collapsed while clk high"
        );
        assert_eq!(sim.value(scpg.iso), Logic::One, "isolation asserted");

        sim.set_input(scpg.clk, Logic::Zero);
        sim.run_until(12_000_000);
        assert_eq!(
            sim.value(scpg.vddv),
            Logic::One,
            "rail restored while clk low"
        );
        assert_eq!(sim.value(scpg.iso), Logic::Zero, "isolation released");
    }
}
