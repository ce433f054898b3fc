//! The per-voltage analysis [`crate::TimingGraph`] replaced, kept as a
//! differential-testing oracle.
//!
//! [`analyze`] resolves connectivity, cells, loads and the Kahn order
//! afresh on every call. The tests below assert that the graph gives
//! bit-identical reports over the Fig. 9 supply grid on the paper's
//! designs, an SCPG-transformed design, a Vt-shifted library and an
//! NLDM table-backed library.

use scpg_liberty::{CellKind, Library};
use scpg_netlist::{Connectivity, InstId, NetId, Netlist, PortDirection};
use scpg_units::{Capacitance, Time, Voltage};

use crate::{StaError, TimingReport};

/// Longest-path analysis at supply `v`, rebuilt from the netlist on
/// every call.
pub(crate) fn analyze(nl: &Netlist, lib: &Library, v: Voltage) -> Result<TimingReport, StaError> {
    let conn = nl.connectivity(lib)?;
    let n_nets = nl.nets().len();

    // Per-net arrival time (ps) and the instance that set it.
    let mut arrival: Vec<f64> = vec![f64::NEG_INFINITY; n_nets];
    let mut from: Vec<Option<InstId>> = vec![None; n_nets];

    // Sources: primary inputs at t=0; sequential outputs at clock-to-Q;
    // header rails and undriven nets at t=0 (constants).
    let mut t_setup = Time::ZERO;
    let mut t_hold = Time::ZERO;
    for p in nl.ports() {
        if p.direction == PortDirection::Input {
            arrival[p.net.index()] = 0.0;
        }
    }
    for (id, inst) in nl.iter_instances() {
        let cell = lib.expect_cell(inst.cell());
        let kind = cell.kind();
        if kind.is_sequential() {
            t_setup = t_setup.max(cell.setup_time());
            t_hold = t_hold.max(cell.hold_time());
            let n_in = kind.num_inputs();
            for &q in &inst.connections()[n_in..] {
                let clk_q = cell.delay(v, load_of(nl, lib, &conn, q));
                if clk_q.as_ps() > arrival[q.index()] {
                    arrival[q.index()] = clk_q.as_ps();
                    from[q.index()] = Some(id);
                }
            }
        } else if kind == CellKind::Header {
            for &out in &inst.connections()[kind.num_inputs()..] {
                arrival[out.index()] = arrival[out.index()].max(0.0);
            }
        }
    }
    for (i, a) in arrival.iter_mut().enumerate().take(n_nets) {
        if conn.driver(NetId::from_index(i)).is_none() && *a == f64::NEG_INFINITY {
            // Undriven-but-read nets would fail validation; treat as t=0
            // so analysis is robust on partial designs.
            *a = 0.0;
        }
    }

    // Kahn's algorithm over combinational cells.
    let mut pending: Vec<usize> = Vec::with_capacity(nl.instances().len());
    let mut comb: Vec<bool> = Vec::with_capacity(nl.instances().len());
    for (_, inst) in nl.iter_instances() {
        let kind = lib.expect_cell(inst.cell()).kind();
        let is_comb = kind.is_combinational();
        comb.push(is_comb);
        pending.push(if is_comb { kind.num_inputs() } else { 0 });
    }
    // Input readiness: an input is ready when its net has a finite arrival.
    // Start with inputs whose nets are already sourced.
    let mut ready: Vec<InstId> = Vec::new();
    let mut remaining: Vec<usize> = pending.clone();
    for (id, inst) in nl.iter_instances() {
        if !comb[id.index()] {
            continue;
        }
        let kind = lib.expect_cell(inst.cell()).kind();
        let n_ready = inst.connections()[..kind.num_inputs()]
            .iter()
            .filter(|n| arrival[n.index()].is_finite())
            .count();
        remaining[id.index()] = kind.num_inputs() - n_ready;
        if remaining[id.index()] == 0 {
            ready.push(id);
        }
    }

    let mut processed = 0usize;
    let total_comb = comb.iter().filter(|&&c| c).count();
    while let Some(id) = ready.pop() {
        processed += 1;
        let inst = nl.instance(id);
        let cell = lib.expect_cell(inst.cell());
        let kind = cell.kind();
        let n_in = kind.num_inputs();
        let in_arr = inst.connections()[..n_in]
            .iter()
            .map(|n| arrival[n.index()])
            .fold(0.0_f64, f64::max);
        for &out in &inst.connections()[n_in..] {
            let d = cell.delay(v, load_of(nl, lib, &conn, out));
            let t = in_arr + d.as_ps();
            if t > arrival[out.index()] {
                arrival[out.index()] = t;
                from[out.index()] = Some(id);
            }
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
    if processed < total_comb {
        // Some combinational cell never became ready: a loop. Identify a
        // net on it for the report.
        let victim = nl
            .iter_instances()
            .find(|(id, _)| comb[id.index()] && remaining[id.index()] > 0)
            .map(|(_, inst)| nl.net(inst.connections()[0]).name().to_string())
            .unwrap_or_default();
        return Err(StaError::CombinationalLoop { net: victim });
    }

    // Capture points: flop D inputs (all non-clock sequential inputs) and
    // output ports.
    let mut worst = 0.0_f64;
    let mut worst_net: Option<NetId> = None;
    for (_, inst) in nl.iter_instances() {
        let kind = lib.expect_cell(inst.cell()).kind();
        if !kind.is_sequential() {
            continue;
        }
        // Data input is pin 0 by convention (D).
        let d_net = inst.connections()[0];
        if arrival[d_net.index()].is_finite() && arrival[d_net.index()] > worst {
            worst = arrival[d_net.index()];
            worst_net = Some(d_net);
        }
    }
    for p in nl.ports() {
        if p.direction == PortDirection::Output
            && arrival[p.net.index()].is_finite()
            && arrival[p.net.index()] > worst
        {
            worst = arrival[p.net.index()];
            worst_net = Some(p.net);
        }
    }

    // Trace the critical path backwards.
    let mut critical_path = Vec::new();
    let mut cursor = worst_net;
    while let Some(net) = cursor {
        match from[net.index()] {
            Some(inst_id) => {
                critical_path.push(inst_id);
                // Predecessor: the input of `inst_id` with max arrival.
                let inst = nl.instance(inst_id);
                let kind = lib.expect_cell(inst.cell()).kind();
                cursor = inst.connections()[..kind.num_inputs()]
                    .iter()
                    .copied()
                    .filter(|n| arrival[n.index()].is_finite())
                    .max_by(|a, b| arrival[a.index()].total_cmp(&arrival[b.index()]));
                // Stop at sequential launch points.
                if kind.is_sequential() {
                    cursor = None;
                }
            }
            None => cursor = None,
        }
    }
    critical_path.reverse();

    let t_eval = Time::from_ps(worst);
    Ok(TimingReport {
        voltage: v,
        t_eval,
        t_setup,
        t_hold,
        min_period: t_eval + t_setup,
        critical_path,
    })
}

fn load_of(nl: &Netlist, lib: &Library, conn: &Connectivity, net: NetId) -> Capacitance {
    let mut load = lib.wire_cap();
    for pin in conn.loads(net) {
        load += lib.expect_cell(nl.instance(pin.inst).cell()).input_cap();
    }
    load
}

mod tests {
    use super::*;
    use crate::TimingGraph;
    use scpg::{ScpgOptions, ScpgTransform};
    use scpg_circuits::{generate_cpu, generate_multiplier};
    use scpg_liberty::{parse_liberty, write_liberty, EvalBackend};

    fn fig9_grid() -> Vec<Voltage> {
        scpg_units::linspace(0.15, 0.9, 76)
            .into_iter()
            .map(Voltage::from_v)
            .collect()
    }

    fn assert_bit_identical(nl: &Netlist, lib: &Library, what: &str) {
        let graph = TimingGraph::build(nl, lib).unwrap();
        for v in fig9_grid() {
            let got = graph.analyze(v);
            let want = analyze(nl, lib, v).unwrap();
            let bits = |r: &TimingReport| {
                [
                    r.voltage.value(),
                    r.t_eval.value(),
                    r.t_setup.value(),
                    r.t_hold.value(),
                    r.min_period.value(),
                ]
                .map(f64::to_bits)
            };
            assert_eq!(bits(&got), bits(&want), "{what} at {v}");
            assert_eq!(got.critical_path, want.critical_path, "{what} at {v}");
            assert!(!got.critical_path.is_empty(), "{what} at {v}");
        }
    }

    #[test]
    fn graph_matches_reference_on_the_paper_designs() {
        let lib = Library::ninety_nm();
        let (mult, _) = generate_multiplier(&lib, 16);
        assert_bit_identical(&mult, &lib, "16-bit multiplier");
        let (cpu, _) = generate_cpu(&lib);
        assert_bit_identical(&cpu, &lib, "cpu");
        let scpg = ScpgTransform::new(&lib)
            .apply(&cpu, "clk", &ScpgOptions::default())
            .unwrap();
        assert_bit_identical(&scpg.netlist, &lib, "scpg cpu");
    }

    #[test]
    fn graph_matches_reference_on_derived_and_table_libraries() {
        let lib = Library::ninety_nm();
        let (mult, _) = generate_multiplier(&lib, 16);

        // LECTOR-style: every third combinational instance swapped for a
        // raised-V_t, larger variant of its cell.
        let mut lct_lib = lib.clone();
        let mut lct = mult.clone();
        let ids: Vec<InstId> = mult.iter_instances().map(|(id, _)| id).collect();
        for id in ids.into_iter().step_by(3) {
            let base = lct.instance(id).cell().to_string();
            if !lib.expect_cell(&base).kind().is_combinational() {
                continue;
            }
            let name = format!("{base}__LCT");
            if lct_lib.cell(&name).is_none() {
                lct_lib
                    .add_derived_cell(&base, &name, Voltage::from_mv(40.0), 1.3)
                    .unwrap();
            }
            lct.set_cell(id, name);
        }
        assert_bit_identical(&lct, &lct_lib, "lector multiplier");

        let table = parse_liberty(&write_liberty(&lib))
            .unwrap()
            .library
            .with_backend(EvalBackend::Table);
        assert!(table.cells().any(|c| c.tables().is_some()));
        assert_bit_identical(&mult, &table, "table-backed multiplier");
        let (cpu, _) = generate_cpu(&table);
        assert_bit_identical(&cpu, &table, "table-backed cpu");
    }

    #[test]
    fn graph_reports_the_reference_loop() {
        let lib = Library::ninety_nm();
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let y = nl.add_output("y");
        // An acyclic prefix, then two loops: the reported net must be the
        // first one the reference names.
        let n0 = nl.add_net("pre");
        nl.add_instance("u0", "INV_X1", &[a, n0]).unwrap();
        for (k, seed) in [(1, n0), (2, a)] {
            let l1 = nl.add_net(format!("loop{k}a"));
            let l2 = nl.add_net(format!("loop{k}b"));
            nl.add_instance(format!("u{k}a"), "NAND2_X1", &[seed, l2, l1])
                .unwrap();
            nl.add_instance(format!("u{k}b"), "INV_X1", &[l1, l2])
                .unwrap();
        }
        let l = nl.net_by_name("loop2a").unwrap();
        nl.add_instance("u3", "INV_X1", &[l, y]).unwrap();
        let want = analyze(&nl, &lib, Voltage::from_mv(600.0)).unwrap_err();
        assert_eq!(
            want,
            StaError::CombinationalLoop {
                net: "pre".to_string()
            }
        );
        assert_eq!(TimingGraph::build(&nl, &lib).unwrap_err(), want);
        assert_eq!(
            crate::analyze(&nl, &lib, Voltage::from_mv(600.0)).unwrap_err(),
            want
        );
    }
}
