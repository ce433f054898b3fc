//! Standard cells: logic function, pins and characterisation data.

use std::sync::Arc;

use scpg_units::{Area, Capacitance, Current, Energy, Temperature, Time, Voltage};

use crate::backend::{AnalyticalBackend, EvalBackend, PowerBackend, TableBackend, TimingBackend};
use crate::logic::Logic;
use crate::model::TransistorModel;
use crate::nldm::CellTables;

/// Direction of a cell pin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PinDirection {
    /// Signal input.
    Input,
    /// Signal output.
    Output,
}

/// The logic function of a cell.
///
/// Pin order is fixed per kind: all inputs first (in the order given by
/// [`CellKind::input_names`]), then all outputs. The simulator, the
/// synthesiser and the netlist all rely on this shared order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellKind {
    /// Inverter: `Y = !A`.
    Inv,
    /// Buffer: `Y = A`.
    Buf,
    /// 2-input NAND.
    Nand2,
    /// 3-input NAND.
    Nand3,
    /// 4-input NAND.
    Nand4,
    /// 2-input NOR.
    Nor2,
    /// 3-input NOR.
    Nor3,
    /// 2-input AND.
    And2,
    /// 3-input AND.
    And3,
    /// 2-input OR.
    Or2,
    /// 3-input OR.
    Or3,
    /// 2-input XOR.
    Xor2,
    /// 2-input XNOR.
    Xnor2,
    /// AND-OR-invert: `Y = !((A & B) | C)`.
    Aoi21,
    /// OR-AND-invert: `Y = !((A | B) & C)`.
    Oai21,
    /// 2:1 multiplexer: `Y = S ? D1 : D0`; pins `(D0, D1, S)`.
    Mux2,
    /// Half adder: pins `(A, B) -> (S, CO)`.
    HalfAdder,
    /// Full adder: pins `(A, B, CI) -> (S, CO)`.
    FullAdder,
    /// Rising-edge D flip-flop: pins `(D, CK) -> Q`.
    Dff,
    /// Rising-edge D flip-flop with active-low async reset:
    /// pins `(D, CK, RN) -> Q`.
    DffR,
    /// Transparent-high latch: pins `(D, EN) -> Q`.
    Latch,
    /// AND-type isolation clamp: pins `(D, ISO)`; output is clamped to 0
    /// while `ISO` is high, else follows `D`.
    IsoAnd,
    /// OR-type isolation clamp: output clamped to 1 while `ISO` is high.
    IsoOr,
    /// Constant-1 tie cell (used to sense the virtual rail per Fig. 3).
    TieHi,
    /// Constant-0 tie cell.
    TieLo,
    /// The adaptive isolation-control circuit of Fig. 3: pins
    /// `(CLK, VDDV) -> ISO`. `ISO` asserts as soon as the clock rises and
    /// holds until the sensed virtual rail reads a solid logic 1.
    IsoCtl,
    /// High-V_t PMOS sleep header: pins `(SLEEP) -> VVDD`. While `SLEEP`
    /// is low the virtual rail is driven to 1 (powered); while high the
    /// rail is released (collapses towards 0, modelled as `X`).
    Header,
}

/// Fixed-size output set of a cell evaluation (at most two outputs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outputs {
    vals: [Logic; 2],
    n: u8,
}

impl Outputs {
    /// Single-output result.
    pub fn one(a: Logic) -> Self {
        Self {
            vals: [a, Logic::X],
            n: 1,
        }
    }

    /// Two-output result.
    pub fn two(a: Logic, b: Logic) -> Self {
        Self { vals: [a, b], n: 2 }
    }

    /// The outputs as a slice.
    pub fn as_slice(&self) -> &[Logic] {
        &self.vals[..self.n as usize]
    }

    /// Number of outputs.
    pub fn len(&self) -> usize {
        self.n as usize
    }

    /// Always `false`: every cell drives at least one output.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// Kinds of sequential behaviour the simulator must special-case.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SequentialKind {
    /// Rising-edge flop without reset.
    DffRising,
    /// Rising-edge flop with active-low async reset on the last input.
    DffRisingResetN,
    /// Level-sensitive latch, transparent while enable is high.
    LatchHigh,
}

impl CellKind {
    /// Input pin names, in evaluation order.
    pub fn input_names(self) -> &'static [&'static str] {
        use CellKind::*;
        match self {
            Inv | Buf => &["A"],
            Nand2 | Nor2 | And2 | Or2 | Xor2 | Xnor2 => &["A", "B"],
            Nand3 | Nor3 | And3 | Or3 => &["A", "B", "C"],
            Nand4 => &["A", "B", "C", "D"],
            Aoi21 | Oai21 => &["A", "B", "C"],
            Mux2 => &["D0", "D1", "S"],
            HalfAdder => &["A", "B"],
            FullAdder => &["A", "B", "CI"],
            Dff => &["D", "CK"],
            DffR => &["D", "CK", "RN"],
            Latch => &["D", "EN"],
            IsoAnd | IsoOr => &["D", "ISO"],
            TieHi | TieLo => &[],
            IsoCtl => &["CLK", "VDDV"],
            Header => &["SLEEP"],
        }
    }

    /// Output pin names, in evaluation order.
    pub fn output_names(self) -> &'static [&'static str] {
        use CellKind::*;
        match self {
            HalfAdder | FullAdder => &["S", "CO"],
            Dff | DffR | Latch => &["Q"],
            IsoCtl => &["ISO_OUT"],
            Header => &["VVDD"],
            _ => &["Y"],
        }
    }

    /// Number of input pins.
    pub fn num_inputs(self) -> usize {
        self.input_names().len()
    }

    /// Number of output pins.
    pub fn num_outputs(self) -> usize {
        self.output_names().len()
    }

    /// Sequential behaviour, or `None` for combinational/special cells.
    pub fn sequential(self) -> Option<SequentialKind> {
        match self {
            CellKind::Dff => Some(SequentialKind::DffRising),
            CellKind::DffR => Some(SequentialKind::DffRisingResetN),
            CellKind::Latch => Some(SequentialKind::LatchHigh),
            _ => None,
        }
    }

    /// `true` for the state-holding cells (flops and latches).
    pub fn is_sequential(self) -> bool {
        self.sequential().is_some()
    }

    /// `true` for cells evaluated as pure functions of their inputs
    /// (everything except flops, latches and the header).
    pub fn is_combinational(self) -> bool {
        !self.is_sequential() && self != CellKind::Header
    }

    /// Evaluates the cell's combinational function.
    ///
    /// Sequential cells return their output as `X` here — the simulator
    /// owns their state and never calls `eval` for them. The header cell
    /// returns the *powered* rail value; rail collapse is the simulator's
    /// job.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` does not match [`CellKind::num_inputs`].
    pub fn eval(self, inputs: &[Logic]) -> Outputs {
        assert_eq!(
            inputs.len(),
            self.num_inputs(),
            "{self:?} expects {} inputs, got {}",
            self.num_inputs(),
            inputs.len()
        );
        use CellKind::*;
        let out = match self {
            Inv => !inputs[0],
            Buf => inputs[0].and(Logic::One),
            Nand2 => !inputs[0].and(inputs[1]),
            Nand3 => !inputs[0].and(inputs[1]).and(inputs[2]),
            Nand4 => !inputs[0].and(inputs[1]).and(inputs[2]).and(inputs[3]),
            Nor2 => !inputs[0].or(inputs[1]),
            Nor3 => !inputs[0].or(inputs[1]).or(inputs[2]),
            And2 => inputs[0].and(inputs[1]),
            And3 => inputs[0].and(inputs[1]).and(inputs[2]),
            Or2 => inputs[0].or(inputs[1]),
            Or3 => inputs[0].or(inputs[1]).or(inputs[2]),
            Xor2 => inputs[0].xor(inputs[1]),
            Xnor2 => !inputs[0].xor(inputs[1]),
            Aoi21 => !(inputs[0].and(inputs[1])).or(inputs[2]).and(Logic::One),
            Oai21 => !(inputs[0].or(inputs[1])).and(inputs[2]),
            Mux2 => match inputs[2] {
                Logic::Zero => inputs[0].and(Logic::One),
                Logic::One => inputs[1].and(Logic::One),
                // Unknown select: output known only if both data agree.
                _ => {
                    if inputs[0].is_known() && inputs[0] == inputs[1] {
                        inputs[0]
                    } else {
                        Logic::X
                    }
                }
            },
            HalfAdder => return Outputs::two(inputs[0].xor(inputs[1]), inputs[0].and(inputs[1])),
            FullAdder => {
                let (a, b, ci) = (inputs[0], inputs[1], inputs[2]);
                let s = a.xor(b).xor(ci);
                let co = a.and(b).or(ci.and(a.xor(b)));
                return Outputs::two(s, co);
            }
            Dff | DffR | Latch => Logic::X,
            IsoAnd => match inputs[1] {
                Logic::One => Logic::Zero,
                Logic::Zero => inputs[0].and(Logic::One),
                _ => Logic::X,
            },
            IsoOr => match inputs[1] {
                Logic::One => Logic::One,
                Logic::Zero => inputs[0].and(Logic::One),
                _ => Logic::X,
            },
            TieHi => Logic::One,
            TieLo => Logic::Zero,
            // Fig. 3: assert isolation while the clock is high OR while the
            // sensed virtual rail is anything but a solid 1.
            IsoCtl => {
                let rail_down = match inputs[1] {
                    Logic::One => Logic::Zero,
                    Logic::Zero | Logic::X | Logic::Z => Logic::One,
                };
                inputs[0].or(rail_down)
            }
            Header => match inputs[0] {
                Logic::Zero => Logic::One, // PMOS on: rail powered
                Logic::One => Logic::X,    // gated: rail collapsing
                _ => Logic::X,
            },
        };
        Outputs::one(out)
    }

    /// State-dependent leakage factor (stack effect).
    ///
    /// Real libraries tabulate leakage per input state; a NAND with all
    /// inputs low has several stacked off-transistors and leaks markedly
    /// less than with all inputs high. We model this with a smooth factor
    /// in `[0.6, 1.4]` rising with the fraction of high inputs; unknown
    /// inputs count half. Cells with no inputs return 1.0.
    pub fn state_leak_factor(self, inputs: &[Logic]) -> f64 {
        let n = inputs.len();
        if n == 0 {
            return 1.0;
        }
        let high: f64 = inputs
            .iter()
            .map(|v| match v {
                Logic::One => 1.0,
                Logic::Zero => 0.0,
                _ => 0.5,
            })
            .sum();
        0.6 + 0.8 * high / n as f64
    }
}

/// A characterised standard cell.
///
/// All timing/energy numbers are stored at the library's characterisation
/// voltage (0.6 V for [`crate::Library::ninety_nm`], matching the paper's
/// operating point) and scaled to other supplies via the shared
/// [`TransistorModel`].
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    name: String,
    kind: CellKind,
    area: Area,
    input_cap: Capacitance,
    output_cap: Capacitance,
    intrinsic_delay: Time,
    drive_resistance: scpg_units::Resistance,
    internal_energy: Energy,
    leak_weight: f64,
    setup: Time,
    hold: Time,
    model: TransistorModel,
    tables: Option<Arc<CellTables>>,
    backend: EvalBackend,
}

/// Raw characterisation numbers handed to [`Cell::new`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct CellData {
    pub area_um2: f64,
    pub input_cap_ff: f64,
    pub output_cap_ff: f64,
    pub delay_ps: f64,
    pub drive_kohm: f64,
    pub energy_fj: f64,
    pub leak_weight: f64,
    pub setup_ps: f64,
    pub hold_ps: f64,
}

impl Cell {
    pub(crate) fn new(
        name: impl Into<String>,
        kind: CellKind,
        data: CellData,
        model: TransistorModel,
    ) -> Self {
        Self {
            name: name.into(),
            kind,
            area: Area::from_um2(data.area_um2),
            input_cap: Capacitance::from_ff(data.input_cap_ff),
            output_cap: Capacitance::from_ff(data.output_cap_ff),
            intrinsic_delay: Time::from_ps(data.delay_ps),
            drive_resistance: scpg_units::Resistance::from_kohm(data.drive_kohm),
            internal_energy: Energy::from_fj(data.energy_fj),
            leak_weight: data.leak_weight,
            setup: Time::from_ps(data.setup_ps),
            hold: Time::from_ps(data.hold_ps),
            model,
            tables: None,
            backend: EvalBackend::Analytical,
        }
    }

    /// This cell with NLDM tables attached (the [`TableBackend`] data;
    /// evaluation still follows the cell's [`Cell::backend`] selection).
    #[must_use]
    pub fn with_tables(mut self, tables: Arc<CellTables>) -> Cell {
        self.tables = Some(tables);
        self
    }

    /// This cell evaluating through the given backend.
    #[must_use]
    pub fn with_backend(mut self, backend: EvalBackend) -> Cell {
        self.backend = backend;
        self
    }

    /// The evaluation backend this cell dispatches through.
    pub fn backend(&self) -> EvalBackend {
        self.backend
    }

    /// The cell's NLDM tables, when it carries any.
    pub fn tables(&self) -> Option<&CellTables> {
        self.tables.as_deref()
    }

    /// The cell's library name (e.g. `"NAND2_X1"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The logic function.
    pub fn kind(&self) -> CellKind {
        self.kind
    }

    /// Placement area.
    pub fn area(&self) -> Area {
        self.area
    }

    /// Capacitance presented by each input pin.
    pub fn input_cap(&self) -> Capacitance {
        self.input_cap
    }

    /// Intrinsic output (parasitic) capacitance.
    pub fn output_cap(&self) -> Capacitance {
        self.output_cap
    }

    /// Setup requirement (sequential cells; zero otherwise).
    pub fn setup_time(&self) -> Time {
        self.setup
    }

    /// Hold requirement (sequential cells; zero otherwise).
    pub fn hold_time(&self) -> Time {
        self.hold
    }

    /// The transistor model this cell was characterised against.
    pub fn model(&self) -> &TransistorModel {
        &self.model
    }

    pub(crate) fn intrinsic_delay(&self) -> Time {
        self.intrinsic_delay
    }

    pub(crate) fn drive_resistance(&self) -> scpg_units::Resistance {
        self.drive_resistance
    }

    pub(crate) fn internal_energy(&self) -> Energy {
        self.internal_energy
    }

    pub(crate) fn leak_weight(&self) -> f64 {
        self.leak_weight
    }

    /// Propagation delay at supply `v` driving `c_load`: the
    /// voltage-independent [`Cell::delay_base`] scaled by the
    /// supply-dependent [`TransistorModel::delay_scale`].
    pub fn delay(&self, v: Voltage, c_load: Capacitance) -> Time {
        self.model.scale_delay(self.delay_base(c_load), v)
    }

    /// Propagation delay driving `c_load` at the characterisation voltage,
    /// answered by the cell's selected [`TimingBackend`]: an
    /// intrinsic-plus-`R·C` closed form ([`AnalyticalBackend`]) or NLDM
    /// table lookup ([`TableBackend`]). It does not depend on the supply,
    /// so timing graphs compute it once per arc and rescale per voltage.
    pub fn delay_base(&self, c_load: Capacitance) -> Time {
        match self.backend {
            EvalBackend::Analytical => AnalyticalBackend.delay_base(self, c_load),
            EvalBackend::Table => TableBackend.delay_base(self, c_load),
        }
    }

    /// Leakage current at `(v, t)` in the average input state, answered
    /// by the cell's selected [`PowerBackend`].
    pub fn leakage_current(&self, v: Voltage, t: Temperature) -> Current {
        match self.backend {
            EvalBackend::Analytical => AnalyticalBackend.leakage_current(self, v, t),
            EvalBackend::Table => TableBackend.leakage_current(self, v, t),
        }
    }

    /// Leakage current at `(v, t)` in a specific input state.
    pub fn leakage_current_in_state(
        &self,
        v: Voltage,
        t: Temperature,
        inputs: &[Logic],
    ) -> Current {
        Current::new(self.leakage_current(v, t).value() * self.kind.state_leak_factor(inputs))
    }

    /// Leakage power at `(v, t)`: `V · I_leak`.
    pub fn leakage_power(&self, v: Voltage, t: Temperature) -> scpg_units::Power {
        v * self.leakage_current(v, t)
    }

    /// A copy of this cell with its transistor threshold shifted by
    /// `dv` — the primitive behind Monte-Carlo process-variation
    /// analysis ([`crate::Library::vt_shifted`]).
    pub fn with_vt_shift(&self, dv: scpg_units::Voltage) -> Cell {
        let mut c = self.clone();
        c.model.vt = scpg_units::Voltage::new(c.model.vt.value() + dv.value());
        c
    }

    /// A renamed variant of this cell with its threshold shifted by `dv`
    /// and its area scaled by `area_factor` — the primitive behind
    /// technique-derived cells (e.g. LECTOR-style leakage-controlled
    /// gates, which trade area and speed for a raised effective V_t).
    ///
    /// The variant keeps the base cell's [`CellKind`], so it stays a
    /// drop-in replacement in any netlist position the base cell held.
    pub fn derived(&self, name: impl Into<String>, dv: Voltage, area_factor: f64) -> Cell {
        let mut c = self.with_vt_shift(dv);
        c.name = name.into();
        c.area = Area::from_um2(c.area.as_um2() * area_factor);
        c
    }

    /// Energy dissipated by one output transition at supply `v` into
    /// `c_load`, answered by the cell's selected [`PowerBackend`]:
    /// internal energy (closed form or NLDM table, scaled `∝ V²`) plus
    /// `½·(C_out + C_load)·V²`.
    pub fn switching_energy(&self, v: Voltage, c_load: Capacitance) -> Energy {
        match self.backend {
            EvalBackend::Analytical => AnalyticalBackend.switching_energy(self, v, c_load),
            EvalBackend::Table => TableBackend.switching_energy(self, v, c_load),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe(kind: CellKind, inputs: &[Logic]) -> Vec<Logic> {
        kind.eval(inputs).as_slice().to_vec()
    }

    #[test]
    fn basic_gates_truth_tables() {
        use Logic::{One as I, Zero as O};
        assert_eq!(probe(CellKind::Inv, &[O]), [I]);
        assert_eq!(probe(CellKind::Nand2, &[I, O]), [I]);
        assert_eq!(probe(CellKind::Nand2, &[I, I]), [O]);
        assert_eq!(probe(CellKind::Nor3, &[O, O, O]), [I]);
        assert_eq!(probe(CellKind::Nor3, &[O, I, O]), [O]);
        assert_eq!(probe(CellKind::Xor2, &[I, O]), [I]);
        assert_eq!(probe(CellKind::Xnor2, &[I, I]), [I]);
        assert_eq!(probe(CellKind::Aoi21, &[I, I, O]), [O]);
        assert_eq!(probe(CellKind::Aoi21, &[O, I, O]), [I]);
        assert_eq!(probe(CellKind::Oai21, &[O, O, I]), [I]);
        assert_eq!(probe(CellKind::Nand4, &[I, I, I, I]), [O]);
    }

    #[test]
    fn mux_selects_and_handles_unknown_select() {
        use Logic::{One as I, Zero as O, X};
        assert_eq!(probe(CellKind::Mux2, &[O, I, O]), [O]);
        assert_eq!(probe(CellKind::Mux2, &[O, I, I]), [I]);
        assert_eq!(probe(CellKind::Mux2, &[I, I, X]), [I], "agreeing data");
        assert_eq!(probe(CellKind::Mux2, &[O, I, X]), [X], "disagreeing data");
    }

    #[test]
    fn full_adder_truth_table() {
        for a in 0..2u8 {
            for b in 0..2u8 {
                for ci in 0..2u8 {
                    let ins = [
                        Logic::from_bool(a == 1),
                        Logic::from_bool(b == 1),
                        Logic::from_bool(ci == 1),
                    ];
                    let out = CellKind::FullAdder.eval(&ins);
                    let total = a + b + ci;
                    assert_eq!(out.as_slice()[0], Logic::from_bool(total & 1 == 1));
                    assert_eq!(out.as_slice()[1], Logic::from_bool(total >= 2));
                }
            }
        }
    }

    #[test]
    fn isolation_clamps_when_active() {
        use Logic::{One as I, Zero as O, X};
        assert_eq!(probe(CellKind::IsoAnd, &[I, I]), [O], "clamped low");
        assert_eq!(probe(CellKind::IsoAnd, &[I, O]), [I], "transparent");
        assert_eq!(probe(CellKind::IsoAnd, &[X, I]), [O], "clamps even X data");
        assert_eq!(probe(CellKind::IsoOr, &[O, I]), [I], "clamped high");
        assert_eq!(probe(CellKind::IsoOr, &[O, O]), [O]);
    }

    #[test]
    fn iso_ctl_tracks_clock_and_rail() {
        use Logic::{One as I, Zero as O, X};
        // Clock high => isolate, regardless of rail.
        assert_eq!(probe(CellKind::IsoCtl, &[I, I]), [I]);
        assert_eq!(probe(CellKind::IsoCtl, &[I, X]), [I]);
        // Clock low but rail still collapsed => hold isolation (Fig. 4's
        // T_PGStart region).
        assert_eq!(probe(CellKind::IsoCtl, &[O, X]), [I]);
        assert_eq!(probe(CellKind::IsoCtl, &[O, O]), [I]);
        // Clock low and rail restored => release.
        assert_eq!(probe(CellKind::IsoCtl, &[O, I]), [O]);
    }

    #[test]
    fn header_powers_and_collapses_rail() {
        use Logic::{One as I, Zero as O, X};
        assert_eq!(probe(CellKind::Header, &[O]), [I], "PMOS on while gate low");
        assert_eq!(probe(CellKind::Header, &[I]), [X], "rail released");
    }

    #[test]
    fn ties_are_constant() {
        assert_eq!(probe(CellKind::TieHi, &[]), [Logic::One]);
        assert_eq!(probe(CellKind::TieLo, &[]), [Logic::Zero]);
    }

    #[test]
    #[should_panic(expected = "expects 2 inputs")]
    fn eval_checks_arity() {
        let _ = CellKind::Nand2.eval(&[Logic::One]);
    }

    #[test]
    fn stack_effect_orders_states() {
        let all_low = CellKind::Nand2.state_leak_factor(&[Logic::Zero, Logic::Zero]);
        let all_high = CellKind::Nand2.state_leak_factor(&[Logic::One, Logic::One]);
        let mixed = CellKind::Nand2.state_leak_factor(&[Logic::One, Logic::Zero]);
        assert!(all_low < mixed && mixed < all_high);
        assert_eq!(CellKind::TieHi.state_leak_factor(&[]), 1.0);
    }

    #[test]
    fn x_propagates_through_gates() {
        use Logic::{One as I, Zero as O, X};
        assert_eq!(probe(CellKind::And2, &[X, I]), [X]);
        assert_eq!(probe(CellKind::And2, &[X, O]), [O], "0 controls AND");
        assert_eq!(probe(CellKind::Or2, &[X, I]), [I], "1 controls OR");
        assert_eq!(probe(CellKind::FullAdder, &[X, O, O]), [X, O]);
    }
}
