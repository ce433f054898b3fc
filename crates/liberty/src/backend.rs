//! The timing/power evaluation seam.
//!
//! Two physics backends answer the same three questions about a cell —
//! propagation delay, leakage current, switching energy:
//!
//! * [`AnalyticalBackend`] — the synthetic kit's closed forms: EKV
//!   delay/leakage scaling over an intrinsic-plus-`R·C` delay model.
//! * [`TableBackend`] — NLDM lookup: bilinear interpolation with clamped
//!   extrapolation over per-cell (input transition × output load) tables
//!   ([`crate::NldmTable`]), voltage-scaled from the library's nominal
//!   characterisation point. Quantities a cell carries no table for fall
//!   back to the analytical forms, so a partially-tabulated library is
//!   still fully evaluable.
//!
//! Downstream consumers (`scpg-sta` delay arcs, `scpg-power` leakage,
//! `crates/technique` prepare flows, `scpg::service` analysis builders)
//! never pick a backend themselves: they call [`Cell::delay`],
//! [`Cell::leakage_current`] and [`Cell::switching_energy`], which
//! dispatch on the cell's [`EvalBackend`] selection
//! ([`crate::Library::with_backend`] flips a whole library per design).

use scpg_units::{Capacitance, Current, Energy, Temperature, Time, Voltage};

use crate::cell::Cell;

/// Which physics backend a cell evaluates through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EvalBackend {
    /// Closed-form EKV/alpha-power evaluation (the synthetic kit).
    #[default]
    Analytical,
    /// NLDM table lookup with analytical fallback for missing tables.
    Table,
}

impl EvalBackend {
    /// The stable wire name (`"analytical"` / `"table"`).
    pub fn as_str(self) -> &'static str {
        match self {
            EvalBackend::Analytical => "analytical",
            EvalBackend::Table => "table",
        }
    }

    /// Parses the wire name accepted by design specs.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "analytical" => Some(EvalBackend::Analytical),
            "table" => Some(EvalBackend::Table),
            _ => None,
        }
    }
}

/// Answers propagation-delay queries for one cell.
pub trait TimingBackend {
    /// Propagation delay of `cell` driving `c_load` at the cell's
    /// characterisation voltage; [`Cell::delay`] carries it to other
    /// supplies with [`crate::TransistorModel::scale_delay`].
    fn delay_base(&self, cell: &Cell, c_load: Capacitance) -> Time;
}

/// Answers leakage and switching-energy queries for one cell.
pub trait PowerBackend {
    /// Average-state leakage current of `cell` at `(v, t)`.
    fn leakage_current(&self, cell: &Cell, v: Voltage, t: Temperature) -> Current;
    /// Energy of one output transition of `cell` at `v` into `c_load`.
    fn switching_energy(&self, cell: &Cell, v: Voltage, c_load: Capacitance) -> Energy;
}

/// The synthetic kit's closed-form evaluation.
pub struct AnalyticalBackend;

impl TimingBackend for AnalyticalBackend {
    fn delay_base(&self, cell: &Cell, c_load: Capacitance) -> Time {
        Time::new(cell.intrinsic_delay().value() + cell.drive_resistance().value() * c_load.value())
    }
}

impl PowerBackend for AnalyticalBackend {
    fn leakage_current(&self, cell: &Cell, v: Voltage, t: Temperature) -> Current {
        Current::new(cell.leak_weight() * cell.model().leakage_current(v, t).value())
    }

    fn switching_energy(&self, cell: &Cell, v: Voltage, c_load: Capacitance) -> Energy {
        let vr = v.as_v() / cell.model().v_char.as_v();
        let internal = cell.internal_energy().value() * vr * vr;
        let cap = 0.5 * (cell.output_cap().value() + c_load.value()) * v.as_v() * v.as_v();
        Energy::new(internal + cap)
    }
}

/// NLDM table lookup, voltage-scaled from the characterisation point.
pub struct TableBackend;

impl TimingBackend for TableBackend {
    fn delay_base(&self, cell: &Cell, c_load: Capacitance) -> Time {
        match cell.tables().and_then(|t| t.delay.as_ref().map(|d| (t, d))) {
            // Table values are characterised at the library's nominal
            // voltage (the model's v_char); the EKV law carries them to
            // other supplies exactly as it does intrinsic delays.
            Some((tables, table)) => Time::new(table.lookup(tables.nominal_slew, c_load.value())),
            None => AnalyticalBackend.delay_base(cell, c_load),
        }
    }
}

impl PowerBackend for TableBackend {
    fn leakage_current(&self, cell: &Cell, v: Voltage, t: Temperature) -> Current {
        // Liberty leakage is a per-cell scalar (`cell_leakage_power`),
        // folded into the cell's leak weight at admission; both backends
        // therefore agree on leakage by construction and differences
        // between them come from the delay/energy tables.
        AnalyticalBackend.leakage_current(cell, v, t)
    }

    fn switching_energy(&self, cell: &Cell, v: Voltage, c_load: Capacitance) -> Energy {
        match cell
            .tables()
            .and_then(|t| t.energy.as_ref().map(|e| (t, e)))
        {
            Some((tables, table)) => {
                // Internal energy from the table (V²-scaled), plus the
                // load-charging term the tables deliberately exclude.
                let vr = v.as_v() / cell.model().v_char.as_v();
                let internal = table.lookup(tables.nominal_slew, c_load.value()) * vr * vr;
                let cap = 0.5 * (cell.output_cap().value() + c_load.value()) * v.as_v() * v.as_v();
                Energy::new(internal + cap)
            }
            None => AnalyticalBackend.switching_energy(cell, v, c_load),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nldm::{CellTables, NldmTable};
    use crate::Library;
    use std::sync::Arc;

    #[test]
    fn backend_names_round_trip() {
        for be in [EvalBackend::Analytical, EvalBackend::Table] {
            assert_eq!(EvalBackend::parse(be.as_str()), Some(be));
        }
        assert_eq!(EvalBackend::parse("nldm"), None);
    }

    #[test]
    fn table_cells_without_tables_fall_back_to_analytical() {
        let lib = Library::ninety_nm();
        let tab = lib.with_backend(EvalBackend::Table);
        let v = lib.char_voltage();
        let t = Temperature::NOMINAL;
        let c = Capacitance::from_ff(5.0);
        for cell in lib.cells() {
            let twin = tab.expect_cell(cell.name());
            assert_eq!(twin.backend(), EvalBackend::Table);
            assert_eq!(twin.delay(v, c), cell.delay(v, c), "{}", cell.name());
            assert_eq!(
                twin.leakage_current(v, t),
                cell.leakage_current(v, t),
                "{}",
                cell.name()
            );
            assert_eq!(
                twin.switching_energy(v, c),
                cell.switching_energy(v, c),
                "{}",
                cell.name()
            );
        }
    }

    #[test]
    fn table_backend_reads_the_tables() {
        let lib = Library::ninety_nm();
        let v = lib.char_voltage();
        let base = lib.expect_cell("INV_X1").clone();
        // A flat 7 ps delay table and a flat 2 fJ energy table: the table
        // backend must answer those, not the analytical forms.
        let tables = Arc::new(CellTables {
            delay: Some(NldmTable::new(vec![1e-11], vec![0.0, 1e-13], vec![7e-12, 7e-12]).unwrap()),
            energy: Some(
                NldmTable::new(vec![1e-11], vec![0.0, 1e-13], vec![2e-15, 2e-15]).unwrap(),
            ),
            nominal_slew: 1e-11,
        });
        let cell = base
            .clone()
            .with_tables(tables)
            .with_backend(EvalBackend::Table);
        let d = cell.delay(v, Capacitance::from_ff(0.05));
        assert!((d.as_ps() - 7.0).abs() < 1e-9, "{d:?}");
        let e = cell.switching_energy(v, Capacitance::ZERO);
        let cap = 0.5 * base.output_cap().value() * v.as_v() * v.as_v();
        assert!((e.value() - (2e-15 + cap)).abs() < 1e-24, "{e:?}");
        // Analytical twin of the same cell ignores the tables.
        let ana = cell.clone().with_backend(EvalBackend::Analytical);
        assert_eq!(ana.delay(v, Capacitance::from_ff(0.05)), {
            let b = base.clone();
            b.delay(v, Capacitance::from_ff(0.05))
        });
    }
}
