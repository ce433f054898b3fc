//! A synthetic 90 nm-class standard-cell library.
//!
//! The paper characterises two designs with the *Synopsys 90 nm Education
//! Kit* — a licensed PDK that cannot be redistributed. This crate plays
//! that role: it defines a standard-cell library whose cells carry
//!
//! * a logic function ([`CellKind`]) evaluated over 4-state values
//!   ([`Logic`]),
//! * area, pin capacitances and drive resistance,
//! * an intrinsic delay and a supply-voltage delay-scaling law,
//! * state-dependent sub-threshold + gate leakage,
//! * internal switching energy,
//!
//! all derived from a shared transistor model ([`TransistorModel`], an
//! EKV-style interpolation that is exponential in weak inversion and
//! quadratic in strong inversion, so a single law covers the paper's
//! 0.15 V – 0.9 V sub-threshold sweeps *and* the 0.6 V operating point).
//!
//! The flagship constructor is [`Library::ninety_nm`], calibrated so that
//! the two case studies land in the paper's power/energy ballpark (see
//! `DESIGN.md` §6 for the calibration anchors).
//!
//! # Example
//!
//! ```
//! use scpg_liberty::{Library, Logic};
//! use scpg_units::Voltage;
//!
//! let lib = Library::ninety_nm();
//! let nand = lib.cell("NAND2_X1").expect("kit cell");
//! let out = nand.kind().eval(&[Logic::One, Logic::One]);
//! assert_eq!(out.as_slice(), &[Logic::Zero]);
//!
//! // Leakage grows with supply voltage (DIBL).
//! let leak_low = nand.leakage_current(Voltage::from_mv(600.0), Default::default());
//! let leak_high = nand.leakage_current(Voltage::from_mv(900.0), Default::default());
//! assert!(leak_high.value() > leak_low.value());
//! ```

#![warn(missing_docs)]

mod backend;
mod cell;
mod headers;
pub mod liberty_text;
mod library;
mod logic;
mod model;
mod nldm;

pub use backend::{AnalyticalBackend, EvalBackend, PowerBackend, TableBackend, TimingBackend};
pub use cell::{Cell, CellKind, Outputs, PinDirection, SequentialKind};
pub use headers::{HeaderCell, HeaderSize};
pub use liberty_text::{parse_liberty, write_liberty, LibertyError, LibertySummary, ParsedLiberty};
pub use library::{Library, LibraryBuilder, ProcessCorner, PvtCorner};
pub use logic::Logic;
pub use model::TransistorModel;
pub use nldm::{table_lookups_total, CellTables, NldmTable};
