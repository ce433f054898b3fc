//! Gate-level netlist representation and structural-Verilog I/O.
//!
//! A [`Netlist`] is the common currency of this workspace: the synthesiser
//! produces one, the SCPG transform rewrites one, and the simulator, STA
//! and power engines consume one. It is a flat gate-level design — named
//! nets, cell instances whose pins connect to nets (in the pin order fixed
//! by [`scpg_liberty::CellKind`]), and top-level ports.
//!
//! Each instance carries a [`Domain`] tag. A plain design has every
//! instance in [`Domain::AlwaysOn`]; the SCPG flow's step 1 ("separate
//! combinational and sequential logic") retags the combinational cloud as
//! [`Domain::Gated`], which is exactly the information a UPF file would
//! carry in the paper's Synopsys flow.
//!
//! # Example
//!
//! ```
//! use scpg_netlist::Netlist;
//! use scpg_liberty::Library;
//!
//! let lib = Library::ninety_nm();
//! let mut nl = Netlist::new("toy");
//! let a = nl.add_input("a");
//! let b = nl.add_input("b");
//! let y = nl.add_output("y");
//! nl.add_instance("u1", "NAND2_X1", &[a, b, y])?;
//! nl.validate(&lib)?;
//! assert_eq!(nl.stats(&lib).combinational, 1);
//! # Ok::<(), scpg_netlist::NetlistError>(())
//! ```

#![warn(missing_docs)]

mod error;
mod graph;
mod netlist;
mod stats;
mod verilog;

pub use error::NetlistError;
pub use graph::{Connectivity, PinRef, ResolvedCells};
pub use netlist::{Domain, InstId, Instance, Net, NetId, Netlist, Port, PortDirection};
pub use stats::{DesignStats, DomainStats};
pub use verilog::{
    emit_verilog, emit_verilog_split, parse_verilog, parse_verilog_limited, ParseLimits,
};
