//! Driver/load connectivity tables and per-instance cell resolution.

use std::collections::HashMap;

use scpg_liberty::{Cell, Library};

use crate::error::NetlistError;
use crate::netlist::{InstId, NetId, Netlist};

/// A reference to one pin of one instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PinRef {
    /// The instance.
    pub inst: InstId,
    /// Pin position within the instance's connection list.
    pub pin: usize,
}

/// Resolved connectivity: which pin drives each net, and which pins read it.
///
/// Built once per analysis via [`Netlist::connectivity`]; the simulator,
/// STA and the SCPG transform all walk these tables instead of rescanning
/// instances.
#[derive(Debug, Clone)]
pub struct Connectivity {
    drivers: Vec<Option<PinRef>>,
    loads: Vec<Vec<PinRef>>,
    /// Per-instance number of input pins (outputs follow).
    num_inputs: Vec<usize>,
}

impl Connectivity {
    pub(crate) fn build(nl: &Netlist, lib: &Library) -> Result<Self, NetlistError> {
        let mut drivers: Vec<Option<PinRef>> = vec![None; nl.nets().len()];
        let mut loads: Vec<Vec<PinRef>> = vec![Vec::new(); nl.nets().len()];
        let mut num_inputs = Vec::with_capacity(nl.instances().len());

        for (id, inst) in nl.iter_instances() {
            let cell = lib
                .cell(inst.cell())
                .ok_or_else(|| NetlistError::UnknownCell {
                    instance: inst.name().to_string(),
                    cell: inst.cell().to_string(),
                })?;
            let kind = cell.kind();
            let expected = kind.num_inputs() + kind.num_outputs();
            if inst.connections().len() != expected {
                return Err(NetlistError::PinCountMismatch {
                    instance: inst.name().to_string(),
                    cell: inst.cell().to_string(),
                    expected,
                    found: inst.connections().len(),
                });
            }
            num_inputs.push(kind.num_inputs());
            for (pin, &net) in inst.connections().iter().enumerate() {
                let r = PinRef { inst: id, pin };
                if pin < kind.num_inputs() {
                    loads[net.index()].push(r);
                } else {
                    let slot = &mut drivers[net.index()];
                    if slot.is_some() {
                        return Err(NetlistError::MultipleDrivers {
                            net: nl.net(net).name().to_string(),
                        });
                    }
                    *slot = Some(r);
                }
            }
        }
        Ok(Self {
            drivers,
            loads,
            num_inputs,
        })
    }

    /// The pin driving `net`, or `None` for primary inputs / floating nets.
    pub fn driver(&self, net: NetId) -> Option<PinRef> {
        self.drivers[net.index()]
    }

    /// The input pins reading `net`.
    pub fn loads(&self, net: NetId) -> &[PinRef] {
        &self.loads[net.index()]
    }

    /// Number of input pins of `inst` (its outputs start at this index).
    pub fn num_inputs(&self, inst: InstId) -> usize {
        self.num_inputs[inst.index()]
    }

    /// `true` when `pin` of `inst` is an output pin.
    pub fn is_output_pin(&self, pin: PinRef) -> bool {
        pin.pin >= self.num_inputs(pin.inst)
    }

    /// Fan-out count of `net`.
    pub fn fanout(&self, net: NetId) -> usize {
        self.loads[net.index()].len()
    }
}

/// Every instance's library cell, looked up once: the distinct cells in
/// first-use order and, per instance, an index into them.
///
/// Analyses that evaluate a cell quantity at many corners (delay scale,
/// leakage) compute it once per distinct cell and index it per instance,
/// instead of resolving cell names per instance and per corner.
#[derive(Debug, Clone)]
pub struct ResolvedCells<'lib> {
    distinct: Vec<&'lib Cell>,
    of_inst: Vec<u32>,
}

impl<'lib> ResolvedCells<'lib> {
    pub(crate) fn build(nl: &Netlist, lib: &'lib Library) -> Result<Self, NetlistError> {
        let mut distinct: Vec<&'lib Cell> = Vec::new();
        let mut by_name: HashMap<&str, u32> = HashMap::new();
        let mut of_inst = Vec::with_capacity(nl.instances().len());
        for inst in nl.instances() {
            let idx = match by_name.get(inst.cell()) {
                Some(&idx) => idx,
                None => {
                    let cell = lib
                        .cell(inst.cell())
                        .ok_or_else(|| NetlistError::UnknownCell {
                            instance: inst.name().to_string(),
                            cell: inst.cell().to_string(),
                        })?;
                    let idx = distinct.len() as u32;
                    distinct.push(cell);
                    by_name.insert(inst.cell(), idx);
                    idx
                }
            };
            of_inst.push(idx);
        }
        Ok(Self { distinct, of_inst })
    }

    /// The distinct cells the netlist instantiates, in first-use order.
    pub fn distinct(&self) -> &[&'lib Cell] {
        &self.distinct
    }

    /// Position of `inst`'s cell within [`Self::distinct`].
    pub fn index(&self, inst: InstId) -> usize {
        self.of_inst[inst.index()] as usize
    }

    /// The library cell `inst` instantiates.
    pub fn cell(&self, inst: InstId) -> &'lib Cell {
        self.distinct[self.index(inst)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scpg_liberty::Library;

    #[test]
    fn tables_reflect_structure() {
        let lib = Library::ninety_nm();
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let n1 = nl.add_fresh_net();
        let y = nl.add_output("y");
        let u1 = nl.add_instance("u1", "NAND2_X1", &[a, b, n1]).unwrap();
        let u2 = nl.add_instance("u2", "INV_X1", &[n1, y]).unwrap();
        let c = nl.connectivity(&lib).unwrap();

        assert_eq!(c.driver(a), None, "primary input has no cell driver");
        assert_eq!(c.driver(n1), Some(PinRef { inst: u1, pin: 2 }));
        assert_eq!(c.loads(n1), &[PinRef { inst: u2, pin: 0 }]);
        assert_eq!(c.fanout(a), 1);
        assert_eq!(c.num_inputs(u1), 2);
        assert!(c.is_output_pin(PinRef { inst: u1, pin: 2 }));
        assert!(!c.is_output_pin(PinRef { inst: u1, pin: 1 }));
    }

    #[test]
    fn multi_output_cells_drive_two_nets() {
        let lib = Library::ninety_nm();
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let ci = nl.add_input("ci");
        let s = nl.add_output("s");
        let co = nl.add_output("co");
        let u = nl.add_instance("fa", "FA_X1", &[a, b, ci, s, co]).unwrap();
        let c = nl.connectivity(&lib).unwrap();
        assert_eq!(c.driver(s), Some(PinRef { inst: u, pin: 3 }));
        assert_eq!(c.driver(co), Some(PinRef { inst: u, pin: 4 }));
    }

    #[test]
    fn resolved_cells_are_distinct_in_first_use_order() {
        let lib = Library::ninety_nm();
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let n1 = nl.add_fresh_net();
        let n2 = nl.add_fresh_net();
        let y = nl.add_output("y");
        let u1 = nl.add_instance("u1", "INV_X1", &[a, n1]).unwrap();
        let u2 = nl.add_instance("u2", "NAND2_X1", &[a, n1, n2]).unwrap();
        let u3 = nl.add_instance("u3", "INV_X1", &[n2, y]).unwrap();
        let cells = nl.resolve_cells(&lib).unwrap();
        let names: Vec<&str> = cells.distinct().iter().map(|c| c.name()).collect();
        assert_eq!(names, ["INV_X1", "NAND2_X1"]);
        assert_eq!(
            (cells.index(u1), cells.index(u2), cells.index(u3)),
            (0, 1, 0)
        );
        assert_eq!(cells.cell(u3).name(), "INV_X1");

        nl.set_cell(u2, "NOPE_X1");
        assert!(matches!(
            nl.resolve_cells(&lib),
            Err(NetlistError::UnknownCell { .. })
        ));
    }
}
