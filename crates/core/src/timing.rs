//! Control-channel and load-time cost model.
//!
//! Table 1's loading time t_L "contains the communication time with the
//! device"; we reproduce it with a deterministic cost model instead of a
//! physical link. The communication part is `per_msg_us` plus
//! `per_byte_us` per byte of the message's wire frame
//! ([`crate::wire`]). Two presets exist: [`CostModel::fpga`] (the hardware
//! prototypes; a PISA functional change reloads the whole FPGA design) and
//! [`CostModel::software`] (bmv2 vs ipbm; a bmv2 change restarts the
//! process). The *asymmetry* between full-reload and incremental-template
//! costs is what matters; absolute constants are calibrated to the paper's
//! magnitudes and documented in EXPERIMENTS.md.

use serde::{Deserialize, Serialize};

use crate::control::ControlMsg;

/// Deterministic cost model for applying control messages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Fixed per-message cost (driver + RTT), µs.
    pub per_msg_us: f64,
    /// Per-byte transfer cost over the message's wire frame, µs.
    pub per_byte_us: f64,
    /// Extra cost of writing one TSP template ("a few clock cycles" on the
    /// device plus configuration-path overhead), µs.
    pub template_write_us: f64,
    /// Extra cost per table entry (re)population, µs.
    pub table_entry_us: f64,
    /// Extra cost of creating/destroying a table (block binding), µs.
    pub table_setup_us: f64,
    /// Extra cost of a whole-design swap (FPGA bitstream / process restart),
    /// µs. Only `LoadFullDesign` pays this.
    pub full_reload_us: f64,
    /// Extra cost of selector or crossbar reconfiguration, µs.
    pub reconfig_us: f64,
}

impl CostModel {
    /// Hardware-prototype preset (Alveo U280 pair from the paper).
    pub fn fpga() -> Self {
        CostModel {
            per_msg_us: 120.0,
            per_byte_us: 0.08,
            template_write_us: 900.0,
            table_entry_us: 18.0,
            table_setup_us: 450.0,
            full_reload_us: 680_000.0,
            reconfig_us: 300.0,
        }
    }

    /// Software-switch preset (bmv2 vs ipbm).
    pub fn software() -> Self {
        CostModel {
            per_msg_us: 40.0,
            per_byte_us: 0.02,
            template_write_us: 250.0,
            table_entry_us: 6.0,
            table_setup_us: 150.0,
            full_reload_us: 78_000.0,
            reconfig_us: 90.0,
        }
    }

    /// Extra cost of migrating a table to new blocks: rebinding each
    /// destination block, plus copying every live row (each copied row
    /// costs one entry write). A migration used to be charged a flat
    /// `table_setup_us` regardless of how much it copied, which made the
    /// reported load time of block-moving update plans independent of
    /// table occupancy — plainly dishonest for a populated FIB.
    pub fn migrate_cost_us(&self, live_rows: usize, blocks: usize) -> f64 {
        self.table_setup_us
            + blocks as f64 * self.reconfig_us
            + live_rows as f64 * self.table_entry_us
    }

    /// Cost of one message, µs.
    ///
    /// `MigrateTable` is priced here from the message alone (destination
    /// block count, zero rows); callers that know the live table state —
    /// the CCM does — should price it with [`CostModel::migrate_cost_us`]
    /// so the per-row copy cost is included.
    pub fn msg_cost_us(&self, msg: &ControlMsg) -> f64 {
        self.sized_msg_cost_us(msg, msg.payload_bytes())
    }

    /// [`CostModel::msg_cost_us`] for a message whose
    /// [`ControlMsg::payload_bytes`] the caller already has (it reports
    /// the bytes too), so the message is sized once.
    pub fn sized_msg_cost_us(&self, msg: &ControlMsg, bytes: usize) -> f64 {
        let base = self.per_msg_us + self.per_byte_us * bytes as f64;
        let extra = match msg {
            ControlMsg::WriteTemplate { .. } | ControlMsg::ClearSlot { .. } => {
                self.template_write_us
            }
            ControlMsg::AddEntry { .. } | ControlMsg::DelEntry { .. } => self.table_entry_us,
            ControlMsg::CreateTable { .. } | ControlMsg::DestroyTable(_) => self.table_setup_us,
            ControlMsg::MigrateTable { blocks, .. } => self.migrate_cost_us(0, blocks.len()),
            ControlMsg::SetSelector(_) | ControlMsg::ConnectCrossbar { .. } => self.reconfig_us,
            ControlMsg::LoadFullDesign(design) => {
                // A full swap carries every template and rebinds every table.
                let templates = design.programmed().count() as f64;
                self.full_reload_us
                    + templates * self.template_write_us
                    + design.tables.len() as f64 * self.table_setup_us
            }
            _ => 0.0,
        };
        base + extra
    }

    /// Total load time for a batch, µs.
    pub fn batch_cost_us(&self, msgs: &[ControlMsg]) -> f64 {
        msgs.iter().map(|m| self.msg_cost_us(m)).sum()
    }
}

/// Work performed along one execution path of the data plane, in units the
/// per-packet cost model can price: traversed (programmed) slots, table
/// lookups issued, action primitives executed, and headers parsed off the
/// wire. Produced by the symbolic design evaluator (`rp4-equiv`) and priced
/// by [`PacketCostModel`] into the static per-path cost bounds `rp4-equiv`
/// reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PathWork {
    /// Programmed TSP slots the packet traversed.
    pub slots: usize,
    /// Table lookups issued (key read + match).
    pub lookups: usize,
    /// Action primitives executed (including `NoAction`).
    pub prims: usize,
    /// Headers parsed off the wire along the path.
    pub parsed_headers: usize,
}

impl PathWork {
    /// Component-wise sum (for aggregating multi-packet scenarios).
    pub fn add(&mut self, other: &PathWork) {
        self.slots += other.slots;
        self.lookups += other.lookups;
        self.prims += other.prims;
        self.parsed_headers += other.parsed_headers;
    }
}

/// Deterministic per-packet cost model: the data-plane complement of the
/// control-plane [`CostModel`]. Each preset pairs with the matching
/// [`CostModel`] preset; the constants are calibrated to the same
/// magnitudes (a TSP stage is "a few clock cycles", a table lookup is one
/// or more memory accesses). The absolute numbers matter less than the
/// *ordering* they induce: a path that parses more headers, issues more
/// lookups, or runs longer actions must cost more, so the worst-case bound
/// `rp4-equiv` computes is monotone in real work.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PacketCostModel {
    /// Fixed per-slot traversal cost (template fetch + matcher), ns.
    pub per_slot_ns: f64,
    /// Per-table-lookup cost (key assembly + memory access), ns.
    pub per_lookup_ns: f64,
    /// Per-primitive execution cost, ns.
    pub per_prim_ns: f64,
    /// Per-header parse/extraction cost, ns.
    pub per_parse_ns: f64,
}

impl PacketCostModel {
    /// Hardware-prototype preset (pairs with [`CostModel::fpga`]).
    pub fn fpga() -> Self {
        PacketCostModel {
            per_slot_ns: 4.0,
            per_lookup_ns: 12.0,
            per_prim_ns: 2.0,
            per_parse_ns: 6.0,
        }
    }

    /// Software-switch preset (pairs with [`CostModel::software`]).
    pub fn software() -> Self {
        PacketCostModel {
            per_slot_ns: 30.0,
            per_lookup_ns: 90.0,
            per_prim_ns: 15.0,
            per_parse_ns: 45.0,
        }
    }

    /// Static cost bound of one path, ns.
    pub fn path_cost_ns(&self, w: &PathWork) -> f64 {
        w.slots as f64 * self.per_slot_ns
            + w.lookups as f64 * self.per_lookup_ns
            + w.prims as f64 * self.per_prim_ns
            + w.parsed_headers as f64 * self.per_parse_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::{CompiledDesign, TspTemplate};

    #[test]
    fn full_reload_dwarfs_incremental() {
        let m = CostModel::fpga();
        let mut design = CompiledDesign::empty("d", 8);
        for i in 0..7 {
            design.templates[i] = Some(TspTemplate::passthrough(format!("s{i}")));
        }
        let full = m.msg_cost_us(&ControlMsg::LoadFullDesign(Box::new(design)));
        let incr = m.msg_cost_us(&ControlMsg::WriteTemplate {
            slot: 3,
            template: TspTemplate::passthrough("ecmp"),
        });
        assert!(
            full / incr > 50.0,
            "full {full} µs vs incremental {incr} µs must be ≫"
        );
    }

    #[test]
    fn costs_monotone_in_payload() {
        let m = CostModel::software();
        let small = ControlMsg::Drain;
        let large = ControlMsg::RegisterHeader(ipsa_netpkt::protocols::ipv6());
        assert!(m.msg_cost_us(&large) > m.msg_cost_us(&small));
    }

    #[test]
    fn batch_cost_is_sum() {
        let m = CostModel::software();
        let msgs = vec![ControlMsg::Drain, ControlMsg::Resume];
        let total = m.batch_cost_us(&msgs);
        let sum: f64 = msgs.iter().map(|x| m.msg_cost_us(x)).sum();
        assert!((total - sum).abs() < 1e-9);
    }

    /// The per-packet bound must be strictly monotone in every work
    /// component, or the WCET comparison `rp4-equiv` gates plans on could
    /// miss a regression.
    #[test]
    fn packet_cost_monotone_in_work() {
        for m in [PacketCostModel::fpga(), PacketCostModel::software()] {
            let base = PathWork {
                slots: 2,
                lookups: 1,
                prims: 3,
                parsed_headers: 2,
            };
            let c0 = m.path_cost_ns(&base);
            for grow in [
                PathWork { slots: 3, ..base },
                PathWork { lookups: 2, ..base },
                PathWork { prims: 4, ..base },
                PathWork {
                    parsed_headers: 3,
                    ..base
                },
            ] {
                assert!(m.path_cost_ns(&grow) > c0, "{grow:?} must cost more");
            }
        }
        let mut sum = PathWork::default();
        sum.add(&PathWork {
            slots: 1,
            lookups: 2,
            prims: 3,
            parsed_headers: 4,
        });
        assert_eq!(sum.lookups, 2);
        assert_eq!(sum.parsed_headers, 4);
    }

    /// Regression: a migration copies every live row and rebinds every
    /// destination block, so its cost must scale with both — the pre-fix
    /// model charged the same flat `table_setup_us` whether the table held
    /// zero rows or thousands.
    #[test]
    fn migrate_cost_scales_with_rows_and_blocks() {
        let m = CostModel::fpga();
        let empty = m.migrate_cost_us(0, 1);
        let populated = m.migrate_cost_us(500, 1);
        assert!(
            populated > empty + 499.0 * m.table_entry_us,
            "row copies must be charged: empty {empty}, populated {populated}"
        );
        assert!(
            m.migrate_cost_us(0, 4) > m.migrate_cost_us(0, 1),
            "block rebinds must be charged"
        );
        // The stateless message-level price still scales with block count.
        let one = m.msg_cost_us(&ControlMsg::MigrateTable {
            table: "t".into(),
            blocks: vec![0],
        });
        let four = m.msg_cost_us(&ControlMsg::MigrateTable {
            table: "t".into(),
            blocks: vec![0, 1, 2, 3],
        });
        assert!(four > one);
    }
}
