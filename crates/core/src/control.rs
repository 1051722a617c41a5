//! The control-channel protocol between controller and device.
//!
//! In-situ programming is a sequence of [`ControlMsg`]s: template writes,
//! selector/crossbar reconfiguration, header linkage edits, table lifecycle
//! and entry operations. A PISA-style device only understands
//! [`ControlMsg::LoadFullDesign`] plus entry operations — any functional
//! change swaps the whole design, which is exactly the asymmetry Table 1
//! measures.
//!
//! On the channel a message is one binary frame ([`crate::wire`]); its
//! length, [`ControlMsg::payload_bytes`], is what the cost model prices.
//! serde stays for the JSON artifacts (designs and plans on disk).

use ipsa_netpkt::header::HeaderType;
use ipsa_netpkt::packet::Packet;
use serde::{Deserialize, Serialize};

use crate::action::ActionDef;
use crate::error::CoreError;
use crate::pipeline_cfg::SelectorConfig;
use crate::table::{ActionCall, KeyMatch, TableDef, TableEntry};
use crate::template::{CompiledDesign, TspTemplate};

/// One control-plane message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ControlMsg {
    /// Drain the pipeline via back pressure before a structural update.
    Drain,
    /// Resume packet processing after a structural update.
    Resume,
    /// Download template parameters into a TSP slot.
    WriteTemplate {
        /// Target physical slot.
        slot: usize,
        /// The template.
        template: TspTemplate,
    },
    /// Clear a TSP slot (stage deletion).
    ClearSlot {
        /// Target physical slot.
        slot: usize,
    },
    /// Reconfigure the elastic-pipeline selector.
    SetSelector(SelectorConfig),
    /// Reconfigure one slot's crossbar connections.
    ConnectCrossbar {
        /// Target slot.
        slot: usize,
        /// Reachable memory blocks.
        blocks: Vec<usize>,
    },
    /// Register a header type (new protocol).
    RegisterHeader(HeaderType),
    /// Declare which header type starts every packet.
    SetFirstHeader(String),
    /// Remove a header type.
    UnregisterHeader(String),
    /// Add a parse edge (`link_header`).
    LinkHeader {
        /// Predecessor header.
        pre: String,
        /// Successor header.
        next: String,
        /// Selector tag.
        tag: u128,
    },
    /// Remove parse edges from `pre` to `next`.
    UnlinkHeader {
        /// Predecessor header.
        pre: String,
        /// Successor header.
        next: String,
    },
    /// Define (or replace) an action.
    DefineAction(ActionDef),
    /// Remove an action.
    RemoveAction(String),
    /// Declare metadata fields `(name, bits)`.
    DefineMetadata(Vec<(String, usize)>),
    /// Create a table bound to pre-allocated memory blocks.
    CreateTable {
        /// The schema.
        def: TableDef,
        /// Blocks the packing solver assigned.
        blocks: Vec<usize>,
    },
    /// Destroy a table and recycle its blocks.
    DestroyTable(String),
    /// Migrate a table's contents to a new set of blocks (a logical stage
    /// moved to another crossbar cluster, Sec. 2.4). The old blocks are
    /// recycled after the copy; entries and counters survive.
    MigrateTable {
        /// Table name.
        table: String,
        /// Destination blocks (same count and kind as the current ones).
        blocks: Vec<usize>,
    },
    /// Insert (or replace) an entry.
    AddEntry {
        /// Table name.
        table: String,
        /// The entry.
        entry: TableEntry,
    },
    /// Delete an entry by key.
    DelEntry {
        /// Table name.
        table: String,
        /// Key of the entry to delete.
        key: Vec<KeyMatch>,
    },
    /// Change a table's default action.
    SetDefaultAction {
        /// Table name.
        table: String,
        /// New default.
        action: ActionCall,
    },
    /// PISA-style whole-design swap.
    LoadFullDesign(Box<CompiledDesign>),
}

impl ControlMsg {
    /// Size in bytes of the message's wire frame ([`crate::wire`]) — the
    /// unit of the control-channel communication-cost model. Counted by
    /// running the encoder into a byte counter: no allocation.
    pub fn payload_bytes(&self) -> usize {
        crate::wire::encoded_len(self)
    }

    /// True for messages that change pipeline *structure* (these require a
    /// drained pipeline on an IPSA device).
    pub fn is_structural(&self) -> bool {
        matches!(
            self,
            ControlMsg::WriteTemplate { .. }
                | ControlMsg::ClearSlot { .. }
                | ControlMsg::SetSelector(_)
                | ControlMsg::ConnectCrossbar { .. }
                | ControlMsg::MigrateTable { .. }
                | ControlMsg::LoadFullDesign(_)
        )
    }

    /// True for pure table-entry operations. A batch of only these opens
    /// no control-plane epoch: the device's compiled fast path reads rows in
    /// place, and entry churn cannot change its dataflow facts (they
    /// quantify over every registered action and every entry). Any other
    /// message opens an epoch.
    pub fn is_entry_op(&self) -> bool {
        matches!(
            self,
            ControlMsg::AddEntry { .. }
                | ControlMsg::DelEntry { .. }
                | ControlMsg::SetDefaultAction { .. }
        )
    }
}

/// Expands a compiled design into the full message sequence that programs a
/// blank IPSA device: headers (their implicit parsers carry the parse
/// edges), metadata, actions, tables with their block allocations, TSP
/// templates, crossbar connections, and the selector — bracketed by
/// `Drain`/`Resume`.
pub fn full_install_msgs(design: &CompiledDesign) -> Vec<ControlMsg> {
    let mut msgs = vec![ControlMsg::Drain];
    for ty in design.linkage.iter() {
        msgs.push(ControlMsg::RegisterHeader(ty.clone()));
    }
    if let Some(first) = design.linkage.first() {
        msgs.push(ControlMsg::SetFirstHeader(first.to_string()));
    }
    if !design.metadata.is_empty() {
        msgs.push(ControlMsg::DefineMetadata(design.metadata.clone()));
    }
    for a in design.actions.values() {
        msgs.push(ControlMsg::DefineAction(a.clone()));
    }
    for def in design.tables.values() {
        msgs.push(ControlMsg::CreateTable {
            def: def.clone(),
            blocks: design
                .table_alloc
                .get(&def.name)
                .cloned()
                .unwrap_or_default(),
        });
    }
    for (slot, t) in design.programmed() {
        msgs.push(ControlMsg::WriteTemplate {
            slot,
            template: t.clone(),
        });
    }
    for (slot, blocks) in &design.crossbar {
        msgs.push(ControlMsg::ConnectCrossbar {
            slot: *slot,
            blocks: blocks.clone(),
        });
    }
    msgs.push(ControlMsg::SetSelector(design.selector.clone()));
    msgs.push(ControlMsg::Resume);
    msgs
}

/// Outcome of applying a batch of control messages.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ApplyReport {
    /// Messages applied.
    pub msgs: usize,
    /// Total wire-frame bytes transferred ([`ControlMsg::payload_bytes`]).
    pub bytes: usize,
    /// Simulated load time (µs) under the device's cost model — the t_L of
    /// Table 1.
    pub load_us: f64,
    /// Simulated pipeline stall (µs): the drain→resume window only.
    pub stall_us: f64,
    /// Table entries (re)populated as part of the batch.
    pub entries_written: usize,
}

impl ApplyReport {
    /// Merges another report into this one.
    pub fn merge(&mut self, other: &ApplyReport) {
        self.msgs += other.msgs;
        self.bytes += other.bytes;
        self.load_us += other.load_us;
        self.stall_us += other.stall_us;
        self.entries_written += other.entries_written;
    }
}

/// A programmable data-plane device, as the controller sees it.
pub trait Device {
    /// Human-readable device name (`ipbm`, `pisa-bm`, ...).
    fn name(&self) -> &str;

    /// Applies a batch of control messages atomically, returning the cost
    /// report. Devices reject messages they architecturally cannot support
    /// (e.g. a PISA device receiving `WriteTemplate`).
    fn apply(&mut self, msgs: &[ControlMsg]) -> Result<ApplyReport, CoreError>;

    /// Queues a packet for processing (its ingress port rides in
    /// `packet.meta.ingress_port`).
    fn inject(&mut self, packet: Packet);

    /// Processes everything queued and returns emitted packets in order.
    fn run(&mut self) -> Vec<Packet>;

    /// Processes everything queued through the device's batch-optimized
    /// path, when it has one (e.g. a compiled fast path rebuilt per
    /// control-plane epoch). Semantically identical to [`Device::run`];
    /// the default implementation simply delegates to it.
    fn run_batch(&mut self) -> Vec<Packet> {
        self.run()
    }

    /// Number of packets currently queued and unprocessed.
    fn pending(&self) -> usize;

    /// Ignored by every device: a device derives its dataflow facts from
    /// its own state when it compiles (`ipsa_core::facts::derive`). Kept
    /// only because the benchmark's device wrapper forwards it; a later
    /// change to the benchmark deletes both.
    fn install_facts(&mut self, facts: Option<crate::facts::ProgramFacts>) {
        let _ = facts;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_sizes_scale_with_content() {
        let small = ControlMsg::Drain;
        let big = ControlMsg::RegisterHeader(ipsa_netpkt::protocols::ipv6());
        assert!(big.payload_bytes() > small.payload_bytes());
        assert!(small.payload_bytes() > 0);
    }

    #[test]
    fn structural_classification() {
        assert!(ControlMsg::WriteTemplate {
            slot: 0,
            template: TspTemplate::passthrough("s"),
        }
        .is_structural());
        assert!(!ControlMsg::AddEntry {
            table: "t".into(),
            entry: TableEntry::exact(vec![1], ActionCall::no_action()),
        }
        .is_structural());
        assert!(!ControlMsg::LinkHeader {
            pre: "ipv6".into(),
            next: "srh".into(),
            tag: 43,
        }
        .is_structural());
    }

    #[test]
    fn report_merge_accumulates() {
        let mut a = ApplyReport {
            msgs: 1,
            bytes: 10,
            load_us: 5.0,
            stall_us: 1.0,
            entries_written: 2,
        };
        a.merge(&ApplyReport {
            msgs: 2,
            bytes: 20,
            load_us: 7.0,
            stall_us: 0.5,
            entries_written: 3,
        });
        assert_eq!(a.msgs, 3);
        assert_eq!(a.bytes, 30);
        assert_eq!(a.entries_written, 5);
        assert!((a.load_us - 12.0).abs() < 1e-9);
    }

    #[test]
    fn control_msgs_serialize_roundtrip() {
        let msgs = vec![
            ControlMsg::LinkHeader {
                pre: "ipv6".into(),
                next: "srh".into(),
                tag: 43,
            },
            ControlMsg::SetSelector(SelectorConfig::all_bypass(4)),
        ];
        let j = serde_json::to_string(&msgs).unwrap();
        let back: Vec<ControlMsg> = serde_json::from_str(&j).unwrap();
        assert_eq!(back, msgs);
    }
}
