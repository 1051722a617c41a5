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

use std::collections::BTreeSet;

use ipsa_netpkt::header::{HeaderType, ParserTransition};
use ipsa_netpkt::linkage::HeaderLinkage;
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

/// The message sequence that programs a blank IPSA device with `design`:
/// the [`design_diff`] from an empty design with as many slots.
pub fn full_install_msgs(design: &CompiledDesign) -> Vec<ControlMsg> {
    design_diff(&CompiledDesign::empty("", design.templates.len()), design)
}

/// Computes the control messages that turn a device running `from` into
/// one running `to` — the one design→message diff. Installs, in-situ
/// updates and rollbacks (the paper's "reliable failback", Sec. 1) all send
/// it.
///
/// Order: `Drain`; headers (register new and changed, relink, unregister
/// removed, set the first header); new metadata (additive, devices ignore
/// re-declarations); actions; destroy removed and changed tables; migrate
/// moved tables; create new and changed tables; each slot's template and
/// crossbar; the selector; `Resume`. Destroys and migrations come before
/// creates, so a created table may take blocks another table vacates in the
/// same batch.
///
/// A table with the same definition on both sides keeps its entries: it is
/// untouched, or migrated when its blocks differ. Identical designs diff to
/// an *empty* batch — no `Drain`/`Resume`, so a no-op update never pauses
/// traffic.
pub fn design_diff(from: &CompiledDesign, to: &CompiledDesign) -> Vec<ControlMsg> {
    let mut msgs = vec![ControlMsg::Drain];

    let mut relinks = Vec::new();
    for h in to.linkage.iter() {
        let old = from.linkage.get(&h.name);
        if old == Some(h) {
            continue;
        }
        match old.and_then(|old| relink(old, h, &to.linkage)) {
            Some(edits) => relinks.extend(edits),
            // Register replaces wholesale, including its parser transitions.
            None => msgs.push(ControlMsg::RegisterHeader(h.clone())),
        }
    }
    msgs.extend(relinks);
    for h in from.linkage.iter() {
        if to.linkage.get(&h.name).is_none() {
            msgs.push(ControlMsg::UnregisterHeader(h.name.clone()));
        }
    }
    if to.linkage.first() != from.linkage.first() {
        if let Some(first) = to.linkage.first() {
            msgs.push(ControlMsg::SetFirstHeader(first.to_string()));
        }
    }

    let new_meta: Vec<(String, usize)> = to
        .metadata
        .iter()
        .filter(|(n, _)| !from.metadata.iter().any(|(m, _)| m == n))
        .cloned()
        .collect();
    if !new_meta.is_empty() {
        msgs.push(ControlMsg::DefineMetadata(new_meta));
    }

    for (name, def) in &to.actions {
        if from.actions.get(name) != Some(def) {
            msgs.push(ControlMsg::DefineAction(def.clone()));
        }
    }
    for name in from.actions.keys() {
        if !to.actions.contains_key(name) {
            msgs.push(ControlMsg::RemoveAction(name.clone()));
        }
    }

    let blocks = |name: &str| to.table_alloc.get(name).cloned().unwrap_or_default();
    for (name, def) in &from.tables {
        if to.tables.get(name) != Some(def) {
            msgs.push(ControlMsg::DestroyTable(name.clone()));
        }
    }
    for (name, def) in &to.tables {
        if from.tables.get(name) == Some(def)
            && from.table_alloc.get(name) != to.table_alloc.get(name)
        {
            msgs.push(ControlMsg::MigrateTable {
                table: name.clone(),
                blocks: blocks(name),
            });
        }
    }
    for (name, def) in &to.tables {
        if from.tables.get(name) != Some(def) {
            msgs.push(ControlMsg::CreateTable {
                def: def.clone(),
                blocks: blocks(name),
            });
        }
    }

    for slot in 0..to.templates.len().max(from.templates.len()) {
        let t = to.templates.get(slot).and_then(Option::as_ref);
        if from.templates.get(slot).and_then(Option::as_ref) != t {
            msgs.push(match t {
                Some(t) => ControlMsg::WriteTemplate {
                    slot,
                    template: t.clone(),
                },
                None => ControlMsg::ClearSlot { slot },
            });
        }
        let x = to.crossbar.get(&slot);
        if from.crossbar.get(&slot) != x {
            msgs.push(ControlMsg::ConnectCrossbar {
                slot,
                blocks: x.cloned().unwrap_or_default(),
            });
        }
    }
    if from.selector != to.selector {
        msgs.push(ControlMsg::SetSelector(to.selector.clone()));
    }
    if msgs.len() == 1 {
        return Vec::new();
    }
    msgs.push(ControlMsg::Resume);
    msgs
}

/// The `UnlinkHeader`/`LinkHeader` edits that turn header `old` into `new`
/// when only their parser transitions differ: unlink every successor one
/// of whose edges `new` lacks (an unlink drops all edges to it), then link
/// `new`'s missing edges in order (a link appends). `None` when replaying
/// those edits would not give exactly `new`'s transitions in order, or a
/// link would name a header `linkage` lacks — the header is then
/// re-registered.
fn relink(old: &HeaderType, new: &HeaderType, linkage: &HeaderLinkage) -> Option<Vec<ControlMsg>> {
    let (Some(op), Some(np)) = (&old.parser, &new.parser) else {
        return None;
    };
    let mut rest = old.clone();
    rest.parser = new.parser.clone();
    if op.selector_fields != np.selector_fields || rest != *new {
        return None;
    }
    let gone: BTreeSet<&str> = op
        .transitions
        .iter()
        .filter(|t| !np.transitions.contains(t))
        .map(|t| t.next.as_str())
        .collect();
    let mut edits: Vec<ControlMsg> = gone
        .iter()
        .map(|next| ControlMsg::UnlinkHeader {
            pre: new.name.clone(),
            next: next.to_string(),
        })
        .collect();
    let mut replay: Vec<&ParserTransition> = op
        .transitions
        .iter()
        .filter(|t| !gone.contains(t.next.as_str()))
        .collect();
    for t in &np.transitions {
        // A link whose tag is taken is a no-op or an error; either way it
        // adds nothing, and the comparison below catches the difference.
        if replay.iter().all(|r| r.tag != t.tag) {
            linkage.get(&t.next)?;
            replay.push(t);
            edits.push(ControlMsg::LinkHeader {
                pre: new.name.clone(),
                next: t.next.clone(),
                tag: t.tag,
            });
        }
    }
    replay.into_iter().eq(&np.transitions).then_some(edits)
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
    fn header_transitions_relink_when_links_replay_them() {
        let mut from = CompiledDesign::empty("d", 1);
        from.linkage = HeaderLinkage::standard();
        let mut to = from.clone();
        to.linkage.link("ipv4", "ipv6", 41).unwrap();
        let link = ControlMsg::LinkHeader {
            pre: "ipv4".into(),
            next: "ipv6".into(),
            tag: 41,
        };
        assert_eq!(
            design_diff(&from, &to),
            vec![ControlMsg::Drain, link, ControlMsg::Resume]
        );
        let unlink = ControlMsg::UnlinkHeader {
            pre: "ipv4".into(),
            next: "ipv6".into(),
        };
        assert_eq!(
            design_diff(&to, &from),
            vec![ControlMsg::Drain, unlink, ControlMsg::Resume]
        );

        // Links append, so a new order cannot be replayed; nor can an edge
        // to a header the target does not register. Both re-register.
        let mut reordered = from.linkage.get("ethernet").unwrap().clone();
        reordered.parser.as_mut().unwrap().transitions.reverse();
        let mut dangling = from.linkage.get("ipv4").unwrap().clone();
        dangling
            .parser
            .as_mut()
            .unwrap()
            .transitions
            .push(ParserTransition {
                tag: 99,
                next: "ghost".into(),
            });
        for ty in [reordered, dangling] {
            let mut to = from.clone();
            to.linkage.register(ty.clone());
            assert_eq!(
                design_diff(&from, &to),
                vec![
                    ControlMsg::Drain,
                    ControlMsg::RegisterHeader(ty),
                    ControlMsg::Resume
                ]
            );
        }
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
