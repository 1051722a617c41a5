//! Fault containment for the runtime: the transactional-apply journal, the
//! shard supervisor's fault taxonomy, and a deterministic fault-injection
//! plan for exercising every recovery path from tests.
//!
//! The paper's promise is *hitless* in-situ reprogramming — "the gap can be
//! filled seamlessly without stopping the pipeline" (Sec. 4.3). That
//! promise dies the moment a fault strands the device half-programmed or a
//! wedged shard worker panics the whole process, so this module gives the
//! runtime the two disciplines production switch OSes use at the
//! control/data-plane boundary:
//!
//! * **Atomicity** — `ApplyJournal` records the undo of every control
//!   message before it applies and replays the log in reverse order on a
//!   mid-batch failure, making `Device::apply` all-or-nothing. Its cost is
//!   proportional to what the batch names, not to what the device holds:
//!   an entry message journals one row, a structural table message the one
//!   table it names; only a whole-design load snapshots the whole SM.
//!   Pool blocks are copy-on-write, so neither image copies block bytes:
//!   it shares them, and a block pays for its copy only when the batch
//!   writes it.
//! * **Isolation** — [`ShardFault`]/[`SupervisorStats`] type the shard
//!   supervisor's quarantine decisions, replacing the former process-wide
//!   `panic!` on any worker hang or death.
//!
//! [`FaultPlan`] is the seeded-test surface that drives both: kill shard N
//! at barrier K, delay a barrier reply, poison an epoch's compile, or fail
//! the M-th control message of a batch.

use std::collections::HashSet;
use std::time::Duration;

use ipsa_core::action::ActionDef;
use ipsa_core::control::ControlMsg;
use ipsa_core::crossbar::Crossbar;
use ipsa_core::error::CoreError;
use ipsa_core::pipeline_cfg::SelectorConfig;
use ipsa_core::table::{ActionCall, KeyMatch};
use ipsa_core::template::TspTemplate;
use ipsa_netpkt::linkage::HeaderLinkage;
use serde::Serialize;

use crate::pm::PipelineModule;
use crate::sm::{EntryUndo, StorageModule, TableImage};

/// One journaled undo record. Records replay in reverse capture order, so
/// each one finds the device exactly as the message it undoes left it.
///
/// The pipeline components and the SM's metadata and action bindings are
/// whole pre-images, captured at most once per component per journal: the
/// first capture already holds the starting state. Tables are journaled per
/// message instead, at the grain of the change ([`EntryUndo`],
/// [`TableImage`]), so a record is only ever as large as what its message
/// names.
enum UndoOp {
    /// Template previously occupying a TSP slot.
    Slot {
        slot: usize,
        prev: Option<TspTemplate>,
    },
    /// Selector configuration.
    Selector(SelectorConfig),
    /// Crossbar wiring.
    Crossbar(Box<Crossbar>),
    /// Drain flag.
    Draining(bool),
    /// Header registry and parse graph.
    Linkage(Box<HeaderLinkage>),
    /// Declared metadata fields.
    Metadata(Vec<(String, usize)>),
    /// One action-registry binding.
    Action {
        name: String,
        prev: Option<ActionDef>,
    },
    /// The inverse of one `AddEntry`/`DelEntry`: the touched row and its
    /// byte range in the table's blocks. Kept inline, bytes in the
    /// journal's log: see [`ipsa_core::table::RowCheckpoint`] for why an
    /// entry record allocates nothing of its own.
    Entry(EntryUndo),
    /// A table's default action before a `SetDefaultAction`.
    DefaultAction { idx: usize, prev: ActionCall },
    /// The one table a `CreateTable`/`DestroyTable`/`MigrateTable` names.
    Table(Box<TableImage>),
    /// The whole storage module, pool included (its blocks shared, not
    /// copied) — captured only by `LoadFullDesign`, which replaces all of
    /// it.
    SmWhole(Box<StorageModule>),
}

/// Undo journal for one control batch, or for every batch of a staged
/// transaction (transactional apply).
///
/// `record` is called once per message *before* it applies.
#[derive(Default)]
pub(crate) struct ApplyJournal {
    ops: Vec<UndoOp>,
    /// Block bytes of the rows entry records touch.
    bytes: Vec<u8>,
    slots: HashSet<usize>,
    selector: bool,
    crossbar: bool,
    draining: bool,
    linkage: bool,
    metadata: bool,
    actions: HashSet<String>,
    sm_whole: bool,
}

impl ApplyJournal {
    fn capture_slot(&mut self, pm: &PipelineModule, slot: usize) {
        if !self.slots.insert(slot) {
            return;
        }
        if let Some(s) = pm.slots.get(slot) {
            self.ops.push(UndoOp::Slot {
                slot,
                prev: s.template.clone(),
            });
        }
    }

    fn capture_selector(&mut self, pm: &PipelineModule) {
        if !self.selector {
            self.selector = true;
            self.ops.push(UndoOp::Selector(pm.selector.clone()));
        }
    }

    fn capture_crossbar(&mut self, pm: &PipelineModule) {
        if !self.crossbar {
            self.crossbar = true;
            self.ops
                .push(UndoOp::Crossbar(Box::new(pm.crossbar.clone())));
        }
    }

    fn capture_draining(&mut self, pm: &PipelineModule) {
        if !self.draining {
            self.draining = true;
            self.ops.push(UndoOp::Draining(pm.draining));
        }
    }

    fn capture_linkage(&mut self, linkage: &HeaderLinkage) {
        if !self.linkage {
            self.linkage = true;
            self.ops.push(UndoOp::Linkage(Box::new(linkage.clone())));
        }
    }

    fn capture_metadata(&mut self, sm: &StorageModule) {
        if self.sm_whole || self.metadata {
            return;
        }
        self.metadata = true;
        self.ops.push(UndoOp::Metadata(sm.metadata.clone()));
    }

    fn capture_action(&mut self, sm: &StorageModule, name: &str) {
        if self.sm_whole || !self.actions.insert(name.to_string()) {
            return;
        }
        self.ops.push(UndoOp::Action {
            name: name.to_string(),
            prev: sm.actions.get(name).cloned(),
        });
    }

    // Table records are per message, not per component: each one undoes
    // exactly its own message. Once the whole SM is journaled they are
    // redundant (its restore runs after theirs and overwrites them).

    fn capture_image(&mut self, sm: &StorageModule, name: &str, blocks: &[usize]) {
        if !self.sm_whole {
            self.ops
                .push(UndoOp::Table(Box::new(sm.table_image(name, blocks))));
        }
    }

    fn capture_entry(&mut self, sm: &StorageModule, table: &str, key: &[KeyMatch]) {
        if self.sm_whole {
            return;
        }
        // Unknown table: the message will fail without mutating.
        if let Some(undo) = sm.entry_undo(table, key, &mut self.bytes) {
            self.ops.push(UndoOp::Entry(undo));
        }
    }

    fn capture_default_action(&mut self, sm: &StorageModule, table: &str) {
        if self.sm_whole {
            return;
        }
        let Some(idx) = sm.table_idx(table) else {
            return;
        };
        if let Some(store) = sm.store_at(idx) {
            self.ops.push(UndoOp::DefaultAction {
                idx,
                prev: store.table.def.default_action.clone(),
            });
        }
    }

    fn capture_sm_whole(&mut self, sm: &StorageModule) {
        if !self.sm_whole {
            self.sm_whole = true;
            self.ops.push(UndoOp::SmWhole(Box::new(sm.clone())));
        }
    }

    /// Journals the undo of everything `msg` may mutate. Must run
    /// immediately before the message applies.
    pub(crate) fn record(
        &mut self,
        pm: &PipelineModule,
        sm: &StorageModule,
        linkage: &HeaderLinkage,
        msg: &ControlMsg,
    ) {
        match msg {
            ControlMsg::Drain | ControlMsg::Resume => self.capture_draining(pm),
            ControlMsg::WriteTemplate { slot, .. } | ControlMsg::ClearSlot { slot } => {
                self.capture_slot(pm, *slot);
            }
            ControlMsg::SetSelector(_) => self.capture_selector(pm),
            ControlMsg::ConnectCrossbar { .. } => self.capture_crossbar(pm),
            ControlMsg::RegisterHeader(_)
            | ControlMsg::SetFirstHeader(_)
            | ControlMsg::UnregisterHeader(_)
            | ControlMsg::LinkHeader { .. }
            | ControlMsg::UnlinkHeader { .. } => self.capture_linkage(linkage),
            ControlMsg::DefineAction(def) => self.capture_action(sm, &def.name),
            ControlMsg::RemoveAction(name) => self.capture_action(sm, name),
            ControlMsg::DefineMetadata(_) => self.capture_metadata(sm),
            ControlMsg::CreateTable { def, blocks } => self.capture_image(sm, &def.name, blocks),
            ControlMsg::DestroyTable(table) => self.capture_image(sm, table, &[]),
            ControlMsg::MigrateTable { table, blocks } => self.capture_image(sm, table, blocks),
            ControlMsg::AddEntry { table, entry } => self.capture_entry(sm, table, &entry.key),
            ControlMsg::DelEntry { table, key } => self.capture_entry(sm, table, key),
            ControlMsg::SetDefaultAction { table, .. } => self.capture_default_action(sm, table),
            ControlMsg::LoadFullDesign(_) => {
                // A whole-design swap touches everything.
                for slot in 0..pm.slot_count() {
                    self.capture_slot(pm, slot);
                }
                self.capture_selector(pm);
                self.capture_crossbar(pm);
                self.capture_draining(pm);
                self.capture_linkage(linkage);
                self.capture_sm_whole(sm);
            }
        }
    }

    /// Replays every undo record, newest first, returning the PM/SM/linkage
    /// to the journal's starting state.
    pub(crate) fn rollback(
        self,
        pm: &mut PipelineModule,
        sm: &mut StorageModule,
        linkage: &mut HeaderLinkage,
    ) {
        for op in self.ops.into_iter().rev() {
            match op {
                UndoOp::Slot { slot, prev } => {
                    if let Some(s) = pm.slots.get_mut(slot) {
                        s.template = prev;
                    }
                }
                UndoOp::Selector(prev) => pm.selector = prev,
                UndoOp::Crossbar(prev) => pm.crossbar = *prev,
                UndoOp::Draining(prev) => pm.draining = prev,
                UndoOp::Linkage(prev) => *linkage = *prev,
                UndoOp::Metadata(prev) => sm.metadata = prev,
                UndoOp::Action { name, prev } => match prev {
                    Some(def) => {
                        sm.actions.insert(name, def);
                    }
                    None => {
                        sm.actions.remove(&name);
                    }
                },
                UndoOp::Entry(undo) => sm.undo_entry(undo, &self.bytes),
                UndoOp::DefaultAction { idx, prev } => {
                    if let Some(store) = sm.store_at_mut(idx) {
                        store.table.def.default_action = prev;
                    }
                }
                UndoOp::Table(image) => sm.restore_table_image(*image),
                UndoOp::SmWhole(prev) => *sm = *prev,
            }
        }
    }
}

/// What the supervisor detected about a shard worker at a barrier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardFaultKind {
    /// The worker's channel disconnected: its thread died.
    Disconnected,
    /// No barrier reply arrived within the drain timeout: the worker is
    /// wedged (or dead without closing its channel yet).
    DrainTimeout(Duration),
    /// The worker reported a protocol violation it survived locally.
    Protocol(String),
}

impl std::fmt::Display for ShardFaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardFaultKind::Disconnected => write!(f, "worker channel disconnected"),
            ShardFaultKind::DrainTimeout(t) => {
                write!(f, "no barrier reply within {t:?} (worker wedged)")
            }
            ShardFaultKind::Protocol(d) => write!(f, "protocol violation: {d}"),
        }
    }
}

/// A quarantined shard worker: which shard and what the supervisor saw.
///
/// These replace the former process-wide panics — the supervisor records
/// the fault, rehashes the shard's RSS bucket across survivors, and
/// respawns a replacement at the next epoch publish.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardFault {
    /// Index of the faulted shard.
    pub shard: usize,
    /// What was detected.
    pub kind: ShardFaultKind,
}

impl ShardFault {
    /// The typed error form, for surfaces that propagate `CoreError`.
    pub fn to_error(&self) -> CoreError {
        CoreError::Shard {
            shard: self.shard,
            detail: self.kind.to_string(),
        }
    }
}

/// Cumulative supervisor counters (observability for the recovery paths).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct SupervisorStats {
    /// Workers quarantined (timeout, disconnect, or protocol fault).
    pub quarantined: u64,
    /// Replacement workers spawned at epoch publishes.
    pub respawned: u64,
    /// Packets charged to dead workers (dispatched but never returned, or
    /// declared lost by the worker itself).
    pub lost_packets: u64,
    /// Batches the master interpreter carried because no shard was live.
    pub degraded_batches: u64,
    /// Barrier replies discarded because their worker generation was stale
    /// (a quarantined worker answering late must not double-count).
    pub stale_replies: u64,
}

/// Deterministic fault-injection plan, threaded through [`crate::ShardedSwitch`]
/// and `ccm::apply_msgs` behind this test-only surface (the shipped binary
/// never constructs one — same pattern as `rp4c`'s lowering fault hooks).
/// Kept out of rustdoc: not a public API, but always compiled so
/// integration tests in other crates can drive every recovery path with
/// seeded, reproducible schedules.
#[doc(hidden)]
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Kill shard N when it serves barrier K: the worker exits without
    /// replying, exactly like a crash mid-collect.
    pub kill_at_barrier: Vec<(usize, u64)>,
    /// Delay shard N's barrier-K reply by the given duration (drives the
    /// drain-timeout + stale-reply discard paths).
    pub delay_reply: Vec<(usize, u64, Duration)>,
    /// Skip respawning quarantined workers for the next N epoch publishes,
    /// holding the switch degraded long enough for tests to observe
    /// rehashed dispatch (and, with no survivors, interpreter fallback).
    pub defer_respawns: u64,
    /// Fail compilation of exactly this control-plane epoch, forcing the
    /// same interpreter fallback a genuinely uncompilable program takes.
    pub poison_compile_at_epoch: Option<u64>,
    /// Fail the M-th message (0-based) of every control batch, exercising
    /// the transactional rollback at an arbitrary batch position.
    pub fail_msg_at: Option<usize>,
}

impl FaultPlan {
    /// Should `shard` be killed when serving `barrier`?
    pub fn kill_directive(&self, shard: usize, barrier: u64) -> bool {
        self.kill_at_barrier.contains(&(shard, barrier))
    }

    /// Reply delay for `shard` at `barrier`, if any.
    pub fn delay_directive(&self, shard: usize, barrier: u64) -> Option<Duration> {
        self.delay_reply
            .iter()
            .find(|(s, b, _)| *s == shard && *b == barrier)
            .map(|(_, _, d)| *d)
    }
}
