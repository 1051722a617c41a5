//! ipbm — the assembled IPSA behavioral-model switch.
//!
//! Wires the four modules together (CM, PM, CCM, SM; Sec. 4.1) behind the
//! [`Device`] trait the controller programs against.

use ipsa_core::control::{full_install_msgs, ApplyReport, ControlMsg, Device};
use ipsa_core::crossbar::Crossbar;
use ipsa_core::error::CoreError;
use ipsa_core::template::CompiledDesign;
use ipsa_core::timing::CostModel;
use ipsa_netpkt::linkage::HeaderLinkage;
use ipsa_netpkt::packet::Packet;
use serde::Serialize;

use crate::ccm;
use crate::cm::{CommModule, PortStats};
use crate::pm::{BurstRunner, PipelineModule, PipelineStats, TmStats};
use crate::resilience::{ApplyJournal, FaultPlan};
use crate::sm::StorageModule;
use crate::tsp::SlotStats;

/// An open staged control-plane transaction: one [`ApplyJournal`]
/// accumulating undo records across every batch applied since
/// [`IpbmSwitch::begin_staged`].
///
/// This is the device half of a two-phase fleet rollout: the controller
/// stages the update everywhere, verifies the canary, and only then commits
/// — any divergence or mid-rollout failure reverts each device to the exact
/// bytes it held when the transaction opened.
pub(crate) struct StagedTxn {
    journal: ApplyJournal,
    /// Batches applied under this transaction (observability only).
    batches: u64,
}

impl std::fmt::Debug for StagedTxn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StagedTxn")
            .field("batches", &self.batches)
            .finish_non_exhaustive()
    }
}

/// Construction parameters for an ipbm instance.
#[derive(Debug, Clone)]
pub struct IpbmConfig {
    /// Switch ports.
    pub ports: usize,
    /// Physical TSP slots.
    pub slots: usize,
    /// SRAM blocks in the pool.
    pub sram_blocks: usize,
    /// TCAM blocks in the pool.
    pub tcam_blocks: usize,
    /// Crossbar clusters (0/1 = full crossbar).
    pub clusters: usize,
    /// TSP↔memory bus width, bits.
    pub bus_bits: usize,
    /// Control-channel cost model.
    pub cost: CostModel,
}

impl Default for IpbmConfig {
    fn default() -> Self {
        IpbmConfig {
            ports: 8,
            slots: 32,
            sram_blocks: 64,
            tcam_blocks: 16,
            clusters: 0,
            bus_bits: 128,
            cost: CostModel::software(),
        }
    }
}

impl IpbmConfig {
    /// Rejects configurations no switch can be built from. Part of the
    /// silent-clamp sweep: constructors used to quietly rewrite zero
    /// ports/slots to 1 instead of telling the caller.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.ports == 0 {
            return Err(CoreError::Config(
                "switch needs at least one port (ports=0)".into(),
            ));
        }
        if self.slots == 0 {
            return Err(CoreError::Config(
                "switch needs at least one TSP slot (slots=0)".into(),
            ));
        }
        Ok(())
    }
}

/// Aggregated observability snapshot.
#[derive(Debug, Clone, Serialize)]
pub struct SwitchReport {
    /// Pipeline counters.
    pub pipeline: PipelineStats,
    /// Traffic-Manager counters.
    pub tm: TmStats,
    /// Per-port counters.
    pub ports: Vec<PortStats>,
    /// Per-slot counters (programmed slots only, with their stage names).
    pub slots: Vec<(usize, String, SlotStats)>,
    /// Memory accesses performed by table lookups.
    pub mem_accesses: u64,
    /// Active TSPs (power model input).
    pub active_tsps: usize,
}

/// The IPSA behavioral-model software switch.
#[derive(Debug)]
pub struct IpbmSwitch {
    /// Communication module (ports).
    pub cm: CommModule,
    /// Pipeline module (TSPs + TM + selector + crossbar).
    pub pm: PipelineModule,
    /// Storage module (pool + tables + actions).
    pub sm: StorageModule,
    /// Header registry and parse graph (runtime-mutable).
    pub linkage: HeaderLinkage,
    /// Control-channel cost model.
    pub cost: CostModel,
    /// Test-only fault-injection plan (None in production).
    faults: Option<FaultPlan>,
    /// Open staged transaction, if any (see [`IpbmSwitch::begin_staged`]).
    staged: Option<StagedTxn>,
    name: String,
}

impl IpbmSwitch {
    /// Builds a switch from a configuration.
    ///
    /// # Panics
    /// On an invalid configuration (zero ports or slots); use
    /// [`IpbmSwitch::try_new`] to handle that as an error.
    pub fn new(cfg: IpbmConfig) -> Self {
        Self::try_new(cfg).expect("invalid IpbmConfig")
    }

    /// Builds a switch from a configuration, rejecting unusable ones
    /// (zero ports or slots) with [`CoreError::Config`].
    pub fn try_new(cfg: IpbmConfig) -> Result<Self, CoreError> {
        cfg.validate()?;
        let crossbar = if cfg.clusters > 1 {
            Crossbar::clustered(cfg.slots, cfg.sram_blocks + cfg.tcam_blocks, cfg.clusters)
        } else {
            Crossbar::full()
        };
        Ok(IpbmSwitch {
            cm: CommModule::new(cfg.ports),
            pm: PipelineModule::new(cfg.slots, cfg.ports, crossbar)?,
            sm: StorageModule::new(cfg.sram_blocks, cfg.tcam_blocks, cfg.bus_bits),
            linkage: HeaderLinkage::new(),
            cost: cfg.cost,
            faults: None,
            staged: None,
            name: "ipbm".to_string(),
        })
    }

    /// Installs a deterministic fault-injection plan (test-only surface);
    /// `fail_msg_at` makes control batches fail — and roll back — at an
    /// exact message index.
    #[doc(hidden)]
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = Some(plan);
    }

    /// Removes any installed fault plan.
    #[doc(hidden)]
    pub fn clear_fault_plan(&mut self) {
        self.faults = None;
    }

    /// Installs a complete compiled design (initial load).
    pub fn install(&mut self, design: &CompiledDesign) -> Result<ApplyReport, CoreError> {
        self.apply(&full_install_msgs(design))
    }

    /// Opens a staged control-plane transaction. Every subsequent
    /// [`Device::apply`] batch journals its undo records into one shared
    /// `ApplyJournal` (the same log a single batch uses), so
    /// [`IpbmSwitch::revert_staged`] rewinds *all*
    /// batches applied since this call byte-identically — the device half
    /// of a fleet-wide two-phase rollout. A batch that fails mid-apply
    /// aborts the whole transaction (the journal is replayed immediately
    /// and the transaction closes), because a half-staged device can be
    /// neither committed nor trusted to stay staged.
    ///
    /// Errors with [`CoreError::Config`] if a transaction is already open:
    /// nesting would silently merge rollback horizons.
    pub fn begin_staged(&mut self) -> Result<(), CoreError> {
        if self.staged.is_some() {
            return Err(CoreError::Config(
                "staged transaction already open (commit or revert it first)".into(),
            ));
        }
        self.staged = Some(StagedTxn {
            journal: ApplyJournal::default(),
            batches: 0,
        });
        Ok(())
    }

    /// True while a staged transaction is open.
    pub fn staged_open(&self) -> bool {
        self.staged.is_some()
    }

    /// Batches applied under the open staged transaction (0 when none).
    pub fn staged_batches(&self) -> u64 {
        self.staged.as_ref().map_or(0, |t| t.batches)
    }

    /// Commits the open staged transaction: the journal is discarded and
    /// every batch applied since [`IpbmSwitch::begin_staged`] becomes
    /// permanent. Errors with [`CoreError::Config`] if none is open.
    pub fn commit_staged(&mut self) -> Result<(), CoreError> {
        match self.staged.take() {
            Some(_) => Ok(()),
            None => Err(CoreError::Config(
                "no staged transaction open to commit".into(),
            )),
        }
    }

    /// Reverts the open staged transaction: every undo record captured since
    /// [`IpbmSwitch::begin_staged`] is replayed newest-first and a new
    /// control-plane epoch opens (the reverted state must recompile and
    /// republish). The device is left byte-identical to the moment the
    /// transaction opened. Errors with [`CoreError::Config`] if none is
    /// open.
    pub fn revert_staged(&mut self) -> Result<(), CoreError> {
        let Some(txn) = self.staged.take() else {
            return Err(CoreError::Config(
                "no staged transaction open to revert".into(),
            ));
        };
        txn.journal
            .rollback(&mut self.pm, &mut self.sm, &mut self.linkage);
        self.pm.invalidate_compiled();
        Ok(())
    }

    /// Observability snapshot.
    pub fn report(&self) -> SwitchReport {
        SwitchReport {
            pipeline: self.pm.stats,
            tm: self.pm.tm.stats,
            ports: self.cm.port_stats(),
            slots: self
                .pm
                .slots
                .iter()
                .enumerate()
                .filter_map(|(i, s)| {
                    s.template
                        .as_ref()
                        .map(|t| (i, t.stage_name.clone(), s.stats))
                })
                .collect(),
            mem_accesses: self.sm.mem_accesses,
            active_tsps: self.pm.active_tsps(),
        }
    }

    /// Batched run-to-completion ingress: drains the RX rings through the
    /// compiled fast path with the epoch check and the compiled-path/
    /// scratch checkout hoisted to once per drain, transmits, then drains
    /// the TX rings into the caller-owned `out`. Returns how many packets
    /// were handed back. Packets flow ring→pipeline→ring directly —
    /// measurement showed even one intermediate staging buffer costs ~2-3%
    /// at these rates. Transmit order is processing order. With a
    /// [`PacketArena`](ipsa_netpkt::arena::PacketArena) recycling the
    /// packets handed back through `out`, the whole inject→process→collect
    /// loop is allocation-free in steady state (`tests/alloc_free.rs`).
    pub fn run_batch_into(&mut self, out: &mut Vec<Packet>) -> usize {
        // Resolve-once / run-many: build (or reuse) the compiled fast path
        // for this control-plane epoch. If compilation fails, the runner
        // interprets each packet.
        self.pm.ensure_compiled(&self.linkage, &self.sm);
        // One compiled-path/scratch checkout for the whole drain — no
        // control-plane write can land while the runner is live.
        let runner = self.pm.burst_runner();
        drain(runner, &mut self.cm, &self.linkage, &mut self.sm);
        self.cm.tx_burst(out)
    }
}

/// The device's one drain loop: RX rings → `runner` → TX rings, until the
/// rings are empty or a structural update holds traffic back.
#[inline]
fn drain(
    mut runner: BurstRunner<'_>,
    cm: &mut CommModule,
    linkage: &HeaderLinkage,
    sm: &mut StorageModule,
) {
    while !runner.draining() {
        let Some(pkt) = cm.next_rx() else {
            break;
        };
        if let Some(p) = runner.run(linkage, sm, pkt) {
            cm.transmit(p);
        }
    }
}

impl Device for IpbmSwitch {
    fn name(&self) -> &str {
        &self.name
    }

    fn apply(&mut self, msgs: &[ControlMsg]) -> Result<ApplyReport, CoreError> {
        let Some(txn) = self.staged.as_mut() else {
            return ccm::apply_msgs_with_faults(
                &mut self.pm,
                &mut self.sm,
                &mut self.linkage,
                &self.cost,
                msgs,
                self.faults.as_ref(),
            );
        };
        // Staged mode: undo records accumulate in the transaction's journal.
        // A mid-batch failure aborts the *whole* transaction — the journal
        // rewinds every batch applied since `begin_staged`, not just this
        // one, and the rewound state opens a new epoch.
        match ccm::apply_msgs_journaled(
            &mut self.pm,
            &mut self.sm,
            &mut self.linkage,
            &self.cost,
            msgs,
            self.faults.as_ref(),
            &mut txn.journal,
        ) {
            Ok(report) => {
                txn.batches += 1;
                Ok(report)
            }
            Err((index, cause)) => {
                let txn = self.staged.take().expect("staged txn is open");
                txn.journal
                    .rollback(&mut self.pm, &mut self.sm, &mut self.linkage);
                self.pm.invalidate_compiled();
                Err(CoreError::RolledBack {
                    index,
                    cause: Box::new(cause),
                })
            }
        }
    }

    fn inject(&mut self, packet: Packet) {
        self.cm.inject(packet);
    }

    fn run(&mut self) -> Vec<Packet> {
        let runner = self.pm.interp_runner();
        drain(runner, &mut self.cm, &self.linkage, &mut self.sm);
        self.cm.collect_tx()
    }

    fn run_batch(&mut self) -> Vec<Packet> {
        let mut out = Vec::new();
        self.run_batch_into(&mut out);
        out
    }

    fn pending(&self) -> usize {
        self.cm.rx_pending()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipsa_core::pipeline_cfg::SelectorConfig;
    use ipsa_core::table::{ActionCall, KeyField, MatchKind, TableDef, TableEntry};
    use ipsa_core::template::{MatcherBranch, TspTemplate};
    use ipsa_core::value::ValueRef;
    use ipsa_netpkt::builder::{ipv4_udp_packet, Ipv4UdpSpec};

    /// An LPM-on-destination table schema, one block wide.
    fn lpm_table(name: &str) -> TableDef {
        TableDef {
            name: name.into(),
            key: vec![KeyField {
                source: ValueRef::field("ipv4", "dst_addr"),
                bits: 32,
                kind: MatchKind::Lpm,
            }],
            size: 64,
            actions: vec!["fwd".into()],
            default_action: ActionCall::no_action(),
            with_counters: false,
        }
    }

    /// Builds a one-stage L3 switch via control messages only.
    fn minimal_switch() -> IpbmSwitch {
        let mut sw = IpbmSwitch::new(IpbmConfig::default());
        let msgs = vec![
            ControlMsg::Drain,
            ControlMsg::RegisterHeader(ipsa_netpkt::protocols::ethernet()),
            ControlMsg::RegisterHeader(ipsa_netpkt::protocols::ipv4()),
            ControlMsg::RegisterHeader(ipsa_netpkt::protocols::udp()),
            ControlMsg::SetFirstHeader("ethernet".into()),
            ControlMsg::DefineAction(ipsa_core::action::ActionDef {
                name: "fwd".into(),
                params: vec![("port".into(), 16)],
                body: vec![ipsa_core::action::Primitive::Forward {
                    port: ValueRef::Param(0),
                }],
            }),
            ControlMsg::CreateTable {
                def: lpm_table("route"),
                blocks: vec![0],
            },
            ControlMsg::WriteTemplate {
                slot: 0,
                template: TspTemplate {
                    stage_name: "route_s".into(),
                    func: "base".into(),
                    parse: vec!["ipv4".into()],
                    branches: vec![MatcherBranch {
                        pred: ipsa_core::predicate::Predicate::IsValid("ipv4".into()),
                        table: Some("route".into()),
                    }],
                    executor: vec![(1, ActionCall::new("fwd", vec![]))],
                    default_action: ActionCall::no_action(),
                },
            },
            ControlMsg::ConnectCrossbar {
                slot: 0,
                blocks: vec![0],
            },
            ControlMsg::SetSelector(SelectorConfig::split(32, 1, 0).unwrap()),
            ControlMsg::Resume,
            ControlMsg::AddEntry {
                table: "route".into(),
                entry: TableEntry {
                    key: vec![ipsa_core::table::KeyMatch::Lpm {
                        value: 0x0a000000,
                        prefix_len: 8,
                    }],
                    priority: 0,
                    action: ActionCall::new("fwd", vec![4]),
                    counter: 0,
                },
            },
        ];
        sw.apply(&msgs).unwrap();
        sw
    }

    #[test]
    fn try_new_rejects_zero_ports_and_slots() {
        // Regression: zero ports/slots used to be silently clamped to 1
        // deeper in the constructor chain.
        let cfg = IpbmConfig {
            ports: 0,
            ..Default::default()
        };
        assert!(matches!(
            IpbmSwitch::try_new(cfg),
            Err(CoreError::Config(_))
        ));
        let cfg = IpbmConfig {
            slots: 0,
            ..Default::default()
        };
        assert!(matches!(
            IpbmSwitch::try_new(cfg),
            Err(CoreError::Config(_))
        ));
        assert!(IpbmSwitch::try_new(IpbmConfig::default()).is_ok());
    }

    #[test]
    fn forwards_matching_traffic() {
        let mut sw = minimal_switch();
        sw.inject(ipv4_udp_packet(&Ipv4UdpSpec {
            dst_ip: 0x0a010101,
            ..Default::default()
        }));
        sw.inject(ipv4_udp_packet(&Ipv4UdpSpec {
            dst_ip: 0x0b010101, // unrouted
            ..Default::default()
        }));
        let out = sw.run();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].meta.egress_port, Some(4));
        let rep = sw.report();
        assert_eq!(rep.pipeline.received, 2);
        assert_eq!(rep.pipeline.emitted, 1);
        assert_eq!(rep.tm.no_route_drops, 1);
        assert_eq!(rep.ports[4].tx, 1);
        assert!(rep.mem_accesses >= 2);
        assert_eq!(rep.active_tsps, 1);
    }

    #[test]
    fn draining_holds_traffic() {
        let mut sw = minimal_switch();
        sw.apply(&[ControlMsg::Drain]).unwrap();
        sw.inject(ipv4_udp_packet(&Ipv4UdpSpec {
            dst_ip: 0x0a010101,
            ..Default::default()
        }));
        assert!(sw.run().is_empty());
        assert_eq!(sw.pending(), 1);
        sw.apply(&[ControlMsg::Resume]).unwrap();
        assert_eq!(sw.run().len(), 1);
    }

    #[test]
    fn configured_port_count_reaches_the_tm() {
        // Regression: `IpbmConfig { ports: 16 }` used to get a TM with the
        // default 8 queues, aliasing egress ports modulo 8.
        let mut sw = IpbmSwitch::new(IpbmConfig {
            ports: 16,
            ..Default::default()
        });
        let mut a = ipv4_udp_packet(&Ipv4UdpSpec::default());
        a.meta.egress_port = Some(12);
        let mut b = ipv4_udp_packet(&Ipv4UdpSpec::default());
        b.meta.egress_port = Some(4);
        sw.pm.tm.enqueue(a);
        sw.pm.tm.enqueue(b);
        assert_eq!(sw.pm.tm.port_depth(12), 1);
        assert_eq!(sw.pm.tm.port_depth(4), 1);
    }

    #[test]
    fn batch_path_matches_interpreter_on_minimal_switch() {
        let mut interp = minimal_switch();
        let mut fast = minimal_switch();
        let specs = [0x0a010101u32, 0x0b010101, 0x0a020304];
        for sw in [&mut interp, &mut fast] {
            for dst in specs {
                sw.inject(ipv4_udp_packet(&Ipv4UdpSpec {
                    dst_ip: dst,
                    ..Default::default()
                }));
            }
        }
        let out_i = interp.run();
        let out_f = fast.run_batch();
        assert!(fast.pm.has_compiled());
        assert_eq!(out_i, out_f);
        assert_eq!(interp.report().pipeline, fast.report().pipeline);
        assert_eq!(interp.report().tm, fast.report().tm);
        assert_eq!(interp.sm.mem_accesses, fast.sm.mem_accesses);
    }

    #[test]
    fn pipeline_error_is_a_counted_drop_not_a_panic() {
        // A second stage whose table is then destroyed under it: the epoch
        // no longer compiles, and the interpreter fallback fails every
        // packet with `UnknownTable`.
        let mut sw = minimal_switch();
        sw.apply(&[
            ControlMsg::Drain,
            ControlMsg::CreateTable {
                def: lpm_table("audit"),
                blocks: vec![1],
            },
            ControlMsg::WriteTemplate {
                slot: 1,
                template: TspTemplate {
                    stage_name: "audit_s".into(),
                    func: "base".into(),
                    parse: vec!["ipv4".into()],
                    branches: vec![MatcherBranch {
                        pred: ipsa_core::predicate::Predicate::IsValid("ipv4".into()),
                        table: Some("audit".into()),
                    }],
                    executor: vec![],
                    default_action: ActionCall::no_action(),
                },
            },
            ControlMsg::ConnectCrossbar {
                slot: 1,
                blocks: vec![1],
            },
            ControlMsg::SetSelector(SelectorConfig::split(32, 2, 0).unwrap()),
            ControlMsg::Resume,
            ControlMsg::DestroyTable("audit".into()),
        ])
        .unwrap();

        let routed = || {
            ipv4_udp_packet(&Ipv4UdpSpec {
                dst_ip: 0x0a010101,
                ..Default::default()
            })
        };
        sw.inject(routed());
        sw.inject(routed());
        assert!(sw.run().is_empty());
        sw.inject(routed());
        sw.inject(routed());
        assert!(sw.run_batch().is_empty());
        assert!(!sw.pm.has_compiled(), "a dangling table must not compile");
        let rep = sw.report().pipeline;
        assert_eq!(rep.received, 4);
        assert_eq!(rep.error_drops, 4, "received == counted drops");
        assert_eq!(rep.emitted, 0);
        assert_eq!(sw.pending(), 0, "failed packets leave the rings");

        // Clearing the broken slot heals the device.
        sw.apply(&[
            ControlMsg::Drain,
            ControlMsg::ClearSlot { slot: 1 },
            ControlMsg::Resume,
        ])
        .unwrap();
        sw.inject(routed());
        assert_eq!(sw.run().len(), 1);
        sw.inject(routed());
        assert_eq!(sw.run_batch().len(), 1);
        assert_eq!(sw.report().pipeline.error_drops, 4);
    }

    fn route(prefix: u128, port: u128) -> ControlMsg {
        ControlMsg::AddEntry {
            table: "route".into(),
            entry: TableEntry {
                key: vec![ipsa_core::table::KeyMatch::Lpm {
                    value: prefix,
                    prefix_len: 8,
                }],
                priority: 0,
                action: ActionCall::new("fwd", vec![port]),
                counter: 0,
            },
        }
    }

    /// Egress ports (sorted) of one packet per destination, drained by
    /// `drain` (`run_batch`: compiled path; `run`: interpreter).
    fn egress_via(
        sw: &mut IpbmSwitch,
        dsts: &[u32],
        drain: fn(&mut IpbmSwitch) -> Vec<Packet>,
    ) -> Vec<Option<u16>> {
        for &dst_ip in dsts {
            sw.inject(ipv4_udp_packet(&Ipv4UdpSpec {
                dst_ip,
                ..Default::default()
            }));
        }
        let mut out: Vec<_> = drain(sw).iter().map(|p| p.meta.egress_port).collect();
        out.sort_unstable();
        out
    }

    fn egress_of(sw: &mut IpbmSwitch, dsts: &[u32]) -> Vec<Option<u16>> {
        egress_via(sw, dsts, IpbmSwitch::run_batch)
    }

    /// Entry writes open no epoch: the compiled path survives an add, a
    /// replace, a delete and a default-action change, and the next burst
    /// on it sees every one of them.
    #[test]
    fn entry_batch_keeps_compiled_path() {
        let mut sw = minimal_switch();
        assert_eq!(egress_of(&mut sw, &[0x0a01_0101]), vec![Some(4)]);
        assert!(sw.pm.has_compiled());
        let epoch = sw.pm.epoch();
        sw.apply(&[
            route(0x0b00_0000, 7),
            route(0x0a00_0000, 5),
            route(0x0c00_0000, 6),
            ControlMsg::DelEntry {
                table: "route".into(),
                key: vec![ipsa_core::table::KeyMatch::Lpm {
                    value: 0x0c00_0000,
                    prefix_len: 8,
                }],
            },
            ControlMsg::SetDefaultAction {
                table: "route".into(),
                action: ActionCall::new("fwd", vec![9]),
            },
        ])
        .unwrap();
        assert!(sw.pm.has_compiled(), "entry batch must keep the path");
        assert_eq!(sw.pm.epoch(), epoch, "entry batch must open no epoch");
        assert_eq!(
            sw.sm.table("route").unwrap().table.def.default_action,
            ActionCall::new("fwd", vec![9])
        );
        let dsts = [0x0a01_0101, 0x0b01_0101, 0x0c01_0101];
        // Replace (10/8 → 5) and add (11/8 → 7) are seen; the deleted
        // 12/8 misses and is dropped.
        let fast = egress_of(&mut sw, &dsts);
        assert!(sw.pm.has_compiled());
        assert_eq!(fast, vec![Some(5), Some(7)]);
        assert_eq!(
            egress_via(&mut sw, &dsts, IpbmSwitch::run),
            fast,
            "interpreter"
        );
    }

    /// Anything beyond entry traffic still opens an epoch and drops the
    /// compiled path; the rebuilt one forwards as before.
    #[test]
    fn structural_batch_invalidates_compiled_path() {
        let mut sw = minimal_switch();
        assert_eq!(egress_of(&mut sw, &[0x0a01_0101]), vec![Some(4)]);
        assert!(sw.pm.has_compiled());
        let epoch = sw.pm.epoch();
        sw.apply(&[ControlMsg::Drain, route(0x0b00_0000, 7), ControlMsg::Resume])
            .unwrap();
        assert!(!sw.pm.has_compiled());
        assert!(sw.pm.epoch() > epoch);
        assert_eq!(
            egress_of(&mut sw, &[0x0a01_0101, 0x0b01_0101]),
            vec![Some(4), Some(7)]
        );
        assert!(sw.pm.has_compiled());
    }

    #[test]
    fn install_from_empty_design_is_clean() {
        let mut sw = IpbmSwitch::new(IpbmConfig::default());
        let design = CompiledDesign::empty("blank", 32);
        let r = sw.install(&design).unwrap();
        // A blank device already runs the empty design: nothing to send.
        assert_eq!(r.msgs, 0);
        assert_eq!(sw.report().active_tsps, 0);
    }

    /// Digest of every control-plane component, minus the epoch counter
    /// (a revert legitimately opens a new epoch over identical bytes).
    fn state_digest(sw: &IpbmSwitch) -> String {
        format!(
            "{};{};{:?};{:?};{:?};{}",
            serde_json::to_string(&sw.pm.slots.iter().map(|s| &s.template).collect::<Vec<_>>())
                .unwrap(),
            serde_json::to_string(&sw.pm.selector).unwrap(),
            sw.pm.draining,
            sw.sm.metadata,
            sw.sm.table_names(),
            serde_json::to_string(&sw.sm.pool).unwrap(),
        )
    }

    #[test]
    fn staged_revert_rewinds_every_batch() {
        let mut sw = minimal_switch();
        let before = state_digest(&sw);
        sw.begin_staged().unwrap();
        assert!(sw.staged_open());
        // Two separate batches under one transaction: an entry add, then a
        // structural change (new template in a fresh slot).
        sw.apply(&[ControlMsg::AddEntry {
            table: "route".into(),
            entry: TableEntry {
                key: vec![ipsa_core::table::KeyMatch::Lpm {
                    value: 0x0b000000,
                    prefix_len: 8,
                }],
                priority: 0,
                action: ActionCall::new("fwd", vec![5]),
                counter: 0,
            },
        }])
        .unwrap();
        sw.apply(&[ControlMsg::WriteTemplate {
            slot: 1,
            template: TspTemplate::passthrough("staged_p"),
        }])
        .unwrap();
        assert_eq!(sw.staged_batches(), 2);
        assert_ne!(state_digest(&sw), before);
        sw.revert_staged().unwrap();
        assert!(!sw.staged_open());
        assert_eq!(state_digest(&sw), before, "revert must be byte-identical");
        // The reverted design still forwards.
        sw.inject(ipv4_udp_packet(&Ipv4UdpSpec {
            dst_ip: 0x0a010101,
            ..Default::default()
        }));
        assert_eq!(sw.run().len(), 1);
    }

    #[test]
    fn staged_commit_keeps_every_batch() {
        let mut sw = minimal_switch();
        sw.begin_staged().unwrap();
        sw.apply(&[ControlMsg::AddEntry {
            table: "route".into(),
            entry: TableEntry {
                key: vec![ipsa_core::table::KeyMatch::Lpm {
                    value: 0x0b000000,
                    prefix_len: 8,
                }],
                priority: 0,
                action: ActionCall::new("fwd", vec![5]),
                counter: 0,
            },
        }])
        .unwrap();
        sw.commit_staged().unwrap();
        assert!(!sw.staged_open());
        sw.inject(ipv4_udp_packet(&Ipv4UdpSpec {
            dst_ip: 0x0b010101,
            ..Default::default()
        }));
        let out = sw.run();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].meta.egress_port, Some(5));
        // Committed means no longer revertible.
        assert!(sw.revert_staged().is_err());
    }

    #[test]
    fn staged_midbatch_failure_aborts_whole_txn() {
        let mut sw = minimal_switch();
        let before = state_digest(&sw);
        sw.begin_staged().unwrap();
        sw.apply(&[ControlMsg::WriteTemplate {
            slot: 1,
            template: TspTemplate::passthrough("staged_p"),
        }])
        .unwrap();
        // Second batch fails on its second message: the abort must rewind
        // the first batch too, not just this one.
        let err = sw
            .apply(&[
                ControlMsg::DefineMetadata(vec![("mx".into(), 8)]),
                ControlMsg::DestroyTable("ghost".into()),
            ])
            .unwrap_err();
        assert!(matches!(err, CoreError::RolledBack { index: 1, .. }));
        assert!(!sw.staged_open(), "failed batch closes the transaction");
        assert_eq!(state_digest(&sw), before);
    }

    #[test]
    fn staged_nesting_and_empty_ops_are_errors() {
        let mut sw = minimal_switch();
        assert!(sw.commit_staged().is_err());
        assert!(sw.revert_staged().is_err());
        sw.begin_staged().unwrap();
        assert!(sw.begin_staged().is_err());
        sw.commit_staged().unwrap();
    }
}
