//! PM — the Pipeline Module: the elastic TSP chain and the Traffic Manager.
//!
//! All TSPs are physically chained; the selector decides which prefix forms
//! the ingress pipeline (feeding the TM) and which suffix forms the egress
//! pipeline (fed by the TM); bypassed TSPs idle in low power (Sec. 2.3).
//! During a structural update the pipeline is drained through back
//! pressure: queued packets are processed to completion, then templates and
//! the selector are rewritten before traffic resumes.

use std::collections::VecDeque;

use ipsa_core::crossbar::Crossbar;
use ipsa_core::error::CoreError;
use ipsa_core::pipeline_cfg::{SelectorConfig, SlotRole};
use ipsa_netpkt::linkage::HeaderLinkage;
use ipsa_netpkt::packet::Packet;
use serde::Serialize;

use crate::fast::{self, CompiledPath, EvalScratch};
use crate::sm::StorageModule;
use crate::tsp::TspSlot;

/// Number of TM traffic classes.
pub const TM_CLASSES: usize = 3;
/// Strict-priority class (served before everything else on a port).
pub const TM_CLASS_PRIORITY: usize = 0;
/// Assured-forwarding class (WDRR, heavy weight).
pub const TM_CLASS_ASSURED: usize = 1;
/// Best-effort class (WDRR, light weight) — the default.
pub const TM_CLASS_BEST_EFFORT: usize = 2;

/// Metadata field overriding DSCP classification: 0 = unset, `1..=3`
/// select classes priority/assured/best-effort.
pub const TM_CLASS_META: &str = "tm_class";

/// WDRR byte quantum refilled per visit, scaled by the class weight.
const TM_WDRR_QUANTUM: usize = 1600;
/// WDRR weights per class; the priority class bypasses WDRR entirely.
const TM_WDRR_WEIGHTS: [usize; TM_CLASSES] = [0, 3, 1];

/// Per-class Traffic-Manager counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct ClassStats {
    /// Packets enqueued in this class.
    pub enqueued: u64,
    /// Packets tail-dropped on this class's full queue.
    pub tail_drops: u64,
    /// Packets handed to the egress pipeline from this class.
    pub dequeued: u64,
}

impl ClassStats {
    fn fold(&mut self, d: &ClassStats) {
        self.enqueued += d.enqueued;
        self.tail_drops += d.tail_drops;
        self.dequeued += d.dequeued;
    }
}

/// Traffic-Manager statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct TmStats {
    /// Packets enqueued toward egress.
    pub enqueued: u64,
    /// Packets dropped for lacking a forwarding decision.
    pub no_route_drops: u64,
    /// Packets tail-dropped on a full per-port per-class queue.
    pub tail_drops: u64,
    /// High-water mark of total per-port occupancy.
    pub max_depth: usize,
    /// Strict-priority class counters.
    pub priority: ClassStats,
    /// Assured-forwarding class counters.
    pub assured: ClassStats,
    /// Best-effort class counters.
    pub best_effort: ClassStats,
}

impl TmStats {
    /// Counters for one class, indexed by `TM_CLASS_*`.
    pub fn class(&self, class: usize) -> &ClassStats {
        match class {
            TM_CLASS_PRIORITY => &self.priority,
            TM_CLASS_ASSURED => &self.assured,
            _ => &self.best_effort,
        }
    }

    fn class_mut(&mut self, class: usize) -> &mut ClassStats {
        match class {
            TM_CLASS_PRIORITY => &mut self.priority,
            TM_CLASS_ASSURED => &mut self.assured,
            _ => &mut self.best_effort,
        }
    }

    /// Additively folds another TM's counters into this one (`max_depth`
    /// takes the max); used when shard-local deltas are merged at an
    /// epoch barrier.
    pub fn fold(&mut self, d: &TmStats) {
        self.enqueued += d.enqueued;
        self.no_route_drops += d.no_route_drops;
        self.tail_drops += d.tail_drops;
        self.max_depth = self.max_depth.max(d.max_depth);
        self.priority.fold(&d.priority);
        self.assured.fold(&d.assured);
        self.best_effort.fold(&d.best_effort);
    }
}

/// Default per-port per-class queue capacity (packets).
pub const TM_QUEUE_CAPACITY: usize = 64;

/// One egress port's class queues plus WDRR service state.
#[derive(Debug)]
struct PortQueues {
    cls: [VecDeque<Packet>; TM_CLASSES],
    deficit: [usize; TM_CLASSES],
    wdrr_next: usize,
}

impl PortQueues {
    fn new() -> Self {
        PortQueues {
            cls: Default::default(),
            deficit: [0; TM_CLASSES],
            wdrr_next: TM_CLASS_ASSURED,
        }
    }

    fn depth(&self) -> usize {
        self.cls.iter().map(|q| q.len()).sum()
    }

    fn next_class(c: usize) -> usize {
        if c + 1 >= TM_CLASSES {
            TM_CLASS_ASSURED
        } else {
            c + 1
        }
    }

    /// Strict priority for class 0, byte-based weighted deficit round
    /// robin across the rest.
    fn dequeue_one(&mut self) -> Option<(usize, Packet)> {
        if let Some(p) = self.cls[TM_CLASS_PRIORITY].pop_front() {
            return Some((TM_CLASS_PRIORITY, p));
        }
        if self.cls[TM_CLASS_ASSURED..].iter().all(|q| q.is_empty()) {
            return None;
        }
        loop {
            let c = self.wdrr_next;
            let Some(head) = self.cls[c].front() else {
                // An idle class forfeits its accumulated deficit
                // (classic DRR), so bursts cannot bank service credit.
                self.deficit[c] = 0;
                self.wdrr_next = Self::next_class(c);
                continue;
            };
            let need = head.data.len().max(1);
            if self.deficit[c] >= need {
                self.deficit[c] -= need;
                let p = self.cls[c].pop_front().expect("head exists");
                return Some((c, p));
            }
            self.deficit[c] += TM_WDRR_QUANTUM * TM_WDRR_WEIGHTS[c];
            self.wdrr_next = Self::next_class(c);
        }
    }
}

/// The Traffic Manager: per-egress-port, per-class queues between the
/// ingress and egress pipelines — the queueing point the selector splits
/// the elastic pipeline around (Fig. 1). Ports are drained round-robin;
/// within a port, class 0 is strict priority and the remaining classes
/// share the residual bandwidth by weighted deficit round robin. Each
/// class queue tail-drops independently on overflow, so priority traffic
/// is never dropped because best-effort filled the port.
#[derive(Debug)]
pub struct TrafficManager {
    ports: Vec<PortQueues>,
    capacity: usize,
    rr_next: usize,
    /// Interned id of the [`TM_CLASS_META`] metadata override field.
    class_id: u32,
    /// Statistics.
    pub stats: TmStats,
}

impl Default for TrafficManager {
    fn default() -> Self {
        TrafficManager::new(8, TM_QUEUE_CAPACITY).expect("default TM config is valid")
    }
}

impl TrafficManager {
    /// TM with `ports` output queue groups of `capacity` packets per
    /// class. Zero ports or zero capacity is a configuration error — a
    /// TM that silently rewrote either would queue packets somewhere the
    /// caller never provisioned.
    pub fn new(ports: usize, capacity: usize) -> Result<Self, CoreError> {
        if ports == 0 {
            return Err(CoreError::Config(
                "traffic manager needs at least one egress port queue (ports=0)".into(),
            ));
        }
        if capacity == 0 {
            return Err(CoreError::Config(
                "traffic manager queue capacity must be nonzero (capacity=0)".into(),
            ));
        }
        Ok(TrafficManager {
            ports: (0..ports).map(|_| PortQueues::new()).collect(),
            capacity,
            rr_next: 0,
            class_id: ipsa_netpkt::intern::meta_id(TM_CLASS_META),
            stats: TmStats::default(),
        })
    }

    /// The traffic class a packet is queued under: an explicit
    /// [`TM_CLASS_META`] metadata override when set (1..=3 map to
    /// classes 0..=2), else the DSCP codepoint read from the raw frame
    /// (EF and the CS5+ pool map to priority, AF to assured), else
    /// best-effort for non-IP traffic.
    pub fn traffic_class(&self, pkt: &Packet) -> usize {
        let v = pkt.meta.get_user(self.class_id);
        if v != 0 {
            return ((v as usize).saturating_sub(1)).min(TM_CLASS_BEST_EFFORT);
        }
        match dscp_of(&pkt.data) {
            Some(dscp) if dscp >= 40 => TM_CLASS_PRIORITY,
            Some(dscp) if dscp >= 8 => TM_CLASS_ASSURED,
            _ => TM_CLASS_BEST_EFFORT,
        }
    }

    /// Accepts a packet from the ingress pipeline. Packets without an
    /// egress decision are dropped here (counted), as a real TM would;
    /// packets to a full class queue are tail-dropped.
    pub fn enqueue(&mut self, pkt: Packet) {
        let Some(port) = pkt.meta.egress_port else {
            self.stats.no_route_drops += 1;
            return;
        };
        let class = self.traffic_class(&pkt);
        let idx = (port as usize) % self.ports.len();
        let pq = &mut self.ports[idx];
        if pq.cls[class].len() >= self.capacity {
            self.stats.tail_drops += 1;
            self.stats.class_mut(class).tail_drops += 1;
            return;
        }
        pq.cls[class].push_back(pkt);
        self.stats.enqueued += 1;
        self.stats.class_mut(class).enqueued += 1;
        let depth = pq.depth();
        self.stats.max_depth = self.stats.max_depth.max(depth);
    }

    /// Hands the next packet to the egress pipeline: round-robin across
    /// the non-empty ports, strict-priority + WDRR within the port.
    pub fn dequeue(&mut self) -> Option<Packet> {
        let n = self.ports.len();
        for i in 0..n {
            let idx = (self.rr_next + i) % n;
            if self.ports[idx].depth() == 0 {
                continue;
            }
            self.rr_next = (idx + 1) % n;
            let (class, pkt) = self.ports[idx].dequeue_one().expect("port has backlog");
            self.stats.class_mut(class).dequeued += 1;
            return Some(pkt);
        }
        None
    }

    /// Total queued packet count.
    pub fn depth(&self) -> usize {
        self.ports.iter().map(|p| p.depth()).sum()
    }

    /// Queued packets on one port (all classes).
    pub fn port_depth(&self, port: u16) -> usize {
        self.ports
            .get((port as usize) % self.ports.len())
            .map(|p| p.depth())
            .unwrap_or(0)
    }

    /// Queued packets in one class of one port.
    pub fn class_depth(&self, port: u16, class: usize) -> usize {
        self.ports
            .get((port as usize) % self.ports.len())
            .and_then(|p| p.cls.get(class))
            .map(|q| q.len())
            .unwrap_or(0)
    }
}

/// The DSCP codepoint of a raw Ethernet frame, when it carries IPv4 or
/// IPv6 (`None` for anything else or truncated headers).
fn dscp_of(data: &[u8]) -> Option<u8> {
    let ethertype = u16::from_be_bytes([*data.get(12)?, *data.get(13)?]);
    match ethertype {
        0x0800 => Some(*data.get(15)? >> 2),
        0x86DD => {
            let tc = ((*data.get(14)? & 0x0F) << 4) | (*data.get(15)? >> 4);
            Some(tc >> 2)
        }
        _ => None,
    }
}

/// Pipeline-level statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct PipelineStats {
    /// Packets entering the ingress pipeline.
    pub received: u64,
    /// Packets emitted by the egress pipeline.
    pub emitted: u64,
    /// Packets dropped by actions (ingress or egress).
    pub action_drops: u64,
    /// Malformed packets dropped by the parser (truncated mid-header).
    pub parse_drops: u64,
    /// Packets dropped on any other per-packet pipeline error (e.g. a
    /// live template naming a destroyed table).
    pub error_drops: u64,
}

/// The pipeline module.
#[derive(Debug)]
pub struct PipelineModule {
    /// Physical TSP slots in chain order.
    pub slots: Vec<TspSlot>,
    /// Selector configuration.
    pub selector: SelectorConfig,
    /// TSP ↔ memory crossbar.
    pub crossbar: Crossbar,
    /// The Traffic Manager between ingress and egress.
    pub tm: TrafficManager,
    /// True while a structural update holds traffic back.
    pub draining: bool,
    /// Statistics.
    pub stats: PipelineStats,
    /// Current control-plane epoch; bumped on every invalidation.
    epoch: u64,
    /// Compiled fast path for the current epoch, if one was built.
    compiled: Option<CompiledPath>,
    /// Reusable per-packet scratch buffers for the fast path.
    scratch: EvalScratch,
}

impl PipelineModule {
    /// New pipeline with `slots` unprogrammed TSPs, `ports` TM output
    /// queues, and a crossbar. Fails with [`CoreError::Config`] on a
    /// zero port count — the TM would have nowhere to queue.
    pub fn new(slots: usize, ports: usize, crossbar: Crossbar) -> Result<Self, CoreError> {
        Ok(PipelineModule {
            slots: (0..slots).map(|_| TspSlot::default()).collect(),
            selector: SelectorConfig::all_bypass(slots),
            crossbar,
            tm: TrafficManager::new(ports, TM_QUEUE_CAPACITY)?,
            draining: false,
            stats: PipelineStats::default(),
            epoch: 0,
            compiled: None,
            scratch: EvalScratch::default(),
        })
    }

    /// Discards the compiled fast path and opens a new control-plane
    /// epoch. Called whenever a structural control batch is applied — any
    /// message beyond entry add/delete/default may change names, templates,
    /// tables, or wiring the compiled path has pre-resolved. Entry batches
    /// change only rows, which the compiled path reads in place.
    pub fn invalidate_compiled(&mut self) {
        self.compiled = None;
        self.epoch += 1;
    }

    /// The current control-plane epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// True when a compiled fast path is installed for the current epoch.
    pub fn has_compiled(&self) -> bool {
        self.compiled.is_some()
    }

    /// The compiled fast path of the current epoch, if one was built.
    pub fn compiled(&self) -> Option<&CompiledPath> {
        self.compiled.as_ref()
    }

    /// Ensures a compiled fast path exists for the current epoch. Returns
    /// whether one is installed afterwards — compilation failures (unknown
    /// table, crossbar violation, undefined action) leave the pipeline on
    /// the interpreter, which reports those conditions per packet.
    pub fn ensure_compiled(&mut self, linkage: &HeaderLinkage, sm: &StorageModule) -> bool {
        if self.compiled.is_none() {
            self.compiled = fast::compile(
                &self.slots,
                &self.selector,
                &self.crossbar,
                sm,
                linkage,
                self.epoch,
            )
            .ok();
        }
        self.compiled.is_some()
    }

    /// Checks out the compiled fast path and scratch buffers for a whole
    /// run-to-completion drain; the [`BurstRunner`] restores them when
    /// dropped.
    ///
    /// Call [`PipelineModule::ensure_compiled`] once per epoch first; the
    /// caller guarantees no control-plane write lands while the runner is
    /// live (this is the hoisted epoch-validity model). Without a compiled
    /// path the runner falls back to the interpreter per packet.
    pub(crate) fn burst_runner(&mut self) -> BurstRunner<'_> {
        let cp = self.compiled.take();
        self.runner(cp)
    }

    /// A [`BurstRunner`] that leaves the compiled path where it is, so
    /// every packet takes [`PipelineModule::run_packet`]: the reference
    /// interpreter the compiled path is checked against.
    pub(crate) fn interp_runner(&mut self) -> BurstRunner<'_> {
        self.runner(None)
    }

    fn runner(&mut self, cp: Option<CompiledPath>) -> BurstRunner<'_> {
        BurstRunner {
            cp,
            scratch: std::mem::take(&mut self.scratch),
            pm: self,
        }
    }

    /// Runs a whole burst run-to-completion through one
    /// `PipelineModule::burst_runner` checkout. Drains `pkts` and pushes
    /// emitted packets to `out`; per-packet failures are counted drops
    /// ([`PipelineStats::parse_drops`], [`PipelineStats::error_drops`]),
    /// so no burst fails as a whole and the result is always `Ok`.
    pub fn run_burst(
        &mut self,
        linkage: &HeaderLinkage,
        sm: &mut StorageModule,
        pkts: &mut Vec<Packet>,
        out: &mut Vec<Packet>,
    ) -> Result<(), CoreError> {
        let mut runner = self.burst_runner();
        for pkt in pkts.drain(..) {
            out.extend(runner.run(linkage, sm, pkt));
        }
        Ok(())
    }

    /// Number of physical slots.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Active (non-bypassed) TSP count — the power model's main input.
    pub fn active_tsps(&self) -> usize {
        self.selector.active_count()
    }

    /// Runs one packet through the full pipeline. Returns the emitted
    /// packet, or `None` if it was dropped (by an action or for lacking a
    /// route).
    pub fn run_packet(
        &mut self,
        linkage: &HeaderLinkage,
        sm: &mut StorageModule,
        mut pkt: Packet,
    ) -> Result<Option<Packet>, CoreError> {
        self.stats.received += 1;
        // Ingress pipeline.
        for s in self.selector.slots_with(SlotRole::Ingress) {
            self.slots[s].process(s, linkage, sm, &self.crossbar, &mut pkt)?;
            if pkt.meta.drop {
                self.stats.action_drops += 1;
                return Ok(None);
            }
        }
        // Traffic Manager.
        self.tm.enqueue(pkt);
        let Some(mut pkt) = self.tm.dequeue() else {
            return Ok(None); // dropped for no route
        };
        // Egress pipeline.
        for s in self.selector.slots_with(SlotRole::Egress) {
            self.slots[s].process(s, linkage, sm, &self.crossbar, &mut pkt)?;
            if pkt.meta.drop {
                self.stats.action_drops += 1;
                return Ok(None);
            }
        }
        self.stats.emitted += 1;
        Ok(Some(pkt))
    }

    /// Applies a new selector configuration (validated).
    pub fn set_selector(&mut self, cfg: SelectorConfig) -> Result<(), CoreError> {
        cfg.validate()?;
        if cfg.slots() != self.slots.len() {
            return Err(CoreError::InvalidSelector(format!(
                "selector covers {} slots, pipeline has {}",
                cfg.slots(),
                self.slots.len()
            )));
        }
        self.selector = cfg;
        Ok(())
    }

    /// Writes a template into a slot ("a few clock cycles").
    pub fn write_template(
        &mut self,
        slot: usize,
        template: ipsa_core::template::TspTemplate,
    ) -> Result<(), CoreError> {
        let n = self.slots.len();
        self.slots
            .get_mut(slot)
            .ok_or(CoreError::SlotOutOfRange { slot, slots: n })?
            .template = Some(template);
        Ok(())
    }

    /// Clears a slot.
    pub fn clear_slot(&mut self, slot: usize) -> Result<(), CoreError> {
        let n = self.slots.len();
        self.slots
            .get_mut(slot)
            .ok_or(CoreError::SlotOutOfRange { slot, slots: n })?
            .template = None;
        Ok(())
    }
}

/// A checked-out fast path (see [`PipelineModule::burst_runner`]): holds
/// the compiled path and scratch buffers for the duration of a
/// run-to-completion drain, so the hot loop pays no per-packet checkout.
/// Restores both into the pipeline on drop. The device's one per-packet
/// loop body: every drain on the single-core switch goes through
/// [`BurstRunner::run`].
#[derive(Debug)]
pub(crate) struct BurstRunner<'a> {
    cp: Option<CompiledPath>,
    scratch: EvalScratch,
    pm: &'a mut PipelineModule,
}

impl BurstRunner<'_> {
    /// True while a structural update holds traffic back.
    #[inline]
    pub(crate) fn draining(&self) -> bool {
        self.pm.draining
    }

    /// Runs one packet — compiled fast path when checked out, interpreter
    /// otherwise — and returns what it emitted; a packet that failed is a
    /// counted drop (see [`classify_packet_result`]).
    #[inline]
    pub(crate) fn run(
        &mut self,
        linkage: &HeaderLinkage,
        sm: &mut StorageModule,
        pkt: Packet,
    ) -> Option<Packet> {
        let r = match &self.cp {
            Some(cp) => cp.run_packet(self.pm, linkage, sm, &mut self.scratch, pkt),
            None => self.pm.run_packet(linkage, sm, pkt),
        };
        classify_packet_result(r, &mut self.pm.stats)
    }
}

impl Drop for BurstRunner<'_> {
    fn drop(&mut self) {
        self.pm.scratch = std::mem::take(&mut self.scratch);
        // An interpreter runner checked nothing out; the compiled path it
        // left in place must survive it.
        if let Some(cp) = self.cp.take() {
            self.pm.compiled = Some(cp);
        }
    }
}

/// Classifies one per-packet pipeline result the way real hardware does:
/// one bad packet is a counted drop, never a device fault. Malformed
/// traffic (truncated mid-header) is a parse drop — switches discard
/// runts; any other error (e.g. a live template naming a destroyed table)
/// is an error drop. Shared by [`BurstRunner::run`] and the sharded
/// workers so both planes count drops identically.
#[inline]
pub(crate) fn classify_packet_result(
    r: Result<Option<Packet>, CoreError>,
    stats: &mut PipelineStats,
) -> Option<Packet> {
    match r {
        Ok(out) => out,
        Err(CoreError::Packet(ipsa_netpkt::packet::PacketError::Truncated { .. })) => {
            stats.parse_drops += 1;
            None
        }
        Err(_) => {
            stats.error_drops += 1;
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipsa_core::action::{ActionDef, Primitive};
    use ipsa_core::predicate::Predicate;
    use ipsa_core::table::{ActionCall, KeyField, MatchKind, TableDef, TableEntry};
    use ipsa_core::template::{MatcherBranch, TspTemplate};
    use ipsa_core::value::{LValueRef, ValueRef};
    use ipsa_netpkt::builder::{ipv4_udp_packet, Ipv4UdpSpec};

    /// Two-stage pipeline: ingress sets nexthop from FIB; egress forwards
    /// on nexthop.
    fn two_stage() -> (HeaderLinkage, StorageModule, PipelineModule) {
        let linkage = HeaderLinkage::standard();
        let mut sm = StorageModule::new(8, 2, 128);
        sm.define_metadata(&[("nexthop".into(), 16)]);
        sm.define_action(ActionDef {
            name: "set_nh".into(),
            params: vec![("nh".into(), 16)],
            body: vec![Primitive::Set {
                dst: LValueRef::Meta("nexthop".into()),
                src: ValueRef::Param(0),
            }],
        });
        sm.define_action(ActionDef {
            name: "fwd".into(),
            params: vec![("port".into(), 16)],
            body: vec![Primitive::Forward {
                port: ValueRef::Param(0),
            }],
        });
        sm.create_table(
            TableDef {
                name: "fib".into(),
                key: vec![KeyField {
                    source: ValueRef::field("ipv4", "dst_addr"),
                    bits: 32,
                    kind: MatchKind::Lpm,
                }],
                size: 64,
                actions: vec!["set_nh".into()],
                default_action: ActionCall::no_action(),
                with_counters: false,
            },
            vec![0],
        )
        .unwrap();
        sm.create_table(
            TableDef {
                name: "out".into(),
                key: vec![KeyField {
                    source: ValueRef::Meta("nexthop".into()),
                    bits: 16,
                    kind: MatchKind::Exact,
                }],
                size: 64,
                actions: vec!["fwd".into()],
                default_action: ActionCall::no_action(),
                with_counters: false,
            },
            vec![1],
        )
        .unwrap();
        sm.insert_entry(
            "fib",
            TableEntry {
                key: vec![ipsa_core::table::KeyMatch::Lpm {
                    value: 0x0a000000,
                    prefix_len: 8,
                }],
                priority: 0,
                action: ActionCall::new("set_nh", vec![5]),
                counter: 0,
            },
        )
        .unwrap();
        sm.insert_entry(
            "out",
            TableEntry::exact(vec![5], ActionCall::new("fwd", vec![3])),
        )
        .unwrap();

        let mut pm = PipelineModule::new(8, 8, Crossbar::full()).unwrap();
        pm.write_template(
            0,
            TspTemplate {
                stage_name: "fib_s".into(),
                func: "base".into(),
                parse: vec!["ipv4".into()],
                branches: vec![MatcherBranch {
                    pred: Predicate::IsValid("ipv4".into()),
                    table: Some("fib".into()),
                }],
                executor: vec![(1, ActionCall::new("set_nh", vec![]))],
                default_action: ActionCall::no_action(),
            },
        )
        .unwrap();
        // The TM needs a forwarding decision out of ingress, so the
        // forwarding stage lives at the end of ingress here; the egress
        // slot 7 hosts a pass-through rewrite stage.
        pm.write_template(
            1,
            TspTemplate {
                stage_name: "out_s".into(),
                func: "base".into(),
                parse: vec![],
                branches: vec![MatcherBranch {
                    pred: Predicate::True,
                    table: Some("out".into()),
                }],
                executor: vec![(1, ActionCall::new("fwd", vec![]))],
                default_action: ActionCall::no_action(),
            },
        )
        .unwrap();
        pm.write_template(7, TspTemplate::passthrough("egress_noop"))
            .unwrap();
        pm.crossbar.connect(0, &[0]).unwrap();
        pm.crossbar.connect(1, &[1]).unwrap();
        pm.set_selector(SelectorConfig::split(8, 2, 1).unwrap())
            .unwrap();
        (linkage, sm, pm)
    }

    #[test]
    fn routed_packet_flows_end_to_end() {
        let (linkage, mut sm, mut pm) = two_stage();
        let p = ipv4_udp_packet(&Ipv4UdpSpec {
            dst_ip: 0x0a010101,
            ..Default::default()
        });
        let out = pm.run_packet(&linkage, &mut sm, p).unwrap().unwrap();
        assert_eq!(out.meta.egress_port, Some(3));
        assert_eq!(pm.stats.emitted, 1);
        assert_eq!(pm.tm.stats.enqueued, 1);
    }

    #[test]
    fn unrouted_packet_dropped_at_tm() {
        let (linkage, mut sm, mut pm) = two_stage();
        let p = ipv4_udp_packet(&Ipv4UdpSpec {
            dst_ip: 0x0b000001, // no FIB entry -> no nexthop -> no out match
            ..Default::default()
        });
        let out = pm.run_packet(&linkage, &mut sm, p).unwrap();
        assert!(out.is_none());
        assert_eq!(pm.tm.stats.no_route_drops, 1);
        assert_eq!(pm.stats.emitted, 0);
    }

    #[test]
    fn bypassed_slots_do_no_work() {
        let (linkage, mut sm, mut pm) = two_stage();
        // Slot 2 gets a template but stays bypassed by the selector.
        pm.write_template(2, TspTemplate::passthrough("idle"))
            .unwrap();
        let p = ipv4_udp_packet(&Ipv4UdpSpec {
            dst_ip: 0x0a010101,
            ..Default::default()
        });
        pm.run_packet(&linkage, &mut sm, p).unwrap();
        assert_eq!(pm.slots[2].stats.packets, 0);
        assert_eq!(pm.active_tsps(), 3);
    }

    #[test]
    fn tm_tail_drops_and_round_robin() {
        let mut tm = TrafficManager::new(2, 3).unwrap();
        let pkt_to = |port: u16| {
            let mut p = Packet::new(vec![0u8; 4], 0);
            p.meta.egress_port = Some(port);
            p
        };
        // Fill port 0 beyond capacity.
        for _ in 0..5 {
            tm.enqueue(pkt_to(0));
        }
        assert_eq!(tm.stats.tail_drops, 2);
        assert_eq!(tm.port_depth(0), 3);
        // Interleave a port-1 packet: round-robin alternates queues.
        tm.enqueue(pkt_to(1));
        let order: Vec<u16> = std::iter::from_fn(|| tm.dequeue())
            .map(|p| p.meta.egress_port.unwrap())
            .collect();
        assert_eq!(order, vec![0, 1, 0, 0]);
        // No-route packets drop, never enqueue.
        tm.enqueue(Packet::new(vec![0u8; 4], 0));
        assert_eq!(tm.stats.no_route_drops, 1);
        assert_eq!(tm.depth(), 0);
    }

    #[test]
    fn tm_honors_configured_port_count() {
        // Regression: the pipeline used to build its TM with the default 8
        // queues regardless of the configured port count, so ports 12 and 4
        // aliased onto the same queue (12 % 8 == 4).
        let mut pm = PipelineModule::new(8, 16, Crossbar::full()).unwrap();
        let pkt_to = |port: u16| {
            let mut p = Packet::new(vec![0u8; 4], 0);
            p.meta.egress_port = Some(port);
            p
        };
        pm.tm.enqueue(pkt_to(12));
        pm.tm.enqueue(pkt_to(4));
        assert_eq!(pm.tm.port_depth(12), 1);
        assert_eq!(pm.tm.port_depth(4), 1);
    }

    #[test]
    fn selector_validation_enforced() {
        let (_, _, mut pm) = two_stage();
        let bad = SelectorConfig {
            roles: vec![SlotRole::Egress; 8]
                .into_iter()
                .enumerate()
                .map(|(i, r)| if i == 7 { SlotRole::Ingress } else { r })
                .collect(),
        };
        assert!(pm.set_selector(bad).is_err());
        assert!(
            pm.set_selector(SelectorConfig::all_bypass(4)).is_err(),
            "wrong width rejected"
        );
    }

    #[test]
    fn tm_rejects_zero_ports_and_capacity() {
        // Regression: `TrafficManager::new` used to rewrite ports=0 and
        // capacity=0 to 1 via `.max(1)`, hiding the misconfiguration.
        assert!(matches!(
            TrafficManager::new(0, 64),
            Err(CoreError::Config(_))
        ));
        assert!(matches!(
            TrafficManager::new(4, 0),
            Err(CoreError::Config(_))
        ));
        assert!(matches!(
            PipelineModule::new(8, 0, Crossbar::full()),
            Err(CoreError::Config(_))
        ));
    }

    fn classed_packet(port: u16, dscp: u8, len: usize) -> Packet {
        let mut p = ipv4_udp_packet(&Ipv4UdpSpec {
            dst_ip: 0x0a010101,
            dscp,
            payload: vec![0xAB; len],
            ..Default::default()
        });
        p.meta.egress_port = Some(port);
        p
    }

    #[test]
    fn tm_classifies_by_dscp_and_metadata_override() {
        let tm = TrafficManager::new(2, 4).unwrap();
        assert_eq!(
            tm.traffic_class(&classed_packet(0, 46, 16)),
            TM_CLASS_PRIORITY,
            "EF is strict priority"
        );
        assert_eq!(
            tm.traffic_class(&classed_packet(0, 10, 16)),
            TM_CLASS_ASSURED,
            "AF11 is assured"
        );
        assert_eq!(
            tm.traffic_class(&classed_packet(0, 0, 16)),
            TM_CLASS_BEST_EFFORT
        );
        // Non-IP frames fall to best-effort.
        let mut raw = Packet::new(vec![0u8; 4], 0);
        raw.meta.egress_port = Some(0);
        assert_eq!(tm.traffic_class(&raw), TM_CLASS_BEST_EFFORT);
        // Explicit metadata override beats DSCP: 1..=3 select a class.
        let id = ipsa_netpkt::intern::meta_id(TM_CLASS_META);
        let mut p = classed_packet(0, 0, 16);
        p.meta.set_user(id, 1);
        assert_eq!(tm.traffic_class(&p), TM_CLASS_PRIORITY);
        p.meta.set_user(id, 2);
        assert_eq!(tm.traffic_class(&p), TM_CLASS_ASSURED);
        p.meta.set_user(id, 99);
        assert_eq!(tm.traffic_class(&p), TM_CLASS_BEST_EFFORT);
    }

    #[test]
    fn tm_strict_priority_never_drops_before_best_effort() {
        let mut tm = TrafficManager::new(1, 2).unwrap();
        // Flood best-effort far past its own queue; priority still has
        // dedicated headroom and is served first.
        for _ in 0..6 {
            tm.enqueue(classed_packet(0, 0, 16));
        }
        for _ in 0..2 {
            tm.enqueue(classed_packet(0, 46, 16));
        }
        assert_eq!(tm.stats.best_effort.tail_drops, 4);
        assert_eq!(tm.stats.priority.tail_drops, 0);
        let drained: Vec<Packet> = std::iter::from_fn(|| tm.dequeue()).collect();
        let order: Vec<usize> = drained.iter().map(|p| tm.traffic_class(p)).collect();
        assert_eq!(
            order,
            vec![
                TM_CLASS_PRIORITY,
                TM_CLASS_PRIORITY,
                TM_CLASS_BEST_EFFORT,
                TM_CLASS_BEST_EFFORT
            ]
        );
        assert_eq!(tm.stats.priority.dequeued, 2);
        assert_eq!(tm.stats.best_effort.dequeued, 2);
    }

    #[test]
    fn tm_wdrr_shares_residual_bandwidth_by_weight() {
        let mut tm = TrafficManager::new(1, 64).unwrap();
        // Equal-size backlogs in assured and best-effort; WDRR at 3:1
        // should serve ~3 assured bytes per best-effort byte while both
        // stay backlogged. Drain a full DRR cycle (one quantum round per
        // class) so the burst granularity of deficit service averages out.
        for _ in 0..64 {
            tm.enqueue(classed_packet(0, 10, 100));
            tm.enqueue(classed_packet(0, 0, 100));
        }
        let mut served = [0usize; TM_CLASSES];
        for _ in 0..44 {
            let p = tm.dequeue().unwrap();
            served[tm.traffic_class(&p)] += 1;
        }
        assert_eq!(served[TM_CLASS_PRIORITY], 0);
        let (af, be) = (served[TM_CLASS_ASSURED], served[TM_CLASS_BEST_EFFORT]);
        assert!(
            af >= 2 * be && be > 0,
            "assured should get ~3x the service of best-effort, got {af}:{be}"
        );
    }

    #[test]
    fn slot_bounds_checked() {
        let (_, _, mut pm) = two_stage();
        assert!(matches!(
            pm.write_template(99, TspTemplate::passthrough("x")),
            Err(CoreError::SlotOutOfRange { .. })
        ));
        assert!(matches!(
            pm.clear_slot(99),
            Err(CoreError::SlotOutOfRange { .. })
        ));
    }
}
