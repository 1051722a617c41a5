//! The PISA behavioral-model switch (bmv2 analog).
//!
//! Architecture per the paper's baseline: a standalone **front-end parser**
//! extracts every header before the pipeline; a **fixed** sequence of
//! ingress stages, a queueing point, a fixed sequence of egress stages,
//! and a **deparser** reserializing headers at the end. Memory is
//! integrated per-stage (no pool/crossbar). The control channel accepts
//! only whole-design swaps and table-entry operations — structural runtime
//! messages are *architecturally rejected*, which is exactly the
//! inflexibility IPSA removes.

use std::collections::{HashMap, VecDeque};

use ipsa_core::action::execute;
use ipsa_core::control::{ApplyReport, ControlMsg, Device};
use ipsa_core::error::CoreError;
use ipsa_core::table::Table;
use ipsa_core::template::CompiledDesign;
use ipsa_core::timing::CostModel;
use ipsa_core::value::EvalCtx;
use ipsa_netpkt::linkage::HeaderLinkage;
use ipsa_netpkt::packet::Packet;
use serde::Serialize;

/// Pipeline statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct PisaStats {
    /// Packets received.
    pub received: u64,
    /// Packets emitted.
    pub emitted: u64,
    /// Packets dropped (actions or no route).
    pub drops: u64,
    /// Headers extracted by the front parser.
    pub front_parse_extractions: u64,
    /// Deparser invocations.
    pub deparses: u64,
    /// Table lookups across all stages.
    pub lookups: u64,
    /// Full design swaps performed.
    pub reloads: u64,
}

/// The PISA reference switch.
#[derive(Debug)]
pub struct PisaSwitch {
    design: Option<CompiledDesign>,
    linkage: HeaderLinkage,
    tables: HashMap<String, Table>,
    rx: VecDeque<Packet>,
    tx: Vec<Packet>,
    /// Control-channel cost model.
    pub cost: CostModel,
    /// Statistics.
    pub stats: PisaStats,
    name: String,
}

impl PisaSwitch {
    /// A blank switch with the given cost model.
    pub fn new(cost: CostModel) -> Self {
        PisaSwitch {
            design: None,
            linkage: HeaderLinkage::new(),
            tables: HashMap::new(),
            rx: VecDeque::new(),
            tx: Vec::new(),
            cost,
            stats: PisaStats::default(),
            name: "pisa-bm".to_string(),
        }
    }

    /// Installed design, if any.
    pub fn design(&self) -> Option<&CompiledDesign> {
        self.design.as_ref()
    }

    /// Read access to a table.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(name)
    }

    fn load_design(&mut self, design: CompiledDesign) -> Result<(), CoreError> {
        design.validate()?;
        // A swap wipes ALL state — the paper's "repopulating all the
        // tables" cost follows from this.
        self.tables.clear();
        for def in design.tables.values() {
            self.tables
                .insert(def.name.clone(), Table::new(def.clone())?);
        }
        self.linkage = design.linkage.clone();
        self.design = Some(design);
        self.stats.reloads += 1;
        Ok(())
    }

    fn process(&mut self, pkt: Packet) -> Result<Option<Packet>, CoreError> {
        // Take the design out for the duration (no per-packet clone).
        let Some(design) = self.design.take() else {
            return Ok(None); // unconfigured switch drops
        };
        let result = self.process_with(&design, pkt);
        self.design = Some(design);
        result
    }

    fn process_with(
        &mut self,
        design: &CompiledDesign,
        mut pkt: Packet,
    ) -> Result<Option<Packet>, CoreError> {
        // Front-end parser: everything, up front. Runts drop here.
        let extracted = match pkt.parse_all(&self.linkage) {
            Ok(n) => n,
            Err(ipsa_netpkt::packet::PacketError::Truncated { .. }) => {
                self.stats.drops += 1;
                return Ok(None);
            }
            Err(e) => return Err(e.into()),
        };
        self.stats.front_parse_extractions += extracted as u64;

        let run_side = |slots: Vec<usize>,
                        pkt: &mut Packet,
                        stats: &mut PisaStats,
                        tables: &mut HashMap<String, Table>|
         -> Result<bool, CoreError> {
            for s in slots {
                let Some(t) = &design.templates[s] else {
                    continue;
                };
                // Fixed pipeline: non-functional stages still sit in the
                // chain (cost modeled in hwmodel); functionally they no-op.
                let ctx = EvalCtx::bare(&self.linkage);
                let mut chosen = None;
                for b in &t.branches {
                    if b.pred.eval(pkt, &ctx)? {
                        chosen = b.table.as_deref();
                        break;
                    }
                }
                let Some(tname) = chosen else {
                    continue;
                };
                let table = tables
                    .get_mut(tname)
                    .ok_or_else(|| CoreError::UnknownTable(tname.to_string()))?;
                stats.lookups += 1;
                let hit = table.lookup(pkt, &ctx)?;
                let (call, counter) = match &hit {
                    Some(h) => (t.action_for_tag(h.tag).clone(), h.counter),
                    None => (t.default_action.clone(), None),
                };
                let args = match &hit {
                    Some(h) if !h.action.args.is_empty() => h.action.args.clone(),
                    _ => call.args.clone(),
                };
                let action = design
                    .actions
                    .get(&call.action)
                    .ok_or_else(|| CoreError::UnknownAction(call.action.clone()))?;
                let ctx = EvalCtx {
                    linkage: &self.linkage,
                    params: &args,
                    entry_counter: counter,
                };
                execute(action, pkt, &ctx, &|name| design.meta_width(name))?;
                if pkt.meta.drop {
                    return Ok(false);
                }
            }
            Ok(true)
        };

        if !run_side(
            design.selector.ingress_slots(),
            &mut pkt,
            &mut self.stats,
            &mut self.tables,
        )? {
            self.stats.drops += 1;
            return Ok(None);
        }
        if pkt.meta.egress_port.is_none() {
            self.stats.drops += 1;
            return Ok(None);
        }
        if !run_side(
            design.selector.egress_slots(),
            &mut pkt,
            &mut self.stats,
            &mut self.tables,
        )? {
            self.stats.drops += 1;
            return Ok(None);
        }
        // Deparser: our packets keep raw bytes in sync, so reserialization
        // is an accounted no-op.
        self.stats.deparses += 1;
        self.stats.emitted += 1;
        Ok(Some(pkt))
    }
}

impl Device for PisaSwitch {
    fn name(&self) -> &str {
        &self.name
    }

    fn apply(&mut self, msgs: &[ControlMsg]) -> Result<ApplyReport, CoreError> {
        let mut report = ApplyReport::default();
        for msg in msgs {
            report.msgs += 1;
            let bytes = msg.payload_bytes();
            report.bytes += bytes;
            let us = self.cost.sized_msg_cost_us(msg, bytes);
            report.load_us += us;
            match msg {
                ControlMsg::LoadFullDesign(design) => {
                    // The whole swap stalls the data plane.
                    report.stall_us += us;
                    self.load_design((**design).clone())?;
                }
                ControlMsg::AddEntry { table, entry } => {
                    report.entries_written += 1;
                    let t = self
                        .tables
                        .get_mut(table)
                        .ok_or_else(|| CoreError::UnknownTable(table.clone()))?;
                    t.insert(entry.clone())?;
                }
                ControlMsg::DelEntry { table, key } => {
                    let t = self
                        .tables
                        .get_mut(table)
                        .ok_or_else(|| CoreError::UnknownTable(table.clone()))?;
                    t.delete(key)?;
                }
                ControlMsg::SetDefaultAction { table, action } => {
                    let t = self
                        .tables
                        .get_mut(table)
                        .ok_or_else(|| CoreError::UnknownTable(table.clone()))?;
                    t.def.default_action = action.clone();
                }
                // No-ops that exist for batch symmetry.
                ControlMsg::Drain | ControlMsg::Resume => {}
                other => {
                    return Err(CoreError::Unsupported(format!(
                        "PISA data plane cannot apply {other:?} at runtime; \
                         recompile and swap the full design"
                    )));
                }
            }
        }
        Ok(report)
    }

    fn inject(&mut self, packet: Packet) {
        self.stats.received += 1;
        self.rx.push_back(packet);
    }

    fn run(&mut self) -> Vec<Packet> {
        while let Some(pkt) = self.rx.pop_front() {
            match self.process(pkt) {
                Ok(Some(out)) => self.tx.push(out),
                Ok(None) => {}
                Err(e) => {
                    debug_assert!(false, "pisa pipeline error: {e}");
                    let _ = e;
                }
            }
        }
        std::mem::take(&mut self.tx)
    }

    fn pending(&self) -> usize {
        self.rx.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{pisa_compile, PisaTarget};
    use ipsa_core::table::{ActionCall, KeyMatch, TableEntry};
    use ipsa_netpkt::builder::{ipv4_udp_packet, Ipv4UdpSpec};
    use p4_lang::{build_hlir, parse_p4};

    const SRC: &str = r#"
        header ethernet_t { bit<48> dstAddr; bit<48> srcAddr; bit<16> etherType; }
        header ipv4_t {
            bit<4> version; bit<4> ihl; bit<6> dscp; bit<2> ecn;
            bit<16> totalLen; bit<16> identification; bit<3> flags;
            bit<13> fragOffset; bit<8> ttl; bit<8> protocol;
            bit<16> hdrChecksum; bit<32> srcAddr; bit<32> dstAddr;
        }
        header udp_t { bit<16> srcPort; bit<16> dstPort; bit<16> length_; bit<16> checksum; }
        struct metadata { bit<16> nexthop; }
        struct headers { ethernet_t ethernet; ipv4_t ipv4; udp_t udp; }
        parser P(packet_in packet) {
            state start { transition parse_ethernet; }
            state parse_ethernet {
                packet.extract(hdr.ethernet);
                transition select(hdr.ethernet.etherType) {
                    0x800: parse_ipv4;
                    default: accept;
                }
            }
            state parse_ipv4 {
                packet.extract(hdr.ipv4);
                transition select(hdr.ipv4.protocol) {
                    17: parse_udp;
                    default: accept;
                }
            }
            state parse_udp { packet.extract(hdr.udp); transition accept; }
        }
        control I(inout headers hdr) {
            action set_nh(bit<16> nh) { meta.nexthop = nh; }
            table fib { key = { hdr.ipv4.dstAddr: lpm; } actions = { set_nh; NoAction; } size = 128; }
            apply { if (hdr.ipv4.isValid()) { fib.apply(); } }
        }
        control E(inout headers hdr) {
            action fwd(bit<16> port) { standard_metadata.egress_spec = port; }
            table out_t { key = { meta.nexthop: exact; } actions = { fwd; NoAction; } size = 32; }
            apply { out_t.apply(); }
        }
        V1Switch(P(), I(), E()) main;
    "#;

    fn loaded_switch() -> PisaSwitch {
        let hlir = build_hlir(&parse_p4(SRC).unwrap()).unwrap();
        let design = pisa_compile(&hlir, &PisaTarget::bmv2()).unwrap();
        let mut sw = PisaSwitch::new(CostModel::software());
        sw.apply(&[ControlMsg::LoadFullDesign(Box::new(design))])
            .unwrap();
        sw
    }

    fn populate(sw: &mut PisaSwitch) {
        sw.apply(&[
            ControlMsg::AddEntry {
                table: "fib".into(),
                entry: TableEntry {
                    key: vec![KeyMatch::Lpm {
                        value: 0x0a000000,
                        prefix_len: 8,
                    }],
                    priority: 0,
                    action: ActionCall::new("set_nh", vec![7]),
                    counter: 0,
                },
            },
            ControlMsg::AddEntry {
                table: "out_t".into(),
                entry: TableEntry::exact(vec![7], ActionCall::new("fwd", vec![3])),
            },
        ])
        .unwrap();
    }

    /// `fwd` runs at egress, but the TM check happens between the sides, so
    /// this design forwards only if egress decides... it does not. PISA
    /// semantics here: egress_port must be set by *ingress*. Rebuild the
    /// expectation: our out_t stage was placed in egress, so the packet
    /// drops at the TM check. That is faithful to V1 semantics where
    /// egress_spec is an ingress-side decision — the P4 author should apply
    /// out_t in ingress. Verify both behaviours.
    #[test]
    fn egress_spec_after_tm_check_drops() {
        let mut sw = loaded_switch();
        populate(&mut sw);
        sw.inject(ipv4_udp_packet(&Ipv4UdpSpec {
            dst_ip: 0x0a010101,
            ..Default::default()
        }));
        let out = sw.run();
        assert!(out.is_empty());
        assert_eq!(sw.stats.drops, 1);
    }

    const SRC_INGRESS_FWD: &str = r#"
        header ethernet_t { bit<48> dstAddr; bit<48> srcAddr; bit<16> etherType; }
        header ipv4_t {
            bit<4> version; bit<4> ihl; bit<6> dscp; bit<2> ecn;
            bit<16> totalLen; bit<16> identification; bit<3> flags;
            bit<13> fragOffset; bit<8> ttl; bit<8> protocol;
            bit<16> hdrChecksum; bit<32> srcAddr; bit<32> dstAddr;
        }
        struct metadata { bit<16> nexthop; }
        struct headers { ethernet_t ethernet; ipv4_t ipv4; }
        parser P(packet_in packet) {
            state start { transition parse_ethernet; }
            state parse_ethernet {
                packet.extract(hdr.ethernet);
                transition select(hdr.ethernet.etherType) {
                    0x800: parse_ipv4;
                    default: accept;
                }
            }
            state parse_ipv4 { packet.extract(hdr.ipv4); transition accept; }
        }
        control I(inout headers hdr) {
            action set_nh(bit<16> nh) { meta.nexthop = nh; }
            action fwd(bit<16> port) { standard_metadata.egress_spec = port; }
            table fib { key = { hdr.ipv4.dstAddr: lpm; } actions = { set_nh; NoAction; } size = 128; }
            table out_t { key = { meta.nexthop: exact; } actions = { fwd; NoAction; } size = 32; }
            apply {
                if (hdr.ipv4.isValid()) { fib.apply(); }
                out_t.apply();
            }
        }
        control E(inout headers hdr) {
            action rw(bit<48> smac) { hdr.ethernet.srcAddr = smac; }
            table smac_t { key = { meta.nexthop: exact; } actions = { rw; NoAction; } size = 32; }
            apply { smac_t.apply(); }
        }
        V1Switch(P(), I(), E()) main;
    "#;

    fn fwd_switch() -> PisaSwitch {
        let hlir = build_hlir(&parse_p4(SRC_INGRESS_FWD).unwrap()).unwrap();
        let design = pisa_compile(&hlir, &PisaTarget::bmv2()).unwrap();
        let mut sw = PisaSwitch::new(CostModel::software());
        sw.apply(&[ControlMsg::LoadFullDesign(Box::new(design))])
            .unwrap();
        populate(&mut sw);
        sw
    }

    #[test]
    fn forwards_with_front_parsing() {
        let mut sw = fwd_switch();
        sw.inject(ipv4_udp_packet(&Ipv4UdpSpec {
            dst_ip: 0x0a010101,
            ..Default::default()
        }));
        let out = sw.run();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].meta.egress_port, Some(3));
        // Front parser extracted eth + ipv4 (+udp unreachable in this
        // program's parse graph: not linked) before the pipeline.
        assert!(sw.stats.front_parse_extractions >= 2);
        assert_eq!(sw.stats.deparses, 1);
    }

    #[test]
    fn runtime_structural_change_rejected() {
        let mut sw = fwd_switch();
        let e = sw
            .apply(&[ControlMsg::WriteTemplate {
                slot: 0,
                template: ipsa_core::template::TspTemplate::passthrough("x"),
            }])
            .unwrap_err();
        assert!(matches!(e, CoreError::Unsupported(_)));
        let e = sw
            .apply(&[ControlMsg::LinkHeader {
                pre: "ipv4".into(),
                next: "udp".into(),
                tag: 17,
            }])
            .unwrap_err();
        assert!(matches!(e, CoreError::Unsupported(_)));
    }

    #[test]
    fn reload_wipes_entries() {
        let mut sw = fwd_switch();
        assert_eq!(sw.table("fib").unwrap().len(), 1);
        // Swap the same design back in: tables come back empty.
        let design = sw.design().unwrap().clone();
        sw.apply(&[ControlMsg::LoadFullDesign(Box::new(design))])
            .unwrap();
        assert_eq!(sw.table("fib").unwrap().len(), 0);
        assert_eq!(sw.stats.reloads, 2);
        // Traffic now drops until repopulation.
        sw.inject(ipv4_udp_packet(&Ipv4UdpSpec {
            dst_ip: 0x0a010101,
            ..Default::default()
        }));
        assert!(sw.run().is_empty());
    }

    #[test]
    fn reload_cost_dwarfs_entry_cost() {
        let mut sw = fwd_switch();
        let design = sw.design().unwrap().clone();
        let reload = sw
            .apply(&[ControlMsg::LoadFullDesign(Box::new(design))])
            .unwrap();
        let entry = sw
            .apply(&[ControlMsg::AddEntry {
                table: "fib".into(),
                entry: TableEntry {
                    key: vec![KeyMatch::Lpm {
                        value: 0x0a000000,
                        prefix_len: 8,
                    }],
                    priority: 0,
                    action: ActionCall::new("set_nh", vec![7]),
                    counter: 0,
                },
            }])
            .unwrap();
        assert!(reload.load_us / entry.load_us > 100.0);
    }

    #[test]
    fn unconfigured_switch_drops_everything() {
        let mut sw = PisaSwitch::new(CostModel::software());
        sw.inject(ipv4_udp_packet(&Ipv4UdpSpec::default()));
        assert!(sw.run().is_empty());
    }
}
