//! Integration: the three in-situ use cases end-to-end, with live traffic
//! and the invariants the paper claims — near-zero service impact, only
//! incremental state touched, functions removable.

use rp4::demo;
use rp4::prelude::*;

/// Use case C1 full lifecycle, asserting the incremental-update invariants.
#[test]
fn c1_ecmp_lifecycle() {
    let mut flow = demo::populated_base_flow().unwrap();
    let mut gen = TrafficGen::new(21).with_flows(64);

    // Pre-update traffic and the untouched-entry invariant: entries of
    // untouched tables survive an in-situ update (PISA would lose them).
    for p in gen.ecmp_batch(100, 0x0a01_0005) {
        flow.device.inject(p);
    }
    assert_eq!(flow.device.run().len(), 100);
    let fib_entries_before = flow.device.sm.table("ipv4_lpm").unwrap().table.len();

    let outcome = flow
        .run_script(
            controller::programs::ECMP_SCRIPT,
            &controller::programs::bundled_sources,
        )
        .unwrap();
    flow.run_script(
        &demo::ecmp_population_script(),
        &controller::programs::bundled_sources,
    )
    .unwrap();

    // Invariant: untouched tables keep their entries across the update.
    assert_eq!(
        flow.device.sm.table("ipv4_lpm").unwrap().table.len(),
        fib_entries_before
    );
    // Invariant: the update only created the new tables.
    assert_eq!(outcome.report.entries_written, 0);
    // Invariant: nexthop's memory was recycled.
    assert!(flow.device.sm.table("nexthop").is_none());

    // Post-update traffic spreads.
    let mut ports = std::collections::BTreeSet::new();
    for p in gen.ecmp_batch(400, 0x0a01_0005) {
        flow.device.inject(p);
    }
    for p in flow.device.run() {
        ports.insert(p.meta.egress_port.unwrap());
    }
    assert!(ports.len() >= 3, "{ports:?}");
}

/// Use case C2: runtime protocol introduction with tunnels in and out.
#[test]
fn c2_srv6_end_to_end() {
    let mut flow = demo::populated_base_flow().unwrap();
    flow.run_script(
        controller::programs::SRV6_SCRIPT,
        &controller::programs::bundled_sources,
    )
    .unwrap();

    let sid: u128 = 0xfc01_0000_0000_0000_0000_0000_0000_0011;
    let seg2: u128 = 0xfc01_0000_0000_0000_0000_0000_0000_0022;
    flow.run_script(
        &format!("table_add local_sid srv6_end {sid:#x} =>"),
        &controller::programs::bundled_sources,
    )
    .unwrap();

    // Three-segment packet: two advances happen on consecutive visits.
    use rp4::netpkt::builder::{srv6_packet, Ipv6UdpSpec};
    let pkt = srv6_packet(
        &Ipv6UdpSpec {
            dst_ip: sid,
            ..Ipv6UdpSpec::default()
        },
        &[seg2, sid],
    );
    flow.device.inject(pkt);
    let out = flow.device.run();
    assert_eq!(out.len(), 1);
    let linkage = flow.device.linkage.clone();
    assert_eq!(
        out[0].get_field(&linkage, "ipv6", "dst_addr").unwrap(),
        seg2
    );
    assert_eq!(out[0].meta.egress_port, Some(3));

    // Unloading SRv6 removes its tables but keeps the spliced parse edges
    // (headers are device state; removing the function does not undo
    // link_header — the controller would issue unlink_header explicitly).
    flow.run_script(
        "unload --func_name srv6",
        &controller::programs::bundled_sources,
    )
    .unwrap();
    assert!(flow.device.sm.table("local_sid").is_none());
    flow.run_script(
        "unlink_header --pre ipv6 --next srh",
        &controller::programs::bundled_sources,
    )
    .unwrap();
    assert!(!flow
        .design
        .linkage
        .edges()
        .iter()
        .any(|(p, _, n)| p == "ipv6" && n == "srh"));
}

/// Use case C3 with per-flow thresholds and counter visibility.
#[test]
fn c3_probe_thresholds_per_flow() {
    let mut flow = demo::populated_base_flow().unwrap();
    flow.run_script(
        controller::programs::FLOWPROBE_SCRIPT,
        &controller::programs::bundled_sources,
    )
    .unwrap();
    // Two monitored flows with different thresholds.
    flow.run_script(
        "table_add flow_probe probe_count 0x0a000000 0x0a010000 => 10\n\
         table_add flow_probe probe_count 0x0a000001 0x0a010001 => 30",
        &controller::programs::bundled_sources,
    )
    .unwrap();

    let gen = TrafficGen::new(2).with_flows(8);
    // 40 packets each for flows 0 and 1.
    for i in [0u32, 1] {
        for _ in 0..40 {
            flow.device
                .inject(gen.flow_packet(rp4::netpkt::traffic::FlowId {
                    index: i,
                    v6: false,
                }));
        }
    }
    let out = flow.device.run();
    assert_eq!(out.len(), 80);
    let linkage = flow.device.linkage.clone();
    let marked = |src: u128| {
        out.iter()
            .filter(|p| {
                p.get_field(&linkage, "ipv4", "src_addr").unwrap() == src && p.meta.mark == 1
            })
            .count()
    };
    assert_eq!(marked(0x0a00_0000), 30, "threshold 10 -> 30 of 40 marked");
    assert_eq!(marked(0x0a00_0001), 10, "threshold 30 -> 10 of 40 marked");
}

/// The `update` script command: one-shot in-place replacement of a loaded
/// function (the paper's "function update" case), preserving the splice
/// position without re-issuing link commands.
#[test]
fn update_command_replaces_in_one_window() {
    let mut flow = demo::populated_base_flow().unwrap();
    flow.run_script(
        controller::programs::FLOWPROBE_SCRIPT,
        &controller::programs::bundled_sources,
    )
    .unwrap();
    let slots_before: Vec<(usize, String)> = flow
        .design
        .programmed()
        .map(|(s, t)| (s, t.stage_name.clone()))
        .collect();

    // Revised probe: bigger table, same stage name, one `update` command.
    let revised = controller::programs::FLOWPROBE_RP4.replace("size = 1024;", "size = 4096;");
    let sources = move |name: &str| {
        if name == "probe_v2.rp4" {
            Some(revised.clone())
        } else {
            controller::programs::bundled_sources(name)
        }
    };
    let out = flow
        .run_script("update probe_v2.rp4 --func_name probe", &sources)
        .unwrap();
    let stats = out.update_stats.unwrap();
    // In place: the probe keeps its slot; no other stage moved.
    let slots_after: Vec<(usize, String)> = flow
        .design
        .programmed()
        .map(|(s, t)| (s, t.stage_name.clone()))
        .collect();
    assert_eq!(slots_before, slots_after);
    // The template content is identical, so no TSP is rewritten; the table
    // is recreated at its new size — on the controller AND the device.
    assert_eq!(stats.template_writes, 0, "{stats:?}");
    assert!(
        stats.new_tables.contains(&"flow_probe".to_string()),
        "{stats:?}"
    );
    assert_eq!(flow.design.tables["flow_probe"].size, 4096);
    assert_eq!(
        flow.device.sm.table("flow_probe").unwrap().table.def.size,
        4096,
        "device-side schema updated"
    );
    // The revised probe still sits between bd_vrf and fwd_mode: traffic
    // flows and the probe observes it.
    flow.run_script(
        "table_add flow_probe probe_count 0x0a000000 0x0a010000 => 5",
        &sources,
    )
    .unwrap();
    let gen = TrafficGen::new(8).with_flows(4);
    for _ in 0..10 {
        flow.device
            .inject(gen.flow_packet(rp4::netpkt::traffic::FlowId {
                index: 0,
                v6: false,
            }));
    }
    let out = flow.device.run();
    assert_eq!(out.len(), 10);
    assert_eq!(out.iter().filter(|p| p.meta.mark == 1).count(), 5);
}

/// Function *update*: re-loading a function replaces its stages/tables.
#[test]
fn function_update_replaces_in_place() {
    let mut flow = demo::populated_base_flow().unwrap();
    flow.run_script(
        controller::programs::FLOWPROBE_SCRIPT,
        &controller::programs::bundled_sources,
    )
    .unwrap();
    let slots_before = flow.design.programmed().count();

    // Update = unload + load of a revised probe (bigger table).
    let revised = controller::programs::FLOWPROBE_RP4.replace("size = 1024;", "size = 2048;");
    let sources = move |name: &str| {
        if name == "flowprobe2.rp4" {
            Some(revised.clone())
        } else {
            controller::programs::bundled_sources(name)
        }
    };
    flow.run_script("unload --func_name probe", &sources)
        .unwrap();
    flow.run_script(
        "load flowprobe2.rp4 --func_name probe\n\
         add_link bd_vrf flow_probe_s\n\
         add_link flow_probe_s fwd_mode\n\
         del_link bd_vrf fwd_mode",
        &sources,
    )
    .unwrap();
    assert_eq!(flow.design.programmed().count(), slots_before);
    assert_eq!(flow.design.tables["flow_probe"].size, 2048);
    // The bigger table takes more blocks.
    assert!(
        flow.device
            .sm
            .table("flow_probe")
            .unwrap()
            .map
            .block_ids
            .len()
            >= 2
    );
}

/// The drain window loses nothing: packets injected mid-update are held
/// and forwarded after resume, across all three use cases applied in
/// sequence.
#[test]
fn sequential_updates_zero_loss() {
    let mut flow = demo::populated_base_flow().unwrap();
    let mut gen = TrafficGen::new(77).with_v6_percent(20).with_flows(32);
    let mut total_in = 0usize;
    let mut total_out = 0usize;

    for (_, _, script, _) in controller::programs::use_cases() {
        for p in gen.batch(60) {
            flow.device.inject(p);
            total_in += 1;
        }
        flow.run_script(script, &controller::programs::bundled_sources)
            .unwrap();
        // C1 needs members before held v4 traffic can route again.
        if flow.design.tables.contains_key("ecmp_ipv4")
            && flow.device.sm.table("ecmp_ipv4").unwrap().table.is_empty()
        {
            flow.run_script(
                &demo::ecmp_population_script(),
                &controller::programs::bundled_sources,
            )
            .unwrap();
        }
        total_out += flow.device.run().len();
    }
    for p in gen.batch(60) {
        flow.device.inject(p);
        total_in += 1;
    }
    total_out += flow.device.run().len();
    assert_eq!(total_in, total_out, "no packet lost across three updates");
    // All three functions coexist.
    let funcs: Vec<&str> = flow.design.funcs.iter().map(|f| f.name.as_str()).collect();
    assert!(funcs.contains(&"ecmp"), "{funcs:?}");
    assert!(funcs.contains(&"srv6"), "{funcs:?}");
    assert!(funcs.contains(&"probe"), "{funcs:?}");
}

/// A forwarding program whose `nexthop_s` stage a snippet can replace.
const FIB_NEXTHOP_DMAC: &str = r#"
    headers {
        header ethernet {
            bit<48> dst_addr; bit<48> src_addr; bit<16> ethertype;
            implicit parser(ethertype) { 0x0800: ipv4; }
        }
        header ipv4 {
            bit<8> ttl; bit<8> protocol; bit<16> hdr_checksum;
            bit<32> src_addr; bit<32> dst_addr;
            implicit parser(protocol) { }
        }
    }
    structs { struct m_t { bit<16> nexthop; bit<16> bd; } meta; }
    action set_nh(bit<16> nh) { meta.nexthop = nh; }
    action set_bd(bit<16> bd) { meta.bd = bd; }
    action fwd(bit<16> port) { forward(port); }
    table fib { key = { ipv4.dst_addr: lpm; } actions = { set_nh; } size = 512; }
    table nexthop { key = { meta.nexthop: exact; } actions = { set_bd; } size = 128; }
    table dmac { key = { meta.bd: exact; } actions = { fwd; } size = 128; }
    control rP4_Ingress {
        stage fib_s {
            parser { ipv4; }
            matcher { if (ipv4.isValid()) fib.apply(); else; }
            executor { 1: set_nh; default: NoAction; }
        }
        stage nexthop_s {
            parser { }
            matcher { nexthop.apply(); }
            executor { 1: set_bd; default: NoAction; }
        }
    }
    control rP4_Egress {
        stage dmac_s {
            parser { ethernet; }
            matcher { dmac.apply(); }
            executor { 1: fwd; default: NoAction; }
        }
    }
    user_funcs {
        func base { fib_s nexthop_s dmac_s }
        ingress_entry: fib_s;
        egress_entry: dmac_s;
    }
"#;

/// A new table packed into the blocks of the table it replaces: the update
/// must destroy the old table before it creates the new one, or the device
/// refuses the create and rolls the whole update back.
#[test]
fn replacement_table_reuses_freed_blocks() {
    let target = CompilerTarget::ipbm();
    let base = full_compile(&rp4_lang::parse(FIB_NEXTHOP_DMAC).unwrap(), &target).unwrap();
    let nexthop_blocks = base.design.table_alloc["nexthop"].clone();
    let snippet = rp4_lang::parse(
        r#"
        table nh2 { key = { meta.nexthop: exact; } actions = { set_bd; } size = 128; }
        stage nh2_s {
            parser { }
            matcher { nh2.apply(); }
            executor { 1: set_bd; default: NoAction; }
        }
    "#,
    )
    .unwrap();
    let plan = incremental_compile(
        &base.design,
        &base.program,
        &[
            rp4c::UpdateCmd::Load {
                snippet,
                func: "nh2".into(),
            },
            rp4c::UpdateCmd::AddLink {
                from: "fib_s".into(),
                to: "nh2_s".into(),
            },
            rp4c::UpdateCmd::DelLink {
                from: "fib_s".into(),
                to: "nexthop_s".into(),
            },
        ],
        &target,
        LayoutAlgo::Dp,
    )
    .unwrap();
    assert_eq!(plan.design.table_alloc["nh2"], nexthop_blocks);

    let mut sw = IpbmSwitch::new(IpbmConfig::default());
    sw.install(&base.design).unwrap();
    sw.apply(&plan.msgs).unwrap();
    assert!(sw.sm.table("nexthop").is_none());
    assert_eq!(sw.sm.table("nh2").unwrap().map.block_ids, nexthop_blocks);
}
