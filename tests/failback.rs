//! Integration: live trials with reliable failback (the paper's second
//! motivating application) and pre-compiled update plans (Sec. 4.3's
//! "in cases the incremental updates can be pre-compiled, t_L will
//! dominate").

use rp4::demo;
use rp4::prelude::*;

/// Trial a function on live traffic, decide against it, roll back —
/// entries of untouched tables survive, traffic never stops.
#[test]
fn live_trial_with_failback() {
    let mut flow = demo::populated_base_flow().unwrap();
    let mut gen = TrafficGen::new(31).with_flows(32).with_v6_percent(0);

    // Baseline traffic.
    for p in gen.batch(100) {
        flow.device.inject(p);
    }
    assert_eq!(flow.device.run().len(), 100);
    let cp = flow.checkpoint();
    let slots_before = flow.design.programmed().count();
    let fib_entries = flow.device.sm.table("ipv4_lpm").unwrap().table.len();

    // Trial: the flow probe goes live.
    flow.run_script(
        controller::programs::FLOWPROBE_SCRIPT,
        &controller::programs::bundled_sources,
    )
    .unwrap();
    flow.run_script(
        "table_add flow_probe probe_count 0x0a000000 0x0a010000 => 10",
        &controller::programs::bundled_sources,
    )
    .unwrap();
    for p in gen.batch(100) {
        flow.device.inject(p);
    }
    assert_eq!(
        flow.device.run().len(),
        100,
        "traffic flows during the trial"
    );
    assert!(flow.device.sm.table("flow_probe").is_some());

    // Failback: a structural diff back to the checkpoint — smaller than a
    // full reinstall (the probe sat early in the pipeline, so the stages
    // behind it shift back, but headers/actions/other tables are
    // untouched).
    let full_reinstall = rp4::core::control::full_install_msgs(&flow.design).len();
    let report = flow.rollback(&cp).unwrap();
    assert!(
        report.msgs < full_reinstall,
        "rollback ({} msgs) must undercut a reinstall ({full_reinstall} msgs)",
        report.msgs
    );
    assert_eq!(flow.design.programmed().count(), slots_before);
    assert!(
        flow.device.sm.table("flow_probe").is_none(),
        "trial state recycled"
    );
    assert_eq!(
        flow.device.sm.table("ipv4_lpm").unwrap().table.len(),
        fib_entries,
        "untouched tables keep their entries"
    );

    // Traffic unaffected after failback.
    for p in gen.batch(100) {
        flow.device.inject(p);
    }
    let out = flow.device.run();
    assert_eq!(out.len(), 100);
    assert!(out.iter().all(|p| p.meta.mark == 0), "probe really gone");
}

/// Pre-compile the update plan ahead of the maintenance window; applying
/// it later pays only t_L.
#[test]
fn precompiled_plan_pays_only_load_time() {
    let mut flow = demo::populated_base_flow().unwrap();

    // Plan offline (device untouched).
    let plan = flow
        .plan_script(
            controller::programs::FLOWPROBE_SCRIPT,
            &controller::programs::bundled_sources,
        )
        .unwrap();
    assert!(
        flow.device.sm.table("flow_probe").is_none(),
        "planning is pure"
    );
    assert!(plan.stats.template_writes >= 1);

    // Apply in the window.
    let report = flow.apply_plan(plan).unwrap();
    assert!(report.load_us > 0.0);
    assert!(flow.device.sm.table("flow_probe").is_some());
    flow.design.validate().unwrap();

    // Table ops are rejected at plan time (they are runtime operations),
    // and the rejection names the script line that holds one.
    let e = flow
        .plan_script(
            "# plan\nunload --func_name probe\ntable_add port_map set_ifindex 9 => 9",
            &|_| None,
        )
        .unwrap_err();
    assert!(
        matches!(&e, controller::ControllerError::Script(s) if s.line == 3),
        "{e}"
    );
    assert!(e.to_string().starts_with("script line 3: "), "{e}");
}

/// A tampered plan that silently changes an untouched function's behavior
/// is refused by the translation-validation gate — unless the operator
/// forces it through.
#[test]
fn tampered_plan_is_refused_by_equivalence_gate() {
    fn tampered(flow: &rp4::controller::Rp4Flow<rp4::ipbm::IpbmSwitch>) -> rp4::rp4c::UpdatePlan {
        let mut plan = flow
            .plan_script(
                controller::programs::FLOWPROBE_SCRIPT,
                &controller::programs::bundled_sources,
            )
            .unwrap();
        // Miscompile simulation on a function the plan does not touch:
        // the egress port choice silently becomes a drop.
        if let Some(a) = plan.design.actions.get_mut("set_port") {
            a.body = vec![rp4::core::action::Primitive::Drop];
        }
        plan
    }
    let mut flow = demo::populated_base_flow().unwrap();
    let plan = tampered(&flow);
    let err = flow.apply_plan(plan).unwrap_err();
    assert!(
        matches!(err, controller::ControllerError::Verify(_)),
        "{err}"
    );
    assert!(
        flow.device.sm.table("flow_probe").is_none(),
        "refused plan never reaches the device"
    );

    flow.force = true;
    let plan = tampered(&flow);
    flow.apply_plan(plan).unwrap();
    assert!(flow.device.sm.table("flow_probe").is_some());
}

/// Nested trials: checkpoint, stack two functions, roll back both in one
/// step.
#[test]
fn rollback_across_multiple_updates() {
    let mut flow = demo::populated_base_flow().unwrap();
    let cp = flow.checkpoint();
    flow.run_script(
        controller::programs::FLOWPROBE_SCRIPT,
        &controller::programs::bundled_sources,
    )
    .unwrap();
    flow.run_script(
        controller::programs::SRV6_SCRIPT,
        &controller::programs::bundled_sources,
    )
    .unwrap();
    assert!(flow.design.funcs.iter().any(|f| f.name == "srv6"));

    flow.rollback(&cp).unwrap();
    assert!(flow.design.funcs.iter().all(|f| f.name != "srv6"));
    assert!(flow.design.funcs.iter().all(|f| f.name != "probe"));
    assert!(flow.device.sm.table("local_sid").is_none());
    // Runtime header links from the SRv6 script are rolled back too (the
    // checkpointed ipv6 header had no SRH transition).
    assert!(!flow
        .device
        .linkage
        .edges()
        .iter()
        .any(|(p, _, n)| p == "ipv6" && n == "srh"));
}

/// A forwarding program on a 4-slot, 2-cluster target: `fib_s`@0 and
/// `nexthop_s`@1 reach blocks 0..39, the egress `dmac_s`@3 reaches 40..79.
const CLUSTERED_BASE: &str = r#"
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

/// The clustered target, its compiled base, a switch running it with one
/// `nexthop` entry, and the update commands that insert `extra_s` before
/// `nexthop_s` — pushing `nexthop_s` into slot 2, the other cluster, so its
/// table migrates.
fn clustered_trial() -> (
    CompilerTarget,
    rp4c::Compilation,
    IpbmSwitch,
    Vec<rp4c::UpdateCmd>,
) {
    let mut target = CompilerTarget::ipbm();
    target.slots = 4;
    target.clusters = 2;
    let base = full_compile(&rp4_lang::parse(CLUSTERED_BASE).unwrap(), &target).unwrap();
    let mut sw = IpbmSwitch::new(IpbmConfig {
        slots: target.slots,
        sram_blocks: target.sram_blocks,
        tcam_blocks: target.tcam_blocks,
        clusters: target.clusters,
        ..IpbmConfig::default()
    });
    sw.install(&base.design).unwrap();
    sw.apply(&[ControlMsg::AddEntry {
        table: "nexthop".into(),
        entry: TableEntry::exact(
            vec![7],
            ActionCall {
                action: "set_bd".into(),
                args: vec![3],
            },
        ),
    }])
    .unwrap();
    let snippet = rp4_lang::parse(
        r#"
        table extra { key = { ipv4.src_addr: exact; } actions = { set_nh; } size = 64; }
        stage extra_s {
            parser { ipv4; }
            matcher { extra.apply(); }
            executor { 1: set_nh; default: NoAction; }
        }
    "#,
    )
    .unwrap();
    let link = |from: &str, to: &str| rp4c::UpdateCmd::AddLink {
        from: from.into(),
        to: to.into(),
    };
    let cmds = vec![
        rp4c::UpdateCmd::Load {
            snippet,
            func: "extra".into(),
        },
        link("fib_s", "extra_s"),
        link("extra_s", "nexthop_s"),
        rp4c::UpdateCmd::DelLink {
            from: "fib_s".into(),
            to: "nexthop_s".into(),
        },
    ];
    (target, base, sw, cmds)
}

/// Failback after a cluster migration migrates the table back: its entries
/// survive both directions.
#[test]
fn failback_migrates_a_moved_table_back() {
    let (target, base, mut sw, cmds) = clustered_trial();
    let plan =
        incremental_compile(&base.design, &base.program, &cmds, &target, LayoutAlgo::Dp).unwrap();
    assert!(plan.stats.migrated_tables.contains(&"nexthop".to_string()));
    sw.apply(&plan.msgs).unwrap();
    assert_eq!(sw.sm.table("nexthop").unwrap().table.len(), 1);

    let back = rp4::core::control::design_diff(&plan.design, &base.design);
    assert!(back
        .iter()
        .any(|m| matches!(m, ControlMsg::MigrateTable { table, .. } if table == "nexthop")));
    sw.apply(&back).unwrap();
    let nexthop = sw.sm.table("nexthop").unwrap();
    assert_eq!(nexthop.table.len(), 1, "the entry survives the failback");
    assert_eq!(nexthop.map.block_ids, base.design.table_alloc["nexthop"]);
}

/// An update that removes `dmac_s` while `nexthop` migrates into the
/// cluster `dmac` frees: `nexthop` may land on `dmac`'s blocks. Failback
/// must migrate `nexthop` off them before it recreates `dmac` there.
#[test]
fn failback_recreates_a_table_on_blocks_a_migrated_table_vacates() {
    let (target, base, mut sw, mut cmds) = clustered_trial();
    cmds.push(rp4c::UpdateCmd::DelLink {
        from: rp4c::incremental::EGRESS_ENTRY.into(),
        to: "dmac_s".into(),
    });
    let plan =
        incremental_compile(&base.design, &base.program, &cmds, &target, LayoutAlgo::Dp).unwrap();
    let dmac_blocks = &base.design.table_alloc["dmac"];
    assert!(
        plan.design.table_alloc["nexthop"]
            .iter()
            .any(|b| dmac_blocks.contains(b)),
        "nexthop migrated onto dmac's freed blocks: {:?}",
        plan.design.table_alloc
    );
    sw.apply(&plan.msgs).unwrap();

    let back = rp4::core::control::design_diff(&plan.design, &base.design);
    sw.apply(&back).unwrap();
    assert_eq!(sw.sm.table("nexthop").unwrap().table.len(), 1);
    assert_eq!(&sw.sm.table("dmac").unwrap().map.block_ids, dmac_blocks);
}
