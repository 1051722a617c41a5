//! `design_diff` as the failback mechanism: rolling an update back is the
//! diff from the updated design to the checkpoint.

use ipsa_core::control::{design_diff, ControlMsg};
use ipsa_core::template::CompiledDesign;
use rp4c::{full_compile, incremental_compile, CompilerTarget, LayoutAlgo, UpdateCmd};

/// Number of *structural* operations in a diff (excludes Drain/Resume) —
/// how invasive a rollback is.
fn diff_size(msgs: &[ControlMsg]) -> usize {
    msgs.iter()
        .filter(|m| !matches!(m, ControlMsg::Drain | ControlMsg::Resume))
        .count()
}

fn base() -> (CompiledDesign, rp4_lang::Program, CompilerTarget) {
    let prog = rp4_lang::parse(
        r#"
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
        structs { struct m_t { bit<16> nexthop; } meta; }
        action set_nh(bit<16> nh) { meta.nexthop = nh; }
        table fib { key = { ipv4.dst_addr: lpm; } actions = { set_nh; } size = 256; }
        control rP4_Ingress {
            stage fib_s {
                parser { ipv4; }
                matcher { if (ipv4.isValid()) fib.apply(); else; }
                executor { 1: set_nh; default: NoAction; }
            }
        }
        user_funcs { func base { fib_s } ingress_entry: fib_s; }
    "#,
    )
    .unwrap();
    let t = CompilerTarget::ipbm();
    let c = full_compile(&prog, &t).unwrap();
    (c.design, c.program, t)
}

fn probe_snippet() -> rp4_lang::Program {
    rp4_lang::parse(
        r#"
        action probe() { mark_if_count_over(5); }
        table fp { key = { ipv4.src_addr: exact; } actions = { probe; } size = 32; counters = true; }
        stage fp_s {
            parser { ipv4; }
            matcher { if (ipv4.isValid()) fp.apply(); else; }
            executor { 1: probe; default: NoAction; }
        }
    "#,
    )
    .unwrap()
}

#[test]
fn identity_diff_is_empty() {
    let (design, _, _) = base();
    let msgs = design_diff(&design, &design);
    assert_eq!(diff_size(&msgs), 0);
    assert!(
        msgs.is_empty(),
        "no Drain/Resume for a no-op diff: {msgs:?}"
    );
}

#[test]
fn rollback_of_an_update_is_minimal_and_exact() {
    let (design, program, target) = base();
    let plan = incremental_compile(
        &design,
        &program,
        &[
            UpdateCmd::Load {
                snippet: probe_snippet(),
                func: "probe".into(),
            },
            UpdateCmd::AddLink {
                from: "fib_s".into(),
                to: "fp_s".into(),
            },
        ],
        &target,
        LayoutAlgo::Dp,
    )
    .unwrap();

    // Roll the update back by diffing to the checkpoint.
    let back = design_diff(&plan.design, &design);
    // Minimal: destroy fp, clear its slot, selector, action removal —
    // but never touches the fib table (entries survive).
    assert!(!back
        .iter()
        .any(|m| matches!(m, ControlMsg::DestroyTable(t) if t == "fib")));
    assert!(back
        .iter()
        .any(|m| matches!(m, ControlMsg::DestroyTable(t) if t == "fp")));
    assert!(back
        .iter()
        .any(|m| matches!(m, ControlMsg::ClearSlot { .. })));
    assert!(diff_size(&back) <= 8, "rollback too invasive: {back:?}");
}

#[test]
fn header_changes_diffed() {
    let (design, program, target) = base();
    let plan = incremental_compile(
        &design,
        &program,
        &[UpdateCmd::LinkHeader {
            pre: "ipv4".into(),
            next: "ipv4".into(), // self-link is silly but structural
            tag: 4,
        }],
        &target,
        LayoutAlgo::Dp,
    )
    .unwrap();
    let back = design_diff(&plan.design, &design);
    // Only ipv4's transitions changed, so the diff unlinks the self-link
    // instead of re-registering the header.
    assert!(back.iter().any(|m| matches!(
        m,
        ControlMsg::UnlinkHeader { pre, next } if pre == "ipv4" && next == "ipv4"
    )));
    let restored = rp4_equiv::apply::apply_msgs(&plan.design, &back).expect("relink applies");
    assert_eq!(restored.linkage, design.linkage);
    assert_eq!(restored.linkage.edges(), design.linkage.edges());
}
