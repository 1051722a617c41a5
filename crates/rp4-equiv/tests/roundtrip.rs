//! Update-plan validation over the shipped incremental scripts: after each
//! in-situ update, the stages of functions the update does not touch must
//! behave identically (seam b), and the failback diff pair must round-trip
//! the design to an exact identity (seam c).

use rp4_equiv::{check_design_design, check_roundtrip};
use rp4_lang::{Program, Severity};
use rp4c::{design_diff, full_compile, incremental_compile, CompilerTarget, UpdateCmd};

const BASE: &str = include_str!("../../../programs/base.rp4");
const ECMP: &str = include_str!("../../../programs/ecmp.rp4");
const SRV6: &str = include_str!("../../../programs/srv6.rp4");
const FLOWPROBE: &str = include_str!("../../../programs/flowprobe.rp4");

fn snippet(src: &str) -> Program {
    rp4_lang::parse(src).expect("snippet parses")
}

fn link(from: &str, to: &str) -> UpdateCmd {
    UpdateCmd::AddLink {
        from: from.into(),
        to: to.into(),
    }
}

fn unlink(from: &str, to: &str) -> UpdateCmd {
    UpdateCmd::DelLink {
        from: from.into(),
        to: to.into(),
    }
}

/// The three shipped update scripts, as structural command batches.
fn scripts() -> Vec<(&'static str, Vec<UpdateCmd>)> {
    vec![
        (
            "ecmp",
            vec![
                UpdateCmd::Load {
                    snippet: snippet(ECMP),
                    func: "ecmp".into(),
                },
                link("ipv6_host", "ecmp"),
                link("ecmp", "dmac"),
                unlink("ipv6_host", "nexthop"),
                unlink("nexthop", "dmac"),
            ],
        ),
        (
            "srv6",
            vec![
                UpdateCmd::Load {
                    snippet: snippet(SRV6),
                    func: "srv6".into(),
                },
                link("fwd_mode", "srv6_end_s"),
                link("srv6_end_s", "srv6_transit_s"),
                link("srv6_transit_s", "ipv4_lpm"),
                unlink("fwd_mode", "ipv4_lpm"),
                UpdateCmd::LinkHeader {
                    pre: "ipv6".into(),
                    next: "srh".into(),
                    tag: 43,
                },
                UpdateCmd::LinkHeader {
                    pre: "srh".into(),
                    next: "ipv6".into(),
                    tag: 41,
                },
                UpdateCmd::LinkHeader {
                    pre: "srh".into(),
                    next: "ipv4".into(),
                    tag: 4,
                },
                UpdateCmd::LinkHeader {
                    pre: "srh".into(),
                    next: "tcp".into(),
                    tag: 6,
                },
                UpdateCmd::LinkHeader {
                    pre: "srh".into(),
                    next: "udp".into(),
                    tag: 17,
                },
            ],
        ),
        (
            "flowprobe",
            vec![
                UpdateCmd::Load {
                    snippet: snippet(FLOWPROBE),
                    func: "probe".into(),
                },
                link("bd_vrf", "flow_probe_s"),
                link("flow_probe_s", "fwd_mode"),
                unlink("bd_vrf", "fwd_mode"),
            ],
        ),
    ]
}

fn errors(diags: &[rp4_lang::Diagnostic]) -> Vec<String> {
    diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .map(|d| format!("{}[{}]: {}", d.severity, d.code, d.message))
        .collect()
}

/// Untouched functions behave identically across every shipped update.
#[test]
fn updates_preserve_untouched_functions() {
    let base_prog = rp4_lang::parse(BASE).unwrap();
    let target = CompilerTarget::ipbm();
    let base = full_compile(&base_prog, &target).unwrap();
    for (name, cmds) in scripts() {
        let plan = incremental_compile(
            &base.design,
            &base.program,
            &cmds,
            &target,
            rp4c::LayoutAlgo::Dp,
        )
        .unwrap_or_else(|e| panic!("{name}: incremental compile failed: {e:?}"));
        let diags = check_design_design(&base.design, &plan.design);
        let errs = errors(&diags);
        assert!(errs.is_empty(), "{name}: update not equivalent:\n{errs:#?}");
    }
}

/// `diff(A→B)` then `diff(B→A)` provably restores the original design.
#[test]
fn failback_round_trips_to_identity() {
    let base_prog = rp4_lang::parse(BASE).unwrap();
    let target = CompilerTarget::ipbm();
    let base = full_compile(&base_prog, &target).unwrap();
    for (name, cmds) in scripts() {
        let plan = incremental_compile(
            &base.design,
            &base.program,
            &cmds,
            &target,
            rp4c::LayoutAlgo::Dp,
        )
        .unwrap();
        let forward = design_diff(&base.design, &plan.design);
        let backward = design_diff(&plan.design, &base.design);
        let diags = check_roundtrip(&base.design, &forward, &backward);
        let errs = errors(&diags);
        assert!(errs.is_empty(), "{name}: failback not identity:\n{errs:#?}");
    }
}

/// A no-op diff is an empty plan and trivially round-trips.
#[test]
fn identity_diff_round_trips() {
    let base_prog = rp4_lang::parse(BASE).unwrap();
    let target = CompilerTarget::ipbm();
    let base = full_compile(&base_prog, &target).unwrap();
    let fwd = design_diff(&base.design, &base.design);
    assert!(fwd.is_empty());
    let diags = check_roundtrip(&base.design, &fwd, &fwd);
    assert!(errors(&diags).is_empty());
}
