//! Golden diagnostics over the shipped programs.
//!
//! The bundled base design must compile with zero verifier findings, and
//! every fixture under `programs/bad/` must report its expected RP4xxx
//! code anchored to a source span. RP4105 (update-plan safety) has no
//! `.rp4` fixture — plans are message sequences, not programs — and is
//! covered by `rp4_verify::plan` unit tests plus the controller's
//! tampered-plan test.

use rp4_lang::Severity;
use rp4_verify::codes;
use rp4c::{full_compile, Compilation, CompileError, CompilerTarget};

const BASE: &str = include_str!("../../../programs/base.rp4");
const BAD_RP4101: &str = include_str!("../../../programs/bad/rp4101_use_before_parse.rp4");
const BAD_RP4102: &str = include_str!("../../../programs/bad/rp4102_stage_hazard.rp4");
const BAD_RP4103: &str = include_str!("../../../programs/bad/rp4103_overcommit.rp4");
const BAD_RP4104: &str = include_str!("../../../programs/bad/rp4104_wrong_side_entry.rp4");
const BAD_RP4106: &str = include_str!("../../../programs/bad/rp4106_dead_code.rp4");
const BAD_RP4301: &str = include_str!("../../../programs/bad/rp4301_removed_header_use.rp4");
const BAD_RP4302: &str = include_str!("../../../programs/bad/rp4302_uninit_meta_read.rp4");
const BAD_RP4303: &str = include_str!("../../../programs/bad/rp4303_dead_store.rp4");
const BAD_RP4304: &str = include_str!("../../../programs/bad/rp4304_unreachable_arm.rp4");
const BAD_RP4305: &str = include_str!("../../../programs/bad/rp4305_tautological_guard.rp4");
const BAD_RP4306: &str = include_str!("../../../programs/bad/rp4306_plan_regression.rp4");

fn compile(src: &str) -> Result<Compilation, CompileError> {
    let prog = rp4_lang::parse(src).expect("fixture must parse");
    full_compile(&prog, &CompilerTarget::ipbm())
}

/// The fixture must be rejected with an error-severity finding carrying
/// `code`, and the finding must point somewhere in the source.
fn expect_error(src: &str, code: &str) {
    match compile(src) {
        Err(CompileError::Verify(diags)) => {
            let hit = diags
                .iter()
                .find(|d| d.code == code)
                .unwrap_or_else(|| panic!("no {code} among {diags:#?}"));
            assert_eq!(hit.severity, Severity::Error);
            assert!(hit.span.is_some(), "{code} finding lost its span");
        }
        Err(other) => panic!("expected a {code} verifier error, got: {other}"),
        Ok(_) => panic!("expected a {code} verifier error, but the fixture compiled"),
    }
}

/// The fixture must compile, but with a spanned warning carrying `code`.
fn expect_warning(src: &str, code: &str) {
    let c = compile(src).unwrap_or_else(|e| panic!("fixture must compile: {e}"));
    let hit = c
        .warnings
        .iter()
        .find(|d| d.code == code)
        .unwrap_or_else(|| panic!("no {code} among {:#?}", c.warnings));
    assert_eq!(hit.severity, Severity::Warning);
    assert!(hit.span.is_some(), "{code} finding lost its span");
}

#[test]
fn base_design_is_verifier_clean() {
    let c = compile(BASE).expect("base.rp4 must compile");
    assert!(c.warnings.is_empty(), "{:#?}", c.warnings);
}

#[test]
fn use_before_parse_fixture_reports_rp4101() {
    expect_error(BAD_RP4101, codes::USE_BEFORE_PARSE);
}

#[test]
fn stage_hazard_fixture_reports_rp4102() {
    expect_warning(BAD_RP4102, codes::STAGE_HAZARD);
}

#[test]
fn overcommit_fixture_reports_rp4103() {
    expect_error(BAD_RP4103, codes::MEM_OVERCOMMIT);
}

#[test]
fn wrong_side_entry_fixture_reports_rp4104() {
    expect_error(BAD_RP4104, codes::PIPELINE_INVALID);
}

#[test]
fn dead_code_fixture_reports_rp4106() {
    expect_warning(BAD_RP4106, codes::DEAD_CODE);
}

#[test]
fn removed_header_use_fixture_reports_rp4301() {
    expect_error(BAD_RP4301, rp4_dfa::codes::INVALID_HEADER_USE);
}

#[test]
fn uninit_meta_read_fixture_reports_rp4302() {
    expect_warning(BAD_RP4302, rp4_dfa::codes::UNINIT_META_READ);
}

#[test]
fn dead_store_fixture_reports_rp4303() {
    expect_warning(BAD_RP4303, rp4_dfa::codes::DEAD_STORE);
}

#[test]
fn unreachable_arm_fixture_reports_rp4304() {
    expect_warning(BAD_RP4304, rp4_dfa::codes::UNREACHABLE);
}

#[test]
fn tautological_guard_fixture_reports_rp4305() {
    expect_warning(BAD_RP4305, rp4_dfa::codes::TAUTOLOGICAL_GUARD);
}

/// Pre-update variant of the RP4306 fixture: identical reader, plus the
/// `write_nexthop` stage the update removes.
const RP4306_PRE: &str = r#"
headers {
    header ethernet {
        bit<48> dst_addr;
        bit<48> src_addr;
        bit<16> ethertype;
    }
}

structs {
    struct metadata_t {
        bit<16> nexthop;
    } meta;
}

action write_nexthop(bit<16> nh) {
    meta.nexthop = nh;
}

action set_port(bit<16> port) {
    forward(port);
}

table nh_map {
    key = { ethernet.dst_addr: exact; }
    actions = { write_nexthop; }
    size = 64;
}

table nh_route {
    key = { meta.nexthop: exact; }
    actions = { set_port; }
    size = 64;
}

control rP4_Ingress {
    stage nh_s {
        parser { ethernet; }
        matcher { nh_map.apply(); }
        executor { 1: write_nexthop; default: NoAction; }
    }
    stage route_s {
        parser { ethernet; }
        matcher { nh_route.apply(); }
        executor { 1: set_port; default: NoAction; }
    }
}
"#;

/// RP4306 is a *plan* diagnostic: it compares the programs before and
/// after an in-situ update, so it has no single-program fixture path
/// through `full_compile`. The fixture file is the post-update program;
/// the pre-update program above still carries the writer.
#[test]
fn plan_regression_pair_reports_rp4306() {
    let pre = rp4_lang::parse(RP4306_PRE).expect("pre program parses");
    let post = rp4_lang::parse(BAD_RP4306).expect("fixture parses");
    let diags = rp4_dfa::check_plan(&pre, &post);
    let hit = diags
        .iter()
        .find(|d| d.code == rp4_dfa::codes::PLAN_FACT_REGRESSION)
        .unwrap_or_else(|| panic!("no RP4306 among {diags:#?}"));
    assert_eq!(hit.severity, Severity::Error);
    assert!(hit.span.is_some(), "RP4306 finding lost its span");
    assert!(hit.message.contains("nexthop"), "{}", hit.message);
    // The reverse transition adds a writer — nothing regresses.
    assert!(rp4_dfa::check_plan(&post, &pre).is_empty());
    // Same program twice: pre-existing debt is not a plan regression.
    assert!(rp4_dfa::check_plan(&post, &post).is_empty());
}

/// One root cause, one finding: an unclaimed stage is RP4106's dead-code
/// finding. The dataflow pass runs over linked stages only, so it must not
/// report the same stage unreachable (RP4304) as well.
#[test]
fn unclaimed_stage_is_reported_once() {
    // base.rp4 with stage `acct_s` declared but left out of `user_funcs`.
    let src = BASE.replace(
        "control rP4_Ingress {",
        r#"control rP4_Ingress {
    stage floating_acct {
        parser { ethernet; }
        matcher { floating_acct_t.apply(); }
        executor { 1: set_ifindex; default: NoAction; }
    }
"#,
    );
    let src = src.replace(
        "table port_map {",
        r#"table floating_acct_t {
    key = { ethernet.src_addr: exact; }
    actions = { set_ifindex; }
    size = 16;
}

table port_map {"#,
    );
    let c = compile(&src).expect("augmented base still compiles");
    let about_stage: Vec<_> = c
        .warnings
        .iter()
        .filter(|d| d.message.contains("`floating_acct`"))
        .collect();
    assert!(
        about_stage.iter().any(|d| d.code == codes::DEAD_CODE),
        "RP4106 missing: {about_stage:#?}"
    );
    assert!(
        !about_stage
            .iter()
            .any(|d| d.code == rp4_dfa::codes::UNREACHABLE),
        "RP4304 should have been merged away: {about_stage:#?}"
    );
}
