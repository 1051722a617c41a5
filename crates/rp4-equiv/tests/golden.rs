//! Negative validation of the RP42xx and RP44xx blocks.
//!
//! Every seeded miscompile in `programs/bad/` must be rejected with the
//! expected spanned `RP42xx` diagnostic, and the same program without the
//! fault must validate cleanly. This is what certifies that the green runs
//! in `programs.rs` mean something.
//!
//! Every seeded coverage fixture must produce its expected spanned `RP44xx`
//! diagnostic, RP4403 must deduplicate against the dataflow block, and the
//! RP4404 plan gate must block the WCET-regressing update unless `force`
//! is set.

use ipsa_controller::{ControllerError, Rp4Flow};
use rp4_equiv::{check_plan_wcet, check_program_design, codes, cover_design, Coverage, MAX_WORLDS};
use rp4_lang::Severity;
use rp4c::FaultInjection;

const WRONG_ALU: &str = include_str!("../../../programs/bad/rp4201_wrong_alu.rp4");
const DROPPED_FORWARD: &str = include_str!("../../../programs/bad/rp4202_dropped_forward.rp4");
const DROPPED_REMOVE: &str = include_str!("../../../programs/bad/rp4203_dropped_remove.rp4");
const RETAGGED_TABLE: &str = include_str!("../../../programs/bad/rp4204_retagged_table.rp4");

/// Compiles `src` twice — faulted and clean — and asserts the faulted
/// design is rejected with `code` (spanned, subject matching
/// `subject_frag`) while the clean design validates with zero diagnostics.
fn seed(src: &str, faults: FaultInjection, code: &str, subject_frag: &str) {
    let prog = rp4_lang::parse(src).expect("fixture parses");
    let env = rp4_lang::check(&prog, None).expect("fixture checks");
    let target = rp4c::CompilerTarget::ipbm();

    let clean = rp4c::full_compile(&prog, &target).expect("fixture compiles");
    let clean_diags = check_program_design(&prog, &env, &clean.design);
    assert!(
        clean_diags.is_empty(),
        "unfaulted fixture must validate cleanly, got:\n{}",
        rp4_lang::render_all(&clean_diags, Some(src), "fixture")
    );

    let bad = rp4c::full_compile_with_faults(&prog, &target, &faults).expect("faulted compiles");
    let diags = check_program_design(&prog, &env, &bad.design);
    let hits: Vec<_> = diags
        .iter()
        .filter(|d| d.code == code && d.severity == Severity::Error)
        .collect();
    assert!(
        !hits.is_empty(),
        "expected {code} for the seeded fault, got:\n{}",
        rp4_lang::render_all(&diags, Some(src), "fixture")
    );
    assert!(
        hits.iter().any(|d| d.message.contains(subject_frag)),
        "no {code} diagnostic names `{subject_frag}`:\n{}",
        rp4_lang::render_all(&diags, Some(src), "fixture")
    );
    assert!(
        hits.iter().any(|d| d.span.is_some()),
        "expected at least one spanned {code} diagnostic"
    );
    // The witness cross-check must never conclude the validator itself
    // mispredicted — every concretized packet agrees with the ipbm run.
    for d in &diags {
        for note in &d.notes {
            assert!(
                !note.contains("mispredicted"),
                "witness disagreed with the equivalence model: {note}"
            );
        }
    }
}

#[test]
fn wrong_alu_is_rejected_as_rp4201() {
    seed(
        WRONG_ALU,
        FaultInjection {
            swap_alu_in: Some("bump_ttl".into()),
            ..Default::default()
        },
        codes::WRITE_DIVERGENCE,
        "ipv4.ttl",
    );
}

#[test]
fn dropped_forward_is_rejected_as_rp4202() {
    seed(
        DROPPED_FORWARD,
        FaultInjection {
            drop_last_primitive_in: Some("to_port".into()),
            ..Default::default()
        },
        codes::OUTCOME_DIVERGENCE,
        "outcome",
    );
}

#[test]
fn dropped_remove_is_rejected_as_rp4203() {
    seed(
        DROPPED_REMOVE,
        FaultInjection {
            drop_last_primitive_in: Some("decap".into()),
            ..Default::default()
        },
        codes::VALIDITY_DIVERGENCE,
        "udp",
    );
}

#[test]
fn retagged_table_is_rejected_as_rp4204() {
    seed(
        RETAGGED_TABLE,
        FaultInjection {
            retag_table: Some("acl".into()),
            ..Default::default()
        },
        codes::STRUCT_MISMATCH,
        "acl",
    );
}

const PATH_EXPLOSION: &str = include_str!("../../../programs/bad/rp4401_path_explosion.rp4");
const UNCOVERABLE: &str = include_str!("../../../programs/bad/rp4402_uncoverable_path.rp4");
const DEAD_ACTION: &str = include_str!("../../../programs/bad/rp4403_dead_action.rp4");
const WCET_BASE: &str = include_str!("../../../programs/bad/rp4404_wcet_base.rp4");
const WCET_HEAVY: &str = include_str!("../../../programs/bad/rp4404_wcet_heavy.rp4");
const WCET_SCRIPT: &str = include_str!("../../../programs/bad/rp4404_wcet.script");

fn cover(src: &str, max_paths: usize) -> Coverage {
    let prog = rp4_lang::parse(src).expect("fixture parses");
    rp4_lang::check(&prog, None).expect("fixture checks");
    let target = rp4c::CompilerTarget::ipbm();
    let comp = rp4c::full_compile(&prog, &target).expect("fixture compiles");
    cover_design(&comp.design, Some(&comp.program), max_paths)
}

fn assert_spanned_warning(cov: &Coverage, code: &str, subject_frag: &str) {
    let hits: Vec<_> = cov.diags.iter().filter(|d| d.code == code).collect();
    assert!(
        !hits.is_empty(),
        "expected {code}, got: {:?}",
        cov.diags.iter().map(|d| &d.code).collect::<Vec<_>>()
    );
    assert!(
        hits.iter().any(|d| d.message.contains(subject_frag)),
        "no {code} diagnostic mentions `{subject_frag}`"
    );
    assert!(
        hits.iter().any(|d| d.span.is_some()),
        "expected at least one spanned {code} diagnostic"
    );
    assert!(hits.iter().all(|d| d.severity == Severity::Warning));
}

#[test]
fn path_explosion_is_reported_as_rp4401() {
    // The fixture has 64 feasible paths; a 16-world budget cannot cover
    // them.
    let cov = cover(PATH_EXPLOSION, 16);
    assert!(cov.overflowed);
    assert!(!cov.fully_covered());
    assert_spanned_warning(&cov, codes::PATH_EXPLOSION, "budget");
    // With the default budget the same program covers fully — the
    // diagnostic is about enumeration cost, not the program.
    let full = cover(PATH_EXPLOSION, MAX_WORLDS);
    assert!(full.fully_covered(), "fixture covers under default budget");
    assert!(full.diags.is_empty());
}

#[test]
fn uncoverable_path_is_reported_as_rp4402() {
    let cov = cover(UNCOVERABLE, MAX_WORLDS);
    assert!(!cov.overflowed);
    assert!(cov.feasible() > cov.covered(), "some path lacks a witness");
    assert_spanned_warning(&cov, codes::UNCOVERABLE_PATH, "non-constant");
}

#[test]
fn dead_action_is_reported_as_rp4403() {
    let cov = cover(DEAD_ACTION, MAX_WORLDS);
    assert!(cov.fully_covered(), "the live paths all concretize");
    assert_spanned_warning(&cov, codes::DEAD_ACTION, "`punt`");
    assert!(
        cov.diags.iter().any(|d| d.message.contains("`shadow`")),
        "RP4403 names the owning table for dedup against RP4304"
    );
}

#[test]
fn dead_action_dedups_against_unreachable_arm() {
    // The same fixture fires RP4304 in the dataflow block (the shadowed
    // arm); after `merge_findings` only the dataflow finding survives.
    let prog = rp4_lang::parse(DEAD_ACTION).expect("fixture parses");
    let env = rp4_lang::check(&prog, None).expect("fixture checks");
    let registries = rp4c::lower_registries(&env, &prog).expect("fixture lowers");
    let dfa = rp4c::lint_program(&prog, &env, &registries, &rp4c::CompilerTarget::ipbm());
    assert!(dfa.iter().any(|d| d.code == "RP4304"));
    let cov = cover(DEAD_ACTION, MAX_WORLDS);
    let merged = rp4_dfa::merge_findings(&dfa, cov.diags.clone());
    assert!(
        !merged.iter().any(|d| d.code == codes::DEAD_ACTION),
        "RP4403 must be deduplicated against RP4304: {merged:?}"
    );
}

fn wcet_flow() -> (Rp4Flow<ipbm::IpbmSwitch>, rp4c::UpdatePlan) {
    let prog = rp4_lang::parse(WCET_BASE).expect("base parses");
    let target = rp4c::CompilerTarget::ipbm();
    let comp = rp4c::full_compile(&prog, &target).expect("base compiles");
    let device = ipbm::IpbmSwitch::new(ipbm::IpbmConfig::default());
    let (flow, _) = Rp4Flow::install(device, comp, target).expect("base installs");
    let sources = |name: &str| -> Option<String> {
        (name == "rp4404_wcet_heavy.rp4").then(|| WCET_HEAVY.to_string())
    };
    let plan = flow
        .plan_script(WCET_SCRIPT, &sources)
        .expect("plan compiles");
    (flow, plan)
}

#[test]
fn wcet_regressing_plan_is_rejected_as_rp4404() {
    let (mut flow, plan) = wcet_flow();
    // Sanity: the plan really regresses WCET past the slack.
    let diags = check_plan_wcet(&flow.design, &plan.design, Some(&plan.program));
    assert!(
        diags
            .iter()
            .any(|d| d.code == codes::PLAN_WCET_REGRESSION && d.severity == Severity::Error),
        "expected RP4404, got {diags:?}"
    );
    assert!(diags.iter().any(|d| d.span.is_some()));
    // The gate blocks apply_plan...
    match flow.apply_plan(plan) {
        Err(ControllerError::Verify(v)) => {
            assert!(
                v.iter().any(|d| d.code == codes::PLAN_WCET_REGRESSION),
                "gate must report RP4404: {v:?}"
            );
        }
        other => panic!("expected Verify(RP4404) rejection, got {other:?}"),
    }
}

#[test]
fn wcet_regressing_plan_applies_with_force() {
    let (mut flow, plan) = wcet_flow();
    flow.force = true;
    flow.apply_plan(plan).expect("--force overrides RP4404");
    // The update really took: the design now carries the heavy chain.
    assert!(flow.design.tables.contains_key("h5"));
}

#[test]
fn proportionate_plan_passes_the_wcet_gate() {
    // The bundled ECMP load grows the pipeline moderately; it must stay
    // within the slack (no false positive on the paper's Fig. 5 flow).
    let prog = rp4_lang::parse(ipsa_controller::programs::BASE_RP4).unwrap();
    let target = rp4c::CompilerTarget::ipbm();
    let comp = rp4c::full_compile(&prog, &target).unwrap();
    let device = ipbm::IpbmSwitch::new(ipbm::IpbmConfig::default());
    let (mut flow, _) = Rp4Flow::install(device, comp, target).unwrap();
    let plan = flow
        .plan_script(
            ipsa_controller::programs::ECMP_SCRIPT,
            &ipsa_controller::programs::bundled_sources,
        )
        .unwrap();
    let diags = check_plan_wcet(&flow.design, &plan.design, Some(&plan.program));
    assert!(diags.is_empty(), "ECMP load must pass the gate: {diags:?}");
    flow.apply_plan(plan).expect("ECMP plan applies");
}
