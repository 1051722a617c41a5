//! Update-plan checks: RP4105 over the control messages, RP4306 over the
//! programs.
//!
//! An in-situ update mutates live pipeline structure (templates, selector,
//! crossbar). The runtime contract is: drain the pipeline via back pressure,
//! apply the structural messages, resume. [`verify_msgs`] checks a
//! control-message sequence for structural messages outside a
//! `Drain … Resume` window.
//!
//! An in-situ update can also silently orphan a metadata field: the snippet
//! replaces or removes every action that wrote `meta.f`, while some
//! surviving stage still reads it — after the update the read always sees
//! the zero-initialized value. [`check_plan`] compares, on each side, the
//! order-insensitive *must-uninitialized* read set (fields read by live
//! stages that **no** action reachable from a live stage writes), so the
//! verdict is stable under the controller's stage relinking and absorbed-
//! snippet placement. Only *new* uninitialized reads are errors: a field
//! that was already writer-less before the update is pre-existing debt,
//! not a plan regression.

use std::collections::{BTreeMap, BTreeSet};

use ipsa_core::control::ControlMsg;
use rp4_lang::ast::Program;
use rp4_lang::semantic::{Env, INTRINSIC_META};
use rp4_lang::{Diagnostic, ItemKind};

use crate::codes;
use crate::summary::{Res, Summary};

/// Compares the post-update program against the pre-update one and reports
/// an RP4306 error for every metadata field whose last writer the update
/// removes while a live stage still reads it.
pub fn check_plan(pre: &Program, post: &Program) -> Vec<Diagnostic> {
    let pre_env = Env::build(None, pre);
    let post_env = Env::build(None, post);
    let pre_uninit = must_uninit_reads(pre, &pre_env);
    let post_uninit = must_uninit_reads(post, &post_env);
    let mut diags = Vec::new();
    for (field, stage) in &post_uninit {
        if pre_uninit.contains_key(field) {
            continue;
        }
        diags.push(
            Diagnostic::error(
                codes::PLAN_FACT_REGRESSION,
                format!(
                    "update removes every writer of `{}.{field}`, which stage `{stage}` still reads",
                    post_env.meta_alias
                ),
            )
            .with_span(
                post.spans
                    .get(ItemKind::Stage, stage)
                    .or_else(|| pre.spans.get(ItemKind::Stage, stage)),
            )
            .with_note(
                "after this update the read always sees the zero-initialized value; keep a writer or drop the read (or pass --force to apply anyway)",
            ),
        );
    }
    diags
}

/// Must-uninitialized metadata reads of a program: fields some live stage
/// reads that **no** action reachable from any live stage writes. Order-
/// insensitive (quantifies over the whole pipeline), so it is stable under
/// the controller's stage relinking. Returns `field → reading stage`.
fn must_uninit_reads(prog: &Program, env: &Env) -> BTreeMap<String, String> {
    let summary = Summary::build(prog, env);
    let mut written: BTreeSet<&str> = INTRINSIC_META.iter().map(|(n, _)| *n).collect();
    written.extend(summary.live().flat_map(|s| &s.writes).filter_map(Res::meta));
    let mut out = BTreeMap::new();
    for s in summary.live() {
        for f in s
            .meta_reads
            .iter()
            .filter(|f| !written.contains(f.as_str()))
        {
            out.entry(f.clone()).or_insert_with(|| s.decl.name.clone());
        }
    }
    out
}

/// Short human name of a control message variant.
fn msg_name(m: &ControlMsg) -> &'static str {
    match m {
        ControlMsg::Drain => "Drain",
        ControlMsg::Resume => "Resume",
        ControlMsg::WriteTemplate { .. } => "WriteTemplate",
        ControlMsg::ClearSlot { .. } => "ClearSlot",
        ControlMsg::SetSelector(_) => "SetSelector",
        ControlMsg::ConnectCrossbar { .. } => "ConnectCrossbar",
        _ => "other",
    }
}

/// Checks that every structural message in a plan sits inside a
/// `Drain … Resume` window.
///
/// `LoadFullDesign` is exempt: a whole-pipeline swap quiesces the device by
/// itself (the PISA-style full reload path never emits drain brackets).
pub fn verify_msgs(msgs: &[ControlMsg]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut draining = false;
    for (i, m) in msgs.iter().enumerate() {
        match m {
            ControlMsg::Drain => draining = true,
            ControlMsg::Resume => {
                if !draining {
                    out.push(Diagnostic::error(
                        codes::PLAN_UNSAFE,
                        format!("plan message #{i} is a Resume with no matching Drain"),
                    ));
                }
                draining = false;
            }
            ControlMsg::LoadFullDesign(_) => {}
            other if other.is_structural() && !draining => {
                out.push(
                    Diagnostic::error(
                        codes::PLAN_UNSAFE,
                        format!(
                            "structural update `{}` (plan message #{i}) is outside a \
                             Drain … Resume window",
                            msg_name(other)
                        ),
                    )
                    .with_note(
                        "applying structural messages to a flowing pipeline corrupts \
                         in-flight packets; bracket them with Drain/Resume",
                    ),
                );
            }
            _ => {}
        }
    }
    if draining {
        out.push(
            Diagnostic::warning(
                codes::PLAN_UNSAFE,
                "plan drains the pipeline but never resumes it".to_string(),
            )
            .with_note("append a Resume so traffic restarts after the update"),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipsa_core::template::TspTemplate;

    fn write_template() -> ControlMsg {
        ControlMsg::WriteTemplate {
            slot: 0,
            template: TspTemplate::passthrough("t"),
        }
    }

    #[test]
    fn bracketed_plan_is_safe() {
        let msgs = vec![ControlMsg::Drain, write_template(), ControlMsg::Resume];
        assert_eq!(verify_msgs(&msgs), vec![]);
    }

    #[test]
    fn structural_outside_window_is_flagged() {
        let msgs = vec![ControlMsg::Drain, ControlMsg::Resume, write_template()];
        let diags = verify_msgs(&msgs);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, codes::PLAN_UNSAFE);
        assert!(diags[0].message.contains("WriteTemplate"));
        assert!(diags[0].message.contains("#2"));
    }

    #[test]
    fn non_structural_messages_need_no_window() {
        let msgs = vec![ControlMsg::SetFirstHeader("ethernet".into())];
        // Not structural — entry/table population happens on live pipelines.
        assert!(!msgs[0].is_structural());
        assert_eq!(verify_msgs(&msgs), vec![]);
    }

    #[test]
    fn unresumed_drain_warns() {
        let msgs = vec![ControlMsg::Drain, write_template()];
        let diags = verify_msgs(&msgs);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].severity, rp4_lang::Severity::Warning);
    }

    #[test]
    fn stray_resume_is_flagged() {
        let msgs = vec![ControlMsg::Resume];
        let diags = verify_msgs(&msgs);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("no matching Drain"));
    }
}
