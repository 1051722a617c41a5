//! Update-plan fact checking: the RP4306 diagnostic.
//!
//! An in-situ update can silently orphan a metadata field: the snippet
//! replaces or removes every action that wrote `meta.f`, while some
//! surviving stage still reads it — after the update the read always sees
//! the zero-initialized value. Each side of the comparison uses the
//! order-insensitive *must-uninitialized* read set (fields read by live
//! stages that **no** action reachable from a live stage writes), so the
//! verdict is stable under the controller's stage relinking and absorbed-
//! snippet placement. Only *new* uninitialized reads are errors: a field
//! that was already writer-less before the update is pre-existing debt,
//! not a plan regression.

use std::collections::{BTreeMap, BTreeSet};

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
