//! Every AST-level lint of a checked program, run as one analysis over its
//! [`Summary`].
//!
//! Two blocks come out, each in report order:
//!
//! - the program lints (RP41xx, codes in `rp4_verify::codes`): use before
//!   parse (RP4101), stage merge hazards (RP4102), elastic-pipeline shape
//!   (RP4104) and dead code (RP4106);
//! - the dataflow lints (RP4301–RP4305). The live stage chain (ingress
//!   stages in pipeline order, then egress stages — metadata and parse
//!   state persist across the Traffic Manager) is the CFG; the product
//!   state [`AbsState`] carries a may-removed header set, a may-written
//!   metadata set and per-field value intervals. A stage's transfer
//!   interprets every action it can reach as a *weak* update (the action
//!   may not run), each body sequentially with strong local updates. The
//!   chain has no back edges, so one forward pass reaches the fixpoint.
//!
//! RP4101 checks the ingress and the egress chain each on its own, while
//! the dataflow pass carries parse state across the Traffic Manager; an
//! egress stage that relies on an ingress parse is an RP4101 error.

use std::collections::{BTreeSet, HashSet};

use rp4_lang::ast::{
    ActionDecl, CmpOpAst, Expr, MatcherArm, PredExpr, Program, StageDecl, Stmt, UserFuncs,
};
use rp4_lang::semantic::{Env, INTRINSIC_META};
use rp4_lang::{Diagnostic, ItemKind, Span};
use rp4_verify::codes::{DEAD_CODE, PIPELINE_INVALID, STAGE_HAZARD, USE_BEFORE_PARSE};
use rp4_verify::ResourceLimits;

use crate::codes;
use crate::lattice::{max_value, AbsState, CmpKind, Interval};
use crate::summary::{builtin_writes, guards_exclusive, table_actions, Res, StageSummary, Summary};

/// Runs every AST-level lint over a checked program and returns the program
/// lints (RP4101, RP4102, RP4104, RP4106) and the dataflow lints
/// (RP4301–RP4305), each in report order. `env` must come from the `check`
/// that accepted the program.
///
/// An unclaimed stage is reported once, as RP4106: the dataflow pass runs
/// over the live stages only.
pub fn analyze_program(
    prog: &Program,
    env: &Env,
    limits: &ResourceLimits,
) -> (Vec<Diagnostic>, Vec<Diagnostic>) {
    let summary = Summary::build(prog, env);
    let mut lints = Vec::new();
    use_before_parse(&summary, prog, env, &mut lints);
    stage_hazards(&summary, prog, &mut lints);
    pipeline_shape(prog, limits, &mut lints);
    dead_code(&summary, prog, &mut lints);

    let live: Vec<&StageSummary> = summary.live().collect();
    let mut dataflow = Vec::new();
    for (stage, input) in live.iter().zip(forward_pass(&live, env)) {
        check_stage(stage, &summary, prog, env, &input, &mut dataflow);
    }
    dead_stores(&live, &summary, prog, &mut dataflow);
    (lints, dataflow)
}

// ---------------------------------------------------------------------------
// RP4101 — use before parse
// ---------------------------------------------------------------------------

fn use_before_parse(summary: &Summary, prog: &Program, env: &Env, out: &mut Vec<Diagnostic>) {
    for (chain, label) in summary.chains() {
        let mut avail: HashSet<&str> = HashSet::new();
        for stage in chain {
            let name = &stage.decl.name;
            avail.extend(stage.decl.parser.iter().map(String::as_str));
            // Sorted by header, so each header's first field comes first.
            let mut prev = None;
            for r in &stage.fields {
                let Res::Field(h, first) = r else { continue };
                if prev == Some(h) {
                    continue;
                }
                prev = Some(h);
                if avail.contains(h.as_str()) || !env.headers.contains_key(h) {
                    continue;
                }
                out.push(
                    Diagnostic::error(
                        USE_BEFORE_PARSE,
                        format!(
                            "stage `{name}` uses `{h}.{first}` but no stage at or before it \
                             in the {label} pipeline parses header `{h}`"
                        ),
                    )
                    .with_span(prog.spans.get(ItemKind::Stage, name))
                    .with_note(format!(
                        "add `{h};` to the parser block of `{name}` or an earlier {label} stage"
                    )),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// RP4102 — stage merge hazards
// ---------------------------------------------------------------------------

/// Guards of a stage's table-applying arms; `None` when any such arm is
/// unguarded (an always-true branch is never exclusive with anything).
fn table_guards(stage: &StageDecl) -> Option<Vec<&PredExpr>> {
    let mut gs = Vec::new();
    for arm in &stage.matcher {
        if arm.table.is_some() {
            gs.push(arm.guard.as_ref()?);
        }
    }
    if gs.is_empty() {
        None
    } else {
        Some(gs)
    }
}

fn stage_hazards(summary: &Summary, prog: &Program, out: &mut Vec<Diagnostic>) {
    for (chain, _) in summary.chains() {
        for pair in chain.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            let (Some(ga), Some(gb)) = (table_guards(a.decl), table_guards(b.decl)) else {
                continue;
            };
            // Only merge-eligible pairs matter: the merge pass fuses two
            // adjacent stages when every pair of table branches is mutually
            // exclusive. Merging moves stage b's guard evaluation before
            // stage a's action — a read/write conflict there is a hazard.
            let mergeable = ga.iter().all(|x| gb.iter().all(|y| guards_exclusive(x, y)));
            if !mergeable {
                continue;
            }
            let arms = b.decl.matcher.iter().zip(&b.arms);
            let reads: BTreeSet<&Res> = arms
                .filter(|(decl, _)| decl.table.is_some())
                .flat_map(|(_, arm)| &arm.guard_reads)
                .collect();
            if let Some((r, w)) = reads
                .iter()
                .find_map(|r| a.writes.iter().find(|w| r.conflicts(w)).map(|w| (r, w)))
            {
                out.push(
                    Diagnostic::warning(
                        STAGE_HAZARD,
                        format!(
                            "guard of stage `{}` reads {r}, which actions of the \
                             preceding mergeable stage `{}` write ({w})",
                            b.decl.name, a.decl.name
                        ),
                    )
                    .with_span(prog.spans.get(ItemKind::Stage, &b.decl.name))
                    .with_note(
                        "merging these stages into one TSP would evaluate the guard \
                         before the write; the compiler will keep them separate",
                    ),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// RP4104 — elastic-pipeline shape
// ---------------------------------------------------------------------------

fn entry_side_check(
    prog: &Program,
    uf: &UserFuncs,
    out: &mut Vec<Diagnostic>,
    entry: Option<&str>,
    side: &str,
    own: &[StageDecl],
    other: &[StageDecl],
) {
    match entry {
        Some(e) => {
            if other.iter().any(|s| s.name == e) && !own.iter().any(|s| s.name == e) {
                let opposite = if side == "ingress" {
                    "egress"
                } else {
                    "ingress"
                };
                out.push(
                    Diagnostic::error(
                        PIPELINE_INVALID,
                        format!("{side}_entry `{e}` names an {opposite} stage"),
                    )
                    .with_span(prog.spans.get(ItemKind::Stage, e))
                    .with_note(format!(
                        "the elastic pipeline inserts traffic management between \
                         ingress and egress; `{e}` cannot start the {side} chain"
                    )),
                );
            }
        }
        None => {
            if !own.is_empty() {
                let span = uf
                    .funcs
                    .first()
                    .and_then(|(f, _)| prog.spans.get(ItemKind::Func, f));
                out.push(
                    Diagnostic::error(
                        PIPELINE_INVALID,
                        format!(
                            "program has {} {side} stage(s) but user_funcs declares \
                             no {side}_entry",
                            own.len()
                        ),
                    )
                    .with_span(span)
                    .with_note(format!(
                        "add `{side}_entry: <stage>;` so the selector knows where \
                         the {side} chain starts"
                    )),
                );
            }
        }
    }
}

fn pipeline_shape(prog: &Program, limits: &ResourceLimits, out: &mut Vec<Diagnostic>) {
    let Some(uf) = &prog.user_funcs else {
        // Snippets carry no user_funcs; entry checks only make sense on a
        // full design.
        return;
    };
    entry_side_check(
        prog,
        uf,
        out,
        uf.ingress_entry.as_deref(),
        "ingress",
        &prog.ingress,
        &prog.egress,
    );
    entry_side_check(
        prog,
        uf,
        out,
        uf.egress_entry.as_deref(),
        "egress",
        &prog.egress,
        &prog.ingress,
    );
    let total = prog.ingress.len() + prog.egress.len();
    if limits.slots > 0 && total > limits.slots {
        out.push(
            Diagnostic::warning(
                PIPELINE_INVALID,
                format!(
                    "design declares {total} logical stages but the target has \
                     only {} TSP slots",
                    limits.slots
                ),
            )
            .with_note("stage merging may still fit the design; treat this as a capacity risk"),
        );
    }
}

// ---------------------------------------------------------------------------
// RP4106 — dead code
// ---------------------------------------------------------------------------

fn dead_code(summary: &Summary, prog: &Program, out: &mut Vec<Diagnostic>) {
    // Every RP4106 finding is about one item: its span and its key.
    let dead = |kind: ItemKind, name: &str, message: String| {
        Diagnostic::warning(DEAD_CODE, message)
            .with_span(prog.spans.get(kind, name))
            .with_key(kind, name)
    };

    // Headers: live when on the parse graph around any stage's parser list
    // — downstream (a parsed header's transition targets) or upstream (the
    // chain walks ancestors to reach a parsed header) — or referenced
    // anywhere: a table key, a guard, or an action body, builtin effects
    // included.
    let mut reachable: HashSet<String> = prog
        .stages()
        .flat_map(|s| s.parser.iter().cloned())
        .collect();
    let mut frontier: Vec<String> = reachable.iter().cloned().collect();
    while let Some(h) = frontier.pop() {
        let Some(decl) = prog.headers.iter().find(|d| d.name == h) else {
            continue;
        };
        if let Some(p) = &decl.parser {
            for (_, next) in &p.transitions {
                if reachable.insert(next.clone()) {
                    frontier.push(next.clone());
                }
            }
        }
    }
    loop {
        let mut changed = false;
        for h in &prog.headers {
            if reachable.contains(&h.name) {
                continue;
            }
            let leads_to_live = h.parser.as_ref().is_some_and(|p| {
                p.transitions
                    .iter()
                    .any(|(_, next)| reachable.contains(next))
            });
            if leads_to_live {
                reachable.insert(h.name.clone());
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    let guards = summary.stages.iter().flat_map(|s| &s.arms);
    let bodies = summary.actions.values();
    let referenced: HashSet<&str> = summary
        .keys
        .values()
        .flatten()
        .chain(guards.flat_map(|arm| &arm.guard_reads))
        .chain(bodies.flat_map(|a| a.writes().chain(a.fields())))
        .filter_map(Res::header)
        .collect();
    for h in &prog.headers {
        if !reachable.contains(&h.name) && !referenced.contains(h.name.as_str()) {
            let message = format!("header `{}` is never parsed or referenced", h.name);
            out.push(dead(ItemKind::Header, &h.name, message));
        }
    }

    // Tables: applied by some matcher arm.
    let applied: HashSet<&str> = prog
        .stages()
        .flat_map(|s| s.matcher.iter().filter_map(|a| a.table.as_deref()))
        .collect();
    for t in prog
        .tables
        .iter()
        .filter(|t| !applied.contains(t.name.as_str()))
    {
        let message = format!("table `{}` is never applied by any stage", t.name);
        out.push(dead(ItemKind::Table, &t.name, message));
    }

    // Actions: referenced from a table's action list/default or an executor.
    let executors = prog.stages().flat_map(|s| &s.executor);
    let used_actions: HashSet<&str> = prog
        .tables
        .iter()
        .flat_map(table_actions)
        .chain(executors.map(|(_, a, _)| a.as_str()))
        .collect();
    for a in &prog.actions {
        if a.name != "NoAction" && !used_actions.contains(a.name.as_str()) {
            let message = format!("action `{}` is never referenced", a.name);
            out.push(dead(ItemKind::Action, &a.name, message));
        }
    }

    // Stages: claimed by some user_func (only checkable on full designs).
    for s in summary.stages.iter().filter(|s| !s.live) {
        let message = format!("stage `{}` is not claimed by any user_func", s.decl.name);
        out.push(
            dead(ItemKind::Stage, &s.decl.name, message)
                .with_note("unclaimed stages are never linked into the pipeline"),
        );
    }
}

// ---------------------------------------------------------------------------
// RP43xx — the forward pass and its transfer functions
// ---------------------------------------------------------------------------

/// The abstract state entering each live stage: one pass down the chain.
fn forward_pass(live: &[&StageSummary], env: &Env) -> Vec<AbsState> {
    let mut inputs = Vec::with_capacity(live.len());
    let mut state = AbsState::default();
    for stage in live {
        let next = transfer_stage(stage, env, &state);
        inputs.push(std::mem::replace(&mut state, next));
    }
    inputs
}

fn is_intrinsic(field: &str) -> bool {
    INTRINSIC_META.iter().any(|(n, _)| *n == field)
}

fn transfer_stage(stage: &StageSummary, env: &Env, input: &AbsState) -> AbsState {
    let mut out = input.clone();
    for a in &stage.actions {
        out = out.join(&action_effect(a, env, input));
    }
    out
}

/// Interprets one action body sequentially (strong local updates) starting
/// from `input`; the caller joins the result back in (weak update, since
/// the action may not run).
fn action_effect(a: &ActionDecl, env: &Env, input: &AbsState) -> AbsState {
    let mut st = input.clone();
    for stmt in &a.body {
        match stmt {
            Stmt::Assign { lval, expr } => {
                if lval.scope == env.meta_alias {
                    let w = env.width_of(&lval.scope, &lval.field).unwrap_or(128);
                    let v = clamp(eval_expr(expr, env, Some(a), &st), w);
                    st.intervals.insert(lval.field.clone(), v);
                    st.may_written.insert(lval.field.clone());
                }
            }
            Stmt::Call { name, args } => {
                for r in builtin_writes(name, args) {
                    match r {
                        Res::Validity(h) => {
                            st.may_removed.insert(h);
                        }
                        Res::Meta(f) => {
                            let w = INTRINSIC_META
                                .iter()
                                .find(|(n, _)| *n == f)
                                .map_or(128, |(_, b)| *b);
                            st.intervals.insert(f.clone(), Interval::top(w));
                            st.may_written.insert(f);
                        }
                        Res::Field(..) => {}
                    }
                }
            }
        }
    }
    st
}

fn clamp(iv: Interval, bits: usize) -> Interval {
    if iv.hi <= max_value(bits) {
        iv
    } else {
        Interval::top(bits)
    }
}

/// Interval of an expression under `st`. `action` supplies parameter
/// widths when the expression sits in an action body.
fn eval_expr(e: &Expr, env: &Env, action: Option<&ActionDecl>, st: &AbsState) -> Interval {
    match e {
        Expr::Int(c) => Interval::constant(*c),
        Expr::Qualified(scope, field) => {
            if scope == &env.meta_alias {
                if is_intrinsic(field) && !st.intervals.contains_key(field) {
                    // Intrinsics (e.g. ingress_port) are environment-set,
                    // not zero-initialized.
                    let w = env.width_of(scope, field).unwrap_or(128);
                    Interval::top(w)
                } else {
                    st.interval_of(field)
                }
            } else {
                Interval::top(env.width_of(scope, field).unwrap_or(128))
            }
        }
        Expr::Ident(p) => {
            let w = action
                .and_then(|a| a.params.iter().find(|(n, _)| n == p))
                .map_or(128, |(_, b)| *b);
            Interval::top(w)
        }
        Expr::Bin { op, lhs, rhs } => {
            let l = eval_expr(lhs, env, action, st);
            let r = eval_expr(rhs, env, action, st);
            if l.is_constant() && r.is_constant() {
                use rp4_lang::ast::BinOp;
                let v = match op {
                    BinOp::Add => l.lo.wrapping_add(r.lo),
                    BinOp::Sub => l.lo.wrapping_sub(r.lo),
                    BinOp::And => l.lo & r.lo,
                    BinOp::Or => l.lo | r.lo,
                    BinOp::Xor => l.lo ^ r.lo,
                    BinOp::Shl => l.lo.wrapping_shl((r.lo as u32).min(127)),
                    BinOp::Shr => l.lo.wrapping_shr((r.lo as u32).min(127)),
                    BinOp::Mod if r.lo != 0 => l.lo % r.lo,
                    BinOp::Mod => return Interval::top(128),
                };
                Interval::constant(v)
            } else {
                Interval::top(128)
            }
        }
        Expr::Hash(_) => Interval::top(128),
    }
}

/// Three-valued predicate evaluation under the interval state.
fn eval_pred(p: &PredExpr, env: &Env, st: &AbsState) -> Option<bool> {
    match p {
        PredExpr::IsValid(_) => None,
        PredExpr::Not(q) => eval_pred(q, env, st).map(|b| !b),
        PredExpr::And(a, b) => match (eval_pred(a, env, st), eval_pred(b, env, st)) {
            (Some(false), _) | (_, Some(false)) => Some(false),
            (Some(true), Some(true)) => Some(true),
            _ => None,
        },
        PredExpr::Or(a, b) => match (eval_pred(a, env, st), eval_pred(b, env, st)) {
            (Some(true), _) | (_, Some(true)) => Some(true),
            (Some(false), Some(false)) => Some(false),
            _ => None,
        },
        PredExpr::Cmp { lhs, op, rhs } => {
            let l = eval_expr(lhs, env, None, st);
            let r = eval_expr(rhs, env, None, st);
            l.compare(cmp_kind(*op), &r)
        }
    }
}

fn cmp_kind(op: CmpOpAst) -> CmpKind {
    match op {
        CmpOpAst::Eq => CmpKind::Eq,
        CmpOpAst::Ne => CmpKind::Ne,
        CmpOpAst::Lt => CmpKind::Lt,
        CmpOpAst::Le => CmpKind::Le,
        CmpOpAst::Gt => CmpKind::Gt,
        CmpOpAst::Ge => CmpKind::Ge,
    }
}

// ---------------------------------------------------------------------------
// RP4301–RP4305 — per-stage checks against the stage's input state
// ---------------------------------------------------------------------------

fn check_stage(
    stage: &StageSummary,
    summary: &Summary,
    prog: &Program,
    env: &Env,
    input: &AbsState,
    out: &mut Vec<Diagnostic>,
) {
    let name = &stage.decl.name;
    let stage_span = prog.spans.get(ItemKind::Stage, name);

    // --- RP4302: reads of metadata nothing earlier may write -------------
    let mut reads: Vec<(&str, String, Option<Span>)> = Vec::new();
    for arm in &stage.arms {
        for f in arm.guard_reads.iter().filter_map(Res::meta) {
            reads.push((f, format!("guard in stage `{name}`"), stage_span));
        }
        if let Some(t) = arm.table {
            let span = prog.spans.get(ItemKind::Table, &t.name).or(stage_span);
            for f in arm.key_reads.iter().filter_map(Res::meta) {
                reads.push((f, format!("table `{}` key (stage `{name}`)", t.name), span));
            }
        }
    }
    for a in &stage.actions {
        let span = prog.spans.get(ItemKind::Action, &a.name).or(stage_span);
        let mut local = input.may_written.clone();
        for step in &summary.actions[a.name.as_str()].0 {
            for f in step.reads.iter().filter_map(Res::meta) {
                if !local.contains(f) {
                    reads.push((f, format!("action `{}` (stage `{name}`)", a.name), span));
                }
            }
            local.extend(step.writes.iter().filter_map(Res::meta).map(str::to_string));
        }
    }
    let mut reported = BTreeSet::new();
    for (field, site, span) in reads {
        if input.may_written.contains(field) || is_intrinsic(field) || !reported.insert(field) {
            continue;
        }
        out.push(
            Diagnostic::warning(
                codes::UNINIT_META_READ,
                format!(
                    "{site} reads `{}.{field}` but no reachable earlier action writes it",
                    env.meta_alias
                ),
            )
            .with_span(span)
            .with_note("metadata is zero-initialized; if the zero is intended, write it explicitly in an earlier stage"),
        );
    }

    // --- RP4301: access to a possibly-removed header without a guard -----
    let mut reported = BTreeSet::new();
    for arm in &stage.arms {
        for h in arm.fields.iter().filter_map(Res::header) {
            if input.may_removed.contains(h) && !arm.proven.contains(h) && reported.insert(h) {
                out.push(
                    Diagnostic::error(
                        codes::INVALID_HEADER_USE,
                        format!(
                            "stage `{name}` accesses `{h}` fields, but an earlier stage's action may have removed `{h}`"
                        ),
                    )
                    .with_span(stage_span)
                    .with_note(format!(
                        "guard the arm with `{h}.isValid()` so removed packets skip the access"
                    )),
                );
            }
        }
    }

    // --- RP4304 / RP4305: arm reachability and no-op guards --------------
    // An unreachable arm is about its stage and about the table it would
    // apply: that table is never applied from it.
    let unreachable = |arm: &MatcherArm, msg: String| {
        let d = Diagnostic::warning(codes::UNREACHABLE, msg)
            .with_span(stage_span)
            .with_key(ItemKind::Stage, name);
        match &arm.table {
            Some(t) => d.with_key(ItemKind::Table, t),
            None => d,
        }
    };
    let matcher = &stage.decl.matcher;
    let mut saw_uncond: Option<usize> = None;
    let mut saw_taut = false;
    for (j, arm) in matcher.iter().enumerate() {
        if let Some(m) = saw_uncond {
            if let Some(t) = &arm.table {
                out.push(
                    unreachable(arm, format!(
                        "arm {j} of stage `{name}` is unreachable: arm {m} is unconditional, so table `{t}` is never applied from it"
                    ))
                    .with_note("matcher arms are tried in order; the first true guard wins"),
                );
            }
            continue;
        }
        if saw_taut {
            // The tautological arm was already reported (RP4305); don't
            // re-report every shadowed arm for the same root cause.
            continue;
        }
        let Some(g) = &arm.guard else {
            saw_uncond = Some(j);
            continue;
        };
        let dup = matcher[..j]
            .iter()
            .position(|p| p.guard.as_ref() == Some(g));
        if let (Some(m), Some(_)) = (dup, &arm.table) {
            out.push(unreachable(arm, format!(
                "arm {j} of stage `{name}` repeats the guard of arm {m}, so it can never be the first match"
            )));
            continue;
        }
        if guards_exclusive(g, g) {
            out.push(unreachable(
                arm,
                format!(
                    "guard of arm {j} in stage `{name}` is self-contradictory and can never hold"
                ),
            ));
            continue;
        }
        match eval_pred(g, env, input) {
            Some(false) => out.push(unreachable(arm, format!(
                "guard of arm {j} in stage `{name}` is provably false under the inferred value intervals"
            ))),
            Some(true) => {
                out.push(
                    Diagnostic::warning(
                        codes::TAUTOLOGICAL_GUARD,
                        format!("guard of arm {j} in stage `{name}` is provably always true"),
                    )
                    .with_span(stage_span)
                    .with_note("the comparison can never fail for the field's possible values; drop the guard or tighten it"),
                );
                saw_taut = true;
            }
            None => {}
        }
    }
}

/// RP4303: stores overwritten before any read within one action body, for
/// every action a live stage can reach (an unused action is RP4106's
/// finding, not ours).
fn dead_stores(
    live: &[&StageSummary],
    summary: &Summary,
    prog: &Program,
    out: &mut Vec<Diagnostic>,
) {
    let reachable: BTreeSet<&str> = live
        .iter()
        .flat_map(|s| &s.actions)
        .map(|a| a.name.as_str())
        .collect();
    for a in prog
        .actions
        .iter()
        .filter(|a| reachable.contains(a.name.as_str()))
    {
        let mut pending: BTreeSet<&Res> = BTreeSet::new();
        for (stmt, step) in a.body.iter().zip(&summary.actions[a.name.as_str()].0) {
            let Stmt::Assign { lval, .. } = stmt else {
                // Builtins may read any field — conservative barrier.
                pending.clear();
                continue;
            };
            pending.retain(|w| !step.reads.contains(*w));
            for w in &step.writes {
                if !pending.insert(w) {
                    out.push(
                        Diagnostic::warning(
                            codes::DEAD_STORE,
                            format!(
                                "action `{}` stores to `{}.{}` twice with no intervening read; the first store is dead",
                                a.name, lval.scope, lval.field
                            ),
                        )
                        .with_span(prog.spans.get(ItemKind::Action, &a.name))
                        .with_key(ItemKind::Action, &a.name),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rp4_lang::{check, parse};
    use rp4_verify::codes;

    fn verify_src(src: &str) -> Vec<Diagnostic> {
        let prog = parse(src).expect("parse");
        let env = check(&prog, None).expect("semantic");
        analyze_program(&prog, &env, &ResourceLimits::ipbm()).0
    }

    const CLEAN: &str = r#"
        headers {
            header ethernet {
                bit<48> dst_addr;
                bit<16> ethertype;
                implicit parser(ethertype) { 0x0800: ipv4; }
            }
            header ipv4 {
                bit<8> ttl;
                bit<32> dst_addr;
            }
        }
        structs { struct metadata_t { bit<16> nexthop; bit<8> l3; } meta; }
        action set_nh(bit<16> nh) { meta.nexthop = nh; }
        table fib {
            key = { ipv4.dst_addr: lpm; }
            actions = { set_nh; }
            size = 128;
        }
        control rP4_Ingress {
            stage fib {
                parser { ethernet; ipv4; }
                matcher { if (ipv4.isValid()) fib.apply(); else; }
                executor { 1: set_nh; default: NoAction; }
            }
        }
        user_funcs {
            func f { fib }
            ingress_entry: fib;
        }
    "#;

    #[test]
    fn clean_program_has_no_findings() {
        assert_eq!(verify_src(CLEAN), vec![]);
    }

    #[test]
    fn use_before_parse_flagged_with_span() {
        // Same program, but the stage never parses ipv4.
        let src = CLEAN.replace("parser { ethernet; ipv4; }", "parser { ethernet; }");
        let diags = verify_src(&src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, codes::USE_BEFORE_PARSE);
        assert!(diags[0].span.is_some(), "lint must carry a span");
        assert!(diags[0].message.contains("ipv4.dst_addr"));
    }

    #[test]
    fn upstream_parse_satisfies_later_stage() {
        let src = r#"
            headers { header ipv4 { bit<32> dst_addr; } }
            structs { struct metadata_t { bit<16> nh; } meta; }
            action set_nh(bit<16> nh) { meta.nh = nh; }
            table fib {
                key = { ipv4.dst_addr: exact; }
                actions = { set_nh; }
            }
            control rP4_Ingress {
                stage parse_only {
                    parser { ipv4; }
                    matcher { }
                    executor { default: NoAction; }
                }
                stage fib {
                    parser { }
                    matcher { fib.apply(); }
                    executor { 1: set_nh; default: NoAction; }
                }
            }
            user_funcs { func f { parse_only fib } ingress_entry: parse_only; }
        "#;
        let diags = verify_src(src);
        assert!(
            diags.iter().all(|d| d.code != codes::USE_BEFORE_PARSE),
            "{diags:?}"
        );
    }

    #[test]
    fn merge_hazard_guard_reads_validity_written_upstream() {
        let src = r#"
            headers { header tun { bit<16> id; } header ipv4 { bit<32> dst; } }
            structs { struct metadata_t { bit<16> x; } meta; }
            action pop_tun() { remove_header(tun); }
            action set_x(bit<16> v) { meta.x = v; }
            table decap { key = { tun.id: exact; } actions = { pop_tun; } }
            table plain { key = { ipv4.dst: exact; } actions = { set_x; } }
            control rP4_Ingress {
                stage decap {
                    parser { tun; ipv4; }
                    matcher { if (tun.isValid()) decap.apply(); else; }
                    executor { 1: pop_tun; default: NoAction; }
                }
                stage plain {
                    parser { }
                    matcher { if (!tun.isValid()) plain.apply(); else; }
                    executor { 1: set_x; default: NoAction; }
                }
            }
            user_funcs { func f { decap plain } ingress_entry: decap; }
        "#;
        let diags = verify_src(src);
        let hz: Vec<_> = diags
            .iter()
            .filter(|d| d.code == codes::STAGE_HAZARD)
            .collect();
        assert_eq!(hz.len(), 1, "{diags:?}");
        assert_eq!(hz[0].severity, rp4_lang::Severity::Warning);
        assert!(hz[0].span.is_some());
        assert!(hz[0].message.contains("tun"));
    }

    #[test]
    fn non_exclusive_guards_are_not_hazards() {
        // fwd_mode-style pattern: stage A writes meta.l3, stage B's guard
        // reads it — but their guards are not exclusive, so they never
        // merge and execution order protects the read.
        let src = r#"
            headers { header ipv4 { bit<32> dst; } }
            structs { struct metadata_t { bit<8> l3; bit<16> nh; } meta; }
            action set_l3() { meta.l3 = 1; }
            action set_nh(bit<16> v) { meta.nh = v; }
            table mode { key = { ipv4.dst: exact; } actions = { set_l3; } }
            table fib { key = { ipv4.dst: exact; } actions = { set_nh; } }
            control rP4_Ingress {
                stage mode {
                    parser { ipv4; }
                    matcher { mode.apply(); }
                    executor { 1: set_l3; default: NoAction; }
                }
                stage fib {
                    parser { }
                    matcher { if (meta.l3 == 1) fib.apply(); else; }
                    executor { 1: set_nh; default: NoAction; }
                }
            }
            user_funcs { func f { mode fib } ingress_entry: mode; }
        "#;
        let diags = verify_src(src);
        assert!(
            diags.iter().all(|d| d.code != codes::STAGE_HAZARD),
            "{diags:?}"
        );
    }

    #[test]
    fn wrong_side_entry_is_an_error() {
        let src = r#"
            headers { header ipv4 { bit<32> dst; } }
            structs { struct metadata_t { bit<16> nh; } meta; }
            action set_nh(bit<16> v) { meta.nh = v; }
            table fib { key = { ipv4.dst: exact; } actions = { set_nh; } }
            control rP4_Ingress {
                stage fib {
                    parser { ipv4; }
                    matcher { fib.apply(); }
                    executor { 1: set_nh; default: NoAction; }
                }
            }
            control rP4_Egress {
                stage rewrite {
                    parser { ipv4; }
                    matcher { }
                    executor { default: NoAction; }
                }
            }
            user_funcs {
                func f { fib rewrite }
                ingress_entry: rewrite;
                egress_entry: rewrite;
            }
        "#;
        let diags = verify_src(src);
        let pipe: Vec<_> = diags
            .iter()
            .filter(|d| d.code == codes::PIPELINE_INVALID)
            .collect();
        assert_eq!(pipe.len(), 1, "{diags:?}");
        assert!(pipe[0].message.contains("ingress_entry"));
    }

    #[test]
    fn missing_entry_is_an_error() {
        let src = CLEAN.replace("ingress_entry: fib;", "");
        let diags = verify_src(&src);
        assert!(
            diags.iter().any(
                |d| d.code == codes::PIPELINE_INVALID && d.message.contains("no ingress_entry")
            ),
            "{diags:?}"
        );
    }

    #[test]
    fn dead_code_unused_table_action_header_and_stage() {
        let src = r#"
            headers {
                header ipv4 { bit<32> dst; }
                header orphan { bit<8> x; }
            }
            structs { struct metadata_t { bit<16> nh; } meta; }
            action set_nh(bit<16> v) { meta.nh = v; }
            action never() { meta.nh = 0; }
            table fib { key = { ipv4.dst: exact; } actions = { set_nh; } }
            table ghost { key = { ipv4.dst: exact; } actions = { set_nh; } }
            control rP4_Ingress {
                stage fib {
                    parser { ipv4; }
                    matcher { fib.apply(); }
                    executor { 1: set_nh; default: NoAction; }
                }
                stage floating {
                    parser { ipv4; }
                    matcher { }
                    executor { default: NoAction; }
                }
            }
            user_funcs { func f { fib } ingress_entry: fib; }
        "#;
        let diags = verify_src(src);
        let dead: Vec<&str> = diags
            .iter()
            .filter(|d| d.code == codes::DEAD_CODE)
            .map(|d| d.message.as_str())
            .collect();
        assert_eq!(dead.len(), 4, "{diags:?}");
        assert!(dead.iter().any(|m| m.contains("header `orphan`")));
        assert!(dead.iter().any(|m| m.contains("table `ghost`")));
        assert!(dead.iter().any(|m| m.contains("action `never`")));
        assert!(dead.iter().any(|m| m.contains("stage `floating`")));
        assert!(diags
            .iter()
            .filter(|d| d.code == codes::DEAD_CODE)
            .all(|d| d.severity == rp4_lang::Severity::Warning));
    }

    #[test]
    fn slot_pressure_warns() {
        let prog = parse(CLEAN).expect("parse");
        let env = check(&prog, None).expect("semantic");
        let tight = ResourceLimits {
            slots: 0,
            ..ResourceLimits::ipbm()
        };
        assert_eq!(analyze_program(&prog, &env, &tight).0, vec![]);
        let tiny = ResourceLimits {
            slots: 1,
            ..ResourceLimits::ipbm()
        };
        // CLEAN has exactly one stage — still fits.
        assert_eq!(analyze_program(&prog, &env, &tiny).0, vec![]);
    }

    #[test]
    fn chain_propagates_in_one_pass() {
        // Each stage writes its own field; stage i's input state must hold
        // the writes of every earlier stage and none of its own.
        let mut src = String::from(
            "structs { struct metadata_t { bit<8> s0; bit<8> s1; bit<8> s2; bit<8> s3; } meta; }\n",
        );
        for i in 0..4 {
            src.push_str(&format!("action w{i}() {{ meta.s{i} = {}; }}\n", i + 1));
        }
        src.push_str("control rP4_Ingress {\n");
        for i in 0..4 {
            src.push_str(&format!(
                "stage s{i} {{ parser {{ }} matcher {{ }} executor {{ default: w{i}; }} }}\n"
            ));
        }
        src.push_str("}\n");
        let prog = parse(&src).expect("parse");
        let env = check(&prog, None).expect("semantic");
        let summary = Summary::build(&prog, &env);
        let live: Vec<&StageSummary> = summary.live().collect();
        let inputs = forward_pass(&live, &env);
        assert_eq!(inputs.len(), 4);
        let written: Vec<&str> = inputs[3].may_written.iter().map(String::as_str).collect();
        assert_eq!(written, ["s0", "s1", "s2"]);
        assert_eq!(inputs[3].interval_of("s2"), Interval { lo: 0, hi: 3 });
        assert_eq!(inputs[3].interval_of("s3"), Interval::constant(0));
    }

    #[test]
    fn unreachable_arm_is_keyed_by_stage_and_table() {
        // Arm 1 repeats arm 0's guard, so table `acl` is never applied from
        // it; the finding's root-cause key names both items by kind.
        let src = CLEAN.replace(
            "matcher { if (ipv4.isValid()) fib.apply(); else; }",
            "matcher { if (ipv4.isValid()) fib.apply(); if (ipv4.isValid()) acl.apply(); else; }",
        )
        .replace(
            "control rP4_Ingress {",
            "table acl { key = { ipv4.ttl: exact; } actions = { set_nh; } }\ncontrol rP4_Ingress {",
        );
        let prog = parse(&src).expect("parse");
        let env = check(&prog, None).expect("semantic");
        let (_, dataflow) = analyze_program(&prog, &env, &ResourceLimits::ipbm());
        let hit = dataflow
            .iter()
            .find(|d| d.code == crate::codes::UNREACHABLE)
            .expect("RP4304 for the repeated guard");
        assert_eq!(
            hit.key,
            [
                (ItemKind::Stage, "fib".to_string()),
                (ItemKind::Table, "acl".to_string())
            ]
        );
    }
}
