//! The path-equivalence checker: world enumeration, state comparison, and
//! RP42xx diagnostics.
//!
//! Two seams share the machinery:
//!
//! * **program ↔ design** ([`check_program_design`]): the translation
//!   validator behind `rp4c check --equiv`. A structural pre-pass first
//!   proves the table *schemas* match (key sources, widths, match kinds,
//!   action lists, default actions, counters) — those are invisible to the
//!   behavioral phase because table outcomes are free oracle choices — and
//!   then the behavioral phase enumerates worlds, runs both evaluators
//!   against the shared oracle, and compares final states.
//! * **design ↔ design** ([`check_design_design`]): the in-situ update
//!   gate. Evaluation is restricted to the stages of functions present
//!   unchanged in both designs (an update is *supposed* to change the
//!   touched function), with a structural fast path so the common
//!   all-identical case costs nothing.

use std::collections::{BTreeSet, HashSet};
use std::ops::ControlFlow;

use ipsa_core::table::{ActionCall, MatchKind, TableDef};
use ipsa_core::template::CompiledDesign;
use ipsa_core::value::ValueRef;
use rp4_lang::ast::{Expr, Program};
use rp4_lang::semantic::Env;
use rp4_lang::{Diagnostic, ItemKind, Span};

use crate::codes;
use crate::eval_ast::eval_ast;
use crate::eval_design::{eval_design, DesignRun, TableHitTrace};
use crate::oracle::{enumerate, Key, Oracle, Overflow, MAX_DECISIONS, MAX_WORLDS};
use crate::state::{Outcome, SymState};
use crate::witness;

/// Upper bound on reported divergences per check (they repeat across
/// worlds; the first few are the actionable ones).
const MAX_FINDINGS: usize = 8;

struct Divergence {
    diag: Diagnostic,
    /// Oracle decisions of the divergent world (witness input).
    decisions: Vec<(Key, usize)>,
    /// Design-side table hits along the divergent path.
    hits: Vec<TableHitTrace>,
    /// Design-side predicted outcome.
    predicted: Outcome,
    /// Design-side predicted final state.
    predicted_state: SymState,
}

impl Divergence {
    /// Concretizes the divergent world into a packet, runs it on an `ipbm`
    /// device, and appends whether the device agrees with the design-side
    /// model as notes.
    fn witnessed(mut self, design: &CompiledDesign) -> Diagnostic {
        self.diag.notes.extend(witness::cross_check(
            design,
            &self.decisions,
            &self.hits,
            &self.predicted,
            &self.predicted_state,
        ));
        self.diag
    }
}

/// Divergences found so far, deduplicated by code + subject across worlds.
#[derive(Default)]
struct Divergences {
    seen: BTreeSet<(String, String)>,
    found: Vec<Divergence>,
}

impl Divergences {
    /// Records the fresh divergences of the current world; breaks once
    /// [`MAX_FINDINGS`] are in.
    fn visit(
        &mut self,
        a_state: &SymState,
        a_outcome: &Outcome,
        b: &DesignRun,
        oracle: &mut Oracle,
    ) -> ControlFlow<()> {
        self.compare(a_state, a_outcome, b, oracle);
        if self.found.len() >= MAX_FINDINGS {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    }

    /// Compares two final states + outcomes in the current world and
    /// records the divergences not seen in an earlier world.
    fn compare(
        &mut self,
        a_state: &SymState,
        a_outcome: &Outcome,
        b: &DesignRun,
        oracle: &mut Oracle,
    ) {
        let Divergences { seen, found } = self;
        let (b_state, b_outcome) = (&b.state, &b.outcome);
        let world = oracle.describe();
        let mut push = |code: &str, subject: String, message: String, oracle: &Oracle| {
            if seen.insert((code.to_string(), subject)) {
                found.push(Divergence {
                    diag: Diagnostic::error(code, message)
                        .with_note(format!("in the world where {world}")),
                    decisions: oracle.decisions(),
                    hits: b.hits.clone(),
                    predicted: b_outcome.clone(),
                    predicted_state: b_state.clone(),
                });
            }
        };

        let kind = |o: &Outcome| match o {
            Outcome::Forwarded(_) => "forwarded",
            Outcome::DroppedByAction => "dropped by an action",
            Outcome::DroppedNoRoute => "dropped for lacking a route",
            Outcome::RuntimeError(_) => "aborted with a runtime error",
        };
        match (a_outcome, b_outcome) {
            (Outcome::Forwarded(pa), Outcome::Forwarded(pb)) => {
                if pa != pb {
                    push(
                        codes::OUTCOME_DIVERGENCE,
                        "egress_port".into(),
                        format!("egress port diverges: program forwards to {pa}, design to {pb}"),
                        oracle,
                    );
                }
            }
            (a, b) if kind(a) == kind(b) => {
                // Same terminal kind; dropped/error paths need no state compare.
                return;
            }
            (a, b) => {
                push(
                    codes::OUTCOME_DIVERGENCE,
                    "outcome".into(),
                    format!(
                        "packet outcome diverges: per the program it is {}, on the device it is {}{}",
                        kind(a),
                        kind(b),
                        match b {
                            Outcome::RuntimeError(e) => format!(" ({e})"),
                            _ => String::new(),
                        }
                    ),
                    oracle,
                );
                return;
            }
        }

        // Both sides forwarded: compare the observable packet state.
        let headers: BTreeSet<&String> = a_state
            .validity
            .keys()
            .chain(b_state.validity.keys())
            .collect();
        for h in headers {
            let va = a_state.is_valid(oracle, h);
            let vb = b_state.is_valid(oracle, h);
            if va != vb {
                let what = |v: bool| if v { "present" } else { "absent" };
                push(
                    codes::VALIDITY_DIVERGENCE,
                    format!("validity:{h}"),
                    format!(
                        "header `{h}` validity diverges: {} per the program, {} on the device",
                        what(va),
                        what(vb)
                    ),
                    oracle,
                );
            }
        }

        let fields: BTreeSet<(String, String)> = a_state
            .fields
            .keys()
            .chain(b_state.fields.keys())
            .cloned()
            .collect();
        for (h, f) in fields {
            let va = a_state.is_valid(oracle, &h);
            let vb = b_state.is_valid(oracle, &h);
            if !va || !vb {
                continue; // covered by the validity comparison
            }
            let ta = a_state.read_field(oracle, &h, &f);
            let tb = b_state.read_field(oracle, &h, &f);
            if ta != tb {
                push(
                    codes::WRITE_DIVERGENCE,
                    format!("field:{h}.{f}"),
                    format!(
                        "`{h}.{f}` diverges: program leaves {}, design leaves {}",
                        show(&ta),
                        show(&tb)
                    ),
                    oracle,
                );
            }
        }

        let metas: BTreeSet<&String> = a_state
            .meta
            .keys()
            .chain(b_state.meta.keys())
            .filter(|n| !n.starts_with("__t"))
            .collect();
        for m in metas {
            let ta = a_state.read_meta(m);
            let tb = b_state.read_meta(m);
            if ta != tb {
                push(
                    codes::WRITE_DIVERGENCE,
                    format!("meta:{m}"),
                    format!("`meta.{m}` diverges: program leaves {ta}, design leaves {tb}"),
                    oracle,
                );
            }
        }
        let ma = a_state.read_meta("mark");
        let mb = b_state.read_meta("mark");
        if ma != mb {
            push(
                codes::WRITE_DIVERGENCE,
                "meta:mark".into(),
                format!("`meta.mark` diverges: program leaves {ma}, design leaves {mb}"),
                oracle,
            );
        }
    }
}

/// Validates a compiled design against its source program. Returns RP42xx
/// diagnostics; empty means the compilation is provably path-equivalent
/// within the enumeration budget.
pub fn check_program_design(prog: &Program, env: &Env, design: &CompiledDesign) -> Vec<Diagnostic> {
    // Structural pre-pass: table schemas. The behavioral phase models
    // lookups as free choices, so a miscompiled key or action list must be
    // caught here — and matching action lists are what make the design's
    // per-table arity the program's.
    let mut diags = structural_check(prog, env, design);
    if !diags.is_empty() {
        return diags;
    }
    let mut divs = Divergences::default();
    let overflow = enumerate(
        &[design],
        MAX_WORLDS,
        MAX_DECISIONS,
        |oracle| {
            let a = eval_ast(prog, env, oracle);
            (a, eval_design(design, oracle, None))
        },
        |(a, d), oracle| divs.visit(&a.state, &a.outcome, &d, oracle),
    );
    diags.extend(overflow.map(budget_diag));
    for mut dv in divs.found {
        dv.diag.span = span_for(prog, &dv.diag);
        diags.push(dv.witnessed(design));
    }
    diags
}

/// Validates that two designs behave identically on the stages of every
/// function that is present, with an identical stage list, in both —
/// the correctness contract of an in-situ update: *untouched* functions
/// must be undisturbed.
pub fn check_design_design(pre: &CompiledDesign, post: &CompiledDesign) -> Vec<Diagnostic> {
    // Stages of functions unchanged between the designs...
    let mut allowed: HashSet<String> = pre
        .funcs
        .iter()
        .filter(|f| post.funcs.iter().any(|g| g == *f))
        .flat_map(|f| f.stages.iter().cloned())
        .collect();
    // ...shrunk to a fixpoint: if a hosting template (either side) also
    // carries a non-allowed stage, its whole merge group is out, so both
    // sides skip exactly the same logical stages.
    loop {
        let mut dropped = false;
        for d in [pre, post] {
            for (_, t) in d.programmed() {
                let members: Vec<&str> = t.stage_name.split('+').collect();
                if members.iter().any(|m| !allowed.contains(*m))
                    && members.iter().any(|m| allowed.contains(*m))
                {
                    for m in members {
                        dropped |= allowed.remove(m);
                    }
                }
            }
        }
        if !dropped {
            break;
        }
    }

    fn included<'d>(
        d: &'d CompiledDesign,
        allowed: &HashSet<String>,
    ) -> Vec<&'d ipsa_core::template::TspTemplate> {
        d.programmed()
            .filter(|(_, t)| t.stage_name.split('+').all(|s| allowed.contains(s)))
            .map(|(_, t)| t)
            .collect()
    }

    // Structural fast path: identical included templates over identical
    // table/action definitions need no enumeration.
    let pre_inc = included(pre, &allowed);
    let post_inc = included(post, &allowed);
    let mut diags = Vec::new();
    let mut tables_equal = true;
    for t in pre_inc.iter().chain(post_inc.iter()) {
        for name in t.tables() {
            if pre.tables.get(name) != post.tables.get(name) {
                tables_equal = false;
                diags.push(
                    Diagnostic::error(
                        codes::STRUCT_MISMATCH,
                        format!("table `{name}` changed although its function was not updated"),
                    )
                    .with_note("an in-situ update must leave untouched functions' tables intact"),
                );
            }
        }
    }
    diags.sort_by(|a, b| a.message.cmp(&b.message));
    diags.dedup();
    if !tables_equal {
        return diags;
    }
    if pre_inc == post_inc && pre.actions == post.actions && pre.metadata == post.metadata {
        return diags;
    }

    let mut divs = Divergences::default();
    let overflow = enumerate(
        &[pre, post],
        MAX_WORLDS,
        MAX_DECISIONS,
        |oracle| {
            let a = eval_design(pre, oracle, Some(&allowed));
            (a, eval_design(post, oracle, Some(&allowed)))
        },
        |(a, b), oracle| divs.visit(&a.state, &a.outcome, &b, oracle),
    );
    diags.extend(overflow.map(budget_diag));
    for mut dv in divs.found {
        dv.diag = dv
            .diag
            .with_note("divergence is on a stage of a function the update does not touch");
        diags.push(dv.witnessed(post));
    }
    diags
}

fn budget_diag(overflow: Overflow) -> Diagnostic {
    Diagnostic::warning(
        codes::PATH_BUDGET,
        format!("equivalence enumeration incomplete: {overflow}"),
    )
    .with_note("paths beyond the budget were not compared; raise the budget or simplify guards")
}

fn show(t: &Option<crate::term::Term>) -> String {
    match t {
        Some(t) => format!("{t}"),
        None => "(absent)".to_string(),
    }
}

/// Best-effort span for a divergence: the named header/table/action if the
/// subject carries one, else the first ingress stage.
fn span_for(prog: &Program, diag: &Diagnostic) -> Option<Span> {
    let msg = &diag.message;
    let named = |kind: ItemKind, name: &str| prog.spans.get(kind, name);
    if let Some(h) = msg
        .strip_prefix("header `")
        .and_then(|r| r.split('`').next())
    {
        if let Some(s) = named(ItemKind::Header, h) {
            return Some(s);
        }
    }
    if let Some(rest) = msg.strip_prefix('`') {
        if let Some(subject) = rest.split('`').next() {
            if let Some((scope, _)) = subject.split_once('.') {
                if let Some(s) = named(ItemKind::Header, scope) {
                    return Some(s);
                }
            }
        }
    }
    if let Some(t) = msg
        .strip_prefix("table `")
        .and_then(|r| r.split('`').next())
    {
        if let Some(s) = named(ItemKind::Table, t) {
            return Some(s);
        }
    }
    prog.ingress
        .first()
        .and_then(|st| named(ItemKind::Stage, &st.name))
}

/// Structural pre-pass: every program table must exist in the design with
/// the same key schema, action list, default action, and counter flag.
fn structural_check(prog: &Program, env: &Env, design: &CompiledDesign) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut err = |name: &str, msg: String| {
        diags.push(
            Diagnostic::error(codes::STRUCT_MISMATCH, msg)
                .with_span(prog.spans.get(ItemKind::Table, name)),
        );
    };
    let mut expected_names: BTreeSet<&str> = BTreeSet::new();
    for t in &prog.tables {
        expected_names.insert(&t.name);
        let Some(d) = design.tables.get(&t.name) else {
            err(
                &t.name,
                format!("table `{}` is missing from the compiled design", t.name),
            );
            continue;
        };
        if let Some(msg) = table_mismatch(env, t, d) {
            err(&t.name, format!("table `{}` {msg}", t.name));
        }
    }
    for name in design.tables.keys() {
        if !expected_names.contains(name.as_str()) {
            diags.push(Diagnostic::error(
                codes::STRUCT_MISMATCH,
                format!("design carries table `{name}` that the program never declared"),
            ));
        }
    }
    diags
}

fn table_mismatch(env: &Env, t: &rp4_lang::ast::TableDecl, d: &TableDef) -> Option<String> {
    if t.key.len() != d.key.len() {
        return Some(format!(
            "key has {} fields in the program but {} in the design",
            t.key.len(),
            d.key.len()
        ));
    }
    for (i, ((e, kind), dk)) in t.key.iter().zip(&d.key).enumerate() {
        let (src, bits) = match e {
            Expr::Qualified(scope, field) => {
                let src = if scope == &env.meta_alias {
                    ValueRef::Meta(field.clone())
                } else {
                    ValueRef::field(scope.clone(), field.clone())
                };
                (src, env.width_of(scope, field).unwrap_or(128))
            }
            other => return Some(format!("key field {i} is not a field reference: {other:?}")),
        };
        let want_kind = match kind {
            rp4_lang::ast::KeyKind::Exact => MatchKind::Exact,
            rp4_lang::ast::KeyKind::Lpm => MatchKind::Lpm,
            rp4_lang::ast::KeyKind::Ternary => MatchKind::Ternary,
            rp4_lang::ast::KeyKind::Hash => MatchKind::Hash,
        };
        if dk.source != src || dk.bits != bits || dk.kind != want_kind {
            return Some(format!(
                "key field {i} differs: program wants {src:?}:{bits} ({want_kind:?}), design has {:?}:{} ({:?})",
                dk.source, dk.bits, dk.kind
            ));
        }
    }
    if t.actions != d.actions {
        return Some(format!(
            "action list differs: program declares {:?}, design has {:?}",
            t.actions, d.actions
        ));
    }
    let want_default = match &t.default_action {
        Some((a, args)) => ActionCall::new(a.clone(), args.clone()),
        None => ActionCall::no_action(),
    };
    if want_default != d.default_action {
        return Some(format!(
            "default action differs: program wants `{}`, design has `{}`",
            want_default.action, d.default_action.action
        ));
    }
    if t.counters != d.with_counters {
        return Some("counter flag differs".to_string());
    }
    None
}

/// Round-trip failback check: applying `forward` then `backward` to `a`
/// must land back on a design behaviorally identical to `a`. A message
/// either batch would have refused is one RP4206 error naming the batch
/// and the message. See [`crate::apply`].
pub fn check_roundtrip(
    a: &CompiledDesign,
    forward: &[ipsa_core::control::ControlMsg],
    backward: &[ipsa_core::control::ControlMsg],
) -> Vec<Diagnostic> {
    let refused = |batch: &str, e: crate::apply::ApplyError| {
        vec![Diagnostic::error(
            codes::FAILBACK_NONIDENTITY,
            format!("failback round-trip cannot run: {batch} batch {e}"),
        )
        .with_note("a device refuses this batch and rolls it back")]
    };
    let b = match crate::apply::apply_msgs(a, forward) {
        Ok(b) => b,
        Err(e) => return refused("forward", e),
    };
    match crate::apply::apply_msgs(&b, backward) {
        Ok(back) => crate::apply::roundtrip_diags(a, &back),
        Err(e) => refused("backward", e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PROG: &str = r#"
        headers {
            header ethernet {
                bit<48> dst_addr; bit<48> src_addr; bit<16> ethertype;
                implicit parser(ethertype) { 0x0800: ipv4; }
            }
            header ipv4 {
                bit<4> version; bit<4> ihl; bit<6> dscp; bit<2> ecn;
                bit<16> total_len; bit<16> identification; bit<3> flags;
                bit<13> frag_offset; bit<8> ttl; bit<8> protocol;
                bit<16> hdr_checksum; bit<32> src_addr; bit<32> dst_addr;
            }
        }
        structs { struct m_t { bit<16> nh; } meta; }
        action fwd(bit<16> port) { forward(port); }
        table fib { key = { ipv4.dst_addr: lpm; } actions = { fwd; } size = 16; }
        control rP4_Ingress {
            stage fib_s {
                parser { ipv4; }
                matcher { if (ipv4.isValid()) fib.apply(); else; }
                executor { 1: fwd; default: NoAction; }
            }
        }
        user_funcs { func base { fib_s } ingress_entry: fib_s; }
    "#;

    /// The RP4205 warning an equivalence check reports when the shared
    /// driver, run under the given budget, stops short.
    fn budget_warning(max_worlds: usize, max_decisions: usize) -> Option<Diagnostic> {
        let prog = rp4_lang::parse(PROG).expect("program parses");
        let design = rp4c::full_compile(&prog, &rp4c::CompilerTarget::ipbm())
            .expect("compiles")
            .design;
        enumerate(
            &[&design],
            max_worlds,
            max_decisions,
            |oracle| eval_design(&design, oracle, None),
            |_, _| ControlFlow::Continue(()),
        )
        .map(budget_diag)
    }

    #[test]
    fn exhausted_budgets_are_reported_as_rp4205() {
        let worlds = budget_warning(2, MAX_DECISIONS).expect("two worlds do not cover the design");
        assert_eq!(worlds.code, codes::PATH_BUDGET);
        assert_eq!(worlds.severity, rp4_lang::Severity::Warning);
        assert_eq!(
            worlds.message,
            "equivalence enumeration incomplete: stopped after 2 worlds (budget 2)"
        );
        let decisions = budget_warning(MAX_WORLDS, 1).expect("a path takes two decisions");
        assert_eq!(decisions.code, codes::PATH_BUDGET);
        assert_eq!(
            decisions.message,
            "equivalence enumeration incomplete: a path needed more than 1 decisions"
        );
        assert!(budget_warning(MAX_WORLDS, MAX_DECISIONS).is_none());
    }
}
