//! Symbolic path enumeration with witness-corpus coverage and static
//! per-packet cost bounds: the RP44xx block.
//!
//! The differential suites sample execution paths randomly; this module
//! closes the gap by *enumerating* them. Every feasible execution path
//! through a checked pipeline — parser branch choices, per-table hit/miss
//! × action selection, guard outcomes — is one world of the shared decision
//! oracle, and each world is:
//!
//! 1. **pruned** when it is provably infeasible — its constraints are
//!    mutually contradictory, its validity assignment contradicts the
//!    parser structure, or it runs through a matcher arm
//!    [`facts::unreachable_arms`] proves unreachable;
//! 2. **concretized** into a witness packet plus the minimal table-entry
//!    setup that drives a real device down the same path (the *coverage
//!    corpus*);
//! 3. **priced** by [`PacketCostModel::software`] into a static per-path
//!    cost bound, whose maximum is the pipeline's worst-case per-packet
//!    bound (WCET).
//!
//! Diagnostics: RP4401 path explosion over budget, RP4402 feasible path
//! with no concretizable witness, RP4403 statically-dead table action,
//! RP4404 plan WCET regression (the [`check_plan_wcet`] gate `apply_plan`
//! runs unless `--force`).

use std::collections::{BTreeMap, BTreeSet};
use std::ops::ControlFlow;

use ipsa_core::facts;
use ipsa_core::template::CompiledDesign;
use ipsa_core::timing::{PacketCostModel, PathWork};
use rp4_lang::ast::Program;
use rp4_lang::{Diagnostic, ItemKind, Span};
use serde::Serialize;

use crate::codes;
use crate::eval_design::eval_design;
use crate::oracle::{enumerate, Key, MAX_DECISIONS, MAX_WORLDS};
use crate::state::Outcome;
use crate::witness::{concretize_world, PathWitness, Skip, SkipKind};

/// RP4404 fires when the post-plan WCET exceeds the pre-plan WCET by more
/// than this factor. Loading a new function legitimately deepens the
/// pipeline, so the gate only blocks *disproportionate* growth.
const WCET_SLACK: f64 = 4.0;

/// Upper bound on RP4402 diagnostics per run (uncoverable paths repeat the
/// same builder gap; the first few are the actionable ones). The counts in
/// [`Coverage`] still include every path.
const MAX_UNCOVERABLE_DIAGS: usize = 8;

/// One feasible execution path: its condition, outcome, work, cost, and —
/// when concretization succeeded — its witness.
#[derive(Debug)]
pub struct PathReport {
    /// Dense index among feasible paths.
    pub index: usize,
    /// Human-readable path condition (the world's decisions).
    pub description: String,
    /// Terminal outcome, rendered.
    pub outcome: String,
    /// Work performed along the path.
    pub work: PathWork,
    /// Static cost bound of the path, ns.
    pub cost_ns: f64,
    /// The concretized witness; `None` when the path is uncoverable.
    pub witness: Option<PathWitness>,
    /// Why concretization was skipped (set exactly when `witness` is
    /// `None`).
    pub skip: Option<Skip>,
}

/// Result of one coverage run over a design.
#[derive(Debug, Default)]
pub struct Coverage {
    /// Every feasible path, covered or not.
    pub paths: Vec<PathReport>,
    /// Worlds pruned as provably infeasible (contradictory constraints,
    /// parser-structure violations, fact-proven unreachable arms).
    pub pruned_infeasible: usize,
    /// True when enumeration stopped on a budget (RP4401 was reported).
    pub overflowed: bool,
    /// Static worst-case per-packet cost bound: the maximum path cost, ns.
    pub wcet_ns: f64,
    /// RP4401–RP4403 findings.
    pub diags: Vec<Diagnostic>,
}

impl Coverage {
    /// Feasible paths with a concrete witness.
    pub fn covered(&self) -> usize {
        self.paths.iter().filter(|p| p.witness.is_some()).count()
    }

    /// All feasible paths.
    pub fn feasible(&self) -> usize {
        self.paths.len()
    }

    /// 100% feasible-path coverage: every feasible path has a witness and
    /// the enumeration ran to completion.
    pub fn fully_covered(&self) -> bool {
        !self.overflowed && self.covered() == self.feasible()
    }
}

fn outcome_str(o: &Outcome) -> String {
    match o {
        Outcome::Forwarded(port) => format!("forwarded to {port}"),
        Outcome::DroppedByAction => "dropped by an action".into(),
        Outcome::DroppedNoRoute => "dropped for lacking a route".into(),
        Outcome::RuntimeError(e) => format!("aborted: {e}"),
    }
}

/// Span of the program's first ingress stage: where findings about whole
/// paths are anchored.
fn first_stage_span(prog: &Program) -> Option<Span> {
    prog.ingress
        .first()
        .and_then(|st| prog.spans.get(ItemKind::Stage, &st.name))
}

/// Headers parsed along a world's path: validity keys decided "present".
fn parsed_headers(decisions: &[(Key, usize)]) -> usize {
    decisions
        .iter()
        .filter(|(k, idx)| matches!(k, Key::Validity(_)) && *idx == 0)
        .count()
}

/// [`facts::unreachable_arms`] of every template the selector activates,
/// keyed by `stage_name` (merged stages keep their joined `a+b` name). A
/// name programmed into more than one active slot gets none: a world's
/// arms name the stage, not the slot.
fn unreachable_by_stage(design: &CompiledDesign) -> BTreeMap<&str, Vec<usize>> {
    let mut order = design.selector.ingress_slots();
    order.extend(design.selector.egress_slots());
    let mut out = BTreeMap::new();
    let mut repeated = BTreeSet::new();
    for t in order
        .into_iter()
        .filter_map(|s| design.templates.get(s).and_then(Option::as_ref))
    {
        if out
            .insert(t.stage_name.as_str(), facts::unreachable_arms(t))
            .is_some()
        {
            repeated.insert(t.stage_name.as_str());
        }
    }
    for name in repeated {
        out.remove(name);
    }
    out
}

/// Does the world run through a matcher arm proven unreachable?
fn fact_pruned(unreachable: &BTreeMap<&str, Vec<usize>>, arms: &[(String, usize)]) -> bool {
    arms.iter().any(|(stage, arm)| {
        unreachable
            .get(stage.as_str())
            .is_some_and(|u| u.contains(arm))
    })
}

/// Enumerates every execution path of `design` within `max_paths` worlds
/// ([`MAX_WORLDS`] unless a caller asks for fewer), prunes the infeasible
/// ones (including worlds through arms [`facts::unreachable_arms`] proves
/// unreachable), concretizes a witness per feasible path, and prices each
/// path.
///
/// `spans` (the checked source program, when available) anchors the
/// diagnostics to source items.
pub fn cover_design(
    design: &CompiledDesign,
    spans: Option<&Program>,
    max_paths: usize,
) -> Coverage {
    let unreachable = unreachable_by_stage(design);
    let cost = PacketCostModel::software();
    let mut cov = Coverage::default();
    // (table, tag) pairs some feasible path selects — the complement is
    // RP4403.
    let mut selected: BTreeSet<(String, u32)> = BTreeSet::new();
    let mut uncoverable = 0usize;

    let overflow = enumerate(
        &[design],
        max_paths,
        MAX_DECISIONS,
        |oracle| eval_design(design, oracle, None),
        |mut run, oracle| {
            let decisions = oracle.decisions();
            run.work.parsed_headers = parsed_headers(&decisions);
            if fact_pruned(&unreachable, &run.arms) {
                cov.pruned_infeasible += 1;
                return ControlFlow::Continue(());
            }
            let concretized = concretize_world(design, &decisions, &run.hits);
            if matches!(
                &concretized,
                Err(Skip {
                    kind: SkipKind::Infeasible,
                    ..
                })
            ) {
                cov.pruned_infeasible += 1;
                return ControlFlow::Continue(());
            }
            // Feasible: its action selections are live even if no witness
            // exists for it.
            for h in &run.hits {
                selected.insert((h.table.clone(), h.tag));
            }
            let cost_ns = cost.path_cost_ns(&run.work);
            cov.wcet_ns = cov.wcet_ns.max(cost_ns);
            let (witness, skip) = match concretized {
                Ok(w) => (Some(w), None),
                Err(s) => (None, Some(s)),
            };
            if let Some(s) = &skip {
                uncoverable += 1;
                if uncoverable <= MAX_UNCOVERABLE_DIAGS {
                    cov.diags.push(
                        Diagnostic::warning(
                            codes::UNCOVERABLE_PATH,
                            format!("feasible path has no concretizable witness: {}", s.reason),
                        )
                        .with_span(spans.and_then(first_stage_span))
                        .with_note(format!("in the world where {}", oracle.describe())),
                    );
                }
            }
            cov.paths.push(PathReport {
                index: cov.paths.len(),
                description: oracle.describe(),
                outcome: outcome_str(&run.outcome),
                work: run.work,
                cost_ns,
                witness,
                skip,
            });
            ControlFlow::Continue(())
        },
    );
    if let Some(overflow) = overflow {
        cov.overflowed = true;
        cov.diags.push(
            Diagnostic::warning(
                codes::PATH_EXPLOSION,
                format!("path enumeration over budget: {overflow}"),
            )
            .with_span(spans.and_then(first_stage_span))
            .with_note(
                "paths beyond the budget are uncovered; raise the budget or simplify guards",
            ),
        );
    }

    // RP4403: actions no feasible path selects. Skipped when enumeration
    // overflowed — an action may be selected only on paths never visited.
    if !cov.overflowed {
        for (table, def) in &design.tables {
            for (i, action) in def.actions.iter().enumerate() {
                let tag = i as u32 + 1;
                if !selected.contains(&(table.clone(), tag)) {
                    cov.diags.push(
                        Diagnostic::warning(
                            codes::DEAD_ACTION,
                            format!(
                                "action `{action}` of table `{table}` is selected on no feasible path"
                            ),
                        )
                        .with_span(spans.and_then(|p| {
                            p.spans
                                .get(ItemKind::Action, action)
                                .or_else(|| p.spans.get(ItemKind::Table, table))
                        }))
                        .with_key(ItemKind::Action, action)
                        .with_key(ItemKind::Table, table)
                        .with_note(
                            "every world where the table could hit this action is pruned as infeasible or unreachable",
                        ),
                    );
                }
            }
        }
    }
    cov
}

/// RP4404: does `post` regress the static worst-case per-packet cost bound
/// of `pre` beyond the allowed slack? Mirrors `rp4_dfa::check_plan`
/// (RP4306): only *regressions* error, and `Rp4Flow::apply_plan` runs this
/// unless `--force` is set. `post_prog` (when available) anchors the span.
pub fn check_plan_wcet(
    pre: &CompiledDesign,
    post: &CompiledDesign,
    post_prog: Option<&Program>,
) -> Vec<Diagnostic> {
    let pre_cov = cover_design(pre, None, MAX_WORLDS);
    let post_cov = cover_design(post, None, MAX_WORLDS);
    if pre_cov.overflowed || post_cov.overflowed {
        // An incomplete enumeration cannot prove a regression; the RP4401
        // warning already surfaced through `cover_design` callers.
        return Vec::new();
    }
    let (pre_wcet, post_wcet) = (pre_cov.wcet_ns, post_cov.wcet_ns);
    if pre_wcet > 0.0 && post_wcet > pre_wcet * WCET_SLACK {
        return vec![Diagnostic::error(
            codes::PLAN_WCET_REGRESSION,
            format!(
                "update plan regresses the static worst-case per-packet cost bound: \
                 {pre_wcet:.0} ns before, {post_wcet:.0} ns after (×{:.1}, allowed slack ×{:.1})",
                post_wcet / pre_wcet,
                WCET_SLACK
            ),
        )
        .with_span(post_prog.and_then(first_stage_span))
        .with_note(
            "the longest feasible path through the updated pipeline does disproportionately more \
             work; split the update or set `force` to apply anyway",
        )];
    }
    Vec::new()
}

/// Serialized form of one corpus entry. Owned fields: the vendored serde
/// derive subset does not handle generic (lifetime) types.
#[derive(Debug, Serialize)]
struct CorpusEntry {
    index: usize,
    description: String,
    outcome: String,
    work: PathWork,
    cost_ns: f64,
    covered: bool,
    skip_reason: Option<String>,
    ingress_port: Option<u16>,
    injections: Option<usize>,
    packet_hex: Option<String>,
    entries: Option<Vec<ipsa_core::control::ControlMsg>>,
}

/// Serialized corpus header.
#[derive(Debug, Serialize)]
struct CorpusDump {
    feasible_paths: usize,
    covered_paths: usize,
    pruned_infeasible: usize,
    wcet_ns: f64,
    paths: Vec<CorpusEntry>,
}

/// Dumps the coverage corpus as JSON (the `rp4c cover` output): one entry
/// per feasible path with the witness packet bytes, its table-entry setup,
/// and the path's static cost bound.
pub fn corpus_json(cov: &Coverage) -> String {
    let dump = CorpusDump {
        feasible_paths: cov.feasible(),
        covered_paths: cov.covered(),
        pruned_infeasible: cov.pruned_infeasible,
        wcet_ns: cov.wcet_ns,
        paths: cov
            .paths
            .iter()
            .map(|p| CorpusEntry {
                index: p.index,
                description: p.description.clone(),
                outcome: p.outcome.clone(),
                work: p.work,
                cost_ns: p.cost_ns,
                covered: p.witness.is_some(),
                skip_reason: p.skip.as_ref().map(|s| s.reason.clone()),
                ingress_port: p.witness.as_ref().map(|w| w.packet.meta.ingress_port),
                injections: p.witness.as_ref().map(|w| w.injections),
                packet_hex: p.witness.as_ref().map(|w| {
                    w.packet
                        .data
                        .iter()
                        .map(|b| format!("{b:02x}"))
                        .collect::<String>()
                }),
                entries: p.witness.as_ref().map(|w| w.entries.clone()),
            })
            .collect(),
    };
    serde_json::to_string_pretty(&dump).unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"))
}
