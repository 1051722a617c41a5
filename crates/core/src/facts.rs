//! Statically proven dataflow facts about an installed pipeline, and the
//! one function that derives them.
//!
//! [`derive()`] is a pure function of what a device latches from the control
//! plane — the selector, the per-slot templates and the registered actions.
//! It proves [`SlotFacts::elide_parse`]: headers whose `ensure_parsed` call
//! at a slot is provably a no-op (an earlier slot in the same path already
//! settled them, and no registered action can unsettle them). This is
//! *parse elision*, the one fact the device's epoch compiler
//! (`ipbm::fast::compile`) uses: it calls `derive` on its own state whenever
//! it compiles, so elision can never be stale or missing, whichever control
//! messages produced that state.
//!
//! [`unreachable_arms`] is a per-template analysis beside it: matcher arms
//! that can never be the first true branch (shadowed by an earlier
//! unconditional or identical guard, or self-contradictory). `rp4-equiv`
//! calls it on the templates of a [`CompiledDesign`] to prune worlds.
//!
//! Parse elision is *exact* with respect to observable behavior — outputs
//! and statistics are bit-identical with and without it (pinned by the
//! differential suite). So it quantifies over *all* registered actions, not
//! just the ones the installed entries call: `insert_entry` does not
//! re-validate an entry's action, so entry churn (which opens no epoch, see
//! [`ControlMsg::is_entry_op`]) must never invalidate it.
//!
//! [`CompiledDesign`]: crate::template::CompiledDesign
//! [`ControlMsg::is_entry_op`]: crate::control::ControlMsg::is_entry_op

use std::collections::{BTreeMap, BTreeSet};

use crate::action::{ActionDef, Primitive};
use crate::pipeline_cfg::SelectorConfig;
use crate::predicate::Predicate;
use crate::template::TspTemplate;

/// Proven facts about one TSP slot, keyed by its template's `stage_name`
/// (merged stages keep their joined `a+b` name).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SlotFacts {
    /// Headers in this slot's parse requirements whose `ensure` is a
    /// proven no-op: every path to this slot already ran `ensure` for
    /// them, and no registered action can change their validity.
    pub elide_parse: Vec<String>,
}

/// Everything [`derive()`] proves about one pipeline.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProgramFacts {
    /// Per-slot facts, keyed by template `stage_name`.
    pub slots: BTreeMap<String, SlotFacts>,
}

impl ProgramFacts {
    /// Facts for a slot, if the analysis produced any.
    pub fn slot(&self, stage_name: &str) -> Option<&SlotFacts> {
        self.slots.get(stage_name)
    }
}

/// Derives the facts of the pipeline the selector activates over
/// `template_at` (the template programmed into a physical slot, if any),
/// quantifying over every registered action (`(name, definition)` pairs).
/// Deterministic and pure.
///
/// A stage name programmed into more than one active slot gets no slot
/// facts: they are keyed by name, and one name's facts must hold wherever
/// the compiler looks them up.
pub fn derive<'a>(
    selector: &SelectorConfig,
    template_at: impl Fn(usize) -> Option<&'a TspTemplate>,
    actions: impl IntoIterator<Item = (&'a String, &'a ActionDef)>,
) -> ProgramFacts {
    // Header kill set: headers some registered action may add or remove.
    // A header in this set can lose (or gain) validity mid-pipeline, so
    // its parse state must be re-checked at every slot that needs it.
    let killed = killed_headers(actions.into_iter().map(|(_, a)| a));
    let mut facts = ProgramFacts::default();

    // Parse elision: walk each path (all ingress slots feed every egress
    // slot — parse state persists across the Traffic Manager), tracking
    // the union of headers already ensured by strictly-earlier slots.
    let mut order = selector.ingress_slots();
    order.extend(selector.egress_slots());
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut names: BTreeSet<&str> = BTreeSet::new();
    let mut repeated: BTreeSet<&str> = BTreeSet::new();
    for slot in order {
        let Some(t) = template_at(slot) else {
            continue;
        };
        if !names.insert(&t.stage_name) {
            repeated.insert(&t.stage_name);
        }
        let reqs = t.parse_requirements();
        let elide: Vec<String> = reqs
            .iter()
            .filter(|h| seen.contains(*h) && !killed.contains(*h))
            .cloned()
            .collect();
        if !elide.is_empty() {
            facts
                .slots
                .insert(t.stage_name.clone(), SlotFacts { elide_parse: elide });
        }
        seen.extend(reqs.iter().cloned());
    }
    for name in repeated {
        facts.slots.remove(name);
    }
    facts
}

/// Headers some action may add or remove.
fn killed_headers<'a>(actions: impl Iterator<Item = &'a ActionDef>) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for a in actions {
        for p in &a.body {
            match p {
                Primitive::InsertHeaderAfter { header, .. }
                | Primitive::RemoveHeader { header } => {
                    out.insert(header.clone());
                }
                _ => {}
            }
        }
    }
    out
}

/// Indices into `t.branches` that can never be the first true predicate:
/// shadowed by an earlier always-true or structurally identical guard, or
/// themselves self-contradictory. Uses only decidable structural rules, so
/// a proven index is unreachable for *every* packet and entry population.
pub fn unreachable_arms(t: &TspTemplate) -> Vec<usize> {
    let preds: Vec<&Predicate> = t.branches.iter().map(|b| &b.pred).collect();
    let mut out = Vec::new();
    let mut shadowed = false;
    for (j, p) in preds.iter().enumerate() {
        // `p.mutually_exclusive(p)` pairs every conjunction factor of `p`
        // with every other, so it is exactly "self-contradictory".
        if shadowed || p.mutually_exclusive(p) || preds[..j].contains(p) {
            out.push(j);
            continue;
        }
        shadowed = matches!(p, Predicate::True);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::CmpOp;
    use crate::template::{CompiledDesign, MatcherBranch};
    use crate::value::ValueRef;

    fn of_design(d: &CompiledDesign) -> ProgramFacts {
        derive(
            &d.selector,
            |i| d.templates.get(i).and_then(Option::as_ref),
            &d.actions,
        )
    }

    #[test]
    fn facts_roundtrip_and_lookup() {
        let mut f = ProgramFacts::default();
        f.slots.insert(
            "fwd_mode".into(),
            SlotFacts {
                elide_parse: vec!["ethernet".into()],
            },
        );
        assert!(f.slot("fwd_mode").is_some());
        assert!(f.slot("ghost").is_none());
    }

    #[test]
    fn empty_facts_are_empty() {
        let f = of_design(&CompiledDesign::empty("blank", 4));
        assert!(f.slots.is_empty());
    }

    #[test]
    fn unreachable_after_unconditional_and_duplicates() {
        let p_true = Predicate::True;
        let cmp = Predicate::Cmp {
            lhs: ValueRef::Meta("x".into()),
            op: CmpOp::Eq,
            rhs: ValueRef::Const(1),
        };
        let contradiction = Predicate::and(
            Predicate::IsValid("h".into()),
            Predicate::Not(Box::new(Predicate::IsValid("h".into()))),
        );
        // [cmp, cmp(dup), contradiction, True, cmp] → 1, 2, 4 unreachable.
        let mut t = TspTemplate::passthrough("s");
        t.branches = [cmp.clone(), cmp.clone(), contradiction, p_true, cmp]
            .into_iter()
            .map(|pred| MatcherBranch { pred, table: None })
            .collect();
        assert_eq!(unreachable_arms(&t), vec![1, 2, 4]);
    }

    /// Two active slots, `s0` then `s1`, both parsing ipv4.
    fn two_slot_design() -> CompiledDesign {
        let mut d = CompiledDesign::empty("t", 2);
        let mut t0 = TspTemplate::passthrough("s0");
        t0.parse = vec!["ethernet".into(), "ipv4".into()];
        let mut t1 = TspTemplate::passthrough("s1");
        t1.parse = vec!["ipv4".into()];
        d.templates[0] = Some(t0);
        d.templates[1] = Some(t1);
        d.selector = SelectorConfig::split(2, 1, 1).unwrap();
        d
    }

    #[test]
    fn facts_for_two_slot_design() {
        let mut d = two_slot_design();
        d.templates[1].as_mut().unwrap().branches = vec![
            MatcherBranch {
                pred: Predicate::True,
                table: None,
            },
            MatcherBranch {
                pred: Predicate::IsValid("ipv4".into()),
                table: None,
            },
        ];
        let f = of_design(&d);
        let s1 = f.slot("s1").expect("slot facts for s1");
        assert_eq!(s1.elide_parse, vec!["ipv4".to_string()]);
        assert_eq!(unreachable_arms(d.templates[1].as_ref().unwrap()), vec![1]);
        assert!(f.slot("s0").is_none());

        // The same stage name in both slots: its facts would hold for one
        // slot only, so neither gets any.
        d.templates[0].as_mut().unwrap().stage_name = "s1".into();
        assert!(of_design(&d).slots.is_empty());
    }

    #[test]
    fn header_mutators_disable_stability_and_elision() {
        let mut d = two_slot_design();
        d.actions.insert(
            "decap".into(),
            ActionDef {
                name: "decap".into(),
                params: vec![],
                body: vec![Primitive::RemoveHeader {
                    header: "ipv4".into(),
                }],
            },
        );
        let f = of_design(&d);
        // ipv4 is in the kill set, so its re-ensure cannot be elided.
        assert!(f.slot("s1").is_none());
    }
}
