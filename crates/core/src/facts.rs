//! Statically proven dataflow facts about an installed pipeline, and the
//! one function that derives them.
//!
//! [`derive()`] is a pure function of what a device latches from the control
//! plane — the selector, the per-slot templates and the registered actions.
//! The device's epoch compiler (`ipbm::fast::compile`) calls it on its own
//! state whenever it compiles, so the facts can never be stale or missing,
//! whichever control messages produced that state; `rp4-equiv` calls it on a
//! [`CompiledDesign`] to prune the same worlds. The compiler uses each fact
//! to skip work the analysis proved redundant:
//!
//! - [`SlotFacts::elide_parse`]: headers whose `ensure_parsed` call at this
//!   slot is provably a no-op (an earlier slot in the same path already
//!   settled them, and no registered action can unsettle them);
//! - [`SlotFacts::unreachable_arms`]: matcher arms that can never be the
//!   first true branch (shadowed by an earlier unconditional or identical
//!   guard, or self-contradictory) — safe to drop from the compiled slot;
//! - [`ProgramFacts::stable_headers`]: no registered action can add or
//!   remove any header mid-pipeline, so per-packet header locations and
//!   validity bits may be memoized between parser extractions;
//! - [`ProgramFacts::dead_stores`]: metadata stores inside an action body
//!   that are provably overwritten before any read — replaceable by
//!   `NoAction` (the primitive still *counts*, preserving statistics, but
//!   does no work).
//!
//! Every fact is *exact* with respect to observable behavior — outputs and
//! statistics are bit-identical with and without it (pinned by the
//! differential suite). That drives two conservatisms:
//!
//! - Facts quantify over *all* registered actions, not just the ones the
//!   installed entries call: `insert_entry` does not re-validate an entry's
//!   action, so entry churn (which opens no epoch, see
//!   [`ControlMsg::is_entry_op`]) must never invalidate a fact.
//! - Dead-store candidates are restricted to windows where no in-between
//!   primitive can error or drop, because `execute` aborts mid-body on
//!   both; eliding a store that precedes an abort would resurrect it.
//!
//! [`CompiledDesign`]: crate::template::CompiledDesign
//! [`ControlMsg::is_entry_op`]: crate::control::ControlMsg::is_entry_op

use std::collections::{BTreeMap, BTreeSet};

use crate::action::{ActionDef, Primitive};
use crate::pipeline_cfg::SelectorConfig;
use crate::predicate::Predicate;
use crate::template::TspTemplate;
use crate::value::{LValueRef, ValueRef};

/// Proven facts about one TSP slot, keyed by its template's `stage_name`
/// (merged stages keep their joined `a+b` name).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SlotFacts {
    /// Headers in this slot's parse requirements whose `ensure` is a
    /// proven no-op: every path to this slot already ran `ensure` for
    /// them, and no registered action can change their validity.
    pub elide_parse: Vec<String>,
    /// Indices into the template's `branches` that can never be chosen.
    pub unreachable_arms: Vec<usize>,
}

/// Everything [`derive()`] proves about one pipeline.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProgramFacts {
    /// Per-slot facts, keyed by template `stage_name`.
    pub slots: BTreeMap<String, SlotFacts>,
    /// True when no registered action contains a header-set-mutating
    /// primitive (`InsertHeaderAfter`, `RemoveHeader`): header presence and
    /// byte offsets then only ever change through parser extraction,
    /// enabling per-packet header-location memoization between
    /// extractions.
    pub stable_headers: bool,
    /// `(action name, primitive index)` pairs whose metadata store is
    /// provably overwritten before any read within the same body.
    pub dead_stores: Vec<(String, usize)>,
}

impl ProgramFacts {
    /// Facts for a slot, if the analysis produced any.
    pub fn slot(&self, stage_name: &str) -> Option<&SlotFacts> {
        self.slots.get(stage_name)
    }

    /// True when `prim_idx` of `action` is a proven dead store.
    pub fn is_dead_store(&self, action: &str, prim_idx: usize) -> bool {
        self.dead_stores
            .iter()
            .any(|(a, i)| a == action && *i == prim_idx)
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
    let actions: Vec<(&String, &ActionDef)> = actions.into_iter().collect();
    // Header kill set: headers some registered action may add or remove.
    // A header in this set can lose (or gain) validity mid-pipeline, so
    // its parse state must be re-checked at every slot that needs it.
    let killed = killed_headers(actions.iter().map(|(_, a)| *a));
    let mut facts = ProgramFacts {
        stable_headers: killed.is_empty(),
        ..Default::default()
    };

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
        let unreachable = unreachable_arms(t.branches.iter().map(|b| &b.pred));
        if !elide.is_empty() || !unreachable.is_empty() {
            let sf = facts.slots.entry(t.stage_name.clone()).or_default();
            sf.elide_parse = elide;
            sf.unreachable_arms = unreachable;
        }
        seen.extend(reqs.iter().cloned());
    }
    for name in repeated {
        facts.slots.remove(name);
    }

    for (name, a) in actions {
        for idx in dead_stores(a) {
            facts.dead_stores.push((name.clone(), idx));
        }
    }
    facts.dead_stores.sort();
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

/// Branch indices that can never be the first true predicate: shadowed by
/// an earlier always-true or structurally identical guard, or themselves
/// self-contradictory. Uses only decidable structural rules, so a proven
/// index is unreachable for *every* packet and entry population.
fn unreachable_arms<'a>(preds: impl Iterator<Item = &'a Predicate>) -> Vec<usize> {
    let preds: Vec<&Predicate> = preds.collect();
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

/// Primitives `execute` can run without erroring or dropping regardless of
/// packet or entry contents — the only ones allowed between a dead store
/// and its overwrite. Reading a `Param` may be out of bounds and reading a
/// header `Field` may hit an absent header; both abort the body.
fn prim_is_safe(p: &Primitive) -> bool {
    let v_safe = |v: &ValueRef| matches!(v, ValueRef::Const(_) | ValueRef::Meta(_));
    match p {
        Primitive::NoAction => true,
        Primitive::Set {
            dst: LValueRef::Meta(_),
            src,
        } => v_safe(src),
        Primitive::Alu {
            dst: LValueRef::Meta(_),
            a,
            b,
            ..
        } => v_safe(a) && v_safe(b),
        Primitive::Hash {
            dst: LValueRef::Meta(_),
            inputs,
            ..
        } => inputs.iter().all(v_safe),
        Primitive::Forward { port } => v_safe(port),
        Primitive::Mark { value } => v_safe(value),
        _ => false,
    }
}

/// Metadata a safe primitive reads.
fn safe_prim_reads(p: &Primitive, out: &mut BTreeSet<String>) {
    let v = |v: &ValueRef, out: &mut BTreeSet<String>| {
        if let ValueRef::Meta(m) = v {
            out.insert(m.clone());
        }
    };
    match p {
        Primitive::Set { src, .. } => v(src, out),
        Primitive::Alu { a, b, .. } => {
            v(a, out);
            v(b, out);
        }
        Primitive::Hash { inputs, .. } => {
            for i in inputs {
                v(i, out);
            }
        }
        Primitive::Forward { port } => v(port, out),
        Primitive::Mark { value } => v(value, out),
        _ => {}
    }
}

/// Metadata field a safe primitive writes.
fn safe_prim_write(p: &Primitive) -> Option<String> {
    match p {
        Primitive::Set {
            dst: LValueRef::Meta(m),
            ..
        }
        | Primitive::Alu {
            dst: LValueRef::Meta(m),
            ..
        }
        | Primitive::Hash {
            dst: LValueRef::Meta(m),
            ..
        } => Some(m.clone()),
        Primitive::Forward { .. } => Some("egress_port".into()),
        Primitive::Mark { .. } => Some("mark".into()),
        _ => None,
    }
}

/// Indices of provably dead metadata stores in one action body.
///
/// A store at `i` is dead when a later store at `j` targets the same
/// metadata field, every primitive in `(i, j]` is [safe](prim_is_safe)
/// (cannot error or drop, so the body provably reaches `j`), and none of
/// them reads the field. The caller substitutes `NoAction` — never removes
/// the primitive — so `ActionOutcome::primitives` counts are unchanged.
fn dead_stores(a: &ActionDef) -> Vec<usize> {
    let mut out = Vec::new();
    for (i, p) in a.body.iter().enumerate() {
        // Only plain meta-to-meta/const copies qualify as the *elided*
        // store: its own evaluation must also be side-effect free.
        let Primitive::Set {
            dst: LValueRef::Meta(field),
            src: ValueRef::Const(_) | ValueRef::Meta(_),
        } = p
        else {
            continue;
        };
        let mut provable = false;
        for q in &a.body[i + 1..] {
            if !prim_is_safe(q) {
                break;
            }
            let mut reads = BTreeSet::new();
            safe_prim_reads(q, &mut reads);
            if reads.contains(field) {
                break;
            }
            if safe_prim_write(q).as_deref() == Some(field) {
                provable = true;
                break;
            }
        }
        if provable {
            out.push(i);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::CmpOp;
    use crate::template::{CompiledDesign, MatcherBranch};

    fn set_meta(field: &str, v: u128) -> Primitive {
        Primitive::Set {
            dst: LValueRef::Meta(field.into()),
            src: ValueRef::Const(v),
        }
    }

    fn of_design(d: &CompiledDesign) -> ProgramFacts {
        derive(
            &d.selector,
            |i| d.templates.get(i).and_then(Option::as_ref),
            &d.actions,
        )
    }

    #[test]
    fn facts_roundtrip_and_lookup() {
        let mut f = ProgramFacts {
            stable_headers: true,
            ..Default::default()
        };
        f.slots.insert(
            "fwd_mode".into(),
            SlotFacts {
                elide_parse: vec!["ethernet".into()],
                unreachable_arms: vec![2],
            },
        );
        f.dead_stores.push(("set_x".into(), 0));
        assert!(f.is_dead_store("set_x", 0));
        assert!(!f.is_dead_store("set_x", 1));
        assert!(f.slot("fwd_mode").is_some());
        assert!(f.slot("ghost").is_none());
    }

    #[test]
    fn empty_facts_are_empty() {
        let f = of_design(&CompiledDesign::empty("blank", 4));
        assert!(f.slots.is_empty() && f.dead_stores.is_empty());
        assert!(f.stable_headers, "no action mutates the header set");
    }

    #[test]
    fn dead_store_found_and_windows_respected() {
        let a = ActionDef {
            name: "a".into(),
            params: vec![],
            body: vec![
                set_meta("x", 1),
                Primitive::NoAction,
                set_meta("x", 2), // kills index 0
            ],
        };
        assert_eq!(dead_stores(&a), vec![0]);

        // An intervening read keeps the first store alive.
        let b = ActionDef {
            name: "b".into(),
            params: vec![],
            body: vec![
                set_meta("x", 1),
                Primitive::Set {
                    dst: LValueRef::Meta("y".into()),
                    src: ValueRef::Meta("x".into()),
                },
                set_meta("x", 2),
            ],
        };
        assert!(dead_stores(&b).is_empty());

        // An unsafe primitive (may error) in the window blocks the proof.
        let c = ActionDef {
            name: "c".into(),
            params: vec![],
            body: vec![
                set_meta("x", 1),
                Primitive::Set {
                    dst: LValueRef::Meta("y".into()),
                    src: ValueRef::Param(0),
                },
                set_meta("x", 2),
            ],
        };
        assert!(dead_stores(&c).is_empty());
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
        let preds = [&cmp, &cmp, &contradiction, &p_true, &cmp];
        assert_eq!(unreachable_arms(preds.iter().copied()), vec![1, 2, 4]);
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
        assert!(f.stable_headers);
        let s1 = f.slot("s1").expect("slot facts for s1");
        assert_eq!(s1.elide_parse, vec!["ipv4".to_string()]);
        assert_eq!(s1.unreachable_arms, vec![1]);
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
        assert!(!f.stable_headers);
        // ipv4 is in the kill set, so its re-ensure cannot be elided.
        assert!(f.slot("s1").is_none());
    }
}
