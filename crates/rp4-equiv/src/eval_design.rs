//! Symbolic evaluator over a compiled design (`CompiledDesign`): the
//! "what the device will actually do" side of the equivalence check.
//!
//! Mirrors `ipbm`'s pipeline module step for step — selector-ordered
//! ingress slots, the Traffic Manager's no-route drop, then egress slots —
//! and the TSP triad within each slot: first matching branch, crossbar
//! reachability, key read (an absent header forces a miss), oracle-decided
//! lookup outcome, executor dispatch on the hit tag with the
//! entry-args-win rule, and the action VM's primitives with a drop check
//! after every primitive.

use std::collections::HashSet;

use ipsa_core::action::{ActionDef, Primitive};
use ipsa_core::pipeline_cfg::SlotRole;
use ipsa_core::predicate::Predicate;
use ipsa_core::table::MatchKind;
use ipsa_core::template::{CompiledDesign, TspTemplate};
use ipsa_core::timing::PathWork;
use ipsa_core::value::{LValueRef, ValueRef};

use crate::oracle::Oracle;
use crate::state::{
    decide_cmp, prim_dec_hop_limit_v6, prim_dec_ttl_v4, prim_forward, prim_mark,
    prim_mark_if_counter_over, prim_refresh_ipv4_checksum, prim_remove_header, prim_srv6_advance,
    Outcome, SymState, Widths,
};
use crate::term::{alu, hash, trunc, Term};

/// Width/layout answers from a compiled design (header linkage + declared
/// metadata).
pub(crate) struct DesignWidths<'a>(&'a CompiledDesign);

impl Widths for DesignWidths<'_> {
    fn field_width(&self, header: &str, field: &str) -> usize {
        self.0
            .linkage
            .get(header)
            .and_then(|t| t.fields.iter().find(|f| f.name == field))
            .map(|f| f.bits)
            .unwrap_or(128)
    }

    fn meta_width(&self, name: &str) -> usize {
        self.0.meta_width(name)
    }

    fn header_fields(&self, header: &str) -> Vec<String> {
        self.0
            .linkage
            .get(header)
            .map(|t| t.fields.iter().map(|f| f.name.clone()).collect())
            .unwrap_or_default()
    }
}

/// Where an executing action's parameters come from.
#[derive(Debug, Clone)]
enum ArgsSource {
    /// Bound from the matched entry's action data.
    Entry { table: String, tag: u32, n: usize },
    /// Immediate arguments from the executor arm / default action.
    Immediate(Vec<u128>),
}

impl ArgsSource {
    fn param(&self, i: usize) -> Result<Term, String> {
        match self {
            ArgsSource::Entry { table, tag, n } => {
                if i < *n {
                    Ok(Term::EntryData {
                        table: table.clone(),
                        tag: *tag,
                        index: i,
                    })
                } else {
                    Err(format!("action data index {i} out of range ({n} words)"))
                }
            }
            ArgsSource::Immediate(args) => args.get(i).map(|v| Term::Const(*v)).ok_or_else(|| {
                format!("action data index {i} out of range ({} words)", args.len())
            }),
        }
    }
}

/// One symbolic table hit observed during evaluation — enough for the
/// witness generator to synthesize a concrete entry that reproduces it.
#[derive(Debug, Clone)]
pub(crate) struct TableHitTrace {
    /// Table name.
    pub table: String,
    /// Hit action tag (1-based).
    pub tag: u32,
    /// Key terms in field order, each already truncated to the key width,
    /// paired with the field's match kind.
    pub keys: Vec<(MatchKind, usize, Term)>,
}

/// Result of one symbolic run of a design.
#[derive(Debug)]
pub(crate) struct DesignRun {
    /// Final packet state.
    pub state: SymState,
    /// What happened to the packet.
    pub outcome: Outcome,
    /// Table hits along the taken path (for witness concretization).
    pub hits: Vec<TableHitTrace>,
    /// Work performed along the path (slots, lookups, primitives), priced
    /// by the static cost bounds of path coverage. `parsed_headers` is left 0 —
    /// the caller derives it from the world's validity decisions.
    pub work: PathWork,
    /// Matcher arms taken, as `(stage_name, arm index)` — the hook
    /// path coverage uses to prune paths through arms `rp4-dfa` proved
    /// unreachable.
    pub arms: Vec<(String, usize)>,
}

/// Runs one symbolic packet through `design` under the decisions of
/// `oracle`. When `allowed_stages` is given, a template is evaluated only
/// if *every* `+`-joined member of its `stage_name` is in the set (used to
/// restrict a pre/post incremental comparison to untouched functions).
pub(crate) fn eval_design(
    design: &CompiledDesign,
    oracle: &mut Oracle,
    allowed_stages: Option<&HashSet<String>>,
) -> DesignRun {
    let widths = DesignWidths(design);
    let mut st = SymState::default();
    let mut tr = Trace::default();
    let included = |t: &TspTemplate| -> bool {
        match allowed_stages {
            Some(set) => t.stage_name.split('+').all(|s| set.contains(s)),
            None => true,
        }
    };

    for side in [SlotRole::Ingress, SlotRole::Egress] {
        if side == SlotRole::Egress {
            // Traffic Manager: packets without an egress decision drop here.
            if st.egress.is_none() {
                return tr.finish(st, Outcome::DroppedNoRoute);
            }
        }
        for slot in design.selector.slots_with(side) {
            let Some(template) = design.templates.get(slot).and_then(|t| t.as_ref()) else {
                continue;
            };
            if !included(template) {
                continue;
            }
            tr.work.slots += 1;
            if let Err(e) = eval_template(design, &widths, slot, template, &mut st, oracle, &mut tr)
            {
                return tr.finish(st, Outcome::RuntimeError(e));
            }
            if st.drop {
                return tr.finish(st, Outcome::DroppedByAction);
            }
        }
    }
    let port = st.egress.clone().expect("checked before egress");
    tr.finish(st, Outcome::Forwarded(port))
}

/// Accumulated per-path trace: table hits, work counters, and taken arms.
#[derive(Default)]
struct Trace {
    hits: Vec<TableHitTrace>,
    work: PathWork,
    arms: Vec<(String, usize)>,
}

impl Trace {
    fn finish(self, state: SymState, outcome: Outcome) -> DesignRun {
        DesignRun {
            state,
            outcome,
            hits: self.hits,
            work: self.work,
            arms: self.arms,
        }
    }
}

fn eval_template(
    design: &CompiledDesign,
    widths: &DesignWidths<'_>,
    slot: usize,
    template: &TspTemplate,
    st: &mut SymState,
    oracle: &mut Oracle,
    tr: &mut Trace,
) -> Result<(), String> {
    // Matcher: first branch whose predicate holds.
    let mut chosen: Option<&str> = None;
    for (arm_idx, b) in template.branches.iter().enumerate() {
        if eval_pred(&b.pred, st, oracle)? {
            tr.arms.push((template.stage_name.clone(), arm_idx));
            chosen = b.table.as_deref();
            break;
        }
    }
    let Some(table) = chosen else {
        return Ok(()); // pass-through
    };

    // Crossbar reachability (a configuration bug the device reports loudly).
    if let Some(blocks) = design.table_alloc.get(table) {
        let reachable = design.crossbar.get(&slot);
        for block in blocks {
            if !reachable.is_some_and(|c| c.contains(block)) {
                return Err(format!(
                    "slot {slot} cannot reach block {block} of table `{table}`"
                ));
            }
        }
    }

    let def = design
        .tables
        .get(table)
        .ok_or_else(|| format!("unknown table `{table}`"))?;

    // Key read: a key touching an absent header can never match.
    let mut keys = Some(Vec::with_capacity(def.key.len()));
    for k in &def.key {
        match read_value(&k.source, st, oracle, None, &None)? {
            Some(v) => {
                if let Some(ks) = keys.as_mut() {
                    ks.push((k.kind, k.bits, trunc(k.bits, v)));
                }
            }
            None => {
                keys = None;
                break;
            }
        }
    }

    tr.work.lookups += 1;
    let hit = match keys {
        None => None,
        Some(ks) => oracle.table(table).map(|tag| (tag, ks)),
    };

    let (call, args, counter) = match hit {
        Some((tag, ks)) => {
            tr.hits.push(TableHitTrace {
                table: table.to_string(),
                tag,
                keys: ks,
            });
            let call = template.action_for_tag(tag);
            // The matched entry's args win when it carries any; an entry
            // carries args exactly when its bound action has parameters.
            let entry_params = def
                .actions
                .get((tag as usize).saturating_sub(1))
                .and_then(|a| design.actions.get(a))
                .map(|a| a.params.len())
                .unwrap_or(0);
            let args = if entry_params > 0 {
                ArgsSource::Entry {
                    table: table.to_string(),
                    tag,
                    n: entry_params,
                }
            } else {
                ArgsSource::Immediate(call.args.clone())
            };
            let counter = if def.with_counters {
                Some(Term::EntryCounter {
                    table: table.to_string(),
                    tag,
                })
            } else {
                None
            };
            (call, args, counter)
        }
        None => {
            let call = &template.default_action;
            (call, ArgsSource::Immediate(call.args.clone()), None)
        }
    };

    let action = design
        .actions
        .get(&call.action)
        .ok_or_else(|| format!("unknown action `{}`", call.action))?;
    run_action(widths, action, &args, &counter, st, oracle, &mut tr.work)
}

fn eval_pred(p: &Predicate, st: &mut SymState, oracle: &mut Oracle) -> Result<bool, String> {
    Ok(match p {
        Predicate::True => true,
        Predicate::IsValid(h) => st.is_valid(oracle, h),
        Predicate::Not(x) => !eval_pred(x, st, oracle)?,
        Predicate::And(a, b) => eval_pred(a, st, oracle)? && eval_pred(b, st, oracle)?,
        Predicate::Or(a, b) => eval_pred(a, st, oracle)? || eval_pred(b, st, oracle)?,
        Predicate::Cmp { lhs, op, rhs } => {
            // Both operands are read before the comparison, like the VM.
            let a = read_value(lhs, st, oracle, None, &None)?;
            let b = read_value(rhs, st, oracle, None, &None)?;
            match (a, b) {
                (Some(a), Some(b)) => decide_cmp(oracle, *op, a, b),
                _ => false,
            }
        }
    })
}

/// Reads a `ValueRef`. `None` means "field of an absent header" — a failed
/// comparison in predicate/key context, a runtime error in action context.
fn read_value(
    src: &ValueRef,
    st: &SymState,
    oracle: &mut Oracle,
    args: Option<&ArgsSource>,
    counter: &Option<Term>,
) -> Result<Option<Term>, String> {
    Ok(match src {
        ValueRef::Const(c) => Some(Term::Const(*c)),
        ValueRef::Meta(name) => Some(st.read_meta(name)),
        ValueRef::Field { header, field } => st.read_field(oracle, header, field),
        ValueRef::Param(i) => match args {
            Some(a) => Some(a.param(*i)?),
            None => return Err(format!("parameter {i} read outside action context")),
        },
        ValueRef::EntryCounter => Some(counter.clone().unwrap_or(Term::Const(0))),
    })
}

fn read_operand(
    src: &ValueRef,
    st: &SymState,
    oracle: &mut Oracle,
    args: &ArgsSource,
    counter: &Option<Term>,
) -> Result<Term, String> {
    read_value(src, st, oracle, Some(args), counter)?
        .ok_or_else(|| format!("action reads a field of an absent header ({src:?})"))
}

fn run_action(
    widths: &DesignWidths<'_>,
    action: &ActionDef,
    args: &ArgsSource,
    counter: &Option<Term>,
    st: &mut SymState,
    oracle: &mut Oracle,
    work: &mut PathWork,
) -> Result<(), String> {
    for prim in &action.body {
        work.prims += 1;
        exec_primitive(widths, prim, args, counter, st, oracle)?;
        if st.drop {
            break;
        }
    }
    Ok(())
}

fn write_lval(
    widths: &DesignWidths<'_>,
    dst: &LValueRef,
    value: Term,
    st: &mut SymState,
    oracle: &mut Oracle,
) -> Result<(), String> {
    match dst {
        LValueRef::Meta(name) => {
            st.write_meta(oracle, widths, name, value);
            Ok(())
        }
        LValueRef::Field { header, field } => st.write_field(oracle, widths, header, field, value),
    }
}

fn exec_primitive(
    widths: &DesignWidths<'_>,
    prim: &Primitive,
    args: &ArgsSource,
    counter: &Option<Term>,
    st: &mut SymState,
    oracle: &mut Oracle,
) -> Result<(), String> {
    match prim {
        Primitive::Set { dst, src } => {
            let v = read_operand(src, st, oracle, args, counter)?;
            write_lval(widths, dst, v, st, oracle)
        }
        Primitive::Alu { op, dst, a, b } => {
            let va = read_operand(a, st, oracle, args, counter)?;
            let vb = read_operand(b, st, oracle, args, counter)?;
            write_lval(widths, dst, alu((*op).into(), va, vb), st, oracle)
        }
        Primitive::Hash {
            dst,
            inputs,
            modulo,
        } => {
            let mut ins = Vec::with_capacity(inputs.len());
            for i in inputs {
                ins.push(read_operand(i, st, oracle, args, counter)?);
            }
            write_lval(widths, dst, hash(ins, *modulo), st, oracle)
        }
        Primitive::Forward { port } => {
            let v = read_operand(port, st, oracle, args, counter)?;
            prim_forward(st, v);
            Ok(())
        }
        Primitive::Drop => {
            st.drop = true;
            Ok(())
        }
        Primitive::Mark { value } => {
            let v = read_operand(value, st, oracle, args, counter)?;
            prim_mark(st, v);
            Ok(())
        }
        Primitive::MarkIfCounterOver { threshold } => {
            let t = read_operand(threshold, st, oracle, args, counter)?;
            prim_mark_if_counter_over(st, oracle, counter.clone(), t);
            Ok(())
        }
        Primitive::InsertHeaderAfter {
            after,
            header,
            fields,
            extra_words,
        } => {
            if !st.is_valid(oracle, after) {
                return Err(format!("insert after absent header `{after}`"));
            }
            st.validity.insert(header.clone(), true);
            // Every declared field gets a definite value: given or zero.
            let given: Vec<(&str, Term)> = {
                let mut g = Vec::with_capacity(fields.len());
                for (name, src) in fields {
                    g.push((name.as_str(), read_operand(src, st, oracle, args, counter)?));
                }
                g
            };
            for f in widths.header_fields(header) {
                let v = given
                    .iter()
                    .find(|(n, _)| *n == f)
                    .map(|(_, v)| v.clone())
                    .unwrap_or(Term::Const(0));
                st.write_field(oracle, widths, header, &f, v)?;
            }
            for (i, w) in extra_words.iter().enumerate() {
                let v = read_operand(w, st, oracle, args, counter)?;
                st.fields.insert((header.clone(), format!("__extra{i}")), v);
            }
            Ok(())
        }
        Primitive::RemoveHeader { header } => {
            if !st.is_valid(oracle, header) {
                return Err(format!("remove of absent header `{header}`"));
            }
            prim_remove_header(st, header);
            Ok(())
        }
        Primitive::Srv6Advance => {
            prim_srv6_advance(st, oracle, widths);
            Ok(())
        }
        Primitive::DecTtlV4 => {
            prim_dec_ttl_v4(st, oracle, widths);
            Ok(())
        }
        Primitive::DecHopLimitV6 => {
            prim_dec_hop_limit_v6(st, oracle, widths);
            Ok(())
        }
        Primitive::RefreshIpv4Checksum => prim_refresh_ipv4_checksum(st, oracle, widths),
        Primitive::NoAction => Ok(()),
    }
}
