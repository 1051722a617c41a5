//! Symbolic evaluator over the checked rP4 AST: the "what the program
//! means" side of the equivalence check.
//!
//! This is an independent interpretation of the source — it never calls
//! into the compiler's lowering. Stages run in declaration order (ingress,
//! then the Traffic Manager's no-route drop, then egress); each stage's
//! matcher takes the first arm whose guard holds; table outcomes come from
//! the shared oracle; the executor dispatches on the hit tag with the
//! entry-args-win rule; and builtins map to the shared primitive
//! semantics. Expressions evaluate over full 128-bit intermediates with a
//! single truncation at the destination width — exactly what the
//! compiler's scratch-metadata spilling computes, so a correct compilation
//! yields structurally identical terms (see `crate::term`).

use rp4_lang::ast::{
    ActionDecl, BinOp, CmpOpAst, ExecTag, Expr, PredExpr, Program, StageDecl, Stmt,
};
use rp4_lang::semantic::Env;

use crate::eval_design::TableHitTrace;
use crate::oracle::Oracle;
use crate::state::{
    decide_cmp, prim_dec_hop_limit_v6, prim_dec_ttl_v4, prim_forward, prim_mark,
    prim_mark_if_counter_over, prim_refresh_ipv4_checksum, prim_remove_header, prim_srv6_advance,
    Outcome, SymState, Widths,
};
use crate::term::{alu, hash, trunc, Term};
use ipsa_core::predicate::CmpOp;
use ipsa_core::table::MatchKind;

/// Width/layout answers from the checked semantic environment.
pub(crate) struct AstWidths<'a>(pub &'a Env);

impl Widths for AstWidths<'_> {
    fn field_width(&self, header: &str, field: &str) -> usize {
        self.0
            .headers
            .get(header)
            .and_then(|fs| fs.iter().find(|(n, _)| n == field))
            .map(|(_, b)| *b)
            .unwrap_or(128)
    }

    fn meta_width(&self, name: &str) -> usize {
        self.0.meta_fields.get(name).copied().unwrap_or(128)
    }

    fn header_fields(&self, header: &str) -> Vec<String> {
        self.0
            .headers
            .get(header)
            .map(|fs| fs.iter().map(|(n, _)| n.clone()).collect())
            .unwrap_or_default()
    }
}

/// Result of one symbolic run of a program.
#[derive(Debug)]
pub(crate) struct AstRun {
    /// Final packet state.
    pub state: SymState,
    /// What happened to the packet.
    pub outcome: Outcome,
}

/// Parameter bindings of the executing action.
enum Args<'a> {
    Entry { table: &'a str, tag: u32, n: usize },
    Immediate(&'a [u128]),
}

impl Args<'_> {
    fn get(&self, decl: &ActionDecl, name: &str) -> Result<Term, String> {
        let i = decl
            .params
            .iter()
            .position(|(p, _)| p == name)
            .ok_or_else(|| format!("`{name}` is not a parameter of `{}`", decl.name))?;
        match self {
            Args::Entry { table, tag, n } => {
                if i < *n {
                    Ok(Term::EntryData {
                        table: table.to_string(),
                        tag: *tag,
                        index: i,
                    })
                } else {
                    Err(format!("action data index {i} out of range ({n} words)"))
                }
            }
            Args::Immediate(args) => args.get(i).map(|v| Term::Const(*v)).ok_or_else(|| {
                format!("action data index {i} out of range ({} words)", args.len())
            }),
        }
    }
}

/// Runs one symbolic packet through `prog` under the decisions of
/// `oracle`. The program must have passed `rp4_lang::semantic::check` (the
/// `env`) — in particular RP4101 (use-before-parse) cleanliness is what
/// makes "header validity = wire presence" a faithful model of the
/// device's parse-on-demand behavior.
pub(crate) fn eval_ast(prog: &Program, env: &Env, oracle: &mut Oracle) -> AstRun {
    let widths = AstWidths(env);
    let mut st = SymState::default();
    let mut hits = Vec::new();

    for stage in &prog.ingress {
        if let Err(e) = eval_stage(prog, env, &widths, stage, &mut st, oracle, &mut hits) {
            return AstRun {
                state: st,
                outcome: Outcome::RuntimeError(e),
            };
        }
        if st.drop {
            return AstRun {
                state: st,
                outcome: Outcome::DroppedByAction,
            };
        }
    }
    if st.egress.is_none() {
        return AstRun {
            state: st,
            outcome: Outcome::DroppedNoRoute,
        };
    }
    for stage in &prog.egress {
        if let Err(e) = eval_stage(prog, env, &widths, stage, &mut st, oracle, &mut hits) {
            return AstRun {
                state: st,
                outcome: Outcome::RuntimeError(e),
            };
        }
        if st.drop {
            return AstRun {
                state: st,
                outcome: Outcome::DroppedByAction,
            };
        }
    }
    let port = st.egress.clone().expect("checked before egress");
    AstRun {
        state: st,
        outcome: Outcome::Forwarded(port),
    }
}

fn eval_stage(
    prog: &Program,
    env: &Env,
    widths: &AstWidths<'_>,
    stage: &StageDecl,
    st: &mut SymState,
    oracle: &mut Oracle,
    hits: &mut Vec<TableHitTrace>,
) -> Result<(), String> {
    // Matcher: first arm whose guard holds (no guard = unconditional).
    let mut chosen: Option<&str> = None;
    for arm in &stage.matcher {
        let holds = match &arm.guard {
            Some(g) => eval_guard(env, g, st, oracle)?,
            None => true,
        };
        if holds {
            chosen = arm.table.as_deref();
            break;
        }
    }
    let Some(table) = chosen else {
        return Ok(()); // pass-through
    };
    let decl = env
        .tables
        .get(table)
        .ok_or_else(|| format!("unknown table `{table}`"))?;

    // Key read: a key touching an absent header can never match.
    let mut keys = Some(Vec::with_capacity(decl.key.len()));
    for (e, kind) in &decl.key {
        match read_key_operand(env, e, st, oracle)? {
            Some(v) => {
                let bits = key_width(env, e);
                if let Some(ks) = keys.as_mut() {
                    ks.push((lower_kind(kind), bits, trunc(bits, v)));
                }
            }
            None => {
                keys = None;
                break;
            }
        }
    }

    let hit = match keys {
        None => None,
        Some(ks) => oracle.table(table).map(|tag| (tag, ks)),
    };

    match hit {
        Some((tag, ks)) => {
            hits.push(TableHitTrace {
                table: table.to_string(),
                tag,
                keys: ks,
            });
            // Executor dispatch: the arm for this tag, else the default arm.
            let (action, imm_args) = executor_arm(stage, Some(tag));
            // The matched entry's args win when it carries any; an entry
            // carries args exactly when its bound action has parameters.
            let entry_params = decl
                .actions
                .get((tag as usize).saturating_sub(1))
                .and_then(|a| env.actions.get(a))
                .map(|ps| ps.len())
                .unwrap_or(0);
            let args = if entry_params > 0 {
                Args::Entry {
                    table,
                    tag,
                    n: entry_params,
                }
            } else {
                Args::Immediate(imm_args)
            };
            let counter = decl.counters.then(|| Term::EntryCounter {
                table: table.to_string(),
                tag,
            });
            run_action(prog, env, widths, action, &args, &counter, st, oracle)
        }
        None => {
            // Miss: the table's declared default action (NoAction absent).
            match &decl.default_action {
                Some((a, args)) => run_action(
                    prog,
                    env,
                    widths,
                    a,
                    &Args::Immediate(args),
                    &None,
                    st,
                    oracle,
                ),
                None => Ok(()),
            }
        }
    }
}

/// The executor arm for a hit tag: explicit `tag:` arm first, then the
/// `default:` arm, then `NoAction` — mirroring `action_for_tag` over the
/// lowered template.
fn executor_arm(stage: &StageDecl, tag: Option<u32>) -> (&str, &[u128]) {
    if let Some(t) = tag {
        if let Some((_, a, args)) = stage
            .executor
            .iter()
            .find(|(et, _, _)| matches!(et, ExecTag::Tag(n) if *n == t))
        {
            return (a, args);
        }
    }
    stage
        .executor
        .iter()
        .find(|(et, _, _)| matches!(et, ExecTag::Default))
        .map(|(_, a, args)| (a.as_str(), args.as_slice()))
        .unwrap_or(("NoAction", &[]))
}

fn lower_kind(k: &rp4_lang::ast::KeyKind) -> MatchKind {
    match k {
        rp4_lang::ast::KeyKind::Exact => MatchKind::Exact,
        rp4_lang::ast::KeyKind::Lpm => MatchKind::Lpm,
        rp4_lang::ast::KeyKind::Ternary => MatchKind::Ternary,
        rp4_lang::ast::KeyKind::Hash => MatchKind::Hash,
    }
}

fn key_width(env: &Env, e: &Expr) -> usize {
    match e {
        Expr::Qualified(scope, field) => env.width_of(scope, field).unwrap_or(128),
        _ => 128,
    }
}

/// Reads an operand-shaped expression in guard/key context: `None` means
/// "field of an absent header" (failed comparison / forced miss).
fn read_key_operand(
    env: &Env,
    e: &Expr,
    st: &SymState,
    oracle: &mut Oracle,
) -> Result<Option<Term>, String> {
    match e {
        Expr::Int(v) => Ok(Some(Term::Const(*v))),
        Expr::Qualified(scope, field) => {
            if scope == &env.meta_alias {
                Ok(Some(st.read_meta(field)))
            } else {
                Ok(st.read_field(oracle, scope, field))
            }
        }
        other => Err(format!(
            "operand too complex in guard/key context: {other:?}"
        )),
    }
}

fn eval_guard(
    env: &Env,
    g: &PredExpr,
    st: &mut SymState,
    oracle: &mut Oracle,
) -> Result<bool, String> {
    Ok(match g {
        PredExpr::IsValid(h) => st.is_valid(oracle, h),
        PredExpr::Not(x) => !eval_guard(env, x, st, oracle)?,
        PredExpr::And(a, b) => eval_guard(env, a, st, oracle)? && eval_guard(env, b, st, oracle)?,
        PredExpr::Or(a, b) => eval_guard(env, a, st, oracle)? || eval_guard(env, b, st, oracle)?,
        PredExpr::Cmp { lhs, op, rhs } => {
            // Both operands are read before the comparison, like the VM.
            let a = read_key_operand(env, lhs, &*st, oracle)?;
            let b = read_key_operand(env, rhs, &*st, oracle)?;
            match (a, b) {
                (Some(a), Some(b)) => decide_cmp(oracle, lower_cmp(op), a, b),
                _ => false,
            }
        }
    })
}

fn lower_cmp(op: &CmpOpAst) -> CmpOp {
    match op {
        CmpOpAst::Eq => CmpOp::Eq,
        CmpOpAst::Ne => CmpOp::Ne,
        CmpOpAst::Lt => CmpOp::Lt,
        CmpOpAst::Le => CmpOp::Le,
        CmpOpAst::Gt => CmpOp::Gt,
        CmpOpAst::Ge => CmpOp::Ge,
    }
}

#[allow(clippy::too_many_arguments)]
fn run_action(
    prog: &Program,
    env: &Env,
    widths: &AstWidths<'_>,
    name: &str,
    args: &Args<'_>,
    counter: &Option<Term>,
    st: &mut SymState,
    oracle: &mut Oracle,
) -> Result<(), String> {
    if name == "NoAction" {
        return Ok(());
    }
    let decl = prog
        .actions
        .iter()
        .find(|a| a.name == name)
        .ok_or_else(|| format!("unknown action `{name}`"))?;
    for stmt in &decl.body {
        exec_stmt(env, widths, decl, stmt, args, counter, st, oracle)?;
        if st.drop {
            break;
        }
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn exec_stmt(
    env: &Env,
    widths: &AstWidths<'_>,
    decl: &ActionDecl,
    stmt: &Stmt,
    args: &Args<'_>,
    counter: &Option<Term>,
    st: &mut SymState,
    oracle: &mut Oracle,
) -> Result<(), String> {
    match stmt {
        Stmt::Assign { lval, expr } => {
            let v = eval_expr(env, decl, expr, args, st, oracle)?;
            if lval.scope == env.meta_alias {
                st.write_meta(oracle, widths, &lval.field, v);
                Ok(())
            } else {
                st.write_field(oracle, widths, &lval.scope, &lval.field, v)
            }
        }
        Stmt::Call {
            name,
            args: call_args,
        } => {
            let operand = |i: usize, st: &SymState, oracle: &mut Oracle| -> Result<Term, String> {
                eval_expr(env, decl, &call_args[i], args, st, oracle)
            };
            match name.as_str() {
                "drop" => {
                    st.drop = true;
                    Ok(())
                }
                "forward" => {
                    let v = operand(0, st, oracle)?;
                    prim_forward(st, v);
                    Ok(())
                }
                "mark" => {
                    let v = operand(0, st, oracle)?;
                    prim_mark(st, v);
                    Ok(())
                }
                "mark_if_count_over" => {
                    let t = operand(0, st, oracle)?;
                    prim_mark_if_counter_over(st, oracle, counter.clone(), t);
                    Ok(())
                }
                "dec_ttl_v4" => {
                    prim_dec_ttl_v4(st, oracle, widths);
                    Ok(())
                }
                "dec_hop_limit_v6" => {
                    prim_dec_hop_limit_v6(st, oracle, widths);
                    Ok(())
                }
                "refresh_ipv4_checksum" => prim_refresh_ipv4_checksum(st, oracle, widths),
                "srv6_advance" => {
                    prim_srv6_advance(st, oracle, widths);
                    Ok(())
                }
                "count" => Ok(()), // the per-entry counter increments at lookup
                "remove_header" => match call_args.first() {
                    Some(Expr::Ident(h)) => {
                        if !st.is_valid(oracle, h) {
                            return Err(format!("remove of absent header `{h}`"));
                        }
                        prim_remove_header(st, h);
                        Ok(())
                    }
                    other => Err(format!("remove_header needs a header name, got {other:?}")),
                },
                other => Err(format!("unknown builtin `{other}`")),
            }
        }
    }
}

/// Evaluates an expression in action context (absent-header reads are
/// runtime errors, as in the VM). Intermediates are full 128-bit;
/// `hash(..) % N` fuses into a reduced hash term at any nesting level.
fn eval_expr(
    env: &Env,
    decl: &ActionDecl,
    e: &Expr,
    args: &Args<'_>,
    st: &SymState,
    oracle: &mut Oracle,
) -> Result<Term, String> {
    match e {
        Expr::Int(v) => Ok(Term::Const(*v)),
        Expr::Qualified(scope, field) => {
            if scope == &env.meta_alias {
                Ok(st.read_meta(field))
            } else {
                st.read_field(oracle, scope, field)
                    .ok_or_else(|| format!("action reads `{scope}.{field}` of an absent header"))
            }
        }
        Expr::Ident(name) => args.get(decl, name),
        Expr::Hash(inputs) => {
            let mut ins = Vec::with_capacity(inputs.len());
            for i in inputs {
                ins.push(eval_expr(env, decl, i, args, st, oracle)?);
            }
            Ok(hash(ins, 0))
        }
        Expr::Bin { op, lhs, rhs } => {
            if *op == BinOp::Mod {
                // `hash(...) % N` fuses into the hash primitive.
                if let (Expr::Hash(inputs), Expr::Int(m)) = (&**lhs, &**rhs) {
                    let mut ins = Vec::with_capacity(inputs.len());
                    for i in inputs {
                        ins.push(eval_expr(env, decl, i, args, st, oracle)?);
                    }
                    return Ok(hash(ins, *m as u64));
                }
                return Err("general `%` unsupported outside hash reduction".to_string());
            }
            let a = eval_expr(env, decl, lhs, args, st, oracle)?;
            let b = eval_expr(env, decl, rhs, args, st, oracle)?;
            let sop = match op {
                BinOp::Add => crate::term::SymAluOp::Add,
                BinOp::Sub => crate::term::SymAluOp::Sub,
                BinOp::And => crate::term::SymAluOp::And,
                BinOp::Or => crate::term::SymAluOp::Or,
                BinOp::Xor => crate::term::SymAluOp::Xor,
                BinOp::Shl => crate::term::SymAluOp::Shl,
                BinOp::Shr => crate::term::SymAluOp::Shr,
                BinOp::Mod => unreachable!("handled above"),
            };
            Ok(alu(sop, a, b))
        }
    }
}
