//! The per-stage summary every AST-level lint queries.
//!
//! One walker over a checked program's declarations records, for every
//! stage, the actions it can reach and what they read and write, and per
//! matcher arm the header fields it uses and the headers its guard proves
//! valid. The program lints (RP4101, RP4102, RP4106) and the dataflow lints
//! (RP4301–RP4303, and RP4306's must-uninitialized reads) are queries over
//! it, so "what does this stage read" has one answer.
//!
//! The read/write sets mirror the compiler's dependency analysis
//! (`rp4c::depgraph`) at the AST level: this crate sits below the compiler,
//! so it recomputes them from declarations rather than from lowered
//! `LogicalStage`s. [`builtin_writes`] matches `depgraph::action_rw`
//! primitive by primitive.

use std::collections::{BTreeMap, BTreeSet};

use rp4_lang::ast::{ActionDecl, CmpOpAst, Expr, PredExpr, Program, StageDecl, Stmt, TableDecl};
use rp4_lang::semantic::Env;

/// A dependency-tracked resource, mirroring `rp4c::depgraph::Res`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Res {
    /// A specific header field.
    Field(String, String),
    /// A header's presence/shape (insert/remove operations).
    Validity(String),
    /// A metadata field.
    Meta(String),
}

impl Res {
    /// Resource of a `scope.field` reference; `None` when the scope is
    /// neither the metadata alias nor a header.
    fn of(scope: &str, field: &str, env: &Env) -> Option<Res> {
        if scope == env.meta_alias {
            Some(Res::Meta(field.to_string()))
        } else if env.headers.contains_key(scope) {
            Some(Res::Field(scope.to_string(), field.to_string()))
        } else {
            None
        }
    }

    /// The header a field or validity resource belongs to.
    pub(crate) fn header(&self) -> Option<&str> {
        match self {
            Res::Field(h, _) | Res::Validity(h) => Some(h),
            Res::Meta(_) => None,
        }
    }

    /// The field a metadata resource names.
    pub(crate) fn meta(&self) -> Option<&str> {
        match self {
            Res::Meta(m) => Some(m),
            _ => None,
        }
    }

    /// True when two resources conflict: equal, or a field/validity pair on
    /// the same header (header surgery invalidates field offsets).
    pub(crate) fn conflicts(&self, other: &Res) -> bool {
        match (self, other) {
            (Res::Validity(h), Res::Field(h2, _)) | (Res::Field(h2, _), Res::Validity(h)) => {
                h == h2
            }
            _ => self == other,
        }
    }
}

impl std::fmt::Display for Res {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Res::Field(h, fld) => write!(f, "`{h}.{fld}`"),
            Res::Validity(h) => write!(f, "validity of header `{h}`"),
            Res::Meta(m) => write!(f, "`meta.{m}`"),
        }
    }
}

/// Collects every `scope.field` an expression reads.
fn expr_reads(e: &Expr, env: &Env, out: &mut BTreeSet<Res>) {
    match e {
        Expr::Qualified(scope, field) => out.extend(Res::of(scope, field, env)),
        Expr::Bin { lhs, rhs, .. } => {
            expr_reads(lhs, env, out);
            expr_reads(rhs, env, out);
        }
        Expr::Hash(inputs) => {
            for i in inputs {
                expr_reads(i, env, out);
            }
        }
        Expr::Int(_) | Expr::Ident(_) => {}
    }
}

/// Resources a guard reads: header validity for `isValid`, plus the field
/// and metadata operands of comparisons.
fn pred_reads(p: &PredExpr, env: &Env, out: &mut BTreeSet<Res>) {
    match p {
        PredExpr::IsValid(h) => {
            out.insert(Res::Validity(h.clone()));
        }
        PredExpr::Not(x) => pred_reads(x, env, out),
        PredExpr::And(a, b) | PredExpr::Or(a, b) => {
            pred_reads(a, env, out);
            pred_reads(b, env, out);
        }
        PredExpr::Cmp { lhs, rhs, .. } => {
            expr_reads(lhs, env, out);
            expr_reads(rhs, env, out);
        }
    }
}

/// Resources a builtin call writes (mirrors `depgraph::action_rw`'s write
/// sets).
pub(crate) fn builtin_writes(name: &str, args: &[Expr]) -> Vec<Res> {
    let field = |h: &str, f: &str| Res::Field(h.into(), f.into());
    let meta = |m: &str| Res::Meta(m.into());
    match name {
        "drop" => vec![meta("drop")],
        "forward" => vec![meta("egress_port")],
        "mark" | "mark_if_count_over" => vec![meta("mark")],
        "dec_ttl_v4" => vec![
            field("ipv4", "ttl"),
            field("ipv4", "hdr_checksum"),
            meta("drop"),
        ],
        "dec_hop_limit_v6" => vec![field("ipv6", "hop_limit"), meta("drop")],
        "refresh_ipv4_checksum" => vec![field("ipv4", "hdr_checksum")],
        "srv6_advance" => vec![field("srh", "segments_left"), field("ipv6", "dst_addr")],
        "remove_header" => match args.first() {
            Some(Expr::Ident(h)) => vec![Res::Validity(h.clone())],
            _ => vec![],
        },
        _ => vec![],
    }
}

/// Flattens a conjunction into its factors.
fn conjuncts(p: &PredExpr) -> Vec<&PredExpr> {
    match p {
        PredExpr::And(a, b) => {
            let mut v = conjuncts(a);
            v.extend(conjuncts(b));
            v
        }
        other => vec![other],
    }
}

/// True when two guards can never both hold: some factor of one is
/// structurally exclusive with some factor of the other — `p` vs `!p`, or
/// equality comparisons of one operand against different constants.
/// Mirrors `ipsa_core::Predicate::mutually_exclusive` at the AST level; a
/// guard is self-contradictory exactly when it is exclusive with itself.
pub(crate) fn guards_exclusive(a: &PredExpr, b: &PredExpr) -> bool {
    let exclusive = |x: &PredExpr, y: &PredExpr| match (x, y) {
        (PredExpr::Not(x), y) | (y, PredExpr::Not(x)) if x.as_ref() == y => true,
        (
            PredExpr::Cmp {
                lhs: l1,
                op: CmpOpAst::Eq,
                rhs: Expr::Int(c1),
            },
            PredExpr::Cmp {
                lhs: l2,
                op: CmpOpAst::Eq,
                rhs: Expr::Int(c2),
            },
        ) => l1 == l2 && c1 != c2,
        _ => false,
    };
    let fb = conjuncts(b);
    conjuncts(a)
        .into_iter()
        .any(|x| fb.iter().any(|y| exclusive(x, y)))
}

/// What one statement of an action body reads and writes.
pub(crate) struct Step {
    /// Assignment operands, or a builtin call's arguments.
    pub reads: BTreeSet<Res>,
    /// The assignment target, or the builtin's effects.
    pub writes: Vec<Res>,
    /// A builtin call. Builtins re-check header validity at runtime, so
    /// their header accesses are not explicit field uses.
    pub call: bool,
}

/// The statements of one action body, in order.
pub(crate) struct ActionFacts(pub Vec<Step>);

impl ActionFacts {
    fn of(a: &ActionDecl, env: &Env) -> Self {
        let steps = a.body.iter().map(|stmt| {
            let mut reads = BTreeSet::new();
            match stmt {
                Stmt::Assign { lval, expr } => {
                    expr_reads(expr, env, &mut reads);
                    let writes = Res::of(&lval.scope, &lval.field, env).into_iter().collect();
                    Step {
                        reads,
                        writes,
                        call: false,
                    }
                }
                Stmt::Call { name, args } => {
                    for e in args {
                        expr_reads(e, env, &mut reads);
                    }
                    Step {
                        reads,
                        writes: builtin_writes(name, args),
                        call: true,
                    }
                }
            }
        });
        ActionFacts(steps.collect())
    }

    /// Everything the body writes, builtin effects included.
    pub(crate) fn writes(&self) -> impl Iterator<Item = &Res> {
        self.0.iter().flat_map(|s| &s.writes)
    }

    /// Header fields the body uses explicitly: assignment targets and
    /// operands.
    pub(crate) fn fields(&self) -> impl Iterator<Item = &Res> {
        self.0
            .iter()
            .filter(|s| !s.call)
            .flat_map(|s| s.reads.iter().chain(&s.writes))
            .filter(|r| matches!(r, Res::Field(..)))
    }
}

/// One matcher arm of a stage.
pub(crate) struct ArmSummary<'p> {
    /// The table it applies, when the name resolves.
    pub table: Option<&'p TableDecl>,
    /// What the guard reads.
    pub guard_reads: BTreeSet<Res>,
    /// What the applied table's key reads.
    pub key_reads: BTreeSet<Res>,
    /// Header fields the arm uses explicitly: guard and key operands and,
    /// when it applies a table, the fields of every action that table can
    /// trigger through the executor (its own, its default, the executor's).
    pub fields: BTreeSet<Res>,
    /// Headers the guard's top-level conjunction proves valid.
    pub proven: BTreeSet<String>,
}

/// One stage of the program.
pub(crate) struct StageSummary<'p> {
    /// The stage as declared.
    pub decl: &'p StageDecl,
    /// Linked into the pipeline: claimed by a `user_funcs` entry, or the
    /// program has no `user_funcs` section.
    pub live: bool,
    /// The actions it can reach, from [`stage_action_names`].
    pub actions: Vec<&'p ActionDecl>,
    /// Its matcher arms, in order.
    pub arms: Vec<ArmSummary<'p>>,
    /// Everything the reachable actions write.
    pub writes: BTreeSet<Res>,
    /// Header fields used explicitly anywhere in the stage, sorted by
    /// header.
    pub fields: BTreeSet<Res>,
    /// Metadata its guards, applied keys and reachable actions read.
    pub meta_reads: BTreeSet<String>,
}

/// The summary of a whole program, built once.
pub(crate) struct Summary<'p> {
    /// Every declared action, by name.
    pub actions: BTreeMap<&'p str, ActionFacts>,
    /// What each declared table's key reads, by table name.
    pub keys: BTreeMap<&'p str, BTreeSet<Res>>,
    /// Every stage: the ingress chain, then the egress chain.
    pub stages: Vec<StageSummary<'p>>,
    ingress_len: usize,
}

/// A table's offered actions and its default action.
pub(crate) fn table_actions(t: &TableDecl) -> impl Iterator<Item = &str> {
    let default = t.default_action.iter().map(|(d, _)| d.as_str());
    t.actions.iter().map(String::as_str).chain(default)
}

/// Names of the actions a stage can reach, in declaration order without
/// repeats: executor arms, then each applied table's actions and its
/// default action (table defaults run too, as in
/// `depgraph::stage_action_writes`).
fn stage_action_names<'p>(stage: &'p StageDecl, prog: &'p Program) -> Vec<&'p str> {
    let tables = stage
        .matcher
        .iter()
        .filter_map(|arm| arm.table.as_deref().and_then(|t| prog.table(t)));
    let executor = stage.executor.iter().map(|(_, a, _)| a.as_str());
    let mut names = Vec::new();
    for n in executor.chain(tables.flat_map(table_actions)) {
        if !names.contains(&n) {
            names.push(n);
        }
    }
    names
}

impl<'p> Summary<'p> {
    /// Walks `prog` once. `env` must come from the `check` that accepted it.
    pub(crate) fn build(prog: &'p Program, env: &Env) -> Self {
        let mut actions = BTreeMap::new();
        for a in &prog.actions {
            actions
                .entry(a.name.as_str())
                .or_insert_with(|| ActionFacts::of(a, env));
        }
        let keys = prog
            .tables
            .iter()
            .map(|t| {
                let mut reads = BTreeSet::new();
                for (k, _) in &t.key {
                    expr_reads(k, env, &mut reads);
                }
                (t.name.as_str(), reads)
            })
            .collect();
        let mut summary = Summary {
            actions,
            keys,
            stages: Vec::new(),
            ingress_len: prog.ingress.len(),
        };
        summary.stages = prog.stages().map(|s| summary.stage(s, prog, env)).collect();
        summary
    }

    /// The ingress and the egress chain, each with its label.
    pub(crate) fn chains(&self) -> [(&[StageSummary<'p>], &'static str); 2] {
        let (ingress, egress) = self.stages.split_at(self.ingress_len);
        [(ingress, "ingress"), (egress, "egress")]
    }

    /// The stages linked into the pipeline, in pipeline order.
    pub(crate) fn live(&self) -> impl Iterator<Item = &StageSummary<'p>> {
        self.stages.iter().filter(|s| s.live)
    }

    /// Facts of the named actions that are declared.
    fn facts<'a>(
        &'a self,
        names: impl IntoIterator<Item = &'a str>,
    ) -> impl Iterator<Item = &'a ActionFacts> {
        names.into_iter().filter_map(|n| self.actions.get(n))
    }

    fn stage(&self, decl: &'p StageDecl, prog: &'p Program, env: &Env) -> StageSummary<'p> {
        let executor: Vec<&str> = decl.executor.iter().map(|(_, a, _)| a.as_str()).collect();
        let arms: Vec<ArmSummary> = decl
            .matcher
            .iter()
            .map(|arm| {
                let table = arm.table.as_deref().and_then(|t| prog.table(t));
                let mut guard_reads = BTreeSet::new();
                if let Some(g) = &arm.guard {
                    pred_reads(g, env, &mut guard_reads);
                }
                let key_reads = table
                    .and_then(|t| self.keys.get(t.name.as_str()))
                    .cloned()
                    .unwrap_or_default();
                let mut fields: BTreeSet<Res> = guard_reads
                    .iter()
                    .chain(&key_reads)
                    .filter(|r| matches!(r, Res::Field(..)))
                    .cloned()
                    .collect();
                if let Some(t) = table {
                    let triggered = table_actions(t).chain(executor.iter().copied());
                    fields.extend(self.facts(triggered).flat_map(ActionFacts::fields).cloned());
                }
                let proven = arm
                    .guard
                    .iter()
                    .flat_map(conjuncts)
                    .filter_map(|f| match f {
                        PredExpr::IsValid(h) => Some(h.clone()),
                        _ => None,
                    })
                    .collect();
                ArmSummary {
                    table,
                    guard_reads,
                    key_reads,
                    fields,
                    proven,
                }
            })
            .collect();
        let names = stage_action_names(decl, prog);
        let facts: Vec<&ActionFacts> = self.facts(names.iter().copied()).collect();
        let writes = facts.iter().flat_map(|f| f.writes()).cloned().collect();
        let fields = arms
            .iter()
            .flat_map(|a| &a.fields)
            .chain(facts.iter().flat_map(|f| f.fields()))
            .cloned()
            .collect();
        let meta_reads = arms
            .iter()
            .flat_map(|a| a.guard_reads.iter().chain(&a.key_reads))
            .chain(facts.iter().flat_map(|f| f.0.iter().flat_map(|s| &s.reads)))
            .filter_map(Res::meta)
            .map(str::to_string)
            .collect();
        StageSummary {
            decl,
            live: prog.user_funcs.is_none() || !prog.func_of_stage(&decl.name).is_empty(),
            actions: names.into_iter().filter_map(|n| prog.action(n)).collect(),
            arms,
            writes,
            fields,
            meta_reads,
        }
    }
}
