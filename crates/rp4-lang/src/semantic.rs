//! Semantic analysis for rP4 programs.
//!
//! Validates a compilation unit — possibly an incremental snippet — against
//! an optional *base environment* (the already-loaded design), resolving
//! every name reference. rp4bc runs this before lowering; the controller
//! runs it again on snippets at load time so a bad patch is rejected before
//! the pipeline is touched.

use std::collections::{HashMap, HashSet};

use crate::ast::*;
use crate::diag::Diagnostic;
use crate::span::{ItemKind, Span};

/// Stable codes for semantic diagnostics (`RP40xx` block).
pub mod codes {
    /// Duplicate definition (header, field, action, table, stage, func,
    /// parser tag, executor tag).
    pub const DUPLICATE: &str = "RP4001";
    /// Unresolved name reference.
    pub const UNRESOLVED: &str = "RP4002";
    /// Builtin or action called with the wrong shape.
    pub const BAD_CALL: &str = "RP4003";
    /// Malformed declaration (bad width, zero size, empty or non-field key).
    pub const BAD_DECL: &str = "RP4004";
    /// Hash (selector) keys mixed with other match kinds.
    pub const KEY_MIX: &str = "RP4005";
    /// Executor tag out of range or reserved.
    pub const EXEC_TAG: &str = "RP4006";
    /// Stage claimed by multiple funcs.
    pub const FUNC_CLAIM: &str = "RP4007";
}

/// A semantic diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SemanticError {
    /// Stable `RP40xx` code identifying the error class.
    pub code: &'static str,
    /// Explanation, prefixed with the offending item.
    pub msg: String,
    /// Name span of the enclosing item, when the program came from source.
    pub span: Option<Span>,
}

impl SemanticError {
    /// Converts to the shared diagnostic form for rendering.
    pub fn to_diagnostic(&self) -> Diagnostic {
        Diagnostic::error(self.code, self.msg.clone()).with_span(self.span)
    }
}

impl std::fmt::Display for SemanticError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_diagnostic().header())
    }
}

impl std::error::Error for SemanticError {}

/// Known builtins and their arities.
pub const BUILTINS: &[(&str, usize)] = &[
    ("drop", 0),
    ("forward", 1),
    ("mark", 1),
    ("mark_if_count_over", 1),
    ("dec_ttl_v4", 0),
    ("dec_hop_limit_v6", 0),
    ("refresh_ipv4_checksum", 0),
    ("srv6_advance", 0),
    ("remove_header", 1),
    ("count", 0),
];

/// The resolved symbol environment of a program (plus its base design).
#[derive(Debug, Clone, Default)]
pub struct Env {
    /// Header name → fields `(name, bits)`.
    pub headers: HashMap<String, Vec<(String, usize)>>,
    /// Metadata field name → bits (union of all aliased structs).
    pub meta_fields: HashMap<String, usize>,
    /// Metadata alias (defaults to `meta`).
    pub meta_alias: String,
    /// Action name → parameter list.
    pub actions: HashMap<String, Vec<(String, usize)>>,
    /// Table name → declaration.
    pub tables: HashMap<String, TableDecl>,
    /// Stage names.
    pub stages: HashSet<String>,
}

/// Intrinsic metadata fields every design can reference.
pub const INTRINSIC_META: &[(&str, usize)] = &[
    ("ingress_port", 16),
    ("egress_port", 16),
    ("drop", 1),
    ("mark", 32),
];

impl Env {
    /// Builds the environment from a base design (if any) and the unit
    /// under analysis; the unit's declarations shadow the base's.
    pub fn build(base: Option<&Program>, prog: &Program) -> Env {
        let mut env = Env {
            meta_alias: "meta".to_string(),
            ..Env::default()
        };
        for (n, b) in INTRINSIC_META {
            env.meta_fields.insert(n.to_string(), *b);
        }
        env.actions.insert("NoAction".into(), vec![]);
        for p in [base, Some(prog)].into_iter().flatten() {
            for h in &p.headers {
                env.headers.insert(h.name.clone(), h.fields.clone());
            }
            for s in &p.structs {
                if let Some(alias) = &s.alias {
                    env.meta_alias = alias.clone();
                    for (n, b) in &s.fields {
                        env.meta_fields.insert(n.clone(), *b);
                    }
                }
            }
            for a in &p.actions {
                env.actions.insert(a.name.clone(), a.params.clone());
            }
            for t in &p.tables {
                env.tables.insert(t.name.clone(), t.clone());
            }
            for st in p.stages() {
                env.stages.insert(st.name.clone());
            }
        }
        env
    }

    /// Width of a `scope.field` reference, if it resolves.
    pub fn width_of(&self, scope: &str, field: &str) -> Option<usize> {
        if scope == self.meta_alias {
            return self.meta_fields.get(field).copied();
        }
        self.headers
            .get(scope)?
            .iter()
            .find(|(n, _)| n == field)
            .map(|(_, b)| *b)
    }
}

struct Checker<'a> {
    env: Env,
    errors: Vec<SemanticError>,
    prog: &'a Program,
    /// Name span of the item currently being checked.
    cur: Option<Span>,
}

impl<'a> Checker<'a> {
    fn err(&mut self, code: &'static str, msg: String) {
        self.errors.push(SemanticError {
            code,
            msg,
            span: self.cur,
        });
    }

    fn check_expr(&mut self, ctx: &str, params: &[(String, usize)], e: &Expr) {
        match e {
            Expr::Int(_) => {}
            Expr::Ident(name) => {
                if !params.iter().any(|(p, _)| p == name) {
                    self.err(
                        codes::UNRESOLVED,
                        format!("{ctx}: unknown identifier `{name}` (not a parameter)"),
                    );
                }
            }
            Expr::Qualified(scope, field) => {
                if self.env.width_of(scope, field).is_none() {
                    self.err(
                        codes::UNRESOLVED,
                        format!("{ctx}: unresolved reference `{scope}.{field}`"),
                    );
                }
            }
            Expr::Bin { lhs, rhs, .. } => {
                self.check_expr(ctx, params, lhs);
                self.check_expr(ctx, params, rhs);
            }
            Expr::Hash(inputs) => {
                if inputs.is_empty() {
                    self.err(
                        codes::BAD_CALL,
                        format!("{ctx}: hash() needs at least one input"),
                    );
                }
                for i in inputs {
                    self.check_expr(ctx, params, i);
                }
            }
        }
    }

    fn check_pred(&mut self, ctx: &str, p: &PredExpr) {
        match p {
            PredExpr::IsValid(h) => {
                if !self.env.headers.contains_key(h) {
                    self.err(
                        codes::UNRESOLVED,
                        format!("{ctx}: isValid on unknown header `{h}`"),
                    );
                }
            }
            PredExpr::Not(x) => self.check_pred(ctx, x),
            PredExpr::And(a, b) | PredExpr::Or(a, b) => {
                self.check_pred(ctx, a);
                self.check_pred(ctx, b);
            }
            PredExpr::Cmp { lhs, rhs, .. } => {
                self.check_expr(ctx, &[], lhs);
                self.check_expr(ctx, &[], rhs);
            }
        }
    }

    fn headers_decls(&mut self) {
        let mut seen = HashSet::new();
        for h in &self.prog.headers {
            self.cur = self.prog.spans.get(ItemKind::Header, &h.name);
            if !seen.insert(&h.name) {
                self.err(codes::DUPLICATE, format!("duplicate header `{}`", h.name));
            }
            let mut fseen = HashSet::new();
            for (f, bits) in &h.fields {
                if !fseen.insert(f) {
                    self.err(
                        codes::DUPLICATE,
                        format!("header `{}`: duplicate field `{f}`", h.name),
                    );
                }
                if *bits == 0 || *bits > 128 {
                    self.err(
                        codes::BAD_DECL,
                        format!("header `{}`: field `{f}` has bad width {bits}", h.name),
                    );
                }
            }
            if let Some(p) = &h.parser {
                for s in &p.selector {
                    if !h.fields.iter().any(|(n, _)| n == s) {
                        self.err(
                            codes::UNRESOLVED,
                            format!("header `{}`: parser selector `{s}` is not a field", h.name),
                        );
                    }
                }
                let mut tags = HashSet::new();
                for (tag, _next) in &p.transitions {
                    if !tags.insert(tag) {
                        self.err(
                            codes::DUPLICATE,
                            format!("header `{}`: duplicate parser tag {tag}", h.name),
                        );
                    }
                    // Next-header names may be forward references resolved
                    // at link time; only check local duplicates here.
                }
            }
            if let Some((f, units)) = &h.var_len {
                if !h.fields.iter().any(|(n, _)| n == f) {
                    self.err(
                        codes::UNRESOLVED,
                        format!("header `{}`: varlen field `{f}` is not a field", h.name),
                    );
                }
                if *units == 0 {
                    self.err(
                        codes::BAD_DECL,
                        format!("header `{}`: varlen unit must be nonzero", h.name),
                    );
                }
            }
        }
        self.cur = None;
    }

    fn action_decls(&mut self) {
        let mut seen = HashSet::new();
        for a in &self.prog.actions {
            self.cur = self.prog.spans.get(ItemKind::Action, &a.name);
            if !seen.insert(&a.name) {
                self.err(codes::DUPLICATE, format!("duplicate action `{}`", a.name));
            }
            for stmt in &a.body {
                match stmt {
                    Stmt::Assign { lval, expr } => {
                        let ctx = format!("action `{}`", a.name);
                        if self.env.width_of(&lval.scope, &lval.field).is_none() {
                            self.err(
                                codes::UNRESOLVED,
                                format!(
                                    "{ctx}: assignment to unresolved `{}.{}`",
                                    lval.scope, lval.field
                                ),
                            );
                        }
                        self.check_expr(&ctx, &a.params, expr);
                    }
                    Stmt::Call { name, args } => {
                        let ctx = format!("action `{}`", a.name);
                        match BUILTINS.iter().find(|(b, _)| b == name) {
                            None => {
                                self.err(
                                    codes::BAD_CALL,
                                    format!("{ctx}: unknown builtin `{name}`"),
                                );
                            }
                            Some((_, arity)) => {
                                if args.len() != *arity {
                                    self.err(
                                        codes::BAD_CALL,
                                        format!(
                                            "{ctx}: `{name}` takes {arity} args, got {}",
                                            args.len()
                                        ),
                                    );
                                }
                            }
                        }
                        if name == "remove_header" {
                            if let Some(Expr::Ident(h)) = args.first() {
                                if !self.env.headers.contains_key(h) {
                                    self.err(
                                        codes::UNRESOLVED,
                                        format!(
                                            "action `{}`: remove_header of unknown header `{h}`",
                                            a.name
                                        ),
                                    );
                                }
                            }
                        } else {
                            for arg in args {
                                self.check_expr(&format!("action `{}`", a.name), &a.params, arg);
                            }
                        }
                    }
                }
            }
        }
        self.cur = None;
    }

    fn table_decls(&mut self) {
        let mut seen = HashSet::new();
        for t in &self.prog.tables {
            self.cur = self.prog.spans.get(ItemKind::Table, &t.name);
            if !seen.insert(&t.name) {
                self.err(codes::DUPLICATE, format!("duplicate table `{}`", t.name));
            }
            if t.key.is_empty() {
                self.err(
                    codes::BAD_DECL,
                    format!("table `{}` has an empty key", t.name),
                );
            }
            for (e, _) in &t.key {
                match e {
                    Expr::Qualified(_, _) => {
                        self.check_expr(&format!("table `{}` key", t.name), &[], e);
                    }
                    other => self.err(
                        codes::BAD_DECL,
                        format!(
                            "table `{}` key must be field references, got {other:?}",
                            t.name
                        ),
                    ),
                }
            }
            let kinds: HashSet<_> = t.key.iter().map(|(_, k)| *k).collect();
            if kinds.contains(&KeyKind::Hash) && kinds.len() > 1 {
                self.err(
                    codes::KEY_MIX,
                    format!(
                        "table `{}`: hash (selector) keys cannot mix with other kinds",
                        t.name
                    ),
                );
            }
            if let Some(s) = t.size {
                if s == 0 {
                    self.err(codes::BAD_DECL, format!("table `{}` has zero size", t.name));
                }
            }
            for a in &t.actions {
                if !self.env.actions.contains_key(a) {
                    self.err(
                        codes::UNRESOLVED,
                        format!("table `{}`: unknown action `{a}`", t.name),
                    );
                }
            }
            if let Some((a, args)) = &t.default_action {
                match self.env.actions.get(a) {
                    None => self.err(
                        codes::UNRESOLVED,
                        format!("table `{}`: unknown default action `{a}`", t.name),
                    ),
                    Some(params) => {
                        if args.len() != params.len() {
                            self.err(
                                codes::BAD_CALL,
                                format!(
                                    "table `{}`: default `{a}` takes {} args, got {}",
                                    t.name,
                                    params.len(),
                                    args.len()
                                ),
                            );
                        }
                    }
                }
            }
        }
        self.cur = None;
    }

    fn stage_decls(&mut self) {
        let mut seen = HashSet::new();
        for st in self.prog.stages() {
            self.cur = self.prog.spans.get(ItemKind::Stage, &st.name);
            if !seen.insert(&st.name) {
                self.err(codes::DUPLICATE, format!("duplicate stage `{}`", st.name));
            }
            for h in &st.parser {
                if !self.env.headers.contains_key(h) {
                    self.err(
                        codes::UNRESOLVED,
                        format!("stage `{}`: parses unknown header `{h}`", st.name),
                    );
                }
            }
            let mut max_actions = 0;
            for arm in &st.matcher {
                if let Some(g) = &arm.guard {
                    self.check_pred(&format!("stage `{}` matcher", st.name), g);
                }
                if let Some(t) = &arm.table {
                    match self.env.tables.get(t) {
                        None => self.err(
                            codes::UNRESOLVED,
                            format!("stage `{}`: applies unknown table `{t}`", st.name),
                        ),
                        Some(def) => max_actions = max_actions.max(def.actions.len()),
                    }
                }
            }
            for (tag, action, args) in &st.executor {
                if let ExecTag::Tag(n) = tag {
                    if *n == 0 {
                        self.err(
                            codes::EXEC_TAG,
                            format!(
                                "stage `{}`: executor tag 0 is reserved for `default`",
                                st.name
                            ),
                        );
                    } else if max_actions > 0 && *n as usize > max_actions {
                        self.err(
                            codes::EXEC_TAG,
                            format!(
                                "stage `{}`: executor tag {n} exceeds the {} actions of its tables",
                                st.name, max_actions
                            ),
                        );
                    }
                }
                match self.env.actions.get(action) {
                    None => self.err(
                        codes::UNRESOLVED,
                        format!(
                            "stage `{}`: executor references unknown action `{action}`",
                            st.name
                        ),
                    ),
                    Some(params) => {
                        if !args.is_empty() && args.len() != params.len() {
                            self.err(
                                codes::BAD_CALL,
                                format!(
                                    "stage `{}`: executor `{action}` takes {} immediate args, got {}",
                                    st.name,
                                    params.len(),
                                    args.len()
                                ),
                            );
                        }
                    }
                }
            }
            // Duplicate executor tags.
            let mut tags = HashSet::new();
            for (tag, _, _) in &st.executor {
                if !tags.insert(format!("{tag:?}")) {
                    self.err(
                        codes::DUPLICATE,
                        format!("stage `{}`: duplicate executor tag {tag:?}", st.name),
                    );
                }
            }
        }
        self.cur = None;
    }

    fn user_funcs(&mut self) {
        let Some(uf) = &self.prog.user_funcs else {
            return;
        };
        let mut fseen = HashSet::new();
        let mut claimed = HashSet::new();
        for (f, stages) in &uf.funcs {
            self.cur = self.prog.spans.get(ItemKind::Func, f);
            if !fseen.insert(f) {
                self.err(codes::DUPLICATE, format!("duplicate func `{f}`"));
            }
            for s in stages {
                if !self.env.stages.contains(s) {
                    self.err(
                        codes::UNRESOLVED,
                        format!("func `{f}`: unknown stage `{s}`"),
                    );
                }
                if !claimed.insert(s) {
                    self.err(
                        codes::FUNC_CLAIM,
                        format!("stage `{s}` claimed by multiple funcs"),
                    );
                }
            }
        }
        self.cur = None;
        for (what, entry) in [
            ("ingress_entry", &uf.ingress_entry),
            ("egress_entry", &uf.egress_entry),
        ] {
            if let Some(e) = entry {
                if !self.env.stages.contains(e) {
                    self.err(codes::UNRESOLVED, format!("{what}: unknown stage `{e}`"));
                }
            }
        }
    }
}

/// Checks a program (optionally against a base design). Returns the
/// environment on success, all diagnostics on failure.
pub fn check(prog: &Program, base: Option<&Program>) -> Result<Env, Vec<SemanticError>> {
    let env = Env::build(base, prog);
    let mut ck = Checker {
        env,
        errors: vec![],
        prog,
        cur: None,
    };
    ck.headers_decls();
    ck.action_decls();
    ck.table_decls();
    ck.stage_decls();
    ck.user_funcs();
    if ck.errors.is_empty() {
        Ok(ck.env)
    } else {
        Err(ck.errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn base() -> Program {
        parse(
            r#"
            headers {
                header ethernet {
                    bit<48> dst_addr; bit<48> src_addr; bit<16> ethertype;
                    implicit parser(ethertype) { 0x0800: ipv4; 0x86DD: ipv6; }
                }
                header ipv4 {
                    bit<4> version; bit<4> ihl; bit<8> tos; bit<16> total_len;
                    bit<16> identification; bit<16> flags_frag; bit<8> ttl;
                    bit<8> protocol; bit<16> hdr_checksum;
                    bit<32> src_addr; bit<32> dst_addr;
                }
                header ipv6 {
                    bit<4> version; bit<8> traffic_class; bit<20> flow_label;
                    bit<16> payload_len; bit<8> next_hdr; bit<8> hop_limit;
                    bit<128> src_addr; bit<128> dst_addr;
                }
            }
            structs { struct metadata_t { bit<16> nexthop; bit<16> bd; } meta; }
        "#,
        )
        .unwrap()
    }

    fn ecmp_snippet() -> Program {
        parse(
            r#"
            table ecmp_ipv4 {
                key = { meta.nexthop: hash; ipv4.dst_addr: hash; }
                actions = { set_bd_dmac; }
                size = 4096;
            }
            stage ecmp {
                parser { ipv4; ipv6; }
                matcher {
                    if (ipv4.isValid()) ecmp_ipv4.apply();
                    else;
                }
                executor { 1: set_bd_dmac; default: NoAction; }
            }
            action set_bd_dmac(bit<16> bd, bit<48> dmac) {
                meta.bd = bd;
                ethernet.dst_addr = dmac;
            }
            user_funcs { func ecmp { ecmp } }
        "#,
        )
        .unwrap()
    }

    #[test]
    fn snippet_checks_against_base() {
        let env = check(&ecmp_snippet(), Some(&base())).unwrap();
        assert_eq!(env.width_of("meta", "nexthop"), Some(16));
        assert_eq!(env.width_of("ethernet", "dst_addr"), Some(48));
    }

    #[test]
    fn snippet_alone_fails_resolution() {
        let errs = check(&ecmp_snippet(), None).unwrap_err();
        assert!(errs.iter().any(|e| e.msg.contains("meta.nexthop")
            || e.msg.contains("ipv4")
            || e.msg.contains("ethernet")));
    }

    #[test]
    fn unknown_table_in_stage() {
        let p = parse(
            r#"
            stage s {
                parser { ipv4; }
                matcher { ghost.apply(); }
                executor { default: NoAction; }
            }
        "#,
        )
        .unwrap();
        let errs = check(&p, Some(&base())).unwrap_err();
        assert!(errs.iter().any(|e| e.msg.contains("ghost")));
    }

    #[test]
    fn bad_builtin_arity() {
        let p = parse("action a() { forward(); }").unwrap();
        let errs = check(&p, None).unwrap_err();
        assert!(errs.iter().any(|e| e.msg.contains("forward")));
    }

    #[test]
    fn unknown_builtin() {
        let p = parse("action a() { teleport(); }").unwrap();
        let errs = check(&p, None).unwrap_err();
        assert!(errs.iter().any(|e| e.msg.contains("teleport")));
    }

    #[test]
    fn duplicate_detection() {
        let p = parse(
            r#"
            action a() { drop(); }
            action a() { drop(); }
        "#,
        )
        .unwrap();
        let errs = check(&p, None).unwrap_err();
        assert!(errs.iter().any(|e| e.msg.contains("duplicate action")));
    }

    #[test]
    fn selector_kind_cannot_mix() {
        let p = parse(
            r#"
            table t { key = { meta.a: hash; meta.b: exact; } }
            structs { struct m_t { bit<8> a; bit<8> b; } meta; }
        "#,
        )
        .unwrap();
        let errs = check(&p, None).unwrap_err();
        assert!(errs.iter().any(|e| e.msg.contains("selector")));
    }

    #[test]
    fn executor_tag_bounds() {
        let p = parse(
            r#"
            table t { key = { meta.a: exact; } actions = { x; } }
            action x() { drop(); }
            structs { struct m_t { bit<8> a; } meta; }
            stage s {
                parser { }
                matcher { t.apply(); }
                executor { 2: x; default: NoAction; }
            }
        "#,
        )
        .unwrap();
        let errs = check(&p, None).unwrap_err();
        assert!(errs.iter().any(|e| e.msg.contains("exceeds")));
    }

    #[test]
    fn func_claims_are_exclusive() {
        let p = parse(
            r#"
            stage s { parser { } matcher { } executor { default: NoAction; } }
            user_funcs { func f { s } func g { s } }
        "#,
        )
        .unwrap();
        let errs = check(&p, None).unwrap_err();
        assert!(errs.iter().any(|e| e.msg.contains("multiple funcs")));
    }

    #[test]
    fn intrinsic_meta_always_available() {
        let p = parse("action a() { meta.egress_port = 3; }").unwrap();
        check(&p, None).unwrap();
    }

    #[test]
    fn errors_carry_codes_and_spans() {
        let src = "action a() { drop(); }\naction a() { drop(); }";
        let errs = check(&parse(src).unwrap(), None).unwrap_err();
        let dup = errs
            .iter()
            .find(|e| e.msg.contains("duplicate action"))
            .unwrap();
        assert_eq!(dup.code, codes::DUPLICATE);
        let sp = dup.span.expect("span recorded");
        // Points at the *second* `a` (the parser keeps the last span per name).
        assert_eq!(sp.line, 2);
        assert_eq!(sp.col, 8);
        assert_eq!(&src[sp.start..sp.end], "a");
    }

    #[test]
    fn display_shows_code() {
        let e = SemanticError {
            code: codes::UNRESOLVED,
            msg: "table `t`: unknown action `x`".into(),
            span: None,
        };
        assert_eq!(
            e.to_string(),
            "error[RP4002]: table `t`: unknown action `x`"
        );
    }

    #[test]
    fn tag_and_claim_codes() {
        let p = parse(
            r#"
            stage s { parser { } matcher { } executor { 0: NoAction; default: NoAction; } }
            user_funcs { func f { s } func g { s } }
        "#,
        )
        .unwrap();
        let errs = check(&p, None).unwrap_err();
        assert!(errs.iter().any(|e| e.code == codes::EXEC_TAG));
        assert!(errs.iter().any(|e| e.code == codes::FUNC_CLAIM));
    }
}
