//! rp4bc — the rP4 back-end compiler (full-design path).
//!
//! "rp4bc takes rP4 code as input, analyzes the dependency of different
//! logical stages, optimizes the predicates to merge some independent
//! stages into a single TSP, allocates tables, and computes the best stage
//! mapping layout. The output of rp4bc is the TSP template parameters in
//! JSON format, used for data-plane device configuration." (Sec. 3.2)
//!
//! The incremental-update path lives in [`crate::incremental`].

use std::collections::BTreeMap;

use ipsa_core::action::ActionDef;
use ipsa_core::crossbar::Crossbar;
use ipsa_core::memory::{blocks_needed, BlockKind};
use ipsa_core::template::{CompiledDesign, FuncDef};
use ipsa_netpkt::header::{HeaderType, ImplicitParser, ParserTransition};
use ipsa_netpkt::linkage::HeaderLinkage;
use rp4_dfa::ResourceLimits;
use rp4_lang::ast::Program;
use rp4_lang::semantic::{check, Env};
use rp4_lang::{Diagnostic, Severity};

use crate::api_gen::{generate_apis, TableApi};
use crate::layout::{initial_layout, LayoutError};
use crate::lower::{lower_action, lower_stage, lower_table, LogicalStage, LowerError};
use crate::merge::{merge_stages, MergeLimits, MergeReport};
use crate::packing::{pack_branch_bound, FreeBlocks, PackError, PackRequest, PackSolution};

/// Compilation target description (the device the design is mapped onto).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompilerTarget {
    /// Target name.
    pub name: String,
    /// Physical TSP slots.
    pub slots: usize,
    /// SRAM blocks in the pool.
    pub sram_blocks: usize,
    /// TCAM blocks in the pool.
    pub tcam_blocks: usize,
    /// Crossbar clusters (0 or 1 = full crossbar).
    pub clusters: usize,
    /// Per-TSP merge limits.
    pub merge_limits: MergeLimits,
    /// Enable the stage-merging pass.
    pub merge: bool,
    /// Data-bus width between TSPs and memory, bits (throughput model).
    pub bus_bits: usize,
    /// Branch-and-bound node budget for the packing solver.
    pub pack_budget: usize,
}

impl CompilerTarget {
    /// The ipbm software switch (roomy pipeline).
    pub fn ipbm() -> Self {
        CompilerTarget {
            name: "ipbm".into(),
            slots: 32,
            sram_blocks: 64,
            tcam_blocks: 16,
            clusters: 0,
            merge_limits: MergeLimits::default(),
            merge: true,
            bus_bits: 128,
            pack_budget: 20_000,
        }
    }

    /// The FPGA-IPSA prototype target. (The paper's chip implements 8
    /// TSPs and maps the base design onto 7; our base maps onto 8, so the
    /// compile-fit target carries headroom for the in-situ use cases while
    /// the hardware model keeps evaluating an 8-stage chip.)
    pub fn fpga() -> Self {
        CompilerTarget {
            name: "fpga".into(),
            slots: 12,
            sram_blocks: 64,
            tcam_blocks: 16,
            clusters: 0,
            merge_limits: MergeLimits::default(),
            merge: true,
            bus_bits: 128,
            pack_budget: 20_000,
        }
    }

    /// Total pool blocks (SRAM ids come first, then TCAM — matching
    /// `MemoryPool::new`).
    pub fn total_blocks(&self) -> usize {
        self.sram_blocks + self.tcam_blocks
    }

    /// The crossbar this target instantiates.
    pub fn crossbar(&self) -> Crossbar {
        if self.clusters <= 1 {
            Crossbar::full()
        } else {
            Crossbar::clustered(self.slots, self.total_blocks(), self.clusters)
        }
    }
}

/// Compiler errors across all rp4bc phases.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// Semantic diagnostics.
    Semantic(Vec<rp4_lang::semantic::SemanticError>),
    /// Static-analysis findings at error severity (RP41xx).
    Verify(Vec<Diagnostic>),
    /// Lowering failure.
    Lower(LowerError),
    /// Layout failure.
    Layout(LayoutError),
    /// Packing failure.
    Pack(PackError),
    /// Design-level inconsistency.
    Design(String),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Semantic(errs) => {
                writeln!(f, "{} semantic error(s):", errs.len())?;
                for e in errs {
                    writeln!(f, "  {e}")?;
                }
                Ok(())
            }
            CompileError::Verify(diags) => {
                writeln!(f, "{} verifier error(s):", diags.len())?;
                for d in diags {
                    writeln!(f, "  {}", d.header())?;
                }
                Ok(())
            }
            CompileError::Lower(e) => write!(f, "{e}"),
            CompileError::Layout(e) => write!(f, "{e}"),
            CompileError::Pack(e) => write!(f, "{e}"),
            CompileError::Design(d) => write!(f, "design error: {d}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<LowerError> for CompileError {
    fn from(e: LowerError) -> Self {
        CompileError::Lower(e)
    }
}
impl From<LayoutError> for CompileError {
    fn from(e: LayoutError) -> Self {
        CompileError::Layout(e)
    }
}
impl From<PackError> for CompileError {
    fn from(e: PackError) -> Self {
        CompileError::Pack(e)
    }
}

/// Statistics of one full compilation.
#[derive(Debug, Clone, PartialEq)]
pub struct CompileReport {
    /// Merge pass outcome.
    pub merge: MergeReport,
    /// Packing solution summary.
    pub pack_fragmentation: usize,
    /// TSPs used (ingress + egress).
    pub tsps_used: usize,
    /// Pool blocks allocated.
    pub blocks_used: usize,
}

/// Result of a full compile: everything a device load needs.
#[derive(Debug, Clone)]
pub struct Compilation {
    /// The device configuration.
    pub design: CompiledDesign,
    /// Canonical program (what incremental updates are computed against).
    pub program: Program,
    /// Controller table APIs.
    pub apis: Vec<TableApi>,
    /// Compiler statistics.
    pub report: CompileReport,
    /// Warning-severity verifier findings (errors abort the compile).
    pub warnings: Vec<Diagnostic>,
}

/// The verifier budget corresponding to a compiler target.
pub fn verify_limits(target: &CompilerTarget) -> ResourceLimits {
    ResourceLimits {
        slots: target.slots,
        sram_blocks: target.sram_blocks,
        tcam_blocks: target.tcam_blocks,
    }
}

/// Builds the header registry/linkage from a program's header declarations.
/// The first declared header anchors the parse chain.
pub fn build_linkage(prog: &Program) -> HeaderLinkage {
    let mut linkage = HeaderLinkage::new();
    for h in &prog.headers {
        let mut ty = HeaderType::new(
            h.name.clone(),
            h.fields
                .iter()
                .map(|(n, b)| ipsa_netpkt::header::FieldDef::new(n.clone(), *b))
                .collect(),
        );
        if let Some(p) = &h.parser {
            ty = ty.with_parser(ImplicitParser {
                selector_fields: p.selector.clone(),
                transitions: p
                    .transitions
                    .iter()
                    .map(|(tag, next)| ParserTransition {
                        tag: *tag,
                        next: next.clone(),
                    })
                    .collect(),
            });
        }
        if let Some((f, units)) = &h.var_len {
            ty = ty.with_var_len(f.clone(), *units);
        }
        linkage.register(ty);
    }
    if let Some(first) = prog.headers.first() {
        let _ = linkage.set_first(&first.name);
    }
    linkage
}

/// Lowers a program's stages (ingress then egress) to logical stages.
pub fn lower_all_stages(env: &Env, prog: &Program) -> Result<Vec<LogicalStage>, LowerError> {
    let mut out = Vec::new();
    for st in &prog.ingress {
        out.push(lower_stage(env, st, prog.func_of_stage(&st.name), false)?);
    }
    for st in &prog.egress {
        out.push(lower_stage(env, st, prog.func_of_stage(&st.name), true)?);
    }
    Ok(out)
}

/// Lowered table and action registries of a design.
pub type Registries = (
    BTreeMap<String, ipsa_core::table::TableDef>,
    BTreeMap<String, ActionDef>,
);

/// Lowers all tables and actions of a program.
pub fn lower_registries(env: &Env, prog: &Program) -> Result<Registries, LowerError> {
    let mut actions = BTreeMap::new();
    actions.insert("NoAction".to_string(), ActionDef::no_action());
    for a in &prog.actions {
        actions.insert(a.name.clone(), lower_action(env, a)?);
    }
    let mut tables = BTreeMap::new();
    for t in &prog.tables {
        tables.insert(t.name.clone(), lower_table(env, t)?);
    }
    Ok((tables, actions))
}

/// Computes the packing request of one table (block kind and count).
pub fn table_pack_request(
    def: &ipsa_core::table::TableDef,
    actions: &BTreeMap<String, ActionDef>,
    cluster: Option<usize>,
) -> PackRequest {
    let data_bits = def
        .actions
        .iter()
        .filter_map(|a| actions.get(a))
        .map(|a| a.data_bits())
        .max()
        .unwrap_or(0);
    let kind = BlockKind::for_table(def);
    PackRequest {
        table: def.name.clone(),
        kind,
        blocks: blocks_needed(kind.geometry(), def.entry_width_bits(data_bits), def.size),
        cluster,
    }
}

/// The free-block view of a fresh target pool.
pub fn fresh_free_blocks(target: &CompilerTarget) -> FreeBlocks {
    let xbar = target.crossbar();
    let mut cluster_of = BTreeMap::new();
    if target.clusters > 1 {
        for b in 0..target.total_blocks() {
            if let Some(c) = xbar.mem_cluster(b) {
                cluster_of.insert(b, c);
            }
        }
    }
    FreeBlocks {
        sram: (0..target.sram_blocks).collect(),
        tcam: (target.sram_blocks..target.total_blocks()).collect(),
        cluster_of,
    }
}

/// Test-only fault injection for the lowering passes, used to seed
/// deliberate miscompiles that the translation validator (`rp4-equiv`)
/// must catch. Each field simulates a realistic backend-bug class; a
/// default value injects nothing. Hidden from docs — never use outside
/// tests.
#[doc(hidden)]
#[derive(Debug, Clone, Default)]
pub struct FaultInjection {
    /// Swap the operation of every ALU primitive lowered into the named
    /// action (Add↔Sub, And↔Or, Xor→And, Shl↔Shr) — a wrong-opcode bug.
    pub swap_alu_in: Option<String>,
    /// Drop the last primitive of the named action's lowered body — a
    /// lost-write / lost-side-effect bug.
    pub drop_last_primitive_in: Option<String>,
    /// Reverse the action list of the named table, silently changing the
    /// entry-tag ABI — a retagging bug.
    pub retag_table: Option<String>,
}

impl FaultInjection {
    fn apply(
        &self,
        tables: &mut BTreeMap<String, ipsa_core::table::TableDef>,
        actions: &mut BTreeMap<String, ActionDef>,
    ) {
        use ipsa_core::action::{AluOp, Primitive};
        if let Some(name) = &self.swap_alu_in {
            if let Some(a) = actions.get_mut(name) {
                for p in &mut a.body {
                    if let Primitive::Alu { op, .. } = p {
                        *op = match op {
                            AluOp::Add => AluOp::Sub,
                            AluOp::Sub => AluOp::Add,
                            AluOp::And => AluOp::Or,
                            AluOp::Or => AluOp::And,
                            AluOp::Xor => AluOp::And,
                            AluOp::Shl => AluOp::Shr,
                            AluOp::Shr => AluOp::Shl,
                        };
                    }
                }
            }
        }
        if let Some(name) = &self.drop_last_primitive_in {
            if let Some(a) = actions.get_mut(name) {
                a.body.pop();
            }
        }
        if let Some(name) = &self.retag_table {
            if let Some(t) = tables.get_mut(name) {
                t.actions.reverse();
            }
        }
    }
}

/// Every static lint over a checked program, in report order: the RP41xx
/// program lints, RP4103 over the lowered `registries`, then the RP43xx
/// dataflow lints. `env` must come from the `check` that accepted `prog`.
pub fn lint_program(
    prog: &Program,
    env: &Env,
    (tables, actions): &Registries,
    target: &CompilerTarget,
) -> Vec<Diagnostic> {
    let limits = verify_limits(target);
    let (mut findings, dataflow) = rp4_dfa::analyze_program(prog, env, &limits);
    findings.extend(rp4_dfa::verify_pool(
        tables,
        actions,
        &limits,
        Some(&prog.spans),
    ));
    findings.extend(dataflow);
    findings
}

/// Full rp4bc compilation: program → device configuration.
pub fn full_compile(prog: &Program, target: &CompilerTarget) -> Result<Compilation, CompileError> {
    compile_with(prog, target, None)
}

/// [`full_compile`] with deliberate lowering faults injected after the
/// verifier gate — test-only, for exercising the translation validator.
#[doc(hidden)]
pub fn full_compile_with_faults(
    prog: &Program,
    target: &CompilerTarget,
    faults: &FaultInjection,
) -> Result<Compilation, CompileError> {
    compile_with(prog, target, Some(faults))
}

fn compile_with(
    prog: &Program,
    target: &CompilerTarget,
    faults: Option<&FaultInjection>,
) -> Result<Compilation, CompileError> {
    let env = check(prog, None).map_err(CompileError::Semantic)?;
    let registries = lower_registries(&env, prog)?;

    // Static analysis gates the rest of the pipeline: error-severity
    // findings abort, warnings ride along on the compilation result.
    let mut findings = lint_program(prog, &env, &registries, target);
    if findings.iter().any(|d| d.severity == Severity::Error) {
        findings.retain(|d| d.severity == Severity::Error);
        return Err(CompileError::Verify(findings));
    }
    let warnings = findings;
    let (mut tables, mut actions) = registries;

    // Seed deliberate lowering bugs *after* the verifier gate, so injected
    // miscompiles reach the design exactly as a real backend bug would.
    if let Some(f) = faults {
        f.apply(&mut tables, &mut actions);
    }

    let stages = lower_all_stages(&env, prog)?;
    let (groups, merge_report) = if target.merge {
        merge_stages(stages, &tables, &actions, target.merge_limits)
    } else {
        let n = stages.len();
        (
            stages,
            MergeReport {
                before: n,
                after: n,
                merged_groups: vec![],
            },
        )
    };
    let placement = initial_layout(&groups, target.slots)?;

    // Cluster constraints: a table must live in the memory cluster of the
    // slot whose template applies it.
    let xbar = target.crossbar();
    let slot_of_table = |tname: &str| -> Option<usize> {
        placement.templates.iter().enumerate().find_map(|(s, t)| {
            t.as_ref()
                .filter(|t| t.tables().contains(&tname))
                .map(|_| s)
        })
    };
    let requests: Vec<PackRequest> = tables
        .values()
        .map(|def| {
            let cluster = if target.clusters > 1 {
                slot_of_table(&def.name).and_then(|s| xbar.tsp_cluster(s))
            } else {
                None
            };
            table_pack_request(def, &actions, cluster)
        })
        .collect();
    let free = fresh_free_blocks(target);
    let pack: PackSolution = pack_branch_bound(&requests, &free, target.pack_budget)?;

    // Crossbar connections: slot → blocks of every table it applies.
    let mut crossbar_cfg: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (s, t) in placement
        .templates
        .iter()
        .enumerate()
        .filter_map(|(s, t)| t.as_ref().map(|t| (s, t)))
    {
        let mut blocks = Vec::new();
        for tbl in t.tables() {
            if let Some(ids) = pack.assignment.get(tbl) {
                blocks.extend(ids.iter().copied());
            }
        }
        blocks.sort_unstable();
        blocks.dedup();
        crossbar_cfg.insert(s, blocks);
    }

    let funcs: Vec<FuncDef> = prog
        .user_funcs
        .iter()
        .flat_map(|uf| uf.funcs.iter())
        .map(|(name, stages)| FuncDef {
            name: name.clone(),
            stages: stages.clone(),
        })
        .collect();

    let blocks_used = pack.assignment.values().map(|v| v.len()).sum();
    let design = CompiledDesign {
        name: "design".into(),
        linkage: build_linkage(prog),
        metadata: env
            .meta_fields
            .iter()
            .map(|(n, b)| (n.clone(), *b))
            .collect(),
        actions,
        tables,
        templates: placement.templates,
        selector: placement.selector,
        table_alloc: pack.assignment,
        crossbar: crossbar_cfg,
        funcs,
    };
    design
        .validate()
        .map_err(|e| CompileError::Design(e.to_string()))?;

    let tsps_used = design.programmed().count();
    let apis = generate_apis(&design);
    Ok(Compilation {
        design,
        program: prog.clone(),
        apis,
        report: CompileReport {
            merge: merge_report,
            pack_fragmentation: pack.fragmentation,
            tsps_used,
            blocks_used,
        },
        warnings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rp4_lang::parser::parse;

    fn tiny_design() -> Program {
        parse(
            r#"
            headers {
                header ethernet {
                    bit<48> dst_addr; bit<48> src_addr; bit<16> ethertype;
                    implicit parser(ethertype) { 0x0800: ipv4; }
                }
                header ipv4 {
                    bit<8> ttl; bit<8> protocol; bit<16> hdr_checksum;
                    bit<32> src_addr; bit<32> dst_addr;
                }
            }
            structs { struct m_t { bit<16> nexthop; } meta; }
            action set_nh(bit<16> nh) { meta.nexthop = nh; }
            action fwd(bit<16> port) { forward(port); }
            table fib {
                key = { ipv4.dst_addr: lpm; }
                actions = { set_nh; }
                size = 1024;
            }
            table out_port {
                key = { meta.nexthop: exact; }
                actions = { fwd; }
                size = 256;
            }
            control rP4_Ingress {
                stage fib_s {
                    parser { ipv4; }
                    matcher { if (ipv4.isValid()) fib.apply(); else; }
                    executor { 1: set_nh; default: NoAction; }
                }
            }
            control rP4_Egress {
                stage out_s {
                    parser { }
                    matcher { out_port.apply(); }
                    executor { 1: fwd; default: NoAction; }
                }
            }
            user_funcs {
                func base { fib_s out_s }
                ingress_entry: fib_s;
                egress_entry: out_s;
            }
        "#,
        )
        .unwrap()
    }

    #[test]
    fn full_compile_produces_valid_design() {
        let c = full_compile(&tiny_design(), &CompilerTarget::ipbm()).unwrap();
        assert_eq!(c.report.tsps_used, 2);
        assert!(c.design.tables.contains_key("fib"));
        assert_eq!(c.design.table_alloc.len(), 2);
        assert!(c.report.blocks_used >= 2);
        // JSON output per the paper's spec.
        let j = c.design.to_json();
        assert!(j.contains("fib_s"));
        // Linkage rooted at ethernet with the declared transition.
        assert_eq!(c.design.linkage.first(), Some("ethernet"));
        assert_eq!(c.design.linkage.edges().len(), 1);
        // APIs generated for both tables.
        assert_eq!(c.apis.len(), 2);
    }

    #[test]
    fn slots_exhaustion_reported() {
        let mut t = CompilerTarget::ipbm();
        t.slots = 1;
        let e = full_compile(&tiny_design(), &t).unwrap_err();
        assert!(matches!(e, CompileError::Layout(_)));
    }

    #[test]
    fn pool_exhaustion_reported() {
        let mut t = CompilerTarget::ipbm();
        t.sram_blocks = 1; // fib alone needs blocks for 1024 x ~60 bits
        let r = full_compile(&tiny_design(), &t);
        // fib (1024 entries, <=112b) fits one block; out_port needs another.
        // The verifier's pool lint (RP4103) catches the overcommit before
        // the packing solver even runs.
        match r {
            Err(CompileError::Verify(diags)) => {
                assert!(diags
                    .iter()
                    .any(|d| d.code == rp4_dfa::codes::MEM_OVERCOMMIT));
            }
            other => panic!("expected RP4103 verify error, got {other:?}"),
        }
    }

    #[test]
    fn clean_compile_carries_no_warnings() {
        let c = full_compile(&tiny_design(), &CompilerTarget::ipbm()).unwrap();
        assert_eq!(c.warnings, vec![]);
    }

    #[test]
    fn verifier_rejects_use_before_parse() {
        let mut p = tiny_design();
        p.ingress[0].parser.clear(); // fib keys on ipv4.dst_addr, now unparsed
        let e = full_compile(&p, &CompilerTarget::ipbm()).unwrap_err();
        match e {
            CompileError::Verify(diags) => {
                assert!(diags
                    .iter()
                    .any(|d| d.code == rp4_dfa::codes::USE_BEFORE_PARSE));
            }
            other => panic!("expected RP4101, got {other:?}"),
        }
    }

    #[test]
    fn semantic_errors_surface() {
        let mut p = tiny_design();
        p.tables[0].actions = vec!["ghost".into()];
        let e = full_compile(&p, &CompilerTarget::ipbm()).unwrap_err();
        assert!(matches!(e, CompileError::Semantic(_)));
    }

    #[test]
    fn crossbar_connects_slots_to_their_tables() {
        let c = full_compile(&tiny_design(), &CompilerTarget::ipbm()).unwrap();
        let fib_slot = c.design.slot_of_stage("fib_s").unwrap();
        let fib_blocks = &c.design.table_alloc["fib"];
        let conn = &c.design.crossbar[&fib_slot];
        for b in fib_blocks {
            assert!(conn.contains(b));
        }
    }

    #[test]
    fn clustered_target_respects_locality() {
        let mut t = CompilerTarget::ipbm();
        t.clusters = 4;
        let c = full_compile(&tiny_design(), &t).unwrap();
        let xbar = t.crossbar();
        for (slot, blocks) in &c.design.crossbar {
            let tc = xbar.tsp_cluster(*slot).unwrap();
            for b in blocks {
                assert_eq!(xbar.mem_cluster(*b), Some(tc), "slot {slot} block {b}");
            }
        }
    }
}
