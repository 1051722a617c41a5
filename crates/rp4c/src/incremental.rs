//! rp4bc — incremental-update path (in-situ programming).
//!
//! "We then feed the commands (stipulating the operation and location) plus
//! the rP4 code to rp4bc, which generates two outputs. The first output is
//! the updated base design, and the second output is the new TSP templates
//! and switch configuration." (Sec. 3.2)
//!
//! Commands mirror Fig. 5(b)/(c): `load` an rP4 snippet as a named
//! function, edit the stage graph with `add_link`/`del_link`, splice
//! protocol headers with `link_header`, and `unload` functions. The
//! compiler then:
//!
//! 1. updates the base program (absorb/remove);
//! 2. recomputes the logical stage order from the edited stage graph
//!    (stages no longer reachable from an entry are offloaded — how ECMP
//!    "covers and therefore replaces" the nexthop stage);
//! 3. lowers only the *new* stages/tables/actions;
//! 4. re-places templates with minimal rewrites ([`LayoutAlgo::Dp`] optimal
//!    vs [`LayoutAlgo::Greedy`] fast — the paper's stated tradeoff);
//! 5. allocates pool blocks for new tables and recycles removed ones;
//! 6. emits the `Drain … Resume` control-message diff.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use ipsa_core::control::ControlMsg;
use ipsa_core::template::{CompiledDesign, FuncDef, TspTemplate};
use rp4_lang::ast::Program;
use rp4_lang::semantic::check;

use crate::api_gen::{generate_apis, TableApi};
use crate::backend::{
    build_linkage, fresh_free_blocks, table_pack_request, CompileError, CompilerTarget,
};
use crate::layout::{replace_layout, LayoutAlgo};
use crate::lower::{lower_action, lower_stage, lower_table};
use crate::packing::{pack_branch_bound, PackRequest};

/// Pseudo-source naming the head of the ingress chain in link commands.
pub const INGRESS_ENTRY: &str = "ingress_entry";
/// Pseudo-source naming the head of the egress chain in link commands.
pub const EGRESS_ENTRY: &str = "egress_entry";

/// One incremental-update command.
#[derive(Debug, Clone, PartialEq)]
pub enum UpdateCmd {
    /// Load an rP4 snippet as function `func`.
    Load {
        /// Parsed snippet.
        snippet: Program,
        /// Function name (`--func_name`).
        func: String,
    },
    /// Add a stage-graph edge. `from` may be a stage name or
    /// [`INGRESS_ENTRY`]/[`EGRESS_ENTRY`].
    AddLink {
        /// Source stage.
        from: String,
        /// Destination stage.
        to: String,
    },
    /// Remove a stage-graph edge.
    DelLink {
        /// Source stage.
        from: String,
        /// Destination stage.
        to: String,
    },
    /// Splice a header into the parse graph (`link_header`).
    LinkHeader {
        /// Predecessor header.
        pre: String,
        /// Successor header.
        next: String,
        /// Selector tag.
        tag: u128,
    },
    /// Remove parse edges between two headers.
    UnlinkHeader {
        /// Predecessor header.
        pre: String,
        /// Successor header.
        next: String,
    },
    /// Offload a function: its stages leave the pipeline.
    Unload {
        /// Function name.
        func: String,
    },
    /// Replace a loaded function with a revised snippet *in place*: the
    /// new stages are spliced between the old stages' neighbours in one
    /// drain window ("function update", Sec. 4.2).
    Replace {
        /// Revised snippet.
        snippet: Program,
        /// Function name being replaced.
        func: String,
    },
}

/// Statistics of one incremental compilation.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateStats {
    /// Placement algorithm used.
    pub algo: LayoutAlgo,
    /// TSP templates written.
    pub template_writes: usize,
    /// TSP slots cleared.
    pub slot_clears: usize,
    /// Wall-clock time of the placement computation, µs.
    pub placement_us: f64,
    /// Newly created tables.
    pub new_tables: Vec<String>,
    /// Tables destroyed (blocks recycled).
    pub removed_tables: Vec<String>,
    /// Tables migrated to a new cluster (clustered crossbars only).
    pub migrated_tables: Vec<String>,
}

/// Result of an incremental compile.
#[derive(Debug, Clone)]
pub struct UpdatePlan {
    /// Control-message diff (`Drain … Resume`).
    pub msgs: Vec<ControlMsg>,
    /// The updated device configuration.
    pub design: CompiledDesign,
    /// The updated base program (rp4bc's "first output").
    pub program: Program,
    /// Regenerated table APIs.
    pub apis: Vec<TableApi>,
    /// Compiler statistics.
    pub stats: UpdateStats,
}

/// The logical stage graph: nodes are TSP-level stage names (merged names
/// like `a+b` stay single nodes); link commands address member stages.
#[derive(Debug, Clone, Default)]
pub struct StageGraph {
    /// Nodes in stable order.
    pub nodes: Vec<String>,
    /// Directed edges between nodes (including pseudo entries).
    pub edges: BTreeSet<(String, String)>,
}

impl StageGraph {
    /// Builds the graph from a design's current slot chains.
    pub fn from_design(design: &CompiledDesign) -> StageGraph {
        let mut g = StageGraph::default();
        let mut prev = INGRESS_ENTRY.to_string();
        for s in design.selector.ingress_slots() {
            if let Some(t) = &design.templates[s] {
                g.nodes.push(t.stage_name.clone());
                g.edges.insert((prev.clone(), t.stage_name.clone()));
                prev = t.stage_name.clone();
            }
        }
        let mut prev = EGRESS_ENTRY.to_string();
        for s in design.selector.egress_slots() {
            if let Some(t) = &design.templates[s] {
                g.nodes.push(t.stage_name.clone());
                g.edges.insert((prev.clone(), t.stage_name.clone()));
                prev = t.stage_name.clone();
            }
        }
        g
    }

    /// Resolves a (possibly member) stage name to its hosting node.
    pub fn resolve(&self, stage: &str) -> Option<String> {
        if stage == INGRESS_ENTRY || stage == EGRESS_ENTRY {
            return Some(stage.to_string());
        }
        self.nodes
            .iter()
            .find(|n| n.split('+').any(|m| m == stage))
            .cloned()
    }

    /// Adds a node for a newly loaded stage.
    pub fn add_node(&mut self, name: &str) {
        if !self.nodes.iter().any(|n| n == name) {
            self.nodes.push(name.to_string());
        }
    }

    /// Adds an edge, resolving member names.
    pub fn add_link(&mut self, from: &str, to: &str) -> Result<(), CompileError> {
        let f = self
            .resolve(from)
            .ok_or_else(|| CompileError::Design(format!("add_link: unknown stage `{from}`")))?;
        let t = self
            .resolve(to)
            .ok_or_else(|| CompileError::Design(format!("add_link: unknown stage `{to}`")))?;
        self.edges.insert((f, t));
        Ok(())
    }

    /// Removes an edge, resolving member names.
    pub fn del_link(&mut self, from: &str, to: &str) -> Result<(), CompileError> {
        let f = self
            .resolve(from)
            .ok_or_else(|| CompileError::Design(format!("del_link: unknown stage `{from}`")))?;
        let t = self
            .resolve(to)
            .ok_or_else(|| CompileError::Design(format!("del_link: unknown stage `{to}`")))?;
        if !self.edges.remove(&(f.clone(), t.clone())) {
            return Err(CompileError::Design(format!(
                "del_link: no edge `{f}` -> `{t}`"
            )));
        }
        Ok(())
    }

    /// Removes a node and its edges.
    pub fn remove_node(&mut self, name: &str) {
        self.nodes.retain(|n| n != name);
        self.edges.retain(|(a, b)| a != name && b != name);
    }

    /// Topological order of nodes reachable from `entry`, tie-broken by the
    /// stable node order. Errors on cycles.
    pub fn chain_order(&self, entry: &str) -> Result<Vec<String>, CompileError> {
        // Reachability.
        let mut reach = BTreeSet::new();
        let mut work = vec![entry.to_string()];
        while let Some(n) = work.pop() {
            for (a, b) in &self.edges {
                if a == &n && reach.insert(b.clone()) {
                    work.push(b.clone());
                }
            }
        }
        // Kahn over the reachable subgraph.
        let mut indeg: BTreeMap<&str, usize> = reach.iter().map(|n| (n.as_str(), 0)).collect();
        for (a, b) in &self.edges {
            if reach.contains(a) && reach.contains(b) {
                *indeg.get_mut(b.as_str()).expect("reachable") += 1;
            }
        }
        let rank: BTreeMap<&str, usize> = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (n.as_str(), i))
            .collect();
        let mut ready: Vec<&str> = indeg
            .iter()
            .filter(|(_, &d)| d == 0)
            .map(|(&n, _)| n)
            .collect();
        let mut out = Vec::new();
        while !ready.is_empty() {
            ready.sort_by_key(|n| rank.get(n).copied().unwrap_or(usize::MAX));
            let n = ready.remove(0);
            out.push(n.to_string());
            for (a, b) in &self.edges {
                if a == n && reach.contains(b) {
                    let d = indeg.get_mut(b.as_str()).expect("reachable");
                    *d -= 1;
                    if *d == 0 {
                        ready.push(b.as_str());
                    }
                }
            }
        }
        if out.len() != reach.len() {
            return Err(CompileError::Design(format!(
                "stage graph cycle among {:?}",
                reach
            )));
        }
        Ok(out)
    }
}

/// Shared Load machinery: lowers and registers a snippet's material and
/// adds its stages to the graph. Returns the new stage names in pipeline
/// order (ingress first).
#[allow(clippy::too_many_arguments)]
fn load_snippet(
    snippet: &Program,
    func: &str,
    program: &mut Program,
    design: &mut CompiledDesign,
    graph: &mut StageGraph,
    new_templates: &mut BTreeMap<String, TspTemplate>,
    new_stage_is_egress: &mut BTreeMap<String, bool>,
    header_msgs: &mut Vec<ControlMsg>,
    loaded_funcs: &mut Vec<(String, Vec<String>)>,
) -> Result<Vec<String>, CompileError> {
    let env = check(snippet, Some(program)).map_err(CompileError::Semantic)?;
    // Lower and register new actions.
    for a in &snippet.actions {
        let def = lower_action(&env, a)?;
        header_msgs.push(ControlMsg::DefineAction(def.clone()));
        design.actions.insert(a.name.clone(), def);
    }
    // New metadata fields.
    let mut new_meta = Vec::new();
    for st in &snippet.structs {
        if st.alias.is_some() {
            for (n, b) in &st.fields {
                if !design.metadata.iter().any(|(m, _)| m == n) {
                    design.metadata.push((n.clone(), *b));
                    new_meta.push((n.clone(), *b));
                }
            }
        }
    }
    if !new_meta.is_empty() {
        header_msgs.push(ControlMsg::DefineMetadata(new_meta));
    }
    // New headers register into the linkage.
    for h in &snippet.headers {
        let mut one = Program::default();
        one.headers.push(h.clone());
        let tmp = build_linkage(&one);
        let ty = tmp.get(&h.name).expect("registered").clone();
        header_msgs.push(ControlMsg::RegisterHeader(ty.clone()));
        design.linkage.register(ty);
    }
    // New tables.
    for t in &snippet.tables {
        let def = lower_table(&env, t)?;
        design.tables.insert(t.name.clone(), def);
    }
    // New stages (snippet stages are one node each; incremental updates
    // skip the merge pass).
    let mut stage_names = Vec::new();
    for st in snippet.ingress.iter() {
        let ls = lower_stage(&env, st, func, false)?;
        graph.add_node(&st.name);
        new_templates.insert(st.name.clone(), ls.template);
        new_stage_is_egress.insert(st.name.clone(), false);
        stage_names.push(st.name.clone());
    }
    for st in snippet.egress.iter() {
        let ls = lower_stage(&env, st, func, true)?;
        graph.add_node(&st.name);
        new_templates.insert(st.name.clone(), ls.template);
        new_stage_is_egress.insert(st.name.clone(), true);
        stage_names.push(st.name.clone());
    }
    program.absorb(snippet);
    // Record the function (the --func_name flag) in user_funcs so a later
    // `unload` can find its stages.
    let uf = program
        .user_funcs
        .get_or_insert_with(rp4_lang::ast::UserFuncs::default);
    uf.funcs.retain(|(n, _)| n != func);
    uf.funcs.push((func.to_string(), stage_names.clone()));
    loaded_funcs.push((func.to_string(), stage_names.clone()));
    Ok(stage_names)
}

/// Incrementally compiles a command batch against a base design + program.
pub fn incremental_compile(
    base_design: &CompiledDesign,
    base_program: &Program,
    cmds: &[UpdateCmd],
    target: &CompilerTarget,
    algo: LayoutAlgo,
) -> Result<UpdatePlan, CompileError> {
    let mut program = base_program.clone();
    let mut design = base_design.clone();
    let mut graph = StageGraph::from_design(&design);
    let mut new_templates: BTreeMap<String, TspTemplate> = BTreeMap::new();
    let mut new_stage_is_egress: BTreeMap<String, bool> = BTreeMap::new();
    let mut header_msgs: Vec<ControlMsg> = Vec::new();
    let mut loaded_funcs: Vec<(String, Vec<String>)> = Vec::new();
    let mut unloaded_stage_nodes: BTreeSet<String> = BTreeSet::new();

    // ---- Phase 1: interpret commands, lower new material. ----
    for cmd in cmds {
        match cmd {
            UpdateCmd::Load { snippet, func } => {
                load_snippet(
                    snippet,
                    func,
                    &mut program,
                    &mut design,
                    &mut graph,
                    &mut new_templates,
                    &mut new_stage_is_egress,
                    &mut header_msgs,
                    &mut loaded_funcs,
                )?;
            }
            UpdateCmd::Replace { snippet, func } => {
                // Capture the old function's pipeline neighbourhood.
                let old_stages = program
                    .user_funcs
                    .as_ref()
                    .and_then(|uf| {
                        uf.funcs
                            .iter()
                            .find(|(n, _)| n == func)
                            .map(|(_, s)| s.clone())
                    })
                    .ok_or_else(|| {
                        CompileError::Design(format!("update: function `{func}` not loaded"))
                    })?;
                let old_nodes: BTreeSet<String> =
                    old_stages.iter().filter_map(|s| graph.resolve(s)).collect();
                let preds: Vec<String> = graph
                    .edges
                    .iter()
                    .filter(|(a, b)| old_nodes.contains(b) && !old_nodes.contains(a))
                    .map(|(a, _)| a.clone())
                    .collect();
                let succs: Vec<String> = graph
                    .edges
                    .iter()
                    .filter(|(a, b)| old_nodes.contains(a) && !old_nodes.contains(b))
                    .map(|(_, b)| b.clone())
                    .collect();
                // Remove the old function outright (no bridging; the new
                // stages take its place).
                program.remove_func(func);
                for n in &old_nodes {
                    graph.remove_node(n);
                    new_templates.remove(n);
                }
                design.funcs.retain(|f| &f.name != func);
                // Load the revision and splice it where the old one sat.
                let stage_names = load_snippet(
                    snippet,
                    func,
                    &mut program,
                    &mut design,
                    &mut graph,
                    &mut new_templates,
                    &mut new_stage_is_egress,
                    &mut header_msgs,
                    &mut loaded_funcs,
                )?;
                if let Some(first) = stage_names.first() {
                    for p in &preds {
                        graph.edges.insert((p.clone(), first.clone()));
                    }
                }
                if let Some(last) = stage_names.last() {
                    for n in &succs {
                        graph.edges.insert((last.clone(), n.clone()));
                    }
                }
                for w in stage_names.windows(2) {
                    graph.edges.insert((w[0].clone(), w[1].clone()));
                }
            }
            UpdateCmd::AddLink { from, to } => graph.add_link(from, to)?,
            UpdateCmd::DelLink { from, to } => graph.del_link(from, to)?,
            UpdateCmd::LinkHeader { pre, next, tag } => {
                design
                    .linkage
                    .link(pre, next, *tag)
                    .map_err(|e| CompileError::Design(e.to_string()))?;
                header_msgs.push(ControlMsg::LinkHeader {
                    pre: pre.clone(),
                    next: next.clone(),
                    tag: *tag,
                });
            }
            UpdateCmd::UnlinkHeader { pre, next } => {
                design
                    .linkage
                    .unlink(pre, next)
                    .map_err(|e| CompileError::Design(e.to_string()))?;
                header_msgs.push(ControlMsg::UnlinkHeader {
                    pre: pre.clone(),
                    next: next.clone(),
                });
            }
            UpdateCmd::Unload { func } => {
                let removed = program.remove_func(func);
                for s in &removed {
                    if let Some(node) = graph.resolve(s) {
                        unloaded_stage_nodes.insert(node.clone());
                    }
                    new_templates.remove(s);
                }
                design.funcs.retain(|f| &f.name != func);
            }
        }
    }
    // Bridge around explicitly unloaded nodes, then drop them.
    for node in &unloaded_stage_nodes {
        let preds: Vec<String> = graph
            .edges
            .iter()
            .filter(|(_, b)| b == node)
            .map(|(a, _)| a.clone())
            .collect();
        let succs: Vec<String> = graph
            .edges
            .iter()
            .filter(|(a, _)| a == node)
            .map(|(_, b)| b.clone())
            .collect();
        for p in &preds {
            for s in &succs {
                graph.edges.insert((p.clone(), s.clone()));
            }
        }
        graph.remove_node(node);
    }

    // ---- Phase 2: recompute chain orders. ----
    let ingress_order = graph.chain_order(INGRESS_ENTRY)?;
    let egress_order = graph.chain_order(EGRESS_ENTRY)?;

    // Template provider: existing design templates or newly lowered ones.
    let template_of = |node: &str| -> Option<TspTemplate> {
        if let Some(t) = new_templates.get(node) {
            return Some(t.clone());
        }
        design
            .templates
            .iter()
            .flatten()
            .find(|t| t.stage_name == node)
            .cloned()
    };
    let mut missing = Vec::new();
    let ingress_templates: Vec<TspTemplate> = ingress_order
        .iter()
        .filter_map(|n| {
            template_of(n).or_else(|| {
                missing.push(n.clone());
                None
            })
        })
        .collect();
    let egress_templates: Vec<TspTemplate> = egress_order
        .iter()
        .filter_map(|n| {
            template_of(n).or_else(|| {
                missing.push(n.clone());
                None
            })
        })
        .collect();
    if !missing.is_empty() {
        return Err(CompileError::Design(format!(
            "no template for stage(s) {missing:?}"
        )));
    }
    // New stages linked into the wrong chain is a user error worth catching.
    for n in &ingress_order {
        if new_stage_is_egress.get(n.as_str()) == Some(&true) {
            return Err(CompileError::Design(format!(
                "egress stage `{n}` linked into the ingress chain"
            )));
        }
    }

    // ---- Phase 3: placement (the measured algorithm). ----
    let t0 = Instant::now();
    let placement = replace_layout(
        &design.templates,
        &ingress_templates,
        &egress_templates,
        algo,
    )?;
    let placement_us = t0.elapsed().as_secs_f64() * 1e6;

    // ---- Phase 4: table lifecycle. ----
    let live_tables: BTreeSet<String> = placement
        .templates
        .iter()
        .flatten()
        .flat_map(|t| t.tables().into_iter().map(str::to_string))
        .collect();
    let removed_tables: Vec<String> = design
        .table_alloc
        .keys()
        .filter(|t| !live_tables.contains(*t))
        .cloned()
        .collect();
    for t in &removed_tables {
        design.table_alloc.remove(t);
        design.tables.remove(t);
    }
    // Tables whose *definition* changed (e.g. a function update resized
    // one) must be recreated on the device: drop their allocation so they
    // repack as new, and destroy them before the create below.
    let changed_tables: Vec<String> = live_tables
        .iter()
        .filter(|t| design.table_alloc.contains_key(*t))
        .filter(|t| base_design.tables.get(*t) != design.tables.get(*t))
        .cloned()
        .collect();
    for t in &changed_tables {
        design.table_alloc.remove(t);
    }
    let new_tables: Vec<String> = live_tables
        .iter()
        .filter(|t| !design.table_alloc.contains_key(*t))
        .cloned()
        .collect();

    // Pack new tables into the remaining free blocks.
    let used: BTreeSet<usize> = design.table_alloc.values().flatten().copied().collect();
    let mut free = fresh_free_blocks(target);
    free.sram.retain(|b| !used.contains(b));
    free.tcam.retain(|b| !used.contains(b));
    let xbar = target.crossbar();
    let slot_of_table = |tname: &str| -> Option<usize> {
        placement.templates.iter().enumerate().find_map(|(s, t)| {
            t.as_ref()
                .filter(|t| t.tables().contains(&tname))
                .map(|_| s)
        })
    };
    let requests: Vec<PackRequest> = new_tables
        .iter()
        .map(|tname| {
            let def = design.tables.get(tname).expect("live table lowered");
            let cluster = if target.clusters > 1 {
                slot_of_table(tname).and_then(|s| xbar.tsp_cluster(s))
            } else {
                None
            };
            table_pack_request(def, &design.actions, cluster)
        })
        .collect();
    let pack = pack_branch_bound(&requests, &free, target.pack_budget)?;
    for (t, blocks) in &pack.assignment {
        design.table_alloc.insert(t.clone(), blocks.clone());
    }

    // Clustered crossbars force *table migration* when an existing stage
    // moved to a slot in a different cluster (Sec. 2.4: "the associated
    // tables also need to be migrated to another cluster").
    let mut migrations: Vec<(String, Vec<usize>)> = Vec::new();
    if target.clusters > 1 {
        let mut used_now: BTreeSet<usize> =
            design.table_alloc.values().flatten().copied().collect();
        let existing: Vec<String> = design
            .table_alloc
            .keys()
            .filter(|t| !new_tables.contains(*t))
            .cloned()
            .collect();
        for tname in existing {
            let Some(slot) = slot_of_table(&tname) else {
                continue;
            };
            let Some(tc) = xbar.tsp_cluster(slot) else {
                continue;
            };
            let blocks = design.table_alloc[&tname].clone();
            if blocks.iter().all(|b| xbar.mem_cluster(*b) == Some(tc)) {
                continue;
            }
            // Pack a same-size allocation inside the stage's new cluster.
            let def = design.tables.get(&tname).expect("allocated table lowered");
            let mut req = table_pack_request(def, &design.actions, Some(tc));
            req.blocks = blocks.len().max(req.blocks);
            let mut free_now = fresh_free_blocks(target);
            free_now.sram.retain(|b| !used_now.contains(b));
            free_now.tcam.retain(|b| !used_now.contains(b));
            let sol = pack_branch_bound(&[req], &free_now, target.pack_budget)?;
            let dest = sol.assignment[&tname].clone();
            used_now.extend(dest.iter().copied());
            for b in &blocks {
                used_now.remove(b);
            }
            design.table_alloc.insert(tname.clone(), dest.clone());
            migrations.push((tname, dest));
        }
    }

    // ---- Phase 5: assemble the message diff. ----
    let mut msgs = vec![ControlMsg::Drain];
    msgs.extend(header_msgs);
    for t in &changed_tables {
        msgs.push(ControlMsg::DestroyTable(t.clone()));
    }
    for tname in &new_tables {
        msgs.push(ControlMsg::CreateTable {
            def: design.tables[tname].clone(),
            blocks: design.table_alloc[tname].clone(),
        });
    }
    for (table, blocks) in &migrations {
        msgs.push(ControlMsg::MigrateTable {
            table: table.clone(),
            blocks: blocks.clone(),
        });
    }
    for &slot in &placement.writes {
        msgs.push(ControlMsg::WriteTemplate {
            slot,
            template: placement.templates[slot].clone().expect("written slot"),
        });
    }
    for &slot in &placement.clears {
        msgs.push(ControlMsg::ClearSlot { slot });
    }
    // Crossbar: compute the final per-slot connectivity and emit a
    // reconnect for every slot whose reachable set changed — including
    // slots whose template is untouched but whose table moved blocks
    // (recreation at a new size, migration).
    let mut new_crossbar: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (slot, t) in placement
        .templates
        .iter()
        .enumerate()
        .filter_map(|(s, t)| t.as_ref().map(|t| (s, t)))
    {
        let mut blocks: Vec<usize> = t
            .tables()
            .iter()
            .filter_map(|tn| design.table_alloc.get(*tn))
            .flatten()
            .copied()
            .collect();
        blocks.sort_unstable();
        blocks.dedup();
        new_crossbar.insert(slot, blocks);
    }
    for slot in 0..placement.templates.len() {
        let old = base_design.crossbar.get(&slot);
        let new = new_crossbar.get(&slot);
        if old != new {
            msgs.push(ControlMsg::ConnectCrossbar {
                slot,
                blocks: new.cloned().unwrap_or_default(),
            });
        }
    }
    if placement.selector != design.selector {
        msgs.push(ControlMsg::SetSelector(placement.selector.clone()));
    }
    for t in &removed_tables {
        msgs.push(ControlMsg::DestroyTable(t.clone()));
    }
    msgs.push(ControlMsg::Resume);

    // ---- Phase 6: updated design + program bookkeeping. ----
    let stats = UpdateStats {
        algo,
        template_writes: placement.writes.len(),
        slot_clears: placement.clears.len(),
        placement_us,
        new_tables: new_tables.clone(),
        removed_tables: removed_tables.clone(),
        migrated_tables: migrations.iter().map(|(t, _)| t.clone()).collect(),
    };
    design.templates = placement.templates;
    design.selector = placement.selector;
    for (func, stages) in loaded_funcs {
        design.funcs.push(FuncDef { name: func, stages });
    }
    // Drop stages that fell out of the pipeline from the program and funcs.
    let placed: BTreeSet<String> = design
        .templates
        .iter()
        .flatten()
        .flat_map(|t| t.stage_name.split('+').map(str::to_string))
        .collect();
    program.ingress.retain(|s| placed.contains(&s.name));
    program.egress.retain(|s| placed.contains(&s.name));
    if let Some(uf) = &mut program.user_funcs {
        for (_, stages) in &mut uf.funcs {
            stages.retain(|s| placed.contains(s));
        }
        uf.funcs.retain(|(_, stages)| !stages.is_empty());
    }
    for f in &mut design.funcs {
        f.stages.retain(|s| placed.contains(s));
    }
    design.funcs.retain(|f| !f.stages.is_empty());
    // The crossbar config computed during message assembly is final.
    design.crossbar = new_crossbar;
    design
        .validate()
        .map_err(|e| CompileError::Design(e.to_string()))?;
    let apis = generate_apis(&design);
    // Self-check: the assembled message diff must keep every structural
    // update inside its drain window (RP4105). A failure here is a compiler
    // bug, but surfacing it as a diagnostic beats corrupting a live device.
    let unsafe_msgs: Vec<_> = rp4_dfa::verify_msgs(&msgs)
        .into_iter()
        .filter(|d| d.severity == rp4_lang::Severity::Error)
        .collect();
    if !unsafe_msgs.is_empty() {
        return Err(CompileError::Verify(unsafe_msgs));
    }
    Ok(UpdatePlan {
        msgs,
        design,
        program,
        apis,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::full_compile;
    use rp4_lang::parser::parse;

    fn base_program() -> Program {
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
                    implicit parser(protocol) { }
                }
            }
            structs { struct m_t { bit<16> nexthop; bit<16> bd; } meta; }
            action set_nh(bit<16> nh) { meta.nexthop = nh; }
            action set_bd(bit<16> bd) { meta.bd = bd; }
            action fwd(bit<16> port) { forward(port); }
            table fib { key = { ipv4.dst_addr: lpm; } actions = { set_nh; } size = 512; }
            table nexthop { key = { meta.nexthop: exact; } actions = { set_bd; } size = 128; }
            table dmac { key = { meta.bd: exact; } actions = { fwd; } size = 128; }
            control rP4_Ingress {
                stage fib_s {
                    parser { ipv4; }
                    matcher { if (ipv4.isValid()) fib.apply(); else; }
                    executor { 1: set_nh; default: NoAction; }
                }
                stage nexthop_s {
                    parser { }
                    matcher { nexthop.apply(); }
                    executor { 1: set_bd; default: NoAction; }
                }
            }
            control rP4_Egress {
                stage dmac_s {
                    parser { ethernet; }
                    matcher { dmac.apply(); }
                    executor { 1: fwd; default: NoAction; }
                }
            }
            user_funcs {
                func base { fib_s nexthop_s dmac_s }
                ingress_entry: fib_s;
                egress_entry: dmac_s;
            }
        "#,
        )
        .unwrap()
    }

    fn ecmp_snippet() -> Program {
        parse(
            r#"
            table ecmp { key = { meta.nexthop: hash; ipv4.src_addr: hash; } actions = { set_bd; } size = 64; }
            stage ecmp_s {
                parser { ipv4; }
                matcher { ecmp.apply(); }
                executor { 1: set_bd; default: NoAction; }
            }
        "#,
        )
        .unwrap()
    }

    fn compiled() -> (CompiledDesign, Program, CompilerTarget) {
        let t = CompilerTarget::ipbm();
        let c = full_compile(&base_program(), &t).unwrap();
        (c.design, c.program, t)
    }

    /// The Fig. 5(b) pattern: load ECMP, splice it after fib, unlink the
    /// nexthop stage it replaces.
    fn ecmp_cmds() -> Vec<UpdateCmd> {
        vec![
            UpdateCmd::Load {
                snippet: ecmp_snippet(),
                func: "ecmp".into(),
            },
            UpdateCmd::AddLink {
                from: "fib_s".into(),
                to: "ecmp_s".into(),
            },
            UpdateCmd::DelLink {
                from: "fib_s".into(),
                to: "nexthop_s".into(),
            },
        ]
    }

    #[test]
    fn ecmp_insertion_is_minimal() {
        let (design, program, target) = compiled();
        let plan =
            incremental_compile(&design, &program, &ecmp_cmds(), &target, LayoutAlgo::Dp).unwrap();
        // nexthop_s became unreachable: its slot cleared, table destroyed.
        assert!(plan.stats.removed_tables.contains(&"nexthop".to_string()));
        assert_eq!(plan.stats.new_tables, vec!["ecmp".to_string()]);
        // DP placement: one template write (ecmp into the free slot) —
        // nexthop_s's slot is reused or cleared.
        assert!(
            plan.stats.template_writes <= 2,
            "writes = {}",
            plan.stats.template_writes
        );
        // Message diff shape: drain first, resume last.
        assert_eq!(plan.msgs.first(), Some(&ControlMsg::Drain));
        assert_eq!(plan.msgs.last(), Some(&ControlMsg::Resume));
        // Updated program no longer carries nexthop_s but has ecmp_s.
        assert!(plan.program.stage("nexthop_s").is_none());
        assert!(plan.program.stage("ecmp_s").is_some());
        // Design valid and still has all three funcs' stages accounted.
        plan.design.validate().unwrap();
        assert!(plan.design.funcs.iter().any(|f| f.name == "ecmp"));
    }

    #[test]
    fn unload_restores_pipeline() {
        let (design, program, target) = compiled();
        let plan =
            incremental_compile(&design, &program, &ecmp_cmds(), &target, LayoutAlgo::Dp).unwrap();
        // Now unload ecmp and relink fib -> ... nexthop is gone for good
        // (its stage left the program), so just drop ecmp.
        let plan2 = incremental_compile(
            &plan.design,
            &plan.program,
            &[UpdateCmd::Unload {
                func: "ecmp".into(),
            }],
            &target,
            LayoutAlgo::Dp,
        )
        .unwrap();
        assert!(plan2.stats.removed_tables.contains(&"ecmp".to_string()));
        assert!(plan2.design.funcs.iter().all(|f| f.name != "ecmp"));
        plan2.design.validate().unwrap();
    }

    #[test]
    fn header_linkage_commands_flow_through() {
        let (design, program, target) = compiled();
        let srh_snippet = parse(
            r#"
            headers {
                header srh {
                    bit<8> next_header; bit<8> hdr_ext_len; bit<8> routing_type;
                    bit<8> segments_left; bit<8> last_entry; bit<8> flags; bit<16> tag;
                    implicit parser(next_header) { }
                    varlen(hdr_ext_len, 8);
                }
            }
            action srv6_end() { srv6_advance(); }
            table local_sid { key = { ipv4.dst_addr: exact; } actions = { srv6_end; } size = 64; }
            stage srv6_s {
                parser { srh; }
                matcher { local_sid.apply(); }
                executor { 1: srv6_end; default: NoAction; }
            }
        "#,
        )
        .unwrap();
        let cmds = vec![
            UpdateCmd::Load {
                snippet: srh_snippet,
                func: "srv6".into(),
            },
            UpdateCmd::AddLink {
                from: "fib_s".into(),
                to: "srv6_s".into(),
            },
            UpdateCmd::AddLink {
                from: "srv6_s".into(),
                to: "nexthop_s".into(),
            },
            UpdateCmd::DelLink {
                from: "fib_s".into(),
                to: "nexthop_s".into(),
            },
            UpdateCmd::LinkHeader {
                pre: "ipv4".into(),
                next: "srh".into(),
                tag: 43,
            },
        ];
        let plan = incremental_compile(&design, &program, &cmds, &target, LayoutAlgo::Dp).unwrap();
        // Header registered and linked in the new design.
        assert!(plan.design.linkage.get("srh").is_some());
        assert!(plan
            .design
            .linkage
            .edges()
            .contains(&("ipv4".to_string(), 43, "srh".to_string())));
        // Msgs include the register + link pair before Resume.
        assert!(plan
            .msgs
            .iter()
            .any(|m| matches!(m, ControlMsg::RegisterHeader(h) if h.name == "srh")));
        assert!(plan
            .msgs
            .iter()
            .any(|m| matches!(m, ControlMsg::LinkHeader { tag: 43, .. })));
        // All three original stages retained plus the new one.
        assert_eq!(plan.design.programmed().count(), 4);
    }

    /// Clustered crossbars: when an insertion pushes an existing stage into
    /// a different cluster, its tables get migration messages (Sec. 2.4).
    #[test]
    fn clustered_move_emits_migration() {
        let mut target = CompilerTarget::ipbm();
        target.slots = 4;
        target.clusters = 2; // slots {0,1} reach blocks 0..39; {2,3} reach 40..79
        let c = full_compile(&base_program(), &target).unwrap();
        // Base: fib_s@0, nexthop_s@1 (ingress), dmac_s@3 (egress).
        assert_eq!(c.design.slot_of_stage("nexthop_s"), Some(1));
        // Insert a new stage between fib_s and nexthop_s: nexthop_s must
        // shift into slot 2 — the other cluster — dragging its table along.
        let snippet = parse(
            r#"
            table extra { key = { ipv4.src_addr: exact; } actions = { set_nh; } size = 64; }
            stage extra_s {
                parser { ipv4; }
                matcher { extra.apply(); }
                executor { 1: set_nh; default: NoAction; }
            }
        "#,
        )
        .unwrap();
        let plan = incremental_compile(
            &c.design,
            &c.program,
            &[
                UpdateCmd::Load {
                    snippet,
                    func: "extra".into(),
                },
                UpdateCmd::AddLink {
                    from: "fib_s".into(),
                    to: "extra_s".into(),
                },
                UpdateCmd::AddLink {
                    from: "extra_s".into(),
                    to: "nexthop_s".into(),
                },
                UpdateCmd::DelLink {
                    from: "fib_s".into(),
                    to: "nexthop_s".into(),
                },
            ],
            &target,
            LayoutAlgo::Dp,
        )
        .unwrap();
        assert_eq!(plan.design.slot_of_stage("nexthop_s"), Some(2));
        assert!(
            plan.stats.migrated_tables.contains(&"nexthop".to_string()),
            "{:?}",
            plan.stats
        );
        // The migration message lands in the new cluster's block range.
        let xbar = target.crossbar();
        let migrate_blocks = plan
            .msgs
            .iter()
            .find_map(|m| match m {
                ControlMsg::MigrateTable { table, blocks } if table == "nexthop" => {
                    Some(blocks.clone())
                }
                _ => None,
            })
            .expect("migration message present");
        for b in &migrate_blocks {
            assert_eq!(xbar.mem_cluster(*b), xbar.tsp_cluster(2));
        }
        plan.design.validate().unwrap();
    }

    #[test]
    fn greedy_never_beats_dp() {
        let (design, program, target) = compiled();
        let dp =
            incremental_compile(&design, &program, &ecmp_cmds(), &target, LayoutAlgo::Dp).unwrap();
        let gr = incremental_compile(&design, &program, &ecmp_cmds(), &target, LayoutAlgo::Greedy)
            .unwrap();
        assert!(gr.stats.template_writes >= dp.stats.template_writes);
    }

    #[test]
    fn bad_link_rejected() {
        let (design, program, target) = compiled();
        let e = incremental_compile(
            &design,
            &program,
            &[UpdateCmd::AddLink {
                from: "ghost".into(),
                to: "fib_s".into(),
            }],
            &target,
            LayoutAlgo::Dp,
        )
        .unwrap_err();
        assert!(matches!(e, CompileError::Design(_)));
    }

    #[test]
    fn cycle_detected() {
        let (design, program, target) = compiled();
        let e = incremental_compile(
            &design,
            &program,
            &[UpdateCmd::AddLink {
                from: "nexthop_s".into(),
                to: "fib_s".into(),
            }],
            &target,
            LayoutAlgo::Dp,
        )
        .unwrap_err();
        assert!(matches!(e, CompileError::Design(d) if d.contains("cycle")));
    }

    #[test]
    fn snippet_semantic_errors_rejected() {
        let (design, program, target) = compiled();
        let bad =
            parse("stage s { parser { mystery; } matcher { } executor { default: NoAction; } }")
                .unwrap();
        let e = incremental_compile(
            &design,
            &program,
            &[UpdateCmd::Load {
                snippet: bad,
                func: "f".into(),
            }],
            &target,
            LayoutAlgo::Dp,
        )
        .unwrap_err();
        assert!(matches!(e, CompileError::Semantic(_)));
    }
}
