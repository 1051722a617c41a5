//! The two design-flow drivers of Fig. 3.
//!
//! - [`Rp4Flow`]: the in-situ flow. Scripts compile through rp4bc's
//!   incremental path into a `Drain … Resume` message diff; only new
//!   tables need population. Compile time (t_C) is measured around the
//!   actual compiler work; load time (t_L) comes from the device's cost
//!   model.
//! - [`P4Flow`]: the conventional flow. Any change means recompiling the
//!   *entire* P4 program, swapping the whole design in, and repopulating
//!   **all** tables — the controller replays every entry it has ever
//!   installed, exactly the overhead the paper calls out under Table 1.

use std::time::Instant;

use ipsa_core::control::{design_diff, full_install_msgs, ApplyReport, ControlMsg, Device};
use ipsa_core::table::TableEntry;
use ipsa_core::template::CompiledDesign;
use p4_lang::{build_hlir, parse_p4};
use pisa_bm::{pisa_compile, PisaTarget};
use rp4_lang::ast::Program;
use rp4c::api_gen::TableApi;
use rp4c::backend::{CompileError, CompilerTarget};
use rp4c::incremental::{incremental_compile, UpdateCmd, UpdateStats};
use rp4c::layout::LayoutAlgo;
use rp4c::Compilation;

use crate::script::{parse_lines, ScriptCmd, ScriptError};
use crate::table_api::{build_entry, build_key, find_api, ApiError};

/// Controller-level error.
#[derive(Debug)]
pub enum ControllerError {
    /// Script syntax.
    Script(ScriptError),
    /// rP4 snippet parse failure.
    Rp4(rp4_lang::ParseError),
    /// P4 parse failure.
    P4(p4_lang::P4ParseError),
    /// HLIR construction failure.
    Hlir(p4_lang::HlirError),
    /// Compiler failure.
    Compile(CompileError),
    /// Table-API validation failure.
    Api(ApiError),
    /// Device rejected a message.
    Device(ipsa_core::error::CoreError),
    /// Device rejected a batch mid-way and rolled it back transactionally:
    /// the device's state is unchanged, so the controller's own view (table
    /// shadow, installed program) is still in sync and needs no failback.
    Rollback {
        /// Index of the failing message within the batch.
        index: usize,
        /// The device error that aborted the batch.
        cause: ipsa_core::error::CoreError,
    },
    /// Referenced snippet file not available.
    MissingSource(String),
    /// Static analysis rejected an update plan (RP4105 etc.).
    Verify(Vec<rp4_lang::Diagnostic>),
}

impl std::fmt::Display for ControllerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ControllerError::Script(e) => write!(f, "{e}"),
            ControllerError::Rp4(e) => write!(f, "{e}"),
            ControllerError::P4(e) => write!(f, "{e}"),
            ControllerError::Hlir(e) => write!(f, "{e}"),
            ControllerError::Compile(e) => write!(f, "{e}"),
            ControllerError::Api(e) => write!(f, "{e}"),
            ControllerError::Device(e) => write!(f, "device error: {e}"),
            ControllerError::Rollback { index, cause } => write!(
                f,
                "device rolled back the control batch: message {index} failed: {cause} \
                 (device state unchanged)"
            ),
            ControllerError::MissingSource(s) => write!(f, "snippet file `{s}` not provided"),
            ControllerError::Verify(diags) => {
                writeln!(f, "{} unsafe plan message(s):", diags.len())?;
                for d in diags {
                    writeln!(f, "  {}", d.header())?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for ControllerError {}

impl From<ScriptError> for ControllerError {
    fn from(e: ScriptError) -> Self {
        ControllerError::Script(e)
    }
}
impl From<CompileError> for ControllerError {
    fn from(e: CompileError) -> Self {
        ControllerError::Compile(e)
    }
}
impl From<ApiError> for ControllerError {
    fn from(e: ApiError) -> Self {
        ControllerError::Api(e)
    }
}
impl From<rp4_lang::ParseError> for ControllerError {
    fn from(e: rp4_lang::ParseError) -> Self {
        ControllerError::Rp4(e)
    }
}
impl From<p4_lang::P4ParseError> for ControllerError {
    fn from(e: p4_lang::P4ParseError) -> Self {
        ControllerError::P4(e)
    }
}
impl From<p4_lang::HlirError> for ControllerError {
    fn from(e: p4_lang::HlirError) -> Self {
        ControllerError::Hlir(e)
    }
}
impl From<ipsa_core::error::CoreError> for ControllerError {
    fn from(e: ipsa_core::error::CoreError) -> Self {
        match e {
            ipsa_core::error::CoreError::RolledBack { index, cause } => ControllerError::Rollback {
                index,
                cause: *cause,
            },
            other => ControllerError::Device(other),
        }
    }
}

/// Outcome of one script run on the rP4 flow.
#[derive(Debug, Clone, Default)]
pub struct ScriptOutcome {
    /// Wall-clock compiler time across the script's update batches, µs
    /// (t_C).
    pub compile_us: f64,
    /// Merged device apply report; `load_us` is t_L.
    pub report: ApplyReport,
    /// Stats of the last structural update, if any.
    pub update_stats: Option<UpdateStats>,
}

/// A structural snapshot used for live-trial failback.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    design: CompiledDesign,
    program: Program,
    apis: Vec<TableApi>,
}

/// The rP4 / IPSA design-flow driver.
pub struct Rp4Flow<D: Device> {
    /// The managed device.
    pub device: D,
    /// Current design (rp4bc's view of the device).
    pub design: CompiledDesign,
    /// Current base program (updated on every load/unload).
    pub program: Program,
    /// Current table APIs.
    pub apis: Vec<TableApi>,
    /// Placement algorithm for incremental updates.
    pub algo: LayoutAlgo,
    /// Skip the plan safety check in [`Rp4Flow::apply_plan`] (operator
    /// override for hand-written plans; unsafe plans corrupt live traffic).
    pub force: bool,
    target: CompilerTarget,
}

impl<D: Device> Rp4Flow<D> {
    /// Installs a full compilation onto a blank device.
    pub fn install(
        mut device: D,
        compilation: Compilation,
        target: CompilerTarget,
    ) -> Result<(Self, ApplyReport), ControllerError> {
        let msgs = full_install_msgs(&compilation.design);
        let report = device.apply(&msgs)?;
        let flow = Rp4Flow {
            device,
            design: compilation.design,
            program: compilation.program,
            apis: compilation.apis,
            algo: LayoutAlgo::Dp,
            force: false,
            target,
        };
        Ok((flow, report))
    }

    fn flush_updates(
        &mut self,
        cmds: &mut Vec<UpdateCmd>,
        outcome: &mut ScriptOutcome,
    ) -> Result<(), ControllerError> {
        if cmds.is_empty() {
            return Ok(());
        }
        let t0 = Instant::now();
        let plan = incremental_compile(&self.design, &self.program, cmds, &self.target, self.algo)?;
        outcome.compile_us += t0.elapsed().as_secs_f64() * 1e6;
        let report = self.device.apply(&plan.msgs)?;
        outcome.report.merge(&report);
        outcome.update_stats = Some(plan.stats.clone());
        self.design = plan.design;
        self.program = plan.program;
        self.apis = plan.apis;
        cmds.clear();
        Ok(())
    }

    /// A checkpoint of the controller/device structural state, for the
    /// paper's "reliable failback procedure": live-trial a function, then
    /// roll back with [`Rp4Flow::rollback`].
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            design: self.design.clone(),
            program: self.program.clone(),
            apis: self.apis.clone(),
        }
    }

    /// Rolls the device back to a checkpoint by applying the minimal
    /// structural diff (entries of untouched tables survive). Returns the
    /// apply report.
    pub fn rollback(&mut self, cp: &Checkpoint) -> Result<ApplyReport, ControllerError> {
        let msgs = design_diff(&self.design, &cp.design);
        let report = self.device.apply(&msgs)?;
        self.design = cp.design.clone();
        self.program = cp.program.clone();
        self.apis = cp.apis.clone();
        Ok(report)
    }

    /// Pre-compiles a *structural* script into an update plan without
    /// touching the device — "in cases the incremental updates can be
    /// pre-compiled, t_L will dominate the performance" (Sec. 4.3). The
    /// script must not contain table operations (those are runtime-only).
    pub fn plan_script(
        &self,
        script: &str,
        sources: &dyn Fn(&str) -> Option<String>,
    ) -> Result<rp4c::UpdatePlan, ControllerError> {
        let update_cmds = lower_script(script, sources)?;
        Ok(incremental_compile(
            &self.design,
            &self.program,
            &update_cmds,
            &self.target,
            self.algo,
        )?)
    }

    /// Applies a pre-compiled plan. Only t_L is paid here; the plan must
    /// have been computed against the current design (enforced by checking
    /// the template baseline).
    ///
    /// Plans from [`Rp4Flow::plan_script`] are safe by construction, but
    /// this method also accepts deserialized or hand-assembled plans — so
    /// unless [`Rp4Flow::force`] is set it re-verifies that every
    /// structural message sits inside a `Drain … Resume` window (RP4105)
    /// and that the plan is a *translation-validated* update: stages of
    /// functions the plan does not touch must behave identically before
    /// and after (`rp4-equiv`, RP42xx). It also enumerates the feasible
    /// paths of both designs and rejects plans that regress the static
    /// worst-case per-packet cost bound disproportionately (`rp4-equiv`,
    /// RP4404).
    pub fn apply_plan(&mut self, plan: rp4c::UpdatePlan) -> Result<ApplyReport, ControllerError> {
        if !self.force {
            let unsafe_msgs: Vec<_> = rp4_dfa::verify_msgs(&plan.msgs)
                .into_iter()
                .filter(|d| d.severity == rp4_lang::Severity::Error)
                .collect();
            if !unsafe_msgs.is_empty() {
                return Err(ControllerError::Verify(unsafe_msgs));
            }
            let divergent: Vec<_> = rp4_equiv::check_design_design(&self.design, &plan.design)
                .into_iter()
                .filter(|d| d.severity == rp4_lang::Severity::Error)
                .collect();
            if !divergent.is_empty() {
                return Err(ControllerError::Verify(divergent));
            }
            // RP4306: the plan must not orphan a metadata field some
            // surviving stage still reads (dataflow fact regression).
            let regressions = rp4_dfa::check_plan(&self.program, &plan.program);
            if !regressions.is_empty() {
                return Err(ControllerError::Verify(regressions));
            }
            // RP4404: the plan must not regress the static worst-case
            // per-packet cost bound beyond the allowed slack (path
            // enumeration over both designs).
            let wcet = rp4_equiv::check_plan_wcet(&self.design, &plan.design, Some(&plan.program));
            if !wcet.is_empty() {
                return Err(ControllerError::Verify(wcet));
            }
        }
        let report = self.device.apply(&plan.msgs)?;
        self.design = plan.design;
        self.program = plan.program;
        self.apis = plan.apis;
        Ok(report)
    }

    /// Runs a script. `sources` resolves snippet file names to rP4 text.
    pub fn run_script(
        &mut self,
        script: &str,
        sources: &dyn Fn(&str) -> Option<String>,
    ) -> Result<ScriptOutcome, ControllerError> {
        let mut outcome = ScriptOutcome::default();
        let mut pending: Vec<UpdateCmd> = Vec::new();
        for (line, cmd) in parse_lines(script)? {
            match cmd {
                ScriptCmd::TableAdd {
                    table,
                    action,
                    keys,
                    args,
                    priority,
                } => {
                    self.flush_updates(&mut pending, &mut outcome)?;
                    let api = find_api(&self.apis, &table)?;
                    let entry = build_entry(api, &action, &keys, &args, priority)?;
                    let r = self
                        .device
                        .apply(&[ControlMsg::AddEntry { table, entry }])?;
                    outcome.report.merge(&r);
                }
                ScriptCmd::TableDel { table, keys } => {
                    self.flush_updates(&mut pending, &mut outcome)?;
                    let api = find_api(&self.apis, &table)?;
                    let key = build_key(api, &keys)?;
                    let r = self.device.apply(&[ControlMsg::DelEntry { table, key }])?;
                    outcome.report.merge(&r);
                }
                ScriptCmd::TableDefault {
                    table,
                    action,
                    args,
                } => {
                    self.flush_updates(&mut pending, &mut outcome)?;
                    let r = self.device.apply(&[ControlMsg::SetDefaultAction {
                        table,
                        action: ipsa_core::table::ActionCall::new(action, args),
                    }])?;
                    outcome.report.merge(&r);
                }
                // Snippet parse time is part of the measured compile.
                structural => {
                    pending.push(lower(line, structural, sources, &mut outcome.compile_us)?);
                }
            }
        }
        self.flush_updates(&mut pending, &mut outcome)?;
        Ok(outcome)
    }
}

/// Lowers a *structural* script to the compiler's update commands,
/// resolving every snippet it names through `sources`. A table operation
/// has no compiled form (it runs on the live device), so a script with one
/// is an error.
pub fn lower_script(
    script: &str,
    sources: &dyn Fn(&str) -> Option<String>,
) -> Result<Vec<UpdateCmd>, ControllerError> {
    let mut parse_us = 0.0;
    parse_lines(script)?
        .into_iter()
        .map(|(line, cmd)| lower(line, cmd, sources, &mut parse_us))
        .collect()
}

/// Lowers the structural script command on 1-based `line` to the
/// compiler's form, resolving and parsing the snippet it names; the parse
/// time is added to `parse_us`. A table operation has no compiled form: it
/// runs on the live device, so lowering one is an error.
fn lower(
    line: usize,
    cmd: ScriptCmd,
    sources: &dyn Fn(&str) -> Option<String>,
    parse_us: &mut f64,
) -> Result<UpdateCmd, ControllerError> {
    let mut snippet = |file: String| -> Result<Program, ControllerError> {
        let src = sources(&file).ok_or(ControllerError::MissingSource(file))?;
        let t0 = Instant::now();
        let snippet = rp4_lang::parse(&src)?;
        *parse_us += t0.elapsed().as_secs_f64() * 1e6;
        Ok(snippet)
    };
    Ok(match cmd {
        ScriptCmd::Load { file, func } => UpdateCmd::Load {
            snippet: snippet(file)?,
            func,
        },
        ScriptCmd::Update { file, func } => UpdateCmd::Replace {
            snippet: snippet(file)?,
            func,
        },
        ScriptCmd::Unload { func } => UpdateCmd::Unload { func },
        ScriptCmd::AddLink { from, to } => UpdateCmd::AddLink { from, to },
        ScriptCmd::DelLink { from, to } => UpdateCmd::DelLink { from, to },
        ScriptCmd::LinkHeader { pre, next, tag } => UpdateCmd::LinkHeader { pre, next, tag },
        ScriptCmd::UnlinkHeader { pre, next } => UpdateCmd::UnlinkHeader { pre, next },
        ScriptCmd::TableAdd { .. }
        | ScriptCmd::TableDel { .. }
        | ScriptCmd::TableDefault { .. } => {
            return Err(ControllerError::Script(ScriptError {
                line,
                msg: "a table operation cannot be pre-compiled: it runs on the live device".into(),
            }))
        }
    })
}

/// The conventional P4 / PISA design-flow driver.
pub struct P4Flow<D: Device> {
    /// The managed device.
    pub device: D,
    /// Current full P4 source.
    pub source: String,
    /// Current table APIs (regenerated on each compile).
    pub apis: Vec<TableApi>,
    target: PisaTarget,
    /// Every installed entry, replayed after each reload.
    entries: Vec<(String, TableEntry)>,
    design: Option<CompiledDesign>,
}

impl<D: Device> P4Flow<D> {
    /// Creates the flow and loads the initial program.
    pub fn new(
        device: D,
        source: impl Into<String>,
        target: PisaTarget,
    ) -> Result<(Self, f64, ApplyReport), ControllerError> {
        let mut flow = P4Flow {
            device,
            source: String::new(),
            apis: vec![],
            target,
            entries: vec![],
            design: None,
        };
        let (t_c, report) = flow.update_source(source.into())?;
        Ok((flow, t_c, report))
    }

    /// Current design.
    pub fn design(&self) -> Option<&CompiledDesign> {
        self.design.as_ref()
    }

    /// Replaces the program: full recompile, whole-design swap, and
    /// repopulation of every table entry. Returns `(t_C µs, report)`.
    pub fn update_source(&mut self, source: String) -> Result<(f64, ApplyReport), ControllerError> {
        // t_C: the whole front end + back end, every time.
        let t0 = Instant::now();
        let ast = parse_p4(&source).map_err(ControllerError::P4)?;
        let hlir = build_hlir(&ast).map_err(ControllerError::Hlir)?;
        let design = pisa_compile(&hlir, &self.target)?;
        let t_c = t0.elapsed().as_secs_f64() * 1e6;

        // t_L: swap + repopulate ALL tables.
        let mut msgs = vec![ControlMsg::LoadFullDesign(Box::new(design.clone()))];
        for (table, entry) in &self.entries {
            // Entries for tables that no longer exist are dropped.
            if design.tables.contains_key(table) {
                msgs.push(ControlMsg::AddEntry {
                    table: table.clone(),
                    entry: entry.clone(),
                });
            }
        }
        // The swap path must stay plan-safe too: LoadFullDesign quiesces by
        // itself and entry adds are non-structural, so this never fires
        // unless the message assembly above regresses.
        let unsafe_msgs: Vec<_> = rp4_dfa::verify_msgs(&msgs)
            .into_iter()
            .filter(|d| d.severity == rp4_lang::Severity::Error)
            .collect();
        if !unsafe_msgs.is_empty() {
            return Err(ControllerError::Verify(unsafe_msgs));
        }
        let report = self.device.apply(&msgs)?;
        self.entries
            .retain(|(table, _)| design.tables.contains_key(table));
        self.apis = rp4c::generate_apis(&design);
        self.design = Some(design);
        self.source = source;
        Ok((t_c, report))
    }

    /// Adds a table entry (validated, recorded for future repopulations).
    pub fn table_add(
        &mut self,
        table: &str,
        action: &str,
        keys: &[crate::script::KeyToken],
        args: &[u128],
        priority: i32,
    ) -> Result<ApplyReport, ControllerError> {
        let api = find_api(&self.apis, table)?;
        let entry = build_entry(api, action, keys, args, priority)?;
        let r = self.device.apply(&[ControlMsg::AddEntry {
            table: table.to_string(),
            entry: entry.clone(),
        }])?;
        self.entries.push((table.to_string(), entry));
        Ok(r)
    }

    /// Number of entries the controller would replay on a reload.
    pub fn tracked_entries(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipbm::{IpbmConfig, IpbmSwitch};
    use ipsa_core::error::CoreError;

    /// A mid-batch device failure is transactional on the device side, and
    /// the controller surfaces it as the typed `Rollback` variant (state
    /// unchanged — no failback needed) rather than a generic device error.
    #[test]
    fn device_rollback_surfaces_as_typed_controller_error() {
        let mut dev = IpbmSwitch::new(IpbmConfig::default());
        let err = dev
            .apply(&[ControlMsg::Drain, ControlMsg::ClearSlot { slot: 999 }])
            .expect_err("clearing slot 999 must fail");
        let ce = ControllerError::from(err);
        assert!(
            matches!(&ce, ControllerError::Rollback { index: 1, .. }),
            "expected Rollback at index 1, got {ce}"
        );
        assert!(
            ce.to_string().contains("device state unchanged"),
            "operators must see the no-failback-needed guarantee: {ce}"
        );
        assert!(
            !dev.pm.draining,
            "the Drain that preceded the failure rolled back"
        );

        // Errors with no rollback semantics still map to `Device`.
        let plain = ControllerError::from(CoreError::Config("x".into()));
        assert!(matches!(plain, ControllerError::Device(_)));
    }
}
