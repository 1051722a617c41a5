//! # rp4-verify — resource and update-plan checks for rP4
//!
//! In-situ reprogramming means mistakes reach a *running* pipeline: a memory
//! plan that overcommits the disaggregated pool, or a structural update
//! applied while traffic flows, corrupts live forwarding state. This crate
//! holds the checks that are not dataflow, reporting structured
//! [`Diagnostic`]s (code `RP41xx`, severity, span, notes) that render in the
//! same rustc-style format as the front end's semantic errors (`RP40xx`):
//!
//! - [`verify_pool`]: lowered-registry lint — disaggregated-memory
//!   overcommit against a target's block budget (RP4103);
//! - [`verify_msgs`]: control-plane plan lint — structural messages outside
//!   a `Drain … Resume` window (RP4105).
//!
//! It also owns the RP41xx [`codes`] and the [`ResourceLimits`] budget. The
//! AST-level RP41xx lints (RP4101, RP4102, RP4104, RP4106) run in
//! `rp4_dfa::analyze_program`, over the same per-stage summary as the
//! dataflow lints. The compiler (`rp4c::lint_program`) runs both inside
//! `full_compile` and checks update plans in `incremental_compile`; the CLI
//! and controller render or reject on the results. The crate deliberately
//! depends only on `rp4-lang` and `ipsa-core` so every layer above
//! (analysers, compiler, controller, CLI) can call it without cycles.

#![warn(missing_docs)]

pub mod plan;
pub mod pool;

pub use plan::verify_msgs;
pub use pool::verify_pool;
pub use rp4_lang::{render_all, Diagnostic, Severity};

/// Stable lint codes. Codes `RP4001`–`RP4007` are the front end's semantic
/// errors (`rp4_lang::semantic::codes`); the verifier owns `RP4101`+
/// (RP4101, RP4102, RP4104 and RP4106 are emitted by `rp4-dfa`).
pub mod codes {
    /// A stage reads or writes a header field that no stage at or before it
    /// in its pipeline parses.
    pub const USE_BEFORE_PARSE: &str = "RP4101";
    /// A stage's guard reads a resource written by the actions of the
    /// preceding merge-eligible stage — merging would reorder the read.
    pub const STAGE_HAZARD: &str = "RP4102";
    /// The design's tables need more SRAM/TCAM blocks than the target's
    /// disaggregated memory pool provides.
    pub const MEM_OVERCOMMIT: &str = "RP4103";
    /// Invalid elastic-pipeline shape: a missing or wrong-side entry point,
    /// or more stages than the target has TSP slots.
    pub const PIPELINE_INVALID: &str = "RP4104";
    /// A structural control message sits outside a `Drain … Resume` window.
    pub const PLAN_UNSAFE: &str = "RP4105";
    /// Unused header, table, or action, or a stage no user_func claims.
    pub const DEAD_CODE: &str = "RP4106";
}

/// Resource budget of the verification target — the subset of a compiler
/// target the verifier needs, kept dependency-free so callers at any layer
/// can construct one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceLimits {
    /// Physical TSP slots in the elastic pipeline (0 = unchecked).
    pub slots: usize,
    /// SRAM blocks in the disaggregated memory pool.
    pub sram_blocks: usize,
    /// TCAM blocks in the disaggregated memory pool.
    pub tcam_blocks: usize,
}

impl ResourceLimits {
    /// Limits of the paper's IPBM-style software target (32 slots,
    /// 64 SRAM + 16 TCAM blocks).
    pub fn ipbm() -> Self {
        ResourceLimits {
            slots: 32,
            sram_blocks: 64,
            tcam_blocks: 16,
        }
    }

    /// A budget that disables every resource check.
    pub fn unlimited() -> Self {
        ResourceLimits {
            slots: 0,
            sram_blocks: usize::MAX,
            tcam_blocks: usize::MAX,
        }
    }
}
