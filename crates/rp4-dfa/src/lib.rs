//! Static analysis of rP4 programs and update plans: every lint that does
//! not evaluate the pipeline symbolically.
//!
//! [`analyze_program`] runs one analysis over a checked [`Program`]: it
//! builds a per-stage summary once (reachable actions, what they read and
//! write, per-arm field uses and proven-valid headers) and answers both lint
//! blocks from it: the program lints RP4101, RP4102, RP4104 and RP4106, and
//! the dataflow lints RP4301–RP4305 from one forward pass of abstract
//! interpretation ([`lattice`]) down the live stage chain. Beside it sit
//! the checks that need no summary:
//!
//! - [`verify_pool`]: disaggregated-memory overcommit of the lowered
//!   registries against a target's [`ResourceLimits`] (RP4103);
//! - [`verify_msgs`]: structural control messages outside a
//!   `Drain … Resume` window (RP4105);
//! - [`check_plan`]: the plan-level dataflow regression (RP4306), a query
//!   over the same summary.
//!
//! `rp4c::lint_program` runs the program checks in `rp4c check`,
//! `full_compile` and CI; `incremental_compile` and the controller run the
//! plan checks. Every code the crate emits is declared in [`codes`].
//!
//! The parse elision the fast path uses is not derived here: it is a
//! function of what the device latches, so `ipsa_core::facts::derive`
//! computes it where the fast path is compiled.
//!
//! [`Program`]: rp4_lang::Program

pub mod lattice;
pub mod plan;
pub mod pool;
pub mod program;
mod summary;

pub use plan::{check_plan, verify_msgs};
pub use pool::verify_pool;
pub use program::analyze_program;

use std::collections::BTreeSet;

use rp4_lang::Diagnostic;

/// Diagnostic codes of the static analysis. Codes `RP4001`–`RP4007` are
/// the front end's semantic errors (`rp4_lang::semantic::codes`).
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
    /// Access to a header an earlier stage may have removed, without an
    /// `isValid` guard (error).
    pub const INVALID_HEADER_USE: &str = "RP4301";
    /// Read of a metadata field no reachable earlier action writes
    /// (warning).
    pub const UNINIT_META_READ: &str = "RP4302";
    /// Store overwritten before any read in the same action body
    /// (warning).
    pub const DEAD_STORE: &str = "RP4303";
    /// Unreachable matcher arm, table, or stage (warning).
    pub const UNREACHABLE: &str = "RP4304";
    /// Guard provably always true — a no-op filter (warning).
    pub const TAUTOLOGICAL_GUARD: &str = "RP4305";
    /// Update plan invalidates a dataflow fact the surviving program
    /// relies on (error).
    pub const PLAN_FACT_REGRESSION: &str = "RP4306";
}

/// Resource budget of the verification target: the subset of a compiler
/// target the lints need, so callers at any layer can construct one.
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

/// Merges a later block's findings into an existing finding list, dropping
/// each one about an item an existing RP4106 (dead code), RP4303 (dead
/// store) or RP4304 (unreachable arm) finding already reports. Findings
/// are compared by their root-cause [`key`](Diagnostic::key), the
/// `(kind, name)` items they are about. An RP4403 (statically-dead action,
/// from path coverage) is often dead exactly because its store is dead or
/// because the only arm applying its table is unreachable, and the
/// narrower finding explains *why*.
pub fn merge_findings(existing: &[Diagnostic], new: Vec<Diagnostic>) -> Vec<Diagnostic> {
    let reported: BTreeSet<_> = existing
        .iter()
        .filter(|d| {
            matches!(
                d.code.as_str(),
                codes::DEAD_CODE | codes::DEAD_STORE | codes::UNREACHABLE
            )
        })
        .flat_map(|d| &d.key)
        .collect();
    new.into_iter()
        .filter(|d| !d.key.iter().any(|k| reported.contains(k)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rp4_lang::{Diagnostic, ItemKind};

    #[test]
    fn merge_drops_duplicate_root_cause() {
        let existing = vec![Diagnostic::warning(
            "RP4106",
            "stage `floating` is defined but not part of any function",
        )
        .with_key(ItemKind::Stage, "floating")];
        let dfa = vec![
            Diagnostic::warning(
                "RP4304",
                "stage `floating` is unreachable: no `user_funcs` entry claims it",
            )
            .with_key(ItemKind::Stage, "floating"),
            Diagnostic::warning(
                "RP4304",
                "arm 1 of stage `fwd` is unreachable: arm 0 is unconditional",
            )
            .with_key(ItemKind::Stage, "fwd"),
        ];
        let merged = merge_findings(&existing, dfa);
        assert_eq!(merged.len(), 1);
        assert!(merged[0].message.contains("`fwd`"));
    }

    #[test]
    fn merge_dedups_dead_action_against_dead_store() {
        // One dead action can fire both RP4303 (its store is dead, from
        // dataflow) and RP4403 (no feasible path selects it, from path
        // coverage); only the narrower dataflow finding survives.
        let existing = vec![Diagnostic::warning(
            "RP4303",
            "action `set_ttl` stores to `ipv4.ttl` twice with no intervening read; the first store is dead",
        )
        .with_key(ItemKind::Action, "set_ttl")];
        let dfa = vec![
            Diagnostic::warning(
                "RP4403",
                "action `set_ttl` of table `fwd` is selected on no feasible path",
            )
            .with_key(ItemKind::Action, "set_ttl")
            .with_key(ItemKind::Table, "fwd"),
            Diagnostic::warning(
                "RP4403",
                "action `mark_ecn` of table `qos` is selected on no feasible path",
            )
            .with_key(ItemKind::Action, "mark_ecn")
            .with_key(ItemKind::Table, "qos"),
        ];
        let merged = merge_findings(&existing, dfa);
        assert_eq!(merged.len(), 1);
        assert!(merged[0].message.contains("`mark_ecn`"));
    }

    #[test]
    fn merge_dedups_dead_action_against_unreachable_arm() {
        // RP4304 names the stage first but also the table; an RP4403 on
        // any action of that table is the same root cause.
        let existing = vec![Diagnostic::warning(
            "RP4304",
            "arm 1 of stage `fwd` is unreachable: arm 0 is unconditional, so table `acl` is never applied from it",
        )
        .with_key(ItemKind::Stage, "fwd")
        .with_key(ItemKind::Table, "acl")];
        let dfa = vec![Diagnostic::warning(
            "RP4403",
            "action `punt` of table `acl` is selected on no feasible path",
        )
        .with_key(ItemKind::Action, "punt")
        .with_key(ItemKind::Table, "acl")];
        assert!(merge_findings(&existing, dfa).is_empty());
    }

    #[test]
    fn merge_keeps_unrelated_findings() {
        let existing = vec![Diagnostic::warning("RP4106", "action `spare` is unused")
            .with_key(ItemKind::Action, "spare")];
        let dfa = vec![Diagnostic::warning(
            "RP4302",
            "guard in stage `s` reads `meta.ghost` but no reachable earlier action writes it",
        )];
        assert_eq!(merge_findings(&existing, dfa).len(), 1);
    }

    #[test]
    fn merge_keeps_dead_action_of_a_table_named_like_an_unreachable_stage() {
        // Stages often share their table's name. RP4304 here is about stage
        // `fwd` (and table `acl`); an RP4403 about *table* `fwd` has another
        // root cause and must survive. Comparing quoted words dropped it.
        let existing = vec![Diagnostic::warning(
            "RP4304",
            "arm 1 of stage `fwd` is unreachable: arm 0 is unconditional, so table `acl` is never applied from it",
        )
        .with_key(ItemKind::Stage, "fwd")
        .with_key(ItemKind::Table, "acl")];
        let cover = vec![Diagnostic::warning(
            "RP4403",
            "action `set_nh` of table `fwd` is selected on no feasible path",
        )
        .with_key(ItemKind::Action, "set_nh")
        .with_key(ItemKind::Table, "fwd")];
        assert_eq!(merge_findings(&existing, cover).len(), 1);
    }
}
