//! rp4-equiv — symbolic evaluation of rP4 pipelines: translation
//! validation, path coverage, static per-packet cost bounds, and witness
//! replay.
//!
//! A **symbolic packet** leaves header presence, field values, and table
//! outcomes open as decisions of a shared oracle. A *world* is one
//! assignment to those decisions, i.e. one execution path. Two evaluators
//! execute over it: one interprets the checked rP4 AST directly, the other
//! mirrors the `ipbm` device slot by slot over a
//! [`CompiledDesign`](ipsa_core::template::CompiledDesign). One driver
//! enumerates the worlds within a world and decision budget, and every
//! analysis below is a visitor of that enumeration.
//!
//! **Translation validation (RP42xx).** The rP4 toolchain compiles checked
//! programs to TSP templates (`rp4c::full_compile`), patches live designs
//! incrementally (`incremental_compile`), and rolls trials back via
//! structural diffs (`ipsa_core::control::design_diff`, which also produces
//! every update's and install's messages). Each transformation is a place
//! for a miscompile to hide.
//!
//! * [`check_program_design`] and [`check_design_design`] compare the final
//!   header, metadata and egress state of the two sides of a seam in every
//!   world and report divergences as spanned diagnostics;
//! * each divergence is additionally concretized into a real packet and
//!   cross-checked against an `ipbm` device, so the validator's own model
//!   is differentially tested on exactly the paths it complains about;
//! * the [`apply`] module models control-message application so failback
//!   plans (`diff(A→B)` then `diff(B→A)`) can be proven round-trip
//!   identities ([`check_roundtrip`]) before anything touches a device.
//!
//! **Path coverage (RP44xx).** The differential suites sample execution
//! paths; [`cover_design`] enumerates them. Each feasible world is
//! concretized into a [`PathWitness`] (a packet plus the table entries that
//! drive a real device down the same path) and priced into a static cost
//! bound, whose maximum is the pipeline's worst-case per-packet bound
//! (WCET). [`check_plan_wcet`] gates update plans on it, [`corpus_json`]
//! dumps the witness corpus, and [`replay_corpus`] drives it through any
//! device.
//!
//! Every code the crate emits is declared in [`codes`].

pub mod apply;
mod check;
mod cover;
mod eval_ast;
mod eval_design;
mod oracle;
mod replay;
mod state;
mod term;
mod witness;

pub use check::{check_design_design, check_program_design, check_roundtrip};
pub use cover::{check_plan_wcet, corpus_json, cover_design, Coverage, PathReport};
pub use oracle::MAX_WORLDS;
pub use replay::{replay_corpus, replay_witness, teardown_of, ReplayMode};
pub use witness::{PathWitness, Skip};

/// Diagnostic codes of the symbolic-evaluation blocks.
pub mod codes {
    /// A header field or metadata value diverges on a matched path.
    pub const WRITE_DIVERGENCE: &str = "RP4201";
    /// The packet outcome (forward port / drop kind / runtime error)
    /// diverges.
    pub const OUTCOME_DIVERGENCE: &str = "RP4202";
    /// Header validity (presence after insert/remove) diverges.
    pub const VALIDITY_DIVERGENCE: &str = "RP4203";
    /// Table schemas differ between the program and the compiled design.
    pub const STRUCT_MISMATCH: &str = "RP4204";
    /// The world/decision budget was exhausted before full coverage.
    pub const PATH_BUDGET: &str = "RP4205";
    /// A failback round-trip does not restore the original design.
    pub const FAILBACK_NONIDENTITY: &str = "RP4206";
    /// Path enumeration exhausted its world/decision budget before full
    /// coverage (warning).
    pub const PATH_EXPLOSION: &str = "RP4401";
    /// A feasible path has no concretizable witness packet (warning).
    pub const UNCOVERABLE_PATH: &str = "RP4402";
    /// A table action no feasible path ever selects (warning).
    pub const DEAD_ACTION: &str = "RP4403";
    /// An update plan regresses the static worst-case per-packet cost
    /// bound beyond the allowed slack (error).
    pub const PLAN_WCET_REGRESSION: &str = "RP4404";
}
