//! # rp4c — the rP4 compilers
//!
//! Implements the paper's compilation toolchain (Sec. 3.2, Fig. 3):
//!
//! - [`frontend::rp4fc`] — the front-end compiler: P4 HLIR → semantically
//!   equivalent rP4 (one stage per guarded table application, parse graph
//!   distributed into per-header implicit parsers);
//! - [`backend::full_compile`] — rp4bc's full-design path: semantic check,
//!   lowering, stage-dependency analysis ([`depgraph`]), predicate-aware
//!   stage merging ([`merge`]), table set-packing into the memory pool
//!   ([`packing`], the native substitute for the paper's YALMIP solver),
//!   slot layout ([`layout`]), and JSON template output;
//! - [`incremental::incremental_compile`] — rp4bc's in-situ path: `load` /
//!   `add_link` / `del_link` / `link_header` / `unload` commands compiled
//!   into an updated design and its `Drain … Resume` control-message diff
//!   ([`ipsa_core::control::design_diff`]), with the DP vs greedy placement
//!   tradeoff the paper describes;
//! - [`api_gen`] — runtime table-API descriptors for the controller.

#![warn(missing_docs)]

pub mod api_gen;
pub mod backend;
pub mod depgraph;
pub mod frontend;
pub mod incremental;
pub mod layout;
pub mod lower;
pub mod merge;
pub mod packing;

pub use api_gen::{generate_apis, TableApi};
pub use backend::{
    full_compile, lint_program, lower_registries, verify_limits, Compilation, CompileError,
    CompilerTarget,
};
#[doc(hidden)]
pub use backend::{full_compile_with_faults, FaultInjection};
pub use frontend::rp4fc;
pub use incremental::{incremental_compile, UpdateCmd, UpdatePlan, UpdateStats};
pub use layout::LayoutAlgo;

#[cfg(test)]
mod proptests {
    use crate::packing::{
        fragmentation_of, pack_branch_bound, pack_greedy, FreeBlocks, PackRequest,
    };
    use ipsa_core::memory::BlockKind;
    use proptest::prelude::*;

    proptest! {
        /// Packing solutions are always disjoint, complete, and the B&B
        /// result never fragments more than the greedy seed.
        #[test]
        fn packing_soundness(
            sizes in proptest::collection::vec(1usize..5, 1..6),
            holes in proptest::collection::vec(any::<bool>(), 24),
        ) {
            let free_ids: Vec<usize> = holes
                .iter()
                .enumerate()
                .filter(|(_, &keep)| keep)
                .map(|(i, _)| i)
                .collect();
            let total: usize = sizes.iter().sum();
            prop_assume!(free_ids.len() >= total);
            let reqs: Vec<PackRequest> = sizes
                .iter()
                .enumerate()
                .map(|(i, &blocks)| PackRequest {
                    table: format!("t{i}"),
                    kind: BlockKind::Sram,
                    blocks,
                    cluster: None,
                })
                .collect();
            let free = FreeBlocks {
                sram: free_ids.clone(),
                tcam: vec![],
                cluster_of: Default::default(),
            };
            let g = pack_greedy(&reqs, &free).unwrap();
            let b = pack_branch_bound(&reqs, &free, 5_000).unwrap();
            prop_assert!(b.fragmentation <= g.fragmentation);
            for sol in [&g, &b] {
                let mut all: Vec<usize> = sol.assignment.values().flatten().copied().collect();
                prop_assert_eq!(all.len(), total);
                all.sort_unstable();
                let n = all.len();
                all.dedup();
                prop_assert_eq!(all.len(), n, "double-assigned block");
                for id in &all {
                    prop_assert!(free_ids.contains(id), "assigned a non-free block");
                }
                // Per-table block counts honored, fragmentation consistent.
                let mut frag = 0;
                for (t, ids) in &sol.assignment {
                    let want = reqs.iter().find(|r| &r.table == t).unwrap().blocks;
                    prop_assert_eq!(ids.len(), want);
                    let mut s = ids.clone();
                    s.sort_unstable();
                    frag += fragmentation_of(&s);
                }
                prop_assert_eq!(frag, sol.fragmentation);
            }
        }

        /// DP placement never writes more templates than greedy for the
        /// same insertion, and both preserve the requested order.
        #[test]
        fn layout_dp_dominates_greedy(
            n_old in 1usize..6,
            insert_at in 0usize..6,
        ) {
            use crate::layout::{replace_layout, LayoutAlgo};
            use ipsa_core::table::ActionCall;
            use ipsa_core::template::TspTemplate;
            let tpl = |name: String| TspTemplate {
                stage_name: name,
                func: "f".into(),
                parse: vec![],
                branches: vec![],
                executor: vec![],
                default_action: ActionCall::no_action(),
            };
            let insert_at = insert_at.min(n_old);
            let slots = n_old + 4;
            let mut old: Vec<Option<TspTemplate>> = (0..n_old)
                .map(|i| Some(tpl(format!("s{i}"))))
                .collect();
            old.extend(std::iter::repeat_with(|| None).take(slots - n_old));
            let mut new_seq: Vec<TspTemplate> =
                (0..n_old).map(|i| tpl(format!("s{i}"))).collect();
            new_seq.insert(insert_at, tpl("new".into()));
            let dp = replace_layout(&old, &new_seq, &[], LayoutAlgo::Dp).unwrap();
            let gr = replace_layout(&old, &new_seq, &[], LayoutAlgo::Greedy).unwrap();
            prop_assert!(dp.writes.len() <= gr.writes.len());
            for p in [&dp, &gr] {
                let order: Vec<&str> = p
                    .templates
                    .iter()
                    .flatten()
                    .map(|t| t.stage_name.as_str())
                    .collect();
                let want: Vec<&str> = new_seq.iter().map(|t| t.stage_name.as_str()).collect();
                prop_assert_eq!(&order, &want);
                p.selector.validate().unwrap();
            }
            // Inserting one stage rewrites at most the insertion point and
            // everything it displaces (the old stages are packed left, so
            // displacement is bounded by the suffix length).
            prop_assert!(dp.writes.len() <= n_old - insert_at.min(n_old) + 1);
        }
    }
}
