//! Coverage-corpus replay: the witness corpus `rp4-cover` enumerates for
//! each bundled program is driven through all three runtimes — the
//! interpreter (reference semantics), the compiled fast path, and the
//! sharded multi-core runtime — and every observable must agree
//! bit-identically per witness.
//!
//! This is the closing of the loop: the corpus claims "this packet with
//! these entries drives the pipeline down path N"; replaying it proves the
//! claim holds on the real devices, for *every* feasible path, including
//! the designs produced by the three in-situ update scripts (which the
//! devices reach through a live mid-stream update, epoch barrier
//! included).

use ipbm::{IpbmSwitch, ShardedSwitch};
use ipsa_bench::{ipsa_sharded_flow, ipsa_sw_flow};
use ipsa_controller::{programs, Rp4Flow};
use ipsa_core::control::Device;
use rp4_cover::{cover_design, replay_witness, CoverOptions, ReplayMode};

/// Shard count for the replay — CI sweeps this via `SHARDS`.
fn shard_count() -> usize {
    std::env::var("SHARDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(2)
}

/// Applies the use-case script (an in-situ update on the live device) —
/// tables stay empty so each witness installs exactly its own entries.
fn program_flow<D: Device>(flow: &mut Rp4Flow<D>, case: Option<usize>) {
    if let Some(i) = case {
        let (_, _, script, _) = programs::use_cases()[i];
        flow.run_script(script, &programs::bundled_sources)
            .expect("use-case script applies");
    }
}

/// Per-table lookup/hit counters plus pipeline stats: the full observable
/// stat surface, compared bit-identically after the whole corpus ran.
fn stat_surface(sw: &IpbmSwitch) -> (ipbm::pm::PipelineStats, u64, Vec<(String, u64, u64)>) {
    let mut tables: Vec<(String, u64, u64)> = sw
        .sm
        .table_names()
        .into_iter()
        .map(|n| {
            let t = &sw.sm.table(&n).expect("named table exists").table;
            (n, t.lookups, t.hits)
        })
        .collect();
    tables.sort();
    (sw.pm.stats, sw.sm.mem_accesses, tables)
}

#[test]
fn corpus_replays_bit_identically_on_all_programs() {
    let shards = shard_count();
    // Base (case None) + the three in-situ update scripts = all four
    // bundled programs.
    for case in [None, Some(0), Some(1), Some(2)] {
        let mut interp = ipsa_sw_flow();
        let mut fast = ipsa_sw_flow();
        let mut sharded: Rp4Flow<ShardedSwitch> = ipsa_sharded_flow(shards);
        program_flow(&mut interp, case);
        program_flow(&mut fast, case);
        program_flow(&mut sharded, case);

        // The coverage gate: every feasible path of the live design must
        // have a witness, within the default budget.
        let cov = cover_design(&interp.design, None, &CoverOptions::default());
        assert!(
            cov.fully_covered(),
            "case {case:?}: {}/{} paths witnessed (overflowed: {}); skips: {:?}",
            cov.covered(),
            cov.feasible(),
            cov.overflowed,
            cov.paths
                .iter()
                .filter_map(|p| p.skip.as_ref().map(|s| s.reason.clone()))
                .collect::<Vec<_>>()
        );
        assert!(cov.feasible() > 0, "case {case:?} has no paths");

        for path in &cov.paths {
            let w = path.witness.as_ref().expect("fully covered");
            // One library call per runtime — the same `replay_witness` the
            // fleet's canary verification uses (apply entries, inject,
            // drain, tear back down).
            let out_i =
                replay_witness(&mut interp.device, w, ReplayMode::Run).expect("replay runs");
            let out_f =
                replay_witness(&mut fast.device, w, ReplayMode::RunBatch).expect("replay runs");
            let out_s =
                replay_witness(&mut sharded.device, w, ReplayMode::RunBatch).expect("replay runs");
            // The witness's teardown (inside `replay_witness`) re-opened
            // the epoch, so probe compilability directly: `run_batch`
            // begins with this same `ensure_compiled`, so success here
            // proves the drain above ran compiled rather than falling
            // back to the interpreter.
            assert!(
                {
                    let d = &mut fast.device;
                    d.pm.ensure_compiled(&d.linkage, &d.sm)
                },
                "fast path must run compiled, not fall back"
            );
            // A witness is one flow, so even the sharded runtime preserves
            // exact order: outputs must be bit-identical (bytes and every
            // metadata field), packet for packet.
            assert_eq!(
                out_i, out_f,
                "case {case:?} path {} [{}]: fast path diverged",
                path.index, path.description
            );
            assert_eq!(
                out_i, out_s,
                "case {case:?} path {} [{}]: sharded runtime diverged",
                path.index, path.description
            );
        }

        // After the whole corpus: the accumulated stat surface of all
        // three runtimes is bit-identical too.
        let si = stat_surface(&interp.device);
        let sf = stat_surface(&fast.device);
        let ss = stat_surface(&sharded.device.master);
        assert_eq!(si, sf, "case {case:?}: fast stat surface diverged");
        assert_eq!(si, ss, "case {case:?}: sharded stat surface diverged");
    }
}
