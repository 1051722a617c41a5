//! Witness-corpus replay as a library call.
//!
//! `bench/tests/coverage.rs` proved the corpus claim — "this packet with
//! these entries drives the pipeline down path N" — by replaying every
//! witness against the real runtimes, but the replay loop lived inside the
//! test. The fleet controller needs the same loop as a first-class
//! operation: the canary phase of a rolling in-situ update replays the
//! corpus through the freshly-updated device and compares against oracle
//! outputs computed on a local reference switch *before* any traffic is
//! trusted to the new design. This module is that loop, generic over
//! [`Device`], so interpreter references, compiled switches, sharded
//! runtimes, and remote fleet agents all replay identically.

use crate::{Coverage, PathWitness};
use ipsa_core::control::{ControlMsg, Device};
use ipsa_core::error::CoreError;
use ipsa_netpkt::packet::Packet;

/// How the device under replay drains its traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayMode {
    /// [`Device::run`] — interpreter reference semantics (the oracle side).
    Run,
    /// [`Device::run_batch`] — the compiled/batched production path.
    RunBatch,
}

/// Inverse of a witness's entry setup: one `DelEntry` per `AddEntry`, so
/// the table state a witness installed is removed before the next witness
/// replays (witnesses are independent; their entries must not compose).
pub fn teardown_of(entries: &[ControlMsg]) -> Vec<ControlMsg> {
    entries
        .iter()
        .filter_map(|m| match m {
            ControlMsg::AddEntry { table, entry } => Some(ControlMsg::DelEntry {
                table: table.clone(),
                key: entry.key.clone(),
            }),
            _ => None,
        })
        .collect()
}

/// Replays one witness through `dev`: applies its entries, injects the
/// packet the required number of times, drains the device in `mode`, then
/// tears the entries back down. Returns every packet the device emitted,
/// in emission order — the caller compares these bit-identically against
/// an oracle's outputs for the same witness.
pub fn replay_witness<D: Device>(
    dev: &mut D,
    w: &PathWitness,
    mode: ReplayMode,
) -> Result<Vec<Packet>, CoreError> {
    if !w.entries.is_empty() {
        dev.apply(&w.entries)?;
    }
    for _ in 0..w.injections {
        dev.inject(w.packet.clone());
    }
    let out = match mode {
        ReplayMode::Run => dev.run(),
        ReplayMode::RunBatch => dev.run_batch(),
    };
    let teardown = teardown_of(&w.entries);
    if !teardown.is_empty() {
        dev.apply(&teardown)?;
    }
    Ok(out)
}

/// Replays a whole coverage corpus through `dev`, one witness at a time,
/// returning the per-path outputs in path order. Paths without a witness
/// (skipped as infeasible/uncoverable) yield an empty output slot, so the
/// result indexes line up with [`Coverage::paths`] and two corpus replays
/// compare element-wise.
pub fn replay_corpus<D: Device>(
    dev: &mut D,
    cov: &Coverage,
    mode: ReplayMode,
) -> Result<Vec<Vec<Packet>>, CoreError> {
    let mut outputs = Vec::with_capacity(cov.paths.len());
    for path in &cov.paths {
        match &path.witness {
            Some(w) => outputs.push(replay_witness(dev, w, mode)?),
            None => outputs.push(Vec::new()),
        }
    }
    Ok(outputs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{cover_design, MAX_WORLDS};
    use ipbm::{IpbmConfig, IpbmSwitch};
    use rp4c::{full_compile, CompilerTarget};

    const PROG: &str = r#"
        headers {
            header ethernet {
                bit<48> dst_addr; bit<48> src_addr; bit<16> ethertype;
                implicit parser(ethertype) { 0x0800: ipv4; }
            }
            header ipv4 {
                bit<4> version; bit<4> ihl; bit<6> dscp; bit<2> ecn;
                bit<16> total_len; bit<16> identification; bit<3> flags;
                bit<13> frag_offset; bit<8> ttl; bit<8> protocol;
                bit<16> hdr_checksum; bit<32> src_addr; bit<32> dst_addr;
            }
        }
        structs { struct m_t { bit<16> nh; } meta; }
        action fwd(bit<16> port) { forward(port); }
        table fib { key = { ipv4.dst_addr: lpm; } actions = { fwd; } size = 16; }
        control rP4_Ingress {
            stage fib_s {
                parser { ipv4; }
                matcher { if (ipv4.isValid()) fib.apply(); else; }
                executor { 1: fwd; default: NoAction; }
            }
        }
        user_funcs { func base { fib_s } ingress_entry: fib_s; }
    "#;

    fn device() -> (IpbmSwitch, Coverage) {
        let prog = rp4_lang::parse(PROG).expect("program parses");
        let c = full_compile(&prog, &CompilerTarget::ipbm()).expect("compiles");
        let mut sw = IpbmSwitch::new(IpbmConfig::default());
        sw.install(&c.design).expect("installs");
        let cov = cover_design(&c.design, None, MAX_WORLDS);
        (sw, cov)
    }

    #[test]
    fn corpus_replay_matches_itself_across_modes() {
        let (mut interp, cov) = device();
        let (mut fast, _) = device();
        assert!(cov.fully_covered());
        assert!(cov.feasible() > 0);
        let a = replay_corpus(&mut interp, &cov, ReplayMode::Run).expect("replay runs");
        let b = replay_corpus(&mut fast, &cov, ReplayMode::RunBatch).expect("replay runs");
        assert_eq!(a, b, "interpreter and batched replay must agree");
        assert!(
            a.iter().any(|out| !out.is_empty()),
            "some path must emit traffic"
        );
    }

    #[test]
    fn replay_tears_its_entries_back_down() {
        let (mut sw, cov) = device();
        let with_entries = cov
            .paths
            .iter()
            .find_map(|p| p.witness.as_ref().filter(|w| !w.entries.is_empty()))
            .expect("a table-hit path exists");
        let before = sw.sm.table("fib").expect("fib exists").table.len();
        replay_witness(&mut sw, with_entries, ReplayMode::Run).expect("replays");
        let after = sw.sm.table("fib").expect("fib exists").table.len();
        assert_eq!(before, after, "witness entries must not leak");
    }
}
