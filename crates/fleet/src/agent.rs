//! The device agent: one thread owning one [`ShardedSwitch`], serving the
//! fleet protocol from a mailbox.
//!
//! The agent is the device side of the robustness stack:
//!
//! * **At-most-once execution** — a bounded response cache keyed by
//!   sequence number replays the original answer to any duplicate
//!   delivery (wire duplicates *and* controller retries re-sending the
//!   same seq after a lost reply), so a retried `Apply` never applies
//!   twice.
//! * **Master arbitration** — the agent remembers the highest election id
//!   it has ever seen; a mutation carrying a lower id is fenced off with
//!   [`Response::NotMaster`] instead of executed. Reads pass regardless:
//!   a demoted controller may still observe.
//! * **Fault realism** — an envelope's injected delay is served *before*
//!   processing, so a delayed frame occupies the device exactly like a
//!   frame that sat in a real queue: the caller's deadline lapses, the
//!   retry queues behind the sleeper, and the cache absorbs the rerun.

use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::sync::mpsc::Receiver;
use std::thread::JoinHandle;

use ipbm::{IpbmSwitch, ShardedSwitch};
use ipsa_core::control::Device;
use rp4_cover::{replay_witness, ReplayMode};

use crate::proto::{DeviceStats, ElectionId, Request, Response, ResponseFrame};
use crate::wire::Envelope;

/// Entries the response cache retains. Retries arrive within a handful of
/// messages of the original; 128 is generous headroom, bounded so a
/// long-lived link cannot grow memory without limit.
const RESPONSE_CACHE: usize = 128;

/// A spawned agent: its name and the join handle of its serving thread.
/// The thread exits when every [`crate::wire::Link`] sender to its mailbox
/// is dropped.
pub struct AgentHandle {
    /// Device name (as reported by [`Response::Hello`]).
    pub name: String,
    /// Serving thread handle.
    pub handle: JoinHandle<()>,
}

/// Spawns the serving thread for one device.
pub fn spawn_agent(
    name: String,
    device: ShardedSwitch,
    mailbox: Receiver<Envelope>,
) -> AgentHandle {
    let thread_name = name.clone();
    let handle = std::thread::Builder::new()
        .name(format!("fleet-agent-{thread_name}"))
        .spawn(move || serve(thread_name, device, mailbox))
        .expect("spawning an agent thread");
    AgentHandle { name, handle }
}

fn serve(name: String, mut device: ShardedSwitch, mailbox: Receiver<Envelope>) {
    let mut max_election: ElectionId = 0;
    let mut cache: HashMap<u64, ResponseFrame> = HashMap::new();
    let mut cache_order: VecDeque<u64> = VecDeque::new();
    for env in mailbox {
        if let Some(d) = env.delay {
            std::thread::sleep(d);
        }
        let seq = env.frame.seq;
        if let Some(hit) = cache.get(&seq) {
            // Duplicate or retry of an already-executed request: replay
            // the original answer, execute nothing.
            let _ = env.reply_to.send(hit.clone());
            continue;
        }
        let resp = if env.frame.req.is_mutation() && env.frame.election_id < max_election {
            Response::NotMaster {
                active_election_id: max_election,
            }
        } else {
            max_election = max_election.max(env.frame.election_id);
            execute(&name, &mut device, env.frame.req)
        };
        let frame = ResponseFrame { seq, resp };
        cache.insert(seq, frame.clone());
        cache_order.push_back(seq);
        if cache_order.len() > RESPONSE_CACHE {
            if let Some(old) = cache_order.pop_front() {
                cache.remove(&old);
            }
        }
        let _ = env.reply_to.send(frame);
    }
}

fn execute(name: &str, dev: &mut ShardedSwitch, req: Request) -> Response {
    match req {
        Request::Hello => Response::Hello {
            device: name.to_string(),
            epoch: dev.master.pm.epoch(),
        },
        Request::Heartbeat => Response::Pong {
            epoch: dev.master.pm.epoch(),
            staged_open: dev.staged_open(),
        },
        Request::Apply { msgs, staged } => {
            if staged && !dev.staged_open() {
                if let Err(e) = dev.begin_staged() {
                    return Response::Error(e.to_string());
                }
            }
            match dev.apply(&msgs) {
                Ok(report) => Response::Applied(report),
                Err(e) => Response::Error(e.to_string()),
            }
        }
        Request::Commit => match dev.commit_staged() {
            Ok(()) => Response::Done,
            Err(e) => Response::Error(e.to_string()),
        },
        Request::Revert => match dev.revert_staged() {
            Ok(()) => Response::Done,
            Err(e) => Response::Error(e.to_string()),
        },
        Request::Replay(witness) => match replay_witness(dev, &witness, ReplayMode::RunBatch) {
            Ok(out) => Response::Packets(out),
            Err(e) => Response::Error(e.to_string()),
        },
        Request::Stats => Response::Stats(Box::new(DeviceStats {
            name: name.to_string(),
            epoch: dev.master.pm.epoch(),
            report: dev.report(),
            busy_hist: dev.busy_histogram().clone(),
            supervisor: dev.supervisor_stats(),
            live_shards: dev.live_shards(),
            staged_open: dev.staged_open(),
        })),
        Request::Traffic(packets) => {
            for p in packets {
                dev.inject(p);
            }
            Response::Packets(dev.run_batch())
        }
        Request::Fingerprint => Response::Fingerprint(state_fingerprint(&dev.master)),
    }
}

/// A deterministic byte-level digest of every control-plane component a
/// `ControlMsg` can mutate: slot templates, selector, crossbar, drain
/// flag, header linkage, metadata, actions, table schemas + rows + block
/// placement, and the raw memory-pool bytes. Two devices with equal
/// fingerprints hold byte-identical control-plane state.
///
/// Deliberately *excludes* the epoch counter: a staged revert restores the
/// exact bytes but legitimately opens a new epoch (the restored state must
/// recompile), and "byte-identical after failback" is a claim about state,
/// not about how many times it was republished.
pub fn state_fingerprint(sw: &IpbmSwitch) -> String {
    fn js<T: serde::Serialize>(v: &T) -> String {
        serde_json::to_string(v).unwrap_or_else(|e| format!("<unserializable:{e}>"))
    }
    let mut s = String::new();
    let _ = writeln!(s, "draining:{}", sw.pm.draining);
    for (i, slot) in sw.pm.slots.iter().enumerate() {
        let _ = writeln!(s, "slot{i}:{}", js(&slot.template));
    }
    let _ = writeln!(s, "selector:{}", js(&sw.pm.selector));
    let _ = writeln!(s, "crossbar:{}", js(&sw.pm.crossbar));
    let mut headers: Vec<String> = sw.linkage.iter().map(js).collect();
    headers.sort();
    let _ = writeln!(s, "headers:{headers:?}");
    let _ = writeln!(s, "first:{:?}", sw.linkage.first());
    let mut edges = sw.linkage.edges();
    edges.sort();
    let _ = writeln!(s, "edges:{edges:?}");
    let _ = writeln!(s, "metadata:{:?}", sw.sm.metadata);
    let mut actions: Vec<(String, String)> = sw
        .sm
        .actions
        .iter()
        .map(|(k, v)| (k.clone(), js(v)))
        .collect();
    actions.sort();
    let _ = writeln!(s, "actions:{actions:?}");
    let mut names = sw.sm.table_names();
    names.sort();
    for name in names {
        let Some(store) = sw.sm.table(&name) else {
            continue;
        };
        let _ = writeln!(s, "table:{name}:{}", js(&store.table.def));
        for (row, e) in store.table.iter() {
            let _ = writeln!(s, "  row{row}:{}", js(e));
        }
        let _ = writeln!(s, "  blocks:{:?}", sw.sm.blocks_of(&name));
    }
    // The raw pool is megabytes; fold it into an FNV-1a hash per block
    // (seeded with the block's owner) instead of serializing it — the
    // fingerprint needs equality, not reproduction.
    for id in 0..sw.sm.pool.len() {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |byte: u8| {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        };
        if let Some(b) = sw.sm.pool.block(id) {
            for byte in b.owner.as_deref().unwrap_or("").bytes() {
                eat(byte);
            }
        }
        for &byte in sw.sm.pool.block_data(id).unwrap_or(&[]) {
            eat(byte);
        }
        let _ = writeln!(s, "block{id}:{h:016x}");
    }
    s
}
