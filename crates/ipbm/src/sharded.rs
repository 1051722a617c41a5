//! Multi-core sharded runtime: N independent shard workers behind an
//! RSS-style flow-hash dispatcher.
//!
//! One core is the ceiling of the epoch-compiled fast path; RMT/PISA-lineage
//! hardware scales by replicating pipelines, and software dataplanes (the
//! DPDK/VPP lineage) scale by hashing flows across per-core shards with
//! RCU-published configuration. [`ShardedSwitch`] reproduces that shape on
//! top of the existing modules:
//!
//! * **Dispatch** — [`ipsa_core::hash::flow_hash`] over the raw frame maps
//!   every packet of a flow to the same shard, so per-flow packet order is
//!   preserved end to end (each worker is FIFO, and a flow never crosses
//!   workers). Inter-flow order across shards is explicitly unspecified,
//!   exactly as in a multi-queue NIC.
//! * **Shard worker** — an OS thread owning an `Arc<CompiledPath>`, its own
//!   [`EvalScratch`], [`TrafficManager`], per-slot stats, and a clone of the
//!   [`StorageModule`] (tables are read-mostly on the data plane; the only
//!   per-packet writes are entry hit counters, which accumulate shard-
//!   locally and fold back at barriers as deltas). The clone shares every
//!   pool block with the master (blocks are copy-on-write), so a publish
//!   copies table indexes, not block bytes.
//! * **Epoch barrier** — every data batch ends with a barrier that folds
//!   every live shard, so between batches no shard has a packet in flight.
//!   Control batches go through [`Device::apply`]: quiesce only the shards
//!   that still have packets in flight (in steady state none, so no
//!   barrier is spent) and apply the `ControlMsg` batch once against the
//!   master SM/CCM state. The next data batch recompiles if the epoch
//!   moved (entry-only batches do not move it, and the published
//!   `Arc<CompiledPath>` is reused) and publishes the `Arc<CompiledPath>` +
//!   SM snapshot to all shards (RCU-style: workers swap atomically between
//!   packets, they never observe a half-applied batch). Mid-stream
//!   rP4 updates therefore stay hitless: packets arriving during the
//!   update wait in the CM's RX rings and are processed under the *new*
//!   epoch, none are lost or run against stale state.
//!
//! The master [`IpbmSwitch`] stays the single authority for control-plane
//! state and the aggregation target for every statistic, so `report()` and
//! the differential observability checks read one coherent view: the merged
//! stats of N shards equal the 1-shard (and interpreter) result.
//!
//! * **Supervision** — a worker that misses the drain timeout, whose
//!   channel disconnects, or that reports a protocol fault is *quarantined*
//!   (typed [`ShardFault`], never a process panic): its sender is dropped,
//!   its reply generation is retired so late answers are discarded, and its
//!   RSS bucket rehashes deterministically across the survivors (per-flow
//!   order holds — a flow still maps to exactly one shard). A replacement
//!   worker respawns at the next epoch publish; if every shard is lost the
//!   master interpreter carries the traffic, the same degradation the fast
//!   path already uses for a failed compile.
//! * **Elastic scaling** — with an [`AutoscaleConfig`] installed, the
//!   supervisor turns the per-shard busy time it already folds back at
//!   every barrier into grow/shrink decisions: sustained overload raises
//!   the target worker count (the respawn path spawns the newcomers at the
//!   next epoch publish), sustained idleness retires the highest-index
//!   workers hitlessly (post-barrier, nothing in flight, no packets lost).
//!   Both transitions move whole RSS buckets between fully-drained
//!   batches, so per-flow order holds across every resize exactly as it
//!   does across a quarantine rehash.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use ipsa_core::control::{ApplyReport, ControlMsg, Device};
use ipsa_core::error::CoreError;
use ipsa_core::hash::flow_hash;
use ipsa_netpkt::linkage::HeaderLinkage;
use ipsa_netpkt::packet::Packet;

use crate::fast::{self, CompiledPath, EvalScratch, SlotStatsMut};
use crate::hist::BusyHistogram;
use crate::pm::{PipelineStats, TmStats, TrafficManager, TM_QUEUE_CAPACITY};
use crate::resilience::{FaultPlan, ShardFault, ShardFaultKind, SupervisorStats};
use crate::sm::StorageModule;
use crate::switch::{IpbmConfig, IpbmSwitch, SwitchReport};
use crate::tsp::SlotStats;

/// How long a barrier waits for each shard before declaring it wedged.
const DEFAULT_DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// Everything a shard needs for one control-plane epoch, published
/// atomically (a worker swaps to it between packets, never mid-packet).
struct ShardEpoch {
    compiled: Arc<CompiledPath>,
    linkage: Arc<HeaderLinkage>,
    /// Clean-slate SM clone: observability zeroed, entry counters at the
    /// master's current (fold-merged) values.
    sm: StorageModule,
}

/// Master → worker protocol. Per-worker channels are FIFO, which is what
/// makes publication race-free: a `Publish` always precedes every `Batch`
/// dispatched under its epoch.
enum ToShard {
    Publish(Box<ShardEpoch>),
    Batch(Vec<Packet>),
    /// Barrier collect, carrying this barrier's fault directives for the
    /// worker (an injected crash, a delayed reply, or a busy-time spike).
    /// The master never *uses* its knowledge of an injected kill — it must
    /// detect the death through the same timeout path a real crash would
    /// take.
    Collect {
        kill: bool,
        delay: Option<Duration>,
        spike: Option<u64>,
    },
    Shutdown,
}

/// Per-table stat delta a shard reports at a barrier.
struct TableDelta {
    /// Slab index in the master SM (stable across an epoch).
    store: usize,
    lookups: u64,
    hits: u64,
    /// Sparse `(row, delta)` entry-counter increments.
    counters: Vec<(usize, u64)>,
}

/// Worker → master barrier reply: emitted packets in processing order plus
/// every statistic accumulated since the previous collect, as deltas.
struct ShardReply {
    shard: usize,
    /// Worker incarnation: replies from a retired (quarantined) generation
    /// are discarded, so a delayed answer can never double-count.
    gen: u64,
    out: Vec<Packet>,
    stats: PipelineStats,
    tm: TmStats,
    slot_stats: Vec<SlotStats>,
    mem_accesses: u64,
    tables: Vec<TableDelta>,
    /// Nanoseconds this shard spent processing packets (for the scaling
    /// bench's critical-path aggregate throughput).
    busy_ns: u64,
    /// Packets the worker itself declared lost (protocol violations).
    lost: u64,
    /// Emptied batch-bucket buffers round-tripped back to the master for
    /// reuse, so steady-state RSS dispatch allocates no bucket storage.
    spent: Vec<Vec<Packet>>,
    /// A protocol fault the worker survived locally; the supervisor
    /// quarantines it after folding this reply.
    fault: Option<String>,
}

struct Worker {
    /// None once quarantined: dropping the sender closes the channel, which
    /// is what tells a surviving-but-wedged worker to exit.
    tx: Option<Sender<ToShard>>,
    /// None once quarantined (detached — joining a wedged thread would
    /// hang the supervisor on exactly the fault it just contained).
    handle: Option<JoinHandle<()>>,
    /// Incarnation number, bumped at quarantine.
    gen: u64,
    alive: bool,
    /// Packets dispatched since the last folded barrier reply — charged to
    /// `lost_packets` if the worker dies before replying.
    inflight: u64,
}

/// Hysteresis policy for elastic shard scaling.
///
/// The decision signal is the mean per-live-shard busy time folded back at
/// each data barrier. A barrier whose signal is at or above `grow_busy_ns`
/// extends the *over* streak; at or below `shrink_busy_ns` extends the
/// *under* streak; in between resets both. Once a streak reaches its
/// `*_after` length the target worker count steps by one (bounded by
/// `min_shards..=max_shards`) and the streak restarts, so scaling is
/// gradual and a noisy signal between the two thresholds changes nothing.
#[derive(Debug, Clone, Copy)]
pub struct AutoscaleConfig {
    /// Lower bound on the target worker count (≥ 1).
    pub min_shards: usize,
    /// Upper bound on the target worker count (≥ `min_shards`).
    pub max_shards: usize,
    /// Mean per-shard busy ns at/above which a barrier counts as overload.
    pub grow_busy_ns: u64,
    /// Mean per-shard busy ns at/below which a barrier counts as idle.
    /// Must be strictly below `grow_busy_ns` (the hysteresis band).
    pub shrink_busy_ns: u64,
    /// Consecutive overloaded barriers before growing by one worker.
    pub grow_after: u32,
    /// Consecutive idle barriers before shrinking by one worker.
    pub shrink_after: u32,
}

impl AutoscaleConfig {
    fn validate(&self) -> Result<(), CoreError> {
        if self.min_shards == 0 {
            return Err(CoreError::Config(
                "autoscale min_shards must be at least 1".into(),
            ));
        }
        if self.max_shards < self.min_shards {
            return Err(CoreError::Config(format!(
                "autoscale max_shards ({}) below min_shards ({})",
                self.max_shards, self.min_shards
            )));
        }
        if self.shrink_busy_ns >= self.grow_busy_ns {
            return Err(CoreError::Config(format!(
                "autoscale shrink threshold ({} ns) must be below grow threshold ({} ns)",
                self.shrink_busy_ns, self.grow_busy_ns
            )));
        }
        if self.grow_after == 0 || self.shrink_after == 0 {
            return Err(CoreError::Config(
                "autoscale streak lengths must be at least 1".into(),
            ));
        }
        Ok(())
    }
}

/// Cumulative elastic-scaling counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct ScaleStats {
    /// Target increments decided by the autoscaler.
    pub grows: u64,
    /// Target decrements decided by the autoscaler.
    pub shrinks: u64,
    /// Workers retired hitlessly during shrinks.
    pub retired: u64,
}

/// The sharded IPSA runtime: an [`IpbmSwitch`] master plus N shard workers.
pub struct ShardedSwitch {
    /// The authoritative single-core switch: CM port rings, control-plane
    /// state (PM templates/selector/crossbar, SM, linkage), and the target
    /// every shard statistic folds into.
    pub master: IpbmSwitch,
    workers: Vec<Worker>,
    reply_rx: Receiver<ShardReply>,
    /// Kept for respawning replacement workers.
    reply_tx: Sender<ShardReply>,
    /// Desired live worker count. Fixed at the construction count until an
    /// autoscaler moves it; worker slots beyond the target stay retired.
    target: usize,
    ports: usize,
    slots: usize,
    drain_timeout: Duration,
    /// Elastic-scaling policy (None = fixed shard count).
    autoscale: Option<AutoscaleConfig>,
    /// Busy ns folded since the last autoscale decision.
    interval_busy: u64,
    /// Packets folded since the last autoscale decision.
    interval_pkts: u64,
    /// Consecutive barriers at/above the grow threshold.
    over_streak: u32,
    /// Consecutive barriers at/below the shrink threshold.
    under_streak: u32,
    /// Cumulative scaling counters.
    scaling: ScaleStats,
    /// Master state changed since the last publication.
    dirty: bool,
    /// Compilation failed for the current epoch: the master's interpreter
    /// carries the traffic until a later epoch compiles again.
    fallback: bool,
    /// The compiled path last published, reused while the master's epoch
    /// has not moved (entry-only batches keep it valid).
    published: Option<Arc<CompiledPath>>,
    /// Cumulative per-shard busy time, ns.
    busy_ns: Vec<u64>,
    /// Log2 distribution of per-batch busy-time samples, folded at
    /// barriers (one sample per shard reply) — the fleet health signal.
    busy_hist: BusyHistogram,
    /// Barriers served so far (the `K` coordinate of fault directives).
    barrier: u64,
    /// Test-only fault-injection plan (default: inert).
    faults: FaultPlan,
    /// Epoch publishes left to skip respawning (fault injection).
    defer_respawns: u64,
    /// Cumulative supervision counters.
    supervisor: SupervisorStats,
    /// Typed quarantine log, drained by [`ShardedSwitch::take_shard_faults`].
    faults_log: Vec<ShardFault>,
    /// Reusable RX drain buffer (capacity persists across batches).
    rx_buf: Vec<Packet>,
    /// Retired bucket buffers (from worker round-trips and empty-bucket
    /// skips) awaiting reuse by the next RSS pass.
    spare_buckets: Vec<Vec<Packet>>,
    name: String,
}

/// Bound on pooled bucket buffers. Steady state needs roughly one bucket
/// per shard per in-flight batch plus the round-tripped output buffers;
/// beyond that, retiring extras keeps a traffic spike from pinning memory.
const SPARE_BUCKET_CAP: usize = 64;

impl std::fmt::Debug for ShardedSwitch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedSwitch")
            .field("shards", &self.workers.len())
            .field("target", &self.target)
            .field("live", &self.live_shards())
            .field("dirty", &self.dirty)
            .field("fallback", &self.fallback)
            .finish_non_exhaustive()
    }
}

/// Spawns one shard worker. A spawn failure (resource exhaustion) yields a
/// dead-at-birth worker the supervisor retries at the next publish instead
/// of panicking.
fn spawn_worker(
    shard: usize,
    gen: u64,
    ports: usize,
    slots: usize,
    reply: Sender<ShardReply>,
) -> Worker {
    let (tx, rx) = unbounded::<ToShard>();
    match std::thread::Builder::new()
        .name(format!("ipbm-shard-{shard}"))
        .spawn(move || worker_loop(shard, gen, ports, slots, &rx, &reply))
    {
        Ok(handle) => Worker {
            tx: Some(tx),
            handle: Some(handle),
            gen,
            alive: true,
            inflight: 0,
        },
        Err(_) => Worker {
            tx: None,
            handle: None,
            gen,
            alive: false,
            inflight: 0,
        },
    }
}

impl ShardedSwitch {
    /// Pops a pooled bucket buffer, or allocates the pool's first ones.
    fn take_bucket(&mut self) -> Vec<Packet> {
        self.spare_buckets.pop().unwrap_or_default()
    }

    /// Returns an emptied bucket buffer to the pool (dropped beyond the
    /// [`SPARE_BUCKET_CAP`] bound).
    fn recycle_bucket(&mut self, mut bucket: Vec<Packet>) {
        bucket.clear();
        if self.spare_buckets.len() < SPARE_BUCKET_CAP {
            self.spare_buckets.push(bucket);
        }
    }

    /// RSS dispatch over the live shard list: `flow_hash % live.len()`
    /// indexes into the survivors, so with every shard healthy this is the
    /// classic `flow_hash % shards`, and after a quarantine flows rehash
    /// deterministically across the remainder. Per-flow order is preserved
    /// in both regimes — a flow maps to exactly one shard, whose channel is
    /// FIFO. Drains `pkts` in one pass into pooled bucket buffers (workers
    /// hand them back emptied with their barrier reply), so steady-state
    /// dispatch allocates no bucket storage.
    fn bucket_packets(
        &mut self,
        pkts: &mut Vec<Packet>,
        live: &[usize],
    ) -> Vec<(usize, Vec<Packet>)> {
        let mut buckets: Vec<Vec<Packet>> = (0..live.len()).map(|_| self.take_bucket()).collect();
        for pkt in pkts.drain(..) {
            let b = (flow_hash(&pkt.data) % live.len() as u64) as usize;
            buckets[b].push(pkt);
        }
        live.iter().copied().zip(buckets).collect()
    }
}

impl ShardedSwitch {
    /// Builds a sharded switch with `shards` workers over `cfg`.
    ///
    /// # Panics
    /// On an invalid configuration (zero shards, ports, or slots); use
    /// [`ShardedSwitch::try_new`] to handle that as an error.
    pub fn new(cfg: IpbmConfig, shards: usize) -> Self {
        Self::try_new(cfg, shards).expect("invalid sharded-switch config")
    }

    /// Builds a sharded switch with `shards` workers over `cfg`, rejecting
    /// unusable parameters with [`CoreError::Config`]. (Part of the
    /// silent-clamp sweep: `shards=0` used to be quietly rewritten to 1.)
    pub fn try_new(cfg: IpbmConfig, shards: usize) -> Result<Self, CoreError> {
        if shards == 0 {
            return Err(CoreError::Config(
                "sharded switch needs at least one shard (shards=0)".into(),
            ));
        }
        let ports = cfg.ports;
        let slots = cfg.slots;
        let master = IpbmSwitch::try_new(cfg)?;
        let (reply_tx, reply_rx) = unbounded::<ShardReply>();
        let workers = (0..shards)
            .map(|shard| spawn_worker(shard, 0, ports, slots, reply_tx.clone()))
            .collect();
        Ok(ShardedSwitch {
            master,
            workers,
            reply_rx,
            reply_tx,
            target: shards,
            ports,
            slots,
            drain_timeout: DEFAULT_DRAIN_TIMEOUT,
            autoscale: None,
            interval_busy: 0,
            interval_pkts: 0,
            over_streak: 0,
            under_streak: 0,
            scaling: ScaleStats::default(),
            dirty: true,
            fallback: false,
            published: None,
            busy_ns: vec![0; shards],
            busy_hist: BusyHistogram::default(),
            barrier: 0,
            faults: FaultPlan::default(),
            defer_respawns: 0,
            supervisor: SupervisorStats::default(),
            faults_log: Vec::new(),
            rx_buf: Vec::new(),
            spare_buckets: Vec::new(),
            name: format!("ipbm-sharded-{shards}"),
        })
    }

    /// Number of shard worker slots ever created (live, quarantined, or
    /// retired by a shrink).
    pub fn shards(&self) -> usize {
        self.workers.len()
    }

    /// Number of live (non-quarantined, non-retired) shard workers.
    pub fn live_shards(&self) -> usize {
        self.workers.iter().filter(|w| w.alive).count()
    }

    /// The worker count the supervisor is currently steering toward.
    pub fn target_shards(&self) -> usize {
        self.target
    }

    /// Shard ids currently live, ascending.
    fn live_ids(&self) -> Vec<usize> {
        (0..self.workers.len())
            .filter(|&s| self.workers[s].alive)
            .collect()
    }

    /// Installs (or removes, with `None`) the elastic-scaling policy. The
    /// current target is clamped into the policy's bounds, so enabling
    /// autoscale on an out-of-range fleet resizes it at the next batch.
    pub fn set_autoscale(&mut self, cfg: Option<AutoscaleConfig>) -> Result<(), CoreError> {
        if let Some(c) = &cfg {
            c.validate()?;
            self.target = self.target.clamp(c.min_shards, c.max_shards);
            self.dirty = true;
        }
        self.autoscale = cfg;
        self.over_streak = 0;
        self.under_streak = 0;
        self.interval_busy = 0;
        self.interval_pkts = 0;
        Ok(())
    }

    /// Cumulative elastic-scaling counters.
    pub fn scale_stats(&self) -> ScaleStats {
        self.scaling
    }

    /// Cumulative supervision counters.
    pub fn supervisor_stats(&self) -> SupervisorStats {
        self.supervisor
    }

    /// Epoch barriers served so far. The next quiesce is barrier
    /// `barriers() + 1` — the `K` a fault directive targets. A control
    /// batch with no packets in flight spends none.
    pub fn barriers(&self) -> u64 {
        self.barrier
    }

    /// Drains the typed quarantine log (each entry one [`ShardFault`]).
    pub fn take_shard_faults(&mut self) -> Vec<ShardFault> {
        std::mem::take(&mut self.faults_log)
    }

    /// Installs a deterministic fault-injection plan (test-only surface):
    /// shard-kill/delay directives act at barriers, compile poisoning at
    /// epoch publishes, and `fail_msg_at` is forwarded to the master's
    /// transactional apply.
    #[doc(hidden)]
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.defer_respawns = plan.defer_respawns;
        self.master.set_fault_plan(plan.clone());
        self.faults = plan;
    }

    /// Overrides the barrier timeout (bounded drain).
    pub fn set_drain_timeout(&mut self, timeout: Duration) {
        self.drain_timeout = timeout;
    }

    /// True when traffic currently runs on the shards' compiled paths (as
    /// opposed to the master interpreter fallback after a failed compile).
    pub fn on_compiled_path(&self) -> bool {
        !self.fallback
    }

    /// Cumulative busy time per shard, nanoseconds — the scaling bench's
    /// critical-path input (aggregate rate = packets / max shard busy).
    pub fn shard_busy_ns(&self) -> &[u64] {
        &self.busy_ns
    }

    /// The log2-bucketed distribution of per-batch busy-time samples, one
    /// sample folded per shard barrier reply. Where [`Self::shard_busy_ns`]
    /// totals and the autoscaler's p50/p99 proxy summarize, this keeps the
    /// whole shape — the signal the fleet health checker compares across
    /// devices (and merges fleet-wide, losslessly).
    pub fn busy_histogram(&self) -> &BusyHistogram {
        &self.busy_hist
    }

    /// Installs a complete compiled design (initial load).
    pub fn install(
        &mut self,
        design: &ipsa_core::template::CompiledDesign,
    ) -> Result<ApplyReport, CoreError> {
        self.apply(&ipsa_core::control::full_install_msgs(design))
    }

    /// Opens a staged control-plane transaction on the master (see
    /// [`IpbmSwitch::begin_staged`]). Purely a bookkeeping change — shards
    /// keep forwarding on their published epoch until the next barrier.
    pub fn begin_staged(&mut self) -> Result<(), CoreError> {
        self.master.begin_staged()
    }

    /// True while a staged transaction is open on the master.
    pub fn staged_open(&self) -> bool {
        self.master.staged_open()
    }

    /// Commits the open staged transaction (see
    /// [`IpbmSwitch::commit_staged`]). The shards already track the staged
    /// epochs (each staged batch republished like any other), so commit
    /// publishes nothing new.
    pub fn commit_staged(&mut self) -> Result<(), CoreError> {
        self.master.commit_staged()
    }

    /// Reverts the open staged transaction byte-identically (see
    /// [`IpbmSwitch::revert_staged`]): shards with packets in flight
    /// quiesce first, the master rewinds, and the next batch republishes
    /// the pre-transaction state to every worker.
    pub fn revert_staged(&mut self) -> Result<(), CoreError> {
        self.quiesce_inflight();
        self.master.revert_staged()?;
        self.dirty = true;
        Ok(())
    }

    /// The compiled fast path last published to the shards, if any.
    pub fn published(&self) -> Option<&CompiledPath> {
        self.published.as_deref()
    }

    /// Observability snapshot (the master's fold-merged view).
    pub fn report(&self) -> SwitchReport {
        self.master.report()
    }

    /// Quarantines a shard worker: retire its reply generation (late
    /// answers become stale), drop its sender (a surviving-but-wedged
    /// worker exits once the channel closes), detach its thread handle
    /// (joining a wedged thread would hang the supervisor on the very fault
    /// it just contained), and charge its in-flight packets as lost. The
    /// next epoch publish respawns a replacement.
    fn quarantine(&mut self, shard: usize, kind: ShardFaultKind) {
        let Some(w) = self.workers.get_mut(shard) else {
            return;
        };
        if !w.alive {
            return;
        }
        w.alive = false;
        w.gen += 1;
        w.tx = None;
        drop(w.handle.take());
        let lost = std::mem::take(&mut w.inflight);
        self.supervisor.lost_packets += lost;
        self.supervisor.quarantined += 1;
        self.dirty = true; // next batch republishes (and respawns)
        self.faults_log.push(ShardFault { shard, kind });
    }

    /// Gracefully retires one worker during an elastic shrink. Unlike
    /// [`ShardedSwitch::quarantine`] this is not a fault: it runs
    /// post-barrier with nothing in flight, so no packets are lost, no
    /// fault is logged, and the slot is simply parked (a later grow
    /// respawns into it). The generation still retires so a straggling
    /// reply can never double-count.
    fn retire(&mut self, shard: usize) {
        let Some(w) = self.workers.get_mut(shard) else {
            return;
        };
        if !w.alive {
            return;
        }
        debug_assert_eq!(w.inflight, 0, "retire runs post-quiesce");
        w.alive = false;
        w.gen += 1;
        if let Some(tx) = w.tx.take() {
            let _ = tx.send(ToShard::Shutdown);
        }
        drop(w.handle.take());
        // Anything still uncollected (impossible post-quiesce, but a
        // quarantine race could leave residue) is charged as lost rather
        // than silently forgotten.
        self.supervisor.lost_packets += std::mem::take(&mut w.inflight);
        self.scaling.retired += 1;
    }

    /// Brings the worker fleet to the current target: retires live workers
    /// beyond it (hitless shrink), respawns quarantined slots below it, and
    /// spawns brand-new slots for growth — unless an injected deferral is
    /// holding the switch degraded.
    fn reconcile_workers(&mut self) {
        let target = self.target;
        let shrink_needed = self.workers.iter().skip(target).any(|w| w.alive);
        let grow_needed =
            self.workers.len() < target || self.workers.iter().take(target).any(|w| !w.alive);
        if !shrink_needed && !grow_needed {
            return;
        }
        if self.defer_respawns > 0 {
            self.defer_respawns -= 1;
            return;
        }
        for shard in target..self.workers.len() {
            if self.workers[shard].alive {
                self.retire(shard);
            }
        }
        for shard in 0..target.min(self.workers.len()) {
            if self.workers[shard].alive {
                continue;
            }
            let gen = self.workers[shard].gen;
            self.workers[shard] =
                spawn_worker(shard, gen, self.ports, self.slots, self.reply_tx.clone());
            if self.workers[shard].alive {
                self.supervisor.respawned += 1;
            }
        }
        while self.workers.len() < target {
            let shard = self.workers.len();
            self.workers.push(spawn_worker(
                shard,
                0,
                self.ports,
                self.slots,
                self.reply_tx.clone(),
            ));
            if self.busy_ns.len() < self.workers.len() {
                self.busy_ns.push(0);
            }
        }
    }

    /// Publishes the master's current epoch to every live shard, respawning
    /// quarantined workers first (recovery happens at the epoch publish, so
    /// a killed shard is back within two epochs). The compiled path is
    /// rebuilt only when the epoch moved since the last publish; the SM
    /// snapshot always ships. On compile failure the master interpreter
    /// takes over until a later epoch compiles (the single-core switch falls
    /// back the same way), so a broken program degrades throughput, not
    /// correctness.
    fn republish(&mut self) {
        self.reconcile_workers();
        let pm = &self.master.pm;
        let reusable = self
            .published
            .as_ref()
            .filter(|cp| cp.epoch == pm.epoch())
            .cloned();
        let compiled = reusable.or_else(|| {
            if self.faults.poison_compile_at_epoch == Some(pm.epoch()) {
                return None;
            }
            fast::compile(
                &pm.slots,
                &pm.selector,
                &pm.crossbar,
                &self.master.sm,
                &self.master.linkage,
                pm.epoch(),
            )
            .ok()
            .map(Arc::new)
        });
        self.published.clone_from(&compiled);
        match compiled {
            Some(compiled) => {
                let linkage = Arc::new(self.master.linkage.clone());
                let mut dead: Vec<usize> = Vec::new();
                for shard in 0..self.workers.len() {
                    let Some(tx) = self.workers[shard].tx.as_ref() else {
                        continue;
                    };
                    let mut sm = self.master.sm.clone();
                    sm.reset_observability();
                    let ep = ShardEpoch {
                        compiled: Arc::clone(&compiled),
                        linkage: Arc::clone(&linkage),
                        sm,
                    };
                    if tx.send(ToShard::Publish(Box::new(ep))).is_err() {
                        dead.push(shard);
                    }
                }
                for shard in dead {
                    self.quarantine(shard, ShardFaultKind::Disconnected);
                }
                self.fallback = false;
                // Stay dirty while any shard below the target is missing
                // so the next batch retries the respawn; clean once at
                // target strength (retired slots beyond it don't count).
                self.dirty = self.workers.len() < self.target
                    || self.workers.iter().take(self.target).any(|w| !w.alive);
            }
            None => {
                self.fallback = true;
            }
        }
    }

    /// The epoch barrier's drain half over every live shard.
    fn quiesce(&mut self) {
        let targets = self.live_ids();
        self.collect_from(&targets);
    }

    /// The control path's drain: only live shards with packets in flight.
    /// Every data batch ends with [`Self::quiesce`], so between batches
    /// this set is empty and a control message spends no barrier.
    fn quiesce_inflight(&mut self) {
        let targets: Vec<usize> = (0..self.workers.len())
            .filter(|&s| self.workers[s].alive && self.workers[s].inflight > 0)
            .collect();
        self.collect_from(&targets);
    }

    /// One barrier round over `targets`: ask each for its pending output
    /// and stat deltas, wait (bounded) for the replies, fold them in shard
    /// order. Because each worker processes its channel FIFO and batches
    /// synchronously, a returned `Collect` proves the shard has finished
    /// every packet dispatched before it. A shard that disconnects, misses
    /// the deadline, or reports a protocol fault is quarantined — never a
    /// process panic.
    fn collect_from(&mut self, targets: &[usize]) {
        if targets.is_empty() {
            return;
        }
        self.barrier += 1;
        let barrier = self.barrier;
        let mut expected: Vec<usize> = Vec::new();
        for &shard in targets {
            let kill = self.faults.kill_directive(shard, barrier);
            let delay = self.faults.delay_directive(shard, barrier);
            let spike = self.faults.spike_directive(shard, barrier);
            let sent = self.workers[shard]
                .tx
                .as_ref()
                .is_some_and(|tx| tx.send(ToShard::Collect { kill, delay, spike }).is_ok());
            if sent {
                expected.push(shard);
            } else {
                self.quarantine(shard, ShardFaultKind::Disconnected);
            }
        }
        let deadline = Instant::now() + self.drain_timeout;
        // Sized by the full worker-slot count, not a construction-time
        // shard count: elastic growth means reply indices can exceed any
        // count captured before this barrier.
        let mut replies: Vec<Option<ShardReply>> = (0..self.workers.len()).map(|_| None).collect();
        let mut awaiting = expected.len();
        while awaiting > 0 {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            match self.reply_rx.recv_timeout(deadline - now) {
                Ok(r) => {
                    let fresh = r.shard < replies.len()
                        && expected.contains(&r.shard)
                        && self
                            .workers
                            .get(r.shard)
                            .is_some_and(|w| w.alive && w.gen == r.gen)
                        && replies[r.shard].is_none();
                    if fresh {
                        let shard = r.shard;
                        replies[shard] = Some(r);
                        awaiting -= 1;
                    } else {
                        // A retired generation answering late (or twice):
                        // discard, or its packets would double-count.
                        self.supervisor.stale_replies += 1;
                    }
                }
                Err(_) => break, // deadline passed mid-wait
            }
        }
        for &shard in &expected {
            match replies[shard].take() {
                Some(r) => {
                    let fault = r.fault.clone();
                    self.fold(r);
                    if let Some(detail) = fault {
                        self.quarantine(shard, ShardFaultKind::Protocol(detail));
                    }
                }
                None => self.quarantine(shard, ShardFaultKind::DrainTimeout(self.drain_timeout)),
            }
        }
    }

    /// Sends one RSS bucket to a shard, tracking it as in-flight. If the
    /// worker's channel is gone the shard is quarantined and the bucket is
    /// handed back intact for rehashing.
    fn dispatch(&mut self, shard: usize, bucket: Vec<Packet>) -> Result<(), Vec<Packet>> {
        let n = bucket.len() as u64;
        let Some(tx) = self.workers.get(shard).and_then(|w| w.tx.clone()) else {
            self.quarantine(shard, ShardFaultKind::Disconnected);
            return Err(bucket);
        };
        match tx.send(ToShard::Batch(bucket)) {
            Ok(()) => {
                self.workers[shard].inflight += n;
                Ok(())
            }
            Err(e) => {
                self.quarantine(shard, ShardFaultKind::Disconnected);
                match e.0 {
                    ToShard::Batch(b) => Err(b),
                    _ => unreachable!("dispatch sends Batch"),
                }
            }
        }
    }

    /// The front half of a sharded batch: handles the draining and
    /// interpreter-fallback cases (`Err` carries their finished output) or
    /// returns `(shard, bucket)` RSS assignments over the live shards.
    #[allow(clippy::result_large_err)]
    fn pre_batch(&mut self) -> Result<Vec<(usize, Vec<Packet>)>, Vec<Packet>> {
        if self.master.pm.draining {
            return Err(self.master.cm.collect_tx());
        }
        if self.dirty || self.fallback {
            self.republish();
        }
        if self.fallback {
            self.dirty = true; // master counters advance under the interpreter
            return Err(self.master.run());
        }
        let live = self.live_ids();
        if live.is_empty() {
            // Every worker is lost and respawn deferred (or failing): the
            // master interpreter degrades gracefully, exactly as it does
            // for an epoch that will not compile.
            self.supervisor.degraded_batches += 1;
            self.dirty = true;
            return Err(self.master.run());
        }
        let mut pkts = std::mem::take(&mut self.rx_buf);
        self.master.cm.rx_burst(usize::MAX, &mut pkts);
        let work = self.bucket_packets(&mut pkts, &live);
        self.rx_buf = pkts;
        Ok(work)
    }

    /// Completes a batch after its initial dispatch: buckets bounced by a
    /// dead worker rehash across the survivors (the whole bucket moves
    /// before any of its packets run, so per-flow order holds), the barrier
    /// folds every live shard, and — only if no shard survived — the master
    /// interpreter carries the remainder.
    fn finish_batch(&mut self, mut leftover: Vec<Packet>) -> Vec<Packet> {
        while !leftover.is_empty() {
            let live = self.live_ids();
            if live.is_empty() {
                break;
            }
            let work = self.bucket_packets(&mut leftover, &live);
            for (shard, bucket) in work {
                if bucket.is_empty() {
                    self.recycle_bucket(bucket);
                    continue;
                }
                if let Err(mut b) = self.dispatch(shard, bucket) {
                    leftover.append(&mut b);
                    self.recycle_bucket(b);
                }
            }
        }
        self.quiesce();
        self.autoscale_tick();
        if leftover.is_empty() {
            self.master.cm.collect_tx()
        } else {
            self.supervisor.degraded_batches += 1;
            self.dirty = true;
            let mut out = self.master.cm.collect_tx();
            for p in leftover {
                self.master.cm.inject(p);
            }
            out.extend(self.master.run());
            out
        }
    }

    /// One autoscale decision per data batch, taken right after the
    /// batch's barrier has folded every live shard. Compares the mean
    /// per-live-shard busy time against the hysteresis thresholds and
    /// steps the target by one once a streak completes; the actual resize
    /// happens at the next epoch publish (grow through the respawn path,
    /// shrink by retiring the highest-index workers), between fully
    /// drained batches, so per-flow order is never at risk.
    fn autoscale_tick(&mut self) {
        let busy = std::mem::take(&mut self.interval_busy);
        let pkts = std::mem::take(&mut self.interval_pkts);
        let Some(cfg) = self.autoscale else {
            return;
        };
        if pkts == 0 {
            // A trafficless barrier carries no load signal either way.
            return;
        }
        let live = (self.live_shards().max(1)) as u64;
        let per_shard = busy / live;
        if per_shard >= cfg.grow_busy_ns {
            self.over_streak += 1;
            self.under_streak = 0;
        } else if per_shard <= cfg.shrink_busy_ns {
            self.under_streak += 1;
            self.over_streak = 0;
        } else {
            self.over_streak = 0;
            self.under_streak = 0;
        }
        if self.over_streak >= cfg.grow_after && self.target < cfg.max_shards {
            self.target += 1;
            self.over_streak = 0;
            self.scaling.grows += 1;
            self.dirty = true;
        } else if self.under_streak >= cfg.shrink_after && self.target > cfg.min_shards {
            self.target -= 1;
            self.under_streak = 0;
            self.scaling.shrinks += 1;
            self.dirty = true;
        }
    }

    /// Folds one shard's barrier reply into the master's statistics and
    /// transmits its output through the master CM.
    fn fold(&mut self, r: ShardReply) {
        let pm = &mut self.master.pm;
        pm.stats.received += r.stats.received;
        pm.stats.emitted += r.stats.emitted;
        pm.stats.action_drops += r.stats.action_drops;
        pm.stats.parse_drops += r.stats.parse_drops;
        pm.stats.error_drops += r.stats.error_drops;
        pm.tm.stats.fold(&r.tm);
        for (slot, ss) in r.slot_stats.iter().enumerate() {
            if let Some(s) = pm.slots.get_mut(slot) {
                s.stats.absorb(ss);
            }
        }
        self.master.sm.mem_accesses += r.mem_accesses;
        for td in r.tables {
            if let Some(store) = self.master.sm.store_at_mut(td.store) {
                store.table.lookups += td.lookups;
                store.table.hits += td.hits;
                for (row, delta) in td.counters {
                    store.table.add_row_counter(row, delta);
                }
            }
        }
        // Guarded accounting: a reply can arrive from a worker slot created
        // after this vector was sized (elastic growth), so index growth is
        // part of the fold, never a panic or a silently dropped delta.
        if self.busy_ns.len() <= r.shard {
            self.busy_ns.resize(r.shard + 1, 0);
        }
        self.busy_ns[r.shard] += r.busy_ns;
        self.busy_hist.record(r.busy_ns);
        self.interval_busy += r.busy_ns;
        self.interval_pkts += r.stats.received;
        if let Some(w) = self.workers.get_mut(r.shard) {
            // Everything dispatched before this reply is accounted for.
            w.inflight = 0;
        }
        self.supervisor.lost_packets += r.lost;
        let mut out = r.out;
        for pkt in out.drain(..) {
            self.master.cm.transmit(pkt);
        }
        // Round-trip economy: the worker's emptied output buffer and the
        // bucket buffers it drained become the next batch's RSS buckets.
        self.recycle_bucket(out);
        for bucket in r.spent {
            self.recycle_bucket(bucket);
        }
    }
}

impl Device for ShardedSwitch {
    fn name(&self) -> &str {
        &self.name
    }

    fn apply(&mut self, msgs: &[ControlMsg]) -> Result<ApplyReport, CoreError> {
        // Drain any shard with packets in flight (none between batches:
        // each batch's own barrier folded every shard), apply the batch
        // exactly once against the master, and leave republication to the
        // next batch of traffic (several control batches coalesce into one
        // compile and one publish).
        //
        // A failed apply is transactional (`CoreError::RolledBack`): the
        // master's state is byte-identical to before the batch and its
        // epoch did not advance, so the `?` below must not mark the switch
        // dirty — the shards' published epoch is still exactly right.
        //
        // Under an open staged transaction the failure mode widens: the
        // abort rewinds *every* batch staged so far, including ones the
        // shards may already have republished — so a staged failure must
        // mark the switch dirty to force a republish of the rewound state.
        self.quiesce_inflight();
        let staged = self.master.staged_open();
        match self.master.apply(msgs) {
            Ok(report) => {
                self.dirty = true;
                Ok(report)
            }
            Err(e) => {
                if staged {
                    self.dirty = true;
                }
                Err(e)
            }
        }
    }

    fn inject(&mut self, packet: Packet) {
        self.master.cm.inject(packet);
    }

    fn run(&mut self) -> Vec<Packet> {
        // Reference semantics: the master interpreter processes in arrival
        // order. Shard SM clones go stale (counters advance on the master),
        // so the next sharded batch republishes first.
        self.quiesce_inflight();
        self.dirty = true;
        self.master.run()
    }

    fn run_batch(&mut self) -> Vec<Packet> {
        match self.pre_batch() {
            Ok(work) => {
                let mut leftover: Vec<Packet> = Vec::new();
                for (shard, bucket) in work {
                    if bucket.is_empty() {
                        self.recycle_bucket(bucket);
                        continue;
                    }
                    if let Err(mut b) = self.dispatch(shard, bucket) {
                        leftover.append(&mut b);
                        self.recycle_bucket(b);
                    }
                }
                // Barrier (inside `finish_batch`): every batch ends fully
                // folded, so stats and counters are coherent before any
                // control message can observe them.
                self.finish_batch(leftover)
            }
            Err(handled) => handled,
        }
    }

    fn pending(&self) -> usize {
        self.master.cm.rx_pending()
    }
}

impl Drop for ShardedSwitch {
    fn drop(&mut self) {
        for w in &self.workers {
            if let Some(tx) = &w.tx {
                let _ = tx.send(ToShard::Shutdown);
            }
        }
        for w in &mut self.workers {
            if let Some(h) = w.handle.take() {
                let _ = h.join();
            }
        }
    }
}

/// Worker-side epoch state: the published artifacts plus the entry-counter
/// baseline for delta reporting.
struct EpochState {
    compiled: Arc<CompiledPath>,
    linkage: Arc<HeaderLinkage>,
    sm: StorageModule,
    /// Per-store, per-row counter values at the last collect (or publish).
    counter_base: Vec<Vec<u64>>,
}

impl EpochState {
    fn new(e: ShardEpoch) -> Self {
        let counter_base = snapshot_counters(&e.sm);
        EpochState {
            compiled: e.compiled,
            linkage: e.linkage,
            sm: e.sm,
            counter_base,
        }
    }
}

/// Per-store entry-counter baselines. Only a `with_counters` table can
/// move a counter ([`ipsa_core::table::Table`] counts hits there alone),
/// so every other table gets an empty baseline and no row walk.
fn snapshot_counters(sm: &StorageModule) -> Vec<Vec<u64>> {
    (0..sm.store_count())
        .map(|idx| match sm.store_at(idx) {
            Some(store) if store.table.def.with_counters => {
                let mut v = vec![0u64; store.table.rows_len()];
                for (row, e) in store.table.iter() {
                    v[row] = e.counter;
                }
                v
            }
            _ => Vec::new(),
        })
        .collect()
}

fn worker_loop(
    shard: usize,
    gen: u64,
    ports: usize,
    slots: usize,
    rx: &Receiver<ToShard>,
    reply: &Sender<ShardReply>,
) {
    let mut epoch: Option<EpochState> = None;
    let mut scratch = EvalScratch::default();
    // Ports are validated nonzero by every ShardedSwitch constructor.
    let Ok(mut tm) = TrafficManager::new(ports, TM_QUEUE_CAPACITY) else {
        return;
    };
    let mut stats = PipelineStats::default();
    let mut slot_stats = vec![SlotStats::default(); slots];
    let mut out: Vec<Packet> = Vec::new();
    let mut busy_ns = 0u64;
    let mut lost = 0u64;
    let mut fault: Option<String> = None;
    let mut spent: Vec<Vec<Packet>> = Vec::new();
    while let Ok(msg) = rx.recv() {
        match msg {
            ToShard::Publish(e) => {
                // RCU swap: the previous epoch's artifacts drop here, after
                // the last packet that used them.
                epoch = Some(EpochState::new(*e));
            }
            ToShard::Batch(mut pkts) => {
                let Some(ep) = epoch.as_mut() else {
                    // Protocol violation (a Batch can never legally precede
                    // the first Publish). Survive it: declare the packets
                    // lost, report the fault at the next collect, and let
                    // the supervisor quarantine us.
                    lost += pkts.len() as u64;
                    fault.get_or_insert_with(|| "Batch before first Publish".to_string());
                    pkts.clear();
                    spent.push(pkts);
                    continue;
                };
                let t0 = Instant::now();
                for pkt in pkts.drain(..) {
                    let r = ep.compiled.run_packet_parts(
                        &mut stats,
                        SlotStatsMut::Stats(&mut slot_stats),
                        &mut tm,
                        &ep.linkage,
                        &mut ep.sm,
                        &mut scratch,
                        pkt,
                    );
                    // Same drop taxonomy as the single-core switch.
                    out.extend(crate::pm::classify_packet_result(r, &mut stats));
                }
                busy_ns += t0.elapsed().as_nanos() as u64;
                // Hand the emptied bucket back at the next barrier.
                spent.push(pkts);
            }
            ToShard::Collect { kill, delay, spike } => {
                if kill {
                    // Injected crash: vanish without replying — the master
                    // must detect this through its drain timeout, exactly
                    // as it would a real wedged or dead worker.
                    break;
                }
                if let Some(d) = delay {
                    std::thread::sleep(d);
                }
                // Injected load spike: inflate this barrier's reported
                // busy time so autoscaler decisions are test-deterministic.
                if let Some(ns) = spike {
                    busy_ns += ns;
                }
                let tables = match &mut epoch {
                    Some(ep) => {
                        let mut tables = Vec::new();
                        for idx in 0..ep.sm.store_count() {
                            let Some(store) = ep.sm.store_at(idx) else {
                                continue;
                            };
                            // Only a `with_counters` table can have moved
                            // a counter: the others skip the row walk.
                            let mut counters = Vec::new();
                            if store.table.def.with_counters {
                                let base = &mut ep.counter_base[idx];
                                for (row, e) in store.table.iter() {
                                    let prev = base.get(row).copied().unwrap_or(0);
                                    if e.counter > prev {
                                        counters.push((row, e.counter - prev));
                                    }
                                }
                                for (row, delta) in &counters {
                                    base[*row] += delta;
                                }
                            }
                            if store.table.lookups > 0
                                || store.table.hits > 0
                                || !counters.is_empty()
                            {
                                tables.push(TableDelta {
                                    store: idx,
                                    lookups: store.table.lookups,
                                    hits: store.table.hits,
                                    counters,
                                });
                            }
                        }
                        let mem = ep.sm.mem_accesses;
                        ep.sm.reset_observability();
                        (tables, mem)
                    }
                    None => (Vec::new(), 0),
                };
                let (tables, mem_accesses) = tables;
                let r = ShardReply {
                    shard,
                    gen,
                    out: std::mem::take(&mut out),
                    stats: std::mem::take(&mut stats),
                    tm: std::mem::take(&mut tm.stats),
                    slot_stats: std::mem::replace(
                        &mut slot_stats,
                        vec![SlotStats::default(); slots],
                    ),
                    mem_accesses,
                    tables,
                    busy_ns: std::mem::take(&mut busy_ns),
                    lost: std::mem::take(&mut lost),
                    fault: fault.take(),
                    spent: std::mem::take(&mut spent),
                };
                if reply.send(r).is_err() {
                    break; // master gone
                }
            }
            ToShard::Shutdown => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipsa_core::pipeline_cfg::SelectorConfig;
    use ipsa_core::table::{ActionCall, KeyField, MatchKind, TableDef, TableEntry};
    use ipsa_core::template::{MatcherBranch, TspTemplate};
    use ipsa_core::value::ValueRef;
    use ipsa_netpkt::builder::{ipv4_udp_packet, Ipv4UdpSpec};

    /// The same one-stage L3 program as `switch.rs`'s `minimal_switch`,
    /// as a message batch against any device.
    fn l3_msgs(port: u16) -> Vec<ControlMsg> {
        vec![
            ControlMsg::Drain,
            ControlMsg::RegisterHeader(ipsa_netpkt::protocols::ethernet()),
            ControlMsg::RegisterHeader(ipsa_netpkt::protocols::ipv4()),
            ControlMsg::RegisterHeader(ipsa_netpkt::protocols::udp()),
            ControlMsg::SetFirstHeader("ethernet".into()),
            ControlMsg::DefineAction(ipsa_core::action::ActionDef {
                name: "fwd".into(),
                params: vec![("port".into(), 16)],
                body: vec![ipsa_core::action::Primitive::Forward {
                    port: ValueRef::Param(0),
                }],
            }),
            ControlMsg::CreateTable {
                def: TableDef {
                    name: "route".into(),
                    key: vec![KeyField {
                        source: ValueRef::field("ipv4", "dst_addr"),
                        bits: 32,
                        kind: MatchKind::Lpm,
                    }],
                    size: 64,
                    actions: vec!["fwd".into()],
                    default_action: ActionCall::no_action(),
                    with_counters: false,
                },
                blocks: vec![0],
            },
            ControlMsg::WriteTemplate {
                slot: 0,
                template: TspTemplate {
                    stage_name: "route_s".into(),
                    func: "base".into(),
                    parse: vec!["ipv4".into()],
                    branches: vec![MatcherBranch {
                        pred: ipsa_core::predicate::Predicate::IsValid("ipv4".into()),
                        table: Some("route".into()),
                    }],
                    executor: vec![(1, ActionCall::new("fwd", vec![]))],
                    default_action: ActionCall::no_action(),
                },
            },
            ControlMsg::ConnectCrossbar {
                slot: 0,
                blocks: vec![0],
            },
            ControlMsg::SetSelector(SelectorConfig::split(32, 1, 0).unwrap()),
            ControlMsg::Resume,
            ControlMsg::AddEntry {
                table: "route".into(),
                entry: TableEntry {
                    key: vec![ipsa_core::table::KeyMatch::Lpm {
                        value: 0x0a000000,
                        prefix_len: 8,
                    }],
                    priority: 0,
                    action: ActionCall::new("fwd", vec![port as u128]),
                    counter: 0,
                },
            },
        ]
    }

    fn traffic(n: usize) -> Vec<Packet> {
        (0..n)
            .map(|i| {
                ipv4_udp_packet(&Ipv4UdpSpec {
                    src_ip: 0x0a00_0100 + (i as u32 % 7),
                    dst_ip: 0x0a01_0000 + i as u32,
                    ..Default::default()
                })
            })
            .collect()
    }

    #[test]
    fn sharded_matches_single_core_on_l3() {
        let mut single = IpbmSwitch::new(IpbmConfig::default());
        single.apply(&l3_msgs(4)).unwrap();
        let mut sharded = ShardedSwitch::new(IpbmConfig::default(), 4);
        sharded.apply(&l3_msgs(4)).unwrap();

        for p in traffic(64) {
            single.inject(p.clone());
            sharded.inject(p);
        }
        let mut a = single.run_batch();
        let mut b = sharded.run_batch();
        assert!(sharded.on_compiled_path());
        assert_eq!(a.len(), b.len());
        let key = |p: &Packet| (p.data.clone(), p.meta.egress_port);
        a.sort_by_key(key);
        b.sort_by_key(key);
        assert_eq!(a, b, "merged shard output must equal single-core output");
        assert_eq!(single.report().pipeline, sharded.report().pipeline);
        assert_eq!(single.report().tm, sharded.report().tm);
        assert_eq!(single.sm.mem_accesses, sharded.master.sm.mem_accesses);
        let busy: u64 = sharded.shard_busy_ns().iter().sum();
        assert!(busy > 0, "workers must self-time their batches");
    }

    #[test]
    fn one_shard_is_bit_exact_with_single_core() {
        let mut single = IpbmSwitch::new(IpbmConfig::default());
        single.apply(&l3_msgs(4)).unwrap();
        let mut sharded = ShardedSwitch::new(IpbmConfig::default(), 1);
        sharded.apply(&l3_msgs(4)).unwrap();
        for p in traffic(32) {
            single.inject(p.clone());
            sharded.inject(p);
        }
        // One shard sees the exact arrival order, so even inter-flow order
        // and per-port TX rings match the single-core switch bit-for-bit.
        assert_eq!(single.run_batch(), sharded.run_batch());
        assert_eq!(
            single.cm.port_stats(),
            sharded.master.cm.port_stats(),
            "per-port counters must match"
        );
    }

    /// `l3_msgs` with entry counters on the route table, so the barrier
    /// fold carries counter deltas too.
    fn counted_l3_msgs(port: u16) -> Vec<ControlMsg> {
        let mut msgs = l3_msgs(port);
        for m in &mut msgs {
            if let ControlMsg::CreateTable { def, .. } = m {
                def.with_counters = true;
            }
        }
        msgs
    }

    fn route_counters(sm: &StorageModule) -> Vec<(usize, u64)> {
        let store = sm.table("route").expect("route installed");
        store
            .table
            .iter()
            .map(|(row, e)| (row, e.counter))
            .collect()
    }

    /// Every batch ends folded, so a control batch between batches finds
    /// nothing in flight: neither an entry batch nor a structural one
    /// spends a barrier. The next batch still runs on the new state, and
    /// at one shard its output, report and counters are the single-core
    /// switch's bit for bit.
    #[test]
    fn control_batches_between_batches_spend_no_barrier() {
        let mut single = IpbmSwitch::new(IpbmConfig::default());
        let mut sharded = ShardedSwitch::new(IpbmConfig::default(), 1);
        single.apply(&counted_l3_msgs(4)).unwrap();
        sharded.apply(&counted_l3_msgs(4)).unwrap();
        let run_both = |single: &mut IpbmSwitch, sharded: &mut ShardedSwitch| {
            for p in traffic(16) {
                single.inject(p.clone());
                sharded.inject(p);
            }
            let out = single.run_batch();
            assert_eq!(out, sharded.run_batch());
            out
        };
        run_both(&mut single, &mut sharded);

        let entry = [ControlMsg::AddEntry {
            table: "route".into(),
            entry: TableEntry {
                key: vec![ipsa_core::table::KeyMatch::Lpm {
                    value: 0x0a010000,
                    prefix_len: 16,
                }],
                priority: 0,
                action: ActionCall::new("fwd", vec![6]),
                counter: 0,
            },
        }];
        let mut acl = match &l3_msgs(4)[6] {
            ControlMsg::CreateTable { def, .. } => def.clone(),
            other => panic!("l3_msgs[6] is {other:?}"),
        };
        acl.name = "acl".into();
        let structural = [
            ControlMsg::Drain,
            ControlMsg::CreateTable {
                def: acl,
                blocks: vec![1],
            },
            ControlMsg::Resume,
        ];
        for batch in [&entry[..], &structural[..]] {
            let barriers = sharded.barriers();
            single.apply(batch).unwrap();
            sharded.apply(batch).unwrap();
            assert_eq!(sharded.barriers(), barriers, "nothing in flight");
            let out = run_both(&mut single, &mut sharded);
            assert!(out.iter().all(|p| p.meta.egress_port == Some(6)));
            assert!(sharded
                .published()
                .is_some_and(|cp| cp.epoch == sharded.master.pm.epoch()));
        }
        assert_eq!(
            serde_json::to_string(&single.report()).unwrap(),
            serde_json::to_string(&sharded.report()).unwrap()
        );
        assert_eq!(
            route_counters(&single.sm),
            route_counters(&sharded.master.sm)
        );
        assert!(route_counters(&single.sm).iter().any(|&(_, c)| c > 0));
    }

    /// A worker that dies while idle goes unnoticed by a control batch
    /// (which spends no barrier), and is caught by the next data batch:
    /// quarantined, its flows rehashed, no packet lost.
    #[test]
    fn worker_dead_while_idle_is_quarantined_at_the_next_batch() {
        let mut sw = ShardedSwitch::new(IpbmConfig::default(), 2);
        sw.apply(&l3_msgs(4)).unwrap();
        for p in traffic(8) {
            sw.inject(p);
        }
        assert_eq!(sw.run_batch().len(), 8);

        let victim = &mut sw.workers[1];
        assert!(victim.tx.as_ref().unwrap().send(ToShard::Shutdown).is_ok());
        victim.handle.take().unwrap().join().unwrap();
        let barriers = sw.barriers();
        sw.apply(&[ControlMsg::Drain, ControlMsg::Resume]).unwrap();
        assert_eq!(sw.barriers(), barriers);
        assert!(sw.take_shard_faults().is_empty());

        for p in traffic(16) {
            sw.inject(p);
        }
        assert_eq!(sw.run_batch().len(), 16, "no packet lost");
        let faults = sw.take_shard_faults();
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].shard, 1);
        assert!(matches!(faults[0].kind, ShardFaultKind::Disconnected));
        assert_eq!(sw.supervisor_stats().lost_packets, 0);
    }

    #[test]
    fn update_between_batches_is_hitless_and_fresh() {
        let mut sw = ShardedSwitch::new(IpbmConfig::default(), 2);
        sw.apply(&l3_msgs(4)).unwrap();
        for p in traffic(8) {
            sw.inject(p);
        }
        let first = sw.run_batch();
        assert!(first.iter().all(|p| p.meta.egress_port == Some(4)));
        // Re-point the route mid-stream; packets already injected must be
        // processed under the *new* epoch (never a stale one).
        for p in traffic(8) {
            sw.inject(p);
        }
        sw.apply(&[ControlMsg::AddEntry {
            table: "route".into(),
            entry: TableEntry {
                key: vec![ipsa_core::table::KeyMatch::Lpm {
                    value: 0x0a010000,
                    prefix_len: 16,
                }],
                priority: 0,
                action: ActionCall::new("fwd", vec![6]),
                counter: 0,
            },
        }])
        .unwrap();
        let second = sw.run_batch();
        assert_eq!(second.len(), 8, "no packet lost across the barrier");
        assert!(
            second.iter().all(|p| p.meta.egress_port == Some(6)),
            "all packets ran under the new epoch"
        );
    }

    #[test]
    fn draining_holds_traffic_until_resume() {
        let mut sw = ShardedSwitch::new(IpbmConfig::default(), 2);
        sw.apply(&l3_msgs(4)).unwrap();
        sw.apply(&[ControlMsg::Drain]).unwrap();
        for p in traffic(5) {
            sw.inject(p);
        }
        assert!(sw.run_batch().is_empty());
        assert_eq!(sw.pending(), 5);
        sw.apply(&[ControlMsg::Resume]).unwrap();
        assert_eq!(sw.run_batch().len(), 5);
    }

    /// A rejected control batch is rolled back by the master, so it must
    /// not mark the sharded switch dirty: the published epoch is still
    /// exactly the device's state, and forcing a recompile would be waste.
    #[test]
    fn failed_apply_does_not_dirty_or_recompile() {
        let mut sw = ShardedSwitch::new(IpbmConfig::default(), 2);
        sw.apply(&l3_msgs(4)).unwrap();
        for p in traffic(4) {
            sw.inject(p);
        }
        sw.run_batch();
        assert!(!sw.dirty, "first batch publishes the epoch");
        let epoch = sw.master.pm.epoch();
        let e = sw.apply(&[ControlMsg::ClearSlot { slot: 99 }]).unwrap_err();
        assert!(matches!(e, CoreError::RolledBack { .. }), "{e}");
        assert!(!sw.dirty, "rolled-back batch must not dirty the epoch");
        assert_eq!(sw.master.pm.epoch(), epoch, "no new epoch opened");
        for p in traffic(4) {
            sw.inject(p);
        }
        let out = sw.run_batch();
        assert_eq!(out.len(), 4, "traffic keeps flowing after the rejection");
        assert!(sw.on_compiled_path());
    }

    #[test]
    fn autoscale_config_is_validated() {
        let mut sw = ShardedSwitch::new(IpbmConfig::default(), 2);
        let good = AutoscaleConfig {
            min_shards: 1,
            max_shards: 4,
            grow_busy_ns: 1000,
            shrink_busy_ns: 100,
            grow_after: 1,
            shrink_after: 1,
        };
        assert!(sw.set_autoscale(Some(good)).is_ok());
        for bad in [
            AutoscaleConfig {
                min_shards: 0,
                ..good
            },
            AutoscaleConfig {
                max_shards: 0,
                ..good
            },
            AutoscaleConfig {
                shrink_busy_ns: 1000,
                ..good
            },
            AutoscaleConfig {
                grow_after: 0,
                ..good
            },
        ] {
            assert!(matches!(
                sw.set_autoscale(Some(bad)),
                Err(CoreError::Config(_))
            ));
        }
        // Regression (silent-clamp sweep): shards=0 is an error, not a
        // quiet rewrite to 1.
        assert!(matches!(
            ShardedSwitch::try_new(IpbmConfig::default(), 0),
            Err(CoreError::Config(_))
        ));
    }

    #[test]
    fn autoscaler_grows_under_load_and_shrinks_back() {
        let mut sw = ShardedSwitch::new(IpbmConfig::default(), 1);
        sw.apply(&l3_msgs(4)).unwrap();
        sw.set_autoscale(Some(AutoscaleConfig {
            min_shards: 1,
            max_shards: 3,
            // Both thresholds sit far above any real per-batch busy time,
            // so only the injected spikes can read as overload and every
            // unspiked batch reads as idle.
            grow_busy_ns: 50_000_000,
            shrink_busy_ns: 10_000_000,
            grow_after: 1,
            shrink_after: 2,
        }))
        .unwrap();
        let mut plan = FaultPlan::default();
        let b = sw.barriers();
        for barrier in b + 1..=b + 4 {
            for shard in 0..3 {
                plan.spike_busy.push((shard, barrier, 200_000_000));
            }
        }
        sw.set_fault_plan(plan);
        let mut injected = 0u64;
        let mut emitted = 0u64;
        for _ in 0..4 {
            for p in traffic(16) {
                sw.inject(p);
                injected += 1;
            }
            emitted += sw.run_batch().len() as u64;
        }
        assert_eq!(sw.live_shards(), 3, "sustained overload reaches max");
        assert_eq!(sw.target_shards(), 3);

        sw.set_fault_plan(FaultPlan::default());
        for _ in 0..8 {
            for p in traffic(8) {
                sw.inject(p);
                injected += 1;
            }
            emitted += sw.run_batch().len() as u64;
        }
        assert_eq!(sw.live_shards(), 1, "idle traffic shrinks back to min");
        let s = sw.scale_stats();
        assert!(s.grows >= 2, "grows: {s:?}");
        assert!(s.shrinks >= 2 && s.retired >= 2, "shrinks: {s:?}");
        // Elastic resizes are hitless: every packet injected was emitted,
        // none were charged to retired workers.
        assert_eq!(emitted, injected);
        assert_eq!(sw.supervisor_stats().lost_packets, 0);
        assert_eq!(sw.report().pipeline.received, injected);
        assert_eq!(sw.report().pipeline.emitted, emitted);
        assert!(sw.on_compiled_path());
    }

    #[test]
    fn per_flow_order_is_preserved() {
        let mut sw = ShardedSwitch::new(IpbmConfig::default(), 4);
        sw.apply(&l3_msgs(4)).unwrap();
        // 8 flows × 32 packets, payload carrying a per-flow sequence
        // number; interleave the flows on inject.
        let flows = 8u32;
        let per_flow = 32u32;
        for seq in 0..per_flow {
            for f in 0..flows {
                sw.inject(ipv4_udp_packet(&Ipv4UdpSpec {
                    src_ip: 0x0a00_0200 + f,
                    dst_ip: 0x0a01_0000 + f,
                    payload: seq.to_be_bytes().to_vec(),
                    ..Default::default()
                }));
            }
        }
        let out = sw.run_batch();
        assert_eq!(out.len(), (flows * per_flow) as usize);
        // Within each flow the sequence numbers must appear in order.
        let mut last: std::collections::HashMap<u32, Option<u32>> = Default::default();
        for p in &out {
            let n = p.data.len();
            let dst = u32::from_be_bytes(p.data[30..34].try_into().unwrap());
            let seq = u32::from_be_bytes(p.data[n - 4..].try_into().unwrap());
            let prev = last.entry(dst).or_insert(None);
            if let Some(prev) = *prev {
                assert!(seq > prev, "flow {dst:#x}: {seq} after {prev}");
            }
            *prev = Some(seq);
        }
        assert_eq!(last.len(), flows as usize);
    }
}
