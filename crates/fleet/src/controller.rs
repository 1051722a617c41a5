//! The fleet controller: N named devices behind the wire protocol, with
//! deadlines, retries, health tracking, master arbitration — and the
//! paper's claim at fleet scale: **canary-verified rolling in-situ
//! updates with byte-identical fleet-wide failback**.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use ipbm::{IpbmConfig, IpbmSwitch, ShardedSwitch};
use ipsa_core::control::{full_install_msgs, ControlMsg};
use ipsa_core::template::CompiledDesign;
use ipsa_netpkt::packet::Packet;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rp4_equiv::{cover_design, replay_corpus, Coverage, ReplayMode, MAX_WORLDS};

use crate::agent::{spawn_agent, AgentHandle};
use crate::error::FleetError;
use crate::health::{Health, HealthTracker};
use crate::proto::{DeviceStats, ElectionId, Request, RequestFrame, Response};
use crate::wire::{channel_link, Link, LinkStats, WireFaultPlan};

/// Controller tuning: every robustness knob in one place.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Per-RPC reply deadline.
    pub deadline: Duration,
    /// Retries after the first attempt (total attempts = retries + 1).
    pub max_retries: u32,
    /// Base of the exponential backoff between attempts (attempt `k`
    /// sleeps `base * 2^k` plus jitter).
    pub backoff_base: Duration,
    /// Consecutive failed RPCs that quarantine a device.
    pub suspect_threshold: u32,
    /// Seed for backoff jitter (deterministic under test).
    pub seed: u64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            deadline: Duration::from_millis(200),
            max_retries: 3,
            backoff_base: Duration::from_millis(10),
            suspect_threshold: 3,
            seed: 0xF1EE7,
        }
    }
}

/// A rolling in-situ update: the control plan plus the post-update design
/// it produces (the oracle canary outputs are computed against `design`,
/// and `design` becomes the fleet's committed design on success).
#[derive(Debug, Clone)]
pub struct FleetUpdate {
    /// The in-situ control batch (e.g. `rp4c::design_diff` of old → new).
    pub msgs: Vec<ControlMsg>,
    /// The design the batch produces.
    pub design: CompiledDesign,
    /// Preferred canary device; default is the first available device.
    pub canary: Option<String>,
}

/// What a completed (or aborted) rollout did.
#[derive(Debug, Clone)]
pub struct RolloutReport {
    /// The device that served as canary.
    pub canary: String,
    /// Devices now running the new design.
    pub updated: Vec<String>,
    /// Devices quarantined along the way (unreachable mid-rollout).
    pub quarantined: Vec<String>,
    /// Witness paths replayed during canary verification.
    pub witnesses: usize,
}

struct FleetDevice {
    name: String,
    link: Link,
    health: HealthTracker,
    next_seq: u64,
    /// The design this device last committed (reconciliation baseline).
    shadow: Option<CompiledDesign>,
}

/// The fleet controller.
///
/// Owns one [`Link`] + agent per device, a monotonically-arbitrated
/// election id, and the fleet's committed design. All RPCs run through
/// one internal engine (`FleetController::call`) that enforces the
/// deadline/retry/backoff budget and feeds the per-device health machine.
pub struct FleetController {
    cfg: FleetConfig,
    devices: Vec<FleetDevice>,
    agents: Vec<AgentHandle>,
    election_id: ElectionId,
    design: Option<CompiledDesign>,
    /// Completed rollouts (fleet configuration epoch).
    epoch: u64,
    rng: StdRng,
}

impl FleetController {
    /// An empty fleet under the given tuning, mastered at election id 1.
    pub fn new(cfg: FleetConfig) -> Self {
        let seed = cfg.seed;
        FleetController {
            cfg,
            devices: Vec::new(),
            agents: Vec::new(),
            election_id: 1,
            design: None,
            epoch: 0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Adds a named device: spawns its agent thread and links it in.
    pub fn add_device(&mut self, name: &str, device: ShardedSwitch) {
        let (link, mailbox) = channel_link();
        let agent = spawn_agent(name.to_string(), device, mailbox);
        self.devices.push(FleetDevice {
            name: name.to_string(),
            link,
            health: HealthTracker::new(self.cfg.suspect_threshold),
            next_seq: 0,
            shadow: None,
        });
        self.agents.push(agent);
    }

    /// Device names, in registration order.
    pub fn device_names(&self) -> Vec<String> {
        self.devices.iter().map(|d| d.name.clone()).collect()
    }

    /// This controller's election id.
    pub fn election_id(&self) -> ElectionId {
        self.election_id
    }

    /// Takes (or abdicates) mastership by moving to a new election id.
    /// Devices fence on the *highest id they have ever seen*, so moving
    /// to a lower id makes this controller's writes stale everywhere it
    /// already spoke — the fencing tests drive exactly that.
    pub fn set_election_id(&mut self, id: ElectionId) {
        self.election_id = id;
    }

    /// Completed-rollout count (the fleet configuration epoch).
    pub fn fleet_epoch(&self) -> u64 {
        self.epoch
    }

    /// Current health of a device.
    pub fn health_of(&self, name: &str) -> Option<Health> {
        self.idx_of(name).map(|i| self.devices[i].health.state())
    }

    /// Installs a wire-fault schedule on one device link (test-only).
    #[doc(hidden)]
    pub fn set_wire_faults(&mut self, name: &str, plan: WireFaultPlan) -> Result<(), FleetError> {
        let idx = self.require(name)?;
        self.devices[idx].link.set_faults(plan);
        Ok(())
    }

    /// Wire counters for one device link.
    pub fn link_stats(&self, name: &str) -> Option<LinkStats> {
        self.idx_of(name).map(|i| self.devices[i].link.stats)
    }

    fn idx_of(&self, name: &str) -> Option<usize> {
        self.devices.iter().position(|d| d.name == name)
    }

    fn require(&self, name: &str) -> Result<usize, FleetError> {
        self.idx_of(name)
            .ok_or_else(|| FleetError::UnknownDevice(name.to_string()))
    }

    /// Indices of devices currently available for rollouts and traffic.
    fn available(&self) -> Vec<usize> {
        (0..self.devices.len())
            .filter(|&i| self.devices[i].health.is_available())
            .collect()
    }

    // -- the RPC engine ----------------------------------------------------

    /// Backoff before retry `attempt` (0-based): exponential with seeded
    /// jitter so synchronized retries from many controllers don't stampede
    /// one device.
    fn backoff(&mut self, attempt: u32) -> Duration {
        let base = self.cfg.backoff_base.as_micros() as u64;
        let exp = base.saturating_mul(1u64 << attempt.min(16));
        let jitter = if base == 0 {
            0
        } else {
            self.rng.random_range(0..base.max(1))
        };
        Duration::from_micros(exp + jitter)
    }

    /// Sends `req` to device `idx` under the full deadline/retry budget.
    /// Every attempt re-sends the *same* sequence number: the agent's
    /// response cache makes retries idempotent (an `Apply` whose reply
    /// was lost is answered from cache, not re-applied).
    fn call(&mut self, idx: usize, req: Request) -> Result<Response, FleetError> {
        let kind = req.kind();
        let seq = {
            let d = &mut self.devices[idx];
            let s = d.next_seq;
            d.next_seq += 1;
            s
        };
        let frame = RequestFrame {
            seq,
            election_id: self.election_id,
            req,
        };
        let attempts = self.cfg.max_retries + 1;
        for attempt in 0..attempts {
            let (tx, rx) = mpsc::channel();
            let posted = self.devices[idx].link.post(frame.clone(), tx);
            if posted {
                let deadline = Instant::now() + self.cfg.deadline;
                while let Some(remaining) = deadline.checked_duration_since(Instant::now()) {
                    match rx.recv_timeout(remaining) {
                        Ok(f) if f.seq == seq => {
                            // The device answered: it is reachable, whatever
                            // the payload says. Quarantine exit stays the
                            // heartbeat's job (recovery needs reconciling).
                            if self.devices[idx].health.state() != Health::Quarantined {
                                self.devices[idx].health.on_success();
                            }
                            return self.interpret(idx, f.resp);
                        }
                        Ok(_) => continue, // stale frame from an old attempt
                        Err(_) => break,
                    }
                }
            }
            if attempt + 1 < attempts {
                let pause = self.backoff(attempt);
                std::thread::sleep(pause);
            }
        }
        self.devices[idx].health.on_failure();
        Err(FleetError::Unreachable {
            device: self.devices[idx].name.clone(),
            kind,
            attempts,
        })
    }

    /// Lifts protocol-level rejections into typed errors.
    fn interpret(&self, idx: usize, resp: Response) -> Result<Response, FleetError> {
        match resp {
            Response::NotMaster { active_election_id } => Err(FleetError::NotMaster {
                device: self.devices[idx].name.clone(),
                active_election_id,
            }),
            Response::Error(detail) => Err(FleetError::Device {
                device: self.devices[idx].name.clone(),
                detail,
            }),
            other => Ok(other),
        }
    }

    // -- health ------------------------------------------------------------

    /// One heartbeat round: probes every device (including quarantined
    /// ones — the heartbeat is how they come back), reconciles any that
    /// recover, and returns the post-round health map.
    pub fn heartbeat(&mut self) -> Vec<(String, Health)> {
        for idx in 0..self.devices.len() {
            let was_quarantined = self.devices[idx].health.state() == Health::Quarantined;
            match self.call(idx, Request::Heartbeat) {
                Ok(Response::Pong { staged_open, .. }) => {
                    if was_quarantined {
                        self.devices[idx].health.on_success(); // → Recovered
                        self.reconcile(idx, staged_open);
                    } else if staged_open {
                        // Rollouts are synchronous, so no transaction of
                        // *ours* can be open when a heartbeat runs: an open
                        // staged transaction on an available device is
                        // stranded — left by a controller that was fenced
                        // mid-rollout (its own Revert RPCs were fenced
                        // too). Revert it before a future rollout's staged
                        // Apply merges into it; if this Revert fails the
                        // transaction stays open and the next heartbeat
                        // retries.
                        let _ = self.call(idx, Request::Revert);
                    }
                }
                Ok(_) | Err(FleetError::Unreachable { .. }) => {
                    // call() already recorded the failure for Unreachable;
                    // an unexpected payload counts as neither.
                }
                Err(_) => {}
            }
        }
        self.devices
            .iter()
            .map(|d| (d.name.clone(), d.health.state()))
            .collect()
    }

    /// Brings a freshly-recovered device back in line with the fleet:
    /// reverts any staged transaction stranded by a mid-rollout
    /// disappearance and re-applies the structural diff from the device's
    /// last committed design to the fleet's current one. Only then does the
    /// device count as healthy again.
    ///
    /// Reconciliation is structural: entries of tables present in both
    /// designs survived untouched on the device (it was partitioned, not
    /// wiped); tables the new design introduces start empty, as they do
    /// on every other device.
    ///
    /// A reconciliation that does not complete re-quarantines the device
    /// explicitly: a half-reconciled device must not linger in `Recovered`
    /// (or leak into Suspect/Healthy through later successes) while it
    /// still serves the design it crashed with — quarantine makes the next
    /// heartbeat retry recovery from the top.
    fn reconcile(&mut self, idx: usize, staged_open: bool) {
        if self.try_reconcile(idx, staged_open) {
            self.devices[idx].health.mark_reconciled();
        } else {
            self.devices[idx].health.quarantine();
        }
    }

    /// The fallible body of [`Self::reconcile`]; `false` means the device
    /// is not yet in line with the fleet.
    fn try_reconcile(&mut self, idx: usize, staged_open: bool) -> bool {
        if staged_open && self.call(idx, Request::Revert).is_err() {
            return false;
        }
        let Some(target) = self.design.clone() else {
            return true; // no fleet design yet: nothing to converge to
        };
        let from = self.devices[idx].shadow.clone();
        let msgs = match &from {
            Some(shadow) => rp4c::design_diff(shadow, &target),
            None => full_install_msgs(&target),
        };
        if !msgs.is_empty()
            && self
                .call(
                    idx,
                    Request::Apply {
                        msgs,
                        staged: false,
                    },
                )
                .is_err()
        {
            return false;
        }
        self.devices[idx].shadow = Some(target);
        true
    }

    // -- fleet operations --------------------------------------------------

    /// Installs the initial design fleet-wide (plain, unstaged). Devices
    /// that cannot be reached are left to the heartbeat/reconcile path.
    pub fn install(&mut self, design: &CompiledDesign) -> Result<(), FleetError> {
        if self.devices.is_empty() {
            return Err(FleetError::NoDevices);
        }
        self.design = Some(design.clone());
        let msgs = full_install_msgs(design);
        for idx in 0..self.devices.len() {
            if self
                .call(
                    idx,
                    Request::Apply {
                        msgs: msgs.clone(),
                        staged: false,
                    },
                )
                .is_err()
            {
                continue;
            }
            self.devices[idx].shadow = Some(design.clone());
        }
        Ok(())
    }

    /// Applies a plain (unstaged) control batch to every available device
    /// — the controller's day-to-day surface for entry population. A
    /// device that cannot be reached is quarantined by the RPC engine and
    /// skipped; a device that *refuses* the batch fails the call (its own
    /// transactional apply already rolled the batch back locally).
    pub fn apply_all(&mut self, msgs: &[ControlMsg]) -> Result<(), FleetError> {
        let avail = self.available();
        if avail.is_empty() {
            return Err(FleetError::NoDevices);
        }
        for idx in avail {
            match self.call(
                idx,
                Request::Apply {
                    msgs: msgs.to_vec(),
                    staged: false,
                },
            ) {
                Ok(_) | Err(FleetError::Unreachable { .. }) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Injects traffic into one device and drains it through the batched
    /// path, returning the emitted packets.
    pub fn traffic(&mut self, name: &str, packets: Vec<Packet>) -> Result<Vec<Packet>, FleetError> {
        let idx = self.require(name)?;
        match self.call(idx, Request::Traffic(packets))? {
            Response::Packets(out) => Ok(out),
            other => Err(FleetError::Device {
                device: name.to_string(),
                detail: format!("unexpected response {other:?}"),
            }),
        }
    }

    /// Observability snapshot of one device.
    pub fn stats(&mut self, name: &str) -> Result<DeviceStats, FleetError> {
        let idx = self.require(name)?;
        match self.call(idx, Request::Stats)? {
            Response::Stats(s) => Ok(*s),
            other => Err(FleetError::Device {
                device: name.to_string(),
                detail: format!("unexpected response {other:?}"),
            }),
        }
    }

    /// Byte-level control-plane digest of one device.
    pub fn fingerprint(&mut self, name: &str) -> Result<String, FleetError> {
        let idx = self.require(name)?;
        match self.call(idx, Request::Fingerprint)? {
            Response::Fingerprint(fp) => Ok(fp),
            other => Err(FleetError::Device {
                device: name.to_string(),
                detail: format!("unexpected response {other:?}"),
            }),
        }
    }

    /// Identity probe: the device's reported name and epoch.
    pub fn hello(&mut self, name: &str) -> Result<(String, u64), FleetError> {
        let idx = self.require(name)?;
        match self.call(idx, Request::Hello)? {
            Response::Hello { device, epoch } => Ok((device, epoch)),
            other => Err(FleetError::Device {
                device: name.to_string(),
                detail: format!("unexpected response {other:?}"),
            }),
        }
    }

    /// Control-plane epoch of one device (from a heartbeat).
    pub fn device_epoch(&mut self, name: &str) -> Result<u64, FleetError> {
        let idx = self.require(name)?;
        match self.call(idx, Request::Heartbeat)? {
            Response::Pong { epoch, .. } => Ok(epoch),
            other => Err(FleetError::Device {
                device: name.to_string(),
                detail: format!("unexpected response {other:?}"),
            }),
        }
    }

    // -- the rolling in-situ update ----------------------------------------

    /// Canary-verified rolling in-situ update with fleet-wide failback.
    ///
    /// 1. **Oracle** — install the post-update design on a local reference
    ///    switch, enumerate its witness corpus (`rp4-equiv`), and record
    ///    the oracle outputs of every feasible path.
    /// 2. **Canary** — stage the plan on one device (a staged transaction:
    ///    revertible byte-identically), replay the corpus through it over
    ///    the wire, and compare every emitted packet bit-identically
    ///    against the oracle. Any divergence blocks fan-out: the canary is
    ///    reverted and the rollout fails with
    ///    [`FleetError::CanaryDiverged`]. An unreachable canary is
    ///    quarantined and the next available device takes over as canary.
    /// 3. **Fan-out** — stage the plan on every other available device,
    ///    one by one. A device that stops answering is quarantined and
    ///    skipped (the fleet is not blocked); a device that *rejects* the
    ///    plan triggers fleet-wide failback: every staged device reverts,
    ///    and the rollout fails with [`FleetError::RolledBack`]. A device
    ///    that *fences* us ([`FleetError::NotMaster`]) aborts without
    ///    failback — our reverts would be fenced too; the new master's
    ///    heartbeat reverts the stranded staged transactions instead.
    /// 4. **Commit** — every staged device commits and its shadow design
    ///    advances. A device unreachable at commit time is quarantined
    ///    still holding its staged transaction — recovery reverts it and
    ///    re-applies the committed diff, so it converges.
    ///    If *no* commit confirms, the rollout fails with
    ///    [`FleetError::CommitFailed`] and the fleet design does not
    ///    advance.
    pub fn rolling_update(&mut self, plan: &FleetUpdate) -> Result<RolloutReport, FleetError> {
        if self.available().is_empty() {
            return Err(FleetError::NoDevices);
        }

        // Phase 1: oracle outputs on a local reference device.
        let mut oracle = IpbmSwitch::try_new(IpbmConfig::default())?;
        oracle.install(&plan.design)?;
        let cov = cover_design(&plan.design, None, MAX_WORLDS);
        let oracle_out = replay_corpus(&mut oracle, &cov, ReplayMode::Run)?;
        let witnesses = cov.paths.iter().filter(|p| p.witness.is_some()).count();

        let mut quarantined: Vec<String> = Vec::new();

        // Phase 2: canary. An unreachable candidate is quarantined and the
        // next available device takes over; a rejecting or diverging
        // candidate aborts the rollout.
        let preferred = plan.canary.as_ref().and_then(|n| self.idx_of(n));
        let canary = loop {
            let avail = self.available();
            let Some(&candidate) = preferred
                .filter(|i| avail.contains(i))
                .as_ref()
                .or_else(|| avail.first())
            else {
                return Err(FleetError::NoDevices);
            };
            match self.stage_and_verify(candidate, plan, &cov, &oracle_out) {
                Ok(()) => break candidate,
                Err(FleetError::Unreachable { .. }) => {
                    self.devices[candidate].health.quarantine();
                    quarantined.push(self.devices[candidate].name.clone());
                }
                Err(e) => return Err(e),
            }
        };

        // Phase 3: fan out device-by-device.
        let mut staged = vec![canary];
        for idx in self.available() {
            if idx == canary {
                continue;
            }
            match self.call(
                idx,
                Request::Apply {
                    msgs: plan.msgs.clone(),
                    staged: true,
                },
            ) {
                Ok(_) => staged.push(idx),
                Err(FleetError::Unreachable { .. }) => {
                    // Quarantine only this device; survivors keep going.
                    self.devices[idx].health.quarantine();
                    quarantined.push(self.devices[idx].name.clone());
                }
                Err(e @ FleetError::NotMaster { .. }) => {
                    // A newer master took over mid-fan-out. Failback is
                    // not ours to run — our Revert RPCs are mutations and
                    // would be fenced on every device just like the Apply
                    // was, leaving the fleet Healthy but stranded. The
                    // staged devices keep their transactions open; the new
                    // master's heartbeat sees `staged_open` on them and
                    // reverts (see [`Self::heartbeat`]).
                    return Err(e);
                }
                Err(e) => {
                    // A live device refused the plan: fleet-wide failback,
                    // byte-identical everywhere.
                    self.failback(&staged, &mut quarantined);
                    return Err(match e {
                        FleetError::Device { device, detail } => {
                            FleetError::RolledBack { device, detail }
                        }
                        other => other,
                    });
                }
            }
        }

        // Phase 4: commit.
        let mut updated = Vec::new();
        let mut commit_failed = Vec::new();
        for idx in staged {
            match self.call(idx, Request::Commit) {
                Ok(_) => {
                    self.devices[idx].shadow = Some(plan.design.clone());
                    updated.push(self.devices[idx].name.clone());
                }
                Err(_) => {
                    self.devices[idx].health.quarantine();
                    quarantined.push(self.devices[idx].name.clone());
                    commit_failed.push(self.devices[idx].name.clone());
                }
            }
        }
        if updated.is_empty() {
            // No commit confirmed: the rollout landed nowhere. Keep the
            // fleet design (and epoch) at the previous rollout — every
            // staged device is quarantined with its transaction open, and
            // heartbeat recovery reverts them back to that design — and
            // tell the caller, rather than reporting a rollout that no
            // device is serving.
            return Err(FleetError::CommitFailed {
                devices: commit_failed,
            });
        }

        self.design = Some(plan.design.clone());
        self.epoch += 1;
        Ok(RolloutReport {
            canary: self.devices[canary].name.clone(),
            updated,
            quarantined,
            witnesses,
        })
    }

    /// Stages the plan on `idx` and replays the witness corpus through it,
    /// comparing against the oracle outputs bit-identically.
    fn stage_and_verify(
        &mut self,
        idx: usize,
        plan: &FleetUpdate,
        cov: &Coverage,
        oracle_out: &[Vec<Packet>],
    ) -> Result<(), FleetError> {
        self.call(
            idx,
            Request::Apply {
                msgs: plan.msgs.clone(),
                staged: true,
            },
        )
        .map_err(|e| match e {
            // A rejected canary batch closed its own transaction
            // (transactional apply); surface it as a rollout abort.
            FleetError::Device { device, detail } => FleetError::RolledBack { device, detail },
            other => other,
        })?;
        for (i, path) in cov.paths.iter().enumerate() {
            let Some(w) = &path.witness else { continue };
            let resp = match self.call(idx, Request::Replay(Box::new(w.clone()))) {
                Ok(Response::Packets(out)) => out,
                Ok(other) => {
                    return Err(FleetError::Device {
                        device: self.devices[idx].name.clone(),
                        detail: format!("unexpected replay response {other:?}"),
                    })
                }
                Err(e) => return Err(e),
            };
            if resp != oracle_out[i] {
                // Divergence: block fan-out, revert the canary, report.
                // A canary whose revert does not confirm still holds the
                // diverged staged transaction: quarantine it so heartbeat
                // recovery reverts it before the device rejoins.
                let device = self.devices[idx].name.clone();
                if self.call(idx, Request::Revert).is_err() {
                    self.devices[idx].health.quarantine();
                }
                return Err(FleetError::CanaryDiverged {
                    device,
                    path: path.index,
                    description: path.description.clone(),
                });
            }
        }
        Ok(())
    }

    /// Fleet-wide failback: revert every staged device. A device whose
    /// revert does not confirm — unreachable *or* refusing — is
    /// quarantined still holding its transaction, even if a single strike
    /// would otherwise leave it available as Suspect: heartbeat recovery
    /// reverts the stranded transaction before the device rejoins, so it
    /// can never swallow a later rollout's staged batches.
    fn failback(&mut self, staged: &[usize], quarantined: &mut Vec<String>) {
        for &idx in staged {
            if self.call(idx, Request::Revert).is_err() {
                self.devices[idx].health.quarantine();
                quarantined.push(self.devices[idx].name.clone());
            }
        }
    }
}

impl Drop for FleetController {
    fn drop(&mut self) {
        // Dropping the links closes every agent mailbox; join the threads.
        self.devices.clear();
        for agent in self.agents.drain(..) {
            let _ = agent.handle.join();
        }
    }
}
