//! # ipsa-fleet — in-situ programmability at fleet scale
//!
//! The paper's pitch is a switch you can reprogram **while it forwards**.
//! A real deployment has *N* of them, reached over a wire that drops,
//! delays, duplicates, and reorders. This crate is the control plane for
//! that reality:
//!
//! * [`proto`] — the framed request/response protocol (sequence numbers,
//!   election ids, typed payloads). The protocol is the contract; the
//!   channel transport in [`wire`] is swappable.
//! * [`wire`] — the in-process transport plus [`WireFaultPlan`]: a
//!   deterministic, seeded schedule of wire misbehavior ("drop the 2nd
//!   `Apply`", "partition sends 5..9") so every recovery path is testable.
//! * [`agent`] — one thread per device: at-most-once execution via a
//!   response cache, election-id fencing of stale masters.
//! * [`health`] — the per-device Healthy → Suspect → Quarantined →
//!   Recovered state machine driven by heartbeats.
//! * [`controller`] — [`FleetController`]: per-RPC deadlines, bounded
//!   retries with exponential backoff + seeded jitter, and the headline
//!   operation: [`FleetController::rolling_update`] — stage the in-situ
//!   plan on a canary, replay the `rp4-equiv` witness corpus through it
//!   against a local oracle, fan out device-by-device only if every
//!   output matches bit-for-bit, and fail back fleet-wide (byte-identical
//!   state, via staged transactions) if any live device refuses.

pub mod agent;
pub mod controller;
pub mod error;
pub mod health;
pub mod proto;
pub mod wire;

pub use agent::state_fingerprint;
pub use controller::{FleetConfig, FleetController, FleetUpdate, RolloutReport};
pub use error::FleetError;
pub use health::{Health, HealthTracker};
pub use proto::{DeviceStats, ElectionId, Request, Response, RpcKind};
pub use wire::{LinkStats, WireFault, WireFaultPlan};
