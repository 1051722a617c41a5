//! The fleet wire protocol: framed request/response pairs between the
//! [`crate::FleetController`] and each device agent.
//!
//! The protocol — not the transport — is the contract. Frames carry
//! everything a real network control plane needs: a per-link sequence
//! number (retry idempotency and duplicate suppression), the sender's
//! election id (master arbitration: agents fence off writes from stale
//! controllers, exactly as P4Runtime's `MasterArbitrationUpdate` does),
//! and a typed payload. The in-process channel transport in
//! [`crate::wire`] is swappable for a socket without touching anything in
//! this module: every payload type is `serde`-serializable.

use ipbm::{BusyHistogram, SupervisorStats, SwitchReport};
use ipsa_core::control::{ApplyReport, ControlMsg};
use ipsa_netpkt::packet::Packet;
use rp4_equiv::PathWitness;
use serde::Serialize;

/// Monotonic controller-election identifier (higher wins mastership).
pub type ElectionId = u64;

/// RPC type tags — the coordinate [`crate::wire::WireFaultPlan`]
/// directives target ("drop the 2nd `Apply`", "delay the 1st
/// `Heartbeat`"), and the label in unreachability errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum RpcKind {
    /// Connection probe / identity exchange.
    Hello,
    /// Liveness probe driving the health state machine.
    Heartbeat,
    /// Control-message batch (optionally staged).
    Apply,
    /// Commit the open staged transaction.
    Commit,
    /// Revert the open staged transaction.
    Revert,
    /// Replay one coverage witness and return the emitted packets.
    Replay,
    /// Observability snapshot.
    Stats,
    /// Inject a traffic batch and drain the device.
    Traffic,
    /// Byte-level control-plane state digest.
    Fingerprint,
}

impl RpcKind {
    /// Every RPC type, for exhaustive fault matrices in tests.
    pub const ALL: [RpcKind; 9] = [
        RpcKind::Hello,
        RpcKind::Heartbeat,
        RpcKind::Apply,
        RpcKind::Commit,
        RpcKind::Revert,
        RpcKind::Replay,
        RpcKind::Stats,
        RpcKind::Traffic,
        RpcKind::Fingerprint,
    ];
}

/// A request payload.
#[derive(Debug, Clone)]
pub enum Request {
    /// Who are you? Establishes the link.
    Hello,
    /// Are you alive? Returns the device epoch and staged-txn state.
    Heartbeat,
    /// Apply a control batch. With `staged`, the batch lands under the
    /// device's staged transaction (opened on first staged batch), so a
    /// later [`Request::Revert`] rewinds it byte-identically.
    Apply {
        /// The control messages.
        msgs: Vec<ControlMsg>,
        /// Journal under the open staged transaction.
        staged: bool,
    },
    /// Make the staged batches permanent.
    Commit,
    /// Rewind every staged batch byte-identically.
    Revert,
    /// Replay one witness (entries + packet×injections + teardown) and
    /// return the emitted packets for oracle comparison.
    Replay(Box<PathWitness>),
    /// Observability snapshot.
    Stats,
    /// Inject packets and drain the device through the batched path.
    Traffic(Vec<Packet>),
    /// Deterministic digest of the control-plane state.
    Fingerprint,
}

impl Request {
    /// This request's type tag.
    pub fn kind(&self) -> RpcKind {
        match self {
            Request::Hello => RpcKind::Hello,
            Request::Heartbeat => RpcKind::Heartbeat,
            Request::Apply { .. } => RpcKind::Apply,
            Request::Commit => RpcKind::Commit,
            Request::Revert => RpcKind::Revert,
            Request::Replay(_) => RpcKind::Replay,
            Request::Stats => RpcKind::Stats,
            Request::Traffic(_) => RpcKind::Traffic,
            Request::Fingerprint => RpcKind::Fingerprint,
        }
    }

    /// True for requests that mutate device state — the ones election-id
    /// fencing rejects from stale controllers. Reads stay available to
    /// any controller (an observer must be able to watch a fleet it no
    /// longer masters). `Traffic` counts as a read: it drives the data
    /// plane, not the control plane.
    pub fn is_mutation(&self) -> bool {
        matches!(
            self,
            Request::Apply { .. } | Request::Commit | Request::Revert | Request::Replay(_)
        )
    }
}

/// One framed request: sequence number, election id, payload.
#[derive(Debug, Clone)]
pub struct RequestFrame {
    /// Per-link sequence number. Retries re-send the *same* seq, and the
    /// agent's response cache replays the original answer instead of
    /// re-executing — at-most-once semantics over an at-least-once wire.
    pub seq: u64,
    /// The sending controller's election id.
    pub election_id: ElectionId,
    /// Payload.
    pub req: Request,
}

/// Device observability snapshot carried by [`Response::Stats`].
#[derive(Debug, Clone, Serialize)]
pub struct DeviceStats {
    /// Device name.
    pub name: String,
    /// Control-plane epoch.
    pub epoch: u64,
    /// Master fold of pipeline/TM/port/slot counters.
    pub report: SwitchReport,
    /// Log2 per-batch busy-time distribution folded at shard barriers —
    /// the fleet health checker's latency signal.
    pub busy_hist: BusyHistogram,
    /// Shard supervision counters.
    pub supervisor: SupervisorStats,
    /// Live (non-quarantined) shard workers.
    pub live_shards: usize,
    /// True while a staged transaction is open.
    pub staged_open: bool,
}

/// A response payload.
#[derive(Debug, Clone)]
pub enum Response {
    /// Identity: device name and current epoch.
    Hello {
        /// Device name.
        device: String,
        /// Control-plane epoch.
        epoch: u64,
    },
    /// Liveness: epoch plus staged-transaction state (the controller's
    /// recovery path uses `staged_open` to know a rejoining device still
    /// holds an uncommitted rollout).
    Pong {
        /// Control-plane epoch.
        epoch: u64,
        /// True while a staged transaction is open.
        staged_open: bool,
    },
    /// Batch applied; the device's cost report.
    Applied(ApplyReport),
    /// Commit/Revert acknowledged.
    Done,
    /// Emitted packets (Replay and Traffic).
    Packets(Vec<Packet>),
    /// Observability snapshot.
    Stats(Box<DeviceStats>),
    /// Control-plane state digest.
    Fingerprint(String),
    /// Write rejected: a controller with a higher election id holds
    /// mastership of this device.
    NotMaster {
        /// The fencing election id.
        active_election_id: ElectionId,
    },
    /// The device executed the request and refused it (rendered device
    /// error — e.g. a transactional rollback of a bad batch).
    Error(String),
}

/// One framed response, echoing the request's sequence number.
#[derive(Debug, Clone)]
pub struct ResponseFrame {
    /// Sequence number of the request this answers.
    pub seq: u64,
    /// Payload.
    pub resp: Response,
}
