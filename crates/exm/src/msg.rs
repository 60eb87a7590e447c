//! The execution-module wire protocol.

use bytes::Bytes;
use vce_codec::{Codec, CodecError, Decoder, Encoder, Result};
use vce_isis::IsisMsg;
use vce_net::{Addr, MachineClass, NodeId, NodeList};

use crate::migrate::MigrationTechnique;
use crate::policy::Needs;
use crate::wire::{NameList, WireStr};

/// Identifies one application run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AppId(pub u64);

/// Identifies one resource request within an application.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ReqId {
    /// The application.
    pub app: AppId,
    /// Request counter within the app.
    pub seq: u32,
}

/// Identifies one running task instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstanceKey {
    /// The application.
    pub app: AppId,
    /// Task id within the app's graph.
    pub task: u32,
    /// Instance number within the task.
    pub instance: u32,
}

impl Codec for AppId {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_uvarint(self.0);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(AppId(dec.get_uvarint()?))
    }
}

impl Codec for ReqId {
    fn encode(&self, enc: &mut Encoder) {
        self.app.encode(enc);
        self.seq.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(ReqId {
            app: AppId::decode(dec)?,
            seq: u32::decode(dec)?,
        })
    }
}

impl Codec for InstanceKey {
    fn encode(&self, enc: &mut Encoder) {
        self.app.encode(enc);
        self.task.encode(enc);
        self.instance.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(InstanceKey {
            app: AppId::decode(dec)?,
            task: u32::decode(dec)?,
            instance: u32::decode(dec)?,
        })
    }
}

/// The program-loading order: everything a daemon needs to run one task
/// instance (§5: "the execution program then sends a path specification of
/// the program to be executed to each daemon on the list" — plus the
/// runtime metadata our richer runtime carries).
#[derive(Debug, Clone, PartialEq)]
pub struct LoadProgram {
    /// Which instance this is.
    pub key: InstanceKey,
    /// Program path / unit name (binary cache key).
    pub unit: String,
    /// Compute per instance, Mops.
    pub work_mops: f64,
    /// Memory requirement, MB (sizes address-space migration).
    pub mem_mb: u32,
    /// Task checkpoints cooperatively.
    pub checkpoints: bool,
    /// Checkpoint interval, µs.
    pub checkpoint_interval_us: u64,
    /// Task may be killed/restarted from scratch.
    pub restartable: bool,
    /// Address space may be dumped and resumed (same class).
    pub core_dumpable: bool,
    /// Other redundant incarnations exist; the daemon may evict this one
    /// when the owner returns (§4.4 migration-through-redundant-execution).
    pub redundant: bool,
    /// Input files the program reads (must be present or fetched).
    pub input_files: Vec<String>,
    /// Where completion reports go.
    pub reply_to: Addr,
}

impl Codec for LoadProgram {
    fn encode(&self, enc: &mut Encoder) {
        self.key.encode(enc);
        self.unit.encode(enc);
        enc.put_f64(self.work_mops);
        self.mem_mb.encode(enc);
        enc.put_bool(self.checkpoints);
        enc.put_u64(self.checkpoint_interval_us);
        enc.put_bool(self.restartable);
        enc.put_bool(self.core_dumpable);
        enc.put_bool(self.redundant);
        self.input_files.encode(enc);
        self.reply_to.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(LoadProgram {
            key: InstanceKey::decode(dec)?,
            unit: String::decode(dec)?,
            work_mops: dec.get_f64()?,
            mem_mb: u32::decode(dec)?,
            checkpoints: dec.get_bool()?,
            checkpoint_interval_us: dec.get_u64()?,
            restartable: dec.get_bool()?,
            core_dumpable: dec.get_bool()?,
            redundant: dec.get_bool()?,
            input_files: Vec::<String>::decode(dec)?,
            reply_to: Addr::decode(dec)?,
        })
    }
}

/// Migration state in flight between daemons (§4.4).
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationState {
    /// The instance being moved.
    pub key: InstanceKey,
    /// Program unit.
    pub unit: String,
    /// Work still to execute at the target, Mops.
    pub remaining_mops: f64,
    /// Bytes of state that travelled, KiB (target charges transfer time).
    pub state_kib: u64,
    /// Technique used (target may need to recompile).
    pub technique: MigrationTechnique,
    /// Memory requirement, MB.
    pub mem_mb: u32,
    /// Checkpointing metadata carried over.
    pub checkpoints: bool,
    /// Checkpoint interval, µs.
    pub checkpoint_interval_us: u64,
    /// Where completion reports go.
    pub reply_to: Addr,
}

impl Codec for MigrationState {
    fn encode(&self, enc: &mut Encoder) {
        self.key.encode(enc);
        self.unit.encode(enc);
        enc.put_f64(self.remaining_mops);
        enc.put_u64(self.state_kib);
        self.technique.encode(enc);
        self.mem_mb.encode(enc);
        enc.put_bool(self.checkpoints);
        enc.put_u64(self.checkpoint_interval_us);
        self.reply_to.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(MigrationState {
            key: InstanceKey::decode(dec)?,
            unit: String::decode(dec)?,
            remaining_mops: dec.get_f64()?,
            state_kib: dec.get_u64()?,
            technique: MigrationTechnique::decode(dec)?,
            mem_mb: u32::decode(dec)?,
            checkpoints: dec.get_bool()?,
            checkpoint_interval_us: dec.get_u64()?,
            reply_to: Addr::decode(dec)?,
        })
    }
}

/// Every message the execution module exchanges.
#[derive(Debug, Clone, PartialEq)]
pub enum ExmMsg {
    /// Group-communication traffic (membership, bids) rides inside the
    /// daemon protocol.
    Isis(IsisMsg),
    /// Executor → class group: request machines (Fig. 3). Sent to every
    /// daemon of the class; only the current leader fields it.
    ResourceRequest {
        /// Request identity (idempotent across retries).
        req: ReqId,
        /// Class whose group should serve this.
        class: MachineClass,
        /// Minimum machines needed.
        count_min: u32,
        /// Machines that can be used.
        count_max: u32,
        /// Per-instance memory requirement, MB.
        mem_mb: u32,
        /// Program unit to be run (placement prefers machines with its
        /// binary staged).
        unit: String,
        /// User/administrator priority boost (§4.3 authorized users).
        priority_boost: i32,
        /// Reply address (the executor).
        reply_to: Addr,
    },
    /// Leader → executor: machines allocated, in preference order.
    Allocation {
        /// The request answered. Allocations are small (≤ count_max
        /// machines), so the list stays inline — no heap node per message
        /// on the bidding hot path. Wire format is identical to
        /// `Vec<NodeId>`.
        req: ReqId,
        /// Allocated machines.
        nodes: NodeList,
    },
    /// Leader → executor: cannot serve (§5: "If there are insufficient
    /// resources within a group a message to that effect is returned").
    AllocError {
        /// The request refused.
        req: ReqId,
        /// Human-readable reason.
        reason: String,
    },
    /// The state-disclosure request the leader broadcasts inside the group
    /// (payload of the isis collect, whose `BcastId` correlates the bids).
    DiscloseState {
        /// At most [`MAX_ASKED_UNITS`] units: a bid's `staged` bit *i*
        /// says whether the bidder holds a binary for `units[i]`.
        units: NameList,
    },
    /// Executor → daemon: load and start a program.
    Load(LoadProgram),
    /// Daemon → executor: instance finished.
    TaskDone {
        /// Which instance.
        key: InstanceKey,
        /// Where it ran.
        node: NodeId,
    },
    /// Daemon → executor: instance was evicted (redundant incarnation
    /// killed by owner activity, or machine shutdown).
    TaskEvicted {
        /// Which instance.
        key: InstanceKey,
        /// Where it was running.
        node: NodeId,
    },
    /// Executor/daemon → daemon: kill an incarnation (redundancy cleanup).
    KillTask {
        /// Which instance.
        key: InstanceKey,
    },
    /// Leader → daemon: migrate a task away.
    MigrateOut {
        /// Which instance.
        key: InstanceKey,
        /// Destination machine.
        to: NodeId,
        /// Technique to use.
        technique: MigrationTechnique,
    },
    /// Source daemon → target daemon: the travelling process image.
    MigrateIn(MigrationState),
    /// Daemon → executor: a task changed machines (channel redirection).
    TaskMoved {
        /// Which instance.
        key: InstanceKey,
        /// New host.
        to: NodeId,
    },
    /// Executor → everyone involved: the application is over.
    Terminate {
        /// The application.
        app: AppId,
    },
    /// Executor → daemon: anticipatory compilation (§4.5) — compile `unit`
    /// for this daemon's class now, using idle cycles.
    AnticipateCompile {
        /// Program unit.
        unit: String,
        /// Compile cost, Mops of compiler work.
        compile_mops: f64,
    },
    /// Executor → daemon: anticipatory file replication (§4.5).
    AnticipateFile {
        /// File path.
        file: String,
        /// Size, KiB (drives fetch time when *not* anticipated).
        kib: u64,
    },
    /// Executor → daemon: is this instance still alive there? (The
    /// executor's watchdog against host crashes — the fault-tolerance §3.1.2
    /// promises "while the application is running".)
    ProbeTask {
        /// Which instance.
        key: InstanceKey,
        /// Where to reply.
        reply_to: Addr,
    },
    /// Leader → executor: the request cannot be served right now and has
    /// been queued with priority aging (§4.3). Resets the executor's
    /// retry budget so a long queue wait is not mistaken for a dead group.
    RequestQueued {
        /// The queued request.
        req: ReqId,
    },
    /// Recovered daemon → executor: this instance was found in the
    /// write-ahead log after a crash and has been restarted from its last
    /// checkpoint. The executor answers with `KillTask` if the instance is
    /// already done or has been re-placed elsewhere — the recovered copy
    /// defers to the live view, never the other way round.
    RecoveredTask {
        /// Which instance.
        key: InstanceKey,
        /// The recovering machine.
        node: NodeId,
    },
    /// Daemon → executor: probe answer.
    TaskStatusReply {
        /// Which instance.
        key: InstanceKey,
        /// True if the instance is resident here.
        running: bool,
        /// The answering machine.
        node: NodeId,
        /// Work left on the resident copy, Mops (0 when not running).
        /// Feeds the executor's straggler-hedging progress estimate.
        remaining_mops: f64,
    },
}

/// [`ExmMsg::ResourceRequest`] as the daemons read it. Every daemon of the
/// class receives each request, only the leader acts on it, and all it does
/// with the unit is pass it on in its disclosure — so the unit stays a view
/// of the message rather than a `String` built a dozen times per request.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceRequest {
    /// Request identity (idempotent across retries).
    pub req: ReqId,
    /// Class whose group should serve this.
    pub class: MachineClass,
    /// What is asked for.
    pub needs: Needs,
    /// User/administrator priority boost.
    pub priority_boost: i32,
    /// Reply address (the executor).
    pub reply_to: Addr,
}

impl ResourceRequest {
    /// The fields behind the `T_RESOURCE_REQUEST` tag.
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        let req = ReqId::decode(dec)?;
        let class = MachineClass::decode(dec)?;
        let count_min = u32::decode(dec)?;
        let (count_max, mem_mb) = (u32::decode(dec)?, u32::decode(dec)?);
        Ok(ResourceRequest {
            req,
            class,
            needs: Needs {
                mem_mb,
                count_min,
                count_max,
                unit: WireStr::decode(dec)?,
            },
            priority_boost: i32::decode(dec)?,
            reply_to: Addr::decode(dec)?,
        })
    }
}

/// A message as a daemon decodes it: an [`ExmMsg`], except that a resource
/// request is left in place (see [`ResourceRequest`]).
#[derive(Debug, Clone, PartialEq)]
pub enum DaemonInput {
    /// `ExmMsg::ResourceRequest`, read in place.
    Request(ResourceRequest),
    /// Any other message.
    Msg(ExmMsg),
}

// vce-lint: allow(P002) T_ISIS is encoded twice on purpose: the ExmMsg::Isis arm and encode_isis_frame's borrowed-IsisMsg twin emit byte-identical frames (hot path avoids cloning the inner message)
const T_ISIS: u8 = 0;
const T_RESOURCE_REQUEST: u8 = 1;
const T_ALLOCATION: u8 = 2;
const T_ALLOC_ERROR: u8 = 3;
const T_DISCLOSE: u8 = 4;
const T_LOAD: u8 = 5;
const T_TASK_DONE: u8 = 6;
const T_TASK_EVICTED: u8 = 7;
const T_KILL: u8 = 8;
const T_MIGRATE_OUT: u8 = 9;
const T_MIGRATE_IN: u8 = 10;
const T_TASK_MOVED: u8 = 11;
const T_TERMINATE: u8 = 12;
const T_ANT_COMPILE: u8 = 13;
const T_ANT_FILE: u8 = 14;
const T_PROBE: u8 = 15;
const T_STATUS_REPLY: u8 = 16;
const T_REQUEST_QUEUED: u8 = 17;
const T_RECOVERED_TASK: u8 = 18;

impl Codec for ExmMsg {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            ExmMsg::Isis(m) => {
                enc.put_u8(T_ISIS);
                m.encode(enc);
            }
            ExmMsg::ResourceRequest {
                req,
                class,
                count_min,
                count_max,
                mem_mb,
                unit,
                priority_boost,
                reply_to,
            } => {
                enc.put_u8(T_RESOURCE_REQUEST);
                req.encode(enc);
                class.encode(enc);
                count_min.encode(enc);
                count_max.encode(enc);
                mem_mb.encode(enc);
                unit.encode(enc);
                priority_boost.encode(enc);
                reply_to.encode(enc);
            }
            ExmMsg::Allocation { req, nodes } => {
                enc.put_u8(T_ALLOCATION);
                req.encode(enc);
                nodes.encode(enc);
            }
            ExmMsg::AllocError { req, reason } => {
                enc.put_u8(T_ALLOC_ERROR);
                req.encode(enc);
                reason.encode(enc);
            }
            // Only a receiver owns `units`; the leader sends borrowed ones.
            ExmMsg::DiscloseState { units } => {
                encode_disclose(&units.iter().collect::<Vec<_>>(), enc);
            }
            ExmMsg::Load(lp) => {
                enc.put_u8(T_LOAD);
                lp.encode(enc);
            }
            ExmMsg::TaskDone { key, node } => {
                enc.put_u8(T_TASK_DONE);
                key.encode(enc);
                node.encode(enc);
            }
            ExmMsg::TaskEvicted { key, node } => {
                enc.put_u8(T_TASK_EVICTED);
                key.encode(enc);
                node.encode(enc);
            }
            ExmMsg::KillTask { key } => {
                enc.put_u8(T_KILL);
                key.encode(enc);
            }
            ExmMsg::MigrateOut { key, to, technique } => {
                enc.put_u8(T_MIGRATE_OUT);
                key.encode(enc);
                to.encode(enc);
                technique.encode(enc);
            }
            ExmMsg::MigrateIn(state) => {
                enc.put_u8(T_MIGRATE_IN);
                state.encode(enc);
            }
            ExmMsg::TaskMoved { key, to } => {
                enc.put_u8(T_TASK_MOVED);
                key.encode(enc);
                to.encode(enc);
            }
            ExmMsg::Terminate { app } => {
                enc.put_u8(T_TERMINATE);
                app.encode(enc);
            }
            ExmMsg::AnticipateCompile { unit, compile_mops } => {
                enc.put_u8(T_ANT_COMPILE);
                unit.encode(enc);
                enc.put_f64(*compile_mops);
            }
            ExmMsg::AnticipateFile { file, kib } => {
                enc.put_u8(T_ANT_FILE);
                file.encode(enc);
                enc.put_u64(*kib);
            }
            ExmMsg::RequestQueued { req } => {
                enc.put_u8(T_REQUEST_QUEUED);
                req.encode(enc);
            }
            ExmMsg::ProbeTask { key, reply_to } => {
                enc.put_u8(T_PROBE);
                key.encode(enc);
                reply_to.encode(enc);
            }
            ExmMsg::RecoveredTask { key, node } => {
                enc.put_u8(T_RECOVERED_TASK);
                key.encode(enc);
                node.encode(enc);
            }
            ExmMsg::TaskStatusReply {
                key,
                running,
                node,
                remaining_mops,
            } => {
                enc.put_u8(T_STATUS_REPLY);
                key.encode(enc);
                enc.put_bool(*running);
                node.encode(enc);
                enc.put_f64(*remaining_mops);
            }
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(match DaemonInput::decode(dec)? {
            DaemonInput::Msg(msg) => msg,
            DaemonInput::Request(r) => ExmMsg::ResourceRequest {
                req: r.req,
                class: r.class,
                count_min: r.needs.count_min,
                count_max: r.needs.count_max,
                mem_mb: r.needs.mem_mb,
                unit: r.needs.unit.as_str().to_owned(),
                priority_boost: r.priority_boost,
                reply_to: r.reply_to,
            },
        })
    }
}

impl DaemonInput {
    /// Decode one message; the only reader of the `T_*` tags.
    pub fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(DaemonInput::Msg(match dec.get_u8()? {
            T_ISIS => ExmMsg::Isis(IsisMsg::decode(dec)?),
            T_RESOURCE_REQUEST => {
                return ResourceRequest::decode(dec).map(DaemonInput::Request);
            }
            T_ALLOCATION => ExmMsg::Allocation {
                req: ReqId::decode(dec)?,
                nodes: NodeList::decode(dec)?,
            },
            T_ALLOC_ERROR => ExmMsg::AllocError {
                req: ReqId::decode(dec)?,
                reason: String::decode(dec)?,
            },
            T_DISCLOSE => ExmMsg::DiscloseState {
                units: NameList::decode_at_most(dec, MAX_ASKED_UNITS)?,
            },
            T_LOAD => ExmMsg::Load(LoadProgram::decode(dec)?),
            T_TASK_DONE => ExmMsg::TaskDone {
                key: InstanceKey::decode(dec)?,
                node: NodeId::decode(dec)?,
            },
            T_TASK_EVICTED => ExmMsg::TaskEvicted {
                key: InstanceKey::decode(dec)?,
                node: NodeId::decode(dec)?,
            },
            T_KILL => ExmMsg::KillTask {
                key: InstanceKey::decode(dec)?,
            },
            T_MIGRATE_OUT => ExmMsg::MigrateOut {
                key: InstanceKey::decode(dec)?,
                to: NodeId::decode(dec)?,
                technique: MigrationTechnique::decode(dec)?,
            },
            T_MIGRATE_IN => ExmMsg::MigrateIn(MigrationState::decode(dec)?),
            T_TASK_MOVED => ExmMsg::TaskMoved {
                key: InstanceKey::decode(dec)?,
                to: NodeId::decode(dec)?,
            },
            T_TERMINATE => ExmMsg::Terminate {
                app: AppId::decode(dec)?,
            },
            T_ANT_COMPILE => ExmMsg::AnticipateCompile {
                unit: String::decode(dec)?,
                compile_mops: dec.get_f64()?,
            },
            T_ANT_FILE => ExmMsg::AnticipateFile {
                file: String::decode(dec)?,
                kib: dec.get_u64()?,
            },
            T_REQUEST_QUEUED => ExmMsg::RequestQueued {
                req: ReqId::decode(dec)?,
            },
            T_PROBE => ExmMsg::ProbeTask {
                key: InstanceKey::decode(dec)?,
                reply_to: Addr::decode(dec)?,
            },
            T_RECOVERED_TASK => ExmMsg::RecoveredTask {
                key: InstanceKey::decode(dec)?,
                node: NodeId::decode(dec)?,
            },
            T_STATUS_REPLY => ExmMsg::TaskStatusReply {
                key: InstanceKey::decode(dec)?,
                running: dec.get_bool()?,
                node: NodeId::decode(dec)?,
                remaining_mops: dec.get_f64()?,
            },
            other => {
                return Err(CodecError::InvalidDiscriminant {
                    value: u64::from(other),
                    type_name: "ExmMsg",
                })
            }
        }))
    }
}

/// Encode an [`ExmMsg`] to bytes (the daemon-protocol wrapper the isis
/// layer uses).
pub fn encode_msg(msg: &ExmMsg) -> Bytes {
    let mut enc = Encoder::with_capacity(96);
    msg.encode(&mut enc);
    enc.finish_bytes()
}

/// Write `ExmMsg::Isis(msg)`'s wire form from a borrowed [`IsisMsg`] —
/// byte-identical to wrapping and encoding, without cloning the message.
/// The daemon's group-member wrapper uses this on the pooled encode path.
pub fn encode_isis_frame(msg: &IsisMsg, enc: &mut Encoder) {
    enc.put_u8(T_ISIS);
    msg.encode(enc);
}

/// Most units one disclosure may ask about: a bid has a bit for each.
pub const MAX_ASKED_UNITS: u32 = u64::BITS;

/// [`ExmMsg::DiscloseState`]'s wire form — tag, count, units — from
/// borrowed units: the leader asks every round and builds no list.
pub fn encode_disclose(units: &[WireStr], enc: &mut Encoder) {
    debug_assert!(units.len() <= MAX_ASKED_UNITS as usize);
    enc.put_u8(T_DISCLOSE);
    NameList::encode_items(units, enc);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> InstanceKey {
        InstanceKey {
            app: AppId(3),
            task: 1,
            instance: 2,
        }
    }

    #[test]
    fn all_variants_round_trip() {
        let msgs = vec![
            ExmMsg::ResourceRequest {
                req: ReqId {
                    app: AppId(1),
                    seq: 2,
                },
                class: MachineClass::Simd,
                count_min: 1,
                count_max: 4,
                mem_mb: 64,
                unit: "predictor".into(),
                priority_boost: -2,
                reply_to: Addr::executor(NodeId(9)),
            },
            ExmMsg::Allocation {
                req: ReqId {
                    app: AppId(1),
                    seq: 2,
                },
                nodes: vec![NodeId(1), NodeId(2)].into(),
            },
            ExmMsg::AllocError {
                req: ReqId {
                    app: AppId(1),
                    seq: 3,
                },
                reason: "insufficient resources".into(),
            },
            ExmMsg::DiscloseState {
                units: Default::default(),
            },
            ExmMsg::DiscloseState {
                units: ["predictor", "/apps/snow/collector.vce"]
                    .map(WireStr::from)
                    .into_iter()
                    .collect(),
            },
            ExmMsg::Load(LoadProgram {
                key: key(),
                unit: "/apps/snow/predictor.vce".into(),
                work_mops: 500.0,
                mem_mb: 32,
                checkpoints: true,
                checkpoint_interval_us: 1_000_000,
                restartable: true,
                core_dumpable: false,
                redundant: true,
                input_files: vec!["/data/obs.dat".into()],
                reply_to: Addr::executor(NodeId(0)),
            }),
            ExmMsg::TaskDone {
                key: key(),
                node: NodeId(4),
            },
            ExmMsg::TaskEvicted {
                key: key(),
                node: NodeId(4),
            },
            ExmMsg::KillTask { key: key() },
            ExmMsg::MigrateOut {
                key: key(),
                to: NodeId(5),
                technique: MigrationTechnique::Checkpoint,
            },
            ExmMsg::MigrateIn(MigrationState {
                key: key(),
                unit: "u".into(),
                remaining_mops: 123.5,
                state_kib: 4096,
                technique: MigrationTechnique::CoreDump,
                mem_mb: 16,
                checkpoints: false,
                checkpoint_interval_us: 0,
                reply_to: Addr::executor(NodeId(0)),
            }),
            ExmMsg::TaskMoved {
                key: key(),
                to: NodeId(5),
            },
            ExmMsg::Terminate { app: AppId(3) },
            ExmMsg::AnticipateCompile {
                unit: "u".into(),
                compile_mops: 50.0,
            },
            ExmMsg::AnticipateFile {
                file: "/data/grid.dat".into(),
                kib: 2048,
            },
            ExmMsg::RecoveredTask {
                key: key(),
                node: NodeId(4),
            },
            ExmMsg::ProbeTask {
                key: key(),
                reply_to: Addr::executor(NodeId(7)),
            },
            ExmMsg::TaskStatusReply {
                key: key(),
                running: true,
                node: NodeId(4),
                remaining_mops: 87.25,
            },
            ExmMsg::RequestQueued {
                req: ReqId {
                    app: AppId(1),
                    seq: 9,
                },
            },
        ];
        for m in msgs {
            let bytes = encode_msg(&m);
            let back: ExmMsg = vce_codec::from_bytes(&bytes).unwrap();
            assert_eq!(back, m, "{m:?}");
        }
    }

    #[test]
    fn isis_wrapping_round_trips() {
        let m = ExmMsg::Isis(IsisMsg::Heartbeat {
            incarnation: 1,
            view_id: 2,
            view_len: 3,
            joining: false,
            fifo_next: 0,
        });
        let bytes = encode_msg(&m);
        assert_eq!(vce_codec::from_bytes::<ExmMsg>(&bytes).unwrap(), m);
    }

    #[test]
    fn unknown_discriminant_rejected() {
        assert!(vce_codec::from_bytes::<ExmMsg>(&[200]).is_err());
    }
}
