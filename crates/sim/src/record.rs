//! Binary trace record/replay: the `.vct` (VCE trace) format.
//!
//! A recorded run is a durable, tamper-evident repro artifact: every event
//! pop `(at_us, cause, node, kind)` plus periodic snapshot frames carrying
//! per-node and whole-sim FNV-1a state hashes. Replaying the same scenario
//! against the current binary and diffing the two traces localises a
//! divergence to one event — first by bisecting the snapshot hash chain to
//! one snapshot interval, then by scanning that interval's event records
//! (see [`first_divergence`]).
//!
//! # File layout
//!
//! ```text
//! "VCT1"                                  4-byte magic
//! [u32 len][u32 crc][u8 tag][payload]     frame, repeated
//! ```
//!
//! Framing is `vce-storage`'s `[len][crc][payload]` (big-endian,
//! CRC-32/IEEE), with one addition: each frame's CRC covers the **previous
//! frame's CRC** followed by the frame body, forming a hash chain seeded by
//! `crc32(magic)`. Truncation, reordering, splicing or bit rot therefore
//! breaks the chain at the first bad frame, and the reader reports
//! *"truncated after frame N"* rather than replaying a silently-shortened
//! prefix as complete. A well-formed file ends with an [`FrameKind::End`]
//! frame; its absence is truncation too (the writer crashed mid-record).
//!
//! Frame kinds: `Header` (version, snapshot cadence, scenario string),
//! `Events` (a batch of event records, written at every engine sync point),
//! `Snapshot` (event index + whole-sim hash + sorted per-node hashes),
//! `End` (totals + final hash). Since format version 2, `Events` frames
//! varint delta-encode their records (`at_us` as a delta from the previous
//! record, `cause` as a zigzag delta, `node`/`a`/`b` as plain varints) —
//! a ~3× size cut on real recordings. Version 3 records a delivery's
//! payload length where version 2 recorded the envelope's sequence number,
//! which the envelope no longer carries. Version 4 is version 3's layout
//! under the wire rule that makes every `u64`, `i64` and `f64` a uvarint
//! (DESIGN decision 36): every delivery's payload length moved, so a
//! version-3 file cannot replay. Version 5 is version 4's layout under the
//! isis wire form that names a cast by its sender and FIFO number (DESIGN
//! decision 37): cast and reply payload lengths moved, and so did every
//! isis member's snapshot hash. Files of versions 1 (fixed-width) to 4 are
//! rejected. The engine writes frames at driver-call
//! boundaries, which are independent of the shard count — so a `.vct` file
//! is **byte-identical for `VCE_SHARDS` ∈ {1, 2, 4, 8}**, making the
//! sharded engine independently verifiable (`scripts/ci.sh` diffs the
//! files; `crates/sim/tests/record_replay.rs` asserts it in-process).

use std::fmt;
use std::io::{self, Write};
use std::path::Path;

use vce_codec::{Decoder, Encoder};
use vce_net::NodeId;
use vce_storage::{crc32, FRAME_HEADER, MAX_RECORD};

/// File magic: "VCT1".
pub const MAGIC: &[u8; 4] = b"VCT1";
/// Format version written in the header frame, and the only one the
/// reader accepts. Version 2 varint delta-encodes `Events` frames (see
/// [`TraceWriter::append_events`]); version 3 gives `EV_DELIVER` records
/// the payload length as their `a`; version 4 records payloads whose every
/// number is a uvarint; version 5 records isis casts and replies that carry
/// no broadcast id, and member hashes without the ordering counters.
pub const VERSION: u16 = 5;

// Event-kind tags inside an `Events` frame (one per engine event pop).
/// An endpoint `on_start` (node boot or revive).
pub const EV_START: u8 = 0;
/// An envelope delivery (batched deliveries record one each).
pub const EV_DELIVER: u8 = 1;
/// A timer firing.
pub const EV_TIMER: u8 = 2;
/// A CPU completion check.
pub const EV_CPU: u8 = 3;
/// A background-load change.
pub const EV_LOAD: u8 = 4;
/// A fault fence application (kill/revive/partition/heal/link).
pub const EV_FENCE: u8 = 5;

// Fence-op tags carried in an `EV_FENCE` record's `a` field.
/// `FaultOp::Kill`.
pub const FENCE_KILL: u64 = 0;
/// `FaultOp::Revive`.
pub const FENCE_REVIVE: u64 = 1;
/// `FaultOp::Partition` (`b` = group).
pub const FENCE_PARTITION: u64 = 2;
/// `FaultOp::Heal`.
pub const FENCE_HEAL: u64 = 3;
/// `FaultOp::DefaultLink` (`b` = FNV of the link-fault fields).
pub const FENCE_LINK: u64 = 4;
/// `FaultOp::Link` — directed per-link fault (`b` = `dst << 32 | FNV of the
/// link-fault fields (truncated)`, record node = src).
pub const FENCE_LINK_DIR: u64 = 5;
/// `FaultOp::ClearLink` (`b` = dst node, record node = src).
pub const FENCE_CLEAR_LINK: u64 = 6;
/// `FaultOp::SlowNode` (`b` = slowdown factor; 1 = restore).
pub const FENCE_SLOW: u64 = 7;

/// One recorded event pop. `a`/`b` are kind-specific details (timer token,
/// payload length, load bits, fence op) — enough to tell two schedules apart
/// at the first divergent pop without storing payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventRecord {
    /// Sim time of the pop, µs.
    pub at_us: u64,
    /// The event's cause key (`origin << 40 | seq`) — the global tiebreak.
    pub cause: u64,
    /// Node the event executed on.
    pub node: NodeId,
    /// `EV_*` tag.
    pub kind: u8,
    /// Kind detail: port (`EV_START`), payload length in bytes
    /// (`EV_DELIVER`; the delivery itself is named by `cause`), token
    /// (`EV_TIMER`), generation (`EV_CPU`), load bits (`EV_LOAD`), fence op
    /// (`EV_FENCE`).
    pub a: u64,
    /// Second detail: source addr code (`EV_DELIVER`), port (`EV_TIMER`),
    /// fence aux (`EV_FENCE`); 0 otherwise.
    pub b: u64,
}

impl fmt::Display for EventRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.kind {
            EV_START => "start",
            EV_DELIVER => "deliver",
            EV_TIMER => "timer",
            EV_CPU => "cpu",
            EV_LOAD => "load",
            EV_FENCE => "fence",
            _ => "?",
        };
        write!(
            f,
            "[{:>12}µs {} cause={:#x}] {} a={:#x} b={:#x}",
            self.at_us, self.node, self.cause, kind, self.a, self.b
        )
    }
}

/// One snapshot frame: the state-hash checkpoint bisection narrows with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotRecord {
    /// Sim time the snapshot was cut, µs.
    pub at_us: u64,
    /// Events recorded before this snapshot (index into the event stream).
    pub event_index: u64,
    /// Whole-sim digest (time, event index, every per-node hash).
    pub sim_hash: u64,
    /// Per-node digests, sorted by node id.
    pub nodes: Vec<(NodeId, u64)>,
}

/// The `End` frame: totals a complete recording signs off with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EndRecord {
    /// Total event records written.
    pub events: u64,
    /// Total snapshot frames written.
    pub snapshots: u64,
    /// Final whole-sim hash.
    pub sim_hash: u64,
    /// Sim clock when recording finished, µs.
    pub now_us: u64,
}

/// Frame kinds of the `.vct` container. Constructed by the writer methods
/// and by [`FrameKind::from_tag`]; every variant must have a decode arm in
/// [`read_trace`]'s `decode_frame` — vce-lint's P004 journal⇔replay check
/// covers this enum, so adding a frame kind without teaching the reader
/// fails the lint gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Version, snapshot cadence, scenario string. Always the first frame.
    Header,
    /// A batch of [`EventRecord`]s (one engine sync point).
    Events,
    /// A [`SnapshotRecord`].
    Snapshot,
    /// An [`EndRecord`]. Always the last frame.
    End,
}

impl FrameKind {
    /// Wire tag of this frame kind.
    pub fn tag(self) -> u8 {
        match self {
            FrameKind::Header => 1,
            FrameKind::Events => 2,
            FrameKind::Snapshot => 3,
            FrameKind::End => 4,
        }
    }

    /// Frame kind for a wire tag.
    pub fn from_tag(tag: u8) -> Option<FrameKind> {
        match tag {
            1 => Some(FrameKind::Header),
            2 => Some(FrameKind::Events),
            3 => Some(FrameKind::Snapshot),
            4 => Some(FrameKind::End),
            _ => None,
        }
    }
}

/// Zigzag-map a signed difference onto small unsigned varints (±n → 2n∓).
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

// ----------------------------------------------------------------------
// Writer
// ----------------------------------------------------------------------

enum Sink {
    File(io::BufWriter<std::fs::File>),
    Memory(Vec<u8>),
}

impl Sink {
    fn write_all(&mut self, bytes: &[u8]) -> io::Result<()> {
        match self {
            Sink::File(f) => f.write_all(bytes),
            Sink::Memory(v) => {
                v.extend_from_slice(bytes);
                Ok(())
            }
        }
    }
}

/// Streaming `.vct` writer. Frames are CRC-chained as they are appended;
/// [`TraceWriter::finish`] writes the `End` frame and flushes.
pub struct TraceWriter {
    sink: Sink,
    prev_crc: u32,
    frames: u64,
    events: u64,
    snapshots: u64,
    scratch: Encoder,
}

impl TraceWriter {
    /// Open `path` (truncating) and write the magic + header frame.
    pub fn to_file(path: &Path, scenario: &str, snapshot_every_us: u64) -> io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Self::start(
            Sink::File(io::BufWriter::new(file)),
            scenario,
            snapshot_every_us,
        )
    }

    /// Record into memory; [`TraceWriter::finish`] returns the bytes.
    pub fn to_memory(scenario: &str, snapshot_every_us: u64) -> Self {
        Self::start(Sink::Memory(Vec::new()), scenario, snapshot_every_us)
            .expect("memory sink cannot fail")
    }

    fn start(sink: Sink, scenario: &str, snapshot_every_us: u64) -> io::Result<Self> {
        let mut w = Self {
            sink,
            prev_crc: crc32(MAGIC),
            frames: 0,
            events: 0,
            snapshots: 0,
            scratch: Encoder::with_capacity(256),
        };
        w.sink.write_all(MAGIC)?;
        w.scratch.clear();
        w.scratch.put_u16(VERSION);
        w.scratch.put_u64(snapshot_every_us);
        w.scratch.put_str(scenario);
        w.write_frame(FrameKind::Header)?;
        Ok(w)
    }

    /// Frame the scratch buffer's contents under `kind` and chain the CRC.
    fn write_frame(&mut self, kind: FrameKind) -> io::Result<()> {
        let body_len = self.scratch.len() + 1; // + tag byte
        assert!(body_len <= MAX_RECORD, "oversized record frame");
        let mut crc_input = Vec::with_capacity(4 + body_len);
        crc_input.extend_from_slice(&self.prev_crc.to_be_bytes());
        crc_input.push(kind.tag());
        crc_input.extend_from_slice(self.scratch.as_slice());
        let crc = crc32(&crc_input);
        self.sink.write_all(&(body_len as u32).to_be_bytes())?;
        self.sink.write_all(&crc.to_be_bytes())?;
        self.sink.write_all(&crc_input[4..])?;
        self.prev_crc = crc;
        self.frames += 1;
        Ok(())
    }

    /// Append a batch of event records as one `Events` frame (no-op for an
    /// empty batch, so frame boundaries stay driver-determined).
    ///
    /// Version-2 framing: records are in global `(at_us, cause)` order, so
    /// `at_us` is stored as a varint delta from the previous record (the
    /// first record's delta is from 0 — frames stay self-contained) and
    /// `cause` as a zigzag varint of its wrapping difference — consecutive
    /// events usually share an origin, making the difference small.
    /// `node`/`a`/`b` are plain varints. Wrapping arithmetic means *any*
    /// sequence round-trips; monotonicity only buys compactness.
    pub fn append_events(&mut self, recs: &[EventRecord]) -> io::Result<()> {
        if recs.is_empty() {
            return Ok(());
        }
        self.scratch.clear();
        self.scratch.put_u32(recs.len() as u32);
        let (mut prev_at, mut prev_cause) = (0u64, 0u64);
        for r in recs {
            self.scratch.put_uvarint(r.at_us.wrapping_sub(prev_at));
            self.scratch
                .put_uvarint(zigzag(r.cause.wrapping_sub(prev_cause) as i64));
            self.scratch.put_uvarint(u64::from(r.node.0));
            self.scratch.put_u8(r.kind);
            self.scratch.put_uvarint(r.a);
            self.scratch.put_uvarint(r.b);
            prev_at = r.at_us;
            prev_cause = r.cause;
        }
        self.events += recs.len() as u64;
        self.write_frame(FrameKind::Events)
    }

    /// Append a snapshot frame.
    pub fn snapshot(&mut self, snap: &SnapshotRecord) -> io::Result<()> {
        self.scratch.clear();
        self.scratch.put_u64(snap.at_us);
        self.scratch.put_u64(snap.event_index);
        self.scratch.put_u64(snap.sim_hash);
        self.scratch.put_u32(snap.nodes.len() as u32);
        for &(node, hash) in &snap.nodes {
            self.scratch.put_u32(node.0);
            self.scratch.put_u64(hash);
        }
        self.snapshots += 1;
        self.write_frame(FrameKind::Snapshot)
    }

    /// Write the `End` frame, flush, and return the recording (memory
    /// sinks return their bytes; file sinks return `None`).
    pub fn finish(mut self, sim_hash: u64, now_us: u64) -> io::Result<Option<Vec<u8>>> {
        self.scratch.clear();
        self.scratch.put_u64(self.events);
        self.scratch.put_u64(self.snapshots);
        self.scratch.put_u64(sim_hash);
        self.scratch.put_u64(now_us);
        self.write_frame(FrameKind::End)?;
        match self.sink {
            Sink::File(mut f) => {
                f.flush()?;
                Ok(None)
            }
            Sink::Memory(v) => Ok(Some(v)),
        }
    }
}

// ----------------------------------------------------------------------
// Reader
// ----------------------------------------------------------------------

/// A fully parsed, chain-verified recording.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordedTrace {
    /// Format version from the header (always [`VERSION`]).
    pub version: u16,
    /// Scenario string from the header (e.g. `chaos seed=100 shape=crashes
    /// technique=checkpoint`) — enough for a replay tool to re-run the cell.
    pub scenario: String,
    /// Snapshot cadence the recording ran with, µs.
    pub snapshot_every_us: u64,
    /// Every event pop, in global order.
    pub events: Vec<EventRecord>,
    /// Every snapshot, in order.
    pub snapshots: Vec<SnapshotRecord>,
    /// The closing totals.
    pub end: EndRecord,
    /// Total frames in the file (header + events + snapshots + end).
    pub frames: u64,
}

/// Why a `.vct` file failed to parse. A reader never panics on torn or
/// tampered input and never returns a partial trace as complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadError {
    /// The file does not start with the `VCT1` magic.
    BadMagic,
    /// The file ends mid-frame, or cleanly but without an `End` frame:
    /// `frames_read` complete frames parsed before the tear.
    Truncated {
        /// Complete, chain-valid frames parsed before the tear.
        frames_read: u64,
    },
    /// A structurally complete frame failed the CRC chain or decoded
    /// inconsistently — tampering, splicing, or bit rot.
    Corrupt {
        /// Complete, chain-valid frames parsed before the bad one.
        frames_read: u64,
        /// What failed.
        detail: String,
    },
    /// Underlying I/O failure reading the file.
    Io(String),
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadError::BadMagic => write!(f, "not a .vct file (bad magic)"),
            ReadError::Truncated { frames_read } => {
                write!(f, "truncated after frame {frames_read}")
            }
            ReadError::Corrupt {
                frames_read,
                detail,
            } => write!(f, "corrupt after frame {frames_read}: {detail}"),
            ReadError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for ReadError {}

/// Decode one frame body into the trace under construction. The match over
/// [`FrameKind`] is the decode side of the P004 journal⇔replay contract:
/// every frame kind the writer can emit is handled here.
fn decode_frame(
    kind: FrameKind,
    dec: &mut Decoder<'_>,
    out: &mut RecordedTrace,
    ended: &mut bool,
) -> Result<(), String> {
    match kind {
        FrameKind::Header => {
            if out.frames > 0 {
                return Err("header frame not first".into());
            }
            let version = dec.get_u16().map_err(|e| e.to_string())?;
            if version != VERSION {
                return Err(format!("unsupported version {version}"));
            }
            out.version = version;
            out.snapshot_every_us = dec.get_u64().map_err(|e| e.to_string())?;
            out.scenario = dec.get_str().map_err(|e| e.to_string())?.to_string();
        }
        FrameKind::Events => {
            let n = dec.get_u32().map_err(|e| e.to_string())?;
            let (mut prev_at, mut prev_cause) = (0u64, 0u64);
            for _ in 0..n {
                let at_us = prev_at.wrapping_add(dec.get_uvarint().map_err(|e| e.to_string())?);
                let cause = prev_cause
                    .wrapping_add(unzigzag(dec.get_uvarint().map_err(|e| e.to_string())?) as u64);
                let node = dec.get_uvarint().map_err(|e| e.to_string())?;
                let node =
                    NodeId(u32::try_from(node).map_err(|_| format!("node id {node} overflows"))?);
                let rec = EventRecord {
                    at_us,
                    cause,
                    node,
                    kind: dec.get_u8().map_err(|e| e.to_string())?,
                    a: dec.get_uvarint().map_err(|e| e.to_string())?,
                    b: dec.get_uvarint().map_err(|e| e.to_string())?,
                };
                prev_at = rec.at_us;
                prev_cause = rec.cause;
                out.events.push(rec);
            }
        }
        FrameKind::Snapshot => {
            let at_us = dec.get_u64().map_err(|e| e.to_string())?;
            let event_index = dec.get_u64().map_err(|e| e.to_string())?;
            let sim_hash = dec.get_u64().map_err(|e| e.to_string())?;
            let n = dec.get_u32().map_err(|e| e.to_string())?;
            let mut nodes = Vec::with_capacity(n as usize);
            for _ in 0..n {
                let node = NodeId(dec.get_u32().map_err(|e| e.to_string())?);
                let hash = dec.get_u64().map_err(|e| e.to_string())?;
                nodes.push((node, hash));
            }
            out.snapshots.push(SnapshotRecord {
                at_us,
                event_index,
                sim_hash,
                nodes,
            });
        }
        FrameKind::End => {
            out.end = EndRecord {
                events: dec.get_u64().map_err(|e| e.to_string())?,
                snapshots: dec.get_u64().map_err(|e| e.to_string())?,
                sim_hash: dec.get_u64().map_err(|e| e.to_string())?,
                now_us: dec.get_u64().map_err(|e| e.to_string())?,
            };
            *ended = true;
        }
    }
    if !dec.is_empty() {
        return Err("trailing bytes in frame".into());
    }
    Ok(())
}

/// Parse and chain-verify a `.vct` byte buffer.
pub fn read_trace(bytes: &[u8]) -> Result<RecordedTrace, ReadError> {
    if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
        return Err(ReadError::BadMagic);
    }
    let mut out = RecordedTrace {
        version: VERSION,
        scenario: String::new(),
        snapshot_every_us: 0,
        events: Vec::new(),
        snapshots: Vec::new(),
        end: EndRecord {
            events: 0,
            snapshots: 0,
            sim_hash: 0,
            now_us: 0,
        },
        frames: 0,
    };
    let mut off = MAGIC.len();
    let mut prev_crc = crc32(MAGIC);
    let mut ended = false;
    while off < bytes.len() {
        if ended {
            // Bytes after a chain-valid End frame cannot be a tear — the
            // writer seals the file with End. They are tampering.
            return Err(ReadError::Corrupt {
                frames_read: out.frames,
                detail: format!("{} trailing bytes after the End frame", bytes.len() - off),
            });
        }
        let rest = &bytes[off..];
        if rest.len() < FRAME_HEADER {
            return Err(ReadError::Truncated {
                frames_read: out.frames,
            });
        }
        let len = u32::from_be_bytes(rest[..4].try_into().unwrap()) as usize;
        if len == 0 || len > MAX_RECORD {
            // A garbage length header is indistinguishable from a tear mid-
            // header; report it as the tear it almost always is.
            return Err(ReadError::Truncated {
                frames_read: out.frames,
            });
        }
        if rest.len() < FRAME_HEADER + len {
            return Err(ReadError::Truncated {
                frames_read: out.frames,
            });
        }
        let crc = u32::from_be_bytes(rest[4..8].try_into().unwrap());
        let body = &rest[FRAME_HEADER..FRAME_HEADER + len];
        let mut crc_input = Vec::with_capacity(4 + len);
        crc_input.extend_from_slice(&prev_crc.to_be_bytes());
        crc_input.extend_from_slice(body);
        if crc32(&crc_input) != crc {
            // A bad CRC on the *last* frame is the classic torn tail; mid-
            // file it is corruption. Both refuse to replay; distinguish so
            // the operator knows whether the tail or the middle is bad.
            if off + FRAME_HEADER + len == bytes.len() {
                return Err(ReadError::Truncated {
                    frames_read: out.frames,
                });
            }
            return Err(ReadError::Corrupt {
                frames_read: out.frames,
                detail: "frame CRC does not chain from its predecessor".into(),
            });
        }
        let Some(kind) = FrameKind::from_tag(body[0]) else {
            return Err(ReadError::Corrupt {
                frames_read: out.frames,
                detail: format!("unknown frame tag {}", body[0]),
            });
        };
        let mut dec = Decoder::new(&body[1..]);
        decode_frame(kind, &mut dec, &mut out, &mut ended).map_err(|detail| {
            ReadError::Corrupt {
                frames_read: out.frames,
                detail,
            }
        })?;
        if out.frames == 0 && kind != FrameKind::Header {
            return Err(ReadError::Corrupt {
                frames_read: 0,
                detail: "first frame is not a header".into(),
            });
        }
        out.frames += 1;
        prev_crc = crc;
        off += FRAME_HEADER + len;
    }
    if !ended {
        // Clean frame boundary but no End: the writer died mid-recording.
        return Err(ReadError::Truncated {
            frames_read: out.frames,
        });
    }
    if out.end.events != out.events.len() as u64 || out.end.snapshots != out.snapshots.len() as u64
    {
        return Err(ReadError::Corrupt {
            frames_read: out.frames,
            detail: format!(
                "End frame totals ({} events, {} snapshots) disagree with the body ({}, {})",
                out.end.events,
                out.end.snapshots,
                out.events.len(),
                out.snapshots.len()
            ),
        });
    }
    Ok(out)
}

/// Read and parse a `.vct` file.
pub fn read_trace_file(path: &Path) -> Result<RecordedTrace, ReadError> {
    let bytes = std::fs::read(path).map_err(|e| ReadError::Io(e.to_string()))?;
    read_trace(&bytes)
}

// ----------------------------------------------------------------------
// Divergence
// ----------------------------------------------------------------------

/// Where two recordings of the same scenario first split.
#[derive(Debug, Clone, PartialEq)]
pub enum Divergence {
    /// Identical: same events, same hash chain, same final hash.
    None,
    /// The first differing event record, localised by snapshot bisection to
    /// `window` (event-index half-open range).
    Event {
        /// Global index of the first differing event.
        index: u64,
        /// Snapshot-bisected window `[lo, hi)` the divergence lies in.
        window: (u64, u64),
        /// What the recording has at `index` (`None` = it ended first).
        recorded: Option<EventRecord>,
        /// What the replay has at `index` (`None` = it ended first).
        replayed: Option<EventRecord>,
    },
    /// Event streams agree but a state hash splits: silent state drift
    /// (some state not reflected in the event schedule changed).
    StateHash {
        /// Index of the first differing snapshot (== snapshot count when
        /// only the final `End` hash differs).
        snapshot: u64,
        /// Sim time of that snapshot, µs.
        at_us: u64,
        /// Event window `[lo, hi)` bounded by the adjacent snapshots.
        window: (u64, u64),
        /// First node whose per-node hash differs, if any.
        node: Option<NodeId>,
    },
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Divergence::None => write!(f, "no divergence"),
            Divergence::Event {
                index,
                window,
                recorded,
                replayed,
            } => {
                writeln!(
                    f,
                    "first divergence at event {index} (snapshot window [{}, {}))",
                    window.0, window.1
                )?;
                match recorded {
                    Some(r) => writeln!(f, "  recorded: {r}")?,
                    None => writeln!(f, "  recorded: <ended at {index}>")?,
                }
                match replayed {
                    Some(r) => write!(f, "  replayed: {r}"),
                    None => write!(f, "  replayed: <ended at {index}>"),
                }
            }
            Divergence::StateHash {
                snapshot,
                at_us,
                window,
                node,
            } => {
                write!(
                    f,
                    "state hash diverged at snapshot {snapshot} ({at_us}µs), events identical \
                     in window [{}, {})",
                    window.0, window.1
                )?;
                if let Some(n) = node {
                    write!(f, "; first differing node: {n}")?;
                }
                Ok(())
            }
        }
    }
}

/// Compare a recording against a replay of the same scenario and localise
/// the first divergence.
///
/// Strategy: binary-search the snapshot hash chain for the first snapshot
/// whose whole-sim hash differs (divergence in a deterministic replay is
/// permanent, so "matches" is a prefix property and bisection is sound),
/// then scan only the event window between the last agreeing snapshot and
/// the first disagreeing one for the first differing [`EventRecord`]. Cost
/// is `O(log S)` hash compares plus one snapshot interval of event
/// compares, not `O(events)`.
pub fn first_divergence(recorded: &RecordedTrace, replayed: &RecordedTrace) -> Divergence {
    let common = recorded.snapshots.len().min(replayed.snapshots.len());
    // partition_point: count of leading snapshots whose hashes agree.
    let agree = (0..common)
        .collect::<Vec<_>>()
        .partition_point(|&i| recorded.snapshots[i].sim_hash == replayed.snapshots[i].sim_hash);
    let win_lo = if agree == 0 {
        0
    } else {
        recorded.snapshots[agree - 1].event_index
    };
    let (win_hi, diverged_snapshot) = if agree < common {
        (recorded.snapshots[agree].event_index, Some(agree))
    } else {
        (
            recorded.events.len().max(replayed.events.len()) as u64,
            None,
        )
    };
    // Scan the bisected window for the first differing event record.
    for i in win_lo..win_hi {
        let r = recorded.events.get(i as usize);
        let p = replayed.events.get(i as usize);
        if r != p {
            return Divergence::Event {
                index: i,
                window: (win_lo, win_hi),
                recorded: r.copied(),
                replayed: p.copied(),
            };
        }
        if r.is_none() {
            break; // both ended inside the window
        }
    }
    if let Some(s) = diverged_snapshot {
        // Events in the window agree but the hash split: state drift.
        let snap = &recorded.snapshots[s];
        let other = &replayed.snapshots[s];
        let node = snap
            .nodes
            .iter()
            .zip(other.nodes.iter())
            .find(|(a, b)| a != b)
            .map(|(a, _)| a.0);
        return Divergence::StateHash {
            snapshot: s as u64,
            at_us: snap.at_us,
            window: (win_lo, win_hi),
            node,
        };
    }
    if recorded.snapshots.len() != replayed.snapshots.len() {
        let s = common as u64;
        return Divergence::StateHash {
            snapshot: s,
            at_us: recorded
                .snapshots
                .get(common)
                .or_else(|| replayed.snapshots.get(common))
                .map_or(0, |x| x.at_us),
            window: (win_lo, win_hi),
            node: None,
        };
    }
    if recorded.end.sim_hash != replayed.end.sim_hash {
        return Divergence::StateHash {
            snapshot: recorded.snapshots.len() as u64,
            at_us: recorded.end.now_us,
            window: (win_lo, win_hi),
            node: None,
        };
    }
    Divergence::None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(i: u64) -> EventRecord {
        EventRecord {
            at_us: i * 10,
            cause: (1 << 40) | i,
            node: NodeId((i % 3) as u32),
            kind: EV_DELIVER,
            a: i,
            b: 7,
        }
    }

    fn snap(at: u64, idx: u64, hash: u64) -> SnapshotRecord {
        SnapshotRecord {
            at_us: at,
            event_index: idx,
            sim_hash: hash,
            nodes: vec![(NodeId(0), hash ^ 1), (NodeId(1), hash ^ 2)],
        }
    }

    /// Write a small well-formed trace to memory.
    fn sample(perturb: Option<usize>) -> Vec<u8> {
        let mut w = TraceWriter::to_memory("test scenario", 100);
        let mut all: Vec<EventRecord> = (0..20).map(ev).collect();
        if let Some(i) = perturb {
            // Keep the perturbed value inside one varint group so the
            // perturbed file has the same length (the splice test needs
            // same-shape traces).
            all[i].a ^= 0x55;
        }
        w.snapshot(&snap(0, 0, 111)).unwrap();
        w.append_events(&all[..10]).unwrap();
        let h1 = if perturb.is_some_and(|i| i < 10) {
            999
        } else {
            222
        };
        w.snapshot(&snap(100, 10, h1)).unwrap();
        w.append_events(&all[10..]).unwrap();
        let h2 = if perturb.is_some() { 998 } else { 333 };
        w.snapshot(&snap(200, 20, h2)).unwrap();
        w.finish(h2, 200).unwrap().unwrap()
    }

    /// Rewrite a sealed recording's header to claim `version` and re-chain
    /// that frame's CRC, so the version check — not the CRC — is what
    /// refuses it.
    fn refusal_of_version(version: u16) -> String {
        let mut file = TraceWriter::to_memory("old scenario", 50)
            .finish(0, 0)
            .unwrap()
            .unwrap();
        let body = MAGIC.len() + FRAME_HEADER;
        let end = body + u32::from_be_bytes(file[4..8].try_into().unwrap()) as usize;
        file[body + 1..body + 3].copy_from_slice(&version.to_be_bytes());
        let mut crc_input = crc32(MAGIC).to_be_bytes().to_vec();
        crc_input.extend_from_slice(&file[body..end]);
        file[8..12].copy_from_slice(&crc32(&crc_input).to_be_bytes());
        read_trace(&file).unwrap_err().to_string()
    }

    #[test]
    fn version_1_recordings_are_rejected() {
        let err = refusal_of_version(1);
        assert!(
            err.contains("unsupported version 1"),
            "unexpected error: {err}"
        );
    }

    /// Version 2 recorded a delivery's envelope sequence number in `a`;
    /// its files are refused rather than compared against later `a`s.
    /// Since version 3 a delivery's `a` is the length of the payload
    /// delivered.
    #[test]
    fn version_2_is_refused_and_a_delivery_records_its_payload_length() {
        let err = refusal_of_version(2);
        assert!(
            err.contains("unsupported version 2"),
            "unexpected error: {err}"
        );

        let mut sim = crate::Sim::new(crate::SimConfig::default());
        sim.add_node(vce_net::MachineInfo::workstation(NodeId(0), 100.0));
        sim.record_to_memory("payload length", 1_000);
        let (src, dst) = (
            vce_net::Addr::daemon(NodeId(1)),
            vce_net::Addr::daemon(NodeId(0)),
        );
        sim.inject_at(5, src, dst, bytes::Bytes::from_static(b"seventeen bytes!!"));
        sim.run_until_idle();
        let bytes = sim.finish_recording().unwrap().unwrap();
        let trace = read_trace(&bytes).unwrap();
        let delivery = trace.events.iter().find(|e| e.kind == EV_DELIVER).unwrap();
        assert_eq!((delivery.at_us, delivery.a), (5, 17));
        assert_eq!(delivery.b, 1 << 32, "source code: node 1, daemon port 0");
    }

    /// Version 3 payloads carried fixed-width `u64`s, `i64`s and `f64`s,
    /// so its delivery lengths cannot match a replay's: refused.
    #[test]
    fn version_3_recordings_are_refused() {
        let err = refusal_of_version(3);
        assert!(
            err.contains("unsupported version 3"),
            "unexpected error: {err}"
        );
    }

    /// Version 4 recorded isis casts and replies that carried a broadcast
    /// id, and member hashes that folded the causal and total counters:
    /// its lengths and hashes cannot match a replay's, so it is refused.
    #[test]
    fn version_4_recordings_are_refused() {
        let err = refusal_of_version(4);
        assert!(
            err.contains("unsupported version 4"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn version_2_events_are_far_smaller_than_fixed_width() {
        let recs: Vec<EventRecord> = (0..500).map(ev).collect();
        let mut w = TraceWriter::to_memory("size", 100);
        w.append_events(&recs).unwrap();
        let v2 = w.finish(0, 0).unwrap().unwrap();
        // Fixed width is 37 bytes a record (four `u64`s, a `u32` node and a
        // kind byte); the delta-varint records must cut the file to well
        // under half of that (in practice ~5 bytes/record).
        let fixed_width = recs.len() * (4 * 8 + 4 + 1);
        assert_eq!(read_trace(&v2).unwrap().events, recs);
        assert!(
            v2.len() * 2 < fixed_width,
            "v2 {}B not < half of fixed-width {fixed_width}B",
            v2.len()
        );
    }

    #[test]
    fn zigzag_delta_roundtrips_adversarial_sequences() {
        // Non-monotone times, wildly jumping causes, max-range details —
        // wrapping arithmetic must reproduce them all exactly.
        let recs = vec![
            EventRecord {
                at_us: u64::MAX,
                cause: u64::MAX,
                node: NodeId(u32::MAX),
                kind: EV_FENCE,
                a: u64::MAX,
                b: 0,
            },
            EventRecord {
                at_us: 0,
                cause: 0,
                node: NodeId(0),
                kind: EV_START,
                a: 0,
                b: u64::MAX,
            },
            EventRecord {
                at_us: 1 << 63,
                cause: 1 << 40,
                node: NodeId(7),
                kind: EV_TIMER,
                a: 3,
                b: 4,
            },
        ];
        let mut w = TraceWriter::to_memory("wrap", 100);
        w.append_events(&recs).unwrap();
        let bytes = w.finish(0, 0).unwrap().unwrap();
        assert_eq!(read_trace(&bytes).unwrap().events, recs);
    }

    #[test]
    fn roundtrip() {
        let bytes = sample(None);
        let t = read_trace(&bytes).unwrap();
        assert_eq!(t.scenario, "test scenario");
        assert_eq!(t.snapshot_every_us, 100);
        assert_eq!(t.events.len(), 20);
        assert_eq!(t.snapshots.len(), 3);
        assert_eq!(t.events[7], ev(7));
        assert_eq!(t.end.events, 20);
        assert_eq!(t.end.sim_hash, 333);
        assert_eq!(t.frames, 7); // header, 3 snapshots, 2 event frames, end
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(read_trace(b"nope"), Err(ReadError::BadMagic));
        assert_eq!(read_trace(b"VC"), Err(ReadError::BadMagic));
        let mut bytes = sample(None);
        bytes[0] = b'X';
        assert_eq!(read_trace(&bytes), Err(ReadError::BadMagic));
    }

    #[test]
    fn every_truncation_reports_frames_read_and_never_panics() {
        let bytes = sample(None);
        let full = read_trace(&bytes).unwrap();
        for cut in MAGIC.len()..bytes.len() {
            let err = read_trace(&bytes[..cut]).expect_err("prefix must not parse as complete");
            match err {
                ReadError::Truncated { frames_read } => {
                    assert!(frames_read < full.frames, "cut {cut}: frames {frames_read}");
                }
                // A cut can also land so a stale CRC is checked against
                // shorter content — still a refusal, never a success.
                ReadError::Corrupt { .. } => {}
                other => panic!("cut {cut}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn missing_end_frame_is_truncation() {
        let mut w = TraceWriter::to_memory("s", 10);
        w.append_events(&[ev(0)]).unwrap();
        // Steal the bytes without finish(): simulate a writer crash. The
        // memory sink is private, so rebuild via finish then strip End.
        let done = w.finish(0, 0).unwrap().unwrap();
        let full = read_trace(&done).unwrap();
        // Strip the End frame (its length is in its header).
        let mut off = MAGIC.len();
        let mut frame_starts = Vec::new();
        while off < done.len() {
            frame_starts.push(off);
            let len = u32::from_be_bytes(done[off..off + 4].try_into().unwrap()) as usize;
            off += FRAME_HEADER + len;
        }
        let stripped = &done[..*frame_starts.last().unwrap()];
        assert_eq!(
            read_trace(stripped),
            Err(ReadError::Truncated {
                frames_read: full.frames - 1
            })
        );
    }

    #[test]
    fn bitflip_breaks_the_chain() {
        let bytes = sample(None);
        // Flip one payload byte mid-file (inside frame 3's body, past its
        // header) — the chain must refuse at that frame.
        let mut bad = bytes.clone();
        let target = bytes.len() / 2;
        bad[target] ^= 0x40;
        match read_trace(&bad) {
            Ok(_) => panic!("bitflip accepted"),
            Err(ReadError::BadMagic) => panic!("flip hit magic?"),
            Err(_) => {}
        }
    }

    #[test]
    fn spliced_frames_from_another_file_break_the_chain() {
        // Take file A's prefix and file B's (valid!) tail: every frame CRCs
        // fine in isolation, but the chain breaks at the splice.
        let a = sample(None);
        let b = sample(Some(3));
        assert_eq!(a.len(), b.len(), "same shape traces");
        let cut = {
            // Find the start of the 4th frame.
            let mut off = MAGIC.len();
            for _ in 0..4 {
                let len = u32::from_be_bytes(a[off..off + 4].try_into().unwrap()) as usize;
                off += FRAME_HEADER + len;
            }
            off
        };
        let mut spliced = a[..cut].to_vec();
        spliced.extend_from_slice(&b[cut..]);
        match read_trace(&spliced) {
            Err(ReadError::Corrupt { detail, .. }) => {
                assert!(detail.contains("chain"), "{detail}");
            }
            other => panic!("splice not caught: {other:?}"),
        }
    }

    #[test]
    fn divergence_none_for_identical() {
        let t = read_trace(&sample(None)).unwrap();
        assert_eq!(first_divergence(&t, &t), Divergence::None);
    }

    #[test]
    fn divergence_bisects_to_the_right_window_and_event() {
        let rec = read_trace(&sample(None)).unwrap();
        // Perturb event 13: snapshots 0/1 agree, snapshot 2 differs, so the
        // bisected window is [10, 20) and the first differing event is 13.
        let rep = read_trace(&sample(Some(13))).unwrap();
        match first_divergence(&rec, &rep) {
            Divergence::Event { index, window, .. } => {
                assert_eq!(index, 13);
                assert_eq!(window, (10, 20));
            }
            other => panic!("wrong divergence: {other:?}"),
        }
        // Perturb event 3: first snapshot pair after it differs → window
        // [0, 10), event 3.
        let rep = read_trace(&sample(Some(3))).unwrap();
        match first_divergence(&rec, &rep) {
            Divergence::Event { index, window, .. } => {
                assert_eq!(index, 3);
                assert_eq!(window, (0, 10));
            }
            other => panic!("wrong divergence: {other:?}"),
        }
    }

    #[test]
    fn divergence_state_hash_when_events_agree() {
        let rec = read_trace(&sample(None)).unwrap();
        // Same events, different final snapshot hash: rebuild manually.
        let mut w = TraceWriter::to_memory("test scenario", 100);
        let all: Vec<EventRecord> = (0..20).map(ev).collect();
        w.snapshot(&snap(0, 0, 111)).unwrap();
        w.append_events(&all[..10]).unwrap();
        w.snapshot(&snap(100, 10, 222)).unwrap();
        w.append_events(&all[10..]).unwrap();
        w.snapshot(&snap(200, 20, 777)).unwrap(); // drifted
        let bytes = w.finish(777, 200).unwrap().unwrap();
        let rep = read_trace(&bytes).unwrap();
        match first_divergence(&rec, &rep) {
            Divergence::StateHash {
                snapshot, window, ..
            } => {
                assert_eq!(snapshot, 2);
                assert_eq!(window, (10, 20));
            }
            other => panic!("wrong divergence: {other:?}"),
        }
    }

    #[test]
    fn display_formats_are_stable() {
        assert_eq!(Divergence::None.to_string(), "no divergence");
        let e = ReadError::Truncated { frames_read: 4 };
        assert_eq!(e.to_string(), "truncated after frame 4");
    }
}
