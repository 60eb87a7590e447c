#![forbid(unsafe_code)]
//! Simulated per-node log-structured stable storage.
//!
//! The paper's EXM "fault protects" tasks by checkpointing to stable storage
//! (§4); this crate supplies the storage half of that story for the simulator.
//! A [`StableStore`] is an append-only record log with:
//!
//! - **simulated write latency** — [`StableStore::append`] returns the sim
//!   time at which the record becomes durable; records still in flight when
//!   the node crashes are lost even without an injected fault,
//! - **atomic record framing** — each record is `[u32 len][u32 crc][payload]`
//!   (big-endian, CRC-32/IEEE over the payload) so replay can detect a torn
//!   tail and truncate it rather than feed garbage to the recovery path,
//! - **an injectable crash-fault model** ([`FaultModel`]) drawn from the
//!   seeded sim RNG: torn tail record, dropped flush, stale read, and whole
//!   device loss.
//!
//! The store keeps an in-memory mirror of every payload appended since the
//! last recovery, which lets [`StableStore::recover`] check the core
//! invariant of this design: *whatever replay yields is a prefix of what was
//! journaled*. Corruption may cost committed tail records, but can never
//! reorder, duplicate, or invent them.
//!
//! Determinism: no wall clock, no ambient randomness (crash fault draws are
//! passed in by the caller from `Host::rand_u64`), no threads, and all
//! iteration is over `Vec`s in append order.

/// Upper bound on a single record's payload, enforced on both append and
/// replay. A length header above this on replay is treated as corruption.
pub const MAX_RECORD: usize = 1 << 20;

/// Bytes of framing overhead per record: `[u32 len][u32 crc]`.
pub const FRAME_HEADER: usize = 8;

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) lookup table,
/// built at compile time so the crate needs no external dependency.
const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        // vce-lint: allow(P001) const-fn loop bound guarantees i < 256
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

/// CRC-32/IEEE of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        // vce-lint: allow(P001) index is masked to 0..256 by the & 0xFF
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Which crash fault was injected, if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageFault {
    /// The tail record is partially written and bit-flipped: replay must
    /// detect it (short frame or CRC mismatch) and truncate.
    TornTail,
    /// A flush the caller believed durable never reached the platter: one or
    /// two committed tail records vanish.
    DroppedFlush,
    /// Recovery reads an older image of the log: up to three committed tail
    /// records vanish.
    StaleRead,
    /// The whole device is gone; recovery falls back to amnesia.
    DeviceLoss,
}

impl StorageFault {
    pub fn name(self) -> &'static str {
        match self {
            StorageFault::TornTail => "torn-tail",
            StorageFault::DroppedFlush => "dropped-flush",
            StorageFault::StaleRead => "stale-read",
            StorageFault::DeviceLoss => "device-loss",
        }
    }
}

/// Per-crash fault probabilities. Drawn once per crash, cumulatively, in
/// field order; the remainder is a clean crash (durable records intact).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultModel {
    pub torn_tail: f64,
    pub dropped_flush: f64,
    pub stale_read: f64,
    pub device_loss: f64,
}

impl FaultModel {
    /// No injected faults: crashes still lose not-yet-durable records.
    pub fn none() -> Self {
        FaultModel {
            torn_tail: 0.0,
            dropped_flush: 0.0,
            stale_read: 0.0,
            device_loss: 0.0,
        }
    }
}

impl Default for FaultModel {
    fn default() -> Self {
        FaultModel::none()
    }
}

/// Stable-store knobs, carried inside `ExmConfig`.
#[derive(Debug, Clone, PartialEq)]
pub struct StorageConfig {
    /// Fixed latency from append to durability, in sim microseconds.
    pub write_base_us: u64,
    /// Additional latency per KiB of payload.
    pub write_per_kib_us: u64,
    /// Crash-fault probabilities.
    pub fault: FaultModel,
}

impl Default for StorageConfig {
    fn default() -> Self {
        StorageConfig {
            write_base_us: 400,
            write_per_kib_us: 60,
            fault: FaultModel::none(),
        }
    }
}

/// What a crash did to the store (kept for the next `summary()`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashReport {
    pub fault: Option<StorageFault>,
    /// Records lost: not yet durable at crash time, plus any the fault ate.
    pub lost_records: u64,
    /// Garbage bytes left at the tail of the device image (torn tail only).
    pub torn_bytes: usize,
}

/// Result of replaying the log after a crash.
#[derive(Debug, Clone, PartialEq)]
pub struct Recovery {
    /// Committed payloads, in append order.
    pub payloads: Vec<Vec<u8>>,
    /// Records appended since the previous recovery (or store creation).
    pub appended: u64,
    /// Records successfully replayed.
    pub replayed: u64,
    /// Bytes discarded at the tail of the image (torn frame or garbage).
    pub truncated_bytes: usize,
    /// True iff the replayed payloads are exactly a prefix of the appended
    /// journal — the invariant the chaos campaign checks.
    pub prefix_ok: bool,
    /// Fault injected by the crash, if any.
    pub fault: Option<StorageFault>,
    /// Records lost to the crash (non-durable plus fault-eaten).
    pub lost_records: u64,
}

/// One framed record plus the sim time at which it becomes durable.
#[derive(Debug, Clone)]
struct Frame {
    durable_at_us: u64,
    bytes: Vec<u8>,
}

/// A per-node append-only stable store. See the crate docs for semantics.
#[derive(Debug, Clone)]
pub struct StableStore {
    cfg: StorageConfig,
    /// Framed records in append order, both durable and in-flight.
    frames: Vec<Frame>,
    /// Garbage bytes at the device tail, left by a torn-tail crash.
    torn: Vec<u8>,
    /// Mirror of every payload appended since the last recovery; the oracle
    /// for the prefix check. Cleared down to the recovered prefix on recover.
    journal: Vec<Vec<u8>>,
    /// Records appended since the last recovery.
    appended: u64,
    last_crash: Option<CrashReport>,
}

impl StableStore {
    pub fn new(cfg: StorageConfig) -> Self {
        StableStore {
            cfg,
            frames: Vec::new(),
            torn: Vec::new(),
            journal: Vec::new(),
            appended: 0,
            last_crash: None,
        }
    }

    /// Records appended since the last recovery.
    pub fn appended(&self) -> u64 {
        self.appended
    }

    pub fn last_crash(&self) -> Option<&CrashReport> {
        self.last_crash.as_ref()
    }

    /// Append one record. Returns the sim time at which it is durable;
    /// a crash strictly before that time loses it. Durability is ordered:
    /// a record is never durable before its predecessors.
    pub fn append(&mut self, now_us: u64, payload: &[u8]) -> u64 {
        debug_assert!(payload.len() <= MAX_RECORD, "record over MAX_RECORD");
        let kib = (payload.len() as u64).div_ceil(1024);
        let latency = self.cfg.write_base_us + kib * self.cfg.write_per_kib_us;
        let floor = self
            .frames
            .last()
            .map_or(now_us, |f| f.durable_at_us.max(now_us));
        let durable_at_us = floor + latency;

        let mut bytes = Vec::with_capacity(FRAME_HEADER + payload.len());
        bytes.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        bytes.extend_from_slice(&crc32(payload).to_be_bytes());
        bytes.extend_from_slice(payload);
        self.frames.push(Frame {
            durable_at_us,
            bytes,
        });
        self.journal.push(payload.to_vec());
        self.appended += 1;
        durable_at_us
    }

    /// Crash the node at `now_us`. `r1`/`r2` are raw draws from the seeded
    /// sim RNG; `r1` selects the fault, `r2` parameterises its extent.
    pub fn crash(&mut self, now_us: u64, r1: u64, r2: u64) -> CrashReport {
        // Records still in flight never hit the platter.
        let durable = self
            .frames
            .iter()
            .take_while(|f| f.durable_at_us <= now_us)
            .count();
        let mut lost = (self.frames.len() - durable) as u64;
        let mut pending: Vec<Frame> = self.frames.split_off(durable);
        self.torn.clear();

        // 53-bit uniform draw in [0, 1), same construction rand uses.
        let u = (r1 >> 11) as f64 / (1u64 << 53) as f64;
        let m = &self.cfg.fault;
        let fault = if u < m.torn_tail {
            Some(StorageFault::TornTail)
        } else if u < m.torn_tail + m.dropped_flush {
            Some(StorageFault::DroppedFlush)
        } else if u < m.torn_tail + m.dropped_flush + m.stale_read {
            Some(StorageFault::StaleRead)
        } else if u < m.torn_tail + m.dropped_flush + m.stale_read + m.device_loss {
            Some(StorageFault::DeviceLoss)
        } else {
            None
        };

        let mut torn_bytes = 0usize;
        match fault {
            Some(StorageFault::TornTail) => {
                // Tear the record that was mid-write if there is one;
                // otherwise the most recent committed record loses its tail.
                let victim = if let Some(f) = pending.drain(..).next() {
                    Some(f)
                } else if let Some(f) = self.frames.pop() {
                    lost += 1;
                    Some(f)
                } else {
                    None
                };
                if let Some(f) = victim {
                    let keep = 1 + (r2 as usize) % f.bytes.len().max(2).saturating_sub(1);
                    self.torn = f.bytes.get(..keep).map(<[u8]>::to_vec).unwrap_or_default();
                    if let Some(b) = self.torn.get_mut((r2 >> 7) as usize % keep.max(1)) {
                        *b ^= 0x5A;
                    }
                    torn_bytes = self.torn.len();
                }
            }
            Some(StorageFault::DroppedFlush) => {
                let drop_n = (1 + (r2 % 2) as usize).min(self.frames.len());
                self.frames.truncate(self.frames.len() - drop_n);
                lost += drop_n as u64;
            }
            Some(StorageFault::StaleRead) => {
                let drop_n = (1 + (r2 % 3) as usize).min(self.frames.len());
                self.frames.truncate(self.frames.len() - drop_n);
                lost += drop_n as u64;
            }
            Some(StorageFault::DeviceLoss) => {
                lost += self.frames.len() as u64;
                self.frames.clear();
            }
            None => {}
        }
        drop(pending);

        let report = CrashReport {
            fault,
            lost_records: lost,
            torn_bytes,
        };
        self.last_crash = Some(report.clone());
        report
    }

    /// Replay the device image record by record, stopping at the first short
    /// frame, oversized length, or CRC mismatch. Returns the committed
    /// payloads and resets the journal mirror to exactly that prefix: lost
    /// records are permanently gone and future appends follow the survivors.
    pub fn recover(&mut self) -> Recovery {
        let mut image: Vec<u8> = Vec::new();
        for f in &self.frames {
            image.extend_from_slice(&f.bytes);
        }
        image.extend_from_slice(&self.torn);

        let mut payloads: Vec<Vec<u8>> = Vec::new();
        let mut off = 0usize;
        while off < image.len() {
            let Some(len) = read_u32(&image, off) else {
                break;
            };
            let Some(crc) = read_u32(&image, off + 4) else {
                break;
            };
            let len = len as usize;
            if len > MAX_RECORD {
                break;
            }
            let Some(payload) = off
                .checked_add(FRAME_HEADER)
                .and_then(|s| image.get(s..s.checked_add(len)?))
            else {
                break;
            };
            if crc32(payload) != crc {
                break;
            }
            payloads.push(payload.to_vec());
            off += FRAME_HEADER + len;
        }
        let truncated_bytes = image.len() - off;

        let prefix_ok = payloads.len() <= self.journal.len()
            && self
                .journal
                .iter()
                .zip(payloads.iter())
                .all(|(a, b)| a == b);

        let appended = self.appended;
        let (fault, lost_records) = self
            .last_crash
            .as_ref()
            .map_or((None, 0), |c| (c.fault, c.lost_records));

        // The survivors are the new ground truth.
        self.torn.clear();
        self.frames = payloads
            .iter()
            .map(|p| {
                let mut bytes = Vec::with_capacity(FRAME_HEADER + p.len());
                bytes.extend_from_slice(&(p.len() as u32).to_be_bytes());
                bytes.extend_from_slice(&crc32(p).to_be_bytes());
                bytes.extend_from_slice(p);
                Frame {
                    durable_at_us: 0,
                    bytes,
                }
            })
            .collect();
        self.journal = payloads.clone();
        self.appended = 0;

        Recovery {
            replayed: payloads.len() as u64,
            payloads,
            appended,
            truncated_bytes,
            prefix_ok,
            fault,
            lost_records,
        }
    }

    /// One-line state summary for chaos reports.
    pub fn summary(&self) -> String {
        let crash = self.last_crash.as_ref().map_or_else(
            || "never-crashed".to_string(),
            |c| {
                format!(
                    "last-crash: fault={} lost={} torn_bytes={}",
                    c.fault.map_or("none", StorageFault::name),
                    c.lost_records,
                    c.torn_bytes
                )
            },
        );
        format!(
            "records={} appended-since-recovery={} torn-tail-bytes={} {}",
            self.frames.len(),
            self.appended,
            self.torn.len(),
            crash
        )
    }
}

/// Big-endian u32 at `off`, or `None` if the image is too short.
fn read_u32(image: &[u8], off: usize) -> Option<u32> {
    let b = image.get(off..off.checked_add(4)?)?;
    let arr: [u8; 4] = b.try_into().ok()?;
    Some(u32::from_be_bytes(arr))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> StableStore {
        StableStore::new(StorageConfig::default())
    }

    #[test]
    fn crc32_known_vector() {
        // CRC-32/IEEE of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn clean_crash_keeps_durable_prefix() {
        let mut s = store();
        let mut last = 0;
        for i in 0..5u8 {
            last = s.append(1_000, &[i; 10]);
        }
        // Crash after everything is durable: nothing lost.
        let rep = s.crash(last, 7, 9);
        assert_eq!(rep.fault, None);
        assert_eq!(rep.lost_records, 0);
        let rec = s.recover();
        assert_eq!(rec.replayed, 5);
        assert!(rec.prefix_ok);
        assert_eq!(rec.truncated_bytes, 0);
    }

    #[test]
    fn in_flight_records_are_lost() {
        let mut s = store();
        let d1 = s.append(0, b"one");
        let _d2 = s.append(0, b"two"); // durable strictly after d1
        let rep = s.crash(d1, 7, 9); // crash exactly when record 1 is durable
        assert_eq!(rep.lost_records, 1);
        let rec = s.recover();
        assert_eq!(rec.payloads, vec![b"one".to_vec()]);
        assert!(rec.prefix_ok);
    }

    #[test]
    fn torn_tail_is_truncated_not_replayed() {
        let cfg = StorageConfig {
            fault: FaultModel {
                torn_tail: 1.0,
                ..FaultModel::none()
            },
            ..StorageConfig::default()
        };
        let mut s = StableStore::new(cfg);
        let mut last = 0;
        for i in 0..4u8 {
            last = s.append(10, &[i; 32]);
        }
        let rep = s.crash(last + 1, 0, 12345);
        assert_eq!(rep.fault, Some(StorageFault::TornTail));
        assert!(rep.torn_bytes > 0);
        let rec = s.recover();
        // Everything was durable, so the tear ate the last committed record.
        assert_eq!(rec.replayed, 3);
        assert!(rec.prefix_ok);
        assert!(rec.truncated_bytes > 0);
        assert_eq!(
            rec.payloads,
            vec![vec![0u8; 32], vec![1u8; 32], vec![2u8; 32]]
        );
    }

    #[test]
    fn device_loss_recovers_empty() {
        let cfg = StorageConfig {
            fault: FaultModel {
                device_loss: 1.0,
                ..FaultModel::none()
            },
            ..StorageConfig::default()
        };
        let mut s = StableStore::new(cfg);
        let last = s.append(10, b"gone");
        let rep = s.crash(last, 0, 0);
        assert_eq!(rep.fault, Some(StorageFault::DeviceLoss));
        let rec = s.recover();
        assert_eq!(rec.replayed, 0);
        assert!(rec.payloads.is_empty());
        assert!(rec.prefix_ok); // empty is a prefix of anything
    }

    #[test]
    fn dropped_flush_and_stale_read_keep_prefix() {
        for (model, fault) in [
            (
                FaultModel {
                    dropped_flush: 1.0,
                    ..FaultModel::none()
                },
                StorageFault::DroppedFlush,
            ),
            (
                FaultModel {
                    stale_read: 1.0,
                    ..FaultModel::none()
                },
                StorageFault::StaleRead,
            ),
        ] {
            let cfg = StorageConfig {
                fault: model,
                ..StorageConfig::default()
            };
            let mut s = StableStore::new(cfg);
            let mut last = 0;
            for i in 0..6u8 {
                last = s.append(10, &[i]);
            }
            let rep = s.crash(last, 0, 5);
            assert_eq!(rep.fault, Some(fault));
            assert!(rep.lost_records > 0);
            let rec = s.recover();
            assert!(rec.prefix_ok);
            assert!(rec.replayed < 6);
            // Replay yields exactly the first `replayed` payloads.
            for (i, p) in rec.payloads.iter().enumerate() {
                assert_eq!(p, &vec![i as u8]);
            }
        }
    }

    #[test]
    fn appends_after_recovery_extend_the_survivors() {
        let mut s = store();
        let last = s.append(0, b"a");
        s.crash(last, 7, 9);
        let rec = s.recover();
        assert_eq!(rec.replayed, 1);
        let last = s.append(last, b"b");
        let rep = s.crash(last, 7, 9);
        assert_eq!(rep.lost_records, 0);
        let rec = s.recover();
        assert_eq!(rec.payloads, vec![b"a".to_vec(), b"b".to_vec()]);
        assert!(rec.prefix_ok);
    }

    #[test]
    fn durability_is_ordered() {
        let mut s = store();
        let d1 = s.append(0, &[0u8; 2048]); // big record, slow
        let d2 = s.append(0, b"x"); // small record cannot overtake it
        assert!(d2 > d1);
    }

    #[test]
    fn summary_mentions_fault() {
        let cfg = StorageConfig {
            fault: FaultModel {
                torn_tail: 1.0,
                ..FaultModel::none()
            },
            ..StorageConfig::default()
        };
        let mut s = StableStore::new(cfg);
        let last = s.append(0, b"record");
        s.crash(last, 0, 3);
        assert!(s.summary().contains("torn-tail"));
    }
}
