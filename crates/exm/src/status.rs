//! The bid payload: what a daemon discloses about its machine.
//!
//! §5: "Each machine, based on current load and availability, sends a
//! 'bid' back to the group leader ... Each bid includes the current load
//! of the bidding machine." Ours also lists the resident VCE tasks so the
//! leader can make §4.4 migration decisions from the same disclosures, and
//! answers the disclosure's question — "do you hold these units'
//! binaries?" — with a bit per unit, never with its inventory.
//!
//! The task list stays in wire form ([`crate::wire`]): a leader decodes a
//! dozen bids per round and looks inside few of them.

use vce_codec::{Codec, Decoder, Encoder, Result};
use vce_net::{MachineClass, NodeId};

use crate::msg::{InstanceKey, MAX_ASKED_UNITS};
use crate::wire::{NameList, WireItem, WireList, WireStr};

/// One resident task as disclosed in a bid.
#[derive(Debug, Clone, PartialEq)]
pub struct ResidentTask {
    /// Instance identity.
    pub key: InstanceKey,
    /// Program unit.
    pub unit: WireStr,
    /// Remaining work, Mops.
    pub remaining_mops: f64,
    /// Migration cooperation flags.
    pub checkpoints: bool,
    /// May be restarted from scratch.
    pub restartable: bool,
    /// Address space dumpable.
    pub core_dumpable: bool,
    /// Redundant incarnations exist elsewhere.
    pub redundant: bool,
    /// Memory footprint, MB.
    pub mem_mb: u32,
}

impl Codec for ResidentTask {
    fn encode(&self, enc: &mut Encoder) {
        self.key.encode(enc);
        self.unit.encode(enc);
        enc.put_f64(self.remaining_mops);
        enc.put_bool(self.checkpoints);
        enc.put_bool(self.restartable);
        enc.put_bool(self.core_dumpable);
        enc.put_bool(self.redundant);
        enc.put_u32(self.mem_mb);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(ResidentTask {
            key: InstanceKey::decode(dec)?,
            unit: WireStr::decode(dec)?,
            remaining_mops: dec.get_f64()?,
            checkpoints: dec.get_bool()?,
            restartable: dec.get_bool()?,
            core_dumpable: dec.get_bool()?,
            redundant: dec.get_bool()?,
            mem_mb: dec.get_u32()?,
        })
    }
}

impl WireItem for ResidentTask {}

/// A machine's disclosed state.
#[derive(Debug, Clone, PartialEq)]
pub struct DaemonStatus {
    /// The machine.
    pub node: NodeId,
    /// Its class.
    pub class: MachineClass,
    /// Instantaneous load (VCE jobs + owner activity).
    pub load: f64,
    /// Owner (background) component of the load — drives eviction and
    /// migration decisions.
    pub background: f64,
    /// Nominal speed, Mops/s.
    pub speed_mops: f64,
    /// Physical memory, MB.
    pub mem_mb: u32,
    /// Willing to host remote work right now (authorized and not
    /// excessively loaded — §5's bid condition).
    pub willing: bool,
    /// Resident VCE tasks.
    pub tasks: WireList<ResidentTask>,
    /// Bit *i* set iff a binary for the *i*-th unit the disclosure asked
    /// about is staged here (anticipatory compilation's placement signal,
    /// §4.5). A `uvarint` on the wire; bits past the units asked are noise.
    pub staged: u64,
}

/// A bidder's answer to a disclosure that `asked`: bit *i* set iff it
/// `holds` a binary for the *i*-th unit.
pub fn staged_answer(asked: &NameList, holds: impl Fn(&str) -> bool) -> u64 {
    // No list off the wire is longer; the zip bounds the shift for any.
    (0..MAX_ASKED_UNITS)
        .zip(asked.iter())
        .filter(|(_, unit)| holds(unit.as_str()))
        .fold(0, |held, (i, _)| held | 1 << i)
}

/// The leader's side of [`staged_answer`]: the bit that answers for `unit`
/// — its place among the units `asked` about — or none if it was not.
pub fn staged_bit(asked: &[WireStr], unit: &WireStr) -> u64 {
    let place = asked.iter().position(|u| u == unit);
    place.map_or(0, |i| 1u64.checked_shl(i as u32).unwrap_or(0))
}

impl DaemonStatus {
    /// Clear whatever the bidder set in `staged` past the `asked` units.
    pub fn clear_unasked(&mut self, asked: usize) {
        let unasked = u64::MAX.checked_shl(asked as u32).unwrap_or(0);
        self.staged &= !unasked;
    }

    /// Encode with `tasks` standing in for `self.tasks` — how a daemon
    /// writes its bid straight from its task table, without first
    /// marshalling the list into a buffer of its own.
    pub fn encode_with_tasks(&self, tasks: &[ResidentTask], enc: &mut Encoder) {
        self.encode_around(enc, |enc| WireList::encode_items(tasks, enc));
    }

    fn encode_around(&self, enc: &mut Encoder, tasks: impl FnOnce(&mut Encoder)) {
        self.node.encode(enc);
        self.class.encode(enc);
        enc.put_f64(self.load);
        enc.put_f64(self.background);
        enc.put_f64(self.speed_mops);
        enc.put_u32(self.mem_mb);
        enc.put_bool(self.willing);
        tasks(enc);
        enc.put_uvarint(self.staged);
    }
}

impl Codec for DaemonStatus {
    fn encode(&self, enc: &mut Encoder) {
        self.encode_around(enc, |enc| self.tasks.encode(enc));
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(DaemonStatus {
            node: NodeId::decode(dec)?,
            class: MachineClass::decode(dec)?,
            load: dec.get_f64()?,
            background: dec.get_f64()?,
            speed_mops: dec.get_f64()?,
            mem_mb: dec.get_u32()?,
            willing: dec.get_bool()?,
            tasks: WireList::decode(dec)?,
            staged: dec.get_uvarint()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::AppId;

    #[test]
    fn status_round_trips() {
        let task = ResidentTask {
            key: InstanceKey {
                app: AppId(1),
                task: 0,
                instance: 1,
            },
            unit: "collector".into(),
            remaining_mops: 42.0,
            checkpoints: true,
            restartable: true,
            core_dumpable: false,
            redundant: false,
            mem_mb: 32,
        };
        let s = DaemonStatus {
            node: NodeId(3),
            class: MachineClass::Mimd,
            load: 2.5,
            background: 1.5,
            speed_mops: 800.0,
            mem_mb: 256,
            willing: true,
            tasks: [task.clone()].into_iter().collect(),
            staged: 0b101,
        };
        let bytes = vce_codec::to_bytes(&s);
        assert_eq!(vce_codec::from_bytes::<DaemonStatus>(&bytes).unwrap(), s);
        let table = [task];
        assert_eq!(s.tasks.iter().collect::<Vec<_>>(), table);
        // A bidder's own task table lands in the same bytes.
        let mut enc = Encoder::new();
        let bidder = DaemonStatus {
            tasks: WireList::default(),
            ..s
        };
        bidder.encode_with_tasks(&table, &mut enc);
        assert_eq!(enc.finish(), bytes);
    }

    #[test]
    fn a_bid_answers_the_units_asked_with_a_bit_each() {
        let asked: Vec<WireStr> = ["collector", "predictor", "usercollect"]
            .map(WireStr::from)
            .to_vec();
        let list: NameList = asked.iter().cloned().collect();
        let held = ["usercollect", "collector", "never asked about"];
        let answer = staged_answer(&list, |unit| held.contains(&unit));
        assert_eq!(answer, 0b101);
        assert_eq!(staged_bit(&asked, &"predictor".into()), 0b010);
        assert_eq!(staged_bit(&asked, &"never asked about".into()), 0);
        assert_eq!(staged_answer(&NameList::default(), |_| true), 0);
        // Bits past the units asked are dropped, for every count.
        let mut bid = vce_codec::from_bytes::<DaemonStatus>(&vce_codec::to_bytes(&DaemonStatus {
            node: NodeId(3),
            class: MachineClass::Mimd,
            load: 0.0,
            background: 0.0,
            speed_mops: 800.0,
            mem_mb: 256,
            willing: true,
            tasks: Default::default(),
            staged: u64::MAX,
        }))
        .unwrap();
        for (asked, kept) in [
            (64, u64::MAX),
            (65, u64::MAX),
            (63, u64::MAX >> 1),
            (2, 3),
            (0, 0),
        ] {
            bid.clear_unasked(asked);
            assert_eq!(bid.staged, kept, "{asked} asked");
        }
        // What nothing was asked about costs one byte.
        let empty = vce_codec::to_bytes(&bid);
        assert_eq!(empty.last(), Some(&0));
        assert_eq!(
            vce_codec::to_bytes(&DaemonStatus { staged: 1, ..bid }).len(),
            empty.len()
        );
    }
}
