//! Wire-robustness: the runtime's message decoder must survive arbitrary
//! bytes (a daemon receives traffic from any machine on the network) and
//! round-trip everything it encodes.

use proptest::prelude::*;
use vce_codec::CodecError;
use vce_exm::msg::{encode_disclose, encode_msg, ExmMsg, LoadProgram, MAX_ASKED_UNITS};
use vce_exm::status::{staged_answer, staged_bit, DaemonStatus, ResidentTask};
use vce_exm::wire::{NameList, WireStr};
use vce_exm::{AppId, InstanceKey, ReqId};
use vce_net::{Addr, MachineClass, NodeId, PortId};

fn arb_key() -> impl Strategy<Value = InstanceKey> {
    (any::<u64>(), any::<u32>(), any::<u32>()).prop_map(|(a, t, i)| InstanceKey {
        app: AppId(a),
        task: t,
        instance: i,
    })
}

fn arb_addr() -> impl Strategy<Value = Addr> {
    (any::<u32>(), any::<u32>()).prop_map(|(n, p)| Addr::new(NodeId(n), PortId(p)))
}

fn arb_load() -> impl Strategy<Value = LoadProgram> {
    (
        arb_key(),
        "[ -~]{0,40}",
        0.0f64..1e9,
        any::<u32>(),
        any::<bool>(),
        any::<u64>(),
        prop::collection::vec("[ -~]{0,20}", 0..4),
        arb_addr(),
    )
        .prop_map(
            |(key, unit, work, mem, flag, interval, files, reply)| LoadProgram {
                key,
                unit,
                work_mops: work,
                mem_mb: mem,
                checkpoints: flag,
                checkpoint_interval_us: interval,
                restartable: !flag,
                core_dumpable: flag,
                redundant: flag,
                input_files: files,
                reply_to: reply,
            },
        )
}

/// Does a [`NameList`] answer `bytes` as `Vec<String>` does — the same
/// value or the same error?
fn same(bytes: &[u8]) -> bool {
    let got = vce_codec::from_bytes::<NameList>(bytes);
    let want = vce_codec::from_bytes::<Vec<String>>(bytes);
    match (got, want) {
        (Ok(list), Ok(names)) => vce_codec::to_bytes(&list) == vce_codec::to_bytes(&names),
        (Err(a), Err(b)) => a == b,
        _ => false,
    }
}

/// One name as it may arrive: ASCII (short, and long enough for a
/// word-at-a-time scan to have a body and a tail), text with multi-byte
/// characters, arbitrary bytes, and a long ASCII run bent at one place.
fn arb_raw_name() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        "[ -~]{0,12}".prop_map(String::into_bytes),
        "[ -~]{12,40}".prop_map(String::into_bytes),
        ".{0,24}".prop_map(String::into_bytes),
        prop::collection::vec(any::<u8>(), 1..24),
        ("[ -~]{1,40}", any::<usize>(), 0x80u8..=0xff).prop_map(|(s, at, bad)| {
            let mut bytes = s.into_bytes();
            let at = at % bytes.len();
            bytes[at] = bad;
            bytes
        }),
    ]
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic_the_decoder(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = vce_codec::from_bytes::<ExmMsg>(&bytes);
        let _ = vce_codec::from_bytes::<DaemonStatus>(&bytes);
    }

    #[test]
    fn truncated_real_messages_never_panic(lp in arb_load(), cut_frac in 0.0f64..1.0) {
        let bytes = encode_msg(&ExmMsg::Load(lp));
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        let _ = vce_codec::from_bytes::<ExmMsg>(&bytes[..cut.min(bytes.len())]);
    }

    #[test]
    fn load_program_round_trips(lp in arb_load()) {
        let msg = ExmMsg::Load(lp);
        let bytes = encode_msg(&msg);
        prop_assert_eq!(vce_codec::from_bytes::<ExmMsg>(&bytes).unwrap(), msg);
    }

    #[test]
    fn resource_request_round_trips(
        app in any::<u64>(),
        seq in any::<u32>(),
        min in 1u32..100,
        extra in 0u32..100,
        mem in any::<u32>(),
        unit in "[ -~]{0,40}",
        boost in any::<i32>(),
    ) {
        let msg = ExmMsg::ResourceRequest {
            req: ReqId { app: AppId(app), seq },
            class: MachineClass::Mimd,
            count_min: min,
            count_max: min + extra,
            mem_mb: mem,
            unit,
            priority_boost: boost,
            reply_to: Addr::executor(NodeId(0)),
        };
        let bytes = encode_msg(&msg);
        prop_assert_eq!(vce_codec::from_bytes::<ExmMsg>(&bytes).unwrap(), msg);
    }

    #[test]
    fn daemon_status_round_trips(
        node in any::<u32>(),
        load in 0.0f64..100.0,
        tasks in prop::collection::vec((arb_key(), 0.0f64..1e6), 0..5),
        staged in prop_oneof![Just(0u64), 0u64..4, any::<u64>()],
    ) {
        let status = DaemonStatus {
            node: NodeId(node),
            class: MachineClass::Workstation,
            load,
            background: load / 2.0,
            speed_mops: 100.0,
            mem_mb: 64,
            willing: true,
            tasks: tasks
                .into_iter()
                .map(|(key, rem)| ResidentTask {
                    key,
                    unit: "u".into(),
                    remaining_mops: rem,
                    checkpoints: true,
                    restartable: true,
                    core_dumpable: false,
                    redundant: false,
                    mem_mb: 32,
                })
                .collect(),
            staged,
        };
        let bytes = vce_codec::to_bytes(&status);
        prop_assert_eq!(vce_codec::from_bytes::<DaemonStatus>(&bytes).unwrap(), status);
    }

    /// A bid's `staged` is the last thing in it. Whatever stands there —
    /// a varint that never ends, one that runs past 64 bits, nothing —
    /// the bid decodes to exactly what was put or is refused whole.
    #[test]
    fn a_bid_with_a_hostile_staged_mask_is_refused_whole(
        tail in prop_oneof![
            prop::collection::vec(0x80u8..=0xff, 0..12),
            prop::collection::vec(any::<u8>(), 0..12),
        ],
    ) {
        let honest = DaemonStatus {
            node: NodeId(1),
            class: MachineClass::Workstation,
            load: 0.0,
            background: 0.0,
            speed_mops: 100.0,
            mem_mb: 64,
            willing: true,
            tasks: Default::default(),
            staged: 0,
        };
        let mut bytes = vce_codec::to_bytes(&honest);
        bytes.pop(); // the one-byte empty mask
        bytes.extend(&tail);
        // What a 64-bit LEB128 reader must say about `tail` on its own.
        let mut want = Some(0u64);
        let mut ended = false;
        for (i, &b) in tail.iter().enumerate() {
            if ended {
                want = None; // bytes after the mask: trailing garbage
                break;
            }
            let group = u64::from(b & 0x7f);
            let fits = i < 9 || (i == 9 && group <= 1);
            want = want.filter(|_| fits).map(|v| v | group << (7 * i as u32).min(63));
            ended = b < 0x80;
        }
        let want = want.filter(|_| ended);
        match vce_codec::from_bytes::<DaemonStatus>(&bytes) {
            Ok(bid) => prop_assert_eq!(Some(bid.staged), want),
            Err(_) => prop_assert_eq!(want, None),
        }
    }

    /// Bits a bidder sets past the units it was asked about are cleared,
    /// for any number asked — and no unit's bit lies past them.
    #[test]
    fn stray_staged_bits_never_survive_the_leader(
        staged in any::<u64>(),
        asked in 0usize..80,
        holds in any::<u64>(),
    ) {
        let names: Vec<String> = (0..asked).map(|i| format!("unit-{i}")).collect();
        let list: NameList = names.iter().map(|n| WireStr::from(n.as_str())).collect();
        let units: Vec<WireStr> = list.iter().collect();
        // A list longer than a bid has bits for answers for the first 64.
        let held = |unit: &str| {
            let i = names.iter().position(|n| n == unit).expect("an asked unit");
            holds >> (i % 64) & 1 == 1
        };
        let answer = staged_answer(&list, held);
        let mut bid = DaemonStatus {
            node: NodeId(1),
            class: MachineClass::Workstation,
            load: 0.0,
            background: 0.0,
            speed_mops: 100.0,
            mem_mb: 64,
            willing: true,
            tasks: Default::default(),
            staged: staged | answer,
        };
        bid.clear_unasked(asked);
        prop_assert_eq!(bid.staged.checked_shr(asked as u32).unwrap_or(0), 0);
        for (i, unit) in units.iter().enumerate() {
            let bit = staged_bit(&units, unit);
            prop_assert_eq!(bit, if i < 64 { 1 << i } else { 0 });
            if i < 64 {
                prop_assert_eq!(answer & bit != 0, held(unit.as_str()));
            }
        }
        prop_assert_eq!(staged_bit(&units, &"not asked".into()), 0);
    }

    /// A disclosure carries up to 64 units behind a one-byte count and
    /// round-trips; one more is refused on the count.
    #[test]
    fn a_disclosure_round_trips_up_to_the_cap(
        names in prop::collection::vec("[ -~]{0,30}", 0..70),
    ) {
        let units: Vec<WireStr> = names.iter().map(|n| n.as_str().into()).collect();
        let mut enc = vce_codec::Encoder::new();
        if units.len() <= MAX_ASKED_UNITS as usize {
            encode_disclose(&units, &mut enc);
        } else {
            // `encode_disclose` would (rightly) assert; write it by hand.
            enc.put_u8(4);
            NameList::encode_items_short(&units, &mut enc);
        }
        let bytes = enc.finish();
        let text: usize = names.iter().map(|n| 4 + n.len()).sum();
        prop_assert_eq!(bytes.len(), 2 + text);
        match vce_codec::from_bytes::<ExmMsg>(&bytes) {
            Ok(ExmMsg::DiscloseState { units: back }) => {
                prop_assert!(names.len() <= 64);
                let back: Vec<String> = back.iter().map(|u| u.as_str().to_owned()).collect();
                prop_assert_eq!(&back, &names);
                // The owned form encodes to the same bytes.
                let owned = ExmMsg::DiscloseState { units: names.iter().map(|n| WireStr::from(n.as_str())).collect() };
                prop_assert_eq!(&encode_msg(&owned)[..], &bytes[..]);
            }
            Ok(other) => prop_assert!(false, "decoded as {other:?}"),
            Err(e) => {
                prop_assert!(names.len() > 64);
                prop_assert_eq!(e, CodecError::LengthOverflow { declared: names.len() as u64, limit: 64 });
            }
        }
    }

    /// Whatever follows the disclosure tag — a count past the cap, past the
    /// bytes that follow, or a varint that never ends — nothing is sized
    /// from it and nothing panics: a list of at most 64 checked names comes
    /// back, or an error.
    #[test]
    fn a_hostile_disclosure_is_refused_on_its_count(
        count in prop_oneof![
            (0u64..200).prop_map(|n| { let mut e = vce_codec::Encoder::new(); e.put_uvarint(n); e.finish() }),
            any::<u64>().prop_map(|n| { let mut e = vce_codec::Encoder::new(); e.put_uvarint(n); e.finish() }),
            prop::collection::vec(0x80u8..=0xff, 1..12),
        ],
        names in prop::collection::vec(arb_raw_name(), 0..6),
        cut_frac in 0.0f64..=1.0,
    ) {
        let mut enc = vce_codec::Encoder::new();
        for name in &names {
            enc.put_len_bytes(name);
        }
        let items = enc.finish();
        let cut = ((items.len() as f64) * cut_frac) as usize;
        let mut bytes = vec![4u8]; // T_DISCLOSE
        bytes.extend(&count);
        bytes.extend(&items[..cut]);
        let declared = vce_codec::Decoder::new(&count).get_uvarint();
        match vce_codec::from_bytes::<ExmMsg>(&bytes) {
            Ok(ExmMsg::DiscloseState { units }) => {
                prop_assert_eq!(Ok(units.len() as u64), declared);
                prop_assert!(units.len() <= 64 && units.len() <= names.len());
                for (unit, name) in units.iter().zip(&names) {
                    prop_assert_eq!(unit.as_str().as_bytes(), &name[..]);
                }
            }
            Ok(other) => prop_assert!(false, "decoded as {other:?}"),
            Err(e) => {
                if let Ok(n) = declared {
                    if n > 64 || n > cut as u64 {
                        let limit = 64.min(cut as u64);
                        prop_assert_eq!(e, CodecError::LengthOverflow { declared: n, limit });
                    }
                }
            }
        }
    }

    /// The wire-form name list is `Vec<String>` as far as any peer can tell.
    #[test]
    fn name_list_is_the_vec_of_strings_it_replaced(
        names in prop::collection::vec(".{0,12}", 0..70),
    ) {
        let list: NameList = names.iter().map(|n| WireStr::from(n.as_str())).collect();
        let bytes = vce_codec::to_bytes(&list);
        prop_assert_eq!(&bytes, &vce_codec::to_bytes(&names));
        // Through a refcounted buffer (views) and through a slice (copies).
        let shared = bytes::Bytes::from(bytes.clone());
        for back in [
            vce_codec::from_backing::<NameList>(&shared).unwrap(),
            vce_codec::from_bytes::<NameList>(&bytes).unwrap(),
        ] {
            prop_assert_eq!(&back, &list);
            prop_assert_eq!(vce_codec::to_bytes(&back), bytes.clone());
            let items: Vec<String> = back.iter().map(|n| n.as_str().to_owned()).collect();
            prop_assert_eq!(&items, &names);
            prop_assert_eq!(back.len(), names.len());
        }
    }

    /// Whatever arrives, the list answers exactly as `Vec<String>` did:
    /// the same value or the same error, never a panic.
    #[test]
    fn name_list_rejects_what_the_vec_rejected(
        names in prop::collection::vec("[ -~]{0,12}", 0..8),
        cut_frac in 0.0f64..1.0,
        flip in any::<usize>(),
        junk in any::<u8>(),
        noise in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let bytes = vce_codec::to_bytes(&names);
        // Truncated; one byte overwritten (a count, a length, or a name
        // byte turned non-UTF-8); a count far past the buffer; noise.
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        prop_assert!(same(&bytes[..cut]));
        let mut bent = bytes.clone();
        bent[flip % bytes.len()] = junk;
        prop_assert!(same(&bent));
        let mut forged = bytes.clone();
        forged[..4].copy_from_slice(&u32::MAX.to_be_bytes());
        prop_assert!(same(&forged));
        prop_assert!(vce_codec::from_bytes::<NameList>(&forged).is_err());
        prop_assert!(same(&noise));
    }

    /// The same property over names that are not all ASCII: the ASCII fast
    /// path in `WireStr::validate` may not change one verdict.
    #[test]
    fn name_list_judges_every_byte_string_as_the_vec_did(
        names in prop::collection::vec(arb_raw_name(), 0..12),
        cut_frac in 0.0f64..1.0,
    ) {
        let mut enc = vce_codec::Encoder::new();
        enc.put_u32(names.len() as u32);
        for name in &names {
            enc.put_len_bytes(name);
        }
        let bytes = enc.finish();
        let got = vce_codec::from_bytes::<NameList>(&bytes);
        match names.iter().find(|n| std::str::from_utf8(n).is_err()) {
            None => prop_assert_eq!(got.map(|l| l.len()), Ok(names.len())),
            Some(_) => prop_assert_eq!(got, Err(vce_codec::CodecError::InvalidUtf8)),
        }
        prop_assert!(same(&bytes));
        // Truncated, often in the middle of a name.
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        prop_assert!(same(&bytes[..cut]));
    }
}
