//! Wire-robustness: the runtime's message decoder must survive arbitrary
//! bytes (a daemon receives traffic from any machine on the network) and
//! round-trip everything it encodes.

use proptest::prelude::*;
use vce_exm::msg::{encode_msg, ExmMsg, LoadProgram};
use vce_exm::status::{DaemonStatus, ResidentTask};
use vce_exm::wire::NameList;
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
        binaries in prop::collection::vec("[ -~]{0,16}", 0..5),
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
            binaries: binaries.iter().map(String::as_str).collect(),
        };
        let bytes = vce_codec::to_bytes(&status);
        prop_assert_eq!(vce_codec::from_bytes::<DaemonStatus>(&bytes).unwrap(), status);
    }

    /// The wire-form name list is `Vec<String>` as far as any peer can tell.
    #[test]
    fn name_list_is_the_vec_of_strings_it_replaced(
        names in prop::collection::vec(".{0,12}", 0..70),
        probe in ".{0,2}",
        pick in any::<usize>(),
    ) {
        let list: NameList = names.iter().map(String::as_str).collect();
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
            prop_assert_eq!(back.contains(&probe), names.contains(&probe));
            if !names.is_empty() {
                prop_assert!(back.contains(&names[pick % names.len()]));
            }
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
