//! Property tests: decode(encode(x)) == x for every Codec impl and for
//! arbitrary dynamic Values, plus "malformed input never panics" — and the
//! integer rule of `codec.rs` held at its edges: every narrow type over its
//! range and at the uvarint boundaries, zig-zag extremes, one past a type's
//! max, padded and forged counts and lengths.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;

use proptest::prelude::*;
use vce_codec::{from_bytes, to_bytes, uvarint_len, Codec, CodecError, Encoder, Value};

struct Counting;

thread_local! {
    // Const-initialised and without a destructor, so the allocator can
    // touch it at any point in a thread's life.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

/// Heap allocations this thread makes while running `f`.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

fn uvarint(v: u64) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_uvarint(v);
    e.finish()
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// `v`, whose uvarint is one byte, spelled with a redundant zero group.
fn padded(v: u8) -> [u8; 2] {
    assert!(v < 0x80);
    [v | 0x80, 0x00]
}

/// `x` is the uvarint of `wire` and decodes back to itself.
fn is_uvarint<T: Codec + PartialEq + std::fmt::Debug>(x: T, wire: u64) -> bool {
    let bytes = to_bytes(&x);
    bytes == uvarint(wire) && bytes.len() == uvarint_len(wire) && from_bytes::<T>(&bytes) == Ok(x)
}

#[test]
fn u8_and_u16_round_trip_over_their_whole_range() {
    assert!((0..=u8::MAX).all(|v| is_uvarint(v, u64::from(v))));
    assert!((0..=u16::MAX).all(|v| is_uvarint(v, u64::from(v))));
}

#[test]
fn uvarint_boundaries_cost_one_more_byte() {
    for (v, len) in [(0u64, 1), (127, 1), (128, 2), (16_383, 2), (16_384, 3)] {
        assert_eq!(to_bytes(&(v as u16)).len(), len, "u16 {v}");
        assert_eq!(to_bytes(&(v as u32)).len(), len, "u32 {v}");
        assert_eq!(to_bytes(&(v as usize)).len(), len, "usize {v}");
    }
    assert_eq!(to_bytes(&127u8), [0x7f]);
    assert_eq!(to_bytes(&128u8), [0x80, 0x01]);
    assert_eq!(to_bytes(&16_384u32), [0x80, 0x80, 0x01]);
    assert_eq!(to_bytes(&u32::MAX).len(), 5);
    assert_eq!(to_bytes(&u64::MAX).len(), 8, "a u64 stays a fixed word");
    assert_eq!(to_bytes(&0u64).len(), 8);
}

#[test]
fn zigzag_extremes() {
    for (v, wire) in [
        (0i8, 0u64),
        (-1, 1),
        (1, 2),
        (-64, 127),
        (63, 126),
        (64, 128),
    ] {
        assert!(is_uvarint(v, wire), "i8 {v}");
    }
    assert!(is_uvarint(i8::MIN, 255) && is_uvarint(i8::MAX, 254));
    assert!(is_uvarint(i16::MIN, 65_535) && is_uvarint(i16::MAX, 65_534));
    assert!(is_uvarint(i32::MIN, u64::from(u32::MAX)));
    assert!(is_uvarint(i32::MAX, u64::from(u32::MAX) - 1));
    assert_eq!(to_bytes(&i64::MIN).len(), 8, "an i64 stays a fixed word");
}

#[test]
fn one_past_max_is_refused_not_truncated() {
    fn refused<T: Codec + std::fmt::Debug>(wire: u64, type_name: &str) {
        match from_bytes::<T>(&uvarint(wire)) {
            Err(CodecError::InvalidDiscriminant {
                value,
                type_name: t,
            }) => {
                assert_eq!((value, t), (wire, type_name));
            }
            other => panic!("{type_name} <- {wire}: {other:?}"),
        }
    }
    refused::<u8>(256, "u8");
    refused::<u16>(1 << 16, "u16");
    refused::<u32>(1 << 32, "u32");
    refused::<i8>(zigzag(128), "i8");
    refused::<i8>(zigzag(-129), "i8");
    refused::<i16>(zigzag(1 << 15), "i16");
    refused::<i32>(zigzag(1 << 31), "i32");
    refused::<i32>(zigzag(-(1 << 31) - 1), "i32");
}

fn arb_value(depth: u32) -> BoxedStrategy<Value> {
    let leaf = prop_oneof![
        Just(Value::Unit),
        any::<bool>().prop_map(Value::Bool),
        any::<u64>().prop_map(Value::U64),
        any::<i64>().prop_map(Value::I64),
        // Use finite doubles; NaN breaks PartialEq-based round-trip checks.
        prop::num::f64::NORMAL.prop_map(Value::F64),
        ".*".prop_map(Value::Str),
        prop::collection::vec(any::<u8>(), 0..64).prop_map(Value::Bytes),
    ];
    if depth == 0 {
        leaf.boxed()
    } else {
        let inner = arb_value(depth - 1);
        prop_oneof![
            leaf,
            prop::collection::vec(arb_value(depth - 1), 0..4).prop_map(Value::List),
            prop::collection::vec(arb_value(depth - 1), 0..4).prop_map(Value::Record),
            prop::collection::btree_map("[a-z]{1,8}", inner, 0..4).prop_map(Value::Map),
        ]
        .boxed()
    }
}

proptest! {
    #[test]
    fn u64_round_trip(v in any::<u64>()) {
        prop_assert_eq!(from_bytes::<u64>(&to_bytes(&v)).unwrap(), v);
    }

    #[test]
    fn i64_round_trip(v in any::<i64>()) {
        prop_assert_eq!(from_bytes::<i64>(&to_bytes(&v)).unwrap(), v);
    }

    #[test]
    fn f64_round_trip(v in prop::num::f64::ANY) {
        let back = from_bytes::<f64>(&to_bytes(&v)).unwrap();
        // Bit-exact round trip, including NaN payloads and -0.0.
        prop_assert_eq!(back.to_bits(), v.to_bits());
    }

    #[test]
    fn string_round_trip(s in ".*") {
        prop_assert_eq!(from_bytes::<String>(&to_bytes(&s)).unwrap(), s);
    }

    #[test]
    fn vec_u32_round_trip(v in prop::collection::vec(any::<u32>(), 0..128)) {
        prop_assert_eq!(from_bytes::<Vec<u32>>(&to_bytes(&v)).unwrap(), v);
    }

    #[test]
    fn map_round_trip(m in prop::collection::btree_map("[a-z]{1,6}", any::<i64>(), 0..32)) {
        prop_assert_eq!(from_bytes::<BTreeMap<String, i64>>(&to_bytes(&m)).unwrap(), m);
    }

    #[test]
    fn option_round_trip(v in prop::option::of(any::<u16>())) {
        prop_assert_eq!(from_bytes::<Option<u16>>(&to_bytes(&v)).unwrap(), v);
    }

    #[test]
    fn tuple_round_trip(a in any::<u8>(), b in any::<i32>(), c in ".{0,16}") {
        let t = (a, b, c);
        let back: (u8, i32, String) = from_bytes(&to_bytes(&t)).unwrap();
        prop_assert_eq!(back, t);
    }

    #[test]
    fn value_round_trip(v in arb_value(3)) {
        let bytes = v.to_bytes();
        prop_assert_eq!(Value::from_bytes(&bytes).unwrap(), v);
    }

    #[test]
    fn narrow_uints_are_uvarints(c in any::<u32>(), d in any::<usize>()) {
        prop_assert!(is_uvarint(c, u64::from(c)));
        prop_assert!(is_uvarint(d, d as u64));
    }

    #[test]
    fn narrow_sints_are_zigzag_uvarints(a in any::<i8>(), b in any::<i16>(), c in any::<i32>()) {
        prop_assert!(is_uvarint(a, zigzag(i64::from(a))));
        prop_assert!(is_uvarint(b, zigzag(i64::from(b))));
        prop_assert!(is_uvarint(c, zigzag(i64::from(c))));
    }

    #[test]
    fn values_past_a_types_max_are_refused(
        small in 256u64..=u64::MAX,
        wide in (1u64 << 32)..=u64::MAX,
    ) {
        prop_assert!(from_bytes::<u8>(&uvarint(small)).is_err());
        prop_assert!(from_bytes::<u32>(&uvarint(wide)).is_err());
        prop_assert!(from_bytes::<i32>(&uvarint(wide)).is_err());
    }

    /// A count or a length spelled with a padding byte names the same
    /// value as the one-byte form the encoder writes: it is refused, in
    /// every place a count or a length is read.
    #[test]
    fn padded_counts_and_lengths_are_refused(
        text in "[a-z]{0,20}",
        items in prop::collection::vec(any::<u8>(), 0..20),
    ) {
        let n = items.len() as u8;
        let list = [&padded(n)[..], &to_bytes(&items)[1..]].concat();
        prop_assert_eq!(&to_bytes(&items)[1..], &list[2..]);
        prop_assert!(from_bytes::<Vec<u8>>(&list).is_err());
        let str_wire = [&padded(text.len() as u8)[..], text.as_bytes()].concat();
        prop_assert!(from_bytes::<String>(&str_wire).is_err());
        let map: BTreeMap<u8, u8> = items.iter().map(|&k| (k, k)).collect();
        let map_wire = to_bytes(&map);
        let map_padded = [&padded(map.len() as u8)[..], &map_wire[1..]].concat();
        prop_assert!(from_bytes::<BTreeMap<u8, u8>>(&map_padded).is_err());
        // The tagged path reads the same prefixes.
        let value = Value::Str(text.clone()).to_bytes();
        let value_padded = [&value[..1], &padded(text.len() as u8), &value[2..]].concat();
        prop_assert!(Value::from_bytes(&value_padded).is_err());
    }

    /// A count or a length larger than the bytes behind it is refused on
    /// the prefix alone: nothing is sized from it, nothing is allocated.
    #[test]
    fn forged_counts_and_lengths_allocate_nothing(
        forged in 64u64..=u64::MAX,
        tail in prop::collection::vec(any::<u8>(), 0..32),
    ) {
        let wire = [&uvarint(forged)[..], &tail].concat();
        let tagged = |tag: u8| [&[tag][..], &wire].concat();
        let (str_tag, bytes_tag, list_tag, map_tag) = (5, 6, 7, 8);
        let allocs = allocs_during(|| {
            assert!(from_bytes::<Vec<u64>>(&wire).is_err());
            assert!(from_bytes::<Vec<String>>(&wire).is_err());
            assert!(from_bytes::<BTreeMap<u32, u32>>(&wire).is_err());
            assert!(from_bytes::<String>(&wire).is_err());
            for tag in [str_tag, bytes_tag, list_tag, map_tag] {
                assert!(Value::from_bytes(&tagged(tag)).is_err());
            }
        });
        // `tagged` builds one small buffer per call; the decoders none.
        prop_assert_eq!(allocs, 4);
        prop_assert_eq!(
            from_bytes::<Vec<u64>>(&wire),
            Err(CodecError::LengthOverflow { declared: forged, limit: tail.len() as u64 })
        );
    }

    #[test]
    fn random_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        // Decoding attacker-controlled garbage must fail gracefully.
        let _ = Value::from_bytes(&bytes);
        let _ = from_bytes::<Vec<String>>(&bytes);
        let _ = from_bytes::<(u64, String, bool)>(&bytes);
    }

    #[test]
    fn truncation_never_panics(v in arb_value(2), cut_frac in 0.0f64..1.0) {
        let bytes = v.to_bytes();
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        let _ = Value::from_bytes(&bytes[..cut.min(bytes.len())]);
    }
}
