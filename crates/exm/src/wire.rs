//! Values kept in the bytes they arrived in.
//!
//! A round moves a request's unit, the units a disclosure asks about and
//! the tasks a bid lists. A leader decodes a dozen bids per round and looks
//! inside few; a bidder reads an asked unit once. So none of it is rebuilt
//! as `String`s and `Vec`s: [`WireStr`] and [`WireList`] check on decode
//! everything the owned types check — every count, every length, UTF-8 —
//! and then keep a view of the message buffer ([`Decoder::consumed_since`])
//! instead of copying out of it. Both encode to exactly the bytes `String`
//! and `Vec<T>` encode to; a disclosure's list is read with a tighter cap on
//! its count.

use std::fmt;
use std::marker::PhantomData;

use bytes::Bytes;
use vce_codec::{Codec, CodecError, Decoder, Encoder, Result};

/// A UTF-8 string held as a view of the message it was decoded from (or as
/// its own buffer, when built locally). On the wire: `String`'s layout.
///
/// A view keeps its message's buffer alive, so this is for values that are
/// compared or forwarded within a protocol round; state that outlives the
/// round holds its own bytes (`as_str().into()`).
#[derive(Clone, Default, PartialEq, Eq)]
pub struct WireStr(Bytes);

impl WireStr {
    /// The string.
    pub fn as_str(&self) -> &str {
        // Checked when the value was built; re-checked here because the
        // alternative is `unsafe`, and no per-message path asks for `&str`.
        std::str::from_utf8(&self.0).expect("WireStr holds UTF-8")
    }
}

impl From<&str> for WireStr {
    fn from(s: &str) -> Self {
        WireStr(Bytes::copy_from_slice(s.as_bytes()))
    }
}

impl PartialEq<str> for WireStr {
    fn eq(&self, other: &str) -> bool {
        self.0 == *other.as_bytes()
    }
}

impl fmt::Debug for WireStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl Codec for WireStr {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_len_bytes(&self.0);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        let len = dec.get_str()?.len();
        Ok(WireStr(dec.consumed_since(dec.position() - len)))
    }
}

/// What a [`WireList`] can hold.
pub trait WireItem: Codec {
    /// Consume one item, rejecting whatever `decode` rejects. Override
    /// where that needs no value built.
    fn validate(dec: &mut Decoder<'_>) -> Result<()> {
        Self::decode(dec).map(drop)
    }
}

impl WireItem for WireStr {
    /// [`Decoder::get_str`]'s verdict on every input. Names are almost
    /// always ASCII, which is UTF-8 by construction, and `is_ascii` is an
    /// inlined word-at-a-time scan where `from_utf8` is a call per name.
    #[inline]
    fn validate(dec: &mut Decoder<'_>) -> Result<()> {
        let bytes = dec.get_len_bytes()?;
        if bytes.is_ascii() {
            return Ok(());
        }
        std::str::from_utf8(bytes)
            .map(drop)
            .map_err(|_| CodecError::InvalidUtf8)
    }
}

/// A list held in wire form. On the wire: `[uvarint count][item]*`,
/// `Vec<T>`'s layout.
///
/// Decoding walks the items once to check them and keeps the span they
/// occupy; [`WireList::iter`] decodes them again on demand, in place.
/// Encoding appends the span verbatim.
#[derive(Clone)]
pub struct WireList<T> {
    len: u32,
    /// The items back to back; every one has passed `T::validate`.
    items: Bytes,
    item: PhantomData<fn() -> T>,
}

/// Unit names: what a disclosure asks the bidders about.
pub type NameList = WireList<WireStr>;

impl<T: WireItem> WireList<T> {
    fn checked(len: u32, items: Bytes) -> Self {
        let item = PhantomData;
        WireList { len, items, item }
    }

    /// Append `items` as the list they would make, without making it.
    pub fn encode_items(items: &[T], enc: &mut Encoder) {
        debug_assert!(items.len() <= u32::MAX as usize);
        enc.put_uvarint(items.len() as u64);
        items.iter().for_each(|item| item.encode(enc));
    }

    /// Decode a list, refusing more than `max` items — or than the buffer
    /// could hold — on the count alone; then check each item and keep the
    /// span they occupy.
    pub fn decode_at_most(dec: &mut Decoder<'_>, max: u32) -> Result<Self> {
        let declared = dec.get_uvarint()?;
        let limit = u64::from(max).min(dec.remaining() as u64);
        if declared > limit {
            return Err(CodecError::LengthOverflow { declared, limit });
        }
        let start = dec.position();
        for _ in 0..declared {
            T::validate(dec)?;
        }
        Ok(Self::checked(declared as u32, dec.consumed_since(start)))
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// No items?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The items, decoded one at a time as views of this list's buffer.
    pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
        let mut dec = Decoder::with_backing(&self.items);
        // Every item decoded once already, so `ok()` never ends this early.
        (0..self.len).map_while(move |_| T::decode(&mut dec).ok())
    }
}

impl<T: WireItem> Default for WireList<T> {
    fn default() -> Self {
        Self::checked(0, Bytes::new())
    }
}

impl<T: WireItem> Codec for WireList<T> {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_uvarint(u64::from(self.len));
        enc.put_raw(&self.items);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        // The guard `Vec<T>` applies, with the error it gives: a forged
        // count fails before anything is sized from it.
        Self::decode_at_most(dec, u32::MAX)
    }
}

impl<T: WireItem> FromIterator<T> for WireList<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut enc = Encoder::with_capacity(64);
        let len = iter.into_iter().map(|item| item.encode(&mut enc)).count();
        Self::checked(len as u32, enc.finish_bytes())
    }
}

impl<T> PartialEq for WireList<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.items == other.items
    }
}

impl<T: WireItem + fmt::Debug> fmt::Debug for WireList<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vce_codec::{from_backing, from_bytes, to_bytes};

    fn names(v: &[&str]) -> NameList {
        v.iter().copied().map(WireStr::from).collect()
    }

    #[test]
    fn a_name_list_is_a_vec_of_strings_on_the_wire() {
        let owned = vec!["collector".to_string(), String::new(), "predictör".into()];
        let list = names(&["collector", "", "predictör"]);
        assert_eq!(to_bytes(&list), to_bytes(&owned));
        assert_eq!(
            to_bytes(&NameList::default()),
            to_bytes(&Vec::<String>::new())
        );
        assert_eq!(from_bytes::<NameList>(&to_bytes(&owned)).unwrap(), list);
        let back: Vec<WireStr> = list.iter().collect();
        assert_eq!(back.len(), 3);
        assert!(back.iter().zip(&owned).all(|(a, b)| a == b.as_str()));
        assert_eq!(list.len(), 3);
        assert!(!list.is_empty() && NameList::default().is_empty());
    }

    #[test]
    fn the_short_form_differs_in_the_count_only() {
        // A disclosure's list is the plain list on the wire: what differs
        // is the cap the reader puts on its count.
        let items: Vec<WireStr> = ["collector", ""].map(WireStr::from).to_vec();
        let list: NameList = items.iter().cloned().collect();
        let (mut plain, mut listed) = (Encoder::new(), Encoder::new());
        list.encode(&mut plain);
        NameList::encode_items(&items, &mut listed);
        let (plain, listed) = (plain.finish(), listed.finish());
        assert_eq!(plain, listed);
        assert_eq!(plain, [&[2, 9][..], b"collector", &[0]].concat());
        let mut dec = Decoder::new(&plain);
        assert_eq!(NameList::decode_at_most(&mut dec, 2).unwrap(), list);
        assert!(dec.is_empty());
        // One more item than the reader allows, a count the buffer cannot
        // hold, and a padded count fail on the count alone.
        assert_eq!(
            NameList::decode_at_most(&mut Decoder::new(&plain), 1).unwrap_err(),
            CodecError::LengthOverflow {
                declared: 2,
                limit: 1
            }
        );
        assert_eq!(
            NameList::decode_at_most(&mut Decoder::new(&[9, 0, 0]), 64).unwrap_err(),
            CodecError::LengthOverflow {
                declared: 9,
                limit: 2
            }
        );
        assert!(matches!(
            NameList::decode_at_most(&mut Decoder::new(&[0x82, 0x00, 0, 0]), 64),
            Err(CodecError::InvalidDiscriminant { .. })
        ));
    }

    #[test]
    fn decoding_from_a_buffer_takes_views_of_it() {
        let mut enc = Encoder::new();
        // A field ahead of the list, so the views start inside the buffer.
        1u64.encode(&mut enc);
        names(&["a name that is too long to be stored inline"]).encode(&mut enc);
        let msg = enc.finish_bytes();
        let (_, list): (u64, NameList) = from_backing(&msg).unwrap();
        let unit = list.iter().next().unwrap();
        let inside = |p: *const u8| msg.as_ptr_range().contains(&p);
        assert!(inside(list.items.as_ptr()) && inside(unit.0.as_ptr()));
        // ... and a copy made through `&str` is not.
        assert!(!inside(WireStr::from(unit.as_str()).0.as_ptr()));
    }

    #[test]
    fn malformed_lists_are_rejected_like_the_vec_they_replace() {
        fn same(bytes: &[u8]) -> CodecError {
            let err = from_bytes::<NameList>(bytes).unwrap_err();
            assert_eq!(from_bytes::<Vec<String>>(bytes).unwrap_err(), err);
            err
        }
        // A count no buffer this size could hold (u32::MAX as a uvarint).
        assert_eq!(
            same(&[0xff, 0xff, 0xff, 0xff, 0x0f, 0, 0]),
            CodecError::LengthOverflow {
                declared: u64::from(u32::MAX),
                limit: 2
            }
        );
        // A name cut short, and a name that is not UTF-8.
        assert!(matches!(
            same(&[1, 5, b'a']),
            CodecError::UnexpectedEof { .. }
        ));
        assert_eq!(same(&[1, 1, 0xff]), CodecError::InvalidUtf8);
        assert!(matches!(
            same(&[0, 9]),
            CodecError::TrailingBytes { remaining: 1 }
        ));
        // A padded count, and a padded name length: one spelling each.
        assert!(matches!(
            same(&[0x81, 0x00, 0, 0]),
            CodecError::InvalidDiscriminant { .. }
        ));
        assert!(matches!(
            same(&[1, 0x81, 0x00, b'a']),
            CodecError::InvalidDiscriminant { .. }
        ));
    }
}
