//! The wire codec of triple lists: the items of lookup and range replies
//! on both backends and the payload table of a write batch
//! ([`unistore_util::item::Item::encode_list`] and its siblings).
//!
//! A leaf answers a range request with the triples of one key interval
//! in key order, so a reply is almost always one attribute, and its
//! string values share leading bytes with their neighbours. The list
//! ships each attribute name once and front-codes string values:
//!
//! ```text
//! count                       varint; an empty list ends here
//! n, n × name                 the distinct attribute names, first-seen order
//! count × (
//!   index                     varint into the names; absent when n = 1
//!   oid                       0 when it is the previous triple's OID,
//!                             otherwise its length + 1, then its bytes
//!   value                     as `Value::encode`, except a string:
//!     tag, shared, suffix       `shared` = how many leading bytes it has in
//!                               common with the previous triple's string
//!                               value (0 when that value is no string), at
//!                               most [`MAX_SHARED`], cut back to a char
//!                               boundary; `suffix` the rest
//! )
//! ```
//!
//! OIDs are not front-coded: in range replies their shared prefixes
//! cost about as much as the length bytes would. But a write batch
//! carries a tuple's triples side by side, and an OID lookup answers
//! with one object's, so an OID equal to its predecessor's is one byte.
//! An OID under 127 bytes, the empty OID of a q-gram posting among
//! them, costs what `Oid::encode` would.
//!
//! The decoder rejects an empty name table under a non-empty list, a
//! table longer than the list, an index off the table, a repeated OID
//! with no previous triple, and a `shared`
//! that is non-zero with no previous string, longer than the previous
//! string or than [`MAX_SHARED`], or off its char boundaries.

use std::sync::Arc;

use bytes::{BufMut, Bytes, BytesMut};

use unistore_util::compact::intern;
use unistore_util::wire::{
    decode_str, decode_str_body, get_len, get_varint, put_str, put_varint, str_wire_size,
    varint_size, Wire, WireError,
};
use unistore_util::CompactStr;

use crate::triple::{Oid, Triple};
use crate::value::{tag, Value};

/// Attribute names a table holds before it spills to the heap: sizing
/// a list of a few attributes allocates nothing.
const INLINE_NAMES: usize = 8;

/// The distinct attribute names of a list, in first-seen order.
struct Names<'a> {
    head: [&'a str; INLINE_NAMES],
    len: usize,
    tail: Vec<&'a str>,
}

impl<'a> Names<'a> {
    fn of(items: &'a [Triple]) -> Names<'a> {
        let mut names = Names { head: [""; INLINE_NAMES], len: 0, tail: Vec::new() };
        for t in items {
            let name: &str = &t.attr;
            if names.position(name).is_none() {
                match names.head.get_mut(names.len) {
                    Some(slot) => *slot = name,
                    None => names.tail.push(name),
                }
                names.len += 1;
            }
        }
        names
    }

    fn iter(&self) -> impl Iterator<Item = &'a str> + '_ {
        self.head[..self.len.min(INLINE_NAMES)].iter().chain(&self.tail).copied()
    }

    fn position(&self, name: &str) -> Option<usize> {
        // Interned names make the pointer test the usual hit.
        let same = |n: &&str| std::ptr::eq(*n, name) || *n == name;
        let head = &self.head[..self.len.min(INLINE_NAMES)];
        head.iter()
            .position(same)
            .or_else(|| self.tail.iter().position(same).map(|i| i + INLINE_NAMES))
    }

    /// The index of `name`, one of the names of the list the table was
    /// built from.
    fn index(&self, name: &str) -> usize {
        self.position(name).unwrap_or(0)
    }

    /// Whether triples carry an index (a one-name table needs none).
    fn indexed(&self) -> bool {
        self.len > 1
    }
}

/// Appends `oid` as the list writes it: a repeat of `prev` as the one
/// byte 0, any other OID as its length + 1 and its bytes.
fn put_oid(buf: &mut BytesMut, oid: &Oid, prev: Option<&Oid>) {
    if prev == Some(oid) {
        put_varint(buf, 0);
    } else {
        put_varint(buf, oid.0.len() as u64 + 1);
        buf.put_slice(oid.0.as_bytes());
    }
}

fn oid_size(oid: &Oid, prev: Option<&Oid>) -> usize {
    match prev == Some(oid) {
        true => 1,
        false => varint_size(oid.0.len() as u64 + 1) + oid.0.len(),
    }
}

/// Decodes an OID [`put_oid`] wrote; a repeat shares `prev`'s string.
fn get_oid(buf: &mut Bytes, prev: Option<&Oid>) -> Result<Oid, WireError> {
    match get_len(buf)? {
        0 => prev.cloned().ok_or(WireError::BadLength(0)),
        n => decode_str_body(buf, n - 1, |s| Oid(Arc::from(s))),
    }
}

/// The most bytes a string value takes from its predecessor (a one-byte
/// `shared`). Each is copied on decode, so without a cap a long string
/// followed by many triples with empty suffixes would decode into memory
/// quadratic in the bytes read; with it a triple of at least four wire
/// bytes copies at most this many.
const MAX_SHARED: usize = 127;

/// How many leading bytes `s` shares with `prev`, at most [`MAX_SHARED`],
/// cut back to a char boundary (one of both strings: the bytes before it
/// are identical).
fn shared_prefix(prev: Option<&str>, s: &str) -> usize {
    let Some(prev) = prev else { return 0 };
    let common = prev.as_bytes().iter().zip(s.as_bytes()).take_while(|(x, y)| x == y).count();
    let mut n = common.min(MAX_SHARED);
    while !s.is_char_boundary(n) {
        n -= 1;
    }
    n
}

pub(crate) fn encode(items: &[Triple], buf: &mut BytesMut) {
    put_varint(buf, items.len() as u64);
    if items.is_empty() {
        return;
    }
    let names = Names::of(items);
    put_varint(buf, names.len as u64);
    for name in names.iter() {
        put_str(buf, name);
    }
    let mut prev = None;
    let mut prev_oid = None;
    for t in items {
        if names.indexed() {
            put_varint(buf, names.index(&t.attr) as u64);
        }
        put_oid(buf, &t.oid, prev_oid);
        prev_oid = Some(&t.oid);
        match t.value.as_str() {
            Some(s) => {
                let shared = shared_prefix(prev, s);
                tag::STR.encode(buf);
                put_varint(buf, shared as u64);
                put_str(buf, &s[shared..]);
            }
            None => t.value.encode(buf),
        }
        prev = t.value.as_str();
    }
}

pub(crate) fn wire_size(items: &[Triple]) -> usize {
    let count = varint_size(items.len() as u64);
    if items.is_empty() {
        return count;
    }
    let names = Names::of(items);
    let mut size =
        count + varint_size(names.len as u64) + names.iter().map(str_wire_size).sum::<usize>();
    if names.indexed() {
        size += match names.len <= 128 {
            // Every index is a one-byte varint: no lookups.
            true => items.len(),
            false => items.iter().map(|t| varint_size(names.index(&t.attr) as u64)).sum(),
        };
    }
    let mut prev = None;
    let mut prev_oid = None;
    for t in items {
        size += oid_size(&t.oid, prev_oid);
        prev_oid = Some(&t.oid);
        size += match t.value.as_str() {
            Some(s) => {
                let shared = shared_prefix(prev, s);
                1 + varint_size(shared as u64) + str_wire_size(&s[shared..])
            }
            None => t.value.wire_size(),
        };
        prev = t.value.as_str();
    }
    size
}

pub(crate) fn decode(buf: &mut Bytes) -> Result<Vec<Triple>, WireError> {
    let len = get_len(buf)?;
    let mut out = Vec::with_capacity(len.min(1024));
    if len == 0 {
        return Ok(out);
    }
    let n = get_len(buf)?;
    if n == 0 || n > len {
        return Err(WireError::BadLength(n as u64));
    }
    // Each name is interned once per list, not once per triple.
    let mut names: Vec<Arc<str>> = Vec::with_capacity(n.min(64));
    for _ in 0..n {
        names.push(decode_str(buf, intern)?);
    }
    // The previous triple's string value, rebuilt in place: a shared
    // prefix is a truncation, the suffix an append.
    let mut prev = String::new();
    let mut prev_is_str = false;
    for _ in 0..len {
        let attr = match names.as_slice() {
            [only] => only.clone(),
            table => {
                let i = get_varint(buf)?;
                let name = usize::try_from(i).ok().and_then(|i| table.get(i));
                name.ok_or(WireError::BadLength(i))?.clone()
            }
        };
        let oid = get_oid(buf, out.last().map(|t: &Triple| &t.oid))?;
        let value = match u8::decode(buf)? {
            tag::STR => {
                let shared = get_varint(buf)?;
                if (shared > 0 && !prev_is_str)
                    || shared > prev.len() as u64
                    || shared > MAX_SHARED as u64
                {
                    return Err(WireError::BadLength(shared));
                }
                if !prev.is_char_boundary(shared as usize) {
                    return Err(WireError::BadUtf8);
                }
                prev.truncate(shared as usize);
                decode_str(buf, |suffix| prev.push_str(suffix))?;
                Value::Str(CompactStr::new(&prev))
            }
            tag::INT => Value::Int(Wire::decode(buf)?),
            tag::FLOAT => Value::Float(Wire::decode(buf)?),
            other => return Err(WireError::BadTag(other)),
        };
        prev_is_str = matches!(value, Value::Str(_));
        out.push(Triple { oid, attr, value });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use unistore_util::item::Item;

    fn encoded(items: &[Triple]) -> Bytes {
        let mut buf = BytesMut::new();
        Triple::encode_list(items, &mut buf);
        buf.freeze()
    }

    /// Decodes a whole buffer, as a message decoder would.
    fn decoded(bytes: &Bytes) -> Result<Vec<Triple>, WireError> {
        let mut b = bytes.clone();
        let items = Triple::decode_list(&mut b)?;
        match b.is_empty() {
            true => Ok(items),
            false => Err(WireError::BadLength(b.len() as u64)),
        }
    }

    /// Round-trips exactly (`Debug`, so an `Int` cannot come back as
    /// an equal `Float`) and sizes by arithmetic to the encoded length.
    fn roundtrip(items: &[Triple]) -> Bytes {
        let bytes = encoded(items);
        assert_eq!(Triple::list_wire_size(items), bytes.len(), "size of {items:?}");
        let back = decoded(&bytes).expect("decode");
        assert_eq!(format!("{back:?}"), format!("{items:?}"));
        bytes
    }

    fn range_reply() -> Vec<Triple> {
        ["Ada Lovelace", "Ada Lovelock", "Adam Smith", "Adele"]
            .iter()
            .enumerate()
            .map(|(i, name)| Triple::new(&format!("a{i}"), "name", Value::str(name)))
            .collect()
    }

    #[test]
    fn empty_list_is_one_count_byte() {
        assert_eq!(roundtrip(&[]).as_ref(), &[0]);
    }

    #[test]
    fn one_triple() {
        let t = Triple::new("v34", "title", Value::str("Progressive..."));
        let bytes = roundtrip(std::slice::from_ref(&t));
        // The triple's own bytes, its name moved into the table, plus
        // the list count, the table count, and a zero shared length.
        assert_eq!(bytes.len(), t.wire_size() + 3);
    }

    #[test]
    fn one_attribute_ships_its_name_once_and_no_indexes() {
        let items = range_reply();
        let bytes = roundtrip(&items);
        let flat: usize = items.iter().map(Wire::wire_size).sum::<usize>() + 1;
        // Three names saved, and "Ada Lovel", "Ada", "Ad" shared.
        let names = 3 * str_wire_size("name");
        let shared = "Ada Lovel".len() + "Ada".len() + "Ad".len();
        assert_eq!(bytes.len(), flat - names - shared + 1 + items.len(), "one table, 4 prefixes");
    }

    #[test]
    fn mixed_attributes_carry_indexes() {
        let items = vec![
            Triple::new("o1", "name", Value::str("bob")),
            Triple::new("o1", "age", Value::Int(30)),
            Triple::new("o2", "name", Value::str("bobby")),
            Triple::new("o2", "score", Value::Float(0.5)),
            Triple::new("o3", "age", Value::Int(31)),
        ];
        roundtrip(&items);
    }

    #[test]
    fn numbers_between_strings_reset_the_shared_prefix() {
        let items = vec![
            Triple::new("o1", "v", Value::str("prefix-one")),
            Triple::new("o2", "v", Value::Int(7)),
            Triple::new("o3", "v", Value::str("prefix-two")),
            Triple::new("o4", "v", Value::Float(-1.5)),
            Triple::new("o5", "v", Value::str("prefix-two")),
        ];
        roundtrip(&items);
        let after_int = vec![items[1].clone(), items[2].clone()];
        let alone = vec![items[2].clone()];
        assert_eq!(
            Triple::list_wire_size(&after_int),
            Triple::list_wire_size(&alone) + items[1].oid.wire_size() + items[1].value.wire_size(),
            "a string after a number shares nothing"
        );
    }

    #[test]
    fn shared_prefix_stops_at_a_char_boundary() {
        // 'é' is C3 A9 and 'è' C3 A8: one byte in common, mid-char.
        assert_eq!(shared_prefix(Some("aé"), "aè"), 1);
        assert_eq!(shared_prefix(Some("€x"), "₭x"), 0, "E2 82 AC vs E2 82 AD");
        assert_eq!(shared_prefix(Some("abc"), "abcd"), 3);
        assert_eq!(shared_prefix(Some("abcd"), "ab"), 2);
        assert_eq!(shared_prefix(None, "abc"), 0);
        let items: Vec<Triple> = ["aé", "aè", "aèz", "€x", "₭x", "₭"]
            .iter()
            .map(|s| Triple::new("o", "v", Value::str(s)))
            .collect();
        roundtrip(&items);
    }

    #[test]
    fn shared_prefix_stops_at_the_cap() {
        let long = "x".repeat(300);
        assert_eq!(shared_prefix(Some(&long), &long), MAX_SHARED);
        // A char straddling the cap is left whole to the suffix.
        let straddling = format!("{}é{long}", "x".repeat(MAX_SHARED - 1));
        assert_eq!(shared_prefix(Some(&straddling), &straddling), MAX_SHARED - 1);
        let items: Vec<Triple> = [&long, &long, &straddling, &straddling, &long]
            .iter()
            .map(|s| Triple::new("o", "v", Value::str(s)))
            .collect();
        roundtrip(&items);
    }

    #[test]
    fn long_values_and_many_names_roundtrip() {
        // Past the inline string capacity, and for the names past the
        // stack table and then past one-byte indexes.
        for names in [13, 150] {
            let items: Vec<Triple> = (0..2 * names)
                .map(|i| {
                    let value =
                        Value::str(&format!("a value long enough to leave the inline arm {i}"));
                    Triple::new(&format!("o{i}"), &format!("attr{}", i % names), value)
                })
                .collect();
            roundtrip(&items);
        }
    }

    /// A valid two-triple list to corrupt: count 2, table ["name"],
    /// then ("o1", "abc") and ("o2", "abd") sharing "ab".
    fn valid() -> Vec<u8> {
        let items = vec![
            Triple::new("o1", "name", Value::str("abc")),
            Triple::new("o2", "name", Value::str("abd")),
        ];
        let bytes = encoded(&items).to_vec();
        let expect = [
            &[2u8, 1, 4][..],
            b"name",
            &[3],
            b"o1",
            &[tag::STR, 0, 3],
            b"abc",
            &[3],
            b"o2",
            &[tag::STR, 2, 1],
            b"d",
        ]
        .concat();
        assert_eq!(bytes, expect, "the layout the hostile cases edit");
        bytes
    }

    fn reject(bytes: Vec<u8>) -> WireError {
        decoded(&Bytes::from(bytes)).expect_err("hostile list must not decode")
    }

    #[test]
    fn rejects_an_empty_table_under_a_non_empty_list() {
        assert_eq!(reject(vec![1, 0]), WireError::BadLength(0));
    }

    #[test]
    fn rejects_a_table_longer_than_the_list() {
        assert_eq!(reject(vec![1, 2, 1, b'a', 1, b'b']), WireError::BadLength(2));
    }

    #[test]
    fn rejects_an_index_off_the_table() {
        let items =
            vec![Triple::new("o1", "a", Value::Int(1)), Triple::new("o2", "b", Value::Int(2))];
        let mut bytes = encoded(&items).to_vec();
        // count 2, table [a, b] (5 bytes), then index 0 at byte 6.
        assert_eq!(bytes[6], 0);
        bytes[6] = 2;
        assert_eq!(reject(bytes), WireError::BadLength(2));
    }

    #[test]
    fn rejects_a_prefix_longer_than_the_previous_value() {
        let mut bytes = valid();
        let at = bytes.len() - 3;
        bytes[at] = 4;
        assert_eq!(reject(bytes), WireError::BadLength(4));
    }

    #[test]
    fn rejects_a_prefix_past_the_cap() {
        // A long string, then many triples that would each copy all of
        // it with an empty suffix: decoded size quadratic in the input.
        let long = "x".repeat(1 << 12);
        let triples = 1000;
        let mut buf = BytesMut::new();
        put_varint(&mut buf, triples);
        put_varint(&mut buf, 1);
        put_str(&mut buf, "v");
        let oid = Oid::new("");
        put_oid(&mut buf, &oid, None);
        tag::STR.encode(&mut buf);
        put_varint(&mut buf, 0);
        put_str(&mut buf, &long);
        for _ in 1..triples {
            put_oid(&mut buf, &oid, Some(&oid));
            tag::STR.encode(&mut buf);
            put_varint(&mut buf, long.len() as u64);
            put_str(&mut buf, "");
        }
        assert_eq!(reject(buf.to_vec()), WireError::BadLength(1 << 12));
        // One byte past the cap, still inside the previous string.
        let value = Value::str(&"x".repeat(200));
        let items = vec![Triple::new("o1", "v", value.clone()), Triple::new("o2", "v", value)];
        let mut bytes = encoded(&items).to_vec();
        // The last value: shared, a one-byte suffix length, 73 suffix bytes.
        let at = bytes.len() - 75;
        assert_eq!(bytes[at..at + 2], [MAX_SHARED as u8, 73], "the encoder clamps");
        // shared = 128, a two-byte varint.
        bytes.splice(at..at + 1, [0x80, 0x01]);
        assert_eq!(reject(bytes), WireError::BadLength(MAX_SHARED as u64 + 1));
    }

    #[test]
    fn rejects_a_prefix_off_a_char_boundary() {
        let items =
            vec![Triple::new("o1", "v", Value::str("é")), Triple::new("o2", "v", Value::str("x"))];
        let mut bytes = encoded(&items).to_vec();
        let at = bytes.len() - 3;
        assert_eq!(bytes[at], 0, "nothing shared");
        bytes[at] = 1;
        assert_eq!(reject(bytes), WireError::BadUtf8);
    }

    #[test]
    fn rejects_a_prefix_with_no_previous_string() {
        let mut bytes = valid();
        // The first value's shared length.
        bytes[11] = 1;
        assert_eq!(reject(bytes), WireError::BadLength(1));
        let items =
            vec![Triple::new("o1", "v", Value::Int(5)), Triple::new("o2", "v", Value::str("x"))];
        let mut bytes = encoded(&items).to_vec();
        let at = bytes.len() - 3;
        bytes[at] = 1;
        assert_eq!(reject(bytes), WireError::BadLength(1), "a number is no previous string");
    }

    #[test]
    fn a_repeated_oid_is_one_byte_and_shares_its_string() {
        let items = vec![
            Triple::new("object-number-7", "name", Value::str("x")),
            Triple::new("object-number-7", "score", Value::Int(7)),
            Triple::new("object-number-7", "tag", Value::str("odd")),
            Triple::new("", "tag", Value::str("odd")),
            Triple::new("", "name", Value::str("x")),
        ];
        let bytes = roundtrip(&items);
        // The same list with other OIDs of the same length in place of
        // the two repeats: each of those costs its length byte and 15.
        let mut fresh = items.clone();
        fresh[1].oid = Oid::new("object-number-8");
        fresh[2].oid = Oid::new("object-number-9");
        roundtrip(&fresh);
        assert_eq!(Triple::list_wire_size(&fresh), bytes.len() + 2 * 15);
        let back = decoded(&bytes).unwrap();
        assert!(Arc::ptr_eq(&back[0].oid.0, &back[2].oid.0), "a repeat shares the Arc");
        assert!(Arc::ptr_eq(&back[3].oid.0, &back[4].oid.0));
        // The empty OID of a posting stays one byte, repeated or not.
        let posting = [Triple::new("", "tag", Value::str("odd"))];
        assert_eq!(Triple::list_wire_size(&posting), posting[0].wire_size() + 3);
    }

    #[test]
    fn rejects_a_repeated_oid_with_no_previous_triple() {
        let mut bytes = valid();
        // The first OID's length byte.
        assert_eq!(bytes[7], 3);
        bytes.splice(7..10, [0]);
        assert_eq!(reject(bytes), WireError::BadLength(0));
    }

    #[test]
    fn keeps_the_length_cap() {
        let mut buf = BytesMut::new();
        put_varint(&mut buf, u64::MAX);
        assert!(matches!(reject(buf.to_vec()), WireError::BadLength(_)));
        // A plausible count over a short buffer fails on input, not on
        // allocation.
        let mut buf = BytesMut::new();
        put_varint(&mut buf, 1 << 27);
        buf.extend_from_slice(&[1, 1, b'a']);
        assert_eq!(reject(buf.to_vec()), WireError::UnexpectedEof);
    }

    #[test]
    fn every_truncation_is_rejected() {
        let full = valid();
        for cut in 0..full.len() {
            assert!(decoded(&Bytes::copy_from_slice(&full[..cut])).is_err(), "cut at {cut}");
        }
    }

    proptest! {
        #[test]
        fn prop_roundtrip(
            raw in proptest::collection::vec(
                (0u8..6, 0u8..4, 0u8..8, "[aéè€₭x]{0,6}", any::<i64>()),
                0..40,
            ),
            sorted: bool,
            padded: bool,
        ) {
            let attrs = ["name", "pub:title", "age", "é-attr"];
            let mut items: Vec<Triple> = raw
                .iter()
                .map(|(oid, attr, kind, s, i)| {
                    let value = match kind {
                        0 => Value::Int(*i),
                        1 => Value::Float(*i as f64 / 4.0),
                        // Padded, multi-byte chars straddle the cap.
                        _ if padded => Value::str(&format!("{}{s}", "x".repeat(MAX_SHARED - 2))),
                        _ => Value::str(s),
                    };
                    Triple::new(&format!("o{oid}"), attrs[*attr as usize], value)
                })
                .collect();
            if sorted {
                // Key order, as a range reply ships: neighbours share.
                items.sort_by(|a, b| a.value.cmp_values(&b.value));
            }
            let bytes = encoded(&items);
            prop_assert_eq!(Triple::list_wire_size(&items), bytes.len());
            let back = decoded(&bytes).expect("decode");
            prop_assert_eq!(format!("{back:?}"), format!("{items:?}"));
        }
    }
}
