//! Compact binary codec for messages and mutant query plans.
//!
//! The paper's Mutant Query Plan processing ships *plans with embedded
//! partial results* between peers. To account message sizes honestly in
//! the simulator (bytes on the wire drive the cost model and experiment
//! outputs), everything that crosses the simulated network implements
//! [`Wire`]: a simple length-prefixed, varint-based binary encoding built
//! on the `bytes` crate.

use std::fmt;
use std::sync::Arc;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::item::Item;

/// Decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the value was complete.
    UnexpectedEof,
    /// A tag byte did not match any known variant.
    BadTag(u8),
    /// A string was not valid UTF-8.
    BadUtf8,
    /// A length prefix was implausibly large.
    BadLength(u64),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEof => write!(f, "unexpected end of input"),
            WireError::BadTag(t) => write!(f, "unknown tag byte {t:#04x}"),
            WireError::BadUtf8 => write!(f, "invalid UTF-8 in string"),
            WireError::BadLength(n) => write!(f, "implausible length {n}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Sanity cap for decoded collection and string lengths (guards fuzzed
/// input).
pub const MAX_LEN: u64 = 1 << 28;

/// Types that can cross the simulated network.
pub trait Wire: Sized {
    /// Appends the encoding of `self` to `buf`.
    fn encode(&self, buf: &mut BytesMut);

    /// Decodes a value, consuming bytes from `buf`.
    fn decode(buf: &mut Bytes) -> Result<Self, WireError>;

    /// Number of bytes [`Wire::encode`] would produce, computed by
    /// arithmetic over the value — never by encoding it. The simulator
    /// sizes every send through here, so there is deliberately no
    /// default: each implementor states its size, and its round-trip
    /// test checks `wire_size() == to_bytes().len()`.
    fn wire_size(&self) -> usize;

    /// Convenience: encodes into a fresh buffer, sized exactly (one
    /// allocation).
    fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.wire_size());
        self.encode(&mut buf);
        buf.freeze()
    }

    /// Convenience: decodes from a full buffer, requiring full consumption.
    fn from_bytes(bytes: &Bytes) -> Result<Self, WireError> {
        let mut b = bytes.clone();
        let v = Self::decode(&mut b)?;
        if b.has_remaining() {
            return Err(WireError::BadLength(b.remaining() as u64));
        }
        Ok(v)
    }
}

/// Writes a LEB128 varint.
pub fn put_varint(buf: &mut BytesMut, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

/// Reads a LEB128 varint.
pub fn get_varint(buf: &mut Bytes) -> Result<u64, WireError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        if !buf.has_remaining() {
            return Err(WireError::UnexpectedEof);
        }
        let byte = buf.get_u8();
        if shift >= 64 {
            return Err(WireError::BadLength(u64::MAX));
        }
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Reads a collection length: a varint no larger than the sanity cap.
pub fn get_len(buf: &mut Bytes) -> Result<usize, WireError> {
    let len = get_varint(buf)?;
    if len > MAX_LEN {
        return Err(WireError::BadLength(len));
    }
    Ok(len as usize)
}

/// Encodes a length-prefixed list, pre-reserving the buffer from a
/// first-item size estimate. Op lists and item lists on the default
/// [`Item`] list hooks carry many homogeneous entries; growing the
/// byte buffer incrementally re-allocates O(log total) times and copies
/// everything each time, while one up-front `reserve` makes the whole
/// encode a single allocation.
pub fn put_list<T: Wire>(buf: &mut BytesMut, items: &[T]) {
    put_varint(buf, items.len() as u64);
    if let Some(first) = items.first() {
        buf.reserve(first.wire_size() * items.len());
    }
    for item in items {
        item.encode(buf);
    }
}

/// Wire size of a length-prefixed list, as [`put_list`] writes it.
pub fn list_size<T: Wire>(items: &[T]) -> usize {
    varint_size(items.len() as u64) + items.iter().map(Wire::wire_size).sum::<usize>()
}

/// Size of the varint encoding of `v`.
pub fn varint_size(v: u64) -> usize {
    if v == 0 {
        1
    } else {
        (64 - v.leading_zeros() as usize).div_ceil(7)
    }
}

impl Wire for u64 {
    fn encode(&self, buf: &mut BytesMut) {
        put_varint(buf, *self);
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        get_varint(buf)
    }

    fn wire_size(&self) -> usize {
        varint_size(*self)
    }
}

impl Wire for u32 {
    fn encode(&self, buf: &mut BytesMut) {
        put_varint(buf, *self as u64);
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let v = get_varint(buf)?;
        u32::try_from(v).map_err(|_| WireError::BadLength(v))
    }

    fn wire_size(&self) -> usize {
        varint_size(*self as u64)
    }
}

impl Wire for u16 {
    fn encode(&self, buf: &mut BytesMut) {
        put_varint(buf, *self as u64);
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let v = get_varint(buf)?;
        u16::try_from(v).map_err(|_| WireError::BadLength(v))
    }

    fn wire_size(&self) -> usize {
        varint_size(*self as u64)
    }
}

impl Wire for u8 {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(*self);
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        if !buf.has_remaining() {
            return Err(WireError::UnexpectedEof);
        }
        Ok(buf.get_u8())
    }

    fn wire_size(&self) -> usize {
        1
    }
}

impl Wire for bool {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(*self as u8);
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        match u8::decode(buf)? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(WireError::BadTag(t)),
        }
    }

    fn wire_size(&self) -> usize {
        1
    }
}

impl Wire for i64 {
    fn encode(&self, buf: &mut BytesMut) {
        // ZigZag so small magnitudes stay small.
        let z = ((*self << 1) ^ (*self >> 63)) as u64;
        put_varint(buf, z);
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let z = get_varint(buf)?;
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }

    fn wire_size(&self) -> usize {
        varint_size(((*self << 1) ^ (*self >> 63)) as u64)
    }
}

impl Wire for f64 {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u64(self.to_bits());
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        if buf.remaining() < 8 {
            return Err(WireError::UnexpectedEof);
        }
        Ok(f64::from_bits(buf.get_u64()))
    }

    fn wire_size(&self) -> usize {
        8
    }
}

/// Decodes a length-prefixed UTF-8 string, validating **in place** over
/// the incoming buffer and handing the borrowed `&str` to `f` — the
/// caller builds its target type (`String`, `Arc<str>`, inline bytes)
/// in a single copy, with no intermediate `Vec<u8>`.
pub fn decode_str<R>(buf: &mut Bytes, f: impl FnOnce(&str) -> R) -> Result<R, WireError> {
    let len = get_len(buf)?;
    if buf.remaining() < len {
        return Err(WireError::UnexpectedEof);
    }
    let head = buf.chunk().get(..len).ok_or(WireError::UnexpectedEof)?;
    let s = std::str::from_utf8(head).map_err(|_| WireError::BadUtf8)?;
    let out = f(s);
    buf.advance(len);
    Ok(out)
}

/// Encodes a length-prefixed UTF-8 string (shared by every string-like
/// wire type so their encodings stay byte-identical).
pub fn put_str(buf: &mut BytesMut, s: &str) {
    put_varint(buf, s.len() as u64);
    buf.put_slice(s.as_bytes());
}

/// Wire size of a length-prefixed UTF-8 string.
pub fn str_wire_size(s: &str) -> usize {
    varint_size(s.len() as u64) + s.len()
}

impl Wire for String {
    fn encode(&self, buf: &mut BytesMut) {
        put_str(buf, self);
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        decode_str(buf, str::to_owned)
    }

    fn wire_size(&self) -> usize {
        str_wire_size(self)
    }
}

impl Wire for Arc<str> {
    fn encode(&self, buf: &mut BytesMut) {
        put_str(buf, self);
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        decode_str(buf, |s| Arc::from(s))
    }

    fn wire_size(&self) -> usize {
        str_wire_size(self)
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, buf: &mut BytesMut) {
        put_varint(buf, self.len() as u64);
        for item in self {
            item.encode(buf);
        }
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let len = get_len(buf)?;
        let mut out = Vec::with_capacity(len.min(1024));
        for _ in 0..len {
            out.push(T::decode(buf)?);
        }
        Ok(out)
    }

    fn wire_size(&self) -> usize {
        list_size(self)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            None => buf.put_u8(0),
            Some(v) => {
                buf.put_u8(1);
                v.encode(buf);
            }
        }
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        match u8::decode(buf)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(buf)?)),
            t => Err(WireError::BadTag(t)),
        }
    }

    fn wire_size(&self) -> usize {
        1 + self.as_ref().map_or(0, Wire::wire_size)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, buf: &mut BytesMut) {
        self.0.encode(buf);
        self.1.encode(buf);
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok((A::decode(buf)?, B::decode(buf)?))
    }

    fn wire_size(&self) -> usize {
        self.0.wire_size() + self.1.wire_size()
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn encode(&self, buf: &mut BytesMut) {
        self.0.encode(buf);
        self.1.encode(buf);
        self.2.encode(buf);
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok((A::decode(buf)?, B::decode(buf)?, C::decode(buf)?))
    }

    fn wire_size(&self) -> usize {
        self.0.wire_size() + self.1.wire_size() + self.2.wire_size()
    }
}

impl<A: Wire, B: Wire, C: Wire, D: Wire> Wire for (A, B, C, D) {
    fn encode(&self, buf: &mut BytesMut) {
        self.0.encode(buf);
        self.1.encode(buf);
        self.2.encode(buf);
        self.3.encode(buf);
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok((A::decode(buf)?, B::decode(buf)?, C::decode(buf)?, D::decode(buf)?))
    }

    fn wire_size(&self) -> usize {
        self.0.wire_size() + self.1.wire_size() + self.2.wire_size() + self.3.wire_size()
    }
}

/// A wire value encoded **once** and shared by reference: clones share
/// the pre-built buffer, and every [`Wire::encode`] is a `memcpy` of
/// those bytes instead of a re-walk of the value.
///
/// Broadcast payloads are the motivating case: a stats-refresh flush
/// ships the identical `StatsDelta` to N−1 peers, and the naive path
/// paid N−1 deep clones plus N−1 full encodings. Wrapping the payload in
/// `Shared` pays the encoding exactly once at the sender, and its
/// [`Wire::wire_size`] is the buffer's length.
#[derive(Clone, Debug)]
pub struct Shared<T> {
    value: Arc<T>,
    bytes: Bytes,
}

impl<T: Wire> Shared<T> {
    /// Wraps a value, encoding it once.
    pub fn new(value: T) -> Shared<T> {
        let mut buf = BytesMut::with_capacity(value.wire_size());
        value.encode(&mut buf);
        Shared { value: Arc::new(value), bytes: buf.freeze() }
    }

    /// The wrapped value.
    pub fn get(&self) -> &T {
        &self.value
    }
}

impl<T: Wire> Wire for Shared<T> {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_slice(&self.bytes);
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        // The receiver re-encodes once to restore the shared buffer; its
        // own re-broadcasts then clone bytes again instead of re-walking.
        Ok(Shared::new(T::decode(buf)?))
    }

    fn wire_size(&self) -> usize {
        self.bytes.len()
    }
}

// ---- batched writes with shared payloads ------------------------------

/// What one batched write does at the responsible peer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchVerb {
    /// Store the payload at index `item` of the batch's item table.
    Insert {
        /// Index into [`OpBatch::items`].
        item: u32,
    },
    /// Remove the entry with logical identity `ident` (tombstoning,
    /// index maintenance for updates).
    Delete {
        /// Logical identity of the entry to remove.
        ident: u64,
    },
}

/// One batched write op: placement key, version, verb.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchOp {
    /// Placement key (one of the indexes the item lives under).
    pub key: u64,
    /// Version for loose-consistency updates (0 = initial insert).
    pub version: u64,
    /// Insert or delete.
    pub verb: BatchVerb,
}

/// A batch of write ops with **shared payloads**: each distinct item is
/// carried once in `items`, and the ops reference it by index.
///
/// UniStore's triple store fans every logical write out into its full
/// index set (`TripleKeys::all()` is up to a 7-way copy: OID, A#v, v,
/// plus q-gram keys); shipping each copy in its own message pays per-key
/// routing, per-key wire overhead and 7 full payload encodings. An
/// `OpBatch` ships the payload once per *message* with compact key tags
/// (`ops`) instead, and [`OpBatch::subset`] lets a routing step re-group
/// the batch per next hop so it only forks where responsibility actually
/// diverges.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct OpBatch<I> {
    /// Distinct payloads, shipped once each.
    pub items: Vec<I>,
    /// The write ops, referencing `items` by index.
    pub ops: Vec<BatchOp>,
}

impl<I> OpBatch<I> {
    /// An empty batch.
    pub fn new() -> OpBatch<I> {
        OpBatch { items: Vec::new(), ops: Vec::new() }
    }

    /// Adds a payload to the item table, returning its index for
    /// [`OpBatch::push_insert`]. Callers dedup (one entry per logical
    /// item, however many index keys reference it).
    pub fn add_item(&mut self, item: I) -> u32 {
        self.items.push(item);
        (self.items.len() - 1) as u32
    }

    /// Appends an insert of item `item` under `key`.
    pub fn push_insert(&mut self, key: u64, item: u32, version: u64) {
        debug_assert!((item as usize) < self.items.len(), "item index out of range");
        self.ops.push(BatchOp { key, version, verb: BatchVerb::Insert { item } });
    }

    /// Appends a delete of identity `ident` under `key`.
    pub fn push_delete(&mut self, key: u64, ident: u64, version: u64) {
        self.ops.push(BatchOp { key, version, verb: BatchVerb::Delete { ident } });
    }

    /// Number of ops in the batch.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the batch carries no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The payload an insert op references (`None` for deletes).
    pub fn item_of(&self, op: &BatchOp) -> Option<&I> {
        match op.verb {
            BatchVerb::Insert { item } => self.items.get(item as usize),
            BatchVerb::Delete { .. } => None,
        }
    }
}

impl<I: Clone> OpBatch<I> {
    /// Sub-batch of the ops at `indices`, re-indexed so only the
    /// payloads the sub-batch references are carried — the per-hop
    /// re-grouping step of the batched write pipeline.
    pub fn subset(&self, indices: &[usize]) -> OpBatch<I> {
        let (items, ops) = subset_shared(
            &self.items,
            &self.ops,
            indices,
            |op| match op.verb {
                BatchVerb::Insert { item } => Some(item),
                BatchVerb::Delete { .. } => None,
            },
            |op, item| op.verb = BatchVerb::Insert { item },
        );
        OpBatch { items, ops }
    }
}

/// Re-groups a shared-payload batch: clones the ops at `indices` and
/// re-indexes the item table so only payloads the sub-batch references
/// are carried. Generic over the op representation — `item_ref` names
/// the payload an op references (`None` for deletes), `rebind` rewrites
/// the reference after remapping — so every backend's per-hop re-split
/// shares this one implementation.
pub fn subset_shared<I: Clone, Op: Copy>(
    items: &[I],
    ops: &[Op],
    indices: &[usize],
    item_ref: impl Fn(&Op) -> Option<u32>,
    mut rebind: impl FnMut(&mut Op, u32),
) -> (Vec<I>, Vec<Op>) {
    let mut remap: Vec<Option<u32>> = vec![None; items.len()];
    let mut sub_items: Vec<I> = Vec::new();
    let mut sub_ops: Vec<Op> = Vec::with_capacity(indices.len());
    for &i in indices {
        let mut op = ops[i];
        if let Some(item) = item_ref(&op) {
            let slot = &mut remap[item as usize];
            let new = match *slot {
                Some(n) => n,
                None => {
                    sub_items.push(items[item as usize].clone());
                    let n = (sub_items.len() - 1) as u32;
                    *slot = Some(n);
                    n
                }
            };
            rebind(&mut op, new);
        }
        sub_ops.push(op);
    }
    (sub_items, sub_ops)
}

/// Flag bits of the compact [`BatchOp`] encoding.
mod op_flags {
    /// The op is a delete (insert otherwise).
    pub const DELETE: u8 = 1;
    /// A nonzero version follows (initial inserts omit it).
    pub const VERSIONED: u8 = 2;
    /// All bits an encoder may set.
    pub const ALL: u8 = DELETE | VERSIONED;
}

// Op tags are the dominant freight of a large batch — every op crosses
// every edge of its route — so the encoding is deliberately tight: one
// flag byte, a fixed 8-byte key (index keys are high-entropy, a varint
// would average 9–10 bytes), the small varint payload reference, and
// the version only when nonzero (initial inserts, the bulk-ingest
// common case, are version 0).
impl BatchOp {
    /// Encodes the compact op format with backend-specific `extra`
    /// flag bits folded into the flag byte. Bits 0–1 belong to this
    /// type; `extra` must stay above them (Chord folds its bucket-index
    /// bit in this way so both backends share one codec).
    pub fn encode_flagged(&self, extra: u8, buf: &mut BytesMut) {
        debug_assert!(extra & op_flags::ALL == 0, "extra flags collide with BatchOp's");
        let mut flags = extra;
        if matches!(self.verb, BatchVerb::Delete { .. }) {
            flags |= op_flags::DELETE;
        }
        if self.version != 0 {
            flags |= op_flags::VERSIONED;
        }
        buf.put_u8(flags);
        buf.put_u64(self.key);
        match self.verb {
            BatchVerb::Insert { item } => item.encode(buf),
            BatchVerb::Delete { ident } => ident.encode(buf),
        }
        if self.version != 0 {
            self.version.encode(buf);
        }
    }

    /// Decodes the compact op format, returning the op plus whichever
    /// of the caller's `extra_mask` flag bits were set. Flag bits
    /// neither known to this type nor in `extra_mask` reject the input.
    pub fn decode_flagged(buf: &mut Bytes, extra_mask: u8) -> Result<(Self, u8), WireError> {
        let flags = u8::decode(buf)?;
        if flags & !(op_flags::ALL | extra_mask) != 0 {
            return Err(WireError::BadTag(flags));
        }
        if buf.remaining() < 8 {
            return Err(WireError::UnexpectedEof);
        }
        let key = buf.get_u64();
        let verb = match flags & op_flags::DELETE != 0 {
            false => BatchVerb::Insert { item: Wire::decode(buf)? },
            true => BatchVerb::Delete { ident: Wire::decode(buf)? },
        };
        let version = match flags & op_flags::VERSIONED != 0 {
            true => u64::decode(buf)?,
            false => 0,
        };
        Ok((BatchOp { key, version, verb }, flags & extra_mask))
    }
}

impl Wire for BatchOp {
    fn encode(&self, buf: &mut BytesMut) {
        self.encode_flagged(0, buf);
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(BatchOp::decode_flagged(buf, 0)?.0)
    }

    fn wire_size(&self) -> usize {
        let payload = match self.verb {
            BatchVerb::Insert { item } => item.wire_size(),
            BatchVerb::Delete { ident } => ident.wire_size(),
        };
        1 + 8 + payload + if self.version != 0 { self.version.wire_size() } else { 0 }
    }
}

impl<I: Item> Wire for OpBatch<I> {
    fn encode(&self, buf: &mut BytesMut) {
        // One up-front reservation: batches are the hot ingest payload.
        buf.reserve(self.wire_size());
        I::encode_list(&self.items, buf);
        self.ops.encode(buf);
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let items = I::decode_list(buf)?;
        let ops: Vec<BatchOp> = Wire::decode(buf)?;
        // Reject dangling payload references up front so handlers can
        // index the item table without per-op bounds checks.
        for op in &ops {
            if let BatchVerb::Insert { item } = op.verb {
                if item as usize >= items.len() {
                    return Err(WireError::BadLength(item as u64));
                }
            }
        }
        Ok(OpBatch { items, ops })
    }

    fn wire_size(&self) -> usize {
        I::list_wire_size(&self.items) + self.ops.wire_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip<T: Wire + PartialEq + fmt::Debug>(v: T) {
        let bytes = v.to_bytes();
        assert_eq!(bytes.len(), v.wire_size(), "wire_size must match encoding");
        let back = T::from_bytes(&bytes).expect("decode");
        assert_eq!(back, v);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u64);
        roundtrip(u64::MAX);
        roundtrip(300u32);
        roundtrip(7u16);
        roundtrip(255u8);
        roundtrip(true);
        roundtrip(false);
        roundtrip(-1i64);
        roundtrip(i64::MIN);
        roundtrip(3.25f64);
        roundtrip(String::from("universal storage"));
        roundtrip(String::new());
        roundtrip::<Arc<str>>(Arc::from("pgrid"));
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Vec::<u64>::new());
        roundtrip(Some(42u64));
        roundtrip(None::<u64>);
        roundtrip((1u64, String::from("x")));
        roundtrip((1u64, 2u64, String::from("y")));
    }

    #[test]
    fn varint_sizes() {
        assert_eq!(varint_size(0), 1);
        assert_eq!(varint_size(127), 1);
        assert_eq!(varint_size(128), 2);
        assert_eq!(varint_size(u64::MAX), 10);
    }

    #[test]
    fn truncated_input_errors() {
        let bytes = 123456789u64.to_bytes();
        let mut cut = bytes.slice(0..bytes.len() - 1);
        assert_eq!(u64::decode(&mut cut), Err(WireError::UnexpectedEof));
    }

    #[test]
    fn trailing_bytes_rejected_by_from_bytes() {
        let mut buf = BytesMut::new();
        5u64.encode(&mut buf);
        buf.put_u8(0xFF);
        let b = buf.freeze();
        assert!(matches!(u64::from_bytes(&b), Err(WireError::BadLength(_))));
    }

    #[test]
    fn bool_bad_tag() {
        let b = Bytes::from_static(&[7]);
        assert_eq!(bool::from_bytes(&b), Err(WireError::BadTag(7)));
    }

    #[test]
    fn huge_length_rejected() {
        let mut buf = BytesMut::new();
        put_varint(&mut buf, u64::MAX);
        let b = buf.freeze();
        assert!(matches!(String::from_bytes(&b), Err(WireError::BadLength(_))));
    }

    #[test]
    fn shared_encodes_identically_to_inner() {
        let v = vec![7u64, 8, 9];
        let s = Shared::new(v.clone());
        assert_eq!(s.to_bytes(), v.to_bytes(), "wrapper is wire-transparent");
        assert_eq!(s.wire_size(), v.wire_size());
        let back = Shared::<Vec<u64>>::from_bytes(&s.to_bytes()).unwrap();
        assert_eq!(back.get(), &v);
        // Clones share the buffer — no re-encode, no deep copy.
        let c = s.clone();
        assert_eq!(c.bytes.as_ptr(), s.bytes.as_ptr());
    }

    /// Strings as batch payloads, on the default list hooks.
    impl Item for String {
        fn ident(&self) -> u64 {
            crate::fxhash::hash_bytes(self.as_bytes())
        }
    }

    fn sample_batch() -> OpBatch<String> {
        let mut b = OpBatch::new();
        let a = b.add_item("alpha".to_string());
        let z = b.add_item("zeta".to_string());
        b.push_insert(10, a, 0);
        b.push_insert(20, a, 0);
        b.push_insert(30, z, 2);
        b.push_delete(40, 0xDEAD, 3);
        b
    }

    #[test]
    fn op_batch_roundtrip() {
        let b = sample_batch();
        let bytes = b.to_bytes();
        assert_eq!(bytes.len(), b.wire_size());
        assert_eq!(OpBatch::<String>::from_bytes(&bytes).unwrap(), b);
        let empty: OpBatch<String> = OpBatch::new();
        assert!(empty.is_empty());
        roundtrip(empty);
    }

    #[test]
    fn op_batch_shares_payload_bytes() {
        // Two ops referencing one item must not double the payload.
        let mut one = OpBatch::new();
        let i = one.add_item("a-reasonably-long-payload".to_string());
        one.push_insert(1, i, 0);
        let mut two = one.clone();
        two.push_insert(2, i, 0);
        let op_size =
            BatchOp { key: 2, version: 0, verb: BatchVerb::Insert { item: i } }.wire_size();
        assert_eq!(two.wire_size(), one.wire_size() + op_size, "second op adds only a key tag");
    }

    #[test]
    fn op_batch_subset_reindexes_items() {
        let b = sample_batch();
        // Ops 2 and 3 reference only "zeta" (and a delete).
        let sub = b.subset(&[2, 3]);
        assert_eq!(sub.items, vec!["zeta".to_string()], "unreferenced payloads dropped");
        assert_eq!(sub.ops.len(), 2);
        assert_eq!(sub.ops[0].verb, BatchVerb::Insert { item: 0 }, "index remapped");
        assert_eq!(sub.ops[1].verb, BatchVerb::Delete { ident: 0xDEAD });
        // A subset referencing one item twice carries it once.
        let sub = b.subset(&[0, 1]);
        assert_eq!(sub.items.len(), 1);
        assert_eq!(sub.ops[0].verb, BatchVerb::Insert { item: 0 });
        assert_eq!(sub.ops[1].verb, BatchVerb::Insert { item: 0 });
    }

    #[test]
    fn op_batch_rejects_dangling_item_reference() {
        let mut b: OpBatch<String> = OpBatch::new();
        b.ops.push(BatchOp { key: 1, version: 0, verb: BatchVerb::Insert { item: 5 } });
        let bytes = b.to_bytes();
        assert!(matches!(OpBatch::<String>::from_bytes(&bytes), Err(WireError::BadLength(5))));
    }

    #[test]
    fn put_list_matches_vec_encoding() {
        let v = vec![1u64, 200, 30000, 4];
        let mut a = BytesMut::new();
        put_list(&mut a, &v);
        assert_eq!(a.freeze(), v.to_bytes());
        let empty: Vec<u64> = Vec::new();
        let mut b = BytesMut::new();
        put_list(&mut b, &empty);
        assert_eq!(b.freeze(), empty.to_bytes());
    }

    proptest! {
        #[test]
        fn prop_u64_roundtrip(v: u64) { roundtrip(v); }

        #[test]
        fn prop_i64_roundtrip(v: i64) { roundtrip(v); }

        #[test]
        fn prop_string_roundtrip(s in ".{0,64}") { roundtrip(s); }

        #[test]
        fn prop_vec_roundtrip(v in proptest::collection::vec(any::<u64>(), 0..32)) {
            roundtrip(v);
        }
    }
}
