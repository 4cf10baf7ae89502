//! The contract for values storable in an overlay.
//!
//! Both overlays (`unistore-pgrid` and the `unistore-chord` baseline)
//! store opaque items; they need a wire encoding (honest message sizing)
//! and a *logical identity* so that updates supersede earlier versions of
//! the same logical entry instead of accumulating duplicates.

use bytes::{Bytes, BytesMut};

use crate::keys::Key;
use crate::wire::{list_size, put_list, Wire, WireError};

/// A value storable in a DHT overlay.
pub trait Item: Wire + Clone + std::fmt::Debug {
    /// Logical identity: two items with equal `ident` (under the same
    /// key) are versions of the same entry; an insert with a newer
    /// version replaces the older one.
    fn ident(&self) -> u64;

    /// Join-key hash of the field addressed by `field`, for semi-join
    /// filtering at the data ([`crate::bloom::ItemFilter`]). The
    /// discriminant values and the hash scheme are defined by the item
    /// type and must match what the query layer inserts into the filter.
    /// `None` (the default) means the item exposes no such field; the
    /// filter then conservatively keeps it.
    fn field_hash(&self, _field: u8) -> Option<u64> {
        None
    }

    /// Appends this item's index keys to `keys` in slot order: an
    /// insert that names the item by slot `s` is stored under the
    /// `s`-th. A write batch ships the slot of each key it derived from
    /// its payload instead of the 8-byte key
    /// ([`crate::wire::BatchVerb::Insert`]), and the receiver derives
    /// the keys of each payload it decoded once. Slots are the item
    /// type's to number; the default has none, so an op naming such an
    /// item by slot is rejected on decode.
    fn slot_keys(&self, _keys: &mut Vec<Key>) {}

    /// The index key at `slot` of [`Item::slot_keys`]; `None` past the
    /// last.
    fn slot_key(&self, slot: u32) -> Option<Key> {
        let mut keys = Vec::new();
        self.slot_keys(&mut keys);
        keys.get(usize::try_from(slot).ok()?).copied()
    }

    /// Appends a count-prefixed list of items. Every item table on the
    /// wire goes through here and its two siblings — lookup and range
    /// replies on both backends, the payloads of a write batch — so an
    /// item type whose neighbours in a list share bytes can ship them
    /// once. The default is `Vec<Self>`'s encoding exactly; an override
    /// replaces all three hooks together.
    fn encode_list(items: &[Self], buf: &mut BytesMut) {
        put_list(buf, items);
    }

    /// Decodes a list written by [`Item::encode_list`].
    fn decode_list(buf: &mut Bytes) -> Result<Vec<Self>, WireError> {
        Vec::decode(buf)
    }

    /// Number of bytes [`Item::encode_list`] would write, by arithmetic.
    fn list_wire_size(items: &[Self]) -> usize {
        list_size(items)
    }
}

/// The simplest possible item, used by overlay-level tests and benches:
/// the payload *is* the identity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RawItem(pub u64);

impl Wire for RawItem {
    fn encode(&self, buf: &mut bytes::BytesMut) {
        self.0.encode(buf);
    }

    fn decode(buf: &mut bytes::Bytes) -> Result<Self, crate::wire::WireError> {
        Ok(RawItem(u64::decode(buf)?))
    }

    fn wire_size(&self) -> usize {
        self.0.wire_size()
    }
}

impl Item for RawItem {
    fn ident(&self) -> u64 {
        self.0
    }
}

/// Dev-only support shared by the overlay crates' test modules (one
/// definition instead of a copy per crate). Compiled unconditionally
/// because `#[cfg(test)]` items are invisible across crates; nothing
/// outside `#[cfg(test)]` code refers to it.
pub mod testing {
    use super::{Item, Wire};
    use crate::fxhash::mix64;

    thread_local! {
        /// [`Tagged::field_hash`] calls on this thread.
        static FIELD_HASHES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    /// `Tagged::field_hash` calls made on this thread while `f` runs.
    pub fn field_hashes_during(f: impl FnOnce()) -> usize {
        FIELD_HASHES.with(|n| n.set(0));
        f();
        FIELD_HASHES.with(|n| n.get())
    }

    /// An item whose identity (`id`) is decoupled from its payload
    /// (`tag`), with two hashable fields: field 0 is the tag, field 1
    /// the id — absent (`None`) on every third tag — and every other
    /// field is absent on all items.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct Tagged {
        /// Logical identity.
        pub id: u64,
        /// Payload.
        pub tag: u64,
    }

    impl Wire for Tagged {
        fn encode(&self, buf: &mut bytes::BytesMut) {
            self.id.encode(buf);
            self.tag.encode(buf);
        }

        fn decode(buf: &mut bytes::Bytes) -> Result<Self, crate::wire::WireError> {
            Ok(Tagged { id: u64::decode(buf)?, tag: u64::decode(buf)? })
        }

        fn wire_size(&self) -> usize {
            self.id.wire_size() + self.tag.wire_size()
        }
    }

    impl Item for Tagged {
        fn ident(&self) -> u64 {
            self.id
        }

        /// Twenty slots, the tag plus the slot.
        fn slot_keys(&self, keys: &mut Vec<u64>) {
            keys.extend((0..20).map(|slot| self.tag.wrapping_add(slot)));
        }

        fn field_hash(&self, field: u8) -> Option<u64> {
            FIELD_HASHES.with(|n| n.set(n.get() + 1));
            match field {
                0 => Some(mix64(self.tag)),
                1 if self.tag % 3 != 0 => Some(mix64(self.id)),
                _ => None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_item_ident_is_payload() {
        assert_eq!(RawItem(42).ident(), 42);
    }

    #[test]
    fn raw_item_wire_roundtrip() {
        let r = RawItem(123456);
        let b = r.to_bytes();
        assert_eq!(RawItem::from_bytes(&b).unwrap(), r);
        assert_eq!(b.len(), r.wire_size());
    }

    #[test]
    fn default_list_hooks_are_vec_bytes() {
        for items in [vec![], vec![RawItem(1)], vec![RawItem(7), RawItem(300), RawItem(u64::MAX)]] {
            let mut buf = BytesMut::new();
            RawItem::encode_list(&items, &mut buf);
            let bytes = buf.freeze();
            assert_eq!(bytes, items.to_bytes(), "byte-for-byte the Vec encoding");
            assert_eq!(RawItem::list_wire_size(&items), bytes.len());
            assert_eq!(RawItem::decode_list(&mut bytes.clone()).unwrap(), items);
        }
    }
}
