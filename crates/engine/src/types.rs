//! Internal key encoding and sequence numbers (LevelDB/RocksDB layout).
//!
//! An *internal key* is `user_key ++ fixed64(seq << 8 | type)`. Internal keys
//! sort by user key ascending, then by sequence number **descending** (newer
//! first), then by type descending — achieved by comparing the packed
//! trailer in reverse.

use std::cmp::Ordering;

/// Monotonic operation sequence number (56 bits usable).
pub type SequenceNumber = u64;

/// Largest representable sequence number.
pub const MAX_SEQUENCE: SequenceNumber = (1 << 56) - 1;

/// Kind of an entry in the LSM structure.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum ValueType {
    /// A deletion tombstone.
    Deletion = 0,
    /// A put of a value.
    Value = 1,
}

impl ValueType {
    /// Decodes from the trailer byte.
    ///
    /// # Panics
    ///
    /// Panics on an unknown tag (corruption should be caught earlier).
    pub fn from_u8(v: u8) -> ValueType {
        match v {
            0 => ValueType::Deletion,
            1 => ValueType::Value,
            _ => panic!("unknown value type tag {v}"),
        }
    }
}

/// Packs `(seq, type)` into the 8-byte internal-key trailer.
pub fn pack_seq_type(seq: SequenceNumber, t: ValueType) -> u64 {
    debug_assert!(seq <= MAX_SEQUENCE);
    (seq << 8) | t as u64
}

/// Builds an internal key from parts.
pub fn make_internal_key(user_key: &[u8], seq: SequenceNumber, t: ValueType) -> Vec<u8> {
    let mut out = Vec::with_capacity(user_key.len() + 8);
    out.extend_from_slice(user_key);
    out.extend_from_slice(&pack_seq_type(seq, t).to_le_bytes());
    out
}

/// Splits an internal key into `(user_key, seq, type)`.
///
/// # Panics
///
/// Panics if `ikey` is shorter than the 8-byte trailer.
pub fn parse_internal_key(ikey: &[u8]) -> (&[u8], SequenceNumber, ValueType) {
    assert!(
        ikey.len() >= 8,
        "internal key too short: {} bytes",
        ikey.len()
    );
    let split = ikey.len() - 8;
    let tag = u64::from_le_bytes(ikey[split..].try_into().unwrap());
    (
        &ikey[..split],
        tag >> 8,
        ValueType::from_u8((tag & 0xff) as u8),
    )
}

/// The user-key prefix of an internal key.
pub fn user_key(ikey: &[u8]) -> &[u8] {
    &ikey[..ikey.len() - 8]
}

/// Total order over internal keys: user key ascending, then sequence
/// descending (so the freshest version of a key sorts first).
pub fn compare_internal(a: &[u8], b: &[u8]) -> Ordering {
    let (ua, sa, ta) = parse_internal_key(a);
    let (ub, sb, tb) = parse_internal_key(b);
    compare_keys(ua, ub)
        .then(sb.cmp(&sa))
        .then((tb as u8).cmp(&(ta as u8)))
}

/// `a.cmp(b)` for byte strings, eight bytes at a time and inline: a lookup
/// compares short user keys dozens of times, and a call into the C
/// library's `memcmp` costs more than such a compare does.
#[inline]
pub(crate) fn compare_keys(a: &[u8], b: &[u8]) -> Ordering {
    let common = a.len().min(b.len());
    let (mut wa, mut wb) = (a[..common].chunks_exact(8), b[..common].chunks_exact(8));
    for (x, y) in (&mut wa).zip(&mut wb) {
        let x = u64::from_be_bytes(x.try_into().expect("eight bytes"));
        let y = u64::from_be_bytes(y.try_into().expect("eight bytes"));
        if x != y {
            return x.cmp(&y);
        }
    }
    for (x, y) in wa.remainder().iter().zip(wb.remainder()) {
        if x != y {
            return x.cmp(y);
        }
    }
    a.len().cmp(&b.len())
}

/// A key buffer that lives where its owner does — on the stack for a point
/// lookup — while the key fits 64 bytes, and on the heap beyond. A block's
/// entries are parsed into one, each key rebuilt from the one before it.
pub(crate) type KeyBuf = xlsm_sim::few::Few<u8, 64>;

/// A lookup key: the internal key that sorts *before* every entry for
/// `user_key` with sequence ≤ `snapshot` would... precisely, seeking to this
/// key in a structure ordered by [`compare_internal`] lands on the newest
/// visible version.
pub(crate) fn lookup_key(user_key: &[u8], snapshot: SequenceNumber) -> KeyBuf {
    let mut key = KeyBuf::default();
    key.extend_from_slice(user_key);
    key.extend_from_slice(&pack_seq_type(snapshot, ValueType::Value).to_le_bytes());
    key
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// `compare_keys` orders like the slice order, on keys that share
        /// prefixes of every length.
        #[test]
        fn compare_keys_is_the_slice_order(
            prefix in prop::collection::vec(any::<u8>(), 0..20),
            a in prop::collection::vec(0u8..3, 0..12),
            b in prop::collection::vec(0u8..3, 0..12),
        ) {
            let (a, b) = ([&prefix[..], &a].concat(), [&prefix[..], &b].concat());
            prop_assert_eq!(compare_keys(&a, &b), a.cmp(&b));
            prop_assert_eq!(compare_keys(&b, &a), b.cmp(&a));
            prop_assert_eq!(compare_keys(&a, &a), std::cmp::Ordering::Equal);
        }
    }

    #[test]
    fn pack_roundtrip() {
        let ik = make_internal_key(b"apple", 42, ValueType::Value);
        let (uk, seq, t) = parse_internal_key(&ik);
        assert_eq!(uk, b"apple");
        assert_eq!(seq, 42);
        assert_eq!(t, ValueType::Value);
    }

    #[test]
    fn ordering_user_key_dominates() {
        let a = make_internal_key(b"a", 100, ValueType::Value);
        let b = make_internal_key(b"b", 1, ValueType::Value);
        assert_eq!(compare_internal(&a, &b), Ordering::Less);
    }

    #[test]
    fn ordering_newer_seq_first() {
        let new = make_internal_key(b"k", 10, ValueType::Value);
        let old = make_internal_key(b"k", 5, ValueType::Value);
        assert_eq!(compare_internal(&new, &old), Ordering::Less);
    }

    #[test]
    fn lookup_key_sees_visible_versions() {
        // Seeking lookup(k, snapshot=7) must land at seq 7, skipping seq 9.
        let lookup = lookup_key(b"k", 7);
        let v9 = make_internal_key(b"k", 9, ValueType::Value);
        let v7 = make_internal_key(b"k", 7, ValueType::Deletion);
        let v3 = make_internal_key(b"k", 3, ValueType::Value);
        assert_eq!(compare_internal(&v9, &lookup), Ordering::Less);
        // lookup(7, Value=1) vs v7(7, Deletion=0): same seq, type desc ⇒
        // Value sorts before Deletion; lookup ≤ both visible entries.
        assert_eq!(compare_internal(&lookup, &v7), Ordering::Less);
        assert_eq!(compare_internal(&lookup, &v3), Ordering::Less);
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn parse_short_key_panics() {
        parse_internal_key(b"ab");
    }

    #[test]
    fn value_type_tags() {
        assert_eq!(ValueType::from_u8(0), ValueType::Deletion);
        assert_eq!(ValueType::from_u8(1), ValueType::Value);
    }
}
