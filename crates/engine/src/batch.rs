//! Write batches: the atomic unit of the write path and the WAL payload.
//!
//! Encoding (LevelDB-compatible in spirit):
//! `[sequence u64][count u32]` then per op `[tag u8][key][value?]` with
//! length-prefixed slices.
//!
//! When [`WriteBatch::enable_protection`] is on, a per-entry checksum
//! sidecar ([`crate::integrity`]) travels with the batch in memory — it is
//! *not* part of the serialized representation (the WAL has its own record
//! CRCs) but is carried verbatim through group-commit merges and verified
//! at every handoff down to the memtable insert.

use crate::coding::*;
use crate::error::{DbError, DbResult};
use crate::integrity;
use crate::memtable::MemTable;
use crate::types::{SequenceNumber, ValueType};

const HEADER: usize = 12;

/// A batch of updates applied atomically.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WriteBatch {
    rep: Vec<u8>,
    count: u32,
    /// Per-entry protection values, truncated to `prot_width` bytes each
    /// (empty when protection is off).
    prot: Vec<u64>,
    /// Protection width in bytes (0 = off).
    prot_width: usize,
}

impl Default for WriteBatch {
    fn default() -> Self {
        Self::new()
    }
}

impl WriteBatch {
    /// An empty batch.
    pub fn new() -> WriteBatch {
        WriteBatch {
            rep: vec![0; HEADER],
            count: 0,
            prot: Vec::new(),
            prot_width: 0,
        }
    }

    /// An empty batch that [`WriteBatch::put`] of `key` and `value` fills
    /// exactly, so the put never grows it.
    pub fn for_put(key: &[u8], value: &[u8]) -> WriteBatch {
        let mut rep = Vec::with_capacity(HEADER + put_size(key, value));
        rep.resize(HEADER, 0);
        WriteBatch {
            rep,
            count: 0,
            prot: Vec::new(),
            prot_width: 0,
        }
    }

    /// Queues a put.
    pub fn put(&mut self, key: &[u8], value: &[u8]) {
        self.rep.push(ValueType::Value as u8);
        put_length_prefixed(&mut self.rep, key);
        put_length_prefixed(&mut self.rep, value);
        self.count += 1;
        if self.prot_width > 0 {
            self.prot.push(integrity::truncate_protection(
                integrity::entry_protection(ValueType::Value, key, value),
                self.prot_width,
            ));
        }
    }

    /// Queues a deletion.
    pub fn delete(&mut self, key: &[u8]) {
        self.rep.push(ValueType::Deletion as u8);
        put_length_prefixed(&mut self.rep, key);
        self.count += 1;
        if self.prot_width > 0 {
            self.prot.push(integrity::truncate_protection(
                integrity::entry_protection(ValueType::Deletion, key, &[]),
                self.prot_width,
            ));
        }
    }

    /// Empties the batch, protection off, with room for a put of `key` and
    /// `value`: a reused batch grows only for a put larger than any before.
    pub(crate) fn reset_for_put(&mut self, key: &[u8], value: &[u8]) {
        self.clear();
        self.enable_protection(0);
        self.rep.reserve(put_size(key, value));
    }

    /// Bytes the batch holds room for.
    pub(crate) fn capacity(&self) -> usize {
        self.rep.capacity()
    }

    /// Empties the batch (protection width is retained).
    pub fn clear(&mut self) {
        self.rep.truncate(HEADER);
        self.rep.fill(0);
        self.count = 0;
        self.prot.clear();
    }

    /// Number of operations queued.
    pub fn count(&self) -> u32 {
        self.count
    }

    /// Whether the batch holds no operations.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Size of the serialized representation in bytes.
    pub fn byte_size(&self) -> usize {
        self.rep.len()
    }

    /// Stamps the starting sequence number (done by the group leader).
    /// Protection is sequence-independent, so no sidecar recompute happens.
    pub fn set_sequence(&mut self, seq: SequenceNumber) {
        self.rep[0..8].copy_from_slice(&seq.to_le_bytes());
        self.rep[8..12].copy_from_slice(&self.count.to_le_bytes());
    }

    /// The starting sequence number.
    pub fn sequence(&self) -> SequenceNumber {
        u64::from_le_bytes(self.rep[0..8].try_into().unwrap())
    }

    /// Serialized bytes (WAL payload).
    pub fn data(&self) -> &[u8] {
        &self.rep
    }

    /// The configured protection width in bytes (0 = off).
    pub fn protection_width(&self) -> usize {
        self.prot_width
    }

    /// Switches per-entry protection to `width` bytes, (re)computing the
    /// sidecar for already-queued operations when the width changes.
    /// `width` must be in [`integrity::VALID_PROTECTION_WIDTHS`]; `0`
    /// disables protection and drops the sidecar.
    pub fn enable_protection(&mut self, width: usize) {
        debug_assert!(integrity::VALID_PROTECTION_WIDTHS.contains(&width));
        if width == self.prot_width {
            return;
        }
        self.prot_width = width;
        self.prot.clear();
        if width == 0 {
            return;
        }
        // Iterate the serialized ops; an undecodable batch gets an empty
        // sidecar and fails verification downstream instead of panicking.
        let mut prot = Vec::with_capacity(self.count() as usize);
        for op in self.iter() {
            let Ok((t, key, value)) = op else { break };
            prot.push(integrity::truncate_protection(
                integrity::entry_protection(t, key, value),
                width,
            ));
        }
        self.prot = prot;
    }

    /// Verifies every queued entry against the protection sidecar —
    /// `layer` names the handoff for the error message. No-op when
    /// protection is off.
    ///
    /// # Errors
    ///
    /// [`DbError::Corruption`] on the first mismatching (or missing) entry.
    pub fn verify_protection(&self, layer: &str) -> DbResult<()> {
        if self.prot_width == 0 {
            return Ok(());
        }
        let mut n = 0usize;
        for (i, op) in self.iter().enumerate() {
            let (t, key, value) = op?;
            let Some(&stored) = self.prot.get(i) else {
                return Err(DbError::corruption(format!(
                    "per-key protection missing at {layer} (entry {i})"
                )));
            };
            integrity::verify_entry(stored, self.prot_width, t, key, value, layer, i)?;
            n += 1;
        }
        if n != self.prot.len() {
            return Err(DbError::corruption(format!(
                "per-key protection count mismatch at {layer}: {} values for {n} entries",
                self.prot.len()
            )));
        }
        Ok(())
    }

    /// Verifies the `index`-th entry (already decoded as `(t, key, value)`)
    /// against the sidecar. No-op when protection is off. Used by the
    /// concurrent memtable-insert path, which decodes entries itself.
    ///
    /// # Errors
    ///
    /// [`DbError::Corruption`] on mismatch.
    pub fn verify_entry(
        &self,
        index: usize,
        t: ValueType,
        key: &[u8],
        value: &[u8],
        layer: &str,
    ) -> DbResult<()> {
        if self.prot_width == 0 {
            return Ok(());
        }
        let Some(&stored) = self.prot.get(index) else {
            return Err(DbError::corruption(format!(
                "per-key protection missing at {layer} (entry {index})"
            )));
        };
        integrity::verify_entry(stored, self.prot_width, t, key, value, layer, index)
    }

    /// Reconstructs a batch from serialized bytes (WAL replay). Protection
    /// starts disabled; the replay path re-enables it after the WAL record
    /// CRC has vouched for the bytes.
    ///
    /// # Errors
    ///
    /// [`DbError::Corruption`] if the payload is malformed.
    pub fn from_data(data: &[u8]) -> DbResult<WriteBatch> {
        if data.len() < HEADER {
            return Err(DbError::Corruption("batch shorter than header".into()));
        }
        let b = WriteBatch {
            rep: data.to_vec(),
            count: u32::from_le_bytes(data[8..12].try_into().unwrap()),
            prot: Vec::new(),
            prot_width: 0,
        };
        // Validate structure eagerly.
        let mut n = 0;
        for op in b.iter() {
            op?;
            n += 1;
        }
        if n != b.count {
            return Err(DbError::corruption(format!(
                "batch count mismatch: header {} actual {n}",
                b.count
            )));
        }
        Ok(b)
    }

    /// Iterates the operations as `(type, key, value)`.
    pub fn iter(&self) -> BatchIter<'_> {
        BatchIter {
            data: &self.rep,
            off: HEADER,
        }
    }

    /// Applies all operations to `mem`, assigning consecutive sequence
    /// numbers starting at the batch's stamped sequence. With protection
    /// enabled each entry is verified against its sidecar immediately
    /// before insertion — the final handoff of the protection chain.
    ///
    /// # Errors
    ///
    /// [`DbError::Corruption`] if the payload is malformed or an entry
    /// fails protection verification.
    pub fn apply_to(&self, mem: &MemTable) -> DbResult<()> {
        for ((i, op), seq) in self.iter().enumerate().zip(self.sequence()..) {
            let (t, key, value) = op?;
            self.verify_entry(i, t, key, value, "memtable insert")?;
            mem.add(seq, t, key, value);
        }
        Ok(())
    }

    /// Merges `other`'s operations into `self` (group commit). The
    /// protection sidecar is carried *verbatim* when widths match (so a
    /// corruption during the merge stays detectable) and recomputed at
    /// `self`'s width otherwise.
    pub fn append_batch(&mut self, other: &WriteBatch) {
        self.rep.extend_from_slice(&other.rep[HEADER..]);
        self.count += other.count;
        if self.prot_width == 0 {
            return;
        }
        if other.prot_width == self.prot_width {
            self.prot.extend_from_slice(&other.prot);
        } else {
            for op in other.iter() {
                let Ok((t, key, value)) = op else { break };
                self.prot.push(integrity::truncate_protection(
                    integrity::entry_protection(t, key, value),
                    self.prot_width,
                ));
            }
        }
    }
}

/// Bytes [`WriteBatch::put`] of `key` and `value` adds to a batch.
fn put_size(key: &[u8], value: &[u8]) -> usize {
    1 + length_prefixed_size(key) + length_prefixed_size(value)
}

/// Iterator over batch operations.
#[derive(Debug)]
pub struct BatchIter<'a> {
    data: &'a [u8],
    off: usize,
}

impl<'a> Iterator for BatchIter<'a> {
    type Item = DbResult<(ValueType, &'a [u8], &'a [u8])>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.off >= self.data.len() {
            return None;
        }
        let tag = self.data[self.off];
        self.off += 1;
        let t = match tag {
            0 => ValueType::Deletion,
            1 => ValueType::Value,
            _ => return Some(Err(DbError::corruption(format!("bad batch tag {tag}")))),
        };
        let Some(key) = get_length_prefixed(self.data, &mut self.off) else {
            return Some(Err(DbError::Corruption("bad batch key".into())));
        };
        let value = if t == ValueType::Value {
            match get_length_prefixed(self.data, &mut self.off) {
                Some(v) => v,
                None => return Some(Err(DbError::Corruption("bad batch value".into()))),
            }
        } else {
            &[]
        };
        Some(Ok((t, key, value)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An empty batch with `width`-byte per-entry protection on.
    fn protected(width: usize) -> WriteBatch {
        let mut b = WriteBatch::new();
        b.enable_protection(width);
        b
    }

    #[test]
    fn for_put_is_filled_exactly_by_its_put() {
        for (klen, vlen) in [(0, 0), (16, 1024), (127, 128), (128, 16_383), (3, 16_384)] {
            let (key, value) = (vec![7u8; klen], vec![9u8; vlen]);
            let mut b = WriteBatch::for_put(&key, &value);
            let cap = b.rep.capacity();
            b.put(&key, &value);
            assert_eq!(
                (b.rep.len(), b.rep.capacity()),
                (cap, cap),
                "{klen} + {vlen}"
            );
            let mut grown = WriteBatch::new();
            grown.put(&key, &value);
            assert_eq!(b, grown);
        }
    }

    #[test]
    fn put_delete_roundtrip() {
        let mut b = WriteBatch::new();
        b.put(b"a", b"1");
        b.delete(b"b");
        b.put(b"c", b"3");
        b.set_sequence(100);
        assert_eq!(b.count(), 3);
        assert_eq!(b.sequence(), 100);
        let ops: Vec<_> = b.iter().map(|o| o.unwrap()).collect();
        assert_eq!(
            ops,
            vec![
                (ValueType::Value, &b"a"[..], &b"1"[..]),
                (ValueType::Deletion, &b"b"[..], &b""[..]),
                (ValueType::Value, &b"c"[..], &b"3"[..]),
            ]
        );
    }

    #[test]
    fn serialization_roundtrip() {
        let mut b = WriteBatch::new();
        b.put(b"key", b"value");
        b.delete(b"gone");
        b.set_sequence(7);
        let decoded = WriteBatch::from_data(b.data()).unwrap();
        assert_eq!(decoded, b);
    }

    #[test]
    fn corrupt_data_rejected() {
        assert!(WriteBatch::from_data(b"short").is_err());
        let mut b = WriteBatch::new();
        b.put(b"k", b"v");
        b.set_sequence(1);
        let mut bytes = b.data().to_vec();
        bytes[HEADER] = 9; // bad tag
        assert!(WriteBatch::from_data(&bytes).is_err());
        // Count mismatch.
        let mut bytes2 = b.data().to_vec();
        bytes2[8] = 5;
        assert!(WriteBatch::from_data(&bytes2).is_err());
    }

    #[test]
    fn apply_to_memtable_assigns_sequences() {
        let mem = MemTable::new(0);
        let mut b = WriteBatch::new();
        b.put(b"x", b"1");
        b.put(b"x", b"2");
        b.set_sequence(10);
        b.apply_to(&mem).unwrap();
        // Sequence 11 (the second put) wins at the latest snapshot.
        assert_eq!(mem.get(b"x", 100).unwrap(), Some(Some(b"2".to_vec())));
        assert_eq!(mem.get(b"x", 10).unwrap(), Some(Some(b"1".to_vec())));
    }

    #[test]
    fn append_batch_groups() {
        let mut leader = WriteBatch::new();
        leader.put(b"a", b"1");
        let mut follower = WriteBatch::new();
        follower.delete(b"b");
        follower.put(b"c", b"2");
        leader.append_batch(&follower);
        leader.set_sequence(1);
        assert_eq!(leader.count(), 3);
        let mem = MemTable::new(0);
        leader.apply_to(&mem).unwrap();
        assert_eq!(mem.get(b"c", 100).unwrap(), Some(Some(b"2".to_vec())));
    }

    #[test]
    fn clear_resets() {
        let mut b = WriteBatch::new();
        b.put(b"a", b"1");
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.byte_size(), HEADER);
    }

    #[test]
    fn protection_sidecar_follows_operations() {
        for width in [1usize, 2, 4, 8] {
            let mut b = protected(width);
            b.put(b"a", b"1");
            b.delete(b"b");
            b.set_sequence(42);
            assert_eq!(b.protection_width(), width);
            b.verify_protection("unit test").unwrap();
        }
    }

    #[test]
    fn protection_survives_merge_and_restamp() {
        let mut leader = protected(8);
        leader.put(b"a", b"1");
        let mut follower = protected(8);
        follower.put(b"b", b"2");
        follower.delete(b"c");
        leader.append_batch(&follower);
        leader.set_sequence(99);
        leader.verify_protection("post-merge").unwrap();
        // Mixed widths: recomputed at the leader's width.
        let mut narrow = protected(2);
        narrow.put(b"d", b"4");
        leader.append_batch(&narrow);
        leader.verify_protection("post-mixed-merge").unwrap();
        assert_eq!(leader.count(), 4);
    }

    #[test]
    fn protection_detects_rep_corruption() {
        let mut b = protected(8);
        b.put(b"key", b"value");
        b.set_sequence(1);
        b.verify_protection("pre").unwrap();
        // Flip one byte of the value in the serialized rep; the sidecar
        // was computed from the clean bytes and must now mismatch.
        let last = b.rep.len() - 1;
        b.rep[last] ^= 0x01;
        let e = b.verify_protection("wal encode").unwrap_err();
        assert!(e.is_corruption(), "got {e:?}");
        assert!(e.to_string().contains("wal encode"));
        // apply_to must also refuse.
        let mem = MemTable::new(0);
        assert!(b.apply_to(&mem).is_err());
    }

    #[test]
    fn enable_protection_retrofits_existing_entries() {
        let mut b = WriteBatch::new();
        b.put(b"a", b"1");
        b.delete(b"b");
        b.enable_protection(4);
        b.verify_protection("retrofit").unwrap();
        // Width change recomputes.
        b.enable_protection(8);
        b.verify_protection("widen").unwrap();
        // Disabling drops the sidecar.
        b.enable_protection(0);
        assert_eq!(b.protection_width(), 0);
        b.verify_protection("off").unwrap();
    }
}
