//! Varint/fixed integer and length-prefixed slice encoding (LevelDB style).

/// Appends a little-endian u32.
pub fn put_fixed32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian u64.
pub fn put_fixed64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Reads a little-endian u32 at `off`.
///
/// # Panics
///
/// Panics if the slice is too short.
pub fn get_fixed32(data: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(data[off..off + 4].try_into().unwrap())
}

/// Reads a little-endian u64 at `off`.
///
/// # Panics
///
/// Panics if the slice is too short.
pub fn get_fixed64(data: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(data[off..off + 8].try_into().unwrap())
}

/// Appends a varint-encoded u64.
pub fn put_varint64(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8 & 0x7f) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Decodes a varint u64 at `*off`, advancing the offset.
///
/// Returns `None` on truncation or overlong encodings.
pub fn get_varint64(data: &[u8], off: &mut usize) -> Option<u64> {
    let mut result: u64 = 0;
    let mut shift = 0u32;
    loop {
        if shift > 63 || *off >= data.len() {
            return None;
        }
        let byte = data[*off];
        *off += 1;
        result |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Some(result);
        }
        shift += 7;
    }
}

/// Bytes [`put_length_prefixed`] appends for `data`.
pub fn length_prefixed_size(data: &[u8]) -> usize {
    let bits = u64::BITS - (data.len() as u64 | 1).leading_zeros();
    bits.div_ceil(7) as usize + data.len()
}

/// Appends a varint length followed by the bytes.
pub fn put_length_prefixed(out: &mut Vec<u8>, data: &[u8]) {
    put_varint64(out, data.len() as u64);
    out.extend_from_slice(data);
}

/// Decodes a length-prefixed slice at `*off`, advancing the offset.
///
/// Returns `None` when the length runs past the end of `data` — whatever
/// the length says, `u64::MAX` included.
pub fn get_length_prefixed<'a>(data: &'a [u8], off: &mut usize) -> Option<&'a [u8]> {
    let len = usize::try_from(get_varint64(data, off)?).ok()?;
    let end = off.checked_add(len)?;
    let s = data.get(*off..end)?;
    *off = end;
    Some(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fixed_roundtrip() {
        let mut buf = Vec::new();
        put_fixed32(&mut buf, 0xDEAD_BEEF);
        put_fixed64(&mut buf, 0x0123_4567_89AB_CDEF);
        assert_eq!(get_fixed32(&buf, 0), 0xDEAD_BEEF);
        assert_eq!(get_fixed64(&buf, 4), 0x0123_4567_89AB_CDEF);
    }

    #[test]
    fn varint_boundaries() {
        for v in [0u64, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint64(&mut buf, v);
            let mut off = 0;
            assert_eq!(get_varint64(&buf, &mut off), Some(v));
            assert_eq!(off, buf.len());
        }
    }

    #[test]
    fn varint_truncation_detected() {
        let mut buf = Vec::new();
        put_varint64(&mut buf, u64::MAX);
        let mut off = 0;
        assert_eq!(get_varint64(&buf[..buf.len() - 1], &mut off), None);
    }

    #[test]
    fn length_prefixed_roundtrip() {
        let mut buf = Vec::new();
        put_length_prefixed(&mut buf, b"alpha");
        put_length_prefixed(&mut buf, b"");
        put_length_prefixed(&mut buf, b"omega");
        let mut off = 0;
        assert_eq!(get_length_prefixed(&buf, &mut off), Some(&b"alpha"[..]));
        assert_eq!(get_length_prefixed(&buf, &mut off), Some(&b""[..]));
        assert_eq!(get_length_prefixed(&buf, &mut off), Some(&b"omega"[..]));
        assert_eq!(get_length_prefixed(&buf, &mut off), None);
    }

    proptest! {
        #[test]
        fn varint_roundtrip(v in any::<u64>()) {
            let mut buf = Vec::new();
            put_varint64(&mut buf, v);
            let mut off = 0;
            prop_assert_eq!(get_varint64(&buf, &mut off), Some(v));
        }

        #[test]
        fn slices_roundtrip(items in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..64), 0..20)) {
            let mut buf = Vec::new();
            for item in &items {
                put_length_prefixed(&mut buf, item);
            }
            let mut off = 0;
            for item in &items {
                prop_assert_eq!(get_length_prefixed(&buf, &mut off), Some(&item[..]));
            }
        }
    }
}
