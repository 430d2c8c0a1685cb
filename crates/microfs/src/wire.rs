//! The one reader of untrusted bytes.
//!
//! Everything microfs reads back off a device — superblock, snapshot
//! slots, operation log, epoch manifests — and every
//! NVMf capsule header crossing the fabric is parsed through a
//! [`Reader`]. The cursor owns the bounds: each getter checks that the
//! field is present before touching it, advances with checked arithmetic
//! only, and returns [`Short`] instead of panicking. [`Reader::count`]
//! caps a count field read from the input by the bytes actually left, so
//! no decoder can size an allocation by what the input merely claims.
//!
//! Decoders map [`Short`] to their own error type; the CRC that guards a
//! format is still checked before its fields are trusted.

#![deny(
    clippy::indexing_slicing,
    clippy::arithmetic_side_effects,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic
)]

/// A field runs past the end of the input, or does not hold what its
/// type requires (a count larger than the bytes left, text that is not
/// UTF-8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Short;

/// A bounds-checked little-endian cursor over `&[u8]`.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes consumed so far.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// The next `len` bytes, borrowed from the input.
    pub fn bytes(&mut self, len: usize) -> Result<&'a [u8], Short> {
        let end = self.pos.checked_add(len).ok_or(Short)?;
        let out = self.buf.get(self.pos..end).ok_or(Short)?;
        self.pos = end;
        Ok(out)
    }

    /// The next `len` bytes as UTF-8 text.
    pub fn utf8(&mut self, len: usize) -> Result<&'a str, Short> {
        std::str::from_utf8(self.bytes(len)?).map_err(|_| Short)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], Short> {
        self.bytes(N)?.try_into().map_err(|_| Short)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, Short> {
        self.array().map(u8::from_le_bytes)
    }

    /// A little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, Short> {
        self.array().map(u16::from_le_bytes)
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, Short> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, Short> {
        self.array().map(u64::from_le_bytes)
    }

    /// A little-endian `u64` element count, each element taking at least
    /// `min_elem_bytes` of what follows. A count the remaining bytes
    /// cannot hold is [`Short`], so the value returned never exceeds
    /// `remaining() / min_elem_bytes` and is safe to preallocate by.
    pub fn count(&mut self, min_elem_bytes: usize) -> Result<usize, Short> {
        let n = usize::try_from(self.u64()?).map_err(|_| Short)?;
        let cap = self.remaining().checked_div(min_elem_bytes.max(1));
        match cap {
            Some(cap) if n <= cap => Ok(n),
            _ => Err(Short),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_read_little_endian_and_advance() {
        let mut v = vec![7u8];
        v.extend_from_slice(&513u16.to_le_bytes());
        v.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        v.extend_from_slice(&(u64::MAX - 1).to_le_bytes());
        v.extend_from_slice(b"xy");
        let mut r = Reader::new(&v);
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.u16(), Ok(513));
        assert_eq!(r.u32(), Ok(0xDEAD_BEEF));
        assert_eq!(r.u64(), Ok(u64::MAX - 1));
        assert_eq!(r.position(), 15);
        assert_eq!(r.utf8(2), Ok("xy"));
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn short_reads_fail_without_advancing() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.u32(), Err(Short));
        assert_eq!(r.bytes(usize::MAX), Err(Short));
        assert_eq!(r.position(), 0);
        assert_eq!(r.bytes(3), Ok(&[1u8, 2, 3][..]));
        assert_eq!(r.u8(), Err(Short));
        assert_eq!(Reader::new(&[0xFF]).utf8(1), Err(Short));
    }

    #[test]
    fn count_caps_at_remaining_over_min_elem_bytes() {
        // (min_elem_bytes, bytes after the count, remaining / min_elem_bytes)
        for (elem, body, cap) in [
            (1usize, 0usize, 0usize),
            (8, 24, 3),
            (8, 31, 3),
            (12, 36, 3),
        ] {
            for n in [0, cap, cap.saturating_add(1), usize::MAX] {
                let mut v = (n as u64).to_le_bytes().to_vec();
                v.extend(std::iter::repeat_n(0, body));
                let mut r = Reader::new(&v);
                let got = r.count(elem);
                if n <= cap {
                    assert_eq!(got, Ok(n), "elem {elem} body {body} n {n}");
                    assert_eq!(r.remaining(), body);
                } else {
                    assert_eq!(got, Err(Short), "elem {elem} body {body} n {n}");
                }
            }
        }
        assert_eq!(Reader::new(&[0; 4]).count(1), Err(Short));
    }
}
