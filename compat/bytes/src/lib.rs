//! Offline stand-in for the `bytes` crate.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the exact API surface it uses: a cheaply cloneable, reference-
//! counted immutable byte buffer ([`Bytes`]) and the little-endian write
//! cursor [`BufMut`], which fills a `Vec` or a stack array.
//! Clones and sub-slices of `Bytes` never copy payload bytes — the property
//! the NVMf zero-copy data plane is built on.

#![forbid(unsafe_code)]

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// A cheaply cloneable, contiguous, immutable slice of memory.
///
/// Internally an `Arc<[u8]>` plus a window; `clone` and `slice` are
/// reference-count operations and never copy the payload. An empty buffer
/// holds no `Arc` at all, so making one allocates nothing.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Option<Arc<[u8]>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer (allocates nothing).
    pub const fn new() -> Self {
        Bytes {
            data: None,
            start: 0,
            end: 0,
        }
    }

    /// A buffer over `data` itself; an empty one keeps no allocation.
    fn from_arc(data: Arc<[u8]>) -> Self {
        let end = data.len();
        Bytes {
            data: (end > 0).then_some(data),
            start: 0,
            end,
        }
    }

    /// A buffer holding `data` (copies once, at construction).
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from(data.to_vec())
    }

    /// A buffer over a static slice. (The real crate is zero-alloc here;
    /// this stand-in copies once at construction, which is equivalent for
    /// every use in this workspace.)
    pub fn from_static(data: &'static [u8]) -> Self {
        Bytes::copy_from_slice(data)
    }

    /// Length of the view.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A zero-copy sub-view. Panics if the range is out of bounds.
    pub fn slice(&self, range: impl std::ops::RangeBounds<usize>) -> Bytes {
        use std::ops::Bound;
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(
            lo <= hi && hi <= self.len(),
            "slice [{lo}, {hi}) out of range for {}",
            self.len()
        );
        Bytes {
            data: self.data.clone(),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    /// Split off and return the first `at` bytes, advancing `self` past
    /// them. Zero-copy.
    pub fn split_to(&mut self, at: usize) -> Bytes {
        let head = self.slice(..at);
        self.start += at;
        head
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match &self.data {
            Some(d) => &d[self.start..self.end],
            None => &[],
        }
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        if v.is_empty() {
            return Bytes::new();
        }
        Bytes::from_arc(Arc::from(v.into_boxed_slice()))
    }
}

/// A fixed-size buffer built on the stack (a wire header) becomes a
/// `Bytes` in one allocation.
impl<const N: usize> From<[u8; N]> for Bytes {
    fn from(a: [u8; N]) -> Self {
        Bytes::from_arc(Arc::from(&a[..]))
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Bytes::copy_from_slice(v)
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}
impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        &self[..] == other
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self[..].hash(state);
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

/// Write cursor (little-endian appenders used by the capsule codec).
pub trait BufMut {
    /// Append raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Append one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Append a little-endian u16.
    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a little-endian u32.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a little-endian u64.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

/// Fills the slice front to back, advancing past what it wrote. Panics
/// when `src` does not fit, like the real crate.
impl BufMut for &mut [u8] {
    fn put_slice(&mut self, src: &[u8]) {
        let (head, tail) = std::mem::take(self).split_at_mut(src.len());
        head.copy_from_slice(src);
        *self = tail;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_and_slice_share_storage() {
        let b = Bytes::from(vec![1u8, 2, 3, 4, 5]);
        let c = b.clone();
        let s = b.slice(1..4);
        assert_eq!(&s[..], &[2, 3, 4]);
        assert_eq!(c, b);
        assert!(
            Arc::ptr_eq(b.data.as_ref().unwrap(), s.data.as_ref().unwrap()),
            "slice must not copy"
        );
    }

    #[test]
    fn empty_buffers_hold_no_allocation() {
        assert!(Bytes::new().data.is_none());
        assert!(Bytes::from(Vec::new()).data.is_none());
        assert!(Bytes::from([0u8; 0]).data.is_none());
        let b = Bytes::from(vec![1u8, 2]);
        assert!(b.slice(1..1).is_empty());
        assert_eq!(&b.slice(2..)[..], b"");
    }

    #[test]
    fn stack_arrays_fill_through_a_slice_cursor() {
        let mut a = [0u8; 7];
        let mut w = &mut a[..];
        w.put_u32_le(0x0403_0201);
        w.put_u16_le(0x0605);
        w.put_u8(7);
        assert!(w.is_empty());
        assert_eq!(&Bytes::from(a)[..], &[1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn cursor_roundtrip() {
        let mut m = Vec::with_capacity(16);
        m.put_u32_le(0xDEAD_BEEF);
        m.put_u8(7);
        m.put_u16_le(513);
        m.put_u64_le(u64::MAX - 1);
        m.put_slice(b"xy");
        let mut want = 0xDEAD_BEEFu32.to_le_bytes().to_vec();
        want.push(7);
        want.extend_from_slice(&513u16.to_le_bytes());
        want.extend_from_slice(&(u64::MAX - 1).to_le_bytes());
        want.extend_from_slice(b"xy");
        assert_eq!(&Bytes::from(m)[..], &want[..]);
    }

    #[test]
    fn split_to_advances() {
        let mut b = Bytes::from(vec![9u8; 10]);
        let head = b.split_to(4);
        assert_eq!(head.len(), 4);
        assert_eq!(b.len(), 6);
    }
}
