//! Scatter-gather lists: multi-segment wire payloads.
//!
//! RDMA work requests carry a list of scatter-gather entries (SGEs); an
//! NVMf write capsule rides as two of them — the command header and the
//! data payload — so the payload is never copied into a contiguous wire
//! buffer. [`SgList`] is that list: an ordered sequence of refcounted
//! [`Bytes`] segments. Building one from existing `Bytes` is copy-free,
//! and so is delivery (the receiver gets the same refcounted segments).

use bytes::Bytes;

/// An ordered list of wire segments, delivered as one logical message.
#[derive(Debug, Clone, Default)]
pub struct SgList {
    segs: Vec<Bytes>,
}

impl SgList {
    /// An empty list.
    pub fn new() -> Self {
        SgList { segs: Vec::new() }
    }

    /// Append a segment (copy-free; empty segments are dropped).
    pub fn push(&mut self, seg: Bytes) {
        if !seg.is_empty() {
            self.segs.push(seg);
        }
    }

    /// Total logical length in bytes.
    pub fn len(&self) -> usize {
        self.segs.iter().map(Bytes::len).sum()
    }

    /// True when the list carries no bytes.
    pub fn is_empty(&self) -> bool {
        self.segs.iter().all(Bytes::is_empty)
    }

    /// Number of scatter-gather entries.
    pub fn segment_count(&self) -> usize {
        self.segs.len()
    }

    /// Consume into the segment vector.
    pub fn into_segments(self) -> Vec<Bytes> {
        self.segs
    }

    /// Flatten into one contiguous buffer. Zero-copy when the list has at
    /// most one segment; otherwise this is the gather copy that the
    /// two-segment capsule path exists to avoid.
    pub fn into_contiguous(mut self) -> Bytes {
        if self.segs.len() > 1 {
            let mut v = Vec::with_capacity(self.len());
            for s in &self.segs {
                v.extend_from_slice(s);
            }
            return Bytes::from(v);
        }
        self.segs.pop().unwrap_or_default()
    }
}

impl From<Bytes> for SgList {
    fn from(b: Bytes) -> Self {
        let mut sg = SgList::new();
        sg.push(b);
        sg
    }
}

/// Adopts the vector itself, dropping empty segments in place.
impl From<Vec<Bytes>> for SgList {
    fn from(mut segs: Vec<Bytes>) -> Self {
        segs.retain(|s| !s.is_empty());
        SgList { segs }
    }
}

/// Logical-content equality, independent of segmentation.
impl PartialEq for SgList {
    fn eq(&self, other: &Self) -> bool {
        if self.len() != other.len() {
            return false;
        }
        self.segs
            .iter()
            .flat_map(|s| s.iter())
            .eq(other.segs.iter().flat_map(|s| s.iter()))
    }
}

impl Eq for SgList {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_drops_empty_segments() {
        let mut sg = SgList::new();
        sg.push(Bytes::new());
        sg.push(Bytes::from_static(b"abc"));
        assert_eq!(sg.segment_count(), 1);
        assert_eq!(sg.len(), 3);
    }

    #[test]
    fn equality_ignores_segmentation() {
        let a: SgList = vec![Bytes::from_static(b"ab"), Bytes::from_static(b"cd")].into();
        let b: SgList = Bytes::from_static(b"abcd").into();
        assert_eq!(a, b);
        assert_ne!(a, SgList::from(Bytes::from_static(b"abce")));
    }

    #[test]
    fn single_segment_contiguous_is_zero_copy() {
        let payload = Bytes::from_static(b"payload");
        let sg = SgList::from(payload.clone());
        let flat = sg.into_contiguous();
        assert_eq!(flat, payload);
    }

    #[test]
    fn multi_segment_gathers() {
        let sg: SgList = vec![Bytes::from_static(b"head"), Bytes::from_static(b"tail")].into();
        assert_eq!(&sg.into_contiguous()[..], b"headtail");
    }

    #[test]
    fn empty_list_is_empty_contiguous() {
        assert!(SgList::new().into_contiguous().is_empty());
    }
}
