//! Sparse byte store backing a simulated device.
//!
//! Devices in this workspace are hundreds of gigabytes; experiments touch a
//! tiny, scattered fraction of that. `SparseStore` materializes 4 KiB pages
//! (one logical block) on first write and reads zeroes elsewhere, so a
//! "750 GiB SSD" costs only as much memory as the blocks actually written.

use std::collections::HashMap;

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT; // 4 KiB

/// A sparse, zero-initialized byte array of fixed logical size.
#[derive(Debug, Clone, Default)]
pub struct SparseStore {
    pages: HashMap<u64, Box<[u8]>>,
    size: u64,
}

impl SparseStore {
    /// A store of `size` logical bytes, all zero.
    pub fn new(size: u64) -> Self {
        SparseStore {
            pages: HashMap::new(),
            size,
        }
    }

    /// Logical size in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Bytes of memory actually materialized.
    pub fn resident_bytes(&self) -> u64 {
        (self.pages.len() * PAGE_SIZE) as u64
    }

    /// Write `data` at `offset`. Panics if the range exceeds the store —
    /// range checks belong to the namespace layer, which validates user IO
    /// before it reaches the store.
    pub fn write(&mut self, offset: u64, data: &[u8]) {
        assert!(
            offset
                .checked_add(data.len() as u64)
                .is_some_and(|e| e <= self.size),
            "write out of range: offset {offset} len {} size {}",
            data.len(),
            self.size
        );
        let mut pos = 0usize;
        while pos < data.len() {
            let abs = offset + pos as u64;
            let page_idx = abs >> PAGE_SHIFT;
            let in_page = (abs & (PAGE_SIZE as u64 - 1)) as usize;
            let n = (PAGE_SIZE - in_page).min(data.len() - pos);
            let page = self
                .pages
                .entry(page_idx)
                .or_insert_with(|| vec![0u8; PAGE_SIZE].into_boxed_slice());
            page[in_page..in_page + n].copy_from_slice(&data[pos..pos + n]);
            pos += n;
        }
    }

    /// Read into `buf` from `offset`. Unwritten ranges read as zero.
    pub fn read(&self, offset: u64, buf: &mut [u8]) {
        assert!(
            offset
                .checked_add(buf.len() as u64)
                .is_some_and(|e| e <= self.size),
            "read out of range: offset {offset} len {} size {}",
            buf.len(),
            self.size
        );
        let mut pos = 0usize;
        while pos < buf.len() {
            let abs = offset + pos as u64;
            let page_idx = abs >> PAGE_SHIFT;
            let in_page = (abs & (PAGE_SIZE as u64 - 1)) as usize;
            let n = (PAGE_SIZE - in_page).min(buf.len() - pos);
            match self.pages.get(&page_idx) {
                Some(page) => buf[pos..pos + n].copy_from_slice(&page[in_page..in_page + n]),
                None => buf[pos..pos + n].fill(0),
            }
            pos += n;
        }
    }

    /// Read `len` bytes at `offset` into a fresh vector.
    ///
    /// Single-pass materialization: resident pages are appended directly
    /// and holes extend the vector with zeroes — no zero-fill of the whole
    /// buffer followed by a second overwrite pass like `read` into a
    /// caller-zeroed vector would cost.
    pub fn read_vec(&self, offset: u64, len: usize) -> Vec<u8> {
        assert!(
            offset
                .checked_add(len as u64)
                .is_some_and(|e| e <= self.size),
            "read out of range: offset {offset} len {len} size {}",
            self.size
        );
        let mut v = Vec::with_capacity(len);
        while v.len() < len {
            let abs = offset + v.len() as u64;
            let page_idx = abs >> PAGE_SHIFT;
            let in_page = (abs & (PAGE_SIZE as u64 - 1)) as usize;
            let n = (PAGE_SIZE - in_page).min(len - v.len());
            match self.pages.get(&page_idx) {
                Some(page) => v.extend_from_slice(&page[in_page..in_page + n]),
                None => v.resize(v.len() + n, 0),
            }
        }
        v
    }

    /// Discard all contents (used to model media loss in fault tests).
    pub fn clear(&mut self) {
        self.pages.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn unwritten_reads_zero() {
        let s = SparseStore::new(1 << 20);
        assert_eq!(s.read_vec(12345, 64), vec![0u8; 64]);
        assert_eq!(s.resident_bytes(), 0);
    }

    #[test]
    fn write_read_roundtrip_within_page() {
        let mut s = SparseStore::new(1 << 20);
        s.write(100, b"hello nvme");
        assert_eq!(s.read_vec(100, 10), b"hello nvme");
        // Neighbouring bytes stay zero.
        assert_eq!(s.read_vec(95, 5), vec![0u8; 5]);
    }

    #[test]
    fn write_spanning_page_boundary() {
        let mut s = SparseStore::new(1 << 20);
        let data: Vec<u8> = (0..200_000).map(|i| (i % 251) as u8).collect();
        s.write(PAGE_SIZE as u64 - 17, &data);
        assert_eq!(s.read_vec(PAGE_SIZE as u64 - 17, data.len()), data);
    }

    #[test]
    fn sparse_residency() {
        let mut s = SparseStore::new(1 << 40); // "1 TiB" device
        s.write(1 << 39, &[1u8; 10]);
        assert_eq!(s.resident_bytes(), PAGE_SIZE as u64);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_write_panics() {
        let mut s = SparseStore::new(100);
        s.write(96, &[0u8; 8]);
    }

    #[test]
    fn overwrite_replaces() {
        let mut s = SparseStore::new(4096);
        s.write(0, &[0xAA; 16]);
        s.write(4, &[0xBB; 4]);
        let v = s.read_vec(0, 16);
        assert_eq!(&v[0..4], &[0xAA; 4]);
        assert_eq!(&v[4..8], &[0xBB; 4]);
        assert_eq!(&v[8..16], &[0xAA; 8]);
    }

    proptest! {
        /// The store behaves exactly like a flat zero-initialized buffer for
        /// arbitrary interleaved writes.
        #[test]
        fn prop_matches_flat_buffer(
            writes in proptest::collection::vec(
                (0u64..300_000, proptest::collection::vec(any::<u8>(), 1..4096)),
                1..32,
            )
        ) {
            let size = 400_000u64;
            let mut model = vec![0u8; size as usize];
            let mut s = SparseStore::new(size);
            for (off, data) in &writes {
                let off = *off;
                s.write(off, data);
                model[off as usize..off as usize + data.len()].copy_from_slice(data);
            }
            // Compare a few windows including page boundaries.
            for start in [0u64, 65_530, 131_000, 250_000] {
                let len = 10_000.min(size - start) as usize;
                prop_assert_eq!(s.read_vec(start, len), &model[start as usize..start as usize + len]);
            }
        }
    }
}
