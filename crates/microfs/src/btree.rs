//! The DRAM-resident name index: path → inode number.
//!
//! §III-E: *"The directory hierarchy is constructed using a set of directory
//! files indexed by a DRAM resident B+Tree. The B+Tree contains mappings of
//! directory and file names to their root inode."* and *"An in-memory
//! B+Tree is used to keep mappings of filenames to their inodes allowing
//! fast lookups... The state of the B+Tree can also be reconstructed upon
//! recovery from a crash."*
//!
//! The paper asks three things of the index: it lives in DRAM, it keeps
//! names in sorted order (so `readdir` scans one contiguous prefix range),
//! and recovery rebuilds it. `std`'s B-Tree map gives all three, so the
//! index is that map. This wrapper owns only what is microfs's own: the
//! snapshot section's byte format ([`encode`](BTree::encode)) and the
//! DRAM-footprint formula Table I reports ([`approx_bytes`](BTree::approx_bytes)).

use std::collections::btree_map::{BTreeMap, Entry};
use std::ops::Bound;

use crate::error::FsError;
use crate::wire::Reader;

/// An ordered map from path keys to inode numbers.
#[derive(Debug, Clone, Default)]
pub struct BTree {
    map: BTreeMap<Box<str>, u64>,
    /// Sum of the live keys' lengths, for [`approx_bytes`](Self::approx_bytes).
    key_bytes: usize,
}

impl BTree {
    /// An empty tree.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of mappings.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Approximate DRAM footprint in bytes (keys + per-entry overhead),
    /// reported in the Table I harness.
    pub fn approx_bytes(&self) -> usize {
        // Key bytes + value + Box<str> header + amortized node overhead.
        self.key_bytes + self.len() * (8 + 16 + 8)
    }

    /// Look up a key.
    pub fn get(&self, key: &str) -> Option<u64> {
        self.map.get(key).copied()
    }

    /// Insert a mapping, returning the previous value if the key existed.
    pub fn insert(&mut self, key: &str, val: u64) -> Option<u64> {
        self.upsert(key, val, true)
    }

    /// Insert a mapping only if `key` is absent: one descent both checks
    /// and inserts. Returns whether it inserted; an existing mapping is
    /// left as it was.
    pub fn insert_new(&mut self, key: &str, val: u64) -> bool {
        self.upsert(key, val, false).is_none()
    }

    /// Insert, or on an existing key return its value and replace it only
    /// if `overwrite`.
    fn upsert(&mut self, key: &str, val: u64, overwrite: bool) -> Option<u64> {
        match self.map.entry(key.into()) {
            Entry::Occupied(mut e) if overwrite => Some(e.insert(val)),
            Entry::Occupied(e) => Some(*e.get()),
            Entry::Vacant(e) => {
                self.key_bytes += key.len();
                e.insert(val);
                None
            }
        }
    }

    /// Remove a key, returning its value if present.
    pub fn remove(&mut self, key: &str) -> Option<u64> {
        let old = self.map.remove(key)?;
        self.key_bytes -= key.len();
        Some(old)
    }

    /// All `(key, value)` pairs in key order, keys borrowed.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.map.iter().map(|(k, v)| (&**k, *v))
    }

    /// All `(key, value)` pairs in key order.
    pub fn entries(&self) -> Vec<(String, u64)> {
        self.iter().map(|(k, v)| (k.to_string(), v)).collect()
    }

    /// Pairs whose key starts with `prefix`, in key order: keys with a
    /// common prefix are contiguous, so the range starts at `prefix` and
    /// stops at the first key past it.
    fn with_prefix<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = (&'a str, u64)> {
        self.map
            .range::<str, _>((Bound::Included(prefix), Bound::Unbounded))
            .map(|(k, v)| (&**k, *v))
            .take_while(move |(k, _)| k.starts_with(prefix))
    }

    /// All pairs whose key starts with `prefix`, in key order (used by
    /// `readdir` to enumerate a directory's children).
    pub fn entries_with_prefix(&self, prefix: &str) -> Vec<(String, u64)> {
        self.with_prefix(prefix)
            .map(|(k, v)| (k.to_string(), v))
            .collect()
    }

    /// Whether any key starts with `prefix` (one descent, no allocation).
    pub fn any_with_prefix(&self, prefix: &str) -> bool {
        self.with_prefix(prefix).next().is_some()
    }

    /// Serialize as `count u64 | (len u32, key, value u64)*`, in key order.
    pub fn encode(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(8 + self.key_bytes + self.len() * (4 + 8));
        v.extend_from_slice(&(self.len() as u64).to_le_bytes());
        for (k, val) in &self.map {
            v.extend_from_slice(&(k.len() as u32).to_le_bytes());
            v.extend_from_slice(k.as_bytes());
            v.extend_from_slice(&val.to_le_bytes());
        }
        v
    }

    /// Deserialize; inverse of [`encode`](Self::encode). Returns the tree
    /// and the bytes consumed. A repeated key keeps its last value.
    #[deny(
        clippy::indexing_slicing,
        clippy::arithmetic_side_effects,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic
    )]
    pub fn decode(bytes: &[u8]) -> Result<(BTree, usize), FsError> {
        let mut r = Reader::new(bytes);
        // Every entry takes at least its key length and value.
        let n = r.count(4 + 8)?;
        let mut tree = BTree::new();
        for _ in 0..n {
            let klen = r.u32()?;
            let key = r.utf8(klen as usize)?;
            tree.insert(key, r.u64()?);
        }
        Ok((tree, r.position()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn insert_get_remove_small() {
        let mut t = BTree::new();
        assert!(t.is_empty());
        assert_eq!(t.insert("/ckpt/rank0", 1), None);
        assert_eq!(t.insert("/ckpt/rank1", 2), None);
        assert_eq!(t.get("/ckpt/rank0"), Some(1));
        assert_eq!(t.insert("/ckpt/rank0", 9), Some(1));
        assert_eq!(t.get("/ckpt/rank0"), Some(9));
        assert_eq!(t.remove("/ckpt/rank0"), Some(9));
        assert_eq!(t.get("/ckpt/rank0"), None);
        assert_eq!(t.remove("/missing"), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn many_inserts_force_splits() {
        let mut t = BTree::new();
        for i in 0..10_000u64 {
            t.insert(&format!("/file{i:06}"), i);
        }
        assert_eq!(t.len(), 10_000);
        for i in (0..10_000u64).step_by(101) {
            assert_eq!(t.get(&format!("/file{i:06}")), Some(i));
        }
        let e = t.entries();
        assert_eq!(e.len(), 10_000);
        assert!(e.windows(2).all(|w| w[0].0 < w[1].0), "entries not sorted");
    }

    #[test]
    fn deletions_force_merges() {
        let mut t = BTree::new();
        for i in 0..5_000u64 {
            t.insert(&format!("k{i:05}"), i);
        }
        // Delete nine keys in ten.
        for i in 0..5_000u64 {
            if i % 10 != 0 {
                assert_eq!(t.remove(&format!("k{i:05}")), Some(i));
            }
        }
        assert_eq!(t.len(), 500);
        for i in (0..5_000u64).step_by(10) {
            assert_eq!(t.get(&format!("k{i:05}")), Some(i));
        }
    }

    #[test]
    fn delete_everything_returns_to_empty() {
        let mut t = BTree::new();
        for i in 0..2_000u64 {
            t.insert(&format!("x{i}"), i);
        }
        for i in 0..2_000u64 {
            assert_eq!(t.remove(&format!("x{i}")), Some(i));
        }
        assert!(t.is_empty());
        assert_eq!(t.approx_bytes(), 0);
    }

    #[test]
    fn prefix_scan_for_readdir() {
        let mut t = BTree::new();
        t.insert("/a/x", 1);
        t.insert("/a/y", 2);
        t.insert("/ab", 3);
        t.insert("/b/z", 4);
        let kids = t.entries_with_prefix("/a/");
        assert_eq!(kids, vec![("/a/x".into(), 1), ("/a/y".into(), 2)]);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut t = BTree::new();
        for i in 0..3_000u64 {
            t.insert(&format!("/d/f{i}"), i * 7);
        }
        let bytes = t.encode();
        let (u, consumed) = BTree::decode(&bytes).unwrap();
        assert_eq!(consumed, bytes.len());
        assert_eq!(u.len(), t.len());
        assert_eq!(t.entries(), u.entries());
    }

    /// Fisher–Yates with a splitmix64 stream: a fixed order from `seed`.
    fn shuffled<T>(mut v: Vec<T>, mut seed: u64) -> Vec<T> {
        for i in (1..v.len()).rev() {
            seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            v.swap(i, ((z ^ (z >> 31)) % (i as u64 + 1)) as usize);
        }
        v
    }

    /// The snapshot section of a `meta_churn` rank's 520 keys (`/dNN`,
    /// `/dNN/fNN`), inserted in a shuffled order, with a quarter removed
    /// and re-inserted under new inode numbers. The section is sorted
    /// `(key, value)` pairs, so how the index was built cannot show in it.
    #[test]
    fn many_key_encoding_is_pinned() {
        let keys: Vec<(String, u64)> = (0..8u64)
            .flat_map(|d| {
                std::iter::once(format!("/d{d:02}"))
                    .chain((0..64).map(move |f| format!("/d{d:02}/f{f:02}")))
            })
            .zip(1..)
            .collect();
        let mut t = BTree::new();
        for (k, ino) in shuffled(keys.clone(), 35) {
            assert!(t.insert_new(&k, ino));
        }
        let quarter: Vec<_> = shuffled(keys, 7).into_iter().take(130).collect();
        for (k, ino) in &quarter {
            assert_eq!(t.remove(k), Some(*ino));
        }
        assert_eq!(t.len(), 390);
        for (k, ino) in &quarter {
            assert_eq!(t.insert(k, ino + 1_000), None);
        }
        let bytes = t.encode();
        assert_eq!(t.len(), 520);
        assert_eq!(
            (bytes.len(), crate::crc::crc32(&bytes)),
            (10_376, 0x1EF9_39FB),
            "the B+Tree snapshot section moved"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Full behavioural equivalence with std's BTreeMap under random
        /// interleaved insert/remove/get/insert-if-absent/prefix queries.
        #[test]
        fn prop_matches_btreemap(
            ops in proptest::collection::vec((0u8..5, 0u16..300, any::<u64>()), 1..800)
        ) {
            let mut ours = BTree::new();
            let mut model: BTreeMap<String, u64> = BTreeMap::new();
            for (op, key_n, val) in ops {
                let key = format!("k{key_n:03}");
                match op {
                    0 => {
                        prop_assert_eq!(ours.insert(&key, val), model.insert(key.clone(), val));
                    }
                    1 => {
                        prop_assert_eq!(ours.remove(&key), model.remove(&key));
                    }
                    2 => {
                        prop_assert_eq!(ours.get(&key), model.get(&key).copied());
                    }
                    3 => {
                        let absent = !model.contains_key(&key);
                        prop_assert_eq!(ours.insert_new(&key, val), absent);
                        model.entry(key).or_insert(val);
                    }
                    _ => {
                        // Prefix query: every key sharing the first 1–3
                        // characters of `key` (1 is every key).
                        let prefix = &key[..1 + (val % 3) as usize];
                        let want: Vec<(String, u64)> = model
                            .range(prefix.to_string()..)
                            .take_while(|(k, _)| k.starts_with(prefix))
                            .map(|(k, v)| (k.clone(), *v))
                            .collect();
                        prop_assert_eq!(ours.any_with_prefix(prefix), !want.is_empty());
                        prop_assert_eq!(ours.entries_with_prefix(prefix), want);
                    }
                }
                prop_assert_eq!(ours.len(), model.len());
            }
            let entries = ours.entries();
            let expected: Vec<(String, u64)> =
                model.into_iter().collect();
            prop_assert_eq!(entries, expected);
        }
    }
}
