//! DRAM-resident B+Tree mapping names to inode numbers.
//!
//! §III-E: *"The directory hierarchy is constructed using a set of directory
//! files indexed by a DRAM resident B+Tree. The B+Tree contains mappings of
//! directory and file names to their root inode."* and *"An in-memory
//! B+Tree is used to keep mappings of filenames to their inodes allowing
//! fast lookups... The state of the B+Tree can also be reconstructed upon
//! recovery from a crash."*
//!
//! This is a real B+Tree (values only at leaves, separator routing,
//! split/borrow/merge rebalancing), not a wrapper over `std` — its
//! structure is part of what the paper's DRAM-footprint numbers (Table I)
//! measure, and the snapshot/recovery path serializes and rebuilds it.

use crate::error::FsError;
use crate::wire::Reader;

/// Minimum keys in a non-root node; maximum is `2 * MIN_KEYS`.
const MIN_KEYS: usize = 16;
const MAX_KEYS: usize = 2 * MIN_KEYS;

#[derive(Debug, Clone)]
enum Node {
    Internal {
        /// Separators: child `i` holds keys `< keys[i]`; child `i+1` holds
        /// keys `>= keys[i]`.
        keys: Vec<Box<str>>,
        children: Vec<Node>,
    },
    Leaf {
        keys: Vec<Box<str>>,
        vals: Vec<u64>,
    },
}

impl Node {
    fn is_leaf(&self) -> bool {
        matches!(self, Node::Leaf { .. })
    }

    fn key_count(&self) -> usize {
        match self {
            Node::Internal { keys, .. } | Node::Leaf { keys, .. } => keys.len(),
        }
    }
}

/// What an insert did to a child: nothing, or a split producing a new right
/// sibling and the separator to route to it.
enum InsertResult {
    Done(Option<u64>),
    Split {
        sep: Box<str>,
        right: Node,
        old: Option<u64>,
    },
}

/// A B+Tree from string keys to `u64` values.
#[derive(Debug, Clone)]
pub struct BTree {
    root: Node,
    len: usize,
    key_bytes: usize,
}

impl Default for BTree {
    fn default() -> Self {
        Self::new()
    }
}

impl BTree {
    /// An empty tree.
    pub fn new() -> Self {
        BTree {
            root: Node::Leaf {
                keys: Vec::new(),
                vals: Vec::new(),
            },
            len: 0,
            key_bytes: 0,
        }
    }

    /// Number of mappings.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Approximate DRAM footprint in bytes (keys + per-entry overhead),
    /// reported in the Table I harness.
    pub fn approx_bytes(&self) -> usize {
        // Key bytes + value + Box<str> header + amortized node overhead.
        self.key_bytes + self.len * (8 + 16 + 8)
    }

    /// Look up a key.
    pub fn get(&self, key: &str) -> Option<u64> {
        let mut node = &self.root;
        loop {
            match node {
                Node::Internal { keys, children } => {
                    let idx = keys.partition_point(|k| k.as_ref() <= key);
                    node = &children[idx];
                }
                Node::Leaf { keys, vals } => {
                    return keys
                        .binary_search_by(|k| k.as_ref().cmp(key))
                        .ok()
                        .map(|i| vals[i]);
                }
            }
        }
    }

    /// Insert a mapping, returning the previous value if the key existed.
    pub fn insert(&mut self, key: &str, val: u64) -> Option<u64> {
        let result = Self::insert_rec(&mut self.root, key, val);
        let old = match result {
            InsertResult::Done(old) => old,
            InsertResult::Split { sep, right, old } => {
                // Grow the tree by one level.
                let left = std::mem::replace(
                    &mut self.root,
                    Node::Leaf {
                        keys: Vec::new(),
                        vals: Vec::new(),
                    },
                );
                self.root = Node::Internal {
                    keys: vec![sep],
                    children: vec![left, right],
                };
                old
            }
        };
        if old.is_none() {
            self.len += 1;
            self.key_bytes += key.len();
        }
        old
    }

    fn insert_rec(node: &mut Node, key: &str, val: u64) -> InsertResult {
        match node {
            Node::Leaf { keys, vals } => match keys.binary_search_by(|k| k.as_ref().cmp(key)) {
                Ok(i) => {
                    let old = vals[i];
                    vals[i] = val;
                    InsertResult::Done(Some(old))
                }
                Err(i) => {
                    keys.insert(i, key.into());
                    vals.insert(i, val);
                    if keys.len() > MAX_KEYS {
                        let mid = keys.len() / 2;
                        let rkeys: Vec<Box<str>> = keys.split_off(mid);
                        let rvals: Vec<u64> = vals.split_off(mid);
                        let sep = rkeys[0].clone();
                        InsertResult::Split {
                            sep,
                            right: Node::Leaf {
                                keys: rkeys,
                                vals: rvals,
                            },
                            old: None,
                        }
                    } else {
                        InsertResult::Done(None)
                    }
                }
            },
            Node::Internal { keys, children } => {
                let idx = keys.partition_point(|k| k.as_ref() <= key);
                match Self::insert_rec(&mut children[idx], key, val) {
                    InsertResult::Done(old) => InsertResult::Done(old),
                    InsertResult::Split { sep, right, old } => {
                        keys.insert(idx, sep);
                        children.insert(idx + 1, right);
                        if keys.len() > MAX_KEYS {
                            let mid = keys.len() / 2;
                            // The middle separator moves *up*, not right.
                            let up = keys[mid].clone();
                            let rkeys: Vec<Box<str>> = keys.split_off(mid + 1);
                            keys.pop(); // drop the promoted separator
                            let rchildren: Vec<Node> = children.split_off(mid + 1);
                            InsertResult::Split {
                                sep: up,
                                right: Node::Internal {
                                    keys: rkeys,
                                    children: rchildren,
                                },
                                old,
                            }
                        } else {
                            InsertResult::Done(old)
                        }
                    }
                }
            }
        }
    }

    /// Remove a key, returning its value if present.
    pub fn remove(&mut self, key: &str) -> Option<u64> {
        let removed = Self::remove_rec(&mut self.root, key);
        if removed.is_some() {
            self.len -= 1;
            self.key_bytes -= key.len();
            // Shrink the root if it degenerated to a single child.
            if let Node::Internal { keys, children } = &mut self.root {
                if keys.is_empty() {
                    debug_assert_eq!(children.len(), 1);
                    self.root = children.pop().expect("single child");
                }
            }
        }
        removed
    }

    fn remove_rec(node: &mut Node, key: &str) -> Option<u64> {
        match node {
            Node::Leaf { keys, vals } => match keys.binary_search_by(|k| k.as_ref().cmp(key)) {
                Ok(i) => {
                    keys.remove(i);
                    Some(vals.remove(i))
                }
                Err(_) => None,
            },
            Node::Internal { keys, children } => {
                let idx = keys.partition_point(|k| k.as_ref() <= key);
                let removed = Self::remove_rec(&mut children[idx], key)?;
                if children[idx].key_count() < MIN_KEYS {
                    Self::rebalance(keys, children, idx);
                }
                Some(removed)
            }
        }
    }

    /// Fix an underfull child `idx` by borrowing from a sibling or merging.
    fn rebalance(keys: &mut Vec<Box<str>>, children: &mut Vec<Node>, idx: usize) {
        // Try borrowing from the left sibling.
        if idx > 0 && children[idx - 1].key_count() > MIN_KEYS {
            let (left_slice, right_slice) = children.split_at_mut(idx);
            let left = &mut left_slice[idx - 1];
            let child = &mut right_slice[0];
            match (left, child) {
                (Node::Leaf { keys: lk, vals: lv }, Node::Leaf { keys: ck, vals: cv }) => {
                    let k = lk.pop().expect("left has spare");
                    let v = lv.pop().expect("left has spare");
                    ck.insert(0, k.clone());
                    cv.insert(0, v);
                    keys[idx - 1] = k;
                }
                (
                    Node::Internal {
                        keys: lk,
                        children: lc,
                    },
                    Node::Internal {
                        keys: ck,
                        children: cc,
                    },
                ) => {
                    // Rotate through the parent separator.
                    let sep = std::mem::replace(&mut keys[idx - 1], lk.pop().expect("spare"));
                    ck.insert(0, sep);
                    cc.insert(0, lc.pop().expect("spare child"));
                }
                _ => unreachable!("siblings are at the same level"),
            }
            return;
        }
        // Try borrowing from the right sibling.
        if idx + 1 < children.len() && children[idx + 1].key_count() > MIN_KEYS {
            let (left_slice, right_slice) = children.split_at_mut(idx + 1);
            let child = &mut left_slice[idx];
            let right = &mut right_slice[0];
            match (child, right) {
                (Node::Leaf { keys: ck, vals: cv }, Node::Leaf { keys: rk, vals: rv }) => {
                    ck.push(rk.remove(0));
                    cv.push(rv.remove(0));
                    keys[idx] = rk[0].clone();
                }
                (
                    Node::Internal {
                        keys: ck,
                        children: cc,
                    },
                    Node::Internal {
                        keys: rk,
                        children: rc,
                    },
                ) => {
                    let sep = std::mem::replace(&mut keys[idx], rk.remove(0));
                    ck.push(sep);
                    cc.push(rc.remove(0));
                }
                _ => unreachable!("siblings are at the same level"),
            }
            return;
        }
        // Merge with a sibling (prefer left so indices stay simple).
        let (merge_left_idx, sep_idx) = if idx > 0 {
            (idx - 1, idx - 1)
        } else {
            (idx, idx)
        };
        let right_node = children.remove(merge_left_idx + 1);
        let sep = keys.remove(sep_idx);
        let left_node = &mut children[merge_left_idx];
        match (left_node, right_node) {
            (Node::Leaf { keys: lk, vals: lv }, Node::Leaf { keys: rk, vals: rv }) => {
                lk.extend(rk);
                lv.extend(rv);
            }
            (
                Node::Internal {
                    keys: lk,
                    children: lc,
                },
                Node::Internal {
                    keys: rk,
                    children: rc,
                },
            ) => {
                lk.push(sep);
                lk.extend(rk);
                lc.extend(rc);
            }
            _ => unreachable!("siblings are at the same level"),
        }
    }

    /// All `(key, value)` pairs in key order.
    pub fn entries(&self) -> Vec<(String, u64)> {
        let mut out = Vec::with_capacity(self.len);
        Self::collect(&self.root, &mut |k, v| out.push((k.to_string(), v)));
        out
    }

    /// All pairs whose key starts with `prefix`, in key order (used by
    /// `readdir` to enumerate a directory's children).
    pub fn entries_with_prefix(&self, prefix: &str) -> Vec<(String, u64)> {
        let mut out = Vec::new();
        Self::collect(&self.root, &mut |k, v| {
            if k.starts_with(prefix) {
                out.push((k.to_string(), v));
            }
        });
        out
    }

    fn collect(node: &Node, f: &mut impl FnMut(&str, u64)) {
        match node {
            Node::Leaf { keys, vals } => {
                for (k, v) in keys.iter().zip(vals) {
                    f(k, *v);
                }
            }
            Node::Internal { children, .. } => {
                for c in children {
                    Self::collect(c, f);
                }
            }
        }
    }

    /// Serialize as sorted `(key, value)` pairs.
    pub fn encode(&self) -> Vec<u8> {
        let mut v = Vec::new();
        v.extend_from_slice(&(self.len as u64).to_le_bytes());
        Self::collect(&self.root, &mut |k, val| {
            v.extend_from_slice(&(k.len() as u32).to_le_bytes());
            v.extend_from_slice(k.as_bytes());
            v.extend_from_slice(&val.to_le_bytes());
        });
        v
    }

    /// Deserialize; inverse of [`encode`](Self::encode). Returns the tree
    /// and the bytes consumed.
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

    /// Structural invariant check (tests and debug assertions): key order,
    /// separator routing, and fill factors.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        fn check(
            node: &Node,
            lo: Option<&str>,
            hi: Option<&str>,
            is_root: bool,
            depth: &mut Vec<usize>,
            d: usize,
        ) {
            match node {
                Node::Leaf { keys, vals } => {
                    assert_eq!(keys.len(), vals.len());
                    assert!(keys.windows(2).all(|w| w[0] < w[1]), "unsorted leaf");
                    if !is_root {
                        assert!(keys.len() >= MIN_KEYS, "underfull leaf");
                    }
                    assert!(keys.len() <= MAX_KEYS, "overfull leaf");
                    for k in keys {
                        if let Some(lo) = lo {
                            assert!(k.as_ref() >= lo, "key below bound");
                        }
                        if let Some(hi) = hi {
                            assert!(k.as_ref() < hi, "key above bound");
                        }
                    }
                    depth.push(d);
                }
                Node::Internal { keys, children } => {
                    assert_eq!(children.len(), keys.len() + 1);
                    assert!(keys.windows(2).all(|w| w[0] < w[1]), "unsorted internal");
                    if !is_root {
                        assert!(keys.len() >= MIN_KEYS, "underfull internal");
                    }
                    assert!(keys.len() <= MAX_KEYS, "overfull internal");
                    for (i, c) in children.iter().enumerate() {
                        let clo = if i == 0 {
                            lo
                        } else {
                            Some(keys[i - 1].as_ref())
                        };
                        let chi = if i == keys.len() {
                            hi
                        } else {
                            Some(keys[i].as_ref())
                        };
                        check(c, clo, chi, false, depth, d + 1);
                    }
                }
            }
        }
        let mut depths = Vec::new();
        check(&self.root, None, None, true, &mut depths, 0);
        assert!(
            depths.windows(2).all(|w| w[0] == w[1]),
            "leaves at different depths"
        );
        if !self.root.is_leaf() {
            assert!(self.root.key_count() >= 1, "internal root must have a key");
        }
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
        t.check_invariants();
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
        // Delete most keys, in an order that exercises both siblings.
        for i in 0..5_000u64 {
            if i % 10 != 0 {
                assert_eq!(t.remove(&format!("k{i:05}")), Some(i));
            }
            if i % 512 == 0 {
                t.check_invariants();
            }
        }
        t.check_invariants();
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
        t.check_invariants();
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
        u.check_invariants();
        assert_eq!(t.entries(), u.entries());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Full behavioural equivalence with std's BTreeMap under random
        /// interleaved insert/remove/get.
        #[test]
        fn prop_matches_btreemap(
            ops in proptest::collection::vec((0u8..3, 0u16..300, any::<u64>()), 1..800)
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
                    _ => {
                        prop_assert_eq!(ours.get(&key), model.get(&key).copied());
                    }
                }
                prop_assert_eq!(ours.len(), model.len());
            }
            ours.check_invariants();
            let entries = ours.entries();
            let expected: Vec<(String, u64)> =
                model.into_iter().collect();
            prop_assert_eq!(entries, expected);
        }
    }
}
