//! NVMe namespaces: the isolation granule of the paper's security model.
//!
//! §III-F "Security Model": *"All SSDs are divided into at least two
//! namespaces. The job scheduler assigns storage to jobs at the granularity
//! of an NVMe namespace... relying on the isolation property of namespaces
//! to maintain security."*
//!
//! `NamespaceSet` is the device's capacity accounting: the size of each
//! namespace, the namespace-count limit and the free bytes. It keeps no
//! device offsets. Each namespace is served by its own
//! [`NsShard`](crate::device::NsShard) with its own backing store, and the
//! shard bounds-checks every IO against the namespace size, so a namespace
//! can never read or write another's bytes without any address
//! translation. With no layout there is no fragmentation either: a
//! namespace fits whenever the free bytes cover it.

use std::collections::BTreeMap;
use std::fmt;

/// Identifier of one namespace on one device (NSID in NVMe terms).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NsId(pub u32);

/// Namespace-management failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NsError {
    /// Not enough free space for the requested size.
    NoSpace { requested: u64, free: u64 },
    /// Unknown namespace id.
    UnknownNamespace(NsId),
    /// IO outside the namespace's range.
    OutOfRange {
        ns: NsId,
        offset: u64,
        len: u64,
        size: u64,
    },
    /// Device has hit its namespace-count limit.
    TooManyNamespaces { limit: u32 },
}

impl fmt::Display for NsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NsError::NoSpace { requested, free } => write!(
                f,
                "no space for namespace of {requested} bytes ({free} bytes free)"
            ),
            NsError::UnknownNamespace(id) => write!(f, "unknown namespace {id:?}"),
            NsError::OutOfRange {
                ns,
                offset,
                len,
                size,
            } => write!(
                f,
                "IO [{offset}, {}) exceeds namespace {ns:?} of size {size}",
                offset + len
            ),
            NsError::TooManyNamespaces { limit } => {
                write!(f, "device supports at most {limit} namespaces")
            }
        }
    }
}

impl std::error::Error for NsError {}

/// Namespace table for one device.
#[derive(Debug, Clone)]
pub struct NamespaceSet {
    /// Namespace-count limit (NVMe devices support a bounded NSID table;
    /// the paper notes the count is limited but bandwidth is the practical
    /// sharing limit, §III-F).
    limit: u32,
    next_id: u32,
    /// Size of each active namespace.
    sizes: BTreeMap<NsId, u64>,
    free: u64,
}

impl NamespaceSet {
    /// An empty table over `capacity` bytes with the NVMe-typical limit of
    /// 128 namespaces.
    pub fn new(capacity: u64) -> Self {
        Self::with_limit(capacity, 128)
    }

    /// An empty table with an explicit namespace-count limit.
    pub fn with_limit(capacity: u64, limit: u32) -> Self {
        NamespaceSet {
            limit,
            next_id: 1,
            sizes: BTreeMap::new(),
            free: capacity,
        }
    }

    /// Total unallocated bytes.
    pub fn free_bytes(&self) -> u64 {
        self.free
    }

    /// Create a namespace of `size` bytes from free space, as the
    /// scheduler does when a job requests storage and no free namespace
    /// exists ("new ones are created from unused SSD space", §III-F).
    pub fn create(&mut self, size: u64) -> Result<NsId, NsError> {
        assert!(size > 0, "namespace size must be positive");
        if self.sizes.len() as u32 >= self.limit {
            return Err(NsError::TooManyNamespaces { limit: self.limit });
        }
        if size > self.free {
            return Err(NsError::NoSpace {
                requested: size,
                free: self.free,
            });
        }
        self.free -= size;
        let id = NsId(self.next_id);
        self.next_id += 1;
        self.sizes.insert(id, size);
        Ok(id)
    }

    /// Delete a namespace, returning its bytes to free space.
    pub fn delete(&mut self, ns: NsId) -> Result<(), NsError> {
        let size = self
            .sizes
            .remove(&ns)
            .ok_or(NsError::UnknownNamespace(ns))?;
        self.free += size;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn create_accounts_free_bytes() {
        let mut t = NamespaceSet::new(1000);
        let a = t.create(400).unwrap();
        let b = t.create(400).unwrap();
        assert_ne!(a, b);
        assert_eq!(t.free_bytes(), 200);
        assert_eq!(t.delete(NsId(99)), Err(NsError::UnknownNamespace(NsId(99))));
    }

    #[test]
    fn delete_returns_bytes_to_free_space() {
        let mut t = NamespaceSet::new(300);
        let a = t.create(100).unwrap();
        let b = t.create(100).unwrap();
        let c = t.create(100).unwrap();
        assert!(t.create(1).is_err());
        // Free the middle, then the first: a 200-byte namespace fits again.
        t.delete(b).unwrap();
        t.delete(a).unwrap();
        let d = t.create(200).unwrap();
        t.delete(c).unwrap();
        t.delete(d).unwrap();
        assert_eq!(t.free_bytes(), 300);
        t.create(300).unwrap();
    }

    #[test]
    fn namespace_limit() {
        let mut t = NamespaceSet::with_limit(1000, 2);
        t.create(10).unwrap();
        t.create(10).unwrap();
        assert!(matches!(
            t.create(10),
            Err(NsError::TooManyNamespaces { limit: 2 })
        ));
    }

    #[test]
    fn no_space_reports_free_bytes() {
        let mut t = NamespaceSet::new(100);
        let _a = t.create(60).unwrap();
        assert_eq!(
            t.create(50),
            Err(NsError::NoSpace {
                requested: 50,
                free: 40
            })
        );
    }

    proptest! {
        /// Live namespace sizes and free bytes always sum to the capacity,
        /// and a create fails exactly when the free bytes fall short.
        #[test]
        fn prop_sizes_and_free_bytes_sum_to_capacity(
            ops in proptest::collection::vec((1u64..200, any::<bool>()), 1..60)
        ) {
            let mut t = NamespaceSet::new(4096);
            let mut live: Vec<(NsId, u64)> = Vec::new();
            for (size, del) in ops {
                if del && !live.is_empty() {
                    let (id, _) = live.remove(live.len() / 2);
                    t.delete(id).unwrap();
                } else {
                    let free = t.free_bytes();
                    match t.create(size) {
                        Ok(id) => live.push((id, size)),
                        Err(e) => prop_assert_eq!(e, NsError::NoSpace { requested: size, free }),
                    }
                }
                let used: u64 = live.iter().map(|&(_, s)| s).sum();
                prop_assert_eq!(used + t.free_bytes(), 4096);
            }
        }
    }
}
