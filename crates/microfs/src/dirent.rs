//! Directory-file records.
//!
//! Each directory is a regular microfs file whose content is an append-only
//! stream of entry records ("for each file create, a corresponding entry
//! must be added to the directory file stored on the remote SSD", §IV-G).
//! Removals append tombstones. The DRAM B+Tree is the fast index; the
//! directory file is the on-device ground truth that makes a create cost
//! one hugeblock-resident append — which is why create throughput is
//! "limited only by hardware bandwidth and not software latency".

use std::collections::HashMap;

use crate::error::FsError;
use crate::inode::Ino;
use crate::wire::Reader;

/// One record in a directory file. The name is owned when decoded and
/// may be borrowed (`Dirent<&str>`) when only encoding or sizing one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Dirent<N = String> {
    /// A name now maps to an inode.
    Add {
        /// Entry name (a single path component).
        name: N,
        /// The entry's inode.
        ino: Ino,
    },
    /// A name was removed (tombstone).
    Remove {
        /// Entry name.
        name: N,
    },
}

impl<N: AsRef<str>> Dirent<N> {
    /// Append the record's bytes to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Dirent::Add { name, ino } => {
                let name = name.as_ref();
                out.push(1);
                out.extend_from_slice(&(name.len() as u16).to_le_bytes());
                out.extend_from_slice(name.as_bytes());
                out.extend_from_slice(&ino.to_le_bytes());
            }
            Dirent::Remove { name } => {
                let name = name.as_ref();
                out.push(2);
                out.extend_from_slice(&(name.len() as u16).to_le_bytes());
                out.extend_from_slice(name.as_bytes());
            }
        }
    }

    /// Encoded size in bytes, computed without encoding.
    pub fn encoded_len(&self) -> usize {
        match self {
            Dirent::Add { name, .. } => 1 + 2 + name.as_ref().len() + 8,
            Dirent::Remove { name } => 1 + 2 + name.as_ref().len(),
        }
    }
}

impl<'a> Dirent<&'a str> {
    /// Parse one record at the reader's position, advancing it; the name
    /// borrows the reader's bytes.
    #[deny(
        clippy::indexing_slicing,
        clippy::arithmetic_side_effects,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic
    )]
    pub fn decode_borrowed(r: &mut Reader<'a>) -> Result<Self, FsError> {
        let (tag, nlen) = (r.u8()?, r.u16()?);
        let name = r.utf8(nlen.into())?;
        match tag {
            1 => Ok(Dirent::Add {
                name,
                ino: r.u64()?,
            }),
            2 => Ok(Dirent::Remove { name }),
            t => Err(FsError::Io(format!("bad dirent tag {t}"))),
        }
    }
}

impl Dirent {
    /// Parse one record at the reader's position, advancing it.
    pub fn decode(r: &mut Reader) -> Result<Dirent, FsError> {
        Ok(match Dirent::decode_borrowed(r)? {
            Dirent::Add { name, ino } => Dirent::Add {
                name: name.to_string(),
                ino,
            },
            Dirent::Remove { name } => Dirent::Remove {
                name: name.to_string(),
            },
        })
    }

    /// Replay a record stream of `len` bytes into the live entries, in the
    /// order of each name's last add. Each add takes the next slot, and a
    /// later add or remove of the same name empties its earlier slot: one
    /// map probe per record, and only the surviving names are copied out.
    #[deny(clippy::indexing_slicing)]
    pub fn replay_stream(bytes: &[u8], len: usize) -> Result<Vec<(String, Ino)>, FsError> {
        let mut r = Reader::new(bytes.get(..len).unwrap_or(bytes));
        let mut adds: Vec<Option<(&str, Ino)>> = Vec::new();
        let mut last_add: HashMap<&str, usize> = HashMap::new();
        while r.position() < len {
            let earlier = match Dirent::decode_borrowed(&mut r)? {
                Dirent::Add { name, ino } => {
                    adds.push(Some((name, ino)));
                    last_add.insert(name, adds.len() - 1)
                }
                Dirent::Remove { name } => last_add.remove(name),
            };
            if let Some(slot) = earlier.and_then(|at| adds.get_mut(at)) {
                *slot = None;
            }
        }
        Ok(adds
            .into_iter()
            .flatten()
            .map(|(name, ino)| (name.to_string(), ino))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_add_and_remove() {
        let recs = vec![
            Dirent::Add {
                name: "ckpt_0.dat".into(),
                ino: 5,
            },
            Dirent::Remove {
                name: "ckpt_0.dat".into(),
            },
        ];
        let mut buf = Vec::new();
        for r in &recs {
            r.encode(&mut buf);
            assert_eq!(r.encoded_len(), buf.len() - (buf.len() - r.encoded_len()));
        }
        let mut r = Reader::new(&buf);
        let a = Dirent::decode(&mut r).unwrap();
        let b = Dirent::decode(&mut r).unwrap();
        assert_eq!(r.position(), buf.len());
        assert_eq!(vec![a, b], recs);
    }

    #[test]
    fn replay_applies_adds_and_tombstones() {
        let mut buf = Vec::new();
        Dirent::Add { name: "a", ino: 1 }.encode(&mut buf);
        Dirent::Add { name: "b", ino: 2 }.encode(&mut buf);
        Dirent::Remove { name: "a" }.encode(&mut buf);
        Dirent::Add { name: "b", ino: 9 }.encode(&mut buf);
        let live = Dirent::replay_stream(&buf, buf.len()).unwrap();
        assert_eq!(live, vec![("b".to_string(), 9)]);
    }

    #[test]
    fn truncated_stream_rejected() {
        let mut buf = Vec::new();
        Dirent::Add {
            name: "file",
            ino: 3,
        }
        .encode(&mut buf);
        assert!(Dirent::replay_stream(&buf, buf.len() - 1).is_err());
    }

    proptest! {
        #[test]
        fn prop_roundtrip(name in "[a-z0-9_.]{1,40}", ino in any::<u64>(), add in any::<bool>()) {
            let r = if add {
                Dirent::Add { name, ino }
            } else {
                Dirent::Remove { name }
            };
            let mut buf = Vec::new();
            r.encode(&mut buf);
            prop_assert_eq!(buf.len(), r.encoded_len());
            // A borrowed-name record sizes and encodes identically.
            let borrowed = match &r {
                Dirent::Add { name, ino } => Dirent::Add { name: name.as_str(), ino: *ino },
                Dirent::Remove { name } => Dirent::Remove { name: name.as_str() },
            };
            let mut bbuf = Vec::new();
            borrowed.encode(&mut bbuf);
            prop_assert_eq!(borrowed.encoded_len(), buf.len());
            prop_assert_eq!(&bbuf, &buf);
            prop_assert_eq!(Dirent::decode(&mut Reader::new(&buf)).unwrap(), r);
        }
    }
}
