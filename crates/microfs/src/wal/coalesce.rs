//! Log record coalescing — Figure 5, on the log's last record only.
//!
//! "We take advantage of the sequential nature of checkpoint IO to combine
//! near-adjacent log records as long as they represent consecutive writes
//! to the same checkpoint file." (§III-E)
//!
//! [`LastWrite`] remembers the device position and coverage of the log's
//! last record while it is a `Write`. A write of the same inode starting
//! exactly where that record ends is merged into it: the record is
//! rewritten in place with the extended length. Any other append ends the
//! run, because replay re-derives each write's blocks in log order and a
//! merge across another record's allocation would replay out of order.

use crate::inode::Ino;

/// Coverage of one on-device `Write` record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WriteRun {
    pub(crate) ino: Ino,
    /// File offset where the record's coverage starts.
    pub(crate) start: u64,
    /// File offset one past the record's coverage.
    pub(crate) end: u64,
    /// Device byte position of the record's frame.
    pub(crate) device_pos: u64,
}

/// The log's last record, while it is a `Write`: the one record a
/// sequential write may extend in place.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LastWrite(Option<WriteRun>);

impl LastWrite {
    /// The last record extended by a write of `len` bytes at `offset` of
    /// `ino`, if the write continues it exactly. The state is unchanged
    /// until the caller [`set`](Self::set)s the rewritten record.
    pub(crate) fn extend(&self, ino: Ino, offset: u64, len: u64) -> Option<WriteRun> {
        self.0
            .filter(|run| run.ino == ino && run.end == offset)
            .map(|run| WriteRun {
                end: offset + len,
                ..run
            })
    }

    /// Record what the log's last record now is: `Some` after a `Write`
    /// lands, `None` after any other append or a reset.
    pub(crate) fn set(&mut self, run: Option<WriteRun>) {
        self.0 = run;
    }

    /// Stop extending the last record if it covers `ino`.
    pub(crate) fn invalidate(&mut self, ino: Ino) {
        if self.0.is_some_and(|run| run.ino == ino) {
            self.0 = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(ino: Ino, start: u64, end: u64, device_pos: u64) -> WriteRun {
        WriteRun {
            ino,
            start,
            end,
            device_pos,
        }
    }

    #[test]
    fn sequential_writes_coalesce() {
        let mut last = LastWrite::default();
        assert_eq!(last.extend(1, 0, 100), None);
        last.set(Some(run(1, 0, 100, 10)));
        let e = last
            .extend(1, 100, 50)
            .expect("sequential write must extend");
        assert_eq!((e.start, e.end, e.device_pos), (0, 150, 10));
        // Nothing moves until the rewrite is set; then the next write
        // continues the extended coverage.
        assert_eq!(last.extend(1, 150, 50), None);
        last.set(Some(e));
        assert_eq!(last.extend(1, 150, 50).unwrap().end, 200);
        last.set(None);
        assert_eq!(last.extend(1, 150, 50), None);
    }

    #[test]
    fn invalidate_removes_inode_records() {
        let mut last = LastWrite::default();
        last.set(Some(run(2, 0, 10, 40)));
        last.invalidate(1);
        assert!(last.extend(2, 10, 5).is_some());
        last.invalidate(2);
        assert_eq!(last.extend(2, 10, 5), None);
    }
}
