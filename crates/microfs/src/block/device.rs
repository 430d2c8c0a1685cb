//! The device abstraction microfs writes through.
//!
//! `microfs` is substrate-agnostic: in unit tests it runs over an in-memory
//! [`MemDevice`]; in the NVMe-CR runtime it runs over an NVMf connection to
//! a remote SSD partition (the `nvmecr` crate provides that impl). The
//! trait is deliberately a thin byte-addressed interface — the *filesystem*
//! decides hugeblock alignment; the device just moves bytes.

use std::fmt;

/// Device-level IO failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DevError(pub String);

impl fmt::Display for DevError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "device error: {}", self.0)
    }
}

impl std::error::Error for DevError {}

/// Lifetime IO counters, used for the paper's metadata-overhead accounting
/// (Table I) — callers snapshot these before/after metadata operations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoCounters {
    /// Write operations issued.
    pub writes: u64,
    /// Read operations issued.
    pub reads: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Payload bytes memcpy'd by the device path itself. Only `MemDevice`
    /// fills it: `NvmfBlockDevice` reports 0 here although it stages each
    /// written byte once. The data plane's copy count is the telemetry
    /// counter `fabric.bytes_copied`.
    pub bytes_copied: u64,
}

/// A byte-addressed storage device.
pub trait BlockDevice {
    /// Write `data` at `offset`.
    fn write_at(&mut self, offset: u64, data: &[u8]) -> Result<(), DevError>;

    /// Read into `buf` from `offset`.
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<(), DevError>;

    /// Ensure previously written data is durable.
    fn flush(&mut self) -> Result<(), DevError>;

    /// Device (partition) size in bytes.
    fn size(&self) -> u64;

    /// Lifetime IO counters.
    fn counters(&self) -> IoCounters;

    /// Read `len` bytes into a fresh vector.
    fn read_vec(&mut self, offset: u64, len: usize) -> Result<Vec<u8>, DevError> {
        let mut v = vec![0u8; len];
        self.read_at(offset, &mut v)?;
        Ok(v)
    }

    /// Write a batch of `(offset, data)` extents. The default issues them
    /// one at a time; pipelined devices (the NVMf-backed one) override this
    /// to keep `queue_depth` commands in flight so a whole hugeblock batch
    /// crosses the fabric in one submission window. Extents take effect in
    /// slice order — a later extent overlapping an earlier one wins.
    fn write_vectored_at(&mut self, writes: &[(u64, &[u8])]) -> Result<(), DevError> {
        for &(offset, data) in writes {
            self.write_at(offset, data)?;
        }
        Ok(())
    }

    /// Read a batch of `(offset, buffer)` extents. The default issues them
    /// one at a time; pipelined devices override to batch the reads
    /// through their submission window.
    fn read_vectored_at(&mut self, reads: &mut [(u64, &mut [u8])]) -> Result<(), DevError> {
        for (offset, buf) in reads.iter_mut() {
            self.read_at(*offset, buf)?;
        }
        Ok(())
    }

    /// Hint that `[offset, offset+len)` no longer holds live data (a file
    /// was unlinked or truncated). Devices that maintain per-extent state
    /// (the mirrored NVMf device) drop the span from their maps so delta
    /// epochs can record it as a whiteout; plain devices ignore it.
    fn discard_at(&mut self, offset: u64, len: u64) -> Result<(), DevError> {
        let _ = (offset, len);
        Ok(())
    }
}

/// A simple in-memory device for tests and benchmarks.
#[derive(Debug, Clone)]
pub struct MemDevice {
    data: Vec<u8>,
    counters: IoCounters,
}

impl MemDevice {
    /// A zeroed device of `size` bytes.
    pub fn new(size: u64) -> Self {
        MemDevice {
            data: vec![0u8; size as usize],
            counters: IoCounters::default(),
        }
    }

    /// Clone the raw contents (crash-recovery tests snapshot the "media").
    pub fn raw(&self) -> Vec<u8> {
        self.data.clone()
    }

    /// Build a device from raw contents (restore a media snapshot).
    pub fn from_raw(data: Vec<u8>) -> Self {
        MemDevice {
            data,
            counters: IoCounters::default(),
        }
    }
}

impl BlockDevice for MemDevice {
    fn write_at(&mut self, offset: u64, data: &[u8]) -> Result<(), DevError> {
        let end = offset as usize + data.len();
        if end > self.data.len() {
            return Err(DevError(format!(
                "write [{offset}, {end}) beyond device of {}",
                self.data.len()
            )));
        }
        self.data[offset as usize..end].copy_from_slice(data);
        self.counters.writes += 1;
        self.counters.bytes_written += data.len() as u64;
        self.counters.bytes_copied += data.len() as u64;
        Ok(())
    }

    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<(), DevError> {
        let end = offset as usize + buf.len();
        if end > self.data.len() {
            return Err(DevError(format!(
                "read [{offset}, {end}) beyond device of {}",
                self.data.len()
            )));
        }
        buf.copy_from_slice(&self.data[offset as usize..end]);
        self.counters.reads += 1;
        self.counters.bytes_read += buf.len() as u64;
        self.counters.bytes_copied += buf.len() as u64;
        Ok(())
    }

    fn flush(&mut self) -> Result<(), DevError> {
        Ok(())
    }

    fn size(&self) -> u64 {
        self.data.len() as u64
    }

    fn counters(&self) -> IoCounters {
        self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_counters() {
        let mut d = MemDevice::new(4096);
        d.write_at(100, b"abc").unwrap();
        assert_eq!(d.read_vec(100, 3).unwrap(), b"abc");
        let c = d.counters();
        assert_eq!(
            (c.writes, c.reads, c.bytes_written, c.bytes_read),
            (1, 1, 3, 3)
        );
    }

    #[test]
    fn vectored_defaults_loop_in_slice_order() {
        let mut d = MemDevice::new(4096);
        d.write_vectored_at(&[(0, b"aaaa"), (8, b"bbbb"), (0, b"cccc")])
            .unwrap();
        let mut first = [0u8; 4];
        let mut second = [0u8; 4];
        {
            let mut reads: Vec<(u64, &mut [u8])> = vec![(0, &mut first), (8, &mut second)];
            d.read_vectored_at(&mut reads).unwrap();
        }
        assert_eq!(&first, b"cccc", "later overlapping extent wins");
        assert_eq!(&second, b"bbbb");
        assert_eq!(d.counters().writes, 3);
        assert_eq!(d.counters().reads, 2);
    }

    #[test]
    fn bounds_enforced() {
        let mut d = MemDevice::new(16);
        assert!(d.write_at(10, &[0u8; 10]).is_err());
        let mut buf = [0u8; 10];
        assert!(d.read_at(10, &mut buf).is_err());
    }

    #[test]
    fn raw_snapshot_restores_media() {
        let mut d = MemDevice::new(64);
        d.write_at(0, b"persist me").unwrap();
        let media = d.raw();
        let mut d2 = MemDevice::from_raw(media);
        assert_eq!(d2.read_vec(0, 10).unwrap(), b"persist me");
    }
}
