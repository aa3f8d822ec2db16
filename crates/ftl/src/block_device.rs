//! The legacy block-device interface (Figure 1.a / 1.b of the paper).
//!
//! A [`BlockDevice`] exposes only `READ(logical block)` / `WRITE(logical
//! block)` — exactly the interface that hides the native behaviour of Flash.
//! [`FtlBlockDevice`] puts any [`Ftl`] behind that interface; this is the
//! "conventional Flash SSD" the paper compares NoFTL against.
//! [`MemBlockDevice`] is a RAM-backed device with zero latency, used to run
//! benchmarks "in memory" when recording page-level traces (the methodology
//! of Figure 3).

use nand_flash::{FlashError, FlashResult, NativeFlashInterface, OpCompletion};
use sim_utils::time::SimInstant;

use crate::stats::FtlStats;
use crate::traits::Ftl;

/// A device addressed by logical block (= page-sized sector) numbers.
pub trait BlockDevice {
    /// Size of one logical block in bytes.
    fn block_size(&self) -> usize;

    /// Number of logical blocks exported.
    fn num_blocks(&self) -> u64;

    /// Read logical block `lba` into `buf`.
    fn read_block(
        &mut self,
        now: SimInstant,
        lba: u64,
        buf: &mut [u8],
    ) -> FlashResult<OpCompletion>;

    /// Write logical block `lba` from `data`.
    fn write_block(
        &mut self,
        now: SimInstant,
        lba: u64,
        data: &[u8],
    ) -> FlashResult<OpCompletion>;

    /// Discard logical block `lba` (TRIM); optional, default no-op.
    fn trim_block(&mut self, _now: SimInstant, _lba: u64) -> FlashResult<()> {
        Ok(())
    }

    /// Statistics of the FTL inside the device, if it has one: the GC
    /// copies and erases the block interface hides from the host.
    fn ftl_stats(&self) -> Option<&FtlStats> {
        None
    }
}

/// A block device backed by an FTL over NAND Flash — i.e. a conventional SSD.
pub struct FtlBlockDevice<F: Ftl> {
    ftl: F,
}

impl<F: Ftl> FtlBlockDevice<F> {
    /// Wrap an FTL behind the legacy block interface.
    pub fn new(ftl: F) -> Self {
        Self { ftl }
    }

    /// Borrow the wrapped FTL (for statistics inspection).
    pub fn ftl(&self) -> &F {
        &self.ftl
    }

    /// Mutably borrow the wrapped FTL.
    pub fn ftl_mut(&mut self) -> &mut F {
        &mut self.ftl
    }

    /// Unwrap into the FTL.
    pub fn into_ftl(self) -> F {
        self.ftl
    }
}

impl<F: Ftl> BlockDevice for FtlBlockDevice<F> {
    fn block_size(&self) -> usize {
        self.ftl.device().geometry().page_size as usize
    }

    fn num_blocks(&self) -> u64 {
        self.ftl.logical_pages()
    }

    fn read_block(
        &mut self,
        now: SimInstant,
        lba: u64,
        buf: &mut [u8],
    ) -> FlashResult<OpCompletion> {
        self.ftl.read(now, lba, buf)
    }

    fn write_block(
        &mut self,
        now: SimInstant,
        lba: u64,
        data: &[u8],
    ) -> FlashResult<OpCompletion> {
        self.ftl.write(now, lba, data)
    }

    fn trim_block(&mut self, now: SimInstant, lba: u64) -> FlashResult<()> {
        self.ftl.trim(now, lba)
    }

    fn ftl_stats(&self) -> Option<&FtlStats> {
        Some(self.ftl.ftl_stats())
    }
}

/// A purely in-memory block device with zero latency.
///
/// Used to run a benchmark "in memory" while recording its page-level I/O
/// trace (the methodology the paper uses for the off-line GC comparison of
/// Figure 3), and as a correctness oracle in differential tests.
pub struct MemBlockDevice {
    block_size: usize,
    blocks: Vec<Option<Box<[u8]>>>,
    reads: u64,
    writes: u64,
}

impl MemBlockDevice {
    /// Create a device with `num_blocks` blocks of `block_size` bytes.
    pub fn new(block_size: usize, num_blocks: u64) -> Self {
        Self {
            block_size,
            blocks: vec![None; num_blocks as usize],
            reads: 0,
            writes: 0,
        }
    }

    /// Number of reads served.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Number of writes absorbed.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    fn check(&self, lba: u64, len: usize) -> FlashResult<()> {
        if lba >= self.blocks.len() as u64 {
            return Err(FlashError::InvalidAddress {
                what: format!("lba {lba} out of range ({} blocks)", self.blocks.len()),
            });
        }
        if len != self.block_size {
            return Err(FlashError::BufferSizeMismatch {
                expected: self.block_size,
                actual: len,
            });
        }
        Ok(())
    }
}

impl BlockDevice for MemBlockDevice {
    fn block_size(&self) -> usize {
        self.block_size
    }

    fn num_blocks(&self) -> u64 {
        self.blocks.len() as u64
    }

    fn read_block(
        &mut self,
        now: SimInstant,
        lba: u64,
        buf: &mut [u8],
    ) -> FlashResult<OpCompletion> {
        self.check(lba, buf.len())?;
        match &self.blocks[lba as usize] {
            Some(data) => buf.copy_from_slice(data),
            None => buf.fill(0),
        }
        self.reads += 1;
        Ok(OpCompletion {
            started_at: now,
            completed_at: now,
        })
    }

    fn write_block(
        &mut self,
        now: SimInstant,
        lba: u64,
        data: &[u8],
    ) -> FlashResult<OpCompletion> {
        self.check(lba, data.len())?;
        self.blocks[lba as usize] = Some(data.to_vec().into_boxed_slice());
        self.writes += 1;
        Ok(OpCompletion {
            started_at: now,
            completed_at: now,
        })
    }

    fn trim_block(&mut self, _now: SimInstant, lba: u64) -> FlashResult<()> {
        self.check(lba, self.block_size)?;
        self.blocks[lba as usize] = None;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page_ftl::PageFtl;
    use nand_flash::FlashGeometry;

    #[test]
    fn mem_device_roundtrip() {
        let mut dev = MemBlockDevice::new(512, 16);
        let data = vec![0xAAu8; 512];
        dev.write_block(0, 3, &data).unwrap();
        let mut buf = vec![0u8; 512];
        dev.read_block(0, 3, &mut buf).unwrap();
        assert_eq!(buf, data);
        assert_eq!(dev.reads(), 1);
        assert_eq!(dev.writes(), 1);
    }

    #[test]
    fn mem_device_unwritten_reads_zero() {
        let mut dev = MemBlockDevice::new(512, 4);
        let mut buf = vec![0xFFu8; 512];
        dev.read_block(0, 0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn mem_device_bounds_and_sizes_checked() {
        let mut dev = MemBlockDevice::new(512, 4);
        let data = vec![0u8; 512];
        assert!(dev.write_block(0, 4, &data).is_err());
        assert!(dev.write_block(0, 0, &[0u8; 10]).is_err());
    }

    #[test]
    fn mem_device_trim_clears() {
        let mut dev = MemBlockDevice::new(512, 4);
        dev.write_block(0, 1, &vec![7u8; 512]).unwrap();
        dev.trim_block(0, 1).unwrap();
        let mut buf = vec![0xFFu8; 512];
        dev.read_block(0, 1, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn ftl_block_device_delegates() {
        let ftl = PageFtl::with_geometry(FlashGeometry::small());
        let mut dev = FtlBlockDevice::new(ftl);
        assert_eq!(dev.block_size(), 4096);
        assert!(dev.num_blocks() > 0);
        let data = vec![0x11u8; 4096];
        dev.write_block(0, 5, &data).unwrap();
        let mut buf = vec![0u8; 4096];
        dev.read_block(0, 5, &mut buf).unwrap();
        assert_eq!(buf, data);
        assert_eq!(dev.ftl().ftl_stats().host_writes, 1);
        dev.trim_block(0, 5).unwrap();
        assert!(dev.read_block(0, 5, &mut buf).is_err());
    }

    #[test]
    fn block_device_is_object_safe() {
        let ftl = PageFtl::with_geometry(FlashGeometry::tiny());
        let mut boxed: Box<dyn BlockDevice> = Box::new(FtlBlockDevice::new(ftl));
        let data = vec![1u8; boxed.block_size()];
        boxed.write_block(0, 0, &data).unwrap();
        let mut buf = vec![0u8; boxed.block_size()];
        boxed.read_block(0, 0, &mut buf).unwrap();
        assert_eq!(buf, data);
    }
}
