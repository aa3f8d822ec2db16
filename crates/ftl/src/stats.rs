//! FTL-level statistics: host I/O, garbage-collection work, merges and
//! translation-table traffic.
//!
//! Together with [`nand_flash::FlashStats`] these counters produce the rows of
//! the paper's Figure 3 (copyback / erase overhead of GC) and the write
//! amplification behind the lifetime claim of §5.

use sim_utils::histogram::Histogram;

/// Counters maintained by every FTL implementation.
#[derive(Debug, Clone, Default)]
pub struct FtlStats {
    /// Logical page reads requested by the host.
    pub host_reads: u64,
    /// Logical page writes requested by the host.
    pub host_writes: u64,
    /// TRIM/discard requests from the host.
    pub host_trims: u64,
    /// Pages relocated by garbage collection (copyback or read+program).
    pub gc_page_copies: u64,
    /// Blocks erased by garbage collection.
    pub gc_erases: u64,
    /// Synchronous GC invocations that stalled a host write.
    pub gc_stalls: u64,
    /// Full merges performed (log-block FTLs).
    pub full_merges: u64,
    /// Partial merges performed (log-block FTLs).
    pub partial_merges: u64,
    /// Switch merges performed (log-block FTLs).
    pub switch_merges: u64,
    /// Translation-page reads (DFTL cache misses).
    pub translation_reads: u64,
    /// Translation-page writes (DFTL dirty evictions / relocations).
    pub translation_writes: u64,
    /// Host-visible write latency histogram (ns).
    pub write_latency: Histogram,
    /// Host-visible read latency histogram (ns).
    pub read_latency: Histogram,
}

impl FtlStats {
    /// Create zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Write amplification: physical page programs (host + GC + translation)
    /// divided by host page writes. `1.0` when the host has written nothing.
    pub fn write_amplification(&self) -> f64 {
        if self.host_writes == 0 {
            return 1.0;
        }
        let physical = self.host_writes + self.gc_page_copies + self.translation_writes;
        physical as f64 / self.host_writes as f64
    }

    /// Total merges of any kind.
    pub fn total_merges(&self) -> u64 {
        self.full_merges + self.partial_merges + self.switch_merges
    }

    /// Reset all counters.
    pub fn clear(&mut self) {
        *self = FtlStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_amplification_baseline_is_one() {
        let s = FtlStats::new();
        assert_eq!(s.write_amplification(), 1.0);
    }

    #[test]
    fn write_amplification_counts_gc_and_translation() {
        let mut s = FtlStats::new();
        s.host_writes = 100;
        s.gc_page_copies = 40;
        s.translation_writes = 10;
        assert!((s.write_amplification() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn merge_total() {
        let mut s = FtlStats::new();
        s.full_merges = 2;
        s.partial_merges = 3;
        s.switch_merges = 5;
        assert_eq!(s.total_merges(), 10);
    }

    #[test]
    fn clear_resets() {
        let mut s = FtlStats::new();
        s.host_reads = 7;
        s.write_latency.record(100);
        s.clear();
        assert_eq!(s.host_reads, 0);
        assert_eq!(s.write_latency.count(), 0);
    }
}
