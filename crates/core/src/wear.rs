//! Static wear leveling.
//!
//! Dynamic wear leveling falls out of the FIFO free-block pools (freshly
//! erased blocks go to the back of the queue).  Static wear leveling handles
//! *cold* data: blocks whose content never changes would otherwise never be
//! erased, concentrating wear on the remaining blocks.  When the spread
//! between the most- and least-worn block exceeds a threshold, the cold
//! block's content is migrated so the barely-used block re-enters circulation.

use nand_flash::{BlockAddr, NandDevice, NativeFlashInterface};

use crate::regions::{RegionId, RegionManager};

/// A static wear-leveling migration decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WearMigration {
    /// The cold block whose (static) content should be moved away.
    pub cold_block: BlockAddr,
    /// Erase-count spread that triggered the migration.
    pub spread: u64,
}

/// Static wear-leveling policy.
#[derive(Debug, Clone, Copy)]
pub struct WearLeveler {
    /// Trigger threshold: migrate when `max_erase − min_erase > threshold`.
    pub threshold: u64,
    /// Check cadence: evaluate the policy every `check_every` erases.
    pub check_every: u64,
    erases_since_check: u64,
}

impl WearLeveler {
    /// Create a leveler with the given threshold, checking every 64 erases.
    pub fn new(threshold: u64) -> Self {
        Self {
            threshold,
            check_every: 64,
            erases_since_check: 0,
        }
    }

    /// Notify the leveler that one erase happened; returns `true` when it is
    /// time to evaluate the policy.
    pub fn on_erase(&mut self) -> bool {
        self.erases_since_check += 1;
        if self.erases_since_check >= self.check_every {
            self.erases_since_check = 0;
            true
        } else {
            false
        }
    }

    /// Evaluate the policy for `region`: returns the cold block to migrate if
    /// the wear spread exceeds the threshold.
    pub fn select_migration(
        &self,
        device: &NandDevice,
        regions: &RegionManager,
        region: RegionId,
    ) -> Option<WearMigration> {
        let geometry = *device.geometry();
        let mut min: Option<(BlockAddr, u64)> = None;
        let mut max_erase = 0u64;
        for die in regions.dies_of(region) {
            for plane in 0..geometry.planes_per_die {
                for block in 0..geometry.blocks_per_plane {
                    let addr = BlockAddr::new(die.channel, die.die, plane, block);
                    let info = match device.block_info(addr) {
                        Ok(i) if i.usable => i,
                        _ => continue,
                    };
                    max_erase = max_erase.max(info.erase_count);
                    // Only closed blocks holding live data are migration
                    // candidates (free/active blocks recycle naturally).
                    if regions.is_active(addr) || regions.is_free(addr) {
                        continue;
                    }
                    if info.valid_pages == 0 {
                        continue;
                    }
                    if min.is_none_or(|(_, e)| info.erase_count < e) {
                        min = Some((addr, info.erase_count));
                    }
                }
            }
        }
        let (cold, min_erase) = min?;
        let spread = max_erase.saturating_sub(min_erase);
        (spread > self.threshold).then_some(WearMigration {
            cold_block: cold,
            spread,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regions::StripingMode;
    use nand_flash::{FlashGeometry, NativeFlashInterface, Oob};

    #[test]
    fn cadence_counter() {
        let mut wl = WearLeveler::new(10);
        wl.check_every = 3;
        assert!(!wl.on_erase());
        assert!(!wl.on_erase());
        assert!(wl.on_erase());
        assert!(!wl.on_erase());
    }

    #[test]
    fn no_migration_when_wear_is_even() {
        let g = FlashGeometry::tiny();
        let device = NandDevice::with_geometry(g);
        let regions = RegionManager::new(g, StripingMode::DieWise);
        let wl = WearLeveler::new(16);
        assert!(wl.select_migration(&device, &regions, 0).is_none());
    }

    #[test]
    fn migration_selected_when_spread_exceeds_threshold() {
        let g = FlashGeometry::tiny();
        let mut device = NandDevice::with_geometry(g);
        let mut regions = RegionManager::new(g, StripingMode::DieWise);
        let data = vec![0u8; g.page_size as usize];
        // A cold block with live data (allocated through the region manager so
        // it is not in the free pool), then another block erased many times.
        for _ in 0..g.pages_per_block {
            let ppa = regions.allocate_page_in(0).unwrap();
            device.program_page(0, ppa, &data, Oob::data(1, 0)).unwrap();
        }
        let _ = regions.allocate_page_in(0).unwrap(); // close the cold block
        let hot = BlockAddr::new(0, 0, 0, 7);
        for _ in 0..40 {
            device.erase_block(0, hot).unwrap();
        }
        let wl = WearLeveler::new(16);
        let migration = wl.select_migration(&device, &regions, 0).unwrap();
        assert_eq!(migration.cold_block, BlockAddr::new(0, 0, 0, 0));
        assert!(migration.spread >= 40);
    }
}
