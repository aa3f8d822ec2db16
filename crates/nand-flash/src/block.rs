//! Erase blocks: the unit of erasure, wear and GC victim selection.

use sim_utils::time::SimInstant;

use crate::oob::Oob;
use crate::page::{Page, PageState};

/// Health of an erase block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockHealth {
    /// Fully usable.
    Good,
    /// Marked bad at the factory (never usable).
    FactoryBad,
    /// Failed in the field (program/erase failure or worn out).
    GrownBad,
}

/// An erase block: a fixed-size run of pages that must be programmed
/// sequentially and erased as a unit.
#[derive(Debug, Clone)]
pub struct Block {
    pages: Vec<Page>,
    /// Next page index that may be programmed (NAND sequential-program rule).
    next_program_page: u32,
    /// Number of erase cycles this block has endured.
    erase_count: u64,
    /// Number of pages currently in the [`PageState::Valid`] state.
    valid_pages: u32,
    /// Number of pages currently in the [`PageState::Invalid`] state.
    invalid_pages: u32,
    /// Health state.
    health: BlockHealth,
    /// Reads served since the last erase (the read-disturb stress of the
    /// fault model; maintained only while a fault plan is active).
    read_disturb: u64,
    /// Virtual instant of the last program into the block (the retention
    /// base of the fault model; maintained only while a fault plan is
    /// active).
    programmed_at: SimInstant,
}

impl Block {
    /// Create a new, erased block with `pages_per_block` pages.
    pub fn new(pages_per_block: u32) -> Self {
        Self {
            pages: (0..pages_per_block).map(|_| Page::erased()).collect(),
            next_program_page: 0,
            erase_count: 0,
            valid_pages: 0,
            invalid_pages: 0,
            health: BlockHealth::Good,
            read_disturb: 0,
            programmed_at: 0,
        }
    }

    /// Number of pages in the block.
    pub fn pages_per_block(&self) -> u32 {
        self.pages.len() as u32
    }

    /// Immutable access to a page.
    pub fn page(&self, idx: u32) -> &Page {
        &self.pages[idx as usize]
    }

    /// Next page index expected by the sequential-programming rule; equals
    /// `pages_per_block()` when the block is full.
    pub fn next_program_page(&self) -> u32 {
        self.next_program_page
    }

    /// Whether every page of the block has been programmed.
    pub fn is_full(&self) -> bool {
        self.valid_pages + self.invalid_pages >= self.pages_per_block()
    }

    /// Whether the block is completely erased (no page programmed).
    pub fn is_erased(&self) -> bool {
        self.next_program_page == 0
    }

    /// Number of erase cycles endured so far.
    pub fn erase_count(&self) -> u64 {
        self.erase_count
    }

    /// Number of valid (live) pages.
    pub fn valid_pages(&self) -> u32 {
        self.valid_pages
    }

    /// Number of invalid (dead) pages.
    pub fn invalid_pages(&self) -> u32 {
        self.invalid_pages
    }

    /// Number of still-free pages.
    pub fn free_pages(&self) -> u32 {
        self.pages_per_block() - self.valid_pages - self.invalid_pages
    }

    /// Health state.
    pub fn health(&self) -> BlockHealth {
        self.health
    }

    /// Whether the block can be used for new programs/erases.
    pub fn is_usable(&self) -> bool {
        self.health == BlockHealth::Good
    }

    /// Reads served since the last erase (read-disturb stress; maintained
    /// only while a fault plan is active).
    pub fn read_disturb(&self) -> u64 {
        self.read_disturb
    }

    /// Virtual instant of the last program into the block (retention base;
    /// maintained only while a fault plan is active).
    pub fn programmed_at(&self) -> SimInstant {
        self.programmed_at
    }

    /// Count one read against the block's read-disturb stress.
    pub(crate) fn note_read_disturb(&mut self) {
        self.read_disturb += 1;
    }

    /// Note the virtual instant of a program into the block.
    pub(crate) fn note_programmed_at(&mut self, now: SimInstant) {
        self.programmed_at = now;
    }

    /// Mark the block bad (factory or grown).
    pub(crate) fn mark_bad(&mut self, health: BlockHealth) {
        self.health = health;
    }

    /// Record a program of page `idx`. The device has already validated the
    /// page is free (and, in strict mode, the sequential-programming rule).
    pub(crate) fn record_program(&mut self, idx: u32, data: Option<Box<[u8]>>, oob: Oob) {
        let page = &mut self.pages[idx as usize];
        debug_assert!(page.state == PageState::Free, "program on non-free page");
        page.state = PageState::Valid;
        page.data = data;
        page.oob = oob;
        self.next_program_page = self.next_program_page.max(idx + 1);
        self.valid_pages += 1;
    }

    /// Mark a previously valid page invalid (its logical content was
    /// superseded or discarded). Idempotent for already-invalid pages.
    pub fn invalidate_page(&mut self, idx: u32) {
        let page = &mut self.pages[idx as usize];
        match page.state {
            PageState::Valid => {
                page.state = PageState::Invalid;
                self.valid_pages -= 1;
                self.invalid_pages += 1;
            }
            PageState::Invalid => {}
            PageState::Free => {
                // Invalidating a free page is a no-op; FTLs may do this when
                // trimming pages that were never written.
            }
        }
    }

    /// Erase the whole block: every page returns to `Free`, wear increases.
    pub(crate) fn erase(&mut self) {
        for p in &mut self.pages {
            p.erase();
        }
        self.next_program_page = 0;
        self.valid_pages = 0;
        self.invalid_pages = 0;
        self.erase_count += 1;
        self.read_disturb = 0;
        self.programmed_at = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_block_is_erased_and_good() {
        let b = Block::new(16);
        assert!(b.is_erased());
        assert!(!b.is_full());
        assert!(b.is_usable());
        assert_eq!(b.free_pages(), 16);
        assert_eq!(b.erase_count(), 0);
    }

    #[test]
    fn program_advances_write_pointer_and_counts() {
        let mut b = Block::new(4);
        for i in 0..4 {
            b.record_program(i, None, Oob::data(i as u64, i as u64));
        }
        assert!(b.is_full());
        assert_eq!(b.valid_pages(), 4);
        assert_eq!(b.free_pages(), 0);
    }

    #[test]
    fn invalidate_moves_counts() {
        let mut b = Block::new(4);
        b.record_program(0, None, Oob::data(9, 0));
        b.invalidate_page(0);
        assert_eq!(b.valid_pages(), 0);
        assert_eq!(b.invalid_pages(), 1);
        // Idempotent.
        b.invalidate_page(0);
        assert_eq!(b.invalid_pages(), 1);
        // Invalidating a free page is a no-op.
        b.invalidate_page(2);
        assert_eq!(b.invalid_pages(), 1);
    }

    #[test]
    fn erase_resets_and_bumps_wear() {
        let mut b = Block::new(4);
        b.record_program(0, Some(vec![1u8; 8].into_boxed_slice()), Oob::data(1, 1));
        b.record_program(1, None, Oob::data(2, 2));
        b.invalidate_page(0);
        b.erase();
        assert!(b.is_erased());
        assert_eq!(b.valid_pages(), 0);
        assert_eq!(b.invalid_pages(), 0);
        assert_eq!(b.erase_count(), 1);
        assert!(b.page(0).is_free());
        b.erase();
        assert_eq!(b.erase_count(), 2);
    }

    #[test]
    fn mark_bad_makes_unusable() {
        let mut b = Block::new(4);
        b.mark_bad(BlockHealth::GrownBad);
        assert!(!b.is_usable());
        assert_eq!(b.health(), BlockHealth::GrownBad);
    }
}
