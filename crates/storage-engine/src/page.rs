//! Slotted database pages.
//!
//! A [`SlottedPage`] is the classic layout: a header, a slot directory
//! growing from the front and record payloads packed right behind it.  Pages
//! are exactly the backend's page size so they map onto Flash pages
//! one-to-one.  This module is the single definition of the format:
//!
//! ```text
//! offset        size  field
//! 0             8     page id (u64 LE)
//! 8             8     LSN of the last update (u64 LE)
//! 16            4     slot count S (u32 LE), tombstones included
//! 20            4     payload length P (u32 LE)
//! 24            8     magic 0xD0D0_CAFE_F00D_BABE (u64 LE)
//! 32            4*S   slot directory: (offset u16 LE, length u16 LE) per slot;
//!                     offset 0xFFFF with length 0 is a tombstone
//! 32+4S         P     payloads; a slot's offset is relative to 32+4S
//! 32+4S+P       ..    zero up to the page size
//! ```
//!
//! Payloads of live slots are packed in slot order and never overlap: an
//! insert appends the record behind the payload area (shifting the whole
//! area right by one directory entry), a shrinking update rewrites the
//! record in place, a delete leaves a tombstone, and a growing update
//! tombstones the slot, compacts the payloads in slot order and re-inserts.
//! Every shrinking edit zeroes the bytes it vacates, so a page image is a
//! pure function of its slot state.
//!
//! `SlottedPage<B>` works on any byte buffer `B`: a `&[u8]` or `&mut [u8]`
//! borrowed from a buffer-pool frame (the heap file's in-place access path)
//! or an owned `Vec<u8>` (the default; WAL-replay page rescue builds one).
//! Bytes read back from flash are untrusted: [`SlottedPage::open`] checks the
//! header against the buffer length before any offset is used, and every
//! slot is checked against the payload length before it is dereferenced.

/// Identifier of a database page (equals the logical page number on the
/// storage backend).
pub type PageId = u64;

/// Size of the fixed page header in bytes.
const HEADER_SIZE: usize = 32;
/// Size of one slot-directory entry in bytes (offset + length).
const SLOT_SIZE: usize = 4;
/// Sentinel offset meaning "slot deleted".
const DELETED: u16 = u16::MAX;
/// Header magic / format version.
const MAGIC: u64 = 0xD0D0_CAFE_F00D_BABE;

const SLOT_COUNT_AT: usize = 16;
const PAYLOAD_LEN_AT: usize = 20;
const MAGIC_AT: usize = 24;

pub(crate) fn read_u16(buf: &[u8], at: usize) -> u16 {
    let mut b = [0u8; 2];
    b.copy_from_slice(&buf[at..at + 2]);
    u16::from_le_bytes(b)
}

pub(crate) fn read_u32(buf: &[u8], at: usize) -> u32 {
    let mut b = [0u8; 4];
    b.copy_from_slice(&buf[at..at + 4]);
    u32::from_le_bytes(b)
}

pub(crate) fn read_u64(buf: &[u8], at: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&buf[at..at + 8]);
    u64::from_le_bytes(b)
}

/// A slotted page holding variable-length records, over the page image in
/// `B` (an owned `Vec<u8>` by default).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlottedPage<B = Vec<u8>> {
    buf: B,
    /// Slot count and payload length, cached from the validated header.
    slots: usize,
    payload: usize,
}

impl SlottedPage {
    /// Create an empty page.
    pub fn new(page_id: PageId, page_size: usize) -> Self {
        assert!(page_size >= HEADER_SIZE + 64, "page size too small");
        SlottedPage::format(vec![0u8; page_size], page_id)
    }

    /// Copy a page image, or `None` if its header does not fit the buffer.
    pub fn from_bytes(data: &[u8]) -> Option<Self> {
        SlottedPage::open(data.to_vec())
    }

    /// Whether a buffer looks like a formatted slotted page (rather than
    /// zeroes or foreign data).
    pub fn looks_formatted(data: &[u8]) -> bool {
        data.len() >= HEADER_SIZE && read_u64(data, MAGIC_AT) == MAGIC
    }
}

impl<B: AsRef<[u8]>> SlottedPage<B> {
    /// View the page image in `buf`.  Returns `None` unless the buffer holds
    /// at least a header, the header is either formatted (magic) or all
    /// zero (an empty page), and the slot directory plus payload fit inside
    /// the buffer.
    pub fn open(buf: B) -> Option<Self> {
        let data = buf.as_ref();
        if data.len() < HEADER_SIZE {
            return None;
        }
        let magic = read_u64(data, MAGIC_AT);
        if magic != MAGIC && data[..HEADER_SIZE].iter().any(|&b| b != 0) {
            return None;
        }
        let slots = read_u32(data, SLOT_COUNT_AT) as usize;
        let payload = read_u32(data, PAYLOAD_LEN_AT) as usize;
        let room = data.len() - HEADER_SIZE;
        if slots > room / SLOT_SIZE || payload > room - slots * SLOT_SIZE {
            return None;
        }
        Some(Self {
            buf,
            slots,
            payload,
        })
    }

    fn bytes(&self) -> &[u8] {
        self.buf.as_ref()
    }

    /// This page's identifier.
    pub fn page_id(&self) -> PageId {
        read_u64(self.bytes(), 0)
    }

    /// LSN of the last update applied to this page.
    pub fn lsn(&self) -> u64 {
        read_u64(self.bytes(), 8)
    }

    /// Number of slots (including deleted ones).
    pub fn slot_count(&self) -> usize {
        self.slots
    }

    fn payload_start(&self) -> usize {
        HEADER_SIZE + self.slots * SLOT_SIZE
    }

    /// Directory entry of `slot` (which must be below the slot count).
    fn entry(&self, slot: usize) -> (u16, u16) {
        let at = HEADER_SIZE + slot * SLOT_SIZE;
        (read_u16(self.bytes(), at), read_u16(self.bytes(), at + 2))
    }

    /// The live directory entry of `slot` as a payload range, or `None` for
    /// a missing slot, a tombstone, or an entry pointing past the payload.
    fn live(&self, slot: usize) -> Option<(usize, usize)> {
        if slot >= self.slots {
            return None;
        }
        let (off, len) = self.entry(slot);
        let (off, len) = (off as usize, len as usize);
        (off != DELETED as usize && off + len <= self.payload).then_some((off, len))
    }

    /// Number of live records.
    pub fn record_count(&self) -> usize {
        (0..self.slots)
            .filter(|&s| self.entry(s).0 != DELETED)
            .count()
    }

    /// Bytes of header, directory and payload currently used.
    pub fn used_space(&self) -> usize {
        self.payload_start() + self.payload
    }

    /// Bytes available for a new record (including its slot entry).
    pub fn free_space(&self) -> usize {
        self.bytes().len().saturating_sub(self.used_space())
    }

    /// Whether a record of `len` bytes fits.
    pub fn fits(&self, len: usize) -> bool {
        self.free_space() >= len + SLOT_SIZE
    }

    /// Read the record in `slot`, if it exists and is not deleted.
    pub fn get(&self, slot: u16) -> Option<&[u8]> {
        let (off, len) = self.live(slot as usize)?;
        let at = self.payload_start() + off;
        Some(&self.bytes()[at..at + len])
    }

    /// Iterate over `(slot, record)` pairs of live records.
    pub fn iter(&self) -> impl Iterator<Item = (u16, &[u8])> + '_ {
        (0..self.slots).filter_map(move |s| self.get(s as u16).map(|r| (s as u16, r)))
    }

    /// The page image.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.bytes().to_vec()
    }
}

impl<B: AsRef<[u8]> + AsMut<[u8]>> SlottedPage<B> {
    /// Format `buf` as an empty page: zero it and write the header.
    pub fn format(mut buf: B, page_id: PageId) -> Self {
        let data = buf.as_mut();
        assert!(data.len() >= HEADER_SIZE, "page size too small");
        data.fill(0);
        data[..8].copy_from_slice(&page_id.to_le_bytes());
        data[MAGIC_AT..HEADER_SIZE].copy_from_slice(&MAGIC.to_le_bytes());
        Self {
            buf,
            slots: 0,
            payload: 0,
        }
    }

    fn bytes_mut(&mut self) -> &mut [u8] {
        self.buf.as_mut()
    }

    /// Set the page LSN (called by the WAL when logging an update).
    pub fn set_lsn(&mut self, lsn: u64) {
        self.bytes_mut()[8..16].copy_from_slice(&lsn.to_le_bytes());
    }

    /// Store the cached counts in the header (and stamp the magic, so an
    /// all-zero page becomes formatted on its first edit).
    fn store_counts(&mut self) {
        let (slots, payload) = (self.slots as u32, self.payload as u32);
        let data = self.bytes_mut();
        data[SLOT_COUNT_AT..SLOT_COUNT_AT + 4].copy_from_slice(&slots.to_le_bytes());
        data[PAYLOAD_LEN_AT..PAYLOAD_LEN_AT + 4].copy_from_slice(&payload.to_le_bytes());
        data[MAGIC_AT..HEADER_SIZE].copy_from_slice(&MAGIC.to_le_bytes());
    }

    fn set_entry(&mut self, slot: usize, off: u16, len: u16) {
        let at = HEADER_SIZE + slot * SLOT_SIZE;
        let data = self.bytes_mut();
        data[at..at + 2].copy_from_slice(&off.to_le_bytes());
        data[at + 2..at + 4].copy_from_slice(&len.to_le_bytes());
    }

    /// Insert a record, returning its slot number, or `None` if it does not
    /// fit.  Records are limited to what a u16 length can express.
    pub fn insert(&mut self, record: &[u8]) -> Option<u16> {
        if record.len() > u16::MAX as usize - 1
            || self.slots >= DELETED as usize
            || !self.fits(record.len())
        {
            return None;
        }
        let start = self.payload_start();
        let (slot, payload) = (self.slots, self.payload);
        let data = self.bytes_mut();
        // Make room for one directory entry, then append the record.
        data.copy_within(start..start + payload, start + SLOT_SIZE);
        let at = start + SLOT_SIZE + payload;
        data[at..at + record.len()].copy_from_slice(record);
        self.set_entry(slot, payload as u16, record.len() as u16);
        self.slots += 1;
        self.payload += record.len();
        self.store_counts();
        Some(slot as u16)
    }

    /// Delete the record in `slot`. Returns `true` if a live record was
    /// removed.  Space is reclaimed lazily by [`SlottedPage::compact`].
    pub fn delete(&mut self, slot: u16) -> bool {
        let slot = slot as usize;
        if slot >= self.slots || self.entry(slot).0 == DELETED {
            return false;
        }
        self.set_entry(slot, DELETED, 0);
        self.store_counts();
        true
    }

    /// Update the record in `slot` in place if the new value fits in the old
    /// space, otherwise delete + compact + reinsert (slot number changes).
    /// Returns the (possibly new) slot, or `None` — with the page unchanged —
    /// if the slot is not live or the record does not fit.
    pub fn update(&mut self, slot: u16, record: &[u8]) -> Option<u16> {
        let (off, len) = self.live(slot as usize)?;
        if record.len() <= len {
            let at = self.payload_start() + off;
            self.bytes_mut()[at..at + record.len()].copy_from_slice(record);
            self.set_entry(slot as usize, off as u16, record.len() as u16);
            self.store_counts();
            return Some(slot);
        }
        // Would the record fit once this slot is dead and the payloads are
        // packed?  Checked up front so a miss leaves the page untouched.
        let packed = self.packed_len(slot as usize)?;
        let free = self.bytes().len() - self.payload_start() - packed;
        if record.len() > u16::MAX as usize - 1
            || self.slots >= DELETED as usize
            || free < record.len() + SLOT_SIZE
        {
            return None;
        }
        self.set_entry(slot as usize, DELETED, 0);
        self.compact();
        self.insert(record)
    }

    /// Payload bytes left after packing every live slot except `skip`, or
    /// `None` if the live payloads are not in slot order without overlap
    /// (a page this module never writes).
    fn packed_len(&self, skip: usize) -> Option<usize> {
        let (mut end, mut packed) = (0, 0);
        for s in (0..self.slots).filter(|&s| s != skip) {
            let (off, len) = self.entry(s);
            if off == DELETED {
                continue;
            }
            let (off, len) = (off as usize, len as usize);
            if off < end || off + len > self.payload {
                return None;
            }
            end = off + len;
            packed += len;
        }
        Some(packed)
    }

    /// Reclaim the payload space of deleted records (slot numbers of live
    /// records are preserved; deleted slots remain as tombstones).  The
    /// vacated tail of the payload area is zeroed.  A page whose live
    /// payloads are out of order is left as it is.
    pub fn compact(&mut self) {
        if self.packed_len(usize::MAX).is_none() {
            return;
        }
        let start = self.payload_start();
        let mut cursor = 0;
        for s in 0..self.slots {
            let (off, len) = self.entry(s);
            if off == DELETED {
                continue;
            }
            let (from, n) = (start + off as usize, len as usize);
            self.bytes_mut().copy_within(from..from + n, start + cursor);
            self.set_entry(s, cursor as u16, len);
            cursor += n;
        }
        let end = start + self.payload;
        self.bytes_mut()[start + cursor..end].fill(0);
        self.payload = cursor;
        self.store_counts();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_roundtrip() {
        let mut p = SlottedPage::new(7, 4096);
        let s0 = p.insert(b"hello").unwrap();
        let s1 = p.insert(b"world!").unwrap();
        assert_eq!(p.get(s0).unwrap(), b"hello");
        assert_eq!(p.get(s1).unwrap(), b"world!");
        assert_eq!(p.record_count(), 2);
    }

    #[test]
    fn delete_leaves_tombstone() {
        let mut p = SlottedPage::new(1, 4096);
        let s0 = p.insert(b"abc").unwrap();
        let s1 = p.insert(b"def").unwrap();
        assert!(p.delete(s0));
        assert!(!p.delete(s0), "double delete returns false");
        assert!(p.get(s0).is_none());
        assert_eq!(p.get(s1).unwrap(), b"def");
        assert_eq!(p.record_count(), 1);
        assert_eq!(p.slot_count(), 2);
    }

    #[test]
    fn update_in_place_and_grow() {
        let mut p = SlottedPage::new(1, 4096);
        let s = p.insert(b"abcdef").unwrap();
        // Shrink in place: slot stays.
        assert_eq!(p.update(s, b"xy").unwrap(), s);
        assert_eq!(p.get(s).unwrap(), b"xy");
        // Grow: record is moved (possibly to a new slot).
        let s2 = p.update(s, b"a-much-longer-record").unwrap();
        assert_eq!(p.get(s2).unwrap(), b"a-much-longer-record");
    }

    #[test]
    fn page_fills_up_and_rejects() {
        let mut p = SlottedPage::new(1, 256);
        let rec = [0u8; 50];
        let mut inserted = 0;
        while p.insert(&rec).is_some() {
            inserted += 1;
        }
        assert!(inserted >= 3, "a 256-byte page should fit a few records");
        assert!(!p.fits(50));
        // A smaller record may still fit.
        let _ = p.insert(&[1u8; 4]);
    }

    #[test]
    fn compact_reclaims_space() {
        let mut p = SlottedPage::new(1, 512);
        let mut slots = Vec::new();
        for i in 0..6 {
            slots.push(p.insert(&[i as u8; 40]).unwrap());
        }
        let used_before = p.used_space();
        for s in slots.iter().take(3) {
            p.delete(*s);
        }
        p.compact();
        assert!(p.used_space() < used_before);
        // Remaining records intact.
        for (i, s) in slots.iter().enumerate().skip(3) {
            assert_eq!(p.get(*s).unwrap(), &[i as u8; 40]);
        }
    }

    #[test]
    fn serialization_roundtrip() {
        let mut p = SlottedPage::new(99, 4096);
        p.set_lsn(1234);
        let s0 = p.insert(b"alpha").unwrap();
        let s1 = p.insert(b"bravo").unwrap();
        p.delete(s0);
        let bytes = p.to_bytes();
        assert_eq!(bytes.len(), 4096);
        assert!(SlottedPage::looks_formatted(&bytes));
        let q = SlottedPage::from_bytes(&bytes).unwrap();
        assert_eq!(q.page_id(), 99);
        assert_eq!(q.lsn(), 1234);
        assert!(q.get(s0).is_none());
        assert_eq!(q.get(s1).unwrap(), b"bravo");
        assert_eq!(q, p);
    }

    #[test]
    fn zeroed_buffer_is_not_formatted() {
        let zero = vec![0u8; 4096];
        assert!(!SlottedPage::looks_formatted(&zero));
        // ...but it opens as an empty page, which its first edit formats.
        let mut p = SlottedPage::open(zero).unwrap();
        assert_eq!(p.slot_count(), 0);
        p.insert(b"x").unwrap();
        assert!(SlottedPage::looks_formatted(&p.to_bytes()));
    }

    #[test]
    fn iter_skips_deleted() {
        let mut p = SlottedPage::new(1, 4096);
        let a = p.insert(b"a").unwrap();
        let _b = p.insert(b"b").unwrap();
        p.delete(a);
        let collected: Vec<&[u8]> = p.iter().map(|(_, r)| r).collect();
        assert_eq!(collected, vec![b"b" as &[u8]]);
    }

    /// A page image built by hand from its header fields, directory and
    /// payload, zero-padded to `size`.
    fn image(size: usize, id: u64, slots: &[(u16, u16)], payload: &[u8]) -> Vec<u8> {
        let mut v = Vec::new();
        v.extend_from_slice(&id.to_le_bytes());
        v.extend_from_slice(&0u64.to_le_bytes());
        v.extend_from_slice(&(slots.len() as u32).to_le_bytes());
        v.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        v.extend_from_slice(&MAGIC.to_le_bytes());
        for &(off, len) in slots {
            v.extend_from_slice(&off.to_le_bytes());
            v.extend_from_slice(&len.to_le_bytes());
        }
        v.extend_from_slice(payload);
        v.resize(size, 0);
        v
    }

    #[test]
    fn in_frame_edits_match_hand_built_images() {
        let mut frame = vec![0xAAu8; 256];
        let mut p = SlottedPage::format(frame.as_mut_slice(), 5);
        assert_eq!(p.insert(b"abc"), Some(0));
        assert_eq!(p.insert(b"defgh"), Some(1));
        assert_eq!(frame, image(256, 5, &[(0, 3), (3, 5)], b"abcdefgh"));

        // Shrinking update: in place, stale tail bytes stay in the payload.
        let mut p = SlottedPage::open(frame.as_mut_slice()).unwrap();
        assert_eq!(p.update(1, b"XY"), Some(1));
        assert_eq!(frame, image(256, 5, &[(0, 3), (3, 2)], b"abcXYfgh"));

        // Tombstone delete touches only the directory entry.
        let mut p = SlottedPage::open(frame.as_mut_slice()).unwrap();
        assert!(p.delete(0));
        assert_eq!(frame, image(256, 5, &[(DELETED, 0), (3, 2)], b"abcXYfgh"));

        // Growing update: tombstone, compact (vacated bytes zeroed), append.
        let mut p = SlottedPage::open(frame.as_mut_slice()).unwrap();
        assert_eq!(p.update(1, b"0123456789"), Some(2));
        assert_eq!(
            frame,
            image(
                256,
                5,
                &[(DELETED, 0), (DELETED, 0), (0, 10)],
                b"0123456789"
            )
        );
    }

    #[test]
    fn grow_update_that_cannot_fit_leaves_the_page_untouched() {
        let mut p = SlottedPage::new(1, 128);
        let s = p.insert(&[1u8; 40]).unwrap();
        p.insert(&[2u8; 40]).unwrap();
        let before = p.to_bytes();
        assert_eq!(p.update(s, &[3u8; 60]), None);
        assert_eq!(p.to_bytes(), before);
    }

    #[test]
    fn compaction_packs_live_records_in_slot_order() {
        let mut frame = vec![0u8; 256];
        let mut p = SlottedPage::format(frame.as_mut_slice(), 9);
        for r in [&b"aa"[..], b"bbbb", b"cc", b"dddddd"] {
            p.insert(r).unwrap();
        }
        p.delete(1);
        p.delete(3);
        p.compact();
        assert_eq!(
            frame,
            image(
                256,
                9,
                &[(0, 2), (DELETED, 0), (2, 2), (DELETED, 0)],
                b"aacc"
            )
        );
    }

    #[test]
    fn headers_that_overrun_the_page_are_rejected() {
        let good = image(256, 1, &[(0, 4)], b"abcd");
        assert!(SlottedPage::open(&good[..]).is_some());
        let mut many_slots = good.clone();
        many_slots[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(SlottedPage::open(&many_slots[..]).is_none());
        let mut long_payload = good.clone();
        long_payload[20..24].copy_from_slice(&300u32.to_le_bytes());
        assert!(SlottedPage::open(&long_payload[..]).is_none());
        let mut foreign = good.clone();
        foreign[24] ^= 1;
        assert!(SlottedPage::open(&foreign[..]).is_none());
        assert!(SlottedPage::open(&good[..16]).is_none());
        // A slot pointing past the payload reads as missing.
        let bad_slot = image(256, 1, &[(2, 4)], b"abcd");
        let p = SlottedPage::open(&bad_slot[..]).unwrap();
        assert_eq!(p.get(0), None);
        assert_eq!(p.iter().count(), 0);
    }

    /// A 4 KiB page from `seed`: noise, noise under a formatted header with
    /// plausible counts, or a page built by real edits; then `flips` random
    /// bits flipped.
    fn fuzz_page(seed: u64, kind: u8, flips: u8) -> Vec<u8> {
        let mut rng = sim_utils::rng::SimRng::new(seed);
        let mut page: Vec<u8> = match kind % 3 {
            0 => (0..4096).map(|_| rng.next_u64() as u8).collect(),
            1 => {
                let mut p: Vec<u8> = (0..4096).map(|_| rng.next_u64() as u8).collect();
                p[MAGIC_AT..HEADER_SIZE].copy_from_slice(&MAGIC.to_le_bytes());
                let slots = rng.range(0, 1100) as u32;
                let payload = rng.range(0, 4200) as u32;
                p[SLOT_COUNT_AT..SLOT_COUNT_AT + 4].copy_from_slice(&slots.to_le_bytes());
                p[PAYLOAD_LEN_AT..PAYLOAD_LEN_AT + 4].copy_from_slice(&payload.to_le_bytes());
                p
            }
            _ => {
                let mut p = SlottedPage::new(rng.next_u64(), 4096);
                for _ in 0..rng.range(0, 60) {
                    let len = rng.range_usize(0, 300);
                    let slot = rng.range(0, 40) as u16;
                    match rng.range(0, 4) {
                        0 | 1 => drop(p.insert(&vec![rng.next_u64() as u8; len])),
                        2 => drop(p.update(slot, &vec![7; len])),
                        _ => drop(p.delete(slot)),
                    }
                }
                p.to_bytes()
            }
        };
        for _ in 0..flips {
            let bit = rng.range_usize(0, 4096 * 8);
            page[bit / 8] ^= 1 << (bit % 8);
        }
        page
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(10_000))]

        /// Every accessor and edit of the slotted-page view accepts any
        /// 4 KiB image without panicking, and an accepted page stays
        /// openable after every edit.
        #[test]
        fn untrusted_pages_never_panic(
            seed in proptest::arbitrary::any::<u64>(),
            kind in proptest::arbitrary::any::<u8>(),
            flips in 0u8..6,
        ) {
            // The runner inlines this body into its case loop: no `return`.
            let mut image = fuzz_page(seed, kind, flips);
            if let Some(page) = SlottedPage::open(&image[..]) {
                exercise(page);
                let n = SlottedPage::open(&image[..]).unwrap().slot_count() as u16;
                let mut page = SlottedPage::open(&mut image[..]).unwrap();
                page.set_lsn(seed);
                page.update(seed as u16 % (n + 1), &[1; 9]);
                page.update(kind as u16 % (n + 1), &[2; 700]);
                page.delete(flips as u16 % (n + 1));
                page.insert(&[3; 40]);
                page.compact();
                exercise(SlottedPage::open(&image[..]).expect("an edited page reopens"));
            }
        }
    }

    /// Every read accessor of the view.
    fn exercise(page: SlottedPage<&[u8]>) {
        let _ = (page.page_id(), page.lsn(), page.record_count());
        let _ = (page.free_space(), page.fits(100));
        for slot in 0..page.slot_count() as u16 + 2 {
            let _ = page.get(slot);
        }
        let live = page.iter().count();
        assert!(live <= page.record_count());
        assert!(page.used_space() <= 4096);
    }
}
