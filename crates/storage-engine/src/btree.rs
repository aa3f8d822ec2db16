//! B+-tree index over the buffer pool.
//!
//! Shore-MT provides B+-tree indexes; the TPC drivers use them for primary
//! keys (customer, stock, account lookups).  Keys and values are `u64`
//! (values typically encode a [`crate::heap::Rid`] or a row id).  Nodes are
//! stored one per page; splits propagate up and create a new root when
//! needed.  Deletion removes keys from leaves without rebalancing
//! (sufficient for the TPC workloads, which never shrink tables).
//!
//! Every operation works on the buffer-pool frame in place: a lookup is one
//! binary search over the keys in each frame on the path, and an insert or
//! remove shifts the frame's arrays with `copy_within`.  This module is the
//! single definition of the node format:
//!
//! ```text
//! offset   size     field
//! 0        1        tag: 1 = leaf, 2 = internal (0, a zeroed page, reads
//!                   as an empty leaf)
//! 1        2        key count n (u16 LE)
//! 3        8        leaf: next leaf's page id + 1, or 0 for none (u64 LE);
//!                   internal: 0
//! 11       5        zero
//! 16       8n       keys, ascending (u64 LE)
//! 16+8n    8n       leaf: values, in key order (u64 LE)
//! 16+8n    8(n+1)   internal: child page ids (u64 LE); child i holds the
//!                   keys k with key[i-1] <= k < key[i]
//! ..       ..       zero up to the page size
//! ```
//!
//! A node holds at most `(page_size - 16) / 16 - 2` keys (253 on 4 KiB
//! pages); one more always fits, which is what an insert into a full node
//! writes before it splits.  Every shrinking edit (remove, split) zeroes the
//! bytes it vacates, so a node image is a pure function of its contents.
//!
//! Each operation makes one buffer-pool access per node it reads and one per
//! node it writes, in a fixed order: a descent reads every node on the path
//! with [`PageCache::with_page`]; an insert then writes the leaf with
//! [`PageCache::with_page_mut`], and a split first formats the new right
//! sibling with [`PageCache::new_page`] and then rewrites the left half,
//! bottom-up.  Hits drive the pool's clock reference bits and every
//! `with_page_mut` dirties its page, so this sequence is part of the
//! simulation's output.
//!
//! Node bytes come back from flash untrusted: a node whose tag is unknown
//! or whose key count overruns the page is rejected with
//! [`FlashError::CorruptPage`] before any offset is used.

use nand_flash::{FlashError, FlashResult};
use sim_utils::time::SimInstant;

use crate::backend::StorageBackend;
use crate::buffer::PageCache;
use crate::free_space::FreeSpaceManager;
use crate::page::{read_u16, read_u64, PageId};
use crate::readahead::ScanPrefetcher;

const LEAF_TAG: u8 = 1;
const INTERNAL_TAG: u8 = 2;
/// Node header: tag(1) + key count(2) + next-leaf(8) + padding to 16.
const NODE_HEADER: usize = 16;

/// Most keys a node on a `page_size` page holds between operations.
fn max_keys(page_size: usize) -> usize {
    // Each key/value or key/child pair costs 16 bytes; keep a small slack.
    (page_size.saturating_sub(NODE_HEADER) / 16).saturating_sub(2)
}

fn write_u64(buf: &mut [u8], at: usize, v: u64) {
    buf[at..at + 8].copy_from_slice(&v.to_le_bytes());
}

/// A B+-tree node over its page image: a frame borrowed from the buffer
/// pool, or an owned copy of a full node being split.
struct Node<B> {
    buf: B,
    leaf: bool,
    count: usize,
}

impl<B: AsRef<[u8]>> Node<B> {
    /// View the node in `buf`, or `None` if the tag is unknown or the key
    /// count overruns the page.
    fn open(buf: B) -> Option<Self> {
        let data = buf.as_ref();
        if data.len() < NODE_HEADER {
            return None;
        }
        let leaf = match data[0] {
            0 | LEAF_TAG => true,
            INTERNAL_TAG => false,
            _ => return None,
        };
        let count = read_u16(data, 1) as usize;
        (count <= max_keys(data.len())).then_some(Self { buf, leaf, count })
    }

    fn bytes(&self) -> &[u8] {
        self.buf.as_ref()
    }

    /// Entries after the keys: `count` values or `count + 1` children.
    fn tail_len(&self) -> usize {
        self.count + usize::from(!self.leaf)
    }

    fn tail_at(&self, i: usize) -> usize {
        NODE_HEADER + 8 * (self.count + i)
    }

    fn key(&self, i: usize) -> u64 {
        read_u64(self.bytes(), NODE_HEADER + 8 * i)
    }

    /// Value `i` of a leaf or child `i` of an internal node.
    fn tail(&self, i: usize) -> u64 {
        read_u64(self.bytes(), self.tail_at(i))
    }

    fn next(&self) -> Option<PageId> {
        let raw = read_u64(self.bytes(), 3);
        (raw != 0).then(|| raw - 1)
    }

    /// Position of `key`, or where it would be inserted.
    fn search(&self, key: u64) -> Result<usize, usize> {
        let (mut lo, mut hi) = (0, self.count);
        while lo < hi {
            let mid = (lo + hi) / 2;
            match self.key(mid).cmp(&key) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Ok(mid),
            }
        }
        Err(lo)
    }

    /// Index of the child whose subtree holds `key`: the number of keys
    /// `<= key`.
    fn child_index(&self, key: u64) -> usize {
        let (mut lo, mut hi) = (0, self.count);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.key(mid) <= key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Copy of this node, for a split that must write the right half
    /// after other frames have been touched.
    fn copy(&self) -> Node<Vec<u8>> {
        Node {
            buf: self.bytes().to_vec(),
            leaf: self.leaf,
            count: self.count,
        }
    }

    /// Format `dst` as the node holding this node's keys `from..` and tail
    /// entries `from..`: the right half of a split.
    fn write_upper(&self, from: usize, dst: &mut [u8], next: Option<PageId>) {
        let keys = NODE_HEADER + 8 * from..NODE_HEADER + 8 * self.count;
        let tails = self.tail_at(from)..self.tail_at(self.tail_len());
        let mut right = Node::format(dst, self.leaf, next);
        right.count = self.count - from;
        right.store_header(next);
        let at = NODE_HEADER + keys.len();
        right.buf[NODE_HEADER..at].copy_from_slice(&self.bytes()[keys]);
        right.buf[at..at + tails.len()].copy_from_slice(&self.bytes()[tails]);
    }
}

impl<B: AsRef<[u8]> + AsMut<[u8]>> Node<B> {
    /// Format `buf` as an empty node: zero it and write the header.
    fn format(mut buf: B, leaf: bool, next: Option<PageId>) -> Self {
        buf.as_mut().fill(0);
        let mut node = Self {
            buf,
            leaf,
            count: 0,
        };
        node.store_header(next);
        node
    }

    fn bytes_mut(&mut self) -> &mut [u8] {
        self.buf.as_mut()
    }

    /// Rewrite the whole header from the node's state (internal nodes
    /// always store 0 as their next pointer).
    fn store_header(&mut self, next: Option<PageId>) {
        let tag = if self.leaf { LEAF_TAG } else { INTERNAL_TAG };
        let count = self.count as u16;
        let next = if self.leaf {
            next.map_or(0, |p| p + 1)
        } else {
            0
        };
        let data = self.bytes_mut();
        data[0] = tag;
        data[1..3].copy_from_slice(&count.to_le_bytes());
        write_u64(data, 3, next);
        data[11..NODE_HEADER].fill(0);
    }

    fn set_tail(&mut self, i: usize, v: u64) {
        let at = self.tail_at(i);
        write_u64(self.bytes_mut(), at, v);
    }

    /// Insert `key` at key index `i` and `tail` at tail index `j`, shifting
    /// the arrays right.  The node must have room for one more pair.
    fn insert_at(&mut self, i: usize, key: u64, j: usize, tail: u64) {
        let next = self.next();
        let t0 = self.tail_at(0);
        let end = self.tail_at(self.tail_len());
        let data = self.bytes_mut();
        // Rightmost first: tail[j..] moves 16 bytes, tail[..j] and keys[i..]
        // move 8, which opens a key slot at i and a tail slot at j.
        data.copy_within(t0 + 8 * j..end, t0 + 8 * j + 16);
        data.copy_within(t0..t0 + 8 * j, t0 + 8);
        data.copy_within(NODE_HEADER + 8 * i..t0, NODE_HEADER + 8 * i + 8);
        write_u64(data, NODE_HEADER + 8 * i, key);
        self.count += 1;
        self.set_tail(j, tail);
        self.store_header(next);
    }

    /// Set `key` in a leaf, inserting it if absent; returns the previous
    /// value.  The leaf must have room for one more pair.
    fn leaf_put(&mut self, key: u64, value: u64) -> Option<u64> {
        match self.search(key) {
            Ok(i) => {
                let prev = self.tail(i);
                self.set_tail(i, value);
                self.store_header(self.next());
                Some(prev)
            }
            Err(i) => {
                self.insert_at(i, key, i, value);
                None
            }
        }
    }

    /// Remove pair `i` of a leaf, shifting the arrays left and zeroing the
    /// vacated 16 bytes.
    fn remove_at(&mut self, i: usize) {
        let next = self.next();
        let n = self.count;
        let t0 = self.tail_at(0);
        let data = self.bytes_mut();
        data.copy_within(NODE_HEADER + 8 * (i + 1)..t0, NODE_HEADER + 8 * i);
        data.copy_within(t0..t0 + 8 * i, t0 - 8);
        data.copy_within(t0 + 8 * (i + 1)..t0 + 8 * n, t0 + 8 * i - 8);
        data[NODE_HEADER + 16 * (n - 1)..NODE_HEADER + 16 * n].fill(0);
        self.count -= 1;
        self.store_header(next);
    }

    /// Keep the first `m` keys and the tail entries that go with them (the
    /// left half of a split), zeroing everything vacated.
    fn truncate(&mut self, m: usize, next: Option<PageId>) {
        let (from, end) = (self.tail_at(0), self.tail_at(self.tail_len()));
        let to = NODE_HEADER + 8 * m;
        let kept = 8 * (m + usize::from(!self.leaf));
        let data = self.bytes_mut();
        data.copy_within(from..from + kept, to);
        data[to + kept..end].fill(0);
        self.count = m;
        self.store_header(next);
    }
}

/// One node's verdict during a descent.
enum Probe {
    Child(PageId),
    Leaf(Option<u64>),
}

fn probe(node: Node<&[u8]>, key: u64) -> Probe {
    if node.leaf {
        Probe::Leaf(node.search(key).ok().map(|i| node.tail(i)))
    } else {
        Probe::Child(node.tail(node.child_index(key)))
    }
}

/// What an insert learns from reading a node before it descends or edits.
enum InsertPlan {
    /// A leaf: the previous value of the key, and — when the key is new and
    /// the leaf is full — a copy of the leaf with the pair already inserted.
    Leaf {
        prev: Option<u64>,
        split: Option<Node<Vec<u8>>>,
    },
    /// An internal node: the child to descend into, its index, and a copy
    /// of the node if it is full (a split below would split it too).
    Internal {
        idx: usize,
        child: PageId,
        full: Option<Node<Vec<u8>>>,
    },
}

/// A B+-tree index.
#[derive(Debug, Clone)]
pub struct BTree {
    root: PageId,
    /// Maximum keys per node (derived from the page size).
    max_keys: usize,
    len: u64,
}

impl BTree {
    /// Create a new, empty tree. Allocates the root page.
    pub fn create<P: PageCache>(
        pool: &mut P,
        backend: &mut dyn StorageBackend,
        fsm: &mut FreeSpaceManager,
        now: SimInstant,
    ) -> FlashResult<(Self, SimInstant)> {
        let root = fsm.allocate().ok_or(FlashError::OutOfSpareBlocks)?;
        let (_, t) = pool.new_page(backend, now, root, |bytes| {
            Node::format(bytes, true, None);
        })?;
        Ok((
            Self {
                root,
                max_keys: max_keys(pool.page_size()),
                len: 0,
            },
            t,
        ))
    }

    /// Root page id.
    pub fn root(&self) -> PageId {
        self.root
    }

    /// Number of keys stored.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Read `page` as a node and apply `f` to it.
    fn read<P: PageCache, R>(
        pool: &mut P,
        backend: &mut dyn StorageBackend,
        now: SimInstant,
        page: PageId,
        f: impl FnOnce(Node<&[u8]>) -> R,
    ) -> FlashResult<(R, SimInstant)> {
        let (r, t) = pool.with_page(backend, now, page, |bytes| Node::open(bytes).map(f))?;
        Ok((r.ok_or(FlashError::CorruptPage { page })?, t))
    }

    /// Write-access `page` as a node and apply `f` to it.
    fn edit<P: PageCache, R>(
        pool: &mut P,
        backend: &mut dyn StorageBackend,
        now: SimInstant,
        page: PageId,
        f: impl FnOnce(Node<&mut [u8]>) -> R,
    ) -> FlashResult<(R, SimInstant)> {
        let (r, t) = pool.with_page_mut(backend, now, page, |bytes| Node::open(bytes).map(f))?;
        Ok((r.ok_or(FlashError::CorruptPage { page })?, t))
    }

    /// Look up `key`.
    pub fn get<P: PageCache>(
        &self,
        pool: &mut P,
        backend: &mut dyn StorageBackend,
        now: SimInstant,
        key: u64,
    ) -> FlashResult<(Option<u64>, SimInstant)> {
        let mut t = now;
        let mut page = self.root;
        loop {
            let (step, t2) = Self::read(pool, backend, t, page, |node| probe(node, key))?;
            t = t2;
            match step {
                Probe::Child(child) => page = child,
                Probe::Leaf(found) => return Ok((found, t)),
            }
        }
    }

    /// Insert `key → value`, replacing any previous value.
    /// Returns the previous value (if any) and the time after I/O.
    pub fn insert<P: PageCache>(
        &mut self,
        pool: &mut P,
        backend: &mut dyn StorageBackend,
        fsm: &mut FreeSpaceManager,
        now: SimInstant,
        key: u64,
        value: u64,
    ) -> FlashResult<(Option<u64>, SimInstant)> {
        let (result, split, t) = self.insert_rec(pool, backend, fsm, now, self.root, key, value)?;
        let mut t = t;
        if let Some((sep, right)) = split {
            // Grow a new root.
            let new_root = fsm.allocate().ok_or(FlashError::OutOfSpareBlocks)?;
            let left = self.root;
            let (_, t2) = pool.new_page(backend, t, new_root, |bytes| {
                let mut root = Node::format(bytes, false, None);
                root.count = 1;
                root.store_header(None);
                write_u64(root.bytes_mut(), NODE_HEADER, sep);
                root.set_tail(0, left);
                root.set_tail(1, right);
            })?;
            t = t2;
            self.root = new_root;
        }
        if result.is_none() {
            self.len += 1;
        }
        Ok((result, t))
    }

    #[allow(clippy::type_complexity, clippy::too_many_arguments)]
    fn insert_rec<P: PageCache>(
        &mut self,
        pool: &mut P,
        backend: &mut dyn StorageBackend,
        fsm: &mut FreeSpaceManager,
        now: SimInstant,
        page: PageId,
        key: u64,
        value: u64,
    ) -> FlashResult<(Option<u64>, Option<(u64, PageId)>, SimInstant)> {
        let max_keys = self.max_keys;
        let (plan, t) = Self::read(pool, backend, now, page, |node| {
            if node.leaf {
                match node.search(key) {
                    Ok(i) => InsertPlan::Leaf {
                        prev: Some(node.tail(i)),
                        split: None,
                    },
                    Err(_) if node.count < max_keys => InsertPlan::Leaf {
                        prev: None,
                        split: None,
                    },
                    Err(_) => {
                        let mut over = node.copy();
                        over.leaf_put(key, value);
                        InsertPlan::Leaf {
                            prev: None,
                            split: Some(over),
                        }
                    }
                }
            } else {
                let idx = node.child_index(key);
                InsertPlan::Internal {
                    idx,
                    child: node.tail(idx),
                    full: (node.count >= max_keys).then(|| node.copy()),
                }
            }
        })?;
        match plan {
            InsertPlan::Leaf { prev, split: None } => {
                let (_, t) = Self::edit(pool, backend, t, page, |mut leaf| {
                    leaf.leaf_put(key, value);
                })?;
                Ok((prev, None, t))
            }
            InsertPlan::Leaf {
                prev,
                split: Some(over),
            } => {
                // Split the leaf: the upper half moves to a new right
                // sibling, which takes over the old next pointer.
                let mid = over.count / 2;
                let sep = over.key(mid);
                let right_page = fsm.allocate().ok_or(FlashError::OutOfSpareBlocks)?;
                let (_, t) = pool.new_page(backend, t, right_page, |bytes| {
                    over.write_upper(mid, bytes, over.next());
                })?;
                let (_, t) = Self::edit(pool, backend, t, page, |mut leaf| {
                    leaf.leaf_put(key, value);
                    leaf.truncate(mid, Some(right_page));
                })?;
                Ok((prev, Some((sep, right_page)), t))
            }
            InsertPlan::Internal { idx, child, full } => {
                let (old, split, t) = self.insert_rec(pool, backend, fsm, t, child, key, value)?;
                let Some((sep, right)) = split else {
                    return Ok((old, None, t));
                };
                let Some(mut over) = full else {
                    let (_, t) = Self::edit(pool, backend, t, page, |mut node| {
                        node.insert_at(idx, sep, idx + 1, right);
                    })?;
                    return Ok((old, None, t));
                };
                // Split the internal node: key `mid` moves up, the keys
                // above it and their children move to a new right sibling.
                over.insert_at(idx, sep, idx + 1, right);
                let mid = over.count / 2;
                let sep_up = over.key(mid);
                let right_page = fsm.allocate().ok_or(FlashError::OutOfSpareBlocks)?;
                let (_, t) = pool.new_page(backend, t, right_page, |bytes| {
                    over.write_upper(mid + 1, bytes, None);
                })?;
                let (_, t) = Self::edit(pool, backend, t, page, |mut node| {
                    node.insert_at(idx, sep, idx + 1, right);
                    node.truncate(mid, None);
                })?;
                Ok((old, Some((sep_up, right_page)), t))
            }
        }
    }

    /// Remove `key`. Returns its value if it was present.  Leaves are not
    /// rebalanced (acceptable for workloads that do not shrink).
    pub fn remove<P: PageCache>(
        &mut self,
        pool: &mut P,
        backend: &mut dyn StorageBackend,
        now: SimInstant,
        key: u64,
    ) -> FlashResult<(Option<u64>, SimInstant)> {
        let mut t = now;
        let mut page = self.root;
        loop {
            let (step, t2) = Self::read(pool, backend, t, page, |node| probe(node, key))?;
            t = t2;
            match step {
                Probe::Child(child) => page = child,
                Probe::Leaf(None) => return Ok((None, t)),
                Probe::Leaf(Some(v)) => {
                    let (_, t3) = Self::edit(pool, backend, t, page, |mut leaf| {
                        if let Ok(i) = leaf.search(key) {
                            leaf.remove_at(i);
                        }
                    })?;
                    self.len -= 1;
                    return Ok((Some(v), t3));
                }
            }
        }
    }

    /// Visit all `(key, value)` pairs with `key` in `[lo, hi]`, in order.
    pub fn range<P: PageCache>(
        &self,
        pool: &mut P,
        backend: &mut dyn StorageBackend,
        now: SimInstant,
        lo: u64,
        hi: u64,
        visit: impl FnMut(u64, u64),
    ) -> FlashResult<(u64, SimInstant)> {
        self.range_with_readahead(pool, backend, &mut ScanPrefetcher::disabled(), now, lo, hi, visit)
    }

    /// [`BTree::range`] with streaming readahead: when the last internal
    /// level is read during the descent, the child run covering
    /// `[lo, hi]` — exactly the leaf chain the walk below visits — is fed to
    /// `ra` and prefetched ahead of consumption.  Past the fed run (a range
    /// spanning several last-level parents) each leaf's `next` pointer is
    /// fed as it is discovered — a 1-ahead fallback that keeps the plan
    /// anchored but cannot overlap fills with visits, since a sibling is
    /// only known one leaf in advance (prefetching the *next parent's* child
    /// run is a ROADMAP follow-on).  With an inert prefetcher this is the
    /// frame-at-a-time path, call for call.
    #[allow(clippy::too_many_arguments)]
    pub fn range_with_readahead<P: PageCache>(
        &self,
        pool: &mut P,
        backend: &mut dyn StorageBackend,
        ra: &mut ScanPrefetcher,
        now: SimInstant,
        lo: u64,
        hi: u64,
        mut visit: impl FnMut(u64, u64),
    ) -> FlashResult<(u64, SimInstant)> {
        let mut t = now;
        // Descend to the leaf containing `lo`, remembering the child run of
        // the node we are descending *from*: when the descent bottoms out,
        // that run is the leaf chain covering the range.
        let mut page = self.root;
        let mut covering_run: Vec<PageId> = Vec::new();
        let readahead = ra.is_enabled();
        loop {
            let (child, t2) = Self::read(pool, backend, t, page, |node| {
                if node.leaf {
                    return None;
                }
                let idx = node.child_index(lo);
                if readahead {
                    // An inverted range (lo > hi) puts hi's child before
                    // lo's; clamp so the run is never back-to-front (the
                    // walk below then terminates on its first key).
                    let hi_idx = node.child_index(hi).max(idx);
                    covering_run = (idx..=hi_idx).map(|i| node.tail(i)).collect();
                }
                Some(node.tail(idx))
            })?;
            t = t2;
            match child {
                Some(child) => page = child,
                None => break,
            }
        }
        if covering_run.len() > 1 {
            // The first entry is the leaf the descent just read (resident);
            // feeding the full run keeps the consume cursor aligned.
            ra.feed(&covering_run);
        }
        // Walk the leaf chain.
        let mut visited = 0;
        let mut current = Some(page);
        while let Some(p) = current {
            t = ra.on_access(pool, backend, t, p)?;
            let (step, t2) = Self::read(pool, backend, t, p, |node| {
                if !node.leaf {
                    return None;
                }
                for i in 0..node.count {
                    let k = node.key(i);
                    if k > hi {
                        return Some((true, node.next()));
                    }
                    if k >= lo {
                        visit(k, node.tail(i));
                        visited += 1;
                    }
                }
                Some((false, node.next()))
            })?;
            t = t2;
            let Some((done, next)) = step else {
                break;
            };
            // Keep the sibling window warm beyond the fed covering run.
            if let Some(sibling) = next {
                if !ra.planned(sibling) {
                    ra.feed(&[sibling]);
                }
            }
            if done {
                return Ok((visited, t));
            }
            current = next;
        }
        Ok((visited, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;
    use crate::buffer::BufferPool;

    struct Ctx {
        pool: BufferPool,
        backend: MemBackend,
        fsm: FreeSpaceManager,
    }

    fn setup() -> Ctx {
        Ctx {
            pool: BufferPool::new(64, 4096),
            backend: MemBackend::new(4096, 4096),
            fsm: FreeSpaceManager::new(0, 4000),
        }
    }

    /// A small-page context: 128-byte pages hold at most 5 keys per node,
    /// so splits happen after a handful of inserts.
    fn small() -> Ctx {
        Ctx {
            pool: BufferPool::new(64, 128),
            backend: MemBackend::new(128, 1024),
            fsm: FreeSpaceManager::new(0, 1000),
        }
    }

    /// A leaf image built by hand from the documented layout.
    fn leaf_image(size: usize, keys: &[u64], values: &[u64], next: Option<PageId>) -> Vec<u8> {
        let mut v = vec![LEAF_TAG];
        v.extend_from_slice(&(keys.len() as u16).to_le_bytes());
        v.extend_from_slice(&next.map_or(0, |p| p + 1).to_le_bytes());
        v.resize(16, 0);
        keys.iter()
            .chain(values)
            .for_each(|x| v.extend_from_slice(&x.to_le_bytes()));
        v.resize(size, 0);
        v
    }

    /// An internal-node image built by hand from the documented layout.
    fn internal_image(size: usize, keys: &[u64], children: &[u64]) -> Vec<u8> {
        assert_eq!(children.len(), keys.len() + 1);
        let mut v = vec![INTERNAL_TAG];
        v.extend_from_slice(&(keys.len() as u16).to_le_bytes());
        v.resize(16, 0);
        keys.iter()
            .chain(children)
            .for_each(|x| v.extend_from_slice(&x.to_le_bytes()));
        v.resize(size, 0);
        v
    }

    fn frame(c: &mut Ctx, page: PageId) -> Vec<u8> {
        c.pool
            .with_page(&mut c.backend, 0, page, |b| b.to_vec())
            .unwrap()
            .0
    }

    fn accesses(c: &Ctx) -> u64 {
        let s = c.pool.stats();
        s.hits + s.misses
    }

    /// Insert `key → key * 10` and return the pool accesses it made.
    fn put(c: &mut Ctx, tree: &mut BTree, key: u64) -> u64 {
        let before = accesses(c);
        tree.insert(&mut c.pool, &mut c.backend, &mut c.fsm, 0, key, key * 10)
            .unwrap();
        accesses(c) - before
    }

    #[test]
    fn leaf_inserts_and_overwrite_write_the_documented_image() {
        let mut c = small();
        let (mut tree, _) = BTree::create(&mut c.pool, &mut c.backend, &mut c.fsm, 0).unwrap();
        let root = tree.root();
        assert_eq!(frame(&mut c, root), leaf_image(128, &[], &[], None));
        // End, front, middle.
        for k in [20, 40, 10, 30] {
            assert_eq!(
                put(&mut c, &mut tree, k),
                2,
                "read + write of the root leaf"
            );
        }
        assert_eq!(
            frame(&mut c, root),
            leaf_image(128, &[10, 20, 30, 40], &[100, 200, 300, 400], None)
        );
        // Overwrite keeps the key count and rewrites one value.
        let (old, _) = tree
            .insert(&mut c.pool, &mut c.backend, &mut c.fsm, 0, 30, 7)
            .unwrap();
        assert_eq!(old, Some(300));
        assert_eq!(
            frame(&mut c, root),
            leaf_image(128, &[10, 20, 30, 40], &[100, 200, 7, 400], None)
        );
        assert_eq!(tree.len(), 4);
    }

    #[test]
    fn leaf_split_and_root_growth_write_both_halves_and_a_new_root() {
        let mut c = small();
        let (mut tree, _) = BTree::create(&mut c.pool, &mut c.backend, &mut c.fsm, 0).unwrap();
        let left = tree.root();
        for k in [10, 20, 30, 40, 50] {
            put(&mut c, &mut tree, k);
        }
        // The sixth key overflows the 5-key leaf: read the leaf, format the
        // right sibling, rewrite the left half, format the new root.
        assert_eq!(put(&mut c, &mut tree, 35), 4);
        let root = tree.root();
        let right = 1;
        assert_eq!(
            frame(&mut c, left),
            leaf_image(128, &[10, 20, 30], &[100, 200, 300], Some(right))
        );
        assert_eq!(
            frame(&mut c, right),
            leaf_image(128, &[35, 40, 50], &[350, 400, 500], None)
        );
        assert_eq!(
            frame(&mut c, root),
            internal_image(128, &[35], &[left, right])
        );
        // A lookup now touches the root and one leaf.
        let before = accesses(&c);
        let (v, _) = tree.get(&mut c.pool, &mut c.backend, 0, 40).unwrap();
        assert_eq!(v, Some(400));
        assert_eq!(accesses(&c) - before, 2);
        // A non-splitting insert below the root: root read, leaf read, leaf write.
        assert_eq!(put(&mut c, &mut tree, 15), 3);
    }

    #[test]
    fn internal_split_moves_the_middle_key_up() {
        let mut c = small();
        let (mut tree, _) = BTree::create(&mut c.pool, &mut c.backend, &mut c.fsm, 0).unwrap();
        // Ascending keys: the rightmost leaf splits 3/3 on every third
        // insert after the first split.  Pages are allocated in order:
        // leaf 0, leaf 1, root 2, then leaves 3..=6.
        for k in (10..=200).step_by(10) {
            put(&mut c, &mut tree, k);
        }
        assert_eq!(tree.root(), 2);
        assert_eq!(
            frame(&mut c, 2),
            internal_image(128, &[40, 70, 100, 130, 160], &[0, 1, 3, 4, 5, 6])
        );
        // Key 210 splits leaf 6 (new leaf 7, separator 190), which overflows
        // the full root: root read, leaf read, new leaf, left leaf, new
        // internal 8, left internal, new root 9.
        assert_eq!(put(&mut c, &mut tree, 210), 7);
        assert_eq!(
            frame(&mut c, 6),
            leaf_image(128, &[160, 170, 180], &[1600, 1700, 1800], Some(7))
        );
        assert_eq!(
            frame(&mut c, 7),
            leaf_image(128, &[190, 200, 210], &[1900, 2000, 2100], None)
        );
        assert_eq!(
            frame(&mut c, 2),
            internal_image(128, &[40, 70, 100], &[0, 1, 3, 4])
        );
        assert_eq!(
            frame(&mut c, 8),
            internal_image(128, &[160, 190], &[5, 6, 7])
        );
        assert_eq!(tree.root(), 9);
        assert_eq!(frame(&mut c, 9), internal_image(128, &[130], &[2, 8]));
        // Three levels now: a lookup touches three nodes.
        for key in (10..=210).step_by(10) {
            let before = accesses(&c);
            let (v, _) = tree.get(&mut c.pool, &mut c.backend, 0, key).unwrap();
            assert_eq!(v, Some(key * 10), "key {key}");
            assert_eq!(accesses(&c) - before, 3);
        }
    }

    #[test]
    fn remove_zeroes_the_vacated_tail() {
        let mut c = small();
        let (mut tree, _) = BTree::create(&mut c.pool, &mut c.backend, &mut c.fsm, 0).unwrap();
        for k in [10, 20, 30, 40] {
            put(&mut c, &mut tree, k);
        }
        let root = tree.root();
        for (k, keys, values) in [
            (20, &[10u64, 30, 40][..], &[100u64, 300, 400][..]),
            (40, &[10, 30], &[100, 300]),
            (10, &[30], &[300]),
            (30, &[], &[]),
        ] {
            let before = accesses(&c);
            let (v, _) = tree.remove(&mut c.pool, &mut c.backend, 0, k).unwrap();
            assert_eq!(v, Some(k * 10));
            assert_eq!(accesses(&c) - before, 2, "read + write of the leaf");
            assert_eq!(frame(&mut c, root), leaf_image(128, keys, values, None));
        }
        // A miss reads the leaf and writes nothing.
        let before = accesses(&c);
        let (v, _) = tree.remove(&mut c.pool, &mut c.backend, 0, 10).unwrap();
        assert_eq!(v, None);
        assert_eq!(accesses(&c) - before, 1);
        assert!(tree.is_empty());
    }

    #[test]
    fn corrupt_nodes_are_typed_errors() {
        let mut c = small();
        let (tree, _) = BTree::create(&mut c.pool, &mut c.backend, &mut c.fsm, 0).unwrap();
        let root = tree.root();
        for poison in [[7u8, 0, 0], [LEAF_TAG, 0xFF, 0xFF]] {
            c.pool
                .with_page_mut(&mut c.backend, 0, root, |b| b[..3].copy_from_slice(&poison))
                .unwrap();
            let err = tree.get(&mut c.pool, &mut c.backend, 0, 1).unwrap_err();
            assert!(matches!(err, FlashError::CorruptPage { page } if page == root));
        }
    }

    #[test]
    fn insert_get_small() {
        let mut c = setup();
        let (mut tree, _) = BTree::create(&mut c.pool, &mut c.backend, &mut c.fsm, 0).unwrap();
        assert!(tree.is_empty());
        for k in [5u64, 3, 9, 1, 7] {
            tree.insert(&mut c.pool, &mut c.backend, &mut c.fsm, 0, k, k * 100)
                .unwrap();
        }
        assert_eq!(tree.len(), 5);
        for k in [1u64, 3, 5, 7, 9] {
            let (v, _) = tree.get(&mut c.pool, &mut c.backend, 0, k).unwrap();
            assert_eq!(v, Some(k * 100));
        }
        let (missing, _) = tree.get(&mut c.pool, &mut c.backend, 0, 4).unwrap();
        assert_eq!(missing, None);
    }

    #[test]
    fn insert_overwrites_existing_key() {
        let mut c = setup();
        let (mut tree, _) = BTree::create(&mut c.pool, &mut c.backend, &mut c.fsm, 0).unwrap();
        tree.insert(&mut c.pool, &mut c.backend, &mut c.fsm, 0, 42, 1).unwrap();
        let (old, _) = tree
            .insert(&mut c.pool, &mut c.backend, &mut c.fsm, 0, 42, 2)
            .unwrap();
        assert_eq!(old, Some(1));
        assert_eq!(tree.len(), 1);
        let (v, _) = tree.get(&mut c.pool, &mut c.backend, 0, 42).unwrap();
        assert_eq!(v, Some(2));
    }

    #[test]
    fn large_insert_matches_btreemap_model() {
        let mut c = setup();
        let (mut tree, _) = BTree::create(&mut c.pool, &mut c.backend, &mut c.fsm, 0).unwrap();
        let mut model = std::collections::BTreeMap::new();
        let mut rng = sim_utils::rng::SimRng::new(13);
        for _ in 0..3000 {
            let k = rng.range(0, 10_000);
            let v = rng.next_u64();
            let expected = model.insert(k, v);
            let (old, _) = tree
                .insert(&mut c.pool, &mut c.backend, &mut c.fsm, 0, k, v)
                .unwrap();
            assert_eq!(old, expected);
        }
        assert_eq!(tree.len() as usize, model.len());
        for (&k, &v) in &model {
            let (got, _) = tree.get(&mut c.pool, &mut c.backend, 0, k).unwrap();
            assert_eq!(got, Some(v), "mismatch for key {k}");
        }
    }

    #[test]
    fn range_scan_in_order() {
        let mut c = setup();
        let (mut tree, _) = BTree::create(&mut c.pool, &mut c.backend, &mut c.fsm, 0).unwrap();
        for k in (0..1000u64).rev() {
            tree.insert(&mut c.pool, &mut c.backend, &mut c.fsm, 0, k, k + 1)
                .unwrap();
        }
        let mut seen = Vec::new();
        let (count, _) = tree
            .range(&mut c.pool, &mut c.backend, 0, 100, 199, |k, v| {
                assert_eq!(v, k + 1);
                seen.push(k);
            })
            .unwrap();
        assert_eq!(count, 100);
        let expected: Vec<u64> = (100..200).collect();
        assert_eq!(seen, expected);
    }

    #[test]
    fn inverted_range_is_empty_on_both_scan_paths() {
        // Regression (code review): the covering-run slice used to panic on
        // lo > hi (`children[idx..=hi_idx]` with hi_idx < idx); both the
        // frame-at-a-time and readahead paths must return an empty result
        // like the pre-readahead code did.
        let mut c = setup();
        let (mut tree, _) = BTree::create(&mut c.pool, &mut c.backend, &mut c.fsm, 0).unwrap();
        for k in 0..2000u64 {
            tree.insert(&mut c.pool, &mut c.backend, &mut c.fsm, 0, k, k).unwrap();
        }
        let (count, _) = tree
            .range(&mut c.pool, &mut c.backend, 0, 1500, 100, |_, _| {
                panic!("inverted range must visit nothing")
            })
            .unwrap();
        assert_eq!(count, 0);
        let mut ra = crate::readahead::ScanPrefetcher::new(64, 8);
        assert!(ra.is_enabled());
        let (count, _) = tree
            .range_with_readahead(&mut c.pool, &mut c.backend, &mut ra, 0, 1500, 100, |_, _| {
                panic!("inverted range must visit nothing")
            })
            .unwrap();
        assert_eq!(count, 0);
    }

    #[test]
    fn remove_deletes_keys() {
        let mut c = setup();
        let (mut tree, _) = BTree::create(&mut c.pool, &mut c.backend, &mut c.fsm, 0).unwrap();
        for k in 0..500u64 {
            tree.insert(&mut c.pool, &mut c.backend, &mut c.fsm, 0, k, k).unwrap();
        }
        for k in (0..500u64).step_by(2) {
            let (v, _) = tree.remove(&mut c.pool, &mut c.backend, 0, k).unwrap();
            assert_eq!(v, Some(k));
        }
        assert_eq!(tree.len(), 250);
        let (gone, _) = tree.get(&mut c.pool, &mut c.backend, 0, 100).unwrap();
        assert_eq!(gone, None);
        let (kept, _) = tree.get(&mut c.pool, &mut c.backend, 0, 101).unwrap();
        assert_eq!(kept, Some(101));
        let (gone2, _) = tree.remove(&mut c.pool, &mut c.backend, 0, 100).unwrap();
        assert_eq!(gone2, None);
    }

    #[test]
    fn works_under_buffer_pressure() {
        let mut c = Ctx {
            pool: BufferPool::new(8, 4096),
            backend: MemBackend::new(4096, 4096),
            fsm: FreeSpaceManager::new(0, 4000),
        };
        let (mut tree, _) = BTree::create(&mut c.pool, &mut c.backend, &mut c.fsm, 0).unwrap();
        for k in 0..2000u64 {
            tree.insert(&mut c.pool, &mut c.backend, &mut c.fsm, 0, k, k * 7)
                .unwrap();
        }
        for k in (0..2000u64).step_by(97) {
            let (v, _) = tree.get(&mut c.pool, &mut c.backend, 0, k).unwrap();
            assert_eq!(v, Some(k * 7));
        }
        assert!(c.pool.stats().evictions > 0, "pressure should cause evictions");
    }

    /// A 4 KiB node image from `seed`: noise, noise under a plausible
    /// header, or a node built by real edits; then `flips` bits flipped.
    fn fuzz_node(seed: u64, kind: u8, flips: u8) -> Vec<u8> {
        let mut rng = sim_utils::rng::SimRng::new(seed);
        let mut page: Vec<u8> = (0..4096).map(|_| rng.next_u64() as u8).collect();
        match kind % 3 {
            0 => {}
            1 => {
                page[0] = rng.range(0, 3) as u8;
                let count = rng.range(0, 300) as u16;
                page[1..3].copy_from_slice(&count.to_le_bytes());
            }
            _ => {
                let leaf = rng.range(0, 2) == 0;
                let mut node = Node::format(page.as_mut_slice(), leaf, None);
                for _ in 0..rng.range(0, 253) {
                    let k = rng.next_u64() % 1000;
                    match node.search(k) {
                        Ok(i) => node.set_tail(i, k),
                        Err(i) => node.insert_at(i, k, i + usize::from(!leaf), k),
                    }
                }
            }
        }
        for _ in 0..flips {
            let bit = rng.range_usize(0, 4096 * 8);
            page[bit / 8] ^= 1 << (bit % 8);
        }
        page
    }

    /// Every read accessor of the node view.
    fn exercise(node: &Node<&mut [u8]>, key: u64) {
        for i in 0..node.count {
            let _ = node.key(i);
        }
        for i in 0..node.tail_len() {
            let _ = node.tail(i);
        }
        let _ = (node.next(), node.search(key), node.child_index(key));
        assert!(node.tail_at(node.tail_len()) <= 4096);
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(10_000))]

        /// Every accessor and edit of the node view accepts any 4 KiB image
        /// without panicking; an accepted node stays openable after edits.
        #[test]
        fn untrusted_nodes_never_panic(
            seed in proptest::arbitrary::any::<u64>(),
            kind in proptest::arbitrary::any::<u8>(),
            flips in 0u8..6,
        ) {
            // The runner inlines this body into its case loop: no `return`.
            let mut image = fuzz_node(seed, kind, flips);
            if let Some(node) = Node::open(image.as_slice()) {
                let _ = probe(node, seed);
            }
            if let Some(mut node) = Node::open(image.as_mut_slice()) {
                exercise(&node, seed);
                let mut right = vec![0u8; 4096];
                let from = seed as usize % (node.count + 1);
                node.write_upper(from, &mut right, Some(3));
                assert!(Node::open(right.as_slice()).is_some());
                if node.leaf {
                    node.leaf_put(seed, 1);
                    if node.count > 0 {
                        node.remove_at(kind as usize % node.count);
                    }
                } else {
                    let i = kind as usize % (node.count + 1);
                    node.insert_at(i, seed, i + 1, 9);
                }
                exercise(&node, seed);
                let m = flips as usize % (node.count + 1);
                node.truncate(m.min(max_keys(4096)), None);
                exercise(&node, seed);
                assert!(Node::open(image.as_slice()).is_some(), "an edited node reopens");
            }
        }
    }
}
