//! Spans at the two layer boundaries the benchmark owns: the `EngineOps`
//! surface the workloads drive ([`TimedOps`]) and the `StorageBackend` the
//! engine owns ([`TimedBackend`]).
//!
//! Both wrappers forward every call unchanged, so a traced run issues the
//! same device commands at the same virtual instants as an untraced one.
//! Spans go to a thread-local recorder: every workload runs on the
//! benchmark's one OS thread, and a thread-local keeps the backend wrapper
//! `Send` (the concurrent engine requires that) without a lock per call.
//! Recording is off unless [`start_recording`] was called, so the untraced
//! run pays one thread-local flag check per call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use nand_flash::{FlashResult, OpCompletion, QueuedCompletion};
use sim_utils::time::SimInstant;
use storage_engine::backend::{BackendCounters, StorageBackend};
use storage_engine::heap::Rid;
use storage_engine::{AdmissionStats, EngineOps, EngineResult, TxnId};

/// What a span covers.  The first group is the driver, the second the
/// `EngineOps` calls, the third the `StorageBackend` calls.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Op {
    Txn,
    IndexGet,
    IndexInsert,
    IndexRange,
    Read,
    Insert,
    Update,
    Delete,
    Scan,
    Commit,
    Flush,
    Checkpoint,
    Quiesce,
    ReadPage,
    ReadPages,
    WritePage,
    WritePageInRegion,
    WritePages,
    FreePageHint,
    Drain,
    BackgroundGc,
    Rebuild,
}

impl Op {
    /// Metric-name stem of the operation.
    pub fn name(self) -> &'static str {
        match self {
            Op::Txn => "workloads.txn",
            Op::IndexGet => "engine.index_get",
            Op::IndexInsert => "engine.index_insert",
            Op::IndexRange => "engine.index_range",
            Op::Read => "engine.read",
            Op::Insert => "engine.insert",
            Op::Update => "engine.update",
            Op::Delete => "engine.delete",
            Op::Scan => "engine.scan",
            Op::Commit => "engine.commit",
            Op::Flush => "flusher",
            Op::Checkpoint => "engine.checkpoint",
            Op::Quiesce => "engine.quiesce",
            Op::ReadPage => "backend.read_page",
            Op::ReadPages => "backend.read_pages",
            Op::WritePage => "backend.write_page",
            Op::WritePageInRegion => "backend.write_page_in_region",
            Op::WritePages => "backend.write_pages",
            Op::FreePageHint => "backend.free_page_hint",
            Op::Drain => "backend.drain",
            Op::BackgroundGc => "backend.schedule_background_gc",
            Op::Rebuild => "backend.schedule_rebuild",
        }
    }
}

/// `Span::parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded call: its operation, its interval on both clocks, the span
/// that was open when it started and the transaction it ran for.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub op: Op,
    pub parent: u32,
    pub txn: u32,
    /// Pages moved by a backend call (0 for engine and driver spans).
    pub pages: u32,
    /// Host nanoseconds since recording started.
    pub host_start: u64,
    pub host_end: u64,
    pub v_start: SimInstant,
    pub v_end: SimInstant,
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    txn: u32,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Start recording spans on this thread, discarding any earlier ones.
pub fn start_recording() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 20),
            open: Vec::new(),
            txn: 0,
        })
    });
}

/// Stop recording and hand back the spans, in start order.
pub fn stop_recording() -> Vec<Span> {
    RECORDER.with(|r| {
        r.borrow_mut()
            .take()
            .map(|rec| rec.spans)
            .unwrap_or_default()
    })
}

/// Tag the spans that follow with transaction `txn`.
pub fn set_txn(txn: u32) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.txn = txn;
        }
    });
}

fn enter(op: Op, v_start: SimInstant, pages: usize) -> Option<u32> {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut()?;
        let id = rec.spans.len() as u32;
        let parent = rec.open.last().copied().unwrap_or(NO_PARENT);
        let host_start = rec.epoch.elapsed().as_nanos() as u64;
        rec.spans.push(Span {
            op,
            parent,
            txn: rec.txn,
            pages: pages as u32,
            host_start,
            host_end: host_start,
            v_start,
            v_end: v_start,
        });
        rec.open.push(id);
        Some(id)
    })
}

fn exit(id: u32, v_end: SimInstant) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            let host_end = rec.epoch.elapsed().as_nanos() as u64;
            let span = &mut rec.spans[id as usize];
            span.host_end = host_end;
            span.v_end = v_end;
            rec.open.pop();
        }
    });
}

/// Run `f` inside a span of `op` starting at virtual `v_start`; `v_end`
/// reads the virtual end off the result.
pub fn span<R>(
    op: Op,
    v_start: SimInstant,
    pages: usize,
    f: impl FnOnce() -> R,
    v_end: impl FnOnce(&R) -> SimInstant,
) -> R {
    let id = enter(op, v_start, pages);
    let result = f();
    if let Some(id) = id {
        exit(id, v_end(&result));
    }
    result
}

fn end_of<T, E>(r: &Result<(T, SimInstant), E>, start: SimInstant) -> SimInstant {
    r.as_ref().map_or(start, |(_, t)| *t)
}

fn end_at<E>(r: &Result<SimInstant, E>, start: SimInstant) -> SimInstant {
    *r.as_ref().unwrap_or(&start)
}

fn completion<E>(r: &Result<OpCompletion, E>, start: SimInstant) -> SimInstant {
    r.as_ref().map_or(start, |c| c.completed_at)
}

/// An `EngineOps` wrapper that spans the data operations and counts the
/// rows each table should hold (inserts minus deletes), so the benchmark
/// can check the tables after the run.
pub struct TimedOps<E> {
    inner: E,
    rows: BTreeMap<String, u64>,
}

impl<E: EngineOps> TimedOps<E> {
    pub fn new(inner: E) -> Self {
        Self {
            inner,
            rows: BTreeMap::new(),
        }
    }

    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// Rows each table created through this wrapper should hold.
    pub fn expected_rows(&self) -> &BTreeMap<String, u64> {
        &self.rows
    }
}

impl<E: EngineOps> EngineOps for TimedOps<E> {
    fn begin(&mut self) -> TxnId {
        self.inner.begin()
    }

    fn begin_admitted(&mut self, now: SimInstant) -> EngineResult<(TxnId, SimInstant)> {
        self.inner.begin_admitted(now)
    }

    fn admission_stats(&self) -> AdmissionStats {
        self.inner.admission_stats()
    }

    fn commit(&mut self, txn: TxnId, now: SimInstant) -> FlashResult<SimInstant> {
        let inner = &mut self.inner;
        span(
            Op::Commit,
            now,
            0,
            || inner.commit(txn, now),
            |r| end_at(r, now),
        )
    }

    fn abort(&mut self, txn: TxnId) {
        self.inner.abort(txn)
    }

    fn create_table(&mut self, name: &str) -> bool {
        let created = self.inner.create_table(name);
        if created {
            self.rows.insert(name.to_string(), 0);
        }
        created
    }

    fn create_index(&mut self, name: &str, now: SimInstant) -> FlashResult<bool> {
        self.inner.create_index(name, now)
    }

    fn insert(
        &mut self,
        table: &str,
        txn: TxnId,
        now: SimInstant,
        record: &[u8],
    ) -> EngineResult<(Rid, SimInstant)> {
        let inner = &mut self.inner;
        let r = span(
            Op::Insert,
            now,
            0,
            || inner.insert(table, txn, now, record),
            |r| end_of(r, now),
        );
        if r.is_ok() {
            if let Some(n) = self.rows.get_mut(table) {
                *n += 1;
            }
        }
        r
    }

    fn read(
        &mut self,
        table: &str,
        now: SimInstant,
        rid: Rid,
    ) -> EngineResult<(Option<Vec<u8>>, SimInstant)> {
        let inner = &mut self.inner;
        span(
            Op::Read,
            now,
            0,
            || inner.read(table, now, rid),
            |r| end_of(r, now),
        )
    }

    fn update(
        &mut self,
        table: &str,
        txn: TxnId,
        now: SimInstant,
        rid: Rid,
        record: &[u8],
    ) -> EngineResult<(Rid, SimInstant)> {
        let inner = &mut self.inner;
        span(
            Op::Update,
            now,
            0,
            || inner.update(table, txn, now, rid, record),
            |r| end_of(r, now),
        )
    }

    fn delete(
        &mut self,
        table: &str,
        txn: TxnId,
        now: SimInstant,
        rid: Rid,
    ) -> EngineResult<(bool, SimInstant)> {
        let inner = &mut self.inner;
        let r = span(
            Op::Delete,
            now,
            0,
            || inner.delete(table, txn, now, rid),
            |r| end_of(r, now),
        );
        if let Ok((true, _)) = r {
            if let Some(n) = self.rows.get_mut(table) {
                *n = n.saturating_sub(1);
            }
        }
        r
    }

    fn scan(
        &mut self,
        table: &str,
        now: SimInstant,
        visit: &mut dyn FnMut(Rid, &[u8]),
    ) -> FlashResult<(u64, SimInstant)> {
        let inner = &mut self.inner;
        span(
            Op::Scan,
            now,
            0,
            || inner.scan(table, now, visit),
            |r| end_of(r, now),
        )
    }

    fn index_insert(
        &mut self,
        index: &str,
        now: SimInstant,
        key: u64,
        value: u64,
    ) -> FlashResult<(Option<u64>, SimInstant)> {
        let inner = &mut self.inner;
        span(
            Op::IndexInsert,
            now,
            0,
            || inner.index_insert(index, now, key, value),
            |r| end_of(r, now),
        )
    }

    fn index_get(
        &mut self,
        index: &str,
        now: SimInstant,
        key: u64,
    ) -> FlashResult<(Option<u64>, SimInstant)> {
        let inner = &mut self.inner;
        span(
            Op::IndexGet,
            now,
            0,
            || inner.index_get(index, now, key),
            |r| end_of(r, now),
        )
    }

    fn index_range(
        &mut self,
        index: &str,
        now: SimInstant,
        lo: u64,
        hi: u64,
        visit: &mut dyn FnMut(u64, u64),
    ) -> FlashResult<(u64, SimInstant)> {
        let inner = &mut self.inner;
        span(
            Op::IndexRange,
            now,
            0,
            || inner.index_range(index, now, lo, hi, visit),
            |r| end_of(r, now),
        )
    }

    fn maybe_flush(&mut self, now: SimInstant) -> FlashResult<SimInstant> {
        let inner = &mut self.inner;
        span(
            Op::Flush,
            now,
            0,
            || inner.maybe_flush(now),
            |r| end_at(r, now),
        )
    }

    fn checkpoint(&mut self, now: SimInstant) -> FlashResult<SimInstant> {
        let inner = &mut self.inner;
        span(
            Op::Checkpoint,
            now,
            0,
            || inner.checkpoint(now),
            |r| end_at(r, now),
        )
    }

    fn quiesce(&mut self, now: SimInstant) -> SimInstant {
        let inner = &mut self.inner;
        span(Op::Quiesce, now, 0, || inner.quiesce(now), |t| *t)
    }

    fn backend_name(&self) -> String {
        self.inner.backend_name()
    }

    fn committed(&self) -> u64 {
        self.inner.committed()
    }

    fn dirty_fraction(&self) -> f64 {
        self.inner.dirty_fraction()
    }
}

/// A `StorageBackend` wrapper that spans every I/O call and forwards every
/// trait method, defaults included, to the wrapped backend — so batched
/// reads and writes, queue depth and occupancy settings reach the real
/// implementation and the measured I/O path is the untraced one.
pub struct TimedBackend<B> {
    inner: B,
}

impl<B> TimedBackend<B> {
    pub fn new(inner: B) -> Self {
        Self { inner }
    }

    pub fn inner(&self) -> &B {
        &self.inner
    }
}

impl<B: StorageBackend + 'static> StorageBackend for TimedBackend<B> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn num_pages(&self) -> u64 {
        self.inner.num_pages()
    }

    fn read_page(
        &mut self,
        now: SimInstant,
        page_id: u64,
        buf: &mut [u8],
    ) -> FlashResult<OpCompletion> {
        let inner = &mut self.inner;
        span(
            Op::ReadPage,
            now,
            1,
            || inner.read_page(now, page_id, buf),
            |r| completion(r, now),
        )
    }

    fn write_page(
        &mut self,
        now: SimInstant,
        page_id: u64,
        data: &[u8],
    ) -> FlashResult<OpCompletion> {
        let inner = &mut self.inner;
        span(
            Op::WritePage,
            now,
            1,
            || inner.write_page(now, page_id, data),
            |r| completion(r, now),
        )
    }

    fn write_page_in_region(
        &mut self,
        now: SimInstant,
        region: usize,
        page_id: u64,
        data: &[u8],
    ) -> FlashResult<OpCompletion> {
        let inner = &mut self.inner;
        span(
            Op::WritePageInRegion,
            now,
            1,
            || inner.write_page_in_region(now, region, page_id, data),
            |r| completion(r, now),
        )
    }

    fn write_pages(&mut self, now: SimInstant, pages: &[(u64, &[u8])]) -> FlashResult<SimInstant> {
        let inner = &mut self.inner;
        span(
            Op::WritePages,
            now,
            pages.len(),
            || inner.write_pages(now, pages),
            |r| end_at(r, now),
        )
    }

    fn read_pages(
        &mut self,
        now: SimInstant,
        reqs: &mut [(u64, &mut [u8])],
    ) -> FlashResult<SimInstant> {
        let inner = &mut self.inner;
        let n = reqs.len();
        span(
            Op::ReadPages,
            now,
            n,
            || inner.read_pages(now, reqs),
            |r| end_at(r, now),
        )
    }

    fn poll_completions(&mut self) -> Vec<QueuedCompletion> {
        self.inner.poll_completions()
    }

    fn free_page_hint(&mut self, now: SimInstant, page_id: u64) -> FlashResult<()> {
        let inner = &mut self.inner;
        span(
            Op::FreePageHint,
            now,
            1,
            || inner.free_page_hint(now, page_id),
            |_| now,
        )
    }

    fn set_async_depth(&mut self, depth: usize) {
        self.inner.set_async_depth(depth)
    }

    fn set_backfill_occupancy(&mut self, on: bool) {
        self.inner.set_backfill_occupancy(on)
    }

    fn drain(&mut self, now: SimInstant) -> SimInstant {
        let inner = &mut self.inner;
        span(Op::Drain, now, 0, || inner.drain(now), |t| *t)
    }

    fn queue_occupancy(&self, now: SimInstant) -> usize {
        self.inner.queue_occupancy(now)
    }

    fn schedule_background_gc(&mut self, now: SimInstant) -> FlashResult<SimInstant> {
        let inner = &mut self.inner;
        span(
            Op::BackgroundGc,
            now,
            0,
            || inner.schedule_background_gc(now),
            |r| end_at(r, now),
        )
    }

    fn schedule_rebuild(&mut self, now: SimInstant) -> FlashResult<SimInstant> {
        let inner = &mut self.inner;
        span(
            Op::Rebuild,
            now,
            0,
            || inner.schedule_rebuild(now),
            |r| end_at(r, now),
        )
    }

    fn regions(&self) -> usize {
        self.inner.regions()
    }

    fn region_of_page(&self, page_id: u64) -> usize {
        self.inner.region_of_page(page_id)
    }

    fn counters(&self) -> BackendCounters {
        self.inner.counters()
    }

    fn reset_counters(&mut self) {
        self.inner.reset_counters()
    }

    /// The wrapped backend when it opts into downcasting; otherwise the
    /// wrapper itself, so the benchmark can still reach a backend (such as
    /// `BlockDeviceBackend`) that does not, through [`TimedBackend::inner`].
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        match self.inner.as_any() {
            Some(any) => Some(any),
            None => Some(self),
        }
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        if self.inner.as_any().is_some() {
            self.inner.as_any_mut()
        } else {
            Some(self)
        }
    }
}
