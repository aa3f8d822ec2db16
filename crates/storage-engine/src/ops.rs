//! The transactional operation surface workloads drive an engine through.
//!
//! [`EngineOps`] abstracts over the [`StorageEngine`] itself and a
//! [`crate::concurrent::ClientSession`] handle onto the shared
//! [`crate::concurrent::ConcurrentEngine`], so the TPC drivers
//! (`workloads::TpcB`, `workloads::TpcC`) run unchanged against either: one
//! logical client over one engine, or N sessions over one engine behind a
//! mutex.
//!
//! The closure-taking entry points (`scan`, `index_range`) take `&mut dyn
//! FnMut` rather than a generic parameter so the trait stays object-safe —
//! `Box<dyn Workload>` erasure in the bench setup relies on that.

use nand_flash::FlashResult;
use sim_utils::time::SimInstant;

use crate::engine::{EngineResult, StorageEngine};
use crate::heap::Rid;
use crate::transaction::{AdmissionStats, TxnId};

/// The engine operations a workload needs: transactions, DDL, DML, index
/// access and background-work hooks, all on the virtual clock.
pub trait EngineOps {
    /// Begin a transaction.
    fn begin(&mut self) -> TxnId;

    /// Begin a transaction through the engine's commit-admission window (the
    /// `NOFTL_SLO` overload policy).  Returns the transaction and the
    /// instant it was actually admitted (>= `now`; the difference is
    /// queueing delay the caller should charge to its latency), or a typed
    /// [`crate::EngineError::Overloaded`] if the arrival was shed.  Engines
    /// without a window — the default — admit immediately at `now`.
    fn begin_admitted(&mut self, now: SimInstant) -> EngineResult<(TxnId, SimInstant)> {
        Ok((self.begin(), now))
    }

    /// Truthful admission counters (all zero without a configured window).
    fn admission_stats(&self) -> AdmissionStats {
        AdmissionStats::default()
    }

    /// Commit a transaction (forces the WAL). Returns the completion time.
    fn commit(&mut self, txn: TxnId, now: SimInstant) -> FlashResult<SimInstant>;

    /// Abort a transaction.
    fn abort(&mut self, txn: TxnId);

    /// Create a heap table. Returns `false` if the name is taken.
    fn create_table(&mut self, name: &str) -> bool;

    /// Create a B+-tree index. Returns `false` if the name is taken.
    fn create_index(&mut self, name: &str, now: SimInstant) -> FlashResult<bool>;

    /// Insert a record into `table`.
    fn insert(
        &mut self,
        table: &str,
        txn: TxnId,
        now: SimInstant,
        record: &[u8],
    ) -> EngineResult<(Rid, SimInstant)>;

    /// Read a record by RID.
    fn read(
        &mut self,
        table: &str,
        now: SimInstant,
        rid: Rid,
    ) -> EngineResult<(Option<Vec<u8>>, SimInstant)>;

    /// Update a record by RID (the record may move; the new RID is returned).
    fn update(
        &mut self,
        table: &str,
        txn: TxnId,
        now: SimInstant,
        rid: Rid,
        record: &[u8],
    ) -> EngineResult<(Rid, SimInstant)>;

    /// Delete a record by RID.
    fn delete(
        &mut self,
        table: &str,
        txn: TxnId,
        now: SimInstant,
        rid: Rid,
    ) -> EngineResult<(bool, SimInstant)>;

    /// Scan a whole table.
    fn scan(
        &mut self,
        table: &str,
        now: SimInstant,
        visit: &mut dyn FnMut(Rid, &[u8]),
    ) -> FlashResult<(u64, SimInstant)>;

    /// Insert into an index.
    fn index_insert(
        &mut self,
        index: &str,
        now: SimInstant,
        key: u64,
        value: u64,
    ) -> FlashResult<(Option<u64>, SimInstant)>;

    /// Look up a key in an index.
    fn index_get(
        &mut self,
        index: &str,
        now: SimInstant,
        key: u64,
    ) -> FlashResult<(Option<u64>, SimInstant)>;

    /// Range scan `[lo, hi]` in an index.
    fn index_range(
        &mut self,
        index: &str,
        now: SimInstant,
        lo: u64,
        hi: u64,
        visit: &mut dyn FnMut(u64, u64),
    ) -> FlashResult<(u64, SimInstant)>;

    /// Let the db-writers run if the dirty-page watermark is exceeded.
    fn maybe_flush(&mut self, now: SimInstant) -> FlashResult<SimInstant>;

    /// Force a full flush of every dirty page plus a WAL force (checkpoint).
    fn checkpoint(&mut self, now: SimInstant) -> FlashResult<SimInstant>;

    /// Barrier over all asynchronous submissions.
    fn quiesce(&mut self, now: SimInstant) -> SimInstant;

    /// Name of the storage stack in use.
    fn backend_name(&self) -> String;

    /// Number of committed transactions.
    fn committed(&self) -> u64;

    /// Dirty fraction of the buffer pool.
    fn dirty_fraction(&self) -> f64;
}

impl EngineOps for StorageEngine {
    fn begin(&mut self) -> TxnId {
        StorageEngine::begin(self)
    }

    fn begin_admitted(&mut self, now: SimInstant) -> EngineResult<(TxnId, SimInstant)> {
        StorageEngine::begin_admitted(self, now)
    }

    fn admission_stats(&self) -> AdmissionStats {
        StorageEngine::admission_stats(self)
    }

    fn commit(&mut self, txn: TxnId, now: SimInstant) -> FlashResult<SimInstant> {
        StorageEngine::commit(self, txn, now)
    }

    fn abort(&mut self, txn: TxnId) {
        StorageEngine::abort(self, txn)
    }

    fn create_table(&mut self, name: &str) -> bool {
        StorageEngine::create_table(self, name)
    }

    fn create_index(&mut self, name: &str, now: SimInstant) -> FlashResult<bool> {
        StorageEngine::create_index(self, name, now)
    }

    fn insert(
        &mut self,
        table: &str,
        txn: TxnId,
        now: SimInstant,
        record: &[u8],
    ) -> EngineResult<(Rid, SimInstant)> {
        StorageEngine::insert(self, table, txn, now, record)
    }

    fn read(
        &mut self,
        table: &str,
        now: SimInstant,
        rid: Rid,
    ) -> EngineResult<(Option<Vec<u8>>, SimInstant)> {
        StorageEngine::read(self, table, now, rid)
    }

    fn update(
        &mut self,
        table: &str,
        txn: TxnId,
        now: SimInstant,
        rid: Rid,
        record: &[u8],
    ) -> EngineResult<(Rid, SimInstant)> {
        StorageEngine::update(self, table, txn, now, rid, record)
    }

    fn delete(
        &mut self,
        table: &str,
        txn: TxnId,
        now: SimInstant,
        rid: Rid,
    ) -> EngineResult<(bool, SimInstant)> {
        StorageEngine::delete(self, table, txn, now, rid)
    }

    fn scan(
        &mut self,
        table: &str,
        now: SimInstant,
        visit: &mut dyn FnMut(Rid, &[u8]),
    ) -> FlashResult<(u64, SimInstant)> {
        StorageEngine::scan(self, table, now, visit)
    }

    fn index_insert(
        &mut self,
        index: &str,
        now: SimInstant,
        key: u64,
        value: u64,
    ) -> FlashResult<(Option<u64>, SimInstant)> {
        StorageEngine::index_insert(self, index, now, key, value)
    }

    fn index_get(
        &mut self,
        index: &str,
        now: SimInstant,
        key: u64,
    ) -> FlashResult<(Option<u64>, SimInstant)> {
        StorageEngine::index_get(self, index, now, key)
    }

    fn index_range(
        &mut self,
        index: &str,
        now: SimInstant,
        lo: u64,
        hi: u64,
        visit: &mut dyn FnMut(u64, u64),
    ) -> FlashResult<(u64, SimInstant)> {
        StorageEngine::index_range(self, index, now, lo, hi, visit)
    }

    fn maybe_flush(&mut self, now: SimInstant) -> FlashResult<SimInstant> {
        StorageEngine::maybe_flush(self, now)
    }

    fn checkpoint(&mut self, now: SimInstant) -> FlashResult<SimInstant> {
        StorageEngine::checkpoint(self, now)
    }

    fn quiesce(&mut self, now: SimInstant) -> SimInstant {
        StorageEngine::quiesce(self, now)
    }

    fn backend_name(&self) -> String {
        StorageEngine::backend_name(self)
    }

    fn committed(&self) -> u64 {
        StorageEngine::committed(self)
    }

    fn dirty_fraction(&self) -> f64 {
        StorageEngine::dirty_fraction(self)
    }
}
