//! Storage back ends: the three I/O stacks of Figure 1.
//!
//! The storage manager talks to one of these through the [`StorageBackend`]
//! trait.  The trait surface is deliberately shaped like what a DBMS needs —
//! page reads/writes plus *hints* (dead pages, placement regions) — so that
//! the NoFTL back end can exploit them while the block-device back ends
//! silently ignore what the legacy interface cannot express.

use ftl::block_device::BlockDevice;
use nand_flash::{FaultPlan, FlashResult, NativeFlashInterface, OpCompletion, DEFAULT_FAULT_SEED};
use noftl_core::{NoFtl, RedundancyPolicy};
use sim_utils::time::SimInstant;

use crate::engine::{EngineConfig, StorageEngine};
use crate::flusher::FlusherConfig;
use crate::transaction::AdmissionConfig;

/// Page id alias used by the batch write API (kept here to avoid a cyclic
/// import with [`crate::page`]).
type PageId = u64;

/// Default number of pages a batched write submits per backend call.
pub const DEFAULT_BATCH_PAGES: usize = 64;

/// Default readahead window cap (pages).
pub const DEFAULT_READAHEAD_WINDOW: usize = 64;

/// Per-die queue depth of `NOFTL_ASYNC=on` without a number.
pub const DEFAULT_ASYNC_DEPTH: usize = 8;

/// Default proactive-GC read-occupancy threshold (in-flight reads) injected
/// into [`noftl_core::NoFtl`] when the SLO bundle is on and the instance was
/// configured without one.
pub const DEFAULT_SLO_GC_READ_OCCUPANCY: usize = 2;

/// Default GC read-heat victim penalty injected when the SLO bundle is on and
/// the instance was configured read-blind (see
/// [`noftl_core::NoFtlConfig::gc_read_heat_penalty`]).
pub const DEFAULT_SLO_GC_READ_HEAT_PENALTY: f64 = 1.0;

/// Default device-queue occupancy (in-flight operations) at which a flusher
/// wave defers to foreground traffic when the SLO bundle is on (see
/// [`crate::flusher::FlusherPool::set_throttle_occupancy`]).
pub const DEFAULT_SLO_FLUSH_OCCUPANCY: usize = 4;

/// Default parity stripe width — data members per parity page — of
/// `NOFTL_REDUNDANCY=parity` without a number.
pub const DEFAULT_PARITY_K: usize = 3;

/// The seven `NOFTL_*` environment knobs as one plain value.
///
/// Library code reads no environment: [`EngineConfig::new`],
/// [`FlusherConfig::global`], [`crate::wal::WalManager::new`] and
/// [`NoFtlBackend::new`] build exactly what `Knobs::default()` describes.
/// A binary that honours the knobs calls [`Knobs::from_env`] once in `main`
/// and hands the value to the code that builds its stack, which applies it
/// with [`Knobs::engine_config`], [`Knobs::flushers`], [`Knobs::engine`] and
/// [`Knobs::noftl_backend`].
#[derive(Debug, Clone, PartialEq)]
pub struct Knobs {
    /// `NOFTL_BATCH`: maximum pages per batched write submission of the
    /// die-wise writers and the WAL; 0 keeps the legacy
    /// one-`write_page`-per-page path.  Batch size 1 is bit- and
    /// cycle-identical to 0.
    pub batch_pages: usize,
    /// `NOFTL_BATCH_GLOBAL`: let the conventional global writers batch too
    /// (the Figure 4 ablation).  Off, they model the legacy per-page path.
    pub batch_global: bool,
    /// `NOFTL_ASYNC`: submissions each writer, the WAL and the buffer pool's
    /// miss fills keep in flight, and the device's per-die queue depth.
    /// Depth 1 is the synchronous dispatch.
    pub async_depth: usize,
    /// `NOFTL_READAHEAD`: streaming-readahead window cap (pages); 0 disables
    /// readahead.  It only issues at an async depth above 1.
    pub readahead_window: usize,
    /// `NOFTL_FAULTS`: fault-injection plan for devices configured without
    /// one.
    pub faults: Option<FaultPlan>,
    /// `NOFTL_SLO`: the overload bundle — WAL admission control, load-aware
    /// flusher throttling and proactive GC scheduling into read-cold
    /// instants.
    pub slo: bool,
    /// `NOFTL_REDUNDANCY`: redundancy policy for every region of an instance
    /// configured without one.
    pub redundancy: Option<RedundancyPolicy>,
}

impl Default for Knobs {
    /// Every knob unset.
    fn default() -> Self {
        Self {
            batch_pages: DEFAULT_BATCH_PAGES,
            batch_global: false,
            async_depth: 1,
            readahead_window: DEFAULT_READAHEAD_WINDOW,
            faults: None,
            slo: false,
            redundancy: None,
        }
    }
}

impl Knobs {
    /// Read the knobs from the process environment.  This is the one
    /// environment read of a knob in the workspace (the knob-registry lint
    /// enforces it); only binaries call it, once, in `main`.  A value that
    /// is not valid Unicode counts as unset.
    pub fn from_env() -> Self {
        Self::from_vars(
            std::env::vars_os()
                .filter_map(|(k, v)| Some((k.into_string().ok()?, v.into_string().ok()?))),
        )
    }

    /// Parse `(name, value)` pairs spelled as in the environment.  Other
    /// names are ignored; a knob given twice takes its last value.
    ///
    /// * `NOFTL_BATCH`: `on`/`true`/empty = [`DEFAULT_BATCH_PAGES`],
    ///   `off`/`false` = 0, a number `k` = `k`; anything else is the default.
    /// * `NOFTL_BATCH_GLOBAL`, `NOFTL_SLO`: `on`/`true`/`1`/`yes` = on;
    ///   anything else is off.
    /// * `NOFTL_ASYNC`: `off`/`false`/`0`/`1`/empty = 1, `on`/`true` =
    ///   [`DEFAULT_ASYNC_DEPTH`], a number `k` = `max(k, 1)`; anything else
    ///   is 1.
    /// * `NOFTL_READAHEAD`: `on`/`true`/empty = [`DEFAULT_READAHEAD_WINDOW`],
    ///   `off`/`false` = 0, a number `k` = `k`; anything else is the default.
    /// * `NOFTL_FAULTS`: `on`/`true`/`yes` = the default plan seeded with
    ///   [`DEFAULT_FAULT_SEED`], a number `k` other than 0 = the default plan
    ///   seeded with `k`; anything else is no plan.
    /// * `NOFTL_REDUNDANCY`: `on`/`true`/`yes`/`parity` =
    ///   `Parity(`[`DEFAULT_PARITY_K`]`)`, `parity:k` = `Parity(k)` for
    ///   `k >= 1`, `mirror` = `Mirror`; anything else is none.
    ///
    /// Names are case-sensitive; values are trimmed and case-insensitive.
    pub fn from_vars<I, K, V>(vars: I) -> Self
    where
        I: IntoIterator<Item = (K, V)>,
        K: AsRef<str>,
        V: AsRef<str>,
    {
        let mut knobs = Self::default();
        for (name, value) in vars {
            let v = value.as_ref().trim().to_ascii_lowercase();
            match name.as_ref() {
                "NOFTL_BATCH" => knobs.batch_pages = parse_window(&v, DEFAULT_BATCH_PAGES),
                "NOFTL_BATCH_GLOBAL" => knobs.batch_global = parse_flag(&v),
                "NOFTL_ASYNC" => knobs.async_depth = parse_async_depth(&v),
                "NOFTL_READAHEAD" => {
                    knobs.readahead_window = parse_window(&v, DEFAULT_READAHEAD_WINDOW)
                }
                "NOFTL_FAULTS" => knobs.faults = parse_fault_plan(&v),
                "NOFTL_SLO" => knobs.slo = parse_flag(&v),
                "NOFTL_REDUNDANCY" => knobs.redundancy = parse_redundancy(&v),
                _ => {}
            }
        }
        knobs
    }

    /// [`EngineConfig::new`] with the knobs applied: readahead window, SLO
    /// admission and scheduling, and [`Knobs::flushers`] on its writers.
    pub fn engine_config(&self) -> EngineConfig {
        let config = EngineConfig::new();
        EngineConfig {
            flushers: self.flushers(config.flushers),
            readahead_window: self.readahead_window,
            admission: self.slo.then(AdmissionConfig::default),
            slo_scheduling: self.slo,
            ..config
        }
    }

    /// `config` with the knobs' batch size, global-writer batching and async
    /// depth.
    pub fn flushers(&self, config: FlusherConfig) -> FlusherConfig {
        FlusherConfig {
            batch_pages: self.batch_pages,
            batch_global: self.batch_global,
            async_depth: self.async_depth,
            ..config
        }
    }

    /// [`StorageEngine::new`] with the knobs' batch size and async depth on
    /// the engine's WAL.  The WAL keeps its own depth: it does not follow
    /// `config.flushers.async_depth`.
    pub fn engine(&self, backend: Box<dyn StorageBackend>, config: EngineConfig) -> StorageEngine {
        let mut engine = StorageEngine::new(backend, config);
        let wal = engine.wal_mut();
        wal.set_batch_pages(self.batch_pages);
        wal.set_async_depth(self.async_depth);
        engine
    }

    /// [`NoFtlBackend::new`] after injecting the knobs into whatever `noftl`
    /// left at its default.  An explicitly configured value always wins: an
    /// async depth above 1, a fault plan, the SLO GC policies, or a
    /// redundancy vector (even an all-`None` one).
    pub fn noftl_backend(&self, mut noftl: NoFtl) -> NoFtlBackend {
        if noftl.async_depth() <= 1 {
            noftl.set_async_depth(self.async_depth);
        }
        if !noftl.faults_enabled() {
            noftl.set_fault_plan(self.faults.clone());
        }
        if self.slo {
            if noftl.gc_schedule_read_occupancy() == 0 {
                noftl.set_gc_schedule_read_occupancy(DEFAULT_SLO_GC_READ_OCCUPANCY);
            }
            if noftl.gc_read_heat_penalty() == 0.0 {
                noftl.set_gc_read_heat_penalty(DEFAULT_SLO_GC_READ_HEAT_PENALTY);
            }
        }
        if let Some(policy) = self.redundancy {
            if !noftl.redundancy_configured() {
                noftl.set_redundancy_all(policy);
            }
        }
        NoFtlBackend::new(noftl)
    }
}

/// A page-count knob: on/empty is `default`, off is 0, a number is itself.
fn parse_window(v: &str, default: usize) -> usize {
    match v {
        "" | "on" | "true" => default,
        "off" | "false" => 0,
        _ => v.parse::<usize>().unwrap_or(default),
    }
}

/// A policy knob: fails safe to off.
fn parse_flag(v: &str) -> bool {
    matches!(v, "on" | "true" | "1" | "yes")
}

fn parse_fault_plan(v: &str) -> Option<FaultPlan> {
    match v {
        "" | "off" | "false" | "0" | "no" => None,
        "on" | "true" | "yes" => Some(FaultPlan::seeded(DEFAULT_FAULT_SEED)),
        _ => v.parse::<u64>().ok().map(FaultPlan::seeded),
    }
}

fn parse_async_depth(v: &str) -> usize {
    match v {
        "" | "off" | "false" | "0" | "1" => 1,
        "on" | "true" => DEFAULT_ASYNC_DEPTH,
        _ => v.parse::<usize>().map_or(1, |k| k.max(1)),
    }
}

fn parse_redundancy(v: &str) -> Option<RedundancyPolicy> {
    match v {
        "" | "off" | "false" | "0" | "no" | "none" => None,
        "on" | "true" | "yes" | "parity" => Some(RedundancyPolicy::Parity(DEFAULT_PARITY_K)),
        "mirror" => Some(RedundancyPolicy::Mirror),
        _ => v
            .strip_prefix("parity:")
            .and_then(|k| k.trim().parse::<usize>().ok())
            .filter(|&k| k >= 1)
            .map(RedundancyPolicy::Parity),
    }
}

/// Spare-space ratio that preserves the GC headroom of `base` once
/// `policy`'s redundancy copies start consuming physical capacity.
///
/// Redundancy writes come out of over-provisioning: a `Parity(k)` region
/// keeps ≈ `1/k` extra live pages per mapped page (the sealed parity — and
/// stale stripes pin their parity until an erase breaks them, so churny
/// workloads pin more), a `Mirror` region a full copy.  A config built for
/// the unprotected baseline therefore deadlocks the allocator when the knob
/// turns on.  Harnesses that size a run's logical capacity pass their
/// baseline ratio through here:
///
/// * `None` — `base` unchanged (off stays bit-identical);
/// * `Parity(k)` — `1 − (1 − base) · k/(k+1)`: logical capacity shrinks by
///   the parity share;
/// * `Mirror` — `1 − (1 − base)/2`: logical capacity halves.
///
/// The result is a *floor*: update-heavy workloads on parity regions should
/// start from a generous `base`, because superseded stripe members keep
/// their parity page live until a member's block erases.
pub fn redundancy_op_ratio(base: f64, policy: Option<RedundancyPolicy>) -> f64 {
    match policy {
        None | Some(RedundancyPolicy::None) => base,
        Some(RedundancyPolicy::Parity(k)) => {
            let k = k.max(1) as f64;
            1.0 - (1.0 - base) * k / (k + 1.0)
        }
        Some(RedundancyPolicy::Mirror) => 1.0 - (1.0 - base) / 2.0,
    }
}

/// Class of an in-flight submission, for the mixed read/write windows the
/// poll-driven engine scheduler keeps (reads from buffer-pool miss fills,
/// writes from db-writers and the WAL).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// A read submission (page fill, point read).
    Read,
    /// A write submission (flush run, WAL force).
    Write,
}

/// Bounded window of in-flight asynchronous submissions, shared by the
/// issuer streams (each db-writer, the WAL's group submissions, the buffer
/// pool's miss fills): completion times of submissions issued but not yet
/// waited for, each tagged with its [`OpClass`] so mixed read/write streams
/// share one scheduler and stay individually observable.
///
/// At depth 1 [`InflightWindow::gate`] makes every submission wait for its
/// predecessor — the synchronous chaining the pre-async code performed.
#[derive(Debug, Clone, Default)]
pub struct InflightWindow {
    completions: std::collections::VecDeque<(SimInstant, OpClass)>,
}

impl InflightWindow {
    /// Create an empty window.
    pub fn new() -> Self {
        Self::default()
    }

    /// Submissions currently in flight.
    pub fn len(&self) -> usize {
        self.completions.len()
    }

    /// Whether nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.completions.is_empty()
    }

    /// In-flight read submissions.
    pub fn reads_inflight(&self) -> usize {
        self.completions
            .iter()
            .filter(|(_, c)| *c == OpClass::Read)
            .count()
    }

    /// In-flight write submissions.
    pub fn writes_inflight(&self) -> usize {
        self.completions
            .iter()
            .filter(|(_, c)| *c == OpClass::Write)
            .count()
    }

    /// Forget every in-flight entry without waiting (synchronous-mode reset).
    pub fn clear(&mut self) {
        self.completions.clear();
    }

    /// Earliest time a new submission may issue: pops window entries until
    /// fewer than `depth` remain, waiting for each popped completion.  The
    /// gate is class-blind — the window models one bounded submission stream,
    /// whatever mix of reads and writes flows through it.
    pub fn gate(&mut self, depth: usize, now: SimInstant) -> SimInstant {
        let mut at = now;
        while self.completions.len() >= depth.max(1) {
            let (free_at, _) = self
                .completions
                .pop_front()
                .expect("window cannot be empty here");
            at = at.max(free_at);
        }
        at
    }

    /// Record a write submission's completion time (the historical default —
    /// the PR 3 issuer streams were write-only).
    pub fn push(&mut self, completed_at: SimInstant) {
        self.push_class(completed_at, OpClass::Write);
    }

    /// Record a read submission's completion time.
    pub fn push_read(&mut self, completed_at: SimInstant) {
        self.push_class(completed_at, OpClass::Read);
    }

    /// Record a submission's completion time with an explicit class.
    pub fn push_class(&mut self, completed_at: SimInstant, class: OpClass) {
        self.completions.push_back((completed_at, class));
    }

    /// Barrier: the instant by which everything in flight has completed (at
    /// least `now`).  Clears the window.
    pub fn drain(&mut self, now: SimInstant) -> SimInstant {
        let t = self.horizon(now);
        self.completions.clear();
        t
    }

    /// The instant by which everything in flight has completed (at least
    /// `now`) — like [`InflightWindow::drain`] but leaves the window intact,
    /// so submissions keep pipelining while the caller reports a horizon.
    pub fn horizon(&self, now: SimInstant) -> SimInstant {
        self.completions.iter().fold(now, |t, &(c, _)| t.max(c))
    }

    /// Entries still genuinely in flight *as of* `now` (completion after
    /// `now`).  Unlike [`InflightWindow::len`] this does not count entries
    /// whose completion has already passed but which the gate has not yet
    /// popped — the honest pressure signal admission control reads.
    pub fn inflight_at(&self, now: SimInstant) -> usize {
        self.completions.iter().filter(|&&(c, _)| c > now).count()
    }
}

/// Aggregate I/O counters a backend can report (used by the benchmark
/// harness to print GC overhead tables).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BackendCounters {
    /// Host-visible page reads.
    pub host_reads: u64,
    /// Host-visible page writes.
    pub host_writes: u64,
    /// Pages copied internally (GC / merges / wear leveling).
    pub internal_copies: u64,
    /// Block erases.
    pub erases: u64,
    /// Native COPYBACK commands issued by the device.
    pub device_copybacks: u64,
}

/// The storage manager's view of a storage device.
pub trait StorageBackend: Send {
    /// Stack name ("noftl", "ftl-faster", "ftl-dftl", "mem", ...).
    fn name(&self) -> String;

    /// Page size in bytes (DB page = Flash page in this reproduction).
    fn page_size(&self) -> usize;

    /// Number of addressable pages.
    fn num_pages(&self) -> u64;

    /// Read `page_id` into `buf`.
    fn read_page(
        &mut self,
        now: SimInstant,
        page_id: u64,
        buf: &mut [u8],
    ) -> FlashResult<OpCompletion>;

    /// Write `page_id` from `data`.
    fn write_page(
        &mut self,
        now: SimInstant,
        page_id: u64,
        data: &[u8],
    ) -> FlashResult<OpCompletion>;

    /// Write `page_id`, requesting placement in `region` (only meaningful for
    /// the NoFTL back end; others fall back to [`StorageBackend::write_page`]).
    fn write_page_in_region(
        &mut self,
        now: SimInstant,
        _region: usize,
        page_id: u64,
        data: &[u8],
    ) -> FlashResult<OpCompletion> {
        self.write_page(now, page_id, data)
    }

    /// Write a batch of pages as one submission.
    ///
    /// The batch write protocol and its invariants:
    ///
    /// * the backend may reorder and overlap the writes internally (the NoFTL
    ///   backend groups them by region and dispatches one multi-page program
    ///   per die), but after the returned instant **every** page of the batch
    ///   is durable with exactly the content passed in;
    /// * if the same page id appears twice, the later entry wins — the same
    ///   outcome as issuing the batch as sequential `write_page` calls;
    /// * a 1-page batch must behave exactly like [`StorageBackend::write_page`]
    ///   (same commands, same timing, same counters);
    /// * an error fails the submission; the caller must not assume any page
    ///   of the batch became durable.
    ///
    /// The default implementation is the legacy path: one `write_page` per
    /// page, each issued at the completion of the previous one.  Returns the
    /// virtual time when the last write completed.
    fn write_pages(
        &mut self,
        now: SimInstant,
        pages: &[(PageId, &[u8])],
    ) -> FlashResult<SimInstant> {
        let mut t = now;
        for (page_id, data) in pages {
            let c = self.write_page(t, *page_id, data)?;
            t = t.max(c.completed_at);
        }
        Ok(t)
    }

    /// Read a batch of pages as one submission — the read-side sibling of
    /// [`StorageBackend::write_pages`].
    ///
    /// The backend may reorder and overlap the reads internally (the NoFTL
    /// backend groups them by die and dispatches one multi-page read per
    /// die); after the returned instant **every** buffer holds its page's
    /// content.  A 1-page batch must behave exactly like
    /// [`StorageBackend::read_page`]; an error fails the whole submission
    /// with no buffer guaranteed filled.
    ///
    /// The default implementation is the legacy path: one `read_page` per
    /// page, each issued at the completion of the previous one.  Returns the
    /// virtual time when the last read completed.
    fn read_pages(
        &mut self,
        now: SimInstant,
        reqs: &mut [(PageId, &mut [u8])],
    ) -> FlashResult<SimInstant> {
        let mut t = now;
        for (page_id, buf) in reqs.iter_mut() {
            let c = self.read_page(t, *page_id, buf)?;
            t = t.max(c.completed_at);
        }
        Ok(t)
    }

    /// Drain the completions of queued asynchronous submissions recorded
    /// since the last poll, in submit order — the stream a poll-driven
    /// engine loop advances its clock off.  Back ends without device queues
    /// have nothing to report.
    fn poll_completions(&mut self) -> Vec<nand_flash::QueuedCompletion> {
        Vec::new()
    }

    /// Hint that `page_id` no longer holds useful data (deallocated by the
    /// free-space manager, truncated WAL segment, dropped table).
    fn free_page_hint(&mut self, now: SimInstant, page_id: u64) -> FlashResult<()>;

    /// Set the asynchronous submission depth (per-die command-queue window).
    /// Depth 1 is the synchronous dispatch; back ends without device queues
    /// ignore the setting.
    fn set_async_depth(&mut self, _depth: usize) {}

    /// Enable gap-backfilling device occupancy for multi-client timing
    /// (off = the pinned `busy_until` ratchet, identical for monotone
    /// submission times).  Back ends without a timing model ignore it.
    fn set_backfill_occupancy(&mut self, _on: bool) {}

    /// Barrier over any in-flight asynchronous submissions: returns the
    /// instant by which everything submitted so far has completed (at least
    /// `now`).  Synchronous back ends complete every call inline, so the
    /// default is a no-op.
    fn drain(&mut self, now: SimInstant) -> SimInstant {
        now
    }

    /// Commands in flight on the device as of `now` — the foreground-load
    /// signal the load-aware flusher throttle consults before launching a
    /// wave.  Back ends without device queues report no pressure.
    fn queue_occupancy(&self, _now: SimInstant) -> usize {
        0
    }

    /// Give the backend one opportunity for proactive background
    /// reclamation at a load-chosen instant (the NoFTL backend relocates a
    /// GC victim only while the device is read-cold; see
    /// [`noftl_core::NoFtl::schedule_gc`]).  Returns the completion instant
    /// of any work done (at least `now`); back ends without
    /// background work return `now` unchanged.
    fn schedule_background_gc(&mut self, now: SimInstant) -> FlashResult<SimInstant> {
        Ok(now)
    }

    /// Give the backend one opportunity for background rebuild work after a
    /// die failure, at a load-chosen instant (the NoFTL backend reconstructs
    /// a bounded batch of lost pages onto surviving dies only while the
    /// device is read-cold; see [`noftl_core::NoFtl::schedule_rebuild`]).
    /// Returns the completion instant of any work done (at least `now`);
    /// back ends without redundancy machinery return `now` unchanged.
    fn schedule_rebuild(&mut self, now: SimInstant) -> FlashResult<SimInstant> {
        Ok(now)
    }

    /// Number of physical regions the backend exposes (1 when the physical
    /// layout is hidden behind a block interface).
    fn regions(&self) -> usize {
        1
    }

    /// Region a page maps to (always 0 for single-region back ends).
    fn region_of_page(&self, _page_id: u64) -> usize {
        0
    }

    /// Aggregate I/O counters.
    fn counters(&self) -> BackendCounters;

    /// Reset statistics between experiment phases.
    fn reset_counters(&mut self);

    /// Downcast hook: the concrete backend behind a `dyn StorageBackend`.
    /// The engine owns its backend as a trait object; fault-injection tests
    /// use this to reach the embedded NoFTL's recovery statistics after a
    /// run.  Backends that do not opt in return `None`.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }

    /// Mutable counterpart of [`StorageBackend::as_any`]: die-failure chaos
    /// tests use this to arm a deterministic kill plan on the embedded
    /// device *mid-run*, after the workload's load phase has placed real
    /// data on the die about to fail.
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        None
    }
}

// ---------------------------------------------------------------------------
// NoFTL backend (Figure 1.c)
// ---------------------------------------------------------------------------

/// Native-Flash backend: the DBMS embeds [`noftl_core::NoFtl`].
pub struct NoFtlBackend {
    noftl: NoFtl,
}

impl NoFtlBackend {
    /// Wrap a NoFTL instance as configured.  [`Knobs::noftl_backend`]
    /// wraps one with the environment knobs injected.
    pub fn new(noftl: NoFtl) -> Self {
        Self { noftl }
    }

    /// Borrow the embedded NoFTL (statistics, region manager).
    pub fn noftl(&self) -> &NoFtl {
        &self.noftl
    }

    /// Mutably borrow the embedded NoFTL.
    pub fn noftl_mut(&mut self) -> &mut NoFtl {
        &mut self.noftl
    }
}

impl StorageBackend for NoFtlBackend {
    fn name(&self) -> String {
        "noftl".into()
    }

    fn page_size(&self) -> usize {
        self.noftl.device().geometry().page_size as usize
    }

    fn num_pages(&self) -> u64 {
        self.noftl.logical_pages()
    }

    fn read_page(
        &mut self,
        now: SimInstant,
        page_id: u64,
        buf: &mut [u8],
    ) -> FlashResult<OpCompletion> {
        self.noftl.read(now, page_id, buf)
    }

    fn write_page(
        &mut self,
        now: SimInstant,
        page_id: u64,
        data: &[u8],
    ) -> FlashResult<OpCompletion> {
        self.noftl.write(now, page_id, data)
    }

    fn write_page_in_region(
        &mut self,
        now: SimInstant,
        region: usize,
        page_id: u64,
        data: &[u8],
    ) -> FlashResult<OpCompletion> {
        self.noftl.write_in_region(now, region, page_id, data)
    }

    fn write_pages(
        &mut self,
        now: SimInstant,
        pages: &[(PageId, &[u8])],
    ) -> FlashResult<SimInstant> {
        self.noftl.write_batch(now, pages)
    }

    fn read_pages(
        &mut self,
        now: SimInstant,
        reqs: &mut [(PageId, &mut [u8])],
    ) -> FlashResult<SimInstant> {
        self.noftl.read_batch(now, reqs)
    }

    fn poll_completions(&mut self) -> Vec<nand_flash::QueuedCompletion> {
        self.noftl.poll_completions()
    }

    fn free_page_hint(&mut self, _now: SimInstant, page_id: u64) -> FlashResult<()> {
        self.noftl.mark_dead(page_id)
    }

    fn set_async_depth(&mut self, depth: usize) {
        self.noftl.set_async_depth(depth);
    }

    fn set_backfill_occupancy(&mut self, on: bool) {
        self.noftl.set_backfill_occupancy(on);
    }

    fn drain(&mut self, now: SimInstant) -> SimInstant {
        self.noftl.drain(now)
    }

    fn queue_occupancy(&self, now: SimInstant) -> usize {
        self.noftl.queue_occupancy(now)
    }

    fn schedule_background_gc(&mut self, now: SimInstant) -> FlashResult<SimInstant> {
        Ok(self.noftl.schedule_gc(now)?.unwrap_or(now))
    }

    fn schedule_rebuild(&mut self, now: SimInstant) -> FlashResult<SimInstant> {
        Ok(self.noftl.schedule_rebuild(now)?.unwrap_or(now))
    }

    fn regions(&self) -> usize {
        self.noftl.regions()
    }

    fn region_of_page(&self, page_id: u64) -> usize {
        self.noftl.region_of_lpn(page_id)
    }

    fn counters(&self) -> BackendCounters {
        let s = self.noftl.stats();
        let f = self.noftl.flash_stats();
        BackendCounters {
            host_reads: s.host_reads,
            host_writes: s.host_writes,
            internal_copies: s.gc_page_copies,
            erases: s.gc_erases,
            device_copybacks: f.copybacks,
        }
    }

    fn reset_counters(&mut self) {
        self.noftl.reset_stats();
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

// ---------------------------------------------------------------------------
// Block-device backend (Figure 1.a / 1.b)
// ---------------------------------------------------------------------------

/// Conventional backend: any [`BlockDevice`] (an emulated SSD with an FTL
/// inside, or a plain raw device).
pub struct BlockDeviceBackend<D: BlockDevice> {
    device: D,
    name: String,
    reads: u64,
    writes: u64,
    /// The FTL's (GC copies, erases) at the last counter reset.
    gc_base: (u64, u64),
}

impl<D: BlockDevice> BlockDeviceBackend<D> {
    /// Wrap a block device under the given stack name.
    pub fn new(device: D, name: impl Into<String>) -> Self {
        Self {
            device,
            name: name.into(),
            reads: 0,
            writes: 0,
            gc_base: (0, 0),
        }
    }

    /// The device FTL's cumulative (GC page copies, GC erases); zero for a
    /// device without an FTL.
    fn gc_counts(&self) -> (u64, u64) {
        self.device
            .ftl_stats()
            .map_or((0, 0), |s| (s.gc_page_copies, s.gc_erases))
    }

    /// Borrow the wrapped device.
    pub fn device(&self) -> &D {
        &self.device
    }

    /// Mutably borrow the wrapped device.
    pub fn device_mut(&mut self) -> &mut D {
        &mut self.device
    }
}

impl<D: BlockDevice + Send> StorageBackend for BlockDeviceBackend<D> {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn page_size(&self) -> usize {
        self.device.block_size()
    }

    fn num_pages(&self) -> u64 {
        self.device.num_blocks()
    }

    fn read_page(
        &mut self,
        now: SimInstant,
        page_id: u64,
        buf: &mut [u8],
    ) -> FlashResult<OpCompletion> {
        self.reads += 1;
        self.device.read_block(now, page_id, buf)
    }

    fn write_page(
        &mut self,
        now: SimInstant,
        page_id: u64,
        data: &[u8],
    ) -> FlashResult<OpCompletion> {
        self.writes += 1;
        self.device.write_block(now, page_id, data)
    }

    fn free_page_hint(&mut self, now: SimInstant, page_id: u64) -> FlashResult<()> {
        // The legacy interface can at best express this as a TRIM.
        self.device.trim_block(now, page_id)
    }

    fn counters(&self) -> BackendCounters {
        let (copies, erases) = self.gc_counts();
        BackendCounters {
            host_reads: self.reads,
            host_writes: self.writes,
            internal_copies: copies.saturating_sub(self.gc_base.0),
            erases: erases.saturating_sub(self.gc_base.1),
            ..Default::default()
        }
    }

    fn reset_counters(&mut self) {
        self.reads = 0;
        self.writes = 0;
        self.gc_base = self.gc_counts();
    }
}

// ---------------------------------------------------------------------------
// In-memory backend (trace recording / correctness oracle)
// ---------------------------------------------------------------------------

/// Zero-latency, RAM-backed storage used for in-memory benchmark runs and as
/// a correctness oracle.
pub struct MemBackend {
    page_size: usize,
    pages: Vec<Option<Box<[u8]>>>,
    reads: u64,
    writes: u64,
}

impl MemBackend {
    /// Create an in-memory backend with `num_pages` pages of `page_size` bytes.
    pub fn new(page_size: usize, num_pages: u64) -> Self {
        Self {
            page_size,
            pages: vec![None; num_pages as usize],
            reads: 0,
            writes: 0,
        }
    }
}

impl StorageBackend for MemBackend {
    fn name(&self) -> String {
        "mem".into()
    }

    fn page_size(&self) -> usize {
        self.page_size
    }

    fn num_pages(&self) -> u64 {
        self.pages.len() as u64
    }

    fn read_page(
        &mut self,
        now: SimInstant,
        page_id: u64,
        buf: &mut [u8],
    ) -> FlashResult<OpCompletion> {
        match self.pages.get(page_id as usize) {
            Some(Some(data)) => buf.copy_from_slice(data),
            Some(None) => buf.fill(0),
            None => {
                return Err(nand_flash::FlashError::InvalidAddress {
                    what: format!("page {page_id} out of range"),
                })
            }
        }
        self.reads += 1;
        Ok(OpCompletion {
            started_at: now,
            completed_at: now,
        })
    }

    fn write_page(
        &mut self,
        now: SimInstant,
        page_id: u64,
        data: &[u8],
    ) -> FlashResult<OpCompletion> {
        if page_id as usize >= self.pages.len() {
            return Err(nand_flash::FlashError::InvalidAddress {
                what: format!("page {page_id} out of range"),
            });
        }
        self.pages[page_id as usize] = Some(data.to_vec().into_boxed_slice());
        self.writes += 1;
        Ok(OpCompletion {
            started_at: now,
            completed_at: now,
        })
    }

    fn free_page_hint(&mut self, _now: SimInstant, page_id: u64) -> FlashResult<()> {
        if let Some(slot) = self.pages.get_mut(page_id as usize) {
            *slot = None;
        }
        Ok(())
    }

    fn counters(&self) -> BackendCounters {
        BackendCounters {
            host_reads: self.reads,
            host_writes: self.writes,
            ..Default::default()
        }
    }

    fn reset_counters(&mut self) {
        self.reads = 0;
        self.writes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftl::{Ftl, FtlBlockDevice, PageFtl};
    use nand_flash::FlashGeometry;
    use noftl_core::NoFtlConfig;

    #[test]
    fn mem_backend_roundtrip() {
        let mut b = MemBackend::new(4096, 32);
        let data = vec![7u8; 4096];
        b.write_page(0, 5, &data).unwrap();
        let mut buf = vec![0u8; 4096];
        b.read_page(0, 5, &mut buf).unwrap();
        assert_eq!(buf, data);
        assert_eq!(b.counters().host_reads, 1);
        assert_eq!(b.counters().host_writes, 1);
        b.free_page_hint(0, 5).unwrap();
        b.read_page(0, 5, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 0));
        b.reset_counters();
        assert_eq!(b.counters().host_reads, 0);
    }

    #[test]
    fn noftl_backend_exposes_regions() {
        let noftl = NoFtl::new(NoFtlConfig::new(FlashGeometry::small()));
        let mut b = NoFtlBackend::new(noftl);
        assert_eq!(b.name(), "noftl");
        assert_eq!(b.regions(), 4);
        let data = vec![1u8; b.page_size()];
        b.write_page(0, 0, &data).unwrap();
        b.write_page_in_region(0, 2, 1, &data).unwrap();
        let mut buf = vec![0u8; b.page_size()];
        b.read_page(0, 1, &mut buf).unwrap();
        assert_eq!(buf, data);
        assert_eq!(b.counters().host_writes, 2);
        b.free_page_hint(0, 0).unwrap();
        assert_eq!(b.noftl().stats().dead_page_hints, 1);
    }

    #[test]
    fn block_backend_wraps_ftl_device() {
        let ftl = PageFtl::with_geometry(FlashGeometry::small());
        let mut b = BlockDeviceBackend::new(FtlBlockDevice::new(ftl), "ftl-page");
        assert_eq!(b.regions(), 1);
        assert_eq!(b.region_of_page(1234), 0);
        let data = vec![2u8; b.page_size()];
        b.write_page(0, 9, &data).unwrap();
        let mut buf = vec![0u8; b.page_size()];
        b.read_page(0, 9, &mut buf).unwrap();
        assert_eq!(buf, data);
        // write_page_in_region falls back to a plain write.
        b.write_page_in_region(0, 3, 10, &data).unwrap();
        assert_eq!(b.counters().host_writes, 2);
        assert!(
            b.device().ftl().device().stats().programs >= 2,
            "writes must reach the flash device"
        );
    }

    #[test]
    fn block_backend_reports_the_ftl_gc_work() {
        let ftl = ftl::FasterFtl::with_geometry(FlashGeometry::small());
        let mut b = BlockDeviceBackend::new(FtlBlockDevice::new(ftl), "ftl-faster");
        let span = 512u64.min(b.num_pages());
        let mut rng = sim_utils::rng::SimRng::new(3);
        let mut now = 0;
        for i in 0..span + 3000 {
            let lpn = if i < span { i } else { rng.range(0, span) };
            let data = vec![lpn as u8; b.page_size()];
            now = b.write_page(now, lpn, &data).unwrap().completed_at;
        }
        let ftl = b.device().ftl().ftl_stats();
        assert!(ftl.full_merges > 0, "random overwrites must force merges");
        let counters = b.counters();
        assert!(counters.erases > 0);
        assert_eq!(counters.erases, ftl.gc_erases);
        assert_eq!(counters.internal_copies, ftl.gc_page_copies);
        b.reset_counters();
        assert_eq!((b.counters().internal_copies, b.counters().erases), (0, 0));
        // A device without an FTL has no hidden GC work.
        let mem = BlockDeviceBackend::new(ftl::MemBlockDevice::new(512, 8), "raw");
        assert_eq!(mem.counters(), BackendCounters::default());
    }

    #[test]
    fn write_pages_default_loop_on_mem_backend() {
        let mut b = MemBackend::new(512, 32);
        let pages: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 512]).collect();
        let batch: Vec<(u64, &[u8])> = pages.iter().enumerate().map(|(i, d)| (i as u64, d.as_slice())).collect();
        let t = b.write_pages(0, &batch).unwrap();
        assert_eq!(t, 0, "mem backend has zero latency");
        assert_eq!(b.counters().host_writes, 4);
        let mut buf = vec![0u8; 512];
        for (i, data) in pages.iter().enumerate() {
            b.read_page(0, i as u64, &mut buf).unwrap();
            assert_eq!(&buf, data);
        }
    }

    #[test]
    fn noftl_backend_batches_through_write_batch() {
        let noftl = NoFtl::new(NoFtlConfig::new(FlashGeometry::small()));
        let mut b = NoFtlBackend::new(noftl);
        let pages: Vec<Vec<u8>> = (0..16u8).map(|i| vec![i; b.page_size()]).collect();
        let batch: Vec<(u64, &[u8])> = pages.iter().enumerate().map(|(i, d)| (i as u64, d.as_slice())).collect();
        let t = b.write_pages(0, &batch).unwrap();
        assert!(t > 0);
        assert_eq!(b.counters().host_writes, 16);
        assert!(
            b.noftl().flash_stats().multi_page_dispatches > 0,
            "batch must reach the multi-page program command"
        );
        let mut buf = vec![0u8; b.page_size()];
        for (i, data) in pages.iter().enumerate() {
            b.read_page(t, i as u64, &mut buf).unwrap();
            assert_eq!(&buf, data);
        }
    }

    #[test]
    fn inflight_window_gates_and_drains() {
        let mut w = InflightWindow::new();
        assert_eq!(w.gate(2, 100), 100, "empty window never waits");
        w.push(500);
        w.push(700);
        assert_eq!(w.len(), 2);
        // Depth 2 full: next submission waits for the oldest completion.
        assert_eq!(w.gate(2, 100), 500);
        assert_eq!(w.len(), 1);
        // Depth 1 pops everything remaining.
        assert_eq!(w.gate(1, 100), 700);
        assert!(w.is_empty());
        w.push(900);
        assert_eq!(w.drain(100), 900, "barrier covers the slowest entry");
        assert_eq!(w.drain(100), 100, "drained window is empty");
        w.push(300);
        w.clear();
        assert_eq!(w.drain(0), 0, "clear forgets without waiting");
    }

    #[test]
    fn inflight_window_tracks_mixed_read_write_classes() {
        let mut w = InflightWindow::new();
        w.push(500); // write (historical default)
        w.push_read(700);
        w.push_class(900, OpClass::Write);
        assert_eq!(w.len(), 3);
        assert_eq!(w.writes_inflight(), 2);
        assert_eq!(w.reads_inflight(), 1);
        // The gate is class-blind: one bounded submission stream (depth 3
        // full → the oldest entry, a write, retires to make room).
        assert_eq!(w.gate(3, 100), 500);
        assert_eq!(w.writes_inflight(), 1);
        assert_eq!(w.reads_inflight(), 1);
        assert_eq!(w.drain(0), 900);
        assert_eq!(w.reads_inflight(), 0);
    }

    #[test]
    fn noftl_backend_batches_reads_and_surfaces_completions() {
        let noftl = NoFtl::new(NoFtlConfig::new(FlashGeometry::small()));
        let mut b = NoFtlBackend::new(noftl);
        let pages: Vec<Vec<u8>> = (0..16u8).map(|i| vec![i; b.page_size()]).collect();
        let batch: Vec<(u64, &[u8])> = pages
            .iter()
            .enumerate()
            .map(|(i, d)| (i as u64, d.as_slice()))
            .collect();
        let t = b.write_pages(0, &batch).unwrap();
        b.set_async_depth(4);
        let mut bufs: Vec<Vec<u8>> = (0..16).map(|_| vec![0u8; b.page_size()]).collect();
        let mut reqs: Vec<(u64, &mut [u8])> = bufs
            .iter_mut()
            .enumerate()
            .map(|(i, buf)| (i as u64, buf.as_mut_slice()))
            .collect();
        let end = b.read_pages(t, &mut reqs).unwrap();
        assert!(end > t);
        for (i, buf) in bufs.iter().enumerate() {
            assert_eq!(buf, &pages[i], "page {i} content wrong after batched read");
        }
        assert!(
            b.noftl().flash_stats().multi_page_read_dispatches > 0,
            "batch must reach the multi-page read command"
        );
        // The queued read submissions are pollable in submit order.
        let polled = b.poll_completions();
        assert!(!polled.is_empty());
        assert!(polled
            .iter()
            .any(|q| q.kind == nand_flash::OpKind::Read));
        assert!(b.poll_completions().is_empty(), "poll drains the stream");
        // The default (mem backend) read_pages loop also fills correctly.
        let mut m = MemBackend::new(512, 32);
        m.write_page(0, 3, &vec![7u8; 512]).unwrap();
        let mut buf = vec![0u8; 512];
        let t = m.read_pages(0, &mut [(3, buf.as_mut_slice())]).unwrap();
        assert_eq!(t, 0);
        assert_eq!(buf[0], 7);
        assert!(m.poll_completions().is_empty(), "mem backend has no queues");
    }

    /// The NoFTL settings the knobs inject: (async depth, fault seed, SLO
    /// read occupancy, SLO heat penalty, region 1's redundancy).
    fn injected(b: &NoFtlBackend) -> (usize, Option<u64>, usize, f64, RedundancyPolicy) {
        let n = b.noftl();
        let seed = n.device().fault_plan().map(|p| p.seed);
        let (occupancy, heat) = (n.gc_schedule_read_occupancy(), n.gc_read_heat_penalty());
        (n.async_depth(), seed, occupancy, heat, n.redundancy_policy(1))
    }

    #[test]
    fn constructors_build_what_the_default_knobs_describe() {
        let knobs = Knobs::default();
        let debug = |x: &dyn std::fmt::Debug| format!("{x:?}");
        assert_eq!(debug(&EngineConfig::new()), debug(&knobs.engine_config()));
        for f in [FlusherConfig::global(3), FlusherConfig::die_wise(5)] {
            assert_eq!(debug(&f), debug(&knobs.flushers(f)));
        }
        let noftl = || NoFtl::new(NoFtlConfig::new(FlashGeometry::small()));
        let unset = (1, None, 0, 0.0, RedundancyPolicy::None);
        assert_eq!(injected(&NoFtlBackend::new(noftl())), unset);
        assert_eq!(injected(&knobs.noftl_backend(noftl())), unset);
    }

    #[test]
    fn knobs_fill_what_the_config_left_unset() {
        let knobs = Knobs {
            batch_pages: 4,
            batch_global: true,
            async_depth: 8,
            readahead_window: 16,
            faults: Some(nand_flash::FaultPlan::seeded(42)),
            slo: true,
            redundancy: Some(RedundancyPolicy::Parity(2)),
        };
        let cfg = knobs.engine_config();
        assert_eq!((cfg.readahead_window, cfg.slo_scheduling), (16, true));
        assert!(cfg.admission.is_some());
        let f = knobs.flushers(FlusherConfig::die_wise(2));
        assert_eq!((f.writers, f.batch_pages, f.batch_global, f.async_depth), (2, 4, true, 8));
        let b = knobs.noftl_backend(NoFtl::new(NoFtlConfig::new(FlashGeometry::small())));
        assert_eq!(
            injected(&b),
            (
                8,
                Some(42),
                DEFAULT_SLO_GC_READ_OCCUPANCY,
                DEFAULT_SLO_GC_READ_HEAT_PENALTY,
                RedundancyPolicy::Parity(2)
            )
        );
        // An explicitly configured value always wins.
        let mut cfg = NoFtlConfig::new(FlashGeometry::small());
        cfg.async_queue_depth = 6;
        cfg.gc_schedule_read_occupancy = 7;
        cfg.gc_read_heat_penalty = 0.25;
        cfg.redundancy = vec![RedundancyPolicy::None, RedundancyPolicy::Mirror];
        let mut noftl = NoFtl::new(cfg);
        noftl.set_fault_plan(Some(nand_flash::FaultPlan::seeded(987654)));
        let b = knobs.noftl_backend(noftl);
        assert_eq!(injected(&b), (6, Some(987654), 7, 0.25, RedundancyPolicy::Mirror));
        assert_eq!(b.noftl().redundancy_policy(0), RedundancyPolicy::None);
    }

    #[test]
    fn redundancy_op_ratio_reserves_the_copy_share() {
        // Off leaves the baseline untouched (the equivalence invariant).
        assert_eq!(redundancy_op_ratio(0.10, None), 0.10);
        assert_eq!(redundancy_op_ratio(0.10, Some(RedundancyPolicy::None)), 0.10);
        // Parity(3): logical capacity shrinks by the 1/(k+1) parity share.
        let p3 = redundancy_op_ratio(0.10, Some(RedundancyPolicy::Parity(3)));
        assert!((p3 - 0.325).abs() < 1e-12, "got {p3}");
        // Wider stripes cost less spare space.
        let p7 = redundancy_op_ratio(0.10, Some(RedundancyPolicy::Parity(7)));
        assert!(p7 < p3);
        // Mirror halves the logical capacity.
        let m = redundancy_op_ratio(0.10, Some(RedundancyPolicy::Mirror));
        assert!((m - 0.55).abs() < 1e-12, "got {m}");
        // The physical budget actually covers the copies: (1-op')*(1+1/k)
        // must not exceed the baseline's occupancy ceiling.
        assert!((1.0 - p3) * (1.0 + 1.0 / 3.0) <= 1.0 - 0.10 + 1e-12);
        assert!((1.0 - m) * 2.0 <= 1.0 - 0.10 + 1e-12);
    }

    #[test]
    fn noftl_backend_schedules_rebuild_through_the_trait() {
        // A healthy device has no rebuild work: the hook is a timing no-op
        // (the equivalence invariant for the engine's background slot).
        let mut b = NoFtlBackend::new(NoFtl::new(NoFtlConfig::new(FlashGeometry::small())));
        assert_eq!(b.schedule_rebuild(123).unwrap(), 123);
        assert_eq!(b.noftl().rebuild_stats().rebuild_scheduled, 0);
        // Back ends without redundancy machinery return `now` unchanged.
        assert_eq!(MemBackend::new(512, 8).schedule_rebuild(7).unwrap(), 7);
    }

    #[test]
    fn noftl_backend_surfaces_queue_occupancy() {
        let mut b = NoFtlBackend::new(NoFtl::new(NoFtlConfig::new(FlashGeometry::small())));
        b.set_async_depth(4);
        let data = vec![5u8; b.page_size()];
        let batch: Vec<(u64, &[u8])> = (0..8u64).map(|i| (i, data.as_slice())).collect();
        let end = b.write_pages(0, &batch).unwrap();
        assert!(
            b.queue_occupancy(0) > 0,
            "queued writes must register as occupancy at submit time"
        );
        assert_eq!(b.queue_occupancy(end), 0, "occupancy clears past the horizon");
        // Back ends without device queues never report pressure.
        assert_eq!(MemBackend::new(512, 8).queue_occupancy(0), 0);
    }

    #[test]
    fn inflight_window_reports_honest_occupancy() {
        let mut w = InflightWindow::new();
        w.push(500);
        w.push_read(700);
        assert_eq!(w.len(), 2);
        assert_eq!(w.inflight_at(100), 2);
        assert_eq!(w.inflight_at(500), 1, "a passed completion is not in flight");
        assert_eq!(w.inflight_at(700), 0);
        // len() still counts un-popped entries; inflight_at() does not.
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn backends_are_object_safe() {
        let mut backends: Vec<Box<dyn StorageBackend>> = vec![
            Box::new(MemBackend::new(512, 8)),
            Box::new(NoFtlBackend::new(NoFtl::new(NoFtlConfig::new(
                FlashGeometry::tiny(),
            )))),
        ];
        for b in backends.iter_mut() {
            let data = vec![3u8; b.page_size()];
            b.write_page(0, 0, &data).unwrap();
            let mut buf = vec![0u8; b.page_size()];
            b.read_page(0, 0, &mut buf).unwrap();
            assert_eq!(buf, data);
        }
    }
}
