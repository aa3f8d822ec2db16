//! The NoFTL storage manager: DBMS-integrated Flash management over the
//! native Flash interface.
//!
//! [`NoFtl`] is the component a database storage manager embeds when it runs
//! on native Flash (Figure 2 of the paper).  It owns the device, the
//! host-resident mapping table, the region manager, GC, wear leveling and the
//! bad-block manager, and exposes a logical-page read/write interface plus
//! the DBMS-specific hooks that an on-device FTL can never have:
//!
//! * [`NoFtl::mark_dead`] — the free-space manager declares a page dead so GC
//!   never copies it;
//! * [`NoFtl::region_of_lpn`] / [`NoFtl::regions`] — exposes the physical
//!   layout so the buffer manager can bind db-writers to regions (§3.2);
//! * [`NoFtl::write_in_region`] — placement-aware writes used by the
//!   Flash-aware flusher assignment.

use nand_flash::{
    BlockAddr, DeviceConfig, DeviceIdentification, FaultPlan, FlashError, FlashGeometry,
    FlashResult, FlashStats, NandDevice, NativeFlashInterface, Oob, OpCompletion, PageState, Ppa,
    QueuedCompletion,
};
use sim_utils::flatmap::FlatBitSet;
use sim_utils::time::SimInstant;

use crate::bad_block::{BadBlockManager, RetireReason};
use crate::config::{NoFtlConfig, RedundancyPolicy};
use crate::gc::{select_victim, GcPolicy};
use crate::mapping::HostMappingTable;
use crate::regions::{RegionId, RegionManager};
use crate::stats::{NoFtlStats, RebuildStats, RedundancyStats};
use crate::wear::WearLeveler;

/// Sentinel: "this physical page is not in any parity stripe".
const NO_STRIPE: u32 = u32::MAX;
/// Sentinel: "this physical page has no mirror copy".
const NO_MIRROR: u64 = u64::MAX;

/// A sealed parity stripe: up to `k` data pages on pairwise-distinct dies
/// plus one XOR parity page on yet another die.  The stripe covers the
/// *flash contents* of its pages — content survives logical invalidation
/// (NAND keeps it until the block erases), so a stripe only breaks when one
/// of its blocks is erased or retired.
#[derive(Debug, Clone)]
struct Stripe {
    /// Flat physical addresses of the data members.
    members: Vec<u64>,
    /// Flat physical address of the parity page.
    parity: u64,
}

/// DBMS-integrated Flash management (the paper's contribution).
pub struct NoFtl {
    device: NandDevice,
    map: HostMappingTable,
    regions: RegionManager,
    bad_blocks: BadBlockManager,
    wear: WearLeveler,
    gc_policy: GcPolicy,
    stats: NoFtlStats,
    /// Physical pages invalidated through dead-page hints (distinguished from
    /// ordinary superseded pages for reporting).
    dead_hinted: FlatBitSet,
    logical_pages: u64,
    gc_low: usize,
    gc_high: usize,
    page_size: usize,
    scratch: Vec<u8>,
    /// Per-die command-queue depth of the asynchronous write path (1 = every
    /// dispatch waits for its predecessor: the synchronous semantics).
    async_depth: usize,
    /// Pages per batched GC relocation dispatch (<= 1 = legacy per-page path).
    gc_batch_pages: usize,
    /// Read-heat penalty of GC victim scoring (0.0 = read-blind, identical
    /// to the legacy scorer; see [`crate::gc::select_victim`]).
    gc_read_heat_penalty: f64,
    /// Decaying per-die recent-read accumulator feeding victim scoring:
    /// halved and topped up with the [`FlashStats::per_die_reads`] delta at
    /// every victim selection, so heat tracks *current* interference rather
    /// than lifetime totals (stale skew decays away).  Maintained only while
    /// the penalty is on.
    gc_read_heat: Vec<u64>,
    /// `per_die_reads` snapshot the last heat update was taken against.
    gc_read_marker: Vec<u64>,
    /// Proactive GC read-occupancy threshold (0 = scheduling off; see
    /// [`NoFtl::schedule_gc`]).
    gc_schedule_read_occupancy: usize,
    /// Whether the device runs with a fault plan (cached at construction so
    /// the fault-free hot paths pay nothing for the recovery machinery).
    faults_active: bool,
    /// Read-disturb scrub threshold (see
    /// [`NoFtlConfig::scrub_read_disturb_threshold`]).
    scrub_threshold: u64,
    /// Per-region redundancy policy (empty = unconfigured, all `None`).
    redundancy: Vec<RedundancyPolicy>,
    /// Cached "any region is protected" gate: when false every redundancy
    /// hook is a single branch, keeping the unprotected build bit- and
    /// cycle-identical to one without the machinery.
    redundancy_active: bool,
    /// Open parity stripe: flat addresses of data members accumulated so
    /// far.  Global — under die-wise striping a region is a single die, so
    /// die-disjoint stripes necessarily span regions.
    open_stripe: Vec<u64>,
    /// Running XOR of the open stripe members' contents, kept in host
    /// memory so the stripe can seal without re-reading members (even ones
    /// on a die that just died).
    open_stripe_xor: Vec<u8>,
    /// Flat physical page → sealed stripe id ([`NO_STRIPE`] = none).
    /// Dense `Vec` rather than a hash map per the determinism rules of the
    /// simulation crates; sized lazily when redundancy first activates.
    stripe_of: Vec<u32>,
    /// Sealed stripes by id; `None` slots are free for reuse.
    stripes: Vec<Option<Stripe>>,
    /// Free-list of reusable stripe ids.
    stripe_free_ids: Vec<u32>,
    /// Flat physical page ↔ flat physical page mirror links, both
    /// directions ([`NO_MIRROR`] = none).
    mirror_of: Vec<u64>,
    /// Dies this layer has already reacted to as dead (flat index), diffed
    /// against [`NandDevice::dead_dies`] on each failure notification.
    known_dead: Vec<bool>,
    /// Online-rebuild cursors: `(die_flat, next page offset inside the
    /// die)` for every dead die whose mapped pages are still being walked.
    rebuild_cursors: Vec<(usize, u64)>,
    /// Redundancy counters (parity/mirror/degraded reads).
    redundancy_stats: RedundancyStats,
    /// Rebuild counters.
    rebuild_stats: RebuildStats,
    /// Cumulative device reads issued by reconstruction / rebuild /
    /// redundancy maintenance, per die — subtracted from the GC read-heat
    /// deltas so rebuild traffic cannot bias victim selection.
    rebuild_reads_per_die: Vec<u64>,
    /// `rebuild_reads_per_die` snapshot of the last heat update.
    rebuild_read_marker: Vec<u64>,
    /// Completion instant of re-protection work done while unwinding the
    /// committed prefix of a failed batched relocation.  The error path
    /// cannot carry a timestamp, so the work is stashed here and folded
    /// into the retirement that always follows the failure
    /// ([`NoFtl::retire_failed_block`] takes it).  Stays 0 with redundancy
    /// off, keeping the off leg cycle-identical.
    unwind_horizon: SimInstant,
}

/// Additional read attempts the retry ladder issues after an uncorrectable
/// ECC result before giving up (each attempt draws the read-error model
/// independently, the way real controllers step through retry voltages).
const READ_RETRY_LIMIT: u32 = 3;

/// Mapped pages one background rebuild step reconstructs before yielding —
/// small so foreground traffic slips between steps (the SLO scheduler
/// additionally defers steps into read-cold instants).
const REBUILD_BATCH_PAGES: u64 = 8;

/// XOR `data` into `acc` (parity accumulation and reconstruction).
fn xor_into(acc: &mut [u8], data: &[u8]) {
    for (a, b) in acc.iter_mut().zip(data.iter()) {
        *a ^= *b;
    }
}

impl NoFtl {
    /// Build a NoFTL instance and its backing device from `config`.
    pub fn new(config: NoFtlConfig) -> Self {
        let geometry = config.geometry;
        let mut dev_cfg = DeviceConfig::new(geometry);
        dev_cfg.store_data = config.store_data;
        dev_cfg.endurance_override = config.endurance_override;
        let device = NandDevice::new(dev_cfg);
        Self::with_device(device, config)
    }

    /// Build NoFTL on top of an existing device (e.g. one shared with an
    /// emulator front-end).
    ///
    /// Blocks the device reports as factory-bad are retired up front, and
    /// the exported logical capacity (and thus the OP headroom the GC
    /// watermarks defend) is derived from the *post-retirement* physical
    /// capacity — a device shipped with bad blocks must not promise logical
    /// pages it cannot back.
    pub fn with_device(device: NandDevice, config: NoFtlConfig) -> Self {
        let geometry = *device.geometry();
        let mut regions = RegionManager::new(geometry, config.striping);
        let mut bad_blocks = BadBlockManager::new();
        let mut factory_bad_pages: u64 = 0;
        for channel in 0..geometry.channels {
            for die in 0..geometry.dies_per_channel {
                for plane in 0..geometry.planes_per_die {
                    for block in 0..geometry.blocks_per_plane {
                        let addr = BlockAddr::new(channel, die, plane, block);
                        let usable = device.block_info(addr).map(|i| i.usable).unwrap_or(false);
                        if !usable {
                            bad_blocks.retire(addr, RetireReason::Factory);
                            regions.retire_block(addr);
                            factory_bad_pages += geometry.pages_per_block as u64;
                        }
                    }
                }
            }
        }
        let usable_pages = geometry.total_pages() - factory_bad_pages;
        let logical_pages = config
            .logical_pages()
            .min(((usable_pages as f64) * (1.0 - config.op_ratio)).floor() as u64);
        assert!(logical_pages > 0, "no logical capacity left after OP");
        let mut device = device;
        device.set_queue_depth(config.async_queue_depth.max(1));
        let faults_active = device.faults_enabled();
        let redundancy = config.redundancy.clone();
        let redundancy_active = redundancy.iter().any(|p| p.is_protected());
        let (stripe_of, mirror_of) = if redundancy_active {
            let total = geometry.total_pages() as usize;
            (vec![NO_STRIPE; total], vec![NO_MIRROR; total])
        } else {
            (Vec::new(), Vec::new())
        };
        Self {
            faults_active,
            redundancy,
            redundancy_active,
            open_stripe: Vec::new(),
            open_stripe_xor: Vec::new(),
            stripe_of,
            stripes: Vec::new(),
            stripe_free_ids: Vec::new(),
            mirror_of,
            known_dead: Vec::new(),
            rebuild_cursors: Vec::new(),
            redundancy_stats: RedundancyStats::default(),
            rebuild_stats: RebuildStats::default(),
            rebuild_reads_per_die: Vec::new(),
            rebuild_read_marker: Vec::new(),
            unwind_horizon: 0,
            scrub_threshold: config.scrub_read_disturb_threshold.max(1),
            device,
            map: HostMappingTable::with_physical_pages(logical_pages, geometry.total_pages()),
            regions,
            bad_blocks,
            wear: WearLeveler::new(config.wear_leveling_threshold),
            gc_policy: GcPolicy::Greedy,
            stats: NoFtlStats::new(),
            dead_hinted: FlatBitSet::with_index_capacity(geometry.total_pages() as usize),
            logical_pages,
            gc_low: config.gc_low_watermark.max(1),
            gc_high: config.gc_high_watermark.max(config.gc_low_watermark + 1),
            page_size: geometry.page_size as usize,
            scratch: vec![0u8; geometry.page_size as usize],
            async_depth: config.async_queue_depth.max(1),
            gc_batch_pages: config.gc_batch_pages,
            gc_read_heat_penalty: config.gc_read_heat_penalty,
            gc_read_heat: Vec::new(),
            gc_read_marker: Vec::new(),
            gc_schedule_read_occupancy: config.gc_schedule_read_occupancy,
        }
    }

    /// Convenience constructor with the default configuration for `geometry`.
    pub fn with_geometry(geometry: FlashGeometry) -> Self {
        Self::new(NoFtlConfig::new(geometry))
    }

    /// Number of logical pages exported to the DBMS.
    pub fn logical_pages(&self) -> u64 {
        self.logical_pages
    }

    /// Device identification (geometry, endurance, capabilities) — what the
    /// DBMS learns through the native interface's IDENTIFY command.
    pub fn identify(&self) -> DeviceIdentification {
        self.device.identify()
    }

    /// Number of physical regions (die-wise striping ⇒ number of dies).
    pub fn regions(&self) -> usize {
        self.regions.regions()
    }

    /// Region a logical page is striped to.
    pub fn region_of_lpn(&self, lpn: u64) -> RegionId {
        self.regions.region_of_lpn(lpn)
    }

    /// Borrow the region manager (placement queries by the buffer manager).
    pub fn region_manager(&self) -> &RegionManager {
        &self.regions
    }

    /// GC victim-selection policy (greedy by default).
    pub fn set_gc_policy(&mut self, policy: GcPolicy) {
        self.gc_policy = policy;
    }

    /// Per-die queue depth of the asynchronous write path.
    pub fn async_depth(&self) -> usize {
        self.async_depth
    }

    /// Set the per-die queue depth for batched write dispatches.  At depth 1
    /// every dispatch takes the synchronous `program_pages` path — commands,
    /// timing and statistics are identical to the pre-async code.  Deeper
    /// queues route dispatches through the device's submit/poll interface so
    /// runs from *different* submissions (successive flush cycles, WAL group
    /// commits) pipeline on the per-die command queues.
    pub fn set_async_depth(&mut self, depth: usize) {
        self.async_depth = depth.max(1);
        self.device.set_queue_depth(self.async_depth);
    }

    /// Enable or disable gap-backfilling die/channel occupancy on the
    /// device (default off: the pinned `busy_until` ratchet).  The
    /// multi-client engine turns it on so concurrent clients whose
    /// commands arrive out of timestamp order are not charged queue-wait
    /// on provably-idle resources.
    pub fn set_backfill_occupancy(&mut self, on: bool) {
        self.device.set_backfill_occupancy(on);
    }

    /// Set the maximum pages per batched GC relocation dispatch (`0`/`1`
    /// keeps the legacy per-relocation path).
    pub fn set_gc_batch_pages(&mut self, pages: usize) {
        self.gc_batch_pages = pages;
    }

    /// Set the read-heat penalty of GC victim scoring (`0.0` restores the
    /// read-blind legacy scorer; see [`crate::gc::select_victim`]).
    pub fn set_gc_read_heat_penalty(&mut self, penalty: f64) {
        self.gc_read_heat_penalty = penalty;
    }

    /// Current read-heat penalty of GC victim scoring.
    pub fn gc_read_heat_penalty(&self) -> f64 {
        self.gc_read_heat_penalty
    }

    /// Proactive GC scheduling threshold (`0` = off; see
    /// [`NoFtl::schedule_gc`]).
    pub fn gc_schedule_read_occupancy(&self) -> usize {
        self.gc_schedule_read_occupancy
    }

    /// Set the proactive GC scheduling threshold, in in-flight device reads
    /// (`0` disables [`NoFtl::schedule_gc`] entirely).
    pub fn set_gc_schedule_read_occupancy(&mut self, occupancy: usize) {
        self.gc_schedule_read_occupancy = occupancy;
    }

    /// Commands in flight across every die as of `now` — the foreground-load
    /// signal DBMS-side schedulers (flusher throttle, proactive GC) consult.
    pub fn queue_occupancy(&self, now: SimInstant) -> usize {
        self.device.inflight_total(now)
    }

    /// Read commands in flight across every die as of `now`.
    pub fn read_occupancy(&self, now: SimInstant) -> usize {
        self.device.inflight_reads(now)
    }

    /// Proactively reclaim one victim block in the most-pressured region,
    /// but only during a *read-cold* instant: when
    /// [`NoFtl::read_occupancy`] is at or above the configured threshold the
    /// relocation is deferred (counted in
    /// [`NoFtlStats::gc_deferred_hot`]), so background copies do not land in
    /// the middle of a foreground read burst.  Demand GC on the allocator's
    /// low-watermark path ([`ensure_region_space`](NoFtl) internals) remains
    /// the emergency backstop and is unchanged.
    ///
    /// Returns `Ok(None)` when scheduling is off (threshold 0), no region is
    /// under pressure (every region is above the high watermark), the
    /// instant is read-hot, or the chosen region holds no reclaimable
    /// garbage.
    pub fn schedule_gc(&mut self, now: SimInstant) -> FlashResult<Option<SimInstant>> {
        if self.gc_schedule_read_occupancy == 0 {
            return Ok(None);
        }
        let Some(region) = (0..self.regions.regions())
            .filter(|&r| self.regions.region_alive(r))
            .min_by_key(|&r| self.regions.free_blocks_in(r))
        else {
            return Ok(None);
        };
        if self.regions.free_blocks_in(region) >= self.gc_high {
            return Ok(None);
        }
        if self.read_occupancy(now) >= self.gc_schedule_read_occupancy {
            self.stats.gc_deferred_hot += 1;
            return Ok(None);
        }
        let end = self.gc_region_once(now, region)?;
        if end.is_some() {
            self.stats.gc_scheduled_cold += 1;
        }
        Ok(end)
    }

    /// Barrier over the device command queues: the instant by which every
    /// in-flight dispatch has completed (at least `now`).
    pub fn drain(&mut self, now: SimInstant) -> SimInstant {
        self.device.drain_queues(now)
    }

    /// Drain every queued completion recorded since the last poll, in submit
    /// order — the completion stream a poll-driven engine scheduler advances
    /// its clock off.
    pub fn poll_completions(&mut self) -> Vec<QueuedCompletion> {
        self.device.poll_completions()
    }

    /// NoFTL-level statistics.
    pub fn stats(&self) -> &NoFtlStats {
        &self.stats
    }

    /// Native-command statistics of the device.
    pub fn flash_stats(&self) -> &FlashStats {
        self.device.stats()
    }

    /// Borrow the underlying device.
    pub fn device(&self) -> &NandDevice {
        &self.device
    }

    /// Whether the underlying device runs with a fault-injection plan.
    pub fn faults_enabled(&self) -> bool {
        self.faults_active
    }

    /// Install (or clear) the device's fault-injection plan, keeping the
    /// cached fault-path gate in sync.  The DBMS-side knob wiring
    /// (`storage_engine::backend`) uses this to inject the centrally parsed
    /// `NOFTL_FAULTS` plan into a device configured without one; an
    /// explicitly configured plan is never overridden there.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.device.set_fault_plan(plan);
        self.faults_active = self.device.faults_enabled();
    }

    /// Bad-block registry.
    pub fn bad_blocks(&self) -> &BadBlockManager {
        &self.bad_blocks
    }

    /// Whether a redundancy policy vector was configured (even all-`None`).
    /// The DBMS-side knob wiring uses this to avoid overriding an
    /// explicitly configured instance with the `NOFTL_REDUNDANCY` default.
    pub fn redundancy_configured(&self) -> bool {
        !self.redundancy.is_empty()
    }

    /// Redundancy policy of `region` (`None` when unconfigured).
    pub fn redundancy_policy(&self, region: RegionId) -> RedundancyPolicy {
        self.redundancy
            .get(region)
            .copied()
            .unwrap_or(RedundancyPolicy::None)
    }

    /// Apply one redundancy policy to every region.
    pub fn set_redundancy_all(&mut self, policy: RedundancyPolicy) {
        self.redundancy = vec![policy; self.regions.regions()];
        self.refresh_redundancy();
    }

    /// Set the redundancy policy of a single region (unset regions stay
    /// `None`) — e.g. `Mirror` for the small hot WAL region, `Parity` for
    /// the data regions.
    pub fn set_redundancy_policy(&mut self, region: RegionId, policy: RedundancyPolicy) {
        if self.redundancy.len() < self.regions.regions() {
            self.redundancy
                .resize(self.regions.regions(), RedundancyPolicy::None);
        }
        if region < self.redundancy.len() {
            self.redundancy[region] = policy;
        }
        self.refresh_redundancy();
    }

    fn refresh_redundancy(&mut self) {
        self.redundancy_active = self.redundancy.iter().any(|p| p.is_protected());
        if self.redundancy_active && self.stripe_of.is_empty() {
            let total = self.device.geometry().total_pages() as usize;
            self.stripe_of = vec![NO_STRIPE; total];
            self.mirror_of = vec![NO_MIRROR; total];
        }
    }

    /// Redundancy counters (parity, mirroring, degraded reads).
    pub fn redundancy_stats(&self) -> &RedundancyStats {
        &self.redundancy_stats
    }

    /// Online-rebuild counters.
    pub fn rebuild_stats(&self) -> &RebuildStats {
        &self.rebuild_stats
    }

    /// Whether any die of the device has failed permanently.
    pub fn any_die_dead(&self) -> bool {
        self.device.any_die_dead()
    }

    /// Reset NoFTL and device statistics.
    pub fn reset_stats(&mut self) {
        self.stats.clear();
        self.device.reset_stats();
        self.redundancy_stats.clear();
        self.rebuild_stats.clear();
    }

    fn check_lpn(&self, lpn: u64) -> FlashResult<()> {
        if lpn < self.logical_pages {
            Ok(())
        } else {
            Err(FlashError::InvalidAddress {
                what: format!(
                    "logical page {lpn} out of range (capacity {})",
                    self.logical_pages
                ),
            })
        }
    }

    fn check_buf(&self, len: usize) -> FlashResult<()> {
        if len == self.page_size {
            Ok(())
        } else {
            Err(FlashError::BufferSizeMismatch {
                expected: self.page_size,
                actual: len,
            })
        }
    }

    /// Read logical page `lpn`.
    ///
    /// At [`NoFtl::async_depth`] 1 this is the synchronous PAGE READ —
    /// identical commands, timing and statistics to the pre-async code.  At
    /// deeper settings the read is *submitted* into its die's command queue,
    /// so it honestly queues behind whatever program/erase/GC commands are
    /// already in flight there; the returned completion (a ticket on the
    /// deterministic virtual clock) says when the data may be used, and the
    /// recorded read latency includes the queueing delay — the paper's
    /// foreground-read interference, now observable.
    pub fn read(&mut self, now: SimInstant, lpn: u64, buf: &mut [u8]) -> FlashResult<OpCompletion> {
        self.check_lpn(lpn)?;
        self.check_buf(buf.len())?;
        let g = *self.device.geometry();
        let Some(flat) = self.map.get(lpn) else {
            return Err(FlashError::ReadOfUnwrittenPage(Ppa::from_flat(&g, 0)));
        };
        let ppa = Ppa::from_flat(&g, flat);
        let completion = match self.read_page_retrying(now, ppa, buf) {
            Ok((_, c)) => c,
            Err(FlashError::DieFailed(_)) => {
                // The page's die failed.  Mark the loss, then serve the read
                // degraded through the page's redundancy; unprotected pages
                // surface the typed failure to the engine's WAL-replay
                // rebuild.
                self.note_die_failures(now)?;
                self.read_degraded(now, flat, buf)?
            }
            Err(e) => return Err(e),
        };
        self.stats.host_reads += 1;
        self.stats.read_latency.record(completion.latency_from(now));
        self.maybe_scrub(completion.completed_at, ppa.block_addr())?;
        Ok(completion)
    }

    /// One logical read with the bounded read-retry ladder: an uncorrectable
    /// ECC result is re-attempted up to [`READ_RETRY_LIMIT`] more times (each
    /// attempt draws the error model independently and charges real device
    /// time) before the failure is surfaced to the caller.  Fault-free
    /// devices never retry, so this is exactly the legacy single read.
    fn read_page_retrying(
        &mut self,
        now: SimInstant,
        ppa: Ppa,
        buf: &mut [u8],
    ) -> FlashResult<(Oob, OpCompletion)> {
        let mut attempt = 0;
        loop {
            let res = if self.async_depth > 1 {
                self.device
                    .submit_read_page(now, ppa, buf)
                    .map(|(oob, q)| (oob, q.completion))
            } else {
                self.device.read_page(now, ppa, buf)
            };
            match res {
                Ok(oc) => {
                    if attempt > 0 {
                        self.stats.read_retry_successes += 1;
                    }
                    return Ok(oc);
                }
                Err(FlashError::UncorrectableEcc(_)) if attempt < READ_RETRY_LIMIT => {
                    attempt += 1;
                    self.stats.read_retries += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Read a batch of logical pages as die-wise multi-page read dispatches —
    /// the read-side sibling of [`NoFtl::write_batch`].
    ///
    /// The batch is grouped by die in arrival order; each die's run is handed
    /// to the device as one multi-page read command dispatched at `now`, so
    /// runs on different dies overlap and within a die the array senses
    /// pipeline with the channel transfers.  At [`NoFtl::async_depth`] > 1
    /// each run is *submitted* into its die's command queue and therefore
    /// queues behind in-flight flush/GC traffic instead of ignoring it.
    ///
    /// Invariants: a 1-page batch takes exactly the [`NoFtl::read`] path
    /// (identical commands, timing, statistics); reading the same LPN twice
    /// returns the same content twice; an invalid entry (unknown LPN, wrong
    /// buffer size) fails the whole batch before any device command issues.
    ///
    /// Returns the virtual time when the last dispatch completed.
    pub fn read_batch(
        &mut self,
        now: SimInstant,
        reqs: &mut [(u64, &mut [u8])],
    ) -> FlashResult<SimInstant> {
        match reqs {
            [] => return Ok(now),
            [(lpn, buf)] => {
                let lpn = *lpn;
                return Ok(self.read(now, lpn, buf)?.completed_at);
            }
            _ => {}
        }
        let g = *self.device.geometry();
        // Validate the whole batch (and resolve every mapping) up front: a
        // bad entry must not leave a partially issued batch behind.
        let mut ppas = Vec::with_capacity(reqs.len());
        for (lpn, buf) in reqs.iter() {
            self.check_lpn(*lpn)?;
            self.check_buf(buf.len())?;
            let Some(flat) = self.map.get(*lpn) else {
                return Err(FlashError::ReadOfUnwrittenPage(Ppa::from_flat(&g, 0)));
            };
            ppas.push(Ppa::from_flat(&g, flat));
        }
        let dies = g.total_dies() as usize;
        let mut by_die: Vec<Vec<(Ppa, &mut [u8])>> = (0..dies).map(|_| Vec::new()).collect();
        for ((_, buf), ppa) in reqs.iter_mut().zip(ppas.iter()) {
            by_die[ppa.die_addr().flat(&g) as usize].push((*ppa, &mut **buf));
        }
        let mut end = now;
        for mut ops in by_die {
            if ops.is_empty() {
                continue;
            }
            let pages = ops.len() as u64;
            let res = if self.async_depth > 1 {
                self.device.submit_read_pages(now, &mut ops).map(|q| q.completion)
            } else {
                self.device.read_pages(now, &mut ops)
            };
            match res {
                Ok(completion) => {
                    end = end.max(completion.completed_at);
                    self.stats.host_reads += pages;
                    for _ in 0..pages {
                        self.stats
                            .read_latency
                            .record(completion.completed_at.saturating_sub(now));
                    }
                }
                Err(FlashError::UncorrectableEcc(_)) => {
                    // One page of the run overwhelmed ECC; the multi-page
                    // dispatch aborted there.  Fall back to per-page reads so
                    // a single bad page cannot fail the whole run — each page
                    // gets its own retry ladder.  The fallback is itself a
                    // retry of the failed run (each per-page read re-senses),
                    // so it counts even when every page then reads clean on
                    // its first attempt.
                    self.stats.read_retries += 1;
                    for (ppa, buf) in ops.iter_mut() {
                        let (_, c) = self.read_page_retrying(now, *ppa, buf)?;
                        end = end.max(c.completed_at);
                        self.stats.host_reads += 1;
                        self.stats
                            .read_latency
                            .record(c.completed_at.saturating_sub(now));
                    }
                    self.stats.read_retry_successes += 1;
                }
                Err(FlashError::DieFailed(_)) => {
                    // The run's die failed: nothing of it transferred.  Serve
                    // each page individually, degraded where redundancy
                    // covers it.
                    self.note_die_failures(now)?;
                    for (ppa, buf) in ops.iter_mut() {
                        let c = match self.read_page_retrying(now, *ppa, buf) {
                            Ok((_, c)) => c,
                            Err(FlashError::DieFailed(_)) => {
                                self.read_degraded(now, ppa.flat(&g), buf)?
                            }
                            Err(e) => return Err(e),
                        };
                        end = end.max(c.completed_at);
                        self.stats.host_reads += 1;
                        self.stats
                            .read_latency
                            .record(c.completed_at.saturating_sub(now));
                    }
                }
                Err(e) => return Err(e),
            }
            if self.faults_active {
                let mut seen: Vec<BlockAddr> = Vec::new();
                for (ppa, _) in ops.iter() {
                    let block = ppa.block_addr();
                    if !seen.contains(&block) {
                        seen.push(block);
                        self.maybe_scrub(end, block)?;
                    }
                }
            }
        }
        Ok(end)
    }

    /// Write logical page `lpn`, placing it in the region its address stripes
    /// to (die-wise striping).
    pub fn write(&mut self, now: SimInstant, lpn: u64, data: &[u8]) -> FlashResult<OpCompletion> {
        let region = self.regions.region_of_lpn(lpn);
        self.write_in_region(now, region, lpn, data)
    }

    /// Write logical page `lpn` into an explicitly chosen region.  Used by
    /// the Flash-aware flusher experiments where placement is driven by the
    /// db-writer that owns the page.
    pub fn write_in_region(
        &mut self,
        now: SimInstant,
        region: RegionId,
        lpn: u64,
        data: &[u8],
    ) -> FlashResult<OpCompletion> {
        self.check_lpn(lpn)?;
        self.check_buf(data.len())?;
        let g = *self.device.geometry();
        let start = now;
        let mut t = now;
        // Program-failure recovery loop: a failed PAGE PROGRAM consumes the
        // attempted page, so the block is retired (after relocating its
        // still-valid pages) and the write repeats on a fresh allocation.
        // The loop terminates because every retry removes a block; when the
        // device runs out the allocation itself fails.
        let (ppa, completion) = loop {
            match self.ensure_region_space(t, region) {
                Ok(end) => t = end,
                Err(FlashError::ProgramFailed(failed)) => {
                    // GC relocation hit a failing destination block.
                    t = self.retire_failed_block(t, failed.block_addr())?;
                    continue;
                }
                Err(FlashError::DieFailed(_)) => {
                    // A die died under GC.  Mark it; dead regions stop
                    // garbage-collecting and the allocator routes around
                    // them.
                    t = self.note_die_failures(t)?;
                    continue;
                }
                Err(e) => return Err(e),
            }
            let ppa = match self.regions.allocate_page_in(region) {
                Some(p) => p,
                None => {
                    // The region is genuinely full (e.g. severely skewed
                    // placement): fall back to any region with space.
                    let mut found = None;
                    for r in 0..self.regions.regions() {
                        if let Some(p) = self.regions.allocate_page_in(r) {
                            found = Some(p);
                            break;
                        }
                    }
                    found.ok_or(FlashError::OutOfSpareBlocks)?
                }
            };
            match self.device.program_page(t, ppa, data, Oob::data(lpn, 0)) {
                Ok(c) => break (ppa, c),
                Err(FlashError::ProgramFailed(failed)) => {
                    t = self.retire_failed_block(t, failed.block_addr())?;
                }
                Err(FlashError::DieFailed(_)) => {
                    // The target die died between allocation and program:
                    // the page never transferred.  Mark the die dead (which
                    // also drops its allocation state) and re-allocate.
                    t = self.note_die_failures(t)?;
                }
                Err(e) => return Err(e),
            }
        };
        t = t.max(completion.completed_at);
        if let Some(old) = self.map.update(lpn, ppa.flat(&g)) {
            self.device.invalidate_page(Ppa::from_flat(&g, old))?;
            self.dead_hinted.remove(old);
            if self.redundancy_active {
                self.drop_mirror_of(old)?;
            }
        }
        if self.redundancy_active {
            t = self.protect_written(t, lpn, ppa, data)?;
        }
        self.stats.host_writes += 1;
        self.stats.write_latency.record(t.saturating_sub(start));
        Ok(OpCompletion {
            started_at: completion.started_at,
            completed_at: t,
        })
    }

    /// Write a batch of logical pages as die-wise multi-page program
    /// dispatches.
    ///
    /// The batch is grouped by region (die under die-wise striping) in
    /// arrival order; each region's run is allocated contiguously
    /// ([`RegionManager::allocate_run_in`]) and handed to the device as one
    /// multi-page program command per die, all dispatched at `now` — so runs
    /// on different dies overlap, and within a die the data transfers
    /// pipeline with the cell programs.  GC, when a region is below its
    /// watermark, runs on that region's own timeline before its dispatch.
    ///
    /// Invariants:
    /// * a 1-page batch takes exactly the [`NoFtl::write`] path — identical
    ///   commands, timing and statistics;
    /// * absent GC pressure, page placement is identical to issuing the
    ///   batch as sequential single-page writes (same allocation order per
    ///   region).  When a region crosses its GC watermark *mid-run* the
    ///   paths may place differently: the sequential path re-checks GC
    ///   before every page, while the batch path runs GC once per region
    ///   per submission and spills a drained region's remainder to other
    ///   regions (batched GC relocation is a ROADMAP follow-on);
    /// * if the same LPN appears twice, the later entry supersedes the
    ///   earlier one, exactly as sequential writes would.
    ///
    /// Returns the virtual time when the last dispatch completed.
    pub fn write_batch(&mut self, now: SimInstant, pages: &[(u64, &[u8])]) -> FlashResult<SimInstant> {
        match pages {
            [] => return Ok(now),
            [(lpn, data)] => return Ok(self.write(now, *lpn, data)?.completed_at),
            _ => {}
        }
        for (lpn, data) in pages {
            self.check_lpn(*lpn)?;
            self.check_buf(data.len())?;
        }
        let g = *self.device.geometry();
        let regions_n = self.regions.regions();
        let mut by_region: Vec<Vec<usize>> = vec![Vec::new(); regions_n];
        for (i, (lpn, _)) in pages.iter().enumerate() {
            by_region[self.regions.region_of_lpn(*lpn)].push(i);
        }
        let start = now;
        let mut end = now;
        for (region, idxs) in by_region.into_iter().enumerate() {
            if idxs.is_empty() {
                continue;
            }
            // Each region is a disjoint die set: its GC (if needed) and its
            // program dispatch run on their own timeline starting at `now`.
            let mut t0 = now;
            loop {
                match self.ensure_region_space(t0, region) {
                    Ok(end) => {
                        t0 = end;
                        break;
                    }
                    Err(FlashError::ProgramFailed(failed)) => {
                        // GC relocation hit a failing destination block.
                        t0 = self.retire_failed_block(t0, failed.block_addr())?;
                    }
                    Err(FlashError::DieFailed(_)) => {
                        t0 = self.note_die_failures(t0)?;
                    }
                    Err(e) => return Err(e),
                }
            }
            let run = self.regions.allocate_run_in(region, idxs.len());
            let mut allocs: Vec<(Ppa, usize)> = run
                .iter()
                .zip(idxs.iter())
                .map(|(&ppa, &i)| (ppa, i))
                .collect();
            // The region filled up mid-run (severely skewed placement): spill
            // the rest to any region with space, like write_in_region does.
            for &i in &idxs[allocs.len()..] {
                let mut found = None;
                for r in 0..regions_n {
                    if let Some(p) = self.regions.allocate_page_in(r) {
                        found = Some(p);
                        break;
                    }
                }
                allocs.push((found.ok_or(FlashError::OutOfSpareBlocks)?, i));
            }
            // Dispatch maximal same-die runs (a spill may change the die, and
            // multi-die regions round-robin dies at block boundaries).
            let mut j = 0;
            while j < allocs.len() {
                let die = allocs[j].0.die_addr();
                let mut k = j + 1;
                while k < allocs.len() && allocs[k].0.die_addr() == die {
                    k += 1;
                }
                let ops: Vec<(Ppa, &[u8], Oob)> = allocs[j..k]
                    .iter()
                    .map(|&(ppa, i)| (ppa, pages[i].1, Oob::data(pages[i].0, 0)))
                    .collect();
                // Depth 1: the synchronous dispatch (identical commands and
                // stamps).  Deeper: submit into the die's command queue, so
                // this run pipelines behind whatever earlier submissions
                // (previous flush cycles, WAL forces) still occupy the die.
                let res = if self.async_depth > 1 {
                    self.device.submit_program_pages(t0, &ops).map(|q| q.completion)
                } else {
                    self.device.program_pages(t0, &ops)
                };
                match res {
                    Ok(completion) => {
                        let t_run = completion.completed_at;
                        end = end.max(t_run);
                        for &(ppa, i) in &allocs[j..k] {
                            let lpn = pages[i].0;
                            if let Some(old) = self.map.update(lpn, ppa.flat(&g)) {
                                self.device.invalidate_page(Ppa::from_flat(&g, old))?;
                                self.dead_hinted.remove(old);
                                if self.redundancy_active {
                                    self.drop_mirror_of(old)?;
                                }
                            }
                            if self.redundancy_active {
                                end = end
                                    .max(self.protect_written(t_run, lpn, ppa, pages[i].1)?);
                            }
                            self.stats.host_writes += 1;
                            self.stats.write_latency.record(t_run.saturating_sub(start));
                        }
                    }
                    Err(FlashError::ProgramFailed(failed)) => {
                        // The run aborted at `failed`; the pages before it
                        // are committed on the device, so commit their
                        // mappings, then retire the failing block and
                        // re-write the rest of the run one page at a time.
                        // The tail's allocations must be unwound first:
                        // leaked pages in blocks the device never touched
                        // would desynchronise the allocator from the blocks'
                        // sequential write pointers (the failing block's own
                        // pages are covered by its retirement).
                        let fail_pos = allocs[j..k]
                            .iter()
                            .position(|&(ppa, _)| ppa == failed)
                            .unwrap_or(0);
                        // The aborted dispatch charged its partial timing up
                        // to the failing page.
                        let t_run = t0.max(self.device.die_busy_until(die));
                        end = end.max(t_run);
                        for &(ppa, i) in &allocs[j..j + fail_pos] {
                            let lpn = pages[i].0;
                            if let Some(old) = self.map.update(lpn, ppa.flat(&g)) {
                                self.device.invalidate_page(Ppa::from_flat(&g, old))?;
                                self.dead_hinted.remove(old);
                                if self.redundancy_active {
                                    self.drop_mirror_of(old)?;
                                }
                            }
                            if self.redundancy_active {
                                end = end
                                    .max(self.protect_written(t_run, lpn, ppa, pages[i].1)?);
                            }
                            self.stats.host_writes += 1;
                            self.stats.write_latency.record(t_run.saturating_sub(start));
                        }
                        let leaked: Vec<Ppa> = allocs[j + fail_pos..k]
                            .iter()
                            .map(|&(ppa, _)| ppa)
                            .filter(|p| p.block_addr() != failed.block_addr())
                            .collect();
                        self.regions.rollback_unprogrammed(&leaked);
                        let t_retired = self.retire_failed_block(t_run, failed.block_addr())?;
                        end = end.max(t_retired);
                        for &(_, i) in &allocs[j + fail_pos..k] {
                            let (lpn, data) = pages[i];
                            let c = self.write_in_region(t_retired, region, lpn, data)?;
                            end = end.max(c.completed_at);
                        }
                    }
                    Err(FlashError::DieFailed(_)) => {
                        // The run's die failed before any page transferred
                        // (a dead-die submission is rejected up front).
                        // Unwind the whole run's allocations, mark the die,
                        // and re-write every page through the per-page path,
                        // which routes around dead regions.
                        let leaked: Vec<Ppa> =
                            allocs[j..k].iter().map(|&(ppa, _)| ppa).collect();
                        self.regions.rollback_unprogrammed(&leaked);
                        let t_noted = self.note_die_failures(t0)?;
                        end = end.max(t_noted);
                        for &(_, i) in &allocs[j..k] {
                            let (lpn, data) = pages[i];
                            let c = self.write_in_region(t_noted, region, lpn, data)?;
                            end = end.max(c.completed_at);
                        }
                    }
                    Err(e) => return Err(e),
                }
                j = k;
            }
        }
        Ok(end)
    }

    /// Dead-page hint from the DBMS free-space manager: the logical page no
    /// longer holds useful data (dropped table, freed extent, superseded
    /// version).  Its physical page becomes garbage immediately and GC will
    /// never copy it.
    pub fn mark_dead(&mut self, lpn: u64) -> FlashResult<()> {
        self.check_lpn(lpn)?;
        let g = *self.device.geometry();
        if let Some(old) = self.map.unmap(lpn) {
            self.device.invalidate_page(Ppa::from_flat(&g, old))?;
            self.dead_hinted.insert(old);
            if self.redundancy_active {
                self.drop_mirror_of(old)?;
            }
        }
        self.stats.dead_page_hints += 1;
        Ok(())
    }

    /// Redundancy policy governing logical page `lpn` — the page's striping
    /// region decides, regardless of where a spill placed the physical copy,
    /// so a page's protection level is a stable function of its address.
    #[inline]
    fn policy_of_lpn(&self, lpn: u64) -> RedundancyPolicy {
        self.redundancy
            .get(self.regions.region_of_lpn(lpn))
            .copied()
            .unwrap_or(RedundancyPolicy::None)
    }

    /// A device read issued for reconstruction / redundancy maintenance /
    /// rebuild: identical to [`NoFtl::read_page_retrying`], but the per-die
    /// read counts it adds are shadow-tracked so GC's read-heat accumulator
    /// can subtract them ([`NoFtl::gc_region_once`]) — rebuild traffic must
    /// not masquerade as foreground heat and bias victim selection.
    fn reconstruction_read(
        &mut self,
        now: SimInstant,
        ppa: Ppa,
        buf: &mut [u8],
    ) -> FlashResult<(Oob, OpCompletion)> {
        let g = *self.device.geometry();
        let die = ppa.die_addr().flat(&g) as usize;
        let before = self
            .device
            .stats()
            .per_die_reads
            .get(die)
            .copied()
            .unwrap_or(0);
        let res = self.read_page_retrying(now, ppa, buf);
        let after = self
            .device
            .stats()
            .per_die_reads
            .get(die)
            .copied()
            .unwrap_or(0);
        if self.rebuild_reads_per_die.len() <= die {
            self.rebuild_reads_per_die.resize(die + 1, 0);
        }
        self.rebuild_reads_per_die[die] += after.saturating_sub(before);
        res
    }

    /// Post-commit protection hook: `lpn` just landed at `ppa` with content
    /// `data`.  Depending on the page's policy this mirrors it onto another
    /// die or joins it to the open parity stripe.  Must be called *after*
    /// the mapping committed.  No-op (one branch) when no region is
    /// protected.
    fn protect_written(
        &mut self,
        now: SimInstant,
        lpn: u64,
        ppa: Ppa,
        data: &[u8],
    ) -> FlashResult<SimInstant> {
        match self.policy_of_lpn(lpn) {
            RedundancyPolicy::None => Ok(now),
            RedundancyPolicy::Mirror => self.mirror_write(now, ppa, data),
            RedundancyPolicy::Parity(k) => {
                let g = *self.device.geometry();
                self.stripe_join(now, ppa.flat(&g), data, k)
            }
        }
    }

    /// Program a mirror copy of the page at `primary` onto a different die.
    /// The copy is an unmapped `Valid` page linked through `mirror_of`; GC
    /// treats it as garbage once the link is dropped.  When no other die has
    /// space the write stays unmirrored (allocation pressure must not fail
    /// the foreground write).
    fn mirror_write(&mut self, now: SimInstant, primary: Ppa, data: &[u8]) -> FlashResult<SimInstant> {
        let g = *self.device.geometry();
        let total = g.total_dies() as usize;
        if total < 2 {
            // A single-die geometry has no disjoint die to place the copy
            // on; a same-die "mirror" would survive no die failure.
            self.redundancy_stats.mirror_skipped_no_space += 1;
            return Ok(now);
        }
        let src_die = primary.die_addr().flat(&g) as usize;
        let mut t = now;
        for off in 1..total {
            let d = (src_die + off) % total;
            while let Some(mp) = self.regions.allocate_page_on_die(d, self.gc_low) {
                match self.device.program_page(t, mp, data, Oob::meta(0)) {
                    Ok(c) => {
                        t = t.max(c.completed_at);
                        let pf = primary.flat(&g) as usize;
                        let mf = mp.flat(&g) as usize;
                        self.mirror_of[pf] = mf as u64;
                        self.mirror_of[mf] = pf as u64;
                        self.redundancy_stats.mirror_pages_written += 1;
                        return Ok(t);
                    }
                    Err(FlashError::ProgramFailed(failed)) => {
                        t = self.retire_failed_block(t, failed.block_addr())?;
                    }
                    Err(FlashError::DieFailed(_)) => {
                        t = self.note_die_failures(t)?;
                        break;
                    }
                    Err(e) => return Err(e),
                }
            }
        }
        self.redundancy_stats.mirror_skipped_no_space += 1;
        Ok(t)
    }

    /// Add a just-written data page to the open parity stripe, sealing first
    /// when its die collides with an existing member (stripes must stay
    /// die-disjoint — one die failure may cost at most one page per stripe)
    /// and sealing after the join once `k` members accumulated.
    fn stripe_join(
        &mut self,
        now: SimInstant,
        flat: u64,
        data: &[u8],
        k: usize,
    ) -> FlashResult<SimInstant> {
        let g = *self.device.geometry();
        let mut t = now;
        let die = Ppa::from_flat(&g, flat).die_addr().flat(&g);
        let collides = self
            .open_stripe
            .iter()
            .any(|&m| Ppa::from_flat(&g, m).die_addr().flat(&g) == die);
        if collides {
            t = self.seal_open_stripe(t)?;
        }
        if self.open_stripe_xor.len() != self.page_size {
            self.open_stripe_xor = vec![0u8; self.page_size];
        }
        xor_into(&mut self.open_stripe_xor, data);
        self.open_stripe.push(flat);
        if self.open_stripe.len() >= k.max(1) {
            t = self.seal_open_stripe(t)?;
        }
        Ok(t)
    }

    /// Seal the open stripe: program its in-memory XOR as a parity page on a
    /// die disjoint from every member (falling back to any die with space)
    /// and record the stripe.  Taking the member list out *first* makes the
    /// seal re-entrancy-safe — nested failure handling may notify die
    /// deaths, which themselves try to seal.
    fn seal_open_stripe(&mut self, now: SimInstant) -> FlashResult<SimInstant> {
        if self.open_stripe.is_empty() {
            return Ok(now);
        }
        let g = *self.device.geometry();
        let members = std::mem::take(&mut self.open_stripe);
        let xor = std::mem::take(&mut self.open_stripe_xor);
        let member_dies: Vec<u64> = members
            .iter()
            .map(|&m| Ppa::from_flat(&g, m).die_addr().flat(&g))
            .collect();
        let total = g.total_dies() as usize;
        let mut t = now;
        let mut parity: Option<Ppa> = None;
        let mut degraded = false;
        'search: for pass in 0..2 {
            for d in 0..total {
                if pass == 0 && member_dies.contains(&(d as u64)) {
                    continue;
                }
                if pass == 1 && !member_dies.contains(&(d as u64)) {
                    continue; // already tried in pass 0
                }
                while let Some(pp) = self.regions.allocate_page_on_die(d, self.gc_low) {
                    match self.device.program_page(t, pp, &xor, Oob::meta(0)) {
                        Ok(c) => {
                            t = t.max(c.completed_at);
                            parity = Some(pp);
                            // A pass-1 placement shares a die with a member:
                            // the stripe survives block loss but no longer
                            // every single-die failure.
                            degraded = pass == 1;
                            break 'search;
                        }
                        Err(FlashError::ProgramFailed(failed)) => {
                            t = self.retire_failed_block(t, failed.block_addr())?;
                        }
                        Err(FlashError::DieFailed(_)) => {
                            t = self.note_die_failures(t)?;
                            break;
                        }
                        Err(e) => return Err(e),
                    }
                }
            }
        }
        let Some(pp) = parity else {
            // No die anywhere has spare pages: the members stay unprotected
            // rather than failing the foreground write that triggered the
            // seal.
            self.redundancy_stats.stripes_abandoned += 1;
            return Ok(t);
        };
        let pflat = pp.flat(&g);
        let id = match self.stripe_free_ids.pop() {
            Some(id) => id,
            None => {
                self.stripes.push(None);
                (self.stripes.len() - 1) as u32
            }
        };
        for &m in &members {
            self.stripe_of[m as usize] = id;
        }
        self.stripe_of[pflat as usize] = id;
        self.stripes[id as usize] = Some(Stripe {
            members,
            parity: pflat,
        });
        self.redundancy_stats.parity_pages_written += 1;
        self.redundancy_stats.stripes_sealed += 1;
        if degraded {
            self.redundancy_stats.stripes_sealed_degraded += 1;
        }
        Ok(t)
    }

    /// A mapped page at `old_flat` was superseded (overwrite or dead-page
    /// hint): its mirror copy, if any, is garbage too.  Stripe membership is
    /// deliberately *kept* — the superseded flash content persists until its
    /// block erases, so the stripe stays XOR-consistent until then.
    fn drop_mirror_of(&mut self, old_flat: u64) -> FlashResult<()> {
        let other = self
            .mirror_of
            .get(old_flat as usize)
            .copied()
            .unwrap_or(NO_MIRROR);
        if other == NO_MIRROR {
            return Ok(());
        }
        self.mirror_of[old_flat as usize] = NO_MIRROR;
        self.mirror_of[other as usize] = NO_MIRROR;
        let g = *self.device.geometry();
        self.device.invalidate_page(Ppa::from_flat(&g, other))?;
        Ok(())
    }

    /// Redundancy bookkeeping for a GC/scrub/wear relocation that moved
    /// `lpn` from `src` to `dst`.  Mirror links travel with the page (no new
    /// writes).  A parity-protected page *re-joins* the open stripe at its
    /// new address — the old stripe keeps covering the source flash content
    /// until that block erases, so protection never lapses mid-move;
    /// `data` carries the relocated content (the relocation path reads
    /// instead of copyback for parity regions exactly so it is available).
    fn relink_redundancy(
        &mut self,
        now: SimInstant,
        src_flat: u64,
        dst_flat: u64,
        lpn: u64,
        data: Option<&[u8]>,
    ) -> FlashResult<SimInstant> {
        let mut t = now;
        let other = self
            .mirror_of
            .get(src_flat as usize)
            .copied()
            .unwrap_or(NO_MIRROR);
        if other != NO_MIRROR {
            self.mirror_of[src_flat as usize] = NO_MIRROR;
            self.mirror_of[dst_flat as usize] = other;
            self.mirror_of[other as usize] = dst_flat;
        }
        if let RedundancyPolicy::Parity(k) = self.policy_of_lpn(lpn) {
            if let Some(data) = data {
                // If the source still sat in the open stripe, back its
                // content (identical to the relocated `data`) out of the
                // in-memory XOR and drop the stale member — otherwise the
                // stripe could later seal over a flat whose block was
                // erased and re-programmed in the meantime.
                if let Some(pos) = self.open_stripe.iter().position(|&m| m == src_flat) {
                    self.open_stripe.remove(pos);
                    xor_into(&mut self.open_stripe_xor, data);
                    self.redundancy_stats.open_members_purged += 1;
                }
                t = self.stripe_join(t, dst_flat, data, k)?;
            }
        }
        Ok(t)
    }

    /// Pre-erase/retirement hook: every stripe with a member or parity page
    /// in `block` breaks (the erase destroys its flash content), and every
    /// mirror pair with a copy in `block` re-mirrors.  Still-mapped stripe
    /// members elsewhere are re-protected through the open stripe; members
    /// marooned on a *dead* die are reconstructed right now — this is the
    /// last instant their parity still exists.
    fn break_redundancy_in_block(
        &mut self,
        now: SimInstant,
        block: BlockAddr,
    ) -> FlashResult<SimInstant> {
        let g = *self.device.geometry();
        // The still-open stripe is tracked only in memory (`stripe_of` is
        // assigned at seal time), so it must be purged separately: any
        // pending member inside this block loses its flash content to the
        // erase, and a later seal would otherwise cover re-programmed data.
        let mut t = self.purge_open_stripe_in_block(now, block)?;
        for off in 0..g.pages_per_block {
            let flat = block.page(off).flat(&g);
            let other = self
                .mirror_of
                .get(flat as usize)
                .copied()
                .unwrap_or(NO_MIRROR);
            if other != NO_MIRROR {
                self.mirror_of[flat as usize] = NO_MIRROR;
                self.mirror_of[other as usize] = NO_MIRROR;
                t = self.remirror_survivor(t, flat, other)?;
            }
            let sid = self
                .stripe_of
                .get(flat as usize)
                .copied()
                .unwrap_or(NO_STRIPE);
            if sid != NO_STRIPE {
                t = self.break_stripe(t, sid, Some(block))?;
            }
        }
        Ok(t)
    }

    /// Back every still-open stripe member inside `block` out of the
    /// in-memory XOR before the block's erase destroys its flash content:
    /// re-read the stored content (invalidated pages stay readable until the
    /// erase lands) and re-XOR it, then drop the member.  Members end up
    /// here stale — superseded by an overwrite/dead-page hint, or left
    /// behind by a relocation whose re-join went to the new address.  When a
    /// member's content is unreadable (e.g. its die died) the XOR cannot be
    /// repaired, so the whole open stripe is abandoned rather than sealed
    /// over garbage.
    fn purge_open_stripe_in_block(
        &mut self,
        now: SimInstant,
        block: BlockAddr,
    ) -> FlashResult<SimInstant> {
        if self.open_stripe.is_empty() {
            return Ok(now);
        }
        let g = *self.device.geometry();
        let dying: Vec<u64> = self
            .open_stripe
            .iter()
            .copied()
            .filter(|&m| Ppa::from_flat(&g, m).block_addr() == block)
            .collect();
        let mut t = now;
        let mut buf = vec![0u8; self.page_size];
        for m in dying {
            match self.reconstruction_read(t, Ppa::from_flat(&g, m), &mut buf) {
                Ok((_, c)) => {
                    t = t.max(c.completed_at);
                    xor_into(&mut self.open_stripe_xor, &buf);
                    self.open_stripe.retain(|&x| x != m);
                    self.redundancy_stats.open_members_purged += 1;
                }
                Err(_) => {
                    self.open_stripe.clear();
                    self.open_stripe_xor.clear();
                    self.redundancy_stats.stripes_abandoned += 1;
                    return Ok(t);
                }
            }
        }
        Ok(t)
    }

    /// One side of a mirror pair (`dying_flat`) is about to be erased.  If
    /// the pair still backs a mapped page, restore two-copy protection: read
    /// the surviving mapped side and mirror it again — or, when the mapped
    /// side sits on a dead die, rescue the content from the dying copy
    /// *before* the erase destroys the last readable instance.
    fn remirror_survivor(
        &mut self,
        now: SimInstant,
        dying_flat: u64,
        other_flat: u64,
    ) -> FlashResult<SimInstant> {
        let g = *self.device.geometry();
        let mut t = now;
        let Some(lpn) = self.map.reverse(other_flat) else {
            // Neither side is mapped any more (the data was superseded or
            // relocated); nothing worth protecting.
            return Ok(t);
        };
        let other = Ppa::from_flat(&g, other_flat);
        let other_die = other.die_addr().flat(&g) as usize;
        let mut buf = vec![0u8; self.page_size];
        if !self.regions.die_dead(other_die) {
            if let Ok((_, c)) = self.reconstruction_read(t, other, &mut buf) {
                t = t.max(c.completed_at);
                t = self.mirror_write(t, other, &buf)?;
            }
            return Ok(t);
        }
        // The mapped side is on a dead die: the dying copy is the last
        // readable instance.  Rescue it through the normal write path (which
        // updates the mapping off the dead die and re-protects).
        let dying = Ppa::from_flat(&g, dying_flat);
        if let Ok((_, c)) = self.reconstruction_read(t, dying, &mut buf) {
            t = t.max(c.completed_at);
            self.redundancy_stats.reconstructed_pages += 1;
            let w = self.write(t, lpn, &buf)?;
            t = t.max(w.completed_at);
        }
        Ok(t)
    }

    /// Break stripe `sid` (a member or parity block is going away) and
    /// re-protect its still-mapped members: live-die members re-join the
    /// open stripe; dead-die members are reconstructed from the stripe now,
    /// while the parity still exists, and rewritten onto surviving dies.
    fn break_stripe(
        &mut self,
        now: SimInstant,
        sid: u32,
        dying_block: Option<BlockAddr>,
    ) -> FlashResult<SimInstant> {
        let Some(stripe) = self.stripes.get_mut(sid as usize).and_then(|s| s.take()) else {
            return Ok(now);
        };
        self.stripe_free_ids.push(sid);
        self.redundancy_stats.stripes_broken += 1;
        for &p in stripe.members.iter().chain(std::iter::once(&stripe.parity)) {
            self.stripe_of[p as usize] = NO_STRIPE;
        }
        let g = *self.device.geometry();
        let mut t = now;
        for &m in &stripe.members {
            let pm = Ppa::from_flat(&g, m);
            if dying_block == Some(pm.block_addr()) {
                // Members inside the dying block were either relocated (and
                // re-protected at their new home) or superseded — the erase
                // only destroys garbage there.
                continue;
            }
            let Some(lpn) = self.map.reverse(m) else {
                continue;
            };
            let die = pm.die_addr().flat(&g) as usize;
            let mut buf = vec![0u8; self.page_size];
            if self.regions.die_dead(die) {
                // Last chance: every other stripe page (including any inside
                // the dying block — still readable until the erase lands) can
                // serve the XOR reconstruction.
                if let Ok(end) = self.reconstruct_from_stripe(t, &stripe, m, &mut buf) {
                    t = t.max(end);
                    let w = self.write(t, lpn, &buf)?;
                    t = t.max(w.completed_at);
                }
                // Unrecoverable members stay mapped to the dead die: reads
                // keep failing typed and the rebuild walker counts the loss.
                continue;
            }
            if let Ok((_, c)) = self.reconstruction_read(t, pm, &mut buf) {
                t = t.max(c.completed_at);
                if let RedundancyPolicy::Parity(k) = self.policy_of_lpn(lpn) {
                    t = self.stripe_join(t, m, &buf, k)?;
                    self.redundancy_stats.members_reprotected += 1;
                }
            }
        }
        // The parity page is garbage the instant the stripe dissolves —
        // invalidated last, because the reconstructions above may still have
        // needed to read it.  Without this, blocks full of live parity pages
        // would count zero invalid pages and never become GC victims.
        self.device
            .invalidate_page(Ppa::from_flat(&g, stripe.parity))?;
        Ok(t)
    }

    /// XOR-reconstruct the content of stripe page `exclude` from every other
    /// page of `stripe`.  Fails if any needed page is unreadable (e.g. a
    /// second die failure) — single-failure tolerance, per parity design.
    fn reconstruct_from_stripe(
        &mut self,
        now: SimInstant,
        stripe: &Stripe,
        exclude: u64,
        buf: &mut [u8],
    ) -> FlashResult<SimInstant> {
        buf.fill(0);
        let g = *self.device.geometry();
        let mut t = now;
        let mut tmp = vec![0u8; self.page_size];
        for &p in stripe.members.iter().chain(std::iter::once(&stripe.parity)) {
            if p == exclude {
                continue;
            }
            let (_, c) = self.reconstruction_read(t, Ppa::from_flat(&g, p), &mut tmp)?;
            t = t.max(c.completed_at);
            xor_into(buf, &tmp);
        }
        self.redundancy_stats.reconstructed_pages += 1;
        Ok(t)
    }

    /// Reconstruct the content of the mapped-but-unreadable page `flat`
    /// (its die died) from its mirror or parity stripe.  Fails typed with
    /// [`FlashError::DieFailed`] when no redundancy covers it.
    fn reconstruct_flat(
        &mut self,
        now: SimInstant,
        flat: u64,
        buf: &mut [u8],
    ) -> FlashResult<SimInstant> {
        let g = *self.device.geometry();
        let other = self
            .mirror_of
            .get(flat as usize)
            .copied()
            .unwrap_or(NO_MIRROR);
        if other != NO_MIRROR {
            let (_, c) = self.reconstruction_read(now, Ppa::from_flat(&g, other), buf)?;
            self.redundancy_stats.reconstructed_pages += 1;
            return Ok(c.completed_at);
        }
        let sid = self
            .stripe_of
            .get(flat as usize)
            .copied()
            .unwrap_or(NO_STRIPE);
        if sid != NO_STRIPE {
            if let Some(stripe) = self.stripes.get(sid as usize).cloned().flatten() {
                return self.reconstruct_from_stripe(now, &stripe, flat, buf);
            }
        }
        Err(FlashError::DieFailed(Ppa::from_flat(&g, flat).die_addr()))
    }

    /// Serve a host read of the page at `flat` degraded — through its
    /// redundancy instead of the dead die.
    fn read_degraded(
        &mut self,
        now: SimInstant,
        flat: u64,
        buf: &mut [u8],
    ) -> FlashResult<OpCompletion> {
        let end = self.reconstruct_flat(now, flat, buf)?;
        self.redundancy_stats.degraded_reads += 1;
        Ok(OpCompletion {
            started_at: now,
            completed_at: end,
        })
    }

    /// React to die failures the device reported: diff the device's dead-die
    /// set against what this layer already handled, and for each *new* death
    /// mark the die dead in the allocator, open a rebuild cursor over its
    /// page range, and seal the open stripe (its in-memory XOR still covers
    /// members whose program was swallowed by the failure).  Cheap no-op
    /// when no die is dead.
    fn note_die_failures(&mut self, now: SimInstant) -> FlashResult<SimInstant> {
        let mut t = now;
        if !self.device.any_die_dead() {
            return Ok(t);
        }
        let dead: Vec<bool> = self.device.dead_dies().to_vec();
        if self.known_dead.len() < dead.len() {
            self.known_dead.resize(dead.len(), false);
        }
        let mut newly = false;
        for (d, &is_dead) in dead.iter().enumerate() {
            if is_dead && !self.known_dead[d] {
                self.known_dead[d] = true;
                self.regions.mark_die_dead(d);
                self.rebuild_stats.die_failures_detected += 1;
                self.rebuild_cursors.push((d, 0));
                newly = true;
            }
        }
        if newly && self.redundancy_active && !self.open_stripe.is_empty() {
            t = self.seal_open_stripe(t)?;
        }
        Ok(t)
    }

    /// One background rebuild step, gated like [`NoFtl::schedule_gc`]: when
    /// the instant is read-hot (in-flight reads at or above the GC
    /// scheduling threshold) the step defers instead of competing with
    /// foreground traffic.  Walks the next dead die's mapped pages,
    /// reconstructing up to [`REBUILD_BATCH_PAGES`] of them per call onto
    /// surviving dies through the normal write path.  Returns `Ok(None)`
    /// when there is nothing to do — in particular, a single cheap check
    /// when no die has failed.
    pub fn schedule_rebuild(&mut self, now: SimInstant) -> FlashResult<Option<SimInstant>> {
        if !self.device.any_die_dead() {
            return Ok(None);
        }
        let mut t = self.note_die_failures(now)?;
        if self.rebuild_cursors.is_empty() {
            return Ok(None);
        }
        if self.gc_schedule_read_occupancy > 0
            && self.read_occupancy(now) >= self.gc_schedule_read_occupancy
        {
            self.rebuild_stats.rebuild_deferred_hot += 1;
            return Ok(None);
        }
        let (end, progressed) = self.rebuild_step(t, REBUILD_BATCH_PAGES)?;
        t = t.max(end);
        if progressed {
            self.rebuild_stats.rebuild_scheduled += 1;
            Ok(Some(t))
        } else {
            Ok(None)
        }
    }

    /// Synchronous full rebuild: loop [`NoFtl::rebuild_step`] until every
    /// dead die's page range has been walked.  The naive foreground
    /// alternative to [`NoFtl::schedule_rebuild`] (used by the availability
    /// benchmark's unscheduled leg and by tests).
    pub fn rebuild_all(&mut self, now: SimInstant) -> FlashResult<SimInstant> {
        let mut t = self.note_die_failures(now)?;
        while !self.rebuild_cursors.is_empty() {
            let (end, _) = self.rebuild_step(t, u64::MAX)?;
            t = t.max(end);
        }
        Ok(t)
    }

    /// Walk the first rebuild cursor, reconstructing up to `budget` mapped
    /// pages.  Returns `(end, progressed)`.
    fn rebuild_step(&mut self, now: SimInstant, budget: u64) -> FlashResult<(SimInstant, bool)> {
        let Some(&(die, start)) = self.rebuild_cursors.first() else {
            return Ok((now, false));
        };
        let g = *self.device.geometry();
        let ppd = g.pages_per_die();
        let base = die as u64 * ppd;
        let mut offset = start;
        let mut t = now;
        let mut processed = 0u64;
        while offset < ppd && processed < budget {
            let flat = base + offset;
            offset += 1;
            let Some(lpn) = self.map.reverse(flat) else {
                continue;
            };
            processed += 1;
            self.rebuild_stats.pages_scanned += 1;
            let mut buf = vec![0u8; self.page_size];
            match self.reconstruct_flat(t, flat, &mut buf) {
                Ok(end) => {
                    t = t.max(end);
                    let w = self.write(t, lpn, &buf)?;
                    t = t.max(w.completed_at);
                    self.rebuild_stats.pages_rebuilt += 1;
                }
                Err(_) => {
                    // No surviving redundancy: the mapping stays pointed at
                    // the dead die so reads keep failing typed (WAL-replay
                    // page rebuild is the layer above).
                    self.rebuild_stats.pages_lost += 1;
                }
            }
        }
        if offset >= ppd {
            self.rebuild_cursors.remove(0);
        } else {
            self.rebuild_cursors[0] = (die, offset);
        }
        Ok((t, processed > 0))
    }

    /// Run GC in `region` until it is back above the high watermark.  Returns
    /// the time at which the caller may proceed.
    fn ensure_region_space(&mut self, now: SimInstant, region: RegionId) -> FlashResult<SimInstant> {
        let mut t = now;
        if self.regions.free_blocks_in(region) > self.gc_low {
            return Ok(t);
        }
        // A stall is only counted when GC actually attempts work: a region
        // that is low on free blocks but holds no reclaimable garbage (all
        // pages live) never delays the write, so it must not inflate the
        // Figure 3 stall statistic.
        let mut attempted = false;
        while self.regions.free_blocks_in(region) < self.gc_high {
            match self.gc_region_once(t, region)? {
                Some(end) => {
                    attempted = true;
                    t = end;
                }
                None => break,
            }
        }
        if attempted {
            self.stats.gc_stalls += 1;
        }
        Ok(t)
    }

    /// Unwind the destination allocations of a relocation run that errored
    /// out: `pending` holds the entries that were never committed (after a
    /// failed dispatch, [`NoFtl::flush_relocations`] commits and drains the
    /// prefix, so what remains is the failing entry and everything after it),
    /// and `extra` is a destination allocated *after* the run.  Pages of a
    /// failing block are skipped — that block is retired wholesale by the
    /// caller — while the rest must be returned to the allocator so it stays
    /// in lockstep with the blocks' sequential write pointers.
    fn rollback_pending_relocations(
        &mut self,
        err: &FlashError,
        pending: &[(Ppa, Ppa, u64, Vec<u8>, Oob)],
        extra: Option<Ppa>,
    ) {
        let failed_block = match err {
            FlashError::ProgramFailed(p) => Some(p.block_addr()),
            _ => None,
        };
        let leaked: Vec<Ppa> = pending
            .iter()
            .map(|(_, dst, _, _, _)| *dst)
            .chain(extra)
            .filter(|p| Some(p.block_addr()) != failed_block)
            .collect();
        self.regions.rollback_unprogrammed(&leaked);
    }

    /// Relocate `survivors` — (source page, logical page) pairs — into
    /// `region`, invalidating each source *as it moves* so an interrupted
    /// migration can never leave stale-`Valid` pages whose reverse mappings
    /// are gone (those would permanently skew `invalid_pages` counts and GC
    /// victim scoring).
    ///
    /// With `gc_batch_pages <= 1` every survivor moves one command at a time
    /// — copyback when plane-local, read + program otherwise — exactly the
    /// legacy path (trace-identical).  Larger settings batch consecutive
    /// cross-plane survivors through one multi-page program dispatch per
    /// same-die run ([`nand_flash::NativeFlashInterface::program_pages`]);
    /// plane-local survivors still use copyback, and any pending run is
    /// flushed before a copyback so the destination block's sequential
    /// programming order is preserved.
    ///
    /// When the region runs out of space mid-relocation: with
    /// `abort_on_full` the already-moved prefix is kept (sources
    /// invalidated) and `(t, false)` is returned; otherwise the relocation
    /// fails with [`FlashError::OutOfSpareBlocks`].
    fn relocate_survivors(
        &mut self,
        now: SimInstant,
        region: RegionId,
        survivors: &[(Ppa, u64)],
        abort_on_full: bool,
    ) -> FlashResult<(SimInstant, bool)> {
        let g = *self.device.geometry();
        let mut t = now;
        let cap = self.gc_batch_pages.max(1);
        // Pending cross-plane relocations awaiting one batched dispatch:
        // (src, dst, lpn, data, oob), plus the completion horizon of their
        // source reads — the dispatch may not issue before the data exists
        // (the destination die can differ from the source die, so die
        // occupancy alone does not order them).
        let mut pending: Vec<(Ppa, Ppa, u64, Vec<u8>, Oob)> = Vec::new();
        let mut pending_ready: SimInstant = 0;
        for &(src, lpn) in survivors {
            let dst = match self.regions.allocate_page_in(region) {
                Some(p) => p,
                None => {
                    t = match self.flush_relocations(t.max(pending_ready), &mut pending) {
                        Ok(end) => end,
                        Err(e) => {
                            self.rollback_pending_relocations(&e, &pending, None);
                            return Err(e);
                        }
                    };
                    if abort_on_full {
                        return Ok((t, false));
                    }
                    return Err(FlashError::OutOfSpareBlocks);
                }
            };
            // A parity-protected page must re-join the open stripe at its
            // new address, which needs the host-side content — so its
            // relocation always goes read + program, never copyback.  With
            // redundancy off this gate is a single false branch and the
            // copyback decision is untouched.
            let parity_protected = self.redundancy_active
                && matches!(self.policy_of_lpn(lpn), RedundancyPolicy::Parity(_));
            let same_plane = !parity_protected
                && dst.channel == src.channel
                && dst.die == src.die
                && dst.plane == src.plane;
            // At depth 1 every relocation command is the synchronous legacy
            // dispatch (the trace-equality baseline); deeper settings submit
            // the same commands through the per-die queues, so background GC
            // queues behind — and delays — foreground flush/read traffic.
            let queued = self.async_depth > 1;
            if self.gc_batch_pages <= 1 {
                // Legacy per-relocation path.
                let res = if same_plane {
                    if queued {
                        self.device.submit_copyback(t, src, dst, None).map(|q| q.completion)
                    } else {
                        self.device.copyback(t, src, dst, None)
                    }
                } else {
                    let mut buf = std::mem::take(&mut self.scratch);
                    // The source read gets the retry ladder: a survivor whose
                    // first read overwhelms ECC is usually recoverable on a
                    // re-sense, and GC must not lose it over one bad draw.
                    let c = match self.read_page_retrying(t, src, &mut buf) {
                        Ok((oob, rc)) => {
                            if queued {
                                // The program may not issue before its source
                                // read produced the data (the destination die
                                // can differ).
                                self.device
                                    .submit_program_pages(
                                        rc.completed_at,
                                        &[(dst, buf.as_slice(), oob)],
                                    )
                                    .map(|p| p.completion)
                            } else {
                                self.device.program_page(t, dst, &buf, oob)
                            }
                        }
                        Err(e) => Err(e),
                    };
                    self.scratch = buf;
                    c
                };
                let completion = match res {
                    Ok(c) => c,
                    Err(e) => {
                        // A failed program consumed `dst` (its block is
                        // retired by the caller); any other error — e.g. an
                        // unreadable source — leaves `dst` un-programmed and
                        // it must go back to the allocator.
                        self.rollback_pending_relocations(&e, &pending, Some(dst));
                        return Err(e);
                    }
                };
                t = t.max(completion.completed_at);
                self.map.update(lpn, dst.flat(&g));
                self.device.invalidate_page(src)?;
                self.stats.gc_page_copies += 1;
                if self.redundancy_active {
                    let content = std::mem::take(&mut self.scratch);
                    let data = (!same_plane).then_some(content.as_slice());
                    t = self.relink_redundancy(t, src.flat(&g), dst.flat(&g), lpn, data)?;
                    self.scratch = content;
                }
            } else if same_plane {
                // A copyback programs the destination block's next page, so
                // the pending run must land first to keep program order.
                t = match self.flush_relocations(t.max(pending_ready), &mut pending) {
                    Ok(end) => end,
                    Err(e) => {
                        self.rollback_pending_relocations(&e, &pending, Some(dst));
                        return Err(e);
                    }
                };
                pending_ready = 0;
                let res = if queued {
                    self.device.submit_copyback(t, src, dst, None).map(|q| q.completion)
                } else {
                    self.device.copyback(t, src, dst, None)
                };
                let c = match res {
                    Ok(c) => c,
                    Err(e) => {
                        self.rollback_pending_relocations(&e, &pending, Some(dst));
                        return Err(e);
                    }
                };
                t = t.max(c.completed_at);
                self.map.update(lpn, dst.flat(&g));
                self.device.invalidate_page(src)?;
                self.stats.gc_page_copies += 1;
                if self.redundancy_active {
                    // Copyback is only taken for non-parity pages; a mirror
                    // link just travels with the page.
                    t = self.relink_redundancy(t, src.flat(&g), dst.flat(&g), lpn, None)?;
                }
            } else {
                // Batched: read now, program as part of a same-die run.
                if pending.len() >= cap
                    || pending
                        .last()
                        .is_some_and(|(_, d, _, _, _)| d.die_addr() != dst.die_addr())
                {
                    t = match self.flush_relocations(t.max(pending_ready), &mut pending) {
                        Ok(end) => end,
                        Err(e) => {
                            self.rollback_pending_relocations(&e, &pending, Some(dst));
                            return Err(e);
                        }
                    };
                    pending_ready = 0;
                }
                let mut buf = vec![0u8; self.page_size];
                let (oob, c) = match self.read_page_retrying(t, src, &mut buf) {
                    Ok(r) => r,
                    Err(e) => {
                        // Nothing dispatched: the whole pending run plus this
                        // destination goes back to the allocator.
                        self.rollback_pending_relocations(&e, &pending, Some(dst));
                        return Err(e);
                    }
                };
                pending_ready = pending_ready.max(c.completed_at);
                pending.push((src, dst, lpn, buf, oob));
            }
        }
        t = match self.flush_relocations(t.max(pending_ready), &mut pending) {
            Ok(end) => end,
            Err(e) => {
                self.rollback_pending_relocations(&e, &pending, None);
                return Err(e);
            }
        };
        Ok((t, true))
    }

    /// Dispatch the pending cross-plane relocations as one multi-page
    /// program run and commit their mapping/bookkeeping updates.
    fn flush_relocations(
        &mut self,
        now: SimInstant,
        pending: &mut Vec<(Ppa, Ppa, u64, Vec<u8>, Oob)>,
    ) -> FlashResult<SimInstant> {
        if pending.is_empty() {
            return Ok(now);
        }
        let g = *self.device.geometry();
        let ops: Vec<(Ppa, &[u8], Oob)> = pending
            .iter()
            .map(|(_, dst, _, data, oob)| (*dst, data.as_slice(), *oob))
            .collect();
        let res = if self.async_depth > 1 {
            self.device.submit_program_pages(now, &ops).map(|q| q.completion)
        } else {
            self.device.program_pages(now, &ops)
        };
        let completion = match res {
            Ok(c) => c,
            Err(FlashError::ProgramFailed(failed)) => {
                // The dispatch aborted at `failed`: the pages before it are
                // committed on the device, so their mapping updates must land
                // now (a valid page without a reverse mapping would never be
                // reclaimed).  The failing relocation and the rest of the
                // run stay uncommitted — their sources are still valid and
                // mapped, so the caller can re-collect them after retiring
                // the failed block, and it rolls their un-programmed
                // destination allocations back
                // ([`NoFtl::rollback_pending_relocations`] — the drained
                // `pending` suffix is exactly that leaked set).
                let pos = ops
                    .iter()
                    .position(|&(dst, _, _)| dst == failed)
                    .unwrap_or(0);
                let committed: Vec<(Ppa, Ppa, u64, Vec<u8>)> = pending
                    .drain(..pos)
                    .map(|(src, dst, lpn, data, _)| (src, dst, lpn, data))
                    .collect();
                let mut t = now;
                for (src, dst, lpn, data) in committed {
                    self.map.update(lpn, dst.flat(&g));
                    self.device.invalidate_page(src)?;
                    self.stats.gc_page_copies += 1;
                    if self.redundancy_active {
                        t = self.relink_redundancy(
                            t,
                            src.flat(&g),
                            dst.flat(&g),
                            lpn,
                            Some(&data),
                        )?;
                    }
                }
                if self.redundancy_active {
                    // The re-protection work above must still land on the GC
                    // timeline even though this path propagates an error:
                    // the retirement that follows picks the horizon up.
                    self.unwind_horizon = self.unwind_horizon.max(t);
                }
                return Err(FlashError::ProgramFailed(failed));
            }
            Err(e) => return Err(e),
        };
        let mut t = now.max(completion.completed_at);
        if pending.len() > 1 {
            self.stats.gc_batch_dispatches += 1;
        }
        for (src, dst, lpn, data, _) in pending.drain(..) {
            self.map.update(lpn, dst.flat(&g));
            self.device.invalidate_page(src)?;
            self.stats.gc_page_copies += 1;
            if self.redundancy_active {
                t = self.relink_redundancy(t, src.flat(&g), dst.flat(&g), lpn, Some(&data))?;
            }
        }
        Ok(t)
    }

    /// Erase a reclaimed block, retiring it when it is worn out.  The erase
    /// attempt's latency is charged even on failure — a worn-out erase
    /// occupied the die exactly like a successful one before reporting its
    /// status, so it must never be free on the virtual clock.
    fn erase_reclaimed(
        &mut self,
        now: SimInstant,
        block: BlockAddr,
    ) -> FlashResult<(SimInstant, bool)> {
        // Erasing is the one operation that destroys flash content, so any
        // stripe with a member or parity page in this block — and any mirror
        // copy stored here — must be dissolved and its survivors
        // re-protected *before* the erase is attempted (the hook also covers
        // the failure path: a worn-out erase still retires the block).
        let mut now = now;
        if self.redundancy_active {
            now = self.break_redundancy_in_block(now, block)?;
        }
        // Under async the erase is submitted into the die queue like every
        // other GC command (a failed submission cannot evict in-flight
        // commands, and a worn-out attempt still charges its die occupancy).
        let result = if self.async_depth > 1 {
            self.device.submit_erase(now, block).map(|q| q.completion)
        } else {
            self.device.erase_block(now, block)
        };
        match result {
            Ok(c) => {
                self.stats.gc_erases += 1;
                self.regions.release_block(block);
                Ok((now.max(c.completed_at), true))
            }
            Err(FlashError::WornOut(b)) => Ok(self.retire_failed_erase(now, b)),
            Err(FlashError::EraseFailed(b)) => {
                self.stats.erase_fail_retirements += 1;
                Ok(self.retire_failed_erase(now, b))
            }
            Err(e) => Err(e),
        }
    }

    /// Shared tail of erase-failure handling: the block is grown-bad, its
    /// region drops it, and the failed erase still held the die until it
    /// reported its status.
    fn retire_failed_erase(&mut self, now: SimInstant, b: BlockAddr) -> (SimInstant, bool) {
        let t = now.max(self.device.die_busy_until(b.die_addr()));
        self.bad_blocks.retire(b, RetireReason::Grown);
        self.regions.retire_block(b);
        self.stats.retired_blocks += 1;
        (t, false)
    }

    /// Retire a block one of whose PAGE PROGRAMs reported failure.  The
    /// failed page is consumed but the rest of the block stays readable, so
    /// its still-valid pages are relocated into the block's region first —
    /// only then is the block handed to the bad-block manager.  A *nested*
    /// program failure during the relocation retires that block too
    /// (recursively) and the relocation resumes with whatever survivors
    /// remain; the recursion is bounded because every level permanently
    /// removes one block.
    fn retire_failed_block(
        &mut self,
        now: SimInstant,
        block: BlockAddr,
    ) -> FlashResult<SimInstant> {
        let g = *self.device.geometry();
        let region = self.regions.region_of_block(block);
        // Out of the allocation pools first, so relocation destinations can
        // never land in the block being retired.
        self.regions.retire_block(block);
        // Fold in re-protection work a failed batched relocation did while
        // unwinding its committed prefix — the error that routed control
        // here could not carry its completion instant.
        let mut t = now.max(std::mem::take(&mut self.unwind_horizon));
        loop {
            let mut survivors: Vec<(Ppa, u64)> = Vec::new();
            for page_idx in 0..g.pages_per_block {
                let src = block.page(page_idx);
                if self.device.page_state(src)? != PageState::Valid {
                    continue;
                }
                let Some(lpn) = self.map.reverse(src.flat(&g)) else {
                    continue;
                };
                survivors.push((src, lpn));
            }
            if survivors.is_empty() {
                break;
            }
            match self.relocate_survivors(t, region, &survivors, false) {
                Ok((end, _)) => {
                    t = end;
                    break;
                }
                Err(FlashError::ProgramFailed(failed)) => {
                    // Survivors moved before the nested failure are already
                    // invalidated on `block`; the re-collection above picks
                    // up only what remains.
                    t = self.retire_failed_block(t, failed.block_addr())?;
                }
                Err(e) => return Err(e),
            }
        }
        // Retirement takes the block's content out of service exactly like
        // an erase: mapped pages were just relocated (their protection moved
        // with them), so what remains are stripe members/parity pages and
        // mirror copies — dissolve those and re-protect their survivors
        // while the block is still readable.
        if self.redundancy_active {
            t = self.break_redundancy_in_block(t, block)?;
        }
        // Write the device-side bad-block mark last: the survivors above had
        // to be readable while the relocation ran.  From here on the device
        // rejects every access, so neither GC victim selection nor the wear
        // leveler can resurrect the block into the free pool.
        self.device.mark_block_bad(block)?;
        self.bad_blocks.retire(block, RetireReason::Grown);
        self.stats.retired_blocks += 1;
        self.stats.program_fail_retirements += 1;
        Ok(t)
    }

    /// Read-disturb scrubbing: when a block has served
    /// [`NoFtlConfig::scrub_read_disturb_threshold`] reads since its last
    /// erase, relocate its live pages and erase it preventively, before
    /// accumulated disturb pushes its raw bit-error rate past what ECC can
    /// correct.  The relocations and the erase ride the per-die command
    /// queues exactly like GC traffic.  A no-op (zero device calls) unless
    /// the device runs with a fault plan — without one the disturb counter
    /// is not even maintained.
    fn maybe_scrub(&mut self, now: SimInstant, block: BlockAddr) -> FlashResult<SimInstant> {
        if !self.faults_active {
            return Ok(now);
        }
        if self.device.read_disturb(block)? < self.scrub_threshold {
            return Ok(now);
        }
        // The active allocation block cannot be erased out from under the
        // region's write pointer; it rotates out on its own soon enough.
        if self.bad_blocks.is_bad(block) || self.regions.is_active(block) {
            return Ok(now);
        }
        let g = *self.device.geometry();
        // A dead die can be neither relocated from nor erased.
        if self
            .regions
            .die_dead(block.die_addr().flat(&g) as usize)
        {
            return Ok(now);
        }
        let region = self.regions.region_of_block(block);
        let mut t = now;
        let mut relocated: u64 = 0;
        loop {
            let mut survivors: Vec<(Ppa, u64)> = Vec::new();
            for page_idx in 0..g.pages_per_block {
                let src = block.page(page_idx);
                if self.device.page_state(src)? != PageState::Valid {
                    continue;
                }
                let Some(lpn) = self.map.reverse(src.flat(&g)) else {
                    continue;
                };
                survivors.push((src, lpn));
            }
            if survivors.is_empty() {
                break;
            }
            match self.relocate_survivors(t, region, &survivors, false) {
                Ok((end, _)) => {
                    relocated += survivors.len() as u64;
                    t = end;
                    break;
                }
                Err(FlashError::ProgramFailed(failed)) => {
                    t = self.retire_failed_block(t, failed.block_addr())?;
                }
                Err(e) => return Err(e),
            }
        }
        // Erasing resets the disturb counter; a worn-out or failing erase
        // retires the block instead (erase_reclaimed handles both).
        t = self.erase_reclaimed(t, block)?.0;
        self.stats.scrubbed_blocks += 1;
        self.stats.scrub_relocations += relocated;
        Ok(t)
    }

    /// Reclaim one block in `region`. Returns the completion time of the last
    /// command, or `None` when the region holds no reclaimable garbage.
    fn gc_region_once(
        &mut self,
        now: SimInstant,
        region: RegionId,
    ) -> FlashResult<Option<SimInstant>> {
        if self.gc_read_heat_penalty > 0.0 {
            // Decay-and-top-up the recent-read heat: halve the accumulator
            // and add the reads since the last selection, so victim scoring
            // reacts to current read traffic and old skew fades out.
            // Reconstruction/rebuild reads are subtracted out via their
            // shadow accumulator — repair traffic is not foreground demand
            // and must not steer victims away from the dies being repaired.
            let cur = self.device.stats().per_die_reads.clone();
            self.gc_read_heat.resize(cur.len(), 0);
            self.gc_read_marker.resize(cur.len(), 0);
            self.rebuild_reads_per_die.resize(cur.len(), 0);
            self.rebuild_read_marker.resize(cur.len(), 0);
            for (i, &reads) in cur.iter().enumerate() {
                let delta = reads.saturating_sub(self.gc_read_marker[i]);
                let shadow = self.rebuild_reads_per_die[i]
                    .saturating_sub(self.rebuild_read_marker[i]);
                self.gc_read_heat[i] =
                    self.gc_read_heat[i] / 2 + delta.saturating_sub(shadow);
                self.gc_read_marker[i] = reads;
                self.rebuild_read_marker[i] = self.rebuild_reads_per_die[i];
            }
        }
        let Some(victim) = select_victim(
            &self.device,
            &self.regions,
            region,
            self.gc_policy,
            self.gc_read_heat_penalty,
            &self.gc_read_heat,
        ) else {
            return Ok(None);
        };
        let g = *self.device.geometry();

        // Collect the victim's survivors (valid pages with a live mapping),
        // crediting dead-page hints for invalid pages the DBMS declared dead.
        let mut survivors: Vec<(Ppa, u64)> = Vec::new();
        for page_idx in 0..g.pages_per_block {
            let src = victim.page(page_idx);
            let flat = src.flat(&g);
            match self.device.page_state(src)? {
                PageState::Valid => {}
                PageState::Invalid => {
                    if self.dead_hinted.remove(flat) {
                        self.stats.gc_dead_skipped += 1;
                    }
                    continue;
                }
                PageState::Free => continue,
            }
            let Some(lpn) = self.map.reverse(flat) else {
                continue;
            };
            survivors.push((src, lpn));
        }
        let (mut t, _) = self.relocate_survivors(now, region, &survivors, false)?;

        // Erase the victim; a worn-out failure retires the block instead of
        // recycling it (but still costs the erase attempt's latency).
        t = self.erase_reclaimed(t, victim)?.0;

        // Static wear leveling, evaluated every few erases.
        if self.wear.on_erase() {
            t = self.maybe_level_wear(t, region)?;
        }
        Ok(Some(t))
    }

    /// Migrate a cold block if the wear spread in `region` demands it.
    fn maybe_level_wear(&mut self, now: SimInstant, region: RegionId) -> FlashResult<SimInstant> {
        let Some(migration) = self.wear.select_migration(&self.device, &self.regions, region)
        else {
            return Ok(now);
        };
        let g = *self.device.geometry();
        let cold = migration.cold_block;
        let mut survivors: Vec<(Ppa, u64)> = Vec::new();
        for page_idx in 0..g.pages_per_block {
            let src = cold.page(page_idx);
            if self.device.page_state(src)? != PageState::Valid {
                continue;
            }
            let Some(lpn) = self.map.reverse(src.flat(&g)) else {
                continue;
            };
            survivors.push((src, lpn));
        }
        let (mut t, moved_all) = self.relocate_survivors(now, region, &survivors, true)?;
        if !moved_all {
            // The region filled up mid-migration.  The moved prefix is
            // already invalidated on the cold block, so its garbage counts
            // stay truthful; the erase waits for a later attempt.
            return Ok(t);
        }
        let (end, erased) = self.erase_reclaimed(t, cold)?;
        t = end;
        if erased {
            self.stats.wear_migrations += 1;
        }
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regions::StripingMode;
    use nand_flash::FlashGeometry;

    fn small_noftl() -> NoFtl {
        NoFtl::with_geometry(FlashGeometry::small())
    }

    fn tiny_noftl() -> NoFtl {
        let mut cfg = NoFtlConfig::new(FlashGeometry::tiny());
        cfg.op_ratio = 0.30;
        cfg.gc_low_watermark = 2;
        cfg.gc_high_watermark = 3;
        NoFtl::new(cfg)
    }

    fn page(n: &NoFtl, byte: u8) -> Vec<u8> {
        vec![byte; n.device().geometry().page_size as usize]
    }

    #[test]
    fn read_your_writes() {
        let mut n = small_noftl();
        let data = page(&n, 0x5C);
        n.write(0, 42, &data).unwrap();
        let mut buf = page(&n, 0);
        n.read(0, 42, &mut buf).unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn writes_follow_die_wise_striping() {
        let mut n = small_noftl();
        let g = *n.device().geometry();
        let data = page(&n, 1);
        for lpn in 0..16u64 {
            n.write(0, lpn, &data).unwrap();
        }
        // Each die must have received writes (4 dies, 16 striped pages).
        let per_die = &n.flash_stats().per_die_ops;
        assert_eq!(per_die.len(), g.total_dies() as usize);
        assert!(per_die.iter().all(|&c| c > 0), "striping skipped a die: {per_die:?}");
    }

    #[test]
    fn region_of_lpn_matches_flash_placement() {
        let mut n = small_noftl();
        let g = *n.device().geometry();
        let data = page(&n, 2);
        for lpn in 0..32u64 {
            n.write(0, lpn, &data).unwrap();
            let region = n.region_of_lpn(lpn);
            // Read back through the map and check the die matches the region.
            let flat = n.map.get(lpn).unwrap();
            let ppa = Ppa::from_flat(&g, flat);
            assert_eq!(n.region_manager().region_of_die(ppa.die_addr()), region);
        }
    }

    #[test]
    fn overwrites_and_gc_preserve_newest_data() {
        let mut n = tiny_noftl();
        let lpns = n.logical_pages();
        let mut now = 0;
        for round in 0u8..6 {
            for lpn in 0..lpns {
                let data = vec![round ^ lpn as u8; n.page_size];
                now = n.write(now, lpn, &data).unwrap().completed_at;
            }
        }
        assert!(n.stats().gc_erases > 0, "GC should have run");
        for lpn in 0..lpns {
            let mut buf = vec![0u8; n.page_size];
            n.read(now, lpn, &mut buf).unwrap();
            assert!(buf.iter().all(|&b| b == 5 ^ lpn as u8));
        }
    }

    #[test]
    fn dead_page_hints_reduce_gc_copies() {
        // Two identical runs, except one marks half the pages dead before the
        // overwrite storm: GC should copy fewer pages in that run.
        let run = |use_hints: bool| -> (u64, u64) {
            let mut n = tiny_noftl();
            let lpns = n.logical_pages();
            let mut now = 0;
            for lpn in 0..lpns {
                let data = vec![1u8; n.page_size];
                now = n.write(now, lpn, &data).unwrap().completed_at;
            }
            if use_hints {
                for lpn in (0..lpns).step_by(2) {
                    n.mark_dead(lpn).unwrap();
                }
            }
            // Overwrite the other half repeatedly to force GC.
            for round in 0u8..8 {
                for lpn in (1..lpns).step_by(2) {
                    let data = vec![round; n.page_size];
                    now = n.write(now, lpn, &data).unwrap().completed_at;
                }
            }
            (n.stats().gc_page_copies, n.stats().gc_erases)
        };
        let (copies_without, _) = run(false);
        let (copies_with, _) = run(true);
        assert!(
            copies_with < copies_without,
            "dead-page hints should reduce GC copies: {copies_with} vs {copies_without}"
        );
    }

    #[test]
    fn mark_dead_makes_page_unreadable() {
        let mut n = small_noftl();
        let data = page(&n, 3);
        n.write(0, 9, &data).unwrap();
        n.mark_dead(9).unwrap();
        let mut buf = page(&n, 0);
        assert!(n.read(0, 9, &mut buf).is_err());
        assert_eq!(n.stats().dead_page_hints, 1);
    }

    #[test]
    fn write_in_region_places_page_on_requested_die() {
        let mut n = small_noftl();
        let g = *n.device().geometry();
        let data = page(&n, 4);
        // Place lpn 0 (which stripes to region 0) explicitly into region 3.
        n.write_in_region(0, 3, 0, &data).unwrap();
        let flat = n.map.get(0).unwrap();
        let ppa = Ppa::from_flat(&g, flat);
        assert_eq!(n.region_manager().region_of_die(ppa.die_addr()), 3);
        let mut buf = page(&n, 0);
        n.read(0, 0, &mut buf).unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn write_batch_roundtrips_and_places_die_wise() {
        let mut n = small_noftl(); // 4 regions
        let g = *n.device().geometry();
        let pages: Vec<(u64, Vec<u8>)> = (0..16u64).map(|l| (l, vec![l as u8; 4096])).collect();
        let batch: Vec<(u64, &[u8])> = pages.iter().map(|(l, d)| (*l, d.as_slice())).collect();
        let end = n.write_batch(0, &batch).unwrap();
        assert!(end > 0);
        assert_eq!(n.stats().host_writes, 16);
        assert_eq!(n.flash_stats().programs, 16);
        assert!(n.flash_stats().multi_page_dispatches >= 4, "one dispatch per die");
        for (lpn, data) in &pages {
            let mut buf = vec![0u8; 4096];
            n.read(end, *lpn, &mut buf).unwrap();
            assert_eq!(&buf, data);
            let flat = n.map.get(*lpn).unwrap();
            let ppa = Ppa::from_flat(&g, flat);
            assert_eq!(
                n.region_manager().region_of_die(ppa.die_addr()),
                n.region_of_lpn(*lpn),
                "batched placement must follow die-wise striping"
            );
        }
    }

    #[test]
    fn write_batch_of_one_is_identical_to_write() {
        let mut a = small_noftl();
        let mut b = small_noftl();
        let data = page(&a, 0x3D);
        let c = a.write(1000, 7, &data).unwrap();
        let end = b.write_batch(1000, &[(7, data.as_slice())]).unwrap();
        assert_eq!(c.completed_at, end);
        assert_eq!(a.flash_stats().programs, b.flash_stats().programs);
        assert_eq!(b.flash_stats().multi_page_dispatches, 0);
        assert_eq!(a.map.get(7), b.map.get(7));
    }

    #[test]
    fn write_batch_placement_matches_sequential_writes() {
        let mut seq = small_noftl();
        let mut bat = small_noftl();
        let data = page(&seq, 1);
        for lpn in 0..32u64 {
            seq.write(0, lpn, &data).unwrap();
        }
        let batch: Vec<(u64, &[u8])> = (0..32u64).map(|l| (l, data.as_slice())).collect();
        bat.write_batch(0, &batch).unwrap();
        for lpn in 0..32u64 {
            assert_eq!(seq.map.get(lpn), bat.map.get(lpn), "lpn {lpn} placed differently");
        }
    }

    #[test]
    fn write_batch_overlaps_dies_and_beats_sequential() {
        let run = |batched: bool| -> u64 {
            let mut n = small_noftl(); // 4 dies
            let data = page(&n, 2);
            let batch: Vec<(u64, &[u8])> = (0..32u64).map(|l| (l, data.as_slice())).collect();
            if batched {
                n.write_batch(0, &batch).unwrap()
            } else {
                let mut t = 0;
                for (lpn, d) in &batch {
                    t = t.max(n.write(t, *lpn, d).unwrap().completed_at);
                }
                t
            }
        };
        let sequential = run(false);
        let batched = run(true);
        assert!(
            (sequential as f64) / (batched as f64) >= 2.0,
            "expected >=2x from die overlap + pipelining: seq={sequential} batched={batched}"
        );
    }

    #[test]
    fn write_batch_duplicate_lpn_keeps_last_version() {
        let mut n = small_noftl();
        let a = page(&n, 0xAA);
        let b = page(&n, 0xBB);
        let end = n
            .write_batch(0, &[(4, a.as_slice()), (4, b.as_slice())])
            .unwrap();
        let mut buf = page(&n, 0);
        n.read(end, 4, &mut buf).unwrap();
        assert_eq!(buf, b);
        assert_eq!(n.stats().host_writes, 2);
    }

    #[test]
    fn write_batch_rejects_bad_input_without_writing() {
        let mut n = small_noftl();
        let good = page(&n, 1);
        let bad = vec![0u8; 7];
        assert!(n
            .write_batch(0, &[(0, good.as_slice()), (1, bad.as_slice())])
            .is_err());
        assert_eq!(n.stats().host_writes, 0);
        assert_eq!(n.flash_stats().programs, 0);
        assert!(n
            .write_batch(0, &[(0, good.as_slice()), (n.logical_pages(), good.as_slice())])
            .is_err());
        assert_eq!(n.flash_stats().programs, 0);
    }

    #[test]
    fn gc_work_is_less_than_faster_style_merging() {
        // NoFTL's greedy page-level GC should produce clearly less copy work
        // than one full-merge per updated block would — sanity check of the
        // mechanism behind Figure 3 (exact ratios are checked in the bench
        // harness / integration tests).
        let mut cfg = NoFtlConfig::new(FlashGeometry::small());
        cfg.op_ratio = 0.20;
        let mut n = NoFtl::new(cfg);
        let lpns = n.logical_pages();
        let mut now = 0;
        let mut rng = sim_utils::rng::SimRng::new(5);
        for lpn in 0..lpns {
            let data = vec![0u8; n.page_size];
            now = n.write(now, lpn, &data).unwrap().completed_at;
        }
        let writes = 2000u64;
        for _ in 0..writes {
            let lpn = rng.range(0, lpns);
            let data = vec![1u8; n.page_size];
            now = n.write(now, lpn, &data).unwrap().completed_at;
        }
        let wa = n.stats().write_amplification();
        assert!(wa < 3.0, "NoFTL write amplification unexpectedly high: {wa}");
    }

    #[test]
    fn idle_region_with_low_free_count_does_not_count_a_gc_stall() {
        // Regression (PR 3): `ensure_region_space` used to bump `gc_stalls`
        // before checking whether the region held any reclaimable garbage, so
        // filling a region with *live* data inflated the stall statistic.
        let mut cfg = NoFtlConfig::new(FlashGeometry::tiny());
        cfg.op_ratio = 0.30;
        cfg.gc_low_watermark = 2;
        cfg.gc_high_watermark = 3;
        let mut n = NoFtl::new(cfg);
        let lpns = n.logical_pages();
        let mut now = 0;
        // Every logical page written exactly once: no garbage anywhere, but
        // the free-block count sinks below the low watermark.
        for lpn in 0..lpns {
            let data = vec![lpn as u8; n.page_size];
            now = n.write(now, lpn, &data).unwrap().completed_at;
        }
        assert!(
            n.regions.free_blocks_in(0) <= 2,
            "fixture must reach the low watermark"
        );
        assert_eq!(n.stats().gc_erases, 0, "no garbage, no GC work");
        assert_eq!(
            n.stats().gc_stalls,
            0,
            "a region without reclaimable garbage must not count as a stall"
        );
        // Once overwrites create garbage, real stalls are counted again.
        for round in 0u8..4 {
            for lpn in 0..lpns {
                let data = vec![round; n.page_size];
                now = n.write(now, lpn, &data).unwrap().completed_at;
            }
        }
        assert!(n.stats().gc_erases > 0);
        assert!(n.stats().gc_stalls > 0, "real GC work must count stalls");
    }

    #[test]
    fn schedule_gc_runs_in_read_cold_instants_and_defers_in_hot_ones() {
        let g = FlashGeometry::small();
        let mut cfg = NoFtlConfig::new(g);
        cfg.striping = StripingMode::Single;
        let mut n = NoFtl::new(cfg);
        let data = vec![1u8; n.page_size];
        // Fill one block completely, then overwrite those pages: block 0 is
        // closed and all-garbage, the canonical proactive-GC victim.  Raising
        // the high watermark above the current free count puts the region
        // under scheduling pressure without a demand-GC pass eating the
        // garbage first.
        let ppb = g.pages_per_block as u64;
        let mut now = 0;
        for lpn in 0..ppb {
            now = n.write(now, lpn, &data).unwrap().completed_at;
        }
        for lpn in 0..ppb {
            now = n.write(now, lpn, &data).unwrap().completed_at;
        }
        n.gc_high = n.regions.free_blocks_in(0) + 1;

        // Threshold 0: proactive scheduling is off entirely.
        assert_eq!(n.schedule_gc(now).unwrap(), None);
        assert_eq!(n.stats().gc_scheduled_cold, 0);
        assert_eq!(n.stats().gc_deferred_hot, 0);

        // Read-hot instant: one read in flight defers the relocation.
        n.set_gc_schedule_read_occupancy(1);
        let ppa_flat = n.map.get(0).expect("lpn 0 is mapped");
        let g = *n.device.geometry();
        let mut buf = vec![0u8; n.page_size];
        let (_, sub) = n
            .device
            .submit_read_page(now, Ppa::from_flat(&g, ppa_flat), &mut buf)
            .unwrap();
        assert!(n.read_occupancy(now) >= 1);
        assert_eq!(n.schedule_gc(now).unwrap(), None);
        assert_eq!(n.stats().gc_deferred_hot, 1);
        assert_eq!(n.stats().gc_scheduled_cold, 0);

        // Read-cold instant (past the read's completion): the relocation
        // runs and restores a free block.
        let later = sub.completion.completed_at;
        assert_eq!(n.read_occupancy(later), 0);
        let end = n.schedule_gc(later).unwrap();
        assert!(end.is_some(), "pressured region with garbage must reclaim");
        assert_eq!(n.stats().gc_scheduled_cold, 1);
        // Draining the pressure (or the reclaimable garbage) ends with the
        // scheduler declining further work.
        let mut t = end.unwrap();
        while let Some(e) = n.schedule_gc(t).unwrap() {
            t = e;
        }
        assert_eq!(n.schedule_gc(t).unwrap(), None);
        assert!(n.stats().gc_scheduled_cold >= 1);
        assert_eq!(n.stats().gc_deferred_hot, 1);
    }

    #[test]
    fn worn_out_erase_is_not_free() {
        // Regression (PR 3): the `WornOut` branch retired the block but never
        // advanced the GC timeline, so a failed erase cost zero virtual time.
        let g = FlashGeometry::small();
        let mut cfg = NoFtlConfig::new(g);
        cfg.striping = StripingMode::Single;
        cfg.endurance_override = Some(0); // every erase past 0 cycles fails
        let mut n = NoFtl::new(cfg);
        let data = vec![1u8; n.page_size];
        // Fill one block completely, then overwrite those pages so the block
        // becomes all-garbage (the next GC victim with zero survivors).
        let ppb = g.pages_per_block as u64;
        for lpn in 0..ppb {
            n.write(0, lpn, &data).unwrap();
        }
        for lpn in 0..ppb {
            n.write(0, lpn, &data).unwrap();
        }
        let end = n.gc_region_once(1_000_000, 0).unwrap().expect("victim exists");
        assert_eq!(n.stats().retired_blocks, 1, "worn-out erase retires the block");
        assert_eq!(n.stats().gc_erases, 0);
        let charged = end.saturating_sub(1_000_000);
        assert!(
            charged >= n.device.timing().erase_block,
            "a worn-out erase must cost at least the erase latency (charged {charged} ns)"
        );
    }

    #[test]
    fn aborted_wear_migration_invalidates_relocated_sources() {
        // Regression (PR 3): when `allocate_page_in` ran dry mid-migration,
        // already-relocated source pages stayed `Valid` on the device while
        // their reverse mappings were gone — permanently skewing
        // `invalid_pages` counts and victim scoring.
        let g = FlashGeometry::tiny(); // 1 die, 8 blocks x 8 pages
        let mut n = NoFtl::with_geometry(g);
        let data = vec![7u8; n.page_size];
        let ppb = g.pages_per_block as u64;
        // Fill block 0 with live data, then open block 1 so block 0 closes.
        for lpn in 0..=ppb {
            n.write(0, lpn, &data).unwrap();
        }
        let cold = BlockAddr::new(0, 0, 0, 0);
        assert_eq!(n.device.block_info(cold).unwrap().valid_pages, 8);
        // Wear a pooled block far past the leveling threshold (64).
        let hot = BlockAddr::new(0, 0, 0, 7);
        for _ in 0..70 {
            n.device.erase_block(0, hot).unwrap();
        }
        // Drain the region down to exactly 2 allocatable pages, programming
        // every allocated page so the sequential-programming rule holds.
        let total: u64 = g.total_pages();
        let already = ppb + 1; // block 0 + first page of block 1
        for _ in 0..(total - already - 2) {
            let ppa = n.regions.allocate_page_in(0).unwrap();
            n.device
                .program_page(0, ppa, &data, Oob::data(u64::MAX - 1, 0))
                .unwrap();
        }
        n.maybe_level_wear(0, 0).unwrap();
        // Two survivors moved, then the region ran dry: the migration must
        // abort, and the moved sources must be garbage on the cold block.
        let info = n.device.block_info(cold).unwrap();
        assert_eq!(
            (info.valid_pages, info.invalid_pages),
            (6, 2),
            "relocated sources must be invalidated as they move"
        );
        assert_eq!(n.stats().gc_page_copies, 2);
        assert_eq!(n.stats().wear_migrations, 0, "aborted migration is not counted");
        // The moved logical pages still read back correctly.
        let mut buf = vec![0u8; n.page_size];
        for lpn in 0..2u64 {
            n.read(0, lpn, &mut buf).unwrap();
            assert_eq!(buf, data);
        }
    }

    /// Overwrite storm fixture on a 2-plane die so GC exercises both the
    /// copyback (plane-local) and read+program (cross-plane) relocation
    /// paths.  Returns (device trace, per-lpn content, gc stats).
    fn gc_storm(gc_batch_pages: usize) -> (Vec<String>, Vec<Vec<u8>>, u64, u64, u64) {
        let mut g = FlashGeometry::tiny();
        g.planes_per_die = 2; // 2 planes x 8 blocks x 8 pages
        let mut cfg = NoFtlConfig::new(g);
        cfg.op_ratio = 0.30;
        cfg.gc_low_watermark = 2;
        cfg.gc_high_watermark = 3;
        cfg.gc_batch_pages = gc_batch_pages;
        let mut dev_cfg = DeviceConfig::new(g);
        dev_cfg.trace_capacity = 1 << 16;
        let device = NandDevice::new(dev_cfg);
        let mut n = NoFtl::with_device(device, cfg);
        let lpns = n.logical_pages();
        let mut now = 0;
        // Seed every page, then overwrite a skewed subset: victims keep live
        // survivors that GC must relocate.
        for lpn in 0..lpns {
            let data = vec![lpn as u8; n.page_size];
            now = n.write(now, lpn, &data).unwrap().completed_at;
        }
        for round in 1u8..12 {
            for lpn in (0..lpns).filter(|l| l % 3 != 0) {
                let data = vec![round ^ lpn as u8; n.page_size];
                now = n.write(now, lpn, &data).unwrap().completed_at;
            }
        }
        let trace: Vec<String> = n
            .device
            .tracer()
            .entries()
            .iter()
            .map(|e| format!("{e:?}"))
            .collect();
        let mut contents = Vec::new();
        let mut buf = vec![0u8; n.page_size];
        for lpn in 0..lpns {
            n.read(now, lpn, &mut buf).unwrap();
            contents.push(buf.clone());
        }
        let s = n.stats();
        (trace, contents, s.gc_page_copies, s.gc_erases, s.gc_batch_dispatches)
    }

    #[test]
    fn gc_read_heat_penalty_plumbs_from_config_and_steers_victims() {
        // End-to-end knob check: equal garbage on two dies, all read traffic
        // on the first — the read-blind default reclaims the read-hot die's
        // block (die-order tie-break), the penalty steers GC to the cold die.
        let victim_for = |penalty: f64| -> BlockAddr {
            let g = FlashGeometry::small();
            let mut cfg = NoFtlConfig::new(g);
            cfg.striping = StripingMode::Single;
            cfg.gc_read_heat_penalty = penalty;
            let mut n = NoFtl::new(cfg);
            let data = vec![1u8; n.page_size];
            let ppb = g.pages_per_block as u64;
            // Fill two blocks (single striping round-robins dies at block
            // boundaries: block 0 → die 0, block 1 → die 1) plus one page so
            // both close.
            for lpn in 0..(2 * ppb + 1) {
                n.write(0, lpn, &data).unwrap();
            }
            // Equal garbage in both closed blocks.
            for lpn in 0..4u64 {
                n.write(0, lpn, &data).unwrap();
            }
            for lpn in ppb..ppb + 4 {
                n.write(0, lpn, &data).unwrap();
            }
            // Hammer reads on the first block's survivors (die 0 only).
            let mut buf = vec![0u8; n.page_size];
            for _ in 0..10 {
                for lpn in 4..8u64 {
                    n.read(0, lpn, &mut buf).unwrap();
                }
            }
            // One GC pass through the full plumbing (recent-heat decay +
            // scorer); the erased victim identifies the chosen block.
            n.gc_region_once(1_000, 0).unwrap().expect("garbage to reclaim");
            let mut erased = Vec::new();
            for ch in 0..g.channels {
                for d in 0..g.dies_per_channel {
                    for pl in 0..g.planes_per_die {
                        for b in 0..g.blocks_per_plane {
                            let addr = BlockAddr::new(ch, d, pl, b);
                            if n.device.block_info(addr).unwrap().erase_count > 0 {
                                erased.push(addr);
                            }
                        }
                    }
                }
            }
            assert_eq!(erased.len(), 1, "exactly one block reclaimed");
            erased[0]
        };
        assert_eq!(NoFtlConfig::new(FlashGeometry::small()).gc_read_heat_penalty, 0.0);
        let read_blind = victim_for(0.0);
        let read_aware = victim_for(4.0);
        assert_ne!(
            read_blind.die_addr(),
            read_aware.die_addr(),
            "the penalty must move the victim off the read-hot die"
        );
        assert_eq!(read_blind, BlockAddr::new(0, 0, 0, 0));
    }

    #[test]
    fn gc_batch_size_one_is_trace_identical_to_legacy() {
        let (trace_legacy, contents_legacy, copies_l, erases_l, dispatches_l) = gc_storm(0);
        let (trace_one, contents_one, copies_1, erases_1, dispatches_1) = gc_storm(1);
        assert!(erases_l > 0, "storm must trigger GC");
        assert!(copies_l > 0, "storm must relocate survivors");
        assert_eq!(
            trace_legacy, trace_one,
            "gc batch size 1 must be command- and cycle-identical to legacy"
        );
        assert_eq!(contents_legacy, contents_one);
        assert_eq!((copies_l, erases_l), (copies_1, erases_1));
        assert_eq!((dispatches_l, dispatches_1), (0, 0));
    }

    #[test]
    fn batched_gc_relocation_preserves_content_and_work() {
        let (_, contents_legacy, copies_l, erases_l, _) = gc_storm(0);
        let (_, contents_batched, copies_b, erases_b, dispatches_b) = gc_storm(8);
        assert!(
            dispatches_b > 0,
            "cross-plane survivors must flow through multi-page dispatches"
        );
        assert_eq!(contents_batched, contents_legacy, "batching must not corrupt data");
        assert_eq!(copies_b, copies_l, "same GC decisions, same copy count");
        assert_eq!(erases_b, erases_l);
    }

    #[test]
    fn batched_gc_cross_die_program_waits_for_its_source_reads() {
        // Regression (code review): the batched relocation path must not
        // dispatch a program run before the reads that produced its data
        // completed — with a cross-die destination, die occupancy alone does
        // not order them.
        let g = FlashGeometry::small(); // 4 dies
        let mut cfg = NoFtlConfig::new(g);
        cfg.striping = StripingMode::Single;
        cfg.gc_batch_pages = 8;
        let mut n = NoFtl::new(cfg);
        let data = vec![5u8; n.page_size];
        let ppb = g.pages_per_block as u64;
        // Fill the die-0 block, then open the next block (die 1 under the
        // round-robin cursor) so relocations allocate on a different die.
        for lpn in 0..=ppb {
            n.write(0, lpn, &data).unwrap();
        }
        let src_block = BlockAddr::new(0, 0, 0, 0);
        let survivors: Vec<(Ppa, u64)> = (0..4u32).map(|p| (src_block.page(p), p as u64)).collect();
        let t0 = 10_000_000;
        let (end, all) = n.relocate_survivors(t0, 0, &survivors, false).unwrap();
        assert!(all);
        assert_eq!(n.stats().gc_batch_dispatches, 1);
        let timing = n.device.timing();
        assert!(
            end - t0 >= timing.read_page + timing.program_page,
            "the dispatch must be charged behind its source reads: end-t0={}",
            end - t0
        );
        // The sources moved: invalidated on the old block, readable content.
        assert_eq!(n.device.block_info(src_block).unwrap().invalid_pages, 4);
        let mut buf = vec![0u8; n.page_size];
        for lpn in 0..4u64 {
            n.read(end, lpn, &mut buf).unwrap();
            assert_eq!(buf, data);
        }
    }

    #[test]
    fn async_write_batches_to_disjoint_regions_overlap() {
        // Two batches bound for different dies: the synchronous caller chains
        // them; the asynchronous submitter hands both over at t=0 and the
        // per-die queues overlap them almost completely.
        let data = vec![3u8; 4096];
        // Region r holds lpns r, r+4, r+8, ... under 4-way striping.
        let batch_a: Vec<(u64, &[u8])> = (0..8u64).map(|i| (i * 4, data.as_slice())).collect();
        let batch_b: Vec<(u64, &[u8])> = (0..8u64).map(|i| (1 + i * 4, data.as_slice())).collect();
        let sync_end = {
            let mut n = small_noftl();
            let t = n.write_batch(0, &batch_a).unwrap();
            n.write_batch(t, &batch_b).unwrap()
        };
        let async_end = {
            let mut n = small_noftl();
            n.set_async_depth(8);
            n.write_batch(0, &batch_a).unwrap();
            n.write_batch(0, &batch_b).unwrap();
            n.drain(0)
        };
        assert!(
            (sync_end as f64) / (async_end as f64) > 1.5,
            "disjoint-die batches must overlap under async: sync={sync_end} async={async_end}"
        );
    }

    #[test]
    fn async_depth_one_write_batch_is_identical_to_sync() {
        let mut a = small_noftl();
        let mut b = small_noftl();
        b.set_async_depth(1);
        let data = page(&a, 0x42);
        let batch: Vec<(u64, &[u8])> = (0..16u64).map(|l| (l, data.as_slice())).collect();
        let end_a = a.write_batch(0, &batch).unwrap();
        let end_b = b.write_batch(0, &batch).unwrap();
        assert_eq!(end_a, end_b);
        assert_eq!(a.flash_stats().programs, b.flash_stats().programs);
        assert_eq!(b.flash_stats().queued_submissions, 0, "depth 1 never queues");
    }

    #[test]
    fn read_batch_roundtrips_and_overlaps_dies() {
        // Each run gets its own device so the other run's die occupancy
        // cannot leak into its timing.
        let run = |batched: bool| -> u64 {
            let mut n = small_noftl(); // 4 dies
            let pages: Vec<(u64, Vec<u8>)> = (0..32u64).map(|l| (l, vec![l as u8; 4096])).collect();
            let batch: Vec<(u64, &[u8])> = pages.iter().map(|(l, d)| (*l, d.as_slice())).collect();
            let end = n.write_batch(0, &batch).unwrap();
            if batched {
                let mut bufs: Vec<(u64, Vec<u8>)> =
                    (0..32u64).map(|l| (l, vec![0u8; 4096])).collect();
                let mut reqs: Vec<(u64, &mut [u8])> = bufs
                    .iter_mut()
                    .map(|(l, b)| (*l, b.as_mut_slice()))
                    .collect();
                let done = n.read_batch(end, &mut reqs).unwrap();
                for (lpn, buf) in &bufs {
                    assert_eq!(buf, &vec![*lpn as u8; 4096], "lpn {lpn} content wrong");
                }
                assert!(
                    n.flash_stats().multi_page_read_dispatches >= 4,
                    "one dispatch per die"
                );
                assert_eq!(n.stats().host_reads, 32);
                done - end
            } else {
                // Sequential chained reads: each read issued at the previous
                // one's completion — the pre-PR4 issuer.
                let mut t = end;
                let mut buf = vec![0u8; 4096];
                for lpn in 0..32u64 {
                    t = n.read(t, lpn, &mut buf).unwrap().completed_at;
                }
                t - end
            }
        };
        let sequential = run(false);
        let batched = run(true);
        assert!(
            (sequential as f64) / (batched as f64) >= 2.0,
            "expected >=2x from die overlap + read pipelining: seq={sequential} batched={batched}"
        );
    }

    #[test]
    fn read_batch_of_one_is_identical_to_read() {
        let mut a = small_noftl();
        let mut b = small_noftl();
        let data = page(&a, 0x51);
        a.write(0, 7, &data).unwrap();
        b.write(0, 7, &data).unwrap();
        let mut buf_a = page(&a, 0);
        let c = a.read(5000, 7, &mut buf_a).unwrap();
        let mut buf_b = page(&b, 0);
        let end = b.read_batch(5000, &mut [(7, buf_b.as_mut_slice())]).unwrap();
        assert_eq!(c.completed_at, end);
        assert_eq!(buf_a, buf_b);
        assert_eq!(a.flash_stats().reads, b.flash_stats().reads);
        assert_eq!(b.flash_stats().multi_page_read_dispatches, 0);
        assert_eq!(a.stats().host_reads, b.stats().host_reads);
    }

    #[test]
    fn read_batch_rejects_bad_input_without_reading() {
        let mut n = small_noftl();
        let data = page(&n, 1);
        n.write(0, 0, &data).unwrap();
        let mut good = page(&n, 0);
        let mut unmapped = page(&n, 0);
        assert!(n
            .read_batch(0, &mut [(0, good.as_mut_slice()), (9, unmapped.as_mut_slice())])
            .is_err());
        assert_eq!(n.stats().host_reads, 0);
        assert_eq!(n.flash_stats().reads, 0, "no device command may issue");
        let mut small_buf = vec![0u8; 7];
        assert!(n
            .read_batch(0, &mut [(0, good.as_mut_slice()), (0, small_buf.as_mut_slice())])
            .is_err());
        assert_eq!(n.flash_stats().reads, 0);
    }

    #[test]
    fn async_depth_one_read_is_identical_to_sync() {
        let mut a = small_noftl();
        let mut b = small_noftl();
        b.set_async_depth(1);
        let data = page(&a, 0x66);
        for lpn in 0..8u64 {
            a.write(0, lpn, &data).unwrap();
            b.write(0, lpn, &data).unwrap();
        }
        let mut buf_a = page(&a, 0);
        let mut buf_b = page(&b, 0);
        for lpn in 0..8u64 {
            let ca = a.read(1000, lpn, &mut buf_a).unwrap();
            let cb = b.read(1000, lpn, &mut buf_b).unwrap();
            assert_eq!(ca, cb);
            assert_eq!(buf_a, buf_b);
        }
        assert_eq!(b.flash_stats().queued_reads, 0, "depth 1 never queues");
    }

    #[test]
    fn async_point_read_queues_behind_inflight_write_traffic() {
        // The same read issued at the same instant: on an idle device it is
        // fast; with a flush batch in flight on its die it must wait its turn
        // in the queue — the foreground-read interference the synchronous
        // model could never show (a sync read only paid die occupancy, never
        // queue admission).
        let data = vec![9u8; 4096];
        let idle_latency = {
            let mut n = small_noftl();
            n.set_async_depth(8);
            n.write(0, 0, &data).unwrap();
            let t0 = n.drain(0) + 1_000_000;
            let mut buf = vec![0u8; 4096];
            let c = n.read(t0, 0, &mut buf).unwrap();
            c.completed_at - t0
        };
        let busy_latency = {
            let mut n = small_noftl();
            n.set_async_depth(8);
            n.write(0, 0, &data).unwrap();
            let t0 = n.drain(0) + 1_000_000;
            // Two flush batches bound for lpn 0's die (region 0 holds lpns
            // 0, 4, 8, ... under 4-way striping), submitted just before.
            let batch: Vec<(u64, &[u8])> = (1..9u64).map(|i| (i * 4, data.as_slice())).collect();
            n.write_batch(t0, &batch).unwrap();
            n.write_batch(t0, &batch).unwrap();
            let mut buf = vec![0u8; 4096];
            let c = n.read(t0, 0, &mut buf).unwrap();
            assert_eq!(buf, data, "queued read returns correct content");
            c.completed_at - t0
        };
        assert!(
            busy_latency > idle_latency,
            "a read behind in-flight writes must be slower: busy={busy_latency} idle={idle_latency}"
        );
    }

    #[test]
    fn gc_under_async_routes_through_queues_and_preserves_content() {
        // The same overwrite storm, synchronous vs async depth 8: GC's
        // relocations and erases must flow through the queued interface
        // (observable in queued_submissions) without changing any content or
        // the amount of GC work.
        let storm = |async_depth: usize| -> (Vec<Vec<u8>>, u64, u64, u64) {
            let mut g = FlashGeometry::tiny();
            g.planes_per_die = 2;
            let mut cfg = NoFtlConfig::new(g);
            cfg.op_ratio = 0.30;
            cfg.gc_low_watermark = 2;
            cfg.gc_high_watermark = 3;
            cfg.async_queue_depth = async_depth;
            let mut n = NoFtl::new(cfg);
            let lpns = n.logical_pages();
            let mut now = 0;
            for lpn in 0..lpns {
                let data = vec![lpn as u8; n.page_size];
                now = n.write(now, lpn, &data).unwrap().completed_at;
            }
            for round in 1u8..12 {
                for lpn in (0..lpns).filter(|l| l % 3 != 0) {
                    let data = vec![round ^ lpn as u8; n.page_size];
                    now = n.write(now, lpn, &data).unwrap().completed_at;
                }
            }
            now = n.drain(now);
            let mut contents = Vec::new();
            let mut buf = vec![0u8; n.page_size];
            for lpn in 0..lpns {
                n.read(now, lpn, &mut buf).unwrap();
                contents.push(buf.clone());
            }
            let s = n.stats();
            (contents, s.gc_page_copies, s.gc_erases, n.flash_stats().queued_submissions)
        };
        let (contents_sync, copies_sync, erases_sync, queued_sync) = storm(1);
        let (contents_async, copies_async, erases_async, queued_async) = storm(8);
        assert!(erases_sync > 0, "storm must trigger GC");
        assert_eq!(queued_sync, 0, "depth 1 never queues");
        assert!(
            queued_async > erases_async,
            "async GC must submit relocations and erases through the queues"
        );
        assert_eq!(contents_async, contents_sync, "async GC must not corrupt data");
        assert_eq!(copies_async, copies_sync, "same GC decisions, same copy count");
        assert_eq!(erases_async, erases_sync);
    }

    #[test]
    fn unwritten_and_out_of_range_reads_fail() {
        let mut n = small_noftl();
        let mut buf = page(&n, 0);
        assert!(n.read(0, 1, &mut buf).is_err());
        assert!(n.read(0, n.logical_pages() + 1, &mut buf).is_err());
    }

    #[test]
    fn identify_exposes_geometry_to_dbms() {
        let n = small_noftl();
        let id = n.identify();
        assert_eq!(id.geometry, *n.device().geometry());
        assert_eq!(n.regions(), id.geometry.total_dies() as usize);
    }

    #[test]
    fn reset_stats_clears_all_layers() {
        let mut n = small_noftl();
        let data = page(&n, 1);
        n.write(0, 0, &data).unwrap();
        n.reset_stats();
        assert_eq!(n.stats().host_writes, 0);
        assert_eq!(n.flash_stats().programs, 0);
    }

    #[test]
    fn buffer_size_mismatch_rejected() {
        let mut n = small_noftl();
        assert!(matches!(
            n.write(0, 0, &[0u8; 7]),
            Err(FlashError::BufferSizeMismatch { .. })
        ));
    }

    use nand_flash::fault::FaultPlan;

    /// NoFTL over a device with an explicit fault plan.
    fn faulty_noftl(plan: FaultPlan, config: NoFtlConfig) -> NoFtl {
        let mut dev_cfg = DeviceConfig::new(config.geometry);
        dev_cfg.store_data = config.store_data;
        dev_cfg.endurance_override = config.endurance_override;
        dev_cfg.faults = Some(plan);
        NoFtl::with_device(NandDevice::new(dev_cfg), config)
    }

    #[test]
    fn writes_survive_program_failures() {
        let mut plan = FaultPlan::seeded(11);
        plan.program_fail_base = 0.03;
        plan.program_fail_wear_scale = 0.0;
        plan.read_error_base = 0.0;
        let mut n = faulty_noftl(plan, NoFtlConfig::new(FlashGeometry::small()));
        let lpns: u64 = 200;
        let mut t = 0;
        for round in 0..3u64 {
            for lpn in 0..lpns {
                let data = vec![(lpn as u8) ^ (round as u8); 4096];
                t = n.write(t, lpn, &data).unwrap().completed_at;
            }
        }
        assert!(
            n.stats().program_fail_retirements > 0,
            "600 writes at 3% failure rate must have tripped recovery"
        );
        assert!(n.stats().retired_blocks >= n.stats().program_fail_retirements);
        assert_eq!(n.bad_blocks().grown_count() as u64, n.stats().retired_blocks);
        // Zero data loss: every logical page reads back its newest version.
        let mut buf = vec![0u8; 4096];
        for lpn in 0..lpns {
            n.read(t, lpn, &mut buf).unwrap();
            assert_eq!(buf, vec![(lpn as u8) ^ 2u8; 4096], "lpn {lpn}");
        }
        // The device saw the failures the DBMS recovered from.
        assert_eq!(
            n.flash_stats().program_failures > 0,
            n.stats().program_fail_retirements > 0
        );
    }

    #[test]
    fn batched_writes_survive_program_failures() {
        let mut plan = FaultPlan::seeded(12);
        plan.program_fail_base = 0.03;
        plan.program_fail_wear_scale = 0.0;
        plan.read_error_base = 0.0;
        let mut cfg = NoFtlConfig::new(FlashGeometry::small());
        cfg.async_queue_depth = 8;
        let mut n = faulty_noftl(plan, cfg);
        let lpns: u64 = 192;
        let mut t = 0;
        for round in 0..3u64 {
            let payloads: Vec<Vec<u8>> = (0..lpns)
                .map(|lpn| vec![(lpn as u8).wrapping_add(round as u8); 4096])
                .collect();
            for chunk in (0..lpns).collect::<Vec<_>>().chunks(16) {
                let batch: Vec<(u64, &[u8])> = chunk
                    .iter()
                    .map(|&lpn| (lpn, payloads[lpn as usize].as_slice()))
                    .collect();
                t = n.write_batch(t, &batch).unwrap();
            }
        }
        t = n.drain(t);
        assert!(n.stats().program_fail_retirements > 0);
        let mut buf = vec![0u8; 4096];
        for lpn in 0..lpns {
            n.read(t, lpn, &mut buf).unwrap();
            assert_eq!(buf, vec![(lpn as u8).wrapping_add(2); 4096], "lpn {lpn}");
        }
    }

    #[test]
    fn uncorrectable_reads_recover_through_the_retry_ladder() {
        let mut plan = FaultPlan::seeded(13);
        plan.program_fail_base = 0.0;
        plan.read_error_base = 0.4;
        plan.read_error_wear_scale = 0.0;
        plan.read_error_retention_scale = 0.0;
        plan.read_error_disturb_scale = 0.0;
        plan.uncorrectable_fraction = 0.25;
        let mut cfg = NoFtlConfig::new(FlashGeometry::small());
        cfg.scrub_read_disturb_threshold = u64::MAX; // isolate the ladder
        let mut n = faulty_noftl(plan, cfg);
        let mut buf = vec![0u8; 4096];
        for lpn in 0..32u64 {
            let data = vec![lpn as u8; 4096];
            n.write(0, lpn, &data).unwrap();
        }
        for round in 1..10u64 {
            for lpn in 0..32u64 {
                n.read(round * 1_000_000, lpn, &mut buf).unwrap();
                assert_eq!(buf, vec![lpn as u8; 4096]);
            }
        }
        assert!(n.stats().read_retries > 0, "10% uncorrectable per attempt");
        assert!(n.stats().read_retry_successes > 0);
        assert!(n.flash_stats().uncorrectable_reads >= n.stats().read_retries);
        assert!(n.flash_stats().corrected_reads > 0);
    }

    #[test]
    fn erase_failures_retire_blocks_mid_gc_without_losing_survivors() {
        let mut plan = FaultPlan::seeded(14);
        plan.program_fail_base = 0.0;
        plan.read_error_base = 0.0;
        plan.erase_fail_knee = 0.0;
        plan.erase_fail_prob = 0.08;
        let mut g = FlashGeometry::tiny();
        g.planes_per_die = 2; // 2 planes x 8 blocks x 8 pages
        let mut cfg = NoFtlConfig::new(g);
        cfg.op_ratio = 0.30;
        cfg.gc_low_watermark = 2;
        cfg.gc_high_watermark = 3;
        // Endurance 0 pins the plan's wear fraction at 1.0, so every erase
        // draws the full `erase_fail_prob` — and the hard WornOut model is
        // switched off so only the injected failures retire blocks.
        cfg.endurance_override = Some(0);
        let mut dev_cfg = DeviceConfig::new(g);
        dev_cfg.endurance_override = Some(0);
        dev_cfg.bad_blocks = nand_flash::bad_block::BadBlockPolicy {
            factory_bad_fraction: 0.0,
            wear_out_failure_prob: 0.0,
            seed: 1,
        };
        dev_cfg.faults = Some(plan);
        let mut n = NoFtl::with_device(NandDevice::new(dev_cfg), cfg);
        let lpns = n.logical_pages();
        let mut t = 0;
        // Seed everything, then overwrite a skewed subset so GC erases
        // constantly (and its victims carry survivors).
        for lpn in 0..lpns {
            let data = vec![lpn as u8; 512];
            t = n.write(t, lpn, &data).unwrap().completed_at;
        }
        let mut last = vec![0u8; lpns as usize];
        for (i, d) in last.iter_mut().enumerate() {
            *d = i as u8;
        }
        // Overwrite until the injected erase failures have fired a couple of
        // times (the early exit keeps the shrinking block pool comfortable —
        // every failure permanently retires a block).
        'storm: for round in 1u8..32 {
            for lpn in (0..lpns).filter(|l| l % 3 != 0) {
                let data = vec![round ^ lpn as u8; 512];
                t = n.write(t, lpn, &data).unwrap().completed_at;
                last[lpn as usize] = round ^ lpn as u8;
                if n.stats().erase_fail_retirements >= 2 {
                    break 'storm;
                }
            }
        }
        assert!(n.stats().gc_erases > 0, "workload must have forced GC");
        assert!(
            n.stats().erase_fail_retirements > 0,
            "wear-ramped erase failures across {} erases must have fired",
            n.stats().gc_erases
        );
        assert_eq!(
            n.flash_stats().erase_failures,
            n.stats().erase_fail_retirements
        );
        assert!(n.stats().retired_blocks >= n.stats().erase_fail_retirements);
        let mut buf = vec![0u8; 512];
        for lpn in 0..lpns {
            n.read(t, lpn, &mut buf).unwrap();
            assert_eq!(buf, vec![last[lpn as usize]; 512], "lpn {lpn}");
        }
    }

    #[test]
    fn read_disturb_scrubber_rewrites_hot_blocks() {
        let mut plan = FaultPlan::seeded(15);
        plan.program_fail_base = 0.0;
        plan.read_error_base = 0.0; // isolate the scrubber from the ladder
        let mut cfg = NoFtlConfig::new(FlashGeometry::tiny());
        cfg.op_ratio = 0.30;
        cfg.scrub_read_disturb_threshold = 40;
        let mut n = faulty_noftl(plan, cfg);
        // Fill several blocks so the hot page's block is sealed (the active
        // allocation block is exempt from scrubbing).
        let lpns = n.logical_pages();
        for lpn in 0..lpns {
            let data = vec![lpn as u8; 512];
            n.write(0, lpn, &data).unwrap();
        }
        let mut buf = vec![0u8; 512];
        for i in 0..60u64 {
            n.read(1_000 + i, 5, &mut buf).unwrap();
        }
        assert!(n.stats().scrubbed_blocks >= 1, "threshold 40 < 60 reads");
        assert!(n.stats().scrub_relocations > 0, "live pages moved out");
        // The hot page survived the scrub and every other page is intact.
        for lpn in 0..lpns {
            n.read(2_000_000, lpn, &mut buf).unwrap();
            assert_eq!(buf, vec![lpn as u8; 512], "lpn {lpn}");
        }
    }

    #[test]
    fn exhausting_the_block_pool_fails_typed_not_panicking() {
        // Every program fails, so every write retires another block; once
        // the last free block is gone the write must surface
        // OutOfSpareBlocks as an error instead of panicking or looping.
        let mut plan = FaultPlan::seeded(16);
        plan.program_fail_base = 1.0;
        plan.read_error_base = 0.0;
        let mut cfg = NoFtlConfig::new(FlashGeometry::tiny());
        cfg.op_ratio = 0.30;
        let mut n = faulty_noftl(plan, cfg);
        let data = vec![0xAB; 512];
        let err = n.write(0, 0, &data).unwrap_err();
        assert_eq!(err, FlashError::OutOfSpareBlocks);
        // The pool is genuinely gone: every block was retired exactly once.
        assert_eq!(
            n.stats().retired_blocks,
            FlashGeometry::tiny().total_blocks()
        );
        assert_eq!(n.bad_blocks().grown_count() as u64, n.stats().retired_blocks);
    }

    #[test]
    fn factory_bad_blocks_shrink_exported_capacity() {
        use nand_flash::bad_block::BadBlockPolicy;
        let g = FlashGeometry::small();
        let cfg = NoFtlConfig::new(g);
        let full_capacity = cfg.logical_pages();
        let mut dev_cfg = DeviceConfig::new(g);
        dev_cfg.bad_blocks = BadBlockPolicy {
            factory_bad_fraction: 0.10,
            wear_out_failure_prob: 1.0,
            seed: 99,
        };
        let mut n = NoFtl::with_device(NandDevice::new(dev_cfg), cfg);
        let factory = n.bad_blocks().factory_count();
        assert!(factory > 0, "10% of 256 blocks must mark some factory-bad");
        assert!(
            n.logical_pages() < full_capacity,
            "capacity must shrink with the factory-bad pool ({} vs {})",
            n.logical_pages(),
            full_capacity
        );
        // The shrunken promise is honest: every exported page is writable
        // and readable even though the physical pool lost blocks.
        let mut t = 0;
        for lpn in 0..n.logical_pages() {
            let data = vec![(lpn % 251) as u8; 4096];
            t = n.write(t, lpn, &data).unwrap().completed_at;
        }
        let mut buf = vec![0u8; 4096];
        for lpn in 0..n.logical_pages() {
            n.read(t, lpn, &mut buf).unwrap();
            assert_eq!(buf[0], (lpn % 251) as u8);
        }
        // A pristine device still exports the full configured capacity.
        let pristine = small_noftl();
        assert_eq!(pristine.logical_pages(), full_capacity);
    }

    /// A fault plan with every probabilistic failure mode zeroed, so only
    /// the deterministic die kill (fired by the next device command) acts.
    fn kill_plan(die_flat: u32) -> FaultPlan {
        let mut plan = FaultPlan::seeded(7).with_die_kill(0, die_flat);
        plan.program_fail_base = 0.0;
        plan.erase_fail_prob = 0.0;
        plan.read_error_base = 0.0;
        plan
    }

    /// Flat die index logical page `lpn` is currently mapped to.
    fn die_of_lpn(n: &NoFtl, lpn: u64) -> u32 {
        let g = *n.device().geometry();
        let flat = n.map.get(lpn).expect("lpn is mapped");
        Ppa::from_flat(&g, flat).die_addr().flat(&g) as u32
    }

    #[test]
    fn parity_stripes_seal_die_disjoint() {
        let mut n = small_noftl();
        assert!(!n.redundancy_configured());
        n.set_redundancy_all(RedundancyPolicy::Parity(3));
        assert!(n.redundancy_configured());
        assert_eq!(n.redundancy_policy(0), RedundancyPolicy::Parity(3));
        let mut now = 0;
        for lpn in 0..12u64 {
            let data = page(&n, lpn as u8 + 1);
            now = n.write(now, lpn, &data).unwrap().completed_at;
        }
        let rs = n.redundancy_stats();
        assert_eq!(rs.stripes_sealed, 4, "12 writes at k = 3 seal 4 stripes");
        assert_eq!(rs.parity_pages_written, 4);
        assert_eq!(rs.stripes_broken, 0);
        // Every stripe (members + parity) must be die-disjoint: one die
        // failure may cost at most one page per stripe.
        let g = *n.device().geometry();
        for stripe in n.stripes.iter().flatten() {
            let mut dies: Vec<u64> = stripe
                .members
                .iter()
                .chain(std::iter::once(&stripe.parity))
                .map(|&m| Ppa::from_flat(&g, m).die_addr().flat(&g))
                .collect();
            let total = dies.len();
            dies.sort_unstable();
            dies.dedup();
            assert_eq!(dies.len(), total, "stripe pages share a die");
        }
        // Reads of parity-protected pages stay plain reads while no die is
        // dead.
        let mut buf = page(&n, 0);
        n.read(now, 5, &mut buf).unwrap();
        assert_eq!(buf, page(&n, 6));
        assert_eq!(n.redundancy_stats().degraded_reads, 0);
    }

    #[test]
    fn mirror_writes_place_copies_on_other_dies() {
        let mut n = small_noftl();
        n.set_redundancy_all(RedundancyPolicy::Mirror);
        let g = *n.device().geometry();
        let mut now = 0;
        for lpn in 0..8u64 {
            let data = page(&n, lpn as u8 + 1);
            now = n.write(now, lpn, &data).unwrap().completed_at;
        }
        assert_eq!(n.redundancy_stats().mirror_pages_written, 8);
        for lpn in 0..8u64 {
            let flat = n.map.get(lpn).unwrap() as usize;
            let copy = n.mirror_of[flat];
            assert_ne!(copy, NO_MIRROR, "every write must be mirrored");
            assert_eq!(n.mirror_of[copy as usize], flat as u64);
            let pd = Ppa::from_flat(&g, flat as u64).die_addr();
            let cd = Ppa::from_flat(&g, copy).die_addr();
            assert_ne!(pd, cd, "mirror copy must live on a different die");
        }
        // Superseding a mirrored page drops the copy as garbage.
        let data = page(&n, 0xEE);
        n.write(now, 0, &data).unwrap();
        assert_eq!(n.redundancy_stats().mirror_pages_written, 9);
    }

    #[test]
    fn degraded_read_reconstructs_from_parity() {
        let mut n = small_noftl();
        n.set_redundancy_all(RedundancyPolicy::Parity(3));
        let mut now = 0;
        for lpn in 0..12u64 {
            let data = page(&n, lpn as u8 + 1);
            now = n.write(now, lpn, &data).unwrap().completed_at;
        }
        let victim_lpn = 5u64;
        let dead_die = die_of_lpn(&n, victim_lpn);
        let live_lpn = (0..12u64)
            .find(|&l| die_of_lpn(&n, l) != dead_die)
            .unwrap();
        n.set_fault_plan(Some(kill_plan(dead_die)));
        // The next device command fires the kill; aim it at a live die.
        let mut buf = page(&n, 0);
        n.read(now, live_lpn, &mut buf).unwrap();
        assert!(n.any_die_dead());
        // The read of the lost page is served bit-identical through XOR
        // reconstruction from its stripe's surviving pages.
        n.read(now, victim_lpn, &mut buf).unwrap();
        assert_eq!(buf, page(&n, victim_lpn as u8 + 1));
        assert_eq!(n.redundancy_stats().degraded_reads, 1);
        assert!(n.redundancy_stats().reconstructed_pages >= 1);
        assert_eq!(n.rebuild_stats().die_failures_detected, 1);
    }

    #[test]
    fn degraded_read_reconstructs_from_mirror() {
        let mut n = small_noftl();
        n.set_redundancy_all(RedundancyPolicy::Mirror);
        let mut now = 0;
        for lpn in 0..8u64 {
            let data = page(&n, lpn as u8 + 1);
            now = n.write(now, lpn, &data).unwrap().completed_at;
        }
        let victim_lpn = 3u64;
        let dead_die = die_of_lpn(&n, victim_lpn);
        let live_lpn = (0..8u64)
            .find(|&l| die_of_lpn(&n, l) != dead_die)
            .unwrap();
        n.set_fault_plan(Some(kill_plan(dead_die)));
        let mut buf = page(&n, 0);
        n.read(now, live_lpn, &mut buf).unwrap();
        n.read(now, victim_lpn, &mut buf).unwrap();
        assert_eq!(buf, page(&n, victim_lpn as u8 + 1));
        assert_eq!(n.redundancy_stats().degraded_reads, 1);
        assert_eq!(n.redundancy_stats().reconstructed_pages, 1);
    }

    #[test]
    fn rebuild_rehomes_parity_protected_pages() {
        let mut n = small_noftl();
        n.set_redundancy_all(RedundancyPolicy::Parity(3));
        let mut now = 0;
        for lpn in 0..32u64 {
            let data = page(&n, lpn as u8 + 1);
            now = n.write(now, lpn, &data).unwrap().completed_at;
        }
        let dead_die = die_of_lpn(&n, 0);
        let lost: Vec<u64> = (0..32u64)
            .filter(|&l| die_of_lpn(&n, l) == dead_die)
            .collect();
        assert!(!lost.is_empty());
        let live_lpn = (0..32u64)
            .find(|&l| die_of_lpn(&n, l) != dead_die)
            .unwrap();
        n.set_fault_plan(Some(kill_plan(dead_die)));
        let mut buf = page(&n, 0);
        n.read(now, live_lpn, &mut buf).unwrap();
        now = n.rebuild_all(now).unwrap();
        let rb = n.rebuild_stats();
        assert_eq!(rb.die_failures_detected, 1);
        assert_eq!(rb.pages_rebuilt, lost.len() as u64);
        assert_eq!(rb.pages_lost, 0, "parity must recover every lost page");
        assert!(rb.accounted());
        // Every page — including the rebuilt ones — reads back bit-identical,
        // and nothing is mapped to the dead die any more.
        for lpn in 0..32u64 {
            n.read(now, lpn, &mut buf).unwrap();
            assert_eq!(buf, page(&n, lpn as u8 + 1), "lpn {lpn}");
            assert_ne!(die_of_lpn(&n, lpn), dead_die);
        }
        // The rebuilt pages are served by plain reads, not degraded ones.
        let degraded_before = n.redundancy_stats().degraded_reads;
        n.read(now, lost[0], &mut buf).unwrap();
        assert_eq!(n.redundancy_stats().degraded_reads, degraded_before);
    }

    #[test]
    fn die_loss_without_redundancy_counts_losses() {
        let mut n = small_noftl();
        let mut now = 0;
        for lpn in 0..8u64 {
            let data = page(&n, lpn as u8 + 1);
            now = n.write(now, lpn, &data).unwrap().completed_at;
        }
        let dead_die = die_of_lpn(&n, 2);
        let live_lpn = (0..8u64)
            .find(|&l| die_of_lpn(&n, l) != dead_die)
            .unwrap();
        n.set_fault_plan(Some(kill_plan(dead_die)));
        let mut buf = page(&n, 0);
        n.read(now, live_lpn, &mut buf).unwrap();
        now = n.rebuild_all(now).unwrap();
        let rb = n.rebuild_stats();
        assert_eq!(rb.pages_rebuilt, 0);
        assert!(rb.pages_lost >= 1, "unprotected pages are lost");
        assert!(rb.accounted());
        // The mapping still points at the dead die: reads keep failing typed
        // so the storage engine's WAL-replay page rebuild can take over.
        let err = n.read(now, 2, &mut buf).unwrap_err();
        assert!(matches!(err, FlashError::DieFailed(_)), "got {err:?}");
    }

    #[test]
    fn schedule_rebuild_defers_hot_and_progresses_cold() {
        let mut n = small_noftl();
        n.set_redundancy_all(RedundancyPolicy::Parity(3));
        let mut now = 0;
        for lpn in 0..32u64 {
            let data = page(&n, lpn as u8 + 1);
            now = n.write(now, lpn, &data).unwrap().completed_at;
        }
        // No die dead: a single cheap check, no work, no counters.
        assert_eq!(n.schedule_rebuild(now).unwrap(), None);
        assert_eq!(n.rebuild_stats().rebuild_scheduled, 0);
        let dead_die = die_of_lpn(&n, 0);
        let live_lpn = (0..32u64)
            .find(|&l| die_of_lpn(&n, l) != dead_die)
            .unwrap();
        n.set_fault_plan(Some(kill_plan(dead_die)));
        let g = *n.device.geometry();
        let mut buf = page(&n, 0);
        n.read(now, live_lpn, &mut buf).unwrap();
        // Read-hot instant: one read in flight defers the rebuild step.
        n.set_gc_schedule_read_occupancy(1);
        let live_flat = n.map.get(live_lpn).unwrap();
        let (_, sub) = n
            .device
            .submit_read_page(now, Ppa::from_flat(&g, live_flat), &mut buf)
            .unwrap();
        assert_eq!(n.schedule_rebuild(now).unwrap(), None);
        assert_eq!(n.rebuild_stats().rebuild_deferred_hot, 1);
        assert_eq!(n.rebuild_stats().rebuild_scheduled, 0);
        // Read-cold instants: bounded steps make progress until the dead
        // die's page range is fully walked.
        let mut t = sub.completion.completed_at;
        while let Some(end) = n.schedule_rebuild(t).unwrap() {
            t = end.max(t);
        }
        let rb = n.rebuild_stats();
        assert!(rb.rebuild_scheduled >= 1);
        assert_eq!(rb.rebuild_deferred_hot, 1);
        assert_eq!(rb.pages_lost, 0);
        assert!(rb.pages_rebuilt >= 1);
        assert!(rb.accounted());
        for lpn in 0..32u64 {
            n.read(t, lpn, &mut buf).unwrap();
            assert_eq!(buf, page(&n, lpn as u8 + 1), "lpn {lpn}");
        }
    }

    #[test]
    fn gc_churn_under_parity_breaks_and_reprotects_stripes() {
        let mut cfg = NoFtlConfig::new(FlashGeometry::small());
        // Parity(3) keeps ~1 extra live page per 3 logical ones — plus the
        // parity of superseded versions, pinned until their blocks erase —
        // so the over-provisioning must budget for it (the
        // `NOFTL_REDUNDANCY` knob wiring applies the same accounting when it
        // builds the config).
        cfg.op_ratio = 0.60;
        cfg.gc_low_watermark = 2;
        cfg.gc_high_watermark = 4;
        let mut n = NoFtl::new(cfg);
        n.set_redundancy_all(RedundancyPolicy::Parity(3));
        let lpns = n.logical_pages();
        let mut now = 0;
        // Round 0 writes everything, mixing hot (even) and cold (odd) pages
        // into the same stripes; the churn rounds then overwrite only the
        // hot half.  GC victims hold hot garbage whose stripe peers include
        // still-mapped cold pages — exactly the members the break hook must
        // re-protect.
        for lpn in 0..lpns {
            let data = vec![lpn as u8; n.page_size];
            now = n.write(now, lpn, &data).unwrap().completed_at;
        }
        for round in 1u8..6 {
            for lpn in (0..lpns).step_by(2) {
                let data = vec![round ^ lpn as u8; n.page_size];
                now = n.write(now, lpn, &data).unwrap().completed_at;
            }
        }
        assert!(n.stats().gc_erases > 0, "churn must trigger GC");
        let rs = n.redundancy_stats();
        assert!(rs.stripes_sealed > 0);
        assert!(rs.stripes_broken > 0, "GC erases must dissolve stripes");
        assert!(rs.members_reprotected > 0);
        let mut buf = vec![0u8; n.page_size];
        for lpn in 0..lpns {
            let expect = if lpn % 2 == 0 { 5u8 ^ lpn as u8 } else { lpn as u8 };
            n.read(now, lpn, &mut buf).unwrap();
            assert_eq!(buf, vec![expect; n.page_size], "lpn {lpn}");
        }
    }

    #[test]
    fn rebuild_reads_do_not_bias_gc_victims() {
        // Satellite regression: reconstruction/rebuild reads hammering one
        // die must not register as foreground read heat — the victim choice
        // with rebuild traffic must equal the read-blind choice without it.
        let g = FlashGeometry::small();
        let mut cfg = NoFtlConfig::new(g);
        cfg.striping = StripingMode::Single;
        let mut n = NoFtl::new(cfg);
        n.set_gc_read_heat_penalty(4.0);
        let data = vec![1u8; n.page_size];
        let ppb = g.pages_per_block as u64;
        let mut now = 0;
        // Two closed blocks on two dies (Single striping round-robins dies
        // at block boundaries), then equal garbage in both.
        for lpn in 0..(ppb * 2) {
            now = n.write(now, lpn, &data).unwrap().completed_at;
        }
        now = n.write(now, ppb * 2, &data).unwrap().completed_at;
        let first = Ppa::from_flat(&g, n.map.get(0).unwrap()).block_addr();
        let second =
            Ppa::from_flat(&g, n.map.get(ppb).unwrap()).block_addr();
        assert_ne!(first.die_addr(), second.die_addr());
        for lpn in 0..4u64 {
            now = n.write(now, lpn, &data).unwrap().completed_at;
        }
        for lpn in ppb..ppb + 4 {
            now = n.write(now, lpn, &data).unwrap().completed_at;
        }
        // Hammer reconstruction-class reads on the FIRST block's die — the
        // read-blind victim.  If these leaked into the heat accumulator the
        // penalty would steer GC to the second block instead.
        let mut buf = vec![0u8; n.page_size];
        for _ in 0..10 {
            for lpn in 4..8u64 {
                let ppa = Ppa::from_flat(&g, n.map.get(lpn).unwrap());
                now = n
                    .reconstruction_read(now, ppa, &mut buf)
                    .unwrap()
                    .1
                    .completed_at;
            }
        }
        n.gc_region_once(now, 0).unwrap();
        assert!(
            n.regions.is_free(first),
            "victim choice must match the read-blind choice (reclaim {first:?})"
        );
        assert!(!n.regions.is_free(second));
        // The shadow accumulator absorbed the reconstruction reads entirely.
        let die = first.die_addr().flat(&g) as usize;
        assert_eq!(n.gc_read_heat[die], 0);
        assert!(n.rebuild_reads_per_die[die] >= 40);
    }

    #[test]
    fn off_leg_keeps_all_redundancy_machinery_dormant() {
        let mut n = tiny_noftl();
        let lpns = n.logical_pages();
        let mut now = 0;
        for round in 0u8..6 {
            for lpn in 0..lpns {
                let data = vec![round ^ lpn as u8; n.page_size];
                now = n.write(now, lpn, &data).unwrap().completed_at;
            }
        }
        assert!(n.stats().gc_erases > 0);
        assert!(!n.redundancy_configured());
        assert!(!n.redundancy_active);
        assert!(n.stripe_of.is_empty(), "off leg allocates no stripe tables");
        assert!(n.mirror_of.is_empty());
        let rs = n.redundancy_stats();
        assert_eq!(rs.parity_pages_written, 0);
        assert_eq!(rs.stripes_sealed, 0);
        assert_eq!(rs.stripes_sealed_degraded, 0);
        assert_eq!(rs.stripes_abandoned, 0);
        assert_eq!(rs.open_members_purged, 0);
        assert_eq!(rs.stripes_broken, 0);
        assert_eq!(rs.members_reprotected, 0);
        assert_eq!(rs.mirror_pages_written, 0);
        assert_eq!(rs.mirror_skipped_no_space, 0);
        assert_eq!(rs.degraded_reads, 0);
        assert_eq!(rs.reconstructed_pages, 0);
        let rb = n.rebuild_stats();
        assert_eq!(rb.die_failures_detected, 0);
        assert_eq!(rb.pages_scanned, 0);
        assert_eq!(rb.rebuild_scheduled, 0);
        assert_eq!(rb.rebuild_deferred_hot, 0);
    }

    #[test]
    fn die_failure_seals_the_open_stripe() {
        let mut n = small_noftl();
        n.set_redundancy_all(RedundancyPolicy::Parity(3));
        let mut now = 0;
        // Two members in the open stripe (k = 3: not sealed yet).
        for lpn in 0..2u64 {
            let data = page(&n, lpn as u8 + 1);
            now = n.write(now, lpn, &data).unwrap().completed_at;
        }
        assert_eq!(n.redundancy_stats().stripes_sealed, 0);
        let dead_die = die_of_lpn(&n, 0);
        let live_lpn = 1u64;
        assert_ne!(die_of_lpn(&n, live_lpn), dead_die);
        n.set_fault_plan(Some(kill_plan(dead_die)));
        let mut buf = page(&n, 0);
        n.read(now, live_lpn, &mut buf).unwrap();
        // Noticing the failure seals the short stripe from its in-memory
        // XOR — the member on the dead die is covered without re-reading it.
        n.schedule_rebuild(now).unwrap();
        assert_eq!(n.redundancy_stats().stripes_sealed, 1);
        n.rebuild_all(now).unwrap();
        assert_eq!(n.rebuild_stats().pages_lost, 0);
        n.read(now, 0, &mut buf).unwrap();
        assert_eq!(buf, page(&n, 1));
    }

    #[test]
    fn erase_purges_stale_open_stripe_members() {
        let mut n = small_noftl();
        n.set_redundancy_all(RedundancyPolicy::Parity(3));
        let g = *n.device.geometry();
        let mut now = 0;
        let d1 = page(&n, 0x22);
        now = n.write(now, 0, &page(&n, 0x11)).unwrap().completed_at;
        now = n.write(now, 1, &d1).unwrap().completed_at;
        let f0 = n.map.get(0).unwrap();
        let f1 = n.map.get(1).unwrap();
        assert_eq!(n.open_stripe, vec![f0, f1], "k = 3: stripe still open");
        // lpn 0's page goes stale without a re-join: dead-page hint.
        n.mark_dead(0).unwrap();
        assert!(n.open_stripe.contains(&f0), "hinted member stays pending");
        // Its block is reclaimed: the pre-erase hook must back the stale
        // member out of the open stripe — a later seal would otherwise
        // cover flash the erase is about to destroy.
        let block = Ppa::from_flat(&g, f0).block_addr();
        now = n.break_redundancy_in_block(now, block).unwrap();
        assert_eq!(n.open_stripe, vec![f1]);
        assert_eq!(n.redundancy_stats().open_members_purged, 1);
        assert_eq!(n.redundancy_stats().stripes_abandoned, 0);
        // The repaired stripe seals and reconstructs bit-identical: fill it,
        // kill the surviving member's die, and read the member degraded.
        now = n.write(now, 2, &page(&n, 0x33)).unwrap().completed_at;
        now = n.write(now, 3, &page(&n, 0x44)).unwrap().completed_at;
        assert_eq!(n.redundancy_stats().stripes_sealed, 1);
        let dead_die = die_of_lpn(&n, 1);
        let live_lpn = (2..4u64).find(|&l| die_of_lpn(&n, l) != dead_die).unwrap();
        n.set_fault_plan(Some(kill_plan(dead_die)));
        let mut buf = page(&n, 0);
        n.read(now, live_lpn, &mut buf).unwrap();
        n.read(now, 1, &mut buf).unwrap();
        assert_eq!(buf, d1, "reconstruction must not see the purged member");
        assert!(n.redundancy_stats().degraded_reads >= 1);
    }

    #[test]
    fn relocation_rejoin_drops_the_stale_open_member() {
        let mut n = small_noftl();
        n.set_redundancy_all(RedundancyPolicy::Parity(3));
        let g = *n.device.geometry();
        let d0 = page(&n, 0x5A);
        let now = n.write(0, 0, &d0).unwrap().completed_at;
        let f0 = n.map.get(0).unwrap();
        assert_eq!(n.open_stripe, vec![f0]);
        // Relocate lpn 0 to another die, as GC would: the re-join must
        // replace the stale member instead of accumulating beside it.
        let src_die = Ppa::from_flat(&g, f0).die_addr().flat(&g) as usize;
        let dst = n
            .regions
            .allocate_page_on_die((src_die + 1) % g.total_dies() as usize, n.gc_low)
            .unwrap();
        n.relink_redundancy(now, f0, dst.flat(&g), 0, Some(&d0)).unwrap();
        assert_eq!(n.open_stripe, vec![dst.flat(&g)]);
        assert_eq!(n.redundancy_stats().open_members_purged, 1);
        assert_eq!(n.open_stripe_xor, d0, "XOR repaired to cover only the new member");
    }

    #[test]
    fn parity_exhausting_disjoint_dies_counts_degraded_seal() {
        // Two dies, Parity(2): both stripe members occupy all dies, so the
        // parity fallback must land on a member die — and say so.
        let mut g = FlashGeometry::small();
        g.channels = 1;
        g.dies_per_channel = 2;
        let mut n = NoFtl::with_geometry(g);
        n.set_redundancy_all(RedundancyPolicy::Parity(2));
        let r0 = n.regions.region_of_lpn(0);
        let l1 = (1..16u64)
            .find(|&l| n.regions.region_of_lpn(l) != r0)
            .expect("a second region exists");
        let mut now = 0;
        now = n.write(now, 0, &page(&n, 1)).unwrap().completed_at;
        now = n.write(now, l1, &page(&n, 2)).unwrap().completed_at;
        assert_ne!(die_of_lpn(&n, 0), die_of_lpn(&n, l1));
        let rs = n.redundancy_stats();
        assert_eq!(rs.stripes_sealed, 1);
        assert_eq!(
            rs.stripes_sealed_degraded, 1,
            "a member-die parity placement must be observable"
        );
        // The stripe still recovers block-level loss: contents read back.
        let mut buf = page(&n, 0);
        n.read(now, 0, &mut buf).unwrap();
        assert_eq!(buf, page(&n, 1));
    }

    #[test]
    fn single_die_mirror_skips_instead_of_same_die_copy() {
        let mut n = tiny_noftl();
        n.set_redundancy_all(RedundancyPolicy::Mirror);
        let data = page(&n, 0x7E);
        let now = n.write(0, 0, &data).unwrap().completed_at;
        let rs = n.redundancy_stats();
        assert_eq!(
            rs.mirror_pages_written, 0,
            "a same-die copy survives no die failure and must not be written"
        );
        assert_eq!(rs.mirror_skipped_no_space, 1);
        let mut buf = page(&n, 0);
        n.read(now, 0, &mut buf).unwrap();
        assert_eq!(buf, data);
    }
}
