//! Deterministic fault injection: seeded failure models for program, erase
//! and read commands.
//!
//! A [`FaultPlan`] gives a [`crate::NandDevice`] the ugly half of real NAND
//! behaviour — the part an FTL (or, in the NoFTL architecture, the DBMS)
//! exists to hide from everyone above it:
//!
//! * **Program failures** — a PAGE PROGRAM reports failure with a probability
//!   that grows with the block's P/E wear.  The attempted page is *consumed*
//!   (real NAND does not let you retry the same page without an erase); the
//!   block should be retired by the management layer, after relocating any
//!   still-valid pages, which remain readable.
//! * **Erase failures** — past a soft endurance knee (a fraction of the
//!   nominal P/E endurance) a BLOCK ERASE may fail, marking the block
//!   grown-bad.  This complements the hard [`crate::FlashError::WornOut`]
//!   model that fires past the nominal endurance.
//! * **Read errors** — every PAGE READ draws against a raw-bit-error rate
//!   that grows with the block's P/E cycles, the retention age of its data
//!   and a per-block read-disturb counter.  A correctable error is absorbed
//!   by the modelled ECC engine (counted, data intact); an uncorrectable one
//!   surfaces as [`crate::FlashError::UncorrectableEcc`] and each retry draws
//!   independently — the read-retry ladder of a real controller.
//! * **Die and channel failures** — a [`KillSpec`] declares that a die (or
//!   every die on a channel) goes *permanently* dead once the device has
//!   executed a given number of array commands.  Unlike the probabilistic
//!   models above this class is deterministic by construction: the kill
//!   fires at a fixed command index, not from an RNG draw, so a test can
//!   place the failure exactly between two known operations.  When it fires,
//!   commands still in flight on the die's queue complete with
//!   [`crate::queue::CommandStatus::DieFailed`] (a real driver learns about
//!   a dropped die from error completions), and every later command
//!   addressed to the die is rejected up front with
//!   [`crate::FlashError::DieFailed`].  Data on the die is gone as far as
//!   the device is concerned — surviving it is the host's job (the
//!   NoFTL-side redundancy policies).
//!
//! The plan carries its **own** seeded [`SimRng`], so enabling it never
//! perturbs the device's existing wear-out draw sequence: with the plan off
//! the device is bit- and cycle-identical to a build without this module.
//!
//! ## The `NOFTL_FAULTS` knob
//!
//! The knob is parsed with every other knob in `storage_engine::backend`
//! (`Knobs::from_vars` there): `on` enables the default plan seeded with
//! [`DEFAULT_FAULT_SEED`], an integer seeds it with that value, and
//! anything else disables injection.  This module never touches the
//! environment, so a device's fault behaviour is a pure function of its
//! [`crate::DeviceConfig`].

use sim_utils::rng::SimRng;
use sim_utils::time::SimInstant;

/// Seed used by `NOFTL_FAULTS=on` when no explicit seed is given.
pub const DEFAULT_FAULT_SEED: u64 = 0xFA17_5EED;

/// Outcome of the read-error model for one page-read attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadFaultOutcome {
    /// No bit errors beyond the ECC noise floor.
    Clean,
    /// Bit errors occurred but the ECC engine corrected them; the host sees
    /// intact data (the event is still counted — scrubbers watch this).
    Corrected,
    /// Bit errors exceeded the ECC correction budget; the read fails.
    Uncorrectable,
}

/// What a [`KillSpec`] takes down: one die or a whole channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillTarget {
    /// One die, addressed by its flat index
    /// (`channel * dies_per_channel + die`, see
    /// [`crate::addr::DieAddr::flat`]).
    Die(u32),
    /// Every die on the given channel (a channel controller failure).
    Channel(u32),
}

/// A deterministic die/channel failure: the target goes permanently dead
/// once the device has executed `at_command` array commands (reads,
/// programs, erases, copybacks — queued or synchronous).  The count is a
/// property of the command *sequence*, not of the virtual clock, so the same
/// workload always dies at the same operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillSpec {
    /// Array-command index at which the failure fires (the command with this
    /// index is the first one affected).
    pub at_command: u64,
    /// The die or channel that fails.
    pub target: KillTarget,
}

/// A seeded, deterministic fault-injection plan.
///
/// All probabilities are per-command draws from the plan's private RNG; the
/// same seed against the same command sequence reproduces the same faults.
/// Fields are public so tests can dial individual failure modes up or down;
/// [`FaultPlan::seeded`] gives the default mix.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed this plan was built from (for diagnostics / reproduction).
    pub seed: u64,
    /// Base probability that a PAGE PROGRAM fails on a fresh block.
    pub program_fail_base: f64,
    /// Wear scaling of program failures: the fail probability is
    /// `program_fail_base * (1 + program_fail_wear_scale * wear_fraction)`
    /// where `wear_fraction = erase_count / endurance`.
    pub program_fail_wear_scale: f64,
    /// Fraction of the nominal endurance past which erase failures become
    /// possible (the soft knee).
    pub erase_fail_knee: f64,
    /// Erase-failure probability at the nominal endurance; ramps linearly
    /// from zero at the knee.
    pub erase_fail_prob: f64,
    /// Base probability that a PAGE READ sees bit errors at all.
    pub read_error_base: f64,
    /// Wear scaling of the raw bit-error rate (per wear fraction).
    pub read_error_wear_scale: f64,
    /// Retention scaling of the raw bit-error rate, per virtual second the
    /// block's data has been sitting since its last program.
    pub read_error_retention_scale: f64,
    /// Read-disturb scaling of the raw bit-error rate, per read of the block
    /// since its last erase.
    pub read_error_disturb_scale: f64,
    /// Of the reads that see bit errors, the fraction the modelled ECC engine
    /// cannot correct.
    pub uncorrectable_fraction: f64,
    /// Deterministic die/channel failures (empty by default — the
    /// probabilistic models alone never take a die down).
    pub kills: Vec<KillSpec>,
    rng: SimRng,
}

impl FaultPlan {
    /// Default fault mix for `seed`: failures are rare on fresh blocks and
    /// climb with wear, retention age and read disturb.
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            program_fail_base: 5e-4,
            program_fail_wear_scale: 8.0,
            erase_fail_knee: 0.8,
            erase_fail_prob: 0.02,
            read_error_base: 1e-4,
            read_error_wear_scale: 4.0,
            read_error_retention_scale: 1e-3,
            read_error_disturb_scale: 1e-5,
            uncorrectable_fraction: 0.2,
            kills: Vec::new(),
            rng: SimRng::new(seed),
        }
    }

    /// Add a deterministic die failure at array-command index `at_command`
    /// (`die_flat` is the die's flat index; builder style, chainable).
    pub fn with_die_kill(mut self, at_command: u64, die_flat: u32) -> Self {
        self.kills.push(KillSpec {
            at_command,
            target: KillTarget::Die(die_flat),
        });
        self
    }

    /// Add a deterministic channel failure (every die on `channel` dies) at
    /// array-command index `at_command`.
    pub fn with_channel_kill(mut self, at_command: u64, channel: u32) -> Self {
        self.kills.push(KillSpec {
            at_command,
            target: KillTarget::Channel(channel),
        });
        self
    }

    fn wear_fraction(erase_count: u64, endurance: u64) -> f64 {
        if endurance == 0 {
            return 1.0;
        }
        (erase_count as f64 / endurance as f64).min(1.0)
    }

    /// Draw the program-failure model for a PAGE PROGRAM into a block with
    /// `erase_count` P/E cycles out of `endurance`.
    pub fn program_fails(&mut self, erase_count: u64, endurance: u64) -> bool {
        let wear = Self::wear_fraction(erase_count, endurance);
        let p = (self.program_fail_base * (1.0 + self.program_fail_wear_scale * wear)).min(1.0);
        self.rng.bool_with_prob(p)
    }

    /// Draw the erase-failure model for a BLOCK ERASE that would be the
    /// block's `erase_count`-th cycle.  Below the soft knee no draw is made
    /// (erase failures are a wear phenomenon).
    pub fn erase_fails(&mut self, erase_count: u64, endurance: u64) -> bool {
        let wear = Self::wear_fraction(erase_count, endurance);
        if wear < self.erase_fail_knee {
            return false;
        }
        let span = (1.0 - self.erase_fail_knee).max(f64::EPSILON);
        let ramp = ((wear - self.erase_fail_knee) / span).clamp(0.0, 1.0);
        self.rng.bool_with_prob((self.erase_fail_prob * ramp).min(1.0))
    }

    /// Draw the read-error model for one PAGE READ attempt.
    ///
    /// `retention_ns` is the virtual time since the block was last
    /// programmed; `read_disturb` is the number of reads the block has served
    /// since its last erase.  Each retry of a failed read draws again — the
    /// read-retry ladder of a real ECC pipeline.
    pub fn read_outcome(
        &mut self,
        erase_count: u64,
        endurance: u64,
        retention_ns: SimInstant,
        read_disturb: u64,
    ) -> ReadFaultOutcome {
        let wear = Self::wear_fraction(erase_count, endurance);
        let retention_secs = retention_ns as f64 * 1e-9;
        let stress = 1.0
            + self.read_error_wear_scale * wear
            + self.read_error_retention_scale * retention_secs
            + self.read_error_disturb_scale * read_disturb as f64;
        let p = (self.read_error_base * stress).min(1.0);
        if !self.rng.bool_with_prob(p) {
            ReadFaultOutcome::Clean
        } else if self.rng.bool_with_prob(self.uncorrectable_fraction) {
            ReadFaultOutcome::Uncorrectable
        } else {
            ReadFaultOutcome::Corrected
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_reproduces_the_same_draw_sequence() {
        let mut a = FaultPlan::seeded(42);
        let mut b = FaultPlan::seeded(42);
        for k in 0..2000u64 {
            assert_eq!(
                a.program_fails(k % 150, 100),
                b.program_fails(k % 150, 100)
            );
            assert_eq!(a.erase_fails(90 + k % 30, 100), b.erase_fails(90 + k % 30, 100));
            assert_eq!(
                a.read_outcome(k % 120, 100, k * 1_000_000, k % 5000),
                b.read_outcome(k % 120, 100, k * 1_000_000, k % 5000)
            );
        }
    }

    #[test]
    fn wear_raises_every_failure_mode() {
        // Statistically: a heavily worn block must fail more often than a
        // fresh one over many draws with the same parameters.
        let mut plan = FaultPlan::seeded(7);
        plan.program_fail_base = 0.01;
        let fresh = (0..20_000)
            .filter(|_| plan.program_fails(0, 100))
            .count();
        let worn = (0..20_000)
            .filter(|_| plan.program_fails(100, 100))
            .count();
        assert!(worn > fresh * 2, "wear must raise program failures: {fresh} vs {worn}");
    }

    #[test]
    fn erase_failures_only_past_the_knee() {
        let mut plan = FaultPlan::seeded(9);
        plan.erase_fail_prob = 1.0;
        for cycles in 0..79 {
            assert!(!plan.erase_fails(cycles, 100), "below the knee no erase fails");
        }
        let failures = (0..1000).filter(|_| plan.erase_fails(100, 100)).count();
        assert!(failures > 800, "at the endurance the full ramp applies");
    }

    #[test]
    fn read_disturb_and_retention_raise_error_rates() {
        let mut plan = FaultPlan::seeded(11);
        plan.read_error_base = 1e-3;
        plan.read_error_disturb_scale = 1e-2;
        let quiet = (0..20_000)
            .filter(|_| plan.read_outcome(0, 100, 0, 0) != ReadFaultOutcome::Clean)
            .count();
        let disturbed = (0..20_000)
            .filter(|_| plan.read_outcome(0, 100, 0, 10_000) != ReadFaultOutcome::Clean)
            .count();
        assert!(
            disturbed > quiet * 5,
            "read disturb must raise the error rate: {quiet} vs {disturbed}"
        );
    }

    #[test]
    fn uncorrectable_fraction_splits_outcomes() {
        let mut plan = FaultPlan::seeded(13);
        plan.read_error_base = 1.0; // every read sees bit errors
        plan.read_error_wear_scale = 0.0;
        plan.uncorrectable_fraction = 0.5;
        let mut corrected = 0;
        let mut uncorrectable = 0;
        for _ in 0..10_000 {
            match plan.read_outcome(0, 100, 0, 0) {
                ReadFaultOutcome::Corrected => corrected += 1,
                ReadFaultOutcome::Uncorrectable => uncorrectable += 1,
                ReadFaultOutcome::Clean => panic!("base rate 1.0 cannot be clean"),
            }
        }
        assert!(corrected > 4000 && uncorrectable > 4000);
    }
}
