//! Factory and grown bad-block modelling.
//!
//! Real NAND ships with a small fraction of factory-marked bad blocks and
//! grows more as blocks approach their endurance limit.  Under NoFTL the
//! *DBMS* owns the bad-block manager (paper, Figure 2), so the device model
//! must be able to produce both kinds of failures deterministically.

use sim_utils::rng::SimRng;

use crate::geometry::FlashGeometry;

/// Configuration of bad-block injection.
#[derive(Debug, Clone, Copy)]
pub struct BadBlockPolicy {
    /// Fraction of blocks marked bad at the factory (e.g. `0.002` = 0.2 %).
    pub factory_bad_fraction: f64,
    /// Probability that an erase of a block *beyond its endurance* fails and
    /// turns the block into a grown bad block.
    pub wear_out_failure_prob: f64,
    /// Random seed used for deterministic injection.
    pub seed: u64,
}

impl Default for BadBlockPolicy {
    fn default() -> Self {
        Self {
            factory_bad_fraction: 0.0,
            wear_out_failure_prob: 1.0,
            seed: 0xBAD_B10C,
        }
    }
}

impl BadBlockPolicy {
    /// A policy with no factory bad blocks and hard failure at the endurance
    /// limit (useful defaults for unit tests).
    pub fn none() -> Self {
        Self::default()
    }

    /// A policy resembling production MLC NAND: 0.2 % factory bad blocks and
    /// probabilistic failure past the endurance limit.
    pub fn realistic(seed: u64) -> Self {
        Self {
            factory_bad_fraction: 0.002,
            wear_out_failure_prob: 0.3,
            seed,
        }
    }

    /// Decide which flat block indices are factory-bad for `geometry`.
    pub fn factory_bad_blocks(&self, geometry: &FlashGeometry) -> Vec<u64> {
        if self.factory_bad_fraction <= 0.0 {
            return Vec::new();
        }
        let mut rng = SimRng::new(self.seed);
        let total = geometry.total_blocks();
        (0..total)
            .filter(|_| rng.bool_with_prob(self.factory_bad_fraction))
            .collect()
    }

    /// Decide whether an erase beyond the endurance limit kills the block.
    pub fn wears_out(&self, rng: &mut SimRng, erase_count: u64, endurance: u64) -> bool {
        if erase_count <= endurance {
            return false;
        }
        rng.bool_with_prob(self.wear_out_failure_prob)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_policy_produces_no_factory_bads() {
        let g = FlashGeometry::small();
        let policy = BadBlockPolicy::none();
        assert!(policy.factory_bad_blocks(&g).is_empty());
    }

    #[test]
    fn realistic_policy_fraction_is_respected_roughly() {
        let mut g = FlashGeometry::small();
        g.blocks_per_plane = 4096; // enough blocks for the fraction to show
        let policy = BadBlockPolicy::realistic(7);
        let bads = policy.factory_bad_blocks(&g);
        let frac = bads.len() as f64 / g.total_blocks() as f64;
        assert!(frac > 0.0 && frac < 0.01, "factory bad fraction {frac}");
    }

    #[test]
    fn factory_bads_are_deterministic() {
        let g = FlashGeometry::small();
        let policy = BadBlockPolicy::realistic(42);
        assert_eq!(policy.factory_bad_blocks(&g), policy.factory_bad_blocks(&g));
    }

    #[test]
    fn wear_out_only_past_endurance() {
        let policy = BadBlockPolicy {
            factory_bad_fraction: 0.0,
            wear_out_failure_prob: 1.0,
            seed: 1,
        };
        let mut rng = SimRng::new(1);
        assert!(!policy.wears_out(&mut rng, 10, 100));
        assert!(!policy.wears_out(&mut rng, 100, 100));
        assert!(policy.wears_out(&mut rng, 101, 100));
    }
}
