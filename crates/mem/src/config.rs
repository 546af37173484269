//! Memory system configuration.

use dorado_base::MUNCH_WORDS;

/// Configuration for a [`MemorySystem`](crate::MemorySystem).
///
/// Defaults model the production Dorado: a 4096-word 2-way cache with
/// 16-word munches, 2-cycle hit latency, an 8-cycle storage cycle, and one
/// 64 K-word storage module (the experiments never touch more; raise
/// `storage_words` for up to the machine's 4 M-word / 8 MB maximum).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemConfig {
    /// Total words of main storage (up to 4 Mwords = 8 MB, §1).
    pub storage_words: u32,
    /// Total cache capacity in words.
    pub cache_words: usize,
    /// Cache associativity (columns per set).
    pub assoc: usize,
    /// Cycles from starting a cache-hit fetch to MEMDATA availability (§3:
    /// "a cache which has a latency of two cycles").
    pub hit_latency: u64,
    /// Cycles from starting a missing fetch to MEMDATA availability.
    /// Dominated by the storage access plus munch transport; "the
    /// difference between the best case (cache hit) and the worst case ...
    /// is more than an order of magnitude" (§5.7).
    pub miss_penalty: u64,
    /// Cycles between storage reference starts (§6.2.1: "one every eight
    /// cycles (this is the cycle time of the storage RAMs)").
    pub storage_cycle: u64,
    /// Words per virtual/real page for the map.
    pub page_words: u32,
}

impl MemConfig {
    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if the cache geometry is not munch-aligned, associativity is
    /// zero, or sizes are zero.
    pub fn validate(&self) {
        assert!(self.storage_words > 0, "storage must be non-empty");
        assert!(
            self.storage_words.is_multiple_of(MUNCH_WORDS as u32),
            "storage size must be munch-aligned"
        );
        assert!(self.assoc > 0, "associativity must be positive");
        assert!(
            self.cache_words.is_multiple_of(self.assoc * MUNCH_WORDS),
            "cache words must divide into assoc × munch"
        );
        let sets = self.cache_words / (self.assoc * MUNCH_WORDS);
        assert!(
            sets.is_power_of_two(),
            "cache set count must be a power of two"
        );
        assert!(self.hit_latency >= 1, "hit latency must be at least 1");
        assert!(
            self.miss_penalty > self.hit_latency,
            "a miss must cost more than a hit"
        );
        assert!(self.storage_cycle >= 1, "storage cycle must be at least 1");
        assert!(
            self.page_words.is_power_of_two() && self.page_words >= MUNCH_WORDS as u32,
            "page size must be a power of two, at least one munch"
        );
    }

    /// Number of cache sets implied by the geometry.
    pub fn cache_sets(&self) -> usize {
        self.cache_words / (self.assoc * MUNCH_WORDS)
    }
}

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig {
            storage_words: 64 * 1024,
            cache_words: 4096,
            assoc: 2,
            hit_latency: 2,
            miss_penalty: 26,
            storage_cycle: 8,
            page_words: 256,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        let c = MemConfig::default();
        c.validate();
        assert_eq!(c.cache_sets(), 4096 / (2 * 16));
    }

    #[test]
    #[should_panic(expected = "associativity")]
    fn zero_assoc_rejected() {
        MemConfig {
            assoc: 0,
            ..MemConfig::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "more than a hit")]
    fn miss_must_exceed_hit() {
        MemConfig {
            miss_penalty: 2,
            ..MemConfig::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn sets_must_be_power_of_two() {
        MemConfig {
            cache_words: 96 * 16,
            assoc: 1,
            ..MemConfig::default()
        }
        .validate();
    }
}
