//! Configurable L1 data cache model (paper §II-C, "Cache" settings tab).
//!
//! The cache tracks tags and replacement metadata; data correctness is always
//! provided by [`crate::MainMemory`] (stores update memory immediately), so the
//! cache only influences *timing* and the statistics reported to the user.
//! This matches what the paper's educational tool communicates: hit/miss
//! behaviour, replacement policy effects and write-policy traffic, without the
//! risk of the cache and memory images diverging.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Cache line replacement strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum ReplacementPolicy {
    /// Least-recently-used.
    #[default]
    Lru,
    /// First-in first-out (replacement order = fill order).
    Fifo,
    /// Uniformly random victim (deterministically seeded so that backward
    /// simulation replays identically).
    Random,
}

/// Store behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum WritePolicy {
    /// Dirty lines are written back on eviction.
    #[default]
    WriteBack,
    /// Every store is propagated to memory immediately.
    WriteThrough,
}

/// Cache geometry and timing configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Enable or disable the L1 cache entirely.
    pub enabled: bool,
    /// Total number of cache lines (must be a multiple of `associativity`).
    pub line_count: usize,
    /// Cache line size in bytes (power of two).
    pub line_size: usize,
    /// Set associativity (1 = direct-mapped).
    pub associativity: usize,
    /// Replacement policy.
    pub replacement: ReplacementPolicy,
    /// Store behaviour.
    pub write_policy: WritePolicy,
    /// Extra cycles to access the cache array (added to every access).
    pub access_delay: u64,
    /// Extra cycles to fill a line from memory on a miss.
    pub line_fill_delay: u64,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            enabled: true,
            line_count: 16,
            line_size: 32,
            associativity: 2,
            replacement: ReplacementPolicy::Lru,
            write_policy: WritePolicy::WriteBack,
            access_delay: 1,
            line_fill_delay: 10,
        }
    }
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    pub fn set_count(&self) -> usize {
        (self.line_count / self.associativity).max(1)
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.line_count * self.line_size
    }

    /// Validate the geometry, returning a human-readable error.
    pub fn validate(&self) -> Result<(), String> {
        if !self.enabled {
            return Ok(());
        }
        if self.line_size == 0 || !self.line_size.is_power_of_two() {
            return Err(format!("cache line size {} must be a power of two", self.line_size));
        }
        if self.associativity == 0 {
            return Err("cache associativity must be at least 1".to_string());
        }
        if self.line_count == 0 || !self.line_count.is_multiple_of(self.associativity) {
            return Err(format!(
                "cache line count {} must be a non-zero multiple of associativity {}",
                self.line_count, self.associativity
            ));
        }
        if !self.set_count().is_power_of_two() {
            return Err(format!("cache set count {} must be a power of two", self.set_count()));
        }
        Ok(())
    }
}

/// One cache line's metadata (the GUI shows these per line).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct CacheLine {
    /// Valid bit.
    pub valid: bool,
    /// Dirty bit (write-back only).
    pub dirty: bool,
    /// Address tag.
    pub tag: u64,
    /// Base address of the cached block (for display).
    pub base_address: u64,
    /// Cycle of last access (LRU bookkeeping).
    pub last_used: u64,
    /// Cycle the line was filled (FIFO bookkeeping).
    pub filled_at: u64,
}

/// Result of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheAccessResult {
    /// True on hit.
    pub hit: bool,
    /// Extra cycles on top of the baseline load/store latency.
    pub extra_latency: u64,
    /// A dirty victim line had to be written back.
    pub writeback: bool,
    /// The victim line's base address, when a line was evicted.
    pub evicted: Option<u64>,
}

/// The L1 data cache.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    sets: Vec<Vec<CacheLine>>,
    rng: StdRng,
    accesses: u64,
    hits: u64,
    writebacks: u64,
}

impl Cache {
    /// Build a cache from a validated configuration.
    pub fn new(config: CacheConfig) -> Result<Self, String> {
        config.validate()?;
        let sets = vec![vec![CacheLine::default(); config.associativity]; config.set_count()];
        Ok(Cache {
            config,
            sets,
            rng: StdRng::seed_from_u64(0x5eed),
            accesses: 0,
            hits: 0,
            writebacks: 0,
        })
    }

    /// The configuration the cache was built from.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Total accesses so far.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.accesses - self.hits
    }

    /// Dirty-line writebacks so far.
    pub fn writebacks(&self) -> u64 {
        self.writebacks
    }

    /// Hit ratio in `[0, 1]`; 0 when no access has happened yet.
    pub fn hit_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }

    /// Snapshot of all lines, set by set (GUI cache view).
    pub fn lines(&self) -> &[Vec<CacheLine>] {
        &self.sets
    }

    fn index_and_tag(&self, address: u64) -> (usize, u64, u64) {
        let line = address / self.config.line_size as u64;
        let set_count = self.config.set_count() as u64;
        let index = (line % set_count) as usize;
        let tag = line / set_count;
        let base = line * self.config.line_size as u64;
        (index, tag, base)
    }

    /// Perform one access at `address` during `cycle`.  `is_store` selects the
    /// write path.  Returns hit/miss and the extra latency to add on top of
    /// the baseline memory latency.
    pub fn access(&mut self, address: u64, is_store: bool, cycle: u64) -> CacheAccessResult {
        self.accesses += 1;
        let (index, tag, base) = self.index_and_tag(address);
        let assoc = self.config.associativity;
        let set = &mut self.sets[index];

        // Hit path.
        if let Some(way) = set.iter().position(|l| l.valid && l.tag == tag) {
            self.hits += 1;
            set[way].last_used = cycle;
            if is_store && self.config.write_policy == WritePolicy::WriteBack {
                set[way].dirty = true;
            }
            return CacheAccessResult {
                hit: true,
                extra_latency: self.config.access_delay,
                writeback: false,
                evicted: None,
            };
        }

        // Miss: pick a victim way.
        let victim = if let Some(invalid) = set.iter().position(|l| !l.valid) {
            invalid
        } else {
            match self.config.replacement {
                ReplacementPolicy::Lru => {
                    let mut best = 0;
                    for i in 1..assoc {
                        if set[i].last_used < set[best].last_used {
                            best = i;
                        }
                    }
                    best
                }
                ReplacementPolicy::Fifo => {
                    let mut best = 0;
                    for i in 1..assoc {
                        if set[i].filled_at < set[best].filled_at {
                            best = i;
                        }
                    }
                    best
                }
                ReplacementPolicy::Random => self.rng.random_range(0..assoc),
            }
        };

        let old = set[victim];
        let writeback =
            old.valid && old.dirty && self.config.write_policy == WritePolicy::WriteBack;
        if writeback {
            self.writebacks += 1;
        }
        let evicted = if old.valid { Some(old.base_address) } else { None };

        set[victim] = CacheLine {
            valid: true,
            dirty: is_store && self.config.write_policy == WritePolicy::WriteBack,
            tag,
            base_address: base,
            last_used: cycle,
            filled_at: cycle,
        };

        let mut extra = self.config.access_delay + self.config.line_fill_delay;
        if writeback {
            // Writing the dirty victim back costs another line transfer.
            extra += self.config.line_fill_delay;
        }
        CacheAccessResult { hit: false, extra_latency: extra, writeback, evicted }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(lines: usize, line_size: usize, assoc: usize) -> CacheConfig {
        CacheConfig {
            enabled: true,
            line_count: lines,
            line_size,
            associativity: assoc,
            replacement: ReplacementPolicy::Lru,
            write_policy: WritePolicy::WriteBack,
            access_delay: 1,
            line_fill_delay: 10,
        }
    }

    #[test]
    fn config_validation() {
        assert!(cfg(16, 32, 2).validate().is_ok());
        assert!(cfg(16, 31, 2).validate().is_err(), "non power-of-two line size");
        assert!(cfg(15, 32, 2).validate().is_err(), "line count not multiple of assoc");
        assert!(cfg(16, 32, 0).validate().is_err(), "zero associativity");
        assert!(cfg(0, 32, 1).validate().is_err(), "zero lines");
        assert!(cfg(12, 32, 2).validate().is_err(), "set count not power of two");
        let mut disabled = cfg(0, 0, 0);
        disabled.enabled = false;
        assert!(disabled.validate().is_ok(), "disabled cache skips validation");
    }

    #[test]
    fn repeated_access_hits() {
        let mut c = Cache::new(cfg(16, 32, 2)).unwrap();
        let first = c.access(0x100, false, 1);
        assert!(!first.hit);
        assert_eq!(first.extra_latency, 11);
        let second = c.access(0x104, false, 2); // same line
        assert!(second.hit);
        assert_eq!(second.extra_latency, 1);
        assert_eq!(c.accesses(), 2);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
        assert!((c.hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[allow(clippy::erasing_op, clippy::identity_op)] // `n * 32` spells out line indices
    fn lru_evicts_least_recently_used() {
        // Direct-mapped would be trivial; use 2-way with 1 set to force choice.
        let mut c = Cache::new(cfg(2, 32, 2)).unwrap();
        c.access(0 * 32, false, 1); // line A
        c.access(1 * 32, false, 2); // line B
        c.access(0 * 32, false, 3); // touch A again
        let r = c.access(2 * 32, false, 4); // must evict B
        assert_eq!(r.evicted, Some(32));
        // A must still hit.
        assert!(c.access(0, false, 5).hit);
    }

    #[test]
    fn fifo_evicts_oldest_fill() {
        let mut config = cfg(2, 32, 2);
        config.replacement = ReplacementPolicy::Fifo;
        let mut c = Cache::new(config).unwrap();
        c.access(0, false, 1); // A filled first
        c.access(32, false, 2); // B
        c.access(0, false, 3); // touching A does not matter for FIFO
        let r = c.access(64, false, 4);
        assert_eq!(r.evicted, Some(0), "FIFO must evict A despite recent use");
    }

    #[test]
    fn random_replacement_is_deterministic_for_one_config() {
        let mut config = cfg(4, 16, 4);
        config.replacement = ReplacementPolicy::Random;
        fn run(config: &CacheConfig) -> Vec<u64> {
            let mut c = Cache::new(config.clone()).unwrap();
            let mut evictions = Vec::new();
            for i in 0..32u64 {
                let r = c.access(i * 16, false, i);
                if let Some(e) = r.evicted {
                    evictions.push(e);
                }
            }
            evictions
        }
        let first = run(&config);
        let second = run(&config);
        assert_eq!(first, second, "two caches built from one config must evict alike");
        assert!(!first.is_empty());
    }

    #[test]
    fn write_back_marks_dirty_and_costs_eviction_traffic() {
        let mut c = Cache::new(cfg(2, 32, 2)).unwrap();
        c.access(0, true, 1); // store -> dirty line A
        c.access(32, false, 2); // B
        let r = c.access(64, false, 3); // evicts A (LRU), dirty
        assert!(r.writeback);
        assert_eq!(r.extra_latency, 1 + 10 + 10);
        assert_eq!(c.writebacks(), 1);
    }

    #[test]
    fn write_through_never_writes_back() {
        let mut config = cfg(2, 32, 2);
        config.write_policy = WritePolicy::WriteThrough;
        let mut c = Cache::new(config).unwrap();
        c.access(0, true, 1);
        c.access(32, true, 2);
        let r = c.access(64, true, 3);
        assert!(!r.writeback);
        assert_eq!(c.writebacks(), 0);
    }

    #[test]
    fn geometry_mapping_distinguishes_sets() {
        let mut c = Cache::new(cfg(4, 16, 1)).unwrap(); // 4 direct-mapped sets of 16 B
        c.access(0, false, 1); // set 0
        c.access(16, false, 2); // set 1
        c.access(32, false, 3); // set 2
        c.access(48, false, 4); // set 3
                                // All four lines should now hit.
        for (i, addr) in [(5u64, 0u64), (6, 16), (7, 32), (8, 48)] {
            assert!(c.access(addr, false, i).hit, "addr {addr}");
        }
        // 64 maps back to set 0 and evicts address 0.
        let r = c.access(64, false, 9);
        assert!(!r.hit);
        assert_eq!(r.evicted, Some(0));
    }

    #[test]
    fn capacity_and_sets() {
        let c = cfg(16, 64, 4);
        assert_eq!(c.capacity_bytes(), 1024);
        assert_eq!(c.set_count(), 4);
    }
}
