//! Memory subsystem: main memory + optional L1 cache behind a transactional
//! interface (paper §III-A).

use crate::cache::{Cache, CacheConfig};
use crate::main_memory::{MainMemory, MemError};
use crate::transaction::{MemoryTransaction, TransactionKind};
use serde::{Deserialize, Serialize};

/// Baseline access latencies (the "Memory" settings tab).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryTimings {
    /// Cycles to complete a load that goes to main memory.
    pub load_latency: u64,
    /// Cycles to complete a store that goes to main memory.
    pub store_latency: u64,
}

impl Default for MemoryTimings {
    fn default() -> Self {
        MemoryTimings { load_latency: 4, store_latency: 4 }
    }
}

/// Aggregated statistics reported in the Runtime Statistics window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct MemStats {
    /// Total load transactions.
    pub loads: u64,
    /// Total store transactions.
    pub stores: u64,
    /// Bytes read by loads.
    pub bytes_read: u64,
    /// Bytes written by stores.
    pub bytes_written: u64,
    /// Cache accesses (loads + stores when the cache is enabled).
    pub cache_accesses: u64,
    /// Cache hits.
    pub cache_hits: u64,
    /// Dirty-line writebacks.
    pub cache_writebacks: u64,
    /// Sum of access latencies (for average-latency reporting).
    pub total_latency: u64,
}

impl MemStats {
    /// Cache hit ratio in `[0, 1]`.
    pub fn hit_ratio(&self) -> f64 {
        if self.cache_accesses == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.cache_accesses as f64
        }
    }

    /// Cache miss ratio in `[0, 1]`.
    pub fn miss_ratio(&self) -> f64 {
        if self.cache_accesses == 0 {
            0.0
        } else {
            1.0 - self.hit_ratio()
        }
    }

    /// Average access latency in cycles.
    pub fn average_latency(&self) -> f64 {
        let n = self.loads + self.stores;
        if n == 0 {
            0.0
        } else {
            self.total_latency as f64 / n as f64
        }
    }
}

/// Main memory plus optional L1 cache, accessed through transactions.
#[derive(Debug, Clone)]
pub struct MemorySubsystem {
    memory: MainMemory,
    cache: Option<Cache>,
    timings: MemoryTimings,
    stats: MemStats,
    next_id: u64,
}

impl MemorySubsystem {
    /// Build a subsystem.  A disabled [`CacheConfig`] results in no cache.
    pub fn new(
        capacity: usize,
        cache_config: CacheConfig,
        timings: MemoryTimings,
    ) -> Result<Self, String> {
        let cache = if cache_config.enabled { Some(Cache::new(cache_config)?) } else { None };
        Ok(MemorySubsystem {
            memory: MainMemory::new(capacity),
            cache,
            timings,
            stats: MemStats::default(),
            next_id: 1,
        })
    }

    /// Subsystem with default geometry (64 KiB, default cache, default timings).
    pub fn with_defaults() -> Self {
        Self::new(MainMemory::DEFAULT_CAPACITY, CacheConfig::default(), MemoryTimings::default())
            .expect("default cache configuration is valid")
    }

    /// Borrow main memory (program loading, memory editor, dumps).
    pub fn memory(&self) -> &MainMemory {
        &self.memory
    }

    /// Mutably borrow main memory.
    pub fn memory_mut(&mut self) -> &mut MainMemory {
        &mut self.memory
    }

    /// Borrow the cache, if enabled.
    pub fn cache(&self) -> Option<&Cache> {
        self.cache.as_ref()
    }

    /// Configured baseline timings.
    pub fn timings(&self) -> MemoryTimings {
        self.timings
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// Register and immediately service a transaction: performs the data
    /// access against main memory, consults the cache for timing, fills in
    /// the transaction's id, completion cycle, hit flag and (for loads) the
    /// loaded value.
    pub fn register(&mut self, mut tx: MemoryTransaction) -> Result<MemoryTransaction, MemError> {
        tx.id = self.next_id;
        self.next_id += 1;

        // Data path: main memory is always authoritative.
        match tx.kind {
            TransactionKind::Load => {
                tx.value = self.memory.read(tx.address, tx.size)?;
                self.stats.loads += 1;
                self.stats.bytes_read += tx.size as u64;
            }
            TransactionKind::Store => {
                self.memory.write(tx.address, tx.size, tx.value)?;
                self.stats.stores += 1;
                self.stats.bytes_written += tx.size as u64;
            }
        }

        // Timing path.
        let base_latency = match tx.kind {
            TransactionKind::Load => self.timings.load_latency,
            TransactionKind::Store => self.timings.store_latency,
        };
        let extra = if let Some(cache) = self.cache.as_mut() {
            let r = cache.access(tx.address, tx.is_store(), tx.issue_cycle);
            tx.cache_hit = r.hit;
            tx.caused_writeback = r.writeback;
            self.stats.cache_accesses += 1;
            if r.hit {
                self.stats.cache_hits += 1;
                // A hit is served from the cache: only the cache access delay
                // applies, not the full memory latency.
                tx.completion_cycle = tx.issue_cycle + r.extra_latency.max(1);
                self.stats.total_latency += tx.latency();
                if r.writeback {
                    self.stats.cache_writebacks += 1;
                }
                return Ok(tx);
            }
            if r.writeback {
                self.stats.cache_writebacks += 1;
            }
            r.extra_latency
        } else {
            0
        };

        tx.completion_cycle = tx.issue_cycle + base_latency.max(1) + extra;
        self.stats.total_latency += tx.latency();
        Ok(tx)
    }

    /// Convenience wrapper: load `size` bytes at `address` issued at `cycle`.
    pub fn load(
        &mut self,
        address: u64,
        size: usize,
        cycle: u64,
    ) -> Result<MemoryTransaction, MemError> {
        self.register(MemoryTransaction::load(address, size, cycle))
    }

    /// Convenience wrapper: store `value` of `size` bytes at `address`.
    pub fn store(
        &mut self,
        address: u64,
        size: usize,
        value: u64,
        cycle: u64,
    ) -> Result<MemoryTransaction, MemError> {
        self.register(MemoryTransaction::store(address, size, value, cycle))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{ReplacementPolicy, WritePolicy};

    fn subsystem(cache_enabled: bool) -> MemorySubsystem {
        let cache = CacheConfig {
            enabled: cache_enabled,
            line_count: 4,
            line_size: 16,
            associativity: 2,
            replacement: ReplacementPolicy::Lru,
            write_policy: WritePolicy::WriteBack,
            access_delay: 1,
            line_fill_delay: 10,
        };
        MemorySubsystem::new(1024, cache, MemoryTimings { load_latency: 4, store_latency: 6 })
            .unwrap()
    }

    #[test]
    fn store_then_load_round_trips_data() {
        let mut m = subsystem(true);
        m.store(0x40, 4, 0xdead_beef, 1).unwrap();
        let tx = m.load(0x40, 4, 2).unwrap();
        assert_eq!(tx.value, 0xdead_beef);
        assert_eq!(m.stats().loads, 1);
        assert_eq!(m.stats().stores, 1);
        assert_eq!(m.stats().bytes_written, 4);
        assert_eq!(m.stats().bytes_read, 4);
    }

    #[test]
    fn miss_then_hit_latency_difference() {
        let mut m = subsystem(true);
        let miss = m.load(0x100, 4, 10).unwrap();
        assert!(!miss.cache_hit);
        assert_eq!(miss.completion_cycle, 10 + 4 + 1 + 10);
        let hit = m.load(0x104, 4, 30).unwrap();
        assert!(hit.cache_hit);
        assert_eq!(hit.completion_cycle, 31);
        assert!(hit.latency() < miss.latency());
    }

    #[test]
    fn no_cache_uses_plain_memory_latency() {
        let mut m = subsystem(false);
        assert!(m.cache().is_none());
        let tx = m.load(0x10, 4, 5).unwrap();
        assert_eq!(tx.completion_cycle, 9);
        assert!(!tx.cache_hit);
        let tx = m.store(0x10, 4, 1, 5).unwrap();
        assert_eq!(tx.completion_cycle, 11);
        assert_eq!(m.stats().cache_accesses, 0);
    }

    #[test]
    fn errors_propagate_for_bad_addresses() {
        let mut m = subsystem(true);
        assert!(m.load(4096, 4, 0).is_err());
        assert!(m.store(1022, 4, 0, 0).is_err());
        assert!(m.load(2, 4, 0).is_err(), "misaligned");
    }

    #[test]
    fn stats_hit_ratio_and_latency() {
        let mut m = subsystem(true);
        m.load(0, 4, 0).unwrap(); // miss
        m.load(4, 4, 1).unwrap(); // hit
        m.load(8, 4, 2).unwrap(); // hit
        m.load(12, 4, 3).unwrap(); // hit
        assert_eq!(m.stats().cache_accesses, 4);
        assert_eq!(m.stats().cache_hits, 3);
        assert!((m.stats().hit_ratio() - 0.75).abs() < 1e-12);
        assert!((m.stats().miss_ratio() - 0.25).abs() < 1e-12);
        assert!(m.stats().average_latency() > 1.0);
    }

    #[test]
    fn transaction_ids_are_unique_and_monotonic() {
        let mut m = subsystem(true);
        let a = m.load(0, 4, 0).unwrap();
        let b = m.load(4, 4, 0).unwrap();
        let c = m.store(8, 4, 0, 0).unwrap();
        assert!(a.id < b.id && b.id < c.id);
    }

    #[test]
    fn write_back_traffic_counted() {
        let mut m = subsystem(true);
        // Fill both ways of set 0 with dirty lines, then force an eviction.
        // Set selection: line = addr/16, set = line % 2. Set 0 lines: 0, 32, 64...
        m.store(0, 4, 1, 0).unwrap();
        m.store(32, 4, 2, 1).unwrap();
        m.store(64, 4, 3, 2).unwrap(); // evicts dirty line 0
        assert_eq!(m.stats().cache_writebacks, 1);
    }
}
