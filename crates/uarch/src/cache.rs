//! Set-associative data-cache simulation.
//!
//! The paper simulates caches during profiling to classify each memory access
//! into a hit/miss-rate class (Table I), and sweeps data-cache sizes from
//! 1 KB to 32 KB in its evaluation (Figures 7, 8 and 10).  [`Cache`] is a
//! single configuration; [`CacheSweep`] runs a whole family of configurations
//! over one address stream in a single pass, like the single-pass
//! multi-configuration simulation the paper refers to (Hill & Smith).

use std::fmt;

/// A cache configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Line size in bytes (the paper assumes 32-byte lines).
    pub line_bytes: u64,
    /// Associativity (ways per set).
    pub associativity: u64,
}

impl CacheConfig {
    /// A configuration with the paper's 32-byte lines and 4-way associativity.
    pub fn kb(size_kb: u64) -> Self {
        CacheConfig {
            size_bytes: size_kb * 1024,
            line_bytes: 32,
            associativity: 4,
        }
    }

    /// Number of sets: the capacity over the bytes of one set, so the
    /// simulated cache holds exactly the configured number of lines (the
    /// set count need not be a power of two).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (zero line size or
    /// associativity, or capacity smaller than one way of lines).
    pub fn sets(&self) -> u64 {
        assert!(
            self.line_bytes > 0 && self.associativity > 0,
            "degenerate cache configuration"
        );
        let sets = self.size_bytes / (self.line_bytes * self.associativity);
        assert!(sets > 0, "cache smaller than one way");
        sets
    }
}

impl fmt::Display for CacheConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}KB/{}B-line/{}-way",
            self.size_bytes / 1024,
            self.line_bytes,
            self.associativity
        )
    }
}

/// Hit/miss statistics of a cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of accesses.
    pub accesses: u64,
    /// Number of hits.
    pub hits: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; 1.0 for an untouched cache.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            1.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }

    /// Miss rate in `[0, 1]`.
    pub fn miss_rate(&self) -> f64 {
        1.0 - self.hit_rate()
    }
}

/// A set-associative LRU cache.
///
/// The tag store is one flat array of `sets × ways` line numbers.  Each
/// set's slice keeps its resident lines in recency order, most recently
/// used first, and `fill[set]` counts how many of them are valid.  An access
/// probes the MRU way first: a hit there changes nothing but the stats.  A
/// hit further down, or a miss, rotates the set's slice by one so the line
/// lands in way 0; a miss in a full set drops the last (LRU) way.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// Line numbers, `ways` per set, most recently used first.  The whole
    /// line number is the tag, so it needs no set bits stripped.
    tags: Vec<u64>,
    /// Valid ways per set; way `w` of a set is valid iff `w < fill[set]`.
    fill: Vec<u32>,
    ways: usize,
    stats: CacheStats,
    /// `log2(line_bytes)` when the line size is a power of two (it always is
    /// for the paper's configurations); avoids a 64-bit division per access.
    line_shift: Option<u32>,
    sets: u64,
    /// `sets - 1` when the set count is a power of two; otherwise lines are
    /// mapped to sets by `line % sets`.
    set_mask: Option<u64>,
}

impl Cache {
    /// Creates an empty cache.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        let ways = config.associativity as usize;
        let line_shift = config
            .line_bytes
            .is_power_of_two()
            .then(|| config.line_bytes.trailing_zeros());
        Cache {
            config,
            tags: vec![0; sets as usize * ways],
            fill: vec![0; sets as usize],
            ways,
            stats: CacheStats::default(),
            line_shift,
            sets,
            set_mask: sets.is_power_of_two().then_some(sets - 1),
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Accesses `addr` (byte address); returns `true` on a hit.  Writes are
    /// modeled as write-allocate, so reads and writes behave identically for
    /// hit-rate purposes.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        self.stats.accesses += 1;
        let line = match self.line_shift {
            Some(shift) => addr >> shift,
            None => addr / self.config.line_bytes,
        };
        let set = match self.set_mask {
            Some(mask) => line & mask,
            None => line % self.sets,
        } as usize;
        let base = set * self.ways;
        let fill = self.fill[set] as usize;
        let ways = &mut self.tags[base..base + self.ways];
        if fill > 0 && ways[0] == line {
            self.stats.hits += 1;
            return true;
        }
        let found = ways[..fill].iter().position(|&t| t == line);
        // The way whose slot the line takes: its own on a hit, else the
        // first empty way, else the LRU way of a full set.
        let end = found.unwrap_or(fill.min(self.ways - 1));
        if found.is_none() && fill < self.ways {
            self.fill[set] += 1;
        }
        ways.copy_within(0..end, 1);
        ways[0] = line;
        let hit = found.is_some();
        self.stats.hits += u64::from(hit);
        hit
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Clears contents and statistics.
    pub fn reset(&mut self) {
        self.fill.fill(0);
        self.stats = CacheStats::default();
    }
}

/// Runs several cache configurations over the same address stream.
#[derive(Debug, Clone)]
pub struct CacheSweep {
    caches: Vec<Cache>,
}

impl CacheSweep {
    /// Creates a sweep over the given configurations.
    pub fn new(configs: impl IntoIterator<Item = CacheConfig>) -> Self {
        CacheSweep {
            caches: configs.into_iter().map(Cache::new).collect(),
        }
    }

    /// The 1 KB – 32 KB sweep used in Figures 7 and 8 of the paper.
    pub fn paper_sweep() -> Self {
        CacheSweep::new([1, 2, 4, 8, 16, 32].map(CacheConfig::kb))
    }

    /// Feeds one access to every cache in the sweep.
    pub fn access(&mut self, addr: u64) {
        for c in &mut self.caches {
            c.access(addr);
        }
    }

    /// `(config, stats)` for each simulated cache.
    pub fn results(&self) -> Vec<(CacheConfig, CacheStats)> {
        self.caches
            .iter()
            .map(|c| (c.config(), c.stats()))
            .collect()
    }
}

/// An [`Observer`](crate::exec::Observer) that feeds every data access of an
/// execution into a cache sweep.
#[derive(Debug, Clone)]
pub struct CacheObserver {
    /// The sweep being fed.
    pub sweep: CacheSweep,
}

impl CacheObserver {
    /// Creates an observer over the given configurations.
    pub fn new(configs: impl IntoIterator<Item = CacheConfig>) -> Self {
        CacheObserver {
            sweep: CacheSweep::new(configs),
        }
    }

    /// Creates the 1–32 KB paper sweep observer.
    pub fn paper_sweep() -> Self {
        CacheObserver {
            sweep: CacheSweep::paper_sweep(),
        }
    }
}

impl crate::exec::Observer for CacheObserver {
    fn on_inst(&mut self, event: &crate::exec::InstEvent) {
        if let Some(a) = event.mem_read {
            self.sweep.access(a);
        }
        if let Some(a) = event.mem_write {
            self.sweep.access(a);
        }
    }
}

bsg_ir::canon_codec!(struct CacheConfig { size_bytes, line_bytes, associativity });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_set_math() {
        let c = CacheConfig::kb(8);
        assert_eq!(c.size_bytes, 8192);
        assert_eq!(c.sets(), 64);
        assert!(!c.to_string().is_empty());
    }

    #[test]
    fn repeated_access_hits() {
        let mut c = Cache::new(CacheConfig::kb(1));
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x101f), "same 32-byte line");
        assert!(!c.access(0x1020), "next line misses");
        assert_eq!(c.stats().accesses, 4);
        assert_eq!(c.stats().hits, 2);
        assert!((c.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_eviction_order() {
        // Direct-mapped-ish scenario: 1KB, 32B lines, 2-way => 16 sets.
        let cfg = CacheConfig {
            size_bytes: 1024,
            line_bytes: 32,
            associativity: 2,
        };
        let mut c = Cache::new(cfg);
        let set_stride = 32 * 16; // same set, different tags
        let a = 0;
        let b = set_stride;
        let d = 2 * set_stride;
        assert!(!c.access(a));
        assert!(!c.access(b));
        assert!(c.access(a), "a is still resident");
        assert!(!c.access(d), "d evicts b (LRU)");
        assert!(c.access(a), "a was more recently used than b");
        assert!(!c.access(b), "b was evicted");
    }

    #[test]
    fn zero_stride_always_hits_after_warmup() {
        let mut c = Cache::new(CacheConfig::kb(4));
        c.access(0x4000);
        for _ in 0..100 {
            assert!(c.access(0x4000));
        }
        assert_eq!(c.stats().hits, 100);
    }

    #[test]
    fn large_stride_always_misses_in_small_cache() {
        // Stride of 4KB in a 1KB cache: every access maps far apart and the
        // working set vastly exceeds capacity.
        let mut c = Cache::new(CacheConfig::kb(1));
        let mut misses = 0;
        for i in 0..256u64 {
            if !c.access(i * 4096) {
                misses += 1;
            }
        }
        assert_eq!(misses, 256);
    }

    #[test]
    fn hit_rate_monotonically_improves_with_size_for_lru_sweep() {
        // LRU inclusion property: a bigger cache with the same line size and
        // full associativity never has fewer hits.
        let configs = [1u64, 2, 4, 8, 16, 32].map(|kb| CacheConfig {
            size_bytes: kb * 1024,
            line_bytes: 32,
            associativity: kb * 1024 / 32, // fully associative
        });
        let mut sweep = CacheSweep::new(configs);
        // A pseudo-random-ish but deterministic address stream with locality.
        let mut addr = 0u64;
        for i in 0..20_000u64 {
            addr = addr.wrapping_mul(6364136223846793005).wrapping_add(i) % (64 * 1024);
            sweep.access(addr);
            sweep.access((i * 8) % 4096);
        }
        let results = sweep.results();
        for w in results.windows(2) {
            assert!(
                w[1].1.hit_rate() >= w[0].1.hit_rate() - 1e-12,
                "{} -> {}",
                w[0].0,
                w[1].0
            );
        }
    }

    #[test]
    fn reset_clears_state() {
        let mut c = Cache::new(CacheConfig::kb(1));
        c.access(0);
        c.access(0);
        c.reset();
        assert_eq!(c.stats().accesses, 0);
        assert!(!c.access(0), "contents were cleared");
    }

    #[test]
    fn empty_cache_reports_full_hit_rate() {
        let s = CacheStats::default();
        assert_eq!(s.hit_rate(), 1.0);
        assert_eq!(s.miss_rate(), 0.0);
    }

    #[test]
    fn a_24kb_4way_cache_holds_exactly_768_lines() {
        let cfg = CacheConfig {
            size_bytes: 24 * 1024,
            line_bytes: 32,
            associativity: 4,
        };
        assert_eq!(cfg.sets(), 192, "the set count is not rounded up");
        let mut c = Cache::new(cfg);
        let lines = |n: u64| (0..n).map(|l| l * 32);
        lines(768).for_each(|a| {
            c.access(a);
        });
        assert!(lines(768).all(|a| c.access(a)), "768 lines fit");
        // A 32 KB cache (the old rounded-up set count) would hold 1024.
        c.reset();
        lines(1024).for_each(|a| {
            c.access(a);
        });
        assert!(!lines(1024).all(|a| c.access(a)), "1024 lines do not fit");
    }

    /// The per-set `Vec` LRU the flat tag store replaced: each set holds up
    /// to `associativity` tags, most recently used last.
    struct ReferenceLru {
        associativity: usize,
        line_bytes: u64,
        sets: Vec<Vec<u64>>,
        stats: CacheStats,
    }

    impl ReferenceLru {
        fn new(config: CacheConfig) -> Self {
            ReferenceLru {
                associativity: config.associativity as usize,
                line_bytes: config.line_bytes,
                sets: vec![Vec::new(); config.sets() as usize],
                stats: CacheStats::default(),
            }
        }

        fn access(&mut self, addr: u64) -> bool {
            self.stats.accesses += 1;
            let line = addr / self.line_bytes;
            let nsets = self.sets.len() as u64;
            let tag = line / nsets;
            let ways = &mut self.sets[(line % nsets) as usize];
            if let Some(pos) = ways.iter().position(|&t| t == tag) {
                ways.remove(pos);
                ways.push(tag);
                self.stats.hits += 1;
                true
            } else {
                if ways.len() >= self.associativity {
                    ways.remove(0);
                }
                ways.push(tag);
                false
            }
        }

        fn reset(&mut self) {
            self.sets.iter_mut().for_each(Vec::clear);
            self.stats = CacheStats::default();
        }
    }

    /// A seeded address stream mixing a hot region, strided walks and
    /// random far accesses, so sets see hits at every recency depth.
    fn address_stream(seed: u64, len: usize) -> Vec<u64> {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut walk = 0u64;
        (0..len)
            .map(|_| match rng.gen_range(0u32..4) {
                0 => rng.gen_range(0u64..2048),
                1 => {
                    walk = (walk + 24) % (96 * 1024);
                    0x10000 + walk
                }
                2 => rng.gen_range(0u64..64 * 1024),
                _ => rng.gen_range(0u64..1 << 24),
            })
            .collect()
    }

    fn assert_matches_reference(config: CacheConfig, seed: u64) {
        let stream = address_stream(seed, 6000);
        let mut flat = Cache::new(config);
        let mut reference = ReferenceLru::new(config);
        for (n, &addr) in stream.iter().enumerate() {
            if n == 3500 {
                flat.reset();
                reference.reset();
            }
            assert_eq!(
                flat.access(addr),
                reference.access(addr),
                "{config} access {n} to {addr:#x}"
            );
        }
        assert_eq!(flat.stats(), reference.stats);
    }

    #[test]
    fn flat_cache_matches_the_reference_lru() {
        for (seed, associativity) in [1u64, 2, 4, 8, 16].into_iter().enumerate() {
            for (size_bytes, line_bytes) in [
                (1024, 32),
                (4096, 64),
                // 24 sets of 32-byte lines: a set count that is not a power of two.
                (768 * associativity, 32),
                // 48-byte lines take the division path for the line number.
                (48 * 16 * associativity, 48),
                (3 * 48 * associativity, 48),
            ] {
                let config = CacheConfig {
                    size_bytes,
                    line_bytes,
                    associativity,
                };
                assert_matches_reference(config, seed as u64);
            }
        }
    }

    #[test]
    fn more_ways_never_add_misses_at_a_fixed_set_count() {
        // Mattson stack inclusion per set: with the set mapping fixed, an
        // LRU set of w + 1 ways always holds what a set of w ways holds.
        for sets in [1u64, 16, 24] {
            for seed in 0..4 {
                let stream = address_stream(100 + seed, 5000);
                let misses: Vec<u64> = [1u64, 2, 4, 8, 16]
                    .iter()
                    .map(|&ways| {
                        let mut c = Cache::new(CacheConfig {
                            size_bytes: sets * ways * 32,
                            line_bytes: 32,
                            associativity: ways,
                        });
                        stream.iter().for_each(|&a| {
                            c.access(a);
                        });
                        c.stats().accesses - c.stats().hits
                    })
                    .collect();
                assert!(
                    misses.windows(2).all(|w| w[1] <= w[0]),
                    "{sets} sets, seed {seed}: misses by ways {misses:?}"
                );
            }
        }
    }
}
