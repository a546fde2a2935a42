/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Line size in bytes (power of two).
    pub block_bytes: u64,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    #[must_use]
    pub fn num_sets(&self) -> usize {
        (self.size_bytes / (self.block_bytes * self.ways as u64)).max(1) as usize
    }
}

/// Hit/miss outcome of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// Line was present.
    Hit,
    /// Line was absent and has been filled.
    Miss,
}

/// Access counters for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Misses among them.
    pub misses: u64,
}

impl CacheStats {
    /// Miss ratio in [0, 1]; zero when no accesses were made.
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// Resident tags of a set-associative store under true LRU.
///
/// Set `s` keeps its tags most-recently-used first in
/// `tags[s * ways..][..fill[s]]`: one flat array for every set, so a cold
/// store is two allocations and an access reorders its set in place.
#[derive(Debug, Clone)]
struct LruSets {
    ways: usize,
    tags: Vec<u64>,
    fill: Vec<usize>,
}

impl LruSets {
    fn new(sets: usize, ways: usize) -> Self {
        LruSets {
            ways,
            tags: vec![0; sets * ways],
            fill: vec![0; sets],
        }
    }

    /// Makes `tag` the most recent of `set`, filling it (and evicting the
    /// least recent tag of a full set) when absent. A store of zero ways
    /// never holds a tag.
    fn touch(&mut self, set: usize, tag: u64) -> AccessOutcome {
        let n = self.fill[set];
        let ways = &mut self.tags[set * self.ways..][..self.ways];
        // The way `tag` ends up replacing after the shift below: its own
        // way on a hit, else the first free way or the least recent one.
        let (outcome, last) = match ways[..n].iter().position(|&t| t == tag) {
            Some(pos) => (AccessOutcome::Hit, pos),
            None if n < self.ways => {
                self.fill[set] = n + 1;
                (AccessOutcome::Miss, n)
            }
            None if n == 0 => return AccessOutcome::Miss,
            None => (AccessOutcome::Miss, n - 1),
        };
        for i in (0..last).rev() {
            ways[i + 1] = ways[i];
        }
        ways[0] = tag;
        outcome
    }

    fn contains(&self, set: usize, tag: u64) -> bool {
        self.tags[set * self.ways..][..self.fill[set]].contains(&tag)
    }

    fn clear(&mut self) {
        self.fill.fill(0);
    }
}

/// A set-associative cache with true-LRU replacement.
///
/// Tags only — the simulator needs hit/miss behaviour, not data. Sets are
/// selected by the usual index bits; each set keeps its ways ordered
/// most-recently-used first.
#[derive(Debug, Clone)]
pub struct CacheSim {
    config: CacheConfig,
    sets: LruSets,
    stats: CacheStats,
    block_shift: u32,
    index_mask: u64,
    index_bits: u32,
}

impl CacheSim {
    /// Builds an empty (cold) cache.
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        let num_sets = config.num_sets();
        let index_mask = num_sets as u64 - 1;
        CacheSim {
            config,
            sets: LruSets::new(num_sets, config.ways),
            stats: CacheStats::default(),
            block_shift: config.block_bytes.trailing_zeros(),
            index_mask,
            index_bits: index_mask.count_ones(),
        }
    }

    /// The geometry this cache was built with.
    #[must_use]
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// The set and tag of the line holding `addr`.
    fn locate(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.block_shift;
        ((line & self.index_mask) as usize, line >> self.index_bits)
    }

    /// Accesses the byte address, updating LRU state and filling on miss.
    pub fn access(&mut self, addr: u64) -> AccessOutcome {
        self.stats.accesses += 1;
        let (set, tag) = self.locate(addr);
        let outcome = self.sets.touch(set, tag);
        if outcome == AccessOutcome::Miss {
            self.stats.misses += 1;
        }
        outcome
    }

    /// Probes without updating state or statistics.
    #[must_use]
    pub fn probe(&self, addr: u64) -> bool {
        let (set, tag) = self.locate(addr);
        self.sets.contains(set, tag)
    }

    /// Running statistics.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Empties the cache and zeroes statistics.
    pub fn reset(&mut self) {
        self.sets.clear();
        self.stats = CacheStats::default();
    }
}

/// A fully-associative TLB with LRU replacement, reused for both I and D
/// sides: one set of `entries` ways, searched from its most recent page.
#[derive(Debug, Clone)]
pub struct TlbSim {
    page_shift: u32,
    pages: LruSets,
    stats: CacheStats,
}

impl TlbSim {
    /// Builds an empty TLB for `entries` pages of `page_bytes` each.
    #[must_use]
    pub fn new(entries: usize, page_bytes: u64) -> Self {
        TlbSim {
            page_shift: page_bytes.trailing_zeros(),
            pages: LruSets::new(1, entries),
            stats: CacheStats::default(),
        }
    }

    /// Translates `addr`, returning whether the page was resident.
    pub fn access(&mut self, addr: u64) -> AccessOutcome {
        self.stats.accesses += 1;
        let outcome = self.pages.touch(0, addr >> self.page_shift);
        if outcome == AccessOutcome::Miss {
            self.stats.misses += 1;
        }
        outcome
    }

    /// Running statistics.
    #[must_use]
    #[allow(dead_code)] // Exposed for diagnostics; not consumed on the hot path.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CacheSim {
        // 4 sets x 2 ways x 32B = 256 B.
        CacheSim::new(CacheConfig {
            size_bytes: 256,
            ways: 2,
            block_bytes: 32,
        })
    }

    #[test]
    fn geometry() {
        let c = CacheConfig {
            size_bytes: 64 * 1024,
            ways: 4,
            block_bytes: 32,
        };
        assert_eq!(c.num_sets(), 512);
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = small();
        assert_eq!(c.access(0x100), AccessOutcome::Miss);
        assert_eq!(c.access(0x100), AccessOutcome::Hit);
        assert_eq!(c.access(0x11F), AccessOutcome::Hit); // same 32B line
        assert_eq!(c.access(0x120), AccessOutcome::Miss); // next line
        assert_eq!(c.stats().accesses, 4);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small();
        // Three lines mapping to the same set (stride = sets*block = 128).
        let (a, b, d) = (0x000, 0x080, 0x100);
        c.access(a); // miss
        c.access(b); // miss; set = [b, a]
        c.access(a); // hit;  set = [a, b]
        c.access(d); // miss; evicts b
        assert!(c.probe(a));
        assert!(!c.probe(b));
        assert!(c.probe(d));
        assert_eq!(c.access(b), AccessOutcome::Miss);
    }

    #[test]
    fn probe_does_not_disturb_state() {
        let mut c = small();
        c.access(0x0);
        let before = c.stats();
        assert!(c.probe(0x0));
        assert!(!c.probe(0x999));
        assert_eq!(c.stats(), before);
    }

    #[test]
    fn reset_clears_contents() {
        let mut c = small();
        c.access(0x40);
        c.reset();
        assert!(!c.probe(0x40));
        assert_eq!(c.stats().accesses, 0);
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        let mut c = small();
        // 16 distinct lines cycled twice through a 8-line cache with an
        // LRU-hostile access order: every access misses.
        for _round in 0..2 {
            for i in 0..16u64 {
                c.access(i * 32);
            }
        }
        assert_eq!(c.stats().misses, 32);
    }

    #[test]
    fn working_set_within_cache_stops_missing() {
        let mut c = small();
        for _round in 0..4 {
            for i in 0..8u64 {
                c.access(i * 32);
            }
        }
        // 8 cold misses, then hits forever.
        assert_eq!(c.stats().misses, 8);
        assert_eq!(c.stats().accesses, 32);
        assert!((c.stats().miss_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn tlb_tracks_pages() {
        let mut t = TlbSim::new(2, 4096);
        assert_eq!(t.access(0x0000), AccessOutcome::Miss);
        assert_eq!(t.access(0x0FFF), AccessOutcome::Hit); // same page
        assert_eq!(t.access(0x1000), AccessOutcome::Miss);
        assert_eq!(t.access(0x2000), AccessOutcome::Miss); // evicts page 0
        assert_eq!(t.access(0x0000), AccessOutcome::Miss);
        assert_eq!(t.stats().accesses, 5);
    }
}
