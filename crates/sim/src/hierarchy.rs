use crate::cache::TlbSim;
use crate::{AccessOutcome, CacheSim, CacheStats, SimConfig};

/// Where a data access was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataLevel {
    /// L1 hit.
    L1,
    /// L1 miss, L2 hit.
    L2,
    /// Missed both on-chip levels; served by asynchronous main memory.
    Memory,
}

/// The full memory hierarchy: split L1s, unified L2, I/D TLBs, and an
/// asynchronous DRAM behind them.
///
/// On-chip latencies are returned in **cycles** (they scale with the CPU
/// clock); main-memory service time is **absolute** and exposed separately,
/// because the whole premise of compile-time DVS is that this component of
/// execution time does not stretch when the clock slows down.
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    l1d: CacheSim,
    l1i: CacheSim,
    l2: CacheSim,
    itlb: TlbSim,
    dtlb: TlbSim,
    l1_latency: u32,
    l2_latency: u32,
    tlb_penalty: u32,
    mem_latency_us: f64,
    next_line_prefetch: bool,
    line_bytes: u64,
}

impl MemoryHierarchy {
    /// Builds a cold hierarchy from the machine configuration.
    #[must_use]
    pub fn new(config: &SimConfig) -> Self {
        MemoryHierarchy {
            l1d: CacheSim::new(config.l1d),
            l1i: CacheSim::new(config.l1i),
            l2: CacheSim::new(config.l2),
            itlb: TlbSim::new(config.tlb_entries, config.page_bytes),
            dtlb: TlbSim::new(config.tlb_entries, config.page_bytes),
            l1_latency: config.l1_latency,
            l2_latency: config.l2_latency,
            tlb_penalty: config.tlb_miss_penalty,
            mem_latency_us: config.mem_latency_us,
            next_line_prefetch: config.next_line_prefetch,
            line_bytes: config.l1d.block_bytes,
        }
    }

    /// Performs a data access. Returns the satisfying level and the
    /// synchronous (on-chip) latency in cycles; for [`DataLevel::Memory`]
    /// the caller must additionally wait [`MemoryHierarchy::mem_latency_us`]
    /// of wall-clock time.
    pub fn data_access(&mut self, addr: u64) -> (DataLevel, u32) {
        let mut cycles = 0;
        if self.dtlb.access(addr) == AccessOutcome::Miss {
            cycles += self.tlb_penalty;
        }
        if self.l1d.access(addr) == AccessOutcome::Hit {
            return (DataLevel::L1, cycles + self.l1_latency);
        }
        if self.next_line_prefetch {
            // Idealized tagged prefetch: the following line is filled
            // alongside the demand miss.
            let _ = self.l1d.access(addr + self.line_bytes);
            let _ = self.l2.access(addr + self.line_bytes);
        }
        if self.l2.access(addr) == AccessOutcome::Hit {
            return (DataLevel::L2, cycles + self.l1_latency + self.l2_latency);
        }
        (
            DataLevel::Memory,
            cycles + self.l1_latency + self.l2_latency,
        )
    }

    /// Performs an instruction fetch access for the line holding `addr`.
    /// Same contract as [`MemoryHierarchy::data_access`].
    pub fn inst_access(&mut self, addr: u64) -> (DataLevel, u32) {
        let mut cycles = 0;
        if self.itlb.access(addr) == AccessOutcome::Miss {
            cycles += self.tlb_penalty;
        }
        if self.l1i.access(addr) == AccessOutcome::Hit {
            return (DataLevel::L1, cycles + self.l1_latency);
        }
        if self.l2.access(addr) == AccessOutcome::Hit {
            return (DataLevel::L2, cycles + self.l1_latency + self.l2_latency);
        }
        (
            DataLevel::Memory,
            cycles + self.l1_latency + self.l2_latency,
        )
    }

    /// Absolute main-memory service time in µs.
    #[must_use]
    pub fn mem_latency_us(&self) -> f64 {
        self.mem_latency_us
    }

    /// L1 data-cache statistics.
    #[must_use]
    pub fn l1d_stats(&self) -> CacheStats {
        self.l1d.stats()
    }

    /// L1 instruction-cache statistics.
    #[must_use]
    pub fn l1i_stats(&self) -> CacheStats {
        self.l1i.stats()
    }

    /// Unified L2 statistics.
    #[must_use]
    pub fn l2_stats(&self) -> CacheStats {
        self.l2.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> MemoryHierarchy {
        MemoryHierarchy::new(&SimConfig::tiny_for_tests())
    }

    #[test]
    fn cold_access_goes_to_memory_then_hits_l1() {
        let mut h = tiny();
        let (lvl, _) = h.data_access(0x4000);
        assert_eq!(lvl, DataLevel::Memory);
        let (lvl, cyc) = h.data_access(0x4000);
        assert_eq!(lvl, DataLevel::L1);
        assert_eq!(cyc, 1);
    }

    #[test]
    fn l2_catches_l1_evictions() {
        let mut h = tiny();
        // Fill well past L1 (1 KB) but within L2 (8 KB).
        for i in 0..64u64 {
            h.data_access(i * 32);
        }
        // Re-walk: L1 (32 lines, 2-way) can't hold all 64 lines, so early
        // lines come from L2, not memory.
        let (lvl, cyc) = h.data_access(0);
        assert_eq!(lvl, DataLevel::L2);
        assert_eq!(cyc, 1 + 16);
        assert_eq!(h.l2_stats().misses, 64);
    }

    #[test]
    fn inst_and_data_paths_are_split_but_share_l2() {
        let mut h = tiny();
        let (lvl, _) = h.inst_access(0x8000);
        assert_eq!(lvl, DataLevel::Memory);
        // Same line via data path: L1D misses but L2 has it.
        let (lvl, _) = h.data_access(0x8000);
        assert_eq!(lvl, DataLevel::L2);
    }

    #[test]
    fn tlb_penalty_applies_on_first_touch_of_page() {
        let mut h = tiny();
        let cfg = SimConfig::tiny_for_tests();
        let (_, cyc_first) = h.data_access(0x10_0000);
        // First touch pays TLB penalty on top of cache latency.
        assert!(cyc_first >= cfg.tlb_miss_penalty);
        let (_, cyc_same_page) = h.data_access(0x10_0040);
        assert!(cyc_same_page < cfg.tlb_miss_penalty);
    }

    #[test]
    fn next_line_prefetch_converts_streaming_misses_to_hits() {
        let mut cfg = SimConfig::tiny_for_tests();
        cfg.next_line_prefetch = true;
        let mut with = MemoryHierarchy::new(&cfg);
        let mut without = MemoryHierarchy::new(&SimConfig::tiny_for_tests());
        // Sequential line-by-line stream.
        let mut hits_with = 0;
        let mut hits_without = 0;
        for i in 0..64u64 {
            if with.data_access(0x9000 + i * 32).0 == DataLevel::L1 {
                hits_with += 1;
            }
            if without.data_access(0x9000 + i * 32).0 == DataLevel::L1 {
                hits_without += 1;
            }
        }
        assert_eq!(hits_without, 0, "cold stream never hits without prefetch");
        assert!(
            hits_with >= 30,
            "prefetch should catch the stream: {hits_with}"
        );
    }

    #[test]
    fn memory_latency_is_absolute() {
        let h = tiny();
        assert!((h.mem_latency_us() - 0.08).abs() < 1e-12);
    }
}
