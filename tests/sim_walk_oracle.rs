//! Differential test of the memory hierarchy's caches and TLBs against the
//! per-set `Vec` bodies they replaced.
//!
//! `CacheSim` and the TLBs keep every set's tags in one flat array and
//! reorder a set in place. [`RefCache`], [`RefTlb`] and [`RefHierarchy`]
//! below are the earlier bodies, kept verbatim as the reference: one `Vec`
//! per set, `remove` + `insert(0)` on every hit. Every access outcome and
//! every `CacheStats` must match them, on seeded random address streams
//! under the paper configuration, `tiny_for_tests` and the prefetcher on,
//! on random cache geometries, and on the instruction and data streams of
//! all 19 workload inputs as `Machine::record` walks them.
//! `tests/sim_record_once.rs` cannot catch a cache change: its oracle walks
//! with the crate's own `MemoryHierarchy`.

use compile_time_dvs::runtime::Pool;
use compile_time_dvs::sim::{
    Access, AccessOutcome, CacheConfig, CacheSim, CacheStats, DataLevel, Machine, MemoryHierarchy,
    SimConfig,
};
use compile_time_dvs::workloads::Benchmark;

/// Bytes per instruction in the synthetic instruction encoding.
const INST_BYTES: u64 = 4;
/// Code bytes reserved per basic block.
const BLOCK_STRIDE: u64 = 1024;

/// The reference set-associative cache: `sets[s]` is an MRU-ordered list
/// of resident tags.
#[derive(Debug, Clone)]
struct RefCache {
    config: CacheConfig,
    sets: Vec<Vec<u64>>,
    stats: CacheStats,
    block_shift: u32,
    index_mask: u64,
}

impl RefCache {
    fn new(config: CacheConfig) -> Self {
        let num_sets = config.num_sets();
        RefCache {
            config,
            sets: vec![Vec::with_capacity(config.ways); num_sets],
            stats: CacheStats::default(),
            block_shift: config.block_bytes.trailing_zeros(),
            index_mask: num_sets as u64 - 1,
        }
    }

    fn access(&mut self, addr: u64) -> AccessOutcome {
        self.stats.accesses += 1;
        let line = addr >> self.block_shift;
        let set_ix = (line & self.index_mask) as usize;
        let tag = line >> self.index_mask.count_ones();
        let set = &mut self.sets[set_ix];
        if let Some(pos) = set.iter().position(|&t| t == tag) {
            // Move to MRU position.
            let t = set.remove(pos);
            set.insert(0, t);
            AccessOutcome::Hit
        } else {
            if set.len() == self.config.ways {
                set.pop();
            }
            set.insert(0, tag);
            self.stats.misses += 1;
            AccessOutcome::Miss
        }
    }

    fn probe(&self, addr: u64) -> bool {
        let line = addr >> self.block_shift;
        let set_ix = (line & self.index_mask) as usize;
        let tag = line >> self.index_mask.count_ones();
        self.sets[set_ix].contains(&tag)
    }

    fn stats(&self) -> CacheStats {
        self.stats
    }

    fn reset(&mut self) {
        for s in &mut self.sets {
            s.clear();
        }
        self.stats = CacheStats::default();
    }
}

/// The reference fully-associative TLB with LRU replacement.
#[derive(Debug, Clone)]
struct RefTlb {
    entries: usize,
    page_shift: u32,
    /// MRU-ordered resident page numbers.
    pages: Vec<u64>,
    stats: CacheStats,
}

impl RefTlb {
    fn new(entries: usize, page_bytes: u64) -> Self {
        RefTlb {
            entries,
            page_shift: page_bytes.trailing_zeros(),
            pages: Vec::with_capacity(entries),
            stats: CacheStats::default(),
        }
    }

    fn access(&mut self, addr: u64) -> AccessOutcome {
        self.stats.accesses += 1;
        let page = addr >> self.page_shift;
        if let Some(pos) = self.pages.iter().position(|&p| p == page) {
            let p = self.pages.remove(pos);
            self.pages.insert(0, p);
            AccessOutcome::Hit
        } else {
            if self.pages.len() == self.entries {
                self.pages.pop();
            }
            self.pages.insert(0, page);
            self.stats.misses += 1;
            AccessOutcome::Miss
        }
    }
}

/// The reference hierarchy: split L1s, unified L2, I/D TLBs.
#[derive(Debug, Clone)]
struct RefHierarchy {
    l1d: RefCache,
    l1i: RefCache,
    l2: RefCache,
    itlb: RefTlb,
    dtlb: RefTlb,
    l1_latency: u32,
    l2_latency: u32,
    tlb_penalty: u32,
    next_line_prefetch: bool,
    line_bytes: u64,
}

impl RefHierarchy {
    fn new(config: &SimConfig) -> Self {
        RefHierarchy {
            l1d: RefCache::new(config.l1d),
            l1i: RefCache::new(config.l1i),
            l2: RefCache::new(config.l2),
            itlb: RefTlb::new(config.tlb_entries, config.page_bytes),
            dtlb: RefTlb::new(config.tlb_entries, config.page_bytes),
            l1_latency: config.l1_latency,
            l2_latency: config.l2_latency,
            tlb_penalty: config.tlb_miss_penalty,
            next_line_prefetch: config.next_line_prefetch,
            line_bytes: config.l1d.block_bytes,
        }
    }

    fn data_access(&mut self, addr: u64) -> (DataLevel, u32) {
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

    fn inst_access(&mut self, addr: u64) -> (DataLevel, u32) {
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

    /// The three caches' statistics. The TLBs' show only in the cycles of
    /// each access, as in the crate's hierarchy.
    fn stats(&self) -> [CacheStats; 3] {
        [self.l1d.stats(), self.l1i.stats(), self.l2.stats()]
    }
}

fn stats_of(h: &MemoryHierarchy) -> [CacheStats; 3] {
    [h.l1d_stats(), h.l1i_stats(), h.l2_stats()]
}

/// SplitMix64, so every stream reproduces exactly.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One access of a random stream: a fetch or a data access at `addr`.
#[derive(Debug, Clone, Copy)]
enum Op {
    Fetch(u64),
    Data(u64),
}

/// A stream mixing the patterns a cache sees: sequential runs, strides
/// across sets and pages, a hot working set re-touched in a new order,
/// scattered addresses over a range far larger than L2, and instruction
/// fetches from a code region of loops.
fn random_stream(rng: &mut Rng, len: usize) -> Vec<Op> {
    let mut ops = Vec::with_capacity(len);
    let hot: Vec<u64> = (0..48).map(|_| 0x10_0000 + rng.below(1 << 16)).collect();
    let mut pc = 0x40_0000u64;
    let mut seq = 0x80_0000u64;
    while ops.len() < len {
        let run = 1 + rng.below(64) as usize;
        match rng.below(6) {
            0 => {
                let step = 1 << rng.below(7);
                for _ in 0..run {
                    seq += step;
                    ops.push(Op::Data(seq));
                }
            }
            1 => {
                // Strides of a set, a way's worth of sets or a page.
                let stride = [32, 4096, 16 * 1024, 128 * 1024][rng.below(4) as usize];
                let base = rng.below(1 << 24);
                for i in 0..run as u64 {
                    ops.push(Op::Data(base + i * stride));
                }
            }
            2 => {
                for _ in 0..run {
                    ops.push(Op::Data(hot[rng.below(hot.len() as u64) as usize]));
                }
            }
            3 => {
                for _ in 0..run {
                    ops.push(Op::Data(rng.below(1 << 32)));
                }
            }
            _ => {
                // A loop of a few lines, then a jump elsewhere in the code.
                let body = 1 + rng.below(16);
                for i in 0..run as u64 {
                    ops.push(Op::Fetch(pc + (i % body) * 32));
                }
                pc = 0x40_0000 + rng.below(1 << 20) / 4 * 4;
            }
        }
    }
    ops.truncate(len);
    ops
}

/// Drives the crate's hierarchy and the reference over `ops`, comparing
/// every access and the statistics along the way. Returns how many
/// accesses of each level, fetches and data together, the stream made.
fn check_stream(config: &SimConfig, ops: &[Op], ctx: &str) -> [usize; 3] {
    let mut dut = MemoryHierarchy::new(config);
    let mut want = RefHierarchy::new(config);
    let mut levels = [0usize; 3];
    for (i, &op) in ops.iter().enumerate() {
        let (got, exp) = match op {
            Op::Fetch(a) => (dut.inst_access(a), want.inst_access(a)),
            Op::Data(a) => (dut.data_access(a), want.data_access(a)),
        };
        assert_eq!(got, exp, "{ctx}: access {i} ({op:?})");
        levels[match exp.0 {
            DataLevel::L1 => 0,
            DataLevel::L2 => 1,
            DataLevel::Memory => 2,
        }] += 1;
        if i % 1024 == 0 {
            assert_eq!(stats_of(&dut), want.stats(), "{ctx}: stats at access {i}");
        }
    }
    assert_eq!(stats_of(&dut), want.stats(), "{ctx}: final stats");
    levels
}

#[test]
fn random_streams_match_the_reference_hierarchy() {
    let prefetch = |c: SimConfig| SimConfig {
        next_line_prefetch: true,
        ..c
    };
    let configs = [
        ("paper", SimConfig::default()),
        ("tiny", SimConfig::tiny_for_tests()),
        ("paper+prefetch", prefetch(SimConfig::default())),
        ("tiny+prefetch", prefetch(SimConfig::tiny_for_tests())),
        (
            "tiny, 3-entry TLB",
            SimConfig {
                tlb_entries: 3,
                ..SimConfig::tiny_for_tests()
            },
        ),
    ];
    for (name, config) in &configs {
        let mut reached = [0usize; 3];
        for seed in 0..6u64 {
            let mut rng = Rng(0x5eed_ca7e ^ seed);
            let ops = random_stream(&mut rng, 20_000);
            let levels = check_stream(config, &ops, &format!("{name}, seed {seed}"));
            for (r, l) in reached.iter_mut().zip(levels) {
                *r += l;
            }
        }
        assert!(
            reached.iter().all(|&n| n > 100),
            "{name}: the streams must hit L1, L2 and memory: {reached:?}"
        );
    }
}

#[test]
fn random_geometries_match_the_reference_cache() {
    let mut rng = Rng(0x0dd_ca7e);
    for case in 0..200 {
        let config = CacheConfig {
            ways: 1 + rng.below(8) as usize,
            block_bytes: 1 << (2 + rng.below(5)),
            size_bytes: 0,
        };
        let sets = 1u64 << rng.below(7);
        let config = CacheConfig {
            size_bytes: sets * config.block_bytes * config.ways as u64,
            ..config
        };
        let mut dut = CacheSim::new(config);
        let mut want = RefCache::new(config);
        let span = 1 + rng.below(8 * config.size_bytes);
        for i in 0..2_000 {
            let addr = rng.below(span);
            let ctx = format!("case {case} {config:?}, access {i} at {addr:#x}");
            match rng.below(50) {
                0 => {
                    dut.reset();
                    want.reset();
                }
                1..=9 => assert_eq!(dut.probe(addr), want.probe(addr), "{ctx}: probe"),
                _ => assert_eq!(dut.access(addr), want.access(addr), "{ctx}"),
            }
            assert_eq!(dut.stats(), want.stats(), "{ctx}: stats");
        }
    }
}

/// Replays `Machine::record`'s walk of one workload input through the
/// reference hierarchy: the fetch of every line a block opens and every
/// load and store, in trace order. Checks every recorded access, and the
/// crate's hierarchy's statistics over the same stream. Returns the
/// number of accesses checked.
fn check_workload(b: Benchmark, input: usize) -> usize {
    let machine = Machine::paper_default();
    let config = machine.config();
    let cfg = b.build_cfg();
    let trace = b.trace(&cfg, &b.inputs()[input]);
    let ctx = format!("{} input {input}", b.name());
    let mut want = RefHierarchy::new(config);
    let mut dut = MemoryHierarchy::new(config);
    let mut expected: Vec<(Option<Access>, Option<Access>)> = Vec::new();
    for d in trace.blocks() {
        let base_pc = d.block.index() as u64 * BLOCK_STRIDE;
        let mut next_line_pc = base_pc;
        let mut addrs = d.addrs.iter();
        for (ii, inst) in cfg.block(d.block).insts.iter().enumerate() {
            let pc = base_pc + (ii as u64 * INST_BYTES) % BLOCK_STRIDE;
            let fetch = (pc >= next_line_pc).then(|| {
                next_line_pc = (pc / config.l1i.block_bytes + 1) * config.l1i.block_bytes;
                let exp = want.inst_access(pc);
                assert_eq!(dut.inst_access(pc), exp, "{ctx}: fetch at {pc:#x}");
                Access::from(exp)
            });
            let data = inst.opcode.is_mem().then(|| {
                let addr = *addrs.next().expect("one address per memory instruction");
                let exp = want.data_access(addr);
                assert_eq!(dut.data_access(addr), exp, "{ctx}: data at {addr:#x}");
                Access::from(exp)
            });
            expected.push((fetch, data));
        }
    }
    assert_eq!(stats_of(&dut), want.stats(), "{ctx}: final stats");
    let rec = machine.record(&cfg, &trace);
    let mut checked = 0;
    let mut outcomes = rec.outcomes();
    for (i, &(fetch, data)) in expected.iter().enumerate() {
        let got = outcomes
            .next()
            .expect("one outcome per dynamic instruction");
        assert_eq!(
            (got.fetch, got.data),
            (fetch, data),
            "{ctx}: instruction {i}"
        );
        checked += usize::from(fetch.is_some()) + usize::from(data.is_some());
    }
    assert!(outcomes.next().is_none(), "{ctx}: extra outcomes");
    checked
}

#[test]
fn every_workload_input_walks_like_the_reference_hierarchy() {
    let programs: Vec<(Benchmark, usize)> = Benchmark::all()
        .into_iter()
        .flat_map(|b| (0..b.inputs().len()).map(move |i| (b, i)))
        .collect();
    assert_eq!(programs.len(), 19);
    let checked = Pool::new(2).map(programs, |_, (b, i)| check_workload(b, i));
    assert!(checked.iter().all(|&n| n > 0));
}
