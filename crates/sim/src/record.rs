//! The mode-independent half of an execution, walked once per call.
//!
//! Cache, TLB and branch-predictor outcomes depend only on the address,
//! pc and branch-outcome streams of a trace, never on the clock (the
//! paper's assumption 1, see [`Trace`]). One walk of the
//! [`MemoryHierarchy`] and [`BranchPredictor`] over a trace therefore keeps
//! each dynamic instruction's outcomes, next to a table of the CFG's
//! instructions decoded once, and adds up the clock-independent charge as
//! it goes. Every timing pass steps through that record:
//! [`Machine::run_points`] one cycle-domain pass per operating point,
//! [`Machine::time_points`] one per group of up to [`LANES`](crate::LANES)
//! points timed in lockstep, [`Machine::run_scheduled`] one µs-domain pass
//! under a schedule, and the `dvs-replay` compiler keeps its
//! [`Recording::steps`] as bytecode.
//!
//! The record is held in segments of [`SEGMENT_BLOCKS`] dynamic blocks,
//! each published as soon as the walk has filled it. A pass therefore need
//! not wait for the whole walk: [`Machine::stream`] walks on a helper
//! thread while the passes run, each waiting only at a segment the walk
//! has not reached yet.

use crate::pipeline::pool_of;
use crate::{
    BlockStats, BranchPredictor, CacheStats, DataLevel, DynBlock, EnergyBreakdown, EnergyModel,
    Machine, MemoryHierarchy, SimConfig, Trace, FAN_OUT_MIN_INSTS,
};
use dvs_ir::{Cfg, Opcode};
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Bytes per instruction in the synthetic instruction encoding.
const INST_BYTES: u64 = 4;
/// Code bytes reserved per basic block (blocks get disjoint PC ranges).
/// Blocks longer than `BLOCK_STRIDE / INST_BYTES` (256) instructions wrap
/// within their own range: their tail reuses the block's earlier I-cache
/// lines, which slightly understates I-footprint for outsized blocks but
/// never aliases *other* blocks' code.
const BLOCK_STRIDE: u64 = 1024;

/// Dynamic blocks per segment of a [`Recording`]: the unit in which a walk
/// publishes its outcomes to the passes that follow it.
///
/// A pass starts once the walk has published the first segment and checks
/// one `OnceLock` per segment, and the caller allocates three vectors per
/// segment, so a segment is small next to a trace and large next to those
/// costs. On the bundled traces (3–13 instructions per block) a segment
/// holds 6,000 to 27,000 dynamic instructions and a trace 3 to 78
/// segments.
pub const SEGMENT_BLOCKS: usize = 2048;

/// Why a pass stops at a segment a walk never published.
const ABANDONED: &str = "the walk filling this record panicked";

/// The synthetic pc of instruction `ii` of block `b`.
fn pc_of(b: usize, ii: usize) -> u64 {
    b as u64 * BLOCK_STRIDE + (ii as u64 * INST_BYTES) % BLOCK_STRIDE
}

/// Where one cache access was satisfied, and its on-chip latency in cycles
/// as [`MemoryHierarchy`] reported it (TLB penalty included).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Access {
    /// The level that satisfied the access.
    pub level: DataLevel,
    /// Synchronous latency, cycles.
    pub cycles: u32,
}

impl From<(DataLevel, u32)> for Access {
    fn from((level, cycles): (DataLevel, u32)) -> Self {
        Access { level, cycles }
    }
}

/// The recorded outcomes of one dynamic instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InstOutcome {
    /// The I-cache access of the line this instruction opens; `None` when
    /// it sits on a line an earlier instruction of its block fetched.
    pub fetch: Option<Access>,
    /// The data access of a load or store.
    pub data: Option<Access>,
    /// Whether the branch predictor missed; always `false` off branches.
    pub mispredicted: bool,
}

/// One static instruction, decoded once for the pipeline step: its unit
/// pool, latencies, register operands, whether it opens an I-cache line,
/// and its switched capacitance.
///
/// Two decoded instructions are equal when every field is, so equal
/// instructions with equal outcomes time and charge alike wherever they
/// sit in the CFG.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Decoded {
    /// The instruction opens a new I-cache line of its block.
    pub(crate) starts_line: bool,
    pub(crate) is_mem: bool,
    pub(crate) is_load: bool,
    pub(crate) is_branch: bool,
    /// Neither a memory operation nor a nop: its latency counts towards
    /// the analytical model's `Noverlap`/`Ndependent`.
    pub(crate) is_compute: bool,
    /// Destination register (mod 64) of an instruction that writes one.
    pub(crate) dest: Option<u8>,
    /// Functional-unit pool ([`pool_of`]).
    pub(crate) pool: u8,
    /// Base latency, cycles.
    pub(crate) latency: u32,
    /// Cycles the unit stays busy: the latency for the unpipelined
    /// dividers, one otherwise.
    pub(crate) occupancy: u32,
    /// Non-zero source registers (mod 64), `nsrc` of them.
    srcs: [u8; 3],
    nsrc: u8,
    /// The bits of the front end, window, clock and register-file
    /// capacitance (nF) and of the functional unit's, kept as bits so the
    /// derived equality and hash compare them too.
    nf_bits: [u64; 2],
}

impl Decoded {
    /// The source registers the instruction reads.
    #[inline]
    pub(crate) fn srcs(&self) -> &[u8] {
        &self.srcs[..usize::from(self.nsrc)]
    }

    /// Whether the instruction is a branch, which the predictor sees.
    #[must_use]
    pub fn is_branch(&self) -> bool {
        self.is_branch
    }

    /// Front end, window, clock and register-file capacitance, nF.
    fn core_nf(&self) -> f64 {
        f64::from_bits(self.nf_bits[0])
    }

    /// Functional-unit capacitance, nF.
    fn fu_nf(&self) -> f64 {
        f64::from_bits(self.nf_bits[1])
    }

    /// Switched capacitance of one execution, nF: the core's share and
    /// the functional unit's.
    #[must_use]
    pub fn capacitance_nf(&self) -> f64 {
        self.core_nf() + self.fu_nf()
    }

    /// Test support: the same instruction with `cycles` more latency.
    #[doc(hidden)]
    #[must_use]
    pub fn delayed(mut self, cycles: u32) -> Self {
        self.latency += cycles;
        self
    }
}

/// What one execution of a block does: its instructions, I-cache line
/// fetches, memory operations and branches.
#[derive(Debug, Clone, Copy, Default)]
struct BlockEvents {
    insts: usize,
    lines: usize,
    mems: usize,
    branches: usize,
}

/// The CFG's instructions decoded once: pools, latencies, register
/// operands, line starts and per-instruction capacitance.
#[derive(Debug)]
pub(crate) struct StaticTable {
    insts: Vec<Decoded>,
    /// `insts[starts[b]..starts[b + 1]]` are block `b`'s instructions.
    starts: Vec<usize>,
    /// Per block: what one execution does.
    events: Vec<BlockEvents>,
}

impl StaticTable {
    fn decode(cfg: &Cfg, cfgm: &SimConfig, em: &EnergyModel) -> Self {
        let mut insts = Vec::new();
        let mut starts = Vec::with_capacity(cfg.num_blocks() + 1);
        let mut events = Vec::with_capacity(cfg.num_blocks());
        let line_bytes = cfgm.l1i.block_bytes;
        for b in 0..cfg.num_blocks() {
            starts.push(insts.len());
            let mut next_line_pc = pc_of(b, 0);
            for (ii, inst) in cfg.block(dvs_ir::BlockId(b)).insts.iter().enumerate() {
                let pc = pc_of(b, ii);
                let starts_line = pc >= next_line_pc;
                if starts_line {
                    next_line_pc = (pc / line_bytes + 1) * line_bytes;
                }
                let (mut srcs, mut nsrc) = ([0u8; 3], 0u8);
                for s in inst.srcs.iter().filter(|s| !s.is_zero()) {
                    assert!(nsrc < 3, "an instruction reads at most 3 registers");
                    srcs[usize::from(nsrc)] = s.0 % 64;
                    nsrc += 1;
                }
                let writes = if inst.writes_reg() { 1.0 } else { 0.0 };
                let latency = inst.opcode.base_latency();
                insts.push(Decoded {
                    starts_line,
                    is_mem: inst.opcode.is_mem(),
                    is_load: inst.opcode == Opcode::Load,
                    is_branch: inst.opcode.is_branch(),
                    is_compute: !inst.opcode.is_mem() && inst.opcode != Opcode::Nop,
                    dest: inst.writes_reg().then_some(inst.dest.0 % 64),
                    pool: pool_of(inst.opcode),
                    latency,
                    occupancy: match inst.opcode {
                        Opcode::IntDiv | Opcode::FpDiv => latency,
                        _ => 1,
                    },
                    srcs,
                    nsrc,
                    nf_bits: [
                        (em.frontend_nf
                            + em.window_nf
                            + em.clock_nf
                            + em.regfile_nf * (f64::from(nsrc) + writes))
                            .to_bits(),
                        em.fu_nf(inst.opcode).to_bits(),
                    ],
                });
            }
            let block = &insts[starts[b]..];
            events.push(BlockEvents {
                insts: block.len(),
                lines: block.iter().filter(|i| i.starts_line).count(),
                mems: block.iter().filter(|i| i.is_mem).count(),
                branches: block.iter().filter(|i| i.is_branch).count(),
            });
        }
        starts.push(insts.len());
        StaticTable {
            insts,
            starts,
            events,
        }
    }

    /// Block `b`'s decoded instructions, in program order.
    pub fn block(&self, b: usize) -> &[Decoded] {
        &self.insts[self.starts[b]..self.starts[b + 1]]
    }

    /// The CFG's block count.
    pub fn num_blocks(&self) -> usize {
        self.events.len()
    }
}

/// The outcomes of one segment's dynamic blocks, in program order.
#[derive(Debug)]
struct Segment {
    /// Outcome of every I-cache line fetch.
    fetches: Vec<Access>,
    /// Outcome of every load and store.
    data: Vec<Access>,
    /// Per dynamic branch: whether the predictor missed it.
    mispredicted: Vec<bool>,
}

/// What a walk adds up besides the outcomes, published once it ends: the
/// clock-independent charge, summed in program order as a single run
/// accumulates it, and the event counts.
#[derive(Debug)]
pub(crate) struct Totals {
    /// Energy as switched capacitance, and DRAM energy.
    pub energy: EnergyBreakdown,
    /// Per-block invocations and capacitance, with `time_us` zero.
    pub blocks: Vec<BlockStats>,
    pub dram_accesses: u64,
    /// Cycles in L1/L2 hit latencies of data accesses.
    pub cache_hit_cycles: f64,
    pub l1d: CacheStats,
    pub l1i: CacheStats,
    pub l2: CacheStats,
    pub mispredicts: u64,
}

/// One walk of the memory hierarchy and branch predictor over a trace:
/// every I-cache line fetch, data access and branch prediction outcome,
/// in program order, plus the CFG's decoded instructions and what the walk
/// charged. Build with [`Machine::record`]; every operating point and
/// schedule timed from it sees the same outcomes.
#[derive(Debug)]
pub struct Recording<'a> {
    pub(crate) trace: &'a Trace,
    pub(crate) table: StaticTable,
    /// Dynamic instructions in the trace.
    pub(crate) insts: u64,
    /// One slot per [`SEGMENT_BLOCKS`] dynamic blocks, filled as the walk
    /// reaches it; `None` marks one a panicking walk abandoned.
    segments: Vec<OnceLock<Option<Segment>>>,
    /// Filled when the walk ends; `None` if it panicked.
    totals: OnceLock<Option<Totals>>,
}

impl Recording<'_> {
    /// The trace's dynamic blocks a segment at a time, each with a cursor
    /// over its outcomes. Waits for each segment until the walk has
    /// published it.
    ///
    /// # Panics
    ///
    /// Panics if the walk panicked before it published a segment.
    pub(crate) fn segments(&self) -> impl Iterator<Item = (&[DynBlock], Cursor<'_>)> + '_ {
        self.trace
            .blocks()
            .chunks(SEGMENT_BLOCKS)
            .zip(&self.segments)
            .map(|(blocks, slot)| {
                let seg = slot.wait().as_ref().expect(ABANDONED);
                let cursor = Cursor {
                    fetches: seg.fetches.iter(),
                    data: seg.data.iter(),
                    branches: seg.mispredicted.iter(),
                };
                (blocks, cursor)
            })
    }

    /// What the walk added up, once it has ended.
    ///
    /// # Panics
    ///
    /// Panics if the walk panicked.
    pub(crate) fn totals(&self) -> &Totals {
        self.totals.wait().as_ref().expect(ABANDONED)
    }

    /// Every dynamic instruction's decoded form, in trace order.
    fn insts(&self) -> impl Iterator<Item = &Decoded> + '_ {
        self.trace
            .blocks()
            .iter()
            .flat_map(|d| self.table.block(d.block.index()))
    }

    /// The outcomes of every dynamic instruction, in trace order: block by
    /// block, and within a block in program order.
    pub fn outcomes(&self) -> impl Iterator<Item = InstOutcome> + '_ {
        self.segments().flat_map(move |(blocks, mut cursor)| {
            blocks
                .iter()
                .flat_map(move |d| self.table.block(d.block.index()))
                .map(move |inst| cursor.next(inst))
        })
    }

    /// Every dynamic instruction as the pipeline step reads it, in trace
    /// order: its decoded instruction and its outcomes, less the cycles of
    /// a line fetch that hit L1, which no pass reads (they hold any I-TLB
    /// miss penalty). Equal steps time and charge alike.
    pub fn steps(&self) -> impl Iterator<Item = (Decoded, InstOutcome)> + '_ {
        self.insts().zip(self.outcomes()).map(|(&inst, mut out)| {
            if let Some(a) = out.fetch.as_mut().filter(|a| a.level == DataLevel::L1) {
                a.cycles = 0;
            }
            (inst, out)
        })
    }
}

/// One segment's recorded outcome streams, read one dynamic instruction at
/// a time.
pub(crate) struct Cursor<'r> {
    fetches: std::slice::Iter<'r, Access>,
    data: std::slice::Iter<'r, Access>,
    branches: std::slice::Iter<'r, bool>,
}

impl Cursor<'_> {
    /// The outcomes of the next dynamic instruction, which is `inst`.
    pub fn next(&mut self, inst: &Decoded) -> InstOutcome {
        InstOutcome {
            fetch: inst
                .starts_line
                .then(|| *self.fetches.next().expect("one fetch per line start")),
            data: inst
                .is_mem
                .then(|| *self.data.next().expect("one access per load or store")),
            mispredicted: inst.is_branch && *self.branches.next().expect("one outcome per branch"),
        }
    }
}

/// Marks every slot of a record that its walk has not filled as abandoned
/// when the walk ends, so that a panicking walk leaves no pass waiting.
struct Abandon<'r, 'a>(&'r Recording<'a>);

impl Drop for Abandon<'_, '_> {
    fn drop(&mut self) {
        // A filled slot keeps its value: `set` fails on it.
        for slot in &self.0.segments {
            let _ = slot.set(None);
        }
        let _ = self.0.totals.set(None);
    }
}

impl Machine {
    /// Walks the memory hierarchy and branch predictor over `trace` once,
    /// from cold, and records the outcomes every timing pass needs.
    ///
    /// # Panics
    ///
    /// Panics if the trace references blocks outside `cfg`, a dynamic
    /// block carries fewer addresses than its block has memory
    /// instructions, or an instruction reads more than the 3 registers
    /// [`dvs_ir::Inst::srcs`] allows.
    #[must_use]
    pub fn record<'a>(&self, cfg: &Cfg, trace: &'a Trace) -> Recording<'a> {
        let (rec, buffers) = self.plan(cfg, trace);
        self.walk(&rec, buffers);
        rec
    }

    /// Walks `rec`'s trace from a cold hierarchy and predictor, filling
    /// `buffers`, the segments [`Machine::plan`] sized for `rec`, and
    /// publishing each as it is filled and the totals at the end.
    fn walk(&self, rec: &Recording<'_>, buffers: Vec<Segment>) {
        let _span = dvs_obs::span!("sim.record");
        let _abandon = Abandon(rec);
        let em = self.energy_model();
        let mut hier = MemoryHierarchy::new(self.config());
        let mut pred = BranchPredictor::new(self.config().predictor);
        let mut blocks = vec![BlockStats::default(); rec.table.num_blocks()];
        let mut energy = EnergyBreakdown::default();
        let mut dram_accesses = 0u64;
        let mut cache_hit_cycles = 0.0f64;
        let segments = rec.trace.blocks().chunks(SEGMENT_BLOCKS);
        for ((dyn_blocks, mut seg), slot) in segments.zip(buffers).zip(&rec.segments) {
            for dyn_block in dyn_blocks {
                let b = dyn_block.block.index();
                let mut addrs = dyn_block.addrs.iter();
                let mut block_cap = 0.0f64;
                for (ii, inst) in rec.table.block(b).iter().enumerate() {
                    let pc = pc_of(b, ii);
                    let fetch = inst.starts_line.then(|| Access::from(hier.inst_access(pc)));
                    let data = inst.is_mem.then(|| {
                        let addr = *addrs.next().expect("one address per memory instruction");
                        Access::from(hier.data_access(addr))
                    });
                    for a in [fetch, data].into_iter().flatten() {
                        energy.cache_nf += em.l1_nf;
                        block_cap += em.l1_nf;
                        if a.level != DataLevel::L1 {
                            energy.cache_nf += em.l2_nf;
                            block_cap += em.l2_nf;
                        }
                        if a.level == DataLevel::Memory {
                            energy.dram_uj += em.dram_uj_per_access;
                            dram_accesses += 1;
                        }
                    }
                    seg.fetches.extend(fetch);
                    if let Some(a) = data {
                        if a.level != DataLevel::Memory {
                            cache_hit_cycles += f64::from(a.cycles);
                        }
                        seg.data.push(a);
                    }
                    if inst.is_branch {
                        let target_pc = pc_of(b + 1, 0); // proxy target id
                        let correct = pred.predict_and_update(
                            pc,
                            dyn_block.taken,
                            if dyn_block.taken { target_pc } else { 0 },
                        );
                        seg.mispredicted.push(!correct);
                        energy.bpred_nf += em.bpred_nf;
                        block_cap += em.bpred_nf;
                    }
                    // Per-instruction energy.
                    energy.core_nf += inst.core_nf();
                    energy.fu_nf += inst.fu_nf();
                    block_cap += inst.capacitance_nf();
                }
                let bstat = &mut blocks[b];
                bstat.invocations += 1;
                bstat.cap_nf += block_cap;
            }
            // The walk is the only writer of every slot.
            let _ = slot.set(Some(seg));
        }
        let _ = rec.totals.set(Some(Totals {
            energy,
            blocks,
            dram_accesses,
            cache_hit_cycles,
            l1d: hier.l1d_stats(),
            l1i: hier.l1i_stats(),
            l2: hier.l2_stats(),
            mispredicts: pred.stats().mispredicts,
        }));
        if dvs_obs::enabled() {
            dvs_obs::counter("sim.walks", 1);
        }
    }

    /// Decodes `cfg`, checks `trace` against it and sizes every segment of
    /// its record, all on the calling thread: the empty record and the
    /// buffers its walk fills. Sized exactly, as the record is the largest
    /// thing a call keeps, and allocated here, on the thread that frees
    /// them.
    ///
    /// # Panics
    ///
    /// As [`Machine::record`].
    fn plan<'a>(&self, cfg: &Cfg, trace: &'a Trace) -> (Recording<'a>, Vec<Segment>) {
        let table = StaticTable::decode(cfg, self.config(), self.energy_model());
        let mut insts = 0u64;
        let buffers: Vec<Segment> = trace
            .blocks()
            .chunks(SEGMENT_BLOCKS)
            .map(|blocks| {
                let mut total = BlockEvents::default();
                for d in blocks {
                    let ev = table.events[d.block.index()];
                    assert!(
                        d.addrs.len() >= ev.mems,
                        "one address per memory instruction"
                    );
                    total.insts += ev.insts;
                    total.lines += ev.lines;
                    total.mems += ev.mems;
                    total.branches += ev.branches;
                }
                insts += total.insts as u64;
                Segment {
                    fetches: Vec::with_capacity(total.lines),
                    data: Vec::with_capacity(total.mems),
                    mispredicted: Vec::with_capacity(total.branches),
                }
            })
            .collect();
        let rec = Recording {
            trace,
            table,
            insts,
            segments: buffers.iter().map(|_| OnceLock::new()).collect(),
            totals: OnceLock::new(),
        };
        (rec, buffers)
    }

    /// Walks `trace` over `cfg` once and runs `job(rec, ix)` over the
    /// record for every `ix < jobs` (a job is one timing pass, of one or
    /// more points), returning the results in `ix` order.
    ///
    /// With two or more CPUs and a trace of at least
    /// [`FAN_OUT_MIN_INSTS`] dynamic instructions, a scoped helper walks
    /// while the caller and `min(jobs, cpus - 1) - 1` more helpers start
    /// their jobs at once, each waiting only at a segment the walk has not
    /// published; once done, the walker takes the next job like any
    /// helper. Otherwise, or when one job follows a one-segment record
    /// (it could not start before the walk ends), the caller walks first
    /// and then runs every job, and no thread starts (nor is the CPU count
    /// asked for). Helpers record in the caller's `dvs_obs` domain.
    ///
    /// # Panics
    ///
    /// Panics as [`Machine::record`] does before any thread starts, and
    /// re-raises a panic from any thread, the walker's first: a pass that
    /// a panicking walk left without its segment panics too.
    pub(crate) fn stream<T: Send>(
        &self,
        cfg: &Cfg,
        trace: &Trace,
        jobs: usize,
        job: impl Fn(&Recording<'_>, usize) -> T + Sync,
    ) -> Vec<T> {
        let (rec, buffers) = self.plan(cfg, trace);
        let rec = &rec;
        // Hands out job indices. It publishes no data (segments publish
        // through their slots, and every result returns through a join),
        // so relaxed ordering suffices.
        let next = AtomicUsize::new(0);
        // Runs the next job not yet taken until none is left.
        let take_jobs = || {
            let mut done = Vec::new();
            loop {
                let ix = next.fetch_add(1, Ordering::Relaxed);
                if ix >= jobs {
                    return done;
                }
                done.push((ix, job(rec, ix)));
            }
        };
        // A short trace needs no helper, nor the CPU count, and neither
        // does one job that would wait at the one segment for the whole
        // walk.
        let overlaps = jobs > 1 || (jobs == 1 && rec.segments.len() > 1);
        let cpus = if overlaps && rec.insts >= FAN_OUT_MIN_INSTS {
            std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
        } else {
            1
        };
        let mut done = if cpus == 1 {
            self.walk(rec, buffers);
            take_jobs()
        } else {
            let domain = dvs_obs::current_domain();
            std::thread::scope(|s| {
                let walker = s.spawn(|| {
                    let _domain = dvs_obs::enter_domain(domain);
                    self.walk(rec, buffers);
                    take_jobs()
                });
                let helpers: Vec<_> = (1..jobs.min(cpus - 1))
                    .map(|_| {
                        s.spawn(|| {
                            let _domain = dvs_obs::enter_domain(domain);
                            take_jobs()
                        })
                    })
                    .collect();
                let mine = panic::catch_unwind(AssertUnwindSafe(take_jobs));
                let mut done = Vec::new();
                for h in std::iter::once(walker).chain(helpers) {
                    done.extend(h.join().unwrap_or_else(|p| panic::resume_unwind(p)));
                }
                done.extend(mine.unwrap_or_else(|p| panic::resume_unwind(p)));
                done
            })
        };
        done.sort_unstable_by_key(|&(ix, _)| ix);
        done.into_iter().map(|(_, t)| t).collect()
    }
}
