//! The mode-independent half of an execution, walked once per call.
//!
//! Cache, TLB and branch-predictor outcomes depend only on the address,
//! pc and branch-outcome streams of a trace, never on the clock (the
//! paper's assumption 1, see [`Trace`]). [`Machine::record`] therefore
//! walks the [`MemoryHierarchy`] and [`BranchPredictor`] over a trace once
//! and keeps each dynamic instruction's outcomes, next to a table of the
//! CFG's instructions decoded once. The timing passes read that record:
//! [`Machine::run_points`] runs one cycle-domain pass per operating point,
//! [`Machine::run_scheduled`] one µs-domain pass under a schedule, and the
//! `dvs-replay` compiler turns it into bytecode.

use crate::{
    BranchPredictor, CacheStats, DataLevel, EnergyModel, Machine, MemoryHierarchy, SimConfig, Trace,
};
use dvs_ir::{Cfg, Opcode};

/// Pipeline front-end depth in cycles (fetch → decode → rename).
pub const FRONTEND_DEPTH: f64 = 3.0;
/// Bytes per instruction in the synthetic instruction encoding.
const INST_BYTES: u64 = 4;
/// Code bytes reserved per basic block (blocks get disjoint PC ranges).
/// Blocks longer than `BLOCK_STRIDE / INST_BYTES` (256) instructions wrap
/// within their own range: their tail reuses the block's earlier I-cache
/// lines, which slightly understates I-footprint for outsized blocks but
/// never aliases *other* blocks' code.
const BLOCK_STRIDE: u64 = 1024;

/// Where one cache access was satisfied, and its on-chip latency in cycles
/// as [`MemoryHierarchy`] reported it (TLB penalty included).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstOutcome {
    /// The I-cache access of the line this instruction opens; `None` when
    /// it sits on a line an earlier instruction of its block fetched.
    pub fetch: Option<Access>,
    /// The data access of a load or store.
    pub data: Option<Access>,
    /// Whether the branch predictor missed; always `false` off branches.
    pub mispredicted: bool,
}

/// One static instruction, decoded for the timing passes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Decoded {
    /// Synthetic pc: blocks get disjoint ranges of `BLOCK_STRIDE` bytes.
    pc: u64,
    /// The instruction opens a new I-cache line of its block.
    pub starts_line: bool,
    pub is_mem: bool,
    pub is_load: bool,
    pub is_branch: bool,
    /// Neither a memory operation nor a nop: its latency counts towards
    /// the analytical model's `Noverlap`/`Ndependent`.
    pub is_compute: bool,
    /// Destination register (mod 64) of an instruction that writes one.
    pub dest: Option<u8>,
    /// Functional-unit pool, an index into [`StaticTable::fu_offsets`].
    pub pool: u8,
    /// Base latency, cycles.
    pub latency: u32,
    /// Cycles the unit stays busy: the latency for the unpipelined
    /// dividers, one otherwise.
    pub occupancy: u32,
    /// This instruction's sources are `StaticTable::srcs[src_lo..src_hi]`.
    src_lo: usize,
    src_hi: usize,
    /// Front end, window, clock and register-file capacitance, nF.
    pub core_nf: f64,
    /// Functional-unit capacitance, nF.
    pub fu_nf: f64,
}

/// The CFG's instructions decoded once: pools, latencies, register
/// operands, line starts and per-instruction capacitance.
#[derive(Debug)]
pub(crate) struct StaticTable {
    insts: Vec<Decoded>,
    /// `insts[starts[b]..starts[b + 1]]` are block `b`'s instructions.
    starts: Vec<usize>,
    /// Per block: how many line fetches and branches one execution makes.
    events: Vec<(usize, usize)>,
    /// Non-zero source registers (mod 64) of every instruction.
    srcs: Vec<u8>,
    /// Flattened functional-unit pools: pool `p` occupies
    /// `fu_offsets[p]..fu_offsets[p + 1]` of one free-time array.
    pub fu_offsets: [usize; 8],
}

impl StaticTable {
    fn decode(cfg: &Cfg, cfgm: &SimConfig, em: &EnergyModel) -> Self {
        let mut insts = Vec::new();
        let mut starts = Vec::with_capacity(cfg.num_blocks() + 1);
        let mut events = Vec::with_capacity(cfg.num_blocks());
        let mut srcs = Vec::new();
        let line_bytes = cfgm.l1i.block_bytes;
        for b in 0..cfg.num_blocks() {
            starts.push(insts.len());
            let base_pc = b as u64 * BLOCK_STRIDE;
            let mut next_line_pc = base_pc;
            for (ii, inst) in cfg.block(dvs_ir::BlockId(b)).insts.iter().enumerate() {
                let pc = base_pc + (ii as u64 * INST_BYTES) % BLOCK_STRIDE;
                let starts_line = pc >= next_line_pc;
                if starts_line {
                    next_line_pc = (pc / line_bytes + 1) * line_bytes;
                }
                let src_lo = srcs.len();
                srcs.extend(inst.srcs.iter().filter(|s| !s.is_zero()).map(|s| s.0 % 64));
                let reads = (srcs.len() - src_lo) as f64;
                let writes = if inst.writes_reg() { 1.0 } else { 0.0 };
                let latency = inst.opcode.base_latency();
                insts.push(Decoded {
                    pc,
                    starts_line,
                    is_mem: inst.opcode.is_mem(),
                    is_load: inst.opcode == Opcode::Load,
                    is_branch: inst.opcode.is_branch(),
                    is_compute: !inst.opcode.is_mem() && inst.opcode != Opcode::Nop,
                    dest: inst.writes_reg().then_some(inst.dest.0 % 64),
                    pool: match inst.opcode {
                        Opcode::IntAlu | Opcode::Branch | Opcode::Load | Opcode::Store => 0,
                        Opcode::IntMul => 1,
                        Opcode::IntDiv => 2,
                        Opcode::FpAdd => 3,
                        Opcode::FpMul => 4,
                        Opcode::FpDiv => 5,
                        Opcode::Nop => 6,
                    },
                    latency,
                    occupancy: match inst.opcode {
                        Opcode::IntDiv | Opcode::FpDiv => latency,
                        _ => 1,
                    },
                    src_lo,
                    src_hi: srcs.len(),
                    core_nf: em.frontend_nf
                        + em.window_nf
                        + em.clock_nf
                        + em.regfile_nf * (reads + writes),
                    fu_nf: em.fu_nf(inst.opcode),
                });
            }
            let block = &insts[starts[b]..];
            events.push((
                block.iter().filter(|i| i.starts_line).count(),
                block.iter().filter(|i| i.is_branch).count(),
            ));
        }
        starts.push(insts.len());
        let pools = [
            cfgm.int_alus, // IntAlu/Branch/agen
            cfgm.int_mult, // IntMul
            cfgm.int_mult, // IntDiv shares the mult/div unit
            cfgm.fp_adders,
            cfgm.fp_mult,
            cfgm.fp_div,
            1, // Nop pseudo-pool
        ];
        let mut fu_offsets = [0usize; 8];
        for (p, &n) in pools.iter().enumerate() {
            fu_offsets[p + 1] = fu_offsets[p] + n.max(1);
        }
        StaticTable {
            insts,
            starts,
            events,
            srcs,
            fu_offsets,
        }
    }

    /// Block `b`'s decoded instructions, in program order.
    pub fn block(&self, b: usize) -> &[Decoded] {
        &self.insts[self.starts[b]..self.starts[b + 1]]
    }

    /// The source registers `inst` reads.
    pub fn srcs(&self, inst: &Decoded) -> &[u8] {
        &self.srcs[inst.src_lo..inst.src_hi]
    }
}

/// One walk of the memory hierarchy and branch predictor over a trace:
/// every I-cache line fetch, data access and branch prediction outcome,
/// in program order, plus the CFG's decoded instructions. Build with
/// [`Machine::record`]; every operating point and schedule timed from it
/// sees the same outcomes.
#[derive(Debug)]
pub struct Recording<'a> {
    pub(crate) trace: &'a Trace,
    pub(crate) table: StaticTable,
    /// Outcome of every I-cache line fetch.
    pub(crate) fetches: Vec<Access>,
    /// Outcome of every load and store.
    pub(crate) data: Vec<Access>,
    /// Per dynamic branch: whether the predictor missed it.
    pub(crate) mispredicted: Vec<bool>,
    pub(crate) l1d: CacheStats,
    pub(crate) l1i: CacheStats,
    pub(crate) l2: CacheStats,
    pub(crate) mispredicts: u64,
}

impl Recording<'_> {
    /// The outcomes of every dynamic instruction, in trace order: block by
    /// block, and within a block in program order.
    pub fn outcomes(&self) -> impl Iterator<Item = InstOutcome> + '_ {
        let mut fetches = self.fetches.iter().copied();
        let mut data = self.data.iter().copied();
        let mut branches = self.mispredicted.iter().copied();
        self.trace
            .blocks()
            .iter()
            .flat_map(|d| self.table.block(d.block.index()))
            .map(move |inst| InstOutcome {
                fetch: if inst.starts_line {
                    fetches.next()
                } else {
                    None
                },
                data: if inst.is_mem { data.next() } else { None },
                mispredicted: inst.is_branch && branches.next() == Some(true),
            })
    }
}

impl Machine {
    /// Walks the memory hierarchy and branch predictor over `trace` once,
    /// from cold, and records the outcomes every timing pass needs.
    ///
    /// # Panics
    ///
    /// Panics if the trace references blocks outside `cfg` or a dynamic
    /// block carries fewer addresses than its block has memory
    /// instructions.
    #[must_use]
    pub fn record<'a>(&self, cfg: &Cfg, trace: &'a Trace) -> Recording<'a> {
        let _span = dvs_obs::span!("sim.record");
        let cfgm = self.config();
        let table = StaticTable::decode(cfg, cfgm, self.energy_model());
        let mut hier = MemoryHierarchy::new(cfgm);
        let mut pred = BranchPredictor::new(cfgm.predictor);
        // Sized exactly: the record is the largest thing a call keeps.
        let (mut n_fetches, mut n_data, mut n_branches) = (0, 0, 0);
        for d in trace.blocks() {
            let (f, b) = table.events[d.block.index()];
            n_fetches += f;
            n_data += d.addrs.len();
            n_branches += b;
        }
        let mut fetches = Vec::with_capacity(n_fetches);
        let mut data = Vec::with_capacity(n_data);
        let mut mispredicted = Vec::with_capacity(n_branches);

        for dyn_block in trace.blocks() {
            let base_pc = dyn_block.block.index() as u64 * BLOCK_STRIDE;
            let mut addrs = dyn_block.addrs.iter();
            for inst in table.block(dyn_block.block.index()) {
                if inst.starts_line {
                    fetches.push(Access::from(hier.inst_access(inst.pc)));
                }
                if inst.is_mem {
                    let addr = *addrs.next().expect("one address per memory instruction");
                    data.push(Access::from(hier.data_access(addr)));
                }
                if inst.is_branch {
                    let target_pc = base_pc + BLOCK_STRIDE; // proxy target id
                    let correct = pred.predict_and_update(
                        inst.pc,
                        dyn_block.taken,
                        if dyn_block.taken { target_pc } else { 0 },
                    );
                    mispredicted.push(!correct);
                }
            }
        }

        if dvs_obs::enabled() {
            dvs_obs::counter("sim.walks", 1);
        }
        Recording {
            trace,
            table,
            fetches,
            data,
            mispredicted,
            l1d: hier.l1d_stats(),
            l1i: hier.l1i_stats(),
            l2: hier.l2_stats(),
            mispredicts: pred.stats().mispredicts,
        }
    }
}
