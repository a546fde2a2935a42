//! The mode-independent half of an execution, walked once per call.
//!
//! Cache, TLB and branch-predictor outcomes depend only on the address,
//! pc and branch-outcome streams of a trace, never on the clock (the
//! paper's assumption 1, see [`Trace`]). [`Machine::record`] therefore
//! walks the [`MemoryHierarchy`] and [`BranchPredictor`] over a trace once
//! and keeps each dynamic instruction's outcomes, next to a table of the
//! CFG's instructions decoded once. Every timing pass steps through that
//! record: [`Machine::run_points`] and [`Machine::time_points`] one
//! cycle-domain pass per operating point, [`Machine::run_scheduled`] one
//! µs-domain pass under a schedule,
//! and the `dvs-replay` compiler keeps its [`Recording::steps`] as
//! bytecode.

use crate::pipeline::pool_of;
use crate::{
    BranchPredictor, CacheStats, DataLevel, EnergyModel, Machine, MemoryHierarchy, SimConfig, Trace,
};
use dvs_ir::{Cfg, Opcode};

/// Bytes per instruction in the synthetic instruction encoding.
const INST_BYTES: u64 = 4;
/// Code bytes reserved per basic block (blocks get disjoint PC ranges).
/// Blocks longer than `BLOCK_STRIDE / INST_BYTES` (256) instructions wrap
/// within their own range: their tail reuses the block's earlier I-cache
/// lines, which slightly understates I-footprint for outsized blocks but
/// never aliases *other* blocks' code.
const BLOCK_STRIDE: u64 = 1024;

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
    pub(crate) fn core_nf(&self) -> f64 {
        f64::from_bits(self.nf_bits[0])
    }

    /// Functional-unit capacitance, nF.
    pub(crate) fn fu_nf(&self) -> f64 {
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

/// The CFG's instructions decoded once: pools, latencies, register
/// operands, line starts and per-instruction capacitance.
#[derive(Debug)]
pub(crate) struct StaticTable {
    insts: Vec<Decoded>,
    /// `insts[starts[b]..starts[b + 1]]` are block `b`'s instructions.
    starts: Vec<usize>,
    /// Per block: how many line fetches and branches one execution makes.
    events: Vec<(usize, usize)>,
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
            events.push((
                block.iter().filter(|i| i.starts_line).count(),
                block.iter().filter(|i| i.is_branch).count(),
            ));
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
    /// Reads the recorded outcomes in trace order, one instruction at a
    /// time.
    pub(crate) fn cursor(&self) -> Cursor<'_> {
        Cursor {
            fetches: self.fetches.iter(),
            data: self.data.iter(),
            branches: self.mispredicted.iter(),
        }
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
        let mut cursor = self.cursor();
        self.insts().map(move |inst| cursor.next(inst))
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

/// The recorded outcome streams, read one dynamic instruction at a time.
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
            let b = dyn_block.block.index();
            let mut addrs = dyn_block.addrs.iter();
            for (ii, inst) in table.block(b).iter().enumerate() {
                let pc = pc_of(b, ii);
                if inst.starts_line {
                    fetches.push(Access::from(hier.inst_access(pc)));
                }
                if inst.is_mem {
                    let addr = *addrs.next().expect("one address per memory instruction");
                    data.push(Access::from(hier.data_access(addr)));
                }
                if inst.is_branch {
                    let target_pc = pc_of(b + 1, 0); // proxy target id
                    let correct = pred.predict_and_update(
                        pc,
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
