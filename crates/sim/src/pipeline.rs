//! The pipeline step: one dynamic instruction's fetch, issue, completion
//! and commit, at up to [`LANES`] operating points in lockstep.
//!
//! Every timing pass runs this one recurrence over a recorded trace: the
//! profiling passes ([`Machine::run_points`], [`Machine::time_points`]) in
//! cycles at one or more operating points, and the scheduled pass
//! ([`Machine::run_scheduled`], and the `dvs-replay` bytecode through
//! [`ScheduledPass`]) in µs at the period of each block's mode.
//! [`Pipeline`] is the machine state between instructions, one lane per
//! operating point, a [`Clock`] says what a cycle is, and an [`Observe`]r
//! sees what a pass watches beyond the times themselves.
//!
//! The cache and predictor outcomes are the same at every clock (the
//! paper's assumption 1), and in cycles two points differ only in main
//! memory's latency. So every branch the step takes reads the decoded
//! instruction and its recorded outcome alone, and is taken once for all
//! lanes; each lane then does the one-point pass's f64 operations in the
//! same order, so its results are that pass's bit for bit.
//!
//! [`Machine::run_points`]: crate::Machine::run_points
//! [`Machine::time_points`]: crate::Machine::time_points
//! [`Machine::run_scheduled`]: crate::Machine::run_scheduled
//! [`ScheduledPass`]: crate::ScheduledPass

use crate::record::Decoded;
use crate::{Access, DataLevel, InstOutcome, SimConfig};
use dvs_ir::Opcode;

/// Pipeline front-end depth in cycles (fetch → decode → rename).
pub const FRONTEND_DEPTH: f64 = 3.0;

/// The most operating points one timing pass steps in lockstep: an
/// unclassified call ([`Machine::time_points`](crate::Machine::time_points))
/// times its points in groups of at most this many, one pass per group.
pub const LANES: usize = 8;

/// What one cycle is to a timing pass of `N` lanes. A cycle lasts as long
/// in every lane; only main memory's service time differs between them.
pub(crate) trait Clock<const N: usize>: Copy {
    /// `n` cycles in this clock's unit.
    fn cycles(self, n: f64) -> f64;
    /// One main-memory access's service time in lane `lane`, in this
    /// clock's unit.
    fn mem_latency(self, lane: usize) -> f64;
    /// When a data access issued at `issue` that took `cycles` on chip is
    /// done there: a hit completes, a miss leaves for memory. The two
    /// clocks associate this sum differently, each as its pass always
    /// did, so neither pass's results moved when they came to share the
    /// step.
    fn access_done(self, issue: f64, cycles: u32) -> f64;
}

/// Cycles at `N` operating points: the profiling pass's clock.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Cycles<const N: usize> {
    /// Main memory's service time in cycles at each lane's point.
    pub mem_latency: [f64; N],
}

impl<const N: usize> Clock<N> for Cycles<N> {
    fn cycles(self, n: f64) -> f64 {
        n
    }

    fn mem_latency(self, lane: usize) -> f64 {
        self.mem_latency[lane]
    }

    /// Summed from the issue cycle, a cycle at a time.
    fn access_done(self, issue: f64, cycles: u32) -> f64 {
        issue + 1.0 + f64::from(cycles)
    }
}

/// Microseconds at one clock period: the scheduled pass's clock, which
/// changes with the mode of each block.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Micros {
    pub period_us: f64,
    pub mem_latency_us: f64,
}

impl Clock<1> for Micros {
    fn cycles(self, n: f64) -> f64 {
        n * self.period_us
    }

    fn mem_latency(self, _lane: usize) -> f64 {
        self.mem_latency_us
    }

    /// The on-chip cycles converted to µs as one span.
    fn access_done(self, issue: f64, cycles: u32) -> f64 {
        issue + (1.0 + f64::from(cycles)) * self.period_us
    }
}

/// What a timing pass watches of each instruction beyond its times. Every
/// method is a no-op unless the pass overrides it; `()` watches nothing.
/// Times come per lane; within a lane, and in a pass of one lane, the
/// calls come in the order the one-point pass made them.
pub(crate) trait Observe {
    /// In lane `lane`, an access that missed on chip was in flight from
    /// `from`, and main memory served it over `[start, end)`.
    fn miss(&mut self, _lane: usize, _from: f64, _start: f64, _end: f64) {}
    /// A line fetch or data access `a`, before it is timed, once for all
    /// lanes; the accesses of one instruction come in program order, fetch
    /// first.
    fn access(&mut self, _a: Access) {}
    /// In lane `lane`, a data access that hit on chip was in flight over
    /// `[issue, done)`.
    fn hit(&mut self, _lane: usize, _issue: f64, _done: f64) {}
    /// In lane `lane`, `inst` issued at `issue`.
    fn issued(&mut self, _lane: usize, _inst: &Decoded, _issue: f64) {}
}

impl Observe for () {}

/// The times of the last `len` events of one kind in every lane, kept in
/// a ring. The events are the same in every lane, so one slot index
/// serves them all.
#[derive(Debug, Clone)]
struct Ring<const N: usize> {
    slots: Vec<[f64; N]>,
    /// The slot of the oldest event, which the next one takes.
    ix: usize,
}

impl<const N: usize> Ring<N> {
    fn new(len: usize) -> Self {
        Ring {
            slots: vec![[0.0; N]; len],
            ix: 0,
        }
    }

    /// The times of the event `len` events back.
    #[inline]
    fn oldest(&self) -> [f64; N] {
        self.slots[self.ix]
    }

    #[inline]
    fn push(&mut self, t: [f64; N]) {
        self.slots[self.ix] = t;
        self.ix = if self.ix + 1 == self.slots.len() {
            0
        } else {
            self.ix + 1
        };
    }
}

/// The out-of-order machine's state between instructions, one lane per
/// operating point: register readiness, functional-unit free times, the
/// window, LSQ and commit rings, the fetch cursor, the memory channel and
/// the pending redirect. Each instruction's times follow from its
/// dependences and these scoreboards ([`Machine`](crate::Machine)
/// describes the model).
#[derive(Debug, Clone)]
pub(crate) struct Pipeline<const N: usize> {
    reg_ready: [[f64; N]; 64],
    /// Free time of every functional unit; pool `p` occupies
    /// `fu_offsets[p]..fu_offsets[p + 1]`.
    fu_free: Vec<[f64; N]>,
    fu_offsets: [usize; 8],
    /// Commits of the last `ruu_size` instructions, which gate dispatch.
    window: Ring<N>,
    /// Commits of the last `lsq_size` memory instructions, which gate a
    /// memory instruction's issue.
    lsq: Ring<N>,
    /// Commits of the last `commit_width` instructions.
    commits: Ring<N>,
    fetch: [f64; N],
    /// Instructions fetched in the fetch cursor's cycle, the same in every
    /// lane.
    fetch_slots: usize,
    fetch_width: usize,
    /// When the single channel to main memory frees up.
    mem_free: [f64; N],
    prev_commit: [f64; N],
    pending_redirect: [f64; N],
    /// A mispredicted branch was timed since the last block entry. Then,
    /// and only then, every lane's `pending_redirect` is positive: it is a
    /// completion plus the penalty, and every completion is past the
    /// front end's depth.
    redirecting: bool,
    l1_latency: u32,
    mispredict_penalty: f64,
}

/// The functional-unit pool `op` issues to, an index into the pools
/// [`Pipeline::new`] lays out.
pub(crate) fn pool_of(op: Opcode) -> u8 {
    match op {
        Opcode::IntAlu | Opcode::Branch | Opcode::Load | Opcode::Store => 0,
        Opcode::IntMul => 1,
        Opcode::IntDiv => 2,
        Opcode::FpAdd => 3,
        Opcode::FpMul => 4,
        Opcode::FpDiv => 5,
        Opcode::Nop => 6,
    }
}

impl<const N: usize> Pipeline<N> {
    /// An empty pipeline of `config`'s machine at time zero in every lane.
    pub fn new(config: &SimConfig) -> Self {
        let pools = [
            config.int_alus, // IntAlu/Branch/agen
            config.int_mult, // IntMul
            config.int_mult, // IntDiv shares the mult/div unit
            config.fp_adders,
            config.fp_mult,
            config.fp_div,
            1, // Nop pseudo-pool
        ];
        let mut fu_offsets = [0usize; 8];
        for (p, &n) in pools.iter().enumerate() {
            fu_offsets[p + 1] = fu_offsets[p] + n.max(1);
        }
        Pipeline {
            reg_ready: [[0.0; N]; 64],
            fu_free: vec![[0.0; N]; fu_offsets[7]],
            fu_offsets,
            window: Ring::new(config.ruu_size),
            lsq: Ring::new(config.lsq_size),
            commits: Ring::new(config.commit_width),
            fetch: [0.0; N],
            fetch_slots: 0,
            fetch_width: config.fetch_width,
            mem_free: [0.0; N],
            prev_commit: [0.0; N],
            pending_redirect: [0.0; N],
            redirecting: false,
            l1_latency: config.l1_latency,
            mispredict_penalty: f64::from(config.mispredict_penalty),
        }
    }

    /// Each lane's fetch cursor: no later instruction fetches before it.
    pub fn fetch(&self) -> [f64; N] {
        self.fetch
    }

    /// Each lane's latest commit: the time the run has taken so far.
    pub fn time(&self) -> [f64; N] {
        self.prev_commit
    }

    /// Enters a block occurrence: a mispredicted branch's redirect lands,
    /// refilling the front end. Without one, every lane's pending redirect
    /// is +0.0 and no fetch cursor is below it, so the cursors stay.
    #[inline]
    pub fn enter_block(&mut self) {
        if self.redirecting {
            for l in 0..N {
                self.fetch[l] = later(self.fetch[l], self.pending_redirect[l]);
                self.pending_redirect[l] = 0.0;
            }
            self.fetch_slots = 0;
            self.redirecting = false;
        }
    }

    /// A mode switch: the pipeline drains, then the front end waits
    /// `settle` for the regulator.
    #[inline]
    pub fn switch(&mut self, settle: f64) {
        for l in 0..N {
            self.fetch[l] = later(self.fetch[l], self.prev_commit[l]) + settle;
        }
        self.fetch_slots = 0;
    }

    /// Times one instruction in every lane, `inst` with its recorded
    /// outcomes `out`. Each branch reads `inst` and `out` only and is taken
    /// once; the arithmetic under it runs lane by lane.
    ///
    /// Always inlined into each pass's loop: as a call, a pass read 20–40 %
    /// slower, and a plain `#[inline]` leaves rustc free to emit it out of
    /// line once it has more callers (CI fails when `dvsc` holds such a
    /// copy).
    #[inline(always)]
    pub fn step<C: Clock<N>, O: Observe>(
        &mut self,
        clock: C,
        inst: &Decoded,
        out: &InstOutcome,
        obs: &mut O,
    ) {
        // Instruction-side cache behaviour: one access per line the block
        // touches.
        if let Some(a) = out.fetch {
            obs.access(a);
            match a.level {
                DataLevel::L1 => {}
                DataLevel::L2 => {
                    let stall = clock.cycles(f64::from(a.cycles - self.l1_latency));
                    for fetch in &mut self.fetch {
                        *fetch += stall;
                    }
                }
                DataLevel::Memory => {
                    let on_chip = clock.cycles(f64::from(a.cycles));
                    for l in 0..N {
                        let ready = self.fetch[l] + on_chip;
                        let start = later(ready, self.mem_free[l]);
                        let end = start + clock.mem_latency(l);
                        self.mem_free[l] = end;
                        obs.miss(l, ready, start, end);
                        self.fetch[l] = end;
                    }
                }
            }
        }

        // Fetch bandwidth.
        if self.fetch_slots >= self.fetch_width {
            let one = clock.cycles(1.0);
            for fetch in &mut self.fetch {
                *fetch += one;
            }
            self.fetch_slots = 0;
        }
        let depth = clock.cycles(FRONTEND_DEPTH);
        self.fetch_slots += 1;

        // Source readiness.
        let mut src_ready = [0.0f64; N];
        for &s in inst.srcs() {
            let reg = &self.reg_ready[usize::from(s)];
            for l in 0..N {
                src_ready[l] = later(src_ready[l], reg[l]);
            }
        }

        let pool = usize::from(inst.pool);
        let (unit_ix, unit_free) = first_free(
            &self.fu_free,
            self.fu_offsets[pool],
            self.fu_offsets[pool + 1],
        );
        let window = self.window.oldest();
        let mut issue = [0.0f64; N];
        for l in 0..N {
            let dispatch_ready = self.fetch[l] + depth;
            issue[l] = later(
                later(dispatch_ready, window[l]),
                later(src_ready[l], unit_free[l]),
            );
        }
        if inst.is_mem {
            let lsq = self.lsq.oldest();
            for l in 0..N {
                issue[l] = later(issue[l], lsq[l]);
            }
        }
        // Unit occupancy: divides are unpipelined.
        let occupancy = clock.cycles(f64::from(inst.occupancy));
        for l in 0..N {
            self.fu_free[unit_ix[l]][l] = issue[l] + occupancy;
        }

        // Completion, over the single-channel asynchronous memory.
        let latency = clock.cycles(f64::from(inst.latency));
        let mut complete = issue.map(|issue| issue + latency);
        if let Some(a) = out.data {
            obs.access(a);
            match a.level {
                DataLevel::L1 | DataLevel::L2 => {
                    for l in 0..N {
                        let done = clock.access_done(issue[l], a.cycles);
                        obs.hit(l, issue[l], done);
                        if inst.is_load {
                            complete[l] = done;
                        }
                    }
                }
                DataLevel::Memory => {
                    for l in 0..N {
                        let done = clock.access_done(issue[l], a.cycles);
                        let start = later(done, self.mem_free[l]);
                        let end = start + clock.mem_latency(l);
                        self.mem_free[l] = end;
                        obs.miss(l, issue[l], start, end);
                        // Store misses retire without waiting for DRAM.
                        if inst.is_load {
                            complete[l] = end;
                        }
                    }
                }
            }
        }

        // Branch misprediction refills the front end.
        if out.mispredicted {
            let penalty = clock.cycles(self.mispredict_penalty);
            for (pending, complete) in self.pending_redirect.iter_mut().zip(complete) {
                *pending = later(*pending, complete + penalty);
            }
            self.redirecting = true;
        }

        // In-order commit.
        let one = clock.cycles(1.0);
        let oldest = self.commits.oldest();
        let mut commit = [0.0f64; N];
        for l in 0..N {
            commit[l] = later(
                later(complete[l] + one, self.prev_commit[l]),
                oldest[l] + one,
            );
        }
        self.prev_commit = commit;
        self.commits.push(commit);
        self.window.push(commit);
        if inst.is_mem {
            self.lsq.push(commit);
        }
        if let Some(d) = inst.dest {
            self.reg_ready[usize::from(d)] = complete;
        }
        for (l, &issue) in issue.iter().enumerate() {
            obs.issued(l, inst, issue);
        }
    }
}

/// The later of two times. Every time a pass compares is finite and at
/// least +0.0, where this plain compare-select returns the same bits as
/// `f64::max` without its NaN handling.
pub(crate) fn later(a: f64, b: f64) -> f64 {
    if a > b {
        a
    } else {
        b
    }
}

/// In every lane, the unit of `fu_free[lo..hi]` that frees up first (the
/// lowest index on a tie) and its free time, picked by compare-select
/// rather than branches.
#[inline]
fn first_free<const N: usize>(
    fu_free: &[[f64; N]],
    lo: usize,
    hi: usize,
) -> ([usize; N], [f64; N]) {
    let mut unit_ix = [lo; N];
    let mut unit_free = fu_free[lo];
    for (j, free) in fu_free.iter().enumerate().take(hi).skip(lo + 1) {
        for l in 0..N {
            let sooner = free[l] < unit_free[l];
            unit_ix[l] = if sooner { j } else { unit_ix[l] };
            unit_free[l] = if sooner { free[l] } else { unit_free[l] };
        }
    }
    (unit_ix, unit_free)
}
