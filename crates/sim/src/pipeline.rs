//! The pipeline step: one dynamic instruction's fetch, issue, completion
//! and commit.
//!
//! Every timing pass runs this one recurrence over a recorded trace: the
//! profiling pass ([`Machine::run_points`]) in cycles at one operating
//! point, and the scheduled pass ([`Machine::run_scheduled`], and the
//! `dvs-replay` bytecode through [`ScheduledPass`]) in µs at the period of
//! each block's mode. [`Pipeline`] is the machine state between
//! instructions, a [`Clock`] says what a cycle is, and an [`Observe`]r sees
//! what a pass watches beyond the times themselves.
//!
//! [`Machine::run_points`]: crate::Machine::run_points
//! [`Machine::run_scheduled`]: crate::Machine::run_scheduled
//! [`ScheduledPass`]: crate::ScheduledPass

use crate::record::Decoded;
use crate::{Access, DataLevel, InstOutcome, SimConfig};
use dvs_ir::Opcode;

/// Pipeline front-end depth in cycles (fetch → decode → rename).
pub const FRONTEND_DEPTH: f64 = 3.0;

/// What one cycle is to a timing pass.
pub(crate) trait Clock: Copy {
    /// `n` cycles in this clock's unit.
    fn cycles(self, n: f64) -> f64;
    /// One main-memory access's service time, in this clock's unit.
    fn mem_latency(self) -> f64;
    /// When a data access issued at `issue` that took `cycles` on chip is
    /// done there: a hit completes, a miss leaves for memory. The two
    /// clocks associate this sum differently, each as its pass always
    /// did, so neither pass's results moved when they came to share the
    /// step.
    fn access_done(self, issue: f64, cycles: u32) -> f64;
}

/// Cycles at one operating point: the profiling pass's clock.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Cycles {
    /// Main memory's service time in cycles at this point.
    pub mem_latency: f64,
}

impl Clock for Cycles {
    fn cycles(self, n: f64) -> f64 {
        n
    }

    fn mem_latency(self) -> f64 {
        self.mem_latency
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

impl Clock for Micros {
    fn cycles(self, n: f64) -> f64 {
        n * self.period_us
    }

    fn mem_latency(self) -> f64 {
        self.mem_latency_us
    }

    /// The on-chip cycles converted to µs as one span.
    fn access_done(self, issue: f64, cycles: u32) -> f64 {
        issue + (1.0 + f64::from(cycles)) * self.period_us
    }
}

/// What a timing pass watches of each instruction beyond its times. Every
/// method is a no-op unless the pass overrides it; `()` watches nothing.
pub(crate) trait Observe {
    /// An access that missed on chip was in flight from `from`, and main
    /// memory served it over `[start, end)`.
    fn miss(&mut self, _from: f64, _start: f64, _end: f64) {}
    /// A line fetch or data access `a`, before it is timed; the accesses
    /// of one instruction come in program order, fetch first.
    fn access(&mut self, _a: Access) {}
    /// A data access that hit on chip was in flight over `[issue, done)`.
    fn hit(&mut self, _issue: f64, _done: f64) {}
    /// `inst` issued at `issue`.
    fn issued(&mut self, _inst: &Decoded, _issue: f64) {}
}

impl Observe for () {}

/// The times of the last `len` events of one kind, kept in a ring.
#[derive(Debug, Clone)]
struct Ring {
    slots: Vec<f64>,
    /// The slot of the oldest event, which the next one takes.
    ix: usize,
}

impl Ring {
    fn new(len: usize) -> Self {
        Ring {
            slots: vec![0.0; len],
            ix: 0,
        }
    }

    /// The time of the event `len` events back.
    #[inline]
    fn oldest(&self) -> f64 {
        self.slots[self.ix]
    }

    #[inline]
    fn push(&mut self, t: f64) {
        self.slots[self.ix] = t;
        self.ix = if self.ix + 1 == self.slots.len() {
            0
        } else {
            self.ix + 1
        };
    }
}

/// The out-of-order machine's state between instructions: register
/// readiness, functional-unit free times, the window, LSQ and commit
/// rings, the fetch cursor, the memory channel and the pending redirect.
/// Each instruction's times follow from its dependences and these
/// scoreboards ([`Machine`](crate::Machine) describes the model).
#[derive(Debug, Clone)]
pub(crate) struct Pipeline {
    reg_ready: [f64; 64],
    /// Free time of every functional unit; pool `p` occupies
    /// `fu_offsets[p]..fu_offsets[p + 1]`.
    fu_free: Vec<f64>,
    fu_offsets: [usize; 8],
    /// Commits of the last `ruu_size` instructions, which gate dispatch.
    window: Ring,
    /// Commits of the last `lsq_size` memory instructions, which gate a
    /// memory instruction's issue.
    lsq: Ring,
    /// Commits of the last `commit_width` instructions.
    commits: Ring,
    fetch: f64,
    fetch_slots: usize,
    fetch_width: usize,
    /// When the single channel to main memory frees up.
    mem_free: f64,
    prev_commit: f64,
    pending_redirect: f64,
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

impl Pipeline {
    /// An empty pipeline of `config`'s machine at time zero.
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
            reg_ready: [0.0; 64],
            fu_free: vec![0.0; fu_offsets[7]],
            fu_offsets,
            window: Ring::new(config.ruu_size),
            lsq: Ring::new(config.lsq_size),
            commits: Ring::new(config.commit_width),
            fetch: 0.0,
            fetch_slots: 0,
            fetch_width: config.fetch_width,
            mem_free: 0.0,
            prev_commit: 0.0,
            pending_redirect: 0.0,
            l1_latency: config.l1_latency,
            mispredict_penalty: f64::from(config.mispredict_penalty),
        }
    }

    /// The fetch cursor: no later instruction fetches before it.
    pub fn fetch(&self) -> f64 {
        self.fetch
    }

    /// The latest commit: the time the run has taken so far.
    pub fn time(&self) -> f64 {
        self.prev_commit
    }

    /// Enters a block occurrence: a mispredicted branch's redirect lands,
    /// refilling the front end.
    #[inline]
    pub fn enter_block(&mut self) {
        self.fetch = later(self.fetch, self.pending_redirect);
        if self.pending_redirect > 0.0 {
            self.fetch_slots = 0;
            self.pending_redirect = 0.0;
        }
    }

    /// A mode switch: the pipeline drains, then the front end waits
    /// `settle` for the regulator.
    #[inline]
    pub fn switch(&mut self, settle: f64) {
        self.fetch = later(self.fetch, self.prev_commit) + settle;
        self.fetch_slots = 0;
    }

    /// Times one instruction, `inst` with its recorded outcomes `out`.
    /// Always inlined into each pass's loop: as a call, a pass read 20–40 %
    /// slower, and a plain `#[inline]` leaves rustc free to emit it out of
    /// line once it has more callers (CI fails when `dvsc` holds such a
    /// copy).
    #[inline(always)]
    pub fn step<C: Clock, O: Observe>(
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
                DataLevel::L2 => self.fetch += clock.cycles(f64::from(a.cycles - self.l1_latency)),
                DataLevel::Memory => {
                    let ready = self.fetch + clock.cycles(f64::from(a.cycles));
                    let start = later(ready, self.mem_free);
                    let end = start + clock.mem_latency();
                    self.mem_free = end;
                    obs.miss(ready, start, end);
                    self.fetch = end;
                }
            }
        }

        // Fetch bandwidth.
        if self.fetch_slots >= self.fetch_width {
            self.fetch += clock.cycles(1.0);
            self.fetch_slots = 0;
        }
        let dispatch_ready = self.fetch + clock.cycles(FRONTEND_DEPTH);
        self.fetch_slots += 1;

        // Source readiness.
        let mut src_ready = 0.0f64;
        for &s in inst.srcs() {
            src_ready = later(src_ready, self.reg_ready[usize::from(s)]);
        }

        let pool = usize::from(inst.pool);
        let (unit_ix, unit_free) = first_free(
            &self.fu_free,
            self.fu_offsets[pool],
            self.fu_offsets[pool + 1],
        );
        let mut issue = later(
            later(dispatch_ready, self.window.oldest()),
            later(src_ready, unit_free),
        );
        if inst.is_mem {
            issue = later(issue, self.lsq.oldest());
        }
        // Unit occupancy: divides are unpipelined.
        self.fu_free[unit_ix] = issue + clock.cycles(f64::from(inst.occupancy));

        // Completion, over the single-channel asynchronous memory.
        let mut complete = issue + clock.cycles(f64::from(inst.latency));
        if let Some(a) = out.data {
            obs.access(a);
            let done = clock.access_done(issue, a.cycles);
            match a.level {
                DataLevel::L1 | DataLevel::L2 => {
                    obs.hit(issue, done);
                    if inst.is_load {
                        complete = done;
                    }
                }
                DataLevel::Memory => {
                    let start = later(done, self.mem_free);
                    let end = start + clock.mem_latency();
                    self.mem_free = end;
                    obs.miss(issue, start, end);
                    // Store misses retire without waiting for DRAM.
                    if inst.is_load {
                        complete = end;
                    }
                }
            }
        }

        // Branch misprediction refills the front end.
        if out.mispredicted {
            self.pending_redirect = later(
                self.pending_redirect,
                complete + clock.cycles(self.mispredict_penalty),
            );
        }

        // In-order commit.
        let one = clock.cycles(1.0);
        let commit = later(
            later(complete + one, self.prev_commit),
            self.commits.oldest() + one,
        );
        self.prev_commit = commit;
        self.commits.push(commit);
        self.window.push(commit);
        if inst.is_mem {
            self.lsq.push(commit);
        }
        if let Some(d) = inst.dest {
            self.reg_ready[usize::from(d)] = complete;
        }
        obs.issued(inst, issue);
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

/// The unit of `fu_free[lo..hi]` that frees up first (the lowest index on
/// a tie) and its free time, picked by compare-select rather than branches.
#[inline]
fn first_free(fu_free: &[f64], lo: usize, hi: usize) -> (usize, f64) {
    let (mut unit_ix, mut unit_free) = (lo, fu_free[lo]);
    for (j, &t) in fu_free.iter().enumerate().take(hi).skip(lo + 1) {
        let sooner = t < unit_free;
        unit_ix = if sooner { j } else { unit_ix };
        unit_free = if sooner { t } else { unit_free };
    }
    (unit_ix, unit_free)
}
