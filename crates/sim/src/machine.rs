use crate::cache::CacheStats;
use crate::pipeline::{later, Cycles, Observe, Pipeline, LANES};
use crate::record::{Decoded, Recording};
use crate::{ClockGating, EnergyBreakdown, EnergyModel, SimConfig, Trace};
use dvs_ir::Cfg;
use dvs_vf::OperatingPoint;
use std::collections::BTreeMap;

/// Per-basic-block accumulation over one run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BlockStats {
    /// Dynamic invocations of the block.
    pub invocations: u64,
    /// Total wall-clock time attributed to the block, µs.
    pub time_us: f64,
    /// Total switched capacitance attributed to the block, nF.
    pub cap_nf: f64,
}

/// Results of executing one trace at one operating point, with the
/// analytical model's classification of its cycles
/// ([`Machine::run_points`]).
#[derive(Debug, Clone)]
pub struct RunStats {
    /// The `(V, f)` the run used.
    pub point: OperatingPoint,
    /// Wall-clock execution time, µs.
    pub total_time_us: f64,
    /// Execution time in CPU cycles at this point's frequency.
    pub total_cycles: f64,
    /// Committed instructions.
    pub committed_insts: u64,
    /// Energy accumulated across the run.
    pub energy: EnergyBreakdown,
    /// Per-block accumulations, indexed by block id.
    pub blocks: Vec<BlockStats>,
    /// Busy cycles that overlapped an outstanding main-memory miss
    /// (the analytical model's `Noverlap` contribution).
    pub overlap_cycles: f64,
    /// Busy cycles with no outstanding miss (`Ndependent` contribution).
    pub dependent_cycles: f64,
    /// Cycles stalled with a miss outstanding; in absolute time this is the
    /// analytical model's `tinvariant`.
    pub stall_cycles: f64,
    /// Cycles spent in L1/L2 hit latencies of data accesses (`Ncache`).
    pub cache_hit_cycles: f64,
    /// L1 data cache statistics.
    pub l1d: CacheStats,
    /// L1 instruction cache statistics.
    pub l1i: CacheStats,
    /// Unified L2 statistics.
    pub l2: CacheStats,
    /// Branch direction mispredictions.
    pub mispredicts: u64,
    /// Off-chip DRAM accesses.
    pub dram_accesses: u64,
}

impl RunStats {
    /// On-chip processor energy for the whole run, µJ.
    #[must_use]
    pub fn processor_energy_uj(&self) -> f64 {
        self.energy.processor_uj(self.point.voltage)
    }

    /// Committed instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        ipc(self.committed_insts, self.total_cycles)
    }

    /// `run` with its classification.
    fn classified(run: TimedRun, [overlap, dependent, stall]: [f64; 3]) -> Self {
        RunStats {
            point: run.point,
            total_time_us: run.total_time_us,
            total_cycles: run.total_cycles,
            committed_insts: run.committed_insts,
            energy: run.energy,
            blocks: run.blocks,
            overlap_cycles: overlap,
            dependent_cycles: dependent,
            stall_cycles: stall,
            cache_hit_cycles: run.cache_hit_cycles,
            l1d: run.l1d,
            l1i: run.l1i,
            l2: run.l2,
            mispredicts: run.mispredicts,
            dram_accesses: run.dram_accesses,
        }
    }
}

/// Results of executing one trace at one operating point without the
/// analytical model's classification ([`Machine::time_points`]): times,
/// energy, per-block attribution and event counts. Every field equals the
/// [`RunStats`] field of the same name bit for bit; there are no
/// `Noverlap`/`Ndependent`/stall fields to read as zero.
#[derive(Debug, Clone)]
pub struct TimedRun {
    /// The `(V, f)` the run used.
    pub point: OperatingPoint,
    /// Wall-clock execution time, µs.
    pub total_time_us: f64,
    /// Execution time in CPU cycles at this point's frequency.
    pub total_cycles: f64,
    /// Committed instructions.
    pub committed_insts: u64,
    /// Energy accumulated across the run.
    pub energy: EnergyBreakdown,
    /// Per-block accumulations, indexed by block id.
    pub blocks: Vec<BlockStats>,
    /// Cycles spent in L1/L2 hit latencies of data accesses (`Ncache`).
    pub cache_hit_cycles: f64,
    /// L1 data cache statistics.
    pub l1d: CacheStats,
    /// L1 instruction cache statistics.
    pub l1i: CacheStats,
    /// Unified L2 statistics.
    pub l2: CacheStats,
    /// Branch direction mispredictions.
    pub mispredicts: u64,
    /// Off-chip DRAM accesses.
    pub dram_accesses: u64,
}

impl TimedRun {
    /// Feeds this run's aggregates into the global `dvs-obs` sink (one call
    /// per timing pass, classified or not; a no-op unless collection is
    /// enabled).
    fn record_metrics(&self) {
        if !dvs_obs::enabled() {
            return;
        }
        dvs_obs::counter("sim.runs", 1);
        dvs_obs::counter("sim.cycles", self.total_cycles as u64);
        dvs_obs::counter("sim.insts", self.committed_insts);
        dvs_obs::counter("sim.l1d_misses", self.l1d.misses);
        dvs_obs::counter("sim.l1i_misses", self.l1i.misses);
        dvs_obs::counter("sim.l2_misses", self.l2.misses);
        dvs_obs::counter("sim.dram_accesses", self.dram_accesses);
        dvs_obs::counter("sim.mispredicts", self.mispredicts);
        dvs_obs::histogram("sim.run_ipc", ipc(self.committed_insts, self.total_cycles));
    }
}

fn ipc(committed_insts: u64, total_cycles: f64) -> f64 {
    if total_cycles > 0.0 {
        committed_insts as f64 / total_cycles
    } else {
        0.0
    }
}

/// What every timing pass reports of its operating point, classified
/// ([`RunStats`]) or not ([`TimedRun`]).
pub trait PointRun {
    /// The `(V, f)` the run used.
    fn point(&self) -> OperatingPoint;
    /// Wall-clock execution time, µs.
    fn total_time_us(&self) -> f64;
}

impl PointRun for RunStats {
    fn point(&self) -> OperatingPoint {
        self.point
    }

    fn total_time_us(&self) -> f64 {
        self.total_time_us
    }
}

impl PointRun for TimedRun {
    fn point(&self) -> OperatingPoint {
        self.point
    }

    fn total_time_us(&self) -> f64 {
        self.total_time_us
    }
}

impl std::fmt::Display for RunStats {
    /// A compact one-line summary, sim-outorder style.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.0} insts, {:.0} cycles (IPC {:.2}) in {:.1} µs @ {}; \
             E = {:.2} µJ; L1D miss {:.1}%, L2 miss {:.1}%, {} DRAM, {} mispredicts",
            self.committed_insts as f64,
            self.total_cycles,
            self.ipc(),
            self.total_time_us,
            self.point,
            self.processor_energy_uj(),
            100.0 * self.l1d.miss_rate(),
            100.0 * self.l2.miss_rate(),
            self.dram_accesses,
            self.mispredicts
        )
    }
}

/// The out-of-order machine: a dataflow timing model with the paper's
/// Table 2 resources.
///
/// Rather than stepping every cycle, each dynamic instruction's fetch,
/// dispatch, issue, completion and commit times are computed from its
/// dependences and from resource scoreboards (window and LSQ occupancy,
/// per-class functional units, fetch bandwidth, a single-channel
/// asynchronous memory). This captures the behaviours the paper's study
/// depends on — memory/computation overlap, frequency-invariant miss
/// service time, clock-gated stalls.
///
/// A call walks the caches, TLBs and branch predictor once
/// ([`Machine::record`]), adding up the clock-independent energy and event
/// counts as it goes, and times every requested operating point over that
/// record: a classified point in a pass of its own, unclassified points in
/// groups of up to [`LANES`](crate::LANES), each group in one pass that
/// steps every point's pipeline per recorded instruction. On two or more
/// cores the walk runs on a helper thread and the passes follow it at
/// once, on the caller and on the remaining cores, each waiting only at a
/// segment of [`SEGMENT_BLOCKS`](crate::SEGMENT_BLOCKS) dynamic blocks the
/// walk has not published yet. A timing pass takes each branch of the step
/// once per instruction for all its points, and does arithmetic per
/// instruction and point bounded by the operand count and the unit pool's
/// size. A pass that also classifies its cycles for the analytical model
/// ([`Machine::run_points`]) adds one bit per busy cycle, one word-level
/// popcount per 64 cycles of off-chip miss service, and one byte per cycle
/// between the fetch cycle and the latest issue; an unclassified pass
/// ([`Machine::time_points`]) adds nothing, or the bit per busy cycle and
/// point under [`ClockGating::Ungated`], whose idle energy counts the idle
/// cycles.
#[derive(Debug, Clone)]
pub struct Machine {
    config: SimConfig,
    energy: EnergyModel,
}

impl Machine {
    /// Creates a machine with the given configuration and energy model.
    #[must_use]
    pub fn new(config: SimConfig, energy: EnergyModel) -> Self {
        Machine { config, energy }
    }

    /// A machine with the paper's default configuration.
    #[must_use]
    pub fn paper_default() -> Self {
        Machine::new(SimConfig::default(), EnergyModel::default())
    }

    /// The machine configuration.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The energy model in use.
    #[must_use]
    pub fn energy_model(&self) -> &EnergyModel {
        &self.energy
    }

    /// Executes `trace` over `cfg` at `point`, with cold caches and
    /// predictor.
    ///
    /// # Panics
    ///
    /// Panics if the trace references blocks outside `cfg`.
    #[must_use]
    pub fn run(&self, cfg: &Cfg, trace: &Trace, point: OperatingPoint) -> RunStats {
        self.run_points(cfg, trace, &[point])
            .pop()
            .expect("one run per point")
    }

    /// Executes `trace` over `cfg` once per operating point, each run from
    /// cold caches and predictor, and returns the runs in `points` order,
    /// every one classified for the analytical model.
    ///
    /// The caches, TLBs and predictor see the same stream at every clock,
    /// so they are walked once ([`Machine::record`]); each point then gets
    /// its own cycle-domain timing pass over that record. Each result
    /// equals what a separate [`Machine::run`] at that point reports.
    ///
    /// The passes share nothing but the record, which the walk publishes a
    /// segment at a time, so they run concurrently with it and with each
    /// other: a scoped helper walks and the caller starts timing at once,
    /// with up to `min(passes, available_parallelism() - 1) - 1` more
    /// helpers; each pass waits only at a segment the walk has not
    /// reached, and every thread, the walker once done, takes the next
    /// untimed pass until none is left. With one CPU, a trace of fewer
    /// than [`FAN_OUT_MIN_INSTS`] dynamic instructions, or one pass over a
    /// record of one segment, the caller walks, then runs every pass, and
    /// spawns no thread (nor asks for the CPU count). Helpers record their
    /// `sim.record` span and one `sim.run` span per pass in the caller's
    /// `dvs_obs` domain; the per-run counters (`sim.runs` one per point)
    /// are recorded on the caller after the join, in `points` order.
    ///
    /// # Panics
    ///
    /// Panics if the trace references blocks outside `cfg`, and re-raises
    /// a panic from any thread's pass.
    #[must_use]
    pub fn run_points(&self, cfg: &Cfg, trace: &Trace, points: &[OperatingPoint]) -> Vec<RunStats> {
        self.pass_points(cfg, trace, points, |_| true)
            .into_iter()
            .map(|(run, classes)| {
                RunStats::classified(run, classes.expect("every pass classifies"))
            })
            .collect()
    }

    /// [`Machine::run_points`] without classifying any cycle, each result
    /// equal to that call's run on every field it keeps, bit for bit.
    ///
    /// After the one walk, the points go in ladder order in groups of at
    /// most [`LANES`] (3 points as one group, 7 as one, 13 as 8 then 5),
    /// and one pass times each group in lockstep: every branch of the step
    /// reads only the instruction and its recorded outcome, so it is taken
    /// once for the group, and each point's arithmetic runs in a lane of
    /// its own, in the one-point pass's order. The passes stream as
    /// `run_points`'s do, the caller taking the first group while a helper
    /// walks. On one CPU, a pass over 3 points took 1.5–1.6 one-point pass
    /// times, and over 8 points 2.8–2.9.
    ///
    /// # Panics
    ///
    /// Panics if the trace references blocks outside `cfg`, and re-raises
    /// a panic from any thread's pass.
    #[must_use]
    pub fn time_points(
        &self,
        cfg: &Cfg,
        trace: &Trace,
        points: &[OperatingPoint],
    ) -> Vec<TimedRun> {
        self.pass_points(cfg, trace, points, |_| false)
            .into_iter()
            .map(|(run, _)| run)
            .collect()
    }

    /// [`Machine::time_points`], except that the point at
    /// `points[classify]` is timed alone, in a pass that also classifies
    /// its cycles: that point's [`RunStats`] comes back next to the runs,
    /// from the same pass. The other points go in lockstep groups first.
    ///
    /// # Panics
    ///
    /// Panics if `classify` is not an index into `points` or the trace
    /// references blocks outside `cfg`, and re-raises a panic from any
    /// thread's pass.
    #[must_use]
    pub fn time_points_classifying(
        &self,
        cfg: &Cfg,
        trace: &Trace,
        points: &[OperatingPoint],
        classify: usize,
    ) -> (Vec<TimedRun>, RunStats) {
        assert!(classify < points.len(), "classify names one of the points");
        let mut runs = Vec::with_capacity(points.len());
        let mut classified = None;
        for (run, classes) in self.pass_points(cfg, trace, points, |ix| ix == classify) {
            if let Some(classes) = classes {
                classified = Some(RunStats::classified(run.clone(), classes));
            }
            runs.push(run);
        }
        (runs, classified.expect("the classified point was timed"))
    }

    /// One walk of `trace` and its timing passes, streamed behind the walk
    /// on the caller and on helper threads ([`Machine::stream`]): one
    /// classified pass for each point where `classify` holds of its index,
    /// and the other points in ladder order, in groups of at most
    /// [`LANES`] timed in lockstep by one pass each. The groups come first,
    /// so the caller takes the first while a helper walks. Returns the runs
    /// in `points` order, each with its classification if it has one, and
    /// records their counters.
    fn pass_points(
        &self,
        cfg: &Cfg,
        trace: &Trace,
        points: &[OperatingPoint],
        classify: impl Fn(usize) -> bool,
    ) -> Vec<(TimedRun, Option<[f64; 3]>)> {
        let (alone, grouped): (Vec<usize>, Vec<usize>) =
            (0..points.len()).partition(|&ix| classify(ix));
        let passes: Vec<(&[usize], bool)> = grouped
            .chunks(LANES)
            .map(|group| (group, false))
            .chain(alone.chunks(1).map(|ix| (ix, true)))
            .collect();
        let timed = self.stream(cfg, trace, passes.len(), |rec, job| {
            let _span = dvs_obs::span!("sim.run");
            let (ixs, classified) = passes[job];
            if classified {
                let (run, classes) = self.classified(rec, points[ixs[0]]);
                vec![(run, Some(classes))]
            } else {
                let group: Vec<OperatingPoint> = ixs.iter().map(|&ix| points[ix]).collect();
                let runs = self.unclassified(rec, &group);
                runs.into_iter().map(|run| (run, None)).collect()
            }
        });
        let mut runs: Vec<_> = points.iter().map(|_| None).collect();
        for ((ixs, _), pass) in passes.iter().zip(timed) {
            for (&ix, run) in ixs.iter().zip(pass) {
                runs[ix] = Some(run);
            }
        }
        let runs: Vec<_> = runs
            .into_iter()
            .map(|run| run.expect("every point is timed"))
            .collect();
        for (run, _) in &runs {
            run.record_metrics();
        }
        runs
    }

    /// One unclassified pass over a group of at most [`LANES`] points, each
    /// width its own monomorphized loop (padding a group to the next width
    /// would time lanes nobody reads).
    fn unclassified(&self, rec: &Recording<'_>, group: &[OperatingPoint]) -> Vec<TimedRun> {
        const _: () = assert!(LANES == 8, "one arm per group width");
        match group.len() {
            1 => self.lanes::<1>(rec, group),
            2 => self.lanes::<2>(rec, group),
            3 => self.lanes::<3>(rec, group),
            4 => self.lanes::<4>(rec, group),
            5 => self.lanes::<5>(rec, group),
            6 => self.lanes::<6>(rec, group),
            7 => self.lanes::<7>(rec, group),
            8 => self.lanes::<8>(rec, group),
            n => unreachable!("a group of {n} points"),
        }
    }

    /// An unclassified pass over `N` points. It watches nothing, unless
    /// the clock is ungated: then it marks each lane's busy cycles, so that
    /// the idle ones can be charged.
    fn lanes<const N: usize>(
        &self,
        rec: &Recording<'_>,
        group: &[OperatingPoint],
    ) -> Vec<TimedRun> {
        let points: [OperatingPoint; N] = group.try_into().expect("a point per lane");
        if self.energy.gating == ClockGating::Ungated {
            let mut busy: [BusyBitmap; N] = std::array::from_fn(|_| BusyBitmap::default());
            let mut runs = self.time(rec, points, &mut busy);
            for (run, busy) in runs.iter_mut().zip(&busy) {
                self.charge_idle(run, busy);
            }
            runs.into()
        } else {
            self.time(rec, points, &mut ()).into()
        }
    }

    /// A classified pass at `point`, on one lane: the run and its overlap,
    /// dependent and stall cycles.
    fn classified(&self, rec: &Recording<'_>, point: OperatingPoint) -> (TimedRun, [f64; 3]) {
        let mut seen = Classify::default();
        let [mut run] = self.time(rec, [point], &mut seen);
        self.charge_idle(&mut run, &seen.busy);
        // Stall time: idle cycles during off-chip miss service (this is the
        // absolute-time component, tinvariant).
        let stall = seen
            .busy
            .idle_within(&seen.miss_intervals, run.total_cycles);
        seen.compute.settle(usize::MAX, &seen.mem_active);
        let classes = [
            seen.compute.overlap() as f64,
            seen.compute.dependent() as f64,
            stall as f64,
        ];
        (run, classes)
    }

    /// Without perfect clock gating, every idle cycle of `run` still
    /// drives the clock tree. Charged globally (not attributed to blocks):
    /// it is a property of the gaps *between* work.
    fn charge_idle(&self, run: &mut TimedRun, busy: &BusyBitmap) {
        if self.energy.gating == ClockGating::Ungated {
            let idle = (run.total_cycles - busy.count() as f64).max(0.0);
            run.energy.core_nf += idle * self.energy.clock_nf;
        }
    }

    /// One cycle-domain timing pass over `rec` at `points`, one lane each,
    /// with `seen` watching every step; idle energy is left to the caller.
    /// The pass follows the walk segment by segment and takes the
    /// clock-independent charge from its totals.
    fn time<const N: usize, W: Watch>(
        &self,
        rec: &Recording<'_>,
        points: [OperatingPoint; N],
        seen: &mut W,
    ) -> [TimedRun; N] {
        let f = points.map(|p| p.frequency_mhz);
        let clock = Cycles {
            mem_latency: f.map(|f| self.config.mem_latency_us * f),
        };
        let mut pipe = Pipeline::<N>::new(&self.config);
        let mut times = vec![[0.0f64; N]; rec.table.num_blocks()];
        let mut block_mark = [0.0f64; N];

        for (dyn_blocks, mut outcomes) in rec.segments() {
            for dyn_block in dyn_blocks {
                let b = dyn_block.block.index();
                pipe.enter_block();
                for inst in rec.table.block(b) {
                    pipe.step(clock, inst, &outcomes.next(inst), seen);
                }
                for (l, fetch) in pipe.fetch().into_iter().enumerate() {
                    seen.block_end(l, fetch);
                }

                // Attribute elapsed time to this block invocation.
                let now = pipe.time();
                for l in 0..N {
                    times[b][l] += later(now[l] - block_mark[l], 0.0) / f[l];
                }
                block_mark = now;
            }
        }

        let totals = rec.totals();
        let total_cycles = pipe.time();
        std::array::from_fn(|l| {
            let mut blocks = totals.blocks.clone();
            for (block, time_us) in blocks.iter_mut().zip(&times) {
                block.time_us = time_us[l];
            }
            TimedRun {
                point: points[l],
                total_time_us: total_cycles[l] / f[l],
                total_cycles: total_cycles[l],
                committed_insts: rec.insts,
                energy: totals.energy,
                blocks,
                cache_hit_cycles: totals.cache_hit_cycles,
                l1d: totals.l1d,
                l1i: totals.l1i,
                l2: totals.l2,
                mispredicts: totals.mispredicts,
                dram_accesses: totals.dram_accesses,
            }
        })
    }
}

/// What a cycle-domain pass watches: an [`Observe`]r that also hears each
/// block occurrence end.
trait Watch: Observe {
    /// A block occurrence ended with lane `lane`'s fetch cursor at `fetch`.
    fn block_end(&mut self, _lane: usize, _fetch: f64) {}
}

/// An unclassified pass on a gated clock watches nothing.
impl Watch for () {}

/// An unclassified pass on an ungated clock watches each lane's busy
/// cycles.
impl<const N: usize> Observe for [BusyBitmap; N] {
    fn issued(&mut self, lane: usize, _inst: &Decoded, issue: f64) {
        self[lane].mark(issue);
    }
}

impl<const N: usize> Watch for [BusyBitmap; N] {}

/// What the classified pass watches in its one lane: the cycles in which
/// some instruction issued, the cycles in which a memory operation was in
/// flight, main memory's service intervals, and when compute issued.
#[derive(Default)]
struct Classify {
    busy: BusyBitmap,
    mem_active: BusyBitmap,
    miss_intervals: Vec<(f64, f64)>,
    compute: ComputeLog,
}

impl Observe for Classify {
    fn miss(&mut self, _lane: usize, from: f64, start: f64, end: f64) {
        self.miss_intervals.push((start, end));
        self.mem_active.mark_range(from, end);
    }

    fn hit(&mut self, _lane: usize, issue: f64, done: f64) {
        self.mem_active.mark_range(issue, done);
    }

    fn issued(&mut self, _lane: usize, inst: &Decoded, issue: f64) {
        self.busy.mark(issue);
        if inst.is_compute {
            self.compute.log(issue, inst.latency);
        }
    }
}

impl Watch for Classify {
    /// Every later mark of `mem_active` starts at or after the current
    /// fetch cycle (a fetch miss at its ready time, a data access at its
    /// issue), and the fetch cycle never decreases.
    fn block_end(&mut self, _lane: usize, fetch: f64) {
        self.compute.settle(fetch as usize, &self.mem_active);
    }
}

/// The fewest dynamic instructions for which a simulator call
/// ([`Machine::run_points`], [`Machine::time_points`],
/// [`Machine::run_scheduled`]) walks on a helper thread while its passes
/// follow on the caller and on more helpers; below it the caller walks,
/// then times, and starts no thread, as it does for a call whose one pass
/// follows a record of one segment.
///
/// A helper pays for itself once the work it takes outlasts its spawn and
/// join plus the `available_parallelism` call (which reads the cgroup CPU
/// quota). On a 2-core x86-64 host, release build, those took 36 µs
/// (median) and 17 µs. A one-lane unclassified pass took about 19 ns per
/// instruction over the six default inputs, and an 8-lane pass 2.8–2.9
/// times that. Timing a 32-instruction loop walked first against streamed,
/// 13 points (two passes, the walker taking the second) broke even near
/// 4,000 dynamic instructions. 3 points, one pass, gain only the walk's
/// overlap, which takes a second segment of the record, so a one-pass call
/// over one segment walks first at any length: on that loop (one segment
/// up to 65,536 instructions) a 3-point call took 175–187 µs walked first
/// against 219–341 µs streamed at 8,192 instructions, and 676–1,019 µs
/// against 725–1,189 µs at 32,768 (medians of six alternating runs of 300
/// calls). The bound stays at 4,096: dvs-check's random programs run at
/// most about 100 instructions and stay on the caller, and every bundled
/// trace (47,000 instructions or more, 3 to 78 segments) streams.
pub const FAN_OUT_MIN_INSTS: u64 = 4096;

/// The analytical model's Noverlap/Ndependent: the paper counts
/// *execution cycles of computation operations*, so each compute
/// instruction contributes its latency, classified by whether a memory
/// operation (hit or miss) was in flight in the cycle it issued.
///
/// Instructions issue out of program order, so a later memory operation
/// may still mark a cycle that already has compute issued in it. The log
/// therefore sums compute latency per cycle and classifies a cycle only
/// once no later mark can reach it, which keeps it as long as the distance
/// from fetch to the latest issue: millions of cycles on a run whose fetch
/// waits on memory while issue runs ahead. Each cycle's sum is one byte of
/// a power-of-two ring indexed by cycle, zeroed as the cycle settles; a sum
/// of [`ComputeLog::SPILLED`] or more keeps the byte at that value and its
/// exact sum in a map keyed by cycle. (A unit issues at most once per
/// cycle, so the paper machine sums at most 4 x 1 + 20 + 2 + 4 + 12 = 42 in
/// one cycle; the bundled workloads reach 22.) The counts are integers, so
/// grouping them by cycle does not change the sums.
struct ComputeLog {
    /// The first cycle not yet classified.
    first: usize,
    /// One past the latest cycle logged.
    end: usize,
    /// Compute latency issued in cycle `c` (`first <= c < end`), up to
    /// [`ComputeLog::SPILLED`], at `ring[c % ring.len()]`; zero elsewhere.
    ring: Vec<u8>,
    /// The sums of the cycles whose byte reads [`ComputeLog::SPILLED`].
    spilled: BTreeMap<usize, u64>,
    /// Settled latency: `[dependent, overlap]`.
    settled: [u64; 2],
}

impl Default for ComputeLog {
    fn default() -> Self {
        ComputeLog {
            first: 0,
            end: 0,
            ring: vec![0; 64],
            spilled: BTreeMap::new(),
            settled: [0; 2],
        }
    }
}

impl ComputeLog {
    /// The byte of a cycle whose sum lives in `spilled`.
    const SPILLED: u8 = u8::MAX;

    /// Logs a compute instruction issued at `issue`, which is never before
    /// the cycles already classified.
    fn log(&mut self, issue: f64, latency: u32) {
        let cycle = issue as usize;
        if cycle - self.first >= self.ring.len() {
            self.grow(cycle - self.first + 1);
        }
        self.end = self.end.max(cycle + 1);
        let mask = self.ring.len() - 1;
        let at = &mut self.ring[cycle & mask];
        let sum = u64::from(latency)
            + match *at {
                Self::SPILLED => self.spilled[&cycle],
                small => u64::from(small),
            };
        match u8::try_from(sum) {
            Ok(small) if small < Self::SPILLED => *at = small,
            _ => {
                *at = Self::SPILLED;
                self.spilled.insert(cycle, sum);
            }
        }
    }

    /// Re-lays the open cycles out in a ring of at least `span` slots.
    fn grow(&mut self, span: usize) {
        let mut ring = vec![0; span.next_power_of_two()];
        let (old, new) = (self.ring.len() - 1, ring.len() - 1);
        for c in self.first..self.end {
            ring[c & new] = self.ring[c & old];
        }
        self.ring = ring;
    }

    /// Classifies every cycle before `open`, the earliest cycle a later
    /// mark of `mem_active` can reach, one word of `mem_active` at a time.
    fn settle(&mut self, open: usize, mem_active: &BusyBitmap) {
        let mask = self.ring.len() - 1;
        let stop = open.min(self.end);
        let mut c = self.first;
        while c < stop {
            let word = mem_active.word(c / 64);
            let word_stop = stop.min((c / 64 + 1) * 64);
            for c in c..word_stop {
                let at = std::mem::take(&mut self.ring[c & mask]);
                let lat = if at == Self::SPILLED {
                    self.spilled.remove(&c).expect("a spilled cycle's sum")
                } else {
                    u64::from(at)
                };
                self.settled[((word >> (c % 64)) & 1) as usize] += lat;
            }
            c = word_stop;
        }
        self.first = self.first.max(open);
    }

    /// Latency issued while a memory operation was in flight.
    fn overlap(&self) -> u64 {
        self.settled[1]
    }

    /// Latency issued with no memory operation in flight.
    fn dependent(&self) -> u64 {
        self.settled[0]
    }
}

/// Grow-on-demand bitmap of cycles in which at least one instruction
/// issued.
#[derive(Default)]
struct BusyBitmap {
    words: Vec<u64>,
}

impl BusyBitmap {
    fn mark(&mut self, cycle: f64) {
        let c = cycle as usize;
        let w = c / 64;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1 << (c % 64);
    }

    /// Marks every cycle in `[start, end)`.
    fn mark_range(&mut self, start: f64, end: f64) {
        let s = start as usize;
        let e = end as usize;
        if e <= s {
            return;
        }
        let we = e / 64;
        if we >= self.words.len() {
            self.words.resize(we + 1, 0);
        }
        let (ws, wend) = (s / 64, (e - 1) / 64);
        if ws == wend {
            let mask = (!0u64 << (s % 64)) & (!0u64 >> (63 - (e - 1) % 64));
            self.words[ws] |= mask;
        } else {
            self.words[ws] |= !0u64 << (s % 64);
            for w in (ws + 1)..wend {
                self.words[w] = !0;
            }
            self.words[wend] |= !0u64 >> (63 - (e - 1) % 64);
        }
    }

    fn count(&self) -> u64 {
        self.words.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    /// The marks of cycles `64 w..64 (w + 1)`, cycle `64 w` in bit 0.
    fn word(&self, w: usize) -> u64 {
        self.words.get(w).copied().unwrap_or(0)
    }

    /// Marked cycles in `[s, e)`, one popcount per word.
    fn count_in(&self, s: usize, e: usize) -> usize {
        if e <= s {
            return 0;
        }
        let ones = |w: u64| w.count_ones() as usize;
        let (ws, wend) = (s / 64, (e - 1) / 64);
        let head = !0u64 << (s % 64);
        let tail = !0u64 >> (63 - (e - 1) % 64);
        if ws == wend {
            return ones(self.word(ws) & head & tail);
        }
        let inner: usize = self.words[(ws + 1).min(self.words.len())..wend.min(self.words.len())]
            .iter()
            .map(|&w| ones(w))
            .sum();
        ones(self.word(ws) & head) + inner + ones(self.word(wend) & tail)
    }

    /// Over the (disjoint, sorted) miss-service intervals, counts the idle
    /// cycles (the stall), clipping each interval at `total_cycles`.
    fn idle_within(&self, intervals: &[(f64, f64)], total_cycles: f64) -> usize {
        intervals
            .iter()
            .map(|&(s, e)| {
                let s = s.max(0.0) as usize;
                let e = (e.min(total_cycles).max(0.0)) as usize;
                e.saturating_sub(s) - self.count_in(s, e)
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceBuilder;
    use dvs_ir::{CfgBuilder, Inst, MemWidth, Opcode, Reg};
    use dvs_vf::OperatingPoint;

    /// A looped compute program: entry -> body(32 insts) x iters -> exit.
    /// Looping amortizes cold-start I-cache misses, which would otherwise
    /// dominate short traces.
    fn compute_loop(iters: usize, chained: bool) -> (Cfg, Trace) {
        let mut b = CfgBuilder::new("line");
        let e = b.block("entry");
        let m = b.block("body");
        let x = b.block("exit");
        for i in 0..32 {
            if chained {
                b.push(m, Inst::alu(Opcode::IntAlu, Reg(1), &[Reg(1)]));
            } else {
                let d = Reg((1 + i % 30) as u8);
                b.push(m, Inst::alu(Opcode::IntAlu, d, &[Reg(0)]));
            }
        }
        b.edge(e, m);
        b.edge(m, m);
        b.edge(m, x);
        let cfg = b.finish(e, x).unwrap();
        let mut tb = TraceBuilder::new(&cfg);
        tb.step(e, vec![]);
        for _ in 0..iters {
            tb.step(m, vec![]);
        }
        tb.step(x, vec![]);
        let t = tb.finish().unwrap();
        (cfg, t)
    }

    fn fast() -> OperatingPoint {
        OperatingPoint::new(1.65, 800.0)
    }

    fn slow() -> OperatingPoint {
        OperatingPoint::new(0.7, 200.0)
    }

    #[test]
    fn independent_alu_ops_reach_high_ipc() {
        let (cfg, t) = compute_loop(200, false);
        let m = Machine::paper_default();
        let s = m.run(&cfg, &t, fast());
        assert_eq!(s.committed_insts, 200 * 32);
        // 4-wide machine, no dependences: IPC should approach 4.
        assert!(s.ipc() > 2.5, "ipc = {}", s.ipc());
    }

    #[test]
    fn dependent_chain_serializes() {
        // r1 <- r1 chains: IPC ~ 1, far slower than the independent mix.
        let (cfg, t) = compute_loop(200, true);
        let s = Machine::paper_default().run(&cfg, &t, fast());
        assert!(s.ipc() < 1.2, "ipc = {}", s.ipc());
        let (cfg2, t2) = compute_loop(200, false);
        let s2 = Machine::paper_default().run(&cfg2, &t2, fast());
        assert!(
            s.total_cycles > 1.8 * s2.total_cycles,
            "chain {} vs parallel {}",
            s.total_cycles,
            s2.total_cycles
        );
    }

    #[test]
    fn compute_time_scales_inversely_with_frequency() {
        let (cfg, t) = compute_loop(500, false);
        let m = Machine::paper_default();
        let hi = m.run(&cfg, &t, fast());
        let lo = m.run(&cfg, &t, slow());
        // Pure compute: cycle counts agree up to cold-start I-misses (whose
        // in-cycle cost depends on frequency), and wall-clock time scales by
        // the 4x frequency ratio.
        let cyc_ratio = hi.total_cycles / lo.total_cycles;
        assert!((cyc_ratio - 1.0).abs() < 0.05, "cycle ratio = {cyc_ratio}");
        let ratio = lo.total_time_us / hi.total_time_us;
        assert!((ratio - 4.0).abs() < 0.2, "time ratio = {ratio}");
    }

    /// Program with loads streaming through a working set far larger than
    /// L2, so most loads go to memory.
    fn memory_bound(n_loads: usize, stride: u64) -> (Cfg, Trace) {
        let mut b = CfgBuilder::new("membound");
        let e = b.block("entry");
        let body = b.block("body");
        let x = b.block("exit");
        b.push(body, Inst::load(Reg(1), Reg(2), MemWidth::B4));
        b.edge(e, body);
        b.edge(body, body);
        b.edge(body, x);
        let cfg = b.finish(e, x).unwrap();
        let mut tb = TraceBuilder::new(&cfg);
        tb.step(e, vec![]);
        for i in 0..n_loads {
            tb.step(body, vec![0x100_0000 + i as u64 * stride]);
        }
        tb.step(x, vec![]);
        let t = tb.finish().unwrap();
        (cfg, t)
    }

    #[test]
    fn memory_bound_time_does_not_scale_with_frequency() {
        // Strided misses: every load leaves the chip.
        let (cfg, t) = memory_bound(500, 4096);
        let m = Machine::paper_default();
        let hi = m.run(&cfg, &t, fast());
        let lo = m.run(&cfg, &t, slow());
        assert!(hi.dram_accesses > 400, "should miss: {}", hi.dram_accesses);
        // Memory-dominated: slowing the clock 4x should cost far less than
        // 4x in wall-clock time.
        let ratio = lo.total_time_us / hi.total_time_us;
        assert!(ratio < 2.0, "memory-bound dilation ratio = {ratio}");
        // And the invariant stall time is visible.
        assert!(hi.stall_cycles > 0.0);
    }

    #[test]
    fn cache_resident_loads_mostly_hit() {
        // 64 distinct hot addresses cycled many times: after warm-up, hits.
        let (cfg, t) = memory_bound(2000, 0); // same address every time
        let s = Machine::paper_default().run(&cfg, &t, fast());
        assert!(s.dram_accesses <= 4, "dram = {}", s.dram_accesses);
        assert!(s.l1d.miss_rate() < 0.01);
        assert!(s.cache_hit_cycles > 1500.0);
    }

    #[test]
    fn energy_scales_with_v_squared() {
        let (cfg, t) = compute_loop(100, false);
        let m = Machine::paper_default();
        let hi = m.run(&cfg, &t, fast());
        let lo = m.run(&cfg, &t, slow());
        let want = (0.7f64 * 0.7) / (1.65 * 1.65);
        let got = lo.processor_energy_uj() / hi.processor_energy_uj();
        assert!((got - want).abs() < 1e-9, "got {got} want {want}");
    }

    #[test]
    fn block_times_sum_to_total() {
        let (cfg, t) = memory_bound(300, 512);
        let s = Machine::paper_default().run(&cfg, &t, fast());
        let sum: f64 = s.blocks.iter().map(|b| b.time_us).sum();
        assert!(
            (sum - s.total_time_us).abs() < 1e-6 * s.total_time_us.max(1.0),
            "sum {sum} vs total {}",
            s.total_time_us
        );
        let total_inv: u64 = s.blocks.iter().map(|b| b.invocations).sum();
        assert_eq!(total_inv, t.len() as u64);
    }

    #[test]
    fn classification_cycles_are_consistent() {
        let (cfg, t) = memory_bound(400, 4096);
        let s = Machine::paper_default().run(&cfg, &t, fast());
        // Noverlap + Ndependent equals the total execution cycles of
        // computation (non-memory) instructions: each contributes its
        // latency exactly once, so the sum is bounded by committed
        // instructions times the largest latency class.
        let compute = s.overlap_cycles + s.dependent_cycles;
        // This trace is pure memory traffic (its loop body is a lone load),
        // so there are no computation cycles at all — and the sum is always
        // bounded by committed instructions times the worst latency class.
        assert!(
            compute <= s.committed_insts as f64 * 20.0,
            "compute latency sum {compute} looks wrong"
        );
        assert!(s.stall_cycles <= s.total_cycles + 1.0);
        // A memory-bound run must show stall or overlap.
        assert!(s.stall_cycles + s.overlap_cycles > 0.0);
    }

    #[test]
    fn branchy_code_pays_for_mispredictions() {
        // A loop whose exit branch alternates unpredictably... use a
        // pseudo-random taken pattern by alternating long/short runs.
        let mut b = CfgBuilder::new("branchy");
        let e = b.block("entry");
        let h = b.block("head");
        let t1 = b.block("t1");
        let t2 = b.block("t2");
        let x = b.block("exit");
        b.push(h, Inst::branch(Reg(1)));
        b.push(t1, Inst::alu(Opcode::IntAlu, Reg(2), &[Reg(0)]));
        b.push(t2, Inst::alu(Opcode::IntAlu, Reg(3), &[Reg(0)]));
        b.edge(e, h);
        b.edge(h, t1);
        b.edge(h, t2);
        b.edge(t1, h);
        b.edge(t2, h);
        b.edge(h, x);
        let cfg = b.finish(e, x).unwrap();
        let mut tb = TraceBuilder::new(&cfg);
        tb.step(e, vec![]);
        let mut rng = 0x9E3779B97F4A7C15u64;
        for _ in 0..300 {
            tb.step(h, vec![]);
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
            if (rng >> 62) & 1 == 1 {
                tb.step(t1, vec![]);
            } else {
                tb.step(t2, vec![]);
            }
        }
        tb.step(h, vec![]);
        tb.step(x, vec![]);
        let t = tb.finish().unwrap();
        let s = Machine::paper_default().run(&cfg, &t, fast());
        assert!(s.mispredicts > 20, "mispredicts = {}", s.mispredicts);
    }
}

#[cfg(test)]
mod oversized_block_tests {
    use super::*;
    use crate::TraceBuilder;
    use dvs_ir::{CfgBuilder, Inst, Opcode, Reg};

    #[test]
    fn blocks_longer_than_the_pc_stride_run_fine() {
        let mut b = CfgBuilder::new("big");
        let e = b.block("entry");
        let big = b.block("big");
        let x = b.block("exit");
        for i in 0..600 {
            b.push(
                big,
                Inst::alu(Opcode::IntAlu, Reg((1 + i % 30) as u8), &[Reg(0)]),
            );
        }
        b.edge(e, big);
        b.edge(big, x);
        let cfg = b.finish(e, x).unwrap();
        let mut tb = TraceBuilder::new(&cfg);
        tb.step(e, vec![]).step(big, vec![]).step(x, vec![]);
        let t = tb.finish().unwrap();
        let s = Machine::paper_default().run(&cfg, &t, OperatingPoint::new(1.65, 800.0));
        assert_eq!(s.committed_insts, 600);
        // The wrapped tail hits the block's own warm lines: at most
        // BLOCK_STRIDE/32 = 32 I-lines are ever touched.
        assert!(s.l1i.misses <= 33, "I-misses = {}", s.l1i.misses);
    }
}

#[cfg(test)]
mod display_tests {
    use super::*;
    use crate::TraceBuilder;
    use dvs_ir::CfgBuilder;

    #[test]
    fn run_stats_display_is_informative() {
        let mut b = CfgBuilder::new("d");
        let e = b.block("entry");
        let x = b.block("exit");
        b.push(e, dvs_ir::Inst::nop());
        b.edge(e, x);
        let cfg = b.finish(e, x).unwrap();
        let mut tb = TraceBuilder::new(&cfg);
        tb.step(e, vec![]).step(x, vec![]);
        let t = tb.finish().unwrap();
        let s = Machine::paper_default().run(&cfg, &t, OperatingPoint::new(1.3, 600.0));
        let text = s.to_string();
        assert!(text.contains("IPC"));
        assert!(text.contains("600 MHz"));
        assert!(text.contains("µJ"));
    }
}

#[cfg(test)]
mod gating_tests {
    use super::*;
    use crate::{ClockGating, EnergyModel, SimConfig, TraceBuilder};
    use dvs_ir::{CfgBuilder, Inst, MemWidth, Reg};

    #[test]
    fn ungated_clock_charges_stall_cycles() {
        // A miss-heavy pointer walk has long idle stretches.
        let mut b = CfgBuilder::new("g");
        let e = b.block("entry");
        let body = b.block("body");
        let x = b.block("exit");
        b.push(body, Inst::load(Reg(1), Reg(1), MemWidth::B4));
        b.edge(e, body);
        b.edge(body, body);
        b.edge(body, x);
        let cfg = b.finish(e, x).unwrap();
        let mut tb = TraceBuilder::new(&cfg);
        tb.step(e, vec![]);
        for i in 0..300u64 {
            tb.step(body, vec![0x40_0000 + i * 4096]);
        }
        tb.step(x, vec![]);
        let t = tb.finish().unwrap();

        let perfect = Machine::paper_default().run(&cfg, &t, OperatingPoint::new(1.65, 800.0));
        let ungated_model = EnergyModel {
            gating: ClockGating::Ungated,
            ..EnergyModel::default()
        };
        let ungated = Machine::new(SimConfig::default(), ungated_model).run(
            &cfg,
            &t,
            OperatingPoint::new(1.65, 800.0),
        );

        // Same timing, strictly more energy without gating.
        assert!((perfect.total_cycles - ungated.total_cycles).abs() < 1e-9);
        assert!(
            ungated.processor_energy_uj() > perfect.processor_energy_uj() * 1.2,
            "ungated {} vs perfect {}",
            ungated.processor_energy_uj(),
            perfect.processor_energy_uj()
        );
    }
}
