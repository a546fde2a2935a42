use dvs_compiler::DeadlineScheme;
use dvs_ir::{Cfg, Profile};
use dvs_sim::{Machine, ModeProfiler, RunStats, Trace};
use dvs_vf::VoltageLadder;
use dvs_workloads::Benchmark;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Cached per-benchmark artifacts: CFG, default-input trace and deadline
/// scheme. Per-ladder profiles live in a separate [`Context`] cache so that
/// `BenchData` is immutable and can be shared across worker threads.
pub struct BenchData {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Its CFG.
    pub cfg: Cfg,
    /// Trace of the suite-default input.
    pub trace: Trace,
    /// Fig.-16 deadline scheme measured at the XScale 200/600/800 points.
    pub scheme: DeadlineScheme,
}

/// The paper's Table 4 runtimes at 200 MHz, in µs, used to scale regulator
/// capacitances so each benchmark keeps the paper's transition-cost to
/// runtime ratio despite our ~10-350x shorter scaled-down inputs.
#[must_use]
pub fn paper_t200_us(benchmark: Benchmark) -> f64 {
    match benchmark {
        Benchmark::AdpcmEncode => 29_500.0,
        Benchmark::MpegDecode => 557_600.0,
        Benchmark::GsmEncode => 334_000.0,
        Benchmark::Epic => 152_600.0,
        Benchmark::Ghostscript => 2_000.0,
        Benchmark::Mpg123 => 177_700.0,
    }
}

/// The scale-equivalent of the paper's "typical" 10 µF regulator for
/// `benchmark`: capacitance shrinks with the runtime ratio, so a transition
/// costs the same *fraction* of the run as the paper's 12 µs / 1.2 µJ did.
#[must_use]
pub fn scaled_capacitance_uf(benchmark: Benchmark, our_t200_us: f64) -> f64 {
    10.0 * our_t200_us / paper_t200_us(benchmark)
}

/// The ladder used throughout the experiments, [`VoltageLadder::paper`]
/// (every experiment asks for 3, 7 or 13 levels).
#[must_use]
pub fn ladder_of(levels: usize) -> VoltageLadder {
    VoltageLadder::paper(levels).expect("experiment ladders have at least 2 levels")
}

/// A compute-once cell shared between threads: the map lock is held only
/// long enough to hand out the cell, so concurrent requests for *different*
/// keys build in parallel while requests for the *same* key block on the
/// one thread doing the work.
type Slot<T> = Arc<OnceLock<T>>;
type Cache<K, V> = Mutex<HashMap<K, Slot<V>>>;

fn slot_of<K: std::hash::Hash + Eq, V>(map: &Cache<K, V>, key: K) -> Slot<V> {
    map.lock()
        .expect("bench cache lock poisoned")
        .entry(key)
        .or_default()
        .clone()
}

/// Shared experiment context: the machine plus lazily-built benchmark data.
///
/// All caches are internally synchronized, so experiments borrow the
/// context immutably (`&Context`) and may query it from many threads at
/// once — each CFG, trace and per-ladder profile is still built exactly
/// once.
pub struct Context {
    /// The simulated machine (paper Table 2 configuration).
    pub machine: Machine,
    jobs: usize,
    benches: Cache<&'static str, Arc<BenchData>>,
    profiles: Cache<(&'static str, usize), (Profile, RunStats)>,
}

impl Context {
    /// A fresh context with the paper-default machine.
    #[must_use]
    pub fn new() -> Self {
        Context::with_jobs(1)
    }

    /// A fresh context whose grid experiments fan cells out over `jobs`
    /// worker threads (clamped to at least 1).
    #[must_use]
    pub fn with_jobs(jobs: usize) -> Self {
        Context {
            machine: Machine::paper_default(),
            jobs: jobs.max(1),
            benches: Mutex::new(HashMap::new()),
            profiles: Mutex::new(HashMap::new()),
        }
    }

    /// Worker threads grid experiments may use for independent cells.
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Maps `f` over `items` on a [`dvs_runtime::Pool`] sized to this
    /// context's job count, preserving item order in the results. Tasks
    /// record in the caller's metric domain, so per-experiment [`dvs_obs`]
    /// attribution survives the fan-out.
    pub fn par_map<I, T, F>(&self, items: Vec<I>, f: F) -> Vec<T>
    where
        I: Send,
        T: Send,
        F: Fn(usize, I) -> T + Sync,
    {
        dvs_runtime::Pool::new(self.jobs).map(items, f)
    }

    /// The (cached) data for `benchmark`, building CFG, trace and deadline
    /// scheme on first use.
    pub fn bench(&self, benchmark: Benchmark) -> Arc<BenchData> {
        let cell = slot_of(&self.benches, benchmark.name());
        cell.get_or_init(|| {
            let cfg = benchmark.build_cfg();
            let trace = benchmark.trace(&cfg, &benchmark.default_input());
            let scheme = DeadlineScheme::measure(&self.machine, &cfg, &trace);
            Arc::new(BenchData {
                benchmark,
                cfg,
                trace,
                scheme,
            })
        })
        .clone()
    }

    /// Convenience: profile of `benchmark` on an `levels`-mode ladder, and
    /// the fastest mode's run, classified for the analytical model in the
    /// same walk ([`ModeProfiler::profile_with_fastest`]). Returns clones
    /// of the cached data to side-step borrow entanglement in experiments
    /// that hold several benchmarks at once.
    pub fn profile_of(&self, benchmark: Benchmark, levels: usize) -> (Profile, RunStats) {
        let cell = slot_of(&self.profiles, (benchmark.name(), levels));
        cell.get_or_init(|| {
            let bd = self.bench(benchmark);
            let ladder = ladder_of(levels);
            let (profile, _, fastest) = ModeProfiler::new(self.machine.clone())
                .profile_with_fastest(&bd.cfg, &bd.trace, &ladder);
            (profile, fastest)
        })
        .clone()
    }
}

impl Default for Context {
    fn default() -> Self {
        Context::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_caches_benchmarks() {
        let ctx = Context::new();
        let b = Benchmark::Ghostscript;
        let t1 = ctx.bench(b).scheme;
        let t2 = ctx.bench(b).scheme;
        assert_eq!(t1, t2);
        assert!(t1.t_slow_us > t1.t_fast_us);
    }

    #[test]
    fn context_is_shareable_across_threads() {
        let ctx = Context::with_jobs(4);
        let b = Benchmark::Ghostscript;
        let schemes = ctx.par_map(vec![(); 8], |_, ()| ctx.bench(b).scheme);
        assert!(schemes.windows(2).all(|w| w[0] == w[1]));
        // The cache holds exactly one entry despite 8 concurrent requests.
        assert_eq!(ctx.benches.lock().unwrap().len(), 1);
    }

    #[test]
    fn profiles_are_computed_once_per_ladder() {
        let ctx = Context::with_jobs(4);
        let b = Benchmark::Ghostscript;
        let profiles = ctx.par_map(vec![(); 4], |_, ()| ctx.profile_of(b, 3).0);
        assert_eq!(ctx.profiles.lock().unwrap().len(), 1);
        let t0 = profiles[0].total_time_at(0);
        assert!(profiles.iter().all(|p| p.total_time_at(0) == t0));
    }
}
