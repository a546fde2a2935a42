use crate::{BlockId, Cfg, EdgeId, IrError, LocalPath};
use std::collections::BTreeMap;

/// Per-invocation cost of one basic block under one DVS mode, measured by
/// the profiler: the paper's `T(j,m)` (µs) and `E(j,m)` (µJ).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BlockModeCost {
    /// Average wall-clock time of one invocation, in µs.
    pub time_us: f64,
    /// Average energy of one invocation, in µJ.
    pub energy_uj: f64,
}

/// Profiling data for one program on one input, in exactly the shape the
/// paper's MILP consumes:
///
/// * `G(i,j)` — how many times each edge was traversed ([`Profile::edge_count`]);
/// * `D(h,i,j)` — how many times each [`LocalPath`] was taken
///   ([`Profile::local_path_count`]);
/// * `T(j,m)`, `E(j,m)` — per-invocation time/energy of each block under
///   each mode ([`Profile::block_cost`]).
///
/// Edge and local-path counts are mode-independent (the program's logical
/// behaviour does not change with frequency — paper assumption 1), so they
/// are profiled once; block costs are profiled once per mode.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    num_modes: usize,
    /// `[block][mode]` costs.
    block_costs: Vec<Vec<BlockModeCost>>,
    /// `[edge]` traversal counts.
    edge_counts: Vec<u64>,
    /// Local path counts (BTreeMap for deterministic iteration).
    path_counts: BTreeMap<LocalPath, u64>,
    /// `[block]` invocation counts.
    block_counts: Vec<u64>,
}

impl Profile {
    /// Number of DVS modes profiled.
    #[must_use]
    pub fn num_modes(&self) -> usize {
        self.num_modes
    }

    /// Number of blocks profiled.
    #[must_use]
    pub fn num_blocks(&self) -> usize {
        self.block_costs.len()
    }

    /// Per-invocation cost of `block` under `mode`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[must_use]
    pub fn block_cost(&self, block: BlockId, mode: usize) -> BlockModeCost {
        self.block_costs[block.0][mode]
    }

    /// Traversal count of `edge` (the paper's `G(i,j)`).
    #[must_use]
    pub fn edge_count(&self, edge: EdgeId) -> u64 {
        self.edge_counts[edge.0]
    }

    /// Invocation count of `block` (sum of its incoming edge counts, plus
    /// one for the entry block per run).
    #[must_use]
    pub fn block_count(&self, block: BlockId) -> u64 {
        self.block_counts[block.0]
    }

    /// Count of a specific local path (the paper's `D(h,i,j)`); zero if the
    /// path never executed.
    #[must_use]
    pub fn local_path_count(&self, path: LocalPath) -> u64 {
        self.path_counts.get(&path).copied().unwrap_or(0)
    }

    /// All executed local paths with their counts, in deterministic order.
    pub fn local_paths(&self) -> impl Iterator<Item = (LocalPath, u64)> + '_ {
        self.path_counts.iter().map(|(&p, &c)| (p, c))
    }

    /// Total energy (µJ) of the whole profiled run if every block ran at
    /// `mode`, ignoring transition costs (there are none at a single mode).
    #[must_use]
    pub fn total_energy_at(&self, mode: usize) -> f64 {
        self.block_costs
            .iter()
            .zip(&self.block_counts)
            .map(|(costs, &n)| costs[mode].energy_uj * n as f64)
            .sum()
    }

    /// Total run time (µs) at a single `mode`, ignoring transition costs.
    #[must_use]
    pub fn total_time_at(&self, mode: usize) -> f64 {
        self.block_costs
            .iter()
            .zip(&self.block_counts)
            .map(|(costs, &n)| costs[mode].time_us * n as f64)
            .sum()
    }

    /// Total energy attributable to `block` at `mode` across the whole run.
    #[must_use]
    pub fn block_total_energy(&self, block: BlockId, mode: usize) -> f64 {
        self.block_costs[block.0][mode].energy_uj * self.block_counts[block.0] as f64
    }

    /// Checks the profile's counting half against `cfg`: dimensions must
    /// match, the entry must have executed at least once, and every block's
    /// invocation count must conserve flow (equal the traversal counts of
    /// its incoming edges, and of its outgoing edges for non-exit blocks).
    ///
    /// Profiles built by [`ProfileBuilder::record_walk`] satisfy this by
    /// construction; hand-assembled or merged profiles may not, and feeding
    /// an inconsistent profile to the MILP silently skews the objective —
    /// hence a typed check instead of a debug assertion.
    ///
    /// # Errors
    ///
    /// [`IrError::Malformed`] on dimension mismatch,
    /// [`IrError::ZeroFrequencyEntry`] when the entry never executed, and
    /// [`IrError::InconsistentFlow`] naming the first block (lowest id)
    /// whose counts disagree.
    pub fn validate(&self, cfg: &Cfg) -> Result<(), IrError> {
        if self.block_counts.len() != cfg.num_blocks()
            || self.block_costs.len() != cfg.num_blocks()
            || self.edge_counts.len() != cfg.num_edges()
        {
            return Err(IrError::Malformed(format!(
                "profile dimensions ({} blocks, {} edges) do not match CFG ({} blocks, {} edges)",
                self.block_counts.len(),
                self.edge_counts.len(),
                cfg.num_blocks(),
                cfg.num_edges()
            )));
        }
        let runs = self.block_count(cfg.entry());
        if runs == 0 {
            return Err(IrError::ZeroFrequencyEntry(cfg.entry()));
        }
        for b in (0..cfg.num_blocks()).map(BlockId) {
            let count = self.block_count(b);
            if b != cfg.entry() {
                let inflow: u64 = cfg.in_edges(b).map(|e| self.edge_count(e)).sum();
                if inflow != count {
                    return Err(IrError::InconsistentFlow(b));
                }
            }
            if b != cfg.exit() {
                let outflow: u64 = cfg.out_edges(b).map(|e| self.edge_count(e)).sum();
                if outflow != count {
                    return Err(IrError::InconsistentFlow(b));
                }
            }
        }
        Ok(())
    }

    /// Combines profiles of the *same program* on different inputs into a
    /// weighted-average profile: counts are weighted sums (rounded), block
    /// costs are count-weighted averages. This is the naive alternative to
    /// the §4.3 multi-category formulation — one blended profile instead of
    /// per-category deadline constraints — kept as a comparison baseline.
    ///
    /// # Panics
    ///
    /// Panics if the profiles disagree in block/edge/mode dimensions or if
    /// `parts` is empty.
    #[must_use]
    pub fn weighted_merge(parts: &[(f64, &Profile)]) -> Profile {
        let (_, first) = parts.first().expect("at least one profile");
        let num_modes = first.num_modes;
        let nblocks = first.block_costs.len();
        let nedges = first.edge_counts.len();
        for (_, p) in parts {
            assert_eq!(p.num_modes, num_modes, "mode count mismatch");
            assert_eq!(p.block_costs.len(), nblocks, "block count mismatch");
            assert_eq!(p.edge_counts.len(), nedges, "edge count mismatch");
        }
        let wsum: f64 = parts.iter().map(|(w, _)| w).sum();
        assert!(wsum > 0.0, "weights must sum to a positive value");

        let mut block_counts = vec![0u64; nblocks];
        let mut edge_counts = vec![0u64; nedges];
        let mut path_counts: BTreeMap<LocalPath, u64> = BTreeMap::new();
        let mut block_costs = vec![vec![BlockModeCost::default(); num_modes]; nblocks];

        for b in 0..nblocks {
            let weighted_invocations: f64 = parts
                .iter()
                .map(|(w, p)| w * p.block_counts[b] as f64)
                .sum();
            block_counts[b] = (weighted_invocations / wsum).round() as u64;
            for (m, cost) in block_costs[b].iter_mut().enumerate().take(num_modes) {
                // Cost per invocation averaged by invocation mass.
                let mut t = 0.0;
                let mut e = 0.0;
                for (w, p) in parts {
                    let n = w * p.block_counts[b] as f64;
                    t += n * p.block_costs[b][m].time_us;
                    e += n * p.block_costs[b][m].energy_uj;
                }
                if weighted_invocations > 0.0 {
                    *cost = BlockModeCost {
                        time_us: t / weighted_invocations,
                        energy_uj: e / weighted_invocations,
                    };
                }
            }
        }
        for (e, count) in edge_counts.iter_mut().enumerate().take(nedges) {
            let v: f64 = parts.iter().map(|(w, p)| w * p.edge_counts[e] as f64).sum();
            *count = (v / wsum).round() as u64;
        }
        for (w, p) in parts {
            for (path, c) in &p.path_counts {
                *path_counts.entry(*path).or_insert(0) += ((w / wsum) * *c as f64).round() as u64;
            }
        }
        Profile {
            num_modes,
            block_costs,
            edge_counts,
            path_counts,
            block_counts,
        }
    }
}

/// Builder for [`Profile`]s.
///
/// The counting half can be driven either by explicit increments or by
/// [`ProfileBuilder::record_walk`], which replays a dynamic block sequence
/// and derives edge, block and local-path counts in one pass.
#[derive(Debug, Clone)]
pub struct ProfileBuilder {
    num_modes: usize,
    block_costs: Vec<Vec<BlockModeCost>>,
    edge_counts: Vec<u64>,
    path_counts: BTreeMap<LocalPath, u64>,
    block_counts: Vec<u64>,
}

impl ProfileBuilder {
    /// Starts a profile for a CFG with `cfg.num_blocks()` blocks and
    /// `num_modes` DVS modes.
    #[must_use]
    pub fn new(cfg: &Cfg, num_modes: usize) -> Self {
        ProfileBuilder {
            num_modes,
            block_costs: vec![vec![BlockModeCost::default(); num_modes]; cfg.num_blocks()],
            edge_counts: vec![0; cfg.num_edges()],
            path_counts: BTreeMap::new(),
            block_counts: vec![0; cfg.num_blocks()],
        }
    }

    /// Sets the per-invocation cost of `block` under `mode`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn set_block_cost(&mut self, block: BlockId, mode: usize, cost: BlockModeCost) {
        self.block_costs[block.0][mode] = cost;
    }

    /// Adds `n` invocations of `block`.
    pub fn add_block_count(&mut self, block: BlockId, n: u64) {
        self.block_counts[block.0] += n;
    }

    /// Replays a dynamic execution given as the sequence of blocks visited
    /// (which must be a path in `cfg` from its entry to its exit), deriving
    /// all counts.
    ///
    /// Returns `false` without recording anything if the sequence is not a
    /// valid entry-to-exit path. See [`ProfileBuilder::try_record_walk`]
    /// for the variant that reports *why* the walk was rejected.
    pub fn record_walk(&mut self, cfg: &Cfg, walk: &[BlockId]) -> bool {
        self.try_record_walk(cfg, walk).is_ok()
    }

    /// Like [`ProfileBuilder::record_walk`], but reports the rejection
    /// reason as a typed error instead of a bare `false`.
    ///
    /// # Errors
    ///
    /// * [`IrError::InvalidWalk`] — empty walk, walk not starting at the
    ///   entry, or not ending at the exit;
    /// * [`IrError::UnknownBlock`] — a step names a block outside the CFG;
    /// * [`IrError::Malformed`] — consecutive blocks with no connecting
    ///   edge (reported with both endpoints).
    ///
    /// Nothing is recorded when an error is returned.
    pub fn try_record_walk(&mut self, cfg: &Cfg, walk: &[BlockId]) -> Result<(), IrError> {
        if let Some(&b) = walk.iter().find(|b| b.0 >= cfg.num_blocks()) {
            return Err(IrError::UnknownBlock(b));
        }
        if walk.first() != Some(&cfg.entry()) {
            return Err(IrError::InvalidWalk(format!(
                "walk must start at entry {}",
                cfg.entry()
            )));
        }
        if walk.last() != Some(&cfg.exit()) {
            return Err(IrError::InvalidWalk(format!(
                "walk must end at exit {}",
                cfg.exit()
            )));
        }
        let mut edges = Vec::with_capacity(walk.len().saturating_sub(1));
        for w in walk.windows(2) {
            match cfg.edge_between(w[0], w[1]) {
                Some(e) => edges.push(e),
                None => {
                    return Err(IrError::Malformed(format!(
                        "walk step {} -> {} follows no CFG edge",
                        w[0], w[1]
                    )))
                }
            }
        }
        for &b in walk {
            self.block_counts[b.0] += 1;
        }
        for &e in &edges {
            self.edge_counts[e.0] += 1;
        }
        let (Some(&first), Some(&last)) = (edges.first(), edges.last()) else {
            *self
                .path_counts
                .entry(LocalPath::whole(cfg.entry()))
                .or_insert(0) += 1;
            return Ok(());
        };
        *self
            .path_counts
            .entry(LocalPath::from_start(cfg, first))
            .or_insert(0) += 1;
        // Interior paths are tallied per in-edge, each as a short list of
        // (out-edge, count) no longer than its block's out-degree, and go
        // into the map once per distinct path rather than once per step.
        let mut tallies: Vec<Vec<(EdgeId, u64)>> = vec![Vec::new(); cfg.num_edges()];
        for w in edges.windows(2) {
            let outs = &mut tallies[w[0].0];
            match outs.iter_mut().find(|(out, _)| *out == w[1]) {
                Some((_, n)) => *n += 1,
                None => outs.push((w[1], 1)),
            }
        }
        for (enter, outs) in tallies.iter().enumerate() {
            for &(exit, n) in outs {
                let p = LocalPath::interior(cfg, EdgeId(enter), exit)
                    .expect("consecutive walk edges share a block");
                *self.path_counts.entry(p).or_insert(0) += n;
            }
        }
        *self
            .path_counts
            .entry(LocalPath::to_end(cfg, last))
            .or_insert(0) += 1;
        Ok(())
    }

    /// Finalizes the profile.
    #[must_use]
    pub fn finish(self) -> Profile {
        Profile {
            num_modes: self.num_modes,
            block_costs: self.block_costs,
            edge_counts: self.edge_counts,
            path_counts: self.path_counts,
            block_counts: self.block_counts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CfgBuilder;

    fn loop_cfg() -> Cfg {
        let mut b = CfgBuilder::new("loop");
        let e = b.block("entry");
        let h = b.block("head");
        let body = b.block("body");
        let x = b.block("exit");
        b.edge(e, h);
        b.edge(h, body);
        b.edge(body, h);
        b.edge(h, x);
        b.finish(e, x).unwrap()
    }

    #[test]
    fn record_walk_counts_everything() {
        let g = loop_cfg();
        let e = g.entry();
        let h = g.block_by_label("head").unwrap();
        let body = g.block_by_label("body").unwrap();
        let x = g.exit();
        let mut pb = ProfileBuilder::new(&g, 3);
        // entry -> head -> body -> head -> body -> head -> exit
        assert!(pb.record_walk(&g, &[e, h, body, h, body, h, x]));
        let p = pb.finish();

        assert_eq!(p.block_count(h), 3);
        assert_eq!(p.block_count(body), 2);
        assert_eq!(p.block_count(e), 1);
        assert_eq!(p.block_count(x), 1);

        let e_eh = g.edge_between(e, h).unwrap();
        let e_hb = g.edge_between(h, body).unwrap();
        let e_bh = g.edge_between(body, h).unwrap();
        let e_hx = g.edge_between(h, x).unwrap();
        assert_eq!(p.edge_count(e_eh), 1);
        assert_eq!(p.edge_count(e_hb), 2);
        assert_eq!(p.edge_count(e_bh), 2);
        assert_eq!(p.edge_count(e_hx), 1);

        // Local paths through head: (e_eh,h,e_hb) x1, (e_bh,h,e_hb) x1,
        // (e_bh,h,e_hx) x1.
        let p1 = LocalPath::interior(&g, e_eh, e_hb).unwrap();
        let p2 = LocalPath::interior(&g, e_bh, e_hb).unwrap();
        let p3 = LocalPath::interior(&g, e_bh, e_hx).unwrap();
        assert_eq!(p.local_path_count(p1), 1);
        assert_eq!(p.local_path_count(p2), 1);
        assert_eq!(p.local_path_count(p3), 1);
        // Boundary paths.
        assert_eq!(p.local_path_count(LocalPath::from_start(&g, e_eh)), 1);
        assert_eq!(p.local_path_count(LocalPath::to_end(&g, e_hx)), 1);
        // Never-executed path.
        let never = LocalPath::interior(&g, e_eh, e_hx).unwrap();
        assert_eq!(p.local_path_count(never), 0);

        // D sums over exits equal edge count into block: paths through head
        // entered via e_bh = 2 = edge_count(e_bh).
        assert_eq!(
            p.local_path_count(p2) + p.local_path_count(p3),
            p.edge_count(e_bh)
        );
    }

    #[test]
    fn invalid_walks_are_rejected() {
        let g = loop_cfg();
        let e = g.entry();
        let h = g.block_by_label("head").unwrap();
        let body = g.block_by_label("body").unwrap();
        let x = g.exit();
        let mut pb = ProfileBuilder::new(&g, 1);
        assert!(!pb.record_walk(&g, &[h, x])); // doesn't start at entry
        assert!(!pb.record_walk(&g, &[e, h])); // doesn't end at exit
        assert!(!pb.record_walk(&g, &[e, body, x])); // no edge e->body
        let p = pb.finish();
        assert_eq!(p.block_count(e), 0);
    }

    #[test]
    fn totals_aggregate_costs_times_counts() {
        let g = loop_cfg();
        let e = g.entry();
        let h = g.block_by_label("head").unwrap();
        let body = g.block_by_label("body").unwrap();
        let x = g.exit();
        let mut pb = ProfileBuilder::new(&g, 2);
        pb.record_walk(&g, &[e, h, body, h, x]);
        for (i, &b) in [e, h, body, x].iter().enumerate() {
            pb.set_block_cost(
                b,
                0,
                BlockModeCost {
                    time_us: (i + 1) as f64,
                    energy_uj: 10.0 * (i + 1) as f64,
                },
            );
        }
        let p = pb.finish();
        // counts: e=1,h=2,body=1,x=1; times 1,2,3,4; energies 10,20,30,40.
        assert!((p.total_time_at(0) - (1.0 + 2.0 * 2.0 + 3.0 + 4.0)).abs() < 1e-12);
        assert!((p.total_energy_at(0) - (10.0 + 2.0 * 20.0 + 30.0 + 40.0)).abs() < 1e-12);
        assert!((p.block_total_energy(h, 0) - 40.0).abs() < 1e-12);
        // Mode 1 was never set: all zeros.
        assert_eq!(p.total_energy_at(1), 0.0);
    }

    #[test]
    fn weighted_merge_averages_counts_and_costs() {
        let g = loop_cfg();
        let e = g.entry();
        let h = g.block_by_label("head").unwrap();
        let body = g.block_by_label("body").unwrap();
        let x = g.exit();
        let mk = |iters: usize, t: f64| {
            let mut pb = ProfileBuilder::new(&g, 1);
            let mut walk = vec![e];
            for _ in 0..iters {
                walk.push(h);
                walk.push(body);
            }
            walk.push(h);
            walk.push(x);
            assert!(pb.record_walk(&g, &walk));
            for &b in &[e, h, body, x] {
                pb.set_block_cost(
                    b,
                    0,
                    BlockModeCost {
                        time_us: t,
                        energy_uj: 2.0 * t,
                    },
                );
            }
            pb.finish()
        };
        let p_small = mk(2, 1.0);
        let p_large = mk(10, 3.0);
        let merged = Profile::weighted_merge(&[(0.5, &p_small), (0.5, &p_large)]);
        // body invocations: (2 + 10)/2 = 6.
        assert_eq!(merged.block_count(body), 6);
        // Costs averaged by invocation mass: (2*1 + 10*3)/12 = 32/12.
        let c = merged.block_cost(body, 0);
        assert!((c.time_us - 32.0 / 12.0).abs() < 1e-9, "t = {}", c.time_us);
        assert!((c.energy_uj - 64.0 / 12.0).abs() < 1e-9);
        // Edge counts averaged.
        let e_hb = g.edge_between(h, body).unwrap();
        assert_eq!(merged.edge_count(e_hb), 6);
        // Degenerate: merging a profile with itself is the identity on
        // counts.
        let twice = Profile::weighted_merge(&[(1.0, &p_small), (1.0, &p_small)]);
        assert_eq!(twice.block_count(body), p_small.block_count(body));
    }

    #[test]
    #[should_panic(expected = "at least one profile")]
    fn weighted_merge_rejects_empty() {
        let _ = Profile::weighted_merge(&[]);
    }

    #[test]
    fn single_block_walk() {
        let mut b = CfgBuilder::new("one");
        let only = b.block("only");
        let g = b.finish(only, only).unwrap();
        let mut pb = ProfileBuilder::new(&g, 1);
        assert!(pb.record_walk(&g, &[only]));
        let p = pb.finish();
        assert_eq!(p.block_count(only), 1);
        assert_eq!(p.local_path_count(LocalPath::whole(only)), 1);
    }
}
