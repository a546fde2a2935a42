use dvs_ir::{Cfg, Dominators, EdgeId, LoopForest, Profile};
use dvs_sim::EdgeSchedule;

/// Static analysis of a finished [`EdgeSchedule`]: which mode-set
/// instructions are *silent* (their value always matches the incoming
/// context, so a post-pass can hoist or delete them — §4.2's loop-back-edge
/// observation), and how many dynamic transitions the profile predicts.
#[derive(Debug, Clone)]
pub struct ScheduleAnalysis {
    silent: Vec<bool>,
    predicted_dynamic_transitions: u64,
    back_edge_silent: usize,
    back_edge_total: usize,
}

impl ScheduleAnalysis {
    /// Analyzes `schedule` against the profile's local-path counts.
    #[must_use]
    pub fn new(cfg: &Cfg, profile: &Profile, schedule: &EdgeSchedule) -> Self {
        let mode_of = |e: Option<EdgeId>| match e {
            Some(e) => schedule.edge_modes[e.index()],
            None => schedule.initial,
        };

        // An edge's mode-set is silent if every executed local path that
        // exits through it enters at the same mode.
        let mut silent = vec![true; cfg.num_edges()];
        let mut dynamic = 0u64;
        for (path, count) in profile.local_paths() {
            let Some(exit) = path.exit else { continue };
            if count == 0 {
                continue;
            }
            if mode_of(path.enter) != mode_of(Some(exit)) {
                silent[exit.index()] = false;
                dynamic += count;
            }
        }
        // Edges that never executed keep their (vacuously silent) setting.

        let dom = Dominators::compute(cfg);
        let loops = LoopForest::compute(cfg, &dom);
        let back_edge_total = loops.len();
        let back_edge_silent = loops
            .loops()
            .iter()
            .filter(|l| silent[l.back_edge.index()])
            .count();

        ScheduleAnalysis {
            silent,
            predicted_dynamic_transitions: dynamic,
            back_edge_silent,
            back_edge_total,
        }
    }

    /// Whether the mode-set on `e` never fires at run time.
    #[must_use]
    pub fn is_silent(&self, e: EdgeId) -> bool {
        self.silent[e.index()]
    }

    /// Number of statically removable (always-silent) mode-set points.
    #[must_use]
    pub fn num_silent(&self) -> usize {
        self.silent.iter().filter(|&&s| s).count()
    }

    /// Mode-set instructions that must remain after hoisting.
    #[must_use]
    pub fn num_live(&self) -> usize {
        self.silent.len() - self.num_silent()
    }

    /// Per-edge emission mask: `true` where the mode-set instruction is
    /// actually emitted (i.e. not elided as silent). This is the shape the
    /// static verifier consumes.
    #[must_use]
    pub fn emitted_mask(&self) -> Vec<bool> {
        self.silent.iter().map(|&s| !s).collect()
    }

    /// Dynamic mode transitions predicted from the profile (should match
    /// the simulator's measured count when the profile input is replayed).
    #[must_use]
    pub fn predicted_dynamic_transitions(&self) -> u64 {
        self.predicted_dynamic_transitions
    }

    /// `(silent, total)` loop back edges — the paper's motivating case for
    /// the hoisting post-pass.
    #[must_use]
    pub fn back_edge_summary(&self) -> (usize, usize) {
        (self.back_edge_silent, self.back_edge_total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvs_ir::{BlockId, BlockModeCost, CfgBuilder, ProfileBuilder};
    use dvs_vf::ModeId;

    fn loop_cfg() -> (Cfg, Vec<BlockId>) {
        let mut b = CfgBuilder::new("l");
        let e = b.block("entry");
        let h = b.block("head");
        let body = b.block("body");
        let x = b.block("exit");
        b.edge(e, h);
        b.edge(h, body);
        b.edge(body, h);
        b.edge(h, x);
        let cfg = b.finish(e, x).unwrap();
        (cfg, vec![e, h, body, x])
    }

    fn profile(cfg: &Cfg, blocks: &[BlockId], iters: usize) -> Profile {
        let mut pb = ProfileBuilder::new(cfg, 3);
        let (e, h, body, x) = (blocks[0], blocks[1], blocks[2], blocks[3]);
        let mut walk = vec![e];
        for _ in 0..iters {
            walk.push(h);
            walk.push(body);
        }
        walk.push(h);
        walk.push(x);
        assert!(pb.record_walk(cfg, &walk));
        for &b in blocks {
            for m in 0..3 {
                pb.set_block_cost(
                    b,
                    m,
                    BlockModeCost {
                        time_us: 1.0,
                        energy_uj: 1.0,
                    },
                );
            }
        }
        pb.finish()
    }

    #[test]
    fn uniform_schedule_is_all_silent() {
        let (cfg, blocks) = loop_cfg();
        let p = profile(&cfg, &blocks, 10);
        let s = EdgeSchedule::uniform(&cfg, ModeId(1));
        let a = ScheduleAnalysis::new(&cfg, &p, &s);
        assert_eq!(a.num_silent(), cfg.num_edges());
        assert_eq!(a.predicted_dynamic_transitions(), 0);
        let (bs, bt) = a.back_edge_summary();
        assert_eq!(bt, 1);
        assert_eq!(bs, 1);
    }

    #[test]
    fn loop_back_edge_with_matching_mode_is_silent() {
        let (cfg, blocks) = loop_cfg();
        let p = profile(&cfg, &blocks, 10);
        let (e, h, body, x) = (blocks[0], blocks[1], blocks[2], blocks[3]);
        // Loop runs slow (mode 0), exit edge switches to fast (mode 2).
        let mut s = EdgeSchedule::uniform(&cfg, ModeId(0));
        s.edge_modes[cfg.edge_between(h, x).unwrap().index()] = ModeId(2);
        let a = ScheduleAnalysis::new(&cfg, &p, &s);
        let back = cfg.edge_between(body, h).unwrap();
        assert!(a.is_silent(back), "back edge mode matches loop mode");
        let exit_edge = cfg.edge_between(h, x).unwrap();
        assert!(!a.is_silent(exit_edge));
        // Exactly one dynamic transition (at loop exit).
        assert_eq!(a.predicted_dynamic_transitions(), 1);
        let _ = (e, body);
    }

    #[test]
    fn mode_change_inside_loop_fires_every_iteration() {
        let (cfg, blocks) = loop_cfg();
        let p = profile(&cfg, &blocks, 10);
        let (h, body) = (blocks[1], blocks[2]);
        let mut s = EdgeSchedule::uniform(&cfg, ModeId(0));
        // body runs fast, head slow: two transitions per iteration.
        s.edge_modes[cfg.edge_between(h, body).unwrap().index()] = ModeId(2);
        let a = ScheduleAnalysis::new(&cfg, &p, &s);
        // 10 h->body switches + 10 body->h switches back.
        assert_eq!(a.predicted_dynamic_transitions(), 20);
        assert!(a.num_live() >= 2);
    }
}
