//! Domain generators: random reducible CFGs with traces, voltage ladders on
//! the alpha-power curve, and regulator transition models.
//!
//! Every generator is total over tapes: the all-zero tape produces the
//! structurally simplest value (a three-block straight-line CFG, the
//! shortest trace, a two-level ladder, a free regulator), and any mutated
//! tape still produces a *valid* case. Structural validity is therefore an
//! invariant of generation, not something the oracles need to re-check —
//! though [`crate::run_case`] does re-check it, as a test of the generators
//! themselves.

use crate::gen::Gen;
use dvs_ir::{BlockId, Cfg, CfgBuilder, Inst, MemWidth, Opcode, Reg};
use dvs_sim::{Trace, TraceBuilder, FAN_OUT_MIN_INSTS, SEGMENT_BLOCKS};
use dvs_vf::{AlphaPower, TransitionModel, VoltageLadder};

/// Bounds on generated cases.
#[derive(Debug, Clone)]
pub struct CaseSpec {
    /// Maximum number of basic blocks (including entry and exit). The
    /// brute-force oracle stays exhaustive up to about 6.
    pub max_blocks: usize,
}

impl Default for CaseSpec {
    fn default() -> Self {
        CaseSpec { max_blocks: 6 }
    }
}

/// How the deadline is derived from the profiled execution-time range
/// `[t_fast, t_slow]` (all-fastest and all-slowest uniform schedules).
///
/// The split exists so that roughly one case in ten is *infeasible by
/// construction*, exercising the solvers' infeasibility paths as well as
/// their optima.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeadlineSpec {
    /// `t_fast + frac · (t_slow − t_fast)` with `frac` in `[0.02, 1.2]` —
    /// from barely feasible to slack beyond the all-slowest schedule.
    SpanFraction(f64),
    /// `factor · t_fast` with `factor` in `[0.3, 0.9]` — strictly below the
    /// fastest achievable time, so every schedule misses it.
    BelowFast(f64),
}

impl DeadlineSpec {
    /// Resolves the spec against a profiled time range.
    #[must_use]
    pub fn resolve(self, t_fast: f64, t_slow: f64) -> f64 {
        match self {
            DeadlineSpec::SpanFraction(frac) => t_fast + frac * (t_slow - t_fast).max(0.0),
            DeadlineSpec::BelowFast(factor) => factor * t_fast,
        }
    }
}

/// A complete generated test case. The deadline stays symbolic
/// ([`DeadlineSpec`]) until the case has been profiled, because the
/// interesting deadlines live between the all-fastest and all-slowest
/// execution times, which only the simulator knows.
#[derive(Debug, Clone)]
pub struct CheckCase {
    /// A reducible control-flow graph.
    pub cfg: Cfg,
    /// One entry-to-exit walk of `cfg` with memory addresses.
    pub trace: Trace,
    /// Operating points on the paper's alpha-power law.
    pub ladder: VoltageLadder,
    /// Regulator transition-cost model (possibly free).
    pub transition: TransitionModel,
    /// Symbolic deadline, resolved after profiling.
    pub deadline: DeadlineSpec,
}

/// Generates a full case from `g` under `spec`.
#[must_use]
pub fn gen_case(g: &mut Gen, spec: &CaseSpec) -> CheckCase {
    let cfg = gen_cfg(g, spec.max_blocks);
    let trace = gen_trace(g, &cfg);
    let ladder = gen_ladder(g);
    let transition = gen_transition(g);
    let deadline = gen_deadline(g);
    CheckCase {
        cfg,
        trace,
        ladder,
        transition,
        deadline,
    }
}

/// Grows a reducible CFG by chaining single-entry/single-exit structures
/// (straight block, while-loop, if-then, diamond) between entry and exit.
/// Reducibility is guaranteed by construction: every cycle is a natural
/// loop whose header dominates its body.
pub fn gen_cfg(g: &mut Gen, max_blocks: usize) -> Cfg {
    let mut b = CfgBuilder::new("fuzz");
    let entry = b.block("entry");
    let mut blocks = vec![entry];
    // out-degree per block, tracked so branchy blocks get a branch inst
    let mut outdeg: Vec<usize> = vec![0];

    let mut budget = max_blocks.saturating_sub(2).max(1);
    let mut tail = entry;
    let new_block = |b: &mut CfgBuilder, blocks: &mut Vec<BlockId>, outdeg: &mut Vec<usize>| {
        let id = b.block(format!("b{}", blocks.len() - 1));
        blocks.push(id);
        outdeg.push(0);
        id
    };
    let add_edge = |b: &mut CfgBuilder, outdeg: &mut Vec<usize>, s: BlockId, d: BlockId| {
        b.edge(s, d);
        outdeg[s.index()] += 1;
    };

    while budget > 0 {
        // Shapes by block cost: 0 = straight block (1), 1 = while-loop (2),
        // 2 = if-then (3), 3 = diamond (4). Zero picks the simplest.
        let max_kind = [1, 1, 2, 3, 4]
            .iter()
            .take_while(|&&cost| cost <= budget)
            .count() as u64
            - 1;
        match g.below(max_kind.max(1)) {
            0 => {
                let blk = new_block(&mut b, &mut blocks, &mut outdeg);
                add_edge(&mut b, &mut outdeg, tail, blk);
                // occasional self-loop (zero draw means none)
                if budget >= 2 && g.below(7) == 6 {
                    add_edge(&mut b, &mut outdeg, blk, blk);
                }
                tail = blk;
                budget -= 1;
            }
            1 => {
                let h = new_block(&mut b, &mut blocks, &mut outdeg);
                let body = new_block(&mut b, &mut blocks, &mut outdeg);
                add_edge(&mut b, &mut outdeg, tail, h);
                add_edge(&mut b, &mut outdeg, h, body);
                add_edge(&mut b, &mut outdeg, body, h);
                tail = h;
                budget -= 2;
            }
            2 => {
                let c = new_block(&mut b, &mut blocks, &mut outdeg);
                let t = new_block(&mut b, &mut blocks, &mut outdeg);
                let j = new_block(&mut b, &mut blocks, &mut outdeg);
                add_edge(&mut b, &mut outdeg, tail, c);
                add_edge(&mut b, &mut outdeg, c, t);
                add_edge(&mut b, &mut outdeg, c, j);
                add_edge(&mut b, &mut outdeg, t, j);
                tail = j;
                budget -= 3;
            }
            _ => {
                let c = new_block(&mut b, &mut blocks, &mut outdeg);
                let t = new_block(&mut b, &mut blocks, &mut outdeg);
                let f = new_block(&mut b, &mut blocks, &mut outdeg);
                let j = new_block(&mut b, &mut blocks, &mut outdeg);
                add_edge(&mut b, &mut outdeg, tail, c);
                add_edge(&mut b, &mut outdeg, c, t);
                add_edge(&mut b, &mut outdeg, c, f);
                add_edge(&mut b, &mut outdeg, t, j);
                add_edge(&mut b, &mut outdeg, f, j);
                tail = j;
                budget -= 4;
            }
        }
        if g.chance(0.25) {
            break; // the zero tape stops after one structure
        }
    }
    let exit = b.block("exit");
    blocks.push(exit);
    outdeg.push(0);
    add_edge(&mut b, &mut outdeg, tail, exit);

    // Fill each block with 1–6 instructions drawn from a small mix; blocks
    // with fan-out end in a conditional branch so the predictor is
    // exercised.
    for &blk in &blocks {
        let n = 1 + g.below(5);
        for i in 0..n {
            let dest = Reg((1 + (i % 7)) as u8);
            let src = Reg((1 + ((i + 3) % 7)) as u8);
            let inst = match g.below(6) {
                0 | 1 => Inst::alu(Opcode::IntAlu, dest, &[src]),
                2 => Inst::alu(Opcode::IntMul, dest, &[src, dest]),
                3 => Inst::load(dest, src, MemWidth::B4),
                4 => Inst::store(src, dest, MemWidth::B4),
                _ => Inst::nop(),
            };
            b.push(blk, inst);
        }
        if outdeg[blk.index()] >= 2 {
            b.push(blk, Inst::branch(Reg(1)));
        }
    }

    b.finish(entry, exit)
        .expect("generated CFGs are well-formed by construction")
}

/// Breadth-first distance (in edges) from each block to the exit; used to
/// steer the trace walk home once its fuel runs out.
fn dist_to_exit(cfg: &Cfg) -> Vec<usize> {
    let mut dist = vec![usize::MAX; cfg.num_blocks()];
    let mut queue = std::collections::VecDeque::new();
    dist[cfg.exit().index()] = 0;
    queue.push_back(cfg.exit());
    while let Some(b) = queue.pop_front() {
        for p in cfg.predecessors(b) {
            if dist[p.index()] == usize::MAX {
                dist[p.index()] = dist[b.index()] + 1;
                queue.push_back(p);
            }
        }
    }
    dist
}

/// Random entry-to-exit walk: branch choices are random while fuel lasts,
/// then the walk takes the shortest path to the exit, so it always
/// terminates. Memory instructions get word-aligned addresses from a 16 KiB
/// window (small enough for cache hits and misses to both occur).
pub fn gen_trace(g: &mut Gen, cfg: &Cfg) -> Trace {
    let dist = dist_to_exit(cfg);
    let mut tb = TraceBuilder::new(cfg);
    let mut fuel = 4 + g.below(40);
    let mut cur = cfg.entry();
    loop {
        let mems = cfg.block(cur).mem_inst_count();
        let addrs: Vec<u64> = (0..mems).map(|_| 4 * g.below(4096)).collect();
        tb.step(cur, addrs);
        if cur == cfg.exit() {
            break;
        }
        let succs: Vec<BlockId> = cfg.successors(cur).collect();
        cur = if succs.len() == 1 {
            succs[0]
        } else if fuel > 0 {
            fuel -= 1;
            succs[g.below(succs.len() as u64) as usize]
        } else {
            *succs
                .iter()
                .min_by_key(|s| dist[s.index()])
                .expect("every block reaches the exit")
        };
    }
    tb.finish().expect("walk ends at the exit")
}

/// A random entry-to-exit walk of `cfg` with addresses drawn as in
/// [`gen_trace`], lengthened past two segments of `SEGMENT_BLOCKS` and
/// `FAN_OUT_MIN_INSTS`, so that a simulator call over it streams: while
/// short, it takes a random successor that leads no nearer the exit when
/// there is one, which keeps it in the first loop it enters, and then heads
/// for the exit by a shortest path. `None` when the walk finds no loop to
/// stay in.
pub fn gen_long_trace(g: &mut Gen, cfg: &Cfg) -> Option<Trace> {
    let dist = dist_to_exit(cfg);
    let mut tb = TraceBuilder::new(cfg);
    let (mut blocks, mut insts) = (0, 0);
    let mut cur = cfg.entry();
    loop {
        let addrs = (0..cfg.block(cur).mem_inst_count())
            .map(|_| 4 * g.below(4096))
            .collect();
        tb.step(cur, addrs);
        blocks += 1;
        insts += cfg.block(cur).len() as u64;
        if cur == cfg.exit() {
            break;
        }
        let succs: Vec<BlockId> = cfg.successors(cur).collect();
        let away: Vec<BlockId> = succs
            .iter()
            .copied()
            .filter(|s| dist[s.index()] >= dist[cur.index()])
            .collect();
        let short = blocks <= 2 * SEGMENT_BLOCKS || insts < FAN_OUT_MIN_INSTS;
        cur = match (short, away.is_empty()) {
            (true, false) => away[g.below(away.len() as u64) as usize],
            (true, true) => succs[g.below(succs.len() as u64) as usize],
            (false, _) => *succs
                .iter()
                .min_by_key(|s| dist[s.index()])
                .expect("every block reaches the exit"),
        };
    }
    let trace = tb.finish().expect("walk ends at the exit");
    (blocks > 2 * SEGMENT_BLOCKS && insts >= FAN_OUT_MIN_INSTS).then_some(trace)
}

/// A 2–4 level ladder on the paper's alpha-power law: the base frequency
/// lands in 120–320 MHz and each level is 1.3–2.2× the previous, clamped to
/// 790 MHz (the law is calibrated at 800 MHz / 1.65 V).
pub fn gen_ladder(g: &mut Gen) -> VoltageLadder {
    let law = AlphaPower::paper();
    let levels = 2 + g.below(3);
    let mut freqs: Vec<f64> = Vec::new();
    let mut f = 120.0 + g.unit() * 200.0;
    for _ in 0..levels {
        freqs.push(f);
        f = (f * (1.3 + g.unit() * 0.9)).min(790.0);
        if f <= freqs[freqs.len() - 1] + 5.0 {
            break;
        }
    }
    if freqs.len() < 2 {
        freqs.push(freqs[0] * 1.5);
    }
    VoltageLadder::from_frequencies(&law, &freqs).unwrap_or_else(|_| VoltageLadder::xscale3(&law))
}

/// Free regulator ~30% of the time, otherwise a capacitance drawn
/// log-uniformly from 0.001–1 µF (spanning negligible to dominant
/// transition costs).
pub fn gen_transition(g: &mut Gen) -> TransitionModel {
    if g.chance(0.3) {
        TransitionModel::free()
    } else {
        TransitionModel::with_capacitance_uf(10f64.powf(-3.0 + 3.0 * g.unit()))
    }
}

/// See [`DeadlineSpec`].
pub fn gen_deadline(g: &mut Gen) -> DeadlineSpec {
    if g.chance(0.1) {
        DeadlineSpec::BelowFast(0.3 + 0.6 * g.unit())
    } else {
        DeadlineSpec::SpanFraction(0.02 + 1.18 * g.unit())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_cfgs_are_valid_and_reducible() {
        for seed in 0..200 {
            let mut g = Gen::from_seed(seed);
            let cfg = gen_cfg(&mut g, 6);
            assert!(cfg.num_blocks() >= 3 && cfg.num_blocks() <= 6, "{seed}");
            assert_eq!(cfg.check_reducible(), Ok(()), "seed {seed}");
        }
    }

    #[test]
    fn zero_tape_generates_the_minimal_case() {
        let mut g = Gen::replay(Vec::new());
        let case = gen_case(&mut g, &CaseSpec::default());
        assert_eq!(case.cfg.num_blocks(), 3);
        assert_eq!(case.cfg.num_edges(), 2);
        assert_eq!(case.ladder.len(), 2);
        assert_eq!(case.transition, TransitionModel::free());
    }

    #[test]
    fn traces_are_valid_walks() {
        for seed in 0..100 {
            let mut g = Gen::from_seed(seed);
            let case = gen_case(&mut g, &CaseSpec { max_blocks: 8 });
            let walk = case.trace.walk();
            assert_eq!(walk.first(), Some(&case.cfg.entry()), "seed {seed}");
            assert_eq!(walk.last(), Some(&case.cfg.exit()), "seed {seed}");
            let mut pb = dvs_ir::ProfileBuilder::new(&case.cfg, 1);
            assert!(pb.try_record_walk(&case.cfg, &walk).is_ok(), "seed {seed}");
            assert_eq!(pb.finish().validate(&case.cfg), Ok(()), "seed {seed}");
        }
    }

    #[test]
    fn ladders_are_monotonic_and_in_range() {
        for seed in 0..200 {
            let mut g = Gen::from_seed(seed);
            let ladder = gen_ladder(&mut g);
            assert!(ladder.len() >= 2 && ladder.len() <= 4, "seed {seed}");
            let pts: Vec<_> = ladder.iter().map(|(_, p)| p).collect();
            for w in pts.windows(2) {
                assert!(w[0].frequency_mhz < w[1].frequency_mhz, "seed {seed}");
                assert!(w[0].voltage < w[1].voltage, "seed {seed}");
            }
        }
    }

    #[test]
    fn case_generation_is_deterministic() {
        let a = gen_case(&mut Gen::from_seed(11), &CaseSpec::default());
        let b = gen_case(&mut Gen::from_seed(11), &CaseSpec::default());
        assert_eq!(a.cfg.num_blocks(), b.cfg.num_blocks());
        assert_eq!(a.cfg.num_edges(), b.cfg.num_edges());
        assert_eq!(a.trace.walk(), b.trace.walk());
        assert_eq!(a.deadline, b.deadline);
    }
}
