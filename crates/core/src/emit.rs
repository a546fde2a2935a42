//! Emission of the instrumented program.
//!
//! The real compiler's output is the original code plus `set_mode`
//! pseudo-instructions on CFG edges. This module renders that artifact as
//! an assembly-like listing, applying the hoisting post-pass: mode-sets
//! proven *silent* by [`crate::ScheduleAnalysis`] (their value always
//! matches the incoming context — e.g. a loop back-edge matching the loop
//! entry) are elided, exactly the optimization §4.2 sketches for heavily
//! executed back edges.

use crate::ScheduleAnalysis;
use dvs_ir::Cfg;
use dvs_sim::EdgeSchedule;
use dvs_vf::VoltageLadder;
use std::fmt::Write as _;

/// Static instrumentation statistics for one emitted program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmitStats {
    /// Mode-set points the naive (one-per-edge) placement would insert.
    pub naive_mode_sets: usize,
    /// Mode-set points remaining after eliding silent ones.
    pub emitted_mode_sets: usize,
    /// Live mode-sets sitting on *critical edges* (source has several
    /// successors and destination several predecessors): each needs a new
    /// block — an extra branch — to host its instruction, the code-growth
    /// concern §7 raises about edge-based placement.
    pub critical_edge_sets: usize,
}

impl EmitStats {
    /// Fraction of mode-set instructions removed by hoisting.
    #[must_use]
    pub fn elision_ratio(&self) -> f64 {
        if self.naive_mode_sets == 0 {
            0.0
        } else {
            1.0 - self.emitted_mode_sets as f64 / self.naive_mode_sets as f64
        }
    }
}

/// Renders `cfg` with `schedule`'s mode-set instructions as an
/// assembly-like listing, eliding silent mode-sets per `analysis`.
/// Returns the listing and its instrumentation statistics.
#[must_use]
pub fn emit_instrumented(
    cfg: &Cfg,
    ladder: &VoltageLadder,
    schedule: &EdgeSchedule,
    analysis: &ScheduleAnalysis,
) -> (String, EmitStats) {
    let mut out = String::new();
    let point = |m: dvs_vf::ModeId| ladder.point(m);
    let _ = writeln!(out, "; program: {}", cfg.name());
    let _ = writeln!(
        out,
        "; initial mode: {} (set at program entry)",
        point(schedule.initial)
    );
    let mut naive = 1; // the initial set
    let mut emitted = 1;
    let mut critical = 0;
    for b in cfg.blocks() {
        let _ = writeln!(out, "\n{}:", b.label);
        for inst in &b.insts {
            let _ = writeln!(out, "    {inst}");
        }
        let succs: Vec<_> = cfg.out_edges(b.id).collect();
        for e in succs {
            naive += 1;
            let edge = cfg.edge(e);
            let dst = &cfg.block(edge.dst).label;
            if analysis.is_silent(e) {
                let _ = writeln!(out, "    ; -> {dst} (mode-set elided: always silent)");
            } else {
                emitted += 1;
                let is_critical =
                    cfg.out_edges(edge.src).count() > 1 && cfg.in_edges(edge.dst).count() > 1;
                if is_critical {
                    critical += 1;
                }
                let _ = writeln!(
                    out,
                    "    -> {dst}: set_mode {}{}",
                    point(schedule.edge_modes[e.index()]),
                    if is_critical {
                        "  ; critical edge: needs a split block"
                    } else {
                        ""
                    }
                );
            }
        }
    }
    (
        out,
        EmitStats {
            naive_mode_sets: naive,
            emitted_mode_sets: emitted,
            critical_edge_sets: critical,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvs_ir::{BlockModeCost, CfgBuilder, Inst, Opcode, ProfileBuilder, Reg};
    use dvs_vf::{AlphaPower, ModeId};

    #[test]
    fn emits_listing_with_elision() {
        let mut b = CfgBuilder::new("emit");
        let e = b.block("entry");
        let h = b.block("head");
        let body = b.block("body");
        let x = b.block("exit");
        b.push(body, Inst::alu(Opcode::IntAlu, Reg(1), &[Reg(1)]));
        b.edge(e, h);
        b.edge(h, body);
        b.edge(body, h);
        b.edge(h, x);
        let cfg = b.finish(e, x).unwrap();

        let mut pb = ProfileBuilder::new(&cfg, 3);
        let mut walk = vec![e];
        for _ in 0..5 {
            walk.push(h);
            walk.push(body);
        }
        walk.push(h);
        walk.push(x);
        assert!(pb.record_walk(&cfg, &walk));
        for blk in [e, h, body, x] {
            for m in 0..3 {
                pb.set_block_cost(
                    blk,
                    m,
                    BlockModeCost {
                        time_us: 1.0,
                        energy_uj: 1.0,
                    },
                );
            }
        }
        let profile = pb.finish();

        // Loop runs slow, exit switches fast: the back edge is silent.
        let mut schedule = dvs_sim::EdgeSchedule::uniform(&cfg, ModeId(0));
        schedule.edge_modes[cfg.edge_between(h, x).unwrap().index()] = ModeId(2);
        let analysis = ScheduleAnalysis::new(&cfg, &profile, &schedule);
        let ladder = dvs_vf::VoltageLadder::xscale3(&AlphaPower::paper());
        let (listing, stats) = emit_instrumented(&cfg, &ladder, &schedule, &analysis);

        assert!(listing.contains("; program: emit"));
        assert!(listing.contains("initial mode: 200 MHz"));
        assert!(listing.contains("set_mode 800 MHz"), "exit switch emitted");
        assert!(listing.contains("elided"), "silent sets marked");
        // 4 edges + initial = 5 naive points; only the h->x switch (plus
        // the initial set) survives.
        assert_eq!(stats.naive_mode_sets, 5);
        assert_eq!(stats.emitted_mode_sets, 2);
        assert!((stats.elision_ratio() - 0.6).abs() < 1e-12);
        // h -> x: h has two successors but x has a single predecessor, so
        // the mode-set can live at the top of x: not critical.
        assert_eq!(stats.critical_edge_sets, 0);
    }

    #[test]
    fn uniform_schedule_elides_everything_but_initial() {
        let mut b = CfgBuilder::new("u");
        let e = b.block("entry");
        let x = b.block("exit");
        b.edge(e, x);
        let cfg = b.finish(e, x).unwrap();
        let mut pb = ProfileBuilder::new(&cfg, 2);
        pb.record_walk(&cfg, &[e, x]);
        let profile = pb.finish();
        let schedule = dvs_sim::EdgeSchedule::uniform(&cfg, ModeId(1));
        let analysis = ScheduleAnalysis::new(&cfg, &profile, &schedule);
        let ladder = dvs_vf::VoltageLadder::xscale3(&AlphaPower::paper());
        let (_, stats) = emit_instrumented(&cfg, &ladder, &schedule, &analysis);
        assert_eq!(stats.emitted_mode_sets, 1);
    }
}

#[cfg(test)]
mod critical_edge_tests {
    use super::*;
    use dvs_ir::{BlockModeCost, CfgBuilder, ProfileBuilder};
    use dvs_vf::{AlphaPower, ModeId};

    #[test]
    fn critical_edges_are_flagged() {
        // Diamond with a cross edge: entry -> {a, b}, {a, b} -> exit, and
        // a -> b. Edge a->b is critical (a has 2 succs, b has 2 preds).
        let mut bld = CfgBuilder::new("crit");
        let e = bld.block("entry");
        let a = bld.block("a");
        let b = bld.block("b");
        let x = bld.block("exit");
        bld.edge(e, a);
        bld.edge(e, b);
        bld.edge(a, x);
        bld.edge(a, b);
        bld.edge(b, x);
        let cfg = bld.finish(e, x).unwrap();
        let mut pb = ProfileBuilder::new(&cfg, 2);
        pb.record_walk(&cfg, &[e, a, b, x]);
        pb.record_walk(&cfg, &[e, a, x]);
        pb.record_walk(&cfg, &[e, b, x]);
        for blk in [e, a, b, x] {
            for m in 0..2 {
                pb.set_block_cost(
                    blk,
                    m,
                    BlockModeCost {
                        time_us: 1.0,
                        energy_uj: 1.0,
                    },
                );
            }
        }
        let profile = pb.finish();
        // Make the a->b mode-set live: a runs fast, b slow.
        let mut schedule = dvs_sim::EdgeSchedule::uniform(&cfg, ModeId(1));
        let e_ab = cfg.edge_between(a, b).unwrap();
        let e_eb = cfg.edge_between(e, b).unwrap();
        schedule.edge_modes[e_ab.index()] = ModeId(0);
        schedule.edge_modes[e_eb.index()] = ModeId(0);
        let analysis = ScheduleAnalysis::new(&cfg, &profile, &schedule);
        let ladder = dvs_vf::VoltageLadder::xscale3(&AlphaPower::paper());
        let (listing, stats) = emit_instrumented(&cfg, &ladder, &schedule, &analysis);
        assert!(stats.critical_edge_sets >= 1, "a->b should be critical");
        assert!(listing.contains("critical edge"));
    }
}

#[cfg(test)]
mod loop_edge_tests {
    use super::*;
    use dvs_ir::{BlockModeCost, CfgBuilder, ProfileBuilder};
    use dvs_vf::{AlphaPower, ModeId};

    fn costs(pb: &mut ProfileBuilder, blocks: &[dvs_ir::BlockId], modes: usize) {
        for &blk in blocks {
            for m in 0..modes {
                pb.set_block_cost(
                    blk,
                    m,
                    BlockModeCost {
                        time_us: 1.0,
                        energy_uj: 1.0,
                    },
                );
            }
        }
    }

    #[test]
    fn live_back_edge_mode_set_is_placed_on_the_latch() {
        // entry -> head -> body -> head, head -> exit. Body runs fast
        // (mode-set on head->body), the back edge restores slow — a
        // genuinely live back-edge set: the listing must carry it under
        // the latch block, not elide it.
        let mut bld = CfgBuilder::new("live-back");
        let e = bld.block("entry");
        let h = bld.block("head");
        let body = bld.block("body");
        let x = bld.block("exit");
        bld.edge(e, h);
        bld.edge(h, body);
        bld.edge(body, h);
        bld.edge(h, x);
        let cfg = bld.finish(e, x).unwrap();
        let mut pb = ProfileBuilder::new(&cfg, 3);
        let mut walk = vec![e];
        for _ in 0..4 {
            walk.push(h);
            walk.push(body);
        }
        walk.push(h);
        walk.push(x);
        assert!(pb.record_walk(&cfg, &walk));
        costs(&mut pb, &[e, h, body, x], 3);
        let profile = pb.finish();

        let mut schedule = dvs_sim::EdgeSchedule::uniform(&cfg, ModeId(0));
        schedule.edge_modes[cfg.edge_between(h, body).unwrap().index()] = ModeId(2);
        let analysis = ScheduleAnalysis::new(&cfg, &profile, &schedule);
        let back = cfg.edge_between(body, h).unwrap();
        assert!(
            !analysis.is_silent(back),
            "back edge switches m2 -> m0 every iteration"
        );
        let ladder = dvs_vf::VoltageLadder::xscale3(&AlphaPower::paper());
        let (listing, stats) = emit_instrumented(&cfg, &ladder, &schedule, &analysis);
        // The latch block section must emit the restore to 200 MHz (mode
        // 0) on its edge back to the head.
        let body_section = listing
            .split("\nbody:")
            .nth(1)
            .expect("body section present");
        let body_section = body_section.split("\n\n").next().unwrap();
        assert!(
            body_section.contains("-> head: set_mode 200 MHz"),
            "live back-edge set placed in the latch:\n{body_section}"
        );
        // initial + head->body + body->head are live; entry->head and
        // head->exit stay at the initial mode and elide.
        assert_eq!(stats.naive_mode_sets, 5);
        assert_eq!(stats.emitted_mode_sets, 3);
    }

    #[test]
    fn self_loop_mode_set_placement_follows_silence() {
        // A self-loop body: entry -> loop, loop -> loop, loop -> exit.
        // With the self-loop edge at the same mode as loop entry, its set
        // is silent and elided; retargeting the self-loop to a different
        // mode makes it live — and critical (loop has 2 succs and 2
        // preds), so the listing flags the needed split block.
        let mut bld = CfgBuilder::new("self");
        let e = bld.block("entry");
        let l = bld.block("loop");
        let x = bld.block("exit");
        bld.edge(e, l);
        bld.edge(l, l);
        bld.edge(l, x);
        let cfg = bld.finish(e, x).unwrap();
        let mut pb = ProfileBuilder::new(&cfg, 3);
        assert!(pb.record_walk(&cfg, &[e, l, l, l, l, x]));
        costs(&mut pb, &[e, l, x], 3);
        let profile = pb.finish();
        let ladder = dvs_vf::VoltageLadder::xscale3(&AlphaPower::paper());
        let self_edge = cfg.edge_between(l, l).unwrap();

        // Same mode around the loop: the self-loop set is silent.
        let quiet = dvs_sim::EdgeSchedule::uniform(&cfg, ModeId(1));
        let analysis = ScheduleAnalysis::new(&cfg, &profile, &quiet);
        assert!(analysis.is_silent(self_edge));
        let (listing, stats) = emit_instrumented(&cfg, &ladder, &quiet, &analysis);
        assert!(
            listing.contains("; -> loop (mode-set elided: always silent)"),
            "silent self-loop is elided:\n{listing}"
        );
        assert_eq!(stats.emitted_mode_sets, 1, "only the initial set");
        assert_eq!(stats.critical_edge_sets, 0);

        // Self-loop at a different mode: fires every iteration after the
        // first, must be emitted, and sits on a critical edge.
        let mut churn = dvs_sim::EdgeSchedule::uniform(&cfg, ModeId(1));
        churn.edge_modes[self_edge.index()] = ModeId(2);
        let analysis = ScheduleAnalysis::new(&cfg, &profile, &churn);
        assert!(!analysis.is_silent(self_edge));
        let (listing, stats) = emit_instrumented(&cfg, &ladder, &churn, &analysis);
        let self_line = listing
            .lines()
            .find(|l| l.contains("-> loop: set_mode 800 MHz"))
            .unwrap_or_else(|| panic!("live self-loop set is emitted:\n{listing}"));
        assert!(
            self_line.contains("critical edge: needs a split block"),
            "self-loop edge needs a split block: {self_line}"
        );
        assert!(stats.emitted_mode_sets >= 2);
        assert_eq!(stats.critical_edge_sets, 1);
    }
}
