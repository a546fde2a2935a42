use dvs_model::ProgramParams;
use dvs_sim::RunStats;

/// Bridges a profiling run to the analytical model's program parameters —
/// the step that produces the paper's Table 7 and feeds Table 1.
///
/// `fastest` is the classified run at the ladder's fastest mode, the
/// paper's reference frequency for cycle counts: from
/// [`dvs_sim::ModeProfiler::profile_with_fastest`], which classifies no
/// other pass of its walk.
///
/// Cycle counts are frequency-independent program properties; the stall
/// time `tinvariant` is absolute because memory is asynchronous. The raw
/// counters sum instruction *latencies*, which on a superscalar core
/// exceed wall-clock cycles (several instructions retire per cycle). The
/// analytical model, however, assumes its cycle counts execute serially:
/// `t(f) = max(tinv + Ncache/f, Noverlap/f) + Ndependent/f`. To keep the
/// model's single-frequency time consistent with the simulator's measured
/// runtime — so that deadlines derived from simulation are feasible in the
/// model — the three cycle counts are scaled by a common factor κ chosen
/// such that `t(f_profile)` equals the measured wall time. Ratios between
/// the counts (which drive the model's case analysis) are preserved.
#[must_use]
pub fn analyze_params(fastest: &RunStats) -> ProgramParams {
    let f = fastest.point.frequency_mhz;
    let t_invariant_us = fastest.stall_cycles / f;
    let t_wall = fastest.total_cycles / f;
    let mem = t_invariant_us + fastest.cache_hit_cycles / f;
    let compute = fastest.overlap_cycles / f;
    let t_model = mem.max(compute) + fastest.dependent_cycles / f;
    let denom = t_model - t_invariant_us;
    let target = (t_wall - t_invariant_us).max(0.0);
    let kappa = if denom > 1e-12 { target / denom } else { 1.0 };
    ProgramParams {
        n_overlap: fastest.overlap_cycles * kappa,
        n_dependent: fastest.dependent_cycles * kappa,
        n_cache: fastest.cache_hit_cycles * kappa,
        t_invariant_us,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvs_ir::{CfgBuilder, Inst, MemWidth, Opcode, Reg};
    use dvs_sim::{Machine, TraceBuilder};
    use dvs_vf::OperatingPoint;

    #[test]
    fn params_transfer_to_model_type() {
        let mut b = CfgBuilder::new("t");
        let e = b.block("entry");
        let body = b.block("body");
        let x = b.block("exit");
        b.push(body, Inst::load(Reg(1), Reg(2), MemWidth::B4));
        b.push(body, Inst::alu(Opcode::IntAlu, Reg(3), &[Reg(1)]));
        b.edge(e, body);
        b.edge(body, body);
        b.edge(body, x);
        let cfg = b.finish(e, x).unwrap();
        let mut tb = TraceBuilder::new(&cfg);
        tb.step(e, vec![]);
        for i in 0..500u64 {
            tb.step(body, vec![0x100000 + i * 4096]);
        }
        tb.step(x, vec![]);
        let trace = tb.finish().unwrap();
        let m = Machine::paper_default();
        let runs = [
            m.run(&cfg, &trace, OperatingPoint::new(0.7, 200.0)),
            m.run(&cfg, &trace, OperatingPoint::new(1.65, 800.0)),
        ];
        let p = analyze_params(&runs[1]);
        assert!(p.is_valid());
        // Strided misses: a visible invariant memory time.
        assert!(p.t_invariant_us > 0.0);
        // The reference must be the fastest run (tinv measured at 800 MHz).
        let by_hand = runs[1].stall_cycles / 800.0;
        assert!((p.t_invariant_us - by_hand).abs() < 1e-9);
    }
}
