use dvs_model::ProgramParams;
use dvs_sim::RunStats;

/// Bridges a profiling run to the analytical model's program parameters —
/// the step that produces the paper's Table 7 and feeds Table 1.
///
/// `fastest` is the classified run at the ladder's fastest mode, the
/// paper's reference frequency for cycle counts: from
/// [`dvs_sim::ModeProfiler::profile_with_fastest`], which classifies no
/// other pass of its walk. Returns the *model* crate's parameter type so
/// callers can evaluate savings bounds directly.
#[must_use]
pub fn analyze_params(fastest: &RunStats) -> ProgramParams {
    let sim = dvs_sim::ProgramParams::from_run(fastest);
    ProgramParams {
        n_overlap: sim.n_overlap,
        n_dependent: sim.n_dependent,
        n_cache: sim.n_cache,
        t_invariant_us: sim.t_invariant_us,
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
