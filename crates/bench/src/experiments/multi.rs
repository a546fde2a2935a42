//! Fig. 19: sensitivity of the schedule to the profiling input, and the
//! multi-category average optimization (§6.4).

use crate::context::{ladder_of, scaled_capacitance_uf};
use crate::{Context, Report};
use dvs_compiler::{CategoryProfile, DeadlineScheme, MultiCategory};
use dvs_sim::{EdgeSchedule, ModeProfiler, Trace};
use dvs_vf::TransitionModel;
use dvs_workloads::{mpeg_input, Benchmark, MpegInput, MPEG_INPUTS};

/// Fig. 19: mpeg runtimes for each input under schedules optimized from
/// (a) the same input, (b) the `flwr` profile, (c) the `bbc` profile,
/// (d) the equal-weight average of `flwr` and `bbc`.
#[must_use]
pub fn fig19(ctx: &Context) -> Report {
    let machine = ctx.machine.clone();
    let b = Benchmark::MpegDecode;
    let cfg = b.build_cfg();
    let ladder = ladder_of(3);
    // Scale-typical capacitance for mpeg (see context::scaled_capacitance_uf).
    let probe_trace = b.trace(&cfg, &mpeg_input(MpegInput::Flwr).spec());
    let probe_scheme = dvs_compiler::DeadlineScheme::measure(&machine, &cfg, &probe_trace);
    let tm = TransitionModel::with_capacitance_uf(scaled_capacitance_uf(b, probe_scheme.t_slow_us));
    let profiler = ModeProfiler::new(machine.clone());

    // Traces, profiles and deadline schemes per input.
    let mut traces: Vec<(MpegInput, Trace)> = Vec::new();
    let mut profiles = std::collections::HashMap::new();
    let mut deadlines = std::collections::HashMap::new();
    for &k in &MPEG_INPUTS {
        let spec = mpeg_input(k).spec();
        let trace = b.trace(&cfg, &spec);
        let (profile, runs) = profiler.profile_unclassified(&cfg, &trace, &ladder);
        let scheme = DeadlineScheme::from_runs_or_measure(&runs, &machine, &cfg, &trace);
        deadlines.insert(k.name(), scheme.deadline_us(3));
        profiles.insert(k.name(), profile);
        traces.push((k, trace));
    }

    // Schedule builders per strategy.
    let schedule_for = |profile_input: MpegInput| -> Option<EdgeSchedule> {
        let p = &profiles[profile_input.name()];
        let d = deadlines[profile_input.name()];
        dvs_compiler::MilpFormulation::new(&cfg, p, &ladder, &tm, d)
            .solve()
            .ok()
            .map(|o| o.schedule)
    };
    let avg_schedule = || -> Option<EdgeSchedule> {
        let cats: Vec<CategoryProfile> = [MpegInput::Flwr, MpegInput::Bbc]
            .iter()
            .map(|k| CategoryProfile {
                weight: 0.5,
                profile: profiles[k.name()].clone(),
                deadline_us: deadlines[k.name()],
            })
            .collect();
        MultiCategory::new(&cfg, &cats, &ladder, &tm)
            .solve()
            .ok()
            .map(|o| o.schedule)
    };
    // Naive alternative: blend the two profiles into one and run the plain
    // single-category MILP against the tighter of the two deadlines.
    let merged_schedule = || -> Option<EdgeSchedule> {
        let merged = dvs_ir::Profile::weighted_merge(&[
            (0.5, &profiles[MpegInput::Flwr.name()]),
            (0.5, &profiles[MpegInput::Bbc.name()]),
        ]);
        let d = deadlines[MpegInput::Flwr.name()].min(deadlines[MpegInput::Bbc.name()]);
        dvs_compiler::MilpFormulation::new(&cfg, &merged, &ladder, &tm, d)
            .solve()
            .ok()
            .map(|o| o.schedule)
    };

    let mut r = Report::new(
        "fig19",
        "Dependence of program runtime on the input used for MILP profiling",
    );
    r.note("mpeg/decode; runtimes in µs under each schedule; deadline = each input's D3");
    r.note("categories: no-B-frames = {100b, bbc}; 2-B-frames = {flwr, cact}");
    r.columns([
        "input",
        "deadline (µs)",
        "opt. for self",
        "opt. for flwr",
        "opt. for bbc",
        "multi-category MILP",
        "merged profile",
    ]);
    r.note("'multi-category' = §4.3 weighted objective with both deadlines; 'merged' =");
    r.note("naive profile blending + single-category MILP at the tighter deadline");

    let sched_flwr = schedule_for(MpegInput::Flwr);
    let sched_bbc = schedule_for(MpegInput::Bbc);
    let sched_avg = avg_schedule();
    let sched_merged = merged_schedule();
    for (k, trace) in &traces {
        let self_sched = schedule_for(*k);
        let time = |s: &Option<EdgeSchedule>| -> String {
            match s {
                Some(s) => {
                    let run = machine.run_scheduled(&cfg, trace, &ladder, s, &tm);
                    format!("{:.1}", run.time_us)
                }
                None => "inf.".to_string(),
            }
        };
        r.row([
            k.name().to_string(),
            format!("{:.1}", deadlines[k.name()]),
            time(&self_sched),
            time(&sched_flwr),
            time(&sched_bbc),
            time(&sched_avg),
            time(&sched_merged),
        ]);
    }
    r
}
