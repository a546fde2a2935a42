//! MILP-pass experiments: Figs. 14, 15, 17, 18 and Tables 3, 5, 6, plus the
//! block-vs-edge granularity ablation.
//!
//! The grid-shaped experiments fan their independent cells out over the
//! context's job count (`Context::par_map`); rows are assembled in
//! benchmark order afterwards, so the reports are byte-identical whatever
//! the parallelism.

use crate::context::{ladder_of, scaled_capacitance_uf};
use crate::{Context, Report};
use dvs_compiler::{baseline, DvsCompiler, EdgeFilter, Granularity, MilpFormulation};
use dvs_sim::Machine;
use dvs_vf::TransitionModel;
use dvs_workloads::Benchmark;

fn compiler(machine: &Machine, levels: usize, cap_uf: f64) -> DvsCompiler {
    DvsCompiler::builder(
        machine.clone(),
        ladder_of(levels),
        TransitionModel::with_capacitance_uf(cap_uf),
    )
    .build()
    .expect("experiment compiler settings are valid")
}

/// The five Fig.-16 deadlines of `scheme`, in order D1..D5.
fn deadline_grid(scheme: &dvs_compiler::DeadlineScheme) -> Vec<f64> {
    (1..=5).map(|i| scheme.deadline_us(i)).collect()
}

/// Fig. 14: MILP solve-time speedup from edge filtering.
#[must_use]
pub fn fig14(ctx: &Context) -> Report {
    let mut r = Report::new("fig14", "Speedup in MILP solution time from edge filtering");
    r.note("scale-typical c per benchmark (paper 10 µF x runtime ratio); deadline D2");
    r.columns([
        "benchmark",
        "edges",
        "independent after filter",
        "t_all (µs)",
        "t_filtered (µs)",
        "speedup",
    ]);
    let rows = ctx.par_map(Benchmark::all().to_vec(), |_, b| {
        let (profile, _) = ctx.profile_of(b, 3);
        let bd = ctx.bench(b);
        let deadline = bd.scheme.deadline_us(2);
        let ladder = ladder_of(3);
        let tm =
            TransitionModel::with_capacitance_uf(scaled_capacitance_uf(b, bd.scheme.t_slow_us));

        let unfiltered = MilpFormulation::new(&bd.cfg, &profile, &ladder, &tm, deadline)
            .with_filter(EdgeFilter::identity(&bd.cfg))
            .solve();
        let filt = EdgeFilter::tail_rule(&bd.cfg, &profile, ladder.len() - 1, 0.02);
        let independent = filt.num_independent();
        let filtered = MilpFormulation::new(&bd.cfg, &profile, &ladder, &tm, deadline)
            .with_filter(filt)
            .solve();
        match (unfiltered, filtered) {
            (Ok(u), Ok(f)) => {
                let tu = u.solve_time.as_secs_f64() * 1e6;
                let tf = f.solve_time.as_secs_f64() * 1e6;
                vec![
                    b.name().to_string(),
                    bd.cfg.num_edges().to_string(),
                    independent.to_string(),
                    format!("{tu:.0}"),
                    format!("{tf:.0}"),
                    format!("{:.2}", tu / tf.max(1.0)),
                ]
            }
            _ => vec![b.name().to_string(), "infeasible".to_string()],
        }
    });
    r.rows.extend(rows);
    r
}

/// Table 3: minimum energy with the full edge set vs the filtered subset.
#[must_use]
pub fn table3(ctx: &Context) -> Report {
    let mut r = Report::new(
        "table3",
        "Energy consumption: MILP on all edges vs filtered subset (µJ)",
    );
    r.note("scale-typical c per benchmark (paper 10 µF x runtime ratio); deadline D2; deadlines met in both");
    r.columns([
        "benchmark",
        "All:Energy (µJ)",
        "Subset:Energy (µJ)",
        "delta (%)",
    ]);
    let rows = ctx.par_map(Benchmark::all().to_vec(), |_, b| {
        let (profile, _) = ctx.profile_of(b, 3);
        let bd = ctx.bench(b);
        let deadline = bd.scheme.deadline_us(2);
        let ladder = ladder_of(3);
        let tm =
            TransitionModel::with_capacitance_uf(scaled_capacitance_uf(b, bd.scheme.t_slow_us));
        let all = MilpFormulation::new(&bd.cfg, &profile, &ladder, &tm, deadline)
            .with_filter(EdgeFilter::identity(&bd.cfg))
            .solve();
        let filt = EdgeFilter::tail_rule(&bd.cfg, &profile, ladder.len() - 1, 0.02);
        let sub = MilpFormulation::new(&bd.cfg, &profile, &ladder, &tm, deadline)
            .with_filter(filt)
            .solve();
        match (all, sub) {
            (Ok(a), Ok(s)) => {
                let delta = 100.0 * (s.predicted_energy_uj - a.predicted_energy_uj)
                    / a.predicted_energy_uj.max(1e-12);
                vec![
                    b.name().to_string(),
                    format!("{:.1}", a.predicted_energy_uj),
                    format!("{:.1}", s.predicted_energy_uj),
                    format!("{delta:+.3}"),
                ]
            }
            _ => vec![b.name().to_string(), "infeasible".to_string()],
        }
    });
    r.rows.extend(rows);
    r
}

/// Fig. 15: impact of the transition cost (regulator capacitance sweep).
/// Each (benchmark, capacitance) cell is an independent compile, fanned out
/// over the context's job count.
#[must_use]
pub fn fig15(ctx: &Context) -> Report {
    let mut r = Report::new("fig15", "Impact of transition cost on minimum energy");
    r.note("energy normalized to the all-600MHz run; deadline D5; 3-level ladder");
    r.note("c labelled in paper-equivalent µF; actual values are scaled per benchmark to preserve the paper's transition-cost/runtime ratio");
    r.columns([
        "benchmark",
        "c (µF)",
        "normalized energy",
        "dynamic transitions",
    ]);
    let caps = [100.0, 10.0, 1.0, 0.1, 0.01];
    let cells: Vec<(Benchmark, f64)> = Benchmark::all()
        .into_iter()
        .flat_map(|b| caps.into_iter().map(move |c| (b, c)))
        .collect();
    let rows = ctx.par_map(cells, |_, (b, c)| {
        let (profile, _) = ctx.profile_of(b, 3);
        let bd = ctx.bench(b);
        let deadline = bd.scheme.deadline_us(5);
        let base_600 = profile.total_energy_at(1); // mode 1 = 600 MHz
        let scale = scaled_capacitance_uf(b, bd.scheme.t_slow_us) / 10.0;
        let comp = compiler(&ctx.machine, 3, c * scale);
        match comp.compile_and_validate(&bd.cfg, &bd.trace, &profile, deadline) {
            Ok(res) => {
                let v = res.validated.expect("validated");
                vec![
                    b.name().to_string(),
                    format!("{c}"),
                    format!("{:.4}", res.milp.predicted_energy_uj / base_600),
                    v.transitions.to_string(),
                ]
            }
            Err(_) => vec![b.name().to_string(), format!("{c}"), "infeasible".into()],
        }
    });
    r.rows.extend(rows);
    r
}

/// Fig. 17: impact of the deadline on optimized energy. Solves one
/// benchmark's five deadlines in parallel ([`Context::par_map`]) over the
/// shared immutable profile.
#[must_use]
pub fn fig17(ctx: &Context) -> Report {
    let mut r = Report::new("fig17", "Impact of deadline on energy");
    r.note("energy normalized to the best single-frequency setting meeting the deadline; scale-typical c");
    r.columns(["benchmark", "deadline", "normalized energy", "savings"]);
    let rows = ctx.par_map(Benchmark::all().to_vec(), |_, b| {
        let (profile, _) = ctx.profile_of(b, 3);
        let bd = ctx.bench(b);
        let comp = compiler(
            &ctx.machine,
            3,
            scaled_capacitance_uf(b, bd.scheme.t_slow_us),
        );
        let results = ctx.par_map(deadline_grid(&bd.scheme), |_, deadline| {
            comp.compile(&bd.cfg, &profile, deadline)
        });
        results
            .into_iter()
            .zip(1..)
            .map(|(res, i)| match res {
                Ok(res) => {
                    let cell = match res.single_mode {
                        Some((_, _, se)) if se > 0.0 => {
                            format!("{:.4}", res.milp.predicted_energy_uj / se)
                        }
                        _ => "n/a".to_string(),
                    };
                    let sv = res
                        .savings_vs_single()
                        .map_or("n/a".to_string(), |s| format!("{s:.3}"));
                    vec![b.name().to_string(), format!("D{i}"), cell, sv]
                }
                Err(_) => vec![b.name().to_string(), format!("D{i}"), "infeasible".into()],
            })
            .collect::<Vec<_>>()
    });
    r.rows.extend(rows.into_iter().flatten());
    r
}

/// Fig. 18: MILP solution time for different deadlines.
#[must_use]
pub fn fig18(ctx: &Context) -> Report {
    let mut r = Report::new("fig18", "MILP solution time vs deadline");
    r.note("wall-clock µs of branch-and-bound (CPLEX in the paper reported seconds at its scale)");
    r.columns(["benchmark", "deadline", "solve time (µs)", "B&B nodes"]);
    let rows = ctx.par_map(Benchmark::all().to_vec(), |_, b| {
        let (profile, _) = ctx.profile_of(b, 3);
        let bd = ctx.bench(b);
        let comp = compiler(
            &ctx.machine,
            3,
            scaled_capacitance_uf(b, bd.scheme.t_slow_us),
        );
        (1..=5usize)
            .map(|i| {
                let deadline = bd.scheme.deadline_us(i);
                match comp.compile(&bd.cfg, &profile, deadline) {
                    Ok(res) => vec![
                        b.name().to_string(),
                        format!("D{i}"),
                        format!("{:.0}", res.milp.solve_time.as_secs_f64() * 1e6),
                        res.milp.solve_stats.nodes.to_string(),
                    ],
                    Err(_) => vec![b.name().to_string(), format!("D{i}"), "infeasible".into()],
                }
            })
            .collect::<Vec<_>>()
    });
    r.rows.extend(rows.into_iter().flatten());
    r
}

/// Table 5: dynamic mode-transition counts per deadline (measured by
/// re-simulating the schedule). Cells fan out per (benchmark, deadline).
#[must_use]
pub fn table5(ctx: &Context) -> Report {
    let mut r = Report::new("table5", "Dynamic mode transition counts");
    r.note("scale-typical c; measured by re-executing each schedule on the simulator");
    r.columns(["benchmark", "D1", "D2", "D3", "D4", "D5"]);
    let cells: Vec<(Benchmark, usize)> = Benchmark::all()
        .into_iter()
        .flat_map(|b| (1..=5usize).map(move |i| (b, i)))
        .collect();
    let counts = ctx.par_map(cells, |_, (b, i)| {
        let (profile, _) = ctx.profile_of(b, 3);
        let bd = ctx.bench(b);
        let comp = compiler(
            &ctx.machine,
            3,
            scaled_capacitance_uf(b, bd.scheme.t_slow_us),
        );
        let deadline = bd.scheme.deadline_us(i);
        match comp.compile_and_validate(&bd.cfg, &bd.trace, &profile, deadline) {
            Ok(res) => res.validated.expect("validated").transitions.to_string(),
            Err(_) => "inf.".to_string(),
        }
    });
    for (bi, b) in Benchmark::all().into_iter().enumerate() {
        let mut row = vec![b.name().to_string()];
        row.extend_from_slice(&counts[bi * 5..bi * 5 + 5]);
        r.rows.push(row);
    }
    r
}

/// Table 6: MILP energy savings for 3/7/13 voltage levels × 5 deadlines.
/// Each (benchmark, levels) pair is an independent parallel task that
/// compiles its five deadline cells in order.
#[must_use]
pub fn table6(ctx: &Context) -> Report {
    let mut r = Report::new(
        "table6",
        "Simulated (MILP) energy-saving ratios: benchmark × levels × deadline",
    );
    r.note("savings vs best single mode meeting the deadline; scale-typical c per benchmark");
    r.columns(["benchmark", "levels", "D1", "D2", "D3", "D4", "D5"]);
    let tasks: Vec<(Benchmark, usize)> = Benchmark::table7_set()
        .into_iter()
        .flat_map(|b| [3usize, 7, 13].into_iter().map(move |l| (b, l)))
        .collect();
    let rows = ctx.par_map(tasks, |_, (b, levels)| {
        let (profile, _) = ctx.profile_of(b, levels);
        let bd = ctx.bench(b);
        let comp = compiler(
            &ctx.machine,
            levels,
            scaled_capacitance_uf(b, bd.scheme.t_slow_us),
        );
        let mut cells = vec![b.name().to_string(), levels.to_string()];
        for deadline in deadline_grid(&bd.scheme) {
            match comp.compile(&bd.cfg, &profile, deadline) {
                Ok(res) => cells.push(
                    res.savings_vs_single()
                        .map_or("n/a".to_string(), |s| format!("{s:.2}")),
                ),
                Err(_) => cells.push("inf.".to_string()),
            }
        }
        cells
    });
    r.rows.extend(rows);
    r
}

/// Ablation: the paper's edge-granularity formulation vs the
/// block-granularity formulation of prior work (§7 discussion), plus the
/// Saputra no-transition-cost baseline and the Hsu–Kremer heuristic.
#[must_use]
pub fn ablation_block_vs_edge(ctx: &Context) -> Report {
    let mut r = Report::new(
        "ablation",
        "Granularity & baseline ablation: edge-MILP vs block-MILP vs Saputra vs Hsu-Kremer",
    );
    r.note("deadline D2; scale-typical c; 3-level ladder; energies in µJ (predicted)");
    r.columns([
        "benchmark",
        "edge MILP",
        "block MILP",
        "Saputra (no trans. cost)",
        "Hsu-Kremer heuristic",
        "best single",
    ]);
    let rows = ctx.par_map(Benchmark::all().to_vec(), |_, b| {
        let (profile, _) = ctx.profile_of(b, 3);
        let bd = ctx.bench(b);
        let deadline = bd.scheme.deadline_us(2);
        let ladder = ladder_of(3);
        let tm =
            TransitionModel::with_capacitance_uf(scaled_capacitance_uf(b, bd.scheme.t_slow_us));
        let edge = MilpFormulation::new(&bd.cfg, &profile, &ladder, &tm, deadline).solve();
        let block = MilpFormulation::new(&bd.cfg, &profile, &ladder, &tm, deadline)
            .with_granularity(Granularity::Block)
            .solve();
        let sap = baseline::saputra(&bd.cfg, &profile, &ladder, deadline);
        let hk = baseline::hsu_kremer(&bd.cfg, &profile, &ladder, deadline, 2.0);
        let single = baseline::best_single_mode(&profile, &ladder, deadline);
        let fmt = |o: &Result<dvs_compiler::MilpOutcome, dvs_milp::MilpError>| match o {
            Ok(v) => format!("{:.1}", v.predicted_energy_uj),
            Err(_) => "inf.".to_string(),
        };
        let hk_energy = hk.map_or("inf.".to_string(), |s| {
            // Predicted energy of the heuristic schedule from the profile.
            let mut e = 0.0;
            for edge in bd.cfg.edges() {
                let m = s.edge_modes[edge.id.index()].index();
                e += profile.edge_count(edge.id) as f64 * profile.block_cost(edge.dst, m).energy_uj;
            }
            e += profile
                .block_cost(bd.cfg.entry(), s.initial.index())
                .energy_uj
                * profile.block_count(bd.cfg.entry()) as f64;
            format!("{e:.1}")
        });
        vec![
            b.name().to_string(),
            fmt(&edge),
            fmt(&block),
            fmt(&sap),
            hk_energy,
            single.map_or("inf.".to_string(), |(_, _, e)| format!("{e:.1}")),
        ]
    });
    r.rows.extend(rows);
    r
}
