//! Analytical-model experiments: Figs. 2–11 and Table 1.

use crate::context::ladder_of;
use crate::{Context, Report};
use dvs_compiler::analyze_params;
use dvs_model::{ContinuousModel, DiscreteModel, ProgramParams, Surface, SweepAxis};
use dvs_vf::AlphaPower;
use dvs_workloads::Benchmark;

/// Wide-range continuous model: the theoretical analysis is not limited by
/// any shipping voltage regulator, so the sweep range runs well past the
/// ladder endpoints (the paper's Figs. 2–7 scan v1 up to 3.5 V).
fn wide_continuous() -> ContinuousModel {
    ContinuousModel::new(AlphaPower::paper(), 0.46, 8.0)
}

fn energy_curve(id: &str, title: &str, p: ProgramParams, t_deadline_us: f64) -> Report {
    let m = wide_continuous();
    let mut r = Report::new(id, title);
    r.note(format!(
        "Noverlap={:.3e}  Ndependent={:.3e}  Ncache={:.3e}  tinv={} µs  tdeadline={} µs",
        p.n_overlap, p.n_dependent, p.n_cache, p.t_invariant_us, t_deadline_us
    ));
    r.note(format!("case = {:?}", m.classify(&p, t_deadline_us)));
    if let Some(opt) = m.optimal(&p, t_deadline_us) {
        r.note(format!(
            "optimal: v1={:.3} V (f1={:.0} MHz)  v2={:.3} V (f2={:.0} MHz)  E={:.4e}",
            opt.v1, opt.f1_mhz, opt.v2, opt.f2_mhz, opt.energy
        ));
        if let Some(s) = m.savings(&p, t_deadline_us) {
            r.note(format!("savings vs best single frequency = {s:.4}"));
        }
    } else {
        r.note("deadline infeasible at any voltage in range".to_string());
    }
    r.columns(["v1 (V)", "energy (cycle·V²)"]);
    let mut v = 0.6;
    while v <= 3.5 + 1e-9 {
        match m.energy_at_v1(&p, t_deadline_us, v) {
            Some(e) => r.row([format!("{v:.2}"), format!("{e:.6e}")]),
            None => r.row([format!("{v:.2}"), "infeasible".to_string()]),
        }
        v += 0.05;
    }
    r
}

/// Fig. 2: computation-dominated energy-vs-v1 curve (single minimum at
/// `videal`).
#[must_use]
pub fn fig2() -> Report {
    energy_curve(
        "fig2",
        "Computation dominated: energy vs supply voltage v1",
        ProgramParams {
            n_overlap: 1.0e6,
            n_dependent: 6.0e5,
            n_cache: 1.0e5,
            t_invariant_us: 100.0,
        },
        3000.0,
    )
}

/// Fig. 3: memory-dominated curve (minimum below `videal`, two voltages
/// optimal).
#[must_use]
pub fn fig3() -> Report {
    energy_curve(
        "fig3",
        "Memory dominated: energy vs supply voltage v1",
        ProgramParams {
            n_overlap: 1.0e6,
            n_dependent: 6.0e5,
            n_cache: 3.0e5,
            t_invariant_us: 2000.0,
        },
        3000.0,
    )
}

/// Fig. 4: memory-dominated-with-slack curve (convex, single optimal
/// frequency).
#[must_use]
pub fn fig4() -> Report {
    energy_curve(
        "fig4",
        "Memory dominated with slack: energy vs supply voltage v1",
        ProgramParams {
            n_overlap: 2.0e5,
            n_dependent: 3.0e6,
            n_cache: 1.5e6,
            t_invariant_us: 1000.0,
        },
        5000.0,
    )
}

fn surface_report(id: &str, title: &str, notes: &[String], surface: &Surface) -> Report {
    let mut r = Report::new(id, title);
    for n in notes {
        r.note(n.clone());
    }
    let (ax, ay) = surface.argmax();
    r.note(format!(
        "max savings = {:.4} at ({} = {:.4e}, {} = {:.4e}); fraction of grid with savings > 1% = {:.3}",
        surface.max(),
        surface.x.label,
        ax,
        surface.y.label,
        ay,
        surface.fraction_above(0.01)
    ));
    r.columns([
        surface.x.label.as_str(),
        surface.y.label.as_str(),
        "savings",
    ]);
    for (yi, row) in surface.z.iter().enumerate() {
        for (xi, &z) in row.iter().enumerate() {
            r.row([
                format!("{:.5e}", surface.x.values[xi]),
                format!("{:.5e}", surface.y.values[yi]),
                format!("{z:.4}"),
            ]);
        }
    }
    r
}

/// Fig. 5: continuous savings over (Noverlap, Ndependent).
#[must_use]
pub fn fig5() -> Report {
    let m = wide_continuous();
    let (nc, tinv, tdl) = (3.0e5, 1000.0, 3000.0);
    let s = Surface::sweep(
        SweepAxis::linspace("Noverlap (cycles)", 2.0e5, 1.8e6, 17),
        SweepAxis::linspace("Ndependent (cycles)", 5.0e4, 1.5e6, 15),
        |nov, nd| {
            let p = ProgramParams {
                n_overlap: nov,
                n_dependent: nd,
                n_cache: nc,
                t_invariant_us: tinv,
            };
            m.savings(&p, tdl).unwrap_or(0.0)
        },
    );
    surface_report(
        "fig5",
        "Continuous case: savings vs (Noverlap, Ndependent)",
        &[format!(
            "Ncache={nc:.0} cycles, tdeadline={tdl} µs, tinvariant={tinv} µs"
        )],
        &s,
    )
}

/// Fig. 6: continuous savings over (Ncache, tinvariant).
#[must_use]
pub fn fig6() -> Report {
    let m = wide_continuous();
    let (nov, nd, tdl) = (4.0e6, 5.8e6, 5000.0);
    let s = Surface::sweep(
        SweepAxis::linspace("Ncache (cycles)", 2.0e5, 1.8e6, 17),
        SweepAxis::linspace("tinvariant (µs)", 500.0, 3500.0, 13),
        |nc, tinv| {
            let p = ProgramParams {
                n_overlap: nov,
                n_dependent: nd,
                n_cache: nc,
                t_invariant_us: tinv,
            };
            m.savings(&p, tdl).unwrap_or(0.0)
        },
    );
    surface_report(
        "fig6",
        "Continuous case: savings vs (Ncache, tinvariant)",
        &[format!(
            "Noverlap={nov:.0}, Ndependent={nd:.0} cycles, tdeadline={tdl} µs"
        )],
        &s,
    )
}

/// Fig. 7: continuous savings over (tdeadline, Ncache).
#[must_use]
pub fn fig7() -> Report {
    let m = wide_continuous();
    let (nov, nd, tinv) = (4.0e6, 5.7e6, 1000.0);
    let s = Surface::sweep(
        SweepAxis::linspace("tdeadline (µs)", 1500.0, 5000.0, 15),
        SweepAxis::linspace("Ncache (cycles)", 5.0e5, 3.5e6, 13),
        |tdl, nc| {
            let p = ProgramParams {
                n_overlap: nov,
                n_dependent: nd,
                n_cache: nc,
                t_invariant_us: tinv,
            };
            m.savings(&p, tdl).unwrap_or(0.0)
        },
    );
    surface_report(
        "fig7",
        "Continuous case: savings vs (tdeadline, Ncache)",
        &[format!(
            "Noverlap={nov:.0}, Ndependent={nd:.0} cycles, tinvariant={tinv} µs"
        )],
        &s,
    )
}

/// Fig. 8: the discrete `Emin(y)` staircase scan.
#[must_use]
pub fn fig8() -> Report {
    let model = DiscreteModel::new(ladder_of(7));
    let p = ProgramParams {
        n_overlap: 1.0e6,
        n_dependent: 6.0e5,
        n_cache: 3.0e5,
        t_invariant_us: 2000.0,
    };
    let tdl = 3400.0;
    let mut r = Report::new(
        "fig8",
        "Discrete case: Emin(y) vs execution time y of Ncache",
    );
    r.note(format!(
        "7 voltage levels; Noverlap={:.0}, Ndependent={:.0}, Ncache={:.0}, tinv={} µs, tdeadline={tdl} µs",
        p.n_overlap, p.n_dependent, p.n_cache, p.t_invariant_us
    ));
    if let Some(sol) = model.optimal(&p, tdl) {
        r.note(format!(
            "optimal energy {:.5e} at y = {:?} µs, using {} modes",
            sol.energy,
            sol.y_us.map(|y| (y * 10.0).round() / 10.0),
            sol.plan.modes_used()
        ));
    }
    r.columns(["y (µs)", "Emin(y) (cycle·V²)"]);
    for (y, e) in model.emin_curve(&p, tdl, 120) {
        r.row([format!("{y:.1}"), format!("{e:.6e}")]);
    }
    r
}

#[allow(clippy::too_many_arguments)] // one arg per sweep dimension; a struct would just rename them
fn discrete_surface(
    id: &str,
    title: &str,
    levels: usize,
    notes: Vec<String>,
    x: SweepAxis,
    y: SweepAxis,
    f: impl Fn(f64, f64) -> ProgramParams,
    tdl: impl Fn(f64, f64) -> f64,
) -> Report {
    let model = DiscreteModel::new(ladder_of(levels));
    let s = Surface::sweep(x, y, |xv, yv| {
        model.savings(&f(xv, yv), tdl(xv, yv)).unwrap_or(0.0)
    });
    surface_report(id, title, &notes, &s)
}

/// Fig. 9: discrete savings over (Noverlap, Ndependent), 7 levels.
#[must_use]
pub fn fig9() -> Report {
    let (nc, tinv, tdl) = (2.0e5, 1000.0, 5200.0);
    discrete_surface(
        "fig9",
        "Discrete case (7 levels): savings vs (Noverlap, Ndependent)",
        7,
        vec![format!(
            "Ncache={nc:.0} cycles, tdeadline={tdl} µs, tinvariant={tinv} µs"
        )],
        SweepAxis::linspace("Noverlap (cycles)", 2.0e5, 1.8e6, 17),
        SweepAxis::linspace("Ndependent (cycles)", 5.0e4, 1.5e6, 15),
        move |nov, nd| ProgramParams {
            n_overlap: nov,
            n_dependent: nd,
            n_cache: nc,
            t_invariant_us: tinv,
        },
        move |_, _| tdl,
    )
}

/// Fig. 10: discrete savings over (Ncache, tinvariant), 7 levels.
#[must_use]
pub fn fig10() -> Report {
    let (nov, nd, tdl) = (1.3e7, 7.0e7, 3.5e5);
    discrete_surface(
        "fig10",
        "Discrete case (7 levels): savings vs (Ncache, tinvariant)",
        7,
        vec![format!(
            "Noverlap={nov:.1e}, Ndependent={nd:.1e} cycles, tdeadline={tdl:.1e} µs"
        )],
        SweepAxis::linspace("Ncache (cycles)", 5.0e5, 1.5e7, 15),
        SweepAxis::linspace("tinvariant (µs)", 500.0, 15000.0, 13),
        move |nc, tinv| ProgramParams {
            n_overlap: nov,
            n_dependent: nd,
            n_cache: nc,
            t_invariant_us: tinv,
        },
        move |_, _| tdl,
    )
}

/// Fig. 11: discrete savings over (tdeadline, Ncache), 7 levels.
#[must_use]
pub fn fig11() -> Report {
    let (nov, nd, tinv) = (1.3e7, 7.0e7, 1000.0);
    let mut r = discrete_surface(
        "fig11",
        "Discrete case (7 levels): savings vs (tdeadline, Ncache)",
        7,
        vec![format!(
            "Noverlap={nov:.1e}, Ndependent={nd:.1e} cycles, tinvariant={tinv} µs"
        )],
        SweepAxis::linspace("tdeadline (µs)", 1.05e5, 2.6e5, 16),
        SweepAxis::linspace("Ncache (cycles)", 2.5e5, 1.5e6, 11),
        move |_, nc| ProgramParams {
            n_overlap: nov,
            n_dependent: nd,
            n_cache: nc,
            t_invariant_us: tinv,
        },
        move |tdl, _| tdl,
    );
    r.note(
        "paper caption lists tdeadline = 1340 µs, inconsistent with 8.3e7 cycles \
         at <= 800 MHz; axis interpreted as 10^3 µs (see EXPERIMENTS.md)"
            .to_string(),
    );
    r
}

/// Table 1: analytical savings bounds for the Table 7 benchmarks at 3/7/13
/// levels and the five Fig. 16 deadlines.
#[must_use]
pub fn table1(ctx: &Context) -> Report {
    let mut r = Report::new(
        "table1",
        "Analytical energy-saving ratios: benchmark × voltage levels × deadline",
    );
    r.note("program parameters extracted from cycle-level simulation (see table7)");
    r.columns(["benchmark", "levels", "D1", "D2", "D3", "D4", "D5"]);
    // The profiling runs dominate; fan them out per (benchmark, levels) cell
    // block and assemble rows in benchmark order afterwards.
    let tasks: Vec<(Benchmark, usize)> = Benchmark::table7_set()
        .into_iter()
        .flat_map(|b| [3usize, 7, 13].into_iter().map(move |l| (b, l)))
        .collect();
    let rows = ctx.par_map(tasks, |_, (b, levels)| {
        let (_, fastest) = ctx.profile_of(b, 3);
        let params = analyze_params(&fastest);
        let deadlines = ctx.bench(b).scheme.deadlines_us();
        let model = DiscreteModel::new(ladder_of(levels));
        let mut cells = vec![b.name().to_string(), levels.to_string()];
        for &d in &deadlines {
            match model.savings(&params, d) {
                Some(s) => cells.push(format!("{s:.2}")),
                None => cells.push("inf.".to_string()),
            }
        }
        cells
    });
    r.rows.extend(rows);
    r
}
