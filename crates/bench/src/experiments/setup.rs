//! Configuration and methodology tables: Tables 2, 4 and 7.

use crate::{Context, Report};
use dvs_compiler::analyze_params;
use dvs_sim::SimConfig;
use dvs_workloads::Benchmark;

/// Table 2: the simulated machine configuration.
#[must_use]
pub fn table2() -> Report {
    let c = SimConfig::default();
    let mut r = Report::new("table2", "Configuration parameters for CPU simulation");
    r.columns(["parameter", "value"]);
    r.row(["RUU size", &format!("{} instructions", c.ruu_size)]);
    r.row(["LSQ size", &format!("{} instructions", c.lsq_size)]);
    r.row([
        "Fetch queue size",
        &format!("{} instructions", c.fetch_queue),
    ]);
    r.row([
        "Fetch width",
        &format!("{} instructions/cycle", c.fetch_width),
    ]);
    r.row([
        "Decode width",
        &format!("{} instructions/cycle", c.decode_width),
    ]);
    r.row([
        "Issue width",
        &format!("{} instructions/cycle", c.issue_width),
    ]);
    r.row([
        "Commit width",
        &format!("{} instructions/cycle", c.commit_width),
    ]);
    r.row([
        "Functional units".to_string(),
        format!(
            "{} int ALU, {} int mul/div, {} FP add, {} FP mul, {} FP div/sqrt",
            c.int_alus, c.int_mult, c.fp_adders, c.fp_mult, c.fp_div
        ),
    ]);
    r.row([
        "Branch predictor".to_string(),
        format!(
            "combined: bimodal {}-entry; 2-level {}-entry, {}-bit history; {}-entry chooser",
            c.predictor.bimodal_entries,
            c.predictor.two_level_entries,
            c.predictor.history_bits,
            c.predictor.chooser_entries
        ),
    ]);
    r.row([
        "BTB".to_string(),
        format!(
            "{}-entry, {}-way",
            c.predictor.btb_entries, c.predictor.btb_ways
        ),
    ]);
    r.row([
        "L1 data cache".to_string(),
        format!(
            "{}K, {}-way (LRU), {}B blocks, {}-cycle latency",
            c.l1d.size_bytes / 1024,
            c.l1d.ways,
            c.l1d.block_bytes,
            c.l1_latency
        ),
    ]);
    r.row(["L1 instruction cache", "same as L1 data cache"]);
    r.row([
        "L2".to_string(),
        format!(
            "unified, {}K, {}-way (LRU), {}B blocks, {}-cycle latency",
            c.l2.size_bytes / 1024,
            c.l2.ways,
            c.l2.block_bytes,
            c.l2_latency
        ),
    ]);
    r.row([
        "TLBs".to_string(),
        format!("{}-entry, {}-byte pages", c.tlb_entries, c.page_bytes),
    ]);
    r.row([
        "Main memory".to_string(),
        format!(
            "asynchronous, {} ns service time",
            c.mem_latency_us * 1000.0
        ),
    ]);
    r
}

/// Table 4: reference runtimes at 200/600/800 MHz and the five chosen
/// deadlines per benchmark (µs; the paper reports ms at its ~100x scale).
#[must_use]
pub fn table4(ctx: &Context) -> Report {
    let mut r = Report::new(
        "table4",
        "Deadline boundaries and chosen deadlines per benchmark (µs)",
    );
    r.note("the paper's Table 4 is in ms on unscaled inputs; shapes (ratios, orderings) match");
    r.columns([
        "benchmark",
        "t@200MHz",
        "t@600MHz",
        "t@800MHz",
        "D1",
        "D2",
        "D3",
        "D4",
        "D5",
    ]);
    for b in Benchmark::all() {
        let s = ctx.bench(b).scheme;
        let d = s.deadlines_us();
        r.row([
            b.name().to_string(),
            format!("{:.1}", s.t_slow_us),
            format!("{:.1}", s.t_mid_us),
            format!("{:.1}", s.t_fast_us),
            format!("{:.1}", d[0]),
            format!("{:.1}", d[1]),
            format!("{:.1}", d[2]),
            format!("{:.1}", d[3]),
            format!("{:.1}", d[4]),
        ]);
    }
    r
}

/// Table 7: simulated program parameters for the analytical model.
#[must_use]
pub fn table7(ctx: &Context) -> Report {
    let mut r = Report::new("table7", "Simulation results of program parameters");
    r.note("cycle counts in Kcycles at the 800 MHz reference; tinvariant absolute");
    r.columns([
        "benchmark",
        "Ncache (Kcycles)",
        "Noverlap (Kcycles)",
        "Ndependent (Kcycles)",
        "tinvariant (µs)",
    ]);
    for b in Benchmark::table7_set() {
        let (_, fastest) = ctx.profile_of(b, 3);
        let p = analyze_params(&fastest);
        r.row([
            b.name().to_string(),
            format!("{:.1}", p.n_cache / 1000.0),
            format!("{:.1}", p.n_overlap / 1000.0),
            format!("{:.1}", p.n_dependent / 1000.0),
            format!("{:.1}", p.t_invariant_us),
        ]);
    }
    r
}
