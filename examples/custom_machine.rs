//! Sweep a machine parameter: how does the benefit of compile-time DVS
//! change as main memory gets slower (the paper's "extrapolate into the
//! future" use of the analytical model)?
//!
//! As memory latency grows, `tinvariant` grows, programs become
//! memory-dominated, and the two-frequency optimum pulls further away from
//! the best single frequency.
//!
//! ```text
//! cargo run --release --example custom_machine
//! ```

use compile_time_dvs::prelude::*;
use compile_time_dvs::sim::{EnergyModel, SimConfig};

fn main() {
    let b = Benchmark::MpegDecode;
    let cfg = b.build_cfg();
    let trace = b.trace(&cfg, &b.default_input());
    let ladder = VoltageLadder::xscale3(&AlphaPower::paper());

    println!(
        "benchmark: {} — analytical DVS bound vs memory latency\n",
        b.name()
    );
    println!(
        "{:>16} {:>12} {:>12} {:>10} {:>10}",
        "mem latency (ns)", "t800 (µs)", "tinv (µs)", "D4 bound", "D5 bound"
    );
    for mem_ns in [40.0, 80.0, 160.0, 320.0, 640.0] {
        let config = SimConfig {
            mem_latency_us: mem_ns / 1000.0,
            ..SimConfig::default()
        };
        let machine = Machine::new(config, EnergyModel::default());
        let scheme = DeadlineScheme::measure(&machine, &cfg, &trace);
        let (_, _, fastest) =
            ModeProfiler::new(machine).profile_with_fastest(&cfg, &trace, &ladder);
        let params = analyze_params(&fastest);
        let model = DiscreteModel::new(ladder.clone());
        let s4 = model
            .savings(&params, scheme.deadline_us(4))
            .map_or("inf.".to_string(), |s| format!("{s:.3}"));
        let s5 = model
            .savings(&params, scheme.deadline_us(5))
            .map_or("inf.".to_string(), |s| format!("{s:.3}"));
        let t800 = fastest.total_time_us;
        println!(
            "{mem_ns:>16.0} {:>12.1} {:>12.1} {:>10} {:>10}",
            t800, params.t_invariant_us, s4, s5
        );
    }
    println!("\nSlower memory grows the frequency-invariant stall time tinvariant —");
    println!("the asynchronous window a slow clock can hide work in. The savings");
    println!("bound stays high as the machine becomes memory-dominated even though");
    println!("the deadlines themselves stretch with the longer runtimes.");
}
