//! Trace → bytecode compiler: reads the machine's mode-independent
//! outcomes (memory hierarchy, TLBs, branch predictor) from one
//! [`Machine::record`] walk and stores them as interned integer ops.

use std::collections::HashMap;

use dvs_ir::{Cfg, Opcode};
use dvs_sim::{DataLevel, Machine, Trace};
use dvs_vf::{TransitionModel, VoltageLadder};

use crate::bytecode::{
    BlockOp, InstOp, RawOp, ReplayBytecode, Variant, ACC_L1, ACC_L2, ACC_MEM, ENTRY_EDGE, F_BRANCH,
    F_LOAD, F_MEM, F_MISPREDICT, F_WRITES,
};

/// Compiles `trace` as executed by `machine` into a schedule-independent
/// program for `ladder`'s modes under `transition`'s regulator. Evaluating
/// the result against an [`dvs_sim::EdgeSchedule`] reproduces
/// [`Machine::run_scheduled`] — bit-identically for time and transition
/// accounting, to ~1e-15 relative for processor energy.
///
/// # Panics
///
/// Panics if the trace is inconsistent with `cfg` (same contract as the
/// simulator).
#[must_use]
pub fn compile(
    machine: &Machine,
    cfg: &Cfg,
    trace: &Trace,
    ladder: &VoltageLadder,
    transition: &TransitionModel,
) -> ReplayBytecode {
    let _span = dvs_obs::span!("replay.compile");
    let cfgm = machine.config();
    let em = machine.energy_model();

    let rec = machine.record(cfg, trace);
    let mut outcomes = rec.outcomes();

    // fu_nf by pool index; pools 0 (ALU/AGU/branch) and 6 (nop) are the two
    // where several opcodes share a pool, and within each the simulator
    // charges one capacitance, so the pool determines the FU energy.
    let fu_pool_nf = [
        em.int_alu_nf,
        em.int_mul_nf,
        em.int_div_nf,
        em.fp_add_nf,
        em.fp_mul_nf,
        em.fp_div_nf,
        0.0,
    ];

    let mut interner: HashMap<Vec<RawOp>, u32> = HashMap::new();
    let mut variants: Vec<Variant> = Vec::new();
    let mut ops: Vec<BlockOp> = Vec::new();
    let mut dram_uj = 0.0f64;
    let mut trace_insts = 0usize;

    let mut prev_block: Option<dvs_ir::BlockId> = None;
    let mut raw: Vec<RawOp> = Vec::new();

    for dyn_block in trace.blocks() {
        let edge = match prev_block {
            Some(pb) => {
                let e = cfg
                    .edge_between(pb, dyn_block.block)
                    .expect("trace follows CFG edges");
                u32::try_from(e.index()).expect("edge index fits u32")
            }
            None => ENTRY_EDGE,
        };
        prev_block = Some(dyn_block.block);

        raw.clear();
        for inst in &cfg.block(dyn_block.block).insts {
            let outcome = outcomes
                .next()
                .expect("the record covers every dynamic instruction");
            let mut op = RawOp::default();
            if let Some(fetch) = outcome.fetch {
                match fetch.level {
                    DataLevel::L1 => op.icache = ACC_L1,
                    DataLevel::L2 => {
                        op.icache = ACC_L2;
                        op.icache_cyc = fetch.cycles - cfgm.l1_latency;
                    }
                    DataLevel::Memory => {
                        op.icache = ACC_MEM;
                        op.icache_cyc = fetch.cycles;
                        dram_uj += em.dram_uj_per_access;
                    }
                }
            }

            op.pool_ix = match inst.opcode {
                Opcode::IntAlu | Opcode::Branch | Opcode::Load | Opcode::Store => 0,
                Opcode::IntMul => 1,
                Opcode::IntDiv => 2,
                Opcode::FpAdd => 3,
                Opcode::FpMul => 4,
                Opcode::FpDiv => 5,
                Opcode::Nop => 6,
            };
            op.latency = inst.opcode.base_latency();
            for s in &inst.srcs {
                if !s.is_zero() {
                    assert!(
                        (op.nsrc as usize) < op.srcs.len(),
                        "instruction reads more than 3 registers"
                    );
                    op.srcs[op.nsrc as usize] = s.0 % 64;
                    op.nsrc += 1;
                }
            }
            if inst.writes_reg() {
                op.flags |= F_WRITES;
                op.dest = inst.dest.0 % 64;
            }
            if let Some(access) = outcome.data {
                op.flags |= F_MEM;
                if inst.opcode == Opcode::Load {
                    op.flags |= F_LOAD;
                }
                op.dcache = match access.level {
                    DataLevel::L1 => ACC_L1,
                    DataLevel::L2 => ACC_L2,
                    DataLevel::Memory => ACC_MEM,
                };
                op.dcache_cyc = access.cycles;
                if access.level == DataLevel::Memory {
                    dram_uj += em.dram_uj_per_access;
                }
            }
            if inst.opcode.is_branch() {
                op.flags |= F_BRANCH;
                if outcome.mispredicted {
                    op.flags |= F_MISPREDICT;
                }
            }
            raw.push(op);
        }
        trace_insts += raw.len();

        let variant = match interner.get(&raw) {
            Some(&v) => v,
            None => {
                let v = u32::try_from(variants.len()).expect("variant count fits u32");
                variants.push(decode_variant(&raw, em, &fu_pool_nf));
                interner.insert(raw.clone(), v);
                v
            }
        };

        match ops.last_mut() {
            Some(last) if last.edge == edge && last.variant == variant => last.reps += 1,
            _ => ops.push(BlockOp {
                edge,
                variant,
                reps: 1,
            }),
        }
    }

    let num_modes = ladder.len();
    let mut period_us = Vec::with_capacity(num_modes);
    let mut vv = Vec::with_capacity(num_modes);
    for (_, point) in ladder.iter() {
        period_us.push(point.period_us());
        vv.push(point.voltage * point.voltage);
    }
    let mut switch_time_us = vec![0.0; num_modes * num_modes];
    let mut switch_energy_uj = vec![0.0; num_modes * num_modes];
    for (a, _) in ladder.iter() {
        for (b, _) in ladder.iter() {
            switch_time_us[a.index() * num_modes + b.index()] =
                transition.mode_time_us(ladder, a, b);
            switch_energy_uj[a.index() * num_modes + b.index()] =
                transition.mode_energy_uj(ladder, a, b);
        }
    }

    let pools = [
        cfgm.int_alus,
        cfgm.int_mult,
        cfgm.int_mult,
        cfgm.fp_adders,
        cfgm.fp_mult,
        cfgm.fp_div,
        1,
    ];
    let mut fu_offsets = [0usize; 8];
    for (p, &n) in pools.iter().enumerate() {
        fu_offsets[p + 1] = fu_offsets[p] + n.max(1);
    }

    if dvs_obs::enabled() {
        dvs_obs::counter("replay.compiles", 1);
        dvs_obs::histogram("replay.variants", variants.len() as f64);
    }
    ReplayBytecode {
        num_edges: cfg.num_edges(),
        num_modes,
        period_us,
        vv,
        switch_time_us,
        switch_energy_uj,
        dram_energy_uj: dram_uj,
        variants,
        ops,
        mem_latency_us: cfgm.mem_latency_us,
        fetch_width: cfgm.fetch_width,
        ruu_size: cfgm.ruu_size,
        lsq_size: cfgm.lsq_size,
        commit_width: cfgm.commit_width,
        mispredict_penalty: f64::from(cfgm.mispredict_penalty),
        fu_offsets,
        trace_blocks: trace.len(),
        trace_insts,
    }
}

/// Converts an interned raw-op sequence to interpreter form and pre-sums
/// its switched capacitance. Every energy term the simulator charges for
/// the occurrence is a capacitance scaled by the block's `V²`, so the sum
/// is a pure function of the ops.
fn decode_variant(raw: &[RawOp], em: &dvs_sim::EnergyModel, fu_pool_nf: &[f64; 7]) -> Variant {
    let mut nf_total = 0.0f64;
    let mut decoded = Vec::with_capacity(raw.len());
    for op in raw {
        if op.icache != 0 {
            nf_total += em.l1_nf;
            if op.icache >= ACC_L2 {
                nf_total += em.l2_nf;
            }
        }
        if op.flags & F_MEM != 0 {
            nf_total += em.l1_nf;
            if op.dcache >= ACC_L2 {
                nf_total += em.l2_nf;
            }
        }
        if op.flags & F_BRANCH != 0 {
            nf_total += em.bpred_nf;
        }
        let reads = f64::from(op.nsrc);
        let writes = if op.flags & F_WRITES != 0 { 1.0 } else { 0.0 };
        nf_total += em.frontend_nf
            + em.window_nf
            + em.clock_nf
            + em.regfile_nf * (reads + writes)
            + fu_pool_nf[op.pool_ix as usize];

        decoded.push(InstOp {
            icache: op.icache,
            flags: op.flags,
            pool_ix: op.pool_ix,
            dest: op.dest,
            nsrc: op.nsrc,
            srcs: op.srcs,
            dcache: op.dcache,
            icache_cyc: f64::from(op.icache_cyc),
            latency: f64::from(op.latency),
            occupancy: if op.pool_ix == 2 || op.pool_ix == 5 {
                f64::from(op.latency)
            } else {
                1.0
            },
            dcache_cyc: f64::from(op.dcache_cyc),
        });
    }
    Variant {
        ops: decoded,
        nf_total,
    }
}
