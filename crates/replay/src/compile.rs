//! Trace → bytecode compiler: reads the machine's mode-independent
//! outcomes (memory hierarchy, TLBs, branch predictor) from one
//! [`Machine::record`] walk and interns its steps by content.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use dvs_ir::Cfg;
use dvs_sim::{DataLevel, Decoded, InstOutcome, Machine, Trace};
use dvs_vf::{TransitionModel, VoltageLadder};

use crate::bytecode::{BlockOp, ReplayBytecode, Variant, ENTRY_EDGE};

/// Compiles `trace` as executed by `machine` into a schedule-independent
/// program for `ladder`'s modes under `transition`'s regulator. Evaluating
/// the result against an [`dvs_sim::EdgeSchedule`] reproduces
/// [`Machine::run_scheduled`] — bit-identically for time, transition
/// accounting and DRAM energy, to ~1e-15 relative for processor energy.
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
    let em = machine.energy_model();
    let rec = machine.record(cfg, trace);
    let mut steps = rec.steps();

    let mut interner: HashMap<Vec<(Decoded, InstOutcome)>, u32, BuildHasherDefault<Fx>> =
        HashMap::default();
    let mut variants: Vec<Variant> = Vec::new();
    let mut ops: Vec<BlockOp> = Vec::new();
    let mut dram_uj = 0.0f64;
    let mut trace_insts = 0usize;

    let mut prev_block: Option<dvs_ir::BlockId> = None;
    let mut block: Vec<(Decoded, InstOutcome)> = Vec::new();

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

        block.clear();
        for _ in &cfg.block(dyn_block.block).insts {
            let (inst, out) = steps
                .next()
                .expect("the record covers every dynamic instruction");
            for a in [out.fetch, out.data].into_iter().flatten() {
                if a.level == DataLevel::Memory {
                    dram_uj += em.dram_uj_per_access;
                }
            }
            block.push((inst, out));
        }
        trace_insts += block.len();

        let variant = match interner.get(&block) {
            Some(&v) => v,
            None => {
                let v = u32::try_from(variants.len()).expect("variant count fits u32");
                // Every energy term the simulator charges for the
                // occurrence is a capacitance scaled by the block's `V²`.
                let mut nf_total = 0.0f64;
                for (inst, out) in &block {
                    for a in [out.fetch, out.data].into_iter().flatten() {
                        nf_total += em.l1_nf;
                        if a.level != DataLevel::L1 {
                            nf_total += em.l2_nf;
                        }
                    }
                    if inst.is_branch() {
                        nf_total += em.bpred_nf;
                    }
                    nf_total += inst.capacitance_nf();
                }
                variants.push(Variant {
                    ops: block.clone(),
                    nf_total,
                });
                interner.insert(block.clone(), v);
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

    let modes = ladder
        .iter()
        .map(|(_, point)| (point.period_us(), point.voltage * point.voltage))
        .collect();
    let switches = ladder
        .iter()
        .flat_map(|(a, _)| {
            ladder.iter().map(move |(b, _)| {
                (
                    transition.mode_time_us(ladder, a, b),
                    transition.mode_energy_uj(ladder, a, b),
                )
            })
        })
        .collect();

    if dvs_obs::enabled() {
        dvs_obs::counter("replay.compiles", 1);
        dvs_obs::histogram("replay.variants", variants.len() as f64);
    }
    ReplayBytecode {
        config: machine.config().clone(),
        num_edges: cfg.num_edges(),
        modes,
        switches,
        dram_energy_uj: dram_uj,
        variants,
        ops,
        trace_blocks: trace.len(),
        trace_insts,
    }
}

/// The multiply-rotate hash of rustc's `FxHasher`, for the interner: its
/// keys come from the simulator, and SipHash over every dynamic
/// instruction would cost more than the walk that recorded it.
#[derive(Default)]
struct Fx(u64);

impl Hasher for Fx {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.0 = (self.0.rotate_left(5) ^ u64::from_le_bytes(word))
                .wrapping_mul(0x517c_c1b7_2722_0a95);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}
