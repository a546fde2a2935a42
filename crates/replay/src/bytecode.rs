//! The compiled program: interned instruction sequences, the block-op
//! stream, mode tables and summary statistics.

use dvs_sim::{Decoded, InstOutcome, SimConfig};

/// A deduplicated per-occurrence instruction sequence, each instruction
/// as the pipeline step reads it, plus its pre-summed switched capacitance
/// (nF). At replay time the occurrence's processor energy is
/// `nf_total · V² · 1e-3` µJ for whatever mode is then current.
pub(crate) struct Variant {
    pub ops: Vec<(Decoded, InstOutcome)>,
    pub nf_total: f64,
}

/// One trace step (or a run of identical consecutive steps): arrive via
/// `edge` (`u32::MAX` on the virtual start edge), execute `variant`,
/// `reps` times. Runs longer than one arise from self-loop back edges,
/// where every repeat arrives via the same edge with the same cache-warm
/// op sequence.
#[derive(Clone, Copy)]
pub(crate) struct BlockOp {
    pub edge: u32,
    pub variant: u32,
    pub reps: u32,
}

pub(crate) const ENTRY_EDGE: u32 = u32::MAX;

/// A trace + machine compiled into a linear, schedule-independent program.
/// Build with [`crate::compile`]; evaluate schedules with
/// [`ReplayBytecode::replay`] / [`ReplayBytecode::replay_batch`].
pub struct ReplayBytecode {
    /// The machine every replay's pipeline models.
    pub(crate) config: SimConfig,
    pub(crate) num_edges: usize,
    /// Per mode: clock period (µs) and supply voltage squared (V²).
    pub(crate) modes: Vec<(f64, f64)>,
    /// Row-major `modes × modes` regulator transition time (µs) and
    /// energy (µJ).
    pub(crate) switches: Vec<(f64, f64)>,
    /// Off-chip energy of the whole trace — schedule-independent.
    pub(crate) dram_energy_uj: f64,
    pub(crate) variants: Vec<Variant>,
    pub(crate) ops: Vec<BlockOp>,
    /// Occurrence/instruction counts for [`ReplayStats`].
    pub(crate) trace_blocks: usize,
    pub(crate) trace_insts: usize,
}

/// Size and compression statistics of a compiled program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayStats {
    /// Dynamic block occurrences in the source trace.
    pub trace_blocks: usize,
    /// Dynamic instructions in the source trace.
    pub trace_insts: usize,
    /// Run-length-encoded block ops in the stream.
    pub block_ops: usize,
    /// Distinct interned occurrence variants.
    pub variants: usize,
    /// Instruction ops actually stored across all variants.
    pub variant_insts: usize,
    /// CFG edges the evaluated schedules must cover.
    pub edges: usize,
    /// Ladder modes the program was compiled against.
    pub modes: usize,
}

impl ReplayBytecode {
    /// Size and compression statistics.
    #[must_use]
    pub fn stats(&self) -> ReplayStats {
        ReplayStats {
            trace_blocks: self.trace_blocks,
            trace_insts: self.trace_insts,
            block_ops: self.ops.len(),
            variants: self.variants.len(),
            variant_insts: self.variants.iter().map(|v| v.ops.len()).sum(),
            edges: self.num_edges,
            modes: self.modes.len(),
        }
    }

    /// Test support: corrupt the stored costs of one interned variant by a
    /// classic off-by-one — every op gains one cycle of latency and the
    /// variant's switched capacitance gains 0.01 nF per op (0.01 nF flat
    /// for an empty block). Each variant executes at least once by
    /// construction, so the corruption is always observable: processor
    /// energy strictly increases for every schedule, and time whenever the
    /// variant touches the critical path. The variant is picked
    /// deterministically from `seed`.
    #[doc(hidden)]
    pub fn inject_cost_fault(&mut self, seed: u64) {
        assert!(!self.variants.is_empty(), "compiled traces are non-empty");
        let target = usize::try_from(seed % self.variants.len() as u64).expect("fits usize");
        let v = &mut self.variants[target];
        for (inst, _) in &mut v.ops {
            *inst = inst.delayed(1);
        }
        v.nf_total += 0.01 * v.ops.len().max(1) as f64;
    }
}
