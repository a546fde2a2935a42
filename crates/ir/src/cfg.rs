use crate::{BasicBlock, BlockId, Inst, IrError, MemWidth, Opcode, Reg};
use dvs_obs::json::Json;
use std::collections::HashMap;
use std::fmt;

/// Identifier of a control-flow edge within its [`Cfg`]. Dense indices,
/// assigned in insertion order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub usize);

impl EdgeId {
    /// The raw index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// A directed control-flow edge `src -> dst`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Edge {
    /// This edge's id.
    pub id: EdgeId,
    /// Source block.
    pub src: BlockId,
    /// Destination block.
    pub dst: BlockId,
}

/// A validated control-flow graph with designated entry and exit blocks.
///
/// Invariants established by [`crate::CfgBuilder::finish`]:
///
/// * every block is reachable from `entry` and reaches `exit`;
/// * `entry` has no predecessors and `exit` no successors;
/// * edges are unique, each edge's id is its index, and labels are unique.
///
/// The graph is immutable after construction, so analyses can cache dense
/// per-block/per-edge tables indexed by [`BlockId`]/[`EdgeId`].
///
/// Serialization stores only the definitional data (blocks, edges, entry,
/// exit); the adjacency lists are rebuilt — and the invariants
/// revalidated — on deserialization.
#[derive(Debug, Clone, PartialEq)]
pub struct Cfg {
    name: String,
    blocks: Vec<BasicBlock>,
    edges: Vec<Edge>,
    succ: Vec<Vec<EdgeId>>,
    pred: Vec<Vec<EdgeId>>,
    entry: BlockId,
    exit: BlockId,
}

fn malformed(what: impl Into<String>) -> IrError {
    IrError::Malformed(what.into())
}

fn get_u64(j: &Json, key: &str) -> Result<u64, IrError> {
    j.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| malformed(format!("missing or non-integer field `{key}`")))
}

fn opcode_name(op: Opcode) -> &'static str {
    match op {
        Opcode::IntAlu => "ialu",
        Opcode::IntMul => "imul",
        Opcode::IntDiv => "idiv",
        Opcode::FpAdd => "fadd",
        Opcode::FpMul => "fmul",
        Opcode::FpDiv => "fdiv",
        Opcode::Load => "ld",
        Opcode::Store => "st",
        Opcode::Branch => "br",
        Opcode::Nop => "nop",
    }
}

fn opcode_from_name(name: &str) -> Result<Opcode, IrError> {
    Ok(match name {
        "ialu" => Opcode::IntAlu,
        "imul" => Opcode::IntMul,
        "idiv" => Opcode::IntDiv,
        "fadd" => Opcode::FpAdd,
        "fmul" => Opcode::FpMul,
        "fdiv" => Opcode::FpDiv,
        "ld" => Opcode::Load,
        "st" => Opcode::Store,
        "br" => Opcode::Branch,
        "nop" => Opcode::Nop,
        other => return Err(malformed(format!("unknown opcode `{other}`"))),
    })
}

fn inst_to_json(i: &Inst) -> Json {
    Json::obj([
        ("opcode", Json::from(opcode_name(i.opcode))),
        ("dest", Json::from(u64::from(i.dest.0))),
        (
            "srcs",
            Json::Arr(i.srcs.iter().map(|r| Json::from(u64::from(r.0))).collect()),
        ),
        ("width", Json::from(i.width.bytes())),
    ])
}

fn inst_from_json(j: &Json) -> Result<Inst, IrError> {
    let opcode = opcode_from_name(
        j.get("opcode")
            .and_then(Json::as_str)
            .ok_or_else(|| malformed("inst missing `opcode`"))?,
    )?;
    let dest =
        Reg(u8::try_from(get_u64(j, "dest")?).map_err(|_| malformed("register out of range"))?);
    let srcs = j
        .get("srcs")
        .and_then(Json::as_arr)
        .ok_or_else(|| malformed("inst missing `srcs`"))?
        .iter()
        .map(|s| {
            s.as_u64()
                .and_then(|v| u8::try_from(v).ok())
                .map(Reg)
                .ok_or_else(|| malformed("bad source register"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let width = match get_u64(j, "width")? {
        1 => MemWidth::B1,
        2 => MemWidth::B2,
        4 => MemWidth::B4,
        8 => MemWidth::B8,
        w => return Err(malformed(format!("bad memory width {w}"))),
    };
    Ok(Inst {
        opcode,
        dest,
        srcs,
        width,
    })
}

impl Cfg {
    pub(crate) fn new(
        name: String,
        blocks: Vec<BasicBlock>,
        edges: Vec<Edge>,
        entry: BlockId,
        exit: BlockId,
    ) -> Result<Self, IrError> {
        if blocks.is_empty() {
            return Err(IrError::Empty);
        }
        let n = blocks.len();
        let mut succ: Vec<Vec<EdgeId>> = vec![Vec::new(); n];
        let mut pred = vec![Vec::new(); n];
        for (i, e) in edges.iter().enumerate() {
            if e.id.0 != i {
                return Err(malformed(format!("edge {i} carries id {}", e.id)));
            }
            if e.src.0 >= n {
                return Err(IrError::UnknownBlock(e.src));
            }
            if e.dst.0 >= n {
                return Err(IrError::UnknownBlock(e.dst));
            }
            if succ[e.src.0].iter().any(|s| edges[s.0].dst == e.dst) {
                return Err(IrError::DuplicateEdge(e.src, e.dst));
            }
            succ[e.src.0].push(e.id);
            pred[e.dst.0].push(e.id);
        }
        let cfg = Cfg {
            name,
            blocks,
            edges,
            succ,
            pred,
            entry,
            exit,
        };
        cfg.validate()?;
        Ok(cfg)
    }

    fn validate(&self) -> Result<(), IrError> {
        if !self.pred[self.entry.0].is_empty() {
            return Err(IrError::EntryHasPredecessors(self.entry));
        }
        if !self.succ[self.exit.0].is_empty() {
            return Err(IrError::ExitHasSuccessors(self.exit));
        }
        let mut labels = HashMap::new();
        for b in &self.blocks {
            if labels.insert(b.label.clone(), b.id).is_some() {
                return Err(IrError::DuplicateLabel(b.label.clone()));
            }
        }
        // Forward reachability from entry.
        let fwd = self.reach(self.entry, |b| self.successors(b).collect::<Vec<_>>());
        if let Some(b) = (0..self.blocks.len()).find(|&i| !fwd[i]) {
            return Err(IrError::Unreachable(BlockId(b)));
        }
        // Backward reachability from exit.
        let bwd = self.reach(self.exit, |b| self.predecessors(b).collect::<Vec<_>>());
        if let Some(b) = (0..self.blocks.len()).find(|&i| !bwd[i]) {
            return Err(IrError::NoPathToExit(BlockId(b)));
        }
        Ok(())
    }

    fn reach(&self, start: BlockId, next: impl Fn(BlockId) -> Vec<BlockId>) -> Vec<bool> {
        let mut seen = vec![false; self.blocks.len()];
        let mut stack = vec![start];
        seen[start.0] = true;
        while let Some(b) = stack.pop() {
            for s in next(b) {
                if !seen[s.0] {
                    seen[s.0] = true;
                    stack.push(s);
                }
            }
        }
        seen
    }

    /// The graph's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The entry block.
    #[must_use]
    pub fn entry(&self) -> BlockId {
        self.entry
    }

    /// The exit block.
    #[must_use]
    pub fn exit(&self) -> BlockId {
        self.exit
    }

    /// Number of blocks.
    #[must_use]
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Number of edges.
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The block with id `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    #[must_use]
    pub fn block(&self, b: BlockId) -> &BasicBlock {
        &self.blocks[b.0]
    }

    /// The edge with id `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    #[must_use]
    pub fn edge(&self, e: EdgeId) -> Edge {
        self.edges[e.0]
    }

    /// All blocks in id order.
    pub fn blocks(&self) -> impl Iterator<Item = &BasicBlock> {
        self.blocks.iter()
    }

    /// All edges in id order.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.edges.iter().copied()
    }

    /// Ids of edges leaving `b`.
    pub fn out_edges(&self, b: BlockId) -> impl Iterator<Item = EdgeId> + '_ {
        self.succ[b.0].iter().copied()
    }

    /// Ids of edges entering `b`.
    pub fn in_edges(&self, b: BlockId) -> impl Iterator<Item = EdgeId> + '_ {
        self.pred[b.0].iter().copied()
    }

    /// Successor blocks of `b`.
    pub fn successors(&self, b: BlockId) -> impl Iterator<Item = BlockId> + '_ {
        self.succ[b.0].iter().map(move |&e| self.edges[e.0].dst)
    }

    /// Predecessor blocks of `b`.
    pub fn predecessors(&self, b: BlockId) -> impl Iterator<Item = BlockId> + '_ {
        self.pred[b.0].iter().map(move |&e| self.edges[e.0].src)
    }

    /// The edge `a -> b`, if present: a scan of `a`'s out-edges, which is
    /// as short as `a` has successors (at most 4 in the bundled workloads).
    #[must_use]
    pub fn edge_between(&self, a: BlockId, b: BlockId) -> Option<EdgeId> {
        self.succ
            .get(a.0)?
            .iter()
            .copied()
            .find(|e| self.edges[e.0].dst == b)
    }

    /// Looks up a block by label.
    #[must_use]
    pub fn block_by_label(&self, label: &str) -> Option<BlockId> {
        self.blocks.iter().find(|b| b.label == label).map(|b| b.id)
    }

    /// Blocks in reverse post-order of a depth-first search from the entry —
    /// the canonical iteration order for forward dataflow analyses.
    #[must_use]
    pub fn reverse_post_order(&self) -> Vec<BlockId> {
        let mut state = vec![0u8; self.blocks.len()]; // 0=unseen 1=open 2=done
        let mut post = Vec::with_capacity(self.blocks.len());
        // Iterative DFS with an explicit stack of (block, next-successor-ix).
        let mut stack: Vec<(BlockId, usize)> = vec![(self.entry, 0)];
        state[self.entry.0] = 1;
        while let Some(&mut (b, ref mut ix)) = stack.last_mut() {
            let succs = &self.succ[b.0];
            if *ix < succs.len() {
                let nxt = self.edges[succs[*ix].0].dst;
                *ix += 1;
                if state[nxt.0] == 0 {
                    state[nxt.0] = 1;
                    stack.push((nxt, 0));
                }
            } else {
                state[b.0] = 2;
                post.push(b);
                stack.pop();
            }
        }
        post.reverse();
        post
    }

    /// Total static instruction count across all blocks.
    #[must_use]
    pub fn static_inst_count(&self) -> usize {
        self.blocks.iter().map(BasicBlock::len).sum()
    }

    /// Verifies that the graph is reducible: removing every back edge
    /// (an edge whose destination dominates its source) must leave the
    /// graph acyclic. Loop-aware passes (hoisting, the natural-loop
    /// forest, the property-test generators) assume this.
    ///
    /// # Errors
    ///
    /// [`IrError::Irreducible`] naming one retreating edge of the residual
    /// cycle (the lowest-id such edge, so the report is deterministic).
    pub fn check_reducible(&self) -> Result<(), IrError> {
        let dom = crate::Dominators::compute(self);
        // Kahn's algorithm on the forward (non-back) edges.
        let forward: Vec<Edge> = self
            .edges
            .iter()
            .copied()
            .filter(|e| !dom.dominates(e.dst, e.src))
            .collect();
        let mut indegree = vec![0usize; self.blocks.len()];
        for e in &forward {
            indegree[e.dst.0] += 1;
        }
        let mut queue: Vec<BlockId> = (0..self.blocks.len())
            .map(BlockId)
            .filter(|b| indegree[b.0] == 0)
            .collect();
        let mut removed = 0usize;
        while let Some(b) = queue.pop() {
            removed += 1;
            for e in &forward {
                if e.src == b {
                    indegree[e.dst.0] -= 1;
                    if indegree[e.dst.0] == 0 {
                        queue.push(e.dst);
                    }
                }
            }
        }
        if removed == self.blocks.len() {
            return Ok(());
        }
        // A cycle of non-back edges remains among the blocks with positive
        // residual in-degree. Prune residual blocks that cannot be on a
        // cycle (no residual successors) the same way, then report the
        // lowest-id surviving edge.
        let mut residual: Vec<bool> = indegree.iter().map(|&d| d > 0).collect();
        loop {
            let mut changed = false;
            for b in 0..residual.len() {
                if residual[b] && !forward.iter().any(|e| e.src.0 == b && residual[e.dst.0]) {
                    residual[b] = false;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        let offending = forward
            .iter()
            .find(|e| residual[e.src.0] && residual[e.dst.0])
            .expect("residual cycle has at least one internal edge");
        Err(IrError::Irreducible(offending.src, offending.dst))
    }

    /// Serializes the definitional data (blocks, edges, entry, exit) to a
    /// JSON value. The adjacency lists are *not* stored; they are
    /// rebuilt — and the graph invariants revalidated — by [`Cfg::from_json`].
    #[must_use]
    pub fn to_json(&self) -> Json {
        let blocks = self
            .blocks
            .iter()
            .map(|b| {
                Json::obj([
                    ("id", Json::from(b.id.0 as u64)),
                    ("label", Json::from(b.label.as_str())),
                    (
                        "insts",
                        Json::Arr(b.insts.iter().map(inst_to_json).collect()),
                    ),
                ])
            })
            .collect();
        let edges = self
            .edges
            .iter()
            .map(|e| {
                Json::obj([
                    ("id", Json::from(e.id.0 as u64)),
                    ("src", Json::from(e.src.0 as u64)),
                    ("dst", Json::from(e.dst.0 as u64)),
                ])
            })
            .collect();
        Json::obj([
            ("name", Json::from(self.name.as_str())),
            ("blocks", Json::Arr(blocks)),
            ("edges", Json::Arr(edges)),
            ("entry", Json::from(self.entry.0 as u64)),
            ("exit", Json::from(self.exit.0 as u64)),
        ])
    }

    /// Serializes to a compact JSON string (see [`Cfg::to_json`]).
    #[must_use]
    pub fn to_json_string(&self) -> String {
        self.to_json().dump()
    }

    /// Rebuilds a graph from the JSON produced by [`Cfg::to_json`], running
    /// the full structural validation (`entry`/`exit` discipline,
    /// reachability, unique edges and labels, edge ids in order).
    pub fn from_json(j: &Json) -> Result<Self, IrError> {
        let name = j
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| malformed("missing `name`"))?
            .to_owned();
        let blocks = j
            .get("blocks")
            .and_then(Json::as_arr)
            .ok_or_else(|| malformed("missing `blocks`"))?
            .iter()
            .map(|b| {
                let id = BlockId(get_u64(b, "id")? as usize);
                let label = b
                    .get("label")
                    .and_then(Json::as_str)
                    .ok_or_else(|| malformed("block missing `label`"))?
                    .to_owned();
                let insts = b
                    .get("insts")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| malformed("block missing `insts`"))?
                    .iter()
                    .map(inst_from_json)
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(BasicBlock { id, label, insts })
            })
            .collect::<Result<Vec<_>, IrError>>()?;
        let edges = j
            .get("edges")
            .and_then(Json::as_arr)
            .ok_or_else(|| malformed("missing `edges`"))?
            .iter()
            .map(|e| {
                Ok(Edge {
                    id: EdgeId(get_u64(e, "id")? as usize),
                    src: BlockId(get_u64(e, "src")? as usize),
                    dst: BlockId(get_u64(e, "dst")? as usize),
                })
            })
            .collect::<Result<Vec<_>, IrError>>()?;
        let entry = BlockId(get_u64(j, "entry")? as usize);
        let exit = BlockId(get_u64(j, "exit")? as usize);
        Cfg::new(name, blocks, edges, entry, exit)
    }

    /// Parses a JSON string and rebuilds the graph (see [`Cfg::from_json`]).
    pub fn from_json_str(s: &str) -> Result<Self, IrError> {
        let j = Json::parse(s).map_err(|e| malformed(format!("invalid JSON: {e}")))?;
        Cfg::from_json(&j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CfgBuilder;

    fn diamond() -> Cfg {
        let mut b = CfgBuilder::new("d");
        let e = b.block("entry");
        let t = b.block("t");
        let f = b.block("f");
        let x = b.block("exit");
        b.edge(e, t);
        b.edge(e, f);
        b.edge(t, x);
        b.edge(f, x);
        b.finish(e, x).unwrap()
    }

    #[test]
    fn diamond_shape() {
        let g = diamond();
        assert_eq!(g.num_blocks(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.successors(g.entry()).count(), 2);
        assert_eq!(g.predecessors(g.exit()).count(), 2);
        assert_eq!(g.out_edges(g.exit()).count(), 0);
        assert_eq!(g.in_edges(g.entry()).count(), 0);
    }

    #[test]
    fn edge_between_lookup() {
        let g = diamond();
        let t = g.block_by_label("t").unwrap();
        assert!(g.edge_between(g.entry(), t).is_some());
        assert!(g.edge_between(t, g.entry()).is_none());
        let e = g.edge_between(g.entry(), t).unwrap();
        assert_eq!(g.edge(e).src, g.entry());
        assert_eq!(g.edge(e).dst, t);
    }

    #[test]
    fn reverse_post_order_starts_at_entry_and_respects_topology() {
        let g = diamond();
        let rpo = g.reverse_post_order();
        assert_eq!(rpo.len(), 4);
        assert_eq!(rpo[0], g.entry());
        assert_eq!(*rpo.last().unwrap(), g.exit());
        // entry must come before both branches, which come before exit.
        let pos = |b: BlockId| rpo.iter().position(|&x| x == b).unwrap();
        let t = g.block_by_label("t").unwrap();
        let f = g.block_by_label("f").unwrap();
        assert!(pos(g.entry()) < pos(t));
        assert!(pos(g.entry()) < pos(f));
        assert!(pos(t) < pos(g.exit()));
        assert!(pos(f) < pos(g.exit()));
    }

    #[test]
    fn rpo_handles_loops() {
        let mut b = CfgBuilder::new("loop");
        let e = b.block("entry");
        let h = b.block("head");
        let body = b.block("body");
        let x = b.block("exit");
        b.edge(e, h);
        b.edge(h, body);
        b.edge(body, h); // back edge
        b.edge(h, x);
        let g = b.finish(e, x).unwrap();
        let rpo = g.reverse_post_order();
        assert_eq!(rpo.len(), 4);
        assert_eq!(rpo[0], e);
    }

    #[test]
    fn unreachable_block_rejected() {
        let mut b = CfgBuilder::new("bad");
        let e = b.block("entry");
        let orphan = b.block("orphan");
        let x = b.block("exit");
        b.edge(e, x);
        b.edge(orphan, x);
        assert!(matches!(b.finish(e, x), Err(IrError::Unreachable(_))));
    }

    #[test]
    fn block_with_no_exit_path_rejected() {
        let mut b = CfgBuilder::new("bad");
        let e = b.block("entry");
        let sink = b.block("sink");
        let x = b.block("exit");
        b.edge(e, sink);
        b.edge(e, x);
        assert!(matches!(b.finish(e, x), Err(IrError::NoPathToExit(_))));
    }

    #[test]
    fn entry_with_predecessor_rejected() {
        let mut b = CfgBuilder::new("bad");
        let e = b.block("entry");
        let x = b.block("exit");
        b.edge(e, x);
        b.edge(x, e);
        assert!(matches!(
            b.finish(e, x),
            Err(IrError::EntryHasPredecessors(_)) | Err(IrError::ExitHasSuccessors(_))
        ));
    }

    #[test]
    fn duplicate_edge_rejected() {
        let mut b = CfgBuilder::new("bad");
        let e = b.block("entry");
        let x = b.block("exit");
        b.edge(e, x);
        b.edge(e, x);
        assert!(matches!(b.finish(e, x), Err(IrError::DuplicateEdge(_, _))));
    }

    #[test]
    fn serde_round_trip_rebuilds_lookup_tables() {
        let g = diamond();
        let json = g.to_json_string();
        let back = Cfg::from_json_str(&json).expect("deserializes");
        assert_eq!(g, back);
        // The rebuilt graph answers adjacency queries (the adjacency lists
        // are not serialized; they must be reconstructed).
        let t = back.block_by_label("t").unwrap();
        assert!(back.edge_between(back.entry(), t).is_some());
        assert_eq!(back.successors(back.entry()).count(), 2);
    }

    #[test]
    fn serde_rejects_corrupt_graphs() {
        // An edge referencing a missing block must fail to deserialize.
        let json = r#"{
            "name": "bad",
            "blocks": [{"id": 0, "label": "only", "insts": []}],
            "edges": [{"id": 0, "src": 0, "dst": 5}],
            "entry": 0,
            "exit": 0
        }"#;
        assert!(matches!(
            Cfg::from_json_str(json),
            Err(IrError::UnknownBlock(_))
        ));
        // Edge ids must be the edges' indices: the adjacency lists hold ids.
        let json = r#"{
            "name": "bad",
            "blocks": [{"id": 0, "label": "a", "insts": []},
                       {"id": 1, "label": "b", "insts": []}],
            "edges": [{"id": 1, "src": 0, "dst": 1}],
            "entry": 0,
            "exit": 1
        }"#;
        assert!(matches!(
            Cfg::from_json_str(json),
            Err(IrError::Malformed(_))
        ));
        // Outright broken JSON fails with a parse error, not a panic.
        assert!(matches!(
            Cfg::from_json_str("{nope"),
            Err(IrError::Malformed(_))
        ));
    }

    #[test]
    fn json_round_trip_preserves_instructions() {
        let mut b = CfgBuilder::new("insts");
        let e = b.block("entry");
        let x = b.block("exit");
        b.edge(e, x);
        let mut g = b.finish(e, x).unwrap();
        // Reach in through the serialized form to attach instructions.
        let j = g.to_json();
        drop(j);
        g = {
            let mut blocks: Vec<BasicBlock> = g.blocks().cloned().collect();
            blocks[0].insts = vec![
                Inst::alu(Opcode::IntAlu, Reg(1), &[Reg(2), Reg(3)]),
                Inst::load(Reg(4), Reg(1), MemWidth::B8),
                Inst::store(Reg(4), Reg(1), MemWidth::B2),
                Inst::branch(Reg(4)),
            ];
            let edges: Vec<Edge> = g.edges().collect();
            Cfg::new("insts".into(), blocks, edges, g.entry(), g.exit()).unwrap()
        };
        let back = Cfg::from_json_str(&g.to_json_string()).unwrap();
        assert_eq!(back, g);
        assert_eq!(back.static_inst_count(), 4);
        assert_eq!(back.block(back.entry()).mem_inst_count(), 2);
    }

    #[test]
    fn duplicate_label_rejected() {
        let mut b = CfgBuilder::new("bad");
        let e = b.block("same");
        let x = b.block("same");
        b.edge(e, x);
        assert!(matches!(b.finish(e, x), Err(IrError::DuplicateLabel(_))));
    }
}
