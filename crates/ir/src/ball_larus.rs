//! Ball–Larus path profiling.
//!
//! §7 of the paper proposes moving the MILP from edges to *paths*, citing
//! Ball & Larus' efficient path profiling. This module implements the
//! classic algorithm: number all acyclic paths of the CFG (back edges are
//! conceptually cut, so a "path" runs from the entry or a loop header to
//! the exit or a back edge) such that each path maps to a unique integer in
//! `0..num_paths`, computable at run time by summing per-edge increments.
//!
//! The companion [`PathProfile`] replays a dynamic block walk and counts
//! how often each acyclic path executes — the profile a path-granularity
//! DVS formulation would consume.

use crate::{BlockId, Cfg, Dominators, EdgeId, LoopForest};
use std::collections::BTreeMap;

/// Ball–Larus path numbering for a CFG.
///
/// Back edges (in the dominator sense) are excluded from the numbering; a
/// dynamic run decomposes into a sequence of acyclic paths, each starting
/// at the entry or the target of a back edge (a loop header), and ending at
/// the exit or the source of a back edge (a latch).
///
/// # Example
///
/// ```
/// use dvs_ir::{BallLarus, CfgBuilder, PathProfile};
///
/// let mut b = CfgBuilder::new("diamond");
/// let e = b.block("entry");
/// let t = b.block("then");
/// let f = b.block("else");
/// let x = b.block("exit");
/// b.edge(e, t);
/// b.edge(e, f);
/// b.edge(t, x);
/// b.edge(f, x);
/// let cfg = b.finish(e, x).unwrap();
///
/// let bl = BallLarus::compute(&cfg);
/// assert_eq!(bl.num_paths(), 2);
/// let profile = PathProfile::from_walk(&cfg, &bl, &[e, t, x]).unwrap();
/// assert_eq!(profile.total(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct BallLarus {
    /// `increment[e]` for each non-back edge; back edges map to `None`.
    increments: Vec<Option<u64>>,
    /// Number of acyclic paths from entry to exit in the back-edge-free
    /// graph. (Paths that begin/end at loop boundaries reuse the same
    /// numbering, offset by where they enter.)
    num_paths: u64,
}

impl BallLarus {
    /// Computes the numbering. Back edges are identified through the
    /// dominator tree, exactly as [`LoopForest`] does.
    #[must_use]
    pub fn compute(cfg: &Cfg) -> Self {
        let dom = Dominators::compute(cfg);
        let is_back: Vec<bool> = cfg.edges().map(|e| dom.dominates(e.dst, e.src)).collect();

        // NumPaths(v), the acyclic paths from v to the exit, over the DAG
        // in reverse topological order.
        let order = cfg.reverse_post_order();
        let mut num_from = vec![0u64; cfg.num_blocks()];
        let mut increments: Vec<Option<u64>> = cfg
            .edges()
            .map(|e| if is_back[e.id.index()] { None } else { Some(0) })
            .collect();
        for &b in order.iter().rev() {
            let outs: Vec<EdgeId> = cfg.out_edges(b).filter(|e| !is_back[e.index()]).collect();
            if outs.is_empty() {
                num_from[b.0] = 1; // exit (or a latch whose only exits are back edges)
            } else {
                let mut acc = 0u64;
                for e in outs {
                    increments[e.index()] = Some(acc);
                    acc = acc
                        .checked_add(num_from[cfg.edge(e).dst.0])
                        .expect("path count overflow");
                }
                num_from[b.0] = acc.max(1);
            }
        }
        BallLarus {
            increments,
            num_paths: num_from[cfg.entry().0],
        }
    }

    /// Number of distinct acyclic entry-to-exit paths in the
    /// back-edge-free graph.
    #[must_use]
    pub fn num_paths(&self) -> u64 {
        self.num_paths
    }

    /// The run-time increment for `e`, or `None` if `e` is a back edge
    /// (which terminates the current path instead).
    #[must_use]
    pub fn increment(&self, e: EdgeId) -> Option<u64> {
        self.increments[e.index()]
    }
}

/// A dynamic acyclic-path segment: where it started, its Ball–Larus number
/// in that start block's numbering space, and how it ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PathKey {
    /// First block of the segment (the CFG entry or a loop header).
    pub start: BlockId,
    /// Ball–Larus path number accumulated along the segment.
    pub id: u64,
}

/// Counts of executed acyclic paths, produced by replaying a block walk.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PathProfile {
    counts: BTreeMap<PathKey, u64>,
}

impl PathProfile {
    /// Replays `walk` (an entry-to-exit block sequence) against the
    /// numbering, counting each completed acyclic segment. Returns `None`
    /// if the walk does not follow CFG edges.
    #[must_use]
    pub fn from_walk(cfg: &Cfg, bl: &BallLarus, walk: &[BlockId]) -> Option<Self> {
        if walk.first() != Some(&cfg.entry()) {
            return None;
        }
        let mut counts = BTreeMap::new();
        let mut start = cfg.entry();
        let mut acc = 0u64;
        for w in walk.windows(2) {
            let e = cfg.edge_between(w[0], w[1])?;
            match bl.increment(e) {
                Some(inc) => acc += inc,
                None => {
                    // Back edge: the current path ends at the latch, and a
                    // new one begins at the loop header.
                    *counts.entry(PathKey { start, id: acc }).or_insert(0) += 1;
                    start = w[1];
                    acc = 0;
                }
            }
        }
        if walk.last() == Some(&cfg.exit()) {
            *counts.entry(PathKey { start, id: acc }).or_insert(0) += 1;
        }
        Some(PathProfile { counts })
    }

    /// Iterates `(path, count)` pairs, most frequent first.
    #[must_use]
    pub fn hottest(&self) -> Vec<(PathKey, u64)> {
        let mut v: Vec<(PathKey, u64)> = self.counts.iter().map(|(&k, &c)| (k, c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// The count for one path.
    #[must_use]
    pub fn count(&self, key: PathKey) -> u64 {
        self.counts.get(&key).copied().unwrap_or(0)
    }

    /// Number of distinct executed paths.
    #[must_use]
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Total path executions (dynamic segments).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }
}

/// Reconstructs the block sequence of the path `key` names: walks from
/// `key.start`, at each block choosing the outgoing non-back edge whose
/// increment interval contains the remaining id. The inverse of the
/// numbering; useful for reporting hot paths by name.
#[must_use]
pub fn decode_path(cfg: &Cfg, bl: &BallLarus, key: PathKey) -> Vec<BlockId> {
    let mut blocks = vec![key.start];
    let mut remaining = key.id;
    let mut cur = key.start;
    loop {
        let mut outs: Vec<EdgeId> = cfg
            .out_edges(cur)
            .filter(|e| bl.increment(*e).is_some())
            .collect();
        if outs.is_empty() {
            return blocks;
        }
        // Pick the edge with the largest increment <= remaining.
        outs.sort_by_key(|e| bl.increment(*e).expect("non-back edge"));
        let mut chosen = outs[0];
        for e in outs {
            if bl.increment(e).expect("non-back edge") <= remaining {
                chosen = e;
            }
        }
        remaining -= bl.increment(chosen).expect("non-back edge");
        cur = cfg.edge(chosen).dst;
        blocks.push(cur);
    }
}

/// Finds the natural-loop headers of `cfg` — the possible path start
/// blocks besides the entry.
#[must_use]
pub fn path_start_blocks(cfg: &Cfg) -> Vec<BlockId> {
    let dom = Dominators::compute(cfg);
    let loops = LoopForest::compute(cfg, &dom);
    let mut starts = vec![cfg.entry()];
    for l in loops.loops() {
        if !starts.contains(&l.header) {
            starts.push(l.header);
        }
    }
    starts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CfgBuilder;

    /// The canonical Ball–Larus example: a diamond with two independent
    /// branches has 4 acyclic paths.
    fn double_diamond() -> (Cfg, Vec<BlockId>) {
        let mut b = CfgBuilder::new("dd");
        let ids: Vec<BlockId> = ["entry", "a1", "a2", "m", "b1", "b2", "exit"]
            .iter()
            .map(|l| b.block(*l))
            .collect();
        let (e, a1, a2, m, b1, b2, x) = (ids[0], ids[1], ids[2], ids[3], ids[4], ids[5], ids[6]);
        b.edge(e, a1);
        b.edge(e, a2);
        b.edge(a1, m);
        b.edge(a2, m);
        b.edge(m, b1);
        b.edge(m, b2);
        b.edge(b1, x);
        b.edge(b2, x);
        (b.finish(e, x).unwrap(), ids)
    }

    #[test]
    fn double_diamond_has_four_paths_with_unique_ids() {
        let (cfg, ids) = double_diamond();
        let bl = BallLarus::compute(&cfg);
        assert_eq!(bl.num_paths(), 4);
        // Every entry-to-exit walk yields a distinct id in 0..4.
        let (e, a1, a2, m, b1, b2, x) = (ids[0], ids[1], ids[2], ids[3], ids[4], ids[5], ids[6]);
        let mut seen = std::collections::BTreeSet::new();
        for first in [a1, a2] {
            for second in [b1, b2] {
                let walk = [e, first, m, second, x];
                let p = PathProfile::from_walk(&cfg, &bl, &walk).unwrap();
                let hot = p.hottest();
                assert_eq!(hot.len(), 1);
                assert!(hot[0].0.id < 4);
                seen.insert(hot[0].0.id);
            }
        }
        assert_eq!(seen.len(), 4, "ids must be distinct: {seen:?}");
    }

    #[test]
    fn decode_inverts_numbering() {
        let (cfg, ids) = double_diamond();
        let bl = BallLarus::compute(&cfg);
        let (e, a1, _a2, m, b1, _b2, x) = (ids[0], ids[1], ids[2], ids[3], ids[4], ids[5], ids[6]);
        let walk = [e, a1, m, b1, x];
        let p = PathProfile::from_walk(&cfg, &bl, &walk).unwrap();
        let key = p.hottest()[0].0;
        let decoded = decode_path(&cfg, &bl, key);
        assert_eq!(decoded, walk.to_vec());
    }

    #[test]
    fn loops_split_paths_at_back_edges() {
        let mut b = CfgBuilder::new("loop");
        let e = b.block("entry");
        let h = b.block("head");
        let body = b.block("body");
        let x = b.block("exit");
        b.edge(e, h);
        b.edge(h, body);
        b.edge(body, h);
        b.edge(h, x);
        let cfg = b.finish(e, x).unwrap();
        let bl = BallLarus::compute(&cfg);
        // Walk with 3 loop iterations: entry->h->body | h->body | h->body |
        // h->exit: 4 path segments.
        let walk = [e, h, body, h, body, h, body, h, x];
        let p = PathProfile::from_walk(&cfg, &bl, &walk).unwrap();
        assert_eq!(p.total(), 4);
        // Two distinct segment shapes: (entry..body) and (h..body) repeated,
        // plus the final (h..exit).
        assert!(p.distinct() >= 2);
        assert_eq!(path_start_blocks(&cfg), vec![e, h]);
    }

    #[test]
    fn invalid_walks_rejected() {
        let (cfg, ids) = double_diamond();
        let bl = BallLarus::compute(&cfg);
        let (e, a1, _a2, _m, b1, _b2, _x) =
            (ids[0], ids[1], ids[2], ids[3], ids[4], ids[5], ids[6]);
        assert!(PathProfile::from_walk(&cfg, &bl, &[a1, b1]).is_none());
        assert!(PathProfile::from_walk(&cfg, &bl, &[e, b1]).is_none());
    }

    #[test]
    fn straight_line_has_one_path() {
        let mut b = CfgBuilder::new("s");
        let e = b.block("entry");
        let m = b.block("m");
        let x = b.block("exit");
        b.edge(e, m);
        b.edge(m, x);
        let cfg = b.finish(e, x).unwrap();
        let bl = BallLarus::compute(&cfg);
        assert_eq!(bl.num_paths(), 1);
        let p = PathProfile::from_walk(&cfg, &bl, &[e, m, x]).unwrap();
        assert_eq!(p.total(), 1);
        assert_eq!(p.count(PathKey { start: e, id: 0 }), 1);
    }
}
