//! Control-flow-graph analyses over a [`Function`]: predecessors/successors,
//! reverse post-order, dominators and natural loops.
//!
//! These analyses are shared by the optimizing compiler (`bsg-compiler`) and
//! by the SFGL profiler (`bsg-profile`), which needs the loop structure to
//! annotate the statistical flow graph with loop-iteration information.

use crate::program::Function;
use crate::types::BlockId;
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};

/// Successor / predecessor adjacency for a function's CFG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CfgAdjacency {
    /// Successor blocks of each block.
    pub succs: Vec<Vec<BlockId>>,
    /// Predecessor blocks of each block.
    pub preds: Vec<Vec<BlockId>>,
}

/// Computes successor and predecessor lists for every block.
pub fn adjacency(f: &Function) -> CfgAdjacency {
    let n = f.blocks.len();
    let mut succs = vec![Vec::new(); n];
    let mut preds = vec![Vec::new(); n];
    for (id, b) in f.iter_blocks() {
        for s in b.term.successors() {
            succs[id.index()].push(s);
            preds[s.index()].push(id);
        }
    }
    CfgAdjacency { succs, preds }
}

/// Blocks reachable from the entry, in reverse post-order.
pub fn reverse_postorder(f: &Function) -> Vec<BlockId> {
    let n = f.blocks.len();
    let mut visited = vec![false; n];
    let mut postorder = Vec::with_capacity(n);
    // Iterative DFS with an explicit stack of (block, next-successor-index).
    let mut stack: Vec<(BlockId, usize)> = vec![(f.entry, 0)];
    visited[f.entry.index()] = true;
    while let Some(&(b, next)) = stack.last() {
        let succs = f.block(b).term.successors();
        if next < succs.len() {
            stack.last_mut().expect("stack is non-empty").1 += 1;
            let s = succs[next];
            if !visited[s.index()] {
                visited[s.index()] = true;
                stack.push((s, 0));
            }
        } else {
            postorder.push(b);
            stack.pop();
        }
    }
    postorder.reverse();
    postorder
}

/// Blocks reachable from the entry block.
pub fn reachable(f: &Function) -> HashSet<BlockId> {
    let mut seen = HashSet::new();
    let mut queue = VecDeque::new();
    queue.push_back(f.entry);
    seen.insert(f.entry);
    while let Some(b) = queue.pop_front() {
        for s in f.block(b).term.successors() {
            if seen.insert(s) {
                queue.push_back(s);
            }
        }
    }
    seen
}

/// Immediate-dominator tree (Cooper–Harvey–Kennedy iterative algorithm).
///
/// `idom[b]` is the immediate dominator of `b`; the entry block is its own
/// immediate dominator.  Unreachable blocks have no entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dominators {
    idom: HashMap<BlockId, BlockId>,
    rpo_index: HashMap<BlockId, usize>,
}

impl Dominators {
    /// Computes dominators for `f`.
    pub fn compute(f: &Function) -> Self {
        let rpo = reverse_postorder(f);
        let rpo_index: HashMap<BlockId, usize> =
            rpo.iter().enumerate().map(|(i, &b)| (b, i)).collect();
        let adj = adjacency(f);
        let mut idom: HashMap<BlockId, BlockId> = HashMap::new();
        idom.insert(f.entry, f.entry);
        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                let preds: Vec<BlockId> = adj.preds[b.index()]
                    .iter()
                    .copied()
                    .filter(|p| idom.contains_key(p))
                    .collect();
                let Some(&first) = preds.first() else {
                    continue;
                };
                let mut new_idom = first;
                for &p in preds.iter().skip(1) {
                    new_idom = Self::intersect(&idom, &rpo_index, p, new_idom);
                }
                if idom.get(&b) != Some(&new_idom) {
                    idom.insert(b, new_idom);
                    changed = true;
                }
            }
        }
        Dominators { idom, rpo_index }
    }

    fn intersect(
        idom: &HashMap<BlockId, BlockId>,
        rpo_index: &HashMap<BlockId, usize>,
        mut a: BlockId,
        mut b: BlockId,
    ) -> BlockId {
        while a != b {
            while rpo_index[&a] > rpo_index[&b] {
                a = idom[&a];
            }
            while rpo_index[&b] > rpo_index[&a] {
                b = idom[&b];
            }
        }
        a
    }

    /// The immediate dominator of `b` (the entry dominates itself).
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        self.idom.get(&b).copied()
    }

    /// Returns `true` if `a` dominates `b` (reflexively).
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        if !self.idom.contains_key(&b) || !self.idom.contains_key(&a) {
            return false;
        }
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            let parent = self.idom[&cur];
            if parent == cur {
                return cur == a;
            }
            cur = parent;
        }
    }

    /// Reverse post-order position of `b`, if reachable.
    pub fn rpo_index(&self, b: BlockId) -> Option<usize> {
        self.rpo_index.get(&b).copied()
    }
}

/// A natural loop: a back edge `latch -> header` where the header dominates
/// the latch, together with the set of blocks in the loop body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NaturalLoop {
    /// The loop header.
    pub header: BlockId,
    /// Latch blocks (sources of back edges to the header).
    pub latches: Vec<BlockId>,
    /// All blocks in the loop (including header and latches).
    pub blocks: BTreeSet<BlockId>,
    /// Depth of nesting (1 = outermost).
    pub depth: usize,
    /// Index of the enclosing loop in the loop forest, if nested.
    pub parent: Option<usize>,
}

impl NaturalLoop {
    /// Returns `true` if the loop body contains `b`.
    pub fn contains(&self, b: BlockId) -> bool {
        self.blocks.contains(&b)
    }
}

/// The set of natural loops of a function, with nesting information.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LoopForest {
    /// Loops, outer loops before their nested loops.
    pub loops: Vec<NaturalLoop>,
}

impl LoopForest {
    /// Detects the natural loops of `f`.
    ///
    /// Loops sharing a header are merged (as is conventional).  Irreducible
    /// control flow (a cycle whose "header" does not dominate the rest of the
    /// cycle) is ignored: such edges simply do not produce loops, which is
    /// safe for both the optimizer (no transformation applied) and the SFGL
    /// (the blocks still appear with execution counts and edge
    /// probabilities).
    pub fn compute(f: &Function) -> Self {
        let doms = Dominators::compute(f);
        let adj = adjacency(f);
        let reachable = reachable(f);
        // Collect back edges grouped by header.
        let mut back_edges: HashMap<BlockId, Vec<BlockId>> = HashMap::new();
        for &b in &reachable {
            for s in f.block(b).term.successors() {
                if doms.dominates(s, b) {
                    back_edges.entry(s).or_default().push(b);
                }
            }
        }
        let mut loops: Vec<NaturalLoop> = Vec::new();
        for (header, latches) in back_edges {
            // Natural-loop body: header plus all blocks that can reach a latch
            // without passing through the header.
            let mut blocks: BTreeSet<BlockId> = BTreeSet::new();
            blocks.insert(header);
            let mut work: Vec<BlockId> = Vec::new();
            for &l in &latches {
                if blocks.insert(l) {
                    work.push(l);
                }
            }
            while let Some(b) = work.pop() {
                for &p in &adj.preds[b.index()] {
                    if reachable.contains(&p) && blocks.insert(p) {
                        work.push(p);
                    }
                }
            }
            let mut latches = latches;
            latches.sort();
            loops.push(NaturalLoop {
                header,
                latches,
                blocks,
                depth: 1,
                parent: None,
            });
        }
        // Sort outer loops first (larger body first; ties by header id for determinism).
        loops.sort_by(|a, b| {
            b.blocks
                .len()
                .cmp(&a.blocks.len())
                .then(a.header.cmp(&b.header))
        });
        // Compute nesting: a loop's parent is the smallest strictly-larger loop containing its header.
        let snapshot = loops.clone();
        for i in 0..loops.len() {
            let mut best: Option<usize> = None;
            for (j, cand) in snapshot.iter().enumerate() {
                if j == i {
                    continue;
                }
                if cand.blocks.len() > snapshot[i].blocks.len()
                    && cand.blocks.contains(&snapshot[i].header)
                    && cand.blocks.is_superset(&snapshot[i].blocks)
                {
                    match best {
                        None => best = Some(j),
                        Some(k) if cand.blocks.len() < snapshot[k].blocks.len() => best = Some(j),
                        _ => {}
                    }
                }
            }
            loops[i].parent = best;
        }
        // Depths follow the parent chain.
        for i in 0..loops.len() {
            let mut depth = 1;
            let mut cur = loops[i].parent;
            while let Some(p) = cur {
                depth += 1;
                cur = loops[p].parent;
            }
            loops[i].depth = depth;
        }
        LoopForest { loops }
    }

    /// The innermost loop containing `b`, if any (index into [`LoopForest::loops`]).
    pub fn innermost_containing(&self, b: BlockId) -> Option<usize> {
        self.loops
            .iter()
            .enumerate()
            .filter(|(_, l)| l.contains(b))
            .max_by_key(|(_, l)| l.depth)
            .map(|(i, _)| i)
    }

    /// The loop headed at `header`, if any.
    pub fn loop_with_header(&self, header: BlockId) -> Option<&NaturalLoop> {
        self.loops.iter().find(|l| l.header == header)
    }

    /// Returns `true` if the edge `from -> to` is a back edge of some loop.
    pub fn is_back_edge(&self, from: BlockId, to: BlockId) -> bool {
        self.loops
            .iter()
            .any(|l| l.header == to && l.latches.contains(&from))
    }

    /// Loop-nesting depth of a block (0 when not in any loop).
    pub fn depth_of(&self, b: BlockId) -> usize {
        self.innermost_containing(b)
            .map(|i| self.loops[i].depth)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Block, Function};
    use crate::visa::{Inst, Operand, Terminator};

    /// Builds a diamond CFG:  0 -> 1, 2 ; 1 -> 3 ; 2 -> 3 ; 3 -> ret
    fn diamond() -> Function {
        let mut f = Function::new("diamond");
        let cond = f.fresh_reg();
        let b1 = f.add_block();
        let b2 = f.add_block();
        let b3 = f.add_block();
        f.blocks[0].insts.push(Inst::Mov {
            dst: cond,
            src: Operand::ImmInt(1),
        });
        f.blocks[0].term = Terminator::Branch {
            cond,
            taken: b1,
            not_taken: b2,
        };
        f.blocks[b1.index()] = Block::jump_to(b3);
        f.blocks[b2.index()] = Block::jump_to(b3);
        f.blocks[b3.index()].term = Terminator::Return(None);
        f
    }

    /// Builds a doubly-nested loop:
    /// 0 -> 1 (outer header); 1 -> 2 (inner header) | 4(exit);
    /// 2 -> 3 | 1-latch? ; we use: 2 -> 2 (self latch) | 3 ; 3 -> 1 (outer latch)
    fn nested_loops() -> Function {
        let mut f = Function::new("nested");
        let c = f.fresh_reg();
        let outer = f.add_block(); // 1
        let inner = f.add_block(); // 2
        let latch = f.add_block(); // 3
        let exit = f.add_block(); // 4
        f.blocks[0].insts.push(Inst::Mov {
            dst: c,
            src: Operand::ImmInt(1),
        });
        f.blocks[0].term = Terminator::Jump(outer);
        f.blocks[outer.index()].term = Terminator::Branch {
            cond: c,
            taken: inner,
            not_taken: exit,
        };
        f.blocks[inner.index()].term = Terminator::Branch {
            cond: c,
            taken: inner,
            not_taken: latch,
        };
        f.blocks[latch.index()].term = Terminator::Jump(outer);
        f.blocks[exit.index()].term = Terminator::Return(None);
        f
    }

    #[test]
    fn rpo_visits_all_reachable_blocks_entry_first() {
        let f = diamond();
        let rpo = reverse_postorder(&f);
        assert_eq!(rpo.len(), 4);
        assert_eq!(rpo[0], f.entry);
        let f2 = nested_loops();
        let rpo2 = reverse_postorder(&f2);
        assert_eq!(rpo2.len(), 5);
        assert_eq!(rpo2[0], f2.entry);
    }

    #[test]
    fn adjacency_is_consistent() {
        let f = diamond();
        let adj = adjacency(&f);
        assert_eq!(adj.succs[0], vec![BlockId(1), BlockId(2)]);
        assert_eq!(adj.preds[3], vec![BlockId(1), BlockId(2)]);
        assert!(adj.preds[0].is_empty());
    }

    #[test]
    fn dominators_of_diamond() {
        let f = diamond();
        let d = Dominators::compute(&f);
        assert_eq!(d.idom(BlockId(1)), Some(BlockId(0)));
        assert_eq!(d.idom(BlockId(2)), Some(BlockId(0)));
        assert_eq!(d.idom(BlockId(3)), Some(BlockId(0)));
        assert!(d.dominates(BlockId(0), BlockId(3)));
        assert!(!d.dominates(BlockId(1), BlockId(3)));
        assert!(d.dominates(BlockId(3), BlockId(3)));
    }

    #[test]
    fn loop_forest_detects_nesting() {
        let f = nested_loops();
        let lf = LoopForest::compute(&f);
        assert_eq!(lf.loops.len(), 2);
        let outer = lf.loop_with_header(BlockId(1)).expect("outer loop");
        let inner = lf.loop_with_header(BlockId(2)).expect("inner loop");
        assert_eq!(outer.depth, 1);
        assert_eq!(inner.depth, 2);
        assert!(outer.blocks.is_superset(&inner.blocks));
        assert!(lf.is_back_edge(BlockId(2), BlockId(2)));
        assert!(lf.is_back_edge(BlockId(3), BlockId(1)));
        assert!(!lf.is_back_edge(BlockId(0), BlockId(1)));
        assert_eq!(lf.depth_of(BlockId(2)), 2);
        assert_eq!(lf.depth_of(BlockId(4)), 0);
        assert_eq!(
            lf.innermost_containing(BlockId(3)),
            lf.loops.iter().position(|l| l.header == BlockId(1))
        );
    }

    #[test]
    fn diamond_has_no_loops() {
        let f = diamond();
        let lf = LoopForest::compute(&f);
        assert!(lf.loops.is_empty());
    }

    #[test]
    fn reachable_ignores_orphan_blocks() {
        let mut f = diamond();
        f.add_block(); // unreachable
        let r = reachable(&f);
        assert_eq!(r.len(), 4);
        let rpo = reverse_postorder(&f);
        assert_eq!(rpo.len(), 4);
    }
}
