//! Scaling down the SFGL by a reduction factor *R* (§III-B.1, Figure 2).
//!
//! Basic-block execution counts and loop iteration counts are divided by *R*;
//! for nested loops the outer loop is scaled first and inner loops are only
//! scaled further while the enclosing trip count still exceeds one.  Blocks
//! whose scaled count reaches zero are removed — this is both what keeps the
//! synthetic benchmark short and part of what obfuscates the original
//! workload (rarely executed code disappears entirely).

use bsg_profile::{NodeKey, Sfgl, SfglLoop};

/// The result of scaling an SFGL down by a reduction factor.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaledSfgl {
    /// The scaled graph (counts divided by R, zero-count nodes removed).
    pub sfgl: Sfgl,
    /// The reduction factor used.
    pub reduction_factor: u64,
}

impl ScaledSfgl {
    /// Scaled execution count of a node.
    pub fn count(&self, node: NodeKey) -> u64 {
        self.sfgl.count(node)
    }

    /// Scaled trip count (iterations per entry) of a loop.
    pub fn trip_count(&self, l: &SfglLoop) -> u64 {
        (l.average_trip_count().round() as u64).max(1)
    }
}

/// Scales `sfgl` down by the reduction factor `r` (Figure 2(b) of the paper).
pub fn scale_down(sfgl: &Sfgl, r: u64) -> ScaledSfgl {
    let r = r.max(1);
    let mut scaled = Sfgl::default();

    // Node counts: divide by R and drop blocks executed fewer than R times.
    for (node, count) in &sfgl.nodes {
        let c = count / r;
        if c > 0 {
            scaled.nodes.insert(*node, c);
        }
    }
    // Edges between surviving nodes, scaled the same way (at least one
    // traversal is kept so surviving control flow stays connected).
    for ((from, to), count) in &sfgl.edges {
        if scaled.nodes.contains_key(from) && scaled.nodes.contains_key(to) {
            let c = (count / r).max(1);
            scaled.edges.insert((*from, *to), c);
        }
    }
    for (f, c) in &sfgl.calls {
        let scaled_calls = (c / r).max(1);
        scaled.calls.insert(*f, scaled_calls);
    }

    // Loops: scale the outer loop first (§III-B.1).  An outermost loop's
    // entry count shrinks with the surrounding code (by R, but never below
    // one entry); whatever reduction its entries and trips cannot absorb is
    // passed down as the remaining "budget" for its nested loops.
    // Filter out loops whose header was removed, remapping parent indices to
    // positions in the filtered vector (dropped ancestors are skipped over).
    let mut index_map: Vec<Option<usize>> = vec![None; sfgl.loops.len()];
    let mut loops: Vec<SfglLoop> = Vec::new();
    for (i, l) in sfgl.loops.iter().enumerate() {
        if !scaled.nodes.contains_key(&l.header) {
            continue;
        }
        let mut parent = l.parent;
        let mapped_parent = loop {
            match parent {
                None => break None,
                Some(p) if p >= sfgl.loops.len() => break None,
                Some(p) => match index_map[p] {
                    Some(mapped) => break Some(mapped),
                    None => parent = sfgl.loops[p].parent,
                },
            }
        };
        index_map[i] = Some(loops.len());
        let mut kept = l.clone();
        kept.parent = mapped_parent;
        loops.push(kept);
    }
    let original: Vec<SfglLoop> = loops.clone();
    let mut order: Vec<usize> = (0..loops.len()).collect();
    order.sort_by_key(|&i| loops[i].depth);
    // Reduction factor absorbed by each loop (entry scaling × trip scaling).
    let mut absorbed: Vec<f64> = vec![1.0; loops.len()];
    for idx in order {
        // Factor already absorbed by the enclosing loops.
        let mut ancestor_factor = 1.0;
        let mut cur = original[idx].parent;
        while let Some(p) = cur {
            if p >= original.len() {
                break;
            }
            ancestor_factor *= absorbed[p];
            cur = original[p].parent;
        }
        let orig_trip = original[idx].average_trip_count().max(1.0);
        let (entries_new, entry_scale) = if original[idx].parent.is_none() {
            let e = (original[idx].entries / r).max(1);
            (e, original[idx].entries as f64 / e as f64)
        } else {
            let e = ((original[idx].entries as f64 / ancestor_factor).round() as u64).max(1);
            (e, 1.0)
        };
        let budget = (r as f64 / (entry_scale * ancestor_factor)).max(1.0);
        let trip_new = (orig_trip / budget).round().max(1.0);
        absorbed[idx] = entry_scale * (orig_trip / trip_new);
        let l = &mut loops[idx];
        l.entries = entries_new;
        l.iterations = (entries_new as f64 * trip_new).round() as u64;
    }
    scaled.loops = loops;

    ScaledSfgl {
        sfgl: scaled,
        reduction_factor: r,
    }
}

/// Chooses the reduction factor that brings `dynamic_instructions` down to
/// roughly `target_instructions` (the paper targets ~10 million).
pub fn initial_reduction_factor(dynamic_instructions: u64, target_instructions: u64) -> u64 {
    (dynamic_instructions / target_instructions.max(1)).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn key(b: u32) -> NodeKey {
        NodeKey { func: 0, block: b }
    }

    /// The paper's Figure 2(a) SFGL.
    fn figure2() -> Sfgl {
        let mut s = Sfgl::default();
        let counts = [500u64, 420, 80, 500, 5000, 1000, 4000, 5000, 500];
        for (i, c) in counts.iter().enumerate() {
            s.nodes.insert(key(i as u32), *c);
        }
        for ((a, b), c) in [
            ((0u32, 1u32), 420u64),
            ((0, 2), 80),
            ((1, 3), 420),
            ((2, 3), 80),
            ((3, 4), 500),
            ((4, 5), 1000),
            ((4, 6), 4000),
            ((5, 7), 1000),
            ((6, 7), 4000),
            ((7, 4), 4500),
            ((7, 8), 500),
        ] {
            s.edges.insert((key(a), key(b)), c);
        }
        s.loops.push(SfglLoop {
            header: key(4),
            blocks: [4u32, 5, 6, 7].iter().map(|b| key(*b)).collect(),
            entries: 500,
            iterations: 4500,
            depth: 1,
            parent: None,
        });
        s.calls.insert(0, 1);
        s
    }

    #[test]
    fn figure2_scale_down_matches_the_paper() {
        // With R = 100 the paper's Figure 2(b) shows A=5, B=4, C removed,
        // D=5, E=50, F=10, G=40, H=50, I=5.
        let scaled = scale_down(&figure2(), 100);
        assert_eq!(scaled.count(key(0)), 5);
        assert_eq!(scaled.count(key(1)), 4);
        assert_eq!(scaled.count(key(2)), 0, "block C is removed");
        assert!(!scaled.sfgl.nodes.contains_key(&key(2)));
        assert_eq!(scaled.count(key(3)), 5);
        assert_eq!(scaled.count(key(4)), 50);
        assert_eq!(scaled.count(key(5)), 10);
        assert_eq!(scaled.count(key(6)), 40);
        assert_eq!(scaled.count(key(7)), 50);
        assert_eq!(scaled.count(key(8)), 5);
        // Edges referencing the removed block are gone.
        assert!(!scaled.sfgl.edges.contains_key(&(key(0), key(2))));
        assert_eq!(scaled.reduction_factor, 100);
    }

    #[test]
    fn scaling_never_increases_counts() {
        let original = figure2();
        for r in [1u64, 3, 10, 50, 1000] {
            let scaled = scale_down(&original, r);
            for (node, count) in &scaled.sfgl.nodes {
                assert!(*count <= original.count(*node), "r={r} node={node:?}");
            }
        }
    }

    #[test]
    fn r_of_one_is_identity_on_node_counts() {
        let original = figure2();
        let scaled = scale_down(&original, 1);
        assert_eq!(scaled.sfgl.nodes, original.nodes);
    }

    #[test]
    fn loop_iterations_scale_with_r() {
        let scaled = scale_down(&figure2(), 100);
        assert_eq!(scaled.sfgl.loops.len(), 1);
        let l = &scaled.sfgl.loops[0];
        assert_eq!(l.entries, 5);
        assert_eq!(l.iterations, 45);
        assert_eq!(
            scaled.trip_count(l),
            9,
            "the average trip count is preserved"
        );
    }

    #[test]
    fn nested_loops_scale_outer_first() {
        let mut s = figure2();
        // Add an inner loop around G with 10 iterations per visit.
        s.nodes.insert(key(9), 40_000);
        s.edges.insert((key(6), key(9)), 4000);
        s.edges.insert((key(9), key(9)), 36_000);
        s.edges.insert((key(9), key(7)), 4000);
        s.loops[0].blocks.insert(key(9));
        s.loops.push(SfglLoop {
            header: key(9),
            blocks: BTreeSet::from([key(9)]),
            entries: 4000,
            iterations: 36_000,
            depth: 2,
            parent: Some(0),
        });
        // R = 10: the outer loop's entry count (500 -> 50) absorbs the whole
        // reduction, so neither trip count needs to shrink.
        let scaled = scale_down(&s, 10);
        let outer = scaled.sfgl.loop_with_header(key(4)).unwrap();
        let inner = scaled.sfgl.loop_with_header(key(9)).unwrap();
        assert_eq!(outer.entries, 50);
        assert_eq!(scaled.trip_count(outer), 9, "outer trip count preserved");
        assert_eq!(scaled.trip_count(inner), 9, "inner trip count preserved");

        // R = 50_000 exceeds what entries can absorb: trip counts shrink too,
        // outer first, and never below one iteration.
        let heavy = scale_down(&s, 50_000);
        if let Some(outer) = heavy.sfgl.loop_with_header(key(4)) {
            assert_eq!(heavy.trip_count(outer), 1);
        }
    }

    #[test]
    fn initial_reduction_factor_targets_instruction_budget() {
        assert_eq!(initial_reduction_factor(300_000_000, 10_000_000), 30);
        assert_eq!(initial_reduction_factor(5_000_000, 10_000_000), 1);
        assert_eq!(initial_reduction_factor(100, 0), 100);
    }
}
