//! Census guard: every fused superinstruction shape the fusion pass can
//! emit must be dispatched at least once over the small suite at every
//! optimization level and ISA (the serve traffic of `bsg_bench::census`,
//! which includes every original the report runs).  A shape that never runs
//! still costs a variant, a fusion rule, an executor arm and verifier rows.
//! `step_histo` prints the full census with each shape's share.

use bsg_bench::census::{census, serve_traffic};
use bsg_uarch::image::FUSED_SHAPES;

#[test]
fn every_fused_shape_is_dispatched_across_levels_and_isas() {
    let shares = census(&serve_traffic());
    let idle: Vec<&str> = FUSED_SHAPES
        .iter()
        .copied()
        .filter(|shape| !shares.contains_key(shape))
        .collect();
    assert!(idle.is_empty(), "fused shapes never dispatched: {idle:?}");
}
