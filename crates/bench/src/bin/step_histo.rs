#![forbid(unsafe_code)]

//! Dispatch census of the fused interpreter loop (see `bsg_bench::census`).
//!
//! Prints, for every step variant, its share of all fused-loop dispatches
//! and its largest share in any single image, on the report traffic and on
//! the serve traffic.  Fused shapes below 0.1% on both traffics are flagged:
//! they no longer earn their variant, fusion rule, executor arm and
//! verifier rows.
//!
//! Run with `cargo run -p bsg-bench --release --bin step_histo`.

use bsg_bench::census::{census, report_traffic, serve_traffic, ShapeShare};
use bsg_bench::{prepare_suite, SYNTH_TARGET_INSTRUCTIONS};
use bsg_uarch::image::FUSED_SHAPES;
use bsg_workloads::InputSize;
use std::collections::{BTreeMap, BTreeSet};

/// Fused shapes below this share on every traffic are flagged.
const KEEP_SHARE: f64 = 0.001;

fn main() {
    let artifacts = prepare_suite(InputSize::Small, SYNTH_TARGET_INSTRUCTIONS);
    let report = census(&report_traffic(&artifacts));
    let serve = census(&serve_traffic());
    let row = |name: &str, traffic: &BTreeMap<&str, ShapeShare>| {
        traffic.get(name).copied().unwrap_or_default()
    };

    let mut names: Vec<&str> = FUSED_SHAPES
        .iter()
        .copied()
        .chain(report.keys().copied())
        .chain(serve.keys().copied())
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    names.sort_by(|a, b| {
        let key = |n: &str| row(n, &report).share.max(row(n, &serve).share);
        key(b).total_cmp(&key(a)).then(a.cmp(b))
    });

    println!("share: of all fused-loop dispatches; max: largest share in one image");
    println!(
        "{:<16} {:>5}  {:>9} {:>9}  {:>9} {:>9}",
        "variant", "fused", "report", "max", "serve", "max"
    );
    for name in &names {
        let fused = FUSED_SHAPES.contains(name);
        let (r, s) = (row(name, &report), row(name, &serve));
        let flag = if fused && r.share.max(s.share) < KEEP_SHARE {
            "  < 0.1%"
        } else {
            ""
        };
        println!(
            "{:<16} {:>5}  {:>8.4}% {:>8.3}%  {:>8.4}% {:>8.3}%{flag}",
            name,
            if fused { "yes" } else { "" },
            r.share * 100.0,
            r.max_image_share * 100.0,
            s.share * 100.0,
            s.max_image_share * 100.0,
        );
    }
    let fused_share = |traffic| {
        FUSED_SHAPES
            .iter()
            .map(|n| row(n, traffic).share)
            .sum::<f64>()
            * 100.0
    };
    println!(
        "{:<16} {:>5}  {:>8.4}%            {:>8.4}%",
        "all fused",
        FUSED_SHAPES.len(),
        fused_share(&report),
        fused_share(&serve)
    );
}
