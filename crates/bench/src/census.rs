//! Dispatch census: which step shapes the fused interpreter loop dispatches
//! on the benchmark's traffic.
//!
//! Every fused superinstruction shape costs a `Step` variant, a fusion rule,
//! an executor arm and verifier rows, so a shape is kept only while it
//! carries at least 0.1% of the fused loop's dispatches on one of the two
//! traffics below.  The `step_histo` binary prints the census table; the
//! `fused_census` test fails when a fused shape is never dispatched at all.

use crate::{Experiment, WorkloadArtifacts};
use bsg_compiler::{CompileOptions, OptLevel, TargetIsa};
use bsg_runtime::{store::Compile, ArtifactStore, CompiledArtifact};
use bsg_uarch::exec::{execute_image, ExecConfig, InstEvent, Observer};
use bsg_uarch::image::ExecImage;
use bsg_workloads::{suite, InputSize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One fused image a traffic runs, and how many times it runs it.
pub struct CensusImage {
    /// Runs of this image per unit of traffic.
    weight: u64,
    /// The compiled program and its fused image.
    artifact: Arc<CompiledArtifact>,
}

/// The report's fused-image runs: x86 originals and clones of the small
/// suite.  fig05, fig06, fig07/08 and fig09 all run `-O0` and `-O2`
/// (weight 4); only fig05 runs `-O1` and `-O3` (weight 1).  Timing and
/// profiling runs use the unfused twin, so they dispatch no fused shape.
pub fn report_traffic(artifacts: &[WorkloadArtifacts]) -> Vec<CensusImage> {
    let mut images = Vec::new();
    for a in artifacts {
        for level in OptLevel::ALL {
            let weight = match level {
                OptLevel::O0 | OptLevel::O2 => 4,
                OptLevel::O1 | OptLevel::O3 => 1,
            };
            for synthetic in [false, true] {
                images.push(CensusImage {
                    weight,
                    artifact: a.compiled(&CompileOptions::new(level, TargetIsa::X86), synthetic),
                });
            }
        }
    }
    images
}

/// The server's `Measure` key space: every small-suite original at every
/// optimization level and ISA, once each.
pub fn serve_traffic() -> Vec<CensusImage> {
    let store = ArtifactStore::global();
    let mut images = Vec::new();
    for w in suite(InputSize::Small) {
        for level in OptLevel::ALL {
            for isa in TargetIsa::ALL {
                images.push(CensusImage {
                    weight: 1,
                    artifact: store.get(Compile::of(&w.program, CompileOptions::new(level, isa))),
                });
            }
        }
    }
    images
}

/// Counts dynamic executions per dense site id.
struct SiteCounts(Vec<u64>);

impl Observer for SiteCounts {
    fn on_inst(&mut self, event: &InstEvent) {
        self.0[event.site_id as usize] += 1;
    }
}

/// Dispatches per step variant of one run of the fused `image`.
fn dispatch_counts(image: &ExecImage) -> Vec<(&'static str, u64)> {
    let mut counts = SiteCounts(vec![0; image.num_sites()]);
    execute_image(image, &mut counts, &ExecConfig::default());
    image.step_histogram(&counts.0)
}

/// One step variant's row of a [`census`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ShapeShare {
    /// Weighted dispatches over the whole traffic.
    pub dispatches: u64,
    /// `dispatches` as a fraction of all weighted dispatches.
    pub share: f64,
    /// The largest fraction of one image's dispatches this variant takes.
    pub max_image_share: f64,
}

/// Per-variant dispatch shares of one traffic, keyed by variant name.
/// Variants that are never dispatched have no row.
pub fn census(images: &[CensusImage]) -> BTreeMap<&'static str, ShapeShare> {
    let per_image = Experiment::over(images.iter().collect())
        .measure(|img: &&CensusImage| dispatch_counts(&img.artifact.image))
        .values;
    let mut rows: BTreeMap<&'static str, ShapeShare> = BTreeMap::new();
    for (img, histo) in images.iter().zip(&per_image) {
        let image_total: u64 = histo.iter().map(|(_, n)| n).sum();
        for &(name, n) in histo {
            let row = rows.entry(name).or_default();
            row.dispatches += n * img.weight;
            row.max_image_share = row.max_image_share.max(n as f64 / image_total as f64);
        }
    }
    let total: u64 = rows.values().map(|r| r.dispatches).sum();
    for row in rows.values_mut() {
        row.share = row.dispatches as f64 / total as f64;
    }
    rows
}
