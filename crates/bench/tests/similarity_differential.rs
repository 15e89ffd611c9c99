//! The obfuscation section's scores on real sources: for every small-input
//! registry workload, the seeded greedy string tiling behind
//! `SimilarityReport::compare` must give bitwise the same JPlag coverage as
//! the full O(n·m)-per-pass scan, and its Moss score must equal the
//! per-detector `moss_similarity`.

use bsg_bench::{prepare_suite, SYNTH_TARGET_INSTRUCTIONS};
use bsg_runtime::{store::CText, ArtifactStore};
use bsg_similarity::{moss_similarity, token_hashes, SimilarityReport};
use bsg_workloads::InputSize;

#[path = "../../similarity/src/oracle.rs"]
mod oracle;

#[test]
fn compare_matches_the_full_scan_on_every_registry_pair() {
    let artifacts = prepare_suite(InputSize::Small, SYNTH_TARGET_INSTRUCTIONS);
    assert_eq!(artifacts.len(), 18, "the small-input half of the registry");
    for a in &artifacts {
        let original = ArtifactStore::global().get(CText(&a.workload.program));
        let clone = &a.synthesis.benchmark.c_source;
        let report = SimilarityReport::compare(&original, clone);
        let scanned = oracle::scan_coverage(&token_hashes(&original), &token_hashes(clone), 9);
        assert_eq!(
            report.jplag.to_bits(),
            scanned.to_bits(),
            "{}: jplag {} vs scan {}",
            a.workload.name,
            report.jplag,
            scanned
        );
        let moss = moss_similarity(&original, clone);
        assert_eq!(
            report.moss.to_bits(),
            moss.to_bits(),
            "{}: moss {} vs {}",
            a.workload.name,
            report.moss,
            moss
        );
    }
}
