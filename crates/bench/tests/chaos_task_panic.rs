//! End-to-end chaos: `BSG_FAULT`-driven task panic plus a full disk, through
//! the same `try_prepare_suite` path the `all_experiments` binary uses.
//!
//! This file holds exactly ONE test: it sets the `BSG_FAULT` environment
//! variable before anything reads the process-wide fault plan, which would
//! race any sibling test in the same binary.  The hermetic (no-env) chaos
//! coverage lives in `fault_injection.rs`; the scheduler-level byte-identity
//! proof lives in `runtime_determinism.rs`.

use bsg_bench::try_prepare_suite;
use bsg_compiler::{CompileOptions, OptLevel};
use bsg_profile::ProfileConfig;
use bsg_runtime::{
    store::{Compile, Profile, Synthesis},
    ArtifactStore, BsgError,
};
use bsg_workloads::{suite, InputSize};

#[test]
fn an_injected_task_panic_and_a_full_disk_cost_exactly_one_suite_slot() {
    let victim = "crc32/small";
    // Must precede every read of the global plan and the global store's disk
    // tier: this is the only test in this binary, so nothing has run yet.
    std::env::set_var("BSG_FAULT", format!("task-panic={victim},enospc"));
    // A fresh directory so the ENOSPC injection hits a real (empty) disk
    // tier rather than reusing a warm cache from an earlier run.
    let dir = std::env::temp_dir().join(format!("bsg-chaos-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::env::set_var("BSG_ARTIFACT_DIR", &dir);

    let target = 10_000u64;
    let results = try_prepare_suite(InputSize::Small, target);
    assert_eq!(results.len(), suite(InputSize::Small).len());

    let mut failed = Vec::new();
    for (name, result) in &results {
        match result {
            Ok(a) => assert_eq!(&a.workload.name, name, "slots stay in suite order"),
            Err(BsgError::TaskPanic { message }) => {
                assert!(
                    message.contains("chaos: injected task panic"),
                    "unexpected panic message: {message}"
                );
                failed.push(name.clone());
            }
            Err(other) => panic!("{name}: expected TaskPanic, got {other}"),
        }
    }
    assert_eq!(failed, vec![victim.to_string()], "exactly one slot faults");

    // Every non-faulted workload's artifacts are byte-identical to a fully
    // hermetic build (memory-only store, no faults, no scheduler): the
    // injected panic and the degraded disk tier changed nothing else.
    let hermetic = ArtifactStore::new();
    for w in suite(InputSize::Small) {
        if w.name == victim {
            continue;
        }
        let (_, result) = results
            .iter()
            .find(|(name, _)| name == &w.name)
            .expect("every workload has a slot");
        let got = result.as_ref().expect("non-victim slots succeed");
        let profile = hermetic.get(Profile(
            Compile::of(&w.program, CompileOptions::portable(OptLevel::O0)),
            &w.name,
            &ProfileConfig::default(),
        ));
        let synthesis = hermetic.get(Synthesis(
            &profile,
            &bsg_synth::SynthesisConfig::default(),
            target,
        ));
        assert_eq!(
            got.synthesis.benchmark.c_source, synthesis.benchmark.c_source,
            "{}: synthetic C source diverged under chaos",
            w.name
        );
        assert_eq!(
            got.synthesis.synthetic_instructions, synthesis.synthetic_instructions,
            "{}: synthetic instruction count diverged under chaos",
            w.name
        );
    }

    // The injected ENOSPC really exercised the disk tier: nothing was
    // written and the tier degraded to memory-only.
    let disk = ArtifactStore::global()
        .disk()
        .expect("BSG_ARTIFACT_DIR enables the disk tier")
        .stats();
    assert_eq!(disk.writes, 0, "nothing lands on a full disk");
    assert!(disk.degraded, "repeated ENOSPC must degrade the tier");
    let _ = std::fs::remove_dir_all(&dir);
}
