//! Chaos suite: injected disk faults against real artifact builds.
//!
//! Each test builds real workload artifacts through an [`ArtifactStore`]
//! whose disk tier runs under a deterministic [`FaultPlan`] — a full disk,
//! a torn rename, a short write — and requires the two fault-isolation
//! invariants of PR 6:
//!
//! 1. **Correctness never depends on the disk tier**: every artifact built
//!    under injected faults is byte-identical to a hermetic, memory-only
//!    build.
//! 2. **Failures degrade, they don't cascade**: repeated IO failures flip
//!    the tier to memory-only (visible in stats) instead of erroring every
//!    subsequent build, and corrupt on-disk entries are rebuilt, not served.
//!
//! The same faults run end-to-end against `all_experiments` in the CI chaos
//! job; these tests pin the behaviour hermetically, without environment
//! variables, so they can run in parallel with the rest of the suite.

use bsg_compiler::{CompileOptions, OptLevel, TargetIsa};
use bsg_runtime::disk::DEGRADE_AFTER_IO_FAILURES;
use bsg_runtime::{store::Compile, ArtifactStore, DiskCache, FaultPlan};
use bsg_workloads::{suite, InputSize};
use std::path::PathBuf;

fn chaos_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "bsg-chaos-{tag}-{}-{:x}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ))
}

#[test]
fn a_full_disk_degrades_the_tier_and_changes_no_artifact_bytes() {
    let workloads = suite(InputSize::Small);
    let w = &workloads[3]; // crc32/small
    let options = CompileOptions::new(OptLevel::O2, TargetIsa::X86);

    let hermetic = ArtifactStore::new();
    let want = hermetic.get(Compile::of(&w.program, options));

    let dir = chaos_dir("enospc");
    let plan = FaultPlan::parse("enospc").unwrap();
    let store = ArtifactStore::with_disk(DiskCache::with_faults(&dir, None, plan));
    // Enough distinct builds to fail DEGRADE_AFTER_IO_FAILURES stores in a
    // row: the tier must go memory-only, and every build must still succeed.
    for level in [OptLevel::O0, OptLevel::O1, OptLevel::O2, OptLevel::O3] {
        let art = store
            .try_get(Compile::of(
                &w.program,
                CompileOptions::new(level, TargetIsa::X86),
            ))
            .expect("a full disk must never fail a build");
        if level == OptLevel::O2 {
            assert_eq!(
                art.program, want.program,
                "artifact built under ENOSPC diverges from the hermetic build"
            );
        }
    }
    let disk = store.disk().expect("store has a disk tier").stats();
    assert_eq!(disk.writes, 0, "nothing lands on a full disk");
    assert!(disk.degraded, "repeated ENOSPC must degrade the tier");
    assert_eq!(disk.io_errors, DEGRADE_AFTER_IO_FAILURES);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_renames_and_short_writes_are_rebuilt_bit_identically() {
    let workloads = suite(InputSize::Small);
    let w = &workloads[0]; // adpcm/small
    let options = CompileOptions::new(OptLevel::O1, TargetIsa::X86_64);

    let hermetic = ArtifactStore::new();
    let want = hermetic.get(Compile::of(&w.program, options));

    for spec in ["torn-rename", "short-write"] {
        let dir = chaos_dir(spec);
        // First process: the write of the compiled entry is damaged in a way
        // that leaves bytes at the destination path.
        let writer = ArtifactStore::with_disk(DiskCache::with_faults(
            &dir,
            None,
            FaultPlan::parse(spec).unwrap(),
        ));
        let first = writer
            .try_get(Compile::of(&w.program, options))
            .expect("a damaged cache write must not fail the build");
        assert_eq!(
            first.program, want.program,
            "{spec}: in-memory value intact"
        );

        // Second process over the same directory: the damaged entry must be
        // detected, discounted and rebuilt — bit-identical to hermetic.
        let reader = ArtifactStore::with_disk(DiskCache::with_cap(&dir, None));
        let rebuilt = reader
            .try_get(Compile::of(&w.program, options))
            .expect("corrupt entries fall back to a rebuild");
        assert_eq!(
            rebuilt.program, want.program,
            "{spec}: rebuild after corruption diverges from the hermetic build"
        );
        let disk = reader.disk().expect("disk tier").stats();
        assert_eq!(disk.corrupt, 1, "{spec}: the damaged entry was detected");
        assert_eq!(disk.hits, 0, "{spec}: nothing corrupt was ever served");
        assert!(
            !disk.degraded,
            "{spec}: corruption is not an IO-failure streak"
        );

        // Third read: the rebuild overwrote the entry, so now it serves.
        let reread = ArtifactStore::with_disk(DiskCache::with_cap(&dir, None));
        let served = reread.try_get(Compile::of(&w.program, options)).unwrap();
        assert_eq!(served.program, want.program);
        assert_eq!(
            reread.disk().unwrap().stats().hits,
            1,
            "{spec}: entry healed"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn injected_load_errors_fall_back_to_rebuilds() {
    let workloads = suite(InputSize::Small);
    let w = &workloads[2]; // bitcount/small
    let options = CompileOptions::new(OptLevel::O0, TargetIsa::X86);

    let hermetic = ArtifactStore::new();
    let want = hermetic.get(Compile::of(&w.program, options));

    let dir = chaos_dir("eio");
    // Warm the directory cleanly...
    ArtifactStore::with_disk(DiskCache::with_cap(&dir, None)).get(Compile::of(&w.program, options));
    // ...then read it through a device that errors every load.
    let store = ArtifactStore::with_disk(DiskCache::with_faults(
        &dir,
        None,
        FaultPlan::parse("eio").unwrap(),
    ));
    let got = store
        .try_get(Compile::of(&w.program, options))
        .expect("EIO on load must fall back to a rebuild");
    assert_eq!(got.program, want.program);
    let disk = store.disk().unwrap().stats();
    assert_eq!(disk.hits, 0, "nothing served through a failing device");
    assert!(disk.io_errors >= 1);
    let _ = std::fs::remove_dir_all(&dir);
}
