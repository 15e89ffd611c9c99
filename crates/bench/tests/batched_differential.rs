//! Batched-vs-scalar differential suite over real workloads.
//!
//! The batched multi-config model's contract is **bit-parity**: each lane of
//! [`simulate_image_batch`] must equal the scalar [`simulate_image`] result
//! exactly, for every workload in the registry, on both the fused image and
//! its unfused twin, across the full extended machine roster (which
//! exercises lane dedup, shared L1/L2 state and the in-order model).  On
//! top of raw lane parity, the figure layer must not notice the rerouting:
//! batched Figure 11 text is byte-identical at any worker count, and the
//! static verifier is observer-agnostic — running an image under [`BatchedPipelineSim`] changes
//! nothing the twin/replay passes look at.
//!
//! Tier-1 covers the small-input half of the registry (18 workloads); the
//! tier-2 job (`BSG_LARGE_TESTS=1`) extends the same sweep to the large
//! inputs for the full 36-workload registry.

use bsg_bench::{fig11, WorkloadArtifacts};
use bsg_compiler::{CompileOptions, OptLevel};
use bsg_runtime::{with_workers, ArtifactStore};
use bsg_uarch::batch::{simulate_image_batch, BatchedPipelineSim};
use bsg_uarch::exec::{execute_image, ExecConfig};
use bsg_uarch::machine::MachineConfig;
use bsg_uarch::pipeline::{simulate_image, PipelineConfig, PipelineSim};
use bsg_uarch::verify::verify_image;
use bsg_workloads::{suite, InputSize, Workload};

fn roster_configs() -> Vec<PipelineConfig> {
    MachineConfig::table3_extended()
        .iter()
        .map(|m| m.pipeline)
        .collect()
}

fn registry_workloads() -> Vec<Workload> {
    let mut workloads = suite(InputSize::Small);
    if std::env::var("BSG_LARGE_TESTS").map(|v| v == "1") == Ok(true) {
        workloads.extend(suite(InputSize::Large));
    } else {
        eprintln!("tier-1: batched differential over the small-input half (set BSG_LARGE_TESTS=1 for all 36)");
    }
    workloads
}

/// Per-lane bit-equality with the scalar model over the whole registry,
/// through the public entry points (both run the unfused twin).
#[test]
fn batched_lanes_equal_scalar_simulate_image_across_the_registry() {
    let configs = roster_configs();
    for w in registry_workloads() {
        let art =
            ArtifactStore::global().compiled(&w.program, &CompileOptions::portable(OptLevel::O0));
        let batched = simulate_image_batch(&art.image, &configs);
        assert_eq!(batched.len(), configs.len());
        for (c, lane) in configs.iter().zip(&batched) {
            let scalar = simulate_image(&art.image, *c);
            assert_eq!(*lane, scalar, "{}: lane {c:?} diverged", w.name);
        }
    }
}

/// The same parity with the observers driven explicitly over **both** twins:
/// the batched model is stream-defined, so feeding it the fused event stream
/// must agree with scalar models fed the identical stream — and ditto for
/// the unfused twin's stream.
#[test]
fn batched_lanes_equal_scalar_sims_on_fused_and_unfused_twins() {
    let configs = roster_configs();
    let config = ExecConfig::default();
    for w in registry_workloads() {
        let art =
            ArtifactStore::global().compiled(&w.program, &CompileOptions::portable(OptLevel::O0));
        for (twin, image) in [("fused", &art.image), ("unfused", art.image.unfused_twin())] {
            let mut batched = BatchedPipelineSim::from_image(&configs, image);
            execute_image(image, &mut batched, &config);
            for (c, lane) in configs.iter().zip(batched.results()) {
                let mut scalar = PipelineSim::from_image(*c, image);
                execute_image(image, &mut scalar, &config);
                assert_eq!(
                    lane,
                    scalar.result(),
                    "{}: {twin} twin lane {c:?} diverged",
                    w.name
                );
            }
        }
    }
}

/// The verifier's twin/replay passes are observer-agnostic: an image that
/// verifies clean still verifies clean (with the identical report) after
/// being executed under the batched observer, which borrows it immutably
/// like every other observer run.
#[test]
fn verifier_accepts_images_executed_under_the_batched_observer() {
    let configs = roster_configs();
    let picks = ["crc32/small", "fft/small"];
    for w in suite(InputSize::Small)
        .into_iter()
        .filter(|w| picks.contains(&w.name.as_str()))
    {
        let art =
            ArtifactStore::global().compiled(&w.program, &CompileOptions::portable(OptLevel::O0));
        let before = verify_image(&art.image)
            .unwrap_or_else(|e| panic!("{}: image must verify before simulation: {e}", w.name));
        let _ = simulate_image_batch(&art.image, &configs);
        let after = verify_image(&art.image).unwrap_or_else(|e| {
            panic!(
                "{}: image must verify after batched simulation: {e}",
                w.name
            )
        });
        assert_eq!(
            format!("{before:?}"),
            format!("{after:?}"),
            "{}: verify report changed across a batched run",
            w.name
        );
    }
}

/// Batched Figure 11 text is byte-identical at 1, 2 and 8 workers.
#[test]
fn batched_fig11_text_is_deterministic_across_worker_counts() {
    let picks = ["adpcm/small", "bitcount/small", "crc32/small"];
    let artifacts: Vec<WorkloadArtifacts> = suite(InputSize::Small)
        .into_iter()
        .filter(|w| picks.contains(&w.name.as_str()))
        .map(|w| WorkloadArtifacts::prepare(w, 20_000))
        .collect();
    let reference = with_workers(1, || fig11(&artifacts));
    assert!(reference.contains("Itanium 2"), "figure covers the roster");
    for workers in [2usize, 8] {
        let text = with_workers(workers, || fig11(&artifacts));
        assert_eq!(
            text, reference,
            "batched fig11 diverges at {workers} workers"
        );
    }
}
