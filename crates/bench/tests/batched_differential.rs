//! Timing-core differential suite over real workloads.
//!
//! The timing core's contract is **bit-parity** with the independent
//! [`ReferencePipelineSim`] oracle: each lane of [`simulate_image_batch`]
//! must equal the reference model's result exactly, for every workload in
//! the registry, on both the fused image and its unfused twin, across the
//! full extended machine roster (which exercises lane dedup, the chunk path
//! for more than four unique lanes, shared L1/L2 state and the in-order
//! model).  On top of raw lane parity, the figure layer must not notice the
//! rerouting: batched Figure 11 text is byte-identical at any worker count,
//! and the static verifier is observer-agnostic — running an image under
//! the timing core changes nothing the twin/replay passes look at.
//!
//! Tier-1 covers the small-input half of the registry (18 workloads); the
//! tier-2 job (`BSG_LARGE_TESTS=1`) extends the same sweep to the large
//! inputs for the full 36-workload registry.

use bsg_bench::{fig11, WorkloadArtifacts};
use bsg_compiler::{CompileOptions, OptLevel};
use bsg_runtime::{store::Compile, with_workers, ArtifactStore, CompiledArtifact};
use bsg_uarch::batch::{simulate_configs, simulate_image_batch};
use bsg_uarch::exec::{execute_image, ExecConfig};
use bsg_uarch::machine::MachineConfig;
use bsg_uarch::pipeline::{PipelineConfig, PipelineResult, ReferencePipelineSim};
use bsg_uarch::verify::verify_image;
use bsg_workloads::{suite, InputSize, Workload};
use std::sync::{Arc, OnceLock};

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

/// One registry workload's compiled artifact and the reference model's
/// result for every roster config.
struct Expected {
    name: String,
    art: Arc<CompiledArtifact>,
    lanes: Vec<PipelineResult>,
}

/// The reference results, computed once and shared by the tests below: the
/// oracle is the slow side of every comparison.  It runs on the unfused
/// twin's event stream; the fused twin's stream is identical (the engine
/// differential suites), so every twin must reproduce these results.
fn expected() -> &'static [Expected] {
    static EXPECTED: OnceLock<Vec<Expected>> = OnceLock::new();
    EXPECTED.get_or_init(|| {
        let configs = roster_configs();
        registry_workloads()
            .into_iter()
            .map(|w| {
                let art = ArtifactStore::global().get(Compile::of(
                    &w.program,
                    CompileOptions::portable(OptLevel::O0),
                ));
                let lanes = configs
                    .iter()
                    .map(|c| {
                        let mut sim = ReferencePipelineSim::new(*c, &art.program);
                        execute_image(art.image.unfused_twin(), &mut sim, &ExecConfig::default());
                        sim.result()
                    })
                    .collect();
                Expected {
                    name: w.name,
                    art,
                    lanes,
                }
            })
            .collect()
    })
}

/// Per-lane bit-equality with the reference model over the whole registry,
/// through the public entry point (which runs the unfused twin).
#[test]
fn batched_lanes_equal_the_reference_across_the_registry() {
    let configs = roster_configs();
    for e in expected() {
        let batched = simulate_image_batch(&e.art.image, &configs);
        assert_eq!(batched.len(), configs.len());
        for ((c, lane), reference) in configs.iter().zip(&batched).zip(&e.lanes) {
            assert_eq!(lane, reference, "{}: lane {c:?} diverged", e.name);
        }
    }
}

/// The same parity with the core driven over **each** twin as given: the
/// model is stream-defined, and the twins' event streams are identical, so
/// the fused and the unfused image must both give the reference lanes.
/// One config also runs alone, the one-lane shape behind `simulate_image`.
#[test]
fn batched_lanes_equal_the_reference_on_fused_and_unfused_twins() {
    let configs = roster_configs();
    let config = ExecConfig::default();
    for e in expected() {
        for (twin, image) in [
            ("fused", &e.art.image),
            ("unfused", e.art.image.unfused_twin()),
        ] {
            let lanes = simulate_configs(image, &configs, &config);
            for ((c, lane), reference) in configs.iter().zip(lanes).zip(&e.lanes) {
                assert_eq!(
                    lane, *reference,
                    "{}: {twin} twin lane {c:?} diverged",
                    e.name
                );
            }
            assert_eq!(
                simulate_configs(image, &configs[..1], &config)[0],
                e.lanes[0],
                "{}: {twin} twin one-lane run diverged",
                e.name
            );
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
        let art = ArtifactStore::global().get(Compile::of(
            &w.program,
            CompileOptions::portable(OptLevel::O0),
        ));
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
