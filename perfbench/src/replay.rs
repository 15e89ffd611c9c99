//! Traced in-process replay of the `all_experiments` report.
//!
//! Each section is replayed over the same axes `bsg_bench` sweeps for it,
//! through the same scheduler (`Experiment::measure` on the global
//! runtime), with the artifact lookups going through [`TracedStore`] and
//! every simulation call wrapped in a span named after its layer.  The
//! replay computes the section's measurements but not its text; the text
//! itself is checked, byte for byte, on the untraced runs.

use crate::store::TracedStore;
use crate::trace::Tracer;
use bsg_bench::{cross, refs, target_isa_for, Experiment, SYNTH_TARGET_INSTRUCTIONS};
use bsg_compiler::{CompileOptions, OptLevel, TargetIsa};
use bsg_profile::{MixObserver, ProfileConfig, StatisticalProfile};
use bsg_runtime::{CompiledArtifact, SourceId};
use bsg_similarity::SimilarityReport;
use bsg_synth::{SynthesisConfig, TargetedSynthesis};
use bsg_uarch::branch::{Hybrid, PredictorObserver};
use bsg_uarch::cache::{CacheConfig, CacheObserver};
use bsg_uarch::exec::{execute_image, ExecConfig, NullObserver};
use bsg_uarch::machine::{MachineConfig, MachineIsa};
use bsg_uarch::pipeline::{simulate_image, PipelineConfig};
use bsg_workloads::{suite, InputSize, Workload};
use std::hint::black_box;
use std::sync::Arc;

/// One prepared workload: `bsg_bench::WorkloadArtifacts`, built through the
/// traced store.
struct Prepared {
    workload: Workload,
    profile: Arc<StatisticalProfile>,
    synthesis: Arc<TargetedSynthesis>,
    original_id: SourceId,
    synthetic_id: SourceId,
}

impl Prepared {
    fn compiled(
        &self,
        store: &TracedStore,
        options: &CompileOptions,
        synthetic: bool,
    ) -> Arc<CompiledArtifact> {
        if synthetic {
            store.compiled(self.synthetic_id, &self.synthesis.benchmark.hll, options)
        } else {
            store.compiled(self.original_id, &self.workload.program, options)
        }
    }
}

/// Runs `measure` over `units` on the global scheduler inside a span named
/// `name`; the spans each task opens nest under it.
fn section<U: Send, M: Send>(
    tracer: &Tracer,
    name: &'static str,
    units: Vec<U>,
    measure: impl Fn(&U) -> M + Sync,
) -> Vec<M> {
    tracer.span(name, || {
        let parent = tracer.current();
        Experiment::over(units)
            .measure(|u| tracer.adopt(parent, || measure(u)))
            .values
    })
}

/// Executes `image` under `observer` inside a span named `layer`, counting
/// the retired instructions as `<layer>.insts`.
fn run_observed<O: bsg_uarch::exec::Observer>(
    tracer: &Tracer,
    layer: &'static str,
    insts_counter: &'static str,
    art: &CompiledArtifact,
    observer: &mut O,
) {
    let outcome = tracer.span(layer, || {
        execute_image(&art.image, observer, &ExecConfig::default())
    });
    tracer.add(insts_counter, outcome.dynamic_instructions as f64);
}

fn x86(level: OptLevel) -> CompileOptions {
    CompileOptions::new(level, TargetIsa::X86)
}

/// Replays every section of the report (in report order) plus the suite
/// preparation before them.
pub fn replay_report(tracer: &Tracer, store: &TracedStore) {
    let prepared = section(tracer, "bench.prepare", suite(InputSize::Small), |w| {
        let profile = store.profile(
            &w.program,
            &CompileOptions::portable(OptLevel::O0),
            &w.name,
            &ProfileConfig::default(),
        );
        let synthesis = store.synthesis(
            &profile,
            &SynthesisConfig::default(),
            SYNTH_TARGET_INSTRUCTIONS,
        );
        Prepared {
            original_id: SourceId::of(w.program.as_ref()),
            synthetic_id: SourceId::of(&synthesis.benchmark.hll),
            workload: w.clone(),
            profile,
            synthesis,
        }
    });
    let arts = refs(&prepared);

    // Table I, Table III, Figure 2 and Figure 4 run no layer worth a span
    // (together well under a tenth of the report); time them as one unit.
    tracer.span("bench.section.other", || {
        black_box((bsg_bench::table1(), bsg_bench::table3(), bsg_bench::fig02()));
    });

    section(
        tracer,
        "bench.section.fig05",
        cross(&OptLevel::ALL, &arts),
        |(level, a)| {
            for synthetic in [false, true] {
                let art = a.compiled(store, &x86(*level), synthetic);
                run_observed(
                    tracer,
                    "uarch.exec",
                    "uarch.exec.insts",
                    &art,
                    &mut NullObserver,
                );
            }
        },
    );

    section(
        tracer,
        "bench.section.fig06",
        cross(&cross(&[OptLevel::O0, OptLevel::O2], &arts), &[false, true]),
        |((level, a), synthetic)| {
            let art = a.compiled(store, &x86(*level), *synthetic);
            let mut obs = MixObserver::default();
            run_observed(tracer, "uarch.exec", "uarch.exec.insts", &art, &mut obs);
            black_box(obs.mix());
        },
    );

    for (name, level) in [
        ("bench.section.fig07", OptLevel::O0),
        ("bench.section.fig08", OptLevel::O2),
    ] {
        section(
            tracer,
            name,
            cross(&arts, &[false, true]),
            |(a, synthetic)| {
                let art = a.compiled(store, &x86(level), *synthetic);
                let mut obs = CacheObserver::new([1u64, 2, 4, 8, 16, 32].map(CacheConfig::kb));
                run_observed(tracer, "uarch.cache", "uarch.cache.insts", &art, &mut obs);
                black_box(obs.sweep.results());
            },
        );
    }

    let fig09_points = [
        (OptLevel::O0, false),
        (OptLevel::O2, false),
        (OptLevel::O0, true),
        (OptLevel::O2, true),
    ];
    section(
        tracer,
        "bench.section.fig09",
        cross(&arts, &fig09_points),
        |(a, (level, synthetic))| {
            let art = a.compiled(store, &x86(*level), *synthetic);
            let mut obs = PredictorObserver::new(Hybrid::default_config());
            run_observed(tracer, "uarch.branch", "uarch.branch.insts", &art, &mut obs);
            black_box(obs.stats.accuracy());
        },
    );

    section(
        tracer,
        "bench.section.fig10",
        cross(&arts, &cross(&[false, true], &[8u64, 16, 32])),
        |(a, (synthetic, kb))| {
            let art = a.compiled(store, &x86(OptLevel::O0), *synthetic);
            let result = tracer.span("uarch.pipeline", || {
                simulate_image(&art.image, PipelineConfig::ptlsim_2wide(*kb))
            });
            tracer.add("uarch.pipeline.insts", result.instructions as f64);
        },
    );

    replay_fig11(tracer, store, &prepared);

    section(tracer, "bench.section.obfuscation", arts, |a| {
        let original_c = store.c_text(&a.workload.program);
        let synthetic_c = &a.synthesis.benchmark.c_source;
        tracer.add(
            "similarity.bytes",
            (original_c.len() + synthetic_c.len()) as f64,
        );
        black_box(tracer.span("similarity", || {
            SimilarityReport::compare(&original_c, synthetic_c)
        }));
    });
}

/// Figure 11: consolidate the suite into one clone, then time every
/// (level, unit) point on the Table III roster, one batched execution per
/// ISA group.
fn replay_fig11(tracer: &Tracer, store: &TracedStore, prepared: &[Prepared]) {
    tracer.span("bench.section.fig11", || {
        let merged = tracer.span("core", || {
            bsg_synth::consolidate(prepared.iter().map(|a| a.profile.as_ref()))
        });
        let consolidated = store.synthesis(
            &merged,
            &SynthesisConfig::default(),
            SYNTH_TARGET_INSTRUCTIONS * 2,
        );
        let consolidated_id = SourceId::of(&consolidated.benchmark.hll);
        let machines = MachineConfig::table3();
        let mut isas: Vec<MachineIsa> = Vec::new();
        for m in &machines {
            if !isas.contains(&m.isa) {
                isas.push(m.isa);
            }
        }
        let units: Vec<Option<&Prepared>> = prepared.iter().map(Some).chain([None]).collect();
        let parent = tracer.current();
        Experiment::over(cross(&OptLevel::ALL, &units)).measure(|(level, unit)| {
            tracer.adopt(parent, || {
                for isa in &isas {
                    let options = CompileOptions::new(*level, target_isa_for(*isa));
                    let art = match unit {
                        Some(a) => a.compiled(store, &options, false),
                        None => {
                            store.compiled(consolidated_id, &consolidated.benchmark.hll, &options)
                        }
                    };
                    let group: Vec<MachineConfig> =
                        machines.iter().filter(|m| m.isa == *isa).cloned().collect();
                    let results = tracer.span("uarch.batch", || {
                        MachineConfig::run_batch(&group, &art.image)
                    });
                    tracer.add("uarch.batch.lanes", group.len() as f64);
                    tracer.add(
                        "uarch.batch.insts",
                        results.first().map_or(0, |r| r.timing.instructions) as f64,
                    );
                }
            })
        });
    });
}
