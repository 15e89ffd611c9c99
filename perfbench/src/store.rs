//! A traced replica of the artifact store's lookup path.
//!
//! `bsg_runtime::ArtifactStore` builds, encodes and decodes inside one
//! call, so spans around that call cannot say whether a cold lookup spent
//! its time compiling, deriving the image, profiling or synthesizing.  The
//! traced replays therefore walk the same path themselves, through the
//! public functions of each layer, with a span at every boundary: memory
//! tier, then the real [`DiskCache`] (same kind names and file keys, so a
//! directory filled by the report binary serves this store too), then a
//! build whose encoded result is written back.  Untraced runs never use
//! this type for measurement; they run the real binaries.

use crate::trace::Tracer;
use bsg_compiler::{compile, CompileOptions};
use bsg_ir::codec::{from_canon_bytes, to_canon_bytes};
use bsg_ir::hll::HllProgram;
use bsg_ir::program::Program;
use bsg_profile::{profile_image, ProfileConfig, StatisticalProfile};
use bsg_runtime::{CompiledArtifact, DiskCache, SourceId};
use bsg_synth::{synthesize_with_target, SynthesisConfig, TargetedSynthesis};
use bsg_uarch::image::ExecImage;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// One memoization table: file key to a build-once slot.
struct Table<V> {
    slots: Mutex<HashMap<u128, Arc<OnceLock<Arc<V>>>>>,
}

impl<V> Table<V> {
    fn new() -> Self {
        Table {
            slots: Mutex::new(HashMap::new()),
        }
    }

    fn slot(&self, key: SourceId) -> Arc<OnceLock<Arc<V>>> {
        self.slots
            .lock()
            .expect("store table poisoned by a panicking build")
            .entry(key.as_u128())
            .or_default()
            .clone()
    }
}

/// Memory tier plus optional disk tier, recording spans on `tracer`.
pub struct TracedStore<'t> {
    tracer: &'t Tracer,
    disk: Option<DiskCache>,
    compiled: Table<CompiledArtifact>,
    profiles: Table<StatisticalProfile>,
    c_texts: Table<String>,
    syntheses: Table<TargetedSynthesis>,
}

impl<'t> TracedStore<'t> {
    /// A store over `disk` (memory-only when `None`).
    pub fn new(tracer: &'t Tracer, disk: Option<DiskCache>) -> Self {
        TracedStore {
            tracer,
            disk,
            compiled: Table::new(),
            profiles: Table::new(),
            c_texts: Table::new(),
            syntheses: Table::new(),
        }
    }

    /// Memory tier, then disk tier, then `build` (written back to disk).
    /// Counts requests, builds, disk hits and writes, and bytes moved, on
    /// the tracer.
    fn fetch<V>(
        &self,
        table: &Table<V>,
        kind: &'static str,
        key: SourceId,
        decode: impl FnOnce(&[u8]) -> Option<V>,
        encode: impl FnOnce(&V) -> Vec<u8>,
        build: impl FnOnce() -> V,
    ) -> Arc<V> {
        let t = self.tracer;
        t.add("runtime.store.requests", 1.0);
        t.span("runtime.store", || {
            table
                .slot(key)
                .get_or_init(|| {
                    if let Some(disk) = &self.disk {
                        let loaded = t.span("runtime.disk", || disk.load(kind, key.as_u128()));
                        if let Some(bytes) = loaded {
                            t.add("runtime.disk.hits", 1.0);
                            t.add("runtime.disk.bytes_read", bytes.len() as f64);
                            if let Some(value) = decode(&bytes) {
                                return Arc::new(value);
                            }
                        }
                    }
                    t.add("runtime.store.builds", 1.0);
                    let value = build();
                    if let Some(disk) = &self.disk {
                        let bytes = encode(&value);
                        t.add("runtime.disk.writes", 1.0);
                        t.add("runtime.disk.bytes_written", bytes.len() as f64);
                        t.span("runtime.disk", || disk.store(kind, key.as_u128(), &bytes));
                    }
                    Arc::new(value)
                })
                .clone()
        })
    }

    fn image(&self, program: &Program) -> ExecImage {
        self.tracer.span("uarch.image", || ExecImage::new(program))
    }

    /// `ArtifactStore::compiled_keyed`: `source` must be `SourceId::of(hll)`.
    pub fn compiled(
        &self,
        source: SourceId,
        hll: &HllProgram,
        options: &CompileOptions,
    ) -> Arc<CompiledArtifact> {
        let artifact = |program: Program, image: ExecImage| CompiledArtifact {
            source,
            options: *options,
            program,
            image,
        };
        self.fetch(
            &self.compiled,
            "compiled",
            SourceId::of(&(source, *options)),
            |bytes| {
                let program: Program = from_canon_bytes(bytes)?;
                let image = self.image(&program);
                Some(artifact(program, image))
            },
            |a| to_canon_bytes(&a.program),
            || {
                let program = self
                    .tracer
                    .span("compiler", || compile(hll, options))
                    .unwrap_or_else(|e| panic!("compile failed: {e}"))
                    .program;
                let image = self.image(&program);
                artifact(program, image)
            },
        )
    }

    /// `ArtifactStore::profile`.
    pub fn profile(
        &self,
        hll: &HllProgram,
        options: &CompileOptions,
        name: &str,
        config: &ProfileConfig,
    ) -> Arc<StatisticalProfile> {
        let source = SourceId::of(hll);
        self.fetch(
            &self.profiles,
            "profile",
            SourceId::of(&((source, *options), (name, SourceId::of(config)))),
            from_canon_bytes::<StatisticalProfile>,
            to_canon_bytes,
            || {
                let a = self.compiled(source, hll, options);
                let profile = self.tracer.span("profile", || {
                    profile_image(&a.program, &a.image, name, config)
                });
                self.tracer
                    .add("profile.insts", profile.dynamic_instructions as f64);
                profile
            },
        )
    }

    /// `ArtifactStore::c_text`.
    pub fn c_text(&self, hll: &HllProgram) -> Arc<String> {
        self.fetch(
            &self.c_texts,
            "c-text",
            SourceId::of(hll),
            from_canon_bytes::<String>,
            to_canon_bytes,
            || self.tracer.span("ir.cemit", || bsg_ir::cemit::emit_c(hll)),
        )
    }

    /// `ArtifactStore::synthesis`.
    pub fn synthesis(
        &self,
        profile: &StatisticalProfile,
        base: &SynthesisConfig,
        target_instructions: u64,
    ) -> Arc<TargetedSynthesis> {
        let key = (
            SourceId::of(profile),
            SourceId::of(base),
            target_instructions,
        );
        self.fetch(
            &self.syntheses,
            "synthesis",
            SourceId::of(&key),
            from_canon_bytes::<TargetedSynthesis>,
            to_canon_bytes,
            || {
                self.tracer.span("core", || {
                    synthesize_with_target(profile, base, target_instructions)
                })
            },
        )
    }
}
