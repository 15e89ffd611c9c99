//! # bsg-perfbench — end-to-end and per-layer benchmark
//!
//! Three workloads cover the two ways the reproduction is used: the
//! `all_experiments` report with a warm artifact directory
//! (`report_warm`) and an empty one (`report_cold`), and the `bsg-server`
//! daemon under mixed profile/synthesize/measure traffic (`serve_mixed`).
//! Untraced runs measure end-to-end metrics on the real entry points and
//! check every output; traced runs replay the same work in-process with a
//! span around every call into a layer.  `README.md` records why each
//! workload was chosen and what each metric should move.

#![forbid(unsafe_code)]

pub mod metrics;
pub mod replay;
pub mod report;
pub mod serve;
pub mod stats;
pub mod store;
pub mod sys;
pub mod trace;

use metrics::Outcome;
use std::path::{Path, PathBuf};
use trace::Tracer;

/// Directory, relative to the working directory, that holds every file a
/// run writes: artifact directories (removed when the run ends) and span
/// traces (kept).
pub const WORK_ROOT: &str = ".bench_work";

/// One run's scratch space under [`WORK_ROOT`].
pub struct Work {
    root: PathBuf,
    trace_file: PathBuf,
}

impl Work {
    /// Scratch space for one run of `workload` with `seed`.
    pub fn new(workload: &str, seed: u64) -> std::io::Result<Work> {
        let base = std::env::current_dir()?.join(WORK_ROOT);
        let root = base.join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&root)?;
        Ok(Work {
            root,
            trace_file: base
                .join("traces")
                .join(format!("{workload}-seed{seed}.jsonl")),
        })
    }

    /// A directory named `name` inside this run's scratch space.
    pub fn dir(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    /// Removes `dir` and everything in it (best effort: it is scratch).
    pub fn remove(&self, dir: &Path) {
        let _ = std::fs::remove_dir_all(dir);
    }

    /// Writes the tracer's spans and notes where.
    pub fn write_trace(&self, tracer: &Tracer, outcome: &mut Outcome) {
        let written = self
            .trace_file
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| tracer.write_jsonl(&self.trace_file));
        outcome.notes.push(match written {
            Ok(()) => format!("spans written to {}", self.trace_file.display()),
            Err(e) => format!("spans not written to {}: {e}", self.trace_file.display()),
        });
    }
}

impl Drop for Work {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}
