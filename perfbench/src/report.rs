//! The report workloads: `report_warm` and `report_cold`.
//!
//! Every measured report is a fresh process (this binary re-executed with
//! `--child report`) rendering `bsg_bench::try_render_report` at
//! `--workers 2` with its own `BSG_ARTIFACT_DIR`.  `report_warm` points it
//! at a directory a set-up render filled; `report_cold` gives every render
//! an empty one.  Each report must equal the reference stored beside this
//! benchmark, byte for byte.

use crate::metrics::Outcome;
use crate::replay::replay_report;
use crate::stats::median;
use crate::store::TracedStore;
use crate::sys;
use crate::trace::Tracer;
use crate::Work;
use bsg_runtime::DiskCache;
use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

/// The `all_experiments` report at the commit that defined this benchmark.
pub const REFERENCE: &str = include_str!("../reference/all_experiments.txt");

/// Scheduler width of every report process.
const REPORT_WORKERS: &str = "2";

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Fewest measured reports per run, whatever `--seconds` says.
const MIN_REPORTS: usize = 3;

/// Prefix of the resource line a report child prints to stderr.
const CHILD_LINE: &str = "perfbench-child";

/// Which report workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Temperature {
    /// Artifact directory filled during set-up.
    Warm,
    /// Empty artifact directory for every report.
    Cold,
}

/// `--child report`: render the report like the `all_experiments` binary,
/// then print this process's peak RSS and CPU time on stderr.
pub fn child_main() -> ExitCode {
    bsg_bench::apply_workers_arg(&["--workers".to_string(), REPORT_WORKERS.to_string()]);
    let (report, faults) = bsg_bench::try_render_report();
    print!("{report}");
    for fault in &faults {
        eprintln!("[bsg-bench] {fault}");
    }
    eprintln!(
        "{CHILD_LINE} peak_rss_mb={} cpu_s={}",
        sys::peak_rss_mb("self").unwrap_or(0.0),
        sys::cpu_seconds("self").unwrap_or(0.0)
    );
    if faults.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One report process, as the parent saw it.
struct Rendered {
    wall_s: f64,
    cpu_s: f64,
    peak_rss_mb: f64,
}

/// Checks a rendered report against the reference: `Err` names the first
/// differing line.
pub fn check_report(rendered: &str, reference: &str) -> Result<(), String> {
    if rendered == reference {
        return Ok(());
    }
    let line = rendered
        .lines()
        .zip(reference.lines())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| rendered.lines().count().min(reference.lines().count()));
    Err(format!(
        "report differs from the reference at line {} ({} vs {} bytes)",
        line + 1,
        rendered.len(),
        reference.len()
    ))
}

/// Runs one report child against `artifact_dir` and checks its output
/// against [`REFERENCE`].
fn render(artifact_dir: &Path, outcome: &mut Outcome) -> Option<Rendered> {
    let exe = std::env::current_exe().expect("own executable path");
    let start = Instant::now();
    let output = Command::new(exe)
        .args(["--child", "report"])
        .env("BSG_ARTIFACT_DIR", artifact_dir)
        .output();
    let wall_s = start.elapsed().as_secs_f64();
    let output = match output {
        Ok(o) => o,
        Err(e) => {
            outcome.check(Err(format!("spawning the report process: {e}")));
            return None;
        }
    };
    let stderr = String::from_utf8_lossy(&output.stderr);
    let stdout = String::from_utf8_lossy(&output.stdout);
    let result = if output.status.success() {
        check_report(&stdout, REFERENCE)
    } else {
        Err(format!(
            "report process failed ({}): {stderr}",
            output.status
        ))
    };
    let ok = result.is_ok();
    outcome.check(result);
    let line = stderr.lines().rev().find(|l| l.starts_with(CHILD_LINE))?;
    let field = |key: &str| -> Option<f64> {
        line.split_whitespace()
            .find_map(|kv| kv.strip_prefix(key))?
            .parse()
            .ok()
    };
    ok.then_some(Rendered {
        wall_s,
        cpu_s: field("cpu_s=")?,
        peak_rss_mb: field("peak_rss_mb=")?,
    })
}

/// Untraced run: set-up, then reports for `seconds`, medians out.
pub fn run(temp: Temperature, seconds: u64, work: &Work) -> Outcome {
    let mut outcome = Outcome::default();
    let mut setup = Vec::new();
    // Warm: each set-up fills a directory; the first one serves the run.
    // Cold: each set-up is one untimed warm-up render into an empty
    // directory, so the binary and file-system metadata are hot before
    // timing and both workloads pay the same set-up.
    for k in 0..SETUP_REPS {
        let dir = work.dir(&format!("setup-{k}"));
        let start = Instant::now();
        render(&dir, &mut outcome);
        setup.push(start.elapsed().as_secs_f64());
        if temp == Temperature::Cold || k > 0 {
            work.remove(&dir);
        }
    }
    let warm_dir = work.dir("setup-0");

    let mut samples: Vec<Rendered> = Vec::new();
    let window = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed() < window || samples.len() < MIN_REPORTS {
        let dir = match temp {
            Temperature::Warm => warm_dir.clone(),
            Temperature::Cold => work.dir(&format!("cold-{i}")),
        };
        if let Some(r) = render(&dir, &mut outcome) {
            samples.push(r);
        }
        if temp == Temperature::Cold {
            work.remove(&dir);
        }
        i += 1;
        if i >= 4 * MIN_REPORTS && samples.is_empty() {
            break; // every report fails: stop, the failures are counted
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    outcome.values.insert("setup_s", median(&setup));
    if !samples.is_empty() {
        let walls: Vec<f64> = samples.iter().map(|r| r.wall_s).collect();
        let cpus: Vec<f64> = samples.iter().map(|r| r.cpu_s).collect();
        let rss: Vec<f64> = samples.iter().map(|r| r.peak_rss_mb).collect();
        outcome.values.insert("op_p50_ms", median(&walls) * 1e3);
        outcome
            .values
            .insert("op_per_s", samples.len() as f64 / elapsed);
        outcome.values.insert("op_cpu_ms", median(&cpus) * 1e3);
        outcome.values.insert("peak_rss_mb", median(&rss));
    }
    outcome.notes.push(format!(
        "{} measured reports in {elapsed:.1} s, {} set-ups",
        samples.len(),
        setup.len()
    ));
    outcome
}

/// Untraced reports timed for `trace.overhead_s`.
const TRACE_BASELINE_REPORTS: usize = 3;

/// Traced run: median wall of a few untraced reports, then the in-process
/// replay with spans, from the same cache state.
pub fn run_traced(temp: Temperature, work: &Work) -> Outcome {
    let mut outcome = Outcome::default();
    let fill = work.dir("fill");
    if temp == Temperature::Warm {
        render(&fill, &mut outcome);
    }
    let mut walls = Vec::new();
    for k in 0..TRACE_BASELINE_REPORTS {
        let dir = match temp {
            Temperature::Warm => fill.clone(),
            Temperature::Cold => work.dir(&format!("baseline-{k}")),
        };
        if let Some(r) = render(&dir, &mut outcome) {
            walls.push(r.wall_s);
        }
    }
    let replay_dir = match temp {
        Temperature::Warm => fill,
        Temperature::Cold => work.dir("replay"),
    };
    let tracer = Tracer::on();
    let store = TracedStore::new(&tracer, Some(DiskCache::with_cap(replay_dir, None)));
    let from = tracer.now();
    replay_report(&tracer, &store);
    let to = tracer.now();
    let wall = to - from;

    let v = &mut outcome.values;
    v.insert("trace.wall_s", wall);
    v.insert(
        "trace.coverage",
        tracer.coverage(from, to, crate::metrics::is_layer),
    );
    if !walls.is_empty() {
        v.insert("trace.overhead_s", wall - median(&walls));
    }
    outcome.fill_layers(&tracer);
    // A warm replay must find every artifact on disk: a build here means
    // the replay's store keys drifted from the real store's.
    let builds = tracer.counter("runtime.store.builds");
    outcome.check(if temp == Temperature::Warm && builds > 0.0 {
        Err(format!("warm replay rebuilt {builds} artifacts"))
    } else {
        Ok(())
    });
    work.write_trace(&tracer, &mut outcome);
    outcome
}
