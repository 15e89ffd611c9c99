//! The `serve_mixed` workload: a `bsg-server` daemon under mixed traffic.
//!
//! The daemon is this binary re-executed with `--child daemon`: the same
//! `bsg_server::Server` the `bsg-server` binary runs, at `--workers 2`, on
//! loopback TCP, with its own `BSG_ARTIFACT_DIR`.  Two closed-loop client
//! connections (`bsg_server::Client`) each wait for a reply before sending
//! the next request.  The seeded stream is ~60% `Measure`, ~30% `Profile`
//! and ~10% `Synthesize` over the 18 small-input registry kernels ×
//! `OptLevel::ALL` × `TargetIsa::ALL`.  About 80% of requests reuse the key
//! pool built during set-up (hits); about 20% carry a fresh key (builds),
//! so the hit share is stationary over a run.

use crate::metrics::Outcome;
use crate::stats::{median, tail_percentile};
use crate::store::TracedStore;
use crate::sys;
use crate::trace::Tracer;
use crate::Work;
use bsg_bench::SYNTH_TARGET_INSTRUCTIONS;
use bsg_compiler::{CompileOptions, OptLevel, TargetIsa};
use bsg_ir::codec::from_canon_bytes;
use bsg_ir::hll::{HllGlobal, HllProgram};
use bsg_profile::{ProfileConfig, StatisticalProfile};
use bsg_runtime::{DiskCache, Runtime, SourceId};
use bsg_server::proto::ok_frame;
use bsg_server::{read_frame, write_frame, Client, Frame, Request, Response, Server, ServerConfig};
use bsg_synth::SynthesisConfig;
use bsg_uarch::exec::{execute_image, ExecConfig, NullObserver};
use bsg_workloads::{suite, InputSize, Workload};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write as _};
use std::path::Path;
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Closed-loop client connections.
const CLIENTS: usize = 2;

/// Scheduler width of the daemon.
const DAEMON_WORKERS: &str = "2";

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Percent of requests that carry a fresh (never seen) key.
const FRESH_PERCENT: u64 = 20;

/// Fresh `Synthesize` keys draw `SynthesisConfig::seed` from here up, far
/// from the default seed the pool uses.
const FRESH_SYNTH_SEED_BASE: u64 = 1 << 40;

/// Longest wait for the daemon to exit after an in-band shutdown.
const SHUTDOWN_WAIT: Duration = Duration::from_secs(30);

/// Request kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    /// Compile and run with the null observer.
    Measure,
    /// Compile and profile.
    Profile,
    /// Synthesize a clone from a profile.
    Synthesize,
}

/// One generated request, before it is built.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Op {
    /// Request kind.
    pub kind: Kind,
    /// Index into the small-input suite.
    pub kernel: usize,
    /// Index into `OptLevel::ALL` (0 for `Synthesize`).
    pub level: usize,
    /// Index into `TargetIsa::ALL` (0 for `Synthesize`).
    pub isa: usize,
    /// Unique salt of a fresh key; `None` for a pool key.
    pub fresh: Option<u64>,
}

/// SplitMix64: a small, well-mixed deterministic generator.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The `index`-th request of the stream for `seed`, over `kernels`
/// kernels.  A pure function of its arguments, so any client may generate
/// any request and a replay regenerates the same stream.
pub fn op_at(seed: u64, index: u64, kernels: usize) -> Op {
    let mut rng = SplitMix64(seed ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03));
    let kind = match rng.next() % 100 {
        0..=59 => Kind::Measure,
        60..=89 => Kind::Profile,
        _ => Kind::Synthesize,
    };
    let fresh = (rng.next() % 100 < FRESH_PERCENT).then_some(index);
    let kernel = rng.below(kernels);
    let (level, isa) = match kind {
        Kind::Synthesize => (0, 0),
        _ => (
            rng.below(OptLevel::ALL.len()),
            rng.below(TargetIsa::ALL.len()),
        ),
    };
    Op {
        kind,
        kernel,
        level,
        isa,
        fresh,
    }
}

/// `program` plus one unused global named after `salt`: a new source
/// (new store keys) that computes exactly what the original does.
pub fn salted(program: &HllProgram, salt: u64) -> HllProgram {
    let mut p = program.clone();
    p.add_global(HllGlobal::zeroed(format!("perfbench_salt_{salt}"), 1));
    p
}

/// Everything requests are built from: the suite and, for `Synthesize`,
/// each kernel's `-O0` profile (computed here, in-process).
pub struct Inputs {
    kernels: Vec<Workload>,
    profiles: Vec<Arc<StatisticalProfile>>,
}

impl Inputs {
    /// Builds the suite and profiles it.
    pub fn new() -> Self {
        let kernels = suite(InputSize::Small);
        let off = Tracer::off();
        let store = TracedStore::new(&off, None);
        let profiles = Runtime::global().map(kernels.clone(), |w| {
            store.profile(
                &w.program,
                &CompileOptions::portable(OptLevel::O0),
                &w.name,
                &ProfileConfig::default(),
            )
        });
        Inputs { kernels, profiles }
    }

    /// Number of kernels requests draw from.
    pub fn kernels(&self) -> usize {
        self.kernels.len()
    }

    /// The pool keys set-up builds: every (kernel, level, ISA) for
    /// `Measure` and `Profile`, and every kernel for `Synthesize`.
    pub fn pool(&self) -> Vec<Op> {
        let mut pool = Vec::new();
        for kind in [Kind::Measure, Kind::Profile] {
            for kernel in 0..self.kernels.len() {
                for level in 0..OptLevel::ALL.len() {
                    for isa in 0..TargetIsa::ALL.len() {
                        pool.push(Op {
                            kind,
                            kernel,
                            level,
                            isa,
                            fresh: None,
                        });
                    }
                }
            }
        }
        pool.extend((0..self.kernels.len()).map(|kernel| Op {
            kind: Kind::Synthesize,
            kernel,
            level: 0,
            isa: 0,
            fresh: None,
        }));
        pool
    }

    /// The wire request for `op`.
    pub fn request(&self, op: &Op) -> Request {
        let w = &self.kernels[op.kernel];
        let program = || match op.fresh {
            Some(salt) => salted(&w.program, salt),
            None => w.program.as_ref().clone(),
        };
        let options = CompileOptions::new(OptLevel::ALL[op.level], TargetIsa::ALL[op.isa]);
        match op.kind {
            Kind::Measure => Request::Measure {
                program: program(),
                options,
            },
            Kind::Profile => Request::Profile {
                program: program(),
                options,
                name: w.name.clone(),
                config: ProfileConfig::default(),
            },
            Kind::Synthesize => Request::Synthesize {
                profile: self.profiles[op.kernel].as_ref().clone(),
                config: SynthesisConfig {
                    seed: op.fresh.map_or(SynthesisConfig::default().seed, |salt| {
                        FRESH_SYNTH_SEED_BASE + salt
                    }),
                    ..SynthesisConfig::default()
                },
                target_instructions: SYNTH_TARGET_INSTRUCTIONS,
            },
        }
    }
}

impl Default for Inputs {
    fn default() -> Self {
        Self::new()
    }
}

/// Serves `request` in-process the way the daemon's handler does, with
/// the artifact lookups on `store`.
pub fn execute(store: &TracedStore, tracer: &Tracer, request: &Request) -> Response {
    match request {
        Request::Measure { program, options } => {
            let art = store.compiled(SourceId::of(program), program, options);
            let outcome = tracer.span("uarch.exec", || {
                execute_image(&art.image, &mut NullObserver, &ExecConfig::default())
            });
            tracer.add("uarch.exec.insts", outcome.dynamic_instructions as f64);
            Response::Measure {
                dynamic_instructions: outcome.dynamic_instructions,
            }
        }
        Request::Profile {
            program,
            options,
            name,
            config,
        } => Response::Profile(
            store
                .profile(program, options, name, config)
                .as_ref()
                .clone(),
        ),
        Request::Synthesize {
            profile,
            config,
            target_instructions,
        } => Response::Synthesis(
            store
                .synthesis(profile, config, *target_instructions)
                .as_ref()
                .clone(),
        ),
        other => panic!("the stream generates no {other:?} requests"),
    }
}

/// Content digest of a reply, for comparing served and recomputed results
/// without keeping whole profiles.
fn digest(response: &Response) -> u128 {
    SourceId::of(response).as_u128()
}

/// One request as a client saw it.
struct Sample {
    index: u64,
    op: Op,
    latency_ms: f64,
    /// Reply digest, or why the request failed.
    reply: Result<u128, String>,
}

/// `--child daemon`: serve on an OS-assigned loopback port until an
/// in-band shutdown drains the server, like the `bsg-server` binary.
pub fn daemon_main() -> ExitCode {
    bsg_runtime::apply_workers_flag(DAEMON_WORKERS);
    let handle = match Server::bind_tcp("127.0.0.1:0", ServerConfig::default()) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("perfbench daemon: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(addr) = handle.local_addr() else {
        eprintln!("perfbench daemon: no local address");
        return ExitCode::FAILURE;
    };
    println!("listening on tcp://{addr}");
    let _ = std::io::stdout().flush();
    while !handle.drain_requested() {
        std::thread::sleep(Duration::from_millis(20));
    }
    handle.stop();
    ExitCode::SUCCESS
}

/// A daemon child process.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn spawn(artifact_dir: &Path) -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
        let mut child = Command::new(exe)
            .args(["--child", "daemon"])
            .env("BSG_ARTIFACT_DIR", artifact_dir)
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning the daemon: {e}"))?;
        let mut line = String::new();
        let stdout = child.stdout.take().expect("piped stdout");
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("listening on tcp://")
            .map(str::to_string);
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Daemon { child, addr }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("daemon did not report its address: {line:?}"))
            }
        }
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    fn stats(&self) -> Result<bsg_server::ServerStats, String> {
        let mut client = Client::connect_tcp(&self.addr).map_err(|e| e.to_string())?;
        match client.call(&Request::Stats) {
            Ok(Ok(Response::Stats(s))) => Ok(s),
            other => Err(format!("stats request: {other:?}")),
        }
    }

    /// In-band `Request::Shutdown`, then the exit status must be 0.
    fn shutdown(mut self) -> Result<(), String> {
        let ack = Client::connect_tcp(&self.addr)
            .map_err(|e| e.to_string())
            .and_then(|mut c| c.call(&Request::Shutdown).map_err(|e| e.to_string()));
        let deadline = Instant::now() + SHUTDOWN_WAIT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => {
                    return match ack {
                        Ok(Ok(Response::Shutdown)) => Ok(()),
                        other => Err(format!("shutdown was not acknowledged: {other:?}")),
                    }
                }
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => return Err("daemon did not exit after shutdown".to_string()),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Reached with the child still running only on an error path.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Runs `step(state, 0)`, `step(state, 1)`, ... from [`CLIENTS`] threads,
/// each with its own `state` from `init`, until `step` returns `None`;
/// returns the results in index order.
fn on_clients<S, T: Send>(
    init: impl Fn() -> Result<S, String> + Sync,
    step: impl Fn(&mut S, u64) -> Option<T> + Sync,
) -> Result<Vec<T>, String> {
    let next = AtomicU64::new(0);
    let per_thread: Vec<Result<Vec<(u64, T)>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut state = init()?;
                    let mut out = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        match step(&mut state, index) {
                            Some(t) => out.push((index, t)),
                            None => return Ok(out),
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = Vec::new();
    for results in per_thread {
        all.extend(results?);
    }
    all.sort_by_key(|(index, _)| *index);
    Ok(all.into_iter().map(|(_, t)| t).collect())
}

/// Sends `next_op(0)`, `next_op(1)`, ... from [`CLIENTS`] closed-loop
/// connections until `next_op` returns `None` or `deadline` passes.
fn drive(
    addr: &str,
    inputs: &Inputs,
    next_op: &(dyn Fn(u64) -> Option<Op> + Sync),
    deadline: Option<Instant>,
) -> Result<Vec<Sample>, String> {
    on_clients(
        || Client::connect_tcp(addr).map_err(|e| e.to_string()),
        |client, index| {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return None;
            }
            let op = next_op(index)?;
            let request = inputs.request(&op);
            let start = Instant::now();
            let reply = client.call(&request);
            let latency_ms = start.elapsed().as_secs_f64() * 1e3;
            let reply = match reply {
                Ok(Ok(response)) => Ok(digest(&response)),
                Ok(Err(e)) => Err(format!("request {index} ({op:?}) failed: {e}")),
                Err(e) => Err(format!("request {index} ({op:?}) transport: {e}")),
            };
            Some(Sample {
                index,
                op,
                latency_ms,
                reply,
            })
        },
    )
}

/// Checks every served `Measure`/`Profile` reply against an in-process
/// recomputation of the same request (each distinct key computed once);
/// every failed request counts too.
fn verify(inputs: &Inputs, samples: &[Sample], outcome: &mut Outcome) {
    let mut keys: Vec<Op> = samples
        .iter()
        .filter(|s| s.reply.is_ok() && s.op.kind != Kind::Synthesize)
        .map(|s| s.op)
        .collect();
    keys.sort();
    keys.dedup();
    let off = Tracer::off();
    let pool_store = TracedStore::new(&off, None);
    let expected: HashMap<Op, u128> = keys
        .iter()
        .copied()
        .zip(Runtime::global().map(keys.clone(), |op| {
            // A fresh key is never asked for again: build it in a store
            // dropped right after, so memory stays bounded by the pool.
            let fresh_store;
            let store = match op.fresh {
                Some(_) => {
                    fresh_store = TracedStore::new(&off, None);
                    &fresh_store
                }
                None => &pool_store,
            };
            digest(&execute(store, &off, &inputs.request(&op)))
        }))
        .collect();
    for s in samples {
        outcome.check(match (&s.reply, expected.get(&s.op)) {
            (Err(e), _) => Err(e.clone()),
            (Ok(got), Some(want)) if got != want => Err(format!(
                "request {} ({:?}) reply differs from the in-process result",
                s.index, s.op
            )),
            _ => Ok(()),
        });
    }
}

/// Starts a daemon on a fresh directory and builds the key pool through it.
fn set_up(inputs: &Inputs, pool: &[Op], dir: &Path) -> Result<(Daemon, Vec<Sample>), String> {
    let daemon = Daemon::spawn(dir)?;
    let warm = drive(
        &daemon.addr,
        inputs,
        &|i| pool.get(i as usize).copied(),
        None,
    )?;
    Ok((daemon, warm))
}

/// Untraced run: set-up (median of several), then `seconds` of traffic.
pub fn run(seed: u64, seconds: u64, work: &Work) -> Outcome {
    let mut outcome = Outcome::default();
    if let Err(e) = run_into(seed, seconds, work, &mut outcome) {
        outcome.check(Err(e));
    }
    outcome
}

fn run_into(seed: u64, seconds: u64, work: &Work, outcome: &mut Outcome) -> Result<(), String> {
    let inputs = Inputs::new();
    let pool = inputs.pool();
    let mut setup = Vec::new();
    let mut checked = Vec::new();
    let mut daemon: Option<Daemon> = None;
    for k in 0..SETUP_REPS {
        if let Some(d) = daemon.take() {
            outcome.check(d.shutdown());
            work.remove(&work.dir(&format!("daemon-{}", k - 1)));
        }
        let start = Instant::now();
        let (d, warm) = set_up(&inputs, &pool, &work.dir(&format!("daemon-{k}")))?;
        setup.push(start.elapsed().as_secs_f64());
        checked.extend(warm);
        daemon = Some(d);
    }
    let daemon = daemon.expect("at least one set-up");
    outcome.values.insert("setup_s", median(&setup));

    let pid = daemon.pid();
    let cpu_before = sys::cpu_seconds(&pid).ok_or("daemon CPU time unreadable")?;
    let start = Instant::now();
    let kernels = inputs.kernels();
    let window = drive(
        &daemon.addr,
        &inputs,
        &|i| Some(op_at(seed, i, kernels)),
        Some(start + Duration::from_secs(seconds)),
    )?;
    let elapsed = start.elapsed().as_secs_f64();
    let cpu = sys::cpu_seconds(&pid).ok_or("daemon CPU time unreadable")? - cpu_before;
    let rss = sys::peak_rss_mb(&pid).ok_or("daemon VmHWM unreadable")?;
    outcome.check(daemon.shutdown());

    let completed = window.iter().filter(|s| s.reply.is_ok()).count();
    let latencies: Vec<f64> = window.iter().map(|s| s.latency_ms).collect();
    if !latencies.is_empty() {
        outcome.values.insert("op_p50_ms", median(&latencies));
    }
    outcome
        .values
        .insert("op_per_s", completed as f64 / elapsed);
    outcome
        .values
        .insert("op_cpu_ms", cpu * 1e3 / completed.max(1) as f64);
    outcome.values.insert("peak_rss_mb", rss);
    let fresh = window.iter().filter(|s| s.op.fresh.is_some()).count();
    outcome.notes.push(format!(
        "{} requests in {elapsed:.1} s ({:.1}% fresh keys), {} set-ups of {} pool keys",
        window.len(),
        100.0 * fresh as f64 / window.len().max(1) as f64,
        setup.len(),
        pool.len()
    ));
    checked.extend(window);
    verify(&inputs, &checked, outcome);
    Ok(())
}

/// The request's frame as it crosses the wire.
fn frame_bytes(frame: &Frame) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_frame(&mut bytes, frame).expect("writing to memory cannot fail");
    bytes
}

/// One request through the server's path, in-process: encode, decode,
/// serve, encode the reply, decode it.  All spans share the request's
/// root span.
fn replay_request(tracer: &Tracer, store: &TracedStore, index: u64, request: &Request) -> Response {
    tracer.span("serve.request", || {
        let wire = tracer.span("server.proto.encode", || {
            frame_bytes(&Frame {
                request_id: index,
                kind: request.kind(),
                payload: request.payload(),
            })
        });
        let decoded = tracer
            .span("server.proto.decode", || {
                let f = read_frame(&mut wire.as_slice()).ok()??;
                Request::decode(f.kind, &f.payload)
            })
            .expect("a replayed request decodes");
        let response = execute(store, tracer, &decoded);
        let reply = tracer.span("server.proto.encode", || {
            frame_bytes(&ok_frame(index, &response))
        });
        tracer.add("server.proto.bytes", (wire.len() + reply.len()) as f64);
        tracer
            .span("server.proto.decode", || {
                let f = read_frame(&mut reply.as_slice()).ok()??;
                from_canon_bytes::<Response>(&f.payload)
            })
            .expect("a replayed reply decodes")
    })
}

/// Replays `ops` from [`CLIENTS`] threads, returning reply digests by
/// position.
fn replay_ops(tracer: &Tracer, store: &TracedStore, inputs: &Inputs, ops: &[Op]) -> Vec<u128> {
    on_clients(
        || Ok(()),
        |(), index| {
            let op = ops.get(index as usize)?;
            let response = replay_request(tracer, store, index, &inputs.request(op));
            Some(digest(&response))
        },
    )
    .expect("replay threads have no set-up to fail")
}

/// Traced run: the same traffic over the wire (untraced, for latencies and
/// the daemon's counters), then replayed in-process with spans.
pub fn run_traced(seed: u64, seconds: u64, work: &Work) -> Outcome {
    let mut outcome = Outcome::default();
    if let Err(e) = traced_into(seed, seconds, work, &mut outcome) {
        outcome.check(Err(e));
    }
    outcome
}

fn traced_into(seed: u64, seconds: u64, work: &Work, outcome: &mut Outcome) -> Result<(), String> {
    let inputs = Inputs::new();
    let pool = inputs.pool();
    let (daemon, _) = set_up(&inputs, &pool, &work.dir("daemon"))?;
    let kernels = inputs.kernels();
    let start = Instant::now();
    let window = drive(
        &daemon.addr,
        &inputs,
        &|i| Some(op_at(seed, i, kernels)),
        Some(start + Duration::from_secs(seconds)),
    )?;
    let wire_wall = start.elapsed().as_secs_f64();
    let stats = daemon.stats()?;
    outcome.check(daemon.shutdown());

    let v = &mut outcome.values;
    v.insert("server.batches", stats.batches as f64);
    v.insert("server.max_queue_depth", stats.max_queue_depth as f64);
    v.insert("server.shed", stats.shed_count as f64);
    v.insert("serve.requests", window.len() as f64);
    let latencies = |kind: Option<Kind>| -> Vec<f64> {
        window
            .iter()
            .filter(|s| kind.is_none_or(|k| s.op.kind == k))
            .map(|s| s.latency_ms)
            .collect()
    };
    match tail_percentile(&latencies(None), 99.0) {
        Some(p99) => {
            v.insert("serve.req_p99_ms", p99);
        }
        None => outcome.notes.push(format!(
            "too few requests ({}) for a p99 with 10 samples beyond it",
            window.len()
        )),
    }
    for (name, kind) in [
        ("serve.measure_p50_ms", Kind::Measure),
        ("serve.profile_p50_ms", Kind::Profile),
        ("serve.synthesize_p50_ms", Kind::Synthesize),
    ] {
        let l = latencies(Some(kind));
        if !l.is_empty() {
            outcome.values.insert(name, median(&l));
        }
    }

    // The replay starts from the state set-up leaves: the pool built, on a
    // fresh disk tier.  Only the window's requests are traced.
    let tracer = Tracer::off();
    let store = TracedStore::new(&tracer, Some(DiskCache::with_cap(work.dir("replay"), None)));
    replay_ops(&tracer, &store, &inputs, &pool);
    let ops: Vec<Op> = window.iter().map(|s| s.op).collect();
    tracer.set_enabled(true);
    let from = tracer.now();
    let replayed = replay_ops(&tracer, &store, &inputs, &ops);
    let to = tracer.now();
    tracer.set_enabled(false);
    for (s, replayed) in window.iter().zip(&replayed) {
        outcome.check(match &s.reply {
            Err(e) => Err(e.clone()),
            Ok(got) if got != replayed => Err(format!(
                "request {} ({:?}) reply differs from the in-process replay",
                s.index, s.op
            )),
            Ok(_) => Ok(()),
        });
    }
    let v = &mut outcome.values;
    v.insert("trace.wall_s", to - from);
    v.insert(
        "trace.coverage",
        tracer.coverage(from, to, crate::metrics::is_layer),
    );
    v.insert("trace.overhead_s", (to - from) - wire_wall);
    outcome.fill_layers(&tracer);
    work.write_trace(&tracer, outcome);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_stream_is_a_function_of_the_seed() {
        let stream = |seed| (0..2000).map(|i| op_at(seed, i, 18)).collect::<Vec<_>>();
        assert_eq!(stream(7), stream(7));
        assert_ne!(stream(7), stream(8));
    }

    #[test]
    fn the_stream_has_the_documented_mix() {
        let n = 20_000;
        let ops: Vec<Op> = (0..n).map(|i| op_at(1, i, 18)).collect();
        let share = |f: &dyn Fn(&Op) -> bool| ops.iter().filter(|o| f(o)).count() as f64 / n as f64;
        assert!((share(&|o| o.kind == Kind::Measure) - 0.6).abs() < 0.02);
        assert!((share(&|o| o.kind == Kind::Profile) - 0.3).abs() < 0.02);
        assert!((share(&|o| o.kind == Kind::Synthesize) - 0.1).abs() < 0.02);
        assert!((share(&|o| o.fresh.is_some()) - 0.2).abs() < 0.02);
        // Fresh keys never repeat.
        let mut salts: Vec<u64> = ops.iter().filter_map(|o| o.fresh).collect();
        let len = salts.len();
        salts.dedup();
        assert_eq!(salts.len(), len);
    }

    #[test]
    fn a_salted_key_changes_the_source_id_but_not_the_measure_result() {
        let w = &suite(InputSize::Small)[3];
        let salted = salted(&w.program, 42);
        assert_ne!(SourceId::of(w.program.as_ref()), SourceId::of(&salted));
        let off = Tracer::off();
        let store = TracedStore::new(&off, None);
        let options = CompileOptions::new(OptLevel::O2, TargetIsa::X86_64);
        let measure = |program: &HllProgram| {
            execute(
                &store,
                &off,
                &Request::Measure {
                    program: program.clone(),
                    options,
                },
            )
        };
        assert_eq!(measure(&w.program), measure(&salted));
    }

    #[test]
    fn replayed_requests_round_trip_the_wire_encoding() {
        let inputs = Inputs::new();
        let off = Tracer::off();
        let store = TracedStore::new(&off, None);
        let op = op_at(3, 0, inputs.kernels());
        let direct = execute(&store, &off, &inputs.request(&op));
        let replayed = replay_request(&off, &store, 0, &inputs.request(&op));
        assert_eq!(direct, replayed);
    }
}
