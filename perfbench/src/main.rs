//! Command line of the benchmark.
//!
//! ```text
//! bsg-perfbench [--workload report_warm|report_cold|serve_mixed|all]
//!               [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints each metric as `name value unit`, then one JSON line with the
//! keys `correct`, `attempted`, `failed` and `metrics`.  Exits non-zero
//! when any output was wrong or any operation failed.  `--child report`
//! and `--child daemon` are the processes the benchmark starts itself.

#![forbid(unsafe_code)]

use bsg_perfbench::metrics::{Outcome, END_TO_END, PER_LAYER};
use bsg_perfbench::report::{self, Temperature};
use bsg_perfbench::{serve, Work};
use std::process::ExitCode;

/// Workload names, in the order `all` runs them.
const WORKLOADS: [&str; 3] = ["report_warm", "report_cold", "serve_mixed"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: "all".to_string(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = value()?.clone(),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if parsed.workload != "all" && !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?} (want one of {WORKLOADS:?} or all)",
            parsed.workload
        ));
    }
    Ok(parsed)
}

fn run_one(workload: &str, args: &Args) -> Outcome {
    let work = match Work::new(workload, args.seed) {
        Ok(w) => w,
        Err(e) => {
            let mut o = Outcome::default();
            o.check(Err(format!("creating the work directory: {e}")));
            return o;
        }
    };
    match (workload, args.trace) {
        ("report_warm", false) => report::run(Temperature::Warm, args.seconds, &work),
        ("report_cold", false) => report::run(Temperature::Cold, args.seconds, &work),
        ("report_warm", true) => report::run_traced(Temperature::Warm, &work),
        ("report_cold", true) => report::run_traced(Temperature::Cold, &work),
        ("serve_mixed", false) => serve::run(args.seed, args.seconds, &work),
        ("serve_mixed", true) => serve::run_traced(args.seed, args.seconds, &work),
        _ => unreachable!("workload names are validated by parse"),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [flag, role] if flag == "--child" && role == "report" => return report::child_main(),
        [flag, role] if flag == "--child" && role == "daemon" => return serve::daemon_main(),
        _ => {}
    }
    let args = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bsg-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The in-process work (input generation, verification, replays) runs
    // at the same scheduler width as the programs under test, and never
    // through the process-wide artifact store: every store this process
    // and its children use names its directory explicitly.
    bsg_runtime::install_global_workers(2);
    std::env::set_var("BSG_ARTIFACT_DIR", "off");
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let workloads: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut all_ok = true;
    let mut combined = Outcome::default();
    for workload in &workloads {
        let outcome = run_one(workload, &args);
        all_ok &= outcome.failed == 0;
        if workloads.len() > 1 {
            println!("## {workload}");
            print!("{}", outcome.render(table));
            combined.attempted += outcome.attempted;
            combined.failed += outcome.failed;
        } else {
            print!("{}", outcome.render(table));
        }
    }
    if workloads.len() > 1 {
        println!("## all");
        print!("{}", combined.render(&[]));
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
