//! # bsg-workloads — MiBench-like embedded workloads
//!
//! The paper evaluates benchmark synthesis on the MiBench embedded suite
//! (adpcm, basicmath, bitcount, crc32, dijkstra, fft, gsm, jpeg, patricia,
//! qsort, sha, stringsearch, susan) with small and large inputs.  MiBench is
//! C source plus binary input files; neither is usable directly against this
//! workspace's virtual ISA, so this crate re-implements each kernel against
//! the HLL builder API with deterministic, synthetic small/large inputs.
//! The kernels are faithful to the *computational character* of their MiBench
//! namesakes (instruction mix, loop structure, memory behaviour, branch
//! behaviour), which is what the paper's experiments depend on; they are not
//! bit-exact ports (see DESIGN.md for the substitution rationale).
//!
//! # Example
//!
//! ```
//! use bsg_workloads::{suite, InputSize};
//! let workloads = suite(InputSize::Small);
//! assert!(workloads.iter().any(|w| w.name.starts_with("crc32")));
//! let program = &workloads[0].program;
//! assert!(program.function(&program.entry).is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algo;
pub mod crypto;
pub mod fibonacci;
pub mod math;
pub mod media;
pub mod registry;
pub mod spec;

pub use registry::{SuiteOrigin, WorkloadRegistry, WorkloadSpec};

use bsg_ir::hll::HllProgram;
use std::fmt;
use std::sync::Arc;

/// Input size, mirroring MiBench's small/large data sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InputSize {
    /// Small input (quick profiling runs, unit tests).
    Small,
    /// Large input (the sizes used by the experiment harness).
    Large,
}

impl InputSize {
    /// Both input sizes.
    pub const ALL: [InputSize; 2] = [InputSize::Small, InputSize::Large];

    /// Scales a base iteration count for this input size.
    pub fn scale(self, small: i64, large: i64) -> i64 {
        match self {
            InputSize::Small => small,
            InputSize::Large => large,
        }
    }
}

impl fmt::Display for InputSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InputSize::Small => write!(f, "small"),
            InputSize::Large => write!(f, "large"),
        }
    }
}

/// A workload: a named HLL program ready to be compiled and profiled.
///
/// The program is shared behind an `Arc`: suite workloads are built once per
/// process by the [`WorkloadRegistry`] and cloned out cheaply, so sweeps can
/// pass `Workload`s by value without regenerating kernels.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Workload name, `"<kernel>/<input>"` as in the paper's figures.
    pub name: String,
    /// Kernel name without the input suffix.
    pub kernel: String,
    /// Behavioural category from the registry (media, spec-fp, ...).
    pub category: &'static str,
    /// Input size the program was generated for.
    pub input: InputSize,
    /// The program (shared; deref to `&HllProgram` at use sites).
    pub program: Arc<HllProgram>,
}

impl Workload {
    fn new(kernel: &str, category: &'static str, input: InputSize, program: HllProgram) -> Self {
        Workload {
            name: format!("{kernel}/{input}"),
            kernel: kernel.to_string(),
            category,
            input,
            program: Arc::new(program),
        }
    }

    /// Builds the workload a registry spec describes for one input size.
    pub fn from_spec(spec: &WorkloadSpec, input: InputSize) -> Self {
        Workload::new(spec.kernel, spec.category, input, (spec.build)(input))
    }
}

/// The suite for one input size, in registry order (MiBench kernels first,
/// SPEC-like extensions after).  Served from the process-wide
/// [`WorkloadRegistry`], which builds each program exactly once; the
/// returned `Workload`s are cheap `Arc` clones.
pub fn suite(input: InputSize) -> Vec<Workload> {
    WorkloadRegistry::global().suite(input).to_vec()
}

/// Builds the full suite across both input sizes (small first).
pub fn full_suite() -> Vec<Workload> {
    let mut all = suite(InputSize::Small);
    all.extend(suite(InputSize::Large));
    all
}

/// The fibonacci kernel of Figure 3 in the paper (not part of the measured
/// suite, used by the example and the Figure 3 experiment).
pub fn fibonacci_workload(n: i64) -> Workload {
    Workload::new(
        "fibonacci",
        "example",
        InputSize::Small,
        fibonacci::fibonacci(n),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsg_compiler::{compile, CompileOptions, OptLevel, TargetIsa};
    use bsg_uarch::exec::{execute, ExecConfig, NullObserver};

    #[test]
    fn suite_has_all_eighteen_kernels_for_both_inputs() {
        let small = suite(InputSize::Small);
        let large = suite(InputSize::Large);
        assert_eq!(small.len(), 18);
        assert_eq!(large.len(), 18);
        assert_eq!(full_suite().len(), 36);
        let names: Vec<&str> = small.iter().map(|w| w.kernel.as_str()).collect();
        // The paper's 13 MiBench kernels stay the leading block, in order.
        let mibench = [
            "adpcm",
            "basicmath",
            "bitcount",
            "crc32",
            "dijkstra",
            "fft",
            "gsm",
            "jpeg",
            "patricia",
            "qsort",
            "sha",
            "stringsearch",
            "susan",
        ];
        assert_eq!(&names[..13], &mibench, "legacy prefix preserved");
        for expected in ["huffman", "lu", "nbody", "regexscan", "sjoin"] {
            assert!(names.contains(&expected), "missing {expected}");
        }
    }

    #[test]
    fn every_workload_compiles_and_terminates_at_o0_and_o2() {
        for w in suite(InputSize::Small) {
            for (level, isa) in [
                (OptLevel::O0, TargetIsa::X86),
                (OptLevel::O2, TargetIsa::Ia64),
            ] {
                let compiled = compile(&w.program, &CompileOptions::new(level, isa))
                    .unwrap_or_else(|e| panic!("{} fails to compile at {level}: {e}", w.name));
                let out = execute(
                    &compiled.program,
                    &mut NullObserver,
                    &ExecConfig {
                        max_instructions: 30_000_000,
                        max_call_depth: 128,
                    },
                );
                assert!(
                    out.completed,
                    "{} did not terminate at {level}/{isa}",
                    w.name
                );
                assert!(
                    out.dynamic_instructions > 1_000,
                    "{} is trivially small",
                    w.name
                );
            }
        }
    }

    #[test]
    fn optimization_preserves_observable_behaviour_for_every_workload() {
        for w in suite(InputSize::Small) {
            let o0 = compile(&w.program, &CompileOptions::portable(OptLevel::O0)).unwrap();
            let o3 = compile(
                &w.program,
                &CompileOptions::new(OptLevel::O3, TargetIsa::X86),
            )
            .unwrap();
            let limit = ExecConfig {
                max_instructions: 30_000_000,
                max_call_depth: 128,
            };
            let r0 = execute(&o0.program, &mut NullObserver, &limit);
            let r3 = execute(&o3.program, &mut NullObserver, &limit);
            assert_eq!(
                r0.observable(),
                r3.observable(),
                "optimization changed the observable behaviour of {}",
                w.name
            );
        }
    }

    #[test]
    fn large_inputs_run_longer_than_small_inputs() {
        let run = |p: &HllProgram| {
            let c = compile(p, &CompileOptions::portable(OptLevel::O0)).unwrap();
            bsg_uarch::exec::run(&c.program).dynamic_instructions
        };
        for (s, l) in suite(InputSize::Small)
            .iter()
            .zip(suite(InputSize::Large).iter())
        {
            assert!(
                run(&l.program) > run(&s.program) * 2,
                "{} large input should be at least 2x the small input",
                s.kernel
            );
        }
    }

    #[test]
    fn fibonacci_matches_the_papers_example() {
        let w = fibonacci_workload(20);
        let c = compile(&w.program, &CompileOptions::portable(OptLevel::O1)).unwrap();
        let out = bsg_uarch::exec::run(&c.program);
        assert_eq!(
            out.return_value.map(|v| v.as_int()),
            Some(10946),
            "fib(20) via 20 iterations"
        );
    }
}
