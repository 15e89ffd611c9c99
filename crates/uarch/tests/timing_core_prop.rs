//! The timing core against the independent reference model, lane by lane.
//!
//! `simulate_configs` specialises its lane loop for one to four unique
//! lanes and runs more in chunks of at most four.  Every width and the
//! chunk path must give each config exactly the result a separate
//! [`ReferencePipelineSim`] run over the same event stream gives.  The
//! config pool mixes in-order and out-of-order lanes of different widths,
//! a zero-sized reorder buffer, shared and distinct L1/L2 shapes, and the
//! extended Table III roster; picks may repeat a config (lane dedup).

use bsg_ir::program::Program;
use bsg_uarch::batch::simulate_configs;
use bsg_uarch::exec::{execute_image, ExecConfig};
use bsg_uarch::image::ExecImage;
use bsg_uarch::machine::MachineConfig;
use bsg_uarch::pipeline::{PipelineConfig, ReferencePipelineSim};
use bsg_verify::gen::{o0_frame_program, Gen};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Distinct configs, in-order and out-of-order interleaved so the first
/// `n` of them always mix both issue models.
fn pool() -> Vec<PipelineConfig> {
    let mut pool = vec![
        PipelineConfig::ptlsim_2wide(8),
        PipelineConfig::epic(6, 16, 256),
        PipelineConfig::out_of_order(2, 0, 8, 256, 10),
        PipelineConfig::epic(2, 24, 512),
        PipelineConfig::ptlsim_2wide(16),
        PipelineConfig::out_of_order(1, 3, 8, 64, 4),
        PipelineConfig::ptlsim_2wide(32),
        PipelineConfig::epic(1, 8, 64),
    ];
    pool.extend(MachineConfig::table3_extended().iter().map(|m| m.pipeline));
    pool
}

/// Asserts that every lane of one `simulate_configs` run equals the
/// reference model on the same image and budget.
fn check_lanes(
    program: &Program,
    image: &ExecImage,
    configs: &[PipelineConfig],
    exec: &ExecConfig,
) -> Result<(), String> {
    let lanes = simulate_configs(image, configs, exec);
    if lanes.len() != configs.len() {
        return Err(format!(
            "{} results for {} configs",
            lanes.len(),
            configs.len()
        ));
    }
    for (i, (c, lane)) in configs.iter().zip(lanes).enumerate() {
        let mut reference = ReferencePipelineSim::new(*c, program);
        execute_image(image, &mut reference, exec);
        if lane != reference.result() {
            return Err(format!(
                "lane {i} of {} ({c:?}): {lane:?} vs reference {:?}",
                configs.len(),
                reference.result()
            ));
        }
    }
    Ok(())
}

/// Every specialised width (1 to 4 unique lanes) and the chunk path (5 to
/// 8 unique lanes, plus the extended roster), on both twins of a program.
#[test]
fn every_lane_width_and_the_chunk_path_match_the_reference() {
    let pool = pool();
    let roster: Vec<PipelineConfig> = MachineConfig::table3_extended()
        .iter()
        .map(|m| m.pipeline)
        .collect();
    for seed in [1u64, 7, 42] {
        let program = o0_frame_program(seed);
        for image in [ExecImage::new(&program), ExecImage::unfused(&program)] {
            let exec = ExecConfig {
                max_instructions: 50_000,
                max_call_depth: 13,
            };
            for n in 1..=8 {
                check_lanes(&program, &image, &pool[..n], &exec)
                    .unwrap_or_else(|e| panic!("seed {seed}, {n} unique lanes: {e}"));
            }
            check_lanes(&program, &image, &roster, &exec)
                .unwrap_or_else(|e| panic!("seed {seed}, extended roster: {e}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn random_lane_groups_match_the_reference(seed in 0u64..1_000_000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let pool = pool();
        // 1 to 10 picks with repeats: 1 to 10 unique lanes after dedup.
        let picks = rng.gen_range(1usize..11);
        let configs: Vec<PipelineConfig> = (0..picks)
            .map(|_| pool[rng.gen_range(0..pool.len())])
            .collect();
        let program = if seed % 2 == 0 {
            o0_frame_program(seed)
        } else {
            let mut g = Gen::from_seed(seed, 0);
            g.nglobals = rng.gen_range(0u32..3);
            g.program()
        };
        for image in [ExecImage::new(&program), ExecImage::unfused(&program)] {
            for budget in [5u64, 97, 20_000] {
                let exec = ExecConfig { max_instructions: budget, max_call_depth: 13 };
                if let Err(e) = check_lanes(&program, &image, &configs, &exec) {
                    return Err(format!("seed {seed} budget {budget}: {e}"));
                }
            }
        }
    }
}
