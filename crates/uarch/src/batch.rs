//! The pipeline timing core: one functional execution drives the timing
//! models of one or more machine configurations at once.
//!
//! The paper's machine-axis experiments (Figure 11, Table III) and its
//! cache-axis experiment (Figure 10) time one dynamic instruction stream
//! under several pipeline configs.  The stream does not depend on the
//! config, so the timing model here is an ordinary [`Observer`] (it drops
//! into the monomorphized dispatch loop without touching `exec.rs`) that
//! fans each retired instruction into per-lane state, one lane per
//! *unique* [`PipelineConfig`].  A single config is simply a one-lane batch:
//! [`crate::pipeline::simulate_image`] runs through the same code.
//!
//! # One lane loop, specialised by width
//!
//! The observer is generic over the lane count `N`: every per-config scalar
//! of the model is an `[T; N]` column, `reg_ready` is a `Vec<[u64; N]>`
//! (one register's lanes share a row), and the per-instruction loop is
//! `for lane in 0..N`, which the compiler unrolls.  [`simulate_configs`]
//! instantiates `N ∈ 1..=4` and runs more unique lanes in chunks of at most
//! four (one functional execution per chunk), so no dynamic-width lane loop
//! exists.
//!
//! # The per-site table
//!
//! Each image's site metadata is flattened once per call into
//! `SiteTiming` records: the class's base latency and the `reg_ready`
//! rows an instruction reads and writes.  A use that is absent or names a
//! register at or beyond the image's `max_regs` points at a *zero row* that
//! nothing writes; a def that is absent or out of range points at a *sink
//! row* that nothing reads.  Reading zero is neutral under `max` (ready
//! times start at 0) and writing the sink is unobservable, so the table
//! keeps the earlier `i < nregs` guards without a branch.
//!
//! # Sharing between lanes
//!
//! Three layers of state are shared rather than replicated, each justified
//! by a bit-parity argument (and checked against the independent
//! [`ReferencePipelineSim`](crate::pipeline::ReferencePipelineSim) oracle):
//!
//! * **Branch predictor and branch stats** — the model always builds
//!   [`Hybrid::default_config()`] regardless of the pipeline config, and
//!   predictor evolution depends only on the `(site_id, taken)` stream,
//!   which is identical across lanes.  One predictor serves every lane; a
//!   misprediction redirects each lane with its own penalty.
//! * **Cache state** — cache contents depend only on the config and the
//!   address stream.  Lanes with the same L1 config share one L1 (its hit
//!   stream is identical); lanes with the same *(L1, L2)* pair share one L2
//!   (the L2's access stream is the L1's miss stream, so sharing requires
//!   the upstream L1 to match too).  Each unique cache is accessed exactly
//!   once per memory operation.
//! * **The instruction counter** — every lane times the same stream.
//!
//! Identical full configs collapse into one lane outright (Table III's two
//! Pentium 4 systems differ only in clock, which is applied *outside* the
//! cycle-level model), so the result for each input config is read from its
//! lane; simulation is deterministic, so the copy is exact.

use crate::branch::{BranchStats, Hybrid, Predictor};
use crate::cache::{Cache, CacheConfig};
use crate::exec::{execute_image, ExecConfig, InstEvent, InstSite, Observer};
use crate::image::ExecImage;
use crate::pipeline::{base_latency, PipelineConfig, PipelineResult};
use bsg_ir::types::Reg;

/// Widest lane group one execution times; more unique configs run in
/// chunks of this many.
const MAX_LANES: usize = 4;

/// Timing-relevant facts of one static instruction, flattened from its
/// [`crate::image::SiteMeta`] (see the module docs for the row encoding).
#[derive(Debug, Clone, Copy)]
struct SiteTiming {
    /// Issue-to-complete latency before the memory hierarchy.
    base: u64,
    /// `reg_ready` rows read; the zero row for an absent or out-of-range use.
    uses: [u32; 3],
    /// `reg_ready` row written; the sink row for an absent or out-of-range def.
    def: u32,
}

/// Builds the per-site table of `image`.  Rows `0..max_regs` are registers,
/// row `max_regs` is the zero row and row `max_regs + 1` the sink row.
fn site_table(image: &ExecImage) -> Vec<SiteTiming> {
    let nregs = image.max_regs();
    let (zero, sink) = (nregs, nregs + 1);
    let row = |r: Option<Reg>, absent: u32| match r {
        Some(r) if r.0 < nregs => r.0,
        _ => absent,
    };
    image
        .site_metas()
        .iter()
        .map(|m| SiteTiming {
            base: base_latency(m.class),
            uses: m.uses.map(|u| row(u, zero)),
            def: row(m.def, sink),
        })
        .collect()
}

/// The unique caches of one lane group and the lanes' latency tables.
struct Memory<const N: usize> {
    /// Unique L1s.
    l1s: Vec<Cache>,
    /// Unique (L1, L2) pairs: the index of the upstream L1 and the L2.
    l2s: Vec<(usize, Cache)>,
    /// The unique L2 each lane reads.
    lane_l2: [usize; N],
    /// Per-lane `[l1, l2, mem]` load latency, indexed by memory level.
    latency: [[u64; 3]; N],
}

impl<const N: usize> Memory<N> {
    fn new(configs: &[PipelineConfig; N]) -> Self {
        let mut l1_cfgs: Vec<CacheConfig> = Vec::new();
        let mut l2_keys: Vec<(usize, CacheConfig)> = Vec::new();
        let lane_l2 = configs.map(|c| {
            let l1 = position_or_push(&mut l1_cfgs, c.l1);
            position_or_push(&mut l2_keys, (l1, c.l2))
        });
        Memory {
            l1s: l1_cfgs.into_iter().map(Cache::new).collect(),
            l2s: l2_keys
                .into_iter()
                .map(|(l1, c)| (l1, Cache::new(c)))
                .collect(),
            lane_l2,
            latency: configs.map(|c| [c.l1_latency, c.l2_latency, c.mem_latency]),
        }
    }

    /// Runs one address through every unique cache and returns, per unique
    /// L2, the level that served it: 0 = L1, 1 = L2, 2 = memory.
    #[inline(always)]
    fn access(&mut self, addr: u64) -> [usize; N] {
        let mut l1_hit = [false; N];
        for (hit, cache) in l1_hit.iter_mut().zip(&mut self.l1s) {
            *hit = cache.access(addr);
        }
        let mut level = [0; N];
        for (level, (l1, cache)) in level.iter_mut().zip(&mut self.l2s) {
            *level = if l1_hit[*l1] {
                0
            } else if cache.access(addr) {
                1
            } else {
                2
            };
        }
        level
    }

    /// Per-lane latency of a read of `addr`.
    fn read(&mut self, addr: u64) -> [u64; N] {
        let level = self.access(addr);
        std::array::from_fn(|lane| self.latency[lane][level[self.lane_l2[lane]]])
    }
}

/// Index of `x` in `v`, pushing it first if absent.
fn position_or_push<T: PartialEq>(v: &mut Vec<T>, x: T) -> usize {
    v.iter().position(|y| *y == x).unwrap_or_else(|| {
        v.push(x);
        v.len() - 1
    })
}

/// The timing model of `N` lanes over one image's site table.
struct LaneSim<'s, const N: usize> {
    sites: &'s [SiteTiming],
    width: [u32; N],
    in_order: [bool; N],
    mispredict_penalty: [u64; N],
    /// Ring capacity (`rob_size.max(1)`).
    rob_cap: [usize; N],
    /// Each lane's ring's offset into the flat `rob` vector.
    rob_off: [usize; N],
    memory: Memory<N>,
    predictor: Hybrid,
    branch_stats: BranchStats,
    /// Ready cycle of every register per lane, plus the zero and sink rows.
    reg_ready: Vec<[u64; N]>,
    cycle: [u64; N],
    issued_in_cycle: [u32; N],
    /// All lanes' completion rings back to back.  A ring starts full of
    /// zeros: a zero never delays issue, so a not-yet-full ring behaves like
    /// a full one whose oldest entry has long completed.
    rob: Vec<u64>,
    /// Slot of each lane's oldest ring entry.
    rob_pos: [usize; N],
    last_complete: [u64; N],
    max_complete: [u64; N],
    instructions: u64,
}

impl<'s, const N: usize> LaneSim<'s, N> {
    fn new(configs: &[PipelineConfig; N], sites: &'s [SiteTiming], nregs: usize) -> Self {
        let rob_cap = configs.map(|c| c.rob_size.max(1));
        let mut rob_len = 0;
        let rob_off = rob_cap.map(|cap| {
            rob_len += cap;
            rob_len - cap
        });
        LaneSim {
            sites,
            width: configs.map(|c| c.width),
            in_order: configs.map(|c| c.in_order),
            mispredict_penalty: configs.map(|c| c.mispredict_penalty),
            rob_cap,
            rob_off,
            memory: Memory::new(configs),
            predictor: Hybrid::default_config(),
            branch_stats: BranchStats::default(),
            reg_ready: vec![[0; N]; nregs + 2],
            cycle: [0; N],
            issued_in_cycle: [0; N],
            rob: vec![0; rob_len],
            rob_pos: [0; N],
            last_complete: [0; N],
            max_complete: [0; N],
            instructions: 0,
        }
    }

    fn results(&self) -> [PipelineResult; N] {
        std::array::from_fn(|lane| {
            let (l1, l2) = &self.memory.l2s[self.memory.lane_l2[lane]];
            PipelineResult {
                cycles: self.max_complete[lane].max(self.cycle[lane]),
                instructions: self.instructions,
                branches: self.branch_stats,
                l1: self.memory.l1s[*l1].stats(),
                l2: l2.stats(),
            }
        })
    }
}

impl<const N: usize> Observer for LaneSim<'_, N> {
    // Forced inline into the dispatch loop, like the executor's own
    // helpers: the one-lane run is measurably faster (PERF.md, "lane-
    // specialised timing core").
    #[inline(always)]
    fn on_inst(&mut self, event: &InstEvent) {
        let site = self.sites[event.site_id as usize];
        self.instructions += 1;
        let mem_latency = match event.mem_read {
            Some(a) => self.memory.read(a),
            None => [0; N],
        };
        if let Some(a) = event.mem_write {
            // Stores retire through a write buffer; they still access the
            // caches (state + stats) but charge no latency.
            self.memory.access(a);
        }
        let [a, b, c] = site.uses.map(|r| self.reg_ready[r as usize]);
        let mut complete = [0; N];
        for lane in 0..N {
            let mut cycle = self.cycle[lane];
            let mut issued = self.issued_in_cycle[lane];
            // Issue-width constraint.
            if issued >= self.width[lane] {
                cycle += 1;
                issued = 0;
            }
            let src_ready = a[lane].max(b[lane]).max(c[lane]);
            let rob_slot = self.rob_off[lane] + self.rob_pos[lane];
            let issue = if self.in_order[lane] {
                // In-order issue stalls the whole pipeline until operands
                // are ready.
                if src_ready > cycle {
                    cycle = src_ready;
                    issued = 0;
                }
                cycle
            } else {
                // Reorder-buffer constraint: the oldest in-flight
                // instruction must have completed before a new one enters.
                let oldest = self.rob[rob_slot];
                if oldest > cycle {
                    cycle = oldest;
                    issued = 0;
                }
                cycle.max(src_ready)
            };
            let done = issue + (site.base + mem_latency[lane]).max(1);
            if !self.in_order[lane] {
                self.rob[rob_slot] = done;
                self.rob_pos[lane] += 1;
                if self.rob_pos[lane] == self.rob_cap[lane] {
                    self.rob_pos[lane] = 0;
                }
            }
            self.cycle[lane] = cycle;
            self.issued_in_cycle[lane] = issued + 1;
            self.max_complete[lane] = self.max_complete[lane].max(done);
            complete[lane] = done;
        }
        self.last_complete = complete;
        self.reg_ready[site.def as usize] = complete;
    }

    fn on_branch(&mut self, _site: InstSite, site_id: u32, taken: bool) {
        self.branch_stats.branches += 1;
        if self.predictor.predict_and_update(site_id, taken) {
            self.branch_stats.correct += 1;
        } else {
            // Redirect every lane: the outcome is shared (see module docs),
            // the penalty is per lane.
            for lane in 0..N {
                self.cycle[lane] =
                    self.cycle[lane].max(self.last_complete[lane]) + self.mispredict_penalty[lane];
                self.issued_in_cycle[lane] = 0;
            }
        }
    }
}

/// Times one execution of `image` under the `N` configs of `lanes`.
fn run_lanes<const N: usize>(
    image: &ExecImage,
    sites: &[SiteTiming],
    lanes: &[PipelineConfig],
    exec: &ExecConfig,
) -> [PipelineResult; N] {
    let configs: &[PipelineConfig; N] = lanes.try_into().expect("lane chunk of width N");
    let mut sim = LaneSim::new(configs, sites, image.max_regs() as usize);
    execute_image(image, &mut sim, exec);
    sim.results()
}

/// Executes `image` **as given** (no unfused-twin substitution) under
/// `exec` and returns one [`PipelineResult`] per config, in input order.
/// Duplicate configs share a lane; up to four unique configs share one
/// functional execution, more run in chunks of four.  This is the code
/// every production timing call runs, exposed so differential tests can
/// drive it over either twin and under instruction budgets.
pub fn simulate_configs(
    image: &ExecImage,
    configs: &[PipelineConfig],
    exec: &ExecConfig,
) -> Vec<PipelineResult> {
    let mut unique: Vec<PipelineConfig> = Vec::new();
    let lane_of: Vec<usize> = configs
        .iter()
        .map(|c| position_or_push(&mut unique, *c))
        .collect();
    let sites = site_table(image);
    let mut lanes: Vec<PipelineResult> = Vec::with_capacity(unique.len());
    for chunk in unique.chunks(MAX_LANES) {
        match chunk.len() {
            1 => lanes.extend(run_lanes::<1>(image, &sites, chunk, exec)),
            2 => lanes.extend(run_lanes::<2>(image, &sites, chunk, exec)),
            3 => lanes.extend(run_lanes::<3>(image, &sites, chunk, exec)),
            _ => lanes.extend(run_lanes::<MAX_LANES>(image, &sites, chunk, exec)),
        }
    }
    lane_of.iter().map(|&lane| lanes[lane]).collect()
}

/// [`crate::pipeline::simulate_image`] over many configs at once: one
/// [`PipelineResult`] per config, each bit-identical to what a separate
/// call would return.  Like every timing call, it executes the image's
/// **unfused twin** when present (the timing model is a heavyweight
/// observer; see `ExecImage::unfused_twin`).
pub fn simulate_image_batch(image: &ExecImage, configs: &[PipelineConfig]) -> Vec<PipelineResult> {
    simulate_configs(image.unfused_twin(), configs, &ExecConfig::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute;
    use crate::machine::MachineConfig;
    use crate::pipeline::ReferencePipelineSim;
    use bsg_ir::program::{Function, Global, Program};
    use bsg_ir::types::Ty;
    use bsg_ir::visa::{Address, BinOp, Inst, Operand, Terminator};

    fn mixed_loop(iters: i64, stride: i64) -> Program {
        let mut p = Program::new();
        let g = p.add_global(Global::zeroed("data", 1 << 14));
        let mut f = Function::new("main");
        let i = f.fresh_reg();
        let idx = f.fresh_reg();
        let v = f.fresh_reg();
        let acc = f.fresh_reg();
        let c = f.fresh_reg();
        let header = f.add_block();
        let body = f.add_block();
        let exit = f.add_block();
        f.blocks[0].insts = vec![
            Inst::Mov {
                dst: i,
                src: Operand::ImmInt(0),
            },
            Inst::Mov {
                dst: acc,
                src: Operand::ImmInt(0),
            },
        ];
        f.blocks[0].term = Terminator::Jump(header);
        f.blocks[header.index()].insts = vec![Inst::Bin {
            op: BinOp::Lt,
            ty: Ty::Int,
            dst: c,
            lhs: i.into(),
            rhs: Operand::ImmInt(iters),
        }];
        f.blocks[header.index()].term = Terminator::Branch {
            cond: c,
            taken: body,
            not_taken: exit,
        };
        f.blocks[body.index()].insts = vec![
            Inst::Bin {
                op: BinOp::Mul,
                ty: Ty::Int,
                dst: idx,
                lhs: i.into(),
                rhs: Operand::ImmInt(stride),
            },
            Inst::Load {
                dst: v,
                addr: Address::global_indexed(g, 0, idx, 1),
                ty: Ty::Int,
            },
            Inst::Store {
                src: v.into(),
                addr: Address::global_indexed(g, 0, idx, 1),
                ty: Ty::Int,
            },
            Inst::Bin {
                op: BinOp::Add,
                ty: Ty::Int,
                dst: acc,
                lhs: acc.into(),
                rhs: v.into(),
            },
            Inst::Bin {
                op: BinOp::Add,
                ty: Ty::Int,
                dst: i,
                lhs: i.into(),
                rhs: Operand::ImmInt(1),
            },
        ];
        f.blocks[body.index()].term = Terminator::Jump(header);
        f.blocks[exit.index()].term = Terminator::Return(Some(acc.into()));
        p.add_function(f);
        p
    }

    fn reference(program: &Program, config: PipelineConfig) -> PipelineResult {
        let mut sim = ReferencePipelineSim::new(config, program);
        execute(program, &mut sim, &ExecConfig::default());
        sim.result()
    }

    #[test]
    fn lanes_equal_the_reference_on_table3_extended() {
        let program = mixed_loop(4000, 7);
        let image = ExecImage::new(&program);
        let configs: Vec<PipelineConfig> = MachineConfig::table3_extended()
            .iter()
            .map(|m| m.pipeline)
            .collect();
        let batched = simulate_image_batch(&image, &configs);
        for (c, b) in configs.iter().zip(&batched) {
            assert_eq!(*b, reference(&program, *c), "lane diverged for {c:?}");
        }
    }

    #[test]
    fn duplicate_configs_share_a_lane_and_report_identical_results() {
        let program = mixed_loop(500, 3);
        let image = ExecImage::new(&program);
        let cfg = PipelineConfig::ptlsim_2wide(16);
        let r = simulate_image_batch(&image, &[cfg, cfg, cfg]);
        assert_eq!(r.len(), 3);
        assert_eq!(r[0], r[1]);
        assert_eq!(r[1], r[2]);
        assert_eq!(r[0], reference(&program, cfg));
    }

    #[test]
    fn empty_config_list_yields_no_results() {
        let image = ExecImage::new(&mixed_loop(10, 1));
        assert!(simulate_image_batch(&image, &[]).is_empty());
    }

    #[test]
    fn out_of_range_registers_read_zero_and_write_nothing() {
        let image = ExecImage::new(&mixed_loop(10, 1));
        let sites = site_table(&image);
        let nregs = image.max_regs();
        for (t, m) in sites.iter().zip(image.site_metas()) {
            for (row, used) in t.uses.iter().zip(m.uses) {
                match used {
                    Some(r) if r.0 < nregs => assert_eq!(*row, r.0),
                    _ => assert_eq!(*row, nregs),
                }
            }
            assert!(t.def < nregs || t.def == nregs + 1);
        }
    }

    #[test]
    fn run_batch_matches_run_image_per_machine() {
        let image = ExecImage::new(&mixed_loop(2000, 5));
        let machines = MachineConfig::table3_extended();
        let batched = MachineConfig::run_batch(&machines, &image);
        assert_eq!(batched.len(), machines.len());
        for (m, b) in machines.iter().zip(&batched) {
            let single = m.run_image(&image);
            assert_eq!(b, &single, "machine {} diverged", m.name);
        }
    }
}
