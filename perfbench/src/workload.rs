//! The four workloads and one verified fault-tolerant solve of each.
//!
//! Every workload solves the paper's Poisson system
//! (`PaperWorkload::poisson(256, 48)`, 110,592 unknowns) to the CG
//! tolerance 1e-7 through the public API.  Crashes are deterministic: a
//! `*_resume` solve stops its run with `max_executed_iterations` and
//! resumes with a fresh `build_solver` + `FaultTolerantRunner` on the same
//! checkpoint directory — the real restart path — and `sharded_cg_kill`
//! uses the sharded executor's `KillSpec`s.  The crash schedule is the
//! only thing the seed sets.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use lossy_ckpt::ckpt::{CheckpointLevel, ClusterConfig, PfsModel, StorageBackend};
use lossy_ckpt::core::runner::Persistence;
use lossy_ckpt::core::sharded::{try_run_sharded, KillSpec, ShardedRunConfig};
use lossy_ckpt::core::{
    CheckpointStrategy, ExecutionBackend, FaultTolerantRunner, PaperWorkload, RunConfig,
    ScaledProblem,
};
use lossy_ckpt::solvers::{IterativeMethod, ShardedMethod, SolverKind};
use lossy_ckpt::sparse::{CsrMatrix, Vector};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::seams::{SeamBackend, SeamSolver, CORE, SOLVERS};
use crate::trace::Tracer;

/// Relative tolerance of every solve (the paper's CG tolerance).
pub const RTOL: f64 = 1e-7;
/// Simulated process count and local grid edge of the common problem.
pub const PROCESSES: usize = 256;
/// Local grid edge: 48³ = 110,592 unknowns.
pub const GRID_EDGE: usize = 48;
/// Iteration cap handed to the solvers.
const MAX_ITERATIONS: usize = 10_000;
/// Resume phases after which a crashing solve counts as failed.
const PHASE_CAP: usize = 200;
/// The shard count of `sharded_cg_kill`.
const SHARDS: usize = 2;

/// Names of the workloads; `BENCHMARK.json` lists all but `cg_lossy_mem`.
pub const NAMES: [&str; 4] = [
    "cg_lossy_mem",
    "cg_lossy_disk_resume",
    "cg_trad_disk_resume",
    "sharded_cg_kill",
];

/// A simulated-runner workload: CG with block-Jacobi ILU(0).
#[derive(Debug, Clone)]
pub struct CgSpec {
    /// Checkpoint strategy.
    pub strategy: CheckpointStrategy,
    /// Checkpoint every this many iterations.
    pub interval: usize,
    /// Anchor every this many snapshots (lossy delta chains).
    pub anchor: usize,
    /// Whether checkpoints go to disk (else the in-memory tier).
    pub disk: bool,
    /// Executed iterations before each crash, one per phase; empty means
    /// the solve never crashes.
    pub crash_after: Vec<usize>,
}

/// The sharded-executor workload.
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// Reduction block in rows.
    pub reduce_block: usize,
    /// Epoch checkpoint every this many iterations.
    pub interval: usize,
    /// Seeded fail-stop injections.
    pub kills: Vec<KillSpec>,
}

/// What one workload runs.
#[derive(Debug, Clone)]
pub enum Spec {
    /// Runs through `FaultTolerantRunner` on the simulated substrate.
    Cg(CgSpec),
    /// Runs through `run_sharded`.
    Sharded(ShardSpec),
}

/// A workload with the crash schedule drawn from its seed.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// What it runs.
    pub spec: Spec,
}

impl Workload {
    /// The workload `name` with its crash schedule drawn from `seed`, or
    /// `None` for an unknown name.
    pub fn new(name: &str, seed: u64) -> Option<Workload> {
        let name = *NAMES.iter().find(|n| **n == name)?;
        let crashes = |lo: usize, hi: usize| {
            let mut rng = schedule_rng(seed, 1);
            (0..PHASE_CAP)
                .map(|_| rng.gen_range(lo..=hi))
                .collect::<Vec<_>>()
        };
        let spec = match name {
            "cg_lossy_mem" => Spec::Cg(CgSpec {
                strategy: CheckpointStrategy::lossy_default(),
                interval: 10,
                anchor: 0,
                disk: false,
                crash_after: Vec::new(),
            }),
            // Lossy CG stagnates when crashes come every 12 or fewer
            // iterations, so the crash range stays at 18 or more.
            "cg_lossy_disk_resume" => Spec::Cg(CgSpec {
                strategy: CheckpointStrategy::lossy_default(),
                interval: 1,
                anchor: 4,
                disk: true,
                crash_after: crashes(18, 24),
            }),
            "cg_trad_disk_resume" => Spec::Cg(CgSpec {
                strategy: CheckpointStrategy::Traditional,
                interval: 2,
                anchor: 0,
                disk: true,
                crash_after: crashes(5, 7),
            }),
            _ => Spec::Sharded(ShardSpec {
                reduce_block: 4096,
                interval: 5,
                kills: sharded_kills(seed),
            }),
        };
        Some(Workload { name, spec })
    }
}

/// Two kills on different shards, one early and one late in the solve.
pub fn sharded_kills(seed: u64) -> Vec<KillSpec> {
    let mut rng = schedule_rng(seed, 2);
    let first = rng.gen_range(0..SHARDS);
    vec![
        KillSpec {
            shard: first,
            at_iteration: rng.gen_range(36..=44),
        },
        KillSpec {
            shard: (first + 1) % SHARDS,
            at_iteration: rng.gen_range(116..=124),
        },
    ]
}

/// The generator for one schedule drawn from `seed`, salted so two
/// schedules drawn from one seed are independent.
fn schedule_rng(seed: u64, salt: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F))
}

/// The problem and everything built once per run.
pub struct Bench {
    /// The workload.
    pub workload: Workload,
    /// The paper workload builder.
    pub paper: PaperWorkload,
    /// The problem (original, negative-definite system).
    pub problem: ScaledProblem,
    /// The negated (SPD) system the sharded executor solves.
    pub spd: Option<(CsrMatrix, Vector)>,
    /// Root of this run's checkpoint directories.
    pub root: PathBuf,
    /// Kernel threads per run.
    pub threads: usize,
}

/// Builds the problem and its SpMV plan, the first solver and its
/// preconditioner, and creates the checkpoint directory — the work
/// `setup_s` times.
pub fn setup(workload: &Workload, root: &Path, threads: usize) -> std::io::Result<Bench> {
    let paper = PaperWorkload::poisson(PROCESSES, GRID_EDGE);
    let problem = paper.build();
    let spd = match workload.spec {
        Spec::Cg(_) => {
            std::hint::black_box(paper.build_solver(&problem, SolverKind::Cg, MAX_ITERATIONS));
            None
        }
        Spec::Sharded(_) => Some(negated(&problem)),
    };
    std::fs::create_dir_all(root)?;
    Ok(Bench {
        workload: workload.clone(),
        paper,
        problem,
        spd,
        root: root.to_path_buf(),
        threads,
    })
}

/// The negated system `(-A) x = -b`, which is SPD for the Poisson matrix.
pub fn negated(problem: &ScaledProblem) -> (CsrMatrix, Vector) {
    let mut a = (*problem.system.a).clone();
    for v in a.values_mut() {
        *v = -*v;
    }
    a.plan();
    let mut b = (*problem.system.b).clone();
    b.scale(-1.0);
    (a, b)
}

/// The deterministic shape of one solve; within one seed it must repeat
/// exactly across solves and runs, traced or not.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Signature {
    /// Solver iterations executed, rolled-back and resumed ones included.
    pub steps: usize,
    /// Committed checkpoints (epochs for the sharded executor).
    pub checkpoints: usize,
    /// Committed temporal-delta checkpoints.
    pub delta_checkpoints: usize,
    /// Bytes handed to `StorageBackend::write_file`.
    pub stored_bytes: u64,
    /// Runs (phases) the solve took: 1 + crashes.
    pub phases: usize,
    /// Shard rollbacks.
    pub rollbacks: usize,
    /// Survivor halo replays.
    pub halo_replays: usize,
    /// Halo doubles sent by all shards.
    pub halo_doubles: u64,
}

impl Signature {
    /// The signature as one line of text (for the cross-run check).
    pub fn line(&self) -> String {
        format!(
            "steps={} checkpoints={} delta_checkpoints={} stored_bytes={} phases={} rollbacks={} halo_replays={} halo_doubles={}",
            self.steps,
            self.checkpoints,
            self.delta_checkpoints,
            self.stored_bytes,
            self.phases,
            self.rollbacks,
            self.halo_replays,
            self.halo_doubles
        )
    }
}

/// One measured solve.
#[derive(Debug, Clone, Default)]
pub struct Solve {
    /// `None` when verified; otherwise why the solve failed.
    pub failure: Option<String>,
    /// Wall seconds from the start of the first run to convergence.
    pub seconds: f64,
    /// True relative residual on the original system.
    pub rel_residual: f64,
    /// Deterministic shape.
    pub signature: Signature,
    /// Per-checkpoint stalls: gaps between consecutive `step()` calls
    /// that span a commit, as `(start, end)` instants.
    pub stalls: Vec<(Instant, Instant)>,
    /// Crash-to-first-iteration windows of every resume.
    pub resumes: Vec<(Instant, Instant)>,
    /// `RunReport::total_seconds` summed over phases.
    pub model_total_s: f64,
    /// Checkpoints that failed to encode or persist.
    pub failed_checkpoints: usize,
    /// Transient storage retries.
    pub io_retries: usize,
}

impl Bench {
    fn fresh_dir(&self, id: u64) -> PathBuf {
        let dir = self.root.join(format!("solve-{id}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Runs solve number `id` and verifies it; with a tracer, every seam
    /// call is recorded as a span.
    pub fn solve(&self, id: u64, tracer: Option<&Arc<Tracer>>) -> Solve {
        let dir = self.fresh_dir(id);
        if let Some(t) = tracer {
            t.set_solve(id);
        }
        let root_span = tracer.map(|t| t.begin("solve", "bench"));
        let mut solve = match &self.workload.spec {
            Spec::Cg(spec) => self.solve_cg(spec, &dir, tracer),
            Spec::Sharded(spec) => self.solve_sharded(spec, &dir, tracer),
        };
        if let (Some(t), Some(s)) = (tracer, root_span) {
            t.end(s, 0);
        }
        let _ = std::fs::remove_dir_all(&dir);
        if solve.failure.is_none() && (solve.rel_residual.is_nan() || solve.rel_residual > RTOL) {
            solve.failure = Some(format!(
                "true relative residual {:e} above {RTOL:e}",
                solve.rel_residual
            ));
        }
        solve
    }

    fn run_config(&self, spec: &CgSpec, dir: &Path, max_executed: usize) -> RunConfig {
        RunConfig {
            strategy: spec.strategy.clone(),
            checkpoint_interval_iterations: spec.interval,
            anchor_interval_snapshots: spec.anchor,
            cluster: ClusterConfig::bebop_like(PROCESSES, 0.5),
            pfs: PfsModel::bebop_like(),
            level: CheckpointLevel::Pfs,
            mtti_seconds: f64::MAX,
            failure_seed: None,
            max_failures: 0,
            max_executed_iterations: max_executed,
            num_threads: self.threads,
            persistence: if spec.disk {
                Persistence::disk(dir)
            } else {
                Persistence::InMemory
            },
            backend: ExecutionBackend::Simulated,
        }
    }

    fn solve_cg(&self, spec: &CgSpec, dir: &Path, tracer: Option<&Arc<Tracer>>) -> Solve {
        let written = Arc::new(AtomicU64::new(0));
        let backend: Arc<dyn StorageBackend> =
            Arc::new(SeamBackend::new(tracer.cloned(), Arc::clone(&written)));
        let mut out = Solve::default();
        let start = Instant::now();
        let mut crashed_at: Option<Instant> = None;
        let mut crashes = spec.crash_after.iter();
        loop {
            out.signature.phases += 1;
            let max_executed = if spec.crash_after.is_empty() {
                MAX_ITERATIONS
            } else {
                match crashes.next() {
                    Some(&k) => k,
                    None => {
                        out.failure = Some(format!("no convergence within {PHASE_CAP} phases"));
                        break;
                    }
                }
            };
            let build = || {
                self.paper
                    .build_solver(&self.problem, SolverKind::Cg, MAX_ITERATIONS)
            };
            let inner = match tracer {
                Some(t) => t.span("build_solver", SOLVERS, build),
                None => build(),
            };
            let mut solver = SeamSolver::new(inner, tracer.cloned());
            let runner = FaultTolerantRunner::new(self.run_config(spec, dir, max_executed))
                .with_storage_backend(Arc::clone(&backend));
            let report = match tracer {
                Some(t) => t.span("run", CORE, || runner.run(&mut solver, &self.problem)),
                None => runner.run(&mut solver, &self.problem),
            };
            let returned = Instant::now();
            let steps = solver.steps();
            if let (Some(crash), Some(first)) = (crashed_at, steps.first()) {
                out.resumes.push((crash, first.start));
            }
            out.stalls.extend(
                steps
                    .windows(2)
                    .filter(|w| w[1].captures_before > w[0].captures_before)
                    .map(|w| (w[0].end, w[1].start)),
            );
            let sig = &mut out.signature;
            sig.steps += report.executed_iterations;
            sig.checkpoints += report.checkpoints_taken;
            sig.delta_checkpoints += report.delta_checkpoints;
            out.failed_checkpoints += report.failed_checkpoints;
            out.io_retries += report.io_retries;
            out.model_total_s += report.total_seconds;
            if solver.converged() {
                out.seconds = start.elapsed().as_secs_f64();
                out.rel_residual = rel_residual(&self.problem, solver.solution());
                break;
            }
            if spec.crash_after.is_empty() {
                out.failure = Some("run ended without converging".to_string());
                break;
            }
            crashed_at = Some(returned);
        }
        out.signature.stored_bytes = written.load(Ordering::Relaxed);
        out
    }

    fn solve_sharded(&self, spec: &ShardSpec, dir: &Path, tracer: Option<&Arc<Tracer>>) -> Solve {
        let (a, b) = self
            .spd
            .as_ref()
            .expect("the sharded workload builds its SPD system");
        let written = Arc::new(AtomicU64::new(0));
        let mut cfg = ShardedRunConfig::new(SHARDS, ShardedMethod::Cg);
        cfg.rtol = RTOL;
        cfg.max_iterations = MAX_ITERATIONS;
        cfg.reduce_block = spec.reduce_block;
        cfg.checkpoint_interval = spec.interval;
        cfg.ckpt_dir = Some(dir.to_path_buf());
        cfg.kills = spec.kills.clone();
        let (tr, w) = (tracer.cloned(), Arc::clone(&written));
        cfg.backend_factory = Some(Arc::new(move |_shard| {
            Arc::new(SeamBackend::new(tr.clone(), Arc::clone(&w))) as Arc<dyn StorageBackend>
        }));
        let mut out = Solve::default();
        let start = Instant::now();
        let result = match tracer {
            Some(t) => {
                let id = t.begin("run_sharded", CORE);
                t.set_root(Some(id));
                let r = try_run_sharded(a, b, &cfg);
                t.set_root(None);
                t.end(id, 0);
                r
            }
            None => try_run_sharded(a, b, &cfg),
        };
        out.seconds = start.elapsed().as_secs_f64();
        match result {
            Ok(report) if report.converged => {
                let sig = &mut out.signature;
                sig.steps = report.iterations;
                sig.checkpoints = report.committed_epochs.len();
                sig.phases = 1;
                sig.rollbacks = report.shards.iter().map(|s| s.rollbacks).sum();
                sig.halo_replays = report.shards.iter().map(|s| s.halo_replays).sum();
                sig.halo_doubles = report.shards.iter().map(|s| s.halo_doubles_sent).sum();
                out.io_retries = report.shards.iter().map(|s| s.io_retries as usize).sum();
                out.rel_residual = rel_residual(&self.problem, &report.solution);
            }
            Ok(report) => {
                out.failure = Some(format!(
                    "sharded run stopped unconverged after {} iterations",
                    report.iterations
                ))
            }
            Err(e) => out.failure = Some(format!("sharded run failed: {e}")),
        }
        out.signature.stored_bytes = written.load(Ordering::Relaxed);
        out
    }

    /// Iterations the workload's solver needs without failures.
    pub fn failure_free_steps(&self) -> usize {
        match &self.workload.spec {
            Spec::Sharded(spec) => {
                let (a, b) = self
                    .spd
                    .as_ref()
                    .expect("the sharded workload builds its SPD system");
                let mut cfg = ShardedRunConfig::new(SHARDS, ShardedMethod::Cg);
                cfg.rtol = RTOL;
                cfg.max_iterations = MAX_ITERATIONS;
                cfg.reduce_block = spec.reduce_block;
                try_run_sharded(a, b, &cfg).map_or(0, |r| r.iterations)
            }
            Spec::Cg(_) => self.cg_failure_free(&[]).0,
        }
    }

    /// Solution snapshots of a failure-free preconditioned CG solve of the
    /// problem after the iterations in `at` (fewer if it converges first).
    pub fn snapshots(&self, at: &[usize]) -> Vec<Vector> {
        self.cg_failure_free(at).1
    }

    fn cg_failure_free(&self, at: &[usize]) -> (usize, Vec<Vector>) {
        let _threads = ThreadCap::new(self.threads);
        let mut solver = self
            .paper
            .build_solver(&self.problem, SolverKind::Cg, MAX_ITERATIONS);
        let mut snaps = Vec::new();
        while !solver.converged() {
            solver.step();
            if at.contains(&solver.iteration()) {
                snaps.push(solver.solution().clone());
            }
        }
        (solver.iteration(), snaps)
    }
}

/// Pins the calling thread's kernel thread count, restoring it on drop.
pub struct ThreadCap(usize);

impl ThreadCap {
    /// Caps kernels issued from this thread at `threads`.
    pub fn new(threads: usize) -> Self {
        let old = rayon::max_active_threads();
        rayon::set_max_active_threads(threads);
        ThreadCap(old)
    }
}

impl Drop for ThreadCap {
    fn drop(&mut self) {
        rayon::set_max_active_threads(self.0);
    }
}

/// `‖b − A x‖ / ‖b‖` on the problem's original system.
pub fn rel_residual(problem: &ScaledProblem, x: &Vector) -> f64 {
    let a = &problem.system.a;
    let b = &problem.system.b;
    a.residual(x, b).norm2() / b.norm2()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_schedules_follow_the_seed_and_stay_in_range() {
        let w = |seed| match Workload::new("cg_lossy_disk_resume", seed).map(|w| w.spec) {
            Some(Spec::Cg(spec)) => spec.crash_after,
            _ => unreachable!("cg workload"),
        };
        assert_eq!(w(3), w(3));
        assert_ne!(w(3), w(4));
        assert!(w(3).iter().all(|k| (18..=24).contains(k)));
        for seed in 0..50 {
            let kills = sharded_kills(seed);
            assert_ne!(kills[0].shard, kills[1].shard);
            assert!((36..=44).contains(&kills[0].at_iteration));
            assert!((116..=124).contains(&kills[1].at_iteration));
        }
        assert!(Workload::new("nope", 1).is_none());
    }
}
