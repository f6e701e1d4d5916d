//! The seam decorators forward every call unchanged: a wrapped run and an
//! unwrapped run of the same configuration produce identical reports, so
//! the traced run measures the same program.

use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use lcr_perfbench::seams::{SeamBackend, SeamSolver};
use lcr_perfbench::trace::Tracer;
use lossy_ckpt::ckpt::{CheckpointLevel, ClusterConfig, PfsModel, StorageBackend};
use lossy_ckpt::core::runner::Persistence;
use lossy_ckpt::core::sharded::{run_sharded, KillSpec, ShardedReport, ShardedRunConfig};
use lossy_ckpt::core::{
    CheckpointStrategy, ExecutionBackend, FaultTolerantRunner, PaperWorkload, RunConfig, RunReport,
    ScaledProblem,
};
use lossy_ckpt::solvers::{IterativeMethod, ShardedMethod, SolverKind};

fn scratch(name: &str) -> PathBuf {
    let dir =
        Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("seams-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(
    strategy: CheckpointStrategy,
    interval: usize,
    dir: &Path,
    max_executed: usize,
) -> RunConfig {
    RunConfig {
        strategy,
        checkpoint_interval_iterations: interval,
        anchor_interval_snapshots: 4,
        cluster: ClusterConfig::bebop_like(256, 0.5),
        pfs: PfsModel::bebop_like(),
        level: CheckpointLevel::Pfs,
        mtti_seconds: f64::MAX,
        failure_seed: None,
        max_failures: 0,
        max_executed_iterations: max_executed,
        num_threads: 1,
        persistence: Persistence::disk(dir),
        backend: ExecutionBackend::Simulated,
    }
}

/// Runs crash-and-resume phases of 15 executed iterations each on `dir`,
/// wrapped in the seams when `tracer` is given, and returns every
/// phase's report.
fn phases(
    paper: &PaperWorkload,
    problem: &ScaledProblem,
    strategy: &CheckpointStrategy,
    interval: usize,
    dir: &Path,
    tracer: Option<&Arc<Tracer>>,
) -> Vec<RunReport> {
    let written = Arc::new(AtomicU64::new(0));
    let mut reports = Vec::new();
    for _ in 0..50 {
        let cfg = config(strategy.clone(), interval, dir, 15);
        let inner = paper.build_solver(problem, SolverKind::Cg, 10_000);
        let (report, converged) = match tracer {
            Some(t) => {
                let backend: Arc<dyn StorageBackend> =
                    Arc::new(SeamBackend::new(Some(Arc::clone(t)), Arc::clone(&written)));
                let mut solver = SeamSolver::new(inner, Some(Arc::clone(t)));
                let report = FaultTolerantRunner::new(cfg)
                    .with_storage_backend(backend)
                    .run(&mut solver, problem);
                (report, solver.converged())
            }
            None => {
                let mut solver = inner;
                let report = FaultTolerantRunner::new(cfg).run(solver.as_mut(), problem);
                (report, solver.converged())
            }
        };
        reports.push(report);
        if converged {
            return reports;
        }
    }
    panic!("no convergence within 50 phases");
}

#[test]
fn wrapped_runner_phases_match_unwrapped_ones() {
    let paper = PaperWorkload::poisson(256, 12);
    let problem = paper.build();
    for (strategy, interval) in [
        (CheckpointStrategy::lossy_default(), 1),
        (CheckpointStrategy::Traditional, 2),
    ] {
        let (plain_dir, wrapped_dir) = (scratch("plain"), scratch("wrapped"));
        let tracer = Arc::new(Tracer::new());
        let plain = phases(&paper, &problem, &strategy, interval, &plain_dir, None);
        let wrapped = phases(
            &paper,
            &problem,
            &strategy,
            interval,
            &wrapped_dir,
            Some(&tracer),
        );
        assert!(
            plain.len() > 1,
            "{}: the solve must resume at least once",
            strategy.name()
        );
        // Whole reports: residual history, bytes trace, counters and the
        // simulated time all match.
        assert_eq!(plain, wrapped, "{}", strategy.name());
        let spans = tracer.spans();
        assert!(spans.iter().any(|s| s.name == "step"));
        assert!(spans.iter().any(|s| s.name == "fsync"));
        let _ = std::fs::remove_dir_all(plain_dir);
        let _ = std::fs::remove_dir_all(wrapped_dir);
    }
}

fn sharded(dir: &Path, tracer: Option<&Arc<Tracer>>) -> ShardedReport {
    let problem = PaperWorkload::poisson(256, 12).build();
    let mut a = (*problem.system.a).clone();
    for v in a.values_mut() {
        *v = -*v;
    }
    let mut b = (*problem.system.b).clone();
    b.scale(-1.0);
    let mut cfg = ShardedRunConfig::new(2, ShardedMethod::Cg);
    cfg.reduce_block = 256;
    cfg.checkpoint_interval = 5;
    cfg.ckpt_dir = Some(dir.to_path_buf());
    cfg.kills = vec![
        KillSpec {
            shard: 1,
            at_iteration: 12,
        },
        KillSpec {
            shard: 0,
            at_iteration: 23,
        },
    ];
    if let Some(t) = tracer {
        let (t, written) = (Arc::clone(t), Arc::new(AtomicU64::new(0)));
        cfg.backend_factory = Some(Arc::new(move |_| {
            Arc::new(SeamBackend::new(Some(Arc::clone(&t)), Arc::clone(&written)))
                as Arc<dyn StorageBackend>
        }));
    }
    run_sharded(&a, &b, &cfg)
}

#[test]
fn wrapped_sharded_run_matches_unwrapped_one() {
    let (plain_dir, wrapped_dir) = (scratch("shard-plain"), scratch("shard-wrapped"));
    let tracer = Arc::new(Tracer::new());
    let plain = sharded(&plain_dir, None);
    let wrapped = sharded(&wrapped_dir, Some(&tracer));
    assert!(plain.converged);
    assert_eq!(plain.iterations, wrapped.iterations);
    assert_eq!(plain.residual_trace, wrapped.residual_trace);
    assert_eq!(plain.restart_iterations, wrapped.restart_iterations);
    assert_eq!(plain.solution.as_slice(), wrapped.solution.as_slice());
    assert_eq!(plain.committed_epochs, wrapped.committed_epochs);
    assert_eq!(plain.shards, wrapped.shards);
    assert!(tracer.spans().iter().any(|s| s.name == "write"));
    let _ = std::fs::remove_dir_all(plain_dir);
    let _ = std::fs::remove_dir_all(wrapped_dir);
}
