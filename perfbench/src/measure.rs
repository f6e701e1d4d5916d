//! One benchmark run: set-up, a closed loop of verified solves for the
//! requested seconds, the correctness checks, and the metrics.
//!
//! Without tracing every measured solve carries only the solver seam's
//! step-boundary instants.  With tracing, solves alternate between traced
//! (every seam call recorded as a span) and untraced, so the tracing
//! overhead is the difference of the two halves' `time_to_solution_s`
//! measured in one process; the per-layer numbers come from the traced
//! half and from direct calls on the workload's own data.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

use crate::layers;
use crate::seams::CKPT;
use crate::stats::{median, metrics_json, peak_rss_mb, tail, Json, Metric};
use crate::trace::{chrome_trace_json, covered_ns, self_times_ns, Span, Tracer};
use crate::workload::{setup, Bench, Solve, Spec, ThreadCap, Workload};

/// Measured solves per run at least (per half when tracing).
pub const MIN_SOLVES: usize = 3;

/// The per-layer metrics `BENCHMARK.json` lists: those every workload
/// reports, in its order.
pub const PER_LAYER: [&str; 22] = [
    "solvers.steps",
    "solvers.precond_apply_ms",
    "solvers.precond_apply_gbs_computed",
    "sparse.spmv_ms",
    "sparse.spmv_gbs_computed",
    "sparse.triad_gbs",
    "shard.halo_doubles",
    "shard.rollbacks",
    "shard.halo_replays",
    "compress.sz_encode_ms",
    "compress.sz_delta_encode_ms",
    "compress.sz_decode_ms",
    "compress.sz_chain_decode_ms",
    "compress.ratio",
    "ckpt.crc32_gbs",
    "ckpt.push_ms",
    "ckpt.open_read_ms",
    "ckpt.checkpoints",
    "ckpt.write_calls",
    "ckpt.read_mb",
    "core.runner_self_s",
    "trace.overhead_s",
];

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Workload seed (crash schedule and kill specs only).
    pub seed: u64,
    /// Seconds of closed-loop solves to measure.
    pub seconds: f64,
    /// Whether to run the traced variant.
    pub trace: bool,
    /// Directory for checkpoints, traces and cross-run signatures.
    pub out_dir: PathBuf,
    /// Only time one set-up and print its seconds (the child side of the
    /// `setup_s` measurement).
    pub setup_only: bool,
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Whether every check passed.
    pub correct: bool,
    /// Solves attempted (the warm-up solve included).
    pub attempted: usize,
    /// Solves that failed a check.
    pub failed: usize,
    /// Why checks failed.
    pub problems: Vec<String>,
    /// The metrics of the final JSON line: the gated end-to-end ones, or
    /// `PER_LAYER` when tracing.
    pub metrics: Vec<Metric>,
    /// Every end-to-end metric, with sample counts.
    pub report: Json,
    /// The full per-layer table (traced runs only).
    pub layers: Option<Json>,
    /// Host description.
    pub host: Json,
    /// Where the Chrome trace was written (traced runs only).
    pub trace_file: Option<PathBuf>,
}

struct Measured {
    id: u64,
    traced: bool,
    solve: Solve,
}

fn ms(window: &(Instant, Instant)) -> f64 {
    (window.1 - window.0).as_secs_f64() * 1e3
}

/// Runs the benchmark described by `opts`.
///
/// # Errors
/// An unknown workload, or a checkpoint directory that cannot be created.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let workload = Workload::new(&opts.workload, opts.seed)
        .ok_or_else(|| format!("unknown workload '{}'", opts.workload))?;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let _cap = ThreadCap::new(threads);
    let root = opts
        .out_dir
        .join(format!("ckpt-{}-{}", workload.name, std::process::id()));

    // `setup_s` times set-ups in child processes, one before each solve,
    // so they sample the same host conditions as the solves and leave
    // this process's memory, and so `peak_rss_mb`, alone.
    let bench = setup(&workload, &root, threads)
        .map_err(|e| format!("creating {}: {e}", root.display()))?;
    let mut setup_times = vec![setup_in_child(opts)?];
    let tracer = opts.trace.then(|| Arc::new(Tracer::new()));
    // Warm-up solve: verified and counted, not timed.
    let warm = bench.solve(0, None);
    let mut solves: Vec<Measured> = Vec::new();
    let start = Instant::now();
    let mut id = 1u64;
    loop {
        setup_times.push(setup_in_child(opts)?);
        let traced = tracer.is_some() && id.is_multiple_of(2);
        let solve = bench.solve(id, if traced { tracer.as_ref() } else { None });
        solves.push(Measured { id, traced, solve });
        id += 1;
        let count = |t: bool| solves.iter().filter(|m| m.traced == t).count();
        let enough = count(false) >= MIN_SOLVES && (tracer.is_none() || count(true) >= MIN_SOLVES);
        if enough && start.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }
    // Read before the reference solves below, which are not part of the
    // workload.
    let peak_rss = peak_rss_mb();
    let failure_free_steps = bench.failure_free_steps();

    // Correctness: each solve verified its residual; within the seed every
    // solve must have the same shape, and so must earlier runs.
    let mut problems = Vec::new();
    let reference = warm.signature.clone();
    let mut failed = 0;
    for (id, solve) in std::iter::once((0, &warm)).chain(solves.iter().map(|m| (m.id, &m.solve))) {
        let why = solve.failure.clone().or_else(|| {
            (solve.signature != reference).then(|| {
                format!(
                    "shape differs from solve 0: {} vs {}",
                    solve.signature.line(),
                    reference.line()
                )
            })
        });
        if let Some(why) = why {
            failed += 1;
            problems.push(format!("solve {id}: {why}"));
        }
    }
    if failure_free_steps == 0 {
        problems.push("the failure-free reference solve did not converge".to_string());
    }
    if let Err(e) = check_across_runs(opts, &reference) {
        problems.push(e);
    }
    let attempted = solves.len() + 1;

    let untraced: Vec<&Solve> = solves
        .iter()
        .filter(|m| !m.traced)
        .map(|m| &m.solve)
        .collect();
    let verified_seconds = |solves: &mut dyn Iterator<Item = &Solve>| -> Vec<f64> {
        solves
            .filter(|s| s.failure.is_none())
            .map(|s| s.seconds)
            .collect()
    };
    let tts = verified_seconds(&mut untraced.iter().copied());
    let time_to_solution = median(&tts);
    let setup_s = median(&setup_times);

    let report = e2e_report(
        &bench,
        &untraced,
        &reference,
        failure_free_steps,
        (setup_s, setup_times.len()),
        peak_rss,
        failed as f64 / attempted as f64,
    );
    let mut host = host_json(&root, threads);
    let mut metrics = vec![
        Metric::new("time_to_solution_s", time_to_solution, "s"),
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("peak_rss_mb", peak_rss, "MB"),
    ];
    let mut layers_json = None;
    let mut trace_file = None;
    if let Some(tracer) = &tracer {
        let scratch = root.join("direct");
        std::fs::create_dir_all(&scratch)
            .map_err(|e| format!("creating {}: {e}", scratch.display()))?;
        // Snapshots one checkpoint interval apart for the direct SZ calls.
        let interval = match &bench.workload.spec {
            Spec::Cg(c) => c.interval,
            Spec::Sharded(s) => s.interval,
        };
        let snap_at: Vec<usize> = (0..4).map(|j| 30 + j * interval).collect();
        let snaps = bench.snapshots(&snap_at);
        let direct = if snaps.len() == snap_at.len() {
            layers::measure(&bench, &snaps, &scratch)
        } else {
            problems.push("the snapshot solve converged before its last snapshot".to_string());
            Vec::new()
        };
        let traced: Vec<&Measured> = solves.iter().filter(|m| m.traced).collect();
        let traced_tts = verified_seconds(&mut traced.iter().map(|m| &m.solve));
        let overhead = median(&traced_tts) - time_to_solution;
        let (table, all) = layer_table(tracer, &traced, &reference, &direct, overhead);
        if let Some(triad) = direct.iter().find(|m| m.name == "sparse.triad_gbs") {
            host = host.num("triad_gbs", triad.value);
        }
        metrics = PER_LAYER
            .iter()
            .map(|name| {
                all.iter()
                    .find(|m| m.name == *name)
                    .cloned()
                    .unwrap_or_else(|| Metric::new(*name, f64::NAN, "missing"))
            })
            .collect();
        let dir = opts.out_dir.join("trace");
        let stem = format!("{}-seed{}", workload.name, opts.seed);
        let file = dir.join(format!("{stem}.trace.json"));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&file, chrome_trace_json(&tracer.spans(), workload.name)))
            .and_then(|()| {
                std::fs::write(
                    dir.join(format!("{stem}.layers.json")),
                    table.render() + "\n",
                )
            });
        if let Err(e) = written {
            problems.push(format!("writing the trace: {e}"));
        }
        layers_json = Some(table);
        trace_file = Some(file);
    }
    let _ = std::fs::remove_dir_all(&root);
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted,
        failed,
        problems,
        metrics,
        report,
        layers: layers_json,
        host,
        trace_file,
    })
}

/// Times one set-up of the workload in this process under a directory of
/// its own: what a `--setup-only 1` child runs for `setup_in_child`.
///
/// # Errors
/// An unknown workload, or a checkpoint directory that cannot be created.
pub fn setup_once(opts: &Options) -> Result<f64, String> {
    let workload = Workload::new(&opts.workload, opts.seed)
        .ok_or_else(|| format!("unknown workload '{}'", opts.workload))?;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let _cap = ThreadCap::new(threads);
    let root = opts
        .out_dir
        .join(format!("setup-{}-{}", workload.name, std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let t = Instant::now();
    let bench = setup(&workload, &root, threads)
        .map_err(|e| format!("creating {}: {e}", root.display()))?;
    let seconds = t.elapsed().as_secs_f64();
    drop(bench);
    let _ = std::fs::remove_dir_all(&root);
    Ok(seconds)
}

/// Runs this binary with `--setup-only 1` and returns the set-up seconds
/// it prints.
fn setup_in_child(opts: &Options) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--workload",
            &opts.workload,
            "--seed",
            &opts.seed.to_string(),
        ])
        .args(["--setup-only", "1"])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting a set-up process: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    match text.trim().parse::<f64>() {
        Ok(seconds) if out.status.success() => Ok(seconds),
        _ => Err(format!("a set-up process failed ({})", out.status)),
    }
}

/// Compares this run's solve shape with the one an earlier run of the same
/// binary recorded for the same workload and seed, or records it.
fn check_across_runs(opts: &Options, sig: &crate::workload::Signature) -> Result<(), String> {
    let exe = std::env::current_exe()
        .and_then(std::fs::read)
        .map_err(|e| format!("reading the benchmark binary: {e}"))?;
    let hash = exe.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    });
    let dir = opts.out_dir.join("signatures");
    let file = dir.join(format!(
        "{}-seed{}-{hash:016x}.txt",
        opts.workload, opts.seed
    ));
    let line = sig.line();
    match std::fs::read_to_string(&file) {
        Ok(prev) if prev.trim() == line => Ok(()),
        Ok(prev) => Err(format!(
            "solve shape differs from an earlier run with this seed: {line} vs {}",
            prev.trim()
        )),
        Err(_) => std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&file, line + "\n"))
            .map_err(|e| format!("recording the solve shape: {e}")),
    }
}

fn sample_metric(what: &str, unit: &str, value: f64, samples: usize) -> Json {
    Json::new()
        .num("value", value)
        .str("unit", unit)
        .int("samples", samples as u64)
        .str("what", what)
}

/// Every end-to-end metric, with units and sample counts.
fn e2e_report(
    bench: &Bench,
    untraced: &[&Solve],
    sig: &crate::workload::Signature,
    failure_free_steps: usize,
    (setup_s, setups): (f64, usize),
    peak_rss: f64,
    failed_share: f64,
) -> Json {
    let good: Vec<&&Solve> = untraced.iter().filter(|s| s.failure.is_none()).collect();
    let tts: Vec<f64> = good.iter().map(|s| s.seconds).collect();
    let stalls: Vec<f64> = good.iter().flat_map(|s| s.stalls.iter().map(ms)).collect();
    let resumes: Vec<f64> = good.iter().flat_map(|s| s.resumes.iter().map(ms)).collect();
    let mut j = Json::new()
        .obj(
            "time_to_solution_s",
            sample_metric(
                "median wall time per verified solve",
                "s",
                median(&tts),
                tts.len(),
            ),
        )
        .obj(
            "setup_s",
            sample_metric(
                "median of the set-ups, one in a child process before each solve",
                "s",
                setup_s,
                setups,
            ),
        )
        .obj(
            "peak_rss_mb",
            Json::new().num("value", peak_rss).str("unit", "MB"),
        );
    if !stalls.is_empty() {
        j = j.obj(
            "ckpt_stall_p50_ms",
            sample_metric(
                "step-to-step gap spanning a commit",
                "ms",
                median(&stalls),
                stalls.len(),
            ),
        );
        j = match tail(&stalls) {
            Some((p, v)) => j.obj(
                "ckpt_stall_tail_ms",
                sample_metric("stall tail", "ms", v, stalls.len()).num("percentile", p),
            ),
            None => j.obj(
                "ckpt_stall_tail_ms",
                Json::new()
                    .raw("value", "null".into())
                    .str("unit", "ms")
                    .int("samples", stalls.len() as u64),
            ),
        };
    }
    if !resumes.is_empty() {
        j = j.obj(
            "resume_p50_ms",
            sample_metric(
                "crash to first iteration",
                "ms",
                median(&resumes),
                resumes.len(),
            ),
        );
    }
    j = j
        .obj(
            "extra_iterations",
            Json::new()
                .num("value", sig.steps as f64 - failure_free_steps as f64)
                .str("unit", "count")
                .int("executed", sig.steps as u64)
                .int("failure_free", failure_free_steps as u64),
        )
        .obj(
            "stored_mb_per_solve",
            Json::new()
                .num("value", sig.stored_bytes as f64 / 1e6)
                .str("unit", "MB"),
        );
    if let Spec::Cg(_) = bench.workload.spec {
        let model: Vec<f64> = good.iter().map(|s| s.model_total_s).collect();
        j = j.obj(
            "model_total_s",
            Json::new().num("value", median(&model)).str("unit", "s"),
        );
    }
    j.obj(
        "failed_share",
        Json::new().num("value", failed_share).str("unit", "ratio"),
    )
    .obj(
        "shape",
        Json::new()
            .int("phases", sig.phases as u64)
            .int("checkpoints", sig.checkpoints as u64)
            .int("delta_checkpoints", sig.delta_checkpoints as u64),
    )
}

/// Backend operations the per-layer table reports.
const OPS: [&str; 10] = [
    "write",
    "fsync",
    "fsync_dir",
    "rename",
    "remove",
    "read",
    "read_prefix",
    "list_dir",
    "create_dir_all",
    "file_len",
];

/// Builds the per-layer table from the traced solves' spans and the direct
/// calls; returns it as JSON plus every metric as a flat list.
fn layer_table(
    tracer: &Tracer,
    traced: &[&Measured],
    sig: &crate::workload::Signature,
    direct: &[Metric],
    overhead: f64,
) -> (Json, Vec<Metric>) {
    let spans = tracer.spans();
    let self_ns = self_times_ns(&spans);
    let mut all: Vec<Metric> = Vec::new();
    let p50 = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    };
    for (metric, span) in [
        ("solvers.step_ms", "step"),
        ("solvers.build_ms", "build_solver"),
        ("solvers.capture_ms", "capture"),
        ("solvers.restart_ms", "restart"),
        ("solvers.restore_ms", "restore"),
    ] {
        let v = p50(span);
        if !v.is_empty() {
            all.push(Metric::new(metric, median(&v), "ms"));
        }
    }
    all.push(Metric::new("solvers.steps", sig.steps as f64, "count"));
    all.extend(direct.iter().cloned());
    all.push(Metric::new(
        "shard.halo_doubles",
        sig.halo_doubles as f64,
        "count",
    ));
    all.push(Metric::new(
        "shard.rollbacks",
        sig.rollbacks as f64,
        "count",
    ));
    all.push(Metric::new(
        "shard.halo_replays",
        sig.halo_replays as f64,
        "count",
    ));
    let sharded = spans.iter().any(|s| s.name == "run_sharded");
    all.push(Metric::new(
        "shard.epochs",
        if sharded { sig.checkpoints as f64 } else { 0.0 },
        "count",
    ));
    all.push(Metric::new(
        "ckpt.checkpoints",
        sig.checkpoints as f64,
        "count",
    ));
    all.push(Metric::new(
        "ckpt.delta_checkpoints",
        sig.delta_checkpoints as f64,
        "count",
    ));
    let good: Vec<&Solve> = traced
        .iter()
        .map(|m| &m.solve)
        .filter(|s| s.failure.is_none())
        .collect();
    let med_of = |f: &dyn Fn(&Solve) -> f64| median(&good.iter().map(|s| f(s)).collect::<Vec<_>>());
    all.push(Metric::new(
        "ckpt.failed_checkpoints",
        med_of(&|s| s.failed_checkpoints as f64),
        "count",
    ));
    all.push(Metric::new(
        "ckpt.io_retries",
        med_of(&|s| s.io_retries as f64),
        "count",
    ));

    // Per-solve sums over the traced solves, reported as medians.
    let by_solve = |id: u64| spans.iter().enumerate().filter(move |(_, s)| s.solve == id);
    let ids: Vec<u64> = traced
        .iter()
        .filter(|m| m.solve.failure.is_none())
        .map(|m| m.id)
        .collect();
    let per_solve =
        |f: &dyn Fn(u64) -> f64| median(&ids.iter().map(|&id| f(id)).collect::<Vec<_>>());
    for op in OPS {
        let calls = per_solve(&|id| {
            by_solve(id)
                .filter(|(_, s)| s.layer == CKPT && s.name == op)
                .count() as f64
        });
        let op_ms = per_solve(&|id| {
            by_solve(id)
                .filter(|(_, s)| s.layer == CKPT && s.name == op)
                .map(|(_, s)| s.dur_ns() as f64 / 1e6)
                .sum()
        });
        let mb = per_solve(&|id| {
            by_solve(id)
                .filter(|(_, s)| s.layer == CKPT && s.name == op)
                .map(|(_, s)| s.bytes as f64 / 1e6)
                .sum()
        });
        all.push(Metric::new(format!("ckpt.{op}_calls"), calls, "count"));
        all.push(Metric::new(format!("ckpt.{op}_ms"), op_ms, "ms"));
        if matches!(op, "write" | "read" | "read_prefix") {
            all.push(Metric::new(format!("ckpt.{op}_mb"), mb, "MB"));
        }
    }
    // Self time per layer, per solve.
    let mut layer_self: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut runner_self = Vec::new();
    let mut walls = Vec::new();
    for &id in &ids {
        let mut sums: BTreeMap<&str, f64> = BTreeMap::new();
        let mut runner = 0.0;
        for (i, s) in by_solve(id) {
            *sums.entry(s.layer).or_default() += self_ns[i] as f64 * 1e-9;
            if s.name == "run" || s.name == "run_sharded" {
                runner += self_ns[i] as f64 * 1e-9;
            }
            if s.name == "solve" {
                walls.push(s.dur_ns() as f64 * 1e-9);
            }
        }
        for layer in ["bench", "lcr_core", "lcr_solvers", "lcr_ckpt"] {
            layer_self
                .entry(layer)
                .or_default()
                .push(sums.get(layer).copied().unwrap_or(0.0));
        }
        runner_self.push(runner);
    }
    let wall = median(&walls);
    let mut shares = Json::new();
    for (layer, v) in &layer_self {
        let m = median(v);
        all.push(Metric::new(format!("self.{layer}_s"), m, "s"));
        shares = shares.num(layer, m / wall);
    }
    all.push(Metric::new("core.runner_self_s", median(&runner_self), "s"));

    // Stall and resume decomposition: the window minus the spans of other
    // layers inside it.
    let window_rest = |windows: &[(u64, u64)], counts: &dyn Fn(&Span) -> bool| -> Vec<f64> {
        windows
            .iter()
            .map(|&(a, b)| {
                let w = Span {
                    name: "window",
                    layer: "bench",
                    start_ns: a,
                    end_ns: b,
                    parent: None,
                    solve: 0,
                    tid: 0,
                    bytes: 0,
                };
                let kids: Vec<usize> = spans
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.end_ns > a && s.start_ns < b && counts(s))
                    .map(|(i, _)| i)
                    .collect();
                (b - a).saturating_sub(covered_ns(&w, &kids, &spans)) as f64 / 1e6
            })
            .collect()
    };
    let to_ns = |w: &(Instant, Instant)| (tracer.ns_at(w.0), tracer.ns_at(w.1));
    let stalls: Vec<(u64, u64)> = good
        .iter()
        .flat_map(|s| s.stalls.iter().map(to_ns))
        .collect();
    let resumes: Vec<(u64, u64)> = good
        .iter()
        .flat_map(|s| s.resumes.iter().map(to_ns))
        .collect();
    if !stalls.is_empty() {
        let stall_ms: Vec<f64> = stalls.iter().map(|&(a, b)| (b - a) as f64 / 1e6).collect();
        let rest = window_rest(&stalls, &|s: &Span| s.layer == CKPT || s.name == "capture");
        all.push(Metric::new(
            "traced.ckpt_stall_p50_ms",
            median(&stall_ms),
            "ms",
        ));
        all.push(Metric::new("core.encode_commit_ms", median(&rest), "ms"));
    }
    if !resumes.is_empty() {
        let resume_ms: Vec<f64> = resumes.iter().map(|&(a, b)| (b - a) as f64 / 1e6).collect();
        let rest = window_rest(&resumes, &|s: &Span| {
            s.layer == CKPT || matches!(s.name, "build_solver" | "restart" | "restore")
        });
        all.push(Metric::new(
            "traced.resume_p50_ms",
            median(&resume_ms),
            "ms",
        ));
        all.push(Metric::new("core.recover_ms", median(&rest), "ms"));
    }
    all.push(Metric::new("traced.time_to_solution_s", wall, "s"));
    all.push(Metric::new("trace.overhead_s", overhead, "s"));
    all.push(Metric::new("trace.spans", spans.len() as f64, "count"));
    let table = metrics_json(&all)
        .obj("self_share_of_solve", shares)
        .int("traced_solves", ids.len() as u64);
    (table, all)
}

/// The host: cores, caches, the checkpoint directory's file system and
/// the flush policy.
fn host_json(ckpt_dir: &Path, threads: usize) -> Json {
    let mut caches = Json::new();
    for i in 0..8 {
        let base = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let read =
            |f: &str| std::fs::read_to_string(format!("{base}/{f}")).map(|s| s.trim().to_string());
        if let (Ok(level), Ok(kind), Ok(size)) = (read("level"), read("type"), read("size")) {
            caches = caches.str(&format!("L{level}_{kind}"), &size);
        }
    }
    let (fs, options) = mount_of(ckpt_dir).unwrap_or_else(|| ("unknown".into(), String::new()));
    Json::new()
        .int("nproc", threads as u64)
        .obj("caches", caches)
        .str("ckpt_fs", &fs)
        .str("ckpt_mount_options", &options)
        .str(
            "ckpt_flush",
            "synchronous: write, fsync per file, rename, directory fsync (Persistence::disk, no write-behind)",
        )
}

/// File-system type and mount options of the mount holding `dir`.
fn mount_of(dir: &Path) -> Option<(String, String)> {
    let dir = std::fs::canonicalize(dir).ok()?;
    let mounts = std::fs::read_to_string("/proc/mounts").ok()?;
    mounts
        .lines()
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            (f.len() >= 4 && dir.starts_with(f[1]))
                .then(|| (f[1].len(), f[2].to_string(), f[3].to_string()))
        })
        .max_by_key(|m| m.0)
        .map(|(_, fs, opts)| (fs, opts))
}
