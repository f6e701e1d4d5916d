//! Benchmark entry point.
//!
//! ```text
//! perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! Prints a `HOST` line, a `REPORT` line with every end-to-end metric, a
//! `LAYERS` line with the per-layer table when tracing, and as the last
//! line one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`.  Everything the run writes goes under `.bench_run/` in the
//! current directory.  Exits 1 when a correctness check fails, 2 on bad
//! usage.  `--setup-only 1` only times one set-up and prints its seconds;
//! the benchmark runs itself that way for `setup_s`.

use std::path::PathBuf;
use std::process::ExitCode;

use lcr_perfbench::measure::{run, setup_once, Options};
use lcr_perfbench::stats::{metrics_json, Json};
use lcr_perfbench::workload::NAMES;

/// The seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

fn parse() -> Result<Options, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
        out_dir: PathBuf::from(".bench_run"),
        setup_only: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => opts.workload = value,
            "--seed" => opts.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => opts.trace = flag_bool(&flag, &value)?,
            "--setup-only" => opts.setup_only = flag_bool(&flag, &value)?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !NAMES.contains(&opts.workload.as_str()) {
        return Err(format!("--workload must be one of {}", NAMES.join(", ")));
    }
    Ok(opts)
}

fn flag_bool(flag: &str, value: &str) -> Result<bool, String> {
    match value {
        "0" => Ok(false),
        "1" => Ok(true),
        _ => Err(format!("{flag} takes 0 or 1")),
    }
}

fn main() -> ExitCode {
    let opts = match parse() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if opts.setup_only {
        return match setup_once(&opts) {
            Ok(seconds) => {
                println!("{seconds}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(2)
            }
        };
    }
    let outcome = match run(&opts) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for problem in &outcome.problems {
        eprintln!("perfbench: check failed: {problem}");
    }
    println!("HOST {}", outcome.host.render());
    println!(
        "REPORT {}",
        Json::new()
            .str("workload", &opts.workload)
            .int("seed", opts.seed)
            .obj("metrics", outcome.report.clone())
            .render()
    );
    if let Some(layers) = &outcome.layers {
        println!("LAYERS {}", layers.render());
    }
    if let Some(file) = &outcome.trace_file {
        println!("TRACE {}", file.display());
    }
    println!(
        "{}",
        Json::new()
            .bool("correct", outcome.correct)
            .int("attempted", outcome.attempted as u64)
            .int("failed", outcome.failed as u64)
            .obj("metrics", metrics_json(&outcome.metrics))
            .render()
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
