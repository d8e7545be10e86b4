//! The repository benchmark: runs one workload from a seed, checks every
//! answer against an independent path, and prints the metrics as one
//! JSON line. `run.py` builds this program and the `cce` binary first;
//! see `README.md` for the workloads and metrics.
//!
//! ```text
//! perfbench --cce <path/to/cce> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` makes a
//! separate traced run that prints the per-layer metrics and writes its
//! spans to `.perfbench/trace/`. Exit status: 0 when every answer
//! checked out, 1 when some did not (the result line says how many), 2
//! when the run could not be made (no result line).

mod batch;
mod daemon;
mod data;
mod http;
mod inproc;
mod layers;
mod serve;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;

pub struct Opts {
    pub cce: PathBuf,
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch space for this run's generated inputs, removed at exit.
    pub work: PathBuf,
    /// Where traced runs leave their spans.
    pub trace_dir: PathBuf,
}

/// What one run produced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value)` for the metrics of the run's kind, in any order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Context printed on the line before the result: sample counts and
    /// other bases.
    pub detail: Vec<(&'static str, f64)>,
}

/// End-to-end metrics and their units (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("explains_per_s", "1/s"),
    ("explain_p50_us", "us"),
    ("peak_rss_mb", "MiB"),
];

fn parse(argv: &[String]) -> Result<Opts, String> {
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let num = |v: String, flag: &str| {
        v.parse::<u64>()
            .map_err(|_| format!("{flag}: not a whole number: {v:?}"))
    };
    let workload = get("--workload")?;
    let seed = num(get("--seed")?, "--seed")?;
    let seconds = num(get("--seconds")?, "--seconds")?;
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    let root = PathBuf::from(".perfbench");
    Ok(Opts {
        cce: PathBuf::from(get("--cce")?),
        work: root.join(format!("work-{}", std::process::id())),
        trace_dir: root.join("trace"),
        workload,
        seed,
        seconds: seconds as f64,
        trace,
    })
}

fn json_pairs(pairs: &[(&str, f64)]) -> String {
    let items: Vec<String> = pairs.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    format!("{{{}}}", items.join(","))
}

/// The result line, listing exactly the metrics of the run's kind.
fn result_line(o: &Outcome, trace: bool) -> Result<String, String> {
    let expected: Vec<(&str, &str)> = if trace {
        layers::PER_LAYER.to_vec()
    } else {
        END_TO_END.to_vec()
    };
    let mut items = Vec::new();
    for (name, unit) in expected {
        let v = o
            .metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("workload did not measure {name}"))?;
        if !v.is_finite() {
            return Err(format!("{name} is not a finite number: {v}"));
        }
        items.push(format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"));
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        o.failed == 0,
        o.attempted,
        o.failed,
        items.join(",")
    ))
}

fn run(o: &Opts) -> Result<Outcome, String> {
    std::fs::create_dir_all(&o.work).map_err(|e| format!("{}: {e}", o.work.display()))?;
    match o.workload.as_str() {
        "batch-explain" => batch::run(o),
        "serve-live" => serve::run(o, &serve::LIVE),
        "serve-readonly" => serve::run(o, &serve::READONLY),
        "serve-paged" => serve::run(o, &serve::PAGED),
        "serve-sharded" => serve::run(o, &serve::SHARDED),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&argv) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&opts);
    let _ = std::fs::remove_dir_all(&opts.work);
    let line = outcome.and_then(|o| Ok((result_line(&o, opts.trace)?, o)));
    match line {
        Ok((line, o)) => {
            println!("{}", json_pairs(&o.detail));
            println!("{line}");
            if o.failed == 0 {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "perfbench: {} of {} checked operations failed",
                    o.failed, o.attempted
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
