//! The SD-Query benchmark: one workload per invocation.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-4d --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Run from the repository root. It builds the seeded workload, drives the
//! program through its public API for `--seconds`, checks every answer
//! against an exact baseline and prints, as the last line of stdout, one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer ones with `--trace 1`.
//! The line before it is a report with provenance, sample counts and, for a
//! traced run, self time per span; a traced run also writes its spans to
//! `.bench_traces/`. The durable store lives under `.bench_work/` and is
//! removed before exit. Any wrong answer makes the exit code 1.

mod bench;
mod check;
mod clock;
mod report;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use bench::{Config, Run};
use report::{metrics_object, num, provenance, quote};
use workload::{spec, Seeds, SPECS};

const USAGE: &str = "usage: sdq-perfbench --workload NAME --seed N --seconds S --trace 0|1";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("expected an integer"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = spec(&args.workload) else {
        let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
        eprintln!(
            "unknown workload {:?}; one of {}\n{USAGE}",
            args.workload,
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    let dir = PathBuf::from(".bench_work").join(format!(
        "{}-{}-{}",
        spec.name,
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        return ExitCode::from(1);
    }
    let cfg = Config {
        spec: spec.clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        dir,
    };
    let prov = provenance(spec, &Seeds::new(args.seed), &cfg.dir);
    let result = bench::run(&cfg);
    let _ = std::fs::remove_dir_all(&cfg.dir);
    let _ = std::fs::remove_dir(".bench_work");
    match result {
        Ok(run) => finish(&cfg, &prov, &run),
        Err(e) => {
            eprintln!("{}: run aborted: {e}", spec.name);
            ExitCode::from(1)
        }
    }
}

fn finish(cfg: &Config, prov: &str, run: &Run) -> ExitCode {
    let e2e = run.end_to_end(false);
    let layers = if cfg.trace {
        run.per_layer()
    } else {
        Vec::new()
    };
    let correct = run.failed == 0;

    let mut trace_file = "null".to_string();
    let mut self_times = String::from("{}");
    if cfg.trace {
        let path = PathBuf::from(".bench_traces")
            .join(format!("{}-seed{}.jsonl", cfg.spec.name, cfg.seed));
        match run.tracer.write_jsonl(&path) {
            Ok(()) => trace_file = quote(&path.display().to_string()),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
        let rows: Vec<String> = run
            .tracer
            .self_times()
            .iter()
            .map(|(name, (calls, total, own))| {
                format!(
                    "{}: {{\"calls\": {calls}, \"total_ms\": {}, \"self_ms\": {}}}",
                    quote(name),
                    num(*total),
                    num(*own)
                )
            })
            .collect();
        self_times = format!("{{{}}}", rows.join(", "));
    }
    let errors: Vec<String> = run.errors.iter().map(|e| quote(e)).collect();
    println!(
        concat!(
            "{{\"report\": {{\"provenance\": {}, \"seconds\": {}, \"trace\": {}, ",
            "\"query_digest\": \"{:016x}\", \"answer_digest\": \"{:016x}\", ",
            "\"attempted\": {}, \"failed\": {}, \"errors\": [{}], ",
            "\"end_to_end\": {}, \"ungated\": {}, \"per_layer\": {}, \"self_time\": {}, ",
            "\"trace_file\": {}}}}}"
        ),
        prov,
        num(cfg.seconds),
        cfg.trace,
        run.query_digest,
        run.answer_digest,
        run.attempted,
        run.failed,
        errors.join(", "),
        metrics_object(&e2e, true),
        metrics_object(&run.ungated(), true),
        metrics_object(&layers, true),
        self_times,
        trace_file,
    );
    let printed: Vec<_> = if cfg.trace {
        layers.clone()
    } else {
        e2e.iter().cloned().chain(run.ungated()).collect()
    };
    for m in &printed {
        eprintln!(
            "{:>28} {:>16} {:<6} n={}",
            m.name,
            num(m.value),
            m.unit,
            m.samples
        );
    }
    for e in &run.errors {
        eprintln!("FAILED: {e}");
    }
    let shown = if cfg.trace { &layers } else { &e2e };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        run.attempted,
        run.failed,
        metrics_object(shown, false)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&strings(&[
            "--workload",
            "anti-6d",
            "--seed",
            "3",
            "--seconds",
            "20",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("anti-6d", 3, 20.0, true)
        );
        assert!(parse_args(&strings(&[
            "--workload",
            "x",
            "--seed",
            "3",
            "--seconds",
            "20"
        ]))
        .is_err());
        assert!(parse_args(&strings(&[
            "--workload",
            "x",
            "--seed",
            "-1",
            "--seconds",
            "20",
            "--trace",
            "0"
        ]))
        .is_err());
        assert!(parse_args(&strings(&[
            "--workload",
            "x",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0"
        ]))
        .is_err());
        assert!(parse_args(&strings(&[
            "--workload",
            "x",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ]))
        .is_err());
        assert!(parse_args(&strings(&["--bogus", "1"])).is_err());
    }
}
