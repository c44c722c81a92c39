//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one line per metric (name, value, unit, samples), a facts
//! line, and as its last line the JSON result object.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::gen::Workload;
use perfbench::host;
use perfbench::run::{self, RunConfig};

const USAGE: &str = "usage: perfbench --workload <serial_small|inventory_bulk|churn_mixed> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}\n{USAGE}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad(&"unknown workload"))?);
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}\n{USAGE}")),
        }
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive\n{USAGE}"));
    }
    Ok(RunConfig {
        workload: workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?,
        seed,
        seconds,
        trace,
        run_dir: PathBuf::from(".bench_run").join(std::process::id().to_string()),
        tamper: false,
    })
}

/// JSON string literal; the keys and units printed here need no more
/// than quote and backslash escaping, but facts come from the host.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // One CPU per client connection: a lone closed-loop caller keeps
    // client and daemon on one CPU instead of bouncing wake-ups across
    // idle CPUs, which on a small VM swings latency twofold run to run.
    let cpus = match host::confine_to_cpus(cfg.workload.connections()) {
        Ok(cpus) => cpus,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = run::run(&cfg, &PathBuf::from("."));
    if let Some(parent) = cfg.run_dir.parent() {
        // Only succeeds once no other run is using it.
        let _ = std::fs::remove_dir(parent);
    }
    let mut outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", cfg.workload.name());
            return ExitCode::FAILURE;
        }
    };
    let cpus: Vec<String> = cpus.iter().map(usize::to_string).collect();
    outcome.facts.push(("cpus".into(), cpus.join(",")));
    for m in &outcome.metrics {
        println!("{:<32} {:>16.4} {:<6} {}", m.name, m.value, m.unit, m.note);
    }
    println!(
        "{:<32} {:>16.6} {:<6} failed={} attempted={}",
        "error_ratio",
        outcome.error_ratio(),
        "ratio",
        outcome.failed,
        outcome.attempted
    );
    for e in &outcome.errors {
        println!("error: {e}");
    }
    let facts: Vec<String> = outcome
        .facts
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    println!("{{\"facts\": {{{}}}}}", facts.join(", "));
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {:?}, \"unit\": {}}}",
                json_str(&m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
