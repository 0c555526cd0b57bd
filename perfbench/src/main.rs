//! The qunits benchmark: builds the engine from generated IMDb data, runs
//! one workload, checks every answer, and prints its metrics as one JSON
//! line on stdout. A human-readable report goes to stderr.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload uncached_typed --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! workload with spans around every layer call and prints the per-layer
//! metrics instead. See README.md for every metric and workload.

mod check;
mod run;
mod served;
mod setup;
mod spec;
mod stats;
mod trace;
mod uncached;

use std::path::Path;
use std::process::ExitCode;

const USAGE: &str =
    "usage: qunits-perfbench --workload <name> [--seed <n>] [--seconds <n>] [--trace <0|1>]";
const DEFAULT_SEED: u64 = 2009;
const DEFAULT_SECONDS: u64 = 20;

fn parse(args: impl Iterator<Item = String>) -> Result<(String, run::Args), String> {
    let mut workload = None;
    let mut out = run::Args {
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut args = args.peekable();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} wants a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => out.seed = number()?,
            "--seconds" => out.seconds = number()?.max(1),
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((workload, out))
}

/// `QUNITS_*` variables override the engine configuration at build time,
/// so a run with any of them set would not measure `EngineConfig::default()`.
fn engine_overrides() -> Vec<String> {
    std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("QUNITS_"))
        .collect()
}

fn json(outcome: &run::Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let (name, args) = match parse(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = spec::find(&name) else {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "perfbench: unknown workload {name:?}; one of {}",
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    let overrides = engine_overrides();
    if !overrides.is_empty() {
        eprintln!(
            "perfbench: refusing to run with engine overrides set: {}",
            overrides.join(", ")
        );
        return ExitCode::from(2);
    }
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let outcome = match run::run(workload, &args, &out) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for m in &outcome.metrics {
        if !m.value.is_finite() {
            eprintln!("perfbench: metric {} is not a number ({})", m.name, m.value);
            return ExitCode::FAILURE;
        }
        eprintln!("perfbench: {:<26} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!("{}", json(&outcome));
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<(String, run::Args), String> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_every_flag() {
        let (w, a) = args("--workload served_clicks --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(w, "served_clicks");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12, true));
        let (_, a) = args("--workload large_cold_start").unwrap();
        assert_eq!(
            (a.seed, a.seconds, a.trace),
            (DEFAULT_SEED, DEFAULT_SECONDS, false)
        );
    }

    #[test]
    fn rejects_bad_flags() {
        assert!(args("--seed 1").is_err());
        assert!(args("--workload x --trace 2").is_err());
        assert!(args("--workload x --seed -1").is_err());
        assert!(args("--workload x --bogus 1").is_err());
        assert!(args("--workload x --seed").is_err());
    }

    #[test]
    fn every_workload_is_findable() {
        for w in spec::WORKLOADS {
            assert!(std::ptr::eq(spec::find(w.name).unwrap(), w));
        }
    }
}
