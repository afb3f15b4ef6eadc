//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <sim-lifetime|served-hot|served-cold> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the workload end to end with tracing off and reports
//! the end-to-end metrics; `--trace 1` runs the per-layer ledger and the
//! traced workload instead. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! See `README.md` in this directory.

mod drive;
mod e2e;
mod inputs;
mod ledger;
mod measure;

use std::fmt::Write as _;
use std::process::ExitCode;

use inputs::Workload;

/// What a run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Reported metrics, in print order: `(name, value, unit)`.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Extra context printed before the result line (not part of it).
    pub details: Vec<(String, f64, &'static str)>,
    /// Why checks failed.
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn detail(&mut self, name: &str, value: f64, unit: &'static str) {
        self.details.push((name.to_string(), value, unit));
    }

    /// Records a failed check that is not tied to a single op.
    pub fn fail(&mut self, why: &str) {
        self.failed += 1;
        self.attempted += 1;
        self.problems.push(why.to_string());
    }
}

fn metrics_json(metrics: &[(String, f64, &'static str)]) -> String {
    let mut s = String::from("{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            s,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push('}');
    s
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|&s: &u64| s >= 1)
            .ok_or("--seconds must be at least 1")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <sim-lifetime|served-hot|served-cold> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = match (args.trace, args.workload) {
        (false, Workload::SimLifetime) => e2e::sim_lifetime(args.seed, args.seconds),
        (false, w) => e2e::served(w, args.seed, args.seconds),
        (true, w) => ledger::run(w, args.seed, args.seconds),
    };
    for problem in &outcome.problems {
        eprintln!("perfbench: check failed: {problem}");
    }
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"details\": {}}}",
        args.workload.name(),
        args.seed,
        metrics_json(&outcome.details)
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics_json(&outcome.metrics)
    );
    ExitCode::SUCCESS
}
