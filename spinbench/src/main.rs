//! The SpinStreams benchmark: four workloads, their end-to-end metrics, and
//! a traced run that measures each layer from outside the program.
//!
//! ```text
//! spinbench --workload <hop-saturated|kernel-app|paced-keyed|paper-testbed>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Every run checks the program's outputs first. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
//! See README.md for why each workload exists and which layer metric
//! should move which end-to-end metric.

mod closed;
mod deploy;
mod hop;
mod kernel;
mod layers;
mod paced;
mod stats;
mod sys;
mod taps;
mod testbed;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static GLOBAL: sys::CountingAlloc = sys::CountingAlloc;

/// The end-to-end metrics every workload reports, with their units.
pub const E2E: [(&str, &str); 6] = [
    ("throughput_tps", "1/s"),
    ("lat_p50_ms", "ms"),
    ("delivered_ratio", "ratio"),
    ("setup_s", "s"),
    ("cpu_ns_per_tuple", "ns"),
    ("peak_heap_mb", "MB"),
];

/// The workloads, by name.
pub const WORKLOADS: [&str; 4] = [
    "hop-saturated",
    "kernel-app",
    "paced-keyed",
    "paper-testbed",
];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Tuples (or DES tuples) attempted.
    pub attempted: u64,
    /// Tuples dropped, dead-lettered or missing.
    pub failed: u64,
    e2e: Vec<(String, f64, String)>,
    extras: Vec<(String, f64, String)>,
    layers: Vec<(String, f64, String)>,
    notes: Vec<String>,
}

impl Ledger {
    /// Records end-to-end metric `name` (one of [`E2E`]).
    pub fn e2e(&mut self, name: &str, value: f64) {
        let unit = E2E
            .iter()
            .find(|(n, _)| *n == name)
            .map_or("?", |(_, u)| *u);
        self.e2e.push((name.into(), value, unit.into()));
    }

    /// Records the latency percentiles: p50 is an end-to-end metric, p90
    /// and p99 are printed beside it (see README.md for why they carry no
    /// bound).
    pub fn latency(&mut self, t: stats::Tail) {
        self.e2e("lat_p50_ms", t.p50);
        self.extra("lat_p90_ms", t.p90, "ms");
        self.extra("lat_p99_ms", t.p99, "ms");
    }

    /// Records a metric printed for people but not part of the result line.
    pub fn extra(&mut self, name: &str, value: f64, unit: &str) {
        self.extras.push((name.into(), value, unit.into()));
    }

    /// Records per-layer metric `name`.
    pub fn layer(&mut self, name: impl Into<String>, value: f64, unit: &str) {
        self.layers.push((name.into(), value, unit.into()));
    }

    /// Adds a human-readable note.
    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }
}

/// Times `f` as set-up: the median of fifteen samples, each the mean over
/// as many calls as fill 20 ms.
pub fn time_setup(mut f: impl FnMut() -> Result<(), String>) -> Result<f64, String> {
    let mut samples = Vec::with_capacity(15);
    for _ in 0..15 {
        let t0 = Instant::now();
        let mut calls = 0u32;
        while calls == 0 || t0.elapsed().as_secs_f64() < 0.02 {
            f()?;
            calls += 1;
        }
        samples.push(t0.elapsed().as_secs_f64() / f64::from(calls));
    }
    Ok(stats::median(&samples).expect("fifteen samples"))
}

fn run(args: &Args, ledger: &mut Ledger) -> Result<(), String> {
    if args.trace {
        return layers::run(args, ledger);
    }
    match args.workload.as_str() {
        "hop-saturated" => hop::run(args, ledger)?,
        "kernel-app" => kernel::run(args, ledger)?,
        "paced-keyed" => paced::run(args, ledger)?,
        _ => testbed::run(args, ledger)?,
    }
    ledger.e2e("peak_heap_mb", sys::peak_heap_mb());
    ledger.extra("peak_rss_mb", sys::peak_rss_mb(), "MB");
    let failed_ratio = ledger.failed as f64 / ledger.attempted.max(1) as f64;
    ledger.extra("failed_ratio", failed_ratio, "ratio");
    Ok(())
}

fn json_metrics(metrics: &[(String, f64, String)]) -> String {
    let mut s = String::from("{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push('}');
    s
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("spinbench: {e}");
            return ExitCode::from(2);
        }
    };
    let offered = (args.workload == "paced-keyed").then_some(paced::RATE);
    println!(
        "spinbench workload {} ({} run, {} s)",
        args.workload,
        if args.trace {
            "traced per-layer"
        } else {
            "end-to-end"
        },
        args.seconds
    );
    for line in sys::host_lines(args.seed, offered) {
        println!("{line}");
    }
    let mut ledger = Ledger::default();
    let outcome = run(&args, &mut ledger);
    for note in &ledger.notes {
        println!("note: {note}");
    }
    if let Err(e) = outcome {
        // A failed check fails the whole run; it is not a slow result.
        println!("check failed: {e}");
        println!(
            "{{\"correct\": false, \"attempted\": {}, \"failed\": {}, \"metrics\": {{}}}}",
            ledger.attempted.max(1),
            ledger.failed.max(1)
        );
        return ExitCode::FAILURE;
    }
    let shown = if args.trace {
        &ledger.layers
    } else {
        &ledger.e2e
    };
    for (name, value, unit) in shown.iter().chain(&ledger.extras) {
        println!("{name:<40} {value:>16.6} {unit}");
    }
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        ledger.attempted.max(1),
        ledger.failed,
        json_metrics(shown)
    );
    ExitCode::SUCCESS
}
