//! The closed-loop measurement shared by `hop-saturated` and `kernel-app`:
//! repeated trials of fresh graphs until the run's time is used, each
//! checked before it counts.

use crate::deploy::{self, Outcome, Plan};
use crate::stats::{median, Tail};
use crate::sys;
use crate::taps::SinkMode;
use crate::Ledger;
use std::time::Instant;

/// Correctness check of one run of a plan, given its source tuples and
/// seed.
pub type Check = fn(&Plan, &Outcome, u64, u64) -> Result<(), String>;

/// One graph of a trial: its plan, how many tuples its source emits, and
/// the check its outcome must pass.
pub struct Job<'a> {
    /// The optimised deployment.
    pub plan: &'a Plan,
    /// Source tuples per run.
    pub items: u64,
    /// Sink tap mode.
    pub mode: SinkMode,
    /// Correctness check of each run.
    pub check: Check,
}

/// Runs every job once, checked; returns source tuples, engine wall
/// seconds and the sampled latencies of the trial.
fn trial(jobs: &[Job], seed: u64) -> Result<(u64, f64, Vec<u64>), String> {
    let cfg = deploy::engine(seed, None);
    let (mut tuples, mut wall, mut lat) = (0u64, 0.0f64, Vec::new());
    for job in jobs {
        let out = deploy::deploy(job.plan, job.items, seed, job.mode)?.run(&cfg, None)?;
        deploy::check_clean(&out.report)?;
        (job.check)(job.plan, &out, job.items, seed)?;
        tuples += job.items;
        wall += out.report.wall.as_secs_f64();
        for s in out.sinks {
            lat.extend(s.latencies_ns);
        }
    }
    Ok((tuples, wall, lat))
}

/// Measures for `seconds`: one warm-up trial, then trials until the time
/// is used (at least three), then records the end-to-end metrics of the
/// closed loop. `seed` varies per trial so no two trials replay the same
/// stream.
pub fn measure(jobs: &[Job], seed: u64, seconds: f64, ledger: &mut Ledger) -> Result<(), String> {
    trial(jobs, seed.wrapping_sub(1))?;
    let start = Instant::now();
    let cpu0 = sys::process_cpu_ns();
    let (mut tps, mut tails) = (Vec::new(), Vec::new());
    let (mut tuples, mut samples) = (0u64, 0usize);
    while tps.len() < 3 || start.elapsed().as_secs_f64() < seconds {
        let (n, wall, lat) = trial(jobs, seed.wrapping_add(tps.len() as u64))?;
        let mut lat_ms: Vec<f64> = lat.iter().map(|&ns| ns as f64 / 1e6).collect();
        tails.push(Tail::of(&mut lat_ms).ok_or("too few latency samples in a trial for p99")?);
        tps.push(n as f64 / wall);
        tuples += n;
        samples += lat_ms.len();
    }
    let cpu = sys::process_cpu_ns() - cpu0;
    ledger.e2e("throughput_tps", median(&tps).unwrap_or(0.0));
    ledger.latency(Tail::median_of(&tails).ok_or("no trials")?);
    // Closed loop: every attempted tuple must arrive (checked per trial).
    ledger.e2e("delivered_ratio", 1.0);
    ledger.e2e("cpu_ns_per_tuple", cpu as f64 / tuples as f64);
    ledger.attempted += tuples;
    ledger.note(format!(
        "closed loop: {} trials, {tuples} tuples, {samples} latency samples (1 in {}); \
         throughput and latency percentiles are medians over trials",
        tps.len(),
        crate::taps::SAMPLE_EVERY
    ));
    let spread = |v: &[f64]| {
        format!(
            "{:.4} / {:.4} / {:.4}",
            v.iter().copied().fold(f64::INFINITY, f64::min),
            median(v).unwrap_or(0.0),
            v.iter().copied().fold(0.0, f64::max)
        )
    };
    let p50s: Vec<f64> = tails.iter().map(|t| t.p50).collect();
    let p90s: Vec<f64> = tails.iter().map(|t| t.p90).collect();
    ledger.note(format!(
        "per trial min / median / max: throughput {} tuples/s, p50 {} ms, p90 {} ms",
        spread(&tps),
        spread(&p50s),
        spread(&p90s)
    ));
    Ok(())
}
