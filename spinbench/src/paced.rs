//! `paced-keyed`: an open loop at one fixed offered rate. Zipf keys go to a
//! key-partitioned windowed aggregate that Algorithm 2 replicates with its
//! key partitioning, with checkpointing on. Mailboxes are mostly empty, so
//! latency is set by wake-ups, coalescing flush, key routing and
//! checkpoint alignment rather than by hop cost.

use crate::deploy::{self, Outcome, Plan};
use crate::stats::{delivery, intended_latencies, median, percentile, Arrival, Tail};
use crate::taps::{Digests, SinkMode};
use crate::{sys, time_setup, Args, Ledger};
use spinstreams_analysis::{eliminate_bottlenecks, steady_state};
use spinstreams_core::{KeyDistribution, OperatorSpec, Selectivity, ServiceTime, Topology, Tuple};
use spinstreams_operators::{build_operator, OperatorKind, OperatorParams};
use spinstreams_runtime::{Outputs, XorShift64};
use spinstreams_xml::{scenario_from_xml, scenario_to_xml};
use std::hint::black_box;
use std::time::Duration;

/// The offered rate, tuples/s: about half of this workload's capacity
/// (≈3.0M tuples/s, where the delivered rate stops following the offered
/// one) on a 2-core Intel Xeon host (see README.md).
/// One tuple per 640 ns, a whole number of nanoseconds, so the source's
/// schedule has no rounding drift.
pub const RATE: f64 = 1_562_500.0;

/// Key domain and Zipf skew of the source stream.
pub const KEYS: usize = 512;
const KEY_ALPHA: f64 = 0.8;

/// Per-key count window of the aggregate, and its slide.
const WINDOW: usize = 32;
const SLIDE: usize = 8;

/// Replicas Algorithm 2 must choose for the aggregate.
pub const AGG_REPLICAS: usize = 3;

/// Source tuples between two checkpoint epochs (20 epochs per second).
pub const CHECKPOINT_EVERY: u64 = (RATE / 20.0) as u64;

fn params() -> OperatorParams {
    OperatorParams {
        work_ns: 0,
        window: WINDOW,
        slide: SLIDE,
        ..OperatorParams::default()
    }
}

/// The workload's input: source → keyed windowed sum → sink, with the
/// aggregate annotated at 2.5 source periods so Algorithm 2 gives it
/// [`AGG_REPLICAS`] replicas.
pub fn input() -> String {
    let keys = KeyDistribution::zipf(KEYS, KEY_ALPHA);
    let period = 1.0 / RATE;
    let mut b = Topology::builder();
    let src = b.add_operator(
        OperatorSpec::source("src", ServiceTime::from_secs(period)).with_kind("source"),
    );
    let mut agg =
        OperatorSpec::partitioned("agg", ServiceTime::from_secs(2.5 * period), keys.clone())
            .with_kind(OperatorKind::KeyedSum.label())
            .with_selectivity(Selectivity::input(SLIDE as f64));
    agg.params = params().to_spec_params();
    let agg = b.add_operator(agg);
    let sink = b.add_operator(
        OperatorSpec::stateless("sink", ServiceTime::from_secs(0.1 * period))
            .with_kind(OperatorKind::IdentityMap.label())
            .with_param("work_ns", 0.0),
    );
    b.add_edge(src, agg, 1.0).expect("valid edge");
    b.add_edge(agg, sink, 1.0).expect("valid edge");
    let topo = b.build().expect("valid topology");
    scenario_to_xml(&topo, "paced-keyed", Some(&keys))
}

/// XML text to an optimised plan: parse, Algorithm 1, Algorithm 2 (its key
/// partitioning is applied by codegen).
pub fn setup(xml: &str) -> Result<Plan, String> {
    let (topo, keys) = scenario_from_xml(xml).map_err(|e| format!("xml: {e}"))?;
    // Algorithm 1: the prediction the plan is judged by.
    black_box(steady_state(&topo));
    let fission = eliminate_bottlenecks(&topo);
    Ok(Plan {
        topo,
        keys,
        replicas: fission.replicas,
        fusions: Vec::new(),
    })
}

/// The rate the generated source keeps: codegen's emission rate, with the
/// period rounded to a `Duration` as the engine's source does. Intended
/// send times are `seq` periods after the first emission.
fn source_rate(topo: &Topology) -> f64 {
    let spec = topo.operator(topo.source());
    let emit = spec.service_rate().items_per_sec() * spec.selectivity.rate_factor();
    1e9 / Duration::from_secs_f64(1.0 / emit).as_nanos() as f64
}

/// The stream the engine's source emits for `seed`: the same generator,
/// draw for draw.
pub fn source_stream(
    n: u64,
    keys: &KeyDistribution,
    seed: u64,
) -> impl Iterator<Item = Tuple> + '_ {
    let mut rng = XorShift64::new(seed);
    (0..n).map(move |seq| {
        let key = keys.sample(rng.next_f64()) as u64;
        let mut values = [0.0f64; spinstreams_core::TUPLE_ARITY];
        for v in values.iter_mut() {
            *v = rng.next_f64();
        }
        Tuple::new(key, seq, values)
    })
}

/// The single-threaded reference: the aggregate run over the seeded
/// stream in one thread, its outputs digested per key.
fn reference(n: u64, keys: &KeyDistribution, seed: u64) -> Digests {
    let mut op = build_operator(OperatorKind::KeyedSum, &params());
    let mut out = Outputs::new();
    let mut digests = Digests::new();
    for t in source_stream(n, keys, seed) {
        op.process(t, &mut out);
        for (_, o) in out.drain() {
            digests.entry(o.key).or_default().push(&o);
        }
    }
    op.flush(&mut out);
    for (_, o) in out.drain() {
        digests.entry(o.key).or_default().push(&o);
    }
    digests
}

/// Per-key window aggregates at the sink equal the reference, bit for bit
/// and in order.
pub fn check(plan: &Plan, out: &Outcome, n: u64, seed: u64) -> Result<(), String> {
    let keys = plan
        .keys
        .as_ref()
        .ok_or("scenario lost its key distribution")?;
    let [sink] = out.sinks.as_slice() else {
        return Err(format!("expected one sink, found {}", out.sinks.len()));
    };
    let want = reference(n, keys, seed);
    if sink.digests != want {
        let bad = want
            .keys()
            .chain(sink.digests.keys())
            .find(|k| sink.digests.get(k) != want.get(k))
            .copied()
            .unwrap_or(0);
        return Err(format!(
            "key {bad}: {} aggregates at the sink, {} in the single-threaded reference \
             (or their values or order differ)",
            sink.digests.get(&bad).map_or(0, |d| d.count),
            want.get(&bad).map_or(0, |d| d.count)
        ));
    }
    Ok(())
}

/// Independent engine runs per measurement.
const RUNS: usize = 5;

/// Latency percentiles are taken per window of this many seconds of the
/// offered schedule, and the medians over windows are reported.
const WINDOW_S: f64 = 0.1;

/// What one open-loop run measured.
struct Figures {
    rate: f64,
    samples: usize,
    tail: Tail,
    whole: [f64; 5],
    delivered_ratio: f64,
    steady_ratio: f64,
    late_ms: f64,
    cpu_ns: f64,
}

/// Median over windows of the offered schedule of each window's
/// percentiles. A window holds the outputs of the tuples due in it.
fn windowed(arrivals: &[Arrival], lat_ms: &[f64], rate: f64) -> Result<Tail, String> {
    let mut windows: Vec<Vec<f64>> = Vec::new();
    for (a, l) in arrivals.iter().zip(lat_ms) {
        let w = (a.seq as f64 / rate / WINDOW_S) as usize;
        if windows.len() <= w {
            windows.resize_with(w + 1, Vec::new);
        }
        windows[w].push(*l);
    }
    let tails = windows
        .into_iter()
        .filter(|w| !w.is_empty())
        .map(|mut w| Tail::of(&mut w).ok_or("too few latency samples in a window for p99"))
        .collect::<Result<Vec<_>, _>>()?;
    Tail::median_of(&tails).ok_or_else(|| "no latency windows".to_string())
}

/// One checked open-loop run of `n` tuples.
fn one_run(
    plan: &Plan,
    n: u64,
    seed: u64,
    cfg: &spinstreams_runtime::EngineConfig,
) -> Result<Figures, String> {
    let mode = SinkMode::Log {
        capacity: n as usize / SLIDE + n as usize / SLIDE / 8 + 1024,
    };
    let deployed = deploy::deploy(plan, n, seed, mode)?;
    let cpu0 = sys::process_cpu_ns();
    let out = deployed.run(cfg, None)?;
    let cpu_ns = (sys::process_cpu_ns() - cpu0) as f64;
    deploy::check_clean(&out.report)?;
    check(plan, &out, n, seed)?;

    let arrivals: Vec<Arrival> = out.sinks[0]
        .arrivals
        .iter()
        .map(|&(seq, at_ns)| Arrival {
            seq,
            at_s: at_ns as f64 / 1e9,
        })
        .collect();
    let rate = source_rate(&plan.topo);
    let d = delivery(&arrivals, rate).ok_or("too few arrivals to measure delivery")?;
    if d.backlog_growing() {
        return Err(format!(
            "backlog growing: the median window of the second half delivered {:.3} \
             of the offered rate",
            d.steady_ratio
        ));
    }
    let lat_ms: Vec<f64> = intended_latencies(&arrivals, rate)
        .into_iter()
        .map(|s| s * 1e3)
        .collect();
    let tail = windowed(&arrivals, &lat_ms, rate)?;
    let mut all = lat_ms.clone();
    all.sort_by(f64::total_cmp);
    let q = |p: f64| percentile(&all, p).unwrap_or(f64::NAN);
    let src = &out.report.actors[0];
    let sent_s = src.last_out_ns.saturating_sub(src.first_out_ns) as f64 / 1e9;
    Ok(Figures {
        rate,
        samples: lat_ms.len(),
        tail,
        whole: [
            q(0.5),
            q(0.9),
            q(0.99),
            q(0.999),
            all.last().copied().unwrap_or(0.0),
        ],
        delivered_ratio: d.ratio,
        steady_ratio: d.steady_ratio,
        late_ms: (sent_s - (n - 1) as f64 / rate) * 1e3,
        cpu_ns,
    })
}

/// Runs the workload's end-to-end measurement.
pub fn run(args: &Args, ledger: &mut Ledger) -> Result<(), String> {
    let xml = input();
    let plan = setup(&xml)?;
    if plan.replicas.get(1) != Some(&AGG_REPLICAS) {
        return Err(format!(
            "Algorithm 2 chose replicas {:?}, expected {AGG_REPLICAS} for the aggregate",
            plan.replicas
        ));
    }
    let setup_s = time_setup(|| setup(&xml)?.build(1_000_000, args.seed).map(drop))?;
    ledger.e2e("setup_s", setup_s);
    // Independent engine runs (fresh threads each), medians over them: a
    // run's figures depend on where its two threads land on the host.
    let n = (RATE * args.seconds / RUNS as f64) as u64;
    let cfg = deploy::engine(args.seed, Some(CHECKPOINT_EVERY));
    let runs: Vec<Figures> = (0..RUNS as u64)
        .map(|i| one_run(&plan, n, args.seed.wrapping_add(i), &cfg))
        .collect::<Result<_, _>>()?;
    let med =
        |f: fn(&Figures) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0);
    ledger.e2e("throughput_tps", med(|r| r.delivered_ratio * r.rate));
    let tails: Vec<Tail> = runs.iter().map(|r| r.tail).collect();
    ledger.latency(Tail::median_of(&tails).ok_or("no runs")?);
    ledger.e2e("delivered_ratio", med(|r| r.delivered_ratio));
    ledger.e2e(
        "cpu_ns_per_tuple",
        runs.iter().map(|r| r.cpu_ns).sum::<f64>() / (n * RUNS as u64) as f64,
    );
    ledger.attempted += n * RUNS as u64;
    ledger.note(format!(
        "open loop at {:.1} tuples/s: {RUNS} runs of {n} tuples, about {} latency samples \
         (window outputs) each; percentiles per {WINDOW_S} s window, median over a run's \
         windows, then over runs",
        runs[0].rate, runs[0].samples
    ));
    for r in &runs {
        let [p50, p90, p99, p999, max] = r.whole;
        ledger.note(format!(
            "run: whole-run latency ms p50 {p50:.3}, p90 {p90:.3}, p99 {p99:.3}, \
             p99.9 {p999:.3}, max {max:.3}; delivered/offered {:.4} (steady {:.4}); \
             generator late by {:.3} ms at the end",
            r.delivered_ratio, r.steady_ratio, r.late_ms
        ));
    }
    Ok(())
}
