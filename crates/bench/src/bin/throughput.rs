//! Runtime throughput suite: worker count × batch size on each topology
//! shape, with steady-state allocation accounting.
//!
//! Every topology runs on the cooperative worker pool at worker counts
//! {1, 2, 4}, each with envelope batch sizes {1, 8, 64}; operators are
//! pass-throughs (or a monomorphized
//! fused chain, see below), so wall-clock is dominated by mailbox
//! synchronization and scheduling — exactly the costs that envelope
//! batching amortizes and the pool's run-until-blocked scheduling removes.
//! Results land in `BENCH_runtime.json` at the current directory (override
//! with `--out PATH`), one record per (topology, workers, batch size) with
//! the measured tuples/sec, the speedup over that
//! configuration's unbatched run, and the *differential allocation count*
//! per tuple.
//!
//! ```text
//! cargo run --release -p spinstreams-bench --bin throughput [-- --smoke] [--out FILE] [--items N]
//! ```
//!
//! # Allocation accounting
//!
//! The binary installs a counting `#[global_allocator]`. Each configuration
//! runs twice — once at `N` items, once at `2N` — and reports
//! `allocs_per_tuple = (A(2N) - A(N)) / N`: the startup cost (graph build,
//! mailbox rings, pre-sized coalescing buffers, thread spawns) is identical
//! on both sides and cancels, leaving only what the *steady-state* data
//! path allocates per extra tuple. The engine's hot path recycles every
//! buffer it touches, so the validator gates this differential at zero
//! (±one allocation per thousand tuples of jitter headroom) on the fused
//! pipeline.
//!
//! # The `fused` topology
//!
//! `fused` is the pipeline shape with its interior stages compiled into a
//! single monomorphized [`FusedChain`] actor (statically dispatched
//! [`StatelessKernel`] stages, no per-member `Box<dyn>` hop) — the
//! steady-state shape Algorithm 3 fusion groups execute as after
//! monomorphization.
//!
//! The suite closes with a tracing-overhead measurement: the batch-64
//! pipeline on one worker re-run with the sampled span flight recorder
//! armed (one anchor every 64 tuples), emitted as the `tracing` section —
//! the validator gates traced throughput at >= 0.95x untraced.
//!
//! # Serving measurements (schema /5)
//!
//! Two more sections exercise the multi-tenant serving layer:
//!
//! * `plan_cache` — one cold submission (the §4.1 profiling run plus
//!   Algorithms 1–3) against one warm submission of the identical topology
//!   (checksum lookup only). The validator gates the hit at <= 0.1x the
//!   miss latency.
//! * `multitenant` — four seeded paced pipelines run solo and then
//!   concurrently on one single-worker shared pool. The validator gates
//!   the concurrent aggregate at >= 0.8x the sum of the solo rates.
//!
//! `--smoke` shrinks the item counts so CI can validate the schema and
//! plumbing in seconds; speedup and allocation assertions only make sense
//! in full mode. `--topology NAME` restricts the sweep to one topology
//! (the emitted JSON is then partial — useful for focused measurements,
//! not for `validate_bench.py`).

use spinstreams_operators::{build_kernel, OperatorKind, OperatorParams, StatelessKernel};
use spinstreams_runtime::operators::PassThrough;
use spinstreams_runtime::{
    run, run_with_telemetry, ActorGraph, Behavior, EngineConfig, ExecutorKind, FusedChain, Route,
    SourceConfig, TelemetryConfig, TraceEventKind, DEFAULT_PORT,
};
use spinstreams_serve::{ServeConfig, StreamService, SubmitRequest};
use spinstreams_tool::tenant_topology;
use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Counts every heap allocation in the process (allocs and growth
/// reallocs; frees are not interesting here) on top of the system
/// allocator. One relaxed fetch-add per allocation — negligible next to
/// the allocation itself, and the whole point is that the steady-state
/// path never reaches it.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation to `System` unchanged; the counter has
// no effect on the returned pointers or layouts.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const BATCH_SIZES: [usize; 3] = [1, 8, 64];
const WORKER_COUNTS: [usize; 3] = [1, 2, 4];

struct Shape {
    name: &'static str,
    /// Builder: item count -> graph plus the sink whose arrivals count.
    build: fn(u64) -> (ActorGraph, spinstreams_runtime::ActorId),
}

/// src -> a -> b -> sink: every tuple crosses three mailboxes, nothing
/// else happens — the fully contended hand-off chain.
fn pipeline(items: u64) -> (ActorGraph, spinstreams_runtime::ActorId) {
    let mut g = ActorGraph::new();
    let s = g.add_actor(
        "src",
        Behavior::Source(SourceConfig::new(f64::INFINITY, items)),
    );
    let a = g.add_actor("a", Behavior::worker(PassThrough));
    let b = g.add_actor("b", Behavior::worker(PassThrough));
    let k = g.add_actor("sink", Behavior::worker(PassThrough));
    g.connect(s, Route::Unicast(a));
    g.connect(a, Route::Unicast(b));
    g.connect(b, Route::Unicast(k));
    (g, k)
}

/// src -> F(identity-map × 3) -> sink: the pipeline shape with its three
/// interior hand-offs compiled into one monomorphized [`FusedChain`] actor.
/// Zero-work identity kernels keep the comparison apples-to-apples with
/// `pipeline`'s pass-throughs: the only difference is two mailbox
/// crossings instead of three, with the three per-tuple operator
/// applications becoming static enum dispatches inside one actor — the
/// post-fusion steady state Algorithm 3 aims for.
fn fused(items: u64) -> (ActorGraph, spinstreams_runtime::ActorId) {
    let mut g = ActorGraph::new();
    let s = g.add_actor(
        "src",
        Behavior::Source(SourceConfig::new(f64::INFINITY, items)),
    );
    let params = OperatorParams {
        work_ns: 0,
        ..OperatorParams::default()
    };
    let kernels: Vec<StatelessKernel> = (0..3)
        .map(|_| {
            build_kernel(OperatorKind::IdentityMap, &params).expect("stateless kinds monomorphize")
        })
        .collect();
    let f = g.add_actor(
        "fused",
        Behavior::worker(FusedChain::new(
            "F(identity-map,identity-map,identity-map)",
            kernels,
            DEFAULT_PORT,
        )),
    );
    let k = g.add_actor("sink", Behavior::worker(PassThrough));
    g.connect(s, Route::Unicast(f));
    g.connect(f, Route::Unicast(k));
    (g, k)
}

/// src -> round-robin over 4 replicas -> collector: one producer feeding
/// four mailboxes, four producers contending on one.
fn fanout(items: u64) -> (ActorGraph, spinstreams_runtime::ActorId) {
    let mut g = ActorGraph::new();
    let s = g.add_actor(
        "src",
        Behavior::Source(SourceConfig::new(f64::INFINITY, items)),
    );
    let replicas: Vec<_> = (0..4)
        .map(|i| g.add_actor(format!("r{i}"), Behavior::worker(PassThrough)))
        .collect();
    let k = g.add_actor("collector", Behavior::worker(PassThrough));
    g.connect(s, Route::RoundRobin(replicas.clone()));
    for r in replicas {
        g.connect(r, Route::Unicast(k));
    }
    (g, k)
}

/// src -> emitter -> round-robin over 4 replicas -> collector: the
/// replicated emitter/collector shape produced by fission (§4.2).
fn replicated(items: u64) -> (ActorGraph, spinstreams_runtime::ActorId) {
    let mut g = ActorGraph::new();
    let s = g.add_actor(
        "src",
        Behavior::Source(SourceConfig::new(f64::INFINITY, items)),
    );
    let e = g.add_actor("emitter", Behavior::worker(PassThrough));
    let replicas: Vec<_> = (0..4)
        .map(|i| g.add_actor(format!("r{i}"), Behavior::worker(PassThrough)))
        .collect();
    let k = g.add_actor("collector", Behavior::worker(PassThrough));
    g.connect(s, Route::Unicast(e));
    g.connect(e, Route::RoundRobin(replicas.clone()));
    for r in replicas {
        g.connect(r, Route::Unicast(k));
    }
    (g, k)
}

struct Record {
    topology: &'static str,
    workers: usize,
    batch_size: usize,
    items: u64,
    wall_s: f64,
    tuples_per_sec: f64,
    speedup_vs_batch1: f64,
    allocs_per_tuple: f64,
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Runs `shape` once at `items`, asserting losslessness; returns the wall
/// seconds and the number of heap allocations the run performed.
fn timed_run(shape: &Shape, items: u64, cfg: &EngineConfig) -> (f64, u64) {
    let (graph, sink) = (shape.build)(items);
    let before = ALLOCS.load(Ordering::Relaxed);
    let report = run(graph, cfg).expect("bench graph is valid");
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    let delivered = report.actor(sink).items_in;
    assert_eq!(delivered, items, "{}: lossless run expected", shape.name);
    (report.wall.as_secs_f64(), allocs)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = flag(&args, "--out").unwrap_or_else(|| "BENCH_runtime.json".into());
    let items = flag(&args, "--items")
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(if smoke { 5_000 } else { 200_000 });
    let only = flag(&args, "--topology");

    let shapes = [
        Shape {
            name: "pipeline",
            build: pipeline,
        },
        Shape {
            name: "fused",
            build: fused,
        },
        Shape {
            name: "fanout",
            build: fanout,
        },
        Shape {
            name: "replicated",
            build: replicated,
        },
    ];

    let mut records: Vec<Record> = Vec::new();
    println!(
        "runtime throughput suite ({} mode, {items} items per run)",
        if smoke { "smoke" } else { "full" }
    );
    println!(
        "{:<12} {:>8} {:>7} {:>6} {:>10} {:>14} {:>9} {:>12}",
        "topology", "executor", "workers", "batch", "wall", "tuples/s", "speedup", "allocs/tuple"
    );
    for shape in &shapes {
        if only.as_deref().is_some_and(|t| t != shape.name) {
            continue;
        }
        for workers in WORKER_COUNTS {
            let mut base_rate = 0.0f64;
            for batch_size in BATCH_SIZES {
                let cfg = EngineConfig {
                    mailbox_capacity: 256,
                    // Generous timeout: the suite measures throughput, not
                    // load shedding; nothing may drop.
                    send_timeout: Duration::from_secs(60),
                    seed: 0xBE9C4,
                    batch_size,
                    executor: ExecutorKind::Pool { workers },
                    ..EngineConfig::default()
                };
                // Differential allocation accounting: the 2N run repeats
                // the N run's startup cost exactly, so the per-tuple count
                // is the slope between the two, immune to one-time setup.
                let (wall_s, allocs_n) = timed_run(shape, items, &cfg);
                let (_, allocs_2n) = timed_run(shape, items * 2, &cfg);
                let allocs_per_tuple = (allocs_2n.saturating_sub(allocs_n)) as f64 / items as f64;
                let rate = items as f64 / wall_s;
                if batch_size == 1 {
                    base_rate = rate;
                }
                let speedup = if base_rate > 0.0 {
                    rate / base_rate
                } else {
                    1.0
                };
                println!(
                    "{:<12} {:>8} {:>7} {:>6} {:>9.3}s {:>14.0} {:>8.2}x {:>12.4}",
                    shape.name,
                    "pool",
                    workers,
                    batch_size,
                    wall_s,
                    rate,
                    speedup,
                    allocs_per_tuple
                );
                records.push(Record {
                    topology: shape.name,
                    workers,
                    batch_size,
                    items,
                    wall_s,
                    tuples_per_sec: rate,
                    speedup_vs_batch1: speedup,
                    allocs_per_tuple,
                });
            }
        }
    }

    // Tracing-overhead measurement: the batch-64 pipeline on one worker,
    // untraced vs the sampled flight recorder (one span
    // anchor every 64 tuples). Longer runs than the sweep (sampler
    // start/stop is a fixed cost that must amortize, not dominate) and
    // best-of-five per side to shake scheduler noise out of the ratio the
    // validator gates on.
    const SPAN_SAMPLE: u64 = 64;
    let trace_items = if smoke { items } else { items.max(1_000_000) };
    let trace_reps = if smoke { 3 } else { 5 };
    let trace_cfg = EngineConfig {
        mailbox_capacity: 256,
        send_timeout: Duration::from_secs(60),
        seed: 0xBE9C4,
        batch_size: 64,
        executor: ExecutorKind::Pool { workers: 1 },
        ..EngineConfig::default()
    };
    let tcfg = TelemetryConfig::default()
        .with_interval(Duration::from_millis(100))
        .with_span_sample(SPAN_SAMPLE);
    // Interleave the sides: machine speed drifts over a suite this long,
    // and running all untraced reps before all traced ones would fold
    // that drift into the ratio as bias.
    let mut untraced_rate = 0.0f64;
    let mut traced_rate = 0.0f64;
    let mut span_events = 0usize;
    for _ in 0..trace_reps {
        let (graph, sink) = pipeline(trace_items);
        let report = run(graph, &trace_cfg).expect("bench graph is valid");
        assert_eq!(report.actor(sink).items_in, trace_items);
        untraced_rate = untraced_rate.max(trace_items as f64 / report.wall.as_secs_f64());

        let (graph, sink) = pipeline(trace_items);
        let (report, telemetry) =
            run_with_telemetry(graph, &trace_cfg, &tcfg).expect("bench graph is valid");
        assert_eq!(report.actor(sink).items_in, trace_items);
        span_events = telemetry
            .trace
            .iter()
            .filter(|e| matches!(e.kind, TraceEventKind::Span { .. }))
            .count();
        traced_rate = traced_rate.max(trace_items as f64 / report.wall.as_secs_f64());
    }
    let tracing_ratio = traced_rate / untraced_rate;
    println!(
        "tracing overhead (pipeline, pool 1 worker, batch 64, 1/{SPAN_SAMPLE} sampled): \
         {untraced_rate:.0} untraced vs {traced_rate:.0} traced tuples/s \
         ({tracing_ratio:.3}x, {span_events} span event(s) retained)"
    );

    // Plan-cache measurement (schema /5): the cold submission pays the
    // §4.1 profiling run plus Algorithms 1–3 and canonical serialization;
    // the warm submission of the byte-identical topology is a checksum
    // lookup plus an admission check. The validator gates hit <= 0.1x miss.
    let serve_engine = EngineConfig {
        executor: ExecutorKind::Pool { workers: 1 },
        batch_size: 8,
        seed: 0xBE9C4,
        ..EngineConfig::default()
    };
    let calibration_items = if smoke { 300 } else { 2_000 };
    let mut cache_svc = StreamService::new({
        let mut cfg = ServeConfig::new(serve_engine.clone());
        cfg.calibration_items = calibration_items;
        cfg
    });
    let cache_topo = tenant_topology(0xCACE, 0);
    let t0 = Instant::now();
    let cold = cache_svc
        .submit(SubmitRequest::new("cold", cache_topo.clone()).with_items(1_000))
        .expect("cold submission");
    let miss_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert!(!cold.cache_hit, "first submission must miss");
    // Best of three warm submissions: a single hit is microseconds and
    // jitters; the min is the honest steady-state figure.
    let mut hit_ms = f64::INFINITY;
    for i in 0..3 {
        let t1 = Instant::now();
        let warm = cache_svc
            .submit(SubmitRequest::new(format!("warm{i}"), cache_topo.clone()).with_items(1_000))
            .expect("warm submission");
        hit_ms = hit_ms.min(t1.elapsed().as_secs_f64() * 1e3);
        assert!(warm.cache_hit, "identical resubmission must hit");
        assert_eq!(warm.plan_checksum, cold.plan_checksum);
    }
    let cache_ratio = hit_ms / miss_ms;
    println!(
        "plan cache ({} calibration items): miss {miss_ms:.3} ms vs hit {hit_ms:.6} ms \
         ({:.1}x faster)",
        calibration_items,
        miss_ms / hit_ms,
    );

    // Multi-tenant measurement (schema /5): four seeded paced pipelines,
    // solo then concurrent on one single-worker shared pool. Paced sources
    // make the comparison meaningful on any core count: each tenant's
    // demand is far below one core, so the concurrent aggregate must land
    // near the sum of the solo rates. The validator gates >= 0.8x.
    const MT_TENANTS: usize = 4;
    let mt_items = if smoke { 400 } else { 2_000 };
    let mt_service = || {
        let mut cfg = ServeConfig::new(serve_engine.clone());
        cfg.calibration_items = 0;
        cfg.fuse = false;
        StreamService::new(cfg)
    };
    let mut solo_rates = Vec::with_capacity(MT_TENANTS);
    for i in 0..MT_TENANTS {
        let mut svc = mt_service();
        svc.submit(
            SubmitRequest::new(format!("t{i}"), tenant_topology(0xBEEF, i)).with_items(mt_items),
        )
        .expect("solo submission");
        let runs = svc.launch().expect("solo launch");
        solo_rates.push(
            runs[0]
                .report
                .source_throughput()
                .expect("solo rate measurable"),
        );
    }
    let mut svc = mt_service();
    for i in 0..MT_TENANTS {
        let receipt = svc
            .submit(
                SubmitRequest::new(format!("t{i}"), tenant_topology(0xBEEF, i))
                    .with_items(mt_items),
            )
            .expect("concurrent submission");
        assert!(receipt.state == spinstreams_serve::TenantState::Admitted);
    }
    let concurrent = svc.launch().expect("concurrent launch");
    let aggregate: f64 = concurrent
        .iter()
        .map(|r| r.report.source_throughput().unwrap_or(0.0))
        .sum();
    let solo_sum: f64 = solo_rates.iter().sum();
    let mt_ratio = aggregate / solo_sum;
    println!(
        "multitenant ({MT_TENANTS} paced tenants, pool 1 worker): aggregate {aggregate:.0} \
         vs solo sum {solo_sum:.0} tuples/s ({mt_ratio:.3}x)"
    );

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"schema\": \"spinstreams-bench-runtime/5\",");
    let _ = writeln!(
        json,
        "  \"mode\": \"{}\",",
        if smoke { "smoke" } else { "full" }
    );
    let _ = writeln!(
        json,
        "  \"batch_sizes\": [{}],",
        BATCH_SIZES.map(|b| b.to_string()).join(", ")
    );
    let _ = writeln!(
        json,
        "  \"worker_counts\": [{}],",
        WORKER_COUNTS.map(|w| w.to_string()).join(", ")
    );
    let _ = writeln!(json, "  \"results\": [");
    for (i, r) in records.iter().enumerate() {
        let comma = if i + 1 < records.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"topology\": \"{}\", \"executor\": \"pool\", \"workers\": {}, \
             \"batch_size\": {}, \"items\": {}, \
             \"wall_s\": {:.6}, \"tuples_per_sec\": {:.1}, \"speedup_vs_batch1\": {:.3}, \
             \"allocs_per_tuple\": {:.6}}}{comma}",
            r.topology,
            r.workers,
            r.batch_size,
            r.items,
            r.wall_s,
            r.tuples_per_sec,
            r.speedup_vs_batch1,
            r.allocs_per_tuple
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(
        json,
        "  \"tracing\": {{\"topology\": \"pipeline\", \"executor\": \"pool\", \"workers\": 1, \
         \"batch_size\": 64, \"span_sample\": {SPAN_SAMPLE}, \"items\": {trace_items}, \
         \"untraced_tuples_per_sec\": {untraced_rate:.1}, \
         \"traced_tuples_per_sec\": {traced_rate:.1}, \
         \"ratio\": {tracing_ratio:.4}, \"span_events\": {span_events}}},"
    );
    let _ = writeln!(
        json,
        "  \"plan_cache\": {{\"calibration_items\": {calibration_items}, \
         \"plan_cache_miss_ms\": {miss_ms:.4}, \"plan_cache_hit_ms\": {hit_ms:.6}, \
         \"ratio\": {cache_ratio:.6}, \"plan_checksum\": \"{:#018x}\"}},",
        cold.plan_checksum
    );
    let solo_list = solo_rates
        .iter()
        .map(|r| format!("{r:.1}"))
        .collect::<Vec<_>>()
        .join(", ");
    let _ = writeln!(
        json,
        "  \"multitenant\": {{\"tenants\": {MT_TENANTS}, \"items\": {mt_items}, \
         \"executor\": \"pool\", \"workers\": 1, \"batch_size\": 8, \
         \"solo_tuples_per_sec\": [{solo_list}], \"solo_sum\": {solo_sum:.1}, \
         \"aggregate_tuples_per_sec\": {aggregate:.1}, \"ratio\": {mt_ratio:.4}}}"
    );
    let _ = writeln!(json, "}}");
    std::fs::write(&out_path, json).expect("write bench output");
    println!("wrote {out_path}");
}
