//! Profiling aid: decomposes observability overhead on the batch-64
//! pipeline (one pool worker) into (bare run) vs (telemetry, no spans) vs (telemetry +
//! sampled spans), so a regression in the `validate_bench.py` tracing
//! gate can be attributed to the right layer.
//!
//! ```text
//! cargo run --release -p spinstreams-bench --example trace_cost
//! ```

use spinstreams_runtime::operators::PassThrough;
use spinstreams_runtime::{
    run, run_with_telemetry, ActorGraph, Behavior, EngineConfig, ExecutorKind, Route, SourceConfig,
    TelemetryConfig,
};
use std::time::Duration;

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

fn main() {
    let items = 2_000_000u64;
    let cfg = EngineConfig {
        mailbox_capacity: 256,
        send_timeout: Duration::from_secs(60),
        seed: 0xBE9C4,
        batch_size: 64,
        executor: ExecutorKind::Pool { workers: 1 },
        ..EngineConfig::default()
    };
    let reps = 3;
    let bare = (0..reps)
        .map(|_| {
            let (g, _) = pipeline(items);
            let r = run(g, &cfg).unwrap();
            items as f64 / r.wall.as_secs_f64()
        })
        .fold(0.0f64, f64::max);
    let tel = |span: u64| {
        let mut t = TelemetryConfig::default().with_interval(Duration::from_millis(100));
        if span > 0 {
            t = t.with_span_sample(span);
        }
        (0..reps)
            .map(|_| {
                let (g, _) = pipeline(items);
                let (r, _) = run_with_telemetry(g, &cfg, &t).unwrap();
                items as f64 / r.wall.as_secs_f64()
            })
            .fold(0.0f64, f64::max)
    };
    let no_span = tel(0);
    let spans = tel(64);
    println!("bare            {bare:>12.0} tup/s");
    println!(
        "telemetry       {no_span:>12.0} tup/s  ({:.3}x bare)",
        no_span / bare
    );
    println!(
        "telemetry+spans {spans:>12.0} tup/s  ({:.3}x bare, {:.3}x telemetry)",
        spans / bare,
        spans / no_span
    );
}
