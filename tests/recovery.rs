//! End-to-end stateful recovery tests: a partitioned-stateful operator
//! killed mid-stream under epoch-aligned checkpointing must produce sink
//! output identical to an unfaulted run — same counts, same per-key
//! aggregate sequences — across batch sizes at one and two pool workers.

use spinstreams::core::{KeyDistribution, Tuple};
use spinstreams::operators::{Aggregation, WindowedAggregate};
use spinstreams::runtime::operators::{FaultConfig, FaultInjector, FnOperator};
use spinstreams::runtime::{
    run, ActorGraph, Backoff, Behavior, EngineConfig, ExecutorKind, Outputs, Route, SourceConfig,
    SupervisorSpec,
};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

const ITEMS: u64 = 1_500;
const CHECKPOINT_EVERY: u64 = 200;
const CRASH_AT_TUPLE: u64 = 777;

type Captured = Arc<Mutex<Vec<Tuple>>>;

/// The timestamp-free projection of a captured tuple: `src_ns` is wall
/// time in the real engine and differs between otherwise identical runs.
fn project(captured: &Captured) -> Vec<(u64, u64, [f64; 4])> {
    captured
        .lock()
        .unwrap()
        .iter()
        .map(|t| (t.key, t.seq, t.values))
        .collect()
}

/// Per-key sequence of emitted aggregate values, in arrival order.
fn per_key(captured: &Captured) -> BTreeMap<u64, Vec<f64>> {
    let mut m: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for t in captured.lock().unwrap().iter() {
        m.entry(t.key).or_default().push(t.values[0]);
    }
    m
}

/// The baseline pool size.
const ONE_WORKER: ExecutorKind = ExecutorKind::Pool { workers: 1 };

fn config(batch_size: usize, executor: ExecutorKind, checkpoint: Option<u64>) -> EngineConfig {
    EngineConfig {
        batch_size,
        executor,
        checkpoint_interval: checkpoint,
        mailbox_capacity: 64,
        send_timeout: Duration::from_secs(5),
        seed: 42,
        ..EngineConfig::default()
    }
}

/// Builds src -> keyed-sum -> capturing sink, optionally arming a
/// deterministic one-shot crash inside the aggregate, and runs it.
fn run_pipeline(
    cfg: &EngineConfig,
    crash_after: Option<u64>,
) -> (spinstreams::runtime::RunReport, Captured, ActorIdPair) {
    let store: Captured = Default::default();
    let mut g = ActorGraph::new();
    let src_cfg = SourceConfig::new(f64::INFINITY, ITEMS).with_keys(KeyDistribution::uniform(8));
    let s = g.add_actor("src", Behavior::Source(src_cfg));
    let agg = WindowedAggregate::keyed(Aggregation::Sum, 6, 3, 0);
    let w = match crash_after {
        Some(n) => g.add_actor(
            "keyed-sum",
            Behavior::Worker(Box::new(FaultInjector::new(
                agg,
                FaultConfig::none().with_crash_after_tuples(n),
            ))),
        ),
        None => g.add_actor("keyed-sum", Behavior::Worker(Box::new(agg))),
    };
    let sink_store = store.clone();
    let k = g.add_actor(
        "sink",
        Behavior::Worker(Box::new(FnOperator::new(
            "capture",
            move |t: Tuple, _out: &mut Outputs| {
                sink_store.lock().unwrap().push(t);
            },
        ))),
    );
    g.connect(s, Route::Unicast(w));
    g.connect(w, Route::Unicast(k));
    g.set_supervision(w, SupervisorSpec::restart(4, Backoff::none()));
    let r = run(g, cfg).expect("run must complete");
    (r, store, ActorIdPair { worker: w, sink: k })
}

struct ActorIdPair {
    worker: spinstreams::runtime::ActorId,
    sink: spinstreams::runtime::ActorId,
}

#[test]
fn faulted_keyed_aggregate_matches_unfaulted_across_batches_and_executors() {
    // The golden output: checkpointing off, no faults, batch 1, one
    // worker. Every other variant — checkpointed, crashed, batched, two
    // workers — must reproduce it tuple for tuple.
    let (_, golden, _) = run_pipeline(&config(1, ONE_WORKER, None), None);
    let golden_seq = project(&golden);
    let golden_keys = per_key(&golden);
    assert!(
        golden_keys.len() >= 4,
        "keyed source must spread keys, got {}",
        golden_keys.len()
    );

    for executor in [ONE_WORKER, ExecutorKind::Pool { workers: 2 }] {
        for batch in [1usize, 8, 64] {
            let label = format!("{executor:?} batch {batch}");
            let cfg = config(batch, executor, Some(CHECKPOINT_EVERY));

            // Checkpointing on, no fault: markers must not perturb the
            // data path.
            let (clean_r, clean, _) = run_pipeline(&cfg, None);
            assert_eq!(project(&clean), golden_seq, "clean {label}");
            assert_eq!(clean_r.dead_letters.total(), 0, "clean {label}");

            // Checkpointing on, crash mid-stream: recovery must restore
            // the per-key windows and replay the gap — exactly-once
            // delivery, zero dead letters, identical aggregates.
            let (r, faulted, ids) = run_pipeline(&cfg, Some(CRASH_AT_TUPLE));
            let a = r.actor(ids.worker);
            assert_eq!(a.panics, 1, "{label}");
            assert_eq!(a.restarts, 1, "{label}");
            assert_eq!(a.recoveries, 1, "{label}");
            assert!(a.replayed > 0, "{label}");
            assert_eq!(
                a.last_restored_epoch,
                Some((CRASH_AT_TUPLE - 1) / CHECKPOINT_EVERY),
                "{label}"
            );
            assert_eq!(r.dead_letters.total(), 0, "{label}");
            assert!(
                r.last_complete_epoch >= Some(ITEMS / CHECKPOINT_EVERY),
                "{label}"
            );
            assert_eq!(
                r.actor(ids.sink).items_in as usize,
                golden_seq.len(),
                "{label}"
            );
            assert_eq!(project(&faulted), golden_seq, "faulted {label}");
            assert_eq!(per_key(&faulted), golden_keys, "faulted {label}");
        }
    }
}

#[test]
fn crash_without_checkpointing_loses_window_state() {
    // The negative control: the same crash with checkpointing off falls
    // back to reset-to-empty semantics — the poisoned tuple dead-letters
    // and the per-key windows restart cold, so the output diverges. This
    // pins that the equivalence above is earned by recovery, not by the
    // operator being accidentally stateless.
    let (_, golden, _) = run_pipeline(&config(1, ONE_WORKER, None), None);
    let cfg = config(1, ONE_WORKER, None);
    let (r, faulted, ids) = run_pipeline(&cfg, Some(CRASH_AT_TUPLE));
    let a = r.actor(ids.worker);
    assert_eq!(a.panics, 1);
    assert_eq!(a.restarts, 1);
    assert_eq!(a.recoveries, 0);
    assert_eq!(a.last_restored_epoch, None);
    assert_eq!(r.dead_letters.total(), 1);
    assert_ne!(project(&faulted), project(&golden));
}
