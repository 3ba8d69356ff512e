//! Fused-chain equivalence tests: a fusion group compiled to the
//! monomorphized [`FusedChain`] must be observably identical to the same
//! group run through the interpreted `MetaOperator` — same per-operator
//! counts, same per-key tuple sequences, byte-identical virtual-time
//! telemetry — across batch sizes at one and two pool workers. A crash
//! mid-stream
//! must also recover identically under either representation.
//!
//! [`FusedChain`]: spinstreams::runtime::FusedChain

use spinstreams::codegen::{build_actor_graph, CodegenOptions, FusionGroup, FusionStrategy};
use spinstreams::core::{KeyDistribution, OperatorSpec, ServiceTime, Topology, Tuple};
use spinstreams::operators::{build_kernel, build_operator, OperatorKind, OperatorParams};
use spinstreams::runtime::operators::{FaultConfig, FaultInjector, FnOperator};
use spinstreams::runtime::{
    execute, run, simulate_with_telemetry, ActorGraph, Backoff, Behavior, EngineConfig, Executor,
    ExecutorKind, FusedChain, MetaDest, MetaOperator, MetaRoute, Outputs, Route, SimConfig,
    SourceConfig, StreamOperator, SupervisorSpec, TelemetryConfig, DEFAULT_PORT,
};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Pool sizes under test: the one-worker baseline and a pool small
/// enough to multiplex several actors per worker.
const EXECUTORS: [ExecutorKind; 2] = [
    ExecutorKind::Pool { workers: 1 },
    ExecutorKind::Pool { workers: 2 },
];

const BATCHES: [usize; 3] = [1, 8, 64];

// ---------------------------------------------------------------------------
// Codegen-level equivalence: same topology, same fusion group, deployed
// once per strategy; per-operator logical counts must agree exactly.
// ---------------------------------------------------------------------------

/// src -> identity-map -> filter -> enricher -> sink with the three middle
/// operators fused. The filter gives the chain a data-dependent drop so
/// count equality is not vacuous.
fn chain_topology() -> (Topology, FusionGroup) {
    let mut b = Topology::builder();
    let s = b.add_operator(
        OperatorSpec::source("src", ServiceTime::from_micros(1.0)).with_kind("source"),
    );
    let m = b.add_operator(
        OperatorSpec::stateless("map", ServiceTime::from_micros(1.0)).with_kind("identity-map"),
    );
    let f = b.add_operator(
        OperatorSpec::stateless("filter", ServiceTime::from_micros(1.0))
            .with_kind("filter")
            .with_param("threshold", 0.6),
    );
    let e = b.add_operator(
        OperatorSpec::stateless("enrich", ServiceTime::from_micros(1.0)).with_kind("enricher"),
    );
    let k = b.add_operator(
        OperatorSpec::stateless("sink", ServiceTime::from_micros(1.0)).with_kind("identity-map"),
    );
    b.add_edge(s, m, 1.0).unwrap();
    b.add_edge(m, f, 1.0).unwrap();
    b.add_edge(f, e, 1.0).unwrap();
    b.add_edge(e, k, 1.0).unwrap();
    let topo = b.build().unwrap();
    let group = FusionGroup {
        members: [m, f, e].into_iter().collect(),
        front: m,
    };
    (topo, group)
}

/// Deploys the chain topology under `strategy` and returns the logical
/// per-operator (items_in, items_out) table plus the drop total.
fn deploy_counts(
    strategy: FusionStrategy,
    batch_size: usize,
    executor: ExecutorKind,
) -> (Vec<(u64, u64)>, u64) {
    let (topo, group) = chain_topology();
    let opts = CodegenOptions {
        items: 4_000,
        seed: 0xF00D,
        fusion: strategy,
        ..CodegenOptions::default()
    };
    let plan = build_actor_graph(
        &topo,
        Some(KeyDistribution::uniform(8)),
        &[],
        &[group],
        &opts,
    )
    .unwrap();
    let cfg = EngineConfig {
        batch_size,
        executor,
        mailbox_capacity: 64,
        seed: 42,
        ..EngineConfig::default()
    };
    let report = execute(plan.graph, &Executor::Threads(cfg)).unwrap();
    let table = topo
        .operator_ids()
        .map(|id| {
            (
                report.actor(plan.input_actor[id.0]).items_in,
                report.actor(plan.departure_actor[id.0]).items_out,
            )
        })
        .collect();
    (table, report.total_dropped())
}

#[test]
fn monomorphized_deployment_counts_match_interpreted() {
    for executor in EXECUTORS {
        for batch in BATCHES {
            let label = format!("{executor:?} batch {batch}");
            let (mono, mono_dropped) = deploy_counts(FusionStrategy::Monomorphize, batch, executor);
            let (interp, interp_dropped) =
                deploy_counts(FusionStrategy::Interpret, batch, executor);
            assert_eq!(mono_dropped, 0, "{label}: fused run must not drop");
            assert_eq!(interp_dropped, 0, "{label}: interpreted run must not drop");
            assert_eq!(
                mono, interp,
                "{label}: per-operator counts must be strategy-independent"
            );
            // The filter actually filters — the chain's output is a strict
            // subset of its input, so the equality above is earned.
            let (filter_in, filter_out) = mono[2];
            assert!(
                filter_out < filter_in,
                "{label}: filter must drop some items ({filter_in} in, {filter_out} out)"
            );
        }
    }
}

#[test]
fn monomorphized_sim_telemetry_is_byte_identical_to_interpreted() {
    // The discrete-event executor is a pure function of graph and seed, so
    // if the fused chain really is the meta-operator with the dispatch
    // compiled out, the whole telemetry export — counts, rates, latency
    // histograms — must match byte for byte.
    for batch in BATCHES {
        let export = |strategy: FusionStrategy| {
            let (topo, group) = chain_topology();
            let opts = CodegenOptions {
                items: 4_000,
                seed: 0xF00D,
                fusion: strategy,
                ..CodegenOptions::default()
            };
            let plan = build_actor_graph(
                &topo,
                Some(KeyDistribution::uniform(8)),
                &[],
                &[group],
                &opts,
            )
            .unwrap();
            let sim = SimConfig {
                mailbox_capacity: 32,
                seed: 0xBA7C4,
                intrinsic_time: false,
                batch_size: batch,
                checkpoint_interval: None,
            };
            let tcfg = TelemetryConfig::default().with_interval(Duration::from_millis(1));
            let (report, tel) = simulate_with_telemetry(plan.graph, &sim, &tcfg).unwrap();
            assert_eq!(report.total_dropped(), 0, "batch {batch}");
            tel.to_jsonl()
        };
        let mono = export(FusionStrategy::Monomorphize);
        assert!(!mono.is_empty(), "batch {batch}: telemetry must export");
        assert_eq!(
            export(FusionStrategy::Interpret),
            mono,
            "batch {batch}: sim telemetry must be byte-identical across strategies"
        );
    }
}

// ---------------------------------------------------------------------------
// Operator-level equivalence: hand-built chains (pass + drop + multiply)
// compared tuple for tuple through a recording sink.
// ---------------------------------------------------------------------------

/// The stage parameters shared by both representations.
fn stage_params() -> OperatorParams {
    OperatorParams {
        work_ns: 0,
        threshold: 0.6,
        fanout: 2,
        ..Default::default()
    }
}

/// identity-map -> filter -> flat-map as a monomorphized chain.
fn fused_worker() -> Box<dyn StreamOperator> {
    let p = stage_params();
    let kernels = [
        OperatorKind::IdentityMap,
        OperatorKind::Filter,
        OperatorKind::FlatMap,
    ]
    .into_iter()
    .map(|kind| build_kernel(kind, &p).expect("stateless kinds have kernels"))
    .collect();
    Box::new(FusedChain::new("fused", kernels, DEFAULT_PORT))
}

/// The same three stages behind the interpreted meta-operator with a
/// linear unicast route table.
fn interpreted_worker() -> Box<dyn StreamOperator> {
    let p = stage_params();
    let members: Vec<Box<dyn StreamOperator>> = vec![
        build_operator(OperatorKind::IdentityMap, &p),
        build_operator(OperatorKind::Filter, &p),
        build_operator(OperatorKind::FlatMap, &p),
    ];
    let routes = vec![
        vec![MetaRoute::Unicast(MetaDest::Member(1))],
        vec![MetaRoute::Unicast(MetaDest::Member(2))],
        vec![MetaRoute::Unicast(MetaDest::Output(DEFAULT_PORT))],
    ];
    Box::new(MetaOperator::new("fused", members, routes, 0, 7))
}

type Captured = Arc<Mutex<Vec<(u64, u64, [f64; 4])>>>;

/// Per-key (seq, values) sequences in arrival order — the executor-stable
/// projection of the sink's capture.
fn per_key(captured: &Captured) -> BTreeMap<u64, Vec<(u64, [f64; 4])>> {
    let mut m: BTreeMap<u64, Vec<(u64, [f64; 4])>> = BTreeMap::new();
    for &(key, seq, values) in captured.lock().unwrap().iter() {
        m.entry(key).or_default().push((seq, values));
    }
    m
}

/// src -> worker -> capturing sink.
fn run_chain(
    worker: Box<dyn StreamOperator>,
    batch_size: usize,
    executor: ExecutorKind,
    items: u64,
) -> BTreeMap<u64, Vec<(u64, [f64; 4])>> {
    let store: Captured = Default::default();
    let mut g = ActorGraph::new();
    let cfg = SourceConfig::new(f64::INFINITY, items).with_keys(KeyDistribution::uniform(8));
    let s = g.add_actor("src", Behavior::Source(cfg));
    let w = g.add_actor("chain", Behavior::Worker(worker));
    let sink_store = store.clone();
    let k = g.add_actor(
        "sink",
        Behavior::Worker(Box::new(FnOperator::new(
            "capture",
            move |t: Tuple, _out: &mut Outputs| {
                sink_store.lock().unwrap().push((t.key, t.seq, t.values));
            },
        ))),
    );
    g.connect(s, Route::Unicast(w));
    g.connect(w, Route::Unicast(k));
    let cfg = EngineConfig {
        batch_size,
        executor,
        mailbox_capacity: 64,
        seed: 42,
        ..EngineConfig::default()
    };
    let report = run(g, &cfg).unwrap();
    assert_eq!(report.total_dropped(), 0);
    assert_eq!(report.dead_letters.total(), 0);
    per_key(&store)
}

#[test]
fn fused_chain_emits_the_same_tuples_as_the_meta_operator() {
    const ITEMS: u64 = 3_000;
    let golden = run_chain(fused_worker(), 1, EXECUTORS[0], ITEMS);
    assert!(
        golden.len() >= 4,
        "keyed source must spread keys, got {}",
        golden.len()
    );
    let total: usize = golden.values().map(Vec::len).sum();
    assert!(
        total > 0 && total != ITEMS as usize,
        "filter+flat-map must reshape the stream (got {total} of {ITEMS})"
    );
    for executor in EXECUTORS {
        for batch in BATCHES {
            let label = format!("{executor:?} batch {batch}");
            assert_eq!(
                run_chain(fused_worker(), batch, executor, ITEMS),
                golden,
                "fused {label}"
            );
            assert_eq!(
                run_chain(interpreted_worker(), batch, executor, ITEMS),
                golden,
                "interpreted {label}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Recovery: a crash inside the fused stage must recover to the unfaulted
// output under both representations (the meta-operator checkpoints its
// internal state; the chain is stateless and replays cold).
// ---------------------------------------------------------------------------

const RECOVERY_ITEMS: u64 = 1_500;
const CHECKPOINT_EVERY: u64 = 200;
const CRASH_AT_TUPLE: u64 = 777;

struct RecoveryRun {
    report: spinstreams::runtime::RunReport,
    worker: spinstreams::runtime::ActorId,
    output: BTreeMap<u64, Vec<(u64, [f64; 4])>>,
}

fn run_recovery(worker: Box<dyn StreamOperator>, crash: bool) -> RecoveryRun {
    let store: Captured = Default::default();
    let mut g = ActorGraph::new();
    let cfg =
        SourceConfig::new(f64::INFINITY, RECOVERY_ITEMS).with_keys(KeyDistribution::uniform(8));
    let s = g.add_actor("src", Behavior::Source(cfg));
    let worker: Box<dyn StreamOperator> = if crash {
        Box::new(FaultInjector::new(
            worker,
            FaultConfig::none().with_crash_after_tuples(CRASH_AT_TUPLE),
        ))
    } else {
        worker
    };
    let w = g.add_actor("chain", Behavior::Worker(worker));
    let sink_store = store.clone();
    let k = g.add_actor(
        "sink",
        Behavior::Worker(Box::new(FnOperator::new(
            "capture",
            move |t: Tuple, _out: &mut Outputs| {
                sink_store.lock().unwrap().push((t.key, t.seq, t.values));
            },
        ))),
    );
    g.connect(s, Route::Unicast(w));
    g.connect(w, Route::Unicast(k));
    g.set_supervision(w, SupervisorSpec::restart(4, Backoff::none()));
    let cfg = EngineConfig {
        batch_size: 8,
        executor: EXECUTORS[0],
        checkpoint_interval: Some(CHECKPOINT_EVERY),
        mailbox_capacity: 64,
        send_timeout: Duration::from_secs(5),
        seed: 42,
        ..EngineConfig::default()
    };
    let report = run(g, &cfg).unwrap();
    RecoveryRun {
        report,
        worker: w,
        output: per_key(&store),
    }
}

#[test]
fn crashed_fused_stage_recovers_to_the_unfaulted_output() {
    for (label, make) in [
        ("fused", fused_worker as fn() -> Box<dyn StreamOperator>),
        ("interpreted", interpreted_worker),
    ] {
        let golden = run_recovery(make(), false);
        assert_eq!(golden.report.dead_letters.total(), 0, "{label} golden");

        let faulted = run_recovery(make(), true);
        let a = faulted.report.actor(faulted.worker);
        assert_eq!(a.panics, 1, "{label}");
        assert_eq!(a.restarts, 1, "{label}");
        assert!(a.replayed > 0, "{label}: the epoch gap must be replayed");
        assert_eq!(faulted.report.dead_letters.total(), 0, "{label}");
        assert_eq!(
            faulted.output, golden.output,
            "{label}: recovered output must match the unfaulted run"
        );
    }
}

#[test]
fn interpreted_recovery_restores_the_meta_snapshot() {
    // The meta-operator checkpoints (rng + member state), so its recovery
    // must report a restored epoch — pinning that the equivalence above
    // exercises the snapshot path, not just cold replay.
    let faulted = run_recovery(interpreted_worker(), true);
    let a = faulted.report.actor(faulted.worker);
    assert_eq!(a.recoveries, 1);
    assert_eq!(
        a.last_restored_epoch,
        Some((CRASH_AT_TUPLE - 1) / CHECKPOINT_EVERY)
    );
}
