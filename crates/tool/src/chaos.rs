//! The chaos harness: fault-inject a deployed topology and compare the
//! measured throughput degradation against a structural prediction.
//!
//! Every worker actor is wrapped in a seeded
//! [`FaultInjector`](spinstreams_runtime::operators::FaultInjector) and
//! supervised with a `Restart` policy, then the topology runs on the
//! *threaded* executor (supervision lives there; the virtual-time
//! simulator models ideal operators). A supervised panic consumes the
//! item being processed, so with per-item panic probability `p` the
//! fraction of source items expected to reach a sink along a path with
//! `k` intermediate workers is `(1 - p)^k`. Summing over all
//! source-to-sink paths weighted by their routing probabilities gives the
//! predicted delivered fraction, which the harness checks against the
//! measured sink arrivals.

use crate::harness::HarnessError;
use spinstreams_codegen::{build_actor_graph, CodegenOptions};
use spinstreams_core::{enumerate_paths, Topology};
use spinstreams_runtime::operators::{FaultConfig, FaultInjector};
use spinstreams_runtime::{
    run, run_with_telemetry, Backoff, EngineConfig, ExecutorKind, PinningConfig, RunReport,
    SupervisorSpec, TelemetryConfig, TelemetryReport,
};
use std::fmt::Write as _;

/// Configuration of one chaos run.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Number of items the source generates.
    pub items: u64,
    /// Per-item panic probability injected into every worker.
    pub panic_prob: f64,
    /// Base RNG seed (per-actor fault schedules derive from it).
    pub seed: u64,
    /// Restart budget per actor (`u32::MAX` = effectively unbounded).
    pub max_restarts: u32,
    /// Backoff between panic and restart. Defaults to none so the
    /// measured degradation reflects item loss, not sleeping.
    pub backoff: Backoff,
    /// Envelope batch size forwarded to
    /// [`EngineConfig::batch_size`](spinstreams_runtime::EngineConfig):
    /// chaos semantics (panic isolation, restarts, dead letters) must hold
    /// at every batch size, so the harness lets callers fault-inject the
    /// batched data path too.
    pub batch_size: usize,
    /// Worker-pool size (`0` = one per core). Chaos semantics must hold
    /// at every worker count, so the harness can fault-inject the pool
    /// scheduler with fewer workers than actors too.
    pub workers: usize,
    /// Epoch-aligned checkpointing cadence forwarded to
    /// [`EngineConfig::checkpoint_interval`]: sources inject a barrier
    /// marker every `n` items and restarted workers recover by
    /// snapshot-restore + replay instead of restarting empty.
    pub checkpoint_interval: Option<u64>,
    /// Deterministic one-shot trigger: every worker panics while
    /// capturing the snapshot of this epoch (fires once per worker).
    pub crash_at_epoch: Option<u64>,
    /// Deterministic one-shot trigger: every worker panics on its n-th
    /// processed tuple (fires once per worker).
    pub crash_after_tuples: Option<u64>,
    /// Core-pinning policy forwarded to [`EngineConfig::pinning`]:
    /// supervision, restarts and recovery must survive pinned threads too.
    pub pinning: PinningConfig,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            items: 20_000,
            panic_prob: 0.05,
            seed: 0xC4A05,
            max_restarts: u32::MAX,
            backoff: Backoff::none(),
            batch_size: 1,
            workers: 0,
            checkpoint_interval: None,
            crash_at_epoch: None,
            crash_after_tuples: None,
            pinning: PinningConfig::default(),
        }
    }
}

/// The outcome of a chaos run: prediction, measurement, and the raw
/// report with its supervision counters and dead-letter log.
#[derive(Debug, Clone)]
pub struct ChaosOutcome {
    /// Items generated by the source.
    pub items: u64,
    /// Predicted fraction of source items arriving at some sink.
    pub predicted_fraction: f64,
    /// Measured fraction of source items that arrived at a sink.
    pub measured_fraction: f64,
    /// The raw run metrics (per-actor panics, restarts, backoff, dead
    /// letters, and the dead-letter log).
    pub run: RunReport,
}

impl ChaosOutcome {
    /// Relative error of the predicted delivered fraction.
    pub fn relative_error(&self) -> f64 {
        if self.measured_fraction <= 0.0 {
            return f64::INFINITY;
        }
        (self.predicted_fraction - self.measured_fraction).abs() / self.measured_fraction
    }
}

/// Predicted fraction of source items arriving at some sink when every
/// non-source operator independently destroys an item with probability
/// `panic_prob` (see the module docs for the path argument).
pub fn predicted_delivered_fraction(topo: &Topology, panic_prob: f64) -> f64 {
    let survive = 1.0 - panic_prob;
    let source = topo.source();
    topo.sinks()
        .iter()
        .map(|sink| {
            enumerate_paths(topo, source, *sink)
                .iter()
                .map(|p| {
                    // Workers strictly between source and sink; arrival at
                    // the sink is counted before the sink itself can fail.
                    let intermediates = p.vertices.len().saturating_sub(2) as i32;
                    p.probability * survive.powi(intermediates)
                })
                .sum::<f64>()
        })
        .sum()
}

/// Deploys `topo`, wraps every worker in a seeded [`FaultInjector`],
/// supervises them with a `Restart` policy, runs on the threaded
/// executor, and measures the delivered fraction against the prediction.
///
/// # Errors
///
/// Propagates codegen and engine failures.
pub fn run_chaos(topo: &Topology, cfg: &ChaosConfig) -> Result<ChaosOutcome, HarnessError> {
    run_chaos_inner(topo, cfg, None).map(|(outcome, _)| outcome)
}

/// [`run_chaos`] with the telemetry sampler enabled: the structured trace
/// stream records every injected panic, restart, backoff and dead letter,
/// and the snapshots show queue depths and rates while faults fire.
///
/// # Errors
///
/// Propagates codegen and engine failures.
pub fn run_chaos_with_telemetry(
    topo: &Topology,
    cfg: &ChaosConfig,
    telemetry: &TelemetryConfig,
) -> Result<(ChaosOutcome, TelemetryReport), HarnessError> {
    run_chaos_inner(topo, cfg, Some(telemetry))
        .map(|(outcome, t)| (outcome, t.expect("telemetry requested")))
}

fn run_chaos_inner(
    topo: &Topology,
    cfg: &ChaosConfig,
    telemetry: Option<&TelemetryConfig>,
) -> Result<(ChaosOutcome, Option<TelemetryReport>), HarnessError> {
    let opts = CodegenOptions {
        items: cfg.items,
        seed: cfg.seed,
        ..CodegenOptions::default()
    };
    let plan = build_actor_graph(topo, None, &[], &[], &opts)?;
    let mut graph = plan.graph;
    graph.map_workers(|id, op| {
        let mut fault = FaultConfig::panics(
            cfg.panic_prob,
            cfg.seed ^ (id.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        fault.crash_at_epoch = cfg.crash_at_epoch;
        fault.crash_after_tuples = cfg.crash_after_tuples;
        Box::new(FaultInjector::new(op, fault))
    });
    graph.set_supervision_all(&SupervisorSpec::restart(
        cfg.max_restarts,
        cfg.backoff.clone(),
    ));

    let engine = EngineConfig {
        seed: cfg.seed,
        batch_size: cfg.batch_size.max(1),
        checkpoint_interval: cfg.checkpoint_interval,
        executor: ExecutorKind::Pool {
            workers: cfg.workers,
        },
        pinning: cfg.pinning.clone(),
        ..EngineConfig::default()
    };
    let (report, telemetry_report) = match telemetry {
        Some(tcfg) => {
            let (r, t) = run_with_telemetry(graph, &engine, tcfg)?;
            (r, Some(t))
        }
        None => (run(graph, &engine)?, None),
    };

    let arrived: u64 = topo
        .sinks()
        .iter()
        .map(|sink| report.actor(plan.input_actor[sink.0]).items_in)
        .sum();
    Ok((
        ChaosOutcome {
            items: cfg.items,
            predicted_fraction: predicted_delivered_fraction(topo, cfg.panic_prob),
            measured_fraction: arrived as f64 / cfg.items.max(1) as f64,
            run: report,
        },
        telemetry_report,
    ))
}

/// Plain-text rendering of a chaos run, in the style of the other CLI
/// tables.
pub fn chaos_table(path: &str, cfg: &ChaosConfig, outcome: &ChaosOutcome) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "chaos run of {path}: {} items, panic probability {:.1}%",
        outcome.items,
        cfg.panic_prob * 100.0
    );
    let _ = writeln!(
        s,
        "{:<18} {:>9} {:>9} {:>8} {:>9} {:>12}",
        "actor", "items-in", "panics", "restarts", "backoff", "dead-letters"
    );
    for a in &outcome.run.actors {
        let _ = writeln!(
            s,
            "{:<18} {:>9} {:>9} {:>8} {:>8.1}ms {:>12}",
            a.name,
            a.items_in,
            a.panics,
            a.restarts,
            a.backoff.as_secs_f64() * 1e3,
            a.dead_letters
        );
    }
    let _ = writeln!(
        s,
        "totals: {} panics, {} restarts, {} dead letters",
        outcome.run.total_panics(),
        outcome.run.total_restarts(),
        outcome.run.total_dead_letters()
    );
    if cfg.checkpoint_interval.is_some() {
        let _ = writeln!(
            s,
            "checkpoints: last complete epoch {}, {} recoveries, {} tuples replayed, {} replay overflows",
            outcome
                .run
                .last_complete_epoch
                .map_or_else(|| "none".into(), |e| e.to_string()),
            outcome.run.total_recoveries(),
            outcome.run.total_replayed(),
            outcome.run.total_replay_overflows()
        );
    }
    let _ = writeln!(
        s,
        "delivered fraction: predicted {:.4} vs measured {:.4} ({:.1}% error)",
        outcome.predicted_fraction,
        outcome.measured_fraction,
        outcome.relative_error() * 100.0
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinstreams_core::{OperatorSpec, ServiceTime};

    /// src -> a -> b -> sink pipeline with tiny service times so the
    /// threaded run stays fast.
    fn pipeline() -> Topology {
        let mut b = Topology::builder();
        let s = b.add_operator(
            OperatorSpec::source("src", ServiceTime::from_micros(5.0)).with_kind("source"),
        );
        let a = b.add_operator(
            OperatorSpec::stateless("a", ServiceTime::from_micros(2.0))
                .with_kind("identity-map")
                .with_param("work_ns", 2_000.0),
        );
        let c = b.add_operator(
            OperatorSpec::stateless("b", ServiceTime::from_micros(2.0))
                .with_kind("identity-map")
                .with_param("work_ns", 2_000.0),
        );
        let k = b.add_operator(
            OperatorSpec::stateless("sink", ServiceTime::from_micros(1.0))
                .with_kind("identity-map")
                .with_param("work_ns", 1_000.0),
        );
        b.add_edge(s, a, 1.0).unwrap();
        b.add_edge(a, c, 1.0).unwrap();
        b.add_edge(c, k, 1.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn prediction_matches_hand_computation_on_a_pipeline() {
        let topo = pipeline();
        // Two intermediate workers (a, b): (1 - 0.1)^2 = 0.81.
        let f = predicted_delivered_fraction(&topo, 0.1);
        assert!((f - 0.81).abs() < 1e-12, "fraction {f}");
        // No faults: everything arrives.
        assert!((predicted_delivered_fraction(&topo, 0.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn chaos_run_degrades_throughput_as_predicted() {
        let topo = pipeline();
        let cfg = ChaosConfig {
            items: 5_000,
            panic_prob: 0.05,
            seed: 7,
            ..ChaosConfig::default()
        };
        let outcome = run_chaos(&topo, &cfg).unwrap();
        assert!(outcome.run.total_panics() > 0, "injector must fire");
        assert!(outcome.run.total_restarts() > 0, "supervisor must restart");
        assert!(outcome.run.total_dead_letters() > 0);
        // (1-0.05)^2 = 0.9025 predicted; the measurement is binomial
        // around it.
        assert!(
            outcome.relative_error() < 0.05,
            "predicted {} measured {}",
            outcome.predicted_fraction,
            outcome.measured_fraction
        );
        let table = chaos_table("pipeline", &cfg, &outcome);
        assert!(table.contains("delivered fraction"));
        assert!(table.contains("restarts"));
    }

    #[test]
    fn chaos_telemetry_traces_injected_faults() {
        let topo = pipeline();
        let cfg = ChaosConfig {
            items: 5_000,
            panic_prob: 0.05,
            seed: 7,
            ..ChaosConfig::default()
        };
        let tcfg = TelemetryConfig::default().with_interval(std::time::Duration::from_millis(10));
        let (outcome, telemetry) = run_chaos_with_telemetry(&topo, &cfg, &tcfg).unwrap();
        assert!(outcome.run.total_panics() > 0);
        use spinstreams_runtime::TraceEventKind;
        assert!(telemetry
            .trace
            .iter()
            .any(|e| matches!(e.kind, TraceEventKind::OperatorPanicked)));
        assert!(telemetry
            .trace
            .iter()
            .any(|e| matches!(e.kind, TraceEventKind::OperatorRestarted)));
        let last = telemetry.last_snapshot().expect("final snapshot");
        let panics: u64 = last.actors.iter().map(|a| a.panics).sum();
        assert_eq!(panics, outcome.run.total_panics());
    }

    #[test]
    fn chaos_outcome_is_identical_across_batch_sizes() {
        // Fault schedules are per-item and seeded, and nothing is dropped
        // by timeout, so the injected panics, restarts, dead letters and
        // delivered fraction must be exactly the same whether envelopes
        // move one at a time or in coalesced batches.
        let topo = pipeline();
        let base = ChaosConfig {
            items: 3_000,
            panic_prob: 0.05,
            seed: 11,
            ..ChaosConfig::default()
        };
        let unbatched = run_chaos(&topo, &base).unwrap();
        let batched = run_chaos(
            &topo,
            &ChaosConfig {
                batch_size: 8,
                ..base
            },
        )
        .unwrap();
        assert!(unbatched.run.total_panics() > 0);
        assert_eq!(unbatched.run.total_panics(), batched.run.total_panics());
        assert_eq!(unbatched.run.total_restarts(), batched.run.total_restarts());
        assert_eq!(
            unbatched.run.total_dead_letters(),
            batched.run.total_dead_letters()
        );
        assert_eq!(unbatched.measured_fraction, batched.measured_fraction);
    }

    #[test]
    fn chaos_outcome_is_identical_across_worker_counts() {
        // The fault schedule is a pure function of (actor id, seed, item
        // order), and per-mailbox FIFO is preserved by the pool, so
        // panics, restarts, dead letters and the delivered fraction must
        // not depend on how many workers ran the graph — even with fewer
        // workers than actors.
        let topo = pipeline();
        let base = ChaosConfig {
            items: 3_000,
            panic_prob: 0.05,
            seed: 11,
            workers: 1,
            ..ChaosConfig::default()
        };
        let one = run_chaos(&topo, &base).unwrap();
        let two = run_chaos(
            &topo,
            &ChaosConfig {
                workers: 2, // fewer workers than the 4 actors
                ..base
            },
        )
        .unwrap();
        assert!(one.run.total_panics() > 0);
        assert_eq!(one.run.total_panics(), two.run.total_panics());
        assert_eq!(one.run.total_restarts(), two.run.total_restarts());
        assert_eq!(one.run.total_dead_letters(), two.run.total_dead_letters());
        assert_eq!(
            one.run.dead_letters.total(),
            two.run.dead_letters.total(),
            "structural log totals agree across worker counts"
        );
        assert_eq!(one.measured_fraction, two.measured_fraction);
    }

    #[test]
    fn checkpointed_crash_recovers_exactly_once_delivery() {
        // Deterministically crash every worker mid-stream. With
        // checkpointing on, recovery restores-and-replays, then retries
        // the poisoned item live: the sink must see exactly what an
        // unfaulted run delivers, at one and two workers.
        let topo = pipeline();
        let base = ChaosConfig {
            items: 4_000,
            panic_prob: 0.0,
            seed: 5,
            ..ChaosConfig::default()
        };
        let clean = run_chaos(&topo, &base).unwrap();
        assert!((clean.measured_fraction - 1.0).abs() < 1e-12);
        for workers in [1, 2] {
            let faulted = run_chaos(
                &topo,
                &ChaosConfig {
                    checkpoint_interval: Some(500),
                    crash_after_tuples: Some(1_000),
                    workers,
                    ..base.clone()
                },
            )
            .unwrap();
            assert!(
                faulted.run.total_panics() >= 3,
                "each worker crashes once (workers={workers})"
            );
            assert!(faulted.run.total_recoveries() > 0, "recovery must run");
            assert_eq!(
                faulted.run.total_dead_letters(),
                0,
                "recovered crashes lose nothing (workers={workers})"
            );
            assert_eq!(
                faulted.measured_fraction, clean.measured_fraction,
                "sink counts diverged from the unfaulted run (workers={workers})"
            );
            assert!(faulted.run.last_complete_epoch.is_some());
            let table = chaos_table("pipeline", &base, &faulted);
            assert!(table.contains("delivered fraction"));
        }
    }

    #[test]
    fn chaos_with_zero_probability_is_lossless() {
        let topo = pipeline();
        let cfg = ChaosConfig {
            items: 2_000,
            panic_prob: 0.0,
            seed: 3,
            ..ChaosConfig::default()
        };
        let outcome = run_chaos(&topo, &cfg).unwrap();
        assert_eq!(outcome.run.total_panics(), 0);
        assert_eq!(outcome.run.total_dead_letters(), 0);
        assert!((outcome.measured_fraction - 1.0).abs() < 1e-12);
    }
}
