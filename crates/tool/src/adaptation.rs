//! The differential oracle's **adaptation layer**: does the closed control
//! loop preserve stream semantics while it migrates?
//!
//! (The layer lives in the tool crate — not `spinstreams-oracle` — because
//! it drives [`run_adaptive`], and the oracle crate is a dependency of this
//! one; it is surfaced next to the other oracle layers through
//! `spinstreams oracle --adaptation-seeds`.)
//!
//! One scenario, two runs:
//!
//! 1. **Golden** — the seeded keyed pipeline (source → partitioned
//!    `keyed-sum` → sink) executed with the controller armed but *no*
//!    faults. The controller must make zero plan changes, and the sink's
//!    captured tuple stream is the reference output.
//! 2. **Adaptive** — the same pipeline with a chaos-harness service-time
//!    shift injected mid-run (the fault injector makes the aggregate ~6x
//!    slower after a fixed tuple count). The controller must detect the
//!    drift and migrate the live graph — a scale-out of the partitioned
//!    operator, which exercises the route swap *and* the pause–drain–resume
//!    key handoff.
//!
//! The verdict requires (§5.2 acceptance):
//!
//! * **(a) exactly-once across the migration** — total sink counts and the
//!   per-key aggregate sequences (key, seq, value bits) are identical to
//!   the golden run: nothing lost, duplicated, or reordered within a key;
//! * **(b) model-faithful recovery** — post-migration measured throughput
//!   is within the drift threshold of the *new* plan's Algorithm 1
//!   prediction (symmetric relative error, matching `DriftVerdict`).

use crate::adaptive::{run_adaptive, AdaptiveRunConfig, OperatorFault};
use crate::harness::HarnessError;
use spinstreams_analysis::{AdaptiveConfig, DriftConfig};
use spinstreams_core::{KeyDistribution, OperatorSpec, ServiceTime, Topology, TUPLE_ARITY};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// Per-key sink output in arrival order, projected to raw bits so the
/// comparison is byte-exact: `key -> [(seq, value bits per lane)]`.
type PerKey = BTreeMap<u64, Vec<(u64, [u64; TUPLE_ARITY])>>;

/// The adaptation layer's verdict for one seed.
#[derive(Debug)]
pub struct AdaptationReport {
    /// The scenario seed.
    pub seed: u64,
    /// Plan changes the faulted run's controller emitted.
    pub changes: usize,
    /// Route swaps applied live in the faulted run.
    pub swaps_applied: u64,
    /// Key-state handoffs merged in the faulted run.
    pub handoffs_migrated: u64,
    /// Operator degrees before / after the migration.
    pub initial_replicas: Vec<usize>,
    /// Degrees after the last migration.
    pub final_replicas: Vec<usize>,
    /// Sink tuples captured by the golden (unfaulted) run.
    pub golden_sink: usize,
    /// Sink tuples captured by the faulted adaptive run.
    pub adaptive_sink: usize,
    /// Measured post-migration throughput (items/s), when measurable.
    pub measured_throughput: Option<f64>,
    /// The new plan's Algorithm 1 prediction (items/s), when a change fired.
    pub predicted_throughput: Option<f64>,
    /// Every violated invariant, human-readable. Empty = clean.
    pub divergences: Vec<String>,
}

impl AdaptationReport {
    /// True when every invariant held.
    pub fn is_clean(&self) -> bool {
        self.divergences.is_empty()
    }
}

/// The fixed keyed scenario: a paced source feeding a partitioned-stateful
/// windowed sum and a cheap sink. Calibrated to fit comfortably inside a
/// single CPU before the shift (so the clean run never drifts on scheduler
/// noise) and to push the aggregate's utilization just past 1 after it
/// (so Algorithm 2 must scale it out, forcing a key repartitioning).
fn scenario_topology() -> Topology {
    let mut b = Topology::builder();
    let s = b.add_operator(
        OperatorSpec::source("src", ServiceTime::from_micros(500.0)).with_kind("source"),
    );
    let a = b.add_operator(
        OperatorSpec::partitioned(
            "agg",
            ServiceTime::from_micros(100.0),
            KeyDistribution::uniform(8),
        )
        .with_kind("keyed-sum")
        .with_param("window", 6.0)
        .with_param("slide", 1.0)
        .with_param("work_ns", 100_000.0),
    );
    let k = b.add_operator(
        OperatorSpec::stateless("sink", ServiceTime::from_micros(20.0))
            .with_kind("identity-map")
            .with_param("work_ns", 20_000.0),
    );
    b.add_edge(s, a, 1.0).expect("edge");
    b.add_edge(a, k, 1.0).expect("edge");
    b.build().expect("scenario topology")
}

fn scenario_config(seed: u64) -> AdaptiveRunConfig {
    AdaptiveRunConfig {
        items: 6_000,
        seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0xADA),
        controller: AdaptiveConfig {
            drift: DriftConfig {
                threshold: 0.5,
                warmup_ticks: 2,
                // Strictly more consecutive drifting ticks than the
                // profiling window is long, so the verdict's measurement
                // window is fully post-shift. Windows taken while the
                // backlog is still building remain diluted even then — the
                // controller's saturation guard covers that case by
                // refusing to act on a drifting operator read at ρ ≈ 1.
                consecutive: 5,
            },
            cooldown_ticks: 4,
            hysteresis: 0.05,
            max_replicas: 4,
            min_samples: 100,
        },
        batch_size: 8,
        workers: 0,
        checkpoint_interval: 500,
        telemetry_interval: Duration::from_millis(50),
        window_ticks: 4,
        faults: Vec::new(),
        capture_sink: true,
    }
}

/// `(tuples, extra_ns)` of the injected mid-run service-time shift:
/// 100 µs declared + 500 µs injected ≈ 600 µs measured, which at the
/// source's 2 k/s both trips the 0.5 drift threshold (symmetric relative
/// error ≈ 0.83) and pushes utilization past 1 (ρ ≈ 1.2), forcing a
/// scale-out.
const SHIFT: (u64, u64) = (1_000, 500_000);

fn per_key(tuples: &[(u64, u64, [f64; TUPLE_ARITY])]) -> PerKey {
    let mut m = PerKey::new();
    for (key, seq, values) in tuples {
        m.entry(*key)
            .or_default()
            .push((*seq, values.map(f64::to_bits)));
    }
    m
}

fn symmetric_rel_error(predicted: f64, measured: f64) -> f64 {
    let denom = predicted.abs().max(measured.abs());
    if denom <= f64::MIN_POSITIVE {
        0.0
    } else {
        (predicted - measured).abs() / denom
    }
}

/// Runs the adaptation layer for one seed: golden run, shifted run, and
/// the (a)/(b) comparisons. See the module docs for the invariants.
///
/// # Errors
///
/// Propagates codegen/engine failures from either run; the semantic
/// checks themselves are reported as divergences, not errors.
pub fn run_adaptation_layer(seed: u64) -> Result<AdaptationReport, HarnessError> {
    let topo = scenario_topology();
    let keys = KeyDistribution::uniform(8);

    let golden_cfg = scenario_config(seed);
    let golden = run_adaptive(&topo, Some(keys.clone()), &golden_cfg)?;

    let shifted_cfg = AdaptiveRunConfig {
        faults: vec![OperatorFault {
            operator: "agg".into(),
            slow_after: Some(SHIFT),
            ..OperatorFault::default()
        }],
        ..scenario_config(seed)
    };
    let shifted = run_adaptive(&topo, Some(keys), &shifted_cfg)?;

    let mut divergences = Vec::new();

    // The golden run is the baseline *and* a null check on the controller.
    if !golden.changes.is_empty() {
        divergences.push(format!(
            "golden run migrated without drift: {} plan change(s), {:?} -> {:?}",
            golden.changes.len(),
            golden.initial_replicas,
            golden.final_replicas,
        ));
    }
    if golden.run.total_dead_letters() != 0 {
        divergences.push(format!(
            "golden run dropped {} tuple(s)",
            golden.run.total_dead_letters()
        ));
    }

    // The shift must actually drive a live migration, and a scale-out of
    // the partitioned aggregate must move key state.
    if shifted.changes.is_empty() {
        divergences.push(format!(
            "controller never reacted to the service-time shift \
             ({} tick(s), {} rebase(s))",
            shifted.ticks, shifted.rebases,
        ));
    } else {
        if shifted.swaps_applied == 0 {
            divergences.push("migration was planned but no route swap applied".into());
        }
        if shifted.final_replicas[1] > 1 && shifted.handoffs_migrated == 0 {
            divergences.push("aggregate scaled out but no key-state handoff was merged".into());
        }
    }

    // (a) exactly-once: identical sink counts and per-key sequences.
    if shifted.run.total_dead_letters() != 0 {
        divergences.push(format!(
            "adaptive run dropped {} tuple(s)",
            shifted.run.total_dead_letters()
        ));
    }
    if golden.sink_tuples.len() != shifted.sink_tuples.len() {
        divergences.push(format!(
            "sink counts diverge: golden {} vs adaptive {}",
            golden.sink_tuples.len(),
            shifted.sink_tuples.len(),
        ));
    }
    let golden_keys = per_key(&golden.sink_tuples);
    let shifted_keys = per_key(&shifted.sink_tuples);
    if golden_keys != shifted_keys {
        let mut bad: Vec<u64> = golden_keys
            .keys()
            .chain(shifted_keys.keys())
            .copied()
            .filter(|k| golden_keys.get(k) != shifted_keys.get(k))
            .collect();
        bad.dedup();
        divergences.push(format!(
            "per-key aggregate sequences diverge at key(s) {bad:?}",
        ));
    }

    // (b) post-migration throughput within the drift threshold of the new
    // plan's Algorithm 1 prediction.
    let predicted = shifted.changes.last().map(|c| c.predicted_throughput);
    if let Some(predicted) = predicted {
        match shifted.post_change_throughput {
            Some(measured) => {
                let err = symmetric_rel_error(predicted, measured);
                if err > golden_cfg.controller.drift.threshold {
                    divergences.push(format!(
                        "post-migration throughput off-model: measured {measured:.0} vs \
                         predicted {predicted:.0} items/s (symmetric error {err:.2} > \
                         threshold {:.2})",
                        golden_cfg.controller.drift.threshold,
                    ));
                }
            }
            None => divergences
                .push("migration fired but the post-change tail was too short to measure".into()),
        }
    }

    Ok(AdaptationReport {
        seed,
        changes: shifted.changes.len(),
        swaps_applied: shifted.swaps_applied,
        handoffs_migrated: shifted.handoffs_migrated,
        initial_replicas: shifted.initial_replicas.clone(),
        final_replicas: shifted.final_replicas.clone(),
        golden_sink: golden.sink_tuples.len(),
        adaptive_sink: shifted.sink_tuples.len(),
        measured_throughput: shifted.post_change_throughput,
        predicted_throughput: predicted,
        divergences,
    })
}

/// Renders one adaptation report as the oracle's plain-text verdict block.
pub fn adaptation_table(report: &AdaptationReport) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "adaptation seed {}: {} change(s), {} swap(s) applied, {} handoff(s), \
         plan {:?} -> {:?}",
        report.seed,
        report.changes,
        report.swaps_applied,
        report.handoffs_migrated,
        report.initial_replicas,
        report.final_replicas,
    );
    let _ = writeln!(
        s,
        "  sink: golden {} vs adaptive {} tuple(s)",
        report.golden_sink, report.adaptive_sink
    );
    match (report.measured_throughput, report.predicted_throughput) {
        (Some(m), Some(p)) => {
            let _ = writeln!(
                s,
                "  post-migration: measured {m:.0} vs predicted {p:.0} items/s \
                 (symmetric error {:.2})",
                symmetric_rel_error(p, m)
            );
        }
        _ => {
            let _ = writeln!(s, "  post-migration: n/a");
        }
    }
    if report.is_clean() {
        let _ = writeln!(s, "  verdict: clean");
    } else {
        for d in &report.divergences {
            let _ = writeln!(s, "  DIVERGENT: {d}");
        }
    }
    s
}

// The layer's own coverage lives in `tests/adaptive.rs` (repo tier-1),
// which runs `run_adaptation_layer` on the CI seed; unit tests here stay
// cheap and structural.
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_is_well_formed() {
        let topo = scenario_topology();
        assert_eq!(topo.num_operators(), 3);
        assert!(topo
            .operator(spinstreams_core::OperatorId(1))
            .state
            .is_partitioned());
        let cfg = scenario_config(7);
        assert!(cfg.capture_sink);
        assert!(cfg.checkpoint_interval > 0);
    }

    #[test]
    fn symmetric_error_is_symmetric() {
        assert!((symmetric_rel_error(100.0, 50.0) - 0.5).abs() < 1e-12);
        assert!((symmetric_rel_error(50.0, 100.0) - 0.5).abs() < 1e-12);
        assert_eq!(symmetric_rel_error(0.0, 0.0), 0.0);
    }
}
