//! The §4.1 profiling step: one saturated run of the unoptimized topology.

use crate::build::{build_actor_graph, CodegenError, CodegenOptions, GeneratedPlan};
use spinstreams_core::{KeyDistribution, Selectivity, ServiceTime, Topology, TopologyError};
use spinstreams_runtime::{execute, EngineError, Executor};
use std::fmt;

/// Mixed into the executor seed so the profiling run's stream differs from
/// the stream a later measurement on the same executor sees.
const CALIBRATION_SEED_MIX: u64 = 0xCA11_B8A7;

/// Why calibration failed.
#[derive(Debug)]
#[non_exhaustive]
pub enum CalibrationError {
    /// The profiling graph could not be generated.
    Codegen(CodegenError),
    /// The runtime rejected or failed the profiling run.
    Engine(EngineError),
    /// The re-annotated topology failed validation.
    Topology(TopologyError),
}

impl fmt::Display for CalibrationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CalibrationError::Codegen(e) => write!(f, "codegen: {e}"),
            CalibrationError::Engine(e) => write!(f, "engine: {e}"),
            CalibrationError::Topology(e) => {
                write!(f, "calibrated topology failed validation: {e}")
            }
        }
    }
}

impl std::error::Error for CalibrationError {}

impl From<CodegenError> for CalibrationError {
    fn from(e: CodegenError) -> Self {
        CalibrationError::Codegen(e)
    }
}

impl From<EngineError> for CalibrationError {
    fn from(e: EngineError) -> Self {
        CalibrationError::Engine(e)
    }
}

/// The profiling deployment: `topo` unoptimized, its source unpaced.
fn calibration_graph(
    topo: &Topology,
    source_keys: Option<&KeyDistribution>,
    items: u64,
    seed: u64,
) -> Result<GeneratedPlan, CodegenError> {
    let opts = CodegenOptions {
        items,
        seed: seed ^ CALIBRATION_SEED_MIX,
        ..CodegenOptions::default()
    };
    let mut plan = build_actor_graph(topo, source_keys.cloned(), &[], &[], &opts)?;
    plan.graph.unpace_sources();
    Ok(plan)
}

/// Executes `topo` once and rewrites every operator's profiled service time
/// and selectivity from the measured metrics (the §4.1 profiling step).
///
/// The run saturates the topology: the source generates `items` tuples as
/// fast as backpressure allows, whatever its annotated rate. Service time
/// is a capacity, and busy time already excludes time spent blocked on a
/// full mailbox or helping downstream, so busy time per consumed item is
/// the operator's non-blocking service time. A paced run would instead
/// starve the operators and charge each wake-up to the few items it
/// serves.
///
/// * service time ← mean busy time per consumed item;
/// * selectivity ← identity input, measured `items_out / items_in` output
///   (an equivalent rate factor for the §3.4 model). Operators with several
///   inputs (joins) are measured under the saturated interleaving of their
///   input streams;
/// * the source's spec (generation rate) is left untouched.
///
/// Operators that consumed fewer than `min_samples` items keep their prior
/// annotations (low-probability paths may starve in a short calibration
/// run).
///
/// # Errors
///
/// Propagates codegen/engine failures; fails with
/// [`CalibrationError::Topology`] if the calibrated topology no longer
/// validates.
pub fn calibrate(
    topo: &Topology,
    source_keys: Option<&KeyDistribution>,
    items: u64,
    min_samples: u64,
    executor: &Executor,
) -> Result<Topology, CalibrationError> {
    let plan = calibration_graph(topo, source_keys, items, executor.seed())?;
    let report = execute(plan.graph, executor)?;

    let mut b = topo.to_builder();
    for id in topo.operator_ids() {
        if id == topo.source() {
            continue;
        }
        let actor = report.actor(plan.input_actor[id.0]);
        if actor.items_in < min_samples {
            continue;
        }
        let busy_per_item = actor.busy.as_secs_f64() / actor.items_in as f64;
        let out_ratio = actor.items_out as f64 / actor.items_in as f64;
        let spec = b.operator_mut(id);
        spec.service_time = ServiceTime::from_secs(busy_per_item);
        spec.selectivity = Selectivity::output(out_ratio.max(0.0));
    }
    b.build().map_err(CalibrationError::Topology)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinstreams_core::{OperatorId, OperatorSpec};
    use spinstreams_runtime::{Behavior, SimConfig};
    use spinstreams_topogen::{generate, TopogenConfig};

    /// Virtual time with purely synthetic service times: bit-for-bit
    /// reproducible on any host.
    fn synthetic_sim() -> Executor {
        Executor::VirtualTime(SimConfig {
            mailbox_capacity: 32,
            seed: 0xC0FFEE,
            intrinsic_time: false,
            ..SimConfig::default()
        })
    }

    /// `topo` with its source re-annotated to generate `rate` items/s.
    fn with_source_rate(topo: &Topology, rate: f64) -> Topology {
        let mut b = topo.to_builder();
        b.operator_mut(topo.source()).service_time = ServiceTime::from_secs(1.0 / rate);
        b.build().unwrap()
    }

    /// Algorithm 5 seed 42: its band-join is fed well past `min_samples`,
    /// and its measured selectivity depends on how the join's two inputs
    /// interleave (a run paced at 1 tuple/s reads it ~6% higher than a
    /// saturated one).
    fn joined_topology() -> (Topology, KeyDistribution) {
        let g = generate(42, &TopogenConfig::default());
        assert!(g
            .topology
            .operators()
            .iter()
            .any(|op| op.kind == "band-join"));
        (g.topology, g.source_keys)
    }

    #[test]
    fn calibration_graph_source_is_unpaced_whatever_the_annotation() {
        let (topo, keys) = joined_topology();
        for rate in [1.0, 10_000.0, 1e9] {
            let plan =
                calibration_graph(&with_source_rate(&topo, rate), Some(&keys), 100, 7).unwrap();
            let sources: Vec<f64> = plan
                .graph
                .actors()
                .iter()
                .filter_map(|a| match &a.behavior {
                    Behavior::Source(cfg) => Some(cfg.rate),
                    Behavior::Worker(_) => None,
                })
                .collect();
            assert_eq!(sources, vec![f64::INFINITY], "annotated at {rate}/s");
        }
    }

    #[test]
    fn calibration_ignores_the_source_annotation_in_virtual_time() {
        let (topo, keys) = joined_topology();
        let slow = with_source_rate(&topo, 1.0);
        let slow_cal = calibrate(&slow, Some(&keys), 2_000, 50, &synthetic_sim()).unwrap();
        let rewritten = topo
            .operator_ids()
            .filter(|&id| id != topo.source())
            .filter(|&id| slow_cal.operator(id).service_time != topo.operator(id).service_time)
            .count();
        assert!(rewritten > 0, "no operator was re-annotated");
        for rate in [10_000.0, 1e9] {
            let cal = calibrate(
                &with_source_rate(&topo, rate),
                Some(&keys),
                2_000,
                50,
                &synthetic_sim(),
            )
            .unwrap();
            for id in topo.operator_ids().filter(|&id| id != topo.source()) {
                let (s, f) = (slow_cal.operator(id), cal.operator(id));
                assert_eq!(
                    s.service_time, f.service_time,
                    "{id} service time at {rate}/s"
                );
                assert_eq!(s.selectivity, f.selectivity, "{id} selectivity at {rate}/s");
            }
        }
        // Each keeps its own source annotation.
        assert_eq!(
            slow_cal.operator(OperatorId(0)).service_time,
            slow.operator(OperatorId(0)).service_time
        );
    }

    #[test]
    fn starved_operators_keep_their_annotations() {
        let mut b = Topology::builder();
        let s = b.add_operator(
            OperatorSpec::source("src", ServiceTime::from_micros(100.0)).with_kind("source"),
        );
        let m = b.add_operator(
            OperatorSpec::stateless("map", ServiceTime::from_micros(7.0))
                .with_kind("identity-map")
                .with_param("work_ns", 20_000.0),
        );
        b.add_edge(s, m, 1.0).unwrap();
        let topo = b.build().unwrap();
        let starved = calibrate(&topo, None, 100, 101, &synthetic_sim()).unwrap();
        assert_eq!(
            starved.operator(m).service_time,
            ServiceTime::from_micros(7.0)
        );
        let fed = calibrate(&topo, None, 100, 100, &synthetic_sim()).unwrap();
        assert!((fed.operator(m).service_time.as_micros() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn errors_are_displayable() {
        let e: CalibrationError = CodegenError::BadReplicaVector { reason: "x".into() }.into();
        assert!(e.to_string().contains("codegen"));
        let e: CalibrationError = EngineError::NoActors.into();
        assert!(e.to_string().contains("engine"));
    }
}
