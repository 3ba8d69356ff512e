//! The three measurement layers: calibration, virtual-time simulation, and
//! threaded smoke runs.

use crate::OracleConfig;
use spinstreams_codegen::{
    build_actor_graph, CodegenError, CodegenOptions, FusionGroup, FusionStrategy,
};
use spinstreams_core::{KeyDistribution, OperatorId, Selectivity, ServiceTime, Topology};
use spinstreams_runtime::{
    execute, EngineConfig, EngineError, Executor, ExecutorKind, PinningConfig, SimConfig,
};
use std::fmt;

/// Errors from an oracle pipeline stage.
#[derive(Debug)]
#[non_exhaustive]
pub enum OracleError {
    /// Code generation failed.
    Codegen(CodegenError),
    /// The runtime rejected or failed the actor graph.
    Engine(EngineError),
    /// A rebuilt topology failed validation.
    Build {
        /// Description of the problem.
        reason: String,
    },
}

impl fmt::Display for OracleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OracleError::Codegen(e) => write!(f, "codegen: {e}"),
            OracleError::Engine(e) => write!(f, "engine: {e}"),
            OracleError::Build { reason } => write!(f, "build: {reason}"),
        }
    }
}

impl std::error::Error for OracleError {}

impl From<CodegenError> for OracleError {
    fn from(e: CodegenError) -> Self {
        OracleError::Codegen(e)
    }
}

impl From<EngineError> for OracleError {
    fn from(e: EngineError) -> Self {
        OracleError::Engine(e)
    }
}

/// The deterministic virtual-time executor used by the sim layer: pure
/// synthetic service times (bit-for-bit reproducible) and mailboxes deep
/// enough to absorb bursty emission patterns (flatmaps, joins) at
/// near-saturation stages — head-of-line blocking on a shallow buffer
/// throttles throughput in a way the fluid model deliberately ignores.
/// The buffer-fill transient this costs is amortized by scaling run
/// lengths with predicted throughput (see the fission layer in `sweep`).
pub fn sim_executor(seed: u64) -> Executor {
    Executor::VirtualTime(SimConfig {
        mailbox_capacity: 256,
        seed,
        intrinsic_time: false,
        ..SimConfig::default()
    })
}

/// The threaded executor used by the smoke layer: a pool of `workers`
/// workers (`0` = one per core). The oracle's rate comparisons must hold
/// at any worker count — and under core pinning, which reorders nothing
/// semantically but changes every thread's placement.
pub fn threaded_executor(seed: u64, workers: usize, pinning: &PinningConfig) -> Executor {
    Executor::Threads(EngineConfig {
        seed,
        executor: ExecutorKind::Pool { workers },
        pinning: pinning.clone(),
        ..EngineConfig::default()
    })
}

/// Per-operator rates measured in one layer run.
#[derive(Debug, Clone)]
pub struct LayerMeasurement {
    /// Measured departure rate per operator (items/s; `None` below two
    /// departures). For the source this is the *emission* rate.
    pub departures: Vec<Option<f64>>,
    /// Measured busy fraction per operator (`None` for the source, for
    /// replicated/fused operators spanning several actors, or when the run
    /// had no measurable span).
    pub utilizations: Vec<Option<f64>>,
    /// Items consumed per operator (at its logical input actor).
    pub items_in: Vec<u64>,
    /// Items emitted per operator (at its logical departure actor).
    pub items_out: Vec<u64>,
    /// Busy seconds per operator (`None` under the same conditions as
    /// `utilizations`).
    pub busy_secs: Vec<Option<f64>>,
    /// Items dropped on send timeout anywhere in the run.
    pub dropped: u64,
}

impl LayerMeasurement {
    /// Measured `items_out / items_in` selectivity ratio of one operator,
    /// if it consumed anything.
    pub fn selectivity_ratio(&self, id: OperatorId) -> Option<f64> {
        let inn = self.items_in[id.0];
        if inn == 0 {
            None
        } else {
            Some(self.items_out[id.0] as f64 / inn as f64)
        }
    }
}

/// Deploys `topo` (optionally replicated) and measures per-operator rates
/// on the given executor.
///
/// # Errors
///
/// Propagates codegen/engine failures.
pub fn measure(
    topo: &Topology,
    source_keys: &KeyDistribution,
    replicas: &[usize],
    items: u64,
    seed: u64,
    executor: &Executor,
) -> Result<LayerMeasurement, OracleError> {
    measure_with(
        topo,
        source_keys,
        replicas,
        &[],
        FusionStrategy::Monomorphize,
        items,
        seed,
        executor,
    )
}

/// [`measure`] generalized with fusion groups and an explicit
/// [`FusionStrategy`] — the fusion layer deploys the same groups once
/// monomorphized and once force-interpreted and compares the two.
///
/// # Errors
///
/// Propagates codegen/engine failures.
#[allow(clippy::too_many_arguments)]
pub fn measure_with(
    topo: &Topology,
    source_keys: &KeyDistribution,
    replicas: &[usize],
    fusions: &[FusionGroup],
    fusion: FusionStrategy,
    items: u64,
    seed: u64,
    executor: &Executor,
) -> Result<LayerMeasurement, OracleError> {
    let opts = CodegenOptions {
        items,
        seed,
        fusion,
        ..CodegenOptions::default()
    };
    let plan = build_actor_graph(topo, Some(source_keys.clone()), replicas, fusions, &opts)?;
    let report = execute(plan.graph, executor)?;

    let n = topo.num_operators();
    let wall = report.wall.as_secs_f64();
    let mut departures = Vec::with_capacity(n);
    let mut utilizations = Vec::with_capacity(n);
    let mut items_in = Vec::with_capacity(n);
    let mut items_out = Vec::with_capacity(n);
    let mut busy_secs = Vec::with_capacity(n);
    for id in topo.operator_ids() {
        let dep = report.actor(plan.departure_actor[id.0]);
        let inp = report.actor(plan.input_actor[id.0]);
        // All rates share the run's wall clock as timebase. The per-actor
        // first-to-last emission span (`ActorReport::departure_rate`) would
        // overstate bursty low-rate emitters — a windowed aggregate's
        // fill delay falls outside its span — and the comparison needs
        // flow-consistent rates across operators.
        departures.push(if dep.items_out >= 2 && wall > 0.0 {
            Some(dep.items_out as f64 / wall)
        } else {
            None
        });
        items_in.push(inp.items_in);
        items_out.push(dep.items_out);
        // Utilization is only well-defined when the operator is exactly one
        // actor (sources have no measured busy time; emitter/collector
        // chains split it).
        let single_actor = plan.input_actor[id.0] == plan.departure_actor[id.0];
        if id == topo.source() || !single_actor || wall <= 0.0 {
            utilizations.push(None);
            busy_secs.push(None);
        } else {
            utilizations.push(Some(inp.busy.as_secs_f64() / wall));
            busy_secs.push(Some(inp.busy.as_secs_f64()));
        }
    }

    Ok(LayerMeasurement {
        departures,
        utilizations,
        items_in,
        items_out,
        busy_secs,
        dropped: report.total_dropped(),
    })
}

/// Rewrites a topology's measured annotations from one run's counters —
/// the §4.1 profiling step: per-operator service times (busy seconds per
/// consumed item), selectivities (`items_out / items_in`), and routing
/// probabilities (observable wherever an edge's target has no other
/// input; the rest keep their declared weights, rescaled to the leftover
/// mass).
///
/// Annotating from the very run the oracle then compares against is
/// deliberate: realized selectivities and routing splits are
/// trace-dependent (a band-join's match rate depends on how its two input
/// streams interleave; routers split by key hash, not by the declared
/// weights), so annotations profiled on any *other* run cannot describe
/// this one exactly. Sharing the trace removes profiling bias from the
/// comparison — whatever still diverges is the prediction math itself.
///
/// Operators below `min_samples` consumed items — and annotations a
/// replicated deployment cannot observe per-operator (busy time split
/// across replica actors) — fall back to `fallback`'s values (typically
/// the base layer's calibrated topology) when given, else keep their
/// declared ones.
///
/// # Errors
///
/// Fails with [`OracleError::Build`] if the annotated topology no longer
/// validates.
pub fn annotate(
    topo: &Topology,
    meas: &LayerMeasurement,
    fallback: Option<&Topology>,
    min_samples: u64,
) -> Result<Topology, OracleError> {
    let mut ops = topo.operators().to_vec();
    for id in topo.operator_ids() {
        if id == topo.source() {
            continue;
        }
        let inn = meas.items_in[id.0];
        let spec = &mut ops[id.0];
        if inn >= min_samples {
            match meas.busy_secs[id.0] {
                Some(busy) => spec.service_time = ServiceTime::from_secs(busy / inn as f64),
                None => {
                    if let Some(f) = fallback {
                        spec.service_time = f.operator(id).service_time;
                    }
                }
            }
            spec.selectivity = Selectivity::output(meas.items_out[id.0] as f64 / inn as f64);
        } else if let Some(f) = fallback {
            spec.service_time = f.operator(id).service_time;
            spec.selectivity = f.operator(id).selectivity;
        }
    }

    let mut edges = topo.edges().to_vec();
    for u in topo.operator_ids() {
        let out = topo.out_edges(u);
        if out.len() < 2 {
            continue; // a single out-edge always carries probability 1
        }
        let emitted = meas.items_out[u.0];
        if emitted < min_samples {
            continue;
        }
        let mut probs: Vec<(usize, f64, bool)> = Vec::with_capacity(out.len());
        for e in out {
            let edge = topo.edge(*e);
            if topo.in_edges(edge.to).len() == 1 {
                probs.push((e.0, meas.items_in[edge.to.0] as f64 / emitted as f64, true));
            } else {
                probs.push((e.0, edge.probability, false));
            }
        }
        let measured_mass: f64 = probs.iter().filter(|p| p.2).map(|p| p.1).sum();
        let declared_rest: f64 = probs.iter().filter(|p| !p.2).map(|p| p.1).sum();
        if declared_rest > 0.0 {
            let scale = (1.0 - measured_mass).max(0.0) / declared_rest;
            for p in probs.iter_mut().filter(|p| !p.2) {
                p.1 *= scale;
            }
        }
        // Renormalize exactly (in-flight items make counts sum slightly
        // short) and keep every probability valid in (0, 1].
        let total: f64 = probs.iter().map(|p| p.1.max(1e-9)).sum();
        for (idx, p, _) in probs {
            edges[idx].probability = (p.max(1e-9) / total).min(1.0);
        }
    }

    Topology::from_parts(ops, edges).map_err(|e| OracleError::Build {
        reason: format!("annotated topology failed validation: {e}"),
    })
}

/// The §4.1 calibration step: executes the topology once on the
/// deterministic simulator and [`annotate`]s it from the measured
/// counters. Operators that consumed fewer than
/// `cfg.min_calibration_samples` items keep their declared annotations.
///
/// # Errors
///
/// Propagates codegen/engine failures; fails with [`OracleError::Build`] if
/// the calibrated topology no longer validates.
pub fn calibrate(
    topo: &Topology,
    source_keys: &KeyDistribution,
    cfg: &OracleConfig,
    seed: u64,
) -> Result<Topology, OracleError> {
    let meas = measure(
        topo,
        source_keys,
        &[],
        cfg.calibration_items,
        seed,
        &sim_executor(seed),
    )?;
    annotate(topo, &meas, None, cfg.min_calibration_samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::scenario;

    #[test]
    fn sim_measurement_is_deterministic() {
        let cfg = OracleConfig::default();
        let s = scenario(3, &cfg);
        let run = || {
            let cal = calibrate(&s.topology, &s.source_keys, &cfg, s.seed).unwrap();
            measure(
                &cal,
                &s.source_keys,
                &[],
                2_000,
                s.seed,
                &sim_executor(s.seed),
            )
            .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.items_in, b.items_in);
        assert_eq!(a.items_out, b.items_out);
        assert_eq!(a.departures, b.departures);
    }

    #[test]
    fn calibration_recovers_declared_work() {
        let cfg = OracleConfig::default();
        let s = scenario(5, &cfg);
        let cal = calibrate(&s.topology, &s.source_keys, &cfg, s.seed).unwrap();
        // Under pure synthetic time, every sufficiently-fed operator's
        // calibrated service time is at least its declared work_ns (joins
        // and windows may add per-invocation synthetic cost on top).
        for id in cal.operator_ids().skip(1) {
            let declared = s.topology.operator(id).service_time.as_secs();
            let measured = cal.operator(id).service_time.as_secs();
            if measured != declared {
                // rewritten: must not have shrunk below the declared work
                assert!(
                    measured >= declared * 0.99,
                    "{id}: measured {measured} declared {declared}"
                );
            }
        }
    }
}
