//! The differential oracle's **multi-tenant layer**: does the shared pool
//! preserve every tenant's output, and does the aggregate land where the
//! model says it should?
//!
//! (Like the adaptation layer, this lives in the tool crate — it drives
//! [`StreamService`], and `spinstreams-serve` is a dependency of this one;
//! it is surfaced through `spinstreams oracle --multitenant-seeds`.)
//!
//! One scenario per seed, `N + 1` runs:
//!
//! 1. **Solo** — each seeded paced pipeline is submitted to its own fresh
//!    service and launched alone. Its sink count is the reference output
//!    and its measured source throughput the solo baseline.
//! 2. **Concurrent** — all `N` pipelines are submitted to *one* service
//!    and launched together on the shared engine.
//!
//! The verdict requires:
//!
//! * **(a) admission** — every tenant must be admitted (the pipelines are
//!   paced well inside one core's worth of worker demand);
//! * **(b) isolation** — each tenant's concurrent sink count equals its
//!   solo sink count *exactly*: multiplexing on the shared pool must not
//!   lose, duplicate, or cross-deliver a single tuple;
//! * **(c) aggregate fidelity** — the summed measured source throughput of
//!   the concurrent run is within tolerance (symmetric relative error) of
//!   the summed Algorithm 1 predictions, i.e. co-scheduling costs at most
//!   the modeled overhead;
//! * **(d) plan-cache coherence** — resubmitting tenant 0's topology after
//!   the launch must hit the cache and return the byte-identical plan.

use crate::harness::HarnessError;
use spinstreams_analysis::steady_state;
use spinstreams_core::{OperatorSpec, ServiceTime, Topology};
use spinstreams_runtime::{EngineConfig, ExecutorKind, TenantRun};
use spinstreams_serve::{ServeConfig, ServeError, StreamService, SubmitRequest, TenantState};
use std::fmt::Write as _;

/// Shape of one multi-tenant oracle scenario.
#[derive(Debug, Clone)]
pub struct MultiTenantConfig {
    /// Concurrent tenants per seed.
    pub tenants: usize,
    /// Items each tenant's source generates per launch.
    pub items: u64,
    /// Envelope batch size of the shared engine.
    pub batch_size: usize,
    /// Pool workers (`0` = one per core).
    pub workers: usize,
    /// Symmetric relative error allowed between the summed measured
    /// aggregate and the summed Algorithm 1 predictions.
    pub tolerance: f64,
}

impl Default for MultiTenantConfig {
    fn default() -> Self {
        MultiTenantConfig {
            tenants: 3,
            items: 1_200,
            batch_size: 8,
            workers: 1,
            tolerance: 0.25,
        }
    }
}

/// Per-tenant outcome of one multi-tenant scenario.
#[derive(Debug, Clone)]
pub struct TenantOutcome {
    /// Tenant name (`t<idx>`).
    pub name: String,
    /// Algorithm 1 predicted throughput (items/s) of the tenant alone.
    pub predicted: f64,
    /// Measured solo source throughput (items/s), when measurable.
    pub solo_measured: Option<f64>,
    /// Measured concurrent source throughput (items/s), when measurable.
    pub concurrent_measured: Option<f64>,
    /// Sink tuples delivered by the solo run.
    pub solo_sink: u64,
    /// Sink tuples delivered by the concurrent run.
    pub concurrent_sink: u64,
    /// Worker-side core demand the admission model charged.
    pub demand_cores: f64,
}

/// The multi-tenant layer's verdict for one seed.
#[derive(Debug)]
pub struct MultiTenantReport {
    /// The scenario seed.
    pub seed: u64,
    /// Per-tenant outcomes, in submission order.
    pub tenants: Vec<TenantOutcome>,
    /// Summed measured concurrent source throughput (items/s).
    pub aggregate_measured: f64,
    /// Summed Algorithm 1 predictions (items/s).
    pub aggregate_predicted: f64,
    /// Plan-cache hits observed on the concurrent service.
    pub cache_hits: u64,
    /// Every violated invariant, human-readable. Empty = clean.
    pub divergences: Vec<String>,
}

impl MultiTenantReport {
    /// True when every invariant held.
    pub fn is_clean(&self) -> bool {
        self.divergences.is_empty()
    }
}

fn hash(seed: u64, salt: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(salt)
        .wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// The seeded paced pipeline for tenant `idx`: a source throttled to
/// 1.5–2.2 k items/s feeding one or two spin-calibrated `identity-map`
/// stages and a cheap terminal stage named `sink`. Every operator's
/// `work_ns` matches its declared service time, so Algorithm 1's
/// prediction *is* the ground truth the measured run is judged against,
/// and the whole pipeline's worker-side demand stays ≲ 0.15 cores —
/// several fit one shared core with margin.
pub fn tenant_topology(seed: u64, idx: usize) -> Topology {
    let h = hash(seed, 0x7E9A_9117 + idx as u64);
    let pace_us = 450.0 + (h % 200) as f64;
    let stages = 1 + ((h >> 8) % 2) as usize;
    let mut b = Topology::builder();
    let mut prev = b.add_operator(
        OperatorSpec::source(format!("src-{idx}"), ServiceTime::from_micros(pace_us))
            .with_kind("source"),
    );
    for s in 0..stages {
        let work_us = 20.0 + ((h >> (16 + 8 * s)) % 25) as f64;
        let op = b.add_operator(
            OperatorSpec::stateless(format!("work-{idx}-{s}"), ServiceTime::from_micros(work_us))
                .with_kind("identity-map")
                .with_param("work_ns", work_us * 1_000.0),
        );
        b.add_edge(prev, op, 1.0).expect("edge");
        prev = op;
    }
    let sink = b.add_operator(
        OperatorSpec::stateless("sink", ServiceTime::from_micros(10.0))
            .with_kind("identity-map")
            .with_param("work_ns", 10_000.0),
    );
    b.add_edge(prev, sink, 1.0).expect("edge");
    b.build().expect("tenant topology")
}

/// A fresh serving front end for one scenario. Calibration is disabled
/// (the seeded annotations are trusted so Algorithm 1 is the oracle) and
/// fusion is off so the `sink` actor keeps its name in the run report.
fn scenario_service(cfg: &MultiTenantConfig) -> StreamService {
    let engine = EngineConfig {
        executor: ExecutorKind::Pool {
            workers: cfg.workers,
        },
        batch_size: cfg.batch_size.max(1),
        ..EngineConfig::default()
    };
    let mut serve = ServeConfig::new(engine);
    serve.calibration_items = 0;
    serve.fuse = false;
    StreamService::new(serve)
}

fn serve_err(e: ServeError) -> HarnessError {
    match e {
        ServeError::Codegen(e) => HarnessError::Codegen(e),
        ServeError::Engine(e) => HarnessError::Engine(e),
        other => HarnessError::Measurement {
            reason: other.to_string(),
        },
    }
}

/// Sink tuples delivered in one tenant's run: `items_in` of the actor
/// backing the `sink` operator.
fn sink_count(run: &TenantRun) -> u64 {
    run.report
        .actors
        .iter()
        .filter(|a| a.name.contains("sink"))
        .map(|a| a.items_in)
        .sum()
}

fn symmetric_rel_error(predicted: f64, measured: f64) -> f64 {
    let denom = predicted.abs().max(measured.abs());
    if denom <= f64::MIN_POSITIVE {
        0.0
    } else {
        (predicted - measured).abs() / denom
    }
}

/// Runs the multi-tenant layer for one seed with the default scenario
/// shape. See the module docs for the invariants.
///
/// # Errors
///
/// Propagates codegen/engine failures from any run; the semantic checks
/// themselves are reported as divergences, not errors.
pub fn run_multitenant_layer(seed: u64) -> Result<MultiTenantReport, HarnessError> {
    run_multitenant_layer_with(seed, &MultiTenantConfig::default())
}

/// [`run_multitenant_layer`] with an explicit scenario shape.
///
/// # Errors
///
/// Propagates codegen/engine failures from any run.
pub fn run_multitenant_layer_with(
    seed: u64,
    cfg: &MultiTenantConfig,
) -> Result<MultiTenantReport, HarnessError> {
    let n = cfg.tenants.max(1);
    let topologies: Vec<Topology> = (0..n).map(|i| tenant_topology(seed, i)).collect();
    let predictions: Vec<f64> = topologies
        .iter()
        .map(|t| steady_state(t).throughput.items_per_sec())
        .collect();

    let mut divergences = Vec::new();

    // Solo baselines: each tenant alone on its own fresh service.
    let mut solo_runs = Vec::with_capacity(n);
    for (i, topo) in topologies.iter().enumerate() {
        let mut svc = scenario_service(cfg);
        let receipt = svc
            .submit(SubmitRequest::new(format!("t{i}"), topo.clone()).with_items(cfg.items))
            .map_err(serve_err)?;
        if receipt.state != TenantState::Admitted {
            divergences.push(format!(
                "solo tenant t{i} not admitted: {:?} ({:?})",
                receipt.state, receipt.verdict
            ));
            solo_runs.push(None);
            continue;
        }
        let mut runs = svc.launch().map_err(serve_err)?;
        if runs.len() != 1 {
            return Err(HarnessError::Measurement {
                reason: format!("solo launch of t{i} ran {} tenant(s)", runs.len()),
            });
        }
        solo_runs.push(Some(runs.remove(0)));
    }

    // The concurrent run: every tenant on one shared service.
    let mut svc = scenario_service(cfg);
    let mut demands = Vec::with_capacity(n);
    for (i, topo) in topologies.iter().enumerate() {
        let receipt = svc
            .submit(SubmitRequest::new(format!("t{i}"), topo.clone()).with_items(cfg.items))
            .map_err(serve_err)?;
        demands.push(receipt.verdict.demand_cores());
        // (a) every paced tenant must pass the admission model.
        if receipt.state != TenantState::Admitted {
            divergences.push(format!(
                "concurrent tenant t{i} not admitted: {:?} ({:?})",
                receipt.state, receipt.verdict
            ));
        }
    }
    let concurrent = svc.launch().map_err(serve_err)?;

    let mut tenants = Vec::with_capacity(n);
    let mut aggregate_measured = 0.0;
    for (i, solo) in solo_runs.iter().enumerate() {
        let name = format!("t{i}");
        let conc = concurrent.iter().find(|r| r.name == name);
        let solo_sink = solo.as_ref().map(sink_count).unwrap_or(0);
        let concurrent_sink = conc.map(sink_count).unwrap_or(0);
        // (b) exact per-tenant isolation on the shared pool.
        if solo_sink != concurrent_sink {
            divergences.push(format!(
                "tenant {name} sink counts diverge: solo {solo_sink} vs \
                 concurrent {concurrent_sink}",
            ));
        }
        if let Some(run) = conc {
            if run.report.total_dead_letters() != 0 {
                divergences.push(format!(
                    "tenant {name} dropped {} tuple(s) in the concurrent run",
                    run.report.total_dead_letters()
                ));
            }
        }
        let concurrent_measured = conc.and_then(|r| r.report.source_throughput());
        aggregate_measured += concurrent_measured.unwrap_or(0.0);
        tenants.push(TenantOutcome {
            name,
            predicted: predictions[i],
            solo_measured: solo.as_ref().and_then(|r| r.report.source_throughput()),
            concurrent_measured,
            solo_sink,
            concurrent_sink,
            demand_cores: demands.get(i).copied().unwrap_or(0.0),
        });
    }

    // (c) the aggregate lands within tolerance of the summed predictions.
    let aggregate_predicted: f64 = predictions.iter().sum();
    let err = symmetric_rel_error(aggregate_predicted, aggregate_measured);
    if err > cfg.tolerance {
        divergences.push(format!(
            "aggregate throughput off-model: measured {aggregate_measured:.0} vs \
             predicted {aggregate_predicted:.0} items/s (symmetric error {err:.2} > \
             tolerance {:.2})",
            cfg.tolerance,
        ));
    }

    // (d) the plan cache is coherent: the same topology resubmitted after
    // the launch must hit and reproduce the byte-identical plan.
    let before = svc.status().first().map(|t| t.plan_checksum);
    let warm = svc
        .submit(SubmitRequest::new("t0-warm", topologies[0].clone()).with_items(cfg.items))
        .map_err(serve_err)?;
    if !warm.cache_hit {
        divergences.push("resubmission of tenant t0's topology missed the plan cache".into());
    } else if before.is_some_and(|c| c != warm.plan_checksum) {
        divergences.push(format!(
            "cache hit returned a different plan: {:#018x} vs {:#018x}",
            before.unwrap_or(0),
            warm.plan_checksum,
        ));
    }

    Ok(MultiTenantReport {
        seed,
        tenants,
        aggregate_measured,
        aggregate_predicted,
        cache_hits: svc.cache_stats().hits,
        divergences,
    })
}

/// Renders one multi-tenant report as the oracle's plain-text verdict
/// block.
pub fn multitenant_table(report: &MultiTenantReport) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "multitenant seed {}: {} tenant(s), aggregate measured {:.0} vs \
         predicted {:.0} items/s (symmetric error {:.2}), {} cache hit(s)",
        report.seed,
        report.tenants.len(),
        report.aggregate_measured,
        report.aggregate_predicted,
        symmetric_rel_error(report.aggregate_predicted, report.aggregate_measured),
        report.cache_hits,
    );
    for t in &report.tenants {
        let fmt_rate = |r: Option<f64>| match r {
            Some(v) => format!("{v:.0}"),
            None => "n/a".into(),
        };
        let _ = writeln!(
            s,
            "  {}: sink solo {} vs concurrent {} | rate solo {} vs \
             concurrent {} (predicted {:.0}) | demand {:.3} cores",
            t.name,
            t.solo_sink,
            t.concurrent_sink,
            fmt_rate(t.solo_measured),
            fmt_rate(t.concurrent_measured),
            t.predicted,
            t.demand_cores,
        );
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

// The layer's heavy coverage lives in `tests/serve.rs` (repo tier-1),
// which runs `run_multitenant_layer` on the CI seed; unit tests here stay
// cheap and structural.
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_topologies_are_deterministic_and_paced() {
        let a = tenant_topology(3, 0);
        let b = tenant_topology(3, 0);
        assert_eq!(a.num_operators(), b.num_operators());
        assert!(a.num_operators() >= 3 && a.num_operators() <= 4);
        // The source is throttled: its declared rate is the pipeline
        // bottleneck and every stage stays under ρ = 1.
        let report = steady_state(&a);
        let rate = report.throughput.items_per_sec();
        assert!((1_400.0..2_300.0).contains(&rate), "rate = {rate}");
        let last = a.operators().last().expect("sink");
        assert_eq!(last.name, "sink");
    }

    #[test]
    fn different_tenants_get_different_pipelines() {
        let r0 = steady_state(&tenant_topology(3, 0))
            .throughput
            .items_per_sec();
        let r1 = steady_state(&tenant_topology(3, 1))
            .throughput
            .items_per_sec();
        assert_ne!(r0.to_bits(), r1.to_bits());
    }

    #[test]
    fn default_scenario_fits_one_core() {
        let cfg = MultiTenantConfig::default();
        let demand: f64 = (0..cfg.tenants)
            .map(|i| {
                let topo = tenant_topology(11, i);
                let report = steady_state(&topo);
                spinstreams_analysis::pool_demand_cores(&report, topo.source().index())
            })
            .sum();
        assert!(demand < 0.9, "worker-side demand {demand} ≥ usable core");
    }

    #[test]
    fn symmetric_error_is_symmetric() {
        assert!((symmetric_rel_error(100.0, 50.0) - 0.5).abs() < 1e-12);
        assert!((symmetric_rel_error(50.0, 100.0) - 0.5).abs() < 1e-12);
        assert_eq!(symmetric_rel_error(0.0, 0.0), 0.0);
    }
}
