//! `kernel-app`: a few Algorithm 5 topologies with synthetic work switched
//! off, taken through the tool's own path (XML, §4.1 calibration,
//! Algorithms 1–3, codegen with monomorphised fusion) and run unpaced in a
//! closed loop. Operator bodies and fused kernels do most of the work, and
//! set-up is paid here.

use crate::closed::{self, Job};
use crate::deploy::{self, choose_fusions, unpaced, Outcome, Plan, Role};
use crate::taps::SinkMode;
use crate::{time_setup, Args, Ledger};
use spinstreams_analysis::{eliminate_bottlenecks, steady_state};
use spinstreams_core::{ServiceTime, Topology};
use spinstreams_operators::{OperatorKind, OperatorParams};
use spinstreams_runtime::Executor;
use spinstreams_tool::calibrate;
use spinstreams_topogen::{generate, TopogenConfig};
use spinstreams_xml::{scenario_from_xml, scenario_to_xml};
use std::hint::black_box;

/// Algorithm 5 seeds of the workload's topologies. The topologies are the
/// workload; the run seed varies only the streams they process.
pub const TOPOLOGY_SEEDS: [u64; 3] = [33, 58, 140];

/// The source rate the analysis plans for (the XML's source annotation).
/// Low enough that every operator's utilisation is far from the Algorithm
/// 2–3 decision boundaries, so calibration noise cannot flip the plan.
pub const PLANNING_RATE: f64 = 100_000.0;

/// Source tuples per topology per trial (a trial of all three lasts about
/// 0.5 s on a 2-core Intel Xeon host).
pub const ITEMS: u64 = 300_000;

/// Tuples of the §4.1 calibration run per topology.
pub const CALIBRATION_ITEMS: u64 = 2_000;

/// Algorithm 5 settings: the default testbed shape with synthetic
/// `work_ns` switched off, so every operator costs only its real logic.
pub fn topogen_config() -> TopogenConfig {
    TopogenConfig {
        min_vertices: 6,
        max_vertices: 12,
        work_ns_range: (0, 0),
        ..TopogenConfig::default()
    }
}

/// The workload's input: one scenario XML document per topology, with the
/// source annotated at [`PLANNING_RATE`].
pub fn inputs() -> Vec<String> {
    TOPOLOGY_SEEDS
        .iter()
        .map(|&seed| {
            let g = generate(seed, &topogen_config());
            let mut b = g.topology.to_builder();
            b.operator_mut(g.topology.source()).service_time =
                ServiceTime::from_secs(1.0 / PLANNING_RATE);
            let topo = b
                .build()
                .expect("re-annotated source keeps the topology valid");
            scenario_to_xml(&topo, &format!("kernel-app-{seed}"), Some(&g.source_keys))
        })
        .collect()
}

/// XML text to an optimised plan: parse, calibrate on the engine,
/// Algorithms 1–3; the plan runs with an unpaced source.
pub fn setup(xml: &str, seed: u64) -> Result<Plan, String> {
    let (topo, keys) = scenario_from_xml(xml).map_err(|e| format!("xml: {e}"))?;
    let executor = Executor::Threads(deploy::engine(seed ^ 0xCA11, None));
    let calibrated = calibrate(&topo, keys.as_ref(), CALIBRATION_ITEMS, 50, &executor)
        .map_err(|e| format!("calibration: {e}"))?;
    // Algorithm 1: the prediction the plan is judged by.
    black_box(steady_state(&calibrated));
    let fission = eliminate_bottlenecks(&calibrated);
    let fusions = choose_fusions(&calibrated, &fission.replicas);
    Ok(Plan {
        topo: unpaced(&calibrated),
        keys,
        replicas: fission.replicas,
        fusions,
    })
}

/// Kinds that emit exactly one tuple per input.
const ONE_TO_ONE: [OperatorKind; 4] = [
    OperatorKind::IdentityMap,
    OperatorKind::ArithmeticMap,
    OperatorKind::Projection,
    OperatorKind::Enricher,
];

/// Tuples out per tuple in for an operator of deterministic selectivity.
fn fixed_selectivity(topo: &Topology, op: spinstreams_core::OperatorId) -> Option<u64> {
    let spec = topo.operator(op);
    let kind: OperatorKind = spec.kind.parse().ok()?;
    if ONE_TO_ONE.contains(&kind) {
        Some(1)
    } else if kind == OperatorKind::FlatMap {
        Some(OperatorParams::from_spec_params(&spec.params).fanout as u64)
    } else {
        None
    }
}

/// No losses (checked by the caller), the source emitted every tuple, and
/// counts are conserved at every actor of deterministic selectivity:
/// emitters, collectors and single-operator actors of a 1:1 or flat-map
/// kind.
pub fn check(plan: &Plan, out: &Outcome, items: u64, _seed: u64) -> Result<(), String> {
    let topo = &plan.topo;
    for ((a, role), members) in out.report.actors.iter().zip(&out.roles).zip(&out.members) {
        let factor = match (role, members.as_slice()) {
            (Role::Source, _) => {
                if a.items_out != items {
                    return Err(format!("source emitted {} of {items}", a.items_out));
                }
                continue;
            }
            (Role::Emitter | Role::Collector, _) => Some(1),
            (_, [op]) => fixed_selectivity(topo, *op),
            _ => None,
        };
        if let Some(f) = factor {
            if a.items_out != f * a.items_in {
                return Err(format!(
                    "{}: {} in, {} out, expected {f} out per in",
                    a.name, a.items_in, a.items_out
                ));
            }
        }
    }
    Ok(())
}

/// Runs the workload's end-to-end measurement.
pub fn run(args: &Args, ledger: &mut Ledger) -> Result<(), String> {
    let xmls = inputs();
    let plans: Vec<Plan> = xmls
        .iter()
        .map(|x| setup(x, args.seed))
        .collect::<Result<_, _>>()?;
    let setup_s = time_setup(|| {
        for x in &xmls {
            setup(x, args.seed)?.build(1_000_000, args.seed)?;
        }
        Ok(())
    })?;
    ledger.e2e("setup_s", setup_s);
    for (p, seed) in plans.iter().zip(TOPOLOGY_SEEDS) {
        let kinds: Vec<&str> = p
            .topo
            .operator_ids()
            .map(|id| p.topo.operator(id).kind.as_str())
            .collect();
        ledger.note(format!(
            "topology {seed}: kinds {kinds:?}, replicas {:?}, fusion groups {:?}",
            p.replicas,
            p.fusions
                .iter()
                .map(|g| g.members.iter().map(|m| m.0).collect::<Vec<_>>())
                .collect::<Vec<_>>()
        ));
    }
    let jobs: Vec<Job> = plans
        .iter()
        .map(|plan| Job {
            plan,
            items: ITEMS,
            mode: SinkMode::Closed {
                order_classes: None,
            },
            check,
        })
        .collect();
    closed::measure(&jobs, args.seed, args.seconds, ledger)?;
    Ok(())
}
