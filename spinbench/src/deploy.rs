//! The tool's own path from a topology to a running graph, plus the
//! engine settings and report digests every threaded workload shares.

use crate::taps::{IngressTap, RunClock, SinkMode, SinkRecord, SinkTap};
use spinstreams_analysis::{fuse, fusion_candidates};
use spinstreams_codegen::{build_actor_graph, CodegenOptions, FusionGroup, GeneratedPlan};
use spinstreams_core::{KeyDistribution, OperatorId, ServiceTime, Topology};
use spinstreams_runtime::{
    run, run_with_telemetry, ActorGraph, EngineConfig, ExecutorKind, RunReport, StreamOperator,
    TelemetryConfig, TelemetryReport,
};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Envelope batch size of every threaded workload.
pub const BATCH: usize = 64;

/// Engine settings of every threaded workload: one pool worker beside the
/// source's dedicated thread, so the load fits two cores; batch 64; a send
/// timeout long enough that nothing is ever shed.
pub fn engine(seed: u64, checkpoint_interval: Option<u64>) -> EngineConfig {
    EngineConfig {
        executor: ExecutorKind::Pool { workers: 1 },
        batch_size: BATCH,
        send_timeout: Duration::from_secs(60),
        seed,
        checkpoint_interval,
        ..EngineConfig::default()
    }
}

/// `topo` with its source annotated at one tuple per nanosecond, which
/// codegen turns into a source that is never paced in practice: the
/// closed-loop workloads are limited only by backpressure.
pub fn unpaced(topo: &Topology) -> Topology {
    let mut b = topo.to_builder();
    b.operator_mut(topo.source()).service_time = ServiceTime::from_secs(1e-9);
    b.build()
        .expect("changing the source rate keeps the topology valid")
}

/// Algorithm 3 as the tool applies it after fission: the fusion candidates
/// of the steady-state analysis, most underutilised first, each accepted
/// when the cost model predicts no throughput loss, it touches no
/// replicated operator and it is disjoint from the groups already taken.
pub fn choose_fusions(topo: &Topology, replicas: &[usize]) -> Vec<FusionGroup> {
    let mut taken: BTreeSet<OperatorId> = BTreeSet::new();
    let mut groups = Vec::new();
    for c in fusion_candidates(topo, 0.9) {
        if c.members
            .iter()
            .any(|m| replicas[m.0] != 1 || taken.contains(m))
        {
            continue;
        }
        if !fuse(topo, &c.members).is_ok_and(|o| o.is_feasible()) {
            continue;
        }
        taken.extend(c.members.iter().copied());
        groups.push(FusionGroup {
            members: c.members,
            front: c.front_end,
        });
    }
    groups
}

/// An optimised deployment: the topology codegen builds from, the source
/// key distribution, and Algorithms 2–3's decisions.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Topology handed to codegen.
    pub topo: Topology,
    /// Source key distribution.
    pub keys: Option<KeyDistribution>,
    /// Replication degree per operator (Algorithm 2).
    pub replicas: Vec<usize>,
    /// Fusion groups (Algorithm 3).
    pub fusions: Vec<FusionGroup>,
}

impl Plan {
    /// Codegen: the runnable graph of `items` source tuples.
    pub fn build(&self, items: u64, seed: u64) -> Result<GeneratedPlan, String> {
        let opts = CodegenOptions {
            items,
            seed,
            ..CodegenOptions::default()
        };
        build_actor_graph(
            &self.topo,
            self.keys.clone(),
            &self.replicas,
            &self.fusions,
            &opts,
        )
        .map_err(|e| format!("codegen: {e}"))
    }
}

/// What an actor does in a deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Role {
    /// Generates the stream.
    Source,
    /// Routes a replicated operator's input to its replicas.
    Emitter,
    /// One replica of a replicated operator.
    Replica,
    /// Merges a replicated operator's outputs.
    Collector,
    /// Any other actor with outputs (plain, fused or meta operators).
    Worker,
    /// An actor without outputs.
    Sink,
}

impl Role {
    /// All roles, in report order.
    pub const ALL: [Role; 6] = [
        Role::Source,
        Role::Emitter,
        Role::Replica,
        Role::Collector,
        Role::Worker,
        Role::Sink,
    ];

    /// Name used in metric names.
    pub fn label(self) -> &'static str {
        match self {
            Role::Source => "source",
            Role::Emitter => "emitter",
            Role::Replica => "replica",
            Role::Collector => "collector",
            Role::Worker => "worker",
            Role::Sink => "sink",
        }
    }
}

/// The role of every actor of a generated deployment.
pub fn roles(gp: &GeneratedPlan) -> Vec<Role> {
    let actors = gp.graph.actors();
    let mut roles: Vec<Role> = actors
        .iter()
        .map(|a| {
            if a.behavior.is_source() {
                Role::Source
            } else if a.routes.is_empty() {
                Role::Sink
            } else {
                Role::Worker
            }
        })
        .collect();
    for (op, slots) in gp.replica_slots.iter().enumerate() {
        for r in slots {
            roles[r.0] = Role::Replica;
        }
        if let Some(e) = gp.emitter_actor[op] {
            roles[e.0] = Role::Emitter;
        }
        if let Some(c) = gp.collector_actor[op] {
            roles[c.0] = Role::Collector;
        }
    }
    roles
}

/// The topology operators each actor executes: one for plain actors and
/// replicas, every member for fused actors, none for emitters and
/// collectors.
pub fn members(gp: &GeneratedPlan) -> Vec<Vec<OperatorId>> {
    let mut members = vec![Vec::new(); gp.graph.num_actors()];
    for (op, input) in gp.input_actor.iter().enumerate() {
        if gp.emitter_actor[op].is_none() {
            members[input.0].push(OperatorId(op));
        }
        for r in &gp.replica_slots[op] {
            members[r.0].push(OperatorId(op));
        }
    }
    members
}

/// A generated graph with the benchmark's taps in place.
pub struct Deployed {
    graph: ActorGraph,
    roles: Vec<Role>,
    members: Vec<Vec<OperatorId>>,
    sinks: Arc<Mutex<Vec<SinkRecord>>>,
    n_sinks: usize,
}

/// Builds `plan` for `items` tuples and wraps its sinks (and, in closed
/// loops, the actors right behind the source) in taps.
pub fn deploy(plan: &Plan, items: u64, seed: u64, mode: SinkMode) -> Result<Deployed, String> {
    let mut gp = plan.build(items, seed)?;
    let roles = roles(&gp);
    let members = members(&gp);
    let topo = &plan.topo;
    let ingress: BTreeSet<usize> = match mode {
        SinkMode::Closed { .. } => topo
            .successors(topo.source())
            .iter()
            .map(|s| gp.input_actor[s.0].0)
            .collect(),
        SinkMode::Log { .. } => BTreeSet::new(),
    };
    let clock = RunClock::new(items);
    let sinks = Arc::new(Mutex::new(Vec::new()));
    let mut n_sinks = 0;
    gp.graph.map_workers(|id, op| -> Box<dyn StreamOperator> {
        let op: Box<dyn StreamOperator> = if ingress.contains(&id.0) {
            Box::new(IngressTap::new(op, Arc::clone(&clock)))
        } else {
            op
        };
        if roles[id.0] == Role::Sink {
            n_sinks += 1;
            Box::new(SinkTap::new(
                op,
                Arc::clone(&clock),
                mode,
                Arc::clone(&sinks),
            ))
        } else {
            op
        }
    });
    Ok(Deployed {
        graph: gp.graph,
        roles,
        members,
        sinks,
        n_sinks,
    })
}

/// A finished run: the engine's report and what each sink tap saw.
pub struct Outcome {
    /// The engine's run report.
    pub report: RunReport,
    /// One record per sink.
    pub sinks: Vec<SinkRecord>,
    /// Span/trace output, for traced runs.
    pub telemetry: Option<TelemetryReport>,
    /// Role of every actor.
    pub roles: Vec<Role>,
    /// Topology operators of every actor.
    pub members: Vec<Vec<OperatorId>>,
}

impl Deployed {
    /// Runs the graph to completion, traced when `telemetry` is given.
    pub fn run(
        self,
        cfg: &EngineConfig,
        telemetry: Option<&TelemetryConfig>,
    ) -> Result<Outcome, String> {
        let Deployed {
            graph,
            roles,
            members,
            sinks,
            n_sinks,
        } = self;
        let (report, telemetry) = match telemetry {
            None => (run(graph, cfg).map_err(|e| format!("engine: {e}"))?, None),
            Some(t) => {
                let (r, tel) =
                    run_with_telemetry(graph, cfg, t).map_err(|e| format!("engine: {e}"))?;
                (r, Some(tel))
            }
        };
        // The engine has dropped every operator, so each tap has handed in
        // its record.
        let sinks = std::mem::take(
            &mut *sinks
                .lock()
                .expect("a sink tap panicked while handing in its record"),
        );
        if sinks.len() != n_sinks {
            return Err(format!(
                "{} of {n_sinks} sink records handed back after the run",
                sinks.len()
            ));
        }
        Ok(Outcome {
            report,
            sinks,
            telemetry,
            roles,
            members,
        })
    }
}

/// Fails unless the run dropped, dead-lettered and panicked on nothing.
pub fn check_clean(report: &RunReport) -> Result<(), String> {
    let (dropped, dead, panics) = (
        report.total_dropped(),
        report.total_dead_letters(),
        report.total_panics(),
    );
    if dropped + dead + panics > 0 {
        return Err(format!(
            "run lost tuples: {dropped} dropped, {dead} dead letters, {panics} panics"
        ));
    }
    Ok(())
}
