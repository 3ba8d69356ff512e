//! `hop-saturated`: the fission shape with pass-through operators, closed
//! loop. Every tuple crosses four mailboxes (one of them an MPSC fan-in)
//! and does no operator work, so mailbox, route, scheduler and metrics
//! costs are the whole per-tuple cost.

use crate::closed::{self, Job};
use crate::deploy::{Outcome, Plan, Role};
use crate::taps::SinkMode;
use crate::{time_setup, Args, Ledger};
use spinstreams_analysis::{eliminate_bottlenecks, steady_state};
use spinstreams_xml::topology_from_xml;
use std::hint::black_box;

/// The topology: an unpaced source (one tuple per ns), a stateless
/// identity map annotated at 3.5 ns per tuple, which Algorithm 2 fissions
/// into 4 replicas behind an emitter and a collector, and a sink.
pub const XML: &str = r#"<?xml version="1.0" encoding="UTF-8"?>
<topology name="hop-saturated">
  <operator id="0" name="src" kind="source" type="stateless" service-time="0.001" time-unit="us"/>
  <operator id="1" name="hop" kind="identity-map" type="stateless" service-time="0.0035" time-unit="us">
    <param name="work_ns" value="0"/>
  </operator>
  <operator id="2" name="sink" kind="identity-map" type="stateless" service-time="0.0005" time-unit="us">
    <param name="work_ns" value="0"/>
  </operator>
  <edge from="0" to="1" probability="1.0"/>
  <edge from="1" to="2" probability="1.0"/>
</topology>
"#;

/// Source tuples per trial (about 0.2 s on a 2-core Intel Xeon host;
/// short trials give the median many of them).
pub const ITEMS: u64 = 750_000;

/// Replicas Algorithm 2 must choose for [`XML`].
pub const REPLICAS: [usize; 3] = [1, 4, 1];

/// XML text to an optimised plan: parse, Algorithm 1, Algorithm 2.
pub fn setup(xml: &str) -> Result<Plan, String> {
    let topo = topology_from_xml(xml).map_err(|e| format!("xml: {e}"))?;
    // Algorithm 1: the prediction the plan is judged by.
    black_box(steady_state(&topo));
    let fission = eliminate_bottlenecks(&topo);
    Ok(Plan {
        topo,
        keys: None,
        replicas: fission.replicas,
        fusions: Vec::new(),
    })
}

/// Lossless, and in source order along each replica path: the emitter
/// deals tuples round-robin, so sequence numbers of one residue class
/// mod 4 all took the same replica and must reach the sink rising.
pub fn check(_plan: &Plan, out: &Outcome, items: u64, _seed: u64) -> Result<(), String> {
    let [sink] = out.sinks.as_slice() else {
        return Err(format!("expected one sink, found {}", out.sinks.len()));
    };
    if sink.count != items || sink.max_seq + 1 != items {
        return Err(format!(
            "sink saw {} tuples (max seq {}) of {items}",
            sink.count, sink.max_seq
        ));
    }
    if sink.order_violations > 0 {
        return Err(format!(
            "{} tuples overtook an earlier tuple of their replica path",
            sink.order_violations
        ));
    }
    let per_replica = items / 4;
    for (a, role) in out.report.actors.iter().zip(&out.roles) {
        if *role == Role::Replica && a.items_in.abs_diff(per_replica) > 1 {
            return Err(format!("replica {} got {} of {items}", a.name, a.items_in));
        }
    }
    Ok(())
}

/// Runs the workload's end-to-end measurement.
pub fn run(args: &Args, ledger: &mut Ledger) -> Result<(), String> {
    let plan = setup(XML)?;
    if plan.replicas != REPLICAS {
        return Err(format!(
            "Algorithm 2 chose replicas {:?}, expected {REPLICAS:?}",
            plan.replicas
        ));
    }
    let setup_s = time_setup(|| setup(XML)?.build(1_000_000, args.seed).map(drop))?;
    ledger.e2e("setup_s", setup_s);
    let jobs = [Job {
        plan: &plan,
        items: ITEMS,
        mode: SinkMode::Closed {
            order_classes: Some(4),
        },
        check,
    }];
    closed::measure(&jobs, args.seed, args.seconds, ledger)?;
    Ok(())
}
