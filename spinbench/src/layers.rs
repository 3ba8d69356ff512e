//! The traced run: per-layer metrics measured from outside the program.
//! Each layer is timed through its module's public functions, and the
//! engine layers are read from the public `RunReport` and from the span
//! output of `run_with_telemetry`. Nothing is traced inside the program
//! beyond what it already offers.
//!
//! A layer a workload does not exercise reads 0 on that workload (for
//! example `checkpoint.*` outside `paced-keyed`, or the engine roles on
//! `paper-testbed`, which runs no threads).

use crate::closed::Job;
use crate::deploy::{self, choose_fusions, Outcome, Plan, Role};
use crate::stats::median;
use crate::taps::SinkMode;
use crate::{hop, kernel, paced, sys, testbed, time_setup, Args, Ledger};
use spinstreams_analysis::{eliminate_bottlenecks, evaluate_with_replicas, steady_state};
use spinstreams_codegen::{checksum, serialize_plan, CodegenOptions};
use spinstreams_core::{KeyDistribution, OperatorId, Topology, Tuple};
use spinstreams_operators::{build_kernel, build_operator, OperatorKind, OperatorParams};
use spinstreams_runtime::{
    assemble_spans, channel, channel_spsc, simulate, Envelope, Executor, FusedChain, MetaDest,
    MetaOperator, MetaRoute, Outputs, RecvBatch, Sender, SimConfig, StreamOperator,
    TelemetryConfig, TryRecvBatch, XorShift64, DEFAULT_PORT,
};
use spinstreams_serve::{ServeConfig, StreamService, SubmitRequest};
use spinstreams_tool::calibrate;
use spinstreams_topogen::generate;
use spinstreams_xml::scenario_from_xml;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Mailbox capacity of the mailbox probes (the engine default).
const MAILBOX: usize = 256;

fn data(seq: u64) -> Envelope {
    Envelope::Data(Tuple::splat(seq, seq, 1.0))
}

/// Cross-thread hand-off: one producer thread pushes `n` tuples in batches
/// of `batch` with `send_batch`, rotating over `senders`; this thread
/// drains them with `recv_drain`. Returns ns per tuple.
fn cross_thread(
    senders: Vec<Sender>,
    rx: spinstreams_runtime::Receiver,
    batch: usize,
    n: u64,
) -> f64 {
    let t0 = Instant::now();
    let producer = std::thread::spawn(move || {
        let mut buf = Vec::with_capacity(batch);
        let mut seq = 0u64;
        let mut i = 0usize;
        while seq < n {
            while buf.len() < batch && seq < n {
                buf.push(data(seq));
                seq += 1;
            }
            senders[i % senders.len()].send_batch(&mut buf, Duration::from_secs(60));
            buf.clear();
            i += 1;
        }
    });
    let mut got = 0u64;
    let mut buf = Vec::with_capacity(batch);
    while got < n {
        match rx.recv_drain(&mut buf, batch) {
            RecvBatch::Received(k) => got += k as u64,
            RecvBatch::Disconnected => break,
        }
        buf.clear();
    }
    let _ = producer.join();
    t0.elapsed().as_nanos() as f64 / n as f64
}

/// Same-thread hand-off: `send_batch` then `try_drain` of one batch at a
/// time, the work one pool worker does for both ends of a hop. Returns ns
/// per tuple.
fn same_thread(
    senders: &[Sender],
    rx: &spinstreams_runtime::Receiver,
    batch: usize,
    n: u64,
) -> f64 {
    let mut out = Vec::with_capacity(batch);
    let mut inb = Vec::with_capacity(batch);
    let t0 = Instant::now();
    let mut seq = 0u64;
    let mut i = 0usize;
    while seq < n {
        while out.len() < batch {
            out.push(data(seq));
            seq += 1;
        }
        senders[i % senders.len()].send_batch(&mut out, Duration::from_secs(60));
        out.clear();
        i += 1;
        while let TryRecvBatch::Received(_) = rx.try_drain(&mut inb, batch) {
            inb.clear();
        }
    }
    t0.elapsed().as_nanos() as f64 / n as f64
}

fn mailbox(ledger: &mut Ledger) -> (f64, f64) {
    let spsc = |batch: usize, n: u64| {
        let v: Vec<f64> = (0..3)
            .map(|_| {
                let (tx, rx) = channel_spsc(MAILBOX);
                cross_thread(vec![tx], rx, batch, n)
            })
            .collect();
        median(&v).unwrap_or(0.0)
    };
    let mpsc = |batch: usize, n: u64| {
        let v: Vec<f64> = (0..3)
            .map(|_| {
                let (tx, rx) = channel(MAILBOX);
                let senders = (0..4).map(|_| tx.clone()).collect();
                drop(tx);
                cross_thread(senders, rx, batch, n)
            })
            .collect();
        median(&v).unwrap_or(0.0)
    };
    ledger.layer("mailbox.spsc_ns.b1", spsc(1, 300_000), "ns");
    ledger.layer("mailbox.spsc_ns.b64", spsc(64, 4_000_000), "ns");
    ledger.layer("mailbox.mpsc_ns.b64", mpsc(64, 4_000_000), "ns");
    let local = |n_senders: usize| {
        let v: Vec<f64> = (0..3)
            .map(|_| {
                let (tx, rx) = if n_senders == 1 {
                    channel_spsc(MAILBOX)
                } else {
                    channel(MAILBOX)
                };
                let senders: Vec<Sender> = if n_senders == 1 {
                    vec![tx]
                } else {
                    let s = (0..n_senders).map(|_| tx.clone()).collect();
                    drop(tx);
                    s
                };
                same_thread(&senders, &rx, 64, 4_000_000)
            })
            .collect();
        median(&v).unwrap_or(0.0)
    };
    let (l1, l4) = (local(1), local(4));
    ledger.layer("mailbox.local_spsc_ns.b64", l1, "ns");
    ledger.layer("mailbox.local_mpsc_ns.b64", l4, "ns");
    (l1, l4)
}

/// The stateless 1:1 kinds chained in the fused and meta probes.
const CHAIN: [OperatorKind; 4] = [
    OperatorKind::IdentityMap,
    OperatorKind::ArithmeticMap,
    OperatorKind::Projection,
    OperatorKind::Enricher,
];

fn zero_work() -> OperatorParams {
    OperatorParams {
        work_ns: 0,
        ..OperatorParams::default()
    }
}

/// ns per tuple of `op` over `stream`.
fn ns_per_tuple(op: &mut dyn StreamOperator, stream: &[Tuple]) -> f64 {
    let mut out = Outputs::new();
    let t0 = Instant::now();
    for t in stream {
        op.process(black_box(*t), &mut out);
        black_box(out.len());
        out.clear();
    }
    t0.elapsed().as_nanos() as f64 / stream.len() as f64
}

fn fused_meta(ledger: &mut Ledger, stream: &[Tuple]) {
    let p = zero_work();
    let stages = CHAIN.len() as f64;
    let fused = median(
        &(0..5)
            .map(|_| {
                let kernels = CHAIN
                    .iter()
                    .map(|k| build_kernel(*k, &p).expect("stateless kinds have kernels"))
                    .collect();
                let mut chain = FusedChain::new("probe", kernels, DEFAULT_PORT);
                ns_per_tuple(&mut chain, stream) / stages
            })
            .collect::<Vec<_>>(),
    );
    let meta = median(
        &(0..5)
            .map(|_| {
                let ops = CHAIN.iter().map(|k| build_operator(*k, &p)).collect();
                let routes = (0..CHAIN.len())
                    .map(|i| {
                        let dest = if i + 1 < CHAIN.len() {
                            MetaDest::Member(i + 1)
                        } else {
                            MetaDest::Output(DEFAULT_PORT)
                        };
                        vec![MetaRoute::Unicast(dest)]
                    })
                    .collect();
                let mut meta = MetaOperator::new("probe", ops, routes, 0, 1);
                ns_per_tuple(&mut meta, stream) / stages
            })
            .collect::<Vec<_>>(),
    );
    ledger.layer("fused.ns_per_stage", fused.unwrap_or(0.0), "ns");
    ledger.layer("meta.ns_per_member", meta.unwrap_or(0.0), "ns");
}

/// Every operator of every topology the workloads deploy, with the key
/// distribution of the stream it sees.
fn all_operators() -> Vec<(OperatorKind, OperatorParams, KeyDistribution)> {
    let mut ops = Vec::new();
    let mut add = |topo: &Topology, keys: &KeyDistribution| {
        for id in topo.operator_ids().filter(|&id| id != topo.source()) {
            let spec = topo.operator(id);
            if let Ok(kind) = spec.kind.parse::<OperatorKind>() {
                ops.push((
                    kind,
                    OperatorParams::from_spec_params(&spec.params),
                    keys.clone(),
                ));
            }
        }
    };
    for xml in kernel::inputs() {
        let (t, k) = scenario_from_xml(&xml).expect("kernel-app inputs parse");
        add(&t, &k.expect("kernel-app inputs carry keys"));
    }
    let (t, k) = scenario_from_xml(&paced::input()).expect("paced-keyed input parses");
    add(&t, &k.expect("paced-keyed input carries keys"));
    let t = spinstreams_xml::topology_from_xml(hop::XML).expect("hop-saturated input parses");
    add(&t, &KeyDistribution::uniform(64));
    ops
}

/// `operators.<kind>.ns_per_tuple`: each operator built by the registry
/// and fed 50k tuples of its topology's stream; the mean per kind.
fn operators(ledger: &mut Ledger, seed: u64) -> BTreeMap<String, f64> {
    let mut per_kind: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (kind, params, keys) in all_operators() {
        let stream: Vec<Tuple> = paced::source_stream(50_000, &keys, seed).collect();
        let mut op = build_operator(kind, &params);
        per_kind
            .entry(kind.label().to_string())
            .or_default()
            .push(ns_per_tuple(op.as_mut(), &stream));
    }
    let mut means = BTreeMap::new();
    for (kind, v) in per_kind {
        let mean = v.iter().sum::<f64>() / v.len() as f64;
        ledger.layer(format!("operators.{kind}.ns_per_tuple"), mean, "ns");
        means.insert(kind, mean);
    }
    means
}

/// The single-threaded baseline: each `kernel-app` topology run
/// by one plain loop with no runtime at all, routing by edge probability.
fn single_thread_tps(ledger: &mut Ledger, seed: u64) {
    const N: u64 = 100_000;
    let (mut tuples, mut secs) = (0u64, 0.0f64);
    for xml in kernel::inputs() {
        let (topo, keys) = scenario_from_xml(&xml).expect("kernel-app inputs parse");
        let keys = keys.expect("kernel-app inputs carry keys");
        let mut ops: Vec<Option<Box<dyn StreamOperator>>> = topo
            .operator_ids()
            .map(|id| {
                let spec = topo.operator(id);
                let kind = spec.kind.parse::<OperatorKind>().ok()?;
                Some(build_operator(
                    kind,
                    &OperatorParams::from_spec_params(&spec.params),
                ))
            })
            .collect();
        let outs: Vec<Vec<(OperatorId, f64)>> = topo
            .operator_ids()
            .map(|id| {
                topo.out_edges(id)
                    .iter()
                    .map(|&e| (topo.edge(e).to, topo.edge(e).probability))
                    .collect()
            })
            .collect();
        let mut rng = XorShift64::new(seed);
        let pick = |from: OperatorId, rng: &mut XorShift64| -> Option<OperatorId> {
            let edges = &outs[from.0];
            let u = rng.next_f64();
            let mut acc = 0.0;
            for &(to, p) in edges {
                acc += p;
                if u < acc {
                    return Some(to);
                }
            }
            edges.last().map(|e| e.0)
        };
        let stream: Vec<Tuple> = paced::source_stream(N, &keys, seed).collect();
        let mut out = Outputs::new();
        let mut work: Vec<(OperatorId, Tuple)> = Vec::with_capacity(64);
        let t0 = Instant::now();
        for t in stream {
            if let Some(first) = pick(topo.source(), &mut rng) {
                work.push((first, t));
            }
            while let Some((op, t)) = work.pop() {
                if let Some(o) = ops[op.0].as_mut() {
                    o.process(t, &mut out);
                }
                for (_, o) in out.drain() {
                    if let Some(next) = pick(op, &mut rng) {
                        work.push((next, o));
                    }
                }
            }
        }
        secs += t0.elapsed().as_secs_f64();
        tuples += N;
    }
    ledger.layer("single_thread_tps", tuples as f64 / secs, "1/s");
}

/// The plan-cache miss split into its parts, with the hit beside it, on
/// the first `kernel-app` topology.
fn serve(ledger: &mut Ledger, seed: u64) -> Result<(), String> {
    let xml = &kernel::inputs()[0];
    let (topo, keys) = scenario_from_xml(xml).map_err(|e| format!("xml: {e}"))?;
    let mut cfg = ServeConfig::new(deploy::engine(seed, None));
    cfg.calibration_items = kernel::CALIBRATION_ITEMS;
    let request = |name: &str| {
        let mut r = SubmitRequest::new(name, topo.clone()).with_items(100_000);
        if let Some(k) = &keys {
            r = r.with_source_keys(k.clone());
        }
        r
    };
    let mut miss = Vec::new();
    let mut fresh = None;
    for i in 0..5 {
        let service = fresh.insert(StreamService::new(cfg.clone()));
        let t0 = Instant::now();
        let r = service
            .submit(request(&format!("miss{i}")))
            .map_err(|e| format!("serve: {e}"))?;
        miss.push(t0.elapsed().as_secs_f64());
        if r.cache_hit {
            return Err("a fresh service reported a plan-cache hit".into());
        }
    }
    let service = fresh.as_mut().expect("five misses ran");
    let mut hit = Vec::new();
    for i in 0..20 {
        let t0 = Instant::now();
        let r = service
            .submit(request(&format!("hit{i}")))
            .map_err(|e| format!("serve: {e}"))?;
        hit.push(t0.elapsed().as_secs_f64());
        if !r.cache_hit {
            return Err("an identical resubmission missed the plan cache".into());
        }
    }
    let executor = Executor::Threads(cfg.engine.clone());
    let opts = CodegenOptions {
        items: 100_000,
        seed: cfg.engine.seed,
        ..CodegenOptions::default()
    };
    let (mut cal, mut ana, mut text, mut sum) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for _ in 0..5 {
        let t0 = Instant::now();
        let calibrated = calibrate(
            &topo,
            keys.as_ref(),
            cfg.calibration_items,
            cfg.calibration_min_samples,
            &executor,
        )
        .map_err(|e| format!("calibration: {e}"))?;
        let t1 = Instant::now();
        let replicas = eliminate_bottlenecks(&calibrated).replicas;
        black_box(evaluate_with_replicas(&calibrated, &replicas));
        let t2 = Instant::now();
        let plan_text = serialize_plan(&calibrated, &replicas, &[], &opts);
        let t3 = Instant::now();
        black_box(checksum(plan_text.as_bytes()));
        let t4 = Instant::now();
        cal.push((t1 - t0).as_secs_f64());
        ana.push((t2 - t1).as_secs_f64());
        text.push((t3 - t2).as_secs_f64());
        sum.push((t4 - t3).as_secs_f64());
    }
    let m = |v: &[f64]| median(v).unwrap_or(0.0);
    let parts = m(&cal) + m(&ana) + m(&text) + m(&sum);
    ledger.layer("serve.submit_miss_ms", m(&miss) * 1e3, "ms");
    ledger.layer("serve.submit_hit_us", m(&hit) * 1e6, "us");
    ledger.layer("serve.calibrate_ms", m(&cal) * 1e3, "ms");
    ledger.layer("serve.analysis_ms", m(&ana) * 1e3, "ms");
    ledger.layer("serve.plan_text_ms", m(&text) * 1e3, "ms");
    ledger.layer("serve.checksum_us", m(&sum) * 1e6, "us");
    ledger.layer("serve.miss_residual_ms", (m(&miss) - parts) * 1e3, "ms");
    Ok(())
}

/// XML parsing, Algorithms 1–3, codegen and plan checksum on the
/// workload's own documents and plans.
fn analysis(ledger: &mut Ledger, xmls: &[String], plans: &[Plan], seed: u64) -> Result<(), String> {
    let per = |total_s: f64, n: usize| total_s / n as f64;
    let parse = time_setup(|| {
        for x in xmls {
            scenario_from_xml(x).map_err(|e| format!("xml: {e}"))?;
        }
        Ok(())
    })?;
    let timed = |f: &dyn Fn(&Plan)| {
        time_setup(|| {
            plans.iter().for_each(f);
            Ok(())
        })
    };
    let alg1 = timed(&|p| drop(black_box(steady_state(&p.topo))))?;
    let alg2 = timed(&|p| drop(black_box(eliminate_bottlenecks(&p.topo))))?;
    let alg3 = timed(&|p| drop(black_box(choose_fusions(&p.topo, &p.replicas))))?;
    let build = time_setup(|| {
        for p in plans {
            p.build(100_000, seed)?;
        }
        Ok(())
    })?;
    let opts = CodegenOptions {
        items: 100_000,
        seed,
        ..CodegenOptions::default()
    };
    let plan_sum = timed(&|p| {
        let text = serialize_plan(&p.topo, &p.replicas, &p.fusions, &opts);
        black_box(checksum(text.as_bytes()));
    })?;
    let n = plans.len();
    ledger.layer("xml.parse_us", per(parse, xmls.len()) * 1e6, "us");
    ledger.layer("analysis.alg1_us", per(alg1, n) * 1e6, "us");
    ledger.layer("analysis.alg2_us", per(alg2, n) * 1e6, "us");
    ledger.layer("analysis.alg3_us", per(alg3, n) * 1e6, "us");
    ledger.layer("codegen.build_ms", per(build, n) * 1e3, "ms");
    ledger.layer("codegen.plan_checksum_us", per(plan_sum, n) * 1e6, "us");
    Ok(())
}

/// DES actor activations per second over the plans' graphs.
fn sim(plans: &[Plan], seed: u64) -> Result<f64, String> {
    let (mut events, mut secs) = (0u64, 0.0f64);
    for p in plans {
        let graph = p.build(100_000, seed)?.graph;
        let t0 = Instant::now();
        let r = simulate(
            graph,
            &SimConfig {
                seed,
                ..SimConfig::default()
            },
        )
        .map_err(|e| format!("sim: {e}"))?;
        secs += t0.elapsed().as_secs_f64();
        events += r.actors.iter().map(|a| a.items_in).sum::<u64>();
    }
    Ok(events as f64 / secs)
}

/// Per-role engine figures from untraced runs, spans and tracing overhead
/// from traced ones, checkpoint counters, allocations per tuple, and the
/// reconciliation of layer costs against the end-to-end cost per tuple.
fn threaded(
    ledger: &mut Ledger,
    jobs: &[Job],
    cfg: &spinstreams_runtime::EngineConfig,
    seed: u64,
    costs: &LayerCosts,
) -> Result<(), String> {
    let tcfg = TelemetryConfig::default()
        .with_interval(Duration::from_millis(100))
        .with_span_sample(64);
    let mut untraced: Vec<Outcome> = Vec::new();
    let (mut tps_plain, mut tps_traced) = (Vec::new(), Vec::new());
    let mut spans: BTreeMap<Role, Vec<u64>> = BTreeMap::new();
    let mut paths = 0usize;
    for rep in 0..3 {
        for traced in [false, true] {
            let (mut n, mut wall) = (0u64, 0.0f64);
            for job in jobs {
                let s = seed.wrapping_add(rep);
                let out = deploy::deploy(job.plan, job.items, s, job.mode)?
                    .run(cfg, traced.then_some(&tcfg))?;
                deploy::check_clean(&out.report)?;
                (job.check)(job.plan, &out, job.items, s)?;
                n += job.items;
                ledger.attempted += job.items;
                wall += out.report.wall.as_secs_f64();
                if let Some(tel) = &out.telemetry {
                    for path in assemble_spans(&tel.trace) {
                        paths += 1;
                        for hop in path.hops {
                            spans
                                .entry(out.roles[hop.actor.0])
                                .or_default()
                                .push(hop.hop_ns);
                        }
                    }
                }
                if !traced {
                    untraced.push(out);
                }
            }
            if traced {
                &mut tps_traced
            } else {
                &mut tps_plain
            }
            .push(n as f64 / wall);
        }
    }
    ledger.layer(
        "telemetry.traced_ratio",
        median(&tps_traced).unwrap_or(0.0) / median(&tps_plain).unwrap_or(1.0),
        "ratio",
    );
    ledger.layer("telemetry.span_paths", paths as f64, "count");
    for role in Role::ALL {
        let v = spans.get(&role).map_or(&[][..], Vec::as_slice);
        let mean = if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<u64>() as f64 / v.len() as f64
        };
        ledger.layer(
            format!("telemetry.span_hop_ns.{}", role.label()),
            mean,
            "ns",
        );
    }

    // Busy, blocked and idle share of wall time and busy ns per tuple,
    // per role, over every untraced run.
    for role in Role::ALL {
        let (mut busy, mut blocked, mut wall, mut tuples) = (0.0f64, 0.0f64, 0.0f64, 0u64);
        for out in &untraced {
            for (a, r) in out.report.actors.iter().zip(&out.roles) {
                if *r == role {
                    busy += a.busy.as_secs_f64();
                    blocked += a.blocked.as_secs_f64();
                    wall += out.report.wall.as_secs_f64();
                    tuples += if role == Role::Source {
                        a.items_out
                    } else {
                        a.items_in
                    };
                }
            }
        }
        let share = |x: f64| if wall > 0.0 { x / wall } else { 0.0 };
        let l = role.label();
        ledger.layer(format!("engine.{l}.busy_share"), share(busy), "ratio");
        ledger.layer(format!("engine.{l}.blocked_share"), share(blocked), "ratio");
        ledger.layer(
            format!("engine.{l}.idle_share"),
            share((wall - busy - blocked).max(0.0)),
            "ratio",
        );
        let ns = if tuples > 0 {
            busy * 1e9 / tuples as f64
        } else {
            0.0
        };
        ledger.layer(format!("engine.{l}.ns_per_tuple"), ns, "ns");
    }

    let (mut snaps, mut bytes, mut stall, mut actor_wall) = (0u64, 0u64, 0.0f64, 0.0f64);
    for out in &untraced {
        for (a, r) in out.report.actors.iter().zip(&out.roles) {
            snaps += a.snapshots;
            bytes += a.snapshot_bytes;
            stall += a.align_stall.as_secs_f64();
            if *r != Role::Source {
                actor_wall += out.report.wall.as_secs_f64();
            }
        }
    }
    ledger.layer("checkpoint.snapshots", snaps as f64, "count");
    ledger.layer("checkpoint.snapshot_bytes", bytes as f64, "bytes");
    ledger.layer(
        "checkpoint.align_stall_share",
        stall / actor_wall.max(1e-12),
        "ratio",
    );

    // Allocations per tuple: the difference between runs of N and 2N
    // tuples of the plain generated graphs (no taps), over N. Start-up
    // allocations cancel. The 2N runs also give the tap-free end-to-end
    // cost per tuple for the reconciliation.
    let (mut extra_allocs, mut n_total, mut wall_2n) = (0u64, 0u64, 0.0f64);
    let mut layer_ns = 0.0f64;
    for job in jobs {
        let n = job.items;
        let mut allocs = [0u64; 2];
        for (i, items) in [n, 2 * n].into_iter().enumerate() {
            let gp = job.plan.build(items, seed)?;
            let roles = deploy::roles(&gp);
            let members = deploy::members(&gp);
            let in_deg = gp.graph.in_degrees();
            let a0 = sys::allocs();
            let report =
                spinstreams_runtime::run(gp.graph, cfg).map_err(|e| format!("engine: {e}"))?;
            allocs[i] = sys::allocs() - a0;
            deploy::check_clean(&report)?;
            if i == 1 {
                wall_2n += report.wall.as_secs_f64();
                for (a, ((r, m), d)) in report
                    .actors
                    .iter()
                    .zip(roles.iter().zip(&members).zip(&in_deg))
                {
                    if *r == Role::Source {
                        continue;
                    }
                    let hop = if *d > 1 {
                        costs.local_mpsc
                    } else {
                        costs.local_spsc
                    };
                    let ops: f64 = m
                        .iter()
                        .map(|op| costs.op(&job.plan.topo.operator(*op).kind))
                        .sum();
                    layer_ns += a.items_in as f64 * (hop + ops);
                }
            }
        }
        extra_allocs += allocs[1].saturating_sub(allocs[0]);
        n_total += n;
    }
    ledger.layer(
        "allocs_per_tuple",
        extra_allocs as f64 / n_total as f64,
        "count",
    );
    let e2e_ns = wall_2n * 1e9 / (2 * n_total) as f64;
    let sum_ns = layer_ns / (2 * n_total) as f64;
    ledger.layer("reconcile.e2e_ns_per_tuple", e2e_ns, "ns");
    ledger.layer("reconcile.layer_sum_ns_per_tuple", sum_ns, "ns");
    ledger.layer("residual_ns_per_tuple", e2e_ns - sum_ns, "ns");
    Ok(())
}

/// Layer costs the reconciliation multiplies by occurrences per tuple.
struct LayerCosts {
    local_spsc: f64,
    local_mpsc: f64,
    ops: BTreeMap<String, f64>,
}

impl LayerCosts {
    fn op(&self, kind: &str) -> f64 {
        self.ops.get(kind).copied().unwrap_or(0.0)
    }
}

/// Zeros for every metric of the engine, telemetry, checkpoint and
/// reconciliation layers, on the workload that runs no threads.
fn no_threads(ledger: &mut Ledger) {
    ledger.layer("telemetry.traced_ratio", 0.0, "ratio");
    ledger.layer("telemetry.span_paths", 0.0, "count");
    for role in Role::ALL {
        ledger.layer(format!("telemetry.span_hop_ns.{}", role.label()), 0.0, "ns");
    }
    for role in Role::ALL {
        let l = role.label();
        for (m, unit) in [
            ("busy_share", "ratio"),
            ("blocked_share", "ratio"),
            ("idle_share", "ratio"),
            ("ns_per_tuple", "ns"),
        ] {
            ledger.layer(format!("engine.{l}.{m}"), 0.0, unit);
        }
    }
    ledger.layer("checkpoint.snapshots", 0.0, "count");
    ledger.layer("checkpoint.snapshot_bytes", 0.0, "bytes");
    ledger.layer("checkpoint.align_stall_share", 0.0, "ratio");
    ledger.layer("allocs_per_tuple", 0.0, "count");
    ledger.layer("reconcile.e2e_ns_per_tuple", 0.0, "ns");
    ledger.layer("reconcile.layer_sum_ns_per_tuple", 0.0, "ns");
    ledger.layer("residual_ns_per_tuple", 0.0, "ns");
}

/// Runs the traced per-layer measurement of `args.workload`.
pub fn run(args: &Args, ledger: &mut Ledger) -> Result<(), String> {
    let seed = args.seed;
    let (local_spsc, local_mpsc) = mailbox(ledger);
    let probe_stream: Vec<Tuple> =
        paced::source_stream(200_000, &KeyDistribution::uniform(64), seed).collect();
    fused_meta(ledger, &probe_stream);
    let ops = operators(ledger, seed);
    single_thread_tps(ledger, seed);
    serve(ledger, seed)?;
    let costs = LayerCosts {
        local_spsc,
        local_mpsc,
        ops,
    };

    let generate_kernel_ms = || {
        let t0 = Instant::now();
        for s in kernel::TOPOLOGY_SEEDS {
            let _ = generate(s, &kernel::topogen_config());
        }
        t0.elapsed().as_secs_f64() * 1e3 / kernel::TOPOLOGY_SEEDS.len() as f64
    };
    match args.workload.as_str() {
        "hop-saturated" => {
            let plan = hop::setup(hop::XML)?;
            analysis(
                ledger,
                &[hop::XML.to_string()],
                std::slice::from_ref(&plan),
                seed,
            )?;
            ledger.layer(
                "sim.events_per_s",
                sim(std::slice::from_ref(&plan), seed)?,
                "1/s",
            );
            ledger.layer("topogen.generate_ms", generate_kernel_ms(), "ms");
            let jobs = [Job {
                plan: &plan,
                items: hop::ITEMS,
                mode: SinkMode::Closed {
                    order_classes: Some(4),
                },
                check: hop::check,
            }];
            threaded(ledger, &jobs, &deploy::engine(seed, None), seed, &costs)?;
        }
        "kernel-app" => {
            let xmls = kernel::inputs();
            let plans: Vec<Plan> = xmls
                .iter()
                .map(|x| kernel::setup(x, seed))
                .collect::<Result<_, _>>()?;
            analysis(ledger, &xmls, &plans, seed)?;
            ledger.layer("sim.events_per_s", sim(&plans, seed)?, "1/s");
            ledger.layer("topogen.generate_ms", generate_kernel_ms(), "ms");
            let jobs: Vec<Job> = plans
                .iter()
                .map(|plan| Job {
                    plan,
                    items: kernel::ITEMS,
                    mode: SinkMode::Closed {
                        order_classes: None,
                    },
                    check: kernel::check,
                })
                .collect();
            threaded(ledger, &jobs, &deploy::engine(seed, None), seed, &costs)?;
        }
        "paced-keyed" => {
            let xml = paced::input();
            let plan = paced::setup(&xml)?;
            analysis(
                ledger,
                std::slice::from_ref(&xml),
                std::slice::from_ref(&plan),
                seed,
            )?;
            ledger.layer(
                "sim.events_per_s",
                sim(std::slice::from_ref(&plan), seed)?,
                "1/s",
            );
            ledger.layer("topogen.generate_ms", generate_kernel_ms(), "ms");
            let items = (paced::RATE * 0.5) as u64;
            let jobs = [Job {
                plan: &plan,
                items,
                mode: SinkMode::Log {
                    capacity: items as usize,
                },
                check: paced::check,
            }];
            threaded(
                ledger,
                &jobs,
                &deploy::engine(seed, Some(paced::CHECKPOINT_EVERY)),
                seed,
                &costs,
            )?;
        }
        _ => {
            let (xmls, generate_ms) = testbed::inputs();
            let t0 = Instant::now();
            let pass = testbed::pass_in_order(&xmls, seed)?;
            let pass_s = t0.elapsed().as_secs_f64();
            let plans: Vec<Plan> = pass
                .entries
                .iter()
                .map(|e| {
                    let replicas = eliminate_bottlenecks(&e.calibrated).replicas;
                    Plan {
                        fusions: choose_fusions(&e.calibrated, &replicas),
                        topo: e.calibrated.clone(),
                        keys: e.keys.clone(),
                        replicas,
                    }
                })
                .collect();
            analysis(ledger, &xmls, &plans, seed)?;
            ledger.layer(
                "sim.events_per_s",
                pass.des_events as f64 / pass.des_wall_s,
                "1/s",
            );
            ledger.layer("topogen.generate_ms", generate_ms, "ms");
            ledger.note(format!("testbed pass {pass_s:.3} s"));
            ledger.attempted += pass.des_tuples;
            no_threads(ledger);
        }
    }
    Ok(())
}
