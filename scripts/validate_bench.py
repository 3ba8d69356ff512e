#!/usr/bin/env python3
"""Validate a BENCH_runtime.json produced by the `throughput` bench binary.

Usage: validate_bench.py <BENCH_runtime.json>

Structural checks (always):
  * schema tag is "spinstreams-bench-runtime/5", mode is "full" or
    "smoke";
  * every (topology, executor, workers, batch size) cell of the sweep —
    the worker pool at each advertised worker count — is present exactly
    once, with positive items/wall/throughput, a positive speedup, and a
    non-negative differential allocation count;
  * each configuration's batch-1 record has speedup 1.0 (it is that
    configuration's baseline);
  * thread-per-actor records (executor "threads", workers null), written
    before the engine had a single executor, are accepted as history
    under the same per-record checks; they are never required and no gate
    reads them.

Performance gates (full mode only — smoke runs are too short to be
meaningful):
  * the contended pipeline on a one-worker pool at batch 64 must be at
    least 2x its unbatched throughput (the envelope-batching gate);
  * on pipeline or replicated, the best pool size at batch 64 must reach
    1.5x the pre-pool baseline recorded before the executor rework
    (the hot-path gate);
  * the best batch-64 configuration on the monomorphized `fused` topology
    must reach 1.5x the PR 7 pipeline batch-64 baseline (the fusion
    gate — compiling the interior stages into one statically dispatched
    chain removes one mailbox crossing in three and the per-member
    dynamic-dispatch hop, and must pay off end to end);
  * every `fused` record's differential allocation count must be zero
    (<= 0.001 allocs/tuple of jitter headroom) — the steady-state data
    path of a monomorphized chain performs no heap allocation (the
    zero-allocation gate);
  * the best batch-64 configuration on pipeline and on replicated must
    stay within 5% of the throughput recorded before the checkpointing
    layer landed (the checkpoint-off gate — the bench runs with
    checkpointing disabled, so any regression here is hot-path cost the
    feature was required not to add);
  * the batch-64 pipeline with the sampled span flight recorder armed
    must reach at least 0.95x its untraced throughput, and must have
    retained span events (the tracing-overhead gate);
  * a plan-cache hit must cost at most 0.1x the cold (profile + optimize)
    miss latency (the plan-cache gate);
  * four paced tenants co-scheduled on the shared pool must reach at
    least 0.8x the sum of their solo throughputs (the multi-tenant gate).

Exits non-zero (with a message) on the first violation.
"""

import json
import sys

TOPOLOGIES = {"pipeline", "fused", "fanout", "replicated"}
BATCH_SIZES = {1, 8, 64}
WORKER_COUNTS = {1, 2, 4}
MIN_PIPELINE_SPEEDUP = 2.0
# Batch-64 tuples/sec recorded in BENCH_runtime.json before the worker
# pool and the hot-path rework (thread-per-actor, same machine class).
BASELINE_64 = {"pipeline": 2_001_882.0, "replicated": 1_686_061.0}
MIN_BASELINE_SPEEDUP = 1.5
# Pipeline batch-64 tuples/sec under thread-per-actor recorded in
# BENCH_runtime.json as of PR 7 (causal span tracing), before operator
# fusion was monomorphized. The fused topology is the same shape with its
# interior compiled into one statically dispatched chain actor and must
# beat this by MIN_FUSED_SPEEDUP end to end.
PR7_PIPELINE_64 = 4_770_772.8
MIN_FUSED_SPEEDUP = 1.5
# Differential allocations per tuple tolerated on the fused topology:
# nominally zero, with one allocation per thousand tuples of headroom for
# one-off events (a parked-thread registry growing once, etc.).
MAX_FUSED_ALLOCS_PER_TUPLE = 0.001
# Best batch-64 tuples/sec per topology recorded in BENCH_runtime.json
# immediately before the checkpointing layer landed. The bench never
# enables checkpointing, so these runs must not pay for its existence.
CHECKPOINT_OFF_BASELINE_64 = {"pipeline": 5_513_932.0, "replicated": 5_118_869.0}
MAX_CHECKPOINT_REGRESSION = 0.05
MIN_TRACING_RATIO = 0.95
# A plan-cache hit skips the profiling run and Algorithms 1-3 entirely;
# anything above a tenth of the miss latency means the cache is not
# actually short-circuiting the cold path.
MAX_CACHE_HIT_RATIO = 0.1
# Concurrent aggregate vs summed solo throughput of the paced tenants.
MIN_MULTITENANT_RATIO = 0.8


def fail(msg):
    sys.exit(f"{sys.argv[1]}: {msg}")


def validate(path):
    with open(path, encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            fail(f"invalid JSON: {e}")

    if doc.get("schema") != "spinstreams-bench-runtime/5":
        fail(f"unknown schema tag {doc.get('schema')!r}")
    mode = doc.get("mode")
    if mode not in ("full", "smoke"):
        fail(f"unknown mode {mode!r}")
    if set(doc.get("batch_sizes", [])) != BATCH_SIZES:
        fail(f"batch_sizes must be {sorted(BATCH_SIZES)}")
    if set(doc.get("worker_counts", [])) != WORKER_COUNTS:
        fail(f"worker_counts must be {sorted(WORKER_COUNTS)}")

    configs = [("pool", w) for w in sorted(WORKER_COUNTS)]
    history = [("threads", None)]

    seen = {}
    for r in doc.get("results", []):
        key = (r.get("topology"), r.get("executor"), r.get("workers"),
               r.get("batch_size"))
        if key[0] not in TOPOLOGIES:
            fail(f"unknown topology {key[0]!r}")
        if (key[1], key[2]) not in configs + history:
            fail(f"unknown executor config {key[1]!r}/workers={key[2]!r}")
        if key[3] not in BATCH_SIZES:
            fail(f"unknown batch size {key[3]!r}")
        if key in seen:
            fail(f"duplicate record for {key}")
        for field in ("items", "wall_s", "tuples_per_sec", "speedup_vs_batch1"):
            v = r.get(field)
            if not isinstance(v, (int, float)) or v <= 0:
                fail(f"{key}: field {field!r} must be positive, got {v!r}")
        allocs = r.get("allocs_per_tuple")
        if not isinstance(allocs, (int, float)) or allocs < 0:
            fail(f"{key}: field 'allocs_per_tuple' must be non-negative, "
                 f"got {allocs!r}")
        if key[3] == 1 and abs(r["speedup_vs_batch1"] - 1.0) > 1e-9:
            fail(f"{key}: batch-1 baseline must report speedup 1.0")
        seen[key] = r

    expected = {(t, e, w, b)
                for t in TOPOLOGIES for (e, w) in configs for b in BATCH_SIZES}
    missing = expected - set(seen)
    if missing:
        fail(f"missing records: {sorted(missing, key=str)}")

    tracing = doc.get("tracing")
    if not isinstance(tracing, dict):
        fail("missing 'tracing' section (schema /4)")
    if tracing.get("executor") not in ("pool", "threads"):
        fail(f"tracing executor must be 'pool' (or 'threads' in history), "
             f"got {tracing.get('executor')!r}")
    for field in ("untraced_tuples_per_sec", "traced_tuples_per_sec", "ratio"):
        v = tracing.get(field)
        if not isinstance(v, (int, float)) or v <= 0:
            fail(f"tracing field {field!r} must be positive, got {v!r}")
    if not isinstance(tracing.get("span_events"), int):
        fail("tracing field 'span_events' must be an int")

    cache = doc.get("plan_cache")
    if not isinstance(cache, dict):
        fail("missing 'plan_cache' section (schema /5)")
    for field in ("plan_cache_miss_ms", "plan_cache_hit_ms", "ratio"):
        v = cache.get(field)
        if not isinstance(v, (int, float)) or v <= 0:
            fail(f"plan_cache field {field!r} must be positive, got {v!r}")
    if not isinstance(cache.get("plan_checksum"), str):
        fail("plan_cache field 'plan_checksum' must be a string")

    mt = doc.get("multitenant")
    if not isinstance(mt, dict):
        fail("missing 'multitenant' section (schema /5)")
    solos = mt.get("solo_tuples_per_sec")
    if not isinstance(solos, list) or not solos or \
            any(not isinstance(v, (int, float)) or v <= 0 for v in solos):
        fail("multitenant field 'solo_tuples_per_sec' must be a non-empty "
             "list of positive rates")
    if mt.get("tenants") != len(solos):
        fail(f"multitenant 'tenants' ({mt.get('tenants')!r}) != "
             f"{len(solos)} solo rates")
    for field in ("solo_sum", "aggregate_tuples_per_sec", "ratio"):
        v = mt.get(field)
        if not isinstance(v, (int, float)) or v <= 0:
            fail(f"multitenant field {field!r} must be positive, got {v!r}")

    if mode == "full":
        speedup = seen[("pipeline", "pool", 1, 64)]["speedup_vs_batch1"]
        if speedup < MIN_PIPELINE_SPEEDUP:
            fail(f"pipeline (pool, 1 worker) at batch 64 is only "
                 f"{speedup:.2f}x over batch 1, expected >= "
                 f"{MIN_PIPELINE_SPEEDUP}x")
        best_gain = None
        for t, base in BASELINE_64.items():
            for (e, w) in configs:
                gain = seen[(t, e, w, 64)]["tuples_per_sec"] / base
                if best_gain is None or gain > best_gain[0]:
                    best_gain = (gain, t, e, w)
        if best_gain[0] < MIN_BASELINE_SPEEDUP:
            fail(f"best batch-64 throughput is only {best_gain[0]:.2f}x the "
                 f"pre-pool baseline ({best_gain[1]}, {best_gain[2]}), "
                 f"expected >= {MIN_BASELINE_SPEEDUP}x on pipeline or "
                 f"replicated")
        print(f"{path}: hot-path gate — {best_gain[0]:.2f}x over the pre-pool "
              f"baseline ({best_gain[1]}, {best_gain[3]} workers, batch 64)")
        best_fused = max(((seen[("fused", e, w, 64)]["tuples_per_sec"], e, w)
                          for (e, w) in configs), key=lambda c: c[0])
        fused_gain = best_fused[0] / PR7_PIPELINE_64
        if fused_gain < MIN_FUSED_SPEEDUP:
            fail(f"best fused batch-64 throughput is only {fused_gain:.2f}x "
                 f"the PR 7 pipeline baseline ({best_fused[0]:,.0f} vs "
                 f"{PR7_PIPELINE_64:,.0f} tup/s), expected >= "
                 f"{MIN_FUSED_SPEEDUP}x from monomorphized fusion")
        print(f"{path}: fusion gate — fused at {fused_gain:.2f}x the PR 7 "
              f"pipeline baseline ({best_fused[2]} workers, batch 64)")
        worst_allocs = max(((r["allocs_per_tuple"], key)
                            for key, r in seen.items() if key[0] == "fused"),
                           key=lambda c: c[0])
        if worst_allocs[0] > MAX_FUSED_ALLOCS_PER_TUPLE:
            fail(f"{worst_allocs[1]}: fused steady state allocates "
                 f"{worst_allocs[0]:.4f} per tuple, expected <= "
                 f"{MAX_FUSED_ALLOCS_PER_TUPLE} (the data path must be "
                 f"allocation-free)")
        print(f"{path}: zero-allocation gate — worst fused record at "
              f"{worst_allocs[0]:.4f} allocs/tuple")
        for t, base in CHECKPOINT_OFF_BASELINE_64.items():
            best = max(seen[(t, e, w, 64)]["tuples_per_sec"]
                       for (e, w) in configs)
            ratio = best / base
            if ratio < 1.0 - MAX_CHECKPOINT_REGRESSION:
                fail(f"{t}: best batch-64 checkpoint-off throughput is "
                     f"{ratio:.3f}x the pre-checkpointing baseline "
                     f"({best:,.0f} vs {base:,.0f} tup/s) — the disabled "
                     f"checkpoint layer must stay within "
                     f"{MAX_CHECKPOINT_REGRESSION:.0%} of it")
            print(f"{path}: checkpoint-off gate — {t} at {ratio:.3f}x the "
                  f"pre-checkpointing baseline")
        ratio = tracing["ratio"]
        if ratio < MIN_TRACING_RATIO:
            fail(f"sampled tracing costs too much: traced batch-64 pipeline "
                 f"runs at {ratio:.3f}x untraced, expected >= "
                 f"{MIN_TRACING_RATIO}x")
        if tracing["span_events"] <= 0:
            fail("traced run retained no span events — the flight recorder "
                 "never fired")
        print(f"{path}: tracing-overhead gate — traced at {ratio:.3f}x "
              f"untraced ({tracing['span_events']} span event(s))")
        cache_ratio = cache["ratio"]
        if cache_ratio > MAX_CACHE_HIT_RATIO:
            fail(f"plan-cache hit costs {cache_ratio:.4f}x the miss "
                 f"({cache['plan_cache_hit_ms']:.4f} vs "
                 f"{cache['plan_cache_miss_ms']:.2f} ms), expected <= "
                 f"{MAX_CACHE_HIT_RATIO}x — the cache must skip the cold "
                 f"path")
        print(f"{path}: plan-cache gate — hit at "
              f"{1 / cache_ratio:.0f}x faster than the cold path "
              f"({cache['plan_cache_hit_ms']:.4f} vs "
              f"{cache['plan_cache_miss_ms']:.2f} ms)")
        mt_ratio = mt["ratio"]
        if mt_ratio < MIN_MULTITENANT_RATIO:
            fail(f"multi-tenant aggregate is only {mt_ratio:.3f}x the summed "
                 f"solo throughput ({mt['aggregate_tuples_per_sec']:,.0f} vs "
                 f"{mt['solo_sum']:,.0f} tup/s), expected >= "
                 f"{MIN_MULTITENANT_RATIO}x on the shared pool")
        print(f"{path}: multi-tenant gate — {mt['tenants']} tenants at "
              f"{mt_ratio:.3f}x their summed solo throughput")

    best = max(r["speedup_vs_batch1"] for r in seen.values())
    print(f"{path}: OK — {len(seen)} records ({mode} mode), "
          f"best batching speedup {best:.2f}x")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__.strip())
    validate(sys.argv[1])
