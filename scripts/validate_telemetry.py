#!/usr/bin/env python3
"""Validate a SpinStreams telemetry JSON-lines export against the schema
documented in the README's Observability section.

Usage: validate_telemetry.py <telemetry.jsonl> [--min-snapshots N]

Checks, for every line:
  * it parses as a JSON object with "type" of "snapshot" or "trace";
  * snapshots carry monotonically increasing ticks/timestamps, per-actor
    rate/queue/counter fields of the right types, latency summaries with
    ordered quantiles, well-formed drift verdicts when present, and — in
    multi-tenant exports — a tenant label mirrored on every actor;
  * traces carry gap-free sequence numbers and known event names.

Exits non-zero (with a message) on the first violation.
"""

import json
import math
import sys

ACTOR_FIELDS = {
    "id": int,
    "name": str,
    "items_in": int,
    "items_out": int,
    "arrival_rate": (int, float),
    "departure_rate": (int, float),
    "utilization": (int, float),
    "panics": int,
    "restarts": int,
    "dead_letters": int,
    "dropped": int,
    "busy_ns": int,
    "blocked_ns": int,
    "helping_ns": int,
    "inbox_stall_ns": int,
    "snapshots": int,
    "snapshot_bytes": int,
    "align_stall_ns": int,
    "recoveries": int,
    "replayed": int,
    "replay_overflows": int,
}
LATENCY_FIELDS = {"sink": int, "name": str, "count": int, "mean_ns": int,
                  "p50_ns": int, "p95_ns": int, "p99_ns": int, "max_ns": int}
DRIFT_STATUSES = {"warmup", "no-data", "ok", "drifting"}
TRACE_EVENTS = {
    "actor-started", "actor-finished", "operator-panicked",
    "operator-restarted", "backoff", "actor-stopped", "blocked",
    "dead-letter", "checkpoint-completed", "recovered", "span",
    "reconfigured", "state-migrated",
}
# Rate/ratio fields that must be finite numbers: a NaN or infinity here
# parses fine as JSON (Python accepts the non-standard literals) but
# poisons every downstream aggregation.
FINITE_ACTOR_FIELDS = ("arrival_rate", "departure_rate", "utilization")


def fail(lineno, msg):
    sys.exit(f"{sys.argv[1]}:{lineno}: {msg}")


def check_fields(lineno, obj, fields, what):
    for name, ty in fields.items():
        if name not in obj:
            fail(lineno, f"{what} missing field {name!r}: {obj}")
        if not isinstance(obj[name], ty):
            fail(lineno, f"{what} field {name!r} has type "
                         f"{type(obj[name]).__name__}, expected {ty}")


def validate(path, min_snapshots):
    snapshots = traces = 0
    prev_tick = prev_t = -1
    prev_seq = -1
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                fail(lineno, f"invalid JSON: {e}")
            kind = obj.get("type")
            if kind == "snapshot":
                snapshots += 1
                if traces:
                    fail(lineno, "snapshot after trace records")
                if obj["tick"] <= prev_tick or obj["t_ns"] <= prev_t:
                    fail(lineno, "non-monotonic tick/t_ns")
                prev_tick, prev_t = obj["tick"], obj["t_ns"]
                if obj["interval_ns"] <= 0:
                    fail(lineno, "non-positive interval_ns")
                if not obj["actors"]:
                    fail(lineno, "snapshot with no actors")
                # Multi-tenant exports label the snapshot and every actor
                # with the tenant name; solo exports omit it entirely.
                tenant = obj.get("tenant")
                if tenant is not None and not isinstance(tenant, str):
                    fail(lineno, "tenant must be a string")
                for a in obj["actors"]:
                    check_fields(lineno, a, ACTOR_FIELDS, "actor")
                    if a.get("tenant") != tenant:
                        fail(lineno, f"actor tenant {a.get('tenant')!r} "
                                     f"!= snapshot tenant {tenant!r}")
                    for opt in ("queue_depth", "queue_capacity"):
                        if a[opt] is not None and not isinstance(a[opt], int):
                            fail(lineno, f"actor {opt} must be int or null")
                    for name in FINITE_ACTOR_FIELDS:
                        if math.isnan(a[name]) or math.isinf(a[name]):
                            fail(lineno, f"non-finite {name}: {a}")
                    if not 0.0 <= a["utilization"] <= 1.0 + 1e-9:
                        fail(lineno, f"utilization out of range: {a}")
                for l in obj["latency"]:
                    check_fields(lineno, l, LATENCY_FIELDS, "latency")
                    if not (l["p50_ns"] <= l["p95_ns"] <= l["p99_ns"]
                            <= l["max_ns"]):
                        fail(lineno, f"latency quantiles out of order: {l}")
                epoch = obj.get("last_complete_epoch")
                if epoch is not None and not isinstance(epoch, int):
                    fail(lineno, "last_complete_epoch must be int or null")
                for v in obj.get("drift", []):
                    if v["status"] not in DRIFT_STATUSES:
                        fail(lineno, f"unknown drift status: {v}")
                    if v["status"] in ("ok", "drifting") \
                            and v["rel_error"] is None:
                        fail(lineno, f"judged verdict without rel_error: {v}")
                    err = v.get("rel_error")
                    if err is not None and \
                            (math.isnan(err) or math.isinf(err)):
                        fail(lineno, f"non-finite rel_error: {v}")
            elif kind == "trace":
                traces += 1
                if obj["seq"] <= prev_seq:
                    fail(lineno, "non-monotonic trace seq")
                prev_seq = obj["seq"]
                if obj["event"] not in TRACE_EVENTS:
                    fail(lineno, f"unknown trace event {obj['event']!r}")
                if obj["t_ns"] < 0 or obj["actor"] < 0:
                    fail(lineno, f"bad trace record: {obj}")
                if obj["event"] == "span":
                    if not isinstance(obj.get("tuple_seq"), int) \
                            or not isinstance(obj.get("src_ns"), int):
                        fail(lineno, f"span without tuple_seq/src_ns: {obj}")
            else:
                fail(lineno, f"unknown record type {kind!r}")
    if snapshots < min_snapshots:
        sys.exit(f"{path}: only {snapshots} snapshot(s), "
                 f"expected at least {min_snapshots}")
    print(f"{path}: OK — {snapshots} snapshot(s), {traces} trace record(s)")


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__.strip())
    n = 1
    if "--min-snapshots" in sys.argv:
        n = int(sys.argv[sys.argv.index("--min-snapshots") + 1])
    validate(sys.argv[1], n)
