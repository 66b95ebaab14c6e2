#!/usr/bin/env python3
"""Perf-smoke gate on the durable store's recovery and checkpoint bounds.

Reads BENCH_recovery.json (schema: bench/common/bench_json.h, written by
bench/bench_recovery) and checks two ratios, failing if either is broken:

* History independence. Reopening a checkpointed store with a
  64,000-record history may cost at most LIMIT times reopening one with a
  4,000-record history. Both stores carry the same 640-record tail after
  their checkpoint, so a recovery that reads only the checkpoint and the
  logs after it costs the same at both lengths; one that still reads the
  superseded log (10 MB at 64k records) grows with the history.
* Checkpoints off the append path. In the checkpoint_under_load row, the
  time checkpoints held the log mutex may be at most BLOCKED_LIMIT of
  their wall time. A checkpoint that encodes and writes under the mutex
  blocks for all of it (a ratio near 1.0).

Both compare two times taken on the same host and never a wall-time
bound, so a slow shared disk moves both sides alike.

The gate never skips: perf-smoke runs the bench right before it, and the
bounds hold on any host, so a missing artifact or a missing row (a bench
edit that dropped or renamed one) is a failure, not a silent pass.

Usage: python3 scripts/check_recovery.py [path/to/BENCH_recovery.json]
Exit status: 0 pass, 1 gate failure or missing/invalid artifact.
"""

import sys

import gate_common

GATE = "check_recovery"
LIMIT = 1.5
BLOCKED_LIMIT = 0.25
SHORT, LONG = 4000, 64000


def main():
    path = gate_common.artifact_path("BENCH_recovery.json")
    rows = gate_common.load_rows(GATE, path)
    if rows is None:
        return 1

    ms = {}
    blocked = None
    for row in rows:
        params = row.get("params", {})
        if row.get("name") == "recover_checkpointed":
            ms[params.get("records_history")] = params.get("recovery_ms")
        elif row.get("name") == "checkpoint_under_load":
            blocked = params.get("blocked_ratio")

    if not all(isinstance(ms.get(n), (int, float)) and ms[n] > 0
               for n in (SHORT, LONG)):
        return gate_common.fail(
            GATE, f"no recover_checkpointed rows with a positive "
                  f"recovery_ms at {SHORT} and {LONG} history records "
                  f"in {path}")

    if not isinstance(blocked, (int, float)) or blocked < 0:
        return gate_common.fail(
            GATE, f"no checkpoint_under_load row with a blocked_ratio in "
                  f"{path}")

    # verdict() takes a speedup that must reach its threshold, so each cost
    # bound is passed inverted: reopen(LONG) <= LIMIT x reopen(SHORT), and
    # blocked <= BLOCKED_LIMIT x checkpoint wall time.
    ratio = ms[SHORT] / ms[LONG]
    status = gate_common.verdict(
        GATE, ratio, 1 / LIMIT,
        f"checkpointed reopen behind {SHORT} records is {ratio:.2f}x the "
        f"reopen behind {LONG} ({ms[SHORT]:.2f} vs {ms[LONG]:.2f} ms; "
        f"bound: at most {LIMIT}x longer behind {LONG})")
    free = 1 / blocked if blocked > 0 else float("inf")
    status |= gate_common.verdict(
        GATE, free, 1 / BLOCKED_LIMIT,
        f"a checkpoint under load lasts {free:.1f}x the time it blocks "
        f"appends (blocked share {blocked:.3f}; bound: at most "
        f"{BLOCKED_LIMIT})")
    return status


if __name__ == "__main__":
    sys.exit(main())
