#!/usr/bin/env python3
"""Perf-smoke gate on the durable store's recovery bound.

Reads BENCH_recovery.json (schema: bench/common/bench_json.h, written by
bench/bench_recovery) and fails if reopening a checkpointed store with a
64,000-record history costs more than LIMIT times reopening one with a
4,000-record history. Both stores carry the same 640-record tail after
their checkpoint, so a recovery that reads only the checkpoint and the
logs after it costs the same at both lengths; one that still reads the
superseded log (10 MB at 64k records) grows with the history. The gate
compares the two medians with each other and never with a wall-time
bound, so a slow shared disk moves both sides alike.

The gate never skips: perf-smoke runs the bench right before it, and the
bound holds on any host, so a missing artifact or a missing
recover_checkpointed row (a bench edit that dropped or renamed one) is a
failure, not a silent pass.

Usage: python3 scripts/check_recovery.py [path/to/BENCH_recovery.json]
Exit status: 0 pass, 1 gate failure or missing/invalid artifact.
"""

import sys

import gate_common

GATE = "check_recovery"
LIMIT = 1.5
SHORT, LONG = 4000, 64000


def main():
    path = gate_common.artifact_path("BENCH_recovery.json")
    rows = gate_common.load_rows(GATE, path)
    if rows is None:
        return 1

    ms = {}
    for row in rows:
        params = row.get("params", {})
        if row.get("name") == "recover_checkpointed":
            ms[params.get("records_history")] = params.get("recovery_ms")

    if not all(isinstance(ms.get(n), (int, float)) and ms[n] > 0
               for n in (SHORT, LONG)):
        return gate_common.fail(
            GATE, f"no recover_checkpointed rows with a positive "
                  f"recovery_ms at {SHORT} and {LONG} history records "
                  f"in {path}")

    # verdict() takes a speedup that must reach its threshold, so the cost
    # bound reopen(LONG) <= LIMIT x reopen(SHORT) is passed inverted.
    ratio = ms[SHORT] / ms[LONG]
    return gate_common.verdict(
        GATE, ratio, 1 / LIMIT,
        f"checkpointed reopen behind {SHORT} records is {ratio:.2f}x the "
        f"reopen behind {LONG} ({ms[SHORT]:.2f} vs {ms[LONG]:.2f} ms; "
        f"bound: at most {LIMIT}x longer behind {LONG})")


if __name__ == "__main__":
    sys.exit(main())
