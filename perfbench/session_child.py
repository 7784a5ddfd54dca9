"""Run the session workload's library calls in one long-lived process.

    python3 perfbench/session_child.py SEED DIGESTS_FILE RESULT_FILE SECONDS LIMIT [SPAN_FILE]

Makes the calls of the session decks for SEED in order, in whole decks
until SECONDS have passed, or exactly LIMIT calls when LIMIT is not 0.  The
decks are generated here one at a time, so the process holds no more of the
operation list than one deck.  Each call is timed and its result checked:
reports must pass for the label and depth asked, and triangles and
sequences must match their digests in DIGESTS_FILE.  Writes the per-call
times and failures to RESULT_FILE; with SPAN_FILE, runs under the span
recorder and writes the spans there.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import workloads


def _call(cli, call):
    kind = call[0]
    if kind == "verify":
        return cli.CATALOG[call[1]](call[2])
    if kind == "triangle":
        return cli.build_triangle(call[1], call[2], call[3])
    return cli.SEQUENCES[call[1]](call[2])


def _check(call, result, digests) -> str | None:
    if call[0] == "verify":
        ok = result.passed and result.ident == call[1] and result.depth == call[2]
        return None if ok and result.counterexample is None else f"report {result!r}"
    want = digests.get(workloads.op_key({"call": call}))
    if want is None:
        return "no recorded digest"
    if workloads.digest(workloads.session_bytes(call, result)) != want:
        return "result differs from the recorded digest"
    return None


def _run(cli, rec, seed: int, seconds: float, limit: int, digests, times: list, failures: list) -> None:
    begin = time.perf_counter()
    for deck in workloads.decks("session", seed):
        for op in deck:
            i, call = len(times), op["call"]
            if rec is not None:
                rec.op_id = i
            t0 = time.perf_counter()
            try:
                result = _call(cli, call)
                error = None
            except Exception as exc:  # a raising call is a failed operation
                error = f"raised {exc!r}"
            times.append(time.perf_counter() - t0)
            try:
                reason = error or _check(call, result, digests)
            except Exception as exc:  # a result the check cannot read is a failure too
                reason = f"check raised {exc!r}"
            if reason:
                failures.append([i, reason])
            if len(times) == limit:
                return
        if not limit and time.perf_counter() - begin >= seconds:
            return


def main() -> int:
    seed, digests_file, result_file, seconds, limit = sys.argv[1:6]
    span_file = sys.argv[6] if len(sys.argv) > 6 else None
    digests = json.loads(Path(digests_file).read_text())["session"]
    rec = None
    if span_file:
        import shim

        rec = shim.Recorder()
        cli = shim.install(rec)
    else:
        from genocchi import cli

    times, failures = [], []
    try:
        _run(cli, rec, int(seed), float(seconds), int(limit), digests, times, failures)
    finally:
        if rec is not None:
            rec.dump(span_file)
        Path(result_file).write_text(json.dumps({"times": times, "failures": failures}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
