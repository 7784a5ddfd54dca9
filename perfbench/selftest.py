"""Show that the output gate can fail.

    python3 perfbench/selftest.py

Runs operations of each workload against a corrupted expectation: for
catalog, the expected label list misses its last label; for tables and
session, the recorded digest of one operation is changed.  Each corrupted
expectation must be counted as exactly one failed operation, and the run
must finish normally.  Exits 0 when that holds for every workload.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads

BAD_DIGEST = "0" * 16


def _catalog(env, out):
    decks = [next(workloads.decks("catalog", 0))]
    labels = workloads.CATALOG_LABELS[:-1]
    result = run.run_cold(decks, 0, False, env, out,
                          lambda op, code, data: workloads.check_catalog(code, data, labels))
    return result, {0}


def _tables(env, out):
    ops = next(workloads.decks("tables", 0))[:3]
    digests = json.loads((run.HERE / "digests.json").read_text())["tables"]
    digests[workloads.op_key(ops[1])] = BAD_DIGEST
    result = run.run_cold([ops], 0, False, env, out,
                          lambda op, code, data: workloads.check_table(op, code, data, digests))
    return result, {1}


def _session(env, out):
    ops = next(workloads.decks("session", 0))
    target = next(i for i, op in enumerate(ops) if op["call"][0] != "verify")
    digests = json.loads((run.HERE / "digests.json").read_text())
    digests["session"][workloads.op_key(ops[target])] = BAD_DIGEST
    corrupted = out / "digests.json"
    corrupted.write_text(json.dumps(digests))
    return run.run_session(0, 0, False, env, out, corrupted, limit=target + 2), {target}


def main() -> int:
    env = run.child_env()
    run.warm_up(env)
    ok = True
    for name, case in (("catalog", _catalog), ("tables", _tables), ("session", _session)):
        out = run.ROOT / ".perfbench" / f"selftest-{name}"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        result, expected = case(env, out)
        counted = set(result.failures) == expected
        ok = ok and counted
        print(f"{name}: {len(result.times)} attempted, failed {sorted(result.failures.items())}: "
              f"{'counted as a failure' if counted else 'NOT counted as expected'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
