"""The genocchi benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it runs the program from ``src/`` of
that checkout and writes only under ``.perfbench/`` there.  Each workload is
a closed loop with one client and no concurrency:

catalog  ``genocchi verify all --depth 48 --format json``, one fresh process
         per operation, so every cache starts cold as it does for a user.
         The command has no free inputs; the seed is only recorded.
tables   one fresh process per operation, a seeded mix of ``triangle``,
         ``sequence``, ``seidel`` and ``at`` in all three formats.  Almost no
         matrix products or inverses: construction, rendering and import.
session  one long-lived process making a seeded stream of library calls:
         catalog checks at depth 8-48, ``build_triangle`` at order 8-80 and
         sequence fetches with count 1-80.  Caches are warm and (family,
         order) pairs repeat.

Each workload's operations come in decks of fixed composition, and whole
decks are run until S seconds have passed, so a run measures at least S
seconds.  Every operation's output is checked; a wrong output, a non-zero
exit or a raised exception counts as a failed operation.  Decks and
checks are in ``workloads.py``.

With ``--trace 0`` the result holds the end-to-end metrics: ``setup_s``
(median time for a fresh interpreter to import ``genocchi.cli``),
``ops_per_s``, ``op_s_p50``, ``op_s_tail`` (the percentile with ten
samples beyond it per deck, or the maximum when a run has eleven
operations or fewer) and ``peak_rss_mib`` (largest peak resident memory of a
process that ran operations).  With ``--trace 1`` each operation runs
untraced and then under the span recorder (``shim.py``); the result holds
the per-layer metrics of ``layers.py`` and ``trace.overhead_ratio``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
name every metric with its unit, the failed ratio, which percentile the
tail is, and the run's provenance.  The run's record (provenance, per
operation times, CPU time and peak memory, failures) is written to
``.perfbench/<workload>-seed<N>-trace<k>/record.json`` and the traced run's
spans next to it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 21
CAPTURE_BYTES = 16 << 20  # above the largest output of any operation
CHILD_LIMIT_S = 150.0  # a child running this long is killed and counted as failed

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "peak_rss_mib": "MiB",
}


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    maxrss_kib: int
    out: bytes


@dataclass
class Run:
    """What a workload runner measured."""

    times: list = field(default_factory=list)  # untraced wall time per operation
    cpu_s: list = field(default_factory=list)
    rss_kib: list = field(default_factory=list)
    out_bytes: list = field(default_factory=list)
    failures: dict = field(default_factory=dict)  # operation index -> reason
    traced_times: list = field(default_factory=list)
    span_files: list = field(default_factory=list)


def child_env() -> dict:
    """Environment for the program: this checkout's sources, bytecode caching on."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE", "PYTHONUNBUFFERED")}
    env["PYTHONPATH"] = str(SRC)
    return env


class Launcher:
    """The process that starts every child (see ``launcher.py``)."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "launcher.py")], env=env, cwd=ROOT,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()

    def run(self, cmd: list, out: Path, err: Path) -> Child:
        """Run one child to completion; its output is read back from `out`."""
        request = {"cmd": cmd, "out": str(out), "err": str(err), "limit_s": CHILD_LIMIT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"launcher exited {self.proc.wait()}")
        reply = json.loads(line)
        return Child(reply["code"], reply["wall_s"], reply["cpu_s"], reply["maxrss_kib"],
                     _head(out, reply["out_len"]))


def _head(path: Path, size: int) -> bytes:
    with open(path, "rb") as f:
        return f.read(size)


def _presize(path: Path, size: int) -> Path:
    """Fill `path` with zeros up to `size` bytes, so children overwrite blocks instead of allocating them."""
    chunk = bytes(1 << 20)
    with open(path, "wb") as f:
        for _ in range(size // len(chunk)):
            f.write(chunk)
    return path


def _whole_decks(decks, seconds: float):
    """(index, operation) over whole decks, until `seconds` have passed."""
    begin = time.perf_counter()
    i = 0
    for deck in decks:
        for op in deck:
            yield i, op
            i += 1
        if time.perf_counter() - begin >= seconds:
            return


def run_cold(decks, seconds: float, trace: bool, env: dict, out: Path, check) -> Run:
    """One fresh ``genocchi`` process per operation; ``check(op, code, out)``.

    Traced, each operation runs again under the span recorder right after
    its untraced run, and the two outputs must be the same bytes.
    """
    run = Run()
    op_out = _presize(out / "op.out", CAPTURE_BYTES)
    traced_out = _presize(out / "traced.out", CAPTURE_BYTES if trace else 0)
    err = out / "op.err"
    try:
        with Launcher(env) as launcher:
            for i, op in _whole_decks(decks, seconds):
                child = launcher.run([sys.executable, "-m", "genocchi", *op["argv"]], op_out, err)
                reason = check(op, child.code, child.out)
                run.times.append(child.wall_s)
                run.cpu_s.append(child.cpu_s)
                run.rss_kib.append(child.maxrss_kib)
                run.out_bytes.append(len(child.out))
                if trace:
                    spans = out / f"spans-{i}.bin"
                    cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans), str(i), *op["argv"]]
                    traced = launcher.run(cmd, traced_out, err)
                    if (traced.code, traced.out) != (child.code, child.out):
                        reason = reason or "traced output differs from untraced output"
                    run.traced_times.append(traced.wall_s)
                    run.span_files.append(spans)
                if reason:
                    run.failures[i] = reason
    finally:
        # A run keeps its record and spans, not megabytes of zero-padded captures.
        op_out.unlink(missing_ok=True)
        traced_out.unlink(missing_ok=True)
    return run


def run_session(seed: int, seconds: float, trace: bool, env: dict, out: Path,
                digests_file: Path = HERE / "digests.json", limit: int = 0) -> Run:
    """One long-lived process making the calls of the session decks for `seed`.

    It stops after whole decks once `seconds` have passed, or after `limit`
    calls when that is not 0.  Traced, a second process repeats the same
    calls under the span recorder.
    """

    def session(launcher, tag: str, secs: float, limit: int, spans: Path | None):
        result_file = out / f"{tag}.json"
        cmd = [sys.executable, str(HERE / "session_child.py"), str(seed), str(digests_file),
               str(result_file), str(secs), str(limit)] + ([str(spans)] if spans else [])
        child = launcher.run(cmd, out / f"{tag}.out", out / f"{tag}.err")
        if not result_file.exists():
            raise RuntimeError(f"session child exited {child.code}: {(out / f'{tag}.err').read_text()[-2000:]}")
        return child, json.loads(result_file.read_text())

    run = Run()
    with Launcher(env) as launcher:
        child, result = session(launcher, "session", seconds / 2 if trace else seconds, limit, None)
        run.times = result["times"]
        run.cpu_s = [child.cpu_s]
        run.rss_kib = [child.maxrss_kib]
        run.failures = {i: reason for i, reason in result["failures"]}
        if child.code != 0:
            run.failures[len(run.times) - 1] = f"session process exited {child.code}"
        if trace:
            spans = out / "spans-session.bin"
            traced, tresult = session(launcher, "traced", 0, len(run.times), spans)
            run.traced_times = tresult["times"]
            run.span_files = [spans]
            for i, reason in tresult["failures"]:
                run.failures.setdefault(i, f"traced: {reason}")
            if traced.code != 0 or len(tresult["times"]) != len(run.times):
                run.failures.setdefault(len(run.times) - 1, "traced session did not finish the same calls")
    return run


def tail(times: list, deck_len: int) -> tuple[float, str]:
    """The tail operation time, and which percentile of how many samples it is.

    It is the percentile with ten samples beyond it for each whole deck the
    run completed, so its level is the same however many decks a run
    completes, and it never has fewer than ten samples beyond it.  With
    eleven operations or fewer it is the maximum.
    """
    ordered = sorted(times)
    n = len(ordered)
    beyond = max(10, 10 * n // deck_len)
    if n <= beyond:
        return ordered[-1], f"max of {n}"
    return ordered[n - beyond - 1], f"p{100 * (n - beyond) / n:.1f} of {n}"


def measure_setup(env: dict) -> float:
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import genocchi.cli"], env=env, cwd=ROOT, check=True)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def warm_up(env: dict) -> None:
    """Import once (writing bytecode caches) and check the import resolves to this checkout."""
    done = subprocess.run(
        [sys.executable, "-c", "import genocchi.cli; print(genocchi.cli.__file__)"],
        env=env, cwd=ROOT, capture_output=True, text=True, check=True,
    )
    where = Path(done.stdout.strip()).resolve()
    if SRC.resolve() not in where.parents:
        raise RuntimeError(f"genocchi imported from {where}, not from {SRC}")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() or None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def end_to_end(run: Run, setup_s: float, deck_len: int) -> dict:
    values = {
        "setup_s": setup_s,
        "ops_per_s": len(run.times) / sum(run.times),
        "op_s_p50": statistics.median(run.times),
        "op_s_tail": tail(run.times, deck_len)[0],
        "peak_rss_mib": max(run.rss_kib) / 1024,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer(run: Run) -> dict:
    totals = layers.Totals()
    for path in run.span_files:
        totals.add_file(path)
    ops = len(run.traced_times)
    untraced = sum(run.times[:ops])
    return totals.metrics(ops, sum(run.out_bytes[:ops]), sum(run.traced_times) / untraced)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("catalog", "tables", "session"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "genocchi" / "cli.py").is_file():
        print(f"no program sources under {SRC}", file=sys.stderr)
        return 2

    out = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = child_env()
    decks = list(workloads.decks(args.workload, args.seed))
    ops = [op for deck in decks for op in deck]
    provenance = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "loadavg_start": os.getloadavg(),
        "git_commit": _git_commit(),
        "src_digest": _src_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops_digest": workloads.ops_digest(decks),
        "ops_generated": len(ops),
    }
    warm_up(env)
    setup_s = None if args.trace else measure_setup(env)

    if args.workload == "session":
        run = run_session(args.seed, args.seconds, bool(args.trace), env, out)
    else:
        if args.workload == "catalog":
            def check(op, code, data):
                return workloads.check_catalog(code, data)
        else:
            digests = json.loads((HERE / "digests.json").read_text())["tables"]

            def check(op, code, data):
                return workloads.check_table(op, code, data, digests)
        run = run_cold(decks, args.seconds, bool(args.trace), env, out, check)

    attempted, failed = len(run.times), len(run.failures)
    metrics = per_layer(run) if args.trace else end_to_end(run, setup_s, len(decks[0]))
    tail_label = tail(run.times, len(decks[0]))[1]
    provenance.update(
        loadavg_end=os.getloadavg(),
        ops_executed=attempted,
        failed_ratio=failed / attempted,
        op_s_tail_percentile=tail_label,
    )
    record = {
        "provenance": provenance,
        "metrics": metrics,
        "op_times_s": run.times,
        "op_cpu_s": run.cpu_s,
        "op_maxrss_kib": run.rss_kib,
        "traced_op_times_s": run.traced_times,
        "failures": run.failures,
    }
    (out / "record.json").write_text(json.dumps(record, indent=1))

    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} failed_ratio = {failed}/{attempted} = {failed / attempted:.6g} ratio")
    print(f"{args.workload} op_s_tail is the {tail_label} operations")
    for i, reason in sorted(run.failures.items())[:10]:
        print(f"failed operation {i} {workloads.op_key(ops[i])!r}: {reason}")
    print("provenance " + json.dumps(provenance))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
