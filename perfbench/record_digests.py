"""Record the output digests that the tables and session gates compare against.

Run from the repository root, on the commit whose outputs are the
reference:

    python3 perfbench/record_digests.py

It calls the command line entry point in process for every operation a
tables deck can hold, and the library for every session triangle and
sequence call, and writes ``perfbench/digests.json``.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from genocchi import cli  # noqa: E402


def main() -> int:
    tables = {}
    for op in workloads.tables_space():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(op["argv"])
        if code != 0:
            print(f"{workloads.op_key(op)} exited {code}", file=sys.stderr)
            return 1
        tables[workloads.op_key(op)] = workloads.digest(buf.getvalue().encode())
    session = {}
    for op in workloads.session_space():
        call = op["call"]
        if call[0] == "triangle":
            result = cli.build_triangle(call[1], call[2], call[3])
        else:
            result = cli.SEQUENCES[call[1]](call[2])
        session[workloads.op_key(op)] = workloads.digest(workloads.session_bytes(call, result))
    out = HERE / "digests.json"
    out.write_text(json.dumps({"tables": tables, "session": session}, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(tables)} tables and {len(session)} session digests to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
