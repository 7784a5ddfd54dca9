"""Run one command line operation with the span recorder installed.

    python3 perfbench/traced_cli.py SPAN_FILE OP_ID ARG...

ARG... is what would follow ``genocchi`` on the command line.  The exit
code and standard output are those of the command; the spans are written
to SPAN_FILE when the command returns.
"""

from __future__ import annotations

import sys

import shim


def main() -> int:
    path, op_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    rec = shim.Recorder()
    rec.op_id = op_id
    cli = shim.install(rec)
    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        rec.dump(path)


if __name__ == "__main__":
    sys.exit(main())
