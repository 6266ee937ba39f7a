"""Run one mildkit command under the tracer.

    python3 perfbench/trace_cli.py <mildkit arguments>

Run from the root of a mildkit checkout.  The command's own output goes to
stdout and stderr unchanged; the span summary of the whole process (from
just after `import mildkit.cli`, so including loading the presentation)
follows on stderr as one line starting with `PERFBENCH-TRACE `.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import mildkit.cli  # noqa: E402
from tracer import TRACE_MARK, Tracer  # noqa: E402


def main():
    tracer = Tracer()
    tracer.install()
    try:
        code = mildkit.cli.main(sys.argv[1:])
    finally:
        sys.stdout.flush()
        print(TRACE_MARK + json.dumps(tracer.summary()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
