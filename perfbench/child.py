"""Run one ``tropmono`` CLI command under the tracer, in a fresh process.

    python3 perfbench/child.py STATS_FILE tropmono-args...

Installs the tracer, calls ``tropmono.cli.main`` with the remaining
arguments, writes the layer spans to STATS_FILE as JSON and exits with
main's code.  Untraced runs call the CLI entry point directly instead.
"""

import json
import sys

import tropmono.cli
from tracer import Tracer


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    with Tracer() as tracer:
        code = tropmono.cli.main(argv)
    with open(stats_path, "w") as fh:
        json.dump(tracer.snapshot(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
