"""Run the barbilliard command line with the layers traced.

    python3 benchmark/traced_cli.py TRACE.json <barbilliard arguments>

Installs the tracer, runs ``barbilliard.cli.main`` with the remaining
arguments, writes the trace to TRACE.json and exits with the command's
exit code.  A sweep must run with ``--jobs 1``: the trace lives in this
process, and pool workers would keep theirs.
"""

import json
import sys

import tracing


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    import barbilliard.cli

    tracer = tracing.Tracer()
    tracing.install(tracer)
    code = barbilliard.cli.main(argv)
    with open(trace_path, "w") as fh:
        json.dump(tracer.to_dict(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
