"""Run the latticegfun CLI with per-layer tracing.

Usage: python perfbench/traced_cli.py CLI_ARGS...

Behaves like ``python -m latticegfun CLI_ARGS...`` (same stdout, same exit
code) and prints the layer stats of the call as one JSON line on stderr.
The package must be importable, e.g. through PYTHONPATH=src.
"""
import json
import sys

from tracing import Tracer

import latticegfun.cli


def main() -> int:
    tracer = Tracer()
    with tracer.installed():
        code = latticegfun.cli.main(sys.argv[1:])
    sys.stdout.flush()
    print(json.dumps(tracer.dump()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
