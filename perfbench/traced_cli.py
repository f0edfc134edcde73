"""ghcalc's command line under the benchmark's tracer.

    PYTHONPATH=src PERFBENCH_SPANS=spans.npz python3 perfbench/traced_cli.py <ghcalc args>

Behaves like `python -m ghcalc.cli <ghcalc args>` and exits with its code;
the spans, and the time `import ghcalc.cli` took, go to $PERFBENCH_SPANS.
"""

import os
import sys
from time import perf_counter

t0 = perf_counter()
import ghcalc.cli  # noqa: E402

import_s = perf_counter() - t0

from tracer import Tracer  # noqa: E402

if __name__ == "__main__":
    tracer = Tracer()
    tracer.install()
    try:
        code = ghcalc.cli.main(sys.argv[1:])
    finally:
        tracer.save(os.environ["PERFBENCH_SPANS"], import_s=import_s)
    sys.exit(code)
