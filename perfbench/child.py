"""Fresh-process entry points of the benchmark.

    python3 perfbench/child.py setup WORKLOAD
        Import the package and build WORKLOAD's families from a cold start;
        print {"setup_s": seconds}.
    python3 perfbench/child.py cli SPANS_FILE ARGS...
        Run `cegis-lab ARGS` with the benchmark's span wrappers installed,
        then write the spans to SPANS_FILE.  Exits as the CLI would.
"""
# The benchmark's own standard-library imports come before the clock starts,
# so that setup_s times the package and not the benchmark.
import dataclasses  # noqa: F401
import json
import os  # noqa: F401
import random  # noqa: F401
import subprocess  # noqa: F401
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(1, str(ROOT / "src"))


def setup(workload: str) -> None:
    t0 = perf_counter()
    import workloads

    workloads.setup(workload, ROOT)
    print(json.dumps({"setup_s": perf_counter() - t0}))


def cli(spans_file: str, argv: list[str]) -> int:
    t0 = perf_counter()
    import cegis_lab.cli

    import_s = perf_counter() - t0
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    main = tracer.wrap("cli.main", cegis_lab.cli.main)
    try:
        return main(argv)
    finally:
        tracer.dump(Path(spans_file), {
            "import_s": import_s,
            "numpy_loaded": "numpy" in sys.modules,
        })


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        setup(sys.argv[2])
    elif mode == "cli":
        sys.exit(cli(sys.argv[2], sys.argv[3:]))
    else:
        sys.exit(f"unknown mode: {mode}")
