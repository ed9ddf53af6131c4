#!/usr/bin/env python3
"""tripcast benchmark: one command for the train and forecast workloads.

Run from the repository root:

    python3 perfbench/run.py --workload train --seed 1 --seconds 45 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the same
schedule with spans recorded around the package's public callables and
prints every per-layer metric instead. The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. The lines before it stamp the environment and give the sample
count behind each metric; the same record, and the spans of a traced run,
are written under ``.perfbench_out/``.

Exit status: 0 when every check passed, 1 when a check or operation failed
(the result is still printed), 2 when the tripcast sources are missing or
the arguments are wrong (nothing is printed on standard output).
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads; one process drives the load.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("train", "forecast")


def _git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "git_commit": _git_commit(),
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": blas_name,
        "blas_threads_pinned": BLAS_THREADS,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def _finite_or_none(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--scale", default="full", choices=("full", "tiny"),
                        help="tiny runs toy sizes, for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "tripcast" / "models.py").is_file():
        print(f"perfbench: tripcast sources not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tripcast.models
    if not Path(tripcast.models.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported tripcast from {tripcast.models.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        result, spans = workloads.run(args.workload, args.seed, args.seconds,
                                      bool(args.trace), args.scale, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment(args.seed)
    metrics = {name: {"value": _finite_or_none(value), "unit": unit}
               for name, (value, unit) in sorted(result.metrics.items())}
    correct = result.correct and all(m["value"] is not None
                                     for m in metrics.values())
    failed = result.failed + (correct != result.correct)
    final = {"correct": correct, "attempted": result.attempted,
             "failed": failed, "metrics": metrics}

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "scale": args.scale,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "samples": result.samples, "failures": result.failures,
              "result": final, "raw_samples": result.raw}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        origin = spans[0][1] if spans else 0
        rows = [[s[0], (s[1] - origin) // 1000, (s[2] - origin) // 1000, s[3],
                 {k: (dict(v) if isinstance(v, dict) else v)
                  for k, v in s[4].items()}]
                for s in spans]
        (OUT / f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["name", "start_us", "end_us", "parent", "attrs"],
             "spans": rows}, separators=(",", ":")))

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} scale={args.scale}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, m in metrics.items():
        n = result.samples.get(name)
        print(f"  {name:52s} {m['value']!s:>24} {m['unit']:10s}"
              + (f" n={n}" if n is not None else ""))
    for failure in result.failures:
        print(f"  FAILED: {failure}")
    print(json.dumps(final, allow_nan=False))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
