"""steinclt benchmark: seeded workloads with end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload delta-sweep --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports the library from `src/`.
Workloads, their cells and oracles, and the reasons for each are in
`workloads.py`.

With `--trace 0` the run repeats passes over the workload's fixed cell list
until it has measured for `--seconds` and pooled at least MIN_CELLS cell
latencies (so at least ten lie above the p90), then reports:

- `setup_s`: from the script's first statement until the first cell could
  be timed (imports, input generation, warming the library's lazy caches),
  the median of this process and SETUP_PROBES fresh interpreters;
- `wall_s`: the median over passes of the summed cell times of one pass;
- `cell_p50_s`, `cell_p90_s`: percentiles of the pooled cell times;
- `peak_rss_mib`: the process's maximum resident set size.

Times are reported at the reference speed.  On a shared two-vCPU virtual
machine (Intel Xeon) the speed drifts by up to a third within seconds to
minutes, and all code slows together, so raw run-to-run spreads reached
0.3 of the median.  A fixed few-millisecond reference kernel (numpy,
scipy.special and a Python loop; no steinclt code) is timed KERNEL_SAMPLES
times just before every cell and after set-up, and the time is scaled by
REFERENCE_S over the fastest of those timings.  Raw times are kept in the
report file.

With `--trace 1` the run makes one untraced pass and one traced pass (see
`layers.py`) and reports the per-layer metrics, whose times are raw, plus
`trace.overhead_frac` from the two passes' reference-speed times.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; `failed / attempted` is the share of
cells that raised or failed their oracle.  A report with the run metadata
and every cell is written under `perfbench/.out/`, and the traced run also
writes its spans there.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# One thread in the BLAS as well as in the library: the run is a single
# client on a two-core machine, and idle OpenBLAS workers spin for a while
# after each call, slowing whatever runs next (the reference kernel by 2x).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from scipy import special  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"
WORKLOAD_NAMES = ("delta-sweep", "stein-solve", "shell-smoothing")
MIN_CELLS = 100
SETUP_PROBES = 2
# no new pass starts if it would end past this many seconds of the run
DEADLINE_S = 150.0
# typical fastest-of-three reference-kernel time on the machine the bounds
# were set on (Intel Xeon, 2 vCPUs, numpy 2.4.6, scipy 1.17.1)
REFERENCE_S = 0.004
KERNEL_SAMPLES = 3

END_TO_END_UNITS = {
    "wall_s": "s",
    "cell_p50_s": "s",
    "cell_p90_s": "s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}


class Reference:
    """A fixed few-millisecond kernel that tracks the machine's current speed."""

    def __init__(self):
        self._x = np.random.default_rng(0).standard_normal((4096, 3))
        self._q = self._x[:, 0] ** 2

    def speed(self) -> float:
        """The fastest of KERNEL_SAMPLES back-to-back kernel timings."""
        return min(self._sample() for _ in range(KERNEL_SAMPLES))

    def _sample(self) -> float:
        start = time.perf_counter()
        for _ in range(4):
            np.count_nonzero(np.linalg.norm(self._x, axis=1) <= 1.5)
            special.chndtr(2.0, 3.0, self._q)
        acc = 0
        for i in range(3000):
            acc += i
        return time.perf_counter() - start


@dataclass
class CellResult:
    key: str
    raw_s: float
    kernel_s: float  # fastest of KERNEL_SAMPLES reference timings just before
    error: str | None

    @property
    def seconds(self) -> float:
        """The cell's time at the reference speed."""
        return self.raw_s * REFERENCE_S / self.kernel_s


@dataclass
class PassResult:
    cells: list

    @property
    def raw_wall_s(self) -> float:
        return sum(c.raw_s for c in self.cells)

    @property
    def wall_s(self) -> float:
        return sum(c.seconds for c in self.cells)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def run_pass(cells, finish, reference: Reference, tracer=None) -> PassResult:
    """Run every cell once, in order; time only the library call."""
    results = []
    outputs = {}
    for index, cell in enumerate(cells):
        kernel = reference.speed()
        if tracer is not None:
            tracer.begin_cell(index)
            tracer.enabled = True
        start = time.perf_counter()
        try:
            output = cell.call()
            error = None
        except Exception as exc:  # a cell that raises is a failed cell
            output = None
            error = f"raised {type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.enabled = False
        if error is None:
            outputs[cell.key] = output
            error = cell.check(output)
        results.append(CellResult(cell.key, seconds, kernel, error))
    if finish is not None:
        cross = finish(outputs)
        for result in results:
            if result.error is None and result.key in cross:
                result.error = cross[result.key]
    return PassResult(results)


def timed_setup(args, out_dir: Path):
    """Build the workload; returns (plan, reference, raw and scaled set-up time)."""
    import workloads

    plan = workloads.WORKLOADS[args.workload](args.seed, out_dir)
    raw = time.perf_counter() - _T0
    reference = Reference()
    return plan, reference, raw, raw * REFERENCE_S / reference.speed()


def probe_setup(args) -> tuple[float, float]:
    """Raw and scaled set-up time of a fresh interpreter on the same workload."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "0", "--setup-probe",
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if out.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{out.stderr}")
    report = json.loads(out.stdout.strip().splitlines()[-1])
    return report["raw_setup_s"], report["setup_s"]


def untraced(args, plan, reference, setups):
    """Passes until --seconds and MIN_CELLS; returns (passes, metrics)."""
    setups = setups + [probe_setup(args) for _ in range(SETUP_PROBES)]
    passes = []
    started = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        passes.append(run_pass(*plan.cells(len(passes)), reference))
        now = time.perf_counter()
        pooled = sum(len(p.cells) for p in passes)
        if now - started >= args.seconds and pooled >= MIN_CELLS:
            break
        if now - _T0 + (now - pass_start) > DEADLINE_S:
            print(f"# stopping at {pooled} cells: another pass would pass the "
                  f"{DEADLINE_S:.0f} s deadline", file=sys.stderr)
            break
    latencies = [c.seconds for p in passes for c in p.cells]
    p90 = statistics.quantiles(latencies, n=10)[-1]
    print(f"# {len(latencies)} cells pooled, {sum(s > p90 for s in latencies)} above p90; "
          f"set-up samples (raw, scaled) "
          f"{', '.join(f'({r:.3f}, {s:.3f})' for r, s in setups)} s")
    values = {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "cell_p50_s": statistics.median(latencies),
        "cell_p90_s": p90,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(s for _, s in setups),
    }
    return passes, {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def traced(args, plan, reference, metadata):
    """An untraced and a traced pass; returns (passes, per-layer metrics)."""
    import layers

    passes = [run_pass(*plan.cells(0), reference)]
    tracer = layers.Tracer()
    tracer.install()
    try:
        passes.append(run_pass(*plan.cells(1), reference, tracer))
    finally:
        tracer.uninstall()
    values = tracer.metrics(passes[1].wall_s / passes[0].wall_s - 1.0)
    spans = OUT / f"{args.workload}-seed{args.seed}-spans.json.gz"
    tracer.write_spans(spans, metadata)
    print(f"# {len(tracer.spans)} spans written to {spans.relative_to(ROOT)}")
    return passes, {k: {"value": v, "unit": layers.metric_unit(k)} for k, v in values.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "steinclt" / "__init__.py").is_file():
        print(f"perfbench: no steinclt sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        plan, reference, raw_setup, setup = timed_setup(args, Path(tmp))
        if args.setup_probe:
            print(json.dumps({"raw_setup_s": raw_setup, "setup_s": setup}))
            return 0
        import runinfo
        import workloads

        metadata = runinfo.collect(ROOT, args.workload, args.seed, bool(args.trace))
        metadata["why"] = workloads.WHY[args.workload]
        metadata["reference_s"] = REFERENCE_S
        print(json.dumps({"metadata": metadata}, sort_keys=True))
        if args.trace:
            passes, metrics = traced(args, plan, reference, metadata)
        else:
            passes, metrics = untraced(args, plan, reference, [(raw_setup, setup)])

    for number, result in enumerate(passes):
        failed = [c for c in result.cells if c.error]
        print(f"# pass {number}: {len(result.cells)} cells, {result.raw_wall_s:.3f} s raw, "
              f"{result.wall_s:.3f} s at reference speed, {len(failed)} failed")
        for cell in failed:
            print(f"# FAILED {cell.key}: {cell.error}", file=sys.stderr)
    attempted = sum(len(p.cells) for p in passes)
    failed = sum(1 for p in passes for c in p.cells if c.error)
    print(f"# failed_frac = {failed / attempted} ({failed} of {attempted} cells)")
    for name, metric in metrics.items():
        print(f"# {name} = {metric['value']} {metric['unit']}")

    report = {
        "metadata": metadata,
        "failed_frac": failed / attempted,
        "metrics": metrics,
        "passes": [
            {
                "raw_wall_s": p.raw_wall_s,
                "wall_s": p.wall_s,
                "cells": [dict(vars(c), seconds=c.seconds) for c in p.cells],
            }
            for p in passes
        ],
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
