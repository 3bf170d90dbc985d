"""One sample of a dyadlab benchmark workload, in a fresh interpreter.

    python3 bench/sample.py --workload sweep --seed 3 [--spans FILE]

`bench/run.py` starts this script once per sample, so every sample pays the
imports and cache fills a command-line user pays.  A sample imports the
package, builds the workload's inputs, runs the workload and checks its
outputs; with `--spans` it also records spans around the package's layers
and writes them to that file.  Samples are sized to take a few seconds, so
that a run holds many of them.

The last line of output is one JSON object: `setup_s` (imports plus input
construction), `run_s` and `cpu_s` (wall and process CPU seconds from the
built inputs to a checked report), `calibration_s` (the mean time of a fixed
loop run just before and just after the workload), `peak_rss_mb`, the
checks attempted and failed, the values compared with the recorded digest,
and the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import io
import json
import os
import resource
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(HERE, "digests.json")
OUT = os.path.join(ROOT, ".bench_out")

# The workload seed picks one of this many input sets, each with a digest
# recorded in bench/digests.json, so every run can be checked value by value.
SEED_SLOTS = 16
EXACT_TOL = 1e-10   # exact identities, as in the acceptance suite
DIGEST_RTOL = 1e-9  # "unchanged" for regression values

# Sample sizes.  Every workload runs on level-3 acceptance grids, where the
# golden bounds are frozen, except the decomposition: one level-3 export
# takes about 30 s, a level-2 one under a second with the same stages.
# weighted_suite's linear sweeps run at least 20 seeds per weight whatever
# seeds_per_cell says, and they take most of its time, so the sweep keeps
# one weight; 100 seeds per cell then cost little and keep it apply-heavy.
LEVEL = 3
SWEEP_CELLS = {"weights": ["unit"], "exponents": [[4 / 3, 2.0], [4.0, 4.0]]}
WEIGHTED_SEEDS = 100
COMMUTATOR_SEEDS = 4
DUALITY_INSTANCES = 16
DECOMPOSE_LEVEL = 2
# two triples on one grid, so that the partner searches repeat
LOWER_BOUND_TRIPLES = ((1, 1, 0), (2, 1, 1))


class Checks:
    """Checks made on one sample's outputs, plus the values for the digest."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.values: dict[str, float] = {}

    def ok(self, label: str, passed: bool) -> None:
        self.attempted += 1
        if not passed:
            self.failures.append(label)

    def exact(self, label: str, value: float) -> None:
        self.ok(f"exact:{label}", bool(abs(value) <= EXACT_TOL))

    def equal(self, label: str, value, want) -> None:
        self.ok(f"equal:{label}={value!r}, want {want!r}", value == want)

    def record(self, label: str, value: float) -> None:
        self.values[label] = float(value)

    def report_rows(self, report) -> None:
        """Each row passes its bound; exact rows stay at 1e-10, the others
        go into the digest."""
        for i, row in enumerate(report.rows):
            label = f"{report.suite}/{i}/{row.experiment}/{row.cell}"
            self.ok(f"row:{label}", row.passed)
            if row.bound is not None and row.bound <= EXACT_TOL:
                self.exact(label, row.value)
            else:
                self.record(label, row.value)

    def against(self, digest: dict | None) -> None:
        if digest is None:
            self.ok("digest:missing", False)
            return
        for label in sorted(set(digest) | set(self.values)):
            want, got = digest.get(label), self.values.get(label)
            same = (want is not None and got is not None
                    and abs(got - want) <= DIGEST_RTOL * max(abs(got), abs(want)))
            self.ok(f"digest:{label} got {got!r} want {want!r}", same)


# ---------------------------------------------------------------------------
# workloads: setup builds the inputs, run drives the public API and checks
# ---------------------------------------------------------------------------

def setup_sweep(slot: int) -> dict:
    from dyadlab.harness import ExperimentConfig

    return {"config": ExperimentConfig(seed=slot, level=LEVEL, **SWEEP_CELLS)}


def run_sweep(inputs: dict, checks: Checks, tracer) -> None:
    from dyadlab.harness import commutator_suite, duality_suite, weighted_suite

    cfg = inputs["config"]
    checks.report_rows(weighted_suite(cfg, seeds_per_cell=WEIGHTED_SEEDS))
    checks.report_rows(commutator_suite(cfg, seeds_per_cell=COMMUTATOR_SEEDS))
    checks.report_rows(duality_suite(cfg, instances=DUALITY_INSTANCES))


def setup_decompose(slot: int) -> dict:
    import dyadlab.cli  # noqa: F401  (imported here so that set-up pays for it)

    # the CLI builds the grid, the kernel tensor and the shift from its arguments
    out_dir = os.path.join(OUT, f"decompose-{os.getpid()}")
    argv = ["--grid-level", str(DECOMPOSE_LEVEL), "--seed", str(slot), "--out", out_dir,
            "decompose", "--random-shift", "--export-families"]
    return {"argv": argv, "out_dir": out_dir}


def _abs_sum_hex(records: list, key: str) -> float:
    return sum(abs(float.fromhex(x)) for rec in records for x in rec[key])


def run_decompose(inputs: dict, checks: Checks, tracer) -> None:
    from dyadlab import cli

    # keep the decomposition the CLI makes, for the coefficient reports below
    made = []
    decompose = cli.decompose

    def keep(*args, **kwargs):
        made.append(decompose(*args, **kwargs))
        return made[-1]

    out_dir = inputs["out_dir"]
    cli.decompose = keep
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(inputs["argv"])
    finally:
        cli.decompose = decompose
    checks.equal("cli-exit", rc, 0)
    out_bytes = sum(os.path.getsize(p) for p in glob.glob(os.path.join(out_dir, "*")))
    if tracer is not None:
        tracer.count("cli.out_bytes", out_bytes)
    with open(os.path.join(out_dir, "decomposition.json")) as fp:
        manifest = json.load(fp)
    checks.exact("residual", manifest["residual"])
    for cell, counts in sorted(manifest["cells"].items()):
        for cls, n in sorted(counts.items()):
            checks.record(f"manifest/{cell}/{cls}", n)
    # at level 2 the number of exported families depends on the shift, so
    # the digest checks the counts
    for name, block_key in (("shift", "block"), ("partial", "profile")):
        with open(os.path.join(out_dir, f"{name}_families.json")) as fp:
            fams = json.load(fp)
        checks.record(f"export/{name}/count", len(fams))
        checks.record(f"export/{name}/size_sum", sum(f["size"] for f in fams))
        checks.record(f"export/{name}/abs_sum",
                      sum(_abs_sum_hex(f["operator"]["records"], block_key) for f in fams))
    shutil.rmtree(out_dir)
    checks.equal("cli-decompositions", len(made), 1)
    dec = made[-1]
    srep = dec.shift_coefficient_report()
    for key in ("nested", "separated"):
        checks.record(f"shift-report/certified/{key}", srep["certified"][key])
        checks.record(f"shift-report/counts/{key}", srep["counts"][key])
    for key, val in sorted(srep["by_class"].items()):
        checks.record(f"shift-report/by_class/{'-'.join(key)}", val)
    prep = dec.partial_symbol_report()
    checks.record("partial-report/max_ratio", prep["max_ratio"])
    checks.record("partial-report/n_symbols", prep["n_symbols"])


def setup_lowerbound(slot: int) -> dict:
    import numpy as np
    from dyadlab.core import DiscreteFunction, TorusGrid
    from dyadlab.kernels import tensor_riesz
    from dyadlab.lower_bounds import BilinearKernel

    grid = TorusGrid.make(LEVEL)
    # the log symbol of the lower-bound suite
    n1, n2 = grid.shape
    dx = np.abs((np.arange(n1) + 0.5) / n1 - 0.5)
    dy = np.abs((np.arange(n2) + 0.5) / n2 - 0.5)
    dx, dy = np.minimum(dx, 1 - dx), np.minimum(dy, 1 - dy)
    b = DiscreteFunction(grid, np.log(1.0 / (dx[:, None] + dy[None, :] + 1e-9)))
    return {"kernel": BilinearKernel(grid, tensor_riesz(1, 1)), "symbol": b, "seed": slot}


def run_lowerbound(inputs: dict, checks: Checks, tracer) -> None:
    from dyadlab.harness import load_goldens
    from dyadlab.lower_bounds import bmo_lower_bound

    bound = load_goldens()["lowerbound/ratio"]["bound"]
    for k, g1, g2 in LOWER_BOUND_TRIPLES:
        out = bmo_lower_bound(inputs["kernel"], inputs["symbol"], k, 1.0, g1, g2, C0=1.0,
                              max_rect_cells=8, seed=inputs["seed"])
        tag = f"k{k}g{g1}{g2}"
        checks.ok(f"bound:{tag}/ratio={out['ratio']!r}", out["ratio"] <= bound)
        checks.record(f"{tag}/ratio", out["ratio"])
        checks.record(f"{tag}/gamma", out["gamma"])
        checks.record(f"{tag}/oscillation", out["oscillation"])
        checks.record(f"{tag}/positive_partners", out["positive_partners"])
        checks.record(f"{tag}/searched", out["report"].searched)
        checks.record(f"{tag}/median_sum", sum(out["median_sums"]))


WORKLOADS = {
    "sweep": (setup_sweep, run_sweep),
    "decompose": (setup_decompose, run_decompose),
    "lowerbound": (setup_lowerbound, run_lowerbound),
}


# ---------------------------------------------------------------------------
# host speed and environment
# ---------------------------------------------------------------------------

def calibrate() -> float:
    """Seconds for a fixed loop of small numpy operations and dict updates,
    the kind of work dyadlab's layers do.  The loop never changes, so its
    time says how fast the host runs this process at that moment."""
    import numpy as np

    a = np.arange(64.0)
    idx = np.arange(8)
    t = time.perf_counter()
    for i in range(4000):
        blk = a[idx + (i % 8) * 8]
        float(np.abs(blk - blk.mean()).mean())
        np.ix_(idx, idx)
    counts: dict[int, int] = {}
    for i in range(100000):
        counts[i & 1023] = counts.get(i & 1023, 0) + i
    return time.perf_counter() - t


def blas_threads() -> int | None:
    """Threads of the OpenBLAS that numpy loaded, or None if not found."""
    import ctypes

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import platform

    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": blas_threads()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spans", help="record spans and write them to this file")
    args = parser.parse_args(argv)
    slot = args.seed % SEED_SLOTS
    setup, run = WORKLOADS[args.workload]
    with open(DIGESTS) as fp:
        digest = json.load(fp).get(f"{args.workload}/{slot}")

    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import dyadlab

    if not os.path.abspath(dyadlab.__file__).startswith(SRC + os.sep):
        print(f"dyadlab imported from {dyadlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    inputs = setup(slot)
    setup_s = time.perf_counter() - t0
    tracer = None
    if args.spans:
        from tracing import Tracer

        tracer = Tracer(f"{args.workload}-{args.seed}-{os.getpid()}")
        tracer.install()
    checks = Checks()
    cal_before = calibrate()
    t1, c1 = time.perf_counter(), time.process_time()
    run(inputs, checks, tracer)
    checks.against(digest)
    result = {"setup_s": setup_s, "run_s": time.perf_counter() - t1,
              "cpu_s": time.process_time() - c1}
    result["calibration_s"] = (cal_before + calibrate()) / 2
    if tracer is not None:
        tracer.write(args.spans)
    result.update(attempted=checks.attempted, failed=len(checks.failures),
                  failures=checks.failures[:20], values=checks.values)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = environment()
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
