"""dyadlab benchmark: one run of one workload, printed as one JSON line.

    python3 bench/run.py --workload sweep --seed 1 --seconds 40 --trace 0

Workloads (why each was chosen is in BENCHMARK.json):

- `sweep`: the weighted, commutator and duality suites on a level-3 grid;
- `decompose`: `dyadlab decompose --random-shift --export-families` at level 2,
  then the shift-coefficient and partial-symbol reports on that decomposition;
- `lowerbound`: `bmo_lower_bound` on the log symbol for two (k, gamma).

Every sample runs in a fresh interpreter (`bench/sample.py`), so cache
fills count as they do for a command-line user.  With `--trace 0` a run
repeats samples while another one fits in `--seconds` and reports medians
of the end-to-end metrics, `setup_s` included.  Samples take a few seconds
each, so a run holds many and its medians ride out short bursts of load.

On a shared host the speed a process gets also drifts over minutes: on a
2-vCPU VM the same lowerbound sample took 1.7 s in one run and 3.0 s in a
run a few minutes later.  So every sample times a fixed calibration loop (`sample.calibrate`) just
before and just after its workload, and `run_s`, `cpu_s` and `setup_s` are
reported in reference seconds: the measured seconds scaled by
CALIBRATION_REF_S over that sample's calibration time, i.e. the time the
sample would take on a host that runs the loop in CALIBRATION_REF_S.  A
change to dyadlab leaves the loop's time alone and moves these metrics as
it moves the measured ones; the measured medians and the calibration are
printed alongside.

With `--trace 1` a run takes one untraced and one traced sample and reports
the per-layer metrics derived from the traced sample's spans, plus the
tracing overhead.

Every sample checks its outputs: report rows against their bounds, exact
rows at 1e-10, the CLI residual at 1e-10, and all other values, exported
family counts among them, against `bench/digests.json` within 1e-9
relative.  A sample that crashes counts all its checks as failed; when
crashes leave no timing to report, the result holds only `pass_frac` and
the exit code is 1.  The last line of output is
`{"correct", "attempted", "failed", "metrics"}`; the lines before it name
each metric with its unit and sample count, the measured medians, and the
environment.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from sample import WORKLOADS
from tracing import layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
SAMPLE = os.path.join(HERE, "sample.py")
HARD_LIMIT_S = 170.0  # a run must end within 180 s
# calibration-loop seconds of the reference host; about what the loop takes
# on the 2-vCPU VM the benchmark was tuned on, under its usual load
CALIBRATION_REF_S = 0.1


def child_env() -> dict:
    """Pin BLAS and OpenMP threads to at most the CPUs this process may use."""
    env = dict(os.environ)
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            want = int(env.get(var, nproc))
        except ValueError:
            want = nproc
        env[var] = str(max(1, min(want, nproc)))
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def sample(args, timeout: float, spans: str | None = None) -> dict | None:
    """Run one sample in a fresh interpreter; None if it crashed or timed out."""
    mode = "traced" if spans else "untraced"
    cmd = [sys.executable, SAMPLE, "--workload", args.workload, "--seed", str(args.seed)]
    if spans:
        cmd += ["--spans", spans]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        print(f"# {mode} sample timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        print(f"# {mode} sample exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def check_totals(samples: list[dict | None]) -> dict:
    """Checks attempted and failed over all samples; a crash fails them all."""
    done = [s for s in samples if s is not None]
    per_sample = max((s["attempted"] for s in done), default=1)
    attempted = failed = 0
    failures: list[str] = []
    for s in samples:
        if s is None:
            attempted += per_sample
            failed += per_sample
            failures.append("crash")
        else:
            attempted += s["attempted"]
            failed += s["failed"]
            failures += s["failures"]
    return {"attempted": attempted, "failed": failed, "failures": failures}


def median_of(samples: list[dict | None], key: str, scaled: bool = False) -> tuple[float, int]:
    """Median over the samples that ran; `scaled` puts each sample's value in
    reference seconds first."""
    values = [s[key] * (CALIBRATION_REF_S / s["calibration_s"] if scaled else 1.0)
              for s in samples if s is not None]
    return statistics.median(values), len(values)


def pass_frac(samples: list[dict | None], checks: dict) -> tuple[float, int, str]:
    return 1.0 - checks["failed"] / checks["attempted"], len(samples), "ratio"


def timed_run(args, t_start: float) -> tuple[dict | None, list, dict]:
    budget = min(args.seconds, HARD_LIMIT_S)
    runs: list[dict | None] = []
    walls: list[float] = []
    while True:
        elapsed = time.perf_counter() - t_start
        if runs and elapsed + statistics.median(walls) > budget:
            break
        runs.append(sample(args, HARD_LIMIT_S - elapsed))
        walls.append(time.perf_counter() - t_start - elapsed)
    checks = check_totals(runs)
    if all(s is None for s in runs):
        return None, runs, checks
    metrics = {key: (*median_of(runs, key, scaled=True), "s")
               for key in ("run_s", "cpu_s", "setup_s")}
    metrics["peak_rss_mb"] = (*median_of(runs, "peak_rss_mb"), "MB")
    for key in ("run_s", "cpu_s", "setup_s", "calibration_s"):
        print(f"# measured {key} median = {median_of(runs, key)[0]:.6g} s")
    metrics["pass_frac"] = pass_frac(runs, checks)
    return metrics, runs, checks


def traced_run(args, t_start: float) -> tuple[dict | None, list, dict]:
    os.makedirs(OUT, exist_ok=True)
    spans = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.bin")
    plain = sample(args, HARD_LIMIT_S - (time.perf_counter() - t_start))
    traced = sample(args, HARD_LIMIT_S - (time.perf_counter() - t_start), spans)
    checks = check_totals([plain, traced])
    if plain is None or traced is None:
        return None, [plain, traced], checks
    metrics = {key: (value, 1, unit) for key, (value, unit) in layer_metrics(spans).items()}
    metrics["trace.overhead_s"] = (traced["run_s"] - plain["run_s"], 1, "s")
    return metrics, [plain, traced], checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="dyadlab benchmark, one run")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "dyadlab", "__init__.py")):
        print(f"no dyadlab sources under {ROOT}/src", file=sys.stderr)
        return 2
    t_start = time.perf_counter()
    run = traced_run if args.trace else timed_run
    metrics, samples, checks = run(args, t_start)
    complete = metrics is not None
    if not complete:
        print("# samples crashed: only pass_frac is reported", file=sys.stderr)
        metrics = {"pass_frac": pass_frac(samples, checks)}
    env = next((s["env"] for s in samples if s is not None), None)

    os.makedirs(OUT, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "env": env, "checks": checks,
              "metrics": {k: {"value": v, "samples": n, "unit": u}
                          for k, (v, n, u) in metrics.items()},
              "samples": [{k: v for k, v in s.items() if k != "values"} if s else None
                          for s in samples]}
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}"
                                f"-trace{args.trace}.json"), "w") as fp:
        json.dump(record, fp, indent=1, sort_keys=True)

    print(f"# workload {args.workload} seed {args.seed} "
          f"trace {args.trace}, {time.perf_counter() - t_start:.1f} s")
    print(f"# env {json.dumps(env, sort_keys=True)}")
    for name, (value, n, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit} ({n} samples)")
    print(f"# failed_frac = {checks['failed'] / checks['attempted']:.6g} "
          f"({checks['failed']} of {checks['attempted']} checks)")
    for label in checks["failures"][:10]:
        print(f"#   failed: {label}")
    print(json.dumps({
        "correct": checks["failed"] == 0,
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, n, unit) in metrics.items()},
    }))
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())
