"""Command-line entry point for the experiment suites.

Exit codes: 0 all assertions passed, 1 an assertion failed, 2 configuration
or input error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .core import GridShift, TorusGrid, sample_shift
from .harness import (
    ConfigError,
    ExperimentConfig,
    Report,
    SUITES,
    emit_plotdata,
    run_suite,
)
from .kernels import get_kernel
from .representation import KernelFormatError, KernelTensor, check_decomposer_size, decompose


def _base_config(args, suite: str | None = None) -> ExperimentConfig:
    overrides = {"suite": suite, "seed": args.seed, "level": args.grid_level,
                 "samples": args.samples, "out_dir": args.out, "fmt": args.format}
    overrides = {k: v for k, v in overrides.items() if v is not None}
    # one construction, so the config validation sees the overridden fields
    if args.config:
        cfg = ExperimentConfig.from_file(args.config, **overrides)
    else:
        cfg = ExperimentConfig(**overrides)
    _check_out_dir(cfg.out_dir)
    return cfg


def _check_out_dir(path: str) -> None:
    """Refuse, before anything runs, an output directory that names a file
    or lies under one: its nearest existing path must be a directory."""
    near = os.path.abspath(path)
    while not os.path.lexists(near):
        near = os.path.dirname(near)
    if not os.path.isdir(near):
        raise ConfigError(f"output directory {path!r}: {near!r} is not a directory")


def _run_named(args, suites: list[str]) -> int:
    ok = True
    for name in suites:
        cfg = _base_config(args, name)
        report = run_suite(cfg)
        path = report.write(cfg.out_dir, cfg.fmt)
        failed = [r for r in report.rows if not r.passed]
        print(f"{name}: {len(report.rows)} rows, {len(failed)} failures -> {path}")
        for r in failed:
            margin = f" (value/bound {r.value / r.bound:.4g})" if r.bound else ""
            print(f"{name}: FAILED {r.experiment} {r.cell}: value {r.value!r}, bound {r.bound!r}{margin}",
                  file=sys.stderr)
        ok = ok and report.all_passed
    return 0 if ok else 1


def cmd_verify_identities(args) -> int:
    return _run_named(args, ["identity"])


def _check_one_dim(grid: TorusGrid) -> None:
    dims = [ax.dim for ax in grid.axes]
    if dims != [1, 1]:
        raise ConfigError(f"dims {dims}: the decomposer runs on 1-d factors")


def cmd_decompose(args) -> int:
    # no suite runs here: "empty" takes any dims, and the decomposer's own
    # condition on them is checked below
    cfg = _base_config(args, "empty")
    if args.kernel_file:
        with open(args.kernel_file, "rb") as fp:
            tensor = KernelTensor.load(fp)
        _check_one_dim(tensor.grid)
    else:
        grid = TorusGrid.make(cfg.level, tuple(cfg.dims))
        _check_one_dim(grid)
        check_decomposer_size(grid)
        try:
            # the component options belong to the riesz kernel only
            opts = {"i": args.component_i, "j": args.component_j} if args.kernel == "riesz" else {}
            spec = get_kernel(args.kernel, **opts)
        except (KeyError, ValueError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        tensor = KernelTensor.from_kernel(grid, spec)
    rng = np.random.default_rng(cfg.seed)
    om = sample_shift(tensor.grid, rng) if args.random_shift else GridShift.zero(tensor.grid)
    dec = decompose(tensor, om)
    resid = dec.residual_on_haar_triples()
    os.makedirs(cfg.out_dir, exist_ok=True)
    manifest = dec.manifest()
    manifest["residual"] = resid
    man_path = os.path.join(cfg.out_dir, "decomposition.json")
    with open(man_path, "w") as fp:
        json.dump({k: v if not isinstance(v, dict) else {str(kk): vv for kk, vv in v.items()}
                   for k, v in manifest.items()}, fp, indent=1, sort_keys=True)
    from .model_ops import dmo_to_json

    for key, op, size in dec.extracted_full_paraproducts():
        name = f"fullpara_{key[0]}{key[1]}.json"
        with open(os.path.join(cfg.out_dir, name), "w") as fp:
            fp.write(dmo_to_json(op))
    if args.export_families:
        shifts = dec.extracted_shift_families()
        partials = dec.extracted_partial_paraproducts()
        for fname, fams in (("shift_families.json", shifts),
                            ("partial_families.json", partials)):
            # one record at a time, its payload made as it is written, through
            # the C encoder: the output of json.dump, without its pure-Python
            # encoder, a whole-file string or every record's payload at once
            with open(os.path.join(cfg.out_dir, fname), "w") as fp:
                fp.write("[")
                for n, rec in enumerate(fams):
                    rec = ({k: v for k, v in rec.items() if k != "operator"}
                           | {"operator": rec["operator"].to_payload()})
                    fp.write((", " if n else "") + json.dumps(rec, sort_keys=True, default=list))
                fp.write("]")
        print(f"exported {len(shifts)} shift families, {len(partials)} partial families")
    print(f"decomposition residual {resid:.3e} -> {man_path}")
    return 0 if resid <= cfg.tolerance else 1


def cmd_sweep_weighted(args) -> int:
    return _run_named(args, ["weighted", "coefficients"])


def cmd_commutators(args) -> int:
    return _run_named(args, ["commutator", "duality"])


def cmd_lower_bound(args) -> int:
    return _run_named(args, ["lowerbound"])


def cmd_suite(args) -> int:
    return _run_named(args, [args.name])


def cmd_emit_plotdata(args) -> int:
    try:
        with open(args.report) as fp:
            payload = json.load(fp)
        report = Report(payload["suite"], payload["seed"])
        for row in payload["rows"]:
            report.add(row["experiment"], row["cell"], row["seed"], row["value"],
                       row["bound"], row["passed"])
    except (ValueError, KeyError, TypeError) as exc:  # JSON, UTF-8, report fields
        print(f"input error: {args.report} is not a dyadlab report: {exc!r}", file=sys.stderr)
        return 2
    try:
        table = emit_plotdata(report, args.x, args.y)
    except KeyError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out = args.out or "plotdata.csv"
    if os.path.isdir(out):
        out = os.path.join(out, "plotdata.csv")
    with open(out, "w") as fp:
        fp.write(table)
    print(f"wrote {out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="dyadlab",
                                     description="finite dyadic model-operator laboratory")
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--grid-level", type=int)
    parser.add_argument("--samples", type=int,
                        help="random draws of the identity suite (no other suite reads it)")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--format", choices=("csv", "json"))
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("verify-identities").set_defaults(func=cmd_verify_identities)

    p = sub.add_parser("decompose")
    p.add_argument("--kernel", default="riesz")
    p.add_argument("--kernel-file")
    p.add_argument("--component-i", type=int, default=1)
    p.add_argument("--component-j", type=int, default=1)
    p.add_argument("--random-shift", action="store_true")
    p.add_argument("--export-families", action="store_true")
    p.set_defaults(func=cmd_decompose)

    sub.add_parser("sweep-weighted").set_defaults(func=cmd_sweep_weighted)
    sub.add_parser("commutators").set_defaults(func=cmd_commutators)
    sub.add_parser("lower-bound").set_defaults(func=cmd_lower_bound)

    p = sub.add_parser("suite")
    p.add_argument("name", choices=sorted(SUITES))
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser("emit-plotdata")
    p.add_argument("report", help="JSON report file")
    p.add_argument("--x", default="cell")
    p.add_argument("--y", default="value")
    p.set_defaults(func=cmd_emit_plotdata)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (FileNotFoundError, IsADirectoryError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except KernelFormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
