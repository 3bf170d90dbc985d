"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Exact-identity criteria assert at 1e-10 relative; empirical criteria compare
against the golden quantile curves shipped with the package (recorded with a
5x safety factor).  Run with `pytest tests/test_acceptance.py -s` to see the
per-criterion lines.
"""

import time

import numpy as np
import pytest

from dyadlab.harness import (
    ExperimentConfig,
    coefficient_suite,
    commutator_suite,
    duality_suite,
    identity_suite,
    lower_bound_suite,
    mixed_norm_suite,
    representation_suite,
    weighted_suite,
)

CONFIG = ExperimentConfig(seed=7, level=3, samples=170)


def _verdict(n, label, report, extra=""):
    ok = report.all_passed
    fails = [r for r in report.rows if not r.passed]
    line = f"ACCEPTANCE {n} [{label}]: {'PASS' if ok else 'FAIL'} ({len(report.rows)} rows{extra})"
    print(line)
    for r in fails[:5]:
        print(f"    failed: {r.experiment}/{r.cell} value={r.value!r} bound={r.bound!r}")
    return ok


def test_criterion_1_exact_identity_suite():
    t0 = time.time()
    rep = identity_suite(CONFIG)
    elapsed = time.time() - t0
    n_inputs = len(rep.rows)
    ok = _verdict(1, "exact identities", rep, f", {n_inputs} checks, {elapsed:.1f}s")
    assert n_inputs >= 1000
    assert elapsed < 60.0
    assert ok


def test_criterion_2_representation_reconstruction():
    t0 = time.time()
    rep = representation_suite(CONFIG, n_tensors=50)
    elapsed = time.time() - t0
    recon = [r for r in rep.rows if r.experiment == "reconstruction"]
    avg = [r for r in rep.rows if r.experiment == "averaged-enumeration"]
    ok = _verdict(2, "representation reconstruction", rep, f", {elapsed:.1f}s")
    assert len(recon) == 51  # 50 random tensors plus the smooth kernel tensor
    assert all(r.value <= 1e-10 for r in recon)
    assert all(r.value <= 1e-10 for r in avg)
    assert elapsed < 15.0
    assert ok
    test_criterion_2_representation_reconstruction.report = rep


def test_criterion_3_paraproduct_round_trips():
    rep = representation_suite(CONFIG, n_tensors=0)
    trips = [r for r in rep.rows if r.experiment.startswith("roundtrip")]
    probe_rows = [r for r in rep.rows if r.experiment == "probe-free-extraction"]
    ok = _verdict(3, "round trips", rep)
    assert trips and all(r.value <= 1e-10 for r in trips)
    assert probe_rows and all(r.value <= 1e-10 for r in probe_rows)
    assert ok


def test_criterion_4_coefficient_bound_regression():
    t0 = time.time()
    rep = coefficient_suite(CONFIG)
    elapsed = time.time() - t0
    ok = _verdict(4, "coefficient caps across levels", rep, f", {elapsed:.1f}s")
    levels = {r.cell for r in rep.rows}
    assert {"L2", "L3", "L4"} <= levels
    assert ok
    assert elapsed < 20.0


def test_criterion_5_weighted_sweeps():
    t0 = time.time()
    rep = weighted_suite(CONFIG, seeds_per_cell=1000)
    elapsed = time.time() - t0
    ok = _verdict(5, "weighted sweeps", rep, f", {elapsed:.0f}s")
    families = {r.experiment for r in rep.rows}
    assert {"weighted-shift", "weighted-partial", "weighted-full",
            "weighted-expansion", "weighted-adaptedmax", "lower-sf",
            "sparse-domination"} <= families
    assert ok
    assert elapsed < 3.0


def test_criterion_6_duality_constant():
    t0 = time.time()
    rep = duality_suite(CONFIG, instances=1000)
    elapsed = time.time() - t0
    ok = _verdict(6, "duality constant", rep, f", {elapsed:.1f}s")
    assert ok
    assert elapsed < 3.0


def test_criterion_7_commutator_complexity_growth():
    rep = commutator_suite(CONFIG)
    ok = _verdict(7, "commutator growth", rep)
    cells = {r.cell for r in rep.rows if r.experiment == "commutator-growth-1"}
    assert {"c0", "c1", "c2"} <= cells  # complexities 0..L-1
    assert ok


def test_criterion_8_median_lower_bound():
    t0 = time.time()
    rep = lower_bound_suite(CONFIG)
    elapsed = time.time() - t0
    ok = _verdict(8, "median lower bound", rep, f", {elapsed:.0f}s")
    chains = [r for r in rep.rows if r.experiment == "median-chain"]
    symbols = {r.cell.split("_")[0] for r in chains}
    assert len(symbols) == 5
    assert all(r.value == 0.0 for r in chains)  # no cellwise violations
    bands = [r for r in rep.rows if r.experiment == "gamma-band-drift"]
    assert bands
    assert ok
    assert elapsed < 3.0


def test_criterion_9_mixed_norm_consistency():
    rep = mixed_norm_suite(CONFIG)
    ok = _verdict(9, "mixed norms", rep)
    exact = [r for r in rep.rows if r.experiment == "mixed-equals-plain"]
    assert exact and all(r.value <= 1e-10 for r in exact)
    assert ok
