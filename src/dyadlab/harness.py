"""Configuration-driven experiment suites with deterministic reports.

Exact identities are asserted at fixed tolerances; norm inequalities are
regression-checked against golden quantile curves recorded with a 5x safety
factor.  Every random draw is keyed by (master seed, cell labels), so a
(config, seed) pair reproduces its report byte for byte.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from importlib import resources
from types import MappingProxyType

import numpy as np

from . import commutators as com
from . import measures as ms
from .core import (
    ConfigError,
    DiscreteFunction,
    DyadicCube,
    DyadicRectangle,
    GridShift,
    TorusGrid,
    haar_coefficients,
    rect_table,
    sample_shift,
    truncated_projection,
)
from .kernels import tensor_riesz
from .model_ops import (
    FullParaproduct,
    paraproduct_freeness_probe,
    random_full_paraproduct,
    random_partial_paraproduct,
    random_shift_operator,
    sparse_dominate_paraproduct,
)

__all__ = [
    "ExperimentConfig",
    "Report",
    "run_suite",
    "emit_plotdata",
    "load_goldens",
    "regenerate_goldens",
    "SUITES",
]

GOLDEN_SAFETY = 5.0


# ---------------------------------------------------------------------------
# config and report plumbing
# ---------------------------------------------------------------------------

# the suites that run on factors of any dimension; the others use the model
# operators or the partner search, which are built on 1-d factors
_ANY_DIMS_SUITES = ("empty", "duality")


def _finite_number(v) -> bool:
    """A number that converts to a finite float (JSON also reads NaN,
    Infinity and integers of any size)."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) < 1e300


@dataclass
class ExperimentConfig:
    suite: str = "identity"
    level: int = 3
    dims: tuple[int, int] = (1, 1)
    seed: int = 7
    samples: int = 100
    exponents: list = field(default_factory=lambda: [
        [4 / 3, 4 / 3], [4 / 3, 2.0], [4 / 3, 4.0], [2.0, 2.0], [2.0, 4.0], [4.0, 4.0],
    ])
    weights: list = field(default_factory=lambda: ["unit", "step4", "step20", "step400", "power"])
    tolerance: float = 1e-10
    out_dir: str = "."
    fmt: str = "csv"

    def __post_init__(self):
        for name, kinds in (("suite", str), ("level", int), ("seed", int), ("samples", int),
                            ("tolerance", (int, float)), ("out_dir", str), ("fmt", str),
                            ("exponents", (list, tuple)), ("weights", (list, tuple))):
            value = getattr(self, name)
            if not isinstance(value, kinds) or isinstance(value, bool):
                raise ConfigError(f"{name} has the wrong type: {value!r}")
        if not all(isinstance(w, str) for w in self.weights):
            raise ConfigError(f"weights must be names, got {self.weights!r}")
        if not set(self.weights) <= set(WEIGHT_NAMES):
            raise ConfigError(f"unknown weights in {self.weights!r}; the catalog has {list(WEIGHT_NAMES)!r}")
        for pair in self.exponents:
            if (not isinstance(pair, (list, tuple)) or len(pair) != 2
                    or not all(_finite_number(v) for v in pair)):
                raise ConfigError(f"an exponent pair must be two numbers, got {pair!r}")
            p, q = pair
            if p <= 1 or q <= 1:
                raise ConfigError("exponents must exceed 1")
            r = 1.0 / (1.0 / p + 1.0 / q)
            if r <= 0.5:
                raise ConfigError("derived target exponent must exceed 1/2")
        if self.fmt not in ("csv", "json"):
            raise ConfigError("format must be csv or json")
        if self.level < 2:
            raise ConfigError("need at least two levels")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.samples < 1:
            raise ConfigError("samples must be positive")
        if not (_finite_number(self.tolerance) and self.tolerance >= 0):
            raise ConfigError(f"tolerance must be a non-negative number, got {self.tolerance!r}")
        if (not isinstance(self.dims, (list, tuple)) or len(self.dims) != 2
                or not all(isinstance(d, int) and d >= 1 for d in self.dims)):
            raise ConfigError(f"dims must be two positive integers, got {self.dims!r}")
        self._check_dims()

    def _check_dims(self) -> None:
        """Factors of dimension >= 2 only for the suites that support them."""
        if tuple(self.dims) != (1, 1) and self.suite not in _ANY_DIMS_SUITES:
            raise ConfigError(f"dims {list(self.dims)}: only the {' and '.join(_ANY_DIMS_SUITES)} "
                              f"suites run on factors of dimension >= 2 (suite {self.suite!r})")

    @staticmethod
    def from_file(path: str, **overrides) -> "ExperimentConfig":
        """The config in a JSON file, with `overrides` replacing its fields."""
        with open(path) as fp:
            try:
                raw = json.load(fp)
            except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
                raise ConfigError(f"{path} is not a JSON config: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"{path} does not hold a JSON object")
        try:
            return ExperimentConfig(**(raw | overrides))
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    def grid(self) -> TorusGrid:
        return TorusGrid.make(self.level, tuple(self.dims))


@dataclass
class ReportRow:
    experiment: str
    cell: str
    seed: int
    value: float
    bound: float | None
    passed: bool

    def csv(self) -> str:
        b = "" if self.bound is None else repr(self.bound)
        return f"{self.experiment},{self.cell},{self.seed},{self.value!r},{b},{int(self.passed)}"


class Report:
    SCHEMA = "dyadlab-report-v1"
    HEADER = "experiment,cell,seed,value,bound,passed"

    def __init__(self, suite: str, seed: int):
        self.suite = suite
        self.seed = seed
        self.rows: list[ReportRow] = []

    def add(self, experiment: str, cell: str, seed: int, value: float,
            bound: float | None = None, passed: bool | None = None) -> None:
        if passed is None:
            passed = True if bound is None else bool(value <= bound)
        self.rows.append(ReportRow(experiment, cell, seed, float(value), bound, passed))

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def to_csv(self) -> str:
        lines = [f"# schema={self.SCHEMA} suite={self.suite} seed={self.seed}", self.HEADER]
        lines += [r.csv() for r in self.rows]
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "schema": self.SCHEMA,
            "suite": self.suite,
            "seed": self.seed,
            "rows": [
                {"experiment": r.experiment, "cell": r.cell, "seed": r.seed,
                 "value": r.value, "bound": r.bound, "passed": r.passed}
                for r in self.rows
            ],
        }
        return json.dumps(payload, sort_keys=True)

    def write(self, out_dir: str, fmt: str) -> str:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"{self.suite}.{fmt}")
        with open(path, "w") as fp:
            fp.write(self.to_csv() if fmt == "csv" else self.to_json())
        return path


def emit_plotdata(report: Report, x_key: str, y_key: str = "value") -> str:
    """Tidy long-format table: one line per row with the requested columns."""
    fields = {"experiment", "cell", "seed", "value", "bound", "passed"}
    for key in (x_key, y_key):
        if key not in fields:
            raise KeyError(f"unknown report key {key!r}")
    lines = [f"{x_key},{y_key}"]
    for r in report.rows:
        vals = {"experiment": r.experiment, "cell": r.cell, "seed": r.seed,
                "value": repr(r.value), "bound": "" if r.bound is None else repr(r.bound),
                "passed": int(r.passed)}
        lines.append(f"{vals[x_key]},{vals[y_key]}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# goldens
# ---------------------------------------------------------------------------

def _golden_path() -> str:
    return str(resources.files("dyadlab").joinpath("goldens/goldens.json"))


_goldens: tuple = (None, MappingProxyType({}))


def load_goldens() -> MappingProxyType:
    """The golden entries, read-only: parsed once per process and per file
    version (path, mtime_ns, size), since every suite call reads them."""
    global _goldens
    path = _golden_path()
    if not os.path.exists(path):
        return MappingProxyType({})
    key = (path, os.stat(path).st_mtime_ns, os.stat(path).st_size)
    if _goldens[0] != key:
        with open(path) as fp:
            _goldens = key, MappingProxyType({k: MappingProxyType(v) for k, v in json.load(fp).items()})
    return _goldens[1]


def _bound(goldens: dict, key: str) -> float | None:
    entry = goldens.get(key)
    return None if entry is None else entry["bound"]


# ---------------------------------------------------------------------------
# shared generators
# ---------------------------------------------------------------------------

# two-value weights: the p=2 characteristic of level t is (t+1)^2 / 4t, so
# the family tops out near one hundred
_STEP_WEIGHTS = (("step4", 4.0), ("step20", 80.0), ("step400", 400.0))
WEIGHT_NAMES = ("unit", *(name for name, _ in _STEP_WEIGHTS), "power")


def weight_catalog(grid: TorusGrid) -> dict[str, ms.Weight]:
    """The weights named in WEIGHT_NAMES, on the grid."""
    n1, n2 = grid.shape
    out = {"unit": ms.Weight.ones(grid)}
    for name, t in _STEP_WEIGHTS:
        vals = np.ones(grid.shape)
        vals[: n1 // 2, :] = t
        out[name] = ms.Weight(DiscreteFunction(grid, vals))
    x = (np.arange(n1) + 0.5) / n1
    y = (np.arange(n2) + 0.5) / n2
    px = np.minimum(np.abs(x - 0.5), 1 - np.abs(x - 0.5)) ** 0.9 + 1e-3
    py = np.minimum(np.abs(y - 0.5), 1 - np.abs(y - 0.5)) ** 0.9 + 1e-3
    out["power"] = ms.Weight(DiscreteFunction(grid, np.outer(px, py)))
    return out


def _rng(master: int, *labels) -> np.random.Generator:
    # stable across processes (builtin hash is salted per interpreter)
    key = [master] + [zlib.crc32(repr(l).encode()) for l in labels]
    return np.random.default_rng(np.random.SeedSequence(key))


# A sweep cell draws and evaluates its samples in chunks along a leading
# sample axis, sized so that no temporary holds more than about this many
# float64 elements.
SAMPLE_CHUNK = 1 << 15


def _draws(rng: np.random.Generator, n_samples: int, shape: tuple, per_sample: int):
    """Standard normal inputs of `n_samples` samples of `shape`, in chunks
    along a leading sample axis, sized for temporaries of `per_sample`
    elements per sample.  A generator's normal stream does not depend on
    how the draws cut it, so the chunks in order equal one draw of `shape`
    per sample, element for element."""
    step = max(1, SAMPLE_CHUNK // per_sample)
    for start in range(0, n_samples, step):
        yield rng.standard_normal((min(step, n_samples - start),) + shape)


def _worst(worst: float, num: np.ndarray, den: np.ndarray, floor: float = 1e-12) -> float:
    """The larger of `worst` and the largest per-sample num/den over the
    samples whose den exceeds `floor`."""
    keep = den > floor
    return max(worst, float((num[keep] / den[keep]).max(initial=0.0)))


def _bilinear_sweep(U, rng, n_samples: int, exps, w1, w2, v3) -> float:
    """Worst ||U(f1, f2)||_{L^r(v3)} / (||f1||_{L^p(w1)} ||f2||_{L^q(w2)})
    over `n_samples` seeded normal pairs."""
    grid = U.grid
    p, q, r = exps
    worst = 0.0
    # an apply's temporaries are coefficient tables of under 4 cells' worth
    # per sample (one row per cube of each factor)
    for fs in _draws(rng, n_samples, (2,) + grid.shape, 4 * grid.shape[0] * grid.shape[1]):
        f1, f2 = DiscreteFunction(grid, fs[:, 0]), DiscreteFunction(grid, fs[:, 1])
        worst = _worst(worst, ms.lp_norm(U.apply(f1, f2), r, v3),
                       ms.lp_norm(f1, p, w1) * ms.lp_norm(f2, q, w2))
    return worst


def _exp_triple(pair) -> tuple[float, float, float]:
    p, q = pair
    return p, q, 1.0 / (1.0 / p + 1.0 / q)


def _dmo_inventory(grid, om, rng):
    yield "shift_k0", random_shift_operator(grid, om, (0, 0, 0), (0, 0, 0), (3, 3), rng)
    yield "shift_k1", random_shift_operator(grid, om, (0, 1, 0), (1, 0, 0), (1, 2), rng)
    yield "partial", random_partial_paraproduct(grid, om, (1, 0, 0), rng=rng)
    yield "full", random_full_paraproduct(grid, om, (3, 3), rng)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def identity_suite(config: ExperimentConfig) -> Report:
    """Exact identities: completeness of the Haar calculus, the projection
    collapse, product expansions and commutator decompositions."""
    grid = config.grid()
    rep = Report("identity", config.seed)
    tol = config.tolerance
    n_light = max(config.samples, 10)
    for s in range(n_light):
        rng = _rng(config.seed, "identity", s)
        f = grid.random(rng)
        om = sample_shift(grid, rng)
        C = haar_coefficients(f, om)
        err = abs(float((np.abs(C) ** 2).sum()) - f.pair(f)) / max(f.pair(f), 1e-12)
        rep.add("parseval", "all-shifts", s, err, tol)
        j1 = int(rng.integers(0, grid.axes[0].levels + 1))
        j2 = int(rng.integers(0, grid.axes[1].levels + 1))
        proj = truncated_projection(f, (j1, j2), om)
        back = truncated_projection(proj, (j1, j2), om)
        rep.add("collapse-idempotent", f"j{j1}{j2}", s, np.abs(proj.values - back.values).max(), tol)
        b = grid.random(rng)
        l1 = int(rng.integers(0, grid.axes[0].levels))
        l2 = int(rng.integers(0, grid.axes[1].levels))
        c1 = DyadicCube(grid.axes[0], l1, (int(rng.integers(0, 1 << l1)),), om.shift1)
        c2 = DyadicCube(grid.axes[1], l2, (int(rng.integers(0, 1 << l2)),), om.shift2)
        for tag, out in (
            ("expand-bipar", com.expand_bipar(b, f, c1, c2, om)),
            ("expand-onepar1", com.expand_onepar(b, f, c1, c2, 0, om)),
            ("expand-onepar2", com.expand_onepar(b, f, c1, c2, 1, om)),
            ("expand-none", com.expand_none(b, f, c1, c2)),
        ):
            scale = max(1.0, abs(out["lhs"]))
            rep.add(tag, f"{l1}{l2}", s, abs(out["lhs"] - out["rhs"]) / scale, tol)
    # commutator decomposition vs definition: all nine patterns and both
    # paraproduct families at a handful of seeded inputs
    for s in range(4):
        rng = _rng(config.seed, "comm", s)
        om = GridShift.zero(grid)
        b = grid.random(rng)
        f1, f2, f3 = (grid.random(rng) for _ in range(3))
        for o1 in (1, 2, 3):
            for o2 in (1, 2, 3):
                S = random_shift_operator(grid, om, (0, 1, 0), (1, 0, 0), (o1, o2), rng)
                d = com.commutator_form_direct(b, S, 1, f1, f2, f3)
                e = com.commutator_form_decomposed(b, S, 1, f1, f2, f3)
                rep.add("commutator-shift", f"p{o1}{o2}", s, abs(d - e) / max(1.0, abs(d)), tol)
        P = random_partial_paraproduct(grid, om, (1, 0, 0), rng=rng)
        F = random_full_paraproduct(grid, om, (3, 3), rng)
        for tag, U in (("commutator-partial", P), ("commutator-full", F)):
            d = com.commutator_form_direct(b, U, 2, f1, f2, f3)
            e = com.commutator_form_decomposed(b, U, 2, f1, f2, f3)
            rep.add(tag, "slot2", s, abs(d - e) / max(1.0, abs(d)), tol)
        S = random_shift_operator(grid, om, (0, 0, 1), (0, 1, 0), (2, 3), rng)
        b2 = grid.random(rng)
        d = com.iterated_form_direct(b2, b, S, f1, f2, f3)
        e = com.iterated_form_decomposed(b2, b, S, f1, f2, f3)
        rep.add("commutator-iterated", "shift", s, abs(d - e) / max(1.0, abs(d)), tol)
    return rep


def representation_suite(config: ExperimentConfig, n_tensors: int = 50) -> Report:
    """Reconstruction of random and kernel-generated forms, the averaged
    identity, round trips and paraproduct extraction consistency."""
    from .representation import KernelTensor, averaged_reconstruction, decompose

    grid = config.grid()
    rep = Report("representation", config.seed)
    tol = config.tolerance
    for s in range(n_tensors):
        rng = _rng(config.seed, "tensor", s)
        T = KernelTensor.random(grid, rng)
        om = sample_shift(grid, rng)
        dec = decompose(T, om)
        rep.add("reconstruction", "random", s, dec.residual_on_haar_triples(), tol)
    R = KernelTensor.from_kernel(grid, tensor_riesz(1, 1))
    om = sample_shift(grid, _rng(config.seed, "riesz"))
    decR = decompose(R, om)
    rep.add("reconstruction", "riesz", 0, decR.residual_on_haar_triples(), tol)
    small = TorusGrid.make(2, tuple(config.dims))
    T2 = KernelTensor.random(small, _rng(config.seed, "avg"))
    avg = averaged_reconstruction(T2, sample_count=None)
    rep.add("averaged-enumeration", "L2", 0, avg["residual"], tol)
    # round trips from each model operator family
    rng = _rng(config.seed, "roundtrip")
    om0 = GridShift.zero(grid)
    f1, f2, f3 = (grid.random(rng) for _ in range(3))
    for name, U in _dmo_inventory(grid, om0, rng):
        TU = KernelTensor.from_operator(U)
        decU = decompose(TU, om0)
        resid = decU.residual_on_haar_triples()
        rep.add("roundtrip-residual", name, 0, resid, tol)
        gap = abs(decU.total_form(f1, f2, f3) - U.form(f1, f2, f3))
        rep.add("roundtrip-form", name, 0, gap / max(1.0, abs(U.form(f1, f2, f3))), tol)
        probe = paraproduct_freeness_probe(U)
        tables = decU.full_paraproduct_tables()
        extracted = max(np.abs(tbl["lam"]).max() for tbl in tables.values())
        if probe["max_full"] < tol:
            rep.add("probe-free-extraction", name, 0, extracted, tol)
    # object-level emission consistency at the small scale
    gridS = TorusGrid.make(2, tuple(config.dims))
    TS = KernelTensor.random(gridS, _rng(config.seed, "objects"))
    decS = decompose(TS, GridShift.zero(gridS))
    g1, g2, g3 = (gridS.random(_rng(config.seed, "objf", i)) for i in range(3))
    total = sum(r["size"] * r["operator"].form(g1, g2, g3)
                for r in decS.extracted_shift_families())
    total += sum(r["size"] * r["operator"].form(g1, g2, g3)
                 for r in decS.extracted_partial_paraproducts())
    total += sum(sz * op.form(g1, g2, g3) for _, op, sz in decS.extracted_full_paraproducts())
    want = decS._eval_hat(decS.exportable_hat(), g1, g2, g3)
    rep.add("object-emission", "L2", 0, abs(total - want) / max(1.0, abs(want)), tol)
    return rep


def coefficient_suite(config: ExperimentConfig) -> Report:
    """Decay-certified coefficient caps across resolutions for smooth kernels."""
    from .representation import KernelTensor, decompose

    goldens = load_goldens()
    rep = Report("coefficients", config.seed)
    for L in (2, 3, min(4, config.level + 1)):
        grid = TorusGrid.make(L, tuple(config.dims))
        T = KernelTensor.from_kernel(grid, tensor_riesz(1, 1))
        dec = decompose(T, GridShift.zero(grid))
        srep = dec.shift_coefficient_report()
        rep.add("shift-cap-nested", f"L{L}", 0, srep["certified"]["nested"],
                _bound(goldens, "coeff/nested"))
        rep.add("shift-cap-separated", f"L{L}", 0, srep["certified"]["separated"],
                _bound(goldens, "coeff/separated"))
        prep = dec.partial_symbol_report()
        rep.add("partial-symbol-cap", f"L{L}", 0, prep["max_ratio"],
                _bound(goldens, "coeff/partial"))
    return rep


def weighted_suite(config: ExperimentConfig, seeds_per_cell: int = 1000) -> Report:
    """Norm-inequality sweeps for the three operator families, the expansion
    operators, the adapted maximal function and the square-function lower
    bounds, against golden quantile curves.  Each sweep cell evaluates its
    seeded samples as stacks along a leading sample axis."""
    grid = config.grid()
    n_cells = grid.shape[0] * grid.shape[1]
    goldens = load_goldens()
    rep = Report("weighted", config.seed)
    weights = weight_catalog(grid)
    om = GridShift.zero(grid)
    ops = {
        "shift": random_shift_operator(grid, om, (0, 1, 0), (1, 0, 0), (2, 3),
                                       _rng(config.seed, "op", "shift")),
        "partial": random_partial_paraproduct(grid, om, (1, 0, 0),
                                              rng=_rng(config.seed, "op", "partial")),
        "full": random_full_paraproduct(grid, om, (3, 3), _rng(config.seed, "op", "full")),
    }
    for fam, U in ops.items():
        for pair in config.exponents:
            p, q, r = _exp_triple(pair)
            for wname in config.weights:
                if fam == "full" and wname != "unit":
                    continue  # generic symbols carry only the unweighted bound
                w1 = weights[wname]
                w2 = weights[wname]
                v3 = ms.Weight(DiscreteFunction(grid, w1.values ** (r / p) * w2.values ** (r / q)))
                worst = _bilinear_sweep(U, _rng(config.seed, "sweep", fam, wname, p, q),
                                        seeds_per_cell, (p, q, r), w1, w2, v3)
                cell = f"p{p:g}_q{q:g}_{wname}"
                rep.add(f"weighted-{fam}", cell, config.seed, worst,
                        _bound(goldens, f"weighted/{fam}/{cell}"))
    # tensor-symbol full paraproducts admit weighted bounds
    rngT = _rng(config.seed, "tensorfull")
    b1 = np.cumsum(rngT.standard_normal(grid.shape[0]))
    b2 = np.cumsum(rngT.standard_normal(grid.shape[1]))
    from .core import outer as _outer

    Ft = FullParaproduct.from_symbol(_outer(grid, b1, b2), om, (3, 3))
    size = Ft.coefficient_report().family_value
    if size > 0:
        Ft = FullParaproduct(grid, om, (3, 3), Ft.lam / size)
    for pair in config.exponents:
        p, q, r = _exp_triple(pair)
        for wname in config.weights[:3]:
            w1 = weights[wname]
            v3 = ms.Weight(DiscreteFunction(grid, w1.values ** (r / p) * w1.values ** (r / q)))
            worst = _bilinear_sweep(Ft, _rng(config.seed, "sweeptf", wname, p, q),
                                    seeds_per_cell // 4, (p, q, r), w1, w1, v3)
            cell = f"p{p:g}_q{q:g}_{wname}"
            rep.add("weighted-tensorfull", cell, config.seed, worst,
                    _bound(goldens, f"weighted/tensorfull/{cell}"))
    # expansion operators and the adapted maximal function (linear sweeps)
    for wname in config.weights[:3]:
        w = weights[wname]
        for p in (4 / 3, 2.0, 4.0):
            worstA = 0.0
            worstM = 0.0
            rng = _rng(config.seed, "lin", wname, p)
            # sized to the adapted maximal function's window plan, n_cells**2 (window,
            # cell) pairs per sample on 1-d factors, which it walks in runs of STATS_CHUNK
            for bf in _draws(rng, max(seeds_per_cell // 10, 20), (2,) + grid.shape, n_cells**2):
                b = DiscreteFunction(grid, bf[:, 0])
                b = b * (1.0 / np.maximum(ms.bmo_norm(b, "little"), 1e-12))[:, None, None]
                f = DiscreteFunction(grid, bf[:, 1])
                den = ms.lp_norm(f, p, w)
                outs = [com.paraproduct_bifactor(kind, b, f, om) for kind in (1, 4, 6, 8)]
                outs += [com.paraproduct_onefactor(kind, 0, b, f, om) for kind in (1, 2)]
                for out in outs:
                    worstA = _worst(worstA, ms.lp_norm(out, p, w), den)
                mb = com.AdaptedMaximal(b, "rect").apply(f)
                worstM = _worst(worstM, ms.lp_norm(mb, p, w), den)
            rep.add("weighted-expansion", f"p{p:g}_{wname}", config.seed, worstA,
                    _bound(goldens, f"weighted/expansion/p{p:g}_{wname}"))
            rep.add("weighted-adaptedmax", f"p{p:g}_{wname}", config.seed, worstM,
                    _bound(goldens, f"weighted/adaptedmax/p{p:g}_{wname}"))
    # square-function lower bounds across the weight family; the ratio curve
    # is indexed by the measured slice characteristics
    for wname in config.weights:
        w = weights[wname]
        char = max(ms.ainfty_characteristic(w, "axis1"), ms.ainfty_characteristic(w, "axis2"))
        worst = 0.0
        rng = _rng(config.seed, "lsf", wname)
        # the square functions hold a few one-cell-per-sample arrays
        for fs in _draws(rng, max(seeds_per_cell // 10, 20), grid.shape, 4 * n_cells):
            out = ms.lower_sf_check(DiscreteFunction(grid, fs), w, 2.0)
            worst = max(worst, float(np.max(list(out.values()))))
        rep.add("lower-sf-char", wname, config.seed, char, None)
        rep.add("lower-sf", wname, config.seed, worst, _bound(goldens, f"lowersf/{wname}"))
    # sparse domination of the one-parameter paraproduct form
    worst = 0.0
    rng = _rng(config.seed, "sparse")
    axis = grid.axes[0]
    # rows of b, g1, g2, g3 per sample; the stopping sweep holds their
    # averages over one level at a time
    for rows in _draws(rng, seeds_per_cell, (4, axis.n_cells), 4 * axis.n_cells):
        out = sparse_dominate_paraproduct(*np.moveaxis(rows, 1, 0), axis)
        worst = _worst(worst, out["lhs"], out["rhs"], 0.0)
    rep.add("sparse-domination", "axis1", config.seed, worst, _bound(goldens, "sparse/ratio"))
    return rep


def duality_suite(config: ExperimentConfig, instances: int = 1000) -> Report:
    """Coefficient duality bound over a seeded family with the density
    precondition; one frozen constant."""
    grid = config.grid()
    goldens = load_goldens()
    rep = Report("duality", config.seed)
    rng = _rng(config.seed, "duality")
    table = rect_table(grid, GridShift.zero(grid))
    # the instances, drawn in turn, by collection size k; each distinct mask
    # F and shift is kept once
    ids, a, b = np.zeros((instances, 10), dtype=np.intp), np.zeros((instances, 10)), np.zeros((instances, 10))
    Fs, oms, groups, cuts = [], [], {}, {}
    for s in range(instances):
        F = np.ones(grid.shape, dtype=bool)
        if s % 3 == 1:
            F[int(rng.integers(0, grid.shape[0])), :] = False
        elif s % 3 == 2:
            F[:, int(rng.integers(0, grid.shape[1]))] = False
        F = cuts.setdefault(F.tobytes(), F)
        om = GridShift(*(cuts.setdefault(ax, ax) for ax in sample_shift(grid, rng)))
        oms.append(cuts.setdefault(om, om))
        pool = np.flatnonzero(table.densities(F) >= 0.99)
        k = min(10, len(pool))
        ids[s, :k] = pool[rng.choice(len(pool), size=k, replace=False)]
        a[s, :k] = rng.standard_normal(k)
        b[s, :k] = rng.standard_normal(k)
        Fs.append(F)
        groups.setdefault(k, []).append(s)
    worst = 0.0
    for k, idx in groups.items():
        rows = idx if len(idx) < instances else slice(None)  # a view when one size holds them all
        out = com.coefficient_duality_check([Fs[i] for i in idx], ids[rows, :k], a[rows, :k], b[rows, :k],
                                            [oms[i] for i in idx], grid, density=0.99)
        worst = _worst(worst, out["lhs"], out["rhs"], 0.0)
    rep.add("duality-ratio", "family", config.seed, worst, _bound(goldens, "duality/ratio"))
    return rep


def _unit_little_bmo(grid: TorusGrid, symbols: list[DiscreteFunction]) -> list[DiscreteFunction]:
    """The symbols scaled to little BMO norm 1 by one stacked norm call."""
    if not symbols:
        return []
    bs = DiscreteFunction(grid, np.stack([b.values for b in symbols]))
    scale = 1.0 / np.maximum(ms.bmo_norm(bs, "little"), 1e-12)
    return [DiscreteFunction(grid, v) for v in bs.values * scale[:, None, None]]


def commutator_suite(config: ExperimentConfig, seeds_per_cell: int = 40) -> Report:
    """Norm growth of first-order and iterated commutators in the complexity,
    including an averaged quasi-target cell."""
    grid = config.grid()
    goldens = load_goldens()
    rep = Report("commutator", config.seed)
    om = GridShift.zero(grid)
    p, q, r = 4.0, 4.0, 2.0
    rprime = r / (r - 1.0)
    maxc = grid.axes[0].levels - 1
    for cx in range(maxc + 1):
        kv = (0, cx, 0)
        vv = (cx, 0, 0)
        worst1 = 0.0
        worst2 = 0.0
        rng = _rng(config.seed, "cgrow", cx)
        # per seed in turn: the operator, then b, b2, f1, f2, f3
        draws = [(random_shift_operator(grid, om, kv, vv, (3, 3), rng), *(grid.random(rng) for _ in range(5)))
                 for _ in range(seeds_per_cell)]
        units = _unit_little_bmo(grid, [b for d in draws for b in d[1:3]])
        for (S, _, _, f1, f2, f3), b, b2 in zip(draws, units[::2], units[1::2]):
            den = (ms.lp_norm(f1, p) * ms.lp_norm(f2, q) * ms.lp_norm(f3, rprime))
            worst1 = max(worst1, abs(com.commutator_form_direct(b, S, 1, f1, f2, f3)) / den)
            worst2 = max(worst2, abs(com.iterated_form_direct(b2, b, S, f1, f2, f3)) / den)
        rep.add("commutator-growth-1", f"c{cx}", config.seed, worst1 / (1.0 + cx),
                _bound(goldens, "commutator/first"))
        rep.add("commutator-growth-2", f"c{cx}", config.seed, worst2 / (1.0 + cx) ** 2,
                _bound(goldens, "commutator/iterated"))
    # averaged operators reach below the Banach range
    rng = _rng(config.seed, "cavg")
    worst = 0.0
    p2, q2, r2 = 4 / 3, 4.0, 1.0
    draws = []
    for s in range(seeds_per_cell // 2):
        shifts = [sample_shift(grid, rng) for _ in range(3)]
        ops = [random_shift_operator(grid, o, (0, 1, 0), (0, 0, 0), (3, 3), rng) for o in shifts]
        draws.append((ops, *(grid.random(rng) for _ in range(3))))
    for (ops, _, f1, f2), b in zip(draws, _unit_little_bmo(grid, [d[1] for d in draws])):
        acc = grid.zeros()
        for U in ops:
            acc = acc + (1.0 / len(ops)) * com.commutator_apply(b, U, 1, f1, f2)
        worst = max(worst, ms.lp_norm(acc, r2) / (ms.lp_norm(f1, p2) * ms.lp_norm(f2, q2)))
    rep.add("commutator-averaged-quasi", "r1", config.seed, worst,
            _bound(goldens, "commutator/averaged"))
    return rep


def lower_bound_suite(config: ExperimentConfig) -> Report:
    """Median-method chains on witnesses and the certified ratio band."""
    from .lower_bounds import BilinearKernel, bmo_lower_bound, pointwise_chain_check

    goldens = load_goldens()
    rep = Report("lowerbound", config.seed)
    grid = config.grid()
    K = BilinearKernel(grid, tensor_riesz(1, 1))
    symbols = _bmo_symbols(grid, config.seed)
    om = GridShift.zero(grid)
    fine = grid.axes[0].levels
    for name, b in symbols.items():
        wrect = DyadicRectangle(
            DyadicCube(grid.axes[0], fine, (1,), om.shift1),
            DyadicCube(grid.axes[1], fine, (2,), om.shift2),
        )
        for (k, g1, g2) in ((1, 1, 0), (1, 0, 1), (2, 1, 1)):
            chain = pointwise_chain_check(K, b, wrect, 1.0, k, g1, g2)
            bad = chain["cells_checked"] - chain["cells_ok"]
            rep.add("median-chain", f"{name}_k{k}g{g1}{g2}", config.seed, float(bad), 0.0)
            rep.add("median-halves", f"{name}_k{k}", config.seed,
                    float(chain["half_high"] >= 0.5 and chain["half_low"] >= 0.5), None)
    ratios = {}
    for L in (config.level, config.level + 1):
        gridL = TorusGrid.make(L, tuple(config.dims))
        KL = BilinearKernel(gridL, tensor_riesz(1, 1))
        bL = _bmo_symbols(gridL, config.seed)["log"]
        for (k, g1, g2) in ((1, 1, 0), (1, 0, 1), (2, 1, 1)):
            out = bmo_lower_bound(KL, bL, k, 1.0, g1, g2, C0=1.0, max_rect_cells=8,
                                  seed=config.seed)
            ratios[(L, k, g1, g2)] = out["ratio"]
            rep.add("gamma-ratio", f"L{L}_k{k}g{g1}{g2}", config.seed, out["ratio"],
                    _bound(goldens, "lowerbound/ratio"))
    for (k, g1, g2) in ((1, 1, 0), (1, 0, 1), (2, 1, 1)):
        drift = ratios[(config.level + 1, k, g1, g2)] / max(ratios[(config.level, k, g1, g2)], 1e-12)
        rep.add("gamma-band-drift", f"k{k}g{g1}{g2}", config.seed, max(drift, 1.0 / max(drift, 1e-12)),
                _bound(goldens, "lowerbound/drift"))
    return rep


def _bmo_symbols(grid: TorusGrid, seed: int) -> dict[str, DiscreteFunction]:
    n1, n2 = grid.shape
    x = (np.arange(n1) + 0.5) / n1
    y = (np.arange(n2) + 0.5) / n2
    dx = np.minimum(np.abs(x - 0.5), 1 - np.abs(x - 0.5))
    dy = np.minimum(np.abs(y - 0.5), 1 - np.abs(y - 0.5))
    step = np.ones(grid.shape)
    step[: n1 // 2, :] = -1.0
    rng = _rng(seed, "symbols")
    out = {
        "step": DiscreteFunction(grid, step),
        "log": DiscreteFunction(grid, np.log(1.0 / (dx[:, None] + dy[None, :] + 1e-9))),
        "tensorlog": DiscreteFunction(grid, np.add.outer(np.log(1 / (dx + 1e-9)), np.log(1 / (dy + 1e-9)))),
        "checker": DiscreteFunction(grid, np.outer(np.sign(np.sin(4 * np.pi * x)) + 1.1,
                                                   np.sign(np.cos(2 * np.pi * y)) + 1.3)),
        "random": grid.random(rng),
    }
    return out


def mixed_norm_suite(config: ExperimentConfig, seeds_per_cell: int = 200) -> Report:
    """Mixed-norm sweeps for composites free of full paraproducts, plus the
    exact agreement of equal-exponent mixed norms."""
    grid = config.grid()
    goldens = load_goldens()
    rep = Report("mixednorm", config.seed)
    om = GridShift.zero(grid)
    rng0 = _rng(config.seed, "mixcomposite")
    parts = [
        (1.0, random_shift_operator(grid, om, (0, 1, 0), (1, 0, 0), (3, 3), rng0)),
        (0.5, random_shift_operator(grid, om, (1, 0, 0), (0, 0, 1), (2, 1), rng0)),
        (0.25, random_partial_paraproduct(grid, om, (1, 0, 0), rng=rng0)),
    ]
    probe = max(paraproduct_freeness_probe(U)["max_full"] for _, U in parts)
    rep.add("composite-parafree", "probe", config.seed, probe, config.tolerance)
    cells = [((4.0, 2.0), (4.0, 2.0)), ((2.0, 4.0), (2.0, 2.0)), ((4.0, 4.0), (4.0, 4.0))]
    for (p1, p2), (q1, q2) in cells:
        r1 = 1.0 / (1.0 / p1 + 1.0 / q1)
        r2 = 1.0 / (1.0 / p2 + 1.0 / q2)
        worst = 0.0
        rng = _rng(config.seed, "mix", p1, p2, q1, q2)
        for s in range(seeds_per_cell):
            f1, f2 = grid.random(rng), grid.random(rng)
            out = grid.zeros()
            for wgt, U in parts:
                out = out + wgt * U.apply(f1, f2)
            num = ms.mixed_norm(out, (r1, r2))
            den = ms.mixed_norm(f1, (p1, p2)) * ms.mixed_norm(f2, (q1, q2))
            if den > 1e-12:
                worst = max(worst, num / den)
        cell = f"p{p1:g}.{p2:g}_q{q1:g}.{q2:g}"
        rep.add("mixed-ratio", cell, config.seed, worst, _bound(goldens, f"mixed/{cell}"))
    rng = _rng(config.seed, "mixexact")
    for s in range(20):
        f = grid.random(rng)
        for p in (2 / 3, 1.0, 2.0, 4.0):
            gap = abs(ms.mixed_norm(f, (p, p)) - ms.lp_norm(f, p))
            rep.add("mixed-equals-plain", f"p{p:g}", s, gap, config.tolerance)
    return rep


def empty_suite(config: ExperimentConfig) -> Report:
    return Report("empty", config.seed)


SUITES = {
    "empty": empty_suite,
    "identity": identity_suite,
    "representation": representation_suite,
    "coefficients": coefficient_suite,
    "weighted": weighted_suite,
    "duality": duality_suite,
    "commutator": commutator_suite,
    "lowerbound": lower_bound_suite,
    "mixednorm": mixed_norm_suite,
}


def run_suite(config: ExperimentConfig) -> Report:
    if config.suite not in SUITES:
        raise ConfigError(f"unknown suite {config.suite!r}; have {sorted(SUITES)}")
    config._check_dims()  # the suite may have been set after construction
    return SUITES[config.suite](config)


# ---------------------------------------------------------------------------
# golden generation
# ---------------------------------------------------------------------------

def regenerate_goldens(path: str | None = None, seed: int = 7) -> dict:
    """Measure every regression quantity with the suite seeds and freeze the
    bounds with the safety factor."""
    cfg = ExperimentConfig(seed=seed)
    entries: dict[str, dict] = {}

    def freeze(key, measured, floor=1e-6):
        entries[key] = {"measured": measured, "bound": max(measured, floor) * GOLDEN_SAFETY,
                        "safety": GOLDEN_SAFETY}

    wrep = weighted_suite(cfg)
    for row in wrep.rows:
        fam = row.experiment.replace("weighted-", "")
        if row.experiment.startswith("weighted-"):
            freeze(f"weighted/{fam}/{row.cell}", row.value)
        elif row.experiment == "lower-sf":
            freeze(f"lowersf/{row.cell}", row.value)
        elif row.experiment == "sparse-domination":
            freeze("sparse/ratio", row.value)
    drep = duality_suite(cfg)
    freeze("duality/ratio", drep.rows[0].value)
    crep = commutator_suite(cfg)
    first = max(r.value for r in crep.rows if r.experiment == "commutator-growth-1")
    second = max(r.value for r in crep.rows if r.experiment == "commutator-growth-2")
    avg = max(r.value for r in crep.rows if r.experiment == "commutator-averaged-quasi")
    freeze("commutator/first", first)
    freeze("commutator/iterated", second)
    freeze("commutator/averaged", avg)
    lrep = lower_bound_suite(cfg)
    gr = max(r.value for r in lrep.rows if r.experiment == "gamma-ratio")
    dr = max(r.value for r in lrep.rows if r.experiment == "gamma-band-drift")
    freeze("lowerbound/ratio", gr)
    freeze("lowerbound/drift", dr)
    mrep = mixed_norm_suite(cfg)
    for row in mrep.rows:
        if row.experiment == "mixed-ratio":
            freeze(f"mixed/{row.cell}", row.value)
    corep = coefficient_suite(cfg)
    for key, exp in (("coeff/nested", "shift-cap-nested"),
                     ("coeff/separated", "shift-cap-separated"),
                     ("coeff/partial", "partial-symbol-cap")):
        freeze(key, max(r.value for r in corep.rows if r.experiment == exp))
    out_path = path or _golden_path()
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    with open(out_path, "w") as fp:
        json.dump(entries, fp, indent=1, sort_keys=True)
    return entries
