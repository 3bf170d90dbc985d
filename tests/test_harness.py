"""Config handling, report determinism, CLI plumbing."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dyadlab import cli
from dyadlab.harness import (
    SUITES,
    ConfigError,
    ExperimentConfig,
    Report,
    duality_suite,
    emit_plotdata,
    identity_suite,
    load_goldens,
    run_suite,
    weight_catalog,
)
from dyadlab.core import GridShift, TorusGrid, all_rectangles, rect_table, sample_shift
from dyadlab.measures import ap_characteristic
from dyadlab.representation import KernelTensor


def small_config(**kw):
    base = dict(suite="identity", level=2, seed=3, samples=5)
    base.update(kw)
    return ExperimentConfig(**base)


def test_config_validates_exponent_triples():
    with pytest.raises(ConfigError):
        ExperimentConfig(exponents=[[1.0, 2.0]])
    cfg = ExperimentConfig(exponents=[[4 / 3, 4.0]])
    p, q = cfg.exponents[0]
    assert abs(1 / p + 1 / q - 1.0) < 1e-12  # r = 1 here
    # any admissible pair keeps the derived target above 1/2
    assert ExperimentConfig(exponents=[[1.05, 1.05]]).exponents


def test_config_rejects_bad_format():
    with pytest.raises(ConfigError):
        ExperimentConfig(fmt="xml")


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"suite": "empty", "level": 2, "seed": 11}))
    cfg = ExperimentConfig.from_file(str(path))
    assert cfg.suite == "empty" and cfg.seed == 11
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"suite": "empty", "bogus_key": 1}))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_file(str(bad))


def test_empty_suite_is_trivially_green():
    rep = run_suite(small_config(suite="empty"))
    assert rep.rows == [] and rep.all_passed


def test_unknown_suite_raises():
    cfg = small_config()
    cfg.suite = "nope"
    with pytest.raises(ConfigError):
        run_suite(cfg)


def test_identity_suite_deterministic_bytes():
    rep1 = identity_suite(small_config())
    rep2 = identity_suite(small_config())
    assert rep1.to_csv() == rep2.to_csv()
    assert rep1.to_json() == rep2.to_json()
    assert rep1.all_passed


def test_report_write_and_emit_plotdata(tmp_path):
    rep = run_suite(small_config(suite="empty"))
    rep.add("demo", "cellA", 0, 1.5, 2.0)
    rep.add("demo", "cellB", 1, 0.5, 2.0)
    path = rep.write(str(tmp_path), "csv")
    text = open(path).read()
    assert text.splitlines()[1] == Report.HEADER
    table = emit_plotdata(rep, "cell", "value")
    lines = table.splitlines()
    assert lines[0] == "cell,value"
    assert lines[1].startswith("cellA,")
    with pytest.raises(KeyError):
        emit_plotdata(rep, "nonsense", "value")


def test_emit_plotdata_empty_report_header_only():
    rep = Report("empty", 0)
    table = emit_plotdata(rep, "cell", "value")
    assert table == "cell,value\n"


def test_weight_catalog_characteristics_span_range():
    grid = TorusGrid.make(3)
    cat = weight_catalog(grid)
    chars = {name: ap_characteristic(w, 2.0) for name, w in cat.items()}
    assert abs(chars["unit"] - 1.0) < 1e-12
    assert chars["step400"] > 100.0
    assert chars["step4"] < chars["step20"] < chars["step400"]


def test_goldens_present_and_sound():
    goldens = load_goldens()
    assert goldens, "golden file must ship with the package"
    for key, entry in goldens.items():
        assert entry["bound"] >= entry["measured"], key
        assert entry["safety"] == 5.0


def test_goldens_parsed_once_read_only_and_reread_when_rewritten(tmp_path, monkeypatch):
    from dyadlab import harness

    path = tmp_path / "goldens.json"
    path.write_text(json.dumps({"duality/ratio": {"measured": 1.0, "bound": 5.0, "safety": 5.0}}))
    monkeypatch.setattr(harness, "_golden_path", lambda: str(path))
    first = load_goldens()
    assert load_goldens() is first
    with pytest.raises(TypeError):
        first["duality/ratio"]["bound"] = 0.0
    with pytest.raises(TypeError):
        first["new"] = {}
    # a rewrite by regenerate_goldens is read again (every suite replaced by
    # one report holding the rows the regeneration reads)
    rows = ("duality-ratio", "commutator-growth-1", "commutator-growth-2", "commutator-averaged-quasi",
            "gamma-ratio", "gamma-band-drift", "shift-cap-nested", "shift-cap-separated", "partial-symbol-cap")
    fake = Report("fake", 7)
    for exp in rows:
        fake.add(exp, "cell", 7, 2.0, None)
    for name in ("weighted_suite", "duality_suite", "commutator_suite", "lower_bound_suite",
                 "mixed_norm_suite", "coefficient_suite"):
        monkeypatch.setattr(harness, name, lambda cfg: fake)
    harness.regenerate_goldens(str(path))
    again = load_goldens()
    assert again is not first and again["duality/ratio"]["measured"] == 2.0
    assert first["duality/ratio"]["measured"] == 1.0


def _run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "dyadlab.cli", *argv],
        capture_output=True, text=True,
    )


def test_cli_verify_identities_small(tmp_path):
    out = _run_cli("--grid-level", "2", "--samples", "4", "--seed", "1",
                   "--out", str(tmp_path), "verify-identities")
    assert out.returncode == 0, out.stderr
    assert (tmp_path / "identity.csv").exists()


def test_cli_suite_empty_and_plotdata(tmp_path):
    out = _run_cli("--grid-level", "2", "--out", str(tmp_path), "--format", "json",
                   "suite", "empty")
    assert out.returncode == 0
    report = tmp_path / "empty.json"
    assert report.exists()
    out2 = _run_cli("--out", str(tmp_path), "emit-plotdata", str(report), "--x", "cell")
    assert out2.returncode == 0, out2.stderr
    assert (tmp_path / "plotdata.csv").exists()


ONE_D_SUITES = ("identity", "representation", "coefficients", "weighted", "commutator",
                "lowerbound", "mixednorm")
EMPTY = ("suite", "empty")


@pytest.mark.parametrize("config, flags, command", [
    (json.dumps({"exponents": [[1.0, 2.0]]}), (), EMPTY),
    (json.dumps({"exponents": [[2.0]]}), (), EMPTY),
    ("not json {", (), EMPTY),
    (None, ("--seed", "-1"), EMPTY),
    (None, ("--grid-level", "1"), EMPTY),
    *[(json.dumps({"dims": [2, 1]}), ("--grid-level", "2"), ("suite", name))
      for name in ONE_D_SUITES],
    (None, ("--grid-level", "2"), ("decompose", "--kernel-file", "<garbage>")),
    (json.dumps({"dims": [2, 1]}), ("--grid-level", "2"), ("decompose",)),
    (None, (), ("decompose", "--kernel-file", "<dims21>")),
    (json.dumps({"weights": ["unit", "nosuch"]}), (), ("suite", "weighted")),
    (None, ("--config", "<dir>"), EMPTY),
    (None, ("--grid-level", "2"), ("decompose", "--kernel-file", "<dir>")),
    (None, (), ("emit-plotdata", "<dir>")),
], ids=["bad-exponents", "short-pair", "not-json", "negative-seed", "one-level",
        *[f"dims21-{name}" for name in ONE_D_SUITES], "garbage-kernel-file", "dims21-decompose",
        "dims21-kernel-file", "unknown-weight", "config-dir", "kernel-file-dir", "plotdata-dir"])
def test_cli_config_error_exit_code(tmp_path, config, flags, command):
    files = {"<garbage>": tmp_path / "garbage.dyk", "<dims21>": tmp_path / "dims21.dyk",
             "<dir>": tmp_path / "a_directory"}
    files["<garbage>"].write_bytes(bytes(range(7, 256)))
    files["<dir>"].mkdir()
    argv = [str(files.get(f, f)) for f in flags]
    if config is not None:
        bad = tmp_path / "bad.json"
        bad.write_text(config)
        argv = ["--config", str(bad)] + argv
    if "<dims21>" in command:
        with open(files["<dims21>"], "wb") as fp:
            KernelTensor.random(TorusGrid.make(2, (2, 1)), np.random.default_rng(0)).dump(fp)
    out = _run_cli(*argv, *(str(files.get(c, c)) for c in command))
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    if command[0] == "decompose":  # no suite runs there, so none is to blame
        assert "identity" not in out.stderr


def test_cli_decompose_refuses_oversize_grid(tmp_path, monkeypatch, capsys):
    def allocate(*args, **kwargs):
        raise AssertionError("the kernel tensor was built")

    # a guard that fails lets the command reach the patched constructor,
    # which raises before anything is allocated
    monkeypatch.setattr(KernelTensor, "from_kernel", allocate)
    assert cli.main(["--grid-level", "5", "--out", str(tmp_path), "decompose"]) == 2
    assert "budget" in capsys.readouterr().err


# JSON values of every kind; integers stay at or below 3, so no fuzzed level
# is both valid and large
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-4, 3) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=2),
    max_leaves=5)
_NUMBER = st.integers(-4, 3) | st.floats()
_FIELDS = {
    "suite": st.sampled_from(sorted(SUITES)) | _JSON,
    "level": _JSON,
    "dims": st.lists(st.integers(-1, 3), max_size=3) | _JSON,
    "seed": st.integers(-(2**70), 2**70) | _NUMBER | _JSON,
    "samples": st.integers(-2, 10**6) | _JSON,
    "exponents": st.lists(st.lists(_NUMBER | st.integers(2**1100, 2**1200), min_size=1,
                                   max_size=3), max_size=3) | _JSON,
    "weights": st.lists(st.sampled_from(["unit", "power", "nope"]) | _JSON, max_size=3) | _JSON,
    "tolerance": _NUMBER | _JSON,
    "out_dir": _JSON,
    "fmt": st.sampled_from(["csv", "json"]) | _JSON,
}
_CONFIGS = st.fixed_dictionaries({}, optional=_FIELDS) | st.dictionaries(
    st.sampled_from(sorted(_FIELDS)) | st.text(max_size=4), _JSON, max_size=4) | _JSON


@settings(max_examples=150, deadline=None)
@given(raw=_CONFIGS)
def test_cli_config_fuzz_exit_codes(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fp:
            json.dump(raw, fp)  # NaN and Infinity literals too
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = cli.main(["--config", path, "--out", tmp, "suite", "empty"])
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    seed = raw.get("seed") if isinstance(raw, dict) else None
    if isinstance(seed, float) or (isinstance(seed, int) and seed < 0):
        assert code == 2  # a seed is a non-negative integer


def test_config_dims_by_suite():
    # factors of dimension >= 2 only where no 1-d model operator is built
    for name in ("empty", "duality"):
        assert ExperimentConfig(suite=name, dims=[2, 1]).dims == [2, 1]
    for name in ONE_D_SUITES:
        with pytest.raises(ConfigError):
            ExperimentConfig(suite=name, dims=(1, 2))
    for dims in ((1,), (0, 1), ("1", 1), 2):
        with pytest.raises(ConfigError):
            ExperimentConfig(suite="empty", dims=dims)
    rep = duality_suite(small_config(suite="duality", dims=(2, 1)), instances=3)
    assert len(rep.rows) == 1 and rep.all_passed
    cfg = small_config(suite="empty", dims=(2, 1))
    cfg.suite = "mixednorm"  # set after the validation in the constructor
    with pytest.raises(ConfigError):
        run_suite(cfg)


def test_rect_densities_match_per_rectangle_means():
    # the duality pool: one density per rectangle id, in all_rectangles order
    rng = np.random.default_rng(4)
    for grid in (TorusGrid.make(2), TorusGrid.make(3), TorusGrid.make(3, (2, 1))):
        for om in (GridShift.zero(grid), sample_shift(grid, rng)):
            F = rng.random(grid.shape) > 0.2
            want = [F[r.index()].mean() for r in all_rectangles(grid, om)]
            assert np.array_equal(rect_table(grid, om).densities(F), want)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads the peak RSS from /proc")
def test_cli_mixednorm_level4_peak_memory(tmp_path):
    # the freeness probe contracts through each operator's gather plan; the
    # dense C x C x C kernel density it once built took the suite to about
    # 300 MB.  The child reports the peak of its own address space (VmHWM):
    # RUSAGE_CHILDREN here keeps the largest of every earlier child, and the
    # child's RUSAGE_SELF carries the spawning process's peak across exec.
    code = ("import sys; from dyadlab import cli;"
            f"rc = cli.main(['--grid-level', '4', '--out', {str(tmp_path)!r}, 'suite', 'mixednorm']);"
            "print(dict(line.split(':') for line in open('/proc/self/status'))['VmHWM']); sys.exit(rc)")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    peak_mb = int(res.stdout.split()[-2]) / 1024  # "<n> kB"
    assert peak_mb < 100, peak_mb


def test_cli_runs_as_package_module(tmp_path):
    out = subprocess.run([sys.executable, "-m", "dyadlab", "--grid-level", "2",
                          "--out", str(tmp_path), "suite", "empty"],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert (tmp_path / "empty.csv").exists()


def test_cli_names_each_failing_row(tmp_path, capsys):
    # at level 2 two commutator growth rows exceed their level-3 golden bounds
    assert cli.main(["--grid-level", "2", "--out", str(tmp_path), "suite", "commutator"]) == 1
    out, err = capsys.readouterr()
    assert out == f"commutator: 5 rows, 2 failures -> {tmp_path / 'commutator.csv'}\n"
    rows = [line.split(",") for line in (tmp_path / "commutator.csv").read_text().splitlines()[2:]]
    failed = [(exp, cell, float(value), float(bound)) for exp, cell, _, value, bound, ok in rows if ok == "0"]
    assert [(exp, cell) for exp, cell, *_ in failed] == [("commutator-growth-1", "c0"),
                                                          ("commutator-growth-2", "c0")]
    lines = err.splitlines()
    assert len(lines) == len(failed)
    for line, (exp, cell, value, bound) in zip(lines, failed):
        assert line == (f"commutator: FAILED {exp} {cell}: value {value!r}, bound {bound!r} "
                        f"(value/bound {value / bound:.4g})")
        assert value / bound > 1.1


def test_cli_unknown_kernel_exit_code(tmp_path):
    out = _run_cli("--grid-level", "2", "--out", str(tmp_path),
                   "decompose", "--kernel", "bogus")
    assert out.returncode == 2


def test_cli_riesz_component_out_of_range_exit_code(tmp_path, capsys):
    # components 1 and 2 are the two odd kernels; 7 names neither
    assert cli.main(["--grid-level", "2", "--out", str(tmp_path), "decompose", "--component-i", "7"]) == 2
    assert "component 7" in capsys.readouterr().err
    assert not (tmp_path / "decomposition.json").exists()


@pytest.mark.parametrize("text", ["not json {", json.dumps({"suite": "empty", "seed": 0})],
                         ids=["not-json", "no-rows"])
def test_cli_emit_plotdata_bad_report_exit_code(tmp_path, capsys, text):
    report = tmp_path / "report.json"
    report.write_text(text)
    assert cli.main(["--out", str(tmp_path), "emit-plotdata", str(report)]) == 2
    assert capsys.readouterr().err.startswith("input error: ")
    assert not (tmp_path / "plotdata.csv").exists()


@pytest.mark.parametrize("command", [("decompose",), ("suite", "duality")], ids=["decompose", "suite"])
@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
def test_cli_out_naming_a_file_exit_code(tmp_path, monkeypatch, capsys, command, under):
    # an --out that names a file, or a path under one, is a bad input: exit
    # 2 with a message, before any decomposition or suite runs
    def compute(*args, **kwargs):
        raise AssertionError("the command ran before checking its output directory")

    for name in ("decompose", "run_suite"):
        monkeypatch.setattr(cli, name, compute)
    monkeypatch.setattr(KernelTensor, "from_kernel", compute)
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    out = blocker / "sub" if under else blocker
    assert cli.main(["--grid-level", "2", "--out", str(out), *command]) == 2
    assert "is not a directory" in capsys.readouterr().err
    assert blocker.read_text() == ""


@pytest.mark.parametrize("command,taken", [
    (["decompose", "--export-families"], "shift_families.json"),
    (["decompose"], "decomposition.json"),
    (["decompose"], "fullpara_CB.json"),
    (["commutators"], "duality.csv"),
    (["suite", "duality"], "duality.csv"),
], ids=["decompose-families", "decompose-manifest", "decompose-fullpara", "commutators-second", "suite"])
def test_cli_output_file_taken_by_a_directory_exit_code(tmp_path, monkeypatch, capsys, command, taken):
    # an output file name that a directory takes is a bad input: exit 2
    # before anything is computed, with nothing written
    def compute(*args, **kwargs):
        raise AssertionError("the command ran before checking its output files")

    for name in ("decompose", "run_suite"):
        monkeypatch.setattr(cli, name, compute)
    monkeypatch.setattr(KernelTensor, "from_kernel", compute)
    (tmp_path / taken).mkdir()
    assert cli.main(["--grid-level", "2", "--out", str(tmp_path), *command]) == 2
    assert "is a directory" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == [taken]


def test_cli_decompose_runs(tmp_path):
    out = _run_cli("--grid-level", "2", "--out", str(tmp_path), "decompose")
    assert out.returncode == 0, out.stderr
    man = json.loads((tmp_path / "decomposition.json").read_text())
    assert man["residual"] <= 1e-10
    assert (tmp_path / "fullpara_AA.json").exists()


def test_cli_decompose_sign_kernel(tmp_path):
    # the component options are riesz's; the sign kernel is built without them
    out = _run_cli("--grid-level", "2", "--out", str(tmp_path), "decompose", "--kernel", "sign")
    assert out.returncode == 0, out.stderr
    man = json.loads((tmp_path / "decomposition.json").read_text())
    assert man["residual"] <= 1e-10


def test_identity_suite_deterministic_across_processes(tmp_path):
    # builtin hash salting must not leak into reports
    code = ("from dyadlab.harness import ExperimentConfig, identity_suite;"
            "import sys;"
            "rep = identity_suite(ExperimentConfig(suite='identity', level=2, seed=3, samples=4));"
            "sys.stdout.write(rep.to_csv())")
    outs = []
    for env_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=env_seed)
        res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, env=env)
        assert res.returncode == 0, res.stderr
        outs.append(res.stdout)
    assert outs[0] == outs[1]
