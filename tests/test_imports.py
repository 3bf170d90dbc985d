"""What the package imports, and when: the decomposer loads only when a
decomposition is built, the lower bounds only when they are used, scipy
never, and the suites that never decompose import nothing on their first
call."""

import json
import os
import re
import subprocess
import sys

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))


def _run(code: str) -> dict:
    """Run `code` in a fresh interpreter with PYTHONPATH=src; it prints one
    JSON object as its last line."""
    env = dict(os.environ, PYTHONPATH=SRC)
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.strip().splitlines()[-1])


def test_library_import_leaves_decomposer_unloaded():
    out = _run(
        "import json, sys\n"
        "import dyadlab, dyadlab.harness, dyadlab.lower_bounds\n"
        "loaded = {m: m in sys.modules for m in ('scipy', 'dyadlab.representation')}\n"
        "from dyadlab import decompose, KernelTensor\n"
        "from dyadlab import representation\n"
        "try:\n"
        "    dyadlab.no_such_name\n"
        "    missing = None\n"
        "except AttributeError as exc:\n"
        "    missing = str(exc)\n"
        "print(json.dumps({'loaded': loaded,\n"
        "                  'same': [decompose is representation.decompose,\n"
        "                           KernelTensor is representation.KernelTensor],\n"
        "                  'missing': missing}))\n")
    assert out["loaded"] == {"scipy": False, "dyadlab.representation": False}
    assert out["same"] == [True, True]
    assert out["missing"] is not None and "no_such_name" in out["missing"]


def test_package_cli_and_harness_leave_lower_bounds_unloaded():
    out = _run(
        "import json, sys\n"
        "import dyadlab, dyadlab.harness, dyadlab.cli\n"
        "loaded = 'dyadlab.lower_bounds' in sys.modules\n"
        "kernel = dyadlab.BilinearKernel\n"
        "print(json.dumps({'loaded': loaded,\n"
        "                  'same': kernel is dyadlab.lower_bounds.BilinearKernel}))\n")
    assert out == {"loaded": False, "same": True}


def test_suites_import_nothing_on_first_call():
    # a module loaded on first use would land inside the benchmark's timed run;
    # the set-up below draws nothing, so that numpy.random is not loaded for the suites
    out = _run(
        "import json, sys\n"
        "import numpy as np\n"
        "import dyadlab\n"
        "from dyadlab.core import DiscreteFunction\n"
        "from dyadlab.harness import ExperimentConfig, commutator_suite, duality_suite, weighted_suite\n"
        "from dyadlab.kernels import tensor_riesz\n"
        "from dyadlab.lower_bounds import BilinearKernel, bmo_lower_bound\n"
        "cfg = ExperimentConfig(seed=3, level=2, weights=['unit'], exponents=[[2.0, 2.0]])\n"
        "grid = cfg.grid()\n"
        "kernel = BilinearKernel(grid, tensor_riesz(1, 1))\n"
        "symbol = DiscreteFunction(grid, np.fromfunction(lambda i, j: np.cos(i + 2 * j), grid.shape))\n"
        "calls = {'weighted_suite': lambda: weighted_suite(cfg, seeds_per_cell=2),\n"
        "         'commutator_suite': lambda: commutator_suite(cfg, seeds_per_cell=2),\n"
        "         'duality_suite': lambda: duality_suite(cfg, instances=2),\n"
        "         'bmo_lower_bound': lambda: bmo_lower_bound(kernel, symbol, 1, 1.0, 1, 0, 1.0,"
        " max_rect_cells=8)}\n"
        "gained = {}\n"
        "for name, call in calls.items():\n"
        "    before = set(sys.modules)\n"
        "    call()\n"
        "    gained[name] = sorted(set(sys.modules) - before)\n"
        "print(json.dumps(gained))\n")
    assert out == {name: [] for name in
                   ("weighted_suite", "commutator_suite", "duality_suite", "bmo_lower_bound")}


def test_cli_decompose_never_imports_scipy(tmp_path):
    out = _run(
        "import contextlib, io, json, sys\n"
        "import dyadlab.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    rc = dyadlab.cli.main(['--grid-level', '2', '--seed', '3', '--out', {str(tmp_path)!r},\n"
        "                           'decompose', '--random-shift', '--export-families'])\n"
        "print(json.dumps({'rc': rc, 'scipy': 'scipy' in sys.modules}))\n")
    assert out == {"rc": 0, "scipy": False}
    assert (tmp_path / "shift_families.json").exists() and (tmp_path / "partial_families.json").exists()


def test_src_names_no_cube_walks():
    # the lattices are walked by their tables: no module names the cube
    # iterators, the per-cube Haar profiles or an AxisOps list of cubes
    walk = re.compile(r"\b(?:all_axis_cubes|axis_cubes|haar_profiles)\b|\bops\.cubes\b")
    package = os.path.join(SRC, "dyadlab")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as fh:
                assert not walk.search(fh.read()), name
