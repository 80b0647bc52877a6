"""Every name a kacsim module exports must exist, so deleting a function
cannot leave a stale ``__all__`` entry behind, and every name the benchmark
wraps must exist too; importing the package must stay cheap."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import kacsim

MODULES = ["kacsim"] + [f"kacsim.{m.name}"
                        for m in pkgutil.iter_modules(kacsim.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve(name):
    module = importlib.import_module(name)
    missing = [x for x in getattr(module, "__all__", ())
               if not hasattr(module, x)]
    assert not missing, f"{name}.__all__ names missing attributes {missing}"
    exec(f"from {name} import *", {})


def _run_python(code, *args):
    """Run ``code`` in a fresh interpreter on this checkout; its stdout."""
    src = str(Path(kacsim.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_and_uniform_run_load_no_scipy():
    """Importing the package, pairing two configurations and running a
    uniform-kernel coupled run load no scipy module, so the start-up stays
    cheap; only a power-law kernel brings in scipy.integrate."""
    code = """
import sys
import numpy as np
import kacsim
from kacsim import assignment, kernels, system
k = kernels.make_kernel("uniform", theta_min=0.0)
rng = np.random.default_rng(0)
u = system.sample_equilibrium(8, 3, rng)
v = system.sample_equilibrium(8, 3, rng)
state = system.make_coupled_state(u, v)
assignment.sym_distance(u, v)
system.simulate_coupled(state, None, k, rng, max_events=64, chunk_size=64)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
kernels.make_kernel("power_law", nu=-0.5, theta_min=0.0)
print("scipy.integrate" in sys.modules)
"""
    assert _run_python(code).split("\n")[:2] == ["[]", "True"]


def test_decay_run_loads_no_scipy_optimize(tmp_path):
    """A default-config decay ``kac run`` pairs each replica's copies in the
    engine library, so scipy.optimize stays unloaded; scipy.special stays,
    for the gammaln of analysis.gaussian_even_moment."""
    config = tmp_path / "decay.cfg"
    config.write_text("kind = decay\n")
    code = """
import sys
from kacsim import cli
code = cli.main(["run", "--config", sys.argv[1], "--out", sys.argv[2],
                 "--replicas", "2"])
print(code, "scipy.optimize" in sys.modules, "scipy.special" in sys.modules)
"""
    out = _run_python(code, str(config), str(tmp_path / "out"))
    assert out.split("\n")[-2] == "0 False True"


def test_benchmark_hooks_find_their_names():
    """perfbench/ wraps program functions by name (``cli._write_report``,
    ``cli.substream``, ...).  Its own test of those wrappers runs here, so
    renaming a name it patches fails this suite, not a benchmark run."""
    root = Path(__file__).resolve().parent.parent
    test = "perfbench/test_perfbench.py::test_every_wrapper_restores_the_original"
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q",
                           "-p", "no:cacheprovider", test],
                          cwd=root, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
