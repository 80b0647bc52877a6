"""Every name a kacsim module exports must exist, so deleting a function
cannot leave a stale ``__all__`` entry behind, and every name the benchmark
wraps must exist too; importing the package must stay cheap; and each rule
that is spelled once is called from its one owner."""

import ast
import importlib
import os
import pkgutil
import re
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
v, _ = system.align_configurations(u, v)
assignment.sym_distance(u, v)
system.simulate_coupled(u, v, k, rng, max_events=64, chunk_size=64)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
kernels.make_kernel("power_law", nu=-0.5, theta_min=0.0)
print("scipy.integrate" in sys.modules)
"""
    assert _run_python(code).split("\n")[:2] == ["[]", "True"]


def test_decay_run_loads_no_scipy(tmp_path):
    """A default-config decay ``kac run`` pairs each replica's copies in the
    engine library and computes analysis.gaussian_even_moment from the
    standard library, so no scipy module is loaded."""
    config = tmp_path / "decay.cfg"
    config.write_text("kind = decay\n")
    code = """
import sys
from kacsim import cli
code = cli.main(["run", "--config", sys.argv[1], "--out", sys.argv[2],
                 "--replicas", "2"])
print(code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    out = _run_python(code, str(config), str(tmp_path / "out"))
    assert out.split("\n")[-2] == "0 []"


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


def _uses(path, name_of):
    """(owner, name) for every node of the module at ``path`` that
    ``name_of`` names.  The owner is ``module.function`` or
    ``module.Class.method`` of the top-level definition that holds the node
    (nested functions count as their outer one)."""
    found = []

    def walk(node, owner, in_function):
        for child in ast.iter_child_nodes(node):
            name, inner = owner, in_function
            if (isinstance(child, (ast.FunctionDef, ast.ClassDef))
                    and not in_function):
                name = f"{owner}.{child.name}"
                inner = isinstance(child, ast.FunctionDef)
            used = name_of(child)
            if used is not None:
                found.append((name, used))
            walk(child, name, inner)

    walk(ast.parse(path.read_text()), path.stem, False)
    return found


def _called(node):
    """A call's called name: a plain name or an attribute's last part."""
    if isinstance(node, ast.Call):
        func = node.func
        return (func.attr if isinstance(func, ast.Attribute)
                else getattr(func, "id", None))
    return None


def _read(node):
    """The identifier of a bare name that is read, not assigned."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return node.id
    return None


def _c_bodies(path):
    """(name, body) of every function defined in the C source at ``path``,
    whose bodies open and close with a brace alone at column 0."""
    return re.findall(r"^\w[^;{}]*?\b(\w+)\([^;{}]*\)\n\{\n(.*?)^\}$",
                      path.read_text(), re.M | re.S)


# the message of each parameter rule of the weak family, of the shape rule
# and of each config rule that validate_config asks of the code enforcing
# it in a run, by the fragment that names it, and the one function that
# spells it
RULE_MESSAGES = {"delta": "need delta > 0", "p": "need p > 1",
                 "shape": "need shape (n, d)", "dimension": "need d >= 3",
                 "particles": "need n >= 2",
                 "samples": "Monte Carlo samples",
                 "m4_range": "< m4 <",
                 "pairing_size": "rows for the dense assignment",
                 "horizon": "horizon must be",
                 "sample_dt": "sample_dt must be",
                 "kernel_family": "unknown kernel family",
                 "theta_min": "outside [0, pi)"}
RULE_OWNERS = {"delta": "analysis.check_delta",
               "p": "analysis.conjugate_exponent",
               "shape": "system._check_shape",
               "dimension": "geometry._check_dimension",
               "particles": "system._check_particles",
               "samples": "analysis._check_samples",
               "m4_range": "system._check_m4_target",
               "pairing_size": "assignment._check_size",
               "horizon": "system._check_sample_grid",
               "sample_dt": "system._check_sample_grid",
               "kernel_family": "kernels.make_kernel",
               "theta_min": "kernels.make_kernel"}
# each rule spelled as an expression, by a pattern of its unparsed source,
# and the one function that spells it: the second index j0 + (j0 >= i) of
# a drawn pair, the kappa moments' integrability n - 2 m/(d-1) > d, and
# the Gaussian fourth moment (d + 2)/d, or its double (2d + 4)/d
EXPRESSIONS = {"j_offset": r"\w \+ \(\w+ >= \w+\)|\w \+ 1 if \w+ >= \w+",
               "kappa_moment": r"- 2\.0 \* \w+ / \(d - 1\.0\)",
               "gaussian_m4": r"\(([\w.]+) \+ 2\.0\) / \1\b"
                              r"|\(2\.0 \* ([\w.]+) \+ 4\.0\) / \2\b"}
EXPRESSION_OWNERS = {"j_offset": "system._second_index",
                     "kappa_moment": "analysis._kappa_moment_diverges",
                     "gaussian_m4": "system.gaussian_m4"}
# the arrays of one drawn batch, in draw order
BATCH_ARRAYS = ("exps", "ii", "jj", "thetas", "cphis", "gl", "gs")


def _says(node):
    """The rule whose message a string constant spells (an f-string's
    constant parts included), from RULE_MESSAGES."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        for rule, fragment in RULE_MESSAGES.items():
            if fragment in node.value:
                return rule
    return None


def _spells(node):
    """The rule of EXPRESSIONS that an expression spells."""
    if isinstance(node, (ast.BinOp, ast.Compare, ast.IfExp)):
        text = ast.unparse(node)
        for rule, pattern in EXPRESSIONS.items():
            if re.search(pattern, text):
                return rule
    return None


def _named(node):
    """The identifier of a bare name, read or assigned."""
    return node.id if isinstance(node, ast.Name) else None


def _normalizing(node):
    """The halves of a normalization: "length" for a
    ``sqrt(sequential_sum(...))``, "reciprocal" for a ``1.0 / sqrt(...)``."""
    if _called(node) == "sqrt" and _called(node.args[0]) == "sequential_sum":
        return "length"
    if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
            and getattr(node.left, "value", None) == 1.0
            and _called(node.right) == "sqrt"):
        return "reciprocal"
    return None


def _imported(path):
    """The modules that the module at ``path`` imports anywhere in it, by
    their last dotted part (``from . import analysis`` and ``from .analysis
    import x`` both give "analysis")."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names |= {alias.name.rsplit(".", 1)[-1] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                names.add(node.module.rsplit(".", 1)[-1])
            else:
                names |= {alias.name for alias in node.names}
    return names


def test_each_rule_has_one_owner():
    """Outside the engine only pair_statistics runs the pair pass; in the
    engine only pair_sums runs its python reference, and _engine.py
    imports nothing from analysis.  Only _spectrum, which kappa and
    max_eigenvalue call, takes eigenvalues, and in system.py only
    draw_event_batch draws angles.  One function spells each rule of
    RULE_OWNERS: each parameter rule of the weak family (check_delta
    delta > 0, conjugate_exponent p > 1), system._check_shape the shape
    (n, d), and each config rule that validate_config asks of the code
    enforcing it in a run: geometry._check_dimension d >= 3 (for
    _check_shape too), system._check_particles n >= 2,
    analysis._check_samples the two Monte Carlo samples,
    system._check_m4_target the two-temperature m4 range,
    assignment._check_size the pairing size, system._check_sample_grid
    the horizon and sample_dt rules and kernels.make_kernel the kernel
    families.  The
    two-pass projection is spelled once per language (the one reader of
    REORTHO_RATIO), and only transport_frames builds the frame of
    identical directions, also for a single copy.  In cli.py only
    _decay_replica builds and observes a decay replica, and only system.py
    reads its private sample grid.  The sphere: the fallback reprojects
    through project_to_constraint_sphere, the one python reprojection, as
    the C loop through reproject.  In the collision geometry only
    normalized, as C's normalize, takes a vector's length and scales by
    its reciprocal (transport_frames folds its factors).  E U.V,
    E|U - V|^2, the pairing's distance and a law's marginal energies come
    from _weighted_dots, defined once, in geometry; in system.py,
    assignment.py and cli.py only pairing_cost calls einsum.
    In system.py and cli.py only energy_moments averages over particles
    (check_configuration also averages the momentum), and only
    _mean_stderr and the band study's two-part error take a standard
    deviation.  A second spelling of a rule fails here."""
    src = Path(kacsim.__file__).resolve().parent
    py = sorted(src.glob("*.py"))
    calls = [c for path in py for c in _uses(path, _called)]
    reads = [c for path in py for c in _uses(path, _read)]
    norms = [c for path in py for c in _uses(path, _normalizing)]
    says = [c for path in py for c in _uses(path, _says)]
    spells = [c for path in py for c in _uses(path, _spells)]
    c_bodies = [b for path in sorted(src.glob("*.[ch]"))
                for b in _c_bodies(path)]

    def owners(called, module="", uses=calls):
        return {owner for owner, name in uses
                if name in called and owner.startswith(module)}

    def c_owners(pattern):
        return [name for name, body in c_bodies if re.search(pattern, body)]

    assert {o for o in owners({"pair_sums"}) if not o.startswith("_engine.")
            } == {"analysis.pair_statistics"}
    assert owners({"_python_pair_sums"}) == {"_engine.pair_sums"}
    assert "analysis" not in _imported(src / "_engine.py")
    assert owners({"eigvalsh"}) == {"analysis._spectrum"}
    assert owners({"_spectrum"}) == {"analysis.kappa",
                                     "analysis.max_eigenvalue"}
    for rule, owner in RULE_OWNERS.items():
        assert owners({rule}, uses=says) == {owner}, rule
    for rule, owner in EXPRESSION_OWNERS.items():
        assert owners({rule}, uses=spells) == {owner}, rule
    assert owners({"_second_index"}) == {"system._step",
                                         "system.draw_event_batch"}
    assert owners({"_kappa_moment_diverges"}) == {
        "analysis.check_wishart_order", "analysis.k_main_estimate"}
    assert owners({"sample_azimuth_cos", "sample"}, "system.") == {
        "system.draw_event_batch"}
    assert owners({"REORTHO_RATIO"}, uses=reads) == {"geometry._project_off"}
    assert c_owners(r"\bREORTHO_RATIO\b") == ["project_off"]
    assert owners({"orthonormal_to"}) == {"geometry.transport_frames"}
    assert c_owners(r"\bortho_axis\s*\(") == ["transport_frames"]
    assert owners({"simulate_coupled", "align_configurations",
                   "_initial_copies", "_decay_observables"}, "cli.") == {
        "cli._decay_replica"}
    assert {o.split(".")[0] for o in owners({"_sample_grid"})} == {"system"}
    assert owners({"project_to_constraint_sphere"}, "_engine.") == {
        "_engine._python_advance"}
    assert owners({"accumulate"}, "system.") == {
        "system.project_to_constraint_sphere"}
    assert c_owners(r"\breproject\s*\(") == ["kac_advance"]
    assert owners({"length", "reciprocal"}, "geometry.", norms) | owners(
        {"length", "reciprocal"}, "system.", norms) == {
        "geometry.normalized", "geometry.transport_frames"}
    assert c_owners(r"\b1\.0 / (r|sqrt)\b") == ["normalize", "transport_frames"]
    assert owners({"_weighted_dots"}) == {
        "analysis.pair_statistics", "system.TrajectoryRecord.columns",
        "cli._random_constrained_pair", "assignment.sym_distance",
        "analysis.DiscreteCoupledDistribution.normalize"}
    assert set().union(*(owners({"einsum"}, m) for m in (
        "system.", "assignment.", "cli."))) == {"assignment.pairing_cost"}
    assert [path.stem for path in py if re.search(
        r"^def _weighted_dots\b", path.read_text(), re.M)] == ["geometry"]
    assert owners({"mean"}, "system.") | owners({"mean"}, "cli.") == {
        "system.energy_moments", "system.check_configuration"}
    assert owners({"energy_moments"}, "system.") == {
        "system.TrajectoryRecord.columns", "system.check_configuration"}
    assert owners({"std"}) == {"analysis._mean_stderr",
                               "analysis.counterexample_radial_band"}


def test_the_batch_passes_through_as_drawn():
    """The driver hands each drawn batch to the engine without naming its
    arrays, so the draw order is written only where the batch is drawn,
    marshalled and consumed; and the second way into a coupled run, the
    CoupledState wrapper, stays gone."""
    src = Path(kacsim.__file__).resolve().parent
    named = {name for owner, name in _uses(src / "system.py", _named)
             if owner == "system._simulate"}
    assert "batch" in named and not named & set(BATCH_ARRAYS)
    for name in MODULES:
        module = importlib.import_module(name)
        for gone in ("CoupledState", "make_coupled_state"):
            assert not hasattr(module, gone), (name, gone)
            assert gone not in getattr(module, "__all__", ()), (name, gone)
