"""The four workloads, each run as a closed loop of steps by one caller.

A library workload (engine-coupled, relax-single) runs one replica per
step through ``kacsim.system``.  A ``kac run`` workload (decay, inequality)
runs one CLI invocation per step; its units (replicas, or inequality
instances) are timed by hooks that replace cli functions called once at
each unit boundary.  The hooks cost about a microsecond per unit and are on
in untraced runs too, because per-unit wall time cannot be had otherwise
without changing the program.

Every input comes from the workload seed: a unit's initial states and
generator, or an invocation's config seed, are hashed from (workload, seed,
index).  The program itself receives only those inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import shutil
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

# ROADMAP limits on the engine check statistics; acceptance 01 and 06 use
# the same for coupled runs
CONSERVATION_LIMIT = 1e-12
COUPLED_LIMITS = {"max_residual": 1e-9, "max_delta_pair": 1e-12}
ORACLE_EVENTS = 256
ORACLE_ATOL = 1e-12
SPHERE_TOL = 1e-10


@dataclass
class Unit:
    index: int
    seed: int
    seconds: float = float("nan")
    start: float = 0.0
    events: int = 0
    checks: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)


@dataclass
class Step:
    wall: float
    units: list
    digest: str


def derived_seed(workload, seed, index):
    """Nonnegative 63-bit seed for item ``index`` of a workload run."""
    h = hashlib.blake2b(f"{workload}:{seed}:{index}".encode(), digest_size=8)
    return int.from_bytes(h.digest(), "big") >> 1


def engine_failures(checks, coupled, system):
    """Engine check statistics outside the ROADMAP limits, as messages."""
    out = []
    limits = {"max_conservation_error": CONSERVATION_LIMIT}
    if coupled:
        limits.update(COUPLED_LIMITS,
                      max_delta_pair_antipodal=system.ANTIPODAL_DELTA_TOL)
    for key, lim in limits.items():
        val = checks.get(key, float("nan"))
        if not val <= lim:
            out.append(f"{key} {val:.3e} exceeds {lim:.0e}")
    return out


def on_sphere_failures(system, *states):
    out = []
    for x in states:
        try:
            system.check_configuration(x, tol=SPHERE_TOL)
        except system.InvariantViolation as exc:
            out.append(f"final state off the constraint sphere: {exc}")
    return out


def record_digest(rec):
    h = hashlib.sha256()
    final = rec.final if isinstance(rec.final, tuple) else (rec.final,)
    for arr in final + (rec.times,) + tuple(rec.columns[k] for k in sorted(rec.columns)):
        h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    h.update(str(rec.checks["n_events"]).encode())
    return h.hexdigest()


def dir_digest(path):
    h = hashlib.sha256()
    for f in sorted(p for p in Path(path).rglob("*") if p.is_file()):
        h.update(f.relative_to(path).as_posix().encode() + b"\0")
        h.update(f.read_bytes())
    return h.hexdigest()


class LibraryWorkload:
    """One replica of a ``kacsim.system`` driver per step."""

    unit_name = "replica"
    n, d = 64, 3

    def __init__(self, kac, seed, out_dir):
        self.kac = kac
        self.seed = seed
        self.tracer = None
        self.kernel = kac.kernels.make_kernel("uniform", theta_min=0.0)

    def install_hooks(self, patches):
        pass

    def warmup(self):
        self.simulate(*self.inputs(-1)[1:])

    def run_step(self, k):
        seed, *inp = self.inputs(k)
        if self.tracer is not None:
            self.tracer.unit = k
        t0 = time.perf_counter()
        rec = self.simulate(*inp)
        wall = time.perf_counter() - t0
        unit = Unit(k, seed, seconds=wall, events=rec.checks["n_events"],
                    checks=dict(rec.checks))
        unit.failures = self.check(rec)
        return Step(wall, [unit], record_digest(rec))

    def replay_digest(self, k):
        return self.run_step(k).digest

    def oracle_failures(self):
        """Replay the first events of unit 0 through the python stepper.

        Both paths consume the same pre-drawn batch (the first exponential
        wait comes before it), and the final states are compared as
        tests/test_system.py compares them: numpy's allclose with
        atol=1e-12 and its default rtol=1e-7.
        """
        system = self.kac.system
        _, *inp = self.inputs(0)
        rec = self.simulate(*inp, prefix=ORACLE_EVENTS)
        _, *inp = self.inputs(0)
        states, rng = inp[:-1], inp[-1]
        rate = system.event_rate(self.kernel, self.n)
        w0 = float(rng.standard_exponential())
        exps, ii, jj, thetas, cphis, gl, gs = system.draw_event_batch(
            self.kernel, self.n, self.d, rng, self.chunk_size, self.coupled)
        step = system.step_coupled if self.coupled else system.step_kac
        t = 0.0
        for k in range(ORACLE_EVENTS):
            i, j = int(ii[k]), int(jj[k])
            draws = (w0 if k == 0 else float(exps[k - 1]), i,
                     j - 1 if j > i else j, float(thetas[k]), float(cphis[k]),
                     gl[k]) + ((gs[k],) if self.coupled else ())
            t = step(*states, self.kernel, t=t, rate=rate, draws=draws)[0]
        final = rec.final if self.coupled else (rec.final,)
        if (all(np.allclose(a, b, rtol=1e-7, atol=ORACLE_ATOL)
                for a, b in zip(final, states))
                and np.isclose(rec.times[-1], t, rtol=1e-12, atol=0.0)):
            return []
        err = max(float(np.max(np.abs(a - b))) for a, b in zip(final, states))
        return [f"engine and python stepper differ after {ORACLE_EVENTS} "
                f"events: max state difference {err:.3e}, times "
                f"{float(rec.times[-1])!r} and {t!r}"]


class EngineCoupled(LibraryWorkload):
    """Acceptance-01 shape: coupled event-budget runs from equilibrium."""

    name = "engine-coupled"
    coupled = True
    events = 4096
    chunk_size = 4096   # one batch per replica, every drawn event used

    def params(self):
        return {"n": self.n, "d": self.d, "kernel": "uniform", "theta_min": 0.0,
                "initial": "two independent equilibrium samples",
                "max_events": self.events, "chunk_size": self.chunk_size}

    def inputs(self, k):
        seed = derived_seed(self.name, self.seed, k)
        rng = np.random.default_rng(seed)
        system = self.kac.system
        u = system.sample_equilibrium(self.n, self.d, rng)
        v = system.sample_equilibrium(self.n, self.d, rng)
        return seed, u, v, rng

    def simulate(self, u, v, rng, prefix=None):
        extra = {"reproject_every": 10 ** 9} if prefix else {}
        return self.kac.system.simulate_coupled(
            u, v, self.kernel, rng, max_events=prefix or self.events,
            chunk_size=self.chunk_size, **extra)

    def check(self, rec):
        system = self.kac.system
        out = engine_failures(rec.checks, True, system)
        if rec.checks["n_events"] != self.events:
            out.append(f"ran {rec.checks['n_events']} of {self.events} events")
        return out + on_sphere_failures(system, *rec.final)


class RelaxSingle(LibraryWorkload):
    """Acceptance-04 shape: short single-copy relaxation runs."""

    name = "relax-single"
    coupled = False
    horizon, sample_dt, m4_init = 16.0, 0.5, 3.0

    @property
    def chunk_size(self):
        return self.kac.system.DEFAULT_CHUNK_SIZE

    def params(self):
        return {"n": self.n, "d": self.d, "kernel": "uniform", "theta_min": 0.0,
                "initial": "two_temperature", "m4_init": self.m4_init,
                "horizon": self.horizon, "sample_dt": self.sample_dt,
                "chunk_size": self.chunk_size}

    def inputs(self, k):
        seed = derived_seed(self.name, self.seed, k)
        rng = np.random.default_rng(seed)
        v = self.kac.system.two_temperature_initial(self.n, self.d, rng,
                                                    m4_target=self.m4_init)
        return seed, v, rng

    def simulate(self, v, rng, prefix=None):
        if prefix:
            return self.kac.system.simulate_kac(v, self.kernel, rng,
                                                max_events=prefix,
                                                reproject_every=10 ** 9)
        return self.kac.system.simulate_kac(v, self.kernel, rng,
                                            horizon=self.horizon,
                                            sample_dt=self.sample_dt)

    def check(self, rec):
        system = self.kac.system
        out = engine_failures(rec.checks, False, system)
        grid = np.arange(0.0, self.horizon + 0.5 * self.sample_dt, self.sample_dt)
        if not np.array_equal(rec.times, grid):
            out.append(f"sampled {rec.times.size} times, expected {grid.size}")
        m2_err = float(np.max(np.abs(rec.columns["m2"] - 1.0)))
        if not m2_err <= SPHERE_TOL:
            out.append(f"m2 drifted from 1 by {m2_err:.3e}")
        return out + on_sphere_failures(system, rec.final)


class KacRunWorkload:
    """One ``kac run`` invocation per step, on a config pinned below."""

    def __init__(self, kac, seed, out_dir):
        self.kac = kac
        self.seed = seed
        self.tracer = None
        self.out = Path(out_dir) / self.name
        self.out.mkdir(parents=True, exist_ok=True)
        self.config_path = self._write_config("run.cfg", self.config)
        self.warm_path = self._write_config("warmup.cfg",
                                            {**self.config, **self.warm})
        self._units = None
        self._open = None
        self._base = 0
        self._inv_seed = 0

    def _write_config(self, name, values):
        path = self.out / name
        path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        return path

    def params(self):
        cfg = asdict(self.kac.cli.load_config(self.config_path))
        cfg.pop("seed")
        cfg.pop("out")
        return {"config": cfg, "units_per_run": self.units_per_step}

    # unit boundaries, called from the hooks
    def _start(self):
        now = time.perf_counter()
        self._finish(now)
        self._open = Unit(self._base + len(self._units), self._inv_seed,
                          start=now)
        self._units.append(self._open)
        if self.tracer is not None:
            self.tracer.unit = self._open.index

    def _finish(self, now=None):
        if self._open is not None:
            now = time.perf_counter() if now is None else now
            self._open.seconds = now - self._open.start
            self._open = None

    def _invoke(self, config, seed, out_dir, base):
        """Run ``kac run`` in-process.

        Returns (wall, exit code, traceback or None, units timed by hooks).
        """
        shutil.rmtree(out_dir, ignore_errors=True)
        self._units, self._base, self._inv_seed = [], base, seed
        if self.tracer is not None:
            self.tracer.unit = -1
        argv = ["run", "--config", str(config), "--seed", str(seed),
                "--out", str(out_dir)]
        problem = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = self.kac.cli.main(argv)
        except Exception:  # a crash fails the invocation's units, the run goes on
            code, problem = None, traceback.format_exc(limit=3)
        wall = time.perf_counter() - t0
        self._finish()
        units, self._units = self._units, None
        return wall, code, problem, units

    def warmup(self):
        self._invoke(self.warm_path, self.seed, self.out / "warmup", 0)
        shutil.rmtree(self.out / "warmup", ignore_errors=True)

    def run_step(self, k):
        """Invocation ``k``, checked and digested; its output is removed."""
        seed = derived_seed(self.name, self.seed, k) % (2 ** 31)
        out_dir = self.out / f"run{k}"
        base = k * self.units_per_step
        wall, code, problem, units = self._invoke(self.config_path, seed,
                                                  out_dir, base)
        units = self.check(out_dir, code, problem, units, seed, base)
        step = Step(wall, units, dir_digest(out_dir))
        shutil.rmtree(out_dir, ignore_errors=True)
        return step

    def replay_digest(self, k):
        return self.run_step(k).digest

    def oracle_failures(self):
        return []

    def check(self, out_dir, code, problem, units, seed, base):
        """Per-unit failures from the exit code, report.json and hooks."""
        report_path = Path(out_dir) / "report.json"
        report = json.loads(report_path.read_text()) if report_path.is_file() else {}
        whole = []
        if problem:
            whole.append(f"kac run raised: {problem.strip().splitlines()[-1]}")
        if code != 0:
            whole.append(f"kac run exited {code}")
        if report.get("pass") is not True:
            whole.append("report.json does not say pass")
        by_unit, rest = self.violations(report)
        whole += rest + self.report_failures(report)
        while len(units) < self.units_per_step:
            units.append(Unit(base + len(units), seed,
                              failures=["unit did not complete"]))
        for u in units:
            u.failures += whole + by_unit.get(u.index - base, [])
            u.failures += self.unit_failures(u)
        return units


class Decay(KacRunWorkload):
    """The paper's headline decay experiment at its default config."""

    name = "decay"
    unit_name = "replica"
    config = {"kind": "decay", "n": 256, "d": 3, "kernel": "uniform",
              "theta_min": 0.0, "horizon": 20.0, "sample_dt": 0.5,
              "replicas": 4, "delta": 0.5, "initial_law": "two_temperature",
              "m4_init": 3.0, "constant_samples": 200}
    units_per_step = config["replicas"]
    warm = {"replicas": 1, "horizon": 1.0, "constant_samples": 2}

    def install_hooks(self, patches):
        cli = self.kac.cli
        constants = cli.CONSTANTS_STREAM

        def substream(func):
            def hooked(seed, index):
                if index != constants and self._units is not None:
                    self._start()
                return func(seed, index)
            return hooked

        def run_issues(func):
            def hooked(record, *args, **kwargs):
                if self._open is not None:
                    self._open.checks = dict(record.checks)
                    self._open.events = int(record.checks["n_events"])
                return func(record, *args, **kwargs)
            return hooked

        def write_csv(func):
            def hooked(path, *args, **kwargs):
                func(path, *args, **kwargs)
                if Path(path).name.startswith("trajectory_"):
                    self._finish()
            return hooked

        patches.replace(cli, "substream", substream)
        patches.replace(cli, "coupled_run_issues", run_issues)
        patches.replace(cli, "_write_csv", write_csv)

    def violations(self, report):
        by_unit = {}
        for v in report.get("violations", []):
            by_unit.setdefault(v["replica"], []).extend(v["issues"])
        return by_unit, []

    def report_failures(self, report):
        out = []
        if report.get("replicas") != self.units_per_step:
            out.append(f"report has {report.get('replicas')} replicas, "
                       f"expected {self.units_per_step}")
        return out

    def unit_failures(self, unit):
        if not unit.checks:
            return ["no engine checks recorded"]
        return engine_failures(unit.checks, True, self.kac.system)


class Inequality(KacRunWorkload):
    """Randomized inequality sweep at the default mix, a tenth per run."""

    name = "inequality"
    unit_name = "instance"
    config = {"kind": "inequalities", "n": 256, "d": 3, "delta": 0.5,
              "n_discrete": 1000, "n_config": 100}
    warm = {"n_discrete": 20, "n_config": 2}
    units_per_step = config["n_discrete"] + config["n_config"]
    _violation_re = re.compile(r"^(discrete|configuration)/\S+ instance (\d+):")

    def install_hooks(self, patches):
        cli = self.kac.cli

        def starts_unit(func):
            def hooked(*args, **kwargs):
                if self._units is not None:
                    self._start()
                return func(*args, **kwargs)
            return hooked

        def ends_units(func):
            def hooked(*args, **kwargs):
                self._finish()
                return func(*args, **kwargs)
            return hooked

        patches.replace(cli, "_random_discrete", starts_unit)
        patches.replace(cli, "_random_constrained_pair", starts_unit)
        patches.replace(cli, "_equality_cases", ends_units)

    def violations(self, report):
        by_unit, rest = {}, []
        for v in report.get("violations", []):
            m = self._violation_re.match(v)
            if m is None:
                rest.append(v)
                continue
            offset = 0 if m.group(1) == "discrete" else self.config["n_discrete"]
            by_unit.setdefault(offset + int(m.group(2)), []).append(v)
        return by_unit, rest

    def report_failures(self, report):
        want = {"discrete": self.config["n_discrete"],
                "configuration": self.config["n_config"]}
        if report.get("checked") != want:
            return [f"report checked {report.get('checked')}, expected {want}"]
        return []

    def unit_failures(self, unit):
        return []


WORKLOADS = {w.name: w for w in (EngineCoupled, RelaxSingle, Decay, Inequality)}
