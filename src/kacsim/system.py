"""System state, initial laws, and event-loop drivers.

States are arrays of shape (n, d) holding n velocities in R^d, constrained
to zero mean and unit mean energy:

    sum_i v_i = 0,        (1/n) sum_i |v_i|^2 = 1.

Events pick an ordered pair uniformly, wait an exponential time with total
rate (n - 1) b0 / 2, and apply the elastic collision map with a deflection
angle drawn from the angular kernel.  ``simulate_kac`` runs one copy and
``simulate_coupled`` two copies under shared randomness through transported
frames; both hand their copies to one driver loop, which feeds pre-drawn
random batches to the C event loops in :mod:`kacsim._engine`.
``step_kac``/``step_coupled`` are single-event python references used to
cross-check the C loops (and run in their place, with a warning, where the
C loops cannot be built).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from . import _engine
from .geometry import (ANTIPODAL_EPS, PARALLEL_EPS, complement_unit,
                       orthonormal_to, sample_azimuth_cos, transport_frames)

__all__ = [
    "DegenerateInput",
    "InvariantViolation",
    "CollisionEvent",
    "CoupledState",
    "TrajectoryRecord",
    "event_rate",
    "project_to_constraint_sphere",
    "check_configuration",
    "sample_equilibrium",
    "two_temperature_initial",
    "equilibrium_m4",
    "substream",
    "substream_seed",
    "initial_pairing",
    "align_configurations",
    "make_coupled_state",
    "step_kac",
    "step_coupled",
    "draw_event_batch",
    "simulate_kac",
    "simulate_coupled",
    "coupled_run_issues",
]

DEFAULT_REPROJECT_EVERY = 10_000
DEFAULT_CHUNK_SIZE = 1 << 15

# engine tolerances used by coupled_run_issues
RESIDUAL_TOL = 1e-9
DELTA_PAIR_TOL = 1e-12
CONSERVATION_TOL = 1e-9
# antipodal events use a randomly completed plane, for which the identity
# residual does not apply; only a loose monotonicity bound is enforced
ANTIPODAL_DELTA_TOL = 1e-4


class DegenerateInput(ValueError):
    """Configuration cannot be normalized (zero energy after centering)."""


class InvariantViolation(RuntimeError):
    """A per-event or per-run invariant exceeded its tolerance."""


@dataclass(frozen=True)
class CollisionEvent:
    """One collision: its time, the (ordered) pair, and the angles.

    ``l`` is the out-of-plane unit vector completing the collision frame;
    together with theta and phi it determines the outgoing direction.
    """

    time: float
    i: int
    j: int
    theta: float
    phi: float
    l: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        if self.i == self.j:
            raise ValueError("collision pair must be distinct")


@dataclass
class CoupledState:
    """Two slot-aligned copies plus the pairing and event bookkeeping."""

    u: np.ndarray
    v: np.ndarray
    pairing: np.ndarray
    clock: float = 0.0
    event_count: int = 0


def event_rate(kernel, n_particles):
    """System event rate (n - 1) b0 / 2 for n particles under ``kernel``."""
    if n_particles < 2:
        raise DegenerateInput("need at least two particles")
    return (n_particles - 1) * kernel.b0 / 2.0


@dataclass
class TrajectoryRecord:
    """Sampled observables along one run plus per-run check statistics."""

    times: np.ndarray
    columns: dict
    checks: dict
    final: object = field(repr=False, default=None)

    def column(self, name):
        return self.columns[name]

    def to_csv(self, path, order=None):
        names = list(order) if order is not None else sorted(self.columns)
        header = ",".join(["time"] + names)
        data = np.column_stack([self.times] + [self.columns[k] for k in names])
        np.savetxt(path, data, delimiter=",", header=header, comments="",
                   fmt="%.17g")


def project_to_constraint_sphere(v):
    """Map a configuration to zero mean and unit mean energy, in place."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 2 or v.shape[0] < 2 or v.shape[1] < 3:
        raise DegenerateInput(f"need shape (n >= 2, d >= 3), got {v.shape}")
    v -= v.mean(axis=0)
    s = np.mean(np.sum(v * v, axis=1))
    if not s > 0.0:
        raise DegenerateInput("configuration has zero energy after centering")
    v /= np.sqrt(s)
    return v


def check_configuration(v, tol=1e-10):
    """Verify the mean-zero and unit-mean-energy constraints within tol."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 2 or v.shape[0] < 2 or v.shape[1] < 3:
        raise DegenerateInput(f"need shape (n >= 2, d >= 3), got {v.shape}")
    mom = np.max(np.abs(v.mean(axis=0)))
    energy = np.mean(np.sum(v * v, axis=1))
    if mom > tol or abs(energy - 1.0) > tol:
        raise InvariantViolation(
            f"constraint violation: |mean| = {mom:.3e}, energy = {energy:.17g}")
    return v


def sample_equilibrium(n, d, rng):
    """Draw from the uniform law on the constraint sphere.

    A standard Gaussian array conditioned on the two linear/quadratic
    constraints by projection is exactly uniform on the sphere.
    """
    return project_to_constraint_sphere(rng.standard_normal((n, d)))


def two_temperature_initial(n, d, rng, m4_target=3.0, hot_energy=3.0):
    """Half hot, half cold Gaussian mixture with a prescribed fourth moment.

    The hot half has per-particle energy ``hot_energy``; the cold energy b
    solves the quadratic that makes the mixture's normalized fourth moment
    hit ``m4_target`` in the large-n limit:

        A b^2 - 2 a d m4 b + A a^2 = 0,   A = 2(d + 2) - d m4,  a = hot_energy

    (smaller root, so the cold half really is cold).  The sample is then
    projected onto the constraint sphere.
    """
    a = float(hot_energy)
    m4 = float(m4_target)
    lo = (d + 2.0) / d
    hi = 2.0 * (d + 2.0) / d
    if not (lo < m4 < hi):
        raise ValueError(
            f"m4_target must lie in ({lo:.6g}, {hi:.6g}) for a two-point "
            f"energy mixture in dimension {d}, got {m4}")
    big_a = 2.0 * (d + 2.0) - d * m4
    disc = (d * m4) ** 2 - big_a ** 2
    b = a * (d * m4 - np.sqrt(disc)) / big_a
    n_hot = n // 2
    v = np.empty((n, d))
    v[:n_hot] = rng.standard_normal((n_hot, d)) * np.sqrt(a / d)
    v[n_hot:] = rng.standard_normal((n - n_hot, d)) * np.sqrt(b / d)
    return project_to_constraint_sphere(v)


def equilibrium_m4(n, d):
    """Exact mean fourth moment (1/n) sum E|v_i|^4 under the uniform law.

    A single particle's energy fraction |v_1|^2 / n is Beta(d/2, (n-1)d/2)
    distributed, whose second moment gives

        E|v_1|^4 = (n - 1)(d + 2) / ((n - 1) d + 2).
    """
    return (n - 1.0) * (d + 2.0) / ((n - 1.0) * d + 2.0)


def substream_seed(master_seed, index):
    """64-bit seed for replica ``index``, hashed from "{seed}:{index}"."""
    h = hashlib.blake2b(f"{master_seed}:{index}".encode(), digest_size=8)
    return int.from_bytes(h.digest(), "big")


def substream(master_seed, index):
    """Independent generator for replica ``index`` of a master seed.

    Replicas are reproducible individually without drawing the earlier
    streams.
    """
    return np.random.Generator(np.random.PCG64(substream_seed(master_seed, index)))


def initial_pairing(u, v):
    """Permutation sigma minimizing the mean squared distance <|u - v o sigma|^2>.

    The minimizer also maximizes the velocity correlation <u . v o sigma>,
    which is therefore nonnegative (the n cyclic shifts average to zero, so
    the best of them is already >= 0).
    """
    from .assignment import optimal_pairing

    return optimal_pairing(u, v)


def align_configurations(u, v):
    """Reorder ``v`` to minimize the summed squared distance to ``u``.

    Returns (v_aligned, permutation) with v_aligned[i] = v[perm[i]].
    """
    perm = initial_pairing(u, v)
    return np.asarray(v, dtype=np.float64)[perm], perm


def make_coupled_state(u, v):
    """Pair ``v`` against ``u`` optimally and wrap both in a CoupledState."""
    u = np.array(u, dtype=np.float64)
    v_aligned, perm = align_configurations(u, v)
    return CoupledState(u=u, v=v_aligned, pairing=perm)


def _draws_kac(n, d, kernel, rng):
    w = float(rng.standard_exponential())
    i = int(rng.integers(0, n))
    j0 = int(rng.integers(0, n - 1))
    theta = float(kernel.sample(rng))
    cphi = float(sample_azimuth_cos(d, rng))
    g = rng.standard_normal(d)
    return w, i, j0, theta, cphi, g


def step_kac(v, kernel, rng=None, t=0.0, rate=None, draws=None):
    """Apply one collision event in place; python reference path.

    ``draws`` may carry pre-drawn randomness (w, i, j0, theta, cos_phi, g)
    to replay a recorded stream; otherwise everything comes from ``rng``.
    Returns (new_time, CollisionEvent).
    """
    v = np.asarray(v, dtype=np.float64)
    n, d = v.shape
    if rate is None:
        rate = event_rate(kernel, n)
    if draws is None:
        draws = _draws_kac(n, d, kernel, rng)
    w, i, j0, theta, cphi, g = draws
    j = j0 + 1 if j0 >= i else j0
    t = t + w / rate
    diff = v[i] - v[j]
    r = float(np.sqrt(diff @ diff))
    n_hat = diff / r if r > 0.0 else _first_axis(d)
    m_hat = orthonormal_to(n_hat)
    l_hat = complement_unit(g, (n_hat, m_hat))
    npr = _direction(n_hat, m_hat, l_hat, theta, cphi)
    # an l_hat off-orthogonal by rounding (g nearly in span(n, m)) would
    # otherwise leak into the pair energy
    npr *= 1.0 / np.sqrt(npr @ npr)
    s = v[i] + v[j]
    v[i] = 0.5 * (s + r * npr)
    v[j] = 0.5 * (s - r * npr)
    phi = float(np.arccos(min(1.0, max(-1.0, cphi))))
    return t, CollisionEvent(t, i, j, theta, phi, l_hat)


def _first_axis(d):
    e = np.zeros(d)
    e[0] = 1.0
    return e


def _direction(n_hat, m_hat, l_hat, theta, cphi):
    sphi = np.sqrt(max(0.0, 1.0 - cphi * cphi))
    return np.cos(theta) * n_hat + np.sin(theta) * (cphi * m_hat + sphi * l_hat)


def step_coupled(u, v, kernel, rng=None, t=0.0, rate=None, draws=None):
    """Apply one shared-randomness event to both copies, in place.

    Returns (new_time, CollisionEvent, delta_pair, residual) where
    delta_pair is the change of |u_i - v_i|^2 + |u_j - v_j|^2 across the
    event and residual is delta_pair + sin(theta)^2 sin(phi)^2
    (|du||dv| - du . dv), which vanishes identically except for antipodal
    relative directions (residual is None there).
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    n, d = u.shape
    if rate is None:
        rate = event_rate(kernel, n)
    if draws is None:
        draws = _draws_kac(n, d, kernel, rng) + (rng.standard_normal(d),)
    w, i, j0, theta, cphi, g_l, g_sigma = draws
    j = j0 + 1 if j0 >= i else j0
    t = t + w / rate

    du = u[i] - u[j]
    dv = v[i] - v[j]
    r_u = float(np.sqrt(du @ du))
    r_v = float(np.sqrt(dv @ dv))
    n_u = du / r_u if r_u > 0.0 else _first_axis(d)
    n_v = dv / r_v if r_v > 0.0 else _first_axis(d)
    if r_u == 0.0 and r_v > 0.0:
        n_u = n_v.copy()
    elif r_v == 0.0 and r_u > 0.0:
        n_v = n_u.copy()
    c_raw = float(n_u @ n_v)
    m_u, m_v, c = transport_frames(n_u, n_v, g_sigma)
    parallel = 1.0 - c < PARALLEL_EPS
    antipodal = 1.0 + c < ANTIPODAL_EPS
    l_hat = complement_unit(g_l, (n_u, m_u))
    np_u = _direction(n_u, m_u, l_hat, theta, cphi)
    np_u *= 1.0 / np.sqrt(np_u @ np_u)
    if parallel:
        # the axes agree to within the cutoff, so both copies take the
        # identical outgoing direction and the pair distance cannot grow
        np_v = np_u
    else:
        np_v = _direction(n_v, m_v, l_hat, theta, cphi)
        np_v *= 1.0 / np.sqrt(np_v @ np_v)

    d_old = float(np.sum((u[i] - v[i]) ** 2) + np.sum((u[j] - v[j]) ** 2))
    s_u = u[i] + u[j]
    s_v = v[i] + v[j]
    u[i] = 0.5 * (s_u + r_u * np_u)
    u[j] = 0.5 * (s_u - r_u * np_u)
    v[i] = 0.5 * (s_v + r_v * np_v)
    v[j] = 0.5 * (s_v - r_v * np_v)
    d_new = float(np.sum((u[i] - v[i]) ** 2) + np.sum((u[j] - v[j]) ** 2))
    delta = d_new - d_old
    if antipodal:
        residual = None
    else:
        sphi2 = max(0.0, 1.0 - cphi * cphi)
        residual = delta + np.sin(theta) ** 2 * sphi2 * (r_u * r_v - r_u * r_v * c_raw)
    phi = float(np.arccos(min(1.0, max(-1.0, cphi))))
    return t, CollisionEvent(t, i, j, theta, phi, l_hat), delta, residual


def draw_event_batch(kernel, n, d, rng, size, coupled):
    """Pre-draw one batch of per-event randomness in the canonical order.

    Order: exponential waits, first index, second index offset, deflection
    angles, azimuth cosines, in-plane Gaussians, then (coupled only) the
    plane-completion Gaussians.
    """
    exps = rng.standard_exponential(size)
    ii = rng.integers(0, n, size=size)
    jj0 = rng.integers(0, n - 1, size=size)
    jj = jj0 + (jj0 >= ii)
    thetas = np.asarray(kernel.sample(rng, size), dtype=np.float64)
    cphis = sample_azimuth_cos(d, rng, size=size)
    gl = rng.standard_normal((size, d))
    gs = rng.standard_normal((size, d)) if coupled else np.empty((0, d))
    return (exps, ii.astype(np.int64, copy=False),
            jj.astype(np.int64, copy=False), thetas, cphis, gl, gs)


def _sample_grid(horizon, sample_dt, sample_times):
    if sample_times is not None:
        times = np.array(sorted(set(float(t) for t in sample_times)))
        if times.size and times[0] < 0:
            raise ValueError("sample times must be nonnegative")
        return times
    if horizon is None:
        return np.array([])
    if sample_dt is None:
        return np.unique([0.0, float(horizon)])
    times = np.arange(0.0, horizon + 0.5 * sample_dt, sample_dt)
    if times[-1] < horizon:
        times = np.append(times, horizon)
    else:
        times[-1] = horizon
    return times


def _simulate(states, kernel, rng, horizon, sample_dt, sample_times,
              max_events, observables, reproject_every, chunk_size):
    """Advance one copy or two coupled copies in place, sampling on a grid.

    The engine loop follows from the number of copies; observables are
    called with the copies as positional arguments.  Returns (times,
    columns, acc) with the accumulator laid out as in :mod:`kacsim._engine`.
    """
    coupled = len(states) == 2
    n, d = states[0].shape
    if horizon is None and max_events is None:
        raise ValueError("need horizon or max_events")
    rate = event_rate(kernel, n)
    budget = np.inf if max_events is None else float(max_events)
    grid = _sample_grid(horizon, sample_dt, sample_times)
    # looked up per call, so a replaced engine attribute takes effect
    advance = _engine.advance_coupled if coupled else _engine.advance_kac

    t = 0.0
    t_next = t + float(rng.standard_exponential()) / rate
    acc = np.zeros(8 if coupled else 2)
    cursor, proj_ctr = 0, 0
    batch = None
    out_t, cols = [], {k: [] for k in observables}

    def record(at):
        out_t.append(at)
        for name, fn in observables.items():
            cols[name].append(fn(*states))

    targets = list(grid) if grid.size else [np.inf]
    stopped = False
    for target in targets:
        while True:
            if batch is None:
                batch = draw_event_batch(kernel, n, d, rng, chunk_size, coupled)
                cursor = 0
            exps, ii, jj, thetas, cphis, gl, gs = batch
            t, t_next, cursor, proj_ctr, status = advance(
                *states, t, t_next, float(target), rate, budget,
                thetas, cphis, exps, ii, jj, *((gl, gs) if coupled else (gl,)),
                cursor, proj_ctr, reproject_every, acc)
            if status == 1:
                batch = None
                continue
            break
        record(t)
        if status == 2:
            stopped = True
            break
    if not stopped and not grid.size:
        record(t)
    return np.array(out_t), {k: np.array(c) for k, c in cols.items()}, acc


def simulate_kac(v, kernel, rng, horizon=None, sample_dt=None,
                 sample_times=None, max_events=None, observables=None,
                 reproject_every=DEFAULT_REPROJECT_EVERY,
                 chunk_size=DEFAULT_CHUNK_SIZE):
    """Run the single-copy dynamics, sampling observables on a time grid.

    Stops at ``horizon`` or after ``max_events``, whichever comes first (at
    least one must be given).  Pending event times are preserved across
    sampling stops, so the sampled path is a true skeleton of one
    realization.  ``observables`` maps column names to functions of the
    configuration; default columns are m2 and m4.
    """
    v = np.array(v, dtype=np.float64)
    check_configuration(v)
    if observables is None:
        observables = {"m2": lambda x: float(np.mean(np.sum(x * x, axis=1))),
                       "m4": lambda x: float(np.mean(np.sum(x * x, axis=1) ** 2))}
    times, columns, acc = _simulate(
        (v,), kernel, rng, horizon, sample_dt, sample_times, max_events,
        observables, reproject_every, chunk_size)
    checks = {"n_events": int(acc[1]), "max_conservation_error": float(acc[0])}
    return TrajectoryRecord(times=times, columns=columns, checks=checks,
                            final=v)


def simulate_coupled(u, v, kernel, rng, horizon=None, sample_dt=None,
                     sample_times=None, max_events=None, observables=None,
                     reproject_every=DEFAULT_REPROJECT_EVERY,
                     chunk_size=DEFAULT_CHUNK_SIZE):
    """Run two copies under shared randomness, sampling joint observables.

    ``u`` may also be a CoupledState (then ``v`` must be None).  Otherwise
    ``u`` and ``v`` must already be slot-aligned (see align_configurations).
    Observables are functions of (u, v); defaults record the mean squared
    pair distance, the velocity correlation, and the second copy's m2/m4.
    Engine check statistics (identity residual, pair distance monotonicity,
    conservation) are accumulated in ``checks``.
    """
    if isinstance(u, CoupledState):
        if v is not None:
            raise ValueError("pass either a CoupledState or two arrays")
        u, v = u.u, u.v
    u = np.array(u, dtype=np.float64)
    v = np.array(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"copies differ in shape: {u.shape} vs {v.shape}")
    check_configuration(u)
    check_configuration(v)
    if observables is None:
        observables = {
            "mean_sq_distance": lambda a, b: float(np.mean(np.sum((a - b) ** 2, axis=1))),
            "corr": lambda a, b: float(np.mean(np.sum(a * b, axis=1))),
            "m2": lambda a, b: float(np.mean(np.sum(b * b, axis=1))),
            "m4": lambda a, b: float(np.mean(np.sum(b * b, axis=1) ** 2)),
        }
    times, columns, acc = _simulate(
        (u, v), kernel, rng, horizon, sample_dt, sample_times, max_events,
        observables, reproject_every, chunk_size)
    checks = {
        "n_events": int(acc[4]),
        "max_residual": float(acc[0]),
        "max_delta_pair": float(acc[1]),
        "max_conservation_error": float(acc[2]),
        "antipodal_events": int(acc[3]),
        "max_delta_pair_antipodal": float(acc[5]),
        "worst_residual_time": float(acc[6]),
        "worst_delta_time": float(acc[7]),
    }
    return TrajectoryRecord(times=times, columns=columns, checks=checks,
                            final=(u, v))


def coupled_run_issues(record, residual_tol=RESIDUAL_TOL,
                       delta_tol=DELTA_PAIR_TOL,
                       conservation_tol=CONSERVATION_TOL,
                       antipodal_delta_tol=ANTIPODAL_DELTA_TOL):
    """List of human-readable invariant violations for a coupled run."""
    c = record.checks
    issues = []
    if c["max_residual"] > residual_tol:
        issues.append(f"coupling identity residual {c['max_residual']:.3e} "
                      f"exceeds {residual_tol:.1e}")
    if c["max_delta_pair"] > delta_tol:
        issues.append(f"pair distance increased by {c['max_delta_pair']:.3e} "
                      f"in one event (tol {delta_tol:.1e})")
    if c["max_conservation_error"] > conservation_tol:
        issues.append(f"pair conservation error {c['max_conservation_error']:.3e} "
                      f"exceeds {conservation_tol:.1e}")
    if c["max_delta_pair_antipodal"] > antipodal_delta_tol:
        issues.append(f"antipodal event increased pair distance by "
                      f"{c['max_delta_pair_antipodal']:.3e}")
    return issues
