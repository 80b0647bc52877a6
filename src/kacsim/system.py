"""System state, initial laws, and event-loop drivers.

States are arrays of shape (n, d) holding n velocities in R^d, constrained
to zero mean and unit mean energy:

    sum_i v_i = 0,        (1/n) sum_i |v_i|^2 = 1.

Events pick an ordered pair uniformly, wait an exponential time with total
rate (n - 1) b0 / 2, and apply the elastic collision map with a deflection
angle drawn from the angular kernel.  ``simulate_kac`` runs one copy and
``simulate_coupled`` two copies under shared randomness through transported
frames; both go through one driver, ``_simulate``, which feeds pre-drawn
random batches to the C event loop in :mod:`kacsim._engine` (one loop for
one copy or two) and stacks the states on the sample grid, from which the
TrajectoryRecord computes its ``columns`` on first read.  ``_collide`` is
the python reference for one copy or two, in the C loop's arithmetic
order, so it reproduces it bit for bit; ``step_kac``/``step_coupled`` call
it for single events (the oracle of the C loop) and the engine's fallback
on each batch slot.  ``project_to_constraint_sphere``, the one python
reprojection, also rounds as the C loop does.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import _engine, assignment
from .geometry import (_weighted_dots, complement_unit, normalized,
                       sample_azimuth_cos, sequential_sum, transport_frames)

__all__ = [
    "DegenerateInput",
    "InvariantViolation",
    "CoupledState",
    "TrajectoryRecord",
    "event_rate",
    "energy_moments",
    "project_to_constraint_sphere",
    "check_configuration",
    "sample_equilibrium",
    "equilibrium_blocks",
    "two_temperature_initial",
    "two_temperature_m4_range",
    "default_m4_init",
    "equilibrium_m4",
    "substream",
    "substream_seed",
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
# Events drawn per batch.  The chunk size and the draw order are part of
# the RNG stream, so a seed reproduces a run only within one STREAM_VERSION,
# which every report.json records.  The size is fixed, never derived from
# the horizon, so that a shorter run is a prefix of a longer one bit for
# bit.  Measured on 2 vCPUs, C engine: a decay replica (N=256, horizon 20,
# about 5100 events) spends 4.2, 4.4, 4.8 and 13.9 ms in the dynamics at
# 1024, 2048, 4096 and 32768 events per batch, using 97%, 83%, 62% and 16%
# of the drawn events, and 10^6 coupled events at N=64 take 0.56, 0.46,
# 0.48 and 0.48 s, so 1024 loses on long runs what it saves on decay.
DEFAULT_CHUNK_SIZE = 1 << 11
STREAM_VERSION = 2
# equilibrium_blocks stacks at most this many numbers (128 KiB) per draw
SAMPLE_BLOCK_VALUES = 1 << 14

# engine tolerances used by coupled_run_issues
RESIDUAL_TOL = 1e-9
DELTA_PAIR_TOL = 1e-12
CONSERVATION_TOL = 1e-12
# antipodal events obey the coupling identity like every other event; the
# benchmark harness in perfbench/ reads their bound under this name
ANTIPODAL_DELTA_TOL = DELTA_PAIR_TOL

# each run check's accumulator slot (layout in kacsim._engine), in report
# order; the *_events counts are ints, and one copy reports SINGLE_CHECKS
CHECK_SLOTS = {"n_events": 4, "max_residual": 0, "max_delta_pair": 1,
               "max_conservation_error": 2, "antipodal_events": 3,
               "max_delta_pair_antipodal": 5, "worst_residual_time": 6,
               "worst_delta_time": 7}
SINGLE_CHECKS = ("n_events", "max_conservation_error")


class DegenerateInput(ValueError):
    """Configuration cannot be normalized (zero energy after centering)."""


class InvariantViolation(RuntimeError):
    """A per-event or per-run invariant exceeded its tolerance."""


@dataclass
class CoupledState:
    """Two slot-aligned copies plus the pairing that aligned them."""

    u: np.ndarray
    v: np.ndarray
    pairing: np.ndarray


def event_rate(kernel, n_particles):
    """System event rate (n - 1) b0 / 2 for n particles under ``kernel``."""
    if n_particles < 2:
        raise DegenerateInput("need at least two particles")
    return (n_particles - 1) * kernel.b0 / 2.0


@dataclass
class TrajectoryRecord:
    """One run's states, one (S, N, d) stack per copy at the S sample
    ``times``, its checks, and ``final``, the arrays it advanced in place.
    ``columns`` come from the stacks on first read: m2 and m4 of the last
    copy and, for two copies, the mean squared pair distance and the
    velocity correlation."""

    times: np.ndarray
    states: tuple = field(repr=False)
    checks: dict
    final: object = field(repr=False, default=None)

    @cached_property
    def columns(self):
        *first, v = self.states
        m2, m4 = energy_moments(v)
        if not first:
            return {"m2": m2, "m4": m4}
        u, = first
        diff = u - v
        # the pair_statistics records' E|U - V|^2 and E U.V, bit for bit
        w = np.full(u.shape[-2], 1.0 / u.shape[-2])
        return {"mean_sq_distance": np.array(_weighted_dots(diff, diff, w)),
                "corr": np.array(_weighted_dots(u, v, w)), "m2": m2, "m4": m4}

    def column(self, name):
        return self.columns[name]


def energy_moments(x):
    """(m2, m4): the means of |v_i|^2 and |v_i|^4 over the particles of a
    configuration (n, d), or of each configuration of a stack (..., n, d)."""
    sq = np.sum(x * x, axis=-1)
    return np.mean(sq, axis=-1), np.mean(sq * sq, axis=-1)


def _check_shape(v, stacked=False):
    """``v`` as floats, once it is a configuration (n >= 2, d >= 3) or,
    with ``stacked``, a stack (..., n, d) of them."""
    v = np.asarray(v, dtype=np.float64)
    if (v.ndim < 2 or v.ndim > 2 and not stacked or v.shape[-2] < 2
            or v.shape[-1] < 3):
        raise DegenerateInput(f"need shape (n >= 2, d >= 3), got {v.shape}")
    return v


def project_to_constraint_sphere(v):
    """Map a configuration (n, d), or each one of a stack (..., n, d), to
    zero mean and unit mean energy, in place, as the C loop's ``reproject``
    rounds it: each coordinate's mean, then the squared length s, summed
    in index order by ``np.add.accumulate`` (so a stack gives each of its
    configurations as alone), and one multiply by sqrt(n / s)."""
    v = _check_shape(v, stacked=True)
    n = v.shape[-2]
    # C's sums start from +0.0, which turns a sum of -0.0 into +0.0
    v -= (np.add.accumulate(v, axis=-2)[..., -1:, :] + 0.0) / n
    flat = v.reshape(v.shape[:-2] + (-1,))
    s = np.add.accumulate(flat * flat, axis=-1)[..., -1]
    if not np.all(s > 0.0):
        raise DegenerateInput("configuration has zero energy after centering")
    v *= np.sqrt(n / s)[..., None, None]
    return v


def check_configuration(v, tol=1e-10):
    """Verify the mean-zero and unit-mean-energy constraints within tol."""
    v = _check_shape(v)
    mom = np.max(np.abs(v.mean(axis=0)))
    energy = energy_moments(v)[0]
    if mom > tol or abs(energy - 1.0) > tol:
        raise InvariantViolation(
            f"constraint violation: |mean| = {mom:.3e}, energy = {energy:.17g}")
    return v


def sample_equilibrium(n, d, rng, size=None):
    """Draw from the uniform law on the constraint sphere.

    A standard Gaussian array conditioned on the two linear/quadratic
    constraints by projection is exactly uniform on the sphere.  With
    ``size``, a stack (size, n, d) from one draw: the configurations of
    ``size`` calls in a row, bit for bit, leaving ``rng`` in the same state.
    """
    shape = (n, d) if size is None else (size, n, d)
    return project_to_constraint_sphere(rng.standard_normal(shape))


def equilibrium_blocks(n, d, samples, rng):
    """``samples`` draws of ``sample_equilibrium(n, d, rng)`` as stacks of
    at most SAMPLE_BLOCK_VALUES numbers (one sample at least), in order."""
    per = max(1, SAMPLE_BLOCK_VALUES // (n * d))
    for start in range(0, samples, per):
        yield sample_equilibrium(n, d, rng, size=min(per, samples - start))


def two_temperature_m4_range(d):
    """Open interval of fourth moments a two-point energy mixture reaches
    in dimension d: the Gaussian value (d + 2)/d up to twice it."""
    return (d + 2.0) / d, 2.0 * (d + 2.0) / d


def default_m4_init(d):
    """Default fourth moment of the two-temperature start in dimension d:
    3.0 where it lies strictly inside two_temperature_m4_range(d) (d = 3),
    otherwise the midpoint of that range (3.0 is out of reach for d >= 4)."""
    lo, hi = two_temperature_m4_range(d)
    return 3.0 if lo < 3.0 < hi else 0.5 * (lo + hi)


def two_temperature_initial(n, d, rng, m4_target=None):
    """Half hot, half cold Gaussian mixture with a prescribed fourth moment.

    The hot half has per-particle energy a = 3; the cold energy b solves the
    quadratic that makes the mixture's normalized fourth moment hit
    ``m4_target`` in the large-n limit:

        A b^2 - 2 a d m4 b + A a^2 = 0,   A = 2(d + 2) - d m4

    (smaller root, so the cold half really is cold).  The sample is then
    projected onto the constraint sphere.  ``m4_target`` defaults to
    default_m4_init(d).
    """
    a = 3.0
    m4 = float(default_m4_init(d) if m4_target is None else m4_target)
    lo, hi = two_temperature_m4_range(d)
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


def align_configurations(u, v):
    """Reorder ``v`` to minimize the summed squared distance to ``u``.

    Returns (v_aligned, permutation) with v_aligned[i] = v[perm[i]].  The
    minimizer also maximizes the velocity correlation <u . v_aligned>,
    which is therefore nonnegative for centered configurations (the n
    cyclic shifts average to zero, so the best of them is already >= 0).
    """
    perm = assignment.optimal_pairing(u, v)
    return np.asarray(v, dtype=np.float64)[perm], perm


def make_coupled_state(u, v):
    """Pair ``v`` against ``u`` optimally and wrap both in a CoupledState."""
    u = np.array(u, dtype=np.float64)
    v_aligned, perm = align_configurations(u, v)
    return CoupledState(u=u, v=v_aligned, pairing=perm)


def step_kac(v, kernel, rng=None, t=0.0, rate=None, draws=None):
    """Apply one collision event in place; python reference path.

    ``draws`` may carry pre-drawn randomness (w, i, j0, theta, cos_phi, g)
    to replay a recorded stream; otherwise the event is a
    ``draw_event_batch`` of size 1 from ``rng``, so a run of single steps
    draws in the batches' order.
    Returns (new_time, (i, j)) with the collided pair i != j.  ``v`` must
    be a writeable C-contiguous float64 array (TypeError otherwise), since
    a converted copy would take the event instead.
    """
    _engine._state("v", v, 2)
    return _step((v,), kernel, rng, t, rate, draws)[:2]


def step_coupled(u, v, kernel, rng=None, t=0.0, rate=None, draws=None):
    """Apply one shared-randomness event to both copies, in place.

    ``draws`` is step_kac's tuple followed by ``g_sigma``.  Returns
    (new_time, (i, j), delta_pair, residual, completed) where (i, j) is the
    collided pair (i != j), delta_pair is the change of |u_i - v_i|^2 +
    |u_j - v_j|^2 across the event, residual is delta_pair + sin(theta)^2
    sin(phi)^2 (|du||dv| - du . dv), a float that vanishes up to rounding
    on every event, and completed tells whether ``g_sigma`` completed the
    frame of antipodal directions.  Both states must be arrays as in
    step_kac.
    """
    _engine._state("u", u, 2)
    _engine._state("v", v, 2)
    return _step((u, v), kernel, rng, t, rate, draws)


def _step(states, kernel, rng, t, rate, draws):
    """One event of step_kac or step_coupled through _collide."""
    n, d = states[0].shape
    if rate is None:
        rate = event_rate(kernel, n)
    if draws is None:
        batch = draw_event_batch(kernel, n, d, rng, 1, len(states) == 2)
        w, i, j, theta, cphi = (x[0].item() for x in batch[:5])
        gaussians = [g[0] for g in batch[5:5 + len(states)]]
    else:
        w, i, j0, theta, cphi, *gaussians = draws
        j = j0 + 1 if j0 >= i else j0
    delta, residual, completed, _ = _collide(states, i, j, theta, cphi,
                                             *gaussians)
    return t + w / rate, (i, j), delta, residual, completed


def _unit_of_diff(a, b):
    """(a - b)/|a - b| and |a - b|; a zero difference gives e_0."""
    x, r = normalized(a - b)
    return (x if r > 0.0 else np.eye(1, x.size)[0]), r


def _collide(states, i, j, theta, cphi, g_l, g_sigma=None):
    """The collision rule on the pair (i, j) of one copy or two, in place,
    as ``kac_advance`` computes it.  Both take their frame from
    ``transport_frames``, one copy as the frame of identical directions
    (n_v = n_u, which never reads ``g_sigma``).  A Gaussian that cannot
    complete the frame raises GeometryError before any state changes.
    Returns (delta_pair, residual, completed, error): the pair distance
    increment and identity residual (None for one copy), whether
    ``g_sigma`` completed the frame, and the largest relative pair energy
    or momentum error over the copies."""
    axes = [_unit_of_diff(x[i], x[j]) for x in states]   # (n_x, r_x)
    (n_u, r_u), (n_v, r_v) = axes[0], axes[-1]
    *frames, completed = transport_frames(n_u, n_v, g_sigma)
    l_hat = complement_unit(g_l, (n_u, frames[0]))
    sphi = math.sqrt(max(0.0, 1.0 - cphi * cphi))
    ct, st = math.cos(theta), math.sin(theta)

    old = [(x[i].copy(), x[j].copy()) for x in states]
    error = 0.0
    for x, (xi, xj), (n_x, r_x), m_x in zip(states, old, axes, frames):
        s = xi + xj
        e_old = sequential_sum(xi * xi + xj * xj)
        out = ct * n_x + st * (cphi * m_x + sphi * l_hat)
        # force an exactly unit outgoing direction; an l_hat off-orthogonal
        # by rounding would otherwise leak into the pair energy
        out = normalized(out)[0]
        x[i] = a = 0.5 * (s + r_x * out)
        x[j] = b = 0.5 * (s - r_x * out)
        e_new = sequential_sum(a * a + b * b)
        mom = float(np.max(np.abs((a + b) - s)))
        error = max(error, abs(e_new - e_old) / (e_old + 1e-300),
                    mom / (math.sqrt(e_old) + 1e-300))
    if len(states) == 1:
        return None, None, completed, error
    (ui, uj), (vi, vj) = old
    d_old = sequential_sum((ui - vi) * (ui - vi) + (uj - vj) * (uj - vj))
    u, v = states
    ui, uj, vi, vj = u[i], u[j], v[i], v[j]
    d_new = sequential_sum((ui - vi) * (ui - vi) + (uj - vj) * (uj - vj))
    delta = d_new - d_old
    c = sequential_sum(n_u * n_v)
    residual = delta + st * st * sphi * sphi * (r_u * r_v - r_u * r_v * c)
    return delta, residual, completed, error


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


def _sample_grid(horizon, sample_dt):
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


def _simulate(states, kernel, rng, horizon, sample_dt, max_events,
              reproject_every, chunk_size):
    """The driver of simulate_kac and simulate_coupled: check one copy or
    two slot-aligned copies, advance them in place (the advance function
    follows from the number of copies) and return their TrajectoryRecord.
    Each state is copied once at each sample time, and the copies are
    stacked into one (S, N, d) array per copy at the end."""
    for x in states:
        check_configuration(x)
    coupled = len(states) == 2
    n, d = states[0].shape
    if horizon is None and max_events is None:
        raise ValueError("need horizon or max_events")
    if horizon is None and sample_dt is not None:
        raise ValueError("sample_dt needs a horizon, which its grid runs to")
    # written so that nan fails each test
    if horizon is not None and not 0.0 <= horizon < np.inf:
        raise ValueError(f"horizon must be finite and nonnegative, got "
                         f"{horizon}")
    if sample_dt is not None and not 0.0 < sample_dt < np.inf:
        raise ValueError(f"sample_dt must be finite and positive, got "
                         f"{sample_dt}")
    if max_events is not None and not max_events >= 0:
        raise ValueError(f"max_events must be nonnegative, got {max_events}")
    # an empty batch would be drawn again and again, never ending the run
    if not chunk_size >= 1:
        raise ValueError(f"chunk_size must be at least 1, got {chunk_size}")
    rate = event_rate(kernel, n)
    budget = np.inf if max_events is None else float(max_events)
    grid = _sample_grid(horizon, sample_dt)
    # looked up per call, so a replaced engine attribute takes effect
    advance = _engine.advance_coupled if coupled else _engine.advance_kac

    t = 0.0
    t_next = t + float(rng.standard_exponential()) / rate
    acc = np.zeros(8)
    cursor, proj_ctr = 0, 0
    batch = None
    times, samples = [], tuple([] for _ in states)
    # with no grid the run goes to its event budget, sampled once there
    for target in list(grid) if grid.size else [np.inf]:
        while True:
            if batch is None:
                batch = draw_event_batch(kernel, n, d, rng, chunk_size, coupled)
                cursor = 0
            exps, ii, jj, thetas, cphis, gl, gs = batch
            t, t_next, cursor, proj_ctr, status = advance(
                *states, t, t_next, float(target), rate, budget,
                thetas, cphis, exps, ii, jj, *((gl, gs) if coupled else (gl,)),
                cursor, proj_ctr, reproject_every, acc)
            if status != 1:
                break
            batch = None
        times.append(t)
        for kept, x in zip(samples, states):
            kept.append(x.copy())
        if status == 2:
            break
    checks = {key: (int if key.endswith("_events") else float)(acc[slot])
              for key, slot in CHECK_SLOTS.items()
              if coupled or key in SINGLE_CHECKS}
    return TrajectoryRecord(times=np.array(times),
                            states=tuple(np.stack(s) for s in samples),
                            checks=checks,
                            final=states if coupled else states[0])


def simulate_kac(v, kernel, rng, horizon=None, sample_dt=None,
                 max_events=None, reproject_every=DEFAULT_REPROJECT_EVERY,
                 chunk_size=DEFAULT_CHUNK_SIZE):
    """Run the single-copy dynamics, recording its state on a time grid.

    Stops at ``horizon`` or after ``max_events``, whichever comes first (at
    least one must be given).  Pending event times are preserved across
    sampling stops, so the sampled path is a true skeleton of one
    realization.  The record's ``states`` is one (S, N, d) stack of the
    sampled states, and its ``columns`` (m2 and m4) are computed from it
    on first read.  ``chunk_size`` events are drawn per batch; the chunk
    size and the draw order are part of the RNG stream
    (``STREAM_VERSION``), so the same seed gives another realization at
    another chunk size.
    """
    return _simulate((np.array(v, dtype=np.float64),), kernel, rng, horizon,
                     sample_dt, max_events, reproject_every, chunk_size)


def simulate_coupled(u, v, kernel, rng, horizon=None, sample_dt=None,
                     max_events=None, reproject_every=DEFAULT_REPROJECT_EVERY,
                     chunk_size=DEFAULT_CHUNK_SIZE):
    """Run two copies under shared randomness, recording both on a grid.

    ``u`` may also be a CoupledState (then ``v`` must be None).  Otherwise
    ``u`` and ``v`` must already be slot-aligned (see align_configurations).
    The record's ``states`` is the pair of (S, N, d) stacks, and its
    ``columns`` (the mean squared pair distance, the velocity correlation
    and the second copy's m2/m4) are computed from them on first read.
    Engine check statistics (identity residual, pair distance monotonicity,
    conservation) are accumulated in ``checks``.  ``chunk_size`` is part of
    the RNG stream, as in simulate_kac.
    """
    if isinstance(u, CoupledState):
        if v is not None:
            raise ValueError("pass either a CoupledState or two arrays")
        u, v = u.u, u.v
    u = np.array(u, dtype=np.float64)
    v = np.array(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"copies differ in shape: {u.shape} vs {v.shape}")
    return _simulate((u, v), kernel, rng, horizon, sample_dt, max_events,
                     reproject_every, chunk_size)


def coupled_run_issues(record):
    """List of human-readable invariant violations for a coupled run."""
    c = record.checks
    issues = []
    if c["max_residual"] > RESIDUAL_TOL:
        issues.append(f"coupling identity residual {c['max_residual']:.3e} "
                      f"exceeds {RESIDUAL_TOL:.1e}")
    if c["max_delta_pair"] > DELTA_PAIR_TOL:
        issues.append(f"pair distance increased by {c['max_delta_pair']:.3e} "
                      f"in one event (tol {DELTA_PAIR_TOL:.1e})")
    if c["max_conservation_error"] > CONSERVATION_TOL:
        issues.append(f"pair conservation error {c['max_conservation_error']:.3e} "
                      f"exceeds {CONSERVATION_TOL:.1e}")
    return issues
