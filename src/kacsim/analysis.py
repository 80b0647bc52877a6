"""Functionals, inequalities, constants, and bounds for the coupled dynamics.

Everything here is a pure function of states, discrete distributions, or
parameters.  Expectations over discrete coupled distributions are exact
weighted sums over the K^2 atom pairs; particle functionals average over all
N^2 ordered index pairs.  Monte Carlo estimators report standard errors and
take an explicit Generator.

Contents:

* spectral quantities: ``max_eigenvalue``, ``kappa``;
* the moment record ``pair_statistics`` of one sample, a configuration u
  or a coupled pair (u, v): a ``PairStatistics`` holding the weighted pair
  sums of one pass (the pair moments at the exponents the caller asks for,
  ``weak_exponents`` giving those of the weak bound, the creation integrand
  and the alignment area), the means, the second-moment matrices, E U.V,
  E|U - V|^2 and kappa of each marginal, computed once.  It is the only
  code that turns configurations into pair moments and kappas: the
  fundamental, area and weak reports and ``k_main_estimate`` read it, and
  the sweep hands its matrices to the trace report.  A stack of samples
  gives one record per sample from one pass and one ``kappa`` call over
  the stack (a decay replica's whole sample grid, a block of equilibrium
  samples).  The pass is ``_engine.pair_sums``, which also runs over a
  stack of samples: one C loop in O(N) memory, or on the python backend
  the same loop in numpy, with the same sums bit for bit.  Also the
  coupling creation ``coupling_creation``;
* alignment inequalities: ``fund_inequality_report``,
  ``trace_inequality_report``, ``area_decomposition``;
* Hölder machinery: ``holder_constants``, ``pathwise_weak_inequality``,
  and the weak family's rules ``check_delta`` and ``conjugate_exponent``;
* fourth-moment dynamics: ``delta4``, ``order4_bound``, ``gamma_exponent``,
  ``decay_envelope``;
* equilibrium estimates: ``wishart_kappa_moment``, ``k_main_estimate``;
* two degeneration studies: ``counterexample_heavy_tail`` and
  ``counterexample_radial_band``;
* the studies' parameter rules ``check_wishart_order``, ``heavy_tail_radii``
  and ``radial_band_tails``: the estimators apply them to every value before
  their first draw, and the config check calls them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _engine
from .geometry import _weighted_dots
from .system import InvariantViolation, _check_shape, equilibrium_blocks

__all__ = [
    "AnalysisError",
    "BadParams",
    "RhsInfinite",
    "PreconditionFailed",
    "DegenerateBand",
    "MomentBlowup",
    "InequalityReport",
    "DiscreteCoupledDistribution",
    "MCEstimate",
    "HolderConstants",
    "AreaDecomposition",
    "PairStatistics",
    "max_eigenvalue",
    "kappa",
    "pair_statistics",
    "weak_exponents",
    "coupling_creation",
    "fund_inequality_report",
    "trace_inequality_report",
    "area_decomposition",
    "holder_constants",
    "check_delta",
    "conjugate_exponent",
    "pathwise_weak_inequality",
    "delta4",
    "order4_bound",
    "gamma_exponent",
    "decay_envelope",
    "wishart_kappa_moment",
    "check_wishart_order",
    "k_main_estimate",
    "gaussian_even_moment",
    "counterexample_heavy_tail",
    "counterexample_radial_band",
    "heavy_tail_radii",
    "radial_band_tails",
    "HeavyTailRow",
    "RadialBandRow",
]

SYMMETRY_TOL = 1e-12
TRACE_TOL = 1e-10
NORMALIZED_TOL = 1e-10
CORRELATION_TOL = 1e-12
RANK_DEFECT_TOL = 1e-12


class AnalysisError(ValueError):
    pass


class BadParams(AnalysisError):
    """Parameter outside its legal range."""


class RhsInfinite(AnalysisError):
    """Both marginals are rank-1 while the left side is positive."""


class PreconditionFailed(AnalysisError):
    """Input state violates a stated hypothesis."""


class DegenerateBand(AnalysisError):
    """Radial band carries no probability mass."""


class MomentBlowup(UserWarning):
    """Requested spectral moment sits outside the integrability regime."""


@dataclass
class InequalityReport:
    """One checked inequality: lhs <= rhs with slack = rhs - lhs."""

    lhs: float
    rhs: float
    slack: float


@dataclass
class MCEstimate:
    value: float
    stderr: float


@dataclass
class HolderConstants:
    """Closed-form and estimated constants of the weak alignment bound."""

    delta: float
    p: float
    q: float
    k1: float
    k2: float
    k_main: float = None
    c_delta_n: float = None
    k_main_stderr: float = None
    j_factor: float = None
    j_stderr: float = None
    j_limit: float = None
    blowup: bool = False


@dataclass
class AreaDecomposition:
    """Exact split of the pair alignment area into three nonneg-led terms."""

    term_pointwise: float
    term_antisym: float
    term_trace: float
    total: float
    residual: float


def _as_matrix(s, name="S", stacked=False):
    """``s`` as floats, once it is a square matrix, or with ``stacked`` a
    stack (..., d, d) of them."""
    s = np.asarray(s, dtype=np.float64)
    if (s.ndim < 2 or s.ndim > 2 and not stacked
            or s.shape[-1] != s.shape[-2]):
        raise BadParams(f"{name} must be square, got shape {s.shape}")
    return s


def _spectrum(s, unit_trace=False):
    """Ascending eigenvalues of each matrix of a stack S (..., d, d), or of
    one, from one eigvalsh of (S + S^T)/2.  The first matrix that is not
    symmetric within SYMMETRY_TOL, or with ``unit_trace`` has a trace off 1
    by more than TRACE_TOL, raises what it would raise alone."""
    s = _as_matrix(s, stacked=True)
    lead = s.shape[:-2]
    s_t = s.swapaxes(-1, -2)
    tr = s.trace(axis1=-2, axis2=-1)
    bad_trace = (abs(tr - 1.0) > TRACE_TOL) & unit_trace
    scale = 1.0 + abs(s).reshape(lead + (-1,)).max(axis=-1)
    asym = abs(s - s_t).reshape(lead + (-1,)).max(axis=-1)
    bad = bad_trace | (asym > SYMMETRY_TOL * scale)
    if bad.any():
        first = np.unravel_index(bad.argmax(), lead)
        if bad_trace[first]:
            raise PreconditionFailed(
                f"kappa needs unit trace, got {float(tr[first]):.12g}")
        raise BadParams("matrix is not symmetric within tolerance")
    return np.linalg.eigvalsh(0.5 * (s + s_t))


def max_eigenvalue(s):
    """Largest eigenvalue of a symmetric matrix (symmetry within 1e-12)."""
    return float(_spectrum(_as_matrix(s))[-1])


def kappa(s):
    """Spectral alignment quantity (1 - lambda_max(S))^(-1) of a trace-1 S.

    Ranges over [d/(d-1), +inf]; returns +inf when the top eigenvalue
    reaches 1 (rank-1 alignment).  The complementary mass 1 - lambda_max is
    evaluated as the sum of the non-top eigenvalues, which avoids the
    cancellation of the direct subtraction.  A stack S of shape (..., d, d)
    gives an array of its kappas from one eigenvalue call, each equal to
    kappa of its matrix alone; the first matrix that fails a check raises
    what it would raise alone.
    """
    spectrum = _spectrum(s, unit_trace=True)
    rest = spectrum[..., :-1].sum(axis=-1)
    # rank one (+inf) where the top eigenvalue reaches 1, without dividing
    out = np.divide(1.0, rest, out=np.full(rest.shape, np.inf),
                    where=~(spectrum[..., -1] >= 1.0 - RANK_DEFECT_TOL))
    return out if out.ndim else float(out)


def _moment(x, y, w):
    """Weighted second-moment matrix sum_k w_k x_k y_k^T, also over stacks
    (..., n, d) of x and y."""
    return np.swapaxes(x * w[:, None], -1, -2) @ y


@dataclass(eq=False)
class PairStatistics:
    """The moment record of one sample: a configuration u, or a coupled
    pair (u, v), under weights w.  Built only by ``pair_statistics``.

    Pair sums over all ordered pairs (i, j), weighted w_i w_j, from one
    pass; with du = u_i - u_j and dv = v_i - v_j, ``moment_u`` sums
    |du|^(2a), ``moment_v`` |dv|^(2b), ``gap`` |du||dv| - du.dv and
    ``area`` |du|^2 |dv|^2 - (du.dv)^2.  One-point moments: the means
    ``mean_u``, ``mean_v``, the second-moment matrices ``c_uu`` = E U U^T,
    ``c_vv`` and the cross block ``c_uv`` = E U V^T, ``mean_dot`` = E U.V
    and ``mean_sq_distance`` = E|U - V|^2, summed directly.
    ``normalized`` tells whether every copy lies on the constraint sphere.
    ``kappa_u`` and ``kappa_v`` are kappa of C_UU and C_VV, which
    ``pair_statistics`` fills from its one ``kappa`` call; a record whose
    sample held a matrix that kappa refuses computes its own on first
    read, and raises what it would raise alone.  A single copy (``v``
    None) has only the u entries; the others are None, or nan for the
    scalars.
    """

    u: np.ndarray
    v: np.ndarray
    weights: np.ndarray
    a: float
    b: float
    moment_u: float
    moment_v: float
    gap: float
    area: float
    mean_u: np.ndarray
    c_uu: np.ndarray
    mean_v: np.ndarray
    c_vv: np.ndarray
    c_uv: np.ndarray
    mean_dot: float
    mean_sq_distance: float
    normalized: bool

    def creation(self):
        """Coupling creation (d-2)/(2d-2) <|du||dv| - du.dv>_N."""
        d = self.u.shape[1]
        return (d - 2.0) / (2.0 * d - 2.0) * self.gap

    @cached_property
    def _kappas(self):
        # read only when pair_statistics could not fill it
        if self.v is None:
            return kappa(self.c_uu), np.nan
        return tuple(kappa(np.stack((self.c_uu, self.c_vv))).tolist())

    @property
    def kappa_u(self):
        return self._kappas[0]

    @property
    def kappa_v(self):
        return self._kappas[1]


def pair_statistics(u, v=None, a=1.0, b=1.0, weights=None):
    """The moment record of a configuration u, or two copies (u, v).

    ``a`` and ``b`` are the exponents of the pair moments
    <|u-u*|^(2a)>, <|v-v*|^(2b)> (both > 0); ``weights`` default to 1/N
    each, which makes every sum the average over the N (or N^2 ordered
    pair) terms.  The pair sums come from one pass, ``_engine.pair_sums``:
    the C loop in O(N) memory, or on the python backend its numpy
    reference, which gives the same sums bit for bit.

    A stack u of shape (S, N, d) (and v alike) gives a list of S records,
    one per configuration, each equal field by field to the call on its
    configuration alone.  A single configuration is a stack of one: the
    pair pass and each moment product run once over the stack, the
    kappas of every record come from one ``kappa`` call on its S (one
    copy) or 2S (two copies) marginal matrices, and ``normalized`` from
    one test over the stack.  When a matrix of the stack fails kappa's
    checks, each record computes its own kappas on first read instead.
    """
    u = np.asarray(u, dtype=np.float64)
    if u.ndim not in (2, 3):
        raise BadParams(f"configuration must be (N, d) or a stack (S, N, d), "
                        f"got shape {u.shape}")
    if v is not None:
        v = np.asarray(v, dtype=np.float64)
        if v.shape != u.shape:
            raise BadParams(
                f"configurations differ in shape: {u.shape} vs {v.shape}")
    a, b = float(a), float(b)
    if not (a > 0.0 and b > 0.0):
        raise BadParams(f"pair moment exponents must be positive, got {a}, {b}")
    n = u.shape[-2]
    if weights is None:
        weights = np.full(n, 1.0 / n)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (n,):
        raise BadParams(f"need one weight per particle, got {weights.shape}")
    stacked = u.ndim == 3
    us = u if stacked else u[None]
    vs = v if stacked or v is None else v[None]
    sums = _engine.pair_sums(us, vs, weights, a, b).tolist()
    mean_u, c_uu = weights @ us, _moment(us, us, weights)
    if vs is None:
        vs_rows = [None] * len(us)
        joint = [(None, None, None, np.nan, np.nan)] * len(us)
        # a single copy is tested as both copies of a pair
        flags = _on_sphere(mean_u, mean_u, c_uu, c_uu).tolist()
        marginals = c_uu
    else:
        vs_rows = vs
        mean_v, c_vv = weights @ vs, _moment(vs, vs, weights)
        du = us - vs
        joint = zip(mean_v, c_vv, _moment(us, vs, weights),
                    _weighted_dots(us, vs, weights),
                    _weighted_dots(du, du, weights))
        flags = _on_sphere(mean_u, mean_v, c_uu, c_vv).tolist()
        marginals = np.stack((c_uu, c_vv), axis=1)
    records = [PairStatistics(x, y, weights, a, b, *sums_k, mean_k, c_k,
                              *joint_k, flag)
               for x, y, sums_k, mean_k, c_k, joint_k, flag
               in zip(us, vs_rows, sums, mean_u, c_uu, joint, flags)]
    try:
        kappas = kappa(marginals).tolist()
    except AnalysisError:
        kappas = []
    for rec, k in zip(records, kappas):
        rec._kappas = (k, np.nan) if vs is None else tuple(k)
    return records if stacked else records[0]


def coupling_creation(u, v):
    """Two-body coupling creation (d-2)/(2d-2) <|du||dv| - du.dv>_N.

    The expected decrease rate of the mean squared pair distance under one
    shared-randomness collision step, multiplied by the event rate, equals
    this functional exactly.  Nonnegative by Cauchy-Schwarz.
    """
    return pair_statistics(u, v).creation()


@dataclass
class DiscreteCoupledDistribution:
    """Finitely supported law of a coupled pair (U, V) on R^d x R^d."""

    atoms_u: np.ndarray
    atoms_v: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.atoms_u = np.asarray(self.atoms_u, dtype=np.float64)
        self.atoms_v = np.asarray(self.atoms_v, dtype=np.float64)
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.atoms_u.shape != self.atoms_v.shape or self.atoms_u.ndim != 2:
            raise BadParams("atom arrays must share a (K, d) shape")
        if self.weights.shape != (self.atoms_u.shape[0],):
            raise BadParams("need one weight per atom")
        if np.any(self.weights < 0):
            raise BadParams("weights must be nonnegative")
        total = self.weights.sum()
        if abs(total - 1.0) > 1e-9:
            raise BadParams(f"weights sum to {total:.12g}, not 1")
        self.weights = self.weights / total

    @classmethod
    def from_configurations(cls, u, v):
        u = np.asarray(u, dtype=np.float64)
        k = u.shape[0]
        return cls(u, v, np.full(k, 1.0 / k))

    def second_moment(self, which):
        """Weighted second-moment matrix: 'uu', 'vv', or the cross 'uv'."""
        blocks = {"uu": (self.atoms_u, self.atoms_u),
                  "vv": (self.atoms_v, self.atoms_v),
                  "uv": (self.atoms_u, self.atoms_v)}
        if which not in blocks:
            raise BadParams(f"unknown moment block {which!r}")
        return _moment(*blocks[which], self.weights)

    def normalize(self):
        """Centered copy with unit second moment in each marginal."""
        w = self.weights
        u = self.atoms_u - w @ self.atoms_u
        v = self.atoms_v - w @ self.atoms_v
        eu, ev = _weighted_dots(np.stack((u, v)), np.stack((u, v)), w)
        if eu <= 0.0 or ev <= 0.0:
            raise BadParams("cannot normalize a marginal with zero energy")
        return DiscreteCoupledDistribution(u / np.sqrt(eu), v / np.sqrt(ev), w)

    def pair_statistics(self):
        """The moment record of the law: ``pair_statistics`` over the
        atoms under the law's weights."""
        return pair_statistics(self.atoms_u, self.atoms_v, weights=self.weights)


def _check_pair_record(pairs):
    if not isinstance(pairs, PairStatistics) or pairs.v is None:
        raise BadParams("expected the PairStatistics of a pair state")


def _centered(mean_u, mean_v):
    """Both means zero within NORMALIZED_TOL.  Like ``_on_sphere`` it
    reads the last axes, so it also tests each sample of a stack."""
    return ((abs(mean_u).max(axis=-1) <= NORMALIZED_TOL)
            & (abs(mean_v).max(axis=-1) <= NORMALIZED_TOL))


def _on_sphere(mean_u, mean_v, c_uu, c_vv):
    """Both copies centered with unit energy (trace of the second-moment
    matrix), each within NORMALIZED_TOL."""
    def unit(c):
        return abs(c.trace(axis1=-2, axis2=-1) - 1.0) <= NORMALIZED_TOL
    return _centered(mean_u, mean_v) & unit(c_uu) & unit(c_vv)


def fund_inequality_report(pairs):
    """Check 1 - (E U.V)^2 <= (kappa_bar / 2) E(|dU|^2 |dV|^2 - (dU.dV)^2).

    ``pairs`` is the ``pair_statistics`` of a coupled law (at any pair
    moment exponents), which must be normalized: centered, with unit
    energy in each marginal.  ``kappa_bar`` is the smaller kappa of the two
    marginal second-moment matrices.  The factor 1/2 is the
    equality-attaining constant: strongly isotropic co-linear two-radius
    couplings saturate it.
    """
    _check_pair_record(pairs)
    if not pairs.normalized:
        raise PreconditionFailed("distribution must be centered with unit energy")
    kbar = min(pairs.kappa_u, pairs.kappa_v)
    area = pairs.area
    lhs = 1.0 - pairs.mean_dot * pairs.mean_dot
    if np.isinf(kbar):
        if lhs > 1e-12:
            raise RhsInfinite(
                "both marginals are rank-1 and the left side is positive")
        rhs = np.inf if area > 0 else 0.0
    else:
        rhs = 0.5 * kbar * area
    return InequalityReport(lhs=lhs, rhs=rhs, slack=rhs - lhs)


def trace_inequality_report(c_uu, c_vv, c_uv):
    """Check Tr(C_UU C_VV) - Tr(C_UV C_VU) <= factor (Tr C_UU Tr C_VV - (Tr C_UV)^2).

    ``factor`` is the smaller of the two normalized top eigenvalues
    lambda_max(C)/Tr(C).  C_UV is the cross block E[U V^T] (need not be
    symmetric); C_VU is its transpose.
    """
    c_uu = _as_matrix(c_uu, "C_UU")
    c_vv = _as_matrix(c_vv, "C_VV")
    c_uv = _as_matrix(c_uv, "C_UV")
    tr_u = float(np.trace(c_uu))
    tr_v = float(np.trace(c_vv))
    if tr_u <= 0 or tr_v <= 0:
        raise PreconditionFailed("marginal covariances need positive trace")
    factor = min(max_eigenvalue(c_uu) / tr_u, max_eigenvalue(c_vv) / tr_v)
    lhs = float(np.trace(c_uu @ c_vv)) - float(np.sum(c_uv * c_uv))
    rhs = factor * (tr_u * tr_v - float(np.trace(c_uv)) ** 2)
    return InequalityReport(lhs=lhs, rhs=rhs, slack=rhs - lhs)


def area_decomposition(pairs):
    """Exact three-term split of the pair alignment area.

    total = 2 E(|U|^2 |V|^2 - (U.V)^2)                    [pointwise, >= 0]
          + |C_UV - C_VU|_F^2                              [antisymmetric, >= 0]
          + 2 (Tr C_UU Tr C_VV - (Tr C_UV)^2
               - Tr(C_UU C_VV) + Tr(C_UV C_VU))            [trace]

    for any centered coupled law, read from its ``pair_statistics``
    ``pairs``; the residual against the direct pair sum is reported and
    stays below 1e-11.
    """
    _check_pair_record(pairs)
    if not _centered(pairs.mean_u, pairs.mean_v):
        raise PreconditionFailed("distribution must be centered")
    w, u, v = pairs.weights, pairs.u, pairs.v
    uu = np.einsum("kd,kd->k", u, u)
    vv = np.einsum("kd,kd->k", v, v)
    uv = np.einsum("kd,kd->k", u, v)
    term1 = 2.0 * float(w @ (uu * vv - uv * uv))
    c_uu, c_vv, c_uv = pairs.c_uu, pairs.c_vv, pairs.c_uv
    m = c_uv - c_uv.T
    term2 = float(np.sum(m * m))
    term3 = 2.0 * (float(np.trace(c_uu)) * float(np.trace(c_vv))
                   - float(np.trace(c_uv)) ** 2
                   - float(np.trace(c_uu @ c_vv))
                   + float(np.sum(c_uv * c_uv)))
    total = pairs.area
    return AreaDecomposition(term_pointwise=term1, term_antisym=term2,
                             term_trace=term3, total=total,
                             residual=total - (term1 + term2 + term3))


def check_delta(delta, upper=math.inf):
    """``delta`` as a float, once 0 < delta < ``upper`` (the decay
    constants need delta < 1)."""
    delta = float(delta)
    if not 0.0 < delta < upper:
        raise BadParams(f"need 0 < delta < {upper:g}, got {delta}"
                        if upper < math.inf else f"need delta > 0, got {delta}")
    return delta


def conjugate_exponent(p):
    """q with 1/p + 1/q = 1, once p > 1."""
    p = float(p)
    if p <= 1.0:
        raise BadParams(f"need p > 1, got {p}")
    return p / (p - 1.0)


def holder_constants(delta, p, d):
    """Closed-form constants of the weak alignment bound.

    k1 = 2^(-3 - 1/(2 delta)) (d-2)/(d-1) (1+delta)^(1+1/delta)
         / (1+2 delta)^(1+1/(2 delta))
    k2 = 2^(-9/2 - 2/delta) (d-2)/(d-1) (1+delta)^(1+1/delta)
         / (1+2 delta)^(1+1/(2 delta))

    Both are strictly positive for every d >= 3 and delta > 0.
    """
    delta = check_delta(delta)
    p = float(p)
    if d < 3:
        raise BadParams(f"need d >= 3, got {d}")
    q = conjugate_exponent(p)
    shared = ((d - 2.0) / (d - 1.0)
              * (1.0 + delta) ** (1.0 + 1.0 / delta)
              / (1.0 + 2.0 * delta) ** (1.0 + 1.0 / (2.0 * delta)))
    k1 = 2.0 ** (-3.0 - 1.0 / (2.0 * delta)) * shared
    k2 = 2.0 ** (-4.5 - 2.0 / delta) * shared
    return HolderConstants(delta=delta, p=p, q=q, k1=k1, k2=k2)


def weak_exponents(delta, p):
    """Exponents (p(1+delta), q(1+delta)) of the pair moments
    <|u-u*|^(2p(1+delta))>_N, <|v-v*|^(2q(1+delta))>_N that
    ``pathwise_weak_inequality`` reads: pass them to ``pair_statistics``.
    q is the conjugate of p."""
    delta = check_delta(delta)
    return float(p) * (1.0 + delta), conjugate_exponent(p) * (1.0 + delta)


def pathwise_weak_inequality(pairs, delta, p):
    """Check the weak alignment bound on one constrained pair state.

    ``pairs`` is the ``pair_statistics`` of the state (u, v), taken at the
    exponents ``weak_exponents(delta, p)`` with equal weights.  c(u, v)
    built from k1, the smaller kappa, and the two pair moments
    <|u-u*|^(2p(1+delta))>_N, <|v-v*|^(2q(1+delta))>_N must not exceed half
    the coupling creation divided by the pair distance to the power
    1 + 1/(2 delta).  Both copies must lie on the constraint sphere (the
    record's means and energies within 1e-10, else InvariantViolation), and
    the velocity correlation must be nonnegative.  The coincident case
    u = v is 0/0 and is returned flagged with nan sides.
    """
    _check_pair_record(pairs)
    d = _check_shape(pairs.u).shape[1]
    exponents = weak_exponents(delta, p)
    if (pairs.a, pairs.b) != exponents:
        raise BadParams(f"pair moments taken at exponents ({pairs.a}, "
                        f"{pairs.b}); the bound reads them at {exponents}")
    if (pairs.weights != pairs.weights[0]).any():
        raise BadParams("the weak bound averages over particles; the pair "
                        "statistics need equal weights")
    if not pairs.normalized:
        raise InvariantViolation(
            "constraint violation: means "
            f"{np.max(np.abs(pairs.mean_u)):.3e}, "
            f"{np.max(np.abs(pairs.mean_v)):.3e}, energies "
            f"{np.trace(pairs.c_uu):.17g}, {np.trace(pairs.c_vv):.17g}")
    hc = holder_constants(delta, p, d)
    delta, p, q = hc.delta, hc.p, hc.q

    corr = pairs.mean_dot
    if corr < -CORRELATION_TOL:
        raise PreconditionFailed(f"velocity correlation {corr:.3e} is negative")
    dist = pairs.mean_sq_distance
    kbar = min(pairs.kappa_u, pairs.kappa_v)
    c_val = (hc.k1 * kbar ** (-1.0 - 1.0 / (2.0 * delta))
             * pairs.moment_u ** (-1.0 / (2.0 * p * delta))
             * pairs.moment_v ** (-1.0 / (2.0 * q * delta)))
    if dist == 0.0:
        return InequalityReport(lhs=c_val, rhs=np.nan, slack=np.nan)
    rhs = 0.5 * pairs.creation() / dist ** (1.0 + 1.0 / (2.0 * delta))
    return InequalityReport(lhs=c_val, rhs=rhs, slack=rhs - c_val)


def delta4(v, v_star, d=None):
    """Expected jump of |v|^4 + |v*|^4 across one collision, halved.

    delta4 = -(|v|^4 + |v*|^4)/4 + (d+1)/(2(d-1)) |v|^2 |v*|^2
             - (v . v*)^2 / (d-1)

    Valid for any angular kernel with unit sin^2-weighted mass.  Broadcasts
    over leading axes.
    """
    v = np.asarray(v, dtype=np.float64)
    v_star = np.asarray(v_star, dtype=np.float64)
    if d is None:
        d = v.shape[-1]
    if d < 3:
        raise BadParams(f"need d >= 3, got {d}")
    a = np.sum(v * v, axis=-1)
    b = np.sum(v_star * v_star, axis=-1)
    ip = np.sum(v * v_star, axis=-1)
    out = (-(a * a + b * b) / 4.0
           + (d + 1.0) / (2.0 * (d - 1.0)) * a * b
           - ip * ip / (d - 1.0))
    return out if out.ndim else float(out)


def order4_bound(m4_0, d, t):
    """Exponential fourth-moment bound and its relaxation time shift.

    bound(t) = e^(-t/2) (m4_0 - (d+2)/d) + (d+2)/d
    t_star   = 2 (ln(d m4_0/(d+2) - 1))^+     (0 when the log argument < 1)

    After t_star the bound is at most (2d+4)/d.  Returns (bound, t_star);
    ``t`` may be an array.
    """
    m4_0 = float(m4_0)
    if m4_0 < 1.0:
        raise BadParams(f"m4_0 below the Cauchy-Schwarz floor: {m4_0}")
    t = np.asarray(t, dtype=np.float64)
    eq = (d + 2.0) / d
    bound = np.exp(-t / 2.0) * (m4_0 - eq) + eq
    arg = m4_0 / eq - 1.0
    t_star = 2.0 * np.log(arg) if arg > 1.0 else 0.0
    return (bound if bound.ndim else float(bound)), float(t_star)


def gamma_exponent(delta):
    """Exponent gamma = 1/4 + 1/(4 delta) of the time-integral bound."""
    return 0.25 + 0.25 / check_delta(delta)


def decay_envelope(t, d0, delta, c_delta_n, t_star):
    """Power-law envelope (d0^(-1/delta) + c (t - t_star)^+)^(-delta).

    Integrated form of the differential bound D' <= -delta c D^(1+1/delta)
    past the relaxation shift; advisory companion curve for decay runs, not
    an asserted invariant.
    """
    t = np.asarray(t, dtype=np.float64)
    base = d0 ** (-1.0 / delta) + c_delta_n * np.maximum(t - t_star, 0.0)
    out = base ** (-delta)
    return out if out.ndim else float(out)


def _check_samples(samples):
    """A standard error needs two samples; fewer would give nan."""
    if samples < 2:
        raise BadParams(f"need at least 2 Monte Carlo samples, got {samples}")


def _mean_stderr(x):
    """Sample mean of x over its first axis and its standard error: python
    floats for a 1-D x, arrays otherwise.  One sample has error zero."""
    x = np.asarray(x)
    mean = np.mean(x, axis=0)
    se = (np.std(x, axis=0, ddof=1) / np.sqrt(len(x)) if len(x) > 1
          else np.zeros_like(mean))
    return (float(mean), float(se)) if x.ndim == 1 else (mean, se)


def check_wishart_order(n, d, p):
    """Refuse a moment order p < 1, or one whose inverse moment is not
    finite at n particles in dimension d (that needs n - 2p/(d-1) > d)."""
    if p < 1:
        raise BadParams(f"need p >= 1, got {p}")
    if n - 2.0 * p / (d - 1.0) <= d:
        raise BadParams(
            f"n = {n} too small for moment order p = {p} in dimension {d}")


def wishart_kappa_moment(n, d, p, samples, rng):
    """Monte Carlo estimate of E[(1 - L)^(-p)]^(-1/p) at equilibrium.

    L is the top eigenvalue of the empirical second-moment matrix of a
    uniform constraint-sphere configuration, so (1 - L)^(-1) is its
    ``kappa``.  The estimate is bounded by (d-1)/d and approaches it as n
    grows.  ``check_wishart_order`` states the orders it accepts.
    """
    _check_samples(samples)
    check_wishart_order(n, d, p)
    w = np.full(n, 1.0 / n)
    xs = []
    for confs in equilibrium_blocks(n, d, samples, rng):
        # python floats: numpy's vectorized power can round unlike libm pow
        xs += [k ** p for k in kappa(_moment(confs, confs, w)).tolist()]
    m, se_m = _mean_stderr(xs)
    est = m ** (-1.0 / p)
    se_est = est * se_m / (p * m)
    return MCEstimate(value=est, stderr=se_est)


def gaussian_even_moment(d, m):
    """E |G|^(2m) for G ~ N(0, Id/d), m >= 0: (2/d)^m Gamma(h + m) / Gamma(h)
    with h = d/2, from the standard library alone, so a decay run loads no
    scipy.

    With m = n + f, n whole and 0 <= f < 1, the whole part is the product
    of the n factors (h + f + k) / h, k = 0 .. n - 1, each near 1: for
    whole m and d from 3 to 39 within 1e-15 of the exact rational.  The
    fraction takes math.lgamma only at h0 = h - r in [1, 2) (or h itself,
    below that), where log-gamma is small and its rounding stays small
    after exp, and the factors (h0 + f + k) / (h0 + k), k < r, bring h0
    back up to h: (2/d)^f Gamma(h + f) / Gamma(h) to about 2e-15.
    """
    if not m >= 0:
        raise ValueError(f"need m >= 0, got {m}")
    h = d / 2.0
    n = math.floor(m)
    f = m - n
    x = 1.0
    if f:
        r = max(math.floor(h) - 1, 0)
        h0 = h - r
        x = (2.0 / d) ** f * math.exp(math.lgamma(h0 + f) - math.lgamma(h0))
        for k in range(r):
            x *= (h0 + f + k) / (h0 + k)
    for k in range(n):
        x *= (h + f + k) / h
        if x == math.inf:
            break
    return x


def k_main_estimate(delta, p, n, d, samples, rng):
    """Equilibrium estimate of the main decay constant and c_delta_n.

    Estimates J = E[kappa^(p(1+2 delta)) <(|U-U*|/sqrt(2))^(2p(1+delta))>_N]
    ^(-1/(2 p delta)) by sampling uniform configurations, then

        k_main    = k2 J
        c_delta_n = k_main ((2d+4)/d)^(-1/2 - 1/(2 delta)).

    The closed-form n -> infinity limit of J,

        ((d-1)/d)^(1+1/(2 delta)) E(|G_d|^(2p(1+delta)))^(-1/(2 p delta)),

    is returned alongside for convergence checks (q is p's conjugate, and
    0 < delta < 1).  A MomentBlowup warning
    flags parameter choices whose kappa-moment is not integrable.  The
    samples are drawn in the blocks of ``system.equilibrium_blocks``, and
    each block's kappas and pair moments come from one ``pair_statistics``
    call; the estimate is the same bit for bit as one sample at a time.
    """
    _check_samples(samples)
    hc = holder_constants(check_delta(delta, 1.0), p, d)
    delta, p = hc.delta, hc.p
    m_kappa = p * (1.0 + 2.0 * delta)
    m_pair = weak_exponents(delta, p)[0]
    blowup = n - 2.0 * m_kappa / (d - 1.0) <= d
    if blowup:
        warnings.warn(
            f"kappa moment of order {m_kappa:.3g} is outside the integrable "
            f"regime at n = {n}, d = {d}", MomentBlowup)
    # the powers stay python floats, because numpy's vectorized power can
    # round unlike libm pow
    xs = [rec.kappa_u ** m_kappa * (rec.moment_u * 0.5 ** m_pair)
          for confs in equilibrium_blocks(n, d, samples, rng)
          for rec in pair_statistics(confs, None, m_pair)]
    m, se_m = _mean_stderr(xs)
    expo = 1.0 / (2.0 * p * delta)
    j = m ** (-expo)
    j_se = j * expo * se_m / m
    j_limit = ((d - 1.0) / d) ** (1.0 + 1.0 / (2.0 * delta)) * gaussian_even_moment(
        d, m_pair) ** (-expo)
    hc.j_factor = j
    hc.j_stderr = j_se
    hc.j_limit = j_limit
    hc.k_main = hc.k2 * j
    hc.k_main_stderr = hc.k2 * j_se
    hc.c_delta_n = hc.k_main * ((2.0 * d + 4.0) / d) ** (-0.5 - 1.0 / (2.0 * delta))
    hc.blowup = bool(blowup)
    return hc


@dataclass
class HeavyTailRow:
    m: float
    m_q: float
    mean_sq_distance: float
    distance_stderr: float
    creation: float
    creation_stderr: float


def _unit_rows(rng, size, d):
    g = rng.standard_normal((size, d))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def heavy_tail_radii(m_values, q):
    """The radii M of ``counterexample_heavy_tail`` as floats, once q is
    checked to lie in (1, 2) and every M to exceed 1."""
    if not (1.0 < float(q) < 2.0):
        raise BadParams(f"need 1 < q < 2, got {q}")
    radii = [float(m) for m in m_values]
    for m_val in radii:
        if m_val <= 1.0:
            raise BadParams(f"need radius M > 1, got {m_val}")
    return radii


def counterexample_heavy_tail(m_values, q, d, samples, rng):
    """Creation starves while distance persists under a heavy radial tail.

    V is radial two-point: |V| = M with probability 1/M^2, else 0, so
    E|V|^2 = 1 exactly while the q-norm m_q = M^(1-2/q) vanishes as M grows
    (1 < q < 2).  U is an independent isotropic Gaussian with E|U|^2 = 1.
    Because the rare radius M carries all of V's energy, the pair law is
    sampled by exact case weights: the Monte Carlo part covers the Gaussian
    pair distance and the unit-sphere chord, never the rare event itself.
    Cross terms vanish exactly by independence and centering.
    """
    _check_samples(samples)
    q = float(q)
    rows = []
    for m_val in heavy_tail_radii(m_values, q):
        prob = 1.0 / (m_val * m_val)
        m_q = m_val ** (1.0 - 2.0 / q)

        g1 = rng.standard_normal((samples, d)) / np.sqrt(d)
        g2 = rng.standard_normal((samples, d)) / np.sqrt(d)
        mean_a, se_a = _mean_stderr(np.linalg.norm(g1 - g2, axis=1))
        mean_u2, se_u2 = _mean_stderr(np.einsum("id,id->i", g1, g1))
        mean_chord, se_chord = _mean_stderr(np.linalg.norm(
            _unit_rows(rng, samples, d) - _unit_rows(rng, samples, d), axis=1))

        # |V - V*| is 0 (both radii 0), M (exactly one at M), or M times a
        # unit chord (both at M); weights are exact
        e_dv = (2.0 * prob * (1.0 - prob) * m_val
                + prob * prob * m_val * mean_chord)
        se_e_dv = prob * prob * m_val * se_chord
        creation = mean_a * e_dv
        creation_se = float(np.sqrt((se_a * e_dv) ** 2 + (mean_a * se_e_dv) ** 2))

        rows.append(HeavyTailRow(
            m=m_val, m_q=m_q,
            mean_sq_distance=mean_u2 + 1.0, distance_stderr=se_u2,
            creation=creation, creation_stderr=creation_se))
    return rows


@dataclass
class RadialBandRow:
    r_minus: float
    band_prob: float
    band_radius: float
    ratio: float
    ratio_stderr: float


def radial_band_tails(r_values, band_eps, d):
    """The radius law of ``counterexample_radial_band`` (|U| for U ~
    N(0, Id/d)) and, for each r, the band [r, r + band_eps] as (r, sf(r),
    sf(r + band_eps)).  Raises DegenerateBand for a band width <= 0 or a
    band that carries no probability mass, BadParams for r <= 0."""
    if band_eps <= 0:
        raise DegenerateBand(f"band width must be positive, got {band_eps}")
    from scipy.stats import chi as chi_law

    law = chi_law(d, scale=1.0 / np.sqrt(d))
    bands = []
    for r in r_values:
        r = float(r)
        if r <= 0:
            raise BadParams(f"need r > 0, got {r}")
        sf_lo, sf_hi = float(law.sf(r)), float(law.sf(r + band_eps))
        if not sf_lo - sf_hi > 0.0:
            raise DegenerateBand(
                f"band [{r}, {r + band_eps}] carries no probability mass")
        bands.append((r, sf_lo, sf_hi))
    return law, bands


def counterexample_radial_band(r_minus_values, band_eps, d, samples, rng):
    """Creation-to-distance ratio decays like r^(-2) for band couplings.

    U is isotropic Gaussian with E|U|^2 = 1; V equals U except when the
    radius falls in [r, r + band_eps], where the radius is replaced by the
    band's conditional rms value (co-linear coupling).  The ratio

        E(|U-U*||V-V*| - (U-U*).(V-V*)) / E|U-V|^2

    is tabulated against r.  Band radii are drawn by conditional inverse
    survival sampling, so arbitrarily deep tails keep exact occupancy; the
    band mass itself multiplies in analytically.
    """
    _check_samples(samples)
    law, bands = radial_band_tails(r_minus_values, band_eps, d)
    rows = []
    for r, sf_lo, sf_hi in bands:
        beta = sf_lo - sf_hi
        r_in = law.isf(rng.uniform(sf_hi, sf_lo, size=samples))
        c_band = float(np.sqrt(np.mean(r_in * r_in)))

        r_out = law.isf(rng.random(samples))
        mask = (r_out >= r) & (r_out <= r + band_eps)
        while np.any(mask):
            r_out[mask] = law.isf(rng.random(int(mask.sum())))
            mask = (r_out >= r) & (r_out <= r + band_eps)

        w1 = _unit_rows(rng, samples, d)
        w2 = _unit_rows(rng, samples, d)

        # one endpoint in the band, the other outside (V* = U* there)
        du = r_in[:, None] * w1 - r_out[:, None] * w2
        dv = c_band * w1 - r_out[:, None] * w2
        g_io = (np.linalg.norm(du, axis=1) * np.linalg.norm(dv, axis=1)
                - np.einsum("id,id->i", du, dv))
        # both endpoints in the band
        r_in2 = law.isf(rng.uniform(sf_hi, sf_lo, size=samples))
        du = r_in[:, None] * w1 - r_in2[:, None] * w2
        dv = c_band * (w1 - w2)
        g_ii = (np.linalg.norm(du, axis=1) * np.linalg.norm(dv, axis=1)
                - np.einsum("id,id->i", du, dv))

        num = (2.0 * (1.0 - beta) * float(np.mean(g_io))
               + beta * float(np.mean(g_ii)))
        se_num = float(np.sqrt(
            (2.0 * (1.0 - beta) * np.std(g_io, ddof=1)) ** 2
            + (beta * np.std(g_ii, ddof=1)) ** 2) / np.sqrt(samples))
        den, se_den = _mean_stderr((r_in - c_band) ** 2)
        ratio = num / den
        ratio_se = abs(ratio) * float(np.sqrt((se_num / num) ** 2
                                              + (se_den / den) ** 2))
        rows.append(RadialBandRow(r_minus=r, band_prob=beta, band_radius=c_band,
                                  ratio=ratio, ratio_stderr=ratio_se))
    return rows
