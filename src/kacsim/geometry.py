"""Collision geometry on the unit sphere.

Binary elastic collisions preserve the pair momentum and the pair energy, so a
post-collisional state is fixed by a single unit vector: the new direction of
the relative velocity.  The collision rule itself lives in the python
reference stepper ``system._collide`` and the C loop of
:mod:`kacsim._engine`; this module provides the frame pieces they share:

* ``orthonormal_to``, a deterministic unit vector orthogonal to an axis,
* ``complement_unit``, a Gaussian projected off an orthonormal set and
  normalized (uniform on the sphere of the complement),
* ``sample_azimuth_cos``, the azimuth law with density sin(phi)^(d-3), and
* ``transport_frames``, the in-plane vectors of the rotation that carries
  one relative direction onto the other, built from the half-angle basis
  (n_u + n_v, n_u - n_v) and exact at every angle; only identical and
  antipodal directions, where the plane is not fixed, are completed (a
  single copy takes the frame of identical directions, n_v = n_u).

Each rule is spelled once here, as once in the C loop: ``complement_unit``
and ``transport_frames`` share the two-pass projection ``_project_off``.
They round as the C loop does (sums in index order by ``sequential_sum``,
one reciprocal per normalization, in ``normalized``).  ``_weighted_dots``
is the one E U.V and E|U - V|^2 of the package.  Vectors have shape
``(d,)``, d >= 3: ``_check_dimension`` is the package's one dimension rule.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "GeometryError",
    "sequential_sum",
    "normalized",
    "orthonormal_to",
    "complement_unit",
    "sample_azimuth_cos",
    "transport_frames",
]

# _project_off projects a second time when the first projection keeps
# less than this fraction of |w|^2; below it the first pass can leave the
# result off-orthogonal by more than 1e-12 (eps / sqrt(REORTHO_RATIO)).
REORTHO_RATIO = 1e-8
# a projection of a unit vector that keeps |w|^2 <= this annihilated it
ANNIHILATION_SQ = 1e-24


class GeometryError(ValueError):
    """Raised when a vector or frame violates its construction contract."""


def _check_dimension(d, error=GeometryError):
    """``d`` once d >= 3, else ``error``, the caller's own class."""
    if d < 3:
        raise error(f"need d >= 3, got {d}")
    return d


def sequential_sum(x):
    """Sum of ``x`` in index order, as the C loop adds (numpy's pairwise
    sum differs from 8 terms on, and builtin ``sum`` compensates from
    Python 3.12); a dot product is ``sequential_sum(x * y)``."""
    s = 0.0
    for xk in np.ravel(x).tolist():
        s += xk
    return s


def _weighted_dots(x, y, w):
    """sum_k w_k x_k.y_k for each configuration of the stacks x, y (S, N,
    d), as python floats.  Each is one dot of w with the row of x_k.y_k,
    as ``w @ row`` on one configuration; an (S, N) @ (N,) product would
    round differently."""
    rows = np.einsum("snd,snd->sn", x, y)
    return (rows[:, None, :] @ w)[:, 0].tolist()


def normalized(x):
    """(x / |x|, |x|) as the C loop's ``normalize`` rounds them: one multiply
    by the reciprocal of the length; a zero x comes back undivided."""
    r = math.sqrt(sequential_sum(x * x))
    return (x * (1.0 / r) if r > 0.0 else x), r


def orthonormal_to(n):
    """Deterministic unit vector orthogonal to ``n``.

    Projects out the coordinate axis along which ``n`` is smallest, which
    keeps the construction well conditioned for every input.
    """
    n = np.asarray(n, dtype=np.float64)
    k = int(np.argmin(np.abs(n)))
    w = -n[k] * n
    w[k] += 1.0
    return normalized(w)[0]


def _project_off(w, basis, norms_sq, w2):
    """``w`` projected off the mutually orthogonal vectors in ``basis``,
    whose squared lengths are ``norms_sq``, and its squared length.

    The coefficients are all taken from the same vector.  Rounding leaves
    the result a component along the basis of relative size
    eps |w| / |result|; where w lies nearly in the basis span that
    component would break the frame identities, so a result that keeps
    less than REORTHO_RATIO of ``w2`` = |w|^2 is projected once more.
    """
    for _ in range(2):
        coefs = [sequential_sum(w * b) / bb for b, bb in zip(basis, norms_sq)]
        for a, b in zip(coefs, basis):
            w = w - a * b
        s = sequential_sum(w * w)
        if not s < REORTHO_RATIO * w2:
            break
    return w, s


def complement_unit(gauss, basis):
    """Normalize ``gauss`` after projecting out the vectors in ``basis``.

    ``basis`` is a tuple of mutually orthonormal vectors.  For a standard
    Gaussian input the result is uniform on the unit sphere of the
    orthogonal complement.  Raises GeometryError when the projection keeps
    |w|^2 <= ANNIHILATION_SQ; the C event loop stops there too.
    """
    w = np.asarray(gauss, dtype=np.float64)
    w, s = _project_off(w, basis, (1.0,) * len(basis), sequential_sum(w * w))
    if not s > ANNIHILATION_SQ:
        raise GeometryError("complement projection annihilated the sample")
    return normalized(w)[0]


def sample_azimuth_cos(d, rng, size=None):
    """Sample cos(phi) for the azimuth law with density sin(phi)^(d-3) on [0, pi].

    Uses the exact map cos(phi) = 1 - 2 B with B ~ Beta((d-2)/2, (d-2)/2).
    """
    _check_dimension(d)
    b = rng.beta((d - 2) / 2.0, (d - 2) / 2.0, size=size)
    return 1.0 - 2.0 * b


def transport_frames(n_u, n_v, sigma=None):
    """In-plane unit vectors (m_u, m_v) for the rotation taking n_u to n_v.

    m_u is orthogonal to n_u and points toward n_v inside their common plane;
    m_v is the image of m_u under the plane rotation, hence orthogonal to
    n_v.  The pair satisfies exactly (up to rounding)::

        <m_u, m_v> = <n_u, n_v>      and      <n_u, m_v> = -<m_u, n_v>.

    Both come from one half-angle basis: with w = n_u + n_v, z = n_u - n_v
    and the half angle's cos = |w|/2 and sin = |z|/2,

        m_u = sin w^ - cos z^,      m_v = -sin w^ - cos z^,

    where the shorter of w^, z^ is projected orthogonal to the longer, so
    the frame is exact at every angle.  Where the shorter one has no
    direction off the longer (it is zero, or rounding noise along it) the
    plane is open: identical directions take m_u = m_v = orthonormal_to(n_u),
    and antipodal ones complete w^ with the tie-break vector ``sigma``.

    Returns (m_u, m_v, completed), ``completed`` telling whether ``sigma``
    was used.
    """
    w, z = n_u + n_v, n_u - n_v
    ww, zz = sequential_sum(w * w), sequential_sum(z * z)
    cos_h, sin_h = 0.5 * math.sqrt(ww), 0.5 * math.sqrt(zz)
    w_short = ww < zz
    (lo, ll), (hi, hh) = ((w, ww), (z, zz)) if w_short else ((z, zz), (w, ww))
    # the shorter one projected off the longer, unscaled
    lo, s = _project_off(lo, (hi,), (hh,), ll)
    is_open = not s > ANNIHILATION_SQ * ll
    if is_open and not w_short:
        m_u = orthonormal_to(n_u)
        return m_u, m_u.copy(), False
    # lo * f_lo and hi * f_hi are the unit vectors; the factors are folded
    # into the two coefficients below
    f_hi = 0.5 / (sin_h if w_short else cos_h)
    if not is_open:
        f_lo = 1.0 / math.sqrt(s)
    elif sigma is None:
        raise GeometryError("antipodal directions need a tie-break vector sigma")
    else:
        hi = hi * f_hi
        lo = complement_unit(sigma, (hi,))
        f_lo = f_hi = 1.0
    (w, f_w), (z, f_z) = ((lo, f_lo), (hi, f_hi)) if w_short else \
        ((hi, f_hi), (lo, f_lo))
    a_w, a_z = sin_h * f_w, cos_h * f_z
    return a_w * w - a_z * z, -a_w * w - a_z * z, is_open
