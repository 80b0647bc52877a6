"""Collision geometry on the unit sphere.

Binary elastic collisions preserve the pair momentum and the pair energy, so a
post-collisional state is fixed by a single unit vector: the new direction of
the relative velocity.  The collision rule itself lives in the python
reference steppers ``system.step_kac``/``system.step_coupled`` and the C loop
of :mod:`kacsim._engine`; this module provides the frame pieces they share:

* ``orthonormal_to``, a deterministic unit vector orthogonal to an axis,
* ``complement_unit``, a Gaussian projected off an orthonormal set and
  normalized (uniform on the sphere of the complement),
* ``sample_azimuth_cos``, the azimuth law with density sin(phi)^(d-3), and
* ``transport_frames``, the in-plane vectors of the rotation that carries
  one relative direction onto the other, built from the half-angle basis
  (n_u + n_v, n_u - n_v) and exact at every angle; only identical and
  antipodal directions, where the plane is not fixed, are completed.

Vectors are single arrays of shape ``(d,)``; ``sample_azimuth_cos`` draws
any number of samples.  Dimensions d >= 3 are supported throughout.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "GeometryError",
    "orthonormal_to",
    "complement_unit",
    "sample_azimuth_cos",
    "transport_frames",
]

# complement_unit projects a second time when the first projection keeps
# less than this fraction of |g|^2; below it the first pass can leave the
# result off-orthogonal by more than 1e-12 (eps / sqrt(REORTHO_RATIO)).
REORTHO_RATIO = 1e-8


class GeometryError(ValueError):
    """Raised when a vector or frame violates its construction contract."""


def orthonormal_to(n):
    """Deterministic unit vector orthogonal to ``n``.

    Projects out the coordinate axis along which ``n`` is smallest, which
    keeps the construction well conditioned for every input.
    """
    n = np.asarray(n, dtype=np.float64)
    k = int(np.argmin(np.abs(n)))
    w = -n[k] * n
    w[k] += 1.0
    return w / np.sqrt(np.sum(w * w))


def complement_unit(gauss, basis):
    """Normalize ``gauss`` after projecting out the vectors in ``basis``.

    ``basis`` is an iterable of mutually orthonormal vectors.  For a standard
    Gaussian input the result is uniform on the unit sphere of the orthogonal
    complement.  Raises GeometryError when the projection is shorter than
    1e-12; the C event loop stops there too.
    """
    g = np.asarray(gauss, dtype=np.float64)
    w = g.copy()
    for b in basis:
        w -= np.sum(w * b) * b
    # rounding leaves w a component along the basis of relative size
    # eps |g| / |w|; where g lies nearly in the basis span that component
    # would break the frame identities, so project once more
    if np.sum(w * w) < REORTHO_RATIO * np.sum(g * g):
        for b in basis:
            w -= np.sum(w * b) * b
    nrm = np.sqrt(np.sum(w * w))
    if nrm < 1e-12:
        raise GeometryError("complement projection annihilated the sample")
    return w / nrm


def sample_azimuth_cos(d, rng, size=None):
    """Sample cos(phi) for the azimuth law with density sin(phi)^(d-3) on [0, pi].

    Uses the exact map cos(phi) = 1 - 2 B with B ~ Beta((d-2)/2, (d-2)/2).
    """
    if d < 3:
        raise GeometryError(f"dimension must be >= 3, got {d}")
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
    ww, zz = float(w @ w), float(z @ z)
    cos_h, sin_h = 0.5 * np.sqrt(ww), 0.5 * np.sqrt(zz)
    w_short = ww < zz
    (lo, ll), (hi, hh) = ((w, ww), (z, zz)) if w_short else ((z, zz), (w, ww))
    # complement_unit's rule on lo / |lo| against hi / |hi|, unscaled
    for _ in range(2):
        lo = lo - (np.sum(lo * hi) / hh) * hi
        s = float(np.sum(lo * lo))
        if not s < REORTHO_RATIO * ll:
            break
    is_open = not s > 1e-24 * ll
    if is_open and not w_short:
        m_u = orthonormal_to(n_u)
        return m_u, m_u.copy(), False
    hi = hi * (0.5 / (sin_h if w_short else cos_h))
    if not is_open:
        lo = lo * (1.0 / np.sqrt(s))
    elif sigma is None:
        raise GeometryError("antipodal directions need a tie-break vector sigma")
    else:
        lo = complement_unit(sigma, (hi,))
    w_hat, z_hat = (lo, hi) if w_short else (hi, lo)
    return (sin_h * w_hat - cos_h * z_hat, -sin_h * w_hat - cos_h * z_hat,
            is_open)
