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
  one relative direction onto the other, with its parallel and antipodal
  branches.

``orthonormal_to``, ``complement_unit`` and ``sample_azimuth_cos`` broadcast
over leading axes (vectors shaped ``(d,)`` or ``(..., d)``);
``transport_frames`` takes two single vectors of shape ``(d,)``.
Dimensions d >= 3 are supported throughout.
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

# Two directions count as antipodal when 1 + <n_u, n_v> falls below this;
# the transport plane is then completed with an independent random direction.
ANTIPODAL_EPS = 1e-9
# Two directions count as identical when 1 - <n_u, n_v> falls below this;
# the transport degenerates to the identity.  The cut keeps the Gram-Schmidt
# step well conditioned while bounding the induced inner-product error by
# PARALLEL_EPS itself.
PARALLEL_EPS = 1e-13
# complement_unit projects a second time when the first projection keeps
# less than this fraction of |g|^2; below it the first pass can leave the
# result off-orthogonal by more than 1e-12 (eps / sqrt(REORTHO_RATIO)).
REORTHO_RATIO = 1e-8


class GeometryError(ValueError):
    """Raised when a vector or frame violates its construction contract."""


def _norm(x, axis=-1):
    return np.sqrt(np.sum(x * x, axis=axis))


def orthonormal_to(n):
    """Deterministic unit vector orthogonal to ``n``.

    Projects out the coordinate axis along which ``n`` is smallest, which
    keeps the construction well conditioned for every input.
    """
    n = np.asarray(n, dtype=np.float64)
    d = n.shape[-1]
    k = np.argmin(np.abs(n), axis=-1)
    e = np.zeros(n.shape)
    np.put_along_axis(e, k[..., None], 1.0, axis=-1)
    w = e - np.sum(e * n, axis=-1)[..., None] * n
    return w / _norm(w)[..., None]


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
        w -= np.sum(w * b, axis=-1)[..., None] * b
    # rounding leaves w a component along the basis of relative size
    # eps |g| / |w|; where g lies nearly in the basis span that component
    # would break the frame identities, so project once more
    again = np.sum(w * w, axis=-1) < REORTHO_RATIO * np.sum(g * g, axis=-1)
    if np.any(again):
        w2 = w.copy()
        for b in basis:
            w2 -= np.sum(w2 * b, axis=-1)[..., None] * b
        w = np.where(again[..., None], w2, w)
    nrm = _norm(w)
    if np.any(nrm < 1e-12):
        raise GeometryError("complement projection annihilated the sample")
    return w / nrm[..., None]


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

    When the inputs are antipodal the plane is not unique and is completed
    with the tie-break vector ``sigma`` (projected orthogonal to n_u), with
    m_v = -m_u.  When the inputs coincide the transport is the identity and
    m_v = m_u.
    """
    c = float(np.clip(np.dot(n_u, n_v), -1.0, 1.0))
    if 1.0 - c < PARALLEL_EPS:
        m_u = orthonormal_to(n_u)
        return m_u, m_u.copy(), c
    if 1.0 + c < ANTIPODAL_EPS:
        if sigma is None:
            raise GeometryError("antipodal directions need a tie-break vector sigma")
        m_u = complement_unit(sigma, (n_u,))
        return m_u, -m_u, c
    w_u = n_v - c * n_u
    m_u = w_u / _norm(w_u)
    w_v = n_u - c * n_v
    m_v = -w_v / _norm(w_v)
    return m_u, m_v, c
