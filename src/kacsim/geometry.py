"""Collision geometry on the unit sphere.

Binary elastic collisions preserve the pair momentum and the pair energy, so a
post-collisional state is fixed by a single unit vector: the new direction of
the relative velocity.  This module provides

* the collision map (pair of velocities + outgoing direction -> new pair),
* samplers for the outgoing direction at a prescribed deflection angle,
* the rank-2 rotation that transports one unit vector onto another inside
  their common plane, and
* the coupled direction sampler that drives two systems with the same
  deflection angle, the same azimuth and the same out-of-plane component.

All functions broadcast over leading axes: vectors may be shaped ``(d,)`` or
``(..., d)``.  Dimensions d >= 3 are supported throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GeometryError",
    "RotationDescriptor",
    "CollisionFrame",
    "check_unit",
    "check_frame",
    "post_collision_velocities",
    "build_direction",
    "orthonormal_to",
    "complement_unit",
    "sample_azimuth_cos",
    "sample_post_direction",
    "transport_frames",
    "parallel_transport_map",
    "coupled_post_directions",
]

# Unit vectors are accepted when their norm is within this of 1.
UNIT_TOL = 1e-12
# Orthonormal frames are accepted when every Gram defect is within this.
FRAME_TOL = 1e-10
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


def check_unit(n, tol=UNIT_TOL):
    """Validate that ``n`` has unit norm (within ``tol``) and d >= 3."""
    n = np.asarray(n, dtype=np.float64)
    if n.shape[-1] < 3:
        raise GeometryError(f"dimension must be >= 3, got {n.shape[-1]}")
    err = np.max(np.abs(_norm(n) - 1.0))
    if err > tol:
        raise GeometryError(f"vector norm off unit sphere by {err:.3e}")
    return n


def check_frame(n, m, l, tol=FRAME_TOL):
    """Validate that (n, m, l) is an orthonormal triple within ``tol``."""
    defects = [
        np.max(np.abs(_norm(v) - 1.0)) for v in (n, m, l)
    ] + [
        np.max(np.abs(np.sum(a * b, axis=-1)))
        for a, b in ((n, m), (n, l), (m, l))
    ]
    worst = max(defects)
    if worst > tol:
        raise GeometryError(f"frame Gram defect {worst:.3e} exceeds {tol:.1e}")


def post_collision_velocities(v, v_star, n_prime):
    """Apply the elastic collision map to a velocity pair.

    The pair sum and the modulus of the pair difference are conserved; the
    direction of the difference is replaced by ``n_prime``::

        v'      = (v + v*)/2 + |v - v*|/2 * n'
        v'_star = (v + v*)/2 - |v - v*|/2 * n'

    A coincident pair (v == v*) is legal and maps to itself regardless of
    ``n_prime``.
    """
    v = np.asarray(v, dtype=np.float64)
    v_star = np.asarray(v_star, dtype=np.float64)
    s = v + v_star
    r = _norm(v - v_star)[..., None]
    half = 0.5 * r * np.asarray(n_prime, dtype=np.float64)
    return 0.5 * s + half, 0.5 * s - half


def build_direction(n, m, l, theta, phi):
    """Assemble cos(theta) n + sin(theta) (cos(phi) m + sin(phi) l).

    (n, m, l) must be orthonormal; the result is then a unit vector making
    angle theta with n, with azimuth phi measured from m toward l.
    """
    theta = np.asarray(theta, dtype=np.float64)[..., None]
    phi = np.asarray(phi, dtype=np.float64)[..., None]
    return np.cos(theta) * n + np.sin(theta) * (np.cos(phi) * m + np.sin(phi) * l)


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
    1e-12; the C event loops stop there too.
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


def sample_post_direction(n, theta, rng):
    """Draw an outgoing direction at deflection angle ``theta`` from ``n``.

    The direction is cos(theta) n + sin(theta) w with w uniform on the unit
    sphere of the hyperplane orthogonal to n.  w is assembled from an
    azimuth phi (density proportional to sin(phi)^(d-3)) in a fixed reference
    plane and a uniform direction l orthogonal to that plane, which
    reproduces the uniform law on the (d-2)-sphere.
    """
    n = np.asarray(n, dtype=np.float64)
    d = n.shape[-1]
    m = orthonormal_to(n)
    l = complement_unit(rng.standard_normal(n.shape), (n, m))
    cphi = sample_azimuth_cos(d, rng, size=n.shape[:-1] or None)
    phi = np.arccos(np.clip(cphi, -1.0, 1.0))
    return build_direction(n, m, l, theta, phi)


@dataclass(frozen=True)
class RotationDescriptor:
    """Rotation acting in the plane spanned by two orthonormal vectors.

    Stores the plane basis (e1, e2) and the rotation angle instead of a dense
    d x d matrix; the complement of the plane is fixed pointwise.  ``angle``
    rotates e1 toward e2.
    """

    e1: np.ndarray
    e2: np.ndarray
    angle: float

    def apply(self, x):
        x = np.asarray(x, dtype=np.float64)
        a = np.sum(x * self.e1, axis=-1)[..., None]
        b = np.sum(x * self.e2, axis=-1)[..., None]
        perp = x - a * self.e1 - b * self.e2
        c, s = np.cos(self.angle), np.sin(self.angle)
        return perp + (a * c - b * s) * self.e1 + (a * s + b * c) * self.e2

    def inverse(self):
        return RotationDescriptor(self.e1, self.e2, -self.angle)


@dataclass(frozen=True)
class CollisionFrame:
    """Orthonormal triple (n, m, l) together with the angles of one event.

    ``n`` is the incoming relative-velocity direction, ``m`` the in-plane
    azimuth reference and ``l`` the out-of-plane component; ``theta`` is the
    deflection angle and ``phi`` the azimuth measured from m toward l.  The
    triple is validated on construction.
    """

    n: np.ndarray
    m: np.ndarray
    l: np.ndarray
    theta: float
    phi: float

    def __post_init__(self):
        check_frame(self.n, self.m, self.l)

    def direction(self):
        """Outgoing unit direction encoded by this frame."""
        return build_direction(self.n, self.m, self.l, self.theta, self.phi)


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


def parallel_transport_map(n_u, n_v, sigma=None):
    """Rotation descriptor for the elementary rotation taking n_u to n_v.

    The rotation acts in span(n_u, n_v) along the shorter geodesic and fixes
    the orthogonal complement.  For antipodal inputs the rotation plane is
    not unique; ``sigma`` breaks the tie (its component orthogonal to n_u
    spans the plane together with n_u) and the angle is pi.  Swapping the
    arguments yields the inverse map.
    """
    n_u = check_unit(n_u)
    n_v = check_unit(n_v)
    m_u, _, c = transport_frames(n_u, n_v, sigma)
    angle = float(np.arccos(np.clip(c, -1.0, 1.0)))
    return RotationDescriptor(e1=n_u, e2=m_u, angle=angle)


def coupled_post_directions(n_u, n_v, theta, rng):
    """Sample outgoing directions for two systems from one set of randomness.

    Both directions use the same deflection angle ``theta``, the same azimuth
    phi ~ sin(phi)^(d-3) and the same out-of-plane unit vector l, expressed in
    the transported frames (n_u, m_u) and (n_v, m_v)::

        n'_u = cos(theta) n_u + sin(theta) (cos(phi) m_u + sin(phi) l)
        n'_v = cos(theta) n_v + sin(theta) (cos(phi) m_v + sin(phi) l)

    Each output is marginally distributed as a single-system draw at angle
    theta.  The construction satisfies the exact inner-product balance::

        <n'_u, n'_v> - <n_u, n_v> = -sin(theta)^2 sin(phi)^2 (<n_u, n_v> - 1)

    so the coupled directions never drift apart.  Axes that agree to within
    the parallel cutoff receive the identical output, and both outputs are
    renormalized, so coincident copies can never separate.
    """
    n_u = np.asarray(n_u, dtype=np.float64)
    n_v = np.asarray(n_v, dtype=np.float64)
    d = n_u.shape[-1]
    c = np.dot(n_u, n_v)
    sigma = rng.standard_normal(d) if 1.0 + c < ANTIPODAL_EPS else None
    m_u, m_v, _ = transport_frames(n_u, n_v, sigma)
    l = complement_unit(rng.standard_normal(n_u.shape), (n_u, m_u))
    cphi = float(sample_azimuth_cos(d, rng))
    phi = np.arccos(np.clip(cphi, -1.0, 1.0))
    out_u = build_direction(n_u, m_u, l, theta, phi)
    out_u = out_u / _norm(out_u)
    if 1.0 - c < PARALLEL_EPS:
        return out_u, out_u.copy()
    out_v = build_direction(n_v, m_v, l, theta, phi)
    out_v = out_v / _norm(out_v)
    return out_u, out_v

