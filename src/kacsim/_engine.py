"""Event loops for the single and coupled collision dynamics.

The drivers in :mod:`kacsim.system` pre-draw batches of randomness with a
numpy Generator and hand them to the advance functions below, which consume
one slot per event.  Keeping the random stream outside the compiled code
makes the python reference stepper and the compiled loop consume draws in
exactly the same order, so the two paths can be compared event by event.

The loops are written in C (``_engine.c``, next to this file) and loaded
through ctypes.  The shared library is compiled with ``cc`` on first import
and cached in this package's ``__pycache__`` under a hash of the source, so
later imports only load it.  If the compiler or the load fails, a
RuntimeWarning names the error and the advance functions drive the python
reference steppers ``system.step_kac``/``system.step_coupled`` over the
same batch instead: same results to rounding, about a thousand times
slower.  ``BACKEND`` names the active engine, ``"c"`` or ``"python"``.

Accumulator layout (float64 arrays mutated in place):

single copy  acc[0] max relative pair conservation error
             acc[1] events processed
coupled      acc[0] max |coupling identity residual| over generic events
             acc[1] max signed pair distance increment over generic events
             acc[2] max relative pair conservation error (both copies)
             acc[3] count of antipodal events (resolved with a random plane;
                    the transported-frame identity does not apply to them)
             acc[4] events processed
             acc[5] max signed pair distance increment over antipodal events
             acc[6] event time at which acc[0] was attained
             acc[7] event time at which acc[1] was attained

Conservation errors are relative: energy errors against the pair energy,
momentum errors against the pair RMS speed, so the check is scale free.

Status codes returned by the advance functions: 0 = reached t_stop,
1 = random batch exhausted, 2 = event budget reached.  A pair index
outside [0, n) raises IndexError (C status -1).  A Gaussian that keeps
|w| <= 1e-12 after projection orthogonal to the frame (``g_l`` in
span(n, m), or an antipodal ``g_sigma`` along n_u) raises
geometry.GeometryError (C status -2), as geometry.complement_unit does.
Both errors name the batch slot and leave its pair unchanged.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from .geometry import GeometryError

# numba is no longer used; perfbench/run.py still reads this flag
HAVE_NUMBA = False

_SOURCE = Path(__file__).with_name("_engine.c")
_CACHE_DIR = Path(__file__).with_name("__pycache__")
_CC = "cc"
# -ffp-contract=off keeps the compiler from fusing a*b + c, so the
# arithmetic rounds exactly as the python reference spells it
_CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")

_ptr = ctypes.c_void_p
_i64 = ctypes.c_int64
_f64 = ctypes.c_double
_SIGNATURES = {
    "kac_advance_kac": (_ptr, _i64, _i64, _ptr, _f64, _f64, _f64,
                        _ptr, _ptr, _ptr, _ptr, _ptr, _ptr, _i64,
                        _ptr, _i64, _ptr, _ptr),
    "kac_advance_coupled": (_ptr, _ptr, _i64, _i64, _ptr, _f64, _f64, _f64,
                            _ptr, _ptr, _ptr, _ptr, _ptr, _ptr, _ptr, _i64,
                            _ptr, _i64, _ptr, _ptr),
}


def _library_path(cache_dir):
    """Cache path of the shared library: a hash of source, flags and host."""
    h = hashlib.sha256(_SOURCE.read_bytes())
    h.update(" ".join((_CC,) + _CFLAGS + (sys.platform, platform.machine()))
             .encode())
    return Path(cache_dir) / f"_engine_{h.hexdigest()[:16]}.so"


def _compile(target):
    """Build the library into ``target`` through a private temporary file,
    so processes that compile at once never load a partial file."""
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=".engine-",
                               suffix=".so")
    os.close(fd)
    try:
        proc = subprocess.run([_CC, *_CFLAGS, "-o", tmp, str(_SOURCE), "-lm"],
                              capture_output=True, text=True)
        if proc.returncode != 0:
            raise OSError(f"{_CC} exited with status {proc.returncode}: "
                          f"{proc.stderr.strip()}")
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load_library(cache_dir=_CACHE_DIR):
    """The compiled event loops, building them first if the cache is cold."""
    path = _library_path(cache_dir)
    if not path.exists():
        _compile(path)
    lib = ctypes.CDLL(str(path))
    for name, argtypes in _SIGNATURES.items():
        func = getattr(lib, name)
        func.argtypes = argtypes
        func.restype = ctypes.c_int
    return lib


def _select_backend(cache_dir=_CACHE_DIR):
    """Load the C loops, or warn and fall back to the python steppers."""
    global _LIB, BACKEND
    try:
        _LIB, BACKEND = load_library(cache_dir), "c"
    except OSError as exc:
        _LIB, BACKEND = None, "python"
        warnings.warn(f"kacsim: the C event loop is unavailable ({exc}); "
                      "running the python reference stepper, about 1000x "
                      "slower", RuntimeWarning, stacklevel=2)


_LIB = None
BACKEND = "python"
_select_backend()


def _state(name, x, ndim):
    """Check an array the loop writes to; it must not be a converted copy."""
    if not (isinstance(x, np.ndarray) and x.dtype == np.float64
            and x.ndim == ndim and x.flags.c_contiguous and x.flags.writeable):
        raise TypeError(f"{name} must be a writeable C-contiguous float64 "
                        f"array with {ndim} dimension(s)")


def _batch(nb, d, cursor, thetas, cphis, exps, pi, pj, *gaussians):
    """Contiguous copies (only where needed) of one batch, shape-checked."""
    if cursor < 0:
        raise ValueError(f"cursor must be nonnegative, got {cursor}")
    out = [np.ascontiguousarray(a, dtype=np.float64)
           for a in (thetas, cphis, exps)]
    out += [np.ascontiguousarray(a, dtype=np.int64) for a in (pi, pj)]
    out += [np.ascontiguousarray(g, dtype=np.float64) for g in gaussians]
    for a in out[:5]:
        if a.shape != (nb,):
            raise ValueError(f"batch arrays must have shape ({nb},), "
                             f"got {a.shape}")
    for g in out[5:]:
        if g.shape != (nb, d):
            raise ValueError(f"batch Gaussians must have shape ({nb}, {d}), "
                             f"got {g.shape}")
    return out


def _finish(clock, ctr, status):
    if status == -1:
        raise IndexError(f"pair index out of range at batch slot {ctr[0]}")
    if status == -2:
        raise GeometryError("complement projection annihilated the sample "
                            f"at batch slot {ctr[0]}")
    return float(clock[0]), float(clock[1]), int(ctr[0]), int(ctr[1]), status


def advance_kac(v, t, t_next, t_stop, rate, max_events,
                thetas, cphis, exps, pi, pj, gl,
                cursor, proj_ctr, proj_every, acc):
    """Process collision events on a single copy until a stop condition.

    Returns (t, t_next, cursor, proj_ctr, status).
    """
    return _advance((v,), t, t_next, t_stop, rate, max_events,
                    thetas, cphis, exps, pi, pj, (gl,),
                    cursor, proj_ctr, proj_every, acc)


def advance_coupled(u, v, t, t_next, t_stop, rate, max_events,
                    thetas, cphis, exps, pi, pj, gl, gs,
                    cursor, proj_ctr, proj_every, acc):
    """Process events on two copies driven by the same randomness.

    The frames follow the rule of geometry.transport_frames: generic frames
    from the shared plane, a deterministic common axis for coincident
    directions, and a plane completed with ``gs`` for antipodal ones.
    Coincident directions give both copies the identical outgoing
    direction, and all outgoing directions are renormalized before the
    update, so pair conservation holds to rounding in every branch.

    Returns (t, t_next, cursor, proj_ctr, status).
    """
    return _advance((u, v), t, t_next, t_stop, rate, max_events,
                    thetas, cphis, exps, pi, pj, (gl, gs),
                    cursor, proj_ctr, proj_every, acc)


def _advance(states, t, t_next, t_stop, rate, max_events,
             thetas, cphis, exps, pi, pj, gaussians,
             cursor, proj_ctr, proj_every, acc):
    """Check the arrays and run the C loop (or the fallback) for one or two
    copies; the C functions differ only in those two argument groups."""
    coupled = len(states) == 2
    for name, x in zip(("u", "v") if coupled else ("v",), states):
        _state(name, x, 2)
    _state("acc", acc, 1)
    if coupled and states[0].shape != states[1].shape:
        raise ValueError(f"copies differ in shape: {states[0].shape} vs "
                         f"{states[1].shape}")
    n, d = states[0].shape
    if _LIB is None:
        return _python_advance(states, t, t_next, t_stop, rate, max_events,
                               thetas, cphis, exps, pi, pj, gaussians,
                               cursor, proj_ctr, proj_every, acc)
    nb = np.shape(thetas)[0]
    batch = _batch(nb, d, cursor, thetas, cphis, exps, pi, pj, *gaussians)
    if coupled and acc.shape[0] < 8:
        raise ValueError("coupled accumulator needs 8 slots")
    if acc.shape[0] < 2:
        raise ValueError("single-copy accumulator needs 2 slots")
    clock = np.array([t, t_next], dtype=np.float64)
    ctr = np.array([cursor, proj_ctr], dtype=np.int64)
    work = np.empty((9 if coupled else 5) * d)
    loop = _LIB.kac_advance_coupled if coupled else _LIB.kac_advance_kac
    status = loop(
        *(x.ctypes.data for x in states), n, d, clock.ctypes.data, t_stop,
        rate, max_events, *(a.ctypes.data for a in batch), nb,
        ctr.ctypes.data, proj_every, acc.ctypes.data, work.ctypes.data)
    return _finish(clock, ctr, status)


# --- fallback: the python reference steppers over the same batch ------------

def _pair_error(before, after):
    """Relative energy/momentum change of one particle pair (2, d)."""
    e_old = float(np.sum(before * before))
    e_new = float(np.sum(after * after))
    mom = float(np.max(np.abs(after.sum(axis=0) - before.sum(axis=0))))
    return max(abs(e_new - e_old) / (e_old + 1e-300),
               mom / (np.sqrt(e_old) + 1e-300))


def _draws(cursor, i, j, thetas, cphis, exps, *gaussians):
    """One batch slot in the ``draws`` layout of the reference steppers."""
    j0 = j - 1 if j > i else j
    return ((float(exps[cursor]), i, j0, float(thetas[cursor]),
             float(cphis[cursor])) + tuple(g[cursor] for g in gaussians))


def _python_advance(states, t, t_next, t_stop, rate, max_events,
                    thetas, cphis, exps, pi, pj, gaussians,
                    cursor, proj_ctr, proj_every, acc):
    from .system import project_to_constraint_sphere, step_coupled, step_kac

    coupled = len(states) == 2
    count = 4 if coupled else 1     # acc slot of the event count
    while True:
        if t_next > t_stop:
            return t_stop, t_next, cursor, proj_ctr, 0
        if acc[count] >= max_events:
            return t, t_next, cursor, proj_ctr, 2
        if cursor >= len(thetas):
            return t, t_next, cursor, proj_ctr, 1
        t = t_next
        i, j = int(pi[cursor]), int(pj[cursor])
        before = [x[[i, j]] for x in states]
        draws = _draws(cursor, i, j, thetas, cphis, exps, *gaussians)
        try:
            if coupled:
                t_next, _, delta, resid = step_coupled(
                    *states, None, t=t, rate=rate, draws=draws)
            else:
                t_next, _ = step_kac(*states, None, t=t, rate=rate,
                                     draws=draws)
        except GeometryError as exc:
            raise GeometryError(f"{exc} at batch slot {cursor}") from exc
        err = max(_pair_error(b, x[[i, j]]) for b, x in zip(before, states))
        if not coupled:
            acc[0] = max(acc[0], err)
        else:
            acc[2] = max(acc[2], err)
            if resid is None:
                acc[3] += 1.0
                acc[5] = max(acc[5], delta)
            else:
                if abs(resid) > acc[0]:
                    acc[0], acc[6] = abs(resid), t
                if delta > acc[1]:
                    acc[1], acc[7] = delta, t
        acc[count] += 1.0
        proj_ctr += 1
        if proj_ctr >= proj_every:
            for x in states:
                project_to_constraint_sphere(x)
            proj_ctr = 0
        cursor += 1
