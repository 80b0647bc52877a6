"""The compiled kernels: one event loop for the single and the coupled
collision dynamics, one pass over the particle pairs, and the assignment
solver that pairs the slots of two copies.

The drivers in :mod:`kacsim.system` pre-draw batches of randomness with a
numpy Generator and hand each, as ``draw_event_batch`` returns it, to the
advance functions below, which consume one slot per event.  Drawing outside
the compiled code makes the python reference stepper and the compiled loop
consume draws in one order; as they also round alike, they agree bit for bit.

The loop is one C function, ``kac_advance`` in ``_engine.c`` (next to this
file), which takes the batch's arrays in draw order (exps, ii, jj, thetas,
cphis, gl, gs), for one copy or two: ``advance_kac`` passes NULL for the
second copy and for ``gs``, which one copy never reads; ``advance_coupled``
passes both.  It is loaded through
ctypes; the shared library is compiled with ``cc`` on first import and
cached in this package's ``__pycache__`` under a hash of the sources, so
later imports only load it; a build deletes the libraries of earlier
sources there.  If the compiler or the load fails, a
RuntimeWarning names the error and the advance functions run the python
reference stepper ``system._collide`` on each slot of the same batch
instead, reprojecting by ``system.project_to_constraint_sphere``: the
same results bit for bit (final states, times and every accumulator
slot), about a thousand times slower.  ``BACKEND`` names the
active engine, ``"c"`` or ``"python"``.

The pair pass is ``kac_pair_sums``, behind ``pair_sums``: the weighted
sums over all particle pairs that ``analysis.pair_statistics`` records
(two pair moments, the creation integrand and the alignment area), in one
i < j loop and O(N) memory, for one configuration or a stack of them in
one call.  Integral exponents are raised by repeated squaring, others by
``pow``.  The loop takes rows i a few at a time in vector lanes, one row
per lane, reading them from a small transposed tile in a work buffer that
``pair_sums`` allocates; every lane streams the j's in order and adds
exactly +0.0 for the pairs its row does not own, so each row is summed in
j order.  The loop is spelled once, in ``_pair_pass.h``, and built at
three widths: two 2-double vectors on every CPU and, on x86-64, two
4-double vectors for AVX2 and two 8-double vectors for AVX-512F.
``_engine.c`` builds both vector kernels, this pass and the slot
pairing's solver, from one block per width, which includes ``_width.h``.
``kac_pair_sums`` runs the widest the CPU has, 16-row blocks
from 32 rows on and 8-row blocks from 8 (below those, a block's dead
lanes cost more than its wider vectors save).  Every width gives the same
sums bit for bit; ``kac_widths`` names the widths the CPU runs, and the
tests run each through its own entry point.  On the python backend
``pair_sums`` runs ``_python_pair_sums``, the pass in numpy in the lanes'
arithmetic order, which gives the same sums bit for bit.

The slot pairing is ``kac_assign``, behind ``assign``: scipy's shortest
augmenting path solver for the square linear sum assignment
(``scipy.optimize.linear_sum_assignment``) with the same duals, arithmetic
and tie rule, so it returns scipy's permutation, ties included, without
loading scipy.optimize.  Each search scans its columns in index order,
in branch-free vector lanes that carry every column's place in scipy's
scan order for the tie rule; the solver and its search are spelled once,
in ``_assign_path.h``, and built at the pair pass's three widths, and
``kac_assign`` runs the widest the CPU has.  On the python
backend ``assign`` runs scipy's loop in numpy, the same permutation,
about seventy times slower at N = 256.

Accumulator layout (a float64 array of 8 slots, mutated in place; a single
copy fills only acc[2] and acc[4] and leaves the pair-distance slots alone):

    acc[0] max |coupling identity residual| over all events
    acc[1] max signed pair distance increment over all events
    acc[2] max relative pair conservation error (over the copies)
    acc[3] count of antipodal events, whose frame plane was completed with
           the Gaussian ``gs`` (they count in acc[0] and acc[1] too)
    acc[4] events processed
    acc[5] max signed pair distance increment over antipodal events
    acc[6] event time at which acc[0] was attained
    acc[7] event time at which acc[1] was attained

Conservation errors are relative: energy errors against the pair energy,
momentum errors against the pair RMS speed, so the check is scale free.

Status codes returned by the advance functions: 0 = reached t_stop,
1 = random batch exhausted, 2 = event budget reached.  A pair index
outside [0, n) raises IndexError (C status -1).  A Gaussian that keeps
|w|^2 <= geometry.ANNIHILATION_SQ after projection orthogonal to the
frame (``g_l`` in span(n, m), or an antipodal ``g_sigma`` along n_u) raises
geometry.GeometryError (C status -2), as geometry.complement_unit does.
Both errors name the batch slot and leave its pair unchanged.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import platform
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from .geometry import GeometryError, sequential_sum

# numba is no longer used; perfbench/run.py still reads this flag
HAVE_NUMBA = False

_SOURCE = Path(__file__).with_name("_engine.c")
# the headers _engine.c includes once per vector width: the width's block,
# and the pair pass and the assignment solver it builds
_HEADERS = tuple(_SOURCE.with_name(name)
                 for name in ("_width.h", "_pair_pass.h", "_assign_path.h"))
_CACHE_DIR = Path(__file__).with_name("__pycache__")
_CC = "cc"
# -ffp-contract=off keeps the compiler from fusing a*b + c, so the
# arithmetic rounds exactly as the python reference spells it;
# -fno-math-errno lets sqrt compile to the instruction (in the pair pass's
# lanes, the vector one), which rounds the same
_CFLAGS = ("-O2", "-ffp-contract=off", "-fno-math-errno", "-shared", "-fPIC")

_ptr = ctypes.c_void_p
_i64 = ctypes.c_int64
_f64 = ctypes.c_double
_SIGNATURES = {
    "kac_advance": (_ptr, _ptr, _i64, _i64, _ptr, _f64, _f64, _f64,
                    _ptr, _ptr, _ptr, _ptr, _ptr, _ptr, _ptr, _i64,
                    _ptr, _i64, _ptr, _ptr),
    "kac_pair_sums": (_ptr, _ptr, _ptr, _i64, _i64, _i64, _f64, _f64, _ptr,
                      _ptr),
    "kac_assign": (_ptr, _i64, _ptr, _ptr, _ptr),
    "kac_widths": (),
}
_BYTES = ctypes.c_char * 0
# kac_pair_sums' work holds two (d, LANES) tiles, LANES = 16 rows each at
# the widest width
_PAIR_WORK = 32
# kac_assign's work holds six rows of doubles and its iwork six rows of
# int64s, each n + _ASSIGN_PAD long: the 8-wide scan reads its last vector
# up to 7 past the last column
_ASSIGN_ROWS = 6
_ASSIGN_PAD = 8


def _address(x):
    """A pointer argument to a C-contiguous array: a ctypes view of its
    buffer, about 0.6 us, or for a read-only array (which ctypes cannot
    view) numpy's ``ctypes.data``, about 2 us."""
    return _BYTES.from_buffer(x) if x.flags.writeable else x.ctypes.data


def _library_path(cache_dir):
    """Cache path of the shared library: a hash of the sources, flags and
    host."""
    h = hashlib.sha256(b"".join(path.read_bytes()
                                for path in (_SOURCE, *_HEADERS)))
    h.update(" ".join((_CC,) + _CFLAGS + (sys.platform, platform.machine()))
             .encode())
    return Path(cache_dir) / f"_engine_{h.hexdigest()[:16]}.so"


def _cc_command(target, *flags):
    """The command that builds the library into ``target``; ``flags`` go
    after the library's own."""
    return [_CC, *_CFLAGS, *flags, "-o", str(target), str(_SOURCE), "-lm"]


def _compile(target):
    """Build the library into ``target`` through a private temporary file,
    so processes that compile at once never load a partial file, then
    delete the libraries earlier sources left in the same directory."""
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=".engine-",
                               suffix=".so")
    os.close(fd)
    try:
        proc = subprocess.run(_cc_command(tmp), capture_output=True,
                              text=True)
        if proc.returncode != 0:
            raise OSError(f"{_CC} exited with status {proc.returncode}: "
                          f"{proc.stderr.strip()}")
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    for stale in target.parent.glob("_engine_*.so"):
        if stale != target:
            stale.unlink(missing_ok=True)


def load_library(cache_dir=_CACHE_DIR):
    """The compiled event loop, building it first if the cache is cold."""
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
    """Load the C loop, or warn and fall back to the python steppers."""
    global _LIB, BACKEND
    try:
        _LIB, BACKEND = load_library(cache_dir), "c"
    except OSError as exc:
        _LIB, BACKEND = None, "python"
        warnings.warn(f"kacsim: the C event loop is unavailable ({exc}); "
                      "running the python reference stepper, same results "
                      "bit for bit but about 1000x slower", RuntimeWarning,
                      stacklevel=2)


_LIB = None
BACKEND = "python"
_select_backend()


def _state(name, x, ndim):
    """Check an array the loop writes to; it must not be a converted copy."""
    if not (isinstance(x, np.ndarray) and x.dtype == np.float64
            and x.ndim == ndim and x.flags.c_contiguous and x.flags.writeable):
        raise TypeError(f"{name} must be a writeable C-contiguous float64 "
                        f"array with {ndim} dimension(s)")


def _batch(batch, d, cursor, coupled):
    """The batch as drawn, (exps, ii, jj, thetas, cphis, gl, gs), as
    contiguous arrays (copied only where needed), shape-checked, in the
    same order; one copy drops ``gs``, which it never reads."""
    if cursor < 0:
        raise ValueError(f"cursor must be nonnegative, got {cursor}")
    exps, ii, jj, thetas, cphis, gl, gs = batch
    out = [np.ascontiguousarray(exps, dtype=np.float64)]
    out += [np.ascontiguousarray(a, dtype=np.int64) for a in (ii, jj)]
    out += [np.ascontiguousarray(a, dtype=np.float64)
            for a in (thetas, cphis, gl) + ((gs,) if coupled else ())]
    nb = out[0].shape[0]
    for a in out[:5]:
        if a.shape != (nb,):
            raise ValueError(f"batch arrays must have shape ({nb},), "
                             f"got {a.shape}")
    for g in out[5:]:
        if g.shape != (nb, d):
            raise ValueError(f"batch Gaussians must have shape ({nb}, {d}), "
                             f"got {g.shape}")
    return out


def advance_kac(v, t, t_next, t_stop, rate, max_events, batch,
                cursor, proj_ctr, proj_every, acc):
    """Process collision events on a single copy until a stop condition.

    ``batch`` is a ``system.draw_event_batch`` tuple, whose ``gs`` is not
    read; ``acc`` has the 8-slot layout, and slots 2 and 4 are filled.
    Returns (t, t_next, cursor, proj_ctr, status).
    """
    return _advance((v,), t, t_next, t_stop, rate, max_events, batch,
                    cursor, proj_ctr, proj_every, acc)


def advance_coupled(u, v, t, t_next, t_stop, rate, max_events, batch,
                    cursor, proj_ctr, proj_every, acc):
    """Process events on two copies driven by the same randomness.

    ``batch`` is a ``system.draw_event_batch`` tuple.  The frames follow
    geometry.transport_frames, with ``gs`` completing the plane of
    antipodal directions; pair conservation and the coupling identity hold
    to rounding on every event.  Returns (t, t_next, cursor, proj_ctr,
    status).
    """
    return _advance((u, v), t, t_next, t_stop, rate, max_events, batch,
                    cursor, proj_ctr, proj_every, acc)


def _advance(states, t, t_next, t_stop, rate, max_events, batch,
             cursor, proj_ctr, proj_every, acc):
    """Check the arrays and run the C loop, or the fallback, on the copies."""
    coupled = len(states) == 2
    for name, x in zip(("u", "v") if coupled else ("v",), states):
        _state(name, x, 2)
    _state("acc", acc, 1)
    if acc.shape[0] < 8:
        raise ValueError("accumulator needs 8 slots")
    if coupled and states[0].shape != states[1].shape:
        raise ValueError(f"copies differ in shape: {states[0].shape} vs "
                         f"{states[1].shape}")
    n, d = states[0].shape
    batch = _batch(batch, d, cursor, coupled)
    if _LIB is None:
        return _python_advance(states, t, t_next, t_stop, rate, max_events,
                               batch, cursor, proj_ctr, proj_every, acc)
    v, gs = ((_address(states[1]), _address(batch[6])) if coupled
             else (None, None))
    # ctypes arrays pass to the loop as they are and read back as floats
    clock = (ctypes.c_double * 2)(t, t_next)
    ctr = (ctypes.c_int64 * 2)(cursor, proj_ctr)
    status = _LIB.kac_advance(
        _address(states[0]), v, n, d, clock, t_stop, rate, max_events,
        *map(_address, batch[:6]), gs, len(batch[0]), ctr, proj_every,
        _address(acc), (ctypes.c_double * (9 * d))())
    if status == -1:
        raise IndexError(f"pair index out of range at batch slot {ctr[0]}")
    if status == -2:
        raise GeometryError("complement projection annihilated the sample "
                            f"at batch slot {ctr[0]}")
    return float(clock[0]), float(clock[1]), int(ctr[0]), int(ctr[1]), status


def _python_advance(states, t, t_next, t_stop, rate, max_events, batch,
                    cursor, proj_ctr, proj_every, acc):
    """kac_advance in python: system._collide on each batch slot, with the
    same stops, accumulator updates and reprojection."""
    from .system import _collide, project_to_constraint_sphere

    exps, ii, jj, thetas, cphis, *gaussians = batch
    n = states[0].shape[0]
    while True:
        if t_next > t_stop:
            return t_stop, t_next, cursor, proj_ctr, 0
        if acc[4] >= max_events:
            return t, t_next, cursor, proj_ctr, 2
        if cursor >= len(thetas):
            return t, t_next, cursor, proj_ctr, 1
        i, j = int(ii[cursor]), int(jj[cursor])
        # numpy would wrap a negative index to another particle
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError(f"pair index out of range at batch slot {cursor}")
        t = t_next
        try:
            delta, resid, completed, err = _collide(
                states, i, j, float(thetas[cursor]), float(cphis[cursor]),
                *(g[cursor] for g in gaussians))
        except GeometryError as exc:
            raise GeometryError(f"{exc} at batch slot {cursor}") from exc
        if err > acc[2]:
            acc[2] = err
        if delta is not None:
            if abs(resid) > acc[0]:
                acc[0], acc[6] = abs(resid), t
            if delta > acc[1]:
                acc[1], acc[7] = delta, t
            if completed:
                acc[3] += 1.0
                if delta > acc[5]:
                    acc[5] = delta
        acc[4] += 1.0
        proj_ctr += 1
        if proj_ctr >= proj_every:
            for x in states:
                project_to_constraint_sphere(x)
            proj_ctr = 0
        t_next = t + float(exps[cursor]) / rate
        cursor += 1


def pair_sums(u, v, w, a, b):
    """The weighted pair sums of ``kac_pair_sums``.

    Returns a float64 array of 4: sums over all ordered pairs (i, j),
    weighted by w_i w_j, of |du|^(2a), |dv|^(2b), |du||dv| - du.dv and
    |du|^2 |dv|^2 - (du.dv)^2, with du = u_i - u_j and dv = v_i - v_j.
    With ``v`` None only the first is computed and the others are nan.
    A stack ``u`` of shape (s, n, d) (and ``v`` alike) gives an (s, 4)
    array from one call, each row equal to the call on its configuration;
    the weights are shared.  The sums assume a, b > 0
    (``analysis.pair_statistics`` checks).  On the python backend
    ``_python_pair_sums`` gives the same sums bit for bit.
    """
    u = np.ascontiguousarray(u, dtype=np.float64)
    w = np.ascontiguousarray(w, dtype=np.float64)
    if v is not None:
        v = np.ascontiguousarray(v, dtype=np.float64)
    if (u.ndim not in (2, 3) or w.shape != u.shape[-2:-1]
            or (v is not None and v.shape != u.shape)):
        raise ValueError(f"pair sums need u (n, d) or (s, n, d), v None or "
                         f"shaped as u and w (n,); got {u.shape}, "
                         f"{None if v is None else v.shape}, {w.shape}")
    out = np.full(u.shape[:-2] + (4,), np.nan)
    n, d = u.shape[-2:]
    if _LIB is None:
        _python_pair_sums(u.reshape(-1, n, d),
                          None if v is None else v.reshape(-1, n, d), w, a, b,
                          out.reshape(-1, 4))
        return out
    _LIB.kac_pair_sums(_address(u), None if v is None else _address(v),
                       _address(w), out.size // 4, n, d, a, b, _address(out),
                       _address(np.empty(_PAIR_WORK * d)))
    return out


@np.errstate(over="ignore", invalid="ignore")
def _python_pair_sums(u, v, w, a, b, out):
    """kac_pair_sums in python, into out, in the lanes' arithmetic order:
    row i sums w_j t_ij over j from +0.0, exactly +0.0 where j <= i (an
    inf or nan there adds nothing), and the rows add up in i order."""
    n, d = u.shape[1:]
    live = np.arange(n) > np.arange(n)[:, None]
    lanes = np.zeros((n, n + 1))
    for c, row in enumerate(out):
        # the pair dots, summed over k from zeros (np.sum sums pairwise)
        uu, vv, uv = np.zeros((3, n, n))
        for k in range(d):
            du = u[c, :, k, None] - u[c, :, k]
            uu += du * du
            if v is not None:
                dv = v[c, :, k, None] - v[c, :, k]
                vv += dv * dv
                uv += du * dv
        terms = [_power(uu, a)]
        if v is not None:
            uuvv = uu * vv
            terms += [_power(vv, b), np.sqrt(uuvv) - uv, uuvv - uv * uv]
        for m, t in enumerate(terms):
            lanes[:, 1:] = np.where(live, w * t, 0.0)
            rows = np.add.accumulate(lanes, axis=1)[:, -1]
            row[m] = 2.0 * sequential_sum(w * rows)


def _power(x, e):
    """x ** e as the lanes raise it: by repeated squaring under
    integer_exponent's rule, else by libm pow on each element (numpy's
    power can round unlike libm), inf where pow overflows, as in C."""
    if not (0.0 <= e <= 1024.0 and e == math.floor(e)):
        out = x.ravel().tolist()
        for i, t in enumerate(out):
            try:
                out[i] = math.pow(t, e)
            except OverflowError:
                out[i] = math.inf
        return np.reshape(out, x.shape)
    k, r = int(e), np.ones_like(x)
    while k:
        if k & 1:
            r = r * x
        k >>= 1
        x = x * x
    return r


def assign(cost):
    """The permutation ``kac_assign`` finds: perm minimizing
    sum_i cost[i, perm[i]] over a finite square cost matrix, as an int64
    array.  It equals scipy.optimize.linear_sum_assignment's column indices
    (``assignment.solve_assignment`` checks the matrix)."""
    cost = np.ascontiguousarray(cost, dtype=np.float64)
    n = cost.shape[0]
    perm = np.empty(n, dtype=np.int64)
    if _LIB is None:
        status = _python_assign(cost, perm)
    else:
        m = _ASSIGN_ROWS * (n + _ASSIGN_PAD)
        status = _LIB.kac_assign(_address(cost), n, _address(perm),
                                 _address(np.empty(m)),
                                 _address(np.empty(m, dtype=np.int64)))
    if status:
        raise ValueError("the cost matrix admits no finite assignment")
    return perm


def _python_assign(cost, col4row):
    """scipy's loop in numpy, the oracle of kac_assign: each augmenting path
    scans the remaining columns in one vectorized step, with scipy's
    reductions, tie rule, swap removal and dual updates, so it fills
    col4row with kac_assign's permutation.  Returns the C status."""
    n = cost.shape[0]
    u, v = np.zeros(n), np.zeros(n)
    path, row4col = np.full(n, -1), np.full(n, -1)
    col4row[:] = -1
    for cur_row in range(n):
        # the shortest augmenting path from cur_row
        min_val = 0.0
        remaining = np.arange(n - 1, -1, -1)
        num_remaining = n
        sr, sc = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
        shortest_path_costs = np.full(n, np.inf)
        i, sink = cur_row, -1
        while sink == -1:
            sr[i] = True
            cols = remaining[:num_remaining]
            r = min_val + cost[i, cols] - u[i] - v[cols]
            better = r < shortest_path_costs[cols]
            path[cols[better]] = i
            shortest_path_costs[cols[better]] = r[better]
            # scipy's scan keeps the first column at the lowest cost,
            # unless a free column ties with it: then the last free one
            costs = shortest_path_costs[cols]
            ties = np.flatnonzero(costs == costs.min())
            free = ties[row4col[cols[ties]] == -1]
            index = free[-1] if free.size else ties[0]
            min_val = float(costs[index])
            if min_val == np.inf:
                return -1
            j = cols[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            sc[j] = True
            num_remaining -= 1
            remaining[index] = remaining[num_remaining]

        # update the dual variables
        u[cur_row] += min_val
        others = sr.copy()
        others[cur_row] = False
        u[others] += min_val - shortest_path_costs[col4row[others]]
        v[sc] -= min_val - shortest_path_costs[sc]

        # augment the previous solution
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break
    return 0
