import dataclasses
import itertools

import numpy as np
import pytest

from kacsim import _engine, assignment, cli
from test_engine import bind_width, cpu_widths


@pytest.fixture(params=["c", "c2", "c4", "c8", "python"])
def backend(request, monkeypatch):
    """Solve on the C library at its own width, on its 2-, 4- and 8-wide
    builds (c2, c4, c8; a width the CPU lacks is skipped by name) and on
    the forced numpy fallback."""
    if request.param != "python" and _engine.BACKEND != "c":
        pytest.skip("the C library is not loaded")
    if request.param == "python":
        monkeypatch.setattr(_engine, "_LIB", None)
    elif request.param != "c":
        width = int(request.param[1:])
        if width not in cpu_widths():
            pytest.skip(f"the CPU has no {width}-wide lanes")
        bind_width(monkeypatch, _engine._LIB, "kac_assign", width)
    return request.param


def assert_scipy_solution(cost):
    """solve_assignment returns scipy's permutation and scipy's total."""
    # only the tests load scipy.optimize, as the oracle
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(cost)
    perm, total = assignment.solve_assignment(cost)
    assert perm.dtype == np.int64
    assert np.array_equal(perm, cols)
    assert total == float(cost[rows, cols].sum())
    return perm


@pytest.mark.parametrize("n", [0, 1, 2, 16, 256])
@pytest.mark.parametrize("law", cli.INITIAL_LAWS)
def test_decay_starts_pair_as_scipy(backend, law, n):
    """The pairing of a decay replica's two initial configurations; the
    sampler needs n >= 2, so n = 0 and 1 take the first rows of a pair."""
    cfg = dataclasses.replace(cli.ExperimentConfig(), n=max(n, 2),
                              initial_law=law)
    u, v = cli._initial_copies(cfg, np.random.default_rng(900 + n))
    perm = assert_scipy_solution(assignment.pairing_cost(u[:n], v[:n]))
    if law == "identical":
        assert np.array_equal(perm, np.arange(n))


@pytest.mark.parametrize("n", [1, 2, 3, 7, 31, 128])
def test_gaussian_costs_as_scipy(backend, n):
    rng = np.random.default_rng(910 + n)
    for _ in range(3):
        assert_scipy_solution(rng.standard_normal((n, n)))


def test_integer_costs_as_scipy(backend):
    """Costs in {0, 1, 2, 3} tie exactly at almost every step, so the
    searches settle columns by the tie rule: among the columns at the
    lowest cost the last free one in scan order, else the first."""
    rng = np.random.default_rng(920)
    for n in [2, 3, 4, 5, 8, 13, 40, 100]:
        for _ in range(6):
            assert_scipy_solution(rng.integers(0, 4, (n, n)).astype(float))


def _tie_heavy_costs(rng):
    """About 2000 square cost matrices on which the searches tie at almost
    every step: entries in {0, 1, 2}, in {0, ..., 9} and multiples of 1.5,
    zero and constant matrices, and Gaussian ones among them.  Every n
    from 1 to 17 (so the scan's partial last vector meets every offset at
    every width) and a few n up to 64."""
    sizes = [n for n in range(1, 18) for _ in range(108)]
    sizes += [24, 31, 32, 33, 48, 63, 64] * 24
    for k, n in enumerate(sizes):
        kind = k % 6
        if kind == 0:
            yield rng.integers(0, 3, (n, n)).astype(float)
        elif kind == 1:
            yield rng.integers(0, 10, (n, n)).astype(float)
        elif kind == 2:
            yield 1.5 * rng.integers(0, 6, (n, n))
        elif kind == 3:
            yield np.zeros((n, n))
        elif kind == 4:
            yield np.full((n, n), 0.5 * rng.integers(1, 5))
        else:
            yield rng.standard_normal((n, n))


def test_tie_heavy_costs_as_scipy(backend):
    """The tie rule in every case the sizes and ties give: _engine.assign
    returns scipy's permutation on each matrix."""
    from scipy.optimize import linear_sum_assignment

    for cost in _tie_heavy_costs(np.random.default_rng(950)):
        assert np.array_equal(_engine.assign(cost),
                              linear_sum_assignment(cost)[1]), cost


@pytest.mark.skipif(_engine.BACKEND != "c",
                    reason="the C library is not loaded")
@pytest.mark.parametrize("n", [16, 256])
@pytest.mark.parametrize("law", cli.INITIAL_LAWS)
def test_both_widths_pair_decay_starts_alike(law, n, monkeypatch):
    """Every width the CPU runs (kac_assign_2, _4, _8) gives the library's
    own kac_assign's permutation on decay starts of every law."""
    cfg = dataclasses.replace(cli.ExperimentConfig(), n=n, initial_law=law)
    costs = [assignment.pairing_cost(*cli._initial_copies(
        cfg, np.random.default_rng(960 + seed))) for seed in range(6)]
    want = [_engine.assign(cost) for cost in costs]
    lib = _engine._LIB
    for width in cpu_widths():
        bind_width(monkeypatch, lib, "kac_assign", width)
        for cost, perm in zip(costs, want):
            assert np.array_equal(_engine.assign(cost), perm), width


@pytest.mark.parametrize("n", [1, 2, 5, 64])
def test_zero_costs_give_the_identity(backend, n):
    """Every permutation is optimal; the reverse-ordered scan picks the
    identity, as scipy does."""
    perm = assert_scipy_solution(np.zeros((n, n)))
    assert np.array_equal(perm, np.arange(n))


def test_self_pairing_is_the_identity(backend):
    rng = np.random.default_rng(930)
    u = rng.standard_normal((200, 3))
    perm = assert_scipy_solution(assignment.pairing_cost(u, u))
    assert np.array_equal(perm, np.arange(200))


def brute_force_cost(u, v):
    n = u.shape[0]
    cost = assignment.pairing_cost(u, v)
    best = np.inf
    for perm in itertools.permutations(range(n)):
        best = min(best, cost[np.arange(n), perm].sum())
    return best


def test_matches_brute_force():
    rng = np.random.default_rng(41)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(2, 5))
        u = rng.standard_normal((n, d))
        v = rng.standard_normal((n, d))
        perm, total = assignment.solve_assignment(assignment.pairing_cost(u, v))
        assert sorted(perm) == list(range(n))
        np.testing.assert_allclose(total, brute_force_cost(u, v), atol=1e-10)


def test_sym_distance_axis_swap():
    """Two antipodal pairs on different axes sit at distance sqrt(2): the
    best matching pairs e1 with e2 and -e1 with -e2 (or the flip), each at
    squared cost 2."""
    u = np.array([[1.0, 0.0], [-1.0, 0.0]])
    v = np.array([[0.0, 1.0], [0.0, -1.0]])
    np.testing.assert_allclose(assignment.sym_distance(u, v), np.sqrt(2.0),
                               atol=1e-12)


def test_sym_distance_permutation_invariance():
    rng = np.random.default_rng(42)
    u = rng.standard_normal((12, 3))
    perm = rng.permutation(12)
    assert assignment.sym_distance(u, u[perm]) == 0.0
    v = rng.standard_normal((12, 3))
    d0 = assignment.sym_distance(u, v)
    np.testing.assert_allclose(assignment.sym_distance(u, v[perm]), d0,
                               atol=1e-12)


def test_sym_distance_metric_axioms():
    rng = np.random.default_rng(43)
    for _ in range(200):
        u = rng.standard_normal((8, 3))
        v = rng.standard_normal((8, 3))
        w = rng.standard_normal((8, 3))
        duv = assignment.sym_distance(u, v)
        assert abs(duv - assignment.sym_distance(v, u)) < 1e-12
        assert duv <= (assignment.sym_distance(u, w)
                       + assignment.sym_distance(w, v) + 1e-10)
        # matching can only improve on the identity pairing
        assert duv <= np.sqrt(np.mean(np.sum((u - v) ** 2, axis=1))) + 1e-12


def test_optimal_pairing_identity_for_equal_inputs():
    rng = np.random.default_rng(44)
    u = rng.standard_normal((20, 3))
    perm = assignment.optimal_pairing(u, u)
    cost = assignment.pairing_cost(u, u)
    assert cost[np.arange(20), perm].sum() < 1e-12


def test_pairing_cost_nonnegative():
    rng = np.random.default_rng(45)
    u = rng.standard_normal((50, 4))
    v = rng.standard_normal((50, 4))
    c = assignment.pairing_cost(u, v)
    assert np.all(c >= 0.0)
    np.testing.assert_allclose(c[3, 7], np.sum((u[3] - v[7]) ** 2),
                               atol=1e-10)


def test_shape_and_size_guards():
    with pytest.raises(ValueError):
        assignment.sym_distance(np.zeros((3, 2)), np.zeros((4, 2)))
    big = assignment.MAX_ASSIGNMENT_SIZE + 1
    with pytest.raises(assignment.SizeLimit):
        assignment.solve_assignment(np.zeros((big, big)))
    with pytest.raises(ValueError):
        assignment.solve_assignment(np.array([[np.nan, 1.0], [1.0, 0.0]]))
