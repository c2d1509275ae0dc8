"""Property tests: the atom index keeps the loop semantics it replaced.

The reference functions below are the per-atom loops that ``merge_points``,
``merge_supports``, ``FiniteDistribution.weights_on``, ``atom_indices`` and
the pairwise check in ``FiniteDistribution.__post_init__`` used before they
were rebuilt on ``match_atoms``. Arithmetic order is unchanged, so results
must be equal, not merely close.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ganduality.distributions import (
    MERGE_TOL,
    FiniteDistribution,
    as_points,
    atom_indices,
    find_atom,
    match_atoms,
    merge_points,
    merge_supports,
)
from ganduality.errors import DomainError, InvariantViolation

# offsets from a base point, in units of MERGE_TOL: exact repeats, pairs just
# inside and just outside the tolerance, and half steps that build chains
OFFSETS = (0.0, 0.5, -0.5, 1 - 1e-6, -(1 - 1e-6), 1 + 1e-6, -(1 + 1e-6), 1.5)

# the same examples on every run and checkout: seeded from each test, no saved database
DETERMINISTIC = settings(derandomize=True, database=None, deadline=None)


def ref_merge_points(points, weights):
    reps = []
    acc = []
    for x, w in zip(points, weights):
        j = find_atom(np.asarray(reps) if reps else np.empty((0, points.shape[1])), x)
        if j < 0:
            reps.append(x)
            acc.append(float(w))
        else:
            acc[j] += float(w)
    return np.asarray(reps), np.asarray(acc)


def ref_merge_supports(*supports):
    reps = []
    for s in supports:
        s = as_points(s)
        for x in s:
            if not reps or find_atom(np.asarray(reps), x) < 0:
                reps.append(x)
    return np.asarray(reps)


def ref_weights_on(points, weights, support):
    out = np.zeros(len(support))
    for x, w in zip(points, weights):
        j = find_atom(support, x)
        if j < 0:
            raise DomainError("distribution atom missing from the requested support")
        out[j] += w
    return out


def ref_atom_indices(support, points):
    idx = np.empty(len(points), dtype=int)
    for i, x in enumerate(points):
        j = find_atom(support, x)
        if j < 0:
            raise DomainError(f"point {x} is not an atom of the given support")
        idx[i] = j
    return idx


def ref_pairwise_distinct(pts):
    for i in range(len(pts)):
        d = np.linalg.norm(pts[i + 1:] - pts[i][None, :], axis=1)
        if np.any(d <= MERGE_TOL):
            return False
    return True


def planted(rng, n, dim, n_base, near_frac):
    """``n`` points drawn from ``n_base`` base points, a share of them moved by
    an offset in OFFSETS along one axis, so repeats, tolerance-edge pairs and
    chains all occur."""
    base = rng.integers(-4, 5, size=(n_base, dim)) * 0.25 + rng.uniform(-1, 1, (n_base, dim))
    pts = base[rng.integers(0, n_base, n)]
    moved = rng.random(n) < near_frac
    offs = np.asarray(OFFSETS)[rng.integers(0, len(OFFSETS), n)] * MERGE_TOL
    axes = rng.integers(0, dim, n)
    pts[moved, axes[moved]] += offs[moved]
    return pts


def dyadic_weights(rng, n):
    """Weights in {0, 1, 2, 3}/T that sum to exactly one, zeros included."""
    k = rng.integers(0, 4, n)
    k[0] += 1
    total = 1 << int(np.ceil(np.log2(k.sum())))
    k[0] += total - k.sum()
    return k / total


cases = st.tuples(
    st.integers(0, 2**32 - 1),  # seed
    st.integers(1, 3),  # dim
    st.integers(1, 200),  # points
    st.floats(0.0, 1.0),  # share of points moved off their base
)


def draw(case):
    seed, dim, n, near_frac = case
    rng = np.random.default_rng(seed)
    pts = planted(rng, n, dim, max(1, n // 3), near_frac)
    return rng, pts


@settings(DETERMINISTIC, max_examples=60)
@given(cases)
def test_merge_points_matches_loop(case):
    rng, pts = draw(case)
    w = dyadic_weights(rng, len(pts))
    got_pts, got_w = merge_points(pts, w)
    ref_pts, ref_w = ref_merge_points(pts, w)
    assert np.array_equal(got_pts, ref_pts)
    assert np.array_equal(got_w, ref_w)


@settings(DETERMINISTIC, max_examples=60)
@given(cases, st.integers(1, 4))
def test_merge_supports_matches_loop(case, parts):
    rng, pts = draw(case)
    cuts = np.sort(rng.integers(0, len(pts) + 1, parts - 1))
    supports = np.split(pts, cuts)
    assert np.array_equal(merge_supports(*supports), ref_merge_supports(*supports))


@settings(DETERMINISTIC, max_examples=60)
@given(cases)
def test_weights_on_and_indices_match_loop(case):
    rng, pts = draw(case)
    half = len(pts) // 2
    P = FiniteDistribution.from_weighted_points(pts[: max(half, 1)], dyadic_weights(rng, max(half, 1)))
    support = merge_supports(pts[: max(half, 1)], pts[half:])
    assert np.array_equal(P.weights_on(support), ref_weights_on(P.points, P.weights, support))
    assert np.array_equal(atom_indices(support, P.points), ref_atom_indices(support, P.points))
    # against a support that may miss atoms, both raise or both agree
    partial = support[rng.random(len(support)) < 0.7]
    try:
        expected = ref_weights_on(P.points, P.weights, partial)
    except DomainError:
        with pytest.raises(DomainError):
            P.weights_on(partial)
        with pytest.raises(DomainError):
            atom_indices(partial, P.points)
    else:
        assert np.array_equal(P.weights_on(partial), expected)
        assert np.array_equal(atom_indices(partial, P.points), ref_atom_indices(partial, P.points))


@settings(DETERMINISTIC, max_examples=60)
@given(cases)
def test_match_atoms_is_the_lowest_find_atom_hit(case):
    rng, pts = draw(case)
    support = pts[rng.random(len(pts)) < 0.5]
    expected = [find_atom(support, x) for x in pts]
    assert match_atoms(support, pts).tolist() == expected


@settings(DETERMINISTIC, max_examples=60)
@given(cases)
def test_pairwise_check_matches_loop(case):
    rng, pts = draw(case)
    w = dyadic_weights(rng, len(pts))
    keep = w > 0
    if ref_pairwise_distinct(pts[keep]):
        assert FiniteDistribution(pts, w).size == int(keep.sum())
    else:
        with pytest.raises(InvariantViolation):
            FiniteDistribution(pts, w)


def test_first_seen_order_and_greedy_representative():
    tol = MERGE_TOL
    # b is within tolerance of a, c only of b: c is not merged through b
    a, b, c = [0.0], [0.6 * tol], [1.2 * tol]
    pts, w = merge_points(np.array([c, a, b]), np.array([0.25, 0.25, 0.5]))
    assert pts.tolist() == [c, a] and w.tolist() == [0.75, 0.25]
    pts, w = merge_points(np.array([a, b, c]), np.array([0.25, 0.25, 0.5]))
    assert pts.tolist() == [a, c] and w.tolist() == [0.5, 0.5]
    # d is within tolerance of both representatives a and c; it joins the first
    d = [0.7 * tol]
    pts, w = merge_points(np.array([a, b, c, d]), np.array([0.25, 0.25, 0.25, 0.25]))
    assert pts.tolist() == [a, c] and w.tolist() == [0.75, 0.25]
    assert merge_supports(np.array([b]), np.array([a, c, d])).tolist() == [b]


@pytest.mark.parametrize("scale", [1 - 1e-6, 1 + 1e-6])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_tolerance_edge(scale, dim):
    x = np.full(dim, 0.3)
    y = x.copy()
    y[-1] += scale * MERGE_TOL
    inside = np.linalg.norm(y - x) <= MERGE_TOL
    assert inside == (scale < 1)
    assert match_atoms(x[None, :], y[None, :]).tolist() == [0 if inside else -1]
    assert len(merge_supports(x[None, :], y[None, :])) == (1 if inside else 2)


def test_zero_weights_merge_then_drop():
    tol = MERGE_TOL
    pts = np.array([[0.0], [0.5 * tol], [1.0]])
    # the zero-weight atom is the representative, so its coordinates are kept
    P = FiniteDistribution.from_weighted_points(pts, [0.0, 0.5, 0.5])
    assert P.points.tolist() == [[0.0], [1.0]] and P.weights.tolist() == [0.5, 0.5]
    # an unmerged zero-weight atom is dropped
    P = FiniteDistribution.from_weighted_points(pts[[0, 2]], [0.0, 1.0])
    assert P.points.tolist() == [[1.0]]


@settings(DETERMINISTIC, max_examples=4)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_large_supports_match_loop(seed, dim):
    rng = np.random.default_rng(seed)
    n = 4096
    pts = planted(rng, n, dim, n // 2, 0.3)
    w = dyadic_weights(rng, n)
    got_pts, got_w = merge_points(pts, w)
    ref_pts, ref_w = ref_merge_points(pts, w)
    assert np.array_equal(got_pts, ref_pts) and np.array_equal(got_w, ref_w)
    assert np.array_equal(merge_supports(pts[:2000], pts[2000:]), ref_pts)
    P = FiniteDistribution(got_pts, got_w)
    shuffled = ref_pts[rng.permutation(len(ref_pts))]
    assert np.array_equal(P.weights_on(shuffled), ref_weights_on(P.points, P.weights, shuffled))
    assert np.array_equal(atom_indices(shuffled, P.points), ref_atom_indices(shuffled, P.points))
