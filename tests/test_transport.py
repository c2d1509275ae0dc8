import numpy as np
import pytest
from scipy.optimize import linprog

from ganduality import (
    FiniteDistribution,
    Witness,
    c_transform,
    cost_indicator,
    cost_norm,
    cost_norm_squared,
    expectation,
    kantorovich_value,
    mcshane_regularize,
    ot_conjugate,
    ot_primal,
    tv_distance,
    wasserstein,
)
from ganduality.transport import (
    c_concave_restore,
    cost_custom,
    lipschitz_constant,
    optimal_potential,
    ot_values_batch,
    transport_simplex,
)
from ganduality.errors import ConvergenceError
from conftest import distinct_points, random_distribution, random_pair, random_weights, random_witness


def linprog_ot(p, q, C):
    """Independent LP oracle for the transportation value."""
    n, m = C.shape
    A_eq = np.zeros((n + m, n * m))
    for i in range(n):
        A_eq[i, i * m : (i + 1) * m] = 1.0
    for j in range(m):
        A_eq[n + j, j::m] = 1.0
    res = linprog(C.ravel(), A_eq=A_eq, b_eq=np.concatenate([p, q]), method="highs")
    assert res.status == 0
    return res.fun


class TestOtPrimal:
    def test_identity(self, rng):
        P = random_distribution(rng, 4)
        r = ot_primal(P, P, cost_norm())
        assert r.value == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(r.plan.mass, np.diag(P.weights))

    def test_single_pair(self):
        r = ot_primal(FiniteDistribution.delta(0.0), FiniteDistribution.delta(3.0), cost_norm())
        assert r.value == pytest.approx(3.0)

    def test_forced_split_plan(self):
        P = FiniteDistribution.delta(0.0)
        Q = FiniteDistribution(np.array([[1.0], [2.0]]), np.array([0.5, 0.5]))
        r = ot_primal(P, Q, cost_norm_squared())
        assert r.value == pytest.approx(2.5)

    @pytest.mark.parametrize("cost", [cost_norm(), cost_norm_squared(), cost_indicator(0.7)])
    def test_matches_linprog_oracle(self, rng, cost):
        for _ in range(8):
            P = random_distribution(rng, int(rng.integers(2, 7)), dim=2)
            Q = random_distribution(rng, int(rng.integers(2, 7)), dim=2)
            r = ot_primal(P, Q, cost)
            oracle = linprog_ot(P.weights, Q.weights, cost.matrix(P.points, Q.points))
            assert r.value == pytest.approx(oracle, abs=1e-9)

    def test_strong_duality_certificate(self, rng):
        for _ in range(20):
            P = random_distribution(rng, int(rng.integers(2, 12)), dim=2)
            Q = random_distribution(rng, int(rng.integers(2, 12)), dim=2)
            r = ot_primal(P, Q, cost_norm())
            assert abs(r.value - r.dual_value) <= 1e-6 * (1.0 + abs(r.value))

    def test_plan_marginals(self, rng):
        P = random_distribution(rng, 5)
        Q = random_distribution(rng, 7)
        r = ot_primal(P, Q, cost_norm())
        assert np.max(np.abs(r.plan.mass.sum(axis=1) - P.weights)) <= 1e-10
        assert np.max(np.abs(r.plan.mass.sum(axis=0) - Q.weights)) <= 1e-10

    def test_deterministic_plans(self, rng):
        P = random_distribution(rng, 6)
        Q = random_distribution(rng, 6)
        a = ot_primal(P, Q, cost_norm())
        b = ot_primal(P, Q, cost_norm())
        assert np.array_equal(a.plan.mass, b.plan.mass)

    def test_monotone_in_cost(self, rng):
        for _ in range(10):
            P, Q = random_distribution(rng, 4), random_distribution(rng, 5)
            small = ot_primal(P, Q, cost_norm(0.5)).value
            large = ot_primal(P, Q, cost_norm(1.0)).value
            assert small <= large + 1e-9

    def test_custom_cost_with_ties(self, rng):
        # constant cost: every plan is optimal, value equals the constant
        P, Q = random_distribution(rng, 3), random_distribution(rng, 4)
        r = ot_primal(P, Q, cost_custom(lambda x, y: 2.0))
        assert r.value == pytest.approx(2.0)


class TestWasserstein:
    @pytest.mark.parametrize("theta", [0.1, 0.5, 2.0])
    def test_w1_between_deltas(self, theta):
        d = wasserstein(FiniteDistribution.delta(theta), FiniteDistribution.delta(0.0), 1)
        assert d == pytest.approx(abs(theta))

    def test_w2_between_deltas(self):
        d = wasserstein(FiniteDistribution.delta(0.0), FiniteDistribution.delta(3.0), 2)
        assert d == pytest.approx(3.0)

    def test_w1_metric_axioms(self, rng):
        for _ in range(15):
            P = random_distribution(rng, 3)
            Q = random_distribution(rng, 4)
            R = random_distribution(rng, 3)
            pq, qr, pr = wasserstein(P, Q, 1), wasserstein(Q, R, 1), wasserstein(P, R, 1)
            assert pr <= pq + qr + 1e-8
            assert pq == pytest.approx(wasserstein(Q, P, 1), abs=1e-9)
            assert wasserstein(P, P, 1) == pytest.approx(0.0, abs=1e-12)


class TestCTransform:
    def test_one_lipschitz_fixed_point(self, rng):
        P = random_distribution(rng, 6)
        D = mcshane_regularize(random_witness(rng, P.points), 1.0)
        Dc = c_transform(D, cost_norm(), P.points)
        assert np.allclose(Dc.values, D.values, atol=1e-12)

    def test_zero_witness_squared_cost(self):
        D = Witness(np.array([0.0]), np.array([[0.0]]))
        Dc = c_transform(D, cost_norm_squared(), np.array([[1.0]]))
        assert Dc.values[0] == pytest.approx(-1.0)

    def test_regularized_witness_never_lowers_the_dual_objective(self, rng):
        for _ in range(20):
            P = random_distribution(rng, 4)
            Q = random_distribution(rng, 4)
            from ganduality import merge_supports

            support = merge_supports(P.points, Q.points)
            D = Witness(random_witness(rng, support).values, support)
            R = c_concave_restore(D, cost_norm(), support)
            assert kantorovich_value(R, P, Q, cost_norm()) >= kantorovich_value(
                D, P, Q, cost_norm()
            ) - 1e-12

    def test_restore_never_decreases_and_preserves_transform(self, rng):
        for _ in range(20):
            support = random_distribution(rng, 5).points
            D = random_witness(rng, support)
            R = c_concave_restore(D, cost_norm(), support)
            assert np.all(R.values >= D.values - 1e-12)
            a = c_transform(D, cost_norm(), support)
            b = c_transform(R, cost_norm(), support)
            assert np.allclose(a.values, b.values, atol=1e-12)


class TestKantorovichValue:
    def test_zero_witness_on_matching_deltas(self):
        P = FiniteDistribution.delta(0.0)
        D = Witness(np.zeros(1), P.points)
        assert kantorovich_value(D, P, P, cost_norm()) == pytest.approx(0.0)

    def test_optimal_potential_attains_primal(self, rng):
        for _ in range(10):
            P = random_distribution(rng, 5)
            Q = random_distribution(rng, 6)
            r = ot_primal(P, Q, cost_norm())
            assert kantorovich_value(r.dual_potential, P, Q, cost_norm()) == pytest.approx(
                r.value, abs=1e-6
            )

    def test_weak_duality_for_random_witnesses(self, rng):
        for _ in range(20):
            P = random_distribution(rng, 5)
            Q = random_distribution(rng, 5)
            r = ot_primal(P, Q, cost_norm())
            D = random_witness(rng, P.points)
            assert kantorovich_value(D, P, Q, cost_norm()) <= r.value + 1e-9


class TestOtConjugate:
    def test_constant_witness(self, rng):
        P = random_distribution(rng, 4)
        D = Witness(np.full(P.size, 1.3), P.points)
        assert ot_conjugate(P, D, cost_norm()) == pytest.approx(1.3)

    def test_two_atom_example(self):
        P = FiniteDistribution.delta(0.0)
        D = Witness(np.array([0.0, 0.4]), np.array([[0.0], [1.0]]))
        assert ot_conjugate(P, D, cost_norm()) == pytest.approx(0.0)

    def test_matches_brute_force(self, rng):
        from ganduality import OTDivergence, brute_force_conjugate

        div = OTDivergence(cost_norm())
        for _ in range(6):
            P = random_distribution(rng, 3)
            D = random_witness(rng, P.points)
            brute = brute_force_conjugate(P, D, div, 400)
            assert ot_conjugate(P, D, cost_norm()) == pytest.approx(brute, abs=2e-3)

    def test_dominates_feasible_q(self, rng):
        for _ in range(15):
            P, Q = random_pair(rng, 4)
            D = random_witness(rng, P.points)
            conj = ot_conjugate(P, D, cost_norm())
            gain = expectation(Q, D) - ot_primal(P, Q, cost_norm()).value
            assert conj >= gain - 1e-8


class TestTvDistance:
    def test_equal(self, rng):
        P = random_distribution(rng, 5)
        assert tv_distance(P, P) == pytest.approx(0.0)

    def test_disjoint_deltas(self):
        assert tv_distance(
            FiniteDistribution.delta(0.0), FiniteDistribution.delta(1.0)
        ) == pytest.approx(1.0)

    def test_two_atom_value(self):
        P = FiniteDistribution(np.array([[0.0], [1.0]]), np.array([0.7, 0.3]))
        Q = FiniteDistribution(np.array([[0.0], [1.0]]), np.array([0.4, 0.6]))
        assert tv_distance(P, Q) == pytest.approx(0.3)

    @pytest.mark.parametrize("m", [1.0, 0.35, 2.5])
    def test_indicator_cost_equivalence(self, rng, m):
        for _ in range(8):
            P = random_distribution(rng, 4)
            Q = random_distribution(rng, 5)
            ot = ot_primal(P, Q, cost_indicator(m)).value
            assert ot == pytest.approx(m * tv_distance(P, Q), abs=1e-8)


class TestMcshane:
    def test_fixed_point_for_lipschitz(self, rng):
        P = random_distribution(rng, 6)
        D = mcshane_regularize(random_witness(rng, P.points), 1.0)
        again = mcshane_regularize(D, 1.0)
        assert np.allclose(again.values, D.values, atol=1e-12)

    def test_two_atom_clip(self):
        D = Witness(np.array([0.0, 5.0]), np.array([[0.0], [1.0]]))
        out = mcshane_regularize(D, 1.0)
        assert np.allclose(out.values, [0.0, 1.0])

    def test_output_is_lipschitz_and_below(self, rng):
        for L in [0.5, 1.0, 3.0]:
            for _ in range(10):
                support = random_distribution(rng, 6).points
                D = random_witness(rng, support, scale=4.0)
                out = mcshane_regularize(D, L)
                assert lipschitz_constant(out) <= L + 1e-9
                assert np.all(out.values <= D.values + 1e-12)


class TestBatchTransport:
    def test_matches_per_point_solves(self, rng):
        from ganduality.fdiv import simplex_grid

        for cost in [cost_norm(), cost_norm_squared()]:
            P = random_distribution(rng, 3)
            support = random_distribution(rng, 3).points
            Qs = simplex_grid(3, 12)
            batch = ot_values_batch(P, support, cost, Qs)
            for k in range(0, len(Qs), 17):
                Q = FiniteDistribution.from_weighted_points(support, Qs[k])
                assert batch[k] == pytest.approx(ot_primal(P, Q, cost).value, abs=1e-9)


class TestTransportSimplex:
    def test_degenerate_equal_marginals(self):
        p = np.array([0.5, 0.5])
        q = np.array([0.5, 0.5])
        C = np.array([[0.0, 1.0], [1.0, 0.0]])
        M, alpha, beta = transport_simplex(p, q, C)
        assert np.sum(M * C) == pytest.approx(0.0)

    def test_feasible_duals(self, rng):
        for _ in range(10):
            P = random_distribution(rng, 8)
            Q = random_distribution(rng, 9)
            C = cost_norm().matrix(P.points, Q.points)
            M, alpha, beta = transport_simplex(P.weights, Q.weights, C)
            slack = C - alpha[:, None] - beta[None, :]
            assert np.min(slack) >= -1e-9
            assert np.sum(M * C) == pytest.approx(
                float(P.weights @ alpha + Q.weights @ beta), abs=1e-9
            )

    def test_exact_on_degenerate_instances(self, rng):
        # supports sharing half their atoms give zero-cost cells and ties;
        # the plan and duals must be optimal to rounding, not to a 1e-7 tolerance
        for _ in range(40):
            n, m = (int(k) for k in rng.integers(24, 37, 2))
            P = random_distribution(rng, n, dim=2)
            pts = np.vstack([P.points[: min(n, m) // 2], distinct_points(rng, m - min(n, m) // 2, 2)])
            Q = FiniteDistribution(pts, random_weights(rng, m))
            C = cost_norm().matrix(P.points, Q.points)
            M, alpha, beta = transport_simplex(P.weights, Q.weights, C)
            assert np.min(C - alpha[:, None] - beta[None, :]) >= -1e-12
            assert np.sum(M * C) == pytest.approx(float(P.weights @ alpha + Q.weights @ beta), abs=1e-12)

    def test_uncouplable_marginals_raise(self, rng):
        P = random_distribution(rng, 4)
        Q = random_distribution(rng, 5)
        C = cost_norm().matrix(P.points, Q.points)
        with pytest.raises(ConvergenceError):
            transport_simplex(P.weights, 0.9 * Q.weights, C)


class TestOptimalPotential:
    def test_attains_primal_on_merged_support(self, rng):
        from ganduality import merge_supports

        for _ in range(10):
            P = random_distribution(rng, 4)
            Q = random_distribution(rng, 5)
            r = ot_primal(P, Q, cost_norm())
            support = merge_supports(P.points, Q.points)
            D = optimal_potential(r, cost_norm(), support)
            assert lipschitz_constant(D) <= 1.0 + 1e-9
            assert kantorovich_value(D, P, Q, cost_norm()) == pytest.approx(r.value, abs=1e-9)
