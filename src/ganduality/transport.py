"""Exact optimal transport on finite supports and the machinery around it.

The primal problem is the transportation linear program over couplings with
fixed marginals. It is solved by HiGHS (``scipy.optimize.linprog``) over a
sparse marginal constraint matrix; HiGHS is deterministic, so identical
inputs always produce identical plans. The dual potentials HiGHS returns
certify optimality: the dual objective is recomputed independently through
the c-transform and compared against the primal value.

Cost matrices are always rebuilt from atom coordinates at call time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .distributions import (
    Coupling,
    FiniteDistribution,
    Witness,
    aligned_weights,
    as_points,
    expectation,
    MERGE_TOL,
)
from .errors import ConvergenceError, DomainError, InvariantViolation

DUALITY_RTOL = 1e-6
_HIGHS_OPTIONS = {
    "presolve": False,
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}


@dataclass(frozen=True)
class CostFunction:
    """Pairwise transport cost, one of four kinds.

    ``norm`` and ``norm_squared`` are the Euclidean distance and its square,
    ``indicator`` charges ``scale`` for moving between distinct atoms, and
    ``custom`` wraps an arbitrary pairwise function.
    """

    kind: str
    scale: float = 1.0
    pairwise: Callable[[np.ndarray, np.ndarray], float] | None = None

    def matrix(self, X, Y) -> np.ndarray:
        X, Y = as_points(X), as_points(Y)
        if self.kind in ("norm", "norm_squared", "indicator"):
            diff = X[:, None, :] - Y[None, :, :]
            dist = np.sqrt(np.sum(diff * diff, axis=2))
            if self.kind == "norm":
                return self.scale * dist
            if self.kind == "norm_squared":
                return self.scale * dist * dist
            return self.scale * (dist > MERGE_TOL).astype(float)
        if self.kind == "custom":
            out = np.empty((len(X), len(Y)))
            for i, x in enumerate(X):
                for j, y in enumerate(Y):
                    out[i, j] = self.pairwise(x, y)
            if np.any(out < 0):
                raise DomainError("custom cost produced a negative value")
            return out
        raise DomainError(f"unknown cost kind {self.kind!r}")

    def __call__(self, x, y) -> float:
        xa = np.atleast_1d(np.asarray(x, dtype=float))[None, :]
        ya = np.atleast_1d(np.asarray(y, dtype=float))[None, :]
        return float(self.matrix(xa, ya)[0, 0])


def cost_norm(scale: float = 1.0) -> CostFunction:
    return CostFunction("norm", scale)


def cost_norm_squared(scale: float = 1.0) -> CostFunction:
    return CostFunction("norm_squared", scale)


def cost_indicator(mass: float = 1.0) -> CostFunction:
    if mass <= 0:
        raise DomainError("indicator cost needs a positive charge")
    return CostFunction("indicator", mass)


def cost_custom(pairwise: Callable[[np.ndarray, np.ndarray], float]) -> CostFunction:
    return CostFunction("custom", 1.0, pairwise)


def _marginal_matrix(n: int, m: int) -> sparse.csc_matrix:
    """Equality constraints of the n-by-m transportation LP over the row-major plan.

    Column ``i * m + j`` (plan cell (i, j)) has a one in row ``i``, its row
    sum, and in row ``n + j``, its column sum.
    """
    rows = np.stack([np.repeat(np.arange(n), m), n + np.tile(np.arange(m), n)], axis=1)
    return sparse.csc_matrix(
        (np.ones(2 * n * m), rows.ravel(), np.arange(0, 2 * n * m + 1, 2)), shape=(n + m, n * m)
    )


def transport_simplex(
    p: np.ndarray, q: np.ndarray, C: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve the transportation LP exactly; returns (plan, row duals, col duals).

    One ``linprog(method="highs")`` call over the sparse marginal
    constraints. HiGHS presolve is off, since on these LPs it only added
    time, and its feasibility tolerances sit at their floor of 1e-10: at the
    default 1e-7 the plan's cost could end 1e-8 above the optimum. The duals
    are the equality marginals, gauged so that the first row dual is zero.
    Identical inputs give identical plans. Raises ConvergenceError when
    HiGHS ends without an optimal plan, for example when the two marginals
    carry different mass.
    """
    n, m = len(p), len(q)
    if C.shape != (n, m):
        raise DomainError("cost matrix shape does not match the marginals")
    res = linprog(
        C.ravel(),
        A_eq=_marginal_matrix(n, m),
        b_eq=np.concatenate([p, q]),
        method="highs",
        options=_HIGHS_OPTIONS,
    )
    if res.status != 0:
        raise ConvergenceError(f"transport LP ended without an optimal plan: {res.message}")
    duals = res.eqlin.marginals
    alpha = duals[:n] - duals[0]
    beta = duals[n:] + duals[0]
    return np.maximum(res.x.reshape(n, m), 0.0), alpha, beta


@dataclass(frozen=True)
class OTResult:
    """Primal value, optimal plan, and the dual certificate."""

    value: float
    plan: Coupling
    dual_value: float
    dual_potential: Witness
    col_potential: np.ndarray

    def __post_init__(self):
        if abs(self.value - self.dual_value) > DUALITY_RTOL * (1.0 + abs(self.value)):
            raise InvariantViolation(
                f"duality gap {self.value - self.dual_value!r} exceeds the certificate tolerance"
            )


def ot_primal(P: FiniteDistribution, Q: FiniteDistribution, c: CostFunction) -> OTResult:
    """Exact optimal transport cost with plan and dual certificate."""
    if P.size * Q.size > 10**6:
        raise DomainError("instance too large for exact transport")
    C = c.matrix(P.points, Q.points)
    M, alpha, beta = transport_simplex(P.weights, Q.weights, C)
    value = float(np.sum(M * C))
    plan = Coupling(P.points, Q.points, M, P.weights)
    potential = Witness(alpha, P.points)
    dual_value = kantorovich_value(potential, P, Q, c)
    return OTResult(value, plan, dual_value, potential, beta)


def wasserstein(P: FiniteDistribution, Q: FiniteDistribution, order: int) -> float:
    """Wasserstein distance: transport value for the norm cost raised to 1/order."""
    if order == 1:
        return ot_primal(P, Q, cost_norm()).value
    if order == 2:
        return float(np.sqrt(max(ot_primal(P, Q, cost_norm_squared()).value, 0.0)))
    raise DomainError("only orders 1 and 2 are supported")


def c_transform(D: Witness, c: CostFunction, to_support) -> Witness:
    """sup over the witness's support of ``D(x') - c(x, x')`` at each target atom."""
    S = as_points(to_support)
    C = c.matrix(S, D.support)
    return Witness(np.max(D.values[None, :] - C, axis=1), S)


def c_concave_restore(D: Witness, c: CostFunction, support=None) -> Witness:
    """Double c-transform on a support: the pointwise-smallest c-concave majorant.

    Never decreases any value of ``D`` and leaves its c-transform unchanged,
    so it restores feasibility in c-concave maximizations without hurting the
    objective. For the norm cost this is the 1-Lipschitz upper envelope.
    """
    S = D.support if support is None else as_points(support)
    E = c_transform(D, c, S)
    C = c.matrix(S, S)
    return Witness(np.min(E.values[:, None] + C, axis=0), S)


def kantorovich_value(D: Witness, P: FiniteDistribution, Q: FiniteDistribution, c: CostFunction) -> float:
    """Dual objective E_P[D] - E_Q[D^c]; never exceeds the primal value."""
    Dc = c_transform(D, c, Q.points)
    return expectation(P, D) - expectation(Q, Dc)


def ot_conjugate(P: FiniteDistribution, D: Witness, c: CostFunction) -> float:
    """Divergence conjugate of the transport cost: E_P of the c-transform of D."""
    Dc = c_transform(D, c, P.points)
    return expectation(P, Dc)


def optimal_potential(result: OTResult, c: CostFunction, support) -> Witness:
    """Exact Kantorovich witness on ``support`` built from the column potential.

    For a symmetric cost, ``min_j c(x, y_j) - beta_j`` dominates the row
    potential on the source atoms and c-transforms back onto the column
    potential, so it attains the primal value in the dual objective.
    """
    S = as_points(support)
    C = c.matrix(S, result.plan.col_support)
    return Witness(np.min(C - result.col_potential[None, :], axis=1), S)


def tv_distance(P: FiniteDistribution, Q: FiniteDistribution) -> float:
    """Total variation distance, half the L1 gap on the merged support."""
    _, p, q = aligned_weights(P, Q)
    return 0.5 * float(np.sum(np.abs(p - q)))


def mcshane_regularize(D: Witness, L: float, support=None) -> Witness:
    """Largest L-Lipschitz minorant ``min_y D(y) + L |x - y|`` on the support.

    Evaluating on a larger support extends ``D`` instead; a witness that is
    already L-Lipschitz is a fixed point.
    """
    if L <= 0:
        raise DomainError("Lipschitz constant must be positive")
    S = D.support if support is None else as_points(support)
    dist = cost_norm().matrix(S, D.support)
    return Witness(np.min(D.values[None, :] + L * dist, axis=1), S)


def lipschitz_constant(D: Witness) -> float:
    """Largest difference quotient over distinct support pairs."""
    dist = cost_norm().matrix(D.support, D.support)
    gaps = np.abs(D.values[:, None] - D.values[None, :])
    mask = dist > MERGE_TOL
    if not np.any(mask):
        return 0.0
    return float(np.max(gaps[mask] / dist[mask]))


def _spanning_tree_potentials(C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Feasible dual vertices of the gauged transportation dual polytope.

    Enumerates the spanning trees of the complete bipartite basis graph,
    solves the tight equations of each (row 0 gauged to zero), and keeps the
    feasible solutions. The maximum of ``p @ alpha + q @ beta`` over these
    points equals the transport value for any marginals, by LP duality.
    """
    n, m = C.shape
    edges = list(itertools.product(range(n), range(m)))
    alphas, betas = [], []
    for subset in itertools.combinations(range(len(edges)), n + m - 1):
        parent = list(range(n + m))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        acyclic = True
        for e in subset:
            i, j = edges[e]
            ri, rj = find(i), find(n + j)
            if ri == rj:
                acyclic = False
                break
            parent[ri] = rj
        if not acyclic:
            continue
        alpha = np.full(n, np.nan)
        beta = np.full(m, np.nan)
        alpha[0] = 0.0
        cells = [edges[e] for e in subset]
        for _ in range(n + m):
            for (i, j) in cells:
                if np.isnan(beta[j]) and not np.isnan(alpha[i]):
                    beta[j] = C[i, j] - alpha[i]
                if np.isnan(alpha[i]) and not np.isnan(beta[j]):
                    alpha[i] = C[i, j] - beta[j]
        if np.all(alpha[:, None] + beta[None, :] <= C + 1e-9):
            alphas.append(alpha)
            betas.append(beta)
    return np.asarray(alphas), np.asarray(betas)


def ot_values_batch(
    P: FiniteDistribution, col_support, c: CostFunction, Qs: np.ndarray
) -> np.ndarray:
    """Exact transport values from P to every weight row of ``Qs``.

    Only for tiny supports (at most 4 atoms on each side); used by the
    exhaustive-search oracles where per-point LP solves would be wasteful.
    """
    S = as_points(col_support)
    if P.size > 4 or len(S) > 4:
        raise DomainError("batch transport evaluation is limited to 4-atom supports")
    C = c.matrix(P.points, S)
    alphas, betas = _spanning_tree_potentials(C)
    base = alphas @ P.weights
    return np.max(base[None, :] + Qs @ betas.T, axis=1)
