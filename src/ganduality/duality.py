"""Discriminator classes and numerical checks of the minimax identities.

The central identity equates two computations for a model distribution P1,
a data distribution, a divergence d, and a convex discriminator class F:

    max_{D in F}  E_data[D] - d*_{P1}(D)
  = min_Q  d(P1, Q) + max_{D in F} { E_data[D] - E_Q[D] }

The left side is solved by ascent over the class parametrization; the right
side turns the inner maximum into a class-dependent penalty: an exact
indicator for linear spans (moments must match), a scaled Wasserstein term
for Lipschitz balls, and a hard pin for the unconstrained class. Both sides
are computed through different code paths on purpose; their agreement is
the test.

For linear spans the left side with an f-divergence also reduces to the
span-parametrized adversarial objective E_data[D] - E_P1[f*(D)] (the
constant direction absorbs the conjugate's normalization), which this
module exposes separately so the reduction itself can be verified.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np
from scipy.optimize import linprog

from .ascent import backtracking_ascent
from .distributions import (
    FiniteDistribution,
    Witness,
    as_points,
    atom_indices,
    expectation,
    merge_supports,
)
from .errors import AsymmetricGeneratorWarning, DomainError, InfeasibleError
from .evaluators import FDivergence, OTDivergence
from .fdiv import (
    FGenerator,
    conjugate_shift_weights,
    f_divergence_weights,
    reverse_generator,
)
from .hybrid import HybridSpec, _hybrid_dual_full, hybrid_primal
from .transport import (
    CostFunction,
    c_transform,
    cost_custom,
    cost_norm,
    cost_norm_squared,
    lipschitz_constant,
    mcshane_regularize,
    optimal_potential,
    ot_primal,
    wasserstein,
)

MOMENT_TOL = 1e-10


@dataclass(frozen=True)
class AllFunctions:
    """Every real-valued function on the support."""

    support: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "support", as_points(self.support))


@dataclass(frozen=True)
class LinearSpan:
    """Span of feature witnesses, optionally including the constants."""

    features: tuple[Witness, ...]
    include_constant: bool = True

    def __post_init__(self):
        object.__setattr__(self, "features", tuple(self.features))

    def feature_matrix(self, points: np.ndarray) -> np.ndarray:
        if not self.features:
            return np.zeros((len(points), 0))
        return np.stack([f.values_on(points) for f in self.features], axis=1)


@dataclass(frozen=True)
class LipschitzBall:
    """Functions on the support with Lipschitz constant at most ``radius``."""

    radius: float
    support: np.ndarray

    def __post_init__(self):
        if self.radius <= 0:
            raise DomainError("Lipschitz radius must be positive")
        object.__setattr__(self, "support", as_points(self.support))


@dataclass(frozen=True)
class ComposedLipschitz:
    """Functions D whose composition with the conjugate, f* o D, is L-Lipschitz."""

    gen: FGenerator
    radius: float
    support: np.ndarray

    def __post_init__(self):
        if self.radius <= 0:
            raise DomainError("Lipschitz radius must be positive")
        object.__setattr__(self, "support", as_points(self.support))


FunctionClass = Union[AllFunctions, LinearSpan, LipschitzBall, ComposedLipschitz]


@dataclass(frozen=True)
class MomentVector:
    """Target feature expectations for moment-matching constraints."""

    values: np.ndarray

    def __post_init__(self):
        v = np.atleast_1d(np.asarray(self.values, dtype=float))
        if not np.all(np.isfinite(v)):
            raise DomainError("moment targets must be finite")
        object.__setattr__(self, "values", v)


def polynomial_features(support, degree: int) -> tuple[Witness, ...]:
    """Coordinate monomials up to ``degree``: x_a, then pairwise products."""
    pts = as_points(support)
    cols: list[np.ndarray] = []
    if degree >= 1:
        cols.extend(pts[:, a] for a in range(pts.shape[1]))
    if degree >= 2:
        for a in range(pts.shape[1]):
            for b in range(a, pts.shape[1]):
                cols.append(pts[:, a] * pts[:, b])
    if degree >= 3:
        raise DomainError("polynomial features are provided up to degree 2")
    return tuple(Witness(col, pts) for col in cols)


def _target_moments(target, features: Sequence[Witness]) -> np.ndarray:
    if isinstance(target, MomentVector):
        if len(target.values) != len(features):
            raise DomainError("moment vector length does not match the feature list")
        return target.values
    return np.array([expectation(target, f) for f in features])


def class_penalty(Q: FiniteDistribution, data: FiniteDistribution, fclass: FunctionClass) -> float:
    """Worst-case mean discrepancy of the class between ``data`` and ``Q``.

    Infinite for the unconstrained class unless the distributions agree
    atomwise, an exact indicator of moment matching for spans, and the
    scaled Wasserstein distance for Lipschitz balls.
    """
    if isinstance(fclass, AllFunctions):
        support = merge_supports(data.points, Q.points)
        gap = np.max(np.abs(data.weights_on(support) - Q.weights_on(support)))
        return 0.0 if gap <= MOMENT_TOL else np.inf
    if isinstance(fclass, LinearSpan):
        for f in fclass.features:
            if abs(expectation(Q, f) - expectation(data, f)) > MOMENT_TOL:
                return np.inf
        return 0.0
    if isinstance(fclass, LipschitzBall):
        return fclass.radius * wasserstein(data, Q, 1)
    raise DomainError(f"no penalty form for class {type(fclass).__name__}")


def _ascent_all_functions(model: FiniteDistribution, data: FiniteDistribution, div, support) -> float:
    """Maximize E_data[D] - conjugate over the full value vector."""
    p_data = data.weights_on(support)

    if isinstance(div, OTDivergence):
        # exact witness from the transport dual, then a polishing ascent
        route = ot_primal(data, model, div.cost)
        d0 = optimal_potential(route, div.cost, support).values
    else:
        d0 = np.zeros(len(support))

    def value_and_grad(vals: np.ndarray) -> tuple[float, np.ndarray]:
        D = Witness(vals, support)
        try:
            conj, q_star = _conjugate_with_argmax(model, D, div, support)
        except (InfeasibleError, DomainError):
            return -np.inf, np.zeros_like(vals)
        return float(p_data @ vals) - conj, p_data - q_star

    _, val = backtracking_ascent(value_and_grad, d0, max_iter=3000)
    return val


def _conjugate_with_argmax(model, D, div, support) -> tuple[float, np.ndarray]:
    """Divergence conjugate and its maximizing distribution on the support."""
    if isinstance(div, FDivergence):
        gen = div.gen
        idx = atom_indices(support, model.points)
        d = D.values[idx]
        lam = conjugate_shift_weights(model.weights, d, gen)
        with np.errstate(over="ignore"):
            conj = float(model.weights @ gen.conjugate(d + lam) - lam)
            q_on_model = model.weights * gen.conjugate_deriv(d + lam)
        q_star = np.zeros(len(support))
        q_star[idx] = q_on_model
        return conj, q_star
    if isinstance(div, OTDivergence):
        C = div.cost.matrix(model.points, support)
        picks = np.argmax(D.values[None, :] - C, axis=1)
        conj = float(model.weights @ (D.values[picks] - C[np.arange(model.size), picks]))
        q_star = np.zeros(len(support))
        np.add.at(q_star, picks, model.weights)
        return conj, q_star
    raise DomainError("divergence evaluator must expose a conjugate")


def _span_lp_value(model, data_moments, phi, div, support) -> float:
    """Exact epigraph linear program for the span maximum with a transport conjugate.

    The objective is piecewise linear in the span coefficients, so ascent
    cannot certify a tolerance; the linear program solves the same maximum
    exactly: variables (a, e) with e_i >= (Phi a)_j - c(x_i, y_j).
    """
    C = div.cost.matrix(model.points, support)
    n, m = C.shape
    k = phi.shape[1]
    # variables: a (k), e (n); maximize data_moments @ a - model.weights @ e
    cost_vec = np.concatenate([-data_moments, model.weights])
    # row i * m + j: phi[j] @ a - e_i <= C[i, j]
    A_ub = np.hstack([np.tile(phi, (n, 1)), -np.repeat(np.eye(n), m, axis=0)])
    b_ub = C.ravel()
    bounds = [(None, None)] * (k + n)
    res = linprog(cost_vec, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if res.status == 3:
        raise InfeasibleError("span maximum is unbounded")
    if res.status != 0:
        raise DomainError(f"linear program failed with status {res.status}")
    return float(-res.fun)


def discriminator_max(
    model: FiniteDistribution,
    data: FiniteDistribution,
    fclass: FunctionClass,
    div,
) -> float:
    """Left side of the identity: sup over the class of E_data[D] - d*_model(D).

    Linear spans use concave ascent over coefficients (an exact epigraph
    linear program when the conjugate is a transport one, whose maximum is
    piecewise linear); Lipschitz balls use projected ascent with the
    L-Lipschitz envelope as projection; the unconstrained class ascends the
    raw value vector, seeded with the exact transport witness when one is
    available.
    """
    if isinstance(fclass, AllFunctions):
        support = fclass.support
        return _ascent_all_functions(model, data, div, support)

    if isinstance(fclass, LinearSpan):
        support = merge_supports(model.points, data.points)
        phi = fclass.feature_matrix(support)
        if fclass.include_constant:
            phi = np.hstack([np.ones((len(support), 1)), phi])
        data_moments = phi.T @ data.weights_on(support)
        if isinstance(div, OTDivergence):
            return _span_lp_value(model, data_moments, phi, div, support)

        def value_and_grad(a: np.ndarray) -> tuple[float, np.ndarray]:
            D = Witness(phi @ a, support)
            try:
                conj, q_star = _conjugate_with_argmax(model, D, div, support)
            except (InfeasibleError, DomainError):
                return -np.inf, np.zeros_like(a)
            return float(data_moments @ a) - conj, data_moments - phi.T @ q_star

        _, val = backtracking_ascent(value_and_grad, np.zeros(phi.shape[1]), max_iter=4000)
        return val

    if isinstance(fclass, LipschitzBall):
        support = fclass.support
        p_data = data.weights_on(support)

        def project(vals: np.ndarray) -> np.ndarray:
            return mcshane_regularize(Witness(vals, support), fclass.radius).values

        def value_and_grad(vals: np.ndarray) -> tuple[float, np.ndarray]:
            D = Witness(vals, support)
            try:
                conj, q_star = _conjugate_with_argmax(model, D, div, support)
            except (InfeasibleError, DomainError):
                return -np.inf, np.zeros_like(vals)
            return float(p_data @ vals) - conj, p_data - q_star

        inits = [np.zeros(len(support))]
        if isinstance(div, OTDivergence):
            route = ot_primal(data, model, div.cost)
            exact = optimal_potential(route, div.cost, support).values
            inits.append(min(fclass.radius, 1.0) * exact)
        else:
            # the hybrid dual witness of the matching penalized problem
            # attains the right side, so it seeds the ascent at the optimum
            spec = HybridSpec(
                reverse_generator(div.gen), cost_norm(fclass.radius), support
            )
            _, witness = _hybrid_dual_full(
                data, model, spec, tol=1e-9, require_symmetric=False
            )
            inits.append(witness.values)
        best = -np.inf
        for d0 in inits:
            _, val = backtracking_ascent(value_and_grad, project(d0), project=project, max_iter=3000)
            best = max(best, val)
        return best

    if isinstance(fclass, ComposedLipschitz):
        raise DomainError(
            "the composed class belongs to the hybrid reduction; "
            "use composed_lipschitz_max for its adversarial objective"
        )

    raise DomainError(f"no maximization routine for class {type(fclass).__name__}")


def penalized_divergence_min(
    model: FiniteDistribution,
    data: FiniteDistribution,
    fclass: FunctionClass,
    div,
) -> float:
    """Right side of the identity: min over Q of d(model, Q) plus the class penalty."""
    if isinstance(fclass, AllFunctions):
        return div.value(model, data)

    if isinstance(fclass, LinearSpan):
        if not fclass.features:
            return 0.0
        value, _ = moment_projection(model, data, fclass.features, div)
        return value

    if isinstance(fclass, LipschitzBall):
        L = fclass.radius
        if isinstance(div, FDivergence):
            spec = HybridSpec.for_pair(
                reverse_generator(div.gen), cost_norm(L), data, model, extra_support=fclass.support
            )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", AsymmetricGeneratorWarning)
                return hybrid_primal(data, model, spec, tol=1e-9).value
        if isinstance(div, OTDivergence):
            # two transport terms collapse into one: route the intermediate
            # atom by atom, which lands on an endpoint atom for norm costs
            cand = merge_supports(fclass.support, model.points, data.points)

            def infconv(x: np.ndarray, y: np.ndarray) -> float:
                base = div.cost.matrix(x[None, :], cand)[0]
                leg = L * np.linalg.norm(cand - y[None, :], axis=1)
                return float(np.min(base + leg))

            return ot_primal(model, data, cost_custom(infconv)).value
        raise DomainError("unsupported divergence for the Lipschitz penalty")

    raise DomainError(f"no penalty minimization for class {type(fclass).__name__}")


def moment_projection(
    model: FiniteDistribution,
    target,
    features: Sequence[Witness],
    div,
    support=None,
    max_iter: int = 4000,
) -> tuple[float, FiniteDistribution]:
    """Minimize d(model, Q) over Q matching the target feature moments.

    ``target`` may be a distribution or a raw MomentVector; the constraint
    region lives on ``support`` (the merged support by default). A linear
    program checks feasibility first. f-divergences are minimized by
    projected gradient with alternating projections onto the simplex-affine
    intersection; transport costs make the whole problem a single linear
    program, solved exactly.
    """
    features = tuple(features)
    if support is None:
        parts = [model.points] + ([] if isinstance(target, MomentVector) else [target.points])
        support = merge_supports(*parts)
    support = as_points(support)
    m = len(support)
    if not features:
        return 0.0, model
    phi = np.stack([f.values_on(support) for f in features], axis=1)
    b = _target_moments(target, features)

    A_eq = np.vstack([np.ones((1, m)), phi.T])
    b_eq = np.concatenate([[1.0], b])
    feas = linprog(np.zeros(m), A_eq=A_eq, b_eq=b_eq, bounds=[(0, None)] * m, method="highs")
    if feas.status != 0:
        raise InfeasibleError("no distribution on the support matches the target moments")

    p_model = model.weights_on(support)

    if isinstance(div, OTDivergence):
        # transport cost with moment constraints is itself a linear program
        C = div.cost.matrix(model.points, support)
        n = model.size
        # plan rows sum to the model weights; column sums match the target moments
        A_rows = np.repeat(np.eye(n), m, axis=1)
        A_mom = np.tile(phi.T, (1, n))
        A = np.vstack([A_rows, A_mom])
        rhs = np.concatenate([model.weights, b])
        res = linprog(C.ravel(), A_eq=A, b_eq=rhs, bounds=[(0, None)] * (n * m), method="highs")
        if res.status != 0:
            raise InfeasibleError("constrained transport program infeasible")
        plan = res.x.reshape(n, m)
        q = plan.sum(axis=0)
        q = np.maximum(q, 0.0)
        q /= q.sum()
        return float(res.fun), FiniteDistribution.from_weighted_points(support, q, merge=False)

    if not isinstance(div, FDivergence):
        raise DomainError("moment projection needs an f-divergence or transport evaluator")
    gen = div.gen

    pinv = np.linalg.pinv(A_eq)

    def project_intersection(q: np.ndarray) -> np.ndarray:
        """Alternating corrections onto {q >= 0} and the affine moment set."""
        x = q.copy()
        inc_p = np.zeros_like(x)
        inc_a = np.zeros_like(x)
        for _ in range(4000):
            y = np.maximum(x + inc_p, 0.0)
            inc_p = x + inc_p - y
            x = y + inc_a - pinv @ (A_eq @ (y + inc_a) - b_eq)
            inc_a = y + inc_a - x
            if np.max(np.abs(A_eq @ np.maximum(x, 0.0) - b_eq)) <= 1e-13 and np.min(x) >= -1e-13:
                break
        return np.maximum(x, 0.0)

    def objective(q: np.ndarray) -> float:
        return f_divergence_weights(p_model, q, gen)

    def gradient(q: np.ndarray) -> np.ndarray:
        # d/dq of sum_i p f(q/p): f'(q/p) on carried atoms, the slope at
        # infinity off the model support
        out = np.full(m, min(gen.slope_at_infinity, 1e18))
        pos = p_model > 0
        ratio = np.maximum(q[pos], 1e-300) / p_model[pos]
        out[pos] = gen.f_deriv(ratio)
        return out

    q = project_intersection(np.asarray(feas.x))
    val = objective(q)
    step = 0.1
    for _ in range(max_iter):
        g = gradient(q)
        accepted = False
        while step >= 1e-14:
            trial = project_intersection(q - step * g)
            tval = objective(trial)
            if tval < val - 1e-15:
                q, val = trial, tval
                step = min(step * 1.5, 10.0)
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
    residual = np.max(np.abs(phi.T @ q - b))
    if residual > 1e-8:
        raise InfeasibleError(f"moment residual {residual!r} after projection")
    return val, FiniteDistribution.from_weighted_points(support, q, merge=False)


def fgan_span_max(
    model: FiniteDistribution,
    target,
    features: Sequence[Witness],
    gen: FGenerator,
    max_iter: int = 20000,
    divergence_threshold: float = 1e4,
) -> float:
    """Adversarial objective maximized over a span (constants always included).

    Maximizes E_target[D] - E_model[f*(D)] for D in the span by backtracking
    ascent; trial steps leaving the conjugate domain are rejected by halving.
    Unbounded growth means the moment constraints of the matching primal are
    infeasible and raises InfeasibleError.
    """
    features = tuple(features)
    support = model.points if isinstance(target, MomentVector) else merge_supports(
        model.points, target.points
    )
    phi = np.stack([f.values_on(support) for f in features], axis=1) if features else np.zeros(
        (len(support), 0)
    )
    phi = np.hstack([np.ones((len(support), 1)), phi])
    b = np.concatenate([[1.0], _target_moments(target, features)])
    phi_model = phi[atom_indices(support, model.points)]

    def value_and_grad(a: np.ndarray) -> tuple[float, np.ndarray]:
        d_model = phi_model @ a
        if not gen.in_domain(d_model, margin=1e-12):
            return -np.inf, np.zeros_like(a)
        with np.errstate(over="ignore"):
            conj_vals = gen.conjugate(d_model)
            weights = model.weights * gen.conjugate_deriv(d_model)
        val = float(b @ a - model.weights @ conj_vals)
        grad = b - phi_model.T @ weights
        return val, grad

    # hand-rolled loop so runaway growth surfaces as infeasibility promptly
    a = np.zeros(phi.shape[1])
    val, grad = value_and_grad(a)
    step = 1.0
    for _ in range(max_iter):
        if val > divergence_threshold:
            raise InfeasibleError("span objective grows without bound; moments are not matchable")
        accepted = False
        while step >= 1e-14:
            trial = a + step * grad
            tval, tgrad = value_and_grad(trial)
            if tval > val:
                a, val, grad = trial, tval, tgrad
                step = min(step * 1.5, 1e6)
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
    if val > divergence_threshold:
        raise InfeasibleError("span objective grows without bound; moments are not matchable")
    return val


def otgan_dual(
    model: FiniteDistribution,
    data: FiniteDistribution,
    fclass: LipschitzBall,
    cost: CostFunction,
) -> float:
    """Transport adversarial objective over a Lipschitz ball.

    Maximizes E_data[D] - E_model[D^c]; for the norm cost and radius one the
    c-transform fixes Lipschitz witnesses, recovering the Kantorovich value.
    """
    if not isinstance(fclass, LipschitzBall):
        raise DomainError("otgan_dual expects a Lipschitz ball class")
    support = merge_supports(fclass.support, data.points, model.points)
    p_data = data.weights_on(support)

    def project(vals: np.ndarray) -> np.ndarray:
        return mcshane_regularize(Witness(vals, support), fclass.radius).values

    def value_and_grad(vals: np.ndarray) -> tuple[float, np.ndarray]:
        D = Witness(vals, support)
        C = cost.matrix(model.points, support)
        picks = np.argmax(vals[None, :] - C, axis=1)
        conj = float(model.weights @ (vals[picks] - C[np.arange(model.size), picks]))
        q_star = np.zeros(len(support))
        np.add.at(q_star, picks, model.weights)
        return float(p_data @ vals) - conj, p_data - q_star

    route = ot_primal(data, model, cost)
    exact = optimal_potential(route, cost, support).values
    best = -np.inf
    for d0 in [np.zeros(len(support)), min(fclass.radius, 1.0) * exact]:
        _, val = backtracking_ascent(value_and_grad, project(d0), project=project, max_iter=2000)
        best = max(best, val)
    return best


def _composed_lipschitz_fallback(
    model: FiniteDistribution,
    data: FiniteDistribution,
    gen: FGenerator,
    radius: float,
) -> float:
    """Direct ascent on the witness with composed-Lipschitz feasibility rejection.

    Used when the conjugate has no inverse available for the reparametrized
    route; trial steps whose composition f* o D breaks the Lipschitz budget
    are rejected by halving.
    """
    support = merge_supports(model.points, data.points)
    p_data = data.weights_on(support)
    p_model = model.weights_on(support)

    def value_and_grad(d_vals: np.ndarray) -> tuple[float, np.ndarray]:
        if not gen.in_domain(d_vals, margin=1e-12):
            return -np.inf, np.zeros_like(d_vals)
        with np.errstate(over="ignore"):
            composed = gen.conjugate(d_vals)
        if lipschitz_constant(Witness(composed, support)) > radius + 1e-9:
            return -np.inf, np.zeros_like(d_vals)
        return float(p_data @ d_vals - p_model @ composed), p_data - p_model * gen.conjugate_deriv(d_vals)

    _, val = backtracking_ascent(value_and_grad, np.zeros(len(support)), max_iter=2000)
    return val


def composed_lipschitz_max(
    model: FiniteDistribution,
    data: FiniteDistribution,
    gen: FGenerator,
    radius: float = 1.0,
) -> float:
    """Adversarial objective maximized over {D : f* o D is radius-Lipschitz}.

    Runs in the composed coordinate E = f* o D (the conjugate is invertible
    where its derivative is positive) under the Lipschitz envelope as
    projection, warm-started from the hybrid dual witness mapped through the
    sign-flipped conjugate: for a symmetric generator that map is an
    involution pairing this problem with the norm-cost hybrid.
    """
    if not gen.symmetric:
        raise DomainError("the composed-Lipschitz maximization requires a symmetric generator")
    if gen.conjugate_inverse is None:
        return _composed_lipschitz_fallback(model, data, gen, radius)
    support = merge_supports(model.points, data.points)
    spec = HybridSpec(gen, cost_norm(), support)
    p_data = data.weights_on(support)
    p_model = model.weights_on(support)
    # the conjugate maps onto an interval open at its infimum
    range_lo = float(gen.conjugate(np.array([min(gen.conj_hi, 0.0) - 700.0]))[0])

    def project(e: np.ndarray) -> np.ndarray:
        clipped = np.maximum(e, range_lo + 1e-9)
        return mcshane_regularize(Witness(clipped, support), radius).values

    def value_and_grad(e: np.ndarray) -> tuple[float, np.ndarray]:
        if np.min(e) <= range_lo:
            return -np.inf, np.zeros_like(e)
        d_vals = gen.conjugate_inverse(e)
        with np.errstate(over="ignore", divide="ignore"):
            inv_slope = 1.0 / gen.conjugate_deriv(d_vals)
        return float(p_data @ d_vals - p_model @ e), p_data * inv_slope - p_model

    _, witness = _hybrid_dual_full(model, data, spec, tol=1e-9)
    shifted = _normalized_transform(witness, cost_norm(), support, data, gen)
    inits = [np.zeros(len(support)), project(-shifted)]
    best = -np.inf
    for e0 in inits:
        _, val = backtracking_ascent(value_and_grad, e0, project=project, max_iter=1500)
        best = max(best, val)
    return best


@dataclass(frozen=True)
class IdentityCheck:
    lhs: float
    rhs: float

    @property
    def gap(self) -> float:
        return abs(self.lhs - self.rhs)

    def within(self, tol: float) -> bool:
        scale = 1.0 + max(abs(self.lhs), abs(self.rhs))
        return self.gap <= tol * scale


def check_lipschitz_fgan_identity(
    model: FiniteDistribution,
    data: FiniteDistribution,
    gen: FGenerator,
    radius: float = 1.0,
) -> IdentityCheck:
    """Composed-Lipschitz adversarial objective against the norm-cost hybrid."""
    support = merge_supports(model.points, data.points)
    spec = HybridSpec(gen, cost_norm(), support)
    hyb = hybrid_primal(model, data, spec, tol=1e-9)
    return IdentityCheck(composed_lipschitz_max(model, data, gen, radius), hyb.value)


def _normalized_transform(
    witness: Witness,
    cost: CostFunction,
    support: np.ndarray,
    second: FiniteDistribution,
    gen: FGenerator,
) -> np.ndarray:
    """c-transform of a dual witness, shifted so its conjugate root is absorbed.

    The shifted transform lands strictly inside the conjugate domain on the
    second marginal's atoms, making the literal adversarial objective at the
    witness equal its certified value.
    """
    dc = c_transform(witness, cost, support).values
    lam = conjugate_shift_weights(second.weights_on(support), dc, gen)
    lam = min(lam, gen.conj_hi - float(np.max(dc)) - 1e-9)
    return dc + lam


def check_perturbed_fgan_identity(
    model: FiniteDistribution,
    data: FiniteDistribution,
    gen: FGenerator,
    extra_support=None,
) -> IdentityCheck:
    """Adversarial objective with a quadratic-cost inner perturbation against
    the squared-norm hybrid.

    For each model atom the inner player moves it to the candidate atom
    minimizing -f*(D) plus the squared displacement; the outer maximization
    over D runs by supergradient ascent with domain-violating steps halved.
    """
    if not gen.symmetric:
        raise DomainError("the identity requires a symmetric generator")
    supports = [model.points, data.points]
    if extra_support is not None:
        supports.append(as_points(extra_support))
    support = merge_supports(*supports)
    spec = HybridSpec(gen, cost_norm_squared(), support)
    hyb = hybrid_primal(model, data, spec, tol=1e-9)

    p_data = data.weights_on(support)
    C2 = cost_norm_squared().matrix(model.points, support)

    def value_and_grad(d_vals: np.ndarray) -> tuple[float, np.ndarray]:
        if not gen.in_domain(d_vals, margin=1e-12):
            return -np.inf, np.zeros_like(d_vals)
        with np.errstate(over="ignore"):
            conj_vals = gen.conjugate(d_vals)
            slopes = gen.conjugate_deriv(d_vals)
        inner = -conj_vals[None, :] + C2
        picks = np.argmin(inner, axis=1)
        val = float(p_data @ d_vals + model.weights @ inner[np.arange(model.size), picks])
        grad = p_data.copy()
        np.subtract.at(grad, picks, model.weights * slopes[picks])
        return val, grad

    _, witness = _hybrid_dual_full(model, data, spec, tol=1e-9)
    shifted = _normalized_transform(witness, cost_norm_squared(), support, data, gen)
    with np.errstate(over="ignore"):
        involution = -gen.conjugate(np.minimum(shifted, gen.conj_hi - 1e-9))
    best = -np.inf
    for d0 in [np.zeros(len(support)), involution]:
        _, val = backtracking_ascent(value_and_grad, d0, max_iter=2000)
        best = max(best, val)
    return IdentityCheck(best, hyb.value)
