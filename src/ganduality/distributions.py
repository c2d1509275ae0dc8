"""Finite-support probability distributions and the values defined over them.

Conventions used throughout the package:

* a support is a float64 array of shape (n, k), one atom per row, all
  coordinates finite;
* two atoms are treated as the same point when their Euclidean distance is
  at most ``MERGE_TOL``;
* weights are strictly positive after construction (zero-weight atoms are
  dropped) and sum to one within ``WEIGHT_TOL``;
* supports are ordered, and every matrix in the package indexes atoms by
  their position in that order.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.spatial import cKDTree

from .errors import DomainError, InvariantViolation

MERGE_TOL = 1e-9
WEIGHT_TOL = 1e-12


def as_points(points) -> np.ndarray:
    """Coerce to a (n, k) float64 atom array, accepting 1-D input as points on the line."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2:
        raise DomainError(f"support must be a (n, k) array, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise DomainError("support coordinates must be finite")
    return pts


def find_atom(support: np.ndarray, point: np.ndarray) -> int:
    """Index of ``point`` in ``support`` (match within MERGE_TOL), or -1."""
    d = np.linalg.norm(support - point[None, :], axis=1)
    hits = np.nonzero(d <= MERGE_TOL)[0]
    return int(hits[0]) if hits.size else -1


def match_atoms(support: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Lowest index of a ``support`` atom within MERGE_TOL of each row of ``points``, or -1.

    Candidate pairs are those two k-d trees find within twice the tolerance;
    each candidate is decided by the same norm test as ``find_atom``.
    """
    support, points = np.asarray(support, dtype=float), np.asarray(points, dtype=float)
    n = len(support)
    first = np.full(len(points), n)
    pairs = cKDTree(points).sparse_distance_matrix(
        cKDTree(support), 2 * MERGE_TOL, output_type="ndarray"
    )
    qi, sj = pairs["i"], pairs["j"]
    hit = np.linalg.norm(support[sj] - points[qi], axis=1) <= MERGE_TOL
    np.minimum.at(first, qi[hit], sj[hit])
    first[first == n] = -1
    return first


def atom_indices(support: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Map each row of ``points`` to its index in ``support``; raise if any is missing."""
    idx = match_atoms(support, points)
    missing = np.flatnonzero(idx < 0)
    if missing.size:
        raise DomainError(f"point {points[missing[0]]} is not an atom of the given support")
    return idx


def _representatives(points: np.ndarray) -> np.ndarray:
    """Greedy first-seen merging: the index of each point's representative.

    Scanning in order, a point joins the lowest-index earlier representative
    within MERGE_TOL, or becomes a representative itself.
    """
    first = match_atoms(points, points)
    rep = first.copy()
    # a point with no earlier neighbour is a representative, so a point whose
    # lowest neighbour is such a point joins it; only chains of atoms each
    # within tolerance of the next are left to resolve in order
    for i in np.flatnonzero(first[first] != first):
        reps = np.flatnonzero(rep[:i] == np.arange(i))
        j = find_atom(points[reps], points[i])
        rep[i] = reps[j] if j >= 0 else i
    return rep


def merge_points(points: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum weights of coincident atoms, keeping first-seen order and coordinates."""
    rep = _representatives(points)
    keep = np.flatnonzero(rep == np.arange(len(points)))
    slot = np.empty(len(points), dtype=int)
    slot[keep] = np.arange(len(keep))
    acc = np.zeros(len(keep))
    np.add.at(acc, slot[rep], weights)
    return points[keep], acc


@dataclass(frozen=True)
class FiniteDistribution:
    """Probability distribution with finitely many atoms in R^k.

    ``points`` has shape (n, k); ``weights`` has shape (n,), strictly
    positive, summing to one. ``radius`` records the largest atom norm, the
    bound realizing compactness of the domain.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = as_points(self.points)
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or len(w) != len(pts):
            raise DomainError("weights must be a vector aligned with the support")
        if np.any(w < 0):
            raise InvariantViolation("negative weight")
        keep = w > 0.0
        pts, w = pts[keep], w[keep]
        if len(pts) == 0:
            raise DomainError("distribution needs at least one atom of positive mass")
        if abs(w.sum() - 1.0) > WEIGHT_TOL:
            raise InvariantViolation(f"weights sum to {w.sum()!r}, not 1")
        if np.any(match_atoms(pts, pts) != np.arange(len(pts))):
            raise InvariantViolation("support atoms are not pairwise distinct")
        pts.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @property
    def size(self) -> int:
        return len(self.weights)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def radius(self) -> float:
        return float(np.max(np.linalg.norm(self.points, axis=1)))

    @classmethod
    def from_weighted_points(cls, points, weights, merge: bool = True) -> "FiniteDistribution":
        """Build a distribution, merging coincident atoms and dropping zero weights."""
        pts = as_points(points)
        w = np.asarray(weights, dtype=float)
        if w.shape != (len(pts),):
            raise DomainError("weights must be a vector aligned with the support")
        if merge:
            pts, w = merge_points(pts, w)
        return cls(pts, w)

    @classmethod
    def uniform(cls, points) -> "FiniteDistribution":
        pts = as_points(points)
        return cls.from_weighted_points(pts, np.full(len(pts), 1.0 / len(pts)))

    @classmethod
    def delta(cls, point) -> "FiniteDistribution":
        pt = np.atleast_1d(np.asarray(point, dtype=float))
        return cls(pt[None, :], np.array([1.0]))

    def weight_at(self, point) -> float:
        """Mass at ``point`` (zero when the point is not an atom)."""
        j = find_atom(self.points, np.atleast_1d(np.asarray(point, dtype=float)))
        return float(self.weights[j]) if j >= 0 else 0.0

    def weights_on(self, support: np.ndarray) -> np.ndarray:
        """Weight vector aligned with ``support``; raises if an atom falls outside it."""
        idx = match_atoms(support, self.points)
        if np.any(idx < 0):
            raise DomainError("distribution atom missing from the requested support")
        out = np.zeros(len(support))
        np.add.at(out, idx, self.weights)
        return out


@dataclass(frozen=True)
class Witness:
    """Discriminator values attached to the support they were defined on."""

    values: np.ndarray
    support: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        s = as_points(self.support)
        if v.ndim != 1 or len(v) != len(s):
            raise DomainError("witness values must align with the support")
        if not np.all(np.isfinite(v)):
            raise DomainError("witness values must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "support", s)

    def values_on(self, points: np.ndarray) -> np.ndarray:
        """Values at the given points, which must all be atoms of this witness's support."""
        return self.values[atom_indices(self.support, points)]

    def shifted(self, c: float) -> "Witness":
        return Witness(self.values + c, self.support)


def expectation(P: FiniteDistribution, D: Witness) -> float:
    """Weighted mean of the witness over the distribution's atoms."""
    return float(P.weights @ D.values_on(P.points))


def merge_supports(*supports: np.ndarray) -> np.ndarray:
    """Union of supports with coincident atoms identified, first-seen order."""
    points = np.concatenate([as_points(s) for s in supports])
    return points[_representatives(points) == np.arange(len(points))]


def aligned_weights(P: FiniteDistribution, Q: FiniteDistribution) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Common merged support and both weight vectors aligned to it."""
    support = merge_supports(P.points, Q.points)
    return support, P.weights_on(support), Q.weights_on(support)


@dataclass(frozen=True)
class Coupling:
    """Joint mass matrix over a pair of ordered supports.

    Row sums must reproduce the source weights; column sums are free unless
    the coupling was built against a fixed target.
    """

    row_support: np.ndarray
    col_support: np.ndarray
    mass: np.ndarray
    row_weights: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mass, dtype=float)
        if np.any(m < -1e-15):
            raise InvariantViolation("coupling mass must be nonnegative")
        m = np.maximum(m, 0.0)
        rw = np.asarray(self.row_weights, dtype=float)
        if m.shape != (len(self.row_support), len(self.col_support)):
            raise DomainError("coupling shape does not match its supports")
        if np.max(np.abs(m.sum(axis=1) - rw)) > 1e-10:
            raise InvariantViolation("coupling row sums do not match the source weights")
        m.setflags(write=False)
        object.__setattr__(self, "mass", m)

    def col_sums(self) -> np.ndarray:
        return self.mass.sum(axis=0)


def independent_coupling(P: FiniteDistribution, Q: FiniteDistribution) -> Coupling:
    """Product coupling of two distributions."""
    return Coupling(P.points, Q.points, np.outer(P.weights, Q.weights), P.weights)


def coupling_marginals(M: Coupling) -> tuple[FiniteDistribution, FiniteDistribution]:
    """Row and column marginal distributions; zero-mass column atoms are dropped."""
    row = FiniteDistribution.from_weighted_points(M.row_support, M.mass.sum(axis=1))
    col = FiniteDistribution.from_weighted_points(M.col_support, M.mass.sum(axis=0))
    return row, col


@dataclass(frozen=True)
class GeneratorFamily:
    """Parametric map applied to a fixed noise distribution.

    ``transform(theta, z_points)`` maps a parameter vector and a (m, k_z)
    noise array to a (m, k) output array. ``theta_box`` is a pair of
    (low, high) arrays bounding the admissible parameters.
    """

    noise: FiniteDistribution
    transform: Callable[[np.ndarray, np.ndarray], np.ndarray]
    theta_low: np.ndarray
    theta_high: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.theta_low, dtype=float))
        hi = np.atleast_1d(np.asarray(self.theta_high, dtype=float))
        if lo.shape != hi.shape or np.any(lo > hi):
            raise DomainError("parameter box must satisfy low <= high")
        object.__setattr__(self, "theta_low", lo)
        object.__setattr__(self, "theta_high", hi)

    def check_theta(self, theta) -> np.ndarray:
        th = np.atleast_1d(np.asarray(theta, dtype=float))
        if th.shape != self.theta_low.shape:
            raise DomainError("parameter vector has the wrong shape")
        if np.any(th < self.theta_low - 1e-12) or np.any(th > self.theta_high + 1e-12):
            raise DomainError(f"theta {th} outside the declared parameter box")
        return th


def pushforward(family: GeneratorFamily, theta) -> FiniteDistribution:
    """Image distribution of the noise under the family map at ``theta``.

    Weights are inherited from the noise; coincident images merge by summing.
    """
    th = family.check_theta(theta)
    images = as_points(family.transform(th, family.noise.points))
    if len(images) != family.noise.size:
        raise DomainError("family transform must map atoms one to one")
    return FiniteDistribution.from_weighted_points(images, family.noise.weights)


def shift_family(noise: FiniteDistribution, low: float, high: float) -> GeneratorFamily:
    """Translation family on the line: every noise atom is shifted by theta."""
    return GeneratorFamily(
        noise=noise,
        transform=lambda th, z: z + th[None, :],
        theta_low=np.full(noise.dim, low),
        theta_high=np.full(noise.dim, high),
    )


@dataclass(frozen=True)
class RandomSource:
    """Counter-based random stream factory: equal seeds give equal streams."""

    seed: int

    def stream(self, index: int = 0) -> np.random.Generator:
        bg = np.random.Philox(key=self.seed)
        if index:
            bg = bg.jumped(index)
        return np.random.Generator(bg)


# distribution files: CSV with header ``w,x1,...,xk``


def save_distribution_csv(P: FiniteDistribution, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["w"] + [f"x{i + 1}" for i in range(P.dim)])
        for w, x in zip(P.weights, P.points):
            writer.writerow([repr(float(w))] + [repr(float(c)) for c in x])


def load_distribution_csv(path) -> FiniteDistribution:
    """Read a distribution file, renormalizing weights off by at most 1e-6."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or not rows[0] or rows[0][0].strip() != "w":
        raise DomainError(f"{path}: expected header 'w,x1,...,xk'")
    body = [r for r in rows[1:] if r]
    try:
        w = np.array([float(r[0]) for r in body])
        pts = np.array([[float(c) for c in r[1:]] for r in body])
    except ValueError as exc:
        raise DomainError(f"{path}: malformed numeric field ({exc})") from exc
    total = w.sum()
    if abs(total - 1.0) > 1e-6:
        raise DomainError(f"{path}: weights sum to {total!r}, outside the 1e-6 tolerance")
    return FiniteDistribution.from_weighted_points(pts, w / total)
