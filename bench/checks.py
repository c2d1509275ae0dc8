"""Per-op correctness gate, computed without the solvers under test.

Exact transport values are checked against a HiGHS linear program on the same
atoms, f-divergences against a numpy formula on the generator's known atom
pairing, hybrid values against their own printed certificate, identity ops by
their exit code (the CLI exits nonzero past its 1e-3 gap tolerance) and
training runs by the finiteness of every logged row.
"""

from __future__ import annotations

import csv
import math

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

EXACT_RTOL = 1e-9
FDIV_RTOL = 1e-10
HYBRID_WEAK_DUALITY_SLACK = 1e-9
HYBRID_GAP = 1e-3  # the criterion-07 bound on value minus certified dual


def read_distribution(path) -> tuple[np.ndarray, np.ndarray]:
    """Points and weights of a distribution file, weights renormalized as the CLI does."""
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh)][1:]
    w = np.array([float(r[0]) for r in rows if r])
    pts = np.array([[float(c) for c in r[1:]] for r in rows if r])
    return pts, w / w.sum()


def printed_values(stdout: str) -> dict[str, float]:
    out = {}
    for line in stdout.splitlines():
        key, sep, val = line.partition(": ")
        if sep and key in ("value", "fw_gap", "dual_lower_bound"):
            out[key] = float(val)
    return out


def transport_lp(kind: str, P: tuple, Q: tuple) -> float:
    """Optimal transport value by HiGHS over the n*m coupling variables."""
    (x, p), (y, q) = P, Q
    dist = np.sqrt(((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=2))
    cost = {"w1": dist, "w2": dist**2, "tv": (dist > 1e-9).astype(float)}[kind]
    n, m = cost.shape
    A = sp.vstack([sp.kron(sp.eye(n), np.ones((1, m))), sp.kron(np.ones((1, n)), sp.eye(m))]).tocsr()
    res = linprog(cost.ravel(), A_eq=A, b_eq=np.concatenate([p, q]), bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return math.sqrt(max(res.fun, 0.0)) if kind == "w2" else float(res.fun)


def fdiv_formula(kind: str, P: tuple, Q: tuple, perm: list[int]) -> float:
    """Closed-form divergence with Q's weights matched to P's atoms through the
    generator's permutation (row j of Q is atom perm[j] of P)."""
    (x, p), (y, qrows) = P, Q
    if not np.array_equal(x[perm], y):
        raise RuntimeError("the files do not hold the permuted atoms the generator wrote")
    q = np.empty_like(qrows)
    q[perm] = qrows
    if kind == "kl":  # sum_i p_i f(q_i / p_i) with f(t) = t log t
        return float(np.sum(q * np.log(q / p)))
    if kind == "sqhellinger":
        return float(np.sum((np.sqrt(p) - np.sqrt(q)) ** 2))
    m = 0.5 * (p + q)  # js, in bits
    return float(0.5 * (np.sum(p * np.log(p / m)) + np.sum(q * np.log(q / m))) / math.log(2.0))


def _relative_error(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref) if ref != 0.0 else abs(value)


def check_op(op, result, workdir) -> str | None:
    """Reason the op failed, or None when its output is correct."""
    if result["error"] is not None:
        return result["error"]
    if result["rc"] != 0:
        return f"exit code {result['rc']}"
    if op.cls == "identity":
        return None
    if op.cls == "training":
        with open(workdir / op.check["csv"], newline="") as fh:
            rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")][1:]
        if not rows:
            return "no logged training rows"
        bad = [r for r in rows if not all(math.isfinite(float(v)) for v in r[:3])]
        return f"non-finite training rows: {bad[:3]}" if bad else None
    vals = printed_values(result["stdout"])
    if "value" not in vals:
        return "no value printed"
    value = vals["value"]
    if op.cls == "hybrid":
        dlb = vals.get("dual_lower_bound", -math.inf)
        if not dlb <= value + HYBRID_WEAK_DUALITY_SLACK:
            return f"dual lower bound {dlb!r} above value {value!r}"
        if not value - dlb <= HYBRID_GAP:
            return f"certified gap {value - dlb!r} above {HYBRID_GAP}"
        return None
    P = read_distribution(workdir / op.check["p"])
    Q = read_distribution(workdir / op.check["q"])
    if op.cls == "transport":
        ref, rtol = transport_lp(op.kind, P, Q), EXACT_RTOL
    else:
        ref, rtol = fdiv_formula(op.kind, P, Q, op.check["perm"]), FDIV_RTOL
    err = _relative_error(value, ref)
    return None if err <= rtol else f"value {value!r} vs reference {ref!r} (relative error {err:.2e})"
