"""Input generation for the three benchmark workloads.

Everything the program sees is made here from the workload seed: distribution
CSV files, ``TrainConfig`` JSON files and the argv list of every op. Only the
standard library is used, so the inputs do not depend on the numpy version.

File names are relative to the work directory the ops run in, so the same seed
gives the same argv and the same bytes wherever the work directory is.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("divergence", "identity", "training")


@dataclass
class Op:
    """One CLI call. ``instance`` names its inputs; ops that wrap around the
    schedule reuse an instance and must reproduce its outputs exactly."""

    instance: int
    cls: str
    kind: str
    argv: list[str]
    check: dict = field(default_factory=dict)


# divergence ------------------------------------------------------------------

# One round of the divergence schedule holds 16 exact-transport ops, one
# f-divergence op and one hybrid op, which take about a third of the time each.
# The many cheap transport ops put the latency percentiles inside a dense
# cluster of similar ops, where they hold steady from seed to seed.
SIZES = (24, 30, 36, 40, 44, 48)
# (kind, atoms in P, atoms in Q), 2-D; the two files share half of the smaller count
TV = [("tv", SIZES[k % 6], SIZES[(5 * k + 2) % 6]) for k in range(10)]
WASSERSTEIN = [("w1", 24, 30), ("w2", 36, 24), ("w1", 30, 36), ("w2", 24, 36), ("w1", 36, 24), ("w2", 30, 30)]
# (kind, atoms), 2-D; both files hold the same atoms in shuffled order, so every
# atom must be matched across files and kl is finite
FDIV_KINDS = ("js", "kl", "sqhellinger")
FDIV_SIZES = (1024, 1280, 1536, 2048)
# (kind, atoms in P, atoms in Q), 1-D
HYBRID_KINDS = ("hyb-js-w1", "hyb-sh-w2", "hyb-js-w2", "hyb-sh-w1")
HYBRID_SIZES = ((5, 5), (5, 6), (6, 5), (5, 5), (6, 6))
DIVERGENCE_ROUNDS = 8


def _write_distribution(path: Path, points: list[list[float]], raw: list[float]) -> None:
    total = sum(raw)
    dim = len(points[0])
    lines = ["w," + ",".join(f"x{i + 1}" for i in range(dim))]
    for w, p in zip(raw, points):
        lines.append(",".join(repr(v) for v in [w / total, *p]))
    path.write_text("\n".join(lines) + "\n")


def _separated(rng: random.Random, count: int, dim: int, gap: float) -> list[list[float]]:
    """Uniform points in [-1, 1]^dim, pairwise at least ``gap`` apart."""
    pts: list[list[float]] = []
    while len(pts) < count:
        x = [rng.uniform(-1.0, 1.0) for _ in range(dim)]
        if all(sum((a - b) ** 2 for a, b in zip(x, y)) > gap * gap for y in pts):
            pts.append(x)
    return pts


def _weights(rng: random.Random, count: int) -> list[float]:
    return [rng.uniform(0.2, 1.0) for _ in range(count)]


def _interleave(groups: list[list]) -> list:
    """Merge groups so that every stretch of the result holds each group in
    proportion to its length."""
    tagged = [((k + 0.5) / len(g), gi, item) for gi, g in enumerate(groups) for k, item in enumerate(g)]
    return [item for _, _, item in sorted(tagged, key=lambda t: t[:2])]


def _divergence_ops(rng: random.Random, workdir: Path) -> list[Op]:
    specs = []
    for r in range(DIVERGENCE_ROUNDS):
        fdiv = [(FDIV_KINDS[r % 3], FDIV_SIZES[r % 4])]
        hyb = [(HYBRID_KINDS[r % 4], *HYBRID_SIZES[r % 5])]
        specs += _interleave([[("transport", s) for s in TV], [("transport", s) for s in WASSERSTEIN],
                              [("fdiv", s) for s in fdiv], [("hybrid", s) for s in hyb]])
    ops = []
    for i, (cls, spec) in enumerate(specs):
        p_name, q_name = f"in/op{i:03d}_p.csv", f"in/op{i:03d}_q.csv"
        check: dict = {"p": p_name, "q": q_name}
        if cls == "transport":
            kind, n, m = spec
            shared = _separated(rng, min(n, m) // 2, 2, 1e-3)
            P = shared + _separated(rng, n - len(shared), 2, 1e-3)
            Q = shared + _separated(rng, m - len(shared), 2, 1e-3)
        elif cls == "fdiv":
            kind, n = spec
            m = n
            P = [[rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)] for _ in range(n)]
            perm = list(range(n))
            rng.shuffle(perm)
            Q = [P[k] for k in perm]
            check["perm"] = perm  # row j of Q is atom perm[j] of P
        else:
            kind, n, m = spec
            P = _separated(rng, n, 1, 0.05)
            Q = _separated(rng, m, 1, 0.05)
        _write_distribution(workdir / p_name, P, _weights(rng, n))
        _write_distribution(workdir / q_name, Q, _weights(rng, m))
        argv = ["divergence", "--kind", kind, p_name, q_name, "--out", f"out/op{i:03d}"]
        ops.append(Op(i, cls, kind, argv, check))
    return ops


def _divergence_warmups(rng: random.Random, workdir: Path) -> list[Op]:
    ops = []
    for i, (cls, kind, n, dim) in enumerate([("transport", "w1", 3, 2), ("fdiv", "js", 8, 2),
                                             ("hybrid", "hyb-js-w1", 2, 1)]):
        p_name, q_name = f"warm/{kind}_p.csv", f"warm/{kind}_q.csv"
        _write_distribution(workdir / p_name, _separated(rng, n, dim, 0.05), _weights(rng, n))
        _write_distribution(workdir / q_name, _separated(rng, n, dim, 0.05), _weights(rng, n))
        ops.append(Op(-1 - i, cls, kind, ["divergence", "--kind", kind, p_name, q_name, "--out", "warm/out"]))
    return ops


# identity --------------------------------------------------------------------

PAIRINGS = [(d, c) for d in ("js", "kl", "w1") for c in ("all", "span:2", "lip:1")] + [
    (h, "all") for h in ("hyb-js-w1", "hyb-sh-w1", "hyb-js-w2", "hyb-sh-w2")
]
IDENTITY_CYCLES = 8


def _identity_argv(divergence: str, cls: str, seed: int, out: str) -> list[str]:
    return ["duality-check", "--divergence", divergence, "--class", cls,
            "--trials", "1", "--seed", str(seed), "--out", out]


def _identity_ops(rng: random.Random, workdir: Path) -> list[Op]:
    ops = []
    for i in range(IDENTITY_CYCLES * len(PAIRINGS)):
        d, c = PAIRINGS[i % len(PAIRINGS)]
        seed = rng.randrange(2**31)
        ops.append(Op(i, "identity", f"{d}/{c}", _identity_argv(d, c, seed, f"out/op{i:03d}")))
    return ops


def _identity_warmups(rng: random.Random, workdir: Path) -> list[Op]:
    return [Op(-1, "identity", "w1/lip:1", _identity_argv("w1", "lip:1", rng.randrange(2**31), "warm/out"))]


# training --------------------------------------------------------------------

# the criterion-14 network: leaky-relu, discriminator 64x64, generator 32x32, adam
NETWORK = dict(generator_name="js", optimizer="adam", disc_lr=5e-3, gen_lr=1e-4, batch_size=64,
               disc_hidden=[64, 64], gen_hidden=[32, 32], noise_dim=2, sn_power_iters=5,
               activation="leaky-relu")
# One warm-up discriminator step makes the first logged training loss finite.
# A WRM job pays two validation rows of 512 inner solves whatever its length,
# so it runs one iteration and a short inner loop; the other heads run enough
# iterations that the three jobs cost about the same.
HEADS = {
    "fgan-lipschitz": dict(iterations=50, log_every=25, disc_warmup=1),
    "w1gan": dict(iterations=40, log_every=20, disc_warmup=1, gp_weight=10.0),
    "fgan-wrm": dict(iterations=1, log_every=1, disc_warmup=1, wrm_steps=2),
}
TRAINING_CYCLE = ["fgan-lipschitz", "w1gan", "fgan-wrm"]
TRAINING_CYCLES = 30


def _train_op(instance: int, loss: str, config: dict, cfg_name: str, out: str, workdir: Path) -> Op:
    (workdir / cfg_name).write_text(json.dumps(config, sort_keys=True) + "\n")
    argv = ["train-toy", "--config", cfg_name, "--losses", loss, "--dataset", "ring", "--out", out]
    return Op(instance, "training", loss, argv, {"csv": f"{out}/train_{loss}.csv"})


def _training_ops(rng: random.Random, workdir: Path) -> list[Op]:
    ops = []
    for i in range(TRAINING_CYCLES * len(TRAINING_CYCLE)):
        loss = TRAINING_CYCLE[i % len(TRAINING_CYCLE)]
        config = dict(NETWORK, **HEADS[loss], seed=rng.randrange(2**31))
        ops.append(_train_op(i, loss, config, f"in/op{i:03d}_cfg.json", f"out/op{i:03d}", workdir))
    return ops


def _training_warmups(rng: random.Random, workdir: Path) -> list[Op]:
    config = dict(NETWORK, iterations=2, log_every=1, disc_warmup=1, seed=rng.randrange(2**31))
    return [_train_op(-1, "fgan-lipschitz", config, "warm/cfg.json", "warm/out", workdir)]


# Ops per round of each schedule. A run measures whole rounds, so every run
# holds the op classes in the same proportions, and at least MIN_ROUNDS of
# them. The floors give every run at least 38 ops, which leaves ten above the
# 75th percentile. Identity needs five rounds: the span:2 pairings cost 0.1 s on
# most random instances and 4 s on a few, so fewer instances per run let the
# totals swing by a fifth from seed to seed.
ROUND_OPS = {"divergence": len(TV) + len(WASSERSTEIN) + 2, "identity": len(PAIRINGS), "training": len(TRAINING_CYCLE)}
MIN_ROUNDS = {"divergence": 3, "identity": 5, "training": 13}

BUILDERS = {
    "divergence": (_divergence_ops, _divergence_warmups),
    "identity": (_identity_ops, _identity_warmups),
    "training": (_training_ops, _training_warmups),
}


def build(workload: str, seed: int, workdir: Path) -> tuple[list[Op], list[Op]]:
    """Write the workload's input files under ``workdir``; return the timed
    schedule and one warm-up op per op class."""
    if workload not in BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    workdir = Path(workdir)
    for sub in ("in", "out", "warm"):
        (workdir / sub).mkdir(parents=True, exist_ok=True)
    make_ops, make_warmups = BUILDERS[workload]
    rng = random.Random(f"{workload}:{seed}")
    ops = make_ops(rng, workdir)
    warmups = make_warmups(rng, workdir)
    return ops, warmups
