"""In-memory span tracing around the package's layer entry points.

A traced run wraps each layer's public functions from outside the package:
every module-level name bound to a wrapped function is rebound, because
modules bind imported names at import time. Spans are kept in flat arrays and
written out when the run ends; per-layer numbers are derived from them
afterwards. Functions that run once per atom get counters instead of spans.

A span's layer is the part of its name before the first dot.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from array import array
from collections import defaultdict

# (module, attribute, span name); ``Class.method`` attributes patch the class
ENTRY_POINTS = [
    ("distributions", "load_distribution_csv", "distributions.load_distribution_csv"),
    ("distributions", "FiniteDistribution.from_weighted_points", "distributions.from_weighted_points"),
    ("distributions", "merge_supports", "distributions.merge_supports"),
    ("distributions", "atom_indices", "distributions.atom_indices"),
    ("distributions", "FiniteDistribution.weights_on", "distributions.weights_on"),
    ("fdiv", "f_divergence", "fdiv.f_divergence"),
    ("fdiv", "js_divergence", "fdiv.js_divergence"),
    ("fdiv", "conjugate_shift_weights", "fdiv.conjugate_shift_weights"),
    ("transport", "ot_primal", "transport.ot_primal"),
    ("transport", "transport_simplex", "transport.transport_simplex"),
    ("hybrid", "hybrid_primal", "hybrid.hybrid_primal"),
    ("hybrid", "hybrid_dual", "hybrid.hybrid_dual"),
    ("hybrid", "_hybrid_dual_full", "hybrid.dual_full"),
    ("hybrid", "check_w1_continuity", "hybrid.check_w1_continuity"),
    ("hybrid", "check_w2_perturbation_bound", "hybrid.check_w2_perturbation_bound"),
    ("duality", "discriminator_max", "duality.discriminator_max"),
    ("duality", "penalized_divergence_min", "duality.penalized_divergence_min"),
    ("duality", "check_lipschitz_fgan_identity", "duality.check_lipschitz_fgan_identity"),
    ("duality", "check_perturbed_fgan_identity", "duality.check_perturbed_fgan_identity"),
    ("ascent", "backtracking_ascent", "ascent.backtracking_ascent"),
    ("neuralgan", "train", "neuralgan.train"),
    ("neuralgan", "gan_loss", "neuralgan.gan_loss"),
    ("neuralgan", "wrm_inner_solve", "neuralgan.wrm_inner_solve"),
    ("neuralgan", "gradient_penalty", "neuralgan.gradient_penalty"),
    ("neuralgan", "spectral_normalize", "neuralgan.spectral_normalize"),
    ("neuralgan", "mlp_forward", "neuralgan.mlp_forward"),
    ("neuralgan", "mlp_backward", "neuralgan.mlp_backward"),
    ("experiments", "evaluate_divergence", "cli.evaluate_divergence"),
    ("experiments", "duality_sweep", "cli.duality_sweep"),
    ("experiments", "train_toy", "cli.train_toy"),
    ("cli", "main", "cli.main"),
]
DUALITY_ENTRIES = {name for _, _, name in ENTRY_POINTS if name.startswith("duality.")}


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Span recorder: name, start, end, parent span and op id per span.

    ``clock`` is injectable so tests can drive it with known times.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)

    def begin(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(self.clock())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self.stack.pop()

    def current_layer(self) -> str | None:
        return layer_of(self.names[self.name[self.stack[-1]]]) if self.stack else None

    def wrap(self, name: str, fn, account=None):
        """Span around ``fn``; ``account(args, kwargs, result)`` runs after the span closes."""

        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(idx)
            if account is not None:
                account(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counted(self, key: str, fn):
        def counting(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        counting.__wrapped__ = fn
        return counting

    def write(self, path) -> None:
        """Write every span as a tab-separated line: name, start, end, parent, op."""
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name[i]]}\t{self.start[i]!r}\t{self.end[i]!r}\t"
                         f"{self.parent[i]}\t{self.op[i]}\n")


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so children nest inside their parent and do
    not overlap each other.
    """
    child = [0.0] * len(start)
    for i in range(len(start)):
        if parent[i] >= 0:
            child[parent[i]] += end[i] - start[i]
    return [end[i] - start[i] - child[i] for i in range(len(start))]


# instrumentation -------------------------------------------------------------


def _flops_per_row(params) -> int:
    return sum(int(W.size) for W in params.weights)


def _accounting(tracer: Tracer):
    """Counters recorded when a span closes, keyed by span name."""
    counts, maxima = tracer.counts, tracer.maxima

    def csv_load(args, kwargs, result):
        counts["distributions.atoms"] += result.size
        counts["distributions.csv_bytes"] += os.path.getsize(args[0])

    def from_weighted_points(args, kwargs, result):
        counts["distributions.atoms"] += len(args[1])

    def merge_supports(args, kwargs, result):
        counts["distributions.atoms"] += sum(len(s) for s in args)

    def atom_indices(args, kwargs, result):
        counts["distributions.atoms"] += len(args[1])

    def weights_on(args, kwargs, result):
        counts["distributions.atoms"] += args[0].size

    def ot_primal(args, kwargs, result):
        counts["transport.cells"] += args[0].size * args[1].size
        gap = abs(result.value - result.dual_value) / (1.0 + abs(result.value))
        maxima["transport.cert_gap_max"] = max(maxima["transport.cert_gap_max"], gap)

    def hybrid_primal(args, kwargs, result):
        counts["hybrid.primal_iters"] += result.iterations
        counts["hybrid.primal_converged"] += bool(result.converged)

    def mlp_forward(args, kwargs, result):
        rows = len(result)
        counts["neuralgan.mlp_rows"] += rows
        counts["neuralgan.mlp_flop"] += 2 * rows * _flops_per_row(args[0])

    def mlp_backward(args, kwargs, result):
        # the backward pass re-runs the forward pass, then forms dW and da per layer
        rows = len(result[1])
        counts["neuralgan.mlp_rows"] += rows
        counts["neuralgan.mlp_flop"] += 6 * rows * _flops_per_row(args[0])

    return {
        "distributions.load_distribution_csv": csv_load,
        "distributions.from_weighted_points": from_weighted_points,
        "distributions.merge_supports": merge_supports,
        "distributions.atom_indices": atom_indices,
        "distributions.weights_on": weights_on,
        "transport.ot_primal": ot_primal,
        "hybrid.hybrid_primal": hybrid_primal,
        "neuralgan.mlp_forward": mlp_forward,
        "neuralgan.mlp_backward": mlp_backward,
    }


class Instrumentation:
    """Installs the span wrappers into the loaded ``ganduality`` modules and
    removes them again."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind_everywhere(self, original, replacement) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname == "ganduality" or modname.startswith("ganduality."):
                for attr, val in list(vars(mod).items()):
                    if val is original:
                        self._set(mod, attr, replacement)

    def install(self) -> None:
        import scipy.optimize

        from ganduality import distributions, duality

        tracer = self.tracer
        accounting = _accounting(tracer)
        for modname, attr, name in ENTRY_POINTS:
            mod = importlib.import_module(f"ganduality.{modname}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(tracer.wrap(name, raw.__func__, accounting.get(name)))
                else:
                    wrapped = tracer.wrap(name, raw, accounting.get(name))
                self._set(cls, meth, wrapped)
                continue
            original = getattr(mod, attr)
            if name == "ascent.backtracking_ascent":
                replacement = self._ascent_wrapper(original)
            else:
                replacement = tracer.wrap(name, original, accounting.get(name))
            self._rebind_everywhere(original, replacement)

        self._rebind_everywhere(distributions.find_atom,
                                tracer.counted("distributions.find_atom_calls", distributions.find_atom))
        # duality binds linprog at import; hybrid imports it from scipy.optimize at call time
        self._set(duality, "linprog", tracer.wrap("duality.linprog", duality.linprog))
        self._set(scipy.optimize, "linprog", tracer.wrap("hybrid.linprog", scipy.optimize.linprog))

    def _ascent_wrapper(self, ascent):
        """Span around the ascent loop; the objective and projection passed in
        run as spans of the calling layer and count ``ascent.evals``."""
        tracer = self.tracer
        traced_ascent = tracer.wrap("ascent.backtracking_ascent", ascent)

        def backtracking_ascent(value_and_grad, x0, project=None, **kwargs):
            caller = tracer.current_layer() or "bench"
            objective = tracer.wrap(f"{caller}.objective", value_and_grad)

            def counted_objective(x):
                tracer.counts["ascent.evals"] += 1
                return objective(x)

            if project is not None:
                project = tracer.wrap(f"{caller}.projection", project)
            return traced_ascent(counted_objective, x0, project=project, **kwargs)

        return backtracking_ascent

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


# per-layer metrics -----------------------------------------------------------

PER_LAYER_UNITS = {
    "transport.calls": "count", "transport.self_s": "s", "transport.simplex_s": "s",
    "transport.cells": "count", "transport.cert_gap_max": "ratio",
    "distributions.calls": "count", "distributions.self_s": "s", "distributions.atoms": "count",
    "distributions.csv_bytes": "B", "distributions.csv_read_s": "s",
    "distributions.find_atom_calls": "count",
    "fdiv.calls": "count", "fdiv.self_s": "s", "fdiv.shift_calls": "count", "fdiv.shift_s": "s",
    "hybrid.self_s": "s", "hybrid.primal_calls": "count", "hybrid.primal_s": "s",
    "hybrid.primal_iters": "count", "hybrid.converged_frac": "ratio",
    "hybrid.dual_calls": "count", "hybrid.dual_s": "s", "hybrid.lp_calls": "count", "hybrid.lp_s": "s",
    "duality.calls": "count", "duality.self_s": "s", "duality.lp_calls": "count",
    "ascent.calls": "count", "ascent.evals": "count", "ascent.self_s": "s",
    "neuralgan.self_s": "s", "neuralgan.loss_calls": "count", "neuralgan.loss_s": "s",
    "neuralgan.mlp_rows": "count", "neuralgan.mlp_gflop": "GFLOP",
    "neuralgan.sn_calls": "count", "neuralgan.sn_s": "s", "neuralgan.gp_calls": "count",
    "neuralgan.gp_s": "s", "neuralgan.wrm_calls": "count", "neuralgan.wrm_s": "s",
    "cli.self_s": "s", "cli.out_bytes": "B",
    "trace.overhead_frac": "ratio", "trace.spans": "count",
}
LAYERS = ("distributions", "transport", "fdiv", "hybrid", "duality", "ascent", "neuralgan", "cli")


def layer_self_seconds(tracer: Tracer) -> dict[str, float]:
    """Self time summed per layer, the benchmark's own spans excluded."""
    own = self_times(tracer.start, tracer.end, tracer.parent)
    out = dict.fromkeys(LAYERS, 0.0)
    for i, s in enumerate(own):
        layer = layer_of(tracer.names[tracer.name[i]])
        if layer in out:
            out[layer] += s
    return out


def per_layer_metrics(tracer: Tracer, out_bytes: int, overhead_frac: float) -> dict[str, float]:
    calls: dict[str, int] = defaultdict(int)
    inclusive: dict[str, float] = defaultdict(float)
    for i in range(len(tracer.start)):
        name = tracer.names[tracer.name[i]]
        calls[name] += 1
        inclusive[name] += tracer.end[i] - tracer.start[i]

    def layer_calls(layer: str, exclude=("objective", "projection", "linprog")) -> int:
        return sum(n for name, n in calls.items()
                   if layer_of(name) == layer and name.split(".", 1)[1] not in exclude)

    c = tracer.counts
    self_s = layer_self_seconds(tracer)
    primal_calls = calls["hybrid.hybrid_primal"]
    m = {
        "transport.calls": calls["transport.ot_primal"],
        "transport.self_s": self_s["transport"],
        "transport.simplex_s": inclusive["transport.transport_simplex"],
        "transport.cells": c["transport.cells"],
        "transport.cert_gap_max": tracer.maxima["transport.cert_gap_max"],
        "distributions.calls": layer_calls("distributions"),
        "distributions.self_s": self_s["distributions"],
        "distributions.atoms": c["distributions.atoms"],
        "distributions.csv_bytes": c["distributions.csv_bytes"],
        "distributions.csv_read_s": inclusive["distributions.load_distribution_csv"],
        "distributions.find_atom_calls": c["distributions.find_atom_calls"],
        "fdiv.calls": layer_calls("fdiv"),
        "fdiv.self_s": self_s["fdiv"],
        "fdiv.shift_calls": calls["fdiv.conjugate_shift_weights"],
        "fdiv.shift_s": inclusive["fdiv.conjugate_shift_weights"],
        "hybrid.self_s": self_s["hybrid"],
        "hybrid.primal_calls": primal_calls,
        "hybrid.primal_s": inclusive["hybrid.hybrid_primal"],
        "hybrid.primal_iters": c["hybrid.primal_iters"],
        "hybrid.converged_frac": c["hybrid.primal_converged"] / primal_calls if primal_calls else 0.0,
        "hybrid.dual_calls": calls["hybrid.dual_full"],
        "hybrid.dual_s": inclusive["hybrid.dual_full"],
        "hybrid.lp_calls": calls["hybrid.linprog"],
        "hybrid.lp_s": inclusive["hybrid.linprog"],
        "duality.calls": sum(calls[n] for n in DUALITY_ENTRIES),
        "duality.self_s": self_s["duality"],
        "duality.lp_calls": calls["duality.linprog"],
        "ascent.calls": calls["ascent.backtracking_ascent"],
        "ascent.evals": c["ascent.evals"],
        "ascent.self_s": self_s["ascent"],
        "neuralgan.self_s": self_s["neuralgan"],
        "neuralgan.loss_calls": calls["neuralgan.gan_loss"],
        "neuralgan.loss_s": inclusive["neuralgan.gan_loss"],
        "neuralgan.mlp_rows": c["neuralgan.mlp_rows"],
        "neuralgan.mlp_gflop": c["neuralgan.mlp_flop"] / 1e9,
        "neuralgan.sn_calls": calls["neuralgan.spectral_normalize"],
        "neuralgan.sn_s": inclusive["neuralgan.spectral_normalize"],
        "neuralgan.gp_calls": calls["neuralgan.gradient_penalty"],
        "neuralgan.gp_s": inclusive["neuralgan.gradient_penalty"],
        "neuralgan.wrm_calls": calls["neuralgan.wrm_inner_solve"],
        "neuralgan.wrm_s": inclusive["neuralgan.wrm_inner_solve"],
        "cli.self_s": self_s["cli"],
        "cli.out_bytes": out_bytes,
        "trace.overhead_frac": overhead_frac,
        "trace.spans": len(tracer.start),
    }
    return {k: float(v) for k, v in m.items()}
