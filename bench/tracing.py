"""Spans around quambo's public functions, installed from the benchmark's side.

Each traced function is replaced, in every quambo module that holds it, by a
wrapper that records a span: name, start, end, parent span and self time
(span time minus time in child spans).  Calls made hundreds of thousands of
times per round (the simulator kernels, objective evaluations, heuristic
restarts) are not kept one by one: they are aggregated, per name, into the
nearest kept ancestor span.  Spans stay in memory until the run writes them.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

MODULES = ("qubo", "problems", "simulator", "qaoa", "optimize", "vqe", "heuristics", "anneal", "cli")

# (span name, module, attribute, kept as an individual span)
FUNCTIONS = [
    ("qubo.energy_vector", "qubo", "energy_vector", False),
    ("qubo.enumerate_spectrum", "qubo", "enumerate_spectrum", True),
    ("problems.encode", "problems", "encode_single_complement", True),
    ("problems.encode", "problems", "encode_start_dest", True),
    ("problems.encode", "problems", "encode_position_linear", True),
    ("problems.feasible_spectrum", "problems", "feasible_spectrum", True),
    ("simulator.apply_phase_vector", "simulator", "apply_phase_vector", False),
    ("simulator.apply_x_mixer", "simulator", "apply_x_mixer", False),
    ("simulator.apply_local_unitary", "simulator", "apply_local_unitary", False),
    ("simulator.sample", "simulator", "sample", False),
    ("qaoa.metrics", "qaoa", "metrics", False),
    ("optimize.minimize", "optimize", "minimize", True),
    ("vqe.apply_ansatz", "vqe", "apply_ansatz", False),
    ("vqe.ev_all_qubit_sampling", "vqe", "ev_all_qubit_sampling", False),
    ("vqe.ev_causal_cone_sampling", "vqe", "ev_causal_cone_sampling", False),
    ("vqe.causal_cone", "vqe", "causal_cone", False),
    ("heuristics.tabu_search", "heuristics", "tabu_search", False),
    ("heuristics.simulated_annealing", "heuristics", "simulated_annealing", False),
    ("heuristics.exact_facility_optimum", "heuristics", "exact_facility_optimum", True),
    ("anneal.anneal_parameter_sweep", "anneal", "anneal_parameter_sweep", True),
    ("anneal.simulate_forward_anneal", "anneal", "simulate_forward_anneal", True),
    ("anneal.simulate_reverse_anneal", "anneal", "simulate_reverse_anneal", True),
    ("cli.qaoa", "cli", "cmd_qaoa", True),
    ("cli.vqe", "cli", "cmd_vqe", True),
    ("cli.oracle", "cli", "cmd_oracle", True),
    ("cli.baseline", "cli", "cmd_baseline", True),
    ("cli.anneal", "cli", "cmd_anneal", True),
]

# (span name, class, method, kept as an individual span)
METHODS = [
    ("qaoa.context_build", "QaoaContext", "__init__", True),
    ("qaoa.ev", "QaoaContext", "ev", False),
    ("qaoa.run", "QaoaContext", "run", False),
    ("qaoa.metrics", "QaoaContext", "metrics", False),
]


def _model_key(model, n_override=None) -> tuple:
    if hasattr(model, "linear"):
        terms = (model.linear, model.quadratic)
    else:
        terms = (model.h, model.J)
    return (type(model).__name__, model.n, n_override, model.offset,
            tuple(sorted(terms[0].items())), tuple(sorted(terms[1].items())))


class Tracer:
    """Collects spans and per-name totals while installed."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.stack: list[list] = []  # [span id or None, anchor span id, child seconds]
        self._next_id = 0
        self._pending: dict[int, dict[str, list]] = {}  # aggregated calls per kept span
        self._patches: list[tuple[object, str, object]] = []
        self.reset_totals()

    def reset_totals(self) -> None:
        self.totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, seconds, self seconds
        self.models: set[tuple] = set()
        self.cone_terms: set[tuple] = set()
        self.anneal_steps: dict[str, int] = defaultdict(int)

    # -- spans -----------------------------------------------------------------

    def call(self, name: str, keep: bool, fn, args, kwargs):
        parent = self.stack[-1] if self.stack else None
        span_id = None
        if keep:
            span_id = self._next_id
            self._next_id += 1
        anchor = span_id if keep else (parent[1] if parent else None)
        frame = [span_id, anchor, 0.0]
        self.stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            duration = end - start
            self_s = duration - frame[2]
            if parent is not None:
                parent[2] += duration
            total = self.totals[name]
            total[0] += 1
            total[1] += duration
            total[2] += self_s
            if keep:
                self.spans.append({"id": span_id, "parent": parent[1] if parent else None, "name": name,
                                   "start": start, "end": end, "self_s": self_s})
            elif anchor is not None:
                agg = self._pending.setdefault(anchor, {}).setdefault(name, [0, 0.0, 0.0])
                agg[0] += 1
                agg[1] += duration
                agg[2] += self_s

    def run(self, name: str, fn, *args):
        """fn(*args) under a kept span called name."""
        return self.call(name, True, fn, args, {})

    # -- installation ------------------------------------------------------------

    def _wrapper(self, name: str, keep: bool, fn):
        tracer = self

        if name == "optimize.minimize":
            def wrapper(objective, *args, **kwargs):
                traced = lambda x: tracer.call("optimize.objective", False, objective, (x,), {})  # noqa: E731
                return tracer.call(name, keep, fn, (traced, *args), kwargs)
        elif name == "qubo.energy_vector":
            def wrapper(model, n_override=None):
                tracer.models.add(_model_key(model, n_override))
                return tracer.call(name, keep, fn, (model, n_override), {})
        elif name == "vqe.causal_cone":
            def wrapper(ansatz, term):
                tracer.cone_terms.add((ansatz.n, ansatz.initial_layer, ansatz.entangling_layers, term))
                return tracer.call(name, keep, fn, (ansatz, term), {})
        elif name.startswith("anneal.simulate_"):
            def wrapper(*args, **kwargs):
                tracer.anneal_steps[name] += args[-1].steps
                return tracer.call(name, keep, fn, args, kwargs)
        else:
            def wrapper(*args, **kwargs):
                return tracer.call(name, keep, fn, args, kwargs)
        return wrapper

    def install(self) -> None:
        modules = [importlib.import_module(f"quambo.{m}") for m in MODULES]
        by_name = {m.__name__.rsplit(".", 1)[1]: m for m in modules}
        for name, module, attr, keep in FUNCTIONS:
            original = getattr(by_name[module], attr)
            wrapper = self._wrapper(name, keep, original)
            # patch every module that imported the function by name
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, value))
                        setattr(mod, key, wrapper)
        for name, cls_name, attr, keep in METHODS:
            cls = getattr(by_name["qaoa"], cls_name)
            original = vars(cls)[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrapper(name, keep, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                span["agg"] = self._pending.get(span["id"], {})
                fh.write(json.dumps(span) + "\n")
