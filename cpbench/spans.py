"""Per-layer spans taken from outside the library.

``Tracer.install()`` replaces each traced function of ``cpdist``, at every
place a cpdist module binds it (``from .sdp import solve`` binds ``solve``
inside ``cpdist.metrics`` too), with a wrapper that records a span: one
call, its inclusive time, and its self time (inclusive time minus the part
covered by traced calls made inside it).  Classes are traced through their
``__init__``.  ``uninstall()`` puts every original back.  Spans are kept as
running sums in memory; ``report()`` gives them per op.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

# Functions traced one by one, as (module, name).
FUNCTIONS = (
    ("cli", "main"),
    ("serialize", "read_json"),
    ("serialize", "dumps"),
    ("verify", "run_instance"),
    ("metrics", "continuity_certificate"),
    ("metrics", "bures"),
    ("metrics", "cb_norm"),
    ("metrics", "bures_extension"),
    ("metrics", "monotonicity_certificate"),
    ("metrics", "mixture_certificate"),
    ("metrics", "reflection_certificate"),
    ("dilations", "minimal_dilation"),
    ("dilations", "common_pair_from_contraction"),
    ("dilations", "triangle_dilations"),
    ("dilations", "verify_dilation"),
    ("sdp", "SdpProblem"),
    ("sdp", "solve"),
)

# Modules whose public functions (their ``__all__``) form one layer each.
GROUPED = ("maps", "linalg")

# verify.run_instance time is also split by certificate family.
FAMILIES = ("consistency", "mixture", "monotonicity", "reflection", "triangle")


def per_layer_metrics() -> dict:
    """Every per-layer metric ``Tracer.report()`` returns, with its unit."""
    units = {}
    for mod, fn in FUNCTIONS:
        units.update({f"{mod}.{fn}.calls": "count", f"{mod}.{fn}.s": "s",
                      f"{mod}.{fn}.self_s": "s"})
    units.update({f"verify.{fam}.s": "s" for fam in FAMILIES})
    units.update({"sdp.solve.iterations": "count", "sdp.solve.s_per_iter": "s",
                  "sdp.solve.no_convergence": "count",
                  "sdp.solve.constraints": "count",
                  "sdp.solve.schur_flops": "count"})
    units.update({f"{group}.s": "s" for group in GROUPED})
    units.update({"trace.op_s": "s", "trace.self_sum_frac": "frac",
                  "trace.overhead_frac": "frac"})
    return units


def _cpdist_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "cpdist" or name.startswith("cpdist."))]


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.family_s = defaultdict(float)
        self.solver = defaultdict(float)
        self._stack = []                 # per open span: [time in children]
        self._active = defaultdict(int)  # open spans per key
        self._patches = []               # (owner, attribute, original)

    # -- spans -------------------------------------------------------------

    def wrap(self, key, fn):
        """`fn` with a span named `key` around every call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            self._stack.append(frame)
            self._active[key] += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                self._active[key] -= 1
                if self._stack:
                    self._stack[-1][0] += dt
                self.calls[key] += 1
                self.self_s[key] += dt - frame[0]
                if not self._active[key]:   # a nested span of the same key
                    self.incl[key] += dt    # is already inside this one

        return traced

    def _count_solve(self, problem, solution):
        """Solver counts, from the problem's sizes and the iterations run."""
        m = len(problem.constraints)
        n_slack = sum(1 for _, _, rel in problem.constraints if rel == "<=")
        # real block sides: q x q complex blocks are embedded as 2q x 2q
        sides = [1 if q == 1 else 2 * q for q in problem.blocks] + [1] * n_slack
        iterations = solution.iterations if solution is not None else 0
        self.solver["iterations"] += iterations
        self.solver["constraints"] += m
        self.solver["schur_flops"] += iterations * m * m * sum(q * q for q in sides)

    def _solve(self, solve, no_convergence):
        @functools.wraps(solve)
        def counted(problem, *args, **kwargs):
            try:
                solution = solve(problem, *args, **kwargs)
            except no_convergence as exc:
                self.solver["no_convergence"] += 1
                self._count_solve(problem, exc.best)
                raise
            self._count_solve(problem, solution)
            return solution

        return counted

    def _run_instance(self, run_instance):
        @functools.wraps(run_instance)
        def by_family(family, *args, **kwargs):
            t0 = time.perf_counter()
            try:
                return run_instance(family, *args, **kwargs)
            finally:
                self.family_s[family] += time.perf_counter() - t0

        return by_family

    # -- patching ----------------------------------------------------------

    def _patch_everywhere(self, original, replacement):
        for module in _cpdist_modules():
            names = [n for n, v in vars(module).items() if v is original]
            for name in names:
                self._patches.append((module, name, original))
                setattr(module, name, replacement)

    def install(self):
        modules = {m.__name__.split(".")[-1]: m for m in _cpdist_modules()}
        for mod, fn in FUNCTIONS:
            key = f"{mod}.{fn}"
            original = getattr(modules[mod], fn)
            if inspect.isclass(original):
                init = original.__dict__["__init__"]
                self._patches.append((original, "__init__", init))
                original.__init__ = self.wrap(key, init)
                continue
            inner = original
            if key == "sdp.solve":
                inner = self._solve(original, modules["sdp"].SdpNoConvergence)
            elif key == "verify.run_instance":
                inner = self._run_instance(original)
            self._patch_everywhere(original, self.wrap(key, inner))
        for group in GROUPED:
            module = modules[group]
            for name in module.__all__:
                fn = getattr(module, name)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    self._patch_everywhere(fn, self.wrap(group, fn))

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- results -----------------------------------------------------------

    def report(self, ops: int, op_wall_s: float, wrapper_cost_s: float) -> dict:
        """Per-op averages of every per-layer metric.

        `op_wall_s` is the summed wall time of the traced ops, and
        `wrapper_cost_s` the measured cost of one traced call beyond the
        call itself, from which the tracing overhead is estimated.
        """
        out = {}
        for mod, fn in FUNCTIONS:
            key = f"{mod}.{fn}"
            out[f"{key}.calls"] = self.calls[key] / ops
            out[f"{key}.s"] = self.incl[key] / ops
            out[f"{key}.self_s"] = self.self_s[key] / ops
        for fam in FAMILIES:
            out[f"verify.{fam}.s"] = self.family_s[fam] / ops
        iterations = self.solver["iterations"]
        out["sdp.solve.iterations"] = iterations / ops
        out["sdp.solve.s_per_iter"] = (
            self.incl["sdp.solve"] / iterations if iterations else 0.0)
        for count in ("no_convergence", "constraints", "schur_flops"):
            out[f"sdp.solve.{count}"] = self.solver[count] / ops
        for group in GROUPED:
            out[f"{group}.s"] = self.incl[group] / ops
        out["trace.op_s"] = op_wall_s / ops
        out["trace.self_sum_frac"] = sum(self.self_s.values()) / op_wall_s
        out["trace.overhead_frac"] = (
            wrapper_cost_s * sum(self.calls.values()) / op_wall_s)
        return out


def wrapper_cost(calls: int = 20000) -> float:
    """Seconds one traced call adds to an empty function (best of three)."""

    def empty():
        return None

    traced = Tracer().wrap("calibration", empty)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(calls):
            empty()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
    return max(best, 0.0)
