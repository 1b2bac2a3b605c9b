"""In-memory span tracer for the traced benchmark pass.

``Tracer.install`` rebinds every public function of the gaplab layer modules,
the acceptance criteria and ``cli.run`` / ``cli.build_fixture`` to a wrapper
that records a span (name, start, end, parent, op).  The rebinding is done in
every gaplab module that imported the function by name, because a call made
through such a name would otherwise bypass the wrapper.  Three methods are
wrapped on their class: ``WarpedLevel.all_distances`` gets a span and a byte
count, and ``MarkovOperator.apply`` / ``apply_transpose`` are counted without
a span, so that their time stays in the solver that called them.

Spans stay in memory until the pass ends; ``layer_metrics`` turns them into
per-function calls, inclusive time and self time (duration minus the time of
direct child spans).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import re
import time
import types
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

LAYERS = ("group_core", "measures", "rep_markov", "kazhdan", "expanders",
          "ergodic_walk", "warped_cone")
ENTRY_MODULES = ("acceptance", "cli")
CLI_TRACED = ("run", "build_fixture")
CRITERION = re.compile(r"criterion_\d+$")

# Quantities that are exact work counts: two traced passes with one seed
# must give identical values.
COUNT_SUFFIXES = (".calls", ".iterations", ".unconverged", ".bytes")
MATVECS = "rep_markov.matvecs"


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        # each span is [name, start, end, parent index or None, op index]
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._undo: List[tuple] = []
        self._wrapped: Dict[object, Callable] = {}

    # -- recording -------------------------------------------------------------

    def wrap(self, name: str, fn: Callable,
             before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
        """Return ``fn`` wrapped so that each call records one span.

        A span without a parent starts a new op; its children inherit the op.
        ``before(args)`` and ``after(result)`` update counters.
        """
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            parent = stack[-1] if stack else None
            idx = len(spans)
            op = idx if parent is None else spans[parent][4]
            span = [name, self.clock(), None, parent, op]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = self.clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def counted(self, key: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counting

    # -- installation ------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _traced_functions(self, modules: Dict[str, types.ModuleType]
                          ) -> Dict[object, Callable]:
        wrapped: Dict[object, Callable] = {}
        for name in LAYERS:
            mod = modules[name]
            for attr, fn in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    wrapped[fn] = self.wrap(f"{name}.{attr}", fn,
                                            after=self._after(name, attr))
        for attr, fn in vars(modules["acceptance"]).items():
            if CRITERION.match(attr) and inspect.isfunction(fn):
                wrapped[fn] = self.wrap(f"acceptance.{attr}", fn)
        for attr in CLI_TRACED:
            fn = getattr(modules["cli"], attr)
            wrapped[fn] = self.wrap(f"cli.{attr}", fn)
        return wrapped

    def _after(self, module: str, attr: str) -> Optional[Callable]:
        if (module, attr) != ("rep_markov", "restricted_norm"):
            return None
        counts = self.counts

        def tally(estimate) -> None:
            counts["rep_markov.restricted_norm.iterations"] += int(estimate.iterations)
            counts["rep_markov.restricted_norm.unconverged"] += int(not estimate.converged)

        return tally

    def install(self) -> None:
        """Rebind every traced function wherever gaplab holds a reference."""
        modules = gaplab_modules()
        self._wrapped = self._traced_functions(modules)
        for mod in [importlib.import_module("gaplab"), *modules.values()]:
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in self._wrapped:
                    self._set(mod, attr, self._wrapped[value])
        acceptance = modules["acceptance"]
        self._set(acceptance, "CRITERIA", [
            (cid, name, self._wrapped.get(fn, fn)) for cid, name, fn in acceptance.CRITERIA
        ])

        counts = self.counts

        def count_fresh_matrix(args) -> None:
            level = args[0]
            if level._dist_cache is None:
                counts["warped_cone.WarpedLevel.all_distances.bytes"] += 8 * level.n_points ** 2

        level_cls = modules["warped_cone"].WarpedLevel
        self._set(level_cls, "all_distances",
                  self.wrap("warped_cone.WarpedLevel.all_distances",
                            level_cls.all_distances, before=count_fresh_matrix))
        op_cls = modules["rep_markov"].MarkovOperator
        for meth in ("apply", "apply_transpose"):
            self._set(op_cls, meth, self.counted(MATVECS, getattr(op_cls, meth)))

        stale = unwrapped_references(self._wrapped)
        if stale:
            self.uninstall()
            raise RuntimeError(f"traced functions still bound unwrapped: {stale}")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- results -----------------------------------------------------------------

    def layer_metrics(self) -> Dict[str, float]:
        """calls / s / self_s per span name, self_s per module, and counters."""
        child_time = [0.0] * len(self.spans)
        for _name, start, end, parent, _op in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: Dict[str, float] = defaultdict(float)
        for i, (name, start, end, _parent, _op) in enumerate(self.spans):
            self_s = (end - start) - child_time[i]
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += self_s
            out[f"{name.split('.', 1)[0]}.self_s"] += self_s
        out.update(self.counts)
        return {k: int(v) if k.endswith(".calls") else v for k, v in out.items()}

    def op_seconds(self) -> List[list]:
        """[name, duration] of each op's root span, in call order."""
        return [[name, end - start] for name, start, end, parent, _op in self.spans
                if parent is None]

    def span_records(self) -> List[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p, "op": op}
                for n, s, e, p, op in self.spans]


def gaplab_modules() -> Dict[str, types.ModuleType]:
    return {name: importlib.import_module(f"gaplab.{name}") for name in LAYERS + ENTRY_MODULES}


def unwrapped_references(wrapped: Dict[object, Callable]) -> List[str]:
    """Names in gaplab that still reach a traced function without its wrapper.

    Looks at module attributes and inside module-level lists, tuples and
    dicts (``acceptance.CRITERIA`` holds the criteria in a list of tuples).
    """
    def reaches(value) -> bool:
        if isinstance(value, types.FunctionType):
            return value in wrapped
        if isinstance(value, (list, tuple)):
            return any(reaches(v) for v in value)
        if isinstance(value, dict):
            return any(reaches(v) for v in value.values())
        return False

    stale = []
    modules = {"gaplab": importlib.import_module("gaplab"), **gaplab_modules()}
    for mod_name, mod in modules.items():
        for attr, value in vars(mod).items():
            if not attr.startswith("__") and reaches(value):
                stale.append(f"{mod_name}.{attr}")
    return stale
