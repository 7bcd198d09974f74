"""In-memory spans for the traced benchmark run.

The package is not instrumented. The benchmark opens spans around its own
calls (instance generation, the fit, selection, scoring, checks) and, for the
traced run only, swaps wrappers into the module namespaces the package calls
through (``TARGETS``). A target that no longer exists, or whose signature no
longer fits its wrapper, is skipped and recorded in ``Tracer.missing``; the
metrics that depend on it are then reported as absent. Every wrapper is
restored when :func:`installed` exits.
"""

import functools
import importlib
import inspect
import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, field

import numpy as np


@dataclass
class Span:
    """One timed call. ``parent`` indexes ``Tracer.spans``; ``root`` names the
    outermost span it sits in; ``children_s`` is the time its direct children cover."""

    name: str
    start: float
    end: float
    parent: int | None
    root: str
    rep: int
    children_s: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.duration - self.children_s


class Tracer:
    """Records nested spans; ``enabled=False`` makes :meth:`span` a no-op."""

    def __init__(self, enabled=True):
        self.enabled = enabled
        self.spans = []
        self.missing = {}
        self.rep = -1
        self._stack = []

    def span(self, name):
        if not self.enabled:
            return nullcontext()
        return self._open(name)

    @contextmanager
    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        root = name if parent is None else self.spans[parent].root
        sp = Span(name, time.perf_counter(), float("nan"), parent, root, self.rep)
        self._stack.append(len(self.spans))
        self.spans.append(sp)
        try:
            yield sp
        finally:
            self._stack.pop()
            sp.end = time.perf_counter()
            if parent is not None:
                self.spans[parent].children_s += sp.duration

    def write_jsonl(self, path):
        with open(path, "w") as f:
            for sp in self.spans:
                f.write(json.dumps(asdict(sp)) + "\n")


def _plain(tracer, fn, name):
    @functools.wraps(fn, updated=())
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)

    return wrapper


_CG_PARAMS = ("matvec", "rhs", "tol", "max_iter")


def _cg(tracer, fn, name):
    """Counts matvecs and flags solves that return at the iteration cap unconverged.

    A solve is capped when it used all ``max_iter`` iterations (one matvec each
    plus the initial residual) and its true residual exceeds ``tol * ||rhs||``.
    That residual costs one more matvec, taken in a ``trace.cg_check`` span so
    it can be subtracted from the enclosing layer's time.
    """
    sig = inspect.signature(fn)
    if not set(_CG_PARAMS) <= set(sig.parameters):
        return None

    @functools.wraps(fn, updated=())
    def wrapper(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        matvec = bound.arguments["matvec"]
        calls = 0

        def counted(v):
            nonlocal calls
            calls += 1
            return matvec(v)

        bound.arguments["matvec"] = counted
        with tracer.span(name) as sp:
            x = fn(*bound.args, **bound.kwargs)
        capped = False
        if calls == bound.arguments["max_iter"] + 1:
            with tracer.span("trace.cg_check"):
                rhs = bound.arguments["rhs"]
                resid = np.linalg.norm(rhs - matvec(x))
                capped = bool(resid > bound.arguments["tol"] * np.linalg.norm(rhs))
        sp.info.update(matvecs=calls, capped=capped)
        return x

    return wrapper


def _cd_solve(tracer, fn, name):
    """Records the sweeps each coordinate-descent solve took, from its result."""

    @functools.wraps(fn, updated=())
    def wrapper(*args, **kwargs):
        with tracer.span(name) as sp:
            result = fn(*args, **kwargs)
        sp.info["sweeps"] = getattr(result, "sweeps", 0)
        return result

    return wrapper


#: (module, attribute, span name, wrapper factory). Spans nest in call order,
#: so ssn_solve > ssn_update > _solve_restricted > _cg.
TARGETS = (
    ("ssnpath.path", "ssn_solve", "solver.ssn_solve", _plain),
    ("ssnpath.solver", "active_partition", "kkt.active_partition", _plain),
    ("ssnpath.solver", "ssn_update", "solver.ssn_update", _plain),
    ("ssnpath.solver", "_solve_restricted", "solver.restricted", _plain),
    ("ssnpath.solver", "_cg", "solver.cg", _cg),
    ("ssnpath.datagen", "gen_classical", "datagen.design", _plain),
    ("ssnpath.datagen", "gen_autocorr", "datagen.design", _plain),
    ("ssnpath.datagen", "ProblemData", "problem.init", _plain),
    ("ssnpath.cd", "cd_solve", "cd.cd_solve", _cd_solve),
)


@contextmanager
def installed(tracer, targets=TARGETS):
    """Swap the wrappers in for the duration of the block, then restore every one."""
    saved = []
    try:
        for module_name, attr, name, factory in targets:
            module = importlib.import_module(module_name)
            target = f"{module_name}.{attr}"
            original = getattr(module, attr, None)
            if original is None:
                tracer.missing[target] = "not found"
                continue
            wrapper = factory(tracer, original, name)
            if wrapper is None:
                tracer.missing[target] = "signature changed"
                continue
            setattr(module, attr, wrapper)
            saved.append((module, attr, original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
