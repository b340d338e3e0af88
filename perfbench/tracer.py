"""In-memory span tracer for billzeta's layer modules, installed from outside.

`Tracer.install` wraps public functions of the layer modules and replaces
them at every place they are bound: `from .x import y` copies the function
into the importing module, so wrapping only the defining module would miss
those calls.  Each call records a span [name, start, end, parent].  At the
same boundaries it counts the distinct keys behind the useful-work ratios and
whether each sigma table came from the cache.  A layer or function that no
longer exists is reported in `absent` instead of failing.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("cli", "basis", "kernels", "coefficients", "sumrules", "oracle", "eigensolve")

# Function -> (metric prefix, key of the distinct work behind a call, from its
# bound arguments).  A repeated key means the call redid work that an earlier
# call in the same invocation already did.
WORK_KEYS = {
    "oracle.solve_spectrum": (
        "oracle.spectrum", lambda a: (repr(a["problem"].basis), repr(a["problem"].density))
    ),
    "coefficients.q_generic_recursion": (
        "coefficients.q_set", lambda a: (a["n_root"], a["max_order"], a["table"].size)
    ),
    "sumrules.kernel_matrix": ("sumrules.kernel", lambda a: (float(a["s"]), len(a["eps"]))),
}
SIGMA_TABLE = "basis.build_sigma_table"


def now() -> float:
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def self_times(spans) -> list:
    """Each span's duration minus the parts of it its child spans cover."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


class Tracer:
    """Wraps the public functions of the layer modules; `only` limits which."""

    def __init__(self, only=None):
        self.only = None if only is None else set(only)
        self.spans: list = []
        self.work_keys: dict = {name: [] for name in WORK_KEYS}
        self.cache_hits: list = []
        self.wrapped: list = []
        self.sites: list = []
        self.absent: list = []
        self._stack: list = []

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"billzeta.{layer}")
            except ImportError:
                self.absent.append(layer)
                continue
            for attr, fn in list(vars(module).items()):
                name = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                    or (self.only is not None and name not in self.only)
                ):
                    continue
                wrappers[fn] = self._wrap(name, fn)
                self.wrapped.append(name)
        wanted = set(WORK_KEYS) if self.only is None else self.only
        self.absent += sorted(wanted - set(self.wrapped))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "billzeta" and not mod_name.startswith("billzeta."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
                    self.sites.append(f"{mod_name}.{attr}")

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        key_of = WORK_KEYS[name][1] if name in WORK_KEYS else None
        signature = inspect.signature(fn) if key_of else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, now(), None, stack[-1] if stack else None])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = now()
            if key_of is not None:
                self._count(name, key_of, signature.bind(*args, **kwargs).arguments)
            if name == SIGMA_TABLE:
                self._note_cache(result)
            return result

        return traced

    def _note_cache(self, table) -> None:
        meta = getattr(table, "quadrature_meta", None)
        if isinstance(meta, dict):
            self.cache_hits.append(bool(meta.get("cached", False)))
        elif "cache flag" not in self.absent:
            self.absent.append("cache flag")

    def _count(self, name, key_of, arguments) -> None:
        try:
            self.work_keys[name].append(repr(key_of(arguments)))
        except (KeyError, AttributeError, TypeError):
            # The function's arguments changed shape: report, do not guess.
            if f"{name} work key" not in self.absent:
                self.absent.append(f"{name} work key")
