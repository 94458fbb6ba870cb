"""Spans around ibsmae's public functions, recorded from outside the program.

``Tracer.install`` replaces every public function of every ibsmae module
(the names in each module's ``__all__``, and the public methods of the
classes listed there) with a wrapper that records a span, at every name the
function is bound to: module attributes, ``from ... import`` copies such as
``mae.log_binomial`` or ``planner.alpha``, and the package namespace.  The
argument validators (``validate_*``) are argument checks, not layers, and
stay unwrapped.  ``uninstall`` puts the originals back.

Spans are kept in memory as ``(name, start, end, parent)`` tuples, where
``parent`` is the index of the enclosing span or -1.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

MODULES = ["cli", "mae", "fixed_sample", "planner", "numeric_core", "distributions",
           "simulate"]


def public_functions(package) -> dict:
    """Map layer name (``module.qualname``) to (owner, attribute, function)."""
    found = {}
    for short in MODULES:
        module = importlib.import_module(f"{package.__name__}.{short}")
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                if not name.startswith("validate_"):
                    found[f"{short}.{name}"] = (module, name, obj)
            elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                for attr, member in vars(obj).items():
                    if inspect.isfunction(member) and not attr.startswith("_"):
                        found[f"{short}.{obj.__name__}.{attr}"] = (obj, attr, member)
    return found


class Tracer:
    """Records nested spans around wrapped functions and harness regions."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self._patches: list = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return traced

    def span(self, name: str, fn, *args):
        """Run fn(*args) inside a span of its own (for harness regions)."""
        return self.wrap(name, fn)(*args)

    def install(self, package) -> list[str]:
        functions = public_functions(package)
        originals = {id(fn): (layer, fn) for layer, (_, _, fn) in functions.items()}
        wrappers = {key: self.wrap(layer, fn) for key, (layer, fn) in originals.items()}
        owners = [package] + [importlib.import_module(f"{package.__name__}.{m}")
                              for m in MODULES]
        owners += [obj for _, (obj, _, _) in functions.items() if inspect.isclass(obj)]
        for owner in dict.fromkeys(owners):
            for attr, value in list(vars(owner).items()):
                if id(value) in wrappers and originals[id(value)][1] is value:
                    self._patches.append((owner, attr, value))
                    setattr(owner, attr, wrappers[id(value)])
        return sorted(functions)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Raises ValueError if a child does not lie inside its parent or two
    children of one parent overlap, since self times would then be wrong.
    """
    child_total = [0.0] * len(spans)
    last_end: dict[int, float] = {}
    for name, start, end, parent in spans:
        if parent < 0:
            continue
        _, p_start, p_end, _ = spans[parent]
        if start < p_start or end > p_end or start < last_end.get(parent, p_start):
            raise ValueError(f"span {name} is not nested inside {spans[parent][0]}")
        last_end[parent] = end
        child_total[parent] += end - start
    return [end - start - child for (_, start, end, _), child in zip(spans, child_total)]
