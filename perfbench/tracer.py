"""Spans around calls into the package's public functions, taken from
outside the package.

``Tracer.install`` replaces each traced name where its callers look it up
(a module attribute such as ``sombortrees.oracle.prufer_decode``, or a method
on its class such as ``LabeledTree.__init__``); classes themselves are never
replaced. Each wrapper records calls, inclusive time and self time, which
is the span's duration minus the time its directly nested traced spans
cover.
"""

import importlib
import math
import time
from dataclasses import dataclass, field


class TraceSetupError(RuntimeError):
    """A traced name no longer exists, or a required one was never called."""


@dataclass
class Layer:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    samples: list[float] = field(default_factory=list)


def percentile(samples, p: float):
    """Nearest-rank p-th percentile, or None unless at least ten samples
    lie beyond it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    if len(ordered) - rank < 10:
        return None
    return ordered[rank - 1]


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.layers: dict[str, Layer] = {}
        self._open: list[float] = []  # child time covered so far, per open span

    def wrap(self, name: str, fn, keep_samples: bool = False, on_return=None):
        """``fn`` with a span named ``name`` around every call.
        ``on_return(result, start, end)`` sees each successful return."""
        layer = self.layers.setdefault(name, Layer())
        clock, stack = self.clock, self._open

        def traced(*args, **kwargs):
            start = clock()
            stack.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                duration = end - start
                covered = stack.pop()
                if stack:
                    stack[-1] += duration
                layer.calls += 1
                layer.total_s += duration
                layer.self_s += duration - covered
                if keep_samples:
                    layer.samples.append(duration)
            if on_return is not None:
                on_return(result, start, end)
            return result

        return traced

    def install(self, name: str, targets, **options) -> None:
        """Wrap every ``module:attr`` or ``module:Class.method`` target under
        one layer name. A missing target raises TraceSetupError."""
        for target in targets:
            module_name, _, path = target.partition(":")
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                raise TraceSetupError(f"traced name {target} no longer exists") from None
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
                if owner is None:
                    raise TraceSetupError(f"traced name {target} no longer exists")
            original = getattr(owner, attr, None)
            if not callable(original):
                raise TraceSetupError(f"traced name {target} no longer exists")
            setattr(owner, attr, self.wrap(name, original, **options))

    def require_called(self, names) -> None:
        missing = [n for n in names if self.layers.get(n, Layer()).calls == 0]
        if missing:
            raise TraceSetupError(
                "never called on this workload: " + ", ".join(sorted(missing))
            )
