"""Layer spans for the benchmark's traced run.

The benchmark attributes time to the program's layers without touching
the program: it replaces public callables at the layer boundaries with
wrappers that open a span around each call.  A span has a name, a start,
an end and a parent (the innermost span open when it started).  Spans
are folded into per-name totals as they close instead of being kept,
because the per-operation layers (``ffs``, ``disk``) close millions of
them in one paper-scale run:

* ``calls``  -- spans closed under the name;
* ``busy_s`` -- the sum of their durations;
* ``self_s`` -- the sum of their durations minus their child spans.

A parent's self time therefore excludes every wrapped layer below it,
which is what keeps a shared aging out of the experiment that happened
to trigger it.  Nested spans of the *same* name would count twice in
``busy_s``; none of the wrapped boundaries recurses.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Callable, Dict, List, Optional

#: ``after(args, result, elapsed_s)`` runs when a span closes, outside
#: its timing, to count what the call did (ops replayed, cache bytes...).
After = Callable[[tuple, Any, float], None]

#: Totals of a name that never closed a span.
_NONE = (0, 0.0, 0.0)


class SpanTracer:
    """Per-name span totals plus free-form counts, for one process."""

    def __init__(self) -> None:
        #: name -> [calls, busy_s, self_s]
        self.totals: Dict[str, List[float]] = {}
        #: Counts recorded by ``after`` hooks, e.g. ``cache.bytes``.
        self.counts: Dict[str, float] = {}
        # Child time of every open span; slot 0 is the root.
        self._children: List[float] = [0.0]

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def calls(self, name: str) -> int:
        return int(self.totals.get(name, _NONE)[0])

    def busy(self, name: str) -> float:
        return self.totals.get(name, _NONE)[1]

    def self_time(self, name: str) -> float:
        return self.totals.get(name, _NONE)[2]

    def wrap(
        self, name: str, fn: Callable[..., Any], after: Optional[After] = None
    ) -> Callable[..., Any]:
        """``fn`` with every call recorded as a span called ``name``."""
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        open_children = self._children
        clock = time.perf_counter

        def span(*args: Any, **kwargs: Any) -> Any:
            open_children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = open_children.pop()
                totals[0] += 1
                totals[1] += elapsed
                totals[2] += elapsed - child
                open_children[-1] += elapsed
            if after is not None:
                after(args, result, elapsed)
            return result

        span.__wrapped__ = fn  # type: ignore[attr-defined]
        return span

    def call(self, name: str, fn: Callable[..., Any], *args: Any) -> Any:
        """Run ``fn(*args)`` inside one span called ``name``."""
        return self.wrap(name, fn)(*args)

    def patch_method(
        self, cls: type, attr: str, name: str, after: Optional[After] = None
    ) -> None:
        setattr(cls, attr, self.wrap(name, getattr(cls, attr), after))

    def patch_function(
        self, fn: Callable[..., Any], name: str, after: Optional[After] = None
    ) -> None:
        """Replace ``fn`` in every loaded ``repro`` module that holds it.

        Callers bind functions with ``from x import f``, so the function
        must be replaced in each importing module, not only where it is
        defined.  Raises if no loaded module holds ``fn``.
        """
        wrapped = self.wrap(name, fn, after)
        patched = 0
        for mod_name, module in list(sys.modules.items()):
            if module is None or mod_name.split(".")[0] != "repro":
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapped)
                    patched += 1
        if patched == 0:
            raise RuntimeError(f"no loaded module holds {fn!r}")
