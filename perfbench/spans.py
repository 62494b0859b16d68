"""Span recorder for the traced run.

``install`` rebinds each traced entry point, in every ``bs_ktheory`` module
namespace that holds it, to a wrapper that records a span (name, start,
end, parent, operation id); ``pv`` and ``colimit`` hold their own
references to ``_cokernel_ext``, ``_kernel_ext`` and ``solve``, so every
binding is replaced, not only the defining one. A few hot functions get a
call counter instead of a span. ``uninstall`` restores every binding.
The untraced run never imports this module.

Spans are kept in memory and reduced once at the end. A span's self time
is its duration minus the durations of its direct children; spans nest
strictly because one thread makes every call.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

# (module, attribute, span name). ``_snf_ext`` is traced because every Smith
# form goes through it; the bc renderers share one span name on purpose.
SPANS = (
    ("bs_ktheory.presentation", "presentation_homology", "presentation.homology"),
    ("bs_ktheory.presentation", "classifying_space_k", "presentation.khom"),
    ("bs_ktheory.presentation", "_abelianization_ext", "presentation.abelianization"),
    ("bs_ktheory.pv", "pv_solve", "pv.solve"),
    ("bs_ktheory.colimit", "ladder_cokernel", "colimit.ladder_cokernel"),
    ("bs_ktheory.colimit", "ladder_kernel", "colimit.ladder_kernel"),
    ("bs_ktheory.colimit", "normalize", "colimit.normalize"),
    ("bs_ktheory.abelian", "_snf_ext", "abelian.snf"),
    ("bs_ktheory.abelian", "_kernel_ext", "abelian.kernel"),
    ("bs_ktheory.abelian", "_cokernel_ext", "abelian.cokernel"),
    ("bs_ktheory.abelian", "solve", "abelian.solve"),
    ("bs_ktheory.bc", "bc_compare", "bc.compare"),
    ("bs_ktheory.bc", "report_to_json", "bc.render"),
    ("bs_ktheory.bc", "render_report", "bc.render"),
    ("bs_ktheory.solenoid", "duality_check", "solenoid.duality_check"),
    ("bs_ktheory.solenoid", "random_point", "solenoid.random_point"),
    ("bs_ktheory.cli", "main", "cli.main"),
)

# (module, attribute, counter name): functions called too often for a span
COUNTED_FUNCTIONS = (("bs_ktheory.solenoid", "pairing", "solenoid.pairing"),)

# (module, class, method, counter name)
COUNTED_METHODS = (
    ("bs_ktheory.abelian", "IntMatrix", "__post_init__", "abelian.objects_built"),
    ("bs_ktheory.abelian", "FgAbGroup", "__post_init__", "abelian.objects_built"),
    ("bs_ktheory.abelian", "GroupHom", "__post_init__", "abelian.objects_built"),
    ("bs_ktheory.ledger", "KClassLedger", "with_entry", "ledger.with_entry"),
)

ROOT = "op"


class Recorder:
    def __init__(self):
        self.spans: list[tuple[str, int, int, int, int] | None] = []
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: Counter[str] = Counter()
        self.snf_max_dim = 0
        self.snf_max_bits = 0
        self._restore: list[tuple[object, str, object]] = []

    def _span(self, name: str, fn, after=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op_id)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _snf_shape(self, args, ext) -> None:
        a = args[0]
        self.snf_max_dim = max(self.snf_max_dim, a.rows, a.cols)
        biggest = max((abs(e) for m in (ext.u, ext.v, ext.u_inv, ext.v_inv) for e in m.entries), default=0)
        self.snf_max_bits = max(self.snf_max_bits, biggest.bit_length())

    def operation(self, fn):
        """Wrap one benchmark operation as the root span of a new operation id."""
        span = self._span(ROOT, fn)

        def op():
            self.op_id += 1
            return span()

        return op

    def install(self) -> None:
        for module, _, _ in SPANS:
            importlib.import_module(module)
        modules = [m for name, m in sys.modules.items() if name == "bs_ktheory" or name.startswith("bs_ktheory.")]
        wrappers = []
        for module, attr, name in SPANS:
            fn = getattr(sys.modules[module], attr)
            after = self._snf_shape if name == "abelian.snf" else None
            wrappers.append((fn, self._span(name, fn, after)))
        for module, attr, name in COUNTED_FUNCTIONS:
            fn = getattr(sys.modules[module], attr)
            wrappers.append((fn, self._counter(name, fn)))
        for original, wrapper in wrappers:
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, key, value))
                        setattr(m, key, wrapper)
        for module, cls_name, method, name in COUNTED_METHODS:
            cls = getattr(sys.modules[module], cls_name)
            fn = cls.__dict__[method]
            self._restore.append((cls, method, fn))
            setattr(cls, method, self._counter(name, fn))

    def uninstall(self) -> None:
        while self._restore:
            owner, key, value = self._restore.pop()
            setattr(owner, key, value)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total ms and self ms over all recorded spans."""
        child_ns: defaultdict[int, int] = defaultdict(int)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child_ns[span[3]] += span[2] - span[1]
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        for idx, span in enumerate(self.spans):
            if span is None:
                continue
            name, start, end, _, _ = span
            entry = out[name]
            entry["calls"] += 1
            entry["ms"] += (end - start) / 1e6
            entry["self_ms"] += (end - start - child_ns[idx]) / 1e6
        return out


def unpatched() -> bool:
    """True when no namespace of the package or counted class holds a wrapper."""
    owners = [m for name, m in sys.modules.items() if name.startswith("bs_ktheory")]
    owners += [getattr(sys.modules[module], cls) for module, cls, _, _ in COUNTED_METHODS]
    return not any(
        getattr(value, "__qualname__", "").startswith("Recorder.")
        for owner in owners
        for value in list(vars(owner).values())
    )
