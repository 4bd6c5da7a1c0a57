"""Span tracing of the layers of ``siegelpw`` from outside the package.

Each traced function is replaced, in every ``siegelpw`` namespace that binds
it (modules that ``from``-import it included), by a wrapper that records a
span: name, start, end, parent span and thread.  Methods are patched on their
class.  Spans stay in memory until the run ends; ``restore`` puts every
original object back and reports any attribute that is not the original
afterwards.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import sys
import threading
import time
from collections import defaultdict

#: (module, attribute path, amount counted per call).  The amount is a
#: function of the call's arguments: Gauss-Laguerre node counts, and tensor
#: grid points of a box rule.
TARGETS = (
    ("quadrature", "gauss_laguerre", ("nodes", lambda args, kwargs: args[2] if len(args) > 2 else kwargs["node_count"])),
    ("quadrature", "BoxRule.grids", ("points", lambda args, kwargs: args[0].point_count)),
    ("spectral", "space_norm_sq", None),
    ("spectral", "hardy_slice_norms", None),
    ("spectral", "l2nu_norm_sq", None),
    ("spectral", "l2nu_inner_product", None),
    ("spectral", "synthesize", None),
    ("spectral", "synthesize_dirichlet", None),
    ("kernels", "space_inner_product", None),
    ("kernels", "kernel_eval", None),
    ("kernels", "reproducing_check", None),
    ("kernels", "q_power_integral_mc", None),
    ("kernels", "q_power_integral_nested", None),
    ("bargmann", "rep_matrix", None),
    ("bargmann", "dsigma_check", None),
    ("fock", "gaussian_pairing", None),
    ("siegel", "apply", None),
    ("siegel", "cayley", None),
    ("drury_arveson", "da_norm_coeff_sq", None),
    ("drury_arveson", "da_norm_integral_sq", None),
)

#: Bytes computed per tensor grid point: one complex128 value.
BYTES_PER_POINT = 16


class Tracer:
    """Patches the targets on construction; call ``restore`` when done."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, thread, amount)
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []
        self._paused = False
        try:
            for module, path, amount in TARGETS:
                self._patch(module, path, amount)
        except BaseException:
            self.restore()
            raise

    def _wrap(self, name: str, fn, amount):
        spans, ids, local = self.spans, self._ids, self._local
        counter = amount[1] if amount else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            stack = local.__dict__.setdefault("stack", [])
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append(
                    (span_id, name, start, end, parent, threading.get_ident(), counter(args, kwargs) if counter else 0)
                )

        return traced

    def _patch(self, module: str, path: str, amount) -> None:
        owner = sys.modules[f"siegelpw.{module}"]
        name = f"{module}.{path}"
        if "." in path:
            class_name, attr = path.split(".")
            cls = getattr(owner, class_name)
            original = cls.__dict__[attr]
            self._patched.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original, amount))
            return
        original = getattr(owner, path)
        wrapper = self._wrap(name, original, amount)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "siegelpw" or mod_name.startswith("siegelpw.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    @contextlib.contextmanager
    def paused(self):
        """Record no spans inside this block (the benchmark's own checks)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def restore(self) -> list[str]:
        """Put back every patched attribute; return those not restored."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        return [
            f"{owner.__name__}.{attr}"
            for owner, attr, original in self._patched
            if getattr(owner, attr) is not original
        ]

    def layer_metrics(self) -> dict[str, float]:
        """Per-span-name calls, busy and self seconds, and counted amounts.

        Busy time sums the spans with no ancestor of the same name, so a
        recursive call is not counted twice.  Self time is a span's duration
        minus the durations of its child spans, which run on its thread.
        """
        by_id = {span[0]: span for span in self.spans}
        child_time: dict[int, float] = defaultdict(float)
        for span_id, _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = {}
        amount_key = {}
        for module, path, amount in TARGETS:
            name = f"{module}.{path}"
            out[f"{name}.calls"] = 0
            out[f"{name}.busy_s"] = 0.0
            out[f"{name}.self_s"] = 0.0
            if amount:
                amount_key[name] = f"{name}.{amount[0]}"
                out[amount_key[name]] = 0
        for span_id, name, start, end, parent, _, amount in self.spans:
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (end - start) - child_time[span_id]
            ancestor = parent
            while ancestor is not None and by_id[ancestor][1] != name:
                ancestor = by_id[ancestor][4]
            if ancestor is None:
                out[f"{name}.busy_s"] += end - start
            if name in amount_key:
                out[amount_key[name]] += amount
        out["quadrature.BoxRule.grids.bytes"] = out["quadrature.BoxRule.grids.points"] * BYTES_PER_POINT
        return out

    def span_table(self, origin: float) -> dict:
        """Spans as rows of numbers relative to ``origin``, for the evidence file."""
        threads = {tid: k for k, tid in enumerate(sorted({span[5] for span in self.spans}))}
        return {
            "fields": ["id", "name", "start_s", "end_s", "parent", "thread", "amount"],
            "rows": [
                [span_id, name, round(start - origin, 7), round(end - origin, 7), parent, threads[tid], amount]
                for span_id, name, start, end, parent, tid, amount in sorted(self.spans)
            ],
        }
