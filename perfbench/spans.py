"""Spans around the calls the benchmark makes into copdep's public functions.

The worker calls copdep only through an ``api`` namespace.  Untraced, its
entries are copdep's own functions; traced, each is wrapped in a span named
``<module>.<function>``, the module being the layer.  Only calls made by
the benchmark are timed, so a span's time includes whatever the package
does inside that call.  Spans stay in memory and are reduced once a pass is
over.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter, defaultdict
from types import SimpleNamespace

LAYERS = ("estimation", "grid", "measures", "starprod", "generators")

#: Public functions of the copdep package the passes call.
FUNCTIONS = (
    "read_csv",
    "pseudo_observations",
    "choose_resolution",
    "fit_checkerboard",
    "load_copula",
    "compute_measure",
    "tau_quadratic",
    "tau_alpha",
    "renyi_alpha",
    "renyi_limit",
    "mutual_information",
    "group_tau",
    "group_tau_normalized",
    "averaged_dependence",
    "conditional_cdf",
    "star",
    "dpi_report",
    "random_star_pair",
    "random_copula",
)

ROOT = "bench.pass"


def api(package, recorder: Recorder | None = None) -> SimpleNamespace:
    """The functions the passes call, wrapped in spans when a recorder is given."""
    funcs = {name: getattr(package, name) for name in FUNCTIONS}
    funcs["validate"] = package.CheckerboardCopula.validate
    funcs["to_json_dict"] = package.MeasureReport.to_json_dict
    if recorder is not None:
        funcs = {
            name: recorder.wrap(f"{fn.__module__.rsplit('.', 1)[-1]}.{name}", fn)
            for name, fn in funcs.items()
        }
    return SimpleNamespace(**funcs)


class Recorder:
    """Spans as [name, start, end, parent index], plus exceptions per layer."""

    def __init__(self):
        self.spans: list[list] = []
        self.errors: Counter = Counter()
        self._open: list[int] = []

    def _begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._open[-1] if self._open else -1])
        self._open.append(idx)
        return idx

    def _end(self, idx: int) -> None:
        self._open.pop()
        self.spans[idx][2] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._begin(name)
        try:
            yield
        finally:
            self._end(idx)

    def wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def traced_call(*args, **kwargs):
            idx = self._begin(name)
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.errors[layer] += 1
                raise
            finally:
                self._end(idx)

        return traced_call

    def take(self) -> dict:
        """Reduce the spans recorded since the last call, then forget them.

        ``pass_s`` is the root span; ``layer_s`` sums self time per layer over
        the spans inside it; ``self_s`` is self time per span name, spans
        outside the root included.
        """
        child = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        inside = []
        self_s: dict[str, float] = defaultdict(float)
        layer_s: dict[str, float] = defaultdict(float)
        root = 0.0
        for i, (name, start, end, parent) in enumerate(self.spans):
            inside.append(name == ROOT or (parent >= 0 and inside[parent]))
            if name == ROOT:
                root += end - start
                continue
            own = end - start - child[i]
            self_s[name] += own
            if inside[i]:
                layer_s[name.split(".", 1)[0]] += own
        self.spans.clear()
        return {"pass_s": root, "layer_s": dict(layer_s), "self_s": dict(self_s)}
