"""Call spans recorded from outside the program, and per-layer metrics.

The tracer replaces public functions and methods of ``qplattice`` with
thin wrappers for the length of one traced pass and restores every
original afterwards.  Each wrapped call records a span (name, start,
end, parent, whether it raised, and an optional work count taken from
its arguments).  Self time is a span's duration minus the durations of
its direct children, which never overlap because the caller is one
thread.
"""

import inspect
import sys
import time
from collections import namedtuple
from contextlib import contextmanager

Span = namedtuple("Span", "name start end parent raised work")


def _phase_steps(bound):
    phases = bound.arguments.get("phases")
    count = bound.arguments["samples"] if phases is None else len(
        phases if hasattr(phases, "__len__") else [phases])
    return int(bound.arguments["n_steps"]) * int(count)


def _rows(bound):
    return int(bound.arguments["ab_upper"].shape[1])


def _samples(bound):
    return int(bound.arguments["samples"])


# (layer name, module, attribute path, work count from bound arguments)
TARGETS = (
    ("operators.potential", "operators", "Potential.value", None),
    ("operators.assemble_banded", "operators", "LineOperator.assemble_banded", None),
    ("operators.assemble_banded", "operators", "StripOperator.assemble_banded", None),
    ("cocycle.matrices", "cocycle", "Cocycle.matrices", None),
    ("cocycle.matrix", "cocycle", "Cocycle.matrix", None),
    ("cocycle.lyapunov_spectrum", "cocycle", "lyapunov_spectrum", _phase_steps),
    ("cocycle.rotation_number", "cocycle", "rotation_number", None),
    ("splitting.detect_splitting", "splitting", "detect_splitting", None),
    ("splitting.compute_splitting", "splitting", "compute_splitting", None),
    ("splitting.center_growth", "splitting", "center_growth", None),
    ("weyl.m_half", "weyl", "m_plus", None),
    ("weyl.m_half", "weyl", "m_minus", None),
    ("weyl.m_matrix", "weyl", "m_matrix", None),
    ("weyl.im_m_trace", "weyl", "im_m_trace", None),
    ("weyl.spectral_bound", "weyl", "spectral_bound", None),
    ("weyl.green_oracle", "weyl", "green_oracle", None),
    ("linalg.solve_shifted_banded", "linalg", "solve_shifted_banded", _rows),
    ("linalg.eigenvalues_banded", "linalg", "eigenvalues_banded", None),
    ("linalg.principal_angles", "linalg", "principal_angles", None),
    ("linalg.orthonormal_columns", "linalg", "orthonormal_columns", None),
    ("linalg.nearest_eigenpair", "linalg", "nearest_eigenpair", None),
    ("measures.ids", "measures", "ids", _samples),
    ("measures.thouless_residual", "measures", "thouless_residual", None),
    ("longrange.subordinacy_probe", "longrange", "subordinacy_probe", None),
    ("longrange.duality_transform", "longrange", "duality_transform", None),
    ("corpus.run_corpus", "corpus", "run_corpus", None),
    ("cli.main", "cli", "main", None),
)


class Tracer:
    """Span recorder for one caller thread; install() patches, exit restores."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, work=None):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn) if work else None

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            raised = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                count = 0
                if signature is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    count = work(bound)
                spans[index] = Span(name, start, end, parent, raised, count)

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def install(self, package):
        """Wrap every target for the length of the block.

        A module-level function is replaced in its defining module and
        under every name any ``package`` module bound to it by import
        (``cli.py`` and ``weyl.py`` call most kernels through such
        names).  A method is replaced on its class.  Every original is
        put back on exit, also when the block raises.
        """
        patches = []
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == package or key.startswith(package + "."))]
        try:
            for name, module_name, path, work in TARGETS:
                owner = sys.modules["%s.%s" % (package, module_name)]
                *classes, attr = path.split(".")
                for cls in classes:
                    owner = getattr(owner, cls)
                original = owner.__dict__[attr]
                wrapper = self.wrap(name, original, work)
                if classes:
                    patches.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            patches.append((module, key, original))
                            setattr(module, key, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)


# ── aggregation ──────────────────────────────────────────────────────────────


def self_times(spans):
    """Per-name totals: calls, self seconds, inclusive seconds, work.

    Inclusive time counts only the outermost span of a name, so a
    function reached again beneath itself is not counted twice.
    """
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.end - span.start
    totals = {}
    for index, span in enumerate(spans):
        entry = totals.setdefault(span.name, {"calls": 0, "self_s": 0.0,
                                              "inclusive_s": 0.0, "work": 0})
        duration = span.end - span.start
        entry["calls"] += 1
        entry["self_s"] += duration - child[index]
        entry["work"] += span.work
        if not _has_ancestor(spans, index, span.name):
            entry["inclusive_s"] += duration
    return totals


def _has_ancestor(spans, index, name):
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def count_beneath(spans, name, ancestor):
    """Number of ``name`` spans with an ``ancestor`` span above them."""
    return sum(1 for i, s in enumerate(spans)
               if s.name == name and _has_ancestor(spans, i, ancestor))


def raised_outermost(spans, prefix):
    """Calls into a layer that raised, counting each escaping error once."""
    count = 0
    for span in spans:
        if not (span.raised and span.name.startswith(prefix)):
            continue
        parent = span.parent
        if parent >= 0 and spans[parent].raised and spans[parent].name.startswith(prefix):
            continue
        count += 1
    return count


def _ratio(num, den, scale):
    return num / den * scale if den else 0.0


def layer_metrics(spans):
    """The per-layer metric set named in BENCHMARK.json, from one traced pass."""
    totals = self_times(spans)

    def get(name, key):
        return totals.get(name, {}).get(key, 0)

    out = {}
    for name, keys in (
        ("operators.potential", ("calls", "self_s")),
        ("operators.assemble_banded", ("self_s",)),
        ("cocycle.matrices", ("calls", "self_s")),
        ("cocycle.matrix", ("calls", "self_s")),
        ("cocycle.lyapunov_spectrum", ("self_s",)),
        ("cocycle.rotation_number", ("self_s",)),
        ("splitting.detect_splitting", ("calls", "self_s")),
        ("splitting.compute_splitting", ("calls", "self_s")),
        ("splitting.center_growth", ("self_s",)),
        ("weyl.m_half", ("calls", "self_s")),
        ("weyl.m_matrix", ("calls", "self_s")),
        ("weyl.im_m_trace", ("self_s",)),
        ("weyl.spectral_bound", ("self_s",)),
        ("weyl.green_oracle", ("calls", "self_s")),
        ("linalg.solve_shifted_banded", ("calls", "self_s")),
        ("linalg.eigenvalues_banded", ("calls", "self_s")),
        ("linalg.principal_angles", ("calls", "self_s")),
        ("linalg.orthonormal_columns", ("calls", "self_s")),
        ("linalg.nearest_eigenpair", ("self_s",)),
        ("measures.ids", ("calls", "self_s")),
        ("measures.thouless_residual", ("self_s",)),
        ("longrange.subordinacy_probe", ("self_s",)),
        ("longrange.duality_transform", ("self_s",)),
        ("corpus.run_corpus", ("self_s",)),
        ("cli.main", ("self_s",)),
    ):
        for key in keys:
            out["%s.%s" % (name, key)] = get(name, key)

    phase_steps = get("cocycle.lyapunov_spectrum", "work")
    out["cocycle.phase_steps"] = phase_steps
    out["cocycle.phase_step_us"] = _ratio(
        get("cocycle.lyapunov_spectrum", "inclusive_s"), phase_steps, 1e6)
    steps = count_beneath(spans, "cocycle.matrix", "weyl.m_half")
    out["weyl.m_half.steps"] = steps
    out["weyl.m_half.step_us"] = _ratio(get("weyl.m_half", "inclusive_s"), steps, 1e6)
    out["weyl.errors"] = raised_outermost(spans, "weyl.")
    out["linalg.solve_shifted_banded.rows"] = get("linalg.solve_shifted_banded", "work")
    samples = get("measures.ids", "work")
    out["measures.ids.phase_samples"] = samples
    out["measures.ids.phase_sample_ms"] = _ratio(
        get("measures.ids", "inclusive_s"), samples, 1e3)
    return out
