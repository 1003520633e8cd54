"""Per-layer metrics computed from one traced pass.

Layers are the library's modules.  ``calls`` and ``self_us`` are per
streamed step; ``self_s`` and ``setup.*`` cover the traced set-up
(``fit_batch`` + ``from_batch``).  Every metric is a number: a function
that is not called on a workload, or that no longer exists, counts 0 calls
and 0 self time.  An observer that no longer fits the library stops
counting; its counters keep what it saw before, and the run names it.
"""

import numpy as np

from . import spans


def _maybe_add_observer(tracer, args, kwargs):
    x_new = np.atleast_2d(np.asarray(args[1], dtype=float))

    def after(result):
        if result[1]:
            tracer.count("fast_agp.adds")
            tracer.pending_add = x_new
    return after


def _prune_observer(tracer, args, kwargs):
    k_before = args[0].k_inducing

    def after(result):
        if result.k_inducing < k_before:
            tracer.count("fast_agp.prunes")
    return after


def _kernel_observer(tracer, args, kwargs):
    def after(result):
        tracer.count("kernel.entries", int(np.size(result)))
    return after


def _cholesky_observer(tracer, args, kwargs):
    base = args[1] if len(args) > 1 else kwargs.get("base_jitter", 0.0)

    def after(result):
        if result.jitter_used != base:
            tracer.count("linalg.jitter_escalations")
    return after


OBSERVERS = {
    "fast_agp.maybe_add_inducing": _maybe_add_observer,
    "fast_agp.prune_inducing": _prune_observer,
    "kernel.kernel_matrix": _kernel_observer,
    "linalg.cholesky_psd": _cholesky_observer,
}


def on_step(tracer, i, state) -> None:
    """Between steps: settle the previous step's add, then open step ``i``.

    An add survives when the added input is still an inducing point after
    the whole step (its prune included)."""
    added = getattr(tracer, "pending_add", None)
    if added is not None:
        tracer.count("fast_agp.adds_survived",
                     int(np.any(np.all(state.inducing == added, axis=1))))
        tracer.pending_add = None
    tracer.step = i


class _View:
    """Lookups over one traced run, each returning a number."""

    def __init__(self, tracer, state, n_steps, overhead):
        self.t = tracer
        self.agg = spans.aggregate(tracer.spans)
        self.state = state
        self.n = n_steps
        self.overhead = overhead

    def _span(self, name, phase):
        return self.agg.get((name, phase), (0, 0))

    def calls(self, name):
        return self._span(name, "stream")[0] / self.n

    def self_us(self, name):
        return self._span(name, "stream")[1] / 1e3 / self.n

    def setup_self_s(self, name):
        return self._span(name, "setup")[1] / 1e9

    def setup_calls(self, name):
        return self._span(name, "setup")[0]

    def counter(self, key, per_step=True, phase="stream"):
        if phase == "all":
            total = sum(v for (k, _), v in self.t.counters.items() if k == key)
        else:
            total = self.t.counters[(key, phase)]
        return total / self.n if per_step else total

    def raised(self, name, exc):
        return self.t.raised[(name, exc)]

    def pruned_adds(self):
        return (self.t.counters[("fast_agp.adds", "stream")]
                - self.t.counters[("fast_agp.adds_survived", "stream")]) / self.n

    def state_bytes(self):
        return sum(v.nbytes for v in vars(self.state).values()
                   if isinstance(v, np.ndarray))


_STEP = "calls/step"
_US = "us/step"

# (name, unit, better, value from a _View)
METRICS = [
    ("kernel.kernel_matrix.calls_per_step", _STEP, "lower",
     lambda v: v.calls("kernel.kernel_matrix")),
    ("kernel.kernel_matrix.self_us_per_step", _US, "lower",
     lambda v: v.self_us("kernel.kernel_matrix")),
    ("kernel.sq_dists.calls_per_step", _STEP, "lower",
     lambda v: v.calls("kernel.sq_dists")),
    ("kernel.entries_per_step", "entries/step", "lower",
     lambda v: v.counter("kernel.entries")),
    ("linalg.cholesky_psd.calls_per_step", _STEP, "lower",
     lambda v: v.calls("linalg.cholesky_psd")),
    ("linalg.cholesky_psd.self_us_per_step", _US, "lower",
     lambda v: v.self_us("linalg.cholesky_psd")),
    ("linalg.inv_psd.calls_per_step", _STEP, "lower",
     lambda v: v.calls("linalg.inv_psd")),
    ("linalg.solve_psd.calls_per_step", _STEP, "lower",
     lambda v: v.calls("linalg.solve_psd")),
    ("linalg.inv_extend.calls_per_step", _STEP, "lower",
     lambda v: v.calls("linalg.inv_extend")),
    ("linalg.jitter_escalations", "count", "lower",
     lambda v: v.counter("linalg.jitter_escalations", per_step=False,
                         phase="all")),
    ("linalg.schur_fallbacks", "count", "lower",
     lambda v: v.raised("linalg.inv_extend", "SchurNotPositive")),
    ("linalg.not_psd", "count", "lower",
     lambda v: v.raised("linalg.cholesky_psd", "NotPsd")),
    ("bound.weighted_bound_gradients.calls_per_step", _STEP, "lower",
     lambda v: v.calls("bound.weighted_bound_gradients")),
    ("bound.weighted_bound_gradients.self_us_per_step", _US, "lower",
     lambda v: v.self_us("bound.weighted_bound_gradients")),
    ("bound.weighted_bound.calls_per_step", _STEP, "lower",
     lambda v: v.calls("bound.weighted_bound")),
    ("adaptive.rebuild_caches.calls_per_step", _STEP, "lower",
     lambda v: v.calls("adaptive.rebuild_caches")),
    ("adaptive.rebuild_caches.self_us_per_step", _US, "lower",
     lambda v: v.self_us("adaptive.rebuild_caches")),
    ("adaptive.refresh_b_lam.calls_per_step", _STEP, "lower",
     lambda v: v.calls("adaptive.refresh_b_lam")),
    ("adaptive.refresh_b_lam.self_us_per_step", _US, "lower",
     lambda v: v.self_us("adaptive.refresh_b_lam")),
    ("adaptive.relevance_per_point.self_us_per_step", _US, "lower",
     lambda v: v.self_us("adaptive.relevance_per_point")),
    ("adaptive.adaptive_predict.self_us_per_step", _US, "lower",
     lambda v: v.self_us("adaptive.adaptive_predict")),
    ("adaptive.from_batch.self_s", "s", "lower",
     lambda v: v.setup_self_s("adaptive.from_batch")),
    ("adaptive.state_bytes", "bytes", "lower",
     lambda v: v.state_bytes()),
    ("fast_agp.windowed_add.self_us_per_step", _US, "lower",
     lambda v: v.self_us("fast_agp.windowed_add")),
    ("fast_agp.maybe_add_inducing.self_us_per_step", _US, "lower",
     lambda v: v.self_us("fast_agp.maybe_add_inducing")),
    ("fast_agp.prune_inducing.self_us_per_step", _US, "lower",
     lambda v: v.self_us("fast_agp.prune_inducing")),
    ("fast_agp.adds_per_step", "adds/step", "lower",
     lambda v: v.counter("fast_agp.adds")),
    ("fast_agp.prunes_per_step", "prunes/step", "lower",
     lambda v: v.counter("fast_agp.prunes")),
    ("fast_agp.pruned_adds_per_step", "adds/step", "lower",
     lambda v: v.pruned_adds()),
    ("agp.agp_step.self_us_per_step", _US, "lower",
     lambda v: v.self_us("agp.agp_step")),
    ("agp.skipped_updates", "count", "lower",
     lambda v: v.raised("adaptive.adaptive_bound_gradients", "NotPsd")),
    ("optim.Adam.step.calls_per_step", _STEP, "lower",
     lambda v: v.calls("optim.Adam.step")),
    ("optim.Adam.step.self_us_per_step", _US, "lower",
     lambda v: v.self_us("optim.Adam.step")),
    ("vsgp.fit_batch.self_s", "s", "lower",
     lambda v: v.setup_self_s("vsgp.fit_batch")),
    ("setup.weighted_bound_gradients.calls", "calls", "lower",
     lambda v: v.setup_calls("bound.weighted_bound_gradients")),
    ("trace.overhead_share", "ratio", "lower",
     lambda v: v.overhead),
]


def report(tracer, state, n_steps: int, overhead: float) -> dict:
    view = _View(tracer, state, n_steps, overhead)
    return {name: fn(view) for name, _unit, _better, fn in METRICS}
