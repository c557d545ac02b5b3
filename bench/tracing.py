"""Traced mode: per-layer counts and self times, recorded from outside.

:class:`Tracer` replaces each public function of the package's modules with a
timing wrapper, under its own name and under every name another module
imported it as; it also wraps ``value`` on each ``WelfareFunction`` subclass
(reported as ``welfarist.f_value``) and ``Profile.__init__`` (reported as
``model.Profile``).  Nothing inside ``src/`` changes.

A call's self time is its duration minus the durations of the traced calls
nested in it.  Spans (name, start, end, parent) are kept in memory for every
call except the per-allocation ones in :data:`HOT`, which are only counted
and timed, and are written out with the metrics when the run ends.
"""

import functools
import inspect
import json
import logging
import sys
import time

MODULES = ("model", "welfarist", "fairness", "characterization", "experiment", "funcparse")

#: Called once per allocation or per grid point: aggregated, no span each.
HOT = frozenset({
    "welfarist.f_value",
    "funcparse.evaluate_expression",
    "characterization.scaled_difference",
    "model.check_allocation",
})

#: (metric, unit, better) of every per-layer metric, in report order.
LAYER_METRICS = [
    ("welfarist.f_value.calls", "count", "lower"),
    ("welfarist.f_value.self_ms", "ms", "lower"),
    ("welfarist.max_nash_welfare.self_ms", "ms", "lower"),
    ("welfarist.maximize_welfare.exhaustive.self_ms", "ms", "lower"),
    ("welfarist.maximize_welfare.branch_and_bound.self_ms", "ms", "lower"),
    ("welfarist.welfare_maximizers.calls", "count", "lower"),
    ("welfarist.welfare_maximizers.self_ms", "ms", "lower"),
    ("welfarist.solve.calls", "count", "lower"),
    ("welfarist.solve.self_ms", "ms", "lower"),
    ("welfarist.welfare_function_from_spec.self_ms", "ms", "lower"),
    ("model.allocation_utilities.calls", "count", "lower"),
    ("model.allocation_utilities.self_ms", "ms", "lower"),
    ("model.Profile.calls", "count", "lower"),
    ("model.Profile.self_ms", "ms", "lower"),
    ("model.loads_profile.self_ms", "ms", "lower"),
    ("model.dumps_profile.self_ms", "ms", "lower"),
    ("fairness.is_pareto_optimal.calls", "count", "lower"),
    ("fairness.is_pareto_optimal.self_ms", "ms", "lower"),
    ("fairness.is_ef1.calls", "count", "lower"),
    ("fairness.is_ef1.self_ms", "ms", "lower"),
    ("fairness.is_ef.calls", "count", "lower"),
    ("fairness.is_ef.self_ms", "ms", "lower"),
    ("characterization.find_ef1_counterexample.self_ms", "ms", "lower"),
    ("characterization.candidates_verified", "count", "lower"),
    ("characterization.candidate_yield", "ratio", "higher"),
    ("characterization.scaled_difference.calls", "count", "lower"),
    ("characterization.fit_log.self_ms", "ms", "lower"),
    ("characterization.log_records", "count", "lower"),
    ("experiment.random_profile.self_ms", "ms", "lower"),
    ("experiment.run_experiment.self_ms", "ms", "lower"),
    ("experiment.experiment_csv.self_ms", "ms", "lower"),
    ("funcparse.evaluate_expression.calls", "count", "lower"),
    ("funcparse.evaluate_expression.self_ms", "ms", "lower"),
    ("funcparse.parse_expression.self_ms", "ms", "lower"),
    ("funcparse.check_increasing.self_ms", "ms", "lower"),
    ("cli.solve.ms", "ms", "lower"),
    ("cli.check.ms", "ms", "lower"),
    ("cli.counterexample.ms", "ms", "lower"),
    ("cli.lemma-check.ms", "ms", "lower"),
    ("cli.experiment.ms", "ms", "lower"),
    ("cli.startup_ms", "ms", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

SEARCH = "characterization.find_ef1_counterexample"


class _CountingHandler(logging.Handler):
    """Counts the package's log records and hands them on to the handler
    Python uses when none is configured, so output stays as without it."""

    def __init__(self):
        super().__init__(logging.NOTSET)
        self.count = 0

    def emit(self, record):
        self.count += 1
        if record.levelno >= logging.lastResort.level:
            logging.lastResort.handle(record)


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent id, name, start ns, end ns)
        self.stats = {}  # name -> [calls, self ns]
        self.candidates = 0  # maximizer scans started inside a search
        self.reports = 0  # searches that returned a report
        self._stack = []  # [span id, ns spent in nested traced calls]
        self._next_id = 0
        self._searching = 0
        self._handler = _CountingHandler()
        self._undo = []

    # ----- installation --------------------------------------------------

    def install(self):
        import fairalloc.cli  # noqa: F401  (its imported names are wrapped too)
        from fairalloc.model import Profile
        from fairalloc.welfarist import WelfareFunction

        modules = [m for name, m in sys.modules.items() if name == "fairalloc" or name.startswith("fairalloc.")]
        for short in MODULES:
            module = sys.modules[f"fairalloc.{short}"]
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapped = self._wrap(f"{short}.{attr}", fn)
                for other in modules:
                    for name, value in list(vars(other).items()):
                        if value is fn:
                            self._patch(other, name, wrapped)
        self._patch(Profile, "__init__", self._wrap("model.Profile", Profile.__init__))
        for cls in _subclasses(WelfareFunction):
            if "value" in vars(cls):
                self._patch(cls, "value", self._wrap("welfarist.f_value", cls.value))
        logging.getLogger("fairalloc").addHandler(self._handler)

    def uninstall(self):
        logging.getLogger("fairalloc").removeHandler(self._handler)
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo.clear()

    def _patch(self, owner, name, value):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _wrap(self, name, fn):
        stack, spans, stats = self._stack, self.spans, self.stats
        clock = time.perf_counter_ns
        keep = name not in HOT
        by_method = name == "welfarist.maximize_welfare"
        is_search = name == SEARCH
        is_scan = name == "welfarist.welfare_maximizers"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            key = name
            if by_method:
                key = f"{name}.{kwargs.get('method', 'exhaustive').replace('-', '_')}"
            if is_scan and self._searching:
                self.candidates += 1
            if is_search:
                self._searching += 1
            span = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][1] += elapsed
                entry = stats.get(key)
                if entry is None:
                    entry = stats[key] = [0, 0]
                entry[0] += 1
                entry[1] += elapsed - frame[1]
                if keep:
                    spans.append((span, parent, key, start, end))
                if is_search:
                    self._searching -= 1
            if is_search and result is not None:
                self.reports += 1
            return result

        return traced

    # ----- results --------------------------------------------------------

    def metrics(self, rounds, extra):
        """Per-round means of every layer metric; ``extra`` supplies the
        ones measured outside the wrappers (CLI timings, overhead)."""
        values = {}
        for name, unit, _ in LAYER_METRICS:
            if name in extra:
                value = extra[name]
            elif name == "characterization.candidates_verified":
                value = self.candidates / rounds
            elif name == "characterization.candidate_yield":
                value = self.reports / self.candidates if self.candidates else 0.0
            elif name == "characterization.log_records":
                value = self._handler.count / rounds
            elif name.endswith(".calls"):
                value = self.stats.get(name[: -len(".calls")], (0, 0))[0] / rounds
            elif name.endswith(".self_ms"):
                value = self.stats.get(name[: -len(".self_ms")], (0, 0))[1] / 1e6 / rounds
            else:
                value = 0.0
            values[name] = {"value": value, "unit": unit}
        return values

    def write(self, path, header, metrics):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    **header,
                    "metrics": metrics,
                    "calls_and_self_ns": self.stats,
                    "span_fields": ["id", "parent", "name", "start_ns", "end_ns"],
                    "spans": self.spans,
                },
                handle,
            )


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)
