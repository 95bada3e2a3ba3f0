"""Spans and counters recorded around the calls into each xorsleuth layer.

``install`` replaces the module attributes through which callers look the
layer functions up (``xorsleuth.solver.unify_sua`` is what ``_cached_unify``
calls, ``xorsleuth.cli.check_secrecy`` is what ``analyze`` calls, and so on)
with wrappers that record a span: name, start, end, parent span and item id.
Spans stay in memory until the run writes them out.  A span's self time is
its duration minus the time its direct child spans cover; spans nest
strictly because the program is single-threaded.

Nothing inside ``xorsleuth`` changes, so the ``terms`` layer, which has no
boundary that can be timed from outside at an affordable cost, shows up in
the self time of its callers (mainly ``solver.search_self_s``).
"""

from __future__ import annotations

import functools
import importlib
import re
import time
from collections import defaultdict

# Per-layer metrics, in report order, with their units.
LAYER_METRICS = (
    ("dsl.parse_s", "s"),
    ("dsl.parse_calls", "count"),
    ("protocol.bundle_s", "s"),
    ("protocol.check_s", "s"),
    ("protocol.check_calls", "count"),
    ("solver.interleave_s", "s"),
    ("solver.sequences", "count"),
    ("solver.search_s", "s"),
    ("solver.search_self_s", "s"),
    ("solver.nodes", "count"),
    ("solver.peak_depth", "count"),
    ("solver.normalize_seq_s", "s"),
    ("solver.normalize_seq_calls", "count"),
    ("solver.rule_sites", "count"),
    ("unify.sua_s", "s"),
    ("unify.sua_calls", "count"),
    ("unify.sua_empty", "count"),
    ("unify.sua_incomplete", "count"),
    ("unify.sua_useful_ratio", "1"),
    ("unify.bsca_s", "s"),
    ("unify.bsca_calls", "count"),
    ("unify.bsca_configs", "count"),
    ("unify.std_s", "s"),
    ("unify.std_calls", "count"),
    ("unify.acun_s", "s"),
    ("unify.acun_calls", "count"),
    ("unify.purify_s", "s"),
    ("oracle.verify_s", "s"),
    ("oracle.verify_calls", "count"),
    ("oracle.closure_s", "s"),
    ("oracle.closure_calls", "count"),
    ("oracle.closure_terms", "count"),
    ("oracle.closure_capped", "count"),
    ("cli.run_s", "s"),
    ("cli.self_s", "s"),
    ("cli.commands", "count"),
)

# Counters that must repeat exactly between two runs with the same seed.
DETERMINISTIC = (
    "solver.sequences",
    "solver.nodes",
    "solver.rule_sites",
    "unify.sua_calls",
    "unify.bsca_configs",
    "oracle.closure_terms",
)

_CONFIGS_RE = re.compile(r"after (\d+) configurations")


class Tracer:
    """In-memory span and counter store for one run."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        # [name, start, end, parent index or -1, item id, nested in a span of the same name]
        self.spans: list[list] = []
        self.counters: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(int))
        self.item = ""
        self._open: list[int] = []
        self._open_names: dict[str, int] = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- recording ----------------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, self.clock(), 0.0, parent, self.item, self._open_names[name] > 0])
        self._open.append(idx)
        self._open_names[name] += 1
        return idx

    def end(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = self.clock()
        self._open.pop()
        self._open_names[span[0]] -= 1

    def add(self, counter: str, n: float = 1) -> None:
        self.counters[self.item][counter] += n

    def peak(self, counter: str, value: float) -> None:
        c = self.counters[self.item]
        c[counter] = max(c[counter], value)

    # -- wrappers -----------------------------------------------------------------

    def timed(self, name: str, fn, after=None, on_error=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as e:
                if on_error is not None:
                    on_error(e)
                raise
            finally:
                self.end(idx)
            if after is not None:
                after(result)
            return result

        return wrapper

    def interleavings(self, fn):
        """Time each ``next()`` of the interleaving generator."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                idx = self.begin("solver.interleave")
                try:
                    cs = next(gen)
                except StopIteration:
                    return
                finally:
                    self.end(idx)
                self.add("solver.sequences")
                yield cs

        return wrapper

    def counted(self, fn, counter: str):
        """Count ``len(result)`` without a span, so the time stays with the caller."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.add(counter, len(result))
            return result

        return wrapper

    # -- installation -------------------------------------------------------------

    def install(self) -> None:
        def after_search(result):
            self.add("solver.nodes", result.stats["nodes"])
            self.peak("solver.peak_depth", result.stats["peak_depth"])

        def after_sua(result):
            unifiers, complete = result
            self.add("unify.sua_empty", not unifiers)
            self.add("unify.sua_incomplete", not complete)

        def after_bsca(result):
            self.add("unify.bsca_configs", result[1].configs_tried)

        def bsca_error(e):
            m = _CONFIGS_RE.search(str(e))
            if m:
                self.add("unify.bsca_configs", int(m.group(1)))

        def after_closure(k):
            self.add("oracle.closure_terms", len(k.terms))
            self.add("oracle.closure_capped", bool(k.capped))

        table = (
            ("xorsleuth.cli", "run_command", lambda f: self.timed("cli.run", f)),
            ("xorsleuth.cli", "parse_protocol_file", lambda f: self.timed("dsl.parse", f)),
            ("xorsleuth.cli", "check_assumptions", lambda f: self.timed("protocol.check", f)),
            ("xorsleuth.cli", "check_munut", lambda f: self.timed("protocol.check", f)),
            ("xorsleuth.cli", "check_secrecy", lambda f: self.timed("solver.secrecy", f)),
            ("xorsleuth.cli", "verify_solution", lambda f: self.timed("oracle.verify", f)),
            ("xorsleuth.solver", "make_semibundle", lambda f: self.timed("protocol.bundle", f)),
            ("xorsleuth.solver", "build_iik", lambda f: self.timed("protocol.bundle", f)),
            ("xorsleuth.solver", "constraint_sequences", self.interleavings),
            ("xorsleuth.solver", "satisfiable", lambda f: self.timed("solver.search", f, after_search)),
            ("xorsleuth.solver", "normalize_seq", lambda f: self.timed("solver.normalize_seq", f)),
            ("xorsleuth.solver", "applicable_rules", lambda f: self.counted(f, "solver.rule_sites")),
            ("xorsleuth.solver", "unify_sua", lambda f: self.timed("unify.sua", f, after_sua)),
            ("xorsleuth.unify", "unify_sua", lambda f: self.timed("unify.sua", f, after_sua)),
            ("xorsleuth.unify", "bsca_unify", lambda f: self.timed("unify.bsca", f, after_bsca, bsca_error)),
            ("xorsleuth.unify", "unify_std", lambda f: self.timed("unify.std", f)),
            ("xorsleuth.protocol", "unify_std", lambda f: self.timed("unify.std", f)),
            ("xorsleuth.unify", "unify_acun", lambda f: self.timed("unify.acun", f)),
            ("xorsleuth.unify", "purify", lambda f: self.timed("unify.purify", f)),
            ("xorsleuth.oracle", "dy_closure", lambda f: self.timed("oracle.closure", f, after_closure)),
        )
        self.missing = []
        for module_name, attr, wrap in table:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._restore.append((module, attr, original))
            setattr(module, attr, wrap(original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    # -- aggregation --------------------------------------------------------------

    def metrics_by_item(self) -> dict[str, dict[str, float]]:
        """Per-layer metrics for every item id that recorded anything."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, item, nested in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        time_s: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self_s: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        calls: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        for i, (name, start, end, parent, item, nested) in enumerate(self.spans):
            calls[item][name] += 1
            if not nested:
                time_s[item][name] += end - start
                self_s[item][name] += end - start - child_time[i]
        items = set(calls) | set(self.counters)
        return {
            item: layer_metrics(time_s[item], self_s[item], calls[item], self.counters[item])
            for item in items
        }


def layer_metrics(time_s, self_s, calls, counters) -> dict[str, float]:
    """The per-layer metrics from span totals and boundary counters."""
    sua_calls = calls.get("unify.sua", 0)
    useful = sua_calls - counters.get("unify.sua_empty", 0)
    return {
        "dsl.parse_s": time_s.get("dsl.parse", 0.0),
        "dsl.parse_calls": calls.get("dsl.parse", 0),
        "protocol.bundle_s": time_s.get("protocol.bundle", 0.0),
        "protocol.check_s": time_s.get("protocol.check", 0.0),
        "protocol.check_calls": calls.get("protocol.check", 0),
        "solver.interleave_s": time_s.get("solver.interleave", 0.0),
        "solver.sequences": counters.get("solver.sequences", 0),
        "solver.search_s": time_s.get("solver.search", 0.0),
        "solver.search_self_s": self_s.get("solver.search", 0.0),
        "solver.nodes": counters.get("solver.nodes", 0),
        "solver.peak_depth": counters.get("solver.peak_depth", 0),
        "solver.normalize_seq_s": time_s.get("solver.normalize_seq", 0.0),
        "solver.normalize_seq_calls": calls.get("solver.normalize_seq", 0),
        "solver.rule_sites": counters.get("solver.rule_sites", 0),
        "unify.sua_s": time_s.get("unify.sua", 0.0),
        "unify.sua_calls": sua_calls,
        "unify.sua_empty": counters.get("unify.sua_empty", 0),
        "unify.sua_incomplete": counters.get("unify.sua_incomplete", 0),
        "unify.sua_useful_ratio": useful / sua_calls if sua_calls else 0.0,
        "unify.bsca_s": time_s.get("unify.bsca", 0.0),
        "unify.bsca_calls": calls.get("unify.bsca", 0),
        "unify.bsca_configs": counters.get("unify.bsca_configs", 0),
        "unify.std_s": time_s.get("unify.std", 0.0),
        "unify.std_calls": calls.get("unify.std", 0),
        "unify.acun_s": time_s.get("unify.acun", 0.0),
        "unify.acun_calls": calls.get("unify.acun", 0),
        "unify.purify_s": time_s.get("unify.purify", 0.0),
        "oracle.verify_s": time_s.get("oracle.verify", 0.0),
        "oracle.verify_calls": calls.get("oracle.verify", 0),
        "oracle.closure_s": time_s.get("oracle.closure", 0.0),
        "oracle.closure_calls": calls.get("oracle.closure", 0),
        "oracle.closure_terms": counters.get("oracle.closure_terms", 0),
        "oracle.closure_capped": counters.get("oracle.closure_capped", 0),
        "cli.run_s": time_s.get("cli.run", 0.0),
        "cli.self_s": self_s.get("cli.run", 0.0),
        "cli.commands": calls.get("cli.run", 0),
    }


def combine(per_item: dict[str, dict[str, float]]) -> dict[str, float]:
    """Whole-run metrics from per-item ones: sums, except the peak depth
    (a maximum) and the useful ratio (recomputed from its base)."""
    total: dict[str, float] = {name: 0 for name, _ in LAYER_METRICS}
    for metrics in per_item.values():
        for name, value in metrics.items():
            if name == "solver.peak_depth":
                total[name] = max(total[name], value)
            else:
                total[name] += value
    calls = total["unify.sua_calls"]
    total["unify.sua_useful_ratio"] = (calls - total["unify.sua_empty"]) / calls if calls else 0.0
    return total
