"""One pass over a workload, in a fresh interpreter started by run.py.

The first thing this process does is import ``xorsleuth.cli``; the time from
the parent's spawn to the end of that import is the set-up time every CLI
call pays.  It then runs every item of the workload once, in the seeded
order, and writes the per-item rows (and, when traced, the per-layer
metrics and spans) as JSON to ``--out``.

Before each item the program's in-process caches are cleared and a garbage
collection is run, outside the timed region, so every item starts as cold
as a fresh ``xorsleuth`` call.  Short items are repeated over the pass and
timed by their median, which keeps a burst of machine noise from moving
them.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import xorsleuth.cli  # noqa: E402  (the import is what set-up time measures)

READY = time.monotonic()

import argparse  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402

import xorsleuth.unify  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from workloads import CliItem, check_cli, check_unify  # noqa: E402

FIXTURES = os.path.join(SRC, "xorsleuth", "fixtures")
REPEAT_BELOW_S = 0.2
# In a traced pass, an item whose traced run takes less than this is run once
# more untraced right after it, for the tracing overhead.  Longer items
# (corpus' q1+q3, 45-70 s) are not, so that a traced run fits its time limit.
REFERENCE_BELOW_S = 30.0


def program_caches() -> list:
    """Every ``functools`` cache held at module level in the program."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "xorsleuth" or name.startswith("xorsleuth."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    found[id(value)] = value
    return list(found.values())


class Pass:
    def __init__(self, workload: str, seed: int, workdir: str, tracer: "tracing.Tracer | None", probe: SpeedProbe):
        self.items = workloads.build(workload, seed)
        self.workdir = workdir
        self.tracer = tracer
        self.probe = probe
        self.reports: dict[str, str] = {}
        for leak in workloads.LEAKS:
            with open(os.path.join(workdir, f"{leak}.proto"), "w", encoding="utf-8") as f:
                f.write(workloads.leak_protocol(leak))

    def _proto(self, name: str) -> str:
        folder = self.workdir if name in workloads.LEAKS else FIXTURES
        return os.path.join(folder, f"{name}.proto")

    def _argv(self, index: int, item: CliItem) -> list[str]:
        paths = [self._proto(p) for p in item.protocols]
        if item.command == "analyze":
            argv = ["analyze", paths[0], *(a for p in paths[1:] for a in ("--combined", p)), *item.options]
        elif item.command == "oracle-verify":
            argv = ["oracle-verify", self.reports[item.trace_of]]
        else:
            argv = [item.command, *paths, *item.options]
        report = os.path.join(self.workdir, f"report-{index:04d}.json")
        if os.path.exists(report):  # from an earlier repeat
            os.remove(report)
        self.reports[item.id] = report
        return argv + ["--json", report]

    def run_cli(self, index: int, item: CliItem) -> tuple[float, dict]:
        argv = self._argv(index, item)
        out, err = io.StringIO(), io.StringIO()
        started = self.probe.clock()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = xorsleuth.cli.run_command(argv)
        except (Exception, SystemExit) as e:
            code, error = None, repr(e)
        else:
            error = None
        elapsed = self.probe.clock() - started
        report = None
        if os.path.exists(self.reports[item.id]):
            with open(self.reports[item.id], encoding="utf-8") as f:
                report = json.load(f)
        why = check_cli(item, code, report)
        results = (report or {}).get("results")
        if isinstance(results, list):
            result = ",".join(r.get("status", "?") for r in results)
        elif isinstance(results, dict):
            result = results.get("verdict") or results.get("status") or ("confirmed" if results.get("confirmed") else "not confirmed")
        else:
            result = error or err.getvalue().strip() or "no report"
        row = {"item": item.id, "result": result, "exit": code, "why": why}
        stats = (results or {}).get("stats") if isinstance(results, dict) else None
        if stats:
            row["counters"] = {k: stats[k] for k in ("sequences", "nodes") if k in stats}
        return elapsed, row

    def run_unify(self, item) -> tuple[float, dict]:
        started = self.probe.clock()
        try:
            unifiers, complete = xorsleuth.unify.unify_sua(item.lhs, item.rhs)
        except Exception as e:
            unifiers, complete, error = (), None, repr(e)
        else:
            error = None
        elapsed = self.probe.clock() - started
        why = check_unify(item, unifiers, complete)
        if complete is None:
            result = error
        else:
            result = f"{len(unifiers)} unifier(s)" + ("" if complete else ", incomplete")
        return elapsed, {"item": item.id, "result": result, "why": why}

    def timed(self, index: int, item, caches: list) -> tuple[float, float, dict]:
        """One cold run of an item: (seconds at nominal speed, as measured, row)."""
        for cache in caches:
            cache.cache_clear()
        gc.collect()
        window = self.probe.mark()
        self.probe.sample()
        if isinstance(item, CliItem):
            elapsed, row = self.run_cli(index, item)
        else:
            elapsed, row = self.run_unify(item)
        return elapsed / self.probe.slowness(window), elapsed, row

    def run(self, repeats: int) -> list[dict]:
        """Run every item once, then run the items shorter than REPEAT_BELOW_S
        again, round by round, until each has ``repeats`` timings, every one
        checked.  Spreading the repeats over the pass keeps one burst of
        machine noise from moving an item's median.  ``time_ms`` is the
        median at nominal machine speed (speed.py), ``raw_ms`` as measured.
        A traced pass also gives an item its ``reference_ms`` untraced."""
        caches = program_caches()
        raw: list[list[float]] = [[] for _ in self.items]
        nominal: list[list[float]] = [[] for _ in self.items]
        rows: list[dict] = [{} for _ in self.items]
        for repeat in range(repeats):
            for index, item in enumerate(self.items):
                if repeat and raw[index][0] >= REPEAT_BELOW_S:
                    continue
                if self.tracer is not None:
                    self.tracer.item = item.id
                at_nominal, elapsed, row = self.timed(index, item, caches)
                raw[index].append(elapsed)
                nominal[index].append(at_nominal)
                if self.tracer is not None and elapsed < REFERENCE_BELOW_S:
                    # Right after the traced run, so that the host's speed
                    # has little time to change between the two.
                    self.tracer.uninstall()
                    reference, _, untraced = self.timed(index, item, caches)
                    self.tracer.install()
                    row["reference_ms"] = reference * 1000.0
                    row["why"] = row["why"] or untraced["why"]
                if not rows[index] or (row["why"] and not rows[index]["why"]):
                    rows[index] = row
        for row, r, n in zip(rows, raw, nominal):
            row["time_ms"] = statistics.median(n) * 1000.0
            row["raw_ms"] = statistics.median(r) * 1000.0
            row["samples"] = len(r)
        return rows


def write_spans(path: str, tracer: "tracing.Tracer") -> None:
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    with open(path, "w", encoding="utf-8") as f:
        for name, start, end, parent, item, _ in tracer.spans:
            f.write(json.dumps([name, round(start - origin, 7), round(end - origin, 7), parent, item]) + "\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--spawned-at", type=float, required=True, help="time.monotonic() of the spawn")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeats", type=int, default=1, help="timed runs of each short item")
    ap.add_argument("--out")
    args = ap.parse_args()

    origin = os.path.realpath(xorsleuth.cli.__file__)
    if not origin.startswith(os.path.realpath(SRC) + os.sep):
        print(f"child: xorsleuth imported from {origin}, not from {SRC}", file=sys.stderr)
        return 2
    setup_s = READY - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    probe = SpeedProbe()
    tracer = tracing.Tracer(probe.clock) if args.trace else None
    workdir = tempfile.mkdtemp(prefix="pass-", dir=os.path.dirname(os.path.abspath(args.out)))
    try:
        with probe:
            run = Pass(args.workload, args.seed, workdir, tracer, probe)
            if tracer is not None:
                tracer.install()
            # The inputs, the probe pool and the modules live for the whole
            # pass: keep the collections run before each item off them.
            gc.freeze()
            rows = run.run(args.repeats)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    times = [r["time_ms"] for r in rows]
    doc = {
        "wall_s": sum(times) / 1000.0,
        "raw_wall_s": sum(r["raw_ms"] for r in rows) / 1000.0,
        "probe_ms": statistics.fmean(probe.durations) * 1000.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "item_p50_ms": statistics.median(times),
        "rows": rows,
    }
    if tracer is not None:
        per_item = tracer.metrics_by_item()
        for row in rows:
            layers = per_item.get(row["item"], {})
            row["layers"] = {k: v for k, v in layers.items() if v}
        doc["layers"] = tracing.combine(per_item)
        doc["unwrapped"] = tracer.missing
        spans = args.out + ".spans.jsonl"
        write_spans(spans, tracer)
        doc["spans_file"] = spans
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(doc, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
