"""xorsleuth benchmark: run one workload, check every answer, print metrics.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 10 --trace 0

Workloads are ``corpus``, ``attacks`` and ``unify_gen`` (see NOTES.md).  Each
pass runs every item of the workload once, in an order shuffled by the
seed, inside a fresh interpreter (child.py), one child at a time.  Passes
repeat until ``--seconds`` have been measured; there is always at least one.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one
traced pass, every item once, each followed by an untraced run of the same
item, and prints the per-layer metrics and the tracing overhead.  The last line of standard output is
the JSON result; per-item rows go to ``.perfbench_out/`` and a summary to
standard error.  ``--check-determinism`` instead runs two traced passes with
the same seed, under different hash seeds, and diffs their deterministic
counters.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
CHILD = os.path.join(HERE, "child.py")
SOURCE = os.path.join(ROOT, "src", "xorsleuth")

WORKLOADS = ("corpus", "attacks", "unify_gen")  # as in workloads.py, which imports xorsleuth
SETUP_SPAWNS = 7
# Timed runs of each item shorter than child.REPEAT_BELOW_S in an untraced
# pass (see NOTES.md); unify_gen's ~900 short items already give a steady
# median.
REPEATS = {"corpus": 9, "attacks": 5}
RUN_LIMIT_S = 170.0  # a measured run must end well within 180 s
DETERMINISM_LIMIT_S = 600.0
TAIL_BEYOND = 10  # samples required beyond the reported tail percentile

sys.path.insert(0, HERE)
from speed import SpeedProbe  # noqa: E402
from tracing import DETERMINISTIC, LAYER_METRICS  # noqa: E402


class BenchError(Exception):
    pass


class Runner:
    def __init__(self, workload: str, seed: int, limit_s: float = RUN_LIMIT_S):
        self.workload = workload
        self.seed = seed
        self.limit_s = limit_s
        self.started = time.monotonic()
        self.probe = SpeedProbe()

    def remaining(self) -> float:
        left = self.limit_s - (time.monotonic() - self.started)
        if left <= 1.0:
            raise BenchError(f"run limit of {self.limit_s:.0f} s reached")
        return left

    def spawn(self, *extra: str, hash_seed: int | None = None) -> subprocess.CompletedProcess:
        # The hash seed follows the workload seed unless given, so a run's
        # dict and set layouts repeat with its seed and vary across seeds.
        hash_seed = self.seed if hash_seed is None else hash_seed
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed % 4294967296))
        argv = [sys.executable, CHILD, "--spawned-at", repr(time.monotonic()), *extra]
        try:
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=self.remaining(), cwd=ROOT, env=env)
        except subprocess.TimeoutExpired as e:
            raise BenchError(f"child exceeded the run limit: {' '.join(extra)}") from e
        if proc.returncode != 0:
            raise BenchError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return proc

    def setup_sample(self) -> tuple[float, float]:
        """Set-up time of one spawn: (at nominal machine speed, as measured)."""
        window = self.probe.mark()
        self.probe.sample()
        raw = json.loads(self.spawn("--setup-only").stdout)["setup_s"]
        return raw / self.probe.slowness(window), raw

    def one_pass(self, trace: int, tag: str, repeats: int = 1, hash_seed: int | None = None) -> dict:
        out = os.path.join(OUT, f"{self.workload}-seed{self.seed}-{tag}.json")
        self.spawn(
            "--workload", self.workload, "--seed", str(self.seed), "--trace", str(trace),
            "--repeats", str(repeats), "--out", out, hash_seed=hash_seed,
        )
        with open(out, encoding="utf-8") as f:
            doc = json.load(f)
        doc["rows_file"] = out
        return doc


# -- metrics -----------------------------------------------------------------------


def tail(times: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it:
    (value, percentile, sample count)."""
    ordered = sorted(times)
    n = len(ordered)
    k = max(n - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * (k + 1) / n, n


def failures(passes: list[dict]) -> tuple[int, int]:
    rows = [r for p in passes for r in p["rows"]]
    return len(rows), sum(1 for r in rows if r["why"])


def print_rows(doc: dict, trace: int) -> None:
    rows = doc["rows"]
    err = sys.stderr
    print(f"rows: {doc['rows_file']}", file=err)
    for r in rows:
        counters = dict(r.get("counters", {}))
        if trace:
            layers = r.get("layers", {})
            counters.update({k.split(".", 1)[1]: layers[k] for k in DETERMINISTIC if layers.get(k)})
        extra = " ".join(f"{k}={v}" for k, v in counters.items())
        flag = f"  FAILED: {r['why']}" if r["why"] else ""
        print(f"  {r['item']:<22} {r['result']:<16} {r['time_ms']:10.1f} ms  {extra}{flag}", file=err)


def compare_baseline(doc: dict) -> None:
    """Report the traced counters of the items named in baseline.json."""
    with open(os.path.join(HERE, "baseline.json"), encoding="utf-8") as f:
        baseline = json.load(f)["items"]
    rows = {r["item"]: r for r in doc["rows"]}
    diffs = []
    for item, want in baseline.items():
        if item not in rows:
            continue
        got = rows[item].get("layers", {})
        for name, value in want.items():
            if got.get(name, 0) != value:
                diffs.append(f"  {item} {name}: baseline {value}, now {got.get(name, 0)}")
    present = [i for i in baseline if i in rows]
    if not present:
        return
    if diffs:
        print("baseline counters differ (a change to search counters needs a stated reason):", file=sys.stderr)
        print("\n".join(diffs), file=sys.stderr)
    else:
        print(f"baseline counters match for {', '.join(present)}", file=sys.stderr)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(runner: Runner, passes: list[dict], setup: list[tuple[float, float]]) -> dict:
    tails = [tail([r["time_ms"] for r in p["rows"]]) for p in passes]
    attempted, failed = failures(passes)
    value, pct, n = tails[len(tails) // 2]
    raw_wall = statistics.median(p["raw_wall_s"] for p in passes)
    raw_setup = statistics.median(raw for _, raw in setup)
    print(
        f"{runner.workload} seed {runner.seed}: {len(passes)} pass(es); item_tail_ms is p{pct:.1f} of {n} items; "
        f"setup_s is the median of {len(setup)} spawns; failed_ratio {failed}/{attempted}; "
        f"as measured: wall {raw_wall:.3f} s, set-up {raw_setup:.4f} s",
        file=sys.stderr,
    )
    return {
        "wall_s": metric(statistics.median(p["wall_s"] for p in passes), "s"),
        "setup_s": metric(statistics.median(nominal for nominal, _ in setup), "s"),
        "item_p50_ms": metric(statistics.median(p["item_p50_ms"] for p in passes), "ms"),
        "item_tail_ms": metric(statistics.median(t[0] for t in tails), "ms"),
        "peak_rss_mb": metric(statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }


def per_layer(doc: dict) -> dict:
    if doc["unwrapped"]:
        print(f"not traced (attribute missing): {', '.join(doc['unwrapped'])}", file=sys.stderr)
    metrics = {name: metric(doc["layers"][name], unit) for name, unit in LAYER_METRICS}
    metrics["trace.wall_s"] = metric(doc["wall_s"], "s")
    paired = [r for r in doc["rows"] if "reference_ms" in r]
    traced = sum(r["time_ms"] for r in paired) / 1000.0
    untraced = sum(r["reference_ms"] for r in paired) / 1000.0
    metrics["trace.overhead_ratio"] = metric(traced / untraced, "1")
    left_out = [r["item"] for r in doc["rows"] if "reference_ms" not in r]
    print(
        f"tracing overhead: traced {traced:.3f} s / untraced {untraced:.3f} s over {len(paired)} items, "
        f"one run each; no untraced run: {', '.join(left_out) or 'none'} "
        f"({1 - traced / doc['wall_s']:.0%} of the traced pass); spans: {doc['spans_file']}",
        file=sys.stderr,
    )
    return metrics


# -- modes -------------------------------------------------------------------------


def measure(runner: Runner, seconds: float, trace: int) -> dict:
    passes: list[dict] = []
    if trace:
        passes.append(runner.one_pass(1, "trace1"))
        print_rows(passes[0], 1)
        compare_baseline(passes[0])
        metrics = per_layer(passes[0])
    else:
        setup = [runner.setup_sample() for _ in range(SETUP_SPAWNS)]
        measure_start = time.monotonic()
        while not passes or time.monotonic() - measure_start < seconds:
            passes.append(runner.one_pass(0, f"trace0-pass{len(passes)}", REPEATS.get(runner.workload, 1)))
        print_rows(passes[0], 0)
        metrics = end_to_end(runner, passes, setup)
    attempted, failed = failures(passes)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def check_determinism(runner: Runner) -> int:
    # Different hash seeds, so counters that depend on set or dict order
    # show up as a difference; the workload seed still fixes the inputs.
    docs = [runner.one_pass(1, f"determinism{i}", hash_seed=runner.seed + i) for i in range(2)]
    counters = [{r["item"]: {k: r.get("layers", {}).get(k, 0) for k in DETERMINISTIC} for r in d["rows"]} for d in docs]
    diffs = []
    for item in sorted(set(counters[0]) | set(counters[1])):
        a, b = counters[0].get(item, {}), counters[1].get(item, {})
        for k in DETERMINISTIC:
            if a.get(k) != b.get(k):
                diffs.append(f"  {item} {k}: {a.get(k)} != {b.get(k)}")
    if diffs:
        print(f"deterministic counters differ between two runs of seed {runner.seed} (hash seeds {runner.seed}, {runner.seed + 1}):")
        print("\n".join(diffs))
        return 1
    print(
        f"deterministic counters identical across two runs of seed {runner.seed} "
        f"(hash seeds {runner.seed}, {runner.seed + 1}; {len(counters[0])} items)"
    )
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check-determinism", action="store_true")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SOURCE, "cli.py")):
        print(f"perfbench: no xorsleuth source at {SOURCE}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    runner = Runner(args.workload, args.seed, DETERMINISM_LIMIT_S if args.check_determinism else RUN_LIMIT_S)
    try:
        if args.check_determinism:
            return check_determinism(runner)
        result = measure(runner, args.seconds, args.trace)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
