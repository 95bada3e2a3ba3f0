"""Tests of the benchmark itself: seeded inputs, known-answer checks, metrics."""

from __future__ import annotations

import pytest

import run
import speed
import tracing
import workloads
from workloads import CliItem, UnifyItem, check_cli, check_unify
from xorsleuth.terms import Const, Sort, Substitution, Var


def _inputs(workload: str, seed: int) -> bytes:
    return "\n".join(item.describe() for item in workloads.build(workload, seed)).encode()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload):
    assert _inputs(workload, 7) == _inputs(workload, 7)
    assert _inputs(workload, 7) != _inputs(workload, 8)


def test_workload_names_agree():
    assert run.WORKLOADS == workloads.WORKLOADS


def test_item_counts():
    assert len(workloads.build("corpus", 1)) == 5 + 10 + 5 + 10
    assert len(workloads.build("attacks", 1)) == 2 * len(workloads.ATTACKS) + len(workloads.CONTROLS)
    gen = workloads.build("unify_gen", 1)
    assert sum(i.id.startswith("c2-") for i in gen) == workloads.CRITERION2_PROBLEMS
    assert sum(i.id.startswith("tag-") for i in gen) == 12


def test_attack_verify_follows_its_analysis():
    items = workloads.build("attacks", 3)
    position = {item.id: i for i, item in enumerate(items)}
    for item in items:
        if item.trace_of:
            assert position[item.trace_of] == position[item.id] - 1


def _report(results) -> dict:
    return {"results": results}


def test_cli_checker_accepts_known_answers():
    secure = CliItem("q1", "analyze", ("q1",), expect="secure")
    assert check_cli(secure, 0, _report({"verdict": "secure"})) is None
    attack = CliItem("p1+p2", "analyze", ("p1", "p2"), expect="attack")
    assert check_cli(attack, 1, _report({"verdict": "attack", "oracle_verified": True})) is None
    confirmed = CliItem("verify:p1+p2", "oracle-verify", expect="confirmed", trace_of="p1+p2")
    assert check_cli(confirmed, 0, _report({"confirmed": True})) is None
    passed = CliItem("assume:q1", "check-assumptions", ("q1",), expect="passed")
    assert check_cli(passed, 0, _report([{"status": "passed"}])) is None
    munut = CliItem("munut:q1/q2", "check-munut", ("q1", "q2"), expect="satisfied")
    assert check_cli(munut, 0, _report({"status": "satisfied"})) is None


def test_cli_checker_counts_wrong_answers_as_failed():
    secure = CliItem("q1", "analyze", ("q1",), expect="secure")
    assert check_cli(secure, 1, _report({"verdict": "attack"}))
    assert check_cli(secure, 3, _report({"verdict": "inconclusive"}))
    assert check_cli(secure, None, None)
    assert check_cli(secure, 0, None)
    attack = CliItem("p1+p2", "analyze", ("p1", "p2"), expect="attack")
    assert check_cli(attack, 0, _report({"verdict": "secure"}))
    assert check_cli(attack, 1, _report({"verdict": "attack", "oracle_verified": False}))
    confirmed = CliItem("verify:p1+p2", "oracle-verify", expect="confirmed", trace_of="p1+p2")
    assert check_cli(confirmed, 1, _report({"confirmed": False}))
    munut = CliItem("munut:q1/q2", "check-munut", ("q1", "q2"), expect="satisfied")
    assert check_cli(munut, 1, _report({"status": "violated"}))


def test_unify_checker_counts_unsound_or_missing_unifiers_as_failed():
    x, a, b = Var("X", Sort.DATA), Const("a", Sort.AGENT), Const("b", Sort.AGENT)
    item = UnifyItem("u", x, a, "unifiable")
    assert check_unify(item, (Substitution({x: a}),), True) is None
    assert check_unify(item, (Substitution({x: b}),), True)  # unsound
    assert check_unify(item, (), True)  # known unifiable
    assert check_unify(item, (Substitution({x: a}),), False)  # incomplete
    assert check_unify(item, (), None)  # raised
    clash = UnifyItem("c", x, a, "none")
    assert check_unify(clash, (Substitution({x: a}),), True)


def test_tail_percentile_keeps_ten_samples_beyond():
    value, pct, n = run.tail([float(i) for i in range(30)])
    assert (value, n) == (19.0, 30)
    assert pct == pytest.approx(100 * 20 / 30)


def test_self_time_subtracts_direct_children():
    t = tracing.Tracer()
    t.spans = [
        ["cli.run", 0.0, 10.0, -1, "i", False],
        ["solver.secrecy", 1.0, 9.0, 0, "i", False],
        ["solver.search", 2.0, 8.0, 1, "i", False],
        ["unify.sua", 3.0, 4.0, 2, "i", False],
        ["solver.normalize_seq", 5.0, 5.5, 2, "i", False],
    ]
    t.counters["i"]["unify.sua_empty"] = 1
    m = t.metrics_by_item()["i"]
    assert m["solver.search_s"] == 6.0
    assert m["solver.search_self_s"] == pytest.approx(4.5)
    assert m["cli.self_s"] == 2.0
    assert m["unify.sua_calls"] == 1 and m["unify.sua_useful_ratio"] == 0.0
    total = tracing.combine({"i": m, "j": m})
    assert total["solver.search_s"] == 12.0
    assert set(total) == {name for name, _ in tracing.LAYER_METRICS}


def test_probe_clock_leaves_out_probe_time():
    probe = speed.SpeedProbe()
    start = probe.clock()
    probe.sample()
    assert probe.clock() - start < probe.durations[-1]
