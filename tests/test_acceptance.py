"""Acceptance gate: one test per release criterion, with pinned budgets.

Each test prints a single summary line; run with `pytest -v` to see the
per-criterion pass/fail verdicts.  Time limits are asserted with
wall-clock measurements on the in-process work.
"""

import itertools
import json
import random
import time
from pathlib import Path

import pytest

from xorsleuth.cli import run_command
from xorsleuth.dsl import parse_protocol_file
from xorsleuth.oracle import verify_solution
from xorsleuth.protocol import ATTACKER, check_assumptions, check_munut
from xorsleuth.solver import (
    AnalysisConfig,
    Constraint,
    ConstraintSequence,
    SolveStatus,
    SolverBudget,
    check_secrecy,
    satisfiable,
)
from xorsleuth.terms import (
    Const,
    PEnc,
    Pk,
    SEnc,
    Seq,
    Sh,
    Sort,
    Substitution,
    Term,
    Theory,
    Var,
    Xor,
    ZERO,
    equal_mod,
    normalize,
    term_key,
    vars_of,
)
from xorsleuth.unify import Equation, UnificationProblem, bsca_unify, unify_sua

from test_oracle import agreement_cases, ground_substitutions

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "xorsleuth" / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"


def fx(name: str) -> str:
    return str(FIXTURES / name)


def strip_elapsed(doc):
    if isinstance(doc, dict):
        return {k: strip_elapsed(v) for k, v in doc.items() if k != "elapsed_ms"}
    if isinstance(doc, list):
        return [strip_elapsed(v) for v in doc]
    return doc


def test_criterion_1_worked_unification_example():
    """The documented mixed-theory unification example reproduces exactly."""
    one = Const("1", Sort.DATA)
    two = Const("2", Sort.DATA)
    a = Const("a", Sort.AGENT)
    b = Const("b", Sort.AGENT)
    n_a = Const("n_a", Sort.NONCE)
    A = Var("A", Sort.AGENT)
    B = Var("B", Sort.AGENT)
    N_B = Var("N_B", Sort.NONCE)

    lhs = PEnc(Seq((one, n_a)), Pk(B))
    rhs = Xor((PEnc(Seq((one, N_B)), Pk(a)), Seq((two, A)), Seq((two, b))))

    started = time.perf_counter()
    unifiers, trace = bsca_unify(
        UnificationProblem((Equation(lhs, rhs, Theory.SUA),), Theory.SUA)
    )
    elapsed = time.perf_counter() - started

    expected = Substitution({B: a, N_B: n_a, A: b})
    assert expected in unifiers, f"expected unifier missing; got {unifiers}"
    assert len(trace.gamma1) == 5, f"purified system has {len(trace.gamma1)} equations, want 5"
    assert elapsed < 1.0, f"took {elapsed:.3f}s, limit 1s"
    print(f"criterion 1: PASS ({elapsed*1000:.0f} ms, {len(unifiers)} unifier(s))")


# -- generators shared by criteria 2 and 3 ------------------------------------------


def _ground_atom(rng: random.Random) -> Term:
    return rng.choice(
        [
            Const("a", Sort.AGENT),
            Const("b", Sort.AGENT),
            Const("c", Sort.AGENT),
            Const("n1", Sort.NONCE),
            Const("n2", Sort.NONCE),
            Const("k1", Sort.KEY),
            Const("d1", Sort.DATA),
            Const("d2", Sort.DATA),
        ]
    )


def _std_ground(rng: random.Random, depth: int) -> Term:
    """An XOR-free ground term (the standard operators only)."""
    if depth == 0:
        return _ground_atom(rng)
    kind = rng.choice(["atom", "seq", "senc", "penc"])
    if kind == "atom":
        return _ground_atom(rng)
    if kind == "seq":
        return Seq(tuple(_std_ground(rng, depth - 1) for _ in range(rng.randint(2, 3))))
    if kind == "senc":
        return SEnc(_std_ground(rng, depth - 1), Const("k1", Sort.KEY))
    return PEnc(_std_ground(rng, depth - 1), Pk(Const("a", Sort.AGENT)))


def _lift_interior(t: Term, rng: random.Random, counter: list, rate: float) -> Term:
    """Replace strict subterms of ``t`` with fresh variables.

    The root of ``t`` itself is never replaced, so a compound stays compound —
    in particular a direct XOR child never becomes a bare variable.
    """

    def go(u: Term, is_root: bool) -> Term:
        if not is_root and rng.random() < rate:
            counter[0] += 1
            return Var(f"V{counter[0]}", Sort.DATA)
        if isinstance(u, Seq):
            return Seq(tuple(go(i, False) for i in u.items))
        if isinstance(u, SEnc):
            return SEnc(go(u.plain, False), u.key)
        if isinstance(u, PEnc):
            return PEnc(go(u.plain, False), u.key)
        return u

    return go(t, True)


def _distinct_std_children(rng: random.Random, k: int, depth: int) -> list:
    out: list[Term] = []
    seen = set()
    while len(out) < k:
        c = normalize(_std_ground(rng, depth))
        if c not in seen:
            seen.add(c)
            out.append(c)
    return out


def criterion_2_problems():
    """The 500 problems of criterion 2, as (lhs, rhs) pairs of canonical terms."""
    rng = random.Random(20260815)
    generated = 0
    while generated < 500:
        counter = [0]
        if rng.random() < 0.5:
            # shared root XOR; variables strictly inside one child
            children = _distinct_std_children(rng, rng.randint(2, 3), rng.randint(1, 2))
            rhs = Xor(tuple(children))
            idx = rng.randrange(len(children))
            lifted_child = _lift_interior(children[idx], rng, counter, rate=0.4)
            lhs = Xor(tuple(lifted_child if i == idx else c for i, c in enumerate(children)))
        else:
            # plain term vs XOR whose extra children cancel under the unifier
            s0 = normalize(SEnc(Seq((_ground_atom(rng), _ground_atom(rng))), Const("k1", Sort.KEY)))
            tag = Const("2", Sort.DATA)
            p = normalize(Seq((tag, _std_ground(rng, rng.randint(0, 1)))))
            p_lifted = p
            for _ in range(8):
                p_lifted = _lift_interior(p, rng, counter, rate=0.5)
                if normalize(p_lifted) != p:
                    break
            if normalize(p_lifted) == p:
                continue
            lhs = _lift_interior(s0, rng, counter, rate=0.3)
            rhs = Xor((s0, p, p_lifted))
        lhs, rhs = normalize(lhs), normalize(rhs)
        if not isinstance(rhs, Xor):
            continue
        generated += 1
        yield lhs, rhs


def test_criterion_2_top_level_xor_problems_have_ground_acun_residue():
    """Unifiable problems whose XOR terms sit at an equation side and have no
    variable children resolve with a fully ground ACUN subsystem and an empty
    ACUN unifier: the XOR layer contributes no bindings."""
    generated = 0
    started = time.perf_counter()
    for lhs, rhs in criterion_2_problems():
        generated += 1
        unifiers, trace = bsca_unify(
            UnificationProblem((Equation(lhs, rhs, Theory.SUA),), Theory.SUA)
        )
        assert unifiers, f"problem #{generated} unexpectedly not unifiable: {lhs} = {rhs}"
        for eq in trace.gamma5_2:
            assert not vars_of(eq.left) and not vars_of(eq.right), (
                f"problem #{generated}: non-ground ACUN residue {eq} for {lhs} = {rhs}"
            )
        assert trace.sigma2.items() == (), (
            f"problem #{generated}: ACUN unifier not empty: {trace.sigma2.items()} for {lhs} = {rhs}"
        )
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"took {elapsed:.1f}s, limit 60s"
    print(f"criterion 2: PASS ({generated} problems, {elapsed:.1f}s)")


_C3_POOL = (Const("a", Sort.AGENT), Const("d1", Sort.DATA), Const("d2", Sort.DATA))
_C3_VARIABLES = (Var("X", Sort.DATA), Var("Y", Sort.DATA), Var("Z", Sort.DATA))


def _small_term(rng: random.Random, depth: int) -> Term:
    if depth == 0 or rng.random() < 0.4:
        return rng.choice(_C3_POOL + _C3_VARIABLES)
    kind = rng.choice(["seq", "senc", "xor"])
    if kind == "seq":
        return Seq((_small_term(rng, depth - 1), _small_term(rng, depth - 1)))
    if kind == "senc":
        return SEnc(_small_term(rng, depth - 1), _small_term(rng, depth - 1))
    return Xor((_small_term(rng, depth - 1), _small_term(rng, depth - 1)))


def criterion_3_problems():
    """The 400 candidate problems of criterion 3, as (lhs, rhs) pairs of
    canonical terms (the gate skips those with more than three variables)."""
    rng = random.Random(715)
    for _ in range(400):
        lhs = normalize(_small_term(rng, 2))
        rhs = normalize(_small_term(rng, 2))
        yield lhs, rhs


def test_criterion_3_unification_sound_and_ground_complete():
    """Returned unifiers solve their equations; brute-force ground search over
    a 3-atom pool finds no solution the engine missed."""
    pool = _C3_POOL
    # ground XOR combinations a free variable in a unifier range may stand for
    xor_pool = [ZERO]
    for r in range(1, len(pool) + 1):
        for combo in itertools.combinations(pool, r):
            xor_pool.append(normalize(Xor(combo)) if len(combo) > 1 else combo[0])

    started = time.perf_counter()
    checked = sat_count = 0
    for lhs, rhs in criterion_3_problems():
        free = sorted(vars_of(lhs) | vars_of(rhs), key=term_key)
        if len(free) > 3:
            continue
        unifiers, complete = unify_sua(lhs, rhs)
        assert complete, f"incomplete search on desk-scale problem {lhs} = {rhs}"
        checked += 1
        # soundness: exact, every unifier
        for u in unifiers:
            assert equal_mod(Theory.SUA, u.apply(lhs), u.apply(rhs)), (
                f"unsound unifier {u.items()} for {lhs} = {rhs}"
            )
        if unifiers:
            sat_count += 1
        # completeness: every ground solution is an instance of some unifier
        for sigma in ground_substitutions(free, pool):
            if not equal_mod(Theory.SUA, sigma.apply(lhs), sigma.apply(rhs)):
                continue
            assert unifiers, f"ground solution {sigma.items()} but engine found none: {lhs} = {rhs}"
            assert _instance_of_some(sigma, unifiers, free, xor_pool), (
                f"ground solution {sigma.items()} not covered for {lhs} = {rhs}"
            )
    elapsed = time.perf_counter() - started
    assert checked >= 300, f"only {checked} problems generated"
    assert elapsed < 120.0, f"took {elapsed:.1f}s, limit 120s"
    print(f"criterion 3: PASS ({checked} problems, {sat_count} solvable, {elapsed:.1f}s)")


def _instance_of_some(sigma, unifiers, free, xor_pool) -> bool:
    for u in unifiers:
        extra = set()
        for v in free:
            extra |= vars_of(u.apply(v))
        extra -= set(free)
        extras = sorted(extra, key=term_key)
        for values in itertools.product(xor_pool, repeat=len(extras)):
            ext = sigma.compose(Substitution(dict(zip(extras, values))))
            if all(
                equal_mod(Theory.SUA, ext.apply(v), ext.apply(u.apply(v))) for v in free
            ):
                return True
    return False


def test_criterion_4_combined_protocol_attack_reproduction(tmp_path, capsys):
    """The shared-key / encrypted-nonce pair: attack only in combination."""
    started = time.perf_counter()
    trace_path = tmp_path / "attack.json"
    code_combined = run_command(
        [
            "analyze", fx("p1.proto"), "--combined", fx("p2.proto"),
            "--sessions", "1", "--secret", "NA", "--json", str(trace_path),
        ]
    )
    code_alone = run_command(["analyze", fx("p2.proto")])
    code_verify = run_command(["oracle-verify", str(trace_path)])
    elapsed = time.perf_counter() - started
    capsys.readouterr()

    assert code_combined == 1, f"combined analysis exit {code_combined}, want 1"
    doc = json.loads(trace_path.read_text())
    attack = doc["results"]["attack"]
    final_terms = attack["constraints"][-1]["term_set"]
    assert "sh(const(a:Agent),const(s:Agent))" in final_terms, "long-term key not in knowledge"
    assert attack["secret"] == "const(na1:Nonce)", f"wrong secret {attack['secret']}"
    assert code_alone == 0, f"isolated analysis exit {code_alone}, want 0"
    assert code_verify == 0, "oracle did not confirm the trace"
    assert elapsed < 5.0, f"took {elapsed:.1f}s, limit 5s"
    print(f"criterion 4: PASS ({elapsed*1000:.0f} ms)")


def test_criterion_5_assumption_checker_goldens(tmp_path, capsys):
    """Long-term-key and key-derivability checks match committed reports."""
    cases = [
        ("p1.proto", "assumptions_p1.json", 1),
        ("nslx.proto", "assumptions_nslx.json", 0),
        ("keyleak.proto", "assumptions_keyleak.json", 1),
    ]
    for fixture, golden, want in cases:
        out = tmp_path / golden
        code = run_command(["check-assumptions", fx(fixture), "--json", str(out)])
        assert code == want, f"{fixture}: exit {code}, want {want}"
        assert json.loads(out.read_text()) == json.loads((GOLDEN / golden).read_text()), (
            f"{fixture}: report deviates from golden {golden}"
        )
    capsys.readouterr()
    p1_report = json.loads((GOLDEN / "assumptions_p1.json").read_text())
    witnesses = p1_report["results"][0]["witnesses"]
    assert any(w["witness"] == "sh(const(a:Agent),const(s:Agent))" for w in witnesses)
    print("criterion 5: PASS (3 golden reports)")


def test_criterion_6_tagging_checker_goldens(tmp_path, capsys):
    """Untagged self-pair violated with unifier witness; tagged pair clean."""
    started = time.perf_counter()
    out1 = tmp_path / "untagged.json"
    code1 = run_command(["check-munut", fx("nslx.proto"), fx("nslx.proto"), "--json", str(out1)])
    out2 = tmp_path / "tagged.json"
    code2 = run_command(["check-munut", fx("nslx_nslx.proto"), fx("nslx_other.proto"), "--json", str(out2)])
    elapsed = time.perf_counter() - started
    capsys.readouterr()

    assert code1 == 1 and code2 == 0
    doc1 = json.loads(out1.read_text())
    assert doc1 == json.loads((GOLDEN / "munut_untagged.json").read_text())
    assert any(w["unifier"] for w in doc1["results"]["witnesses"]), "no unifier witness"
    assert json.loads(out2.read_text()) == json.loads((GOLDEN / "munut_tagged.json").read_text())
    assert elapsed < 5.0, f"took {elapsed:.1f}s, limit 5s"
    print(f"criterion 6: PASS ({elapsed*1000:.0f} ms)")


def test_criterion_7_independence_of_tagged_corpus():
    """Every corpus protocol passes the static checks and stays secure when
    combined with any other; budget exhaustion may only soften to
    inconclusive, never flip to attack or feign security."""
    started = time.perf_counter()
    names = ["q1", "q2", "q3", "q4", "q5"]
    protocols = {n: parse_protocol_file(fx(f"{n}.proto")) for n in names}

    for n, p in protocols.items():
        assert check_assumptions(p).ok(), f"{n} fails the assumption checks"
    pairs = list(itertools.combinations(names, 2))
    assert len(pairs) >= 5
    for n1, n2 in pairs:
        assert check_munut(protocols[n1], protocols[n2]).ok(), f"{n1}/{n2} not tag-disjoint"

    for n, p in protocols.items():
        res = check_secrecy([p], AnalysisConfig(sessions=1))
        assert res.verdict == "secure", f"{n} alone: {res.verdict}"

    verdicts = {}
    for n1, n2 in pairs:
        res = check_secrecy([protocols[n1], protocols[n2]], AnalysisConfig(sessions=1))
        verdicts[(n1, n2)] = res.verdict
        assert res.verdict != "attack", f"{n1}+{n2}: combined attack found"
        assert res.verdict in ("secure", "inconclusive")
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0, f"took {elapsed:.1f}s, limit 600s"
    inconclusive = sum(1 for v in verdicts.values() if v == "inconclusive")
    print(
        f"criterion 7: PASS ({len(pairs)} pairs, {inconclusive} inconclusive, {elapsed:.1f}s)"
    )


def test_criterion_8_solver_oracle_agreement():
    """Satisfiable ⇒ oracle confirms; exhaustive Unsatisfiable ⇒ no ground
    substitution over the atom pool passes the oracle."""
    started = time.perf_counter()
    pool = (ATTACKER, Const("a", Sort.AGENT), Const("k", Sort.KEY))
    sat = unsat = 0
    for cs in agreement_cases():
        res = satisfiable(cs, SolverBudget())
        if res.status is SolveStatus.SATISFIABLE:
            sat += 1
            assert verify_solution(cs, res.solution()[0]), (
                f"oracle rejects solver solution on {cs.constraints}"
            )
        elif res.status is SolveStatus.UNSATISFIABLE:
            unsat += 1
            free = set()
            for c in cs.constraints:
                free |= vars_of(c.target)
                for t in c.term_set:
                    free |= vars_of(t)
            for sigma in ground_substitutions(free, pool):
                assert not verify_solution(cs, sigma), (
                    f"solver UNSAT but {sigma.items()} derives on {cs.constraints}"
                )
        else:
            pytest.fail(f"budget exhausted on agreement corpus: {cs.constraints}")
    elapsed = time.perf_counter() - started
    assert sat and unsat, "corpus must exercise both verdicts"
    assert elapsed < 300.0, f"took {elapsed:.1f}s, limit 300s"
    print(f"criterion 8: PASS ({sat} sat + {unsat} unsat cases, {elapsed:.1f}s)")


def test_criterion_9_reports_reproducible(tmp_path, capsys):
    """Every report-producing command yields byte-identical JSON across two
    consecutive runs, once elapsed-time fields are removed."""
    commands = [
        ["check-assumptions", fx("p1.proto"), fx("nslx.proto"), fx("keyleak.proto")],
        ["check-munut", fx("nslx.proto"), fx("nslx.proto")],
        ["check-munut", fx("nslx_nslx.proto"), fx("nslx_other.proto")],
        ["tag", fx("nslx.proto"), "--label", "t1"],
        ["analyze", fx("p1.proto"), "--combined", fx("p2.proto"), "--secret", "NA", "--oracle-verify"],
        ["analyze", fx("p2.proto")],
        ["analyze", fx("q1.proto"), "--combined", fx("q2.proto")],
    ]
    for i, argv in enumerate(commands):
        runs = []
        for j in range(2):
            out = tmp_path / f"c{i}r{j}.json"
            run_command([*argv, "--json", str(out)])
            doc = strip_elapsed(json.loads(out.read_text()))
            runs.append(json.dumps(doc, sort_keys=False, indent=2).encode())
        assert runs[0] == runs[1], f"non-reproducible report for {' '.join(argv)}"
    capsys.readouterr()
    print(f"criterion 9: PASS ({len(commands)} commands, 2 runs each)")
