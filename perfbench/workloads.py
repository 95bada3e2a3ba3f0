"""Workload items and their known answers.

Every item is built from the workload seed alone, so the same seed gives the
same inputs.  ``corpus`` and ``attacks`` run fixed protocol analyses through
``cli.run_command``; the seed only fixes their order.  ``unify_gen`` passes
unification problems from seeded generators to ``unify_sua`` directly; the
workload seed fixes their order and the names in the corpus-shaped pairs.

The checkers return ``None`` for a correct outcome and a one-line reason
otherwise.  They run outside the timed region.
"""

from __future__ import annotations

import itertools
import os
import random
import sys
from dataclasses import dataclass

from xorsleuth.terms import (
    Const,
    PEnc,
    Pk,
    SEnc,
    Seq,
    Sh,
    Sort,
    Term,
    Theory,
    Var,
    Xor,
    equal_mod,
    normalize,
    to_text,
    vars_of,
)

TESTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests")

WORKLOADS = ("corpus", "attacks", "unify_gen")

CORPUS = ("q1", "q2", "q3", "q4", "q5")

# Attack items: (protocols, sessions, --secret names).  Each is analysed with
# --oracle-verify and its written trace is then re-checked by oracle-verify.
ATTACKS = (
    (("p1", "p2"), 1, ("NA",)),
    (("nslx",), 1, ()),
    (("nslx_nslx",), 1, ()),
    (("nslx", "p2"), 1, ()),
    (("q1", "leak_ab"), 1, ()),
    (("q3", "leak_ac"), 1, ()),
    (("q5", "leak_bc"), 1, ()),
    (("q1", "q3", "leak_ab"), 1, ()),
    (("q1", "q5", "leak_bc"), 1, ()),
    (("q5", "leak_bc"), 2, ()),
    (("q3", "leak_ac"), 2, ()),
)

# Secure controls: a leaked key the protocol does not use.
CONTROLS = (("q2", "leak_ab"), ("q4", "leak_ac"))

LEAKS = ("leak_ab", "leak_ac", "leak_bc")


def leak_protocol(name: str) -> str:
    """The one-role protocol ``leak_xy`` that sends the long-term key sh(x, y)."""
    x, y = name[-2], name[-1]
    return f"protocol {name}\nrole A:\n  send sh({x}, {y})\n"


# -- items -------------------------------------------------------------------------


@dataclass(frozen=True)
class CliItem:
    """One ``run_command`` call.  Protocol arguments are bare names; a
    ``leak_*`` name refers to a generated file, any other to a fixture.
    ``trace_of`` names the analyze item whose written report is the input."""

    id: str
    command: str
    protocols: tuple[str, ...] = ()
    options: tuple[str, ...] = ()
    expect: str = ""
    trace_of: str = ""

    def describe(self) -> str:
        return " ".join([self.id, self.command, *self.protocols, *self.options, self.trace_of, "->", self.expect])


@dataclass(frozen=True)
class UnifyItem:
    """One ``unify_sua(lhs, rhs)`` call.  ``expect`` is ``unifiable`` (at least
    one unifier), ``none`` (no unifier) or ``any`` (only soundness and
    completeness are known)."""

    id: str
    lhs: Term
    rhs: Term
    expect: str

    def describe(self) -> str:
        return f"{self.id} {to_text(self.lhs)} =? {to_text(self.rhs)} -> {self.expect}"


def build(workload: str, seed: int) -> list:
    """The workload's items in the order the run executes them."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "corpus":
        units = _corpus_units()
    elif workload == "attacks":
        units = _attack_units()
    elif workload == "unify_gen":
        units = [[item] for item in _unify_items(rng)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(units)
    return [item for unit in units for item in unit]


def _corpus_units() -> list[list[CliItem]]:
    units = [[CliItem(q, "analyze", (q,), expect="secure")] for q in CORPUS]
    for a, b in itertools.combinations(CORPUS, 2):
        units.append([CliItem(f"{a}+{b}", "analyze", (a, b), expect="secure")])
    for q in CORPUS:
        units.append([CliItem(f"assume:{q}", "check-assumptions", (q,), expect="passed")])
    for a, b in itertools.combinations(CORPUS, 2):
        units.append([CliItem(f"munut:{a}/{b}", "check-munut", (a, b), expect="satisfied")])
    return units


def _attack_units() -> list[list[CliItem]]:
    units = []
    for protocols, sessions, secrets in ATTACKS:
        name = "+".join(protocols) + (f"@{sessions}" if sessions > 1 else "")
        options = ("--sessions", str(sessions), *(a for s in secrets for a in ("--secret", s)), "--oracle-verify")
        analyze = CliItem(name, "analyze", protocols, options, expect="attack")
        verify = CliItem(f"verify:{name}", "oracle-verify", expect="confirmed", trace_of=name)
        units.append([analyze, verify])
    for protocols in CONTROLS:
        units.append([CliItem("+".join(protocols), "analyze", protocols, ("--sessions", "1"), expect="secure")])
    return units


# -- unify_gen generators ----------------------------------------------------------
#
# The criterion-2 and criterion-3 generators are the loops of the acceptance
# tests in tests/test_acceptance.py, built on that file's term helpers; with
# the tests' seeds they give the tests' problem sets.

CRITERION2_PROBLEMS = 500
CRITERION3_DRAWS = 400
CRITERION2_SEED = 20260815
CRITERION3_SEED = 715


def _acceptance_helpers():
    """The generator helpers of tests/test_acceptance.py.  Imported on first
    use, so that the corpus and attacks passes do not load pytest and the
    test modules into the process whose memory they measure."""
    if TESTS not in sys.path:
        sys.path.insert(0, TESTS)
    import test_acceptance

    return test_acceptance


def criterion2_problems(rng: random.Random, count: int) -> list[tuple[Term, Term]]:
    """Unifiable problems whose XOR sits at an equation side (criterion 2)."""
    h = _acceptance_helpers()
    out = []
    while len(out) < count:
        counter = [0]
        if rng.random() < 0.5:
            children = h._distinct_std_children(rng, rng.randint(2, 3), rng.randint(1, 2))
            rhs = Xor(tuple(children))
            idx = rng.randrange(len(children))
            lifted = h._lift_interior(children[idx], rng, counter, rate=0.4)
            lhs = Xor(tuple(lifted if i == idx else c for i, c in enumerate(children)))
        else:
            s0 = normalize(SEnc(Seq((h._ground_atom(rng), h._ground_atom(rng))), Const("k1", Sort.KEY)))
            p = normalize(Seq((Const("2", Sort.DATA), h._std_ground(rng, rng.randint(0, 1)))))
            p_lifted = p
            for _ in range(8):
                p_lifted = h._lift_interior(p, rng, counter, rate=0.5)
                if normalize(p_lifted) != p:
                    break
            if normalize(p_lifted) == p:
                continue
            lhs = h._lift_interior(s0, rng, counter, rate=0.3)
            rhs = Xor((s0, p, p_lifted))
        lhs, rhs = normalize(lhs), normalize(rhs)
        if isinstance(rhs, Xor):
            out.append((lhs, rhs))
    return out


def criterion3_problems(rng: random.Random, draws: int) -> list[tuple[Term, Term]]:
    """Small mixed problems over a 3-atom pool, kept when they have at most
    three variables (criterion 3)."""
    pool = (Const("a", Sort.AGENT), Const("d1", Sort.DATA), Const("d2", Sort.DATA))
    variables = (Var("X", Sort.DATA), Var("Y", Sort.DATA), Var("Z", Sort.DATA))

    def small_term(depth: int) -> Term:
        if depth == 0 or rng.random() < 0.4:
            return rng.choice(pool + variables)
        kind = rng.choice(["seq", "senc", "xor"])
        if kind == "seq":
            return Seq((small_term(depth - 1), small_term(depth - 1)))
        if kind == "senc":
            return SEnc(small_term(depth - 1), small_term(depth - 1))
        return Xor((small_term(depth - 1), small_term(depth - 1)))

    out = []
    for _ in range(draws):
        lhs = normalize(small_term(2))
        rhs = normalize(small_term(2))
        if len(vars_of(lhs) | vars_of(rhs)) <= 3:
            out.append((lhs, rhs))
    return out


# Shapes of the corpus-shaped pairs: (encryption, number of middle items).
# Each shape gives one same-tag pair and one tag-clash pair.
TAGGED_SHAPES = (("senc", 0), ("senc", 1), ("senc", 2), ("penc", 0), ("penc", 1), ("penc", 2))


def tagged_pairs(rng: random.Random) -> list[tuple[str, Term, Term, str]]:
    """Pattern ``enc(seq(tag, mid…, xor(seq(tag,X), seq(tag,Y))), key)`` against
    a ground side.  Same-tag: the ground side is an instance of the pattern,
    so a unifier exists.  Tag-clash: the ground side differs only in its tag,
    so none does.  The seed picks names, not shapes."""
    out = []
    for enc, mid in TAGGED_SHAPES:
        tags = rng.sample(range(1, 10), 2)
        own, other = (Const(f"t{n}", Sort.TAG) for n in tags)
        agents = rng.sample(("a", "b", "c", "s"), 2)
        nonces = [Const(f"n{n}", Sort.NONCE) for n in rng.sample(range(1, 20), mid + 2)]
        x, y = Var("X", Sort.NONCE), Var("Y", Sort.NONCE)
        mids_pattern = [x] + [Var(f"M{i}", Sort.NONCE) for i in range(1, mid)]
        binding = {x: nonces[0], y: nonces[1]}
        binding.update({v: nonces[i + 1] for i, v in enumerate(mids_pattern[1:], start=1)})
        if enc == "senc":
            key: Term = Sh(Const(agents[0], Sort.AGENT), Const(agents[1], Sort.AGENT))
        else:
            key = Pk(Const(agents[0], Sort.AGENT))

        def shaped(tag: Const, xv: Term, yv: Term, mids: list[Term]) -> Term:
            plain = Seq((tag, *mids, Xor((Seq((tag, xv)), Seq((tag, yv))))))
            return normalize(SEnc(plain, key) if enc == "senc" else PEnc(plain, key))

        pattern = shaped(own, x, y, mids_pattern[:mid])
        ground_mids = [binding[v] for v in mids_pattern[:mid]]
        for kind, tag, expect in (("same", own, "unifiable"), ("clash", other, "none")):
            ground = shaped(tag, binding[x], binding[y], ground_mids)
            out.append((f"tag-{kind}-{enc}{mid}", pattern, ground, expect))
    return out


def _unify_items(rng: random.Random) -> list[UnifyItem]:
    # The criterion-2/3 sets are drawn with the acceptance tests' generator
    # seeds, not the workload seed: the criterion-3 set's cost is heavy-tailed
    # (a few problems take 0.4-3 s), so a set drawn per workload seed varied
    # the pass by seconds and hid the program's own run-to-run spread.
    items = [
        UnifyItem(f"c2-{i:03d}", lhs, rhs, "unifiable")
        for i, (lhs, rhs) in enumerate(criterion2_problems(random.Random(CRITERION2_SEED), CRITERION2_PROBLEMS))
    ]
    items += [
        UnifyItem(f"c3-{i:03d}", lhs, rhs, "any")
        for i, (lhs, rhs) in enumerate(criterion3_problems(random.Random(CRITERION3_SEED), CRITERION3_DRAWS))
    ]
    items += [UnifyItem(name, lhs, rhs, expect) for name, lhs, rhs, expect in tagged_pairs(rng)]
    return items


# -- known answers -----------------------------------------------------------------


def check_cli(item: CliItem, code: int | None, report: dict | None) -> str | None:
    """Compare one command's exit code and JSON report with its known answer."""
    if code is None:
        return "raised an exception"
    if report is None:
        return f"exit {code}, no JSON report written"
    results = report.get("results")
    if item.expect == "secure":
        verdict = results.get("verdict")
        if code != 0 or verdict != "secure":
            return f"exit {code}, verdict {verdict}; want exit 0, secure"
    elif item.expect == "attack":
        verdict = results.get("verdict")
        if code != 1 or verdict != "attack":
            return f"exit {code}, verdict {verdict}; want exit 1, attack"
        if results.get("oracle_verified") is not True:
            return "attack not confirmed by the oracle"
    elif item.expect == "confirmed":
        if code != 0 or results.get("confirmed") is not True:
            return f"exit {code}; want exit 0, trace confirmed"
    elif item.expect == "passed":
        statuses = [r.get("status") for r in results]
        if code != 0 or statuses != ["passed"]:
            return f"exit {code}, status {statuses}; want exit 0, passed"
    elif item.expect == "satisfied":
        if code != 0 or results.get("status") != "satisfied":
            return f"exit {code}, status {results.get('status')}; want exit 0, satisfied"
    else:
        return f"no known answer {item.expect!r}"
    return None


def check_unify(item: UnifyItem, unifiers, complete: bool | None) -> str | None:
    """Completeness, soundness of every unifier, and the known answer."""
    if complete is None:
        return "raised an exception"
    if not complete:
        return "search incomplete"
    for u in unifiers:
        if not equal_mod(Theory.SUA, u.apply(item.lhs), u.apply(item.rhs)):
            pairs = ", ".join(f"{to_text(v)} := {to_text(t)}" for v, t in u.items())
            return f"unsound unifier {{{pairs}}}"
    if item.expect == "unifiable" and not unifiers:
        return "no unifier; want at least one"
    if item.expect == "none" and unifiers:
        return f"{len(unifiers)} unifier(s); want none"
    return None

