"""Constraint generation, reduction rules, and the satisfiability search."""

import copy
import functools
import gc
import itertools
import json
import pickle
from pathlib import Path
from typing import NamedTuple
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from xorsleuth import solver
from xorsleuth.dsl import ProtocolSyntaxError, parse_protocol, parse_protocol_file
from xorsleuth.oracle import verify_solution
from xorsleuth.protocol import ATTACKER, FreshSession, build_iik, check_assumptions, make_semibundle, safe_keys
from xorsleuth.solver import (
    AnalysisConfig,
    Constraint,
    ConstraintSequence,
    ConfigError,
    RuleName,
    SolveStatus,
    SolverBudget,
    TARGET_SITE,
    applicable_rules,
    check_secrecy,
    constraint_sequences,
    normalize_seq,
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
    Var,
    Xor,
    ZERO,
    children,
    is_atom,
    normalize,
    subterms,
    term_key,
    to_text,
    vars_of,
    vars_of_all,
)
from xorsleuth.unify import shape_clash, unify_sua


FIXTURES = Path(__file__).resolve().parent.parent / "src" / "xorsleuth" / "fixtures"


def atoms_of(t):
    return frozenset(s for s in subterms(t) if is_atom(s))

a = Const("a", Sort.AGENT)
b = Const("b", Sort.AGENT)
c = Const("c", Sort.AGENT)
na = Const("na", Sort.NONCE)
nb = Const("nb", Sort.NONCE)
k = Const("k", Sort.KEY)
one = Const("1", Sort.DATA)
X = Var("X", Sort.DATA)
Y = Var("Y", Sort.DATA)
N = Var("N", Sort.NONCE)
A = Var("A", Sort.AGENT)

IIK = (ATTACKER, ZERO, normalize(Pk(ATTACKER)))

P1_SRC = """
protocol p1
role A:
  send sh(a, s)
"""

P2_SRC = """
protocol p2
vars NA : Nonce
fresh NA
secret NA
role A:
  send senc(seq(1, NA), sh(a, s))
"""

NSLX_SRC = """
protocol nslx
vars A : Agent B : Agent NA : Nonce NB : Nonce
fresh NA NB
secret NA NB
role A:
  send penc(seq(A, NA), pk(B))
  recv penc(seq(xor(NA, B), NB), pk(A))
  send penc(NB, pk(B))
role B:
  recv penc(seq(A, NA), pk(B))
  send penc(seq(xor(NA, B), NB), pk(A))
  recv penc(NB, pk(B))
"""


def cseq(*constraints):
    return ConstraintSequence(tuple(Constraint(m, T) for m, T in constraints))


def apply_rule(rule, site, cs):
    """All branch results of one rule application (an empty list is a dead
    end): the solver's `_apply` at the active constraint, without the
    unifiers and the completeness flag."""
    active = solver._split_at_active(cs)
    assert active is not None, "no active constraint"
    return [b for b, _ in solver._apply(rule, site, cs, active)[0]]


@st.composite
def rule_terms(draw, depth=2):
    """Terms with every head a rule looks at, including keys of the attacker."""
    base = st.sampled_from([a, na, X, A, ATTACKER, ZERO])
    if depth == 0:
        return draw(base)
    sub = rule_terms(depth=depth - 1)
    agent = st.sampled_from([a, A, ATTACKER])
    return normalize(
        draw(
            st.one_of(
                base,
                st.tuples(sub, sub).map(Seq),
                st.tuples(sub, sub).map(lambda p: SEnc(*p)),
                st.tuples(sub, agent).map(lambda p: PEnc(p[0], Pk(p[1]))),
                st.tuples(sub, sub).map(Xor),
            )
        )
    )


@st.composite
def any_constraints(draw):
    """A constraint built from members in any order, repeats allowed."""
    target = draw(rule_terms(depth=1))
    members = draw(st.lists(rule_terms(depth=1), max_size=4))
    return Constraint(target, members)


def reference_normalize_seq(cs):
    """The fixed-point loop that `normalize_seq`'s two steps stand for:
    split while the active target is a sequence, and clean the active term
    set until cleaning changes nothing."""
    constraints = list(cs.constraints)
    changed = False
    while True:
        ai = next((i for i, c in enumerate(constraints) if not isinstance(c.target, Var)), None)
        if ai is None:
            break
        c = constraints[ai]
        if isinstance(c.target, Seq):
            constraints[ai : ai + 1] = [Constraint(item, c.term_set) for item in c.target.items]
            changed = True
            continue
        flat = []
        stack = list(reversed(c.term_set))
        while stack:
            t = stack.pop()
            if isinstance(t, Seq):
                stack.extend(reversed(t.items))
            else:
                flat.append(t)
        earlier = {e.target for e in constraints[:ai]}
        kept = {normalize(t) for t in flat if not (isinstance(t, Var) and t in earlier)}
        cleaned = tuple(sorted(kept, key=term_key))
        if cleaned != c.term_set:
            constraints[ai] = Constraint(c.target, cleaned)
            changed = True
            continue
        break
    return ConstraintSequence(tuple(constraints), cs.subst, cs.origin, cs.pending) if changed else cs


class TestNormalizeSeq:
    def test_sequence_target_splits(self):
        out = normalize_seq(cseq((Seq((a, b)), (na,))))
        assert [to_text(cn.target) for cn in out.constraints] == [to_text(a), to_text(b)]
        assert all(cn.term_set == out.constraints[0].term_set for cn in out.constraints)

    def test_nested_sequence_target(self):
        out = normalize_seq(cseq((Seq((a, Seq((b, na)))), (k,))))
        # the head splits; the nested pair waits until it becomes active
        assert to_text(out.constraints[0].target) == to_text(a)

    def test_sequence_member_flattens(self):
        out = normalize_seq(cseq((na, (Seq((a, Seq((b, nb)))), k))))
        ts = out.constraints[0].term_set
        assert set(ts) == {a, b, nb, k}

    def test_variable_members_dropped(self):
        # X and Y were derived by the attacker earlier
        out = normalize_seq(cseq((X, IIK), (Y, IIK), (na, (X, a, Y))))
        assert out.constraints[2].term_set == (a,)

    def test_variable_member_kept_unless_an_earlier_target(self):
        out = normalize_seq(cseq((X, IIK), (na, (X, a, Y))))
        assert set(out.constraints[1].term_set) == {a, Y}

    def test_unreceived_variable_can_be_bound(self):
        # only `un` at the stand-alone X, once `ksub` and `pdec` free it,
        # binds X ↦ a; X occurs in no earlier target, so it must stay
        cs = cseq((a, (PEnc(X, Pk(A)),)))
        res = satisfiable(cs)
        assert res.status is SolveStatus.SATISFIABLE
        sigma = res.solution()[0]
        assert sigma.apply(X) == a and sigma.apply(A) == ATTACKER
        assert verify_solution(cs, sigma)

    def test_already_normal_unchanged(self):
        cs = cseq((na, (a, b)))
        assert normalize_seq(cs) == cs

    def test_idempotent(self):
        cs = cseq((Seq((a, b)), (Seq((na, nb)), X)))
        once = normalize_seq(cs)
        assert normalize_seq(once) == once

    def test_only_active_constraint_touched(self):
        # a later constraint keeps its sequence member until it becomes active
        cs = cseq((na, (Seq((a, b)),)), (nb, (Seq((a, b)),)))
        out = normalize_seq(cs)
        assert set(out.constraints[0].term_set) == {a, b}
        assert out.constraints[1].term_set == (normalize(Seq((a, b))),)

    def test_simple_sequence_untouched(self):
        cs = cseq((X, (Seq((a, b)),)))
        assert normalize_seq(cs) == cs

    def test_unsorted_term_set_built_directly_is_sorted(self):
        # the constructor sorts and drops the repeat, so nothing is left to clean
        unsorted = Constraint(na, (k, a, k))
        assert unsorted.term_set == (a, k)
        cs = ConstraintSequence((unsorted,))
        assert normalize_seq(cs) is cs

    @given(
        st.lists(st.sampled_from([X, A, N]), unique=True, max_size=2),
        st.lists(any_constraints(), min_size=1, max_size=3),
    )
    @example([], [Constraint(na, (k, a))])
    @example([X], [Constraint(na, (X, a)), Constraint(Seq((a, X)), (k, Seq((na, X))))])
    @settings(max_examples=200, deadline=None)
    def test_matches_the_loop_without_the_shortcut(self, earlier, rest):
        cs = ConstraintSequence(tuple(Constraint(v, IIK) for v in earlier) + tuple(rest))
        out, reference = normalize_seq(cs), reference_normalize_seq(cs)
        assert out.constraints == reference.constraints
        assert (out is cs) == (reference is cs)


def naming_reference(c):
    """The variables of ``c``, target first, then the members, each term's
    in `term_key` order, each once."""
    out = []
    for t in (c.target, *c.term_set):
        out += [v for v in sorted(vars_of(t), key=term_key) if v not in out]
    return tuple(out)


class TestConstraintFields:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_hash_and_equality_agree_with_the_parts(self, data):
        c1 = data.draw(any_constraints())
        # the same parts in a new object, or other parts
        c2 = data.draw(st.one_of(st.just(Constraint(c1.target, c1.term_set)), any_constraints()))
        same = c1.target == c2.target and c1.term_set == c2.term_set
        assert (c1 == c2) is same and (c2 == c1) is same
        if same:
            assert hash(c1) == hash(c2)

    @given(any_constraints())
    @settings(max_examples=200, deadline=None)
    def test_kept_fields_are_those_of_the_parts(self, c):
        assert c.variables == vars_of_all((c.target, *c.term_set))
        assert c.set_variables == vars_of_all(c.term_set)
        assert c.naming_order() == naming_reference(c)

    @given(rule_terms(depth=1), st.lists(st.tuples(rule_terms(depth=1), st.booleans()), max_size=4), st.randoms())
    @settings(max_examples=200, deadline=None)
    def test_constructor_gives_the_canonical_form(self, target, drawn, rnd):
        # ``xor(t, 0)`` is a raw term whose canonical form is ``t``
        members = [Xor((t, ZERO)) if raw else t for t, raw in drawn]
        c = Constraint(Xor((target, ZERO)), members)
        assert c.target == target
        assert c.term_set == tuple(sorted({t for t, _ in drawn}, key=term_key))
        rnd.shuffle(members)
        assert Constraint(target, members + members[:1]) == c

    @given(any_constraints())
    @settings(max_examples=100, deadline=None)
    def test_copies_keep_the_kept_fields(self, c):
        for dup in (copy.copy(c), copy.deepcopy(c), pickle.loads(pickle.dumps(c))):
            assert dup == c and hash(dup) == hash(c)
            assert dup.variables == c.variables and dup.set_variables == c.set_variables
            assert dup.naming_order() == c.naming_order()

    def test_not_equal_to_another_type(self):
        c = Constraint(na, (a,))
        assert c != (na, (a,)) and c != na


@st.composite
def raw_terms(draw, depth=2):
    """Terms as the constructors build them, canonical or not: XORs of any
    order, nested, with repeats and zero, and sh arguments in either order."""
    base = st.sampled_from([a, b, na, X, A, ZERO])
    if depth == 0:
        return draw(base)
    sub = raw_terms(depth=depth - 1)
    agent = st.sampled_from([a, b, A])
    return draw(
        st.one_of(
            base,
            st.lists(sub, min_size=1, max_size=3).map(lambda items: Xor(tuple(items))),
            st.tuples(agent, agent).map(lambda p: Sh(*p)),
            st.tuples(sub, sub).map(lambda p: SEnc(*p)),
            st.tuples(sub, sub).map(Seq),
        )
    )


def canonical_set(terms):
    """The term set a constraint over ``terms`` holds, by definition."""
    return tuple(sorted({normalize(t) for t in terms}, key=term_key))


class TestCanonicalTermSets:
    """The constructor keeps a term set that is canonical already, and the
    rules that add members insert them into the sorted rest; both must give
    what canonicalizing the whole set gives."""

    @given(st.lists(raw_terms(), max_size=6), st.sampled_from([list, tuple, canonical_set]))
    @example([a, a], tuple)
    @example([Sh(b, a), a], tuple)
    @example([Xor((na, a)), a], tuple)
    @settings(max_examples=300, deadline=None)
    def test_constructor_gives_the_canonical_set(self, terms, given_as):
        expected = canonical_set(terms)
        members = given_as(terms)
        assert Constraint(a, members).term_set == expected
        if given_as is canonical_set:
            # already canonical: kept as it is
            assert Constraint(a, members).term_set is members

    @given(st.lists(raw_terms(), max_size=5), st.lists(raw_terms(), min_size=1, max_size=2), st.data())
    @settings(max_examples=300, deadline=None)
    def test_insertion_is_the_canonical_set(self, rest, new, data):
        rest = canonical_set(rest)
        if rest and data.draw(st.booleans()):
            # a new member that the rest holds already
            new = [*new, data.draw(st.sampled_from(rest))]
        out = solver._with(rest, *new)
        assert out == canonical_set(rest + tuple(new))
        assert Constraint(a, out).term_set is out

    @given(any_constraints())
    @settings(max_examples=200, deadline=None)
    def test_rules_give_the_constraints_built_from_lists(self, c):
        T = list(c.term_set)
        for site, t in enumerate(T):
            rest = T[:site] + T[site + 1 :]
            if isinstance(t, SEnc):
                expected = [(Constraint(t.key, rest), Constraint(c.target, rest + [t.plain, t.key]))]
                assert solver._sdec(c, site) == expected
            if isinstance(t, PEnc):
                assert solver._pdec(c, site) == [(Constraint(c.target, rest + [t.plain]),)]
            if isinstance(t, Xor):
                expected = []
                for j, child in enumerate(t.items):
                    others = t.items[:j] + t.items[j + 1 :]
                    remainder = Xor(others) if len(others) > 1 else others[0]
                    expected.append((Constraint(remainder, rest), Constraint(c.target, rest + [child])))
                assert solver._xor_r(c, site) == expected


class TestApplicableRules:
    def test_senc_target_listed(self):
        cs = cseq((SEnc(na, k), (a,)))
        rules = applicable_rules(cs)
        assert (RuleName.SENC, TARGET_SITE) in rules

    def test_pdec_member_listed(self):
        member = normalize(PEnc(na, Pk(ATTACKER)))
        cs = cseq((nb, (member,)))
        rules = applicable_rules(cs)
        site = cs.constraints[0].term_set.index(member)
        assert (RuleName.PDEC, site) in rules

    def test_pdec_needs_attacker_key(self):
        cs = cseq((nb, (normalize(PEnc(na, Pk(a))),)))
        assert all(r is not RuleName.PDEC for r, _ in applicable_rules(cs))

    def test_un_always_listed_even_when_it_will_fail(self):
        cs = cseq((a, (b,)))
        rules = applicable_rules(cs)
        assert (RuleName.UN, 0) in rules
        assert apply_rule(RuleName.UN, 0, cs) == []

    def test_ksub_only_non_attacker_keys(self):
        mine = normalize(PEnc(na, Pk(ATTACKER)))
        theirs = normalize(PEnc(na, Pk(a)))
        cs = cseq((nb, (mine, theirs)))
        ksub_sites = [s for r, s in applicable_rules(cs) if r is RuleName.KSUB]
        assert ksub_sites == [cs.constraints[0].term_set.index(theirs)]

    def test_rule_enum_order(self):
        member_seq = normalize(Seq((a, na)))
        member_senc = normalize(SEnc(na, k))
        member_xor = normalize(Xor((na, nb)))
        cs = cseq((Seq((a, b)), (member_seq, member_senc, member_xor)))
        names = [r for r, _ in applicable_rules(cs)]
        assert names == sorted(names, key=lambda r: list(RuleName).index(r))

    def test_simple_sequence_has_no_rules(self):
        assert applicable_rules(cseq((X, (a,)))) == ()

    @given(st.lists(rule_terms(), max_size=5), rule_terms())
    @settings(max_examples=200, deadline=None)
    def test_sites_match_the_rule_definitions(self, term_set, target):
        # every rule's predicate, written out by hand, in rule then site order
        cs = ConstraintSequence((Constraint(A, ()), Constraint(target, term_set)))
        c = cs.constraints[1]
        if isinstance(c.target, Var):
            assert applicable_rules(cs) == ()
            return
        T = list(enumerate(c.term_set))
        eps_key = lambda t: isinstance(t, PEnc) and t.key == normalize(Pk(ATTACKER))
        expected = (
            [(RuleName.PENC, TARGET_SITE)] * isinstance(c.target, PEnc)
            + [(RuleName.PDEC, i) for i, t in T if eps_key(t)]
            + [(RuleName.SENC, TARGET_SITE)] * isinstance(c.target, SEnc)
            + [(RuleName.SDEC, i) for i, t in T if isinstance(t, SEnc)]
            + [(RuleName.XOR_R, i) for i, t in T if isinstance(t, Xor)]
            + [(RuleName.XOR_L, TARGET_SITE)] * isinstance(c.target, Xor)
            + [(RuleName.UN, i) for i, _ in T]
            + [(RuleName.KSUB, i) for i, t in T if isinstance(t, PEnc) and not eps_key(t)]
        )
        assert applicable_rules(cs) == tuple(expected)

    @given(st.lists(rule_terms(), max_size=6), rule_terms(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_one_pass_matches_the_scan_per_rule(self, term_set, target, earlier):
        # the earlier constraint has a variable target, so it is never active
        cs = ConstraintSequence((Constraint(A, ()),) * earlier + (Constraint(target, term_set),))
        assert applicable_rules(cs) == reference_applicable_rules(cs)


def reference_applicable_rules(cs):
    """The (rule, site) pairs found by scanning the active constraint once
    per rule, in rule order: the reference for `applicable_rules`."""
    ai = cs.active_index()
    if ai is None:
        return ()
    c = cs.constraints[ai]
    out = []
    for name, rule in solver._RULES.items():
        sites = ((TARGET_SITE, c.target),) if rule.at_target else enumerate(c.term_set)
        out.extend(
            (name, i) for i, t in sites if isinstance(t, rule.head) and (rule.guard is None or rule.guard(t))
        )
    return tuple(out)


class TestApplyRule:
    def test_penc_splits_key_then_plain(self):
        cs = cseq((PEnc(na, Pk(a)), (b,)))
        (out,) = apply_rule(RuleName.PENC, TARGET_SITE, cs)
        assert to_text(out.constraints[0].target) == to_text(normalize(Pk(a)))
        assert to_text(out.constraints[1].target) == to_text(na)

    def test_senc_splits_key_then_plain(self):
        cs = cseq((SEnc(na, k), (b,)))
        (out,) = apply_rule(RuleName.SENC, TARGET_SITE, cs)
        assert to_text(out.constraints[0].target) == to_text(k)
        assert to_text(out.constraints[1].target) == to_text(na)

    def test_pdec_replaces_member_with_plaintext(self):
        member = normalize(PEnc(Seq((a, na)), Pk(ATTACKER)))
        cs = cseq((nb, (member, k)))
        site = cs.constraints[0].term_set.index(member)
        (out,) = apply_rule(RuleName.PDEC, site, cs)
        assert member not in out.constraints[0].term_set
        assert normalize(Seq((a, na))) in out.constraints[0].term_set

    def test_sdec_adds_key_constraint_before(self):
        member = normalize(SEnc(na, k))
        cs = cseq((nb, (member, a)))
        site = cs.constraints[0].term_set.index(member)
        (out,) = apply_rule(RuleName.SDEC, site, cs)
        first, second = out.constraints
        assert to_text(first.target) == to_text(k)
        assert member not in first.term_set
        # the opened message and its key join the original target's set
        assert {na, k} <= set(second.term_set)
        assert member not in second.term_set

    def test_xor_r_branches_per_child_remainder_first(self):
        member = normalize(Xor((na, nb, k)))
        cs = cseq((a, (member, b)))
        site = cs.constraints[0].term_set.index(member)
        branches = apply_rule(RuleName.XOR_R, site, cs)
        assert len(branches) == 3
        for child, out in zip(member.items, branches):
            remainder = normalize(Xor(tuple(t for t in member.items if t != child)))
            assert to_text(out.constraints[0].target) == to_text(remainder)
            assert child in out.constraints[1].term_set
            assert member not in out.constraints[1].term_set

    def test_xor_l_branches_per_child(self):
        cs = cseq((Xor((na, nb)), (a,)))
        branches = apply_rule(RuleName.XOR_L, TARGET_SITE, cs)
        assert len(branches) == 2
        targets = {
            (to_text(out.constraints[0].target), to_text(out.constraints[1].target))
            for out in branches
        }
        assert (to_text(nb), to_text(na)) in targets
        assert (to_text(na), to_text(nb)) in targets

    def test_un_identical_ground_terms_empty_unifier(self):
        cs = cseq((na, (a, na)), (X, (a,)))
        site = cs.constraints[0].term_set.index(na)
        (out,) = apply_rule(RuleName.UN, site, cs)
        assert out.constraints == cseq((X, (a,))).constraints
        assert out.subst.items() == ()

    @pytest.mark.parametrize("name", ["#v0", "#v2"])
    def test_un_keeps_the_states_variables_apart_from_new_ones(self, name):
        # the second unifier binds X to xor(V, q0) for a variable V of its
        # own; the later constraint has a variable named like V (#v0 is the
        # unifier search's canonical name for it, #v2 an earlier one), which
        # must not become V
        d, q0, v = Const("d", Sort.DATA), Const("q0", Sort.DATA), Var(name, Sort.DATA)
        cs = cseq((Xor((SEnc(d, k), q0)), (Xor((SEnc(Xor((X, q0)), k), Y)),)), (Seq((v, X)), (q0, v)))
        branches = apply_rule(RuleName.UN, 0, cs)
        assert len(branches) == 5
        assert all(v not in vars_of(out.subst.apply(X)) for out in branches)
        (new,) = vars_of(branches[1].subst.apply(X)) - {X}
        assert branches[1].constraints[-1].target == normalize(Seq((v, Xor((new, q0)))))
        # the trace records the unifier as renamed
        taus = [tau for _, tau in solver._apply(RuleName.UN, 0, cs, solver._split_at_active(cs))[0]]
        assert taus == [out.subst for out in branches]

    def test_un_structural_unifier_propagates(self):
        B = Var("B", Sort.AGENT)
        NB = Var("NB", Sort.NONCE)
        target = PEnc(Seq((one, na)), Pk(B))
        member = normalize(PEnc(Seq((one, NB)), Pk(a)))
        cs = ConstraintSequence(
            (
                Constraint(target, (member,)),
                Constraint(NB, (B,)),
            )
        )
        branches = apply_rule(RuleName.UN, 0, cs)
        assert len(branches) == 1
        out = branches[0]
        sigma = out.subst
        assert sigma.apply(B) == a and sigma.apply(NB) == na
        # the suffix constraint was instantiated
        assert to_text(out.constraints[0].target) == to_text(na)
        assert out.constraints[0].term_set == (a,)

    def test_un_failure_is_empty_list(self):
        assert apply_rule(RuleName.UN, 0, cseq((a, (b,)))) == []

    def test_ksub_binds_key_and_keeps_constraint(self):
        B = Var("B", Sort.AGENT)
        member = normalize(PEnc(na, Pk(B)))
        cs = cseq((na, (member,)))
        site = cs.constraints[0].term_set.index(member)
        branches = apply_rule(RuleName.KSUB, site, cs)
        assert len(branches) == 1
        out = branches[0]
        assert out.subst.apply(B) == ATTACKER
        assert normalize(PEnc(na, Pk(ATTACKER))) in out.constraints[0].term_set
        assert len(out.constraints) == len(cs.constraints)

    def test_ksub_ground_foreign_key_fails(self):
        member = normalize(PEnc(na, Pk(a)))
        cs = cseq((na, (member,)))
        site = cs.constraints[0].term_set.index(member)
        assert apply_rule(RuleName.KSUB, site, cs) == []


class TestSatisfiable:
    def test_xor_target_from_parts(self):
        cs = cseq((Xor((a, b)), IIK + (a, b)))
        res = satisfiable(cs)
        assert res.status is SolveStatus.SATISFIABLE
        rules = [s.rule for s in res.solution()[1]]
        assert rules == ["xor_l", "un", "un"]

    def test_secret_with_only_public_key_unsat(self):
        cs = cseq((na, (normalize(Pk(a)),)))
        res = satisfiable(cs)
        assert res.status is SolveStatus.UNSATISFIABLE

    def test_simple_sequence_immediately_sat(self):
        res = satisfiable(cseq((X, (a,))))
        assert res.status is SolveStatus.SATISFIABLE
        assert res.solution()[1] == ()

    def test_empty_sequence_sat(self):
        res = satisfiable(ConstraintSequence(()))
        assert res.status is SolveStatus.SATISFIABLE

    def test_sdec_chain(self):
        # key arrives in the clear, ciphertext opened, nonce extracted
        key = normalize(Sh(a, b))
        ct = normalize(SEnc(Seq((one, na)), key))
        cs = cseq((na, IIK + (key, ct)))
        res = satisfiable(cs)
        assert res.status is SolveStatus.SATISFIABLE
        assert [s.rule for s in res.solution()[1]] == ["sdec", "un", "un"]

    def test_budget_exhaustion_reported(self):
        key = normalize(Sh(a, b))
        ct = normalize(SEnc(Seq((one, na)), key))
        cs = cseq((na, IIK + (key, ct)))
        res = satisfiable(cs, SolverBudget(max_depth=1))
        assert res.status is SolveStatus.BUDGET_EXHAUSTED

    def test_node_budget_exhaustion(self):
        cs = cseq((Xor((a, b)), IIK + (a, b)))
        res = satisfiable(cs, SolverBudget(max_nodes=1))
        assert res.status is SolveStatus.BUDGET_EXHAUSTED

    def test_determinism(self):
        cs = cseq((Xor((a, b, na)), IIK + (a, b, na)))
        r1 = satisfiable(cs)
        r2 = satisfiable(cs)
        assert r1.status == r2.status
        assert [s.to_json_dict() for s in r1.solution()[1]] == [
            s.to_json_dict() for s in r2.solution()[1]
        ]

    def test_variable_target_choice_left_open(self):
        # the attacker picks N freely: solution has no binding for it
        cs = cseq((N, IIK))
        res = satisfiable(cs)
        assert res.status is SolveStatus.SATISFIABLE
        assert res.solution()[0].items() == ()

    def test_rule_monotonicity_along_found_trace(self):
        # every atom mentioned after a structural step already occurred before
        key = normalize(Sh(a, b))
        ct = normalize(SEnc(Seq((one, na)), key))
        cs = normalize_seq(cseq((na, IIK + (key, ct))))
        before = set().union(*[atoms_of(cn.target) | {x for t in cn.term_set for x in atoms_of(t)} for cn in cs.constraints])
        for rule, site in applicable_rules(cs):
            for out in apply_rule(rule, site, cs):
                after = set().union(
                    *[atoms_of(cn.target) | {x for t in cn.term_set for x in atoms_of(t)} for cn in out.constraints]
                ) if out.constraints else set()
                assert after <= before


class TestConstraintSequences:
    def setup_method(self):
        self.session = FreshSession()

    def test_send_only_bundle_single_artificial_constraint(self):
        p2 = parse_protocol(P2_SRC)
        sb = make_semibundle(p2, 1, session=FreshSession())
        iik = build_iik([sb])
        (secret,) = sb.secret_constants
        seqs = list(constraint_sequences([sb], iik, secret))
        assert len(seqs) == 1
        (cs,) = seqs
        assert len(cs.constraints) == 1
        assert to_text(cs.constraints[0].target) == to_text(secret)
        sent = sb.strands[0].nodes[0].term
        assert sent in cs.constraints[0].term_set
        assert cs.origin == ("p2.A#1.1", "sec")

    def test_one_constraint_per_recv_node(self):
        # one constraint per placed receive that a send of its strand
        # follows: nslx's role B ends with a receive, which is never placed
        self.check_one_constraint_per_receive(placed=lambda nodes, i: "+" in (n.sign for n in nodes[i + 1 :]))

    def test_one_constraint_per_recv_node_placing_every_receive(self):
        with placing_every_receive():
            self.check_one_constraint_per_receive(placed=lambda nodes, i: True)

    def check_one_constraint_per_receive(self, placed):
        nslx = parse_protocol(NSLX_SRC)
        sb = make_semibundle(nslx, 1, session=FreshSession())
        iik = build_iik([sb])
        secret = sorted(sb.secret_constants, key=term_key)[0]
        strands = dict(zip(sb.strand_ids, (s.nodes for s in sb.strands)))
        receives = {(sid, i) for sid, nodes in strands.items() for i, n in enumerate(nodes) if n.sign == "-"}
        placeable = {(sid, i) for sid, i in receives if placed(strands[sid], i)}
        assert placeable
        lengths = set()
        for cs in constraint_sequences([sb], iik, secret):
            # a constraint per receive of the prefix, then the demand
            ids = [nid.rsplit(".", 1) for nid in cs.origin if nid != "sec"]
            received = [(sid, int(pos) - 1) for sid, pos in ids if (sid, int(pos) - 1) in receives]
            assert set(received) <= placeable
            assert [c.target for c in cs.constraints] == [strands[sid][i].term for sid, i in received] + [secret]
            lengths.add(len(cs.constraints))
        # the secret is demanded after every prefix, complete runs included
        assert lengths == set(range(1, len(placeable) + 2))

    def test_interleaving_count_bound(self):
        # two strands of two nodes each: at most C(4,2)=6 distinct orders
        src = """
protocol t
vars N : Nonce M : Nonce
fresh N M
secret N M
role A:
  send senc(N, sh(a, b))
  recv N
role B:
  send senc(M, sh(a, b))
  recv M
"""
        p = parse_protocol(src)
        sb = make_semibundle(p, 1, session=FreshSession())
        iik = build_iik([sb])
        secret = sorted(sb.secret_constants, key=term_key)[0]
        seqs = list(constraint_sequences([sb], iik, secret))
        assert 1 <= len(seqs) <= 6

    def test_term_sets_monotone(self):
        nslx = parse_protocol(NSLX_SRC)
        sb = make_semibundle(nslx, 1, session=FreshSession())
        iik = build_iik([sb])
        secret = sorted(sb.secret_constants, key=term_key)[0]
        for cs in constraint_sequences([sb], iik, secret):
            for c1, c2 in itertools.pairwise(cs.constraints):
                assert set(c1.term_set) <= set(c2.term_set)

    def test_strand_order_respected(self):
        nslx = parse_protocol(NSLX_SRC)
        sb = make_semibundle(nslx, 1, session=FreshSession())
        iik = build_iik([sb])
        secret = sorted(sb.secret_constants, key=term_key)[0]
        for cs in constraint_sequences([sb], iik, secret):
            per_strand: dict[str, list[int]] = {}
            for nid in cs.origin[:-1]:
                sid, pos = nid.rsplit(".", 1)
                per_strand.setdefault(sid, []).append(int(pos))
            for positions in per_strand.values():
                assert positions == sorted(positions)

    def test_final_term_set_holds_everything_sent(self):
        nslx = parse_protocol(NSLX_SRC)
        sb = make_semibundle(nslx, 1, session=FreshSession())
        iik = build_iik([sb])
        secret = sorted(sb.secret_constants, key=term_key)[0]
        every_send = {n.term for s in sb.strands for n in s.nodes if n.sign == "+"}
        complete = 0
        for cs in constraint_sequences([sb], iik, secret):
            sent = {n.term for n in placed_nodes(sb, cs.origin) if n.sign == "+"}
            assert sent <= set(cs.constraints[-1].term_set)
            complete += sent == every_send
        assert complete

    def test_duplicate_sequences_emitted_once(self):
        nslx = parse_protocol(NSLX_SRC)
        sb = make_semibundle(nslx, 1, session=FreshSession())
        iik = build_iik([sb])
        secret = sorted(sb.secret_constants, key=term_key)[0]
        seqs = [tuple(cs.constraints) for cs in constraint_sequences([sb], iik, secret)]
        assert len(seqs) == len(set(seqs))


def placing_every_receive():
    """The search, and `constraint_sequences`, with no receive cut from the
    strands (`solver._through_last_send`): the reference for the cut."""
    return mock.patch.object(solver, "_through_last_send", lambda nodes: nodes)


def placed_nodes(bundle, origin):
    """The nodes of ``bundle`` that the node ids of ``origin`` name, in order;
    the demand for the secret (``sec``) is left out."""
    nodes = dict(zip(bundle.strand_ids, (s.nodes for s in bundle.strands)))
    return [nodes[sid][int(pos) - 1] for sid, pos in (nid.rsplit(".", 1) for nid in origin if nid != "sec")]


def all_interleavings(bundles, iik, secret, prefixes=False):
    """The full interleaving enumeration: one constraint sequence per
    distinct order of all strands' nodes, sends included, ending with the
    demand for ``secret``; with ``prefixes``, one per distinct prefix of
    such an order, each node included, the demand placed after it.
    De-duplicated by state key.  The reference for `constraint_sequences`."""
    strands = []
    for bundle in bundles:
        strands.extend(zip(bundle.strand_ids, (s.nodes for s in bundle.strands)))
    base = tuple(sorted(iik, key=term_key))
    seen = set()
    tokens = {}
    positions = [0] * len(strands)
    total = sum(len(nodes) for _, nodes in strands)

    def walk(placed, know, acc, ids):
        if prefixes or placed == total:
            final = Constraint(secret, base + know)
            cs = ConstraintSequence(tuple(acc) + (final,), Substitution(), ids + ("sec",))
            key = solver._canonical_key(cs, tokens)
            if key not in seen:
                seen.add(key)
                yield cs
        if placed == total:
            return
        for si, (sid, nodes) in enumerate(strands):
            i = positions[si]
            if i >= len(nodes):
                continue
            node = nodes[i]
            positions[si] += 1
            nid = f"{sid}.{i + 1}"
            if node.sign == "+":
                yield from walk(placed + 1, know + (node.term,), acc, ids + (nid,))
            else:
                acc.append(Constraint(node.term, base + know))
                yield from walk(placed + 1, know, acc, ids + (nid,))
                acc.pop()
            positions[si] -= 1

    try:
        yield from walk(0, (), [], ())
    finally:
        del walk


class TestCheckSecrecy:
    def test_combined_key_leak_attack(self):
        p1 = parse_protocol(P1_SRC)
        p2 = parse_protocol(P2_SRC)
        res = check_secrecy([p1, p2], AnalysisConfig(sessions=1, secrets=("NA",)))
        assert res.verdict == "attack"
        rules = [s.rule for s in res.attack.rules]
        assert rules == ["sdec", "un", "un"]
        assert res.attack.substitution.items() == ()
        assert "p1.A#1.1" in res.attack.interleaving

    def test_isolated_protocol_secure(self):
        p2 = parse_protocol(P2_SRC)
        res = check_secrecy([p2], AnalysisConfig(sessions=1))
        assert res.verdict == "secure"
        assert res.bound == 1

    def test_toy_shared_key_protocol_secure(self):
        src = """
protocol toy
vars S : Nonce
fresh S
secret S
role A:
  send senc(S, sh(a, b))
"""
        res = check_secrecy([parse_protocol(src)], AnalysisConfig(sessions=1))
        assert res.verdict == "secure"

    def test_insider_partner_attack_found(self):
        # unconstrained responder identity lets the attacker be the partner
        nslx = parse_protocol(NSLX_SRC)
        res = check_secrecy([nslx], AnalysisConfig(sessions=1))
        assert res.verdict == "attack"
        assert any(s.rule == "ksub" for s in res.attack.rules)
        bound = {v.name: to_text(t) for v, t in res.attack.substitution.items()}
        assert to_text(ATTACKER) in bound.values()

    def test_zero_sessions_rejected(self):
        p2 = parse_protocol(P2_SRC)
        with pytest.raises(ConfigError):
            check_secrecy([p2], AnalysisConfig(sessions=0))

    def test_unknown_secret_rejected(self):
        p2 = parse_protocol(P2_SRC)
        with pytest.raises(ConfigError):
            check_secrecy([p2], AnalysisConfig(sessions=1, secrets=("NOPE",)))

    def test_no_secrets_rejected(self):
        p1 = parse_protocol(P1_SRC)
        with pytest.raises(ConfigError):
            check_secrecy([p1], AnalysisConfig(sessions=1))

    def test_attack_trace_json_shape(self):
        p1 = parse_protocol(P1_SRC)
        p2 = parse_protocol(P2_SRC)
        res = check_secrecy([p1, p2], AnalysisConfig(sessions=1, secrets=("NA",)))
        d = res.attack.to_json_dict()
        assert list(d) == [
            "protocols",
            "sessions",
            "secret",
            "interleaving",
            "rules",
            "substitution",
            "constraints",
            "elapsed_ms",
        ]
        assert d["protocols"] == ["p1", "p2"]
        assert d["sessions"] == 1

    @pytest.mark.parametrize(
        "names,verdict,counters",
        [
            # q1's role A ends with a receive, which is never placed: (3, 6)
            # while every receive was
            (("q1",), "secure", (2, 3)),
            (("q1", "q2"), "secure", (2, 5)),
            # nslx's attack comes before its role B's last receive
            (("nslx",), "attack", (1, 4)),
            (("q3", "q5"), "secure", (2, 5)),
            # one search over both secrets at every prefix; demanding each
            # secret in its own search after complete runs only took 94, and
            # placing the receives that no send follows took (13, 36)
            (("q1", "q3"), "secure", (5, 12)),
        ],
    )
    def test_search_counters_pinned(self, names, verdict, counters):
        # (sequences, nodes) move with any change to state keying, interleaving
        # de-duplication, rule order, the ground decisions (whose nested
        # states count), the safe keys or which receives are placed
        # (`solver._through_last_send`); a change that moves them says why.
        # `sequences` counts the prefixes at which the secrets' demands were
        # placed: a prefix whose receives cannot all be met counts none
        protocols = [parse_protocol_file(FIXTURES / f"{n}.proto") for n in names]
        res = check_secrecy(protocols, AnalysisConfig(sessions=1))
        assert res.verdict == verdict
        assert (res.stats["sequences"], res.stats["nodes"]) == counters

    def test_stats_have_the_same_keys_on_both_paths(self):
        p1 = parse_protocol(P1_SRC)
        p2 = parse_protocol(P2_SRC)
        secure = check_secrecy([p2], AnalysisConfig(sessions=1))
        attack = check_secrecy([p1, p2], AnalysisConfig(sessions=1, secrets=("NA",)))
        assert (secure.verdict, attack.verdict) == ("secure", "attack")
        assert set(secure.stats) == set(attack.stats) == {"sequences", "nodes", "elapsed_ms"}

    def test_analysis_and_oracle_leave_no_cyclic_garbage(self):
        # a reference cycle on every call (a recursive closure, a class built
        # per call) keeps its objects until the next full collection
        q1 = parse_protocol_file(FIXTURES / "q1.proto")
        p1p2 = [parse_protocol_file(FIXTURES / f"{n}.proto") for n in ("p1", "p2")]
        attack = check_secrecy(p1p2, AnalysisConfig(sessions=1, secrets=("NA",))).attack
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            assert check_secrecy([q1], AnalysisConfig(sessions=1)).verdict == "secure"
            assert gc.collect() == 0
            assert verify_solution(ConstraintSequence(attack.constraints), attack.substitution)
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    def test_parsing_leaves_no_cyclic_garbage(self):
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            for name in ("q3", "q5", "p1", "p2"):
                parse_protocol_file(FIXTURES / f"{name}.proto")
                assert gc.collect() == 0, name
        finally:
            if enabled:
                gc.enable()

    def test_deterministic_across_runs(self):
        p1 = parse_protocol(P1_SRC)
        p2 = parse_protocol(P2_SRC)
        d1 = check_secrecy([p1, p2], AnalysisConfig(sessions=1, secrets=("NA",))).attack.to_json_dict()
        d2 = check_secrecy([p1, p2], AnalysisConfig(sessions=1, secrets=("NA",))).attack.to_json_dict()
        d1.pop("elapsed_ms"), d2.pop("elapsed_ms")
        assert d1 == d2


CORPUS = ("q1", "q2", "q3", "q4", "q5")


# Protocols of the tests alone: ``echo`` leaks its secret only after its
# receive (under a key the attacker chose), ``blk``'s one receive is a
# message nobody sends, and ``seqkey`` encrypts under a sequence with a
# long-term key in it and under a variable, keys no ground decision covers.
# The others bear on the safe keys (`protocol.safe_keys`).  ``wrap`` sends
# sh(a, b) under sh(c, d): sh(a, b) travels, so it is not safe, but no run
# reveals it, and a nested search decides each demand for it dead.  The
# rest can each hand sh(a, b) to the attacker, so beside q1 no key is
# safe: ``shvar`` sends sh(A, b) for an agent A nobody fixes, and
# ``xorrecv`` and ``unrecv`` send a value received under an XOR or never
# received at all (``keyleak`` sends one received at a key position).
# ``late``'s last receive binds X, which its strand sent earlier, further:
# the attacker must also return X under a key it cannot use.  Cut from the
# strand (`solver._Plan`), the receive constrains nothing, and the attack
# (X := a constant the attacker knows, which decrypts N) is found on the
# prefix before it.
INLINE = {
    "echo": "protocol echo\nvars X:Data N:Nonce\nfresh N\nsecret N\nrole A:\n  recv X\n  send senc(N, X)\n",
    "blk": "protocol blk\nvars X:Data\nrole A:\n  recv senc(X, sh(c, d))\n",
    "seqkey": (
        "protocol seqkey\nvars N:Nonce M:Nonce X:Data\nfresh N M\nsecret N\n"
        "role A:\n  send senc(N, seq(M, sh(a, b)))\n  recv X\n  send senc(M, X)\n"
    ),
    "wrap": "protocol wrap\nrole A:\n  send senc(sh(a, b), sh(c, d))\n",
    "shvar": "protocol shvar\nvars A:Agent\nrole R:\n  send sh(A, b)\n",
    "xorrecv": "protocol xorrecv\nvars X:Data Y:Data\nrole A:\n  recv xor(X, Y)\n  send X\n",
    "unrecv": "protocol unrecv\nvars X:Data\nrole A:\n  send X\n",
    "late": (
        "protocol late\nvars X:Data N:Nonce\nfresh N\nsecret N\n"
        "role A:\n  recv X\n  send senc(N, X)\n  recv senc(X, sh(c, d))\n"
    ),
}


def load(name):
    """A fixture protocol, one of `INLINE`, or ``leak_xy``: one role sending
    the long-term key sh(x, y)."""
    if name in INLINE:
        return parse_protocol(INLINE[name])
    if name.startswith("leak_"):
        return parse_protocol(f"protocol {name}\nrole A:\n  send sh({name[-2]}, {name[-1]})\n")
    return parse_protocol_file(FIXTURES / f"{name}.proto")


class PerSequence(NamedTuple):
    verdict: str
    sequences: int
    nodes: int
    # (interleaving, rules, substitution) of the attack found
    attack: tuple | None


def per_sequence(names, sessions, secrets, sequences=constraint_sequences):
    """`check_secrecy` without prefix sharing: one `satisfiable` call per
    sequence of each secret, in secret order, up to the first attack.  The
    reference for the shared search."""
    session = FreshSession()
    bundles = [make_semibundle(load(n), sessions, session=session) for n in names]
    iik = build_iik(bundles)
    chosen = {c for b in bundles for v, c in b.secret_bindings if not secrets or v.name in secrets}
    searched = nodes = 0
    verdict = "secure"
    for secret in sorted(chosen, key=term_key):
        for cs in sequences(bundles, iik, secret):
            res = satisfiable(cs)
            searched += 1
            nodes += res.stats["nodes"]
            if res.status is SolveStatus.SATISFIABLE:
                sigma, steps = res.solution()
                keep = {v for c in cs.constraints for t in (c.target, *c.term_set) for v in vars_of(t)}
                return PerSequence("attack", searched, nodes, (cs.origin, steps, sigma.restrict(keep)))
            if res.status is SolveStatus.BUDGET_EXHAUSTED:
                verdict = "inconclusive"
    return PerSequence(verdict, searched, nodes, None)


def analysis_cases(*, full):
    # q1+q3 and q1+q3+leak_ab are left out of the full enumeration: about 6 s
    pairs = [p for p in itertools.combinations(CORPUS, 2) if not full or p != ("q1", "q3")]
    return (
        [((q,), 1, ()) for q in CORPUS]
        + [(pair, 1, ()) for pair in pairs]
        + [
            (("p1", "p2"), 1, ("NA",)),
            (("nslx",), 1, ()),
            (("nslx_nslx",), 1, ()),
            (("nslx", "p2"), 1, ()),
            (("q3", "leak_ac"), 2, ()),
            (("q5", "leak_bc"), 2, ()),
        ]
        + [(("q1", "q3", "leak_ab"), 1, ())] * (not full)
    )


def case_id(v):
    return "+".join(v) if isinstance(v, tuple) else str(v)


class TestEagerSends:
    """`constraint_sequences` against the full interleaving enumeration."""

    @pytest.mark.parametrize("names,sessions,secrets", analysis_cases(full=True), ids=case_id)
    def test_verdict_matches_full_enumeration(self, names, sessions, secrets):
        eager = check_secrecy([load(n) for n in names], AnalysisConfig(sessions=sessions, secrets=secrets))
        full = per_sequence(names, sessions, secrets, all_interleavings)
        assert eager.verdict == full.verdict
        assert eager.stats["sequences"] <= full.sequences

    @pytest.mark.parametrize(
        "names,sessions",
        [(("nslx",), 1), (("q1", "q2"), 1), (("q3", "q5"), 1), (("p1", "p2"), 1), (("q5", "leak_bc"), 2)],
        ids=lambda v: "+".join(v) if isinstance(v, tuple) else str(v),
    )
    def test_every_interleaving_is_covered_by_an_eager_sequence(self, names, sessions):
        # the soundness arguments of `constraint_sequences` and of the cut
        # (`solver._Plan`): every interleaving, with the receives that no
        # send of their strand follows dropped, has an eager sequence with
        # the same receive targets in the same order, each with a superset
        # of its term set
        self.check_covered(names, sessions, cut=True)

    @pytest.mark.parametrize(
        "names,sessions",
        [(("nslx",), 1), (("q1", "q2"), 1), (("q3", "q5"), 1), (("p1", "p2"), 1), (("q5", "leak_bc"), 2)],
        ids=lambda v: "+".join(v) if isinstance(v, tuple) else str(v),
    )
    def test_every_interleaving_is_covered_placing_every_receive(self, names, sessions):
        # without the cut, an eager sequence covers every interleaving whole
        with placing_every_receive():
            self.check_covered(names, sessions, cut=False)

    def check_covered(self, names, sessions, cut):
        session = FreshSession()
        bundles = [make_semibundle(load(n), sessions, session=session) for n in names]
        iik = build_iik(bundles)
        strands = {sid: s.nodes for b in bundles for sid, s in zip(b.strand_ids, b.strands)}

        def node_and_rest(nid):
            sid, pos = nid.rsplit(".", 1)
            return strands[sid][int(pos) - 1], strands[sid][int(pos) :]

        secrets = {c for b in bundles for c in b.secret_constants}
        for secret in sorted(secrets, key=term_key):
            eager = list(constraint_sequences(bundles, iik, secret))
            # with the cut, no eager sequence places a receive that no send follows
            placed = [node_and_rest(nid) for e in eager for nid in e.origin[:-1]]
            assert not cut or all("+" in (n.sign for n in rest) for node, rest in placed if node.sign == "-")
            for cs in all_interleavings(bundles, iik, secret):
                # a constraint per receive, then the demand (node id ``sec``)
                received = [node_and_rest(nid)[1] for nid in cs.origin[:-1] if node_and_rest(nid)[0].sign == "-"]
                assert len(received) + 1 == len(cs.constraints)
                kept = [not cut or "+" in (n.sign for n in rest) for rest in received] + [True]
                constraints = [c for keep, c in zip(kept, cs.constraints) if keep]
                assert any(
                    len(e.constraints) == len(constraints)
                    and all(
                        ec.target == c.target and set(c.term_set) <= set(ec.term_set)
                        for ec, c in zip(e.constraints, constraints)
                    )
                    for e in eager
                ), cs.origin


class TestSharedPrefixes:
    """The search over interleavings against one search per eager sequence."""

    @pytest.mark.parametrize("names,sessions,secrets", analysis_cases(full=False), ids=case_id)
    def test_matches_per_sequence_search(self, names, sessions, secrets):
        shared = check_secrecy([load(n) for n in names], AnalysisConfig(sessions=sessions, secrets=secrets))
        reference = per_sequence(names, sessions, secrets)
        assert shared.verdict == reference.verdict
        assert shared.stats["nodes"] <= reference.nodes
        if reference.attack is not None:
            interleaving, rules, substitution = reference.attack
            assert shared.attack.interleaving == interleaving
            assert shared.attack.rules == rules
            assert shared.attack.substitution == substitution

    def test_key_tells_positions_and_pending_bindings_apart(self):
        # two states with the same placed constraints: one whose strands
        # stand elsewhere, one that binds a variable of a node still to place
        bundles = [make_semibundle(parse_protocol(NSLX_SRC), 1, session=FreshSession())]
        secret = min(bundles[0].secret_constants, key=term_key)
        children = solver._place(solver._interleavings(bundles, build_iik(bundles), secret))
        state = children[-1]
        p = state.pending
        placed = {v for c in state.constraints for t in (c.target, *c.term_set) for v in vars_of(t)}
        (free, *_) = [v for v in p.plan.watched(p.positions) if v not in placed]
        positions = children[0].pending.positions
        moved = ConstraintSequence(state.constraints, state.subst, state.origin, p._replace(positions=positions))
        bound = ConstraintSequence(state.constraints, Substitution({free: ATTACKER}), state.origin, state.pending)
        assert moved.constraints == bound.constraints == state.constraints
        tokens = {}
        keys = {solver._canonical_key(cs, tokens) for cs in (state, moved, bound)}
        assert len(keys) == 3

    def test_discharge_waits_for_unplaced_sends(self):
        # the placed constraint is originated and its target is in its term
        # set, but the unplaced send has X, which no receive of its strand
        # holds: a completion may not be originated, so every rule expands
        bundles = [make_semibundle(parse_protocol(G_SRC), 1, session=FreshSession())]
        (x,) = {v for s in bundles[0].strands for n in s.nodes for v in vars_of(n.term)}
        plan = solver._Plan(bundles, build_iik(bundles), na)
        cs = ConstraintSequence(
            (Constraint(a, IIK + (a,)),), Substitution(), (), solver.Pending(plan, (0, 0), ())
        )
        assert solver._originated(cs)
        c = cs.constraints[0]
        assert solver._rule_sites(cs, c) == applicable_rules(cs) != ((RuleName.UN, c.term_set.index(a)),)
        # once X is bound to a value the attacker knows, the send is originated
        sigma = Substitution({x: a})
        bound = ConstraintSequence(cs.constraints, sigma, (), cs.pending)
        assert solver._rule_sites(bound, c) == ((RuleName.UN, c.term_set.index(a)),)


def small_terms(depth):
    """Message texts over a Data variable, a fresh nonce, two data constants
    and the keys of agents c and d."""
    atoms = st.sampled_from(["Y", "M", "m", "1"])
    if depth == 0:
        return atoms
    sub = small_terms(depth - 1)
    return st.one_of(
        atoms,
        st.tuples(sub, sub).map(lambda p: f"seq({p[0]}, {p[1]})"),
        st.tuples(sub, sub).map(lambda p: f"xor({p[0]}, {p[1]})"),
        sub.map(lambda t: f"senc({t}, sh(c, d))"),
        sub.map(lambda t: f"penc({t}, pk(c))"),
    )


@st.composite
def small_protocols(draw, secret=False):
    """A protocol ``gen`` of one or two roles of one to three nodes each;
    with ``secret``, its fresh nonce M is its secret."""
    roles = draw(
        st.lists(
            st.lists(st.tuples(st.sampled_from(["send", "recv"]), small_terms(2)), min_size=1, max_size=3),
            min_size=1,
            max_size=2,
        )
    )
    body = [line for i, nodes in enumerate(roles) for line in (f"role R{i}:", *(f"  {s} {t}" for s, t in nodes))]
    used = {tok for line in body for tok in line.replace("(", " ").replace(")", " ").replace(",", " ").split()}
    head = ["protocol gen"]
    if used & {"Y", "M"}:
        head.append("vars " + " ".join(d for d in ("Y:Data", "M:Nonce") if d[0] in used))
    if "M" in used:
        head.append("fresh M")
    if secret:
        assume("M" in used)
        head.append("secret M")
    try:
        return parse_protocol("\n".join(head + body) + "\n")
    except ProtocolSyntaxError:
        # a variable that only occurs in a cancelling XOR, as in xor(M, M)
        assume(False)


# (protocols, secrets) with an attack: at the first placement (p1+p2, nslx,
# q3+leak_ac) or only after a receive (echo)
ATTACKED = [(("p1", "p2"), ("NA",)), (("nslx",), ()), (("q3", "leak_ac"), ()), (("echo",), ())]


# Y is sent but never received: one `un` that binds it closes echo's demand at
# the first placement, where rule order spent the whole node budget under `sdec`
UNBOUND_SENDS = """protocol gen
vars Y:Data M:Nonce
fresh M
role R0:
  send xor(seq(Y, m), penc(m, pk(c)))
  send xor(m, penc(1, pk(c)))
role R1:
  send senc(penc(M, pk(c)), sh(c, d))
  send xor(M, Y, seq(1, M))
  send penc(senc(Y, sh(c, d)), pk(c))
"""


def confirmed_attack(protocols, secrets):
    res = check_secrecy(protocols, AnalysisConfig(sessions=1, secrets=secrets))
    return res.verdict == "attack" and verify_solution(ConstraintSequence(res.attack.constraints), res.attack.substitution)


class TestPrefixes:
    """Each secret is demanded after every prefix of a run, in one search."""

    @pytest.mark.parametrize("names,secrets", ATTACKED, ids=case_id)
    def test_attack_stays_with_another_protocol(self, names, secrets):
        # a protocol run beside P only adds strands and knowledge, so every
        # prefix that leaks P's secret is still a prefix of a run of P + Q
        assert confirmed_attack([load(n) for n in names], secrets)
        for q in ("q1", "q2", "q3", "q4", "q5", "nslx", "nslx_other", "keyleak", "p1", "blk"):
            if q not in names:
                assert confirmed_attack([load(n) for n in (*names, q)], secrets), q

    @given(small_protocols(), st.sampled_from(ATTACKED))
    @example(parse_protocol(UNBOUND_SENDS), (("echo",), ()))
    @settings(max_examples=60, deadline=None)
    def test_attack_stays_with_a_generated_protocol(self, q, attacked):
        names, secrets = attacked
        assert confirmed_attack([load(n) for n in names] + [q], secrets)

    def test_only_a_start_with_a_loose_variable_expands_un_first(self):
        # nslx's initiator sends B before it receives anything, but an Agent
        # binds only an atom; unrecv sends a Data variable it never receives
        assert [solver._loose(cs) for cs in secret_searches(("nslx",), 1, ())] == [False, False]
        assert [solver._loose(cs) for cs in secret_searches(("echo",), 1, ())] == [False]
        assert [solver._loose(cs) for cs in secret_searches(("echo", "unrecv"), 1, ())] == [True]

    @pytest.mark.parametrize("names,sessions,secrets", analysis_cases(full=True), ids=case_id)
    def test_verdict_matches_every_prefix_of_every_interleaving(self, names, sessions, secrets):
        # the reference demands each secret after every prefix of every
        # interleaving, sends placed anywhere, each in a search of its own
        res = check_secrecy([load(n) for n in names], AnalysisConfig(sessions=sessions, secrets=secrets))
        every_prefix = functools.partial(all_interleavings, prefixes=True)
        assert res.verdict == per_sequence(names, sessions, secrets, every_prefix).verdict

    @given(small_protocols(secret=True))
    @settings(max_examples=80, deadline=None)
    def test_generated_protocol_matches_every_prefix_of_every_interleaving(self, protocol):
        bundles = [make_semibundle(protocol, 1, session=FreshSession())]
        iik = build_iik(bundles)
        # each role that sends M mints a secret; one that receives M first does not
        secrets = bundles[0].secret_constants
        assume(secrets)
        budget = SolverBudget(max_nodes=5_000)
        res = check_secrecy([protocol], AnalysisConfig(sessions=1, budget=budget))
        every_prefix = [cs for secret in secrets for cs in all_interleavings(bundles, iik, secret, prefixes=True)]
        statuses = {satisfiable(cs, budget).status for cs in every_prefix}
        leaks = SolveStatus.SATISFIABLE in statuses
        assume(res.verdict != "inconclusive" and (leaks or SolveStatus.BUDGET_EXHAUSTED not in statuses))
        assert (res.verdict == "attack") == leaks

    @pytest.mark.parametrize(
        "names,sessions,secrets",
        analysis_cases(full=False) + [(("nslx", "q1"), 1, ()), (("nslx_nslx", "nslx_other"), 1, ())],
        ids=case_id,
    )
    def test_matches_one_search_per_secret(self, names, sessions, secrets):
        # an attack needs only its own secret's search: refuting another
        # secret alone can take a minute (n21 in nslx+q1)
        res = check_secrecy([load(n) for n in names], AnalysisConfig(sessions=sessions, secrets=secrets))
        starts = {to_text(start.pending.plan.nodes[-1][0].term): start
                  for start in secret_searches(names, sessions, secrets)}
        assert tuple(starts) == res.secrets_checked
        if res.verdict == "attack":
            assert satisfiable(starts[res.attack.secret]).status is SolveStatus.SATISFIABLE
        else:
            assert res.verdict == "secure"
            alone = [satisfiable(start) for start in starts.values()]
            assert all(r.status is SolveStatus.UNSATISFIABLE for r in alone)
            # the prefixes and the ground decisions are shared
            assert res.stats["nodes"] <= sum(r.stats["nodes"] for r in alone)


# A role that sends a variable it never received.
G_SRC = """
protocol g
vars X : Data
role A:
  send senc(X, sh(a, b))
"""


def fresh_text(t):
    """The canonical text of ``t``, rendered without reading any kept text."""
    if isinstance(t, (Var, Const)):
        return f"{'var' if isinstance(t, Var) else 'const'}({t.name}:{t.sort.value})"
    if t == ZERO:
        return "zero"
    head = {Seq: "seq", PEnc: "penc", SEnc: "senc", Pk: "pk", Sh: "sh", Xor: "xor"}[type(t)]
    return head + "(" + ",".join(fresh_text(c) for c in children(t)) + ")"


def reference_key(cs):
    """The state key built the plain way: every occurrence of every term is
    renamed through ``Substitution.apply`` and rendered afresh."""
    renaming = {}

    def rn(t):
        mapping = {}
        for v in sorted(vars_of(t), key=term_key):
            if v not in renaming:
                renaming[v] = Var(f"_{len(renaming)}", v.sort)
            mapping[v] = renaming[v]
        return Substitution(mapping).apply(t) if mapping else t

    parts = []
    for c in cs.constraints:
        tgt = rn(c.target)
        members = [rn(t) for t in c.term_set]
        parts.append(fresh_text(tgt) + "!" + ",".join(fresh_text(m) for m in members))
    key = ";".join(parts)
    if cs.pending is None:
        return key
    images = ",".join(fresh_text(rn(t)) for t in pending_images(cs))
    return f"{key}|{cs.pending.positions}|{images}"


def pending_images(cs):
    """The images under the state's substitution of the variables of the
    nodes not yet placed and of the terms sent, computed afresh; none once
    the secret is placed."""
    p = cs.pending
    if p.done:
        return []
    watched = set()
    for nodes, position in zip(p.plan.nodes, p.positions):
        for i, node in enumerate(nodes):
            if i >= position or node.sign == "+":
                watched |= vars_of(node.term)
    return [cs.subst.apply(v) for v in sorted(watched, key=term_key)]


class TestStateKey:
    @pytest.mark.parametrize(
        "names,secrets",
        [
            (("q1",), ()),
            (("q1", "q2"), ()),
            (("q3", "q5"), ()),
            (("nslx",), ()),
            (("p1", "p2"), ("NA",)),
        ],
    )
    def test_key_matches_reference_on_every_state(self, monkeypatch, names, secrets):
        # within one search (one token table), two states' keys are equal
        # exactly when their reference keys are
        keyed = solver._canonical_key
        # id of the token table -> (the table, kept alive so that its id
        # stays its own; {key: reference keys}; {reference key: keys}).
        # Nested searches share their caller's table
        searches = {}
        wrong_texts = set()
        calls = []

        def checked(cs, tokens):
            calls.append(cs)
            _, refs_of, keys_of = searches.setdefault(id(tokens), (tokens, {}, {}))
            key, ref = keyed(cs, tokens), reference_key(cs)
            refs_of.setdefault(key, set()).add(ref)
            keys_of.setdefault(ref, set()).add(key)
            for c in cs.constraints:
                for t in (c.target, *c.term_set):
                    if to_text(t) != fresh_text(t):
                        wrong_texts.add(t)
            return key

        monkeypatch.setattr(solver, "_canonical_key", checked)
        protocols = [parse_protocol_file(FIXTURES / f"{n}.proto") for n in names]
        res = check_secrecy(protocols, AnalysisConfig(sessions=1, secrets=secrets))
        # one search covers every secret
        assert len(searches) == 1
        # every node is keyed; a state of a nested search may share its key
        # with one of its caller's, since each search has its own visited set
        assert len(calls) >= res.stats["nodes"]
        for _, refs_of, keys_of in searches.values():
            assert all(len(refs) == 1 for refs in refs_of.values())
            assert all(len(keys) == 1 for keys in keys_of.values())
        assert wrong_texts == set()

    def test_alpha_equivalent_states_share_a_key_within_a_search(self):
        # the states differ only in variable names: once renamed, their
        # terms render alike, so they share tokens and keys
        tokens = {}

        def key(v, w):
            return solver._canonical_key(cseq((v, (a,)), (SEnc(v, k), (a, Seq((w, na))))), tokens)

        assert key(X, Y) == key(Y, X)
        assert len({key(X, Y), key(X, X), key(N, Y)}) == 3

    def test_a_constraint_renamed_otherwise_gets_another_token(self):
        # one constraint after X : IIK and after Y : IIK: its variables are
        # renamed _0, _1 in the first state and _1, _0 in the second
        shared = Constraint(SEnc(X, Y), (a, k))
        first = ConstraintSequence((Constraint(X, IIK), shared))
        second = ConstraintSequence((Constraint(Y, IIK), shared))
        tokens = {}
        assert reference_key(first) != reference_key(second)
        assert solver._canonical_key(first, tokens) != solver._canonical_key(second, tokens)


@st.composite
def ground_terms(draw, depth=2):
    base = st.sampled_from([a, b, na, nb, k, one, ZERO])
    if depth == 0:
        return draw(base)
    sub = ground_terms(depth=depth - 1)
    t = draw(
        st.one_of(
            base,
            st.tuples(sub, sub).map(lambda p: Seq(p)),
            st.tuples(sub, sub).map(lambda p: SEnc(p[0], p[1])),
            st.tuples(sub, sub).map(lambda p: Xor(p)),
        )
    )
    return normalize(t)


# A draw on which the search once spent its 200,000 nodes: (target, term set).
PINNED_MEMBER_TARGET = (
    normalize(Xor((SEnc(na, na), SEnc(ZERO, a)))),
    [
        normalize(Xor((one, a, b, nb))),
        normalize(Seq((Xor((a, k)), SEnc(nb, na)))),
        normalize(Seq((SEnc(nb, one), ZERO))),
    ],
)


class TestSearchProperties:
    @given(st.lists(ground_terms(), min_size=1, max_size=4), ground_terms())
    @settings(max_examples=60, deadline=None)
    def test_search_terminates_with_definite_or_honest_status(self, term_set, target):
        cs = cseq((target, tuple(term_set)))
        res = satisfiable(cs, SolverBudget(max_depth=12, max_nodes=2000))
        assert res.status in (
            SolveStatus.SATISFIABLE,
            SolveStatus.UNSATISFIABLE,
            SolveStatus.BUDGET_EXHAUSTED,
        )
        if res.status is SolveStatus.SATISFIABLE:
            assert res.solutions

    @given(st.lists(ground_terms(), min_size=1, max_size=3), ground_terms())
    @example(PINNED_MEMBER_TARGET[1], PINNED_MEMBER_TARGET[0])
    @settings(max_examples=40, deadline=None)
    def test_member_target_always_satisfiable(self, term_set, target):
        cs = cseq((target, tuple(term_set) + (target,)))
        res = satisfiable(cs)
        assert res.status is SolveStatus.SATISFIABLE

    def test_member_target_is_discharged_at_once(self):
        # without the discharge, `sdec`/`xor_r` subtrees spend the whole
        # 200,000-node budget before `un` reaches the member
        target, term_set = PINNED_MEMBER_TARGET
        res = satisfiable(cseq((target, tuple(term_set) + (target,))))
        assert res.status is SolveStatus.SATISFIABLE
        assert res.stats["nodes"] == 2
        assert [s.to_json_dict() for s in res.solution()[1]] == [
            {"rule": "un", "site": to_text(target), "branch": 0, "unifier": {}}
        ]

    def test_discharge_agrees_with_every_rule(self):
        # the active constraint's target is in its term set; the variables
        # of the term sets occur in earlier targets or do not, and the later
        # term set grows from the active one or does not
        compared = []
        drawn = []

        @given(
            st.lists(st.sampled_from([X, A]), unique=True),
            st.lists(rule_terms(depth=1), max_size=3),
            rule_terms().filter(lambda t: not isinstance(t, Var)),
            rule_terms(depth=1),
            st.booleans(),
            st.lists(rule_terms(depth=1), max_size=2),
        )
        # X and A occur first in a term set, and only `un` at the other
        # member binds X ↦ a, which the second constraint needs; a discharge
        # without `solver._originated` answered Unsatisfiable here
        @example(
            earlier=[], members=[PEnc(X, Pk(A))], target=PEnc(a, Pk(A)), target2=a, grow=False, later=[PEnc(X, Pk(A))]
        )
        # a fixed draw: the counts asserted below depend on it
        @settings(max_examples=100, deadline=None, derandomize=True)
        def check(earlier, members, target, target2, grow, later):
            T = IIK + tuple(members) + (target,)
            cs = ConstraintSequence(
                tuple(Constraint(v, IIK) for v in earlier)
                + (Constraint(target, T), Constraint(target2, (T if grow else IIK) + tuple(later)))
            )
            budget = SolverBudget(max_depth=12, max_nodes=300)
            discharged = satisfiable(cs, budget).status
            with mock.patch.object(solver, "_rule_sites", lambda cs, c: applicable_rules(cs)):
                reference = satisfiable(cs, budget).status
            drawn.append(cs)
            if SolveStatus.BUDGET_EXHAUSTED not in (discharged, reference):
                # a mismatch here is a soundness fault of the discharge
                assert discharged is reference, (
                    f"discharge {discharged.value}, every rule {reference.value} on "
                    f"{[c.to_json_dict() for c in cs.constraints]}"
                )
                root = normalize_seq(cs)
                ai = root.active_index()
                c = None if ai is None else root.constraints[ai]
                compared.append(c is not None and c.target in c.term_set and solver._originated(root))

        check()
        # draws that compared two definite statuses, and among them those
        # on which the discharge applied
        assert len(compared) >= 60, f"{len(compared)} of {len(drawn)} draws compared two definite statuses"
        assert sum(compared) >= 25, f"the discharge applied on {sum(compared)} of {len(compared)} compared draws"

    def test_state_cut_at_depth_bound_is_searched_again_by_a_shorter_path(self):
        # the search first meets a state on the way to the shallow solution
        # at the depth bound, and must still expand it when a shorter path
        # reaches it later
        target = normalize(Seq((a, Seq((a, a)))))
        term_set = (SEnc(a, SEnc(a, a)), Xor((a, b)), SEnc(a, Seq((a, a))), target)
        res = satisfiable(cseq((target, tuple(normalize(t) for t in term_set))))
        assert res.status is SolveStatus.SATISFIABLE


def without_ground_decisions():
    """The search with no constraint taken for a ground question, so no
    nested search starts and no state is dropped: the reference."""
    return mock.patch.object(solver, "_ground", lambda c: False)


def attack_of(res):
    a = res.attack
    return None if a is None else (a.interleaving, a.rules, a.substitution, a.constraints)


def recorded(cs, budget=None):
    """``satisfiable(cs, budget)``, its table of ground constraints
    (`solver._Shared`) and the start state and depth of every search it ran,
    the outermost first."""
    tables, searches = [], []
    original_search = solver._search

    class Shared(solver._Shared):
        def __init__(self, budget):
            super().__init__(budget)
            tables.append(self)

    def search(start, depth, shared):
        searches.append((start, depth))
        return original_search(start, depth, shared)

    with mock.patch.object(solver, "_Shared", Shared), mock.patch.object(solver, "_search", search):
        res = satisfiable(cs, budget)
    (table,) = tables
    return res, table, searches


@st.composite
def mixed_sequences(draw):
    """Two or three constraints over the initial knowledge, each ground or
    drawn with variables."""
    constraints = []
    for _ in range(draw(st.integers(2, 3))):
        terms = ground_terms(depth=1) if draw(st.booleans()) else rule_terms(depth=1)
        target = draw(terms)
        constraints.append(Constraint(target, IIK + tuple(draw(st.lists(terms, max_size=3)))))
    return ConstraintSequence(tuple(constraints))


class TestGroundDecisions:
    """The search that decides each ground constraint once against the one
    that does not."""

    @pytest.mark.parametrize(
        "names,sessions,secrets",
        [((q,), 1, ()) for q in CORPUS]
        + [(pair, 1, ()) for pair in itertools.combinations(CORPUS, 2)]
        + [
            (("p1", "p2"), 1, ("NA",)),
            (("nslx",), 1, ()),
            (("nslx_nslx",), 1, ()),
            (("nslx", "p2"), 1, ()),
            (("q1", "q3", "leak_ab"), 1, ()),
            (("q1", "q5", "leak_bc"), 1, ()),
            (("q3", "leak_ac"), 2, ()),
            (("q5", "leak_bc"), 2, ()),
            # the corpus's dead constraints are all safe keys, which no
            # nested search decides: these still decide some dead
            (("q1", "wrap"), 1, ()),
            (("q1", "q3", "wrap"), 1, ()),
            (("q1", "leak_ab"), 1, ()),
            (("seqkey",), 2, ()),
        ],
        ids=case_id,
    )
    def test_matches_the_search_without_them(self, names, sessions, secrets):
        config = AnalysisConfig(sessions=sessions, secrets=secrets)
        decided = check_secrecy([load(n) for n in names], config)
        with without_ground_decisions():
            reference = check_secrecy([load(n) for n in names], config)
        assert decided.verdict == reference.verdict != "inconclusive"
        assert decided.stats["sequences"] == reference.stats["sequences"]
        assert attack_of(decided) == attack_of(reference)

    def test_nested_searches_do_not_call_satisfiable(self):
        # a wrapper of `satisfiable` (as a tracer installs) sees the one call
        # of the analysis, whose nodes are the report's.  q1+q3 starts no
        # nested search, since its keys are safe; wrap's sh(a, b) is not,
        # and the first demand for it in each term set starts one.  (36 and
        # 44 nodes while the receives that no send follows were placed.)
        original, original_search = solver.satisfiable, solver._search
        for names, nodes, nested in ((("q1", "q3"), 12, False), (("q1", "q3", "wrap"), 18, True)):
            calls, searches = [], []

            def counted(cs, budget=None):
                res = original(cs, budget)
                calls.append(res.stats["nodes"])
                return res

            def search(start, depth, shared):
                searches.append(start)
                return original_search(start, depth, shared)

            with mock.patch.object(solver, "satisfiable", counted), mock.patch.object(solver, "_search", search):
                res = check_secrecy([load(n) for n in names], AnalysisConfig(sessions=1))
            assert len(res.secrets_checked) == 2
            assert calls == [res.stats["nodes"]] == [nodes]
            assert (len(searches) > 1) is nested

    def test_matches_on_mixed_sequences(self):
        compared = []

        @given(mixed_sequences())
        @settings(max_examples=150, deadline=None)
        def check(cs):
            budget = SolverBudget(max_depth=10, max_nodes=400)
            res, table, searches = recorded(cs, budget)
            with without_ground_decisions():
                reference = satisfiable(cs, budget)
            if SolveStatus.BUDGET_EXHAUSTED in (res.status, reference.status):
                return
            assert res.status is reference.status
            assert res.solutions == reference.solutions
            compared.append((len(searches) > 1, False in table.decided.values()))

        check()
        # draws that compared two definite statuses; among them those that
        # ran a nested search, and those that found a dead constraint
        assert len(compared) >= 100
        assert sum(nested for nested, _ in compared) >= 80
        assert sum(dead for _, dead in compared) >= 50

    def test_dead_constraint_is_decided_once(self):
        # `un` at either ciphertext leaves the same two constraints, under
        # X ↦ a and under X ↦ b: the first state decides na : {…, a}
        # underivable, and the second is dropped without a nested search
        dead = Constraint(na, IIK + (a,))
        cs = ConstraintSequence(
            (
                Constraint(SEnc(X, k), IIK + (SEnc(a, k), SEnc(b, k))),
                dead,
                Constraint(Y, IIK),
            )
        )
        asked = []
        ground = solver._ground

        def spy(c):
            asked.append(c)
            return ground(c)

        with mock.patch.object(solver, "_ground", spy):
            res, table, searches = recorded(cs)
        assert res.status is SolveStatus.UNSATISFIABLE
        # the two states, and the start of the one nested search
        assert asked.count(dead) == 3
        assert [start for start, _ in searches].count(ConstraintSequence((dead,))) == 1
        assert table.decided[dead.target, dead.term_set] is False
        with without_ground_decisions():
            assert satisfiable(cs).status is SolveStatus.UNSATISFIABLE

    def test_budget_cut_decides_nothing(self):
        # na : T is active at the start with more after it; its nested search
        # reaches the depth bound after `sdec` and is cut, so the constraint
        # stays undecided and the search ends as the one without decisions
        key = normalize(Sh(a, b))
        ct = normalize(SEnc(Seq((one, na)), key))
        first = Constraint(na, IIK + (key, ct))
        cs = ConstraintSequence((first, Constraint(Y, IIK)))
        budget = SolverBudget(max_depth=1)
        res, table, searches = recorded(cs, budget)
        with without_ground_decisions():
            reference = satisfiable(cs, budget)
        assert res.status is reference.status is SolveStatus.BUDGET_EXHAUSTED
        assert res.stats["exhausted"] == reference.stats["exhausted"] == ["branch"]
        assert searches[1:] == [(ConstraintSequence((first,)), 0)]
        # started, and left undecided
        assert table.decided[first.target, first.term_set] is None
        # within the default budget the nested search decides it, and the
        # search finds the solution of the one without decisions
        res, table, _ = recorded(cs)
        assert table.decided[first.target, first.term_set] is True
        with without_ground_decisions():
            reference = satisfiable(cs)
        assert res.status is SolveStatus.SATISFIABLE
        assert res.solutions == reference.solutions

    def test_node_budget_is_shared_with_nested_searches(self):
        # the nested search of the first constraint spends the whole budget,
        # and the search stops there, inconclusive
        key = normalize(Sh(a, b))
        ct = normalize(SEnc(Seq((one, na)), key))
        cs = cseq((nb, IIK + (key, ct)), (Y, IIK))
        res, table, searches = recorded(cs, SolverBudget(max_nodes=2))
        assert len(searches) > 1
        assert res.status is SolveStatus.BUDGET_EXHAUSTED
        assert res.stats["exhausted"] == ["node"]
        assert set(table.decided.values()) == {None}
        full = satisfiable(cs)
        assert full.status is SolveStatus.UNSATISFIABLE
        with without_ground_decisions():
            assert satisfiable(cs).status is SolveStatus.UNSATISFIABLE


def full_rebuild(tau, cs):
    """Every constraint rebuilt from its substituted parts."""
    return tuple(Constraint(tau.apply(c.target), [tau.apply(t) for t in c.term_set]) for c in cs)


# The analyses of the benchmark's `attacks` workload.
ATTACK_ITEMS = [
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
    (("q2", "leak_ab"), 1, ()),
    (("q4", "leak_ac"), 1, ()),
]


class TestSubstStep:
    """`_subst_constraints`, which returns a constraint the unifier leaves
    untouched as it is, against rebuilding every constraint."""

    @pytest.mark.parametrize(
        "names,sessions,secrets",
        [(pair, 1, ()) for pair in itertools.combinations(CORPUS, 2)] + ATTACK_ITEMS,
        ids=case_id,
    )
    def test_matches_the_full_rebuild_on_every_branch(self, names, sessions, secrets):
        original = solver._subst_constraints

        def checked(tau, cs):
            out = original(tau, cs)
            assert out == full_rebuild(tau, cs)
            # exactly those with no variable the unifier binds come back as they are
            same = [o is c for o, c in zip(out, cs)]
            assert same == [c.variables.isdisjoint(tau.domain()) for c in cs]
            return out

        with mock.patch.object(solver, "_subst_constraints", checked):
            res = check_secrecy([load(n) for n in names], AnalysisConfig(sessions=sessions, secrets=secrets))
        assert res.verdict in ("secure", "attack")

    @given(
        st.lists(any_constraints(), min_size=1, max_size=3),
        st.dictionaries(st.sampled_from([X, N]), rule_terms(depth=1), max_size=2),
        st.sampled_from([None, a, ATTACKER]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_the_full_rebuild(self, cs, bindings, agent):
        tau = Substitution({**bindings, **({A: agent} if agent is not None else {})})
        out = solver._subst_constraints(tau, tuple(cs))
        assert out == full_rebuild(tau, cs)
        for o, c in zip(out, cs):
            assert (o is c) == c.variables.isdisjoint(tau.domain())


def reference_search(cs, depth0, shared):
    """`solver._search` as it was before children were built lazily: every
    rule site of an expanded state is applied, and all its children pushed,
    before the first child is visited.  It is also the unfiltered
    reference: every site goes through `_apply`, so neither a dead-key or
    safe-key `sdec` site nor a `un` or `ksub` site that `shape_clash`
    decides is skipped.  States are dropped as `solver._search` drops them:
    one whose active target is a safe key, and one whose active constraint
    is decided dead.  From a start with a loose variable, the `un` sites
    come first, as in `solver._search`."""
    budget, tokens, decided, safe = shared.budget, shared.tokens, shared.decided, shared.safe_keys
    un_first = solver._loose(cs)
    visited = set()
    reached = set() if cs.pending is not None else {cs.origin}
    exhausted = set()
    stack = [(cs, (), depth0)]
    while stack:
        cur, trace, depth = stack.pop()
        cur = solver.normalize_seq(cur)
        active = solver._split_at_active(cur)
        p = cur.pending
        if active is None and p is not None and not p.done:
            children = solver._place(cur)
            if children[0].pending.done:
                reached.add(children[0].origin)
            stack.extend((child, trace, depth) for child in reversed(children))
            continue
        if active is not None and active[1].target in safe:
            continue
        if active is not None and solver._ground(active[1]):
            c = active[1]
            more_after = active[2] or p is not None and not p.done
            parts = c.target, c.term_set
            if parts not in decided and more_after and depth < budget.max_depth:
                decided[parts] = None
                status = yield c, depth
                if status is not SolveStatus.BUDGET_EXHAUSTED:
                    decided[parts] = status is SolveStatus.SATISFIABLE
            if decided.get(parts) is False:
                continue
        key = solver._canonical_key(cur, tokens)
        if key in visited:
            continue
        visited.add(key)
        shared.nodes += 1
        shared.peak_depth = max(shared.peak_depth, depth)
        if shared.nodes > budget.max_nodes:
            exhausted.add("node")
            break
        if active is None:
            solved = cs if p is None else ConstraintSequence(p.placed, solver.EMPTY_SUBST, cur.origin)
            stats = solver._stats(shared, reached, exhausted)
            return solver.SolverResult(SolveStatus.SATISFIABLE, ((cur.subst, trace),), stats, solved)
        if depth >= budget.max_depth:
            exhausted.add("branch")
            visited.discard(key)
            continue
        expansions = []
        sites = solver._rule_sites(cur, active[1])
        if un_first:
            sites = [rs for rs in sites if rs[0] is RuleName.UN] + [rs for rs in sites if rs[0] is not RuleName.UN]
        for rule, site in sites:
            branches, complete = solver._apply(rule, site, cur, active)
            if not complete:
                exhausted.add("unifier")
            if not branches:
                continue
            site_desc = "target" if site == TARGET_SITE else to_text(active[1].term_set[site])
            for bi, (branch, tau) in enumerate(branches):
                step = solver.RuleStep(rule.value, site_desc, bi, tau)
                expansions.append((branch, trace + (step,), depth + 1))
        stack.extend(reversed(expansions))
    status = SolveStatus.BUDGET_EXHAUSTED if exhausted else SolveStatus.UNSATISFIABLE
    return solver.SolverResult(status, (), solver._stats(shared, reached, exhausted))


def eager_satisfiable(cs, budget=None):
    """`satisfiable` with every search, nested ones included, run by
    `reference_search`."""
    with mock.patch.object(solver, "_search", reference_search):
        return satisfiable(cs, budget)


def secret_searches(names, sessions, secrets):
    """The start state of each secret's search in `check_secrecy`, in its order."""
    session = FreshSession()
    bundles = [make_semibundle(load(n), sessions, session=session) for n in names]
    iik = build_iik(bundles)
    chosen = {c for b in bundles for v, c in b.secret_bindings if not secrets or v.name in secrets}
    return [solver._interleavings(bundles, iik, secret) for secret in sorted(chosen, key=term_key)]


def assert_same_search(lazy, eager):
    """The two searches visited the same states and found the same solution;
    the lazy one ran a subset of the eager one's unifier searches, all of
    them when neither a solution nor the node budget cut it short."""
    assert lazy.status is eager.status
    assert lazy.solutions == eager.solutions
    assert lazy.sequence == eager.sequence
    for counter in ("nodes", "sequences", "peak_depth"):
        assert lazy.stats[counter] == eager.stats[counter], counter
    cut = lazy.status is SolveStatus.SATISFIABLE or "node" in eager.stats["exhausted"]
    if cut:
        assert set(lazy.stats["exhausted"]) <= set(eager.stats["exhausted"])
    else:
        assert lazy.stats["exhausted"] == eager.stats["exhausted"]


class TestLazyChildren:
    """The search that builds a state's children as it reaches them against
    the one that builds them all when it expands the state."""

    @pytest.mark.parametrize(
        "names,sessions,secrets",
        [((q,), 1, ()) for q in CORPUS]
        + [(pair, 1, ()) for pair in itertools.combinations(CORPUS, 2)]
        + [
            (("p1", "p2"), 1, ("NA",)),
            (("nslx",), 1, ()),
            (("nslx_nslx",), 1, ()),
            (("nslx", "p2"), 1, ()),
            (("q1", "q3", "leak_ab"), 1, ()),
            (("q3", "leak_ac"), 2, ()),
            (("q5", "leak_bc"), 2, ()),
            # `sdec` keys that are variables or sequences, whose sites are never skipped
            (("echo",), 2, ()),
            (("seqkey",), 1, ()),
            (("seqkey",), 2, ()),
            # `sdec` sites whose ground key wrap's sh(a, b) is decided dead
            (("q1", "q3", "wrap"), 1, ()),
        ],
        ids=case_id,
    )
    def test_matches_the_eager_search(self, names, sessions, secrets):
        # each secret in `check_secrecy`'s order, up to the first attack
        for start in secret_searches(names, sessions, secrets):
            lazy, eager = satisfiable(start), eager_satisfiable(start)
            assert_same_search(lazy, eager)
            if lazy.status is SolveStatus.SATISFIABLE:
                break

    def test_matches_under_small_budgets(self):
        statuses = []

        @given(mixed_sequences(), st.integers(1, 8), st.integers(1, 200))
        @settings(max_examples=150, deadline=None)
        def check(cs, depth, nodes):
            budget = SolverBudget(max_depth=depth, max_nodes=nodes)
            lazy = satisfiable(cs, budget)
            assert_same_search(lazy, eager_satisfiable(cs, budget))
            statuses.append("node" if "node" in lazy.stats["exhausted"] else lazy.status.value)

        check()
        # both searches cut by the node budget, and both run to the end
        assert statuses.count("node") >= 10
        assert statuses.count(SolveStatus.UNSATISFIABLE.value) >= 10

    def test_exhausted_names_only_the_unifier_searches_run(self):
        # `un` at X solves the constraint; `un` at eps, a later site, is
        # never applied, so its capped unifier search is not reported
        cs = cseq((a, IIK + (a, X)))
        original = solver._cached_unify

        def capped_at_eps(m, t):
            unifiers, complete = original(m, t)
            return unifiers, complete and t != ATTACKER

        with mock.patch.object(solver, "_cached_unify", capped_at_eps):
            lazy, eager = satisfiable(cs), eager_satisfiable(cs)
        assert lazy.status is SolveStatus.SATISFIABLE
        assert lazy.solution()[1][0].site == to_text(X)
        assert lazy.solutions == eager.solutions
        assert lazy.stats["exhausted"] == []
        assert eager.stats["exhausted"] == ["unifier"]

    def test_dead_key_site_yields_no_child(self):
        # `sdec` at senc(na, sh(a, b)) first demands sh(a, b) from the rest
        member = SEnc(na, normalize(Sh(a, b)))
        cs = normalize_seq(cseq((na, IIK + (member,))))
        active = solver._split_at_active(cs)
        demand = Constraint(member.key, IIK)
        # the parts of the constraint `sdec` demands, as `decided` keys them
        key = solver._sdec_key(active[1], active[1].term_set.index(member))
        assert key == (demand.target, demand.term_set)

        def rules(decided):
            return [steps[-1].rule for _, steps, _ in solver._children(cs, active, (), 0, set(), decided)]

        every = rules({})
        assert every[0] == "sdec"
        # undecided, or decided derivable: the site is applied
        assert rules({key: None}) == rules({key: True}) == every
        # decided underivable: the site yields nothing, every other site the same
        assert rules({key: False}) == [r for r in every if r != "sdec"]

    def test_skipped_children_are_never_normalized(self):
        # a skipped `sdec` child is one the search would take off the stack,
        # normalize and drop: the lazy search normalizes fewer states than
        # the eager one, which builds every child, and visits the same ones
        def normalized(search, start):
            calls = []

            def counted(cs):
                calls.append(cs)
                return normalize_seq(cs)

            with mock.patch.object(solver, "normalize_seq", counted):
                return search(start), len(calls)

        # q1+q3's skipped sites have a safe key; beside wrap, q1's key
        # sh(a, b) is not safe, and its sites are skipped once it is decided dead
        for names in (("q1", "q3"), ("q1", "wrap")):
            (start,) = secret_searches(names, 1, ("N2",))
            lazy, lazy_calls = normalized(satisfiable, start)
            eager, eager_calls = normalized(eager_satisfiable, start)
            assert_same_search(lazy, eager)
            assert lazy_calls < eager_calls

    def test_unvisited_siblings_are_not_built(self):
        # the attack on nslx ends the search long before every site of the
        # states on its path is applied
        def unifier_searches(search):
            calls = []

            def counted(m, t):
                calls.append((m, t))
                return unify_sua(m, t)

            solver._cached_unify.cache_clear()
            with mock.patch.object(solver, "unify_sua", counted):
                res = search(start)
            solver._cached_unify.cache_clear()
            return res, len(calls)

        (start,) = secret_searches(("nslx",), 1, ("NA",))
        lazy, lazy_calls = unifier_searches(satisfiable)
        eager, eager_calls = unifier_searches(eager_satisfiable)
        assert lazy.status is SolveStatus.SATISFIABLE
        assert lazy.solutions == eager.solutions
        assert lazy_calls < eager_calls


# The analyses of the benchmark's `corpus` and `attacks` workloads
# (perfbench/workloads.py), whose seed orders them and changes none:
# (protocols, sessions, --secret names).  `ATTACK_ANALYSES` are the ones
# that find an attack.
ATTACK_ANALYSES = (
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
WORKLOAD_ANALYSES = (
    [((q,), 1, ()) for q in CORPUS]
    + [(pair, 1, ()) for pair in itertools.combinations(CORPUS, 2)]
    + [*ATTACK_ANALYSES, (("q2", "leak_ab"), 1, ()), (("q4", "leak_ac"), 1, ())]
)


class TestShapeDecidedSites:
    """`un` and `ksub` sites whose pair `shape_clash` decides are answered
    in `_children`, without `_apply` and the unifier."""

    def test_decided_sites_never_reach_the_unifier_cache(self):
        # na against ground members, and ksub of pk(a) against pk(eps):
        # every site is decided, so the state has no child and no lookup
        member = normalize(PEnc(nb, normalize(Pk(a))))
        cs = normalize_seq(cseq((na, IIK + (nb, member))))
        active = solver._split_at_active(cs)
        sites = solver._rule_sites(cs, active[1])
        assert {rule for rule, _ in sites} == {RuleName.UN, RuleName.KSUB}
        with mock.patch.object(solver, "_cached_unify", side_effect=AssertionError("unifier reached")) as cached:
            assert list(solver._children(cs, active, (), 0, set(), {})) == []
        cached.assert_not_called()
        # applied, each of them has no branch and a complete search
        assert all(solver._apply(rule, site, cs, active) == ([], True) for rule, site in sites)

    def test_search_sends_the_unifier_only_undecided_pairs(self):
        def unified(search, start):
            pairs = []
            original = solver._cached_unify

            def recording(m, t):
                pairs.append((m, t))
                return original(m, t)

            with mock.patch.object(solver, "_cached_unify", recording):
                return search(start), pairs

        (start,) = secret_searches(("q1", "q3"), 1, ("N2",))
        lazy, lazy_pairs = unified(satisfiable, start)
        eager, eager_pairs = unified(eager_satisfiable, start)
        assert_same_search(lazy, eager)
        assert lazy.status is SolveStatus.UNSATISFIABLE
        # the search ran to its end: it asked about every undecided pair
        # that the unfiltered one asked about, and about no other
        decided = {pair for pair in eager_pairs if shape_clash(*pair)}
        assert decided and not any(shape_clash(*pair) for pair in lazy_pairs)
        assert set(lazy_pairs) == set(eager_pairs) - decided

    def test_decided_pairs_of_the_workloads_have_no_unifier(self):
        # every pair a `un` or `ksub` site of these searches gives
        pairs = set()

        def recording(m, t):
            pairs.add((m, t))
            return shape_clash(m, t)

        with mock.patch.object(solver, "shape_clash", recording):
            for names, sessions, secrets in WORKLOAD_ANALYSES:
                check_secrecy([load(n) for n in names], AnalysisConfig(sessions=sessions, secrets=secrets))
        decided = [pair for pair in pairs if shape_clash(*pair)]
        ground = [pair for pair in decided if not vars_of(pair[0]) and not vars_of(pair[1])]
        # both kinds are met: two ground terms, and a clash at the root
        assert ground and len(ground) < len(decided)
        for m, t in decided:
            assert unify_sua(m, t) == ((), True), (to_text(m), to_text(t))


def analysis_safe_keys(names, sessions=1):
    """The safe keys of the analysis of ``names`` (`protocol.safe_keys`)."""
    session = FreshSession()
    bundles = [make_semibundle(load(n), sessions, session=session) for n in names]
    return safe_keys(bundles, build_iik(bundles))


def without_safe_keys():
    """The search with no key taken for safe, so no state is dropped for
    one and every `sdec` site is applied: the reference."""
    return mock.patch.object(solver, "safe_keys", lambda bundles, iik: frozenset())


def as_written(res):
    """The verdict, the secrets, the prefixes counted and the attack trace,
    byte for byte as a report writes it, less its time."""
    attack = res.attack and {k: v for k, v in res.attack.to_json_dict().items() if k != "elapsed_ms"}
    return res.verdict, res.secrets_checked, res.stats["sequences"], json.dumps(attack)


AB = normalize(Sh(a, b))

# Each hands the key sh(a, b) of q1 to the attacker (see `INLINE`).
KEY_GIVERS = ("leak_ab", "shvar", "xorrecv", "unrecv", "keyleak")


class TestSafeKeys:
    """Which long-term keys `safe_keys` takes for safe."""

    def test_a_key_some_strand_sends_is_never_safe(self):
        # q1's B sends the N1 it received plainly, which cannot carry a key
        assert analysis_safe_keys(("q1",)) == {AB}
        for names in [(q,) for q in CORPUS] + list(itertools.combinations(CORPUS, 2)):
            for sessions in (1, 2):
                assert AB not in analysis_safe_keys((*names, "leak_ab"), sessions)

    def test_a_key_an_interior_sh_with_a_variable_may_become_is_not_safe(self):
        assert AB not in analysis_safe_keys(("q1", "shvar"))
        assert confirmed_attack([load("q1"), load("shvar")], ())

    @pytest.mark.parametrize("giver", ["xorrecv", "unrecv", "keyleak"])
    def test_a_key_a_sent_variable_may_carry_is_not_safe(self, giver):
        # a value received under an XOR, never received or received at a
        # key position may be sh(a, b), and the attacker learns it when it
        # is sent: a safe sh(a, b) would hide the attack (keyleak) or
        # change its trace (xorrecv, unrecv)
        assert analysis_safe_keys(("q1", giver)) == frozenset()
        assert confirmed_attack([load("q1"), load(giver)], ())

    def test_keys_assumption_1_reports_are_never_safe(self):
        # the checker and the safe keys read one definition of a key that
        # travels (`protocol._sh_terms`); a reported key with a
        # variable must not be unifiable with any safe key
        names = sorted(f.stem for f in FIXTURES.glob("*.proto")) + ["leak_ab", "shvar"]
        reported = kept = 0
        for combo in [(n,) for n in names] + list(itertools.combinations(names, 2)):
            safe = analysis_safe_keys(combo)
            kept += bool(safe)
            for n in combo:
                for v in check_assumptions(load(n)).violations:
                    if v.assumption == 1:
                        reported += 1
                        assert not any(unify_sua(v.witness, key)[0] for key in safe), (combo, to_text(v.witness))
        assert reported >= 10 and kept >= 10

    def test_three_protocol_leak_is_proven_secure(self):
        # S is q3's secret under sh(a, c), which stays safe beside leak_ab;
        # without the safe keys the search runs out of its default budget
        res = check_secrecy([load(n) for n in ("q1", "q3", "leak_ab")], AnalysisConfig(secrets=("S",)))
        assert res.verdict == "secure"
        assert res.stats["nodes"] <= SolverBudget().max_nodes


# The corpus and its pairs at one and two sessions, the `attacks` items,
# and protocols that hand q1's key to the attacker in every way.
PRUNING_CASES = (
    [(names, sessions, ()) for names in [(q,) for q in CORPUS] + list(itertools.combinations(CORPUS, 2))
     for sessions in (1, 2)]
    + ATTACK_ITEMS
    + [(("q1", giver), 1, ()) for giver in KEY_GIVERS]
    + [(("p2", "keyleak"), 1, ()), (("q1", "q3", "wrap"), 1, ()), (("seqkey",), 2, ())]
)


class TestSafeKeyPruning:
    """The search that drops the demands for safe keys against the one
    that does not."""

    @pytest.mark.parametrize("names,sessions,secrets", PRUNING_CASES, ids=case_id)
    def test_matches_the_search_without_them(self, names, sessions, secrets):
        config = AnalysisConfig(sessions=sessions, secrets=secrets)
        pruned = check_secrecy([load(n) for n in names], config)
        with without_safe_keys():
            reference = check_secrecy([load(n) for n in names], config)
        assert pruned.verdict != "inconclusive"
        assert as_written(pruned) == as_written(reference)
        assert pruned.stats["nodes"] <= reference.stats["nodes"]
        if pruned.attack is not None:
            attack = pruned.attack
            assert verify_solution(ConstraintSequence(attack.constraints), attack.substitution)

    def test_matches_on_generated_protocols(self):
        compared = []

        @given(small_protocols(secret=True), st.sampled_from([(), ("q1",), ("leak_cd",), ("wrap",), ("xorrecv",)]))
        @settings(max_examples=80, deadline=None)
        def check(protocol, others):
            # each role that sends M mints a secret; one that receives M first does not
            assume(make_semibundle(protocol, 1).secret_constants)
            protocols = [protocol] + [load(n) for n in others]
            config = AnalysisConfig(budget=SolverBudget(max_nodes=2_000))
            pruned = check_secrecy(protocols, config)
            with without_safe_keys():
                reference = check_secrecy(protocols, config)
            assume("inconclusive" not in (pruned.verdict, reference.verdict))
            assert as_written(pruned) == as_written(reference)
            compared.append(pruned.stats["nodes"] < reference.stats["nodes"])

        check()
        # draws that compared two definite verdicts; among them those that
        # the safe keys made shorter
        assert len(compared) >= 40
        assert sum(compared) >= 5


class TestPlaceTermSet:
    def test_matches_substituting_every_member(self):
        # `_place` substitutes only the members of a receive's term set
        # that have variables; the result is the canonical set of every
        # member substituted
        original = solver._place
        substituted = []

        def checked(cs):
            children = original(cs)
            for child in children:
                raw = child.pending.placed[-1].term_set
                assert child.constraints[-1].term_set == solver._term_set(map(cs.subst.apply, raw))
            substituted.append(bool(cs.subst) and any(map(vars_of, raw)))
            return children

        with mock.patch.object(solver, "_place", checked):
            for names, sessions, secrets in WORKLOAD_ANALYSES:
                check_secrecy([load(n) for n in names], AnalysisConfig(sessions=sessions, secrets=secrets))
        assert sum(substituted) >= 10


# Every fixture, and one protocol that sends q1's key.
SWEPT = tuple(sorted(f.stem for f in FIXTURES.glob("*.proto"))) + ("leak_ab",)

def cut_cases():
    """Each of `SWEPT` alone and in every ordered pair at one session, and
    alone and in every unordered pair at two."""
    return (
        [((n,), 1) for n in SWEPT]
        + [(pair, 1) for pair in itertools.permutations(SWEPT, 2)]
        + [((n,), 2) for n in SWEPT]
        + [(pair, 2) for pair in itertools.combinations(SWEPT, 2)]
    )


def analysis(protocols, config):
    """`check_secrecy`, or None when no protocol has a secret to check."""
    try:
        return check_secrecy(protocols, config)
    except ConfigError:
        return None


def assert_cut_matches(protocols, config):
    """The search that cuts each strand after its last send against the
    one placing every receive: the same verdict and budgets run out, never
    more nodes, and each attack confirmed by the oracle.  Returns both."""
    cut = analysis(protocols, config)
    with placing_every_receive():
        whole = analysis(protocols, config)
    if cut is None or whole is None:
        assert cut is whole is None
        return cut, whole
    assert cut.verdict == whole.verdict
    assert cut.exhausted == whole.exhausted
    assert cut.stats["nodes"] <= whole.stats["nodes"]
    for res in (cut, whole):
        if res.attack is not None:
            attack = res.attack
            assert verify_solution(ConstraintSequence(attack.constraints), attack.substitution) is True
    return cut, whole


class TestCutReceives:
    """The search that places no receive that no send of its strand follows
    (`solver._Plan`) against the one that places every receive."""

    def test_the_cut_keeps_each_strand_through_its_last_send(self):
        cut = solver._through_last_send
        for name in SWEPT + ("late",):
            for strand in make_semibundle(load(name), 1).strands:
                kept = cut(strand.nodes)
                assert strand.nodes[: len(kept)] == kept
                assert all(n.sign == "-" for n in strand.nodes[len(kept) :])
                assert not kept or kept[-1].sign == "+"

    @pytest.mark.parametrize("names,sessions", cut_cases(), ids=case_id)
    def test_matches_the_search_placing_every_receive(self, names, sessions):
        assert_cut_matches([load(n) for n in names], AnalysisConfig(sessions=sessions))

    @pytest.mark.parametrize("others", [(), ("q1",), ("nslx",)], ids=case_id)
    def test_a_last_receive_that_binds_a_sent_variable(self, others):
        protocols = [load(n) for n in ("late", *others)]
        cut, _ = assert_cut_matches(protocols, AnalysisConfig(sessions=1, secrets=("N",)))
        assert cut.verdict == "attack"
        # the cut search never places A's last receive
        assert "late.A#1.3" not in cut.attack.interleaving

    def test_matches_on_generated_protocols(self):
        compared = []

        @given(small_protocols(secret=True), st.sampled_from([(), ("q1",), ("leak_cd",), ("echo",)]))
        @settings(max_examples=80, deadline=None)
        def check(protocol, others):
            assume(make_semibundle(protocol, 1).secret_constants)
            protocols = [protocol] + [load(n) for n in others]
            config = AnalysisConfig(budget=SolverBudget(max_nodes=2_000))
            cut = check_secrecy(protocols, config)
            with placing_every_receive():
                whole = check_secrecy(protocols, config)
            assume("inconclusive" not in (cut.verdict, whole.verdict))
            assert cut.verdict == whole.verdict
            if cut.attack is not None:
                assert verify_solution(ConstraintSequence(cut.attack.constraints), cut.attack.substitution) is True
            compared.append(cut.stats["nodes"] < whole.stats["nodes"])

        check()
        # draws that compared two definite verdicts; among them those that
        # the cut made shorter
        assert len(compared) >= 40
        assert sum(compared) >= 5
