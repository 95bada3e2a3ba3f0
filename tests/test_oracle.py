"""Ground derivation closure and solver cross-validation."""

import functools
import itertools
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from test_solver import ATTACK_ANALYSES, load
from xorsleuth import oracle
from xorsleuth.oracle import (
    GroundKnowledge,
    NonGround,
    _well_sorted,
    derivable,
    dy_closure,
    verify_solution,
)
from xorsleuth.protocol import ATTACKER, PK_EPS
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
    SortError,
    Substitution,
    Var,
    Xor,
    ZERO,
    normalize,
    subterms,
    summands,
    term_key,
    to_text,
    vars_of,
)

a = Const("a", Sort.AGENT)
b = Const("b", Sort.AGENT)
s = Const("s", Sort.NONCE)
na = Const("na", Sort.NONCE)
k = Const("k", Sort.KEY)
k2 = Const("k2", Sort.KEY)
one = Const("1", Sort.DATA)
X = Var("X", Sort.DATA)

IIK = (ATTACKER, ZERO, normalize(Pk(ATTACKER)))


class TestClosure:
    def test_xor_of_two_knowns(self):
        know = dy_closure([a, b], [Xor((a, b))], rounds=1)
        assert normalize(Xor((a, b))) in know

    def test_symmetric_decryption_with_known_key(self):
        know = dy_closure([SEnc(s, k), k], [s])
        assert s in know

    def test_ciphertext_alone_never_opens(self):
        # restricted construction reaches a true fixed point, so this holds
        # for arbitrarily many rounds, not just the ones we ran
        assert not derivable(s, [SEnc(s, k)], rounds=50)
        know = dy_closure([SEnc(s, k)], [s], rounds=2)
        assert s not in know

    def test_unpairing(self):
        nested = Seq((a, Seq((b, s))))
        for part in (a, b, s):
            assert derivable(part, [nested])

    def test_asymmetric_decryption_only_attacker_key(self):
        mine = PEnc(s, Pk(ATTACKER))
        theirs = PEnc(na, Pk(a))
        assert derivable(s, [mine, theirs])
        assert not derivable(na, [mine, theirs])

    def test_zero_always_known(self):
        assert ZERO in dy_closure([], [], rounds=0)

    def test_contains_normalizes_queries(self):
        know = dy_closure([a], [], rounds=0)
        assert normalize(Xor((a, ZERO))) in know

    def test_key_arriving_later_opens_old_ciphertext(self):
        ct = SEnc(s, k)
        pair = Seq((k, b))
        assert derivable(s, [ct, pair])

    def test_xor_chain_through_intermediates(self):
        x = Const("x", Sort.DATA)
        y = Const("y", Sort.DATA)
        z = Const("z", Sort.DATA)
        assert derivable(x, [Xor((x, y, z)), y, z])
        assert not derivable(x, [Xor((x, y, z)), y])

    def test_xor_key_reassembled(self):
        key = normalize(Xor((k, k2)))
        assert derivable(s, [SEnc(s, key), k, k2])
        assert not derivable(s, [SEnc(s, key), k])

    def test_cancellation_recovers_ciphertext(self):
        ct = normalize(SEnc(s, k))
        blinded = normalize(Xor((ct, one)))
        assert derivable(s, [blinded, one, k])

    def test_construction_restricted_to_goal_subterms(self):
        # the pair [s, k] is a goal subterm, so construction may build it
        goal = SEnc(Seq((s, k)), k)
        assert derivable(goal, [s, k])

    def test_size_cap_marks_closure(self):
        # zero, the four terms, s and the four sums: ten terms in all
        sums = [Xor((a, b)), Xor((a, k)), Xor((b, k)), Xor((a, b, k))]
        know = dy_closure([SEnc(s, k), k, a, b], sums, rounds=6, size_cap=8)
        assert know.capped and not know.complete
        assert not dy_closure([SEnc(s, k), k, a, b], sums, rounds=6, size_cap=10).capped

    def test_non_ground_rejected(self):
        with pytest.raises(NonGround):
            dy_closure([X], [])

    def test_non_ground_goal_rejected(self):
        # a goal with a variable is no question the closure answers: it is
        # not refuted, and no closure of it is complete
        with pytest.raises(NonGround):
            derivable(X, [a])
        with pytest.raises(NonGround):
            dy_closure([a], [Seq((a, X))])

    def test_deterministic(self):
        targets = [Xor((a, b)), Seq((a, s))]
        k1 = dy_closure([a, b, s], targets, rounds=2)
        kk = dy_closure([a, b, s], targets, rounds=2)
        assert k1.sorted_terms() == kk.sorted_terms()


def _pairwise_xor_fixpoint(initial, max_size=4096):
    """Reference: close a set under binary XOR only, by brute force."""
    known = {normalize(t) for t in initial} | {ZERO}
    while True:
        new = {
            normalize(Xor((t1, t2)))
            for t1, t2 in itertools.combinations(sorted(known, key=term_key), 2)
        } - known
        if not new:
            return known
        known |= new
        assert len(known) <= max_size


class TestClosureProperties:
    @given(st.lists(st.sampled_from([a, b, s, k, one]), min_size=0, max_size=2))
    @settings(max_examples=25, deadline=None)
    def test_monotone_in_initial_knowledge(self, extra):
        base = [SEnc(s, k), a]
        targets = [Xor((a, b)), Seq((a, s)), Xor((s, one)), SEnc(b, k)]
        small = dy_closure(base, targets, rounds=2)
        big = dy_closure(base + extra, targets, rounds=2)
        assert small.terms <= big.terms

    @given(st.lists(st.sampled_from([a, b, s, k, one, Xor((a, b)), Seq((a, s))]), min_size=1, max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_initial_terms_always_derivable(self, initial):
        for t in initial:
            assert derivable(t, initial)

    @given(
        st.lists(st.sampled_from([a, b, s, Xor((a, b)), Xor((s, one)), one]), min_size=1, max_size=4),
        st.sampled_from([a, b, s, one, Xor((a, s)), Xor((b, one, s))]),
    )
    @settings(max_examples=40, deadline=None)
    def test_span_query_matches_literal_pairwise_closure(self, initial, goal):
        # the algebraic XOR step must agree with literally XOR-ing pairs
        literal = _pairwise_xor_fixpoint(initial)
        assert derivable(goal, initial, rounds=6) == (normalize(goal) in literal)


class TestVerifySolution:
    def test_combined_protocol_attack_substitution(self):
        key = normalize(Sh(a, Const("s", Sort.AGENT)))
        ct = normalize(SEnc(Seq((one, na)), key))
        T = IIK + (key, ct)
        cs = ConstraintSequence((Constraint(na, T),))
        assert verify_solution(cs, Substitution())

    def test_empty_solution_on_underivable_target(self):
        cs = ConstraintSequence((Constraint(a, (b,)),))
        assert not verify_solution(cs, Substitution())

    def test_every_constraint_checked_not_just_last(self):
        good = Constraint(a, (a,))
        bad = Constraint(s, (b,))
        cs = ConstraintSequence((bad, good))
        assert not verify_solution(cs, Substitution())

    def test_leftover_variables_become_attacker_choices(self):
        # X : {eps} — solver leaves X free; grounding X := eps passes
        cs = ConstraintSequence((Constraint(X, (ATTACKER,)),))
        assert verify_solution(cs, Substitution())

    def test_substitution_applied_to_term_sets_too(self):
        B = Var("B", Sort.AGENT)
        ct = normalize(PEnc(s, Pk(B)))
        cs = ConstraintSequence((Constraint(s, (ct,)),))
        assert verify_solution(cs, Substitution({B: ATTACKER}))
        assert not verify_solution(cs, Substitution({B: a}))

    def test_chained_bindings_checked_at_their_resolved_values(self):
        # X := seq(Y, na) with Y := na makes X seq(na, na), derivable from
        # {na}; applying the bindings once would leave Y to the attacker's
        # choice and check seq(eps, na), which {na} does not give
        Y = Var("Y", Sort.NONCE)
        cs = ConstraintSequence((Constraint(X, (na,)),))
        assert verify_solution(cs, Substitution({X: Seq((Y, na)), Y: na})) is True
        assert verify_solution(cs, Substitution({X: Seq((ATTACKER, na))})) is False

    @pytest.mark.parametrize(
        "sort,value,well_sorted",
        [
            (Sort.NONCE, na, True),
            (Sort.NONCE, one, True),
            (Sort.NONCE, a, False),
            (Sort.NONCE, Seq((a, na)), True),
            (Sort.DATA, a, True),
            (Sort.AGENT, b, True),
            (Sort.AGENT, one, False),
            (Sort.AGENT, Seq((a, b)), False),
            (Sort.TAG, Const("t", Sort.TAG), True),
            (Sort.TAG, a, False),
        ],
    )
    def test_mis_sorted_binding_refuted(self, sort, value, well_sorted):
        # the target is derivable either way: only the sort decides
        V = Var("V", sort)
        cs = ConstraintSequence((Constraint(V, (value, ATTACKER)),))
        assert verify_solution(cs, Substitution({V: value})) is well_sorted

    def test_sorts_checked_at_resolved_values(self):
        # N := Y and Y := a are each well sorted, but N's value is an agent
        N, Y = Var("N", Sort.NONCE), Var("Y", Sort.DATA)
        cs = ConstraintSequence((Constraint(N, (a, na)),))
        assert verify_solution(cs, Substitution({N: Y, Y: a})) is False
        assert verify_solution(cs, Substitution({N: Y, Y: na})) is True

    @pytest.mark.parametrize("cyclic", ["self", "through"])
    def test_cyclic_substitution_is_an_error(self, cyclic):
        # no substitution solves X = seq(X, na)
        Y = Var("Y", Sort.DATA)
        bindings = {X: Seq((X, na))} if cyclic == "self" else {X: Seq((Y, na)), Y: X}
        cs = ConstraintSequence((Constraint(X, (na, ATTACKER)),))
        with pytest.raises(SortError, match="cyclic"):
            verify_solution(cs, Substitution(bindings))



# s under two layers of encryption: the closure opens one layer per round
LAYERED = (SEnc(SEnc(s, k2), k), k, k2)
# construction restricted as `derivable` restricts it for the goal s
TARGETS = (s, *LAYERED)


class TestUndecided:
    """A closure cut by its rounds or its size cap refutes nothing."""

    def test_fixed_point_marks_closure_complete(self):
        know = dy_closure(LAYERED, compose_targets=TARGETS)
        assert know.complete and not know.capped
        assert s in know

    def test_rounds_cut_leaves_goal_undecided(self):
        know = dy_closure(LAYERED, rounds=1, compose_targets=TARGETS)
        assert not know.complete and not know.capped
        assert derivable(s, LAYERED, rounds=1) is None
        assert derivable(s, LAYERED) is True

    def test_size_cap_leaves_goal_undecided(self):
        # the three terms and zero fill the cap: the first new term overflows it
        know = dy_closure(LAYERED, size_cap=4, compose_targets=TARGETS)
        assert know.capped and not know.complete
        assert derivable(s, LAYERED, size_cap=4) is None

    def test_refuted_only_at_the_fixed_point(self):
        # one round already adds nothing, so one round refutes
        assert derivable(s, [SEnc(s, k)], rounds=1) is False
        assert derivable(s, [SEnc(s, k)], rounds=0) is None
        assert derivable(na, LAYERED) is False

    def test_verify_solution_is_three_valued(self):
        layered = Constraint(s, LAYERED)
        # one round reaches the fixed point without na
        underivable = Constraint(na, (SEnc(na, k),))
        assert verify_solution(ConstraintSequence((layered,)), Substitution()) is True
        assert verify_solution(ConstraintSequence((layered,)), Substitution(), rounds=1) is None
        assert verify_solution(ConstraintSequence((layered,)), Substitution(), size_cap=4) is None
        # an underivable target refutes, whatever the others leave open
        both = ConstraintSequence((layered, underivable))
        assert verify_solution(both, Substitution(), rounds=1) is False

def ground_substitutions(variables, pool):
    """Every total mapping of the variables into the pool."""
    variables = sorted(variables, key=term_key)
    for values in itertools.product(pool, repeat=len(variables)):
        yield Substitution(dict(zip(variables, values)))


def agreement_cases():
    """Small constraint sequences with known solvable/unsolvable structure."""
    sh_ab = normalize(Sh(a, b))
    cases = [
        ConstraintSequence((Constraint(na, IIK + (na,)),)),
        ConstraintSequence((Constraint(na, IIK + (SEnc(na, k), k)),)),
        ConstraintSequence((Constraint(na, IIK + (SEnc(na, k),)),)),
        ConstraintSequence((Constraint(Xor((a, b)), IIK + (a, b)),)),
        ConstraintSequence((Constraint(na, IIK + (Xor((na, one)), one)),)),
        ConstraintSequence((Constraint(na, IIK + (normalize(Pk(a)),)),)),
        ConstraintSequence((Constraint(na, IIK + (PEnc(na, Pk(ATTACKER)),)),)),
        ConstraintSequence((Constraint(na, IIK + (PEnc(na, Pk(a)),)),)),
        ConstraintSequence((Constraint(s, IIK + (SEnc(s, sh_ab), sh_ab)),)),
        ConstraintSequence((Constraint(s, IIK + (SEnc(s, sh_ab),)),)),
        ConstraintSequence(
            (
                Constraint(Seq((a, na)), IIK + (a, na)),
                Constraint(s, IIK + (a, na, SEnc(s, Xor((na, one))), one)),
            )
        ),
        ConstraintSequence((Constraint(X, IIK),)),
        ConstraintSequence((Constraint(PEnc(X, Pk(ATTACKER)), IIK + (a,)),)),
        ConstraintSequence((Constraint(na, IIK + (SEnc(na, X),)),)),
        ConstraintSequence((Constraint(na, IIK + (SEnc(na, X), k)),)),
    ]
    return cases


class TestAgreement:
    POOL = (ATTACKER, a, k)

    @pytest.mark.parametrize("cs", agreement_cases(), ids=lambda c: to_text(c.constraints[0].target)[:40])
    def test_solver_and_oracle_agree(self, cs):
        res = satisfiable(cs, SolverBudget())
        if res.status is SolveStatus.SATISFIABLE:
            sigma = res.solution()[0]
            assert verify_solution(cs, sigma), "solver said SAT but oracle rejects"
        elif res.status is SolveStatus.UNSATISFIABLE:
            free = set()
            for c in cs.constraints:
                free |= vars_of(c.target)
                for t in c.term_set:
                    free |= vars_of(t)
            for sigma in ground_substitutions(free, self.POOL):
                assert not verify_solution(cs, sigma), (
                    f"solver said UNSAT but {sigma.items()} passes the oracle"
                )
        else:
            pytest.fail("budget exhausted on an agreement-corpus instance")


# -- the closure and `verify_solution` against their earlier, rescanning forms --


class _ReferenceFull(Exception):
    pass


def reference_dy_closure(initial, compose_targets, rounds=6, size_cap=20_000):
    """`dy_closure` as it was before it kept its basis across rounds: every
    round rescans all of ``known``, sorting it for decryption and twice in
    `reference_xor_span_extract`, and reduces every row afresh."""
    known = {normalize(t) for t in initial}
    for t in known:
        if vars_of(t):
            raise NonGround(to_text(t))
    known.add(ZERO)
    targets = set()
    for t in compose_targets:
        targets.update(subterms(normalize(t)))
    capped = False
    complete = False
    recent = set(known)

    for _ in range(rounds):
        if len(known) > size_cap:
            capped = True
            break
        frontier = set()

        def add(t):
            t = normalize(t)
            if t not in known:
                frontier.add(t)
                if len(known) + len(frontier) > size_cap:
                    raise _ReferenceFull

        try:
            for t in sorted(recent, key=term_key):
                if isinstance(t, Seq):
                    for item in t.items:
                        add(item)
                elif isinstance(t, PEnc) and t.key == PK_EPS:
                    add(t.plain)
            for t in sorted(known, key=term_key):
                if isinstance(t, SEnc) and (t in recent or t.key in recent) and t.key in known:
                    add(t.plain)
            for t in reference_xor_span_extract(known, targets):
                add(t)
            for t in sorted(targets, key=term_key):
                if t in known:
                    continue
                if isinstance(t, Seq) and all(i in known for i in t.items):
                    add(t)
                elif isinstance(t, SEnc) and t.plain in known and t.key in known:
                    add(t)
                elif isinstance(t, PEnc) and t.plain in known and t.key in known:
                    add(t)
        except _ReferenceFull:
            capped = True

        if not frontier:
            complete = not capped
            break
        known |= frontier
        recent = frontier
        if capped:
            break

    return GroundKnowledge(frozenset(known), capped, complete)


def reference_xor_span_extract(known, targets):
    """Members of the GF(2) span of `known` that are single units or targets,
    from a basis built afresh."""
    units = {}
    for t in sorted(known, key=term_key):
        for u in summands(t):
            units.setdefault(u, len(units))

    basis = {}

    def reduce(vec):
        while vec:
            lead = vec.bit_length() - 1
            row = basis.get(lead)
            if row is None:
                return vec
            vec ^= row
        return 0

    for t in sorted(known, key=term_key):
        vec = 0
        for u in summands(t):
            vec ^= 1 << units[u]
        vec = reduce(vec)
        if vec:
            basis[vec.bit_length() - 1] = vec

    out = []
    for u, idx in units.items():
        if u not in known and reduce(1 << idx) == 0:
            out.append(u)
    for t in sorted(targets, key=term_key):
        if t in known:
            continue
        tu = summands(t)
        if any(u not in units for u in tu):
            continue
        vec = 0
        for u in tu:
            vec ^= 1 << units[u]
        if reduce(vec) == 0:
            out.append(t)
    return sorted(out, key=term_key)


def reference_derivable(goal, initial, rounds=6, size_cap=20_000):
    goal = normalize(goal)
    initial = [normalize(t) for t in initial]
    k = reference_dy_closure(initial, [goal, *initial], rounds, size_cap)
    if goal in k:
        return True
    return False if k.complete else None


def reference_verify_solution(cs, solution, rounds=6, size_cap=20_000):
    """`verify_solution` as it was before it substituted each distinct term
    once: the leftover scan applies the solution, and every constraint's
    terms are then instantiated by its composition with the attacker's atoms;
    the closures are `reference_dy_closure`'s."""
    solution = solution.close()
    if not all(_well_sorted(v, t) for v, t in solution.items()):
        return False
    leftover = {}
    for c in cs.constraints:
        for t in (c.target, *c.term_set):
            for v in vars_of(solution.apply(t)):
                if v not in leftover:
                    leftover[v] = ATTACKER if v.sort in (Sort.AGENT, Sort.DATA) else Const(ATTACKER.name, v.sort)
    sigma = solution.compose(Substitution(leftover)) if leftover else solution
    atoms = sorted(set(leftover.values()), key=term_key)
    outcome = True
    for c in cs.constraints:
        goal = sigma.apply(c.target)
        terms = [*atoms, *(sigma.apply(t) for t in c.term_set)]
        for t in (goal, *terms):
            if vars_of(t):
                raise NonGround(to_text(t))
        found = reference_derivable(goal, terms, rounds, size_cap)
        if found is False:
            return False
        if found is None:
            outcome = None
    return outcome


def assert_same_closure(initial, targets, rounds=6, size_cap=20_000):
    got = dy_closure(initial, targets, rounds, size_cap)
    want = reference_dy_closure(initial, targets, rounds, size_cap)
    assert (got.terms, got.capped, got.complete) == (want.terms, want.capped, want.complete)


@functools.lru_cache(maxsize=None)
def attack_traces():
    """Each analysis's attack as `analyze --oracle-verify` checks it."""
    traces = []
    for names, sessions, secrets in ATTACK_ANALYSES:
        result = check_secrecy([load(n) for n in names], AnalysisConfig(sessions=sessions, secrets=secrets))
        assert result.verdict == "attack", names
        traces.append(ConstraintSequence(result.attack.constraints, result.attack.substitution))
    return tuple(traces)


def trace_closures(cs, rounds=6, size_cap=20_000):
    """The arguments of every closure `verify_solution` runs on the trace."""
    calls = []
    real = oracle.dy_closure

    def recording(initial, compose_targets, rounds, size_cap):
        initial, compose_targets = tuple(initial), tuple(compose_targets)
        calls.append((initial, compose_targets, rounds, size_cap))
        return real(initial, compose_targets, rounds, size_cap)

    with mock.patch.object(oracle, "dy_closure", recording):
        verify_solution(cs, cs.subst, rounds, size_cap)
    return calls


ATOMS = (a, b, s, one, ATTACKER)
KEYS = (k, k2, normalize(Xor((k, k2))), normalize(Xor((k, one))))
PUBLIC_KEYS = (PK_EPS, normalize(Pk(a)))


def drawn_terms():
    """Ground terms built from seq, senc, penc and xor over a few atoms and
    keys, with symmetric keys that may be XOR sums or compound terms and
    public keys that include the attacker's own."""
    leaves = st.sampled_from(ATOMS + KEYS)
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.lists(inner, min_size=1, max_size=3).map(lambda items: normalize(Seq(tuple(items)))),
            st.tuples(inner, st.one_of(st.sampled_from(KEYS), inner)).map(lambda pair: normalize(SEnc(*pair))),
            st.tuples(inner, st.sampled_from(PUBLIC_KEYS)).map(lambda pair: normalize(PEnc(*pair))),
            st.lists(inner, min_size=2, max_size=3).map(lambda items: normalize(Xor(tuple(items)))),
        ),
        max_leaves=8,
    )


@st.composite
def drawn_knowledge(draw):
    """A few drawn terms and some of their subterms, so that keys, XOR
    partners and parts of sequences are often known beside the terms that
    hold them."""
    terms = draw(st.lists(drawn_terms(), min_size=1, max_size=4))
    parts = sorted({p for t in terms for p in subterms(t)}, key=term_key)
    return terms + draw(st.lists(st.sampled_from(parts), max_size=4))


class TestClosureAgainstReference:
    """The incremental closure makes the same `add` calls in the same order
    as the rescanning one, so it reaches the same terms and is cut by the
    size cap at the same term."""

    @given(
        drawn_knowledge(),
        st.lists(drawn_terms(), max_size=3),
        # `derivable` makes the initial terms targets; without them, units
        # found in the span are not all targets
        st.booleans(),
        st.integers(0, 6),
        # mostly caps near the size of a small closure, so that rounds are cut
        st.one_of(st.integers(1, 12), st.integers(1, 40), st.just(20_000)),
    )
    @settings(max_examples=400, deadline=None)
    def test_drawn_sets(self, initial, goals, with_initial, rounds, size_cap):
        assert_same_closure(initial, [*goals, *initial] if with_initial else goals, rounds, size_cap)

    def test_cap_cuts_the_span_in_term_order(self):
        # s gets its bit in round 1, a only in round 2, when both enter the
        # span; the cap keeps one of them, and it is a, the first in term
        # order, though s has the lower bit
        initial = [normalize(Xor((s, k2))), Seq((k2, normalize(Xor((a, k2)))))]
        know = dy_closure(initial, [], size_cap=5)
        assert know.capped and a in know and s not in know
        assert_same_closure(initial, [], size_cap=5)

    @pytest.mark.parametrize("rounds,size_cap", [(6, 20_000), (1, 20_000), (2, 20_000), (6, 1), (6, 12), (6, 40)])
    def test_attack_trace_closures(self, rounds, size_cap):
        calls = [call for cs in attack_traces() for call in trace_closures(cs, rounds, size_cap)]
        assert len(calls) >= len(ATTACK_ANALYSES)
        for call in calls:
            assert_same_closure(*call)


NEVER = Const("never", Sort.NONCE)


def with_last_target(cs, target):
    *head, last = cs.constraints
    return ConstraintSequence((*head, Constraint(target, last.term_set)), cs.subst)


class TestVerifyAgainstReference:
    """`verify_solution` gives its earlier form's three-valued answer."""

    @pytest.mark.parametrize("i", range(len(ATTACK_ANALYSES)))
    def test_attack_traces(self, i):
        cs = attack_traces()[i]
        assert verify_solution(cs, cs.subst) is reference_verify_solution(cs, cs.subst) is True
        never = with_last_target(cs, NEVER)
        assert verify_solution(never, never.subst) is reference_verify_solution(never, never.subst) is False
        for bounds in ({"rounds": 1}, {"size_cap": 1}):
            for trace in (cs, never):
                assert verify_solution(trace, trace.subst, **bounds) is reference_verify_solution(
                    trace, trace.subst, **bounds
                )

    def test_bounds_leave_some_trace_undecided(self):
        # the comparison above meets None, not only True and False
        answers = {reference_verify_solution(cs, cs.subst, size_cap=1) for cs in attack_traces()}
        assert None in answers
