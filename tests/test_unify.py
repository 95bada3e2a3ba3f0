"""Unification: free theory, XOR theory, purification and the combined search."""

import itertools
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from xorsleuth import solver, unify
from xorsleuth.dsl import parse_protocol_file
from xorsleuth.solver import AnalysisConfig, check_secrecy
from xorsleuth.terms import (
    ZERO,
    PEnc,
    Pk,
    SEnc,
    Seq,
    Sh,
    Sort,
    Substitution,
    Theory,
    Var,
    Xor,
    Zero,
    children,
    const,
    equal_mod,
    normalize,
    penc,
    pk,
    seq,
    senc,
    sh,
    subterms,
    term_key,
    var,
    vars_of,
    with_children,
    xor,
)
from xorsleuth.unify import (
    Equation,
    MixedTheoryTerm,
    NonPureAcun,
    PartitionSpaceExceeded,
    UnificationProblem,
    binding_ok,
    bsca_unify,
    enumerate_identifications,
    is_instance_of,
    partition_to_subst,
    purify,
    subst_well_sorted,
    unify_acun,
    unify_std,
    unify_sua,
)

from test_acceptance import criterion_2_problems, criterion_3_problems

a = const("a", Sort.AGENT)
b = const("b", Sort.AGENT)
c = const("c", Sort.DATA)
d = const("d", Sort.DATA)
e = const("e", Sort.DATA)
n_a = const("n_a", Sort.NONCE)
one = const("1", Sort.DATA)
two = const("2", Sort.DATA)
t1 = const("t1", Sort.TAG)
t5 = const("t5", Sort.TAG)
A = var("A", Sort.AGENT)
B = var("B", Sort.AGENT)
N_B = var("N_B", Sort.NONCE)
X = var("X", Sort.DATA)
Y = var("Y", Sort.DATA)
Z = var("Z", Sort.DATA)
W = var("W", Sort.DATA)


def sua_problem(*pairs):
    return UnificationProblem(tuple(Equation(s, t, Theory.SUA) for s, t in pairs))


class TestUnifyStd:
    def test_basic_decomposition(self):
        (s,) = unify_std([(penc(seq(A, X), pk(b)), penc(seq(a, n_a), pk(b)))])
        assert s.get(A) == a and s.get(X) == n_a

    def test_sh_commutes(self):
        (s,) = unify_std([(sh(A, b), sh(b, a))])
        assert s == Substitution({A: a})

    def test_sh_two_most_general_unifiers(self):
        got = set(unify_std([(sh(A, B), sh(a, b))]))
        assert got == {Substitution({A: a, B: b}), Substitution({A: b, B: a})}
        # no renaming of Z and W turns one into the other: A = W, B = Z
        # with Z ≠ W is an instance of the second only
        Zag, Wag = var("Z", Sort.AGENT), var("W", Sort.AGENT)
        got = set(unify_std([(sh(A, B), sh(Zag, Wag))]))
        assert got == {Substitution({A: Zag, B: Wag}), Substitution({A: Wag, B: Zag})}

    def test_sh_renaming_branches_pruned(self):
        # the two argument orders give {A ↦ Z, W ↦ Z} and {A ↦ W, Z ↦ W}
        Zag, Wag = var("Z", Sort.AGENT), var("W", Sort.AGENT)
        got = unify_std([(sh(A, A), sh(Zag, Wag))])
        assert len(got) == 1

    def test_constant_clash(self):
        assert unify_std([(a, b)]) == ()
        assert unify_std([(seq(c, d), seq(d, c))]) == ()

    def test_arity_mismatch(self):
        assert unify_std([(seq(c, d), seq(c, d, e))]) == ()

    def test_occurs_check(self):
        assert unify_std([(X, seq(X, c))]) == ()

    def test_rejects_xor(self):
        with pytest.raises(MixedTheoryTerm):
            unify_std([(X, xor(c, d))])
        with pytest.raises(MixedTheoryTerm):
            unify_std([(penc(ZERO, pk(a)), X)])

    def test_sort_discipline(self):
        assert unify_std([(A, seq(c, d))]) == ()  # agent variable stays atomic
        assert unify_std([(A, c)]) == ()  # agent variable vs data constant
        (s,) = unify_std([(X, seq(c, d))])  # data variable takes compounds
        assert s.get(X) == seq(c, d)
        (s,) = unify_std([(X, A)])  # data variable narrows to the agent one
        assert s.get(X) == A

    def test_system_threads_bindings(self):
        (s,) = unify_std([(seq(A, A), seq(B, a))])
        assert s.apply(A) == a and s.apply(B) == a

    def test_soundness_of_every_branch(self):
        eqs = [(sh(A, B), sh(b, a)), (seq(X, B), seq(c, B))]
        for s in unify_std(eqs):
            for l, r in eqs:
                assert equal_mod(Theory.STD, s.apply(l), s.apply(r))


class TestUnifyAcun:
    def test_solves_for_variable(self):
        (s,) = unify_acun([(xor(X, c), d)])
        assert s == Substitution({X: xor(c, d)})

    def test_variable_pair(self):
        (s,) = unify_acun([(xor(X, Y), ZERO)])
        assert s.apply(X) == s.apply(Y)

    def test_identity_gives_empty_unifier(self):
        (s,) = unify_acun([(xor(c, d), xor(d, c))])
        assert not s

    def test_ground_failure(self):
        assert unify_acun([(c, d)]) == ()
        assert unify_acun([(xor(X, c, d), X)]) == ()

    def test_system(self):
        (s,) = unify_acun([(xor(X, Y), c), (Y, d)])
        assert s.apply(X) == xor(c, d) and s.apply(Y) == d

    def test_free_variables_stay_unbound(self):
        (s,) = unify_acun([(xor(X, Y), c)])
        assert len(s.domain()) == 1

    def test_rejects_non_pure(self):
        with pytest.raises(NonPureAcun):
            unify_acun([(X, seq(c, d))])
        with pytest.raises(NonPureAcun):
            unify_acun([(xor(X, penc(c, pk(a))), d)])

    def test_completeness_against_ground_search(self):
        # values are XOR-combinations of two atoms: 0, c, d, c+d
        values = [ZERO, c, d, xor(c, d)]
        pool = [X, Y, c, d, ZERO]
        rng_terms = []
        for k in (1, 2, 3):
            for combo in itertools.combinations_with_replacement(pool, k):
                rng_terms.append(normalize(Xor(tuple(combo))) if k > 1 else combo[0])
        for lhs, rhs in itertools.product(rng_terms, repeat=2):
            has_ground_solution = any(
                equal_mod(
                    Theory.ACUN,
                    Substitution({X: vx, Y: vy}).apply(lhs),
                    Substitution({X: vx, Y: vy}).apply(rhs),
                )
                for vx, vy in itertools.product(values, repeat=2)
            )
            unifiers = unify_acun([(lhs, rhs)])
            assert bool(unifiers) == has_ground_solution, f"{lhs} vs {rhs}"
            for s in unifiers:
                assert equal_mod(Theory.ACUN, s.apply(lhs), s.apply(rhs))


class TestPurify:
    def test_pure_equation_passes_through(self):
        res = purify(sua_problem((seq(a, X), seq(B, c))))
        assert len(res.equations) == 1
        assert res.equations[0].theory is Theory.STD
        assert not res.abstraction

    def test_alien_under_free_constructor(self):
        res = purify(sua_problem((X, seq(xor(c, d), e))))
        assert len(res.equations) == 2
        alien, main = res.equations
        assert alien.theory is Theory.ACUN and alien.right == xor(c, d)
        assert main.theory is Theory.STD
        assert isinstance(alien.left, Var)

    def test_identical_aliens_share_a_variable(self):
        res = purify(sua_problem((seq(xor(c, d), xor(c, d)), Y)))
        (main,) = [eq for eq in res.equations if eq.theory is Theory.STD]
        assert len(res.abstraction) == 1
        assert main.left.items[0] == main.left.items[1]

    def test_running_example_shape(self):
        lhs = penc(seq(one, n_a), pk(B))
        rhs = xor(penc(seq(one, N_B), pk(a)), seq(two, A), seq(two, b))
        res = purify(sua_problem((lhs, rhs)))
        eqs = res.equations
        assert len(eqs) == 5
        std_eqs = [q for q in eqs if q.theory is Theory.STD]
        acun_eqs = [q for q in eqs if q.theory is Theory.ACUN]
        assert len(std_eqs) == 4 and len(acun_eqs) == 1
        # four abstraction equations bind fresh variables to the alien subterms
        assert {q.right for q in std_eqs} == {
            penc(seq(one, n_a), pk(B)),
            penc(seq(one, N_B), pk(a)),
            seq(two, A),
            seq(two, b),
        }
        assert all(isinstance(q.left, Var) for q in std_eqs)
        # the main equation relates the abstraction of the left side to an
        # XOR of the other three abstraction variables
        (main,) = acun_eqs
        assert isinstance(main.left, Var)
        assert isinstance(main.right, Xor) and len(main.right.items) == 3
        assert all(isinstance(it, Var) for it in main.right.items)
        # the first emitted equation abstracts the left-hand encryption
        assert std_eqs[0].right == lhs and std_eqs[0].left == main.left

    def test_abstraction_variables_avoid_problem_names(self):
        v0, v2 = var("#v0", Sort.DATA), var("#v2", Sort.NONCE)
        res = purify(sua_problem((seq(v0, xor(X, v2)), xor(senc(c, d), seq(d, e)))))
        assert [v.name for v, _ in res.abstraction] == ["#v1", "#v3", "#v4", "#v5"]


class TestIdentifications:
    def test_counts_follow_bell_numbers(self):
        vs = [X, Y, Z]
        parts = list(enumerate_identifications(vs))
        assert len(parts) == 5
        assert parts[0] == ((X,), (Y,), (Z,))  # identity first
        assert parts[-1] == ((X, Y, Z),)
        assert len(list(enumerate_identifications([X, Y, Z, W]))) == 15

    def test_empty_and_singleton(self):
        assert list(enumerate_identifications([])) == [()]
        assert list(enumerate_identifications([X])) == [((X,),)]

    def test_limit(self):
        vs = [var(f"V{i}") for i in range(13)]
        with pytest.raises(PartitionSpaceExceeded):
            list(enumerate_identifications(vs))

    def test_partition_to_subst(self):
        s = partition_to_subst(((X, Y), (Z,)))
        assert s.apply(Y) == X and s.apply(Z) == Z


class TestBsca:
    def test_running_example(self):
        lhs = penc(seq(one, n_a), pk(B))
        rhs = xor(penc(seq(one, N_B), pk(a)), seq(two, A), seq(two, b))
        unifiers, trace = bsca_unify(sua_problem((lhs, rhs)))
        expected = Substitution({B: a, N_B: n_a, A: b})
        assert unifiers == (expected,)
        assert len(trace.gamma1) == 5
        assert trace.complete
        # the successful identification merges the two encryption abstractions
        # and the two sequence abstractions
        assert sorted(len(block) for block in trace.var_idp) == [2, 2]
        assert trace.gamma4_2 == ()  # XOR part became trivial and dropped out
        for eq in (Equation(lhs, rhs, Theory.SUA),):
            assert equal_mod(Theory.SUA, expected.apply(eq.left), expected.apply(eq.right))

    def test_pure_std_problem(self):
        unifiers, trace = bsca_unify(sua_problem((seq(A, c), seq(a, c))))
        assert unifiers == (Substitution({A: a}),)
        assert (trace.shortcut, trace.configs_tried, trace.complete) == (None, 0, True)

    def test_pure_acun_problem(self):
        unifiers, trace = bsca_unify(sua_problem((X, xor(c, d))))
        assert unifiers == (Substitution({X: xor(c, d)}),)
        assert (trace.shortcut, trace.configs_tried, trace.complete) == (None, 0, True)

    def test_free_systems_pruned_together(self):
        # each sh argument order is a free system of its own; the order
        # that pairs A and B with a gives an instance of the other's unifier
        assert unify_sua(sh(A, a), sh(a, B)) == ((Substitution({A: B}),), True)
        # two sh orders times three summand matchings: six free systems with
        # four distinct unifiers, three of them instances of the fourth
        U, V, k = var("U", Sort.DATA), var("V", Sort.DATA), const("k", Sort.KEY)
        lhs = seq(sh(A, a), xor(senc(U, k), senc(c, k)))
        rhs = seq(sh(a, B), xor(senc(c, k), senc(V, k)))
        assert unify_sua(lhs, rhs) == ((Substitution({A: B, U: V}),), True)

    def test_mixed_solved_through_shared_variable(self):
        # [X,c] against [c+d,c]: X must take the XOR value
        unifiers, trace = bsca_unify(sua_problem((seq(X, c), seq(xor(c, d), c))))
        assert unifiers == (Substitution({X: xor(c, d)}),)

    def test_definitive_failure_is_not_an_error(self):
        unifiers, trace = bsca_unify(sua_problem((penc(c, pk(a)), xor(c, d))))
        assert unifiers == ()
        assert trace.complete

    def test_budget_exhaustion_is_incomplete(self, monkeypatch):
        lhs = penc(seq(one, n_a), pk(B))
        rhs = xor(penc(seq(one, N_B), pk(a)), seq(two, A), seq(two, b))
        monkeypatch.setattr(unify, "_MAX_CONFIGS", 1)
        unifiers, trace = bsca_unify(sua_problem((lhs, rhs)))
        assert unifiers == () and not trace.complete

    def test_identifications_are_drawn_lazily(self, monkeypatch):
        # ten XOR variables, X0..X8 and the abstraction of seq(a, Y), have
        # Bell(10) = 115,975 identifications; the budget reaches a few
        drawn = [0]
        every = unify.enumerate_identifications

        def counting(variables):
            for partition in every(variables):
                drawn[0] += 1
                yield partition

        monkeypatch.setattr(unify, "_MAX_CONFIGS", 50)
        monkeypatch.setattr(unify, "enumerate_identifications", counting)
        xs = [var(f"X{i}", Sort.DATA) for i in range(9)]
        _, trace = bsca_unify(sua_problem((xor(*xs, seq(a, Y)), c)))
        assert (trace.configs_tried, trace.complete) == (50, False)
        assert 0 < drawn[0] <= trace.configs_tried

    def test_identification_limit_tries_the_identity_partition_only(self):
        # thirteen XOR variables, X0..X11 and the abstraction of seq(a, Y):
        # over the limit, so only the identity partition is tried, in its
        # two configurations (the abstraction variable solved in either
        # theory), and the search is not complete
        xs = [var(f"X{i}", Sort.DATA) for i in range(12)]
        lhs = xor(*xs, seq(a, Y))
        unifiers, trace = bsca_unify(sua_problem((lhs, c)))
        assert len(xs) + 1 > unify._IDENTIFICATION_LIMIT
        assert (trace.configs_tried, trace.complete) == (2, False)
        assert unifiers and all(len(block) == 1 for block in trace.var_idp)
        for sigma in unifiers:
            assert equal_mod(Theory.SUA, sigma.apply(lhs), c)

    def test_agent_variable_never_bound_to_xor(self):
        unifiers, _ = bsca_unify(sua_problem((A, xor(c, d))))
        assert unifiers == ()

    def test_nilpotent_collapse_found(self):
        # (X + c) unified with zero forces X = c
        unifiers, _ = bsca_unify(sua_problem((xor(X, c), ZERO)))
        assert unifiers == (Substitution({X: c}),)

    def test_xor_inside_encryption(self):
        lhs = penc(xor(X, c), pk(a))
        rhs = penc(xor(d, c), pk(a))
        unifiers, _ = bsca_unify(sua_problem((lhs, rhs)))
        assert Substitution({X: d}) in unifiers
        for s in unifiers:
            assert equal_mod(Theory.SUA, s.apply(lhs), s.apply(rhs))

    def test_problem_names_no_theory_but_sua(self):
        assert UnificationProblem((Equation(X, c),), Theory.SUA) == sua_problem((X, c))
        with pytest.raises(ValueError):
            UnificationProblem((Equation(X, c),), Theory.STD)

    def test_trace_json_round_trip(self):
        _, trace = bsca_unify(sua_problem((seq(X, c), seq(xor(c, d), c))))
        js = trace.to_json_dict()
        assert set(js) >= {"gamma1", "gamma2", "gamma3", "gamma4_1", "gamma4_2",
                           "gamma5_1", "gamma5_2", "beta", "var_idp", "unifiers"}


class TestUnifySua:
    def test_std_route(self):
        unifiers, complete = unify_sua(seq(A, c), seq(a, c))
        assert complete and unifiers == (Substitution({A: a}),)

    def test_budget_swallowed(self, monkeypatch):
        lhs = penc(seq(one, n_a), pk(B))
        rhs = xor(penc(seq(one, N_B), pk(a)), seq(two, A), seq(two, b))
        monkeypatch.setattr(unify, "_MAX_CONFIGS", 1)
        unifiers, complete = unify_sua(lhs, rhs)
        assert unifiers == () and not complete

    def test_variable_named_like_an_abstraction_variable(self):
        # the abstraction of senc(d1, k) must not take the name #v0, which
        # the problem already gives a variable
        v0, k = var("#v0", Sort.DATA), const("k", Sort.KEY)
        d1, d2 = const("d1", Sort.DATA), const("d2", Sort.DATA)
        unifiers, complete = unify_sua(seq(v0, xor(X, d2)), seq(d1, xor(senc(d1, k), d2)))
        assert complete and unifiers == (Substitution({v0: d1, X: senc(d1, k)}),)

    def test_constant_named_like_a_grounding_constant(self):
        # a grounding constant named #c0 would be inverted back together
        # with the problem's own #c0
        c0, k = const("#c0", Sort.DATA), const("k", Sort.KEY)
        unifiers, complete = unify_sua(xor(senc(X, k), Y), xor(senc(c0, k), d))
        assert complete and Substitution({X: c0, Y: d}) in unifiers


# -- randomized soundness sweep ---------------------------------------------------

_pool_atoms = st.sampled_from([a, b, c, d, n_a, A, B, X, Y, N_B])


def _mixed(kids):
    return st.one_of(
        st.tuples(kids, kids).map(lambda p: seq(*p)),
        st.tuples(kids, kids).map(lambda p: normalize(Xor(p))),
        st.tuples(kids).map(lambda p: penc(p[0], pk(a))),
        st.tuples(kids, kids).map(lambda p: senc(p[0], sh(a, b))),
    )


_mixed_terms = st.recursive(_pool_atoms, _mixed, max_leaves=6)


@given(_mixed_terms, _mixed_terms)
@settings(max_examples=120, deadline=None)
def test_every_returned_unifier_validates(t1, t2):
    result = outcome(sua_problem((t1, t2)), max_configs=2000)
    if result is None:
        return
    for s in result[0]:
        assert equal_mod(Theory.SUA, s.apply(t1), s.apply(t2))
        assert s.is_idempotent()


@given(_mixed_terms)
@settings(max_examples=60, deadline=None)
def test_reflexive_problems_unify_with_empty_substitution(t):
    unifiers, _ = bsca_unify(sua_problem((t, t)))
    assert Substitution() in unifiers


def test_is_instance_of():
    general = Substitution({X: seq(Y, c)})
    special = Substitution({X: seq(d, c), Y: d})
    assert is_instance_of(special, general, [X, Y])
    assert not is_instance_of(general, special, [X, Y])


def test_is_instance_of_freezes_the_special_side():
    # {X ↦ Y} is strictly more general than {N_B ↦ Y, X ↦ Y}; the Y that the
    # special side maps X to is a constant of the match, not a pattern
    # variable to bind to N_B afterwards
    general = Substitution({X: Y})
    special = Substitution({N_B: Y, X: Y})
    assert is_instance_of(special, general, [N_B, X, Y])
    assert not is_instance_of(general, special, [N_B, X, Y])
    # X cannot match both X and Y
    assert not is_instance_of(Substitution({Z: X, W: Y}), Substitution({Z: X, W: X}), [Z, W])
    assert not is_instance_of(Substitution({Z: seq(X, c), W: Y}), Substitution({Z: seq(X, c), W: X}), [Z, W])
    assert is_instance_of(Substitution({Z: seq(Y, c), W: Y}), Substitution({Z: seq(X, c), W: X}), [Z, W])


# -- one free walk -------------------------------------------------------------------


def _reference_decompose(s, t):
    """The argument pairs that a free decomposition of ``s = t`` leaves, one
    list per alternative (two for ``sh``), or ``None`` on a clash."""
    ks, kt = children(s), children(t)
    if type(s) is not type(t) or not ks or len(ks) != len(kt):
        return None
    if isinstance(s, Sh):
        return [[(s.left, t.left), (s.right, t.right)], [(s.left, t.right), (s.right, t.left)]]
    return [list(zip(ks, kt))]


def reference_match(pairs):
    """The instance check's earlier one-way match: is there a binding of the
    patterns' variables that makes every pattern equal its target, the
    targets' variables standing for themselves?"""
    stack = [(list(pairs), {})]
    while stack:
        todo, bnd = stack.pop()
        failed = False
        while todo:
            p, t = todo.pop()
            if isinstance(p, Var):
                if p in bnd:
                    if bnd[p] != t:
                        failed = True
                        break
                    continue
                if not binding_ok(p, t):
                    failed = True
                    break
                bnd = dict(bnd)
                bnd[p] = t
                continue
            if p == t and not vars_of(p):
                continue
            alternatives = _reference_decompose(p, t)
            if alternatives is None:
                failed = True
                break
            for alt in alternatives[1:]:
                stack.append((todo + alt, dict(bnd)))
            todo.extend(alternatives[0])
        if not failed:
            return True
    return False


def reference_is_instance_of(special, general, over):
    return reference_match([(general.apply(v), special.apply(v)) for v in over])


def reference_unify_std(equations):
    """The free solver's earlier worklist: it decomposed one constructor at
    a time and bound variables as it reached them, right to left, and
    pruned its unifiers with the earlier match."""
    eqs = [(normalize(s), normalize(t)) for s, t in equations]
    problem_vars = frozenset().union(*(vars_of(s) | vars_of(t) for s, t in eqs))
    solutions = []
    stack = [(eqs, {})]
    while stack:
        todo, bnd = stack.pop()
        failed = False
        while todo:
            s, t = todo.pop()
            if bnd:
                sub = Substitution(bnd)
                s, t = sub.apply(s), sub.apply(t)
            if s == t:
                continue
            if isinstance(s, Var) or isinstance(t, Var):
                if not isinstance(s, Var):
                    s, t = t, s
                if isinstance(t, Var) and not binding_ok(s, t) and binding_ok(t, s):
                    s, t = t, s
                if s in vars_of(t) or not binding_ok(s, t):
                    failed = True
                    break
                upd = Substitution({s: t})
                bnd = {v: upd.apply(u) for v, u in bnd.items()}
                bnd[s] = t
                continue
            alternatives = _reference_decompose(s, t)
            if alternatives is None:
                failed = True
                break
            for alt in alternatives[1:]:
                stack.append((todo + alt, dict(bnd)))
            todo.extend(alternatives[0])
        if not failed:
            solutions.append(Substitution(bnd).restrict(problem_vars))
    with mock.patch.object(unify, "is_instance_of", reference_is_instance_of):
        return unify._prune_to_most_general(solutions)


T = var("T", Sort.TAG)
N = var("N", Sort.NONCE)
_std_agents = st.sampled_from([a, b, A, B])
_std_atoms_by_sort = {
    Sort.AGENT: [a, b, A, B],
    Sort.TAG: [t1, t5, T],
    Sort.NONCE: [n_a, N_B, N],
    Sort.DATA: [c, X, Y, Z],
}
_std_atoms = st.sampled_from([u for atoms in _std_atoms_by_sort.values() for u in atoms])


def _std(kids):
    return st.one_of(
        st.lists(kids, min_size=1, max_size=3).map(lambda items: seq(*items)),
        st.tuples(kids, _std_agents).map(lambda p: penc(p[0], pk(p[1]))),
        st.tuples(kids, _std_agents, _std_agents).map(lambda p: senc(p[0], sh(p[1], p[2]))),
        st.tuples(_std_agents, _std_agents).map(lambda p: sh(*p)),
    )


_std_terms = st.recursive(_std_atoms, _std, max_leaves=6)


@st.composite
def _variant(draw, t):
    """``t`` with each occurrence of a variable replaced on its own by an
    atom of its sort (a variable of either side or a constant), or an
    occurrence of a data variable by any term."""
    if isinstance(t, Var):
        atoms = st.sampled_from(_std_atoms_by_sort[t.sort])
        return draw(st.one_of(atoms, _std_atoms, _std_terms) if t.sort is Sort.DATA else atoms)
    return normalize(with_children(t, tuple(draw(_variant(u)) for u in children(t))))


@st.composite
def _std_problems(draw):
    pairs = []
    for _ in range(draw(st.integers(1, 3))):
        lhs = draw(_std_terms)
        rhs = draw(_std_terms) if draw(st.integers(0, 3)) == 0 else draw(_variant(lhs))
        pairs.append((lhs, rhs) if draw(st.booleans()) else (rhs, lhs))
    return pairs


@given(_std_problems())
@settings(max_examples=300, deadline=None)
# (X, Y) is reached twice, and must be bound before (X, Z), not after it
@example([(seq(X, X, X), seq(Y, Z, Y))])
# an agent variable against a data variable: the data variable is bound
@example([(seq(A, c), seq(X, c))])
# both sh orders, an agent variable on both sides
@example([(senc(seq(A, X), sh(A, B)), senc(seq(B, Y), sh(b, A))), (X, seq(Y, c))])
def test_free_walk_agrees_with_the_earlier_worklist(pairs):
    """The same unifiers, with the same variable names, in the same order."""
    assert unify_std(pairs) == reference_unify_std(pairs)


@st.composite
def _substitution_pairs(draw):
    """A general substitution and either an instance of it or another
    substitution, over a few variables; the names of both sides overlap."""
    over = [A, N_B, X, Y]

    def value(v):
        atoms = st.sampled_from(_std_atoms_by_sort[v.sort])
        return draw(atoms if v.sort in (Sort.AGENT, Sort.TAG) else st.one_of(atoms, _std_terms))

    general = Substitution({v: value(v) for v in over if draw(st.booleans())})
    if draw(st.booleans()):
        theta = Substitution({v: value(v) for v in (A, B, N_B, N, X, Y, Z) if draw(st.booleans())})
        special = Substitution({v: theta.apply(general.apply(v)) for v in over})
    else:
        special = Substitution({v: value(v) for v in over if draw(st.booleans())})
    return special, general, over


@given(_substitution_pairs())
@settings(max_examples=300, deadline=None)
# the special side maps X to Y, a variable the general side has too
@example((Substitution({N_B: Y, X: Y}), Substitution({X: Y}), [N_B, X, Y]))
@example((Substitution({X: seq(Y, c)}), Substitution({X: seq(X, c)}), [X]))
def test_instance_check_agrees_with_the_earlier_match(case):
    special, general, over = case
    assert is_instance_of(special, general, over) == reference_is_instance_of(special, general, over)


# -- free split ----------------------------------------------------------------------

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "xorsleuth" / "fixtures"


def outcome(problem, max_configs=unify._MAX_CONFIGS):
    """``bsca_unify``'s unifiers and trace under a configuration budget, or
    ``None`` when the budget ran out before any unifier was found."""
    with mock.patch.object(unify, "_MAX_CONFIGS", max_configs):
        unifiers, trace = bsca_unify(problem)
    return None if not unifiers and not trace.complete else (unifiers, trace)


def unfiltered(problem, max_configs=unify._MAX_CONFIGS):
    """``outcome`` with ``_split_problem`` returning every problem with an
    XOR or ``zero`` unchanged, so that every mixed problem goes whole to the
    combination search.  An XOR-free problem is still split, since the free
    solver walks through that split; its unifiers are those of the whole."""
    split = unify._split_problem

    def whole(eqs):
        if unify._theory_of(eqs) is Theory.STD:
            return split(eqs)
        return [tuple(Equation(e.left, e.right, Theory.SUA) for e in eqs)], True

    with mock.patch.object(unify, "_split_problem", whole):
        return outcome(problem, max_configs)


def assert_agrees_with_unfiltered(problem, max_configs=unify._MAX_CONFIGS):
    """A clash is a proof that the whole-equation search finds nothing.
    Otherwise the split search completes wherever the whole-equation search
    does (it may also complete where the other runs out of budget), both
    then give the same answer (some unifier or none), and every unifier σ
    of the whole-equation search is an instance of a split one τ:
    ``σ(τ(x)) = σ(x)`` modulo SUA for every problem variable x, which for
    an idempotent τ says that σ = θ∘τ for some θ.  Returns whether the
    split found a clash."""
    split, full = outcome(problem, max_configs), unfiltered(problem, max_configs)
    if split is not None and split[1].shortcut == "clash":
        assert split[0] == () and split[1].complete and split[1].configs_tried == 0
        assert full is None or full[0] == (), f"clash rejected a unifiable problem: {problem}"
        return True
    if full is None:
        return False
    assert split is not None and (split[1].complete or not full[1].complete), problem
    if not split[1].complete:
        return False
    assert bool(split[0]) == bool(full[0]) or not full[1].complete, problem
    xs = frozenset().union(*(vars_of(e.left) | vars_of(e.right) for e in problem.equations))
    for sigma in full[0]:
        assert any(
            tau.is_idempotent()
            and all(equal_mod(Theory.SUA, sigma.apply(tau.apply(x)), sigma.apply(x)) for x in xs)
            for tau in split[0]
        ), f"{sigma} is an instance of no split unifier of {problem}"
    return False


def tagged_pairs():
    """Pairs shaped like the corpus encryptions: ``enc(seq(tag, mid…,
    xor(seq(tag,X), seq(tag,Y))), key)`` against the same shape with the
    same tag or another one, with ground or variable nonces, and against
    ``zero`` in the XOR's place."""
    n1, n2, n3 = (const(f"n{i}", Sort.NONCE) for i in (1, 2, 3))
    X_, Y_, M_ = (var(n, Sort.NONCE) for n in ("X", "Y", "M"))
    out = []
    for enc, key in ((senc, sh(a, b)), (penc, pk(a))):
        for mids, ground_mids in (((), ()), ((M_,), (n3,))):
            def shaped(tag, xv, yv, ms, mask=None):
                mask = xor(seq(tag, xv), seq(tag, yv)) if mask is None else mask
                return enc(seq(tag, *ms, mask), key)

            pattern = shaped(t1, X_, Y_, mids)
            out.append((pattern, shaped(t1, n1, n2, ground_mids)))
            out.append((pattern, shaped(t5, n1, n2, ground_mids)))
            out.append((shaped(t1, X_, n1, mids), shaped(t1, n1, n2, ground_mids)))
            out.append((pattern, shaped(t1, n1, n2, ground_mids, ZERO)))
    return out


class TestFreeClash:
    @pytest.mark.parametrize(
        "s, t",
        [
            (seq(t1, X), seq(t5, Y)),
            (seq(c, X), seq(c, X, Y)),
            (senc(seq(t1, xor(X, c)), sh(a, b)), penc(seq(t1, xor(X, c)), pk(a))),
            (senc(c, sh(A, a)), senc(c, sh(b, b))),
            (seq(c, pk(A)), seq(c, d)),
            # a free-headed term against a ground XOR, at the root and below seq/senc
            (c, xor(d, e)),
            (senc(c, sh(a, b)), xor(c, d)),
            (seq(t1, pk(A)), seq(t1, xor(c, d))),
            (senc(seq(t1, X), sh(a, b)), senc(xor(seq(t1, c), d), sh(a, b))),
            # the q1+q5+leak_bc call that took the full search 13,306 configurations
            (
                senc(seq(t1, xor(seq(t1, var("N21", Sort.NONCE)), seq(t1, const("n11", Sort.NONCE)))), sh(a, b)),
                xor(seq(t5, const("c1", Sort.NONCE)), seq(t5, ZERO)),
            ),
            # a free-headed term against zero, and zero against a ground XOR
            (seq(c, ZERO), seq(c, d)),
            (senc(c, sh(a, b)), ZERO),
            (seq(c, xor(c, d)), seq(c, ZERO)),
            # an even XOR without variable summands against a free-headed term
            (xor(seq(t1, X), seq(t1, Y)), pk(a)),
            (seq(t1, xor(pk(A), seq(t1, X))), seq(t1, sh(a, b))),
            (seq(t1, xor(seq(t1, X), penc(Y, pk(a)))), seq(t1, senc(X, sh(a, b)))),
            # an odd one against zero
            (seq(t1, xor(seq(t1, X), seq(t1, Y), c)), seq(t1, ZERO)),
        ],
    )
    def test_clash_through_free_symbols(self, s, t):
        assert unify._free_split(s, t) == ([], True) and unify._free_split(t, s) == ([], True)
        # the search without the split finds no unifier either
        full = unfiltered(sua_problem((s, t)))
        assert full is not None and full[0] == () and full[1].complete

    @pytest.mark.parametrize(
        "s, t",
        [
            (seq(t1, X), seq(Y, c)),
            (seq(t1, xor(X, c)), seq(t1, seq(t5, d))),
            (seq(c, ZERO), seq(c, xor(X, d))),
            (senc(c, sh(A, a)), senc(c, sh(b, a))),
            (senc(c, sh(A, B)), senc(c, sh(a, b))),
            (seq(c, xor(X, d)), seq(c, pk(a))),
            (seq(t1, xor(seq(t1, X), seq(t1, Y), c)), seq(t1, pk(a))),
        ],
    )
    def test_no_clash_below_variables_xor_zero_or_either_sh_order(self, s, t):
        assert unify._free_split(s, t)[0] and unify._free_split(t, s)[0]

    def test_split_pairs_open_positions_per_sh_order(self):
        assert unify._free_split(senc(seq(c, xor(X, d)), sh(A, B)), senc(seq(c, Y), sh(a, b))) == (
            [
                [(xor(X, d), Y), (A, a), (B, b)],
                [(xor(X, d), Y), (A, b), (B, a)],
            ],
            True,
        )
        # the order that pairs A with b clashes at the constants
        assert unify._free_split(senc(X, sh(A, a)), senc(Y, sh(b, a))) == ([[(X, Y), (A, b)]], True)
        # a root XOR is its own only open pair
        assert unify._free_split(xor(X, c), pk(A)) == ([[(xor(X, c), pk(A))]], True)

    def test_tagged_xor_pair_is_decided(self):
        # the combination search alone runs out of its 20,000-configuration
        # budget on this pair and leaves the answer open; the tags decide it
        X_, Y_, Z_ = (var(n, Sort.NONCE) for n in ("X", "Y", "Z"))
        c1, c2, c3 = (const(n, Sort.NONCE) for n in ("c1", "c2", "c3"))
        lhs = senc(seq(t1, xor(seq(t1, X_), seq(t1, Y_), seq(t1, Z_))), sh(a, b))
        rhs = senc(seq(t5, xor(seq(t5, c1), seq(t5, c2), seq(t5, c3))), sh(a, b))
        assert unify_sua(lhs, rhs) == ((), True)
        unifiers, trace = bsca_unify(sua_problem((lhs, rhs)))
        assert (unifiers, trace.shortcut, trace.configs_tried, trace.complete) == ((), "clash", 0, True)

    def test_q1_calls_split_below_the_encryption(self):
        N21 = var("N21", Sort.NONCE)
        n11, n21 = const("n11", Sort.NONCE), const("n21", Sort.NONCE)
        lhs = senc(seq(t1, xor(seq(t1, N21), seq(t1, n11))), sh(a, b))
        rhs = senc(seq(t1, xor(seq(t1, n11), seq(t1, n21))), sh(a, b))
        # 427 configurations for the whole equation; pairing the summands
        # leaves N21 against n21 alone
        assert unify._free_split(lhs, rhs) == ([[(n21, N21)]], True)
        unifiers, trace = bsca_unify(sua_problem((lhs, rhs)))
        assert unifiers == (Substitution({N21: n21}),)
        assert trace.complete and trace.configs_tried == 0
        # 88 configurations for the whole equation
        unifiers, trace = bsca_unify(sua_problem((lhs, ZERO)))
        assert (unifiers, trace.shortcut, trace.configs_tried, trace.complete) == ((), "clash", 0, True)

    def test_clash_trace_is_the_record_of_a_search_that_ran_nothing(self):
        # a clash is answered before any other bookkeeping, and its trace is
        # the one a clash gave when the bookkeeping came first
        unifiers, trace = bsca_unify(sua_problem((senc(seq(t1, X), sh(a, b)), senc(seq(t5, Y), sh(a, b)))))
        assert unifiers == ()
        assert trace.to_json_dict() == {
            "shortcut": "clash",
            "gamma1": [],
            "gamma2": [],
            "var_idp": [],
            "gamma3": [],
            "gamma4_1": [],
            "gamma4_2": [],
            "v1": [],
            "v2": [],
            "beta": {},
            "gamma5_1": [],
            "gamma5_2": [],
            "sigma1": {},
            "sigma2": {},
            "unifiers": [],
            "configs_tried": 0,
            "complete": True,
        }

    def test_q1_q5_tag_clash_call_reports_clash(self):
        traces = []
        real = unify.bsca_unify

        def recording(problem):
            result = real(problem)
            traces.append((problem, result[1]))
            return result

        q1, q5 = (parse_protocol_file(FIXTURES / f"{n}.proto") for n in ("q1", "q5"))
        solver._cached_unify.cache_clear()
        with mock.patch.object(unify, "bsca_unify", recording):
            assert check_secrecy([q1, q5], AnalysisConfig(sessions=1)).verdict == "secure"
        # the calls that pair a t1 term with a t5 term
        cross = [
            trace
            for problem, trace in traces
            for eq in problem.equations
            if {t1, t5} <= subterms(eq.left) | subterms(eq.right)
        ]
        assert cross and all(t.shortcut == "clash" and t.configs_tried == 0 for t in cross)

    @pytest.mark.parametrize(
        "s, t",
        [
            # free terms only: the std path would find the clash too, later
            (seq(t1, X), seq(t5, Y)),
            (senc(X, sh(a, b)), penc(X, pk(a))),
            # XOR and constants only: the acun path would, too
            (c, xor(d, e)),
        ],
    )
    def test_clash_is_decided_before_the_pure_theory_paths(self, s, t):
        unifiers, trace = bsca_unify(sua_problem((s, t)))
        assert (unifiers, trace.shortcut, trace.configs_tried, trace.complete) == ((), "clash", 0, True)

    @pytest.mark.parametrize("problems", [criterion_2_problems, criterion_3_problems])
    def test_agrees_with_unfiltered_search_on_acceptance_generators(self, problems):
        clashes = [assert_agrees_with_unfiltered(sua_problem(p)) for p in problems()]
        # criterion 2's problems are all unifiable; some of criterion 3's clash
        assert (problems is criterion_2_problems) == (not any(clashes))

    def test_agrees_with_unfiltered_search_on_tagged_pairs(self):
        clashes = [assert_agrees_with_unfiltered(sua_problem(p)) for p in tagged_pairs()]
        assert clashes == [False, True, False, False] * 4


@given(_mixed_terms, _mixed_terms)
@settings(max_examples=150, deadline=None)
# both searches find the same unifier with a variable of its own, which the
# instance check needs them to name alike
@example(senc(penc(xor(X, Y), pk(a)), sh(a, b)), senc(xor(X, a), sh(a, b)))
@example(penc(seq(a, xor(X, a)), pk(a)), penc(xor(X, Y), pk(a)))
def test_free_clash_agrees_with_unfiltered_search(s, t):
    assert_agrees_with_unfiltered(sua_problem((s, t)), max_configs=2000)


# -- the shape decision --------------------------------------------------------------

_ground_atoms = st.sampled_from([a, b, c, d, n_a, ZERO, pk(a), sh(a, b)])
_shape_atoms = st.sampled_from([a, b, c, d, n_a, ZERO, pk(a), sh(a, b), pk(A), sh(A, b), A, X, Y, N_B])
# ground terms alone, so that many pairs are two ground terms, and mixed ones
_shape_terms = st.one_of(
    st.recursive(_ground_atoms, _mixed, max_leaves=5),
    st.recursive(_shape_atoms, _mixed, max_leaves=5),
)


class TestShapeClash:
    @pytest.mark.parametrize(
        "s, t",
        [
            # two different ground terms, whatever their heads
            (c, d),
            (senc(c, sh(a, b)), senc(d, sh(a, b))),
            (xor(c, d), xor(c, n_a)),
            (xor(c, d), c),
            (ZERO, xor(c, d)),
            (ZERO, pk(a)),
            (sh(a, b), sh(b, b)),
            # two free-headed terms with different constructors at the root
            (seq(c, X), penc(X, pk(a))),
            (pk(A), senc(X, sh(a, b))),
            (sh(A, b), c),
            (const("k", Sort.KEY), pk(A)),
        ],
    )
    def test_decided_pairs_have_no_unifier(self, s, t):
        assert unify.shape_clash(s, t) and unify.shape_clash(t, s)
        assert unify_sua(s, t) == ((), True) and unify_sua(t, s) == ((), True)

    @pytest.mark.parametrize(
        "s, t",
        [
            # equal terms unify by the identity
            (c, c),
            (senc(c, sh(a, b)), senc(c, sh(a, b))),
            # a variable, an XOR or zero with a variable in the pair
            (X, c),
            (xor(X, c), d),
            (ZERO, xor(X, c)),
            (ZERO, seq(c, X)),
            # the same constructor at the root with a variable below it
            (seq(c, X), seq(d, Y)),
            (pk(A), pk(a)),
            (senc(X, sh(a, b)), senc(c, sh(a, b))),
        ],
    )
    def test_other_pairs_are_left_to_the_unifier(self, s, t):
        # (zero, seq(c, X)) and (seq(c, X), seq(d, Y)) have no unifier
        # either: False decides nothing
        assert not unify.shape_clash(s, t) and not unify.shape_clash(t, s)


@given(_shape_terms, _shape_terms)
@settings(max_examples=300, deadline=None)
def test_shape_clash_agrees_with_the_unifier(s, t):
    """Every pair the shape decides is one that ``unify_sua`` answers with
    no unifier and a complete search, which the free walk rejects, and on
    which the whole-equation search finds nothing either."""
    clash = unify.shape_clash(s, t)
    assert clash == unify.shape_clash(t, s)
    if not clash:
        return
    assert unify_sua(s, t) == ((), True)
    assert unify._free_split(s, t) == ([], True)
    full = unfiltered(sua_problem((s, t)), max_configs=2000)
    assert full is None or full[0] == ()


# -- XOR summand pairing -------------------------------------------------------------


def tagged(*args):
    return seq(t1, *args)


class TestSummandPairing:
    def test_one_system_per_matching_that_does_not_clash(self):
        # pairing seq(t1,X) with seq(t1,Y) leaves c against d: a clash
        lhs, rhs = xor(tagged(X), tagged(Y)), xor(tagged(c), tagged(d))
        assert unify._free_split(lhs, rhs) == ([[(c, X), (d, Y)], [(c, Y), (d, X)]], True)
        unifiers, trace = bsca_unify(sua_problem((lhs, rhs)))
        assert unifiers == (Substitution({X: c, Y: d}), Substitution({X: d, Y: c}))
        assert (trace.shortcut, trace.configs_tried, trace.complete) == (None, 0, True)

    def test_summands_of_one_side_may_cancel_each_other(self):
        # X = Y cancels the left side, and c = d cannot cancel the right one
        lhs, rhs = xor(tagged(X), tagged(Y)), xor(tagged(c), tagged(Z))
        # the ground summand is paired first
        assert unify._free_split(lhs, rhs) == ([[(c, X), (Y, Z)], [(c, Y), (X, Z)], [(c, Z), (X, Y)]], True)
        assert unify_sua(lhs, rhs) == (
            (Substitution({X: Y, Z: c}), Substitution({X: Z, Y: c}), Substitution({X: c, Y: Z})),
            True,
        )

    def test_odd_summand_count_clashes(self):
        lhs, rhs = xor(tagged(X), tagged(Y), tagged(Z)), xor(tagged(c), tagged(d))
        assert unify._free_split(lhs, rhs) == ([], True)
        unifiers, trace = bsca_unify(sua_problem((lhs, rhs)))
        assert (unifiers, trace.shortcut, trace.configs_tried, trace.complete) == ((), "clash", 0, True)
        full = unfiltered(sua_problem((lhs, rhs)))
        assert full is None or full[0] == ()

    def test_variable_summand_stays_open(self):
        lhs, rhs = xor(tagged(X), Y), xor(tagged(c), tagged(d))
        assert unify._free_split(lhs, rhs) == ([[(lhs, rhs)]], True)

    def test_free_headed_term_against_xor_stays_open(self):
        # criterion 1's equation keeps its purified system of five equations
        lhs = penc(seq(one, n_a), pk(B))
        rhs = xor(penc(seq(one, N_B), pk(a)), seq(two, A), seq(two, b))
        assert unify._free_split(lhs, rhs) == ([[(lhs, rhs)]], True)

    def test_cut_pairing_is_incomplete(self, monkeypatch):
        xs = [var(f"X{i}", Sort.DATA) for i in range(6)]
        cs = [const(f"c{i}", Sort.DATA) for i in range(6)]
        lhs, rhs = xor(*map(tagged, xs)), xor(*map(tagged, cs))
        monkeypatch.setattr(unify, "_MAX_CONFIGS", 10)
        # 12 summands: the first summand alone has 11 partners, and 720 of
        # the 10,395 perfect matchings give a unifier
        assert unify._free_split(lhs, rhs) == ([], False)
        unifiers, trace = bsca_unify(sua_problem((lhs, rhs)))
        assert (unifiers, trace.shortcut, trace.configs_tried, trace.complete) == ((), None, 0, False)
        assert unify_sua(lhs, rhs) == ((), False)
        # a cut after some matchings keeps the unifiers they gave
        monkeypatch.setattr(unify, "_MAX_CONFIGS", 200)
        unifiers, trace = bsca_unify(sua_problem((lhs, rhs)))
        assert unifiers and not trace.complete
        for sigma in unifiers:
            assert equal_mod(Theory.SUA, sigma.apply(lhs), sigma.apply(rhs))

    def test_uncut_pairing_finds_every_matching(self):
        xs = [var(f"X{i}", Sort.DATA) for i in range(4)]
        cs = [const(f"c{i}", Sort.DATA) for i in range(4)]
        unifiers, complete = unify_sua(xor(*map(tagged, xs)), xor(*map(tagged, cs)))
        assert complete and len(unifiers) == 24
        assert {frozenset(s.apply(x) for x in xs) for s in unifiers} == {frozenset(cs)}


_summand_atoms = st.sampled_from([c, d, X, Y, N_B, xor(X, c)])
_summands = st.one_of(
    _summand_atoms.map(tagged),
    st.tuples(_summand_atoms, _summand_atoms).map(lambda p: tagged(*p)),
    _summand_atoms.map(lambda u: penc(u, pk(a))),
)


@st.composite
def _xor_pairs(draw):
    """Two XORs of free-headed summands: two summands, and two or three
    unrelated ones or a shuffled instance of the first two."""
    left = draw(st.lists(_summands, min_size=2, max_size=2))
    if draw(st.booleans()):
        right = draw(st.lists(_summands, min_size=2, max_size=3))
    else:
        sigma = Substitution(
            {X: draw(st.sampled_from([c, d, Y, seq(c, d)])), N_B: draw(st.sampled_from([n_a, N_B]))}
        )
        right = draw(st.permutations([sigma.apply(u) for u in left]))
    return normalize(Xor(tuple(left))), normalize(Xor(tuple(right)))


@given(_xor_pairs())
@settings(max_examples=60, deadline=None)
@example((xor(tagged(X), tagged(Y)), xor(tagged(c), tagged(d))))
@example((xor(tagged(X), tagged(N_B)), xor(tagged(n_a), tagged(xor(X, c)))))
@example((xor(penc(N_B, pk(a)), penc(X, pk(a))), xor(penc(N_B, pk(a)), penc(Y, pk(a)))))
# {N_B ↦ c} and {X ↦ Y} are both most general; compared over their domains
# alone, N_B and X, {N_B ↦ c} read as an instance of {X ↦ Y} by Y ↦ X
@example((xor(tagged(X, N_B), tagged(X, c)), xor(tagged(Y, N_B), tagged(Y, c))))
def test_summand_pairing_agrees_with_unfiltered_search(sides):
    """XORs of free-headed summands on both sides, which the split pairs and
    the whole-equation search purifies."""
    lhs, rhs = sides
    assume(isinstance(lhs, Xor) and isinstance(rhs, Xor) and lhs != rhs)
    assert unify._pairable(lhs, rhs)
    assert_agrees_with_unfiltered(sua_problem((lhs, rhs)), max_configs=500)


# -- one route for every problem -----------------------------------------------------


def _has(problem_or_system, heads) -> bool:
    return any(
        isinstance(u, heads) for e in problem_or_system for u in subterms(e.left) | subterms(e.right)
    )


def whole_problem_route(problem):
    """The unifiers of the dispatch that solved a pure problem whole, once
    pairs of equal terms are dropped, as the split drops them:
    ``unify_std`` of an XOR-free problem and ``unify_acun`` of one without
    free constructors, and for a mixed problem whose split leaves only free
    systems, every system's ``unify_std`` unifiers, not pruned against each
    other.  Well-sorted unifiers only, in canonical order, and whether the
    problem was solved whole; ``None`` for any other problem."""
    eqs = [e for e in (e.normalized() for e in problem.equations) if e.left != e.right]
    if not _has(eqs, (Xor, Zero)):
        found, whole = unify_std(eqs), True
    elif not _has(eqs, (Seq, PEnc, SEnc, Pk, Sh)):
        found, whole = unify_acun(eqs), True
    else:
        systems, complete = unify._split_problem(eqs)
        if not (systems and complete) or any(_has(system, (Xor, Zero)) for system in systems):
            return None
        found, whole = [s for system in systems for s in unify_std(system)], False
    kept = []
    for s in found:
        if subst_well_sorted(s) and s not in kept:
            kept.append(s)
    kept.sort(key=lambda s: tuple((term_key(v), term_key(t)) for v, t in s.items()))
    return tuple(kept), whole


def _is_instance(sigma: Substitution, tau: Substitution, xs) -> bool:
    """Is ``sigma`` an instance of the idempotent ``tau`` over ``xs``?"""
    return tau.is_idempotent() and all(
        equal_mod(Theory.SUA, sigma.apply(tau.apply(x)), sigma.apply(x)) for x in xs
    )


_agents = st.sampled_from([a, b, A, B])


def _free(kids):
    return st.one_of(
        st.tuples(kids, kids).map(lambda p: seq(*p)),
        st.tuples(kids, _agents).map(lambda p: penc(p[0], pk(p[1]))),
        st.tuples(kids, _agents, _agents).map(lambda p: senc(p[0], sh(p[1], p[2]))),
    )


_free_terms = st.recursive(_pool_atoms, _free, max_leaves=5)
_acun_terms = st.lists(st.sampled_from([ZERO, c, d, e, n_a, A, X, Y, Z, N_B]), min_size=1, max_size=4).map(
    lambda items: normalize(Xor(tuple(items)))
)


@st.composite
def _sh_xor_pairs(draw):
    """Two XORs of free-headed summands, each in a sequence behind an ``sh``
    of agents, so that the argument orders and the summand matchings both
    make alternative systems."""
    lhs, rhs = draw(_xor_pairs())
    return seq(sh(draw(_agents), draw(_agents)), lhs), seq(sh(draw(_agents), draw(_agents)), rhs)


def _problems(sides):
    return st.lists(sides, min_size=1, max_size=2).map(lambda pairs: sua_problem(*pairs))


@given(
    st.one_of(
        _problems(st.tuples(_free_terms, _free_terms)),
        _problems(st.tuples(_acun_terms, _acun_terms)),
        _problems(st.one_of(_xor_pairs(), _sh_xor_pairs())),
    )
)
@settings(max_examples=200, deadline=None)
@example(sua_problem((sh(A, a), sh(a, B))))
# the walk reaches (X, Y) twice; a split that kept one of them named the
# unifier unlike the free solver: {X ↦ Y, Z ↦ Y} against {X ↦ Z, Y ↦ Z}
@example(sua_problem((seq(X, X, X), seq(Y, Z, Y))))
@example(sua_problem((seq(sh(A, a), xor(tagged(X), tagged(c))), seq(sh(a, B), xor(tagged(c), tagged(Y))))))
# once zero =? zero is dropped the problem is XOR-free: solved whole as an
# XOR problem instead, it named the unifier {N_B ↦ X}, not {X ↦ N_B}
@example(sua_problem((ZERO, ZERO), (X, N_B)))
def test_one_route_agrees_with_the_whole_problem_route(problem):
    """Splitting every problem and solving each system in its theory gives
    what solving a pure problem whole gave, and on a mixed problem that
    splits into free systems only, the same unifiers up to instances."""
    reference = whole_problem_route(problem)
    assume(reference is not None)
    expected, whole = reference
    unifiers, trace = bsca_unify(problem)
    assert trace.complete and trace.configs_tried == 0
    if whole:
        assert unifiers == expected
        return
    xs = frozenset().union(*(vars_of(e.left) | vars_of(e.right) for e in problem.equations))
    for one, other in ((unifiers, expected), (expected, unifiers)):
        for sigma in one:
            assert any(_is_instance(sigma, tau, xs) for tau in other), f"{sigma} of {problem}"
