"""The value classes of the package as callers see them: construction,
``repr``, equality, hashing, copies and pickles, and frozen fields.

Every class is pinned by one instance and the literal ``repr`` it prints,
so a change in how the classes are built that moved a field, a default or
the text of a report shows here first."""

import copy
import pickle

import pytest

from xorsleuth.oracle import GroundKnowledge
from xorsleuth.protocol import (
    AssumptionReport,
    AssumptionViolation,
    MunutReport,
    MunutViolation,
    Node,
    Protocol,
    SemiBundle,
    Strand,
)
from xorsleuth.solver import (
    AnalysisConfig,
    AttackTrace,
    Constraint,
    ConstraintSequence,
    RuleStep,
    SecrecyResult,
    SolverBudget,
    SolverResult,
    SolveStatus,
)
from xorsleuth.terms import (
    ZERO,
    Const,
    Constructor,
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
)
from xorsleuth.unify import BscaTrace, Equation, PurifyResult, UnificationProblem

a = Const("a", Sort.AGENT)
b = Const("b", Sort.AGENT)
c = Const("c", Sort.DATA)
X = Var("X", Sort.NONCE)
SUB = Substitution({X: Const("n", Sort.NONCE)})
NODE = Node("+", X)
STRAND = Strand((NODE,))
CON = Constraint(X, [c])
STEP = RuleStep("un", "0", 1)
EQ = Equation(c, X)

R_A = "Const(name='a', sort=<Sort.AGENT: 'Agent'>)"
R_B = "Const(name='b', sort=<Sort.AGENT: 'Agent'>)"
R_C = "Const(name='c', sort=<Sort.DATA: 'Data'>)"
R_X = "Var(name='X', sort=<Sort.NONCE: 'Nonce'>)"
R_NODE = f"Node(sign='+', term={R_X})"
R_STRAND = f"Strand(nodes=({R_NODE},))"
R_CON = f"Constraint(target={R_X}, term_set=({R_C},))"
R_STEP = "RuleStep(rule='un', site='0', branch=1, unifier=None)"
R_BUDGET = "SolverBudget(max_depth=64, max_nodes=200000)"


class Case:
    """One class: an instance built from ``args`` (positional), the
    ``defaults`` its constructor fills in when they are left out, the names
    of its fields in order, and the ``repr`` the instance prints."""

    def __init__(self, cls, args, defaults, fields, text):
        self.cls, self.args, self.defaults, self.fields, self.text = cls, args, defaults, fields, text

    def make(self):
        return self.cls(*self.args)


CASES = [
    # terms
    Case(Var, ("X", Sort.NONCE), {}, ("name", "sort"), R_X),
    Case(Const, ("a", Sort.AGENT), {}, ("name", "sort"), R_A),
    Case(Zero, (), {}, (), "Zero()"),
    Case(Seq, ((c, X),), {}, ("items",), f"Seq(items=({R_C}, {R_X}))"),
    Case(PEnc, (c, Pk(a)), {}, ("plain", "key"), f"PEnc(plain={R_C}, key=Pk(agent={R_A}))"),
    Case(SEnc, (X, c), {}, ("plain", "key"), f"SEnc(plain={R_X}, key={R_C})"),
    Case(Pk, (a,), {}, ("agent",), f"Pk(agent={R_A})"),
    Case(Sh, (b, a), {}, ("left", "right"), f"Sh(left={R_B}, right={R_A})"),
    Case(Xor, ((c, X, ZERO),), {}, ("items",), f"Xor(items=({R_C}, {R_X}, Zero()))"),
    Case(
        Constructor,
        (Sh, "sh", 2),
        {"agent_args": False},
        ("cls", "name", "arity", "agent_args"),
        "Constructor(cls=<class 'xorsleuth.terms.Sh'>, name='sh', arity=2, agent_args=False)",
    ),
    # protocol
    Case(Node, ("+", X), {}, ("sign", "term"), R_NODE),
    Case(Strand, ((NODE,),), {}, ("nodes",), R_STRAND),
    Case(
        Protocol,
        ("p", (("A", STRAND),)),
        {"fresh_vars": frozenset(), "secret_vars": frozenset()},
        ("name", "roles", "fresh_vars", "secret_vars"),
        f"Protocol(name='p', roles=(('A', {R_STRAND}),), fresh_vars=frozenset(), secret_vars=frozenset())",
    ),
    Case(
        SemiBundle,
        (("p.A#1",), (STRAND,), (("p.A#1", SUB),), frozenset({c}), frozenset({c}), ((X, c),)),
        {},
        ("strand_ids", "strands", "instantiations", "fresh_constants", "secret_constants", "secret_bindings"),
        f"SemiBundle(strand_ids=('p.A#1',), strands=({R_STRAND},), instantiations=(('p.A#1', "
        f"{{const(n:Nonce)/X}}),), fresh_constants=frozenset({{{R_C}}}), "
        f"secret_constants=frozenset({{{R_C}}}), secret_bindings=(({R_X}, {R_C}),))",
    ),
    Case(
        AssumptionViolation,
        (1, c, X, "why"),
        {},
        ("assumption", "term", "witness", "detail"),
        f"AssumptionViolation(assumption=1, term={R_C}, witness={R_X}, detail='why')",
    ),
    Case(
        AssumptionReport,
        ("p", (c,), ()),
        {},
        ("protocol", "long_term_keys", "violations"),
        f"AssumptionReport(protocol='p', long_term_keys=({R_C},), violations=())",
    ),
    Case(
        MunutViolation,
        (2, c, X, SUB),
        {},
        ("condition", "left", "right", "unifier"),
        f"MunutViolation(condition=2, left={R_C}, right={R_X}, unifier={{const(n:Nonce)/X}})",
    ),
    Case(
        MunutReport,
        (("p", "q"), ()),
        {},
        ("protocols", "violations"),
        "MunutReport(protocols=('p', 'q'), violations=())",
    ),
    # solver
    Case(Constraint, (X, (c,)), {}, ("target", "term_set"), R_CON),
    Case(
        ConstraintSequence,
        ((CON,),),
        {"subst": Substitution(), "origin": (), "pending": None},
        ("constraints", "subst", "origin", "pending"),
        f"ConstraintSequence(constraints=({R_CON},), subst={{}}, origin=(), pending=None)",
    ),
    Case(RuleStep, ("un", "0", 1), {"unifier": None}, ("rule", "site", "branch", "unifier"), R_STEP),
    Case(SolverBudget, (), {"max_depth": 64, "max_nodes": 200_000}, ("max_depth", "max_nodes"), R_BUDGET),
    Case(
        SolverResult,
        (SolveStatus.SATISFIABLE, ((SUB, (STEP,)),), {"nodes": 3}),
        {"sequence": None},
        ("status", "solutions", "stats", "sequence"),
        f"SolverResult(status=<SolveStatus.SATISFIABLE: 'Satisfiable'>, solutions=(({{const(n:Nonce)/X}}, "
        f"({R_STEP},)),), stats={{'nodes': 3}}, sequence=None)",
    ),
    Case(
        AnalysisConfig,
        (),
        {"sessions": 1, "secrets": (), "budget": SolverBudget()},
        ("sessions", "secrets", "budget"),
        f"AnalysisConfig(sessions=1, secrets=(), budget={R_BUDGET})",
    ),
    Case(
        AttackTrace,
        (("p",), 1, "S", ("p.A#1:0",), (STEP,), SUB, (CON,), 1.5),
        {},
        ("protocols", "sessions", "secret", "interleaving", "rules", "substitution", "constraints", "elapsed_ms"),
        f"AttackTrace(protocols=('p',), sessions=1, secret='S', interleaving=('p.A#1:0',), rules=({R_STEP},), "
        f"substitution={{const(n:Nonce)/X}}, constraints=({R_CON},), elapsed_ms=1.5)",
    ),
    Case(
        SecrecyResult,
        ("secure", 1, ("S",), None, {"nodes": 3}),
        {"exhausted": ()},
        ("verdict", "bound", "secrets_checked", "attack", "stats", "exhausted"),
        "SecrecyResult(verdict='secure', bound=1, secrets_checked=('S',), attack=None, stats={'nodes': 3}, "
        "exhausted=())",
    ),
    # unify
    Case(
        Equation,
        (c, X),
        {"theory": Theory.SUA},
        ("left", "right", "theory"),
        "const(c:Data) =?[SUA] var(X:Nonce)",
    ),
    Case(
        UnificationProblem,
        ((EQ,),),
        {"theory": Theory.SUA},
        ("equations",),
        "UnificationProblem(equations=(const(c:Data) =?[SUA] var(X:Nonce),))",
    ),
    Case(
        PurifyResult,
        ((EQ,), ((X, c),)),
        {},
        ("equations", "abstraction"),
        f"PurifyResult(equations=(const(c:Data) =?[SUA] var(X:Nonce),), abstraction=(({R_X}, {R_C}),))",
    ),
    Case(
        BscaTrace,
        ((EQ,),),
        {
            "gamma2": (),
            "var_idp": (),
            "gamma3": (),
            "gamma4_1": (),
            "gamma4_2": (),
            "v1": (),
            "v2": (),
            "beta": Substitution(),
            "gamma5_1": (),
            "gamma5_2": (),
            "sigma1": Substitution(),
            "sigma2": Substitution(),
            "unifiers": (),
            "configs_tried": 0,
            "complete": True,
            "shortcut": None,
        },
        (
            "gamma1", "gamma2", "var_idp", "gamma3", "gamma4_1", "gamma4_2", "v1", "v2", "beta",
            "gamma5_1", "gamma5_2", "sigma1", "sigma2", "unifiers", "configs_tried", "complete", "shortcut",
        ),
        "BscaTrace(gamma1=(const(c:Data) =?[SUA] var(X:Nonce),), gamma2=(), var_idp=(), gamma3=(), "
        "gamma4_1=(), gamma4_2=(), v1=(), v2=(), beta={}, gamma5_1=(), gamma5_2=(), sigma1={}, sigma2={}, "
        "unifiers=(), configs_tried=0, complete=True, shortcut=None)",
    ),
    # oracle
    Case(
        GroundKnowledge,
        (frozenset({c}), False, True),
        {},
        ("terms", "capped", "complete"),
        f"GroundKnowledge(terms=frozenset({{{R_C}}}), capped=False, complete=True)",
    ),
]

# the classes whose fields hold a dict, and so have no hash, and the one
# mutable class, which has none either
UNHASHABLE = {SolverResult, SecrecyResult, BscaTrace}
MUTABLE = {BscaTrace}


def ids(case):
    return case.cls.__name__


def test_every_class_is_pinned():
    assert len(CASES) == len({case.cls for case in CASES}) == 31


@pytest.mark.parametrize("case", CASES, ids=ids)
def test_repr(case):
    assert repr(case.make()) == case.text


@pytest.mark.parametrize("case", CASES, ids=ids)
def test_keyword_and_positional_construction_with_defaults(case):
    x = case.make()
    by_keyword = case.cls(**dict(zip(case.fields, case.args)), **case.defaults)
    by_position = case.cls(*case.args, *case.defaults.values())
    for y in (by_keyword, by_position):
        assert type(y) is case.cls and y == x and repr(y) == case.text
    # the defaults left out read as the given ones
    for name, value in case.defaults.items():
        if name in case.fields:
            assert getattr(x, name) == value


@pytest.mark.parametrize("case", CASES, ids=ids)
def test_equality_and_hash(case):
    x, twin = case.make(), case.make()
    assert x == twin and not (x != twin)
    assert x != object() and x != case.text and x != tuple(getattr(x, f) for f in case.fields)
    if case.cls in UNHASHABLE:
        for y in (x, twin):
            with pytest.raises(TypeError, match="unhashable type"):
                hash(y)
    else:
        assert hash(x) == hash(twin)
        assert {x: 1}[twin] == 1


def test_records_of_other_classes_with_equal_fields_differ():
    assert AssumptionReport("p", (), ()) != MunutReport("p", ())
    assert PEnc(c, X) != SEnc(c, X) and Var("a", Sort.AGENT) != a
    assert MunutReport(("p", "q"), ()) != MunutReport(("q", "p"), ())


@pytest.mark.parametrize("case", CASES, ids=ids)
def test_copies_and_pickles_round_trip(case):
    x = case.make()
    for dup in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(dup) is case.cls and dup == x and repr(dup) == case.text
        if case.cls not in UNHASHABLE:
            assert hash(dup) == hash(x)


@pytest.mark.parametrize("case", [case for case in CASES if case.cls not in MUTABLE and case.fields], ids=ids)
def test_fields_are_frozen(case):
    x = case.make()
    for name in case.fields:
        before = getattr(x, name)
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(x, name, c)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(x, name)
        assert getattr(x, name) is before
    assert repr(x) == case.text


def test_the_search_trace_is_mutable():
    trace = BscaTrace()
    trace.configs_tried = 3
    trace.shortcut = "clash"
    assert (trace.configs_tried, trace.shortcut) == (3, "clash")
    assert trace != BscaTrace() and BscaTrace(configs_tried=3, shortcut="clash") == trace


def test_a_unification_problem_takes_only_its_one_theory():
    assert UnificationProblem((EQ,), Theory.SUA) == UnificationProblem((EQ,))
    for theory in (Theory.STD, Theory.ACUN):
        with pytest.raises(ValueError, match=f"SUA problems only, not {theory.value}"):
            UnificationProblem((EQ,), theory)
        with pytest.raises(ValueError, match=f"SUA problems only, not {theory.value}"):
            UnificationProblem(equations=(EQ,), theory=theory)
