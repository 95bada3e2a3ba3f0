"""Symbolic attacker-feasibility solving over constraint sequences.

A constraint ``m : T`` asks whether the attacker can derive target ``m``
from the term set ``T``.  Interleaving the strands of a semi-bundle yields
one constraint per receive node that a send of its strand follows (the
attacker must supply that message from everything sent so far plus its
initial knowledge; a receive after a strand's last send adds nothing to
what the attacker knows, so it is not placed); secrecy is checked by
appending one artificial constraint demanding a secret itself, which may end
the interleaving after any prefix.

``satisfiable`` reduces the first non-variable-target constraint with the
decomposition/composition rules below plus two substitution rules: ``un``
discharges the active constraint by unifying the target with a term-set
member (branching over the combined-theory unifiers), and ``ksub`` guesses
that an asymmetric encryption in the term set is keyed to the attacker.  A
sequence whose targets are all variables is solved: the attacker may choose
those values freely.
"""

from __future__ import annotations

import enum
import functools
import operator
import time
from bisect import bisect_left
from typing import Callable, Generator, Iterable, Iterator, NamedTuple, Sequence

from .protocol import PK_EPS, RECV, SEND, Node, SemiBundle, build_iik, make_semibundle, safe_keys, FreshSession, Protocol
from .terms import (
    EMPTY_SUBST,
    Const,
    PEnc,
    Record,
    SEnc,
    Seq,
    Substitution,
    Term,
    Var,
    Xor,
    XorsleuthError,
    is_canonical_set,
    normalize,
    term_key,
    to_text,
    vars_of,
    vars_of_all,
)
from .unify import rename_new_vars, shape_clash, unify_sua


class ConfigError(XorsleuthError):
    """Unusable analysis configuration."""


# -- constraint sequences ----------------------------------------------------------


_hash_of = operator.attrgetter("_hash")


def _term_set(terms: Iterable[Term]) -> tuple[Term, ...]:
    """The sorted, duplicate-free tuple of the canonical forms of ``terms``.
    A tuple that is that already (`is_canonical_set`: every member marked
    canonical, the members strictly ascending in `term_key` order) is
    returned as it is, without normalizing, hashing and sorting its members
    again: its members are distinct canonical forms, so the sorted set of
    their canonical forms is the tuple itself.  The rules that keep the
    active term set (`_encrypt`, `_xor_l`, the split of `normalize_seq`),
    those that insert into it (`_with`) and `_place`, which builds each
    receive's term set once for all its children, pass such a tuple."""
    if type(terms) is tuple and is_canonical_set(terms):
        return terms
    return tuple(sorted({normalize(t) for t in terms}, key=term_key))


def _with(term_set: tuple[Term, ...], *new: Term) -> tuple[Term, ...]:
    """The canonical term set of ``term_set + new``, where ``term_set`` is
    canonical already (`_term_set`): the canonical form of each new term is
    inserted at its place in `term_key` order unless it is a member
    already, so the constructor keeps the result as it is."""
    out = list(term_set)
    for t in new:
        t = normalize(t)
        i = bisect_left(out, t)
        if i == len(out) or out[i] != t:
            out.insert(i, t)
    return tuple(out)


def _subst_set(sigma: Substitution, term_set: tuple[Term, ...]) -> tuple[Term, ...]:
    """The canonical term set of ``sigma`` applied to the canonical
    ``term_set``, that is ``_term_set(map(sigma.apply, term_set))``:
    ``sigma`` maps a ground member to itself, so only the members with
    variables are substituted, and their images are inserted into the
    ground rest, which is canonical as it is (`_with`)."""
    ground = tuple(t for t in term_set if not vars_of(t))
    if len(ground) == len(term_set):
        return term_set
    return _with(ground, *(sigma.apply(t) for t in term_set if vars_of(t)))


class Constraint(Record):
    """``target : term_set``, in the one form every rule and state key
    relies on: the constructor normalizes the target and makes the term set
    the sorted, duplicate-free tuple of the canonical forms of the terms it
    is given (`_term_set`, which keeps a tuple that is that already as it
    is), so constraints with the same target and the same set of terms are
    equal.  It also computes the constraint's hash and its variables, from
    its terms' cached ones, and sets every field once: ``variables`` are
    those of the target and the term set, ``set_variables`` those of the
    term set.  `naming_order` is computed on first use and kept.  Every
    kept field is a function of the two parts, so equal constraints never
    disagree on one, and a copy or a pickle, which goes through the
    constructor, recomputes them."""

    __slots__ = ("target", "term_set", "variables", "set_variables", "_hash", "_naming")
    _fields = ("target", "term_set")

    def __init__(self, target: Term, term_set: Iterable[Term]) -> None:
        target = normalize(target)
        term_set = _term_set(term_set)
        set_vars = vars_of_all(term_set)
        target_vars = vars_of(target)
        init = object.__setattr__
        init(self, "target", target)
        init(self, "term_set", term_set)
        init(self, "set_variables", set_vars)
        init(self, "variables", set_vars if target_vars <= set_vars else target_vars | set_vars)
        init(self, "_hash", hash((target._hash, tuple(map(_hash_of, term_set)))))
        init(self, "_naming", None)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Constraint):
            return NotImplemented
        return self._hash == other._hash and self.target == other.target and self.term_set == other.term_set

    def __hash__(self) -> int:
        return self._hash

    def naming_order(self) -> tuple[Var, ...]:
        """The variables in the order a state key names them: the target's,
        then each member's, each term's in `term_key` order, the first
        occurrence kept."""
        out = self._naming
        if out is None:
            seen: dict[Var, None] = {}
            for t in (self.target, *self.term_set):
                vs = vars_of(t)
                if not vs <= seen.keys():
                    seen.update(dict.fromkeys(sorted(vs, key=term_key)))
            out = tuple(seen)
            object.__setattr__(self, "_naming", out)
        return out

    def to_json_dict(self) -> dict:
        return {"target": to_text(self.target), "term_set": [to_text(t) for t in self.term_set]}


class ConstraintSequence(Record):
    """A search state: the constraints placed so far, the substitution
    applied to them, and the node ids of the interleaving they come from.
    ``pending`` is None for a sequence given whole; in a search over
    interleavings (`check_secrecy`) it holds what is still to be placed."""

    __slots__ = _fields = ("constraints", "subst", "origin", "pending")

    def __init__(
        self,
        constraints: tuple[Constraint, ...],
        subst: Substitution = EMPTY_SUBST,
        origin: tuple[str, ...] = (),
        pending: Pending | None = None,
    ) -> None:
        init = object.__setattr__
        init(self, "constraints", constraints)
        init(self, "subst", subst)
        init(self, "origin", origin)
        init(self, "pending", pending)

    def active_index(self) -> int | None:
        for i, c in enumerate(self.constraints):
            if not isinstance(c.target, Var):
                return i
        return None


class RuleName(enum.Enum):
    PENC = "penc"
    PDEC = "pdec"
    SENC = "senc"
    SDEC = "sdec"
    XOR_R = "xor_r"
    XOR_L = "xor_l"
    UN = "un"
    KSUB = "ksub"


TARGET_SITE = -1


class SolveStatus(enum.Enum):
    SATISFIABLE = "Satisfiable"
    UNSATISFIABLE = "Unsatisfiable"
    BUDGET_EXHAUSTED = "BudgetExhausted"


class RuleStep(Record):
    __slots__ = _fields = ("rule", "site", "branch", "unifier")

    def __init__(self, rule: str, site: str, branch: int, unifier: Substitution | None = None) -> None:
        init = object.__setattr__
        init(self, "rule", rule)
        init(self, "site", site)
        init(self, "branch", branch)
        init(self, "unifier", unifier)

    def to_json_dict(self) -> dict:
        d = {"rule": self.rule, "site": self.site, "branch": self.branch}
        if self.unifier is not None:
            d["unifier"] = self.unifier.to_json_dict()
        return d


class SolverBudget(Record):
    """Search limits: ``max_depth`` rule applications along one path (the
    branch budget; a nested search of a ground constraint counts its depth
    from the state that started it), ``max_nodes`` states expanded in one
    `satisfiable` call, nested searches included (in `check_secrecy`, the
    whole analysis: every secret at every prefix of every interleaving).
    The unifier search of `un`/`ksub` runs under `unify_sua`'s own
    configuration cap; it counts as run out only where the search applied
    that rule site, since children are built as the search reaches them
    (`satisfiable`)."""

    __slots__ = _fields = ("max_depth", "max_nodes")

    def __init__(self, max_depth: int = 64, max_nodes: int = 200_000) -> None:
        object.__setattr__(self, "max_depth", max_depth)
        object.__setattr__(self, "max_nodes", max_nodes)


# The budgets a search can run out of, as its stats name them.
BUDGETS = ("node", "branch", "unifier")


class SolverResult(Record):
    """``sequence`` is what a solution solves: the sequence given, or the
    interleaving found (its constraints as placed, without substitution)."""

    __slots__ = _fields = ("status", "solutions", "stats", "sequence")

    def __init__(
        self,
        status: SolveStatus,
        solutions: tuple[tuple[Substitution, tuple[RuleStep, ...]], ...],
        stats: dict,
        sequence: ConstraintSequence | None = None,
    ) -> None:
        init = object.__setattr__
        init(self, "status", status)
        init(self, "solutions", solutions)
        init(self, "stats", stats)
        init(self, "sequence", sequence)

    def solution(self) -> tuple[Substitution, tuple[RuleStep, ...]]:
        return self.solutions[0]


# -- normalization -----------------------------------------------------------------


def _flatten_member(t: Term) -> list[Term]:
    if isinstance(t, Seq):
        out: list[Term] = []
        for item in t.items:
            out.extend(_flatten_member(item))
        return out
    return [t]


def normalize_seq(cs: ConstraintSequence) -> ConstraintSequence:
    """The sequence with its active constraint split and cleaned, in two
    steps.  First, while the active target is a sequence, the constraint
    gives way to one constraint per item, each with its term set (a nested
    sequence splits once it is active).  Then, if the active term set still
    holds a sequence or a variable, it is cleaned once: sequence members are
    flattened, and a stand-alone variable that is an earlier target is
    dropped, since the attacker derived that value from an earlier, smaller
    term set, so it carries no information.  A stand-alone variable that no
    earlier target holds (a value an honest strand chose and sent) stays,
    since `un` may have to bind it.  ``cs`` itself comes back when nothing
    changed.

    The result is the fixed point of splitting and cleaning: cleaning keeps
    the target, and the cleaned set holds no sequence (flattening goes all
    the way down, and the items of a canonical sequence are canonical) and
    no variable that is an earlier target, so cleaning it again changes
    nothing.  A term set with neither is clean already: the constructor
    made it canonical.
    """
    constraints = cs.constraints
    ai = cs.active_index()
    while ai is not None and isinstance(constraints[ai].target, Seq):
        c = constraints[ai]
        parts = tuple(Constraint(item, c.term_set) for item in c.target.items)
        constraints = constraints[:ai] + parts + constraints[ai + 1 :]
        ai = next((i for i in range(ai, len(constraints)) if not isinstance(constraints[i].target, Var)), None)
    if ai is not None:
        c = constraints[ai]
        if any(isinstance(t, (Seq, Var)) for t in c.term_set):
            earlier = {e.target for e in constraints[:ai]}
            flat = [t for member in c.term_set for t in _flatten_member(member)]
            cleaned = Constraint(c.target, [t for t in flat if not (isinstance(t, Var) and t in earlier)])
            if cleaned != c:
                constraints = constraints[:ai] + (cleaned,) + constraints[ai + 1 :]
    return cs if constraints is cs.constraints else ConstraintSequence(constraints, cs.subst, cs.origin, cs.pending)


# -- rule application ---------------------------------------------------------------


@functools.lru_cache(maxsize=100_000)
def _cached_unify(m: Term, t: Term) -> tuple[tuple[Substitution, ...], bool]:
    return unify_sua(m, t)


Constraints = tuple[Constraint, ...]
Branches = list[Constraints]


def _without(term_set: Sequence[Term], i: int) -> tuple[Term, ...]:
    return term_set[:i] + term_set[i + 1 :]


def _xor_split(items: Sequence[Term]) -> Iterator[tuple[Term, Term]]:
    """(XOR of the other summands, summand) for each summand, in order."""
    for j, child in enumerate(items):
        rest = items[:j] + items[j + 1 :]
        yield (Xor(tuple(rest)) if len(rest) > 1 else rest[0]), child


def _pdec(c: Constraint, site: int) -> Branches:
    """The member gives way to its plaintext."""
    return [(Constraint(c.target, _with(_without(c.term_set, site), c.term_set[site].plain)),)]


def _encrypt(c: Constraint, site: int) -> Branches:
    """``penc`` and ``senc``: derive the key, then the plaintext."""
    T = c.term_set
    return [(Constraint(c.target.key, T), Constraint(c.target.plain, T))]


def _sdec_key(c: Constraint, site: int) -> tuple[Term, tuple[Term, ...]]:
    """``(key, rest)``, the parts of `sdec`'s first constraint at ``site``:
    derive the member's key from the other members.  Both are canonical as
    they are (a subterm of a canonical term, and a canonical term set less
    one member), so they are the parts of the constraint they make."""
    return c.term_set[site].key, _without(c.term_set, site)


def _sdec(c: Constraint, site: int) -> Branches:
    member = c.term_set[site]
    key, rest = _sdec_key(c, site)
    return [(Constraint(key, rest), Constraint(c.target, _with(rest, member.plain, member.key)))]


def _xor_r(c: Constraint, site: int) -> Branches:
    rest_T = _without(c.term_set, site)
    return [
        (Constraint(remainder, rest_T), Constraint(c.target, _with(rest_T, child)))
        for remainder, child in _xor_split(c.term_set[site].items)
    ]


def _xor_l(c: Constraint, site: int) -> Branches:
    T = c.term_set
    return [(Constraint(rest, T), Constraint(child, T)) for rest, child in _xor_split(c.target.items)]


def _un(c: Constraint, site: int) -> tuple[Term, Term]:
    """Unify the target with the member; the active constraint is discharged."""
    return c.target, c.term_set[site]


def _ksub(c: Constraint, site: int) -> tuple[Term, Term]:
    """Key the member's encryption to the attacker; every constraint stays."""
    return c.term_set[site].key, PK_EPS


class _Rule(NamedTuple):
    """Where a rule applies: at the target, or at each term-set member, when
    the term there is a ``head`` (and ``guard`` holds of it, if given).  Its
    step: ``decompose`` gives the constraints that replace the active one,
    one tuple per branch; ``pair`` gives the two terms to unify, and each
    unifier rewrites the other constraints and, if ``keep``, the active
    one."""

    at_target: bool
    head: type
    decompose: Callable[[Constraint, int], Branches] | None = None
    pair: Callable[[Constraint, int], tuple[Term, Term]] | None = None
    keep: bool = False
    guard: Callable[[Term], bool] | None = None


# In RuleName order, which is the order of `applicable_rules` and of the search.
# No rule acts on a sequence: `normalize_seq` splits sequences before any rule.
_RULES: dict[RuleName, _Rule] = {
    RuleName.PENC: _Rule(True, PEnc, _encrypt),
    RuleName.PDEC: _Rule(False, PEnc, _pdec, guard=lambda t: t.key == PK_EPS),
    RuleName.SENC: _Rule(True, SEnc, _encrypt),
    RuleName.SDEC: _Rule(False, SEnc, _sdec),
    RuleName.XOR_R: _Rule(False, Xor, _xor_r),
    RuleName.XOR_L: _Rule(True, Xor, _xor_l),
    RuleName.UN: _Rule(False, Term, pair=_un),
    RuleName.KSUB: _Rule(False, PEnc, pair=_ksub, keep=True, guard=lambda t: t.key != PK_EPS),
}


# (at the target?, term type) -> the rules, in `RuleName` order, that may
# apply to a term of that type there, each with its guard
_RULES_AT: dict[tuple[bool, type], tuple[tuple[RuleName, Callable[[Term], bool] | None], ...]] = {
    (at_target, kind): tuple(
        (name, rule.guard) for name, rule in _RULES.items() if rule.at_target == at_target and issubclass(kind, rule.head)
    )
    for at_target in (True, False)
    for kind in Term.__subclasses__()
}


def applicable_rules(cs: ConstraintSequence) -> tuple[tuple[RuleName, int], ...]:
    """Every (rule, site) whose applicability predicate holds at the active
    constraint, in rule-enumeration order then site order.  Sites are term-set
    indices; the target site is -1.  One pass over the target and the
    members collects each rule's sites in site order (`_RULES_AT`), and the
    rules are read out in their order."""
    ai = cs.active_index()
    if ai is None:
        return ()
    c = cs.constraints[ai]
    sites: dict[RuleName, list[int]] = {}
    for i, t in ((TARGET_SITE, c.target), *enumerate(c.term_set)):
        for name, guard in _RULES_AT[i == TARGET_SITE, type(t)]:
            if guard is None or guard(t):
                sites.setdefault(name, []).append(i)
    return tuple((name, i) for name in _RULES if name in sites for i in sites[name])


def _split_at_active(cs: ConstraintSequence) -> tuple[Constraints, Constraint, Constraints] | None:
    ai = cs.active_index()
    return None if ai is None else (cs.constraints[:ai], cs.constraints[ai], cs.constraints[ai + 1 :])


def _originated(cs: ConstraintSequence) -> bool:
    """Every variable of a term set occurs in an earlier target, as the
    variables a strand receives do before it sends them."""
    known: frozenset[Var] = frozenset()
    for c in cs.constraints:
        if not c.set_variables <= known:
            return False
        known |= vars_of(c.target)
    return True


def _sends_originated(cs: ConstraintSequence) -> bool:
    """Every unplaced send's variables, under the substitution, occur in a
    placed target or in an earlier receive of the same strand.  Every
    completion of ``cs`` places those receives before the send, so the
    sequence it completes to is originated wherever ``cs`` is."""
    p = cs.pending
    if p is None or p.done:
        return True
    targets = vars_of_all(c.target for c in cs.constraints)
    for nodes, position in zip(p.plan.nodes, p.positions):
        if all(node.sign == RECV for node in nodes[position:]):
            continue
        known = targets
        for i, node in enumerate(nodes):
            vs = vars_of(cs.subst.apply(node.term))
            if node.sign == RECV:
                known |= vs
            elif i >= position and not vs <= known:
                return False
    return True


def _rule_sites(cs: ConstraintSequence, c: Constraint) -> tuple[tuple[RuleName, int], ...]:
    """The (rule, site) pairs the search expands at ``cs``'s active
    constraint ``c``: `applicable_rules`, except that a target that is a
    member of its own term set is discharged by `un` at that member alone,
    with the identity unifier, when `_originated` holds of ``cs`` and, in a
    search over interleavings, of every completion (`_sends_originated`).

    Soundness: when ``m`` is in ``T``, ``σ(m)`` is in ``σ(T)`` for every
    substitution ``σ``, so ``m : T`` holds under every substitution and the
    state is satisfiable exactly when the rest of it (what that `un`
    leaves) is.  The rest is originated too: the variables of ``m`` are
    those of a member of ``T``, so they occur in earlier targets, and
    removing ``m : T`` takes away no first occurrence.  On originated
    states the rules are complete, as in Millen–Shmatikov (a stand-alone
    variable of a term set was already derived from an earlier, smaller
    term set), so the search finds every solution of the rest that another
    rule would have led to.  The constraints still to be placed are part of
    the rest, so the guard must hold of them too; elsewhere every rule is
    expanded, which is always complete."""
    if c.target in c.term_set and _originated(cs) and _sends_originated(cs):
        return ((RuleName.UN, c.term_set.index(c.target)),)
    return applicable_rules(cs)


def _subst_constraints(tau: Substitution, cs: Constraints) -> Constraints:
    """``tau`` applied to each constraint.  A constraint none of whose
    variables ``tau`` binds is returned as it is: ``tau`` maps each of its
    terms to the term's canonical form, which they already are."""
    bound = tau.domain()
    return tuple(
        c if c.variables.isdisjoint(bound) else Constraint(tau.apply(c.target), map(tau.apply, c.term_set))
        for c in cs
    )


def _names(cs: ConstraintSequence) -> set[str]:
    """The names of the variables of ``cs``: of its constraints, of its
    substitution and of the nodes it has still to place (`_Plan.watched`)."""
    terms = [t for binding in cs.subst.items() for t in binding]
    p = cs.pending
    if p is not None:
        terms += p.plan.watched(p.positions)
    vs = vars_of_all(terms).union(*(c.variables for c in cs.constraints))
    return {v.name for v in vs}


def _apply(
    rule: RuleName,
    site: int,
    cs: ConstraintSequence,
    active: tuple[Constraints, Constraint, Constraints],
) -> tuple[list[tuple[ConstraintSequence, Substitution | None]], bool]:
    """All branch results of one rule at one site plus a completeness flag
    (False when the `un`/`ksub` unifier search hit its budget, so an empty
    branch list is not a proof of absence).  ``active`` is the sequence split
    at its active constraint (`_split_at_active`).  The variables a unifier
    brings in (in neither unified term) are named without knowledge of the
    state, so they are renamed apart from it (`_names`).  A `un` or `ksub`
    site without a unifier returns before any of that: it has no branch."""
    prefix, c, suffix = active
    row = _RULES[rule]
    if row.decompose is not None:
        return [
            (ConstraintSequence(prefix + new + suffix, cs.subst, cs.origin, cs.pending), None)
            for new in row.decompose(c, site)
        ], True
    m, t = row.pair(c, site)
    # every unifier of m = m is an instance of the identity
    unifiers, complete = ((Substitution(),), True) if m == t else _cached_unify(m, t)
    if not unifiers:
        return [], complete
    rewritten = prefix + (c,) + suffix if row.keep else prefix + suffix
    pair = vars_of(m) | vars_of(t)
    if any(not vars_of_all(u for _, u in tau.items()) <= pair for tau in unifiers):
        taken = _names(cs)
        unifiers = tuple(rename_new_vars(tau, pair, taken) for tau in unifiers)
    return [
        (
            ConstraintSequence(_subst_constraints(tau, rewritten), cs.subst.compose(tau), cs.origin, cs.pending),
            tau,
        )
        for tau in unifiers
    ], complete


# -- search -------------------------------------------------------------------------


Tokens = dict[object, str]


def _canonical_key(cs: ConstraintSequence, tokens: Tokens) -> str:
    """Canonical form with variables renamed by first occurrence, so that
    alpha-equivalent states produced by `un` are pruned.

    The variables are renamed ``_0``, ``_1``, … in order of first occurrence:
    constraint by constraint, in `Constraint.naming_order`.  Each constraint
    is written as a short token that stands for its text after the
    renaming: its target's and members' renamed texts.  ``tokens`` is owned
    by the caller's search.  It gives each distinct text (a ground term's
    own, a renamed term's, or a constraint's written with the tokens of its
    terms) a new token (the table's size when it is added, so tokens never
    repeat).  It also maps a constraint, or a term, with the new names of
    its variables in naming order (as numbers: the variables and so their
    sorts are the constraint's or term's own) to the token of its renamed
    text, so each such pair is renamed and rendered once per search.  The
    renamed text of a constraint depends on nothing but the pair, so two
    constraints get the same token exactly when their renamed texts are
    equal, and within one search two keys are equal exactly when the keys
    built from those texts are.

    In a search over interleavings the key also holds the strand positions
    and the bindings of ``plan.watched`` (what every constraint still to be
    placed is built from) in the state's substitution, renamed along with
    the constraints: prefixes with equal placed constraints that bind a
    variable of a constraint still to be placed differently must not merge."""
    names: dict[Var, int] = {}

    def renamed(vs: Iterable[Var]) -> tuple[int, ...]:
        """The new names of ``vs``, naming those that have none yet."""
        return tuple([names.setdefault(v, len(names)) for v in vs])

    def text_token(text: str) -> str:
        out = tokens.get(text)
        if out is None:
            out = tokens[text] = str(len(tokens))
        return out

    def token(t: Term) -> str:
        vs = vars_of(t)
        if not vs:
            return text_token(to_text(t))
        ordered = sorted(vs, key=term_key)
        new = renamed(ordered)
        out = tokens.get((t, new))
        if out is None:
            renaming = Substitution({v: Var(f"_{i}", v.sort) for v, i in zip(ordered, new)})
            out = tokens[(t, new)] = text_token(to_text(renaming.apply(t)))
        return out

    parts = []
    for c in cs.constraints:
        new = renamed(c.naming_order())
        out = tokens.get((c, new))
        if out is None:
            out = tokens[(c, new)] = text_token(token(c.target) + "!" + ",".join(map(token, c.term_set)))
        parts.append(out)
    key = ";".join(parts)
    p = cs.pending
    if p is None:
        return key
    images = (cs.subst.get(v) or v for v in p.plan.watched(p.positions))
    return f"{key}|{p.positions}|{','.join(map(token, images))}"


def _ground(c: Constraint) -> bool:
    """The target and every member of the term set are ground."""
    return not c.variables


# The parts of a ground constraint, mapped to whether it is derivable.
Decisions = dict[tuple[Term, tuple[Term, ...]], bool | None]


class _Shared:
    """What the searches of one `satisfiable` call share: the budget, the
    token table (`_canonical_key`), the node count and peak depth, the
    table of ground constraints (`_ground`) and the safe keys.  ``decided``
    maps the parts ``(target, term_set)`` of a ground constraint whose
    nested search has started to whether it is derivable, or to None while
    that search runs and after a budget cut it.  Keyed by the parts, it
    answers a constraint that is not built yet (`_children`).
    ``safe_keys`` are the keys no solution makes derivable (`safe_keys`):
    those of the plan in a search over interleavings, none for a sequence
    given whole."""

    __slots__ = ("budget", "tokens", "nodes", "peak_depth", "decided", "safe_keys")

    def __init__(self, budget: SolverBudget) -> None:
        self.budget = budget
        self.tokens: Tokens = {}
        self.nodes = 0
        self.peak_depth = 0
        self.decided: Decisions = {}
        self.safe_keys: frozenset[Term] = frozenset()


# A search yields (ground constraint, depth) to have it decided by a nested
# search, and is sent back that search's status.
Search = Generator[tuple[Constraint, int], SolveStatus, SolverResult]


def _stats(shared: _Shared, reached: set[tuple[str, ...]], exhausted: set[str]) -> dict:
    return {
        "nodes": shared.nodes,
        "peak_depth": shared.peak_depth,
        "sequences": len(reached),
        "exhausted": [b for b in BUDGETS if b in exhausted],
    }


def satisfiable(cs: ConstraintSequence, budget: SolverBudget | None = None) -> SolverResult:
    """Depth-first bounded search for a solution of the sequence or, when
    ``cs`` has nodes still to place (`Pending`), of any interleaving that
    completes it.

    Returns on the first solution found; exhaustive completion without one is
    a definitive Unsatisfiable, while any skipped work (depth cut, node cap,
    or an incomplete unifier enumeration inside `un`/`ksub`) downgrades the
    verdict to BudgetExhausted.

    A state whose placed targets are all variables and which still has nodes
    to place is not a node: `_place` replaces it by its children, at the same
    depth and with the same trace.  Its first children demand the secrets,
    one each, from what has been sent so far, and a demand ends the
    interleaving; the others place the next receive of a strand.  So one
    search covers every secret at every prefix of every eager interleaving
    (`check_secrecy`), each secret is offered at a prefix before any longer
    one, and the constraints of a receive-order prefix are solved once for
    all the secrets and interleavings that share it.  A receive that no
    send of its strand follows is never placed (`_Plan`, which has the
    soundness argument): an attack on a prefix that places it is an attack
    on the same prefix without it, under the same substitution, and the
    demands are offered there.  The state key then holds fewer watched
    variables (`_Plan.watched`), so more states merge.  Soundness: rules and
    `normalize_seq` act only at the active constraint, and substitutions
    compose, so carrying a constraint from the start (as a sequence given
    whole does) and appending it later with the substitution applied lead
    to the same states; eager interleavings with the same receive-order
    prefix have identical prefix constraints.  Demanding a secret only once
    the enabled sends are placed loses no attack, since moving a send
    earlier only grows later term sets (`_place`).  The state key holds the
    strand positions and the pending images, so two states merge only when
    everything they will still place agrees.

    Ground constraints are decided once per call.  The first time an
    undecided `_ground` constraint is active with something after it (a
    later constraint, or nodes still to place), a nested search of that
    constraint alone decides it, with the node budget and the depth that
    are left: its states count in ``nodes`` and its depths from the state
    that started it, and it shares the token table and the table of
    decisions (`_Shared`).  When it ends Unsatisfiable, the constraint is
    dead, and every state whose active constraint is dead is dropped before
    it is keyed.  A derivable constraint is still expanded by the rules, so
    the solutions found and their traces are those of the search without
    the decisions.  A nested search cut by a budget decides nothing, and
    the constraint is left to the rules wherever it is active.
    Soundness: the rules act only at the active constraint, and on a ground
    one they never substitute (`un` of two ground terms gives the identity
    or nothing; `ksub` of a ground key other than the attacker's gives
    nothing).  So below a state with a ground active constraint ``m : T``,
    until all its descendants are discharged, every state keeps the other
    constraints as they are and starts with ground descendants of
    ``m : T``, which the rules reduce as the nested search reduces them.
    The nested search may apply the member-target discharge where the
    outer one expands every rule (a ground sequence is originated), but in
    a ground sequence a discharged constraint's other derivations only
    lead to the same rest.  So a nested search that ends Unsatisfiable
    without a budget cut proves that no state below ``m : T`` is solved:
    dropping the state loses no solution, and every state it would have
    expanded is unsatisfiable.  A constraint gets at most one nested
    search, and a search nests only deeper than where it started and
    short of the depth bound, so nesting is bounded by the depth budget.
    Nested searches run from a loop here, not by recursion.

    Children are built as the search reaches them (`_children`): a
    state's rule sites are applied one at a time, each when the search
    comes back for the next child.  Soundness: `_apply` is a pure function
    of the rule, the site and the state, and `_cached_unify` memoizes the
    pure `unify_sua`, so a child built later is the same child, and
    siblings keep their order: the states visited, their order, the counts
    and the first solution and its trace are those of building every child
    at once.  Only ``exhausted`` can differ: it names ``unifier`` only for
    a unifier search that the explored part of the tree ran, so a search
    that a solution or the node budget ended may leave out one that an
    unvisited sibling would have run out in.  A child that would be dropped
    as soon as it is taken off the stack is not built at all: an `sdec`
    site whose key constraint is decided dead yields nothing, and neither
    does a `un` or `ksub` site whose two terms cannot unify by their shape
    alone (`shape_clash`), which is answered without `_apply` or
    `_cached_unify` (`_children` has the soundness arguments), so the
    states visited and the counts are unchanged and only fewer states are
    normalized and fewer unifier searches run.

    In a search over interleavings, a state whose active target is one of
    the plan's safe keys (`safe_keys`) is dropped before anything else is
    done with it, and so is a nested search's: no nested search of such a
    constraint starts, and an `sdec` site whose member's key is safe yields
    no child (`_children`).  Soundness: no solution of any state makes a
    safe key derivable from one of its term sets (`safe_keys` has the
    argument), so a dropped state has no solution, and neither has any
    state below it.  The surviving states keep their depth-first order.
    The search without the drop visits every dropped subtree and marks its
    states visited; a later state it skips as one of them is visited here,
    but it is a copy of a state without a solution, and so is everything
    below it.  So when no budget ends either search, the first solution
    found, its trace and the verdict are those of the search without the
    drop, and only the node count moves.  A nested search decides ``m : T`` as
    the one without the drop does whenever some state with that active
    constraint has a solution: then no safe key is derivable from ``T``,
    so no derivation of ``m`` passes through one.  A decision reached
    where no such state has a solution only drops states that have none.

    ``stats``: ``nodes`` and ``peak_depth``, nested searches included;
    ``sequences``, the prefixes at which the search placed the secrets'
    demands (a sequence given whole counts as one); ``exhausted``, the
    budgets that ran out (`BUDGETS` order).
    """
    shared = _Shared(budget or SolverBudget())
    if cs.pending is not None:
        shared.safe_keys = cs.pending.plan.safe_keys
    searches = [_search(cs, 0, shared)]
    status: SolveStatus | None = None
    while True:
        try:
            c, depth = searches[-1].send(status)
        except StopIteration as done:
            searches.pop()
            if not searches:
                return done.value
            status = done.value.status
        else:
            searches.append(_search(ConstraintSequence((c,)), depth, shared))
            status = None


# A state still to visit, with the rule steps that led to it and its depth.
_Child = tuple[ConstraintSequence, tuple[RuleStep, ...], int]


def _children(
    cur: ConstraintSequence,
    active: tuple[Constraints, Constraint, Constraints],
    trace: tuple[RuleStep, ...],
    depth: int,
    exhausted: set[str],
    decided: Decisions,
    safe: frozenset[Term] = frozenset(),
) -> Iterator[_Child]:
    """The children of the expanded state ``cur``, in search order: the
    branches of each of its rule sites (`_rule_sites`) in turn.  A site is
    applied only when the search asks for its first child, and a unifier
    search it runs that hits its budget adds ``unifier`` to ``exhausted``.

    An `sdec` site whose key constraint ``key : rest`` (`_sdec_key`) is
    ``decided`` underivable is not applied: its one child is one that
    `_search` would drop before keying it.  Soundness: ``cur`` is
    normalized, so the targets before its active constraint are variables
    and the active term set is clean (`normalize_seq`).  In the child, the
    key constraint comes first after those targets, and ``rest`` is part of
    the clean term set, so `normalize_seq` leaves it as it is and it is the
    child's active constraint.  It is in ``decided``, so it is ground, and
    the child's own constraint follows it, so `_search` looks it up and
    drops the child without counting, keying or expanding it.  The child
    would be taken off the stack right after this site is applied, and a
    False decision never changes, so the lookup here sees what that one
    would see: the states visited, their order, the counts and the traces
    are unchanged.  The lookup builds no constraint: ``decided`` is keyed
    by a constraint's parts, and ``key`` (a subterm of a canonical member)
    and ``rest`` (a canonical term set less one member, still sorted and
    duplicate-free) are canonical as they are, so they are the parts the
    child's constraint has.  Only ground constraints are decided, so a key
    with a variable is not looked up, and a decided constraint's target is
    neither a variable nor a sequence (those never become active), so a
    site whose key is one is always applied.

    An `sdec` site whose member's key is in ``safe``, the search's safe
    keys (`_Shared`), is not applied either, by the same argument: the
    key constraint would be the child's active constraint, and `_search`
    drops a state whose active target is safe before it keys it.

    A `un` or `ksub` site whose pair `shape_clash` rejects is not applied
    either: both terms are ground and different, or free-headed with
    different constructors at the root.  Soundness: that pair has no
    unifier modulo SUA (`shape_clash` has the argument), so `unify_sua`
    would return none from a complete search, and `_apply` would return no
    branch and leave ``exhausted`` as it is.  Skipping the site does the
    same, only without the call and the lookup in `_cached_unify`: the
    states visited, their order, the counts and the traces are
    unchanged.  (Only two ground XORs with hundreds of summands between
    them could run out `unify_sua`'s pairing budget; there the skip gives
    the answer that search would leave open, and no ``unifier`` cut.)"""
    c = active[1]
    for rule, site in _rule_sites(cur, c):
        row = _RULES[rule]
        if row.pair is not None and shape_clash(*row.pair(c, site)):
            continue
        if rule is RuleName.SDEC:
            key = c.term_set[site].key
            if key in safe or not vars_of(key) and decided.get(_sdec_key(c, site)) is False:
                continue
        branches, complete = _apply(rule, site, cur, active)
        if not complete:
            exhausted.add("unifier")
        if branches:
            site_desc = "target" if site == TARGET_SITE else to_text(c.term_set[site])
            for bi, (branch, tau) in enumerate(branches):
                yield branch, trace + (RuleStep(rule.value, site_desc, bi, tau),), depth + 1


def _search(cs: ConstraintSequence, depth0: int, shared: _Shared) -> Search:
    """The search of `satisfiable` from ``cs`` at depth ``depth0``, with its
    own visited set.  It yields each ground constraint it needs decided,
    with its depth, and is sent back the status of the nested search."""
    budget, tokens, decided, safe = shared.budget, shared.tokens, shared.decided, shared.safe_keys
    visited: set[str] = set()
    # node ids of the prefixes at which a secret's demand was placed
    reached: set[tuple[str, ...]] = set() if cs.pending is not None else {cs.origin}
    exhausted: set[str] = set()
    # one stream of states still to visit per expanded node, the deepest last
    stack: list[Iterator[_Child]] = [iter([(cs, (), depth0)])]

    while stack:
        step = next(stack[-1], None)
        if step is None:
            stack.pop()
            continue
        cur, trace, depth = step
        cur = normalize_seq(cur)
        active = _split_at_active(cur)
        p = cur.pending
        if active is None and p is not None and not p.done:
            children = _place(cur)
            # the first child places a secret's demand: the prefix counts
            reached.add(children[0].origin)
            # a list: a generator would read trace and depth when resumed
            stack.append(iter([(child, trace, depth) for child in children]))
            continue
        if active is not None and active[1].target in safe:
            continue
        if active is not None and _ground(active[1]):
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
        key = _canonical_key(cur, tokens)
        if key in visited:
            continue
        visited.add(key)
        shared.nodes += 1
        shared.peak_depth = max(shared.peak_depth, depth)
        if shared.nodes > budget.max_nodes:
            exhausted.add("node")
            break
        if active is None:
            solved = cs if p is None else ConstraintSequence(p.placed, EMPTY_SUBST, cur.origin)
            return SolverResult(
                SolveStatus.SATISFIABLE, ((cur.subst, trace),), _stats(shared, reached, exhausted), solved
            )
        if depth >= budget.max_depth:
            # not expanded, so not visited: the same state reached later by
            # a shorter path must still be searched
            exhausted.add("branch")
            visited.discard(key)
            continue
        stack.append(_children(cur, active, trace, depth, exhausted, decided, safe))

    status = SolveStatus.BUDGET_EXHAUSTED if exhausted else SolveStatus.UNSATISFIABLE
    return SolverResult(status, (), _stats(shared, reached, exhausted))


# -- interleavings ------------------------------------------------------------------


def _through_last_send(nodes: tuple[Node, ...]) -> tuple[Node, ...]:
    """A strand's nodes up to and including its last send: the receives
    that no send of the strand follows are cut, so a strand that never
    sends keeps none.  `_Plan` has the soundness argument."""
    for i in range(len(nodes), 0, -1):
        if nodes[i - 1].sign == SEND:
            return nodes[:i]
    return ()


class _Plan:
    """What the states of one search over interleavings share: each strand's
    id and nodes, then the demand for each secret, in the order given, as
    one more strand of a single receive (node id ``sec``); the initial
    knowledge; the keys no run reveals (`safe_keys`); and, per strand
    positions, a receive's term set and the variables whose bindings the
    state key holds.

    A protocol strand keeps its nodes only up to its last send
    (`_through_last_send`); the demands stay whole.  So `done`, `term_set`,
    `watched`, `_place` and `_sends_originated` never see a receive that no
    send of its strand follows, and it is never placed.  Soundness, a run
    being any prefix of the strands: take a prefix that places such a
    receive ``r`` (and perhaps receives after it on its strand, which no
    send follows either), with a substitution that solves its constraints
    and the demand.  (1) A receive adds no term to any term set, and no
    send of its strand comes after ``r``, so every other constraint, the
    demand included, has the same term set in the prefix without those
    receives, which is a prefix of the strands too.  (2) The variables of
    ``r`` belong to its own strand (`make_semibundle` renames them per
    strand), and a secret is a fresh constant (`secret_bindings`), so no
    demand holds them: removing ``r`` takes away its own constraint and
    nothing else.  (3) Dropping a constraint only relaxes the system: the
    same substitution solves what is left.  So an attack on a prefix that
    places ``r`` is an attack on the same prefix without it, under the
    same substitution, and `_place` offers every secret at that prefix.
    The safe keys (`safe_keys`) still read the whole bundles, which can
    only keep more keys unsafe."""

    __slots__ = ("ids", "nodes", "base", "safe_keys", "_term_sets", "_watched")

    def __init__(self, bundles: Sequence[SemiBundle], iik: frozenset[Term], *secrets: Const) -> None:
        self.ids = tuple(sid for b in bundles for sid in b.strand_ids)
        self.nodes: tuple[tuple[Node, ...], ...] = tuple(
            _through_last_send(s.nodes) for b in bundles for s in b.strands
        ) + tuple((Node(RECV, secret),) for secret in secrets)
        self.base = tuple(sorted(iik, key=term_key))
        self.safe_keys = safe_keys(bundles, iik)
        self._term_sets: dict[tuple[int, ...], tuple[Term, ...]] = {}
        self._watched: dict[tuple[int, ...], tuple[Var, ...]] = {}

    def done(self, positions: tuple[int, ...]) -> bool:
        """A secret's demand is placed at ``positions``: the interleaving
        ends there."""
        return any(positions[len(self.ids) :])

    def term_set(self, positions: tuple[int, ...]) -> tuple[Term, ...]:
        """The term set of a receive placed at ``positions``, without the
        substitution: the initial knowledge and every send before them."""
        out = self._term_sets.get(positions)
        if out is None:
            sent = [n.term for nodes, i in zip(self.nodes, positions) for n in nodes[:i] if n.sign == SEND]
            out = self._term_sets[positions] = _term_set(self.base + tuple(sent))
        return out

    def watched(self, positions: tuple[int, ...]) -> tuple[Var, ...]:
        """The variables of the unplaced nodes and of the terms sent, in term
        order: every constraint still to be placed is built from them.  There
        are none once a secret is placed, since nothing more is built then."""
        out = self._watched.get(positions)
        if out is None:
            vs: set[Var] = set()
            if not self.done(positions):
                for nodes, position in zip(self.nodes, positions):
                    for i, node in enumerate(nodes):
                        if i >= position or node.sign == SEND:
                            vs |= vars_of(node.term)
            out = self._watched[positions] = tuple(sorted(vs, key=term_key))
        return out


class Pending(NamedTuple):
    """The interleaving part of a search state.  ``positions`` is the next
    node of each strand of ``plan`` (the protocol strands, then one per
    secret); ``placed`` are the constraints placed so far, as the strands
    have them, without the substitution (the attack trace reports them)."""

    plan: _Plan
    positions: tuple[int, ...]
    placed: tuple[Constraint, ...]

    @property
    def done(self) -> bool:
        """A secret's demand is placed: it ends the interleaving, so
        nothing is left to place."""
        return self.plan.done(self.positions)


def _interleavings(bundles: Sequence[SemiBundle], iik: frozenset[Term], *secrets: Const) -> ConstraintSequence:
    """The state from which `_place` reaches every prefix of every eager
    interleaving of the bundles' strands, each ending with the demand for
    one of ``secrets``."""
    assert secrets, "at least one secret"
    assert all(any(s in b.secret_constants for b in bundles) for s in secrets), "secrets must come from a bundle"
    plan = _Plan(bundles, iik, *secrets)
    return ConstraintSequence((), EMPTY_SUBST, (), Pending(plan, (0,) * len(plan.nodes), ()))


def _place(cs: ConstraintSequence) -> list[ConstraintSequence]:
    """The states that follow ``cs`` by placing nodes: every enabled send at
    once, lowest strand index first; then one child per secret, in the
    plan's order, with the demand for that secret appended; then one child
    per strand whose next node is a receive, in strand order, with that
    receive's constraint appended.  The term set of an appended constraint
    is the initial knowledge plus everything sent so far, with ``cs``'s
    substitution applied.  A demand ends the interleaving (`Pending.done`),
    so every secret is offered at every prefix, and at each prefix before
    any longer one.  This is the one placement step of `satisfiable` and of
    `constraint_sequences`.

    Soundness of offering the demands only once the enabled sends are
    placed: moving a send earlier only grows later term sets, the demand's
    included, and derivability only grows with the term set, so an attack
    on a prefix that stops short of an enabled send is an attack on the
    prefix that places it (`constraint_sequences`).

    A receive that no send of its strand follows is never placed: the plan
    holds each strand only up to its last send (`_Plan`).  It is the dual
    of the eager sends: a send is placed as early as possible, and a
    receive that enables no send is not placed at all.  Soundness: such a
    receive adds nothing to any later term set, the demands' included; its
    variables are its strand's own and no demand holds them; and dropping
    its constraint only relaxes the system.  So an attack on a prefix that
    places it is an attack on the same prefix without it, under the same
    substitution, and that prefix is offered every secret here (`_Plan`
    has the argument in full)."""
    p = cs.pending
    plan, sigma = p.plan, cs.subst
    positions, ids = list(p.positions), cs.origin
    for si, nodes in enumerate(plan.nodes):
        i = positions[si]
        while i < len(nodes) and nodes[i].sign == SEND:
            i += 1
            ids += (f"{plan.ids[si]}.{i}",)
        positions[si] = i
    strands = len(plan.ids)
    order = (*range(strands, len(plan.nodes)), *range(strands))
    receivers = [si for si in order if positions[si] < len(plan.nodes[si])]
    raw_set = plan.term_set(tuple(positions))
    term_set = _subst_set(sigma, raw_set) if sigma else raw_set
    children = []
    for si in receivers:
        i = positions[si]
        after = (*positions[:si], i + 1, *positions[si + 1 :])
        term = plan.nodes[si][i].term
        raw = Constraint(term, raw_set)
        new = Constraint(sigma.apply(term), term_set) if sigma else raw
        pending = Pending(plan, after, p.placed + (raw,))
        nid = f"{plan.ids[si]}.{i + 1}" if si < strands else "sec"
        children.append(ConstraintSequence(cs.constraints + (new,), sigma, ids + (nid,), pending))
    return children


def constraint_sequences(
    bundles: Sequence[SemiBundle], iik: frozenset[Term], *secrets: Const
) -> Iterator[ConstraintSequence]:
    """One constraint sequence per secret and distinct prefix of a receive
    order, with every send placed as soon as it is enabled: the
    placement-only walk of `_place`, which `satisfiable` interleaves with
    solving.

    Each sequence holds a constraint per receive node of the prefix (term
    set: iik plus everything sent earlier), then an artificial constraint
    demanding the secret from everything sent in the prefix.  Only eager
    interleavings are built: after each receive (and at the start), every
    strand whose next node is a send places it at once, lowest strand index
    first; the walk then offers each secret, in the order given, and
    branches on which strand's receive comes next, in strand order.
    Sequences induced by more than one prefix are emitted once, tagged with
    the node ids of the first witness.  A receive that no send of its
    strand follows is never placed (`_Plan`), so a sequence holds a
    constraint per receive of the prefix that a send of its strand follows.

    Soundness: a send is enabled once its strand's earlier nodes are
    placed, so in any interleaving, every send before a receive is also
    before it in the eager interleaving with the same receive order, and
    every send of a prefix is placed in the eager prefix that ends with the
    same last receive.  That eager prefix has the same receive constraints
    in the same order, each with a superset of its term set, and a demand
    with a superset of the secret's term set, and derivability only grows
    with the term set.  So every attack on a prefix of some interleaving is
    an attack on an eager prefix with the same substitution, and a `secure`
    verdict over the eager prefixes is sound.  Dropping the receives that no
    send of their strand follows keeps this: such a receive adds nothing to
    any term set, no demand holds its variables, and removing its
    constraint only relaxes the system, so the attack is also one on the
    eager prefix without those receives, with the same substitution.
    """
    seen: set[str] = set()
    tokens: Tokens = {}
    stack = [_interleavings(bundles, iik, *secrets)]
    while stack:
        cs = stack.pop()
        p = cs.pending
        if not p.done:
            stack.extend(reversed(_place(cs)))
            continue
        out = ConstraintSequence(p.placed, EMPTY_SUBST, cs.origin)
        key = _canonical_key(out, tokens)
        if key not in seen:
            seen.add(key)
            yield out


# -- secrecy ------------------------------------------------------------------------


class AnalysisConfig(Record):
    __slots__ = _fields = ("sessions", "secrets", "budget")

    def __init__(self, sessions: int = 1, secrets: tuple[str, ...] = (), budget: SolverBudget = SolverBudget()) -> None:
        init = object.__setattr__
        init(self, "sessions", sessions)
        init(self, "secrets", secrets)
        init(self, "budget", budget)


class AttackTrace(Record):
    __slots__ = _fields = (
        "protocols",
        "sessions",
        "secret",
        "interleaving",
        "rules",
        "substitution",
        "constraints",
        "elapsed_ms",
    )

    def __init__(
        self,
        protocols: tuple[str, ...],
        sessions: int,
        secret: str,
        interleaving: tuple[str, ...],
        rules: tuple[RuleStep, ...],
        substitution: Substitution,
        constraints: tuple[Constraint, ...],
        elapsed_ms: float,
    ) -> None:
        init = object.__setattr__
        init(self, "protocols", protocols)
        init(self, "sessions", sessions)
        init(self, "secret", secret)
        init(self, "interleaving", interleaving)
        init(self, "rules", rules)
        init(self, "substitution", substitution)
        init(self, "constraints", constraints)
        init(self, "elapsed_ms", elapsed_ms)

    def to_json_dict(self) -> dict:
        return {
            "protocols": list(self.protocols),
            "sessions": self.sessions,
            "secret": self.secret,
            "interleaving": list(self.interleaving),
            "rules": [r.to_json_dict() for r in self.rules],
            "substitution": self.substitution.to_json_dict(),
            "constraints": [c.to_json_dict() for c in self.constraints],
            "elapsed_ms": self.elapsed_ms,
        }


class SecrecyResult(Record):
    """The verdict of one search over every secret.  ``attack`` is the
    first attack the search reaches; it offers every secret at a prefix
    before it extends the prefix.  ``stats.sequences`` counts the prefixes
    at which the secrets' demands were placed.  ``exhausted`` pairs every
    secret left undecided (all of them, since the one search that covered
    them ran out) with the budgets that ran out (`BUDGETS`); a report
    carries it only when the verdict is inconclusive."""

    __slots__ = _fields = ("verdict", "bound", "secrets_checked", "attack", "stats", "exhausted")

    def __init__(
        self,
        verdict: str,  # "secure" | "attack" | "inconclusive"
        bound: int,
        secrets_checked: tuple[str, ...],
        attack: AttackTrace | None,
        stats: dict,
        exhausted: tuple[tuple[str, tuple[str, ...]], ...] = (),
    ) -> None:
        init = object.__setattr__
        init(self, "verdict", verdict)
        init(self, "bound", bound)
        init(self, "secrets_checked", secrets_checked)
        init(self, "attack", attack)
        init(self, "stats", stats)
        init(self, "exhausted", exhausted)

    def to_json_dict(self) -> dict:
        d = {
            "verdict": self.verdict,
            "bound": self.bound,
            "secrets_checked": list(self.secrets_checked),
            "attack": self.attack.to_json_dict() if self.attack else None,
            "stats": self.stats,
        }
        if self.verdict == "inconclusive":
            d["exhausted"] = [{"secret": secret, "budgets": list(budgets)} for secret, budgets in self.exhausted]
        return d


def check_secrecy(protocols: Sequence[Protocol], config: AnalysisConfig | None = None) -> SecrecyResult:
    """Bounded-session secrecy of every requested secret across the protocols.

    All protocols are instantiated into one analysis session (their fresh
    constants are mutually disjoint) and analysed together, so passing two
    protocols is exactly the combined-execution check.  One `satisfiable`
    search covers every secret: each is demanded at every prefix of every
    eager interleaving (`_interleavings`), so a receive that no run can
    meet hides no attack before it, and the search ends at the first leak
    of any secret it reaches.  A receive that no send of its strand follows
    is never placed: it adds nothing to what the attacker knows, so an
    attack on a prefix that places it is one on the same prefix without it
    (`_Plan`).  The budget bounds the whole analysis.
    """
    config = config or AnalysisConfig()
    started = time.perf_counter()
    if not protocols:
        raise ConfigError("no protocols given")
    if config.sessions < 1:
        raise ConfigError("sessions must be at least 1")
    for name, value in (("branch", config.budget.max_depth), ("node", config.budget.max_nodes)):
        if value < 0:
            raise ConfigError(f"{name} budget must not be negative, got {value}")
    session = FreshSession()
    bundles = [make_semibundle(p, config.sessions, session=session) for p in protocols]
    iik = build_iik(bundles)

    pairs: list[tuple[str, Const]] = []
    for b in bundles:
        pairs.extend((v.name, c) for v, c in b.secret_bindings)
    if config.secrets:
        unknown = set(config.secrets) - {name for name, _ in pairs}
        if unknown:
            raise ConfigError(f"no secret constants for: {', '.join(sorted(unknown))}")
        pairs = [(n, c) for n, c in pairs if n in config.secrets]
    if not pairs:
        raise ConfigError("empty secret set: declare `secret` variables or pass --secret")

    secrets = sorted({c for _, c in pairs}, key=term_key)
    names = tuple(to_text(c) for c in secrets)
    result = satisfiable(_interleavings(bundles, iik, *secrets), config.budget)
    stats = {"sequences": result.stats["sequences"], "nodes": result.stats["nodes"]}
    if result.status is SolveStatus.SATISFIABLE:
        sigma, steps = result.solution()
        cs = result.sequence
        keep = frozenset().union(*(c.variables for c in cs.constraints))
        stats["elapsed_ms"] = (time.perf_counter() - started) * 1000.0
        trace = AttackTrace(
            protocols=tuple(p.name for p in protocols),
            sessions=config.sessions,
            secret=to_text(cs.constraints[-1].target),
            interleaving=cs.origin,
            rules=steps,
            substitution=sigma.restrict(keep),
            constraints=cs.constraints,
            elapsed_ms=stats["elapsed_ms"],
        )
        return SecrecyResult("attack", config.sessions, names, trace, stats)
    exhausted = ()
    if result.status is SolveStatus.BUDGET_EXHAUSTED:
        exhausted = tuple((name, tuple(result.stats["exhausted"])) for name in names)
    stats["elapsed_ms"] = (time.perf_counter() - started) * 1000.0
    return SecrecyResult("inconclusive" if exhausted else "secure", config.sessions, names, None, stats, exhausted)
