"""Ground-truth derivation engine used to cross-check solver verdicts.

Computes the attacker's derivable-term closure over *ground* terms: pairing
and unpairing, symmetric encryption/decryption with a derived key, asymmetric
decryption only of terms keyed to the attacker's own public key, and XOR of
any two derived terms.  The closure modulo XOR is infinite, so rounds and a
size cap bound it; hitting the cap is recorded, never silently ignored, and
a closure that either bound cut answers no question negatively: the checks
here are three-valued (True derivable or confirmed, False refuted, None
undecided).

This module deliberately re-derives nothing from the symbolic solver: it is
the independent check that a reported attack substitution really lets the
attacker compute each constraint's target.
"""

from __future__ import annotations

from typing import Iterable

from .protocol import ATTACKER, PK_EPS
from .terms import (
    Const,
    PEnc,
    Record,
    SEnc,
    Seq,
    Sort,
    Substitution,
    Term,
    Var,
    XorsleuthError,
    ZERO,
    normalize,
    subterms,
    summands,
    term_key,
    to_text,
    vars_of,
)


class NonGround(XorsleuthError):
    """A term that was required to be ground still contains variables."""


class GroundKnowledge(Record):
    """``complete``: the closure reached its fixed point, so a term outside
    ``terms`` is not derivable; False when the size cap or the rounds cut
    it short (``capped`` tells the cap apart)."""

    __slots__ = _fields = ("terms", "capped", "complete")

    def __init__(self, terms: frozenset[Term], capped: bool, complete: bool) -> None:
        init = object.__setattr__
        init(self, "terms", terms)
        init(self, "capped", capped)
        init(self, "complete", complete)

    def __contains__(self, t: Term) -> bool:
        return normalize(t) in self.terms

    def sorted_terms(self) -> tuple[Term, ...]:
        return tuple(sorted(self.terms, key=term_key))


def _require_ground(terms: Iterable[Term]) -> None:
    for t in terms:
        if vars_of(t):
            raise NonGround(f"not a ground term: {to_text(t)}")


class _Full(Exception):
    """The closure reached its size cap."""


def dy_closure(
    initial: Iterable[Term],
    compose_targets: Iterable[Term],
    rounds: int = 6,
    size_cap: int = 20_000,
) -> GroundKnowledge:
    """Fixed point (or bounded prefix) of the attacker rules on ground terms.

    Each round decomposes everything decomposable, XORs known terms, and
    rebuilds compound terms from known parts.  ``compose_targets`` restricts
    which compound terms construction may produce — the standard normal-form
    argument: a derivation of a goal only ever needs to build subterms of the
    goal or of the initial knowledge.

    The XOR rule is computed algebraically: the terms derivable by XOR alone
    are exactly the GF(2) span of the knowledge over its non-XOR units, and
    since an XOR-headed term never decomposes further, only span members
    that are single units or target subterms can matter to any later step.
    This keeps the closure polynomial where enumerating pairwise sums is
    exponential in the number of units.
    """
    known: set[Term] = {normalize(t) for t in initial}
    _require_ground(known)
    known.add(ZERO)
    targets: set[Term] = set()
    for t in compose_targets:
        targets.update(subterms(normalize(t)))
    capped = False
    complete = False
    recent: set[Term] = set(known)  # arrived in the last round, not yet decomposed

    for _ in range(rounds):
        if len(known) > size_cap:
            capped = True
            break
        frontier: set[Term] = set()

        def add(t: Term) -> None:
            t = normalize(t)
            if t not in known:
                frontier.add(t)
                if len(known) + len(frontier) > size_cap:
                    raise _Full

        try:
            # decomposition of what just arrived
            for t in sorted(recent, key=term_key):
                if isinstance(t, Seq):
                    for item in t.items:
                        add(item)
                elif isinstance(t, PEnc) and t.key == PK_EPS:
                    add(t.plain)
            # symmetric decryption: a new ciphertext with a known key, or a
            # new key unlocking an old ciphertext
            for t in sorted(known, key=term_key):
                if isinstance(t, SEnc) and (t in recent or t.key in recent) and t.key in known:
                    add(t.plain)

            # XOR of known terms
            for t in _xor_span_extract(known, targets):
                add(t)

            # construction of compound terms from known parts
            for t in sorted(targets, key=term_key):
                if t in known:
                    continue
                if isinstance(t, Seq) and all(i in known for i in t.items):
                    add(t)
                elif isinstance(t, SEnc) and t.plain in known and t.key in known:
                    add(t)
                elif isinstance(t, PEnc) and t.plain in known and t.key in known:
                    add(t)
        except _Full:
            capped = True

        if not frontier:
            complete = not capped
            break
        known |= frontier
        recent = frontier
        if capped:
            break

    return GroundKnowledge(frozenset(known), capped, complete)


def _xor_span_extract(known: set[Term], targets: set[Term]) -> list[Term]:
    """Members of the GF(2) span of `known` that are single units or targets.

    Every known term is a bit-vector over the distinct non-XOR units occurring
    in the knowledge; Gaussian elimination gives the row space, and a
    candidate is derivable by XOR alone iff its vector reduces to zero.
    """
    units: dict[Term, int] = {}
    for t in sorted(known, key=term_key):
        for u in summands(t):
            units.setdefault(u, len(units))

    basis: dict[int, int] = {}  # leading-bit index -> reduced row

    def reduce(vec: int) -> int:
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

    out: list[Term] = []
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


def derivable(goal: Term, initial: Iterable[Term], rounds: int = 6, size_cap: int = 20_000) -> bool | None:
    """Whether `goal` is in the closure of `initial`, with construction
    restricted to subterms of the goal and the initial terms: True when it
    is, False when it is not and the closure is complete, None (undecided)
    when it is not in a closure that the rounds or the size cap cut short."""
    goal = normalize(goal)
    initial = [normalize(t) for t in initial]
    k = dy_closure(initial, [goal, *initial], rounds, size_cap)
    if goal in k:
        return True
    return False if k.complete else None


def _well_sorted(v: Var, t: Term) -> bool:
    """The sort discipline of the binding ``v := t``: an Agent or Tag
    variable takes only a constant or variable of its own sort; any other
    variable takes a compound term, or a constant or variable of its own
    sort or, when either side is of sort Data, of any sort."""
    if v.sort in (Sort.AGENT, Sort.TAG):
        return isinstance(t, (Const, Var)) and t.sort is v.sort
    if isinstance(t, (Const, Var)):
        return t.sort is v.sort or Sort.DATA in (v.sort, t.sort)
    return True


def verify_solution(cs, solution: Substitution, rounds: int = 6, size_cap: int = 20_000) -> bool | None:
    """Independent check of a solver solution on the original sequence.

    Variables the solver left unconstrained are the attacker's free choices.
    Each is instantiated with the attacker's own atom of its sort: its name
    ``eps:Agent`` for an Agent or Data variable, and ``eps`` of the
    variable's sort for a Nonce, Key or Tag one.  The atoms so used join
    every constraint's term set, since the attacker knows its own name,
    nonces, keys and tags.  True (confirmed) iff every original
    constraint's instantiated target is derivable from its instantiated
    term set; False (refuted) when some target is not derivable
    (`derivable` is False); otherwise None (undecided: a truncated closure
    left some target open).  Only a confirmation is truthy.

    The substitution is resolved first (`Substitution.close`), so a binding
    that refers to another bound variable is checked at that variable's
    value.  Bindings that refer to one another in a cycle, such as
    ``X := seq(X, n)``, solve no constraint and raise `SortError`.  A
    resolved binding that breaks the sort discipline (`_well_sorted`), such
    as a Nonce variable bound to an agent's name, instantiates no run of
    the protocol, so the solution is refuted (False).
    """
    solution = solution.close()
    if not all(_well_sorted(v, t) for v, t in solution.items()):
        return False
    leftover: dict[Var, Term] = {}
    for c in cs.constraints:
        for t in (c.target, *c.term_set):
            for v in vars_of(solution.apply(t)):
                if v not in leftover:
                    leftover[v] = ATTACKER if v.sort in (Sort.AGENT, Sort.DATA) else Const(ATTACKER.name, v.sort)
    sigma = solution.compose(Substitution(leftover)) if leftover else solution
    atoms = sorted(set(leftover.values()), key=term_key)
    outcome: bool | None = True
    for c in cs.constraints:
        goal = sigma.apply(c.target)
        terms = [*atoms, *(sigma.apply(t) for t in c.term_set)]
        _require_ground([goal, *terms])
        found = derivable(goal, terms, rounds, size_cap)
        if found is False:
            return False
        if found is None:
            outcome = None
    return outcome
