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
    goal or of the initial knowledge.  Both the initial terms and the
    targets must be ground (`NonGround` otherwise): a goal with a variable
    is no question this closure can answer.

    The XOR rule is computed algebraically: the terms derivable by XOR alone
    are exactly the GF(2) span of the knowledge over its non-XOR units, and
    since an XOR-headed term never decomposes further, only span members
    that are single units or target subterms can matter to any later step.
    This keeps the closure polynomial where enumerating pairwise sums is
    exponential in the number of units.

    The closure is incremental.  The terms that arrived in a round
    (``recent``; at first the initial knowledge) are brought in at the start
    of the next round, and only they: each one's XOR summands get a bit in
    the unit index (``units``) and its vector is reduced into the basis
    (``basis``, leading bit -> row), so that the basis spans exactly the
    vectors of ``known``; and a ciphertext is filed under its key
    (``ciphertexts``), so that decryption visits only new ciphertexts and
    those whose key is new.  The construction targets are sorted once and
    dropped as they become known (``unbuilt``), and a round tests only the
    units and targets not yet known against the basis.

    A round makes the same ``add`` calls in the same order as one that
    rescans all of ``known``, so a round the size cap cuts is cut at the
    same term and ``terms``, ``capped`` and ``complete`` are the same:

    - decomposition reads only ``recent``, in `term_key` order;
    - decryption opens the ciphertexts ``c`` in ``known`` with ``c.key`` in
      ``known`` and ``c`` or ``c.key`` in ``recent``: a new ciphertext whose
      key is known, or one filed under a key that just arrived.  That is the
      same set, and it is visited in `term_key` order;
    - whether a vector lies in the span of ``known`` depends on the row
      space alone, not on the order the rows were reduced in or on which bit
      each unit got, so the same units and targets are found in the span;
    - those are added in `term_key` order, and construction visits the
      targets not yet known in `term_key` order, as a full rescan does.
    """
    known: set[Term] = {normalize(t) for t in initial}
    _require_ground(known)
    known.add(ZERO)
    roots = [normalize(t) for t in compose_targets]
    _require_ground(roots)
    targets: set[Term] = set()
    for t in roots:
        targets.update(subterms(t))
    unbuilt = sorted(targets, key=term_key)  # targets not yet known
    units: dict[Term, int] = {}  # non-XOR unit -> bit
    basis: dict[int, int] = {}  # leading bit -> reduced row
    ciphertexts: dict[Term, list[SEnc]] = {}  # known ciphertexts by key
    capped = False
    complete = False
    recent: set[Term] = set(known)  # arrived in the last round, not yet brought in
    frontier: set[Term] = set()

    def reduce(vec: int) -> int:
        while vec:
            row = basis.get(vec.bit_length() - 1)
            if row is None:
                return vec
            vec ^= row
        return 0

    def add(t: Term) -> None:
        t = normalize(t)
        if t not in known:
            frontier.add(t)
            if len(known) + len(frontier) > size_cap:
                raise _Full

    for _ in range(rounds):
        if len(known) > size_cap:
            capped = True
            break
        arrived = sorted(recent, key=term_key)
        for t in arrived:
            vec = 0
            for u in summands(t):
                vec ^= 1 << units.setdefault(u, len(units))
            vec = reduce(vec)
            if vec:
                basis[vec.bit_length() - 1] = vec
            if isinstance(t, SEnc):
                ciphertexts.setdefault(t.key, []).append(t)
        unbuilt = [t for t in unbuilt if t not in recent]
        frontier = set()

        try:
            # decomposition of what just arrived
            for t in arrived:
                if isinstance(t, Seq):
                    for item in t.items:
                        add(item)
                elif isinstance(t, PEnc) and t.key == PK_EPS:
                    add(t.plain)
            # symmetric decryption: a new ciphertext with a known key, or a
            # new key unlocking an old ciphertext
            opened = {t for t in arrived if isinstance(t, SEnc) and t.key in known}
            for t in arrived:
                opened.update(ciphertexts.get(t, ()))
            for t in sorted(opened, key=term_key):
                add(t.plain)

            # XOR of known terms: units and targets in the span
            spanned = [u for u, bit in units.items() if u not in known and not reduce(1 << bit)]
            for t in unbuilt:
                tu = summands(t)
                if all(u in units for u in tu):
                    vec = 0
                    for u in tu:
                        vec ^= 1 << units[u]
                    if not reduce(vec):
                        spanned.append(t)
            for t in sorted(spanned, key=term_key):
                add(t)

            # construction of compound terms from known parts
            for t in unbuilt:
                if isinstance(t, Seq) and all(i in known for i in t.items):
                    add(t)
                elif isinstance(t, (SEnc, PEnc)) and t.plain in known and t.key in known:
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
    # each distinct term once: the closed solution first, then the attacker's
    # atoms for the variables it leaves; applying the two in turn is applying
    # their composition, since a closed solution's images hold no variable
    # of its domain
    image: dict[Term, Term] = {}
    leftover: dict[Var, Term] = {}
    for c in cs.constraints:
        for t in (c.target, *c.term_set):
            if t not in image:
                u = image[t] = solution.apply(t)
                for v in vars_of(u):
                    if v not in leftover:
                        leftover[v] = ATTACKER if v.sort in (Sort.AGENT, Sort.DATA) else Const(ATTACKER.name, v.sort)
    if leftover:
        free = Substitution(leftover)
        image = {t: free.apply(u) for t, u in image.items()}
    atoms = sorted(set(leftover.values()), key=term_key)
    outcome: bool | None = True
    for c in cs.constraints:
        goal = image[c.target]
        terms = [*atoms, *(image[t] for t in c.term_set)]
        _require_ground([goal, *terms])
        found = derivable(goal, terms, rounds, size_cap)
        if found is False:
            return False
        if found is None:
            outcome = None
    return outcome
