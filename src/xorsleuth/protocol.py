"""Protocol roles, semi-bundles, attacker knowledge and structural checks.

A protocol is a set of named roles; a role is a strand of signed nodes
(``+`` send, ``-`` receive).  Bounded-session analysis instantiates each role
a fixed number of times into a semi-bundle: the role's own identity and its
freshly generated values become session-indexed constants, while everything
the role merely receives stays a variable, renamed apart per strand.

The module also provides the structural well-formedness checks used before
composing protocols: long-term keys must never travel inside messages,
encryption keys must not be derivable from message parts, and two protocols
must not have unifiable encrypted components or XOR summands.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence

from .terms import (
    ZERO,
    Const,
    PEnc,
    Pk,
    Record,
    SEnc,
    Seq,
    Sh,
    Sort,
    Substitution,
    Term,
    Var,
    Xor,
    XorsleuthError,
    Zero,
    interms,
    is_constant_name,
    map_term,
    normalize,
    subterms,
    term_key,
    to_text,
    vars_of,
    vars_of_all,
)
from .unify import ABSTRACTION_PREFIX, unify_std

ATTACKER = Const("eps", Sort.AGENT)
PK_EPS = normalize(Pk(ATTACKER))

SEND = "+"
RECV = "-"


class SecretInIik(XorsleuthError):
    """A secret constant would end up in the attacker's initial knowledge."""


class LabelCollision(XorsleuthError):
    """The tagging label already occurs in the protocol."""


class Node(Record):
    """A signed message; the term is held in canonical form, which on an
    already canonical term costs one field read (see ``normalize``)."""

    __slots__ = _fields = ("sign", "term")

    def __init__(self, sign: str, term: Term) -> None:  # sign: SEND or RECV
        if sign not in (SEND, RECV):
            raise ValueError(f"node sign must be '+' or '-', got {sign!r}")
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "term", normalize(term))


class Strand(Record):
    __slots__ = _fields = ("nodes",)

    def __init__(self, nodes: tuple[Node, ...]) -> None:
        object.__setattr__(self, "nodes", nodes)

    def terms(self) -> tuple[Term, ...]:
        return tuple(n.term for n in self.nodes)

    def map(self, f: Callable[[Term], Term]) -> "Strand":
        """The strand with ``f`` applied to every node's term, signs kept."""
        return Strand(tuple(Node(n.sign, f(n.term)) for n in self.nodes))


class Protocol(Record):
    """Named roles and the declared fresh and secret variables.  The
    constructor takes the roles as any sequence of ``(name, strand)`` pairs
    and the variables as any iterables, and rejects a duplicate role name, a
    secret variable that is not fresh and a declared variable that no role
    uses, with a `ValueError`.  Its ``__dict__`` holds only `parts`, once
    read."""

    __slots__ = ("name", "roles", "fresh_vars", "secret_vars", "__dict__")
    _fields = ("name", "roles", "fresh_vars", "secret_vars")

    def __init__(
        self,
        name: str,
        roles: Sequence[tuple[str, Strand]],
        fresh_vars: Iterable[Var] = frozenset(),
        secret_vars: Iterable[Var] = frozenset(),
    ) -> None:
        fresh, secret = frozenset(fresh_vars), frozenset(secret_vars)
        init = object.__setattr__
        init(self, "name", name)
        init(self, "roles", tuple(roles))
        init(self, "fresh_vars", fresh)
        init(self, "secret_vars", secret)
        seen = set()
        for rn, _ in self.roles:
            if rn in seen:
                raise ValueError(f"duplicate role {rn!r}")
            seen.add(rn)
        if not secret <= fresh:
            extra = ", ".join(sorted(v.name for v in secret - fresh))
            raise ValueError(f"secret variables must be fresh: {extra}")
        missing = fresh - self.variables()
        if missing:
            names = ", ".join(sorted(v.name for v in missing))
            raise ValueError(f"declared variables never used: {names}")

    def __repr__(self) -> str:
        # the variable sets in term order: a set's own order follows how it
        # was built and the hash seed, so a pickled copy could print apart
        fresh, secret = (
            f"frozenset({{{', '.join(repr(v) for v in sorted(vs, key=term_key))}}})" if vs else "frozenset()"
            for vs in (self.fresh_vars, self.secret_vars)
        )
        return f"Protocol(name={self.name!r}, roles={self.roles!r}, fresh_vars={fresh}, secret_vars={secret})"

    def node_terms(self) -> tuple[Term, ...]:
        return tuple(t for _, strand in self.roles for t in strand.terms())

    def variables(self) -> frozenset[Var]:
        return vars_of_all(self.node_terms())

    @cached_property
    def parts(self) -> frozenset[Term]:
        """The distinct subterms of the role messages, walked once, on the
        first read.  The value is kept in the instance's ``__dict__``, apart
        from the fields, so equality, hashing, ``repr`` and copies do not
        see it."""
        return frozenset().union(*map(subterms, set(self.node_terms())))

    def parts_of(self, cls: type | tuple[type, ...]) -> tuple[Term, ...]:
        """The parts that are instances of ``cls``, in canonical order."""
        return tuple(sorted((s for s in self.parts if isinstance(s, cls)), key=term_key))

    def long_term_keys(self) -> tuple[Term, ...]:
        return self.parts_of(Sh)


def enc_subterms(p: Protocol) -> tuple[Term, ...]:
    """Every encrypted subterm of any role message, in canonical order."""
    return p.parts_of((PEnc, SEnc))


# -- semi-bundles ---------------------------------------------------------------


class FreshSession:
    """Name source for one analysis session.

    Each base name carries a counter that keeps increasing across bundles,
    and a minted constant skips every name minted before in the session and
    every constant name written in the protocol being instantiated, so it
    is new to both.  A received variable ``V`` of the strand with session
    ordinal ``k`` becomes ``V{k}``, or, when a variable of that name was
    minted before in the session (``N1`` of strand 1 and ``N`` of strand
    11), the first of ``V{k}_1``, ``V{k}_2``, … minted by none.  Strand ids
    are numbered per protocol name and role across the session, so two
    copies of one protocol get distinct ids.
    """

    def __init__(self) -> None:
        self._per_base: dict[str, int] = {}
        self._minted: set[str] = set()
        self._per_role: dict[tuple[str, str], int] = {}
        self._strand_ordinal = 0

    def next_const(self, base: str, sort: Sort, written: frozenset[str]) -> Const:
        """A constant named ``base`` and the next counter value whose name is
        neither minted already nor in ``written``."""
        n = self._per_base.get(base, 0) + 1
        while (name := f"{base}{n}") in self._minted or name in written:
            n += 1
        self._per_base[base] = n
        self._minted.add(name)
        return Const(name, sort)

    def next_var(self, v: Var, ordinal: int) -> Var:
        """``v`` renamed for the strand of session ordinal ``ordinal``, to a
        name no variable minted before in the session has."""
        name, n = f"{v.name}{ordinal}", 0
        while name in self._minted:
            n += 1
            name = f"{v.name}{ordinal}_{n}"
        self._minted.add(name)
        return Var(name, v.sort)

    def next_strand(self, protocol: str, role: str) -> tuple[int, str]:
        """The next strand's ordinal in the session and its id, ``role`` of
        ``protocol`` and a count per protocol name and role."""
        self._strand_ordinal += 1
        n = self._per_role[protocol, role] = self._per_role.get((protocol, role), 0) + 1
        return self._strand_ordinal, f"{protocol}.{role}#{n}"


class SemiBundle(Record):
    __slots__ = _fields = (
        "strand_ids",
        "strands",
        "instantiations",
        "fresh_constants",
        "secret_constants",
        "secret_bindings",
    )

    def __init__(
        self,
        strand_ids: tuple[str, ...],
        strands: tuple[Strand, ...],
        instantiations: tuple[tuple[str, Substitution], ...],
        fresh_constants: frozenset[Const],
        secret_constants: frozenset[Const],
        secret_bindings: tuple[tuple[Var, Const], ...],
    ) -> None:
        init = object.__setattr__
        init(self, "strand_ids", strand_ids)
        init(self, "strands", strands)
        init(self, "instantiations", instantiations)
        init(self, "fresh_constants", fresh_constants)
        init(self, "secret_constants", secret_constants)
        init(self, "secret_bindings", secret_bindings)

    def node_terms(self) -> tuple[Term, ...]:
        return tuple(t for s in self.strands for t in s.terms())


def make_semibundle(
    p: Protocol,
    sessions_per_role: int,
    session: FreshSession | None = None,
) -> SemiBundle:
    """Instantiate every role ``sessions_per_role`` times.

    The role's identity variable (the variable sharing the role's name) and
    its fresh variables become session-indexed constants; received variables
    are renamed apart per strand and stay symbolic.
    """
    if sessions_per_role < 1:
        raise ValueError("sessions_per_role must be at least 1")
    session = session or FreshSession()
    written = frozenset(s.name for s in p.parts if isinstance(s, Const))

    ids: list[str] = []
    strands: list[Strand] = []
    insts: list[tuple[str, Substitution]] = []
    fresh_consts: set[Const] = set()
    secret_consts: set[Const] = set()
    secret_pairs: list[tuple[Var, Const]] = []

    for role_name, role_strand in p.roles:
        role_vars = vars_of_all(role_strand.terms())
        identity = next(
            (v for v in role_vars if v.name == role_name and v.sort is Sort.AGENT), None
        )
        # A fresh variable is the role's own only if it originates here,
        # i.e. its first occurrence on the strand is in a send node.
        first_sign: dict[Var, str] = {}
        for node in role_strand.nodes:
            for v in vars_of(node.term):
                first_sign.setdefault(v, node.sign)
        for _ in range(sessions_per_role):
            k, strand_id = session.next_strand(p.name, role_name)
            bindings: dict[Var, Term] = {}
            if identity is not None:
                bindings[identity] = session.next_const(role_name.lower(), Sort.AGENT, written)
            for v in sorted(role_vars, key=term_key):
                if v == identity:
                    continue
                if v in p.fresh_vars and first_sign[v] == SEND:
                    c = session.next_const(v.name.lower(), v.sort, written)
                    bindings[v] = c
                    fresh_consts.add(c)
                    if v in p.secret_vars:
                        secret_consts.add(c)
                        secret_pairs.append((v, c))
                else:
                    bindings[v] = session.next_var(v, k)
            s = Substitution(bindings)
            ids.append(strand_id)
            strands.append(role_strand.map(s.apply))
            insts.append((role_name, s))

    return SemiBundle(
        strand_ids=tuple(ids),
        strands=tuple(strands),
        instantiations=tuple(insts),
        fresh_constants=frozenset(fresh_consts),
        secret_constants=frozenset(secret_consts),
        secret_bindings=tuple(sorted(secret_pairs, key=lambda vc: term_key(vc[1]))),
    )


# -- initial attacker knowledge ----------------------------------------------------


def build_iik(bundles: Sequence[SemiBundle]) -> frozenset[Term]:
    """Initial attacker knowledge for a set of bundles.

    The attacker starts with its own name, zero, every agent constant in
    scope and all their public keys, and every non-fresh constant appearing
    in the instantiated strands.  Secrets are never allowed in: a secret
    constant of one bundle that another bundle's strands use as a plain
    constant, as a role that sends ``na1`` by name does, raises
    `SecretInIik`.
    """
    out: set[Term] = {ATTACKER, ZERO, PK_EPS}
    all_secret: set[Const] = set()
    for b in bundles:
        all_secret |= b.secret_constants
        for t in b.node_terms():
            for s in subterms(t):
                if isinstance(s, Const) and s not in b.fresh_constants:
                    out.add(s)
    for t in sorted(out, key=term_key):
        if isinstance(t, Const) and t.sort is Sort.AGENT:
            out.add(normalize(Pk(t)))
    leaked = sorted(out & all_secret, key=term_key)
    if leaked:
        raise SecretInIik(f"secret constants in initial knowledge: "
                          f"{', '.join(to_text(t) for t in leaked)}")
    return frozenset(out)


def _sh_terms(t: Term) -> Iterator[tuple[Term, bool]]:
    """Every ``sh`` subterm of ``t``, with whether it is an interior term
    (`interms`: reached through sequence items, XOR summands and
    plaintexts only) or lies in a key position.  The arguments of ``pk``
    and ``sh`` are atoms, so no other ``sh`` subterm exists.  This is the
    one definition of a long-term key that travels inside a message:
    design assumption 1 reads it through `interior_keys`, and the safe
    keys of an analysis (`safe_keys`) read it directly."""
    stack = [(t, True)]
    while stack:
        cur, inside = stack.pop()
        if isinstance(cur, Sh):
            yield cur, inside
        elif isinstance(cur, (Seq, Xor)):
            stack.extend([(item, inside) for item in cur.items])
        elif isinstance(cur, (PEnc, SEnc)):
            stack += ((cur.plain, inside), (cur.key, False))


def interior_keys(t: Term) -> frozenset[Term]:
    """The long-term keys that travel inside the message ``t``: its interior
    ``sh`` terms (`_sh_terms`).  A key position is opaque, so a key that
    only encrypts does not travel."""
    return frozenset(k for k, inside in _sh_terms(t) if inside)


def _plain_vars(t: Term) -> frozenset[Var]:
    """The variables ``t`` holds through sequence items and encryption
    plaintexts alone, with no XOR on the way: in the canonical form of any
    instance of ``t``, the instance of each of them is an interior term."""
    out: set[Var] = set()
    stack = [t]
    while stack:
        cur = stack.pop()
        if isinstance(cur, Var):
            out.add(cur)
        elif isinstance(cur, Seq):
            stack.extend(cur.items)
        elif isinstance(cur, (PEnc, SEnc)):
            stack.append(cur.plain)
    return frozenset(out)


def safe_keys(bundles: Sequence[SemiBundle], iik: frozenset[Term]) -> frozenset[Term]:
    """The long-term keys that no run of ``bundles`` reveals to an attacker
    who starts from ``iik``: every ground ``sh`` term of a node term that
    is not in ``iik`` and travels inside no node term (`_sh_terms`).
    The set is empty when an ``sh`` term with a variable travels inside a
    node term (it may become any key), and when a send carries, at an
    interior position, a variable that may take a compound value (one not
    of sort Agent or Tag) and that no earlier receive of its strand holds
    plainly (`_plain_vars`): a value received at a key position, under an
    XOR or not at all may be a key, as ``keyleak``'s ``K`` is.

    Soundness, the safe-keys lemma of Thayer, Herzog and Guttman that
    Guttman and Thayer use for protocol independence through disjoint
    encryption.  Fix a safe key ``k``, and call a set of canonical terms
    clean when ``k`` is an interior term of none of its members.

    1. What the attacker derives from a clean set has no interior ``k``,
       so ``k`` is not derivable from it.  A sequence's items, a plaintext
       and an XOR summand are interior terms of the term they come from.
       What the attacker composes is a sequence, an encryption or the
       canonical form of an XOR, whose interior terms, apart from itself,
       are those of its items, of its plaintext, or of summands of its
       arguments, and each summand of a canonical term is an interior term
       of it.  The attacker never builds an ``sh`` term, and `un` derives a
       member of the set itself.
    2. Let σ solve the constraints placed along an interleaving, each a
       receive (or a secret's demand) whose term set is ``iik`` and the
       sends placed before it, under σ.  Every such term set is clean, by
       induction along the interleaving, that is, on the attacker's first
       derivation of ``k``.  ``iik`` holds atoms and public keys only.  A
       send ``s`` adds the canonical form of σ(s).  Each of its interior
       terms is the image of an interior subterm of ``s`` that is neither
       a variable nor an XOR, or an interior term of σ(X) for a variable X
       at an interior position of ``s``: normalizing keeps every head but
       XOR's, and the image of an XOR is ``zero``, one summand or an XOR
       of summands, each a summand of the image of one of its summands.
       An image keeps its subterm's head, so it is ``k`` only if the
       subterm is an ``sh`` term, and the ground ones differ from ``k``,
       while none has a variable.  An Agent or Tag variable takes an atom.
       Any other X is held plainly by an earlier receive ``r`` of the
       strand, so σ(X) is an interior term of σ(r).  The attacker derived
       σ(r) from a term set placed before the send, which is clean, so by
       1 σ(X) has no interior ``k``.
    3. Below a placed constraint, the search's rules only add to a term
       set what is derivable from it (`pdec` and `sdec` a plaintext and a
       key already derived, `xor_r` a summand), and a solution of a state
       solves the constraints it descends from.  So by 1 and 2 no solution
       of any state makes ``k`` derivable from one of its term sets.  The
       argument holds for every solution, however the search binds its
       variables: `un` binds to what a term set holds, and `ksub` binds
       only a key, to ``pk(eps)``, never to an ``sh`` term.
    """
    strands = [s for b in bundles for s in b.strands]
    keys: set[Term] = set()
    travelling: set[Term] = set()
    for t in {n.term for s in strands for n in s.nodes}:
        for k, inside in _sh_terms(t):
            (travelling if inside else keys).add(k)
    if any(vars_of(k) for k in travelling):
        return frozenset()
    keys = {k for k in keys if not vars_of(k)} - travelling - iik
    if not keys:
        return frozenset()
    for strand in strands:
        held: frozenset[Var] = frozenset()
        for node in strand.nodes:
            if node.sign == RECV:
                held |= _plain_vars(node.term)
                continue
            loose = {v for v in vars_of(node.term) - held if v.sort not in (Sort.AGENT, Sort.TAG)}
            if loose and not loose.isdisjoint(interms(node.term)):
                return frozenset()
    return frozenset(keys)


# -- structural assumptions ---------------------------------------------------------


class AssumptionViolation(Record):
    __slots__ = _fields = ("assumption", "term", "witness", "detail")

    def __init__(self, assumption: int, term: Term, witness: Term, detail: str) -> None:
        init = object.__setattr__
        init(self, "assumption", assumption)
        init(self, "term", term)
        init(self, "witness", witness)
        init(self, "detail", detail)

    def to_json_dict(self) -> dict:
        return {
            "assumption": self.assumption,
            "term": to_text(self.term),
            "witness": to_text(self.witness),
            "detail": self.detail,
        }


class AssumptionReport(Record):
    __slots__ = _fields = ("protocol", "long_term_keys", "violations")

    def __init__(
        self, protocol: str, long_term_keys: tuple[Term, ...], violations: tuple[AssumptionViolation, ...]
    ) -> None:
        init = object.__setattr__
        init(self, "protocol", protocol)
        init(self, "long_term_keys", long_term_keys)
        init(self, "violations", violations)

    def ok(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "check": "assumptions",
            "protocol": self.protocol,
            "status": "passed" if self.ok() else "violated",
            "long_term_keys": [to_text(t) for t in self.long_term_keys],
            "witnesses": [v.to_json_dict() for v in self.violations],
        }


def check_assumptions(p: Protocol) -> AssumptionReport:
    """Long-term keys stay out of messages; encryption keys stay underivable.

    The first check flags any long-term key occurring as an interior term of
    a role message (key positions themselves are opaque, so using a shared
    key to encrypt is fine; sending it is not).  The second flags any
    interior part of any encryption key that also occurs as an interior term
    of a role message.
    """
    inside = {t: interms(t) for t in p.node_terms()}
    violations = [
        AssumptionViolation(1, t, l, "long-term key travels inside a message")
        for t in inside
        for l in interior_keys(t)
    ]
    for e in enc_subterms(p):
        detail = f"part of the key of {to_text(e)} travels inside a message"
        for x in sorted(interms(e.key), key=term_key):  # type: ignore[union-attr]
            violations.extend(AssumptionViolation(2, t, x, detail) for t, parts in inside.items() if x in parts)
    violations.sort(key=lambda v: (v.assumption, term_key(v.term), term_key(v.witness)))
    return AssumptionReport(p.name, p.long_term_keys(), tuple(dict.fromkeys(violations)))


# -- cross-protocol non-unifiability -------------------------------------------------


class MunutViolation(Record):
    __slots__ = _fields = ("condition", "left", "right", "unifier")

    def __init__(self, condition: int, left: Term, right: Term, unifier: Substitution) -> None:
        init = object.__setattr__
        init(self, "condition", condition)
        init(self, "left", left)
        init(self, "right", right)
        init(self, "unifier", unifier)

    def to_json_dict(self) -> dict:
        return {
            "condition": self.condition,
            "left": to_text(self.left),
            "right": to_text(self.right),
            "unifier": self.unifier.to_json_dict(),
        }


class MunutReport(Record):
    __slots__ = _fields = ("protocols", "violations")

    def __init__(self, protocols: tuple[str, str], violations: tuple[MunutViolation, ...]) -> None:
        object.__setattr__(self, "protocols", protocols)
        object.__setattr__(self, "violations", violations)

    def ok(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "check": "munut",
            "protocols": list(self.protocols),
            "status": "satisfied" if self.ok() else "violated",
            "witnesses": [v.to_json_dict() for v in self.violations],
        }


def _abstract_xor(t: Term, counter) -> Term:
    """Replace maximal XOR/zero subterms by fresh variables (free-theory view).

    The variables are numbered bottom-up, so an XOR or zero nested inside
    another one uses up a number that does not appear in the result."""
    cache: dict[Term, Var] = {}

    def abstract(u: Term) -> Term:
        if isinstance(u, (Xor, Zero)) and u not in cache:
            cache[u] = Var(f"{ABSTRACTION_PREFIX}{next(counter)}", Sort.DATA)
        return cache.get(u, u)

    return map_term(normalize(t), abstract)


def _std_unifier_witness(t1: Term, t2: Term) -> Substitution | None:
    """First free-theory unifier of the pair, with XOR parts abstracted away."""
    counter = itertools.count()
    a1 = _abstract_xor(t1, counter)
    a2 = _abstract_xor(t2, counter)
    unifiers = unify_std([(a1, a2)])
    if not unifiers:
        return None
    keep = vars_of(t1) | vars_of(t2)
    return unifiers[0].restrict(keep)


def _xor_children(p: Protocol) -> tuple[Term, ...]:
    """Every summand of an XOR subterm of any role message, in canonical order."""
    return tuple(sorted({c for x in p.parts_of(Xor) for c in x.items}, key=term_key))


def check_munut(p1: Protocol, p2: Protocol) -> MunutReport:
    """Do the two protocols keep their encrypted parts and XOR summands apart?

    Condition 1: no encrypted subterm of one protocol unifies (in the free
    theory, with XOR parts abstracted) with an encrypted subterm of the
    other.  Condition 2: the same for the non-XOR summands of XOR subterms.
    The second protocol's parts are primed apart (``NA`` becomes ``NA'``),
    which gives the primed protocol's parts: the renaming is injective, so
    no summand cancels.  Witnesses list the unifier.
    """
    prime = Substitution({v: Var(v.name + "'", v.sort) for v in p2.variables()})
    violations: list[MunutViolation] = []
    for condition, parts in ((1, enc_subterms), (2, _xor_children)):
        for t1, t2 in itertools.product(parts(p1), [prime.apply(t) for t in parts(p2)]):
            w = _std_unifier_witness(t1, t2)
            if w is not None:
                violations.append(MunutViolation(condition, t1, t2, w))
    violations.sort(key=lambda v: (v.condition, term_key(v.left), term_key(v.right)))
    return MunutReport((p1.name, p2.name), tuple(violations))


# -- tagging --------------------------------------------------------------------------


def tag_protocol(p: Protocol, label: Const | str) -> Protocol:
    """Prefix every encryption plaintext and every XOR summand with a tag.

    The label becomes a Tag-sort constant; encryption plaintexts get it
    prepended (wrapping non-sequences into a pair), and every non-XOR child
    of every XOR gets the same treatment.  Raises :class:`XorsleuthError`
    if the label is no DSL constant name (the result would not parse), and
    :class:`LabelCollision` if it already occurs in the protocol.
    """
    tag = Const(label.name if isinstance(label, Const) else label, Sort.TAG)
    if not is_constant_name(tag.name):
        raise XorsleuthError(
            f"label {tag.name!r} is not a constant name: letters, digits and _, "
            "not starting upper-case, and not zero or a constructor name"
        )
    if any(isinstance(c, Const) and c.name == tag.name for c in p.parts):
        raise LabelCollision(f"label {tag.name!r} already occurs in {p.name}")

    def prepend(t: Term) -> Term:
        if isinstance(t, Seq):
            return Seq((tag,) + t.items)
        return Seq((tag, t))

    def add_tags(t: Term) -> Term:
        if isinstance(t, (PEnc, SEnc)):
            return type(t)(prepend(t.plain), t.key)
        if isinstance(t, Xor):
            return Xor(tuple(prepend(c) for c in t.items))
        return t

    roles = tuple((rn, strand.map(lambda t: map_term(t, add_tags))) for rn, strand in p.roles)
    return Protocol(f"{p.name}_{tag.name}", roles, p.fresh_vars, p.secret_vars)
