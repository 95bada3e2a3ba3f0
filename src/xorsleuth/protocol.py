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
from dataclasses import dataclass
from typing import Callable, Sequence

from .terms import (
    ZERO,
    Const,
    PEnc,
    Pk,
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


@dataclass(frozen=True)
class Node:
    """A signed message; the term is held in canonical form, which on an
    already canonical term costs one field read (see ``normalize``)."""

    sign: str  # SEND or RECV
    term: Term

    def __post_init__(self):
        if self.sign not in (SEND, RECV):
            raise ValueError(f"node sign must be '+' or '-', got {self.sign!r}")
        object.__setattr__(self, "term", normalize(self.term))


@dataclass(frozen=True)
class Strand:
    nodes: tuple[Node, ...]

    def terms(self) -> tuple[Term, ...]:
        return tuple(n.term for n in self.nodes)

    def map(self, f: Callable[[Term], Term]) -> "Strand":
        """The strand with ``f`` applied to every node's term, signs kept."""
        return Strand(tuple(Node(n.sign, f(n.term)) for n in self.nodes))


@dataclass(frozen=True)
class Protocol:
    """Named roles and the declared fresh and secret variables.  The
    constructor takes the roles as any sequence of ``(name, strand)`` pairs
    and the variables as any iterables, and rejects a duplicate role name, a
    secret variable that is not fresh and a declared variable that no role
    uses, with a `ValueError`."""

    name: str
    roles: tuple[tuple[str, Strand], ...]
    fresh_vars: frozenset[Var] = frozenset()
    secret_vars: frozenset[Var] = frozenset()

    def __post_init__(self):
        fresh, secret = frozenset(self.fresh_vars), frozenset(self.secret_vars)
        init = object.__setattr__
        init(self, "roles", tuple(self.roles))
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

    def node_terms(self) -> tuple[Term, ...]:
        return tuple(t for _, strand in self.roles for t in strand.terms())

    def variables(self) -> frozenset[Var]:
        return vars_of_all(self.node_terms())

    def long_term_keys(self) -> tuple[Term, ...]:
        keys = {s for t in self.node_terms() for s in subterms(t) if isinstance(s, Sh)}
        return tuple(sorted(keys, key=term_key))


def enc_subterms(p: Protocol) -> tuple[Term, ...]:
    """Every encrypted subterm of any role message, in canonical order."""
    encs = {
        s
        for t in p.node_terms()
        for s in subterms(t)
        if isinstance(s, (PEnc, SEnc))
    }
    return tuple(sorted(encs, key=term_key))


def rename_apart(p: Protocol) -> Protocol:
    """Rename every variable of the protocol with a prime: ``NA`` becomes ``NA'``."""
    ren = {v: Var(v.name + "'", v.sort) for v in p.variables()}
    s = Substitution(ren)
    return Protocol(
        p.name,
        tuple((rn, strand.map(s.apply)) for rn, strand in p.roles),
        (ren.get(v, v) for v in p.fresh_vars),
        (ren.get(v, v) for v in p.secret_vars),
    )


# -- semi-bundles ---------------------------------------------------------------


class FreshSession:
    """Name source for one analysis session.

    Each base name carries a counter that keeps increasing across bundles,
    and a minted constant skips every name minted before in the session and
    every constant name written in the protocol being instantiated, so it
    is new to both.  Strand ids are numbered per protocol name and role
    across the session, so two copies of one protocol get distinct ids.
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

    def next_strand(self, protocol: str, role: str) -> tuple[int, str]:
        """The next strand's ordinal in the session and its id, ``role`` of
        ``protocol`` and a count per protocol name and role."""
        self._strand_ordinal += 1
        n = self._per_role[protocol, role] = self._per_role.get((protocol, role), 0) + 1
        return self._strand_ordinal, f"{protocol}.{role}#{n}"


@dataclass(frozen=True)
class SemiBundle:
    strand_ids: tuple[str, ...]
    strands: tuple[Strand, ...]
    instantiations: tuple[tuple[str, Substitution], ...]
    fresh_constants: frozenset[Const]
    secret_constants: frozenset[Const]
    secret_bindings: tuple[tuple[Var, Const], ...]

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
    written = frozenset(s.name for t in p.node_terms() for s in subterms(t) if isinstance(s, Const))

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
                    bindings[v] = Var(f"{v.name}{k}", v.sort)
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


# -- structural assumptions ---------------------------------------------------------


@dataclass(frozen=True)
class AssumptionViolation:
    assumption: int
    term: Term
    witness: Term
    detail: str

    def to_json_dict(self) -> dict:
        return {
            "assumption": self.assumption,
            "term": to_text(self.term),
            "witness": to_text(self.witness),
            "detail": self.detail,
        }


@dataclass(frozen=True)
class AssumptionReport:
    protocol: str
    long_term_keys: tuple[Term, ...]
    violations: tuple[AssumptionViolation, ...]

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
    ltks = p.long_term_keys()
    violations = [
        AssumptionViolation(1, t, l, "long-term key travels inside a message")
        for t, parts in inside.items()
        for l in ltks
        if l in parts
    ]
    for e in enc_subterms(p):
        detail = f"part of the key of {to_text(e)} travels inside a message"
        for x in sorted(interms(e.key), key=term_key):  # type: ignore[union-attr]
            violations.extend(AssumptionViolation(2, t, x, detail) for t, parts in inside.items() if x in parts)
    violations.sort(key=lambda v: (v.assumption, term_key(v.term), term_key(v.witness)))
    return AssumptionReport(p.name, ltks, tuple(dict.fromkeys(violations)))


# -- cross-protocol non-unifiability -------------------------------------------------


@dataclass(frozen=True)
class MunutViolation:
    condition: int
    left: Term
    right: Term
    unifier: Substitution

    def to_json_dict(self) -> dict:
        return {
            "condition": self.condition,
            "left": to_text(self.left),
            "right": to_text(self.right),
            "unifier": self.unifier.to_json_dict(),
        }


@dataclass(frozen=True)
class MunutReport:
    protocols: tuple[str, str]
    violations: tuple[MunutViolation, ...]

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
    out = {
        c
        for t in p.node_terms()
        for s in subterms(t)
        if isinstance(s, Xor)
        for c in s.items
    }
    return tuple(sorted(out, key=term_key))


def check_munut(p1: Protocol, p2: Protocol) -> MunutReport:
    """Do the two protocols keep their encrypted parts and XOR summands apart?

    Condition 1: no encrypted subterm of one protocol unifies (in the free
    theory, with XOR parts abstracted) with an encrypted subterm of the
    other.  Condition 2: the same for the non-XOR summands of XOR subterms.
    Variables are renamed apart before checking; witnesses list the unifier.
    """
    q2 = rename_apart(p2)
    violations: list[MunutViolation] = []
    for t1, t2 in itertools.product(enc_subterms(p1), enc_subterms(q2)):
        w = _std_unifier_witness(t1, t2)
        if w is not None:
            violations.append(MunutViolation(1, t1, t2, w))
    for u1, u2 in itertools.product(_xor_children(p1), _xor_children(q2)):
        w = _std_unifier_witness(u1, u2)
        if w is not None:
            violations.append(MunutViolation(2, u1, u2, w))
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
    for c in itertools.chain.from_iterable(subterms(t) for t in p.node_terms()):
        if isinstance(c, Const) and c.name == tag.name:
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
