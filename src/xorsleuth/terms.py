"""Term algebra for protocol messages with an Exclusive-OR operator.

Terms are immutable trees built from variables, constants, sequences,
public/symmetric encryption, key constructors and n-ary XOR.  Every public
operation works on (and returns) canonical forms: XOR nodes are flattened,
duplicate children are cancelled in pairs, the unit ``zero`` is dropped, and
commutative argument lists (XOR children, shared-key arguments) are sorted
under a fixed total order on terms.  Two terms are equal modulo the supported
equational theories exactly when their canonical forms coincide.

A term keeps its arguments once, as one tuple, and one constructor serves
each shape of term.  The order key, hash and variable set of every compound
term are computed once, by one function, from those of its arguments;
equality, hashing, ``term_key``, ``vars_of`` and ``children`` only read them.
``to_text`` renders a term once and keeps the text, and ``normalize`` marks
what it returns as canonical, so normalizing a canonical term again costs
one field read.
"""

from __future__ import annotations

import enum
import operator
import re
from collections.abc import Mapping
from typing import Callable, Iterable


class XorsleuthError(Exception):
    """Base class for all errors raised by this package."""


class SortError(XorsleuthError):
    """A term or binding violates the sort discipline."""


class Sort(enum.Enum):
    AGENT = "Agent"
    NONCE = "Nonce"
    KEY = "Key"
    TAG = "Tag"
    DATA = "Data"


class Theory(enum.Enum):
    """Equational theories: free symbols with commutative sh, XOR laws, or both."""

    STD = "STD"
    ACUN = "ACUN"
    SUA = "SUA"


class Record:
    """Base of the package's immutable value classes.

    A subclass lists its fields in constructor order as ``_fields``, keeps
    them in slots and sets them in its own ``__init__`` through
    ``object.__setattr__`` or the slot's own setter, the only ways in.  From
    that tuple the base gives it the rest: a ``repr`` that names each field
    (``Var(name='X', sort=<Sort.NONCE: 'Nonce'>)``), equality and a hash
    over the tuple of field values (a record equals only a record of its own
    class), fields that cannot be assigned or deleted (`AttributeError`),
    and copies and pickles that go through the constructor.  A subclass may
    define any of these itself.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


class Term(Record):
    """Base of the term constructors below.

    ``_args`` is the term's arguments as one tuple: ``()`` for atoms and
    zero, the ``items`` tuple itself for sequences and XOR, and the fields in
    order otherwise.  ``_key`` is the total order key (constructor rank,
    arity, atom payload, argument keys), ``_hash`` a hash of the same data
    built from the arguments' hashes, and ``_vars`` the variables of a
    compound term (``None`` on a variable, whose own one-element set would
    be a reference cycle).  ``_text`` is the canonical text, set by the
    first ``to_text`` call, and ``_canon`` is true when the term is known to
    be in canonical form (atoms and zero always; compound terms once
    ``normalize`` or a text reader has returned them).  Both are functions
    of the term's value, so equal terms never disagree on them except by one
    being set later.

    A constructor sets the class's fields, then ``_init_compound`` sets
    ``_args`` and the five other slots once from the arguments (an atom's
    constructor sets them from its name and sort); the rank is the class's
    entry in ``_RANK``.  ``Var`` and ``Const``, ``Seq`` and ``Xor``, ``PEnc``
    and ``SEnc`` each share one constructor.  Each class is a `Record` with
    its fields in slots, so ``repr``, frozen fields and copies through the
    constructor come from there; equality and the hash are the term's own,
    read from the cached order key and hash.
    """

    __slots__ = ("_args", "_key", "_hash", "_vars", "_text", "_canon")

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Term):
            return NotImplemented
        return self._hash == other._hash and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Term") -> bool:
        return self._key < other._key


_order_key = operator.attrgetter("_key")
_hash_of = operator.attrgetter("_hash")


# The setters of the term slots.  A frozen term's fields are set once, in
# its constructor, through these; calling a slot's setter skips the
# attribute lookup of ``object.__setattr__``.
_set_args, _set_key, _set_hash, _set_vars, _set_text, _set_canon = (
    Term.__dict__[name].__set__ for name in Term.__slots__
)


def _init_compound(t: Term, args: tuple[Term, ...]) -> None:
    """Set the arguments of a compound term or zero, and the cached fields
    computed from them."""
    rank = _RANK[type(t)]
    _set_args(t, args)
    _set_key(t, (rank, len(args), "", tuple(map(_order_key, args))))
    _set_hash(t, hash((rank, "", tuple(map(_hash_of, args)))))
    _set_vars(t, vars_of_all(args))
    _set_text(t, None)
    _set_canon(t, False)


def _init_atom(self: "Var | Const", name: str, sort: Sort) -> None:
    cls = type(self)
    rank = _RANK[cls]
    payload = f"{name}:{sort._value_}"
    init = object.__setattr__
    init(self, "name", name)
    init(self, "sort", sort)
    _set_args(self, ())
    _set_key(self, (rank, 0, payload, ()))
    _set_hash(self, hash((rank, payload, ())))
    _set_vars(self, None if cls is Var else _NO_VARS)
    _set_text(self, None)
    _set_canon(self, True)


def _init_items(self: "Seq | Xor", items: tuple[Term, ...]) -> None:
    object.__setattr__(self, "items", items)
    _init_compound(self, items)


def _init_enc(self: "PEnc | SEnc", plain: Term, key: Term) -> None:
    object.__setattr__(self, "plain", plain)
    object.__setattr__(self, "key", key)
    _init_compound(self, (plain, key))


class Var(Term):
    __slots__ = _fields = ("name", "sort")

    __init__ = _init_atom


class Const(Term):
    __slots__ = _fields = ("name", "sort")

    __init__ = _init_atom


class Zero(Term):
    """The XOR unit element."""

    __slots__ = ()

    def __init__(self) -> None:
        _init_compound(self, ())
        object.__setattr__(self, "_canon", True)


class Seq(Term):
    __slots__ = _fields = ("items",)

    __init__ = _init_items


class PEnc(Term):
    __slots__ = _fields = ("plain", "key")

    __init__ = _init_enc


class SEnc(Term):
    __slots__ = _fields = ("plain", "key")

    __init__ = _init_enc


class Pk(Term):
    __slots__ = _fields = ("agent",)

    def __init__(self, agent: Term) -> None:
        object.__setattr__(self, "agent", agent)
        _init_compound(self, (agent,))


class Sh(Term):
    __slots__ = _fields = ("left", "right")

    def __init__(self, left: Term, right: Term) -> None:
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        _init_compound(self, (left, right))


class Xor(Term):
    __slots__ = _fields = ("items",)

    __init__ = _init_items


class Constructor(Record):
    """A compound constructor of the message signature, as both text forms
    (``to_text`` and the protocol DSL) write it.  ``arity`` is None for a
    variadic constructor, whose node holds its arguments as one tuple;
    ``agent_args`` marks a constructor whose every argument is an Agent
    position."""

    __slots__ = _fields = ("cls", "name", "arity", "agent_args")

    def __init__(self, cls: type, name: str, arity: int | None, agent_args: bool = False) -> None:
        init = object.__setattr__
        init(self, "cls", cls)
        init(self, "name", name)
        init(self, "arity", arity)
        init(self, "agent_args", agent_args)

    def make(self, args: tuple[Term, ...]) -> Term:
        """The node with these arguments (not normalized)."""
        return self.cls(args) if self.arity is None else self.cls(*args)


# In order-key rank order: a constructor's rank is its position plus 3.
CONSTRUCTORS = (
    Constructor(Seq, "seq", None),
    Constructor(PEnc, "penc", 2),
    Constructor(SEnc, "senc", 2),
    Constructor(Pk, "pk", 1, agent_args=True),
    Constructor(Sh, "sh", 2, agent_args=True),
    Constructor(Xor, "xor", None),
)
CONSTRUCTOR_OF_TYPE = {c.cls: c for c in CONSTRUCTORS}
CONSTRUCTOR_NAMED = {c.name: c for c in CONSTRUCTORS}


def is_constant_name(name: str) -> bool:
    """Does ``name`` parse as a constant in the protocol DSL: one identifier
    of letters, digits and ``_`` that does not start upper-case (a variable)
    and is not ``zero`` or a constructor name?"""
    return (
        name != ""
        and all(ch.isalnum() or ch == "_" for ch in name)
        and not name[0].isupper()
        and name != "zero"
        and name not in CONSTRUCTOR_NAMED
    )


_RANK = {Var: 0, Const: 1, Zero: 2, **{c.cls: rank for rank, c in enumerate(CONSTRUCTORS, 3)}}


def term_key(t: Term) -> tuple:
    """Total order key: (constructor rank, arity, atom payload, child keys)."""
    return t._key


def vars_of(t: Term) -> frozenset[Var]:
    return frozenset((t,)) if t._vars is None else t._vars


_NO_VARS: frozenset[Var] = frozenset()


def vars_of_all(terms: Iterable[Term]) -> frozenset[Var]:
    """The variables of all the terms.  A term's own set is reused when it
    covers the others, so ground terms share one empty set."""
    out = _NO_VARS
    for t in terms:
        vs = t._vars
        if vs is None:
            vs = frozenset((t,))
        if not vs <= out:
            out = out | vs if out else vs
    return out


def children(t: Term) -> tuple[Term, ...]:
    """The term's arguments in order; none for atoms and zero."""
    return t._args


def with_children(t: Term, kids: tuple[Term, ...]) -> Term:
    """A term with ``t``'s constructor and the given children (not normalized);
    a leaf, which has none, is returned as it is."""
    ctor = CONSTRUCTOR_OF_TYPE.get(type(t))
    return t if ctor is None else ctor.make(kids)


def map_term(
    t: Term, f: Callable[[Term], Term], keep: Callable[[Term], bool] | None = None
) -> Term:
    """Bottom-up rebuild: map the children, rebuild the node with the same
    constructor (reusing it when no child changed), then apply ``f`` to it.
    A subterm for which ``keep`` holds is returned as it is, unvisited: the
    caller promises that mapping it would give it back unchanged."""
    if keep is not None and keep(t):
        return t
    kids = children(t)
    if kids:
        new = tuple(map_term(c, f, keep) for c in kids)
        if any(n is not c for n, c in zip(new, kids)):
            t = with_children(t, new)
    return f(t)


ZERO = Zero()
_BUILT_CANONICAL = frozenset((Seq, PEnc, SEnc))


def _normalize_node(t: Term) -> Term:
    """Canonical form of a node whose children are already canonical, marked
    as such."""
    out = _reduce_node(t)
    object.__setattr__(out, "_canon", True)
    return out


def _canonical_node(ctor: Constructor, args: tuple[Term, ...]) -> Term:
    """The canonical form of the node of ``ctor`` over the canonical
    ``args``, marked as such.  A sequence or an encryption of canonical
    arguments is canonical as it is built, and an XOR is built once, over
    its summands."""
    cls = ctor.cls
    if cls is Xor:
        odd = _xor_summands(args)
        if len(odd) < 2:
            return odd[0] if odd else ZERO
        t = Xor(odd)
    else:
        t = cls(args) if ctor.arity is None else cls(*args)
        if cls not in _BUILT_CANONICAL:
            return _normalize_node(t)
    _set_canon(t, True)
    return t


def _xor_summands(items: tuple[Term, ...]) -> tuple[Term, ...]:
    """The summands of the XOR of the canonical ``items``: nested XORs
    flattened, ``zero`` dropped, equal summands cancelled in pairs
    (nilpotence), and the rest sorted."""
    flat: list[Term] = []
    for c in items:
        if isinstance(c, Xor):
            flat.extend(c.items)
        elif not isinstance(c, Zero):
            flat.append(c)
    keys = list(map(_order_key, flat))
    if all(map(operator.lt, keys, keys[1:])):
        # ascending, so no two are equal: nothing cancels
        return tuple(flat)
    counts: dict[Term, int] = {}
    for c in flat:
        counts[c] = counts.get(c, 0) + 1
    return tuple(sorted((c for c, n in counts.items() if n % 2 == 1), key=_order_key))


def _reduce_node(t: Term) -> Term:
    if isinstance(t, Seq) and not t.items:
        raise SortError("sequences must have at least one element")
    ctor = CONSTRUCTOR_OF_TYPE.get(type(t))
    if ctor is not None and ctor.agent_args:
        for arg in children(t):
            if not (isinstance(arg, (Var, Const)) and arg.sort is Sort.AGENT):
                raise SortError(f"{ctor.name} argument must be an Agent atom, got {to_text(arg)}")
        if isinstance(t, Sh) and t.right < t.left:
            return Sh(t.right, t.left)
    elif isinstance(t, Xor):
        odd = _xor_summands(t.items)
        if not odd:
            return ZERO
        if len(odd) == 1:
            return odd[0]
        return t if odd == t.items else Xor(odd)
    return t


_marked_canonical = operator.attrgetter("_canon")


def normalize(t: Term) -> Term:
    """Canonical form: flattened, parity-reduced, sorted XOR; sorted sh arguments.

    The result and every subterm of it are marked canonical, and a marked
    subterm is returned without a walk.  That is sound because ``normalize``
    is idempotent (``normalize(normalize(t)) == normalize(t)``) and a
    canonical form is unique: two terms are equal only when their trees are
    identical, so a term equal to a canonical one is itself canonical, and a
    mark can never sit on a term that normalizing would change.  The
    constructors leave compound terms unmarked, so a raw ``Xor`` or ``Sh``
    built by hand is always reduced.
    """
    return t if t._canon else map_term(t, _normalize_node, _marked_canonical)


def is_canonical_set(terms: tuple[Term, ...]) -> bool:
    """Whether ``terms`` is already the sorted, duplicate-free tuple of the
    canonical forms of its members: every member is marked canonical (see
    ``normalize``) and the members are strictly ascending in `term_key`
    order, so they are distinct.  A canonical member that no ``normalize``
    call has marked yet gives False, never a wrong True."""
    return all(map(_marked_canonical, terms)) and all(
        map(operator.lt, map(_order_key, terms), map(_order_key, terms[1:]))
    )


# -- convenience constructors (always canonical) ------------------------------


def var(name: str, sort: Sort = Sort.DATA) -> Var:
    return Var(name, sort)


def const(name: str, sort: Sort = Sort.DATA) -> Const:
    return Const(name, sort)


def seq(*items: Term) -> Term:
    return normalize(Seq(tuple(items)))


def penc(plain: Term, key: Term) -> Term:
    return normalize(PEnc(plain, key))


def senc(plain: Term, key: Term) -> Term:
    return normalize(SEnc(plain, key))


def pk(agent: Term) -> Term:
    return normalize(Pk(agent))


def sh(a: Term, b: Term) -> Term:
    return normalize(Sh(a, b))


def xor(*items: Term) -> Term:
    if not items:
        raise SortError("xor needs at least one argument")
    return normalize(Xor(tuple(items)))


def is_atom(t: Term) -> bool:
    return isinstance(t, (Var, Const))


def summands(t: Term) -> tuple[Term, ...]:
    """The XOR summands of a canonical term: the items of an XOR, none for
    ``zero``, otherwise the term itself."""
    if isinstance(t, Xor):
        return t.items
    if isinstance(t, Zero):
        return ()
    return (t,)


def subterms(t: Term) -> frozenset[Term]:
    """Reflexive subterm closure, descending through every argument position."""
    out: set[Term] = set()
    stack = [t]
    while stack:
        cur = stack.pop()
        if cur in out:
            continue
        out.add(cur)
        stack.extend(children(cur))
    return frozenset(out)


def interms(t: Term) -> frozenset[Term]:
    """Interior terms: through sequences, encryption plaintexts and XOR children.

    Key positions and the agent arguments of pk/sh are opaque; the term itself
    is always included.
    """
    out: set[Term] = set()
    stack = [t]
    while stack:
        cur = stack.pop()
        if cur in out:
            continue
        out.add(cur)
        if isinstance(cur, (Seq, Xor)):
            stack.extend(cur.items)
        elif isinstance(cur, (PEnc, SEnc)):
            stack.append(cur.plain)
    return frozenset(out)


def equal_mod(theory: Theory, t1: Term, t2: Term) -> bool:
    """Equality modulo the theory.

    A single canonical form decides all three theories: sh-argument sorting
    covers the STD identity and XOR normalization covers ACUN, and each is a
    no-op on terms that do not use the other theory's symbols.
    """
    del theory
    return normalize(t1) == normalize(t2)


# -- substitutions -------------------------------------------------------------


class Substitution:
    """A finite mapping from variables to terms, applied simultaneously."""

    __slots__ = ("_map", "_key")

    def __init__(self, mapping: Mapping[Var, Term] | Iterable[tuple[Var, Term]] = ()):
        m = dict(mapping.items() if isinstance(mapping, Mapping) else mapping)
        self._map = {v: n for v, t in m.items() if (n := normalize(t)) != v}
        self._key = tuple(sorted(self._map.items(), key=lambda kv: term_key(kv[0])))

    def __bool__(self) -> bool:
        return bool(self._map)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Substitution) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __contains__(self, v: Var) -> bool:
        return v in self._map

    def __len__(self) -> int:
        return len(self._map)

    def __repr__(self) -> str:
        inner = ", ".join(f"{to_text(t)}/{v.name}" for v, t in self._key)
        return "{" + inner + "}"

    def get(self, v: Var) -> Term | None:
        return self._map.get(v)

    def domain(self) -> tuple[Var, ...]:
        return tuple(v for v, _ in self._key)

    def items(self) -> tuple[tuple[Var, Term], ...]:
        return self._key

    def to_json_dict(self) -> dict[str, str]:
        """The bindings in canonical text form, in domain order."""
        return {to_text(v): to_text(t) for v, t in self._key}

    def apply(self, t: Term) -> Term:
        return apply_subst(self, t)

    def compose(self, then: "Substitution") -> "Substitution":
        """`self` followed by `then` (bindings of self rewritten by then)."""
        out: dict[Var, Term] = {v: then.apply(t) for v, t in self._map.items()}
        for v, t in then.items():
            out.setdefault(v, t)
        return Substitution(out)

    def restrict(self, keep: Iterable[Var]) -> "Substitution":
        keep = set(keep)
        return Substitution({v: t for v, t in self._map.items() if v in keep})

    def is_idempotent(self) -> bool:
        bound = set(self._map)
        return all(not (vars_of(t) & bound) for t in self._map.values())

    def close(self) -> "Substitution":
        """The idempotent form, in dependency order: each round resolves the
        bindings whose terms refer to no binding left unresolved, through
        those already resolved.  Raises :class:`SortError` when bindings
        refer to one another in a cycle, or when resolving puts a non-Agent
        into a pk/sh argument."""
        pending, resolved = dict(self._map), {}
        while pending:
            ready = [v for v, t in pending.items() if pending.keys().isdisjoint(vars_of(t))]
            if not ready:
                raise SortError(f"substitution is cyclic: {self!r}")
            done = Substitution(resolved)
            for v in ready:
                resolved[v] = done.apply(pending.pop(v))
        return Substitution(resolved)


EMPTY_SUBST = Substitution()


def apply_subst(s: Substitution, t: Term) -> Term:
    # bindings are canonical, so one bottom-up pass both substitutes and normalizes
    return map_term(
        t, lambda u: s._map.get(u, u) if isinstance(u, Var) else _normalize_node(u), _is_canonical_ground
    )


def _is_canonical_ground(t: Term) -> bool:
    # ``_vars`` is None on a variable, which may be in the substitution's domain
    return t._canon and t._vars is not None and not t._vars


# -- canonical text form --------------------------------------------------------


def to_text(t: Term) -> str:
    """Render the canonical text form (stable, whitespace-free).

    A term is rendered once; the text is kept on it for later calls."""
    text = t._text
    if text is None:
        text = _render(t)
        object.__setattr__(t, "_text", text)
    return text


def _render(t: Term) -> str:
    if isinstance(t, Var):
        return f"var({t.name}:{t.sort.value})"
    if isinstance(t, Const):
        return f"const({t.name}:{t.sort.value})"
    if isinstance(t, Zero):
        return "zero"
    return CONSTRUCTOR_OF_TYPE[type(t)].name + "(" + ",".join(map(to_text, children(t))) + ")"


_SORT_BY_NAME = {s.value: s for s in Sort}


class TermTextError(XorsleuthError):
    """Malformed canonical text form."""


def from_text(text: str) -> Term:
    """Parse the canonical text form produced by :func:`to_text`."""
    return _read_term(text, {})


# The tokens of a term text, which cover it: a whole atom, ``var(...)`` or
# ``const(...)`` (its text runs to the first ``)``), a punctuation mark, or
# a head, the text up to the next mark.
_TERM_TOKEN = re.compile(r"(?:var|const)\([^)]*\)|[(),]|[^(),]+")
# the tokens that hold no head: the marks and the end of the text
_NO_HEAD = frozenset(("(", ")", ",", ""))


def _read_term(text: str, seen: dict[str, Term]) -> Term:
    """The term that ``text`` writes in the canonical text form.  ``seen``
    maps the text of each atom and compound term read so far to its term,
    and gains those of ``text``: the reads of one trace share it, so each
    distinct subterm is built once, canonical from its canonical children.

    One loop reads the tokens, with a stack of the constructors still open:
    each one's name, the offset of its text and its arguments so far.  A
    syntax error anywhere is reported before a term that breaks the sort
    discipline, and of those the first to be closed."""
    toks = _TERM_TOKEN.findall(text)
    toks.append("")
    stack: list[tuple[str, int, list[Term]]] = []
    failed: SortError | None = None
    i = pos = 0  # the index and offset of the token that starts a term
    while True:
        tok = toks[i]
        # a token that is a key of ``seen`` is an atom's text
        term = seen.get(tok)
        if term is not None:
            i += 1
            pos += len(tok)
        elif tok[-1:] == ")" and len(tok) > 1:
            kind, _, inner = tok[:-1].partition("(")
            name, colon, sort_name = inner.rpartition(":")
            sort = _SORT_BY_NAME.get(sort_name)
            if not colon or sort is None or not name:
                raise TermTextError(f"malformed atom {inner!r}")
            term = seen[tok] = (Var if kind == "var" else Const)(name, sort)
            i += 1
            pos += len(tok)
        elif tok == "zero":
            term = ZERO
            i += 1
            pos += 4
        else:
            # a constructor's name, empty before a mark, and its '('
            start = pos
            if tok in _NO_HEAD:
                head = ""
            else:
                head = tok
                i += 1
                pos += len(tok)
            if toks[i] != "(":
                if toks[i] == ")" and not head and stack and not stack[-1][2]:
                    raise TermTextError(f"expected a term at offset {pos}")
                raise TermTextError(f"expected '(' after {head!r} at offset {pos}")
            if head in ("var", "const"):
                # an atom's text would have matched whole
                raise TermTextError("unterminated atom")
            stack.append((head, start, []))
            i += 1
            pos += 1
            continue
        # the term is read: close each constructor it ends
        while stack:
            args = stack[-1][2]
            args.append(term)
            mark = toks[i]
            if mark == ",":
                i += 1
                pos += 1
                break
            if mark != ")":
                if not mark:
                    raise TermTextError("unterminated term")
                raise TermTextError(f"unexpected character {mark[0]!r} at offset {pos}")
            head, start, _ = stack.pop()
            i += 1
            pos += 1
            ctor = CONSTRUCTOR_NAMED.get(head)
            if ctor is None or ctor.arity not in (None, len(args)):
                raise TermTextError(f"unknown constructor {head!r} with {len(args)} arguments")
            key = text[start:pos]
            term = seen.get(key)
            if term is None and failed is None:
                try:
                    term = seen[key] = _canonical_node(ctor, tuple(args))
                except SortError as e:
                    failed = e
        else:
            if toks[i]:
                raise TermTextError(f"trailing input at offset {pos}: {text[pos:]!r}")
            if failed is not None:
                raise failed
            return term
