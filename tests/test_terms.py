"""Term algebra: canonical forms, equality oracle, orders, substitutions."""

import contextlib
import copy
import io
import itertools
import pickle
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xorsleuth import cli, terms
from xorsleuth.solver import Constraint
from xorsleuth.terms import (
    CONSTRUCTOR_NAMED,
    CONSTRUCTORS,
    EMPTY_SUBST,
    ZERO,
    Const,
    PEnc,
    Pk,
    SEnc,
    Seq,
    Sh,
    Sort,
    SortError,
    Substitution,
    Term,
    TermTextError,
    Theory,
    Var,
    Xor,
    Zero,
    apply_subst,
    children,
    const,
    equal_mod,
    from_text,
    interms,
    is_canonical_set,
    normalize,
    penc,
    pk,
    seq,
    senc,
    sh,
    subterms,
    term_key,
    to_text,
    var,
    vars_of,
    xor,
)

a = const("a", Sort.AGENT)
b = const("b", Sort.AGENT)
c = const("c", Sort.DATA)
d = const("d", Sort.DATA)
na = const("n_a", Sort.NONCE)
A = var("A", Sort.AGENT)
B = var("B", Sort.AGENT)
NA = var("N_A", Sort.NONCE)
X = var("X", Sort.DATA)


class TestNormalize:
    def test_xor_unit(self):
        assert normalize(Xor((c, ZERO))) == c

    def test_xor_nilpotence(self):
        assert normalize(Xor((c, c))) == ZERO

    def test_xor_flatten_and_cancel(self):
        # a ⊕ (b ⊕ a) collapses to b
        assert normalize(Xor((c, Xor((d, c))))) == d

    def test_xor_children_sorted(self):
        assert xor(d, c) == xor(c, d)
        assert to_text(xor(d, c)) == "xor(const(c:Data),const(d:Data))"

    def test_xor_parity(self):
        assert xor(c, d, c, d) == ZERO
        assert xor(c, c, c) == c

    def test_xor_single_collapses(self):
        assert xor(c) == c

    def test_zero_child_dropped(self):
        assert xor(c, ZERO, d) == xor(c, d)

    def test_sh_arguments_sorted(self):
        assert sh(b, a) == sh(a, b)
        assert sh(b, A) == Sh(A, b)  # variables order before constants

    def test_sequences_keep_order(self):
        assert seq(c, d) != seq(d, c)

    def test_idempotent(self):
        t = xor(penc(seq(c, Xor((d, ZERO))), pk(B)), c, c)
        assert normalize(normalize(t)) == normalize(t)

    def test_pk_argument_must_be_agent_atom(self):
        with pytest.raises(SortError):
            pk(c)
        with pytest.raises(SortError):
            sh(a, seq(a, b))

    def test_empty_sequence_rejected(self):
        with pytest.raises(SortError):
            normalize(Seq(()))


class TestEqualMod:
    def test_acun_identities(self):
        assert equal_mod(Theory.ACUN, Xor((Xor((c, d)), na)), Xor((c, Xor((d, na)))))
        assert equal_mod(Theory.ACUN, Xor((c, d)), Xor((d, c)))
        assert equal_mod(Theory.ACUN, Xor((c, ZERO)), c)
        assert equal_mod(Theory.ACUN, Xor((c, c)), ZERO)

    def test_std_sh_commutes(self):
        assert equal_mod(Theory.STD, sh(a, b), sh(b, a))

    def test_sequences_not_commutative(self):
        assert not equal_mod(Theory.SUA, seq(c, d), seq(d, c))

    def test_distinct_constants_differ(self):
        assert not equal_mod(Theory.SUA, c, d)


class TestSubterms:
    def test_subterms_include_keys(self):
        t = penc(seq(A, NA), pk(B))
        st_ = subterms(t)
        assert pk(B) in st_ and B in st_ and NA in st_ and t in st_

    def test_interms_stop_at_keys(self):
        t = penc(seq(A, NA), pk(B))
        it = interms(t)
        assert seq(A, NA) in it and NA in it and t in it
        assert pk(B) not in it and B not in it

    def test_interms_enter_xor(self):
        t = xor(seq(c, na), d)
        assert na in interms(t) and seq(c, na) in interms(t)

    def test_interm_reflexive(self):
        assert pk(B) in interms(pk(B))
        assert B not in interms(pk(B))

    def test_interms_subset_of_subterms(self):
        t = penc(xor(seq(c, na), d), sh(a, b))
        assert interms(t) <= subterms(t)


class TestSubstitution:
    def test_apply_renormalizes(self):
        s = Substitution({X: c})
        assert apply_subst(s, xor(X, c)) == ZERO

    def test_apply_into_positions(self):
        s = Substitution({B: a, NA: na})
        assert s.apply(penc(seq(A, NA), pk(B))) == penc(seq(A, na), pk(a))

    def test_identity_bindings_dropped(self):
        assert not Substitution({X: X})
        assert Substitution({X: Xor((c, ZERO, c))}) == Substitution({X: ZERO})

    def test_compose(self):
        s1 = Substitution({X: seq(B, c)})
        s2 = Substitution({B: a})
        assert s1.compose(s2).apply(X) == seq(a, c)
        assert s1.compose(s2).get(B) == a

    def test_close_makes_idempotent(self):
        Y = var("Y")
        s = Substitution({X: seq(Y, c), Y: d}).close()
        assert s.is_idempotent()
        assert s.apply(X) == seq(d, c)

    def test_close_resolves_through_bindings(self):
        # W's binding refers to X, whose binding is resolved first, as when
        # an XOR unifier's grounding constants are mapped back to variables
        Y, W = var("Y"), var("W")
        s = Substitution({X: seq(c, d), W: xor(X, Y)}).close()
        assert s == Substitution({X: seq(c, d), W: xor(seq(c, d), Y)})

    @pytest.mark.parametrize("n", [2, 3, 30])
    def test_close_rejects_cycles(self, n):
        vs = [var(f"V{i}") for i in range(n)]
        s = Substitution({v: seq(vs[(i + 1) % n], c) for i, v in enumerate(vs)})
        with pytest.raises(SortError, match="cyclic"):
            s.close()

    def test_close_passes_free_variables_through(self):
        Y = var("Y")
        s = Substitution({X: seq(Y, c)})
        assert s.close() == s

    def test_restrict(self):
        s = Substitution({X: c, B: a})
        assert s.restrict([X]).domain() == (X,)

    def test_empty(self):
        assert not EMPTY_SUBST
        assert EMPTY_SUBST.apply(seq(c, d)) == seq(c, d)


class TestTextForm:
    def test_examples(self):
        assert to_text(NA) == "var(N_A:Nonce)"
        assert to_text(a) == "const(a:Agent)"
        assert to_text(ZERO) == "zero"
        assert to_text(penc(seq(A, NA), pk(B))) == (
            "penc(seq(var(A:Agent),var(N_A:Nonce)),pk(var(B:Agent)))"
        )
        assert to_text(sh(b, a)) == "sh(const(a:Agent),const(b:Agent))"

    def test_round_trip(self):
        t = senc(xor(seq(c, na), d, X), sh(a, b))
        assert from_text(to_text(t)) == t

    def test_rejects_garbage(self):
        for bad in ("", "var(X)", "seq()", "pk(const(a:Agent)", "frob(zero)", "zero,zero"):
            with pytest.raises((TermTextError, SortError)):
                from_text(bad)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("", "expected '(' after '' at offset 0"),
            ("var(X)", "malformed atom 'X'"),
            ("seq()", "expected a term at offset 4"),
            ("xor()", "expected a term at offset 4"),
            ("pk(const(a:Agent)", "unterminated term"),
            ("frob(zero)", "unknown constructor 'frob' with 1 arguments"),
            ("zero,zero", "trailing input at offset 4: ',zero'"),
            ("const(a:Agent", "unterminated atom"),
            ("var,zero", "expected '(' after 'var' at offset 3"),
            ("seq(zero;zero)", "expected '(' after 'zero;zero' at offset 13"),
            ("seq(zero,zero(", "unexpected character '(' at offset 13"),
            ("const(:Data)", "malformed atom ':Data'"),
            ("var(a:Widget)", "malformed atom 'a:Widget'"),
        ],
    )
    def test_garbage_messages(self, bad, message):
        with pytest.raises(TermTextError) as exc:
            from_text(bad)
        assert str(exc.value) == message

    def test_atom_text_runs_to_the_first_paren_and_its_sort_follows_the_last_colon(self):
        assert from_text("const(a:b(c,d:Data)") == Const("a:b(c,d", Sort.DATA)
        assert from_text("seq(var(x:y:Key),zero)") == seq(Var("x:y", Sort.KEY), ZERO)

    @given(
        st.one_of(
            st.text(max_size=40),
            st.lists(
                st.sampled_from(
                    ["var(", "const(", "seq(", "xor(", "pk(", "sh(", "senc(", "penc(", "zero", ",", ")", "(",
                     ":", "Agent", "Nonce", "Data", "a", "X", "var", "frob(", " ", "a:Agent)", "X:Nonce)"]
                ),
                max_size=16,
            ).map("".join),
        )
    )
    @settings(max_examples=400, deadline=None)
    def test_arbitrary_text_raises_only_text_or_sort_errors(self, text):
        try:
            t = from_text(text)
        except (TermTextError, SortError):
            return
        assert from_text(to_text(t)) == t


# -- independent ACUN oracle: closure under the four identities -----------------
#
# Raw binary XOR trees are rewritten with associativity (both directions),
# commutativity, unit removal and nilpotence removal, anywhere in the tree.
# The shrinking rules modulo the AC orbit are convergent, so two trees are
# ACUN-equal exactly when their closures intersect.


def _rewrites(t: Term):
    if isinstance(t, Xor) and len(t.items) == 2:
        x, y = t.items
        yield Xor((y, x))
        if isinstance(x, Xor) and len(x.items) == 2:
            yield Xor((x.items[0], Xor((x.items[1], y))))
        if isinstance(y, Xor) and len(y.items) == 2:
            yield Xor((Xor((x, y.items[0])), y.items[1]))
        if x == ZERO:
            yield y
        if y == ZERO:
            yield x
        if x == y:
            yield ZERO
        for rx in _rewrites(x):
            yield Xor((rx, y))
        for ry in _rewrites(y):
            yield Xor((x, ry))


def _closure(t: Term) -> frozenset[Term]:
    seen = {t}
    frontier = [t]
    while frontier:
        nxt = []
        for u in frontier:
            for r in _rewrites(u):
                if r not in seen:
                    seen.add(r)
                    nxt.append(r)
        frontier = nxt
        assert len(seen) < 20000
    return frozenset(seen)


def _raw_xor_trees(atoms, size):
    if size == 1:
        yield from atoms
        yield ZERO
        return
    for ls in range(1, size):
        for left in _raw_xor_trees(atoms, ls):
            for right in _raw_xor_trees(atoms, size - ls):
                yield Xor((left, right))


def test_acun_equality_matches_rewriting_closure():
    atoms = (c, d)
    trees = [t for s in (1, 2, 3) for t in _raw_xor_trees(atoms, s)]
    pairs = list(itertools.product(trees, trees))
    checked_equal = 0
    for t1, t2 in pairs:
        expected = bool(_closure(t1) & _closure(t2))
        got = equal_mod(Theory.ACUN, t1, t2)
        assert got == expected, f"{t1} vs {t2}"
        checked_equal += expected
    assert checked_equal >= len(trees)  # at least the diagonal


def test_acun_closure_spot_check_four_atoms():
    t1 = Xor((c, Xor((d, Xor((c, na))))))  # c⊕d⊕c⊕n_a
    t2 = Xor((na, d))
    assert _closure(t1) & _closure(t2)
    assert equal_mod(Theory.ACUN, t1, t2)
    t3 = Xor((na, c))
    assert not (_closure(t1) & _closure(t3))
    assert not equal_mod(Theory.ACUN, t1, t3)


# -- property tests --------------------------------------------------------------

_atoms = st.sampled_from([a, b, c, d, na, A, B, NA, X, ZERO])


def _compound(kids):
    return st.one_of(
        st.tuples(kids, kids).map(lambda p: Seq(p)),
        st.tuples(kids, kids).map(lambda p: Xor(p)),
        st.tuples(kids, kids).map(lambda p: PEnc(*p)),
        st.tuples(kids, kids).map(lambda p: Xor((Xor(p), p[0]))),
    )


_raw_terms = st.recursive(_atoms, _compound, max_leaves=12)


@given(_raw_terms)
@settings(max_examples=300)
def test_normalize_idempotent(t):
    n = normalize(t)
    assert normalize(n) is n


def _canonical_tree(t):
    """The canonical-form invariants, read off the tree itself: XOR nodes have
    at least two children in strictly increasing order, none of them an XOR
    or zero, and sh arguments are in order."""
    if isinstance(t, Xor):
        items = t.items
        if len(items) < 2 or any(isinstance(i, Xor) or i == ZERO for i in items):
            return False
        if any(not term_key(x) < term_key(y) for x, y in zip(items, items[1:])):
            return False
    if isinstance(t, Sh) and term_key(t.right) < term_key(t.left):
        return False
    return all(_canonical_tree(k) for k in children(t))


_agents = st.sampled_from([a, b, A, B])


@given(_raw_terms, _raw_terms, _agents, _agents)
@settings(max_examples=300)
def test_normalize_reduces_raw_nodes_over_canonical_children(t1, t2, x, y):
    # the children are canonical (and marked so) but the node built on them
    # is not, so normalizing must still reduce it
    n1, n2 = normalize(t1), normalize(t2)
    raws = (Xor((n1, n2, n1)), Xor((n2, n1)), Xor((Xor((n1, n2)), n2)), Seq((Sh(y, x), n1)), Sh(y, x))
    for raw in raws:
        n = normalize(raw)
        assert _canonical_tree(n)
        assert normalize(n) is n
        # the same tree with no canonical marks anywhere normalizes alike
        assert n == normalize(copy.deepcopy(raw))


@given(st.lists(_raw_terms, max_size=5))
@settings(max_examples=300)
def test_canonical_set_is_recognized_by_its_marks(ts):
    canonical = tuple(sorted({normalize(t) for t in ts}, key=term_key))
    assert is_canonical_set(canonical)
    # a tuple it accepts is its own canonical set
    if is_canonical_set(tuple(ts)):
        assert tuple(ts) == canonical
    # unmarked compound members, canonical as they are, are not taken on trust
    assert is_canonical_set(copy.deepcopy(canonical)) == all(not children(t) for t in canonical)


@given(_raw_terms, _raw_terms)
@settings(max_examples=300)
def test_equality_is_congruent(t1, t2):
    if equal_mod(Theory.SUA, t1, t2):
        assert equal_mod(Theory.SUA, Seq((t1, c)), Seq((t2, c)))
        assert equal_mod(Theory.SUA, Xor((t1, d)), Xor((t2, d)))
        assert equal_mod(Theory.SUA, PEnc(t1, pk(a)), PEnc(t2, pk(a)))


@given(_raw_terms)
@settings(max_examples=200)
def test_key_agrees_with_equality(t):
    n = normalize(t)
    assert (term_key(n) == term_key(normalize(t))) and n == normalize(t)


@given(_raw_terms, _raw_terms)
@settings(max_examples=300)
def test_key_total_order(t1, t2):
    n1, n2 = normalize(t1), normalize(t2)
    k1, k2 = term_key(n1), term_key(n2)
    assert (k1 == k2) == (n1 == n2)
    assert (k1 < k2) or (k2 < k1) or (k1 == k2)
    if n1 == n2:
        assert hash(n1) == hash(n2)
    # the solver's string state keys prune exactly the states term equality would
    assert (to_text(n1) == to_text(n2)) == (n1 == n2)


@given(_raw_terms)
@settings(max_examples=200)
def test_substitution_commutes_with_normalization(t):
    s = Substitution({X: xor(c, d), NA: na, B: a})
    assert apply_subst(s, t) == apply_subst(s, normalize(t))


@given(_raw_terms)
@settings(max_examples=200)
def test_text_round_trip(t):
    n = normalize(t)
    assert from_text(to_text(n)) == n


@given(_raw_terms)
@settings(max_examples=100)
def test_copies_keep_key_hash_and_vars(t):
    n = normalize(t)
    for dup in (copy.deepcopy(n), pickle.loads(pickle.dumps(n))):
        assert dup == n and hash(dup) == hash(n)
        assert term_key(dup) == term_key(n) and vars_of(dup) == vars_of(n)


@given(_raw_terms)
@settings(max_examples=200)
def test_vars_of_matches_subterms(t):
    n = normalize(t)
    assert vars_of(n) == {s for s in subterms(n) if isinstance(s, Var)}


# -- constructors ------------------------------------------------------------------


def reference_vars_of_all(ts):
    out = frozenset()
    for t in ts:
        vs = vars_of(t)
        if not vs <= out:
            out = out | vs if out else vs
    return out


def reference_children(t):
    """The arguments of ``t`` read from its fields (its class's ``_fields``):
    the items of a sequence or XOR, none for an atom or zero, the fields in
    order otherwise."""
    if isinstance(t, (Seq, Xor)):
        return t.items
    if isinstance(t, (Var, Const, Zero)):
        return ()
    return tuple(getattr(t, name) for name in type(t)._fields)


def reference_fields(t):
    """The cached fields of ``t`` as one shared formula computes them,
    from its fields rather than its kept arguments: (key, hash, variables,
    canonical mark)."""
    kids = reference_children(t)
    rank = terms._RANK[type(t)]
    payload = f"{t.name}:{t.sort.value}" if isinstance(t, (Var, Const)) else ""
    return (
        (rank, len(kids), payload, tuple(term_key(k) for k in kids)),
        hash((rank, payload, tuple(hash(k) for k in kids))),
        None if isinstance(t, Var) else reference_vars_of_all(kids),
        isinstance(t, (Var, Const, Zero)),
    )


def rebuilt(t):
    """A new node with ``t``'s fields, through the constructor."""
    return type(t)(*(getattr(t, name) for name in type(t)._fields))


def nodes(t):
    out = [t]
    for k in children(t):
        out += nodes(k)
    return out


_raw_with_every_class = st.one_of(
    _raw_terms,
    st.tuples(_raw_terms, _agents, _agents).map(lambda p: SEnc(p[0], Sh(p[1], p[2]))),
    st.tuples(_raw_terms, _agents).map(lambda p: Seq((p[0], Pk(p[1]), Xor((p[0], p[0], ZERO))))),
)


@given(_raw_with_every_class)
@settings(max_examples=300)
def test_constructors_match_the_reference_formulas(t):
    for n in nodes(t) + nodes(normalize(t)):
        fresh = rebuilt(n)
        assert (fresh._key, fresh._hash, fresh._vars, fresh._canon) == reference_fields(n)
        assert children(fresh) == reference_children(n)
        assert fresh._text is None
        # a built node keeps its key, hash and variables; only the marks set later may differ
        assert (n._key, n._hash, n._vars) == reference_fields(n)[:3]


_ONE_OF_EACH = [X, c, ZERO, Seq((c, X)), PEnc(c, pk(a)), SEnc(X, c), Pk(a), Sh(a, b), Xor((c, X))]


def test_every_class_matches_the_reference_formulas():
    assert {type(t) for t in _ONE_OF_EACH} == set(terms._RANK)
    for t in _ONE_OF_EACH:
        fresh = rebuilt(t)
        assert (fresh._key, fresh._hash, fresh._vars, fresh._canon) == reference_fields(t)
        assert children(fresh) == children(t) == reference_children(t)
        # a sequence or XOR keeps its items tuple as its arguments, not a copy
        assert not isinstance(t, (Seq, Xor)) or children(fresh) is fresh.items


@pytest.mark.parametrize("t", [t for t in _ONE_OF_EACH if t != ZERO], ids=lambda t: type(t).__name__)
def test_fields_are_frozen(t):
    # zero, the one class without fields, has none to assign
    for name in type(t)._fields:
        before = getattr(t, name)
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(t, name, c)
        assert getattr(t, name) is before


def test_constraint_fields_are_frozen():
    con = Constraint(X, [c, a])
    for name in ("target", "term_set", "variables", "_hash"):
        before = getattr(con, name)
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(con, name, c)
        assert getattr(con, name) is before


@pytest.mark.parametrize("t", _ONE_OF_EACH, ids=lambda t: type(t).__name__)
def test_copies_go_through_the_constructor(t):
    # the original's text and canonical mark are set later; a copy built
    # by the constructor starts without them, as a node built anew does
    to_text(t)
    normalize(t)
    for dup in (copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
        assert dup == t and dup is not t
        assert (dup._key, dup._hash, dup._vars, dup._canon) == reference_fields(dup)
        assert children(dup) == children(t) == reference_children(t)
        assert dup._text is None


def test_constraint_copies_go_through_the_constructor():
    con = Constraint(Xor((c, X)), [Sh(b, a), X, c])
    con.naming_order()
    for dup in (copy.deepcopy(con), pickle.loads(pickle.dumps(con))):
        assert dup == con and hash(dup) == hash(con)
        assert dup._naming is None
        assert (dup.variables, dup.set_variables) == (con.variables, con.set_variables)


# -- the text reader against the one it replaced ---------------------------------

_REF_ATOM_OR_HEAD = re.compile(r"(var|const)\(([^)]*)\)|([^(),]*)")


def reference_from_text(text):
    """The text reader before it read its tokens with one regular
    expression: a recursive descent over the characters that builds the raw
    term, then normalizes it."""
    term, pos = _reference_parse_term(text, 0)
    if pos != len(text):
        raise TermTextError(f"trailing input at offset {pos}: {text[pos:]!r}")
    return normalize(term)


def _reference_parse_term(s, pos):
    m = _REF_ATOM_OR_HEAD.match(s, pos)
    head = m.group(3)
    pos = m.end()
    if head is None:
        inner = m.group(2)
        name, colon, sort_name = inner.rpartition(":")
        sorts = {s.value: s for s in Sort}
        if not colon or sort_name not in sorts or not name:
            raise TermTextError(f"malformed atom {inner!r}")
        cls = Var if m.group(1) == "var" else Const
        return cls(name, sorts[sort_name]), pos
    if head == "zero":
        return ZERO, pos
    if pos >= len(s) or s[pos] != "(":
        raise TermTextError(f"expected '(' after {head!r} at offset {pos}")
    if head in ("var", "const"):
        raise TermTextError("unterminated atom")
    pos += 1
    args = []
    while True:
        arg, pos = _reference_parse_term(s, pos)
        args.append(arg)
        if pos >= len(s):
            raise TermTextError("unterminated term")
        if s[pos] == ",":
            pos += 1
            continue
        if s[pos] == ")":
            pos += 1
            break
        raise TermTextError(f"unexpected character {s[pos]!r} at offset {pos}")
    ctor = CONSTRUCTOR_NAMED.get(head)
    if ctor is None or ctor.arity not in (None, len(args)):
        raise TermTextError(f"unknown constructor {head!r} with {len(args)} arguments")
    return ctor.make(tuple(args)), pos


def read(reader, text):
    """The term ``text`` reads to, or the type and text of the error."""
    try:
        return reader(text)
    except (TermTextError, SortError) as e:
        return type(e), str(e)


def reference_read(text):
    """`read` of the reference reader, with the one message the new reader
    words otherwise: a ')' where a constructor's first argument should
    start is reported as the term it lacks."""
    got = read(reference_from_text, text)
    empty = re.fullmatch(r"expected '\(' after '' at offset (\d+)", got[1]) if isinstance(got, tuple) else None
    if empty and text[int(empty[1]) - 1 : int(empty[1]) + 1] == "()":
        return TermTextError, f"expected a term at offset {empty[1]}"
    return got


def _any_compound(kids):
    # every constructor over any arguments, so pk and sh may break the sort
    # discipline and XOR may nest or cancel
    return st.one_of(
        *(
            st.lists(kids, min_size=n or 1, max_size=n or 3).map(lambda args, c=c: c.make(tuple(args)))
            for c in CONSTRUCTORS
            for n in [c.arity]
        )
    )


_any_raw_terms = st.recursive(_atoms, _any_compound, max_leaves=10)

_TEXT_PIECES = st.sampled_from(
    ["var(", "const(", "seq(", "xor(", "pk(", "sh(", "senc(", "penc(", "zero", ",", ")", "(", ":", "Agent",
     "Nonce", "Data", "a", "X", "var", "frob(", " ", "a:Agent)", "X:Nonce)", "const(a:Data)", "()"]
)


class TestTextReaderAgainstReference:
    """The one-scan text reader against the recursive one it replaced: the
    same term, every node of it marked canonical, or the same error."""

    @staticmethod
    def assert_reads_alike(text):
        got, want = read(from_text, text), reference_read(text)
        assert got == want
        if isinstance(got, Term):
            assert all(s._canon for s in subterms(got))

    @given(_raw_terms)
    @settings(max_examples=300, deadline=None)
    def test_texts_of_drawn_terms(self, t):
        # the raw term's text, then its canonical form's
        self.assert_reads_alike(to_text(t))
        self.assert_reads_alike(to_text(normalize(t)))

    @given(_any_raw_terms)
    @settings(max_examples=300, deadline=None)
    def test_texts_of_terms_of_every_constructor(self, t):
        self.assert_reads_alike(to_text(t))

    @pytest.mark.parametrize(
        "text",
        [
            "sh(const(b:Agent),const(a:Agent))",
            "xor(xor(const(c:Data),xor(const(d:Data),zero)),const(c:Data))",
            "xor(const(c:Data),xor(const(d:Data),const(c:Data)),const(d:Data))",
            "seq(xor(var(X:Data),var(X:Data)),sh(var(B:Agent),var(A:Agent)))",
            "pk(xor(const(a:Agent),zero))",
            "penc(seq(var(A:Agent),var(N_A:Nonce)),pk(var(B:Agent)))",
        ],
    )
    def test_non_canonical_texts(self, text):
        self.assert_reads_alike(text)

    @given(st.one_of(st.text(max_size=40), st.lists(_TEXT_PIECES, max_size=16).map("".join)))
    @settings(max_examples=500, deadline=None)
    def test_arbitrary_texts(self, text):
        self.assert_reads_alike(text)

    @given(_any_raw_terms, st.data())
    @settings(max_examples=300, deadline=None)
    def test_texts_with_one_edit(self, t, data):
        # a character of a term's text deleted, doubled or replaced by a mark
        text = to_text(t)
        k = data.draw(st.integers(0, len(text) - 1))
        edit = data.draw(st.sampled_from(["", text[k] * 2, "(", ")", ",", "x"]))
        self.assert_reads_alike(text[:k] + edit + text[k + 1 :])

    @pytest.mark.parametrize(
        "text",
        ["", "seq()", "xor()", "pk()", "frob()", "()", "seq((),zero)", "seq(zero,)", "seq(,zero)", "seq(",
         "pk(const(a:Data))", "seq(pk(const(a:Data)),zero", "frob(pk(const(a:Data)))", "pk(const(a:Data)),x",
         "sh(const(a:Agent),pk(const(b:Agent)))", "seq(var(x:Data)var(y:Data))", "seq(zerovar(x:Data))"],
    )
    def test_malformed_texts(self, text):
        self.assert_reads_alike(text)


# The attacks of the benchmark's `attacks` workload (perfbench/workloads.py):
# (protocols, sessions, --secret names); ``leak_xy`` sends the key sh(x, y).
ATTACKS = (
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


@pytest.fixture(scope="module")
def attack_traces(tmp_path_factory):
    """The report `analyze --json` writes for each attack."""
    out = tmp_path_factory.mktemp("traces")
    fixtures = Path(cli.__file__).parent / "fixtures"

    def path(name):
        if name.startswith("leak_"):
            leak = out / f"{name}.proto"
            leak.write_text(f"protocol {name}\nrole A:\n  send sh({name[-2]}, {name[-1]})\n")
            return str(leak)
        return str(fixtures / f"{name}.proto")

    traces = []
    for protocols, sessions, secrets in ATTACKS:
        report = out / f"{'+'.join(protocols)}@{sessions}.json"
        argv = ["analyze", path(protocols[0]), *(a for p in protocols[1:] for a in ("--combined", path(p)))]
        argv += ["--sessions", str(sessions), *(a for s in secrets for a in ("--secret", s)), "--json", str(report)]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.run_command(argv) == 1, argv
        traces.append(report)
    return traces


def test_traces_load_as_with_the_reference_reader(attack_traces, monkeypatch):
    for report in attack_traces:
        got = cli._load_trace(str(report))
        with monkeypatch.context() as m:
            m.setattr(cli, "_read_term", lambda text, seen: reference_from_text(text))
            want = cli._load_trace(str(report))
        assert got.constraints == want.constraints, report.name
        assert got.subst == want.subst, report.name
        assert cli._trace_digest(got) == cli._trace_digest(want), report.name
        # every node is canonical, and a subterm that recurs across the
        # trace is one object
        first = {}
        for c in got.constraints:
            for t in (c.target, *c.term_set):
                for s in subterms(t):
                    assert s._canon and first.setdefault(s, s) is s, report.name
