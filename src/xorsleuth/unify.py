"""Unification in the free theory, the XOR theory, and their combination.

One walk, ``_free_split``, decomposes equations through the free
constructors (with commutative shared keys) and pairs the summands of XORs
of free-headed terms (the XOR decomposition step of Liu–Lynch, CADE 2011),
rejecting equations whose sides clash there.  ``unify_std`` solves XOR-free
equations by that split and a binding of one open pair at a time
(Martelli–Montanari, TOPLAS 1982), and the instance check behind its
pruning (``is_instance_of``) asks the same solver about frozen terms.
``unify_acun`` solves pure XOR problems by Gaussian elimination over
GF(2), and ``bsca_unify`` combines the two (Baader–Schulz, JSC 1996): it
splits every problem first, then purifies what is left, searches variable
identifications and theory splits, solves the two pure projections
independently, and recombines the partial unifiers by closing their union
(``Substitution.close``).
Every combined candidate is validated against the original equations, so the
search heuristics can only cost completeness, never soundness.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence

from .terms import (
    EMPTY_SUBST,
    Const,
    PEnc,
    Pk,
    Record,
    SEnc,
    Seq,
    Sh,
    Sort,
    SortError,
    Substitution,
    Term,
    Theory,
    Var,
    Xor,
    XorsleuthError,
    Zero,
    children,
    equal_mod,
    is_atom,
    map_term,
    normalize,
    subterms,
    summands,
    term_key,
    to_text,
    vars_of,
    vars_of_all,
    with_children,
)

ABSTRACTION_PREFIX = "#v"
GROUNDING_PREFIX = "#c"

_FLEX_SORTS = (Sort.DATA, Sort.NONCE, Sort.KEY)


class MixedTheoryTerm(XorsleuthError):
    """A free-theory unification problem mentions XOR or zero."""


class NonPureAcun(XorsleuthError):
    """An XOR-theory problem contains an unabstracted free-theory subterm."""


class PartitionSpaceExceeded(XorsleuthError):
    """Too many variables to enumerate identifications."""


class Equation(Record):
    __slots__ = _fields = ("left", "right", "theory")

    def __init__(self, left: Term, right: Term, theory: Theory = Theory.SUA) -> None:
        init = object.__setattr__
        init(self, "left", left)
        init(self, "right", right)
        init(self, "theory", theory)

    def normalized(self) -> "Equation":
        return Equation(normalize(self.left), normalize(self.right), self.theory)

    def __repr__(self) -> str:
        return f"{to_text(self.left)} =?[{self.theory.value}] {to_text(self.right)}"


class UnificationProblem(Record):
    """Equations to solve modulo SUA, the one theory ``bsca_unify`` solves.
    A caller may still name it as the second argument, which is not kept;
    any other theory is refused rather than silently solved modulo SUA."""

    __slots__ = _fields = ("equations",)

    def __init__(self, equations: tuple[Equation, ...], theory: Theory = Theory.SUA) -> None:
        if theory is not Theory.SUA:
            raise ValueError(f"bsca_unify solves SUA problems only, not {theory.value}")
        object.__setattr__(self, "equations", equations)


def _as_equations(equations) -> list[Equation]:
    out = []
    for e in equations:
        if isinstance(e, Equation):
            out.append(e.normalized())
        else:
            s, t = e
            out.append(Equation(normalize(s), normalize(t)))
    return out


def binding_ok(v: Var, t: Term) -> bool:
    """Sort discipline: Agent/Tag variables only take atoms of their own sort."""
    if v.sort in (Sort.AGENT, Sort.TAG):
        return is_atom(t) and t.sort is v.sort
    if is_atom(t):
        return t.sort is v.sort or Sort.DATA in (v.sort, t.sort)
    return True


def subst_well_sorted(s: Substitution) -> bool:
    return all(binding_ok(v, t) for v, t in s.items())


# -- free theory ----------------------------------------------------------------


def _reject_xor(terms: Iterable[Term]) -> None:
    for t in terms:
        for s in subterms(t):
            if isinstance(s, (Xor, Zero)):
                raise MixedTheoryTerm(f"free-theory unification given {to_text(t)}")


# where the split walk stops: heads that are not free constructors or constants
_OPEN = (Var, Xor, Zero)


def _open_clash(s: Term, t: Term) -> bool:
    """Do two different canonical terms, one of them a variable, an XOR or
    ``zero``, have no instances equal modulo SUA by ``_free_split``'s rules?"""
    if isinstance(s, Var) or isinstance(t, Var):
        return False
    for x, y in ((s, t), (t, s)):
        if isinstance(x, Zero) and not isinstance(y, Xor):
            return True
        if isinstance(x, Xor) and not isinstance(y, Xor):
            if not vars_of(x):
                return True
            if not any(isinstance(u, Var) for u in x.items) and (len(x.items) % 2 == 0) != isinstance(y, Zero):
                return True
    return False


def shape_clash(s: Term, t: Term) -> bool:
    """Is it plain from the shape of the canonical terms ``s`` and ``t``
    alone that ``s =? t`` has no unifier modulo SUA?  It is when both are
    ground and different, or when both are free-headed (neither a variable,
    an XOR nor ``zero``) with different constructors at the root.  False
    decides nothing.

    Soundness: a ground term is its own only instance, and canonical forms
    are unique (``normalize``), so two canonical ground terms are equal
    modulo SUA only when they are identical.  Normalization keeps the head
    of a free-headed term, and so does every instance of it, since a
    substitution replaces variables only; two free-headed terms with
    different constructors at the root therefore have no instances equal
    modulo SUA (the first clash rule of ``_free_split``).  Either way no
    substitution, well sorted or not, unifies the pair, so ``unify_sua``
    has none to find: a caller may answer such a pair with no unifier and
    a complete search without calling it."""
    sv, tv = s._vars, t._vars
    if sv is not None and tv is not None and not sv and not tv:
        return s != t
    return type(s) is not type(t) and not isinstance(s, _OPEN) and not isinstance(t, _OPEN)


def _pairable(s: Term, t: Term) -> bool:
    """Are ``s`` and ``t`` two XORs none of whose summands is a variable?"""
    return (
        isinstance(s, Xor)
        and isinstance(t, Xor)
        and not any(isinstance(u, Var) for u in itertools.chain(s.items, t.items))
    )


def _free_split(s: Term, t: Term) -> tuple[list[list[tuple[Term, Term]]], bool]:
    """The systems of open pairs that the canonical equation ``s =? t``
    reduces to through free constructors and XOR summand pairing, one per
    alternative (two for each ``sh`` pair that does not clash, one for each
    perfect matching of paired summands), and whether every alternative was
    explored.  An empty list from a complete walk proves that ``s`` and
    ``t`` have no unifier.

    The walk pairs the two sides from the root through ``seq``, ``senc``,
    ``penc``, ``pk`` and ``sh`` (both argument orders), children left to
    right, drops pairs of equal terms, and stops at a variable, an XOR or
    ``zero`` on either side; the pair reached there is open, and the open
    pairs of an alternative are listed in the order the walk reaches them,
    each as often as it is reached.  Two XORs none of whose
    summands is a variable are not left open but paired: once every other
    pair of the alternative is walked, the first of their summands (ground
    ones first, then left ones before right ones) is paired with each other
    summand in turn, one alternative each, and the pair goes back through
    the walk before the rest of the summands are paired the same way.  So
    each alternative is one perfect matching of the summands, built
    lazily, and a partial matching is dropped at its first clash.  At most
    ``_MAX_CONFIGS`` alternatives are made by pairing in one call; a walk
    cut there is not complete, and its systems are some of the
    alternatives only.  An alternative clashes:

    - at different constructors, different arities or two different
      constants;
    - where a free-headed term (a constructor or a constant) or ``zero``
      meets a ground XOR;
    - where a free-headed term meets ``zero``;
    - where an XOR none of whose summands is a variable meets a free-headed
      term, if it has an even number of summands, or ``zero``, if odd;
    - where two XORs none of whose summands is a variable have an odd
      number of summands between them.

    Soundness: normalization keeps the head of a term whose head is free,
    and so does every instance (a substitution replaces variables only), and
    the free constructors are injective modulo SUA (``sh`` up to the order
    of its two arguments).  So ``normalize(σ(f(s…))) == normalize(σ(g(t…)))``
    holds exactly when ``f == g``, the arities agree and, for one argument
    order, σ solves every argument pair modulo SUA: every unifier of
    ``s =? t`` unifies every pair of some returned system, and a unifier of
    every pair of one system unifies ``s =? t``.  Two different constants
    never become equal, and no instance of a free-headed term normalizes to
    ``zero`` or to an XOR.  A canonical ground XOR is its own only instance:
    neither free-headed nor ``zero``.  An instance of an XOR of free-headed
    summands sums free-headed terms, which normalization cancels in equal
    pairs and never flattens, so it normalizes to ``zero`` (no summand
    left), to one free-headed term (one left) or to an XOR (more left), and
    the parity of the summand count never changes: an even count never
    leaves one summand and an odd count never leaves none.  For the same
    reason σ unifies two XORs of free-headed summands ``u1 ⊕ … ⊕ um`` and
    ``v1 ⊕ … ⊕ vn`` exactly when the sum of all ``m + n`` instances
    normalizes to ``zero``, that is, when every distinct normal instance
    among them occurs an even number of times, which holds exactly when the
    summands split into pairs that σ makes equal modulo SUA: a perfect
    matching of the summands (a pair may lie on one side, as two summands
    whose instances cancel) whose pairs σ all solves.  The pairing
    alternatives are all such matchings, and there is none when ``m + n``
    is odd.  Each clash is therefore a proof that no substitution, well
    sorted or not, solves the alternative.  A variable or an XOR with a
    variable summand is left open, since an instance of it can take any
    head, and so is a free-headed term or ``zero`` against an XOR with no
    variable summand, if the counts allow it.
    """
    systems: list[list[tuple[Term, Term]]] = []
    complete = True
    paired = 0
    # (pairs still to walk, summand pools still to pair, open pairs)
    stack: list[tuple[list[tuple[Term, Term]], list[tuple[Term, ...]], list[tuple[Term, Term]]]] = [
        ([(s, t)], [], [])
    ]
    while stack:
        todo, pools, open_pairs = stack.pop()
        while todo or pools:
            if not todo:
                pool = pools.pop()
                paired += len(pool) - 1
                if paired > _MAX_CONFIGS:
                    complete = False
                    break
                first = pool[0]
                for i in range(len(pool) - 1, 1, -1):
                    rest = pool[1:i] + pool[i + 1 :]
                    stack.append(([(first, pool[i])], [*pools, rest] if rest else list(pools), list(open_pairs)))
                if len(pool) > 2:
                    pools.append(pool[2:])
                todo.append((first, pool[1]))
                continue
            s, t = todo.pop()
            if s == t:
                continue
            if isinstance(s, _OPEN) or isinstance(t, _OPEN):
                if _open_clash(s, t):
                    break
                if _pairable(s, t):
                    if (len(s.items) + len(t.items)) % 2:
                        break
                    # ground summands first: they clash with every ground
                    # partner but an equal one, which prunes early
                    pools.append(tuple(sorted(s.items + t.items, key=lambda u: bool(vars_of(u)))))
                else:
                    open_pairs.append((s, t))
                continue
            ks, kt = children(s), children(t)
            if type(s) is not type(t) or not ks or len(ks) != len(kt):
                break
            if isinstance(s, Sh):
                stack.append((todo + [(s.right, t.left), (s.left, t.right)], list(pools), list(open_pairs)))
            todo.extend(zip(reversed(ks), reversed(kt)))
        else:
            if open_pairs not in systems:
                systems.append(open_pairs)
    return systems, complete


def _split_problem(eqs: Sequence[Equation]) -> tuple[list[tuple[Equation, ...]], bool]:
    """The alternative systems that ``_free_split`` reduces the equations to
    together, one open pair system per equation in every combination, and
    whether every equation's walk was complete."""
    systems: list[tuple[Equation, ...]] = [()]
    complete = True
    for e in eqs:
        alternatives, done = _free_split(e.left, e.right)
        complete = complete and done
        systems = [
            system + tuple(Equation(s, t, Theory.SUA) for s, t in alt)
            for system in systems
            for alt in alternatives
        ]
    return systems, complete


def _std_solutions(eqs: Sequence[Equation]) -> Iterator[Substitution]:
    """The free-theory unifiers of XOR-free equations, one per alternative
    that does not fail, each an idempotent substitution over the variables
    of the equations.

    Each alternative system of ``_split_problem`` holds open pairs only,
    and in an XOR-free system every open pair has a variable side.  The
    last pair of a system is bound: a variable against a non-variable
    takes it, and of two variables the one that can take the other under
    ``binding_ok`` does.  When both can, a data variable takes a nonce or
    key variable, so that no later pair passes a nonce to a key through it;
    of two variables of one rank the left one takes the other.  The binding
    fails on an occurs check or an ill-sorted value; otherwise it is
    applied to the accumulated bindings and to the rest of the system,
    which is split again.  Binding the last pair first keeps the
    right-to-left order of a depth-first worklist, and so its choice of
    variable names; a pair that the walk reaches twice is listed twice for
    the same reason, so that the later one is bound first."""
    stack = [(list(system), {}) for system in _split_problem(eqs)[0]]
    while stack:
        system, bnd = stack.pop()
        if not system:
            yield Substitution(bnd)
            continue
        last = system.pop()
        s, t = last.left, last.right
        if not isinstance(s, Var):
            s, t = t, s
        if isinstance(t, Var) and (not binding_ok(s, t) or _sort_rank(t) > _sort_rank(s)) and binding_ok(t, s):
            s, t = t, s
        if s in vars_of(t) or not binding_ok(s, t):
            continue
        upd = Substitution({s: t})
        bnd = {v: upd.apply(u) for v, u in bnd.items()}
        bnd[s] = t
        rest, _ = _split_problem([Equation(upd.apply(e.left), upd.apply(e.right)) for e in system])
        stack.extend((list(r), bnd) for r in rest)


def unify_std(equations) -> tuple[Substitution, ...]:
    """Complete set of most-general unifiers in the free theory.

    Commutativity of sh produces at most two branches per sh pair; results are
    pruned to most-general representatives and returned in canonical order.
    """
    eqs = _as_equations(equations)
    _reject_xor(itertools.chain.from_iterable((e.left, e.right) for e in eqs))
    problem_vars = vars_of_all(t for e in eqs for t in (e.left, e.right))
    return _prune_to_most_general([s.restrict(problem_vars) for s in _std_solutions(eqs)])


def is_instance_of(special: Substitution, general: Substitution, over: Iterable[Var]) -> bool:
    """Is ``special`` an instance of ``general`` over ``over``: is there a
    substitution that turns each ``general(v)`` into ``special(v)``?

    The variables of the ``special(v)`` are frozen into fresh constants of
    their sorts, so the match cannot bind them, also where a variable of
    the ``general(v)`` has the same name, and the question becomes whether
    the frozen problem has a free-theory unifier."""
    pairs = [(general.apply(v), special.apply(v)) for v in over]
    taken = {u.name for p in pairs for side in p for u in subterms(side) if isinstance(u, (Var, Const))}
    names = _fresh_names(GROUNDING_PREFIX, taken)
    frozen = vars_of_all(t for _, t in pairs)
    freeze = Substitution({v: Const(next(names), v.sort) for v in sorted(frozen, key=term_key)})
    return next(_std_solutions([Equation(p, freeze.apply(t)) for p, t in pairs]), None) is not None


def _unifier_key(s: Substitution) -> tuple:
    """The canonical order of unifiers: by their bindings, in term order."""
    return tuple((term_key(v), term_key(t)) for v, t in s.items())


def _prune_to_most_general(cands: list[Substitution]) -> tuple[Substitution, ...]:
    if len(cands) <= 1:
        return tuple(cands)
    # every variable a candidate binds or maps to: one that no candidate
    # binds but one maps to (Y in {X ↦ Y}) still tells candidates apart
    over = sorted(vars_of_all(u for s in cands for v, t in s.items() for u in (v, t)), key=term_key)
    uniq = sorted(dict.fromkeys(cands), key=_unifier_key)
    # keep s unless another candidate is strictly more general, or an
    # equivalent one (mutual instances, i.e. a renaming) was already kept
    kept: list[Substitution] = []
    for s in uniq:
        keep = True
        for k in uniq:
            if k == s:
                continue
            if is_instance_of(s, k, over):
                if not is_instance_of(k, s, over) or k in kept:
                    keep = False
                    break
        if keep:
            kept.append(s)
    return tuple(kept)


# -- XOR theory -----------------------------------------------------------------


def _check_pure_acun(t: Term) -> None:
    for s in summands(t):
        if not is_atom(s):
            raise NonPureAcun(f"unabstracted subterm {to_text(s)} in XOR problem")


def unify_acun(equations) -> tuple[Substitution, ...]:
    """Most-general unifier of an elementary XOR problem, by elimination over GF(2).

    Sides may only contain variables, constants, zero and XOR.  Returns a
    single unifier (possibly empty) or nothing when the system is unsolvable.
    """
    eqs = _as_equations(equations)
    rows_syms: list[list[Term]] = []
    for e in eqs:
        _check_pure_acun(e.left)
        _check_pure_acun(e.right)
        rows_syms.append([*summands(e.left), *summands(e.right)])

    all_syms = {s for row in rows_syms for s in row}
    variables = sorted((s for s in all_syms if isinstance(s, Var)), key=_pivot_key)
    atoms = sorted((s for s in all_syms if isinstance(s, Const)), key=term_key)
    vin = {v: i for i, v in enumerate(variables)}
    ain = {a: i for i, a in enumerate(atoms)}

    rows: list[list[int]] = []
    for syms in rows_syms:
        vbits, abits = 0, 0
        for s in syms:
            if isinstance(s, Var):
                vbits ^= 1 << vin[s]
            else:
                abits ^= 1 << ain[s]
        rows.append([vbits, abits])

    pivot_of: dict[int, list[int]] = {}
    for row in rows:
        for col in range(len(variables)):
            if row[0] >> col & 1 and col in pivot_of:
                p = pivot_of[col]
                row[0] ^= p[0]
                row[1] ^= p[1]
        if row[0] == 0:
            if row[1] != 0:
                return ()
            continue
        col = (row[0] & -row[0]).bit_length() - 1
        for p in pivot_of.values():
            if p[0] >> col & 1:
                p[0] ^= row[0]
                p[1] ^= row[1]
        pivot_of[col] = row

    bindings: dict[Var, Term] = {}
    for col, row in pivot_of.items():
        parts: list[Term] = [
            variables[j] for j in range(len(variables)) if j != col and row[0] >> j & 1
        ]
        parts.extend(a for i, a in enumerate(atoms) if row[1] >> i & 1)
        bindings[variables[col]] = normalize(Xor(tuple(parts))) if parts else normalize(Xor(()))
    return (Substitution(bindings),)


def _pivot_key(v: Var):
    # prefer to solve for unconstrained sorts, and for abstraction variables
    return (v.sort not in _FLEX_SORTS, not v.name.startswith(ABSTRACTION_PREFIX), term_key(v))


# -- purification ----------------------------------------------------------------


def _head_theory(t: Term) -> Theory | None:
    if isinstance(t, (Xor, Zero)):
        return Theory.ACUN
    if isinstance(t, (Seq, PEnc, SEnc, Pk, Sh)):
        return Theory.STD
    return None


def _theory_of(eqs: Iterable[Equation]) -> Theory:
    """The theory a system lies in: STD when no XOR or ``zero`` occurs in
    it, ACUN when no free constructor does, and SUA (mixed) otherwise."""
    heads = {_head_theory(s) for e in eqs for t in (e.left, e.right) for s in subterms(t)}
    if Theory.ACUN not in heads:
        return Theory.STD
    return Theory.SUA if Theory.STD in heads else Theory.ACUN


class PurifyResult(Record):
    __slots__ = _fields = ("equations", "abstraction")

    def __init__(self, equations: tuple[Equation, ...], abstraction: tuple[tuple[Var, Term], ...]) -> None:
        object.__setattr__(self, "equations", equations)
        object.__setattr__(self, "abstraction", abstraction)


def purify(problem: UnificationProblem) -> PurifyResult:
    """Split mixed equations into theory-pure ones via fresh abstraction variables.

    Each maximal alien subterm is replaced by a fresh variable and equated to
    it in the alien's own theory; identical aliens share one variable.  The
    abstraction variables are the ``#v<i>`` names that the problem does not
    already use, in order of ``i``.
    """
    out: list[Equation] = []
    by_term: dict[Term, Var] = {}
    fresh = _fresh_names(
        ABSTRACTION_PREFIX, {v.name for eq in problem.equations for v in vars_of(eq.left) | vars_of(eq.right)}
    )
    for eq in problem.equations:
        left, right = normalize(eq.left), normalize(eq.right)
        heads = {_head_theory(left), _head_theory(right)} - {None}
        if heads == {Theory.STD, Theory.ACUN}:
            root = Theory.ACUN
        elif heads:
            (root,) = heads
        else:
            root = Theory.STD
        pl = _abstract(left, root, out, by_term, fresh)
        pr = _abstract(right, root, out, by_term, fresh)
        out.append(Equation(normalize(pl), normalize(pr), root))

    abstraction = sorted(((v, t) for t, v in by_term.items()), key=lambda kv: term_key(kv[0]))
    return PurifyResult(tuple(out), tuple(abstraction))


def _fresh_names(prefix: str, taken: set[str]) -> Iterator[str]:
    """``prefix`` followed by 0, 1, 2, …, skipping the names in ``taken``."""
    return (name for name in (f"{prefix}{i}" for i in itertools.count()) if name not in taken)


def rename_new_vars(s: Substitution, keep: frozenset[Var], taken: set[str]) -> Substitution:
    """``s``, whose domain lies in ``keep``, with each variable of its range
    outside ``keep`` renamed to ``#v0``, ``#v1``, … (skipping ``taken``, which
    holds the names of ``keep``) in order of first occurrence: binding by
    binding in domain order, each term left to right.  A renaming onto new
    names, so a unifier of terms over ``keep`` stays an equivalent one."""
    fresh = _fresh_names(ABSTRACTION_PREFIX, taken)
    renaming: dict[Var, Term] = {}
    stack = [t for _, t in reversed(s.items())]
    while stack:
        u = stack.pop()
        if not isinstance(u, Var):
            stack.extend(reversed(children(u)))
        elif u not in keep and u not in renaming:
            renaming[u] = Var(next(fresh), u.sort)
    r = Substitution(renaming)
    return Substitution({v: r.apply(t) for v, t in s.items()}) if r else s


def _abstract(
    t: Term, theory: Theory, out: list[Equation], by_term: dict[Term, Var], fresh: Iterator[str]
) -> Term:
    """``t`` with each maximal subterm alien to ``theory`` replaced by its
    abstraction variable; a new alien gets the next ``fresh`` name and its
    own (purified) equation in ``out``."""
    if is_atom(t):
        return t
    ht = _head_theory(t)
    if ht == theory:
        return normalize(with_children(t, tuple(_abstract(c, theory, out, by_term, fresh) for c in children(t))))
    if t in by_term:
        return by_term[t]
    v = Var(next(fresh), Sort.DATA)
    by_term[t] = v
    out.append(Equation(v, _abstract(t, ht, out, by_term, fresh), ht))
    return v


# -- variable identifications -----------------------------------------------------

Partition = tuple[tuple[Var, ...], ...]


# Bell(12) is about 4.2 million partitions.
_IDENTIFICATION_LIMIT = 12
_MAX_CONFIGS = 20_000  # combination configurations of one `bsca_unify` call


def enumerate_identifications(variables: Iterable[Var]) -> Iterator[Partition]:
    """All set partitions of the variables, identity partition first, then coarser."""
    vs = sorted(set(variables), key=term_key)
    n = len(vs)
    if n > _IDENTIFICATION_LIMIT:
        raise PartitionSpaceExceeded(f"{n} variables exceeds identification limit {_IDENTIFICATION_LIMIT}")
    if n == 0:
        yield ()
        return
    for nblocks in range(n, 0, -1):
        yield from _partitions_into(vs, nblocks, 0, [])


def _partitions_into(vs: list[Var], k: int, i: int, blocks: list[list[Var]]) -> Iterator[Partition]:
    """Partitions of ``vs`` into exactly ``k`` blocks that extend ``blocks``,
    which hold the first ``i`` variables."""
    n = len(vs)
    if i == n:
        if len(blocks) == k:
            yield tuple(tuple(b) for b in blocks)
        return
    remaining = n - i
    for b in blocks:
        if len(blocks) + remaining - 1 >= k:
            b.append(vs[i])
            yield from _partitions_into(vs, k, i + 1, blocks)
            b.pop()
    if len(blocks) < k:
        blocks.append([vs[i]])
        yield from _partitions_into(vs, k, i + 1, blocks)
        blocks.pop()


def _sort_rank(v: Var) -> int:
    # most-constrained sorts first, so the representative can absorb the rest
    if v.sort in (Sort.AGENT, Sort.TAG):
        return 0
    return 1 if v.sort is not Sort.DATA else 2


def partition_to_subst(partition: Partition) -> Substitution | None:
    """Identify each block's variables with the block's most constrained
    variable (ties broken by term order).  ``None`` when some block mixes
    incompatible sorts and therefore admits no well-sorted value at all."""
    bindings: dict[Var, Term] = {}
    for block in partition:
        rep = min(block, key=lambda v: (_sort_rank(v), term_key(v)))
        for v in block:
            if v == rep:
                continue
            if not binding_ok(v, rep):
                return None
            bindings[v] = rep
    return Substitution(bindings)


# -- combination -------------------------------------------------------------------


def _invert_grounding(grounding: Substitution):
    """Replace each grounding constant by the variable it stands for."""
    inverse = {c: v for v, c in grounding.items()}
    return lambda t: normalize(map_term(t, lambda u: inverse.get(u, u) if isinstance(u, Const) else u))


# -- combined search ---------------------------------------------------------------


class BscaTrace(Record):
    """Record of the combination search; stages are from the first success.
    The substitutions default to the one shared ``EMPTY_SUBST``: a
    substitution is never changed in place, and the search replaces a
    field rather than extending it, so no trace sees another's.  Unlike
    the other records, a trace is filled in as the search goes, so its
    fields can be assigned and it has no hash."""

    __slots__ = _fields = (
        "gamma1",
        "gamma2",
        "var_idp",
        "gamma3",
        "gamma4_1",
        "gamma4_2",
        "v1",
        "v2",
        "beta",
        "gamma5_1",
        "gamma5_2",
        "sigma1",
        "sigma2",
        "unifiers",
        "configs_tried",
        "complete",
        "shortcut",
    )
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None  # type: ignore[assignment]

    def __init__(
        self,
        gamma1: tuple[Equation, ...] = (),
        gamma2: tuple[Equation, ...] = (),
        var_idp: Partition = (),
        gamma3: tuple[Equation, ...] = (),
        gamma4_1: tuple[Equation, ...] = (),
        gamma4_2: tuple[Equation, ...] = (),
        v1: tuple[Var, ...] = (),
        v2: tuple[Var, ...] = (),
        beta: Substitution = EMPTY_SUBST,
        gamma5_1: tuple[Equation, ...] = (),
        gamma5_2: tuple[Equation, ...] = (),
        sigma1: Substitution = EMPTY_SUBST,
        sigma2: Substitution = EMPTY_SUBST,
        unifiers: tuple[Substitution, ...] = (),
        configs_tried: int = 0,
        complete: bool = True,
        shortcut: str | None = None,
    ) -> None:
        self.gamma1 = gamma1
        self.gamma2 = gamma2
        self.var_idp = var_idp
        self.gamma3 = gamma3
        self.gamma4_1 = gamma4_1
        self.gamma4_2 = gamma4_2
        self.v1 = v1
        self.v2 = v2
        self.beta = beta
        self.gamma5_1 = gamma5_1
        self.gamma5_2 = gamma5_2
        self.sigma1 = sigma1
        self.sigma2 = sigma2
        self.unifiers = unifiers
        self.configs_tried = configs_tried
        self.complete = complete
        self.shortcut = shortcut

    def to_json_dict(self) -> dict:
        def eqs(es):
            return list(map(repr, es))

        return {
            "shortcut": self.shortcut,
            "gamma1": eqs(self.gamma1),
            "gamma2": eqs(self.gamma2),
            "var_idp": [[v.name for v in block] for block in self.var_idp],
            "gamma3": eqs(self.gamma3),
            "gamma4_1": eqs(self.gamma4_1),
            "gamma4_2": eqs(self.gamma4_2),
            "v1": [v.name for v in self.v1],
            "v2": [v.name for v in self.v2],
            "beta": {v.name: to_text(t) for v, t in self.beta.items()},
            "gamma5_1": eqs(self.gamma5_1),
            "gamma5_2": eqs(self.gamma5_2),
            "sigma1": self.sigma1.to_json_dict(),
            "sigma2": self.sigma2.to_json_dict(),
            "unifiers": [s.to_json_dict() for s in self.unifiers],
            "configs_tried": self.configs_tried,
            "complete": self.complete,
        }


def _apply_to_eqs(s: Substitution, eqs: Iterable[Equation]) -> tuple[Equation, ...]:
    out = []
    for e in eqs:
        ne = Equation(s.apply(e.left), s.apply(e.right), e.theory)
        if ne.left != ne.right:
            out.append(ne)
    return tuple(out)


def _subsets_by_size(items: list[Var]) -> Iterator[frozenset[Var]]:
    for size in range(len(items) + 1):
        for combo in itertools.combinations(items, size):
            yield frozenset(combo)


def bsca_unify(problem: UnificationProblem) -> tuple[tuple[Substitution, ...], BscaTrace]:
    """Unifiers modulo the combined theory, with a search trace.

    Every problem is first decomposed through free constructors and XOR
    summand pairing (``_free_split``): each equation becomes the open pairs
    below its free-headed positions, in one alternative system per choice
    of ``sh`` argument order and per perfect matching of the summands of two
    XORs without variable summands.  When every alternative clashes (see
    ``_free_split`` for the rules and their soundness argument) the problem
    has no unifier; it is rejected with shortcut ``clash``, no
    configurations tried and a complete search, before any theory-specific
    search runs and before any of the bookkeeping the candidates need (the
    variables of the equations, the validation against them): the split
    reads the normalized equations alone, so a clash comes back with the
    same trace either way, only sooner.  This is how tagging keeps
    encryptions of differently tagged protocols apart even when XOR sits
    below the tag.  Otherwise the
    unifiers of the problem are those of its alternative systems, since a
    substitution unifies the equations exactly when it unifies every pair
    of some alternative, and each system is solved in its theory
    (``_theory_of``): a free one by ``unify_std``, a pure XOR one by
    ``unify_acun``, and a mixed one by the combination search
    (``_combination``), which shares one configuration budget
    (``_MAX_CONFIGS``) across the systems.  The free systems are the
    alternatives that one ``unify_std`` call on their disjunction would
    search, so their unifiers are pruned to the most general together.  An
    equation with an XOR at the root is its own only system unless its
    sides are equal, clash there or are paired.  Candidates are kept only
    if they satisfy the original equations modulo the combined theory, and
    get canonical names for the variables they bring in
    (`rename_new_vars`), whichever path found them.  A search cut by a
    limit (the pairing's or the combination's) returns what it found with
    ``trace.complete`` False; a completed search with no unifier is a
    definitive failure.
    """
    orig = [e.normalized() for e in problem.equations]
    systems, complete = _split_problem(orig)
    trace = BscaTrace()
    if not systems and complete:
        trace.shortcut = "clash"
        return trace.unifiers, trace
    orig_vars = vars_of_all(t for e in orig for t in (e.left, e.right))

    def validated(cands: Iterable[Substitution]) -> dict[Substitution, None]:
        good = {}
        for s in cands:
            s = s.restrict(orig_vars)
            if not subst_well_sorted(s):
                continue
            if all(equal_mod(Theory.SUA, s.apply(e.left), s.apply(e.right)) for e in orig):
                s = rename_new_vars(s, orig_vars, {v.name for v in orig_vars})
                good[s] = None
        return good

    # insertion-ordered sets: `Substitution` hashes its bindings
    found: dict[Substitution, None] = {}
    free: list[Substitution] = []
    configs = 0
    for system in systems:
        theory = _theory_of(system)
        if theory is Theory.STD:
            free.extend(unify_std(system))
        elif theory is Theory.ACUN:
            found.update(validated(unify_acun(system)))
        else:
            tried, done = _combination(system, _MAX_CONFIGS - configs, validated, trace, found)
            configs += tried
            complete = complete and done
    found.update(validated(_prune_to_most_general(free)))

    trace.configs_tried = configs
    trace.complete = complete
    trace.unifiers = tuple(sorted(found, key=_unifier_key))
    return trace.unifiers, trace


def _combination(
    system: tuple[Equation, ...],
    max_configs: int,
    validated,
    trace: BscaTrace,
    found: dict[Substitution, None],
) -> tuple[int, bool]:
    """The Baader–Schulz combination search on one mixed system.

    The system is purified, and the identifications of the variables of
    its XOR equations are drawn one at a time, identity partition first;
    over ``_IDENTIFICATION_LIMIT`` such variables, only the identity
    partition is tried and the search is not complete.  Single-theory
    variables are assigned their forced component, and for each
    configuration the two pure systems are solved and each pair of their
    unifiers is recombined: merged, composed with the identification and
    closed.  Each recombined unifier that ``validated`` keeps is added to
    ``found``; until ``found`` holds one, ``trace`` takes this system's
    purified equations, and the stages of its first success.  Returns the
    configurations tried (at most ``max_configs``) and whether the search
    completed; one cut by that budget did not.
    """
    pure = purify(UnificationProblem(system))
    gamma2 = pure.equations
    if not found:
        trace.gamma1 = gamma2
        trace.gamma2 = gamma2

    acun_vars = sorted(
        vars_of_all(t for e in gamma2 if e.theory is Theory.ACUN for t in (e.left, e.right)), key=term_key
    )
    complete = len(acun_vars) <= _IDENTIFICATION_LIMIT
    partitions = enumerate_identifications(acun_vars) if complete else [tuple((v,) for v in acun_vars)]
    taken = {u.name for e in gamma2 for u in subterms(e.left) | subterms(e.right) if isinstance(u, Const)}
    configs = 0

    for partition in partitions:
        ident = partition_to_subst(partition)
        if ident is None:
            continue
        gamma3 = _apply_to_eqs(ident, gamma2)
        g41 = tuple(e for e in gamma3 if e.theory is Theory.STD)
        g42 = tuple(e for e in gamma3 if e.theory is Theory.ACUN)
        std_vars = vars_of_all(t for e in g41 for t in (e.left, e.right))
        acun_now = vars_of_all(t for e in g42 for t in (e.left, e.right))
        shared = sorted(std_vars & acun_now, key=term_key)

        for to_v2 in _subsets_by_size(shared):
            if configs >= max_configs:
                return configs, False
            configs += 1
            v1 = sorted((std_vars - acun_now) | (set(shared) - to_v2), key=term_key)
            v2 = sorted((acun_now - std_vars) | to_v2, key=term_key)
            # each variable solved in the other theory is a fresh constant there
            names = _fresh_names(GROUNDING_PREFIX, taken)
            grounded = sorted(set(v1) & acun_now, key=term_key) + sorted(set(v2) & std_vars, key=term_key)
            beta = Substitution({v: Const(next(names), v.sort) for v in grounded})
            g51 = _apply_to_eqs(beta.restrict(v2), g41)
            g52 = _apply_to_eqs(beta.restrict(v1), g42)

            sigma2s = unify_acun(g52)
            if not sigma2s:
                continue
            unground = _invert_grounding(beta)
            for sigma1 in unify_std(g51):
                for sigma2 in sigma2s:
                    # σ1 binds only V1 variables and σ2 only V2 ones
                    merged = Substitution({v: unground(t) for v, t in (*sigma1.items(), *sigma2.items())})
                    try:
                        full = merged.compose(ident).close()
                    except SortError:
                        # a binding cycle, or a pure-theory unifier forced a
                        # non-agent value into a pk/sh position: no unifier
                        continue
                    for cand in validated([full]):
                        if not found:
                            trace.var_idp = partition
                            trace.gamma3 = gamma3
                            trace.gamma4_1 = g41
                            trace.gamma4_2 = g42
                            trace.v1 = tuple(v1)
                            trace.v2 = tuple(v2)
                            trace.beta = beta
                            trace.gamma5_1 = g51
                            trace.gamma5_2 = g52
                            trace.sigma1 = sigma1
                            trace.sigma2 = sigma2
                        found[cand] = None

    return configs, complete


def unify_sua(m: Term, t: Term) -> tuple[tuple[Substitution, ...], bool]:
    """Unifiers of one equation modulo the combined theory, and whether the search completed."""
    unifiers, trace = bsca_unify(UnificationProblem((Equation(m, t, Theory.SUA),)))
    return unifiers, trace.complete
