"""Protocol model: semi-bundles, attacker knowledge, structural checks, tagging."""

import copy
import itertools
import pickle
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xorsleuth.dsl import parse_protocol, parse_protocol_file
from xorsleuth.protocol import (
    ATTACKER,
    AssumptionViolation,
    FreshSession,
    LabelCollision,
    MunutReport,
    MunutViolation,
    Node,
    Protocol,
    SecretInIik,
    Strand,
    _std_unifier_witness,
    _xor_children,
    build_iik,
    check_assumptions,
    check_munut,
    enc_subterms,
    make_semibundle,
    tag_protocol,
)
from xorsleuth.terms import (
    ZERO,
    Const,
    PEnc,
    SEnc,
    Sh,
    Sort,
    Substitution,
    Var,
    Xor,
    XorsleuthError,
    apply_subst,
    const,
    normalize,
    penc,
    pk,
    senc,
    seq,
    sh,
    subterms,
    term_key,
    to_text,
    var,
    vars_of_all,
    xor,
)

FIXTURES = Path(__file__).resolve().parents[1] / "src" / "xorsleuth" / "fixtures"


def load(name):
    return parse_protocol_file(FIXTURES / f"{name}.proto")


@pytest.fixture(scope="module")
def nslx():
    return load("nslx")


def unchecked(name, roles, fresh=(), secret=()):
    """A protocol value that skipped the constructor and so its checks."""
    p = object.__new__(Protocol)
    object.__setattr__(p, "name", name)
    object.__setattr__(p, "roles", tuple(roles))
    object.__setattr__(p, "fresh_vars", frozenset(fresh))
    object.__setattr__(p, "secret_vars", frozenset(secret))
    return p


class TestProtocolType:
    def test_duplicate_role_rejected(self):
        strand = Strand((Node("+", const("x")),))
        with pytest.raises(ValueError, match="^duplicate role 'A'$"):
            Protocol("p", [("A", strand), ("A", strand)])

    def test_secret_must_be_fresh(self):
        n = var("N", Sort.NONCE)
        strand = Strand((Node("+", n),))
        with pytest.raises(ValueError, match="^secret variables must be fresh: N$"):
            Protocol("p", [("A", strand)], fresh_vars=[], secret_vars=[n])

    def test_declared_fresh_var_must_occur(self):
        n = var("N", Sort.NONCE)
        m = var("M", Sort.NONCE)
        strand = Strand((Node("+", n),))
        with pytest.raises(ValueError, match="^declared variables never used: M$"):
            Protocol("p", [("A", strand)], fresh_vars=[n, m])

    def test_node_terms_are_normalized(self):
        t = xor(const("c"), const("c"))
        p = Protocol("p", [("A", Strand((Node("+", seq(t, const("d"))),)))])
        assert p.node_terms() == (seq(ZERO, const("d")),)

    def test_node_holds_canonical_form_of_raw_term(self):
        c = const("c")
        a, b = Const("a", Sort.AGENT), Const("b", Sort.AGENT)
        assert Node("+", Xor((c, c))).term is ZERO
        node = Node("-", Sh(b, a))
        assert node.term == sh(a, b) and (node.term.left, node.term.right) == (a, b)
        assert normalize(node.term) is node.term

    def test_constructor_takes_any_sequence_and_iterables(self):
        n = var("N", Sort.NONCE)
        strand = Strand((Node("+", n),))
        p = Protocol("p", [("A", strand)], [n], iter([n]))
        assert p == Protocol("p", (("A", strand),), frozenset({n}), frozenset({n}))
        assert isinstance(p.roles, tuple) and isinstance(p.secret_vars, frozenset)

    def test_tagged_protocols_are_checked(self):
        # the label check reads the unchecked protocol's parts first; the
        # constructor still rejects the tagged roles
        strand = Strand((Node("+", senc(const("m"), const("k"))),))
        with pytest.raises(ValueError, match="^duplicate role 'A'$"):
            tag_protocol(unchecked("p", [("A", strand), ("A", strand)]), "t")

    def test_strand_map_keeps_signs_and_normalizes(self):
        c, d = const("c"), const("d")
        strand = Strand((Node("+", c), Node("-", d)))
        mapped = strand.map(lambda t: Xor((t, d)))
        assert [n.sign for n in mapped.nodes] == ["+", "-"]
        assert mapped.terms() == (xor(c, d), ZERO)


class TestSemiBundle:
    def test_two_by_two_nslx_matches_known_shape(self, nslx):
        sb = make_semibundle(nslx, 2, session=FreshSession())
        assert sb.strand_ids == ("nslx.A#1", "nslx.A#2", "nslx.B#1", "nslx.B#2")
        assert sorted(c.name for c in sb.secret_constants) == ["na1", "na2", "nb1", "nb2"]
        assert sb.secret_constants == sb.fresh_constants
        # role A keeps the responder nonce symbolic; role B keeps the
        # initiator's identity and nonce symbolic.
        a1 = sb.strands[0]
        assert to_text(a1.nodes[0].term) == (
            "penc(seq(const(a1:Agent),const(na1:Nonce)),pk(var(B1:Agent)))"
        )
        b1 = sb.strands[2]
        assert to_text(b1.nodes[0].term) == (
            "penc(seq(var(A3:Agent),var(NA3:Nonce)),pk(const(b1:Agent)))"
        )
        assert to_text(b1.nodes[2].term) == "penc(const(nb1:Nonce),pk(const(b1:Agent)))"

    def test_every_strand_is_role_instance(self, nslx):
        sb = make_semibundle(nslx, 2, session=FreshSession())
        roles = dict(nslx.roles)
        for strand, (role_name, sigma) in zip(sb.strands, sb.instantiations):
            template = roles[role_name]
            assert len(strand.nodes) == len(template.nodes)
            for got, orig in zip(strand.nodes, template.nodes):
                assert got.sign == orig.sign
                assert got.term == apply_subst(sigma, orig.term)

    def test_fresh_constants_disjoint_across_bundles(self, nslx):
        session = FreshSession()
        sb1 = make_semibundle(nslx, 1, session=session)
        sb2 = make_semibundle(nslx, 1, session=session)
        assert not (sb1.fresh_constants & sb2.fresh_constants)

    def test_fresh_constants_skip_names_minted_before(self):
        # counting per base, N's 11th constant and N1's first would both be n11
        p = parse_protocol("protocol two\nvars N:Nonce N1:Nonce\nfresh N N1\nrole A:\n  send seq(N, N1)\n")
        sb = make_semibundle(p, 11, session=FreshSession())
        assert len(sb.fresh_constants) == 22

    def test_received_variables_skip_names_minted_before(self):
        # suffixing the strand ordinal alone, N1 of strand 1 and N of strand 11 would both be N11
        p = parse_protocol("protocol two\nvars N:Nonce N1:Nonce\nrole B:\n  recv seq(N, N1)\n  send seq(N, N1)\n")
        sb = make_semibundle(p, 11, session=FreshSession())
        assert len(vars_of_all(t for s in sb.strands for t in s.terms())) == 22
        assert {v.name for v in vars_of_all(sb.strands[10].terms())} == {"N11_1", "N111"}

    def test_received_variables_differ_across_protocols(self):
        # one strand of x receives A1, as A11; the tenth strand of y receives A, whose name A11 is taken
        x = parse_protocol("protocol x\nvars A1:Nonce\nrole R:\n  recv A1\n")
        y = parse_protocol("protocol y\nvars A:Nonce\nrole R:\n  recv A\n")
        session = FreshSession()
        bundles = [make_semibundle(x, 1, session=session), make_semibundle(y, 10, session=session)]
        assert len(vars_of_all(t for b in bundles for s in b.strands for t in s.terms())) == 11

    def test_zero_sessions_rejected(self, nslx):
        with pytest.raises(ValueError):
            make_semibundle(nslx, 0)


class TestIik:
    def test_empty_bundles(self):
        iik = build_iik([])
        assert iik == frozenset({ATTACKER, ZERO, normalize(pk(ATTACKER))})

    def test_nslx_bundle_contents(self, nslx):
        sb = make_semibundle(nslx, 2, session=FreshSession())
        iik = build_iik([sb])
        names = {to_text(t) for t in iik}
        for expected in (
            "const(a1:Agent)", "const(b1:Agent)", "const(eps:Agent)", "zero",
            "pk(const(a1:Agent))", "pk(const(b1:Agent))", "pk(const(eps:Agent))",
        ):
            assert expected in names
        assert not (iik & sb.secret_constants)

    def test_non_fresh_constants_included(self):
        p2 = load("p2")
        sb = make_semibundle(p2, 1, session=FreshSession())
        iik = build_iik([sb])
        assert const("1") in iik
        assert Const("a", Sort.AGENT) in iik
        assert normalize(pk(Const("s", Sort.AGENT))) in iik

    def test_secret_extra_rejected(self, nslx):
        # a second bundle whose role sends the first bundle's secret by name
        session = FreshSession()
        sb = make_semibundle(nslx, 1, session=session)
        secret = sorted(sb.secret_constants, key=lambda c: c.name)[0]
        leak = parse_protocol(f"protocol leak\nrole A:\n  send {secret.name}:Nonce\n")
        with pytest.raises(SecretInIik, match=f"const\\({secret.name}:Nonce\\)"):
            build_iik([sb, make_semibundle(leak, 1, session=session)])


class TestAssumptions:
    def test_p1_flagged_on_long_term_key(self):
        rep = check_assumptions(load("p1"))
        assert not rep.ok()
        assert [(v.assumption, to_text(v.witness)) for v in rep.violations] == [
            (1, "sh(const(a:Agent),const(s:Agent))")
        ]

    def test_nslx_compliant(self, nslx):
        rep = check_assumptions(nslx)
        assert rep.ok()
        assert rep.long_term_keys == ()

    def test_key_variable_leak_flagged(self):
        rep = check_assumptions(load("keyleak"))
        assert [(v.assumption, to_text(v.witness), to_text(v.term)) for v in rep.violations] == [
            (2, "var(K:Key)", "var(K:Key)")
        ]

    def test_key_inside_own_plaintext_flagged(self):
        k = var("K", Sort.KEY)
        p = Protocol("leaky", [("A", Strand((Node("+", senc(seq(k, const("c")), k)),)))])
        rep = check_assumptions(p)
        assert any(v.assumption == 2 for v in rep.violations)

    def test_using_shared_key_in_key_position_is_fine(self):
        p = Protocol(
            "ok",
            [("A", Strand((Node("+", senc(const("m"), sh(Const("a", Sort.AGENT), Const("b", Sort.AGENT)))),)))],
        )
        rep = check_assumptions(p)
        assert rep.ok()
        assert [to_text(t) for t in rep.long_term_keys] == ["sh(const(a:Agent),const(b:Agent))"]

    def test_violations_are_data_not_errors(self):
        rep = check_assumptions(load("p1"))
        assert isinstance(rep.violations[0], AssumptionViolation)
        d = rep.to_json_dict()
        assert d["status"] == "violated" and d["check"] == "assumptions"


class TestEncSubterms:
    def test_nslx_has_three(self, nslx):
        assert len(enc_subterms(nslx)) == 3

    def test_nested_encryptions_both_found(self):
        inner = senc(const("a"), const("k1"))
        p = Protocol("n", [("A", Strand((Node("+", senc(inner, const("k2"))),)))])
        assert set(enc_subterms(p)) == {normalize(inner), normalize(senc(inner, const("k2")))}

    def test_no_encryption(self):
        p = load("p1")
        assert enc_subterms(p) == ()


class TestMunut:
    def test_untagged_self_pair_violated(self, nslx):
        rep = check_munut(nslx, nslx)
        assert not rep.ok()
        conds = {v.condition for v in rep.violations}
        assert conds == {1, 2}
        # msg1 unifies with the renamed msg1', witnessed by a unifier.
        texts = [(to_text(v.left), to_text(v.right)) for v in rep.violations]
        assert (
            "penc(seq(var(A:Agent),var(NA:Nonce)),pk(var(B:Agent)))",
            "penc(seq(var(A':Agent),var(NA':Nonce)),pk(var(B':Agent)))",
        ) in texts
        for v in rep.violations:
            assert v.unifier is not None

    def test_symmetry(self, nslx):
        p2 = load("p2")
        assert check_munut(nslx, p2).ok() == check_munut(p2, nslx).ok()

    def test_tagged_with_distinct_labels_satisfied(self):
        t1 = load("nslx_nslx")
        t2 = load("nslx_other")
        rep = check_munut(t1, t2)
        assert rep.ok()
        assert rep.to_json_dict()["status"] == "satisfied"

    def test_same_label_still_violated(self, nslx):
        t1 = tag_protocol(nslx, "same")
        t2 = tag_protocol(nslx, "same")
        assert not check_munut(t1, t2).ok()

    def test_p1_vs_p2_satisfied_vacuously(self):
        rep = check_munut(load("p1"), load("p2"))
        assert rep.ok()

    def test_corpus_pairwise_satisfied(self):
        corpus = [load(f"q{i}") for i in range(1, 6)]
        for a, b in itertools.combinations(corpus, 2):
            assert check_munut(a, b).ok(), (a.name, b.name)


class TestTagProtocol:
    def test_tagged_message_two_matches_known_pattern(self, nslx):
        tagged = tag_protocol(nslx, "nslx")
        msg2 = tagged.roles[0][1].nodes[1].term
        assert to_text(msg2) == (
            "penc(seq(const(nslx:Tag),xor(seq(const(nslx:Tag),var(B:Agent)),"
            "seq(const(nslx:Tag),var(NA:Nonce))),var(NB:Nonce)),pk(var(A:Agent)))"
        )
        assert tagged.name == "nslx_nslx"
        assert tagged.fresh_vars == nslx.fresh_vars

    def test_fixture_files_match_transform_output(self, nslx):
        assert load("nslx_nslx") == tag_protocol(nslx, "nslx")
        assert load("nslx_other") == tag_protocol(nslx, "other")

    def test_protocol_without_encryption_or_xor_unchanged(self):
        p1 = load("p1")
        tagged = tag_protocol(p1, "lbl")
        assert tagged.roles == p1.roles
        assert tagged.name == "p1_lbl"

    @pytest.mark.parametrize("label", ["zero", "X", "a b", "seq", "#v0"])
    def test_label_the_dsl_cannot_read_is_rejected(self, label):
        # the tagged protocol would render to text that does not parse
        q2 = load("q2")
        for given in (label, Const(label, Sort.TAG)):
            with pytest.raises(XorsleuthError, match="is not a constant name"):
                tag_protocol(q2, given)

    def test_label_collision(self, nslx):
        with pytest.raises(LabelCollision):
            tag_protocol(tag_protocol(nslx, "dup"), "dup")

    def test_double_tagging_nests(self, nslx):
        twice = tag_protocol(tag_protocol(nslx, "in"), "out")
        msg3 = twice.roles[0][1].nodes[2].term
        assert to_text(msg3) == (
            "penc(seq(const(out:Tag),const(in:Tag),var(NB:Nonce)),pk(var(B:Agent)))"
        )

    def test_atom_plaintext_wrapped(self):
        p = Protocol("w", [("A", Strand((Node("+", penc(const("m"), pk(Const("b", Sort.AGENT)))),)))])
        tagged = tag_protocol(p, "t")
        assert to_text(tagged.node_terms()[0]) == (
            "penc(seq(const(t:Tag),const(m:Data)),pk(const(b:Agent)))"
        )


# -- parts against the walks they replaced -------------------------------------------

FIXTURE_NAMES = sorted(f.stem for f in FIXTURES.glob("*.proto"))


def reference_long_term_keys(p):
    keys = {s for t in p.node_terms() for s in subterms(t) if isinstance(s, Sh)}
    return tuple(sorted(keys, key=term_key))


def reference_enc_subterms(p):
    encs = {s for t in p.node_terms() for s in subterms(t) if isinstance(s, (PEnc, SEnc))}
    return tuple(sorted(encs, key=term_key))


def reference_xor_children(p):
    out = {c for t in p.node_terms() for s in subterms(t) if isinstance(s, Xor) for c in s.items}
    return tuple(sorted(out, key=term_key))


def reference_written(p):
    return frozenset(s.name for t in p.node_terms() for s in subterms(t) if isinstance(s, Const))


def reference_rename_apart(p):
    """Every variable of the protocol primed, as a whole protocol again."""
    ren = {v: Var(v.name + "'", v.sort) for v in p.variables()}
    s = Substitution(ren)
    return Protocol(
        p.name,
        tuple((rn, strand.map(s.apply)) for rn, strand in p.roles),
        (ren.get(v, v) for v in p.fresh_vars),
        (ren.get(v, v) for v in p.secret_vars),
    )


def reference_munut(p1, p2):
    """`check_munut` by the route it replaced: rename the whole second
    protocol apart, then walk both protocols for each condition."""
    q2 = reference_rename_apart(p2)
    violations = []
    for condition, walk in ((1, reference_enc_subterms), (2, reference_xor_children)):
        for t1, t2 in itertools.product(walk(p1), walk(q2)):
            w = _std_unifier_witness(t1, t2)
            if w is not None:
                violations.append(MunutViolation(condition, t1, t2, w))
    violations.sort(key=lambda v: (v.condition, term_key(v.left), term_key(v.right)))
    return MunutReport((p1.name, p2.name), tuple(violations))


AGENT_POOL = [var("A", Sort.AGENT), var("B", Sort.AGENT), Const("a1", Sort.AGENT), Const("b", Sort.AGENT)]
# n1 and a1 are the names `make_semibundle` would mint first for N and role A
ATOM_POOL = [var("N", Sort.NONCE), var("X"), var("K", Sort.KEY), Const("n1", Sort.NONCE), const("m"), Const("t", Sort.TAG)]


def drawn_terms(atoms, depth=2):
    base = st.sampled_from(atoms + AGENT_POOL)
    if depth == 0:
        return base
    sub = drawn_terms(atoms, depth - 1)
    agent = st.sampled_from(AGENT_POOL)
    return st.one_of(
        base,
        st.tuples(sub, sub).map(lambda p: seq(*p)),
        st.tuples(sub, sub).map(lambda p: xor(*p)),
        st.tuples(sub, st.one_of(sub, st.tuples(agent, agent).map(lambda p: sh(*p)))).map(lambda p: senc(*p)),
        st.tuples(sub, agent).map(lambda p: penc(p[0], pk(p[1]))),
    )


@st.composite
def drawn_protocols(draw, name="g", primed=False):
    """A protocol of one or two roles, A and B, of one to three nodes each,
    over agent, nonce, data, key and tag atoms; N is fresh and secret when
    a role uses it.  With ``primed``, a variable may be named ``X'``, the
    name `check_munut` gives the other protocol's ``X``."""
    atoms = ATOM_POOL + ([var("X'")] if primed else [])
    node = st.tuples(st.sampled_from(["+", "-"]), drawn_terms(atoms))
    roles = draw(st.lists(st.lists(node, min_size=1, max_size=3), min_size=1, max_size=2))
    strands = [(rn, Strand(tuple(Node(sign, t) for sign, t in nodes))) for rn, nodes in zip("AB", roles)]
    fresh = {var("N", Sort.NONCE)} & vars_of_all(t for _, strand in strands for t in strand.terms())
    return Protocol(name, strands, fresh, fresh)


def fixtures_and_tagged():
    """Every fixture and every fixture tagged, each parsed afresh and so
    with its parts not read yet (tagging reads the parts of what it tags)."""
    return [load(n) for n in FIXTURE_NAMES] + [tag_protocol(load(n), "t9") for n in FIXTURE_NAMES]


def assert_parts_match_walks(p):
    assert p.parts == frozenset().union(*(subterms(t) for t in p.node_terms()))
    assert p.long_term_keys() == reference_long_term_keys(p)
    assert enc_subterms(p) == reference_enc_subterms(p)
    assert _xor_children(p) == reference_xor_children(p)
    assert frozenset(c.name for c in p.parts_of(Const)) == reference_written(p)
    # make_semibundle mints no constant whose name the protocol writes
    sb = make_semibundle(p, 2, session=FreshSession())
    minted = {t.name for _, s in sb.instantiations for _, t in s.items() if isinstance(t, Const)}
    assert not minted & reference_written(p)


def assert_reading_parts_is_invisible(p):
    unread = pickle.loads(pickle.dumps(p))
    before = (repr(p), hash(p))
    assert "parts" not in vars(p) and "parts" not in type(p)._fields
    p.parts  # the first read computes the parts and keeps them on the instance
    assert "parts" in vars(p) and (repr(p), hash(p)) == before
    for twin in (unread, copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert twin == p and p == twin and hash(twin) == hash(p) and repr(twin) == repr(p)
        assert twin.parts == p.parts


class TestParts:
    def test_fixtures_and_tagged_fixtures(self):
        for p in fixtures_and_tagged():
            assert_parts_match_walks(p)

    def test_reading_parts_leaves_the_value_unchanged(self):
        for p in fixtures_and_tagged():
            assert_reading_parts_is_invisible(p)

    @given(drawn_protocols(primed=True))
    @settings(max_examples=150, deadline=None)
    def test_drawn_protocols(self, p):
        assert_reading_parts_is_invisible(p)
        assert_parts_match_walks(p)

    def test_repr_lists_the_declared_variables_in_term_order(self):
        vs = [var(f"N{i}", Sort.NONCE) for i in range(12)]
        p = Protocol("p", [("A", Strand((Node("+", seq(*vs)),)))], reversed(vs), vs[5::-2])
        listed = [", ".join(map(repr, sorted(group, key=term_key))) for group in (vs, vs[5::-2])]
        assert repr(p).endswith(f"fresh_vars=frozenset({{{listed[0]}}}), secret_vars=frozenset({{{listed[1]}}}))")
        assert repr(pickle.loads(pickle.dumps(p))) == repr(p)

    def test_unchecked_protocol_reads_its_parts(self):
        strand = Strand((Node("+", senc(const("m"), const("k"))),))
        p = unchecked("p", [("A", strand), ("A", strand)])
        assert p.parts_of(SEnc) == (senc(const("m"), const("k")),)
        assert_reading_parts_is_invisible(unchecked("q", [("A", strand)]))



# -- check_munut against the rename-apart route ------------------------------------------


def assert_munut_matches_reference(p, q):
    assert check_munut(p, q).to_json_dict() == reference_munut(p, q).to_json_dict(), (p.name, q.name)


def condition_counts(report):
    return [sum(v.condition == c for v in report.violations) for c in (1, 2)]


class TestMunutAgainstReference:
    def test_every_ordered_fixture_pair(self):
        fixtures = [load(n) for n in FIXTURE_NAMES]
        for p, q in itertools.product(fixtures, repeat=2):
            assert_munut_matches_reference(p, q)

    @pytest.mark.parametrize("labels", [("t1x", "t2x"), ("same", "same")])
    def test_tagged_fixture_pairs(self, labels):
        fixtures = [load(n) for n in FIXTURE_NAMES]
        for p, q in itertools.product(fixtures, repeat=2):
            assert_munut_matches_reference(tag_protocol(p, labels[0]), tag_protocol(q, labels[1]))

    @given(drawn_protocols("g", primed=True), drawn_protocols("h", primed=True))
    @settings(max_examples=200, deadline=None)
    def test_drawn_protocols(self, p, q):
        assert_munut_matches_reference(p, q)
        assert_munut_matches_reference(p, p)

    def test_symmetric_counts_on_fixtures_and_tagged_fixtures(self):
        protocols = fixtures_and_tagged()
        for p, q in itertools.product(protocols, repeat=2):
            assert condition_counts(check_munut(p, q)) == condition_counts(check_munut(q, p)), (p.name, q.name)

    def test_nslx_and_q1_clash_on_summands_both_ways(self):
        nslx, q1 = load("nslx"), load("q1")
        assert condition_counts(check_munut(nslx, q1)) == condition_counts(check_munut(q1, nslx)) == [0, 2]

    def test_no_clash_through_an_abstracted_zero_either_way(self):
        # K would equal both N' and the data variable that stands for zero:
        # no well-sorted unifier passes the nonce to the key through it
        n, k = var("N", Sort.NONCE), var("K", Sort.KEY)
        g = Protocol("g", [("A", Strand((Node("+", seq(n, senc(k, k))),)))], {n}, {n})
        h = Protocol("h", [("A", Strand((Node("+", senc(n, ZERO)),)))], {n}, {n})
        assert condition_counts(check_munut(g, h)) == condition_counts(check_munut(h, g)) == [0, 0]

    @given(drawn_protocols("g"), drawn_protocols("h"))
    @settings(max_examples=200, deadline=None)
    def test_symmetric_counts_on_drawn_protocols(self, p, q):
        # with no primed names in either protocol, each direction unifies a
        # variable-disjoint copy of the same pair of parts
        assert condition_counts(check_munut(p, q)) == condition_counts(check_munut(q, p))
