"""Protocol text format: parsing, sort inference, rendering, round-trips."""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xorsleuth import dsl
from xorsleuth.dsl import (
    DuplicateRole,
    ProtocolSyntaxError,
    UndeclaredIdentifier,
    parse_protocol,
    parse_protocol_file,
    render_protocol,
)
from xorsleuth.terms import (
    CONSTRUCTORS,
    Const,
    Sort,
    SortError,
    TermTextError,
    Var,
    from_text,
    normalize,
    to_text,
)

FIXTURES = Path(__file__).resolve().parents[1] / "src" / "xorsleuth" / "fixtures"

MINATURE = """
protocol mini
vars A:Agent NA:Nonce
fresh NA
secret NA
role A:
  send penc(seq(A, NA), pk(b))
"""


class TestParsing:
    def test_minimal_protocol(self):
        p = parse_protocol(MINATURE)
        assert p.name == "mini"
        assert [rn for rn, _ in p.roles] == ["A"]
        assert p.fresh_vars == {Var("NA", Sort.NONCE)}
        assert p.secret_vars == {Var("NA", Sort.NONCE)}
        assert to_text(p.node_terms()[0]) == (
            "penc(seq(var(A:Agent),var(NA:Nonce)),pk(const(b:Agent)))"
        )

    def test_all_fixtures_parse(self):
        for f in sorted(FIXTURES.glob("*.proto")):
            p = parse_protocol_file(f)
            assert p.roles

    def test_comments_and_whitespace_ignored(self):
        p = parse_protocol("# heading\nprotocol x # trailing\nrole A:\n\tsend a\n")
        assert p.name == "x"

    def test_case_decides_variable_vs_constant(self):
        p = parse_protocol("protocol x\nvars N:Nonce\nrole A:\n send seq(N, n, 1)\n")
        items = p.node_terms()[0].items
        assert items[0] == Var("N", Sort.NONCE)
        assert items[1] == Const("n", Sort.DATA)
        assert items[2] == Const("1", Sort.DATA)

    def test_agent_sort_inferred_in_key_positions(self):
        p = parse_protocol("protocol x\nrole A:\n send seq(sh(a, b), pk(c), a)\n")
        items = p.node_terms()[0].items
        consts = {c.name: c.sort for it in items for c in _atoms(it)}
        assert consts == {"a": Sort.AGENT, "b": Sort.AGENT, "c": Sort.AGENT}

    def test_sort_annotation(self):
        p = parse_protocol("protocol x\nrole A:\n send seq(t:Tag, k:Key, d)\n")
        sorts = [it.sort for it in p.node_terms()[0].items]
        assert sorts == [Sort.TAG, Sort.KEY, Sort.DATA]

    def test_zero_keyword(self):
        p = parse_protocol("protocol x\nrole A:\n send xor(a, zero, zero)\n")
        assert to_text(p.node_terms()[0]) == "const(a:Data)"


class TestErrors:
    def test_empty_xor_is_syntax_error(self):
        with pytest.raises(ProtocolSyntaxError):
            parse_protocol("protocol x\nrole A:\n send xor()\n")

    def test_single_argument_xor_rejected(self):
        with pytest.raises(ProtocolSyntaxError):
            parse_protocol("protocol x\nrole A:\n send xor(a)\n")

    def test_undeclared_variable_with_position(self):
        with pytest.raises(UndeclaredIdentifier) as exc:
            parse_protocol("protocol x\nrole A:\n send seq(a, NA)\n")
        assert exc.value.line == 3 and exc.value.col > 0

    def test_duplicate_role(self):
        with pytest.raises(DuplicateRole):
            parse_protocol("protocol x\nrole A:\n send a\nrole A:\n send b\n")

    def test_conflicting_annotations(self):
        with pytest.raises(SortError):
            parse_protocol("protocol x\nrole A:\n send seq(k:Key, k:Tag)\n")

    def test_agent_position_conflicts_with_annotation(self):
        with pytest.raises(SortError):
            parse_protocol("protocol x\nrole A:\n send pk(a:Key)\n")

    def test_non_agent_variable_in_key_position(self):
        with pytest.raises(SortError):
            parse_protocol("protocol x\nvars N:Nonce\nrole A:\n send pk(N)\n")

    def test_secret_not_fresh_rejected(self):
        with pytest.raises(ProtocolSyntaxError):
            parse_protocol(
                "protocol x\nvars N:Nonce\nsecret N\nrole A:\n send N\n"
            )

    def test_reserved_prefix_unwritable(self):
        # '#' starts a comment, so reserved #v / #c names cannot be expressed.
        with pytest.raises(ProtocolSyntaxError):
            parse_protocol("protocol x\nrole A:\n send #v0\n")

    def test_variable_sort_annotation_inline_rejected(self):
        with pytest.raises(ProtocolSyntaxError):
            parse_protocol("protocol x\nvars N:Nonce\nrole A:\n send N:Nonce\n")

    def test_unknown_sort(self):
        with pytest.raises(ProtocolSyntaxError):
            parse_protocol("protocol x\nvars N:Widget\nrole A:\n send N\n")

    def test_missing_role(self):
        with pytest.raises(ProtocolSyntaxError):
            parse_protocol("protocol x\n")

    def test_trailing_garbage(self):
        with pytest.raises(ProtocolSyntaxError):
            parse_protocol("protocol x\nrole A:\n send a\nstray\n")

    def test_wrong_arity(self):
        with pytest.raises(ProtocolSyntaxError):
            parse_protocol("protocol x\nrole A:\n send pk(a, b)\n")
        with pytest.raises(ProtocolSyntaxError):
            parse_protocol("protocol x\nrole A:\n send seq(a)\n")

    @given(st.binary(max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_parser_never_panics(self, blob):
        try:
            text = blob.decode("utf-8")
        except UnicodeDecodeError:
            return
        try:
            parse_protocol(text)
        except (ProtocolSyntaxError, SortError):
            pass


def reference_lex(text):
    """The DSL lexer as a loop over characters, before it lexed each line
    with one regular expression: (kind, value, line, column) per token."""
    toks = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch in "(),:":
            toks.append((ch, ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isalnum() or ch == "_":
            start = i
            startcol = col
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
                col += 1
            toks.append(("ident", text[start:i], line, startcol))
            continue
        raise ProtocolSyntaxError(f"unexpected character {ch!r}", line, col)
    toks.append(("eof", "", line, col))
    return toks


def lexed(lex, text):
    """The tokens of ``text`` as plain tuples, or the text of the error."""
    try:
        return [tuple(t) for t in lex(text)]
    except ProtocolSyntaxError as e:
        return str(e)


_LEX_PIECES = st.sampled_from(
    ["role", "A", "x_1", "_", "é", "x²", "Ünï", "9", "(", ")", ",", ":", "#", "# note ", " ", "\t", "\r", "\n",
     "\r\n", "\x0b", "\x0c", "\xa0", "!", "-", "'", "·", "\u2028"]
)


class TestLexer:
    """The regular-expression lexer against the character loop it replaced."""

    @given(st.one_of(st.lists(_LEX_PIECES, max_size=30).map("".join), st.text(max_size=40)))
    @settings(max_examples=500, deadline=None)
    def test_matches_the_character_loop(self, text):
        assert lexed(dsl._lex, text) == lexed(reference_lex, text)

    @pytest.mark.parametrize(
        "text",
        ["", "\n", "a # trailing", "a\n# last line", "a\n  #", "(a, b)\n\tx:Agent", "a\x0bb", "ab²\n é!", "#\n#"],
    )
    def test_matches_on_edge_cases(self, text):
        assert lexed(dsl._lex, text) == lexed(reference_lex, text)

    def test_fixtures_lex_alike(self):
        for f in sorted(FIXTURES.glob("*.proto")):
            text = f.read_text(encoding="utf-8")
            assert lexed(dsl._lex, text) == lexed(reference_lex, text), f.name


class TestRoundTrip:
    def test_fixture_round_trips(self):
        for f in sorted(FIXTURES.glob("*.proto")):
            p = parse_protocol_file(f)
            assert parse_protocol(render_protocol(p)) == p, f.name

    def test_render_is_stable(self):
        p = parse_protocol_file(FIXTURES / "nslx.proto")
        once = render_protocol(p)
        assert render_protocol(parse_protocol(once)) == once


class TestConstructorTable:
    """Every constructor of the signature, through both text forms."""

    @staticmethod
    def _args(ctor, n):
        # constants in an Agent position are inferred Agent, elsewhere Data
        sort = Sort.AGENT if ctor.agent_args else Sort.DATA
        return tuple(Const(f"c{i}", sort) for i in range(n))

    @staticmethod
    def _protocol_text(ctor, args):
        return f"protocol x\nrole A:\n send {ctor.name}({', '.join(c.name for c in args)})\n"

    @pytest.mark.parametrize("ctor", CONSTRUCTORS, ids=lambda c: c.name)
    def test_round_trips(self, ctor):
        args = self._args(ctor, ctor.arity or 2)
        t = normalize(ctor.make(args))
        assert from_text(to_text(t)) == t
        p = parse_protocol(self._protocol_text(ctor, args))
        assert p.roles[0][1].nodes[0].term == t
        assert parse_protocol(render_protocol(p)) == p

    @pytest.mark.parametrize("ctor", [c for c in CONSTRUCTORS if c.arity is not None], ids=lambda c: c.name)
    def test_one_argument_too_many_rejected(self, ctor):
        args = self._args(ctor, ctor.arity + 1)
        text = f"{ctor.name}({','.join(to_text(c) for c in args)})"
        with pytest.raises(TermTextError):
            from_text(text)
        with pytest.raises(ProtocolSyntaxError, match="takes exactly"):
            parse_protocol(self._protocol_text(ctor, args))

    @pytest.mark.parametrize("ctor", [c for c in CONSTRUCTORS if c.arity is None], ids=lambda c: c.name)
    def test_variadic_needs_two_arguments_in_the_dsl(self, ctor):
        with pytest.raises(ProtocolSyntaxError, match="at least two"):
            parse_protocol(self._protocol_text(ctor, self._args(ctor, 1)))


def _atoms(t):
    from xorsleuth.terms import subterms

    return [s for s in subterms(t) if isinstance(s, Const)]
