"""Protocol text format: parsing, sort inference, rendering, round-trips."""

import os
import re
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

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
from xorsleuth.protocol import Node, Protocol, Strand
from xorsleuth.terms import (
    CONSTRUCTOR_NAMED,
    CONSTRUCTORS,
    ZERO,
    Const,
    Sort,
    SortError,
    TermTextError,
    Var,
    from_text,
    is_constant_name,
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

    def test_a_term_written_twice_is_one_object(self):
        p = parse_protocol_file(FIXTURES / "q1.proto")
        (_, a), (_, b) = p.roles
        # A's send is B's receive, and A's receive B's send
        assert a.nodes[0].term is b.nodes[0].term
        assert a.nodes[1].term is b.nodes[1].term
        # and the shared key is one object inside both
        assert a.nodes[0].term.key is a.nodes[1].term.key

    def test_terms_are_canonical_as_built(self):
        p = parse_protocol("protocol x\nrole A:\n send seq(xor(b, a), sh(e, d), xor(a, xor(a, c)))\n")
        t = p.node_terms()[0]
        assert t._canon and all(c._canon for c in t.items)
        assert to_text(t) == (
            "seq(xor(const(a:Data),const(b:Data)),sh(const(d:Agent),const(e:Agent)),const(c:Data))"
        )


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

    def test_sort_conflict_names_the_first_agent_position_not_the_first_annotation(self):
        text = "protocol x\nrole A:\n send seq(bob:Tag, sh(alice, bob), pk(alice), alice:Nonce)\nrole B:\n recv pk(a:Key)\n"
        with pytest.raises(SortError) as exc:
            parse_protocol(text)
        assert str(exc.value) == "3:23: constant 'alice' is used as a pk/sh argument but annotated Nonce"

    def test_sort_conflict_does_not_depend_on_hash_order(self):
        # the conflicts used to be read off a set of names, whose order
        # follows the hash seed: 'alice' under seeds 0-5, 'bob' under 6-7
        text = "protocol x\nrole A:\n send seq(pk(alice), pk(bob), alice:Nonce, bob:Tag)\n"
        code = (
            "import sys\n"
            "from xorsleuth.dsl import parse_protocol\n"
            "try:\n"
            "    parse_protocol(sys.stdin.read())\n"
            "except Exception as e:\n"
            "    print(type(e).__name__, e)\n"
        )
        package_root = str(Path(dsl.__file__).resolve().parent.parent)
        messages = set()
        for seed in range(8):
            env = dict(os.environ, PYTHONHASHSEED=str(seed))
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
            proc = subprocess.run(
                [sys.executable, "-c", code], input=text, capture_output=True, text=True, env=env, check=True
            )
            messages.add(proc.stdout.strip())
        assert messages == {"SortError 3:14: constant 'alice' is used as a pk/sh argument but annotated Nonce"}


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


_LEX_TEXTS = st.one_of(st.lists(_LEX_PIECES, max_size=30).map("".join), st.text(max_size=40))
_LEX_EDGE_CASES = ["", "\n", "a # trailing", "a\n# last line", "a\n  #", "(a, b)\n\tx:Agent", "a\x0bb", "ab²\n é!", "#\n#"]


def token_strings(text):
    """The token strings the parser reads, or the text of the error."""
    try:
        return dsl._tokens(text)
    except ProtocolSyntaxError as e:
        return str(e)


def lexed_values(text):
    """The values of `_lex`'s tokens, or the text of the error."""
    try:
        return [t.value for t in dsl._lex(text)]
    except ProtocolSyntaxError as e:
        return str(e)


class TestLexer:
    """The regular-expression lexer against the character loop it replaced,
    and the parser's token strings against the lexer."""

    @given(_LEX_TEXTS)
    @settings(max_examples=500, deadline=None)
    def test_matches_the_character_loop(self, text):
        assert lexed(dsl._lex, text) == lexed(reference_lex, text)

    @pytest.mark.parametrize("text", _LEX_EDGE_CASES)
    def test_matches_on_edge_cases(self, text):
        assert lexed(dsl._lex, text) == lexed(reference_lex, text)

    def test_fixtures_lex_alike(self):
        for f in sorted(FIXTURES.glob("*.proto")):
            text = f.read_text(encoding="utf-8")
            assert lexed(dsl._lex, text) == lexed(reference_lex, text), f.name

    # the parser reads its tokens as strings and looks a token's position up
    # in `_lex` by index, so both must give the same tokens, or the same error

    @given(_LEX_TEXTS)
    @settings(max_examples=500, deadline=None)
    def test_token_strings_match_the_lexer(self, text):
        assert token_strings(text) == lexed_values(text)

    @pytest.mark.parametrize("text", _LEX_EDGE_CASES)
    def test_token_strings_match_on_edge_cases(self, text):
        assert token_strings(text) == lexed_values(text)

    def test_token_strings_of_fixtures_match(self):
        for f in sorted(FIXTURES.glob("*.proto")):
            text = f.read_text(encoding="utf-8")
            assert token_strings(text) == lexed_values(text), f.name

    def test_only_an_error_works_out_positions(self, monkeypatch):
        calls = []
        lex = dsl._lex

        def counting(text):
            calls.append(text)
            return lex(text)

        monkeypatch.setattr(dsl, "_lex", counting)
        for f in sorted(FIXTURES.glob("*.proto")):
            parse_protocol_file(f)
        assert calls == []
        with pytest.raises(UndeclaredIdentifier) as exc:
            parse_protocol("protocol x\nrole A:\n send seq(a, NA)\n")
        assert (exc.value.line, exc.value.col) == (3, 14)
        assert len(calls) == 1


# -- the parser as it was: a syntax tree, then sorts, then terms ---------------


class _RefToken(NamedTuple):
    kind: str
    value: str
    line: int
    col: int


class _ReferenceParser:
    """The DSL parser before terms were parsed by index and built shared:
    a raw syntax tree with a token per node, a walk over it that resolves
    the sorts of constants, then one term per occurrence, normalized per
    step.  A pk/sh argument whose constant is annotated other than Agent
    is reported at its first such occurrence, constants in source order."""

    def __init__(self, text):
        self.toks = [_RefToken(*t) for t in reference_lex(text)]
        self.pos = 0
        self.var_sorts = {}

    def peek(self, ahead=0):
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self):
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def expect(self, kind, what):
        t = self.next()
        if t.kind != kind:
            raise ProtocolSyntaxError(f"expected {what}, found {t.value or 'end of file'!r}", t.line, t.col)
        return t

    def expect_keyword(self, word):
        t = self.next()
        if t.kind != "ident" or t.value != word:
            raise ProtocolSyntaxError(f"expected {word!r}, found {t.value or 'end of file'!r}", t.line, t.col)
        return t

    def at_keyword(self, *words):
        t = self.peek()
        return t.kind == "ident" and t.value in words

    def parse_sort(self):
        t = self.expect("ident", "a sort name")
        sorts = {s.value: s for s in Sort}
        if t.value not in sorts:
            raise ProtocolSyntaxError(
                f"unknown sort {t.value!r} (expected one of {', '.join(sorted(sorts))})", t.line, t.col
            )
        return sorts[t.value]

    def parse_vars_decl(self):
        self.expect_keyword("vars")
        pairs = 0
        while self.peek().kind == "ident" and self.peek(1).kind == ":":
            name_tok = self.next()
            name = name_tok.value
            if not name[0].isupper():
                raise ProtocolSyntaxError(f"variable names start upper-case: {name!r}", name_tok.line, name_tok.col)
            self.expect(":", "':'")
            sort = self.parse_sort()
            if name in self.var_sorts and self.var_sorts[name] is not sort:
                raise SortError(
                    f"{name_tok.line}:{name_tok.col}: variable {name} redeclared "
                    f"with sort {sort.value}, was {self.var_sorts[name].value}"
                )
            self.var_sorts[name] = sort
            pairs += 1
        if pairs == 0:
            t = self.peek()
            raise ProtocolSyntaxError("vars needs at least one NAME:Sort pair", t.line, t.col)

    def parse_name_list(self, decl):
        self.expect_keyword(decl)
        names = []
        while self.peek().kind == "ident" and self.peek().value[0].isupper():
            t = self.next()
            if t.value not in self.var_sorts:
                raise UndeclaredIdentifier(f"{decl} lists undeclared variable {t.value!r}", t.line, t.col)
            names.append(t.value)
        if not names:
            t = self.peek()
            raise ProtocolSyntaxError(f"{decl} needs at least one variable name", t.line, t.col)
        return names

    def parse_term(self):
        t = self.expect("ident", "a term")
        name = t.value
        if name == "zero":
            return ("zero", t)
        ctor = CONSTRUCTOR_NAMED.get(name)
        if ctor is not None:
            self.expect("(", "'('")
            args = [self.parse_term()]
            while self.peek().kind == ",":
                self.next()
                args.append(self.parse_term())
            self.expect(")", "')'")
            if ctor.arity is None and len(args) < 2:
                raise ProtocolSyntaxError(f"{name} needs at least two arguments", t.line, t.col)
            if ctor.arity not in (None, len(args)):
                raise ProtocolSyntaxError(f"{name} takes exactly {ctor.arity} argument(s), got {len(args)}", t.line, t.col)
            return (name, t, tuple(args))
        if name[0].isupper():
            if self.peek().kind == ":":
                raise ProtocolSyntaxError(f"variable sorts are declared in vars, not inline: {name!r}", t.line, t.col)
            if name not in self.var_sorts:
                raise UndeclaredIdentifier(f"undeclared variable {name!r}", t.line, t.col)
            return ("var", t)
        annotation = None
        if self.peek().kind == ":":
            self.next()
            annotation = self.parse_sort()
        return ("const", t, annotation)

    def parse_protocol(self):
        self.expect_keyword("protocol")
        name = self.expect("ident", "a protocol name").value
        fresh, secret = [], []
        while self.at_keyword("vars", "fresh", "secret"):
            word = self.peek().value
            if word == "vars":
                self.parse_vars_decl()
            elif word == "fresh":
                fresh += self.parse_name_list("fresh")
            else:
                secret += self.parse_name_list("secret")
        roles, seen_roles = [], set()
        while self.at_keyword("role"):
            self.next()
            rt = self.expect("ident", "a role name")
            if rt.value in seen_roles:
                raise DuplicateRole(f"role {rt.value!r} defined twice", rt.line, rt.col)
            seen_roles.add(rt.value)
            self.expect(":", "':'")
            steps = []
            while self.at_keyword("send", "recv"):
                sign = self.next().value
                steps.append(("+" if sign == "send" else "-", self.parse_term()))
            if not steps:
                t = self.peek()
                raise ProtocolSyntaxError("role needs at least one send/recv step", t.line, t.col)
            roles.append((rt.value, steps))
        if not roles:
            t = self.peek()
            raise ProtocolSyntaxError("protocol needs at least one role", t.line, t.col)
        t = self.peek()
        if t.kind != "eof":
            raise ProtocolSyntaxError(f"unexpected {t.value!r} after last role", t.line, t.col)

        const_sorts = self._resolve_const_sorts(roles)
        built_roles = []
        for rn, steps in roles:
            nodes = []
            for sign, ast in steps:
                try:
                    nodes.append(Node(sign, self._build(ast, const_sorts)))
                except SortError as e:
                    tok = ast[1]
                    raise SortError(f"{tok.line}:{tok.col}: {e}") from None
            built_roles.append((rn, Strand(tuple(nodes))))
        fresh_vars = [Var(n, self.var_sorts[n]) for n in dict.fromkeys(fresh)]
        secret_vars = [Var(n, self.var_sorts[n]) for n in dict.fromkeys(secret)]
        try:
            return Protocol(name, built_roles, fresh_vars, secret_vars)
        except ValueError as e:
            raise ProtocolSyntaxError(str(e), 1, 1) from None

    def _resolve_const_sorts(self, roles):
        annotated = {}
        agent_position = {}  # name -> its first pk/sh-argument token, in preorder
        stack = [(ast, False) for _, steps in reversed(roles) for _, ast in reversed(steps)]
        while stack:
            ast, in_agent_pos = stack.pop()
            head = ast[0]
            if head == "const":
                tok, ann = ast[1], ast[2]
                if ann is not None:
                    prev = annotated.get(tok.value)
                    if prev is not None and prev is not ann:
                        raise SortError(
                            f"{tok.line}:{tok.col}: constant {tok.value!r} annotated both {prev.value} and {ann.value}"
                        )
                    annotated[tok.value] = ann
                if in_agent_pos:
                    agent_position.setdefault(tok.value, tok)
            elif head in CONSTRUCTOR_NAMED:
                stack.extend((a, CONSTRUCTOR_NAMED[head].agent_args) for a in reversed(ast[2]))
        out = {}
        for name, tok in agent_position.items():
            ann = annotated.get(name)
            if ann is not None and ann is not Sort.AGENT:
                raise SortError(
                    f"{tok.line}:{tok.col}: constant {name!r} is used as a pk/sh argument but annotated {ann.value}"
                )
            out[name] = Sort.AGENT
        for name, ann in annotated.items():
            out.setdefault(name, ann)
        return out

    def _build(self, ast, const_sorts):
        head = ast[0]
        if head == "zero":
            return ZERO
        if head == "var":
            name = ast[1].value
            return Var(name, self.var_sorts[name])
        if head == "const":
            name = ast[1].value
            return Const(name, const_sorts.get(name, Sort.DATA))
        return CONSTRUCTOR_NAMED[head].make(tuple(self._build(a, const_sorts) for a in ast[2]))


def reference_parse(text):
    return _ReferenceParser(text).parse_protocol()


def parsed(parse, text):
    """The protocol ``text`` parses to, or the type and text of the error."""
    try:
        return parse(text)
    except (ProtocolSyntaxError, SortError) as e:
        return type(e), str(e)


_FIXTURE_TEXTS = {f.name: f.read_text(encoding="utf-8") for f in sorted(FIXTURES.glob("*.proto"))}
# a token's text and where it starts, comments skipped
_TOKEN_SPANS = re.compile(r"#.*|(\w+|[(),:])")
_SORT_NAMES = sorted(s.value for s in Sort) + ["Widget"]


_KEYWORDS = {"protocol", "vars", "fresh", "secret", "role", "send", "recv"}


@st.composite
def edited_fixtures(draw):
    """A fixture's text with one drawn edit: a token deleted, duplicated,
    or swapped with the next, or a constant's annotation changed, added or
    removed."""
    text = _FIXTURE_TEXTS[draw(st.sampled_from(sorted(_FIXTURE_TEXTS)))]
    spans = [m.span(1) for m in _TOKEN_SPANS.finditer(text) if m.group(1)]
    constants = [
        k for k, (s, e) in enumerate(spans[2:-2], 2) if is_constant_name(text[s:e]) and text[s:e] not in _KEYWORDS
    ]
    edit = draw(st.sampled_from(["delete", "duplicate", "swap", "annotate", "annotate"]))
    if edit == "annotate" and constants:
        k = draw(st.sampled_from(constants))
        s, e = spans[k]
        sort = draw(st.sampled_from(_SORT_NAMES + [""]))
        if text[slice(*spans[k + 1])] == ":":
            # change the sort after the ':', or drop the annotation
            return text[:e] + (f":{sort}" if sort else "") + text[spans[k + 2][1]:]
        return text[:e] + f":{sort or 'Data'}" + text[e:]
    k = draw(st.integers(0, len(spans) - 2))
    (s, e), (s2, e2) = spans[k], spans[k + 1]
    if edit == "delete":
        return text[:s] + text[e:]
    if edit == "duplicate":
        return text[:e] + " " + text[s:e] + text[e:]
    return text[:s] + text[s2:e2] + text[e:s2] + text[s:e] + text[e2:]


class TestAgainstReferenceParser:
    """The one-scan parser against the parser it replaced: an equal
    protocol, or an error of the same type with the same text."""

    def test_fixtures(self):
        for name, text in _FIXTURE_TEXTS.items():
            p = parse_protocol(text)
            assert p == reference_parse(text), name

    @given(st.binary(max_size=300))
    @settings(max_examples=300, deadline=None)
    def test_blobs(self, blob):
        try:
            text = blob.decode("utf-8")
        except UnicodeDecodeError:
            return
        assert parsed(parse_protocol, text) == parsed(reference_parse, text)

    @given(edited_fixtures())
    @settings(max_examples=600, deadline=None)
    def test_edited_fixtures(self, text):
        assert parsed(parse_protocol, text) == parsed(reference_parse, text)

    @given(st.lists(edited_fixtures(), min_size=2, max_size=3))
    @settings(max_examples=150, deadline=None)
    def test_roles_of_edited_fixtures_together(self, texts):
        # the roles of several fixtures in one file, under their variable
        # declarations: terms shared across fixtures, and sort conflicts
        # between them
        decls, roles = ["protocol x"], []
        for k, t in enumerate(texts):
            head, _, body = t.partition("\nrole ")
            decls += [line for line in head.split("\n") if line.startswith("vars ")]
            roles.append(re.sub(r"^role (\w+)", rf"role r{k}_\1", "role " + body, flags=re.M))
        text = "\n".join(decls + roles)
        assert parsed(parse_protocol, text) == parsed(reference_parse, text)

    @pytest.mark.parametrize(
        "text",
        [
            # a sort conflict, then a syntax error: the syntax error wins
            "protocol x\nrole A:\n send seq(k:Key, k:Tag)\n send pk(\n",
            "protocol x\nrole A:\n send pk(a:Key)\nrole B:\n recv b c\n",
            "protocol x\nrole A:\n send pk(a:Key)\n send pk(N)\n",
            # a sort conflict, then a term that breaks the sort discipline
            "protocol x\nvars N:Nonce\nrole A:\n send seq(k:Key, k:Tag)\n send pk(N)\n",
            # terms that break it, shared and not
            "protocol x\nvars N:Nonce\nrole A:\n send seq(a, pk(N))\n send sh(a, seq(a, b))\n",
            "protocol x\nvars N:Nonce\nrole A:\n send a\n send seq(b, pk(N))\nrole B:\n recv pk(N)\n",
            "protocol x\nvars N:Nonce\nrole A:\n send seq(a, b)\n send seq(a, b)\n send pk(zero)\n",
            "protocol x\nvars N:Nonce\nrole A:\n send seq(N, b)\n recv pk(N)\n",
            # two conflicts of each kind
            "protocol x\nrole A:\n send seq(k:Key, j:Tag, k:Tag, j:Key)\n",
            "protocol x\nrole A:\n send seq(pk(b), sh(a, c), c:Key, a:Tag, b:Data)\n",
        ],
    )
    def test_error_precedence(self, text):
        got = parsed(parse_protocol, text)
        assert not isinstance(got, Protocol)
        assert got == parsed(reference_parse, text)


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


class TestFileDecoding:
    """A protocol file reads as opening it as UTF-8 text does."""

    @pytest.mark.parametrize("newline", [b"\r\n", b"\r"], ids=["crlf", "cr"])
    def test_crlf_and_lone_cr_files_parse_as_the_lf_file(self, tmp_path, newline):
        for name in ("nslx", "q1"):
            lf = (FIXTURES / f"{name}.proto").read_bytes()
            assert b"\r" not in lf
            path = tmp_path / f"{name}.proto"
            path.write_bytes(lf.replace(b"\n", newline))
            want = parse_protocol_file(FIXTURES / f"{name}.proto")
            assert parse_protocol_file(path) == want
            assert parse_protocol_file(path, path.read_bytes()) == want
            assert parse_protocol_file(path) == parse_protocol(path.read_text(encoding="utf-8"))

    @pytest.mark.parametrize(
        "data",
        [b"protocol p\nrole A:\n  send caf\xe9\n", b"protocol p\n# \xe2\x82", b"protocol p\n\x80"],
        ids=["latin1", "truncated", "stray"],
    )
    def test_a_bad_byte_raises_what_reading_it_as_text_raises(self, tmp_path, data):
        path = tmp_path / "bad.proto"
        path.write_bytes(data)
        with pytest.raises(UnicodeDecodeError) as want:
            with open(path, encoding="utf-8") as f:
                f.read()
        for args in ((path,), (path, data)):
            with pytest.raises(UnicodeDecodeError) as got:
                parse_protocol_file(*args)
            assert str(got.value) == str(want.value)
