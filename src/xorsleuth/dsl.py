"""Text format for protocols.

One protocol per file::

    protocol nslx
    vars A:Agent B:Agent NA:Nonce NB:Nonce
    fresh NA NB
    secret NA NB
    role A:
      send penc(seq(A, NA), pk(B))
      recv penc(seq(xor(NA, B), NB), pk(A))
      send penc(NB, pk(B))
    role B:
      ...

Identifiers starting with an upper-case letter are variables (sorts come
from ``vars`` declarations); everything else is a constant.  Constants
default to sort Data, are inferred Agent when used as a pk/sh argument, and
can be annotated explicitly (``nslx:Tag``).  ``#`` starts a comment, which
also guarantees the reserved ``#v``/``#c`` name spaces can never be written.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .protocol import Node, Protocol, Strand
from .terms import (
    CONSTRUCTOR_NAMED,
    CONSTRUCTOR_OF_TYPE,
    ZERO,
    Const,
    Sort,
    Term,
    Var,
    XorsleuthError,
    SortError,
    Zero,
    _normalize_node,
    children,
)

_SORTS = {s.value: s for s in Sort}


class ProtocolSyntaxError(XorsleuthError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class UndeclaredIdentifier(ProtocolSyntaxError):
    pass


class DuplicateRole(ProtocolSyntaxError):
    pass


class _Token(NamedTuple):
    kind: str  # 'ident', '(', ')', ',', ':', 'eof'
    value: str
    line: int
    col: int


# One scan of the whole text, blanks skipped by the search itself: an
# identifier (``\w`` is exactly ``str.isalnum()`` or ``_``), a punctuation
# mark, a line break, a comment (``.`` stops at a line break), or any other
# non-blank character, which is an error.
_TOKEN = re.compile(r"(\w+)|([(),:])|(\n)|(#.*)|[^ \t\r]")
# builds a ``_Token`` from a tuple in C, without its Python-level ``__new__``
_token = tuple.__new__


def _lex(text: str) -> list[_Token]:
    """The tokens of ``text``, ending in ``eof``, with 1-based line and
    column numbers; a column counts characters.  Only ``\n`` ends a line.
    A comment runs to the end of its line, and ``eof`` after a comment on
    the last line takes the column of its ``#``."""
    toks: list[_Token] = []
    append = toks.append
    # a column is a character's offset less that of the last line break
    line, base = 1, -1
    for m in _TOKEN.finditer(text):
        group = m.lastindex
        if group == 1:
            append(_token(_Token, ("ident", m.group(), line, m.start() - base)))
        elif group == 2:
            ch = m.group()
            append(_token(_Token, (ch, ch, line, m.start() - base)))
        elif group == 3:
            line += 1
            base = m.start()
        elif group is None:
            raise ProtocolSyntaxError(f"unexpected character {m.group()!r}", line, m.start() - base)
        # group 4, a comment, makes no token
    # no token holds a '#', so the last line's first one starts its comment
    end = text.find("#", base + 1)
    append(_token(_Token, ("eof", "", line, (len(text) if end < 0 else end) - base)))
    return toks


def _expected(t: _Token, what: str) -> ProtocolSyntaxError:
    return ProtocolSyntaxError(f"expected {what}, found {t.value or 'end of file'!r}", t.line, t.col)


class _Parser:
    """One protocol's parse.  Declarations read tokens through ``peek``,
    ``next`` and ``expect``; terms read them by index.

    A term is parsed into ``ids``, which gives each distinct term of the
    roles an id, its position in the dict: an atom is keyed by its name
    (case tells a variable from a constant, and ``zero`` is neither), a
    compound term by its constructor's name and its children's ids, which
    come before it.  The sorts of constants are gathered as the terms are
    parsed and settled after the whole file is, so a syntax error anywhere
    is reported before a sort conflict; then each key is built once, in
    id order, canonical as it is built."""

    def __init__(self, text: str):
        self.toks = _lex(text)
        self.pos = 0
        self.var_sorts: dict[str, Sort] = {}
        self.ids: dict[str | tuple, int] = {}
        # each annotated constant's first annotation, the first annotation
        # that differs from it, and each constant's first pk/sh-argument
        # occurrence, all in source order
        self.annotated: dict[str, Sort] = {}
        self.conflict: SortError | None = None
        self.agent_at: dict[str, _Token] = {}

    def peek(self, ahead: int = 0) -> _Token:
        # only a token after an identifier is looked ahead at, so the index
        # never passes ``eof``
        return self.toks[self.pos + ahead]

    def next(self) -> _Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def expect(self, kind: str, what: str) -> _Token:
        t = self.next()
        if t.kind != kind:
            raise _expected(t, what)
        return t

    def expect_keyword(self, word: str) -> _Token:
        t = self.next()
        if t.kind != "ident" or t.value != word:
            raise _expected(t, repr(word))
        return t

    def at_keyword(self, *words: str) -> bool:
        t = self.peek()
        return t.kind == "ident" and t.value in words

    # -- declarations ------------------------------------------------------

    def sort_at(self, i: int) -> Sort:
        """The sort that token ``i`` names."""
        t = self.toks[i]
        if t.kind != "ident":
            raise _expected(t, "a sort name")
        sort = _SORTS.get(t.value)
        if sort is None:
            raise ProtocolSyntaxError(
                f"unknown sort {t.value!r} (expected one of {', '.join(sorted(_SORTS))})",
                t.line, t.col,
            )
        return sort

    def parse_vars_decl(self):
        self.expect_keyword("vars")
        pairs = 0
        while self.peek().kind == "ident" and self.peek(1).kind == ":":
            name_tok = self.next()
            name = name_tok.value
            if not name[0].isupper():
                raise ProtocolSyntaxError(
                    f"variable names start upper-case: {name!r}", name_tok.line, name_tok.col
                )
            self.next()  # the ':' the loop looked ahead at
            sort = self.sort_at(self.pos)
            self.pos += 1
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

    def parse_name_list(self, decl: str) -> list[str]:
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

    # -- terms --------------------------------------------------------------

    def parse_term(self, i: int, agent: bool = False) -> tuple[int, int]:
        """The term whose first token is ``toks[i]``: its id in ``ids`` and
        the index of the token after it.  ``agent`` marks a pk/sh argument."""
        toks = self.toks
        t = toks[i]
        kind, name, line, col = t
        if kind != "ident":
            raise _expected(t, "a term")
        ids = self.ids
        # ``t`` is an identifier, so a token follows it
        follow = toks[i + 1].kind
        ctor = CONSTRUCTOR_NAMED.get(name)
        if ctor is not None:
            if follow != "(":
                raise _expected(toks[i + 1], "'('")
            in_agent = ctor.agent_args
            kid, i = self.parse_term(i + 2, in_agent)
            key = [name, kid]
            while toks[i].kind == ",":
                kid, i = self.parse_term(i + 1, in_agent)
                key.append(kid)
            if toks[i].kind != ")":
                raise _expected(toks[i], "')'")
            arity = len(key) - 1
            if ctor.arity is None and arity < 2:
                raise ProtocolSyntaxError(f"{name} needs at least two arguments", line, col)
            if ctor.arity not in (None, arity):
                raise ProtocolSyntaxError(f"{name} takes exactly {ctor.arity} argument(s), got {arity}", line, col)
            return ids.setdefault(tuple(key), len(ids)), i + 1
        if name == "zero":
            return ids.setdefault(name, len(ids)), i + 1
        if name[0].isupper():
            if follow == ":":
                raise ProtocolSyntaxError(f"variable sorts are declared in vars, not inline: {name!r}", line, col)
            if name not in self.var_sorts:
                raise UndeclaredIdentifier(f"undeclared variable {name!r}", line, col)
            return ids.setdefault(name, len(ids)), i + 1
        if agent:
            self.agent_at.setdefault(name, t)
        if follow == ":":
            sort = self.sort_at(i + 2)
            first = self.annotated.setdefault(name, sort)
            if first is not sort and self.conflict is None:
                self.conflict = SortError(f"{line}:{col}: constant {name!r} annotated both {first.value} and {sort.value}")
            i += 2
        return ids.setdefault(name, len(ids)), i + 1

    # -- protocol ----------------------------------------------------------

    def parse_protocol(self) -> Protocol:
        self.expect_keyword("protocol")
        name = self.expect("ident", "a protocol name").value
        fresh: list[str] = []
        secret: list[str] = []
        while self.at_keyword("vars", "fresh", "secret"):
            word = self.peek().value
            if word == "vars":
                self.parse_vars_decl()
            elif word == "fresh":
                fresh += self.parse_name_list("fresh")
            else:
                secret += self.parse_name_list("secret")

        # per step: its sign, its term's id and first token, and the first
        # id its parse gave out
        roles: list[tuple[str, list[tuple[str, int, _Token, int]]]] = []
        seen_roles = set()
        while self.at_keyword("role"):
            self.next()
            rt = self.expect("ident", "a role name")
            if rt.value in seen_roles:
                raise DuplicateRole(f"role {rt.value!r} defined twice", rt.line, rt.col)
            seen_roles.add(rt.value)
            self.expect(":", "':'")
            steps: list[tuple[str, int, _Token, int]] = []
            while self.at_keyword("send", "recv"):
                sign = "+" if self.next().value == "send" else "-"
                first_id, tok = len(self.ids), self.toks[self.pos]
                root, self.pos = self.parse_term(self.pos)
                steps.append((sign, root, tok, first_id))
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

        built = self._build(self._const_sorts(), [step for _, steps in roles for step in steps])
        built_roles = [
            (rn, Strand(tuple(Node(sign, built[root]) for sign, root, _, _ in steps))) for rn, steps in roles
        ]
        fresh_vars = [Var(n, self.var_sorts[n]) for n in dict.fromkeys(fresh)]
        secret_vars = [Var(n, self.var_sorts[n]) for n in dict.fromkeys(secret)]
        try:
            return Protocol(name, built_roles, fresh_vars, secret_vars)
        except ValueError as e:
            raise ProtocolSyntaxError(str(e), 1, 1) from None

    def _const_sorts(self) -> dict[str, Sort]:
        """The sort of every constant that is not Data: Agent when it is a
        pk/sh argument, else its annotation.  Raises the first conflicting
        annotation in source order; failing that, the constant whose first
        pk/sh-argument occurrence comes first among those annotated other
        than Agent, at that occurrence."""
        if self.conflict is not None:
            raise self.conflict
        for name, tok in self.agent_at.items():
            ann = self.annotated.get(name)
            if ann is not None and ann is not Sort.AGENT:
                raise SortError(
                    f"{tok.line}:{tok.col}: constant {name!r} is used as a pk/sh argument but annotated {ann.value}"
                )
        return {**self.annotated, **dict.fromkeys(self.agent_at, Sort.AGENT)}

    def _build(self, const_sorts: dict[str, Sort], steps: list[tuple[str, int, _Token, int]]) -> list[Term]:
        """The term of each key of ``ids``, in id order, each node made
        canonical from its canonical children.  A term that breaks the sort
        discipline is reported at the first token of the step whose parse
        gave it its id: ids follow the source, so the first term to fail
        is the first a step-by-step build would meet."""
        built: list[Term] = []
        append = built.append
        var_sorts = self.var_sorts
        try:
            for key in self.ids:
                if type(key) is tuple:
                    append(_normalize_node(CONSTRUCTOR_NAMED[key[0]].make(tuple(map(built.__getitem__, key[1:])))))
                elif key == "zero":
                    append(ZERO)
                elif key[0].isupper():
                    append(Var(key, var_sorts[key]))
                else:
                    append(Const(key, const_sorts.get(key, Sort.DATA)))
        except SortError as e:
            tok = next(tok for _, _, tok, first_id in reversed(steps) if first_id <= len(built))
            raise SortError(f"{tok.line}:{tok.col}: {e}") from None
        return built


def parse_protocol(text: str) -> Protocol:
    """Parse one protocol from DSL text."""
    return _Parser(text).parse_protocol()


def parse_protocol_file(path, data: bytes | None = None) -> Protocol:
    """Parse the protocol in the file at ``path``; ``data``, when given, is
    the file's contents as the caller already read them.  The bytes are
    decoded as opening the file as UTF-8 text would: a bad byte raises the
    same `UnicodeDecodeError`, and ``\\r\\n`` and a lone ``\\r`` end a line as
    ``\\n`` does."""
    if data is None:
        with open(path, "rb") as fh:
            data = fh.read()
    return parse_protocol(data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n"))


# -- rendering ---------------------------------------------------------------


def render_term(t: Term, agent_pos: bool = False) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Const):
        default = Sort.AGENT if agent_pos else Sort.DATA
        return t.name if t.sort is default else f"{t.name}:{t.sort.value}"
    if isinstance(t, Zero):
        return "zero"
    ctor = CONSTRUCTOR_OF_TYPE.get(type(t))
    if ctor is None:
        raise TypeError(f"cannot render {t!r}")
    return f"{ctor.name}({', '.join(render_term(c, ctor.agent_args) for c in children(t))})"


def render_protocol(p: Protocol) -> str:
    """DSL text that parses back to an equal protocol."""
    lines = [f"protocol {p.name}"]
    variables = sorted(p.variables(), key=lambda v: v.name)
    if variables:
        lines.append("vars " + " ".join(f"{v.name}:{v.sort.value}" for v in variables))
    if p.fresh_vars:
        lines.append("fresh " + " ".join(sorted(v.name for v in p.fresh_vars)))
    if p.secret_vars:
        lines.append("secret " + " ".join(sorted(v.name for v in p.secret_vars)))
    for rn, strand in p.roles:
        lines.append(f"role {rn}:")
        for node in strand.nodes:
            word = "send" if node.sign == "+" else "recv"
            lines.append(f"  {word} {render_term(node.term)}")
    return "\n".join(lines) + "\n"
