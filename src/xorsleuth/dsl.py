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
    children,
    normalize,
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


# One token at a time, blanks skipped: an identifier (``\w`` is exactly
# ``str.isalnum()`` or ``_``), a punctuation mark, the start of a comment,
# or any other non-blank character, which is an error.
_TOKEN = re.compile(r"(\w+)|([(),:])|(#)|[^ \t\r]")


def _lex(text: str) -> list[_Token]:
    """The tokens of ``text``, ending in ``eof``, with 1-based line and
    column numbers; a column counts characters.  Only ``\n`` ends a line.
    A comment runs to the end of its line, and ``eof`` after a comment on
    the last line takes the column of its ``#``."""
    toks: list[_Token] = []
    line, end = 0, 0
    for line, src in enumerate(text.split("\n"), 1):
        end = len(src)
        for m in _TOKEN.finditer(src):
            group = m.lastindex
            if group == 1:
                toks.append(_Token("ident", m.group(), line, m.start() + 1))
            elif group == 2:
                ch = m.group()
                toks.append(_Token(ch, ch, line, m.start() + 1))
            elif group == 3:
                end = m.start()
                break
            else:
                raise ProtocolSyntaxError(f"unexpected character {m.group()!r}", line, m.start() + 1)
    toks.append(_Token("eof", "", line, end + 1))
    return toks


# Raw syntax tree for terms: sorts of constants are resolved in a second
# pass, after every occurrence has been seen.
_Ast = tuple


class _Parser:
    def __init__(self, text: str):
        self.toks = _lex(text)
        self.pos = 0
        self.var_sorts: dict[str, Sort] = {}

    def peek(self, ahead: int = 0) -> _Token:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self) -> _Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def expect(self, kind: str, what: str) -> _Token:
        t = self.next()
        if t.kind != kind:
            raise ProtocolSyntaxError(f"expected {what}, found {t.value or 'end of file'!r}", t.line, t.col)
        return t

    def expect_keyword(self, word: str) -> _Token:
        t = self.next()
        if t.kind != "ident" or t.value != word:
            raise ProtocolSyntaxError(f"expected {word!r}, found {t.value or 'end of file'!r}", t.line, t.col)
        return t

    def at_keyword(self, *words: str) -> bool:
        t = self.peek()
        return t.kind == "ident" and t.value in words

    # -- declarations ------------------------------------------------------

    def parse_sort(self) -> Sort:
        t = self.expect("ident", "a sort name")
        if t.value not in _SORTS:
            raise ProtocolSyntaxError(
                f"unknown sort {t.value!r} (expected one of {', '.join(sorted(_SORTS))})",
                t.line, t.col,
            )
        return _SORTS[t.value]

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

    def parse_term(self) -> _Ast:
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
                raise ProtocolSyntaxError(
                    f"{name} takes exactly {ctor.arity} argument(s), got {len(args)}", t.line, t.col
                )
            return (name, t, tuple(args))
        if name[0].isupper():
            if self.peek().kind == ":":
                raise ProtocolSyntaxError(
                    f"variable sorts are declared in vars, not inline: {name!r}", t.line, t.col
                )
            if name not in self.var_sorts:
                raise UndeclaredIdentifier(f"undeclared variable {name!r}", t.line, t.col)
            return ("var", t)
        annotation = None
        if self.peek().kind == ":":
            self.next()
            annotation = self.parse_sort()
        return ("const", t, annotation)

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

        roles: list[tuple[str, list[tuple[str, _Ast]]]] = []
        seen_roles = set()
        while self.at_keyword("role"):
            self.next()
            rt = self.expect("ident", "a role name")
            if rt.value in seen_roles:
                raise DuplicateRole(f"role {rt.value!r} defined twice", rt.line, rt.col)
            seen_roles.add(rt.value)
            self.expect(":", "':'")
            steps: list[tuple[str, _Ast]] = []
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
                    nodes.append(Node(sign, normalize(self._build(ast, const_sorts))))
                except SortError as e:
                    tok = ast[1]
                    raise SortError(f"{tok.line}:{tok.col}: {e}") from None
            built_roles.append((rn, Strand(tuple(nodes))))
        fresh_vars = [Var(n, self.var_sorts[n]) for n in dict.fromkeys(fresh)]
        secret_vars = [Var(n, self.var_sorts[n]) for n in dict.fromkeys(secret)]
        try:
            return Protocol.make(name, built_roles, fresh_vars, secret_vars)
        except ValueError as e:
            raise ProtocolSyntaxError(str(e), 1, 1) from None

    def _resolve_const_sorts(self, roles) -> dict[str, Sort]:
        annotated: dict[str, Sort] = {}
        agent_position: set[str] = set()
        # preorder, left to right, so the first conflicting annotation in
        # source order is the one reported
        stack: list[tuple[_Ast, bool]] = [
            (ast, False) for _, steps in reversed(roles) for _, ast in reversed(steps)
        ]
        while stack:
            ast, in_agent_pos = stack.pop()
            head = ast[0]
            if head == "const":
                tok, ann = ast[1], ast[2]
                if ann is not None:
                    prev = annotated.get(tok.value)
                    if prev is not None and prev is not ann:
                        raise SortError(
                            f"{tok.line}:{tok.col}: constant {tok.value!r} annotated "
                            f"both {prev.value} and {ann.value}"
                        )
                    annotated[tok.value] = ann
                if in_agent_pos:
                    agent_position.add(tok.value)
            elif head in CONSTRUCTOR_NAMED:
                stack.extend((a, CONSTRUCTOR_NAMED[head].agent_args) for a in reversed(ast[2]))

        out: dict[str, Sort] = {}
        for name in agent_position:
            ann = annotated.get(name)
            if ann is not None and ann is not Sort.AGENT:
                raise SortError(
                    f"constant {name!r} is used as a pk/sh argument but annotated {ann.value}"
                )
            out[name] = Sort.AGENT
        for name, ann in annotated.items():
            out.setdefault(name, ann)
        return out

    def _build(self, ast: _Ast, const_sorts: dict[str, Sort]) -> Term:
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


def parse_protocol(text: str) -> Protocol:
    """Parse one protocol from DSL text."""
    return _Parser(text).parse_protocol()


def parse_protocol_file(path) -> Protocol:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_protocol(fh.read())


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
