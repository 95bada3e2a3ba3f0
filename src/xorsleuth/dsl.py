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
    _canonical_node,
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


# One scan of the whole text, blanks skipped by the search itself.  Its one
# group is a token: an identifier (``\w`` is exactly ``str.isalnum()`` or
# ``_``) or any other non-blank character, a punctuation mark or an error.
# A line break or a comment (``.`` stops at a line break) matches outside
# the group.
_TOKEN = re.compile(r"(\w+|[^ \t\r\n#])|\n|#.*")
# true of the joined tokens of a text that holds no bad character and no
# non-ASCII word character
_PLAIN = re.compile(r"[\w(),:]*", re.ASCII).fullmatch
_PUNCTUATION = frozenset("(),:")
# the tokens that are no identifier: punctuation and ``eof``
_NOT_IDENT = _PUNCTUATION | {""}
# builds a ``_Token`` from a tuple in C, without its Python-level ``__new__``
_token = tuple.__new__


def _tokens(text: str) -> list[str]:
    """The tokens of ``text`` as strings, ending in ``eof``, which is ``""``.
    A bad character raises the error `_lex` reports for it."""
    toks = list(filter(None, _TOKEN.findall(text)))
    toks.append("")
    if not _PLAIN("".join(toks)):
        # `_lex` raises at a bad character; non-ASCII word characters it
        # reads as the scan above did
        _lex(text)
    return toks


def _lex(text: str) -> list[_Token]:
    """The tokens of `_tokens`, with their kinds and 1-based line and column
    numbers; a column counts characters.  Only ``\n`` ends a line.  A
    comment runs to the end of its line, and ``eof`` after a comment on the
    last line takes the column of its ``#``.  A parse needs positions only
    to report an error, so only an error runs this."""
    toks: list[_Token] = []
    append = toks.append
    # a column is a character's offset less that of the last line break
    line, base = 1, -1
    for m in _TOKEN.finditer(text):
        value = m.group(1)
        if value is None:
            # a comment makes no token
            if m.group() == "\n":
                line += 1
                base = m.start()
        elif value in _PUNCTUATION:
            append(_token(_Token, (value, value, line, m.start() - base)))
        elif value[0] == "_" or value[0].isalnum():
            append(_token(_Token, ("ident", value, line, m.start() - base)))
        else:
            raise ProtocolSyntaxError(f"unexpected character {value!r}", line, m.start() - base)
    # no token holds a '#', so the last line's first one starts its comment
    end = text.find("#", base + 1)
    append(_token(_Token, ("eof", "", line, (len(text) if end < 0 else end) - base)))
    return toks


class _Parser:
    """One protocol's parse, over the token strings of `_tokens`.
    Declarations read them at ``pos``; terms read them by index.  Each
    error looks its token's line and column up in `_lex`, which lexes the
    text again, so a parse that succeeds never works out a position.

    A term is parsed into ``ids``, which gives each distinct term of the
    roles an id, its position in the dict: an atom is keyed by its name
    (case tells a variable from a constant, and ``zero`` is neither), a
    compound term by its constructor's name and its children's ids, which
    come before it.  The sorts of constants are gathered as the terms are
    parsed and settled after the whole file is, so a syntax error anywhere
    is reported before a sort conflict; then each key is built once, in
    id order, canonical as it is built."""

    def __init__(self, text: str):
        self.text = text
        self.toks = _tokens(text)
        self.pos = 0
        self.var_sorts: dict[str, Sort] = {}
        self.ids: dict[str | tuple, int] = {}
        # each annotated constant's first annotation, the first annotation
        # that differs from it (the constant's token index and both sorts),
        # and each constant's first pk/sh-argument occurrence, all in source
        # order
        self.annotated: dict[str, Sort] = {}
        self.conflict: tuple[int, Sort, Sort] | None = None
        self.agent_at: dict[str, int] = {}

    # -- errors: only they need a token's position ----------------------------

    def where(self, i: int) -> str:
        t = _lex(self.text)[i]
        return f"{t.line}:{t.col}"

    def error(self, i: int, message: str, cls: type = ProtocolSyntaxError) -> ProtocolSyntaxError:
        t = _lex(self.text)[i]
        return cls(message, t.line, t.col)

    def expected(self, i: int, what: str) -> ProtocolSyntaxError:
        return self.error(i, f"expected {what}, found {self.toks[i] or 'end of file'!r}")

    # -- declarations ------------------------------------------------------

    def expect(self, value: str, what: str) -> None:
        """Pass the next token, which must be ``value``."""
        i = self.pos
        if self.toks[i] != value:
            raise self.expected(i, what)
        self.pos = i + 1

    def expect_ident(self, what: str) -> str:
        """Pass the next token, an identifier, and return it."""
        i = self.pos
        name = self.toks[i]
        if name in _NOT_IDENT:
            raise self.expected(i, what)
        self.pos = i + 1
        return name

    def sort_at(self, i: int) -> Sort:
        """The sort that token ``i`` names."""
        name = self.toks[i]
        sort = _SORTS.get(name)
        if sort is None:
            if name in _NOT_IDENT:
                raise self.expected(i, "a sort name")
            raise self.error(i, f"unknown sort {name!r} (expected one of {', '.join(sorted(_SORTS))})")
        return sort

    def parse_vars_decl(self):
        self.expect("vars", "'vars'")
        toks = self.toks
        pairs = 0
        # only a token after an identifier is looked ahead at, so the index
        # never passes ``eof``
        while toks[self.pos] not in _NOT_IDENT and toks[self.pos + 1] == ":":
            i = self.pos
            name = toks[i]
            if not name[0].isupper():
                raise self.error(i, f"variable names start upper-case: {name!r}")
            sort = self.sort_at(i + 2)
            self.pos = i + 3
            if name in self.var_sorts and self.var_sorts[name] is not sort:
                raise SortError(
                    f"{self.where(i)}: variable {name} redeclared with sort {sort.value}, was {self.var_sorts[name].value}"
                )
            self.var_sorts[name] = sort
            pairs += 1
        if pairs == 0:
            raise self.error(self.pos, "vars needs at least one NAME:Sort pair")

    def parse_name_list(self, decl: str) -> list[str]:
        self.expect(decl, repr(decl))
        toks = self.toks
        names = []
        # no punctuation mark, nor ``eof``, is upper-case
        while toks[self.pos][:1].isupper():
            name = toks[self.pos]
            if name not in self.var_sorts:
                raise self.error(self.pos, f"{decl} lists undeclared variable {name!r}", UndeclaredIdentifier)
            names.append(name)
            self.pos += 1
        if not names:
            raise self.error(self.pos, f"{decl} needs at least one variable name")
        return names

    # -- terms --------------------------------------------------------------

    def parse_term(self, i: int, agent: bool = False) -> tuple[int, int]:
        """The term whose first token is ``toks[i]``: its id in ``ids`` and
        the index of the token after it.  ``agent`` marks a pk/sh argument."""
        toks = self.toks
        name = toks[i]
        if name in _NOT_IDENT:
            raise self.expected(i, "a term")
        ids = self.ids
        # ``name`` is an identifier, so a token follows it
        follow = toks[i + 1]
        ctor = CONSTRUCTOR_NAMED.get(name)
        if ctor is not None:
            if follow != "(":
                raise self.expected(i + 1, "'('")
            in_agent = ctor.agent_args
            kid, j = self.parse_term(i + 2, in_agent)
            key = [name, kid]
            while toks[j] == ",":
                kid, j = self.parse_term(j + 1, in_agent)
                key.append(kid)
            if toks[j] != ")":
                raise self.expected(j, "')'")
            arity = len(key) - 1
            if ctor.arity is None and arity < 2:
                raise self.error(i, f"{name} needs at least two arguments")
            if ctor.arity not in (None, arity):
                raise self.error(i, f"{name} takes exactly {ctor.arity} argument(s), got {arity}")
            return ids.setdefault(tuple(key), len(ids)), j + 1
        if name == "zero":
            return ids.setdefault(name, len(ids)), i + 1
        if name[0].isupper():
            if follow == ":":
                raise self.error(i, f"variable sorts are declared in vars, not inline: {name!r}")
            if name not in self.var_sorts:
                raise self.error(i, f"undeclared variable {name!r}", UndeclaredIdentifier)
            return ids.setdefault(name, len(ids)), i + 1
        if agent:
            self.agent_at.setdefault(name, i)
        if follow == ":":
            sort = self.sort_at(i + 2)
            first = self.annotated.setdefault(name, sort)
            if first is not sort and self.conflict is None:
                self.conflict = (i, first, sort)
            return ids.setdefault(name, len(ids)), i + 3
        return ids.setdefault(name, len(ids)), i + 1

    # -- protocol ----------------------------------------------------------

    def parse_protocol(self) -> Protocol:
        toks = self.toks
        self.expect("protocol", "'protocol'")
        name = self.expect_ident("a protocol name")
        fresh: list[str] = []
        secret: list[str] = []
        while True:
            word = toks[self.pos]
            if word == "vars":
                self.parse_vars_decl()
            elif word == "fresh":
                fresh += self.parse_name_list("fresh")
            elif word == "secret":
                secret += self.parse_name_list("secret")
            else:
                break

        # per step: its sign, its term's id and first token index, and the
        # first id its parse gave out
        roles: list[tuple[str, list[tuple[str, int, int, int]]]] = []
        seen_roles = set()
        while toks[self.pos] == "role":
            self.pos += 1
            role = self.expect_ident("a role name")
            if role in seen_roles:
                raise self.error(self.pos - 1, f"role {role!r} defined twice", DuplicateRole)
            seen_roles.add(role)
            self.expect(":", "':'")
            steps: list[tuple[str, int, int, int]] = []
            while toks[self.pos] in ("send", "recv"):
                sign = "+" if toks[self.pos] == "send" else "-"
                i = self.pos + 1
                first_id = len(self.ids)
                root, self.pos = self.parse_term(i)
                steps.append((sign, root, i, first_id))
            if not steps:
                raise self.error(self.pos, "role needs at least one send/recv step")
            roles.append((role, steps))
        if not roles:
            raise self.error(self.pos, "protocol needs at least one role")
        if toks[self.pos]:
            raise self.error(self.pos, f"unexpected {toks[self.pos]!r} after last role")

        built = self._build(self._const_sorts(), [step for _, steps in roles for step in steps])
        built_roles = [
            (rn, Strand(tuple(Node(sign, built[root]) for sign, root, _, _ in steps))) for rn, steps in roles
        ]
        # the variables that the roles use are built already; one that no
        # role uses is built for the error `Protocol` raises
        ids = self.ids
        fresh_vars = [built[ids[n]] if n in ids else Var(n, self.var_sorts[n]) for n in fresh]
        secret_vars = [built[ids[n]] if n in ids else Var(n, self.var_sorts[n]) for n in secret]
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
            i, first, sort = self.conflict
            raise SortError(f"{self.where(i)}: constant {self.toks[i]!r} annotated both {first.value} and {sort.value}")
        for name, i in self.agent_at.items():
            ann = self.annotated.get(name)
            if ann is not None and ann is not Sort.AGENT:
                raise SortError(
                    f"{self.where(i)}: constant {name!r} is used as a pk/sh argument but annotated {ann.value}"
                )
        return {**self.annotated, **dict.fromkeys(self.agent_at, Sort.AGENT)}

    def _build(self, const_sorts: dict[str, Sort], steps: list[tuple[str, int, int, int]]) -> list[Term]:
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
                    append(_canonical_node(CONSTRUCTOR_NAMED[key[0]], tuple(map(built.__getitem__, key[1:]))))
                elif key == "zero":
                    append(ZERO)
                elif key[0].isupper():
                    append(Var(key, var_sorts[key]))
                else:
                    append(Const(key, const_sorts.get(key, Sort.DATA)))
        except SortError as e:
            i = next(i for _, _, i, first_id in reversed(steps) if first_id <= len(built))
            raise SortError(f"{self.where(i)}: {e}") from None
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
