"""Command-line frontend.

Subcommands wire the protocol parser, the static checkers, the secrecy
solver, and the ground-derivation oracle into reproducible reports.  Exit
codes: 0 = secure / check passed, 1 = attack found / check violated,
2 = usage or input error (input nested too deeply included), 3 =
inconclusive (a search budget was exhausted, or the oracle's closure was
cut before it could confirm or refute a trace).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
from typing import Callable, NamedTuple, Sequence

from .dsl import parse_protocol_file, render_protocol
from .oracle import verify_solution
from .protocol import Protocol, check_assumptions, check_munut, tag_protocol
from .solver import (
    AnalysisConfig,
    Constraint,
    ConstraintSequence,
    SolverBudget,
    check_secrecy,
)
from .terms import Substitution, Term, Var, XorsleuthError, from_text, to_text

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3

# `verify_solution`'s outcome: confirmed, refuted, undecided
_ORACLE_TEXT = {True: "confirmed", False: "NOT confirmed", None: "undecided (closure cut by its bounds)"}
_ORACLE_EXIT = {True: EXIT_OK, False: EXIT_VIOLATED, None: EXIT_INCONCLUSIVE}


class _Inputs:
    """The protocol files of one call.  Each path is read once, as bytes:
    the parse decodes them and the report's digest is taken from them, so
    both see the same contents."""

    def __init__(self) -> None:
        self._data: dict[str, bytes] = {}

    def protocol(self, path: str) -> Protocol:
        data = self._data.get(path)
        if data is None:
            with open(path, "rb") as f:
                data = self._data[path] = f.read()
        return parse_protocol_file(path, data)

    def digests(self) -> dict[str, str]:
        """The sha256 of each file read, in the order first read, keyed by
        its base name, or by the path as given when another path with the
        same base name was read."""
        names = [os.path.basename(p) for p in self._data]
        return {
            (p if names.count(name) > 1 else name): hashlib.sha256(data).hexdigest()
            for name, (p, data) in zip(names, self._data.items())
        }


# what a command's handler returns after printing its text: the report's
# inputs, config, results and exit code, which `run_command` writes
_Report = tuple[dict[str, str], dict, object, int]


def _cmd_parse(args) -> _Report:
    inputs = _Inputs()
    results = []
    blocks = []
    for path in args.files:
        p = inputs.protocol(path)
        blocks.append(render_protocol(p))
        results.append(
            {
                "protocol": p.name,
                "roles": [name for name, _ in p.roles],
                "fresh": sorted(v.name for v in p.fresh_vars),
                "secret": sorted(v.name for v in p.secret_vars),
            }
        )
    print("\n".join(blocks), end="")
    return inputs.digests(), {}, results, EXIT_OK


def _cmd_check_assumptions(args) -> _Report:
    inputs = _Inputs()
    results = []
    worst = EXIT_OK
    for path in args.files:
        p = inputs.protocol(path)
        report = check_assumptions(p)
        results.append(report.to_json_dict())
        print(f"{p.name}: assumptions {'passed' if report.ok() else 'violated'}")
        for v in report.violations:
            print(f"  assumption {v.assumption}: {to_text(v.witness)} — {v.detail}")
        if not report.ok():
            worst = EXIT_VIOLATED
    return inputs.digests(), {}, results, worst


def _cmd_check_munut(args) -> _Report:
    inputs = _Inputs()
    p1 = inputs.protocol(args.file1)
    p2 = inputs.protocol(args.file2)
    report = check_munut(p1, p2)
    code = EXIT_OK if report.ok() else EXIT_VIOLATED
    print(f"{p1.name} / {p2.name}: munut {'satisfied' if report.ok() else 'violated'}")
    for v in report.violations:
        uni = ", ".join(f"{to_text(w)} := {to_text(t)}" for w, t in v.unifier.items())
        print(f"  condition {v.condition}: {to_text(v.left)} ~ {to_text(v.right)}  [{uni}]")
    return inputs.digests(), {}, report.to_json_dict(), code


def _cmd_tag(args) -> _Report:
    inputs = _Inputs()
    p = inputs.protocol(args.file)
    tagged = tag_protocol(p, args.label)
    text = render_protocol(tagged)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        print(text, end="")
    results = {"protocol": tagged.name, "output": args.output or "-"}
    return inputs.digests(), {"label": args.label}, results, EXIT_OK


def _cmd_analyze(args) -> _Report:
    inputs = _Inputs()
    protocols = [inputs.protocol(p) for p in (args.file, *args.combined)]
    budget = SolverBudget(max_depth=args.branch_budget, max_nodes=args.node_budget)
    result = check_secrecy(protocols, AnalysisConfig(sessions=args.sessions, secrets=tuple(args.secret), budget=budget))
    results = result.to_json_dict()

    if result.verdict == "attack":
        code = EXIT_VIOLATED
        print(f"attack: {results['attack']['secret']} derivable "
              f"({'+'.join(results['attack']['protocols'])}, {args.sessions} session(s) per role)")
        print(f"  interleaving: {' '.join(results['attack']['interleaving'])}")
        for step in results["attack"]["rules"]:
            uni = ""
            if "unifier" in step and step["unifier"]:
                uni = "  " + ", ".join(f"{v} := {t}" for v, t in step["unifier"].items())
            print(f"  {step['rule']} @ {step['site']}{uni}")
        if results["attack"]["substitution"]:
            print("  substitution:")
            for v, t in results["attack"]["substitution"].items():
                print(f"    {v} := {t}")
    elif result.verdict == "secure":
        code = EXIT_OK
        print(f"secure up to {result.bound} session(s) per role "
              f"(secrets: {', '.join(result.secrets_checked)})")
    else:
        code = EXIT_INCONCLUSIVE
        print("inconclusive: search budget exhausted before a verdict")
        for secret, budgets in result.exhausted:
            print(f"  {secret}: out of {' and '.join(budgets)} budget")

    if args.oracle_verify and result.attack is not None:
        cs = ConstraintSequence(result.attack.constraints, result.attack.substitution)
        confirmed = verify_solution(cs, result.attack.substitution)
        results["oracle_verified"] = confirmed
        print(f"  oracle: {_ORACLE_TEXT[confirmed]}")

    config = {
        "sessions": args.sessions,
        "secrets": list(args.secret),
        "branch_budget": args.branch_budget,
        "node_budget": args.node_budget,
        "oracle_verify": bool(args.oracle_verify),
    }
    return inputs.digests(), config, results, code


def _trace_term(value, where: str, parsed: dict[str, Term]) -> Term:
    """The term a trace writes as ``value``; ``parsed`` holds the terms
    already read from the same trace, by text."""
    if not isinstance(value, str):
        raise XorsleuthError(f"{where} must be a term in text form, not {type(value).__name__}")
    term = parsed.get(value)
    if term is None:
        term = parsed[value] = from_text(value)
    return term


def _load_trace(path: str) -> ConstraintSequence:
    """The constraints and substitution of a saved attack trace: a report of
    ``analyze --json``, its ``results`` or its ``attack`` object.  A trace of
    any other shape is an input error.  Each distinct term text is parsed
    once, since a trace repeats its term sets from constraint to constraint."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    for key in ("results", "attack"):
        if isinstance(doc, dict) and isinstance(doc.get(key), dict):
            doc = doc[key]
    if not isinstance(doc, dict) or "constraints" not in doc:
        raise XorsleuthError(f"{path}: no attack trace found in file")
    if not (isinstance(doc["constraints"], list) and doc["constraints"]):
        raise XorsleuthError(f"{path}: constraints must be a non-empty list")
    parsed: dict[str, Term] = {}
    constraints = []
    for i, c in enumerate(doc["constraints"]):
        if not (isinstance(c, dict) and isinstance(c.get("term_set"), list)):
            raise XorsleuthError(f"{path}: constraint {i} must be an object with a term_set list")
        target = _trace_term(c.get("target"), f"{path}: target of constraint {i}", parsed)
        where = f"{path}: term set of constraint {i}"
        term_set = tuple(_trace_term(t, where, parsed) for t in c["term_set"])
        constraints.append(Constraint(target, term_set))
    bindings = doc.get("substitution", {})
    if not isinstance(bindings, dict):
        raise XorsleuthError(f"{path}: substitution must be an object")
    subst = {}
    for v, t in bindings.items():
        var = _trace_term(v, f"{path}: substitution key", parsed)
        if not isinstance(var, Var):
            raise XorsleuthError(f"{path}: substitution binds {v}, which is not a variable")
        subst[var] = _trace_term(t, f"{path}: binding of {v}", parsed)
    return ConstraintSequence(tuple(constraints), Substitution(subst))


def _trace_digest(cs: ConstraintSequence) -> str:
    """The sha256 of a trace as `_load_trace` read it: its constraints and
    substitution in text form, so timings and layout in the file do not
    change it."""
    doc = {
        "constraints": [c.to_json_dict() for c in cs.constraints],
        "substitution": cs.subst.to_json_dict(),
    }
    return hashlib.sha256(json.dumps(doc, separators=(",", ":")).encode()).hexdigest()


def _cmd_oracle_verify(args) -> _Report:
    cs = _load_trace(args.trace)
    confirmed = verify_solution(cs, cs.subst)
    code = _ORACLE_EXIT[confirmed]
    print(f"trace {_ORACLE_TEXT[confirmed]}")
    return {os.path.basename(args.trace): _trace_digest(cs)}, {}, {"confirmed": confirmed}, code


class _Command(NamedTuple):
    """One subcommand: the help line ``xorsleuth --help`` lists, the
    handler, which prints the command's text and returns its report, and
    its arguments as ``add_argument`` calls (see `_arg`)."""

    help: str
    run: Callable[[argparse.Namespace], _Report]
    arguments: tuple[tuple[tuple[str, ...], dict], ...]


def _arg(*flags: str, **options) -> tuple[tuple[str, ...], dict]:
    return flags, options


_JSON = _arg("--json", metavar="PATH")

_COMMANDS = {
    "parse": _Command(
        "parse protocol files and print their canonical form",
        _cmd_parse,
        (_arg("files", nargs="+"), _JSON),
    ),
    "check-assumptions": _Command(
        "check the long-term-key transmission and key-derivability assumptions",
        _cmd_check_assumptions,
        (_arg("files", nargs="+"), _JSON),
    ),
    "check-munut": _Command(
        "check non-unifiability tagging between two protocols",
        _cmd_check_munut,
        (_arg("file1"), _arg("file2"), _JSON),
    ),
    "tag": _Command(
        "rewrite a protocol with a tagging label",
        _cmd_tag,
        (_arg("file"), _arg("--label", required=True), _arg("-o", "--output", metavar="PATH"), _JSON),
    ),
    "analyze": _Command(
        "bounded-session secrecy analysis",
        _cmd_analyze,
        (
            _arg("file"),
            _arg("--combined", metavar="FILE", action="append", default=[]),
            _arg("--sessions", type=int, default=1),
            _arg("--secret", metavar="NAME", action="append", default=[]),
            _arg("--branch-budget", type=int, default=64, help="max rule applications per branch"),
            _arg(
                "--node-budget",
                type=int,
                default=200_000,
                help="max search nodes of the whole analysis: every secret at every prefix",
            ),
            _JSON,
            _arg("--oracle-verify", action="store_true", help="re-check any attack with the ground oracle"),
        ),
    ),
    "oracle-verify": _Command(
        "re-check a saved attack trace with the ground oracle",
        _cmd_oracle_verify,
        (_arg("trace", metavar="TRACE.json"), _JSON),
    ),
}


def _top_parser() -> argparse.ArgumentParser:
    """The parser that picks the command and keeps every argument after it,
    options too, for that command's parser.  Its usage, and its errors for
    a missing or unknown command, read as those of one parser with a
    subparser per command."""
    ap = argparse.ArgumentParser(
        prog="xorsleuth",
        description="Symbolic secrecy analysis of protocols using XOR",
        epilog="commands:\n"
        + "".join(f"  {name:<20}{command.help}\n" for name, command in _COMMANDS.items())
        + "\nxorsleuth COMMAND --help lists the options of COMMAND",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    ap.add_argument("command", nargs=argparse.PARSER, choices=_COMMANDS, help="the command to run, as listed below")
    return ap


def _command_parser(name: str) -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog=f"xorsleuth {name}")
    for flags, options in _COMMANDS[name].arguments:
        # argparse hands a list default to the namespace as it is: give each
        # call its own
        ap.add_argument(*flags, **{k: v[:] if isinstance(v, list) else v for k, v in options.items()})
    return ap


class _Spec(NamedTuple):
    """One argument of a command's table as `_read_table` reads it: the
    attributes of the argparse action that the same ``add_argument`` call
    makes.  ``action`` is "store", "append" or "store_true"."""

    dest: str
    option_strings: tuple[str, ...]
    action: str
    nargs: str | int | None
    const: object
    default: object
    type: Callable[[str], object] | None
    required: bool


# the ``add_argument`` keywords `_spec` models; metavar and help only name
# and describe an argument, so they change no reading
_SPEC_KEYS = frozenset({"action", "nargs", "default", "type", "required", "metavar", "help"})


def _spec(flags: tuple[str, ...], options: dict) -> _Spec | None:
    """The reading of one ``add_argument`` call, or None for a kind of
    argument that `_read_table` does not read: any other keyword (choices,
    const, dest, ...), another action, nargs or type, a typed positional,
    or a string default, which argparse may convert or suppress."""
    action = options.get("action", "store")
    nargs = options.get("nargs")
    kind = options.get("type")
    if not _SPEC_KEYS.issuperset(options) or kind not in (None, int) or isinstance(options.get("default"), str):
        return None
    if len(flags) == 1 and not flags[0].startswith("-"):
        if action != "store" or nargs not in (None, "+") or kind or "required" in options:
            return None
        return _Spec(flags[0], (), action, nargs, None, options.get("default"), None, True)
    if action not in ("store", "append", "store_true") or nargs is not None or (action == "store_true" and kind):
        return None
    long = [f for f in flags if f.startswith("--")]
    dest = (long or flags)[0].lstrip("-").replace("-", "_")
    required = options.get("required", False)
    if action == "store_true":
        return _Spec(dest, flags, action, 0, True, options.get("default", False), None, required)
    return _Spec(dest, flags, action, None, None, options.get("default"), kind, required)


def _read_table(name: str, rest: list[str]) -> argparse.Namespace | None:
    """``rest`` read straight from the table of command ``name``, with no
    parser, or None to hand it to the command's parser.

    It reads an argv only when each argument is an exact option string of
    the command, the value after a valued option, or a positional, where
    no value or positional starts with "-", every int value is one that
    ``int`` accepts, every required option is given and there are as many
    positionals as the command takes (one or more for a last "+" one).
    Everything else goes back: "-h"/"--help", "--", "--opt=value",
    abbreviations, "-oPATH", negative numbers, a missing value, a bad int,
    a missing required argument, too many positionals, and any command
    with an argument that `_spec` does not model.

    argparse reads every argv taken here into the same namespace.  It
    classes an argument as an option only when it starts with "-", and
    looks an option string up exactly before it tries "=", abbreviations
    or negative numbers; so each exact option string here is that option,
    and each argument that does not start with "-" ("" too) is a value or
    a positional.  An option with nargs None takes exactly the next
    argument, which here is a non-option, converts it with its type and
    stores or appends it; store_true takes none.  The arguments left over
    are the positionals in argv order.  Between two options, argparse
    gives them to the next unfilled positionals one each; when a last "+"
    positional is followed by an option and more files, the plain parse
    leaves those files over and the intermixed retry of
    `_files_after_separator` reads every positional in argv order, the
    last "+" one taking the rest, as here.  No error is raised on either
    side: every required argument is given and nothing is left over.
    Each dest starts at its default and the namespace at ``command``, as
    on the parser's route, and a list default is a new list per call, as
    `_command_parser` makes it."""
    args = argparse.Namespace(command=name)
    options: dict[str, _Spec] = {}
    positionals: list[_Spec] = []
    required = set()
    for flags, given in _COMMANDS[name].arguments:
        spec = _spec(flags, given)
        if spec is None:
            return None
        setattr(args, spec.dest, spec.default[:] if isinstance(spec.default, list) else spec.default)
        if not flags[0].startswith("-"):
            positionals.append(spec)
            continue
        options.update(dict.fromkeys(flags, spec))
        if spec.required:
            required.add(spec.option_strings)
    values = []
    argv = iter(rest)
    for arg in argv:
        if not arg.startswith("-"):
            values.append(arg)
            continue
        spec = options.get(arg)
        if spec is None:
            return None
        required.discard(spec.option_strings)
        if spec.action == "store_true":
            setattr(args, spec.dest, spec.const)
            continue
        value = next(argv, "-")
        if value.startswith("-"):
            return None
        if spec.type is not None:
            try:
                value = spec.type(value)
            except ValueError:
                return None
        if spec.action == "append":
            getattr(args, spec.dest).append(value)
        else:
            setattr(args, spec.dest, value)
    # a last "+" positional takes every value after those of the others
    if positionals and positionals[-1].nargs == "+" and len(values) >= len(positionals):
        cut = len(positionals) - 1
        values[cut:] = [values[cut:]]
    if required or len(values) != len(positionals) or any(s.nargs for s in positionals[:-1]):
        return None
    for spec, value in zip(positionals, values):
        setattr(args, spec.dest, value)
    return args


def _files_after_separator(command: argparse.ArgumentParser, name: str, rest: list[str]) -> argparse.Namespace | None:
    """``rest`` read with files allowed after an option, and every argument
    after its first "--", if it has one, a file, even one that starts with
    "-"; None when something is left over.  Each argument after the "--"
    goes to intermixed parsing as a stand-in that no real argument equals
    (an argv string holds no NUL), so it is read as a file and then put
    back.  The options before the "--" are those the plain parse of
    ``rest`` already read without error, so the stand-ins take no option's
    value."""
    cut = rest.index("--") if "--" in rest else len(rest)
    files = {f"\0{i}": arg for i, arg in enumerate(rest[cut + 1 :])}
    args, left = command.parse_known_intermixed_args([*rest[:cut], *files], argparse.Namespace(command=name))
    if left:
        return None
    for key, value in vars(args).items():
        if isinstance(value, list):
            setattr(args, key, [files.get(v, v) for v in value])
        elif isinstance(value, str):
            setattr(args, key, files.get(value, value))
    return args


class _Stdout:
    """Standard output of the program (`main`): writes and flushes go to
    ``stream`` until one finds the reading end of a pipe closed
    (`BrokenPipeError`).  Then the stream's file descriptor is pointed at
    the null device, so the rest of the text, help included, and what is
    still buffered when the interpreter flushes at exit, go nowhere.  A
    reader that stops reading is no input error: the command still writes
    its ``--json`` report and ends with its own exit code."""

    def __init__(self, stream) -> None:
        self.stream = stream

    def write(self, text: str) -> int:
        try:
            return self.stream.write(text)
        except BrokenPipeError:
            self._close()
            return len(text)

    def flush(self) -> None:
        try:
            self.stream.flush()
        except BrokenPipeError:
            self._close()

    def _close(self) -> None:
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, self.stream.fileno())
        finally:
            os.close(devnull)


def run_command(argv: Sequence[str]) -> int:
    # a call reads its command's arguments from the table (`_read_table`)
    # and builds the command's parser only for help, an error or a spelling
    # the table reader hands back, and the top-level one only for help, a
    # missing or unknown command, or an error; what neither parser knows is
    # reported by the top-level parser, as a parser with a subparser per
    # command does.  When the first argument names a command, the top-level
    # parser would hand that command and everything after it on, with
    # nothing left over, so the command is read off directly
    if argv and argv[0] in _COMMANDS:
        extras: list[str] = []
        name, *rest = argv
    else:
        picked, extras = _top_parser().parse_known_args(argv)
        name, *rest = picked.command
    args, more = _read_table(name, rest), []
    if args is None:
        command = _command_parser(name)
        args, more = command.parse_known_args(rest, argparse.Namespace(command=name))
        if more:
            # a list of files ends at the first option, so files given after
            # one are left over; intermixed parsing reads them, but costs a
            # third more per call, so it runs only then.  The plain parse's
            # leftovers, and so its error, stand unless that parse reads every argument
            separated = _files_after_separator(command, name, rest)
            if separated is not None:
                args, more = separated, []
    if extras or more:
        _top_parser().error(f"unrecognized arguments: {' '.join([*extras, *more])}")
    # input errors only: a KeyError or ValueError from inside a layer is a
    # fault of the program, not of its input, and keeps its traceback.  The
    # report is written after the handler has printed its text, so a path
    # that cannot be written is an input error after that text
    try:
        inputs, config, results, code = _COMMANDS[name].run(args)
        if args.json:
            report = {"command": name, "inputs": inputs, "config": config, "results": results, "exit_code": code}
            with open(args.json, "w", encoding="utf-8") as f:
                f.write(json.dumps(report, indent=2) + "\n")
        return code
    except (XorsleuthError, OSError, UnicodeDecodeError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    stdout = _Stdout(sys.stdout)
    with contextlib.redirect_stdout(stdout):
        try:
            code = run_command(sys.argv[1:])
        finally:
            stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
