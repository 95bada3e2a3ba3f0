"""Command-line behavior: exit codes, reports, golden files, round-trips."""

import argparse
import contextlib
import functools
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from unittest import mock
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xorsleuth
from xorsleuth import cli
from xorsleuth.cli import run_command
from xorsleuth.dsl import parse_protocol, parse_protocol_file, render_protocol
from xorsleuth.protocol import tag_protocol

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "src" / "xorsleuth" / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"


def fx(name: str) -> str:
    return str(FIXTURES / name)


def strip_elapsed(doc):
    if isinstance(doc, dict):
        return {k: strip_elapsed(v) for k, v in doc.items() if k != "elapsed_ms"}
    if isinstance(doc, list):
        return [strip_elapsed(v) for v in doc]
    return doc


class TestParseCommand:
    def test_parse_ok(self, capsys):
        assert run_command(["parse", fx("nslx.proto")]) == 0
        out = capsys.readouterr().out
        assert out.startswith("protocol nslx")

    def test_parse_output_reparses_identically(self, capsys, tmp_path):
        assert run_command(["parse", fx("nslx.proto")]) == 0
        out = capsys.readouterr().out
        assert parse_protocol(out) == parse_protocol_file(fx("nslx.proto"))

    def test_missing_file_is_usage_error(self, capsys):
        assert run_command(["parse", "/nonexistent/x.proto"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_syntax_error_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.proto"
        bad.write_text("protocol p\nrole A:\n  send xor()\n")
        assert run_command(["parse", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err


class TestCheckAssumptions:
    def test_p1_violated(self):
        assert run_command(["check-assumptions", fx("p1.proto")]) == 1

    def test_nslx_passes(self):
        assert run_command(["check-assumptions", fx("nslx.proto")]) == 0

    def test_keyleak_violated(self):
        assert run_command(["check-assumptions", fx("keyleak.proto")]) == 1

    @pytest.mark.parametrize(
        "fixture,golden",
        [
            ("p1.proto", "assumptions_p1.json"),
            ("nslx.proto", "assumptions_nslx.json"),
            ("keyleak.proto", "assumptions_keyleak.json"),
        ],
    )
    def test_golden_report(self, tmp_path, fixture, golden):
        out = tmp_path / "report.json"
        run_command(["check-assumptions", fx(fixture), "--json", str(out)])
        assert json.loads(out.read_text()) == json.loads((GOLDEN / golden).read_text())


class TestCheckMunut:
    def test_untagged_self_pair_violated(self):
        assert run_command(["check-munut", fx("nslx.proto"), fx("nslx.proto")]) == 1

    def test_tagged_pair_satisfied(self):
        assert run_command(["check-munut", fx("nslx_nslx.proto"), fx("nslx_other.proto")]) == 0

    def test_untagged_report_has_unifier_witness(self, tmp_path):
        out = tmp_path / "report.json"
        run_command(["check-munut", fx("nslx.proto"), fx("nslx.proto"), "--json", str(out)])
        doc = json.loads(out.read_text())
        assert doc["results"]["status"] == "violated"
        assert any(w["unifier"] for w in doc["results"]["witnesses"])

    @pytest.mark.parametrize(
        "files,golden",
        [
            (("nslx.proto", "nslx.proto"), "munut_untagged.json"),
            (("nslx_nslx.proto", "nslx_other.proto"), "munut_tagged.json"),
            # its condition-2 witnesses hold the primed right-hand parts
            (("nslx.proto", "q1.proto"), "munut_nslx_q1.json"),
        ],
    )
    def test_golden_report(self, tmp_path, files, golden):
        out = tmp_path / "report.json"
        run_command(["check-munut", fx(files[0]), fx(files[1]), "--json", str(out)])
        assert json.loads(out.read_text()) == json.loads((GOLDEN / golden).read_text())


class TestReportInputs:
    """The ``inputs`` of a report: one sha256 per file analyzed."""

    @staticmethod
    def same_named(tmp_path):
        """Two different files, both named x.proto."""
        paths = []
        for d, fixture in (("a", "q1.proto"), ("b", "q2.proto")):
            (tmp_path / d).mkdir()
            path = tmp_path / d / "x.proto"
            path.write_text(Path(fx(fixture)).read_text())
            paths.append(str(path))
        return paths

    @pytest.mark.parametrize("command", ["analyze", "check-munut"])
    def test_same_named_files_keep_their_own_hashes(self, tmp_path, command):
        first, second = self.same_named(tmp_path)
        out = tmp_path / "report.json"
        argv = [first, "--combined", second] if command == "analyze" else [first, second]
        assert run_command([command, *argv, "--json", str(out)]) == 0
        inputs = json.loads(out.read_text())["inputs"]
        assert inputs == {p: hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in (first, second)}
        assert inputs[first] != inputs[second]

    def test_unique_base_names_stay_the_keys(self, tmp_path):
        first, second = self.same_named(tmp_path)
        inputs = cli._Inputs()
        for path in (first, fx("q3.proto"), second, fx("q3.proto")):
            inputs.protocol(path)
        assert list(inputs.digests()) == [first, "q3.proto", second]

    @pytest.mark.parametrize("command", ["analyze", "check-munut"])
    def test_each_file_is_read_once_per_call(self, tmp_path, monkeypatch, command):
        # one read serves the parse and the digest, also of a file given twice
        opened = []
        real_open = open

        def counting_open(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        out = tmp_path / "report.json"
        q1 = fx("q1.proto")
        argv = [q1, "--combined", q1] if command == "analyze" else [q1, q1]
        monkeypatch.setattr("builtins.open", counting_open)
        run_command([command, *argv, "--json", str(out)])
        monkeypatch.undo()
        assert opened.count(q1) == 1
        digest = hashlib.sha256(Path(q1).read_bytes()).hexdigest()
        assert json.loads(out.read_text())["inputs"] == {"q1.proto": digest}

    def test_a_crlf_file_is_digested_as_it_is_on_disk(self, tmp_path):
        path = tmp_path / "q1.proto"
        path.write_bytes(Path(fx("q1.proto")).read_bytes().replace(b"\n", b"\r\n"))
        out = tmp_path / "report.json"
        assert run_command(["parse", str(path), "--json", str(out)]) == 0
        assert json.loads(out.read_text())["inputs"] == {"q1.proto": hashlib.sha256(path.read_bytes()).hexdigest()}

    def test_report_is_written_as_the_indented_dump(self, tmp_path, monkeypatch):
        out = tmp_path / "report.json"
        report = ({"x.proto": "00"}, {"n": [1, 2.5, None]}, [{"é": True}, []], 1)
        monkeypatch.setitem(cli._COMMANDS, "parse", cli._COMMANDS["parse"]._replace(run=lambda args: report))
        assert run_command(["parse", "x.proto", "--json", str(out)]) == 1
        expected = io.StringIO()
        inputs, config, results, code = report
        envelope = {"command": "parse", "inputs": inputs, "config": config, "results": results, "exit_code": code}
        json.dump(envelope, expected, indent=2)
        assert out.read_bytes() == (expected.getvalue() + "\n").encode("utf-8")


REPORTED_ARGV = {
    "parse": ["parse", fx("nslx.proto")],
    "check-assumptions": ["check-assumptions", fx("p1.proto"), fx("nslx.proto")],
    "check-munut": ["check-munut", fx("nslx.proto"), fx("nslx.proto")],
    "tag": ["tag", fx("nslx.proto"), "--label", "t1"],
    "analyze": ["analyze", fx("p1.proto"), "--combined", fx("p2.proto"), "--secret", "NA", "--oracle-verify"],
    "oracle-verify": ["oracle-verify", str(GOLDEN / "analyze_p1_p2.json")],
}


class TestReportPath:
    """`run_command` writes each command's report, after its text, and
    only when asked to."""

    @pytest.mark.parametrize("name", cli._COMMANDS)
    def test_report_names_the_command_and_its_exit_code(self, tmp_path, monkeypatch, capsys, name):
        monkeypatch.chdir(tmp_path)
        code = run_command(REPORTED_ARGV[name])
        text = capsys.readouterr().out
        assert os.listdir(tmp_path) == []
        assert run_command([*REPORTED_ARGV[name], "--json", "r.json"]) == code
        assert capsys.readouterr().out == text
        report = json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))
        assert list(report) == ["command", "inputs", "config", "results", "exit_code"]
        assert (report["command"], report["exit_code"]) == (name, code)

    def test_unwritable_report_path_is_input_error_after_the_text(self, tmp_path, capsys):
        assert run_command(["parse", fx("nslx.proto"), "--json", str(tmp_path / "missing" / "r.json")]) == 2
        captured = capsys.readouterr()
        assert captured.out.startswith("protocol nslx")
        assert captured.err.startswith("error:")
        assert not (tmp_path / "missing").exists()


class TestTagCommand:
    def test_tag_to_stdout_matches_library(self, capsys):
        assert run_command(["tag", fx("nslx.proto"), "--label", "t1"]) == 0
        out = capsys.readouterr().out
        expected = render_protocol(tag_protocol(parse_protocol_file(fx("nslx.proto")), "t1"))
        assert out == expected

    def test_tag_to_file_parses(self, tmp_path):
        out = tmp_path / "tagged.proto"
        assert run_command(["tag", fx("p2.proto"), "--label", "t7", "-o", str(out)]) == 0
        p = parse_protocol_file(str(out))
        assert p.name == "p2_t7"

    def test_tag_collision_is_input_error(self, tmp_path, capsys):
        out = tmp_path / "tagged.proto"
        run_command(["tag", fx("p2.proto"), "--label", "t7", "-o", str(out)])
        assert run_command(["tag", str(out), "--label", "t7"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("label", ["a b", "X", "zero", "seq", "#v0"])
    def test_label_that_is_no_constant_name_is_input_error(self, tmp_path, capsys, label):
        # each would be written into a file that `parse` rejects
        out = tmp_path / "tagged.proto"
        assert run_command(["tag", fx("q2.proto"), "--label", label, "-o", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_readme_label_round_trips(self, tmp_path):
        out = tmp_path / "nslx_t9.proto"
        assert run_command(["tag", fx("nslx.proto"), "--label", "t9", "-o", str(out)]) == 0
        assert run_command(["parse", str(out)]) == 0
        assert parse_protocol_file(str(out)) == tag_protocol(parse_protocol_file(fx("nslx.proto")), "t9")


class TestAnalyzeCommand:
    def test_combined_attack_exits_1(self):
        code = run_command(
            ["analyze", fx("p1.proto"), "--combined", fx("p2.proto"), "--sessions", "1", "--secret", "NA"]
        )
        assert code == 1

    def test_isolated_secure_exits_0(self):
        assert run_command(["analyze", fx("p2.proto")]) == 0

    def test_attack_trace_contents(self, tmp_path, capsys):
        out = tmp_path / "attack.json"
        run_command(
            [
                "analyze", fx("p1.proto"), "--combined", fx("p2.proto"),
                "--sessions", "1", "--secret", "NA", "--json", str(out), "--oracle-verify",
            ]
        )
        doc = json.loads(out.read_text())
        attack = doc["results"]["attack"]
        # the long-term key is in the final knowledge and the nonce is the goal
        final = attack["constraints"][-1]
        assert "sh(const(a:Agent),const(s:Agent))" in final["term_set"]
        assert attack["secret"] == "const(na1:Nonce)"
        assert doc["results"]["oracle_verified"] is True
        assert doc["exit_code"] == 1

    def test_zero_sessions_usage_error(self):
        assert run_command(["analyze", fx("p2.proto"), "--sessions", "0"]) == 2

    @pytest.mark.parametrize("flag", ["--node-budget", "--branch-budget"])
    def test_negative_budget_usage_error(self, capsys, flag):
        assert run_command(["analyze", fx("p2.proto"), flag, "-1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_secret_usage_error(self):
        assert run_command(["analyze", fx("p2.proto"), "--secret", "NOPE"]) == 2

    def test_no_secrets_usage_error(self):
        assert run_command(["analyze", fx("p1.proto")]) == 2

    def test_minted_secret_skips_a_constant_the_protocol_writes(self, tmp_path, capsys):
        # A's secret N would be minted n1, the constant B sends in the clear
        lit = tmp_path / "lit.proto"
        lit.write_text(
            "protocol lit\nvars A:Agent B:Agent N:Nonce\nfresh N\nsecret N\n"
            "role A:\n  send senc(N, sh(A, B))\n"
            "role B:\n  recv senc(N, sh(A, B))\n  send n1:Nonce\n"
        )
        assert run_command(["analyze", str(lit)]) == 0
        assert capsys.readouterr().out.startswith("secure")

    def test_two_copies_of_one_protocol_get_distinct_strand_ids(self, tmp_path):
        out = tmp_path / "report.json"
        assert run_command(["analyze", fx("nslx.proto"), "--combined", fx("nslx.proto"), "--json", str(out)]) == 1
        interleaving = json.loads(out.read_text())["results"]["attack"]["interleaving"]
        # two sends, one from each copy's initiator, then the secret
        strands = [node.rsplit(".", 1)[0] for node in interleaving if node != "sec"]
        assert len(set(strands)) == len(strands) == 2

    def test_other_protocol_sending_a_secret_usage_error(self, tmp_path, capsys):
        # nslx's secret NA becomes na1; a protocol that sends na1 by name
        # would put it in the attacker's initial knowledge
        leak = tmp_path / "sendna.proto"
        leak.write_text("protocol sendna\nrole A:\n  send na1:Nonce\n")
        assert run_command(["analyze", fx("nslx.proto"), "--combined", str(leak)]) == 2
        assert capsys.readouterr().err == "error: secret constants in initial knowledge: const(na1:Nonce)\n"

    def test_tiny_budget_inconclusive_exits_3(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run_command(
            ["analyze", fx("nslx.proto"), "--secret", "NB", "--branch-budget", "1", "--node-budget", "3",
             "--json", str(out)]
        )
        assert code == 3
        # the report names the budgets that ran out and the secret being checked
        results = json.loads(out.read_text())["results"]
        assert results["exhausted"] == [{"secret": "const(nb1:Nonce)", "budgets": ["node", "branch"]}]
        assert "const(nb1:Nonce): out of node and branch budget" in capsys.readouterr().out

    def test_inconclusive_names_every_secret(self, tmp_path, capsys):
        # one search covers both secrets, so a budget cut leaves both undecided
        out = tmp_path / "report.json"
        assert run_command(["analyze", fx("nslx.proto"), "--node-budget", "2", "--json", str(out)]) == 3
        results = json.loads(out.read_text())["results"]
        assert results["exhausted"] == [
            {"secret": "const(na1:Nonce)", "budgets": ["node"]},
            {"secret": "const(nb1:Nonce)", "budgets": ["node"]},
        ]

    def test_node_budget_bounds_the_whole_analysis(self, tmp_path):
        # q1+q3 is secure in 12 nodes over both secrets, so 11 is too few
        # although neither secret alone needs that many (36 nodes before
        # the receives that no send follows were cut from the strands)
        out = tmp_path / "report.json"
        analyze = ["analyze", fx("q1.proto"), "--combined", fx("q3.proto"), "--json", str(out)]
        assert run_command([*analyze, "--node-budget", "12"]) == 0
        assert json.loads(out.read_text())["results"]["stats"]["nodes"] == 12
        assert run_command([*analyze, "--node-budget", "11"]) == 3

    @pytest.mark.parametrize("blocked", ["blk", "p2t"])
    def test_receive_nobody_meets_hides_no_attack(self, tmp_path, capsys, blocked):
        # the secret leaks once p1 and p2 have sent; a receive that nobody
        # can meet, in a third protocol (blk) or after p2's send (p2t), ends
        # no run before it, so the attack stands
        blocker = "  recv senc(X, sh(c, d))\n"
        if blocked == "blk":
            (tmp_path / "blk.proto").write_text("protocol blk\nvars X:Data\nrole A:\n" + blocker)
            files = [fx("p1.proto"), fx("p2.proto"), str(tmp_path / "blk.proto")]
        else:
            p2 = (FIXTURES / "p2.proto").read_text()
            p2t = p2.replace("protocol p2", "protocol p2t").replace("vars NA:Nonce", "vars NA:Nonce X:Data")
            (tmp_path / "p2t.proto").write_text(p2t + blocker)
            files = [fx("p1.proto"), str(tmp_path / "p2t.proto")]
        combined = [a for f in files[1:] for a in ("--combined", f)]
        out = tmp_path / "report.json"
        code = run_command(["analyze", files[0], *combined, "--secret", "NA", "--oracle-verify", "--json", str(out)])
        assert code == 1
        assert "oracle: confirmed" in capsys.readouterr().out
        results = json.loads(out.read_text())["results"]
        assert results["oracle_verified"] is True
        assert results["attack"]["interleaving"] == ["p1.A#1.1", f"{Path(files[1]).stem}.A#1.1", "sec"]

    def test_large_branch_budget_still_secure(self, tmp_path, capsys):
        # nested searches of ground constraints may nest as deep as the
        # branch budget allows; they run from a loop, so a large budget
        # cannot turn into "input nested too deeply".  wrap sends q1's key
        # sh(a, b) under sh(c, d), so sh(a, b) is not a safe key, and each
        # demand for it is decided by nested searches
        (tmp_path / "wrap.proto").write_text("protocol wrap\nrole A:\n  send senc(sh(a, b), sh(c, d))\n")
        code = run_command(
            ["analyze", fx("q1.proto"), "--combined", fx("q3.proto"), "--combined", str(tmp_path / "wrap.proto"),
             "--branch-budget", "5000"]
        )
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert captured.out.startswith("secure up to 1 session(s) per role")

    def test_exhausted_only_on_inconclusive_reports(self, tmp_path):
        out = tmp_path / "report.json"
        assert run_command(["analyze", fx("p2.proto"), "--json", str(out)]) == 0
        assert "exhausted" not in json.loads(out.read_text())["results"]

    def test_reports_byte_identical_modulo_elapsed(self, tmp_path):
        docs = []
        for i in range(2):
            out = tmp_path / f"r{i}.json"
            run_command(
                ["analyze", fx("p1.proto"), "--combined", fx("p2.proto"), "--secret", "NA", "--json", str(out)]
            )
            docs.append(json.dumps(strip_elapsed(json.loads(out.read_text())), sort_keys=False))
        assert docs[0] == docs[1]

    def test_nslx_two_sessions_attack_confirmed(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_command(
            ["analyze", fx("nslx.proto"), "--sessions", "2", "--oracle-verify", "--json", str(out)]
        )
        assert code == 1
        assert json.loads(out.read_text())["results"]["oracle_verified"] is True

    @pytest.mark.parametrize(
        "files,options,golden",
        [
            (("p1.proto", "p2.proto"), ("--secret", "NA"), "analyze_p1_p2.json"),
            (("nslx.proto",), (), "analyze_nslx.json"),
            (("nslx_nslx.proto",), (), "analyze_nslx_nslx.json"),
            (("nslx.proto", "p2.proto"), (), "analyze_nslx_p2.json"),
        ],
    )
    def test_golden_attack_report(self, tmp_path, files, options, golden):
        out = tmp_path / "report.json"
        combined = [a for f in files[1:] for a in ("--combined", fx(f))]
        run_command(["analyze", fx(files[0]), *combined, *options, "--json", str(out), "--oracle-verify"])
        assert strip_elapsed(json.loads(out.read_text())) == json.loads((GOLDEN / golden).read_text())


def readme_examples() -> dict[str, list[str]]:
    """The commands in README.md's "Command-line usage" section, each with
    the output lines shown under it."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Command-line usage\n", 1)[1].split("\n## ", 1)[0]
    examples: dict[str, list[str]] = {}
    command = None
    for line in section.splitlines():
        if line.startswith("$ xorsleuth "):
            command = line.removeprefix("$ xorsleuth ")
            examples[command] = []
        elif not line or line.startswith("```"):
            command = None
        elif command is not None:
            examples[command].append(line)
    return examples


class TestReadmeExamples:
    @pytest.mark.parametrize(
        "command",
        [
            "analyze src/xorsleuth/fixtures/p2.proto",
            "analyze src/xorsleuth/fixtures/p1.proto --combined src/xorsleuth/fixtures/p2.proto --secret NA",
            "check-assumptions src/xorsleuth/fixtures/p1.proto",
        ],
    )
    def test_output_verbatim(self, capsys, monkeypatch, command):
        expected = readme_examples()[command]
        monkeypatch.chdir(ROOT)
        run_command(command.split())
        assert capsys.readouterr().out.splitlines() == expected

    def test_check_munut_first_line(self, capsys, monkeypatch):
        command = "check-munut src/xorsleuth/fixtures/nslx.proto src/xorsleuth/fixtures/nslx.proto"
        expected = readme_examples()[command]
        monkeypatch.chdir(ROOT)
        run_command(command.split())
        assert capsys.readouterr().out.splitlines()[0] == expected[0]


def reference_parser() -> argparse.ArgumentParser:
    """One parser with a subparser per command, as the CLI built on every
    call before it built only the parser of the command it runs."""
    ap = argparse.ArgumentParser(
        prog="xorsleuth",
        description="Symbolic secrecy analysis of protocols using XOR",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p_parse = sub.add_parser("parse", help="parse protocol files and print their canonical form")
    p_parse.add_argument("files", nargs="+")
    p_parse.add_argument("--json", metavar="PATH")

    p_ass = sub.add_parser(
        "check-assumptions", help="check the long-term-key transmission and key-derivability assumptions"
    )
    p_ass.add_argument("files", nargs="+")
    p_ass.add_argument("--json", metavar="PATH")

    p_mu = sub.add_parser("check-munut", help="check non-unifiability tagging between two protocols")
    p_mu.add_argument("file1")
    p_mu.add_argument("file2")
    p_mu.add_argument("--json", metavar="PATH")

    p_tag = sub.add_parser("tag", help="rewrite a protocol with a tagging label")
    p_tag.add_argument("file")
    p_tag.add_argument("--label", required=True)
    p_tag.add_argument("-o", "--output", metavar="PATH")
    p_tag.add_argument("--json", metavar="PATH")

    p_an = sub.add_parser("analyze", help="bounded-session secrecy analysis")
    p_an.add_argument("file")
    p_an.add_argument("--combined", metavar="FILE", action="append", default=[])
    p_an.add_argument("--sessions", type=int, default=1)
    p_an.add_argument("--secret", metavar="NAME", action="append", default=[])
    p_an.add_argument("--branch-budget", type=int, default=64, help="max rule applications per branch")
    p_an.add_argument("--node-budget", type=int, default=200_000, help="max search nodes of the whole analysis: every secret at every prefix")
    p_an.add_argument("--json", metavar="PATH")
    p_an.add_argument("--oracle-verify", action="store_true", help="re-check any attack with the ground oracle")

    p_ov = sub.add_parser("oracle-verify", help="re-check a saved attack trace with the ground oracle")
    p_ov.add_argument("trace", metavar="TRACE.json")
    p_ov.add_argument("--json", metavar="PATH")

    return ap


COMMAND_HELP = {
    "parse": "parse protocol files and print their canonical form",
    "check-assumptions": "check the long-term-key transmission and key-derivability assumptions",
    "check-munut": "check non-unifiability tagging between two protocols",
    "tag": "rewrite a protocol with a tagging label",
    "analyze": "bounded-session secrecy analysis",
    "oracle-verify": "re-check a saved attack trace with the ground oracle",
}

VALID_ARGV = [
    *(command.split("#")[0].split() for command in readme_examples()),
    ["parse", "a.proto", "b.proto", "--json", "r.json"],
    ["parse", "--json", "r.json", "a.proto"],
    ["parse", "--", "-a.proto"],
    ["check-assumptions", "--json", "r.json", "a.proto", "b.proto"],
    ["check-munut", "a.proto", "b.proto", "--json", "r.json"],
    ["check-munut", "--json", "r.json", "a.proto", "b.proto"],
    ["tag", "a.proto", "--label", "t1"],
    ["tag", "-o", "out.proto", "a.proto", "--label", "t1", "--json", "r.json"],
    ["tag", "a.proto", "--label=t1", "--output", "out.proto"],
    ["tag", "--label", "t1", "-oout.proto", "a.proto"],
    ["analyze", "a.proto"],
    [
        "analyze", "a.proto", "--combined", "b.proto", "--combined", "c.proto", "--sessions", "2",
        "--secret", "NA", "--secret", "NB", "--branch-budget", "5", "--node-budget", "7",
        "--json", "r.json", "--oracle-verify",
    ],
    ["analyze", "--oracle-verify", "--sessions=3", "--combined", "b.proto", "--secret", "NA", "a.proto"],
    ["analyze", "--node-budget", "9", "a.proto", "--branch-budget", "-1", "--json", "r.json"],
    ["oracle-verify", "t.json"],
    ["oracle-verify", "--json", "r.json", "t.json"],
    # the shapes of the benchmark's calls
    [
        "analyze", "a.proto", "--combined", "b.proto", "--sessions", "2", "--secret", "NA", "--oracle-verify",
        "--json", "r.json",
    ],
    ["analyze", "a.proto", "--combined", "b.proto", "--json", "r.json"],
    ["analyze", "a.proto", "--sessions", "1", "--json", "r.json"],
    ["check-assumptions", "a.proto", "--json", "r.json"],
    ["oracle-verify", "t.json", "--json", "r.json"],
]

# the `VALID_ARGV` entries that `cli._read_table` hands to the command's
# parser: a "--", an "=" value, a glued short option or a negative number
HANDED_BACK = [
    ["parse", "--", "-a.proto"],
    ["tag", "a.proto", "--label=t1", "--output", "out.proto"],
    ["tag", "--label", "t1", "-oout.proto", "a.proto"],
    ["analyze", "--oracle-verify", "--sessions=3", "--combined", "b.proto", "--secret", "NA", "a.proto"],
    ["analyze", "--node-budget", "9", "a.proto", "--branch-budget", "-1", "--json", "r.json"],
]

INVALID_ARGV = [
    [],
    ["no-such-command"],
    ["--json", "r.json"],
    ["analyze"],
    ["analyze", "a.proto", "--sessions", "x"],
    ["analyze", "a.proto", "--bogus"],
    ["--bogus", "parse", "a.proto"],
    ["check-munut", "a.proto"],
    ["tag", "a.proto"],
    ["tag", "a.proto", "--label"],
    ["oracle-verify", "t.json", "u.json"],
]


# what a dispatch stub returns in place of a command's report
EMPTY_REPORT = ({}, {}, [], 0)


@contextlib.contextmanager
def in_scratch_dir():
    """Run in an empty temporary directory, where the report of an argv
    that names a --json path lands."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            yield
        finally:
            os.chdir(cwd)


class TestArgumentParsing:
    """The top-level parser and the command's own parser read every argv as
    the reference parser does: the same namespace, or the same usage error."""

    @staticmethod
    def dispatched(monkeypatch, argv) -> argparse.Namespace:
        """The namespace `run_command` hands to the command's handler."""
        seen = []
        for name, command in cli._COMMANDS.items():
            monkeypatch.setitem(cli._COMMANDS, name, command._replace(run=lambda args: seen.append(args) or EMPTY_REPORT))
        with in_scratch_dir():
            assert run_command(argv) == 0
        (args,) = seen
        return args

    @pytest.mark.parametrize("argv", VALID_ARGV, ids=" ".join)
    def test_same_namespace(self, monkeypatch, argv):
        expected = reference_parser().parse_args(argv)
        assert self.dispatched(monkeypatch, argv) == expected

    @pytest.mark.parametrize("command", ["parse", "check-assumptions"])
    def test_files_may_follow_an_option(self, monkeypatch, command):
        # the reference parser stops a list of files at the first option;
        # argparse's intermixed parsing, which reads on, does not support
        # subparsers, so this argv has no reference namespace to compare with
        args = self.dispatched(monkeypatch, [command, "a.proto", "--json", "r.json", "b.proto"])
        assert args.files == ["a.proto", "b.proto"] and args.json == "r.json"

    @pytest.mark.parametrize(
        "argv,files",
        [
            (["check-assumptions", "q1.proto", "--json", "r.json", "--", "q2.proto"], ["q1.proto", "q2.proto"]),
            (["parse", "a.proto", "--json", "r.json", "--", "-odd.proto"], ["a.proto", "-odd.proto"]),
            (
                ["parse", "a.proto", "--json", "r.json", "b.proto", "--", "-c.proto", "--"],
                ["a.proto", "b.proto", "-c.proto", "--"],
            ),
        ],
        ids=" ".join,
    )
    def test_files_may_follow_an_option_and_a_separator(self, monkeypatch, argv, files):
        # after a "--" every argument is a file, even one that starts with
        # "-"; the reference parser rejects these argvs too, so the
        # namespace is stated here
        expected = argparse.Namespace(command=argv[0], files=files, json="r.json")
        assert self.dispatched(monkeypatch, argv) == expected

    def test_list_defaults_are_not_shared(self, monkeypatch):
        # a handler that appends to its namespace leaves the next call's defaults as they were
        first = self.dispatched(monkeypatch, ["analyze", "a.proto"])
        first.combined.append("b.proto")
        first.secret.append("NA")
        expected = reference_parser().parse_args(["analyze", "a.proto"])
        assert self.dispatched(monkeypatch, ["analyze", "a.proto"]) == expected

    @pytest.mark.parametrize("argv", INVALID_ARGV, ids=lambda argv: " ".join(argv) or "no-arguments")
    def test_same_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as expected:
            reference_parser().parse_args(argv)
        expected_err = capsys.readouterr().err
        with pytest.raises(SystemExit) as raised:
            run_command(argv)
        err = capsys.readouterr().err
        assert raised.value.code == expected.value.code == 2
        assert err.startswith("usage: ")
        assert err == expected_err

    @pytest.mark.parametrize("name", COMMAND_HELP)
    def test_command_help_unchanged(self, capsys, name):
        with pytest.raises(SystemExit) as expected:
            reference_parser().parse_args([name, "--help"])
        expected_out = capsys.readouterr().out
        with pytest.raises(SystemExit) as raised:
            run_command([name, "--help"])
        assert raised.value.code == expected.value.code == 0
        assert capsys.readouterr().out == expected_out

    def test_analyze_help_lists_every_option(self, capsys):
        with pytest.raises(SystemExit) as raised:
            run_command(["analyze", "--help"])
        assert raised.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: xorsleuth analyze ")
        for option in (
            "--combined FILE", "--sessions SESSIONS", "--secret NAME", "--branch-budget BRANCH_BUDGET",
            "--node-budget NODE_BUDGET", "--json PATH", "--oracle-verify",
            "max rule applications per branch", "re-check any attack with the ground oracle",
        ):
            assert option in out

    def test_top_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as raised:
            run_command(["--help"])
        assert raised.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: xorsleuth ")
        listed = {tuple(line.split(None, 1)) for line in out.splitlines()}
        assert set(COMMAND_HELP.items()) <= listed


def through_top_parser(argv) -> argparse.Namespace:
    """`run_command`'s reading of ``argv`` when every call built the
    top-level parser and let it pick the command."""
    top = cli._top_parser()
    picked, extras = top.parse_known_args(argv)
    name, *rest = picked.command
    command = cli._command_parser(name)
    args, more = command.parse_known_args(rest, argparse.Namespace(command=name))
    if more:
        separated = cli._files_after_separator(command, name, rest)
        if separated is not None:
            args, more = separated, []
    if extras or more:
        top.error(f"unrecognized arguments: {' '.join([*extras, *more])}")
    return args


def outcome(read, argv):
    """What ``read`` makes of ``argv``: the namespace the handler gets or
    the exit code, and what was printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = read(argv)
        except SystemExit as e:
            result = e.code
    return result, out.getvalue(), err.getvalue()


def dispatched_by_run_command(argv):
    seen = []
    def record(args):
        seen.append(args)
        return EMPTY_REPORT

    with mock.patch.dict(cli._COMMANDS, {name: c._replace(run=record) for name, c in cli._COMMANDS.items()}):
        with in_scratch_dir():
            run_command(argv)
    (args,) = seen
    return args


_ARGV_PIECES = st.sampled_from(
    [
        *COMMAND_HELP, "a.proto", "b.proto", "-x.proto", "-", "--", "-h", "--help", "--json", "r.json",
        "--json=r.json", "--label", "t1", "-o", "-oout.proto", "--sessions", "2", "--sessions=x",
        "--combined", "--secret", "NA", "--oracle-verify", "--node-budget", "--bogus", "--js", "-x",
        # the spellings at the edge of what `cli._read_table` reads
        "", "-1", "-5", "3", "--sessions=2", "--combined=b.proto", "--secret=NB", "--label=t2", "--sess",
        "--oracle", "-r.json", "a b.proto", " -y", "--output", "o.proto",
    ]
)


# values that `cli._read_table` takes, values it hands back ("-1", "-"), and
# ints that `int` reads in more than one spelling
_VALUES = st.sampled_from(["a.proto", "b.proto", "", "3", "0", "+4", "1_0", " 7 ", "a b.proto", " -y", "x", "-1", "-"])


@st.composite
def table_argvs(draw) -> list[str]:
    """An argv of a command built from its table: each option none to two
    times with a value, about as many positionals as the command takes,
    all in any order."""
    name = draw(st.sampled_from(list(COMMAND_HELP)))
    parts = []
    for flags, options in cli._COMMANDS[name].arguments:
        if not flags[0].startswith("-"):
            count = draw(st.integers(1, 3) if options.get("nargs") == "+" else st.sampled_from([1, 1, 1, 0, 2]))
            parts += [[draw(_VALUES)] for _ in range(count)]
            continue
        for _ in range(draw(st.integers(0, 2))):
            flag = draw(st.sampled_from(flags))
            parts.append([flag] if options.get("action") == "store_true" else [flag, draw(_VALUES)])
    return [name, *(arg for part in draw(st.permutations(parts)) for arg in part)]


class TestCommandFirst:
    """An argv that starts with a command is read without the top-level
    parser, which would hand that command and everything after it on."""

    @given(st.sampled_from(list(COMMAND_HELP)), st.lists(_ARGV_PIECES, max_size=8))
    @settings(max_examples=400, deadline=None)
    def test_top_parser_hands_everything_on(self, name, rest):
        argv = [name, *rest]
        picked, extras = cli._top_parser().parse_known_args(argv)
        assert picked.command == argv and extras == []

    @given(st.sampled_from(list(COMMAND_HELP)), st.lists(_ARGV_PIECES, max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_same_namespace_exit_code_and_output(self, name, rest):
        argv = [name, *rest]
        assert outcome(dispatched_by_run_command, argv) == outcome(through_top_parser, argv)

    @given(table_argvs())
    @settings(max_examples=300, deadline=None)
    def test_same_on_argvs_built_from_the_table(self, argv):
        assert outcome(dispatched_by_run_command, argv) == outcome(through_top_parser, argv)

    @pytest.mark.parametrize(
        "argv", [*VALID_ARGV, *(argv for argv in INVALID_ARGV if argv and argv[0] in COMMAND_HELP)], ids=" ".join
    )
    def test_same_on_the_fixed_argvs(self, argv):
        assert outcome(dispatched_by_run_command, argv) == outcome(through_top_parser, argv)

    def test_top_parser_is_built_only_when_needed(self):
        with mock.patch.object(cli, "_top_parser", wraps=cli._top_parser) as top:
            dispatched_by_run_command(["analyze", "a.proto", "--sessions", "2"])
            assert top.call_count == 0
            for argv in (["--help"], ["no-such-command"], ["analyze", "a.proto", "--bogus"]):
                outcome(dispatched_by_run_command, argv)
            assert top.call_count == 3

    def test_command_parser_is_built_only_when_needed(self):
        # an argv the table reader takes builds no parser at all; help, an
        # error or a spelling it hands back builds the command's parser once
        with mock.patch.object(cli, "_command_parser", wraps=cli._command_parser) as command:
            for argv in VALID_ARGV:
                if argv not in HANDED_BACK:
                    dispatched_by_run_command(argv)
            assert command.call_count == 0
        for argv in [
            *HANDED_BACK, ["analyze", "--help"], ["analyze", "a.proto", "--sessions=2"],
            ["analyze", "a.proto", "--sessions", "x"],
        ]:
            with mock.patch.object(cli, "_command_parser", wraps=cli._command_parser) as command:
                outcome(dispatched_by_run_command, argv)
            assert command.call_count == 1, argv


class TestTableReader:
    """`cli._read_table` reads a command's arguments from its table as the
    command's parser would build them."""

    @staticmethod
    def spec_of(action: argparse.Action) -> cli._Spec:
        kinds = {
            argparse._StoreAction: "store", argparse._AppendAction: "append", argparse._StoreTrueAction: "store_true"
        }
        kind = kinds.get(type(action), type(action).__name__)
        return cli._Spec(
            action.dest, tuple(action.option_strings), kind, action.nargs, action.const, action.default, action.type,
            action.required,
        )

    @pytest.mark.parametrize("name", COMMAND_HELP)
    def test_model_equals_the_parsers_actions(self, name):
        actions = [a for a in cli._command_parser(name)._actions if not isinstance(a, argparse._HelpAction)]
        model = [cli._spec(flags, options) for flags, options in cli._COMMANDS[name].arguments]
        assert model == [self.spec_of(a) for a in actions]
        assert all(a.choices is None for a in actions)

    @pytest.mark.parametrize(
        "flags,options",
        [
            (("--mode",), {"choices": ["a", "b"]}),
            (("file",), {"nargs": "?"}),
            (("files",), {"nargs": "*"}),
            (("--pair",), {"nargs": 2}),
            (("--flag",), {"action": "store_const", "const": 1}),
            (("--level",), {"const": 3, "nargs": "?"}),
            (("--count",), {"action": "count"}),
            (("--ratio",), {"type": float}),
            (("--sessions",), {"type": int, "default": "1"}),
            (("--into",), {"dest": "target"}),
            (("n",), {"type": int}),
        ],
        ids=repr,
    )
    def test_unmodeled_kinds_are_not_read(self, monkeypatch, flags, options):
        assert cli._spec(flags, options) is None
        command = cli._COMMANDS["analyze"]
        widened = command._replace(arguments=(*command.arguments, (flags, options)))
        monkeypatch.setitem(cli._COMMANDS, "analyze", widened)
        assert cli._read_table("analyze", ["a.proto"]) is None


class TestOracleVerifyCommand:
    def test_round_trip_confirms(self, tmp_path):
        out = tmp_path / "attack.json"
        run_command(
            ["analyze", fx("p1.proto"), "--combined", fx("p2.proto"), "--secret", "NA", "--json", str(out)]
        )
        assert run_command(["oracle-verify", str(out)]) == 0

    def test_reports_byte_identical_modulo_elapsed(self, tmp_path):
        # the two traces differ in their elapsed_ms, which the report's hash
        # of its input leaves out
        docs = []
        for i in range(2):
            (tmp_path / str(i)).mkdir()
            trace = tmp_path / str(i) / "attack.json"
            run_command(
                ["analyze", fx("p1.proto"), "--combined", fx("p2.proto"), "--secret", "NA", "--json", str(trace)]
            )
            out = tmp_path / f"verify{i}.json"
            assert run_command(["oracle-verify", str(trace), "--json", str(out)]) == 0
            docs.append(json.dumps(strip_elapsed(json.loads(out.read_text()))))
        assert docs[0] == docs[1]

    def test_permuted_term_sets_with_repeats_verify_alike(self, tmp_path):
        # a term set is a set: member order and repeats in the file change
        # neither the verdict nor the hash of the input
        trace = tmp_path / "attack.json"
        run_command(
            ["analyze", fx("p1.proto"), "--combined", fx("p2.proto"), "--secret", "NA", "--json", str(trace)]
        )
        doc = json.loads(trace.read_text())
        for c in doc["results"]["attack"]["constraints"]:
            c["term_set"] = c["term_set"][::-1] + c["term_set"][:1]
        (tmp_path / "permuted").mkdir()
        permuted = tmp_path / "permuted" / "attack.json"
        permuted.write_text(json.dumps(doc))
        reports = []
        for path, out in ((trace, tmp_path / "verify.json"), (permuted, tmp_path / "verify_permuted.json")):
            assert run_command(["oracle-verify", str(path), "--json", str(out)]) == 0
            reports.append(strip_elapsed(json.loads(out.read_text())))
        assert reports[0] == reports[1]

    def test_tampered_trace_rejected(self, tmp_path):
        out = tmp_path / "attack.json"
        run_command(
            ["analyze", fx("p1.proto"), "--combined", fx("p2.proto"), "--secret", "NA", "--json", str(out)]
        )
        doc = json.loads(out.read_text())
        # claim a different, underivable secret
        doc["results"]["attack"]["constraints"][-1]["target"] = "const(never:Nonce)"
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(doc))
        assert run_command(["oracle-verify", str(tampered)]) == 1

    @pytest.mark.parametrize("bound", [{"rounds": 1}, {"size_cap": 1}], ids=["rounds", "size_cap"])
    def test_undecided_oracle_is_inconclusive(self, tmp_path, capsys, monkeypatch, bound):
        # the oracle's closure is cut before it reaches the secret: that is
        # neither a confirmation nor a refutation
        from xorsleuth import cli, oracle

        monkeypatch.setattr(cli, "verify_solution", functools.partial(oracle.verify_solution, **bound))
        report = tmp_path / "attack.json"
        code = run_command(
            [
                "analyze", fx("p1.proto"), "--combined", fx("p2.proto"), "--secret", "NA",
                "--json", str(report), "--oracle-verify",
            ]
        )
        assert code == 1
        assert json.loads(report.read_text())["results"]["oracle_verified"] is None
        assert "oracle: undecided" in capsys.readouterr().out
        out = tmp_path / "verify.json"
        assert run_command(["oracle-verify", str(report), "--json", str(out)]) == 3
        assert "trace undecided" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["results"] == {"confirmed": None}
        assert doc["exit_code"] == 3

    def test_secure_report_is_input_error(self, tmp_path, capsys):
        out = tmp_path / "secure.json"
        run_command(["analyze", fx("p2.proto"), "--json", str(out)])
        assert run_command(["oracle-verify", str(out)]) == 2
        assert "no attack trace" in capsys.readouterr().err

    def _verify_tampered(self, tmp_path, capsys, tamper) -> str:
        """Exit code of oracle-verify on the p1+p2 attack trace after
        ``tamper`` edits its attack object; returns standard error."""
        out = tmp_path / "attack.json"
        run_command(
            ["analyze", fx("p1.proto"), "--combined", fx("p2.proto"), "--secret", "NA", "--json", str(out)]
        )
        doc = json.loads(out.read_text())
        tamper(doc["results"]["attack"])
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_command(["oracle-verify", str(tampered)]) == 2
        return capsys.readouterr().err

    def test_non_string_target_is_input_error(self, tmp_path, capsys):
        err = self._verify_tampered(tmp_path, capsys, lambda a: a["constraints"][0].update(target=7))
        assert err.startswith("error:") and "target of constraint 0" in err

    def test_list_substitution_is_input_error(self, tmp_path, capsys):
        err = self._verify_tampered(tmp_path, capsys, lambda a: a.update(substitution=[]))
        assert err.startswith("error:") and "substitution must be an object" in err

    def test_string_constraints_is_input_error(self, tmp_path, capsys):
        err = self._verify_tampered(tmp_path, capsys, lambda a: a.update(constraints="const(a:Agent)"))
        assert err.startswith("error:") and "constraints must be a non-empty list" in err

    def test_empty_constraints_is_input_error(self, tmp_path, capsys):
        # an attack trace always ends by demanding the secret
        err = self._verify_tampered(tmp_path, capsys, lambda a: a.update(constraints=[]))
        assert err.startswith("error:") and "constraints must be a non-empty list" in err

    def test_constant_substitution_key_is_input_error(self, tmp_path, capsys):
        err = self._verify_tampered(
            tmp_path, capsys, lambda a: a.update(substitution={"const(a:Agent)": "const(b:Agent)"})
        )
        assert err.startswith("error:") and "not a variable" in err


    def test_mis_sorted_binding_refuted(self, tmp_path, capsys):
        # a Nonce variable takes a Nonce or Data value, never an agent's name
        trace = {
            "constraints": [{"target": "var(X:Nonce)", "term_set": ["const(a:Agent)"]}],
            "substitution": {"var(X:Nonce)": "const(a:Agent)"},
        }
        path = tmp_path / "missorted.json"
        path.write_text(json.dumps(trace))
        assert run_command(["oracle-verify", str(path)]) == 1
        assert capsys.readouterr().out == "trace NOT confirmed\n"

    def test_free_variable_takes_a_value_of_its_sort(self, tmp_path, capsys):
        # X is left free; as a Nonce it takes the attacker's own nonce, so
        # the key the attacker knows (eps:Agent) is not an instance of it
        trace = {
            "constraints": [
                {"target": "senc(const(n:Nonce),var(X:Nonce))", "term_set": ["senc(const(n:Nonce),const(eps:Agent))"]}
            ],
            "substitution": {},
        }
        path = tmp_path / "free.json"
        path.write_text(json.dumps(trace))
        assert run_command(["oracle-verify", str(path)]) == 1
        assert capsys.readouterr().out == "trace NOT confirmed\n"

    @pytest.mark.parametrize(
        "bindings",
        [
            {"var(X:Nonce)": "seq(var(X:Nonce),const(n:Nonce))"},
            {"var(X:Nonce)": "seq(var(Y:Nonce),const(n:Nonce))", "var(Y:Nonce)": "var(X:Nonce)"},
        ],
        ids=["self", "through"],
    )
    def test_cyclic_substitution_is_input_error(self, tmp_path, capsys, bindings):
        # no substitution solves X = seq(X, n), so the trace confirms nothing
        trace = {
            "constraints": [{"target": "var(X:Nonce)", "term_set": ["const(n:Nonce)", "const(eps:Agent)"]}],
            "substitution": bindings,
        }
        path = tmp_path / "cyclic.json"
        path.write_text(json.dumps(trace))
        assert run_command(["oracle-verify", str(path)]) == 2
        captured = capsys.readouterr()
        assert "confirmed" not in captured.out
        assert captured.err.startswith("error:") and "cyclic" in captured.err


class TestDeepInput:
    """Input nested too deeply is an input error (exit 2), never a traceback."""

    DEPTH = 3000

    def test_deep_proto_file(self, tmp_path, capsys):
        term = "seq(" * self.DEPTH + "a" + ", a)" * self.DEPTH
        path = tmp_path / "deep.proto"
        path.write_text(f"protocol deep\nrole A:\n  send {term}\n")
        for command in ("parse", "check-assumptions"):
            assert run_command([command, str(path)]) == 2
            assert "error: input nested too deeply" in capsys.readouterr().err

    def test_deep_trace_file(self, tmp_path, capsys):
        term = "seq(" * self.DEPTH + "const(a:Data)" + ",const(a:Data))" * self.DEPTH
        path = tmp_path / "deep.json"
        path.write_text(json.dumps({"constraints": [{"target": term, "term_set": []}]}))
        assert run_command(["oracle-verify", str(path)]) == 2
        assert "error: input nested too deeply" in capsys.readouterr().err


class TestInputErrors:
    """Bad input exits 2 with an error line; a fault inside a layer is no
    input error and propagates."""

    def test_internal_key_error_propagates(self, monkeypatch):
        def broken(protocols, config):
            raise KeyError("internal")

        monkeypatch.setattr(cli, "check_secrecy", broken)
        with pytest.raises(KeyError, match="internal"):
            run_command(["analyze", fx("nslx.proto")])

    def test_non_utf8_protocol_file(self, tmp_path, capsys):
        path = tmp_path / "latin1.proto"
        path.write_bytes("protocol p\nrole A:\n  send caf\u00e9\n".encode("latin-1"))
        assert run_command(["parse", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_malformed_json_trace(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        path.write_text('{"constraints": [{"target": "const(a:Data)"')
        assert run_command(["oracle-verify", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "argv",
        [
            ["oracle-verify", "{missing}.json"],
            ["analyze", fx("nslx.proto"), "--combined", "{missing}.proto"],
            ["check-munut", fx("q1.proto"), "{missing}.proto"],
        ],
    )
    def test_missing_file(self, tmp_path, capsys, argv):
        argv = [a.format(missing=tmp_path / "missing") for a in argv]
        assert run_command(argv) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestInstalledScript:
    def test_console_entry_point(self):
        # the subprocess imports the same package as this process, installed or not
        package_root = str(Path(xorsleuth.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "xorsleuth.cli", "parse", fx("p1.proto")],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("protocol p1")


class TestClosedStdout:
    """A reader that stops reading (``xorsleuth ... | head``) is no input
    error: the command ends with its own exit code and report, and nothing
    is written to stderr, with stdout unbuffered or not."""

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize(
        "argv,code",
        [
            (["parse", *[str(f) for f in sorted(FIXTURES.glob("*.proto"))] * 30, "--json", "{report}"], 0),
            (["analyze", fx("q1.proto"), "--combined", "{leak}", "--oracle-verify", "--json", "{report}"], 1),
            (["analyze", fx("nslx.proto"), "--node-budget", "2", "--json", "{report}"], 3),
            (["--help"], 0),
            (["analyze", "--help"], 0),
        ],
        ids=["parse", "attack", "inconclusive", "help", "command-help"],
    )
    def test_reader_gone_before_the_first_write(self, tmp_path, argv, code, unbuffered):
        leak = tmp_path / "leak_ab.proto"
        leak.write_text("protocol leak_ab\nrole A:\n  send sh(a, b)\n")
        report = tmp_path / "report.json"
        argv = [a.format(leak=leak, report=report) for a in argv]
        package_root = str(Path(xorsleuth.__file__).resolve().parent.parent)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "xorsleuth.cli", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.stderr == ""
        assert proc.returncode == code
        if "--json" in argv:
            assert json.loads(report.read_text())["exit_code"] == code
