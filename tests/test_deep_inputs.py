"""The never-raise contract on deep inputs: every subcommand in every format
ends with an exit code, never a traceback, and its JSON output is valid
against its schema."""

import subprocess
import sys

import pytest

from psumlint.cli import run

from test_reporting import check as check_schema

#: a metadata body nested 2,000 levels deep: past the 100-level cap
DEEP_METADATA = ("package P { part p { metadata m : M { " + "a { " * 2000
                 + "b = 1;" + " }" * 2000 + " } } }\n")
#: 100 open bodies, then 99 open parentheses: one budget covers both
DEEP_MIXED = ("package P " + "{ part q " * 98 + "{ constraint c { " + "(" * 99
              + "\n")
#: a0 :> a1.b, a1 :> a2.b, ...: resolving a0 needs a1 resolved first, and
#: so on 400 levels down; T's uncertainty reaches every level
DEEP_CHAIN = ("package P { «Uncertainty<ocr, epi, subj>» part def T { part b : T; } "
              "part a400 : T; "
              + " ".join(f"part a{i} :> a{i + 1}.b;" for i in range(400)) + " }\n")

#: (subcommand and options, formats, schema of the JSON output)
COMMANDS = (
    (("check",), ("text", "json"), "diagnostics.schema.json"),
    (("stats",), ("text", "json"), "stats.schema.json"),
    (("propagate", "--from", "P::a0"), ("text", "json", "dot"), "trace.schema.json"),
    (("propagate", "--to", "P::a400"), ("text", "json", "dot"), "trace.schema.json"),
    (("topics",), ("text", "json"), "topics.schema.json"),
    (("risks",), ("text", "json"), "risks.schema.json"),
    (("graph",), ("dot", "json"), "graph.schema.json"),
    (("derive-specs",), ("text", "json"), "suggestions.schema.json"),
)


@pytest.fixture(scope="module")
def deep_files(tmp_path_factory):
    directory = tmp_path_factory.mktemp("deep")
    paths = {}
    for name, text in (("metadata", DEEP_METADATA), ("chain", DEEP_CHAIN),
                       ("mixed", DEEP_MIXED)):
        paths[name] = directory / f"{name}.sysml"
        paths[name].write_text(text, encoding="utf-8")
    return paths


def _every_invocation(capsys, path):
    for command, formats, schema in COMMANDS:
        for fmt in formats:
            argv = [*command, str(path), "--format", fmt]
            code = run(argv)
            captured = capsys.readouterr()
            assert "Traceback" not in captured.err, argv
            if fmt == "json" and captured.out:
                check_schema(captured.out, schema)
            yield argv, code, captured


def test_deep_metadata_body_is_reported_on_every_subcommand(capsys, deep_files):
    for argv, code, captured in _every_invocation(capsys, deep_files["metadata"]):
        assert code == 2, argv
        assert "P001" in captured.out + captured.err, argv
        assert "nesting deeper than 100 levels" in captured.out + captured.err


def test_deep_bodies_and_expressions_share_one_cap(capsys, deep_files):
    for argv, code, captured in _every_invocation(capsys, deep_files["mixed"]):
        assert code == 2, argv
        assert "P001" in captured.out + captured.err, argv
        assert "expression nests too deeply" in captured.out + captured.err
        if argv[0] == "check" and argv[-1] == "json":
            assert captured.out.count('"code": "P001"') == 1


def test_deep_feature_chain_resolves_on_every_subcommand(capsys, deep_files):
    for argv, code, captured in _every_invocation(capsys, deep_files["chain"]):
        assert code == 0, argv
        assert captured.err == "", argv
        if argv[0] == "check":
            assert captured.out in ("[]\n", "0 error(s), 0 warning(s)\n"), argv
        if argv[0] == "graph" and argv[-1] == "json":
            # T, T::b and every level carry the uncertainty
            assert captured.out.count('"qualified_name": "P::') == 403


@pytest.mark.parametrize("name", ["metadata", "chain", "mixed"])
def test_deep_input_through_the_console_entry_point(deep_files, name):
    result = subprocess.run(
        [sys.executable, "-m", "psumlint.cli", "check", str(deep_files[name])],
        capture_output=True, text=True)
    assert result.returncode == (0 if name == "chain" else 2)
    assert "Traceback" not in result.stderr
