"""Golden output: the CLI on every fixture x subcommand x format, and the
token stream of every fixture and of lexer edge cases, byte for byte.

``golden/cli.json`` maps each invocation (its argv joined by spaces) to the
exit code, stdout and stderr recorded for it. Fixtures are addressed by
paths relative to this directory, so the recording holds no absolute path.
``propagate`` is recorded in ``json`` only, from and to every graph node
that has a qualified name.

``golden/tokens.json`` maps each fixture path and each snippet in
``TOKEN_SNIPPETS`` to its tokens as (kind, text, start, end, line, column,
value) and its lexical diagnostics as (code, start, end, line, column,
message).

Regenerate after an intended output change with ``python tests/test_golden.py``
and review the diff of both files.
"""

import contextlib
import io
import json
import os
import sys

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(TESTS_DIR, "golden", "cli.json")
TOKENS_PATH = os.path.join(TESTS_DIR, "golden", "tokens.json")

FIXTURES = ("acc.sysml", "acc_verbatim.sysml", "arrowhead.sysml",
            "frigate.sysml", "interaction.sysml", "vehicle_health.sysml",
            "vfea.sysml")
FORMATS = {
    "check": ("text", "json"),
    "stats": ("text", "json"),
    "topics": ("text", "json"),
    "risks": ("text", "json"),
    "graph": ("dot", "json"),
    "derive-specs": ("text", "json"),
}


def _invoke(argv: list[str]) -> dict:
    from psumlint.cli import run  # run as a script, src/ joins sys.path first
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
    return {"exit": code, "out": out.getvalue(), "err": err.getvalue()}


def _matrix() -> list[list[str]]:
    invocations = []
    for fixture in FIXTURES:
        path = f"fixtures/{fixture}"
        for command, formats in FORMATS.items():
            for fmt in formats:
                invocations.append([command, "--format", fmt, path])
        graph = _invoke(["graph", "--format", "json", path])
        if graph["exit"] not in (0, 1):
            continue
        for node in json.loads(graph["out"])["nodes"]:
            if node["qualified_name"] is None:
                continue
            for flag in ("--from", "--to"):
                invocations.append(["propagate", "--format", "json", path,
                                    flag, node["qualified_name"]])
    return invocations


#: lexer edge cases: angle brackets in and out of annotations, unclosed
#: constructs, brackets, numbers, stray and non-ASCII characters
TOKEN_SNIPPETS = (
    "",
    "a >>> b",
    "<<A<x>>> transition t",
    "a >>= b",
    "<<A<x>>= y",
    "<<A>>= y",
    "a << b",
    "<<A<<B>>",
    "x >= 3; y <= 4;",
    "<<A<x >= y>> part p;",
    "<<A<B<c>>>>>",
    "«A<x>» «B» »« «C>> <<D»",
    "«Uncertainty<ocr\npart p;",
    "<<A<x\n>> part p;",
    "<<A",
    'x = "abc\ny = "ok";',
    'x = "',
    "part def `Forever\npart p;",
    "part def 'abc\npart q; 'x'",
    "part def `ACC' ; part def '' ; `'",
    "b = 30 [SI::day\npart p; [",
    "/* never closed\npart p;",
    "a /*/ b */ c",
    "/**/ /***/ /* a\n b */ x",
    "// line comment at end",
    "a//b\nc",
    "x [*] [1] [0..1] [ 2 ] [1..*] [ * ] [SI::day] [`inch'] ['%'] [] [1.5] [0..] [a..b]",
    "1. 1..2 007 3.14.15 2.5e3 1x ٣٤",
    "a ::> b :>> c :: d :> e == f = g : h & i ~ j * k",
    "a.b::c; {(x, y)}",
    "naïve é \x0b\x0c",
    "@#$!?^|\\-+/%",
    "part p;\r\npart q;\r\n",
    "part def doc about true _x1 x_1",
)


def _lex(text: str, path: str) -> dict:
    from psumlint.lexer import tokenize  # run as a script, src/ joins sys.path first
    from psumlint.source import SourceFile
    tokens, diags = tokenize(SourceFile(path=path, content=text))
    return {
        "tokens": [[t.kind.value, t.text, t.span.start, t.span.end,
                    t.span.line, t.span.column, t.value] for t in tokens],
        "diagnostics": [[d.code, d.span.start, d.span.end, d.span.line,
                         d.span.column, d.message] for d in diags],
    }


def _token_inputs() -> dict[str, str]:
    inputs = {}
    for fixture in FIXTURES:
        with open(os.path.join(TESTS_DIR, "fixtures", fixture), "r",
                  encoding="utf-8") as fh:
            inputs[f"fixtures/{fixture}"] = fh.read()
    for snippet in TOKEN_SNIPPETS:
        inputs[snippet] = snippet
    return inputs


def record_tokens() -> dict:
    return {key: _lex(text, key) for key, text in _token_inputs().items()}


def _dump_tokens(golden: dict) -> str:
    """JSON with one token or diagnostic per line."""
    entries = []
    for key in sorted(golden):
        fields = [f"  {json.dumps(name)}: ["
                  + ",".join("\n   " + json.dumps(row) for row in rows)
                  + ("\n  ]" if rows else "]")
                  for name, rows in sorted(golden[key].items())]
        entries.append(f" {json.dumps(key)}: {{\n" + ",\n".join(fields) + "\n }")
    return "{\n" + ",\n".join(entries) + "\n}\n"


def record() -> dict:
    return {" ".join(argv): _invoke(argv) for argv in _matrix()}


def test_cli_output_matches_golden(monkeypatch):
    monkeypatch.chdir(TESTS_DIR)
    with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
        golden = json.load(fh)
    assert len(golden) > 200
    mismatched = [key for key, expected in golden.items()
                  if _invoke(key.split(" ")) != expected]
    assert mismatched == []


def test_tokens_match_golden():
    with open(TOKENS_PATH, "r", encoding="utf-8") as fh:
        golden = json.load(fh)
    assert len(golden) == len(FIXTURES) + len(TOKEN_SNIPPETS)
    mismatched = [key for key, text in _token_inputs().items()
                  if _lex(text, key) != golden[key]]
    assert mismatched == []


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(TESTS_DIR), "src"))
    os.chdir(TESTS_DIR)
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(record(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    with open(TOKENS_PATH, "w", encoding="utf-8") as fh:
        fh.write(_dump_tokens(record_tokens()))
