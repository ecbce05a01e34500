"""Golden output: the CLI on every fixture x subcommand x format, and the
token stream of every fixture and of lexer edge cases, byte for byte.

``golden/cli.json`` maps each invocation (its argv joined by spaces) to the
exit code, stdout and stderr recorded for it. Fixtures are addressed by
paths relative to this directory, so the recording holds no absolute path.
``propagate`` is recorded from and to every graph node that has a
qualified name: in ``text``, ``json`` and ``dot``, and in ``json`` with
``--effects-only``.

``golden/tokens.json`` maps each fixture path and each snippet in
``TOKEN_SNIPPETS`` to its tokens as (kind, text, start, end, line, column,
value) and its lexical diagnostics as (code, start, end, line, column,
message).

``golden/parse.json`` holds, under ``trees``, the syntax tree and the
diagnostics of each fixture, each ``TOKEN_SNIPPETS`` entry and each
``PARSE_SNIPPETS`` entry (see ``parse_record``). Under ``mutants`` it holds,
per fixture, one short digest of the same record for each token-deletion
mutant that ``deletion_mutants`` yields; ``test_parser.py``'s deletion sweep
compares them as it parses each mutant.

Regenerate after an intended output change with ``python tests/test_golden.py``
and review the diff of all three files.
"""

import contextlib
import decimal
import functools
import hashlib
import io
import json
import os
import sys

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(TESTS_DIR, "golden", "cli.json")
TOKENS_PATH = os.path.join(TESTS_DIR, "golden", "tokens.json")
PARSE_PATH = os.path.join(TESTS_DIR, "golden", "parse.json")

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
                for fmt in ("text", "json", "dot"):
                    invocations.append(["propagate", "--format", fmt, path,
                                        flag, node["qualified_name"]])
                invocations.append(["propagate", "--format", "json", path,
                                    flag, node["qualified_name"],
                                    "--effects-only"])
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


#: parser paths the fixtures miss: every clause of usages, transitions,
#: sends and accepts, and the recovery of every body kind
PARSE_SNIPPETS = (
    "package P { metadata m : M { + ; x = 1; } }",
    "package P { metadata m defined by M about p { a { + b = 2; } c + ; } }",
    "package P { part p { measurement { + ; x = 1; 3; y 4; } } }",
    "package P { state def S { transition t first a do x then b; } }",
    "package P { state def S { transition t first a accept at p.q then b; } }",
    "package P { state def S { transition first a accept s : T via p "
    "if not (x >= 1 & y) or z == 2 do action d : A { } then b; "
    "transition a then b; transition t do send S(1, x) via p to q; } }",
    "package P {",
    "package P { part p {",
    "package P { metadata m : M {",
    "package P { metadata m : M { a { b = 1;",
    "package P { part p { measurement { x = 1;",
    "package P { state def S { transition t first a then b {",
    "package P { part a : T :> b :>> c ::> d redefines e specializes F "
    "defined by G; part q [0..*] : ~Q[1] = 5 [kg] parallel; }",
    "package P { abstract part def A :> B, ~C[2] specializes D; "
    "abstract part a subsets b, c typed by A; ref part r references a, b; "
    "part q :> a, b :>> c, d ::> e, f; metadata m typed by M; "
    "action x accept s typed by T via p; }",
    "package P { action x send S(1, y) via p to q accept z : T via w; "
    "action y accept at t; action w accept sig defined by Sig; "
    "action v accept a.b via c; action u via p to q send S; }",
    "package P { action a { do send S(x); do part q; then action b; "
    "then c; then «Effect» part e; entry; entry action f; entry + ; } }",
    "package P { require a.b; ref ::> a::b; in x = 3; out y; "
    "subject s : T; objective o; return r : R; assume constraint k { x } }",
    "package P { constraint c { a and b or not (c >= 1) & d; (x; } "
    "constraint def D { true; not false; 3 < 4 } }",
    "package P { constraint c { (((a) ; not ; x == ; ) } }",
    "package P { import a::*; import a::b; import a::+; private import x::*; "
    "public part p; private part def Q; import ; }",
    "package P { part def X [1] specializes A, B, ~C[2] { } ref part def Y; "
    "part def specializes; part def Z specializes ; }",
    "«A<x>» package P { «B» transition t; «C<y, z>» metadata m; "
    "doc /* hi */ doc ; «D» part p; }",
    "package P { message m : S; item i; port p : ~P; state s parallel { } "
    "analysis a; requirement r; occurrence o; exhibit state e; perform action f; }",
    "package P { part p { x = ; y = q.r; z = \"s\"; w = true; v 1; } }",
    "part p; package P { } } flobnicate ; package",
    "package P { part p : ; part q :> ; part r defined x; part s = ; }",
    "package P { action a { send S( ; } action b accept ; action c do send; }",
    "package P { metadata m : M { a = 1 b = 2; c { d; } e } }",
    "package P { part p { measurement x; measurement { } } }",
    "package P { metadata m : M { in = 1; part { then = 2; } 'q' = 3; } }",
    "package P { part p { measurement { 'q' = 1; x = 2; } 'r' = 3; } }",
    "package P { metadata m : M { "
    + "a { " * 40 + "b = 1;" + " }" * 40 + " } }",
    "package P { part p " + "{ part q " * 40 + "{ }" + " }" * 41,
    "package P { constraint c { " + "not " * 40 + "(" * 40 + "x" + ")" * 40
    + " } }",
)


def _structure(value):
    """JSON form of a syntax-tree value: a node as [kind, [start, end],
    attrs as [name, value] pairs in insertion order, children]; any other
    record (a named tuple) as [type name, [field, value] pairs]; a span as
    [start, end]; a Decimal as its string."""
    return _converter(type(value))(value)


@functools.cache
def _converter(kind: type):
    """The ``_structure`` conversion of values of type ``kind``."""
    from psumlint.source import Span
    from psumlint.syntax import AstNode
    if issubclass(kind, AstNode):
        return lambda node: [node.kind, [node.span.start, node.span.end],
                             [[k, _structure(v)] for k, v in node.attrs.items()],
                             [_structure(c) for c in node.children]]
    if issubclass(kind, Span):
        return lambda span: [span.start, span.end]
    if issubclass(kind, tuple) and hasattr(kind, "_fields"):
        name = kind.__name__
        names = kind._fields
        return lambda value: [name, [[n, _structure(getattr(value, n))] for n in names]]
    if issubclass(kind, (list, tuple)):
        return lambda items: [_structure(v) for v in items]
    if issubclass(kind, decimal.Decimal):
        return str
    assert kind is type(None) or issubclass(kind, (str, int, bool)), kind
    return lambda value: value


def parse_record(text: str, path: str) -> dict:
    """The full parse of ``text``: tree and (code, start, end, message) of
    every diagnostic."""
    from psumlint.source import SourceFile
    from psumlint.syntax import parse_file
    root, diags = parse_file(SourceFile(path=path, content=text))
    return {"tree": _structure(root),
            "diagnostics": [[d.code, d.span.start, d.span.end, d.message]
                            for d in diags]}


def parse_digest(record: dict) -> str:
    text = json.dumps(record, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def deletion_mutants(name: str, text: str):
    """(deleted token, mutated text) for the token-deletion sweep: every
    third token of a long fixture, every token of a short one, and every
    structural delimiter."""
    from psumlint.lexer import TokenKind, tokenize
    from psumlint.source import SourceFile
    tokens, _ = tokenize(SourceFile(path=name, content=text))
    stride = 1 if len(tokens) < 300 else 3
    for index, token in enumerate(tokens):
        if token.kind is TokenKind.EOF:
            continue
        if index % stride and token.text not in DELIMITERS:
            continue
        yield token, text[:token.start] + text[token.end:]


#: deleting one of these always yields a diagnostic
DELIMITERS = frozenset({";", "{", "}", "(", ")", "«", "»"})


def _parse_inputs() -> dict[str, str]:
    inputs = _token_inputs()
    for snippet in PARSE_SNIPPETS:
        inputs[snippet] = snippet
    return inputs


def record_parse() -> dict:
    trees = {key: parse_record(text, key)
             for key, text in _parse_inputs().items()}
    mutants = {}
    for fixture in FIXTURES:
        path = f"fixtures/{fixture}"
        text = _token_inputs()[path]
        mutants[fixture] = [parse_digest(parse_record(mutated, "mutant"))
                            for _token, mutated in deletion_mutants(fixture, text)]
    return {"trees": trees, "mutants": mutants}


def load_parse_golden() -> dict:
    with open(PARSE_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _dump_node(node: list, indent: str) -> str:
    """A structured node with each of its children on a line of its own."""
    kind, span, attrs, children = node
    if not children:
        return indent + json.dumps(node)
    return (indent + json.dumps([kind, span, attrs])[:-1] + ", [\n"
            + ",\n".join(_dump_node(c, indent + " ") for c in children)
            + "\n" + indent + "]]")


def _dump_parse(golden: dict) -> str:
    """JSON with one syntax node, diagnostic or mutant digest list per line."""
    trees = []
    for key in sorted(golden["trees"]):
        record = golden["trees"][key]
        diags = ",".join("\n    " + json.dumps(d) for d in record["diagnostics"])
        if diags:
            diags += "\n   "
        trees.append(f"  {json.dumps(key)}: {{\n"
                     f"   \"diagnostics\": [{diags}],\n"
                     f"   \"tree\":\n{_dump_node(record['tree'], '    ')}\n  }}")
    mutants = [f"  {json.dumps(key)}: {json.dumps(digests)}"
               for key, digests in sorted(golden["mutants"].items())]
    return ("{\n \"mutants\": {\n" + ",\n".join(mutants) + "\n },\n"
            " \"trees\": {\n" + ",\n".join(trees) + "\n }\n}\n")


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


def test_parse_trees_match_golden():
    golden = load_parse_golden()["trees"]
    inputs = _parse_inputs()
    assert len(golden) == len(inputs)
    mismatched = [key for key, text in inputs.items()
                  if parse_record(text, key) != golden[key]]
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
    with open(PARSE_PATH, "w", encoding="utf-8") as fh:
        fh.write(_dump_parse(record_parse()))
