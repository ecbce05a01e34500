"""Golden CLI output: every fixture x subcommand x format, byte for byte.

``golden/cli.json`` maps each invocation (its argv joined by spaces) to the
exit code, stdout and stderr recorded for it. Fixtures are addressed by
paths relative to this directory, so the recording holds no absolute path.
``propagate`` is recorded in ``json`` only, from and to every graph node
that has a qualified name.

Regenerate after an intended output change with ``python tests/test_golden.py``
and review the diff of ``golden/cli.json``.
"""

import contextlib
import io
import json
import os
import sys

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(TESTS_DIR, "golden", "cli.json")

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


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(TESTS_DIR), "src"))
    os.chdir(TESTS_DIR)
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(record(), fh, indent=1, sort_keys=True)
        fh.write("\n")
