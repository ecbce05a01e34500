import os

import pytest

from psumlint import profile
from psumlint.api import Analysis, analyze_files
from psumlint.lexer import tokenize
from psumlint.source import SourceFile

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures")
#: the bundled profile catalog, the file ``DEFAULT_CATALOG`` is read from
CATALOG_PATH = os.path.join(os.path.dirname(profile.__file__), "profile-catalog.json")

#: fixtures expected to validate without any error-severity findings
CLEAN_FIXTURES = ("acc.sysml", "interaction.sysml", "vfea.sysml",
                  "arrowhead.sysml", "frigate.sysml", "vehicle_health.sysml")
ALL_FIXTURES = CLEAN_FIXTURES + ("acc_verbatim.sysml",)


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURE_DIR, name)


def fixture_text(name: str) -> str:
    with open(fixture_path(name), "r", encoding="utf-8") as fh:
        return fh.read()


def catalog_text() -> str:
    with open(CATALOG_PATH, "r", encoding="utf-8") as fh:
        return fh.read()


def reconstruct(source, tokens) -> str:
    """Rebuild the input from the token stream plus inter-token gaps: the
    oracle of lossless tokenization."""
    parts = []
    prev_end = 0
    for tok in tokens:
        parts.append(source.content[prev_end:tok.start])
        parts.append(tok.text)
        prev_end = tok.end
    parts.append(source.content[prev_end:])
    return "".join(parts)


#: the other SysML v2 spelling of each relationship token of a usage
RESPELLINGS = {":>": "subsets", ":": "typed by", ":>>": "redefines",
               "::>": "references"}


def respelled(text: str) -> str:
    """``text`` with every relationship in its other SysML v2 spelling:
    ``specializes`` on a definition becomes ``:>``, and each token of
    ``RESPELLINGS`` its word form. Replacements are padded with spaces and
    hold no line break, so every line keeps its number."""
    tokens, _ = tokenize(SourceFile(path="<respelled>", content=text))
    pieces, end, in_definition = [], 0, False
    for tok in tokens:
        if tok.text == "def" or tok.text in ";{}":
            in_definition = tok.text == "def"
        spelling = ":>" if in_definition and tok.text == "specializes" \
            else RESPELLINGS.get(tok.text)
        if spelling is not None:
            pieces += [text[end:tok.start], f" {spelling} "]
            end = tok.end
    return "".join(pieces) + text[end:]


def specialization_model(defs, usages, decorations=None) -> str:
    """Package ``P`` of part defs ``D<i>`` and part usages ``u<j>``.

    ``defs[i]`` lists the defs that ``D<i>`` specializes. ``usages[j]`` is
    (the def ``u<j>`` is typed by or None, relation operators, the usage
    they relate to); each operator in the space-separated string (``:>``,
    ``:>>``) adds one edge to that usage. ``decorations`` maps a name
    (``D0``, ``u1``) to (text put before its declaration, body statements)
    and a ``constants`` entry to text put before every declaration.
    """
    decorations = decorations or {}
    parts = [decorations.get("constants", "")]

    def declare(name: str, head: str) -> None:
        before, body = decorations.get(name, ("", ""))
        parts.append(f"{before}{head}" + (f" {{ {body} }}" if body else ";"))

    for i, targets in enumerate(defs):
        general = (" specializes " + ", ".join(f"D{t}" for t in targets)
                   if targets else "")
        declare(f"D{i}", f"part def D{i}{general}")
    for j, (typed, relation, other) in enumerate(usages):
        typing = f" : D{typed}" if typed is not None else ""
        related = "".join(f" {op} u{other}" for op in relation.split())
        declare(f"u{j}", f"part u{j}{typing}{related}")
    return "package P { " + " ".join(part for part in parts if part) + " }"


_cache: dict[str, Analysis] = {}


def analyze_fixture(name: str) -> Analysis:
    if name not in _cache:
        _cache[name] = analyze_files([fixture_path(name)])
    return _cache[name]


@pytest.fixture
def acc() -> Analysis:
    return analyze_fixture("acc.sysml")


@pytest.fixture
def interaction() -> Analysis:
    return analyze_fixture("interaction.sysml")


@pytest.fixture
def vfea() -> Analysis:
    return analyze_fixture("vfea.sysml")


@pytest.fixture
def arrowhead() -> Analysis:
    return analyze_fixture("arrowhead.sysml")


@pytest.fixture
def frigate() -> Analysis:
    return analyze_fixture("frigate.sysml")
