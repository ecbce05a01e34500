"""Tokenizer for the textual model notation.

The lexer is a stream: it makes each token when the reader asks for the
next one, so no stage holds the token list of a file unless it asks for
one (``tokenize``). One compiled master regular expression with a named
group per token class matches the whitespace before a token and the token
itself, so each token costs one ``match`` call (the "writing a tokenizer"
idiom of the ``re`` module); the lexer dispatches on the name of the group
that matched. Only the annotation state below is kept in Python.

The token stream is lossless: joining token texts with the skipped
whitespace between them reproduces the input byte-for-byte. Comments are
ordinary tokens (the parser treats them as trivia).

A token is an immutable record of its kind, text, ``[start, end)``
character offsets, decoded value and file; the lexer builds it as a plain
tuple, with no ``Span``. The parser builds spans from token offsets only
for what the syntax tree and the diagnostics keep, and ``Token.span``
builds one on demand for other readers. The tokens of one file share one
string per identifier or keyword text, and so does the tree built from
them.

Annotation markers come in two equivalent spellings: the guillemets
U+00AB/U+00BB and the ASCII fallback ``<<`` / ``>>``. Inside an annotation
the lexer tracks ``<``/``>`` argument-list nesting so that ``>>>`` after an
argument list is split into ``>`` (closing the list) and ``>>`` (closing
the annotation).
"""

from __future__ import annotations

import enum
import re
from typing import Iterator, NamedTuple

from . import diagnostics
from .diagnostics import Diagnostic
from .source import SourceFile, Span


class TokenKind(enum.Enum):
    KEYWORD = "keyword"
    IDENTIFIER = "identifier"
    QUOTED_IDENTIFIER = "quoted-identifier"
    NUMBER = "number"
    STRING = "string"
    UNIT_BRACKET = "unit-bracket"
    MULTIPLICITY_BRACKET = "multiplicity-bracket"
    ANNOTATION_OPEN = "annotation-open"
    ANNOTATION_CLOSE = "annotation-close"
    PUNCTUATION = "punctuation"
    OPERATOR = "operator"
    COMMENT = "comment"
    DOC_COMMENT = "doc-comment"
    EOF = "end-of-file"


KEYWORDS = frozenset({
    "package", "import", "private", "public", "def",
    "part", "item", "port", "attribute", "action", "state", "constraint",
    "analysis", "requirement", "occurrence", "transition", "message",
    "metadata", "ref", "perform", "exhibit",
    "specializes", "subsets", "redefines", "references", "defined", "typed", "by",
    "abstract",
    "first", "accept", "via", "if", "do", "send", "then", "entry",
    "parallel", "in", "out", "about", "at", "to",
    "assume", "require", "subject", "objective", "return", "doc",
    "measurement",
    "and", "or", "not", "true", "false",
})

# One match reads the whitespace before a token and the token. Alternatives
# are tried in order, so longer operators come first; ``end`` matches only
# after the last token. The delimited forms match up to their closer or,
# unclosed, to the end of the line (of the file for block comments); the
# lexer tells the two apart. ``angle`` is split statefully by the lexer:
# inside an annotation each ``<`` and ``>`` is its own token unless ``>>``
# closes the annotation.
_TOKEN = re.compile(r"""
    [ \t\r\n]*
  (?:
    (?P<word>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>[;{}(),.])
  | (?P<op>::>|:>>|::|:>|==|=|:|&|~|\*)
  | (?P<angle><<|>>|[<>]=?)
  | (?P<number>\d+(?:\.\d+)?)
  | (?P<open>«)
  | (?P<close>»)
  | (?P<comment>//[^\n]*)
  | (?P<block>/\*[\s\S]*?(?:\*/|\Z))
  | (?P<string>"[^"\n]*"?)
  | (?P<quoted>[`'][^'\n]*'?)
  | (?P<bracket>\[[^\]\n]*\]?)
  | (?P<stray>[\s\S])
  | (?P<end>\Z)
  )
""", re.VERBOSE)
_MULTIPLICITY = re.compile(r"^(\*|\d+|\d+\.\.(\d+|\*))$")
_SIMPLE = {"punct": TokenKind.PUNCTUATION, "op": TokenKind.OPERATOR,
           "comment": TokenKind.COMMENT}


class Token(NamedTuple):
    """One token. Tokens of one stream never compare equal, as their
    offsets differ."""

    kind: TokenKind
    text: str
    start: int
    end: int
    value: str
    file: SourceFile

    @property
    def span(self) -> Span:
        return Span(self.file, self.start, self.end)

    def __repr__(self) -> str:
        return f"Token({self.kind.value}, {self.text!r})"


class Lexer:
    """The tokens of one file, lexed as they are read; iterate over it once.

    The lexical diagnostics collect in ``diagnostics`` as the tokens that
    carry them are reached; all are there once the EOF token is.
    """

    def __init__(self, source: SourceFile):
        self.source = source
        self.diagnostics: list[Diagnostic] = []

    def _diag(self, code: str, start: int, end: int, message: str) -> None:
        self.diagnostics.append(diagnostics.make(code, Span(self.source, start, end), message))

    def _delimited(self, start: int, end: int, closer: str, code: str, what: str) -> str:
        """Text between the opener at ``start`` and its closer; P00x if unclosed."""
        text = self.source.content
        if text.endswith(closer, start + 1, end):
            return text[start + 1:end - 1]
        self._diag(code, start, end, f"{what} is never closed")
        return text[start + 1:end]

    def __iter__(self) -> Iterator[Token]:
        source = self.source
        text = source.content
        match = _TOKEN.match
        new = tuple.__new__  # a Token without the keyword-argument __new__
        keyword, identifier = TokenKind.KEYWORD, TokenKind.IDENTIFIER
        #: each identifier and keyword text, so that a file's tokens and
        #: the tree built from them share one string per name
        names: dict[str, str] = {}
        pos, in_annotation, angle_depth = 0, False, 0
        while True:
            m = match(text, pos)
            group = m.lastgroup
            start, end = m.span(group)
            if in_annotation and start > pos:
                newline = text.find("\n", pos, start)
                if newline >= 0:
                    # annotations do not span lines
                    self._diag("P005", newline, newline, "annotation not closed before end of line")
                    in_annotation, angle_depth = False, 0
            if group == "word":  # the most common token: its text is its value
                value = text[start:end]
                value = names.setdefault(value, value)
                yield new(Token, (keyword if value in KEYWORDS else identifier,
                                  value, start, end, value, source))
                pos = end
                continue
            value = ""
            if group in _SIMPLE:
                kind = _SIMPLE[group]
            elif group == "angle":
                kind = TokenKind.OPERATOR
                if in_annotation:
                    if angle_depth == 0 and text.startswith(">>", start):
                        kind, in_annotation = TokenKind.ANNOTATION_CLOSE, False
                    else:
                        end = start + 1
                        angle_depth = angle_depth + 1 if text[start] == "<" else max(0, angle_depth - 1)
                elif text.startswith("<<", start):
                    kind, in_annotation, angle_depth = TokenKind.ANNOTATION_OPEN, True, 0
                elif text.startswith(">>", start):
                    end = start + 1
            elif group == "number":
                kind, value = TokenKind.NUMBER, text[start:end]
            elif group == "open" or group == "close":
                kind = TokenKind.ANNOTATION_OPEN if group == "open" else TokenKind.ANNOTATION_CLOSE
                in_annotation, angle_depth = group == "open", 0
            elif group == "block":
                kind = TokenKind.DOC_COMMENT
                if not text.endswith("*/", start + 2, end):
                    self._diag("P004", start, end, "block comment is never closed")
            elif group == "string":
                kind, value = TokenKind.STRING, self._delimited(start, end, '"', "P003", "string")
            elif group == "quoted":
                kind = TokenKind.QUOTED_IDENTIFIER
                value = self._delimited(start, end, "'", "P006", "quoted name")
            elif group == "bracket":
                inner = self._delimited(start, end, "]", "P007", "bracket").strip()
                if text[end - 1] == "]" and _MULTIPLICITY.match(inner):
                    kind, value = TokenKind.MULTIPLICITY_BRACKET, inner
                else:
                    kind, value = TokenKind.UNIT_BRACKET, inner.strip("`'\"").strip()
            elif group == "stray":
                self._diag("P008", start, end, f"stray character {text[start]!r}")
                kind = TokenKind.PUNCTUATION
            else:  # the end of the text
                if in_annotation:
                    self._diag("P005", end, end, "annotation not closed before end of file")
                yield Token(TokenKind.EOF, "", end, end, "", source)
                return
            yield new(Token, (kind, text[start:end], start, end, value, source))
            pos = end


def tokenize(source: SourceFile) -> tuple[list[Token], list[Diagnostic]]:
    """Full token list (ending with an EOF token) plus lexical diagnostics."""
    lexer = Lexer(source)
    return list(lexer), lexer.diagnostics

