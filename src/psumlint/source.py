"""Source file handling: character-offset bookkeeping and spans.

Every syntax node, element and diagnostic carries a Span pointing back
into a SourceFile, so downstream consumers can render file:line:column
locations without re-scanning the input. A span stores only its offsets;
line and column are looked up in the file's line-start index when read.
Tokens hold bare offsets; the parser builds a Span from them only for what
the tree and the diagnostics keep, and every Span checks its bounds.
"""

from __future__ import annotations

import bisect
from typing import NamedTuple


class SourceFile:
    """One model file: path, full text, and an index of line-start offsets.

    Files compare and hash by identity, as a model holds one object per
    file; so spans, which hold their file, hash too.
    """

    __slots__ = ("path", "content", "line_index")

    def __init__(self, path: str, content: str) -> None:
        self.path = path
        self.content = content
        index, find = [0], content.find
        newline = find("\n")
        while newline >= 0:
            index.append(newline + 1)
            newline = find("\n", newline + 1)
        self.line_index = index

    @classmethod
    def read(cls, path: str) -> "SourceFile":
        """The file at ``path``, decoded as UTF-8 without a leading byte-order
        mark, so offsets, lines and columns count from the first character
        of the model text. Raises ``OSError`` for a file that cannot be read
        or is not UTF-8."""
        try:
            with open(path, "r", encoding="utf-8-sig") as fh:
                return cls(path, fh.read())
        except UnicodeDecodeError as exc:
            raise OSError(str(exc)) from exc

    def line_col(self, offset: int) -> tuple[int, int]:
        """1-based (line, column) for a character offset."""
        offset = max(0, min(offset, len(self.content)))
        line = bisect.bisect_right(self.line_index, offset) - 1
        return line + 1, offset - self.line_index[line] + 1

    def span(self, start: int, end: int) -> "Span":
        return Span(self, start, end)


class _SpanFields(NamedTuple):
    file: SourceFile
    start: int
    end: int


class Span(_SpanFields):
    """Half-open [start, end) character range within one file."""

    __slots__ = ()

    def __new__(cls, file: SourceFile, start: int, end: int) -> "Span":
        assert 0 <= start <= end <= len(file.content)
        return tuple.__new__(cls, (file, start, end))

    @property
    def line(self) -> int:
        return self.file.line_col(self.start)[0]

    @property
    def column(self) -> int:
        return self.file.line_col(self.start)[1]

    @property
    def text(self) -> str:
        return self.file.content[self.start:self.end]

    def location(self) -> str:
        line, column = self.file.line_col(self.start)
        return f"{self.file.path}:{line}:{column}"

    def __repr__(self) -> str:  # keep reprs short in test failures
        return f"Span({self.location()}+{self.end - self.start})"

