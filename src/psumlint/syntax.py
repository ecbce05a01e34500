"""Recursive-descent parser producing a lossless, recoverable syntax tree.

The grammar covers the notation subset used by the bundled model fixtures:
packages, imports, definitions and usages for the core element kinds,
states with entry/then successions, transitions with trigger/guard/action
clauses, structural constraint expressions, metadata usages, annotation
clauses, measurement blocks and body properties.

Anything outside that inventory is reported as P001 ("unsupported
construct") and parsing resumes at the next ``;`` or ``}``; a best-effort
tree is always returned.
"""

from __future__ import annotations

from decimal import Decimal
from functools import partial
from typing import Callable, Iterator, NamedTuple, Optional, Union

from . import diagnostics
from .diagnostics import Diagnostic
from .lexer import Lexer, Token, TokenKind
from .source import SourceFile, Span

#: declaration keywords usable both bare (usages) and with ``def``
#: (definitions); transition, message, metadata and ref are usage-only
DEF_KEYWORDS = frozenset({
    "part", "item", "port", "attribute", "action", "state", "constraint",
    "analysis", "requirement", "occurrence",
})


class NamePath(NamedTuple):
    """A dotted or ``::``-qualified name path, e.g. ``acc.radars.radarBlocked``."""

    segments: tuple[str, ...]
    span: Span

    @property
    def text(self) -> str:
        return ".".join(self.segments)

    def __repr__(self) -> str:
        return f"NamePath({self.text})"


class TypeRef(NamedTuple):
    path: NamePath
    conjugated: bool = False
    multiplicity: Optional[str] = None


class Value(NamedTuple):
    """Initializer or body-property value: number (with unit), name, string."""

    kind: str  # "number" | "name" | "string" | "boolean"
    span: Span
    magnitude: Optional[Decimal] = None
    unit: Optional[str] = None
    path: Optional[NamePath] = None
    string: Optional[str] = None


class AnnotationEntry(NamedTuple):
    name: str
    codes: tuple[str, ...]
    span: Span


class AnnotationClause(NamedTuple):
    entries: tuple[AnnotationEntry, ...]
    span: Span
    raw: bool = False  # set when the clause contained unparseable content


# -- structural expressions -------------------------------------------------

class Operand(NamedTuple):
    span: Span
    value: Value


class Comparison(NamedTuple):
    span: Span
    op: str
    left: Expr
    right: Expr


class BoolOp(NamedTuple):
    span: Span
    op: str  # "and" | "or"
    items: tuple[Expr, ...]


class NotOp(NamedTuple):
    span: Span
    item: Expr


Expr = Union[Operand, Comparison, BoolOp, NotOp]


# -- syntax tree ------------------------------------------------------------

class AstNode:
    """Generic syntax node; ``kind`` selects which ``attrs`` are meaningful."""

    __slots__ = ("kind", "span", "attrs", "children")

    def __init__(self, kind: str, span: Span, attrs: Optional[dict] = None) -> None:
        self.kind = kind
        self.span = span
        self.attrs = {} if attrs is None else attrs
        self.children: list[AstNode] = []

    def attr(self, name: str, default=None):
        return self.attrs.get(name, default)


class SendClause(NamedTuple):
    signal: NamePath
    args: tuple[Expr, ...]
    via: Optional[NamePath] = None
    to: Optional[NamePath] = None


class AcceptClause(NamedTuple):
    param_name: Optional[str] = None
    typing: Optional[TypeRef] = None
    payload: Optional[NamePath] = None
    at: Optional[NamePath] = None
    via: Optional[NamePath] = None


_TRIVIA_KINDS = (TokenKind.COMMENT, TokenKind.DOC_COMMENT)


class _Cursor:
    """Token cursor that skips comment trivia, stashing it for attachment.

    It pulls tokens from the lexer's stream as the parser consumes them,
    so a file's tokens are never held at once: the cursor keeps the
    current token and, once ``lookahead`` has asked for it, the next one
    with the comments lexed before it. At the EOF token it stays put.
    """

    def __init__(self, tokens: Iterator[Token]):
        self._next = tokens.__next__
        self.pending_trivia: list[Token] = []
        #: the current token
        self.tok = self._pull(self.pending_trivia)
        #: the token after the current one once read, and the comments before it
        self._ahead: Optional[Token] = None
        self._ahead_trivia: list[Token] = []

    def _pull(self, trivia: list[Token]) -> Token:
        """The next significant token; the comments before it go to ``trivia``."""
        tok = self._next()
        while tok.kind in _TRIVIA_KINDS:
            trivia.append(tok)
            tok = self._next()
        return tok

    def lookahead(self) -> Token:
        """The token after the current one."""
        if self._ahead is None:
            if self.tok.kind is TokenKind.EOF:
                return self.tok
            self._ahead = self._pull(self._ahead_trivia)
        return self._ahead

    def advance(self) -> Token:
        """Consume one token; at the EOF token the cursor stays put."""
        tok = self.tok
        if self._ahead is None:
            # ``_pull`` inlined: this runs once per token
            pull, trivia = self._next, self.pending_trivia
            try:
                ahead = pull()
                while ahead.kind in _TRIVIA_KINDS:
                    trivia.append(ahead)
                    ahead = pull()
                self.tok = ahead
            except StopIteration:  # past the EOF token, the end of the stream
                pass
        else:
            self.tok, self._ahead = self._ahead, None
            if self._ahead_trivia:
                self.pending_trivia.extend(self._ahead_trivia)
                self._ahead_trivia.clear()
        return tok

    def take_trivia(self) -> list[Token]:
        trivia, self.pending_trivia = self.pending_trivia, []
        return trivia

    def last_doc_comment(self, since: int) -> Optional[Token]:
        """Take the last block comment out of the trivia from ``since`` on."""
        trivia = self.pending_trivia
        for index in range(len(trivia) - 1, since - 1, -1):
            if trivia[index].kind == TokenKind.DOC_COMMENT:
                return trivia.pop(index)
        return None


MAX_BODY_NESTING = 100

_NAME_KINDS = (TokenKind.IDENTIFIER, TokenKind.QUOTED_IDENTIFIER)


class Parser:
    def __init__(self, source: SourceFile):
        self.source = source
        self.lexer = Lexer(source)
        self.cur = _Cursor(iter(self.lexer))
        #: the parse diagnostics; the lexer keeps the lexical ones
        self.diagnostics: list[Diagnostic] = []
        #: open blocks plus open ``not``/``(`` levels: one budget for both
        self.depth = 0
        #: whether a block has reported the end of file; the blocks around
        #: it close there too and report nothing more
        self.eof_reported = False
        #: the offsets of the last error reported here
        self.error_at: Optional[tuple[int, int]] = None

    # -- helpers ------------------------------------------------------------

    def _span(self, first: Union[Token, Span],
              last: Union[Token, Span, None] = None) -> Span:
        """The span from the start of ``first`` to the end of ``last``, a
        token or span at or after it, or of ``first`` alone."""
        return Span(self.source, first.start, (first if last is None else last).end)

    def _at(self, text: str) -> bool:
        # every text asked about is a keyword, operator or punctuation, and
        # no identifier, literal or bracket token lexes to one of those
        return self.cur.tok.text == text

    def _at_kind(self, kind: TokenKind) -> bool:
        return self.cur.tok.kind == kind

    def _at_name(self) -> bool:
        return self.cur.tok.kind in _NAME_KINDS

    def _eat(self, text: str) -> Optional[Token]:
        if self._at(text):
            return self.cur.advance()
        return None

    def _expect(self, text: str, context: str) -> Optional[Token]:
        if self._at(text):
            return self.cur.advance()
        tok = self.cur.tok
        self._error("P002", tok, f"expected {text!r} {context}, found {tok.text!r}")
        return None

    def _error(self, code: str, at: Union[Token, Span], message: str) -> None:
        """Report an error at the offsets of ``at``, unless it is a P002 at
        those of the last one: a caller failing on the token its clause
        parser failed on."""
        offsets = (at.start, at.end)
        if code == "P002" and offsets == self.error_at:
            return
        self.error_at = offsets
        self.diagnostics.append(diagnostics.make(code, self._span(at), message))

    def _skip(self, to_semicolon: bool) -> Token:
        """Skip over balanced braces to the first ``}`` of this level or EOF,
        left unconsumed, or with ``to_semicolon`` to a ``;`` of this level,
        consumed. Returns the token the skip stopped at."""
        depth = 0
        while True:
            tok = self.cur.tok
            if tok.kind == TokenKind.EOF:
                return tok
            if tok.text == "{":
                depth += 1
            elif tok.text == "}":
                if depth == 0:
                    return tok
                depth -= 1
            elif tok.text == ";" and depth == 0 and to_semicolon:
                return self.cur.advance()
            self.cur.advance()

    def _recover(self) -> None:
        """Skip to the next ``;`` at this nesting level, or stop before ``}``."""
        self._skip(to_semicolon=True)

    def _name_token(self, context: str) -> Optional[Token]:
        if self._at_name():
            return self.cur.advance()
        tok = self.cur.tok
        self._error("P002", tok, f"expected a name {context}, found {tok.text!r}")
        return None

    def _ident_value(self, tok: Token) -> str:
        return tok.value if tok.kind == TokenKind.QUOTED_IDENTIFIER else tok.text

    def _header(self, kind: str, first: Union[Token, Span],
                annotation: Optional[AnnotationClause] = None,
                attrs: Optional[dict] = None, **extra) -> AstNode:
        """A ``kind`` node spanning ``first`` and, before it, the annotation;
        its attrs are ``attrs``, the annotation, those of ``extra`` that are
        set, then the comment trivia read so far."""
        node = AstNode(kind, self._span(annotation.span if annotation else first, first),
                       {} if attrs is None else attrs)
        if annotation:
            node.attrs["annotation"] = annotation
        for name, value in extra.items():
            if value:
                node.attrs[name] = value
        trivia = self.cur.take_trivia()
        if trivia:
            node.attrs["trivia"] = tuple(t.text for t in trivia)
        return node

    def _parse_clauses(self, table: dict, attrs: dict,
                       node: Optional[AstNode] = None) -> dict:
        """Parse clauses, in any order, while the current token opens one
        of ``table``'s; each entry is called with ``attrs`` and ``node``."""
        while (clause := table.get(self.cur.tok.text)) is not None:
            clause(self, attrs, node)
        return attrs

    # -- paths, types, values -----------------------------------------------

    def parse_path(self, context: str) -> Optional[NamePath]:
        first = self._name_token(context)
        return None if first is None else self._path_from(first)

    def _path_from(self, first: Token) -> NamePath:
        """The path that begins with the name ``first``, already consumed."""
        segments = [self._ident_value(first)]
        last = first
        while self.cur.tok.text in (".", "::") and self.cur.lookahead().kind in _NAME_KINDS:
            self.cur.advance()
            last = self.cur.advance()
            segments.append(self._ident_value(last))
        return NamePath(tuple(segments), self._span(first, last))

    def parse_type_ref(self, context: str) -> Optional[TypeRef]:
        conjugated = bool(self._eat("~"))
        path = self.parse_path(context)
        if path is None:
            return None
        multiplicity = None
        if self._at_kind(TokenKind.MULTIPLICITY_BRACKET):
            multiplicity = self.cur.advance().value
        return TypeRef(path=path, conjugated=conjugated, multiplicity=multiplicity)

    def parse_typing(self, context: Optional[str] = None) -> Optional[TypeRef]:
        """The type of a ``:``, ``defined by`` or ``typed by`` clause, from
        its first token; ``context`` replaces the clause's own wording in
        errors."""
        opener = self.cur.advance().text
        if opener != ":":
            self._expect("by", f"in '{opener} by'")
            return self.parse_type_ref(context or f"after '{opener} by'")
        return self.parse_type_ref(context or "after ':'")

    def parse_value(self, context: str) -> Optional[Value]:
        tok = self.cur.tok
        if tok.kind == TokenKind.NUMBER:
            self.cur.advance()
            unit_tok = None
            if self._at_kind(TokenKind.UNIT_BRACKET):
                unit_tok = self.cur.advance()
            return Value(kind="number", span=self._span(tok, unit_tok),
                         magnitude=Decimal(tok.text),
                         unit=unit_tok.value if unit_tok else None)
        if tok.kind == TokenKind.STRING:
            self.cur.advance()
            return Value(kind="string", span=self._span(tok), string=tok.value)
        if tok.text in ("true", "false") and tok.kind == TokenKind.KEYWORD:
            self.cur.advance()
            return Value(kind="boolean", span=self._span(tok), string=tok.text)
        if tok.kind in _NAME_KINDS:
            path = self.parse_path(context)
            return Value(kind="name", span=path.span, path=path)
        self._error("P002", tok, f"expected a value {context}, found {tok.text!r}")
        return None

    # -- annotations ----------------------------------------------------------

    def parse_annotation(self) -> Optional[AnnotationClause]:
        """Parse one annotation clause; cursor must sit on annotation-open."""
        if not self._at_kind(TokenKind.ANNOTATION_OPEN):
            return None
        open_tok = self.cur.advance()
        entries: list[AnnotationEntry] = []
        raw = False
        last = open_tok
        while True:
            tok = self.cur.tok
            if tok.kind == TokenKind.ANNOTATION_CLOSE:
                last = self.cur.advance()
                break
            if tok.kind == TokenKind.EOF:
                break
            if tok.kind not in (TokenKind.IDENTIFIER, TokenKind.KEYWORD):
                self._error("P002", tok,
                            f"unexpected {tok.text!r} inside annotation")
                raw = True
                # skip to close marker or give up at EOF
                while self.cur.tok.kind not in (TokenKind.ANNOTATION_CLOSE, TokenKind.EOF):
                    self.cur.advance()
                continue
            name_tok = self.cur.advance()
            codes: list[str] = []
            closer = None
            if self._at("<"):
                self.cur.advance()
                while not self._at(">") and self.cur.tok.kind != TokenKind.EOF:
                    code_tok = self.cur.tok
                    if code_tok.kind in (TokenKind.IDENTIFIER, TokenKind.KEYWORD,
                                         TokenKind.NUMBER):
                        codes.append(code_tok.text)
                        self.cur.advance()
                    elif self._at(","):
                        self.cur.advance()
                    else:
                        self._error("P002", code_tok,
                                    f"unexpected {code_tok.text!r} in annotation arguments")
                        raw = True
                        self.cur.advance()
                closer = self._eat(">")
            entries.append(AnnotationEntry(name=name_tok.text, codes=tuple(codes),
                                           span=self._span(name_tok, closer)))
            self._eat(",")
        return AnnotationClause(entries=tuple(entries),
                                span=self._span(open_tok, last), raw=raw)

    # -- top level ------------------------------------------------------------

    def parse_file(self) -> AstNode:
        root = AstNode(kind="Root", span=self.source.span(0, len(self.source.content)))
        while self.cur.tok.kind != TokenKind.EOF:
            annotation = self.parse_annotation()
            if self._at("package"):
                root.children.append(self.parse_package(annotation))
            else:
                tok = self.cur.tok
                self._error("P001", tok,
                            f"unsupported construct at top level: {tok.text!r}")
                self._recover()
                self._eat("}")
        return root

    def parse_package(self, annotation: Optional[AnnotationClause]) -> AstNode:
        start = self.cur.advance()  # 'package'
        name_tok = self._name_token("after 'package'")
        node = self._header("Package", start, annotation, {
            "name": self._ident_value(name_tok) if name_tok else None,
        })
        if self._expect("{", "to open the package body"):
            close = self.parse_block(node, partial(self.parse_statement, "general"), "body")
            node.span = self._span(node.span, close or self.cur.tok)
        return node

    # -- blocks -----------------------------------------------------------------

    def parse_block(self, node: AstNode, item: Callable[[], Union[AstNode, None, bool]],
                    what: str, where: str = "") -> Optional[Token]:
        """Parse items into ``node`` up to the matching ``}`` (already past
        ``{``); returns the ``}``, or None at EOF.

        ``item()`` parses one item at the current token: it returns the
        item's node, None when it adds no node, or False when the token
        starts no item; then the loop reports ``unexpected token`` followed
        by ``where``. A block that would open past MAX_BODY_NESTING levels,
        blocks and expression levels together, is reported and skipped.
        At EOF only the innermost open block reports that it is never
        closed.
        """
        if self.depth >= MAX_BODY_NESTING:
            self._error("P001", self.cur.tok,
                        f"nesting deeper than {MAX_BODY_NESTING} levels")
            closer = self._skip(to_semicolon=False)
            return self.cur.advance() if closer.text == "}" else None
        self.depth += 1
        try:
            while True:
                tok = self.cur.tok
                if tok.kind == TokenKind.EOF:
                    if not self.eof_reported:
                        self.eof_reported = True
                        self._error("P002", tok, f"{what} is never closed")
                    return None
                if tok.text == "}":
                    return self.cur.advance()
                if tok.text == ";":
                    self.cur.advance()
                    continue
                child = item()
                if child is False:
                    tok = self.cur.tok
                    self._error("P002", tok, f"unexpected token {tok.text!r}{where}")
                    self._recover()
                elif child is not None:
                    node.children.append(child)
        finally:
            self.depth -= 1

    def parse_statement(self, body_kind: str) -> Union[AstNode, None, bool]:
        annotation = self.parse_annotation()
        tok = self.cur.tok

        if tok.kind == TokenKind.KEYWORD:
            word = tok.text
            if word == "doc":
                return self.parse_doc()
            if word == "package":
                return self.parse_package(annotation)
            if word in ("private", "public"):
                self.cur.advance()
                if self._at("import"):
                    return self.parse_import(visibility=word)
                return self.parse_member(annotation, visibility=word)
            if word == "import":
                return self.parse_import(visibility="public")
            if word == "entry":
                return self.parse_entry()
            if word == "then":
                return self.parse_succession()
            if word == "transition":
                return self.parse_transition(annotation)
            if word == "metadata":
                return self.parse_metadata(annotation)
            if word == "measurement" and self.cur.lookahead().text == "{":
                return self.parse_measurement()
            if body_kind == "constraint" and word in ("not", "true", "false"):
                return self.parse_expression_statement()
            return self.parse_member(annotation, visibility=None)

        if tok.kind in _NAME_KINDS:
            if self.cur.lookahead().text == "=":
                return self.parse_body_property()
            if body_kind == "constraint":
                return self.parse_expression_statement()
            self._error("P001", tok, f"unsupported construct: {tok.text!r}")
            self._recover()
            return None

        if body_kind == "constraint" and (
                tok.kind == TokenKind.NUMBER or tok.text in ("(", "not", "true", "false")):
            return self.parse_expression_statement()
        return False

    def parse_member(self, annotation: Optional[AnnotationClause],
                     visibility: Optional[str]) -> Optional[AstNode]:
        """Definition or usage statement starting at a declaration keyword."""
        direction = None
        modifiers: list[str] = []

        if self.cur.tok.text in ("in", "out"):
            direction = self.cur.advance().text
        self._eat("abstract")  # accepted, and changes no analysis
        tok = self.cur.tok
        word = tok.text
        while word in ("ref", "perform", "exhibit", "do", "assume", "entry"):
            modifiers.append(word)
            self.cur.advance()
            if word == "do" and self._at("send"):
                # standalone "do send S(...)" acts as an anonymous action
                return self.parse_usage(annotation, visibility, direction,
                                        modifiers, keyword="action")
            tok = self.cur.tok
            word = tok.text

        if word in ("subject", "objective", "return", "require"):
            modifiers.append(word)
            self.cur.advance()
            return self.parse_usage(annotation, visibility, direction, modifiers,
                                    keyword=None)

        if word in DEF_KEYWORDS:
            if self.cur.lookahead().text == "def":
                if modifiers or direction:
                    self._error("P002", tok,
                                "modifiers are not allowed on definitions")
                self.cur.advance()
                self.cur.advance()
                return self.parse_definition(annotation, keyword=word)
            self.cur.advance()
            return self.parse_usage(annotation, visibility, direction, modifiers,
                                    keyword=word)
        if word == "message":
            # transition/metadata/ref have their own entry points above
            self.cur.advance()
            return self.parse_usage(annotation, visibility, direction, modifiers,
                                    keyword=word)
        if modifiers or direction:
            # e.g. "ref ::> chain" or "in status = x" with no declaration keyword
            return self.parse_usage(annotation, visibility, direction, modifiers,
                                    keyword=None)
        self._error("P001", tok, f"unsupported construct: {word!r}")
        self._recover()
        return None

    # -- declarations -----------------------------------------------------------

    def parse_definition(self, annotation: Optional[AnnotationClause],
                         keyword: str) -> AstNode:
        start = self.cur.tok
        name_tok = self._name_token(f"after '{keyword} def'")
        node = self._header("Definition", start, annotation, {
            "keyword": keyword,
            "name": self._ident_value(name_tok) if name_tok else None,
        })
        if self._at_kind(TokenKind.MULTIPLICITY_BRACKET):
            node.attrs["multiplicity"] = self.cur.advance().value
        self._parse_clauses(_DEFINITION_RELATIONSHIPS, node.attrs)
        self._finish_declaration(node, body_kind="constraint" if keyword == "constraint"
                                 else "general")
        return node

    def parse_usage(self, annotation: Optional[AnnotationClause],
                    visibility: Optional[str], direction: Optional[str],
                    modifiers: list[str], keyword: Optional[str],
                    inline: bool = False) -> AstNode:
        node = self._header("Usage", self.cur.tok, annotation, {"keyword": keyword},
                            visibility=visibility, direction=direction,
                            modifiers=tuple(modifiers))
        if self._at_name():
            name_tok = self.cur.advance()
            if self._at(".") or self._at("::"):
                # the "name" begins a multi-segment reference target,
                # e.g. "require a.b;"
                node.attrs["target"] = self._path_from(name_tok)
            else:
                node.attrs["name"] = self._ident_value(name_tok)
        if self._at_kind(TokenKind.MULTIPLICITY_BRACKET):
            node.attrs["multiplicity"] = self.cur.advance().value
        # relationship clauses, then action clauses, each in any order
        self._parse_clauses(_USAGE_RELATIONSHIPS, node.attrs)
        self._parse_clauses(_USAGE_ACTIONS, node.attrs)
        if self._eat("="):
            value = self.parse_value("after '='")
            if value:
                node.attrs["initializer"] = value
        if self._eat("parallel"):
            node.attrs["parallel"] = True
        body_kind = "constraint" if (keyword == "constraint" or "assume" in modifiers) \
            else "general"
        # a clause-embedded usage (e.g. a transition's "do action X : T") has
        # an optional body, but no ';' terminator of its own
        self._finish_declaration(node, body_kind=body_kind, required=not inline)
        return node

    def _usage_typing(self, attrs: dict, _node) -> None:
        ref = self.parse_typing()
        if ref:
            attrs["typing"] = ref

    def _finish_declaration(self, node: AstNode, body_kind: str,
                            required: bool = True) -> None:
        if self._at(";"):
            node.span = self._span(node.span, self.cur.advance())
        elif self._eat("{"):
            close = self.parse_block(node, partial(self.parse_statement, body_kind), "body")
            node.span = self._span(node.span, close or self.cur.tok)
        elif required:
            tok = self.cur.tok
            self._error("P002", tok,
                        f"expected ';' or '{{' to finish the declaration, found {tok.text!r}")
            self._recover()

    # -- specific statement forms -------------------------------------------

    def parse_import(self, visibility: str) -> AstNode:
        start = self.cur.advance()  # 'import'
        path = self.parse_path("after 'import'")
        wildcard = False
        if self._eat("::"):
            if self._eat("*"):
                wildcard = True
            else:
                self._error("P002", self.cur.tok, "expected '*' after '::'")
        elif self._eat("*"):
            wildcard = True
        node = self._header("Import", start, None, {
            "target": path, "wildcard": wildcard, "visibility": visibility,
        })
        self._expect(";", "after import")
        return node

    def parse_doc(self) -> AstNode:
        since = len(self.cur.pending_trivia)
        start = self.cur.advance()  # 'doc'
        # the comment body was stashed as trivia when advancing past 'doc'
        body = self.cur.last_doc_comment(since)
        node = AstNode(kind="DocComment", span=self._span(start),
                       attrs={"text": body.text if body else ""})
        if body is None:
            self._error("P002", start, "expected a comment after 'doc'")
        self._eat(";")
        return node

    def parse_entry(self) -> AstNode:
        start = self.cur.advance()  # 'entry'
        node = self._header("EntryAction", start)
        if self._eat(";"):
            return node
        annotation = self.parse_annotation()
        if self._eat("action"):
            node.children.append(self.parse_usage(annotation, None, None,
                                                  ["entry"], keyword="action"))
        else:
            tok = self.cur.tok
            self._error("P002", tok,
                        f"expected ';' or 'action' after 'entry', found {tok.text!r}")
            self._recover()
        return node

    def parse_succession(self) -> AstNode:
        start = self.cur.advance()  # 'then'
        node = self._header("SuccessionThen", start)
        annotation = self.parse_annotation()
        if annotation or (self.cur.tok.kind == TokenKind.KEYWORD
                          and self.cur.tok.text in DEF_KEYWORDS):
            inline = self.parse_member(annotation, visibility=None)
            if inline is not None:
                node.children.append(inline)
            return node
        target = self.parse_path("after 'then'")
        node.attrs["target"] = target
        self._expect(";", "after succession target")
        return node

    def parse_transition(self, annotation: Optional[AnnotationClause]) -> AstNode:
        start = self.cur.advance()  # 'transition'
        node = self._header("Transition", start, annotation)
        if self._at_name():
            name_tok = self.cur.advance()
            if self._at("then"):
                # "transition S then T;" names no transition: S is the source
                node.attrs["first"] = NamePath((self._ident_value(name_tok),),
                                               self._span(name_tok))
            else:
                node.attrs["name"] = self._ident_value(name_tok)
        self._parse_clauses(_TRANSITION_CLAUSES, node.attrs, node)
        self._finish_declaration(node, body_kind="general")
        return node

    def _transition_do(self, attrs: dict, node: AstNode) -> None:
        self.cur.advance()  # 'do'
        if self._eat("send"):
            attrs["do_send"] = self.parse_send()
        elif self._eat("action"):
            node.children.append(self.parse_usage(None, None, None, ["do"],
                                                  keyword="action", inline=True))
        else:
            tok = self.cur.tok
            self._error("P002", tok,
                        f"expected 'send' or 'action' after 'do', found {tok.text!r}")

    def parse_send(self) -> SendClause:
        """The clause after ``send``: signal, arguments, ``via`` and ``to``."""
        signal = self.parse_path("after 'send'")
        args: list[Expr] = []
        if self._eat("("):
            while not self._at(")") and self.cur.tok.kind != TokenKind.EOF:
                arg = self.parse_expression()
                if arg is not None:
                    args.append(arg)
                if not self._eat(","):
                    break
            self._expect(")", "to close the argument list")
        return SendClause(signal=signal, args=tuple(args),
                          **self._parse_clauses(_SEND_CLAUSES, {}))

    def parse_accept(self) -> AcceptClause:
        """The clause after ``accept``: ``at`` a time, or a payload or a
        typed parameter, then an optional ``via``."""
        if self._eat("at"):
            return AcceptClause(at=self.parse_path("after 'accept at'"))
        first = self.parse_path("after 'accept'")
        if self.cur.tok.text not in _TYPING:
            return AcceptClause(payload=first, via=self._via())
        typing = self.parse_typing("in accept parameter typing")
        param_name = first.segments[0] if first and len(first.segments) == 1 else None
        return AcceptClause(param_name=param_name, typing=typing, via=self._via())

    def _via(self) -> Optional[NamePath]:
        return self.parse_path("after 'via'") if self._eat("via") else None

    def parse_metadata(self, annotation: Optional[AnnotationClause]) -> AstNode:
        start = self.cur.advance()  # 'metadata'
        node = self._header("MetadataUsage", start, annotation)
        if self._at_name():
            node.attrs["name"] = self._ident_value(self.cur.advance())
        if self.cur.tok.text in _TYPING:
            node.attrs["typing"] = self.parse_typing()
        if self._eat("about"):
            node.attrs["about"] = self.parse_path("after 'about'")
        if self._at(";"):
            node.span = self._span(node.span, self.cur.advance())
        elif self._expect("{", "to open the metadata body"):
            close = self.parse_block(node, self._metadata_item, "metadata body",
                                     " in metadata body")
            node.span = self._span(node.span, close or self.cur.tok)
        return node

    def _metadata_item(self) -> Union[AstNode, bool]:
        """``name = value;`` or ``name { ... }`` in a metadata body."""
        if self.cur.tok.kind not in (*_NAME_KINDS, TokenKind.KEYWORD):
            return False
        name_tok = self.cur.advance()
        prop = AstNode(kind="BodyProperty", span=self._span(name_tok),
                       attrs={"name": self._ident_value(name_tok)})
        if self._eat("="):
            prop.attrs["value"] = self.parse_value("in metadata property")
            self._expect(";", "after metadata property")
        elif self._eat("{"):
            self.parse_block(prop, self._metadata_item, "metadata body",
                             " in metadata body")
        else:
            self._error("P002", self.cur.tok,
                        "expected '=' or '{' in metadata body")
            self._recover()
        return prop

    def parse_measurement(self) -> AstNode:
        start = self.cur.advance()  # 'measurement'
        node = self._header("MeasurementBlock", start)
        self.cur.advance()  # '{', seen by parse_statement
        close = self.parse_block(node, self._measurement_item, "measurement block",
                                 " in measurement block")
        if close:
            node.span = self._span(node.span, close)
        return node

    def _measurement_item(self) -> Union[AstNode, bool]:
        if not self._at_kind(TokenKind.IDENTIFIER):
            return False
        return self.parse_body_property()

    def parse_body_property(self) -> AstNode:
        name_tok = self.cur.advance()
        node = self._header("BodyProperty", name_tok, None,
                            {"name": self._ident_value(name_tok)})
        if not self._expect("=", "in property assignment"):
            self._recover()
            return node
        node.attrs["value"] = self.parse_value("in property assignment")
        self._expect(";", "after property assignment")
        return node

    # -- expressions ------------------------------------------------------------

    def parse_expression_statement(self) -> AstNode:
        expr = self.parse_expression()
        node = self._header("ConstraintExpr", expr.span if expr else self.cur.tok,
                            None, {"expr": expr})
        # the terminator is optional only directly before the body close
        if not self._eat(";") and not self._at("}"):
            self._error("P002", self.cur.tok,
                        "expected ';' after the expression")
            self._recover()
        return node

    def parse_expression(self, op: str = "or") -> Optional[Expr]:
        """Operands joined by ``op``: ``or`` joins ``and`` chains, and ``and``
        (also spelled ``&``) joins comparisons."""
        operand = (self._parse_comparison if op == "and"
                   else partial(self.parse_expression, "and"))
        left = operand()
        if left is None:
            return None
        items = [left]
        while self.cur.tok.text in _BOOL_SPELLINGS[op]:
            self.cur.advance()
            nxt = operand()
            if nxt is None:
                break
            items.append(nxt)
        if len(items) == 1:
            return left
        return BoolOp(span=self._span(left.span, items[-1].span), op=op, items=tuple(items))

    def _parse_comparison(self) -> Optional[Expr]:
        left = self._parse_unary()
        if left is None:
            return None
        op = self.cur.tok.text
        if op not in ("==", ">=", "<=", "<", ">"):
            return left
        self.cur.advance()
        right = self._parse_unary()
        if right is None:
            return left
        return Comparison(span=self._span(left.span, right.span), op=op, left=left,
                          right=right)

    def _nest(self) -> bool:
        """Consume a ``not`` or ``(`` and enter one more expression level;
        past MAX_BODY_NESTING levels, blocks included, report it and
        recover instead."""
        if self.depth >= MAX_BODY_NESTING:
            self._error("P001", self.cur.tok, "expression nests too deeply")
            self._recover()
            return False
        self.cur.advance()
        self.depth += 1
        return True

    def _parse_unary(self) -> Optional[Expr]:
        tok = self.cur.tok
        if tok.text != "not":
            return self._parse_primary()
        if not self._nest():
            return None
        item = self._parse_unary()
        self.depth -= 1
        if item is None:
            return None
        return NotOp(span=self._span(tok, item.span), item=item)

    def _parse_primary(self) -> Optional[Expr]:
        tok = self.cur.tok
        if tok.text == "(":
            if not self._nest():
                return None
            inner = self.parse_expression()
            self.depth -= 1
            self._expect(")", "to close the group")
            return inner
        if tok.kind in (TokenKind.NUMBER, TokenKind.STRING, *_NAME_KINDS) \
                or tok.text in ("true", "false"):
            value = self.parse_value("in expression")
            if value is None:
                return None
            return Operand(span=value.span, value=value)
        self._error("P002", tok, f"expected an expression, found {tok.text!r}")
        return None


# -- clause tables: the token that opens a clause -> its parser ----------------

def _set(attr: str, parse: Callable, *args):
    """A clause that stores what follows its keyword, parsed or None."""
    def clause(parser: Parser, attrs: dict, _node) -> None:
        parser.cur.advance()
        attrs[attr] = parse(parser, *args)
    return clause


def _append(attr: str, parse: Callable, context: str):
    """A clause that appends each item of the ``,``-separated list after
    its keyword that parses."""
    def clause(parser: Parser, attrs: dict, _node) -> None:
        parser.cur.advance()
        item_context = context
        while True:
            value = parse(parser, item_context)
            if value:
                attrs.setdefault(attr, []).append(value)
            if not parser._eat(","):
                return
            item_context = "after ','"
    return clause


_SEND_CLAUSES = {
    "via": _set("via", Parser.parse_path, "after 'via'"),
    "to": _set("to", Parser.parse_path, "after 'to'"),
}
#: the tokens that open a typing clause: ``:``, ``defined by``, ``typed by``
_TYPING = (":", "defined", "typed")
#: each SysML v2 spelling of a relationship -> the attribute it fills
_DEFINITION_RELATIONSHIPS = {
    "specializes": _append("specializes", Parser.parse_type_ref, "after 'specializes'"),
    ":>": _append("specializes", Parser.parse_type_ref, "after ':>'"),
}
_USAGE_RELATIONSHIPS = {
    **dict.fromkeys(_TYPING, Parser._usage_typing),
    "specializes": _append("specializes_list", Parser.parse_type_ref, "after 'specializes'"),
    ":>": _append("subsets", Parser.parse_path, "after ':>'"),
    "subsets": _append("subsets", Parser.parse_path, "after 'subsets'"),
    ":>>": _append("redefines", Parser.parse_path, "after redefinition"),
    "redefines": _append("redefines", Parser.parse_path, "after redefinition"),
    "::>": _append("refsubsets", Parser.parse_path, "after '::>'"),
    "references": _append("refsubsets", Parser.parse_path, "after 'references'"),
}
_USAGE_ACTIONS = {
    "send": _set("send", Parser.parse_send),
    "accept": _set("accept", Parser.parse_accept),
    **_SEND_CLAUSES,
}
_TRANSITION_CLAUSES = {
    "first": _set("first", Parser.parse_path, "after 'first'"),
    "accept": _USAGE_ACTIONS["accept"],
    "via": _SEND_CLAUSES["via"],
    "if": _set("guard", Parser.parse_expression),
    "do": Parser._transition_do,
    "then": _set("then", Parser.parse_path, "after 'then'"),
}
_BOOL_SPELLINGS = {"or": ("or",), "and": ("&", "and")}


def parse_file(source: SourceFile) -> tuple[AstNode, list[Diagnostic]]:
    """Parse one file into a Root node; never raises on malformed input."""
    parser = Parser(source)
    root = parser.parse_file()
    # the parse ends at the EOF token, after every lexical diagnostic
    return root, parser.lexer.diagnostics + parser.diagnostics
