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

from dataclasses import dataclass, field, fields
from decimal import Decimal
from typing import Optional

from . import diagnostics
from .diagnostics import Diagnostic
from .lexer import Token, TokenKind, tokenize
from .source import SourceFile, Span, cover

#: declaration keywords usable both bare (usages) and with ``def``
#: (definitions); transition, message, metadata and ref are usage-only
DEF_KEYWORDS = frozenset({
    "part", "item", "port", "attribute", "action", "state", "constraint",
    "analysis", "requirement", "occurrence",
})


@dataclass(frozen=True)
class NamePath:
    """A dotted or ``::``-qualified name path, e.g. ``acc.radars.radarBlocked``."""

    segments: tuple[str, ...]
    span: Span

    @property
    def text(self) -> str:
        return ".".join(self.segments)

    def __repr__(self) -> str:
        return f"NamePath({self.text})"


@dataclass(frozen=True)
class TypeRef:
    path: NamePath
    conjugated: bool = False
    multiplicity: Optional[str] = None


@dataclass(frozen=True)
class Value:
    """Initializer or body-property value: number (with unit), name, string."""

    kind: str  # "number" | "name" | "string" | "boolean"
    span: Span
    magnitude: Optional[Decimal] = None
    unit: Optional[str] = None
    path: Optional[NamePath] = None
    string: Optional[str] = None


@dataclass(frozen=True)
class AnnotationEntry:
    name: str
    codes: tuple[str, ...]
    span: Span


@dataclass(frozen=True)
class AnnotationClause:
    entries: tuple[AnnotationEntry, ...]
    span: Span
    raw: bool = False  # set when the clause contained unparseable content


# -- structural expressions -------------------------------------------------

@dataclass(frozen=True)
class Expr:
    span: Span


@dataclass(frozen=True)
class Operand(Expr):
    value: Value


@dataclass(frozen=True)
class Comparison(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class BoolOp(Expr):
    op: str  # "and" | "or"
    items: tuple[Expr, ...]


@dataclass(frozen=True)
class NotOp(Expr):
    item: Expr


# -- syntax tree ------------------------------------------------------------

@dataclass
class AstNode:
    """Generic syntax node; ``kind`` selects which ``attrs`` are meaningful."""

    kind: str
    span: Span
    attrs: dict = field(default_factory=dict)
    children: list["AstNode"] = field(default_factory=list)

    def attr(self, name: str, default=None):
        return self.attrs.get(name, default)

    def structure(self):
        """Hashable structural digest, used by determinism checks."""
        def norm(v):
            if isinstance(v, AstNode):
                return v.structure()
            if isinstance(v, (list, tuple)):
                return tuple(norm(x) for x in v)
            if isinstance(v, dict):
                return tuple(sorted((k, norm(x)) for k, x in v.items()))
            if isinstance(v, Span):
                return (v.start, v.end)
            if isinstance(v, (NamePath, TypeRef, Value, AnnotationClause,
                              AnnotationEntry, Expr)):
                return repr_structural(v)
            if isinstance(v, (SendClause, AcceptClause)):
                return (type(v).__name__,
                        tuple(norm(getattr(v, f.name)) for f in fields(v)))
            return v
        return (self.kind, norm(self.attrs), tuple(c.structure() for c in self.children))


def repr_structural(obj) -> str:
    if isinstance(obj, NamePath):
        return f"path:{obj.text}"
    if isinstance(obj, TypeRef):
        return f"type:{'~' if obj.conjugated else ''}{obj.path.text}[{obj.multiplicity}]"
    if isinstance(obj, Value):
        return f"value:{obj.kind}:{obj.magnitude}:{obj.unit}:{obj.path.text if obj.path else obj.string}"
    if isinstance(obj, AnnotationEntry):
        return f"ann:{obj.name}<{','.join(obj.codes)}>"
    if isinstance(obj, AnnotationClause):
        return "clause:" + ";".join(repr_structural(e) for e in obj.entries)
    if isinstance(obj, Operand):
        return "op:" + repr_structural(obj.value)
    if isinstance(obj, Comparison):
        return f"cmp:{obj.op}({repr_structural(obj.left)},{repr_structural(obj.right)})"
    if isinstance(obj, BoolOp):
        return f"{obj.op}(" + ",".join(repr_structural(i) for i in obj.items) + ")"
    if isinstance(obj, NotOp):
        return f"not({repr_structural(obj.item)})"
    return repr(obj)


@dataclass(frozen=True)
class SendClause:
    signal: NamePath
    args: tuple[Expr, ...]
    via: Optional[NamePath] = None
    to: Optional[NamePath] = None


@dataclass(frozen=True)
class AcceptClause:
    param_name: Optional[str] = None
    typing: Optional[TypeRef] = None
    payload: Optional[NamePath] = None
    at: Optional[NamePath] = None
    via: Optional[NamePath] = None


class _Cursor:
    """Token cursor that skips comment trivia, stashing it for attachment.

    The significant tokens are split out once, with the comments lexed
    before each one, so peeking and advancing are index arithmetic.
    """

    def __init__(self, tokens: list[Token]):
        self.tokens: list[Token] = []
        self.trivia_before: dict[int, list[Token]] = {}
        comments: list[Token] = []
        for tok in tokens:
            if tok.kind is TokenKind.COMMENT or tok.kind is TokenKind.DOC_COMMENT:
                comments.append(tok)
            else:
                if comments:
                    self.trivia_before[len(self.tokens)] = comments
                    comments = []
                self.tokens.append(tok)
        self.index = 0
        self.pending_trivia: list[Token] = list(self.trivia_before.get(0, ()))

    def peek(self, ahead: int = 0) -> Token:
        try:
            return self.tokens[self.index + ahead]
        except IndexError:
            return self.tokens[-1]

    def advance(self) -> Token:
        """Consume one token; at the final EOF token the cursor stays put."""
        tok = self.tokens[self.index]
        if self.index + 1 < len(self.tokens):
            self.index += 1
            self.pending_trivia.extend(self.trivia_before.get(self.index, ()))
        return tok

    def take_trivia(self) -> list[Token]:
        trivia, self.pending_trivia = self.pending_trivia, []
        return trivia

    def last_doc_comment(self) -> Optional[Token]:
        for tok in reversed(self.pending_trivia):
            if tok.kind == TokenKind.DOC_COMMENT:
                self.pending_trivia.remove(tok)
                return tok
        return None


MAX_BODY_NESTING = 100


class Parser:
    def __init__(self, source: SourceFile):
        self.source = source
        tokens, lex_diags = tokenize(source)
        self.cur = _Cursor(tokens)
        self.diagnostics: list[Diagnostic] = list(lex_diags)
        self.body_depth = 0
        self.expr_depth = 0

    # -- helpers ------------------------------------------------------------

    def _at(self, text: str) -> bool:
        tok = self.cur.peek()
        return tok.text == text and tok.kind in (
            TokenKind.KEYWORD, TokenKind.OPERATOR, TokenKind.PUNCTUATION)

    def _at_kind(self, kind: TokenKind) -> bool:
        return self.cur.peek().kind == kind

    def _at_name(self) -> bool:
        return self.cur.peek().kind in (TokenKind.IDENTIFIER, TokenKind.QUOTED_IDENTIFIER)

    def _eat(self, text: str) -> Optional[Token]:
        if self._at(text):
            return self.cur.advance()
        return None

    def _expect(self, text: str, context: str) -> Optional[Token]:
        if self._at(text):
            return self.cur.advance()
        tok = self.cur.peek()
        self._error("P002", tok.span, f"expected {text!r} {context}, found {tok.text!r}")
        return None

    def _error(self, code: str, span: Span, message: str) -> None:
        self.diagnostics.append(diagnostics.make(code, span, message))

    def _recover(self) -> None:
        """Skip to the next ``;`` at this nesting level, or stop before ``}``."""
        depth = 0
        while True:
            tok = self.cur.peek()
            if tok.kind == TokenKind.EOF:
                return
            if tok.text == "{":
                depth += 1
            elif tok.text == "}":
                if depth == 0:
                    return
                depth -= 1
            elif tok.text == ";" and depth == 0:
                self.cur.advance()
                return
            self.cur.advance()

    def _name_token(self, context: str) -> Optional[Token]:
        if self._at_name():
            return self.cur.advance()
        tok = self.cur.peek()
        self._error("P002", tok.span, f"expected a name {context}, found {tok.text!r}")
        return None

    def _ident_value(self, tok: Token) -> str:
        return tok.value if tok.kind == TokenKind.QUOTED_IDENTIFIER else tok.text

    def _attach_trivia(self, node: AstNode) -> AstNode:
        trivia = self.cur.take_trivia()
        if trivia:
            node.attrs["trivia"] = tuple(t.text for t in trivia)
        return node

    # -- paths, types, values -----------------------------------------------

    def parse_path(self, context: str) -> Optional[NamePath]:
        first = self._name_token(context)
        if first is None:
            return None
        segments = [self._ident_value(first)]
        start_span = first.span
        end_span = first.span
        while (self._at(".") or self._at("::")) and self.cur.peek(1).kind in (
                TokenKind.IDENTIFIER, TokenKind.QUOTED_IDENTIFIER):
            self.cur.advance()
            seg = self.cur.advance()
            segments.append(self._ident_value(seg))
            end_span = seg.span
        return NamePath(tuple(segments), cover(start_span, end_span))

    def parse_type_ref(self, context: str) -> Optional[TypeRef]:
        conjugated = bool(self._eat("~"))
        path = self.parse_path(context)
        if path is None:
            return None
        multiplicity = None
        if self._at_kind(TokenKind.MULTIPLICITY_BRACKET):
            multiplicity = self.cur.advance().value
        return TypeRef(path=path, conjugated=conjugated, multiplicity=multiplicity)

    def parse_value(self, context: str) -> Optional[Value]:
        tok = self.cur.peek()
        if tok.kind == TokenKind.NUMBER:
            self.cur.advance()
            unit = None
            span = tok.span
            if self._at_kind(TokenKind.UNIT_BRACKET):
                unit_tok = self.cur.advance()
                unit = unit_tok.value
                span = cover(span, unit_tok.span)
            return Value(kind="number", span=span, magnitude=Decimal(tok.text), unit=unit)
        if tok.kind == TokenKind.STRING:
            self.cur.advance()
            return Value(kind="string", span=tok.span, string=tok.value)
        if tok.text in ("true", "false") and tok.kind == TokenKind.KEYWORD:
            self.cur.advance()
            return Value(kind="boolean", span=tok.span, string=tok.text)
        if tok.kind in (TokenKind.IDENTIFIER, TokenKind.QUOTED_IDENTIFIER):
            path = self.parse_path(context)
            if path is None:
                return None
            return Value(kind="name", span=path.span, path=path)
        self._error("P002", tok.span, f"expected a value {context}, found {tok.text!r}")
        return None

    # -- annotations ----------------------------------------------------------

    def parse_annotation(self) -> Optional[AnnotationClause]:
        """Parse one annotation clause; cursor must sit on annotation-open."""
        if not self._at_kind(TokenKind.ANNOTATION_OPEN):
            return None
        open_tok = self.cur.advance()
        entries: list[AnnotationEntry] = []
        raw = False
        end_span = open_tok.span
        while True:
            tok = self.cur.peek()
            if tok.kind == TokenKind.ANNOTATION_CLOSE:
                end_span = self.cur.advance().span
                break
            if tok.kind == TokenKind.EOF:
                break
            if tok.kind not in (TokenKind.IDENTIFIER, TokenKind.KEYWORD):
                self._error("P002", tok.span,
                            f"unexpected {tok.text!r} inside annotation")
                raw = True
                # skip to close marker or give up at EOF
                while self.cur.peek().kind not in (TokenKind.ANNOTATION_CLOSE, TokenKind.EOF):
                    self.cur.advance()
                continue
            name_tok = self.cur.advance()
            codes: list[str] = []
            entry_span = name_tok.span
            if self._at("<"):
                self.cur.advance()
                while not self._at(">") and self.cur.peek().kind != TokenKind.EOF:
                    code_tok = self.cur.peek()
                    if code_tok.kind in (TokenKind.IDENTIFIER, TokenKind.KEYWORD,
                                         TokenKind.NUMBER):
                        codes.append(code_tok.text)
                        self.cur.advance()
                    elif self._at(","):
                        self.cur.advance()
                    else:
                        self._error("P002", code_tok.span,
                                    f"unexpected {code_tok.text!r} in annotation arguments")
                        raw = True
                        self.cur.advance()
                closer = self._eat(">")
                if closer:
                    entry_span = cover(entry_span, closer.span)
            entries.append(AnnotationEntry(name=name_tok.text, codes=tuple(codes),
                                           span=entry_span))
            self._eat(",")
        return AnnotationClause(entries=tuple(entries),
                                span=cover(open_tok.span, end_span), raw=raw)

    # -- top level ------------------------------------------------------------

    def parse_file(self) -> AstNode:
        root = AstNode(kind="Root", span=self.source.span(0, len(self.source.content)))
        while self.cur.peek().kind != TokenKind.EOF:
            annotation = self.parse_annotation()
            if self._at("package"):
                root.children.append(self.parse_package(annotation))
            else:
                tok = self.cur.peek()
                self._error("P001", tok.span,
                            f"unsupported construct at top level: {tok.text!r}")
                self._recover()
                if self._at("}"):
                    self.cur.advance()
        return root

    def parse_package(self, annotation: Optional[AnnotationClause]) -> AstNode:
        start = self.cur.advance()  # 'package'
        name_tok = self._name_token("after 'package'")
        node = AstNode(kind="Package", span=start.span,
                       attrs={"name": self._ident_value(name_tok) if name_tok else None})
        if annotation:
            node.attrs["annotation"] = annotation
            node.span = cover(annotation.span, node.span)
        self._attach_trivia(node)
        if self._expect("{", "to open the package body"):
            close = self.parse_body_into(node, body_kind="general")
            node.span = cover(start.span, close)
        return node

    # -- bodies ---------------------------------------------------------------

    def parse_body_into(self, node: AstNode, body_kind: str) -> None:
        """Parse statements until the matching ``}`` (already past ``{``).

        Returns the span of the closing brace so callers can finish the
        owning node's span exactly.
        """
        if self.body_depth >= MAX_BODY_NESTING:
            self._error("P001", self.cur.peek().span,
                        f"nesting deeper than {MAX_BODY_NESTING} levels")
            return self._skip_balanced_body()
        self.body_depth += 1
        try:
            while True:
                tok = self.cur.peek()
                if tok.kind == TokenKind.EOF:
                    self._error("P002", tok.span, "body is never closed")
                    return tok.span
                if self._at("}"):
                    return self.cur.advance().span
                stmt = self.parse_statement(body_kind)
                if stmt is not None:
                    node.children.append(stmt)
        finally:
            self.body_depth -= 1

    def _skip_balanced_body(self) -> Span:
        depth = 0
        while True:
            tok = self.cur.peek()
            if tok.kind == TokenKind.EOF:
                return tok.span
            if tok.text == "{":
                depth += 1
            elif tok.text == "}":
                if depth == 0:
                    return self.cur.advance().span
                depth -= 1
            self.cur.advance()

    def parse_statement(self, body_kind: str) -> Optional[AstNode]:
        if self._at(";"):
            self.cur.advance()
            return None
        annotation = self.parse_annotation()
        tok = self.cur.peek()

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
            if word == "measurement" and self.cur.peek(1).text == "{":
                return self.parse_measurement()
            if body_kind == "constraint" and word in ("not", "true", "false"):
                return self.parse_expression_statement()
            return self.parse_member(annotation, visibility=None)

        if tok.kind in (TokenKind.IDENTIFIER, TokenKind.QUOTED_IDENTIFIER):
            if self.cur.peek(1).text == "=" and self.cur.peek(1).kind == TokenKind.OPERATOR:
                return self.parse_body_property()
            if body_kind == "constraint":
                return self.parse_expression_statement()
            self._error("P001", tok.span, f"unsupported construct: {tok.text!r}")
            self._recover()
            return None

        if body_kind == "constraint" and (
                tok.kind == TokenKind.NUMBER or tok.text in ("(", "not", "true", "false")):
            return self.parse_expression_statement()

        self._error("P002", tok.span, f"unexpected token {tok.text!r}")
        self._recover()
        return None

    def parse_member(self, annotation: Optional[AnnotationClause],
                     visibility: Optional[str]) -> Optional[AstNode]:
        """Definition or usage statement starting at a declaration keyword."""
        tok = self.cur.peek()
        word = tok.text
        direction = None
        modifiers: list[str] = []

        if word in ("in", "out"):
            direction = word
            self.cur.advance()
            tok = self.cur.peek()
            word = tok.text
        while word in ("ref", "perform", "exhibit", "do", "assume", "entry"):
            modifiers.append(word)
            self.cur.advance()
            if word == "do" and self._at("send"):
                # standalone "do send S(...)" acts as an anonymous action
                return self.parse_usage(annotation, visibility, direction,
                                        modifiers, keyword="action")
            tok = self.cur.peek()
            word = tok.text

        if word in ("subject", "objective", "return", "require"):
            modifiers.append(word)
            self.cur.advance()
            return self.parse_usage(annotation, visibility, direction, modifiers,
                                    keyword=None)

        if word in DEF_KEYWORDS:
            if self.cur.peek(1).text == "def":
                if modifiers or direction:
                    self._error("P002", tok.span,
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
        self._error("P001", tok.span, f"unsupported construct: {word!r}")
        self._recover()
        return None

    # -- declarations -----------------------------------------------------------

    def parse_definition(self, annotation: Optional[AnnotationClause],
                         keyword: str) -> AstNode:
        start_span = self.cur.peek().span
        name_tok = self._name_token(f"after '{keyword} def'")
        node = AstNode(kind="Definition", span=start_span, attrs={
            "keyword": keyword,
            "name": self._ident_value(name_tok) if name_tok else None,
        })
        if annotation:
            node.attrs["annotation"] = annotation
            node.span = cover(annotation.span, node.span)
        self._attach_trivia(node)
        if self._at_kind(TokenKind.MULTIPLICITY_BRACKET):
            node.attrs["multiplicity"] = self.cur.advance().value
        specializes: list[TypeRef] = []
        while self._at("specializes"):
            self.cur.advance()
            ref = self.parse_type_ref("after 'specializes'")
            if ref:
                specializes.append(ref)
            while self._eat(","):
                ref = self.parse_type_ref("after ','")
                if ref:
                    specializes.append(ref)
        if specializes:
            node.attrs["specializes"] = tuple(specializes)
        self._finish_declaration(node, body_kind="constraint" if keyword == "constraint"
                                 else "general")
        return node

    def parse_usage(self, annotation: Optional[AnnotationClause],
                    visibility: Optional[str], direction: Optional[str],
                    modifiers: list[str], keyword: Optional[str],
                    inline: bool = False) -> AstNode:
        start_span = self.cur.peek().span
        node = AstNode(kind="Usage", span=start_span, attrs={"keyword": keyword})
        if annotation:
            node.attrs["annotation"] = annotation
            node.span = cover(annotation.span, node.span)
        if visibility:
            node.attrs["visibility"] = visibility
        if direction:
            node.attrs["direction"] = direction
        if modifiers:
            node.attrs["modifiers"] = tuple(modifiers)
        self._attach_trivia(node)

        if self._at_name():
            name_tok = self.cur.advance()
            node.attrs["name"] = self._ident_value(name_tok)
            if self._at(".") or self._at("::"):
                # the "name" begins a multi-segment reference target,
                # e.g. "require a.b;"
                segments = [node.attrs.pop("name")]
                end_span = name_tok.span
                while (self._at(".") or self._at("::")) and self.cur.peek(1).kind in (
                        TokenKind.IDENTIFIER, TokenKind.QUOTED_IDENTIFIER):
                    self.cur.advance()
                    seg = self.cur.advance()
                    segments.append(self._ident_value(seg))
                    end_span = seg.span
                node.attrs["target"] = NamePath(tuple(segments),
                                                cover(name_tok.span, end_span))
        if self._at_kind(TokenKind.MULTIPLICITY_BRACKET):
            node.attrs["multiplicity"] = self.cur.advance().value

        while True:
            if self._at("defined"):
                self.cur.advance()
                self._expect("by", "in 'defined by'")
                ref = self.parse_type_ref("after 'defined by'")
                if ref:
                    node.attrs["typing"] = ref
                continue
            if self._at(":") and not self._at("::>"):
                self.cur.advance()
                ref = self.parse_type_ref("after ':'")
                if ref:
                    node.attrs["typing"] = ref
                continue
            if self._at("specializes"):
                self.cur.advance()
                ref = self.parse_type_ref("after 'specializes'")
                if ref:
                    node.attrs.setdefault("specializes_list", []).append(ref)
                continue
            if self._at(":>"):
                self.cur.advance()
                path = self.parse_path("after ':>'")
                if path:
                    node.attrs.setdefault("subsets", []).append(path)
                continue
            if self._at(":>>") or self._at("redefines"):
                self.cur.advance()
                path = self.parse_path("after redefinition")
                if path:
                    node.attrs.setdefault("redefines", []).append(path)
                continue
            if self._at("::>"):
                self.cur.advance()
                path = self.parse_path("after '::>'")
                if path:
                    node.attrs.setdefault("refsubsets", []).append(path)
                continue
            break

        # action clauses: send / accept / via / to, in any order
        while True:
            if self._at("send"):
                node.attrs["send"] = self.parse_send()
                continue
            if self._at("accept"):
                node.attrs["accept"] = self.parse_accept()
                continue
            if self._at("via"):
                self.cur.advance()
                node.attrs["via"] = self.parse_path("after 'via'")
                continue
            if self._at("to"):
                self.cur.advance()
                node.attrs["to"] = self.parse_path("after 'to'")
                continue
            break

        if self._at("=") :
            self.cur.advance()
            value = self.parse_value("after '='")
            if value:
                node.attrs["initializer"] = value
        if self._at("parallel"):
            self.cur.advance()
            node.attrs["parallel"] = True

        body_kind = "constraint" if (keyword == "constraint" or "assume" in modifiers) \
            else "general"
        if inline:
            # clause-embedded usage (e.g. a transition's "do action X : T"):
            # an optional body, but no ';' terminator of its own
            if self._at("{"):
                self.cur.advance()
                close = self.parse_body_into(node, body_kind=body_kind)
                node.span = cover(node.span, close)
            elif self._at(";"):
                node.span = cover(node.span, self.cur.advance().span)
            return node
        self._finish_declaration(node, body_kind=body_kind)
        return node

    def _finish_declaration(self, node: AstNode, body_kind: str) -> None:
        if self._at(";"):
            node.span = cover(node.span, self.cur.advance().span)
            return
        if self._at("{"):
            self.cur.advance()
            close = self.parse_body_into(node, body_kind=body_kind)
            node.span = cover(node.span, close)
            return
        tok = self.cur.peek()
        self._error("P002", tok.span,
                    f"expected ';' or '{{' to finish the declaration, found {tok.text!r}")
        self._recover()

    # -- specific statement forms -------------------------------------------

    def parse_import(self, visibility: str) -> AstNode:
        start = self.cur.advance()  # 'import'
        path = self.parse_path("after 'import'")
        wildcard = False
        if self._at("::"):
            self.cur.advance()
            if self._eat("*"):
                wildcard = True
            else:
                self._error("P002", self.cur.peek().span, "expected '*' after '::'")
        elif self._eat("*"):
            wildcard = True
        node = AstNode(kind="Import", span=start.span, attrs={
            "target": path, "wildcard": wildcard, "visibility": visibility,
        })
        self._attach_trivia(node)
        self._expect(";", "after import")
        return node

    def parse_doc(self) -> AstNode:
        start = self.cur.advance()  # 'doc'
        # the comment body was stashed as trivia when peeking past 'doc'
        body = self.cur.last_doc_comment()
        if body is None and self.cur.peek().kind == TokenKind.DOC_COMMENT:
            body = self.cur.advance()
        node = AstNode(kind="DocComment", span=start.span,
                       attrs={"text": body.text if body else ""})
        if body is None:
            self._error("P002", start.span, "expected a comment after 'doc'")
        self._eat(";")
        return node

    def parse_entry(self) -> AstNode:
        start = self.cur.advance()  # 'entry'
        node = AstNode(kind="EntryAction", span=start.span)
        self._attach_trivia(node)
        if self._eat(";"):
            return node
        annotation = self.parse_annotation()
        if self._at("action"):
            self.cur.advance()
            node.children.append(self.parse_usage(annotation, None, None,
                                                  ["entry"], keyword="action"))
        else:
            tok = self.cur.peek()
            self._error("P002", tok.span,
                        f"expected ';' or 'action' after 'entry', found {tok.text!r}")
            self._recover()
        return node

    def parse_succession(self) -> AstNode:
        start = self.cur.advance()  # 'then'
        node = AstNode(kind="SuccessionThen", span=start.span)
        self._attach_trivia(node)
        annotation = self.parse_annotation()
        if annotation or (self.cur.peek().kind == TokenKind.KEYWORD
                          and self.cur.peek().text in DEF_KEYWORDS):
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
        node = AstNode(kind="Transition", span=start.span)
        if annotation:
            node.attrs["annotation"] = annotation
            node.span = cover(annotation.span, node.span)
        self._attach_trivia(node)
        if self._at_name():
            name_tok = self.cur.advance()
            if self._at("then"):
                # "transition S then T;" names no transition: S is the source
                node.attrs["first"] = NamePath((self._ident_value(name_tok),),
                                               name_tok.span)
            else:
                node.attrs["name"] = self._ident_value(name_tok)
        while True:
            if self._at("first"):
                self.cur.advance()
                node.attrs["first"] = self.parse_path("after 'first'")
                continue
            if self._at("accept"):
                node.attrs["accept"] = self.parse_accept()
                continue
            if self._at("via"):
                self.cur.advance()
                node.attrs["via"] = self.parse_path("after 'via'")
                continue
            if self._at("if"):
                self.cur.advance()
                node.attrs["guard"] = self.parse_expression()
                continue
            if self._at("do"):
                self.cur.advance()
                if self._at("send"):
                    node.attrs["do_send"] = self.parse_send()
                elif self._at("action"):
                    self.cur.advance()
                    node.children.append(self.parse_usage(None, None, None, ["do"],
                                                          keyword="action",
                                                          inline=True))
                else:
                    tok = self.cur.peek()
                    self._error("P002", tok.span,
                                f"expected 'send' or 'action' after 'do', found {tok.text!r}")
                continue
            if self._at("then"):
                self.cur.advance()
                node.attrs["then"] = self.parse_path("after 'then'")
                continue
            break
        self._finish_declaration(node, body_kind="general")
        return node

    def parse_send(self) -> SendClause:
        self.cur.advance()  # 'send'
        signal = self.parse_path("after 'send'")
        args: list[Expr] = []
        if self._eat("("):
            while not self._at(")") and self.cur.peek().kind != TokenKind.EOF:
                arg = self.parse_expression()
                if arg is not None:
                    args.append(arg)
                if not self._eat(","):
                    break
            self._expect(")", "to close the argument list")
        via = to = None
        while True:
            if self._at("via"):
                self.cur.advance()
                via = self.parse_path("after 'via'")
                continue
            if self._at("to"):
                self.cur.advance()
                to = self.parse_path("after 'to'")
                continue
            break
        return SendClause(signal=signal, args=tuple(args), via=via, to=to)

    def parse_accept(self) -> AcceptClause:
        self.cur.advance()  # 'accept'
        if self._at("at"):
            self.cur.advance()
            return AcceptClause(at=self.parse_path("after 'accept at'"))
        first = self.parse_path("after 'accept'")
        param_name = None
        typing = None
        payload = None
        if self._at("defined") or (self._at(":") and not self._at("::>")):
            if self._at("defined"):
                self.cur.advance()
                self._expect("by", "in 'defined by'")
            else:
                self.cur.advance()
            typing = self.parse_type_ref("in accept parameter typing")
            param_name = first.segments[0] if first and len(first.segments) == 1 else None
        else:
            payload = first
        via = None
        if self._at("via"):
            self.cur.advance()
            via = self.parse_path("after 'via'")
        return AcceptClause(param_name=param_name, typing=typing, payload=payload, via=via)

    def parse_metadata(self, annotation: Optional[AnnotationClause]) -> AstNode:
        start = self.cur.advance()  # 'metadata'
        node = AstNode(kind="MetadataUsage", span=start.span)
        if annotation:
            node.attrs["annotation"] = annotation
            node.span = cover(annotation.span, node.span)
        self._attach_trivia(node)
        if self._at_name():
            node.attrs["name"] = self._ident_value(self.cur.advance())
        if self._at("defined"):
            self.cur.advance()
            self._expect("by", "in 'defined by'")
            node.attrs["typing"] = self.parse_type_ref("after 'defined by'")
        elif self._at(":") and not self._at("::>"):
            self.cur.advance()
            node.attrs["typing"] = self.parse_type_ref("after ':'")
        if self._at("about"):
            self.cur.advance()
            node.attrs["about"] = self.parse_path("after 'about'")
        if self._at(";"):
            node.span = cover(node.span, self.cur.advance().span)
            return node
        if self._expect("{", "to open the metadata body"):
            close = self.parse_metadata_body(node)
            node.span = cover(node.span, close)
        return node

    def parse_metadata_body(self, node: AstNode) -> Span:
        while True:
            tok = self.cur.peek()
            if tok.kind == TokenKind.EOF:
                self._error("P002", tok.span, "metadata body is never closed")
                return tok.span
            if self._at("}"):
                return self.cur.advance().span
            if self._at(";"):
                self.cur.advance()
                continue
            if tok.kind in (TokenKind.IDENTIFIER, TokenKind.QUOTED_IDENTIFIER,
                            TokenKind.KEYWORD):
                name_tok = self.cur.advance()
                prop = AstNode(kind="BodyProperty", span=name_tok.span,
                               attrs={"name": self._ident_value(name_tok)})
                if self._eat("="):
                    prop.attrs["value"] = self.parse_value("in metadata property")
                    self._expect(";", "after metadata property")
                elif self._at("{"):
                    self.cur.advance()
                    self.parse_metadata_body(prop)
                else:
                    self._error("P002", self.cur.peek().span,
                                "expected '=' or '{' in metadata body")
                    self._recover()
                node.children.append(prop)
                continue
            self._error("P002", tok.span, f"unexpected token {tok.text!r} in metadata body")
            self._recover()

    def parse_measurement(self) -> AstNode:
        start = self.cur.advance()  # 'measurement'
        node = AstNode(kind="MeasurementBlock", span=start.span)
        self._attach_trivia(node)
        self._expect("{", "to open the measurement block")
        while True:
            tok = self.cur.peek()
            if tok.kind == TokenKind.EOF:
                self._error("P002", tok.span, "measurement block is never closed")
                return node
            if self._at("}"):
                node.span = cover(node.span, self.cur.advance().span)
                return node
            if self._at(";"):
                self.cur.advance()
                continue
            if tok.kind == TokenKind.IDENTIFIER:
                prop = self.parse_body_property()
                if prop is not None:
                    node.children.append(prop)
                continue
            self._error("P002", tok.span,
                        f"unexpected token {tok.text!r} in measurement block")
            self._recover()

    def parse_body_property(self) -> Optional[AstNode]:
        name_tok = self.cur.advance()
        node = AstNode(kind="BodyProperty", span=name_tok.span,
                       attrs={"name": self._ident_value(name_tok)})
        self._attach_trivia(node)
        if not self._expect("=", "in property assignment"):
            self._recover()
            return node
        node.attrs["value"] = self.parse_value("in property assignment")
        self._expect(";", "after property assignment")
        return node

    # -- expressions ------------------------------------------------------------

    def parse_expression_statement(self) -> AstNode:
        expr = self.parse_expression()
        node = AstNode(kind="ConstraintExpr",
                       span=expr.span if expr else self.cur.peek().span,
                       attrs={"expr": expr})
        self._attach_trivia(node)
        # the terminator is optional only directly before the body close
        if not self._eat(";") and not self._at("}"):
            self._error("P002", self.cur.peek().span,
                        "expected ';' after the expression")
            self._recover()
        return node

    def parse_expression(self) -> Optional[Expr]:
        return self._parse_or()

    def _parse_or(self) -> Optional[Expr]:
        left = self._parse_and()
        if left is None:
            return None
        items = [left]
        while self._at("or"):
            self.cur.advance()
            nxt = self._parse_and()
            if nxt is None:
                break
            items.append(nxt)
        if len(items) == 1:
            return left
        return BoolOp(span=cover(items[0].span, items[-1].span), op="or",
                      items=tuple(items))

    def _parse_and(self) -> Optional[Expr]:
        left = self._parse_comparison()
        if left is None:
            return None
        items = [left]
        while self._at("&") or self._at("and"):
            self.cur.advance()
            nxt = self._parse_comparison()
            if nxt is None:
                break
            items.append(nxt)
        if len(items) == 1:
            return left
        return BoolOp(span=cover(items[0].span, items[-1].span), op="and",
                      items=tuple(items))

    def _parse_comparison(self) -> Optional[Expr]:
        left = self._parse_unary()
        if left is None:
            return None
        for op in ("==", ">=", "<=", "<", ">"):
            if self._at(op):
                self.cur.advance()
                right = self._parse_unary()
                if right is None:
                    return left
                return Comparison(span=cover(left.span, right.span), op=op,
                                  left=left, right=right)
        return left

    def _parse_unary(self) -> Optional[Expr]:
        if self._at("not"):
            tok = self.cur.advance()
            if self.expr_depth >= MAX_BODY_NESTING:
                self._error("P001", tok.span, "expression nests too deeply")
                self._recover()
                return None
            self.expr_depth += 1
            try:
                item = self._parse_unary()
            finally:
                self.expr_depth -= 1
            if item is None:
                return None
            return NotOp(span=cover(tok.span, item.span), item=item)
        return self._parse_primary()

    def _parse_primary(self) -> Optional[Expr]:
        tok = self.cur.peek()
        if self._at("("):
            if self.expr_depth >= MAX_BODY_NESTING:
                self._error("P001", tok.span, "expression nests too deeply")
                self._recover()
                return None
            self.cur.advance()
            self.expr_depth += 1
            try:
                inner = self.parse_expression()
            finally:
                self.expr_depth -= 1
            self._expect(")", "to close the group")
            return inner
        if tok.kind in (TokenKind.NUMBER, TokenKind.STRING,
                        TokenKind.IDENTIFIER, TokenKind.QUOTED_IDENTIFIER) \
                or tok.text in ("true", "false"):
            value = self.parse_value("in expression")
            if value is None:
                return None
            return Operand(span=value.span, value=value)
        self._error("P002", tok.span, f"expected an expression, found {tok.text!r}")
        return None


def parse_file(source: SourceFile) -> tuple[AstNode, list[Diagnostic]]:
    """Parse one file into a Root node; never raises on malformed input."""
    parser = Parser(source)
    root = parser.parse_file()
    return root, parser.diagnostics
