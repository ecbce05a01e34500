"""Resolved semantic model: elements, ownership, name resolution, edges.

build_model fills an empty Model from parsed trees; built, it is immutable:

* every declaration is interned as an Element with a dense id, keeping
  what later steps read of its node (interning alone reads the tree),
* specialization relationships (``specializes``, ``defined by``/``:``,
  ``:>``, ``:>>``/``redefines``, ``::>``, ``~T``) become SpecializationEdge
  records or R001 diagnostics,
* wildcard imports make the imported namespace's direct members visible,
* a small built-in prelude stands in for the standard library names the
  fixtures assume (ScalarValues, ISQ, SI, Time, RiskMetadata); its
  ``LevelEnum`` literals are the catalog's risk levels.

``Model.lookup`` is the one name resolver, used while building and after.
A chain's first segment is searched in the members of the context and of
each of its owners, then among the root packages, then through the imports
of the context and its owners (each user root imports the prelude packages
last). Every later segment is a member of the previous hit. Members are the
owned ones first, then those inherited through the specialization closure,
which covers lookup through feature typing. Imports are resolved before any
relationship, so they see only direct members and roots.
"""

from __future__ import annotations

import enum
import re
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from . import diagnostics
from .diagnostics import Diagnostic
from .source import SourceFile, Span
from .syntax import AnnotationClause, AstNode, NamePath, Value


class ElementKind(enum.Enum):
    PACKAGE = "package"
    PART_DEF = "part def"
    PART_USAGE = "part"
    ITEM_DEF = "item def"
    ITEM_USAGE = "item"
    PORT_DEF = "port def"
    PORT_USAGE = "port"
    ATTRIBUTE_DEF = "attribute def"
    ATTRIBUTE_USAGE = "attribute"
    ACTION_DEF = "action def"
    ACTION_USAGE = "action"
    STATE_DEF = "state def"
    STATE_USAGE = "state"
    TRANSITION_USAGE = "transition"
    MESSAGE_USAGE = "message"
    CONSTRAINT_DEF = "constraint def"
    CONSTRAINT_USAGE = "constraint"
    OCCURRENCE_DEF = "occurrence def"
    OCCURRENCE_USAGE = "occurrence"
    ANALYSIS_DEF = "analysis def"
    ANALYSIS_USAGE = "analysis"
    REQUIREMENT_DEF = "requirement def"
    REQUIREMENT_USAGE = "requirement"
    METADATA_USAGE = "metadata"
    REF_USAGE = "ref"


class MetaclassCategory(enum.Enum):
    OCCURRENCE_DEFINITION_LIKE = "OccurrenceDefinitionLike"
    OCCURRENCE_USAGE_LIKE = "OccurrenceUsageLike"
    ATTRIBUTE_DEFINITION = "AttributeDefinition"
    ATTRIBUTE_USAGE = "AttributeUsage"
    CONSTRAINT_USAGE = "ConstraintUsage"
    OTHER = "Other"


#: element kinds by declaration keyword, plus " def" for a definition
_KIND_BY_KEYWORD = {kind.value: kind for kind in ElementKind}

_CATEGORY_BY_KIND = {
    ElementKind.PART_DEF: MetaclassCategory.OCCURRENCE_DEFINITION_LIKE,
    ElementKind.ITEM_DEF: MetaclassCategory.OCCURRENCE_DEFINITION_LIKE,
    ElementKind.PORT_DEF: MetaclassCategory.OCCURRENCE_DEFINITION_LIKE,
    ElementKind.ACTION_DEF: MetaclassCategory.OCCURRENCE_DEFINITION_LIKE,
    ElementKind.STATE_DEF: MetaclassCategory.OCCURRENCE_DEFINITION_LIKE,
    ElementKind.OCCURRENCE_DEF: MetaclassCategory.OCCURRENCE_DEFINITION_LIKE,
    ElementKind.ANALYSIS_DEF: MetaclassCategory.OCCURRENCE_DEFINITION_LIKE,
    ElementKind.REQUIREMENT_DEF: MetaclassCategory.OCCURRENCE_DEFINITION_LIKE,
    ElementKind.PART_USAGE: MetaclassCategory.OCCURRENCE_USAGE_LIKE,
    ElementKind.ITEM_USAGE: MetaclassCategory.OCCURRENCE_USAGE_LIKE,
    ElementKind.PORT_USAGE: MetaclassCategory.OCCURRENCE_USAGE_LIKE,
    ElementKind.ACTION_USAGE: MetaclassCategory.OCCURRENCE_USAGE_LIKE,
    ElementKind.STATE_USAGE: MetaclassCategory.OCCURRENCE_USAGE_LIKE,
    ElementKind.TRANSITION_USAGE: MetaclassCategory.OCCURRENCE_USAGE_LIKE,
    ElementKind.MESSAGE_USAGE: MetaclassCategory.OCCURRENCE_USAGE_LIKE,
    ElementKind.ANALYSIS_USAGE: MetaclassCategory.OCCURRENCE_USAGE_LIKE,
    ElementKind.REQUIREMENT_USAGE: MetaclassCategory.OCCURRENCE_USAGE_LIKE,
    ElementKind.OCCURRENCE_USAGE: MetaclassCategory.OCCURRENCE_USAGE_LIKE,
    ElementKind.REF_USAGE: MetaclassCategory.OCCURRENCE_USAGE_LIKE,
    ElementKind.ATTRIBUTE_DEF: MetaclassCategory.ATTRIBUTE_DEFINITION,
    ElementKind.ATTRIBUTE_USAGE: MetaclassCategory.ATTRIBUTE_USAGE,
    ElementKind.CONSTRAINT_USAGE: MetaclassCategory.CONSTRAINT_USAGE,
    ElementKind.PACKAGE: MetaclassCategory.OTHER,
    ElementKind.METADATA_USAGE: MetaclassCategory.OTHER,
    ElementKind.CONSTRAINT_DEF: MetaclassCategory.OTHER,
}


class EdgeKind(enum.Enum):
    SUBCLASSIFICATION = "Subclassification"
    SUBSETTING = "Subsetting"
    REDEFINITION = "Redefinition"
    FEATURE_TYPING = "FeatureTyping"
    REFERENCE_SUBSETTING = "ReferenceSubsetting"


#: edge kinds along which members and stereotypes are inherited
INHERITANCE_KINDS = frozenset({
    EdgeKind.SUBCLASSIFICATION, EdgeKind.SUBSETTING,
    EdgeKind.REDEFINITION, EdgeKind.FEATURE_TYPING,
})


class SpecializationEdge(NamedTuple):
    source: int
    target: int
    kind: EdgeKind
    span: Span
    conjugated: bool = False


class BodyProperty(NamedTuple):
    name: str
    span: Span
    value: Optional[Value] = None
    children: tuple[BodyProperty, ...] = ()

    def find(self, name: str) -> Optional[BodyProperty]:
        """Depth-first search for a property by name, self included."""
        if self.name == name:
            return self
        for child in self.children:
            hit = child.find(name)
            if hit is not None:
                return hit
        return None


class RefTarget(NamedTuple):
    """A resolved reference chain: final target plus its anchoring context.

    ``anchor`` is the element the penultimate chain segment resolved to;
    it distinguishes the "same" inherited constraint reached through two
    different feature contexts.
    """

    target: int
    anchor: Optional[int]
    text: str
    span: Span


class Element:
    """One node of the resolved model tree.

    ``annotations`` (its StereotypeApplications) are set by
    ``profile.annotate_model``; the builder fills the rest, among them
    ``is_reference_carrier`` (a ``ref`` usage that subsets or redefines).
    """

    __slots__ = ("id", "kind", "name", "qualified_name", "owner", "span",
                 "owned", "annotations", "body_properties", "ref_targets",
                 "about_target", "is_prelude", "is_reference_carrier")

    def __init__(self, id: int, kind: ElementKind, name: Optional[str],
                 qualified_name: Optional[str], owner: Optional[int], span: Span,
                 is_prelude: bool = False) -> None:
        self.id = id
        self.kind = kind
        self.name = name
        self.qualified_name = qualified_name
        self.owner = owner
        self.span = span
        self.owned: Sequence[int] = []
        self.annotations: tuple = ()
        self.body_properties: tuple[BodyProperty, ...] = ()
        self.ref_targets: tuple[RefTarget, ...] = ()
        self.about_target: Optional[int] = None
        self.is_prelude = is_prelude
        self.is_reference_carrier = False

    def display_name(self) -> str:
        if self.qualified_name:
            return self.qualified_name
        return f"<anonymous {self.kind.value} at {self.span.location()}>"


class Model:
    """The resolved model.

    ``build_model`` makes it empty, fills it and resolves through it.
    ``files``, ``roots``, ``prelude_roots`` and ``Element.owned`` are lists
    until interning ends. While relationships resolve, a closure search that
    reaches an element in ``_unstarted``, the table of pending relationships,
    raises ``_Unresolved`` so the builder resolves that element first. Cycle
    removal installs the edges it kept, in declaration order: by source
    element, each element's as written. Of each specialization cycle the
    later-declared edge is dropped (R003).
    """

    __slots__ = ("files", "elements", "edges", "diagnostics", "roots",
                 "prelude_roots", "risk_levels", "risks", "imports",
                 "_direct", "_root_scope", "_inherits", "_unstarted")

    def __init__(self, risk_levels: tuple[str, ...]) -> None:
        self.files: Sequence[SourceFile] = []
        self.elements: list[Element] = []
        self.edges: Sequence[SpecializationEdge] = []
        self.diagnostics: list[Diagnostic] = []
        self.roots: Sequence[int] = []
        self.prelude_roots: Sequence[int] = []
        self.risk_levels = risk_levels
        self.risks: list = []  # list[RiskAnnotation], filled at build
        #: scope -> (imported element, wildcard); every user root imports the
        #: prelude packages' members after its own imports
        self.imports: dict[int, tuple[tuple[int, bool], ...]] = {}
        #: element -> its owned members by name
        self._direct: dict[int, dict[str, int]] = {}
        self._root_scope: dict[str, int] = {}
        #: element -> its edges of ``INHERITANCE_KINDS``, in edge order; grown
        #: as edges resolve, replaced by the kept ones when cycles are removed
        self._inherits: dict[int, Sequence[SpecializationEdge]] = {}
        #: element -> its relationships, the next one last, until started
        self._unstarted: dict[int, list] = {}

    def inheritance_edges(self, eid: int) -> Sequence[SpecializationEdge]:
        """An element's edges of ``INHERITANCE_KINDS``, in edge order; two
        of them may share a target."""
        return self._inherits.get(eid, ())

    def specialization_closure(self, eid: int) -> tuple[int, ...]:
        """Transitive specialization targets, nearest first, self excluded.

        A breadth-first search over inheritance edges, run on every call;
        nothing is cached. While the model is built it raises
        ``_Unresolved`` at an element whose relationships have not started.
        """
        queue, seen = [eid], {eid}
        for node in queue:
            if node in self._unstarted:
                raise _Unresolved(node)
            for edge in self.inheritance_edges(node):
                if edge.target not in seen:
                    seen.add(edge.target)
                    queue.append(edge.target)
        return tuple(queue[1:])

    def metaclass_category(self, eid: int) -> MetaclassCategory:
        return _CATEGORY_BY_KIND[self.elements[eid].kind]

    def member(self, eid: int, name: str) -> Optional[int]:
        """The member ``name`` visible on an element: its own, else the first
        along its closure."""
        hit = self._direct[eid].get(name)
        if hit is None:
            for scope in self.specialization_closure(eid):
                hit = self._direct[scope].get(name)
                if hit is not None:
                    break
        return hit

    def lookup(self, segments: tuple[str, ...], context: Optional[int],
               exclude: Optional[int] = None
               ) -> tuple[Optional[list[int]], Optional[str]]:
        """Resolve a name chain; returns (ids, None) or (None, failing segment).

        ``exclude`` is never the first hit. A ``context`` of None anchors the
        chain at the roots.
        """
        first = self._lookup_first(segments[0], context, exclude)
        if first is None:
            return None, segments[0]
        ids = [first]
        for segment in segments[1:]:
            hit = self.member(ids[-1], segment)
            if hit is None:
                return None, segment
            ids.append(hit)
        return ids, None

    def _lookup_first(self, name: str, context: Optional[int],
                      exclude: Optional[int]) -> Optional[int]:
        chain = []
        while context is not None:
            chain.append(context)
            context = self.elements[context].owner
        for scope in chain:
            hit = self.member(scope, name)
            if hit is not None and hit != exclude:
                return hit
        hit = self._root_scope.get(name)
        if hit is not None and hit != exclude:
            return hit
        for scope in chain:
            for target, wildcard in self.imports.get(scope, ()):
                if wildcard:
                    hit = self._direct[target].get(name)
                elif self.elements[target].name == name:
                    hit = target
                else:
                    continue
                if hit is not None and hit != exclude:
                    return hit
        return None

    def resolve(self, name: str, context: Optional[int]) -> Optional[int]:
        """Resolve a qualified name / feature chain from a context element.
        A name with an empty unquoted segment resolves to nothing."""
        segments = []
        for match in _NAME_SEGMENT.finditer(name):
            quoted, plain, separator = match.groups()
            if quoted is None and not plain:
                return None
            segments.append(plain if quoted is None else quoted)
            if not separator:
                break
        ids, _failing = self.lookup(tuple(segments), context)
        return ids[-1] if ids else None

    def resolve_qualified(self, name: str) -> Optional[int]:
        """Resolve a root-anchored qualified name, e.g. from the CLI."""
        return self.resolve(name, None)


#: one segment of a name and the ``::`` or ``.`` after it (none at the end),
#: without the spaces around it. A quoted segment (``'…'``, or opened by a
#: backquote, as the lexer reads a quoted name) is one name without quotes.
_NAME_SEGMENT = re.compile(
    r"\s*(?:[`']([^'\n]*)'|((?:[^.:]|:(?!:))*?))\s*(::|\.|\Z)")


def _name_segment(name: str) -> str:
    """``name`` as a segment of a qualified name: as it is where
    ``Model.resolve`` reads it back as itself, as every identifier, else
    quoted."""
    if name.isidentifier() or name and _NAME_SEGMENT.match(name + "::").group(2) == name:
        return name
    return f"'{name}'"


class _Unresolved(Exception):
    """A closure search reached an element whose relationships have not
    started resolving; the argument is that element."""


def strongly_connected(successors: Mapping[int, Iterable[int]]) -> dict[int, int]:
    """Tarjan's strongly connected components, with an explicit stack.

    Maps every node (each key of ``successors`` and each node they point
    to) to the number of its component. Components are numbered in the
    order they complete, so each one is numbered before any component
    that reaches it.
    """
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    component: dict[int, int] = {}
    open_nodes: list[int] = []
    count = 0
    for start in successors:
        if start in index:
            continue
        index[start] = low[start] = len(index)
        open_nodes.append(start)
        frames = [(start, iter(successors.get(start, ())))]
        while frames:
            node, peers = frames[-1]
            for peer in peers:
                if peer not in index:
                    index[peer] = low[peer] = len(index)
                    open_nodes.append(peer)
                    frames.append((peer, iter(successors.get(peer, ()))))
                    break
                if peer not in component:  # still open: on the stack
                    low[node] = min(low[node], index[peer])
            else:
                frames.pop()
                if frames:
                    parent = frames[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    member = None
                    while member != node:
                        member = open_nodes.pop()
                        component[member] = count
                    count += 1
    return component


# -- prelude -----------------------------------------------------------------

PRELUDE_SPEC = {
    "ScalarValues": ["Real", "Boolean", "String", "Integer"],
    "ISQ": ["MassValue", "LengthValue"],
    "SI": ["day"],
    "Time": ["DateTime"],
    "RiskMetadata": ["Risk", "LevelEnum"],
}


# -- builder -----------------------------------------------------------------

class _Builder:
    """Fills ``model``, keeping only what it never holds: unresolved import
    paths, annotation clauses and the pending relationships."""

    def __init__(self, risk_levels: tuple[str, ...]) -> None:
        self.model = Model(risk_levels)
        self.import_paths: dict[int, list[tuple[NamePath, bool]]] = {}
        self.clauses: list[tuple[Element, AnnotationClause]] = []
        self.unstarted: dict[int, list] = {}

    # ---- interning ----------------------------------------------------------

    def new_element(self, kind: ElementKind, name: Optional[str], owner: Optional[int],
                    span: Span, is_prelude: bool = False) -> int:
        model = self.model
        eid = len(model.elements)
        qualified = None
        if name is not None:
            qualified = _name_segment(name)
            if owner is not None:
                owner_qn = model.elements[owner].qualified_name
                qualified = f"{owner_qn}::{qualified}" if owner_qn else None
        model.elements.append(Element(
            id=eid, kind=kind, name=name, qualified_name=qualified,
            owner=owner, span=span, is_prelude=is_prelude))
        model._direct[eid] = {}
        if owner is not None:
            model.elements[owner].owned.append(eid)
            if name is not None:
                siblings = model._direct[owner]
                if name in siblings and not is_prelude:
                    model.diagnostics.append(diagnostics.make(
                        "R002", span, f"duplicate sibling name {name!r}",
                        related=((model.elements[siblings[name]].span,
                                  "first declared here"),)))
                else:
                    siblings[name] = eid
        return eid

    def build_prelude(self) -> None:
        zero = SourceFile(path="<prelude>", content="")
        span = zero.span(0, 0)
        for pkg_name, member_names in PRELUDE_SPEC.items():
            pkg = self.new_element(ElementKind.PACKAGE, pkg_name, None, span,
                                   is_prelude=True)
            self.model.prelude_roots.append(pkg)
            for member in member_names:
                kind = (ElementKind.ITEM_DEF if member == "Risk"
                        else ElementKind.ATTRIBUTE_DEF)
                mid = self.new_element(kind, member, pkg, span, is_prelude=True)
                if member == "LevelEnum":
                    for literal in self.model.risk_levels:
                        self.new_element(ElementKind.ATTRIBUTE_USAGE, literal, mid,
                                         span, is_prelude=True)

    def intern_tree(self, root: AstNode) -> None:
        for child in root.children:
            if child.kind == "Package":
                self.model.roots.append(self.intern_node(child, owner=None))

    def intern_node(self, node: AstNode, owner: Optional[int]) -> Optional[int]:
        kind = self.element_kind_for(node)
        if kind is None:
            self.intern_non_element(node, owner)
            return None
        attrs = node.attrs
        eid = self.new_element(kind, attrs.get("name"), owner, node.span)
        self.keep(eid, attrs)
        accept = attrs.get("accept")
        if accept is not None and accept.param_name:
            self.keep(self.new_element(ElementKind.ITEM_USAGE, accept.param_name,
                                       eid, node.span), {"typing": accept.typing})
        for child in node.children:
            self.intern_node(child, eid)
        props = _collect_body_properties(node)
        if props:
            self.model.elements[eid].body_properties = tuple(props)
        return eid

    def keep(self, eid: int, attrs: dict) -> None:
        """Keep an element's relationships (if any), whether it is a
        reference carrier, and its annotation clause."""
        relationships = _relationships(attrs)
        if relationships:
            self.unstarted[eid] = relationships[::-1]
        element = self.model.elements[eid]
        element.is_reference_carrier = (
            "ref" in (attrs.get("modifiers") or ())
            and bool(attrs.get("refsubsets") or attrs.get("redefines")))
        clause = attrs.get("annotation")
        if clause is not None:
            self.clauses.append((element, clause))

    def element_kind_for(self, node: AstNode) -> Optional[ElementKind]:
        if node.kind == "Package":
            return ElementKind.PACKAGE
        if node.kind == "Definition":
            return _KIND_BY_KEYWORD.get(f"{node.attr('keyword')} def")
        if node.kind == "Transition":
            return ElementKind.TRANSITION_USAGE
        if node.kind == "MetadataUsage":
            return ElementKind.METADATA_USAGE
        if node.kind == "Usage":
            keyword = node.attr("keyword")
            if keyword is not None:
                return _KIND_BY_KEYWORD.get(keyword)
            modifiers = set(node.attr("modifiers", ()))
            if "objective" in modifiers:
                return ElementKind.REQUIREMENT_USAGE
            if modifiers & {"subject", "return", "require", "ref"}:
                return ElementKind.REF_USAGE
            if node.attr("direction"):
                return ElementKind.ATTRIBUTE_USAGE
            return ElementKind.REF_USAGE
        return None

    def intern_non_element(self, node: AstNode, owner: Optional[int]) -> None:
        if node.kind == "Import" and owner is not None:
            target = node.attr("target")
            if target is not None:
                self.import_paths.setdefault(owner, []).append(
                    (target, node.attr("wildcard", False)))
            return
        if node.kind in ("EntryAction", "SuccessionThen"):
            for child in node.children:
                self.intern_node(child, owner)
            return
        # DocComment, ConstraintExpr, BodyProperty, MeasurementBlock: no element

    # ---- resolution ----------------------------------------------------------

    def index_roots(self) -> None:
        """End interning: fix ownership and the file and root lists, and
        index the roots by name (R002 on a repeated user root name)."""
        model = self.model
        for element in model.elements:
            element.owned = tuple(element.owned)
        model.files = tuple(model.files)
        model.roots = tuple(model.roots)
        model.prelude_roots = tuple(model.prelude_roots)
        for rid in model.roots:
            element = model.elements[rid]
            if element.name is None:
                continue
            first = model._root_scope.setdefault(element.name, rid)
            if first != rid:
                model.diagnostics.append(diagnostics.make(
                    "R002", element.span,
                    f"duplicate root package name {element.name!r}",
                    related=((model.elements[first].span, "first declared here"),)))
        for rid in model.prelude_roots:
            model._root_scope.setdefault(model.elements[rid].name, rid)

    def resolve_imports(self) -> None:
        """Resolve imports first: they see only direct members and roots."""
        model = self.model
        resolved: dict[int, list[tuple[int, bool]]] = {}
        for scope, entries in self.import_paths.items():
            targets = resolved.setdefault(scope, [])
            for path, wildcard in entries:
                ids, failing = model.lookup(path.segments, scope)
                if ids is None:
                    model.diagnostics.append(diagnostics.make(
                        "R001", path.span,
                        f"cannot resolve {failing!r} in import {path.text!r}"))
                    continue
                targets.append((ids[-1], wildcard))
        prelude = [(pkg, True) for pkg in model.prelude_roots]
        for rid in model.roots:
            resolved[rid] = resolved.get(rid, []) + prelude
        model.imports = {k: tuple(v) for k, v in resolved.items()}

    def resolve_relationships(self) -> None:
        """Resolve the table of pending relationships that interning filled,
        element by element in declaration order; the model reads it as
        ``_unstarted``, and starting an element pops its entry. A lookup
        that reaches an element still in the table raises ``_Unresolved``.
        That element goes on an explicit stack and is resolved first; then
        the interrupted relationship is retried. Lookups have no side
        effects before they return, so a retry is safe. Started elements
        stay visible with the edges they have so far, so a cycle still
        resolves and R003 reports it. Once its own relationships have
        resolved, an element starts its unstarted inheritance targets, first
        edge's target first, before any retry. The edges end sorted by
        source element.
        """
        model = self.model
        model._unstarted = unstarted = self.unstarted
        for eid in list(unstarted):
            if eid not in unstarted:
                continue
            stack = [(eid, unstarted.pop(eid))]
            while stack:
                source, todo = stack[-1]
                if not todo:
                    targets = (edge.target for edge in model.inheritance_edges(source))
                    target = next((t for t in targets if t in unstarted), None)
                    if target is None:
                        stack.pop()
                    else:
                        stack.append((target, unstarted.pop(target)))
                    continue
                try:
                    self.resolve_relationship(source, *todo[-1])
                except _Unresolved as blocked:
                    target = blocked.args[0]
                    stack.append((target, unstarted.pop(target)))
                    continue
                todo.pop()
        # the emptied dict keeps the table it grew to; a new one does not
        model._unstarted = {}
        model.edges.sort(key=lambda edge: edge.source)

    def resolve_relationship(self, eid: int, path: NamePath,
                             kind: Optional[EdgeKind], conjugated: bool) -> None:
        """Resolve one name of an element into an edge of ``kind``, or with
        ``kind`` None into its ``about`` target."""
        model = self.model
        ids, failing = model.lookup(path.segments, eid, exclude=eid)
        element = model.elements[eid]
        if kind is None:
            if ids:
                element.about_target = ids[-1]
            return
        if ids is None:
            model.diagnostics.append(diagnostics.make(
                "R001", path.span,
                f"cannot resolve {failing!r} in {path.text!r}"))
            return
        edge = SpecializationEdge(source=eid, target=ids[-1], kind=kind,
                                  span=path.span, conjugated=conjugated)
        model.edges.append(edge)
        if kind in INHERITANCE_KINDS:
            model._inherits.setdefault(eid, []).append(edge)
        if kind in (EdgeKind.REDEFINITION, EdgeKind.REFERENCE_SUBSETTING):
            element.ref_targets += (_make_ref_target(ids, path),)

    # ---- acyclicity ----------------------------------------------------------

    def remove_cycles(self) -> None:
        """Drop, in declaration order, each inheritance edge that would close
        a cycle over the edges kept before it (R003): of each cycle, the
        later-declared edge is dropped. Installs the kept edges, and each
        element's kept inheritance edges, as tuples.

        Every node of a cycle lies in one strongly connected component of
        the inheritance edges, so only an edge inside a component is
        searched, and the search stays inside that component.
        """
        model = self.model
        component = strongly_connected(
            {source: [edge.target for edge in edges]
             for source, edges in model._inherits.items()})
        kept: list[SpecializationEdge] = []
        inherits: dict[int, list[SpecializationEdge]] = {}
        # kept inheritance edges inside a component, source -> targets
        inside: dict[int, list[int]] = {}

        def would_cycle(edge: SpecializationEdge) -> bool:
            # is edge.source reachable from edge.target over kept edges?
            seen = set()
            stack = [edge.target]
            while stack:
                node = stack.pop()
                if node == edge.source:
                    return True
                if node not in seen:
                    seen.add(node)
                    stack.extend(inside.get(node, ()))
            return False

        for edge in model.edges:
            if edge.kind in INHERITANCE_KINDS:
                if component[edge.source] == component[edge.target]:
                    if edge.source == edge.target or would_cycle(edge):
                        model.diagnostics.append(diagnostics.make(
                            "R003", edge.span,
                            f"specialization cycle through "
                            f"{model.elements[edge.source].display_name()}; "
                            f"edge dropped"))
                        continue
                    inside.setdefault(edge.source, []).append(edge.target)
                inherits.setdefault(edge.source, []).append(edge)
            kept.append(edge)
        model.edges = tuple(kept)
        model._inherits = {k: tuple(v) for k, v in inherits.items()}


_PATH_RELATIONSHIPS = (("subsets", EdgeKind.SUBSETTING),
                       ("redefines", EdgeKind.REDEFINITION),
                       ("refsubsets", EdgeKind.REFERENCE_SUBSETTING))


def _relationships(attrs: dict) -> list[tuple[NamePath, Optional[EdgeKind], bool]]:
    """The names an element's node attributes resolve, in resolution order,
    as (path, edge kind, conjugated); the ``about`` target has no edge kind."""
    todo = [(ref.path, EdgeKind.SUBCLASSIFICATION, False)
            for ref in attrs.get("specializes") or ()]
    typing = attrs.get("typing")
    if typing is not None:
        todo.append((typing.path, EdgeKind.FEATURE_TYPING, typing.conjugated))
    for name, kind in _PATH_RELATIONSHIPS:
        todo += [(path, kind, False) for path in attrs.get(name) or ()]
    about = attrs.get("about")
    if about is not None:
        todo.append((about, None, False))
    return todo


def _make_ref_target(ids: list[int], path: NamePath) -> RefTarget:
    return RefTarget(
        target=ids[-1],
        anchor=ids[-2] if len(ids) >= 2 else None,
        text=path.text,
        span=path.span,
    )


def _collect_body_properties(node: AstNode) -> list[BodyProperty]:
    props: list[BodyProperty] = []
    for child in node.children:
        if child.kind == "BodyProperty":
            props.append(_body_property_from(child))
        elif child.kind == "MeasurementBlock":
            entries = tuple(_body_property_from(c) for c in child.children
                            if c.kind == "BodyProperty")
            props.append(BodyProperty(name="measurement", span=child.span,
                                      children=entries))
    return props


def _body_property_from(node: AstNode) -> BodyProperty:
    children = tuple(_body_property_from(c) for c in node.children
                     if c.kind == "BodyProperty")
    return BodyProperty(name=node.attr("name"), span=node.span,
                        value=node.attr("value"), children=children)


def build_model(parsed: Iterable[tuple[SourceFile, AstNode, list[Diagnostic]]],
                catalog=None) -> Model:
    """Assemble a resolved model from parsed files.

    ``parsed`` is any iterable of (source, tree, parse diagnostics); each
    file is interned as it arrives and its tree is not kept. Parse
    diagnostics are carried into the model's diagnostic list. ``catalog``
    (default: the bundled profile catalog) supplies the prelude's risk
    levels and interprets the annotations.
    """
    from . import profile  # local import: profile depends on model types
    catalog = catalog or profile.DEFAULT_CATALOG
    builder = _Builder(catalog.risk_levels)
    model = builder.model
    builder.build_prelude()
    for source, tree, parse_diags in parsed:
        model.files.append(source)
        model.diagnostics.extend(parse_diags)
        builder.intern_tree(tree)
        del tree  # free it before the next file is parsed
    builder.index_roots()
    builder.resolve_imports()
    builder.resolve_relationships()
    builder.remove_cycles()
    profile.annotate_model(model, builder.clauses, catalog=catalog)
    return model
