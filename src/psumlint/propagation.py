"""Uncertainty propagation graph and causal queries.

Edges:
  Specifies   source element -> its owned/inherited specification constraints
  Causes      specification  -> uncertainty/effect referencing it
  Propagates  uncertainty    -> each of its effect targets
  Incurs      uncertain element -> risk annotation attached to it
  Groups      topic -> each grouped uncertainty (organizational only; never
              traversed by traces)

Traces walk {Specifies, Causes, Propagates, Incurs} by default, or
Propagates only in the effect-chain view. Risk nodes are sinks.
"""

from __future__ import annotations

import enum
from operator import itemgetter
from typing import NamedTuple, Optional

from .inheritance import EffectiveMap, has_effective
from .model import Model
from .profile import (EFFECT, INDETERMINACY_SOURCE,
                      INDETERMINACY_SPECIFICATION, UNCERTAINTY,
                      UNCERTAINTY_TOPIC, RiskAnnotation)
from .source import Span


class NodeRole(enum.Enum):
    SOURCE = "Source"
    SPECIFICATION = "Specification"
    UNCERTAINTY = "Uncertainty"
    EFFECT = "Effect"
    TOPIC = "Topic"
    RISK = "Risk"


class PropagationEdgeKind(enum.Enum):
    SPECIFIES = "Specifies"
    CAUSES = "Causes"
    PROPAGATES = "Propagates"
    INCURS = "Incurs"
    GROUPS = "Groups"


TRACE_KINDS = frozenset({
    PropagationEdgeKind.SPECIFIES, PropagationEdgeKind.CAUSES,
    PropagationEdgeKind.PROPAGATES, PropagationEdgeKind.INCURS,
})
EFFECT_CHAIN_KINDS = frozenset({PropagationEdgeKind.PROPAGATES})
_ROOT_ROLES = frozenset({NodeRole.SOURCE, NodeRole.SPECIFICATION})


class PropagationEdge(NamedTuple):
    source: int
    target: int
    kind: PropagationEdgeKind
    provenance: tuple[Span, ...] = ()


class PropagationGraph:
    """The propagation graph of a model, as ``build_propagation_graph``
    makes it: each node's roles, and each edge once. Nothing changes a
    graph once it is made, so what is derived from it is kept."""

    __slots__ = ("model", "roles", "edges", "_nodes", "_adjacency", "_labels")

    def __init__(self, model: Model, roles: dict[int, set[NodeRole]],
                 edges: list[PropagationEdge]) -> None:
        self.model = model
        self.roles = roles
        #: each edge once, in the order first referenced, with the spans of
        #: every reference to it as its provenance
        self.edges = edges
        self._nodes = sorted(roles)
        #: (kinds, reverse) -> adjacency, built on first use; see ``adjacency``
        self._adjacency: dict[tuple[frozenset, bool],
                              dict[int, list[tuple[int, PropagationEdge]]]] = {}
        #: node -> label, built on first use by ``reporting.graph_node_labels``
        self._labels: Optional[dict[int, str]] = None

    def nodes(self) -> list[int]:
        return self._nodes

    def has_node(self, eid: int) -> bool:
        return eid in self.roles

    def adjacency(self, kinds: frozenset, reverse: bool
                  ) -> dict[int, list[tuple[int, PropagationEdge]]]:
        """Each node's ``(peer, edge)`` pairs over edges of ``kinds``.

        A peer is an edge's target, or its source when ``reverse``. Pairs
        are sorted by peer, ties in edge order. Risks are sinks, so
        forward adjacency has no entry for them. Built on first use, in one
        pass over ``edges``, and kept.
        """
        key = (kinds, reverse)
        table = self._adjacency.get(key)
        if table is None:
            table = self._adjacency[key] = {}
            for edge in self.edges:
                if edge.kind not in kinds:
                    continue
                if reverse:
                    table.setdefault(edge.target, []).append((edge.source, edge))
                elif NodeRole.RISK not in self.roles.get(edge.source, ()):
                    table.setdefault(edge.source, []).append((edge.target, edge))
            for pairs in table.values():
                pairs.sort(key=itemgetter(0))
        return table


class TraceStartError(ValueError):
    """E001: the requested trace start is not a node of the graph."""

    code = "E001"


def build_propagation_graph(model: Model,
                            effective: EffectiveMap) -> PropagationGraph:
    roles: dict[int, set[NodeRole]] = {}
    #: (source, target, kind) -> the span of each reference to that edge;
    #: a repeated reference merges into the edge it names
    references: dict[tuple[int, int, PropagationEdgeKind], list[Span]] = {}

    def add_role(eid: int, role: NodeRole) -> None:
        roles.setdefault(eid, set()).add(role)

    def add_edge(source: int, target: int, kind: PropagationEdgeKind,
                 span: Span) -> None:
        references.setdefault((source, target, kind), []).append(span)

    uncertain_elements: list[int] = []
    for element in model.elements:
        if element.is_reference_carrier:
            continue
        eid = element.id
        if has_effective(effective, eid, INDETERMINACY_SOURCE):
            add_role(eid, NodeRole.SOURCE)
        if has_effective(effective, eid, INDETERMINACY_SPECIFICATION):
            add_role(eid, NodeRole.SPECIFICATION)
        if has_effective(effective, eid, UNCERTAINTY, EFFECT):
            # an effect is also an uncertainty node
            add_role(eid, NodeRole.UNCERTAINTY)
            uncertain_elements.append(eid)
        if has_effective(effective, eid, EFFECT):
            add_role(eid, NodeRole.EFFECT)
        if any(app.stereotype == UNCERTAINTY_TOPIC
               for app in element.annotations):
            # inherited topic-ness (e.g. a payload typed by a topic item
            # definition) groups nothing, so only declared topics are nodes
            add_role(eid, NodeRole.TOPIC)

    for eid, node_roles in list(roles.items()):
        if NodeRole.SOURCE in node_roles:
            for spec in effective.specifications(eid):
                add_role(spec, NodeRole.SPECIFICATION)
                add_edge(eid, spec, PropagationEdgeKind.SPECIFIES,
                         model.elements[spec].span)

    for eid in uncertain_elements:
        for app in effective.references(eid):
            for ref in app.spec_refs:
                if has_effective(effective, ref.target,
                                 INDETERMINACY_SPECIFICATION):
                    add_role(ref.target, NodeRole.SPECIFICATION)
                    add_edge(ref.target, eid, PropagationEdgeKind.CAUSES,
                             ref.span)
            for ref in app.effect_refs:
                if has_effective(effective, ref.target, UNCERTAINTY, EFFECT):
                    add_edge(eid, ref.target, PropagationEdgeKind.PROPAGATES,
                             ref.span)

    for element in model.elements:
        for app in element.annotations:
            if app.stereotype == UNCERTAINTY_TOPIC:
                for ref in app.uncertainty_refs:
                    if has_effective(effective, ref.target, UNCERTAINTY, EFFECT):
                        add_edge(element.id, ref.target,
                                 PropagationEdgeKind.GROUPS, ref.span)

    for risk in model.risks:
        if risk.target in roles:
            add_role(risk.element, NodeRole.RISK)
            add_edge(risk.target, risk.element, PropagationEdgeKind.INCURS,
                     risk.span)
    edges = [PropagationEdge(source, target, kind, tuple(spans))
             for (source, target, kind), spans in references.items()]
    return PropagationGraph(model, roles, edges)


# -- traces ---------------------------------------------------------------------

class TraceResult(NamedTuple):
    """Nodes reached from ``start``, in walk order, each with the edge by
    which the walk first reached it (``via``; the start has none).

    ``roots`` is set by backward traces only: the reached sources and
    specifications.
    """

    start: int
    reached: tuple[int, ...]
    via: dict[int, PropagationEdge]
    roots: Optional[tuple[int, ...]] = None

    def path(self, node: int) -> tuple[PropagationEdge, ...]:
        """The witness path from ``start`` to a reached ``node``, first edge
        first, read back along ``via``."""
        edges = []
        while node != self.start:
            edge = self.via[node]
            edges.append(edge)
            node = edge.source if edge.target == node else edge.target
        return tuple(reversed(edges))


def _walk(graph: PropagationGraph, start: int, kinds: frozenset,
          reverse: bool) -> TraceResult:
    if not graph.has_node(start):
        raise TraceStartError(
            f"E001: {graph.model.elements[start].display_name()} is not a "
            f"node of the propagation graph")
    adjacency = graph.adjacency(kinds, reverse)
    via: dict[int, PropagationEdge] = {}
    frontier = [start]
    order = [start]
    while frontier:
        nxt: list[int] = []
        for node in sorted(frontier):
            for peer, edge in adjacency.get(node, ()):
                if peer not in via and peer != start:
                    via[peer] = edge
                    nxt.append(peer)
        order.extend(nxt)
        frontier = nxt
    return TraceResult(start=start, reached=tuple(order), via=via)


def forward_trace(graph: PropagationGraph, start: int,
                  effects_only: bool = False) -> TraceResult:
    kinds = EFFECT_CHAIN_KINDS if effects_only else TRACE_KINDS
    return _walk(graph, start, kinds, reverse=False)


def backward_trace(graph: PropagationGraph, failure: int,
                   effects_only: bool = False) -> TraceResult:
    kinds = EFFECT_CHAIN_KINDS if effects_only else TRACE_KINDS
    walk = _walk(graph, failure, kinds, reverse=True)
    roots = tuple(node for node in walk.reached
                  if not _ROOT_ROLES.isdisjoint(graph.roles.get(node, ())))
    return walk._replace(roots=roots)


# -- topics ------------------------------------------------------------------------

class TopicRecord(NamedTuple):
    topic: int
    members: tuple[int, ...]
    roots: tuple[int, ...]
    effects: tuple[int, ...]
    risks: tuple[RiskAnnotation, ...]


def topic_report(model: Model, graph: PropagationGraph) -> list[TopicRecord]:
    """One record per directly declared uncertainty topic."""
    risks_at: dict[int, list[RiskAnnotation]] = {}
    for risk in model.risks:
        risks_at.setdefault(risk.element, []).append(risk)
    records: list[TopicRecord] = []
    for element in model.elements:
        topic_apps = [a for a in element.annotations
                      if a.stereotype == UNCERTAINTY_TOPIC]
        if not topic_apps:
            continue
        # insertion-ordered dicts: each list in first-found order, once
        members = dict.fromkeys(ref.target for app in topic_apps
                                for ref in app.uncertainty_refs)
        roots: dict[int, None] = {}
        effects: dict[int, None] = {}
        risk_hits: dict[RiskAnnotation, None] = {}
        for member in members:
            if not graph.has_node(member):
                continue
            roots.update(dict.fromkeys(backward_trace(graph, member).roots))
            for node in forward_trace(graph, member).reached:
                node_roles = graph.roles.get(node, set())
                if NodeRole.EFFECT in node_roles and node != member:
                    effects[node] = None
                if NodeRole.RISK in node_roles:
                    risk_hits.update(dict.fromkeys(risks_at.get(node, ())))
        records.append(TopicRecord(
            topic=element.id, members=tuple(members), roots=tuple(roots),
            effects=tuple(effects), risks=tuple(risk_hits)))
    return records


# -- derived specifications -----------------------------------------------------------

class SpecSuggestion(NamedTuple):
    effect: int
    specification: int
    anchor: Optional[int]
    via_uncertainty: int

    def display(self, model: Model) -> str:
        spec = model.elements[self.specification]
        if self.anchor is not None:
            anchor = model.elements[self.anchor]
            return f"{anchor.display_name()}.{spec.name}"
        return spec.display_name()


def derive_effect_specifications(model: Model, effective: EffectiveMap,
                                 graph: PropagationGraph) -> list[SpecSuggestion]:
    """Specifications an effect would inherit from its causing uncertainty.

    For each Propagates edge u -> e, every (anchor, specification) pair
    referenced by u and not already referenced by e is suggested for e.
    Advisory only; the model is never changed.
    """
    def anchored_refs(eid: int) -> list[tuple[Optional[int], int]]:
        return [(ref.anchor, ref.target)
                for app in effective.references(eid) for ref in app.spec_refs]

    # a dict keeps the first of equal suggestions, in insertion order
    suggestions: dict[SpecSuggestion, None] = {}
    for edge in graph.edges:
        if edge.kind is not PropagationEdgeKind.PROPAGATES:
            continue
        upstream, effect = edge.source, edge.target
        present = set(anchored_refs(effect))
        for anchor, spec in anchored_refs(upstream):
            if (anchor, spec) not in present:
                suggestions.setdefault(SpecSuggestion(
                    effect=effect, specification=spec, anchor=anchor,
                    via_uncertainty=upstream))
    return list(suggestions)
