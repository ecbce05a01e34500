"""Effective stereotypes: propagation across specialization relationships.

Stereotype applications flow along four edge kinds: feature typing
(definition to usage), subclassification (general to special definition),
subsetting and redefinition (usage to usage). A redefining usage that
directly applies a stereotype kind suppresses applications of that same
kind arriving over its redefinition edges.

Entries are deduplicated by (stereotype, origin element); characterization
fields merge field-wise with the nearer application winning.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from typing import Optional

from .model import EdgeKind, Model
from .profile import (EFFECT, INDETERMINACY_SOURCE,
                      INDETERMINACY_SPECIFICATION, UNCERTAINTY,
                      Provenance, StereotypeApplication)

_NO_KINDS: frozenset[str] = frozenset()


class EffectiveMap(Mapping[int, list[StereotypeApplication]]):
    """Direct plus inherited applications of every element, read-only.

    Only each element's set of effective stereotype kinds is built up
    front; equal sets are interned, so elements share them. That answers
    ``has_effective`` with one set test. An element's full list, ordered
    direct first and then by (depth, origin, stereotype), is built from its
    parents' lists when it is first read, and kept.
    """

    def __init__(self, model: Model) -> None:
        self._model = model
        self._kinds: dict[int, frozenset[str]] = {}
        self._lists: dict[int, list[StereotypeApplication]] = {}
        self._references: dict[int, tuple[StereotypeApplication, ...]] = {}
        self._specifications: dict[int, list[int]] = {}
        self._firsts: dict[tuple[str, ...],
                           dict[int, Optional[StereotypeApplication]]] = {}
        kinds = self._kinds
        interned: dict[frozenset[str], frozenset[str]] = {}
        for eid in _post_order(model, (e.id for e in model.elements), kinds):
            direct = model.elements[eid].annotations
            edges = model.inheritance_edges(eid)
            if not direct and len(edges) == 1:
                kinds[eid] = kinds[edges[0].target]
                continue
            found = frozenset(app.stereotype for app in direct).union(
                *(kinds[edge.target] for edge in edges))
            kinds[eid] = interned.setdefault(found, found)

    def __getitem__(self, eid: int) -> list[StereotypeApplication]:
        lists = self._lists
        if eid not in lists:
            if eid not in self._kinds:
                raise KeyError(eid)
            for node in _post_order(self._model, (eid,), lists):
                lists[node] = _combine(self._model, node, lists)
        return lists[eid]

    def __contains__(self, eid: object) -> bool:
        return eid in self._kinds

    def __iter__(self) -> Iterator[int]:
        return iter(self._kinds)

    def __len__(self) -> int:
        return len(self._kinds)

    def kinds(self, eid: int) -> frozenset[str]:
        """The stereotypes an element carries, directly or inherited."""
        return self._kinds.get(eid, _NO_KINDS)

    def first(self, eid: int, stereotypes: tuple[str, ...]
              ) -> Optional[StereotypeApplication]:
        """The first application of one of ``stereotypes`` in ``self[eid]``.

        Found without building lists: an element's first one is its own
        application of the least such stereotype, or else the least by
        (depth, origin, stereotype) of its parents' first ones, carried over
        the first inheritance edge that reaches it. The redefinition
        override never removes it, as it only drops kinds the element
        applies itself. One carried application per element is kept for
        each ``stereotypes``.
        """
        if self.kinds(eid).isdisjoint(stereotypes):
            return None
        memo = self._firsts.setdefault(stereotypes, {})
        model = self._model
        for node in _post_order(model, (eid,), memo):
            own = [app for app in _direct(model.elements[node])
                   if app.stereotype in stereotypes]
            if own:
                memo[node] = own[0]
                continue
            best = via = None
            for edge in model.inheritance_edges(node):
                found = memo[edge.target]
                if found is not None and (best is None
                                          or _rank(found) < _rank(best)):
                    best, via = found, edge
            memo[node] = (None if best is None
                          else _carry(best, (via.kind, via.target), node))
        return memo[eid]

    def references(self, eid: int) -> tuple[StereotypeApplication, ...]:
        """The Uncertainty and Effect applications in ``self[eid]`` that
        hold specification or effect references, in list order.

        An element with one inheritance edge lists its own such
        applications, then its parent's tuple, less the kinds a
        redefinition override drops; the tuple is shared when nothing is
        added or dropped. Carried entries keep their order, as one hop adds
        one to every depth. Only an element with several inheritance edges
        reads its full list. Entries may be the applications that were
        carried, so read only their stereotype and references.
        """
        memo = self._references
        model = self._model
        for node in _post_order(model, (eid,), memo):
            edges = model.inheritance_edges(node)
            if len(edges) > 1:
                memo[node] = tuple(app for app in self[node] if _refers(app))
                continue
            refs = memo[edges[0].target] if edges else ()
            if edges and edges[0].kind is EdgeKind.REDEFINITION:
                overridden = {app.stereotype
                              for app in model.elements[node].annotations}
                if any(app.stereotype in overridden for app in refs):
                    refs = tuple(app for app in refs
                                 if app.stereotype not in overridden)
            own = _own_references(model, node)
            memo[node] = own + refs if own else refs
        return memo[eid]

    def specifications(self, eid: int) -> list[int]:
        """Specification constraints owned by an element or its closure.

        A single-edge element's list is its own constraints followed by its
        parent's list, as its closure is the parent followed by the parent's
        closure; any other element's is read off its closure. Lists are
        kept, and the returned one belongs to the map.
        """
        memo = self._specifications
        model = self._model
        for node in _post_order(model, (eid,), memo):
            edges = model.inheritance_edges(node)
            if len(edges) == 1:
                memo[node] = (self._owned_specifications((node,))
                              + memo[edges[0].target])
            else:
                memo[node] = self._owned_specifications(
                    (node, *model.specialization_closure(node)))
        return memo[eid]

    def _owned_specifications(self, scopes: tuple[int, ...]) -> list[int]:
        return [child for scope in scopes
                for child in self._model.elements[scope].owned
                if INDETERMINACY_SPECIFICATION in self.kinds(child)]


def effective_stereotypes(model: Model) -> EffectiveMap:
    """Direct plus inherited applications for every element (see
    ``EffectiveMap``)."""
    return EffectiveMap(model)


def _post_order(model: Model, roots: Iterable[int],
                done: Mapping[int, object]) -> Iterator[int]:
    """Elements reachable from ``roots`` over ``model.inheritance_edges``
    and not in ``done``, each after its parents; the caller adds each one
    to ``done``, so a target that two edges share is yielded once.

    A depth-first walk with an explicit stack, so the depth of a
    specialization chain is not bounded by the interpreter's recursion
    limit. The inheritance edges are acyclic once the model is built, as
    R003 drops every edge that would close a cycle.
    """
    for root in roots:
        if root in done:
            continue
        stack = [(root, iter(model.inheritance_edges(root)))]
        while stack:
            eid, edges = stack[-1]
            for edge in edges:
                if edge.target not in done:
                    stack.append((edge.target,
                                  iter(model.inheritance_edges(edge.target))))
                    break
            else:
                stack.pop()
                yield eid


def _combine(model: Model, eid: int,
             lists: dict[int, list[StereotypeApplication]]
             ) -> list[StereotypeApplication]:
    direct = model.elements[eid].annotations
    direct_kinds = {app.stereotype for app in direct}
    combined: dict[tuple[str, int], StereotypeApplication] = {}
    for app in direct:
        combined[(app.stereotype, eid)] = app
    for edge in model.inheritance_edges(eid):
        redefines = edge.kind is EdgeKind.REDEFINITION
        hop = (edge.kind, edge.target)
        for inherited in lists[edge.target]:
            if redefines and inherited.stereotype in direct_kinds:
                continue
            key = (inherited.stereotype, inherited.provenance.origin)
            existing = combined.get(key)
            if (existing is None or inherited.provenance.depth + 1
                    < existing.provenance.depth):
                combined[key] = _carry(inherited, hop, eid)
    return sorted(combined.values(), key=_rank)


def _rank(app: StereotypeApplication) -> tuple[int, int, str]:
    """List order: direct entries (depth 0) first, then the nearer."""
    return (app.provenance.depth, app.provenance.origin, app.stereotype)


def _direct(element) -> list[StereotypeApplication]:
    """An element's direct entries in list order: the last application of
    each stereotype, by stereotype."""
    by_kind = {app.stereotype: app for app in element.annotations}
    return [by_kind[stereotype] for stereotype in sorted(by_kind)]


def _refers(app: StereotypeApplication) -> bool:
    return (app.stereotype in (UNCERTAINTY, EFFECT)
            and bool(app.spec_refs or app.effect_refs))


def _own_references(model: Model, eid: int
                    ) -> tuple[StereotypeApplication, ...]:
    return tuple(app for app in _direct(model.elements[eid]) if _refers(app))


def _carry(app: StereotypeApplication, hop: tuple[EdgeKind, int],
           onto: int) -> StereotypeApplication:
    """``app`` one hop further: its provenance gains one link, not a copy."""
    provenance = app.provenance
    return StereotypeApplication(
        stereotype=app.stereotype,
        element=onto,
        provenance=Provenance(origin=provenance.origin, span=provenance.span,
                              hop=hop, rest=provenance,
                              depth=provenance.depth + 1),
        span=app.span,
        characterization=app.characterization,
        nature=app.nature,
        duration=app.duration,
        spec_refs=app.spec_refs,
        effect_refs=app.effect_refs,
        uncertainty_refs=app.uncertainty_refs,
    )


def has_effective(effective: EffectiveMap, eid: int, *stereotypes: str) -> bool:
    return not effective.kinds(eid).isdisjoint(stereotypes)


def effective_characterization(effective: EffectiveMap, eid: int):
    """Field-wise merge over all Uncertainty/Effect applications, nearest first."""
    apps = [app for app in effective.get(eid, ())
            if app.stereotype in (UNCERTAINTY, EFFECT) and app.characterization]
    if not apps:
        return None
    apps.sort(key=lambda app: app.provenance.depth, reverse=True)
    merged = apps[0].characterization
    for app in apps[1:]:
        merged = merged.merged_under(app.characterization)
    return merged


@dataclass(frozen=True)
class DerivedEntry:
    """An element that inherits a stereotype it does not apply itself;
    ``provenance`` is the link of its nearest such application."""

    element: int
    stereotype: str
    provenance: Provenance

    @property
    def origin(self) -> int:
        return self.provenance.origin


@dataclass(frozen=True)
class DerivedReport:
    """Elements made uncertain / indeterminate purely by inheritance."""

    uncertain: tuple[DerivedEntry, ...]
    sources: tuple[DerivedEntry, ...]


def derived_report(model: Model, effective: EffectiveMap) -> DerivedReport:
    uncertain: list[DerivedEntry] = []
    sources: list[DerivedEntry] = []
    for element in model.elements:
        if element.is_prelude or element.is_reference_carrier:
            continue
        kinds = effective.kinds(element.id)
        direct_kinds = {app.stereotype for app in element.annotations}
        for names, bucket in (((UNCERTAINTY, EFFECT), uncertain),
                              ((INDETERMINACY_SOURCE,), sources)):
            if not kinds.isdisjoint(names) and direct_kinds.isdisjoint(names):
                first = effective.first(element.id, names)
                bucket.append(DerivedEntry(
                    element=element.id, stereotype=first.stereotype,
                    provenance=first.provenance))
    return DerivedReport(uncertain=tuple(uncertain), sources=tuple(sources))
