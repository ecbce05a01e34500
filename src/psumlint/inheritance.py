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

from collections.abc import Callable, Iterable, Iterator, Mapping
from typing import Optional

from .model import EdgeKind, Model
from .profile import (EFFECT, INDETERMINACY_SPECIFICATION, UNCERTAINTY,
                      Provenance, StereotypeApplication)

_NO_KINDS: frozenset[str] = frozenset()


class EffectiveMap(Mapping[int, list[StereotypeApplication]]):
    """Direct plus inherited applications of every element, read-only.

    Only each element's set of effective stereotype kinds is built up
    front; equal sets are interned, so elements share them. That answers
    ``has_effective`` with one set test. An element's full list, ordered
    direct first and then by (depth, origin, stereotype), is built from its
    parents' lists when it is first read, and kept; ``references`` and
    ``specifications`` are composed and kept the same way, without lists.
    """

    def __init__(self, model: Model) -> None:
        self._model = model
        self._kinds: dict[int, frozenset[str]] = {}
        self._lists: dict[int, list[StereotypeApplication]] = {}
        self._references: dict[int, list[StereotypeApplication]] = {}
        #: element -> {specification constraint: distance}, in list order
        self._specifications: dict[int, dict[int, int]] = {}
        kinds = self._kinds
        interned: dict[frozenset[str], frozenset[str]] = {}
        for eid in _post_order(model, (e.id for e in model.elements), kinds):
            direct = model.elements[eid].annotations
            found = frozenset(app.stereotype for app in direct).union(
                *(kinds[edge.target] for edge in model.inheritance_edges(eid)))
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

    def references(self, eid: int) -> list[StereotypeApplication]:
        """The Uncertainty and Effect applications in ``self[eid]`` that
        hold specification or effect references, in list order.

        Composed like the full list, from the parents' reference lists and
        the element's own referring applications; the redefinition override
        still reads all of its direct stereotypes. An entry refers exactly
        when its origin's application does, so this equals filtering the
        full list, which is never built. Lists are kept, and the returned
        one belongs to the map.
        """
        memo = self._references
        for node in _post_order(self._model, (eid,), memo):
            memo[node] = _combine(self._model, node, memo, _refers)
        return memo[eid]

    def specifications(self, eid: int) -> list[int]:
        """Specification constraints owned by an element or its closure, in
        the closure's breadth-first order, the element's own first.

        Each element keeps its constraints with their distance. A parent's
        entry is offered at (distance + 1, edge position, position in the
        parent's list), and the least offer per constraint wins: that is
        the order in which a breadth-first search first reaches the
        constraint's owner.
        """
        memo = self._specifications
        model = self._model
        for node in _post_order(model, (eid,), memo):
            offers = sorted(
                (distance + 1, position, index, spec)
                for position, edge in enumerate(model.inheritance_edges(node))
                for index, (spec, distance)
                in enumerate(memo[edge.target].items()))
            found = dict.fromkeys(
                (child for child in model.elements[node].owned
                 if INDETERMINACY_SPECIFICATION in self.kinds(child)), 0)
            for distance, _, _, spec in offers:
                found.setdefault(spec, distance)
            memo[node] = found
        return list(memo[eid])


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
             lists: dict[int, list[StereotypeApplication]],
             keep: Optional[Callable[[StereotypeApplication], bool]] = None
             ) -> list[StereotypeApplication]:
    """An element's list from its parents' ``lists``: its direct entries
    that ``keep`` accepts, then each parent's entries carried one hop."""
    direct = {app.stereotype: app for app in model.elements[eid].annotations}
    combined: dict[tuple[str, int], StereotypeApplication] = {
        (stereotype, eid): app for stereotype, app in direct.items()
        if keep is None or keep(app)}
    for edge in model.inheritance_edges(eid):
        redefines = edge.kind is EdgeKind.REDEFINITION
        hop = (edge.kind, edge.target)
        for inherited in lists[edge.target]:
            if redefines and inherited.stereotype in direct:
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


def _refers(app: StereotypeApplication) -> bool:
    return (app.stereotype in (UNCERTAINTY, EFFECT)
            and bool(app.spec_refs or app.effect_refs))


def _carry(app: StereotypeApplication, hop: tuple[EdgeKind, int],
           onto: int) -> StereotypeApplication:
    """``app`` one hop further: its provenance gains one link, not a copy."""
    provenance = app.provenance
    return app._replace(element=onto, provenance=Provenance(
        origin=provenance.origin, span=provenance.span, hop=hop,
        rest=provenance, depth=provenance.depth + 1))


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

