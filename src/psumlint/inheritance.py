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

from dataclasses import dataclass
from typing import Optional

from .model import EdgeKind, INHERITANCE_KINDS, Model
from .profile import (EFFECT, INDETERMINACY_SOURCE,
                      INDETERMINACY_SPECIFICATION, UNCERTAINTY,
                      Provenance, StereotypeApplication, is_reference_carrier)

EffectiveMap = dict[int, list[StereotypeApplication]]


def effective_stereotypes(model: Model) -> EffectiveMap:
    """Direct plus inherited applications for every element.

    A depth-first walk with an explicit stack, so the depth of a
    specialization chain is not bounded by the interpreter's recursion
    limit. Each element is computed when the walk leaves it, after every
    inheritance target it reaches; a target still on the stack (a cycle)
    contributes only its direct applications.
    """
    memo: EffectiveMap = {}
    on_stack: set[int] = set()
    for element in model.elements:
        if element.id in memo:
            continue
        on_stack.add(element.id)
        stack = [(element.id, iter(model.parents(element.id)))]
        while stack:
            eid, parents = stack[-1]
            for target in parents:
                if target not in memo and target not in on_stack:
                    on_stack.add(target)
                    stack.append((target, iter(model.parents(target))))
                    break
            else:
                stack.pop()
                on_stack.discard(eid)
                memo[eid] = _combine(model, eid, memo)
    return memo


def _combine(model: Model, eid: int,
             memo: EffectiveMap) -> list[StereotypeApplication]:
    direct = model.elements[eid].annotations
    direct_kinds = {app.stereotype for app in direct}
    combined: dict[tuple[str, int], StereotypeApplication] = {}
    for app in direct:
        combined[(app.stereotype, eid)] = app
    for edge in model.out_edges(eid):
        if edge.kind not in INHERITANCE_KINDS:
            continue
        inherited_apps = memo.get(edge.target)
        if inherited_apps is None:  # still on the stack: a cycle
            inherited_apps = model.elements[edge.target].annotations
        redefines = edge.kind is EdgeKind.REDEFINITION
        hop = (edge.kind, edge.target)
        for inherited in inherited_apps:
            if redefines and inherited.stereotype in direct_kinds:
                continue
            key = (inherited.stereotype, inherited.provenance.origin)
            existing = combined.get(key)
            if (existing is None or inherited.provenance.depth + 1
                    < existing.provenance.depth):
                combined[key] = _carry(inherited, hop, eid)
    return _ordered(combined, eid)


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


def _ordered(combined: dict[tuple[str, int], StereotypeApplication],
             eid: int) -> list[StereotypeApplication]:
    return sorted(combined.values(),
                  key=lambda app: (0 if app.is_direct else 1,
                                   app.provenance.depth,
                                   app.provenance.origin,
                                   app.stereotype))


def has_effective(effective: EffectiveMap, eid: int, *stereotypes: str) -> bool:
    return any(app.stereotype in stereotypes for app in effective.get(eid, ()))


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


def effective_specifications(model: Model, effective: EffectiveMap, eid: int,
                             memo: Optional[dict[int, list[int]]] = None
                             ) -> list[int]:
    """Specification constraints owned by an element or its closure.

    A single-parent element's list is its own constraints followed by its
    parent's list, as its closure is the parent followed by the parent's
    closure. ``memo`` shares the composed lists across calls over one model
    and effective map; the returned list belongs to it.
    """
    if memo is None:
        memo = {}
    chain: list[int] = []
    node = eid
    while node not in memo:
        parents = model.parents(node)
        if len(parents) != 1:
            memo[node] = _owned_specifications(
                model, effective, (node, *model.specialization_closure(node)))
            break
        chain.append(node)
        node = parents[0]
    specs = memo[node]
    for child in reversed(chain):
        specs = memo[child] = _owned_specifications(
            model, effective, (child,)) + specs
    return specs


def _owned_specifications(model: Model, effective: EffectiveMap,
                          scopes: tuple[int, ...]) -> list[int]:
    return [child for scope in scopes for child in model.elements[scope].owned
            if has_effective(effective, child, INDETERMINACY_SPECIFICATION)]


@dataclass(frozen=True)
class DerivedEntry:
    element: int
    stereotype: str
    origin: int
    path: tuple[tuple[EdgeKind, int], ...]


@dataclass(frozen=True)
class DerivedReport:
    """Elements made uncertain / indeterminate purely by inheritance."""

    uncertain: tuple[DerivedEntry, ...]
    sources: tuple[DerivedEntry, ...]


def derived_report(model: Model, effective: EffectiveMap) -> DerivedReport:
    uncertain: list[DerivedEntry] = []
    sources: list[DerivedEntry] = []
    for element in model.elements:
        if element.is_prelude or is_reference_carrier(element):
            continue
        apps = effective.get(element.id, [])
        direct_kinds = {a.stereotype for a in apps if a.is_direct}
        for group, names, bucket in (
                ("uncertain", (UNCERTAINTY, EFFECT), uncertain),
                ("source", (INDETERMINACY_SOURCE,), sources)):
            inherited = [a for a in apps
                         if a.stereotype in names and not a.is_direct]
            if inherited and not (direct_kinds & set(names)):
                first = inherited[0]
                bucket.append(DerivedEntry(
                    element=element.id, stereotype=first.stereotype,
                    origin=first.provenance.origin,
                    path=first.provenance.path))
    return DerivedReport(uncertain=tuple(uncertain), sources=tuple(sources))
