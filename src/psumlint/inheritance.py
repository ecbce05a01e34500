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
        stack = [(element.id, iter(model.out_edges(element.id)))]
        while stack:
            eid, edges = stack[-1]
            for edge in edges:
                target = edge.target
                if (edge.kind in INHERITANCE_KINDS and target not in memo
                        and target not in on_stack):
                    on_stack.add(target)
                    stack.append((target, iter(model.out_edges(target))))
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
        for inherited in inherited_apps:
            if (edge.kind is EdgeKind.REDEFINITION
                    and inherited.stereotype in direct_kinds):
                continue
            key = (inherited.stereotype, inherited.provenance.origin)
            carried = _carry(inherited, edge.kind, edge.target, eid)
            existing = combined.get(key)
            if existing is None or len(carried.provenance.path) < len(
                    existing.provenance.path):
                combined[key] = carried
    return _ordered(combined, eid)


def _carry(app: StereotypeApplication, edge_kind: EdgeKind, via: int,
           onto: int) -> StereotypeApplication:
    return StereotypeApplication(
        stereotype=app.stereotype,
        element=onto,
        provenance=Provenance(
            origin=app.provenance.origin,
            span=app.provenance.span,
            path=((edge_kind, via),) + app.provenance.path,
        ),
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
                                   len(app.provenance.path),
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
    apps.sort(key=lambda app: len(app.provenance.path), reverse=True)
    merged = apps[0].characterization
    for app in apps[1:]:
        merged = merged.merged_under(app.characterization)
    return merged


def effective_specifications(model: Model, effective: EffectiveMap,
                             eid: int) -> list[int]:
    """Specification constraints owned by an element or its closure."""
    result: list[int] = []
    for scope in (eid, *model.specialization_closure(eid)):
        for child_id in model.elements[scope].owned:
            if has_effective(effective, child_id, INDETERMINACY_SPECIFICATION):
                result.append(child_id)
    return result


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
