"""Well-formedness rules over a resolved model.

validate() runs the full rule catalog and returns all findings, including
the lexical/parse/resolution diagnostics recorded while the model was
built, ordered by (file, span start, code). Severities: structural
violations are errors, methodological advice is a warning.
"""

from __future__ import annotations

from . import diagnostics
from .diagnostics import Diagnostic, ordered
from .inheritance import EffectiveMap, has_effective
from .model import ElementKind, Model
from .profile import (BELIEF_STATEMENT, EFFECT, INDETERMINACY_SOURCE,
                      INDETERMINACY_SPECIFICATION, UNCERTAINTY, ProfileCatalog,
                      check_applicability)

_UNCERTAIN = (UNCERTAINTY, EFFECT)


def validate(model: Model, catalog: ProfileCatalog,
             effective: EffectiveMap) -> list[Diagnostic]:
    findings: list[Diagnostic] = list(model.diagnostics)
    findings += _applicability_rule(model, catalog)
    findings += _specification_rules(model, effective)
    findings += _reference_rules(model, effective)
    findings += _measurement_and_body_rules(model, effective)
    findings += _characterization_rules(model)
    findings += _risk_rules(model, effective)
    findings += _orphan_effect_rule(model)
    return ordered(findings)


def _applicability_rule(model: Model, catalog: ProfileCatalog) -> list[Diagnostic]:
    """V001: a stereotype applied to an element it does not extend."""
    out: list[Diagnostic] = []
    for element in model.elements:
        for app in element.annotations:
            finding = check_applicability(app, element, model, catalog)
            if finding is not None:
                out.append(finding)
    return out


def _specification_rules(model: Model, effective: EffectiveMap) -> list[Diagnostic]:
    """V005: specification constraints must sit inside an indeterminacy
    source, or inside an uncertain element that composes referenced
    specifications."""
    out: list[Diagnostic] = []
    for element in model.elements:
        if element.kind is not ElementKind.CONSTRAINT_USAGE:
            continue
        direct_spec = [a for a in element.annotations
                       if a.stereotype == INDETERMINACY_SPECIFICATION]
        if not direct_spec:
            continue
        owner = element.owner
        if owner is None:
            continue
        if has_effective(effective, owner, INDETERMINACY_SOURCE):
            continue
        if has_effective(effective, owner, *_UNCERTAIN):
            continue
        out.append(diagnostics.make(
            "V005", direct_spec[0].span,
            f"specification constraint {element.display_name()} is not owned "
            f"by an indeterminacy source"))
    return out


def _reference_rules(model: Model, effective: EffectiveMap) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    for element in model.elements:
        for app in element.annotations:
            for ref in app.spec_refs:
                target = model.elements[ref.target]
                if (target.kind is not ElementKind.CONSTRAINT_USAGE
                        or not has_effective(effective, ref.target,
                                             INDETERMINACY_SPECIFICATION)):
                    out.append(diagnostics.make(
                        "V006", ref.span,
                        f"{ref.text!r} is not a constraint stereotyped as an "
                        f"indeterminacy specification"))
            for ref in app.effect_refs:
                if not has_effective(effective, ref.target, *_UNCERTAIN):
                    out.append(diagnostics.make(
                        "V007", ref.span,
                        f"effect target {ref.text!r} is not an uncertain element"))
            for ref in app.uncertainty_refs:
                if not has_effective(effective, ref.target, *_UNCERTAIN):
                    out.append(diagnostics.make(
                        "V008", ref.span,
                        f"topic member {ref.text!r} is not an uncertain element"))
    return out


def _measurement_and_body_rules(model: Model,
                                effective: EffectiveMap) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    for element in model.elements:
        for prop in element.body_properties:
            if prop.name == "measurement":
                if not has_effective(effective, element.id, BELIEF_STATEMENT,
                                     INDETERMINACY_SOURCE, *_UNCERTAIN):
                    out.append(diagnostics.make(
                        "V009", prop.span,
                        f"measurement block on {element.display_name()}, which "
                        f"is not a measurable stereotyped element"))
            elif prop.name == "b_duration":
                if not has_effective(effective, element.id, BELIEF_STATEMENT):
                    out.append(diagnostics.make(
                        "V015", prop.span,
                        f"b_duration on {element.display_name()}, which is not "
                        f"a belief statement"))
    return out


def _characterization_rules(model: Model) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    for element in model.elements:
        for app in element.annotations:
            ch = app.characterization
            if ch is None:
                continue
            if ch.reducibility and ch.nature == "Aleatory":
                out.append(diagnostics.make(
                    "V010", app.span,
                    f"reducibility {ch.reducibility} stated for an aleatory "
                    f"uncertainty on {element.display_name()}"))
            if ch.pattern and ch.kind is not None and ch.kind != "Occurrence":
                out.append(diagnostics.make(
                    "V011", app.span,
                    f"pattern {ch.pattern} stated for a {ch.kind} uncertainty "
                    f"on {element.display_name()}"))
    return out


def _risk_rules(model: Model, effective: EffectiveMap) -> list[Diagnostic]:
    """V013; the build reported V012 when it collected the risks."""
    out: list[Diagnostic] = []
    for risk in model.risks:
        if not has_effective(effective, risk.target, *_UNCERTAIN):
            out.append(diagnostics.make(
                "V013", risk.span,
                f"risk {risk.name or '<anonymous>'} annotates "
                f"{model.elements[risk.target].display_name()}, which is not "
                f"an uncertain element"))
    return out


def _orphan_effect_rule(model: Model) -> list[Diagnostic]:
    inbound: set[int] = set()
    for element in model.elements:
        for app in element.annotations:
            for ref in app.effect_refs:
                inbound.add(ref.target)
    out: list[Diagnostic] = []
    for element in model.elements:
        for app in element.annotations:
            if app.stereotype == EFFECT and element.id not in inbound:
                out.append(diagnostics.make(
                    "V016", app.span,
                    f"{element.display_name()} is stereotyped as an effect but "
                    f"nothing references it as one"))
    return out


def has_errors(findings: list[Diagnostic]) -> bool:
    return any(d.severity is diagnostics.Severity.ERROR for d in findings)


def parse_or_resolution_errors(findings: list[Diagnostic]) -> list[Diagnostic]:
    """The parse (P) and resolution (R) errors among ``findings``, which
    block analysis."""
    return [d for d in findings if d.code.startswith(("P", "R"))
            and d.severity is diagnostics.Severity.ERROR]
