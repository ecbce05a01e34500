"""The uncertainty profile: stereotype catalog, codes, and interpretation.

The catalog (stereotype names, argument-code vocabularies, the
applicability matrix, reducibility/pattern literals, measurement feature
keys and risk levels) is plain data. ``profile-catalog.json`` next to this
module is its only statement: ``DEFAULT_CATALOG`` is loaded from it, and
``--profile-catalog`` replaces it with another file of the same shape. The
risk levels also name the prelude's ``RiskMetadata::LevelEnum`` literals.

Annotation clauses attached to ``ref`` usages that carry a reference target
are *reference attachments*: they contribute spec/effect/topic-member
references to the enclosing element's application instead of forming
stereotype applications of their own.
"""

from __future__ import annotations

import json
import os
from decimal import Decimal
from collections.abc import Iterable, Mapping
from typing import NamedTuple, Optional

from . import diagnostics
from .diagnostics import Diagnostic
from .model import (BodyProperty, EdgeKind, Element, ElementKind, Model,
                    RefTarget)
from .source import Span
from .syntax import AnnotationClause, AnnotationEntry, Value

BELIEF_STATEMENT = "BeliefStatement"
INDETERMINACY_SOURCE = "IndeterminacySource"
INDETERMINACY_SPECIFICATION = "IndeterminacySpecification"
UNCERTAINTY = "Uncertainty"
UNCERTAINTY_TOPIC = "UncertaintyTopic"
EFFECT = "Effect"


class ProfileCatalog(NamedTuple):
    """Machine-readable form of the profile's normative tables."""

    stereotypes: dict[str, tuple[str, ...]]
    uncertainty_kinds: dict[str, str]
    uncertainty_natures: dict[str, str]
    perspectives: dict[str, str]
    indeterminacy_natures: dict[str, str]
    reducibility_levels: tuple[str, ...]
    patterns: tuple[str, ...]
    measurement_features: tuple[str, ...]
    risk_levels: tuple[str, ...]

    @classmethod
    def from_json(cls, text: str) -> "ProfileCatalog":
        """Read a catalog; a missing field raises ``KeyError`` and a field
        of the wrong JSON type ``ValueError``."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("a profile catalog must be a JSON object")
        return cls(**{name: _read_field(data[name], shape, name)
                      for name, shape in _CATALOG_SHAPES})


#: each catalog field, in order, and the shape its JSON value is read as
_CATALOG_SHAPES = (
    ("stereotypes", "dict[str, tuple[str, ...]]"),
    ("uncertainty_kinds", "dict[str, str]"),
    ("uncertainty_natures", "dict[str, str]"),
    ("perspectives", "dict[str, str]"),
    ("indeterminacy_natures", "dict[str, str]"),
    ("reducibility_levels", "tuple[str, ...]"),
    ("patterns", "tuple[str, ...]"),
    ("measurement_features", "tuple[str, ...]"),
    ("risk_levels", "tuple[str, ...]"),
)


def _read_field(value: object, shape: str, name: str):
    """A catalog field's JSON ``value`` as ``shape``: ``str``,
    ``tuple[str, ...]`` or ``dict[str, <shape>]``."""
    if shape == "str" and isinstance(value, str):
        return value
    if shape == "tuple[str, ...]" and isinstance(value, list):
        return tuple(_read_field(item, "str", name) for item in value)
    if shape.startswith("dict[str, ") and isinstance(value, dict):
        inner = shape[len("dict[str, "):-1]
        return {key: _read_field(item, inner, name)
                for key, item in value.items()}
    raise ValueError(f"catalog field {name!r}: expected {shape}, "
                     f"found {type(value).__name__}")


def load_catalog(path: Optional[str] = None) -> ProfileCatalog:
    """Read a catalog file; without ``path``, the bundled one."""
    if path is None:
        # the loader reads files next to the module from a directory or a zip
        data = __spec__.loader.get_data(
            os.path.join(os.path.dirname(__file__), "profile-catalog.json"))
        return ProfileCatalog.from_json(data.decode("utf-8"))
    with open(path, "r", encoding="utf-8-sig") as fh:
        return ProfileCatalog.from_json(fh.read())


DEFAULT_CATALOG = load_catalog()


# -- measured expressions -----------------------------------------------------

class MeasuredExpression(NamedTuple):
    magnitude: Decimal
    unit: Optional[str] = None

    @property
    def is_percentage(self) -> bool:
        return self.unit == "%"


class Interval(NamedTuple):
    lo: Decimal
    hi: Decimal
    unit: Optional[str] = None


class MeasurementError(ValueError):
    """Raised for M001: nominal value and absolute error disagree on units."""

    code = "M001"


def apply_measurement_error(nominal: MeasuredExpression,
                            error: MeasuredExpression) -> Interval:
    """Exact interval around a nominal value given a percentage or absolute error."""
    if error.is_percentage:
        factor = error.magnitude / Decimal(100)
        delta = nominal.magnitude * factor
    else:
        if error.unit != nominal.unit:
            raise MeasurementError(
                f"M001: error unit {error.unit!r} does not match "
                f"nominal unit {nominal.unit!r}")
        delta = error.magnitude
    return Interval(lo=nominal.magnitude - delta, hi=nominal.magnitude + delta,
                    unit=nominal.unit)


# -- applications -------------------------------------------------------------

class UncertaintyCharacterization(NamedTuple):
    kind: Optional[str] = None
    nature: Optional[str] = None
    perspective: Optional[str] = None
    reducibility: Optional[str] = None
    pattern: Optional[str] = None
    measurements: tuple[tuple[str, MeasuredExpression], ...] = ()

    def merged_under(self, nearer: "UncertaintyCharacterization"
                     ) -> "UncertaintyCharacterization":
        """Field-wise merge where the nearer characterization wins."""
        return UncertaintyCharacterization(
            kind=nearer.kind or self.kind,
            nature=nearer.nature or self.nature,
            perspective=nearer.perspective or self.perspective,
            reducibility=nearer.reducibility or self.reducibility,
            pattern=nearer.pattern or self.pattern,
            measurements=nearer.measurements or self.measurements,
        )


class Provenance:
    """Where a stereotype application comes from.

    ``origin`` applies the stereotype directly, in the clause at ``span``.
    An inherited application's provenance is one link on the provenance it
    was carried from: ``hop`` is (edge kind, element it came through),
    ``rest`` the provenance there and ``depth`` the number of hops; a
    direct one has no hop. Equality and the hash are by value over
    (origin, span, path); neither recurses. A provenance is never changed
    after it is made.
    """

    __slots__ = ("origin", "span", "hop", "rest", "depth")

    def __init__(self, origin: int, span: Optional[Span] = None,
                 hop: Optional[tuple[EdgeKind, int]] = None,
                 rest: Optional[Provenance] = None, depth: int = 0) -> None:
        self.origin = origin
        self.span = span
        self.hop = hop
        self.rest = rest
        self.depth = depth

    @property
    def is_direct(self) -> bool:
        return self.hop is None

    @property
    def path(self) -> tuple[tuple[EdgeKind, int], ...]:
        """The hops from the carrying element back to the origin, nearest first."""
        hops = []
        link = self
        while link is not None and link.hop is not None:
            hops.append(link.hop)
            link = link.rest
        return tuple(hops)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Provenance):
            return NotImplemented
        if self.origin != other.origin or self.span != other.span:
            return False
        mine, theirs = self, other
        while mine is not theirs:
            if mine is None or theirs is None or mine.hop != theirs.hop:
                return False
            mine, theirs = mine.rest, theirs.rest
        return True

    def __hash__(self) -> int:
        return hash((self.origin, self.span, self.path))

    def __repr__(self) -> str:
        return (f"Provenance(origin={self.origin!r}, span={self.span!r}, "
                f"path={self.path!r})")


class StereotypeApplication(NamedTuple):
    """One stereotype on one element, direct or carried to it. The profile
    makes it whole from the element's annotation and reference
    attachments; inheritance carries it with ``_replace``."""

    stereotype: str
    element: int
    provenance: Provenance
    span: Span
    characterization: Optional[UncertaintyCharacterization] = None
    nature: Optional[str] = None
    duration: Optional[MeasuredExpression] = None
    spec_refs: tuple[RefTarget, ...] = ()
    effect_refs: tuple[RefTarget, ...] = ()
    uncertainty_refs: tuple[RefTarget, ...] = ()

    @property
    def is_direct(self) -> bool:
        return self.provenance.is_direct


class RiskAnnotation(NamedTuple):
    name: Optional[str]
    element: int
    target: int
    impact: Optional[str]
    span: Span


# -- interpretation -----------------------------------------------------------

def _decode_codes(entry: AnnotationEntry, stereotype: str,
                  catalog: ProfileCatalog) -> tuple[dict, list[Diagnostic]]:
    """Decode argument codes by vocabulary, flagging unknown/misplaced ones."""
    diags: list[Diagnostic] = []
    result: dict[str, Optional[str]] = {}
    if stereotype in (UNCERTAINTY, EFFECT):
        vocab_order = [("kind", catalog.uncertainty_kinds),
                       ("nature", catalog.uncertainty_natures),
                       ("perspective", catalog.perspectives)]
        last_slot = -1
        order_reported = False
        for code in entry.codes:
            slot = None
            for index, (label, vocab) in enumerate(vocab_order):
                if code in vocab:
                    slot = index
                    break
            if slot is None:
                diags.append(diagnostics.make(
                    "V003", entry.span,
                    f"unknown argument code {code!r} on {stereotype}"))
                continue
            label, vocab = vocab_order[slot]
            if label in result or slot < last_slot:
                if not order_reported:
                    diags.append(diagnostics.make(
                        "V004", entry.span,
                        f"argument code {code!r} is out of position in "
                        f"(kind, nature, perspective)"))
                    order_reported = True
                if label in result:
                    continue
            result[label] = vocab[code]
            last_slot = max(last_slot, slot)
        return result, diags
    if stereotype == INDETERMINACY_SOURCE:
        for position, code in enumerate(entry.codes):
            if code in catalog.indeterminacy_natures:
                if position == 0:
                    result["nature"] = catalog.indeterminacy_natures[code]
                else:
                    diags.append(diagnostics.make(
                        "V004", entry.span,
                        f"extra argument code {code!r} on {stereotype}"))
            elif _known_anywhere(code, catalog):
                diags.append(diagnostics.make(
                    "V004", entry.span,
                    f"argument code {code!r} is not an indeterminacy nature"))
            else:
                diags.append(diagnostics.make(
                    "V003", entry.span,
                    f"unknown argument code {code!r} on {stereotype}"))
        return result, diags
    for code in entry.codes:
        if _known_anywhere(code, catalog):
            diags.append(diagnostics.make(
                "V004", entry.span,
                f"{stereotype} takes no argument codes, found {code!r}"))
        else:
            diags.append(diagnostics.make(
                "V003", entry.span,
                f"unknown argument code {code!r} on {stereotype}"))
    return result, diags


def _known_anywhere(code: str, catalog: ProfileCatalog) -> bool:
    return (code in catalog.uncertainty_kinds
            or code in catalog.uncertainty_natures
            or code in catalog.perspectives
            or code in catalog.indeterminacy_natures)


def _measured_expression(value: Value) -> Optional[MeasuredExpression]:
    if value is None or value.kind != "number" or value.magnitude is None:
        return None
    return MeasuredExpression(magnitude=value.magnitude, unit=value.unit)


def interpret_annotation(clause: AnnotationClause, element: Element,
                         catalog: ProfileCatalog
                         ) -> tuple[list[StereotypeApplication], list[Diagnostic]]:
    """One application per stereotype, made whole with its body properties.
    A later entry that repeats a stereotype has its codes decoded, is
    reported as V014 and is otherwise ignored."""
    #: stereotype -> the fields of its application, in entry order
    fields: dict[str, dict] = {}
    diags: list[Diagnostic] = []
    for entry in clause.entries:
        if entry.name not in catalog.stereotypes:
            diags.append(diagnostics.make(
                "V002", entry.span, f"unknown stereotype name {entry.name!r}"))
            continue
        decoded, code_diags = _decode_codes(entry, entry.name, catalog)
        diags.extend(code_diags)
        if entry.name in fields:
            diags.append(diagnostics.make(
                "V014", entry.span,
                f"{entry.name} is applied more than once to "
                f"{element.display_name()}"))
            continue
        app: dict = {"span": entry.span}
        if entry.name in (UNCERTAINTY, EFFECT) and decoded:
            app["characterization"] = UncertaintyCharacterization(**decoded)
        if entry.name == INDETERMINACY_SOURCE:
            app["nature"] = decoded.get("nature")
        fields[entry.name] = app
    diags.extend(_attach_body_properties(element, fields, catalog))
    apps = [StereotypeApplication(
                stereotype=name, element=element.id,
                provenance=Provenance(origin=element.id, span=app["span"]),
                **app)
            for name, app in fields.items()]
    return apps, diags


def _first(by_stereotype: Mapping, names: tuple[str, ...]):
    """The entry of the earliest of ``names`` that ``by_stereotype`` holds."""
    for name in names:
        if name in by_stereotype:
            return by_stereotype[name]
    return None


def _attach_body_properties(element: Element, fields: dict[str, dict],
                            catalog: ProfileCatalog) -> list[Diagnostic]:
    """Add the element's body properties to the ``fields`` of its
    applications."""
    diags: list[Diagnostic] = []
    target = _first(fields, (UNCERTAINTY, EFFECT))
    for prop in element.body_properties:
        if prop.name in ("u_reducibility", "u_pattern"):
            literal = prop.value.path.text if (prop.value and prop.value.path) else None
            allowed = (catalog.reducibility_levels if prop.name == "u_reducibility"
                       else catalog.patterns)
            if literal not in allowed:
                diags.append(diagnostics.make(
                    "V003", prop.span,
                    f"unknown {prop.name} literal {literal!r}"))
                continue
            if target is not None:
                base = target.get("characterization") or UncertaintyCharacterization()
                if prop.name == "u_reducibility":
                    target["characterization"] = base._replace(reducibility=literal)
                else:
                    target["characterization"] = base._replace(pattern=literal)
        elif prop.name == "b_duration":
            if BELIEF_STATEMENT in fields:
                fields[BELIEF_STATEMENT]["duration"] = \
                    _measured_expression(prop.value)
        elif prop.name == "measurement":
            entries: list[tuple[str, MeasuredExpression]] = []
            for feature in prop.children:
                if feature.name not in catalog.measurement_features:
                    diags.append(diagnostics.make(
                        "V003", feature.span,
                        f"unknown measurement feature {feature.name!r}"))
                    continue
                expr = _measured_expression(feature.value)
                if expr is not None:
                    entries.append((feature.name, expr))
            holder = _first(fields, (UNCERTAINTY, EFFECT, INDETERMINACY_SOURCE,
                                     BELIEF_STATEMENT))
            if holder is not None and entries:
                base = holder.get("characterization") or UncertaintyCharacterization()
                holder["characterization"] = base._replace(measurements=tuple(entries))
    return diags


def check_applicability(app: StereotypeApplication, element: Element,
                        model: Model, catalog: ProfileCatalog
                        ) -> Optional[Diagnostic]:
    """V001 when the stereotype does not extend the element's metaclass."""
    category = model.metaclass_category(element.id).value
    allowed = catalog.stereotypes.get(app.stereotype, ())
    if category not in allowed:
        return diagnostics.make(
            "V001", app.span,
            f"{app.stereotype} cannot be applied to a {element.kind.value} "
            f"(category {category})")
    return None


def annotate_model(model: Model, clauses: Iterable[tuple[Element, AnnotationClause]],
                   catalog: Optional[ProfileCatalog] = None) -> None:
    """Derive the profile facts once, at build time: interpret the
    (element, annotation clause) pairs that interning collected, in element
    order, and collect ``model.risks``, adding their V012 findings."""
    catalog = catalog or DEFAULT_CATALOG
    attachments: list[tuple[Element, AnnotationClause]] = []
    for element, clause in clauses:
        if element.is_reference_carrier:
            attachments.append((element, clause))
            continue
        apps, diags = interpret_annotation(clause, element, catalog)
        element.annotations = tuple(apps)
        model.diagnostics.extend(diags)
    #: (owner, application index) -> reference field -> its targets, in
    #: attachment order
    refs: dict[tuple[int, int], dict[str, list[RefTarget]]] = {}
    for carrier, clause in attachments:
        _attach_reference(model, carrier, clause, catalog, refs)
    for (owner, index), found in refs.items():
        apps = list(model.elements[owner].annotations)
        apps[index] = apps[index]._replace(
            **{field: tuple(targets) for field, targets in found.items()})
        model.elements[owner].annotations = tuple(apps)
    model.risks, diags = collect_risks(model)
    model.diagnostics.extend(diags)


#: reference carrier's stereotype -> (owner stereotypes it attaches to, field)
_REF_FIELDS = {
    INDETERMINACY_SPECIFICATION: ((UNCERTAINTY, EFFECT), "spec_refs"),
    EFFECT: ((UNCERTAINTY, EFFECT), "effect_refs"),
    UNCERTAINTY: ((UNCERTAINTY_TOPIC,), "uncertainty_refs"),
}


def _attach_reference(model: Model, carrier: Element, clause: AnnotationClause,
                      catalog: ProfileCatalog,
                      refs: dict[tuple[int, int], dict[str, list[RefTarget]]]
                      ) -> None:
    """Add the carrier's targets to ``refs`` under the owner's application
    that each of its stereotypes attaches to."""
    owner = model.elements[carrier.owner] if carrier.owner is not None else None
    targets = carrier.ref_targets
    for entry in clause.entries:
        if entry.name not in catalog.stereotypes:
            model.diagnostics.append(diagnostics.make(
                "V002", entry.span, f"unknown stereotype name {entry.name!r}"))
            continue
        if owner is None or not targets or entry.name not in _REF_FIELDS:
            continue
        names, field = _REF_FIELDS[entry.name]
        index = _first({app.stereotype: index for index, app
                        in enumerate(owner.annotations)}, names)
        if index is not None:
            refs.setdefault((owner.id, index), {}).setdefault(
                field, []).extend(targets)


# -- risks ---------------------------------------------------------------------

def collect_risks(model: Model) -> tuple[list[RiskAnnotation], list[Diagnostic]]:
    """Risk annotations from metadata usages typed by the library Risk."""
    risks: list[RiskAnnotation] = []
    diags: list[Diagnostic] = []
    for element in model.elements:
        if element.kind is not ElementKind.METADATA_USAGE or element.is_prelude:
            continue
        if not _is_risk_typed(model, element):
            continue
        target = element.about_target if element.about_target is not None \
            else element.owner
        if target is None:
            continue
        impact = None
        impact_prop = None
        for prop in element.body_properties:
            impact_prop = prop.find("impact")
            if impact_prop is not None:
                break
        if impact_prop is not None:
            impact = _impact_literal(model, element, impact_prop)
            if impact is None:
                diags.append(diagnostics.make(
                    "V012", impact_prop.span,
                    "risk impact is not a risk-level literal"))
        risks.append(RiskAnnotation(name=element.name, element=element.id,
                                    target=target, impact=impact,
                                    span=element.span))
    return risks, diags


def _is_risk_typed(model: Model, element: Element) -> bool:
    for edge in model.inheritance_edges(element.id):
        if edge.kind is EdgeKind.FEATURE_TYPING:
            target = model.elements[edge.target]
            if target.is_prelude and target.qualified_name == "RiskMetadata::Risk":
                return True
    return False


def _impact_literal(model: Model, element: Element,
                    prop: BodyProperty) -> Optional[str]:
    value = prop.value
    if value is None or value.kind != "name" or value.path is None:
        return None
    ids, _failing = model.lookup(value.path.segments, element.id)
    if not ids:
        return None
    literal = model.elements[ids[-1]]
    if literal.is_prelude and literal.owner is not None:
        owner = model.elements[literal.owner]
        if owner.qualified_name == "RiskMetadata::LevelEnum":
            return literal.name
    return None
