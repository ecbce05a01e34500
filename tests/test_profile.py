import json
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psumlint import profile
from psumlint.api import analyze_text
from psumlint.profile import (DEFAULT_CATALOG, Interval, MeasuredExpression,
                              MeasurementError, ProfileCatalog,
                              apply_measurement_error, collect_risks,
                              load_catalog)

from conftest import catalog_text

# -- annotation interpretation ---------------------------------------------------

def app_of(analysis, qualified, stereotype):
    eid = analysis.model.resolve_qualified(qualified)
    assert eid is not None, qualified
    for app in analysis.model.elements[eid].annotations:
        if app.stereotype == stereotype:
            return app
    raise AssertionError(f"no {stereotype} on {qualified}")


def test_uncertainty_on_transition_fully_characterized(acc):
    app = app_of(acc, "BehavioralModel::ACCState::accOn::decisionLayerState::"
                      "startDeciding", "Uncertainty")
    ch = app.characterization
    assert (ch.kind, ch.nature, ch.perspective) == \
        ("Occurrence", "Epistemic", "Subjective")
    assert ch.reducibility == "PartiallyReducible"
    assert ch.pattern == "Random"
    assert len(app.spec_refs) == 1
    assert len(app.effect_refs) == 1


def test_indeterminacy_source_nature_decoding(acc):
    app = app_of(acc, "StructuralModel::ACC::lidars", "IndeterminacySource")
    assert app.nature == "InsufficientResolution"
    app = app_of(acc, "StructuralModel::ACC::radars", "IndeterminacySource")
    assert app.nature == "NonDeterminism"


def test_belief_statement_with_no_arguments(acc):
    app = app_of(acc, "BehavioralModel::ACCState::accOn::decisionLayerState",
                 "BeliefStatement")
    assert app.characterization is None
    assert app.nature is None
    assert app.duration == MeasuredExpression(Decimal("30"), "SI::day")


def test_multi_stereotype_clause_binds_codes_to_uncertainty(interaction):
    unc = app_of(interaction, "Configuration::server::serverBehavior::"
                              "subscribing", "Uncertainty")
    eff = app_of(interaction, "Configuration::server::serverBehavior::"
                              "subscribing", "Effect")
    assert unc.characterization.kind == "Occurrence"
    assert eff.characterization is None


def test_applications_populate_only_licensed_fields():
    from conftest import ALL_FIXTURES, analyze_fixture
    for name in ALL_FIXTURES:
        model = analyze_fixture(name).model
        for element in model.elements:
            for app in element.annotations:
                if app.stereotype != "IndeterminacySource":
                    assert app.nature is None, (name, app)
                if app.stereotype not in ("Uncertainty", "Effect"):
                    assert app.characterization is None, (name, app)
                    assert app.spec_refs == () and app.effect_refs == ()
                if app.stereotype != "BeliefStatement":
                    assert app.duration is None, (name, app)
                if app.stereotype != "UncertaintyTopic":
                    assert app.uncertainty_refs == (), (name, app)


def test_code_decoding_bijection():
    catalog = DEFAULT_CATALOG
    for mapping in (catalog.uncertainty_kinds, catalog.uncertainty_natures,
                    catalog.perspectives, catalog.indeterminacy_natures):
        literals = list(mapping.values())
        assert len(set(literals)) == len(literals)
        inverse = {literal: code for code, literal in mapping.items()}
        for code, literal in mapping.items():
            assert inverse[literal] == code


# -- applicability matrix ----------------------------------------------------------

# Literal transcription of the extension table: stereotype -> permitted
# metaclass categories.
TABLE = {
    "BeliefStatement": {"OccurrenceDefinitionLike", "OccurrenceUsageLike",
                        "AttributeDefinition", "AttributeUsage",
                        "ConstraintUsage", "Other"},
    "IndeterminacySource": {"OccurrenceDefinitionLike", "OccurrenceUsageLike",
                            "AttributeDefinition", "AttributeUsage"},
    "IndeterminacySpecification": {"ConstraintUsage"},
    "Uncertainty": {"OccurrenceDefinitionLike", "OccurrenceUsageLike",
                    "AttributeDefinition", "AttributeUsage"},
    "UncertaintyTopic": {"OccurrenceDefinitionLike", "OccurrenceUsageLike",
                         "AttributeDefinition", "AttributeUsage"},
    "Effect": {"OccurrenceDefinitionLike", "OccurrenceUsageLike",
               "AttributeDefinition", "AttributeUsage"},
}

CATEGORY_REPRESENTATIVE = {
    "OccurrenceDefinitionLike": "part def D;",
    "OccurrenceUsageLike": "part u;",
    "AttributeDefinition": "attribute def A;",
    "AttributeUsage": "attribute a;",
    "ConstraintUsage": "constraint c;",
    "Other": None,  # the package itself
}


def element_of_category(category):
    decl = CATEGORY_REPRESENTATIVE[category]
    if decl is None:
        analysis = analyze_text("package P { }")
        eid = analysis.model.resolve_qualified("P")
    else:
        analysis = analyze_text("package P { %s }" % decl)
        model = analysis.model
        eid = next(e.id for e in model.elements
                   if not e.is_prelude and e.kind.value != "package")
    return analysis, eid


def test_applicability_matrix_agrees_with_table_cell_by_cell():
    from psumlint.profile import StereotypeApplication, Provenance, check_applicability
    permitted = violations = 0
    for stereotype in TABLE:
        for category in CATEGORY_REPRESENTATIVE:
            analysis, eid = element_of_category(category)
            model = analysis.model
            element = model.elements[eid]
            assert model.metaclass_category(eid).value == category
            app = StereotypeApplication(
                stereotype=stereotype, element=eid,
                provenance=Provenance(origin=eid, span=element.span),
                span=element.span)
            finding = check_applicability(app, element, model, DEFAULT_CATALOG)
            if category in TABLE[stereotype]:
                assert finding is None, (stereotype, category)
                permitted += 1
            else:
                assert finding is not None and finding.code == "V001", \
                    (stereotype, category)
                violations += 1
    assert permitted + violations == 36
    assert permitted == sum(len(cats) for cats in TABLE.values()) == 23
    assert violations == 13


def test_applicability_fixture_examples(acc):
    model = acc.model
    # uncertainty on a transition is fine; the clean fixture shows no V001
    assert not any(d.code == "V001" for d in acc.findings)


# -- measurement arithmetic ----------------------------------------------------------

def test_percentage_error_interval_is_exact():
    interval = apply_measurement_error(
        MeasuredExpression(Decimal("33"), "inch"),
        MeasuredExpression(Decimal("1.5"), "%"))
    assert interval == Interval(Decimal("32.505"), Decimal("33.495"), "inch")


def test_absolute_error_interval():
    interval = apply_measurement_error(
        MeasuredExpression(Decimal("33"), "inch"),
        MeasuredExpression(Decimal("0.495"), "inch"))
    assert interval == Interval(Decimal("32.505"), Decimal("33.495"), "inch")


def test_zero_error_is_degenerate():
    x = MeasuredExpression(Decimal("7.25"), "kg")
    interval = apply_measurement_error(x, MeasuredExpression(Decimal("0"), "%"))
    assert interval.lo == interval.hi == x.magnitude


def test_unit_mismatch_raises_m001():
    with pytest.raises(MeasurementError):
        apply_measurement_error(MeasuredExpression(Decimal("33"), "inch"),
                                MeasuredExpression(Decimal("1"), "kg"))


@settings(max_examples=200, deadline=None)
@given(
    nominal=st.decimals(min_value=-1000, max_value=1000, places=4,
                        allow_nan=False, allow_infinity=False),
    error=st.decimals(min_value=0, max_value=100, places=4,
                      allow_nan=False, allow_infinity=False),
    percent=st.booleans(),
)
def test_interval_is_symmetric_about_nominal(nominal, error, percent):
    unit = "%" if percent else "u"
    interval = apply_measurement_error(MeasuredExpression(nominal, "u"),
                                       MeasuredExpression(error, unit))
    assert (interval.lo + interval.hi) / 2 == nominal


# -- risks -----------------------------------------------------------------------------

def test_collect_risks_acc(acc):
    risks, diags = collect_risks(acc.model)
    assert diags == []
    assert len(risks) == 1
    risk = risks[0]
    assert risk.name == "collisionRisk"
    assert risk.impact == "high"
    target = acc.model.elements[risk.target]
    assert target.name == "failToStartDeciding"


def test_collect_risks_arrowhead(arrowhead):
    risks, diags = collect_risks(arrowhead.model)
    assert diags == []
    by_name = {r.name: r.impact for r in risks}
    assert by_name == {"lossOfCallGiveItemsRisk": "medium",
                       "resultReceptionFailureRisk": "high"}


def test_model_without_metadata_has_no_risks(vfea):
    risks, diags = collect_risks(vfea.model)
    assert risks == [] and diags == []


def test_risk_without_about_targets_enclosing_element(frigate):
    risks, _ = collect_risks(frigate.model)
    assert len(risks) == 1
    target = frigate.model.elements[risks[0].target]
    assert target.name == "failToEngageDefense"


def test_build_collects_risks_into_the_model(acc, arrowhead, vfea):
    for analysis in (acc, arrowhead, vfea):
        risks, diags = collect_risks(analysis.model)
        assert analysis.model.risks == risks
        assert analysis.risks() is analysis.model.risks
        assert all(d in analysis.model.diagnostics for d in diags)


def test_bad_risk_impact_is_reported_once_by_the_build():
    analysis = analyze_text(
        "package P { «Uncertainty<ocr, epi, subj>» part u { "
        "metadata r : RiskMetadata::Risk { impact = 3; } } }")
    assert [d.code for d in analysis.model.diagnostics] == ["V012"]
    assert [d.code for d in analysis.findings] == ["V012"]
    assert [(r.name, r.impact) for r in analysis.model.risks] == [("r", None)]


# -- reference carriers ------------------------------------------------------------

def test_reference_attachment_copies_each_target_once(monkeypatch):
    # many carriers under one owner: each application is made or replaced
    # with all its targets, not rebuilt as each carrier is read
    count = 300
    copied = []

    def count_refs(fields):
        copied.extend(len(value) for name, value in fields.items()
                      if name.endswith("_refs"))

    class Counting(profile.StereotypeApplication):
        __slots__ = ()

        def __new__(cls, *args, **fields):
            count_refs(dict(zip(cls._fields, args)))
            count_refs(fields)
            return super().__new__(cls, *args, **fields)

        def _replace(self, **fields):
            count_refs(fields)
            return super()._replace(**fields)

    monkeypatch.setattr(profile, "StereotypeApplication", Counting)
    analysis = analyze_text(
        "package P { «IndeterminacySource<nd>» part def S { "
        + " ".join(f"«IndeterminacySpecification» constraint C{i};"
                   for i in range(count))
        + " } «Effect<con>» part e; «Uncertainty<ocr>» part u { "
        + " ".join(f"«IndeterminacySpecification» ref ::> S::C{i}; "
                   "«Effect» ref ::> e;" for i in range(count))
        + " } «UncertaintyTopic» item def T { "
        + "«Uncertainty» ref ::> u; " * count + "} }")
    model = analysis.model
    [app] = model.elements[model.resolve_qualified("P::u")].annotations
    [topic] = model.elements[model.resolve_qualified("P::T")].annotations
    assert [model.elements[ref.target].name for ref in app.spec_refs] == \
        [f"C{i}" for i in range(count)]
    assert len(app.effect_refs) == len(topic.uncertainty_refs) == count
    assert 3 * count <= sum(copied) <= 2 * 3 * count


def test_unannotated_ref_redefinition_is_a_reference_carrier():
    # a ref that redefines is a carrier whether or not it is annotated: it
    # inherits u's uncertainty but is neither a graph node nor a counted ref
    analysis = analyze_text(
        "package P { part def T { «Uncertainty<ocr, epi, subj>» part u; } "
        "part t : T { ref :>> u; } }")
    [carrier] = [e for e in analysis.model.elements if e.kind.value == "ref"]
    assert carrier.annotations == ()
    assert "Uncertainty" in analysis.effective.kinds(carrier.id)
    assert carrier.id not in analysis.graph.roles
    assert "ref" not in analysis.stats()["stereotype_counts"]["Uncertainty"]


@pytest.mark.parametrize("declaration, carrier", [
    ("ref :>> u;", True), ("ref redefines u;", True), ("ref ::> u;", True),
    ("«Effect» ref ::> u;", True), ("ref :> u;", False), ("part :>> u;", False),
    ("ref r;", False)])
def test_reference_carrier_flag(declaration, carrier):
    analysis = analyze_text("package P { part def T { part u; } "
                            f"part t : T {{ {declaration} }} }}")
    flagged = [e.kind.value for e in analysis.model.elements
               if e.is_reference_carrier]
    assert flagged == (["ref"] if carrier else [])


# -- catalog ------------------------------------------------------------------------------

def test_bundled_catalog_file_matches_default():
    assert load_catalog() == DEFAULT_CATALOG


def test_catalog_round_trips_through_json():
    assert ProfileCatalog.from_json(catalog_text()) == DEFAULT_CATALOG
    assert ProfileCatalog.from_json(json.dumps(DEFAULT_CATALOG._asdict())) \
        == DEFAULT_CATALOG


def test_catalog_json_is_schema_shaped():
    data = json.loads(catalog_text())
    assert set(data["stereotypes"]) == set(TABLE)
    assert data["risk_levels"] == ["low", "medium", "high"]
