"""Rule-by-rule fault injection: each mutant is one edit of a clean fixture
and must trigger its target rule exactly once."""

import pytest

from psumlint.api import analyze_text
from psumlint.diagnostics import RULE_CATALOG, Severity

from conftest import CLEAN_FIXTURES, analyze_fixture, fixture_text


def mutate(fixture: str, old, new) -> str:
    """Apply one edit; a move is expressed as paired (old, new) tuples."""
    text = fixture_text(fixture)
    edits = list(zip(old, new)) if isinstance(old, tuple) else [(old, new)]
    for anchor, replacement in edits:
        assert anchor in text, f"edit anchor not found in {fixture}: {anchor!r}"
        text = text.replace(anchor, replacement, 1)
    assert text != fixture_text(fixture)
    return text


def codes_of(findings):
    return [d.code for d in findings]


def run(text: str):
    return analyze_text(text, path="mutant.sysml").findings


def test_clean_fixtures_have_zero_error_findings():
    for name in CLEAN_FIXTURES:
        findings = analyze_fixture(name).findings
        errors = [d for d in findings if d.severity is Severity.ERROR]
        assert errors == [], (name, [d.render_text() for d in errors])


def test_clean_fixtures_have_zero_warnings_too():
    for name in CLEAN_FIXTURES:
        findings = analyze_fixture(name).findings
        assert findings == [], (name, [d.render_text() for d in findings])


# one mutant per rule: (code, fixture, old, new, other codes tolerated)
MUTANTS = [
    ("V001", "acc.sysml",
     ("«IndeterminacySpecification» constraint radarBlocked {",
      "attribute isBlocked defined by"),
     ("constraint radarBlocked {",
      "«IndeterminacySpecification» attribute isBlocked defined by"),
     # the stereotype moves onto the attribute, where it cannot apply; the
     # ref to the no-longer-stereotyped constraint now violates V006
     ("V006",)),
    ("V002", "vfea.sysml",
     "«BeliefStatement» part def Vehicle {",
     "«Belief» part def Vehicle {", ()),
    ("V003", "acc.sysml",
     "«IndeterminacySource<nd>» part radars",
     "«IndeterminacySource<nx>» part radars", ()),
    ("V004", "acc.sysml",
     "«Uncertainty<ocr, epi, subj>» transition startDeciding",
     "«Uncertainty<epi, ocr, subj>» transition startDeciding", ()),
    ("V005", "vfea.sysml",
     "assume constraint fuelEconomyAnalysisAssumedConstraint{",
     "«IndeterminacySpecification» assume constraint fuelEconomyAnalysisAssumedConstraint{",
     ()),
    ("V006", "acc.sysml",
     "«IndeterminacySpecification» ref ::> acc.radars.radarNotBlocked;",
     "«IndeterminacySpecification» ref ::> acc.radars.isBlocked;", ()),
    ("V007", "acc.sysml",
     "«Effect» ref ::> deciding. `decide';",
     "«Effect» ref ::> waitingForSignal;",
     ("V016",)),  # retargeting orphans the decide action
    ("V008", "acc.sysml",
     "«Uncertainty» ref ::> accOn.decisionLayerState.startDeciding;",
     "«Uncertainty» ref ::> accOn.decisionLayerState.waitingForSignal;", ()),
    ("V009", "acc.sysml",
     "state ready;",
     "state ready { measurement { m_accuracy = 5 ['%']; } }", ()),
    ("V010", "vfea.sysml",
     "measurement {",
     "u_reducibility = PartiallyReducible;\n\t\t\tmeasurement {", ()),
    ("V011", "vfea.sysml",
     "measurement {",
     "u_pattern = Random;\n\t\t\tmeasurement {", ()),
    ("V012", "acc.sysml",
     "impact = RiskMetadata::LevelEnum::high;",
     "impact = RiskMetadata::LevelEnum::extreme;", ()),
    ("V013", "acc.sysml",
     "about failToStartDeciding{",
     "about waitingForSignal{", ()),
    ("V014", "acc.sysml",
     "«IndeterminacySource<isr>» part lidars",
     "«IndeterminacySource<isr>, IndeterminacySource<isr>» part lidars", ()),
    ("V015", "acc.sysml",
     "state ready;",
     "state ready { b_duration = 10 [SI::day]; }", ()),
    ("V016", "acc.sysml",
     "\t\t\t\t\t«Effect» ref ::> deciding. `decide';\n",
     "", ()),
]


@pytest.mark.parametrize("code,fixture,old,new,tolerated",
                         MUTANTS, ids=[m[0] for m in MUTANTS])
def test_single_edit_mutant_triggers_rule_exactly_once(code, fixture, old,
                                                       new, tolerated):
    findings = run(mutate(fixture, old, new))
    hits = [d for d in findings if d.code == code]
    assert len(hits) == 1, (code, codes_of(findings))
    if tolerated is not None:
        unexpected = [d for d in findings
                      if d.code != code and d.code not in tolerated]
        assert unexpected == [], (code, codes_of(findings))


def test_every_v_rule_has_a_mutant():
    covered = {m[0] for m in MUTANTS}
    v_rules = {code for code in RULE_CATALOG if code.startswith("V")}
    assert covered == v_rules


def test_v001_example_from_applicability_matrix():
    findings = run(
        "package P { «Uncertainty<ocr, epi, subj>» constraint c { x == 1 } }")
    assert codes_of(findings).count("V001") == 1


def test_repeated_stereotype_is_checked_once():
    # the later application is reported as V014 and otherwise ignored
    findings = run("package P { «IndeterminacySpecification, "
                   "IndeterminacySpecification» part p; }")
    assert codes_of(findings) == ["V001", "V014"]


def test_v005_accepts_specs_inherited_into_specializing_elements(frigate):
    # constraints declared in a stereotyped general definition satisfy the
    # ownership rule for everything that specializes it
    assert not any(d.code == "V005" for d in frigate.findings)


def test_uncertainty_without_spec_refs_is_legal(vfea):
    assert not any(d.severity is Severity.ERROR for d in vfea.findings)


def test_diagnostics_are_ordered_and_deterministic():
    text = mutate("acc.sysml",
                  "«IndeterminacySource<nd>» part radars",
                  "«IndeterminacySource<nx>» part radars")
    first = run(text)
    second = run(text)
    assert [d.to_dict() for d in first] == [d.to_dict() for d in second]
    keys = [d.sort_key() for d in first]
    assert keys == sorted(keys)


def test_all_finding_codes_are_published():
    for name in CLEAN_FIXTURES + ("acc_verbatim.sysml",):
        for diag in analyze_fixture(name).findings:
            assert diag.code in RULE_CATALOG
