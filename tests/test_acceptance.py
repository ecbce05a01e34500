"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with: pytest tests/test_acceptance.py -v -s
"""

import json
import random
import string
import time
from decimal import Decimal

from psumlint.api import analyze_text
from psumlint.diagnostics import RULE_CATALOG, Severity
from psumlint.lexer import tokenize
from psumlint.model import EdgeKind
from psumlint.profile import (DEFAULT_CATALOG, Interval, MeasuredExpression,
                              Provenance, StereotypeApplication,
                              apply_measurement_error, check_applicability)
from psumlint.propagation import (PropagationEdgeKind, TRACE_KINDS,
                                  backward_trace, forward_trace)
from psumlint.reporting import render_diagnostics, render_stats
from psumlint.source import SourceFile
from psumlint.syntax import parse_file

from conftest import (ALL_FIXTURES, CLEAN_FIXTURES, analyze_fixture,
                      fixture_text, reconstruct)
from test_profile import CATEGORY_REPRESENTATIVE, TABLE, element_of_category
from test_propagation import brute_force_reachability
from test_reporting import check as check_schema
from test_golden import parse_record
from test_validator import MUTANTS, mutate


def verdict(number: int, message: str) -> None:
    print(f"\nACCEPTANCE {number}: PASS - {message}")


def test_criterion_1_fixture_parse_and_resolve():
    texts = {name: fixture_text(name) for name in CLEAN_FIXTURES}
    started = time.perf_counter()
    for name, text in texts.items():
        analysis = analyze_text(text, path=name)  # fresh, uncached run
        errors = [d for d in analysis.model.diagnostics
                  if d.severity is Severity.ERROR]
        assert errors == [], (name, [d.render_text() for d in errors])
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"fixture parse+resolve took {elapsed:.3f}s"
    verdict(1, f"all transcribed fixtures parse and resolve cleanly "
               f"in {elapsed:.3f}s")


def test_criterion_2_applicability_matrix():
    permitted = violations = 0
    for stereotype in TABLE:
        for category in CATEGORY_REPRESENTATIVE:
            analysis, eid = element_of_category(category)
            model = analysis.model
            element = model.elements[eid]
            app = StereotypeApplication(
                stereotype=stereotype, element=eid,
                provenance=Provenance(origin=eid, span=element.span),
                span=element.span)
            finding = check_applicability(app, element, model, DEFAULT_CATALOG)
            if category in TABLE[stereotype]:
                assert finding is None, (stereotype, category)
                permitted += 1
            else:
                assert finding is not None and finding.code == "V001"
                violations += 1
    assert permitted + violations == 36
    # cell-by-cell transcription of the extension table:
    # 6 (any element) + 4 stereotypes x 4 categories + 1 (constraint usage)
    assert permitted == 23
    assert violations == 13
    verdict(2, "the 36-cell matrix matches the table transcription "
               "(23 permitted, 13 raising V001)")


def test_criterion_3_measurement_interval_exact():
    interval = apply_measurement_error(
        MeasuredExpression(Decimal("33"), "inch"),
        MeasuredExpression(Decimal("1.5"), "%"))
    assert interval == Interval(Decimal("32.505"), Decimal("33.495"), "inch")
    absolute = apply_measurement_error(
        MeasuredExpression(Decimal("33"), "inch"),
        MeasuredExpression(Decimal("0.495"), "inch"))
    assert absolute == interval
    verdict(3, "1.5% around 33 inch = [32.505, 33.495] exactly, "
               "matching the 0.495 inch absolute error")


def test_criterion_4_stereotype_inheritance():
    from test_inheritance import inherited_only
    interaction = analyze_fixture("interaction.sysml")
    inherited = [interaction.model.elements[eid] for eid
                 in inherited_only(interaction, "IndeterminacySource")]
    ports = sorted(element.qualified_name for element in inherited)
    assert ports == [
        "Configuration::consumer::subscriptionPort",
        "Configuration::producer::publicationPort",
        "Configuration::server::publicationPort",
        "Configuration::server::subscriptionPort",
    ]
    for element in inherited:
        assert element.kind.value == "port"
        assert element.annotations == ()
        # each port's source is its definition's, one typing hop away
        [source] = [a for a in interaction.effective[element.id]
                    if a.stereotype == "IndeterminacySource"]
        assert [kind for kind, _ in source.provenance.path] == \
            [EdgeKind.FEATURE_TYPING]

    frigate = analyze_fixture("frigate.sysml")
    model = frigate.model
    for name in ("PodPort", "DroneBay"):
        eid = model.resolve_qualified(f"MiningFrigateModel::{name}")
        sources = [a for a in frigate.effective[eid]
                   if a.stereotype == "IndeterminacySource" and not a.is_direct]
        assert len(sources) == 1
        assert sources[0].nature == "NonDeterminism"
        specs = {model.elements[s].name
                 for s in frigate.effective.specifications(eid)}
        assert specs == {"Operational", "NotOperational"}
    verdict(4, "4 ports inherit the source by typing; PodPort and DroneBay "
               "inherit the source plus both specifications")


def test_criterion_5_propagation_traces_and_oracle():
    interaction = analyze_fixture("interaction.sysml")
    model = interaction.model
    publish = model.resolve_qualified(
        "Configuration::producer::producerBehavior::publish")
    delivery = model.resolve_qualified(
        "Configuration::consumer::consumerBehavior::delivery")
    delivering = model.resolve_qualified(
        "Configuration::server::serverBehavior::delivering")
    result = forward_trace(interaction.graph, publish, effects_only=True)
    path = result.path(delivery)
    assert [e.kind for e in path] == [PropagationEdgeKind.PROPAGATES] * 2
    assert [e.target for e in path] == [delivering, delivery]

    arrowhead = analyze_fixture("arrowhead.sysml")
    failure = arrowhead.model.resolve_qualified(
        "AHFModel::AHFNorway_LocalCloudDD::TellUConsumer::TellUbehavior::"
        "failToAcceptResultGiveItems")
    backward = backward_trace(arrowhead.graph, failure)
    reached_names = {arrowhead.model.elements[n].name
                     for n in backward.reached}
    assert "failToAcceptCallGiveItems" in reached_names
    from psumlint.propagation import NodeRole
    spec_roots = [r for r in backward.roots
                  if NodeRole.SPECIFICATION in arrowhead.graph.roles[r]]
    assert len(spec_roots) >= 2

    started = time.perf_counter()
    for name in ALL_FIXTURES:
        graph = analyze_fixture(name).graph
        assert len(graph.nodes()) <= 200
        oracle = brute_force_reachability(graph, TRACE_KINDS)
        for node in graph.nodes():
            assert set(forward_trace(graph, node).reached) == oracle[node]
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    verdict(5, f"two-hop effect chain, backward roots, and brute-force "
               f"agreement on every node in {elapsed:.3f}s")


def test_criterion_6_statistics():
    vfea = analyze_fixture("vfea.sysml").stats()
    assert vfea["stereotype_counts"]["Uncertainty"] == \
        {"attribute": {"direct": 1, "inherited": 0, "element_lom": 5}}
    assert "IndeterminacySource" not in vfea["stereotype_counts"]

    acc = analyze_fixture("acc.sysml").stats()
    counts = acc["stereotype_counts"]
    assert counts["BeliefStatement"]["state"]["direct"] == 1
    assert counts["Uncertainty"]["transition"]["direct"] == 2
    assert acc["reference_counts"]["Uncertainty"] == 2
    assert counts["IndeterminacySource"]["part"]["direct"] == 3
    assert acc["nature_breakdown"] == {"NonDeterminism": 1,
                                       "InsufficientResolution": 2}
    assert acc["specification_declarations"] == 2
    assert acc["specification_refs"] == 2
    assert acc["risk_counts"]["high"] == 1
    assert acc["topic_count"] == 1
    assert acc["topics"][0]["members"] == 2
    verdict(6, "statistics match the hand-count oracles for both fixtures")


def test_criterion_7_validator_fault_suite():
    v_rules = sorted(code for code in RULE_CATALOG if code.startswith("V"))
    assert len(v_rules) == 16
    covered = {m[0] for m in MUTANTS}
    assert covered == set(v_rules)
    for code, fixture, old, new, _tolerated in MUTANTS:
        findings = analyze_text(mutate(fixture, old, new),
                                path="mutant.sysml").findings
        assert [d.code for d in findings].count(code) == 1, code
    for name in CLEAN_FIXTURES:
        errors = [d for d in analyze_fixture(name).findings
                  if d.severity is Severity.ERROR]
        assert errors == [], name
    verdict(7, "each of the 16 rules fires exactly once on its mutant; "
               "clean fixtures stay error-free")


def test_criterion_8_effect_specification_derivation():
    text = fixture_text("interaction.sysml")
    removed = ("\t\t\t\t«IndeterminacySpecification» ref ::> "
               "producer.publicationPort.publicationPortOperational;\n")
    mutant = text.replace(removed, "")
    assert mutant != text
    analysis = analyze_text(mutant, path="interaction_mutant.sysml")
    model = analysis.model
    delivering = model.resolve_qualified(
        "Configuration::server::serverBehavior::delivering")
    hits = [s for s in analysis.suggestions() if s.effect == delivering]
    assert len(hits) == 1
    assert hits[0].display(model) == \
        "Configuration::producer::publicationPort.publicationPortOperational"

    clean = analyze_fixture("interaction.sysml")
    assert all(s.effect != delivering for s in clean.suggestions())
    verdict(8, "removing the explicit ref makes exactly that "
               "(effect, specification) pair derivable")


def _mutate_text(rng: random.Random, text: str) -> str:
    op = rng.randrange(4)
    if not text:
        return rng.choice(string.printable)
    index = rng.randrange(len(text))
    if op == 0:  # delete a character
        return text[:index] + text[index + 1:]
    if op == 1:  # insert a character
        ch = rng.choice(string.printable + "«»`'")
        return text[:index] + ch + text[index:]
    if op == 2:  # replace a character
        ch = rng.choice(string.printable + "«»")
        return text[:index] + ch + text[index + 1:]
    lines = text.splitlines(keepends=True)  # drop a whole line
    if not lines:
        return text
    drop = rng.randrange(len(lines))
    return "".join(lines[:drop] + lines[drop + 1:])


def test_criterion_9_determinism_losslessness_and_fuzz():
    for name in ALL_FIXTURES:
        text = fixture_text(name)
        source = SourceFile(path=name, content=text)
        tokens, _ = tokenize(source)
        assert reconstruct(source, tokens) == text
        assert parse_record(text, name) == parse_record(text, name)
        analysis = analyze_fixture(name)
        keys = [d.sort_key() for d in analysis.findings]
        assert keys == sorted(keys)
        check_schema(render_diagnostics(analysis.findings, "json"),
                     "diagnostics.schema.json")
        check_schema(render_stats(analysis.stats(), "json"),
                     "stats.schema.json")

    rng = random.Random(20240817)
    bases = [fixture_text(name) for name in ALL_FIXTURES]
    started = time.perf_counter()
    for round_number in range(1000):
        text = rng.choice(bases)
        for _ in range(rng.randrange(1, 4)):
            text = _mutate_text(rng, text)
        source = SourceFile(path=f"fuzz-{round_number}.sysml", content=text)
        tokens, _ = tokenize(source)
        assert reconstruct(source, tokens) == text
        analysis = analyze_text(text, path=source.path)
        findings = analysis.findings  # full pipeline must not crash
        keys = [d.sort_key() for d in findings]
        assert keys == sorted(keys)
        _ = analysis.graph
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"fuzz smoke took {elapsed:.1f}s"
    verdict(9, f"1000 mutated variants analyzed without crashes "
               f"in {elapsed:.1f}s; round-trips and ordering hold")
