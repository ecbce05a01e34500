import functools
import tracemalloc

from psumlint.api import analyze_text
from psumlint.inheritance import (effective_specifications,
                                  effective_stereotypes, has_effective)
from psumlint.model import EdgeKind


def names(analysis, ids):
    return sorted(analysis.model.elements[i].qualified_name for i in ids)


def test_ports_inherit_source_via_typing(interaction):
    model = interaction.model
    effective = interaction.effective
    port = model.resolve_qualified("Configuration::producer::publicationPort")
    apps = [a for a in effective[port] if a.stereotype == "IndeterminacySource"]
    assert len(apps) == 1
    app = apps[0]
    assert not app.is_direct
    assert app.nature == "NonDeterminism"
    assert [kind for kind, _ in app.provenance.path] == [EdgeKind.FEATURE_TYPING]
    origin = model.elements[app.provenance.origin]
    assert origin.qualified_name == "Configuration::PublicationPort"
    specs = effective_specifications(model, effective, port)
    assert names(interaction, specs) == [
        "Configuration::PublicationPort::publicationPortNotOperational",
        "Configuration::PublicationPort::publicationPortOperational",
    ]


def test_exactly_four_ports_become_sources_by_inheritance(interaction):
    report = interaction.derived()
    assert names(interaction, [e.element for e in report.sources]) == [
        "Configuration::consumer::subscriptionPort",
        "Configuration::producer::publicationPort",
        "Configuration::server::publicationPort",
        "Configuration::server::subscriptionPort",
    ]
    # none of them carries a direct usage-level annotation
    for entry in report.sources:
        assert interaction.model.elements[entry.element].annotations == ()


def test_subclassification_inherits_source_and_specs(frigate):
    model = frigate.model
    effective = frigate.effective
    for name in ("PodPort", "DroneBay"):
        eid = model.resolve_qualified(f"MiningFrigateModel::{name}")
        apps = [a for a in effective[eid]
                if a.stereotype == "IndeterminacySource"]
        assert len(apps) == 1 and not apps[0].is_direct
        assert apps[0].nature == "NonDeterminism"
        assert [k for k, _ in apps[0].provenance.path] == \
            [EdgeKind.SUBCLASSIFICATION]
        specs = {model.elements[s].name
                 for s in effective_specifications(model, effective, eid)}
        assert specs == {"Operational", "NotOperational"}


def test_acc_sources_are_direct_not_derived(acc):
    report = acc.derived()
    assert report.sources == ()
    assert report.uncertain == ()


def test_empty_model_has_empty_report():
    analysis = analyze_text("package P { }")
    report = analysis.derived()
    assert report.sources == () and report.uncertain == ()


def test_element_without_edges_or_annotations_has_empty_effective(acc):
    model = acc.model
    ready = model.resolve_qualified("BehavioralModel::ACCState::ready")
    assert acc.effective[ready] == []


def test_monotonicity_adding_direct_application():
    base = ("package P { part def D %s; part u defined by D; "
            "part v :> u; }")
    without = analyze_text(base % "")
    with_app = analyze_text(base % "")
    # same model, one with an extra direct application on the definition
    annotated = analyze_text(
        "package P { «Uncertainty<ocr, epi, subj>» part def D; "
        "part u defined by D; part v :> u; }")
    for analysis in (without, with_app):
        for eid, apps in analysis.effective.items():
            annotated_apps = annotated.effective.get(eid, [])
            have = {(a.stereotype, a.provenance.origin) for a in apps}
            grown = {(a.stereotype, a.provenance.origin) for a in annotated_apps}
            assert have <= grown


def test_redefinition_override_yields_single_application():
    analysis = analyze_text(
        "package P { part def D; "
        "«Uncertainty<ocr, epi, subj>» part a defined by D; "
        "«Uncertainty<con, ale, obj>» part b :>> a; }")
    model = analysis.model
    b = model.resolve_qualified("P::b")
    apps = [x for x in analysis.effective[b] if x.stereotype == "Uncertainty"]
    assert len(apps) == 1
    assert apps[0].is_direct
    assert apps[0].characterization.kind == "Content"


def test_subsetting_propagates_kind_and_arguments():
    analysis = analyze_text(
        "package P { part def D; "
        "«Uncertainty<ocr, epi, subj>» part a defined by D; "
        "part c :> a; }")
    c = analysis.model.resolve_qualified("P::c")
    apps = [x for x in analysis.effective[c] if x.stereotype == "Uncertainty"]
    assert len(apps) == 1 and not apps[0].is_direct
    ch = apps[0].characterization
    assert (ch.kind, ch.nature, ch.perspective) == \
        ("Occurrence", "Epistemic", "Subjective")


def test_conjugated_typing_inherits_like_plain_typing(interaction):
    effective = interaction.effective
    model = interaction.model
    conjugated = model.resolve_qualified("Configuration::consumer::subscriptionPort")
    plain = model.resolve_qualified("Configuration::server::subscriptionPort")
    for eid in (conjugated, plain):
        assert has_effective(effective, eid, "IndeterminacySource")


def test_characterization_merge_nearest_wins():
    from psumlint.inheritance import effective_characterization
    analysis = analyze_text(
        "package P { "
        "«Uncertainty<ocr, epi, subj>» part def D { u_reducibility = FullyReducible; } "
        "«Uncertainty<con>» part u defined by D; }")
    u = analysis.model.resolve_qualified("P::u")
    merged = effective_characterization(analysis.effective, u)
    # the usage's own kind wins; unset fields fall back to the definition's
    assert merged.kind == "Content"
    assert merged.nature == "Epistemic"
    assert merged.perspective == "Subjective"
    assert merged.reducibility == "FullyReducible"


def test_recomputation_is_identical(interaction):
    first = effective_stereotypes(interaction.model)
    second = effective_stereotypes(interaction.model)
    assert {k: [(a.stereotype, a.provenance.origin, a.provenance.path)
                for a in v] for k, v in first.items()} == \
           {k: [(a.stereotype, a.provenance.origin, a.provenance.path)
                for a in v] for k, v in second.items()}


def test_inherited_provenance_paths_are_real_edge_chains(frigate, interaction):
    for analysis in (frigate, interaction):
        model = analysis.model
        edge_set = {(e.source, e.target, e.kind) for e in model.edges}
        for eid, apps in analysis.effective.items():
            for app in apps:
                if app.is_direct:
                    continue
                cursor = eid
                for kind, via in app.provenance.path:
                    assert (cursor, via, kind) in edge_set
                    cursor = via
                assert cursor == app.provenance.origin
                origin_apps = model.elements[app.provenance.origin].annotations
                assert any(a.stereotype == app.stereotype for a in origin_apps)


@functools.lru_cache(maxsize=1)
def _reverse_chain(depth):
    # declared special-first, so each definition's general is still unbuilt
    return analyze_text(
        "package P { "
        + "".join(f"part def D{i} specializes D{i + 1}; " for i in range(depth))
        + f"«IndeterminacySource<nd>» part def D{depth}; }}")


def _inherited_source(effective, eid):
    [app] = [a for a in effective[eid] if a.stereotype == "IndeterminacySource"]
    return app


def test_deep_reverse_chain_needs_no_recursion():
    depth = 1500
    analysis = _reverse_chain(depth)
    model = analysis.model
    top = model.resolve_qualified("P::D0")
    app = _inherited_source(analysis.effective, top)
    assert len(app.provenance.path) == depth
    assert app.provenance.origin == model.resolve_qualified(f"P::D{depth}")
    assert analysis.graph is not None
    assert analysis.findings is not None
    for report in (analysis.stats, analysis.derived, analysis.topics,
                   analysis.risks, analysis.suggestions):
        report()


def test_deep_provenance_is_linked_and_compares_by_value():
    depth = 3000
    model = _reverse_chain(depth).model
    top = model.resolve_qualified("P::D0")
    first = _inherited_source(effective_stereotypes(model), top).provenance
    again = _inherited_source(effective_stereotypes(model), top).provenance
    assert len(first.path) == first.depth == depth
    assert first.path[0] == (EdgeKind.SUBCLASSIFICATION,
                             model.resolve_qualified("P::D1"))
    # two carries along the same path: separate links, equal values
    assert first is not again and first.rest is not again.rest
    assert first == again and hash(first) == hash(again)
    assert first != first.rest and first.rest == again.rest
    assert repr(first).startswith("Provenance(origin=")


def test_deep_chain_effective_memory_is_linear():
    model = _reverse_chain(3000).model
    tracemalloc.start()
    try:
        effective_stereotypes(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a copied path per hop would hold 3000 * 3001 / 2 path entries
    assert peak < 4 * 2 ** 20
