import functools
import tracemalloc
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from psumlint.api import analyze_text
from psumlint.inheritance import effective_stereotypes, has_effective
from psumlint.model import INHERITANCE_KINDS, EdgeKind, Model
from psumlint.profile import (DEFAULT_CATALOG, EFFECT, INDETERMINACY_SOURCE,
                              INDETERMINACY_SPECIFICATION, UNCERTAINTY)

from conftest import specialization_model


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
    specs = effective.specifications(port)
    assert names(interaction, specs) == [
        "Configuration::PublicationPort::publicationPortNotOperational",
        "Configuration::PublicationPort::publicationPortOperational",
    ]


def inherited_only(analysis, stereotype):
    """Elements that carry ``stereotype`` by inheritance and do not apply it
    themselves, reference carriers and the prelude aside."""
    return [e.id for e in analysis.model.elements
            if not (e.is_prelude or e.is_reference_carrier)
            and stereotype in analysis.effective.kinds(e.id)
            and all(a.stereotype != stereotype for a in e.annotations)]


def test_exactly_four_ports_become_sources_by_inheritance(interaction):
    sources = inherited_only(interaction, INDETERMINACY_SOURCE)
    assert names(interaction, sources) == [
        "Configuration::consumer::subscriptionPort",
        "Configuration::producer::publicationPort",
        "Configuration::server::publicationPort",
        "Configuration::server::subscriptionPort",
    ]
    # none of them carries a direct usage-level annotation
    for eid in sources:
        assert interaction.model.elements[eid].annotations == ()


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
                 for s in effective.specifications(eid)}
        assert specs == {"Operational", "NotOperational"}


def test_acc_sources_are_direct_not_derived(acc):
    for stereotype in DEFAULT_CATALOG.stereotypes:
        assert inherited_only(acc, stereotype) == []


def test_element_with_no_edges_or_annotations_has_empty_effective(acc):
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
    for report in (analysis.stats, analysis.topics, analysis.risks,
                   analysis.suggestions):
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


def _lattice_chain(depth):
    # every third level an Uncertainty, as in the benchmark's lattice: the
    # full lists would hold depth * depth / 6 inherited applications
    return analyze_text(
        "package P { «IndeterminacySource<nd>» part def L0 { "
        "«IndeterminacySpecification» constraint Up { true; } } "
        + "".join(("«Uncertainty<ocr, epi, subj>» " if d % 3 == 0 else "")
                  + f"part def L{d} specializes L{d - 1}; "
                  for d in range(1, depth))
        + "part sys { "
        + "".join(f"«Uncertainty<ocr, epi, subj>» part u{d} : L{d} {{ "
                  f"«IndeterminacySpecification» ref ::> sys.u{d}.Up; "
                  f"«Effect» ref ::> u{(d + 5) % depth}; }} "
                  for d in range(0, depth, 5))
        + "} }")


def test_pipeline_builds_no_effective_lists():
    depth = 900
    analysis = _lattice_chain(depth)
    tracemalloc.start()
    try:
        analysis.effective
        assert not analysis.findings
        graph = analysis.graph
        for report in (analysis.stats, analysis.topics, analysis.risks,
                       analysis.suggestions):
            report()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(graph.edges) > depth // 5
    # the lists would hold 135,000 applications, tens of MiB
    assert peak < 4 * 2 ** 20
    # reading the map still builds them, equal to a plain recomputation
    bottom = analysis.model.resolve_qualified(f"P::L{depth - 1}")
    assert len(analysis.effective[bottom]) == 1 + (depth - 1) // 3
    assert sum(map(len, analysis.effective.values())) > depth * depth // 6


def test_multi_parent_chain_composes_in_linear_work():
    # each D<i> specializes the two defs before it, so its closure is every
    # def below it; the graph and the suggestions read its specifications
    # and references, composed from its parents' without a closure search
    # or a full list
    depth = 2000
    text = ("package P { «IndeterminacySource<nd>» part def S { "
            "«IndeterminacySpecification» constraint C; } "
            "«Effect<con>» part e; "
            "«IndeterminacySource<nd>, Uncertainty<ocr>» part def D0 { "
            "«IndeterminacySpecification» constraint K; "
            "«IndeterminacySpecification» ref ::> S::C; «Effect» ref ::> e; } "
            "part def D1 specializes D0; "
            + " ".join(f"part def D{i} specializes D{i - 1}, D{i - 2};"
                       for i in range(2, depth)) + " }")
    analysis = analyze_text(text)
    analysis.effective
    with mock.patch.object(Model, "inheritance_edges", autospec=True,
                           side_effect=Model.inheritance_edges) as edges:
        graph = analysis.graph
        suggestions = analysis.suggestions()
    assert edges.call_count < 10 * depth
    assert not analysis.effective._lists
    # every D<i> specifies K, is caused by C and propagates to e
    assert len(graph.edges) == 1 + 3 * depth
    assert len(suggestions) == depth
    top = analysis.model.resolve_qualified(f"P::D{depth - 1}")
    assert names(analysis, analysis.effective.specifications(top)) == ["P::D0::K"]
    [reference] = analysis.effective.references(top)
    assert reference.element == top
    assert reference.provenance.depth == depth // 2


# -- the effective map against an eager oracle ---------------------------------

_APPLIED = ("", "«Uncertainty<ocr, epi, subj>» ", "«Uncertainty<con>» ",
            "«Effect<con>» ", "«IndeterminacySource<nd>» ",
            "«Uncertainty<ocr>, Effect» ",
            "«Uncertainty<ocr>, Uncertainty<con>» ")


def _oracle(model):
    """Each element's effective list by enumerating its inheritance paths.

    An application of kind s at the end of a path is carried unless some
    element on it applies s itself and leaves over a redefinition edge.
    Per (s, origin) the shortest path wins, and of those the one whose
    edge positions in ``model.edges`` order are least.
    """
    inherits = {}
    for edge in model.edges:
        if edge.kind in INHERITANCE_KINDS:
            inherits.setdefault(edge.source, []).append(edge)

    def edges(node):
        return inherits.get(node, [])

    def direct(node):
        return {a.stereotype: a for a in model.elements[node].annotations}

    lists = {}
    for element in model.elements:
        best = {(s, element.id): ((0, ()), (), a)
                for s, a in direct(element.id).items()}
        stack = [(element.id, (), (), frozenset())]
        while stack:
            node, positions, hops, blocked = stack.pop()
            for index, edge in enumerate(edges(node)):
                here = blocked | (direct(node).keys()
                                  if edge.kind is EdgeKind.REDEFINITION
                                  else frozenset())
                path = (positions + (index,), hops + ((edge.kind, edge.target),))
                for s, a in direct(edge.target).items():
                    rank = (len(path[0]), path[0])
                    key = (s, edge.target)
                    if s not in here and (key not in best
                                          or rank < best[key][0]):
                        best[key] = (rank, path[1], a)
                stack.append((edge.target, *path, frozenset(here)))
        lists[element.id] = sorted(
            ((s, origin, hops, a) for (s, origin), (_, hops, a) in best.items()),
            key=lambda row: (len(row[2]), row[1], row[0]))
    return lists


def _row(app):
    return (app.stereotype, app.provenance.origin, app.provenance.path,
            app.provenance.span, app.span, app.characterization)


def _oracle_row(row):
    s, origin, hops, app = row
    return (s, origin, hops, app.provenance.span, app.span,
            app.characterization)


def _refers(row):
    app = row[3]
    return row[0] in (UNCERTAINTY, EFFECT) and (app.spec_refs
                                                or app.effect_refs)


def _check_against_oracle(model, order):
    oracle = _oracle(model)
    effective = effective_stereotypes(model)
    assert len(effective) == len(model.elements)
    # the lazy queries first, while no list is built
    for eid in order:
        assert eid in effective
        assert effective.kinds(eid) == {row[0] for row in oracle[eid]}
        assert [(a.stereotype, a.spec_refs, a.effect_refs)
                for a in effective.references(eid)] == \
            [(row[0], row[3].spec_refs, row[3].effect_refs)
             for row in oracle[eid] if _refers(row)]
        assert effective.specifications(eid) == [
            child for scope in (eid, *model.specialization_closure(eid))
            for child in model.elements[scope].owned
            if any(row[0] == INDETERMINACY_SPECIFICATION
                   for row in oracle[child])]
    # then the lists, built in the given order
    for eid in order:
        assert [(_row(app), app.element) for app in effective[eid]] == \
            [(_oracle_row(row), eid) for row in oracle[eid]]
    assert dict(effective.items()) == {eid: effective[eid] for eid in order}


def test_effective_map_on_hand_picked_cases():
    text = specialization_model(
        defs=[[], [0], [0], [2, 1], [3]],
        usages=[(3, "", 0), (None, ":>>", 0), (None, ":> :>>", 0),
                (None, ":>> :>", 0), (4, ":>", 1), (None, ":>>", 4)],
        decorations={
            "constants": "«IndeterminacySource<nd>» part def S { "
                         "«IndeterminacySpecification» constraint C0; "
                         "«IndeterminacySpecification» constraint C1; } ",
            "D0": ("«IndeterminacySource<nd>» ", ""),
            "D1": ("«Uncertainty<ocr>» ",
                   "«IndeterminacySpecification» ref ::> S::C0;"),
            "D2": ("«Uncertainty<ocr>» ",
                   "«IndeterminacySpecification» ref ::> S::C1;"),
            "u0": ("«Uncertainty<ocr, epi, subj>» ", "«Effect» ref ::> u4;"),
            "u1": ("«Uncertainty<con>» ", ""),
            "u3": ("«Uncertainty<con>» ", ""),
            "u4": ("«Effect<con>» ", "«IndeterminacySpecification» ref ::> S::C1;"),
            "u5": ("«Effect<con>» ", ""),
        })
    analysis = analyze_text(text)
    model = analysis.model
    assert not [d for d in analysis.findings if d.severity.value == "error"]
    qn = model.resolve_qualified
    effective = effective_stereotypes(model)
    # equal-depth tie: D0 reaches D3 over D2 and D1, the first edge wins
    [source] = [a for a in effective[qn("P::D3")]
                if a.stereotype == INDETERMINACY_SOURCE]
    assert source.provenance.path == ((EdgeKind.SUBCLASSIFICATION, qn("P::D2")),
                                      (EdgeKind.SUBCLASSIFICATION, qn("P::D0")))
    # redefinition override: u1 applies Uncertainty, so u0's are not carried
    assert [(a.stereotype, a.provenance.origin)
            for a in effective[qn("P::u1")]] == [
        (UNCERTAINTY, qn("P::u1")), (INDETERMINACY_SOURCE, qn("P::D0"))]
    # two edges of different kinds to one parent: u3's redefinition edge
    # drops Uncertainty, its subsetting edge still carries it
    assert [k for k, _ in [a for a in effective[qn("P::u3")]
                           if a.provenance.origin == qn("P::u0")][0]
            .provenance.path] == [EdgeKind.SUBSETTING]
    order = [element.id for element in model.elements]
    _check_against_oracle(model, order)
    _check_against_oracle(model, order[::-1])


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_effective_map_matches_eager_oracle_on_random_models(data):
    size = data.draw(st.integers(1, 7), label="defs")
    index = st.integers(0, size - 1)
    defs = data.draw(st.lists(st.lists(index, max_size=3), min_size=size,
                              max_size=size), label="specializes")
    usages = data.draw(st.lists(st.tuples(
        st.none() | index,
        st.sampled_from(("", ":>", ":>>", ":> :>>", ":>> :>")),
        st.integers(0, 4)), max_size=5), label="usages")
    usages = [(typed, relation if other < len(usages) else "", other)
              for typed, relation, other in usages]
    names = [f"D{i}" for i in range(size)] + [f"u{j}"
                                               for j in range(len(usages))]
    decorations = {"constants": "«IndeterminacySource<nd>» part def S { "
                                "«IndeterminacySpecification» constraint C0; "
                                "«IndeterminacySpecification» constraint C1; } "}
    for name in names:
        applied = data.draw(st.sampled_from(_APPLIED), label=name)
        refs = data.draw(st.lists(st.sampled_from(
            ["«IndeterminacySpecification» ref ::> S::C0;",
             "«IndeterminacySpecification» ref ::> S::C1;",
             f"«IndeterminacySpecification» constraint K{name};"]
            + [f"«Effect» ref ::> u{j};" for j in range(len(usages))]),
            max_size=2), label=f"{name} refs")
        decorations[name] = (applied, " ".join(refs))
    model = analyze_text(specialization_model(defs, usages, decorations)).model
    order = [element.id for element in model.elements]
    data.draw(st.randoms(use_true_random=False), label="order").shuffle(order)
    _check_against_oracle(model, order)
