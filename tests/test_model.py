import gc
import sys
import tracemalloc
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from psumlint.api import analyze_files, analyze_sources, analyze_text
from psumlint.model import (_CATEGORY_BY_KIND, INHERITANCE_KINDS, EdgeKind,
                            ElementKind, MetaclassCategory, _Builder,
                            build_model, strongly_connected)

from psumlint.source import SourceFile
from psumlint.syntax import AstNode, parse_file

from conftest import (ALL_FIXTURES, analyze_fixture, fixture_path, fixture_text,
                      specialization_model)
from test_parser import generated_model


def qn(analysis, name):
    eid = analysis.model.resolve_qualified(name)
    assert eid is not None, name
    return eid


def test_radar_subclassifies_sensor(acc):
    model = acc.model
    radar = qn(acc, "StructuralModel::Radar")
    sensor = qn(acc, "StructuralModel::Sensor")
    edges = [e for e in model.inheritance_edges(radar)
             if e.kind is EdgeKind.SUBCLASSIFICATION]
    assert [e.target for e in edges] == [sensor]


def test_conjugated_port_typing_sets_flag(interaction):
    model = interaction.model
    port = qn(interaction, "Configuration::producer::publicationPort")
    port_def = qn(interaction, "Configuration::PublicationPort")
    edges = [e for e in model.inheritance_edges(port)
             if e.kind is EdgeKind.FEATURE_TYPING]
    assert [(e.target, e.conjugated) for e in edges] == [(port_def, True)]
    plain = qn(interaction, "Configuration::server::publicationPort")
    edges = [e for e in model.inheritance_edges(plain)
             if e.kind is EdgeKind.FEATURE_TYPING]
    assert [(e.target, e.conjugated) for e in edges] == [(port_def, False)]


def test_single_empty_package():
    analysis = analyze_text("package P { }")
    model = analysis.model
    user = [e for e in model.elements if not e.is_prelude]
    assert len(user) == 1
    assert model.edges == ()
    assert model.diagnostics == []


def test_resolve_feature_chain_through_typing(acc):
    model = acc.model
    state = qn(acc, "BehavioralModel::ACCState::accOn::decisionLayerState")
    target = model.resolve("acc.radars.radarNotBlocked", state)
    assert target == qn(acc, "StructuralModel::ACC::radars::radarNotBlocked")


def test_resolve_prelude_name(acc):
    model = acc.model
    state = qn(acc, "BehavioralModel::ACCState")
    boolean = model.resolve("ScalarValues::Boolean", state)
    assert boolean is not None
    assert model.elements[boolean].is_prelude
    assert model.resolve("Boolean", state) == boolean
    # root-anchored names do not fall back to the prelude's members
    assert model.resolve_qualified("ScalarValues::Boolean") == boolean
    assert model.resolve_qualified("Boolean") is None


def test_resolve_behavior_chain_from_sibling_scope(interaction):
    model = interaction.model
    producer = qn(interaction, "Configuration::producer")
    hit = model.resolve("server.serverBehavior.delivering", producer)
    assert hit == qn(interaction,
                     "Configuration::server::serverBehavior::delivering")


def test_resolution_through_wildcard_import(acc):
    model = acc.model
    topic = qn(acc, "SignalDefinition::PerceptionSignal")
    hit = model.resolve("accOn.decisionLayerState.startDeciding", topic)
    assert hit == qn(acc, "BehavioralModel::ACCState::accOn::"
                          "decisionLayerState::startDeciding")
    # an import inside a specializing def leaves the inherited members visible
    analysis = analyze_text(
        "package Lib { part def T; } package P { part def B { attribute v; } "
        "part def A specializes B { import Lib::*; ref :>> v; } }")
    assert analysis.model.diagnostics == []
    ref = [e for e in analysis.model.elements if e.kind is ElementKind.REF_USAGE]
    assert [t.target for t in ref[0].ref_targets] == [qn(analysis, "P::B::v")]


def test_specialization_closure_examples(acc, frigate):
    radar = qn(acc, "StructuralModel::Radar")
    sensor = qn(acc, "StructuralModel::Sensor")
    assert acc.model.specialization_closure(radar) == (sensor,)

    pod = qn(frigate, "MiningFrigateModel::PodPort")
    ndc = qn(frigate, "MiningFrigateModel::NonDeterministicComponent")
    assert frigate.model.specialization_closure(pod) == (ndc,)

    lone = qn(acc, "StructuralModel::Sensor")
    assert acc.model.specialization_closure(lone) == ()


def test_closure_transitivity_and_idempotence():
    for name in ALL_FIXTURES:
        model = analyze_fixture(name).model
        for element in model.elements:
            closure = model.specialization_closure(element.id)
            assert closure == model.specialization_closure(element.id)
            closure_set = set(closure)
            for mid in closure:
                for nested in model.specialization_closure(mid):
                    assert nested in closure_set, (name, element.qualified_name)


def test_metaclass_category_total_and_examples():
    for kind in ElementKind:
        assert isinstance(_CATEGORY_BY_KIND[kind], MetaclassCategory)
    assert _CATEGORY_BY_KIND[ElementKind.TRANSITION_USAGE] is \
        MetaclassCategory.OCCURRENCE_USAGE_LIKE
    assert _CATEGORY_BY_KIND[ElementKind.ATTRIBUTE_USAGE] is \
        MetaclassCategory.ATTRIBUTE_USAGE
    assert _CATEGORY_BY_KIND[ElementKind.PACKAGE] is MetaclassCategory.OTHER


def test_unresolved_name_r001():
    for text in ("package P { part x defined by Missing; }",
                 # imports see neither other imports nor the prelude's members
                 "package P { import Real; }"):
        analysis = analyze_text(text)
        codes = [d.code for d in analysis.model.diagnostics]
        assert codes == ["R001"], text
        assert analysis.model.edges == ()


@pytest.mark.parametrize("text", [
    "package P { part def D { part m; } part u : D :> m; }",
    "package P { part def D { part m; } part u : D :>> m; }",
    "package P { part def D { part m; part u0 : D; } part u : D :> u0.m; }",
])
def test_first_segment_is_found_among_inherited_members(text):
    # u's own members include those of its type D, so a name's first
    # segment is looked up there before the enclosing scopes
    analysis = analyze_text(text)
    assert analysis.findings == []
    u, m = qn(analysis, "P::u"), qn(analysis, "P::D::m")
    assert [e.target for e in analysis.model.edges
            if e.source == u and e.kind is not EdgeKind.FEATURE_TYPING] == [m]


def test_first_segment_not_inherited_without_a_type():
    analysis = analyze_text("package P { part def D { part m; } part u :> m; }")
    assert [d.code for d in analysis.model.diagnostics] == ["R001"]


def test_unreadable_file_raises_os_error(tmp_path):
    bad = tmp_path / "bad.sysml"
    bad.write_bytes(b"package P { part a; }\n\xff\n")
    with pytest.raises(OSError, match="can't decode byte 0xff"):
        analyze_files([str(bad)])
    with pytest.raises(OSError):
        analyze_files([str(tmp_path / "missing.sysml")])


def test_duplicate_sibling_r002():
    analysis = analyze_text("package P { part a; part a; }")
    codes = [d.code for d in analysis.model.diagnostics]
    assert codes == ["R002"]
    # a root package declared again in another file; the first one is A
    analysis = analyze_sources([
        SourceFile(path="a.sysml", content="package A { part def X; }"),
        SourceFile(path="b.sysml", content="package A { part def Y; } "
                                           "package B { part y : A::Y; }")])
    diag, unresolved = analysis.model.diagnostics
    assert unresolved.message == "cannot resolve 'Y' in 'A.Y'"
    assert diag.code == "R002" and diag.span.file.path == "b.sysml"
    assert [(span.file.path, note) for span, note in diag.related] == \
        [("a.sysml", "first declared here")]
    # a user package may share a prelude package's name
    analysis = analyze_text("package ScalarValues { attribute def Real; }")
    assert analysis.model.diagnostics == []


def test_specialization_cycle_r003():
    analysis = analyze_text(
        "package P { part def A specializes B; part def B specializes A; }")
    codes = [d.code for d in analysis.model.diagnostics]
    assert "R003" in codes
    # remaining edges are acyclic
    model = analysis.model
    for element in model.elements:
        assert element.id not in set(model.specialization_closure(element.id))


def test_cycle_edge_dropped_in_declaration_order():
    # a's lookup of b.y starts y, a's target, before x, so y's edge to x
    # resolves before x's edge to y; R003 still drops the later-declared
    # edge of the x/y cycle, y's
    analysis = analyze_text(
        "package P { part def a specializes b.y; "
        "part def b specializes a.q { part x :>> y; part y :>> x; } }")
    cycles = [d for d in analysis.model.diagnostics if d.code == "R003"]
    assert [(d.span.start, d.message) for d in cycles] == [
        (94, "specialization cycle through P::b::y; edge dropped")]


def test_owned_member_lookup_does_not_reorder_cycle_removal():
    # A's lookup of B::m takes B's owned m without searching B's closure,
    # so B does not resolve first and B's later-declared edge is dropped
    analysis = analyze_text("package P { part def A specializes B::m, B; "
                            "part def B specializes A { part m; } }")
    cycles = [d for d in analysis.model.diagnostics if d.code == "R003"]
    assert [(d.span.start, d.message) for d in cycles] == [
        (67, "specialization cycle through P::B; edge dropped")]


def _breadth_first(parents: dict[int, list[int]], eid: int) -> tuple[int, ...]:
    order, seen, frontier = [], {eid}, [eid]
    while frontier:
        nxt = []
        for node in frontier:
            for target in parents.get(node, ()):
                if target not in seen:
                    seen.add(target)
                    order.append(target)
                    nxt.append(target)
        frontier = nxt
    return tuple(order)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_cycle_removal_and_closure_on_random_models(data):
    size = data.draw(st.integers(1, 8), label="defs")
    index = st.integers(0, size - 1)
    defs = data.draw(st.lists(st.lists(index, max_size=3), min_size=size,
                              max_size=size), label="specializes")
    usages = data.draw(st.lists(st.tuples(
        st.none() | index, st.sampled_from(("", ":>", ":>>")),
        st.integers(0, 3)), max_size=4), label="usages")
    usages = [(typed, relation if other < len(usages) else "", other)
              for typed, relation, other in usages]
    declared = []
    remove_cycles = _Builder.remove_cycles

    def recording(builder):
        declared.extend(builder.edges)
        remove_cycles(builder)

    with mock.patch.object(_Builder, "remove_cycles", recording):
        model = analyze_text(specialization_model(defs, usages)).model
    sources = [edge.source for edge in declared]
    assert sources == sorted(sources)
    kept = {id(edge) for edge in model.edges}
    assert [edge for edge in declared if id(edge) in kept] == list(model.edges)

    # replay cycle removal: an edge is dropped exactly when it would close
    # a cycle over the inheritance edges kept before it
    parents: dict[int, list[int]] = {}
    dropped = []
    for edge in declared:
        if edge.kind not in INHERITANCE_KINDS:
            continue
        closes = (edge.source == edge.target
                  or edge.source in _breadth_first(parents, edge.target))
        if id(edge) in kept:
            assert not closes, edge
            parents.setdefault(edge.source, []).append(edge.target)
        else:
            assert closes, edge
            dropped.append(edge.span)
    assert dropped == [d.span for d in model.diagnostics if d.code == "R003"]

    # closures, asked for in any order, match a plain breadth-first search
    order = [element.id for element in model.elements]
    data.draw(st.randoms(use_true_random=False), label="order").shuffle(order)
    for eid in order:
        closure = model.specialization_closure(eid)
        assert closure == _breadth_first(parents, eid)
        assert eid not in closure


_STEREOTYPES = ("", "«Uncertainty<ocr, epi, subj>» ", "«IndeterminacySource<nd>» ",
                "«Effect<con>» ")


def _declaration_facts(declarations: list[str]):
    """Findings, edges and effective kinds of package ``P``, by name only."""
    analysis = analyze_text("package P { " + " ".join(declarations) + " }")
    model = analysis.model
    names = [element.qualified_name for element in model.elements]
    return (sorted((d.code, d.message) for d in analysis.findings),
            sorted((names[e.source], names[e.target], e.kind.value)
                   for e in model.edges),
            {element.qualified_name: analysis.effective.kinds(element.id)
             for element in model.elements if element.qualified_name})


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_shuffled_declarations_keep_findings_edges_and_kinds(data):
    # metamorphic: without R001 or R003, the order of the top-level
    # declarations changes nothing, though chains such as u1 :> u0.a reach
    # members through types declared after them. A usage's chains read only
    # earlier usages: two usages that read each other's members (u0 :> u1.a;
    # u1 :> u0.b) see a partial closure in whichever resolves second.
    size = data.draw(st.integers(1, 4), label="defs")
    index = st.integers(0, size - 1)
    declarations = []
    for i in range(size):
        others = [t for t in range(size) if t != i]
        general = data.draw(st.lists(st.sampled_from(others), max_size=2, unique=True)
                            if others else st.just([]), label=f"D{i} specializes")
        owned = [("a", data.draw(st.none() | index, label=f"D{i}::a"))]
        if data.draw(st.booleans(), label=f"D{i} owns b"):
            owned.append(("b", data.draw(st.none() | index, label=f"D{i}::b")))
        head = data.draw(st.sampled_from(_STEREOTYPES)) + f"part def D{i}"
        if general:
            head += " specializes " + ", ".join(f"D{t}" for t in general)
        body = " ".join(f"part {name}" + (f" : D{t}" if t is not None else "") + ";"
                        for name, t in owned)
        declarations.append(f"{head} {{ {body} }}")
    count = data.draw(st.integers(1, 4), label="usages")
    for j in range(count):
        typed = data.draw(st.none() | index, label=f"u{j} type")
        chains = data.draw(st.lists(st.tuples(
            st.sampled_from((":>", ":>>")), st.integers(0, j - 1),
            st.sampled_from(("", ".a", ".b"))), max_size=2)
            if j else st.just([]), label=f"u{j} chains")
        declarations.append(
            data.draw(st.sampled_from(_STEREOTYPES)) + f"part u{j}"
            + (f" : D{typed}" if typed is not None else "")
            + "".join(f" {op} u{k}{member}" for op, k, member in chains) + ";")
    facts = _declaration_facts(declarations)
    assume(not any(code in ("R001", "R003") for code, _message in facts[0]))
    shuffled = data.draw(st.permutations(declarations), label="order")
    assert _declaration_facts(shuffled) == facts


def test_strongly_connected_components():
    component = strongly_connected({1: [2], 2: [3, 1], 3: [4], 4: [3], 5: [5]})
    assert set(component) == {1, 2, 3, 4, 5}
    assert component[1] == component[2] != component[3] == component[4]
    assert len({component[1], component[3], component[5]}) == 3
    # a component is numbered before every component that reaches it
    assert component[3] < component[1]
    # a long chain needs no recursion, and each node is its own component
    chain = {i: [i + 1] for i in range(5000)}
    assert sorted(strongly_connected(chain).values()) == list(range(5001))
    # a ring of the same length is one component
    chain[5000] = [0]
    assert set(strongly_connected(chain).values()) == {0}


def test_every_specialization_has_edge_or_r001():
    """Each relationship occurrence yields exactly one edge or one R001."""
    accepts = ("package P { item def S; state def M { state a; state b; "
               "transition t first a accept s : S then b; "
               "transition u first b accept r : Missing then a; } }")
    sources = [SourceFile.read(fixture_path(name)) for name in ALL_FIXTURES]
    sources.append(SourceFile(path="<accepts>", content=accepts))
    for source in sources:
        model = analyze_sources([source]).model
        declared = 0
        nodes = [parse_file(source)[0]]
        for node in nodes:
            nodes.extend(node.children)
            for name in ("specializes", "specializes_list", "subsets",
                         "redefines", "refsubsets"):
                declared += len(node.attr(name) or ())
            declared += 1 if node.attr("typing") else 0
            # an accept parameter is an element typed as the clause says
            accept = node.attr("accept")
            declared += 1 if accept and accept.param_name and accept.typing else 0
        r001 = sum(1 for d in model.diagnostics if d.code == "R001")
        r003 = sum(1 for d in model.diagnostics if d.code == "R003")
        assert declared == len(model.edges) + r001 + r003, source.path


def test_qualified_names_follow_ownership(acc):
    model = acc.model
    for element in model.elements:
        if element.name is None or element.owner is None:
            continue
        owner = model.elements[element.owner]
        if owner.qualified_name and element.qualified_name:
            assert element.qualified_name == \
                f"{owner.qualified_name}::{element.name}"


def test_qualified_names_resolve_back():
    quoted = analyze_text(
        "package 'a::b' { part 'x::y'; part x { part y; } part x { part z; } "
        "part 'c.d' { part 'e:' { part ' f'; } part ''; part '1'; } }").model
    assert [e.qualified_name for e in quoted.elements if not e.is_prelude] == [
        "'a::b'", "'a::b'::'x::y'", "'a::b'::x", "'a::b'::x::y", "'a::b'::x",
        "'a::b'::x::z", "'a::b'::'c.d'",
        "'a::b'::'c.d'::'e:'", "'a::b'::'c.d'::'e:'::' f'", "'a::b'::'c.d'::''",
        "'a::b'::'c.d'::1"]
    # except an R002 duplicate and what it owns
    for model in [analyze_fixture(name).model for name in ALL_FIXTURES] + [quoted]:
        duplicates = {d.span for d in model.diagnostics if d.code == "R002"}
        for element in model.elements:
            if element.qualified_name is None:
                continue
            cursor = element
            while cursor.span not in duplicates and cursor.owner is not None:
                cursor = model.elements[cursor.owner]
            if cursor.span not in duplicates:
                assert model.resolve(element.qualified_name, None) == element.id, \
                    element.qualified_name


def test_ownership_is_a_forest(acc):
    model = acc.model
    for element in model.elements:
        seen = set()
        cursor = element.owner
        while cursor is not None:
            assert cursor not in seen
            seen.add(cursor)
            cursor = model.elements[cursor].owner


def test_model_immutable_across_analyses():
    analysis = analyze_fixture("interaction.sysml")
    model = analysis.model

    def snapshot():
        return [(e.id, e.kind, e.name, e.owner, e.owned,
                 tuple((a.stereotype, a.spec_refs, a.effect_refs,
                        a.uncertainty_refs) for a in e.annotations))
                for e in model.elements]

    before = snapshot()
    _ = analysis.findings
    _ = analysis.graph
    _ = analysis.stats()
    _ = analysis.topics()
    _ = analysis.suggestions()
    assert snapshot() == before


def test_element_ids_are_dense_and_in_document_order():
    for name in ALL_FIXTURES:
        model = analyze_fixture(name).model
        assert [e.id for e in model.elements] == list(range(len(model.elements)))
        user = [e for e in model.elements if not e.is_prelude]
        spans = [(e.span.file.path, e.span.start) for e in user]
        assert spans == sorted(spans)


def test_pipeline_is_deterministic_end_to_end():
    from psumlint.reporting import render_diagnostics, render_graph, render_stats
    text = fixture_text("interaction.sysml")
    runs = []
    for _ in range(2):
        analysis = analyze_text(text, path="interaction.sysml")
        runs.append((
            render_diagnostics(analysis.findings, "json"),
            render_stats(analysis.stats(), "json"),
            render_graph(analysis.graph, "dot"),
        ))
    assert runs[0] == runs[1]


def test_verbatim_radar_chain_reports_r001_and_corrected_is_clean():
    verbatim = analyze_fixture("acc_verbatim.sysml")
    r001 = [d for d in verbatim.model.diagnostics if d.code == "R001"]
    assert len(r001) == 2
    assert all("radar" in d.message for d in r001)
    corrected = analyze_fixture("acc.sysml")
    assert [d.code for d in corrected.model.diagnostics] == []


def test_forward_chain_resolves_in_linear_work():
    # v's type D0 starts the chain: each def, once resolved, starts the def
    # it specializes, so u's lookup of v.m walks the chain once rather than
    # once per def it would otherwise meet unstarted
    depth = 1000
    defs = " ".join(f"part def D{i} specializes D{i + 1};" for i in range(depth))
    text = (f"package P {{ part v : D0; part u :> v.m; {defs} "
            f"part def D{depth} {{ part m; }} }}")
    from psumlint.model import Model
    with mock.patch.object(Model, "inheritance_edges", autospec=True,
                           side_effect=Model.inheritance_edges) as edges:
        analysis = analyze_text(text)
    assert analysis.findings == []
    u = qn(analysis, "P::u")
    m = qn(analysis, f"P::D{depth}::m")
    assert [e.target for e in analysis.model.edges if e.source == u] == [m]
    assert edges.call_count < 10 * depth


def test_built_model_keeps_no_unstarted_table():
    # an emptied dict keeps the table it grew to, for the model's lifetime
    model = analyze_text(specialization_model(
        [[i - 1] if i else [] for i in range(200)], [])).model
    assert not model.diagnostics
    assert sys.getsizeof(model._unstarted) == sys.getsizeof({})


def _live_syntax_nodes() -> int:
    # AstNode has no __weakref__, so its instances are counted through gc
    gc.collect()
    return sum(1 for obj in gc.get_objects() if isinstance(obj, AstNode))


def test_analysis_holds_no_syntax_tree():
    before = _live_syntax_nodes()
    analysis = analyze_text(fixture_text("acc.sysml"))
    assert analysis.findings == []
    assert _live_syntax_nodes() == before


def test_live_memory_after_analysis_per_source_character():
    # each element held its syntax node, and so every tree: 43.7 bytes per
    # character on this model; the model alone keeps 22.7
    source = SourceFile(path="<generated>", content=generated_model(700))
    gc.collect()
    tracemalloc.start()
    try:
        analysis = analyze_sources([source])
        gc.collect()
        live, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # only the last usage's forward reference is dangling
    assert [d.code for d in analysis.model.diagnostics] == ["R001"]
    assert live <= 30 * len(source.content), live / len(source.content)


def test_build_model_interns_each_file_as_it_arrives():
    # a generator's next file is parsed after the last tree is interned and
    # freed, so at most one tree is alive while a file set is read
    sources = [SourceFile(path=f"f{i}.sysml", content=text) for i, text in enumerate((
        "package A { part def D; part d : D; }",
        "package B { import A::*; part e : D :> A::d; }",
        "package C { part f : B::missing; }"))]
    before = _live_syntax_nodes()
    seen = []

    def parsed():
        for source in sources:
            seen.append(_live_syntax_nodes() - before)
            yield (source, *parse_file(source))

    streamed = build_model(parsed())
    listed = build_model([(source, *parse_file(source)) for source in sources])
    assert seen == [0, 0, 0]
    assert streamed.files == listed.files == tuple(sources)
    assert [e.qualified_name for e in streamed.elements] == \
        [e.qualified_name for e in listed.elements]
    assert streamed.edges == listed.edges
    assert streamed.diagnostics == listed.diagnostics
    assert [d.code for d in streamed.diagnostics] == ["R001"]
