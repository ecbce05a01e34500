import decimal
import json
import os
import re
import tracemalloc

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psumlint.api import analyze_text
from psumlint.profile import DEFAULT_CATALOG, ProfileCatalog
from psumlint.propagation import backward_trace, forward_trace
from psumlint.reporting import (RenderError, count_lom, graph_node_labels,
                                render_diagnostics, render_graph, render_json,
                                render_risks, render_stats, render_suggestions,
                                render_topics, render_trace)

from conftest import (ALL_FIXTURES, analyze_fixture, catalog_text, fixture_text,
                      specialization_model)

SCHEMA_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "docs", "schemas")


def schema(name: str) -> dict:
    with open(os.path.join(SCHEMA_DIR, name), "r", encoding="utf-8") as fh:
        return json.load(fh)


def check(payload_text: str, schema_name: str):
    jsonschema.validate(json.loads(payload_text), schema(schema_name))


# -- statistics -------------------------------------------------------------------

def test_acc_statistics_hand_count(acc):
    stats = acc.stats()
    counts = stats["stereotype_counts"]
    assert counts["BeliefStatement"]["state"]["direct"] == 1
    assert counts["Uncertainty"]["transition"]["direct"] == 2
    assert counts["IndeterminacySource"]["part"]["direct"] == 3
    assert counts["IndeterminacySpecification"]["constraint"]["direct"] == 2
    assert counts["Effect"]["action"]["direct"] == 1
    # line extents of the annotated elements, counted by hand in the fixture
    assert counts["BeliefStatement"]["state"]["element_lom"] == 32
    assert counts["Uncertainty"]["transition"]["element_lom"] == 18
    assert counts["IndeterminacySource"]["part"]["element_lom"] == 8
    assert counts["IndeterminacySpecification"]["constraint"]["element_lom"] == 4
    assert counts["UncertaintyTopic"]["item def"]["element_lom"] == 4
    assert stats["nature_breakdown"] == {"NonDeterminism": 1,
                                         "InsufficientResolution": 2}
    assert stats["specification_declarations"] == 2
    assert stats["specification_refs"] == 2
    assert stats["effect_declarations"] == 1
    assert stats["effect_refs"] == 1
    assert stats["reference_counts"]["Uncertainty"] == 2
    assert stats["topic_count"] == 1
    assert stats["topics"] == [{"topic": "SignalDefinition::PerceptionSignal",
                                "members": 2}]
    assert stats["risk_counts"] == {"low": 0, "medium": 0, "high": 1}


def test_acc_element_counts_follow_keyword_occurrences(acc):
    counts = acc.stats()["element_counts"]
    assert counts["part def"] == 5      # ACC, Sensor, Radar, Lidar, Camera
    assert counts["part"] == 4          # radars, lidars, cameras, acc
    assert counts["state def"] == 1
    assert counts["state"] == 9
    assert counts["transition"] == 8
    assert counts["action"] == 2        # perceive, decide
    assert counts["item def"] == 3
    assert counts["attribute"] == 5
    assert counts["constraint"] == 2
    assert counts["metadata"] == 1


def test_vfea_statistics_match_single_uncertainty(vfea):
    stats = vfea.stats()
    assert stats["stereotype_counts"]["Uncertainty"] == \
        {"attribute": {"direct": 1, "inherited": 0, "element_lom": 5}}
    assert "IndeterminacySource" not in stats["stereotype_counts"]
    assert stats["stereotype_counts"]["BeliefStatement"]["part def"] == \
        {"direct": 1, "inherited": 0, "element_lom": 12}
    assert stats["nature_breakdown"] == {}


def test_empty_model_all_zero():
    stats = analyze_text("").stats()
    assert stats["element_counts"] == {}
    assert stats["stereotype_counts"] == {}
    assert stats["topic_count"] == 0
    assert stats["lom"]["total"] == 0


def test_lom_counts_non_blank_lines(acc):
    text = fixture_text("acc.sysml")
    expected = sum(1 for line in text.splitlines() if line.strip())
    stats = acc.stats()
    assert stats["lom"]["total"] == expected
    assert count_lom("a\n\n  \nb\n") == 2


# -- rendering ---------------------------------------------------------------------

def test_stats_json_round_trip(acc):
    stats = acc.stats()
    rendered = render_stats(stats, "json")
    check(rendered, "stats.schema.json")
    assert json.loads(rendered) == stats


def test_stats_rendering_is_pure(acc):
    stats = acc.stats()
    assert render_stats(stats, "json") == render_stats(stats, "json")
    assert render_stats(stats, "text") == render_stats(stats, "text")


def test_stats_text_contains_tables(acc):
    text = render_stats(acc.stats(), "text")
    assert "Lines of model" in text
    assert "Element counts" in text
    assert "Risks by impact" in text


def _extended_catalog() -> ProfileCatalog:
    """The bundled catalog plus two stereotypes it does not define."""
    data = json.loads(catalog_text())
    data["stereotypes"]["Hazard"] = ["OccurrenceDefinitionLike",
                                     "OccurrenceUsageLike"]
    data["stereotypes"]["Drift"] = ["OccurrenceUsageLike"]
    return ProfileCatalog.from_json(json.dumps(data))


EXTENDED_CATALOG = _extended_catalog()
_STEREOTYPE_ROW = re.compile(r"  (\S+)  +(\S+(?: \S+)*)  +(\d+) \((\d+)\)  +"
                             r"(\d+) inherited")


def stereotype_rows(text: str) -> list[tuple[str, str, int, int, int]]:
    """(stereotype, kind, direct, element_lom, inherited) of each row of
    the text report's stereotype section."""
    section = text.split("Stereotype applications, direct (element lines)\n",
                         1)[1].split("\n\n", 1)[0]
    rows = []
    for line in section.splitlines():
        stereotype, kind, *numbers = _STEREOTYPE_ROW.fullmatch(line).groups()
        rows.append((stereotype, kind, *map(int, numbers)))
    return rows


def stereotype_cells(stats: dict) -> list[tuple[str, str, int, int, int]]:
    return [(stereotype, kind, cell["direct"], cell["element_lom"],
             cell["inherited"])
            for stereotype, cells in stats["stereotype_counts"].items()
            for kind, cell in cells.items()]


def test_stats_text_lists_catalog_defined_stereotypes():
    analysis = analyze_text("package P { «Hazard» part def H; part h : H; }",
                            catalog=EXTENDED_CATALOG)
    stats = analysis.stats()
    assert stats["stereotype_counts"] == {"Hazard": {
        "part def": {"direct": 1, "inherited": 0, "element_lom": 1},
        "part": {"direct": 0, "inherited": 1, "element_lom": 0}}}
    assert stereotype_rows(render_stats(stats, "text")) == [
        ("Hazard", "part", 0, 0, 1), ("Hazard", "part def", 1, 1, 0)]


def test_stats_text_orders_profile_stereotypes_before_catalog_extras():
    analysis = analyze_text(
        "package P { «Hazard» part def H; «Drift» part d; "
        "«Effect<con>» part e; «Uncertainty<con>» part u; }",
        catalog=EXTENDED_CATALOG)
    rows = stereotype_rows(render_stats(analysis.stats(), "text"))
    assert [row[0] for row in rows] == ["Uncertainty", "Effect", "Drift",
                                        "Hazard"]


_DECORATIONS = ("", "«Uncertainty<ocr, epi, subj>» ", "«Effect<con>» ",
                "«IndeterminacySource<nd>» ", "«Hazard» ", "«Drift» ",
                "«Hazard, Effect<con>» ", "«Hazard, Hazard» ",
                "«BeliefStatement» ")


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_stats_text_shows_every_json_cell_once(data):
    size = data.draw(st.integers(1, 4), label="defs")
    index = st.integers(0, size - 1)
    defs = data.draw(st.lists(st.lists(index, max_size=2), min_size=size,
                              max_size=size), label="specializes")
    usages = data.draw(st.lists(st.tuples(
        st.none() | index, st.sampled_from(("", ":>", ":>>")),
        st.integers(0, 2)), max_size=3), label="usages")
    usages = [(typed, relation if other < len(usages) else "", other)
              for typed, relation, other in usages]
    names = [f"D{i}" for i in range(size)] + [f"u{j}"
                                               for j in range(len(usages))]
    decorations = {name: (data.draw(st.sampled_from(_DECORATIONS), label=name),
                          "") for name in names}
    text = specialization_model(defs, usages, decorations)
    catalog = data.draw(st.sampled_from((DEFAULT_CATALOG, EXTENDED_CATALOG)),
                        label="catalog")
    stats = analyze_text(text, catalog=catalog).stats()
    assert json.loads(render_stats(stats, "json")) == stats
    assert sorted(stereotype_rows(render_stats(stats, "text"))) == \
        sorted(stereotype_cells(stats))


def test_graph_dot_contains_publish_to_delivering(interaction):
    dot = render_graph(interaction.graph, "dot")
    assert "publish -> delivering" in dot
    assert dot.startswith("digraph")


def test_color_tints_the_severity_word_only():
    # the path and the messages hold both severity words too
    analysis = analyze_text(
        "package P { part x : error_warning; "
        "«Uncertainty<con>, Uncertainty<ocr>» part warning; }",
        path="warnings/error.sysml")
    plain = render_diagnostics(analysis.findings, "text")
    assert plain == (
        "warnings/error.sysml:1:22: error[R001]: cannot resolve "
        "'error_warning' in 'error_warning'\n"
        "warnings/error.sysml:1:56: warning[V014]: Uncertainty is applied "
        "more than once to P::warning\n")
    assert render_diagnostics(analysis.findings, "text", color=True) == \
        plain.replace(": error[", ": \x1b[31merror\x1b[0m[").replace(
            ": warning[", ": \x1b[33mwarning\x1b[0m[")


def test_graph_json_schema(interaction):
    check(render_graph(interaction.graph, "json"), "graph.schema.json")


def test_graph_labels_are_unique():
    for name in ALL_FIXTURES:
        graph = analyze_fixture(name).graph
        labels = graph_node_labels(graph)
        assert len(set(labels.values())) == len(labels)


def test_diagnostics_render_ordered_json(acc):
    analysis = analyze_fixture("acc_verbatim.sysml")
    rendered = render_diagnostics(analysis.findings, "json")
    check(rendered, "diagnostics.schema.json")
    rows = json.loads(rendered)
    keys = [(r["file"], r["line"], r["column"], r["code"]) for r in rows]
    assert keys == sorted(keys)


def test_trace_render_json_schema(interaction):
    model = interaction.model
    publish = model.resolve_qualified(
        "Configuration::producer::producerBehavior::publish")
    result = forward_trace(interaction.graph, publish)
    check(render_trace(result, interaction.graph, "json"), "trace.schema.json")
    backward = backward_trace(interaction.graph, publish)
    check(render_trace(backward, interaction.graph, "json"), "trace.schema.json")


def test_topics_render_json_schema(arrowhead):
    rendered = render_topics(arrowhead.topics(), arrowhead.model, "json")
    check(rendered, "topics.schema.json")


def test_risks_render_json_schema(arrowhead):
    rendered = render_risks(arrowhead.risks(), arrowhead.risk_roots(),
                            arrowhead.model, "json")
    check(rendered, "risks.schema.json")


def test_suggestions_render_json_schema(interaction):
    rendered = render_suggestions(interaction.suggestions(),
                                  interaction.model, "json")
    check(rendered, "suggestions.schema.json")


def test_profile_catalog_matches_schema():
    check(catalog_text(), "profile-catalog.schema.json")


def test_unsupported_format_pairs_raise(acc):
    with pytest.raises(RenderError):
        render_stats(acc.stats(), "dot")
    with pytest.raises(RenderError):
        render_diagnostics(acc.findings, "dot")
    with pytest.raises(RenderError):
        render_graph(acc.graph, "text")


# -- the JSON writer ---------------------------------------------------------------

_TEXT = st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\t é€\U0001F600\ud800')
                | st.characters())
_SCALARS = (st.none() | st.booleans() | st.integers()
            | st.integers(-2 ** 200, 2 ** 200) | st.floats()
            | st.sampled_from([-0.0, 1e300, float("nan"), float("inf"),
                               float("-inf")])
            | _TEXT)
_KEYS = _TEXT | st.integers() | st.floats() | st.booleans() | st.none()
_PAYLOADS = st.recursive(
    _SCALARS,
    lambda children: (st.lists(children) | st.lists(children).map(tuple)
                      | st.dictionaries(_KEYS, children)),
    max_leaves=20)


@settings(max_examples=200, deadline=None)
@given(_PAYLOADS)
def test_render_json_matches_json_dumps(payload):
    assert render_json(payload) == json.dumps(payload, indent=2) + "\n"


def _as_generators(value):
    """``value`` with every list made a generator, lazily."""
    if isinstance(value, list):
        return (_as_generators(item) for item in value)
    if isinstance(value, dict):
        return {key: _as_generators(item) for key, item in value.items()}
    return value


@settings(max_examples=100, deadline=None)
@given(_PAYLOADS)
def test_render_json_writes_a_generator_as_its_list(payload):
    assert render_json(_as_generators(payload)) == json.dumps(payload, indent=2) + "\n"
    assert render_json({"a": (item for item in ())}) == '{\n  "a": []\n}\n'


@pytest.mark.parametrize("payload", [
    {"a": {1, 2}}, [decimal.Decimal("1.5")], {"a": [{(1, 2): "key"}]},
    [object()]])
def test_render_json_rejects_what_json_dumps_rejects(payload):
    with pytest.raises(TypeError) as expected:
        json.dumps(payload, indent=2)
    with pytest.raises(TypeError) as raised:
        render_json(payload)
    assert str(raised.value) == str(expected.value)


def test_graph_json_render_memory_is_linear_in_its_output():
    # json.dumps(indent=2) holds every token of the document in one list,
    # a peak of 9.2x the output on this model (Python 3.11); one string per
    # container peaks at 3.9x, of which the dicts render_graph builds are 1.9x
    count = 400
    specs = " ".join(f"«IndeterminacySpecification» constraint c{j} {{ true }}"
                     for j in range(10))
    parts = [f"«Uncertainty<ocr, epi, subj>» part uncertainty{i} {{ "
             f"«IndeterminacySpecification» ref ::> S::c{i % 10}; "
             + (f"«Effect» ref ::> uncertainty{i + 1}; " if i + 1 < count
                else "") + "}" for i in range(count)]
    analysis = analyze_text(
        "package Outer { package Inner {\n"
        f"«IndeterminacySource<nd>» part def S {{ {specs} }}\n"
        + "\n".join(parts) + "\n} }\n")
    graph = analysis.graph
    assert len(graph.edges) == 2 * count + 9
    graph_node_labels(graph)  # kept on the graph, so outside the measurement
    tracemalloc.start()
    try:
        rendered = render_graph(graph, "json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rendered == json.dumps(json.loads(rendered), indent=2) + "\n"
    assert peak < 5 * len(rendered), (peak, len(rendered))


def test_graph_json_render_peak_is_about_twice_its_output():
    # with every node and edge dict built before writing, the peak was 4.2x
    # the output on this chain (Python 3.11); written as made, each dict is
    # freed once written, and the peak is the item strings plus the joined
    # output, 2.1x
    count = 1000
    parts = [f"«Uncertainty<ocr, epi, subj>» part u{i} {{ "
             + (f"«Effect» ref ::> u{i + 1}; " if i + 1 < count else "")
             + "}" for i in range(count)]
    graph = analyze_text("package P {\n" + "\n".join(parts) + "\n}\n").graph
    assert len(graph.edges) == count - 1
    graph_node_labels(graph)
    tracemalloc.start()
    try:
        rendered = render_graph(graph, "json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rendered == json.dumps(json.loads(rendered), indent=2) + "\n"
    assert peak < 2.5 * len(rendered), (peak, len(rendered))
