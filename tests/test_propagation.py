import json
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from psumlint import propagation
from psumlint.api import analyze_text
from psumlint.model import strongly_connected
from psumlint.propagation import (EFFECT_CHAIN_KINDS, NodeRole,
                                  PropagationEdge, PropagationEdgeKind,
                                  PropagationGraph,
                                  SpecSuggestion, TRACE_KINDS, TopicRecord,
                                  TraceStartError, backward_trace,
                                  forward_trace, topic_report)
from psumlint.profile import UNCERTAINTY_TOPIC, RiskAnnotation
from psumlint.reporting import graph_node_labels, render_graph, render_trace
from psumlint.source import SourceFile

from conftest import ALL_FIXTURES, analyze_fixture


def rq(analysis, name):
    eid = analysis.model.resolve_qualified(name)
    assert eid is not None, name
    return eid


def edge_pairs(analysis, kind):
    model = analysis.model
    return {(model.elements[e.source].name, model.elements[e.target].name)
            for e in analysis.graph.edges if e.kind is kind}


def test_interaction_propagates_edges(interaction):
    assert edge_pairs(interaction, PropagationEdgeKind.PROPAGATES) == {
        ("publish", "delivering"),
        ("delivering", "delivery"),
        ("subscribe", "subscribing"),
    }


def test_arrowhead_fail_chain_and_risks(arrowhead):
    propagates = edge_pairs(arrowhead, PropagationEdgeKind.PROPAGATES)
    assert ("failToAcceptCallGiveItems", "failToAcceptResultGiveItems") in propagates
    incurs = edge_pairs(arrowhead, PropagationEdgeKind.INCURS)
    assert incurs == {
        ("failToAcceptCallGiveItems", "lossOfCallGiveItemsRisk"),
        ("failToAcceptResultGiveItems", "resultReceptionFailureRisk"),
    }


def test_unannotated_model_yields_empty_graph():
    analysis = analyze_text("package P { part a; part b; }")
    assert analysis.graph.nodes() == []
    assert analysis.graph.edges == []


REPEATED_UNCERTAINTY = (
    "package P { «IndeterminacySource<nd>» part def S { "
    "«IndeterminacySpecification» constraint c { true } } part s : S; "
    "«Effect<con>» part e; «Uncertainty<ocr>%s» part u { "
    "«IndeterminacySpecification» ref ::> s.c; «Effect» ref ::> e; } }")


def test_repeated_stereotype_keeps_its_references():
    # the references attach to the element's one Uncertainty application,
    # so repeating the stereotype loses neither Causes nor Propagates
    single = analyze_text(REPEATED_UNCERTAINTY % "")
    repeated = analyze_text(REPEATED_UNCERTAINTY % ", Uncertainty<con>")
    assert single.findings == []
    assert [d.code for d in repeated.findings] == ["V014"]
    assert edge_pairs(single, PropagationEdgeKind.CAUSES) == {("c", "u")}
    assert edge_pairs(single, PropagationEdgeKind.PROPAGATES) == {("u", "e")}
    for fmt in ("dot", "json"):
        assert render_graph(repeated.graph, fmt) == \
            render_graph(single.graph, fmt)
    traces = [render_trace(forward_trace(a.graph, rq(a, "P::u")), a.graph,
                           "text") for a in (single, repeated)]
    assert traces[0] == traces[1] and "P::e" in traces[0]


def test_forward_trace_two_hops_to_delivery(interaction):
    publish = rq(interaction, "Configuration::producer::producerBehavior::publish")
    delivery = rq(interaction, "Configuration::consumer::consumerBehavior::delivery")
    delivering = rq(interaction, "Configuration::server::serverBehavior::delivering")
    result = forward_trace(interaction.graph, publish, effects_only=True)
    assert delivering in result.reached and delivery in result.reached
    path = result.path(delivery)
    assert len(path) == 2
    assert [e.kind for e in path] == [PropagationEdgeKind.PROPAGATES] * 2
    assert [e.target for e in path] == [delivering, delivery]


def test_forward_trace_of_sink_is_itself(interaction):
    delivery = rq(interaction, "Configuration::consumer::consumerBehavior::delivery")
    result = forward_trace(interaction.graph, delivery)
    assert result.reached == (delivery,)


def test_forward_trace_acc_radars(acc):
    radars = rq(acc, "StructuralModel::ACC::radars")
    result = forward_trace(acc.graph, radars)
    reached_names = {acc.model.elements[n].name for n in result.reached}
    assert {"startDeciding", "failToStartDeciding", "decide",
            "collisionRisk"} <= reached_names


def test_backward_trace_arrowhead_roots(arrowhead):
    model = arrowhead.model
    failure = rq(arrowhead, "AHFModel::AHFNorway_LocalCloudDD::TellUConsumer::"
                            "TellUbehavior::failToAcceptResultGiveItems")
    result = backward_trace(arrowhead.graph, failure)
    reached_names = {model.elements[n].name for n in result.reached}
    assert "failToAcceptCallGiveItems" in reached_names
    spec_roots = [r for r in result.roots
                  if NodeRole.SPECIFICATION in arrowhead.graph.roles[r]]
    assert len(spec_roots) >= 2
    source_sides = {model.elements[r].qualified_name for r in result.roots
                    if NodeRole.SOURCE in arrowhead.graph.roles[r]}
    assert source_sides == {
        "AHFModel::AHFNorway_LocalCloudDD::TellUConsumer::apisp::APIS_HTTP",
        "AHFModel::AHFNorway_LocalCloudDD::APISProducer::tellu::APIS_HTTP",
    }


def test_backward_trace_acc(acc):
    failure = rq(acc, "BehavioralModel::ACCState::accOn::decisionLayerState::"
                      "failToStartDeciding")
    result = backward_trace(acc.graph, failure)
    root_names = {acc.model.elements[r].name for r in result.roots}
    assert root_names == {"radars", "radarBlocked"}


def test_backward_trace_of_source_is_itself(acc):
    radars = rq(acc, "StructuralModel::ACC::radars")
    result = backward_trace(acc.graph, radars)
    assert result.reached == (radars,)
    assert result.roots == (radars,)


def test_trace_start_not_in_graph_raises_e001(acc):
    ready = rq(acc, "BehavioralModel::ACCState::ready")
    with pytest.raises(TraceStartError, match="E001"):
        forward_trace(acc.graph, ready)


def propagates_cycles(graph):
    """Node sets of the strongly connected components over Propagates edges
    that hold a cycle: more than one node, or one node with a self-loop."""
    successors = {}
    for edge in graph.edges:
        if edge.kind is PropagationEdgeKind.PROPAGATES:
            successors.setdefault(edge.source, []).append(edge.target)
    groups = {}
    for node, number in strongly_connected(successors).items():
        groups.setdefault(number, set()).add(node)
    return [group for group in groups.values()
            if len(group) > 1
            or any(node in successors.get(node, ()) for node in group)]


def test_fixture_graphs_are_acyclic():
    for name in ALL_FIXTURES:
        assert propagates_cycles(analyze_fixture(name).graph) == []


def test_synthetic_two_node_cycle():
    analysis = analyze_text(
        "package P { part def D; "
        "«Uncertainty<ocr, epi, subj>» part a defined by D { "
        "  «Effect» ref ::> b; } "
        "«Uncertainty<ocr, epi, subj>» part b defined by D { "
        "  «Effect» ref ::> a; } }")
    a = analysis.model.resolve_qualified("P::a")
    b = analysis.model.resolve_qualified("P::b")
    assert propagates_cycles(analysis.graph) == [{a, b}]
    # traces terminate despite the cycle
    result = forward_trace(analysis.graph, a)
    assert set(result.reached) == {a, b}


def _effect_chain(length, ring):
    parts = []
    for i in range(length):
        target = (i + 1) % length if ring else i + 1
        effect = f"«Effect» ref ::> u{target}; " if ring or target < length else ""
        parts.append(f"«Uncertainty<ocr, epi, subj>» part u{i} {{ {effect}}}")
    return analyze_text("package P {\n" + "\n".join(parts) + "\n}\n")


#: bytes per reached node that a rendered trace stays under
TRACE_TEXT_BYTES, TRACE_JSON_BYTES = 64, 256


def _trace_and_render_both_ways(analysis, first, last):
    """Trace from ``first`` and to ``last`` and render both traces in full,
    where each reached node is one edge deeper than the one before it.

    Every format stays under a byte bound linear in the nodes reached (a
    path per node would grow with the square of the chain: 71 MB of JSON
    at 1,100 nodes). Following the JSON ``via`` edges back from the
    deepest node reaches the start. Returns the forward and the backward
    trace.
    """
    graph = analysis.graph
    labels = graph_node_labels(graph)
    forward = forward_trace(graph, first)
    backward = backward_trace(graph, last)
    for result in (forward, backward):
        count = len(result.reached) - 1
        assert render_trace(result, graph, "dot").count(" -> ") == count
        text = render_trace(result, graph, "text")
        assert len(text) < TRACE_TEXT_BYTES * (count + 2)
        # a line per reached node after the start's, and roots if backward
        assert len(text.splitlines()) == count + 1 + (result.roots is not None)
        rendered = render_trace(result, graph, "json")
        assert len(rendered) < TRACE_JSON_BYTES * (count + 2)
        entries = json.loads(rendered)["reached"]
        assert [entry["depth"] for entry in entries] == \
            list(range(1, count + 1))
        reached_by = {}
        for node, entry in zip(result.reached[1:], entries):
            edge = result.via[node]
            assert entry["via"] == {"from": labels[edge.source],
                                    "to": labels[edge.target],
                                    "kind": edge.kind.value}
            reached_by[labels[node]] = entry["via"]
        # back along via: the edge's source forward, its target backward
        hop = "from" if result is forward else "to"
        cursor, hops = labels[result.reached[-1]], 0
        while cursor != labels[result.start]:
            cursor = reached_by[cursor][hop]
            hops += 1
        assert hops == count
    return forward, backward


def test_long_effect_chain_needs_no_recursion():
    analysis = _effect_chain(1100, ring=False)
    assert len(analysis.graph.edges) == 1099
    assert propagates_cycles(analysis.graph) == []
    chain = [analysis.model.resolve_qualified(f"P::u{i}") for i in range(1100)]
    forward, backward = _trace_and_render_both_ways(
        analysis, chain[0], chain[-1])
    assert forward.reached == tuple(chain)
    assert backward.reached == tuple(reversed(chain))
    assert [e.target for e in forward.path(chain[-1])] == chain[1:]
    assert [e.source for e in backward.path(chain[0])] == \
        list(reversed(chain[:-1]))


def test_long_effect_ring_is_one_cycle():
    analysis = _effect_chain(1100, ring=True)
    ring = [analysis.model.resolve_qualified(f"P::u{i}") for i in range(1100)]
    assert propagates_cycles(analysis.graph) == [set(ring)]
    assert len(analysis.graph.edges) == len(ring)
    forward, backward = _trace_and_render_both_ways(analysis, ring[0], ring[0])
    assert forward.reached == tuple(ring)
    assert backward.reached == (ring[0],) + tuple(reversed(ring[1:]))


def test_trace_along_long_chain_holds_one_edge_per_node():
    # a witness tuple per reached node would hold n(n-1)/2 edge references
    # along an n-node chain: about 61 MiB at n = 4,000
    count = 4000
    graph = PropagationGraph(
        None, {node: {NodeRole.UNCERTAINTY} for node in range(count)},
        [PropagationEdge(node, node + 1, PropagationEdgeKind.PROPAGATES)
         for node in range(count - 1)])
    forward_trace(graph, 0)  # builds the adjacency outside the measurement
    tracemalloc.start()
    try:
        result = forward_trace(graph, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 1024 * 1024, peak
    assert result.reached == tuple(range(count))
    assert len(result.path(count - 1)) == count - 1


_NODE = st.integers(0, 6)


def _oracle_trace(graph, start, kinds, reverse):
    """(reached, paths, roots) of a trace by the walk that filtered and
    sorted the edges of every visited node, as traces did before the
    graph kept its adjacency; each path is a tuple of edges."""
    paths = {start: ()}
    frontier = [start]
    order = [start]
    while frontier:
        nxt = []
        for node in sorted(frontier):
            if not reverse and NodeRole.RISK in graph.roles.get(node, set()):
                continue  # risks are sinks
            neighbours = sorted(
                (edge for edge in graph.edges if edge.kind in kinds
                 and (edge.target if reverse else edge.source) == node),
                key=lambda e: (e.source if reverse else e.target))
            for edge in neighbours:
                peer = edge.source if reverse else edge.target
                if peer in paths:
                    continue
                paths[peer] = paths[node] + (edge,)
                order.append(peer)
                nxt.append(peer)
        frontier = nxt
    roots = None
    if reverse:
        roots = tuple(
            node for node in order
            if graph.roles.get(node, set()) & {NodeRole.SOURCE,
                                               NodeRole.SPECIFICATION})
    return tuple(order), paths, roots


def _assert_traces_match_oracle(graph):
    for start in graph.nodes():
        for kinds in (TRACE_KINDS, EFFECT_CHAIN_KINDS):
            effects_only = kinds is EFFECT_CHAIN_KINDS
            for reverse, trace in ((False, forward_trace),
                                   (True, backward_trace)):
                result = trace(graph, start, effects_only=effects_only)
                paths = {node: result.path(node) for node in result.reached}
                assert (result.reached, paths, result.roots) == \
                    _oracle_trace(graph, start, kinds, reverse)


_ROLES = st.dictionaries(_NODE, st.sets(st.sampled_from(list(NodeRole)),
                                         min_size=1))
#: (source, target, kind) -> the span offsets of its references; a node
#: without roles may still end an edge
_REFERENCES = st.dictionaries(
    st.tuples(_NODE, _NODE, st.sampled_from(list(PropagationEdgeKind))),
    st.lists(st.integers(0, 3), max_size=3), max_size=40)


@settings(max_examples=300, deadline=None)
@given(_ROLES, _REFERENCES)
def test_traces_match_filter_and_sort_oracle(roles, references):
    # parallel edges of several kinds, Groups edges, risks, self-loops and
    # cycles all come up
    source = SourceFile(path="<test>", content="abcd")
    edges = [PropagationEdge(node, peer, kind,
                             tuple(source.span(offset, offset + 1)
                                   for offset in offsets))
             for (node, peer, kind), offsets in references.items()]
    _assert_traces_match_oracle(PropagationGraph(None, roles, edges))


def test_node_labels_lengthen_on_collision_and_are_kept():
    model = analyze_text("package P { part a; part b { part a; } }").model
    a, ba = model.resolve_qualified("P::a"), model.resolve_qualified("P::b::a")
    graph = PropagationGraph(
        model, {a: {NodeRole.UNCERTAINTY}, ba: {NodeRole.UNCERTAINTY}}, [])
    labels = graph_node_labels(graph)
    assert labels == {a: "P::a", ba: "b::a"}
    assert graph_node_labels(graph) is labels


def test_empty_graph_has_no_cycles():
    analysis = analyze_text("package P { }")
    assert propagates_cycles(analysis.graph) == []


def test_topic_report_examples(acc, arrowhead):
    model = arrowhead.model
    records = {arrowhead.model.elements[r.topic].name: r
               for r in arrowhead.topics()}
    publish_topic = records["PublishTopic"]
    assert [model.elements[m].name for m in publish_topic.members] == \
        ["sendPublish", "acceptPublish", "failToAcceptPublish"]

    acc_records = acc.topics()
    assert len(acc_records) == 1
    record = acc_records[0]
    assert acc.model.elements[record.topic].name == "PerceptionSignal"
    assert [acc.model.elements[m].name for m in record.members] == \
        ["startDeciding", "failToStartDeciding"]
    assert {acc.model.elements[r].name for r in record.roots} >= {"radars"}
    assert [acc.model.elements[e].name for e in record.effects] == ["decide"]
    assert [(r.name, r.impact) for r in record.risks] == \
        [("collisionRisk", "high")]


def test_topic_with_zero_members():
    analysis = analyze_text(
        "package P { «UncertaintyTopic» item def Empty; }")
    records = analysis.topics()
    assert len(records) == 1
    assert records[0].members == ()


def test_topics_read_model_risks_once():
    # a topic whose member incurs many risks: each reached risk node finds
    # its annotations in an index, not in a scan of model.risks
    count = 50
    analysis = analyze_text(
        "package P { «UncertaintyTopic» item def T { «Uncertainty» ref ::> u; } "
        "«Uncertainty<ocr, epi, subj>» part u { "
        + " ".join(f"metadata r{i} : RiskMetadata::Risk;" for i in range(count))
        + " } }")
    analysis.graph
    iterations = []

    class CountingList(list):
        def __iter__(self):
            iterations.append(1)
            return super().__iter__()

    analysis.model.risks = CountingList(analysis.model.risks)
    [record] = analysis.topics()
    assert [risk.name for risk in record.risks] == \
        [f"r{i}" for i in range(count)]
    assert len(iterations) <= 1


def _topic_report_per_member(model, graph):
    """``topic_report`` by one full forward and one full backward trace
    from every member, as it was before its members shared their walks."""
    risks_at = {}
    for risk in model.risks:
        risks_at.setdefault(risk.element, []).append(risk)
    records = []
    for element in model.elements:
        apps = [a for a in element.annotations
                if a.stereotype == UNCERTAINTY_TOPIC]
        if not apps:
            continue
        members = dict.fromkeys(ref.target for app in apps
                                for ref in app.uncertainty_refs)
        roots, effects, risk_hits = {}, {}, {}
        for member in members:
            if not graph.has_node(member):
                continue
            roots.update(dict.fromkeys(backward_trace(graph, member).roots))
            for node in forward_trace(graph, member).reached:
                node_roles = graph.roles.get(node, set())
                if NodeRole.EFFECT in node_roles and node != member:
                    effects[node] = None
                if NodeRole.RISK in node_roles:
                    risk_hits.update(dict.fromkeys(risks_at.get(node, ())))
        records.append(TopicRecord(
            topic=element.id, members=tuple(members), roots=tuple(roots),
            effects=tuple(effects), risks=tuple(risk_hits)))
    return records


@settings(max_examples=300, deadline=None)
@given(_ROLES, _REFERENCES,
       st.lists(st.lists(st.integers(0, 7), max_size=7), max_size=3),
       st.lists(st.tuples(_NODE, _NODE), max_size=4))
@example(  # 0's walk meets the edge back to 0, so 1 must reach 0 through 2
    roles={0: {NodeRole.EFFECT}, 1: {NodeRole.UNCERTAINTY},
           2: {NodeRole.UNCERTAINTY}},
    references={(0, 2, PropagationEdgeKind.PROPAGATES): [],
                (2, 0, PropagationEdgeKind.PROPAGATES): [],
                (1, 2, PropagationEdgeKind.PROPAGATES): []},
    topics=[[0, 1]], risks=[])
def test_topic_report_matches_a_trace_per_member(roles, references, topics,
                                                 risks):
    # random graphs with cycles through members, risks and members that
    # are not nodes (7 never is); element i < len(topics) is topic i
    source = SourceFile(path="<test>", content="abcd")
    span = source.span(0, 1)
    edges = [PropagationEdge(node, peer, kind, (span,))
             for node, peer, kind in references]
    elements = [SimpleNamespace(id=eid, annotations=()) for eid in range(8)]
    for eid, members in enumerate(topics):
        elements[eid].annotations = (SimpleNamespace(
            stereotype=UNCERTAINTY_TOPIC,
            uncertainty_refs=[SimpleNamespace(target=m) for m in members]),)
    model = SimpleNamespace(elements=elements, risks=[
        RiskAnnotation(f"r{i}", element, target, None, span)
        for i, (element, target) in enumerate(risks)])
    graph = PropagationGraph(model, roles, edges)
    assert topic_report(model, graph) == _topic_report_per_member(model, graph)


def test_topic_report_over_a_member_chain_in_linear_work():
    # a topic names every node of a 2,000-node effect chain, last first:
    # one trace per member would read the adjacency of n^2 / 2 nodes
    count = 2000
    parts = ["«Uncertainty<ocr, epi, subj>» part u0 { «Effect» ref ::> u1; }"]
    parts += [f"«Effect<con>» part u{i} {{ «Effect» ref ::> u{i + 1}; }}"
              for i in range(1, count - 1)]
    parts.append(f"«Effect<con>» part u{count - 1};")
    parts.append("«UncertaintyTopic» part t { " + " ".join(
        f"«Uncertainty» ref ::> u{i};" for i in reversed(range(count))) + " }")
    analysis = analyze_text("package P {\n" + "\n".join(parts) + "\n}\n")
    analysis.graph
    chain = [rq(analysis, f"P::u{i}") for i in range(count)]
    reads = []
    adjacency = PropagationGraph.adjacency

    class CountingTable(dict):
        def get(self, node, default=None):
            reads.append(node)
            return super().get(node, default)

    def counting(graph, kinds, reverse):
        return CountingTable(adjacency(graph, kinds, reverse))

    with mock.patch.object(PropagationGraph, "adjacency", counting):
        [record] = analysis.topics()
    assert len(reads) < 10 * count
    assert record.members == tuple(reversed(chain))
    assert record.effects == tuple(reversed(chain[1:]))


def test_groups_edges_do_not_contribute_to_reachability(acc):
    topic = rq(acc, "SignalDefinition::PerceptionSignal")
    result = forward_trace(acc.graph, topic)
    assert result.reached == (topic,)


def test_derive_specs_clean_fixture_does_not_duplicate_explicit_ref(interaction):
    model = interaction.model
    delivering = rq(interaction, "Configuration::server::serverBehavior::delivering")
    assert all(s.effect != delivering for s in interaction.suggestions())


def test_derive_specs_mutant_suggests_removed_ref():
    from conftest import fixture_text
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
    suggestion = hits[0]
    assert suggestion.display(model) == \
        "Configuration::producer::publicationPort.publicationPortOperational"
    assert model.elements[suggestion.via_uncertainty].name == "publish"


def test_no_propagates_edges_no_suggestions(vfea):
    assert vfea.suggestions() == []


def test_suggestions_deduplicate_in_linear_work():
    # n uncertainties, each naming its own constraint twice, all propagate
    # to one effect: n suggestions, each compared only with its duplicate
    count = 500
    text = ("package P { «IndeterminacySource<nd>» part def S { "
            + " ".join(f"«IndeterminacySpecification» constraint C{i};"
                       for i in range(count))
            + " } «Effect<con>» part e; "
            + " ".join(f"«Uncertainty<ocr>» part u{i} {{ "
                       f"«IndeterminacySpecification» ref ::> S::C{i}; "
                       f"«IndeterminacySpecification» ref ::> S::C{i}; "
                       f"«Effect» ref ::> e; }}" for i in range(count))
            + " }")
    analysis = analyze_text(text)
    analysis.graph
    calls = []

    def counted_eq(self, other):
        calls.append(other)
        return tuple.__eq__(self, other)

    with mock.patch.object(SpecSuggestion, "__eq__", counted_eq):
        suggestions = analysis.suggestions()
    model = analysis.model
    assert [(model.elements[s.via_uncertainty].name,
             model.elements[s.specification].name) for s in suggestions] == \
        [(f"u{i}", f"C{i}") for i in range(count)]
    assert 0 < len(calls) < 2 * count


# -- oracle comparisons ---------------------------------------------------------

def brute_force_reachability(graph, kinds):
    """Transitive closure by repeated relaxation over the edge list."""
    reach = {node: {node} for node in graph.nodes()}
    changed = True
    while changed:
        changed = False
        for edge in graph.edges:
            if edge.kind not in kinds:
                continue
            if NodeRole.RISK in graph.roles.get(edge.source, set()):
                continue  # risks are sinks
            target_set = reach[edge.target]
            source_set = reach[edge.source]
            if not target_set <= source_set:
                source_set |= target_set
                changed = True
    return reach


def test_traces_match_brute_force_closure():
    for name in ALL_FIXTURES:
        analysis = analyze_fixture(name)
        graph = analysis.graph
        assert len(graph.nodes()) <= 200
        for effects_only in (False, True):
            kinds = EFFECT_CHAIN_KINDS if effects_only else TRACE_KINDS
            oracle = brute_force_reachability(graph, kinds)
            for node in graph.nodes():
                traced = forward_trace(graph, node, effects_only).reached
                assert set(traced) == oracle[node], (name, node)


def test_trace_duality():
    for name in ALL_FIXTURES:
        graph = analyze_fixture(name).graph
        nodes = graph.nodes()
        forward = {n: set(forward_trace(graph, n).reached) for n in nodes}
        backward = {n: set(backward_trace(graph, n).reached) for n in nodes}
        for x in nodes:
            for y in nodes:
                fwd = y in forward[x]
                bwd = x in backward[y]
                if NodeRole.RISK in graph.roles.get(x, set()) and x != y:
                    continue  # forward traces stop at risk sinks
                assert fwd == bwd, (name, x, y)


def test_witness_paths_are_graph_edges():
    for name in ALL_FIXTURES:
        graph = analyze_fixture(name).graph
        edge_set = {(e.source, e.target, e.kind) for e in graph.edges}
        for node in graph.nodes():
            result = forward_trace(graph, node)
            for reached in result.reached:
                cursor = node
                for edge in result.path(reached):
                    assert (edge.source, edge.target, edge.kind) in edge_set
                    assert edge.source == cursor
                    cursor = edge.target
                assert cursor == reached


def test_effect_nodes_are_also_uncertainty_nodes(interaction):
    graph = interaction.graph
    for eid, roles in graph.roles.items():
        if NodeRole.EFFECT in roles:
            assert NodeRole.UNCERTAINTY in roles
    delivering = rq(interaction,
                    "Configuration::server::serverBehavior::delivering")
    assert graph.roles[delivering] == {NodeRole.UNCERTAINTY, NodeRole.EFFECT}


def test_every_edge_has_provenance():
    for name in ALL_FIXTURES:
        graph = analyze_fixture(name).graph
        for edge in graph.edges:
            assert edge.provenance, edge


def test_repeated_reference_merges_provenance_into_one_edge():
    analysis = analyze_text(
        "package P {\n"
        "    «IndeterminacySource<nd>» part def S {\n"
        "        «IndeterminacySpecification» constraint c { true }\n"
        "    }\n"
        "    part s : S;\n"
        "    «Uncertainty<ocr, epi, subj>» part u {\n"
        "        «IndeterminacySpecification» ref ::> s.c;\n"
        "        «IndeterminacySpecification» ref ::> s.c;\n"
        "    }\n"
        "}\n")
    graph = analysis.graph
    c, u = rq(analysis, "P::S::c"), rq(analysis, "P::u")
    causes = [e for e in graph.edges
              if (e.source, e.target, e.kind)
              == (c, u, PropagationEdgeKind.CAUSES)]
    assert len(causes) == 1
    assert [span.line for span in causes[0].provenance] == [7, 8]
    assert graph.adjacency(TRACE_KINDS, False)[c] == [(u, causes[0])]
    assert graph.adjacency(TRACE_KINDS, True)[u] == [(c, causes[0])]


def test_repeated_references_build_their_edge_once(monkeypatch):
    # merging each reference into a new edge costs Θ(k²) for k references
    count = 300
    analysis = analyze_text(
        "package P {\n"
        "    «IndeterminacySource<nd>» part def S {\n"
        "        «IndeterminacySpecification» constraint c { true }\n"
        "    }\n"
        "    part s : S;\n"
        "    «Uncertainty<ocr, epi, subj>» part u {\n"
        + "        «IndeterminacySpecification» ref ::> s.c;\n" * count
        + "    }\n"
        "}\n")
    built = []
    edge_type = propagation.PropagationEdge

    def counting(*fields):
        built.append(fields)
        return edge_type(*fields)

    monkeypatch.setattr(propagation, "PropagationEdge", counting)
    graph = analysis.graph
    c, u = rq(analysis, "P::S::c"), rq(analysis, "P::u")
    causes = [e for e in graph.edges
              if (e.source, e.target, e.kind)
              == (c, u, PropagationEdgeKind.CAUSES)]
    assert [span.line for span in causes[0].provenance] == \
        list(range(7, 7 + count))
    assert len(built) == len(graph.edges)
