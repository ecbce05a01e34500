"""Model statistics and output rendering (text, JSON, DOT).

Counting conventions: element counts follow keyword occurrence (one count
per declared element, keyed by its declaration keyword); lines-of-model is
the number of non-blank lines including comments; stereotype counts report
direct applications, with purely-inherited elements tallied separately;
reference attachments (stereotyped ``ref`` usages) are counted as
references, never as new introductions.
"""

from __future__ import annotations

from collections.abc import Iterable
from json.encoder import encode_basestring_ascii as _quote
from types import GeneratorType

from .diagnostics import Diagnostic
from .inheritance import EffectiveMap
from .model import Model
from .profile import (DEFAULT_CATALOG, EFFECT, INDETERMINACY_SOURCE,
                      INDETERMINACY_SPECIFICATION, UNCERTAINTY,
                      UNCERTAINTY_TOPIC, RiskAnnotation)
from .propagation import (NodeRole, PropagationEdgeKind, PropagationGraph,
                          SpecSuggestion, TopicRecord, TraceResult)

#: the profile's stereotypes in the bundled catalog's order
_STEREOTYPE_RANK = {name: index for index, name
                    in enumerate(DEFAULT_CATALOG.stereotypes)}


def count_lom(text: str) -> int:
    return sum(1 for line in text.splitlines() if line.strip())


def element_line_extent(element) -> int:
    """Whole annotated element's line extent, annotation included."""
    span = element.span
    last = max(span.start, span.end - 1)
    end_line, _ = span.file.line_col(last)
    return end_line - span.line + 1


def model_stats(model: Model, effective: EffectiveMap,
                graph: PropagationGraph | None = None) -> dict:
    """The payload of ``docs/schemas/stats.schema.json``, in one pass over
    the model; ``graph`` is accepted for old callers, unread. Each
    application counts toward declarations, each element once per cell."""
    lom = {source.path: count_lom(source.content) for source in model.files}
    element_counts: dict[str, int] = {}
    counts: dict[str, dict[str, dict[str, int]]] = {}
    refs = {UNCERTAINTY: 0, INDETERMINACY_SPECIFICATION: 0, EFFECT: 0}
    declared = {INDETERMINACY_SPECIFICATION: 0, EFFECT: 0}
    natures: dict[str, int] = {}
    topics: list[dict] = []
    for element in model.elements:
        if element.is_prelude:
            continue
        kind = element.kind.value
        element_counts[kind] = element_counts.get(kind, 0) + 1
        direct = set()
        topic_members = []
        for app in element.annotations:
            direct.add(app.stereotype)
            refs[INDETERMINACY_SPECIFICATION] += len(app.spec_refs)
            refs[EFFECT] += len(app.effect_refs)
            refs[UNCERTAINTY] += len(app.uncertainty_refs)
            if app.stereotype in declared:
                declared[app.stereotype] += 1
            elif app.stereotype == INDETERMINACY_SOURCE and app.nature:
                natures[app.nature] = natures.get(app.nature, 0) + 1
            elif app.stereotype == UNCERTAINTY_TOPIC:
                topic_members.append(len(app.uncertainty_refs))
        if topic_members:
            topics.append({"topic": element.display_name(),
                           "members": sum(topic_members)})
        if element.is_reference_carrier:
            continue  # a carrier adds refs to its owner, never a cell
        for stereotype in _in_stereotype_order(direct):
            cell = _cell(counts, stereotype, kind)
            cell["direct"] += 1
            cell["element_lom"] += element_line_extent(element)
        for stereotype in _in_stereotype_order(
                effective.kinds(element.id) - direct):
            _cell(counts, stereotype, kind)["inherited"] += 1

    risk_counts = dict.fromkeys(model.risk_levels, 0)
    for risk in model.risks:
        if risk.impact in risk_counts:
            risk_counts[risk.impact] += 1
    return {
        "lom": {"files": lom, "total": sum(lom.values())},
        "element_counts": element_counts,
        "stereotype_counts": counts,
        "reference_counts": refs,
        "nature_breakdown": natures,
        "specification_declarations": declared[INDETERMINACY_SPECIFICATION],
        "specification_refs": refs[INDETERMINACY_SPECIFICATION],
        "effect_declarations": declared[EFFECT],
        "effect_refs": refs[EFFECT],
        "topic_count": len(topics),
        "topics": topics,
        "risk_counts": risk_counts,
    }


def _cell(counts: dict, stereotype: str, kind: str) -> dict[str, int]:
    return counts.setdefault(stereotype, {}).setdefault(
        kind, {"direct": 0, "inherited": 0, "element_lom": 0})


def _in_stereotype_order(kinds: Iterable[str]) -> list[str]:
    """Profile order first, then any catalog-defined extras by name."""
    last = len(_STEREOTYPE_RANK)
    return sorted(kinds, key=lambda name: (_STEREOTYPE_RANK.get(name, last), name))


# -- rendering -------------------------------------------------------------------

class RenderError(ValueError):
    """Unsupported (payload, format) pair."""


def render_json(payload: dict | list) -> str:
    """``json.dumps(payload, indent=2) + "\\n"``, byte for byte, where a
    generator is written as the list it yields.

    With an indent, ``json.dumps`` runs the pure-Python encoder, which
    holds every token of the document in one list before it joins them.
    Here each dict and list is one string joined from its children's, so
    the peak is about twice the output, plus the payload. A generator's
    items are made as they are written and freed once they are.
    """
    return _json(payload, "\n") + "\n"


def _json(value, newline: str) -> str:
    """``value`` as JSON, each nested line starting ``newline`` + 2 spaces."""
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        return _NON_FINITE.get(text, text)
    inner = newline + "  "
    if isinstance(value, (list, tuple, GeneratorType)):
        # a generator is an array whose items are made as they are written
        items = [_json(item, inner) for item in value]
        if not items:
            return "[]"
        return f"[{inner}{(',' + inner).join(items)}{newline}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = ("," + inner).join([f"{_key(key)}: {_json(item, inner)}"
                                    for key, item in value.items()])
        return f"{{{inner}{items}{newline}}}"
    raise TypeError(f"Object of type {value.__class__.__name__} "
                    f"is not JSON serializable")


#: how JSON writes the floats whose ``repr`` is not a JSON number
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _key(key) -> str:
    if isinstance(key, str):
        return _quote(key)
    if key is None or isinstance(key, (int, float)):  # bool is an int
        return f'"{_json(key, "")}"'
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


def render_diagnostics(diags: list[Diagnostic], fmt: str,
                       color: bool = False) -> str:
    if fmt == "json":
        return render_json([d.to_dict() for d in diags])
    if fmt == "text":
        lines = []
        for diag in diags:
            text = diag.render_text()
            if color:
                # the severity word follows the location, which may hold it too
                severity = diag.severity.value
                tint = "31" if severity == "error" else "33"
                head = f"{diag.span.location()}: "
                text = (f"{head}\x1b[{tint}m{severity}\x1b[0m"
                        + text[len(head) + len(severity):])
            lines.append(text)
        return "\n".join(lines) + ("\n" if lines else "")
    raise RenderError(f"diagnostics cannot be rendered as {fmt!r}")


def _table(rows: list[tuple[str, ...]], indent: str = "  ") -> str:
    if not rows:
        return ""
    widths = [max(len(row[col]) for row in rows) for col in range(len(rows[0]))]
    lines = []
    for row in rows:
        cells = [cell.ljust(widths[i]) for i, cell in enumerate(row)]
        lines.append(indent + "  ".join(cells).rstrip())
    return "\n".join(lines)


def render_stats(report: dict, fmt: str) -> str:
    if fmt == "json":
        return render_json(report)
    if fmt != "text":
        raise RenderError(f"stats cannot be rendered as {fmt!r}")
    sections = []
    rows = [(path, str(n)) for path, n in sorted(report["lom"]["files"].items())]
    rows.append(("total", str(report["lom"]["total"])))
    sections.append("Lines of model\n" + _table(rows))
    rows = [(kind, str(n)) for kind, n in sorted(report["element_counts"].items())]
    sections.append("Element counts\n" + _table(rows))
    rows = []
    counts = report["stereotype_counts"]
    for stereotype in _in_stereotype_order(counts):
        for kind, cell in sorted(counts[stereotype].items()):
            rows.append((stereotype, kind,
                         f"{cell['direct']} ({cell['element_lom']})",
                         f"{cell['inherited']} inherited"))
    sections.append("Stereotype applications, direct (element lines)\n"
                    + _table(rows))
    rows = [(name, str(count)) for name, count in
            sorted(report["nature_breakdown"].items())]
    if rows:
        sections.append("Indeterminacy natures\n" + _table(rows))
    rows = [
        ("specifications declared", str(report["specification_declarations"])),
        ("specification refs", str(report["specification_refs"])),
        ("effects declared", str(report["effect_declarations"])),
        ("effect refs", str(report["effect_refs"])),
        ("uncertainty refs", str(report["reference_counts"][UNCERTAINTY])),
        ("topics", str(report["topic_count"])),
    ]
    sections.append("References\n" + _table(rows))
    rows = [(level, str(n)) for level, n in report["risk_counts"].items()]
    sections.append("Risks by impact\n" + _table(rows))
    return "\n\n".join(sections) + "\n"


_ROLE_PRIORITY = (NodeRole.RISK, NodeRole.TOPIC, NodeRole.SOURCE,
                  NodeRole.SPECIFICATION, NodeRole.EFFECT, NodeRole.UNCERTAINTY)
_ROLE_SHAPE = {
    NodeRole.RISK: "diamond", NodeRole.TOPIC: "tab", NodeRole.SOURCE: "box",
    NodeRole.SPECIFICATION: "note", NodeRole.EFFECT: "doubleoctagon",
    NodeRole.UNCERTAINTY: "ellipse",
}
_EDGE_STYLE = {
    PropagationEdgeKind.SPECIFIES: "dashed",
    PropagationEdgeKind.CAUSES: "solid",
    PropagationEdgeKind.PROPAGATES: "bold",
    PropagationEdgeKind.INCURS: "dotted",
    PropagationEdgeKind.GROUPS: "dashed",
}


def graph_node_labels(graph: PropagationGraph) -> dict[int, str]:
    """Short unique labels: the last segment of each qualified name, one
    segment longer on each collision.

    A label is what the qualified name holds after the qualified name of
    an ancestor and its ``::``, so it is cut only between segments. The
    labels are computed once per graph and kept.
    """
    if graph._labels is None:
        graph._labels = _node_labels(graph)
    return graph._labels


def _node_labels(graph: PropagationGraph) -> dict[int, str]:
    elements = graph.model.elements
    #: node -> the ancestor whose qualified name its label leaves out
    cut = {eid: elements[eid].owner if elements[eid].qualified_name else None
           for eid in graph.nodes()}

    def label(eid: int) -> str:
        element = elements[eid]
        if element.qualified_name is None:
            return element.name or f"n{eid}"
        if cut[eid] is None:
            return element.qualified_name
        return element.qualified_name[len(elements[cut[eid]].qualified_name) + 2:]

    labels = {eid: label(eid) for eid in cut}
    while True:
        by_label: dict[str, list[int]] = {}
        for eid, text in labels.items():
            by_label.setdefault(text, []).append(eid)
        collisions = {text: ids for text, ids in by_label.items()
                      if len(ids) > 1}
        if not collisions:
            return labels
        progressed = False
        for ids in collisions.values():
            for eid in ids:
                if cut[eid] is not None:
                    cut[eid] = elements[cut[eid]].owner
                    labels[eid] = label(eid)
                    progressed = True
        if not progressed:
            for ids in collisions.values():
                for eid in ids:
                    labels[eid] = f"{labels[eid]}#{eid}"
            return labels


#: DOT keywords, which are case-independent and cannot be bare IDs
_DOT_KEYWORDS = {"node", "edge", "graph", "digraph", "subgraph", "strict"}


def _dot_id(label: str) -> str:
    if (label.replace("_", "a").isalnum() and not label[0].isdigit()
            and label.lower() not in _DOT_KEYWORDS):
        return label
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def render_graph(graph: PropagationGraph, fmt: str) -> str:
    labels = graph_node_labels(graph)
    if fmt == "json":
        model = graph.model
        nodes = ({
            "id": eid,
            "name": labels[eid],
            "qualified_name": model.elements[eid].qualified_name,
            "roles": sorted(role.value for role in graph.roles[eid]),
        } for eid in graph.nodes())
        edges = ({
            "from": labels[edge.source],
            "to": labels[edge.target],
            "kind": edge.kind.value,
        } for edge in graph.edges)
        return render_json({"nodes": nodes, "edges": edges})
    if fmt != "dot":
        raise RenderError(f"graphs cannot be rendered as {fmt!r}")
    lines = ["digraph propagation {", "  rankdir=LR;"]
    for eid in graph.nodes():
        roles = graph.roles[eid]
        shape = "ellipse"
        for role in _ROLE_PRIORITY:
            if role in roles:
                shape = _ROLE_SHAPE[role]
                break
        lines.append(f"  {_dot_id(labels[eid])} [shape={shape}];")
    for edge in graph.edges:
        style = _EDGE_STYLE[edge.kind]
        lines.append(
            f"  {_dot_id(labels[edge.source])} -> {_dot_id(labels[edge.target])} "
            f"[style={style}, label=\"{edge.kind.value}\"];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def render_topics(records: list[TopicRecord], model: Model, fmt: str) -> str:
    payload = [{
        "topic": model.elements[record.topic].display_name(),
        "members": [model.elements[m].display_name() for m in record.members],
        "roots": [model.elements[r].display_name() for r in record.roots],
        "effects": [model.elements[e].display_name() for e in record.effects],
        "risks": [{"name": risk.name, "impact": risk.impact}
                  for risk in record.risks],
    } for record in records]
    if fmt == "json":
        return render_json(payload)
    if fmt != "text":
        raise RenderError(f"topic report cannot be rendered as {fmt!r}")
    lines = []
    for entry in payload:
        lines.append(entry["topic"])
        lines.append("  members: " + (", ".join(entry["members"]) or "(none)"))
        lines.append("  roots:   " + (", ".join(entry["roots"]) or "(none)"))
        lines.append("  effects: " + (", ".join(entry["effects"]) or "(none)"))
        risks = ", ".join(f"{r['name']} ({r['impact']})" for r in entry["risks"])
        lines.append("  risks:   " + (risks or "(none)"))
    return "\n".join(lines) + ("\n" if lines else "")


def render_risks(risks: list[RiskAnnotation], roots: dict[int, list[int]],
                 model: Model, fmt: str) -> str:
    payload = [{
        "name": risk.name,
        "impact": risk.impact,
        "target": model.elements[risk.target].display_name(),
        "roots": [model.elements[r].display_name()
                  for r in roots.get(risk.element, [])],
    } for risk in risks]
    if fmt == "json":
        return render_json(payload)
    if fmt != "text":
        raise RenderError(f"risk report cannot be rendered as {fmt!r}")
    lines = []
    for entry in payload:
        lines.append(f"{entry['name']} impact={entry['impact']} "
                     f"on {entry['target']}")
        for root in entry["roots"]:
            lines.append(f"  root: {root}")
    return "\n".join(lines) + ("\n" if lines else "")


def render_suggestions(suggestions: list[SpecSuggestion], model: Model,
                       fmt: str) -> str:
    payload = [{
        "effect": model.elements[s.effect].display_name(),
        "specification": s.display(model),
        "via_uncertainty": model.elements[s.via_uncertainty].display_name(),
    } for s in suggestions]
    if fmt == "json":
        return render_json(payload)
    if fmt != "text":
        raise RenderError(f"suggestions cannot be rendered as {fmt!r}")
    lines = [f"{entry['effect']} could declare {entry['specification']} "
             f"(via {entry['via_uncertainty']})" for entry in payload]
    return "\n".join(lines) + ("\n" if lines else "")


def render_trace(result: TraceResult, graph: PropagationGraph,
                 fmt: str) -> str:
    """A trace, linear in what it reaches: each reached node with the edge
    by which the walk first reached it (its ``via``), never its whole path;
    a reader follows ``via`` back to the start."""
    model = graph.model
    labels = graph_node_labels(graph)
    start = result.start
    reached = result.reached[1:]
    if fmt == "dot":
        # a reached node's path ends in its ``via`` edge, after the paths
        # of the nodes reached before it; so each path edge, once, in order
        lines = ["digraph trace {", "  rankdir=LR;"]
        for node in reached:
            edge = result.via[node]
            lines.append(
                f"  {_dot_id(labels[edge.source])} -> "
                f"{_dot_id(labels[edge.target])} "
                f"[style={_EDGE_STYLE[edge.kind]}, "
                f"label=\"{edge.kind.value}\"];")
        lines.append("}")
        return "\n".join(lines) + "\n"
    if fmt == "text":
        lines = [f"from {model.elements[start].display_name()}:"]
        for node in reached:
            edge = result.via[node]
            # forward, a node is its via edge's target; backward, its source
            if edge.target == node:
                peer = f"from {labels[edge.source]}"
            else:
                peer = f"to {labels[edge.target]}"
            lines.append(f"  {model.elements[node].display_name()}  "
                         f"({edge.kind.value} {peer})")
        if result.roots is not None:
            lines.append("roots: " + (", ".join(
                model.elements[r].display_name() for r in result.roots)
                or "(none)"))
        return "\n".join(lines) + "\n"
    if fmt != "json":
        raise RenderError(f"traces cannot be rendered as {fmt!r}")
    # the walk reaches a node after the node it was reached from
    depth = {start: 0}
    entries = []
    for node in reached:
        edge = result.via[node]
        depth[node] = 1 + depth[
            edge.source if edge.target == node else edge.target]
        entries.append({
            "element": model.elements[node].display_name(),
            "depth": depth[node],
            "via": {"from": labels[edge.source], "to": labels[edge.target],
                    "kind": edge.kind.value},
        })
    payload = {"start": model.elements[start].display_name(),
               "reached": entries}
    if result.roots is not None:
        payload["roots"] = [model.elements[r].display_name()
                            for r in result.roots]
    return render_json(payload)
