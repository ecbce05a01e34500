"""Model statistics and output rendering (text, JSON, DOT).

Counting conventions: element counts follow keyword occurrence (one count
per declared element, keyed by its declaration keyword); lines-of-model is
the number of non-blank lines including comments; stereotype counts report
direct applications, with purely-inherited elements tallied separately;
reference attachments (stereotyped ``ref`` usages) are counted as
references, never as new introductions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from .diagnostics import Diagnostic
from .inheritance import EffectiveMap
from .model import Model
from .profile import (BELIEF_STATEMENT, EFFECT, INDETERMINACY_SOURCE,
                      INDETERMINACY_SPECIFICATION, UNCERTAINTY,
                      UNCERTAINTY_TOPIC, RiskAnnotation)
from .propagation import (NodeRole, PropagationEdgeKind, PropagationGraph,
                          SpecSuggestion, TopicRecord, TraceResult)

STEREOTYPE_ORDER = (BELIEF_STATEMENT, INDETERMINACY_SOURCE,
                    INDETERMINACY_SPECIFICATION, UNCERTAINTY,
                    UNCERTAINTY_TOPIC, EFFECT)
_STEREOTYPE_RANK = {name: index for index, name in enumerate(STEREOTYPE_ORDER)}


@dataclass
class StatsReport:
    lom_files: dict[str, int] = field(default_factory=dict)
    lom_total: int = 0
    element_counts: dict[str, int] = field(default_factory=dict)
    stereotype_counts: dict[str, dict[str, dict[str, int]]] = field(default_factory=dict)
    reference_counts: dict[str, int] = field(default_factory=dict)
    nature_breakdown: dict[str, int] = field(default_factory=dict)
    specification_declarations: int = 0
    specification_refs: int = 0
    effect_declarations: int = 0
    effect_refs: int = 0
    topic_count: int = 0
    topics: list[dict] = field(default_factory=list)
    risk_counts: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "lom": {"files": dict(self.lom_files), "total": self.lom_total},
            "element_counts": dict(self.element_counts),
            "stereotype_counts": self.stereotype_counts,
            "reference_counts": dict(self.reference_counts),
            "nature_breakdown": dict(self.nature_breakdown),
            "specification_declarations": self.specification_declarations,
            "specification_refs": self.specification_refs,
            "effect_declarations": self.effect_declarations,
            "effect_refs": self.effect_refs,
            "topic_count": self.topic_count,
            "topics": list(self.topics),
            "risk_counts": dict(self.risk_counts),
        }


def count_lom(text: str) -> int:
    return sum(1 for line in text.splitlines() if line.strip())


def element_line_extent(element) -> int:
    """Whole annotated element's line extent, annotation included."""
    span = element.span
    last = max(span.start, span.end - 1)
    end_line, _ = span.file.line_col(last)
    return end_line - span.line + 1


def model_stats(model: Model, effective: EffectiveMap,
                graph: PropagationGraph | None = None) -> StatsReport:
    """Counts over the model; ``graph`` is accepted for old callers, unread."""
    report = StatsReport()
    for source in model.files:
        report.lom_files[source.path] = count_lom(source.content)
    report.lom_total = sum(report.lom_files.values())

    for element in model.elements:
        if element.is_prelude:
            continue
        key = element.kind.value
        report.element_counts[key] = report.element_counts.get(key, 0) + 1

    counts: dict[str, dict[str, dict[str, int]]] = {}
    for element in model.elements:
        if element.is_prelude or element.is_reference_carrier:
            continue
        direct_kinds = {a.stereotype for a in element.annotations}
        inherited_kinds = effective.kinds(element.id) - direct_kinds
        for stereotype in _in_stereotype_order(direct_kinds):
            cell = counts.setdefault(stereotype, {}).setdefault(
                element.kind.value,
                {"direct": 0, "inherited": 0, "element_lom": 0})
            cell["direct"] += 1
            cell["element_lom"] += element_line_extent(element)
        for stereotype in _in_stereotype_order(inherited_kinds):
            cell = counts.setdefault(stereotype, {}).setdefault(
                element.kind.value,
                {"direct": 0, "inherited": 0, "element_lom": 0})
            cell["inherited"] += 1
    report.stereotype_counts = counts

    ref_counts = {UNCERTAINTY: 0, INDETERMINACY_SPECIFICATION: 0, EFFECT: 0}
    for element in model.elements:
        for app in element.annotations:
            ref_counts[INDETERMINACY_SPECIFICATION] += len(app.spec_refs)
            ref_counts[EFFECT] += len(app.effect_refs)
            ref_counts[UNCERTAINTY] += len(app.uncertainty_refs)
            if app.stereotype == INDETERMINACY_SOURCE and app.nature:
                report.nature_breakdown[app.nature] = \
                    report.nature_breakdown.get(app.nature, 0) + 1
    report.reference_counts = ref_counts
    report.specification_refs = ref_counts[INDETERMINACY_SPECIFICATION]
    report.effect_refs = ref_counts[EFFECT]

    report.specification_declarations = _direct_count(model, INDETERMINACY_SPECIFICATION)
    report.effect_declarations = _direct_count(model, EFFECT)

    topic_names: list[dict] = []
    for element in model.elements:
        members = 0
        is_topic = False
        for app in element.annotations:
            if app.stereotype == UNCERTAINTY_TOPIC:
                is_topic = True
                members += len(app.uncertainty_refs)
        if is_topic:
            topic_names.append({"topic": element.display_name(),
                                "members": members})
    report.topics = topic_names
    report.topic_count = len(topic_names)

    levels = dict.fromkeys(model.risk_levels, 0)
    for risk in model.risks:
        if risk.impact in levels:
            levels[risk.impact] += 1
    report.risk_counts = levels
    return report


def _in_stereotype_order(kinds: set[str]) -> list[str]:
    """Profile order first, then any catalog-defined extras by name."""
    last = len(_STEREOTYPE_RANK)
    return sorted(kinds, key=lambda name: (_STEREOTYPE_RANK.get(name, last), name))


def _direct_count(model: Model, stereotype: str) -> int:
    total = 0
    for element in model.elements:
        if element.is_reference_carrier:
            continue
        total += sum(1 for app in element.annotations
                     if app.stereotype == stereotype)
    return total


# -- rendering -------------------------------------------------------------------

class RenderError(ValueError):
    """Unsupported (payload, format) pair."""


def render_json(payload: dict | list) -> str:
    return json.dumps(payload, indent=2) + "\n"


def render_diagnostics(diags: list[Diagnostic], fmt: str,
                       color: bool = False) -> str:
    if fmt == "json":
        return render_json([d.to_dict() for d in diags])
    if fmt == "text":
        lines = []
        for diag in diags:
            text = diag.render_text()
            if color:
                tint = "31" if diag.severity.value == "error" else "33"
                text = text.replace(diag.severity.value,
                                    f"\x1b[{tint}m{diag.severity.value}\x1b[0m", 1)
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


def render_stats(report: StatsReport, fmt: str) -> str:
    if fmt == "json":
        return render_json(report.to_dict())
    if fmt != "text":
        raise RenderError(f"stats cannot be rendered as {fmt!r}")
    sections = []
    rows = [(path, str(n)) for path, n in sorted(report.lom_files.items())]
    rows.append(("total", str(report.lom_total)))
    sections.append("Lines of model\n" + _table(rows))
    rows = [(kind, str(n)) for kind, n in sorted(report.element_counts.items())]
    sections.append("Element counts\n" + _table(rows))
    rows = []
    for stereotype in STEREOTYPE_ORDER:
        for kind, cell in sorted(report.stereotype_counts.get(stereotype, {}).items()):
            rows.append((stereotype, kind,
                         f"{cell['direct']} ({cell['element_lom']})",
                         f"{cell['inherited']} inherited"))
    sections.append("Stereotype applications, direct (element lines)\n"
                    + _table(rows))
    rows = [(name, str(count)) for name, count in
            sorted(report.nature_breakdown.items())]
    if rows:
        sections.append("Indeterminacy natures\n" + _table(rows))
    rows = [
        ("specifications declared", str(report.specification_declarations)),
        ("specification refs", str(report.specification_refs)),
        ("effects declared", str(report.effect_declarations)),
        ("effect refs", str(report.effect_refs)),
        ("uncertainty refs", str(report.reference_counts.get(UNCERTAINTY, 0))),
        ("topics", str(report.topic_count)),
    ]
    sections.append("References\n" + _table(rows))
    rows = [(level, str(n)) for level, n in report.risk_counts.items()]
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
    an ancestor and its ``::``, so it is cut only between segments.
    """
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


def _dot_id(label: str) -> str:
    if label.replace("_", "a").isalnum() and not label[0].isdigit():
        return label
    return '"' + label.replace('"', '\\"') + '"'


def render_graph(graph: PropagationGraph, fmt: str) -> str:
    labels = graph_node_labels(graph)
    if fmt == "json":
        model = graph.model
        nodes = [{
            "id": eid,
            "name": labels[eid],
            "qualified_name": model.elements[eid].qualified_name,
            "roles": sorted(role.value for role in graph.roles[eid]),
        } for eid in graph.nodes()]
        edges = [{
            "from": labels[edge.source],
            "to": labels[edge.target],
            "kind": edge.kind.value,
        } for edge in graph.edges]
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


def render_derived(report, model: Model, fmt: str) -> str:
    def entry_dict(entry):
        return {
            "element": model.elements[entry.element].display_name(),
            "stereotype": entry.stereotype,
            "origin": model.elements[entry.origin].display_name(),
            "path": [{"edge": kind.value,
                      "through": model.elements[via].display_name()}
                     for kind, via in entry.provenance.path],
        }
    if fmt == "json":
        return render_json({
            "derived_uncertain": [entry_dict(e) for e in report.uncertain],
            "derived_sources": [entry_dict(e) for e in report.sources],
        })
    if fmt != "text":
        raise RenderError(f"derived report cannot be rendered as {fmt!r}")
    lines = ["Derived uncertain elements:"]
    for entry in report.uncertain:
        lines.append(f"  {model.elements[entry.element].display_name()} "
                     f"<- {entry.stereotype} from "
                     f"{model.elements[entry.origin].display_name()}")
    lines.append("Derived indeterminacy sources:")
    for entry in report.sources:
        lines.append(f"  {model.elements[entry.element].display_name()} "
                     f"<- {entry.stereotype} from "
                     f"{model.elements[entry.origin].display_name()}")
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
    model = graph.model
    labels = graph_node_labels(graph)
    start = result.start
    reached = [n for n in result.reached if n != start]
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

    def describe(node: int) -> dict:
        path = result.path(node)
        hops = [start]
        for edge in path:
            hops.append(edge.target if edge.source == hops[-1] else edge.source)
        return {
            "element": model.elements[node].display_name(),
            "hops": [labels[n] for n in hops],
            "path": [{"from": labels[e.source], "to": labels[e.target],
                      "kind": e.kind.value} for e in path],
        }

    payload = {
        "start": model.elements[start].display_name(),
        "reached": [describe(node) for node in reached],
    }
    if result.roots is not None:
        payload["roots"] = [model.elements[r].display_name()
                            for r in result.roots]
    if fmt == "json":
        return render_json(payload)
    if fmt != "text":
        raise RenderError(f"traces cannot be rendered as {fmt!r}")
    lines = [f"from {payload['start']}:"]
    for entry in payload["reached"]:
        lines.append(f"  {entry['element']}  ({' -> '.join(entry['hops'])})")
    if "roots" in payload:
        lines.append("roots: " + (", ".join(payload["roots"]) or "(none)"))
    return "\n".join(lines) + "\n"

