"""High-level pipeline: parse files, build the model, run every analysis.

The Analysis object memoizes each stage so the CLI and tests can share one
pass over the input.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional

from .diagnostics import Diagnostic
from .inheritance import EffectiveMap, effective_stereotypes
from .model import Model, build_model
from .profile import DEFAULT_CATALOG, ProfileCatalog, RiskAnnotation
from .propagation import (PropagationGraph, SpecSuggestion, TopicRecord,
                          backward_trace, build_propagation_graph,
                          derive_effect_specifications, topic_report)
from .reporting import model_stats
from .source import SourceFile
from .syntax import parse_file
from .validator import validate


class Analysis:
    def __init__(self, model: Model, catalog: ProfileCatalog) -> None:
        self.model = model
        self.catalog = catalog

    @cached_property
    def effective(self) -> EffectiveMap:
        return effective_stereotypes(self.model)

    @cached_property
    def graph(self) -> PropagationGraph:
        return build_propagation_graph(self.model, self.effective)

    @cached_property
    def findings(self) -> list[Diagnostic]:
        return validate(self.model, self.catalog, self.effective)

    def stats(self) -> dict:
        return model_stats(self.model, self.effective)

    def topics(self) -> list[TopicRecord]:
        return topic_report(self.model, self.graph)

    def risks(self) -> list[RiskAnnotation]:
        return self.model.risks

    def risk_roots(self) -> dict[int, list[int]]:
        """Each risk's metadata element -> the roots of a backward trace from
        the element the risk annotates, traced once per distinct target; a
        risk whose target is no graph node has no entry."""
        graph, risks = self.graph, self.risks()
        traced = {target: list(backward_trace(graph, target).roots)
                  for target in dict.fromkeys(risk.target for risk in risks)
                  if graph.has_node(target)}
        return {risk.element: traced[risk.target] for risk in risks
                if risk.target in traced}

    def suggestions(self) -> list[SpecSuggestion]:
        return derive_effect_specifications(self.model, self.effective, self.graph)


def analyze_sources(sources: list[SourceFile],
                    catalog: Optional[ProfileCatalog] = None) -> Analysis:
    catalog = catalog or DEFAULT_CATALOG
    # a generator: each tree is interned, then freed, before the next parse
    parsed = ((source, *parse_file(source)) for source in sources)
    model = build_model(parsed, catalog=catalog)
    return Analysis(model=model, catalog=catalog)


def analyze_files(paths: list[str],
                  catalog: Optional[ProfileCatalog] = None) -> Analysis:
    return analyze_sources([SourceFile.read(path) for path in paths], catalog)


def analyze_text(content: str, path: str = "<memory>",
                 catalog: Optional[ProfileCatalog] = None) -> Analysis:
    return analyze_sources([SourceFile(path=path, content=content)], catalog)
