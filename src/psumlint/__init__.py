"""psumlint: parser, validator and uncertainty-propagation analyzer for
SysML v2 textual models carrying an uncertainty profile."""

from .api import Analysis, analyze_files, analyze_sources, analyze_text
from .diagnostics import Diagnostic, RULE_CATALOG, Severity
from .model import (EdgeKind, Element, ElementKind, MetaclassCategory, Model,
                    SpecializationEdge, build_model)
from .profile import (DEFAULT_CATALOG, Interval, MeasuredExpression,
                      MeasurementError, ProfileCatalog, RiskAnnotation,
                      StereotypeApplication, UncertaintyCharacterization,
                      apply_measurement_error, check_applicability,
                      collect_risks, interpret_annotation, load_catalog)
from .propagation import (PropagationGraph, TraceStartError, backward_trace,
                          build_propagation_graph, derive_effect_specifications,
                          forward_trace, topic_report)
from .inheritance import effective_stereotypes
from .reporting import model_stats
from .source import SourceFile, Span
from .syntax import parse_file
from .validator import validate

__version__ = "0.1.0"
