"""Child process of the benchmark: imports psumlint and runs the pipeline.

    python benchmarks/worker.py pipeline SPEC   one untraced pass, timed
    python benchmarks/worker.py traced SPEC     the traced run

SPEC is a JSON file written by run.py. The result is one JSON object on
stdout. Failures are reported with their traceback, never dropped.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import statistics
import sys
import time
import traceback

from psumlint import cli
from psumlint.inheritance import effective_stereotypes
from psumlint.lexer import tokenize
from psumlint.model import build_model
from psumlint.profile import DEFAULT_CATALOG, collect_risks
from psumlint.propagation import (NodeRole, backward_trace,
                                  build_propagation_graph,
                                  derive_effect_specifications, forward_trace,
                                  topic_report)
from psumlint.reporting import (model_stats, render_diagnostics, render_graph,
                                render_risks, render_stats, render_suggestions,
                                render_topics, render_trace)
from psumlint.source import SourceFile
from psumlint.syntax import parse_file
from psumlint.validator import has_errors, parse_or_resolution_errors, validate

from corpus import digests, stats_facts
from spans import MemoryTracer, NullTracer, Tracer, totals

#: layers whose tracemalloc peak is reported
MEMORY_LAYERS = frozenset({"model", "inheritance", "propagation"})
#: index of the stats JSON among the outputs of `analyse`
STATS_OUTPUT = 3


def _facts(out: list[str], exit_code: int) -> dict:
    """What the oracle compares, read back from the rendered output."""
    facts = {"exit": exit_code,
             "errors": sum(1 for d in json.loads(out[0])
                           if d["severity"] == "error"),
             "annotations": None, "inherited_sources": None}
    if len(out) > 1:
        facts["annotations"], facts["inherited_sources"] = stats_facts(
            json.loads(out[STATS_OUTPUT]))
    return facts


def analyse(paths: list[str], tracer, counts: dict | None = None
            ) -> tuple[list[str], int]:
    """Every subcommand's result over one file set, rendered once.

    Mirrors cli.run: analysis subcommands stop after `check` when parsing
    or name resolution failed.
    """
    out: list[str] = []
    call = tracer.call
    with tracer.span("step.check"):
        sources = [call("source.read", SourceFile.read, p) for p in paths]
        parsed = [(s, *call("syntax.parse_file", parse_file, s))
                  for s in sources]
        model = call("model.build", build_model, parsed)
        effective = call("inheritance.effective", effective_stereotypes, model)
        findings = call("validator.validate", validate, model,
                        DEFAULT_CATALOG, effective)
        out.append(call("reporting.render", render_diagnostics, findings,
                        "json"))
    if parse_or_resolution_errors(findings):
        return out, 2
    exit_code = 1 if has_errors(findings) else 0
    with tracer.span("step.graph"):
        graph = call("propagation.graph", build_propagation_graph, model,
                     effective)
        out.append(call("reporting.render", render_graph, graph, "json"))
        out.append(call("reporting.render", render_graph, graph, "dot"))
    with tracer.span("step.stats"):
        stats = call("reporting.stats", model_stats, model, effective, graph)
        out.append(call("reporting.render", render_stats, stats, "json"))
    with tracer.span("step.topics"):
        topics = call("propagation.topics", topic_report, model, graph)
        out.append(call("reporting.render", render_topics, topics, model,
                        "json"))
    with tracer.span("step.risks"):
        risks, _ = call("profile.risks", collect_risks, model)
        roots = {}
        for risk in risks:
            if graph.has_node(risk.target):
                roots[risk.element] = list(call(
                    "propagation.trace", backward_trace, graph,
                    risk.target).roots)
        out.append(call("reporting.render", render_risks, risks, roots,
                        model, "json"))
    with tracer.span("step.derive-specs"):
        suggestions = call("propagation.suggest", derive_effect_specifications,
                           model, effective, graph)
        out.append(call("reporting.render", render_suggestions, suggestions,
                        model, "json"))
    traces = len(roots)
    with tracer.span("step.propagate"):
        # a trace from every uncertainty and to every effect; one of each
        # direction is rendered, as one `propagate` invocation renders one
        forward = backward = None
        for eid in graph.nodes():
            roles = graph.roles[eid]
            if NodeRole.UNCERTAINTY in roles:
                result = call("propagation.trace", forward_trace, graph, eid)
                forward = forward or result
                traces += 1
            if NodeRole.EFFECT in roles:
                result = call("propagation.trace", backward_trace, graph, eid)
                backward = backward or result
                traces += 1
        for result in (forward, backward):
            if result is not None:
                out.append(call("reporting.render", render_trace, result,
                                graph, "json"))
    if counts is not None:
        apps = [a for found in effective.values() for a in found]
        counts.update({
            "model.elements": len(model.elements),
            "model.edges": len(model.edges),
            "inheritance.applications": len(apps),
            "inheritance.inherited": sum(1 for a in apps if not a.is_direct),
            "propagation.nodes": len(graph.roles),
            "propagation.edges": len(graph.edges),
            "propagation.traces": traces,
            "validator.findings": len(findings),
            "reporting.bytes": sum(len(o.encode("utf-8")) for o in out),
        })
    return out, exit_code


def pipeline(groups: list[list[str]], tracer, counts: dict | None = None
             ) -> list[tuple[list[str], int]]:
    """Every group once: its rendered outputs and its exit code."""
    results = []
    for paths in groups:
        one: dict | None = None if counts is None else {}
        results.append(analyse(paths, tracer, one))
        for key, value in (one or {}).items():
            counts[key] = counts.get(key, 0) + value
    return results


def summarise(results: list[tuple[list[str], int]]) -> dict:
    """The digests of every output, and the facts of each group."""
    content, raw = digests([text for out, _code in results for text in out])
    return {"digest": content, "bytes_digest": raw,
            "facts": [_facts(out, code) for out, code in results]}


def run_pipeline(spec: dict) -> dict:
    gc.collect()
    start = time.perf_counter()
    results = pipeline(spec["groups"], NullTracer())
    elapsed = time.perf_counter() - start
    return {"pipeline_s": elapsed, **summarise(results)}


def _cli_run(argv: list[str]) -> tuple[float, int]:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        code = cli.run(argv)
        elapsed = time.perf_counter() - start
    return elapsed, code


def run_traced(spec: dict) -> dict:
    """Memory pass and in-process CLI calls once, then rounds of a traced
    and an untraced pass (alternating which goes first) while another
    round fits in the time. Per-layer figures are medians over the rounds."""
    deadline = time.perf_counter() + spec["seconds"]
    groups = spec["groups"]
    failures: list[str] = []

    memory = MemoryTracer(MEMORY_LAYERS)
    if spec["memory"]:
        pipeline(groups, memory)

    cli_times = []
    for argv, expected in spec["cli"]:
        elapsed, code = _cli_run(argv)
        cli_times.append(elapsed)
        if code != expected:
            failures.append(f"cli.run {argv}: exit {code}, "
                            f"expected {expected}")

    tracer = Tracer()
    rounds: list[dict] = []
    passes: list[dict] = []
    round_s = 0.0
    while not rounds or time.perf_counter() + round_s <= deadline:
        round_start = time.perf_counter()
        tracer.run = len(rounds)
        # every pass starts from a collected heap, so garbage-collector
        # pauses fall in the same layers in every round
        gc.collect()
        counts = {"lexer.tokens": 0, "source.bytes": 0}
        for paths in groups:
            for path in paths:
                source = SourceFile.read(path)
                found, _ = tracer.call("lexer.tokenize", tokenize, source)
                counts["lexer.tokens"] += len(found)
                counts["source.bytes"] += len(source.content.encode("utf-8"))
        untraced_first = len(rounds) % 2 == 1
        if untraced_first:
            untraced = run_pipeline(spec)
        gc.collect()
        with tracer.span("pipeline"):
            results = pipeline(groups, tracer, counts)
        passes.append(summarise(results))
        if not untraced_first:
            untraced = run_pipeline(spec)
        passes.append(untraced)
        rounds.append({"counts": counts,
                       "untraced_s": untraced["pipeline_s"]})
        round_s = time.perf_counter() - round_start
    tracer.dump(spec["spans"])

    per_round = []
    for run, info in enumerate(rounds):
        own = totals(tracer.spans, run)

        def layer(name: str) -> float:
            return own.get(name, 0.0)

        traced_s = next(s.end - s.start for s in tracer.spans
                        if s.run == run and s.name == "pipeline")
        glue = layer("pipeline") + sum(v for k, v in own.items()
                                       if k.startswith("step."))
        values = {
            "source.read_s": layer("source.read"),
            "lexer.tokenize_s": layer("lexer.tokenize"),
            "syntax.parse_file_s": layer("syntax.parse_file"),
            "syntax.parse_only_s": layer("syntax.parse_file")
            - layer("lexer.tokenize"),
            "model.build_s": layer("model.build"),
            "inheritance.effective_s": layer("inheritance.effective"),
            "propagation.graph_s": layer("propagation.graph"),
            "propagation.trace_s": layer("propagation.trace"),
            "propagation.topics_s": layer("propagation.topics"),
            "propagation.suggest_s": layer("propagation.suggest"),
            "validator.validate_s": layer("validator.validate"),
            "profile.risks_s": layer("profile.risks"),
            "reporting.stats_s": layer("reporting.stats"),
            "reporting.render_s": layer("reporting.render"),
            "trace.pipeline_s": traced_s,
            "trace.untraced_pipeline_s": info["untraced_s"],
            "trace.overhead_s": traced_s - info["untraced_s"],
            "trace.glue_s": glue,
            "trace.spans": sum(1 for s in tracer.spans if s.run == run),
            **info["counts"],
        }
        per_round.append(values)
    metrics = {key: statistics.median(r[key] for r in per_round)
               for key in per_round[0]}
    for layer_name, peak in memory.peaks.items():
        metrics[f"{layer_name}.peak_mb"] = peak
    if cli_times:
        metrics["cli.run_s"] = statistics.median(cli_times)
    metrics["trace.rounds"] = len(rounds)
    return {"metrics": metrics, "failures": failures,
            "passes": [{k: p[k] for k in ("digest", "bytes_digest", "facts")}
                       for p in passes]}


def main(argv: list[str]) -> int:
    mode, spec_path = argv
    with open(spec_path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    try:
        result = run_pipeline(spec) if mode == "pipeline" else run_traced(spec)
    except Exception:  # reported to the harness, which counts the failure
        result = {"error": traceback.format_exc()}
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
