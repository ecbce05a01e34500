"""Command-line front end.

Exit codes: 0 success with no error findings, 1 validation errors present,
2 parse or resolution failure, 3 usage error (unknown flag, missing or
unreadable file, bad qualified name).
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from typing import Optional

from . import reporting
from .api import Analysis, analyze_sources
from .diagnostics import Severity
from .profile import ProfileCatalog, load_catalog
from .propagation import TraceStartError, backward_trace, forward_trace
from .source import SourceFile
from .validator import has_errors, parse_or_resolution_errors

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_PARSE = 2
EXIT_USAGE = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_argparser() -> _Parser:
    parser = _Parser(prog="psumlint",
                     description="Validate and analyze uncertainty-annotated "
                                 "SysML v2 textual models.")
    parser.add_argument("--profile-catalog", metavar="PATH",
                        help="override the bundled profile catalog JSON")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress summary lines")
    parser.add_argument("--no-color", action="store_true",
                        help="disable ANSI colors (also: PSUMLINT_NO_COLOR)")
    sub = parser.add_subparsers(dest="command", metavar="command")

    def add(name: str, help_text: str, formats: tuple[str, ...],
            default_format: str) -> argparse.ArgumentParser:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("files", nargs="+", metavar="file")
        cmd.add_argument("--format", choices=formats, default=default_format)
        return cmd

    check = add("check", "run the validator", ("text", "json"), "text")
    check.add_argument("--warnings-as-errors", action="store_true")
    add("stats", "model statistics", ("text", "json"), "text")
    propagate = add("propagate", "forward/backward uncertainty trace",
                    ("text", "json", "dot"), "text")
    propagate.add_argument("--from", dest="from_name", metavar="QUALIFIED-NAME")
    propagate.add_argument("--to", dest="to_name", metavar="QUALIFIED-NAME")
    propagate.add_argument("--effects-only", action="store_true")
    add("topics", "uncertainty topic report", ("text", "json"), "text")
    add("risks", "risk annotations with root traces", ("text", "json"), "text")
    add("graph", "full propagation graph", ("dot", "json"), "dot")
    add("derive-specs", "suggest specifications effects would inherit",
        ("text", "json"), "text")
    return parser


def _load(args) -> tuple[Optional[Analysis], int]:
    catalog: Optional[ProfileCatalog] = None
    if args.profile_catalog:
        try:
            catalog = load_catalog(args.profile_catalog)
        except (OSError, ValueError, KeyError) as exc:
            print(f"psumlint: cannot load profile catalog: {exc}", file=sys.stderr)
            return None, EXIT_USAGE
    sources = []
    for path in args.files:
        if not os.path.isfile(path):
            print(f"psumlint: no such file: {path}", file=sys.stderr)
            return None, EXIT_USAGE
        try:
            sources.append(SourceFile.read(path))
        except OSError as exc:
            print(f"psumlint: cannot read {path}: {exc}", file=sys.stderr)
            return None, EXIT_USAGE
    return analyze_sources(sources, catalog), EXIT_OK


def _want_color(args) -> bool:
    if args.no_color or os.environ.get("PSUMLINT_NO_COLOR"):
        return False
    return sys.stdout.isatty()


def _finding_exit(analysis: Analysis) -> int:
    findings = analysis.findings
    if parse_or_resolution_errors(findings):
        return EXIT_PARSE
    if has_errors(findings):
        return EXIT_VALIDATION
    return EXIT_OK


def _guard_analysis(analysis: Analysis) -> Optional[int]:
    """Analysis subcommands refuse to run over unparsable/unresolved input."""
    errors = parse_or_resolution_errors(analysis.findings)
    if errors:
        sys.stderr.write(reporting.render_diagnostics(errors, "text"))
        return EXIT_PARSE
    return None


def run(argv: list[str]) -> int:
    parser = build_argparser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE

    analysis, status = _load(args)
    if analysis is None:
        return status

    if args.command == "check":
        findings = analysis.findings
        out = reporting.render_diagnostics(findings, args.format,
                                           color=_want_color(args))
        sys.stdout.write(out)
        errors = sum(1 for d in findings if d.severity is Severity.ERROR)
        warnings = len(findings) - errors
        if args.format == "text" and not args.quiet:
            print(f"{errors} error(s), {warnings} warning(s)")
        exit_code = _finding_exit(analysis)
        if exit_code == EXIT_OK and warnings and args.warnings_as_errors:
            exit_code = EXIT_VALIDATION
        return exit_code

    guard = _guard_analysis(analysis)
    if guard is not None:
        return guard

    if args.command == "stats":
        sys.stdout.write(reporting.render_stats(analysis.stats(), args.format))
        return _finding_exit(analysis)

    if args.command == "propagate":
        if bool(args.from_name) == bool(args.to_name):
            print("psumlint: propagate needs exactly one of --from / --to",
                  file=sys.stderr)
            return EXIT_USAGE
        name = args.from_name or args.to_name
        eid = analysis.model.resolve_qualified(name)
        if eid is None:
            print(f"psumlint: cannot resolve qualified name {name!r}",
                  file=sys.stderr)
            return EXIT_USAGE
        try:
            if args.from_name:
                result = forward_trace(analysis.graph, eid,
                                       effects_only=args.effects_only)
            else:
                result = backward_trace(analysis.graph, eid,
                                        effects_only=args.effects_only)
        except TraceStartError as exc:
            print(f"psumlint: {exc}", file=sys.stderr)
            return EXIT_USAGE
        sys.stdout.write(reporting.render_trace(result, analysis.graph,
                                                args.format))
        return _finding_exit(analysis)

    if args.command == "topics":
        sys.stdout.write(reporting.render_topics(analysis.topics(),
                                                 analysis.model, args.format))
        return _finding_exit(analysis)

    if args.command == "risks":
        risks = analysis.risks()
        roots: dict[int, list[int]] = {}
        traced: dict[int, list[int]] = {}  # target -> its roots, traced once
        for risk in risks:
            target = risk.target
            if analysis.graph.has_node(target):
                if target not in traced:
                    traced[target] = list(
                        backward_trace(analysis.graph, target).roots)
                roots[risk.element] = traced[target]
        sys.stdout.write(reporting.render_risks(risks, roots,
                                                analysis.model, args.format))
        return _finding_exit(analysis)

    if args.command == "graph":
        sys.stdout.write(reporting.render_graph(analysis.graph, args.format))
        return _finding_exit(analysis)

    # argparse admits no other command: this is derive-specs
    sys.stdout.write(reporting.render_suggestions(
        analysis.suggestions(), analysis.model, args.format))
    return _finding_exit(analysis)


def main() -> None:
    # The analysis builds no reference cycles, so in a one-shot process the
    # cyclic collector only costs time; run() leaves it to its caller.
    gc.disable()
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
