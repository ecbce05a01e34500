import gc
import json
import os
import subprocess
import sys

import pytest

from psumlint import api, cli, profile
from psumlint.api import analyze_text
from psumlint.cli import run
from psumlint.lexer import tokenize
from psumlint.propagation import backward_trace, forward_trace
from psumlint.reporting import render_risks
from psumlint.source import SourceFile

from conftest import (ALL_FIXTURES, CLEAN_FIXTURES, catalog_text, fixture_path,
                      fixture_text, respelled)


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_clean_fixture_exits_zero(capsys):
    code, out, _ = invoke(capsys, "check", fixture_path("acc.sysml"))
    assert code == 0
    assert "0 error(s)" in out


def test_check_json_output_is_diagnostics_array(capsys):
    code, out, _ = invoke(capsys, "check", "--format", "json",
                          fixture_path("acc_verbatim.sysml"))
    assert code == 2  # resolution failures
    rows = json.loads(out)
    assert [r["code"] for r in rows] == ["R001", "R001"]


def test_check_validation_error_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.sysml"
    bad.write_text(fixture_text("acc.sysml").replace(
        "«IndeterminacySource<nd>»", "«IndeterminacySource<nx>»"),
        encoding="utf-8")
    code, out, _ = invoke(capsys, "check", str(bad))
    assert code == 1
    assert "V003" in out


def test_check_non_decimal_digit_is_a_diagnostic(tmp_path, capsys):
    digits = tmp_path / "digits.sysml"
    digits.write_text("package P { attribute x = 2²; }\n", encoding="utf-8")
    code, out, _ = invoke(capsys, "check", "--format", "json", str(digits))
    assert code == 2
    assert "P008" in [row["code"] for row in json.loads(out)]


def test_check_reads_a_file_with_a_byte_order_mark(tmp_path, capsys):
    # editors on Windows often save UTF-8 with a leading U+FEFF
    clean = fixture_text("acc.sysml")
    faulty = clean.replace("«IndeterminacySource<nd>»", "«IndeterminacySource<nx>»")
    for name, text, expected in (("clean", clean, 0), ("faulty", faulty, 1)):
        results = []
        for encoding in ("utf-8", "utf-8-sig"):
            path = tmp_path / f"{name}-{encoding}.sysml"
            path.write_text(text, encoding=encoding)
            code, out, _ = invoke(capsys, "check", "--format", "json", str(path))
            results.append((code, [{k: v for k, v in row.items() if k != "file"}
                                   for row in json.loads(out)]))
        assert results[0] == results[1]
        assert results[0][0] == expected
    assert [(r["code"], r["line"], r["column"]) for r in results[1][1]] == [("V003", 4, 4)]


def test_check_warnings_as_errors(tmp_path, capsys):
    warny = tmp_path / "warn.sysml"
    warny.write_text(fixture_text("acc.sysml").replace(
        "state ready;", "state ready { b_duration = 10 [SI::day]; }"),
        encoding="utf-8")
    code, _, _ = invoke(capsys, "check", str(warny))
    assert code == 0
    code, _, _ = invoke(capsys, "check", "--warnings-as-errors", str(warny))
    assert code == 1


def test_check_quiet_suppresses_summary(capsys):
    code, out, _ = invoke(capsys, "--quiet", "check", fixture_path("acc.sysml"))
    assert code == 0
    assert out == ""


def test_missing_subcommand_is_usage_error(capsys):
    code, _, _ = invoke(capsys)
    assert code == 3


def test_unknown_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run(["check", "--bogus", fixture_path("acc.sysml")])
    assert excinfo.value.code == 3
    capsys.readouterr()


def test_missing_file_is_usage_error(capsys):
    code, _, err = invoke(capsys, "check", "no-such-file.sysml")
    assert code == 3
    assert "no such file" in err


def test_unreadable_file_is_usage_error_for_every_subcommand(tmp_path,
                                                             capsys):
    bad = tmp_path / "bad.sysml"
    bad.write_bytes(b"package P { part a; }\n\xff\n")
    for argv in (("check",), ("stats",), ("propagate", "--from", "P::a"),
                 ("topics",), ("risks",), ("graph",), ("derive-specs",)):
        for files in ((str(bad),), (fixture_path("acc.sysml"), str(bad))):
            code, out, err = invoke(capsys, *argv, *files)
            assert (code, out) == (3, ""), argv
            assert err.startswith(f"psumlint: cannot read {bad}: "), err
            assert "can't decode byte 0xff" in err


def test_quoted_name_with_a_dot_is_addressable(tmp_path, capsys):
    model = tmp_path / "quoted.sysml"
    model.write_text(
        "package P {\n"
        "  «Uncertainty<ocr, epi, subj>» part 'c.d';\n"
        "  «Uncertainty<ocr, epi, subj>» part 'a b' { «Effect» ref ::> 'c.d'; }\n"
        "}\n", encoding="utf-8")
    code, out, _ = invoke(capsys, "graph", "--format", "json", str(model))
    assert code == 0
    assert {n["qualified_name"] for n in json.loads(out)["nodes"]} == \
        {"P::'c.d'", "P::a b"}
    code, out, err = invoke(capsys, "propagate", str(model), "--to", "P::'c.d'")
    assert (code, out, err) == (0, "from P::'c.d':\n"
                                   "  P::a b  (Propagates to 'c.d')\n"
                                   "roots: (none)\n", "")
    for name in ("P::a b", " P :: 'a b' ", "`P'::'a b'"):
        code, out, _ = invoke(capsys, "propagate", str(model), "--from", name)
        assert (code, out) == (0, "from P::a b:\n"
                                  "  P::'c.d'  (Propagates from a b)\n")
    # unquoted, the dot starts a feature chain: member d of P::c
    code, _, err = invoke(capsys, "propagate", str(model), "--from", "P::c.d")
    assert code == 3
    assert "cannot resolve qualified name 'P::c.d'" in err


@pytest.mark.parametrize("source, target, ids", [
    # DOT keywords, in any case, are not bare IDs
    ("node", "Edge", ('"node"', '"Edge"')),
    ("Subgraph", "strict", ('"Subgraph"', '"strict"')),
    # a backslash is escaped, so it cannot escape the closing quote
    ("'a\\'", "'b\"c'", ('"a\\\\"', '"b\\"c"')),
])
def test_dot_ids_quote_keywords_and_backslashes(tmp_path, capsys, source,
                                                target, ids):
    model = tmp_path / "dot.sysml"
    model.write_text(
        f"package P {{ «Uncertainty<ocr, epi, subj>» part {source} "
        f"{{ «Effect» ref ::> {target}; }} "
        f"«Effect<ocr, epi, subj>» part {target}; }}", encoding="utf-8")
    edge = f'  {ids[0]} -> {ids[1]} [style=bold, label="Propagates"];\n'
    code, out, _ = invoke(capsys, "graph", str(model))
    assert (code, out) == (0, "digraph propagation {\n  rankdir=LR;\n"
                              f"  {ids[0]} [shape=ellipse];\n"
                              f"  {ids[1]} [shape=doubleoctagon];\n"
                              f"{edge}}}\n")
    code, out, _ = invoke(capsys, "propagate", str(model), "--from",
                          f"P::{source}", "--format", "dot")
    assert (code, out) == (0, f"digraph trace {{\n  rankdir=LR;\n{edge}}}\n")


def test_graph_qualified_names_read_back_in_propagate(tmp_path, capsys):
    # a part named 'x::y' and a part y in a part x print apart, and each
    # name graph prints resolves back to its node
    model = tmp_path / "quoted.sysml"
    model.write_text(
        "package P {\n"
        "  «Uncertainty<ocr, epi, subj>» part 'x::y' { «Effect» ref ::> x.y; }\n"
        "  part x { «Uncertainty<ocr, epi, subj>» part y; }\n"
        "}\n", encoding="utf-8")
    code, out, _ = invoke(capsys, "graph", "--format", "json", str(model))
    assert code == 0
    names = [n["qualified_name"] for n in json.loads(out)["nodes"]]
    assert sorted(names) == ["P::'x::y'", "P::x::y"]
    for name in names:
        code, out, err = invoke(capsys, "propagate", str(model), "--from", name)
        assert (code, err) == (0, "") and out.startswith(f"from {name}:\n")
    code, out, _ = invoke(capsys, "propagate", str(model), "--from", "P::'x::y'")
    assert out == "from P::'x::y':\n  P::x::y  (Propagates from 'x::y')\n"


@pytest.mark.parametrize("name", [
    "Configuration..producer..publicationPort",
    "::Configuration::producer::publicationPort",
    "Configuration::::producer::publicationPort",
    "Configuration::producer::publicationPort::"])
def test_empty_name_segment_does_not_resolve(capsys, name):
    code, out, err = invoke(capsys, "propagate", fixture_path("interaction.sysml"),
                            "--from", name)
    assert (code, out) == (3, "")
    assert f"cannot resolve qualified name {name!r}" in err


def test_propagate_forward_effects_only(capsys):
    code, out, _ = invoke(
        capsys, "propagate", fixture_path("interaction.sysml"),
        "--from", "Configuration::producer::producerBehavior::publish",
        "--effects-only")
    assert code == 0
    assert out == (
        "from Configuration::producer::producerBehavior::publish:\n"
        "  Configuration::server::serverBehavior::delivering"
        "  (Propagates from publish)\n"
        "  Configuration::consumer::consumerBehavior::delivery"
        "  (Propagates from delivering)\n")


def test_propagate_backward(capsys):
    code, out, _ = invoke(
        capsys, "propagate", fixture_path("acc.sysml"),
        "--to", "BehavioralModel::ACCState::accOn::decisionLayerState::"
                "failToStartDeciding")
    assert code == 0
    assert "radars" in out


def test_propagate_requires_exactly_one_direction(capsys):
    code, _, err = invoke(capsys, "propagate", fixture_path("acc.sysml"))
    assert code == 3
    code, _, err = invoke(
        capsys, "propagate", fixture_path("acc.sysml"),
        "--from", "StructuralModel::ACC::radars",
        "--to", "StructuralModel::ACC::radars")
    assert code == 3


def test_propagate_bad_qualified_name(capsys):
    for name in ("No::Such::Thing", "Boolean"):
        code, _, err = invoke(capsys, "propagate", fixture_path("acc.sysml"),
                              "--from", name)
        assert code == 3
        assert f"cannot resolve qualified name {name!r}" in err


def test_propagate_start_outside_graph(capsys):
    code, _, err = invoke(capsys, "propagate", fixture_path("acc.sysml"),
                          "--from", "BehavioralModel::ACCState::ready")
    assert code == 3
    assert "E001" in err


def test_propagate_refuses_unresolved_model(capsys):
    code, _, err = invoke(capsys, "propagate",
                          fixture_path("acc_verbatim.sysml"),
                          "--from", "StructuralModel::ACC::radars")
    assert code == 2
    assert "R001" in err


def test_stats_json_is_independent_of_hash_seed(tmp_path):
    model = tmp_path / "multi.sysml"
    model.write_text(
        "package P { «BeliefStatement, Uncertainty<ocr, epi, subj>, "
        "IndeterminacySource<nd>» part def A; }", encoding="utf-8")
    outputs = set()
    for seed in range(6):
        env = dict(os.environ, PYTHONHASHSEED=str(seed))
        result = subprocess.run(
            [sys.executable, "-m", "psumlint.cli", "stats", "--format", "json",
             str(model)], capture_output=True, text=True, env=env)
        assert result.returncode in (0, 1), result.stderr
        outputs.add(result.stdout)
    assert len(outputs) == 1


def test_stats_json(capsys):
    code, out, _ = invoke(capsys, "stats", "--format", "json",
                          fixture_path("vfea.sysml"))
    assert code == 0
    stats = json.loads(out)
    assert stats["stereotype_counts"]["Uncertainty"]["attribute"]["direct"] == 1


def test_topics_text(capsys):
    code, out, _ = invoke(capsys, "topics", fixture_path("arrowhead.sysml"))
    assert code == 0
    assert "PublishTopic" in out
    assert "sendPublish" in out


def test_risks_lists_roots(capsys):
    code, out, _ = invoke(capsys, "risks", fixture_path("acc.sysml"))
    assert code == 0
    assert "collisionRisk impact=high" in out
    assert "radars" in out


def test_risks_collects_risks_once_per_consumer(capsys, monkeypatch):
    calls = []
    collect_risks = profile.collect_risks

    def counting(model):
        calls.append(len(model.elements))
        return collect_risks(model)

    monkeypatch.setattr(profile, "collect_risks", counting)
    code, out, _ = invoke(capsys, "risks", fixture_path("arrowhead.sysml"))
    assert code == 0 and "lossOfCallGiveItemsRisk" in out
    # once, when the model is built; the validator, the graph and the
    # printed list all read model.risks
    assert len(calls) == 1
    calls.clear()
    analysis = analyze_text(fixture_text("arrowhead.sysml"))
    for report in (analysis.stats, analysis.topics, analysis.risks,
                   analysis.suggestions):
        report()
    assert analysis.findings == [] and analysis.graph.edges
    assert len(calls) == 1


def test_risks_trace_each_target_once(tmp_path, capsys, monkeypatch):
    text = ("package P {\n"
            "  «IndeterminacySource<nd>» part def S {\n"
            "    «IndeterminacySpecification» constraint c { true }\n"
            "  }\n"
            "  part s : S;\n"
            "  «Uncertainty<ocr, epi, subj>» part a {\n"
            "    «IndeterminacySpecification» ref ::> s.c;\n"
            "    metadata r1 defined by RiskMetadata::Risk "
            "{ impact = RiskMetadata::LevelEnum::high; }\n"
            "    metadata r2 defined by RiskMetadata::Risk "
            "{ impact = RiskMetadata::LevelEnum::low; }\n"
            "  }\n"
            "  part plain {\n"
            "    metadata r3 defined by RiskMetadata::Risk "
            "{ impact = RiskMetadata::LevelEnum::low; }\n"
            "  }\n"
            "}\n")
    model = tmp_path / "risks.sysml"
    model.write_text(text, encoding="utf-8")
    # the output a backward trace per risk on a graph node gives
    analysis = analyze_text(text)
    risks = analysis.risks()
    target = risks[0].target
    assert [risk.name for risk in risks] == ["r1", "r2", "r3"]
    assert [risk.target for risk in risks[:2]] == [target, target]
    assert not analysis.graph.has_node(risks[2].target)
    roots = {risk.element: list(backward_trace(analysis.graph, target).roots)
             for risk in risks[:2]}
    calls = []

    def counting(graph, failure, effects_only=False):
        calls.append(failure)
        return backward_trace(graph, failure, effects_only)

    monkeypatch.setattr(api, "backward_trace", counting)
    assert analyze_text(text).risk_roots() == roots  # no entry for r3
    assert calls == [target]
    for fmt in ("text", "json"):
        calls.clear()
        code, out, _ = invoke(capsys, "risks", "--format", fmt, str(model))
        assert code == 0
        assert out == render_risks(risks, roots, analysis.model, fmt)
        assert calls == [target]
    assert out.count('"P::S::c"') == 2
    assert json.loads(out)[2]["roots"] == []
    code, out, _ = invoke(capsys, "check", "--format", "json", str(model))
    assert code == 0
    assert [row["code"] for row in json.loads(out)] == ["V013"]


def test_graph_dot_default(capsys):
    code, out, _ = invoke(capsys, "graph", fixture_path("interaction.sysml"))
    assert code == 0
    assert "publish -> delivering" in out


def test_derive_specs_json(capsys):
    code, out, _ = invoke(capsys, "derive-specs", "--format", "json",
                          fixture_path("interaction.sysml"))
    assert code == 0
    rows = json.loads(out)
    assert all(row["effect"] for row in rows)


def test_profile_catalog_override(tmp_path, capsys):
    data = json.loads(catalog_text())
    # forbid Uncertainty on attribute usages: the VFEA fixture now violates
    data["stereotypes"]["Uncertainty"] = ["OccurrenceDefinitionLike",
                                          "OccurrenceUsageLike"]
    catalog_path = tmp_path / "catalog.json"
    catalog_path.write_text(json.dumps(data), encoding="utf-8")
    code, out, _ = invoke(capsys, "--profile-catalog", str(catalog_path),
                          "check", fixture_path("vfea.sysml"))
    assert code == 1
    assert "V001" in out
    # the catalog's risk levels are the only LevelEnum literals
    model = tmp_path / "risk.sysml"
    model.write_text(
        "package P { part a { metadata r defined by RiskMetadata::Risk "
        "{ impact = RiskMetadata::LevelEnum::medium; } } }", encoding="utf-8")
    code, out, _ = invoke(capsys, "check", str(model))
    assert code == 0
    data = json.loads(catalog_text())
    data["risk_levels"] = ["low", "high"]
    catalog_path.write_text(json.dumps(data), encoding="utf-8")
    code, out, _ = invoke(capsys, "--profile-catalog", str(catalog_path),
                          "check", str(model))
    assert code == 1
    assert "V012" in out


def test_profile_catalog_bad_file(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{", encoding="utf-8")
    code, _, err = invoke(capsys, "--profile-catalog", str(bad),
                          "check", fixture_path("acc.sysml"))
    assert code == 3


def test_profile_catalog_reads_a_file_with_a_byte_order_mark(tmp_path, capsys):
    # a catalog saved as UTF-8 with a leading U+FEFF loads like one without
    catalog = catalog_text()
    results = []
    for encoding in ("utf-8", "utf-8-sig"):
        catalog_path = tmp_path / f"catalog-{encoding}.json"
        catalog_path.write_text(catalog, encoding=encoding)
        results.append(invoke(capsys, "--profile-catalog", str(catalog_path),
                              "check", "--format", "json",
                              fixture_path("acc.sysml")))
    assert results[0] == results[1]
    assert results[0] == (0, "[]\n", "")


@pytest.mark.parametrize("field, value", [
    ("uncertainty_kinds", [1, 2]),
    ("stereotypes", {"Uncertainty": 5}),
    ("risk_levels", 7),
    (None, ["not", "an", "object"]),
])
def test_profile_catalog_of_wrong_shape_is_a_usage_error(tmp_path, capsys,
                                                         field, value):
    data = json.loads(catalog_text())
    if field is None:
        data = value
    else:
        data[field] = value
    catalog_path = tmp_path / "catalog.json"
    catalog_path.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = invoke(capsys, "--profile-catalog", str(catalog_path),
                            "check", fixture_path("acc.sysml"))
    assert (code, out) == (3, "")
    assert "cannot load profile catalog" in err
    assert (repr(field) if field else "JSON object") in err
    assert "Traceback" not in err


def test_no_color_env_variable(capsys, monkeypatch, tmp_path):
    warny = tmp_path / "warn.sysml"
    warny.write_text(fixture_text("acc.sysml").replace(
        "state ready;", "state ready { b_duration = 10 [SI::day]; }"),
        encoding="utf-8")
    monkeypatch.setenv("PSUMLINT_NO_COLOR", "1")
    code, out, _ = invoke(capsys, "check", str(warny))
    assert "\x1b[" not in out


def test_console_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "psumlint.cli", "check",
         fixture_path("acc.sysml")],
        capture_output=True, text=True)
    assert result.returncode == 0


def _wrapped(copies):
    """Every clean fixture, each wrapped `copies` times in a package."""
    return "".join(
        f"package Copy{i}_{os.path.splitext(name)[0]} {{\n"
        f"{fixture_text(name)}\n}}\n"
        for i in range(copies) for name in CLEAN_FIXTURES)


def _lattice(tag, depth, reverse):
    """A specialization chain L<tag>_0 … L<tag>_<depth-1> under an
    indeterminacy source that owns two specification constraints, with an
    uncertainty every third level, usages typed by every fifth level whose
    specification ref reaches the root's constraint through inherited
    members, and one usage that redefines the deepest of them."""
    name = f"L{tag}_"
    levels = [f"«IndeterminacySource<nd>» part def {name}0 {{ "
              f"attribute up : Boolean; "
              f"«IndeterminacySpecification» constraint Up {{ up; }} "
              f"«IndeterminacySpecification» constraint Down {{ not up; }} }}\n"]
    levels += [("«Uncertainty<ocr, epi, subj>» " if d % 3 == 0 else "")
               + f"part def {name}{d} specializes {name}{d - 1};\n"
               for d in range(1, depth)]
    if reverse:
        levels.reverse()
    typed = range(0, depth, 5)
    usages = "".join(
        f"«Uncertainty<ocr, epi, subj>» part u{d} : {name}{d} {{ "
        f"«IndeterminacySpecification» ref ::> sys.u{d}.Up; }}\n"
        for d in typed)
    return (f"package Lattice_{tag} {{\n{''.join(levels)}part sys {{\n"
            f"{usages}«IndeterminacySource<isr>» part uOver :>> u{typed[-1]};\n"
            f"}}\n}}\n")


def _generated_models():
    return _wrapped(2) + _lattice("F", 60, False) + _lattice("R", 60, True)


def _analyse_everything(text):
    analysis = analyze_text(text)
    for report in (analysis.stats, analysis.topics, analysis.risks,
                   analysis.suggestions):
        report()
    assert analysis.findings is not None
    nodes = analysis.graph.nodes()
    if nodes:
        forward_trace(analysis.graph, nodes[0])
        backward_trace(analysis.graph, nodes[-1])


def test_analysis_leaves_no_cyclic_garbage():
    """main() turns the cyclic collector off, which is only safe while an
    analysis builds no reference cycles."""
    lines = fixture_text("acc.sysml").splitlines(keepends=True)
    texts = [fixture_text(name) for name in ALL_FIXTURES]
    texts += ["".join(lines[:i] + lines[i + 1:]) for i in range(len(lines))]
    texts.append(_generated_models())
    gc.collect()
    gc.disable()
    try:
        for text in texts:
            _analyse_everything(text)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _cyclic_garbage_of_run(capsys, argv):
    gc.collect()
    gc.disable()
    try:
        try:
            code = run(argv)
        except SystemExit as exit_:
            code = exit_.code
        return code, gc.collect()
    finally:
        gc.enable()
        capsys.readouterr()


def test_cli_garbage_does_not_grow_with_the_model(tmp_path, capsys):
    """argparse and json leave a few reference cycles behind in every run.
    With the collector off in main(), that is only safe while their number
    stays the same however large the model is."""
    extra = tmp_path / "generated.sysml"
    extra.write_text(_generated_models(), encoding="utf-8")
    acc = fixture_path("acc.sysml")
    interaction = fixture_path("interaction.sysml")
    cases = [("check", acc, ()), ("check", acc, ("--format", "json")),
             ("stats", acc, ()), ("stats", acc, ("--format", "json")),
             ("topics", acc, ()), ("risks", acc, ("--format", "json")),
             ("graph", interaction, ()),
             ("graph", interaction, ("--format", "json")),
             ("derive-specs", interaction, ("--format", "json")),
             ("propagate", interaction,
              ("--from", "Configuration::producer::producerBehavior::publish")),
             ("propagate", acc,
              ("--format", "json", "--to", "BehavioralModel::ACCState::accOn::"
               "decisionLayerState::failToStartDeciding")),
             # error exits: a start outside the graph, an unknown name, an
             # unresolved model, an unknown flag
             ("propagate", acc, ("--from", "BehavioralModel::ACCState::ready")),
             ("propagate", acc, ("--from", "No::Such::Thing")),
             ("check", fixture_path("acc_verbatim.sysml"), ()),
             ("check", acc, ("--bogus",))]
    for command, path, options in cases:
        small = [command, path, *options]
        # the generated models are clean, so the exit code stays the same
        large = [command, path, str(extra), *options]
        _cyclic_garbage_of_run(capsys, small)  # first-call caches
        assert (_cyclic_garbage_of_run(capsys, large)
                == _cyclic_garbage_of_run(capsys, small)), small


def test_json_output_of_every_subcommand_matches_its_schema(capsys):
    from test_reporting import SCHEMA_DIR, check as check_schema
    cases = [
        (("check", "--format", "json", fixture_path("acc.sysml")),
         "diagnostics.schema.json"),
        (("stats", "--format", "json", fixture_path("acc.sysml")),
         "stats.schema.json"),
        (("propagate", fixture_path("interaction.sysml"), "--format", "json",
          "--from", "Configuration::producer::producerBehavior::publish"),
         "trace.schema.json"),
        (("propagate", fixture_path("interaction.sysml"), "--format", "json",
          "--to", "Configuration::consumer::consumerBehavior::delivery"),
         "trace.schema.json"),
        (("topics", "--format", "json", fixture_path("arrowhead.sysml")),
         "topics.schema.json"),
        (("risks", "--format", "json", fixture_path("acc.sysml")),
         "risks.schema.json"),
        (("graph", "--format", "json", fixture_path("interaction.sysml")),
         "graph.schema.json"),
        (("derive-specs", "--format", "json", fixture_path("interaction.sysml")),
         "suggestions.schema.json"),
    ]
    for argv, schema_name in cases:
        code, out, _ = invoke(capsys, *argv)
        assert code == 0, argv
        check_schema(out, schema_name)
    # every schema has a producer: a subcommand above or the bundled catalog
    assert ({name for _, name in cases} | {"profile-catalog.schema.json"}
            == set(os.listdir(SCHEMA_DIR)))


def _every_report(capsys, paths: list[str]) -> dict:
    """argv -> (exit, stdout, stderr) of every subcommand and format over
    ``paths``, with ``propagate`` from and to every 5th named graph node."""
    runs = {}
    for command, (_help, formats, _render) in cli.COMMANDS.items():
        if command == "propagate":
            continue
        for fmt in formats:
            runs[command, fmt] = invoke(capsys, command, "--format", fmt, *paths)
    nodes = json.loads(runs["graph", "json"][1])["nodes"]
    names = [node["qualified_name"] for node in nodes if node["qualified_name"]]
    for name in names[::5]:
        for flag in ("--from", "--to"):
            for fmt in cli.COMMANDS["propagate"][1]:
                runs[flag, name, fmt] = invoke(
                    capsys, "propagate", "--format", fmt, *paths, flag, name)
    return runs


def _without_lines_of_model(command_format: tuple, out: str):
    if command_format == ("stats", "json"):
        return {key: value for key, value in json.loads(out).items()
                if key != "lom"}
    if command_format == ("stats", "text"):
        return [section for section in out.split("\n\n")
                if not section.startswith("Lines of model")]
    return out


def test_splitting_root_packages_across_files_changes_no_report(tmp_path,
                                                                capsys):
    """Metamorphic: the clean fixtures as six files or as one concatenated
    file give the same output and exit code everywhere but the line counts
    of `stats`."""
    joined = tmp_path / "joined.sysml"
    joined.write_text("".join(fixture_text(name) for name in CLEAN_FIXTURES),
                      encoding="utf-8")
    split = _every_report(capsys, [fixture_path(n) for n in CLEAN_FIXTURES])
    whole = _every_report(capsys, [str(joined)])
    assert split.keys() == whole.keys()
    assert len(split) == 12 + 84
    for key, (code, out, err) in split.items():
        assert code == 0, key
        assert (code, _without_lines_of_model(key, out), err) == (
            whole[key][0], _without_lines_of_model(key, whole[key][1]),
            whole[key][2]), key


def test_respelling_relationships_changes_no_report(tmp_path, monkeypatch,
                                                    capsys):
    """Metamorphic: the clean fixtures with every relationship in its other
    SysML v2 spelling give the same output and exit code everywhere."""
    runs = {}
    for version, spell in (("original", str), ("respelled", respelled)):
        directory = tmp_path / version
        directory.mkdir()
        for name in CLEAN_FIXTURES:
            (directory / name).write_text(spell(fixture_text(name)),
                                          encoding="utf-8")
        monkeypatch.chdir(directory)
        runs[version] = _every_report(capsys, list(CLEAN_FIXTURES))
    # the fixtures write no usage ':>', so no 'subsets' appears
    tokens, _ = tokenize(SourceFile(path="<respelled>", content="".join(
        respelled(fixture_text(name)) for name in CLEAN_FIXTURES)))
    texts = {token.text for token in tokens}
    assert texts.isdisjoint({"specializes", ":", ":>>", "::>"})
    assert {":>", "typed", "redefines", "references"} <= texts
    assert len(runs["original"]) == 12 + 84
    for key, (code, out, err) in runs["original"].items():
        assert code == 0, key
        assert (code, out, err) == runs["respelled"][key], key
