import tracemalloc

from psumlint.source import SourceFile
from psumlint.syntax import Parser, parse_file

from conftest import ALL_FIXTURES, fixture_text, respelled
from test_golden import (DELIMITERS, deletion_mutants, load_parse_golden,
                         parse_digest, parse_record)


def parse(text: str, path: str = "<test>"):
    return parse_file(SourceFile(path=path, content=text))


def find(node, kind):
    hits = []
    if node.kind == kind:
        hits.append(node)
    for child in node.children:
        hits += find(child, kind)
    return hits


def test_part_def_with_specialization_and_attribute():
    root, diags = parse(
        "package P { part def Radar specializes Sensor { "
        "attribute isBlocked defined by ScalarValues::Boolean; } "
        "part def Sensor; }")
    assert diags == []
    defs = find(root, "Definition")
    radar = next(d for d in defs if d.attr("name") == "Radar")
    assert [ref.path.text for ref in radar.attr("specializes")] == ["Sensor"]
    usages = find(radar, "Usage")
    assert usages[0].attr("name") == "isBlocked"
    assert usages[0].attr("typing").path.segments == ("ScalarValues", "Boolean")


def test_empty_package():
    root, diags = parse("package P { }")
    assert diags == []
    assert len(root.children) == 1
    assert root.children[0].kind == "Package"
    assert root.children[0].children == []


def test_vfea_transcription_two_packages_no_diagnostics():
    root, diags = parse(fixture_text("vfea.sysml"), path="vfea.sysml")
    assert diags == []
    assert len([c for c in root.children if c.kind == "Package"]) == 2


def test_all_fixtures_parse_without_syntax_errors():
    for name in ALL_FIXTURES:
        _root, diags = parse(fixture_text(name), path=name)
        assert diags == [], f"{name}: {[d.render_text() for d in diags]}"


def test_annotation_single_entry_with_code():
    source = SourceFile(path="<t>", content="«IndeterminacySource<nd>»")
    parser = Parser(source)
    clause = parser.parse_annotation()
    assert [(e.name, list(e.codes)) for e in clause.entries] == \
        [("IndeterminacySource", ["nd"])]


def test_annotation_multi_stereotype_clause():
    source = SourceFile(path="<t>", content="«Uncertainty<ocr, epi, subj>, Effect»")
    parser = Parser(source)
    clause = parser.parse_annotation()
    assert [(e.name, list(e.codes)) for e in clause.entries] == \
        [("Uncertainty", ["ocr", "epi", "subj"]), ("Effect", [])]


def test_annotation_without_arguments():
    source = SourceFile(path="<t>", content="«BeliefStatement»")
    parser = Parser(source)
    clause = parser.parse_annotation()
    assert [(e.name, list(e.codes)) for e in clause.entries] == \
        [("BeliefStatement", [])]


def test_annotation_with_bad_punctuation_sets_raw():
    source = SourceFile(path="<t>", content="«Uncertainty{}»")
    parser = Parser(source)
    clause = parser.parse_annotation()
    assert clause.raw
    assert parser.diagnostics


def test_transition_with_source_shorthand():
    root, diags = parse("package P { state def S { entry action initial; "
                        "transition initial then normal; state normal; } }")
    assert diags == []
    transition = find(root, "Transition")[0]
    assert transition.attr("name") is None
    assert transition.attr("first").text == "initial"


def test_transition_full_clause_row():
    text = ("package P { state def S { state a; state b; "
            "transition t first a accept sig defined by Sig via p.q "
            "if x >= 1 do send Out(v) to r then b { u_pattern = Random; } } }")
    root, diags = parse(text)
    assert diags == []
    transition = find(root, "Transition")[0]
    assert transition.attr("first").text == "a"
    assert transition.attr("accept").param_name == "sig"
    assert transition.attr("guard") is not None
    assert transition.attr("do_send").signal.text == "Out"
    assert transition.attr("then").text == "b"


def test_metadata_both_forms():
    text = ("package P { part p { "
            "metadata m1 defined by RiskMetadata::Risk about p { "
            "totalRisk { impact = RiskMetadata::LevelEnum::high; } } "
            "metadata m2 : RiskMetadata::Risk { impact = RiskMetadata::LevelEnum::low; } "
            "} }")
    root, diags = parse(text)
    assert diags == []
    metas = find(root, "MetadataUsage")
    assert [m.attr("name") for m in metas] == ["m1", "m2"]
    assert metas[0].attr("about").text == "p"
    group = metas[0].children[0]
    assert group.attr("name") == "totalRisk"
    assert group.children[0].attr("name") == "impact"


def test_syntax_error_recovers_at_semicolon():
    root, diags = parse("package P { part def + Broken; part def Fine; }")
    assert any(d.code.startswith("P") for d in diags)
    names = [d.attr("name") for d in find(root, "Definition")]
    assert "Fine" in names


def test_unsupported_construct_reports_p001():
    _root, diags = parse("package P { flobnicate x; }")
    assert any(d.code == "P001" for d in diags)


def test_parse_never_raises_and_returns_tree_on_token_deletion():
    # deleting any single token still yields a tree; deleting a structural
    # delimiter always yields at least one diagnostic; every mutant parses
    # to the recorded tree and diagnostics
    golden = load_parse_golden()["mutants"]
    for name in ALL_FIXTURES:
        text = fixture_text(name)
        mutants = list(deletion_mutants(name, text))
        assert len(mutants) == len(golden[name])
        for (token, mutated), expected in zip(mutants, golden[name]):
            record = parse_record(mutated, "mutant")
            assert parse_digest(record) == expected, \
                f"{name}: deleting {token.text!r} at {token.start}"
            if needs_diagnostic(token, mutated):
                assert record["diagnostics"], (
                    f"{name}: deleting {token.text!r} at "
                    f"{token.start} gave no diagnostic")


def needs_diagnostic(token, mutated: str) -> bool:
    """Whether deleting ``token`` must give a diagnostic: it is a
    structural delimiter, but not a ';' directly before '}', which is
    legitimately optional."""
    if token.text == ";" and mutated[token.start:].lstrip()[:1] == "}":
        return False
    return token.text in DELIMITERS


def test_parse_determinism():
    for name in ALL_FIXTURES:
        text = fixture_text(name)
        assert parse_record(text, name) == parse_record(text, name)


def test_comment_trivia_is_attached():
    root, diags = parse("package P { // about the next part\n part p; }")
    assert diags == []
    usage = find(root, "Usage")[0]
    assert any("about the next part" in t for t in usage.attr("trivia", ()))


def test_message_and_occurrence_usages():
    root, diags = parse("package P { item def Sig; occurrence def O; "
                        "message m : Sig; occurrence happening : O; }")
    assert diags == []
    usages = find(root, "Usage")
    assert [(u.attr("keyword"), u.attr("name")) for u in usages] == \
        [("message", "m"), ("occurrence", "happening")]


def test_pathological_nesting_is_reported_not_fatal():
    deep_bodies = "package P " + "{ part q " * 5000 + "{ }" + " }" * 5001
    root, diags = parse(deep_bodies)
    assert root is not None
    assert any(d.code == "P001" for d in diags)

    deep_exprs = "package P { constraint c { " + "not " * 5000 + "x } }"
    root, diags = parse(deep_exprs)
    assert root is not None
    assert any(d.code == "P001" for d in diags)


def test_unclosed_blocks_report_eof_once_from_the_innermost():
    text = "package P { part a { part b { metadata m : M { x = 1;"
    _, diags = parse(text)
    assert [(d.code, d.span.start, d.message) for d in diags] == [
        ("P002", len(text), "metadata body is never closed")]

    # past the nesting cap: one P001, one P002 for the innermost open body
    _, diags = parse("package P " + "{ part q " * 120)
    assert [d.code for d in diags] == ["P001", "P002"]


def test_one_p002_per_bad_token_when_callers_fail_on_it_too():
    # the clause parser and its caller both stop at one token; only the
    # first, most specific P002 is kept
    cases = [
        ("package P { state def S { transition t first a do x then b; } }",
         [("P002", "x", "expected 'send' or 'action' after 'do', found 'x'")]),
        ("package P { import a::+; }",
         [("P008", "+", "stray character '+'"),
          ("P002", "+", "expected '*' after '::'")]),
        ("package P { constraint c { (((a) ; } }",
         [("P002", ";", "expected ')' to close the group, found ';'")]),
    ]
    for text, expected in cases:
        _, diags = parse(text)
        assert [(d.code, text[d.span.start:d.span.end], d.message)
                for d in diags] == expected


def test_redefines_keyword_equals_symbolic_form():
    symbolic, d1 = parse("package P { part a; part b :>> a; }")
    keyword, d2 = parse("package P { part a; part b redefines a; }")
    assert d1 == [] and d2 == []
    b_sym = [u for u in find(symbolic, "Usage") if u.attr("name") == "b"][0]
    b_kw = [u for u in find(keyword, "Usage") if u.attr("name") == "b"][0]
    assert [p.text for p in b_sym.attr("redefines")] == \
        [p.text for p in b_kw.attr("redefines")] == ["a"]


def test_definition_relationships_read_lists_in_either_spelling():
    root, diags = parse("package P { part def A; part def C; "
                        "part def B :> A, ~C[2] specializes C, A; "
                        "part def D specializes A :> C; }")
    assert diags == []
    defs = {d.attr("name"): d for d in find(root, "Definition")}
    assert [(r.path.text, r.conjugated, r.multiplicity)
            for r in defs["B"].attr("specializes")] == [
        ("A", False, None), ("C", True, "2"), ("C", False, None),
        ("A", False, None)]
    assert [r.path.text for r in defs["D"].attr("specializes")] == ["A", "C"]


def test_usage_relationships_read_lists_in_either_spelling():
    root, diags = parse("package P { part a; part c; "
                        "part s :> a, c subsets c; part r :>> a, c redefines a; "
                        "ref part f ::> a, c references c, a.b; }")
    assert diags == []
    usages = {u.attr("name"): u for u in find(root, "Usage")}
    assert [p.text for p in usages["s"].attr("subsets")] == ["a", "c", "c"]
    assert [p.text for p in usages["r"].attr("redefines")] == ["a", "c", "a"]
    assert [p.text for p in usages["f"].attr("refsubsets")] == \
        ["a", "c", "c", "a.b"]
    # a list item that fails to parse stores nothing, and the list goes on
    root, diags = parse("package P { part s :> a, ; part t :> , b; }")
    assert [(d.code, d.message) for d in diags] == [
        ("P002", "expected a name after ',', found ';'"),
        ("P002", "expected a name after ':>', found ','")]
    usages = {u.attr("name"): u for u in find(root, "Usage")}
    assert [p.text for p in usages["s"].attr("subsets")] == ["a"]
    assert [p.text for p in usages["t"].attr("subsets")] == ["b"]


def test_typed_by_equals_colon_and_defined_by():
    forms = [("package P { part a typed by ~T[1]; }", "Usage"),
             ("package P { metadata m typed by M about p; }", "MetadataUsage")]
    for text, kind in forms:
        for spelling in (":", "defined by"):
            typings = [find(parse(t)[0], kind)[0].attr("typing")
                       for t in (text, text.replace("typed by", spelling))]
            assert len({(ref.path.segments, ref.conjugated, ref.multiplicity)
                        for ref in typings}) == 1
    root, diags = parse("package P { action x accept sig typed by Sig via p; }")
    assert diags == []
    accept = find(root, "Usage")[0].attr("accept")
    assert (accept.param_name, accept.typing.path.text, accept.via.text) == \
        ("sig", "Sig", "p")
    _, diags = parse("package P { part a typed A; }")
    assert [d.message for d in diags] == ["expected 'by' in 'typed by', found 'A'"]


def test_abstract_records_nothing():
    plain, d1 = parse("package P { part def A; in part a : A; part b; }")
    abstract, d2 = parse("package P { abstract part def A; "
                         "in abstract part a : A; abstract part b; }")
    assert d1 == [] and d2 == []

    def shape(root):
        """Each declaration's kind and attributes, its typing by name."""
        return [(n.kind, {k: v.path.text if k == "typing" else v
                          for k, v in n.attrs.items()})
                for n in find(root, "Definition") + find(root, "Usage")]
    assert shape(plain) == shape(abstract) == [
        ("Definition", {"keyword": "part", "name": "A"}),
        ("Usage", {"keyword": "part", "direction": "in", "name": "a",
                   "typing": "A"}),
        ("Usage", {"keyword": "part", "name": "b"})]


def test_reserved_relationship_words_are_names_only_when_quoted():
    for word in ("subsets", "typed", "references", "abstract"):
        _, diags = parse(f"package P {{ part {word}; }}")
        assert [d.code for d in diags] == ["P002"], word
        root, diags = parse(f"package P {{ part '{word}'; part x :> '{word}'; }}")
        assert diags == [], word
        assert [u.attr("name") for u in find(root, "Usage")] == [word, "x"]


def test_doc_takes_only_a_comment_written_after_it():
    _, diags = parse("package P { /* before */ doc ; }")
    assert [(d.code, d.message) for d in diags] == [
        ("P002", "expected a comment after 'doc'")]
    root, diags = parse("package P { /* a */ doc /* b */ ; part p; }")
    assert diags == []
    assert find(root, "DocComment")[0].attr("text") == "/* b */"
    # the comment before 'doc' stays trivia for the next declaration
    assert find(root, "Usage")[0].attr("trivia") == ("/* a */",)


def test_token_deletion_over_respelled_text_never_raises():
    text = respelled(fixture_text("acc.sysml"))
    mutants = list(deletion_mutants("acc.sysml", text))
    assert len(mutants) > 200
    for token, mutated in mutants:
        diagnostics = parse(mutated, "mutant")[1]
        if needs_diagnostic(token, mutated):
            assert diagnostics, f"deleting {token.text!r} at {token.start}"


def test_parser_asks_only_about_keyword_operator_or_punctuation_text():
    # Parser._at compares token text alone, which is exact only because no
    # identifier, literal or bracket token has such a text
    import inspect
    import re

    from psumlint import syntax
    from psumlint.lexer import KEYWORDS, TokenKind, tokenize
    texts = set(re.findall(r'_(?:at|eat|expect)\("([^"]+)"',
                           inspect.getsource(syntax)))
    for table in (syntax._DEFINITION_RELATIONSHIPS,
                  syntax._USAGE_RELATIONSHIPS, syntax._USAGE_ACTIONS,
                  syntax._TRANSITION_CLAUSES, syntax._SEND_CLAUSES,
                  syntax._BOOL_SPELLINGS):
        texts.update(table)
    texts.update(*syntax._BOOL_SPELLINGS.values())
    assert len(texts) > 30
    for text in texts - KEYWORDS:
        tokens, diags = tokenize(SourceFile(path="<t>", content=text))
        assert diags == [] and [t.text for t in tokens] == [text, ""], text
        assert tokens[0].kind in (TokenKind.OPERATOR, TokenKind.PUNCTUATION), text


def generated_model(parts: int) -> str:
    """A package of ``parts`` annotated usages, three statements each, with
    a comment before each one."""
    lines = ["package Generated {", "  part def Mass;"]
    for i in range(parts):
        lines.append(f"  // usage {i}")
        lines.append(f"  «Uncertainty<ocr, epi, subj>» part unit{i} : Mass {{ "
                     f"attribute mass{i} = {i}.5 ['kg']; "
                     f"«Effect» ref ::> unit{i + 1}; }}")
    return "\n".join(lines) + "\n}\n"


def test_parse_peak_is_the_tree_it_keeps():
    # a token list and its filtered copy, alive next to the tree, peaked at
    # 2.1x the tree on this model; pulled from the lexer, tokens are freed
    # as they are read
    source = SourceFile(path="<generated>", content=generated_model(700))
    tracemalloc.start()
    try:
        tree, diags = parse_file(source)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert diags == [] and len(tree.children[0].children) == 701
    assert peak <= 1.25 * retained, (peak, retained)
