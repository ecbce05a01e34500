import string

from hypothesis import given, settings
from hypothesis import strategies as st

from psumlint.lexer import Token, TokenKind, tokenize
from psumlint.source import SourceFile
from psumlint.syntax import parse_file

from conftest import ALL_FIXTURES, fixture_text, reconstruct


def lex(text: str):
    return tokenize(SourceFile(path="<test>", content=text))


def kinds_and_texts(tokens):
    return [(t.kind, t.text) for t in tokens if t.kind is not TokenKind.EOF]


def test_annotated_transition_token_stream():
    tokens, diags = lex("«Uncertainty<ocr, epi, subj>» transition startDeciding")
    assert not diags
    assert kinds_and_texts(tokens) == [
        (TokenKind.ANNOTATION_OPEN, "«"),
        (TokenKind.IDENTIFIER, "Uncertainty"),
        (TokenKind.OPERATOR, "<"),
        (TokenKind.IDENTIFIER, "ocr"),
        (TokenKind.PUNCTUATION, ","),
        (TokenKind.IDENTIFIER, "epi"),
        (TokenKind.PUNCTUATION, ","),
        (TokenKind.IDENTIFIER, "subj"),
        (TokenKind.OPERATOR, ">"),
        (TokenKind.ANNOTATION_CLOSE, "»"),
        (TokenKind.KEYWORD, "transition"),
        (TokenKind.IDENTIFIER, "startDeciding"),
    ]


def test_duration_assignment_tokens():
    tokens, diags = lex("b_duration = 30 [SI::day];")
    assert not diags
    assert kinds_and_texts(tokens) == [
        (TokenKind.IDENTIFIER, "b_duration"),
        (TokenKind.OPERATOR, "="),
        (TokenKind.NUMBER, "30"),
        (TokenKind.UNIT_BRACKET, "[SI::day]"),
        (TokenKind.PUNCTUATION, ";"),
    ]
    unit = [t for t in tokens if t.kind is TokenKind.UNIT_BRACKET][0]
    assert unit.value == "SI::day"


def test_empty_input_yields_single_eof():
    tokens, diags = lex("")
    assert diags == []
    assert [t.kind for t in tokens] == [TokenKind.EOF]


def test_ascii_annotation_fallback_matches_guillemets():
    uni, _ = lex("«Uncertainty<ocr, epi, subj>» transition t")
    ascii_, diags = lex("<<Uncertainty<ocr, epi, subj>>> transition t")
    assert not diags
    assert [t.kind for t in uni] == [t.kind for t in ascii_]


def test_ascii_annotation_without_arguments():
    tokens, diags = lex("<<BeliefStatement>> state s;")
    assert not diags
    assert tokens[0].kind is TokenKind.ANNOTATION_OPEN
    assert tokens[2].kind is TokenKind.ANNOTATION_CLOSE


def test_quoted_identifier_forms():
    tex_style, diags1 = lex("part def `ACC' ;")
    straight, diags2 = lex("part def 'ACC' ;")
    assert not diags1 and not diags2
    assert tex_style[2].kind is TokenKind.QUOTED_IDENTIFIER
    assert tex_style[2].value == "ACC"
    assert straight[2].value == "ACC"


def test_bracket_classification():
    tokens, _ = lex("x [*] [1] [0..1] [SI::day] [`inch'] ['%']")
    bracket_kinds = [(t.kind, t.value) for t in tokens
                     if t.kind in (TokenKind.UNIT_BRACKET,
                                   TokenKind.MULTIPLICITY_BRACKET)]
    assert bracket_kinds == [
        (TokenKind.MULTIPLICITY_BRACKET, "*"),
        (TokenKind.MULTIPLICITY_BRACKET, "1"),
        (TokenKind.MULTIPLICITY_BRACKET, "0..1"),
        (TokenKind.UNIT_BRACKET, "SI::day"),
        (TokenKind.UNIT_BRACKET, "inch"),
        (TokenKind.UNIT_BRACKET, "%"),
    ]


def test_redefinition_and_reference_operators():
    tokens, _ = lex("a ::> b :>> c :> d :: e")
    ops = [t.text for t in tokens if t.kind is TokenKind.OPERATOR]
    assert ops == ["::>", ":>>", ":>", "::"]


def test_unterminated_string_recovers_on_next_line():
    tokens, diags = lex('attribute x = "oops\nattribute y;')
    assert any(d.code == "P003" for d in diags)
    assert any(t.text == "y" for t in tokens)


def test_unterminated_annotation_reports_and_recovers():
    _, diags = lex("«Uncertainty<ocr\npart p;")
    assert any(d.code == "P005" for d in diags)


def test_annotation_unclosed_in_whitespace_or_at_end_of_file():
    # the newline may sit in the whitespace before the next token, or in
    # trailing whitespace; only without one does the end of file report
    _, diags = lex("«Uncertainty<ocr> \n part p;")
    assert [(d.code, d.span.start, d.span.end) for d in diags] == [("P005", 18, 18)]
    _, diags = lex("«Uncertainty \n\t")
    assert [(d.code, d.span.start, d.span.end) for d in diags] == [("P005", 13, 13)]
    _, diags = lex("«Uncertainty  ")
    assert [(d.code, d.span.start, d.span.end, d.message) for d in diags] == [
        ("P005", 14, 14, "annotation not closed before end of file")]


def test_unterminated_block_comment():
    _, diags = lex("/* never closed")
    assert any(d.code == "P004" for d in diags)


def test_unterminated_quoted_name():
    _, diags = lex("part def `Forever\npart p;")
    assert [d.code for d in diags] == ["P006"]


def test_unterminated_bracket():
    _, diags = lex("b_duration = 30 [SI::day\npart p;")
    assert [d.code for d in diags] == ["P007"]


def test_stray_character():
    _, diags = lex("part p @;")
    assert [d.code for d in diags] == ["P008"]


def test_non_decimal_digits_are_stray_characters():
    # '²'.isdigit() holds but \d does not match it; '٣' is a decimal digit
    tokens, diags = lex("x = 2²; y = ٣٤;")
    assert [(d.code, d.span.start, d.message) for d in diags] == [
        ("P008", 5, "stray character '²'")]
    assert kinds_and_texts(tokens)[2:4] == [
        (TokenKind.NUMBER, "2"), (TokenKind.PUNCTUATION, "²")]
    assert (TokenKind.NUMBER, "٣٤") in kinds_and_texts(tokens)


def test_comments_are_tokens():
    tokens, _ = lex("// line\n/* block */ part p;")
    assert tokens[0].kind is TokenKind.COMMENT
    assert tokens[1].kind is TokenKind.DOC_COMMENT


def fixture_losslessness(name):
    text = fixture_text(name)
    source = SourceFile(path=name, content=text)
    tokens, _ = tokenize(source)
    assert reconstruct(source, tokens) == text


def test_fixture_losslessness():
    for name in ALL_FIXTURES:
        fixture_losslessness(name)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=string.printable + "«»`²٣é\x0b\u00a0", max_size=120))
def test_tokenizer_lossless_and_total_on_arbitrary_text(text):
    source = SourceFile(path="<fuzz>", content=text)
    tokens, _ = tokenize(source)
    assert tokens[-1].kind is TokenKind.EOF
    assert reconstruct(source, tokens) == text
    # tokens carry bare offsets and run no Span bounds check of their own:
    # this is that check, plus the order the parser's spans rely on
    for token in tokens:
        assert 0 <= token.start <= token.end <= len(text)
        assert token.span == source.span(token.start, token.end)
    starts = [token.start for token in tokens[:-1]]
    assert all(a < b for a, b in zip(starts, starts[1:]))


def test_spans_hash_and_compare_by_file_identity():
    source = SourceFile(path="x", content="abc")
    span = source.span(0, 1)
    assert hash(span) == hash(source.span(0, 1))
    assert {span, source.span(0, 1), source.span(1, 3)} == \
        {span, source.span(1, 3)}
    tokens, _ = tokenize(source)
    assert len({token.span for token in tokens}) == len(tokens)
    assert len(set(tokens)) == len(tokens)
    # a model holds one object per file: another file with the same text
    # and path is another file
    twin = SourceFile(path="x", content="abc")
    assert twin != source and twin.span(0, 1) != span


def test_repeated_names_in_one_file_share_one_string():
    tokens, _ = lex("part engine : Engine; part engine2 : Engine; part engine;")
    texts = {}
    for token in tokens:
        assert texts.setdefault(token.text, token.text) is token.text
    assert tokens[3].value is tokens[8].value and tokens[3].text == "Engine"
    root, _ = parse_file(SourceFile(path="<t>", content="package P { part def Engine; "
                                    "part a : Engine; part b : Engine; }"))
    first, second = (usage.attr("typing").path.segments[0]
                     for usage in root.children[0].children[1:])
    assert first is second
