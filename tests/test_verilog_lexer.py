"""Unit tests for the Verilog lexer.

``tests/golden/token_streams.json`` pins the exact token stream (kind,
value, line, col) of every benchmark reference and testbench, a
generated corpus plus one mutated variant of each design, and a set of
hand-written edge and error inputs.  Rewrite it only when a lexing
change is intended, by running this file as a script::

    PYTHONPATH=src python tests/test_verilog_lexer.py
"""

import hashlib
import json
import os
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.verilog import TokenKind, VerilogLexError, tokenize
from repro.verilog import lexer

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden", "token_streams.json")


def kinds(text):
    return [t.kind for t in tokenize(text)[:-1]]


def values(text):
    return [t.value for t in tokenize(text)[:-1]]


class TestBasicTokens:
    def test_keywords_and_identifiers(self):
        toks = tokenize("module counter endmodule foo")
        assert toks[0].kind is TokenKind.KEYWORD
        assert toks[1].kind is TokenKind.ID
        assert toks[2].kind is TokenKind.KEYWORD
        assert toks[3].kind is TokenKind.ID

    def test_identifier_with_dollar_and_digits(self):
        assert values("a1_$x") == ["a1_$x"]

    def test_eof_token_always_present(self):
        toks = tokenize("")
        assert len(toks) == 1
        assert toks[0].kind is TokenKind.EOF

    def test_escaped_identifier(self):
        toks = tokenize(r"\bus+index other")
        assert toks[0].kind is TokenKind.ID
        assert toks[0].value == "bus+index"
        assert toks[1].value == "other"

    def test_system_identifier(self):
        toks = tokenize("$display $finish")
        assert all(t.kind is TokenKind.SYSTEM_ID for t in toks[:-1])
        assert values("$display $finish") == ["$display", "$finish"]


class TestNumbers:
    @pytest.mark.parametrize("text", [
        "42", "8'hFF", "4'b10x1", "'b1010", "12'o777", "16'd255",
        "8'sb1010_1010", "3 'd7",
    ])
    def test_number_forms_single_token(self, text):
        toks = tokenize(text)
        assert toks[0].kind is TokenKind.NUMBER
        assert len(toks) == 2  # number + EOF

    def test_underscores_allowed(self):
        assert values("32'h dead_beef")[0] == "32'h dead_beef"

    def test_real_literal(self):
        toks = tokenize("3.14")
        assert toks[0].kind is TokenKind.NUMBER
        assert toks[0].value == "3.14"

    def test_number_then_colon_not_base(self):
        # "2:0" in a range must not eat ':' as part of the number.
        assert values("[2:0]") == ["[", "2", ":", "0", "]"]

    def test_based_no_digits_raises(self):
        with pytest.raises(VerilogLexError):
            tokenize("8'h ;")


class TestOperators:
    def test_multichar_operators_greedy(self):
        assert values("<= === <<< ~^ +: ->") == \
            ["<=", "===", "<<<", "~^", "+:", "->"]

    def test_shift_vs_relational(self):
        assert values("a<<2") == ["a", "<<", "2"]
        assert values("a<2") == ["a", "<", "2"]

    def test_unknown_character_raises(self):
        with pytest.raises(VerilogLexError):
            tokenize("reg \x01 x;")


class TestTrivia:
    def test_line_comment_skipped(self):
        assert values("a // comment\n b") == ["a", "b"]

    def test_block_comment_skipped(self):
        assert values("a /* x\ny */ b") == ["a", "b"]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(VerilogLexError):
            tokenize("/* never ends")

    def test_directive_skipped(self):
        assert values("`timescale 1ns/1ps\nmodule") == ["module"]

    def test_string_literal(self):
        toks = tokenize('"hello %d"')
        assert toks[0].kind is TokenKind.STRING
        assert toks[0].value == "hello %d"

    def test_unterminated_string_raises(self):
        with pytest.raises(VerilogLexError):
            tokenize('"abc')


class TestPositions:
    def test_line_and_column_tracking(self):
        toks = tokenize("module m;\n  wire x;")
        wire = [t for t in toks if t.value == "wire"][0]
        assert wire.line == 2
        assert wire.col == 3

    def test_position_after_block_comment(self):
        toks = tokenize("/* a\nb */ module")
        assert toks[0].line == 2


# -- golden token streams ----------------------------------------------------

#: Hand-written inputs pinned next to the generated ones: lexically
#: awkward but valid texts, and one input per error path (with the
#: error's position quirks, e.g. the end-of-text column of an
#: unterminated block comment).
HANDWRITTEN = (
    "`timescale 1ns/1ps\n`define W 8\nmodule m; endmodule\n",
    "a // line comment\n/* block\n   comment */ b /**/ c //* still line\n",
    "\\bus[0] \\a+b\t\\x\n\\",
    '$display("%d\\n\\"quoted\\" \\\\", x); $$ $a$b',
    "\"multi\nline\" x",
    "8'hFF 8 'hFF 8'h FF 3 'd 7 'b1010 'sb1 4'SB1x?z_ 32'h dead_beef",
    "12'o777 16'D255 1'bX 1'bz 1'b? 2'sd3 8'shA5",
    "3.14 1_000.0_1 3. 3.x 2:0 1_2_3 8 _x 0.5'h1",
    "<<< >>> === !== ** << >> <= >= == != && || ~& ~| ~^ ^~ +: -: -> =>",
    "+-*/%&|^~!<>=?:;,.#@()[]{}",
    "module m(input a, output reg b);\r\n  always @(*) b = a;\r\nendmodule",
    "x\t=\ty ;\t// tabs\n\n\n   z",
    "",
    "   \n\t  // only trivia\n",
    "8'h ;",
    "assign y = 4'b;",
    "assign y = 'sh ;\n",
    "x = 8 'd\n5;",
    "x = 1'B\t\t;",
    "{a, b} = 2'bx;  c = 'd ;",
    "reg \x01 x;",
    "always @(posedge clk) x <= y \u00a3 z;",
    "wire \u00e9;",
    "x\ty\t@\t~\t\x7f",
    "/* never ends",
    "module m;\n  /* a\n b",
    "/* ok */ /* bad",
    "/*/",
    '"abc',
    'wire a;\n wire b = "line\\\n',
    '"ends with backslash\\',
    'initial $display("%d", x);\n"unterminated\n\nmore',
    "x = 'q1;",
    "'",
    "8'",
    "a = ?;\n b = 'z1;",
)


def stream_digest(tokens):
    """sha256 over the ``kind|value|line|col`` lines of a token stream."""
    lines = "\n".join(f"{t.kind.name}|{t.value}|{t.line}|{t.col}"
                      for t in tokens)
    return hashlib.sha256(lines.encode("utf-8")).hexdigest()


def lex_outcome(text):
    """The golden entry for one input: its stream digest or its error."""
    try:
        tokens = tokenize(text)
    except VerilogLexError as exc:
        return {"error": [exc.message, exc.line, exc.col]}
    return {"tokens": len(tokens), "sha256": stream_digest(tokens)}


def generated_inputs():
    """(name, text) for the suite sources and a mutated corpus."""
    from repro.bench import rtllm_suite, thakur_suite
    from repro.core import Mutator
    from repro.corpus import generate_corpus
    for problem in thakur_suite() + rtllm_suite():
        yield f"{problem.suite}/{problem.name}/reference", problem.reference
        yield f"{problem.suite}/{problem.name}/testbench", problem.testbench
    for index, text in enumerate(generate_corpus(64, seed=0)):
        yield f"corpus/{index}", text
        yield (f"corpus/{index}/mutated",
               Mutator(seed=index).mutate(text).mutated)


def build_golden():
    return {
        "streams": {name: lex_outcome(text)
                    for name, text in generated_inputs()},
        "handwritten": [dict(text=text, **lex_outcome(text))
                        for text in HANDWRITTEN],
    }


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


class TestGoldenStreams:
    def test_generated_inputs_match(self, golden):
        inputs = dict(generated_inputs())
        assert sorted(inputs) == sorted(golden["streams"])
        mismatched = [name for name, text in inputs.items()
                      if lex_outcome(text) != golden["streams"][name]]
        assert mismatched == []

    def test_handwritten_inputs_match(self, golden):
        for case in golden["handwritten"]:
            expected = {key: value for key, value in case.items()
                        if key != "text"}
            assert lex_outcome(case["text"]) == expected, case["text"]

    def test_fixture_covers_every_error_path(self, golden):
        messages = {case["error"][0].split(" '")[0]
                    for case in golden["handwritten"] if "error" in case}
        assert messages == {"based literal has no digits",
                            "invalid based literal",
                            "unterminated string",
                            "unexpected character",
                            "unterminated block comment"}



# -- properties --------------------------------------------------------------

#: Verilog-ish text: the lexer's every token class, trivia and error
#: trigger, mixed freely.
verilogish = st.lists(st.sampled_from((
    "module", "wire", "x", "a1_$", " ", "\n", "\t", "\r\n", "// c\n",
    "/* c\n */", "/*", "*/", "`define W 8\n", "\\esc", "\\", "$disp",
    "$", '"s\\"', '"', "8", "3.14", "'", "'h", "'sb", "8'hFF", "4 'b1",
    "x", "z", "?", "_", "<<<", "<=", "==", "->", "+:", ";", "(", ")", "[",
    "]", ":", ".", "#", "@", "~^", "\x01", "\u00e9")), max_size=40).map(
        "".join)


def check_offsets(text):
    """Token offsets strictly increase and each starts the token's text."""
    try:
        tokens = tokenize(text)
    except VerilogLexError:
        return
    line_starts = [0] + [pos + 1 for pos, ch in enumerate(text)
                         if ch == "\n"]
    offsets = [line_starts[t.line - 1] + t.col - 1 for t in tokens]
    assert offsets == sorted(set(offsets))
    assert offsets[-1] == len(text) and tokens[-1].kind is TokenKind.EOF
    for token, offset in zip(tokens[:-1], offsets):
        if token.kind is TokenKind.STRING:
            source = '"' + token.value
        elif token.kind is TokenKind.ID and text[offset] == "\\":
            source = "\\" + token.value
        else:
            source = token.value
        assert text.startswith(source, offset), (token, offset)


class TestProperties:
    @given(verilogish)
    @settings(max_examples=200, deadline=None)
    def test_offsets_increase_and_start_each_token(self, text):
        check_offsets(text)

    @pytest.mark.slow
    @given(verilogish)
    @settings(max_examples=5000, deadline=None)
    def test_offsets_increase_and_start_each_token_deep(self, text):
        check_offsets(text)


# -- token memo --------------------------------------------------------------

class TestMemo:
    def test_returned_list_is_private_to_the_caller(self):
        text = "module memo_private; endmodule"
        first = tokenize(text)
        expected = list(first)
        first.clear()
        assert tokenize(text) == expected

    def test_errors_carry_each_callers_filename(self):
        text = "wire memo_bad = 8'h ;"
        for filename in ("a.v", "b.v", "a.v"):
            with pytest.raises(VerilogLexError) as info:
                tokenize(text, filename)
            assert info.value.filename == filename
            assert (info.value.line, info.value.col) == (1, 21)
            assert str(info.value).startswith(f"{filename}:1: ERROR:")

    def test_memo_is_bounded(self):
        for index in range(lexer.MEMO_SIZE + 50):
            tokenize(f"wire memo_{index};")
        assert lexer._lex_memo.cache_info().currsize <= lexer.MEMO_SIZE
        assert lexer.MEMO_SIZE == 256

    def test_threads_share_the_memo_safely(self):
        texts = [f"module t{index}; wire [{index}:0] w; endmodule"
                 for index in range(lexer.MEMO_SIZE * 2)]
        expected = [list(lexer._lex(text)) for text in texts]
        failures = []

        def worker(offset):
            for step in range(len(texts)):
                index = (offset * 37 + step) % len(texts)
                if tokenize(texts[index]) != expected[index]:
                    failures.append(index)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(offset,))
                       for offset in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w", encoding="utf-8") as out:
        json.dump(build_golden(), out, indent=1, sort_keys=True)
        out.write("\n")
