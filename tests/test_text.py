"""Parser and emitter: round trips and positioned errors."""

import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from tdo.circuit import GATES, Circuit
from tdo.text import SourceError, emit, parse

import reference_sim as ref
from conftest import gate
from test_circuit import circuits

# Lines that reach the parser's branches: a keyword or mnemonic, then
# integers it must accept or refuse, usually as many as the head takes.
_HEADS = st.sampled_from(["qubits", "ancillas", *GATES, "QUBITS", "frob", "#"])
_ARGS = st.sampled_from([
    "0", "1", "2", "3", "00", "3000000000", "9" * 40, "-1", "+1", "1_0", "0x1",
    "\u00b9", "\u0661", "\uff11",
])


@st.composite
def _lines(draw):
    head = draw(_HEADS)
    arity = GATES[head].arity if head in GATES else 1
    count = arity if draw(st.integers(0, 3)) else draw(st.integers(0, 4))
    return " ".join([head, *draw(st.lists(_ARGS, min_size=count, max_size=count))])


source_texts = st.one_of(
    st.text(),
    st.lists(st.one_of(_lines(), st.text(max_size=6)), max_size=6).map("\n".join),
    st.lists(_lines(), max_size=6).map(lambda lines: "\n".join(["qubits 4", *lines])),
)

# Texts that repeat a few lines many times, so that parse shares gates.
repeating_texts = st.lists(_lines(), min_size=1, max_size=3).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), max_size=10)
).map(lambda lines: "\n".join(["qubits 4", *lines]))


def test_minimal_parse():
    c = parse("qubits 2\ncx 0 1\n")
    assert c == Circuit(2, 0, (gate("cx", 0, 1),))


def test_parse_with_ancillas_comments_and_blanks():
    source = """\
# a Toffoli-style header
qubits 3
ancillas 4   # parity wires

cx 0 3
t 3   # phase
"""
    c = parse(source)
    assert (c.n_main, c.n_anc) == (3, 4)
    assert c.gates == (gate("cx", 0, 3), gate("t", 3))


def test_emit_canonical_form():
    assert emit(Circuit(1, 0, (gate("t", 0),))) == "qubits 1\nt 0\n"
    assert emit(Circuit(2, 1)) == "qubits 2\nancillas 1\n"
    # ancilla header omitted when zero
    assert "ancillas" not in emit(Circuit(3))


def test_repeated_gate_lines_share_one_gate():
    c = parse("qubits 3\ncx 0 1\nt 2\ncx 0 1\nt 2\nt 2\n")
    first_cx, first_t = c.gates[:2]
    assert c.gates[2] is first_cx
    assert c.gates[3] is first_t and c.gates[4] is first_t
    assert parse(emit(c)) == c
    assert emit(c) == "qubits 3\ncx 0 1\nt 2\ncx 0 1\nt 2\nt 2\n"


def test_repeated_bad_line_fails_at_its_first_occurrence():
    with pytest.raises(SourceError) as excinfo:
        parse("qubits 2\ncx 0 1\ncx 1 1\ncx 0 1\ncx 1 1\n")
    err = excinfo.value
    assert (err.line, err.column, err.message) == (3, 6, "repeated qubit index 1")


class _NoColumns:
    def finditer(self, body):
        raise AssertionError(f"a column was computed for {body!r}")


def test_a_well_formed_file_computes_no_column(monkeypatch):
    monkeypatch.setattr("tdo.text._TOKEN", _NoColumns())
    source = (
        "# a header comment\r\nqubits\t3\r\nancillas 2\t# the pool\r\n\r\n"
        "cx\t0 3\r\nt 3\r\ncx\t0 3\r\nt 3\r\n\t\r\n"
    )
    c = parse(source)
    assert (c.n_main, c.n_anc) == (3, 2)
    assert c.gates == (gate("cx", 0, 3), gate("t", 3)) * 2


def test_emit_parse_normalises_text():
    noisy = "qubits 2\n\n# hi\ncx   0    1\n"
    assert emit(parse(noisy)) == "qubits 2\ncx 0 1\n"


@pytest.mark.parametrize(
    "source, line, column, fragment",
    [
        ("cx 0 1\n", 1, 1, "qubits"),
        ("qubits 1\nt 1\n", 2, 3, "out of range"),
        ("qubits 1\nfrob 0\n", 2, 1, "unknown mnemonic"),
        ("qubits 2\ncx 0\n", 2, 1, "expects 2"),
        ("qubits 2\ncx 0 1 1\n", 2, 8, "expects 2"),
        ("qubits 2\ncx 1 1\n", 2, 6, "repeated"),
        ("qubits 2\nqubits 2\n", 2, 1, "duplicate"),
        ("qubits x\n", 1, 8, "malformed integer"),
        ("qubits 2\nt 0\nancillas 1\n", 3, 1, "ancillas"),
        ("qubits -1\n", 1, 8, "malformed integer"),
        ("qubits 1 2\n", 1, 1, "one integer"),
        ("", 1, 1, "missing"),
    ],
)
def test_errors_carry_positions(source, line, column, fragment):
    with pytest.raises(SourceError) as excinfo:
        parse(source)
    err = excinfo.value
    assert (err.line, err.column) == (line, column)
    assert fragment in err.message


def test_errors_never_escape_as_other_exceptions():
    for source in ("qubits\n", "qubits 1\nt\n", "qubits 99999999999\nswap 0 0\n"):
        with pytest.raises(SourceError):
            parse(source)


@given(circuits())
def test_round_trip_identity(c):
    assert parse(emit(c)) == c


@settings(max_examples=300)
@given(source_texts)
def test_parse_raises_only_source_error(text):
    try:
        c = parse(text)
    except SourceError as exc:
        assert exc.line >= 1 and exc.column >= 1
    else:
        assert parse(emit(c)) == c


def _outcome(text):
    try:
        return parse(text)
    except SourceError as exc:
        return (exc.line, exc.column, exc.message)


@settings(max_examples=300)
@given(st.one_of(source_texts, repeating_texts))
def test_shared_lines_parse_as_if_each_were_new(text):
    # A distinct comment on every line leaves no two lines equal, so no
    # gate is shared; the circuit or the error must be the same.
    tagged = "\n".join(f"{line} #{i}" for i, line in enumerate(text.split("\n")))
    assert _outcome(text) == _outcome(tagged)


# Near the int-string limit: the longest decimal parse accepts, and one more.
# Without a limit (0, or before 3.10.7) parse accepts any length.
_INT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
_MOST_DIGITS = _INT_LIMIT - 1 if _INT_LIMIT else 4299
_EDGE_WORDS = st.sampled_from([
    "qubits", "ancillas", "cx", "t", "ccz", "0", "1", "2", "3", "01", "-1", "+2",
    "\u0661", "\u00b9", "\uff12", "0" * _MOST_DIGITS, "0" * (_MOST_DIGITS + 1),
    "1" * _MOST_DIGITS,
])
# Whitespace that str.split() and the tokeniser's \S+ must both treat as
# a separator: the \x1c-\x1f separators, no-break and ideographic spaces.
_EDGE_GAPS = st.sampled_from([" ", "\t", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                              "\x1f", "\x85", "\u00a0", "\u2003", "\u3000", "  "])


@st.composite
def _edge_lines(draw):
    words = draw(st.lists(_EDGE_WORDS, min_size=1, max_size=4))
    gaps = draw(st.lists(_EDGE_GAPS, min_size=len(words) + 1, max_size=len(words) + 1))
    return "".join(g + w for g, w in zip(gaps, words)) + gaps[-1]


edge_texts = st.lists(
    st.one_of(_lines(), _edge_lines(), st.sampled_from(["qubits 4", "ancillas 1", ""])),
    max_size=8,
).map(lambda lines: "\n".join(["qubits 4", *lines]))


# A refused word after each separator, at each word a refusal can name:
# word 0 (a missing header; an unknown mnemonic), the extra word arity + 1,
# and the second and third qubit (malformed, too long, out of range, repeated).
_TOO_LONG = "1" * (_MOST_DIGITS + 1)
_REFUSED_LINES = [
    ["frob", "0"],
    ["cx", "0", "1", "2"],
    *(["ccx", "0", bad, "2"] for bad in ["-1", _TOO_LONG, "4", "0"]),
    *(["ccx", "0", "1", bad] for bad in ["-1", _TOO_LONG, "4", "1"]),
]
_REFUSED_TEXTS = [
    text
    for sep in ["\t", "\x1c", "\u00a0", "\u3000"]
    for text in [
        f"{sep}cx{sep}0{sep}1",
        *(f"qubits 4\n{sep}{sep.join(words)}" for words in _REFUSED_LINES),
    ]
]


def _with_examples(texts):
    def decorate(test):
        for text in texts:
            test = example(text)(test)
        return test
    return decorate


def _reference_outcome(text):
    try:
        return ref.parse(text)
    except SourceError as exc:
        return (exc.line, exc.column, exc.message)


@_with_examples(_REFUSED_TEXTS)
@settings(max_examples=400)
@given(st.one_of(source_texts, repeating_texts, edge_texts))
def test_parse_matches_the_reference_tokeniser(text):
    assert _outcome(text) == _reference_outcome(text)


@pytest.mark.parametrize("sep", ["\x1c", "\x1f", "\u00a0", "\u3000"])
def test_unicode_whitespace_separates_tokens_on_both_paths(sep):
    text = f"qubits 2\ncx{sep}0{sep}1\ncx 1{sep}\u0661\n"
    assert _outcome(text) == _reference_outcome(text) == (3, 6, "malformed integer '\u0661'")
    assert parse(f"qubits 2\ncx{sep}0{sep}1\n").gates == (gate("cx", 0, 1),)


@pytest.mark.parametrize("digits", [_MOST_DIGITS, _MOST_DIGITS + 1])
def test_gate_indices_at_the_int_string_limit(digits):
    text = f"qubits 2\nt 1\ncx 1 {'0' * digits}\n"
    assert _outcome(text) == _reference_outcome(text)
    if _INT_LIMIT and digits > _MOST_DIGITS:
        assert _outcome(text)[:2] == (3, 6)
    else:
        assert _outcome(text).gates[1] == gate("cx", 1, 0)
