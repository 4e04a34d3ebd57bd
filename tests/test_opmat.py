"""Round-trip and failure behavior of the opmat v1 file format."""

import base64
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oplab.errors import OplabError, OpmatDimensionError, OpmatHeaderError, OpmatPayloadError
from oplab.opmat import _header_for, dumps_operator, load_operator, loads_operator, save_operator
from oplab.operators import Operator, laughlin_operator
from oplab.windows import AmplifiedWindow, TruncationWindow

from conftest import traced_peak


def _random_op(window, seed=0):
    rng = np.random.default_rng(seed)
    d = window.dimension
    return Operator(window, rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))


def one_shot_text(op, name):
    """The two-line text form encoded in one piece: the header line, then
    base64 of the whole payload."""
    header = _header_for(op, name)
    payload = np.ascontiguousarray(op.entries, dtype="<c16").tobytes(order="C")
    return json.dumps(header, sort_keys=True) + "\n" + base64.b64encode(payload).decode("ascii") + "\n"


@pytest.mark.parametrize(
    "window",
    [
        TruncationWindow.line(1),  # 144 payload bytes, a multiple of 3
        TruncationWindow.line(2),  # 400 bytes: one left over
        TruncationWindow.plane(6),  # 204304 bytes: more than one piece, one left over
        TruncationWindow.line(200),  # 2572816 bytes: many pieces, one left over
    ],
)
def test_streamed_text_is_the_one_shot_text(tmp_path, window):
    op = _random_op(window, seed=window.dimension)
    want = one_shot_text(op, "probe")
    assert dumps_operator(op, "probe") == want
    path = save_operator(op, tmp_path / "a.opmat", name="probe")
    assert path.read_bytes() == want.encode("ascii")


def test_save_operator_holds_less_than_the_matrix(tmp_path):
    w = TruncationWindow.plane(12)
    op = _random_op(w, seed=4)
    _, peak = traced_peak(lambda: save_operator(op, tmp_path / "a.opmat"))
    assert peak < 16 * w.dimension**2  # under one d x d complex array


def test_round_trip_is_bit_exact(tmp_path):
    w = TruncationWindow.plane("3/2")
    op = _random_op(w, seed=3)
    path = save_operator(op, tmp_path / "a.opmat", name="probe")
    back = load_operator(path)
    assert back.window == w
    assert np.array_equal(back.entries, op.entries)
    assert back.tags["name"] == "probe"


def test_round_trip_line_window(tmp_path):
    w = TruncationWindow.line(5)
    op = _random_op(w, seed=4)
    back = load_operator(save_operator(op, tmp_path / "b.opmat"))
    assert back.window == w
    assert np.array_equal(back.entries, op.entries)


def _special_floats(rng, n):
    """n float64 bit patterns drawn from random bytes, with one in five
    each forced to a NaN with a random payload, an infinity, a zero or a
    subnormal, all of random sign."""
    bits = rng.integers(0, 2**64, size=n, dtype=np.uint64)
    sign = bits & np.uint64(1 << 63)
    mantissa = bits & np.uint64((1 << 52) - 1)
    exponent_ones = np.uint64(0x7FF << 52)
    kind = rng.integers(0, 5, size=n)
    special = (
        bits,
        sign | exponent_ones | mantissa | np.uint64(1),  # NaN, payload kept
        sign | exponent_ones,  # +-inf
        sign,  # +-0.0
        sign | mantissa | np.uint64(1),  # subnormal
    )
    return np.choose(kind, special)


@given(
    representation=st.sampled_from(["Z", "Z2"]),
    radius=st.sampled_from(["1/2", "1", "3/2", "2", "5/2"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_round_trip_keeps_every_bit_pattern(representation, radius, seed):
    w = TruncationWindow(representation, Fraction(radius))
    d = w.dimension
    bits = _special_floats(np.random.default_rng(seed), 2 * d * d)
    op = Operator(w, bits.view("<c16").reshape(d, d))
    text = dumps_operator(op, name="bits")
    back = loads_operator(text)
    assert back.window == w
    # NaN != NaN, so compare the bytes rather than the values
    assert np.array_equal(back.entries.view(np.uint8), op.entries.view(np.uint8))
    assert np.array_equal(back.entries.view(np.uint64).ravel(), bits)
    assert dumps_operator(back, name="bits") == text


def test_serialization_is_deterministic():
    op = laughlin_operator(TruncationWindow.plane(2))
    text = dumps_operator(op, name="phase")
    assert text == dumps_operator(op, name="phase")
    assert text == dumps_operator(loads_operator(text), name="phase")


def test_header_fields():
    op = laughlin_operator(TruncationWindow.plane("5/2"))
    head = json.loads(dumps_operator(op, name="u").splitlines()[0])
    assert head == {
        "format": "opmat v1",
        "representation": "Z2",
        "radius": "5/2",
        "basis": "radial-angular-lex/v1",
        "name": "u",
        "dimension": op.window.dimension,
    }


def test_name_falls_back_to_operator_tag():
    op = laughlin_operator(TruncationWindow.plane(1))
    head = json.loads(dumps_operator(op).splitlines()[0])
    assert head["name"] == "angular-phase"


def test_rejects_amplified_window():
    base = TruncationWindow.line(2)
    amp = AmplifiedWindow(base, 2)
    op = Operator.identity(amp)
    with pytest.raises(OpmatHeaderError):
        dumps_operator(op)


def test_rejects_bad_header_json():
    with pytest.raises(OpmatHeaderError):
        loads_operator("not json\nAAAA\n")


def test_rejects_missing_fields():
    head = json.dumps({"format": "opmat v1", "representation": "Z"})
    with pytest.raises(OpmatHeaderError) as err:
        loads_operator(head + "\nAAAA\n")
    assert "missing" in str(err.value)


def test_rejects_unknown_format_tag():
    text = dumps_operator(Operator.identity(TruncationWindow.line(1)))
    head, body = text.splitlines()
    bad = json.loads(head)
    bad["format"] = "opmat v9"
    with pytest.raises(OpmatHeaderError):
        loads_operator(json.dumps(bad) + "\n" + body + "\n")


def test_rejects_dimension_mismatch():
    text = dumps_operator(Operator.identity(TruncationWindow.line(1)))
    head, body = text.splitlines()
    bad = json.loads(head)
    bad["dimension"] = 7
    with pytest.raises(OpmatDimensionError):
        loads_operator(json.dumps(bad) + "\n" + body + "\n")


def test_rejects_corrupt_payload():
    text = dumps_operator(Operator.identity(TruncationWindow.line(1)))
    head, body = text.splitlines()
    with pytest.raises(OpmatPayloadError):
        loads_operator(head + "\n" + "@@@not base64@@@" + "\n")
    truncated = base64.b64encode(base64.b64decode(body)[:-16]).decode()
    with pytest.raises(OpmatPayloadError):
        loads_operator(head + "\n" + truncated + "\n")


def test_rejects_headerless_text():
    with pytest.raises(OpmatHeaderError):
        loads_operator("just one line no newline")


def _identity_text(window):
    head, body = dumps_operator(Operator.identity(window), name="id").splitlines()
    return json.loads(head), body


@pytest.mark.parametrize(
    "field, value",
    [
        ("radius", [1]),
        ("radius", None),
        ("radius", "-1"),
        ("radius", "0"),
        ("radius", True),
        ("radius", "1/0"),
        ("radius", float("inf")),
        ("radius", float("nan")),
        ("dimension", True),
        ("dimension", 2.5),
        ("name", 5),
    ],
)
def test_rejects_bad_header_values(field, value):
    head, body = _identity_text(TruncationWindow.plane(1))
    head[field] = value
    with pytest.raises(OpmatHeaderError):
        loads_operator(json.dumps(head) + "\n" + body + "\n")


@pytest.mark.parametrize("representation", ["Z", "Z2"])
@pytest.mark.parametrize("radius", ["1/3", "1/2", "1", "7/5", "3/2", "2", "7/3", "5", "37/4", "12"])
def test_site_count_matches_the_enumeration(representation, radius):
    window = TruncationWindow(representation, Fraction(radius))
    head, body = _identity_text(window)
    assert loads_operator(json.dumps(head) + "\n" + body + "\n").window == window
    for wrong in {max(window.dimension - 1, 1), window.dimension + 1} - {window.dimension}:
        head["dimension"] = wrong
        with pytest.raises(OpmatDimensionError):
            loads_operator(json.dumps(head) + "\n" + body + "\n")


@pytest.mark.parametrize(
    "representation, radius, dimension, error",
    [
        ("Z2", "1000000000000", 5, OpmatDimensionError),  # below the inscribed square
        ("Z2", "1000000000000", 10**30, OpmatDimensionError),  # above the bounding square
        ("Z2", "1000000", 3 * 10**12, OpmatPayloadError),  # plausible, but no payload holds it
        ("Z", "1000000000000000", 7, OpmatDimensionError),
    ],
)
def test_huge_radius_is_rejected_without_listing_sites(monkeypatch, representation, radius, dimension, error):
    head, body = _identity_text(TruncationWindow.plane(1))

    def listed(window):
        raise AssertionError("the window's sites were listed")

    monkeypatch.setattr(TruncationWindow, "sites", property(listed))
    head.update(representation=representation, radius=radius, dimension=dimension)
    with pytest.raises(error):
        loads_operator(json.dumps(head) + "\n" + body + "\n")


@pytest.mark.parametrize("where", ["header", "payload"])
def test_non_ascii_file_is_an_opmat_error(tmp_path, where):
    text = dumps_operator(Operator.identity(TruncationWindow.line(1)))
    head, body = text.splitlines()
    if where == "header":
        head = head.replace('"id"', '"é"').replace('"name": ""', '"name": "é"')
    else:
        body = body[:4] + "é" + body[4:]
    path = tmp_path / "bad.opmat"
    path.write_bytes((head + "\n" + body + "\n").encode("utf-8"))
    error = OpmatHeaderError if where == "header" else OpmatPayloadError
    with pytest.raises(error, match="not ASCII"):
        load_operator(path)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
_FIELD_VALUES = {
    "format": st.sampled_from(["opmat v1", "opmat v2", ""]),
    "representation": st.sampled_from(["Z", "Z2", "Z3", "z"]),
    "radius": st.sampled_from(["1", "3/2", "2", "-1", "0", "1/0", "nan", "1e400", "10", "x"])
    | st.integers(-3, 10**15)
    | st.floats(),
    "basis": st.sampled_from(["radial-angular-lex/v1", "lex"]),
    "name": st.sampled_from(["", "u", "é"]),
    "dimension": st.sampled_from([1, 3, 5, 9, 13, 0, -5, True, 10**40]) | st.integers(),
}


@st.composite
def mutated_files(draw):
    """The text of a small saved operator with some header fields
    replaced, dropped or mangled and the payload cut, edited or padded."""
    window = draw(st.sampled_from([TruncationWindow.line(1), TruncationWindow.plane(1)]))
    head, body = _identity_text(window)
    for name in draw(st.lists(st.sampled_from(sorted(head)), max_size=2, unique=True)):
        action = draw(st.sampled_from(["field", "field", "any", "drop"]))
        if action == "field":
            head[name] = draw(_FIELD_VALUES[name])
        elif action == "any":
            head[name] = draw(_JSON_VALUES)
        else:
            del head[name]
    header = json.dumps(head)
    if draw(st.integers(0, 9)) == 0:
        header = draw(st.sampled_from(["", "[]", "{", header[:-1], header + "x", "null"]))
    edit = draw(st.sampled_from(["keep", "keep", "keep", "cut", "char", "pad", "text"]))
    at = draw(st.integers(0, len(body)))
    if edit == "cut":
        body = body[:at]
    elif edit == "char":
        body = body[:at] + draw(st.characters()) + body[at:]
    elif edit == "pad":
        body = body + draw(st.sampled_from(["AAAA", "====", "A"]))
    elif edit == "text":
        body = draw(st.text(max_size=40))
    return header + draw(st.sampled_from(["\n", "\r\n", ""])) + body + "\n"


@settings(max_examples=300)
@given(mutated_files())
def test_loads_operator_fails_only_with_opmat_errors(text):
    try:
        op = loads_operator(text)
    except OplabError:
        return
    head = json.loads(text.partition("\n")[0])
    assert op.window.dimension == head["dimension"]
    assert op.entries.shape == (head["dimension"],) * 2
