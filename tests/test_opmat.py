"""Round-trip and failure behavior of the opmat file format: v2, the
nonzero list that is written, and v1, the whole matrix, still read."""

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


RECORD = np.dtype([("at", "<u8"), ("value", "<c16")])


def one_shot_text(op, name):
    """The opmat v1 text form encoded in one piece: the header line, then
    base64 of the whole matrix."""
    header = {**_header_for(op, name), "format": "opmat v1"}
    payload = np.ascontiguousarray(op.entries, dtype="<c16").tobytes(order="C")
    return json.dumps(header, sort_keys=True) + "\n" + base64.b64encode(payload).decode("ascii") + "\n"


def one_shot_v2_text(op, name):
    """The opmat v2 text form encoded in one piece: the header line with
    the record count, then base64 of every record, one per entry whose
    bytes are not all zero, in row-major order."""
    flat = np.ascontiguousarray(op.entries, dtype="<c16").reshape(-1)
    at = np.flatnonzero(flat.view("<u8").reshape(-1, 2).any(axis=1))
    records = np.empty(at.size, dtype=RECORD)
    records["at"] = at
    records["value"] = flat[at]
    header = {**_header_for(op, name), "entries": int(at.size)}
    return json.dumps(header, sort_keys=True) + "\n" + base64.b64encode(records.tobytes()).decode("ascii") + "\n"


def _sparse_op(window, seed=0):
    """A random operator with most entries zero, some -0.0, and whole
    rows of zeros."""
    rng = np.random.default_rng(seed)
    d = window.dimension
    entries = _random_op(window, seed).entries.copy()
    entries[rng.random((d, d)) < 0.9] = 0.0
    entries[rng.random((d, d)) < 0.02] = complex(-0.0, 0.0)
    entries[rng.random(d) < 0.5] = 0.0
    return Operator(window, entries)


@pytest.mark.parametrize(
    "window",
    [
        TruncationWindow.line(1),  # one row chunk
        TruncationWindow.line(2),
        TruncationWindow.plane(6),  # two row chunks
        TruncationWindow.line(200),  # many row chunks
    ],
)
def test_streamed_text_is_the_one_shot_text(tmp_path, window):
    for op in (_random_op(window, seed=window.dimension), _sparse_op(window, seed=window.dimension)):
        want = one_shot_v2_text(op, "probe")
        assert dumps_operator(op, "probe") == want
        path = save_operator(op, tmp_path / "a.opmat", name="probe")
        assert path.read_bytes() == want.encode("ascii")
        assert np.array_equal(load_operator(path).entries.view(np.uint8), op.entries.view(np.uint8))


def test_v1_file_loads_bit_for_bit(tmp_path):
    w = TruncationWindow.plane("3/2")
    d = w.dimension
    op = Operator(w, _special_floats(np.random.default_rng(8), 2 * d * d).view("<c16").reshape(d, d))
    path = tmp_path / "v1.opmat"
    path.write_text(one_shot_text(op, "old"), encoding="ascii")
    back = load_operator(path)
    assert back.window == w
    assert back.tags["name"] == "old"
    assert np.array_equal(back.entries.view(np.uint8), op.entries.view(np.uint8))
    assert dumps_operator(back, "old") == one_shot_v2_text(op, "old")


@pytest.mark.parametrize("window", [TruncationWindow.plane(3), TruncationWindow.line(4)])
def test_zero_and_identity_round_trip(window):
    for op, count in ((Operator.zero(window), 0), (Operator.identity(window), window.dimension)):
        text = dumps_operator(op, "z")
        head, _, body = text.partition("\n")
        assert json.loads(head)["entries"] == count
        assert len(body.strip()) == 32 * count  # 24 bytes a record, 4 characters per 3 bytes
        back = loads_operator(text)
        assert back.window == window
        assert np.array_equal(back.entries.view(np.uint8), op.entries.view(np.uint8))


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
        "format": "opmat v2",
        "entries": op.window.dimension,  # a diagonal with no zero
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


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda h, r: (dict(h, entries=True), r), id="bool-count"),
        pytest.param(lambda h, r: (dict(h, entries=2.0), r), id="float-count"),
        pytest.param(lambda h, r: (dict(h, entries=-1), r[:0]), id="negative-count"),
        pytest.param(lambda h, r: (dict(h, entries=26), r), id="count-past-d2"),
        pytest.param(lambda h, r: (dict(h, entries=4), r), id="count-short"),
        pytest.param(lambda h, r: (h, np.concatenate([r, r[-1:]])), id="extra-record"),
        pytest.param(lambda h, r: (h, r.tobytes()[:-1]), id="cut-record"),
        pytest.param(lambda h, r: (h, _set_at(r, 4, 25)), id="position-d2"),
        pytest.param(lambda h, r: (h, _set_at(r, 4, 2**64 - 1)), id="position-max"),
        pytest.param(lambda h, r: (h, _set_at(r, [1, 2], [12, 6])), id="swapped"),
        pytest.param(lambda h, r: (h, _set_at(r, 2, 6)), id="duplicate"),
    ],
)
def test_rejects_mangled_v2_records(edit):
    head, body = _identity_text(TruncationWindow.plane(1))  # positions 0, 6, 12, 18, 24
    records = np.frombuffer(base64.b64decode(body), dtype=RECORD).copy()
    head, records = edit(head, records)
    payload = records if isinstance(records, bytes) else records.tobytes()
    with pytest.raises(OpmatPayloadError):
        loads_operator(json.dumps(head) + "\n" + base64.b64encode(payload).decode("ascii") + "\n")


def _set_at(records, i, value):
    records["at"][i] = value
    return records


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
    head, body = one_shot_text(Operator.identity(TruncationWindow.plane(1)), "id").splitlines()
    head = json.loads(head)

    def listed(window):
        raise AssertionError("the window's sites were listed")

    monkeypatch.setattr(TruncationWindow, "sites", property(listed))
    head.update(representation=representation, radius=radius, dimension=dimension)
    with pytest.raises(error):
        loads_operator(json.dumps(head) + "\n" + body + "\n")


@pytest.mark.parametrize(
    "representation, radius, dimension, entries, error",
    [
        ("Z2", "1000000000000", 5, 5, OpmatDimensionError),  # below the inscribed square
        ("Z2", "1000000000000", 10**30, 5, OpmatPayloadError),  # past what a position addresses
        ("Z2", "1000000", 3 * 10**12, 5, OpmatPayloadError),  # plausible, but not addressable
        ("Z2", "1000000", 3 * 10**12, 0, OpmatPayloadError),  # the same claim with no records
        ("Z", "1000000000000000", 7, 5, OpmatDimensionError),
        ("Z", "1000000000000000", 2 * 10**15 + 1, 0, OpmatPayloadError),  # the count, not addressable
        ("Z", "1000000000", 2 * 10**9 + 1, 0, OpmatPayloadError),  # addressable, too large to form
    ],
)
def test_huge_radius_v2_is_rejected_without_listing_sites(
    monkeypatch, representation, radius, dimension, entries, error
):
    head, body = _identity_text(TruncationWindow.plane(1))

    def listed(window):
        raise AssertionError("the window's sites were listed")

    monkeypatch.setattr(TruncationWindow, "sites", property(listed))
    head.update(representation=representation, radius=radius, dimension=dimension, entries=entries)
    with pytest.raises(error):
        loads_operator(json.dumps(head) + "\n" + (body if entries else "") + "\n")


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
    "entries": st.sampled_from([0, 1, 3, 4, 6, 25, 26, -1, True, 2.5, "5", 10**40]) | st.integers(),
}


def _mangle_records(draw, raw, count, d):
    """A v2 payload with one record cut short, a position out of range,
    two positions swapped, a position duplicated, or the count off by one:
    (the payload bytes, the count to write in the header)."""
    records = np.frombuffer(raw, dtype=RECORD).copy()
    edit = draw(st.sampled_from(["cut", "range", "swap", "duplicate", "count"]))
    i = draw(st.integers(0, count - 1))
    if edit == "cut":
        return raw[: len(raw) - draw(st.integers(1, RECORD.itemsize))], count
    if edit == "range":
        records["at"][i] = draw(st.sampled_from([d * d, d * d + 1, 2**63, 2**64 - 1]))
    elif edit == "swap":
        j = draw(st.integers(0, count - 1))
        records["at"][[i, j]] = records["at"][[j, i]]
    elif edit == "duplicate":
        records["at"][i] = records["at"][draw(st.integers(0, count - 1))]
    else:
        return raw, count + draw(st.sampled_from([-1, 1]))
    return records.tobytes(), count


@st.composite
def mutated_files(draw):
    """The text of a small saved operator, in v2 or v1, with some header
    fields replaced, dropped or mangled, v2 records mangled, and the
    payload cut, edited or padded."""
    window = draw(st.sampled_from([TruncationWindow.line(1), TruncationWindow.plane(1)]))
    if draw(st.booleans()):
        head, body = _identity_text(window)
        if draw(st.booleans()):
            raw, head["entries"] = _mangle_records(
                draw, base64.b64decode(body), head["entries"], window.dimension
            )
            body = base64.b64encode(raw).decode("ascii")
    else:
        head, body = one_shot_text(Operator.identity(window), "id").splitlines()
        head = json.loads(head)
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
