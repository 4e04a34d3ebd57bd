"""Reading and writing operators as ``.opmat`` files.

A file is a single JSON header line followed by one base64 line of
little-endian bytes.  The header pins down the window (representation
and radius) and the basis convention, so a load either reproduces the
operator bit for bit or fails with a specific error.

``opmat v2``, the format written, holds the operator's nonzero list: the
header adds the record count ``entries``, and the payload is that many
24-byte records in row-major order, each the flat position r d + c as
uint64 followed by the entry as complex128.  An entry counts as nonzero
when any of its 16 bytes does, so -0.0 and NaN payloads are kept.
``opmat v1`` files, whose payload is the whole matrix as complex128 in
row-major order, are still read.
"""

from __future__ import annotations

import base64
import binascii
import io
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

from .errors import OpmatDimensionError, OpmatHeaderError, OpmatPayloadError
from .operators import Operator
from .windows import BASIS_TAG, TruncationWindow

FORMAT_TAG = "opmat v2"
_FORMAT_V1 = "opmat v1"

_HEADER_FIELDS = ("format", "representation", "radius", "basis", "name", "dimension")

# one v2 record; 24 bytes, a multiple of 3, so the base64 of any run of
# whole records ends on a whole group and the runs join into one encoding
_RECORD = np.dtype([("at", "<u8"), ("value", "<c16")])
# a record's uint64 position addresses at most this many entries
_POSITIONS = 2**64


def _header_for(op: Operator, name: str) -> dict:
    """The header of ``op`` without its record count."""
    window = op.window
    if not isinstance(window, TruncationWindow):
        raise OpmatHeaderError(
            "only operators on a plain truncation window can be saved; "
            f"got {type(window).__name__}"
        )
    return {
        "format": FORMAT_TAG,
        "representation": window.representation,
        "radius": window.radius_text(),
        "basis": BASIS_TAG,
        "name": name,
        "dimension": window.dimension,
    }


# matrix bytes read per row chunk, so the writer holds only a chunk's
# records and their text besides the operator
_PIECE_BYTES = 3 * 2**16


def _row_chunks(entries: np.ndarray):
    """(first row, nonzero mask) of each row chunk: the mask marks the
    entries whose bytes are not all zero."""
    d = entries.shape[0]
    step = max(1, _PIECE_BYTES // (16 * d))
    for start in range(0, d, step):
        halves = entries[start : start + step].view("<u8")
        yield start, (halves[:, 0::2] | halves[:, 1::2]) != 0


def _write_operator(op: Operator, name: str, out) -> None:
    """Write the two-line v2 text form to the text stream ``out``: a
    counting pass over row chunks for the header's record count, then
    each chunk's records base64-encoded in turn, so no copy of the whole
    matrix, payload or text is made."""
    entries = np.ascontiguousarray(op.entries, dtype="<c16")
    count = sum(int(np.count_nonzero(mask)) for _, mask in _row_chunks(entries))
    header = dict(_header_for(op, name or op.tags.get("name", "")), entries=count)
    out.write(json.dumps(header, sort_keys=True) + "\n")
    d = entries.shape[0]
    for start, mask in _row_chunks(entries):
        at = np.flatnonzero(mask)
        records = np.empty(at.size, dtype=_RECORD)
        records["at"] = at + start * d
        records["value"] = entries[start : start + mask.shape[0]].reshape(-1)[at]
        out.write(base64.b64encode(memoryview(records).cast("B")).decode("ascii"))
    out.write("\n")


def dumps_operator(op: Operator, name: str = "") -> str:
    """Serialize ``op`` to the two-line text form."""
    text = io.StringIO()
    _write_operator(op, name, text)
    return text.getvalue()


def save_operator(op: Operator, path: str | Path, name: str = "") -> Path:
    path = Path(path)
    with path.open("w", encoding="ascii") as out:
        _write_operator(op, name, out)
    return path


def _parse_header(line: str) -> dict:
    try:
        header = json.loads(line)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise OpmatHeaderError(f"header line is not valid JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise OpmatHeaderError("header line must be a JSON object")
    missing = [f for f in _HEADER_FIELDS if f not in header]
    if header.get("format") == FORMAT_TAG and "entries" not in header:
        missing.append("entries")
    if missing:
        raise OpmatHeaderError(f"header is missing fields: {', '.join(missing)}")
    if header["format"] not in (FORMAT_TAG, _FORMAT_V1):
        raise OpmatHeaderError(f"unsupported format tag {header['format']!r}")
    if header["basis"] != BASIS_TAG:
        raise OpmatHeaderError(f"unknown basis convention {header['basis']!r}")
    if header["representation"] not in ("Z", "Z2"):
        raise OpmatHeaderError(f"unknown representation {header['representation']!r}")
    dimension = header["dimension"]
    if isinstance(dimension, bool) or not isinstance(dimension, int) or dimension <= 0:
        raise OpmatHeaderError("dimension must be a positive integer")
    if not isinstance(header["name"], str):
        raise OpmatHeaderError("name must be a string")
    return header


def _radius(header: dict) -> Fraction:
    text = header["radius"]
    if isinstance(text, bool):
        raise OpmatHeaderError(f"unreadable radius {text!r}")
    try:
        radius = Fraction(text)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise OpmatHeaderError(f"unreadable radius {text!r}") from exc
    if radius <= 0:
        raise OpmatHeaderError(f"radius {text!r} is not positive")
    return radius


def _window_from_header(header: dict, payload_chars: int) -> TruncationWindow:
    """The header's window, once its claimed dimension is the window's
    site count.  The count is taken without listing the sites: 2n + 1 on
    the line (n = floor(r)), and on the plane a sum over the 2n + 1
    columns.  The disc holds the square |x|, |y| <= m with 2 m^2 <= r^2
    and lies inside |x|, |y| <= n, so a claim outside [(2m + 1)^2,
    (2n + 1)^2] is wrong at once.  The column sum runs only while it is
    short.  A v2 claim has at most 2^32 sites, as its uint64 positions
    address at most 2^64 entries, so n is under 5e4.  A v1 claim needs
    n^2 at most the payload text's length, or a matrix that text can
    hold (then n^2 is of order the claim).  Any other claim is a
    payload error."""
    radius = _radius(header)
    representation, claimed = header["representation"], header["dimension"]
    if header["format"] == FORMAT_TAG and claimed * claimed > _POSITIONS:
        raise OpmatPayloadError(
            f"a {claimed}x{claimed} matrix has more entries than a v2 position can address"
        )
    n = math.floor(radius)
    if representation == "Z":
        low = high = 2 * n + 1
    else:
        r2 = math.floor(radius * radius)
        low, high = (2 * math.isqrt(r2 // 2) + 1) ** 2, (2 * n + 1) ** 2
        if low <= claimed <= high:
            v1 = header["format"] == _FORMAT_V1
            if v1 and n * n > payload_chars and 16 * claimed * claimed > payload_chars:
                raise OpmatPayloadError(
                    f"payload of {payload_chars} characters cannot hold a "
                    f"{claimed}x{claimed} complex matrix"
                )
            low = high = sum(2 * math.isqrt(r2 - x * x) + 1 for x in range(-n, n + 1))
    if not low <= claimed <= high:
        count = low if low == high else f"between {low} and {high}"
        raise OpmatDimensionError(
            f"header claims dimension {claimed} but the "
            f"{representation} window of radius {header['radius']} "
            f"has {count} sites"
        )
    return TruncationWindow(representation, radius)  # sites are listed lazily


def _v1_entries(raw: bytes, d: int) -> np.ndarray:
    expected = d * d * 16
    if len(raw) != expected:
        raise OpmatPayloadError(
            f"payload holds {len(raw)} bytes, expected {expected} for a "
            f"{d}x{d} complex matrix"
        )
    return np.frombuffer(raw, dtype="<c16").reshape(d, d).astype(np.complex128)


def _v2_entries(raw: bytes, d: int, count) -> np.ndarray:
    """The matrix a v2 payload lists, once its records are whole, their
    positions inside the matrix and strictly increasing."""
    if isinstance(count, bool) or not isinstance(count, int) or not 0 <= count <= d * d:
        raise OpmatPayloadError(f"entries {count!r} is not an integer in [0, {d}^2]")
    if len(raw) != _RECORD.itemsize * count:
        raise OpmatPayloadError(
            f"payload holds {len(raw)} bytes, expected {_RECORD.itemsize * count} "
            f"for {count} records"
        )
    records = np.frombuffer(raw, dtype=_RECORD)
    at = records["at"]
    if np.any(at[1:] <= at[:-1]):
        raise OpmatPayloadError("record positions are not strictly increasing")
    if count and int(at[-1]) >= d * d:
        raise OpmatPayloadError(f"record position {int(at[-1])} is outside the {d}x{d} matrix")
    try:
        entries = np.zeros(d * d, dtype=np.complex128)
    except (MemoryError, ValueError) as exc:
        raise OpmatPayloadError(f"a {d}x{d} complex matrix cannot be formed") from exc
    entries[at] = records["value"]
    return entries.reshape(d, d)


def loads_operator(text: str) -> Operator:
    """Parse the two-line text form, v2 or v1, back into an operator."""
    head, sep, body = text.partition("\n")
    if not sep:
        raise OpmatHeaderError("file has no header line")
    header = _parse_header(head)
    body = body.strip()
    window = _window_from_header(header, len(body))
    try:
        raw = base64.b64decode(body, validate=True)
    except (binascii.Error, ValueError) as exc:
        raise OpmatPayloadError(f"payload is not valid base64: {exc}") from exc
    d = header["dimension"]
    if header["format"] == FORMAT_TAG:
        entries = _v2_entries(raw, d, header["entries"])
    else:
        entries = _v1_entries(raw, d)
    tags = {"name": header["name"]} if header["name"] else {}
    return Operator(window, entries, tags)


def load_operator(path: str | Path) -> Operator:
    data = Path(path).read_bytes()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        error = OpmatPayloadError if b"\n" in data[: exc.start] else OpmatHeaderError
        raise error(f"byte {exc.start} of the file is not ASCII") from exc
    return loads_operator(text)
