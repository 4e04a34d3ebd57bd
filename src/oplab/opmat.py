"""Reading and writing dense operators as ``opmat v1`` files.

A file is a single JSON header line followed by one base64 line holding the
matrix entries as little-endian complex128 pairs in row-major order.  The
header pins down the window (representation and radius) and the basis
convention, so a load either reproduces the operator bit for bit or fails
with a specific error.
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

FORMAT_TAG = "opmat v1"

_HEADER_FIELDS = ("format", "representation", "radius", "basis", "name", "dimension")


def _header_for(op: Operator, name: str) -> dict:
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


# payload bytes encoded per piece: a multiple of 3, so each piece's base64
# ends on a whole group and the pieces join into the one-shot encoding
_PIECE_BYTES = 3 * 2**16


def _write_operator(op: Operator, name: str, out) -> None:
    """Write the two-line text form to the text stream ``out``: the
    header line, then the payload base64-encoded a piece at a time, so
    no copy of the whole payload or its text is made."""
    header = _header_for(op, name or op.tags.get("name", ""))
    out.write(json.dumps(header, sort_keys=True) + "\n")
    payload = memoryview(np.ascontiguousarray(op.entries, dtype="<c16").reshape(-1)).cast("B")
    for start in range(0, len(payload), _PIECE_BYTES):
        out.write(base64.b64encode(payload[start : start + _PIECE_BYTES]).decode("ascii"))
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
    if missing:
        raise OpmatHeaderError(f"header is missing fields: {', '.join(missing)}")
    if header["format"] != FORMAT_TAG:
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
    short next to the payload text: n^2 at most its length, or a claim
    whose matrix that text can hold (then n^2 is of order the claim).
    Any other claim is a payload error."""
    radius = _radius(header)
    representation, claimed = header["representation"], header["dimension"]
    n = math.floor(radius)
    if representation == "Z":
        low = high = 2 * n + 1
    else:
        r2 = math.floor(radius * radius)
        low, high = (2 * math.isqrt(r2 // 2) + 1) ** 2, (2 * n + 1) ** 2
        if low <= claimed <= high:
            if n * n > payload_chars and 16 * claimed * claimed > payload_chars:
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


def loads_operator(text: str) -> Operator:
    """Parse the two-line text form back into an operator."""
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
    expected = d * d * 16
    if len(raw) != expected:
        raise OpmatPayloadError(
            f"payload holds {len(raw)} bytes, expected {expected} for a "
            f"{d}x{d} complex matrix"
        )
    entries = np.frombuffer(raw, dtype="<c16").reshape(d, d).astype(np.complex128)
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
