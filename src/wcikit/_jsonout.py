"""JSON text with an indent of two, as json.dumps(obj, indent=2) writes it.

CPython's C encoder takes no indent, so json.dumps(obj, indent=2) runs
the pure-Python one; the reports hold only strings, integers, booleans,
None, lists and str-keyed dicts, and this writer handles those alone.
Strings go through the C escape json.dumps uses (ASCII output).
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii


def dumps(obj: object) -> str:
    """json.dumps(obj, indent=2); TypeError on any other kind of value."""
    out: list[str] = []
    _write(obj, "\n", out)
    return "".join(out)


def _write(obj: object, newline: str, out: list[str]) -> None:
    """Append obj's text to out; newline starts a line at obj's depth."""
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, list):
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        for i, item in enumerate(obj):
            out.append(inner if i else "[" + inner)
            _write(item, inner, out)
            out.append(",")
        out[-1] = newline + "]"
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON keys must be str, not "
                                f"{type(key).__name__}")
            out.append((inner if i else "{" + inner)
                       + encode_basestring_ascii(key) + ": ")
            _write(value, inner, out)
            out.append(",")
        out[-1] = newline + "}"
    else:
        raise TypeError(f"{type(obj).__name__} is not JSON serializable")
