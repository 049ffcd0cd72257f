"""Deterministic report serialization shared by the replay and scan modules.

All payloads are plain dicts of strings, integers and booleans, serialized
with sorted keys, a two-space indent and fixed separators, and never embed
timestamps, so byte-identical reruns produce byte-identical reports (CI can
diff them).

This module is only the JSON writer; the decimal digits of an enclosure
come from `ball.decimal_str`, and it imports nothing from cmgamma.  It
loads `json` only when a report is serialized, so text commands never do.
"""

from __future__ import annotations

SCHEMA = "cmgamma.report/1"


def stable_json_dumps(payload: dict, kind: str) -> str:
    """The report document as `json.dumps(doc, sort_keys=True, indent=2,
    separators=(",", ": "))` writes it, plus a newline.  The layout is
    written here, because `json` takes its pure-Python encoder whenever
    indent is set; strings go through json's C escaper."""
    from json.encoder import encode_basestring_ascii
    out: list[str] = []
    _emit({"schema": SCHEMA, "kind": kind, "payload": payload}, "\n", out,
          encode_basestring_ascii)
    out.append("\n")
    return "".join(out)


def _emit(value, newline: str, out: list[str], escape) -> None:
    """Append the JSON of value to out; newline is a line break and the
    indent of value's own line, and escape is json's string escaper.  Takes
    str, int, bool, None and dicts with str keys, lists and tuples of them;
    anything else is a TypeError, as in json (reports hold no floats)."""
    if isinstance(value, str):
        out.append(escape(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out += (sep, escape(key), ": ")
            _emit(value[key], inner, out, escape)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _emit(item, inner, out, escape)
            sep = "," + inner
        out.append(newline + "]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
