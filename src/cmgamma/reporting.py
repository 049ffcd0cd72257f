"""Deterministic report serialization shared by the replay and scan modules.

All payloads are plain dicts of strings/numbers serialized with sorted keys
and fixed separators, and never embed timestamps, so byte-identical reruns
produce byte-identical reports (CI can diff them).
"""

from __future__ import annotations

import json
from fractions import Fraction

SCHEMA = "cmgamma.report/1"


def frac_str(q: Fraction) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def stable_json_dumps(payload: dict, kind: str) -> str:
    doc = {"schema": SCHEMA, "kind": kind, "payload": payload}
    return json.dumps(doc, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"
