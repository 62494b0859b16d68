"""Tracked K-class symbols and where they live.

A ledger maps generator symbols such as "[1]", "[a]", "[b]" to concrete
elements of computed K-groups, with order annotations. Locations name the
group an entry lives in; "unitary" marks the class of the implementing
unitary before a solve has placed it.
"""

from __future__ import annotations

import math
import reprlib
from collections.abc import Iterator, Mapping

from .abelian import json_fail, json_field, json_value
from .errors import _checked_namedtuple

LOCATIONS = ("k0", "k1", "crossed0", "crossed1", "unitary")


class KClass(_checked_namedtuple("KClass", "location vector order note")):
    """A tracked class: where it lives, its coefficient vector there, and its
    order (math.inf for free classes, None when undetermined)."""

    __slots__ = ()

    def __new__(cls, location: str, vector: tuple[int, ...] | None, order: int | float | None, note: str = ""):
        if vector is not None:
            vector = tuple(vector)
            for x in vector:  # a plain loop: bc_compare builds ten classes, and a set of types would add about 1%
                if type(x) is not int:
                    raise ValueError("class coordinates must be Python ints")
        if location not in LOCATIONS:
            raise ValueError(f"unknown ledger location {location!r}")
        if order is not None and order != math.inf and (type(order) is not int or order < 1):
            raise ValueError("a class order is None, math.inf or a Python int >= 1")
        if type(note) is not str:
            raise ValueError("a class note must be a str")
        return tuple.__new__(cls, (location, vector, order, note))


class KClassLedger(Mapping):
    """An immutable symbol table, read as a mapping; updates return a new ledger."""

    def __init__(self, entries: Mapping[str, KClass] | None = None):
        self._entries: dict[str, KClass] = dict(entries or {})
        for symbol, entry in self._entries.items():
            if type(symbol) is not str or not isinstance(entry, KClass):
                raise ValueError("a ledger maps str symbols to KClass entries")

    def __getitem__(self, symbol: str) -> KClass:
        return self._entries[symbol]

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def with_entry(self, symbol: str, entry: KClass) -> "KClassLedger":
        new = dict(self._entries)
        new[symbol] = entry
        return KClassLedger(new)


def order_to_json(order: int | float | None):
    return "inf" if order == math.inf else order


def _order_text(order: int | float | None) -> str:
    """An order as tables print it: "inf" for free classes, "?" when undetermined."""
    if order is None:
        return "?"
    return "inf" if order == math.inf else str(order)


def ledger_to_json(ledger: KClassLedger) -> dict:
    out = {}
    for symbol, entry in sorted(ledger.items()):
        out[symbol] = {
            "group": entry.location,
            "coeffs": list(entry.vector) if entry.vector is not None else None,
            "order": order_to_json(entry.order),
            "note": entry.note,
        }
    return out


def ledger_from_json(data, path: str) -> KClassLedger:
    entries = {}
    for symbol, raw in json_value(data, dict, path).items():
        at = f"{path}[{reprlib.repr(symbol)}]"
        location = json_field(json_value(raw, dict, at), "group", str, at)
        if location not in LOCATIONS:
            json_fail(f"{at}.group", f"one of {', '.join(LOCATIONS)}", location)
        order = math.inf if raw.get("order") == "inf" else json_field(raw, "order", int, at, None)
        if order is not None and order < 1:
            json_fail(f"{at}.order", "'inf' or an integer >= 1", order)
        coeffs = json_field(raw, "coeffs", [int], at, None)
        entries[symbol] = KClass(location, coeffs, order, json_field(raw, "note", str, at, ""))
    return KClassLedger(entries)
