"""Identifiers for the logics handled by the engine.

The six systems CPLe+ < mbC < mbCciw < mbCci < Ci < CPLe form a chain of
axiomatic strength (their structure classes shrink along it); LFI1o and Ciore
are two incomparable three-valued strengthenings of Ci.  Snapshots are
triples for CPLe+ and mbC and pairs from mbCciw upward, where the third
coordinate is determined by the first two.
"""

from __future__ import annotations

import enum


class LogicId(enum.Enum):
    CPLE_PLUS = "cple+"
    MBC = "mbc"
    MBCCIW = "mbcciw"
    MBCCI = "mbcci"
    CI = "ci"
    CPLE = "cple"
    LFI1O = "lfi1o"
    CIORE = "ciore"

    @property
    def display(self) -> str:
        return _DISPLAY[self]

    @property
    def pair_mode(self) -> bool:
        """Pairs from mbCciw upward; triples for CPLe+ and mbC."""
        return self not in (LogicId.CPLE_PLUS, LogicId.MBC)


_DISPLAY = {
    LogicId.CPLE_PLUS: "CPLe+",
    LogicId.MBC: "mbC",
    LogicId.MBCCIW: "mbCciw",
    LogicId.MBCCI: "mbCci",
    LogicId.CI: "Ci",
    LogicId.CPLE: "CPLe",
    LogicId.LFI1O: "LFI1o",
    LogicId.CIORE: "Ciore",
}

#: The linear fragment of the class-inclusion order, most restrictive first.
CHAIN = (LogicId.CPLE, LogicId.CI, LogicId.MBCCI, LogicId.MBCCIW,
         LogicId.MBC, LogicId.CPLE_PLUS)

_ALIASES = {**{logic.value: logic for logic in LogicId},
            "cplep": LogicId.CPLE_PLUS, "lfi1": LogicId.LFI1O,
            "j3": LogicId.LFI1O}


def parse_logic(name: str) -> LogicId:
    """Case-insensitive lookup accepting the common aliases."""
    key = name.strip().lower()
    try:
        return _ALIASES[key]
    except KeyError:
        known = ", ".join(sorted(_ALIASES))
        raise ValueError(f"unknown logic {name!r} (known: {known})") from None
