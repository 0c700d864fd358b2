"""Verification results that name the first violated axiom and a witness."""

from __future__ import annotations

from typing import Any

from .derived import Frozen
from .errors import InputError


class Verdict(Frozen):
    """Outcome of an axiom check.

    ``ok`` is True when every axiom holds.  Otherwise ``axiom`` names the
    first violated axiom in the checking order and ``witness`` carries the
    offending elements.
    """

    def __init__(self, ok: bool, axiom: str | None = None, witness: tuple[Any, ...] | None = None):
        vars(self).update(ok=ok, axiom=axiom, witness=witness)

    def __bool__(self) -> bool:
        return self.ok

    def describe(self) -> str:
        if self.ok:
            return "ok"
        if self.witness is None:
            return f"violation: {self.axiom}"
        return f"violation: {self.axiom} witness: {self.witness!r}"

    def require(self, failure: str) -> None:
        """Raise ``InputError("<failure> (<describe()>)")`` unless ok."""
        if not self.ok:
            raise InputError(f"{failure} ({self.describe()})")


def passed() -> Verdict:
    return Verdict(True)


def violated(axiom: str, witness: tuple[Any, ...] | None = None) -> Verdict:
    return Verdict(False, axiom, witness)
