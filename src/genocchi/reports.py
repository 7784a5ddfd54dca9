"""Shared result types for the identity catalog."""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence, Tuple


class UnknownIdentityError(ValueError):
    """Requested catalog label does not exist."""

    def __init__(self, ident: str, known: Sequence[str]):
        super().__init__(f"unknown identity {ident!r}; valid labels: {', '.join(known)}")
        self.ident = ident
        self.known = tuple(known)


class IdentityReport(NamedTuple):
    """Outcome of checking one catalog identity up to a depth bound.

    The report passes exactly when no counterexample is recorded; the
    counterexample is a (where, lhs, rhs) triple rendered as strings.
    """

    ident: str
    depth: int
    passed: bool
    counterexample: Optional[Tuple[str, str, str]] = None

    def describe(self) -> str:
        if self.passed:
            return f"{self.ident}: pass (depth {self.depth})"
        where, lhs, rhs = self.counterexample
        return f"{self.ident}: FAIL at {where}: lhs={lhs} rhs={rhs}"
