"""What every layer derives the same way: facts of an immutable instance,
computed once, and derivative chains iterated to their fixpoint."""

from __future__ import annotations

from functools import wraps

from .errors import InputError


def fact(compute):
    """Decorator: compute(instance, *args) runs once per instance and args.

    Each fact keeps one dict, keyed by the argument tuple, in the
    instance's ``__dict__``, which frozen dataclasses leave out of
    equality and hashing, so it is dropped with the instance instead of
    pinning it as a module-level cache would.
    """
    slot = f"_fact {compute.__module__}.{compute.__qualname__}"

    @wraps(compute)
    def lookup(instance, *args):
        facts = instance.__dict__.get(slot)
        if facts is None:
            facts = instance.__dict__[slot] = {}
        try:
            return facts[args]
        except KeyError:
            pass
        value = facts[args] = compute(instance, *args)
        return value

    return lookup


class Chain:
    """The decreasing chain start, step(start), ..., stepped lazily:
    ``levels`` holds each distinct level once, stepped when a caller first
    asks for it and never past ``stabilized``, the first index whose step
    leaves ``members`` unchanged (a repeat makes the chain constant)."""

    def __init__(self, start, step):
        self.levels, self.step, self.stabilized = [start], step, None

    def upto(self, rounds: int) -> list:
        """The distinct levels among entries 0 .. rounds of the chain."""
        while self.stabilized is None and len(self.levels) <= rounds:
            nxt = self.step(self.levels[-1])
            if nxt.members == self.levels[-1].members:
                self.stabilized = len(self.levels) - 1
            else:
                self.levels.append(nxt)
        return self.levels[: rounds + 1]


def padded(levels, rounds: int):
    """``levels``, a list or tuple, its last entry repeated to rounds + 1 entries."""
    return levels + levels[-1:] * (rounds + 1 - len(levels))


def fixpoint_chain(start, step, rounds: int) -> tuple[list, int | None]:
    """The chain start, step(start), ..., of rounds + 1 entries, and the
    first index k < rounds whose successor has the same members, or None
    when no repeat shows up within the chain."""
    if rounds < 0:
        raise InputError("rounds must be non-negative")
    levels = Chain(start, step).upto(rounds)
    return padded(levels, rounds), len(levels) - 1 if len(levels) <= rounds else None
