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


def fixpoint_chain(start, step, rounds: int) -> tuple[list, int | None]:
    """The chain start, step(start), ..., of rounds + 1 entries, and the
    first index k whose successor has the same members, or None when no
    repeat shows up within the chain.

    Repeats compare ``members`` only, not whole objects.  A repeat makes
    the chain constant, so the tail repeats entry k by reference instead
    of stepping again.
    """
    if rounds < 0:
        raise InputError("rounds must be non-negative")
    chain = [start]
    while len(chain) <= rounds:
        nxt = step(chain[-1])
        if nxt.members == chain[-1].members:
            stabilized = len(chain) - 1
            chain.extend([chain[-1]] * (rounds - stabilized))
            return chain, stabilized
        chain.append(nxt)
    return chain, None
