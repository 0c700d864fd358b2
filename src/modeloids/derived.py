"""What every layer derives the same way: facts of an immutable instance,
computed once, and derivative chains iterated to their fixpoint."""

from __future__ import annotations

from functools import wraps
from operator import attrgetter

from .errors import InputError


class Frozen:
    """Base of the immutable value classes.  The fields are the parameters
    of the subclass's ``__init__`` (``_fields``), which checks them and
    writes them once into ``vars(self)``; assignment and deletion raise
    ``AttributeError``.  Unless a subclass defines its own, equality and
    hash read the fields: equal instances are of one class with equal
    fields, and hash as the tuple of the fields.  The repr lists them."""

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls._fields = fields = code.co_varnames[1 : code.co_argcount]
        get = attrgetter(*fields)
        key = get if len(fields) > 1 else lambda self: (get(self),)

        # closures over ``key``: a per-instance attribute lookup costs more
        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return self is other or key(self) == key(other)
            return NotImplemented

        def __hash__(self):
            return hash(key(self))

        for name, method in (("__eq__", __eq__), ("__hash__", __hash__)):
            if name not in vars(cls):
                setattr(cls, name, method)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __getstate__(self):
        # no facts in copies and pickles: a cached str hash is per process
        return {name: getattr(self, name) for name in self._fields}

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def fact(compute):
    """Decorator: compute(instance, *args) runs once per instance and args.

    Each fact keeps one dict, keyed by the argument tuple, in the
    instance's ``__dict__``, which ``Frozen`` leaves out of equality,
    hashing and repr, so it is dropped with the instance instead of
    pinning it as a module-level cache would.  ``carry(source, target)``
    gives ``target`` the values found on ``source``, for a target that
    differs from it only in fields that ``compute`` does not read.
    """
    slot = f"_fact {compute.__module__}.{compute.__qualname__}"

    def carry(source, target):
        if slot in source.__dict__:
            target.__dict__[slot] = dict(source.__dict__[slot])

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

    lookup.carry = carry
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
