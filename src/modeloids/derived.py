"""What every layer derives the same way: facts of an immutable instance,
computed once, derivative chains iterated to their fixpoint, the
generating sets that decide closure under a product, and module names
bound on first read."""

from __future__ import annotations

from collections.abc import Sequence
from functools import wraps
from importlib import import_module
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
    gives ``target`` the values found on ``source``, for a target whose
    values a proof shows equal: one that differs from it only in fields
    that ``compute`` does not read, or one that a theorem keeps the value
    for, as a derivative keeps its input's verdict (closure).
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
    returns an equal level (a repeat makes the chain constant).  A level
    is a member set, or an instance whose other fields every step keeps."""

    def __init__(self, start, step):
        self.levels, self.step, self.stabilized = [start], step, None

    def upto(self, rounds: int) -> list:
        """The distinct levels among entries 0 .. rounds of the chain."""
        while self.stabilized is None and len(self.levels) <= rounds:
            nxt = self.step(self.levels[-1])
            if nxt == self.levels[-1]:
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


def generators(compose, elements: Sequence) -> list | None:
    """A generating set G of ``elements`` under right multiplication, or
    None at the first product it forms that falls outside them.

    Scans ``elements`` in order and keeps one as a generator when it is
    not yet reached, that is, not a product g1*g2*...*gk of generators so
    far, multiplied left to right.  Every reached element is multiplied by
    every generator exactly once, so the scan costs |elements|*|G|
    products.  On return the reached set is all of ``elements`` and is
    closed under right multiplication by G.  A null semigroup needs every
    element as a generator.  Callers list the elements highest in the
    natural order first (``inverse_semigroups.top_down``), as they reach
    the most.
    """
    element_set = set(elements)
    gens: list = []
    reached: set = set()
    for x in elements:
        if x in reached:
            continue
        gens.append(x)
        # elements reached before meet the new generator only, newly
        # reached ones meet every generator
        pending = [(r, (x,)) for r in reached] + [(x, gens)]
        reached.add(x)
        while pending:
            a, by = pending.pop()
            for g in by:
                p = compose(a, g)
                if p not in element_set:
                    return None
                if p not in reached:
                    reached.add(p)
                    pending.append((p, gens))
    return gens


def lazy(namespace: dict, exports: dict[str, tuple[str, ...]]):
    """The PEP 562 ``__getattr__`` of the module whose globals are
    ``namespace``: its names are bound on first read, so a caller loads
    (and, without cached byte code, compiles) only the layers it reads.

    ``exports`` maps a submodule of the package to the names taken from
    it; a name equal to the submodule's own stands for the submodule.
    ``load(name)`` imports the name's submodule, binds the name in
    ``namespace`` unless a value is bound there already, and returns the
    bound value: a patch made before the first read is the one kept and
    the one a caller gets.  A function of the module that calls
    ``load(name)`` before it uses ``name`` loads that layer only when a
    call needs it.  Any other name raises ``AttributeError``."""
    homes = {name: home for home, names in exports.items() for name in names}
    package = namespace["__package__"]

    def load(name: str):
        try:
            return namespace[name]
        except KeyError:
            pass
        try:
            home = homes[name]
        except KeyError:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}"
            ) from None
        module = import_module(f"{package}.{home}")
        return namespace.setdefault(name, module if name == home else getattr(module, name))

    return load

