"""``replace`` for the package's immutable value classes."""


def replace(obj, **changes):
    """A new instance of obj's class with obj's fields, or ``changes`` where
    given; the constructor checks them as for any other instance."""
    kept = {name: changes.pop(name, getattr(obj, name)) for name in obj._fields}
    return type(obj)(**kept, **changes)
