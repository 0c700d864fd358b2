"""The dense composition table of an ambient that composes on demand.

The library never builds this table for the partial-isomorphism category;
the tests build it on small pairs to run the cubic inverse-category
checks on exactly the ``compose`` that the derivative reads.
"""

from modeloids.free_categories import FreeCategory


def dense_table(ambient) -> FreeCategory:
    """The FreeCategory with comp[f][g] = ambient.compose(f, g)."""
    n = ambient.morphism_count
    comp = tuple(
        tuple(ambient.compose(f, g) for g in range(n)) for f in range(n)
    )
    return FreeCategory(n, ambient.star, ambient.dom, ambient.cod, comp, ambient.inv)
