"""The benchmark's own model of the inputs and of the right answers.

Nothing here imports ``modeloids``: the expected verdicts come from
closed forms or from the naive Ehrenfeucht-Fraisse recursion below, and
the table files are written by this module, so a change to the program
under test can neither move an input nor an expected answer.

Structures are directed graphs on {0..size-1} with an optional point
(the constant ``c``), or pure sets (no vocabulary at all).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations


@dataclass(frozen=True)
class Graph:
    name: str
    size: int
    edges: frozenset[tuple[int, int]] | None  # None: a pure set
    point: int | None = None

    def relabel(self, name: str, perm: tuple[int, ...]) -> "Graph":
        edges = None
        if self.edges is not None:
            edges = frozenset((perm[a], perm[b]) for a, b in self.edges)
        point = None if self.point is None else perm[self.point]
        return Graph(name, self.size, edges, point)

    def block(self) -> str:
        lines = [f"structure {self.name}", f"  universe {self.size}"]
        if self.point is not None:
            lines.append(f"  constant c {self.point}")
        if self.edges:
            rendered = " ".join(f"({a},{b})" for a, b in sorted(self.edges))
            lines.append(f"  relation E {rendered}")
        return "\n".join(lines) + "\n"

    def as_json(self) -> dict:
        edges = None if self.edges is None else sorted(self.edges)
        return {"name": self.name, "size": self.size, "edges": edges, "point": self.point}


def pure_set(name: str, n: int) -> Graph:
    return Graph(name, n, None)


def cycle(name: str, n: int) -> Graph:
    return Graph(name, n, frozenset((i, (i + 1) % n) for i in range(n)))


def path(name: str, n: int) -> Graph:
    return Graph(name, n, frozenset((i, i + 1) for i in range(n - 1)))


def random_pointed_graph(rng, name: str, n: int) -> Graph:
    """Each of the n*n possible edges, loops included, with chance 0.35."""
    edges = frozenset((a, b) for a in range(n) for b in range(n) if rng.random() < 0.35)
    return Graph(name, n, edges, rng.randrange(n))


def random_perm(rng, n: int) -> tuple[int, ...]:
    perm = list(range(n))
    rng.shuffle(perm)
    return tuple(perm)


def structures_file(left: Graph, right: Graph) -> str:
    if (left.edges is None) != (right.edges is None) or (
        (left.point is None) != (right.point is None)
    ):
        raise ValueError("both structures need one vocabulary")
    head = ""
    if left.edges is not None:
        head = "vocabulary\n  relation E 2\n"
        if left.point is not None:
            head += "  constant c\n"
    return head + left.block() + right.block()


# ---------------------------------------------------------------------------
# Closed forms


def pure_sets_equivalent(n: int, k: int, m: int) -> bool:
    """S_n and S_k agree on m rounds iff n = k or both have >= m elements."""
    return n == k or (n >= m and k >= m)


def cycle_path_equivalent(n: int, m: int) -> bool:
    """Directed C_n vs P_n (n >= 2): a second pebble finds the source of
    P_n, which has no predecessor, so they agree only for m <= 1."""
    if n < 2:
        raise ValueError("closed form holds for n >= 2")
    return m <= 1


# ---------------------------------------------------------------------------
# Naive game recursion


def _edge(g: Graph, a: int, b: int) -> bool:
    return g.edges is not None and (a, b) in g.edges


def is_partial_iso(A: Graph, B: Graph, pairs) -> bool:
    """Injective, functional, keeps the point, and edge-preserving both
    ways on every pair of chosen elements (loops included)."""
    pairs = list(pairs)
    for a, b in pairs:
        for c, d in pairs:
            if (a == c) != (b == d):
                return False
            if _edge(A, a, c) != _edge(B, b, d):
                return False
    if A.point is not None and (A.point, B.point) not in pairs:
        return False
    return True


class Game:
    """Duplicator's winning positions in the m-round game on (A, B).

    A position is the set of pebbled pairs; Spoiler moves on either side
    and Duplicator answers on the other.  Positions that are not partial
    isomorphisms lose at once.
    """

    def __init__(self, A: Graph, B: Graph):
        self.A, self.B = A, B
        self._memo: dict[tuple[frozenset, int], bool] = {}

    def start(self) -> frozenset:
        if self.A.point is None:
            return frozenset()
        return frozenset({(self.A.point, self.B.point)})

    def wins(self, position: frozenset, m: int) -> bool:
        key = (position, m)
        if key in self._memo:
            return self._memo[key]
        if not is_partial_iso(self.A, self.B, position):
            out = False
        elif m == 0:
            out = True
        else:
            na, nb = self.A.size, self.B.size
            out = all(
                any(self.wins(position | {(a, b)}, m - 1) for b in range(nb))
                for a in range(na)
            ) and all(
                any(self.wins(position | {(a, b)}, m - 1) for a in range(na))
                for b in range(nb)
            )
        self._memo[key] = out
        return out

    def equivalent(self, m: int) -> bool:
        return self.wins(self.start(), m)


def partial_isos(A: Graph, B: Graph) -> list[tuple[tuple[int, int], ...]]:
    """Every partial isomorphism A -> B as a sorted pair tuple, by brute
    force over domains and injective images."""
    found = []
    for mask in range(1 << A.size):
        dom = [a for a in range(A.size) if mask >> a & 1]
        for image in permutations(range(B.size), len(dom)):
            pairs = tuple(zip(dom, image))
            if is_partial_iso(A, B, pairs):
                found.append(pairs)
    return found


def derivative_sizes(A: Graph, B: Graph, rounds: int) -> list[int]:
    """Sizes of D^0 .. D^rounds of the partial-isomorphism category of
    (A, B): for each level j, star plus every map of the four side pairs
    from which Duplicator survives j more rounds."""
    sides = [(A, A), (A, B), (B, A), (B, B)]
    games = [Game(X, Y) for X, Y in sides]
    maps = [partial_isos(X, Y) for X, Y in sides]
    return [
        1 + sum(
            sum(1 for p in block if game.wins(frozenset(p), j))
            for game, block in zip(games, maps)
        )
        for j in range(rounds + 1)
    ]


# ---------------------------------------------------------------------------
# Table files


def partial_injections(n: int) -> list[tuple[tuple[int, int], ...]]:
    """All partial bijections of {0..n-1} (the symmetric inverse monoid)."""
    return partial_isos(pure_set("X", n), pure_set("Y", n))


def _compose(f, g) -> tuple[tuple[int, int], ...]:
    """f after g, as sorted pairs."""
    fwd = dict(f)
    return tuple(sorted((a, fwd[b]) for a, b in g if b in fwd))


def _inverse(f) -> tuple[tuple[int, int], ...]:
    return tuple(sorted((b, a) for a, b in f))


def _render(f) -> str:
    return " ".join(f"({a},{b})" for a, b in f)


def modeloid_file(n: int, rng) -> str:
    maps = partial_injections(n)
    rng.shuffle(maps)
    lines = ["modeloid", f"carrier {n}"]
    lines += [f"map {_render(f)}".rstrip() for f in maps]
    return "\n".join(lines) + "\n"


def rook_monoid_file(n: int, rng, *, members: bool, with_inv: bool) -> str:
    """The symmetric inverse monoid on n points, elements in seeded order,
    x*y = x after y.  ``members`` makes it a semimodeloid file with every
    element a member."""
    elems = partial_injections(n)
    rng.shuffle(elems)
    index = {f: i for i, f in enumerate(elems)}
    identity = tuple((x, x) for x in range(n))
    lines = ["semimodeloid" if members else "semigroup", f"order {len(elems)}"]
    for f in elems:
        lines.append("mul " + " ".join(str(index[_compose(f, g)]) for g in elems))
    if with_inv:
        lines.append("inv " + " ".join(str(index[_inverse(f)]) for f in elems))
        lines.append(f"neutral {index[identity]}")
        lines.append(f"zero {index[()]}")
    if members:
        lines.append("members " + " ".join(str(i) for i in range(len(elems))))
    return "\n".join(lines) + "\n"


def category_file(A: Graph, B: Graph, rng, kind: str, *, with_inv: bool) -> str:
    """The partial-isomorphism category of (A, B) as a total table with
    the non-existing morphism last; morphism indices in seeded order.
    comp[f][g] is f after g and exists iff dom f = cod g."""
    sides = {0: A, 1: B}
    morphisms = [
        (s, t, p)
        for s in (0, 1)
        for t in (0, 1)
        for p in partial_isos(sides[s], sides[t])
    ]
    rng.shuffle(morphisms)
    index = {m: i for i, m in enumerate(morphisms)}
    star = len(morphisms)
    ident = {
        s: index[(s, s, tuple((x, x) for x in range(sides[s].size)))] for s in (0, 1)
    }
    dom = [ident[s] for s, _, _ in morphisms] + [star]
    cod = [ident[t] for _, t, _ in morphisms] + [star]
    lines = [kind, f"morphisms {star + 1}", f"star {star}"]
    lines.append("dom " + " ".join(map(str, dom)))
    lines.append("cod " + " ".join(map(str, cod)))
    for fs, ft, f in morphisms:
        row = [
            index[(gs, ft, _compose(f, g))] if gt == fs else star
            for gs, gt, g in morphisms
        ]
        lines.append("comp " + " ".join(map(str, row + [star])))
    lines.append("comp " + " ".join([str(star)] * (star + 1)))
    if with_inv:
        inv = [index[(t, s, _inverse(p))] for s, t, p in morphisms] + [star]
        lines.append("inv " + " ".join(map(str, inv)))
    if kind == "categorical-modeloid":
        lines.append("members " + " ".join(str(i) for i in range(star + 1)))
    return "\n".join(lines) + "\n"
