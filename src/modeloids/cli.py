"""Command-line front-end.

Subcommands: ``validate`` (structure files), ``ef`` (m-round
equivalence by derivative, cross-checked against the game oracle),
``verify`` (axiom checks for table files), ``derive`` (derivative
chains), ``embed`` (partial-bijection representation of a table).

Exit codes: 0 success or equivalent; 1 axiom violation or not
equivalent; 2 malformed input or exceeded bound; 3 a file that cannot
be read or a certificate that cannot be written; 4 the two equivalence
methods disagree (never reconciled silently); 5 internal error (the
program itself failed, e.g. an unexpected exception in a library call;
one ``error: internal`` line on stderr, no answer is given).

``--format machine`` prints the same key:value lines sorted by key,
with booleans as lowercase true/false; repeated runs on identical
input are byte-identical.
"""

from __future__ import annotations

import argparse
import sys
from bisect import bisect
from pathlib import Path

from .derived import fixpoint_chain, generators, lazy, padded
from .errors import DEFAULT_EF_UNIVERSE_BOUND, BoundExceededError, InputError

# The library names this module uses, by the module they come from (a
# module's own name is the module).  A handler binds the names of the
# layers it calls before it calls them, so a request loads only those
# layers; a name bound before, as by a patch, is kept (``derived.lazy``).
_CALLS = {
    "structures": ("parse_structures",),
    "ef_games": (
        "build_category_D", "certificate_lines", "ef_equiv_derivative",
        "ef_equiv_oracle", "extract_certificate",
    ),
    "fileformats": ("fileformats",),
    "categorical": (
        "CategoricalModeloid", "categorical_derivative", "verify_categorical_modeloid",
    ),
    "free_categories": (
        "skolem_inverses", "verify_category", "verify_inverse_category_unique",
    ),
    "inverse_semigroups": (
        "InverseSemigroupTable", "Semimodeloid", "natural_leq", "resolve_inverses",
        "semimodeloid_derivative", "top_down", "verify_inverse_semigroup",
        "verify_semimodeloid", "wagner_preston",
    ),
    "modeloid": ("iterate_derivative", "verify_modeloid"),
    "verdict": ("Verdict",),
}
__getattr__ = lazy(globals(), _CALLS)
# The layers each table kind calls besides ``fileformats``, in the order
# ``verify`` lists the kinds; ``embed`` calls the semigroup kind's.
_KINDS = {
    "semigroup": ("inverse_semigroups",),
    "category": ("free_categories",),
    "inverse-category": ("free_categories",),
    "modeloid": ("modeloid",),
    "semimodeloid": ("inverse_semigroups",),
    "categorical-modeloid": ("free_categories", "categorical"),
}


def _bind(*layers: str):
    """Bind every name the handlers take from ``layers``."""
    for layer in layers:
        for name in _CALLS[layer]:
            __getattr__(name)


VERIFY_KINDS = tuple(_KINDS)
DERIVE_KINDS = ("modeloid", "semimodeloid", "categorical-modeloid")
EMIT_CHUNK = 256  # lines per write


def _bool(x: bool) -> str:
    return "true" if x else "false"


def _emit(args: argparse.Namespace, records: list[tuple[str, str]], listing=()):
    """Write ``listing`` and then ``records`` as ``key: value`` lines.  The
    machine format orders the lines by key: ``records`` are few and
    sorted here, and ``listing``, already in key order, goes where its
    first key sorts.  One write per chunk of lines keeps the calls few and
    bounds what a long listing holds at once (a level can be long)."""
    if args.fmt == "machine":
        lines = sorted(records)
        at = bisect(lines, listing[0]) if listing else 0
        lines[at:at] = listing
    else:
        lines = [*listing, *records]
    for start in range(0, len(lines), EMIT_CHUNK):
        chunk = lines[start : start + EMIT_CHUNK]
        sys.stdout.write("".join([f"{key}: {value}\n" for key, value in chunk]))


def _emit_verdict(args: argparse.Namespace, verdict: Verdict) -> int:
    records = [("ok", _bool(verdict.ok))]
    if not verdict.ok:
        records.append(("axiom", verdict.axiom))
        records.append(("witness", str(verdict.witness)))
    _emit(args, records)
    return 0 if verdict.ok else 1


def _read(args: argparse.Namespace) -> str:
    try:
        return args.file.read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise InputError(f"{args.file}: not UTF-8 text at byte {err.start}") from None


def cmd_validate(args: argparse.Namespace) -> int:
    _bind("structures")
    vocabulary, structures = parse_structures(_read(args))
    relations = " ".join(f"{n}/{a}" for n, a in vocabulary.relations) or "none"
    constants = " ".join(vocabulary.constants) or "none"
    names = " ".join(s.name for s in structures) or "none"
    _emit(
        args,
        [
            ("ok", "true"),
            ("structures", names),
            ("relations", relations),
            ("constants", constants),
        ],
    )
    return 0


def _pick_structure(structures, name: str):
    for s in structures:
        if s.name == name:
            return s
    raise InputError(f"no structure named {name} in the file")


def cmd_ef(args: argparse.Namespace) -> int:
    _bind("structures", "ef_games")
    _, structures = parse_structures(_read(args))
    A = _pick_structure(structures, args.left)
    B = _pick_structure(structures, args.right)
    category = build_category_D(A, B, args.max_universe)
    by_derivative, _witness = ef_equiv_derivative(
        A, B, args.rounds, category=category
    )
    by_oracle = ef_equiv_oracle(A, B, args.rounds, args.max_universe)
    agrees = by_derivative == by_oracle
    # extracted and written before any output, so that a failure here
    # gives no answer
    certified = args.certificate is not None and agrees
    cert = extract_certificate(A, B, args.rounds, category=category) if certified else None
    if cert is not None:
        with args.certificate.open("w", encoding="utf-8") as out:
            out.writelines(certificate_lines(cert))

    records = [
        ("equivalent", _bool(by_derivative)),
        ("rounds", str(args.rounds)),
        ("method", "derivative"),
        ("oracle-agrees", _bool(agrees)),
    ]
    _emit(args, records)

    if not agrees:
        print(
            "invariant breach: derivative says "
            f"{_bool(by_derivative)}, game oracle says {_bool(by_oracle)} "
            f"for left={args.left} right={args.right} rounds={args.rounds}",
            file=sys.stderr,
        )
        return 4

    if args.certificate is not None and cert is None:
        print(f"no certificate: not equivalent at {args.rounds} rounds", file=sys.stderr)
    return 0 if by_derivative else 1


def _table_with_inverses(
    sf: fileformats.SemigroupFile,
) -> tuple[InverseSemigroupTable | None, Verdict]:
    if sf.inv is not None:
        table = sf.to_table()
        return table, verify_inverse_semigroup(table)
    return resolve_inverses(sf.mul, sf.neutral, sf.zero)


def _instance(kind: str, text: str) -> tuple[object | None, Verdict]:
    """Parse a table file of ``kind`` and check it against its layer's
    axioms: the instance (None once a check before its own failed) and
    the verdict."""
    _bind("fileformats", *_KINDS[kind])
    if kind == "semigroup":
        return _table_with_inverses(fileformats.parse_semigroup_file(text))
    if kind == "category":
        c = fileformats.parse_category_file(text)
        return c, verify_category(c)
    if kind == "inverse-category":
        c = fileformats.parse_category_file(text)
        return c, verify_inverse_category_unique(c)
    if kind == "modeloid":
        M = fileformats.parse_modeloid_file(text)
        return M, verify_modeloid(M)
    if kind == "semimodeloid":
        sf = fileformats.parse_semimodeloid_file(text)
        table, verdict = _table_with_inverses(sf)
        if not verdict.ok:
            return None, verdict
        sm = Semimodeloid(table, frozenset(sf.members))
        return sm, verify_semimodeloid(sm)
    c, members = fileformats.parse_categorical_modeloid_file(text)
    # a declared inv row skips no check: the table must be an inverse
    # category, and inv must list its unique partners
    verdict = verify_inverse_category_unique(c)
    if not verdict.ok:
        return None, verdict
    if c.inv is None:
        c = skolem_inverses(c)
    M = CategoricalModeloid.from_members(c, members)
    return M, verify_categorical_modeloid(M)


def cmd_verify(args: argparse.Namespace) -> int:
    return _emit_verdict(args, _instance(args.kind, _read(args))[1])


def cmd_derive(args: argparse.Namespace) -> int:
    start, verdict = _instance(args.kind, _read(args))
    if not verdict.ok:
        return _emit_verdict(args, verdict)
    if args.kind == "modeloid":
        chain, stabilized = iterate_derivative(start, args.rounds)
        render = lambda level: " ".join(
            "-" if not m else ",".join(f"{a}>{b}" for a, b in m)
            for m in sorted(x.pairs for x in level.members)
        )
    else:
        step = semimodeloid_derivative if args.kind == "semimodeloid" else categorical_derivative
        chain, stabilized = fixpoint_chain(start, step, args.rounds)
        render = lambda level: " ".join(str(x) for x in sorted(level.members))
    # each distinct level is rendered once, and the stable tail repeats it
    distinct = chain if stabilized is None else chain[: stabilized + 1]
    sizes = padded([str(len(level.members)) for level in distinct], args.rounds)
    records = [
        ("sizes", " ".join(sizes)),
        ("stabilized", "none" if stabilized is None else str(stabilized)),
    ]
    levels = []
    if args.fmt == "machine":
        width = len(str(args.rounds))
        rendered = padded([render(lv) for lv in distinct], args.rounds)
        levels = [(f"level-{j:0{width}d}", line) for j, line in enumerate(rendered)]
    _emit(args, records, levels)
    return 0


def cmd_embed(args: argparse.Namespace) -> int:
    table, verdict = _instance("semigroup", _read(args))
    if not verdict.ok:
        return _emit_verdict(args, verdict)
    omegas = wagner_preston(table)
    mul = table.mul
    n = table.order
    injective = len(set(omegas)) == n
    # wagner_preston has verified associativity, so the products with
    # generators g carry omega(a*b) = omega(a) o omega(b) to every b by
    # induction on the length of b as a word in them
    gens = generators(lambda x, y: mul[x][y], top_down(mul, range(n)))
    multiplicative = all(
        omegas[mul[a][g]] == omegas[a].compose(omegas[g])
        for a in range(n)
        for g in gens
    )
    pair_sets = [frozenset(omega.pairs) for omega in omegas]
    faithful = all(
        natural_leq(table, a, b) == (pair_sets[a] <= pair_sets[b])
        for a in range(n)
        for b in range(n)
    )
    width = len(str(n - 1))
    listing = [
        (f"omega-{a:0{width}d}", " ".join(f"({x},{y})" for x, y in omega.pairs) or "-")
        for a, omega in enumerate(omegas)
    ]
    records = [
        ("injective", _bool(injective)),
        ("multiplicative", _bool(multiplicative)),
        ("order-faithful", _bool(faithful)),
    ]
    _emit(args, records, listing)
    return 0 if (injective and multiplicative and faithful) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modeloids",
        description="Verify algebraic axioms, run derivatives, and decide "
        "m-round equivalence of finite relational structures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser):
        p.add_argument("file", type=Path, help="input file")
        p.add_argument(
            "--format",
            choices=("text", "machine"),
            default="text",
            dest="fmt",
            help="machine prints sorted key:value lines",
        )

    p = sub.add_parser("validate", help="parse and validate a structure file")
    common(p)

    p = sub.add_parser("ef", help="decide m-round equivalence of two structures")
    common(p)
    p.add_argument("--left", required=True, help="name of the first structure")
    p.add_argument("--right", required=True, help="name of the second structure")
    p.add_argument("--rounds", required=True, type=int, help="number of rounds m")
    p.add_argument(
        "--certificate", type=Path, default=None, help="write the level sets here"
    )
    p.add_argument(
        "--max-universe",
        type=int,
        default=DEFAULT_EF_UNIVERSE_BOUND,
        help="largest universe size accepted",
    )

    p = sub.add_parser("verify", help="check the axioms of a table file")
    p.add_argument("kind", choices=VERIFY_KINDS)
    common(p)

    p = sub.add_parser("derive", help="iterate the derivative and print sizes")
    p.add_argument("kind", choices=DERIVE_KINDS)
    common(p)
    p.add_argument("--rounds", required=True, type=int, help="iterations to run")

    p = sub.add_parser("embed", help="realize a table as partial bijections")
    common(p)
    return parser


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    handlers = {
        "validate": cmd_validate,
        "ef": cmd_ef,
        "verify": cmd_verify,
        "derive": cmd_derive,
        "embed": cmd_embed,
    }
    try:
        if getattr(ns, "rounds", 0) < 0:
            raise InputError("--rounds must be non-negative")
        # derive and ef --certificate list rounds + 1 levels, and no list
        # is longer than sys.maxsize
        listed = ns.command == "derive" or getattr(ns, "certificate", None) is not None
        if listed and ns.rounds >= sys.maxsize:
            raise InputError(f"--rounds must be below {sys.maxsize} to list its levels")
        if getattr(ns, "max_universe", 1) < 1:
            raise InputError("--max-universe must be positive")
        return handlers[ns.command](ns)
    except (BoundExceededError, InputError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except Exception as err:
        # Exit 0 or 1 would read as an answer, so a failure of the program
        # itself gets a code of its own.
        print(f"error: internal {type(err).__name__}: {err}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    raise SystemExit(main())
