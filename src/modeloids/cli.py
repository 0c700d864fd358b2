"""Command-line front-end.

Subcommands: ``validate`` (structure files), ``ef`` (m-round
equivalence by derivative, cross-checked against the game oracle),
``verify`` (axiom checks for table files), ``derive`` (derivative
chains), ``embed`` (partial-bijection representation of a table).

Exit codes: 0 success or equivalent; 1 axiom violation or not
equivalent; 2 malformed input or exceeded bound; 3 unreadable file;
4 the two equivalence methods disagree (never reconciled silently);
5 internal error (the program itself failed, e.g. an unexpected
exception in a library call; one ``error: internal`` line on stderr, no
answer is given).

``--format machine`` prints the same key:value lines sorted by key,
with booleans as lowercase true/false; repeated runs on identical
input are byte-identical.
"""

from __future__ import annotations

import argparse
import sys
from bisect import bisect
from functools import partial
from pathlib import Path

from . import fileformats as ff
from .categorical import (
    CategoricalModeloid,
    categorical_derivative,
    verify_categorical_modeloid,
)
from .ef_games import (
    DEFAULT_EF_UNIVERSE_BOUND,
    build_category_D,
    certificate_lines,
    ef_equiv_derivative,
    ef_equiv_oracle,
    extract_certificate,
)
from .derived import fixpoint_chain, padded
from .errors import BoundExceededError, InputError
from .free_categories import (
    skolem_inverses,
    verify_category,
    verify_inverse_category_unique,
)
from .inverse_semigroups import (
    InverseSemigroupTable,
    Semimodeloid,
    generators,
    natural_leq,
    resolve_inverses,
    semimodeloid_derivative,
    top_down,
    verify_inverse_semigroup,
    verify_semimodeloid,
    wagner_preston,
)
from .modeloid import iterate_derivative, verify_modeloid
from .structures import parse_structures
from .verdict import Verdict

VERIFY_KINDS = (
    "semigroup",
    "category",
    "inverse-category",
    "modeloid",
    "semimodeloid",
    "categorical-modeloid",
)
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
    return args.file.read_text(encoding="utf-8")


def cmd_validate(args: argparse.Namespace) -> int:
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
    _, structures = parse_structures(_read(args))
    A = _pick_structure(structures, args.left)
    B = _pick_structure(structures, args.right)
    category = build_category_D(A, B, args.max_universe)
    by_derivative, _witness = ef_equiv_derivative(
        A, B, args.rounds, category=category
    )
    by_oracle = ef_equiv_oracle(A, B, args.rounds, args.max_universe)
    agrees = by_derivative == by_oracle

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

    if args.certificate is not None:
        cert = extract_certificate(A, B, args.rounds, category=category)
        if cert is None:
            print(
                f"no certificate: not equivalent at {args.rounds} rounds",
                file=sys.stderr,
            )
        else:
            with args.certificate.open("w", encoding="utf-8") as out:
                out.writelines(certificate_lines(cert))
    return 0 if by_derivative else 1


def _table_with_inverses(
    sf: ff.SemigroupFile,
) -> tuple[InverseSemigroupTable | None, Verdict]:
    if sf.inv is not None:
        table = sf.to_table()
        return table, verify_inverse_semigroup(table)
    return resolve_inverses(sf.mul, sf.neutral, sf.zero)


def _semimodeloid_instance(text: str) -> tuple[Semimodeloid | None, Verdict]:
    sf = ff.parse_semimodeloid_file(text)
    table, verdict = _table_with_inverses(sf)
    if not verdict.ok:
        return None, verdict
    sm = Semimodeloid(table, frozenset(sf.members))
    return sm, verify_semimodeloid(sm)


def _categorical_instance(text: str) -> tuple[CategoricalModeloid | None, Verdict]:
    c, members = ff.parse_categorical_modeloid_file(text)
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
    text = _read(args)
    if args.kind == "semigroup":
        _, verdict = _table_with_inverses(ff.parse_semigroup_file(text))
    elif args.kind == "category":
        verdict = verify_category(ff.parse_category_file(text))
    elif args.kind == "inverse-category":
        verdict = verify_inverse_category_unique(ff.parse_category_file(text))
    elif args.kind == "modeloid":
        verdict = verify_modeloid(ff.parse_modeloid_file(text))
    elif args.kind == "semimodeloid":
        _, verdict = _semimodeloid_instance(text)
    else:
        _, verdict = _categorical_instance(text)
    return _emit_verdict(args, verdict)


def cmd_derive(args: argparse.Namespace) -> int:
    text = _read(args)
    if args.kind == "modeloid":
        M = ff.parse_modeloid_file(text)
        verdict = verify_modeloid(M)
        if not verdict.ok:
            return _emit_verdict(args, verdict)
        chain, stabilized = iterate_derivative(M, args.rounds)
        render = lambda level: " ".join(
            "-" if not m else ",".join(f"{a}>{b}" for a, b in m)
            for m in sorted(x.pairs for x in level.members)
        )
    else:
        if args.kind == "semimodeloid":
            start, verdict = _semimodeloid_instance(text)
            step = semimodeloid_derivative
        else:
            start, verdict = _categorical_instance(text)
            step = partial(categorical_derivative, check=False)
        if not verdict.ok:
            return _emit_verdict(args, verdict)
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
    sf = ff.parse_semigroup_file(_read(args))
    table, verdict = _table_with_inverses(sf)
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
