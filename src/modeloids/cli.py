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

``COMMANDS`` describes the command line once.  A plain command line (the
command first, each flag at most once as ``--flag value``, the
positionals in order, no value that starts with ``-``) is read from it
without importing argparse; help, usage errors and the rarer spellings
(an abbreviated flag, ``--flag=value``, ``--``, a repeated flag) go to
the argparse parser built from it, so their output is argparse's.
"""

from __future__ import annotations

import sys
from bisect import bisect
from pathlib import Path
from types import SimpleNamespace

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


def _emit(args: SimpleNamespace, records: list[tuple[str, str]], listing=()):
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


def _emit_verdict(args: SimpleNamespace, verdict: Verdict) -> int:
    records = [("ok", _bool(verdict.ok))]
    if not verdict.ok:
        records.append(("axiom", verdict.axiom))
        records.append(("witness", str(verdict.witness)))
    _emit(args, records)
    return 0 if verdict.ok else 1


def _read(args: SimpleNamespace) -> str:
    try:
        return args.file.read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise InputError(f"{args.file}: not UTF-8 text at byte {err.start}") from None


def cmd_validate(args: SimpleNamespace) -> int:
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


def cmd_ef(args: SimpleNamespace) -> int:
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


def cmd_verify(args: SimpleNamespace) -> int:
    return _emit_verdict(args, _instance(args.kind, _read(args))[1])


def cmd_derive(args: SimpleNamespace) -> int:
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


def cmd_embed(args: SimpleNamespace) -> int:
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


# The command line, one entry per subcommand: its handler, its help line
# and its arguments in the order the help lists them, each as a name and
# the keywords argparse's ``add_argument`` takes.  ``build_parser`` hands
# them to argparse; ``_plain`` reads them itself.
_FILE = ("file", dict(type=Path, help="input file"))
_FORMAT = (
    "--format",
    dict(choices=("text", "machine"), default="text", dest="fmt",
         help="machine prints sorted key:value lines"),
)
COMMANDS = {
    "validate": (cmd_validate, "parse and validate a structure file", (_FILE, _FORMAT)),
    "ef": (cmd_ef, "decide m-round equivalence of two structures", (
        _FILE,
        _FORMAT,
        ("--left", dict(required=True, help="name of the first structure")),
        ("--right", dict(required=True, help="name of the second structure")),
        ("--rounds", dict(required=True, type=int, help="number of rounds m")),
        ("--certificate", dict(type=Path, default=None, help="write the level sets here")),
        ("--max-universe", dict(type=int, default=DEFAULT_EF_UNIVERSE_BOUND,
                                help="largest universe size accepted")),
    )),
    "verify": (cmd_verify, "check the axioms of a table file", (
        ("kind", dict(choices=VERIFY_KINDS)), _FILE, _FORMAT,
    )),
    "derive": (cmd_derive, "iterate the derivative and print sizes", (
        ("kind", dict(choices=DERIVE_KINDS)),
        _FILE,
        _FORMAT,
        ("--rounds", dict(required=True, type=int, help="iterations to run")),
    )),
    "embed": (cmd_embed, "realize a table as partial bijections", (_FILE, _FORMAT)),
}


def build_parser():
    """The argparse parser of ``COMMANDS``: it prints the help and the
    usage errors, and reads every spelling ``_plain`` leaves to it."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="modeloids",
        description="Verify algebraic axioms, run derivatives, and decide "
        "m-round equivalence of finite relational structures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, summary, arguments) in COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for name, keywords in arguments:
            p.add_argument(name, **keywords)
    return parser


def _dest(name: str, keywords: dict) -> str:
    return keywords.get("dest", name.lstrip("-").replace("-", "_"))


def _plain(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse gives ``argv``, read without argparse when
    ``argv`` is spelt the plain way, else None: the command first, each of
    its flags at most once as ``--flag value``, its positionals in order,
    no token that starts with ``-`` but a flag's own name, and every value
    of its type (``int`` or ``Path``, called as argparse calls it) and
    among its choices.  Help, abbreviated flags, ``--flag=value``, ``--``,
    a repeated flag and every usage error are argparse's."""
    if not argv or argv[0] not in COMMANDS:
        return None
    arguments = COMMANDS[argv[0]][2]
    flags = {name: keywords for name, keywords in arguments if name.startswith("-")}
    positionals = iter([entry for entry in arguments if not entry[0].startswith("-")])
    ns = SimpleNamespace(command=argv[0])
    tokens = iter(argv[1:])
    for token in tokens:
        if token.startswith("-"):
            name, keywords, value = token, flags.pop(token, None), next(tokens, None)
            if keywords is None or value is None or value.startswith("-"):
                return None
        else:
            (name, keywords), value = next(positionals, (None, None)), token
            if name is None:
                return None
        try:
            value = keywords.get("type", str)(value)
        except ValueError:
            return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        setattr(ns, _dest(name, keywords), value)
    if next(positionals, None) is not None:
        return None
    for name, keywords in flags.items():
        if keywords.get("required"):
            return None
        setattr(ns, _dest(name, keywords), keywords.get("default"))
    return ns


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    ns = _plain(argv) or SimpleNamespace(**vars(build_parser().parse_args(argv)))
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
        return COMMANDS[ns.command][0](ns)
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
