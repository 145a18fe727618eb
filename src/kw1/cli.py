"""Command-line surface.

Subcommands: check (full verdict pipeline), index, pmap, center, rank,
oracle, lemma1 (Frobenius-subring rank), examples.  Exit codes of
``check``: 0 all reports verified, 2 some report inconclusive, 1 input
error, 3 internal error.  All randomness is derived from --seed, so a
repeated invocation produces byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass

from .center import (
    center_basis_bounded,
    default_degree_bound,
    kw1_verdict,
    rank_over_frobenius_subring,
)
from .errors import (
    DegreeBoundTooLargeForMemory,
    DenominatorDivisibleByP,
    DimensionCap,
    DuplicateLabel,
    JacobiError,
    KW1Error,
    NotRestrictable,
    ParseError,
    PrimeOutsideInt64Range,
)
from .fields import is_prime
from .liealg import base_change_mod_p, index_generic, with_p_map
from .redenv import max_irreducible_dim
from .registry import builtin_examples, get_example, parse_input
from .reports import render

_INPUT_ERRORS = (
    ParseError,
    DuplicateLabel,
    JacobiError,
    DenominatorDivisibleByP,
    DimensionCap,
    DegreeBoundTooLargeForMemory,
    PrimeOutsideInt64Range,
    NotRestrictable,
    ValueError,
)


@dataclass
class RunConfig:
    """Knobs of one verdict run; defaults match the documented CLI."""

    primes: tuple
    ext: int | None = None
    degree_bound: int | None = None
    samples: int = 10
    seed: int = 0
    with_oracle: bool = False
    output_format: str = "json"

    def __post_init__(self):
        if not self.primes:
            raise ParseError("at least one prime is required")
        for k, p in enumerate(self.primes):
            if not is_prime(p):
                raise ParseError(f"{p} is not prime")
            if p in self.primes[:k]:
                raise ParseError(f"prime {p} is given twice")
        if self.degree_bound is not None and self.degree_bound < 1:
            raise ParseError("degree bound must be >= 1")
        if self.samples < 1:
            raise ParseError("samples must be >= 1")
        if self.output_format not in ("json", "md", "csv"):
            raise ParseError(f"unknown format {self.output_format!r}")


def _prepare(presentation, p):
    return with_p_map(base_change_mod_p(presentation, p), override=presentation.pmap_override)


def run(config: RunConfig, presentation):
    """One report per prime, in the order of config.primes.

    Returns (reports, exit code): 0 when every verdict is verified,
    2 when any is inconclusive.  Input and internal errors are raised
    and mapped to exit codes 1 and 3 by ``main``.
    """
    reports = []
    for p in config.primes:
        alg = _prepare(presentation, p)
        report = kw1_verdict(
            alg,
            degree_bound=config.degree_bound,
            seed=config.seed,
            min_extension=config.ext or 1,
        )
        if config.with_oracle:
            est = max_irreducible_dim(alg, samples=config.samples, seed=config.seed)
            report.oracle_estimate = est.as_dict()
        reports.append(report)
    code = 0 if all(r.verdict == "verified" for r in reports) else 2
    return reports, code


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ParseError(message)


def _add_source(sub):
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--example", help="builtin example name")
    group.add_argument("--input", help="path to a JSON input document")


def _load_presentation(args):
    if args.example:
        return get_example(args.example)
    return parse_input(args.input)


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _count(minimum):
    """argparse type: an int no smaller than ``minimum``."""

    def count(text):
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return count


def _parse_primes(text):
    try:
        return tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise ParseError(f"bad prime list {text!r}") from None


_TERM_RE = re.compile(r"^\s*(-?\d+)?\s*(\*)?\s*([a-zA-Z0-9^* ]*)\s*$")


def _parse_poly(text, num_vars):
    """Tiny parser for integer polynomials in x1..xn, '+'-separated terms."""
    terms = {}
    for raw in text.split("+"):
        raw = raw.strip()
        if not raw:
            continue
        match = _TERM_RE.match(raw)
        if not match:
            raise ParseError(f"cannot parse polynomial term {raw!r}")
        coeff, star, body = match.groups()
        factors = [f.strip() for f in body.split("*")] if body.strip() else []
        # a '*' needs a factor on each side
        if (star and not (coeff and factors)) or "" in factors:
            raise ParseError(f"empty factor in polynomial term {raw!r}")
        exps = [0] * num_vars
        for factor in factors:
            var, caret, power = (part.strip() for part in factor.partition("^"))
            if caret and not power.isdigit():
                raise ParseError(f"bad exponent in polynomial term {raw!r}")
            if not (var.startswith("x") and var[1:].isdigit()):
                raise ParseError(f"unknown variable {var!r} (use x1..x{num_vars})")
            idx = int(var[1:]) - 1
            if not 0 <= idx < num_vars:
                raise ParseError(f"variable {var!r} out of range")
            exps[idx] += int(power) if caret else 1
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + int(coeff or 1)
    return {k: v for k, v in terms.items() if v}


def build_parser() -> _Parser:
    parser = _Parser(prog="kw1", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="full verdict pipeline over several primes")
    _add_source(check)
    check.add_argument("--primes", required=True, help="comma-separated primes")
    check.add_argument("--ext", type=_count(1), default=None, help="force extension degree")
    check.add_argument("--degree-bound", type=_count(1), default=None)
    check.add_argument("--samples", type=_count(1), default=10)
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--oracle", action="store_true")
    check.add_argument("--format", default="json", choices=("json", "md", "csv"))
    check.add_argument("--out", default=None)

    index = sub.add_parser("index", help="index of the algebra")
    _add_source(index)
    index.add_argument("--prime", type=int, default=None,
                       help="reduce mod p first (default: over the rationals)")
    index.add_argument("--samples", type=_count(1), default=3, help="random trials")
    index.add_argument("--seed", type=int, default=0)
    index.add_argument("--out", default=None)

    pmap = sub.add_parser("pmap", help="restricted p-power map table")
    _add_source(pmap)
    pmap.add_argument("--prime", type=int, required=True)
    pmap.add_argument("--out", default=None)

    center = sub.add_parser("center", help="degree-bounded center basis")
    _add_source(center)
    center.add_argument("--prime", type=int, required=True)
    center.add_argument("--degree-bound", type=_count(1), default=None)
    center.add_argument("--seed", type=int, default=0)
    center.add_argument("--out", default=None)

    rank = sub.add_parser("rank", help="rank of the center over the p-center")
    _add_source(rank)
    rank.add_argument("--prime", type=int, required=True)
    rank.add_argument("--degree-bound", type=_count(1), default=None)
    rank.add_argument("--seed", type=int, default=0)
    rank.add_argument("--out", default=None)

    oracle = sub.add_parser("oracle", help="module-splitting estimate of M(g)")
    _add_source(oracle)
    oracle.add_argument("--prime", type=int, required=True)
    oracle.add_argument("--samples", type=_count(1), default=10)
    oracle.add_argument("--seed", type=int, default=0)
    oracle.add_argument("--out", default=None)

    lemma1 = sub.add_parser(
        "lemma1", help="rank of a polynomial ring over B times p-th powers"
    )
    lemma1.add_argument("--nvars", type=_count(0), required=True)
    lemma1.add_argument("--prime", type=int, required=True)
    lemma1.add_argument(
        "--gens",
        default="",
        help="comma-separated integer polynomials in x1..xn, e.g. 'x1, x1^2*x2'",
    )
    lemma1.add_argument("--seed", type=int, default=0)
    lemma1.add_argument("--out", default=None)

    examples = sub.add_parser("examples", help="list builtin examples")
    examples.add_argument("--out", default=None)

    return parser


def _json_line(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _dispatch(args) -> int:
    if args.command == "check":
        config = RunConfig(
            primes=_parse_primes(args.primes),
            ext=args.ext,
            degree_bound=args.degree_bound,
            samples=args.samples,
            seed=args.seed,
            with_oracle=args.oracle,
            output_format=args.format,
        )
        presentation = _load_presentation(args)
        reports, code = run(config, presentation)
        _emit(render(reports, config.output_format), args.out)
        return code

    if args.command == "index":
        presentation = _load_presentation(args)
        if args.prime is None:
            ind = index_generic(presentation, trials=args.samples, seed=args.seed)
            where = "QQ"
        else:
            alg = _prepare(presentation, args.prime)
            ind = index_generic(alg, trials=args.samples, seed=args.seed)
            where = f"F_{args.prime}"
        _emit(
            _json_line(
                {
                    "algebra": presentation.name,
                    "field": where,
                    "index": ind,
                    "trials": args.samples,
                    "seed": args.seed,
                }
            ),
            args.out,
        )
        return 0

    if args.command == "pmap":
        presentation = _load_presentation(args)
        alg = _prepare(presentation, args.prime)
        table = {}
        for i, lbl in enumerate(alg.labels):
            row = alg.restricted.vector(i)
            parts = [
                (alg.labels[k] if int(c) == 1 else f"{int(c)}*{alg.labels[k]}")
                for k, c in enumerate(row)
                if c
            ]
            table[lbl] = " + ".join(parts) if parts else "0"
        _emit(
            _json_line({"algebra": alg.name, "p": alg.p, "pMap": table}), args.out
        )
        return 0

    if args.command == "center":
        presentation = _load_presentation(args)
        alg = _prepare(presentation, args.prime)
        bound = args.degree_bound if args.degree_bound is not None else default_degree_bound(alg)
        cb = center_basis_bounded(alg, bound, seed=args.seed)
        lines = [
            f"# center of {alg.name} mod {alg.p}, degree <= {bound}, "
            f"dimension {len(cb.elements)}, stabilized {cb.stabilized}"
        ]
        lines += [el.render() for el in cb.elements]
        _emit("\n".join(lines) + "\n", args.out)
        return 0

    if args.command == "rank":
        presentation = _load_presentation(args)
        alg = _prepare(presentation, args.prime)
        bound = args.degree_bound if args.degree_bound is not None else default_degree_bound(alg)
        cb = center_basis_bounded(alg, bound, seed=args.seed)
        _emit(
            _json_line(
                {
                    "algebra": alg.name,
                    "p": alg.p,
                    "degreeBound": bound,
                    "centerDimension": len(cb.elements),
                    "rankZoverZp": cb.rank,
                    "stabilized": cb.stabilized,
                    "seed": args.seed,
                }
            ),
            args.out,
        )
        return 0

    if args.command == "oracle":
        presentation = _load_presentation(args)
        alg = _prepare(presentation, args.prime)
        est = max_irreducible_dim(alg, samples=args.samples, seed=args.seed)
        _emit(
            _json_line({"algebra": alg.name, "p": alg.p, **est.as_dict()}), args.out
        )
        return 0

    if args.command == "lemma1":
        gens = [
            _parse_poly(g, args.nvars)
            for g in args.gens.split(",")
            if g.strip()
        ]
        r = rank_over_frobenius_subring(
            args.nvars, gens, args.prime, seed=args.seed
        )
        _emit(
            _json_line(
                {
                    "nvars": args.nvars,
                    "p": args.prime,
                    "generators": [g for g in args.gens.split(",") if g.strip()],
                    "rankOverBAp": r,
                    "seed": args.seed,
                }
            ),
            args.out,
        )
        return 0

    if args.command == "examples":
        rows = {}
        for name, pres in builtin_examples().items():
            rows[name] = {"dim": pres.n, "basis": list(pres.labels)}
        rows["remark:N:M"] = {"dim": 3, "basis": ["h", "x", "y"]}
        rows["abelian:N"] = {"dim": "N", "basis": ["x1", "..", "xN"]}
        _emit(_json_line(rows), args.out)
        return 0

    raise ParseError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        return _dispatch(args)
    except _INPUT_ERRORS as exc:
        print(f"kw1: input error: {exc}", file=sys.stderr)
        return 1
    except KW1Error as exc:
        print(f"kw1: internal error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001
        print(f"kw1: internal error: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
