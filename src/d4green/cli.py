"""Command line front end.

Subcommands::

    d4green multiply "[V(2,0)]" "[V(2,0)]"
    d4green dual "[O^2V(0)]"
    d4green presentation normal-form "y*z"
    d4green presentation to-modules "X_{2,1/3}"
    d4green presentation from-modules "[O^2V(0)]"
    d4green presentation normal-form -- "-x"
    d4green verify table --max-s 2 --etas 0,1,oo --seed 7 --jobs 2

Exit codes: 0 success, 1 verification failure, 2 usage or parse error,
3 internal error (an unexpected exception, reported on one line as
``error: internal: <Type>: <message>``), 141 when the reader closed
standard output (128 + SIGPIPE, as a shell reports a SIGPIPE death).

Integers are printed and parsed without the interpreter's default limit
of 4300 digits, which results such as ``from-modules "[O^20000V(0)]"``
exceed; the limit is lifted for the duration of :func:`main` only.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .grammar import (
    ParseError,
    element_to_json,
    parse_element,
    parse_eta,
    parse_pres_element,
    pres_to_json,
    render_element,
    render_pres_element,
)
from .green import dual, mul
from .presentation import from_green, to_green


def _parse_etas(csv: str):
    """Comma-separated etas; an empty or blank list means no bands.

    A parse error's position counts from the start of the whole list.
    """
    etas, start = [], 0
    for i, part in enumerate(csv.split(",") if csv.strip() else [], 1):
        if not part.strip():
            raise ValueError(f"--etas item {i} of {csv!r} is empty")
        try:
            etas.append(parse_eta(part))
        except ParseError as exc:
            raise ParseError(exc.message, start + exc.pos) from None
        start += len(part) + 1
    return tuple(etas)


def _emit(args, element=None, pres=None) -> None:
    if args.format == "json":
        payload = element_to_json(element) if element is not None else pres_to_json(pres)
        print(json.dumps(payload, separators=(",", ":")))
    elif element is not None:
        print(render_element(element))
    else:
        print(render_pres_element(pres))


def _cmd_multiply(args) -> int:
    product = mul(parse_element(args.e1), parse_element(args.e2))
    _emit(args, element=product)
    return 0


def _cmd_dual(args) -> int:
    _emit(args, element=dual(parse_element(args.expr)))
    return 0


def _cmd_presentation(args) -> int:
    if args.mode == "normal-form":
        _emit(args, pres=parse_pres_element(args.expr))
    elif args.mode == "to-modules":
        _emit(args, element=to_green(parse_pres_element(args.expr)))
    else:
        _emit(args, pres=from_green(parse_element(args.expr)))
    return 0


def _cmd_verify(args) -> int:
    from .verify import DEFAULT_ETAS, run_scope  # here, so that the other commands never load the matrix oracle

    cpus = os.cpu_count() or 1
    if not 1 <= args.jobs <= cpus:
        raise ValueError(f"--jobs must be between 1 and {cpus}, got {args.jobs}")
    etas = _parse_etas(args.etas) if args.etas is not None else DEFAULT_ETAS
    reports = run_scope(args.scope, max_s=args.max_s, etas=etas, seed=args.seed, jobs=args.jobs)
    for report in reports:
        print(report.render())
    return 0 if all(r.passed for r in reports) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="d4green",
        description="Green ring calculator for the Drinfeld double of Sweedler's Hopf algebra",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    dash = 'An element that starts with "-" goes after "--", as in: d4green dual -- "-[O^2V(0)]"'

    p = sub.add_parser("multiply", help="decompose a product of two elements", epilog=dash)
    p.add_argument("e1")
    p.add_argument("e2")
    add_format(p)
    p.set_defaults(func=_cmd_multiply)

    p = sub.add_parser("dual", help="dual of an element", epilog=dash)
    p.add_argument("expr")
    add_format(p)
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("presentation", help="normal forms and conversions", epilog=dash)
    p.add_argument("mode", choices=("normal-form", "to-modules", "from-modules"))
    p.add_argument("expr")
    add_format(p)
    p.set_defaults(func=_cmd_presentation)

    p = sub.add_parser("verify", help="cross-check the models over a grid")
    p.add_argument("scope", choices=("table", "presentation", "braiding", "all"))
    p.add_argument("--max-s", type=int, default=2, dest="max_s")
    p.add_argument("--etas", default=None, help="comma-separated etas, each oo or [-]p[/q] (default 0,1,oo)")
    p.add_argument(
        "--seed", type=int, default=0,
        help="seeds the random words of the presentation scope; table and braiding only print it",
    )
    p.add_argument("--jobs", type=int, default=1, help="worker processes, 1 to the number of CPUs")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the flush at exit would raise again: send what is left to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # anything else is a bug, kept apart from exit 1
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    finally:
        sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
