"""Command-line surface: compute, check, descend, search and replay.

Every subcommand prints one complete JSON document on stdout (never a
partial one); ``--format table`` renders the same document as aligned
key/value rows instead.  Exit status is 0 for a successful computation or
a satisfied property, 1 when a checker reports a violation, 2 for usage,
parse or output-file problems, and 3 when an identity the library
guarantees fails (a bug in cdlab), such as a Davenport transform fact.
Randomized searches require an explicit seed, which is echoed in the
report.
"""

import argparse
import json
import sys

from .ambient import make_ambient
from .errors import CdlabError, InvariantBroken
from .extnat import encode_extnat
from .gamma import gamma_set, gamma_tuple
from .setops import (
    DEFAULT_BUDGET,
    FinSet,
    difference,
    generated,
    generated_sym,
    iterated_sumset,
    ord_elem,
    ord_set,
    sumset,
)
from .search import CHECKERS, SearchSpec, _int_field, replay, run_checker, run_search
from .theorems import davenport_transform, descent

_USAGE_ERRORS = (CdlabError, ValueError)


def _load_json_arg(text: str, what: str):
    """Inline JSON, or a path to a file holding JSON."""
    text = text.strip()
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        pass
    try:
        with open(text) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"{what}: neither inline JSON nor a readable file: {exc}")
    except json.JSONDecodeError as exc:
        raise ValueError(f"{what}: file does not hold valid JSON: {exc}")


def _ambient_from(args):
    return make_ambient(_load_json_arg(args.ambient, "--ambient"))


def _set_from(ambient, text: str, what: str) -> FinSet:
    return FinSet.from_json(ambient, _load_json_arg(text, what))


def _sets_from(ambient, text: str, what: str) -> list:
    payload = _load_json_arg(text, what)
    if not isinstance(payload, list):
        raise ValueError(f"{what} must be an array of sets, got {payload!r}")
    return [FinSet.from_json(ambient, s) for s in payload]


def _one_of(args, *flags) -> str:
    """The one flag of these alternatives that was given."""
    given = [f for f in flags if getattr(args, f) is not None]
    if len(given) != 1:
        names = " and ".join(f"--{f}" for f in flags)
        raise ValueError(f"{args.command} takes exactly one of {names}")
    return given[0]


def _render(doc: dict, args) -> str:
    if args.format == "table":
        rows = []
        width = max((len(k) for k in doc), default=0)
        for key in sorted(doc):
            value = doc[key]
            if isinstance(value, (dict, list)):
                value = json.dumps(value, sort_keys=True)
            rows.append(f"{key:<{width}}  {value}")
        return "\n".join(rows)
    return json.dumps(doc, indent=2, sort_keys=True)


def _emit(doc: dict, args) -> None:
    if args.out is not None:
        try:
            with open(args.out, "w") as fh:
                json.dump(doc, fh, indent=2, sort_keys=True)
                fh.write("\n")
        except OSError as exc:
            raise ValueError(f"--out: cannot write the document: {exc}")
    print(_render(doc, args))


# -- subcommand handlers -------------------------------------------------------


def _cmd_gamma(args):
    a = _ambient_from(args)
    if _one_of(args, "x", "sets") == "sets":
        sets = _sets_from(a, args.sets, "--sets")
        value = gamma_tuple(sets)
        return 0, {"value": encode_extnat(value), "n_sets": len(sets)}
    X = _set_from(a, args.x, "--x")
    return 0, gamma_set(X).to_json(a)


def _cmd_sumset(args):
    a = _ambient_from(args)
    X = _set_from(a, args.x, "--x")
    if args.y is not None:
        out = sumset(X, _set_from(a, args.y, "--y"))
    else:
        out = iterated_sumset(1 if args.n is None else args.n, X)
    return 0, {"elements": out.to_json(), "size": len(out)}


def _cmd_difference(args):
    a = _ambient_from(args)
    X = _set_from(a, args.x, "--x")
    Y = _set_from(a, args.y, "--y")
    out = difference(args.side, X, Y)
    return 0, {"elements": out.to_json(), "size": len(out)}


def _cmd_ord(args):
    a = _ambient_from(args)
    if _one_of(args, "x", "elem") == "elem":
        value = ord_elem(a, a.decode(_load_json_arg(args.elem, "--elem")))
    else:
        value = ord_set(_set_from(a, args.x, "--x"))
    return 0, {"value": encode_extnat(value)}


def _cmd_generated(args):
    a = _ambient_from(args)
    X = _set_from(a, args.x, "--x")
    budget = _int_field(args.budget, "--budget", 1)
    res = generated_sym(X, budget) if args.sym else generated(X, budget)
    return 0, res.to_json()


def _cmd_davenport(args):
    a = _ambient_from(args)
    X = _set_from(a, args.x, "--x")
    Y = _set_from(a, args.y, "--y")
    z = a.decode(_load_json_arg(args.z, "--z"))
    pair = davenport_transform(X, Y, z)
    # davenport_transform requires every hypothesis under which the four
    # facts are proved, so a failed fact is a bug
    if pair.failed_facts:
        raise InvariantBroken(f"Davenport transform facts failed: {', '.join(pair.failed_facts)}")
    return 0, pair.to_json()


def _cmd_check(args):
    a = _ambient_from(args)
    if _one_of(args, "x", "sets") == "sets":
        if args.y is not None:
            raise ValueError("check takes --y only with --x")
        sets = _sets_from(a, args.sets, "--sets")
    else:
        sets = [_set_from(a, args.x, "--x")]
        if args.y is not None:
            sets.append(_set_from(a, args.y, "--y"))
    ok, doc = run_checker(args.which, sets)
    return (0 if ok is not False else 1), doc


def _cmd_descent(args):
    a = _ambient_from(args)
    X = _set_from(a, args.x, "--x")
    Y = _set_from(a, args.y, "--y")
    return 0, descent(X, Y).to_json()


def _cmd_search(args):
    spec = SearchSpec.from_json(_load_json_arg(args.spec, "--spec"))
    if args.workers is not None:
        spec.workers = args.workers
    if args.seed is not None:
        if not isinstance(spec.mode, dict) or spec.mode.get("kind") != "random":
            raise ValueError("--seed only applies to random search modes")
        spec.mode = dict(spec.mode, seed=args.seed)
    report = run_search(spec)
    return (1 if report.violations else 0), report.to_json()


def _cmd_replay(args):
    ok, verdict = replay(_load_json_arg(args.instance, "--instance"))
    return (0 if ok is not False else 1), {"ok": ok is not False, "verdict": verdict}


# -- parser --------------------------------------------------------------------


def _add_common(p, ambient=True):
    if ambient:
        p.add_argument("--ambient", required=True, help="ambient JSON or file path")
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.add_argument("--out", help="also write the JSON document to this file")
    p.add_argument("-v", "--verbose", action="count", default=0)


class _Parser(argparse.ArgumentParser):
    """A parser whose errors are usage errors for main to report, not a
    usage block and an exit."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cdlab",
        description=(
            "Sumset arithmetic, Cauchy-Davenport constants, Davenport "
            "transforms, inequality checkers and counterexample search "
            "over finite groups and cancellative semigroups."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gamma", help="Cauchy-Davenport constant of a set or tuple")
    _add_common(p)
    p.add_argument("--x", help="set JSON or file path")
    p.add_argument("--sets", help="JSON array of set encodings (tuple constant)")
    p.set_defaults(fn=_cmd_gamma)

    p = sub.add_parser("sumset", help="X + Y, or the n-fold sumset of X")
    _add_common(p)
    p.add_argument("--x", required=True)
    alt = p.add_mutually_exclusive_group()
    alt.add_argument("--y")
    alt.add_argument("--n", type=int, help="fold count when --y is absent; 1 by default")
    p.set_defaults(fn=_cmd_sumset)

    p = sub.add_parser("difference", help="difference set on the chosen side")
    _add_common(p)
    p.add_argument("--side", choices=("right", "left"), default="right")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.set_defaults(fn=_cmd_difference)

    p = sub.add_parser("ord", help="order of an element or of a set")
    _add_common(p)
    p.add_argument("--x", help="set JSON or file path")
    p.add_argument("--elem", help="single element JSON")
    p.set_defaults(fn=_cmd_ord)

    p = sub.add_parser("generated", help="generated subsemigroup under a budget")
    _add_common(p)
    p.add_argument("--x", required=True)
    p.add_argument("--sym", action="store_true", help="adjoin inverses of units first")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(fn=_cmd_generated)

    p = sub.add_parser("davenport", help="Davenport transform at a gap element")
    _add_common(p)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--z", required=True, help="gap element JSON")
    p.set_defaults(fn=_cmd_davenport)

    p = sub.add_parser("check", help="run one inequality/equivalence checker")
    _add_common(p)
    p.add_argument(
        "--which",
        required=True,
        choices=tuple(CHECKERS),
    )
    p.add_argument("--x")
    p.add_argument("--y")
    p.add_argument("--sets", help="JSON array of set encodings (n-ary checkers)")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("descent", help="certificate-producing descent trace")
    _add_common(p)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.set_defaults(fn=_cmd_descent)

    p = sub.add_parser("search", help="run a search specification")
    _add_common(p, ambient=False)
    p.add_argument("--spec", required=True, help="SearchSpec JSON or file path")
    p.add_argument("--workers", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=_cmd_search)

    p = sub.add_parser("replay", help="re-run a checker on a recorded instance")
    _add_common(p, ambient=False)
    p.add_argument("--instance", required=True, help="instance JSON or file path")
    p.set_defaults(fn=_cmd_replay)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.verbose:
            print(f"cdlab: running {args.command}", file=sys.stderr)
        status, doc = args.fn(args)
        _emit(doc, args)
    except InvariantBroken as exc:
        print(f"cdlab: internal error: {exc}", file=sys.stderr)
        return 3
    except _USAGE_ERRORS as exc:
        print(f"cdlab: {exc}", file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
