"""Command-line surface: compute, check, descend, search and replay.

Every subcommand prints one complete JSON document on stdout (never a
partial one); ``--format table`` renders the same document as aligned
key/value rows instead.  Exit status is 0 for a successful computation or
a satisfied property, 1 when a checker reports a violation or cannot
certify, 2 for usage or parse problems, and 3 when an identity the library
guarantees fails (a bug in cdlab).  Randomized searches require an
explicit seed, which is echoed in the report.
"""

import argparse
import json
import sys

from .ambient import make_ambient
from .errors import BudgetExceeded, CdlabError, InvariantBroken
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
from .search import CHECKERS, SearchSpec, replay, run_checker, run_search
from .theorems import davenport_transform, descent

_USAGE_ERRORS = (CdlabError, ValueError, KeyError)


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
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(_render(doc, args))


# -- subcommand handlers -------------------------------------------------------


def _cmd_gamma(args):
    a = _ambient_from(args)
    if args.sets:
        sets = _sets_from(a, args.sets, "--sets")
        value = gamma_tuple(sets, args.budget)
        return 0, {"value": encode_extnat(value), "n_sets": len(sets)}
    if args.x is None:
        raise ValueError("gamma needs --x or --sets")
    X = _set_from(a, args.x, "--x")
    return 0, gamma_set(X, args.budget).to_json(a)


def _cmd_sumset(args):
    a = _ambient_from(args)
    X = _set_from(a, args.x, "--x")
    if args.y is not None:
        out = sumset(X, _set_from(a, args.y, "--y"))
    else:
        out = iterated_sumset(args.n, X)
    return 0, {"elements": out.to_json(), "size": len(out)}


def _cmd_difference(args):
    a = _ambient_from(args)
    X = _set_from(a, args.x, "--x")
    Y = _set_from(a, args.y, "--y")
    out = difference(args.side, X, Y)
    return 0, {"elements": out.to_json(), "size": len(out)}


def _cmd_ord(args):
    a = _ambient_from(args)
    if args.elem is not None:
        x = a.decode(_load_json_arg(args.elem, "--elem"))
        value = ord_elem(a, x, args.budget)
    elif args.x is not None:
        value = ord_set(_set_from(a, args.x, "--x"), args.budget)
    else:
        raise ValueError("ord needs --x (a set) or --elem (one element)")
    return 0, {"value": encode_extnat(value)}


def _cmd_generated(args):
    a = _ambient_from(args)
    X = _set_from(a, args.x, "--x")
    res = generated_sym(X, args.budget) if args.sym else generated(X, args.budget)
    return 0, res.to_json()


def _cmd_davenport(args):
    a = _ambient_from(args)
    X = _set_from(a, args.x, "--x")
    Y = _set_from(a, args.y, "--y")
    z = a.decode(_load_json_arg(args.z, "--z"))
    pair = davenport_transform(X, Y, z, args.budget)
    return (0 if pair.all_hold else 1), pair.to_json()


def _cmd_check(args):
    a = _ambient_from(args)
    if args.sets:
        sets = _sets_from(a, args.sets, "--sets")
    else:
        if args.x is None:
            raise ValueError(f"checker {args.which!r} needs --x and --y (or --sets)")
        sets = [_set_from(a, args.x, "--x")]
        if args.y is not None:
            sets.append(_set_from(a, args.y, "--y"))
    ok, doc = run_checker(args.which, sets, args.budget)
    return (0 if ok is not False else 1), doc


def _cmd_descent(args):
    a = _ambient_from(args)
    X = _set_from(a, args.x, "--x")
    Y = _set_from(a, args.y, "--y")
    trace = descent(X, Y, args.budget)
    return (1 if trace.outcome == "budget_exhausted" else 0), trace.to_json()


def _cmd_search(args):
    spec = SearchSpec.from_json(_load_json_arg(args.spec, "--spec"))
    if args.workers is not None:
        spec.workers = args.workers
    if args.budget is not None:
        spec.budget = args.budget
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
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.add_argument("--out", help="also write the JSON document to this file")
    p.add_argument("-v", "--verbose", action="count", default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p.add_argument("--y")
    p.add_argument("--n", type=int, default=1, help="fold count when --y is absent")
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
    # the spec's own budget stands unless --budget is given
    p.set_defaults(fn=_cmd_search, budget=None)

    p = sub.add_parser("replay", help="re-run a checker on a recorded instance")
    _add_common(p, ambient=False)
    p.add_argument("--instance", required=True, help="instance JSON or file path")
    p.set_defaults(fn=_cmd_replay)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.verbose:
        print(f"cdlab: running {args.command}", file=sys.stderr)
    try:
        status, doc = args.fn(args)
    except BudgetExceeded as exc:
        print(f"cdlab: budget exceeded: {exc}", file=sys.stderr)
        return 1
    except InvariantBroken as exc:
        print(f"cdlab: internal error: {exc}", file=sys.stderr)
        return 3
    except _USAGE_ERRORS as exc:
        print(f"cdlab: {exc}", file=sys.stderr)
        return 2
    _emit(doc, args)
    return status


if __name__ == "__main__":
    sys.exit(main())
