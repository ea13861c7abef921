import argparse
import contextlib
import inspect
import io
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

import cdlab
from cdlab.cli import build_parser, main

Z6 = '{"kind":"zmod","n":6}'
Z4 = '{"kind":"zmod","n":4}'
_SUBCOMMANDS = next(
    a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
).choices


def run_cli(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr()
    return status, out.out, out.err


def test_gamma_subcommand(capsys):
    status, out, _ = run_cli(capsys, "gamma", "--ambient", Z6, "--x", "[0,2]")
    assert status == 0
    doc = json.loads(out)
    assert doc == {"value": 3, "witness": 0}


def test_gamma_tuple_subcommand(capsys):
    status, out, _ = run_cli(
        capsys, "gamma", "--ambient", Z6, "--sets", "[[0,1],[0,2]]"
    )
    assert status == 0
    assert json.loads(out)["value"] == 6


def test_check_theorem_fixture(capsys):
    status, out, _ = run_cli(
        capsys, "check", "--which", "theorem", "--ambient", Z4,
        "--x", "[0,2]", "--y", "[0,2]",
    )
    assert status == 0
    doc = json.loads(out)
    assert doc["branch_ii"] is True and doc["disjunction_holds"] is True


def test_json_output_round_trips_byte_identically(capsys):
    _, out, _ = run_cli(
        capsys, "check", "--which", "udt", "--ambient", Z6, "--x", "[0,1]", "--y", "[0,2]"
    )
    text = out.rstrip("\n")
    assert json.dumps(json.loads(text), indent=2, sort_keys=True) == text


def test_sumset_and_difference(capsys):
    status, out, _ = run_cli(capsys, "sumset", "--ambient", Z6, "--x", "[4]", "--y", "[5]")
    assert status == 0 and json.loads(out)["elements"] == [3]
    status, out, _ = run_cli(
        capsys, "difference", "--ambient", Z6, "--side", "right", "--x", "[1]", "--y", "[2]"
    )
    assert status == 0 and json.loads(out)["elements"] == [5]
    status, out, _ = run_cli(capsys, "sumset", "--ambient", Z6, "--x", "[0,2]", "--n", "2")
    assert status == 0 and json.loads(out)["elements"] == [0, 2, 4]


def test_ord_and_generated(capsys):
    status, out, _ = run_cli(capsys, "ord", "--ambient", Z6, "--elem", "2")
    assert status == 0 and json.loads(out)["value"] == 3
    nat = '{"kind":"nat_lattice","dim":1}'
    status, out, _ = run_cli(capsys, "ord", "--ambient", nat, "--elem", "[1]")
    assert status == 0 and json.loads(out)["value"] == "inf"
    status, out, _ = run_cli(capsys, "ord", "--ambient", Z6, "--x", "[2,3]")
    assert status == 0 and json.loads(out)["value"] == 6
    status, out, _ = run_cli(capsys, "ord", "--ambient", nat, "--x", "[[0],[2]]")
    assert status == 0 and json.loads(out)["value"] == "inf"
    status, out, _ = run_cli(capsys, "generated", "--ambient", Z6, "--x", "[2]")
    assert status == 0
    doc = json.loads(out)
    assert doc == {"closure": [0, 2, 4], "complete": True, "budget_used": 3}


def test_davenport_and_descent(capsys):
    z5 = '{"kind":"zmod","n":5}'
    status, out, _ = run_cli(
        capsys, "davenport", "--ambient", z5, "--x", "[0]", "--y", "[0,1]", "--z", "2"
    )
    assert status == 0
    doc = json.loads(out)
    assert doc["y_tilde"] == [1] and doc["y_keep"] == [0]
    status, out, _ = run_cli(
        capsys, "descent", "--ambient", z5, "--x", "[0]", "--y", "[0,1]"
    )
    assert status == 0
    assert json.loads(out)["outcome"] == "bound_certified"


def test_parse_errors_exit_2(capsys):
    status, _, err = run_cli(
        capsys, "sumset", "--ambient", Z6, "--x", "[0,9]", "--y", "[1]"
    )
    assert status == 2 and "cdlab:" in err
    status, _, err = run_cli(capsys, "sumset", "--ambient", "{bad json", "--x", "[0]", "--y", "[1]")
    assert status == 2
    status, _, err = run_cli(capsys, "check", "--which", "theorem", "--ambient", Z6, "--x", "[0]")
    assert status == 2
    # a checker called outside its hypotheses is a usage error, not a violation
    status, _, err = run_cli(
        capsys, "check", "--which", "theorem", "--ambient", Z6, "--x", "[0]", "--y", "[]"
    )
    assert status == 2


def _spec(**fields):
    doc = {"family": {"kind": "zmod_range", "lo": 2, "hi": 3}, "checker": "udt"}
    doc.update(fields)
    return json.dumps(doc)


@pytest.mark.parametrize(
    "argv",
    [
        ("sumset", "--ambient", '{"kind":"zmod","n":true}', "--x", "[0]", "--y", "[0]"),
        ("ord", "--ambient", '{"kind":"int_lattice","dim":true}', "--elem", "[0]"),
        ("search", "--spec", _spec(workers="2")),
        ("search", "--spec", _spec(checker="conjecture", n_summands=True)),
        ("search", "--spec", _spec(n_summands="2")),
        ("search", "--spec", _spec(budget="x")),
        ("search", "--spec", _spec(budget=-1)),
        ("search", "--spec", _spec(ceiling=1.5)),
        ("search", "--spec", _spec(subset_filter={"max_size": "x"})),
        ("search", "--spec", _spec(subset_filter={"nonempty": "yes"})),
        ("search", "--spec", _spec(symmetry_reduction="yes")),
        ("search", "--spec", _spec(mode={"kind": "random", "seed": True, "trials": 5})),
        ("search", "--spec", _spec(mode={"kind": "random", "seed": 1, "trials": "5"})),
        ("search", "--spec", _spec(family={"kind": "zmod_range", "lo": True, "hi": 3})),
        ("search", "--spec", _spec(family={"kind": "abelian_up_to_order", "max_order": True})),
        ("search", "--spec", _spec(
            family={"kind": "explicit", "ambients": [{"kind": "zmod", "n": True}]}
        )),
        ("search", "--spec", _spec(checker=["udt"])),
        ("search", "--spec", _spec(mode="random"), "--seed", "3"),
        ("replay", "--instance", json.dumps(
            {"ambient": {"kind": "zmod", "n": 3}, "checker": "udt",
             "sets": [[0], [1]], "budget": "x"}
        )),
        ("gamma", "--ambient", '{"kind":"cayley","table":[[0]],"labels":5}', "--x", "[0]"),
        ("gamma", "--ambient", '{"kind":"cayley","table":[[0]],"labels":"a"}', "--x", "[0]"),
        ("gamma", "--ambient", '{"kind":"free_monoid","alphabet":5}', "--x", '[""]'),
        ("gamma", "--ambient", '{"kind":"product","factors":5}', "--x", "[]"),
        ("gamma", "--ambient", Z6, "--sets", "5"),
        ("check", "--which", "conjecture", "--ambient", Z6, "--sets", "5"),
        ("gamma", "--ambient", '{"kind":"cayley","table":[[0]],"labels":[[1]]}', "--x", "[0]"),
        ("gamma", "--ambient", '{"kind":"cayley","table":[[0,1],[1,0]],"labels":["a","a"]}',
         "--x", "[0]"),
        # an associative zero table one row above the cap: rejected before the n^3 scan
        ("gamma", "--ambient", json.dumps({"kind": "cayley", "table": [[0] * 513] * 513}),
         "--x", "[0]"),
        # a budget below 1, given on the command line
        ("gamma", "--ambient", Z6, "--x", "[0,2]", "--budget", "0"),
        ("gamma", "--ambient", Z6, "--x", "[0,2]", "--budget", "-3"),
        ("ord", "--ambient", Z6, "--elem", "2", "--budget", "0"),
        ("descent", "--ambient", Z6, "--x", "[0]", "--y", "[0,1]", "--budget", "-3"),
        # unknown keys in ambients, families and modes
        ("gamma", "--ambient", '{"kind":"cayley","table":[[0]],"lables":["a"]}', "--x", "[0]"),
        ("gamma", "--ambient", '{"kind":"zmod","n":6,"m":2}', "--x", "[0]"),
        ("gamma", "--ambient", '{"kind":[1]}', "--x", "[0]"),
        ("search", "--spec", _spec(family={"kind": "zmod_range", "lo": 2, "hi": 3, "hl": 9})),
        ("search", "--spec", _spec(family={"kind": "abelian_up_to_order", "max_order": 4,
                                           "order": 4})),
        ("search", "--spec", _spec(family={"kind": "explicit", "n": 1,
                                           "ambients": [{"kind": "zmod", "n": 6}]})),
        ("search", "--spec", _spec(family={"kind": "explicit",
                                           "ambients": [{"kind": "zmod", "n": 3, "x": 1}]})),
        ("search", "--spec", _spec(mode={"kind": "exhaustive", "trails": 5})),
        ("search", "--spec", _spec(mode={"kind": "random", "seed": 1, "trials": 5,
                                         "trails": 5})),
        # rejections of whole specs and of missing or unreadable set arguments
        ("search", "--spec", "[1]"),
        ("search", "--spec", _spec(worker=2)),
        ("search", "--spec", _spec(family=5)),
        ("search", "--spec", _spec(family={"kind": "explicit", "ambients": []})),
        ("search", "--spec", _spec(family={"kind": "zmod_list", "lo": 2, "hi": 3})),
        ("search", "--spec", _spec(subset_filter={"min_size": 1})),
        ("search", "--spec", _spec(mode={"kind": "sweep"})),
        ("search", "--spec", _spec(symmetry_reduction=True, family={
            "kind": "explicit", "ambients": [{"kind": "cayley", "table": [[0, 0], [1, 1]]}]
        })),
        ("gamma", "--ambient", Z6),
        ("ord", "--ambient", Z6),
        ("check", "--which", "udt", "--ambient", Z6),
        ("gamma", "--ambient", Z6, "--x", "5"),
        # a file that exists but holds no JSON: this test module
        ("gamma", "--ambient", Z6, "--x", __file__),
        # a budget below 1 on the one subcommand that takes it
        ("generated", "--ambient", Z6, "--x", "[2]", "--budget", "0"),
        # argument errors: an unknown flag, a bad int, no command, a flag
        # another subcommand owns
        ("gamma", "--ambient", Z6, "--x", "[0,2]", "--bogus", "1"),
        ("sumset", "--ambient", Z6, "--x", "[0]", "--n", "x"),
        (),
        ("gamma", "--ambient", Z6, "--x", "[0,2]", "--budget", "3"),
        # an --out path that cannot be written: a missing directory, a directory
        ("gamma", "--ambient", Z6, "--x", "[0,2]", "--out",
         os.path.join(os.path.dirname(__file__), "no-such-dir", "report.json")),
        ("gamma", "--ambient", Z6, "--x", "[0,2]", "--out", os.path.dirname(__file__)),
        # a random draw over a carrier wider than the bits one set may draw
        ("search", "--spec", json.dumps({
            "family": {"kind": "zmod_range", "lo": 3000000000, "hi": 3000000000},
            "checker": "udt", "mode": {"kind": "random", "seed": 1, "trials": 1},
        })),
        # a flag given with its alternative, or an empty --out or --sets, is
        # refused rather than ignored
        ("ord", "--ambient", Z6, "--elem", "2", "--x", "{}"),
        ("gamma", "--ambient", Z6, "--x", "[9]", "--sets", "[[0]]"),
        ("check", "--which", "conjecture", "--ambient", Z6, "--sets", "[[0],[1]]",
         "--y", "[9]"),
        ("gamma", "--ambient", Z6, "--x", "[0,2]", "--sets", ""),
        ("check", "--which", "udt", "--ambient", Z6, "--x", "[0,1]", "--y", "[0,2]",
         "--sets", ""),
        ("gamma", "--ambient", Z6, "--x", "[0,2]", "--out", ""),
        ("sumset", "--ambient", Z6, "--x", "[0]", "--y", "[1]", "--n", "5"),
        ("sumset", "--ambient", Z6, "--x", "[0]", "--y", "[1]", "--n", "1"),
        # elements of the wrong shape or out of range, and tables,
        # instances and set lists with nothing in them
        ("gamma", "--ambient", '{"kind":"product","factors":[{"kind":"zmod","n":2}]}',
         "--x", "[0]"),
        ("gamma", "--ambient", '{"kind":"int_lattice","dim":1}', "--x", "[0]"),
        ("gamma", "--ambient", '{"kind":"cayley","table":[]}', "--x", "[0]"),
        ("gamma", "--ambient", '{"kind":"cayley","table":[[0]]}', "--x", "[1]"),
        ("replay", "--instance", json.dumps(
            {"ambient": {"kind": "zmod", "n": 3}, "checker": "udt", "sets": []}
        )),
        ("gamma", "--ambient", Z6, "--sets", "[]"),
        ("check", "--which", "conjecture", "--ambient", Z6, "--sets", "[]"),
        # a budget below |X|
        ("generated", "--ambient", Z6, "--x", "[0,1,2]", "--budget", "2"),
    ],
)
def test_malformed_field_types_exit_2(capsys, argv):
    status, out, err = run_cli(capsys, *argv)
    assert status == 2 and out == ""
    assert err.startswith("cdlab: ") and err.count("\n") == 1


def test_broken_invariant_exits_3(capsys, monkeypatch):
    from cdlab import theorems
    from cdlab.gamma import GammaValue

    monkeypatch.setattr(theorems, "gamma_set", lambda Y: GammaValue(5))
    status, out, err = run_cli(
        capsys, "check", "--which", "zn", "--ambient", Z6, "--x", "[0]", "--y", "[0,2]"
    )
    assert status == 3 and out == ""
    assert err.startswith("cdlab: internal error: ") and err.count("\n") == 1


def test_failed_davenport_fact_exits_3(capsys, monkeypatch):
    import dataclasses

    from cdlab import cli

    real = cli.davenport_transform

    def transform(X, Y, z):
        return dataclasses.replace(real(X, Y, z), ledger=False)

    monkeypatch.setattr(cli, "davenport_transform", transform)
    status, out, err = run_cli(
        capsys, "davenport", "--ambient", '{"kind":"zmod","n":5}', "--x", "[0]", "--y", "[0,1]",
        "--z", "2",
    )
    assert status == 3 and out == ""
    assert err == "cdlab: internal error: Davenport transform facts failed: ledger\n"


def test_zn_search_over_a_product_fails_before_any_work(capsys, monkeypatch):
    import dataclasses

    from cdlab import search as search_mod

    calls = []
    chk = search_mod.CHECKERS["zn"]
    monkeypatch.setitem(
        search_mod.CHECKERS, "zn",
        dataclasses.replace(chk, run=lambda sets: calls.append(sets) or chk.run(sets)),
    )
    spec = json.dumps(
        {"family": {"kind": "abelian_up_to_order", "max_order": 4}, "checker": "zn"}
    )
    status, out, err = run_cli(capsys, "search", "--spec", spec)
    assert status == 2 and out == ""
    assert err.startswith("cdlab: ") and err.count("\n") == 1
    assert "zmod" in err and "Traceback" not in err
    assert calls == []


def test_usage_error_exits_2(capsys):
    status, out, err = run_cli(capsys, "no-such-command")
    assert status == 2 and out == ""
    assert err.startswith("cdlab: ") and err.count("\n") == 1


def test_violation_exits_1(capsys, monkeypatch):
    from cdlab import search as search_mod
    from cdlab.theorems import BoundReport

    fake = search_mod.Checker(
        2, lambda sets: BoundReport(holds=False, lhs=0, rhs=1)
    )
    monkeypatch.setitem(search_mod.CHECKERS, "udt", fake)
    status, out, _ = run_cli(
        capsys, "check", "--which", "udt", "--ambient", Z6, "--x", "[0]", "--y", "[1]"
    )
    assert status == 1 and json.loads(out)["holds"] is False
    spec = json.dumps(
        {
            "family": {"kind": "zmod_range", "lo": 2, "hi": 2},
            "checker": "udt",
            "subset_filter": {"nonempty": True},
        }
    )
    status, out, _ = run_cli(capsys, "search", "--spec", spec)
    assert status == 1
    assert json.loads(out)["violations"]


def test_search_and_replay_via_files(capsys, tmp_path):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(
        json.dumps(
            {
                "family": {"kind": "zmod_range", "lo": 2, "hi": 4},
                "checker": "theorem",
                "subset_filter": {"nonempty": True},
                "mode": {"kind": "random", "trials": 200},
            }
        )
    )
    status, out, _ = run_cli(
        capsys, "search", "--spec", str(spec_file), "--seed", "5", "--workers", "2"
    )
    assert status == 0
    doc = json.loads(out)
    assert doc["violations"] == [] and doc["seed"] == 5

    inst = tmp_path / "inst.json"
    inst.write_text(
        json.dumps(
            {
                "ambient": {"kind": "zmod", "n": 4},
                "checker": "theorem",
                "sets": [[0, 2], [0, 2]],
            }
        )
    )
    status, out, _ = run_cli(capsys, "replay", "--instance", str(inst))
    assert status == 0
    assert json.loads(out)["verdict"]["branch_ii"] is True


def test_replay_rejects_unknown_instance_keys(capsys):
    inst = {"ambient": {"kind": "zmod", "n": 3}, "checker": "udt", "sets": [[0], [1]]}
    status, out, err = run_cli(
        capsys, "replay", "--instance", json.dumps({**inst, "budgte": 0})
    )
    assert status == 2 and out == ""
    assert err.startswith("cdlab: ") and err.count("\n") == 1 and "budgte" in err

    # a violation record replays as written: its budget and verdict stay accepted
    status, out, _ = run_cli(capsys, "replay", "--instance", json.dumps(inst))
    assert status == 0
    record = {**inst, "budget": 50, "verdict": json.loads(out)["verdict"]}
    status, again, _ = run_cli(capsys, "replay", "--instance", json.dumps(record))
    assert status == 0 and json.loads(again)["verdict"] == record["verdict"]


def test_random_search_requires_seed(capsys):
    spec = json.dumps(
        {
            "family": {"kind": "zmod_range", "lo": 2, "hi": 3},
            "checker": "theorem",
            "mode": {"kind": "random", "trials": 10},
        }
    )
    status, _, err = run_cli(capsys, "search", "--spec", spec)
    assert status == 2 and "seed" in err


def test_table_format_and_out_file(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    status, out, _ = run_cli(
        capsys, "gamma", "--ambient", Z6, "--x", "[0,2]",
        "--format", "table", "--out", str(out_file),
    )
    assert status == 0
    assert "value" in out and "3" in out
    assert json.loads(out_file.read_text()) == {"value": 3, "witness": 0}
    # nested values render as JSON text; -v names the command on stderr
    status, out, err = run_cli(
        capsys, "davenport", "--ambient", '{"kind":"zmod","n":5}',
        "--x", "[0]", "--y", "[0,1]", "--z", "2", "--format", "table", "-v",
    )
    assert status == 0
    assert err == "cdlab: running davenport\n"
    rows = dict(line.split(None, 1) for line in out.splitlines())
    assert rows["y_keep"] == "[0]" and rows["witnesses"] == "{}"
    assert json.loads(rows["sides"])["y_size"] == 2


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gamma", "-h"])
    assert exc.value.code == 0 and "--ambient" in capsys.readouterr().out


def test_only_generated_takes_a_budget():
    # orders are exact; only a closure walk over an infinite ambient is cut
    takers = set()
    for name in dir(cdlab):
        obj = getattr(cdlab, name)
        if callable(obj) and "budget" in inspect.signature(obj).parameters:
            takers.add(name)
    assert takers == {"generated", "generated_sym"}
    flagged = {
        cmd
        for cmd, p in _SUBCOMMANDS.items()
        if any("--budget" in a.option_strings for a in p._actions)
    }
    assert flagged == {"generated"}


Z5 = '{"kind":"zmod","n":5}'
# arguments each subcommand runs with; the fuzz gives one flag a bad value
_VALID = {
    "gamma": ["--ambient", Z6, "--x", "[0,2]"],
    "sumset": ["--ambient", Z6, "--x", "[0]", "--y", "[1]"],
    "difference": ["--ambient", Z6, "--x", "[1]", "--y", "[2]"],
    "ord": ["--ambient", Z6, "--elem", "2"],
    "generated": ["--ambient", Z6, "--x", "[2]"],
    "davenport": ["--ambient", Z5, "--x", "[0]", "--y", "[0,1]", "--z", "2"],
    "check": ["--which", "udt", "--ambient", Z6, "--x", "[0,1]", "--y", "[0,2]"],
    "descent": ["--ambient", Z5, "--x", "[0]", "--y", "[0,1]"],
    "search": ["--spec", _spec()],
    "replay": ["--instance", json.dumps(
        {"ambient": {"kind": "zmod", "n": 3}, "checker": "udt", "sets": [[0], [1]]}
    )],
}

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=6,
)


def _is_elem(v):
    return type(v) is int and 0 <= v < 5  # a residue of both Z5 and Z6


def _is_set(v):
    return isinstance(v, list) and all(map(_is_elem, v))


def _not_json(text):
    try:
        json.loads(text)
    except ValueError:
        return not os.path.exists(text.strip())
    return False


def _not_int(text):
    try:
        int(text)
    except ValueError:
        return True
    return False


# JSON of the wrong shape for each JSON flag: an object flag gets a
# non-object or an object of unknown keys
_NOT_OBJECT = _JSON.filter(lambda v: not isinstance(v, dict)) | st.dictionaries(
    st.text(max_size=4).map("?".__add__), _JSON, max_size=2
)
_NOT_SET = _JSON.filter(lambda v: not _is_set(v))
_NOT_ELEM = _JSON.filter(lambda v: not _is_elem(v))
_WRONG_SHAPE = {
    "ambient": _NOT_OBJECT,
    "spec": _NOT_OBJECT,
    "instance": _NOT_OBJECT,
    "x": _NOT_SET,
    "y": _NOT_SET,
    "sets": _JSON.filter(lambda v: not (isinstance(v, list) and all(map(_is_set, v)))),
    "elem": _NOT_ELEM,
    "z": _NOT_ELEM,
}


def _bad_value(action):
    """Text that the flag of this parser action must refuse."""
    if action.nargs == 0:
        return st.text(max_size=4)  # given as --flag=text
    if action.choices is not None:
        return st.text(max_size=8).filter(lambda t: t not in action.choices)
    if action.type is int:
        return st.text(max_size=8).filter(_not_int)
    if action.dest == "out":
        here = os.path.dirname(__file__)
        return st.sampled_from(["", here, os.path.join(here, "no-such-dir", "out.json")])
    return _WRONG_SHAPE[action.dest].map(json.dumps) | st.text(max_size=8).filter(_not_json)


def _without(argv, flag):
    """argv less flag and its value."""
    if flag not in argv:
        return list(argv)
    i = argv.index(flag)
    return argv[:i] + argv[i + 2:]


def test_fuzz_baselines_exit_0(capsys):
    assert set(_VALID) == set(_SUBCOMMANDS)
    for cmd, argv in _VALID.items():
        assert run_cli(capsys, cmd, *argv)[0] == 0, cmd


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_every_flag_refuses_a_bad_value(data):
    # one subcommand per example, each of its flags in turn: exit 2, one
    # line on stderr, nothing on stdout and no traceback
    cmd = data.draw(st.sampled_from(sorted(_SUBCOMMANDS)), label="subcommand")
    for action in _SUBCOMMANDS[cmd]._actions:
        if not action.option_strings:
            continue
        flag = action.option_strings[-1]
        value = data.draw(_bad_value(action), label=flag)
        argv = [cmd, *_without(_VALID[cmd], flag), f"{flag}={value}"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main(argv)
        assert status == 2 and out.getvalue() == "", argv
        assert err.getvalue().startswith("cdlab: ") and err.getvalue().count("\n") == 1, argv
