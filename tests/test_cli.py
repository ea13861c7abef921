import json

import pytest

from cdlab.cli import main

Z6 = '{"kind":"zmod","n":6}'
Z4 = '{"kind":"zmod","n":4}'


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
    ],
)
def test_malformed_field_types_exit_2(capsys, argv):
    status, out, err = run_cli(capsys, *argv)
    assert status == 2 and out == ""
    assert err.startswith("cdlab: ") and err.count("\n") == 1


def test_broken_invariant_exits_3(capsys, monkeypatch):
    from cdlab import theorems
    from cdlab.gamma import GammaValue

    monkeypatch.setattr(theorems, "gamma_set", lambda Y, budget: GammaValue(5))
    status, out, err = run_cli(
        capsys, "check", "--which", "zn", "--ambient", Z6, "--x", "[0]", "--y", "[0,2]"
    )
    assert status == 3 and out == ""
    assert err.startswith("cdlab: internal error: ") and err.count("\n") == 1


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_violation_exits_1(capsys, monkeypatch, fresh_context):
    from cdlab import search as search_mod
    from cdlab.theorems import BoundReport

    real = search_mod.CHECKERS["udt"]
    fake = search_mod.Checker(
        2,
        lambda sets, budget: BoundReport(holds=False, lhs=0, rhs=1),
        real.ok,
        real.encode,
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
                "budget": 5000,
            }
        )
    )
    status, out, _ = run_cli(
        capsys, "search", "--spec", str(spec_file), "--seed", "5", "--workers", "2"
    )
    assert status == 0
    doc = json.loads(out)
    assert doc["violations"] == [] and doc["seed"] == 5
    assert doc["spec"]["budget"] == 5000  # no --budget, so the spec's stands

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
