import copy
import io
import json
import os
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta
from functools import reduce
from operator import getitem

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import rankgames as rg
from rankgames.cli import main
from rankgames.model import mediator_to_dict


@pytest.fixture
def game_file(tmp_path, exposure_example):
    path = tmp_path / "game.json"
    path.write_text(json.dumps(rg.game_to_dict(exposure_example)))
    return str(path)


@pytest.fixture
def cycle_game_file(tmp_path):
    game = rg.build_exposure_cycle_game(rg.ScoreFunction.identity()).game
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(rg.game_to_dict(game)))
    return str(path)


def test_example_prints_both_tables(capsys):
    assert main(["example"]) == 0
    out = capsys.readouterr().out
    assert "0.15,0.15" in out
    assert "0.06,0.06" in out


def test_analyze_reports_fip_and_pne(game_file, capsys):
    assert main(["analyze", game_file]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["fip"] is True
    assert doc["pne"] == [[2, 1]]
    assert doc["longest_path"] == 6


def test_analyze_writes_output_file(game_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["analyze", game_file, "-o", str(out)]) == 0
    assert json.loads(out.read_text())["fip"] is True
    assert capsys.readouterr().out == ""


def test_analyze_missing_file_exits_2(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "nope.json")]) == 2
    assert "error" in capsys.readouterr().err


def test_analyze_bad_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["analyze", str(path)]) == 2


def test_analyze_invalid_game_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"D": ["1/2"], "Q": [["2/1"]], "mediator": {"kind": "prp"}}))
    assert main(["analyze", str(path)]) == 2


@pytest.mark.parametrize("argv", [
    ["analyze", "{game}", "--margin", "nan"],
    ["analyze", "{game}", "--margin=-1e-12"],
    ["simulate", "{game}", "--init", "2,2", "--margin", "-1"],
    ["simulate", "{game}", "--init", "2,2", "--margin", "nan"],
], ids=["analyze margin nan", "analyze margin -1e-12", "simulate margin -1", "simulate margin nan"])
def test_bad_margin_or_tolerance_exits_2(argv, game_file, capsys):
    assert main([a.format(game=game_file) for a in argv]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    # the budget is the constant DEFAULT_BUDGET and --budget is gone, so
    # these budgets, below 1, are rejected by the parser
    ["analyze", "{game}", "--budget", "-1"],
    ["analyze", "{game}", "--budget", "0"],
    # x1 is the constant 1.0 and --x1 is gone, so these once out-of-range
    # values of it are rejected by the parser before f is evaluated
    ["counterexample", "thm3", "--f", "power", "--param", "0.5", "--x1", "-1"],
    ["counterexample", "thm3", "--f", "exponential", "--param", "700", "--x1", "2"],
    # beta/alpha = 1e600 has no float
    ["counterexample", "thm5", "--alpha", "1e-300", "--beta", "1e300"],
    # f = x^1e-300 is 1 on (0, 1], so no grid point clears c1 > 1; only the
    # count of f evaluations ends a scan of about 2^40 points
    ["counterexample", "thm3", "--f", "power", "--param", "1e-300"],
], ids=["analyze budget -1", "analyze budget 0", "thm3 power x1 -1", "thm3 exponential x1 2",
        "thm5 beta/alpha beyond the float range", "thm3 triple search without a triple"])
def test_out_of_range_argument_exits_2(argv, game_file, capsys):
    assert main([a.format(game=game_file) for a in argv]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    # argparse reads "-1e-12" as an option, so --margin gets no value
    ["analyze", "{game}", "--margin", "-1e-12"],
    ["simulate", "{game}", "--init", "2,2", "--scheduler", "nope"],
], ids=["analyze margin -1e-12 as an option", "simulate scheduler nope"])
def test_argument_rejected_by_the_parser_exits_2(argv, game_file, capsys):
    assert main([a.format(game=game_file) for a in argv]) == 2
    assert capsys.readouterr().err.startswith("error: argument ")


@pytest.mark.parametrize("argv", [
    ["analyze", "{game}", "--tol", "1e-9"],
    ["counterexample", "thm3", "--x1", "1"],
    ["analyze", "{game}", "--budget", "10"],
    ["analyze", "{game}", "--budget", "abc"],
], ids=["analyze tol", "counterexample x1", "analyze budget", "analyze budget abc"])
def test_removed_options_are_unrecognized(argv, game_file, capsys):
    # the potential scan's tolerance, the constructions' top quality and
    # the enumeration budget are constants
    assert main([a.format(game=game_file) for a in argv]) == 2
    assert capsys.readouterr().err.startswith("error: unrecognized arguments: ")


def test_help_exits_0(capsys):
    assert main(["analyze", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: rankgames analyze")


@pytest.mark.parametrize("n, m", [(20, 2), (30, 1)])
def test_analyze_over_budget_exits_3(n, m, tmp_path, capsys):
    # 2^20 profiles, and a one-topic game whose 2^30 writer sets once
    # exhausted memory: each is refused before any table is built
    path = tmp_path / "big.json"
    path.write_text(json.dumps(rg.game_to_dict(rg.generate_random_game(0, n, m))))
    start = time.perf_counter()
    assert main(["analyze", str(path)]) == 3
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        f"error: 2^{n} {'profiles' if m > 1 else 'writer sets'} exceed the enumeration budget 1000000\n")


def test_simulate_emits_jsonl_and_summary(game_file, capsys):
    assert main(["simulate", game_file, "--init", "2,2",
                 "--scheduler", "first-deviator"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    steps = [json.loads(s) for s in lines[:-1]]
    tail = json.loads(lines[-1])
    assert [s["player"] for s in steps] == [1, 2, 1]
    assert steps[0] == {"r": 1, "player": 1, "from": 2, "to": 1,
                        "u_before": "3/20", "u_after": "1/2"}
    assert tail == {"outcome": "converged", "profile": [2, 1], "steps": 3}


def test_simulate_bad_init_exits_2(game_file, capsys):
    assert main(["simulate", game_file, "--init", "9,9"]) == 2
    assert main(["simulate", game_file, "--init", "1,2,3"]) == 2
    assert main(["simulate", game_file, "--init", "a,b"]) == 2


def test_simulate_random_scheduler_seeded(game_file, capsys):
    assert main(["simulate", game_file, "--init", "2,2",
                 "--scheduler", "random", "--seed", "4"]) == 0
    first = capsys.readouterr().out
    assert main(["simulate", game_file, "--init", "2,2",
                 "--scheduler", "random", "--seed", "4"]) == 0
    assert capsys.readouterr().out == first


def test_simulate_cycle_detection(cycle_game_file, capsys):
    assert main(["simulate", cycle_game_file, "--init", "1,1,1,2",
                 "--order", "2,3,4,1"]) == 0
    tail = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert tail == {"outcome": "cycle", "repeated_profile_index": 0}


def test_simulate_budget_exhaustion_exits_3(cycle_game_file, capsys):
    assert main(["simulate", cycle_game_file, "--init", "1,1,1,2",
                 "--order", "2,3,4,1", "--max-steps", "2"]) == 3
    tail = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert tail == {"outcome": "budget_exhausted"}


def test_simulate_best_response_mode(game_file, capsys):
    assert main(["simulate", game_file, "--init", "2,2", "--response", "best"]) == 0
    tail = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert tail["outcome"] == "converged"
    assert tail["profile"] == [2, 1]


def test_counterexample_identity(capsys):
    assert main(["counterexample", "thm3", "--f", "identity"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["game"]["D"] == ["64/125", "31/125", "6/25"]
    assert len(doc["cycle"]) == 7
    assert doc["params"]["epsilon"] == 1 / 64


def test_counterexample_action_requires_alpha(capsys):
    assert main(["counterexample", "thm4", "--f", "power", "--param", "8"]) == 2


def test_counterexample_action_power8(capsys):
    assert main(["counterexample", "thm4", "--f", "power", "--param", "8",
                 "--alpha", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    game = rg.game_from_dict(doc["game"])
    ok, _ = rg.verify_improvement_cycle(game, [tuple(p) for p in doc["cycle"]])
    assert ok


def test_counterexample_premise_failure_exits_2(capsys):
    assert main(["counterexample", "thm4", "--f", "identity", "--alpha", "2"]) == 2
    assert "error" in capsys.readouterr().err


def test_counterexample_band(capsys):
    assert main(["counterexample", "thm5", "--f", "identity",
                 "--alpha", "1", "--beta", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["params"]["x2"] - 0.2) < 1e-7


def test_counterexample_exp_minus_one_alias(capsys):
    assert main(["counterexample", "thm3", "--f", "exp-minus-one"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["game"]["mediator"]["f"]["kind"] == "exp_minus_one"


def test_counterexample_power_needs_param(capsys):
    assert main(["counterexample", "thm3", "--f", "power"]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("kind, param", [("identity", "2"), ("exp-minus-one", "1")])
def test_counterexample_rejects_a_param_the_kind_does_not_take(kind, param, capsys):
    assert main(["counterexample", "thm3", "--f", kind, "--param", param]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_suite_runs_config(tmp_path, capsys):
    cfg = {"seed": 5, "games": 3, "n_range": [2, 2], "m_range": [2, 2]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["suite", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("seed,n,m,")
    assert len(out.strip().splitlines()) == 4


def test_suite_writes_reports(tmp_path, capsys):
    cfg = {"seed": 5, "games": 2, "n_range": [2, 2], "m_range": [2, 2]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "out"
    assert main(["suite", str(path), "-o", str(out_dir)]) == 0
    assert (out_dir / "report.csv").exists()
    doc = json.loads((out_dir / "report.json").read_text())
    assert doc["config"]["seed"] == 5
    assert len(doc["rows"]) == 2


def test_suite_bad_config_exits_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    for text in ('{"seed": 1}',
                 '{"seed": "abc", "games": 3, "n_range": [2, 2], "m_range": [2, 2]}',
                 '{"seed": 1, "games": Infinity, "n_range": [2, 2], "m_range": [2, 2]}',
                 '{"seed": 1, "games": 2.9, "n_range": [2, 2], "m_range": [2, 2]}',
                 '{"seed": 1, "games": 3, "n_range": [2.5, 3], "m_range": [2, 2]}',
                 '{"seed": true, "games": 3, "n_range": [2, 2], "m_range": [2, 2]}',
                 '{"seed": 1, "games": 3, "n_range": [2, 2], "m_range": [2, 2], "generic_Q": "false"}'):
        path.write_text(text)
        assert main(["suite", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: bad experiment config")


def test_suite_beyond_the_game_bound_exits_2(tmp_path, capsys):
    # rejected before any game is drawn, not a run of 10^30 games
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 1, "games": 10**30, "n_range": [2, 2], "m_range": [2, 2]}))
    assert main(["suite", str(path)]) == 2
    assert capsys.readouterr().err == f"error: games must be at most {rg.DEFAULT_BUDGET}, got {10**30}\n"


@pytest.mark.parametrize("n, generic_Q", [(20, True), (10**12, False)], ids=["20x1", "10^12x1"])
def test_suite_beyond_the_enumeration_budget_exits_2(n, generic_Q, tmp_path, capsys):
    # one topic: one profile per game, but 2^n writer sets; the wide one
    # once drew its 10^12 qualities until memory ran out
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 1, "games": 1, "n_range": [n, n], "m_range": [1, 1],
                                "generic_Q": generic_Q}))
    start = time.perf_counter()
    assert main(["suite", str(path)]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == "error: ranges exceed the enumeration budget\n"


@pytest.mark.parametrize("games", [0, 1])
@pytest.mark.parametrize("key, value, message", [
    ("scheme", "bogus", "error: unknown utility scheme 'bogus'\n"),
    ("denominator_bound", 0,
     f"error: denominator_bound must be positive and below {sys.maxsize}\n"),
    # 2x3 games at bound 2 have too few numerators for 6 distinct qualities
    # or 3 distinct weights
    ("generic_Q", True, "error: denominator_bound too small for distinct quality entries\n"),
    ("sorted_D", True, "error: denominator_bound too small for distinct demand weights\n"),
])
def test_suite_checks_scheme_and_denominator_bound_before_any_game(
        games, key, value, message, tmp_path, capsys):
    # a suite of no games rejects the same documents as a suite of one
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 1, "games": games, "n_range": [2, 2], "m_range": [3, 3],
                                "denominator_bound": 2, "generic_Q": False, "sorted_D": False,
                                key: value}))
    assert main(["suite", str(path), "--output", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == message
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["analyze", "suite"])
def test_unreadable_and_malformed_json_messages(command, tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main([command, str(missing)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {missing}: ")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main([command, str(bad)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad} is not valid JSON: ")
    # json reads an integer beyond the int conversion digit limit as a ValueError
    bad.write_text('{"n": ' + "1" * 5000 + "}")
    assert main([command, str(bad)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad} is not valid JSON: ")


# ---------- mutated documents and flags ----------

# JSON number tokens written into a document as they are: non-finite and
# out-of-range floats, an int beyond 64 bits and one beyond the digit limit
_TOKENS = ("NaN", "Infinity", "-Infinity", "1e400", "1e308", "-1e308", "5e-324",
           "1" * 30, "1" * 5000)
_SWAPS = ("x", "1/0", [], {}, None, True, 0, -1, 2.5, [[]])
_FLOATS = ("0", "1e-3", "-1", "nan", "inf", "-inf", "1e308", "1e400", "5e-324")

_MEDIATORS = [rg.PRP, rg.RAND, rg.Mediator.scoring(rg.ScoreFunction.power(2.0)),
              rg.Mediator.scoring(rg.ScoreFunction.exponential(1.0))]


def _paths(node, path=()):
    """The path of every key and entry below node, as tuples of keys and indices."""
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


@st.composite
def _mutated(draw, doc, fixed=()):
    """doc as JSON text after one to three mutations, each of which drops a
    key or entry, swaps its value for one of another type, or writes a
    token of _TOKENS in its place; the paths in fixed stay as they are."""
    doc = copy.deepcopy(doc)
    tokens = []
    for _ in range(draw(st.integers(1, 3))):
        paths = [p for p in _paths(doc) if p not in fixed]
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = reduce(getitem, path[:-1], doc)
        how = draw(st.sampled_from(("drop", "swap", "token")))
        if how == "drop":
            del parent[path[-1]]
        elif how == "swap":
            parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(_SWAPS)))
        else:
            parent[path[-1]] = f"@token{len(tokens)}@"
            tokens.append(draw(st.sampled_from(_TOKENS)))
    text = json.dumps(doc)
    for i, token in enumerate(tokens):
        text = text.replace(f'"@token{i}@"', token)
    return text


@st.composite
def _runs(draw):
    """(argv, document text) for one analyze, simulate or suite call."""
    mediator = draw(st.sampled_from(_MEDIATORS))
    scheme = draw(st.sampled_from((rg.EXPOSURE, rg.ACTION)))
    seed = draw(st.integers(0, 10**6))
    command = draw(st.sampled_from(("analyze", "simulate", "suite")))
    if command == "suite":
        config = {"seed": seed, "games": 2, "n_range": [1, 3], "m_range": [1, 3],
                  "mediator": mediator_to_dict(mediator), "scheme": scheme,
                  "generic_Q": draw(st.booleans()),
                  "sorted_D": draw(st.booleans()), "denominator_bound": 60}
        # the game count asks for that much work: a large one is no bad input
        return ["suite"], draw(_mutated(config, fixed={("games",)}))
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    game = rg.generate_random_game(seed, n, m, generic_Q=draw(st.booleans()), sorted_D=False,
                                   denominator_bound=60, mediator=mediator, scheme=scheme)
    doc = draw(_mutated(rg.game_to_dict(game)) | st.just(json.dumps(rg.game_to_dict(game))))

    def flag(name, valid, *odd):
        # half the time a valid value; --flag=value, so that argparse reads
        # "-1" as a value, not as an option
        return f"--{name}={draw(st.just(valid) | st.sampled_from(odd))}"

    if command == "analyze":
        argv = ["analyze", flag("margin", "0", *_FLOATS)]
    else:
        init = ",".join(map(str, draw(st.lists(st.integers(1, m), min_size=n, max_size=n))))
        order = ",".join(map(str, range(n, 0, -1)))
        argv = ["simulate", flag("init", init, "0,1", "a", "", "1" * 30),
                flag("scheduler", "round-robin", "first-deviator", "random"),
                flag("seed", "0", "-5", "1" * 30), flag("response", "better", "best"),
                flag("margin", "0", *_FLOATS), flag("order", order, "2,1", "1,1", "x"),
                flag("max-steps", "100", "3", "1", "0", "-1")]
    return argv, doc


@settings(max_examples=500, deadline=timedelta(seconds=5),
          suppress_health_check=[HealthCheck.too_slow])
@given(_runs())
# a score param beyond the float range, and a denominator bound whose range
# has no len(), each used to escape as an OverflowError
@example((["analyze"], '{"D": ["1/1"], "Q": [["1/2"]], "utility": "exposure", "mediator": '
                       '{"kind": "scoring", "f": {"kind": "power", "param": 1' + "0" * 400 + '}}}'))
@example((["suite"], '{"seed": 0, "games": 2, "n_range": [1, 3], "m_range": [1, 3], '
                     '"generic_Q": false, "denominator_bound": 1' + "0" * 30 + '}'))
def test_mutated_documents_and_flags_exit_0_2_or_3(run):
    argv, text = run
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([argv[0], path, *argv[1:]])
    assert code in (0, 2, 3)
    # a run whose step budget ran out says so in its summary line instead
    lines = out.getvalue().splitlines()
    if code == 3 and argv[0] == "simulate" and json.loads(lines[-1])["outcome"] == "budget_exhausted":
        return
    if code:
        assert err.getvalue().startswith("error: ")
