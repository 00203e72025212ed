"""The game load path: rational parsing, range checks, document shape, and
the CLI's parser, which is built once per process and reused."""

import json
import math
import sys
from fractions import Fraction as F

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import rankgames as rg
from rankgames import cli
from rankgames.errors import ValidationError
from rankgames.model import _SCORE_KINDS, Game, as_rational, score_from_dict


# ---------- as_rational on strings ----------

# \d also draws non-ASCII decimal digits, which Fraction accepts
RATIONAL_TEXT = st.from_regex(r"\s*[+-]?\d*(/\d*)?\s*", fullmatch=True)


@given(RATIONAL_TEXT)
@example("1/3")
@example("2/4")
@example("007/010")
@example(" 1/2 ")
@example("+1/2")
@example("-1/2")
@example("1/0")
@example("0/00")
@example("0/7")
@example("1/")
@example("/2")
@example("")
@example("٣/٤")
@example("3/٤")
@example("²/3")
def test_as_rational_matches_fraction_on_strings(s):
    try:
        want = F(s)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ValidationError):
            as_rational(s)
        return
    got = as_rational(s)
    assert got == want
    assert type(got) is F


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no integer string limit"
)
@pytest.mark.parametrize("text", ["1" * 4301 + "/3", "1/" + "1" * 4301, "1" * 4301])
def test_as_rational_rejects_more_digits_than_int_accepts(text):
    with pytest.raises(ValidationError):
        as_rational(text)


def test_as_rational_passes_fractions_through():
    q = F(3, 7)
    assert as_rational(q) is q


# ---------- quality range ----------

def _game_with_quality(q) -> Game:
    return Game(n=1, m=2, demand=(F(1, 2), F(1, 2)), quality=((q, q),),
                mediator=rg.PRP, scheme=rg.EXPOSURE)


@pytest.mark.parametrize("q", [F(0), F(1), 0, 1, F(999, 1000)])
def test_quality_bounds_are_inclusive(q):
    assert _game_with_quality(q).quality == ((q, q),)


@pytest.mark.parametrize("q", [F(-1, 1000), F(1001, 1000), -1, 2])
def test_quality_outside_unit_interval_rejected(q):
    with pytest.raises(ValidationError):
        _game_with_quality(q)


# ---------- game documents ----------

GAME_CASES = [
    (rg.PRP, rg.EXPOSURE, True),
    (rg.PRP, rg.ACTION, False),
    (rg.RAND, rg.EXPOSURE, False),
    (rg.RAND, rg.ACTION, True),
    (rg.Mediator.scoring(rg.ScoreFunction.power(2.0)), rg.EXPOSURE, False),
    (rg.Mediator.scoring(rg.ScoreFunction.exponential(3.0)), rg.ACTION, True),
]


@pytest.mark.parametrize("mediator,scheme,generic_Q", GAME_CASES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_game_round_trips(mediator, scheme, generic_Q, seed):
    g = rg.generate_random_game(
        seed, 5, 4, generic_Q=generic_Q, denominator_bound=1000 if generic_Q else 4,
        mediator=mediator, scheme=scheme,
    )
    back = rg.game_from_dict(json.loads(json.dumps(rg.game_to_dict(g))))
    assert back == g
    assert all(type(x) is F for x in back.demand)
    assert all(type(x) is F for row in back.quality for x in row)


def _doc(**changes):
    d = rg.game_to_dict(rg.make_game(("1/2", "1/2"), (("0", "1"), ("1", "0"))))
    d.update(changes)
    return d


BAD_DOCS = {
    "Q number": _doc(Q=5),
    "Q strings": _doc(Q=["01", "10"]),
    "Q mapping": _doc(Q={"a": ["1", "0"]}),
    "D string": _doc(D="10"),
    "D mapping": _doc(D={"1/2": 1, "2/4": 2}),
    "bool param": _doc(mediator={"kind": "scoring", "f": {"kind": "power", "param": True}}),
    # json.dumps writes these as the bare NaN/Infinity tokens that json.load reads back
    "NaN param": _doc(mediator={"kind": "scoring", "f": {"kind": "exponential", "param": float("nan")}}),
    "Infinity param": _doc(mediator={"kind": "scoring", "f": {"kind": "power", "param": float("inf")}}),
    # e**1000 is beyond the float range
    "overflowing param": _doc(mediator={"kind": "scoring", "f": {"kind": "exponential", "param": 1000.0}}),
}


@pytest.mark.parametrize("name", BAD_DOCS)
def test_game_from_dict_rejects_malformed_document(name):
    with pytest.raises(ValidationError):
        rg.game_from_dict(BAD_DOCS[name])


@pytest.mark.parametrize("name", BAD_DOCS)
def test_cli_exits_2_on_malformed_document(name, tmp_path, capsys):
    path = tmp_path / "game.json"
    path.write_text(json.dumps(BAD_DOCS[name]))
    assert cli.main(["analyze", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_score_from_dict_rejects_bool_param():
    with pytest.raises(ValidationError):
        score_from_dict({"kind": "exponential", "param": False})
    assert score_from_dict({"kind": "exponential", "param": 0}).param == 0.0


@pytest.mark.parametrize("text", [
    '{"kind": "exponential", "param": NaN}',
    '{"kind": "exponential", "param": Infinity}',
    '{"kind": "power", "param": Infinity}',
    '{"kind": "power", "param": NaN}',
])
def test_score_from_dict_rejects_non_finite_param(text):
    with pytest.raises(ValidationError):
        score_from_dict(json.loads(text))


# ---------- scores beyond the float range ----------

@pytest.mark.parametrize("make", [
    rg.ScoreFunction.exponential,
    lambda p: score_from_dict({"kind": "exponential", "param": p}),
])
def test_exponential_param_keeps_the_top_score_finite(make):
    with pytest.raises(ValidationError):
        make(1000.0)
    assert make(709.0)(1.0) == math.exp(709.0)


# each score is e**709, finite; three of them sum beyond the float range
THREE_TOP_AUTHORS = rg.make_game(
    ("1",), (("1",),) * 3, rg.Mediator.scoring(rg.ScoreFunction.exponential(709.0))
)


def test_score_sum_beyond_the_float_range_is_rejected():
    with pytest.raises(ValidationError):
        rg.utility_vector(THREE_TOP_AUTHORS, (1, 1, 1))
    # two of them still sum to a float
    two = rg.make_game(("1",), (("1",),) * 2, THREE_TOP_AUTHORS.mediator)
    assert rg.utility_vector(two, (1, 1)) == (0.5, 0.5)


def test_cli_exits_2_on_scores_beyond_the_float_range(tmp_path, capsys):
    path = tmp_path / "game.json"
    path.write_text(json.dumps(rg.game_to_dict(THREE_TOP_AUTHORS)))
    assert cli.main(["analyze", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert cli.main(["counterexample", "thm3", "--f", "exponential", "--param", "1000"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


# ---------- the CLI parser ----------

def test_score_kind_choices_follow_the_model(capsys):
    parser = cli.build_parser()
    for kind in _SCORE_KINDS:
        spelled = kind.replace("_", "-")
        assert parser.parse_args(["counterexample", "thm3", "--f", spelled]).f == spelled
    assert parser.parse_args(["counterexample", "thm3"]).f == "identity"
    for bad in ("exp_minus_one", "linear"):
        with pytest.raises(SystemExit):
            parser.parse_args(["counterexample", "thm3", "--f", bad])


def test_build_parser_returns_a_fresh_parser():
    assert cli.build_parser() is not cli.build_parser()


def test_parser_reuse_leaks_no_defaults(tmp_path, capsys):
    game = rg.build_exposure_cycle_game(rg.ScoreFunction.identity()).game
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(rg.game_to_dict(game)))
    calls = [
        (["simulate", str(path), "--init", "1,1,1,2", "--order", "2,3,4,1",
          "--max-steps", "4"], 3),
        (["simulate", str(path), "--init", "1,1,1,2"], 0),
        (["analyze", str(path)], 0),
    ]
    first = []
    for argv, code in calls:
        assert cli.main(argv) == code
        first.append(capsys.readouterr())
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", str(path), "--scheduler", "nope"])
    assert exc.value.code == 2
    capsys.readouterr()
    for (argv, code), out in zip(calls + calls[:1], first + first[:1]):
        assert cli.main(argv) == code
        assert capsys.readouterr() == out
    # the runs differ, so a leaked --order or --max-steps would show
    assert first[0].out != first[1].out
