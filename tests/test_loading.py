"""The game load path: rational parsing, the integer game data against the
Fraction oracle, range checks, document shape, and the CLI's parser, which
is built once per process and reused."""

import json
import math
import sys
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import rankgames as rg
from rankgames import cli
from rankgames.errors import ValidationError
from rankgames.model import (
    _SCORE_KINDS, Game, as_rational, mediator_to_dict, score_from_dict,
)

import oracle


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
    return rg.make_game((F(1, 2), F(1, 2)), ((q, q),))


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


# ---------- integer game data against the Fraction oracle ----------

def _decimal(x: F) -> str | None:
    """x as a decimal string, when its denominator divides 10**8."""
    for k in range(1, 9):
        if 10**k % x.denominator == 0:
            digits = abs(x.numerator) * (10**k // x.denominator)
            return f"{'-' if x < 0 else ''}{digits // 10**k}.{digits % 10**k:0{k}d}"
    return None


def spellings(x: F):
    """Inputs that as_rational reads as x: reduced and unreduced "p/q", the
    Fraction, and the int, decimal string and float where x has one."""
    p, q = x.numerator, x.denominator
    options = [
        st.just(f"{p}/{q}"),
        st.integers(2, 9).map(lambda k: f"{p * k}/{q * k}"),
        st.just(x),
    ]
    if q == 1:
        options.append(st.just(p))
    dec = _decimal(x)
    if dec is not None:
        options += [st.just(dec), st.just(float(dec))]
    return st.one_of(options)


DENOMINATORS = st.sampled_from([1, 2, 3, 4, 5, 7, 8, 10, 12, 20, 25, 1000])


@st.composite
def game_values(draw):
    """Valid demand and quality values, as lists of Fractions."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    weights = draw(st.lists(st.integers(0, 20), min_size=m, max_size=m).filter(any))
    demand = [F(w, sum(weights)) for w in weights]
    quality = [
        [F(draw(st.integers(0, q)), q) for q in draw(st.lists(DENOMINATORS, min_size=m, max_size=m))]
        for _ in range(n)
    ]
    return demand, quality


@st.composite
def spelled(draw, values):
    demand, quality = values
    return (
        [draw(spellings(x)) for x in demand],
        [[draw(spellings(x)) for x in row] for row in quality],
    )


LONG = "1" * 4301

CORRUPTIONS = ["negative D", "D sum", "Q below 0", "Q above 1", "ragged Q",
               "zero denominator", "long half", "bool", "no topic", "no author"]


@st.composite
def corrupted(draw, kind, data):
    """(D, Q) with one entry or the shape changed as kind says, so that
    the oracle rejects it; on an interpreter without an integer string
    limit, 4,301-digit halves in [0, 1] are valid."""
    D, Q = [*data[0]], [[*row] for row in data[1]]
    i = draw(st.integers(0, len(Q) - 1))
    t = draw(st.integers(0, len(D) - 1))
    k = draw(st.integers(1, 1000))
    if kind == "negative D":
        # the weight moves to the next topic, so the sum stays 1
        if len(D) > 1:
            u = (t + 1) % len(D)
            D[u] = draw(spellings(as_rational(D[u]) + as_rational(D[t]) + F(1, k)))
        D[t] = draw(spellings(F(-1, k)))
    elif kind == "D sum":
        D[t] = draw(spellings(as_rational(D[t]) + F(draw(st.sampled_from([-1, 1])), k)))
    elif kind == "Q below 0":
        Q[i][t] = draw(spellings(F(-1, k)))
    elif kind == "Q above 1":
        Q[i][t] = draw(spellings(1 + F(1, k)))
    elif kind == "ragged Q":
        Q[i] = Q[i][:-1] if draw(st.booleans()) else Q[i] + ["0/1"]
    elif kind == "zero denominator":
        Q[i][t] = draw(st.sampled_from(["1/0", "0/0", "3/00"]))
    elif kind == "long half":
        Q[i][t] = draw(st.sampled_from([LONG + "/1" + LONG, "1/" + LONG, LONG]))
    elif kind == "bool":
        if draw(st.booleans()):
            D[t] = draw(st.booleans())
        else:
            Q[i][t] = draw(st.booleans())
    elif kind == "no topic":
        D, Q = [], [[] for _ in Q]
    else:
        Q = []
    return D, Q


def assert_matches_the_oracle(D, Q, mediator, scheme):
    doc = {"D": D, "Q": Q, "mediator": mediator_to_dict(mediator), "utility": scheme}
    try:
        demand, quality = oracle.game_data(D, Q)
    except ValidationError:
        with pytest.raises(ValidationError):
            rg.make_game(D, Q, mediator, scheme)
        with pytest.raises(ValidationError):
            rg.game_from_dict(doc)
        return
    game = rg.make_game(D, Q, mediator, scheme)
    assert game.demand == demand
    assert game.quality == quality
    assert all(type(x) is F for x in game.demand)
    assert all(type(x) is F for row in game.quality for x in row)
    want = oracle.game_document(demand, quality, mediator, scheme)
    assert json.dumps(rg.game_to_dict(game)) == json.dumps(want)
    assert rg.game_from_dict(doc) == game


@given(game_values().flatmap(spelled), st.sampled_from(GAME_CASES))
def test_make_game_matches_the_fraction_oracle(data, case):
    assert_matches_the_oracle(*data, *case[:2])


def as_pq(x: F) -> str:
    return f"{x.numerator}/{x.denominator}"


@st.composite
def pq_with_one_other_spelling(draw):
    """Valid values, all "p/q" strings but one entry, which is a decimal
    string, a float or an int."""
    demand, quality = draw(game_values())
    D, Q = list(map(as_pq, demand)), [list(map(as_pq, row)) for row in quality]
    spots = [(row, i, x) for row, xs in ((D, demand), *zip(Q, quality))
             for i, x in enumerate(xs) if x.denominator == 1 or _decimal(x)]
    assume(spots)
    row, i, x = draw(st.sampled_from(spots))
    others = [x.numerator] if x.denominator == 1 else []
    if _decimal(x) is not None:
        others += [_decimal(x), float(_decimal(x))]
    row[i] = draw(st.sampled_from(others))
    return D, Q


@given(pq_with_one_other_spelling(), st.sampled_from(GAME_CASES))
def test_a_pq_list_with_one_other_spelling_matches_the_oracle(data, case):
    assert_matches_the_oracle(*data, *case[:2])


# "p/q"-like strings that the one-pass reader of "p/q" lists must leave to
# as_rational, each in an otherwise all-"p/q" document: some spell 1/2, most
# are rejected, and the commas would shift every later entry by two
OFF_THE_BULK_PATH = ["01/2", "1/0", "1/2/3", "/2", "1/", " 1/2", "+1/2", "-1/2", "١/٢",
                     "1/2,1/3,1/4", "1" * 4301 + "/3", "1/" + "1" * 4301]


@pytest.mark.parametrize("where", ["D", "Q"])
@pytest.mark.parametrize("text", OFF_THE_BULK_PATH,
                         ids=lambda t: t if len(t) < 20 else f"{len(t)} chars from {t[:2]}")
def test_make_game_reads_other_pq_strings_as_the_oracle_does(text, where):
    D, Q = ["1/2", "1/2"], [["1/3", "1/1"], ["0/1", "2/3"]]
    if where == "D":
        D[0] = text
    else:
        Q[1][0] = text
    assert_matches_the_oracle(D, Q, rg.PRP, rg.EXPOSURE)


@pytest.mark.parametrize("kind", CORRUPTIONS)
@settings(max_examples=30)
@given(data=st.data())
def test_make_game_rejects_what_the_oracle_rejects(kind, data):
    D, Q = data.draw(game_values().flatmap(spelled).flatmap(lambda x: corrupted(kind, x)))
    assert_matches_the_oracle(D, Q, rg.PRP, rg.EXPOSURE)


@given(game_values(), st.integers(1, 6), st.data())
def test_equal_values_make_equal_games(values, k, data):
    first = rg.make_game(*data.draw(spelled(values)))
    second = rg.make_game(*data.draw(spelled(values)))
    # the data over denominators k times larger than make_game's
    demand, quality = values
    den = k * math.lcm(*(w.denominator for w in demand))
    dens = [k * math.lcm(*(q.denominator for q in col)) for col in zip(*quality)]
    third = Game(
        demand_den=den, demand_num=[int(w * den) for w in demand],
        quality_den=dens, quality_num=[[int(q * d) for q in col] for d, col in zip(dens, zip(*quality))],
        mediator=rg.PRP, scheme=rg.EXPOSURE,
    )
    assert first == second == third
    assert hash(first) == hash(second) == hash(third)
    assert third.demand_den == math.lcm(*(w.denominator for w in demand))


@pytest.mark.parametrize("fields", [
    {"demand_den": 0, "demand_num": (0, 0)},
    {"demand_den": -2, "demand_num": (-1, -1)},
    {"quality_den": (0, 1)},
    {"quality_den": (-1, 1), "quality_num": ((-1,), (1,))},
    {"quality_num": ((1, 0), (1,))},
    {"quality_num": ((1,),), "quality_den": (1,)},
    {"quality_den": (1,)},
    {"demand_num": (1, 0, 1)},
    {"quality_num": ((), ())},
])
def test_game_rejects_bad_integer_data(fields):
    base = dict(demand_den=2, demand_num=(1, 1), quality_den=(1, 1),
                quality_num=((1,), (0,)), mediator=rg.PRP, scheme=rg.EXPOSURE)
    Game(**base)
    with pytest.raises(ValidationError):
        Game(**{**base, **fields})


def test_loading_a_document_builds_no_fraction(monkeypatch):
    game = rg.generate_random_game(0, 100, 10)
    doc = json.loads(json.dumps(rg.game_to_dict(game)))
    built = []
    new = F.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", staticmethod(counting_new))
    back = rg.game_from_dict(doc)
    assert built == []
    # the counter sees the Fractions the API hands out: 10 weights, 1,000 qualities
    back.demand, back.quality
    assert len(built) == 1010
    monkeypatch.undo()
    assert back == game


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
