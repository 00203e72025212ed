"""Metamorphic relations of the analysis pipeline.

Each test runs the real pipeline twice, on a game and on a transformed
copy whose answer follows from the first one's, so neither side needs a
reference model (Chen, Cheung and Yiu, HKUST-CS98-01, 1998; Segura et al.,
IEEE TSE 42(9), 2016):

- relabelling authors by pi and topics by sigma maps the edge set and the
  PNE set, and keeps fip, the longest path, the cycle length and potential
  existence, and under prp and rand the exact worst residual;
- a prp/exposure game depends only on each topic's quality order, so a
  strictly increasing map of the qualities keeps its graph;
- a scoring share under identity or integral power is homogeneous in a
  topic's qualities, so scaling one topic's qualities by k in (0, 1] keeps
  every exposure utility, and, as every utility is the float of its exact
  value, keeps it bit for bit;
- a rand/exposure game and its rand_to_prp_reduction, the prp game with
  all-ones quality, have the same edge and PNE sets, and the reduced game,
  a congestion game, has an exact potential.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import rankgames as rg
from rankgames.analysis import profile_at, profile_index
from rankgames.model import _EXACT_POWER_MAX


MEDIATORS = (
    rg.PRP,
    rg.RAND,
    rg.Mediator.scoring(rg.ScoreFunction.constant()),
    rg.Mediator.scoring(rg.ScoreFunction.identity()),
    rg.Mediator.scoring(rg.ScoreFunction.power(2.0)),
    rg.Mediator.scoring(rg.ScoreFunction.exp_minus_one()),
    rg.Mediator.scoring(rg.ScoreFunction.exponential(3.0)),
)
# the kinds whose scores are the rational q**e
HOMOGENEOUS = (
    rg.Mediator.scoring(rg.ScoreFunction.identity()),
    rg.Mediator.scoring(rg.ScoreFunction.power(2.0)),
    rg.Mediator.scoring(rg.ScoreFunction.power(3.0)),
    rg.Mediator.scoring(rg.ScoreFunction.power(float(_EXACT_POWER_MAX))),
)


@st.composite
def games(draw, mediators=MEDIATORS, schemes=(rg.EXPOSURE, rg.ACTION), max_n=4, max_m=4):
    tie_rich = draw(st.booleans())
    return rg.generate_random_game(
        draw(st.integers(0, 10**6)),
        draw(st.integers(1, max_n)),
        draw(st.integers(1, max_m)),
        generic_Q=not tie_rich,
        sorted_D=False,
        denominator_bound=draw(st.integers(1, 4)) if tie_rich else 60,
        mediator=draw(st.sampled_from(mediators)),
        scheme=draw(st.sampled_from(schemes)),
    )


def rebuilt(game, demand, quality):
    return rg.make_game(demand, quality, game.mediator, game.scheme)


# ---------- relabelling ----------

def relabelled(game, pi, sigma):
    """The game with author j+1 renamed pi[j]+1 and topic t+1 renamed sigma[t]+1."""
    demand = [None] * game.m
    quality = [[None] * game.m for _ in range(game.n)]
    for t, d in enumerate(game.demand):
        demand[sigma[t]] = d
    for j, row in enumerate(game.quality):
        for t, q in enumerate(row):
            quality[pi[j]][sigma[t]] = q
    return rebuilt(game, demand, quality)


def assert_relabelling_maps_the_analysis(game, pi, sigma):
    n, m = game.n, game.m
    other = relabelled(game, pi, sigma)

    def image(i):
        a = profile_at(i, n, m)
        b = [None] * n
        for j, t in enumerate(a):
            b[pi[j]] = sigma[t - 1] + 1
        return profile_index(b, m)

    graph, graph2 = rg.improvement_graph(game), rg.improvement_graph(other)
    to = list(map(image, range(graph.n_nodes)))
    assert sorted((to[u], to[v]) for u, out in enumerate(graph.adj) for v in out) == [
        (u, v) for u, out in enumerate(graph2.adj) for v in out]
    assert sorted(to[graph.index_of(a)] for a in graph.sinks()) == list(
        map(graph2.index_of, graph2.sinks()))

    report, report2 = rg.analysis_report(game), rg.analysis_report(other)
    assert report["fip"] == report2["fip"]
    if report["fip"]:
        assert report["longest_path"] == report2["longest_path"]
    else:
        assert len(report["cycle"]) == len(report2["cycle"])
    assert report["potential"]["exists"] == report2["potential"]["exists"]
    if game.mediator.kind != "scoring":
        assert report["potential"]["residual"] == report2["potential"]["residual"]


@settings(max_examples=200, deadline=None)
@given(games(), st.data())
def test_relabelling_authors_and_topics_maps_the_analysis(game, data):
    pi = data.draw(st.permutations(range(game.n)))
    sigma = data.draw(st.permutations(range(game.m)))
    assert_relabelling_maps_the_analysis(game, pi, sigma)


@pytest.mark.parametrize("game, pi", [
    (rg.generate_random_game(3, 6, 5), [5, 0, 4, 1, 3, 2]),
    (rg.generate_random_game(3, 5, 5, mediator=MEDIATORS[3], scheme=rg.ACTION), [4, 0, 3, 1, 2]),
], ids=["prp-6x5", "identity-action-5x5"])
def test_relabelling_a_game_beyond_the_naive_oracles(game, pi):
    assert_relabelling_maps_the_analysis(game, pi, [2, 0, 4, 1, 3])


def test_relabelling_a_cyclic_game():
    # the exposure construction's improvement cycle, under a reversal of
    # the authors and a rotation of the topics
    game = rg.build_exposure_cycle_game(rg.ScoreFunction.identity()).game
    assert not rg.analysis_report(game)["fip"]
    assert_relabelling_maps_the_analysis(game, [3, 2, 1, 0], [1, 2, 0])


# ---------- prp/exposure reads only the quality order ----------

def per_topic_ranks(quality):
    """Each quality as its rank among its topic's distinct qualities, over
    their count: a strictly increasing map of every topic's qualities."""
    out = [list(row) for row in quality]
    for t, col in enumerate(zip(*quality)):
        levels = sorted(set(col))
        for j, q in enumerate(col):
            out[j][t] = F(levels.index(q) + 1, len(levels))
    return out


@settings(max_examples=200, deadline=None)
@given(games(mediators=(rg.PRP,), schemes=(rg.EXPOSURE,)))
def test_prp_exposure_graph_depends_only_on_the_quality_order(game):
    adj = rg.improvement_graph(game).adj
    squashed = [[(q + q * q) / 2 for q in row] for row in game.quality]
    for quality in (squashed, per_topic_ranks(game.quality)):
        assert rg.improvement_graph(rebuilt(game, game.demand, quality)).adj == adj


# ---------- scaling one topic's qualities ----------

@settings(max_examples=200, deadline=None)
@given(games(mediators=HOMOGENEOUS, schemes=(rg.EXPOSURE,)), st.data())
def test_scaling_a_topic_keeps_every_exposure_utility_bit_for_bit(game, data):
    t = data.draw(st.integers(0, game.m - 1))
    den = data.draw(st.integers(1, 50))
    k = F(data.draw(st.integers(1, den)), den)
    quality = [[q * k if s == t else q for s, q in enumerate(row)] for row in game.quality]
    scaled = rebuilt(game, game.demand, quality)
    for a in rg.iter_profiles(game.n, game.m):
        assert ([u.hex() for u in rg.utility_vector(scaled, a)]
                == [u.hex() for u in rg.utility_vector(game, a)]), a


# ---------- the rand -> prp reduction ----------

def assert_reduction_keeps_the_analysis(game):
    reduced = rg.rand_to_prp_reduction(game)
    graph, graph2 = rg.improvement_graph(game), rg.improvement_graph(reduced)
    assert graph2.adj == graph.adj
    # the PNE set, enumerate_pne's, without a third graph
    assert graph2.sinks() == graph.sinks()
    assert rg.exact_potential_check(reduced).worst_residual == 0


@settings(max_examples=200, deadline=None)
@given(games(mediators=(rg.RAND,), schemes=(rg.EXPOSURE,)))
def test_rand_to_prp_reduction_keeps_edges_and_equilibria(game):
    assert_reduction_keeps_the_analysis(game)


@pytest.mark.parametrize("game", [
    rg.generate_random_game(5, 6, 5, generic_Q=False, sorted_D=False, denominator_bound=4,
                            mediator=rg.RAND),
    rg.generate_random_game(5, 6, 6, mediator=rg.RAND),
], ids=["tie-rich-6x5", "generic-6x6"])
def test_rand_to_prp_reduction_beyond_the_naive_oracles(game):
    assert_reduction_keeps_the_analysis(game)
