"""Constructive 4-author, 3-topic games on which scoring mediators cycle.

Each builder searches for qualities (x1, x2, x3) whose score ratios satisfy
the inequalities that make a fixed 6-step improvement cycle strictly
improving, solves for a demand perturbation epsilon by halving from the
feasible cap, assembles the game, and verifies the cycle numerically before
returning it. Existence arguments become monotone bisection on the score
function plus a coarse-to-fine grid scan.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import PreconditionError, SearchError, ValidationError
from .model import (
    ACTION,
    EXPOSURE,
    Game,
    Mediator,
    Profile,
    ScoreFunction,
    check_profile,
    check_tolerance,
    game_to_dict,
    make_game,
    profile_state,
    _Record,
    _gain,
    _set,
)

# the one cycle all three constructions share: movers 2, 3, 4, 2, 3, 4
CYCLE: tuple[Profile, ...] = (
    (1, 1, 1, 2),
    (1, 2, 1, 2),
    (1, 2, 3, 2),
    (1, 2, 3, 3),
    (1, 1, 3, 3),
    (1, 1, 1, 3),
)

VERIFY_MARGIN = 1e-12  # relative; float noise must not fabricate a gain


def closed_cycle() -> tuple[Profile, ...]:
    """The shared 6-step cycle with the first profile repeated at the end."""
    return CYCLE + (CYCLE[0],)


# ---------- bundle ----------

class CycleStep(_Record):
    __match_args__ = __slots__ = ("mover", "gain", "ok")

    def __init__(self, mover: int | None, gain: object, ok: bool):
        _set(self, "mover", mover)
        _set(self, "gain", gain)
        _set(self, "ok", ok)


class CounterexampleBundle(_Record):
    """A constructed game, its verified improvement cycle (closed list of 7
    profiles), and the parameters the search settled on. Unhashable, as its
    params are a dict."""

    __match_args__ = __slots__ = ("game", "cycle", "params")

    def __init__(self, game: Game, cycle: tuple[Profile, ...], params: dict):
        _set(self, "game", game)
        _set(self, "cycle", cycle)
        _set(self, "params", params)


def bundle_to_dict(b: CounterexampleBundle) -> dict:
    params = {
        k: float(v) if isinstance(v, Fraction) else v for k, v in b.params.items()
    }
    return {
        "game": game_to_dict(b.game),
        "cycle": [list(p) for p in b.cycle],
        "params": params,
    }


# ---------- cycle verification ----------

def verify_improvement_cycle(game: Game, profiles, margin: float = VERIFY_MARGIN):
    """Check that every consecutive pair is a strict single-mover improvement.

    Returns (ok, steps) with one CycleStep per pair. A pair with no mover
    yields ok=False for that step; a pair differing in more than one author
    or an unclosed list is malformed and raises.
    """
    check_tolerance(margin)
    profiles = [check_profile(game, p) for p in profiles]
    if len(profiles) < 2:
        raise ValidationError("a cycle needs at least two profiles")
    if profiles[0] != profiles[-1]:
        raise ValidationError("cycle profile list must end where it starts")
    # one state moved along the cycle: j's deviation utility at a is her utility at b
    state = profile_state(game, profiles[0])
    better, value = _gain(state.kernel, margin), state.kernel.value
    steps = []
    ok = True
    for a, b in zip(profiles, profiles[1:]):
        movers = [j for j in range(1, game.n + 1) if a[j - 1] != b[j - 1]]
        if len(movers) > 1:
            raise ValidationError(f"profiles {a} -> {b} differ in more than one author")
        if not movers:
            steps.append(CycleStep(None, None, False))
            ok = False
            continue
        j = movers[0]
        u0, u1 = state.utility(j, a[j - 1]), state.utility(j, b[j - 1])
        good = better(u1, u0)
        steps.append(CycleStep(j, value(u1) - value(u0), good))
        ok = ok and good
        state.move(j, b[j - 1])
    return ok, steps


# ---------- numeric search helpers ----------

_BISECTIONS = 200  # the steps of _solve_monotone
_MAX_EVALS = 10**6  # score evaluations before find_exposure_triple gives up
_MAX_LEVEL = 40  # the finest grid level find_exposure_triple scans
_EXPOSURE_MARGIN = 1e-6  # relative margin of find_exposure_triple's ratio tests
_ACTION_MARGIN = 1e-9  # relative margin of find_action_triple's chain


def _solve_monotone(f, target: float, lo: float, hi: float) -> float:
    """Bisect a non-decreasing f for f(x) = target on [lo, hi]."""
    flo, fhi = f(lo), f(hi)
    if not flo <= target <= fhi:
        raise SearchError(
            f"target {target} outside f range [{flo}, {fhi}] on [{lo}, {hi}]"
        )
    for _ in range(_BISECTIONS):
        mid = (lo + hi) / 2
        if f(mid) < target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def _halving_epsilon(cap: Fraction, accept, what: str) -> Fraction:
    """First value of cap, cap/2, cap/4, ... passing accept()."""
    eps = cap
    for _ in range(200):
        if accept(eps):
            return eps
        eps /= 2
    raise SearchError(f"no feasible epsilon found for {what}")


# ---------- exposure-scheme construction ----------

def find_exposure_triple(f: ScoreFunction, x1: float = 1.0):
    """Qualities 0 < x3 < x2 < x1 <= 1 whose score ratios c1 = f(x1)/f(x2)
    and c2 = f(x2)/f(x3) satisfy c2 > 2*c1 > 2 with relative margin.

    Scans x2 over a coarse-to-fine halving grid (level L tries descending odd
    multiples of x1/2**L), then places c2 between 2*c1 and its feasibility
    ceiling f(x2)/f(0) and recovers x3 by bisection. The scan evaluates f
    at most _MAX_EVALS times, then raises SearchError with the level reached.
    """
    if not 0 < x1 <= 1:
        raise ValidationError("x1 must lie in (0, 1]")
    f0, f1 = f(0.0), f(x1)
    if not f1 > 2 * f0:
        raise PreconditionError("score function must satisfy f(x1) > 2*f(0)")
    evals = 0

    def score(x: float) -> float:
        nonlocal evals
        if evals >= _MAX_EVALS:
            raise SearchError(f"no quality triple found in {_MAX_EVALS} score evaluations; "
                              f"the grid scan reached level {level} of {_MAX_LEVEL}")
        evals += 1
        return f(x)

    for level in range(1, _MAX_LEVEL + 1):
        step = x1 / 2**level
        for k in range(2**level - 1, 0, -2):
            x2 = k * step
            f2 = score(x2)
            if f2 <= 0:
                continue
            c1 = f1 / f2
            if not c1 > 1 + _EXPOSURE_MARGIN:
                continue
            c2_sup = f2 / f0 if f0 > 0 else math.inf
            if not c2_sup > 2 * c1 * (1 + 2 * _EXPOSURE_MARGIN):
                continue
            c2 = 2 * c1 + min(1.0, (c2_sup - 2 * c1) / 2)
            x3 = _solve_monotone(score, f2 / c2, 0.0, x2)
            if not 0 < x3 < x2:
                continue
            f3 = score(x3)
            if f3 <= 0:
                continue
            c2 = f2 / f3  # realized ratio after bisection
            if c2 > 2 * c1 * (1 + _EXPOSURE_MARGIN):
                return x1, x2, x3, c1, c2
    raise SearchError("no quality triple found at the configured grid resolution")


def solve_exposure_epsilon(c1: float, c2: float) -> Fraction:
    """Largest halving value in (0, 1/4] meeting the three demand-feasibility
    inequalities of the exposure construction; exact dyadic rational."""
    if not (c2 > 2 * c1 and c1 > 1):
        raise PreconditionError("need c2 > 2*c1 > 2")

    def accept(eps: Fraction) -> bool:
        return (
            c1 * (1 + c2) / (c2 * (1 + 2 * c1)) < (1 - 2 * eps) / 2
            and 1 / (1 + c1) < (1 - 4 * eps) / 2
            and 1 < c2 * (1 - 4 * eps)
        )

    return _halving_epsilon(Fraction(1, 4), accept, "the exposure construction")


def _verified_bundle(
    demand, quality, f: ScoreFunction, scheme: str, what: str, params: dict
) -> CounterexampleBundle:
    """The constructed game with its cycle, once the cycle verifies."""
    game = make_game(demand, quality, Mediator.scoring(f), scheme)
    ok, _ = verify_improvement_cycle(game, closed_cycle())
    if not ok:
        raise SearchError(f"constructed {what} game failed cycle verification")
    return CounterexampleBundle(game, closed_cycle(), params)


def build_exposure_cycle_game(f: ScoreFunction, x1: float = 1.0) -> CounterexampleBundle:
    """Exposure-scheme scoring game with a verified 6-step improvement cycle.

    Requires f(x1) > 2*f(0). Quality rows: (x1,0,0), (x1,x2,0), (x2,0,x3),
    (0,x3,x2); demand (1/(2-3e), (1-2e)/(2(2-3e)), (1-4e)/(2(2-3e))).
    """
    x1, x2, x3, c1, c2 = find_exposure_triple(f, x1)
    eps = solve_exposure_epsilon(c1, c2)
    den = 2 - 3 * eps
    demand = (1 / den, (1 - 2 * eps) / (2 * den), (1 - 4 * eps) / (2 * den))
    quality = (
        (x1, 0, 0),
        (x1, x2, 0),
        (x2, 0, x3),
        (0, x3, x2),
    )
    params = {"x1": x1, "x2": x2, "x3": x3, "c1": c1, "c2": c2, "epsilon": eps}
    return _verified_bundle(demand, quality, f, EXPOSURE, "exposure", params)


# ---------- action-scheme construction ----------

def find_action_triple(f: ScoreFunction, alpha: float, x1: float = 1.0):
    """Qualities 1/alpha < x3 < x2 < x1 <= 1 putting c1 = f(x1)/f(x2) and
    c2 = f(x1)/f(x3) inside the chain 2(2a-1) < 2*c1 < c2 < 2(2a-1/2).

    The chain's window is split at thirds between its lower end and the
    ceiling min(2(2a-1/2), f(x1)/f(1/alpha)); x2 and x3 come from bisection.
    """
    if not alpha > 1:
        raise PreconditionError("alpha must exceed 1")
    if not 0 < x1 <= 1:
        raise ValidationError("x1 must lie in (0, 1]")
    inv = 1.0 / alpha
    f1, f_inv = f(x1), f(inv)
    lo = 2 * (2 * alpha - 1.0)
    hi = 2 * (2 * alpha - 0.5)
    if not f1 > lo * f_inv:
        raise PreconditionError(
            "score function must satisfy f(x1) > 2*(2*alpha - 1)*f(1/alpha)"
        )
    ceiling = hi if f_inv <= 0 else min(hi, f1 / f_inv)
    c2 = lo + 2 * (ceiling - lo) / 3
    c1 = (lo + (ceiling - lo) / 3) / 2
    x2 = _solve_monotone(f, f1 / c1, inv, x1)
    x3 = _solve_monotone(f, f1 / c2, inv, x2)
    if not inv < x3 < x2 < x1:
        raise SearchError("no chain-satisfying triple at the configured resolution")
    f2, f3 = f(x2), f(x3)
    if f2 <= 0 or f3 <= 0:
        raise SearchError("score function vanishes on the candidate qualities")
    c1, c2 = f1 / f2, f1 / f3  # realized ratios
    if not lo * (1 + _ACTION_MARGIN) < 2 * c1 < c2 < hi * (1 - _ACTION_MARGIN):
        raise SearchError("no chain-satisfying triple at the configured resolution")
    return x1, x2, x3, c1, c2


def solve_action_epsilon(c1: float, c2: float, alpha: float) -> Fraction:
    """Largest halving value in (0, 1/6] meeting the three demand-feasibility
    inequalities of the action construction."""
    if not (c2 > 2 * c1 and 2 * c1 > 2 * (2 * alpha - 1)):
        raise PreconditionError("need c2 > 2*c1 > 2*(2*alpha - 1)")

    def accept(eps: Fraction) -> bool:
        return (
            c1 * (1 + c2) / (c2 * (1 + 2 * c1)) < (1 - eps) / 2
            and 1 / (1 + c1) < (1 - 2 * eps) / (2 * alpha)
            and alpha * (1 - eps) / (1 + c2) < (1 - 2 * eps) / 2
        )

    return _halving_epsilon(Fraction(1, 6), accept, "the action construction")


def build_action_cycle_game(f: ScoreFunction, alpha: float, x1: float = 1.0) -> CounterexampleBundle:
    """Action-scheme scoring game with a verified 6-step improvement cycle.

    Requires alpha > 1 and f(x1) > 2*(2*alpha - 1)*f(1/alpha). Quality rows:
    (x1,0,0), (x1,x1,0), (x2,0,x2), (0,x3,x2); demand built from alpha and
    epsilon with denominator 3a + 1 - e(a + 2).
    """
    x1, x2, x3, c1, c2 = find_action_triple(f, alpha, x1)
    eps = solve_action_epsilon(c1, c2, alpha)
    af = Fraction(alpha)
    den = 3 * af + 1 - eps * (af + 2)
    demand = (2 * af / den, af * (1 - eps) / den, (1 - 2 * eps) / den)
    quality = (
        (x1, 0, 0),
        (x1, x1, 0),
        (x2, 0, x2),
        (0, x3, x2),
    )
    params = {"x1": x1, "x2": x2, "x3": x3, "c1": c1, "c2": c2, "alpha": alpha, "epsilon": eps}
    return _verified_bundle(demand, quality, f, ACTION, "action", params)


# ---------- linear-band construction ----------

def solve_band_epsilon(z) -> Fraction:
    """Positive halving value from 1/4 meeting the three inequalities of the
    linear-band construction at slope ratio z = beta/alpha."""
    z = Fraction(z) if not isinstance(z, Fraction) else z
    if z < 1:
        raise PreconditionError("slope ratio z = beta/alpha must be at least 1")
    den = 15 * z + Fraction(19, 5)
    a_mid = (5 * z + Fraction(3, 5)) / den

    def accept(eps: Fraction) -> bool:
        return (
            (10 * z / (10 * z + 1)) * (a_mid + eps / 2)
            < (11 * z / (11 * z + 1)) * (a_mid - eps)
            and (10 * z + Fraction(6, 5) + eps * den) / (5 * z + 1) < 2
            and Fraction(22, 5) * z / den < a_mid - eps
        )

    return _halving_epsilon(Fraction(1, 4), accept, "the linear-band construction")


def build_band_cycle_game(
    f: ScoreFunction, alpha: float, beta: float, x1: float = 1.0
) -> CounterexampleBundle:
    """Action-scheme cycle game for f sandwiched between alpha*x and beta*x.

    Verifies the band premise on a grid over [0, 1], solves 5z*f(x2) = f(x1)
    and 11z*f(x3) = f(x1) for z = beta/alpha by bisection, and perturbs the
    demand by a halving epsilon. Same quality shape as the action builder.
    """
    if not 0 < alpha <= beta:
        raise PreconditionError("need 0 < alpha <= beta")
    if not 0 < x1 <= 1:
        raise ValidationError("x1 must lie in (0, 1]")
    slack = 1e-9 * max(1.0, beta)
    grid = [i / 1000 for i in range(1001)]
    for x, fx in zip(grid, f.column(grid)):
        if not (alpha * x - slack <= fx <= beta * x + slack):
            raise PreconditionError(
                f"score function leaves the band [alpha*x, beta*x] at x = {x}"
            )
    z = Fraction(beta) / Fraction(alpha)
    try:
        zf = float(z)
    except OverflowError:
        raise PreconditionError(f"beta/alpha = {beta!r}/{alpha!r} exceeds the float range") from None
    f1 = f(x1)
    x2 = _solve_monotone(f, f1 / (5 * zf), 0.0, x1)
    x3 = _solve_monotone(f, f1 / (11 * zf), 0.0, x2)
    for target, x in ((f1 / (5 * zf), x2), (f1 / (11 * zf), x3)):
        if not math.isclose(f(x), target, rel_tol=1e-9):
            raise SearchError("bisection failed to meet the band equations")
    eps = solve_band_epsilon(z)
    den = 15 * z + Fraction(19, 5)
    demand = (
        (10 * z + Fraction(6, 5)) / den + eps,
        (5 * z + Fraction(3, 5)) / den - eps,
        2 / den,
    )
    quality = (
        (x1, 0, 0),
        (x1, x1, 0),
        (x2, 0, x2),
        (0, x3, x2),
    )
    params = {"x1": x1, "x2": x2, "x3": x3, "z": zf, "epsilon": eps}
    return _verified_bundle(demand, quality, f, ACTION, "linear-band", params)
