"""Exact model of ranking-mediated author-topic games.

Each of n authors writes a document on one of m topics. A demand distribution
weighs the topics, a quality matrix grades every author on every topic, and a
mediator maps (quality, topic, profile) to each author's probability of being
ranked first. Utility is demand times rank probability (exposure scheme),
additionally times own quality (action scheme).

Demand and quality are exact rationals so that quality ties, which drive the
top-rank tie-splitting, are decided exactly. Scoring mediators evaluate their
score function in floating point; everything else stays rational.

Every utility is computed by one deviation kernel: a ProfileState holds the
per-topic aggregates of a profile, from which any author's utility after a
single-topic move follows in O(1) under prp and rand and in O(writers on the
target topic) under scoring. rank_probabilities, top_quality and top_count
are the direct definitions that the tests check the kernel against. The
exhaustive analyses read every profile's utilities from one table per game,
built from the kernel once they have checked the enumeration budget.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from .errors import ValidationError

Profile = tuple[int, ...]

EXPOSURE = "exposure"
ACTION = "action"
SCHEMES = (EXPOSURE, ACTION)

# Bound on the profiles an exhaustive analysis enumerates and on the steps a
# dynamics run takes when no step budget is given.
DEFAULT_BUDGET = 10**6


# ---------- rationals ----------

def as_rational(x) -> Fraction:
    """Coerce x to an exact Fraction.

    Strings accept "p/q" and decimal forms ("0.3" becomes 3/10, exactly).
    Floats are reinterpreted through their shortest decimal repr, so a JSON
    0.3 also becomes 3/10 rather than its binary expansion.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        try:
            if type(x) is str:
                # integer fast path for the ASCII "p/q" form game_to_dict
                # writes; any other spelling is left to Fraction(x). A zero
                # denominator or an over-long half raises as in Fraction(x).
                num, _, den = x.partition("/")
                if num.isascii() and num.isdigit() and den.isascii() and den.isdigit():
                    return Fraction(int(num), int(den))
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"cannot parse rational {x!r}") from exc
    if isinstance(x, bool):
        raise ValidationError(f"not a rational value: {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValidationError(f"not a rational value: {x!r}")
        return Fraction(repr(x))
    raise ValidationError(f"not a rational value: {x!r}")


def format_rational(x: Fraction) -> str:
    """Render a Fraction as a "p/q" string."""
    return f"{x.numerator}/{x.denominator}"


def format_number(x) -> str:
    """Render a utility or residual for serialization: "p/q" or float repr."""
    if isinstance(x, Fraction):
        return format_rational(x)
    if isinstance(x, int):
        return str(x)
    return repr(float(x))


def improves(u_old, u_new, margin: float = 0.0) -> bool:
    """True when u_new strictly exceeds u_old beyond the relative margin."""
    if not margin:
        # 0.0 * Fraction would convert through Fraction.from_float
        return u_new > u_old
    return u_new - u_old > margin * max(abs(u_old), abs(u_new))


# ---------- score functions ----------

_SCORE_KINDS = ("constant", "identity", "power", "exponential", "exp_minus_one")

# the largest exponential param whose top score, e**param, is a float
_EXP_PARAM_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class ScoreFunction:
    """A non-decreasing, nonnegative score map on [0, 1].

    Kinds: constant (1), identity (x), power (x**p, p > 0),
    exponential (e**(scale*x), 0 <= scale <= 709.78), exp_minus_one (e**x - 1).
    """

    kind: str
    param: float | None = None

    def __post_init__(self):
        if self.kind not in _SCORE_KINDS:
            raise ValidationError(f"unknown score function kind {self.kind!r}")
        # the chained comparisons also reject NaN and infinities
        if self.kind == "power":
            if self.param is None or not 0 < self.param < math.inf:
                raise ValidationError("power score function needs a finite param > 0")
        elif self.kind == "exponential":
            if self.param is None or not 0 <= self.param <= _EXP_PARAM_MAX:
                raise ValidationError(
                    f"exponential score function needs a param in [0, {_EXP_PARAM_MAX:.2f}]")
        elif self.param is not None:
            raise ValidationError(f"{self.kind} score function takes no param")

    def __call__(self, x: float) -> float:
        if self.kind == "constant":
            return 1.0
        if self.kind == "identity":
            return float(x)
        if self.kind == "power":
            return float(x) ** self.param
        if self.kind == "exponential":
            return math.exp(self.param * float(x))
        return math.exp(float(x)) - 1.0

    @classmethod
    def constant(cls):
        return cls("constant")

    @classmethod
    def identity(cls):
        return cls("identity")

    @classmethod
    def power(cls, p: float):
        return cls("power", float(p))

    @classmethod
    def exponential(cls, scale: float):
        return cls("exponential", float(scale))

    @classmethod
    def exp_minus_one(cls):
        return cls("exp_minus_one")


def is_non_decreasing(f: ScoreFunction, steps: int = 1000, slack: float = 1e-12) -> bool:
    """Check f on an evenly spaced grid over [0, 1]."""
    prev = f(0.0)
    if prev < -slack:
        return False
    for i in range(1, steps + 1):
        cur = f(i / steps)
        if cur < prev - slack:
            return False
        prev = cur
    return True


# ---------- mediators ----------

@dataclass(frozen=True)
class Mediator:
    """Ranking rule: "prp" (top quality wins, ties split), "rand" (uniform
    over writers), or "scoring" (probability proportional to f(quality))."""

    kind: str
    f: ScoreFunction | None = None

    def __post_init__(self):
        if self.kind not in ("prp", "rand", "scoring"):
            raise ValidationError(f"unknown mediator kind {self.kind!r}")
        if self.kind == "scoring" and self.f is None:
            raise ValidationError("scoring mediator needs a score function")
        if self.kind != "scoring" and self.f is not None:
            raise ValidationError(f"{self.kind} mediator carries no score function")

    @classmethod
    def scoring(cls, f: ScoreFunction) -> "Mediator":
        return cls("scoring", f)


PRP = Mediator("prp")
RAND = Mediator("rand")


# ---------- the game ----------

@dataclass(frozen=True)
class Game:
    """Immutable game value: n authors, m topics, demand, quality, mediator,
    utility scheme. All operations over it are pure; _cache only memoizes
    two things: the deviation kernel's tables ("kernel") and the utility
    table that improvement_graph and exact_potential_check share ("table")."""

    n: int
    m: int
    demand: tuple[Fraction, ...]
    quality: tuple[tuple[Fraction, ...], ...]
    mediator: Mediator
    scheme: str
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValidationError("need at least one author and one topic")
        if self.scheme not in SCHEMES:
            raise ValidationError(f"unknown utility scheme {self.scheme!r}")
        if len(self.demand) != self.m:
            raise ValidationError("demand length must equal the topic count")
        if any(w < 0 for w in self.demand):
            raise ValidationError("demand weights must be nonnegative")
        if sum(self.demand) != 1:
            raise ValidationError("demand weights must sum to exactly 1")
        if len(self.quality) != self.n or any(len(row) != self.m for row in self.quality):
            raise ValidationError("quality matrix must be n x m")
        # a Fraction's denominator is positive, so 0 <= q <= 1 is an integer
        # comparison of its numerator and denominator
        if any(
            not 0 <= q.numerator <= q.denominator if type(q) is Fraction else q < 0 or q > 1
            for row in self.quality
            for q in row
        ):
            raise ValidationError("quality entries must lie in [0, 1]")


def make_game(demand, quality, mediator: Mediator = PRP, scheme: str = EXPOSURE) -> Game:
    """Build a Game from loosely typed demand/quality values."""
    d = tuple(map(as_rational, demand))
    q = tuple(tuple(map(as_rational, row)) for row in quality)
    return Game(n=len(q), m=len(d), demand=d, quality=q, mediator=mediator, scheme=scheme)


def check_profile(game: Game, a) -> Profile:
    a = tuple(a)
    if len(a) != game.n:
        raise ValidationError(f"profile length {len(a)} != author count {game.n}")
    for t in a:
        if not isinstance(t, int) or isinstance(t, bool) or not 1 <= t <= game.m:
            raise ValidationError(f"invalid topic {t!r} in profile")
    return a


def _check_mover(game: Game, a, j: int) -> Profile:
    a = check_profile(game, a)
    if not 1 <= j <= game.n:
        raise ValidationError(f"invalid author {j}")
    return a


def replace_topic(a: Profile, j: int, t: int) -> Profile:
    return a[: j - 1] + (t,) + a[j:]


# ---------- profile indexing ----------

def iter_profiles(n: int, m: int):
    """All profiles in canonical order: author 1 most significant."""
    return product(range(1, m + 1), repeat=n)


def profile_index(a: Profile, m: int) -> int:
    i = 0
    for t in a:
        i = i * m + (t - 1)
    return i


def profile_at(i: int, n: int, m: int) -> Profile:
    out = []
    for _ in range(n):
        out.append(i % m + 1)
        i //= m
    return tuple(reversed(out))


# ---------- core operations ----------

def writers(game: Game, k: int, a: Profile) -> list[int]:
    """Authors whose document is on topic k under profile a (1-based)."""
    return [j for j in range(1, game.n + 1) if a[j - 1] == k]


def top_quality(game: Game, k: int, a: Profile) -> Fraction:
    """Best quality among writers on topic k; 0 when the topic is empty."""
    best = Fraction(0)
    for j in range(1, game.n + 1):
        if a[j - 1] == k and game.quality[j - 1][k - 1] > best:
            best = game.quality[j - 1][k - 1]
    return best


def top_count(game: Game, k: int, a: Profile) -> int:
    """Number of writers on topic k attaining the top quality; 0 when empty."""
    ws = writers(game, k, a)
    if not ws:
        return 0
    best = max(game.quality[j - 1][k - 1] for j in ws)
    return sum(1 for j in ws if game.quality[j - 1][k - 1] == best)


def rank_probabilities(game: Game, k: int, a: Profile) -> dict:
    """First-rank probability per writer on topic k; empty map if no writers.

    prp: 1/(tie count) for each top-quality writer, 0 for the rest.
    rand: uniform over writers. scoring: f(quality) over the writers' f-sum;
    a zero sum (possible when f(0) = 0 and all writers have quality 0) falls
    back to uniform, an extension of the formula that keeps a distribution.
    """
    ws = writers(game, k, a)
    if not ws:
        return {}
    kind = game.mediator.kind
    if kind == "prp":
        best = max(game.quality[j - 1][k - 1] for j in ws)
        top = [j for j in ws if game.quality[j - 1][k - 1] == best]
        p = Fraction(1, len(top))
        return {j: (p if j in top else Fraction(0)) for j in ws}
    if kind == "rand":
        p = Fraction(1, len(ws))
        return {j: p for j in ws}
    f = game.mediator.f
    scores = {j: f(float(game.quality[j - 1][k - 1])) for j in ws}
    total = sum(scores.values())
    if total == 0:
        u = 1.0 / len(ws)
        return {j: u for j in ws}
    return {j: s / total for j, s in scores.items()}


# ---------- the deviation kernel ----------

_ZERO = Fraction(0)


class _Kernel:
    """Per-game tables of the deviation kernel, built once per game.

    prp: each quality as an integer (its column scaled to a common
    denominator), so top-quality comparisons are integer comparisons.
    scoring: f(float(q)) per topic column, float demand and quality.
    prp and rand: the exact shares D_t/h (times q_jt under action), filled
    lazily, at most n*m*n entries.
    """

    def __init__(self, game: Game):
        # no reference back to the game, which holds the kernel: games stay
        # free of reference cycles and are released as soon as unused
        self.m = game.m
        self.demand = game.demand
        self.quality = game.quality
        self.topics = range(1, game.m + 1)
        self.action = game.scheme == ACTION
        self.shares: dict = {}
        kind = game.mediator.kind
        if kind == "prp":
            cols = []
            for col in zip(*game.quality):
                lcd = math.lcm(*(q.denominator for q in col))
                cols.append([q.numerator * (lcd // q.denominator) for q in col])
            self.qkey = [list(row) for row in zip(*cols)]
            self.state_class = _TopRankState
        elif kind == "rand":
            self.state_class = _UniformState
        else:
            f = game.mediator.f
            self.demand_f = [float(w) for w in game.demand]
            self.quality_f = [[float(q) for q in row] for row in game.quality]
            self.score_cols = [[f(q) for q in col] for col in zip(*self.quality_f)]
            # then every subset of a topic's writers has a finite score sum
            if not all(math.isfinite(sum(col)) for col in self.score_cols):
                raise ValidationError("a topic's scores sum beyond the float range")
            self.state_class = _ScoringState

    def share(self, j: int, t: int, h: int) -> Fraction:
        """D_t/h, times q_jt under the action scheme: a writer's utility
        when she is one of h equally ranked writers on topic t."""
        key = (j, t, h) if self.action else (t, h)
        s = self.shares.get(key)
        if s is None:
            s = self.demand[t - 1] * Fraction(1, h)
            if self.action:
                s = s * self.quality[j - 1][t - 1]
            self.shares[key] = s
        return s


class ProfileState:
    """Per-topic aggregates of one profile a.

    utility(j, t) is author j's utility at a with her topic replaced by t;
    t == a_j gives her utility at a itself. Build one per profile and ask it
    about every deviation from that profile.
    """

    __slots__ = ("kernel", "a")

    def __init__(self, kernel: _Kernel, a: Profile):
        self.kernel = kernel
        self.a = a

    def utility(self, j: int, t: int):
        raise NotImplementedError


class _TopRankState(ProfileState):
    # per topic: the top quality key among its writers (-1 when empty) and
    # how many writers attain it
    __slots__ = ("top", "ties")

    def __init__(self, kernel, a):
        super().__init__(kernel, a)
        top = [-1] * kernel.m
        ties = [0] * kernel.m
        qkey = kernel.qkey
        for j, t in enumerate(a):
            r = qkey[j][t - 1]
            b = top[t - 1]
            if r > b:
                top[t - 1] = r
                ties[t - 1] = 1
            elif r == b:
                ties[t - 1] += 1
        self.top = top
        self.ties = ties

    def utility(self, j, t):
        r = self.kernel.qkey[j - 1][t - 1]
        b = self.top[t - 1]
        if self.a[j - 1] == t:
            h = self.ties[t - 1] if r == b else 0
        elif r > b:
            h = 1
        elif r == b:
            h = self.ties[t - 1] + 1
        else:
            h = 0
        return self.kernel.share(j, t, h) if h else _ZERO


class _UniformState(ProfileState):
    # per topic: the number of writers
    __slots__ = ("count",)

    def __init__(self, kernel, a):
        super().__init__(kernel, a)
        count = [0] * kernel.m
        for t in a:
            count[t - 1] += 1
        self.count = count

    def utility(self, j, t):
        return self.kernel.share(j, t, self.count[t - 1] + (self.a[j - 1] != t))


class _ScoringState(ProfileState):
    # per topic: its writers as 0-based author indices, ascending
    __slots__ = ("writers",)

    def __init__(self, kernel, a):
        super().__init__(kernel, a)
        ws = [[] for _ in range(kernel.m)]
        for j, t in enumerate(a):
            ws[t - 1].append(j)
        self.writers = ws

    def utility(self, j, t):
        # float operations in the order rank_probabilities and Fraction's
        # float fallback apply them, so the result is bit-identical
        k = self.kernel
        ws = self.writers[t - 1]
        if self.a[j - 1] != t:
            i = bisect_left(ws, j - 1)
            ws = ws[:i] + [j - 1] + ws[i:]
        col = k.score_cols[t - 1]
        total = sum(map(col.__getitem__, ws))
        r = 1.0 / len(ws) if total == 0 else col[j - 1] / total
        u = k.demand_f[t - 1] * r
        if k.action:
            u = u * k.quality_f[j - 1][t - 1]
        return u


def profile_state(game: Game, a: Profile) -> ProfileState:
    """The deviation kernel's aggregates for profile a (a tuple)."""
    kernel = game._cache.get("kernel")
    if kernel is None:
        kernel = game._cache["kernel"] = _Kernel(game)
    return kernel.state_class(kernel, a)


def _utility_table(game: Game) -> list[tuple]:
    """Every profile's utility vector, in profile_index order, built once
    per game: m^n * n entries, so only callers that have checked the
    enumeration budget may ask for it."""
    table = game._cache.get("table")
    if table is None:
        table = game._cache["table"] = [
            _vector(profile_state(game, a)) for a in iter_profiles(game.n, game.m)
        ]
    return table


def _vector(state: ProfileState) -> tuple:
    return tuple(state.utility(j, t) for j, t in enumerate(state.a, 1))


def utility(game: Game, a, j: int):
    """Author j's utility at profile a. Exact Fraction under prp/rand,
    float under a scoring mediator."""
    a = _check_mover(game, a, j)
    return profile_state(game, a).utility(j, a[j - 1])


def utility_vector(game: Game, a) -> tuple:
    """All n utilities at profile a, from one kernel state."""
    return _vector(profile_state(game, check_profile(game, a)))


# ---------- serialization ----------

def score_to_dict(f: ScoreFunction) -> dict:
    d = {"kind": f.kind}
    if f.param is not None:
        d["param"] = f.param
    return d


def score_from_dict(d) -> ScoreFunction:
    if not isinstance(d, dict) or "kind" not in d:
        raise ValidationError("score function document needs a 'kind'")
    param = d.get("param")
    if param is not None and (isinstance(param, bool) or not isinstance(param, (int, float))):
        raise ValidationError("score function 'param' must be a number")
    return ScoreFunction(d["kind"], None if param is None else float(param))


def mediator_to_dict(med: Mediator) -> dict:
    d = {"kind": med.kind}
    if med.f is not None:
        d["f"] = score_to_dict(med.f)
    return d


def mediator_from_dict(d) -> Mediator:
    if not isinstance(d, dict) or "kind" not in d:
        raise ValidationError("mediator document needs a 'kind'")
    f = d.get("f")
    return Mediator(d["kind"], score_from_dict(f) if f is not None else None)


def game_to_dict(game: Game) -> dict:
    return {
        "n": game.n,
        "m": game.m,
        "D": [format_rational(w) for w in game.demand],
        "Q": [[format_rational(q) for q in row] for row in game.quality],
        "mediator": mediator_to_dict(game.mediator),
        "utility": game.scheme,
    }


def game_from_dict(d) -> Game:
    if not isinstance(d, dict):
        raise ValidationError("game document must be a JSON object")
    for key in ("D", "Q", "mediator", "utility"):
        if key not in d:
            raise ValidationError(f"game document is missing {key!r}")
    # a string or a mapping would otherwise be iterated character by character
    # or key by key
    if not isinstance(d["D"], (list, tuple)):
        raise ValidationError("game document 'D' must be an array")
    if not isinstance(d["Q"], (list, tuple)) or not all(
        isinstance(row, (list, tuple)) for row in d["Q"]
    ):
        raise ValidationError("game document 'Q' must be an array of arrays")
    game = make_game(
        d["D"],
        d["Q"],
        mediator_from_dict(d["mediator"]),
        d["utility"],
    )
    for key, want in (("n", game.n), ("m", game.m)):
        if key in d and d[key] != want:
            raise ValidationError(f"game document {key!r} does not match its data")
    return game
