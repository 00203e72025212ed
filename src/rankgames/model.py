"""Exact model of ranking-mediated author-topic games.

Each of n authors writes a document on one of m topics. A demand distribution
weighs the topics, a quality matrix grades every author on every topic, and a
mediator maps (quality, topic, profile) to each author's probability of being
ranked first. Utility is demand times rank probability (exposure scheme),
additionally times own quality (action scheme).

Demand and quality are exact rationals so that quality ties, which drive the
top-rank tie-splitting, are decided exactly. A scoring utility is the float
nearest its exact value, computed from exact scores.

Every utility is computed by one deviation kernel: a ProfileState holds the
per-topic aggregates of a profile, from which any author's utility after a
single-topic move follows in O(1); rand runs on prp's state with every
quality tied. move(j, t) follows a run from profile to profile, updating the
aggregates of the two topics a move touches in place. Under prp and rand
its utilities are ints over one per-game scale S; _gain decides every
improvement, in the dynamics, the graph and the cycle check alike, and
Fractions are built only where the API hands a utility out. The profile
space and its writer-set table belong to analysis.py. Rounding is monotone,
so _gain is exact at margin 0 under scoring too, but for distinct values
within half an ulp: they round to one float and read as a tie.
"""

from __future__ import annotations

import json
import math
import re
import sys
from fractions import Fraction
from itertools import chain, repeat
from operator import floordiv, gt, mul

from .errors import ValidationError

Profile = tuple[int, ...]

EXPOSURE = "exposure"
ACTION = "action"
SCHEMES = (EXPOSURE, ACTION)

# Bound on the profiles an exhaustive analysis enumerates, on the steps a
# dynamics run takes when no step budget is given, and on the games an
# experiment suite runs.
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


# a list of game_to_dict's "p/q" strings joined by commas: ASCII digits, no
# sign, space or leading zero, and a positive denominator
_PQ = "(?:0|[1-9][0-9]*)/[1-9][0-9]*"
_PQ_LIST = re.compile(f"{_PQ}(?:,{_PQ})*")


def _ratios(values: list) -> tuple[list[int], list[int]]:
    """The numerators and positive denominators of values, not necessarily
    reduced. A list of "p/q" strings, the form game_to_dict writes, is read
    in one pass; any other list entry by entry through as_rational, with
    its values and ValidationErrors."""
    try:
        text = ",".join(values)
        # a comma inside an entry would shift every later entry
        if _PQ_LIST.fullmatch(text) and text.count(",") == len(values) - 1:
            flat = json.loads(f"[{text.replace('/', ',')}]")
            return flat[0::2], flat[1::2]
    except (TypeError, ValueError):
        # an entry that is not a string, or a half beyond the integer digit limit
        pass
    xs = list(map(as_rational, values))
    return [x.numerator for x in xs], [x.denominator for x in xs]


def _over_lcm(nums: list[int], dens: list[int]) -> tuple[int, list[int]]:
    """A common denominator of the ratios nums[i]/dens[i] and their numerators over it."""
    den = math.lcm(*dens)
    return den, list(map(mul, nums, map(floordiv, repeat(den), dens)))


def _format_over(den: int, nums) -> list[str]:
    """Each num/den as a reduced "p/q" string."""
    return [f"{x // g}/{den // g}" for x in nums for g in (math.gcd(x, den),)]


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


def _gain(kernel: _Kernel, margin: float):
    """better(u1, u0): whether kernel utility u1 strictly improves on u0
    beyond the margin; an equal pair never does."""
    if not margin:
        return gt
    value = kernel.value

    def better(u1, u0):
        return improves(value(u0), value(u1), margin)
    return better


def check_tolerance(x):
    """Raise a ValidationError unless the margin x is finite and >= 0."""
    if not (math.isfinite(x) and x >= 0):
        raise ValidationError(f"margin must be finite and >= 0, got {x!r}")


# ---------- records ----------

_set = object.__setattr__


class _Record:
    """Base of the package's value records.

    A record lists its fields in __match_args__ and __slots__, and its own
    __init__ checks the arguments and sets the fields with _set. The base
    gives == between records of one class, hash and repr over the fields,
    pickling, and immutability. A mutable record sets __setattr__ and
    __delattr__ back to object's and __hash__ to None.

    Unlike a dataclass, a record generates and compiles no code when its
    class is created, which saves about a millisecond per record type on
    every import of the package.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, field) for field in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{field}={getattr(self, field)!r}" for field in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# ---------- score functions ----------

_SCORE_KINDS = ("constant", "identity", "power", "exponential", "exp_minus_one")

# the largest exponential param whose top score, e**param, is a float
_EXP_PARAM_MAX = math.log(sys.float_info.max)

# the largest power param scored exactly, as q_num**p, which has p times the
# bits of q_num: a document's power 1e300 must not build such an int
_EXACT_POWER_MAX = 64


class ScoreFunction(_Record):
    """A non-decreasing, nonnegative score map on [0, 1].

    Kinds: constant (1), identity (x), power (x**p, p > 0),
    exponential (e**(scale*x), 0 <= scale <= 709.78), exp_minus_one (e**x - 1,
    by math.expm1, which keeps small x apart where exp(x) - 1.0 gives 0.0).
    """

    __match_args__ = __slots__ = ("kind", "param")

    def __init__(self, kind: str, param: float | None = None):
        if kind not in _SCORE_KINDS:
            raise ValidationError(f"unknown score function kind {kind!r}")
        # the chained comparisons also reject NaN and infinities
        if kind == "power":
            if param is None or not 0 < param < math.inf:
                raise ValidationError("power score function needs a finite param > 0")
        elif kind == "exponential":
            if param is None or not 0 <= param <= _EXP_PARAM_MAX:
                raise ValidationError(
                    f"exponential score function needs a param in [0, {_EXP_PARAM_MAX:.2f}]")
        elif param is not None:
            raise ValidationError(f"{kind} score function takes no param")
        _set(self, "kind", kind)
        _set(self, "param", param)

    def __call__(self, x: float) -> float:
        return self.column((x,))[0]

    def column(self, xs) -> list[float]:
        """f(x) for each x of xs, with the kind dispatched once."""
        kind, p = self.kind, self.param
        if kind == "constant":
            return [1.0 for _ in xs]
        if kind == "identity":
            return [float(x) for x in xs]
        if kind == "power":
            return [float(x) ** p for x in xs]
        if kind == "exponential":
            return [math.exp(p * float(x)) for x in xs]
        return [math.expm1(float(x)) for x in xs]

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


# ---------- mediators ----------

class Mediator(_Record):
    """Ranking rule: "prp" (top quality wins, ties split), "rand" (uniform
    over writers), or "scoring" (probability proportional to f(quality))."""

    __match_args__ = __slots__ = ("kind", "f")

    def __init__(self, kind: str, f: ScoreFunction | None = None):
        if kind not in ("prp", "rand", "scoring"):
            raise ValidationError(f"unknown mediator kind {kind!r}")
        if kind == "scoring" and f is None:
            raise ValidationError("scoring mediator needs a score function")
        if kind != "scoring" and f is not None:
            raise ValidationError(f"{kind} mediator carries no score function")
        _set(self, "kind", kind)
        _set(self, "f", f)

    @classmethod
    def scoring(cls, f: ScoreFunction) -> "Mediator":
        return cls("scoring", f)


PRP = Mediator("prp")
RAND = Mediator("rand")


# ---------- the game ----------

def _lowest_terms(den: int, nums) -> tuple[int, tuple[int, ...]]:
    """den and nums divided by their gcd: one canonical form per value."""
    g = math.gcd(den, *nums)
    if g == 1:
        return den, tuple(nums)
    return den // g, tuple(x // g for x in nums)


class Game(_Record):
    """Immutable game value: n authors, m topics, demand, quality, mediator,
    utility scheme. The data are ints, in lowest terms so that == and hash
    compare values: topic t's demand is demand_num[t] / demand_den, author
    j's quality on it quality_num[t][j] / quality_den[t] (0-based). The
    `demand` and `quality` Fraction tuples are built on first access.

    All operations over it are pure; _cache, which == and hash ignore, only
    memoizes: the deviation kernel's tables ("kernel"), the writer-set table
    that the potential scan reads and the graph expands into utility columns
    ("writer_sets", analysis._writer_set_table), and the Fraction tuples."""

    __match_args__ = (
        "demand_den", "demand_num", "quality_den", "quality_num", "mediator", "scheme"
    )
    __slots__ = __match_args__ + ("_cache", "n", "m")
    n: int  # the number of authors
    m: int  # the number of topics

    def __init__(self, demand_den: int, demand_num: tuple[int, ...], quality_den: tuple[int, ...],
                 quality_num: tuple[tuple[int, ...], ...], mediator: Mediator, scheme: str):
        m, cols = len(demand_num), quality_num
        n = len(cols[0]) if cols else 0
        if n < 1 or m < 1:
            raise ValidationError("need at least one author and one topic")
        if scheme not in SCHEMES:
            raise ValidationError(f"unknown utility scheme {scheme!r}")
        if len(quality_den) != m or len(cols) != m or any(len(col) != n for col in cols):
            raise ValidationError("quality matrix must be n x m")
        if demand_den < 1 or min(quality_den) < 1:
            raise ValidationError("denominators must be positive")
        if min(demand_num) < 0:
            raise ValidationError("demand weights must be nonnegative")
        if sum(demand_num) != demand_den:
            raise ValidationError("demand weights must sum to exactly 1")
        if any(min(col) < 0 or max(col) > den for den, col in zip(quality_den, cols)):
            raise ValidationError("quality entries must lie in [0, 1]")
        d_den, d_num = _lowest_terms(demand_den, demand_num)
        q_den, q_num = zip(*map(_lowest_terms, quality_den, cols))
        _set(self, "demand_den", d_den)
        _set(self, "demand_num", d_num)
        _set(self, "quality_den", q_den)
        _set(self, "quality_num", q_num)
        _set(self, "mediator", mediator)
        _set(self, "scheme", scheme)
        _set(self, "n", n)
        _set(self, "m", m)
        _set(self, "_cache", {})

    @property
    def demand(self) -> tuple[Fraction, ...]:
        """Entry t is topic t+1's demand weight."""
        got = self._cache.get("demand")
        if got is None:
            den = self.demand_den
            got = self._cache["demand"] = tuple(Fraction(x, den) for x in self.demand_num)
        return got

    @property
    def quality(self) -> tuple[tuple[Fraction, ...], ...]:
        """Row j is author j+1's quality on each topic."""
        got = self._cache.get("quality")
        if got is None:
            cols = [[Fraction(x, den) for x in col]
                    for den, col in zip(self.quality_den, self.quality_num)]
            got = self._cache["quality"] = tuple(zip(*cols))
        return got


def make_game(demand, quality, mediator: Mediator = PRP, scheme: str = EXPOSURE) -> Game:
    """Build a Game from loosely typed demand/quality values: Fractions,
    ints, floats (read through their shortest repr) and strings ("p/q" or
    decimal), each read as as_rational reads it."""
    demand = list(demand)
    rows = [list(row) for row in quality]
    m = len(demand)
    if any(len(row) != m for row in rows):
        raise ValidationError("quality matrix must be n x m")
    nums, dens = _ratios(demand + list(chain.from_iterable(rows)))
    d_den, d_num = _over_lcm(nums[:m], dens[:m])
    # quality column t: every m-th entry after the demand, from m + t
    cols = [_over_lcm(nums[t::m], dens[t::m]) for t in range(m, 2 * m)]
    return Game(d_den, d_num, [den for den, _ in cols], [col for _, col in cols], mediator, scheme)


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


# ---------- the deviation kernel ----------

class _Kernel:
    """Per-game tables of the deviation kernel, built once per game.

    prp: each quality's numerator over its column's denominator, so
    top-quality comparisons are integer comparisons. rand: every key 0, so
    all writers on a topic tie at the top and split it evenly.
    scoring: the scores as ints over a per-topic denominator, which cancels:
    q_num**e for constant, identity and integral power up to _EXACT_POWER_MAX,
    and for every other kind f(q)'s floats over their common power of two;
    where those underflow to 0.0, as power above _EXACT_POWER_MAX does on
    small qualities, a topic whose writers all score 0 is split evenly.
    prp and rand: the shares D_t/h (times q_jt under action) as ints over
    scale = demand_den * lcm(1..n), times lcm(quality_den) under action, a
    multiple of every share's denominator; filled lazily, at most n*m*n.
    """

    def __init__(self, game: Game):
        # no reference back to the game, which holds the kernel: games stay
        # free of reference cycles and are released as soon as unused
        self.m = game.m
        self.demand_den = game.demand_den
        self.demand_num = game.demand_num
        self.quality_den = game.quality_den
        self.quality_num = game.quality_num
        self.topics = range(1, game.m + 1)
        self.action = game.scheme == ACTION
        self.shares: dict = {}
        self.values: dict = {}
        self.scale = None
        kind = game.mediator.kind
        if kind != "scoring":
            self.scale = game.demand_den * math.lcm(*range(1, game.n + 1))
            if self.action:
                self.scale *= math.lcm(*game.quality_den)
            # rand is prp with every quality key tied
            keys = game.quality_num if kind == "prp" else [[0] * game.n] * game.m
            self.qkey = [list(row) for row in zip(*keys)]
            self.qualities = None
            self.state_class = _TopRankState
        else:
            f = game.mediator.f
            e = {"constant": 0, "identity": 1, "power": f.param}.get(f.kind)
            if e is not None and e <= _EXACT_POWER_MAX and e == int(e):
                self.scores = [[x ** int(e) for x in col] for col in game.quality_num]
            else:
                cols = [f.column([x / den for x in col])
                        for den, col in zip(game.quality_den, game.quality_num)]
                # then every subset of a topic's writers has a finite score sum
                if not all(math.isfinite(sum(col)) for col in cols):
                    raise ValidationError("a topic's scores sum beyond the float range")
                self.scores = [_over_lcm(*zip(*map(float.as_integer_ratio, col)))[1]
                               for col in cols]
            self.state_class = _ScoringState

    def share(self, j: int, t: int, h: int) -> int:
        """D_t/h, times q_jt under the action scheme, times scale: a writer's
        utility when she is one of h equally ranked writers on topic t."""
        key = (j, t, h) if self.action else (t, h)
        s = self.shares.get(key)
        if s is None:
            # exact divisions: h divides lcm(1..n), quality_den[t-1] its lcm
            s = self.demand_num[t - 1] * self.scale // (self.demand_den * h)
            if self.action:
                s = s * self.quality_num[t - 1][j - 1] // self.quality_den[t - 1]
            self.shares[key] = s
        return s

    def top_qualities(self) -> list[dict]:
        """prp: per topic, each quality key -> that quality as a Fraction,
        with an empty topic's top key -1 -> 0; built on first use."""
        if self.qualities is None:
            self.qualities = [
                {-1: Fraction(0), **{x: Fraction(x, den) for x in col}}
                for den, col in zip(self.quality_den, self.quality_num)
            ]
        return self.qualities

    def value(self, u):
        """A kernel utility as the API hands it out: Fraction(u, scale),
        built once per distinct u, under prp and rand; the float itself
        under scoring, where scale is None."""
        if self.scale is None:
            return u
        v = self.values.get(u)
        if v is None:
            v = self.values[u] = Fraction(u, self.scale)
        return v


class ProfileState:
    """Per-topic aggregates of one profile a.

    utility(j, t) is author j's utility at a with her topic replaced by t;
    t == a_j gives her utility at a itself, in kernel units (_Kernel.value).
    Build one per profile and ask it about every deviation from that
    profile, or follow a run with move(j, t), which updates the aggregates
    of the two topics the move touches in place.
    """

    __slots__ = ("kernel", "a")

    def __init__(self, kernel: _Kernel, a: Profile):
        self.kernel = kernel
        self.a = a

    def utility(self, j: int, t: int):
        raise NotImplementedError

    def move(self, j: int, t: int):
        """Author j switches from a_j to topic t != a_j."""
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
        return self.kernel.share(j, t, h) if h else 0

    def move(self, j, t):
        qkey, s = self.kernel.qkey, self.a[j - 1]
        self.a = replace_topic(self.a, j, t)
        q = qkey[j - 1]
        top, ties = self.top, self.ties
        if q[s - 1] == top[s - 1]:
            if ties[s - 1] > 1:
                ties[s - 1] -= 1
            else:
                # the mover was the lone top writer: rescan the writers left
                keys = [qkey[k][s - 1] for k, x in enumerate(self.a) if x == s]
                top[s - 1] = max(keys, default=-1)
                ties[s - 1] = keys.count(top[s - 1])
        r = q[t - 1]
        if r > top[t - 1]:
            top[t - 1], ties[t - 1] = r, 1
        elif r == top[t - 1]:
            ties[t - 1] += 1


class _ScoringState(ProfileState):
    # per topic: its writers' score total, exact, so a move updates it in place
    __slots__ = ("totals",)

    def __init__(self, kernel, a):
        super().__init__(kernel, a)
        self.totals = totals = [0] * kernel.m
        for j, t in enumerate(a):
            totals[t - 1] += kernel.scores[t - 1][j]

    def utility(self, j, t):
        # D_t (times q_jt under action) times x_j over the total, or over the
        # h writers on a zero total: one int true division, correctly rounded
        k = self.kernel
        x, away = k.scores[t - 1][j - 1], self.a[j - 1] != t
        total = self.totals[t - 1] + x * away
        num, den = k.demand_num[t - 1], k.demand_den
        if k.action:
            num, den = num * k.quality_num[t - 1][j - 1], den * k.quality_den[t - 1]
        if total:
            return num * x / (den * total)
        return num / (den * (self.a.count(t) + away))

    def move(self, j, t):
        scores, s = self.kernel.scores, self.a[j - 1]
        self.totals[s - 1] -= scores[s - 1][j - 1]
        self.totals[t - 1] += scores[t - 1][j - 1]
        self.a = replace_topic(self.a, j, t)


def profile_state(game: Game, a: Profile) -> ProfileState:
    """The deviation kernel's aggregates for profile a (a tuple)."""
    kernel = game._cache.get("kernel")
    if kernel is None:
        kernel = game._cache["kernel"] = _Kernel(game)
    return kernel.state_class(kernel, a)


def utility(game: Game, a, j: int):
    """Author j's utility at profile a. Exact Fraction under prp/rand,
    float under a scoring mediator."""
    a = _check_mover(game, a, j)
    state = profile_state(game, a)
    return state.kernel.value(state.utility(j, a[j - 1]))


def utility_vector(game: Game, a) -> tuple:
    """All n utilities at profile a, from one kernel state."""
    state = profile_state(game, check_profile(game, a))
    value = state.kernel.value
    return tuple(value(state.utility(j, t)) for j, t in enumerate(state.a, 1))


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
    if param is not None and (isinstance(param, bool) or not isinstance(param, (int, float))
                              or abs(param) > sys.float_info.max):
        raise ValidationError("score function 'param' must be a number in the float range")
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
        "D": _format_over(game.demand_den, game.demand_num),
        "Q": list(map(list, zip(*map(_format_over, game.quality_den, game.quality_num)))),
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
