"""Better/best-response computation, schedulers, and trajectory execution.

A dynamics run repeatedly lets one author switch topics to strictly raise her
own utility, until no author can (a pure Nash equilibrium), a profile repeats
(deterministic schedulers only, certifying an improvement cycle), or the step
budget runs out. Deterministic schedulers pick the improving topic of lowest
index; the first deviator is round-robin restarted at author 1 before every
step. The seeded random scheduler picks uniformly among improving moves.

Responses are evaluated with the deviation kernel (model.profile_state). A
run builds one ProfileState, for its initial profile, and moves it with each
step (ProfileState.move), updating only the two topics the step touches.
Round-robin and the first deviator stop at the first improving author and
ask the state itself; a deviation costs O(1) under prp and rand and
O(writers on the target topic) under scoring. The random scheduler reads
all n*(m-1) deviations at every step, so its memo (_RunMemo) keeps one
column of utilities per topic, refills the two columns a move touches, 2n
kernel calls per step, and compares whole columns against the authors' own
utilities. The suite's check of every start (_converge_on_graph) builds no
state: it reads each run off the improvement graph of the game's analysis.

Every reader decides a move by one comparison, better(u1, u0) from
model._gain, the rule the improvement graph uses too, and for best
response by one lowest-index argmax, _best_move. Under prp and rand the
kernel's utilities are ints over the game's scale S, so at margin 0 better
is one int comparison; above 0 both sides go through improves as
Fractions. Fractions are built only for what the API hands out:
better_responses' values and the Step utilities (kernel.value).
"""

from __future__ import annotations

import json
import random
from itertools import chain, compress, product

from .errors import ValidationError
from .model import (
    DEFAULT_BUDGET,
    Game,
    Profile,
    ProfileState,
    _Record,
    _gain,
    _set,
    check_profile,
    check_tolerance,
    _check_mover,
    format_number,
    profile_state,
    replace_topic,
)

BETTER = "better"
BEST = "best"


# ---------- steps and trajectories ----------

class Step(_Record):
    """One improvement step: at step r author `mover` switched from_topic ->
    to_topic, raising her utility from utility_before to utility_after."""

    __match_args__ = __slots__ = (
        "index", "mover", "from_topic", "to_topic", "utility_before", "utility_after"
    )

    def __init__(self, index: int, mover: int, from_topic: int, to_topic: int,
                 utility_before: object, utility_after: object):
        if from_topic == to_topic:
            raise ValidationError("a step must change the mover's topic")
        _set(self, "index", index)
        _set(self, "mover", mover)
        _set(self, "from_topic", from_topic)
        _set(self, "to_topic", to_topic)
        _set(self, "utility_before", utility_before)
        _set(self, "utility_after", utility_after)


class Trajectory(_Record):
    __match_args__ = __slots__ = ("initial", "steps", "terminal")

    def __init__(self, initial: Profile, steps: tuple[Step, ...], terminal: Profile):
        _set(self, "initial", initial)
        _set(self, "steps", steps)
        _set(self, "terminal", terminal)

    def profiles(self) -> list[Profile]:
        """The visited profiles a^0 .. a^T, replaying steps from initial."""
        return list(self.walk())

    def walk(self):
        """The visited profiles one by one; each step is applied only when
        the profile after it is asked for."""
        a = tuple(self.initial)
        yield a
        for s in self.steps:
            a = replace_topic(a, s.mover, s.to_topic)
            yield a


# ---------- schedulers ----------

class RoundRobin(_Record):
    """Cycle authors in a fixed order (default 1..n); each visit moves if an
    improving topic exists."""

    __match_args__ = __slots__ = ("order",)

    def __init__(self, order: tuple[int, ...] | None = None):
        _set(self, "order", order)


class FirstDeviator(_Record):
    """Always move the lowest-index author who can improve."""

    __slots__ = ()


class RandomOrder(_Record):
    """Pick uniformly at random among all improving moves; seeded."""

    __match_args__ = __slots__ = ("seed",)

    def __init__(self, seed: int = 0):
        _set(self, "seed", seed)


Scheduler = RoundRobin | FirstDeviator | RandomOrder


# ---------- outcomes ----------

class ConvergedPNE(_Record):
    __match_args__ = __slots__ = ("profile", "steps_taken", "trajectory", "repeat_seen")

    def __init__(self, profile: Profile, steps_taken: int, trajectory: Trajectory,
                 repeat_seen: bool = False):
        _set(self, "profile", profile)
        _set(self, "steps_taken", steps_taken)
        _set(self, "trajectory", trajectory)
        _set(self, "repeat_seen", repeat_seen)


class RepeatDetected(_Record):
    __match_args__ = __slots__ = ("trajectory", "repeated_profile_index")

    def __init__(self, trajectory: Trajectory, repeated_profile_index: int):
        _set(self, "trajectory", trajectory)
        _set(self, "repeated_profile_index", repeated_profile_index)


class BudgetExhausted(_Record):
    __match_args__ = __slots__ = ("trajectory", "repeat_seen")

    def __init__(self, trajectory: Trajectory, repeat_seen: bool = False):
        _set(self, "trajectory", trajectory)
        _set(self, "repeat_seen", repeat_seen)


DynamicsOutcome = ConvergedPNE | RepeatDetected | BudgetExhausted


# ---------- response computation ----------

def _improving_moves(state: ProfileState, j: int, better):
    """(t, u_before, u_after) for each topic t that strictly improves author
    j at state's profile, in ascending t, the utilities in kernel units."""
    s = state.a[j - 1]
    u0 = state.utility(j, s)
    for t in state.kernel.topics:
        if t != s:
            u1 = state.utility(j, t)
            if better(u1, u0):
                yield t, u0, u1


def better_responses(game: Game, a, j: int, margin: float = 0.0) -> dict:
    """Topics j can switch to for a strict gain, mapped to the new utility."""
    check_tolerance(margin)
    state = profile_state(game, _check_mover(game, a, j))
    value = state.kernel.value
    return {t: value(u1) for t, _, u1 in _improving_moves(state, j, _gain(state.kernel, margin))}


def best_responses(game: Game, a, j: int) -> set[int]:
    """Argmax topics for j against a_{-j}; non-empty, may include a_j."""
    state = profile_state(game, _check_mover(game, a, j))
    us = {t: state.utility(j, t) for t in state.kernel.topics}
    top = max(us.values())
    return {t for t, u in us.items() if u == top}


def is_pne(game: Game, a, margin: float = 0.0) -> bool:
    """True iff no author has a better response at a."""
    check_tolerance(margin)
    state = profile_state(game, check_profile(game, a))
    better = _gain(state.kernel, margin)
    return not any(
        next(_improving_moves(state, j, better), None) for j in range(1, game.n + 1)
    )


def _best_move(us, s: int, better):
    """(lowest-index argmax t of us, us[s-1], us[t-1]) for an author on topic
    s with utilities us by topic, or None unless us[t-1] improves on us[s-1]."""
    u1 = max(us)
    u0 = us[s - 1]
    return (us.index(u1) + 1, u0, u1) if better(u1, u0) else None


def _move_for(state: ProfileState, j: int, response: str, better):
    """The move j would make at state's profile, as (to_topic, u_before,
    u_after) in kernel units, or None."""
    if response == BETTER:
        return next(_improving_moves(state, j, better), None)
    us = [state.utility(j, t) for t in state.kernel.topics]
    return _best_move(us, state.a[j - 1], better)


# ---------- the run loop ----------

class _RunMemo:
    """The random scheduler's kernel state, moved with its run, and one
    column of utilities per topic: cols[t-1][j-1] is state.utility(j, t).

    An entry depends only on the writers of topic t besides author j, so a
    move from s to t refills the columns of s and t, 2n kernel calls, and
    keeps every other entry, the mover's own included. The scheduler reads
    all n*(m-1) deviations at every step, so it compares whole columns
    against the authors' own utilities. Round-robin and the first deviator
    stop at the first improving author and read the state itself. A lazy
    memo for them hit none of the round-robin lookups in the benchmark's
    simulate jobs and 9.6% of the 158k lookups in one pass of its sweep's
    convergence audit (seed 0), where a prp or rand deviation costs O(1).
    """

    __slots__ = ("state", "cols")

    def __init__(self, state: ProfileState):
        self.state = state
        self.cols = [self._column(t) for t in state.kernel.topics]

    def _column(self, t: int) -> list:
        u = self.state.utility
        return [u(j, t) for j in range(1, len(self.state.a) + 1)]

    def move(self, j: int, t: int):
        s = self.state.a[j - 1]
        self.state.move(j, t)
        self.cols[s - 1] = self._column(s)
        self.cols[t - 1] = self._column(t)


def default_max_steps(game: Game) -> int:
    # a repeat-free path cannot visit more than m^n profiles; the budget
    # caps that bound so that a cycling run on a large game ends in time
    return min(game.m**game.n * game.n * game.m, DEFAULT_BUDGET)


def run_dynamics(
    game: Game,
    init,
    sched: Scheduler,
    max_steps: int | None = None,
    response: str = BETTER,
    margin: float = 0.0,
) -> DynamicsOutcome:
    """Run one dynamics from init under the given scheduler.

    Returns ConvergedPNE, RepeatDetected (deterministic schedulers only), or
    BudgetExhausted. Identical inputs give identical outcomes; the random
    scheduler derives all choices from its seed.
    """
    a = check_profile(game, init)
    check_tolerance(margin)
    if max_steps is None:
        max_steps = default_max_steps(game)
    if not isinstance(max_steps, int) or isinstance(max_steps, bool) or max_steps <= 0:
        raise ValidationError(f"max_steps must be a positive int, got {max_steps!r}")
    if response not in (BETTER, BEST):
        raise ValidationError(f"unknown response mode {response!r}")

    n = game.n
    authors = range(1, n + 1)
    order = tuple(authors)
    if isinstance(sched, RoundRobin) and sched.order is not None:
        order = sched.order
        if sorted(order) != list(authors):
            raise ValidationError("round-robin order must be a permutation of the authors")
    elif not isinstance(sched, (RoundRobin, FirstDeviator, RandomOrder)):
        raise ValidationError(f"unknown scheduler {sched!r}")
    first = isinstance(sched, FirstDeviator)
    deterministic = not isinstance(sched, RandomOrder)
    rng = None if deterministic else random.Random(sched.seed)

    init = a
    steps: list[Step] = []
    seen = {a: 0}
    repeat_seen = False
    ptr = 0  # round-robin position
    idle = 0  # consecutive round-robin visits without a move
    state = profile_state(game, a)
    value = state.kernel.value
    better = _gain(state.kernel, margin)
    if not deterministic:
        memo = _RunMemo(state)
        pairs = list(product(authors, state.kernel.topics))

    while True:
        # pick the mover and her move
        move = None
        if first:  # round-robin restarted at author 1 before every step
            ptr = idle = 0
        if deterministic:
            while idle < n:
                j = order[ptr]
                ptr = (ptr + 1) % n
                got = _move_for(state, j, response, better)
                if got is not None:
                    move = (j, *got)
                    idle = 0
                    break
                idle += 1
        else:
            # every improving (j, t), j-major and t ascending as
            # _improving_moves gives them, flagged by one map of better per
            # column; an entry equal to the author's own utility, her own
            # topic's included, is no improvement
            cols = memo.cols
            u0 = [cols[s - 1][i] for i, s in enumerate(a)]
            if response == BETTER:
                flags = chain.from_iterable(zip(*[map(better, col, u0) for col in cols]))
                candidates = list(compress(pairs, flags))
            else:
                candidates = [(j, got[0]) for j, us, s in zip(authors, zip(*cols), a)
                              if (got := _best_move(us, s, better)) is not None]
            if candidates:
                j, t = candidates[rng.randrange(len(candidates))]
                move = (j, t, u0[j - 1], cols[t - 1][j - 1])

        if move is None:
            t = Trajectory(init, tuple(steps), a)
            return ConvergedPNE(a, len(steps), t, repeat_seen)
        if len(steps) == max_steps:
            return BudgetExhausted(Trajectory(init, tuple(steps), a), repeat_seen)

        j, t, u0, u1 = move
        steps.append(Step(len(steps) + 1, j, a[j - 1], t, value(u0), value(u1)))
        if deterministic:
            state.move(j, t)
        else:
            memo.move(j, t)
        a = state.a
        if a in seen:
            if deterministic:
                # the closed walk between the two visits contains an improvement cycle
                return RepeatDetected(Trajectory(init, tuple(steps), a), seen[a])
            repeat_seen = True
        else:
            seen[a] = len(steps)


# ---------- every start at once ----------

def _converge_on_graph(graph, fip: bool, max_steps: int) -> tuple[bool, int]:
    """(converged, worst) over the better-response runs at margin 0 from
    every start under RoundRobin() and FirstDeviator(): whether all of them
    converge within max_steps, and the most steps a converged one takes.

    The runs are read off the game's improvement graph at margin 0, graph,
    whose acyclicity is fip; no kernel state is built. Author j's moves at
    profile x go to x + (t - a_j) * m**(n-j), which rises with t, and the
    out-lists are sorted, so author j's lowest-index better response is
    the first out-edge of x that changes digit j. A run's state is its profile and
    the next round-robin position, always 0 for the first deviator. On an
    acyclic graph no run revisits a profile, so the steps still to go
    depend only on that state, and one memo per scheduler gives every
    start in one pass. On a cyclic graph a repeat is keyed by profile, not
    by run state, so each start is walked on its own with the profiles it
    has seen.
    """
    n, m = graph.game.n, graph.game.m
    author = {k * m ** (n - 1 - j): j for j in range(n) for k in range(1 - m, m) if k}
    # succ[x][j]: the profile after author j+1's better response at x, or None
    succ = []
    for x, out in enumerate(graph.adj):
        row = [None] * n
        for y in reversed(out):
            row[author[y - x]] = y
        succ.append(row)

    def after(key: int, first: bool):
        """The run state x * n + p after state key, or None at a PNE."""
        x, p = divmod(key, n)
        row = succ[x]
        for k in range(p, p + n):
            y = row[k % n]
            if y is not None:
                return y * n + (0 if first else (k + 1) % n)
        return None

    def alone(key: int, first: bool):
        """The steps from state key to a PNE, or None when the run repeats
        a profile."""
        seen, steps = {key // n}, 0
        while (key := after(key, first)) is not None:
            if key // n in seen:
                return None
            seen.add(key // n)
            steps += 1
        return steps

    def memoized(key: int, first: bool, togo: dict) -> int:
        """The steps from state key to a PNE, with togo[state] the steps
        still to go from every state walked so far."""
        path = []
        while key not in togo:
            nxt = after(key, first)
            if nxt is None:
                togo[key] = 0
                break
            path.append(key)
            key = nxt
        steps = togo[key]
        for k in reversed(path):
            steps += 1
            togo[k] = steps
        return steps

    runs = []
    for first in (False, True):
        togo: dict[int, int] = {}
        runs += [memoized(x * n, first, togo) if fip else alone(x * n, first)
                 for x in range(len(succ))]
    # a run converges when it reaches a PNE within max_steps; one that
    # repeats a profile does not, before or after the budget runs out
    done = [r for r in runs if r is not None and r <= max_steps]
    return len(done) == len(runs), max(done, default=0)


# ---------- serialization ----------

def step_to_dict(s: Step) -> dict:
    return {
        "r": s.index,
        "player": s.mover,
        "from": s.from_topic,
        "to": s.to_topic,
        "u_before": format_number(s.utility_before),
        "u_after": format_number(s.utility_after),
    }


def trajectory_to_jsonl(t: Trajectory) -> str:
    """One JSON object per step, newline-delimited."""
    return "".join(json.dumps(step_to_dict(s)) + "\n" for s in t.steps)
