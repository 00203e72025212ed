"""Better/best-response computation, schedulers, and trajectory execution.

A dynamics run repeatedly lets one author switch topics to strictly raise her
own utility, until no author can (a pure Nash equilibrium), a profile repeats
(deterministic schedulers only, certifying an improvement cycle), or the step
budget runs out. Deterministic schedulers pick the improving topic of lowest
index; the seeded random scheduler picks uniformly among improving moves.

Responses are evaluated with the deviation kernel (model.profile_state). A
run builds one ProfileState per visited profile, in O(n + m), and every
author visit at that profile reads its m deviations from it: O(1) each under
prp and rand, O(writers on the target topic) under scoring. Utility vectors
of visited profiles are not memoized; only the all-starts pass, which visits
every profile anyway, keeps each profile's state and moves.

Under prp and rand the kernel's utilities are ints over the game's scale S,
so at margin 0 a move improves when one int exceeds another. At a margin
above 0 both sides go through improves as Fractions. Fractions are built
only for what the API hands out: better_responses' values and the Step
utilities (kernel.value).
"""

from __future__ import annotations

import json
import random

from .errors import ValidationError
from .model import (
    DEFAULT_BUDGET,
    Game,
    Profile,
    ProfileState,
    _Record,
    _set,
    check_profile,
    check_tolerance,
    _check_mover,
    format_number,
    improves,
    iter_profiles,
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

    def __init__(self):
        pass


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

def _improving_moves(state: ProfileState, j: int, margin: float):
    """(t, u_before, u_after) for each topic t that strictly improves author
    j at state's profile, in ascending t, the utilities in kernel units."""
    s = state.a[j - 1]
    u0 = state.utility(j, s)
    value = state.kernel.value
    for t in state.kernel.topics:
        if t != s:
            u1 = state.utility(j, t)
            if improves(value(u0), value(u1), margin) if margin else u1 > u0:
                yield t, u0, u1


def better_responses(game: Game, a, j: int, margin: float = 0.0) -> dict:
    """Topics j can switch to for a strict gain, mapped to the new utility."""
    check_tolerance(margin)
    state = profile_state(game, _check_mover(game, a, j))
    value = state.kernel.value
    return {t: value(u1) for t, _, u1 in _improving_moves(state, j, margin)}


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
    return not any(
        next(_improving_moves(state, j, margin), None) for j in range(1, game.n + 1)
    )


def _move_for(state: ProfileState, j: int, response: str, margin: float):
    """The move j would make at state's profile, as (to_topic, u_before,
    u_after) in kernel units, or None."""
    if response == BETTER:
        return next(_improving_moves(state, j, margin), None)
    # the lowest-index best response, which may be j's current topic
    us = [state.utility(j, t) for t in state.kernel.topics]
    u1 = max(us)
    t = us.index(u1) + 1
    u0 = us[state.a[j - 1] - 1]
    value = state.kernel.value
    if t == state.a[j - 1] or not (improves(value(u0), value(u1), margin) if margin else u1 > u0):
        return None
    return t, u0, u1


# ---------- the run loop ----------

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

    if isinstance(sched, RoundRobin):
        order = sched.order if sched.order is not None else tuple(range(1, game.n + 1))
        if sorted(order) != list(range(1, game.n + 1)):
            raise ValidationError("round-robin order must be a permutation of the authors")
    elif not isinstance(sched, (FirstDeviator, RandomOrder)):
        raise ValidationError(f"unknown scheduler {sched!r}")
    deterministic = not isinstance(sched, RandomOrder)
    rng = random.Random(sched.seed) if isinstance(sched, RandomOrder) else None

    init = a
    steps: list[Step] = []
    seen = {a: 0}
    repeat_seen = False
    ptr = 0  # round-robin position
    idle = 0  # consecutive round-robin visits without a move

    while True:
        # pick the mover and her move; one state serves every visit at a
        state = profile_state(game, a)
        move = None
        if isinstance(sched, FirstDeviator):
            for j in range(1, game.n + 1):
                got = _move_for(state, j, response, margin)
                if got is not None:
                    move = (j, *got)
                    break
        elif isinstance(sched, RoundRobin):
            while idle < game.n:
                j = order[ptr]
                ptr = (ptr + 1) % game.n
                got = _move_for(state, j, response, margin)
                if got is not None:
                    move = (j, *got)
                    idle = 0
                    break
                idle += 1
        else:
            candidates = []
            for j in range(1, game.n + 1):
                if response == BETTER:
                    candidates.extend((j, *mv) for mv in _improving_moves(state, j, margin))
                else:
                    got = _move_for(state, j, response, margin)
                    if got is not None:
                        candidates.append((j, *got))
            if candidates:
                move = candidates[rng.randrange(len(candidates))]

        if move is None:
            t = Trajectory(init, tuple(steps), a)
            return ConvergedPNE(a, len(steps), t, repeat_seen)
        if len(steps) == max_steps:
            return BudgetExhausted(Trajectory(init, tuple(steps), a), repeat_seen)

        j, t, u0, u1 = move
        a2 = replace_topic(a, j, t)
        value = state.kernel.value
        steps.append(Step(len(steps) + 1, j, a[j - 1], t, value(u0), value(u1)))
        a = a2
        if a in seen:
            if deterministic:
                # the closed walk between the two visits contains an improvement cycle
                return RepeatDetected(Trajectory(init, tuple(steps), a), seen[a])
            repeat_seen = True
        else:
            seen[a] = len(steps)


# ---------- every start at once ----------

_UNSEEN = object()


def _converge_from_every_start(game: Game) -> tuple[bool, int]:
    """(converged, worst) over the better-response runs at margin 0 from
    every start under RoundRobin() and FirstDeviator(): whether all of them
    converge within default_max_steps, and the most steps any of them takes.

    Valid only when the improvement graph is acyclic. No run can then revisit
    a profile, so the steps still to go depend only on the run's state: the
    profile and the next round-robin position, or the profile alone for the
    first deviator. One memo per scheduler gives every start in one
    iterative pass. Both share one kernel state per profile and each
    author's move there, computed when first asked for.
    """
    n = game.n
    seen: dict[Profile, tuple] = {}  # profile -> (state, per-author next profile)

    def move(a: Profile, j: int):
        """The profile after author j+1's better response at a, or None."""
        got = seen.get(a)
        if got is None:
            got = seen[a] = (profile_state(game, a), [_UNSEEN] * n)
        state, succ = got
        b = succ[j]
        if b is _UNSEEN:
            mv = _move_for(state, j + 1, BETTER, 0.0)
            b = succ[j] = None if mv is None else replace_topic(a, j + 1, mv[0])
        return b

    def next_round_robin(key):
        a, p = key
        for k in range(p, p + n):
            b = move(a, k % n)
            if b is not None:
                return b, (k + 1) % n
        return None

    def next_first_deviator(a):
        got = next_round_robin((a, 0))
        return got and got[0]

    worst = 0
    starts = list(iter_profiles(n, game.m))
    for step, keys in (
        (next_round_robin, [(a, 0) for a in starts]),
        (next_first_deviator, starts),
    ):
        memo = {}  # run state -> steps still to go
        for key in keys:
            path = []
            while key not in memo:
                nxt = step(key)
                if nxt is None:
                    memo[key] = 0
                    break
                path.append(key)
                key = nxt
            r = memo[key]
            for k in reversed(path):
                r += 1
                memo[k] = r
        worst = max(worst, max(memo[k] for k in keys))
    return worst <= default_max_steps(game), worst


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
