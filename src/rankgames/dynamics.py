"""Better/best-response computation, schedulers, and trajectory execution.

A dynamics run repeatedly lets one author switch topics to strictly raise her
own utility, until no author can (a pure Nash equilibrium), a profile repeats
(deterministic schedulers only, certifying an improvement cycle), or the step
budget runs out. Deterministic schedulers pick the improving topic of lowest
index; the first deviator is round-robin restarted at author 1 before every
step. The seeded random scheduler picks uniformly among improving moves.

Responses are evaluated with the deviation kernel (model.profile_state). A
run builds one ProfileState, for its initial profile, and moves it with each
step (ProfileState.move), updating only the two topics the step touches;
every scheduler moves that one state. Round-robin and the first deviator
stop at the first improving author and ask the state itself; a deviation
costs O(1) under every mediator. The random scheduler reads all n*(m-1)
deviations at every step, so it keeps one column of utilities per topic as
a local list and compares whole columns against the authors' own
utilities. An entry depends only on the writers of its topic besides its
author, so a move from s to t refills the columns of s and t, 2n kernel
calls, and keeps every other entry, the mover's own included. Round-robin
and the first deviator keep no memo: a lazy per-entry one hit none of the
benchmark's simulate lookups and 9.6% of its sweep audit's (seed 0).

Every reader decides a move by one comparison, better(u1, u0) from
model._gain, the rule the improvement graph uses too, and for best
response by one lowest-index argmax, _best_move. Under prp and rand the
kernel's utilities are ints over the game's scale S, so at margin 0 better
is one int comparison; above 0 both sides go through improves as
Fractions. Under scoring they are correctly rounded floats, which tie at
margin 0 only when their exact values are equal or within half an ulp.
Fractions are built only for what the API hands out: better_responses'
values and the Step utilities (kernel.value).
"""

from __future__ import annotations

import json
import random
from itertools import chain, compress, product, repeat

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
        # cols[t-1][j-1] is state.utility(j, t), bound once per run
        def column(t: int, utility=state.utility) -> list:
            return list(map(utility, authors, repeat(t)))
        cols = [column(t) for t in state.kernel.topics]
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
        s = a[j - 1]
        steps.append(Step(len(steps) + 1, j, s, t, value(u0), value(u1)))
        state.move(j, t)
        if not deterministic:
            cols[s - 1], cols[t - 1] = column(s), column(t)
        a = state.a
        if a in seen:
            if deterministic:
                # the closed walk between the two visits contains an improvement cycle
                return RepeatDetected(Trajectory(init, tuple(steps), a), seen[a])
            repeat_seen = True
        else:
            seen[a] = len(steps)


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
