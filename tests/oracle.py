"""Direct definitions of the model, kept as the tests' reference.

The library computes every utility with its deviation kernel; these
functions follow the model's definitions instead, writer by writer, and
the tests check the kernel, the dynamics and the path invariants against
them. The game data are built here as Fraction tuples, entry by entry, and
checked in Fractions; the tests check the library's integer game data
against them.
"""

import random
from fractions import Fraction

import rankgames as rg
from rankgames.errors import ValidationError
from rankgames.analysis import profile_index
from rankgames.model import _EXACT_POWER_MAX, as_rational, format_rational, mediator_to_dict


def writers(game, k, a):
    """Authors whose document is on topic k under profile a (1-based)."""
    return [j for j in range(1, game.n + 1) if a[j - 1] == k]


def top_quality(game, k, a):
    """Best quality among writers on topic k; 0 when the topic is empty."""
    best = Fraction(0)
    for j in range(1, game.n + 1):
        if a[j - 1] == k and game.quality[j - 1][k - 1] > best:
            best = game.quality[j - 1][k - 1]
    return best


def top_count(game, k, a):
    """Number of writers on topic k attaining the top quality; 0 when empty."""
    ws = writers(game, k, a)
    if not ws:
        return 0
    best = max(game.quality[j - 1][k - 1] for j in ws)
    return sum(1 for j in ws if game.quality[j - 1][k - 1] == best)


def rank_probabilities(game, k, a):
    """First-rank probability per writer on topic k; empty map if no writers.

    prp: 1/(tie count) for each top-quality writer, 0 for the rest.
    rand: uniform over writers. scoring: score over the writers' score sum,
    as Fractions; a zero sum (possible when f(0) = 0 and all writers have
    quality 0) falls back to uniform, an extension of the formula that keeps
    a distribution.
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
    scores = {j: score(game.mediator.f, game.quality[j - 1][k - 1]) for j in ws}
    total = sum(scores.values())
    if total == 0:
        p = Fraction(1, len(ws))
        return {j: p for j in ws}
    return {j: s / total for j, s in scores.items()}


def score(f, q):
    """f(q) as a Fraction: q**e, exactly, for constant (e = 0), identity
    (e = 1) and integral power up to the model's exponent bound; the exact
    value of the float f(float(q)) for every other kind."""
    e = {"constant": 0, "identity": 1, "power": f.param}.get(f.kind)
    if e is not None and e <= _EXACT_POWER_MAX and e == int(e):
        return q ** int(e)
    return Fraction(f(float(q)))


def utility(game, a, j):
    """Author j's utility at profile a: demand times rank probability, times
    own quality under the action scheme. Fractions under prp and rand; under
    scoring the float of that exact Fraction."""
    k = a[j - 1]
    u = game.demand[k - 1] * rank_probabilities(game, k, a)[j]
    if game.scheme == rg.ACTION:
        u = u * game.quality[j - 1][k - 1]
    return float(u) if game.mediator.kind == "scoring" else u


def gains(u0, u1, margin):
    """u1 beats u0 by more than the relative margin."""
    return u1 - u0 > margin * max(abs(u0), abs(u1)) if margin else u1 > u0


def moves(game, a, j, response, margin):
    """Author j's moves at a as (t, u_before, u_after): every improving
    topic, ascending, for better response; the lowest-index best topic, when
    it improves, for best response."""
    us = {t: utility(game, rg.replace_topic(a, j, t), j) for t in range(1, game.m + 1)}
    u0 = us[a[j - 1]]
    if response == rg.BETTER:
        return [(t, u0, u) for t, u in us.items() if t != a[j - 1] and gains(u0, u, margin)]
    top = max(us.values())
    t = min(t for t, u in us.items() if u == top)
    return [(t, u0, top)] if t != a[j - 1] and gains(u0, top, margin) else []


def dynamics(game, init, sched, max_steps, response=rg.BETTER, margin=0.0):
    """run_dynamics from the definitions: the same outcome records, with
    every utility evaluated by utility() above."""
    n, a = game.n, tuple(init)
    steps, seen, repeat_seen = [], {a: 0}, False
    order = getattr(sched, "order", None) or tuple(range(1, n + 1))
    rng = random.Random(sched.seed) if isinstance(sched, rg.RandomOrder) else None
    ptr = idle = 0
    while True:
        move = None
        if rng is not None:
            found = [(j, *mv) for j in range(1, n + 1) for mv in moves(game, a, j, response, margin)]
            if found:
                move = found[rng.randrange(len(found))]
        elif isinstance(sched, rg.FirstDeviator):
            for j in range(1, n + 1):
                mv = moves(game, a, j, response, margin)
                if mv:
                    move = (j, *mv[0])
                    break
        else:
            while move is None and idle < n:
                j = order[ptr]
                ptr = (ptr + 1) % n
                mv = moves(game, a, j, response, margin)
                if mv:
                    move, idle = (j, *mv[0]), 0
                else:
                    idle += 1
        if move is None:
            return rg.ConvergedPNE(a, len(steps), rg.Trajectory(tuple(init), tuple(steps), a), repeat_seen)
        if len(steps) == max_steps:
            return rg.BudgetExhausted(rg.Trajectory(tuple(init), tuple(steps), a), repeat_seen)
        j, t, u0, u1 = move
        steps.append(rg.Step(len(steps) + 1, j, a[j - 1], t, u0, u1))
        a = rg.replace_topic(a, j, t)
        if a in seen:
            if rng is None:
                return rg.RepeatDetected(rg.Trajectory(tuple(init), tuple(steps), a), seen[a])
            repeat_seen = True
        else:
            seen[a] = len(steps)


def is_non_decreasing(f, steps=1000, slack=1e-12):
    """Check the score function f on an evenly spaced grid over [0, 1]."""
    prev = f(0.0)
    if prev < -slack:
        return False
    for i in range(1, steps + 1):
        cur = f(i / steps)
        if cur < prev - slack:
            return False
        prev = cur
    return True


def game_data(demand, quality):
    """Demand and quality as tuples of Fractions, as_rational per entry,
    with the model's checks made on the Fractions."""
    d = tuple(map(as_rational, demand))
    q = tuple(tuple(map(as_rational, row)) for row in quality)
    if not q or not d:
        raise ValidationError("need at least one author and one topic")
    if any(w < 0 for w in d):
        raise ValidationError("demand weights must be nonnegative")
    if sum(d) != 1:
        raise ValidationError("demand weights must sum to exactly 1")
    if any(len(row) != len(d) for row in q):
        raise ValidationError("quality matrix must be n x m")
    if any(not 0 <= x <= 1 for row in q for x in row):
        raise ValidationError("quality entries must lie in [0, 1]")
    return d, q


def game_document(demand, quality, mediator, scheme):
    """The game document of game_data's Fractions: every entry "p/q"."""
    return {
        "n": len(quality),
        "m": len(demand),
        "D": [format_rational(w) for w in demand],
        "Q": [[format_rational(x) for x in row] for row in quality],
        "mediator": mediator_to_dict(mediator),
        "utility": scheme,
    }


# ---------- the improvement graph and the potential scan ----------

def fresh(game):
    """An equal game with empty caches, so that an oracle run on it shares
    no cache with the library's run on game."""
    return rg.make_game(game.demand, game.quality, game.mediator, game.scheme)


def naive_graph(game, margin):
    """Out-lists of the improvement graph by profile index, built move by
    move from utility() and replace_topic."""
    adj = []
    for a in rg.iter_profiles(game.n, game.m):
        out = []
        for j in range(1, game.n + 1):
            for t in range(1, game.m + 1):
                if t == a[j - 1]:
                    continue
                b = rg.replace_topic(a, j, t)
                if rg.improves(rg.utility(game, a, j), rg.utility(game, b, j), margin):
                    out.append(profile_index(b, game.m))
        adj.append(sorted(out))
    return adj


def four_term_residual(u, i, j, topics_i, topics_j, base):
    """Monderer and Shapley's alternating sum over the subgame's four
    profiles; u(a, k) is author k's utility at profile a."""
    def at(s, t):
        return rg.replace_topic(rg.replace_topic(base, i, s), j, t)

    (s1, s2), (t1, t2) = topics_i, topics_j
    return (u(at(s2, t1), i) - u(at(s1, t1), i) + u(at(s2, t2), j) - u(at(s2, t1), j)
            + u(at(s1, t2), i) - u(at(s2, t2), i) + u(at(s1, t1), j) - u(at(s1, t2), j))


def separability_residual(u, i, j, topics_i, topics_j, base):
    """v_t1 - v_t2, where v_s1 = e(s1), v_s2 = -e(s2), v_t = 0 elsewhere and
    e(s) = (u_j(W+i+j) - u_j(W+j)) - (u_i(W+i+j) - u_i(W+i)), W the other
    authors on s: the order in which the scan evaluates float residuals."""
    def e(s):
        away = 2 if s == 1 else 1  # any topic but s

        def at(si, sj):
            return rg.replace_topic(rg.replace_topic(base, i, si), j, sj)

        return (u(at(s, s), j) - u(at(away, s), j)) - (u(at(s, s), i) - u(at(s, away), i))

    (s1, s2), (t1, t2) = topics_i, topics_j
    v = {s1: e(s1), s2: -e(s2)}
    return v.get(t1, 0) - v.get(t2, 0)


def naive_residuals(game):
    """|residual| and its subgame, subgame by subgame in scan order: under
    prp/rand four_term_residual's, under scoring separability_residual's."""
    vectors = {}

    def u(a, k):
        if a not in vectors:
            vectors[a] = rg.utility_vector(game, a)
        return vectors[a][k - 1]

    residual = separability_residual if game.mediator.kind == "scoring" else four_term_residual
    n, m = game.n, game.m
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            rest_idx = [r for r in range(1, n + 1) if r not in (i, j)]
            for rest in rg.iter_profiles(n - 2, m):
                base = [1] * n
                for r, t in zip(rest_idx, rest):
                    base[r - 1] = t
                base = tuple(base)
                for s1 in range(1, m):
                    for s2 in range(s1 + 1, m + 1):
                        for t1 in range(1, m):
                            for t2 in range(t1 + 1, m + 1):
                                res = residual(u, i, j, (s1, s2), (t1, t2), base)
                                yield abs(res), rg.PotentialWitness((i, j), (s1, s2), (t1, t2), base)


def naive_potential_check(game, tol=1e-9, residuals=None):
    """The scan over naive_residuals, subgame by subgame: the first worst."""
    exact = game.mediator.kind != "scoring"
    worst = Fraction(0) if exact else 0.0
    witness = None
    for res, subgame in residuals or naive_residuals(game):
        if res > worst:
            worst, witness = res, subgame
    has = worst == 0 if exact else worst <= tol
    return rg.PotentialReport(has, worst, witness)


def naive_longest_path(adj):
    """The edge count of the longest path, or None on a cyclic graph: every
    edge is relaxed until no depth grows, which a graph without a cycle
    reaches within len(adj) rounds."""
    depth = [0] * len(adj)
    for _ in range(len(adj) + 1):
        grew = False
        for u, out in enumerate(adj):
            for v in out:
                if depth[v] <= depth[u]:
                    depth[v], grew = depth[u] + 1, True
        if not grew:
            return max(depth, default=0)
    return None


def naive_shortest_cycle(adj):
    """A shortest cycle through the lowest-index node that lies on a
    shortest cycle, as a closed list of nodes, or None on an acyclic graph:
    one breadth-first search from every node."""
    best = None
    for start in range(len(adj)):
        parent, queue = {start: None}, [start]
        for u in queue:  # in order of distance from start
            if start in adj[u]:
                cycle = [start]
                while u is not None:
                    cycle.append(u)
                    u = parent[u]
                if best is None or len(cycle) < len(best):
                    best = cycle[::-1]
                break
            for v in adj[u]:
                if v not in parent:
                    parent[v] = u
                    queue.append(v)
    return best


def naive_report(game, margin=0.0, tol=1e-9):
    """analysis_report from the definitions: naive_graph, the naive longest
    path and shortest cycle, and naive_potential_check."""
    adj = naive_graph(game, margin)
    profiles = [list(a) for a in rg.iter_profiles(game.n, game.m)]
    longest = naive_longest_path(adj)
    if longest is None:
        report = {"fip": False, "cycle": [profiles[i] for i in naive_shortest_cycle(adj)]}
    else:
        report = {"fip": True, "longest_path": longest}
    report["pne"] = [a for a, out in zip(profiles, adj) if not out]
    pot = naive_potential_check(game, tol)
    res, w = pot.worst_residual, pot.witness
    report["potential"] = {
        "exists": pot.has_exact_potential,
        "residual": format_rational(res) if isinstance(res, Fraction) else repr(res),
        "witness": None if w is None else {
            "authors": list(w.authors),
            "topics_i": list(w.topics_i),
            "topics_j": list(w.topics_j),
            "base": list(w.base),
        },
    }
    return report


# ---------- closed-form potentials ----------

def harmonic(h):
    """H(h) = 1 + 1/2 + ... + 1/h, and H(0) = 0."""
    return sum((Fraction(1, k) for k in range(1, h + 1)), Fraction(0))


def rosenthal_potential(game, a):
    """Rosenthal's potential of a rand/exposure game, a singleton congestion
    game: the sum over topics t of D_t * H(h_t), h_t the writers on t. A
    single-author move changes it by exactly the mover's gain (Rosenthal,
    IJGT 2 (1973) 65-67; Monderer and Shapley, GEB 14 (1996) 124-143)."""
    return sum((d * harmonic(len(writers(game, t, a))) for t, d in enumerate(game.demand, 1)),
               Fraction(0))


# ---------- the suite's dynamics check ----------

def converge_per_start(game, max_steps=None):
    """(converged, worst) over the better-response runs from every start
    under RoundRobin() and FirstDeviator(), one run_dynamics call per run:
    whether every run converges, and the most steps a converged one takes."""
    worst = 0
    converged = True
    for init in rg.iter_profiles(game.n, game.m):
        for sched in (rg.RoundRobin(), rg.FirstDeviator()):
            outcome = rg.run_dynamics(game, init, sched, max_steps)
            if isinstance(outcome, rg.ConvergedPNE):
                worst = max(worst, outcome.steps_taken)
            else:
                converged = False
    return converged, worst
