"""Exhaustive game analysis over the full profile space.

Builds the directed graph of single-author strict improvements on all m^n
profiles, decides the finite improvement property (acyclicity) with a
shortest-cycle witness, enumerates pure Nash equilibria, measures the longest
improvement path, tests for an exact potential through the four-term
alternating condition on every 2x2 subgame, checks per-step bounds on
recorded trajectories, and reduces uniform-mediator exposure games to
top-rank games with all-ones quality.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import chain, compress, cycle, islice, repeat
from operator import add, and_, lt, sub

from .errors import (
    BudgetExceededError,
    CyclicGraphError,
    PreconditionError,
    TrajectoryError,
)
from .model import (
    ACTION,
    DEFAULT_BUDGET,
    EXPOSURE,
    Game,
    Profile,
    ProfileState,
    format_number,
    improves,
    make_game,
    profile_at,
    profile_index,
    profile_state,
    replace_topic,
    utility_vector,
    _utility_columns,
)
from .dynamics import Trajectory


def _check_budget(game: Game, budget: int):
    if game.m**game.n > budget:
        raise BudgetExceededError(
            f"{game.m}^{game.n} profiles exceed the enumeration budget {budget}"
        )


# ---------- improvement graph ----------

@dataclass
class ImprovementGraph:
    """Adjacency over canonically indexed profiles; edge a -> a' when one
    author strictly improves by switching to a'."""

    game: Game
    n_nodes: int
    adj: list[list[int]]
    margin: float = 0.0

    def profile_of(self, i: int) -> Profile:
        return profile_at(i, self.game.n, self.game.m)

    def index_of(self, a) -> int:
        return profile_index(tuple(a), self.game.m)

    def sinks(self) -> list[Profile]:
        """The pure Nash equilibria: the profiles without out-edges, in order."""
        return [self.profile_of(i) for i, out in enumerate(self.adj) if not out]


def improvement_graph(game: Game, budget: int = DEFAULT_BUDGET, margin: float = 0.0) -> ImprovementGraph:
    """The complete single-author strict-improvement graph."""
    _check_budget(game, budget)
    n, m = game.n, game.m
    size = m**n
    cols, lcd = _utility_columns(game)
    gain = lt  # at margin 0, improves(u0, u1) is u0 < u1 on ints and floats alike
    if margin:
        gain = partial(improves, margin=margin)
        if lcd is not None:
            cols = [[Fraction(u, lcd) for u in col] for col in cols]
    adj: list[list[int]] = [[] for _ in range(size)]
    # Author j moving d topics up moves the profile index by d * w. The
    # passes add the edges in the order that leaves every out-list sorted:
    # the moves down by author, then by topic, then the moves up by author
    # from the last, then by topic.
    passes = [(j, d, False) for j in range(n) for d in range(m - 1, 0, -1)]
    passes += [(j, d, True) for j in reversed(range(n)) for d in range(1, m)]
    for j, d, up in passes:
        col, w = cols[j], m ** (n - 1 - j)
        e = d * w
        # x and x + e share a line of author j when j's topic at x is at most m - d
        line = ([True] * ((m - d) * w) + [False] * e) * (size // (m * w))
        low, high = col, islice(col, e, None)
        sel = list(map(and_, line, map(gain, low, high) if up else map(gain, high, low)))
        tails, heads = (adj, range(e, size)) if up else (islice(adj, e, None), range(size))
        deque(map(list.append, compress(tails, sel), compress(heads, sel)), 0)
    return ImprovementGraph(game, size, adj, margin)


def _topological_order(adj: list[list[int]]) -> list[int] | None:
    """Kahn's algorithm: the nodes in a topological order, or None when the
    graph has a cycle."""
    n = len(adj)
    indeg = [0] * n
    for out in adj:
        for v in out:
            indeg[v] += 1
    queue = deque(i for i in range(n) if indeg[i] == 0)
    order = []
    while queue:
        u = queue.popleft()
        order.append(u)
        for v in adj[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
    return order if len(order) == n else None


def _is_acyclic(adj: list[list[int]]) -> bool:
    return _topological_order(adj) is not None


def _strongly_connected_components(adj: list[list[int]]) -> list[list[int]]:
    # iterative Tarjan
    n = len(adj)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            while pi < len(adj[v]):
                w = adj[v][pi]
                pi += 1
                if index[w] == -1:
                    work[-1] = (v, pi)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            if pi >= len(adj[v]):
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(w)
                        if w == v:
                            break
                    comps.append(comp)
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
    return comps


def shortest_cycle(graph: ImprovementGraph) -> list[Profile] | None:
    """A shortest directed cycle as a closed profile list, or None on a DAG.

    Deterministic: scans cycle start nodes in canonical index order and keeps
    the first cycle of minimal length.
    """
    adj = graph.adj
    comp_of = {}
    for comp in _strongly_connected_components(adj):
        if len(comp) > 1:
            for v in comp:
                comp_of[v] = id(comp)
    if not comp_of:
        return None
    best: list[int] | None = None
    for start in sorted(comp_of):
        if best is not None and len(best) - 1 <= 3:
            break  # strict improvement forbids 2-cycles, so 3 edges is minimal
        dist = {start: 0}
        parent = {}
        queue = deque([start])
        found = None
        while queue and found is None:
            u = queue.popleft()
            if best is not None and dist[u] + 1 >= len(best):
                continue
            for v in adj[u]:
                if comp_of.get(v) != comp_of[start]:
                    continue
                if v == start:
                    found = u
                    break
                if v not in dist:
                    dist[v] = dist[u] + 1
                    parent[v] = u
                    queue.append(v)
        if found is not None:
            cycle = [found]
            while cycle[-1] != start:
                cycle.append(parent[cycle[-1]])
            cycle.reverse()  # start .. found
            cycle.append(start)
            if best is None or len(cycle) < len(best):
                best = cycle
    assert best is not None
    return [graph.profile_of(i) for i in best]


def has_fip(game: Game, budget: int = DEFAULT_BUDGET, margin: float = 0.0):
    """(True, None) when the improvement graph is acyclic, else
    (False, witness) with a shortest improvement cycle, closed."""
    graph = improvement_graph(game, budget, margin)
    if _is_acyclic(graph.adj):
        return True, None
    return False, shortest_cycle(graph)


def enumerate_pne(game: Game, budget: int = DEFAULT_BUDGET, margin: float = 0.0) -> list[Profile]:
    """All pure Nash equilibria, in canonical profile order."""
    return improvement_graph(game, budget, margin).sinks()


def longest_improvement_path(graph: ImprovementGraph) -> int:
    """Edge count of the longest directed path; requires an acyclic graph."""
    adj = graph.adj
    topo = _topological_order(adj)
    if topo is None:
        raise CyclicGraphError("longest path is undefined on a cyclic graph")
    depth = [0] * len(adj)
    best = 0
    for u in topo:
        for v in adj[u]:
            if depth[u] + 1 > depth[v]:
                depth[v] = depth[u] + 1
                if depth[v] > best:
                    best = depth[v]
    return best


# ---------- exact potential ----------

@dataclass(frozen=True)
class PotentialWitness:
    """A 2x2 subgame: two authors, a strategy pair for each, and the fixed
    profile of everyone else (entries at the two authors are placeholders)."""

    authors: tuple[int, int]
    topics_i: tuple[int, int]
    topics_j: tuple[int, int]
    base: Profile


@dataclass(frozen=True)
class PotentialReport:
    has_exact_potential: bool
    worst_residual: object  # max |residual| over all 2x2 subgames
    witness: PotentialWitness | None


def potential_residual(game: Game, i: int, j: int, topics_i, topics_j, base) -> object:
    """Four-term alternating residual of one 2x2 subgame.

    With u = author i's utility, v = author j's, over the four profiles built
    from base by placing (s, t) for (i, j): u(s2,t1) - u(s1,t1) + v(s2,t2)
    - v(s2,t1) + u(s1,t2) - u(s2,t2) + v(s1,t1) - v(s1,t2). Zero for every
    subgame is equivalent to the existence of an exact potential.
    """
    if i == j:
        raise PreconditionError("need two distinct authors")
    s1, s2 = topics_i
    t1, t2 = topics_j
    base = tuple(base)

    def uv(s, t):
        a = replace_topic(replace_topic(base, i, s), j, t)
        vec = utility_vector(game, a)
        return vec[i - 1], vec[j - 1]

    u11, v11 = uv(s1, t1)
    u12, v12 = uv(s1, t2)
    u21, v21 = uv(s2, t1)
    u22, v22 = uv(s2, t2)
    return u21 - u11 + v22 - v21 + u12 - u22 + v11 - v12


def exact_potential_check(game: Game, budget: int = DEFAULT_BUDGET, tol: float = 1e-9) -> PotentialReport:
    """Evaluate the residual on every 2x2 subgame and report the worst.

    Exact zero test under prp/rand; |residual| <= tol under scoring. The
    scan reads the game's utility columns, pair of authors (i, j) by pair;
    under prp/rand they are ints over L and the worst residual is reported
    as a Fraction over L. The profiles of the other authors (rests) of a
    pair are one vector: under prp/rand the scan tests separability (with
    X = u_i - u_j and w_t = X[s2][t] - X[s1][t], the residual of
    (s1, s2) x (t1, t2) is w_t1 - w_t2, so the worst over the t-pairs is
    max(w) - min(w)); under scoring every residual is potential_residual's
    four-term float expression, in its order, so the result is
    bit-identical. The witness is the first subgame in the order pair,
    rest, (s1, s2), (t1, t2) that attains the worst residual.
    """
    _check_budget(game, budget)
    n, m = game.n, game.m
    exact = game.mediator.kind != "scoring"
    if n < 2 or m < 2:  # no 2x2 subgame
        return PotentialReport(True, Fraction(0) if exact else 0.0, None)
    cols, lcd = _utility_columns(game)
    pairs = [(s1, s2) for s1 in range(m - 1) for s2 in range(s1 + 1, m)]
    worst, witness = _scan_vectors(cols, n, m, pairs, exact)
    if exact:
        worst = Fraction(worst, lcd)
        return PotentialReport(worst == 0, worst, witness)
    return PotentialReport(worst <= tol, worst, witness)


def _scan_vectors(cols: list, n: int, m: int, pairs: list, exact: bool):
    """The worst |residual| and its witness, with all the rests and kinds of
    subgame of one or more author pairs as one vector."""
    # the kinds of subgame at one rest, in scan order: the s-pairs under
    # prp/rand (the t-pair of the witness is found at the end), else every
    # s-pair with every t-pair
    kinds = pairs if exact else [(sp, tp) for sp in pairs for tp in pairs]
    rests = m ** (n - 2)
    step = max(1, _CHUNK // (len(kinds) * m))  # rests per chunk
    # A pair's utilities are read in the order (topic of i, topic of j,
    # rest), where the block of (s, t) starts at (s * m + t) * rests. Per
    # kind, where the blocks of its corners start: (s2, t) and (s1, t) for
    # every t under prp/rand, else the corners in the residual's order.
    if exact:
        corners = [[(sp[k] * m + t) * rests for t in range(m) for sp in kinds] for k in (1, 0)]
    else:
        corners = [[(sp[s] * m + tp[t]) * rests for sp, tp in kinds]
                   for s, t in ((1, 0), (0, 0), (1, 1), (1, 0), (0, 1), (1, 1), (0, 0), (0, 1))]
    authors = [(i, j) for i in range(n - 1) for j in range(i + 1, n)]

    def gather(i, j):  # X = u - v, or u and v, in the order above
        wi, wj = m ** (n - 1 - i), m ** (n - 1 - j)
        starts = [0]  # the rests' profiles, i and j on topic 1, in canonical order
        for k in range(n):
            if k != i and k != j:
                starts = [b + t for b in starts for t in range(0, m ** (n - k), m ** (n - 1 - k))]
        blocks = [s * wi + t * wj for s in range(m) for t in range(m)]
        order = list(map(add, chain.from_iterable(map(repeat, blocks, repeat(rests))), cycle(starts)))
        u, v = (map(cols[k].__getitem__, order) for k in (i, j))
        return [list(map(sub, u, v))] if exact else [list(u), list(v)]

    worst, at = (0 if exact else 0.0), None
    # a chunk is a run of rests of one pair, or of whole pairs if one fits
    per = max(1, step // rests)
    for g0 in range(0, len(authors), per):
        group = [gather(i, j) for i, j in authors[g0:g0 + per]]
        for r0 in range(0, rests, step):
            r1 = min(rests, r0 + step)
            if exact:
                # w_t = X[s2][t] - X[s1][t], t by t over the kinds, pairs and
                # rests; per kind, pair and rest, max(w) - min(w)
                w = list(map(sub, *(_by_kind(group, 0, c, r0, r1) for c in corners)))
                w = [w[t * len(w) // m:(t + 1) * len(w) // m] for t in range(m)]
                res = list(map(sub, map(max, *w), map(min, *w)))
            else:
                # potential_residual's terms, in its order:
                # u21 - u11 + v22 - v21 + u12 - u22 + v11 - v12
                terms = (_by_kind(group, g, c, r0, r1) for g, c in zip((0, 0, 1, 1, 0, 0, 1, 1), corners))
                res = next(terms)
                for op, term in zip(cycle((sub, add)), terms):
                    res = map(op, res, term)
                res = list(map(abs, res))
            top = max(res)
            if top > worst:
                # res runs kind by kind over the chunk's pairs and rests, the
                # scan pair by pair, rest by rest, then kind by kind
                worst, rc = top, r1 - r0
                span = len(group) * rc
                (p, r), k = min((divmod(res.index(top, k * span, k * span + span) - k * span, rc), k)
                                for k in range(len(kinds)) if top in res[k * span:k * span + span])
                at = (*authors[g0 + p], r0 + r, k)
    witness = None
    if at is not None:
        i, j, r, k = at
        base = list(profile_at(r, n - 2, m))
        base.insert(i, 1)
        base.insert(j, 1)
        if exact:  # the s-pair's first t-pair with |w_t1 - w_t2| = worst
            (s1, s2), b0 = kinds[k], profile_index(base, m)
            wi, wj = m ** (n - 1 - i), m ** (n - 1 - j)
            x = [[cols[i][y] - cols[j][y] for y in range(b0 + s * wi, b0 + s * wi + m * wj, wj)]
                 for s in (s1, s2)]
            t1, t2 = next((t1, t2) for t1, t2 in pairs
                          if abs(x[1][t1] - x[0][t1] - x[1][t2] + x[0][t2]) == worst)
        else:
            (s1, s2), (t1, t2) = kinds[k]
        witness = PotentialWitness((i + 1, j + 1), (s1 + 1, s2 + 1), (t1 + 1, t2 + 1), tuple(base))
    return worst, witness


# entries per vector of the potential scan, which takes the rests in chunks
_CHUNK = 1 << 14


def _by_kind(group: list, g: int, blocks: list[int], r0: int, r1: int) -> list:
    """Rests r0..r1 of the block starting at each kind's entry of blocks, in
    the g-th gathered column of each pair of the group: kind by kind, pair
    by pair."""
    return list(chain.from_iterable(cs[g][b + r0:b + r1] for b in blocks for cs in group))


# ---------- path invariants ----------

@dataclass(frozen=True)
class PathStatistics:
    """Per-profile top-quality/top-count tables along a trajectory, with the
    per-topic minimum top count and maximum top quality over the whole path."""

    top_quality_rows: tuple[tuple[Fraction, ...], ...]
    top_count_rows: tuple[tuple[int, ...], ...]
    min_top_count: tuple[int, ...]
    max_top_quality: tuple[Fraction, ...]


@dataclass(frozen=True)
class StepCheck:
    index: int
    mover_quality_at_top: bool  # mover's quality reaches the pre-step top
    bound: str  # "pass", "fail", or "n/a" when the mover strictly exceeds the top


@dataclass(frozen=True)
class PathInvariantReport:
    statistics: PathStatistics
    checks: tuple[StepCheck, ...]

    @property
    def failures(self) -> int:
        return sum(
            1
            for c in self.checks
            if not c.mover_quality_at_top or c.bound == "fail"
        )


def path_invariant_report(game: Game, t: Trajectory) -> PathInvariantReport:
    """Check each step of a top-rank-mediator trajectory.

    Per step with target topic k: the mover's quality on k must reach the
    pre-step top quality, and whenever it does not strictly exceed it, the
    post-step utility must obey demand(k)/(min top count + 1), times the path
    maximum of k's top quality under the action scheme.
    Everything is read from the visited profiles' kernel states; their top
    quality keys become qualities only in the statistics.
    """
    if game.mediator.kind != "prp":
        raise PreconditionError("path invariants apply to top-rank (prp) mediated games")
    states = _replay(game, t)
    qkey = states[0].kernel.qkey
    # per topic: top quality key -> quality; an empty topic's key -1 reads as 0
    quality_of = [
        dict(zip((-1, *keys), (Fraction(0), *qs)))
        for keys, qs in zip(zip(*qkey), zip(*game.quality))
    ]
    h_rows = tuple(tuple(s.ties) for s in states)
    min_h = tuple(map(min, zip(*h_rows)))
    max_key = [max(col) for col in zip(*(s.top for s in states))]
    stats = PathStatistics(
        tuple(tuple(q[b] for q, b in zip(quality_of, s.top)) for s in states),
        h_rows,
        min_h,
        tuple(q[b] for q, b in zip(quality_of, max_key)),
    )

    checks = []
    for r, s in enumerate(t.steps):
        k = s.to_topic - 1
        key = qkey[s.mover - 1][k]
        # quality 0 has key 0, so an empty topic (key -1) compares as quality 0
        top = max(states[r].top[k], 0)
        if key > top:
            bound = "n/a"
        else:
            cap = game.demand[k] / (min_h[k] + 1)
            if game.scheme == ACTION:
                cap = cap * stats.max_top_quality[k]
            # prp utilities are exact rationals, so the comparison is exact
            u_after = states[r + 1].utility(s.mover, s.to_topic)
            bound = "pass" if u_after <= cap else "fail"
        checks.append(StepCheck(s.index, key >= top, bound))
    return PathInvariantReport(stats, tuple(checks))


def _replay(game: Game, t: Trajectory) -> list[ProfileState]:
    """Validate a trajectory against the game and return the kernel state of
    each visited profile, initial to terminal."""
    walk = t.walk()
    a = next(walk)
    if len(a) != game.n or any(type(x) is not int or not 1 <= x <= game.m for x in a):
        raise TrajectoryError("initial profile does not fit the game")
    states = [profile_state(game, a)]
    for s in t.steps:
        before = states[-1]
        if type(s.mover) is not int or not 1 <= s.mover <= game.n:
            raise TrajectoryError(f"step {s.index}: invalid mover {s.mover}")
        if before.a[s.mover - 1] != s.from_topic:
            raise TrajectoryError(f"step {s.index}: from_topic does not match the profile")
        if type(s.to_topic) is not int or not 1 <= s.to_topic <= game.m:
            raise TrajectoryError(f"step {s.index}: invalid topic {s.to_topic}")
        u0 = before.utility(s.mover, s.from_topic)
        u1 = before.utility(s.mover, s.to_topic)
        if not improves(u0, u1):
            raise TrajectoryError(f"step {s.index}: not a strict improvement in this game")
        if s.utility_before != u0 or s.utility_after != u1:
            raise TrajectoryError(f"step {s.index}: recorded utilities do not match the game")
        # the profile after a step is built only once the step has passed
        states.append(profile_state(game, next(walk)))
    if states[-1].a != tuple(t.terminal):
        raise TrajectoryError("terminal profile does not match the replayed steps")
    return states


# ---------- uniform-mediator reduction ----------

def rand_to_prp_reduction(game: Game) -> Game:
    """Rewrite a rand/exposure game as a prp game with all-ones quality.

    Every writer then ties at the top, so the tie split reproduces the
    uniform mediator's probabilities and utilities agree on every profile.
    """
    if game.mediator.kind != "rand":
        raise PreconditionError("reduction applies to the uniform (rand) mediator")
    if game.scheme != EXPOSURE:
        raise PreconditionError("reduction applies to the exposure scheme")
    ones = [[1] * game.m for _ in range(game.n)]
    return make_game(game.demand, ones, scheme=EXPOSURE)


# ---------- report serialization ----------

def analysis_report(
    game: Game,
    budget: int = DEFAULT_BUDGET,
    margin: float = 0.0,
    tol: float = 1e-9,
) -> dict:
    """Full analysis as a JSON-ready dict: fip (+ cycle witness), pne list,
    longest path (acyclic case), and the exact-potential report."""
    graph = improvement_graph(game, budget, margin)
    # one topological sort per graph: it fails only on a cyclic one
    try:
        report: dict = {"fip": True, "longest_path": longest_improvement_path(graph)}
    except CyclicGraphError:
        report = {"fip": False, "cycle": [list(p) for p in shortest_cycle(graph)]}
    report["pne"] = [list(a) for a in graph.sinks()]
    pot = exact_potential_check(game, budget, tol)
    witness = None
    if pot.witness is not None:
        witness = {
            "authors": list(pot.witness.authors),
            "topics_i": list(pot.witness.topics_i),
            "topics_j": list(pot.witness.topics_j),
            "base": list(pot.witness.base),
        }
    report["potential"] = {
        "exists": pot.has_exact_potential,
        "residual": format_number(pot.worst_residual),
        "witness": witness,
    }
    return report
