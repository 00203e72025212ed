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

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

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
    iter_profiles,
    make_game,
    profile_at,
    profile_index,
    profile_state,
    replace_topic,
    utility_vector,
    _utility_table,
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
    table = _utility_table(game)
    # moving author j by one topic moves the profile index by m^(n-j)
    strides = [m ** (n - j) for j in range(1, n + 1)]
    adj: list[list[int]] = []
    for i, a in enumerate(iter_profiles(n, m)):
        u = table[i]
        out = []
        for j in range(n):
            u0 = u[j]
            w = strides[j]
            first = i - (a[j] - 1) * w  # author j on topic 1
            for t in range(m):
                b = first + t * w
                if b != i and improves(u0, table[b][j], margin):
                    out.append(b)
        out.sort()
        adj.append(out)
    return ImprovementGraph(game, m**n, adj, margin)


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

    Exact zero test under prp/rand; |residual| <= tol under scoring. Each
    subgame's residual is potential_residual's four-term expression, read
    from the game's utility table. Under prp/rand the table is first scaled
    to integers over the lcm L of its denominators, so the residuals are
    integer sums and the worst one is reported as a Fraction over L.
    """
    _check_budget(game, budget)
    n, m = game.n, game.m
    exact = game.mediator.kind != "scoring"
    if n < 2 or m < 2:  # no 2x2 subgame
        return PotentialReport(True, Fraction(0) if exact else 0.0, None)
    worst = 0 if exact else 0.0
    witness = None
    # cols[k][x]: author k+1's utility at the profile of index x
    cols = list(zip(*_utility_table(game)))
    if exact:
        lcd = math.lcm(*{u.denominator for col in cols for u in col})
        cols = [[u.numerator * (lcd // u.denominator) for u in col] for col in cols]
    strides = [m ** (n - j) for j in range(1, n + 1)]
    pairs = [(s1, s2) for s1 in range(m - 1) for s2 in range(s1 + 1, m)]
    others_profiles = list(iter_profiles(n - 2, m))
    for i in range(1, n):
        wi = strides[i - 1]
        for j in range(i + 1, n + 1):
            wj = strides[j - 1]
            ci, cj = cols[i - 1], cols[j - 1]
            span = (m - 1) * wj + 1
            rest_idx = [r for r in range(1, n + 1) if r not in (i, j)]
            for rest in others_profiles:
                base = [1] * n
                for r, t in zip(rest_idx, rest):
                    base[r - 1] = t
                base = tuple(base)
                b0 = profile_index(base, m)
                # the subgame's m x m blocks: u[s][t] and v[s][t] are i's and
                # j's utilities with i on topic s+1 and j on topic t+1
                starts = [b0 + s * wi for s in range(m)]
                u = [ci[x:x + span:wj] for x in starts]
                v = [cj[x:x + span:wj] for x in starts]
                for s1, s2 in pairs:
                    u1, u2, v1, v2 = u[s1], u[s2], v[s1], v[s2]
                    for t1, t2 in pairs:
                        # potential_residual's terms, in its order
                        res = (u2[t1] - u1[t1] + v2[t2] - v2[t1]
                               + u1[t2] - u2[t2] + v1[t1] - v1[t2])
                        if abs(res) > worst:
                            worst = abs(res)
                            witness = PotentialWitness(
                                (i, j), (s1 + 1, s2 + 1), (t1 + 1, t2 + 1), base
                            )
    if exact:
        worst = Fraction(worst, lcd)
        return PotentialReport(worst == 0, worst, witness)
    return PotentialReport(worst <= tol, worst, witness)


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
    a = tuple(t.initial)
    if len(a) != game.n or any(type(x) is not int or not 1 <= x <= game.m for x in a):
        raise TrajectoryError("initial profile does not fit the game")
    states = [profile_state(game, a)]
    for s in t.steps:
        if type(s.mover) is not int or not 1 <= s.mover <= game.n:
            raise TrajectoryError(f"step {s.index}: invalid mover {s.mover}")
        if a[s.mover - 1] != s.from_topic:
            raise TrajectoryError(f"step {s.index}: from_topic does not match the profile")
        if type(s.to_topic) is not int or not 1 <= s.to_topic <= game.m:
            raise TrajectoryError(f"step {s.index}: invalid topic {s.to_topic}")
        u0 = states[-1].utility(s.mover, s.from_topic)
        u1 = states[-1].utility(s.mover, s.to_topic)
        if not improves(u0, u1):
            raise TrajectoryError(f"step {s.index}: not a strict improvement in this game")
        if s.utility_before != u0 or s.utility_after != u1:
            raise TrajectoryError(f"step {s.index}: recorded utilities do not match the game")
        a = replace_topic(a, s.mover, s.to_topic)
        states.append(profile_state(game, a))
    if a != tuple(t.terminal):
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
