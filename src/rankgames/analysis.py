"""Exhaustive game analysis over the full profile space.

Builds the directed graph of single-author strict improvements on all m^n
profiles, decides the finite improvement property (acyclicity) with a
shortest-cycle witness, enumerates pure Nash equilibria, measures the longest
improvement path, tests for an exact potential by the separability of
every 2x2 subgame, checks per-step bounds on recorded trajectories, and
reduces uniform-mediator exposure games to top-rank games with all-ones
quality. The suite's check of every start (_converge_on_graph) builds no
kernel state: it reads each run off the improvement graph of the game's
analysis, whose out-lists improvement_graph leaves sorted.

The module owns the profile space: its canonical order, author 1 most
significant (iter_profiles, profile_index, profile_at), and the per-game
writer-set table (_writer_set_table), built from the kernel's aggregates
once _check_budget has passed, from which the graph and the potential scan
read every utility.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from itertools import chain, combinations, compress, islice, product, repeat
from operator import add, and_, getitem, or_, sub

from .errors import (
    BudgetExceededError,
    CyclicGraphError,
    PreconditionError,
    TrajectoryError,
    ValidationError,
)
from .model import (
    ACTION,
    DEFAULT_BUDGET,
    EXPOSURE,
    Game,
    Profile,
    check_tolerance,
    format_number,
    make_game,
    profile_state,
    replace_topic,
    utility_vector,
    _Kernel,
    _Record,
    _gain,
    _set,
)
from .dynamics import Trajectory

_ZERO = Fraction(0)


def _check_budget(game: Game, budget: int):
    if budget < 1:
        raise ValidationError(f"the enumeration budget must be at least 1, got {budget}")
    if game.m**game.n > budget:
        raise BudgetExceededError(
            f"{game.m}^{game.n} profiles exceed the enumeration budget {budget}"
        )


# ---------- the profile space ----------

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


def _writer_set_table(game: Game) -> tuple[list, int | None]:
    """(by_set, S), built once per game: by_set[t][j][W] is author j+1's
    utility on topic t+1 when the authors in bit mask W (bit j for author
    j+1) write on it, the kernel's int, the utility times S = kernel.scale,
    under prp/rand and its float under scoring, where S is None. Only
    callers that have checked the enumeration budget may ask for it."""
    store = game._cache.get("writer_sets")
    if store is None:
        n, m = game.n, game.m
        kernel = profile_state(game, (1,) * n).kernel
        by_set = [[[None] * (1 << n) for _ in range(n)] for _ in range(m)]
        full = (1 << n) - 1
        # the state with W on topic t and the rest on the next gives two topics' entries
        for t in range(1, m + 1, 2):
            for W in range(1 << n):
                a = tuple(t if W >> j & 1 else t % m + 1 for j in range(n))
                state = kernel.state_class(kernel, a)
                for j, k in enumerate(a):
                    by_set[k - 1][j][W if k == t else full ^ W] = state.utility(j + 1, k)
        store = game._cache["writer_sets"] = (by_set, kernel.scale)
    return store


def _topic_masks(n: int, m: int, t: int, base: int = 0) -> list[int]:
    """base | the bit mask of the writers on topic t+1 (bit j for author j+1)
    at every profile of n authors, in canonical order."""
    mask = [base]
    for j in reversed(range(n)):
        mask = mask * t + list(map(or_, mask, repeat(1 << j))) + mask * (m - 1 - t)
    return mask


# ---------- improvement graph ----------

class ImprovementGraph(_Record):
    """Adjacency over canonically indexed profiles; edge a -> a' when one
    author strictly improves by switching to a'. Mutable, so unhashable."""

    __match_args__ = __slots__ = ("game", "n_nodes", "adj", "margin")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, game: Game, n_nodes: int, adj: list[list[int]], margin: float = 0.0):
        self.game = game
        self.n_nodes = n_nodes
        self.adj = adj
        self.margin = margin

    def profile_of(self, i: int) -> Profile:
        return profile_at(i, self.game.n, self.game.m)

    def index_of(self, a) -> int:
        return profile_index(tuple(a), self.game.m)

    def sinks(self) -> list[Profile]:
        """The pure Nash equilibria: the profiles without out-edges, in order."""
        return [self.profile_of(i) for i, out in enumerate(self.adj) if not out]


def improvement_graph(game: Game, budget: int = DEFAULT_BUDGET, margin: float = 0.0) -> ImprovementGraph:
    """The complete single-author strict-improvement graph."""
    check_tolerance(margin)
    _check_budget(game, budget)
    n, m = game.n, game.m
    size = m**n
    by_set, _ = _writer_set_table(game)
    # cols[j][x]: author j+1's utility at profile x, the table's entry for
    # j+1's topic and its writers at x; m^n * n entries, cached nowhere.
    # at[x][t]: t << n | the writers on topic t+1 at profile x
    at = list(zip(*(_topic_masks(n, m, t, t << n) for t in range(m))))
    cols = []
    for j in range(n):
        # author j+1's topic at every profile, and j+1's entries keyed as in at
        w = m ** (n - 1 - j)
        topic = list(chain.from_iterable([t] * w for t in range(m))) * m**j
        look = list(chain.from_iterable(by_set[t][j] for t in range(m))).__getitem__
        cols.append(list(map(look, map(tuple.__getitem__, at, topic))))
    del at, topic, look  # m^n tuples and lists, freed before the adjacency grows
    better = _gain(profile_state(game, (1,) * n).kernel, margin)
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
        sel = list(map(and_, line, map(better, high, low) if up else map(better, low, high)))
        tails, heads = (adj, range(e, size)) if up else (islice(adj, e, None), range(size))
        deque(map(list.append, compress(tails, sel), compress(heads, sel)), 0)
    return ImprovementGraph(game, size, adj, margin)


def _longest_path(adj: list[list[int]]) -> int | None:
    """Kahn's algorithm, relaxing each node's successors as it is popped:
    the edge count of the longest path, or None when the graph has a cycle."""
    n = len(adj)
    indeg = [0] * n
    for out in adj:
        for v in out:
            indeg[v] += 1
    stack = [i for i in range(n) if not indeg[i]]
    depth = [0] * n
    popped = 0
    while stack:
        u = stack.pop()
        popped += 1
        d = depth[u] + 1
        for v in adj[u]:
            if depth[v] < d:
                depth[v] = d
            indeg[v] -= 1
            if not indeg[v]:
                stack.append(v)
    return max(depth, default=0) if popped == n else None


def _is_acyclic(adj: list[list[int]]) -> bool:
    return _longest_path(adj) is not None


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
    best = _longest_path(graph.adj)
    if best is None:
        raise CyclicGraphError("longest path is undefined on a cyclic graph")
    return best


# ---------- every start at once ----------

def _converge_on_graph(graph, fip: bool, max_steps: int) -> tuple[bool, int]:
    """(converged, worst) over the better-response runs at margin 0 from
    every start under RoundRobin() and FirstDeviator(): whether all of them
    converge within max_steps, and the most steps a converged one takes.

    The runs are read off the game's improvement graph at margin 0, graph,
    whose acyclicity is fip; no kernel state is built. Author j's moves at
    profile x go to x + (t - a_j) * m**(n-j), which rises with t, and
    improvement_graph leaves the out-lists sorted, so author j's
    lowest-index better response is the first out-edge of x that changes
    digit j. A run's state is its profile and the next round-robin
    position, always 0 for the first deviator. On an acyclic graph no run
    revisits a profile, so the steps still to go depend only on that
    state, and one memo per scheduler gives every start in one pass. On a
    cyclic graph a repeat is keyed by profile, not by run state, so each
    start is walked on its own with the profiles it has seen.
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


# ---------- exact potential ----------

class PotentialWitness(_Record):
    """A 2x2 subgame: two authors, a strategy pair for each, and the fixed
    profile of everyone else (entries at the two authors are placeholders)."""

    __match_args__ = __slots__ = ("authors", "topics_i", "topics_j", "base")

    def __init__(self, authors: tuple[int, int], topics_i: tuple[int, int],
                 topics_j: tuple[int, int], base: Profile):
        _set(self, "authors", authors)
        _set(self, "topics_i", topics_i)
        _set(self, "topics_j", topics_j)
        _set(self, "base", base)


class PotentialReport(_Record):
    """worst_residual is the max |residual| over all 2x2 subgames."""

    __match_args__ = __slots__ = ("has_exact_potential", "worst_residual", "witness")

    def __init__(self, has_exact_potential: bool, worst_residual: object,
                 witness: PotentialWitness | None):
        _set(self, "has_exact_potential", has_exact_potential)
        _set(self, "worst_residual", worst_residual)
        _set(self, "witness", witness)


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
    """Test every 2x2 subgame for separability and report the worst residual.

    An exact potential exists iff every 2x2 subgame is separable (Monderer
    and Shapley, 1996). For authors i, j and a rest (the others' profile),
    the residual of (s1, s2) x (t1, t2) is v_t1 - v_t2, with v_s1 = e(s1),
    v_s2 = -e(s2), v = 0 elsewhere and e(s) = (u_j(W+i+j) - u_j(W+j)) -
    (u_i(W+i+j) - u_i(W+i)), W the rest's writers on s; the README derives
    it. So the scan reads e off the writer-set table, never the columns.
    Under prp/rand the table holds ints over the kernel's scale S: the test
    is exact and the worst residual is a Fraction over S. Under scoring it
    holds floats, the worst is a float and a potential is reported when it
    is at most tol; it can differ in the last bits from potential_residual
    at the witness. The witness is the first subgame in the order pair,
    rest, (s1, s2), (t1, t2) that attains the worst residual.
    """
    check_tolerance(tol, "tol")
    _check_budget(game, budget)
    n, m = game.n, game.m
    exact = game.mediator.kind != "scoring"
    if n < 2 or m < 2:  # no 2x2 subgame
        return PotentialReport(True, _ZERO if exact else 0.0, None)
    by_set, scale = _writer_set_table(game)
    worst, at = 0, None
    for i, j in combinations(range(n), 2):
        # e[s][W] for the masks W without i and j, ascending: bit k of
        # the index W stands for the k-th author other than i and j
        bi, bj = 1 << i, 1 << j
        W = [x for x in range(1 << n) if not x & (bi | bj)]
        wi, wj, wij = ([x | b for x in W] for b in (bi, bj, bi | bj))
        e = [list(map(sub, map(sub, map(u[j].__getitem__, wij), map(u[j].__getitem__, wj)),
                      map(sub, map(u[i].__getitem__, wij), map(u[i].__getitem__, wi))))
             for u in by_set]
        if m == 2:  # the writers on topic 2 are the rest's complement
            top = max(map(abs, map(add, e[0], reversed(e[1]))))
        else:
            big, small = sorted(map(max, e)), sorted(map(min, e))
            top = max(big[-1], -small[0])  # max |e|
            # a sum over disjoint W1, W2 is at most the sum of two topics'
            # extremes: when that cannot beat top or worst, skip the sums
            if max(big[-1] + big[-2], -(small[0] + small[1])) > max(top, worst):
                hi = [_over_subsets(max, x) for x in e[:-1]]
                lo = [_over_subsets(min, x) for x in e[:-1]]
                for s1, s2 in combinations(range(m), 2):
                    # e(s2, W2) plus the max and the min over W1 within its complement
                    top = max(top, max(map(add, e[s2], reversed(hi[s1]))),
                              -min(map(add, e[s2], reversed(lo[s1]))))
        if top > worst:
            worst, at = top, (i, j, e)
    witness = None if at is None else _first_worst_subgame(*at, worst, n, m)
    if exact:
        worst = Fraction(worst, scale)
        return PotentialReport(worst == 0, worst, witness)
    return PotentialReport(worst <= tol, float(worst), witness)


def _over_subsets(f, x: list) -> list:
    """y[W] = f over x[V] for every subset V of W. Each round folds the top
    bit and then rotates every index's bits left by one."""
    size = len(x)
    half, rot = size >> 1, [*range(0, size, 2), *range(1, size, 2)]
    for _ in range(size.bit_length() - 1):
        x = x[:half] + list(map(f, x[half:], x[:half]))
        x = list(map(x.__getitem__, rot))
    return x


def _first_worst_subgame(i: int, j: int, e: list, worst, n: int, m: int) -> PotentialWitness:
    """The first subgame of pair (i, j) in the order rest, (s1, s2), (t1, t2)
    whose |v_t1 - v_t2| is worst, with v from the rest's e terms."""
    # x[s][r]: e(s, W) for W the writers on s at rest r
    x = [list(map(e[s].__getitem__, _topic_masks(n - 2, m, s))) for s in range(m)]
    pairs = list(combinations(range(m), 2))
    first = []  # per s-pair that attains the worst: the first rest where it does
    for s1, s2 in pairs:
        res = map(abs, map(add, x[s1], x[s2]))  # |v_s1 - v_s2|
        if m > 2:  # and |v_s1 - 0|, |0 - v_s2|
            res = map(max, map(abs, x[s1]), map(abs, x[s2]), res)
        res = list(res)
        if worst in res:
            first.append((res.index(worst), s1, s2))
    r, s1, s2 = min(first)
    v = [0] * m
    v[s1], v[s2] = x[s1][r], -x[s2][r]
    t1, t2 = next((t1, t2) for t1, t2 in pairs if abs(v[t1] - v[t2]) == worst)
    base = list(profile_at(r, n - 2, m))
    base.insert(i, 1)
    base.insert(j, 1)
    return PotentialWitness((i + 1, j + 1), (s1 + 1, s2 + 1), (t1 + 1, t2 + 1), tuple(base))


# ---------- path invariants ----------

class PathStatistics(_Record):
    """Per-profile top-quality/top-count tables along a trajectory, with the
    per-topic minimum top count and maximum top quality over the whole path."""

    __match_args__ = __slots__ = (
        "top_quality_rows", "top_count_rows", "min_top_count", "max_top_quality"
    )

    def __init__(self, top_quality_rows: tuple[tuple[Fraction, ...], ...],
                 top_count_rows: tuple[tuple[int, ...], ...],
                 min_top_count: tuple[int, ...], max_top_quality: tuple[Fraction, ...]):
        _set(self, "top_quality_rows", top_quality_rows)
        _set(self, "top_count_rows", top_count_rows)
        _set(self, "min_top_count", min_top_count)
        _set(self, "max_top_quality", max_top_quality)


class StepCheck(_Record):
    """mover_quality_at_top: the mover's quality reaches the pre-step top.
    bound: "pass", "fail", or "n/a" when the mover strictly exceeds the top."""

    __match_args__ = __slots__ = ("index", "mover_quality_at_top", "bound")

    def __init__(self, index: int, mover_quality_at_top: bool, bound: str):
        _set(self, "index", index)
        _set(self, "mover_quality_at_top", mover_quality_at_top)
        _set(self, "bound", bound)


class PathInvariantReport(_Record):
    __match_args__ = __slots__ = ("statistics", "checks")

    def __init__(self, statistics: PathStatistics, checks: tuple[StepCheck, ...]):
        _set(self, "statistics", statistics)
        _set(self, "checks", checks)

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
    No trajectory that _replay accepts can fail these checks: a mover below
    k's pre-step top earns 0 there, which is no strict gain, and one at the
    top gets D_k/h_after (times its quality, at most the path's top) with
    h_after >= min top count + 1. So the report restates the bounds.
    Everything is read from one kernel state, moved along the trajectory:
    each visited profile's top quality keys and tie counts, and each mover's
    post-step utility as an int over the game's scale. The caps are compared
    with that int by cross-multiplying, and the top quality keys become
    qualities only in the statistics.
    """
    if game.mediator.kind != "prp":
        raise PreconditionError("path invariants apply to top-rank (prp) mediated games")
    kernel, tops, ties, afters = _replay(game, t)
    quality_of = kernel.top_qualities()
    h_rows = tuple(ties)
    min_h = tuple(map(min, zip(*h_rows)))
    max_key = [max(col) for col in zip(*tops)]
    stats = PathStatistics(
        tuple(tuple(map(getitem, quality_of, top)) for top in tops),
        h_rows,
        min_h,
        tuple(map(getitem, quality_of, max_key)),
    )

    checks = []
    for r, s in enumerate(t.steps):
        k = s.to_topic - 1
        key = kernel.qkey[s.mover - 1][k]
        # quality 0 has key 0, so an empty topic (key -1) compares as quality 0
        top = max(tops[r][k], 0)
        if key > top:
            bound = "n/a"
        else:
            # u/S <= D_k/(min h + 1) [* key/Q_k], both sides times the
            # denominators; the mover is on k, so its path top key is >= 0
            cap = kernel.demand_num[k] * kernel.scale
            den = kernel.demand_den * (min_h[k] + 1)
            if game.scheme == ACTION:
                cap *= max_key[k]
                den *= kernel.quality_den[k]
            bound = "pass" if afters[r] * den <= cap else "fail"
        checks.append(StepCheck(s.index, key >= top, bound))
    return PathInvariantReport(stats, tuple(checks))


def _replay(game: Game, t: Trajectory) -> tuple[_Kernel, list, list, list[int]]:
    """Validate a top-rank trajectory against the game, moving one kernel
    state along it. Returns the kernel, each visited profile's per-topic top
    quality keys and tie counts as tuples, initial to terminal, and each
    step's post-step mover utility in kernel units."""
    a = tuple(t.initial)
    if len(a) != game.n or any(type(x) is not int or not 1 <= x <= game.m for x in a):
        raise TrajectoryError("initial profile does not fit the game")
    state = profile_state(game, a)
    value = state.kernel.value
    tops, ties, afters = [tuple(state.top)], [tuple(state.ties)], []
    for s in t.steps:
        if type(s.mover) is not int or not 1 <= s.mover <= game.n:
            raise TrajectoryError(f"step {s.index}: invalid mover {s.mover}")
        if state.a[s.mover - 1] != s.from_topic:
            raise TrajectoryError(f"step {s.index}: from_topic does not match the profile")
        if type(s.to_topic) is not int or not 1 <= s.to_topic <= game.m:
            raise TrajectoryError(f"step {s.index}: invalid topic {s.to_topic}")
        u0 = state.utility(s.mover, s.from_topic)
        u1 = state.utility(s.mover, s.to_topic)
        if not u1 > u0:
            raise TrajectoryError(f"step {s.index}: not a strict improvement in this game")
        # kernel.value hands out one Fraction per utility, which run_dynamics
        # recorded, so identity decides most comparisons
        x0, x1 = value(u0), value(u1)
        if not ((s.utility_before is x0 or s.utility_before == x0)
                and (s.utility_after is x1 or s.utility_after == x1)):
            raise TrajectoryError(f"step {s.index}: recorded utilities do not match the game")
        # the state moves only once the step has passed; the mover's
        # deviation utility u1 is her utility at the profile after it
        state.move(s.mover, s.to_topic)
        tops.append(tuple(state.top))
        ties.append(tuple(state.ties))
        afters.append(u1)
    if state.a != tuple(t.terminal):
        raise TrajectoryError("terminal profile does not match the replayed steps")
    return state.kernel, tops, ties, afters


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
    return _analysis(game, budget, margin, tol)[0]


def _analysis(game: Game, budget: int = DEFAULT_BUDGET, margin: float = 0.0,
              tol: float = 1e-9) -> tuple[dict, ImprovementGraph]:
    """analysis_report's dict and the improvement graph it was read from."""
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
    return report, graph
