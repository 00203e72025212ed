"""Direct definitions of the model, kept as the tests' reference.

The library computes every utility with its deviation kernel; these
functions follow the model's definitions instead, writer by writer, and
the tests check the kernel and the path invariants against them.
"""

from fractions import Fraction


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
