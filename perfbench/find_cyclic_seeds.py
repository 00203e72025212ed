"""Print generator seeds for the analyze workload's cyclic scoring game.

The analyze workload needs a 7-author, 3-topic power(2)/exposure scoring
game whose improvement graph has a cycle. About one seed in six gives one,
and testing a seed costs a full improvement graph, so searching at set-up
would make set-up time depend on luck. The workload instead draws from the
pool this script prints, kept in workloads.CYCLIC_SCORING_SEEDS.

A seed qualifies when the game's shortest improvement cycle gains at every
step by a relative margin of at least 1e-6, so that no tolerance policy
near float rounding can make the cycle disappear.

    python3 perfbench/find_cyclic_seeds.py [count]
"""

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import rankgames as rg  # noqa: E402

N, M = 7, 3
ROBUST_MARGIN = 1e-6


def cyclic_game(seed):
    return rg.generate_random_game(
        seed, N, M, mediator=rg.Mediator.scoring(rg.ScoreFunction.power(2.0))
    )


def main(count: int) -> None:
    rng = random.Random(0)
    found = []
    while len(found) < count:
        seed = rng.randrange(2**32)
        game = cyclic_game(seed)
        fip, cycle = rg.has_fip(game)
        if fip:
            continue
        ok, _ = rg.verify_improvement_cycle(game, cycle, margin=ROBUST_MARGIN)
        if ok:
            found.append(seed)
    print(", ".join(str(s) for s in found))


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 32)
