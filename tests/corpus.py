"""The random corpus ``corpus:{seed}`` that criterion 01 runs.

Run ``i`` draws its shape from one master generator and uses graph seed
``i`` and coin seed ``i``.
"""

import random

from dispersim.graph import gen_random_connected


def corpus_instances(seed: int = 0, runs: int = 200):
    """Yield ``(i, n, m, k, root, graph)`` for each run of the corpus."""
    master = random.Random(f"corpus:{seed}")
    for i in range(runs):
        n = master.randint(4, 64)
        m = master.randint(n - 1, n * (n - 1) // 2)
        k = master.randint(1, n)
        root = master.randrange(n)
        yield i, n, m, k, root, gen_random_connected(n, m, seed=i)
