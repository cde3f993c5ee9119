"""E15 (extension): deployment modes — local DP and continual release.

Two deployment questions around the paper's trusted-curator model:

* **remove the curator** (local DP): per-record randomization (k-RR,
  unary encoding) vs the central Laplace histogram at the same ε —
  frequency-estimation error quantifies the price of removing trust;
* **release continuously**: the binary-tree mechanism vs naive per-prefix
  noising for a running count under one ε — the polylog-vs-linear error
  scaling in the horizon T.

Expected shape (asserted): central error ≪ local error at every ε (trust
buys a √n-vs-constant gap); unary encoding beats k-RR for large alphabets
at small ε; tree RMS error grows polylogarithmically while naive grows
linearly in T, with the gap widening monotonically.
"""

import numpy as np

from benchmarks.common import print_header
from repro.experiments import ResultTable
from repro.mechanisms import NaivePrefixRelease, TreeAggregator
from repro.mechanisms.histogram import PrivateHistogram
from repro.privacy import KRandomizedResponse, UnaryEncoding

CATEGORIES = [f"c{i}" for i in range(16)]
WEIGHTS = np.linspace(2.0, 0.5, 16)
WEIGHTS /= WEIGHTS.sum()
N_USERS = 20_000
EPSILONS = [0.5, 1.0, 2.0, 4.0]


def frequency_errors(epsilon: float, seed: int, n_users: int = N_USERS) -> dict:
    rng = np.random.default_rng(seed)
    records = rng.choice(CATEGORIES, size=n_users, p=WEIGHTS).tolist()
    truth = np.array(
        [records.count(c) / n_users for c in CATEGORIES]
    )

    central = PrivateHistogram(CATEGORIES, epsilon=epsilon)
    central_estimate = central.release(records, random_state=rng) / n_users

    krr = KRandomizedResponse(CATEGORIES, epsilon=epsilon)
    krr_estimate = krr.estimate_frequencies(
        krr.release(records, random_state=rng)
    )

    unary = UnaryEncoding(CATEGORIES, epsilon=epsilon)
    unary_estimate = unary.estimate_frequencies(
        unary.release(records, random_state=rng)
    )

    def l1(estimate):
        return float(np.abs(estimate - truth).sum())

    return {
        "epsilon": epsilon,
        "central": l1(central_estimate),
        "krr": l1(krr_estimate),
        "unary": l1(unary_estimate),
    }


def bench_case(epsilon, n_users=4000, seed=17, horizon=256, repeats=5):
    """Engine entry point: local-vs-central errors + continual counting."""
    frequencies = frequency_errors(epsilon, seed=seed, n_users=n_users)

    rng = np.random.default_rng(seed + 6)
    stream = (rng.uniform(size=horizon) < 0.3).astype(float)
    truth = np.cumsum(stream)
    tree = TreeAggregator(horizon=horizon, epsilon=epsilon)
    naive = NaivePrefixRelease(horizon=horizon, epsilon=epsilon)
    # Batched repeats via release_many (base fallback for these stream
    # mechanisms — same draws, one aggregated ledger event when traced).
    tree_runs = np.asarray(tree.release_many(stream, repeats, random_state=rng))
    tree_rms = np.sqrt(np.mean((tree_runs - truth) ** 2))
    naive_runs = np.asarray(
        naive.release_many(stream, repeats, random_state=rng)
    )
    naive_rms = np.sqrt(np.mean((naive_runs - truth) ** 2))
    return {
        "central_l1": float(frequencies["central"]),
        "krr_l1": float(frequencies["krr"]),
        "unary_l1": float(frequencies["unary"]),
        "tree_rms": float(tree_rms),
        "naive_rms": float(naive_rms),
    }


BENCH_SPEC = {
    "case": bench_case,
    "grid": {"epsilon": EPSILONS},
    "fixed": {"n_users": 4000, "seed": 17, "horizon": 256, "repeats": 5},
    "seed_param": "seed",
}


def test_e15_local_vs_central(benchmark):
    rows = benchmark.pedantic(
        lambda: [frequency_errors(eps, seed=17) for eps in EPSILONS],
        rounds=1,
        iterations=1,
    )

    print_header(
        "E15a / extension",
        f"frequency estimation, local vs central DP "
        f"({len(CATEGORIES)} categories, n={N_USERS})",
    )
    table = ResultTable(
        ["epsilon", "central L1 error", "k-RR L1 error", "unary L1 error"],
    )
    for row in rows:
        table.add_row(row["epsilon"], row["central"], row["krr"], row["unary"])
        # The price of removing trust: local error dominates central.
        assert row["central"] < row["krr"]
        assert row["central"] < row["unary"]
    print(table)

    # Unary encoding beats k-RR for this 16-way alphabet at small ε.
    assert rows[0]["unary"] < rows[0]["krr"]
    # Everyone improves with ε.
    for key in ("central", "krr", "unary"):
        values = [r[key] for r in rows]
        assert values[-1] < values[0]


def test_e15_continual_counting(benchmark):
    epsilon = 1.0

    def run():
        rows = []
        rng = np.random.default_rng(23)
        for horizon in [64, 256, 1024, 4096]:
            stream = (rng.uniform(size=horizon) < 0.3).astype(float)
            truth = np.cumsum(stream)
            tree = TreeAggregator(horizon=horizon, epsilon=epsilon)
            naive = NaivePrefixRelease(horizon=horizon, epsilon=epsilon)
            # Batched draws: each release_many row is one full prefix
            # trajectory, so the grand mean over the (20, horizon) array
            # equals the mean of per-draw MSEs.
            tree_draws = np.asarray(
                tree.release_many(stream, 20, random_state=rng), dtype=float
            )
            tree_rms = np.sqrt(np.mean((tree_draws - truth) ** 2))
            naive_draws = np.asarray(
                naive.release_many(stream, 20, random_state=rng), dtype=float
            )
            naive_rms = np.sqrt(np.mean((naive_draws - truth) ** 2))
            rows.append(
                {
                    "horizon": horizon,
                    "tree_rms": float(tree_rms),
                    "naive_rms": float(naive_rms),
                    "tree_theory": tree.per_step_noise_std(),
                    "naive_theory": naive.per_step_noise_std(),
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    print_header(
        "E15b / extension",
        f"continual counting at ε={epsilon}: tree vs naive prefix noising",
    )
    table = ResultTable(
        ["T", "tree RMS", "naive RMS", "tree theory", "naive theory", "gap"],
    )
    gaps = []
    for row in rows:
        gap = row["naive_rms"] / row["tree_rms"]
        gaps.append(gap)
        table.add_row(
            row["horizon"],
            row["tree_rms"],
            row["naive_rms"],
            row["tree_theory"],
            row["naive_theory"],
            gap,
        )
        assert row["tree_rms"] < row["naive_rms"]
        assert row["tree_rms"] <= row["tree_theory"] * 1.3
    print(table)

    # Polylog vs linear: the advantage widens monotonically with T.
    assert all(a < b for a, b in zip(gaps, gaps[1:]))


def test_e15_tree_release_speed(benchmark):
    stream = np.ones(1024)
    tree = TreeAggregator(horizon=1024, epsilon=1.0)
    rng = np.random.default_rng(31)
    out = benchmark(lambda: tree.release(stream, random_state=rng))
    assert out.shape == (1024,)
