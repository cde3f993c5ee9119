"""Clopper–Pearson endpoints from ``betaincinv`` equal ``beta.ppf``'s, bit for bit.

``clopper_pearson_interval`` used to read its Beta quantiles from
``scipy.stats.beta.ppf``; it now calls ``scipy.special.betaincinv`` so that
an audit never imports ``scipy.stats``. Both wrap Boost's ``ibeta_inv``.
Two sets of inputs pin the swap to the last bit (``float.hex``):

* a seeded sweep of trial counts from 1 to 200 000, success counts from
  0 to n (both endpoints included) and confidences up to 1 − 1e-9;
* every ``(k, n, confidence)`` that one ``repro audit`` run asks for, at
  12 000 and at 50 000 samples, with the Bonferroni-split confidences of
  ``estimate_epsilon_lower_bound``. The estimator computes each side's
  endpoints in one vectorized ``betaincinv`` call; the test records the
  count vectors that call receives and the endpoints it returns, and
  pins each endpoint against the scalar ``beta.ppf`` reference.

The same audit runs pin every family's report to its digest from before
the swap, so no verdict or certified ε moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math

import numpy as np
import pytest
from scipy.stats import beta as beta_distribution

import repro.testing.audit as audit_module
from repro.cli import main
from repro.testing import AUDIT_FAMILIES, clopper_pearson_interval

# sha256 prefixes of json.dumps(report, sort_keys=True) for every family of
# `repro audit --samples N --format json` at seed 0, before the swap.
AUDIT_DIGESTS = {
    12_000: {
        "laplace": "09a2417368c50171",
        "geometric": "b35a27842a5456da",
        "exponential": "f1d8eaa7051dabfd",
        "exponential-paper": "4baf86781d033c90",
        "randomized-response": "522186abe8a644d9",
        "noisy-max": "014f2293af6b987c",
        "sparse-vector": "c90a9faf660d330e",
        "gibbs": "17d99d14033062e0",
        "langevin": "905515185490cb03",
        "local": "88307d53571c122e",
        "local-sampling": "02db883cf1c9b742",
    },
    50_000: {
        "laplace": "d1dd5c90e519b341",
        "geometric": "bfe4808c48027667",
        "exponential": "f16780acaa984362",
        "exponential-paper": "0713617b37ae191a",
        "randomized-response": "b7fdeda22c892818",
        "noisy-max": "323a8009d6fdf737",
        "sparse-vector": "0bc883082b3021f5",
        "gibbs": "2c41ab217446a8fd",
        "langevin": "03802a5367220321",
        "local": "bb058ba866b529ed",
        "local-sampling": "9d725e4b43cbc074",
    },
}


def reference_interval(k: int, n: int, confidence: float) -> tuple[float, float]:
    """The endpoints exactly as they were computed through ``scipy.stats``."""
    alpha = 1.0 - confidence
    low = 0.0 if k == 0 else float(beta_distribution.ppf(alpha / 2, k, n - k + 1))
    high = 1.0 if k == n else float(beta_distribution.ppf(1 - alpha / 2, k + 1, n - k))
    return (low, high)


def _mismatches(cases) -> list:
    found = []
    for k, n, confidence in cases:
        got = clopper_pearson_interval(k, n, confidence=confidence)
        want = reference_interval(k, n, confidence)
        if [x.hex() for x in got] != [x.hex() for x in want]:
            found.append((k, n, confidence, got, want))
    return found


def _sweep_cases() -> list[tuple[int, int, float]]:
    rng = np.random.default_rng(20261017)
    trials = {1, 2, 3, 200_000}
    trials.update(int(t) for t in np.exp(rng.uniform(0.0, np.log(200_000), 300)))
    confidences = [0.5, 0.9, 0.95, 0.99, 0.999, 1 - 1e-6, 1 - 1e-9]
    cases = []
    for n in sorted(trials):
        successes = {0, 1, n // 2, n - 1, n, int(rng.integers(0, n + 1))}
        for k in sorted(s for s in successes if 0 <= s <= n):
            for confidence in (
                confidences[int(rng.integers(len(confidences)))],
                1.0 - 0.001 / (2.0 * int(rng.integers(1, 200))),
            ):
                cases.append((k, n, confidence))
    return cases


def test_seeded_sweep_matches_beta_ppf_bit_for_bit():
    cases = _sweep_cases()
    assert len(cases) > 2500
    assert {1, 200_000} <= {n for _, n, _ in cases}
    assert max(c for _, _, c in cases) == 1 - 1e-9
    assert _mismatches(cases) == []


@pytest.fixture(scope="module")
def audit_runs() -> dict:
    """Per sample size: every ``(k, n, confidence)`` the vectorized
    endpoint calls received, each with the endpoints they returned, and
    the JSON payload of one ``repro audit --format json`` run."""
    runs = {}
    original = audit_module._clopper_pearson_endpoints
    with pytest.MonkeyPatch.context() as patch:
        for samples in AUDIT_DIGESTS:
            calls = []

            def recording(successes, trials, confidence, method):
                low, high = original(successes, trials, confidence, method)
                for k, got in zip(np.asarray(successes).tolist(),
                                  zip(low.tolist(), high.tolist())):
                    calls.append(((k, trials, confidence), got))
                return low, high

            patch.setattr(audit_module, "_clopper_pearson_endpoints", recording)
            runs[samples] = (calls, _run_audit_cli(samples))
    return runs


def _run_audit_cli(samples: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["audit", "--samples", str(samples), "--format", "json"])
    assert code == 0, out.getvalue()
    return json.loads(out.getvalue())


@pytest.mark.parametrize("samples", sorted(AUDIT_DIGESTS))
def test_audit_cases_match_beta_ppf_bit_for_bit(audit_runs, samples):
    calls, _ = audit_runs[samples]
    cases = [case for case, _ in calls]
    confidences = {confidence for _, _, confidence in cases}
    assert len(cases) > 300
    assert all(c > 0.999 for c in confidences)
    assert _mismatches(cases) == []
    vectorized = [
        (case, got) for case, got in calls
        if [x.hex() for x in got] != [x.hex() for x in reference_interval(*case)]
    ]
    assert vectorized == []


@pytest.mark.parametrize("samples", sorted(AUDIT_DIGESTS))
def test_audit_reports_are_unchanged(audit_runs, samples):
    _, payload = audit_runs[samples]
    assert payload["satisfied"] is True
    assert len(payload["reports"]) == len(AUDIT_FAMILIES)
    digests = {
        family: hashlib.sha256(
            json.dumps(report, sort_keys=True).encode()
        ).hexdigest()[:16]
        for family, report in zip(AUDIT_FAMILIES, payload["reports"])
    }
    assert digests == AUDIT_DIGESTS[samples]


def test_hoeffding_endpoints_match_the_scalar_formula():
    """The vectorized ``"hoeffding"`` path keeps the scalar formula's bits."""
    rng = np.random.default_rng(7)
    for n in (1, 2, 7, 6000, 25_000):
        k = np.unique(np.concatenate(([0, n], rng.integers(0, n + 1, 50))))
        for confidence in (0.9, 0.999, 1.0 - 0.001 / 76):
            low, high = audit_module._clopper_pearson_endpoints(
                k, n, confidence, "hoeffding"
            )
            width = math.sqrt(math.log(2.0 / (1.0 - confidence)) / (2.0 * n))
            want = [
                (max(0.0, c / n - width), min(1.0, c / n + width))
                for c in k.tolist()
            ]
            got = list(zip(low.tolist(), high.tolist()))
            assert [(a.hex(), b.hex()) for a, b in got] == [
                (a.hex(), b.hex()) for a, b in want
            ]
            assert got[0] == clopper_pearson_interval(
                int(k[0]), n, confidence=confidence, method="hoeffding"
            )
