"""Tier-1 unit tests for the statistical verification harness itself.

Fast and fully deterministic: interval arithmetic, seed derivation,
neighbour generators, the event-frequency estimator on hand-built
samples, and report serialization. The heavy
Monte-Carlo audits live in ``test_statistical_audits.py`` (tier 2).
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.exceptions import DPAuditError, ValidationError
from repro.testing import (
    AUDIT_FAMILIES,
    DEFAULT_POLICY,
    NeighborPair,
    StatisticalPolicy,
    bit_flip_pair,
    boolean_sequence_keys,
    build_audit,
    clopper_pearson_interval,
    derive_seed,
    estimate_epsilon_lower_bound,
    extreme_record_pair,
    run_audit,
    score_gap_pair,
    substitution_pairs,
)
from repro.privacy import is_neighbour


class TestClopperPearson:
    def test_contains_point_estimate(self):
        low, high = clopper_pearson_interval(40, 100, confidence=0.99)
        assert low < 0.4 < high

    def test_degenerate_endpoints(self):
        assert clopper_pearson_interval(0, 50)[0] == 0.0
        assert clopper_pearson_interval(50, 50)[1] == 1.0

    def test_widens_with_confidence(self):
        narrow = clopper_pearson_interval(30, 100, confidence=0.9)
        wide = clopper_pearson_interval(30, 100, confidence=0.9999)
        assert wide[0] < narrow[0] < narrow[1] < wide[1]

    def test_shrinks_with_samples(self):
        small = clopper_pearson_interval(30, 100, confidence=0.99)
        large = clopper_pearson_interval(3000, 10000, confidence=0.99)
        assert large[1] - large[0] < small[1] - small[0]

    def test_hoeffding_fallback_is_conservative(self):
        beta = clopper_pearson_interval(200, 1000, method="beta")
        hoeff = clopper_pearson_interval(200, 1000, method="hoeffding")
        assert hoeff[0] <= beta[0] and beta[1] <= hoeff[1]

    def test_known_exact_value(self):
        # k=0: upper bound solves (1-p)^n = alpha/2 → p = 1-(alpha/2)^(1/n).
        low, high = clopper_pearson_interval(0, 20, confidence=0.95)
        assert low == 0.0
        assert high == pytest.approx(1 - 0.025 ** (1 / 20), rel=1e-6)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValidationError):
            clopper_pearson_interval(5, 0)
        with pytest.raises(ValidationError):
            clopper_pearson_interval(7, 5)
        with pytest.raises(ValidationError):
            clopper_pearson_interval(1, 5, confidence=1.0)
        with pytest.raises(ValidationError):
            clopper_pearson_interval(1, 5, method="magic")

    @pytest.mark.parametrize(
        "successes, trials",
        [(3, 10.9), (2.5, 10), (3.0, 10), (3, 10.0), (True, 10), (1, True),
         (np.float64(3), 10), ("3", 10)],
    )
    def test_rejects_non_integral_counts(self, successes, trials):
        # 10.9 trials used to be truncated to 10, and 2.5 successes to 2.
        with pytest.raises(ValidationError, match="must be an integer"):
            clopper_pearson_interval(successes, trials)

    def test_accepts_numpy_integers(self):
        assert clopper_pearson_interval(np.int64(3), np.int32(10)) == (
            clopper_pearson_interval(3, 10)
        )

    def test_auto_means_beta(self):
        assert clopper_pearson_interval(30, 100, method="auto") == (
            clopper_pearson_interval(30, 100, method="beta")
        )


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed("laplace", 0) == derive_seed("laplace", 0)

    def test_distinct_across_parts(self):
        seeds = {
            derive_seed("laplace", 0),
            derive_seed("laplace", 1),
            derive_seed("gibbs", 0),
            derive_seed("laplace", 0, base_seed=1),
        }
        assert len(seeds) == 4

    def test_policy_seed_for(self):
        policy = StatisticalPolicy()
        assert policy.seed_for("t", 0) != policy.seed_for("t", 1)
        assert policy.seed_for("t", 0) == StatisticalPolicy().seed_for("t", 0)

    def test_policy_validation(self):
        with pytest.raises(ValidationError):
            StatisticalPolicy(confidence=1.5)
        with pytest.raises(ValidationError):
            StatisticalPolicy(max_retries=-1)

    def test_flake_bound(self):
        policy = StatisticalPolicy(confidence=0.99, max_retries=2)
        assert policy.false_failure_probability() == pytest.approx(1e-6)


class TestNeighborGenerators:
    def test_bit_flip_is_neighbour(self):
        pair = bit_flip_pair(5, position=2)
        assert is_neighbour(pair.a, pair.b)
        assert sum(pair.b) - sum(pair.a) == 1

    def test_extreme_record_displaces_sum_by_sensitivity(self):
        pair = extreme_record_pair(4, low=-1.0, high=3.0)
        assert is_neighbour(pair.a, pair.b)
        assert sum(pair.b) - sum(pair.a) == pytest.approx(4.0)

    def test_score_gap_pair_valid(self):
        assert is_neighbour(score_gap_pair(3).a, score_gap_pair(3).b)

    def test_swapped_round_trip(self):
        pair = bit_flip_pair(3)
        assert pair.swapped().swapped().a == pair.a

    def test_invalid_pair_rejected(self):
        with pytest.raises(ValidationError):
            NeighborPair((0, 0), (1, 1)).validate()
        with pytest.raises(ValidationError):
            bit_flip_pair(0)
        with pytest.raises(ValidationError):
            extreme_record_pair(3, low=1.0, high=1.0)

    def test_substitution_pairs_exhaustive(self):
        pairs = list(substitution_pairs([0, 1], 2))
        # 4 datasets × 2 positions × 1 replacement each = 8 ordered pairs.
        assert len(pairs) == 8
        assert all(is_neighbour(p.a, p.b) for p in pairs)


class TestEpsilonEstimator:
    def test_identical_samples_certify_nothing(self):
        outputs = [0, 1] * 500
        estimate = estimate_epsilon_lower_bound(outputs, list(outputs))
        assert estimate["epsilon_lower_bound"] == 0.0

    def test_disjoint_supports_certify_large_epsilon(self):
        estimate = estimate_epsilon_lower_bound([0] * 1000, [1] * 1000)
        assert estimate["epsilon_lower_bound"] > 3.0
        assert estimate["kind"] == "discrete"

    def test_known_frequency_gap(self):
        # p ≈ 0.9 vs q ≈ 0.1 → log ratio ≈ 2.2; the certified bound must
        # sit between 1 and the true value.
        outputs_a = [0] * 900 + [1] * 100
        outputs_b = [0] * 100 + [1] * 900
        estimate = estimate_epsilon_lower_bound(
            outputs_a, outputs_b, confidence=0.99
        )
        assert 1.0 < estimate["epsilon_lower_bound"] < math.log(9.0)

    def test_binned_kind_on_floats(self):
        outputs_a = [i / 1000 for i in range(1000)]
        outputs_b = [0.3 + i / 1000 for i in range(1000)]
        estimate = estimate_epsilon_lower_bound(
            outputs_a, outputs_b, kind="binned", n_bins=8
        )
        assert estimate["kind"] == "binned"
        assert estimate["epsilon_lower_bound"] > 0.0

    def test_auto_resolves_discrete_for_small_support(self):
        estimate = estimate_epsilon_lower_bound([0] * 500, [0] * 499 + [1])
        assert estimate["kind"] == "discrete"

    def test_constant_continuous_pilot_rejected(self):
        with pytest.raises(ValidationError):
            estimate_epsilon_lower_bound(
                [1.0] * 100, [1.0] * 100, kind="binned"
            )

    def test_needs_samples(self):
        with pytest.raises(ValidationError):
            estimate_epsilon_lower_bound([1], [1])


class TestBatchKeys:
    def test_boolean_sequences_code_and_decode(self):
        outputs = [[True], [False, True], [False, False], [], [np.bool_(True)],
                   (0, 1, 1), [2, 0]]
        keys = boolean_sequence_keys(outputs)
        assert keys.codes.tolist() == [3, 6, 4, 1, 3, 14, 5]
        assert [keys.decode(code) for code in keys.codes.tolist()] == [
            tuple(bool(a) for a in answers) for answers in outputs
        ]
        assert len(keys) == 7 and keys[1:3].codes.tolist() == [6, 4]

    def test_boolean_sequences_longer_than_62_rejected(self):
        assert boolean_sequence_keys([[True] * 62]).decode(
            int(boolean_sequence_keys([[True] * 62]).codes[0])
        ) == (True,) * 62
        with pytest.raises(ValidationError):
            boolean_sequence_keys([[True] * 63])

    def test_coded_keys_compare_only_with_coded_keys(self):
        keys = boolean_sequence_keys([[True], [False]] * 4)
        with pytest.raises(ValidationError):
            estimate_epsilon_lower_bound(keys, [(True,), (False,)] * 4)
        with pytest.raises(ValidationError):
            estimate_epsilon_lower_bound(keys, keys, kind="binned")

    def test_array_keys_must_be_one_or_two_dimensional(self):
        with pytest.raises(ValidationError):
            estimate_epsilon_lower_bound(np.zeros((8, 1, 2)), np.zeros((8, 1, 2)))
        with pytest.raises(ValidationError):
            estimate_epsilon_lower_bound(np.zeros(8), np.zeros((8, 2)))

    def test_default_keys_of_list_batches(self):
        """A numeric or boolean list batch keys as an array; any other list
        batch keys as its own hashable outputs."""
        from repro.testing.audit import _batch_keys

        assert _batch_keys([1, 2, 3]).dtype.kind == "i"
        assert _batch_keys([np.float64(0.5)] * 3).tolist() == [0.5] * 3
        assert _batch_keys([[0.5, 1.0], [1.5, 2.0]]).shape == (2, 2)
        for batch in (["a", "b"], [(1, "a"), (2, "b")], [[True], [False, True]],
                      [None, None]):
            assert _batch_keys(batch) is batch

    def test_key_rows_label_as_tuples(self):
        a = np.array([[0, 1]] * 30 + [[1, 1]] * 10)
        b = np.array([[0, 1]] * 10 + [[1, 1]] * 30)
        estimate = estimate_epsilon_lower_bound(a, b, kind="discrete")
        assert estimate["per_event"][0]["event"] in ("{(0, 1)}", "{(1, 1)}")
        assert estimate == estimate_epsilon_lower_bound(
            [tuple(row) for row in a.tolist()], [tuple(row) for row in b.tolist()],
            kind="discrete",
        )


class TestRegistryAndReports:
    def test_every_family_builds(self):
        for family in AUDIT_FAMILIES:
            prepared = build_audit(family)
            assert prepared.epsilon > 0
            assert prepared.kind in ("discrete", "binned")

    def test_unknown_family_rejected(self):
        with pytest.raises(ValidationError):
            build_audit("frobnicate")
        with pytest.raises(ValidationError):
            build_audit("laplace", epsilon=-1.0)
        with pytest.raises(ValidationError):
            build_audit("laplace", noise_scale=0.0)

    def test_sabotaged_name_is_labelled(self):
        assert "noise×0.5" in build_audit("laplace", noise_scale=0.5).name

    @pytest.mark.parametrize(
        "family", ["randomized-response", "local-sampling", "langevin"]
    )
    def test_output_key_reads_the_first_coordinate(self, family):
        """The keys of a ``release_many`` batch are its rows' first
        scalars, one per output, in the batch's dtype, for the families
        whose outputs are arrays; as Python scalars they are the old
        per-row keys, a Python ``int``/``float`` each."""
        prepared = build_audit(family)
        batch = prepared.mechanism.release_many(
            prepared.pair.a, 50, random_state=4
        )
        keys = prepared.output_key(batch)
        first = batch.reshape(len(batch), -1)[:, 0]
        assert keys.shape == (50,)
        assert keys.dtype == batch.dtype
        assert keys.tolist() == first.tolist()
        assert {type(key) for key in keys.tolist()} == {type(first.tolist()[0])}

    def test_report_serializes_to_json(self):
        report = run_audit(
            build_audit("randomized-response"),
            n_samples=400,
            random_state=7,
        )
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["mechanism"] == "randomized-response"
        assert payload["satisfied"] is True
        assert "certified" in str(report) or "ε" in str(report)

    def test_audit_is_deterministic_under_fixed_seed(self):
        prepared = build_audit("geometric")
        first = run_audit(prepared, n_samples=600, random_state=3)
        second = run_audit(prepared, n_samples=600, random_state=3)
        assert first.epsilon_lower_bound == second.epsilon_lower_bound
        assert first.point_estimate == second.point_estimate

    def test_dp_audit_error_is_assertion_error(self):
        assert issubclass(DPAuditError, AssertionError)
