import warnings

import numpy as np
import pytest

from mergeforge.benchmark import ProbeSet, load_instance, make_instance, mse, save_instance, score
from mergeforge.core import apply_merged


def test_same_seed_is_bit_identical():
    a = make_instance(42, d=16, k=3, component_noise=0.05, probe_counts=(10, 20))
    b = make_instance(42, d=16, k=3, component_noise=0.05, probe_counts=(10, 20))
    assert np.array_equal(a.seed_model, b.seed_model)
    assert np.array_equal(a.target, b.target)
    assert all(np.array_equal(x, y) for x, y in zip(a.candidates, b.candidates))
    assert np.array_equal(a.dev_probes.xs, b.dev_probes.xs)
    assert a.content_digest() == b.content_digest()


def test_different_seeds_differ():
    a = make_instance(1, d=16, k=3, component_noise=0.05, probe_counts=(10, 20))
    b = make_instance(2, d=16, k=3, component_noise=0.05, probe_counts=(10, 20))
    assert a.content_digest() != b.content_digest()


def test_disjoint_masks_sum_to_full_delta():
    # overlap=0, noise=0: the task vectors partition target - seed exactly.
    inst = make_instance(7, d=60, k=3, component_noise=0.0, probe_counts=(5, 5), overlap=0.0)
    taus = inst.task_vectors()
    assert np.allclose(sum(taus), inst.target - inst.seed_model, atol=0)
    coverage = inst.masks.sum(axis=0)
    assert np.array_equal(coverage, np.ones(inst.config.d))


def test_huge_overlap_covers_everything_without_a_huge_allocation():
    # uncapped, overlap=1e12 would ask _block_masks for about 10**14 indexes
    huge = make_instance(7, d=24, k=3, component_noise=0.05, probe_counts=(5, 5), overlap=1e12)
    at_k = make_instance(7, d=24, k=3, component_noise=0.05, probe_counts=(5, 5), overlap=3)
    assert huge.masks.all()
    assert np.array_equal(huge.masks, at_k.masks)


def test_mean_of_task_vectors_beats_single_candidates():
    wins = 0
    for seed in range(20):
        inst = make_instance(seed, d=64, k=3, component_noise=0.05, probe_counts=(100, 100))
        taus = inst.task_vectors()
        merged = apply_merged(inst.seed_model, np.mean(taus, axis=0))
        merged_score = score(merged, inst.dev_probes, inst.dev_baseline_mse)
        singles = [score(c, inst.dev_probes, inst.dev_baseline_mse) for c in inst.candidates]
        if merged_score > max(singles):
            wins += 1
    assert wins >= 18


def test_score_of_seed_model_is_zero():
    inst = make_instance(3, d=16, k=2, component_noise=0.05, probe_counts=(10, 10))
    assert score(inst.seed_model, inst.dev_probes, inst.dev_baseline_mse) == 0.0
    assert score(inst.seed_model, inst.test_probes, inst.test_baseline_mse) == 0.0


def test_score_of_target_is_hundred():
    inst = make_instance(3, d=16, k=2, component_noise=0.05, probe_counts=(10, 10))
    assert score(inst.target, inst.dev_probes, inst.dev_baseline_mse) == 100.0


def test_score_clamps_at_zero():
    inst = make_instance(3, d=16, k=2, component_noise=0.05, probe_counts=(10, 10))
    # Twice as far from the target as the seed model in probe MSE terms.
    worse = inst.target + np.sqrt(2.0) * (inst.seed_model - inst.target)
    assert mse(worse, inst.dev_probes) == pytest.approx(2 * inst.dev_baseline_mse)
    assert score(worse, inst.dev_probes, inst.dev_baseline_mse) == 0.0


def test_non_finite_mse_scores_zero_without_warnings():
    inst = make_instance(3, d=16, k=2, component_noise=0.05, probe_counts=(10, 10))
    huge = np.full(16, 1e200)  # finite, but its squared residuals overflow
    with_nan = np.full(16, np.nan)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert mse(huge, inst.dev_probes) == np.inf
        assert np.isnan(mse(with_nan, inst.dev_probes))
        assert score(huge, inst.dev_probes, inst.dev_baseline_mse) == 0.0
        assert score(with_nan, inst.dev_probes, inst.dev_baseline_mse) == 0.0


@pytest.mark.parametrize("n, d", [(1, 1), (7, 3), (30, 16), (200, 64), (1000, 5)])
def test_mse_is_the_mean_of_squared_residuals_bit_for_bit(n, d):
    rng = np.random.default_rng(n * 7 + d)
    probes = ProbeSet(rng.normal(size=(n, d)), rng.normal(size=n))
    for model in (rng.normal(size=d), 1e3 * rng.normal(size=d), np.full(d, 1e200)):
        with np.errstate(over="ignore", invalid="ignore"):
            expected = float(np.mean((probes.xs @ model - probes.ys) ** 2))
        assert repr(mse(model, probes)) == repr(expected)


def test_score_monotone_in_distance():
    inst = make_instance(5, d=16, k=2, component_noise=0.05, probe_counts=(10, 10))
    scores = [
        score(inst.target + c * (inst.seed_model - inst.target),
              inst.dev_probes, inst.dev_baseline_mse)
        for c in (0.1, 0.4, 0.7, 1.0)
    ]
    assert scores == sorted(scores, reverse=True)


def test_score_invariant_under_probe_reordering():
    inst = make_instance(5, d=16, k=2, component_noise=0.05, probe_counts=(10, 10))
    perm = np.random.default_rng(0).permutation(inst.config.n_dev)
    shuffled = ProbeSet(inst.dev_probes.xs[perm], inst.dev_probes.ys[perm])
    model = inst.candidates[0]
    assert score(model, shuffled, inst.dev_baseline_mse) == pytest.approx(
        score(model, inst.dev_probes, inst.dev_baseline_mse), abs=1e-9
    )


def test_dev_test_coupling():
    # Models clearly better than the seed on dev generalize to test probes.
    qualifying = 0
    carried = 0
    for seed in range(50):
        inst = make_instance(seed, d=64, k=3, component_noise=0.05, probe_counts=(100, 1000))
        taus = inst.task_vectors()
        family = [
            apply_merged(inst.seed_model, np.mean(taus, axis=0)),
            apply_merged(inst.seed_model, np.sum(taus, axis=0)),
            apply_merged(inst.seed_model, 0.5 * np.sum(taus, axis=0)),
            *inst.candidates,
        ]
        for model in family:
            dev = score(model, inst.dev_probes, inst.dev_baseline_mse)
            if dev >= 20.0:
                qualifying += 1
                if score(model, inst.test_probes, inst.test_baseline_mse) > 0.0:
                    carried += 1
    assert qualifying > 100
    assert carried / qualifying >= 0.9


def test_invalid_arguments():
    with pytest.raises(ValueError):
        make_instance(0, d=1, k=3, component_noise=0.05)
    with pytest.raises(ValueError):
        make_instance(0, d=8, k=1, component_noise=0.05)
    with pytest.raises(ValueError):
        make_instance(0, d=8, k=2, component_noise=-0.1)
    inst = make_instance(0, d=8, k=2, component_noise=0.0, probe_counts=(5, 5))
    with pytest.raises(ValueError):
        score(inst.seed_model, inst.dev_probes, 0.0)


def test_serialization_round_trip(tmp_path):
    inst = make_instance(9, d=32, k=3, component_noise=0.05, probe_counts=(20, 30), overlap=0.1)
    path = tmp_path / "instance.json"
    save_instance(inst, path)
    loaded = load_instance(path)
    assert loaded.content_digest() == inst.content_digest()
    assert np.array_equal(loaded.seed_model, inst.seed_model)
    assert np.array_equal(loaded.test_probes.ys, inst.test_probes.ys)
    assert (loaded.dev_baseline_mse, loaded.test_baseline_mse) == (inst.dev_baseline_mse, inst.test_baseline_mse)


def test_load_rejects_tampered_file(tmp_path):
    inst = make_instance(9, d=8, k=2, component_noise=0.0, probe_counts=(5, 5))
    path = tmp_path / "instance.json"
    save_instance(inst, path)
    text = path.read_text().replace('"rng_seed": 9', '"rng_seed": 10')
    path.write_text(text)
    with pytest.raises(ValueError, match="digest"):
        load_instance(path)
