import re
import warnings

import numpy as np
import pytest

from mono3d import cli, locality, toy_trainer
from mono3d.locality import LinearHead, build_graph, similarity
from mono3d.losses import LossConfig
from mono3d.toy_trainer import (DIVERGENCE_LIMIT, LR_DECAY, MOMENTUM, TOLERANCE_L1,
                                SyntheticScene, TrainingDiverged, TrainReport,
                                generate_scene, neighbor_order_violations,
                                run_paired_experiment, train)


def brute_force_violations(head, scene, lam=100.0):
    """The pairwise definition, one (i, j) pair at a time."""
    u_pred = head.predict(scene.features)[0]
    u_gt, z_gt = scene.gt
    cutoff = np.sqrt(lam) / 2.0
    count = 0
    for i in range(scene.size):
        for j in range(i + 1, scene.size):
            if abs(z_gt[i] - z_gt[j]) >= cutoff:
                continue
            if (u_gt[i] - u_gt[j]) * (u_pred[i] - u_pred[j]) < 0:
                count += 1
    return count


def reference_train(scene, cfg, use_regularizer, lr=1e-3, epochs=2000, seed=0,
                    tolerance=TOLERANCE_L1):
    """One run's own epoch loop on 2-D arrays, as `train` ran before the
    runs were stacked; the state after the last epoch is tested for
    divergence as each epoch's is."""
    x, gt, m = scene.features, scene.gt, scene.size
    xpxt = x @ build_graph(scene.batch(), cfg.lam).p @ x.T if use_regularizer else None
    rng = np.random.default_rng(seed)
    w = 0.01 * rng.normal(size=(2, x.shape[0]))
    b = gt.mean(axis=1)
    vel_w = np.zeros_like(w)
    vel_b = np.zeros_like(b)
    loss_curve = []
    epochs_to_tolerance = None
    step = lr
    for epoch in range(epochs + 1):
        residual = (w @ x + b[:, None]) - gt
        data_l1 = float(np.abs(residual).sum())
        objective = data_l1
        if use_regularizer:
            objective += cfg.beta * float(np.trace(w @ xpxt @ w.T))
        if not np.isfinite(objective) or objective > DIVERGENCE_LIMIT:
            raise TrainingDiverged(epoch - 1)
        if epoch == epochs:
            break
        loss_curve.append(objective)
        if epochs_to_tolerance is None and data_l1 / m < tolerance:
            epochs_to_tolerance = epoch
        sign = np.sign(residual)
        grad_w = sign @ x.T
        grad_b = sign.sum(axis=1)
        if use_regularizer:
            grad_w = grad_w + 2.0 * cfg.beta * (w @ xpxt)
        vel_w = MOMENTUM * vel_w - step * grad_w
        vel_b = MOMENTUM * vel_b - step * grad_b
        w = w + vel_w
        b = b + vel_b
        step *= LR_DECAY
    head = LinearHead(w=w, b=b)
    final_l1 = float(np.abs(head.predict(x) - gt).sum()) / m
    if epochs_to_tolerance is None and final_l1 < tolerance:
        epochs_to_tolerance = epochs
    report = TrainReport(
        epochs_to_tolerance=epochs_to_tolerance, final_l1=final_l1,
        neighbor_order_violations=brute_force_violations(
            head, scene.validation_view(), cfg.lam),
        loss_curve=loss_curve)
    return head, report


def reference_paired_runs(seeds, cfg, n_objects, feature_dim=24, noise_sigma=0.1,
                          lr=1e-3, epochs=2000, arms=(True, False)):
    """(arm key, head, report) of every run, trained one after another in
    (seed, arm) order; the first divergence stops the experiment."""
    runs = []
    for seed in seeds:
        scene = generate_scene(n_objects, feature_dim, noise_sigma, seed)
        for use_reg in arms:
            key = "regularized" if use_reg else "unregularized"
            try:
                head, report = reference_train(scene, cfg, use_reg, lr=lr,
                                               epochs=epochs, seed=seed)
            except TrainingDiverged as exc:
                raise TrainingDiverged(exc.epoch, context=f"{key} arm, seed {seed}")
            runs.append((key, head, report))
    return runs


def assert_reports_identical(report, expected):
    assert np.array(report.loss_curve).tobytes() == \
        np.array(expected.loss_curve).tobytes()
    assert report.final_l1 == expected.final_l1
    assert report.epochs_to_tolerance == expected.epochs_to_tolerance
    assert report.neighbor_order_violations == expected.neighbor_order_violations


class TestGenerateScene:
    def test_deterministic_under_seed(self):
        a = generate_scene(20, 8, 0.1, seed=5)
        b = generate_scene(20, 8, 0.1, seed=5)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.gt, b.gt)
        assert np.array_equal(a.val_features, b.val_features)

    def test_different_seeds_differ(self):
        a = generate_scene(20, 8, 0.1, seed=5)
        b = generate_scene(20, 8, 0.1, seed=6)
        assert not np.array_equal(a.features, b.features)

    def test_zero_noise_is_exactly_linear(self):
        scene = generate_scene(15, 8, 0.0, seed=3)
        assert np.array_equal(scene.features, scene.val_features)
        # an exact recovery exists: solve the least-squares problem and check
        aug = np.vstack([scene.features, np.ones(scene.size)])
        coeffs, *_ = np.linalg.lstsq(aug.T, scene.gt.T, rcond=None)
        recovered = coeffs.T @ aug
        assert np.allclose(recovered, scene.gt, atol=1e-8)

    def test_two_objects_get_separated_depths(self):
        scene = generate_scene(2, 8, 0.1, seed=1)
        u, z = scene.gt
        assert abs(z[0] - z[1]) > 30
        s12 = similarity(scene.u2d_norm[0], scene.u2d_norm[1], z[0], z[1], 100.0)
        assert s12 < 1.0

    def test_depths_in_range(self):
        scene = generate_scene(200, 8, 0.1, seed=2)
        assert np.all(scene.gt[1] > 0)
        assert np.all(scene.gt[1] <= 90)

    def test_normalized_offsets_in_unit_interval(self):
        scene = generate_scene(50, 8, 0.1, seed=4)
        assert np.all((scene.u2d_norm > 0) & (scene.u2d_norm < 1))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            generate_scene(0, 8, 0.1, seed=0)

    @pytest.mark.parametrize("noise_sigma", [-0.1, float("nan"), float("inf")])
    def test_rejects_bad_noise_sigma(self, noise_sigma):
        with pytest.raises(ValueError, match=f"got {noise_sigma}$"):
            generate_scene(10, 8, noise_sigma, seed=0)

    @pytest.mark.parametrize("feature_dim", [1, 0, -2])
    def test_rejects_feature_dim_below_two(self, feature_dim):
        with pytest.raises(ValueError,
                           match=f"feature_dim must be at least 2.*got {feature_dim}$"):
            generate_scene(10, feature_dim, 0.1, seed=0)

    def test_smallest_feature_dim(self):
        scene = generate_scene(10, 2, 0.0, seed=0)
        assert scene.features.shape == (2, 10)


class TestNeighborOrderViolations:
    def scene_with_gt(self, u, z):
        m = len(u)
        return SyntheticScene(features=np.zeros((2, m)), u2d_norm=np.full(m, 0.5),
                              gt=np.vstack([u, z]), seed=0, noise_sigma=0.0)

    def test_perfect_predictor(self):
        scene = generate_scene(30, 8, 0.0, seed=9)
        u, z = scene.gt
        # a head that reproduces ground truth exactly from the clean embedding
        aug = np.vstack([scene.features, np.ones(scene.size)])
        coeffs, *_ = np.linalg.lstsq(aug.T, scene.gt.T, rcond=None)
        head = LinearHead(w=coeffs.T[:, :-1], b=coeffs.T[:, -1])
        assert neighbor_order_violations(head, scene) == 0

    def test_negated_predictor_violates_every_pair(self):
        u = np.array([0.1, 0.2, 0.3, 0.4])
        z = np.array([10.0, 11.0, 12.0, 13.0])
        scene = SyntheticScene(features=np.vstack([u, z]), u2d_norm=np.full(4, 0.5),
                               gt=np.vstack([u, z]), seed=0, noise_sigma=0.0)
        head = LinearHead(w=np.array([[-1.0, 0.0], [0.0, 1.0]]), b=np.zeros(2))
        assert neighbor_order_violations(head, scene) == 6

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(17)
        u = rng.normal(size=10)
        z = rng.uniform(5, 40, size=10)
        features = rng.normal(size=(3, 10))
        scene = SyntheticScene(features=features, u2d_norm=np.full(10, 0.5),
                               gt=np.vstack([u, z]), seed=0, noise_sigma=0.0)
        head = LinearHead(w=rng.normal(size=(2, 3)), b=rng.normal(size=2))
        pred_u = head.predict(features)[0]
        expected = 0
        cutoff = np.sqrt(100.0) / 2
        for i in range(10):
            for j in range(i + 1, 10):
                if abs(z[i] - z[j]) < cutoff and \
                        (u[i] - u[j]) * (pred_u[i] - pred_u[j]) < 0:
                    expected += 1
        assert neighbor_order_violations(head, scene, lam=100.0) == expected

    # Predicted u is the first feature row, so a test sets it directly.
    U_HEAD = LinearHead(w=np.array([[1.0, 0.0], [0.0, 1.0]]), b=np.zeros(2))

    def pair_scene(self, u_gt, z_gt, u_pred):
        m = len(u_gt)
        return SyntheticScene(features=np.vstack([u_pred, z_gt]),
                              u2d_norm=np.full(m, 0.5), gt=np.vstack([u_gt, z_gt]),
                              seed=0, noise_sigma=0.0)

    def test_single_object(self):
        scene = self.pair_scene([0.3], [20.0], [0.1])
        assert neighbor_order_violations(self.U_HEAD, scene) == 0

    @pytest.mark.parametrize("z_gap,u_gt,u_pred,expected", [
        (4.0, [0.0, 1.0], [1.0, 0.0], 1),      # flipped, near
        (5.0, [0.0, 1.0], [1.0, 0.0], 0),      # gap == sqrt(100) / 2: excluded
        (4.0, [0.5, 0.5], [1.0, 0.0], 0),      # equal ground truth: product 0
        (4.0, [0.0, 1.0], [0.2, 0.2], 0),      # equal prediction: product 0
        (4.0, [0.0, 1.0], [0.0, 1.0], 0),      # same order
    ])
    def test_two_objects(self, z_gap, u_gt, u_pred, expected):
        scene = self.pair_scene(u_gt, [10.0, 10.0 + z_gap], u_pred)
        assert neighbor_order_violations(self.U_HEAD, scene, lam=100.0) == expected
        assert brute_force_violations(self.U_HEAD, scene, lam=100.0) == expected

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_brute_force_at_scale(self, seed):
        rng = np.random.default_rng(seed)
        m = 300
        # depths on a 0.5 m grid, so many pairs sit exactly at the 5 m cutoff
        z = 10.0 + 0.5 * rng.integers(0, 40, size=m)
        u = np.round(rng.normal(size=m), 1)        # many equal ground truths
        u_pred = u + rng.normal(scale=0.3, size=m)
        u_pred[rng.integers(0, m, size=m // 4)] = 0.0  # many equal predictions
        scene = self.pair_scene(u, z, u_pred)
        for lam in (100.0, 4.0, 1e6):
            expected = brute_force_violations(self.U_HEAD, scene, lam)
            assert expected > 0
            assert neighbor_order_violations(self.U_HEAD, scene, lam) == expected

    @pytest.mark.parametrize("m", [1, 2, 3, 50])
    @pytest.mark.parametrize("rows", [1, 2, 3])
    def test_row_blocks_match_brute_force(self, monkeypatch, m, rows):
        # a cap of rows * (m - 1) elements makes each block `rows` rows tall
        monkeypatch.setattr(toy_trainer, "_VIOLATION_BLOCK", rows * max(m - 1, 1))
        rng = np.random.default_rng(m)
        # the data of test_matches_brute_force_at_scale: pairs exactly at the
        # cutoff, equal ground truths and equal predictions
        z = 10.0 + 0.5 * rng.integers(0, 40, size=m)
        u = np.round(rng.normal(size=m), 1)
        u_pred = u + rng.normal(scale=0.3, size=m)
        u_pred[rng.integers(0, m, size=m // 4)] = 0.0
        scene = self.pair_scene(u, z, u_pred)
        for lam in (100.0, 4.0, 1e6):
            expected = brute_force_violations(self.U_HEAD, scene, lam)
            assert expected > 0 or m < 50
            assert neighbor_order_violations(self.U_HEAD, scene, lam) == expected

    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), float("-inf"), 0.0, -1.0])
    def test_bad_bandwidth(self, lam):
        scene = self.pair_scene([0.0, 1.0], [10.0, 14.0], [1.0, 0.0])
        with pytest.raises(ValueError, match="lam must be finite and positive"):
            neighbor_order_violations(self.U_HEAD, scene, lam)

    def test_depth_cutoff_excludes_far_pairs(self):
        u = np.array([0.0, 1.0])
        z = np.array([10.0, 60.0])
        scene = self.scene_with_gt(u, z)
        head = LinearHead(w=np.array([[-1.0, 0.0], [0.0, 1.0]]), b=np.zeros(2))
        scene.features = np.vstack([u, z])
        assert neighbor_order_violations(head, scene) == 0


class TestTrain:
    @pytest.mark.parametrize("use_regularizer,expected_calls", [(False, 0), (True, 1)])
    def test_graph_built_only_for_the_regularizer(self, monkeypatch, use_regularizer,
                                                  expected_calls):
        calls = []

        def counting_build_graph(batch, lam):
            calls.append(lam)
            return locality.build_graph(batch, lam)

        monkeypatch.setattr(toy_trainer, "build_graph", counting_build_graph)
        scene = generate_scene(20, 8, 0.1, seed=3)
        train(scene, LossConfig(), use_regularizer, epochs=5, seed=3)
        assert len(calls) == expected_calls

    def test_deterministic(self):
        scene = generate_scene(20, 8, 0.1, seed=3)
        cfg = LossConfig()
        head_a, report_a = train(scene, cfg, True, epochs=50, seed=3)
        head_b, report_b = train(scene, cfg, True, epochs=50, seed=3)
        assert np.array_equal(head_a.w, head_b.w)
        assert np.array_equal(head_a.b, head_b.b)
        assert report_a.loss_curve == report_b.loss_curve

    def test_noiseless_recovery(self):
        scene = generate_scene(30, 12, 0.0, seed=1)
        _, report = train(scene, LossConfig(), use_regularizer=False,
                          epochs=2000, seed=1)
        assert report.final_l1 < 1e-3
        assert report.epochs_to_tolerance is not None

    def test_zero_beta_equals_flag_off(self):
        scene = generate_scene(20, 8, 0.1, seed=2)
        cfg = LossConfig(beta=0.0)
        _, with_flag = train(scene, cfg, True, epochs=100, seed=2)
        _, without = train(scene, cfg, False, epochs=100, seed=2)
        assert with_flag.loss_curve == without.loss_curve
        assert with_flag.final_l1 == without.final_l1

    def test_divergence_detected(self):
        # the graph quadratic goes unstable at an absurd learning rate; the
        # error names the one run's arm and seed, as a paired run's does
        scene = generate_scene(20, 8, 0.1, seed=2)
        with pytest.raises(TrainingDiverged, match=r"^training diverged; last finite epoch "
                                                   r"was 1 \(regularized arm, seed 2\)$") as exc:
            train(scene, LossConfig(), True, lr=10.0, epochs=500, seed=2)
        assert exc.value.epoch >= 0

    def test_invalid_arguments(self):
        scene = generate_scene(5, 4, 0.1, seed=0)
        for lr in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"got {lr}$"):
                train(scene, LossConfig(), False, lr=lr)
        with pytest.raises(ValueError):
            train(scene, LossConfig(), False, epochs=0)

    def test_loss_mostly_decreases_at_small_lr(self):
        # small enough that no residual changes sign, i.e. the whole run
        # stays in one smooth region of the piecewise-linear objective
        scene = generate_scene(20, 8, 0.1, seed=4)
        _, report = train(scene, LossConfig(), False, lr=1e-6, epochs=400, seed=4)
        curve = np.array(report.loss_curve)
        drops = (np.diff(curve) <= 1e-9).mean()
        assert drops >= 0.95

    def test_report_config_echo(self):
        scene = generate_scene(12, 6, 0.05, seed=8)
        _, report = train(scene, LossConfig(), True, epochs=30, seed=9)
        assert report.config["n_objects"] == 12
        assert report.config["train_seed"] == 9
        assert report.config["use_regularizer"] is True
        assert "alpha" not in report.config and "gamma" not in report.config
        assert len(report.loss_curve) == 30


class TestPairedExperiment:
    def test_small_experiment_summary_fields(self):
        out = run_paired_experiment([1, 2], LossConfig(), n_objects=12,
                                    feature_dim=6, noise_sigma=0.05, epochs=200)
        summary = out["summary"]
        assert set(summary) == {"mean_violations_regularized",
                                "mean_violations_unregularized",
                                "mean_epochs_regularized",
                                "mean_epochs_unregularized",
                                "epochs_ratio"}
        assert len(out["reports"]["regularized"]) == 2
        assert len(out["reports"]["unregularized"]) == 2

    def test_single_arm(self):
        out = run_paired_experiment([1], LossConfig(), n_objects=10, feature_dim=6,
                                    epochs=100, arms=(False,))
        assert out["reports"]["regularized"] == []
        assert "epochs_ratio" not in out["summary"]

    @pytest.mark.parametrize("arms", [(True, True), (False, False), (False, True, False),
                                      (1, 0), (True, None)])
    def test_malformed_arms_rejected(self, arms):
        # The regularised runs are one stride of the stack: a repeated arm
        # would train its second run without the regulariser.
        with pytest.raises(ValueError, match=re.escape(
                f"arms must be distinct True/False values, got {arms!r}")):
            run_paired_experiment([1, 2], LossConfig(), n_objects=10, epochs=3, arms=arms)


class TestStackedTraining:
    """The stacked loop against the per-run loop it replaced, bit for bit."""

    @pytest.mark.parametrize("use_regularizer", [True, False])
    @pytest.mark.parametrize("seed", [1, 7])
    def test_train_matches_reference(self, use_regularizer, seed):
        scene = generate_scene(30, 12, 0.1, seed=seed)
        head, report = train(scene, LossConfig(), use_regularizer, epochs=300, seed=seed)
        ref_head, ref_report = reference_train(scene, LossConfig(), use_regularizer,
                                               epochs=300, seed=seed)
        assert head.w.tobytes() == ref_head.w.tobytes()
        assert head.b.tobytes() == ref_head.b.tobytes()
        assert_reports_identical(report, ref_report)

    @pytest.mark.parametrize("kwargs", [
        dict(seeds=[1, 2, 3, 4], n_objects=50, epochs=2000),
        dict(seeds=[5, 9], n_objects=40, feature_dim=16, noise_sigma=0.3, epochs=700),
        dict(seeds=[1, 2, 3], n_objects=50, epochs=400, arms=(False,)),
        dict(seeds=[1, 2, 3], n_objects=50, epochs=400, arms=(True,)),
        dict(seeds=[2, 1], n_objects=50, epochs=400, arms=(False, True)),
        dict(seeds=[1, 2, 3], n_objects=1, epochs=300),
        dict(seeds=[1, 2, 3], n_objects=50, epochs=1),
        dict(seeds=[3], n_objects=200, feature_dim=24, epochs=300, lr=1e-4),
        # the shape of perfbench's toy-wide workload
        dict(seeds=[0], n_objects=1000, epochs=200, cfg=LossConfig(beta=0.02)),
    ])
    def test_paired_experiment_matches_reference(self, kwargs):
        kwargs = dict(kwargs)
        cfg = kwargs.pop("cfg", LossConfig())
        expected = reference_paired_runs(cfg=cfg, **kwargs)
        out = run_paired_experiment(cfg=cfg, **kwargs)
        reports = out["reports"]
        for key in ("regularized", "unregularized"):
            ref = [r for k, _, r in expected if k == key]
            assert len(reports[key]) == len(ref)
            for report, ref_report in zip(reports[key], ref):
                assert_reports_identical(report, ref_report)
        # the stacked core's heads, in run order, equal the reference heads
        scenes = [generate_scene(kwargs["n_objects"], kwargs.get("feature_dim", 24),
                                 kwargs.get("noise_sigma", 0.1), seed)
                  for seed in kwargs["seeds"]]
        trained = toy_trainer._train_runs(scenes, kwargs["seeds"],
                                          kwargs.get("arms", (True, False)), cfg,
                                          lr=kwargs.get("lr", 1e-3), epochs=kwargs["epochs"])
        for (head, _), (_, ref_head, _) in zip(trained, expected, strict=True):
            assert head.w.tobytes() == ref_head.w.tobytes()
            assert head.b.tobytes() == ref_head.b.tobytes()

    @pytest.mark.parametrize("seeds,arms", [
        pytest.param(seeds, arms, id=f"seeds{i}{suffix}")
        for arms, suffix in (((True, False), ""), ((False, True), "-unregularized-first"))
        for i, seeds in enumerate([[1, 2, 3], [4, 6], [6, 4], [3, 7, 2], [11, 4, 6]])])
    def test_divergence_matches_reference(self, seeds, arms):
        # M = 100 at the CLI defaults: the regularised arm diverges on seeds
        # 2 and 7 (last finite epoch 12), 4 (17), 6 (11) and 11 (23); seeds
        # 1 and 3 converge. In [4, 6] the earlier run diverges at the later
        # epoch; in [3, 7, 2] two runs diverge in the same epoch. In
        # [11, 4, 6] each earlier run diverges later than the next, so the
        # error names seed 11 though seeds 4 and 6 diverge first. With the
        # unregularised arm first, run 0 never diverges, so the loop runs
        # to the end and the error names a later, regularised run.
        cfg = LossConfig()
        with pytest.raises(TrainingDiverged) as expected:
            reference_paired_runs(seeds, cfg, n_objects=100, arms=arms)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingDiverged) as exc:
                run_paired_experiment(seeds, cfg, n_objects=100, arms=arms)
        assert exc.value.epoch == expected.value.epoch
        assert str(exc.value) == str(expected.value)

    def test_training_stops_once_run_zero_diverges(self, monkeypatch):
        # Run 0 (seed 2, regularised) fails at epoch 13: no later run can
        # be named, so epochs 0-13 are the only ones trained.
        calls = []

        def counting_quadratic_form(b, m, beta):
            calls.append(beta)
            return locality.quadratic_form(b, m, beta)

        monkeypatch.setattr(toy_trainer, "quadratic_form", counting_quadratic_form)
        with pytest.raises(TrainingDiverged,
                           match=r"last finite epoch was 12 \(regularized arm, seed 2\)$"):
            run_paired_experiment([2, 1], LossConfig(), n_objects=100)
        assert len(calls) == 14

    def test_run_zero_behind_a_run_that_fails_first_is_named(self):
        # With the unregularised arm first, run 0 is unregularised and run 1
        # regularised. beta = 1e308 fails run 1 at epoch 0, lr = 1e308 fails
        # run 0 one epoch later: trained one by one, run 0 fails first.
        with pytest.raises(TrainingDiverged, match=r"^training diverged; last finite epoch "
                                                   r"was 0 \(unregularized arm, seed 1\)$"):
            run_paired_experiment([1], LossConfig(beta=1e308), lr=1e308, epochs=5,
                                  arms=(False, True))

    def test_later_run_diverging_first_does_not_hide_an_earlier_one(self):
        with pytest.raises(TrainingDiverged,
                           match=r"was 17 \(regularized arm, seed 4\)$"):
            run_paired_experiment([4, 6], LossConfig(), n_objects=100)

    def test_cli_divergence_exit_code_and_message(self, tmp_path, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["train-toy", "--out", str(tmp_path / "toy.json"),
                             "--n-objects", "100", "--n-seeds", "3"])
        assert code == 2
        assert capsys.readouterr().err == (
            "train-toy: training diverged; last finite epoch was 12 "
            "(regularized arm, seed 2)\n")
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not (tmp_path / "toy.json").exists()

    def test_final_state_divergence_matches_reference(self):
        # Seed 2's regularised run diverges at epoch 13 at M = 100: in a
        # 13-epoch run, that is the state the last update leaves.
        cfg = LossConfig()
        with pytest.raises(TrainingDiverged) as expected:
            reference_paired_runs([1, 2, 3], cfg, n_objects=100, epochs=13)
        with pytest.raises(TrainingDiverged) as exc:
            run_paired_experiment([1, 2, 3], cfg, n_objects=100, epochs=13)
        assert str(exc.value) == str(expected.value) == (
            "training diverged; last finite epoch was 12 (regularized arm, seed 2)")

    def test_final_state_overflow_exits_two(self, tmp_path, capsys):
        # lr = 1e308 overflows the one update of a one-epoch run: epoch 0
        # is finite, the state its update leaves is not. The suite turns
        # any numpy warning into an error.
        code = cli.main(["train-toy", "--out", str(tmp_path / "toy.json"), "--lr", "1e308",
                         "--n-seeds", "1", "--epochs", "1"])
        assert code == 2
        assert capsys.readouterr().err == (
            "train-toy: training diverged; last finite epoch was 0 (regularized arm, seed 1)\n")
        assert not (tmp_path / "toy.json").exists()

    def test_divergence_at_epoch_zero_names_no_epoch(self, tmp_path, capsys):
        # beta = 1e308 overflows the regulariser on the first epoch.
        code = cli.main(["train-toy", "--out", str(tmp_path / "toy.json"), "--beta", "1e308",
                         "--n-seeds", "1", "--epochs", "5"])
        assert code == 2
        assert capsys.readouterr().err == (
            "train-toy: training diverged; no epoch was finite (regularized arm, seed 1)\n")
        assert not (tmp_path / "toy.json").exists()

    def test_no_runs(self):
        out = run_paired_experiment([], LossConfig())
        assert out == {"reports": {"regularized": [], "unregularized": []},
                       "summary": {}}
