import json

import numpy as np
import pytest

from lpspec.lsd import EquationVariant, SolverConfig, marchenko_pastur
from lpspec.process import CoefficientModel
from lpspec.spectra import EigensolverError
from lpspec.verify import (
    CalibrationError,
    EnsembleConfig,
    StudyResult,
    calibrate_equation_variant,
    convergence_study,
    derive_seed,
    run_ensemble,
    splitmix64,
    trace_moment_check,
)

WHITE = CoefficientModel.white_noise()


class TestSeedMixing:
    def test_splitmix64_reference_value(self):
        # first output of the SplitMix64 sequence seeded with zero
        assert splitmix64(0) == 0xE220A8397B1DCDAF

    def test_avalanche_distinctness(self):
        seeds = {derive_seed(12345, r) for r in range(2000)}
        assert len(seeds) == 2000

    def test_pure_function(self):
        assert derive_seed(7, 3) == derive_seed(7, 3)

    def test_64_bit_range(self):
        s = derive_seed(2**63, 2**20)
        assert 0 <= s < 2**64


class TestEnsembleConfig:
    def test_memory_budget(self):
        with pytest.raises(ValueError, match="budget"):
            EnsembleConfig(model=WHITE, p=100_000, n=1000, replicates=10, base_seed=0)

    def test_validation(self):
        with pytest.raises(ValueError):
            EnsembleConfig(model=WHITE, p=0, n=4, replicates=1, base_seed=0)
        with pytest.raises(ValueError):
            EnsembleConfig(model=WHITE, p=4, n=4, replicates=0, base_seed=0)

    def test_replicate_specs_differ(self):
        cfg = EnsembleConfig(model=WHITE, p=4, n=8, replicates=3, base_seed=1)
        seeds = {cfg.replicate_spec(r).innovations.seed for r in range(3)}
        assert len(seeds) == 3


class TestRunEnsemble:
    def test_deterministic_and_jobs_invariant(self):
        mp = marchenko_pastur(1.0)
        cfg1 = EnsembleConfig(model=WHITE, p=32, n=32, replicates=4, base_seed=5, jobs=1)
        cfg4 = EnsembleConfig(model=WHITE, p=32, n=32, replicates=4, base_seed=5, jobs=4)
        rep1 = run_ensemble(cfg1, candidates={"mp": mp})
        rep1b = run_ensemble(cfg1, candidates={"mp": mp})
        rep4 = run_ensemble(cfg4, candidates={"mp": mp})
        doc1 = json.dumps(rep1.to_json(), sort_keys=True)
        assert doc1 == json.dumps(rep1b.to_json(), sort_keys=True)
        for a, b in zip(rep1.eigenvalues, rep4.eigenvalues):
            np.testing.assert_array_equal(a, b)
        # jobs is not part of the reproducibility-relevant payload
        assert rep1.pooled_ks == rep4.pooled_ks

    def test_white_noise_matches_mp_at_moderate_size(self):
        cfg = EnsembleConfig(model=WHITE, p=128, n=128, replicates=2, base_seed=3)
        rep = run_ensemble(cfg, candidates={"mp": marchenko_pastur(1.0)})
        assert rep.pooled_ks["mp"] <= 0.1
        assert 0.0 <= rep.pooled_w1["mp"]

    def test_fractional_model_end_to_end(self):
        # antipersistent fractional filter: spectral density vanishes at 0
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model = CoefficientModel.farima(-0.2)
        cfg = EnsembleConfig(
            model=model, p=256, n=256, replicates=3, base_seed=9, tail_tol=1e-6
        )
        rep = run_ensemble(cfg)
        assert rep.pooled_ks["normalized-yinv-direct"] <= 0.05

    def test_rank_deficient_spectra_carry_exact_zero_atom(self):
        # p > n: half the eigenvalues are exact zeros, matching the scaled law
        cfg = EnsembleConfig(model=WHITE, p=128, n=64, replicates=4, base_seed=3)
        rep = run_ensemble(cfg, candidates={"mp": marchenko_pastur(2.0, 0.5)})
        pooled = np.concatenate(rep.eigenvalues)
        assert np.mean(pooled == 0.0) == 0.5
        assert rep.pooled_ks["mp"] <= 0.1

    def test_pooling_reduces_fluctuation(self):
        mp = marchenko_pastur(1.0)
        wins = 0
        for trial in range(5):
            pooled = run_ensemble(
                EnsembleConfig(model=WHITE, p=96, n=96, replicates=5, base_seed=100 + trial),
                candidates={"mp": mp},
            ).pooled_ks["mp"]
            single = run_ensemble(
                EnsembleConfig(model=WHITE, p=96, n=96, replicates=1, base_seed=100 + trial),
                candidates={"mp": mp},
            ).pooled_ks["mp"]
            wins += pooled <= single
        assert wins >= 4

    def test_failed_replicate_recorded(self, monkeypatch):
        import lpspec.verify as verify_mod

        real = verify_mod.sym_eigenvalues
        calls = {"count": 0}

        def flaky(matrix):
            calls["count"] += 1
            if calls["count"] == 2:
                raise EigensolverError("synthetic failure")
            return real(matrix)

        monkeypatch.setattr(verify_mod, "sym_eigenvalues", flaky)
        cfg = EnsembleConfig(model=WHITE, p=8, n=8, replicates=3, base_seed=1)
        rep = run_ensemble(cfg, candidates={})
        assert rep.failed_replicates == (1,)
        assert len(rep.eigenvalues) == 2

    def test_pooled_spectrum_is_valid_cdf(self):
        cfg = EnsembleConfig(model=WHITE, p=16, n=16, replicates=3, base_seed=9)
        rep = run_ensemble(cfg, candidates={})
        pooled = rep.pooled_spectrum()
        cdf = pooled.cdf()
        xs = np.linspace(-1, 5, 200)
        vals = np.asarray(cdf.cdf(xs))
        assert np.all(np.diff(vals) >= 0)
        assert vals[0] == 0.0 and vals[-1] == 1.0


class TestTraceMoment:
    @pytest.mark.parametrize(
        "model,target",
        [
            (WHITE, 1.0),
            (CoefficientModel.ma([0.5]), 1.25),
            (CoefficientModel.ar1(0.5), 4.0 / 3.0),
        ],
    )
    def test_targets(self, model, target):
        cfg = EnsembleConfig(model=model, p=128, n=128, replicates=6, base_seed=7)
        check = trace_moment_check(cfg, tolerance=0.05)
        assert check.target == pytest.approx(target, rel=1e-9)
        assert check.passed, f"relative error {check.relative_error:.4f}"

    def test_rectangular_target(self):
        cfg = EnsembleConfig(model=WHITE, p=64, n=128, replicates=4, base_seed=7)
        check = trace_moment_check(cfg, tolerance=0.05)
        assert check.target == 2.0
        assert check.passed

    def test_report_stats_equal_resimulated(self):
        cfg = EnsembleConfig(model=CoefficientModel.ma([0.5]), p=48, n=80, replicates=3, base_seed=7)
        report = run_ensemble(cfg, candidates={})
        assert trace_moment_check(cfg, report=report) == trace_moment_check(cfg)


class TestCalibration:
    def test_degenerate_ratio_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            calibrate_equation_variant(p=64, n=64, replicates=2, base_seeds=(1,))

    def test_small_scale_adjudication(self):
        verdict = calibrate_equation_variant(
            p=64, n=128, replicates=4, base_seeds=(11,), pass_threshold=0.08
        )
        assert verdict.selected == EquationVariant("normalized", "yinv", "direct")
        assert verdict.confirmation["passed"]
        labels = {e["variant"] for e in verdict.evidence}
        assert len(labels) == 8

    def test_ambiguity_raises_with_evidence(self):
        with pytest.raises(CalibrationError) as err:
            calibrate_equation_variant(
                p=64, n=128, replicates=2, base_seeds=(1,), pass_threshold=1e-6
            )
        assert err.value.evidence


class TestConvergenceStudy:
    def test_single_row(self):
        res = convergence_study(WHITE, 1.0, [48], replicates=2, base_seed=2)
        assert isinstance(res, StudyResult)
        assert len(res.rows) == 1
        assert res.spearman_rho == 0.0

    def test_sizes_must_ascend(self):
        with pytest.raises(ValueError, match="ascending"):
            convergence_study(WHITE, 1.0, [64, 32], replicates=1, base_seed=0)

    def test_law_solved_at_nominal_ratio(self, monkeypatch):
        # round(0.3 * 25) / 25 = 0.32 would be the first size's own ratio
        import lpspec.verify as verify_mod

        ratios = []
        solve = verify_mod.solve_lsd

        def recording(f, y, **kwargs):
            ratios.append(y)
            return solve(f, y, **kwargs)

        monkeypatch.setattr(verify_mod, "solve_lsd", recording)
        res = convergence_study(WHITE, 0.3, [25, 50], replicates=1, base_seed=0,
                                solver=SolverConfig(quadrature_points=64))
        assert ratios == [0.3]
        assert [(r["n"], r["p"]) for r in res.rows] == [(25, 8), (50, 15)]

    def test_trend_negative_rho(self):
        res = convergence_study(WHITE, 1.0, [32, 64, 128], replicates=3, base_seed=4)
        assert res.spearman_rho < 0
        assert all(set(r) == {"n", "p", "ks_median", "ks_iqr"} for r in res.rows)
