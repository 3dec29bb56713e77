import json
import logging
import tracemalloc
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from lpspec.lsd import EquationVariant, SolverConfig, all_variants, lsd_cdf, marchenko_pastur
from lpspec.matrices import gram, segment_matrix
from lpspec.process import (
    _BLOCK,
    CoefficientModel,
    InnovationSpec,
    ProcessSpec,
    default_horizon,
    simulate_record,
)
from lpspec.spectra import EigensolverError, EmpiricalSpectrum, ks_distance, sym_eigenvalues
from lpspec.verify import (
    CalibrationError,
    EnsembleConfig,
    StudyResult,
    _candidate_laws,
    _one_replicate,
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

    def test_nearby_base_seeds_do_not_share_streams(self):
        # base ^ replicate mixing gave only 256 seeds here: replicate r of
        # seed s was replicate r ^ s ^ t of seed t
        seeds = {derive_seed(10**6 + k, r) for k in range(8) for r in range(256)}
        assert len(seeds) == 2048

    def test_pure_function(self):
        assert derive_seed(7, 3) == derive_seed(7, 3)

    def test_64_bit_range(self):
        s = derive_seed(2**63, 2**20)
        assert 0 <= s < 2**64


class TestEnsembleConfig:
    def test_memory_budget(self):
        with pytest.raises(ValueError, match="budget"):
            EnsembleConfig(model=WHITE, p=100_000, n=1000, replicates=10, base_seed=0)

    def test_memory_budget_counts_one_record_per_replicate_in_flight(self):
        # the `mc` shape holds one record, one Gram and 17 x 2048 eigenvalues
        EnsembleConfig(model=CoefficientModel.ma([0.5]), p=2048, n=1024, replicates=17, base_seed=0)
        EnsembleConfig(model=WHITE, p=4096, n=4096, replicates=2, base_seed=0)
        with pytest.raises(ValueError, match=r"^p\*n\*min\(jobs, replicates\) \+ p\*replicates = "
                           r"33562624 exceeds the memory budget of 33554432 cells$"):
            EnsembleConfig(model=WHITE, p=4096, n=4096, replicates=2, base_seed=0, jobs=2)

    def test_validation(self):
        with pytest.raises(ValueError):
            EnsembleConfig(model=WHITE, p=0, n=4, replicates=1, base_seed=0)
        with pytest.raises(ValueError):
            EnsembleConfig(model=WHITE, p=4, n=4, replicates=0, base_seed=0)
        with pytest.raises(ValueError, match="^jobs must be >= 1$"):
            EnsembleConfig(model=WHITE, p=4, n=4, replicates=1, base_seed=0, jobs=0)

    def test_replicate_specs_differ(self):
        cfg = EnsembleConfig(model=WHITE, p=4, n=8, replicates=3, base_seed=1)
        seeds = {cfg.replicate_spec(r).innovations.seed for r in range(3)}
        assert len(seeds) == 3

    def test_replace_resolves_the_new_models_horizon(self):
        # the horizon is found once per config, so a replaced model gets its own
        config = EnsembleConfig(model=WHITE, p=4, n=8, replicates=1, base_seed=0)
        near_unit_root = CoefficientModel.ar1(0.999)
        replaced = replace(config, model=near_unit_root)
        assert config.resolved_horizon() == 8
        assert replaced.resolved_horizon() == default_horizon(near_unit_root, 8) > 8
        assert replaced.replicate_spec(0).horizon == replaced.to_json()["horizon"] == replaced.resolved_horizon()
        assert replace(config, horizon=12).resolved_horizon() == 12


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

    def test_failed_replicate_recorded(self, monkeypatch, caplog):
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
        with caplog.at_level(logging.WARNING, logger="lpspec.verify"):
            rep = run_ensemble(cfg, candidates={})
        assert rep.failed_replicates == (1,)
        assert len(rep.eigenvalues) == 2
        assert [r.getMessage() for r in caplog.records] == ["replicate 1 failed: synthetic failure"]

    def test_eigenvalues_kept_as_the_eigensolver_returns_them(self, monkeypatch):
        # a rounding-level negative eigenvalue is reported, not clipped to 0
        eigvalsh = np.linalg.eigvalsh

        def with_negative(m, *args, **kwargs):  # the sum, and so the trace check, holds
            ev = eigvalsh(m, *args, **kwargs)
            ev[-1] += ev[0] + 1e-17
            ev[0] = -1e-17
            return ev

        monkeypatch.setattr(np.linalg, "eigvalsh", with_negative)
        report = run_ensemble(EnsembleConfig(model=WHITE, p=8, n=16, replicates=2, base_seed=1), {})
        assert [evs[0] for evs in report.eigenvalues] == [-1e-17, -1e-17]

    def test_pooled_spectrum_is_valid_cdf(self):
        cfg = EnsembleConfig(model=WHITE, p=16, n=16, replicates=3, base_seed=9)
        rep = run_ensemble(cfg, candidates={})
        pooled = rep.pooled_spectrum()
        cdf = pooled.cdf()
        xs = np.linspace(-1, 5, 200)
        vals = np.asarray(cdf.cdf(xs))
        assert np.all(np.diff(vals) >= 0)
        assert vals[0] == 0.0 and vals[-1] == 1.0


def replicate_matrix(config, replicate):
    record = simulate_record(config.replicate_spec(replicate), config.shape.cells)
    return segment_matrix(record, config.shape)


class TestReplicateEigenvalues:
    MA = CoefficientModel.ma([0.5])

    @pytest.mark.parametrize("p, n", [(96, 40), (33, 32)])
    def test_smaller_side_at_p_above_n(self, p, n):
        config = EnsembleConfig(model=self.MA, p=p, n=n, replicates=2, base_seed=4)
        [(evs, _)] = _one_replicate(config, 1)
        assert evs.shape == (p,)
        assert np.all(np.diff(evs) >= 0)
        assert np.all(evs[: p - n] == 0.0)
        x = replicate_matrix(config, 1)
        full = np.linalg.eigvalsh(x @ x.T / p)
        np.testing.assert_allclose(evs[p - n :], full[p - n :], rtol=0, atol=1e-12 * full[-1])
        assert evs[p - n] > 1e-12 * full[-1]

    @pytest.mark.parametrize("p, n", [(40, 96), (32, 32)])
    def test_full_gram_at_p_up_to_n(self, p, n):
        config = EnsembleConfig(model=self.MA, p=p, n=n, replicates=2, base_seed=4)
        [(evs, trace_stat)] = _one_replicate(config, 1)
        x = replicate_matrix(config, 1)
        expected = np.clip(sym_eigenvalues(gram(x)).eigenvalues, 0, None)
        assert evs.tobytes() == expected.tobytes()
        assert trace_stat == float(np.sum(x * x)) / (p * p)

    @pytest.mark.parametrize("p, n", [(1024, 512), (512, 1024), (1024, 1024)])
    def test_replicate_holds_one_record_and_one_gram(self, p, n):
        # tracemalloc sees numpy's data allocations, not the copy LAPACK takes;
        # it sees imports too, so the first call (numpy.random's) is not traced
        config = EnsembleConfig(model=self.MA, p=p, n=n, replicates=1, base_seed=4)
        floor = 8 * (p * n + config.resolved_horizon() + min(p, n) ** 2)
        _one_replicate(config, 0)
        tracemalloc.start()
        try:
            _one_replicate(config, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert floor <= peak <= 1.01 * floor + 8 * _BLOCK

    def white_and_ma_kernels(self, config):
        return [c.replicate_spec(0).coefficient_array() for c in (config, replace(config, model=self.MA))]

    @pytest.mark.parametrize("p, n", [(1024, 512), (512, 1024), (1024, 1024)])
    def test_shared_replicate_holds_one_draw_and_one_gram(self, p, n):
        # white noise and MA(0.5) from one draw: a second record would add
        # 8 p n bytes.  The draws outlive the first eigensolve, so its
        # exact-symmetry mask (one byte per Gram cell) lands on top of them
        config = EnsembleConfig(model=WHITE, p=p, n=n, replicates=1, base_seed=4)
        kernels = self.white_and_ma_kernels(config)
        floor = 8 * (p * n + config.resolved_horizon() + min(p, n) ** 2)
        _one_replicate(config, 0, kernels)
        tracemalloc.start()
        try:
            _one_replicate(config, 0, kernels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert floor <= peak <= 1.01 * floor + 8 * _BLOCK + min(p, n) ** 2

    def test_shared_draw_matches_separate_ensembles(self):
        # eigenvalues bit for bit, at p > n too; no trace statistic is taken
        config = EnsembleConfig(model=WHITE, p=48, n=40, replicates=1, base_seed=4)
        shared = _one_replicate(config, 0, self.white_and_ma_kernels(config))
        separate = [_one_replicate(c, 0)[0][0] for c in (config, replace(config, model=self.MA))]
        assert [trace for _, trace in shared] == [None, None]
        assert [evs.tobytes() for evs, _ in shared] == [evs.tobytes() for evs in separate]

    def test_failed_eigensolve_drops_only_its_model(self, monkeypatch):
        import lpspec.verify as verify_mod

        real = verify_mod.sym_eigenvalues
        calls = []

        def flaky(matrix):
            calls.append(1)
            if len(calls) == 1:
                raise EigensolverError("synthetic failure")
            return real(matrix)

        monkeypatch.setattr(verify_mod, "sym_eigenvalues", flaky)
        config = EnsembleConfig(model=WHITE, p=16, n=32, replicates=1, base_seed=4)
        kernels = self.white_and_ma_kernels(config)
        white, ma = _one_replicate(config, 0, kernels)
        assert white is None and ma[0].shape == (16,)


def pooled_cdf(model, seed, distribution="gaussian"):
    """Step CDF of the pooled spectra of 8 replicates at p = n = 128."""
    config = EnsembleConfig(model=model, p=128, n=128, replicates=8, base_seed=seed,
                            distribution=distribution)
    return run_ensemble(config, candidates={}).pooled_spectrum().cdf()


def independent_copies_cdf(model, seed):
    """Step CDF of the pooled spectra of 8 replicates at p = n = 128 whose
    row i of replicate r is a record of its own, seeded derive_seed(seed, r p + i)."""
    config = EnsembleConfig(model=model, p=128, n=128, replicates=8, base_seed=seed)
    spectra = []
    horizon = config.resolved_horizon()
    for r in range(config.replicates):
        specs = (ProcessSpec(model, InnovationSpec(seed=derive_seed(seed, r * config.p + i)),
                             horizon, config.tail_tol) for i in range(config.p))
        rows = [simulate_record(spec, config.n) for spec in specs]
        spectra.append(sym_eigenvalues(gram(np.array(rows))).eigenvalues)
    return EmpiricalSpectrum(np.sort(np.concatenate(spectra))).cdf()


class TestPaperClaims:
    """The limiting law depends on the process only through its spectral
    density f, and on the innovations only through their bounded fourth
    moment; and the segmented matrix approximates p independent copies of
    X_t.  Each case compares the pooled spectra of two ensembles at
    different base seeds by the two-sample KS distance, which is exact.
    """

    # Seed-to-seed noise, measured with MA(0.5) on both sides over 40 seed
    # pairs (1000 + 2k against 1001 + 2k): median 0.0098, max 0.0127, in
    # steps of 1/1024.  MA(0.6) against MA(0.5) read at least 0.0264.
    BOUND = 0.02
    PAIRS = [(1000 + 2 * k, 1001 + 2 * k) for k in range(5)]
    MA = CoefficientModel.ma([0.5])

    def distances(self, other, distribution="gaussian"):
        return [ks_distance(pooled_cdf(self.MA, a), pooled_cdf(other, b, distribution))
                for a, b in self.PAIRS]

    def test_law_depends_only_on_f(self):
        # c = (0.5, 1.0) is a different process with f = |1 + 0.5 e^{iw}|^2
        assert max(self.distances(CoefficientModel.explicit([0.5, 1.0]))) <= self.BOUND

    @pytest.mark.parametrize("distribution", ["rademacher", "uniform"])
    def test_innovation_law_does_not_matter(self, distribution):
        assert max(self.distances(self.MA, distribution)) <= self.BOUND

    def test_segmented_matrix_matches_independent_copies(self):
        # p^-1 X X^T of one segmented record against p independent records.
        # Over 20 seed pairs (1000 + 2k against 1001 + 2k) this read median
        # 0.0098 and max 0.0117, the size of the seed-to-seed noise above;
        # the 5 pairs here take about 1.5 s on a 2-core machine
        distances = [ks_distance(pooled_cdf(self.MA, a), independent_copies_cdf(self.MA, b))
                     for a, b in self.PAIRS]
        assert max(distances) <= self.BOUND

    def test_bound_separates_a_different_f(self):
        assert min(self.distances(CoefficientModel.ma([0.6]))) > self.BOUND


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

    @pytest.mark.parametrize("distribution", ["gaussian", "rademacher", "uniform"])
    def test_white_noise_second_moment_at_finite_n(self, distribution):
        # for white noise E tr(M^2) / p = r^2 + r + r (sigma4 - 2) / p with
        # r = n / p, exactly at finite p and n; the bound is 4 standard errors
        p, n, r = 32, 64, 2.0
        cfg = EnsembleConfig(model=WHITE, p=p, n=n, replicates=1000, base_seed=7, distribution=distribution)
        stats = np.array([np.sum(ev * ev) / p for ev in run_ensemble(cfg, {}).eigenvalues])
        se = stats.std(ddof=1) / np.sqrt(stats.size)

        def target(sigma4):
            return r * r + r + r * (sigma4 - 2.0) / p

        assert abs(stats.mean() - target(InnovationSpec(distribution).sigma4)) <= 4.0 * se
        # the laws' targets lie far apart, so the check sees which law was drawn
        gaussian, rademacher = InnovationSpec("gaussian").sigma4, InnovationSpec("rademacher").sigma4
        assert target(gaussian) - target(rademacher) > 8.0 * se


def test_index_range_checked_before_any_draw(monkeypatch):
    # a record, a truncated matrix and a shared calibrate replicate pass the
    # one check in `filtered_records`: indices 1-J .. 16 take J + 16 > 2**31 draws
    import lpspec.process as process_mod
    from lpspec.matrices import truncated_segment_matrix

    monkeypatch.setattr(process_mod, "draw_innovations", lambda *args: pytest.fail("drew a record"))
    config = EnsembleConfig(model=WHITE, p=4, n=4, replicates=1, base_seed=0, horizon=2**31 - 8)
    confirm = replace(config, model=CoefficientModel.ma([0.5]))
    kernels = [c.replicate_spec(0).coefficient_array() for c in (config, confirm)]
    spec = confirm.replicate_spec(0)
    messages = set()
    for call in (lambda: simulate_record(spec, 16), lambda: truncated_segment_matrix(spec, config.shape),
                 lambda: _one_replicate(config, 0, kernels)):
        with pytest.raises(ValueError, match="index range") as err:
            call()
        messages.add(str(err.value))
    assert messages == {"record of length 16 at horizon 2147483640 exceeds the supported index range"}


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

    def test_evidence_records_whether_each_law_lies_in_the_unit_interval(self):
        # at y = 1/2 the raw-y equation has no atom, so raw-y-companion reads
        # the atom (0 - (1 - 1/2)) / (1/2) = -1 off it
        verdict = calibrate_equation_variant(
            p=64, n=128, replicates=4, base_seeds=(11,), pass_threshold=0.08
        )
        flags = {e["variant"]: e["law_in_range"] for e in verdict.evidence}
        assert flags["raw-y-companion"] is False
        assert flags["normalized-yinv-direct"] is True

    def test_pooled_ks_is_that_of_the_full_ensemble_report(self):
        seeds = (11, 12)
        verdict = calibrate_equation_variant(p=64, n=128, replicates=4, base_seeds=seeds,
                                             pass_threshold=0.08)
        config = EnsembleConfig(model=WHITE, p=64, n=128, replicates=4, base_seed=seeds[0],
                                variants=all_variants())
        candidates = {label: lsd_cdf(law) for label, law in _candidate_laws(config).items()}
        for seed in seeds:
            want = run_ensemble(replace(config, base_seed=seed), candidates).pooled_ks
            # float == is bit for bit on positive finite values
            assert {e["variant"]: e["ks_pooled"] for e in verdict.evidence if e["seed"] == seed} == want
        confirm = replace(config, model=CoefficientModel.ma([0.5]), variants=(verdict.selected,))
        assert verdict.confirmation["ks_pooled"] == run_ensemble(confirm).pooled_ks[verdict.selected.label]

    def test_one_ks_distance_per_candidate_and_ensemble(self, monkeypatch):
        # three white-noise ensembles against 8 laws and the confirmation
        # against one: no per-replicate table
        import lpspec.verify as verify_mod

        calls = []
        ks = verify_mod.ks_distance
        monkeypatch.setattr(verify_mod, "ks_distance", lambda f, g: calls.append(1) or ks(f, g))
        calibrate_equation_variant(p=64, n=128, replicates=4)
        assert len(calls) == 3 * 8 + 1

    def test_each_stream_drawn_once(self, monkeypatch):
        # the confirmation filters the first seed's white-noise streams
        import lpspec.process as process_mod

        seeds = []
        draw = process_mod.draw_innovations
        monkeypatch.setattr(process_mod, "draw_innovations",
                            lambda spec, count: seeds.append(spec.seed) or draw(spec, count))
        calibrate_equation_variant(p=64, n=128, replicates=4)
        assert sorted(seeds) == sorted(derive_seed(s, r) for s in (1, 2, 3) for r in range(4))

    def test_confirmation_failing_every_replicate_raises(self, monkeypatch):
        import lpspec.verify as verify_mod

        real = verify_mod.sym_eigenvalues
        calls = []

        def failing_every_second(matrix):  # the MA(0.5) Gram of each first-seed replicate
            calls.append(1)
            if len(calls) <= 8 and len(calls) % 2 == 0:
                raise EigensolverError("synthetic failure")
            return real(matrix)

        monkeypatch.setattr(verify_mod, "sym_eigenvalues", failing_every_second)
        with pytest.raises(EigensolverError, match="all 4 replicates failed"):
            calibrate_equation_variant(p=64, n=128, replicates=4)

    def test_one_solve_per_equation(self, monkeypatch):
        # the role does not enter the equation: 8 variants are 4 equations
        import lpspec.verify as verify_mod

        solved = []
        solve = verify_mod.solve_lsd

        def counting(f, y, **kwargs):
            solved.append(kwargs["variant"])
            return solve(f, y, **kwargs)

        monkeypatch.setattr(verify_mod, "solve_lsd", counting)
        config = EnsembleConfig(model=WHITE, p=32, n=64, replicates=1, base_seed=0,
                                variants=all_variants(), solver=SolverConfig(quadrature_points=2),
                                grid_points=64)
        cdfs = {label: lsd_cdf(law) for label, law in _candidate_laws(config).items()}
        assert len(solved) == 4 and {v.role for v in solved} == {"direct"}
        assert list(cdfs) == [v.label for v in all_variants()]

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

    def test_takes_only_the_per_replicate_ks(self, monkeypatch):
        # trend.csv and study.json hold only the per-replicate KS statistics
        import lpspec.verify as verify_mod

        calls = []
        for name in ("ks_distance", "wasserstein1"):
            distance = getattr(verify_mod, name)
            monkeypatch.setattr(verify_mod, name, lambda cdf, law, name=name, distance=distance:
                                calls.append(name) or distance(cdf, law))
        convergence_study(WHITE, 1.0, [16, 32], replicates=3, base_seed=0)
        assert calls == ["ks_distance"] * 6

    def test_sizes_must_not_be_empty(self):
        with pytest.raises(ValueError, match="sizes"):
            convergence_study(WHITE, 1.0, [], replicates=1, base_seed=0)

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

    # the second list rounds differently in the other off-diagonal element
    @pytest.mark.parametrize("medians", [[0.3, 0.2, 0.2, 0.1], [0.1, 0.1, 0.2, 0.2, 0.3],
                                         [0.05, 0.3, 0.3, 0.3]])
    def test_rho_is_spearman_with_ties(self, monkeypatch, medians):
        import lpspec.verify as verify_mod
        from scipy import stats

        sizes = [16 * (k + 1) for k in range(len(medians))]
        by_n = dict(zip(sizes, medians))
        # each replicate's KS is the one value its ensemble reports
        monkeypatch.setattr(verify_mod, "_scored_cdfs", lambda config, y: {config.variants[0].label: None})
        monkeypatch.setattr(verify_mod, "run_ensemble", lambda config, candidates: SimpleNamespace(
            eigenvalues=[by_n[config.n]]))
        monkeypatch.setattr(verify_mod, "EmpiricalCdf", lambda evs: evs)
        monkeypatch.setattr(verify_mod, "ks_distance", lambda cdf, law: cdf)
        res = convergence_study(WHITE, 1.0, sizes, replicates=1, base_seed=0)
        assert [r["ks_median"] for r in res.rows] == medians
        assert res.spearman_rho == stats.spearmanr(sizes, medians).statistic

    def test_tied_medians_read_rho_zero_without_a_warning(self):
        # p = 1 at both sizes, so every replicate's KS is 1: the correlation
        # of two rank vectors, one constant, would divide by zero
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = convergence_study(WHITE, 1e-6, [4, 8], replicates=2, base_seed=0)
        assert [(r["p"], r["ks_median"]) for r in res.rows] == [(1, 1.0), (1, 1.0)]
        assert res.spearman_rho == 0.0

    def test_trend_negative_rho(self):
        res = convergence_study(WHITE, 1.0, [32, 64, 128], replicates=3, base_seed=4)
        assert res.spearman_rho < 0
        assert all(set(r) == {"n", "p", "ks_median", "ks_iqr"} for r in res.rows)
