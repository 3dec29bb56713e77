import ctypes
import json
import logging
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import lpspec
from lpspec.lsd import EquationVariant, SolverConfig, all_variants, lsd_cdf, marchenko_pastur
from lpspec.matrices import gram, segment_matrix
from lpspec.process import (
    _BLOCK,
    CoefficientModel,
    InnovationSpec,
    ProcessSpec,
    default_horizon,
    filtered_records,
    simulate_record,
)
from lpspec.spectra import EigensolverError, EmpiricalSpectrum, ks_distance, sym_eigenvalues
from lpspec.verify import (
    CalibrationError,
    EnsembleConfig,
    StudyResult,
    _candidate_laws,
    _cells,
    _grams,
    _lanes,
    _one_blas_thread,
    _one_lane,
    _openblas,
    _replicates,
    calibrate_equation_variant,
    convergence_study,
    derive_seed,
    run_ensemble,
    splitmix64,
    trace_moment_check,
)

WHITE = CoefficientModel.white_noise()


def failing_on(monkeypatch, grams):
    """Make verify's `sym_eigenvalues` fail with "synthetic failure" on each
    of `grams`, whichever lane eigensolves it."""
    import lpspec.verify as verify_mod

    real = verify_mod.sym_eigenvalues

    def failing(matrix, **kwargs):
        if any(np.array_equal(matrix, g) for g in grams):
            raise EigensolverError("synthetic failure")
        return real(matrix, **kwargs)

    monkeypatch.setattr(verify_mod, "sym_eigenvalues", failing)


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
        # one 10000 x 10000 record is three times the budget
        with pytest.raises(ValueError, match="budget"):
            EnsembleConfig(model=WHITE, p=10_000, n=10_000, replicates=10, base_seed=0)

    def test_memory_budget_counts_one_record_per_replicate_in_flight(self):
        # the `mc` shape holds one record, one Gram and 17 x 2048 eigenvalues
        EnsembleConfig(model=CoefficientModel.ma([0.5]), p=2048, n=1024, replicates=17, base_seed=0)
        EnsembleConfig(model=WHITE, p=4096, n=4096, replicates=2, base_seed=0)
        with pytest.raises(ValueError, match=r"^lanes\*cells_per_lane \+ p\*replicates = 2\*16777216 \+ 8192 = "
                           r"33562624 exceeds the memory budget of 33554432 cells$"):
            EnsembleConfig(model=WHITE, p=4096, n=4096, replicates=2, base_seed=0, jobs=2)

    def test_memory_budget_counts_a_record_per_lane(self):
        # at jobs 1 a 512 x 512 ensemble runs on two lanes, each holding a
        # record, where two records fit the budget, and else on one; two
        # jobs need two records
        fits = EnsembleConfig(model=WHITE, p=512, n=512, replicates=64512, base_seed=0)
        one = EnsembleConfig(model=WHITE, p=512, n=512, replicates=64513, base_seed=0)
        assert (_lanes(fits), _lanes(one)) == (2, 1)
        with pytest.raises(ValueError, match=r"^lanes\*cells_per_lane \+ p\*replicates = 2\*262144 \+ 33030656 = "
                           r"33554944 exceeds the memory budget of 33554432 cells$"):
            EnsembleConfig(model=WHITE, p=512, n=512, replicates=64513, base_seed=0, jobs=2)

    def test_a_streamed_lane_counts_a_piece_and_two_grams(self):
        # at p > n a lane holds a piece of rows and two n x n Grams, not a
        # record: y = 16 at n = 1024 runs on two lanes, and y = 128 at n = 512
        # fits, each lane counting 64 or 128 rows and two Grams
        ma = CoefficientModel.ma([0.5])
        y16 = EnsembleConfig(model=ma, p=16384, n=1024, replicates=4, base_seed=0)
        y128 = EnsembleConfig(model=ma, p=65536, n=512, replicates=1, base_seed=0)
        assert _lanes(y16) == 2 and _cells(y16, 2) == 2 * (64 * 1024 + 2 * 1024 ** 2) + 4 * 16384
        assert _cells(y128, 1) == 128 * 512 + 2 * 512 ** 2 + 65536
        # where two Grams outweigh the record, the record is counted
        wide = EnsembleConfig(model=WHITE, p=5000, n=4096, replicates=1, base_seed=0)
        assert _cells(wide, 1) == 5000 * 4096 + 5000

    @pytest.mark.parametrize("model, p, n, replicates", [
        (CoefficientModel.ma([0.5]), 2048, 1024, 6),
        (WHITE, 256, 512, 10),
        (CoefficientModel.ma([0.5]), 256, 512, 10),
        (CoefficientModel.ma([0.5]), 512, 256, 2),
    ], ids=["mc", "calibrate", "calibrate-shared", "toy"])
    def test_benchmark_shapes_run_on_two_lanes(self, model, p, n, replicates):
        assert _lanes(EnsembleConfig(model=model, p=p, n=n, replicates=replicates, base_seed=0)) == 2

    def test_an_fft_lane_counts_its_transforms(self):
        # FARIMA(-0.2) at tail_tol 1e-6 has 1183 taps, so a 2048 x 1024 record
        # is convolved through a 2**22-point FFT: a lane counts six transform
        # lengths and two Grams, and one lane fits where two do not
        farima = CoefficientModel.farima(-0.2)
        config = EnsembleConfig(model=farima, p=2048, n=1024, replicates=4, base_seed=0, tail_tol=1e-6)
        assert config.resolved_horizon() == 1182
        assert _lanes(config) == 1 and _cells(config, 1) == 6 * 2**22 + 2 * 1024**2 + 4 * 2048
        with pytest.raises(ValueError, match=r"^lanes\*cells_per_lane \+ p\*replicates = 2\*27262976 \+ 8192 = "
                           r"54534144 exceeds the memory budget of 33554432 cells$"):
            replace(config, jobs=2)
        # twice the record needs a 2**23-point FFT, which no lane holds
        with pytest.raises(ValueError, match=r"^lanes\*cells_per_lane \+ p\*replicates = 1\*52428800 \+ 16384 = "
                           r"52445184 exceeds the memory budget of 33554432 cells$"):
            replace(config, p=4096)

    def test_an_fft_ensemble_peaks_within_its_count(self):
        # tracemalloc misses pocketfft's scratch, so a fresh interpreter reads
        # its own peak RSS before and after a two-lane ensemble on 2**20-point FFTs
        code = (
            "import resource\n"
            "from lpspec.process import CoefficientModel\n"
            "from lpspec.verify import EnsembleConfig, _cells, _lanes, run_ensemble\n"
            "config = EnsembleConfig(model=CoefficientModel.farima(-0.2), p=512, n=1024, replicates=4,\n"
            "                        base_seed=3, tail_tol=1e-6)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "run_ensemble(config, {})\n"
            "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "print(_lanes(config), _cells(config, 2), 1024 * (after - before))\n"
        )
        src = str(Path(lpspec.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120, check=True)
        lanes, cells, grown = map(int, proc.stdout.split())
        assert lanes == 2 and cells == 2 * (6 * 2**20 + 2 * 512**2) + 4 * 512
        assert grown <= 8 * cells

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
        cfg = EnsembleConfig(model=WHITE, p=8, n=8, replicates=3, base_seed=1)
        failing_on(monkeypatch, [gram(replicate_matrix(cfg, 1))])
        with caplog.at_level(logging.WARNING, logger="lpspec.verify"):
            rep = run_ensemble(cfg, candidates={})
        assert rep.failed_replicates == (1,)
        assert len(rep.eigenvalues) == 2
        assert [r.getMessage() for r in caplog.records] == ["replicate 1 failed: synthetic failure"]

    def test_eigenvalues_kept_as_the_eigensolver_returns_them(self, monkeypatch):
        # a rounding-level negative eigenvalue is reported, not clipped to 0
        lib = _openblas()
        dsyevd = lib.scipy_LAPACKE_dsyevd64_

        def with_negative(layout, jobz, uplo, n, a, lda, w):  # the sum, and so the trace check, holds
            info = dsyevd(layout, jobz, uplo, n, a, lda, w)
            ev = np.ctypeslib.as_array(ctypes.cast(w, ctypes.POINTER(ctypes.c_double)), (n,))
            ev[-1] += ev[0] + 1e-17
            ev[0] = -1e-17
            return info

        monkeypatch.setattr(lib, "scipy_LAPACKE_dsyevd64_", with_negative)
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


def held(config):
    """Cells of a record a lane holds at once: all of it at p <= n, else a
    piece of max(1, _BLOCK // n) rows."""
    return config.shape.cells if config.p <= config.n else min(config.p, max(1, _BLOCK // config.n)) * config.n


class TestReplicateEigenvalues:
    MA = CoefficientModel.ma([0.5])

    @pytest.mark.parametrize("p, n", [(96, 40), (33, 32)])
    def test_smaller_side_at_p_above_n(self, p, n):
        config = EnsembleConfig(model=self.MA, p=p, n=n, replicates=2, base_seed=4)
        [(evs, _)] = _one_lane(config, [1])
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
        [(evs, trace_stat)] = _one_lane(config, [1])
        x = replicate_matrix(config, 1)
        expected = np.clip(sym_eigenvalues(gram(x)).eigenvalues, 0, None)
        assert evs.tobytes() == expected.tobytes()
        assert trace_stat == float(np.sum(x * x)) / (p * p)

    @pytest.mark.parametrize("p, n", [(1024, 512), (512, 1024), (1024, 1024)])
    def test_replicate_holds_one_record_and_one_gram(self, p, n):
        # tracemalloc sees numpy's data allocations, not LAPACK's workspace;
        # it sees imports too, so the first call (numpy.random's) is not
        # traced.  At p > n the record is held a piece of rows at a time
        config = EnsembleConfig(model=self.MA, p=p, n=n, replicates=1, base_seed=4)
        floor = 8 * (held(config) + config.resolved_horizon() + min(p, n) ** 2)
        _one_lane(config, [0])
        tracemalloc.start()
        try:
            _one_lane(config, [0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert floor <= peak <= 1.01 * floor + 8 * _BLOCK

    @pytest.mark.parametrize("p, n", [(1024, 512), (512, 1024), (1024, 1024)])
    def test_shared_replicate_holds_one_draw_and_one_gram(self, p, n):
        # white noise and MA(0.5) from one draw: a second record would add
        # 8 p n bytes.  The draws outlive the first eigensolve, whose
        # eigenvalues land on top of them.  At p > n each record fills its
        # own Gram from the same pieces of draws
        config = EnsembleConfig(model=self.MA, p=p, n=n, replicates=1, base_seed=4)
        grams = 1 if p <= n else 2
        floor = 8 * (held(config) + config.resolved_horizon() + grams * min(p, n) ** 2)
        _one_lane(config, [0], with_draws=True)
        tracemalloc.start()
        try:
            _one_lane(config, [0], with_draws=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert floor <= peak <= 1.01 * floor + 8 * _BLOCK + min(p, n) ** 2

    def test_shared_draw_matches_separate_ensembles(self):
        # eigenvalues bit for bit, at p > n too; no trace statistic is taken
        config = EnsembleConfig(model=self.MA, p=48, n=40, replicates=1, base_seed=4)
        shared = _one_lane(config, [0], with_draws=True)
        separate = [_one_lane(c, [0])[0][0] for c in (replace(config, model=WHITE), config)]
        assert [trace for _, trace in shared] == [None, None]
        assert [evs.tobytes() for evs, _ in shared] == [evs.tobytes() for evs in separate]

    def test_failed_eigensolve_drops_only_its_model(self, monkeypatch):
        import lpspec.verify as verify_mod

        real = verify_mod.sym_eigenvalues
        calls = []

        def flaky(matrix, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise EigensolverError("synthetic failure")
            return real(matrix, **kwargs)

        monkeypatch.setattr(verify_mod, "sym_eigenvalues", flaky)
        config = EnsembleConfig(model=self.MA, p=16, n=32, replicates=1, base_seed=4)
        white, ma = _one_lane(config, [0], with_draws=True)
        assert white is None and ma[0].shape == (16,)

    @pytest.mark.parametrize("model", [MA, CoefficientModel.ar1(0.9)], ids=["ma", "ar1"])
    def test_streamed_gram_is_the_whole_records_within_rounding(self, model):
        # p > n in 8 pieces of 128 rows, each added into the Gram's upper
        # triangle: the strict lower one stays zero, the upper one is within
        # 1e-15 of the Gram of the whole record's, and the trace statistic is
        # the one the trace check takes
        config = EnsembleConfig(model=model, p=1024, n=512, replicates=1, base_seed=4)
        [(g, trace)] = [(g.copy(), trace) for g, trace in _grams(config, 0)]
        whole = gram(replicate_matrix(config, 0).T)
        assert np.all(np.tril(g, -1) == 0.0)
        assert np.max(np.abs(g - np.triu(whole))) <= 1e-15 * np.max(np.abs(whole))
        assert trace == trace_moment_check(config).values[0]
        evs = _one_lane(config, [0])[0][0]
        np.testing.assert_allclose(evs[512:], np.linalg.eigvalsh(whole) / 2, rtol=0, atol=1e-13 * evs[-1])

    @pytest.mark.parametrize("shared", [False, True], ids=["plain", "shared"])
    def test_every_streamed_gram_is_handed_over_as_its_upper_triangle(self, monkeypatch, shared):
        # on two lanes, each record's Gram reaches the eigensolver with a
        # zero strict lower triangle: nothing mirrors it
        import lpspec.verify as verify_mod

        solve, seen = verify_mod.sym_eigenvalues, []

        def spy(matrix, **kwargs):
            seen.append((matrix.shape, kwargs, bool(np.all(np.tril(matrix, -1) == 0.0))))
            return solve(matrix, **kwargs)

        monkeypatch.setattr(verify_mod, "sym_eigenvalues", spy)
        config = EnsembleConfig(model=self.MA, p=600, n=256, replicates=3, base_seed=5)
        results = _replicates(config, with_draws=shared)
        assert None not in results
        assert seen == [((256, 256), {"overwrite": True}, True)] * len(results)


@pytest.fixture
def no_openblas(monkeypatch):
    """`_openblas` stubbed to None wherever the ensemble looks it up: numpy alone."""
    import lpspec.matrices
    import lpspec.spectra
    import lpspec.verify

    for module in (lpspec.matrices, lpspec.spectra, lpspec.verify):
        monkeypatch.setattr(module, "_openblas", lambda: None)


class TestWithoutOpenblas:
    MA = CoefficientModel.ma([0.5])

    @pytest.mark.parametrize("p, n", [(128, 256), (600, 256)], ids=["whole", "streamed"])
    def test_valid_reports_through_numpy(self, monkeypatch, no_openblas, p, n):
        eigvalsh, sides = np.linalg.eigvalsh, []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: sides.append(m.shape) or eigvalsh(m))
        config = EnsembleConfig(model=self.MA, p=p, n=n, replicates=3, base_seed=2)
        report = run_ensemble(config)
        assert sides == [(min(p, n),) * 2] * 3
        assert report.failed_replicates == () and report.pooled_ks["normalized-yinv-direct"] <= 0.05
        assert list(report.trace_stats) == list(trace_moment_check(config).values)
        for r, evs in enumerate(report.eigenvalues):
            x = replicate_matrix(config, r)
            whole = eigvalsh(gram(x) if p <= n else gram(x.T)) * (min(p, n) / p)
            np.testing.assert_allclose(evs[p - min(p, n):], whole, rtol=0, atol=1e-13 * whole[-1])

    @pytest.mark.parametrize("p, n", [(128, 256), (600, 256)], ids=["whole", "streamed"])
    def test_a_nan_gram_fails_its_replicate_through_numpy(self, monkeypatch, caplog, no_openblas, p, n):
        # eigvalsh returns NaN eigenvalues, or raises, and either fails the replicate
        import lpspec.verify as verify_mod

        solve = verify_mod.sym_eigenvalues

        def poisoning(matrix, **kwargs):
            matrix[0, 1] = matrix[1, 0] = np.nan
            return solve(matrix, **kwargs)

        monkeypatch.setattr(verify_mod, "sym_eigenvalues", poisoning)
        config = EnsembleConfig(model=self.MA, p=p, n=n, replicates=1, base_seed=5)
        with caplog.at_level(logging.WARNING, logger="lpspec.verify"):
            assert _replicates(config) == [None]
        [message] = [r.getMessage() for r in caplog.records]
        assert message.startswith("replicate 0 failed: ")


def blas_threads() -> int:
    return _openblas().scipy_openblas_get_num_threads64_()


@pytest.fixture
def two_blas_threads():
    """The process's OpenBLAS at two threads for the test, then as it was."""
    lib = _openblas()
    before = blas_threads()
    lib.scipy_openblas_set_num_threads64_(2)
    yield
    lib.scipy_openblas_set_num_threads64_(before)


class TestSmallEnsembles:
    MA = CoefficientModel.ma([0.5])

    def spied(self, monkeypatch):
        """Whether each record is drawn on the main thread, and the BLAS thread
        count each Gram is eigensolved at."""
        import lpspec.verify as verify_mod

        seen = {"draws": [], "threads": []}
        draw, solve = verify_mod.simulate_record, verify_mod.sym_eigenvalues

        def spied_draw(*args):
            seen["draws"].append(threading.current_thread() is threading.main_thread())
            return draw(*args)

        def spied_solve(matrix, **kwargs):
            seen["threads"].append(blas_threads())
            return solve(matrix, **kwargs)

        monkeypatch.setattr(verify_mod, "simulate_record", spied_draw)
        monkeypatch.setattr(verify_mod, "sym_eigenvalues", spied_solve)
        return seen

    @staticmethod
    def serial(config, with_draws=False):
        """(eigenvalue bytes, trace statistic) of each record in replicate
        order, from one Gram formed and eigensolved at a time at one BLAS thread."""
        out = []
        with _one_blas_thread():
            for r in range(config.replicates):
                spec, cells = config.replicate_spec(r), config.shape.cells
                for record in filtered_records(spec, cells, spec.coefficient_array(), with_draws=with_draws):
                    x = segment_matrix(record, config.shape)
                    trace = None if with_draws else float(np.sum(x * x)) / config.p ** 2
                    out.append((sym_eigenvalues(gram(x)).eigenvalues.tobytes(), trace))
        return out

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    @pytest.mark.parametrize("replicates", [1, 2, 5])
    @pytest.mark.parametrize("shared, p", [(False, 256), (True, 256), (False, 128), (True, 128)],
                             ids=["plain", "shared", "plain-128", "shared-128"])
    def test_lanes_equal_serial_replicates(self, monkeypatch, two_blas_threads, shared, p, replicates, jobs):
        # Gram sides of 256, where the eigenvalue bits depend on the thread
        # count, and 128; a lane eigensolves each Gram alone, in place
        config = EnsembleConfig(model=self.MA, p=p, n=2 * p, replicates=replicates, base_seed=5, jobs=jobs)
        serial = self.serial(config, shared)
        seen = self.spied(monkeypatch)
        lanes = _replicates(config, shared)
        assert [(evs.tobytes(), trace) for evs, trace in lanes] == serial
        assert seen["threads"] == [1] * replicates * (2 if shared else 1)
        assert blas_threads() == 2

    def test_more_lanes_than_cores_under_a_short_switch_interval(self):
        # each lane writes only its own replicates' results; a lost or misplaced
        # one would break the replicate order
        config = EnsembleConfig(model=self.MA, p=256, n=512, replicates=9, base_seed=6, jobs=4)
        serial = self.serial(config)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            lanes = _replicates(config)
        finally:
            sys.setswitchinterval(interval)
        assert [(evs.tobytes(), trace) for evs, trace in lanes] == serial

    @pytest.mark.parametrize("shared", [False, True], ids=["plain", "shared"])
    @pytest.mark.parametrize("p, n", [(256, 512), (600, 256)], ids=["whole", "streamed"])
    def test_nan_gram_fails_only_its_replicate_or_model(self, monkeypatch, caplog, shared, p, n):
        # a NaN in the Gram handed over for replicate 1's last record: only
        # that record fails, and the log names its replicate and the error
        import lpspec.verify as verify_mod

        config = EnsembleConfig(model=self.MA, p=p, n=n, replicates=4, base_seed=5)
        clean = [(evs.tobytes(), trace) for evs, trace in _replicates(config, shared)]
        spec = config.replicate_spec(1)
        *_, record = filtered_records(spec, config.shape.cells, spec.coefficient_array(), with_draws=shared)
        x = segment_matrix(record, config.shape)
        poisoned = gram(x) if p <= n else gram(x.T)  # at p > n within rounding of the streamed Gram
        solve = verify_mod.sym_eigenvalues

        def poisoning(matrix, **kwargs):  # the upper triangle is all a streamed Gram holds
            if np.max(np.abs(np.triu(matrix) - np.triu(poisoned))) <= 1e-14 * np.max(poisoned):
                matrix[0, 1] = matrix[1, 0] = np.nan
            return solve(matrix, **kwargs)

        monkeypatch.setattr(verify_mod, "sym_eigenvalues", poisoning)
        with caplog.at_level(logging.WARNING, logger="lpspec.verify"):
            results = _replicates(config, shared)
        clean[3 if shared else 1] = None  # the MA(0.5) record of replicate 1, or replicate 1
        assert [None if result is None else (result[0].tobytes(), result[1]) for result in results] == clean
        side = min(p, n)
        assert [r.getMessage() for r in caplog.records] == [
            f"replicate 1 failed: dsyevd failed on {side}x{side} matrix: info -5"]

    @pytest.mark.parametrize("p, n", [(256, 512), (512, 256), (128, 256)])
    def test_lanes_hold_two_records_and_four_grams(self, p, n):
        # two lanes, each holding a record (at p > n a piece of one), a filter
        # block and a Gram, and the eigenvalues kept so far: no more than two
        # records and four Grams
        config = EnsembleConfig(model=self.MA, p=p, n=n, replicates=4, base_seed=4)
        piece = held(config)
        lane = 8 * (piece + min(piece, _BLOCK) + config.resolved_horizon() + min(p, n) ** 2)
        _replicates(config)
        tracemalloc.start()
        try:
            _replicates(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 8 * piece <= peak <= 1.01 * (2 * lane + 8 * p * config.replicates)

    @pytest.mark.parametrize("p, n, jobs", [(512, 512, 1), (512, 512, 2), (1024, 512, 1), (1024, 512, 2)])
    def test_every_ensemble_eigensolves_at_one_blas_thread(self, monkeypatch, two_blas_threads, p, n, jobs):
        # a whole and a streamed record alike, on two lanes: the helper draws replicate 1
        seen = self.spied(monkeypatch)
        run_ensemble(EnsembleConfig(model=self.MA, p=p, n=n, replicates=2, base_seed=1, jobs=jobs), {})
        assert seen["threads"] == [1, 1]
        assert sorted(seen["draws"]) == [False, True]
        assert blas_threads() == 2

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_thread_count_restored_when_a_draw_raises(self, monkeypatch, two_blas_threads, jobs):
        import lpspec.verify as verify_mod

        draw = verify_mod.simulate_record

        def failing(spec, length, *block):
            if spec.innovations.seed == derive_seed(1, 2):
                raise RuntimeError("synthetic draw failure")
            return draw(spec, length, *block)

        monkeypatch.setattr(verify_mod, "simulate_record", failing)
        config = EnsembleConfig(model=self.MA, p=32, n=64, replicates=4, base_seed=1, jobs=jobs)
        with pytest.raises(RuntimeError, match="synthetic draw failure"):
            run_ensemble(config, {})
        assert blas_threads() == 2

    @pytest.mark.parametrize("p, jobs", [(32, 1), (32, 3), (256, 1), (256, 2)])
    def test_thread_count_restored_when_a_draw_raises_on_the_helper_lane(
            self, monkeypatch, two_blas_threads, p, jobs):
        # replicate 1 runs on lane 1, a helper, whatever the number of lanes
        import lpspec.verify as verify_mod

        draw, lanes = verify_mod.simulate_record, []

        def failing(spec, length, *block):
            if spec.innovations.seed == derive_seed(1, 1):
                lanes.append(threading.current_thread() is threading.main_thread())
                raise RuntimeError("synthetic draw failure")
            return draw(spec, length, *block)

        monkeypatch.setattr(verify_mod, "simulate_record", failing)
        config = EnsembleConfig(model=self.MA, p=p, n=2 * p, replicates=4, base_seed=1, jobs=jobs)
        with pytest.raises(RuntimeError, match="synthetic draw failure"):
            run_ensemble(config, {})
        assert lanes == [False]
        assert blas_threads() == 2


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
    confirm = EnsembleConfig(model=CoefficientModel.ma([0.5]), p=4, n=4, replicates=1, base_seed=0,
                             horizon=2**31 - 8)
    spec = confirm.replicate_spec(0)
    messages = set()
    for call in (lambda: simulate_record(spec, 16), lambda: truncated_segment_matrix(spec, confirm.shape),
                 lambda: _one_lane(confirm, [0], with_draws=True)):
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
                            lambda spec, count, rng: seeds.append(spec.seed) or draw(spec, count, rng))
        calibrate_equation_variant(p=64, n=128, replicates=4)
        assert sorted(seeds) == sorted(derive_seed(s, r) for s in (1, 2, 3) for r in range(4))

    def test_confirmation_failing_every_replicate_raises(self, monkeypatch):
        # the MA(0.5) Gram of each first-seed replicate
        config = EnsembleConfig(model=CoefficientModel.ma([0.5]), p=64, n=128, replicates=4, base_seed=1)
        specs = [config.replicate_spec(r) for r in range(config.replicates)]
        failing_on(monkeypatch, [
            gram(segment_matrix([*filtered_records(spec, config.shape.cells, spec.coefficient_array(),
                                                   with_draws=True)][-1], config.shape))
            for spec in specs])
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
