"""Generator tests: conditioning targets, determinism, stress matrices."""

import numpy as np
import pytest

import blockgs as bg


def _measured_kappa(a):
    sv = np.linalg.svd(a, compute_uv=False)
    return sv[0] / sv[-1]


class TestSvdSpectrum:
    def test_kappa_one_is_orthonormal_times_rotation(self):
        a = bg.gen_svd_spectrum(30, 10, kappa=1.0, seed=0)
        res = bg.local_qr(a)
        assert bg.orthogonality_defect(res.q) <= 1e-14

    def test_hits_condition_target(self):
        a = bg.gen_svd_spectrum(100, 20, kappa=1e8, seed=1)
        assert 0.5e8 <= _measured_kappa(a) <= 2e8

    def test_same_seed_bitwise_identical(self):
        a = bg.gen_svd_spectrum(50, 12, kappa=1e4, seed=77)
        b = bg.gen_svd_spectrum(50, 12, kappa=1e4, seed=77)
        assert a.tobytes() == b.tobytes()

    def test_different_seeds_differ(self):
        a = bg.gen_svd_spectrum(50, 12, kappa=1e4, seed=77)
        b = bg.gen_svd_spectrum(50, 12, kappa=1e4, seed=78)
        assert a.tobytes() != b.tobytes()

    def test_single_column(self):
        a = bg.gen_svd_spectrum(10, 1, kappa=1.0, seed=3)
        assert a.shape == (10, 1)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            bg.gen_svd_spectrum(5, 6, kappa=10, seed=0)
        with pytest.raises(ValueError):
            bg.gen_svd_spectrum(5, 3, kappa=0.5, seed=0)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            bg.gen_svd_spectrum(10, 4, kappa=10, seed=-1)

    def test_rejects_nan_kappa_before_building(self):
        with pytest.raises(ValueError, match="condition target must be >= 1, got nan"):
            bg.gen_svd_spectrum(10, 4, kappa=float("nan"), seed=0)


class TestLauchli:
    def test_shape_and_entries(self):
        a = bg.gen_lauchli(3, 1e-4)
        assert a.shape == (4, 3)
        assert np.array_equal(a[0], np.ones(3))
        assert np.array_equal(a[1:], 1e-4 * np.eye(3))

    def test_smallest_case(self):
        a = bg.gen_lauchli(1, 1.0)
        assert np.array_equal(a, [[1.0], [1.0]])

    def test_defeats_one_pass_cgs(self):
        # n = 2 has a single projection step, so the one-pass loss is only
        # eps * kappa; from n = 3 on the compounding makes it catastrophic.
        a2 = bg.gen_lauchli(2, 1e-8)
        loose2 = bg.cgs(a2).per_block[-1].defect
        tight2 = bg.bcgs2(a2, bg.BlockPartition.ones(2)).per_block[-1].defect
        assert loose2 >= 1e3 * tight2
        assert tight2 <= 1e-13
        a3 = bg.gen_lauchli(3, 1e-8)
        assert bg.cgs(a3).per_block[-1].defect >= 1e-2

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError):
            bg.gen_lauchli(3, 0.0)

    @pytest.mark.parametrize("eps_val", [float("inf"), float("nan")])
    def test_rejects_non_finite_eps_before_arithmetic(self, eps_val):
        # inf * 0 would warn (an error under this suite's settings) first.
        with pytest.raises(ValueError, match="need a finite eps_val > 0"):
            bg.gen_lauchli(4, eps_val)


class TestHilbertLike:
    def test_entries(self):
        a = bg.gen_hilbert_like(2, 3)
        assert np.allclose(a, [[1.0, 0.5, 1.0 / 3.0], [0.5, 1.0 / 3.0, 0.25]])

    def test_four_by_four_condition_number(self):
        # Frozen from an SVD of the 4x4 section.
        a = bg.gen_hilbert_like(4, 4)
        assert _measured_kappa(a) == pytest.approx(15513.738738929662, rel=1e-6)

    def test_rectangular_truncation(self):
        a = bg.gen_hilbert_like(5, 2)
        assert a.shape == (5, 2)
        assert a[4, 1] == 1.0 / 6.0
