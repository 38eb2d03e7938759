import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qlang.errors import ResourceLimitError, UnsupportedOracleError
from qlang.states import (
    Bipartition,
    DensityOperator,
    PureState,
    SchmidtSpectrum,
    basis_state,
    bell_state,
    decompose_hermitian,
    ghz_state,
    is_separable_oracle,
    maximally_mixed,
    overlap,
    partial_trace,
    partial_transpose,
    plus_state,
    purity,
    random_density,
    random_pure_state,
    random_pure_states,
    schmidt_spectrum,
    tensor,
    tensor_states,
    werner_state,
)

seeds = st.integers(min_value=0, max_value=10**9)


class TestConstructors:
    def test_pure_state_rejects_bad_norm(self):
        with pytest.raises(ValueError, match="norm"):
            PureState(1, np.array([1.0, 1.0]))

    def test_pure_state_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="amplitudes"):
            PureState(2, np.array([1.0, 0.0]))

    def test_density_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.5], [0.0, 0.5]])
        with pytest.raises(ValueError, match="Hermitian"):
            DensityOperator(1, m)

    def test_density_rejects_negative_eigenvalue(self):
        m = np.array([[1.5, 0.0], [0.0, -0.5]])
        with pytest.raises(ValueError, match="negative"):
            DensityOperator(1, m)

    def test_qubit_limit(self):
        with pytest.raises(ResourceLimitError):
            PureState(15, np.zeros(1 << 15))

    def test_bipartition_must_cover(self):
        with pytest.raises(ValueError):
            Bipartition((0,), (2,))
        with pytest.raises(ValueError):
            Bipartition((), (0, 1))

    def test_schmidt_spectrum_invariants(self):
        with pytest.raises(ValueError):
            SchmidtSpectrum((0.5, 0.9))  # not nonincreasing
        with pytest.raises(ValueError):
            SchmidtSpectrum((1.0, 0.5))  # squares exceed 1


class TestTensor:
    def test_maximally_mixed_products(self):
        out = tensor(maximally_mixed(1), maximally_mixed(1))
        assert np.allclose(out.matrix, np.eye(4) / 4)

    def test_computational_basis(self):
        out = tensor(basis_state(1, 0).density(), basis_state(1, 1).density())
        expected = np.zeros((4, 4))
        expected[1, 1] = 1.0  # |01><01|
        assert np.allclose(out.matrix, expected)

    @settings(max_examples=20, deadline=None)
    @given(seeds)
    def test_trace_one(self, seed):
        out = tensor(random_density(1, seed, 0), random_density(2, seed, 1))
        # oracle: direct trace computation
        assert abs(np.trace(out.matrix).real - 1.0) < 1e-12

    def test_overflow(self):
        with pytest.raises(ResourceLimitError):
            tensor(random_density(7, 0), random_density(8, 1))


class TestPartialTrace:
    def test_bell_marginal(self):
        # oracle: explicit 2x2 block sum of the Bell projector
        rho = bell_state().density().matrix
        explicit = np.array([[rho[0, 0] + rho[1, 1], rho[0, 2] + rho[1, 3]],
                             [rho[2, 0] + rho[3, 1], rho[2, 2] + rho[3, 3]]])
        got = partial_trace(bell_state().density(), [0])
        assert np.allclose(got.matrix, explicit)
        assert np.allclose(got.matrix, np.eye(2) / 2)

    def test_keep_all_is_identity(self):
        rho = random_density(2, 3)
        assert partial_trace(rho, [0, 1]) is rho

    def test_product_structure(self):
        phi = tensor_states(basis_state(1, 0), plus_state())
        got = partial_trace(phi.density(), [1])
        assert np.allclose(got.matrix, plus_state().density().matrix)

    def test_bad_keep(self):
        rho = random_density(2, 4)
        with pytest.raises(ValueError):
            partial_trace(rho, [])
        with pytest.raises(ValueError):
            partial_trace(rho, [0, 2])

    @settings(max_examples=15, deadline=None)
    @given(seeds)
    def test_tensor_roundtrip(self, seed):
        a = random_density(2, seed, 10)
        b = random_density(2, seed, 11)
        joined = tensor(a, b)
        assert np.max(np.abs(partial_trace(joined, [0, 1]).matrix - a.matrix)) < 1e-10
        assert np.max(np.abs(partial_trace(joined, [2, 3]).matrix - b.matrix)) < 1e-10


class TestPurityOverlap:
    def test_maximally_mixed(self):
        assert purity(maximally_mixed(1)) == pytest.approx(0.5, abs=1e-12)

    def test_pure_state(self):
        assert purity(random_pure_state(3, 8).density()) == pytest.approx(1.0, abs=1e-10)

    def test_diagonal_mixture(self):
        # oracle: eigenvalue squares 0.75^2 + 0.25^2 = 0.625
        rho = DensityOperator(1, np.diag([0.75, 0.25]).astype(complex))
        assert purity(rho) == pytest.approx(0.625, abs=1e-12)

    def test_orthogonal_overlap(self):
        assert overlap(basis_state(1, 0).density(),
                       basis_state(1, 1).density()) == pytest.approx(0.0, abs=1e-12)

    def test_zero_plus_overlap(self):
        # oracle: |<0|+>|^2 = 1/2 by hand expansion
        assert overlap(basis_state(1, 0).density(),
                       plus_state().density()) == pytest.approx(0.5, abs=1e-12)

    def test_identical_pure(self):
        rho = random_pure_state(2, 9).density()
        assert overlap(rho, rho) == pytest.approx(1.0, abs=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(seeds)
    def test_symmetry_and_self_purity(self, seed):
        a = random_density(2, seed, 20)
        b = random_density(2, seed, 21)
        assert overlap(a, b) == pytest.approx(overlap(b, a), abs=1e-12)
        assert overlap(a, a) == pytest.approx(purity(a), abs=1e-12)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            overlap(maximally_mixed(1), maximally_mixed(2))


class TestSchmidt:
    def test_bell(self):
        # oracle: SVD of [[1,0],[0,1]]/sqrt(2)
        spec = schmidt_spectrum(bell_state(), Bipartition.from_subset(2, [0]))
        assert spec.coefficients == pytest.approx((2 ** -0.5, 2 ** -0.5), abs=1e-12)

    def test_product(self):
        phi = tensor_states(basis_state(1, 0), plus_state())
        spec = schmidt_spectrum(phi, Bipartition.from_subset(2, [0]))
        assert spec.rank == 1
        assert spec.largest == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(seeds)
    def test_norm_preservation(self, seed):
        phi = random_pure_state(3, seed, 30)
        spec = schmidt_spectrum(phi, Bipartition.from_subset(3, [0, 2]))
        assert sum(c * c for c in spec.coefficients) == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=15, deadline=None)
    @given(seeds, st.integers(min_value=1, max_value=3))
    def test_marginal_purity_symmetry(self, seed, asize):
        phi = random_pure_state(4, seed, 31)
        cut = Bipartition.from_subset(4, range(asize))
        pa = purity(partial_trace(phi.density(), cut.subset_a))
        pb = purity(partial_trace(phi.density(), cut.subset_b))
        assert pa == pytest.approx(pb, abs=1e-10)


class TestRandomStates:
    def test_determinism(self):
        a = random_pure_state(3, 77)
        b = random_pure_state(3, 77)
        assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_norm(self):
        assert abs(np.linalg.norm(random_pure_state(4, 5).amplitudes) - 1) < 1e-12

    def test_haar_first_moment(self):
        # Monte Carlo oracle: E|<0|xi>|^2 = 2^-n, Beta(1, d-1) variance
        n, trials = 2, 10_000
        d = 1 << n
        vals = np.array([abs(random_pure_state(n, 1234, t).amplitudes[0]) ** 2
                         for t in range(trials)])
        se = np.sqrt((d - 1) / (d * d * (d + 1)) / trials)
        assert abs(vals.mean() - 1 / d) < 5 * se

    @pytest.mark.parametrize("seed", [0, 5, 2**32, 2**40 + 3])
    def test_batch_is_bit_identical_to_single_draws(self, seed):
        # the batched norm must sum in the same order as np.linalg.norm; a
        # norm over the contiguous real/imaginary blocks differs by an ulp
        # on hundreds of rows at every n >= 2
        gen = np.random.default_rng(seed % 1000)
        for n in range(1, 9):
            for depth in (1, 2, 3):
                keys = [tuple(k) for k in gen.integers(0, 1000, size=(100, depth)).tolist()]
                want = np.stack([random_pure_state(n, seed, *k).amplitudes for k in keys])
                assert np.array_equal(random_pure_states(n, seed, keys), want)


class TestSeparabilityOracle:
    def test_bell_entangled(self):
        v = is_separable_oracle(bell_state().density(), Bipartition.from_subset(2, [0]))
        assert not v.separable
        assert v.margin == pytest.approx(1 - 2 ** -0.5, abs=1e-12)

    def test_product_separable(self):
        v = is_separable_oracle(basis_state(2, 0).density(), Bipartition.from_subset(2, [0]))
        assert v.separable

    def test_werner_ppt(self):
        # oracle: partial-transpose eigenvalue (1 - 3p) / 4
        cut = Bipartition.from_subset(2, [0])
        hot = is_separable_oracle(werner_state(0.9), cut)
        assert not hot.separable
        assert hot.margin == pytest.approx((3 * 0.9 - 1) / 4, abs=1e-10)
        assert is_separable_oracle(werner_state(0.3), cut).separable

    def test_unsupported_dimensions(self):
        rho = random_density(4, 2)
        with pytest.raises(UnsupportedOracleError):
            is_separable_oracle(rho, Bipartition.from_subset(4, [0, 1]))

    @settings(max_examples=15, deadline=None)
    @given(seeds, st.integers(min_value=2, max_value=6))
    def test_matches_schmidt_rank_for_pure(self, seed, n):
        phi = random_pure_state(n, seed, 40)
        cut = Bipartition.from_subset(n, [0])
        v = is_separable_oracle(phi.density(), cut)
        assert v.separable == (schmidt_spectrum(phi, cut).rank == 1)

    def test_partial_transpose_involution(self):
        rho = random_density(2, 6)
        cut = Bipartition.from_subset(2, [0])
        twice = partial_transpose(partial_transpose(rho, cut), cut)
        assert np.allclose(twice, rho.matrix)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_partial_transpose_entrywise(self, n):
        # (m^T_B)[(a, b), (a', b')] = m[(a, b'), (a', b)]: the row and the
        # column index trade their B bits, on every cut
        rng = np.random.default_rng(n)
        d = 1 << n
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        i, j = np.arange(d)[:, None], np.arange(d)[None, :]
        for k in range(1, n):
            for side_a in itertools.combinations(range(n), k):
                cut = Bipartition.from_subset(n, side_a)
                b = sum(1 << (n - 1 - q) for q in cut.subset_b)
                want = m[(i & ~b) | (j & b), (j & ~b) | (i & b)]
                assert np.array_equal(partial_transpose(m, cut), want)


class TestDecomposeHermitian:
    def test_bell_witness_roundtrip(self):
        w = 0.5 * np.eye(4) - bell_state().density().matrix
        parts = decompose_hermitian(w)
        recon = sum(c * r.matrix for c, r in parts)
        assert np.max(np.abs(recon - w)) < 1e-10
        assert len(parts) == 2

    def test_density_input(self):
        rho = random_density(2, 12)
        parts = decompose_hermitian(rho.matrix)
        assert len(parts) == 1
        c, r = parts[0]
        assert c == pytest.approx(1.0, abs=1e-10)
        assert np.allclose(r.matrix, rho.matrix)

    def test_pure_negative(self):
        parts = decompose_hermitian(-basis_state(1, 0).density().matrix)
        assert len(parts) == 1
        assert parts[0][0] == pytest.approx(-1.0, abs=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            decompose_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))

    @settings(max_examples=20, deadline=None)
    @given(seeds)
    def test_random_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        w = g + g.conj().T
        recon = sum(c * r.matrix for c, r in decompose_hermitian(w))
        assert np.max(np.abs(recon - w)) < 1e-9


def test_ghz_marginals_mixed():
    rho = partial_trace(ghz_state(3).density(), [0])
    assert purity(rho) == pytest.approx(0.5, abs=1e-12)
