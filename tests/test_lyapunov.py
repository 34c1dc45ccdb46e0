import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import stochprod as sp
from stochprod import lyapunov, sequences
from stochprod.errors import (
    DimensionMismatch,
    EnumerationTooLarge,
    InvalidDistribution,
    NoCertificate,
    NonFiniteEntry,
)

from helpers import (
    certify_contraction_per_mode,
    expected_lyapunov_per_mode,
    grid_images_einsum,
    mode_start,
    sparse_law,
)

# three diagonal modes driven by a two-phase modulating chain: mode 0 damps
# the first coordinate, modes 1 and 2 damp the second by 0.8 / 0.6
MODES = (np.array([[0.2, 0.0], [0.0, 1.0]]),
         np.array([[1.0, 0.0], [0.0, 0.8]]),
         np.array([[1.0, 0.0], [0.0, 0.6]]))
PI = np.array([[0.0, 0.4, 0.6], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])


@pytest.fixture
def damped_system():
    signal = sp.MarkovModulatedModel(initial=[1, 0, 0], transition=PI, seed=50)
    return sp.SwitchedSystem(modes=MODES, signal=signal)


def single_mode_system(matrix, seed=0):
    return sp.SwitchedSystem(modes=(np.asarray(matrix, dtype=float),),
                             signal=sp.IIDModel(weights=[1.0], seed=seed))


def reduce_sup_norm():
    """The sup norm by numpy's reduce over the last axis."""
    return sp.LyapunovFunction(fn=lambda x: np.abs(x).max(axis=-1), degree=1.0)


def search_outcome(search, system, v, horizon_max, grid=None, **kwargs):
    try:
        return search(system, v, horizon_max, grid=grid, **kwargs)
    except NoCertificate as exc:
        return str(exc)


def random_signal(rng, m, variant):
    """An i.i.d. or Markov-modulated signal on m modes whose laws have some
    entries zeroed."""
    if variant == "iid":
        return sp.IIDModel(weights=sparse_law(rng, m))
    return sp.MarkovModulatedModel(
        initial=sparse_law(rng, m),
        transition=np.array([sparse_law(rng, m) for _ in range(m)]))


def benchmark_size_system():
    """n = 5 damp-and-shift / shift / identity under a chain with dyadic
    rows: every mode holds the same 3^h continuations, and below T = 5 the
    worst ratio is exactly 1."""
    n = 5
    shift = np.roll(np.eye(n), 1, axis=0)
    modes = (shift @ np.diag([0.4375] + [1.0] * (n - 1)), shift, np.eye(n))
    transition = np.array([[6, 5, 5], [3, 10, 3], [4, 4, 8]]) / 16
    return sp.SwitchedSystem(modes, sp.MarkovModulatedModel(
        initial=[1, 0, 0], transition=transition))


@st.composite
def monomial_systems(draw):
    """Modes that are a permutation times a diagonal (some diagonal entries
    0), n 1-6, 1-4 modes, under an i.i.d. or Markov-modulated signal."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    modes = tuple(np.eye(n)[rng.permutation(n)]
                  @ np.diag(rng.uniform(-1.2, 1.2, n) * (rng.random(n) < 0.9))
                  for _ in range(m))
    return sp.SwitchedSystem(modes, random_signal(
        rng, m, draw(st.sampled_from(["iid", "markov"]))))


class TestInfNorm:
    @pytest.mark.parametrize("shape", [(1,), (4,), (6, 1), (6, 5), (3, 4, 1),
                                       (3, 4, 5), (8,), (6, 8), (9,), (6, 12)])
    def test_equals_reduce_bit_for_bit(self, shape):
        rng = np.random.default_rng(sum(shape))
        x = rng.standard_normal(shape)
        flat = x.reshape(-1)
        picks = rng.random(flat.size) < 0.4
        flat[picks] = rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan],
                                 size=picks.sum())
        got = sp.inf_norm()(x)
        want = np.abs(x).max(axis=-1)
        assert type(got) is type(want)
        assert np.shape(got) == want.shape
        assert np.asarray(got).tobytes() == want.tobytes()

    @pytest.mark.parametrize("entry", [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan])
    @pytest.mark.parametrize("n", [1, 3, 12])
    def test_special_entries(self, entry, n):
        for x in (np.full(n, entry), np.r_[np.full(n - 1, -1.0), entry],
                  np.full((2, 3, n), entry)):
            got = np.asarray(sp.inf_norm()(x))
            assert got.tobytes() == np.abs(x).max(axis=-1).tobytes()


class TestExpectedLyapunov:
    def test_degenerate_signal_one_step(self):
        system = single_mode_system([[0.5, 0], [0, 0.5]])
        v = sp.inf_norm()
        x = np.array([1.0, -2.0])
        assert sp.expected_lyapunov(system, v, x, 0, 1) == pytest.approx(
            float(v(0.5 * x)))

    def test_two_step_second_axis(self, damped_system):
        # continuations from mode 0: (1,0) w.p. 0.4 and (2,0) w.p. 0.6;
        # on x = e2 the products scale the second coordinate by 0.8 / 0.6
        got = sp.expected_lyapunov(damped_system, sp.inf_norm(), [0, 1], 0, 2)
        assert got == pytest.approx(0.4 * 0.8 + 0.6 * 0.6, abs=1e-12)

    def test_two_step_first_axis(self, damped_system):
        # both continuations damp the first coordinate to 0.2
        got = sp.expected_lyapunov(damped_system, sp.inf_norm(), [1, 0], 0, 2)
        assert got == pytest.approx(0.2, abs=1e-12)

    def test_homogeneity_of_expectation(self, damped_system):
        v = sp.inf_norm()
        x = np.array([0.3, -0.7])
        base = sp.expected_lyapunov(damped_system, v, x, 1, 2)
        for c in (0.5, 2.0, 10.0):
            scaled = sp.expected_lyapunov(damped_system, v, c * x, 1, 2)
            assert scaled == pytest.approx(c * base, rel=1e-12)

    def test_enumeration_guard(self, monkeypatch):
        # generic modes: every continuation keeps a distinct operator
        rng = np.random.default_rng(1)
        signal = sp.IIDModel(weights=np.full(10, 0.1), seed=1)
        system = sp.SwitchedSystem(
            modes=tuple(rng.uniform(-0.5, 0.5, (2, 2)) for _ in range(10)),
            signal=signal)
        monkeypatch.setattr(sequences, "STATE_LIMIT", 1000)
        with pytest.raises(EnumerationTooLarge):
            sp.expected_lyapunov(system, sp.inf_norm(), [1, 0], 0, 7)

    def test_identical_continuations_merge(self):
        # 10^7 continuations, all the identity: one state per last mode
        signal = sp.IIDModel(weights=np.full(10, 0.1), seed=1)
        system = sp.SwitchedSystem(modes=tuple(np.eye(2) for _ in range(10)),
                                   signal=signal)
        got = sp.expected_lyapunov(system, sp.inf_norm(), [1, 0], 0, 7)
        assert got == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("mode", [-1, 1, 3])
    def test_mode_outside_signal_rejected(self, mode):
        # three modes, but the signal only ever takes mode 0
        system = sp.SwitchedSystem(modes=MODES, signal=sp.IIDModel(weights=[1.0]))
        with pytest.raises(InvalidDistribution, match=f"mode {mode} is outside"):
            sp.expected_lyapunov(system, sp.inf_norm(), [1, 0], mode, 1)

    @pytest.mark.parametrize("horizon", [0, -3])
    def test_horizon_below_one_rejected(self, damped_system, horizon):
        # V(x) itself is no expectation over continuations
        with pytest.raises(InvalidDistribution, match="horizon must be at least 1"):
            sp.expected_lyapunov(damped_system, sp.inf_norm(), [1, 2], 0, horizon)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 4),
           st.integers(1, 5), st.sampled_from(["iid", "markov", "underflow"]))
    def test_matches_per_mode_enumeration(self, seed, n, m, horizon, variant):
        # the certificate's enumeration started at one mode against that
        # mode's own enumeration: the same expectation bit for bit, also
        # where P(i -> 0) = 1e-200 makes a continuation's weight 0.0
        rng = np.random.default_rng(seed)
        modes = tuple(rng.uniform(-1, 1, (n, n)) * (rng.random((n, n)) < 0.7)
                      for _ in range(m))
        if variant == "iid":
            signal = sp.IIDModel(weights=sparse_law(rng, m))
        else:
            transition = np.array([sparse_law(rng, m) for _ in range(m)])
            if variant == "underflow":
                transition[:, 0] = 1e-200
                transition /= transition.sum(axis=1, keepdims=True)
            signal = sp.MarkovModulatedModel(initial=sparse_law(rng, m),
                                             transition=transition)
        system = sp.SwitchedSystem(modes, signal)
        x = rng.uniform(-1, 1, n)
        mode = int(rng.integers(m))
        v = sp.inf_norm()
        got = sp.expected_lyapunov(system, v, x, mode, horizon)
        assert got == expected_lyapunov_per_mode(system, v, x, mode, horizon)

    def test_non_finite_mode_rejected(self):
        with pytest.raises(NonFiniteEntry):
            single_mode_system([[0.5, np.nan], [0.0, 0.5]])

    @pytest.mark.parametrize("first", [1e308, [0.5, 0.5], [[[0.5]]]])
    def test_first_mode_not_a_matrix_rejected(self, first):
        # the first mode's shape sets the dimension, so it is checked first
        with pytest.raises(DimensionMismatch, match="must be square"):
            sp.SwitchedSystem(modes=(np.asarray(first), np.eye(2)),
                              signal=sp.IIDModel(weights=[0.5, 0.5]))


class TestCertify:
    def test_single_contracting_mode(self):
        system = single_mode_system(0.5 * np.eye(2))
        cert = sp.certify_contraction(system, sp.inf_norm(), horizon_max=3)
        assert cert.horizon == 1
        assert cert.alpha == pytest.approx(0.5, abs=1e-12)
        assert cert.rate == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("horizon_max", [0, -3])
    def test_horizon_max_below_one_refused(self, horizon_max):
        # the system contracts at horizon 1; a bound below 1 is bad input,
        # not a search that found no certificate
        system = single_mode_system(0.5 * np.eye(2))
        with pytest.raises(InvalidDistribution, match="at least 1"):
            sp.certify_contraction(system, sp.inf_norm(),
                                   horizon_max=horizon_max)

    def test_damped_system_two_step_certificate(self, damped_system):
        cert = sp.certify_contraction(damped_system, sp.inf_norm(), horizon_max=4)
        assert cert.horizon == 2
        assert cert.alpha >= 0.3 - 1e-9
        assert cert.supermartingale_ok
        assert cert.rate == pytest.approx((1 - cert.alpha) ** 0.5)

    @pytest.mark.parametrize("seed", [1, 3, 7, 11, 36])
    def test_ratio_an_ulp_below_one_is_no_certificate(self, seed):
        # below T = 5 the true worst ratio is exactly 1 (a unit vector that
        # is never damped in time); with these non-dyadic chain rows the
        # computed ratio can fall an ulp short of 1
        n = 5
        shift = np.roll(np.eye(n), 1, axis=0)
        modes = (shift @ np.diag([0.5] + [1.0] * (n - 1)), shift, np.eye(n))
        rows = np.random.default_rng(seed).uniform(0.2, 1.0, (3, 3))
        signal = sp.MarkovModulatedModel(
            initial=[1, 0, 0], transition=rows / rows.sum(axis=1, keepdims=True))
        cert = sp.certify_contraction(sp.SwitchedSystem(modes, signal),
                                      sp.inf_norm(), horizon_max=6,
                                      grid=sp.SphereGrid(seed=1))
        assert cert.horizon == n
        assert cert.alpha > 1e-6

    def test_zero_modes_certify_with_alpha_one(self):
        # every mode maps to 0, so V is 0 after one step: alpha = 1, rate 0
        signal = sp.IIDModel(weights=[0.5, 0.5])
        system = sp.SwitchedSystem(modes=(np.zeros((2, 2)),) * 2, signal=signal)
        cert = sp.certify_contraction(system, sp.inf_norm(), horizon_max=3)
        assert (cert.horizon, cert.alpha, cert.rate) == (1, 1.0, 0.0)
        assert cert.supermartingale_ok

    def test_certifies_only_the_signals_modes(self):
        # the signal takes mode 0 alone, diag(0.2, 1): the second axis is
        # never damped, whatever the unused modes would do
        system = sp.SwitchedSystem(modes=MODES, signal=sp.IIDModel(weights=[1.0]))
        with pytest.raises(NoCertificate):
            sp.certify_contraction(system, sp.inf_norm(), horizon_max=4)

    def test_identity_mode_never_certifies(self):
        system = single_mode_system(np.eye(2))
        with pytest.raises(NoCertificate):
            sp.certify_contraction(system, sp.inf_norm(), horizon_max=3)

    def test_certificate_soundness_on_grid(self, damped_system):
        v = sp.inf_norm()
        cert = sp.certify_contraction(damped_system, v, horizon_max=4)
        pts = sp.SphereGrid().points(2)
        for mode in range(3):
            for x in pts[::7]:
                e = sp.expected_lyapunov(damped_system, v, x, mode, cert.horizon)
                assert e <= (1 - cert.alpha) * float(v(x)) + 1e-10

    def test_worst_point_value_matches_hand_enumeration(self, damped_system):
        # exact sup of the 2-step conditional expectation on the sphere:
        # 0.4 * max(0.2 a, 0.8 b) + 0.6 * max(0.2 a, 0.6 b) over faces,
        # attained at b = 1 with value 0.68 regardless of the current mode
        cert = sp.certify_contraction(damped_system, sp.inf_norm(), horizon_max=2)
        assert 1 - cert.alpha == pytest.approx(0.68, abs=1e-9)

    @pytest.mark.parametrize("seed", [0, 1, 3])
    def test_matches_per_horizon_enumeration(self, seed):
        # each horizon's worst ratio, recomputed from scratch by exact
        # expectations at every grid point and current mode; every mode
        # damps one axis only, so these seeds certify at T = 2, not 1
        rng = np.random.default_rng(seed)
        modes = tuple(np.diag(np.roll([rng.uniform(0.2, 0.9), 1.0], k))
                      for k in range(3))
        pi = rng.dirichlet(np.ones(3), size=3) * (rng.random((3, 3)) < 0.7)
        pi[:, 0] += 1.0 - pi.sum(axis=1)
        system = sp.SwitchedSystem(modes, sp.MarkovModulatedModel(
            initial=[1, 0, 0], transition=pi))
        v, grid = sp.inf_norm(), sp.SphereGrid(resolution=11)
        pts = grid.points(2)
        cert = sp.certify_contraction(system, v, horizon_max=6, grid=grid)
        assert cert.horizon == 2
        for h in range(1, cert.horizon + 1):
            worst = max(sp.expected_lyapunov(system, v, x, mode, h) / v(x)
                        for mode in range(3) for x in pts)
            if h < cert.horizon:
                assert worst >= 1.0 - 1e-12 - 1e-13
        assert cert.alpha == pytest.approx(1.0 - worst, rel=0, abs=1e-13)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 4),
           st.sampled_from(["iid", "markov"]), st.integers(1, 3))
    def test_matches_per_mode_search(self, seed, n, m, variant, horizon_max):
        # one enumeration for all current modes against one per mode: the
        # same certificate, alpha bit for bit, or the same NoCertificate
        rng = np.random.default_rng(seed)
        scale = rng.uniform(0.3, 1.2)
        modes = tuple(scale * rng.uniform(-1, 1, (n, n)) * (rng.random((n, n)) < 0.7)
                      for _ in range(m))
        system = sp.SwitchedSystem(modes, random_signal(rng, m, variant))
        grid = sp.SphereGrid(resolution=21, points_per_face=32, seed=seed % 8)
        got = search_outcome(sp.certify_contraction, system, sp.inf_norm(),
                             horizon_max, grid)
        want = search_outcome(certify_contraction_per_mode, system,
                              reduce_sup_norm(), horizon_max, grid)
        assert got == want

    def test_benchmark_size_system_matches_per_mode_search(self):
        system = benchmark_size_system()
        cert = sp.certify_contraction(system, sp.inf_norm(), horizon_max=6)
        assert cert.horizon == 5
        assert cert == certify_contraction_per_mode(system, reduce_sup_norm(), 6)

    @given(monomial_systems(), st.integers(1, 3), st.sampled_from([8, 32]))
    @example(benchmark_size_system(), 6, 256)
    def test_monomial_modes_match_einsum_images(self, system, horizon_max,
                                                points_per_face):
        # one nonzero per row: every image entry is one rounded product
        # under either kernel, so the certificate is the einsum path's bit
        # for bit, or the same NoCertificate
        grid = sp.SphereGrid(resolution=21, points_per_face=points_per_face)
        got = search_outcome(sp.certify_contraction, system, sp.inf_norm(),
                             horizon_max, grid)
        want = search_outcome(certify_contraction_per_mode, system,
                              reduce_sup_norm(), horizon_max, grid,
                              images=grid_images_einsum)
        assert got == want

    @given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.integers(1, 3),
           st.sampled_from(["iid", "markov"]), st.integers(1, 3))
    def test_dense_modes_match_einsum_images_to_last_ulps(
            self, seed, n, m, variant, horizon_max):
        # Gaussian modes: dgemm may round the short image sums differently
        # from einsum, which moves alpha in its last ulps only
        rng = np.random.default_rng(seed)
        modes = tuple(rng.uniform(0.3, 1.0) * rng.standard_normal((n, n))
                      / np.sqrt(n) for _ in range(m))
        system = sp.SwitchedSystem(modes, random_signal(rng, m, variant))
        grid = sp.SphereGrid(resolution=21, points_per_face=32, seed=seed % 8)
        got = search_outcome(sp.certify_contraction, system, sp.inf_norm(),
                             horizon_max, grid)
        want = search_outcome(certify_contraction_per_mode, system,
                              reduce_sup_norm(), horizon_max, grid,
                              images=grid_images_einsum)
        if isinstance(want, str):
            assert got == want
        else:
            assert (got.horizon, got.supermartingale_ok) == (
                want.horizon, want.supermartingale_ok)
            assert abs(got.alpha - want.alpha) <= 1e-12

    @pytest.mark.parametrize("limit, horizon", [(5711, 2), (2447, 1)])
    def test_image_budget(self, damped_system, monkeypatch, limit, horizon):
        # 408 grid points in 2-D; 3 states at horizon 1 (2,448 cells) and 4
        # at horizon 2 (3,264 more, 5,712 in all), where the search certifies
        image_calls = []

        def counted(x):
            image_calls.append(x.ndim == 3)
            return np.abs(x).max(axis=-1)

        v = sp.LyapunovFunction(fn=counted, degree=1.0)
        monkeypatch.setattr(lyapunov, "IMAGE_LIMIT", 5712)
        assert sp.certify_contraction(damped_system, v, horizon_max=4).horizon == 2
        image_calls.clear()
        monkeypatch.setattr(lyapunov, "IMAGE_LIMIT", limit)
        with pytest.raises(EnumerationTooLarge,
                           match=f"up to horizon {horizon} exceed {limit}"):
            sp.certify_contraction(damped_system, v, horizon_max=4)
        # the budget is checked before the over-budget images are made
        assert image_calls.count(True) == horizon - 1

    @pytest.mark.parametrize("n", [1, 2])
    def test_image_budget_bounds_a_search_that_never_grows(self, n):
        # one identity mode: one state per horizon, so STATE_LIMIT never
        # trips, and its 2 * n * 2 * n image cells are below the floor, so
        # each horizon is charged HORIZON_CELLS
        limit = lyapunov.IMAGE_LIMIT
        horizon = limit // lyapunov.HORIZON_CELLS + 1
        with pytest.raises(EnumerationTooLarge,
                           match=f"up to horizon {horizon} exceed {limit}"):
            sp.certify_contraction(single_mode_system(np.eye(n)), sp.inf_norm(),
                                   horizon_max=10**9)

    def test_underflowed_weights_keep_their_states(self):
        # P(i -> 1) = 1e-200 for every i, so from current mode 0 the
        # continuation 1, 1 has probability 1e-400, which is 0.0; the
        # per-mode search still holds that state and adds its zero term, and
        # dropping such rows can regroup the dot and move alpha's last bits
        rng = np.random.default_rng(9)
        n, m = 2, 3
        modes = tuple(rng.uniform(0.4, 1.0) * rng.uniform(-1, 1, (n, n))
                      for _ in range(m))
        transition = rng.dirichlet(np.ones(m), size=m)
        transition[:, 1] = 1e-200
        transition /= transition.sum(axis=1, keepdims=True)
        system = sp.SwitchedSystem(modes, sp.MarkovModulatedModel(
            initial=[1, 0, 0], transition=transition))
        law = sequences._step_law(system.signal)
        states = [mode_start(system, mode) for mode in range(m)]
        zero_weights = 0
        for ops, weights, reached in lyapunov._continuation_layers(
                system, 3, range(m)):
            for mode in range(m):
                states[mode] = sequences.advance(law, system.modes,
                                                 *states[mode])
                _, own_ops, own_probs = states[mode]
                rows = reached[:, mode]
                assert ops[rows].tobytes() == own_ops.tobytes()
                assert weights[rows, mode].tobytes() == own_probs[:, 0].tobytes()
                zero_weights += int((own_probs == 0).sum())
        assert zero_weights > 0
        grid = sp.SphereGrid(resolution=21, points_per_face=32)
        cert = sp.certify_contraction(system, sp.inf_norm(), 4, grid)
        assert cert.horizon == 2
        assert cert == certify_contraction_per_mode(system, reduce_sup_norm(), 4, grid)

    def test_scripted_signal_rejected(self):
        system = sp.SwitchedSystem(
            modes=(0.5 * np.eye(2), np.eye(2)),
            signal=sp.ScriptedModel(indices=(0, 1)))
        with pytest.raises(InvalidDistribution):
            sp.certify_contraction(system, sp.inf_norm(), horizon_max=2)

    def test_requires_homogeneous(self):
        system = single_mode_system(0.5 * np.eye(2))
        v = sp.LyapunovFunction(fn=lambda x: np.abs(x).max(axis=-1), degree=None)
        with pytest.raises(InvalidDistribution):
            sp.certify_contraction(system, v, horizon_max=2)

    @pytest.mark.parametrize("kw", [{"resolution": 0}, {"resolution": -1},
                                    {"points_per_face": 0}])
    def test_grid_sizes_validated(self, kw):
        with pytest.raises(InvalidDistribution):
            sp.SphereGrid(**kw)

    def test_higher_dimension_grid(self):
        system = single_mode_system(0.25 * np.eye(4))
        cert = sp.certify_contraction(system, sp.inf_norm(), horizon_max=2,
                                      grid=sp.SphereGrid(points_per_face=64))
        assert cert.horizon == 1
        assert cert.alpha == pytest.approx(0.75, abs=1e-12)


class TestMonteCarlo:
    def test_single_mode_exact_rate(self):
        system = single_mode_system(0.5 * np.eye(2), seed=8)
        report = sp.monte_carlo_decay(system, sp.inf_norm(), [1.0, 1.0],
                                      steps=100, trials=3)
        assert report.fitted_rate == pytest.approx(0.5, abs=1e-9)

    def test_bad_start_vector_rejected(self):
        system = single_mode_system(0.5 * np.eye(2))
        for x0 in ([np.nan, 1.0], [1.0, np.inf]):
            with pytest.raises(NonFiniteEntry):
                sp.monte_carlo_decay(system, sp.inf_norm(), x0, steps=3, trials=1)
        with pytest.raises(DimensionMismatch):
            sp.monte_carlo_decay(system, sp.inf_norm(), [1.0], steps=3, trials=1)

    def test_counts_validated(self, damped_system):
        for kw in ({"steps": 0}, {"trials": 0}, {"steps": -1}):
            with pytest.raises(InvalidDistribution):
                sp.monte_carlo_decay(damped_system, sp.inf_norm(), [1.0, 1.0],
                                     **{"steps": 3, "trials": 2, **kw})

    def test_history_capped_before_any_draw(self, damped_system, monkeypatch):
        monkeypatch.setattr(lyapunov, "HISTORY_LIMIT", 12)
        report = sp.monte_carlo_decay(damped_system, sp.inf_norm(), [1.0, 1.0],
                                      steps=3, trials=3)
        assert report.history.shape == (3, 4)

        def no_draw(*args, **kwargs):
            raise AssertionError("drew indices for a run over the cap")

        monkeypatch.setattr(sequences, "sample", no_draw)
        for steps, trials in ((4, 3), (3, 4), (12, 1)):
            with pytest.raises(InvalidDistribution, match=(
                    r"trials \* \(steps \+ 1\) must be at most 12 history")):
                sp.monte_carlo_decay(damped_system, sp.inf_norm(), [1.0, 1.0],
                                     steps=steps, trials=trials)

    def test_zero_initial_state(self):
        system = single_mode_system(0.5 * np.eye(2))
        report = sp.monte_carlo_decay(system, sp.inf_norm(), [0.0, 0.0],
                                      steps=20, trials=2)
        assert report.fitted_rate == 0.0
        assert report.tail_fraction == 1.0

    def test_damped_system_beats_certified_rate(self, damped_system):
        cert = sp.certify_contraction(damped_system, sp.inf_norm(), horizon_max=2)
        report = sp.monte_carlo_decay(damped_system, sp.inf_norm(), [1.0, 1.0],
                                      steps=200, trials=60)
        rates = np.asarray(report.per_trial_rate)
        sigma = rates.std(ddof=1)
        assert report.fitted_rate <= cert.rate + 3 * sigma

    def test_rescaled_paths_stay_bounded(self, damped_system):
        # gamma^k V(x_k) with gamma the certificate's inverse rate is a
        # supermartingale along certificate blocks: its mean never exceeds
        # V(x0), which by Markov's inequality pins the 99th percentile
        cert = sp.certify_contraction(damped_system, sp.inf_norm(), horizon_max=2)
        v = sp.inf_norm()
        x0 = np.array([1.0, 1.0])
        history = sp.monte_carlo_decay(damped_system, v, x0, steps=120,
                                       trials=200).history
        gamma = 1.0 / cert.rate
        weights = gamma ** np.arange(history.shape[1])
        rescaled = history * weights[None, :]
        block_samples = rescaled[:, ::cert.horizon]
        means = block_samples.mean(axis=0)
        stderr = block_samples.std(axis=0, ddof=1) / np.sqrt(block_samples.shape[0])
        assert np.all(means <= float(v(x0)) + 3 * stderr + 1e-12)
        q99 = np.quantile(rescaled, 0.99, axis=0)
        assert q99.max() <= 100.0 * float(v(x0))

    def test_reproducible(self, damped_system):
        kw = dict(steps=50, trials=5)
        a = sp.monte_carlo_decay(damped_system, sp.inf_norm(), [1.0, 1.0], **kw)
        b = sp.monte_carlo_decay(damped_system, sp.inf_norm(), [1.0, 1.0], **kw)
        assert a == b

    def test_non_homogeneous_function_still_simulates(self, damped_system):
        # certification needs homogeneity; plain decay fitting does not
        v = sp.LyapunovFunction(fn=lambda x: np.abs(x).max(axis=-1) ** 2
                                + np.abs(x).sum(axis=-1), degree=None)
        report = sp.monte_carlo_decay(damped_system, v, [1.0, 1.0],
                                      steps=80, trials=5)
        assert 0 < report.fitted_rate < 1
