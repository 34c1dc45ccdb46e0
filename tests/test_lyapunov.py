import numpy as np
import pytest

import stochprod as sp
from stochprod import lyapunov, sequences
from stochprod.errors import (
    DimensionMismatch,
    EnumerationTooLarge,
    InvalidDistribution,
    NoCertificate,
    NonFiniteEntry,
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
