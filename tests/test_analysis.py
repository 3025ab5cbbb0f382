import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq

from spinphase import analysis, models
from spinphase.analysis import (CANONICAL_LABELS_6, CROSSING_BRACKET, SweepConfig,
                                canonical_labels, count_sign_changes, factorization_value_check,
                                find_derivative_extrema, find_sector_crossings,
                                first_derivative, sweep)
from spinphase.errors import ConfigError, NumericalError, PolicyError
from spinphase.models import (ModelSpec, ground_state, pick_sector, sector_energies,
                              total_sz_diagonal)
from spinphase.qcore import label_name

SQ3 = math.sqrt(3.0)
HI = 0.5 * (1 + SQ3)
TOT6 = tuple(range(1, 7))
NAMES6 = {label_name(l, 6) for l in CANONICAL_LABELS_6}


def of_kind(points, kind):
    return [p for p in points if p.kind == kind]


def ti_cfg(start, stop, step, labels=(TOT6,), policy="symmetric"):
    return SweepConfig(spec=ModelSpec(family="ti", n=6, lam=0.0), start=start, stop=stop,
                       step=step, labels=labels, policy=policy)


@pytest.fixture(scope="module")
def ti_line():
    return sweep(ti_cfg(0.0, 2.0, 0.01, labels=(TOT6, (1,))))


@pytest.fixture(scope="module")
def xy_line():
    cfg = SweepConfig(spec=ModelSpec(family="xy", n=6, lam=1.0, gamma=0.5),
                      start=1.0, stop=1.7, step=0.005, labels=(TOT6, (1,)))
    return sweep(cfg)


@pytest.fixture(scope="module")
def xxz_bench_line():
    """The README xxz sweep at the benchmark's step 0.05."""
    return sweep(SweepConfig(spec=ModelSpec(family="xxz", n=6, delta=0.0), start=-2.0,
                             stop=10.0, step=0.05, labels=CANONICAL_LABELS_6,
                             policy="aligned_up"))


class TestSweep:
    def test_grid_is_deterministic_and_inclusive(self):
        cfg = ti_cfg(0.0, 1.0, 0.25)
        assert np.array_equal(cfg.params, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_labels_default_to_canonical(self):
        cfg = SweepConfig(spec=ModelSpec(family="ti", n=6, lam=0.0),
                          start=0.0, stop=1.0, step=0.5)
        assert cfg.labels == tuple(tuple(l) for l in CANONICAL_LABELS_6)

    def test_label_set_naming_a_subset_twice_is_a_config_error(self):
        spec = ModelSpec(family="xxz", n=6, delta=-1.1)
        with pytest.raises(ConfigError, match="same site subset twice: 1$"):
            SweepConfig(spec=spec, start=-1.1, stop=-0.9, step=0.05, labels=((1,), (1,)))
        with pytest.raises(ConfigError, match="twice: 12, tot"):
            SweepConfig(spec=spec, start=-1.1, stop=-0.9, step=0.05,
                        labels=((1, 2), TOT6, [1, 2], (1,), TOT6))

    def test_invalid_ranges(self):
        with pytest.raises(ConfigError):
            ti_cfg(0.0, 1.0, -0.1)
        with pytest.raises(ConfigError):
            ti_cfg(1.0, 0.5, 0.1)

    def test_ti_start_value_is_product_power(self, ti_line):
        assert ti_line.values[TOT6][0] == pytest.approx(HI**6, abs=1e-10)

    def test_metadata_recorded(self, ti_line):
        assert ti_line.energy[0] == pytest.approx(-6.0, abs=1e-10)
        assert ti_line.degeneracy[0] == 1
        assert ti_line.parity[0] == 1
        assert ti_line.gap[0] > 0

    def test_xxz_aligned_up_constant_below_transition(self):
        cfg = SweepConfig(spec=ModelSpec(family="xxz", n=6, delta=0.0),
                          start=-2.0, stop=-1.0 - 1e-4, step=0.01,
                          labels=tuple(tuple(l) for l in CANONICAL_LABELS_6),
                          policy="aligned_up")
        line = sweep(cfg)
        for label in cfg.labels:
            series = line.values[label]
            assert np.max(series) - np.min(series) < 1e-10

    def test_xy_discontinuity_near_factorization(self, xy_line):
        # single-site values change discontinuously around 1.1547
        series = xy_line.values[(1,)]
        params = xy_line.params
        window = (params > 1.10) & (params < 1.20)
        diffs = np.abs(np.diff(series[window]))
        assert np.max(diffs) > 10 * np.median(diffs)
        jump_at = params[window][np.argmax(diffs)]
        assert abs(jump_at - 1.1547) <= 0.005

    def test_ground_states_walk_the_grid_and_name_a_failing_point(self):
        cfg = ti_cfg(0.0, 0.3, 0.1)
        walked = list(models.ground_states(cfg.spec, cfg.params, cfg.policy))
        assert len(walked) == len(cfg.params) == 4
        assert walked[0].energy == pytest.approx(-6.0, abs=1e-12)
        # at h = 0 the all-up state leaves the ground space once lambda > 0
        cfg = SweepConfig(spec=ModelSpec(family="ti", n=4, h=0.0), start=1.0, stop=1.1,
                          step=0.05, labels=((1,),), policy="aligned_up")
        with pytest.raises(PolicyError, match=r"\(at lambda = 1\)$"):
            next(models.ground_states(cfg.spec, cfg.params, cfg.policy))
        with pytest.raises(PolicyError, match=r"\(at lambda = 1\)$"):
            sweep(cfg)

    def test_determinism(self):
        cfg = ti_cfg(0.0, 0.3, 0.1)
        a = sweep(cfg)
        b = sweep(cfg)
        assert np.array_equal(a.values[TOT6], b.values[TOT6])
        assert np.array_equal(a.energy, b.energy)


class TestFirstDerivative:
    def test_constant_series_is_zero(self, ti_line):
        line = sweep(SweepConfig(spec=ModelSpec(family="xxz", n=6, delta=0.0),
                                 start=-2.0, stop=-1.5, step=0.1, labels=((1,),),
                                 policy="aligned_up"))
        d = first_derivative(line, (1,))
        assert np.max(np.abs(d)) < 1e-12

    def test_linear_ramp(self):
        cfg = ti_cfg(0.0, 1.0, 0.1)
        line = sweep(cfg)
        # overwrite with a synthetic ramp: derivative must be 2 everywhere
        line.values[TOT6] = 2.0 * line.params
        d = first_derivative(line, TOT6)
        assert np.max(np.abs(d - 2.0)) < 1e-9


class TestDerivativeExtrema:
    def test_ti_pseudo_critical_minimum(self, ti_line):
        minima = [p for p in find_derivative_extrema(ti_line, TOT6) if p.detail == "minimum"]
        assert minima
        deepest = min(minima, key=lambda p: p.magnitude)
        assert deepest.location == pytest.approx(0.9156, abs=0.01)
        assert deepest.magnitude == pytest.approx(-5.57, abs=0.1)
        assert deepest.kind == "derivative_extremum"
        assert deepest.label == "tot"

    def test_short_series_rejected(self):
        line = sweep(ti_cfg(0.0, 0.3, 0.1))
        with pytest.raises(NumericalError):
            find_derivative_extrema(line, TOT6)

    @pytest.mark.parametrize("index,bump", [(2, 0.0), (2, -1e-15), (2, 1e-15), (3, -1e-15),
                                            (3, 1e-15)])
    def test_two_equal_samples_are_one_minimum_at_their_midpoint(self, index, bump,
                                                                 monkeypatch):
        # rounding noise on either sample of a flat bottom must not decide the extremum
        d = np.array([5.0, 4.0, 1.0, 1.0, 4.0, 5.0, 6.0])
        d[index] += bump
        monkeypatch.setattr(analysis, "first_derivative", lambda line, label: d)
        point, = find_derivative_extrema(sweep(ti_cfg(0.0, 0.6, 0.1)), TOT6)
        assert point.detail == "minimum"
        assert point.location == pytest.approx(0.25, abs=1e-12)
        assert point.magnitude == pytest.approx(1.0, abs=1e-14)

    def test_longer_run_reports_its_centre_and_mean(self, monkeypatch):
        d = np.array([-1.0, 2.0, 3.0, 3.0 + 1e-12, 3.0 - 1e-12, 2.5, 2.0])
        monkeypatch.setattr(analysis, "first_derivative", lambda line, label: d)
        point, = find_derivative_extrema(sweep(ti_cfg(0.0, 0.6, 0.1)), TOT6)
        assert point.detail == "maximum"
        assert point.location == pytest.approx(0.3, abs=1e-12)
        assert point.magnitude == pytest.approx(3.0, abs=1e-12)

    def test_benchmark_xxz_grid_minimum_next_to_the_jump_for_every_label(self, xxz_bench_line):
        # d(-1.0) = d(-0.95) bit for bit for labels 1, 12345 and tot
        for sites in CANONICAL_LABELS_6:
            minima = [p.location for p in find_derivative_extrema(xxz_bench_line, sites)
                      if p.detail == "minimum" and -1.0 <= p.location <= -0.95]
            assert minima == [pytest.approx(-0.975, abs=1e-3)], sites

    def test_flat_series_reports_nothing(self):
        line = sweep(SweepConfig(spec=ModelSpec(family="xxz", n=6, delta=0.0),
                                 start=-2.0, stop=-1.2, step=0.05, labels=((1, 2),),
                                 policy="aligned_up"))
        assert find_derivative_extrema(line, (1, 2)) == []


class TestJumps:
    def test_smooth_ti_sweep_is_clean(self, ti_line):
        assert find_sector_crossings(ti_line) == []

    def test_xy_jumps_at_crossings(self, xy_line):
        locations = [p.location for p in of_kind(find_sector_crossings(xy_line), "jump")
                     if p.label == "tot"]
        assert any(abs(l - 1.1547) <= 0.005 for l in locations)
        assert any(abs(l - 1.545) <= 0.02 for l in locations)

    def test_xxz_jump_at_first_transition(self):
        cfg = SweepConfig(spec=ModelSpec(family="xxz", n=6, delta=0.0),
                          start=-1.5, stop=-0.5, step=0.01, labels=((1,), TOT6),
                          policy="aligned_up")
        jumps = of_kind(find_sector_crossings(sweep(cfg)), "jump")
        for name in ("1", "tot"):
            assert any(abs(p.location + 1.0) <= 0.01 for p in jumps if p.label == name)

    def test_benchmark_xxz_grid_jumps_once_per_label_at_minus_one(self, xxz_bench_line):
        # the smooth slope above delta = -1 is not a jump: only the S_z crossing is
        jumps = of_kind(find_sector_crossings(xxz_bench_line), "jump")
        assert sorted(p.label for p in jumps) == sorted(NAMES6)
        assert [p.location for p in jumps] == [-1.0] * 12

    def test_all_equal_series_returns_empty(self):
        line = sweep(SweepConfig(spec=ModelSpec(family="xxz", n=6, delta=0.0),
                                 start=-2.0, stop=-1.5, step=0.1, labels=((1,),),
                                 policy="aligned_up"))
        assert find_sector_crossings(line) == []


def crossings_of(line):
    return of_kind(find_sector_crossings(line), "sector_crossing")


def crossings(cfg):
    return crossings_of(sweep(cfg))


def assert_crossings_carry_a_jump_for_every_label(cfg, locations):
    points = find_sector_crossings(sweep(cfg))
    found = of_kind(points, "sector_crossing")
    assert [p.location for p in found] == locations
    for crossing in found:
        labels = {p.label for p in of_kind(points, "jump") if p.location == crossing.location}
        assert labels == {label_name(l, cfg.spec.n) for l in cfg.labels}


class TestParityCrossings:
    def test_xy_gamma_05_factorization_crossing(self):
        cfg = SweepConfig(spec=ModelSpec(family="xy", n=6, lam=1.0, gamma=0.5),
                          start=1.0, stop=1.3, step=0.01, labels=((1,),))
        points = crossings(cfg)
        assert len(points) == 1
        assert points[0].location == pytest.approx(2 / SQ3, abs=CROSSING_BRACKET)
        assert points[0].kind == "sector_crossing"
        assert points[0].label == "global"
        assert points[0].detail == "1 -> -1"

    def test_xy_gamma_08_closed_form(self):
        cfg = SweepConfig(spec=ModelSpec(family="xy", n=6, lam=1.0, gamma=0.8),
                          start=1.5, stop=1.8, step=0.01, labels=((1,),))
        points = crossings(cfg)
        assert len(points) == 1
        assert points[0].location == pytest.approx(5.0 / 3.0, abs=CROSSING_BRACKET)

    # all S_z sectors share the ground level at xxz delta = -1, grid point 10 here
    XXZ_HIT = dict(spec=ModelSpec(family="xxz", n=6), start=-1.5, stop=-0.5, step=0.05,
                   labels=((1,),))

    def test_exact_grid_hit_reported_at_the_grid_point(self):
        cfg = SweepConfig(**self.XXZ_HIT)
        assert cfg.params[10] == -1.0
        points = crossings(cfg)
        assert [(p.location, p.detail) for p in points] == [(-1.0, "3 -> 0")]

        def gap(value):  # lowest S_z = 0 minus lowest S_z = 3 level
            sectors, energies, _ = sector_energies(cfg.spec.with_param(value))
            return energies[sectors.index(0.0)] - energies[sectors.index(3.0)]
        slope = (gap(cfg.params[11]) - gap(cfg.params[10])) / (cfg.params[11] - cfg.params[10])
        assert points[0].magnitude == pytest.approx(abs(slope), rel=1e-12)

    def test_sign_of_a_tied_gap_does_not_move_the_hit(self):
        line = sweep(SweepConfig(**self.XXZ_HIT))
        found = []
        for sign in (1.0, -1.0):  # move the tied S_z = 0 level at delta = -1 by tol / 10
            sectors, energies, tol = line.levels[10]
            energies = energies.copy()
            energies[sectors.index(0.0)] += sign * tol / 10
            levels = line.levels[:10] + [(sectors, energies, tol)] + line.levels[11:]
            found.append(crossings_of(replace(line, levels=levels)))
        assert [p.location for p in found[0]] == [p.location for p in found[1]] == [-1.0]

    def test_grid_points_reuse_the_sweep_levels(self, monkeypatch):
        line = sweep(SweepConfig(**self.XXZ_HIT))
        calls = []
        monkeypatch.setattr(analysis, "sector_energies",
                            lambda spec: calls.append(spec) or sector_energies(spec))
        assert [p.location for p in crossings_of(line)] == [-1.0]
        assert calls == []

    def test_a_bracketed_crossing_takes_few_level_solves(self, monkeypatch):
        # the root of the two sectors' level difference, not a bisection (about 20 solves);
        # at the bracket's grid ends the root search reads the sweep's own levels
        line = sweep(SweepConfig(spec=ModelSpec(family="xy", n=6, lam=1.0, gamma=0.5),
                                 start=1.0, stop=1.3, step=0.01, labels=((1,),)))
        calls = []
        monkeypatch.setattr(analysis, "sector_energies",
                            lambda spec: calls.append(spec.lam) or sector_energies(spec))
        assert [p.location for p in crossings_of(line)] == [pytest.approx(2 / SQ3,
                                                                          abs=CROSSING_BRACKET)]
        assert not set(calls) & set(line.params.tolist())
        assert 0 < len(calls) <= 4

    def test_ti_has_no_crossing(self):
        cfg = SweepConfig(spec=ModelSpec(family="ti", n=6, lam=0.0),
                          start=0.01, stop=5.0, step=0.25, labels=((1,),))
        assert crossings(cfg) == []


class TestSectorCrossings:
    @pytest.mark.parametrize("n", [4, 8])
    @pytest.mark.parametrize("start", [-2.0, -2.013])
    def test_xxz_crossing_without_parity_change(self, n, start):
        # ground parity is +1 on both sides of delta = -1 for n = 4 and 8
        cfg = SweepConfig(spec=ModelSpec(family="xxz", n=n), start=start, stop=-0.5,
                          step=0.05, labels=((1,),), policy="aligned_up")
        points = crossings(cfg)
        assert len(points) == 1
        assert abs(points[0].location + 1.0) <= 1e-8
        assert points[0].detail == f"{n // 2} -> 0"

    def test_readme_xy_grid_crossings_carry_a_jump_for_every_label(self):
        cfg = SweepConfig(spec=ModelSpec(family="xy", n=6, gamma=0.5), start=0.0,
                          stop=2.0, step=0.005)
        assert_crossings_carry_a_jump_for_every_label(
            cfg, [pytest.approx(2 / SQ3, abs=1e-6), pytest.approx(1.5404, abs=1e-4)])

    def test_xy_n8_crossings_are_the_free_fermion_roots(self):
        # the three parity flips of the 8-site ring at gamma = 0.5 on [0.5, 2]: the
        # factorization point 2/sqrt3 and the roots of E_R - E_NS of the Jordan-Wigner solution
        cfg = SweepConfig(spec=ModelSpec(family="xy", n=8, gamma=0.5), start=0.5,
                          stop=2.0, step=0.01)
        assert_crossings_carry_a_jump_for_every_label(
            cfg, [pytest.approx(2 / SQ3, abs=CROSSING_BRACKET),
                  pytest.approx(1.3385, abs=1e-4), pytest.approx(1.9942, abs=1e-4)])

    def test_isotropic_ferro_point_picks_the_top_sector(self):
        # an even ring's ground space is the spin-n/2 multiplet, one level in each of
        # the n + 1 sectors; an odd ring is frustrated and keeps the two aligned states
        for n in range(2, 11):
            spec = ModelSpec(family="xxz", n=n, delta=-1.0)
            sectors, energies, tol = sector_energies(spec)
            tied = [s for s, e in zip(sectors, energies) if e - min(energies) <= tol]
            assert tied == (list(sectors) if n % 2 == 0 else [-n / 2, n / 2]), n
            assert sectors[pick_sector(sectors, energies, tol)] == n / 2
            gs = ground_state(spec)
            assert gs.degeneracy == len(tied), n
            sz = float(total_sz_diagonal(n) @ np.sum(np.abs(gs.state) ** 2, axis=1))
            assert sz == pytest.approx(n / 2, abs=1e-12), n

    def test_pick_sector_rule(self):
        # lowest energy wins; within tol the most positive sector; equal sectors, the first
        assert pick_sector([1.0, -1.0], [0.0, -0.5], 1e-12) == 1
        assert pick_sector([-1.0, 1.0, 0.0], [0.0, 5e-13, -5e-13], 1e-12) == 1
        assert pick_sector([1.0, 1.0], [0.0, 0.0], 1e-12) == 0


brent_root = analysis._brent_root  # the port itself, while a test wraps the module's name


def recorded(f, points):
    """f, with every point it is evaluated at appended to `points`."""
    def g(x):
        points.append(x)
        return f(x)
    return g


def assert_port_is_brentq(f, a, b):
    """`_brent_root` gives scipy's `brentq` root from the same evaluation points, bit
    for bit, at CROSSING_BRACKET and brentq's default rtol and iteration count."""
    want, got = [], []
    root = brentq(recorded(f, want), a, b, xtol=CROSSING_BRACKET)
    assert brent_root(recorded(f, got), a, b) == root
    assert got == want
    return root


class TestBrentRoot:
    """The scipy-free Brent root finder against `scipy.optimize.brentq`."""

    @pytest.mark.parametrize("f, a, b", [
        (lambda x: x * x - 2.0, 0.0, 2.0),
        (lambda x: math.cos(x) - x, 0.0, 1.0),
        (lambda x: math.tanh(40.0 * (x - 0.3)), 1.0, -1.0),  # steep, bracket reversed
        (lambda x: (x - 1.0 / 3.0) ** 3, -2.0, 5.0),  # a triple root: mostly bisection
        (lambda x: math.exp(x) - 1e-3, -10.0, 0.0),
        (lambda x: math.atan(x - 0.7) + 0.3 * math.sin(5.0 * (x - 0.7)), -3.0, 4.0),
    ])
    def test_analytic_functions(self, f, a, b):
        assert_port_is_brentq(f, a, b)

    def test_random_brackets(self):
        rng = np.random.default_rng(11)
        for k in range(400):
            r, c = rng.uniform(-3.0, 3.0), rng.uniform(0.1, 5.0)
            a, b = r - rng.uniform(1e-6, 4.0), r + rng.uniform(1e-6, 4.0)
            f = [lambda x: math.tanh(c * (x - r)) + 0.1 * (x - r) ** 3,
                 lambda x: math.exp(c * (x - r)) - 1.0,
                 lambda x: math.atan(x - r) + 0.3 * math.sin(c * (x - r)),
                 lambda x: (x - r) ** 3 + c * (x - r)][k % 4]
            assert_port_is_brentq(f, *((a, b) if k % 3 else (b, a)))

    def run_crossings(self, monkeypatch, cfg):
        """The sector crossings of the line of `cfg`, each root search checked
        against brentq on the detector's own gap function."""
        roots = []

        def checked(f, a, b):
            roots.append(assert_port_is_brentq(f, a, b))
            return roots[-1]
        monkeypatch.setattr(analysis, "_brent_root", checked)
        found = [p.location for p in crossings(cfg)]
        assert set(roots) <= set(found)
        return found, roots

    def test_sector_gaps_of_the_n9_xy_line(self, monkeypatch):
        # the CI n = 9 line at step 0.05: the same three parity crossings
        cfg = SweepConfig(spec=ModelSpec(family="xy", n=9, gamma=0.5), start=1.1, stop=1.8,
                          step=0.05, labels=((1,),))
        found, roots = self.run_crossings(monkeypatch, cfg)
        assert len(found) == len(roots) == 3
        assert found[0] == pytest.approx(2 / SQ3, abs=CROSSING_BRACKET)

    def test_sector_gaps_of_a_shifted_xxz_grid(self, monkeypatch):
        # a grid shifted off delta = -1, so the ferromagnetic crossing is bracketed
        cfg = SweepConfig(spec=ModelSpec(family="xxz", n=6), start=-1.513, stop=-0.5,
                          step=0.05, labels=((1,),), policy="aligned_up")
        found, roots = self.run_crossings(monkeypatch, cfg)
        assert len(found) == len(roots) == 1
        assert found[0] == pytest.approx(-1.0, abs=CROSSING_BRACKET)

    def test_same_sign_ends_raise_value_error(self):
        with pytest.raises(ValueError, match="different signs"):
            brent_root(lambda x: x * x + 1.0, -1.0, 1.0)

    @pytest.mark.parametrize("a, b", [(0.5, 3.0), (-2.0, 0.5)])
    def test_a_zero_at_an_end_returns_that_end(self, a, b):
        assert assert_port_is_brentq(lambda x: x - 0.5, a, b) == 0.5

    def test_no_convergence_raises_runtime_error(self):
        # |f| is 1 at every point, so each step bisects, and halving a bracket of
        # 2e300 down to the tolerance takes about 1000 steps, far more than 100
        def step(x):
            return -1.0 if x < 0.3 else 1.0
        want, got = [], []
        with pytest.raises(RuntimeError, match="after 100 iterations"):
            brentq(recorded(step, want), -1e300, 1e300, xtol=CROSSING_BRACKET)
        with pytest.raises(RuntimeError, match="did not converge in 100 iterations"):
            brent_root(recorded(step, got), -1e300, 1e300)
        assert got == want


class TestMedian:
    """The median stand-in of the extremum detector against `np.median`."""

    @pytest.mark.parametrize("length", [1, 2, 3, 4, 7, 10, 241])
    def test_equals_numpy_with_ties(self, length):
        rng = np.random.default_rng(length)
        for values in (rng.normal(size=length), rng.integers(0, 3, size=length) * 0.1,
                       np.full(length, -0.25), rng.normal(size=length) * 1e-300):
            assert analysis._median(values) == float(np.median(values))


class TestFactorizationValueCheck:
    def test_expected_column_gamma_half_is_unity(self):
        rows = factorization_value_check(0.5, CANONICAL_LABELS_6)
        assert len(rows) == 12
        for _, expected in rows:
            assert expected == pytest.approx(1.0, abs=1e-14)

    def test_expected_single_site_gamma_08(self):
        rows = factorization_value_check(0.8, [(1,)])
        # 0.5 * (1 + sqrt(3)/3), frozen by direct arithmetic
        assert rows[0] == ("1", pytest.approx(0.7886751345948129, abs=1e-14))

    def test_ising_limit_rejected(self):
        with pytest.raises(ValueError):
            factorization_value_check(1.0, [(1,)])


class TestInvariants:
    def test_label_size_monotone_at_zero_coupling(self, ti_line):
        # at lambda=0 the value is HI^k for a k-site label: strictly increasing in k
        line = sweep(ti_cfg(0.0, 0.02, 0.01,
                            labels=tuple(tuple(l) for l in CANONICAL_LABELS_6)))
        values = {label: line.values[label][0] for label in line.values}
        for label, value in values.items():
            assert value == pytest.approx(HI ** len(label), abs=1e-12)
        by_size = sorted(values.items(), key=lambda kv: (len(kv[0]), kv[0]))
        for (la, va), (lb, vb) in zip(by_size, by_size[1:]):
            if len(lb) > len(la):
                assert vb > va

    def test_xxz_constant_labels_above_transition(self):
        cfg = SweepConfig(spec=ModelSpec(family="xxz", n=6, delta=0.0),
                          start=-0.8, stop=10.0, step=0.2,
                          labels=((1,), (1, 2, 3, 4, 5), TOT6))
        line = sweep(cfg)
        for label in cfg.labels:
            series = line.values[label]
            assert np.max(series) - np.min(series) < 1e-8

    @pytest.mark.parametrize("gamma", [0.3, 0.8])
    def test_parity_flips_only_at_detected_crossings(self, gamma):
        lam_f = 1.0 / math.sqrt(1.0 - gamma**2)
        cfg = SweepConfig(spec=ModelSpec(family="xy", n=6, lam=1.0, gamma=gamma),
                          start=max(0.05, lam_f - 0.3), stop=lam_f + 0.3, step=0.01,
                          labels=((1,),))
        line = sweep(cfg)
        found = [p.location for p in of_kind(find_sector_crossings(line), "sector_crossing")]
        flips = []
        for i in range(len(line.params) - 1):
            if line.parity[i] != line.parity[i + 1]:
                flips.append(0.5 * (line.params[i] + line.params[i + 1]))
        assert len(flips) == len(found)
        for flip, crossing in zip(flips, sorted(found)):
            assert abs(flip - crossing) <= 0.01


class TestHelpers:
    def test_canonical_labels(self):
        assert len(canonical_labels(6)) == 12
        assert canonical_labels(4) == [(1,), (1, 2), (1, 2, 3, 4)]
        assert canonical_labels(3) == [(1,), (1, 2), (1, 2, 3)]
        assert canonical_labels(2) == [(1,), (1, 2)]  # the full ring is (1, 2) itself

    def test_count_sign_changes(self):
        assert count_sign_changes([1.0, -1.0, 1.0, 1.0, -2.0]) == 3
        assert count_sign_changes([1.0, 2.0, 3.0]) == 0
        assert count_sign_changes([1.0, 0.0, -1.0]) == 1
