"""Array profile families and samplers against the per-profile reference.

The reference below is the per-profile formulation the families replace:
one object per profile with its own `value` and `gradient`, and samplers
that draw and evaluate one profile at a time.  The Fourier and bump
families must reproduce it bit for bit; plane waves, built per axis, agree
with it to rounding, and the samplers' torus reference evaluates each
profile alone through the family.  Every sampler must draw the same
numbers in the same order, leaving the generator in the same state.
"""
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from energyrep import gauge, sampling
from energyrep.grid import Field, build_grid, norm
from energyrep.profiles import bumps, fourier_series, plane_waves


# ---------------------------------------------------------------------------
# reference: one object per profile
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FourierProfile:
    period: float
    cos_amps: tuple
    sin_amps: tuple

    def value(self, nodes):
        s = nodes[:, 0]
        out = np.zeros_like(s)
        for k, (ca, sa) in enumerate(zip(self.cos_amps, self.sin_amps), start=1):
            w = 2.0 * np.pi * k / self.period
            out += ca * np.cos(w * s) + sa * np.sin(w * s)
        return out

    def gradient(self, nodes):
        s = nodes[:, 0]
        out = np.zeros_like(s)
        for k, (ca, sa) in enumerate(zip(self.cos_amps, self.sin_amps), start=1):
            w = 2.0 * np.pi * k / self.period
            out += -ca * w * np.sin(w * s) + sa * w * np.cos(w * s)
        g = np.zeros_like(nodes)
        g[:, 0] = out
        return g


@dataclass(frozen=True)
class TorusWaveProfile:
    periods: tuple
    terms: tuple  # of (amp, kx, ky, phase)

    def _phases(self, nodes):
        px, py = self.periods
        return [(a, 2 * np.pi * (kx * nodes[:, 0] / px + ky * nodes[:, 1] / py) + ph,
                 2 * np.pi * kx / px, 2 * np.pi * ky / py)
                for (a, kx, ky, ph) in self.terms]

    def value(self, nodes):
        out = np.zeros(nodes.shape[0])
        for a, arg, _, _ in self._phases(nodes):
            out += a * np.cos(arg)
        return out

    def gradient(self, nodes):
        g = np.zeros_like(nodes)
        for a, arg, wx, wy in self._phases(nodes):
            s = -a * np.sin(arg)
            g[:, 0] += s * wx
            g[:, 1] += s * wy
        return g


@dataclass(frozen=True)
class GaussianProfile:
    center: tuple
    sigma: float
    amplitude: float

    def value(self, nodes):
        r2 = np.sum((nodes - np.asarray(self.center)) ** 2, axis=1)
        return self.amplitude * np.exp(-r2 / (2.0 * self.sigma ** 2))


@dataclass(frozen=True)
class BumpProfile:
    center: tuple
    width: float
    amplitude: float

    def _inside(self, nodes):
        c = np.asarray(self.center)
        diff = (nodes - c) / self.width
        r2 = np.sum(diff ** 2, axis=1)
        inside = r2 < 1.0 - 1e-12
        return diff, r2, inside

    def value(self, nodes):
        _, r2, inside = self._inside(nodes)
        out = np.zeros(nodes.shape[0])
        denom = np.where(inside, 1.0 - r2, 1.0)
        out[inside] = self.amplitude * np.exp(1.0 - 1.0 / denom[inside])
        return out

    def gradient(self, nodes):
        diff, r2, inside = self._inside(nodes)
        denom = np.where(inside, 1.0 - r2, 1.0)
        v = np.zeros(nodes.shape[0])
        v[inside] = self.amplitude * np.exp(1.0 - 1.0 / denom[inside])
        factor = np.zeros(nodes.shape[0])
        factor[inside] = -2.0 / (self.width ** 2 * denom[inside] ** 2)
        return (v * factor)[:, None] * diff * self.width


@dataclass(frozen=True)
class OneWaveRow:
    """A torus profile evaluated alone by the plane-wave family, which
    agrees with TorusWaveProfile to rounding only: against it the samplers'
    draws and layout stay pinned bit for bit."""

    grid: object
    terms: tuple

    def _evaluate(self):
        g = self.grid
        periods = tuple(g.spacing[j] * g.axis_sizes[j] for j in range(2))
        vals, grads = plane_waves(
            (g.axis_coordinates(0), g.axis_coordinates(1)), periods,
            np.array([self.terms], dtype=float))
        return vals[0], grads[0]

    def value(self, nodes):
        return self._evaluate()[0]

    def gradient(self, nodes):
        return self._evaluate()[1]


def ref_scalar_profile(grid, rng, modes, amplitude):
    if grid.topology == "periodic" and grid.dimension == 1:
        period = grid.spacing[0] * grid.axis_sizes[0]
        scale = amplitude / max(modes, 1)
        cos_amps = tuple(rng.uniform(-scale, scale) / k for k in range(1, modes + 1))
        sin_amps = tuple(rng.uniform(-scale, scale) / k for k in range(1, modes + 1))
        return FourierProfile(period, cos_amps, sin_amps)
    if grid.topology == "periodic":
        terms = []
        for _ in range(modes):
            kx, ky = int(rng.integers(0, 3)), int(rng.integers(0, 3))
            if kx == 0 and ky == 0:
                kx = 1
            terms.append((rng.uniform(-amplitude, amplitude) / max(kx + ky, 1),
                          kx, ky, rng.uniform(0, 2 * np.pi)))
        return OneWaveRow(grid, tuple(terms))
    extent = np.max(np.abs(grid.nodes))
    center = tuple(rng.uniform(-extent / 2, extent / 2)
                   for _ in range(grid.dimension))
    width = rng.uniform(extent / 3, 2 * extent / 3)
    return BumpProfile(center, width, rng.uniform(-amplitude, amplitude))


def ref_random_one_form(grid, rng, modes=3, amplitude=1.0, normalized=False):
    n, d = grid.node_count, grid.dimension
    vals = np.zeros((n, d, 3), dtype=complex)
    for j in range(d):
        for a in range(3):
            real = ref_scalar_profile(grid, rng, modes, amplitude)
            imag = ref_scalar_profile(grid, rng, modes, amplitude)
            vals[:, j, a] = real.value(grid.nodes) + 1j * imag.value(grid.nodes)
    f = Field(grid, 1, vals, algebra=True)
    if normalized:
        nv = norm(f)
        if nv > 0:
            f = f * (1.0 / nv)
    return f


def ref_random_covector_testset(grid, rng, count, modes=3):
    out = []
    for _ in range(count):
        vals = np.zeros((grid.node_count, grid.dimension), dtype=complex)
        for j in range(grid.dimension):
            vals[:, j] = ref_scalar_profile(grid, rng, modes, 1.0).value(grid.nodes)
        out.append(Field.covector(grid, vals))
    return out


def ref_random_algebra_field(grid, rng, modes=3, amplitude=1.0):
    profiles = [ref_scalar_profile(grid, rng, modes, amplitude) for _ in range(3)]
    vals = np.stack([p.value(grid.nodes) for p in profiles], axis=1)
    ders = np.stack([p.gradient(grid.nodes) for p in profiles], axis=2)
    return gauge.AlgebraValuedField(grid, vals, ders)


def ref_random_gauge_field(grid, rng, modes=3, amplitude=1.0):
    return gauge.gauge_from_algebra(
        ref_random_algebra_field(grid, rng, modes, amplitude))


def ref_rho_field(grid, profile, amplitude, rng=None):
    if profile == "bump":
        extent = float(np.max(np.abs(grid.nodes)))
        prof = GaussianProfile((0.0,) * grid.dimension, extent / 3.0, amplitude)
        return prof.value(grid.nodes)
    return ref_scalar_profile(grid, rng, 2, amplitude).value(grid.nodes)


# ---------------------------------------------------------------------------

GRIDS = {
    "circle": lambda: build_grid("circle", 24, radius=1.3),
    "torus": lambda: build_grid("torus", 7, radius=0.9),
    "interval": lambda: build_grid("interval", 33, halfwidth=4.0),
    "square": lambda: build_grid("square", 9, halfwidth=2.5),
}


@pytest.fixture(params=sorted(GRIDS))
def grid(request):
    return GRIDS[request.param]()


def plane_wave_rounding_bound(periods, terms):
    """Absolute bound between two evaluations of one plane-wave profile
    that round its phase differently.

    A wave's phase 2 pi (kx x / Px + ky y / Py) + phase has size at most
    A = 2 pi (kx + ky) + phase, and each evaluation rounds it within a few
    u A; cos and sin add a few u.  The value moves by |amp| times that, the
    gradient by |amp| |w| times it, w the wave vector."""
    amp, kx, ky, ph = np.asarray(terms, float).T
    size = 2 * np.pi * (kx + ky) + np.abs(ph)
    w = np.hypot(2 * np.pi * kx / periods[0], 2 * np.pi * ky / periods[1])
    u = np.finfo(float).eps / 2
    return 4 * u * float(np.sum(np.abs(amp) * (1 + w) * (1 + size)))


def assert_same(a, b):
    assert a.dtype == b.dtype
    assert np.array_equal(a, b), np.max(np.abs(a - b))


class TestFamilies:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fourier_series_matches_per_profile(self, seed):
        g = GRIDS["circle"]()
        rng = np.random.default_rng(seed)
        ca, sa = rng.uniform(-1, 1, (2, 5, 4))
        period = g.spacing[0] * g.axis_sizes[0]
        vals, grads = fourier_series(g.nodes, period, ca, sa)
        assert vals.shape == (5, g.node_count)
        assert grads.shape == (5, g.node_count, 1)
        for i in range(5):
            prof = FourierProfile(period, tuple(ca[i]), tuple(sa[i]))
            assert_same(vals[i], prof.value(g.nodes))
            assert_same(grads[i], prof.gradient(g.nodes))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_plane_waves_match_per_profile(self, seed):
        g = GRIDS["torus"]()
        rng = np.random.default_rng(seed)
        periods = tuple(g.spacing[j] * g.axis_sizes[j] for j in range(2))
        terms = np.stack([rng.uniform(-1, 1, (4, 3)),
                          rng.integers(0, 3, (4, 3)), rng.integers(0, 3, (4, 3)),
                          rng.uniform(0, 2 * np.pi, (4, 3))], axis=2)
        vals, grads = plane_waves((g.axis_coordinates(0), g.axis_coordinates(1)),
                                  periods, terms)
        assert vals.shape == (4, g.node_count)
        assert grads.shape == (4, g.node_count, 2)
        for i in range(4):
            prof = TorusWaveProfile(periods, tuple(
                (a, int(kx), int(ky), ph) for a, kx, ky, ph in terms[i].tolist()))
            bound = plane_wave_rounding_bound(periods, terms[i])
            assert np.max(np.abs(vals[i] - prof.value(g.nodes))) <= bound
            assert np.max(np.abs(grads[i] - prof.gradient(g.nodes))) <= bound

    def test_plane_wave_trig_is_per_axis(self, monkeypatch):
        # cos and sin see (P, N) axis tables, never the (P, N^2) phases
        g = build_grid("torus", 64, radius=1.0)
        sizes = []
        for name in ("cos", "sin"):
            trig = getattr(np, name)
            monkeypatch.setattr(np, name, lambda x, trig=trig: (
                sizes.append(np.size(x)), trig(x))[1])
        sampling.random_one_form(g, np.random.default_rng(0), modes=3)
        profiles = 6 * g.dimension
        assert sizes and max(sizes) <= profiles * 64

    def test_plane_waves_one_wave_at_a_time(self):
        # 5 one-forms on the torus at N = 128 take 7.5 MiB; evaluating every
        # wave's phases at once peaked at 105 MiB, one wave at a time at 52.5,
        # per-axis tables summed by one product per profile at 38.2
        g = build_grid("torus", 128, radius=1.0)
        tracemalloc.start()
        try:
            sampling.random_one_form(g, np.random.default_rng(0), modes=3,
                                     count=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 80 * 2 ** 20

    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_bumps_match_per_profile(self, name):
        g = GRIDS[name]()
        rng = np.random.default_rng(5)
        extent = np.max(np.abs(g.nodes))
        count = 6
        centers = rng.uniform(-extent / 2, extent / 2, (count, g.dimension))
        widths = rng.uniform(extent / 3, 2 * extent / 3, count)
        amps = rng.uniform(-1, 1, count)
        vals, grads = bumps(g.nodes, centers, widths, amps)
        assert vals.shape == (count, g.node_count)
        assert grads.shape == (count, g.node_count, g.dimension)
        for i in range(count):
            prof = BumpProfile(tuple(centers[i].tolist()), float(widths[i]),
                               float(amps[i]))
            assert np.any(prof.value(g.nodes) != 0.0)
            assert_same(vals[i], prof.value(g.nodes))
            assert_same(grads[i], prof.gradient(g.nodes))

    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_values_alone_are_the_same_bits(self, name):
        # the grid's family asked for values alone: the values of the full
        # evaluation bit for bit, and None in place of the gradients
        g = GRIDS[name]()
        rows, = sampling._draw_rows(g, np.random.default_rng(7), 4,
                                    [("one_form", 3, 1.0)])
        full = sampling._profiles(g, rows, True)
        vals, grads = sampling._profiles(g, rows, False)
        assert grads is None and full[1].shape == vals.shape + (g.dimension,)
        assert vals.dtype == full[0].dtype and vals.shape == full[0].shape
        assert vals.tobytes() == full[0].tobytes()

    def test_bump_width_squared_as_a_scalar_power(self):
        # a width whose scalar square differs from the array square: the
        # gradient must use the former, as the per-profile formula does
        widths = np.random.default_rng(1).uniform(0.1, 10, 20000)
        w = next(x for x in widths if x ** 2 != np.square(x))
        g = build_grid("interval", 64, halfwidth=w)
        vals, grads = bumps(g.nodes, [[0.1]], [w], [0.7])
        prof = BumpProfile((0.1,), float(w), 0.7)
        assert_same(grads[0], prof.gradient(g.nodes))


def draw_both(grid, seed, new, ref):
    """Run the sampler and its reference on equal generators."""
    rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    out_new, out_ref = new(rng_new), ref(rng_ref)
    assert rng_new.random() == rng_ref.random()
    return out_new, out_ref


class TestSamplers:
    @pytest.mark.parametrize("modes,amplitude,normalized",
                             [(3, 1.0, False), (2, 0.8, True), (1, 2.0, True)])
    def test_random_one_form(self, grid, modes, amplitude, normalized):
        new, ref = draw_both(
            grid, 11,
            lambda r: sampling.random_one_form(grid, r, modes, amplitude,
                                               normalized),
            lambda r: ref_random_one_form(grid, r, modes, amplitude,
                                          normalized))
        assert (new.rank, new.algebra) == (ref.rank, ref.algebra)
        assert new.values.flags.c_contiguous
        assert_same(new.values, ref.values)

    @pytest.mark.parametrize("count", [1, 4])
    def test_random_covector_testset(self, grid, count):
        new, ref = draw_both(
            grid, 12,
            lambda r: sampling.random_covector_testset(grid, r, count),
            lambda r: ref_random_covector_testset(grid, r, count))
        assert new.sample_axes == 1 and len(new.values) == len(ref) == count
        assert new.values.flags.c_contiguous
        for a, b in zip(new.values, ref):
            assert (new.rank, new.algebra) == (b.rank, b.algebra)
            assert_same(a, b.values)

    # every sampled field is bounded (C_b)
    @pytest.mark.parametrize("bounded", [True])
    def test_random_algebra_field(self, grid, bounded):
        new, ref = draw_both(
            grid, 13,
            lambda r: sampling.random_algebra_field(grid, r, 3, 0.9),
            lambda r: ref_random_algebra_field(grid, r, 3, 0.9))
        assert_same(new.values, ref.values)
        assert_same(new.derivs, ref.derivs)

    @pytest.mark.parametrize("modes,amplitude", [(3, 1.0), (2, 0.8)])
    def test_random_gauge_field(self, grid, modes, amplitude):
        new, ref = draw_both(
            grid, 14,
            lambda r: sampling.random_gauge_field(grid, r, modes, amplitude),
            lambda r: ref_random_gauge_field(grid, r, modes, amplitude))
        assert_same(new.u, ref.u)
        assert_same(new.du, ref.du)

    @pytest.mark.parametrize("profile", ["random", "bump"])
    def test_rho_field(self, grid, profile):
        new, ref = draw_both(
            grid, 15,
            lambda r: sampling.rho_field(grid, profile, 0.4, rng=r),
            lambda r: ref_rho_field(grid, profile, 0.4, rng=r))
        assert_same(new, ref)


# ---------------------------------------------------------------------------
# sets against a loop of single draws
# ---------------------------------------------------------------------------

def arrays(sample):
    """The arrays that make up one sample or a set of any sampled kind."""
    if isinstance(sample, gauge.GaugeField):
        return sample.u, sample.du
    if isinstance(sample, gauge.AlgebraValuedField):
        return sample.values, sample.derivs
    if isinstance(sample, Field):
        return (sample.values,)
    return (sample,)


def assert_set_is_loop(got, loop):
    for whole, *parts in zip(arrays(got), *(arrays(x) for x in loop)):
        assert whole.flags.c_contiguous
        assert_same(whole, np.stack(parts))


SINGLES = {
    "one_form": lambda g, r, modes, amp: sampling.random_one_form(
        g, r, modes, amp),
    "unit_one_form": lambda g, r, modes, amp: sampling.random_one_form(
        g, r, modes, amp, normalized=True),
    "covector": lambda g, r, modes, amp: Field.covector(
        g, sampling.random_covector_testset(g, r, 1, modes).values[0]),
    "algebra": lambda g, r, modes, amp: sampling.random_algebra_field(
        g, r, modes, amp),
    "gauge": lambda g, r, modes, amp: sampling.random_gauge_field(
        g, r, modes, amp),
    "rho": lambda g, r, modes, amp: sampling.rho_field(g, "random", amp, rng=r),
}


class CountingGenerator:
    """A seeded Generator that records the name of every method called."""

    def __init__(self, seed):
        self.rng, self.calls = np.random.default_rng(seed), []

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.calls.append(name)
            return method(*args, **kwargs)
        return counted


class TestSampledSets:
    @pytest.mark.parametrize("count", [1, 5])
    @pytest.mark.parametrize("kind,sampler", [
        ("one_form", lambda g, r, c: sampling.random_one_form(
            g, r, 2, 0.8, count=c)),
        ("unit_one_form", lambda g, r, c: sampling.random_one_form(
            g, r, 2, 0.8, normalized=True, count=c)),
        ("algebra", lambda g, r, c: sampling.random_algebra_field(
            g, r, 2, 0.8, count=c)),
        ("gauge", lambda g, r, c: sampling.random_gauge_field(
            g, r, 2, 0.8, count=c)),
        ("covector", lambda g, r, c: sampling.random_covector_testset(
            g, r, c, 2)),
    ])
    def test_set_matches_single_draws(self, grid, count, kind, sampler):
        got, loop = draw_both(
            grid, 16, lambda r: sampler(grid, r, count),
            lambda r: [SINGLES[kind](grid, r, 2, 0.8) for _ in range(count)])
        assert_set_is_loop(got, loop)

    @pytest.mark.parametrize("count", [1, 4])
    def test_interleaved_tuples_match_single_draws(self, grid, count):
        kinds = (("rho", 2, 0.4), ("gauge", 3, 1.0), ("unit_one_form", 3, 1.0),
                 ("gauge", 2, 0.8), ("one_form", 2, 1.0), ("covector", 3, 1.0),
                 ("algebra", 1, 0.5))

        def loop(rng):
            draws = [[SINGLES[kind](grid, rng, modes, amp)
                      for kind, modes, amp in kinds] for _ in range(count)]
            return list(zip(*draws))

        got, want = draw_both(
            grid, 17, lambda r: sampling.random_tuples(grid, r, count, *kinds),
            loop)
        assert len(got) == len(kinds)
        for whole, singles in zip(got, want):
            assert_set_is_loop(whole, singles)

    @pytest.mark.parametrize("count", [None, 3])
    def test_gradients_only_where_read(self, grid, count, monkeypatch):
        # each kind is evaluated with gradients only if it reads them, and
        # is bit for bit what it is with every gradient evaluated, from the
        # same draws, leaving the generator in the same state
        kinds = tuple((kind, 2, 0.8) for kind in SINGLES)
        family, asked = sampling._profiles, []

        def spied(g, rows, gradients):
            asked.append(gradients)
            return family(g, rows, gradients)

        def run(evaluate):
            monkeypatch.setattr(sampling, "_profiles", evaluate)
            rng = np.random.default_rng(19)
            out = sampling.random_tuples(grid, rng, count, *kinds)
            return out, rng.bit_generator.state

        got, state = run(spied)
        want, want_state = run(lambda g, rows, _: family(g, rows, True))
        assert asked == [kind in ("algebra", "gauge") for kind, *_ in kinds]
        assert state == want_state
        for sample, reference in zip(got, want):
            for a, b in zip(arrays(sample), arrays(reference), strict=True):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("count", [0, -1])
    def test_empty_set_rejected(self, grid, count):
        with pytest.raises(ValueError, match="at least one sample"):
            sampling.random_one_form(grid, np.random.default_rng(0), count=count)

    def test_set_is_one_family_evaluation(self, grid, monkeypatch):
        calls = []
        family = sampling._profiles
        monkeypatch.setattr(sampling, "_profiles",
                            lambda *a: calls.append(1) or family(*a))
        rng = np.random.default_rng(3)
        sampling.random_gauge_field(grid, rng, count=6)
        sampling.random_tuples(grid, rng, 6, ("gauge", 3, 1.0),
                               ("unit_one_form", 3, 1.0))
        assert len(calls) == 3

    @pytest.mark.parametrize("name", ["circle", "interval", "square"])
    def test_set_is_one_generator_call(self, name):
        grid = GRIDS[name]()
        kinds = (("rho", 2, 0.4), ("gauge", 3, 1.0), ("unit_one_form", 3, 1.0),
                 ("covector", 2, 1.0), ("algebra", 1, 0.5))
        for draw in (lambda r: sampling.random_covector_testset(grid, r, 6),
                     lambda r: sampling.random_gauge_field(grid, r, count=5),
                     lambda r: sampling.random_tuples(grid, r, 4, *kinds),
                     lambda r: sampling.random_tuples(grid, r, None, *kinds)):
            rng = CountingGenerator(18)
            draw(rng)
            assert rng.calls == ["uniform"]

    def test_torus_draws_term_by_term(self):
        # plane waves interleave two integer and two uniform draws per term
        grid = GRIDS["torus"]()
        rng = CountingGenerator(18)
        sampling.random_tuples(grid, rng, 3, ("rho", 2, 0.4), ("gauge", 3, 1.0))
        terms = 3 * (1 * 2 + 3 * 3)
        assert rng.calls == ["integers", "integers", "uniform", "uniform"] * terms
