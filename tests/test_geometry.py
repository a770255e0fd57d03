import dataclasses
import itertools
import math

import numpy as np
import numpy.testing as npt
import pytest

from circscatter import errors, geometry
from circscatter.geometry import (
    CENTER_RANGE,
    BoundaryShape,
    ScatterConfig,
    ShapeClass,
    boundary_discrepancy,
    boundary_grid,
    draw_shape_candidate,
    eval_curve,
    sample_shape,
    shape_to_targets,
    targets_to_shape,
    validate_shape,
)
from oracles import reference_polygon_is_simple, reference_validate_shape

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # a test extra: without it the property test alone is skipped
    st = None


def circle(radius, center=(0.0, 0.0), impedance=1.0):
    # star with zero harmonics is a circle of radius alpha0
    coeffs = np.zeros(11)
    coeffs[0] = radius
    return BoundaryShape(ShapeClass.STAR, coeffs, np.asarray(center), impedance,
                         check_ranges=False)


def peanut(alpha=0.1, beta=0.05, center=(0.0, 0.0), impedance=1.0):
    return BoundaryShape(ShapeClass.PEANUT, [alpha, beta], np.asarray(center), impedance)


def kite(alpha=0.25, beta=0.1, gamma=0.25, center=(0.0, 0.0), impedance=1.0):
    return BoundaryShape(ShapeClass.KITE, [alpha, beta, gamma], np.asarray(center), impedance)


def star(rng, base=0.25, scale=0.5, center=(0.0, 0.0), impedance=1.0):
    coeffs = np.concatenate([[base], rng.uniform(-scale, scale, size=10)])
    return BoundaryShape(ShapeClass.STAR, coeffs, np.asarray(center), impedance,
                         check_ranges=False)


# ---------------------------------------------------------------- config


def test_default_config_wavenumber():
    cfg = ScatterConfig()
    assert abs(cfg.kappa0 - 2.5) < 1e-12
    assert cfg.kappa0**2 == pytest.approx(
        cfg.omega**2 * cfg.mu0 * cfg.eps0 * (1 - math.cos(cfg.theta) ** 2), abs=1e-12)
    # high frequency at grazing incidence: kappa0 is omega * sin(theta)
    # exactly, however far 1 - cos(theta)**2 cancels
    for omega, theta in ((1000.0, 1e-3), (1e8, 1e-4)):
        assert ScatterConfig(omega=omega, theta=theta).kappa0 == omega * math.sin(theta)


def test_config_validation():
    with pytest.raises(errors.ValidationError):
        ScatterConfig(theta=0.0)
    with pytest.raises(errors.ValidationError):
        ScatterConfig(t0=33)
    # the boundary grid is even, which validate_shape's kite rule needs
    for t in (3, 5, 127):
        with pytest.raises(errors.ValidationError, match="even number of nodes"):
            ScatterConfig(t_boundary=t)
    # grid sizes are ints: a float or a bool is refused on construction,
    # not later by generate_dataset
    for bad in ({"t0": 32.0, "c0": 2.0}, {"t0": 32.0}, {"c0": 2.0}, {"t_boundary": 128.0},
                {"c0": True}, {"t_boundary": np.int64(128)}):
        with pytest.raises(errors.ValidationError, match="must be an int"):
            ScatterConfig(**bad)
    cfg = ScatterConfig(c0=8, t0=128)
    assert len(cfg.phis) == 2
    # the incidences follow from c0
    assert cfg.phis == (0.0, math.pi)
    assert ScatterConfig().phis == ScatterConfig(c0=4).phis == (0.0,)


@pytest.mark.parametrize("name", ["omega", "eps0", "mu0"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_config_refuses_non_finite_constants(name, value):
    # NaN compares False both ways, so a plain "<= 0" check let it through
    # to kappa0 = NaN and a generation run that failed only at its end
    with pytest.raises(errors.ValidationError, match=f"{name} must be finite and positive"):
        ScatterConfig(**{name: value})


# ---------------------------------------------------------------- grids


def test_boundary_grid_values():
    tau = boundary_grid(8)
    npt.assert_allclose(tau, 2 * np.pi * np.arange(8) / 8, rtol=0, atol=0)
    assert tau[0] == 0.0
    with pytest.raises(errors.ValidationError):
        boundary_grid(3)


# ---------------------------------------------------------------- curves


def test_peanut_circle_special_case():
    # alpha == beta == r**2 gives a circle of radius r
    r = 0.3
    shape = peanut(r * r, r * r)
    tau = boundary_grid(64)
    pts, _ = eval_curve(shape, tau)
    npt.assert_allclose(np.hypot(pts[:, 0], pts[:, 1]), r, atol=1e-14)


def test_kite_matches_closed_form():
    shape = kite(0.3, 0.12, 0.28, center=(0.05, -0.1))
    tau = boundary_grid(16)
    pts, _ = eval_curve(shape, tau)
    expected_x = 0.3 * np.cos(tau) + 0.12 * np.cos(2 * tau) + 0.05
    expected_y = 0.28 * np.sin(tau) - 0.1
    npt.assert_allclose(pts[:, 0], expected_x, atol=1e-15)
    npt.assert_allclose(pts[:, 1], expected_y, atol=1e-15)


def test_star_matches_direct_sum():
    rng = np.random.default_rng(3)
    shape = star(rng)
    tau = boundary_grid(32)
    coeffs = shape.coeffs
    acc = np.ones_like(tau)
    for q in range(1, 6):
        acc += (coeffs[q] * np.cos(q * tau) + coeffs[5 + q] * np.sin(q * tau)) / 10.0
    rho = coeffs[0] * acc
    pts, _ = eval_curve(shape, tau)
    npt.assert_allclose(pts[:, 0], rho * np.cos(tau), atol=1e-14)
    npt.assert_allclose(pts[:, 1], rho * np.sin(tau), atol=1e-14)


def test_curve_derivatives_match_finite_differences():
    # central differences as the independent oracle for x'(tau)
    rng = np.random.default_rng(11)
    shapes = [peanut(0.15, 0.04), kite(0.2, 0.08, 0.3, center=(0.1, 0.05)),
              star(rng, base=0.3, scale=0.4)]
    tau = np.linspace(0.1, 2 * np.pi, 40, endpoint=False)
    h = 1e-5
    for shape in shapes:
        _, deriv = eval_curve(shape, tau)
        plus, _ = eval_curve(shape, tau + h)
        minus, _ = eval_curve(shape, tau - h)
        fd = (plus - minus) / (2 * h)
        npt.assert_allclose(deriv, fd, atol=1e-7)


def test_degenerate_profiles_raise():
    bad_peanut = BoundaryShape(ShapeClass.PEANUT, [-0.1, 0.05], [0.0, 0.0], 1.0)
    with pytest.raises(errors.DegenerateShapeError):
        eval_curve(bad_peanut, boundary_grid(16))
    coeffs = np.zeros(11)
    coeffs[0] = 0.2
    coeffs[1] = -15.0  # drives rho negative near tau = 0
    bad_star = BoundaryShape(ShapeClass.STAR, coeffs, [0.0, 0.0], 1.0, check_ranges=False)
    with pytest.raises(errors.DegenerateShapeError):
        eval_curve(bad_star, boundary_grid(16))
    # the permissive path still produces finite points
    pts, _ = eval_curve(bad_peanut, boundary_grid(16), allow_degenerate=True)
    assert np.all(np.isfinite(pts))


def uncached_radial_profile(shape, tau):
    """_radial_profile with its trig evaluated inline, as before the cache."""
    if shape.class_tag == ShapeClass.PEANUT:
        alpha, beta = shape.coeffs
        c, s = np.cos(tau), np.sin(tau)
        rho_sq = alpha * c * c + beta * s * s
        rho = np.sqrt(np.maximum(rho_sq, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            drho = np.where(rho > 0.0, (beta - alpha) * s * c / np.where(rho > 0, rho, 1.0), 0.0)
        return rho, drho
    coeffs = shape.coeffs
    acc = np.ones_like(tau)
    dacc = np.zeros_like(tau)
    for q in range(1, 6):
        aq, bq = coeffs[q], coeffs[5 + q]
        acc = acc + (aq * np.cos(q * tau) + bq * np.sin(q * tau)) / 10.0
        dacc = dacc + q * (-aq * np.sin(q * tau) + bq * np.cos(q * tau)) / 10.0
    return coeffs[0] * acc, coeffs[0] * dacc


def test_cached_harmonics_match_inline_trig_bitwise():
    rng = np.random.default_rng(23)
    shapes = [star(rng, base=0.3, scale=1.0) for _ in range(20)]
    shapes += [draw_shape_candidate(ShapeClass.PEANUT, rng) for _ in range(10)]
    kites = [draw_shape_candidate(ShapeClass.KITE, rng) for _ in range(10)]
    for tau in (boundary_grid(128), boundary_grid(128) + 1e-3, boundary_grid(127)):
        for shape in shapes:
            for got, want in zip(geometry._radial_profile(shape.class_tag, shape.coeffs, tau),
                                 uncached_radial_profile(shape, tau)):
                assert np.array_equal(got, want, equal_nan=True)
        for shape in kites:
            alpha, beta, gamma = shape.coeffs
            pts, deriv = eval_curve(shape, tau)
            assert np.array_equal(pts[:, 0], alpha * np.cos(tau) + beta * np.cos(2.0 * tau)
                                  + shape.center[0])
            assert np.array_equal(deriv[:, 0], -alpha * np.sin(tau)
                                  - 2.0 * beta * np.sin(2.0 * tau))


def test_harmonic_table_is_cached_and_read_only():
    tau = boundary_grid(128)
    table = geometry._harmonics(tau)
    assert table.shape == (2, geometry.STAR_Q, 128)
    assert table is geometry._harmonics(boundary_grid(128))  # keyed by value
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0, 0] = 2.0
    assert geometry._harmonics(tau + 1e-3) is not table


def test_eval_curve_rejects_bad_tau():
    with pytest.raises(errors.ValidationError):
        eval_curve(peanut(), np.zeros((2, 2)))


def cold_curve(shape, tau, allow_degenerate=False):
    """eval_curve with its node memo emptied first."""
    geometry._node_table.cache_clear()
    return eval_curve(shape, tau, allow_degenerate)


def curve_bits(curve):
    return [a.tobytes() for a in curve]


def memo_shapes():
    rng = np.random.default_rng(41)
    return [peanut(0.15, 0.04, center=(0.1, -0.05)), kite(0.2, 0.08, 0.3, center=(0.1, 0.05)),
            star(rng, base=0.3, scale=0.4, center=(-0.1, 0.0))]


def test_node_memo_gives_cold_bits_back_to_back():
    # A, B, A and every other order of the three families, on two grids
    tau = boundary_grid(128)
    shapes = memo_shapes()
    cold = [curve_bits(cold_curve(shape, tau)) for shape in shapes]
    for i, j in itertools.product(range(3), repeat=2):
        for k in (i, j, i, i):
            assert curve_bits(eval_curve(shapes[k], tau)) == cold[k]
    other = boundary_grid(127)
    want = curve_bits(cold_curve(shapes[0], other))
    eval_curve(shapes[0], tau)
    assert curve_bits(eval_curve(shapes[0], other)) == want


def test_node_memo_sees_shapes_changed_in_place():
    # each change shows at once; the oracle is a separate copy of the shape
    tau = boundary_grid(64)

    def changed_curve(shape, before):
        copy = dataclasses.replace(shape, coeffs=shape.coeffs.copy(), center=shape.center.copy())
        got = curve_bits(eval_curve(shape, tau))
        assert got != before and got == curve_bits(cold_curve(copy, tau))
        return got

    for shape in memo_shapes():
        bits = curve_bits(eval_curve(shape, tau))
        shape.coeffs[0] *= 1.25
        bits = changed_curve(shape, bits)
        shape.center[1] += 0.01
        bits = changed_curve(shape, bits)
        shape.center = np.array([0.0, 0.0])
        changed_curve(shape, bits)


def test_node_memo_tells_shapes_one_ulp_apart():
    tau = boundary_grid(128)
    for a in memo_shapes():
        for field in ("coeffs", "center"):
            values = getattr(a, field).copy()
            values[-1] = np.nextafter(values[-1], np.inf)
            b = dataclasses.replace(a, **{field: values})
            want_a, want_b = curve_bits(cold_curve(a, tau)), curve_bits(cold_curve(b, tau))
            assert want_a != want_b
            eval_curve(a, tau)
            assert curve_bits(eval_curve(b, tau)) == want_b
            assert curve_bits(eval_curve(a, tau)) == want_a


def test_degenerate_curve_raises_after_a_permissive_call_cached_it():
    coeffs = np.zeros(11)
    coeffs[0], coeffs[1] = 0.2, -15.0
    bad_star = BoundaryShape(ShapeClass.STAR, coeffs, [0.0, 0.0], 1.0, check_ranges=False)
    tau = boundary_grid(16)
    geometry._node_table.cache_clear()
    points, _ = eval_curve(bad_star, tau, allow_degenerate=True)
    assert geometry._node_table.cache_info().currsize == 1
    with pytest.raises(errors.DegenerateShapeError):
        eval_curve(bad_star, tau)
    assert geometry._node_table.cache_info().hits == 1
    assert eval_curve(bad_star, tau, allow_degenerate=True)[0] is points


def test_eval_curve_returns_read_only_arrays():
    # a hit hands out the arrays of the first call, so no caller may write
    tau = boundary_grid(32)
    for shape in memo_shapes():
        points, deriv = cold_curve(shape, tau)
        for arr in (points, deriv):
            assert not arr.flags.writeable and arr.flags.c_contiguous
            assert arr.shape == (32, 2) and arr.dtype == np.float64
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0
        again = eval_curve(shape, tau, allow_degenerate=True)
        assert again[0] is points and again[1] is deriv


def test_validate_shape_fills_the_memo_eval_curve_reads():
    # validating a candidate of any family evaluates its nodes once, into
    # the memo eval_curve reads
    cfg = ScatterConfig()
    tau = boundary_grid(cfg.t_boundary)
    for shape in memo_shapes():
        geometry._node_table.cache_clear()
        assert validate_shape(shape, cfg).ok
        curve = eval_curve(shape, tau)
        info = geometry._node_table.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert curve_bits(curve) == curve_bits(cold_curve(shape, tau))


# ---------------------------------------------------------------- shape type


def test_shape_constructor_checks():
    with pytest.raises(errors.ValidationError):
        BoundaryShape(ShapeClass.PEANUT, [0.1, 0.2, 0.3], [0.0, 0.0], 1.0)
    with pytest.raises(errors.ValidationError):
        BoundaryShape(ShapeClass.KITE, [0.2, 0.1, 0.2], [0.5, 0.0], 1.0)
    with pytest.raises(errors.ValidationError):
        BoundaryShape(ShapeClass.KITE, [0.2, 0.1, 0.2], [0.0, 0.0], 99.0)
    # raw predictions skip the range checks but not the structural ones
    shape = BoundaryShape(ShapeClass.KITE, [0.2, 0.1, 0.2], [0.5, 0.0], 99.0,
                          check_ranges=False)
    assert shape.impedance == 99.0
    with pytest.raises(errors.ValidationError):
        BoundaryShape(ShapeClass.KITE, [0.2, np.nan, 0.2], [0.0, 0.0], 1.0,
                      check_ranges=False)


# ---------------------------------------------------------------- validation


def test_validate_accepts_inrange_families():
    cfg = ScatterConfig()
    rng = np.random.default_rng(0)
    for tag in ShapeClass:
        for _ in range(20):
            shape = sample_shape(tag, rng, cfg)
            diag = validate_shape(shape, cfg)
            assert diag.ok and diag.max_norm < geometry.MAX_POINT_NORM


def test_validate_rejects_small_radius():
    cfg = ScatterConfig()
    diag = validate_shape(circle(0.01), cfg)
    assert not diag.ok and "radial" in diag.reason


def test_validate_rejects_outer_collision():
    cfg = ScatterConfig()
    diag = validate_shape(circle(0.76), cfg)
    assert not diag.ok and "outer" in diag.reason
    # translation can push an otherwise fine shape out
    diag = validate_shape(circle(0.6, center=(0.2, 0.0)), cfg)
    assert not diag.ok


def test_reference_crossing_test_flags_a_bowtie():
    # the oracle the closed-form rules are checked against
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    assert reference_polygon_is_simple(square)
    bowtie = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    assert not reference_polygon_is_simple(bowtie)


def expected_diagnostics(shape, cfg):
    """The crossing-test reference's verdict, except that a kite inside
    the outer circle with |alpha| or |gamma| at or below the grid's floor
    is refused as too thin."""
    want = reference_validate_shape(shape, cfg)
    floor = cfg.t_boundary * geometry.KITE_FLOOR_PER_NODE
    if (shape.class_tag == ShapeClass.KITE and want.max_norm < geometry.MAX_POINT_NORM
            and min(abs(shape.coeffs[[0, 2]])) <= floor):
        return geometry.ShapeDiagnostics(False, "kite too thin for the grid", None,
                                         want.max_norm, False)
    return want


def test_radial_shortcut_matches_full_check():
    # peanuts and stars that pass the radial floor are star-shaped about
    # their center, and kites above the floor on |alpha| and |gamma| have
    # a mirror node at each node's height, 2*alpha*cos(tau) away, so no
    # crossing test runs.  T = 126 joins a kite's two chains by horizontal
    # edges (T/2 odd), T = 128 by nodes.
    configs = (ScatterConfig(), ScatterConfig(t_boundary=126))
    rng = np.random.default_rng(77)
    shapes = []
    for tag in ShapeClass:
        for _ in range(150):
            cand = draw_shape_candidate(tag, rng)
            coeffs = cand.coeffs * rng.uniform(0.5, 2.0, size=cand.coeffs.shape)
            shapes.append(BoundaryShape(tag, coeffs, cand.center, 1.0, check_ranges=False))
    for _ in range(50):  # thin kites on both sides of the floor
        cand = draw_shape_candidate(ShapeClass.KITE, rng)
        coeffs = cand.coeffs * np.array([10.0 ** rng.uniform(-6.0, -2.0), 1.0, 1.0])
        shapes.append(BoundaryShape(ShapeClass.KITE, coeffs, cand.center, 1.0))
    # kites with |alpha| or |gamma| just above, at and just below the
    # floor of the default grid
    floor = ScatterConfig().t_boundary * geometry.KITE_FLOOR_PER_NODE
    for scale in (1 + 1e-12, 1.0, 1 - 1e-12):
        for coeffs in ([floor * scale, 0.1, 0.25], [0.25, 0.1, -floor * scale],
                       [-floor * scale, 0.1, floor * scale]):
            shapes.append(BoundaryShape(ShapeClass.KITE, coeffs, [0.05, -0.1], 1.0))
    # min rho just below, at, and just above the floor
    for radius in (geometry.MIN_RADIAL * (1 - 1e-12), geometry.MIN_RADIAL,
                   geometry.MIN_RADIAL * (1 + 1e-12), geometry.MIN_RADIAL * 1.5):
        shapes.append(circle(radius))
        # peanut rho = sqrt(alpha) on the x axis when alpha < beta
        shapes.append(BoundaryShape(ShapeClass.PEANUT, [radius**2, 0.01], [0.0, 0.0],
                                    1.0, check_ranges=False))
    reasons = set()
    for shape, cfg in itertools.product(shapes, configs):
        diag = validate_shape(shape, cfg)
        assert diag == expected_diagnostics(shape, cfg)
        reasons.add((shape.class_tag, diag.reason))
    for tag in ShapeClass:
        assert (tag, None) in reasons
        assert (tag, "boundary too close to outer circle") in reasons
    assert (ShapeClass.KITE, "kite too thin for the grid") in reasons
    assert (ShapeClass.PEANUT, "radial profile too small") in reasons
    assert (ShapeClass.STAR, "radial profile too small") in reasons


if st is not None:
    @st.composite
    def kites_on_grids(draw):
        """A kite and the grid it is checked on: even T from 4 to 256.
        Alpha, beta and gamma are signed and log-scaled, from ten decades
        below the grid's floor on |alpha| and |gamma| up to 0.6; alpha and
        gamma are drawn at the floor or an ulp either side of it one time
        in five, below it one time in five, above it otherwise."""
        t = draw(st.integers(2, 128).map(lambda k: 2 * k))
        floor = t * geometry.KITE_FLOOR_PER_NODE
        lg_floor = math.log10(floor)

        def signed(side):
            if side == 0:
                magnitude = draw(st.sampled_from(
                    [np.nextafter(floor, 0.0), floor, np.nextafter(floor, 1.0)]))
            else:
                low, high = (lg_floor - 10.0, lg_floor) if side == 1 else (lg_floor, math.log10(0.6))
                magnitude = 10.0 ** draw(st.floats(low, high))
            return draw(st.sampled_from([-1.0, 1.0])) * magnitude

        sides = st.integers(0, 4)
        coeffs = [signed(draw(sides)), signed(draw(st.integers(1, 2))), signed(draw(sides))]
        center = [draw(st.floats(*CENTER_RANGE)) for _ in range(2)]
        return (BoundaryShape(ShapeClass.KITE, coeffs, center, 1.0),
                ScatterConfig(t_boundary=t))

    @settings(derandomize=True, database=None, deadline=None, max_examples=400)
    @given(case=kites_on_grids())
    def test_kite_verdicts_match_reference(case):
        shape, cfg = case
        assert validate_shape(shape, cfg) == expected_diagnostics(shape, cfg)
else:
    @pytest.mark.skip(reason="hypothesis is not installed")
    def test_kite_verdicts_match_reference():
        pass


def test_nan_profile_and_norm_are_rejected(monkeypatch):
    # harmonic terms overflow to +inf and -inf at the same tau, so the
    # profile is NaN there; NaN compares False both ways
    coeffs = np.zeros(11)
    coeffs[0] = 0.3
    coeffs[[1, 6]] = 1.7e308
    coeffs[[2, 7]] = -1.7e308
    shape = BoundaryShape(ShapeClass.STAR, coeffs, [0.0, 0.0], 1.0, check_ranges=False)
    with np.errstate(over="ignore", invalid="ignore"):
        diag = validate_shape(shape, ScatterConfig())
    assert not diag.ok and diag.reason == "radial profile too small"
    assert math.isnan(diag.min_radial)
    # a NaN node norm is "too close to the outer circle", not admissible
    t = ScatterConfig().t_boundary
    monkeypatch.setattr(geometry, "_nodes",
                        lambda *args: (None, np.full((t, 2), np.nan), None))
    diag = validate_shape(kite(), ScatterConfig())
    assert not diag.ok and diag.reason == "boundary too close to outer circle"
    assert math.isnan(diag.max_norm)


# ---------------------------------------------------------------- sampling


def test_sampling_is_deterministic():
    cfg = ScatterConfig()
    for tag in ShapeClass:
        a = sample_shape(tag, np.random.default_rng(42), cfg)
        b = sample_shape(tag, np.random.default_rng(42), cfg)
        npt.assert_array_equal(a.coeffs, b.coeffs)
        npt.assert_array_equal(a.center, b.center)
        assert a.impedance == b.impedance


def test_kite_floor_lies_below_the_sampling_ranges():
    # so the floor rule never refuses a drawn kite
    floor = ScatterConfig().t_boundary * geometry.KITE_FLOOR_PER_NODE
    assert geometry.KITE_ALPHA_RANGE[0] > floor
    assert geometry.KITE_GAMMA_RANGE[0] > floor


def test_sampled_shapes_respect_ranges():
    cfg = ScatterConfig()
    rng = np.random.default_rng(5)
    for _ in range(50):
        shape = sample_shape(ShapeClass.KITE, rng, cfg)
        assert geometry.KITE_ALPHA_RANGE[0] <= shape.coeffs[0] <= geometry.KITE_ALPHA_RANGE[1]
        assert geometry.KITE_BETA_RANGE[0] <= shape.coeffs[1] <= geometry.KITE_BETA_RANGE[1]
        assert geometry.IMPEDANCE_RANGE[0] <= shape.impedance <= geometry.IMPEDANCE_RANGE[1]
        assert np.all(np.abs(shape.center) <= 0.2)


# each class's sampling range per coefficient, then x0, y0 and impedance
BOX = {
    ShapeClass.PEANUT: [geometry.PEANUT_AXIS_RANGE] * 2,
    ShapeClass.KITE: [geometry.KITE_ALPHA_RANGE, geometry.KITE_BETA_RANGE,
                      geometry.KITE_GAMMA_RANGE],
    ShapeClass.STAR: [geometry.STAR_BASE_RANGE] + [geometry.STAR_HARMONIC_RANGE] * 10,
}


def box_ranges(tag):
    return BOX[tag] + [geometry.CENTER_RANGE] * 2 + [geometry.IMPEDANCE_RANGE]


def box_corners(tag):
    low, high = np.array(box_ranges(tag)).T
    return low, high


def box_shape(tag, values):
    n = len(BOX[tag])
    return BoundaryShape(tag, values[:n], values[n:n + 2], values[n + 2], check_ranges=False)


@pytest.mark.parametrize("tag", list(ShapeClass))
def test_sampling_box_edges(tag):
    assert list(geometry.COEFF_RANGES[tag]) == BOX[tag]
    assert geometry.N_COEFFS[tag] == len(BOX[tag]) == {1: 2, 2: 3, 3: 11}[tag]
    low, high = box_corners(tag)
    assert geometry.in_sampling_ranges(box_shape(tag, low))
    assert geometry.in_sampling_ranges(box_shape(tag, high))
    # one value one step outside its range: coefficients, center, impedance
    for i in range(len(low)):
        for corner, step in ((low, -np.inf), (high, np.inf)):
            values = corner.copy()
            values[i] = np.nextafter(values[i], step)
            assert not geometry.in_sampling_ranges(box_shape(tag, values)), (i, step)


@pytest.mark.parametrize("tag", list(ShapeClass))
def test_drawn_candidates_stay_in_the_box(tag):
    low, high = box_corners(tag)
    rng = np.random.default_rng(int(tag))
    for _ in range(200):
        values = shape_to_targets(draw_shape_candidate(tag, rng), include_impedance=True)
        assert np.all((low <= values) & (values <= high))


@pytest.mark.parametrize("tag", list(ShapeClass))
def test_candidate_draws_match_one_uniform_call_per_value(tag):
    # the reference: one scalar rng.uniform per range, in target order
    for seed in range(20):
        ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want = [ref_rng.uniform(lo, hi) for lo, hi in box_ranges(tag)]
        got = shape_to_targets(draw_shape_candidate(tag, rng), include_impedance=True)
        assert got.tobytes() == np.array(want).tobytes()
        assert rng.random() == ref_rng.random()


def test_fixed_impedance_keeps_geometry():
    cfg = ScatterConfig()
    free = sample_shape(ShapeClass.STAR, np.random.default_rng(9), cfg)
    fixed = sample_shape(ShapeClass.STAR, np.random.default_rng(9), cfg, fixed_impedance=2.0)
    npt.assert_array_equal(free.coeffs, fixed.coeffs)
    npt.assert_array_equal(free.center, fixed.center)
    assert fixed.impedance == 2.0


def test_star_rejection_rate_is_nontrivial():
    cfg = ScatterConfig()
    rng = np.random.default_rng(123)
    rejected = sum(
        not validate_shape(draw_shape_candidate(ShapeClass.STAR, rng), cfg).ok
        for _ in range(1000)
    )
    assert 0 < rejected < 1000


def test_sampler_raises_when_stuck(monkeypatch):
    cfg = ScatterConfig()
    bad = geometry.ShapeDiagnostics(False, "forced", None, 0.0, True)
    monkeypatch.setattr(geometry, "validate_shape", lambda *a, **k: bad)
    with pytest.raises(errors.SamplingStuckError):
        sample_shape(ShapeClass.PEANUT, np.random.default_rng(0), cfg)


# ---------------------------------------------------------------- discrepancy


def test_discrepancy_translation_oracle():
    a = peanut(0.12, 0.05, center=(0.0, 0.0))
    b = peanut(0.12, 0.05, center=(0.1, -0.15))
    expected = math.hypot(0.1, -0.15)
    assert boundary_discrepancy(a, b, 128) == pytest.approx(expected, abs=1e-12)


def test_discrepancy_concentric_circles_oracle():
    a = circle(0.3)
    b = circle(0.45)
    assert boundary_discrepancy(a, b, 128) == pytest.approx(0.15, abs=1e-12)
    assert boundary_discrepancy(a, a, 128) == 0.0


# ---------------------------------------------------------------- targets


def test_target_vector_roundtrip():
    rng = np.random.default_rng(21)
    cfg = ScatterConfig()
    for tag, with_imp in [(ShapeClass.PEANUT, True), (ShapeClass.KITE, True),
                          (ShapeClass.STAR, False), (ShapeClass.STAR, True)]:
        shape = sample_shape(tag, rng, cfg, fixed_impedance=None if with_imp else 2.0)
        vec = shape_to_targets(shape, include_impedance=with_imp)
        expected_len = {1: 2, 2: 3, 3: 11}[tag] + 2 + (1 if with_imp else 0)
        assert vec.shape == (expected_len,)
        back = targets_to_shape(tag, vec, fixed_impedance=None if with_imp else 2.0)
        npt.assert_array_equal(back.coeffs, shape.coeffs)
        npt.assert_array_equal(back.center, shape.center)
        assert back.impedance == shape.impedance


def test_target_vector_errors():
    with pytest.raises(errors.ValidationError):
        targets_to_shape(ShapeClass.PEANUT, np.zeros(4))  # no impedance anywhere
    with pytest.raises(errors.ValidationError):
        targets_to_shape(ShapeClass.PEANUT, np.zeros(9), fixed_impedance=1.0)
