import cmath
import dataclasses
import hashlib
import json
import math

import numpy as np
import numpy.testing as npt
import pytest
from scipy.special import j0, j1

from circscatter import dataio, errors, geometry, pipeline
from circscatter.dataio import (
    Dataset,
    Standardizer,
    add_noise,
    assemble_channels,
    flatten_tensor,
    generate_dataset,
    read_dataset,
    read_dataset_binary,
    read_dataset_text,
    reshape_to_tensor,
    split_dataset,
    surrogate_farfield,
    write_dataset_binary,
    write_dataset_text,
)
from circscatter.geometry import (
    BoundaryShape,
    ScatterConfig,
    ShapeClass,
    boundary_grid,
    eval_curve,
    sample_shape,
    shape_to_targets,
)
from oracles import reference_validate_shape


def circle(radius, center=(0.0, 0.0), impedance=1.0):
    coeffs = np.zeros(11)
    coeffs[0] = radius
    return BoundaryShape(ShapeClass.STAR, coeffs, np.asarray(center), impedance,
                         check_ranges=False)


# ---------------------------------------------------------------- surrogate


def test_surrogate_circle_matches_bessel_closed_form():
    # For a circle of radius r centered at the origin the boundary sum is a
    # periodic trapezoid rule, spectrally accurate against the closed forms
    #   e(t) = (sin(theta)/sqrt(eps0)) / (1+lam) * 2*pi*r * J0(kappa0*r*|d - xhat|)
    #   h(t) = (lam/(1+lam)) * 2*pi*i*r * J1(kappa0*r*|d - xhat|) * cos(psi - t)
    # where psi is the angle of d - xhat.
    cfg = ScatterConfig()
    r, lam = 0.3, 2.5
    e, h = surrogate_farfield(circle(r, impedance=lam), cfg, 0.0)
    t = boundary_grid(cfg.t0)
    xhat = np.stack([np.cos(t), np.sin(t)], axis=1)
    a = np.array([1.0, 0.0]) - xhat
    a_norm = np.hypot(a[:, 0], a[:, 1])
    expected_e = (math.sin(cfg.theta) / math.sqrt(cfg.eps0)) / (1 + lam) \
        * 2 * np.pi * r * j0(cfg.kappa0 * r * a_norm)
    psi = np.arctan2(a[:, 1], a[:, 0])
    expected_h = (lam / (1 + lam)) * 2j * np.pi * r \
        * j1(cfg.kappa0 * r * a_norm) * np.cos(psi - t)
    npt.assert_allclose(e, expected_e, atol=1e-12)
    npt.assert_allclose(h, expected_h, atol=1e-12)


def triple_loop_farfield(shape, cfg, phi):
    """The quadrature sums of the module docstring, one term at a time."""
    tau = boundary_grid(cfg.t_boundary)
    pts, deriv = eval_curve(shape, tau)
    t = boundary_grid(cfg.t0)
    lam = shape.impedance
    d = (math.cos(phi), math.sin(phi))
    e_ref = np.zeros(cfg.t0, dtype=complex)
    h_ref = np.zeros(cfg.t0, dtype=complex)
    for jj in range(cfg.t0):
        xh = (math.cos(t[jj]), math.sin(t[jj]))
        for k in range(cfg.t_boundary):
            speed = math.hypot(deriv[k, 0], deriv[k, 1])
            w = speed * 2 * math.pi / cfg.t_boundary
            n_dot_xh = (deriv[k, 1] * xh[0] - deriv[k, 0] * xh[1]) / speed
            kern = cmath.exp(1j * cfg.kappa0 * ((d[0] - xh[0]) * pts[k, 0]
                                                + (d[1] - xh[1]) * pts[k, 1]))
            e_ref[jj] += kern * w
            h_ref[jj] += kern * n_dot_xh * w
        e_ref[jj] *= (math.sin(cfg.theta) / math.sqrt(cfg.eps0)) / (1 + lam)
        h_ref[jj] *= lam / (1 + lam)
    return e_ref, h_ref


def test_surrogate_matches_direct_triple_loop():
    cfg = ScatterConfig(t_boundary=32, t0=32)
    rng = np.random.default_rng(7)
    shape = sample_shape(ShapeClass.KITE, rng, cfg)
    e, h = surrogate_farfield(shape, cfg, 0.0)
    e_ref, h_ref = triple_loop_farfield(shape, cfg, 0.0)
    npt.assert_allclose(e, e_ref, atol=1e-13)
    npt.assert_allclose(h, h_ref, atol=1e-13)


@pytest.mark.parametrize("t_boundary", [128, 126])
@pytest.mark.parametrize("phi", [0.0, math.pi])
def test_surrogate_matches_triple_loop_on_superset_grid(t_boundary, phi):
    # T0=128 with both incidences, as stored in the superset; the
    # half-grid form pairs x_hat_j with x_hat_{j+64} = -x_hat_j
    cfg = dataclasses.replace(pipeline.superset_config(), t_boundary=t_boundary)
    rng = np.random.default_rng(31)
    for tag in (ShapeClass.KITE, ShapeClass.STAR):
        shape = sample_shape(tag, rng, cfg)
        e, h = surrogate_farfield(shape, cfg, phi)
        e_ref, h_ref = triple_loop_farfield(shape, cfg, phi)
        npt.assert_allclose(e, e_ref, rtol=0, atol=1e-13)
        npt.assert_allclose(h, h_ref, rtol=0, atol=1e-13)


def test_observation_directions_table_is_cached_and_read_only():
    table = dataio._observation_directions(128)
    assert table is dataio._observation_directions(128)
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 2.0
    t = boundary_grid(128)
    npt.assert_allclose(table, np.stack([np.cos(t), np.sin(t)]), rtol=0, atol=1e-15)


def clear_generation_memos():
    """Empty every per-boundary memo generation reads."""
    geometry._node_table.cache_clear()
    dataio._normal_columns.cache_clear()
    dataio._phase_table.cache_clear()


def fresh_farfield(shape, cfg, phi):
    """The surrogate with its nodes, columns and phase table built anew."""
    clear_generation_memos()
    return surrogate_farfield(shape, cfg, phi)


def assert_same_bits(got, want):
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_phase_table_is_cached_and_read_only():
    cfg = pipeline.superset_config()
    pts, _ = eval_curve(circle(0.3), boundary_grid(cfg.t_boundary))
    dataio._phase_table.cache_clear()
    table = dataio._phase_table(pts.tobytes(), cfg.t0, cfg.kappa0)
    assert table.shape == (cfg.t0, cfg.t_boundary)
    assert table is dataio._phase_table(pts.tobytes(), cfg.t0, cfg.kappa0)
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 2.0
    half = cfg.t0 // 2
    phase = cfg.kappa0 * np.outer(np.cos(boundary_grid(cfg.t0)[:half]), pts[:, 0])
    phase += cfg.kappa0 * np.outer(np.sin(boundary_grid(cfg.t0)[:half]), pts[:, 1])
    npt.assert_allclose(table, np.concatenate([np.cos(phase), np.sin(phase)]),
                        rtol=0, atol=1e-14)


def test_both_incidences_share_one_phase_table_bitwise():
    cfg = pipeline.superset_config()
    shape = sample_shape(ShapeClass.KITE, np.random.default_rng(5), cfg)
    dataio._phase_table.cache_clear()
    first = surrogate_farfield(shape, cfg, 0.0)
    second = surrogate_farfield(shape, cfg, math.pi)
    assert dataio._phase_table.cache_info().hits == 1
    assert_same_bits(first, fresh_farfield(shape, cfg, 0.0))
    assert_same_bits(second, fresh_farfield(shape, cfg, math.pi))


def test_phase_table_tells_boundaries_one_ulp_apart():
    cfg = pipeline.superset_config()
    a = sample_shape(ShapeClass.STAR, np.random.default_rng(6), cfg)
    coeffs = a.coeffs.copy()
    coeffs[0] = np.nextafter(coeffs[0], np.inf)
    b = dataclasses.replace(a, coeffs=coeffs)
    tau = boundary_grid(cfg.t_boundary)
    assert eval_curve(a, tau)[0].tobytes() != eval_curve(b, tau)[0].tobytes()
    want_b = fresh_farfield(b, cfg, 0.0)
    fresh_farfield(a, cfg, 0.0)
    assert_same_bits(surrogate_farfield(b, cfg, 0.0), want_b)
    assert_same_bits(surrogate_farfield(a, cfg, 0.0), fresh_farfield(a, cfg, 0.0))


def test_phase_table_keys_on_grid_and_wavenumber():
    # one boundary under each T0 and under another kappa0, back to back
    shape = sample_shape(ShapeClass.PEANUT, np.random.default_rng(8), ScatterConfig())
    cfgs = [ScatterConfig(t0=32), ScatterConfig(t0=128), ScatterConfig(t0=128, omega=7.0)]
    wants = [fresh_farfield(shape, cfg, 0.0) for cfg in cfgs]
    surrogate_farfield(shape, cfgs[-1], 0.0)
    for cfg, want in zip(cfgs + cfgs[::-1], wants + wants[::-1]):
        assert_same_bits(surrogate_farfield(shape, cfg, 0.0), want)


def cold_row(shape, cfg):
    """A feature row with every incidence built from empty memos."""
    fields = {}
    for phi in cfg.phis:
        clear_generation_memos()
        fields[phi] = surrogate_farfield(shape, cfg, phi)
    return assemble_channels(fields, cfg)


def test_superset_rows_equal_rows_built_from_a_cold_table():
    # unlike a pinned digest, this does not depend on the platform's np.cos
    ds = pipeline.generate_superset((1, 2, 3), 30, 4)
    for i in range(len(ds.targets)):
        clear_generation_memos()
        shape = pipeline.regenerate_shape(ds, i)
        assert np.array_equal(cold_row(shape, pipeline.superset_config()), ds.features[i])
        clear_generation_memos()
        assert np.array_equal(pipeline.superset_features(shape), ds.features[i])


@pytest.mark.parametrize("suite", ["classification", "star_variable"])
def test_suite_rows_equal_rows_built_from_cold_memos(suite):
    spec = pipeline.suite_spec(suite)
    ds = pipeline.suite_dataset(suite, scale=30 / spec.n_full, seed=6)
    assert len(ds) == 30
    for i in range(len(ds)):
        clear_generation_memos()
        shape = pipeline.regenerate_shape(ds, i)
        assert np.array_equal(cold_row(shape, spec.config()), ds.features[i])


def test_generation_evaluates_each_boundary_once_per_row(monkeypatch):
    # every candidate is evaluated once, in validate_shape; both incidences
    # of the accepted one read its nodes, columns and phase table from the memos
    drawn = []
    real = geometry.draw_shape_candidate

    def counting(*args, **kwargs):
        drawn.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(geometry, "draw_shape_candidate", counting)
    for n, cfg in ((12, pipeline.superset_config()), (9, pipeline.suite_spec("classification").config())):
        drawn.clear()
        clear_generation_memos()
        generate_dataset((1, 2, 3), n, cfg, 3)
        nodes = geometry._node_table.cache_info()
        assert (nodes.misses, nodes.hits) == (len(drawn), n * len(cfg.phis))
        for memo in (dataio._normal_columns, dataio._phase_table):
            info = memo.cache_info()
            assert (info.misses, info.hits) == (n, n * (len(cfg.phis) - 1))


def test_generation_calls_the_surrogate_once_per_row_and_incidence(monkeypatch):
    # perfbench replaces and wraps dataio.surrogate_farfield, called as
    # (shape, config, phi) for every row and incidence
    calls = []
    real = dataio.surrogate_farfield

    def counting(shape, config, phi):
        calls.append((shape, config, phi))
        return real(shape, config, phi)

    monkeypatch.setattr(dataio, "surrogate_farfield", counting)
    pipeline.generate_superset((1, 2, 3), 6, 2)
    assert len(calls) == 12
    spec = pipeline.suite_spec("classification")
    generate_dataset(spec.class_tags, 6, spec.config(), 2)
    assert len(calls) == 18
    for shape, config, phi in calls:
        assert isinstance(shape, BoundaryShape) and isinstance(config, ScatterConfig)
        assert phi in config.phis
    assert [c.c0 for _, c, _ in calls] == [8] * 12 + [2] * 6


def test_surrogate_translation_leaves_magnitude():
    cfg = ScatterConfig()
    a = circle(0.25, center=(0.0, 0.0))
    b = circle(0.25, center=(0.15, -0.1))
    ea, ha = surrogate_farfield(a, cfg, 0.0)
    eb, hb = surrogate_farfield(b, cfg, 0.0)
    npt.assert_allclose(np.abs(ea), np.abs(eb), atol=1e-12)
    npt.assert_allclose(np.abs(ha), np.abs(hb), atol=1e-12)
    assert not np.allclose(ea, eb)  # phases do move


def test_surrogate_impedance_envelopes():
    cfg = ScatterConfig()
    rng = np.random.default_rng(2)
    base = sample_shape(ShapeClass.PEANUT, rng, cfg, fixed_impedance=1.0)
    e1, h1 = surrogate_farfield(base, cfg, 0.0)
    other = BoundaryShape(base.class_tag, base.coeffs, base.center, 4.0)
    e4, h4 = surrogate_farfield(other, cfg, 0.0)
    npt.assert_allclose(e4, e1 * (1 + 1.0) / (1 + 4.0), atol=1e-13)
    npt.assert_allclose(h4, h1 * (4.0 / 5.0) / (1.0 / 2.0), atol=1e-13)


def test_surrogate_rejects_foreign_phi():
    cfg = ScatterConfig()
    with pytest.raises(errors.ValidationError):
        surrogate_farfield(circle(0.3), cfg, math.pi)


# ---------------------------------------------------------------- layouts


def test_assemble_channels_channel_major():
    cfg = ScatterConfig(c0=4)
    shape = circle(0.3, impedance=2.0)
    e, h = surrogate_farfield(shape, cfg, 0.0)
    feats = assemble_channels({0.0: (e, h)}, cfg)
    t0 = cfg.t0
    npt.assert_array_equal(feats[0 * t0: 1 * t0], e.real)
    npt.assert_array_equal(feats[1 * t0: 2 * t0], e.imag)
    npt.assert_array_equal(feats[2 * t0: 3 * t0], h.real)
    npt.assert_array_equal(feats[3 * t0: 4 * t0], h.imag)
    # c0 = 2 keeps E alone; c0 = 8 repeats the four channels per incidence
    npt.assert_array_equal(assemble_channels({0.0: (e, h)}, ScatterConfig()), feats[:2 * t0])
    both = ScatterConfig(c0=8)
    e2, h2 = surrogate_farfield(shape, both, math.pi)
    eight = assemble_channels({0.0: (e, h), math.pi: (e2, h2)}, both)
    npt.assert_array_equal(eight[:4 * t0], feats)
    npt.assert_array_equal(eight[4 * t0:], np.concatenate([e2.real, e2.imag, h2.real, h2.imag]))
    with pytest.raises(errors.LayoutError, match="phi="):
        assemble_channels({0.0: (e, h)}, both)


def test_reshape_roundtrip_and_indexing():
    rng = np.random.default_rng(0)
    t0, c0 = 32, 4
    feats = rng.standard_normal(t0 * c0)
    x = reshape_to_tensor(feats, t0, c0)
    assert x.shape == (t0, c0)
    for c in range(c0):
        for i in range(0, t0, 7):
            assert x[i, c] == feats[c * t0 + i]
    npt.assert_array_equal(flatten_tensor(x), feats)
    batch = rng.standard_normal((5, t0 * c0))
    xb = reshape_to_tensor(batch, t0, c0)
    assert xb.shape == (5, t0, c0)
    npt.assert_array_equal(flatten_tensor(xb), batch)
    with pytest.raises(errors.LayoutError):
        reshape_to_tensor(feats, 16, 4)


# ---------------------------------------------------------------- generation


def test_generate_classification_dataset():
    cfg = ScatterConfig()
    ds = generate_dataset([1, 2, 3], 12, cfg, seed=100)
    assert ds.task == "class" and len(ds) == 12
    assert ds.classes == (1, 2, 3)
    npt.assert_array_equal(ds.targets, np.tile([1, 2, 3], 4))
    assert ds.features.shape == (12, 64)
    assert ds.shape_ids[3] == "100:3"


def test_generate_regression_dataset_dims():
    cfg = ScatterConfig()
    ds = generate_dataset([ShapeClass.PEANUT], 6, cfg, seed=4)
    assert ds.task == "reg" and ds.targets.shape == (6, 5)
    ds = generate_dataset([ShapeClass.KITE], 6, cfg, seed=4)
    assert ds.targets.shape == (6, 6)
    cfg4 = ScatterConfig(c0=4, t0=128)
    ds = generate_dataset([ShapeClass.STAR], 6, cfg4, seed=4, impedance=2.0)
    assert ds.targets.shape == (6, 13)
    assert ds.fixed_impedance == 2.0
    assert ds.features.shape == (6, 512)
    cfg8 = ScatterConfig(c0=8, t0=128)
    ds = generate_dataset([ShapeClass.STAR], 6, cfg8, seed=4)
    assert ds.targets.shape == (6, 14)
    assert ds.features.shape == (6, 1024)


def test_generate_is_deterministic():
    cfg = ScatterConfig()
    a = generate_dataset([1, 2, 3], 9, cfg, seed=77)
    b = generate_dataset([1, 2, 3], 9, cfg, seed=77)
    npt.assert_array_equal(a.features, b.features)
    npt.assert_array_equal(a.targets, b.targets)
    c = generate_dataset([1, 2, 3], 9, cfg, seed=78)
    assert not np.array_equal(a.features, c.features)


def generation_digest(ds, config, seed):
    """sha256 of a dataset's targets and shape ids.  A classification set
    also hashes every row's shape parameters, which its labels do not show,
    so a flipped rejection-sampling verdict changes the digest."""
    h = hashlib.sha256()
    h.update(ds.targets.dtype.str.encode())
    h.update(np.ascontiguousarray(ds.targets).tobytes())
    h.update("\n".join(ds.shape_ids).encode())
    if ds.task == "class":
        children = np.random.SeedSequence(seed).spawn(len(ds))
        for tag, child in zip(ds.targets, children):
            shape = sample_shape(int(tag), np.random.default_rng(child), config)
            h.update(shape_to_targets(shape, include_impedance=True).tobytes())
    return h.hexdigest()


# Digests of generation at seed 2024, computed before the surrogate and the
# curve evaluation were rewritten: the targets, ids and accepted shapes may
# not move even where the feature bytes differ in the last bits.
PINNED_DIGESTS = {
    "classification": (90, "d527064834eeb91842661904a71af37d52809d805b9bbdd0e8e44b79f16b9cec"),
    "peanut": (40, "1eda991b47006982deacf5067461ecf849b9183b3991002899ac6dadedb81b0a"),
    "kite": (40, "2dd1093a909c8b3f1adf6accf7650b7649bd89bdef78c8bee7e1e97bd5da6c24"),
    "star_variable": (40, "eb975a4492ced460871a2df83677e649a475b2aa1bd8b93501810aff621efb53"),
    "superset": (300, "c0daf855d433181bcc171ca44ce7bfd3a8380b6f010890a37c519bce31aaf803"),
}


@pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
def test_generated_targets_and_ids_are_pinned(name):
    n, digest = PINNED_DIGESTS[name]
    if name == "superset":
        cfg = pipeline.superset_config()
        ds = pipeline.generate_superset((1, 2, 3), n, seed=2024)
    else:
        suite = pipeline.SUITES[name]
        cfg = suite.config()
        ds = pipeline.suite_dataset(name, scale=n / suite.n_full, seed=2024)
    assert len(ds) == n
    assert generation_digest(ds, cfg, 2024) == digest


@pytest.mark.parametrize("name", ["kite", "classification", "superset"])
@pytest.mark.parametrize("seed", [5, 2024])
def test_kite_closed_form_leaves_generation_unchanged(monkeypatch, name, seed):
    # validate_shape decides generated kites in closed form; sending every
    # candidate through the crossing-test reference instead gives the same
    # bytes
    def generate():
        if name == "superset":
            return pipeline.generate_superset((1, 2, 3), 18, seed)
        suite = pipeline.SUITES[name]
        return pipeline.suite_dataset(name, scale=30 / suite.n_full, seed=seed)

    fast = generate()
    checks = []
    monkeypatch.setattr(geometry, "validate_shape",
                        lambda shape, cfg: checks.append(1) or reference_validate_shape(shape, cfg))
    slow = generate()
    assert checks
    assert fast.features.tobytes() == slow.features.tobytes()
    assert fast.targets.dtype == slow.targets.dtype
    assert fast.targets.tobytes() == slow.targets.tobytes()
    assert fast.shape_ids == slow.shape_ids


def test_generate_validates_args():
    cfg = ScatterConfig()
    with pytest.raises(errors.ValidationError):
        generate_dataset([], 5, cfg, seed=0)
    with pytest.raises(errors.ValidationError):
        generate_dataset([1], 0, cfg, seed=0)
    with pytest.raises(errors.ValidationError):
        generate_dataset([1], 5, cfg, seed=0, impedance=50.0)


# ---------------------------------------------------------------- splits


def test_split_sizes_and_disjointness():
    sp = split_dataset(90000, seed=1)
    assert len(sp.train) == 72000 and len(sp.valid) == 9000 and len(sp.test) == 9000
    sp = split_dataset(10, seed=1)
    assert len(sp.train) == 8 and len(sp.valid) == 1 and len(sp.test) == 1
    sp = split_dataset(95, seed=3)
    assert len(sp.valid) == 10 and len(sp.test) == 10 and len(sp.train) == 75
    union = np.concatenate([sp.train, sp.valid, sp.test])
    assert len(np.unique(union)) == 95
    with pytest.raises(errors.ValidationError):
        split_dataset(9, seed=0)


def test_split_determinism():
    a = split_dataset(1000, seed=5)
    b = split_dataset(1000, seed=5)
    npt.assert_array_equal(a.test, b.test)
    c = split_dataset(1000, seed=6)
    assert not np.array_equal(a.test, c.test)


# ---------------------------------------------------------------- scaling


def test_standardizer_fit_apply_invert():
    rng = np.random.default_rng(8)
    rows = rng.standard_normal((200, 7)) * 3.0 + 5.0
    sc = Standardizer.fit(rows)
    scaled = sc.apply(rows)
    npt.assert_allclose(scaled.mean(axis=0), 0.0, atol=1e-12)
    npt.assert_allclose(scaled.std(axis=0), 1.0, atol=1e-10)
    npt.assert_allclose(sc.invert(scaled), rows, atol=1e-12)


def test_standardizer_constant_column_floor():
    rows = np.ones((50, 3))
    rows[:, 1] = np.linspace(0, 1, 50)
    sc = Standardizer.fit(rows)
    assert sc.std[0] == dataio.STD_FLOOR
    scaled = sc.apply(rows)
    assert np.all(np.isfinite(scaled))
    npt.assert_allclose(scaled[:, 0], 0.0, atol=1e-12)


def test_standardizer_json_roundtrip():
    sc = Standardizer.fit(np.random.default_rng(1).standard_normal((20, 4)))
    back = Standardizer.from_json_dict(sc.to_json_dict())
    npt.assert_array_equal(back.mean, sc.mean)
    npt.assert_array_equal(back.std, sc.std)


def test_add_noise():
    rng = np.random.default_rng(3)
    rows = rng.standard_normal((10, 6))
    same = add_noise(rows, 0.0, np.random.default_rng(0))
    npt.assert_array_equal(same, rows)
    a = add_noise(rows, 0.05, np.random.default_rng(11))
    b = add_noise(rows, 0.05, np.random.default_rng(11))
    npt.assert_array_equal(a, b)
    assert not np.array_equal(a, rows)
    with pytest.raises(errors.ValidationError):
        add_noise(rows, -0.1, rng)


# ---------------------------------------------------------------- text files


def test_text_roundtrip_classification(tmp_path):
    cfg = ScatterConfig()
    ds = generate_dataset([1, 2, 3], 9, cfg, seed=13)
    path = tmp_path / "cls.csc"
    write_dataset_text(path, ds)
    head = path.read_text().splitlines()[0]
    assert head.startswith("circscatter-v1 T0=32 C0=2 P=1 task=class classes=1,2,3")
    back = read_dataset_text(path)
    npt.assert_array_equal(back.features, ds.features)
    npt.assert_array_equal(back.targets, ds.targets)
    assert back.shape_ids == ds.shape_ids
    # write-read-write produces identical bytes
    path2 = tmp_path / "cls2.csc"
    write_dataset_text(path2, back)
    assert path.read_bytes() == path2.read_bytes()


def test_text_roundtrip_regression_fixed_lambda(tmp_path):
    cfg = ScatterConfig(c0=4, t0=128)
    ds = generate_dataset([3], 5, cfg, seed=13, impedance=2.0)
    path = tmp_path / "star.csc"
    write_dataset_text(path, ds)
    head = path.read_text().splitlines()[0]
    assert "task=reg" in head and "P=13" in head and "fixed_lambda=2" in head
    back = read_dataset_text(path)
    npt.assert_array_equal(back.features, ds.features)
    npt.assert_array_equal(back.targets, ds.targets)
    assert back.fixed_impedance == 2.0


def test_text_parse_errors(tmp_path):
    path = tmp_path / "bad.csc"
    path.write_text("wrong-magic T0=32\n")
    with pytest.raises(errors.FormatError, match="line 1"):
        read_dataset_text(path)
    path.write_text("circscatter-v1 T0=4 C0=2 P=1 task=class classes=1,2\n"
                    "0,0,0,0,0,0,0,0,1,id\n"
                    "0,0,0,1,id\n")
    with pytest.raises(errors.FormatError, match="line 3"):
        read_dataset_text(path)
    path.write_text("circscatter-v1 T0=4 C0=2 P=1 task=class classes=9\n")
    with pytest.raises(errors.FormatError, match="line 1"):
        read_dataset_text(path)
    path.write_text("circscatter-v1 T0=4 C0=2 P=1 task=class classes=1\n"
                    "0,0,0,0,0,0,0,x,1,id\n")
    with pytest.raises(errors.FormatError, match="line 2"):
        read_dataset_text(path)
    path.write_text("circscatter-v1 T0=4 C0=2 P=1 task=reg classes=1 fixed_lambda=abc\n"
                    "0,0,0,0,0,0,0,0,1,id\n")
    with pytest.raises(errors.FormatError, match="line 1"):
        read_dataset_text(path)
    # sizes the rows happen to fit: t0*c0 = 1 and t0*c0 = 0 feature columns
    path.write_text("circscatter-v1 T0=-1 C0=-1 P=1 task=class classes=1,2\n"
                    "0,1,id\n0,2,id\n")
    with pytest.raises(errors.FormatError, match="t0 and c0 must be >= 1"):
        read_dataset_text(path)
    path.write_text("circscatter-v1 T0=0 C0=2 P=1 task=class classes=1,2\n1,id\n")
    with pytest.raises(errors.FormatError, match="t0 and c0 must be >= 1"):
        read_dataset_text(path)
    path.write_text("circscatter-v1 T0=4 C0=2 P=1 task=class classes=1,2\n"
                    "0,0,0,0,0,0,0,0,3,id\n")
    with pytest.raises(errors.FormatError, match="not in classes"):
        read_dataset_text(path)


def test_text_reader_refuses_a_cut_last_row(tmp_path):
    # the writer ends every row with a newline; a file cut short inside
    # its last row would otherwise read back with that row's id cut too
    # ("4:12" as "4:1"), naming another obstacle
    path = tmp_path / "peanut.csc"
    write_dataset_text(path, generate_dataset([1], 13, ScatterConfig(), seed=4))
    path.write_bytes(path.read_bytes()[:-2])
    with pytest.raises(errors.FormatError, match="line 14: .*no closing newline"):
        read_dataset_text(path)


# ---------------------------------------------------------------- binary files


def test_binary_roundtrip_bitexact(tmp_path):
    cfg = ScatterConfig()
    for tags, imp in [([1, 2, 3], "variable"), ([1], "variable")]:
        ds = generate_dataset(tags, 8, cfg, seed=21, impedance=imp)
        path = tmp_path / "data.cscb"
        write_dataset_binary(path, ds)
        assert path.read_bytes()[:4] == b"CSC1"
        back = read_dataset_binary(path)
        npt.assert_array_equal(back.features, ds.features)
        npt.assert_array_equal(back.targets, ds.targets)
        assert back.shape_ids == ds.shape_ids
        assert back.task == ds.task and back.classes == ds.classes
        path2 = tmp_path / "data2.cscb"
        write_dataset_binary(path2, back)
        assert path.read_bytes() == path2.read_bytes()


def test_binary_and_text_agree(tmp_path):
    cfg = ScatterConfig()
    ds = generate_dataset([2], 5, cfg, seed=2)
    tpath, bpath = tmp_path / "a.csc", tmp_path / "a.cscb"
    write_dataset_text(tpath, ds)
    write_dataset_binary(bpath, ds)
    a, b = read_dataset(tpath), read_dataset(bpath)
    npt.assert_array_equal(a.features, b.features)
    npt.assert_array_equal(a.targets, b.targets)


def test_binary_errors(tmp_path):
    path = tmp_path / "bad.cscb"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(errors.FormatError, match="magic"):
        read_dataset_binary(path)
    cfg = ScatterConfig()
    ds = generate_dataset([1], 4, cfg, seed=1)
    good = tmp_path / "good.cscb"
    write_dataset_binary(good, ds)
    blob = good.read_bytes()
    (tmp_path / "trunc.cscb").write_bytes(blob[:-16])
    with pytest.raises(errors.FormatError, match="truncated"):
        read_dataset_binary(tmp_path / "trunc.cscb")
    (tmp_path / "extra.cscb").write_bytes(blob + b"\x00")
    with pytest.raises(errors.FormatError, match="trailing"):
        read_dataset_binary(tmp_path / "extra.cscb")
    # the float64 payload holds class labels too: the last one hand-edited
    # to a fraction, NaN or a value out of int64's range is refused, not cast
    labelled = tmp_path / "labels.cscb"
    write_dataset_binary(labelled, generate_dataset([1, 2, 3], 9, cfg, seed=1))
    blob = labelled.read_bytes()
    for label in (1.5, np.nan, 1e300):
        labelled.write_bytes(blob[:-8] + np.array(label, dtype="<f8").tobytes())
        with pytest.raises(errors.FormatError, match="class labels must be integer values"):
            read_dataset_binary(labelled)


def _with_binary_header(blob: bytes, header: bytes) -> bytes:
    """Replace the JSON header of a binary .csc blob, keeping its payload."""
    hlen = int(np.frombuffer(blob[4:8], dtype="<u4")[0])
    return blob[:4] + np.array(len(header), dtype="<u4").tobytes() + header + blob[8 + hlen:]


def test_binary_header_errors(tmp_path):
    ds = generate_dataset([1], 4, ScatterConfig(), seed=1)
    good = tmp_path / "good.cscb"
    write_dataset_binary(good, ds)
    blob = good.read_bytes()
    header = json.loads(blob[8:8 + int(np.frombuffer(blob[4:8], dtype="<u4")[0])])
    bad = tmp_path / "bad.cscb"
    for key in ("n", "t0", "c0", "p", "task", "classes", "shape_ids"):
        partial = {k: v for k, v in header.items() if k != key}
        bad.write_bytes(_with_binary_header(blob, json.dumps(partial).encode("ascii")))
        with pytest.raises(errors.FormatError, match=f"lacks {key}"):
            read_dataset_binary(bad)
    for not_object in (b"[1, 2]", b"3", b'"n"', b"null"):
        bad.write_bytes(_with_binary_header(blob, not_object))
        with pytest.raises(errors.FormatError, match="not a JSON object"):
            read_dataset_binary(bad)
    for key, value in (("n", -1), ("t0", 2.5), ("p", "5")):
        bad.write_bytes(_with_binary_header(
            blob, json.dumps({**header, key: value}).encode("ascii")))
        with pytest.raises(errors.FormatError, match="integers"):
            read_dataset_binary(bad)
    for key, value, message in (("task", "nope", "task"), ("classes", 7, "classes"),
                                ("shape_ids", ["a"], "shape_id"),
                                ("shape_ids", [0, 1, 2, 3], "shape ids"),
                                ("shape_ids", "abcd", "shape ids"),
                                ("fixed_lambda", "abc", "fixed impedance"),
                                ("classes", [7], "classes")):
        bad.write_bytes(_with_binary_header(
            blob, json.dumps({**header, key: value}).encode("ascii")))
        with pytest.raises(errors.FormatError, match=f"bad binary header: .*{message}"):
            read_dataset_binary(bad)
    # t0 = 0 with a payload of targets only: every size check but the
    # dataset's own passes
    targets = np.ascontiguousarray(ds.targets, dtype="<f8").tobytes()
    zero = json.dumps({**header, "t0": 0}).encode("ascii")
    bad.write_bytes(b"CSC1" + np.array(len(zero), dtype="<u4").tobytes() + zero + targets)
    with pytest.raises(errors.FormatError, match="bad binary header: t0 and c0 must be >= 1"):
        read_dataset_binary(bad)
    # n = 0 with no payload: a header alone is no dataset
    empty = json.dumps({**header, "n": 0, "shape_ids": []}).encode("ascii")
    bad.write_bytes(b"CSC1" + np.array(len(empty), dtype="<u4").tobytes() + empty)
    with pytest.raises(errors.FormatError, match="at least one row"):
        read_dataset_binary(bad)


# ---------------------------------------------------------------- dataset type


def test_dataset_validation():
    feats = np.zeros((4, 64))
    with pytest.raises(errors.ValidationError):
        Dataset(feats, np.array([1, 2, 3, 9]), "class", 32, 2, (1, 2, 3), ["a"] * 4)
    with pytest.raises(errors.ValidationError):
        Dataset(feats, np.array([1, 1, 1, 1]), "class", 32, 2, (1,), ["a"] * 3)
    Dataset(feats, np.array([1, 2, 1, 2]), "class", 32, 2, (1, 2), ["a"] * 4)  # valid
    with pytest.raises(errors.ValidationError, match="t0 and c0"):
        Dataset(np.zeros((4, 0)), np.array([1, 2, 1, 2]), "class", 0, 2, (1, 2), ["a"] * 4)


def test_dataset_subset_keeps_row_order():
    ds = generate_dataset([1], 5, ScatterConfig(), seed=3, impedance=2.0)
    sub = ds.subset(np.array([4, 0, 2]))
    npt.assert_array_equal(sub.features, ds.features[[4, 0, 2]])
    npt.assert_array_equal(sub.targets, ds.targets[[4, 0, 2]])
    assert sub.shape_ids == ["3:4", "3:0", "3:2"]
    assert (sub.task, sub.t0, sub.c0, sub.classes, sub.fixed_impedance) == (
        ds.task, ds.t0, ds.c0, ds.classes, ds.fixed_impedance)
