import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rectree.datagen import (
    _EDGE,
    _INTRINSIC,
    _SWISS_HEIGHT,
    GeneratorSpec,
    _canonical_manifold,
    embedding_rotation,
    normalize,
    read_dataset,
    read_points_csv,
    sample,
    write_csv,
    write_dataset,
)
from rectree.errors import DomainError
from rectree.stats import Dataset


def manifold_residual(spec: GeneratorSpec, data: Dataset) -> np.ndarray:
    """Per-point deviation from the manifold's defining equations.

    Undoes the sampler's cube map (scale _EDGE / diameter, then a shift
    to the cube center) and the embedding rotation, then evaluates the
    canonical constraints; exact samples give residuals at rounding level.
    """
    if _INTRINSIC[spec.kind] is None:
        raise ValueError(f"{spec.kind} is not a manifold kind")
    rotation = embedding_rotation(spec)
    diam = _canonical_manifold(spec, 1, np.random.default_rng(0))[2]
    canonical = ((data.points - 0.5) / (_EDGE / diam)) @ rotation
    tail = canonical[:, 3:] if spec.kind != "circle" else canonical[:, 2:]
    tail_res = np.abs(tail).max(axis=1) if tail.shape[1] else np.zeros(len(canonical))
    if spec.kind == "circle":
        res = np.abs(np.linalg.norm(canonical[:, :2], axis=1) - 1.0)
    elif spec.kind == "sphere":
        res = np.abs(np.linalg.norm(canonical[:, :3], axis=1) - 1.0)
    else:
        x = canonical[:, 0]
        y = canonical[:, 1] + _SWISS_HEIGHT / 2.0
        z = canonical[:, 2]
        r = np.hypot(x, z)
        res = np.hypot(x / r - np.cos(r), z / r - np.sin(r))
        res = np.maximum(res, np.maximum(0.0 - y, y - _SWISS_HEIGHT))
    return np.maximum(res, tail_res)


def pairwise_distances(pts, limit=200):
    sub = pts[:limit]
    return np.linalg.norm(sub[:, None, :] - sub[None, :, :], axis=2)


class TestSpecs:
    def test_kind_validation(self):
        with pytest.raises(ValueError):
            GeneratorSpec("torus", 3)
        with pytest.raises(ValueError):
            GeneratorSpec("circle", 1)
        with pytest.raises(ValueError):
            GeneratorSpec("density_cube", 2)  # bounds missing
        with pytest.raises(ValueError):
            GeneratorSpec("density_cube", 2, density_bounds=(0.0, 1.0))
        with pytest.raises(ValueError):
            GeneratorSpec("uniform_cube", 2, density_bounds=(1.0, 1.0))
        with pytest.raises(ValueError, match="^seed -3 must be non-negative$"):
            GeneratorSpec("uniform_cube", 2, seed=-3)
        with pytest.raises(ValueError, match="^ambient_dim must be positive$"):
            GeneratorSpec("uniform_cube", 0)

    @pytest.mark.parametrize("field, value", [
        ("ambient_dim", 1.5), ("ambient_dim", True), ("seed", 1.5), ("seed", True),
        ("stream", 2.5), ("stream", True), ("stream", None),
    ])
    def test_refuses_a_non_integer_field(self, field, value):
        with pytest.raises(TypeError, match=f"^{field} takes an integer, not {value}$"):
            GeneratorSpec("uniform_cube", **{"ambient_dim": 2, field: value})

    def test_numpy_integer_fields(self):
        spec = GeneratorSpec("circle", np.int64(2), seed=np.int64(3), stream=np.int64(4))
        assert sample(spec, 50).points.tolist() == sample(
            GeneratorSpec("circle", 2, seed=3, stream=4), 50).points.tolist()

    def test_intrinsic_dims(self):
        assert GeneratorSpec("uniform_cube", 5).intrinsic_dim == 5
        assert GeneratorSpec("circle", 3).intrinsic_dim == 1
        assert GeneratorSpec("sphere", 4).intrinsic_dim == 2
        assert GeneratorSpec("swiss_roll", 3).intrinsic_dim == 2


class TestSample:
    def test_deterministic(self):
        spec = GeneratorSpec("uniform_cube", 1, seed=4)
        a = sample(spec, 4).points
        b = sample(spec, 4).points
        assert np.array_equal(a, b)

    def test_refuses_zero_points(self):
        with pytest.raises(ValueError, match="^n must be positive$"):
            sample(GeneratorSpec("uniform_cube", 2), 0)

    @pytest.mark.parametrize("n", [64.5, 64.0, True, None])
    def test_refuses_a_non_integer_count(self, n):
        with pytest.raises(TypeError, match=f"^n takes an integer, not {n}$"):
            sample(GeneratorSpec("uniform_cube", 1), n)

    def test_numpy_integer_count(self):
        spec = GeneratorSpec("sphere", 3, seed=2)
        assert sample(spec, np.int32(40)).points.tobytes() == sample(spec, 40).points.tobytes()

    def test_different_seeds_differ(self):
        a = sample(GeneratorSpec("uniform_cube", 2, seed=1), 10).points
        b = sample(GeneratorSpec("uniform_cube", 2, seed=2), 10).points
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize(
        "kind,dim",
        [
            ("uniform_cube", 3),
            ("density_cube", 2),
            ("circle", 2),
            ("circle", 3),
            ("sphere", 3),
            ("sphere", 5),
            ("swiss_roll", 3),
            ("swiss_roll", 4),
        ],
    )
    def test_in_domain(self, kind, dim):
        bounds = (0.5, 2.0) if kind == "density_cube" else None
        data = sample(GeneratorSpec(kind, dim, seed=3, density_bounds=bounds), 500)
        assert data.points.shape == (500, dim)
        assert data.points.min() >= 0.0 and data.points.max() < 1.0

    @pytest.mark.parametrize("kind,dim", [("circle", 3), ("sphere", 4), ("swiss_roll", 3)])
    def test_manifold_residuals(self, kind, dim):
        spec = GeneratorSpec(kind, dim, seed=11)
        data = sample(spec, 2000)
        assert manifold_residual(spec, data).max() <= 1e-12

    @pytest.mark.parametrize("kind,dim", [("circle", 3), ("sphere", 3), ("swiss_roll", 3)])
    def test_manifold_diameter_at_most_one(self, kind, dim):
        data = sample(GeneratorSpec(kind, dim, seed=2), 400)
        assert pairwise_distances(data.points, 400).max() <= 1.0

    def test_sphere_redraws_a_zero_direction(self):
        # A zero row of the first normal draw has no direction: it is drawn again.
        class FirstDrawHasAZeroRow:
            def __init__(self):
                self.rng, self.calls = np.random.default_rng(0), 0

            def standard_normal(self, shape):
                draw = self.rng.standard_normal(shape)
                if self.calls == 0:
                    draw[1] = 0.0
                self.calls += 1
                return draw

        g = FirstDrawHasAZeroRow()
        pts, _, _ = _canonical_manifold(GeneratorSpec("sphere", 3), 4, g)
        assert g.calls == 2 and pts.shape == (4, 3) and np.isfinite(pts).all()
        np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, rtol=0, atol=1e-15)

    def test_density_flat_bounds_match_uniform(self):
        # two-sample energy statistic: zero in expectation for equal laws
        def energy(a, b, n, seed=7, m=20000):
            rng = np.random.default_rng(seed)
            ia, ib = rng.integers(0, n, m), rng.integers(0, n, m)
            d_ab = np.linalg.norm(a[ia] - b[ib], axis=1).mean()
            d_aa = np.linalg.norm(a[ia] - a[ib], axis=1).mean()
            d_bb = np.linalg.norm(b[ia] - b[ib], axis=1).mean()
            return 2 * d_ab - d_aa - d_bb

        n = 4000
        flat = sample(GeneratorSpec("density_cube", 2, seed=5, density_bounds=(1.0, 1.0)), n)
        uni = sample(GeneratorSpec("uniform_cube", 2, seed=6), n)
        assert abs(energy(flat.points, uni.points, n)) < 0.01
        tilted = sample(GeneratorSpec("density_cube", 2, seed=5, density_bounds=(0.2, 5.0)), n)
        assert energy(tilted.points, uni.points, n) > 0.01  # the statistic discriminates

    def test_density_tilt_shifts_mass(self):
        data = sample(GeneratorSpec("density_cube", 1, seed=8, density_bounds=(0.5, 2.0)), 20000)
        # density ~ p1 + (p2-p1) x: mean of x0 is (p1/2 + (p2-p1)/3) / Z
        p1, p2 = 0.5, 2.0
        expected = (p1 / 2 + (p2 - p1) / 3) / ((p1 + p2) / 2)
        assert data.points[:, 0].mean() == pytest.approx(expected, abs=0.01)

    def test_uniform_cell_mass_concentration(self):
        n, dim, depth = 20000, 2, 2
        data = sample(GeneratorSpec("uniform_cube", dim, seed=9), n)
        from rectree.stats import build_stats

        table = build_stats(data, depth)
        lv = table.level(depth)
        p = 2.0 ** (-depth * dim)
        sigma = np.sqrt(n * p * (1 - p))
        assert lv.codes.shape[0] == 2 ** (depth * dim)
        assert np.all(np.abs(lv.counts - n * p) <= 4 * sigma)


class TestNormalize:
    def test_scale_example(self):
        data = normalize(np.array([[0.0, 0.0], [10.0, 10.0]]))
        assert data.points[0].tolist() == [0.0, 0.0]
        assert data.points[1] == pytest.approx([1 / np.sqrt(2)] * 2, rel=1e-15)

    def test_identity_when_already_normalized(self):
        pts = np.array([[0.2, 0.3], [0.6, 0.7]])
        data = normalize(pts)
        assert np.array_equal(data.points, pts)

    def test_identity_clears_negative_zero(self):
        data = normalize(np.array([[-0.0, 0.5], [0.25, -0.0]]))
        assert data.points.tolist() == [[0.0, 0.5], [0.25, 0.0]]
        assert not np.signbit(data.points).any()

    def test_single_point_maps_to_center(self):
        data = normalize(np.array([[3.0, -4.0]]))
        assert np.array_equal(data.points, [[0.5, 0.5]])

    def test_similarity_preserves_distance_ratios(self):
        rng = np.random.default_rng(10)
        pts = rng.normal(size=(40, 3)) * 7 + 3
        data = normalize(pts)
        before = pairwise_distances(pts)
        after = pairwise_distances(data.points)
        mask = before > 0
        ratios = after[mask] / before[mask]
        assert ratios.max() - ratios.min() <= 1e-12 * ratios.max()

    def test_diameter_at_most_one(self):
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(100, 2)) * 50
        data = normalize(pts)
        assert pairwise_distances(data.points, 100).max() <= 1.0

    @pytest.mark.parametrize("points", [[0.5, 0.25], np.zeros((0, 2))], ids=["1-d", "empty"])
    def test_rejects_other_shapes(self, points):
        with pytest.raises(ValueError, match=r"^points must be a nonempty \(n, dim\) array$"):
            normalize(points)

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            normalize(np.array([[np.nan, 0.0]]))


class TestFileFormats:
    def test_binary_roundtrip(self, tmp_path):
        data = sample(GeneratorSpec("sphere", 3, seed=13), 64)
        path = tmp_path / "points.rtds"
        write_dataset(path, data)
        assert np.array_equal(read_dataset(path).points, data.points)

    def test_binary_roundtrip_without_map(self, tmp_path):
        # Version 2: magic, <IIQ version/dim/n, then the points; no normalization map.
        pts = np.random.default_rng(0).random((10, 2))
        path = tmp_path / "plain.rtds"
        write_dataset(path, Dataset(pts))
        header = b"RTDS" + struct.pack("<IIQ", 2, 2, 10)
        assert path.read_bytes() == header + pts.astype("<f8").tobytes()
        assert np.array_equal(read_dataset(path).points, pts)

    @pytest.mark.parametrize("flag", [0, 1])
    def test_reads_version_1(self, tmp_path, flag):
        # Version 1 put a flag byte, a scale and a translation before the points.
        pts = np.random.default_rng(3).random((7, 3))
        path = tmp_path / "v1.rtds"
        path.write_bytes(b"RTDS" + struct.pack("<IIQB", 1, 3, 7, flag) + struct.pack("<d", 0.25)
                         + struct.pack("<3d", 0.5, 0.5, 0.5) + pts.astype("<f8").tobytes())
        assert np.array_equal(read_dataset(path).points, pts)

    def test_version_1_size_check_counts_the_map(self, tmp_path):
        path = tmp_path / "v1.rtds"  # the scale is missing
        path.write_bytes(b"RTDS" + struct.pack("<IIQB", 1, 2, 1, 0) + bytes(8 * 2 + 8 * 2))
        with pytest.raises(ValueError) as exc:
            read_dataset(path)
        assert str(exc.value) == f"{path}: 53 bytes, expected 61 for n = 1, dim = 2"

    def test_refuses_version_3(self, tmp_path):
        path = tmp_path / "v3.rtds"
        path.write_bytes(b"RTDS" + struct.pack("<IIQ", 3, 1, 1) + bytes(8))
        with pytest.raises(ValueError) as exc:
            read_dataset(path)
        assert str(exc.value) == f"{path}: unsupported dataset version 3"

    def test_magic_check(self, tmp_path):
        path = tmp_path / "bogus.rtds"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(ValueError) as exc:
            read_dataset(path)
        assert str(exc.value) == f"{path}: not a dataset file"

    def test_point_outside_the_cube_is_a_domain_error_naming_the_file(self, tmp_path):
        path = tmp_path / "outside.rtds"
        path.write_bytes(b"RTDS" + struct.pack("<IIQ", 2, 2, 2)
                         + np.array([0.1, 0.2, 1.5, 0.3], "<f8").tobytes())
        with pytest.raises(DomainError) as exc:
            read_dataset(path)
        assert str(exc.value) == f"{path}: point 1 = [1.5, 0.3] outside [0, 1)^2"

    def test_csv_that_is_not_utf8_names_the_file(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_bytes(b"\xff0.1\n0.2\n")
        with pytest.raises(ValueError) as exc:
            read_points_csv(path)
        assert str(exc.value) == (f"{path}: 'utf-8' codec can't decode byte 0xff in position 0: "
                                  "invalid start byte")

    @pytest.mark.parametrize(
        "damage",
        [
            lambda raw: raw[:12],  # cut inside the header
            lambda raw: raw[:-8],  # cut payload
            lambda raw: raw + bytes(7),  # trailing bytes
            lambda raw: raw[:8] + bytes(4) + raw[12:],  # dim = 0
            lambda raw: raw[:12] + (10**6).to_bytes(8, "little") + raw[20:],  # n beyond the file
        ],
        ids=["cut-header", "cut-payload", "trailing-bytes", "dim-0", "n-beyond-file"],
    )
    def test_malformed_file_names_path(self, tmp_path, damage):
        path = tmp_path / "bad.rtds"
        write_dataset(path, Dataset(np.random.default_rng(0).random((10, 2))))
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(ValueError, match="bad.rtds"):
            read_dataset(path)

    def test_csv_roundtrip(self, tmp_path):
        pts = np.random.default_rng(1).random((20, 3))
        path = tmp_path / "pts.csv"
        write_csv(path, ["x0", "x1", "x2"], pts.tolist())
        assert np.array_equal(read_points_csv(path), pts)

    def test_csv_matches_per_value_writer(self, tmp_path):
        pts = np.random.default_rng(2).random((50, 4))
        pts[:5] = [[-0.0, 1e-7, 1e17, 5e-324], [2.5e-310, -1e-7, 1 / 3, 0.0],
                   [1e16, 1e-5, 1e-4, -1e17], [0.1, 0.2, 0.3, 1.0], [2.0**-1074, 2.0**53, 1e22, 9.5]]
        path = tmp_path / "pts.csv"
        write_csv(path, ["x0", "x1", "x2", "x3"], pts.tolist())
        want = "x0,x1,x2,x3\n" + "".join(
            ",".join(repr(float(v)) for v in row) + "\n" for row in pts)
        assert path.read_text(encoding="utf-8") == want
        assert "-0.0,1e-07,1e+17,5e-324\n" in want

    @pytest.mark.parametrize("header", ["", "a,b\n"], ids=["headerless", "header"])
    @pytest.mark.parametrize("dtype", [np.float64, np.int64])
    def test_csv_with_byte_order_mark(self, tmp_path, header, dtype):
        path = tmp_path / "bom.csv"
        path.write_text(header + "1,2\n3,4\n5,6\n", encoding="utf-8-sig")
        pts = read_points_csv(path, dtype=dtype)
        assert pts.dtype == dtype and pts.tolist() == [[1, 2], [3, 4], [5, 6]]

    def test_csv_without_header(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("0.25,0.5\n0.75,0.125\n")
        assert np.array_equal(read_points_csv(path), [[0.25, 0.5], [0.75, 0.125]])


_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, 2.5e-310, -2.2250738585072014e-308, 1e308, -1e308, 1e16, 1e-7])
_INTS = st.integers(-(2**63), 2**63 - 1) | st.sampled_from([2**53 + 1, -(2**53) - 1, 2**62 + 3])


def _tables(values):
    return st.integers(1, 4).flatmap(
        lambda width: st.lists(st.lists(values, min_size=width, max_size=width),
                               min_size=1, max_size=6))


class TestWriteCsv:
    @settings(max_examples=100, deadline=None)
    @given(_tables(_FLOATS), _tables(_INTS), _tables(_FLOATS | _INTS))
    def test_round_trip_and_text(self, floats, ints, mixed):
        with tempfile.TemporaryDirectory() as tmp:
            for rows, dtype in [(floats, np.float64), (ints, np.int64), (mixed, None)]:
                header = [f"c{j}" for j in range(len(rows[0]))]
                path = Path(tmp) / "rows.csv"
                write_csv(path, header, rows)
                text = path.read_text(encoding="utf-8")
                assert text == ",".join(header) + "\n" + "".join(
                    ",".join(map(repr, row)) + "\n" for row in rows)
                if dtype is not None:
                    assert read_points_csv(path, dtype=dtype).tolist() == rows

    @pytest.mark.parametrize("value", [np.float64(0.5), np.int64(3), True],
                             ids=["float64", "int64", "bool"])
    def test_refuses_other_than_python_numbers(self, tmp_path, value):
        path = tmp_path / "rows.csv"
        with pytest.raises(TypeError, match="Python ints and floats"):
            write_csv(path, ["a", "b"], [(1, value)])
        assert not path.exists()
