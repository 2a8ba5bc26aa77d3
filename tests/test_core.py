import io
import re
import typing
import zipfile

import numpy as np
import pytest

from gsfloc.core import (
    FAR,
    Bound,
    ClassInfo,
    Coordinate,
    FormatError,
    LabelTaxonomy,
    RigidTransform,
    SemanticPointCloud,
    ValidationError,
    NoLimit,
    NonNegative,
    Positive,
    Size,
    default_taxonomy,
    field_of,
    load_cloud,
    load_npz,
    one_hot_logits,
    pose_error,
    read,
    read_json,
    rot_z,
    rotation_angle_deg,
    save_cloud,
    transform_cloud,
)

from conftest import random_transform


def write_cloud_files(tmp_path, points, labels, logits=None):
    p, l, g = tmp_path / "c.points", tmp_path / "c.labels", tmp_path / "c.logits"
    cloud = SemanticPointCloud(points, labels, logits)
    save_cloud(cloud, p, l, g if logits is not None else None)
    return p, l, (g if logits is not None else None)


class TestCloudIO:
    def test_one_hot_synthesis_rule(self, tmp_path):
        p, l, _ = write_cloud_files(tmp_path, np.zeros((3, 3)), [1, 1, 2])
        cloud = load_cloud(p, l, num_classes=3)
        expected = np.array([[0.05, 0.9, 0.05], [0.05, 0.9, 0.05], [0.05, 0.05, 0.9]])
        np.testing.assert_allclose(cloud.logits, expected, atol=1e-7)

    def test_empty_files(self, tmp_path):
        p, l, _ = write_cloud_files(tmp_path, np.zeros((0, 3)), [])
        cloud = load_cloud(p, l, num_classes=3)
        assert cloud.n == 0

    def test_count_mismatch(self, tmp_path):
        p, _, _ = write_cloud_files(tmp_path, np.zeros((3, 3)), [0, 0, 0])
        l4 = tmp_path / "four.labels"
        l4.write_bytes(np.zeros(4, dtype="<u4").tobytes())
        with pytest.raises(FormatError, match="labels"):
            load_cloud(p, l4)

    def test_truncated_points_file(self, tmp_path):
        bad = tmp_path / "bad.points"
        bad.write_bytes(b"\x00" * 13)  # not a multiple of 12
        l = tmp_path / "b.labels"
        l.write_bytes(b"")
        with pytest.raises(FormatError, match="bad.points"):
            load_cloud(bad, l)

    def test_logits_header_checks(self, tmp_path):
        p, l, g = write_cloud_files(
            tmp_path, np.zeros((2, 3)), [0, 1], one_hot_logits([0, 1], 2)
        )
        raw = bytearray(g.read_bytes())
        raw[0] = ord("X")
        g.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="magic"):
            load_cloud(p, l, g)

    def test_argmax_mismatch_reports_index(self):
        with pytest.raises(ValidationError, match="index 1"):
            SemanticPointCloud(
                np.zeros((2, 3)), [0, 0], np.array([[0.9, 0.1], [0.1, 0.9]])
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_rejected(self, bad):
        pts = np.zeros((3, 3))
        pts[2, 1] = bad
        with pytest.raises(ValidationError, match="point 2"):
            SemanticPointCloud(pts, [0, 0, 0])

    @pytest.mark.parametrize("column", [0, 1])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_logit_rejected(self, bad, column):
        """A non-finite logit is refused, naming the point, also where the
        argmax check would pass it: in the label's own column."""
        logits = one_hot_logits([0, 0, 0], 2)
        logits[2, column] = bad
        with pytest.raises(ValidationError, match="point 2 has a non-finite logit"):
            SemanticPointCloud(np.zeros((3, 3)), [0, 0, 0], logits)

    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(50, 3)).astype(np.float32).astype(np.float64)
        labels = rng.integers(0, 5, 50)
        logits = one_hot_logits(labels, 5).astype(np.float32).astype(np.float64)
        p, l, g = write_cloud_files(tmp_path, pts, labels, logits)
        c1 = load_cloud(p, l, g)
        p2, l2, g2 = tmp_path / "d.points", tmp_path / "d.labels", tmp_path / "d.logits"
        save_cloud(c1, p2, l2, g2)
        c2 = load_cloud(p2, l2, g2)
        assert np.array_equal(c1.points, c2.points)
        assert np.array_equal(c1.labels, c2.labels)
        assert np.array_equal(c1.logits, c2.logits)

    def test_label_low16_convention(self, tmp_path):
        p = tmp_path / "p.points"
        p.write_bytes(np.zeros((1, 3), dtype="<f4").tobytes())
        l = tmp_path / "l.labels"
        l.write_bytes(np.array([(7 << 16) | 3], dtype="<u4").tobytes())
        cloud = load_cloud(p, l, num_classes=4)
        assert cloud.labels[0] == 3


class TestTransforms:
    def test_identity(self):
        cloud = SemanticPointCloud(np.random.default_rng(1).normal(size=(10, 3)),
                                   np.zeros(10))
        out = transform_cloud(cloud, RigidTransform.identity())
        np.testing.assert_array_equal(out.points, cloud.points)

    def test_rot_z_90(self):
        cloud = SemanticPointCloud([[1.0, 0.0, 0.0]], [0])
        out = transform_cloud(cloud, RigidTransform(rot_z(np.pi / 2), np.zeros(3)))
        np.testing.assert_allclose(out.points[0], [0, 1, 0], atol=1e-12)

    def test_composition_law(self):
        rng = np.random.default_rng(2)
        cloud = SemanticPointCloud(rng.normal(size=(20, 3)), np.zeros(20))
        for _ in range(20):
            T1, T2 = random_transform(rng), random_transform(rng)
            a = transform_cloud(transform_cloud(cloud, T1), T2)
            b = transform_cloud(cloud, T2.compose(T1))
            np.testing.assert_allclose(a.points, b.points, atol=1e-9)

    def test_invalid_rotation_rejected(self):
        with pytest.raises(ValidationError):
            RigidTransform(np.eye(3) * 1.001, np.zeros(3))
        with pytest.raises(ValidationError, match="det"):
            RigidTransform(np.diag([1.0, 1.0, -1.0]), np.zeros(3))

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            T = random_transform(rng)
            back = T.inverse().compose(T)
            np.testing.assert_allclose(back.R, np.eye(3), atol=1e-12)
            np.testing.assert_allclose(back.t, 0, atol=1e-12)


class TestPoseError:
    def test_zero(self):
        T = random_transform(np.random.default_rng(4))
        assert pose_error(T, T) == (0.0, 0.0)

    def test_pythagoras(self):
        gt = RigidTransform.identity()
        est = RigidTransform(np.eye(3), [3.0, 4.0, 0.0])
        assert pose_error(est, gt) == (5.0, 0.0)

    def test_analytic_angle(self):
        rng = np.random.default_rng(5)
        gt = random_transform(rng)
        est = RigidTransform(rot_z(np.radians(10)) @ gt.R, gt.t)
        te, re = pose_error(est, gt)
        assert te == 0.0
        assert abs(re - 10.0) < 1e-9

    def test_rotation_symmetry(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            a, b = random_transform(rng), random_transform(rng)
            assert abs(pose_error(a, b)[1] - pose_error(b, a)[1]) < 1e-9

    def test_small_angle_form_matches_arccos_at_moderate_angles(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            ang = rng.uniform(0.01, np.pi - 0.01)
            R = rot_z(ang)
            assert abs(rotation_angle_deg(R) - np.degrees(ang)) < 1e-8


class TestTaxonomy:
    def test_default_values(self):
        tax = default_taxonomy()
        assert tax.num_classes == 12
        assert set(tax.stability_vector()[tax.ids()]) <= {0.1, 0.5, 1.0}
        assert tax.stability(tax.id_of("pole")) == 1.0
        assert tax.stability(tax.id_of("car")) == 0.5
        assert tax.stability(tax.id_of("truck")) == 0.1
        assert tax.is_instantiable(tax.id_of("pole"))
        assert not tax.is_instantiable(tax.id_of("road"))

    def test_stability_range_enforced(self):
        with pytest.raises(ValidationError):
            LabelTaxonomy({0: ClassInfo("x", True, 0.0)})
        LabelTaxonomy({0: ClassInfo("x", True, 0.37)})  # any (0,1] override is fine

    def test_dict_round_trip(self):
        tax = default_taxonomy()
        again = LabelTaxonomy.from_dict(tax.to_dict())
        assert again.to_dict() == tax.to_dict()

    @pytest.mark.parametrize("ids", [[*range(11), 12], [1, 2, 3], [0, 2]],
                             ids=["gap-at-11", "from-1", "gap-at-1"])
    def test_class_ids_must_be_logit_columns(self, ids):
        """Class ids are 0..D-1: a gap would leave a logit column without a
        class, and the stability weight of a grid point that ranks it first 0."""
        doc = {str(c): {"name": f"c{c}", "instantiable": True, "stability": 1.0} for c in ids}
        with pytest.raises(ValidationError, match=r"taxonomy class ids must be 0\.\."):
            LabelTaxonomy.from_dict(doc)
        with pytest.raises(ValidationError, match=re.escape(f"got {ids}")):
            LabelTaxonomy({c: ClassInfo(f"c{c}", True, 1.0) for c in ids})

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["1"].update(name="road"), "taxonomy class name 'road' is used twice"),
        (lambda d: d["1"].update(colour="grey"), "unknown taxonomy field 1.colour"),
        (lambda d: d.update({"03": d.pop("3")}),
         r"taxonomy class ids must be 0\.\.11, one per logit column, each key its id"),
        (lambda d: d["4"].update(stability=1.5), r"taxonomy field 4.stability must be <= 1"),
        (lambda d: d["4"].update(stability=True), "taxonomy field 4.stability expects a number"),
    ], ids=["duplicate-name", "unknown-key", "id-leading-zero", "stability-above-1",
            "stability-boolean"])
    def test_record_refused(self, edit, message):
        """A record the reader does not take, an id key other than its id in
        decimal, or a class name used twice, for which `id_of` would name only
        the later class, is refused."""
        doc = default_taxonomy().to_dict()
        edit(doc)
        with pytest.raises(ValidationError, match=message):
            LabelTaxonomy.from_dict(doc)

    def test_built_in_code_checked(self):
        with pytest.raises(ValidationError, match="taxonomy class name 'pole' is used twice"):
            LabelTaxonomy({0: ClassInfo("pole", True, 1.0), 1: ClassInfo("pole", True, 0.5)})
        with pytest.raises(ValidationError, match="class 'x' stability must be <= 1, got 2.0"):
            ClassInfo("x", True, 2.0)
        with pytest.raises(ValidationError, match="class 3 name expects a string"):
            ClassInfo(3, True, 1.0)

    def test_stability_vector_by_class_id(self):
        tax = default_taxonomy()
        assert tax.stability_vector().tolist() == [tax.stability(c) for c in range(12)]


class TestRead:
    @pytest.mark.parametrize("kind, says", [
        (Positive, "finite"), (NonNegative, "finite"), (Size, "finite"), (Coordinate, "finite"),
        (float, "finite"), (typing.Annotated[float, Bound(above=0, most=FAR)], "finite"),
        (NoLimit, "finite or Infinity"),
        (typing.Annotated[float, Bound(above=0, no_limit=True)], "finite or Infinity"),
    ])
    def test_nan_reported_as_not_finite(self, kind, says):
        """NaN fails every bound, so it is reported as what it is before any
        bound is tested: "finite", or "finite or Infinity" where Infinity is taken."""
        with pytest.raises(ValidationError, match=rf"^x must be {says}, got nan$"):
            read(kind, float("nan"), field_of("x"))

    @pytest.mark.parametrize("kind, value, says", [
        (Positive, -1.0, "> 0, got -1.0"),
        (NonNegative, -np.inf, ">= 0, got -inf"),
        (Size, np.inf, "<= 1000000.0, got inf"),
        (Coordinate, -2e6, ">= -1000000.0, got -2000000.0"),
        (float, np.inf, "finite, got inf"),
        (NoLimit, -np.inf, "finite or Infinity, got -inf"),
    ])
    def test_other_values_name_the_first_bound_failed(self, kind, value, says):
        with pytest.raises(ValidationError, match=rf"^x must be {re.escape(says)}$"):
            read(kind, value, field_of("x"))


class TestReadJson:
    def test_document(self, tmp_path):
        f = tmp_path / "a.json"
        f.write_text('{"k": [1, 2.5, "\u00e9"]}', encoding="utf-8")
        assert read_json(f, "a") == {"k": [1, 2.5, "\u00e9"]}

    @pytest.mark.parametrize("error", [FormatError, ValidationError])
    def test_parse_error_gives_the_line(self, tmp_path, error):
        f = tmp_path / "a.json"
        f.write_text('{"k": 1,\n  "oops"\n}')
        with pytest.raises(error, match=rf"config file {f} line 3: Expecting ':' delimiter "
                                        r"\(column 1\)"):
            read_json(f, f"config file {f}", error)

    @pytest.mark.parametrize("raw, says", [
        (b'{"k": "\xff"}', "'utf-8' codec can't decode byte 0xff in position 7"),
        ('{"k": "é"}'.encode("latin-1"), "'utf-8' codec can't decode byte 0xe9"),
        (b"[" * 100_000, "maximum recursion depth"),
        (b"1" * 5000, "integer string conversion"),
    ], ids=["0xff", "latin-1", "nested-too-deep", "integer-too-long"])
    def test_not_a_json_document(self, tmp_path, raw, says):
        """Input that json.loads does not refuse with a JSONDecodeError is still
        the caller's error kind, naming the file."""
        f = tmp_path / "a.json"
        f.write_bytes(raw)
        for error in (FormatError, ValidationError):
            with pytest.raises(error, match=rf"spec file {f}: not a JSON document") as err:
                read_json(f, f"spec file {f}", error)
            assert says in str(err.value)

    def test_missing_file_is_os_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_json(tmp_path / "none.json", "none")


class TestLoadNpz:
    def test_header_that_does_not_tokenize(self, tmp_path):
        """An array header with an unclosed brace makes numpy's header parse
        raise tokenize's TokenError; the file is a FormatError naming it."""
        buf = io.BytesIO()
        np.lib.format.write_array(buf, np.arange(3))
        path = tmp_path / "a.npz"
        with zipfile.ZipFile(path, "w") as z:
            z.writestr("ids.npy", buf.getvalue().replace(b"}", b" ", 1))
        with pytest.raises(FormatError, match=rf"npz file {path}: unreadable"):
            load_npz(path)
