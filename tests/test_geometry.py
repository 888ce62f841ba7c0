import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mono3d.geometry import (Box3D, bev_footprint, box3d_corners, forward_project,
                             inverse_project, yaw_matrix)
from mono3d.kitti_io import CameraCalibration


class TestProjection:
    def test_principal_point_maps_to_axis(self, calib):
        for depth in (1.0, 10.0, 57.3):
            assert inverse_project((600.0, 170.0), depth, calib) == (0.0, 0.0)

    def test_direct_evaluation(self, calib):
        x, y = inverse_project((670.0, 170.0), 10.0, calib)
        assert x == pytest.approx(1.0)
        assert y == pytest.approx(0.0)

    def test_linear_in_depth(self, calib):
        x1, y1 = inverse_project((700.0, 240.0), 7.0, calib)
        x2, y2 = inverse_project((700.0, 240.0), 14.0, calib)
        assert x2 == pytest.approx(2 * x1)
        assert y2 == pytest.approx(2 * y1)

    def test_forward_at_axis(self, calib):
        assert forward_project((0.0, 0.0, 5.0), calib) == (600.0, 170.0)

    def test_forward_direct(self, calib):
        u, v = forward_project((1.0, 0.0, 10.0), calib)
        assert u == pytest.approx(670.0)

    @pytest.mark.parametrize("depth", [0.0, -1.0])
    def test_nonpositive_depth_rejected(self, calib, depth):
        with pytest.raises(ValueError):
            inverse_project((600.0, 170.0), depth, calib)
        with pytest.raises(ValueError):
            forward_project((1.0, 1.0, depth), calib)
        # one bad depth among arrays of points
        with pytest.raises(ValueError, match=f"got z={depth}"):
            forward_project((np.ones(3), np.ones(3), np.array([5.0, depth, 20.0])), calib)

    def test_arrays_equal_per_point_calls(self, calib):
        rng = np.random.default_rng(3)
        x, y, z = rng.uniform([-50, -20, 0.5], [50, 20, 120], size=(1000, 3)).T
        u, v = forward_project((x, y, z), calib)
        assert u.shape == v.shape == (1000,)
        per_point = np.array([forward_project(p, calib) for p in zip(x, y, z)])
        assert np.stack([u, v], axis=1).tobytes() == per_point.tobytes()

    @settings(max_examples=300)
    @given(x=st.floats(-50, 50), y=st.floats(-20, 20),
           z=st.floats(0.5, 120), f=st.floats(300, 1500),
           theta=st.floats(400, 800), phi=st.floats(100, 300))
    def test_round_trip(self, x, y, z, f, theta, phi):
        calib = CameraCalibration.from_intrinsics(f, theta, phi)
        bx, by = inverse_project(forward_project((x, y, z), calib), z, calib)
        assert bx == pytest.approx(x, rel=1e-12, abs=1e-12)
        assert by == pytest.approx(y, rel=1e-12, abs=1e-12)


class TestCorners:
    def test_unit_cube_about_origin(self):
        corners = box3d_corners(Box3D(center=(0, 0, 0), dims=(1, 1, 1), yaw=0.0))
        assert corners.shape == (8, 3)
        expected_bottom = {(0.5, 0.0, 0.5), (-0.5, 0.0, 0.5),
                           (-0.5, 0.0, -0.5), (0.5, 0.0, -0.5)}
        assert {tuple(np.round(c, 12)) for c in corners[:4]} == expected_bottom
        assert np.allclose(corners[4:, 1], -1.0)
        assert np.allclose(corners[4:, [0, 2]], corners[:4][:, [0, 2]])

    def test_half_turn_maps_square_footprint_to_itself(self):
        box = Box3D(center=(2.0, 1.0, 9.0), dims=(1.4, 2.0, 2.0), yaw=0.3)
        rotated = Box3D(center=box.center, dims=box.dims, yaw=box.yaw + np.pi)
        a = {tuple(np.round(c, 9)) for c in box3d_corners(box)}
        b = {tuple(np.round(c, 9)) for c in box3d_corners(rotated)}
        assert a == b

    def test_quarter_turn_swaps_extents(self):
        # footprint 2 long (x) by 1 wide (z) becomes 1 by 2
        box = Box3D(center=(0, 0, 0), dims=(1.0, 1.0, 2.0), yaw=0.0)
        turned = Box3D(center=(0, 0, 0), dims=(1.0, 1.0, 2.0), yaw=np.pi / 2)
        c0 = box3d_corners(box)
        c1 = box3d_corners(turned)
        assert c0[:, 0].max() - c0[:, 0].min() == pytest.approx(2.0)
        assert c0[:, 2].max() - c0[:, 2].min() == pytest.approx(1.0)
        assert c1[:, 0].max() - c1[:, 0].min() == pytest.approx(1.0)
        assert c1[:, 2].max() - c1[:, 2].min() == pytest.approx(2.0)

    def test_centroid_against_bottom_centre_convention(self):
        box = Box3D(center=(3.0, 1.5, 25.0), dims=(1.5, 1.7, 4.1), yaw=0.77)
        centroid = box3d_corners(box).mean(axis=0)
        assert centroid[0] == pytest.approx(3.0)
        assert centroid[2] == pytest.approx(25.0)
        assert centroid[1] == pytest.approx(1.5 - 1.5 / 2)

    @settings(max_examples=200)
    @given(yaw=st.floats(-np.pi, np.pi), h=st.floats(0.5, 3), w=st.floats(0.5, 3),
           length=st.floats(0.5, 6), cx=st.floats(-30, 30), cz=st.floats(1, 80))
    def test_pairwise_distances_invariant_under_yaw(self, yaw, h, w, length, cx, cz):
        fixed = box3d_corners(Box3D(center=(cx, 1.0, cz), dims=(h, w, length), yaw=0.0))
        turned = box3d_corners(Box3D(center=(cx, 1.0, cz), dims=(h, w, length), yaw=yaw))

        def pairwise(c):
            return np.linalg.norm(c[:, None, :] - c[None, :, :], axis=-1)

        assert np.allclose(pairwise(fixed), pairwise(turned), atol=1e-9)


def shoelace(poly):
    x, z = poly[:, 0], poly[:, 1]
    return 0.5 * (np.dot(x, np.roll(z, -1)) - np.dot(np.roll(x, -1), z))


class TestBevFootprint:
    def test_axis_aligned_unit_square(self):
        poly = bev_footprint(Box3D(center=(0, 0, 0), dims=(1, 1, 1), yaw=0.0))
        assert {tuple(np.round(p, 12)) for p in poly} == \
            {(0.5, 0.5), (-0.5, 0.5), (-0.5, -0.5), (0.5, -0.5)}

    def test_diamond_after_45_degrees(self):
        poly = bev_footprint(Box3D(center=(0, 0, 0), dims=(1, 1, 1), yaw=np.pi / 4))
        r = np.sqrt(2) / 2
        assert {tuple(np.round(p, 9)) for p in poly} == \
            {(round(r, 9), 0.0), (0.0, round(r, 9)),
             (round(-r, 9), 0.0), (0.0, round(-r, 9))}
        assert shoelace(poly) == pytest.approx(1.0)

    @settings(max_examples=300)
    @given(yaw=st.floats(-np.pi, np.pi), w=st.floats(0.3, 4), length=st.floats(0.3, 8),
           cx=st.floats(-20, 20), cz=st.floats(1, 80))
    def test_area_and_orientation(self, yaw, w, length, cx, cz):
        poly = bev_footprint(Box3D(center=(cx, 1.3, cz), dims=(1.5, w, length), yaw=yaw))
        area = shoelace(poly)
        assert area == pytest.approx(w * length, rel=1e-9)
        assert area > 0  # counter-clockwise


def random_boxes(n, seed=0):
    """n random boxes as one stacked Box3D, with the edge yaws and some
    zero dimensions among them."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-60.0, 60.0, size=(n, 3))
    dims = rng.uniform(0.0, 6.0, size=(n, 3))
    dims[::40, 0] = 0.0
    dims[1::40, 1] = 0.0
    dims[2::40] = 0.0
    yaws = rng.uniform(-4 * np.pi, 4 * np.pi, size=n)
    edge = [0.0, -0.0, np.pi / 2, -np.pi / 2, np.pi, -np.pi, 3 * np.pi]
    yaws[:len(edge)] = edge
    return Box3D(center=centers, dims=dims, yaw=yaws)


def one_box(boxes, i):
    return Box3D(center=tuple(boxes.center[i].tolist()), dims=tuple(boxes.dims[i].tolist()),
                 yaw=float(boxes.yaw[i]))


class TestStackedBoxes:
    # 1,001 boxes: a count other than 3, so a (B, 3) dims array cannot
    # unpack as one box's (h, w, l).
    N = 1001

    def test_corners_footprints_and_rotations_equal_per_box_bits(self):
        boxes = random_boxes(self.N)
        corners, footprints = box3d_corners(boxes), bev_footprint(boxes)
        rotations = yaw_matrix(boxes.yaw)
        assert corners.shape == (self.N, 8, 3)
        assert footprints.shape == (self.N, 4, 2)
        assert rotations.shape == (self.N, 3, 3)
        singles = [one_box(boxes, i) for i in range(self.N)]
        assert corners.tobytes() == np.array([box3d_corners(b) for b in singles]).tobytes()
        assert footprints.tobytes() == np.array([bev_footprint(b) for b in singles]).tobytes()
        assert rotations.tobytes() == np.array([yaw_matrix(b.yaw) for b in singles]).tobytes()

    def test_one_box_keeps_its_shapes(self):
        box = one_box(random_boxes(10), 9)
        assert box3d_corners(box).shape == (8, 3)
        assert bev_footprint(box).shape == (4, 2)
        assert yaw_matrix(box.yaw).shape == (3, 3)

    def test_empty_batch(self):
        empty = Box3D(center=np.empty((0, 3)), dims=np.empty((0, 3)), yaw=np.empty(0))
        assert box3d_corners(empty).shape == (0, 8, 3)
        assert bev_footprint(empty).shape == (0, 4, 2)
        assert yaw_matrix(empty.yaw).shape == (0, 3, 3)
