"""Unit tests for the equirectangular projection and gnomonic view
generation reference that other tests check Ptile coverage against."""

import numpy as np
import pytest

from repro.geometry import Viewport

from .projection_reference import EquirectFrame, ViewRenderer


class TestEquirectFrame:
    def test_default_is_4k(self):
        frame = EquirectFrame()
        assert frame.width_px == 3840
        assert frame.height_px == 2160

    def test_pixel_round_trip(self):
        frame = EquirectFrame()
        for px, py in [(0.0, 0.0), (1920.0, 1080.0), (3000.0, 500.0)]:
            yaw, pitch = frame.pixel_to_angles(px, py)
            px2, py2 = frame.angles_to_pixel(yaw, pitch)
            assert px2 == pytest.approx(px % 3840, abs=1e-6)
            assert py2 == pytest.approx(py, abs=1e-6)

    def test_top_left_is_north_seam(self):
        frame = EquirectFrame()
        yaw, pitch = frame.pixel_to_angles(0, 0)
        assert yaw == pytest.approx(0.0)
        assert pitch == pytest.approx(90.0)

    def test_center_is_equator(self):
        frame = EquirectFrame()
        yaw, pitch = frame.pixel_to_angles(1920, 1080)
        assert yaw == pytest.approx(180.0)
        assert pitch == pytest.approx(0.0)

    def test_pixel_density(self):
        frame = EquirectFrame()
        assert frame.pixels_per_sq_degree == pytest.approx(
            3840 * 2160 / (360 * 180)
        )

    def test_tiny_frame_rejected(self):
        with pytest.raises(ValueError):
            EquirectFrame(1, 100)


class TestViewRenderer:
    def test_invalid_display_rejected(self):
        with pytest.raises(ValueError):
            ViewRenderer(1, 10)

    def test_center_pixel_looks_at_viewport_center(self):
        renderer = ViewRenderer(65, 65)
        vp = Viewport(120.0, -15.0)
        directions = renderer.sample_directions(vp)
        yaw, pitch = directions[32, 32]
        assert yaw == pytest.approx(120.0, abs=1.0)
        assert pitch == pytest.approx(-15.0, abs=1.0)

    def test_directions_within_viewport_cone(self):
        renderer = ViewRenderer(33, 33)
        vp = Viewport(200.0, 0.0)
        directions = renderer.sample_directions(vp).reshape(-1, 2)
        # Gnomonic corners extend past the planar FoV box, but every
        # sample must stay within the diagonal half-angle of the cone.
        from repro.prediction import angular_distance_deg

        max_angle = max(
            angular_distance_deg(200.0, 0.0, float(y), float(p))
            for y, p in directions
        )
        assert max_angle < 75.0  # corner of a 100x100 gnomonic view

    def test_coverage_full_region(self):
        renderer = ViewRenderer(17, 17)
        vp = Viewport(180.0, 0.0)
        assert renderer.coverage_fraction(vp, lambda y, p: True) == 1.0

    def test_coverage_empty_region(self):
        renderer = ViewRenderer(17, 17)
        vp = Viewport(180.0, 0.0)
        assert renderer.coverage_fraction(vp, lambda y, p: False) == 0.0

    def test_coverage_half_plane(self):
        renderer = ViewRenderer(33, 33)
        vp = Viewport(180.0, 0.0)
        frac = renderer.coverage_fraction(vp, lambda y, p: p >= 0.0)
        assert 0.4 < frac < 0.6

    def test_shape(self):
        renderer = ViewRenderer(8, 12)
        directions = renderer.sample_directions(Viewport(0, 0))
        assert directions.shape == (12, 8, 2)
        assert np.all(directions[..., 0] >= 0.0)
        assert np.all(directions[..., 0] < 360.0)
        assert np.all(np.abs(directions[..., 1]) <= 90.0)
