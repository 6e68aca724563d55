"""Geometry substrate: spherical math, viewports, tile grids."""

from .quaternion import (
    angles_to_quaternion,
    quaternion_conjugate,
    quaternion_multiply,
    quaternion_normalize,
    quaternion_rotate,
    quaternion_to_angles,
    quaternion_to_direction,
)
from .sphere import (
    equirect_distance,
    orientation_angles,
    orientation_vector,
    switching_speed_series,
)
from .tiling import DEFAULT_GRID, FTILE_BLOCK_GRID, Tile, TileGrid
from .viewport import DEFAULT_FOV_DEG, Rect, Viewport

__all__ = [
    "angles_to_quaternion",
    "quaternion_conjugate",
    "quaternion_multiply",
    "quaternion_normalize",
    "quaternion_rotate",
    "quaternion_to_angles",
    "quaternion_to_direction",
    "equirect_distance",
    "orientation_angles",
    "orientation_vector",
    "switching_speed_series",
    "DEFAULT_GRID",
    "FTILE_BLOCK_GRID",
    "Tile",
    "TileGrid",
    "DEFAULT_FOV_DEG",
    "Rect",
    "Viewport",
]
