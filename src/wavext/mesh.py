"""Structured triangulations of axis-aligned rectangles.

Every mesh is an nx-by-ny grid of rectangles, each split into two triangles
along the diagonal from the lower-left to the upper-right corner.  The split
direction is fixed so that repeated runs produce identical meshes.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Mesh:
    """Conforming triangulation of a rectangle.

    Attributes
    ----------
    vertices : (nv, 2) float array of vertex coordinates.
    cells : (nc, 3) int array; each row lists vertex indices with positive
        orientation (counterclockwise).
    bbox : (x_min, x_max, y_min, y_max).
    nx, ny : grid resolution the mesh was built from.
    """

    vertices: np.ndarray
    cells: np.ndarray
    bbox: tuple
    nx: int
    ny: int

    @property
    def n_cells(self):
        return self.cells.shape[0]


def build_structured_mesh(nx, ny, bbox=(0.0, 1.0, 0.0, 1.0)):
    """Triangulate the rectangle ``bbox`` with a 2*nx*ny-cell grid.

    Parameters
    ----------
    nx, ny : number of grid squares per direction (>= 1).
    bbox : (x_min, x_max, y_min, y_max) with x_min < x_max, y_min < y_max.
    """
    if not (isinstance(nx, (int, np.integer)) and isinstance(ny, (int, np.integer))):
        raise ValueError("nx and ny must be integers")
    if nx < 1 or ny < 1:
        raise ValueError(f"grid resolution must be >= 1, got nx={nx}, ny={ny}")
    x_min, x_max, y_min, y_max = map(float, bbox)
    if not (x_min < x_max and y_min < y_max):
        raise ValueError(f"degenerate bounding box {bbox}")

    xs = np.linspace(x_min, x_max, nx + 1)
    ys = np.linspace(y_min, y_max, ny + 1)
    X, Y = np.meshgrid(xs, ys)
    vertices = np.column_stack([X.ravel(), Y.ravel()])

    # per grid square, its lower-left vertex v00; v10 = v00 + 1,
    # v01 = v00 + nx + 1, v11 = v00 + nx + 2
    v00 = (np.arange(ny)[:, None] * (nx + 1) + np.arange(nx)).ravel()
    cells = np.stack([v00, v00 + 1, v00 + nx + 2,          # below the diagonal
                      v00, v00 + nx + 2, v00 + nx + 1],    # above the diagonal
                     axis=1).reshape(-1, 3)

    return Mesh(vertices, cells, (x_min, x_max, y_min, y_max), int(nx), int(ny))


def mesh_size(mesh):
    """Largest cell diameter (max vertex-pair distance over all cells)."""
    p = mesh.vertices[mesh.cells]
    d = [np.linalg.norm(p[:, a] - p[:, b], axis=1) for a, b in ((0, 1), (1, 2), (0, 2))]
    return float(np.max(d))

