import numpy as np
import pytest

from wavext.fem import build_space
from wavext.mesh import build_structured_mesh, mesh_size


def _boundary_edges(mesh):
    """Cell edges whose two vertices lie on one side of the mesh's rectangle."""
    x_min, x_max, y_min, y_max = mesh.bbox
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    sides = np.stack([x == x_min, x == x_max, y == y_min, y == y_max], axis=1)
    edges = set()
    for tri in mesh.cells.tolist():
        for a, b in ((0, 1), (1, 2), (2, 0)):
            if np.any(sides[tri[a]] & sides[tri[b]]):
                edges.add((min(tri[a], tri[b]), max(tri[a], tri[b])))
    return edges


def test_smallest_grid():
    m = build_structured_mesh(1, 1)
    assert m.n_cells == 2
    assert len(m.vertices) == 4
    assert len(_boundary_edges(m)) == 4


def test_mesh_size_unit_square():
    assert mesh_size(build_structured_mesh(1, 1)) == pytest.approx(np.sqrt(2.0))
    h8 = mesh_size(build_structured_mesh(8, 8))
    assert h8 == pytest.approx(np.sqrt(2.0) / 8)
    assert h8 == pytest.approx(1.7678e-1, rel=1e-3)


def test_mesh_size_centered_square():
    # 1x1 grid on (-1,1)^2: cell diameter is the diagonal 2*sqrt(2)
    m = build_structured_mesh(1, 1, (-1.0, 1.0, -1.0, 1.0))
    assert mesh_size(m) == pytest.approx(2.0 * np.sqrt(2.0))
    # the 2x2 resolution of the same box has h = sqrt(2)
    m2 = build_structured_mesh(2, 2, (-1.0, 1.0, -1.0, 1.0))
    assert mesh_size(m2) == pytest.approx(np.sqrt(2.0))


def test_2x2_vertex_split():
    m = build_structured_mesh(2, 2)
    assert m.n_cells == 8
    x, y = m.vertices[:, 0], m.vertices[:, 1]
    on_boundary = (x == 0) | (x == 1) | (y == 0) | (y == 1)
    assert on_boundary.sum() == 8
    assert (~on_boundary).sum() == 1


def test_refinement_halves_mesh_size():
    for nx in (1, 3):
        h1 = mesh_size(build_structured_mesh(nx, nx))
        h2 = mesh_size(build_structured_mesh(2 * nx, 2 * nx))
        assert h2 == pytest.approx(h1 / 2, rel=1e-14)


@pytest.mark.parametrize("bbox", [(0.0, 1.0, 0.0, 1.0), (-1.0, 1.0, -1.0, 1.0),
                                  (0.0, 2.5, -0.5, 1.0)])
def test_cells_tile_bbox(bbox):
    m = build_structured_mesh(3, 4, bbox)
    areas = build_space(m, 1).detjac / 2
    assert np.all(areas > 0)
    total = (bbox[1] - bbox[0]) * (bbox[3] - bbox[2])
    assert abs(areas.sum() - total) <= 1e-12 * total


def test_edge_sharing_counts():
    m = build_structured_mesh(3, 2)
    counts = {}
    for tri in m.cells.tolist():
        for a, b in ((0, 1), (1, 2), (2, 0)):
            edge = (min(tri[a], tri[b]), max(tri[a], tri[b]))
            counts[edge] = counts.get(edge, 0) + 1
    boundary = _boundary_edges(m)
    for edge, count in counts.items():
        assert count == (1 if edge in boundary else 2)
    assert len(boundary) == 2 * (3 + 2)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        build_structured_mesh(0, 1)
    with pytest.raises(ValueError):
        build_structured_mesh(2, 2, (0.0, 0.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        build_structured_mesh(2.5, 2)


def cells_loops(nx, ny):
    """Oracle: the per-square loop that the index arithmetic replaces."""
    def vid(i, j):
        return j * (nx + 1) + i

    cells = np.empty((2 * nx * ny, 3), dtype=np.int64)
    k = 0
    for j in range(ny):
        for i in range(nx):
            v00 = vid(i, j)
            v10 = vid(i + 1, j)
            v01 = vid(i, j + 1)
            v11 = vid(i + 1, j + 1)
            cells[k] = (v00, v10, v11)
            cells[k + 1] = (v00, v11, v01)
            k += 2
    return cells


@pytest.mark.parametrize("nx", [1, 2, 3, 5, 8, 19])
@pytest.mark.parametrize("ny", [1, 2, 4, 7])
def test_cells_match_loops(nx, ny):
    cells = build_structured_mesh(nx, ny).cells
    want = cells_loops(nx, ny)
    assert cells.dtype == want.dtype and np.array_equal(cells, want)
    assert np.array_equal(build_structured_mesh(np.int64(nx), ny).cells, want)
