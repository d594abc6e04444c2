import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bscch.assembly import assemble_core
from bscch.errors import InvalidArgument, ValidationError
from bscch.mesh import (
    FORMAT_HEADER,
    TriMesh,
    generate_disk_mesh,
    mesh_stats,
    validate_mesh,
    write_mesh,
)

from oracles import mesh_stats_reference, read_mesh


def test_counts_formula():
    for nb, nr in [(8, 2), (16, 4), (32, 8)]:
        m = generate_disk_mesh(nb, nr)
        assert m.n_vertices == 1 + nb * nr
        assert len(m.triangles) == nb * (2 * nr - 1)
        assert m.n_boundary == nb


def test_exact_polygon_area_and_perimeter():
    # the mesh triangulates the inscribed regular nb-gon exactly
    for nb, nr in [(16, 4), (64, 16)]:
        forms = assemble_core(generate_disk_mesh(nb, nr))
        assert forms.perimeter == pytest.approx(2 * nb * np.sin(np.pi / nb), rel=1e-14)
        assert forms.area == pytest.approx(0.5 * nb * np.sin(2 * np.pi / nb), rel=1e-13)


def test_geometry_built_once_per_mesh():
    m = generate_disk_mesh(16, 4)
    assert m.geometry is m.geometry


def test_boundary_loop_is_unit_circle_nodes():
    m = generate_disk_mesh(32, 8)
    r = np.linalg.norm(m.vertices[m.boundary_loop], axis=1)
    np.testing.assert_allclose(r, 1.0, atol=1e-15)


def test_roundtrip_bit_identical(tmp_path):
    m = generate_disk_mesh(16, 4)
    p1, p2 = tmp_path / "a.mesh", tmp_path / "b.mesh"
    write_mesh(m, p1)
    write_mesh(read_mesh(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_parse_error_bad_index(tmp_path):
    p = tmp_path / "m.mesh"
    p.write_text(FORMAT_HEADER + "\n3 1 3\n0 0\n1 0\n0 1\n0 1 99\n0\n1\n2\n")
    with pytest.raises(ValidationError, match="triangle vertex index out of range"):
        read_mesh(p)


def test_flipped_triangle_rejected():
    m = generate_disk_mesh(8, 2)
    tris = m.triangles.copy()
    tris[0] = tris[0][::-1]
    with pytest.raises(ValidationError):
        TriMesh(m.vertices, tris, m.boundary_loop)


def test_non_manifold_edge_rejected():
    m = generate_disk_mesh(8, 2)
    tris = np.concatenate([m.triangles, m.triangles[:1]])  # its edges now have 2-3 triangles
    with pytest.raises(ValidationError, match="non-manifold"):
        TriMesh(m.vertices, tris, m.boundary_loop)


def test_loop_that_is_not_the_boundary_cycle_rejected():
    m = generate_disk_mesh(8, 2)
    inner_ring = m.boundary_loop - 8  # a closed counterclockwise cycle, but interior edges
    with pytest.raises(ValidationError, match="closed cycle of boundary edges"):
        TriMesh(m.vertices, m.triangles, inner_ring)
    with pytest.raises(ValidationError, match="closed cycle of boundary edges"):
        TriMesh(m.vertices, m.triangles, m.boundary_loop[[0, 2, 1, 3, 4, 5, 6, 7]])
    with pytest.raises(ValidationError, match="closed cycle of boundary edges"):
        TriMesh(m.vertices, m.triangles, m.boundary_loop[:2])  # its two edges are one edge


def test_loop_visiting_a_vertex_twice_rejected():
    m = generate_disk_mesh(8, 2)
    with pytest.raises(ValidationError, match="boundary loop visits a vertex twice"):
        TriMesh(m.vertices, m.triangles, m.boundary_loop[[0, 1, 2, 3, 4, 5, 6, 0]])


def test_vertex_of_no_triangle_rejected():
    # such a vertex ran into a bare broadcasting ValueError in the first Newton solve
    m = generate_disk_mesh(16, 4)
    extra = np.concatenate([m.vertices, [[0.05, 0.05], [-0.05, 0.05]]])
    with pytest.raises(ValidationError, match="vertex 65 belongs to no triangle"):
        TriMesh(extra, m.triangles, m.boundary_loop)


def _loop_disk_mesh(nb, nr):
    """The polar construction one vertex and one triangle at a time."""
    angles = 2.0 * np.pi * np.arange(nb) / nb
    verts = [np.zeros((1, 2))] + [np.stack([k / nr * np.cos(angles), k / nr * np.sin(angles)], axis=1)
                                  for k in range(1, nr + 1)]

    def ring(k, j):
        return 1 + (k - 1) * nb + (j % nb)

    tris = [(0, ring(1, j), ring(1, j + 1)) for j in range(nb)]
    for k in range(1, nr):
        for j in range(nb):
            tris.append((ring(k, j), ring(k + 1, j), ring(k + 1, j + 1)))
            tris.append((ring(k, j), ring(k + 1, j + 1), ring(k, j + 1)))
    loop = [ring(nr, j) for j in range(nb)]
    return np.concatenate(verts), np.array(tris, dtype=np.int64), np.array(loop, dtype=np.int64)


@pytest.mark.parametrize("nb,nr", [(8, 1), (16, 4), (64, 16)])
def test_generator_bitwise_equal_to_loop_construction(nb, nr):
    m = generate_disk_mesh(nb, nr)
    for got, ref in zip((m.vertices, m.triangles, m.boundary_loop), _loop_disk_mesh(nb, nr)):
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("nb,nr", [(8, 1), (16, 4), (64, 16), (200, 50), (8, 40)])
def test_mesh_stats_match_the_law_of_cosines(nb, nr):
    # edge lengths and corner angles from the basis gradients against the vertex form
    mesh = generate_disk_mesh(nb, nr)
    for got, ref in zip(mesh_stats(mesh), mesh_stats_reference(mesh)):
        assert got == pytest.approx(ref, rel=1e-12, abs=0)


def test_generator_input_validation():
    with pytest.raises(InvalidArgument):
        generate_disk_mesh(7, 2)  # odd nb
    with pytest.raises(InvalidArgument):
        generate_disk_mesh(8, 0)


@settings(max_examples=20, deadline=None)
@given(nb=st.sampled_from([8, 12, 16, 24]), nr=st.integers(min_value=1, max_value=6))
def test_generated_meshes_valid_and_euler(nb, nr):
    m = generate_disk_mesh(nb, nr)
    validate_mesh(m)  # raises on defect
    edges = set()
    for tri in m.triangles:
        for a, b in ((0, 1), (1, 2), (2, 0)):
            edges.add(frozenset((tri[a], tri[b])))
    # Euler formula for a disk: V - E + F = 1 (triangles only)
    assert m.n_vertices - len(edges) + len(m.triangles) == 1
    h_max, min_angle = mesh_stats(m)
    assert min_angle > 10.0
    assert h_max < 2 * np.pi / nb + 1.2 / nr
