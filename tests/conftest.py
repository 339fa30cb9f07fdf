import pytest

from simplicial import (
    barycentric_subdivision,
    build_complex,
    cross_polytope_boundary,
    cycle,
    icosahedron,
    simplex_boundary,
    torus_7,
)


@pytest.fixture(scope="session")
def octa():
    return cross_polytope_boundary(3)


@pytest.fixture(scope="session")
def cross4():
    return cross_polytope_boundary(4)


@pytest.fixture(scope="session")
def cross5():
    return cross_polytope_boundary(5)


@pytest.fixture(scope="session")
def icosa():
    return icosahedron()


@pytest.fixture(scope="session")
def torus():
    return torus_7()


@pytest.fixture(scope="session")
def tetra_bd():
    return simplex_boundary(3)


@pytest.fixture(scope="session")
def bary_tetra(tetra_bd):
    return barycentric_subdivision(tetra_bd)


@pytest.fixture(scope="session")
def bary_octa(octa):
    return barycentric_subdivision(octa)


@pytest.fixture(scope="session")
def hexagon():
    return cycle(6)


# three triangles sharing one edge; the shared ridge sits in three facets
@pytest.fixture(scope="session")
def books():
    return build_complex([(1, 2, 3), (1, 2, 4), (1, 2, 5)])


@pytest.fixture(scope="session")
def path_complex():
    return build_complex([(1, 2), (2, 3), (3, 4)])


@pytest.fixture(scope="session")
def two_triangles():
    return build_complex([(1, 2, 3), (4, 5, 6)])


# the six-vertex real projective plane: its homology has 2-torsion, so its
# Betti numbers over GF(2) differ from those over GF(3) and Q
@pytest.fixture(scope="session")
def rp2():
    return build_complex([(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 6, 2),
                          (2, 3, 5), (3, 4, 6), (4, 5, 2), (5, 6, 3), (6, 2, 4)])


# a 6x6 grid torus with vertex (3, 3) glued to (0, 0), barycentrically
# subdivided: 215 vertices and 432 facets, flag and a pseudomanifold, and the
# link of the pinch point (vertex 1) is two circles.  Kept out of the corpus,
# whose sweeps and golden digests it would otherwise join.
@pytest.fixture(scope="session")
def pinched_torus():
    n = 6

    def label(i, j):
        i, j = i % n, j % n
        return 1 if (i, j) == (3, 3) else n * i + j + 1

    triangles = []
    for i in range(n):
        for j in range(n):
            triangles.append((label(i, j), label(i + 1, j), label(i + 1, j + 1)))
            triangles.append((label(i, j), label(i, j + 1), label(i + 1, j + 1)))
    return barycentric_subdivision(build_complex(triangles))


# complexes every whole-corpus sweep iterates over, with stable names
@pytest.fixture(scope="session")
def corpus(octa, cross4, cross5, icosa, torus, tetra_bd, bary_tetra, bary_octa,
           hexagon, books, path_complex, two_triangles, rp2):
    return {
        "octahedron": octa,
        "cross4": cross4,
        "cross5": cross5,
        "icosahedron": icosa,
        "torus7": torus,
        "simplex_bd3": tetra_bd,
        "bary_tetra": bary_tetra,
        "bary_octa": bary_octa,
        "hexagon": hexagon,
        "books": books,
        "path": path_complex,
        "two_triangles": two_triangles,
        "rp2": rp2,
    }
