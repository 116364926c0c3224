"""Shift-invert Arnoldi driver: exact small cases, certification, determinism."""

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from defectbench.analytic1d import ModelParams
from defectbench.bench import convergence
from defectbench.bench.adaptive import adaptive_loop
from defectbench.bench.cases import CASES
from defectbench.bench.convergence import INITIAL_SQUARE_DIVISIONS
from defectbench.eigensolve import (
    _arnoldi,
    _highest_bit,
    _morton,
    _nested_dissection,
    eigs_near,
    factorize_shifted,
    mean_of_cluster,
)
from defectbench.bench.convergence import build_pencil_1d
from defectbench.fem import Pencil, assemble_interval, assemble_tensor
from defectbench.fem.triangles import assemble_triangles
from defectbench.meshing import (
    initial_square_triangulation,
    nvb_refine,
    uniform_interval_mesh,
)

REGULAR = ModelParams(
    b=0.5,
    a_R=0.1069220800406739 + 0.08937533852238478j,
    c=-0.9634059612381408 + 0.5989684988897067j,
)
REGULAR_LAMBDA = 5.250721274740938 + 6.750931815875402j


def _diag_pencil(diag):
    n = len(diag)
    A = sp.diags(np.asarray(diag, dtype=complex)).tocsr()
    B = sp.eye(n, dtype=complex, format="csr")
    return Pencil(A=A, B=B, free=np.arange(n))


def test_diagonal_pencil_exact():
    pencil = _diag_pencil(np.arange(1.0, 101.0))
    spec = eigs_near(pencil, 37.2, 3)
    got = np.sort(spec.values.real)
    assert np.allclose(got, [36.0, 37.0, 38.0], atol=1e-10)
    assert np.max(spec.residuals) < 1e-10


def test_shift_equal_to_eigenvalue_is_recovered():
    # sigma exactly on an eigenvalue makes A - sigma B singular; the driver
    # must nudge the shift and still converge
    pencil = _diag_pencil(np.arange(1.0, 51.0))
    spec = eigs_near(pencil, 25.0, 1)
    assert abs(spec.values[0] - 25.0) < 1e-10


@pytest.mark.parametrize("p,n_dof", [(1, 256), (2, 128), (1, 16)])
def test_shift_on_discrete_eigenvalue_returns_cluster(p, n_dof):
    # sigma exactly on an eigenvalue of a defective FEM cluster: the LU has
    # a roundoff pivot (P1 N=16 even ends the Krylov space below 3 vectors)
    # and the result must still be the cluster, to the eps^(1/3) ~ 6e-6
    # sensitivity of an ascent-3 cluster
    pencil = assemble_interval(
        uniform_interval_mesh(n_dof // p, force_node=0.5), REGULAR, p
    )
    assert pencil.n == n_dof
    dense = sla.eig(pencil.A.toarray(), pencil.B.toarray(), right=False)
    cluster = dense[np.argsort(np.abs(dense - REGULAR_LAMBDA))[:3]]
    for sigma in cluster:
        got = eigs_near(pencil, sigma, 3).values
        for lam in cluster:
            assert np.min(np.abs(got - lam)) < 1e-5 * abs(lam)


def _arnoldi_mgs(op, v0, k):
    """Reference: the earlier modified Gram-Schmidt Arnoldi, twice, by column."""
    n = len(v0)
    V = np.empty((n, k + 1), dtype=complex)
    H = np.zeros((k + 1, k), dtype=complex)
    V[:, 0] = v0 / np.linalg.norm(v0)
    for j in range(k):
        w = op(V[:, j])
        for _ in range(2):
            for i in range(j + 1):
                h = np.vdot(V[:, i], w)
                H[i, j] += h
                w -= h * V[:, i]
        beta = np.linalg.norm(w)
        H[j + 1, j] = beta
        if beta < 1e-14 * max(1.0, np.abs(H).max()):
            return V[:, : j + 1], H[: j + 1, : j + 1]
        V[:, j + 1] = w / beta
    return V[:, :k], H[:k, :k]


def _regular_p1(n_dof):
    return assemble_interval(uniform_interval_mesh(n_dof, force_node=0.5),
                             REGULAR, 1)


def _shift_invert(pencil, sigma):
    fact = factorize_shifted(pencil, sigma)
    return lambda v: fact.solve(pencil.B @ v)


def _assert_arnoldi_relation(op, V, H, f):
    """op(V) = V H + f e_j^T, to 1e-12 relative."""
    lhs = np.column_stack([op(V[:, i]) for i in range(V.shape[1])])
    rhs = V @ H
    rhs[:, -1] += f
    assert np.linalg.norm(lhs - rhs) < 1e-12 * np.linalg.norm(lhs)


def test_arnoldi_basis_orthonormal_and_relation_holds():
    op = _shift_invert(_regular_p1(256), REGULAR_LAMBDA)
    v0 = np.ones(256, dtype=complex)
    V, H, f = _arnoldi(op, v0, 40, 3)
    # the cluster's Schur block is invariant well before the cap, and the
    # test runs only at multiples of m = 3
    j = V.shape[1]
    assert j < 40 and j % 3 == 0
    assert V.shape == (256, j) and H.shape == (j, j) and f.shape == (256,)
    assert np.linalg.norm(V.conj().T @ V - np.eye(j)) < 1e-12
    _assert_arnoldi_relation(op, V, H, f)
    # the cluster Ritz values match the full 40-step column MGS reference
    # to the eps^(1/3) ~ 6e-6 sensitivity of an ascent-3 cluster
    def cluster(H):
        theta = np.linalg.eigvals(H)
        theta = theta[np.argsort(-np.abs(theta))[:3]]
        return np.sort_complex(REGULAR_LAMBDA + 1.0 / theta)

    ref = cluster(_arnoldi_mgs(op, v0, 40)[1])
    assert np.max(np.abs(cluster(H) - ref)) < 1e-5 * abs(REGULAR_LAMBDA)


def test_arnoldi_early_exit_on_exact_eigenvalue_shift():
    # regular1d P1 N = 16 with sigma on a discrete eigenvalue: the Krylov
    # space becomes invariant after j + 1 < k vectors
    pencil = _regular_p1(16)
    dense = sla.eig(pencil.A.toarray(), pencil.B.toarray(), right=False)
    cluster = dense[np.argsort(np.abs(dense - REGULAR_LAMBDA))[:3]]
    for sigma in cluster:
        op = _shift_invert(pencil, sigma)
        v0 = np.ones(16, dtype=complex)
        V, H, f = _arnoldi(op, v0, 16, 3)
        V_ref, _ = _arnoldi_mgs(op, v0, 16)
        j1 = V_ref.shape[1]
        assert j1 < 16
        assert V.shape == (16, j1) and H.shape == (j1, j1)
        assert np.linalg.norm(V.conj().T @ V - np.eye(j1)) < 1e-12
        _assert_arnoldi_relation(op, V, H, f)


def test_krylov_dim_stops_at_a_multiple_of_m_below_the_cap():
    pencil = _regular_p1(8192)
    spec = eigs_near(pencil, REGULAR_LAMBDA, 3)
    assert spec.krylov_dim % 3 == 0 and 0 < spec.krylov_dim < 40
    assert np.max(spec.residuals) < 1e-12


def test_nearest_cluster_on_the_tightest_gap_pencils(monkeypatch):
    # a Krylov space stopped too early can hold a wrong, well-converged
    # cluster that passes the residual certificate; only a dense solve
    # tells it apart.  These reduced2d_tri P1 pencils have their (m+1)-th
    # eigenvalue at most 1.4 times farther from the target than the m-th:
    # the uniform level 1 and the first three adaptive meshes.
    case = CASES["reduced2d_tri"]
    mesh = initial_square_triangulation(INITIAL_SQUARE_DIVISIONS)
    for _ in range(2):
        mesh = nvb_refine(mesh, range(mesh.n_triangles))
    pencils = [assemble_triangles(mesh, case.config.params, 1)]

    def recording(pencil, *args):
        pencils.append(pencil)
        return eigs_near(pencil, *args)

    monkeypatch.setattr(convergence, "eigs_near", recording)
    adaptive_loop(case, max_dofs=29)
    assert [p.n for p in pencils] == [64, 16, 22, 29]
    m = case.m_alg
    for pencil in pencils:
        dense = sla.eig(pencil.A.toarray(), pencil.B.toarray(), right=False)
        ref = dense[np.argsort(np.abs(dense - case.target))[:m]]
        got = eigs_near(pencil, case.target, m).values
        assert (abs(mean_of_cluster(got) - mean_of_cluster(ref))
                < 5e-14 * abs(case.target))


def test_shifted_factorization_roundtrip():
    rng = np.random.default_rng(11)
    M = rng.normal(size=(50, 50)) + 1j * rng.normal(size=(50, 50))
    A = sp.csr_matrix(M + M.T)  # complex symmetric
    B = sp.eye(50, dtype=complex, format="csr")
    pencil = Pencil(A=A, B=B, free=np.arange(50))
    sigma = 0.3 + 0.1j
    fact = factorize_shifted(pencil, sigma)
    x = rng.normal(size=50) + 1j * rng.normal(size=50)
    y = fact.solve(x)
    back = (A - sigma * B) @ y
    assert np.linalg.norm(back - x) < 1e-10 * np.linalg.norm(x)


def test_matches_dense_solver_on_coarse_fem_pencil():
    pencil = assemble_interval(uniform_interval_mesh(12, force_node=0.5),
                               REGULAR, 1)
    dense = sla.eig(pencil.A.toarray(), pencil.B.toarray(), right=False)
    spec = eigs_near(pencil, REGULAR_LAMBDA, 3)
    for lam in spec.values:
        assert np.min(np.abs(dense - lam)) < 1e-9 * abs(lam)


def test_shift_independence_of_cluster():
    pencil = assemble_interval(uniform_interval_mesh(32, force_node=0.5),
                               REGULAR, 2)
    target = REGULAR_LAMBDA
    spec1 = eigs_near(pencil, target, 3)
    spec2 = eigs_near(pencil, target * (1 + 0.05), 3)
    c1 = np.sort_complex(spec1.values)
    c2 = np.sort_complex(spec2.values)
    assert np.max(np.abs(c1 - c2)) < 1e-8 * abs(target)


def test_deterministic_across_calls():
    pencil = assemble_interval(uniform_interval_mesh(16, force_node=0.5),
                               REGULAR, 1)
    spec1 = eigs_near(pencil, REGULAR_LAMBDA, 3)
    spec2 = eigs_near(pencil, REGULAR_LAMBDA, 3)
    assert np.array_equal(spec1.values, spec2.values)
    assert np.array_equal(spec1.vectors, spec2.vectors)


def test_vectors_are_b_normalized():
    pencil = assemble_interval(uniform_interval_mesh(16, force_node=0.5),
                               REGULAR, 1)
    spec = eigs_near(pencil, REGULAR_LAMBDA, 3)
    for j in range(spec.vectors.shape[1]):
        v = spec.vectors[:, j]
        assert abs(v.conj() @ (pencil.B @ v) - 1.0) < 1e-10
        k = int(np.argmax(np.abs(v)))
        assert v[k].real > 0 and abs(v[k].imag) < 1e-10 * abs(v[k])


def test_mean_of_cluster_is_harmonic():
    # mean of the inverses, inverted: {1, 1/3} -> 1/2
    assert mean_of_cluster(np.array([1.0, 1 / 3])) == pytest.approx(0.5)
    assert mean_of_cluster(np.array([2.0 + 0j])) == pytest.approx(2.0)


# --- nested-dissection ordering of pencils that carry points ---------------


def _tri_pencil(case_id, sweeps, p=1, graded=False):
    """A uniform triangle pencil after `sweeps` bisection sweeps, or with
    graded=True one refined toward the corner (1/3, 1/3) on each sweep."""
    case = CASES[case_id]
    mesh = initial_square_triangulation(INITIAL_SQUARE_DIVISIONS)
    for _ in range(sweeps):
        marked = range(mesh.n_triangles)
        if graded:
            centroid = mesh.vertices[mesh.triangles].mean(axis=1)
            marked = np.flatnonzero(
                np.max(np.abs(centroid - 1 / 3), axis=1) < 0.2)
        mesh = nvb_refine(mesh, marked)
    return assemble_triangles(mesh, case.config.params, p), case.target


def _tensor_pencil(dim, n_el):
    case = CASES["regular2d_tensor" if dim == 2 else "regular3d_tensor"]
    return (assemble_tensor(build_pencil_1d(case, 1, n_el), dim),
            case.target)


POINTED = {
    "tri_p1": lambda: _tri_pencil("regular2d_tri", 4),
    "tri_p2": lambda: _tri_pencil("reduced2d_tri", 2, p=2),
    "adaptive_p1": lambda: _tri_pencil("reduced2d_tri", 6, graded=True),
    "tensor2d": lambda: _tensor_pencil(2, 16),
    "tensor3d": lambda: _tensor_pencil(3, 8),
}


@pytest.mark.parametrize("name", sorted(POINTED))
def test_nested_dissection_separates_the_top_cut(name):
    pencil, sigma = POINTED[name]()
    M = (pencil.A - sigma * pencil.B).tocoo()
    # the points follow the matrix numbering: every entry joins two
    # unknowns at most one mesh size apart in each coordinate
    gap = np.abs(pencil.points[M.row] - pencil.points[M.col]).max()
    assert gap <= pencil.meta["h"] * (1 + 1e-12)

    perm = _nested_dissection(M, pencil.points)
    assert np.array_equal(np.sort(perm), np.arange(pencil.n))
    # post-order: the lower half of the top cut, the upper half, then the
    # top separator, which lies in the lower half
    code = _morton(pencil.points)
    top = np.uint64(1) << np.uint64(63 // pencil.points.shape[1]
                                    * pencil.points.shape[1] - 1)
    upper = (code & top) > 0
    pos = np.empty(pencil.n, dtype=int)
    pos[perm] = np.arange(pencil.n)
    last_upper = pos[upper].max()
    separator = pos > last_upper
    assert upper.any() and (~upper).any() and separator.any()
    assert not upper[separator].any()
    assert pos[~upper & ~separator].max() < pos[upper].min()
    # once the separator is removed no entry joins the two halves, and
    # every separator unknown has a neighbour in the upper half
    kept = ~separator
    crossing = upper[M.row] != upper[M.col]
    assert not np.any(crossing & kept[M.row] & kept[M.col])
    touches = np.zeros(pencil.n, dtype=bool)
    touches[M.row[crossing]] = True
    assert np.array_equal(separator, touches & ~upper)


def test_highest_bit_is_exact_for_3d_codes_across_2_53():
    edges = [2**e + d for e in (52, 53, 54, 61, 62) for d in (-1, 0, 1)]
    rng = np.random.default_rng(3)
    codes = np.concatenate([
        np.array([0, 1, 2, 3, 2**63 - 1] + edges, dtype=np.uint64),
        rng.integers(0, 2**63, size=1000, dtype=np.uint64),
    ])
    expected = [int(c).bit_length() - 1 for c in codes]
    assert _highest_bit(codes).tolist() == expected
    # a float log2 would round 2^62 - 1 up to 2^62 ...
    assert int(np.log2(np.float64(2**62 - 1))) == 62
    # ... and the 3D Morton codes of two points across x = 1/2 differ at
    # bit 62 and are compared there exactly
    code = _morton(np.array([[0.5 - 2.0**-21, 0.7, 0.7],
                             [0.5, 0.7, 0.7]]))
    assert _highest_bit(code[:1] ^ code[1:]).tolist() == [62]


def test_morton_code_interleaves_box_bits_first_axis_first():
    rng = np.random.default_rng(4)
    for dim in (2, 3):
        bits = 63 // dim
        points = np.vstack([rng.random((20, dim)), np.ones((1, dim)),
                            np.zeros((1, dim))])
        expected = []
        for point in points:
            box = [min(int(x * 2**bits), 2**bits - 1) for x in point]
            code = 0
            for b in range(bits - 1, -1, -1):
                for x in box:
                    code = 2 * code + (x >> b & 1)
            expected.append(code)
        assert [int(c) for c in _morton(points)] == expected


def test_shifted_solve_undoes_the_ordering_for_vectors_and_blocks():
    pencil, sigma = _tri_pencil("regular2d_tri", 2, p=2)
    sigma = sigma + 0.5  # off the spectrum
    fact = factorize_shifted(pencil, sigma)
    assert fact.perm is not None
    M = pencil.A - sigma * pencil.B
    rng = np.random.default_rng(5)
    for shape in [(pencil.n,), (pencil.n, 4)]:
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        y = fact.solve(x)
        assert y.shape == shape
        assert np.linalg.norm(M @ y - x) < 1e-10 * np.linalg.norm(x)


def test_interval_pencils_carry_no_points_and_keep_colamd():
    pencil = _regular_p1(256)
    assert pencil.points is None
    fact = factorize_shifted(pencil, REGULAR_LAMBDA)
    ref = spla.splu((pencil.A - REGULAR_LAMBDA * pencil.B).tocsc())
    assert fact.perm is None and fact.lu.nnz == ref.nnz
    assert np.array_equal(fact.lu.perm_c, ref.perm_c)


@pytest.mark.parametrize("case_id", ["regular2d_tri", "regular2d_tensor"])
def test_ordering_stores_fewer_lu_entries_than_colamd(case_id):
    # N = 16,384, the finest level of the uniform2d benchmark; both counts
    # are deterministic
    if case_id == "regular2d_tri":
        pencil, sigma = _tri_pencil(case_id, 10)
    else:
        pencil, sigma = _tensor_pencil(2, 128)
    assert pencil.n == 16384
    nd = factorize_shifted(pencil, sigma).lu.nnz
    colamd = spla.splu((pencil.A - sigma * pencil.B).tocsc()).nnz
    assert nd < colamd
