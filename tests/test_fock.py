import json

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (ORACLE_CUTOFFS, apply_creation_series, assert_same_csr, block, commutator,
                     csr_frobenius, csr_poly, interior_projector, interior_residual,
                     kron_generators, shell_indices, shell_projector, vacuum_state,
                     zero_signed_bits)

from ladderforge.catalogue import Bindings, appendix_catalogue
from ladderforge.errors import CutoffMismatch, CutoffTooSmall, LadderForgeError
from ladderforge.fock import (A1_DAG, A2_DAG, CreationPoly, FockCutoff,
                              Operator, TwoModeState, apply, basis_state,
                              build_generators, coherent_state,
                              commutator_residual, interior_indices, norm,
                              normalize, state_to_csv,
                              state_to_json)
from ladderforge.params import build_hamiltonian, build_ladder


def test_indexing_row_major():
    cut = FockCutoff(3, 5)
    assert cut.dim == 24
    assert cut.index(2, 4) == 2 * 6 + 4
    assert cut.occupations(cut.index(2, 4)) == (2, 4)
    seen = [cut.index(n1, n2) for n1, n2 in cut.states()]
    assert seen == list(range(cut.dim))


def test_annihilator_action(gen8):
    cut = gen8.cutoff
    v = apply(gen8.a1, basis_state(cut, 1, 0))
    assert abs(v.amplitudes[cut.index(0, 0)] - 1.0) < 1e-15
    assert norm(apply(gen8.a1, vacuum_state(cut))) == 0.0


def test_jplus_action():
    g = build_generators(FockCutoff(3, 3))
    v = apply(g.j_plus, basis_state(g.cutoff, 1, 2))
    # sqrt((1+1) * 2) = 2 onto |2,1>
    assert abs(v.amplitudes[g.cutoff.index(2, 1)] - 2.0) < 1e-14
    assert abs(norm(v) - 2.0) < 1e-14


def test_hard_truncation(gen8):
    cut = gen8.cutoff
    top = basis_state(cut, cut.n1_max, 0)
    assert norm(apply(gen8.a1_dag, top)) == 0.0


def test_mode_commutators(gen8):
    proj = interior_projector(gen8.cutoff, 1)
    ident = gen8.identity
    pairs = {
        (gen8.a1, gen8.a1_dag): ident,
        (gen8.a2, gen8.a2_dag): ident,
        (gen8.a1, gen8.a2_dag): None,
        (gen8.a1, gen8.a2): None,
        (gen8.a1_dag, gen8.a2_dag): None,
    }
    for (x, y), expected in pairs.items():
        c = commutator(x, y)
        if expected is not None:
            c = c - expected
        assert (proj @ c @ proj).norm() < 1e-12


def test_su2_commutators(gen8):
    proj = interior_projector(gen8.cutoff, 2)
    g = gen8
    assert (proj @ (commutator(g.j_plus, g.j_minus) - 2 * g.j3) @ proj).norm() < 1e-12
    assert (proj @ (commutator(g.j3, g.j_plus) - g.j_plus) @ proj).norm() < 1e-12
    assert (proj @ (commutator(g.j3, g.j_minus) + g.j_minus) @ proj).norm() < 1e-12
    assert (proj @ commutator(g.n_op, g.j3) @ proj).norm() == 0.0
    assert (proj @ commutator(g.n_op, g.j_plus) @ proj).norm() < 1e-12


def test_mixed_commutators(gen8):
    g = gen8
    proj = interior_projector(g.cutoff, 2)
    relations = [
        (commutator(g.n_op, g.a1) + 0.5 * g.a1),
        (commutator(g.n_op, g.a2) + 0.5 * g.a2),
        (commutator(g.n_op, g.a1_dag) - 0.5 * g.a1_dag),
        (commutator(g.j3, g.a1) + 0.5 * g.a1),
        (commutator(g.j3, g.a2) - 0.5 * g.a2),
        (commutator(g.j3, g.a1_dag) - 0.5 * g.a1_dag),
        (commutator(g.j3, g.a2_dag) + 0.5 * g.a2_dag),
        (commutator(g.j_plus, g.a1) + g.a2),
        (commutator(g.j_plus, g.a2_dag) - g.a1_dag),
        (commutator(g.j_minus, g.a2) + g.a1),
        (commutator(g.j_minus, g.a1_dag) - g.a2_dag),
        commutator(g.j_plus, g.a1_dag),
        commutator(g.j_plus, g.a2),
        commutator(g.j_minus, g.a2_dag),
        commutator(g.j_minus, g.a1),
    ]
    for rel in relations:
        assert (proj @ rel @ proj).norm() < 1e-12


def test_self_commutator_zero(gen8):
    assert commutator(gen8.a1, gen8.a1).norm() == 0.0


def test_interior_projector_rank():
    cut = FockCutoff(4, 4)
    assert interior_projector(cut, 0).nnz == cut.dim
    assert interior_projector(cut, 2).nnz == 9
    cut2 = FockCutoff(2, 2)
    p1 = interior_projector(cut2, 1)
    assert p1.nnz == 4
    with pytest.raises(ValueError):
        interior_projector(cut2, 3)


def test_shell_indices():
    cut = FockCutoff(4, 4)
    idx = shell_indices(cut, 2)
    assert len(idx) == 6  # (0,0),(0,1),(1,0),(0,2),(1,1),(2,0)


def test_adjoint_involution(gen8, rng):
    m = rng.normal(size=(gen8.cutoff.dim, gen8.cutoff.dim)) \
        + 1j * rng.normal(size=(gen8.cutoff.dim, gen8.cutoff.dim))
    op = Operator(gen8.cutoff, m)
    assert (op.dag().dag() - op).norm() < 1e-13


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10 ** 6))
def test_matmul_associative(seed):
    rng = np.random.default_rng(seed)
    cut = FockCutoff(3, 3)
    ops = []
    for _ in range(3):
        m = np.zeros((cut.dim, cut.dim), complex)
        rows = rng.integers(0, cut.dim, size=8)
        cols = rng.integers(0, cut.dim, size=8)
        m[rows, cols] = rng.normal(size=8) + 1j * rng.normal(size=8)
        ops.append(Operator(cut, m))
    a, b, c = ops
    assert (((a @ b) @ c) - (a @ (b @ c))).norm() < 1e-12


def test_cutoff_mismatch():
    a = build_generators(FockCutoff(3, 3)).a1
    b = build_generators(FockCutoff(4, 4)).a1
    with pytest.raises(CutoffMismatch):
        _ = a @ b


def test_normalize_errors():
    cut = FockCutoff(2, 2)
    zero = TwoModeState(cut, np.zeros(cut.dim))
    with pytest.raises(LadderForgeError):
        normalize(zero)
    v = normalize(TwoModeState(cut, np.full(cut.dim, 0.3 + 0.1j)))
    assert abs(norm(v) - 1.0) < 1e-12


def test_apply_identity(gen8):
    v = basis_state(gen8.cutoff, 2, 3)
    w = apply(gen8.identity, v)
    assert np.array_equal(v.amplitudes, w.amplitudes)


def test_creation_series_matches_coherent(gen14):
    cut = gen14.cutoff
    alpha = 0.8 - 0.4j
    v = normalize(apply_creation_series(alpha * gen14.a1_dag, vacuum_state(cut)))
    import math
    expected = np.zeros(cut.dim, complex)
    for n in range(cut.n1_max + 1):
        expected[cut.index(n, 0)] = alpha ** n / math.sqrt(math.factorial(n))
    expected /= np.linalg.norm(expected)
    assert np.linalg.norm(v.amplitudes - expected) < 1e-13


def test_creation_series_handles_diagonal_exponent(gen8):
    # not nilpotent, but the series still converges to exp(c*n1)|2,0>
    v = apply_creation_series(0.7 * (gen8.a1_dag @ gen8.a1), basis_state(gen8.cutoff, 2, 0))
    assert abs(v.amplitudes[gen8.cutoff.index(2, 0)] - np.exp(1.4)) < 1e-12


@pytest.mark.parametrize("cutoff", [(12, 16), (40, 40)])
def test_coherent_state_matches_the_series(cutoff):
    g = build_generators(FockCutoff(*cutoff))
    for x1, x2 in [(0.8 - 0.4j, -0.3 + 0.9j), (0.0, 1.7), (2.5j, -1.1)]:
        got = coherent_state(g.cutoff, x1, x2).amplitudes
        want = apply_creation_series(csr_poly(x1 * A1_DAG + x2 * A2_DAG, g),
                                     vacuum_state(g.cutoff)).amplitudes
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), (x1, x2)


def _random_poly(rng, degree):
    return CreationPoly({(p, q): complex(*rng.normal(size=2))
                         for p in range(degree + 1) for q in range(degree + 1 - p)})


def test_creation_polys_multiply_as_their_csr_operators(rng):
    # the truncated a1', a2' commute and their powers compose, so the
    # polynomial sum, multiple and product are the operators' on the grid
    g = build_generators(FockCutoff(6, 9))
    x, y = _random_poly(rng, 2), _random_poly(rng, 3)
    for got, want in [(x + y, csr_poly(x, g) + csr_poly(y, g)),
                      (x - y, csr_poly(x, g) - csr_poly(y, g)),
                      ((0.3 - 2j) * x, (0.3 - 2j) * csr_poly(x, g)),
                      (np.complex128(0.5j) * x, 0.5j * csr_poly(x, g)),
                      (x @ y, csr_poly(x, g) @ csr_poly(y, g))]:
        assert np.max(np.abs(csr_poly(got, g).to_dense() - want.to_dense())) < 1e-12
    assert (x - x).coeffs == {} and (x - x).degrees is None
    assert (A1_DAG @ A1_DAG @ A2_DAG).degrees == (2, 1)


@pytest.mark.parametrize("cutoff", [(14, 14), (40, 0), (0, 256), (256, 256)])
def test_coherent_state_refuses_amplitudes_that_overflow(cutoff):
    # either every amplitude and the norm are finite, or CutoffTooSmall;
    # the refusals are the largest amplitudes, 1e300 among them
    cut = FockCutoff(*cutoff)
    radii = [1.0, 10.0, 30.0, 1e3, 1e8, 1e20, 1e100, 1e300]
    refused = []
    for r in radii:
        try:
            v = coherent_state(cut, r * np.exp(0.3j), 0.5 * r)
        except CutoffTooSmall:
            refused.append(r)
            continue
        assert np.isfinite(norm(v))
    assert refused and refused == radii[len(radii) - len(refused):]


@pytest.mark.parametrize("cutoff", ORACLE_CUTOFFS)
def test_creation_poly_acts_as_its_csr_operator(cutoff, rng):
    # degree 3 reaches past the top of a mode where the cutoff is below 3,
    # and the shifted slices wrap round the rows of the flat grid
    g = build_generators(FockCutoff(*cutoff))
    x = _random_poly(rng, 3)
    vs = rng.normal(size=(3, g.cutoff.dim)) + 1j * rng.normal(size=(3, g.cutoff.dim))
    want = (csr_poly(x, g).mat @ vs.T).T
    act = x.on(g.cutoff)
    assert np.max(np.abs(act(vs) - want), initial=0) < 1e-12
    assert np.array_equal(act(vs[1]), act(vs)[1])


def test_state_json_and_csv(gen8):
    v = normalize(TwoModeState(gen8.cutoff,
                               np.arange(gen8.cutoff.dim, dtype=float) + 0.5j))
    payload = json.loads(json.dumps(state_to_json(v)))
    assert payload["cutoff"] == [gen8.cutoff.n1_max, gen8.cutoff.n2_max]
    assert payload["amplitudes"] == [[z.real, z.imag] for z in v.amplitudes.tolist()]
    csv = state_to_csv(v)
    lines = csv.strip().split("\n")
    assert lines[0] == "n1,n2,re,im,probability"
    assert len(lines) == gen8.cutoff.dim + 1
    for line in lines[1:]:
        n1, n2, re, im, prob = line.split(",")
        z = v.amplitudes[gen8.cutoff.index(int(n1), int(n2))]
        assert (float(re), float(im), float(prob)) == (z.real, z.imag, abs(z) ** 2)


# ---------------------------------------------------------------------------
# the Kronecker-built generators and index sets against their elementwise
# definitions, and interior_residual against the projector sandwich
# ---------------------------------------------------------------------------

def _elementwise_generators(cut):
    """Dense a1, a2, J+ = a1'a2 and J- = a1 a2' from their matrix elements,
    with the hard truncation of a_i' at the top level."""
    a1, a2, jp, jm = (np.zeros((cut.dim, cut.dim)) for _ in range(4))
    for n1, n2 in cut.states():
        col = cut.index(n1, n2)
        if n1 > 0:
            a1[cut.index(n1 - 1, n2), col] = np.sqrt(n1)
        if n2 > 0:
            a2[cut.index(n1, n2 - 1), col] = np.sqrt(n2)
        if n1 < cut.n1_max and n2 > 0:
            jp[cut.index(n1 + 1, n2 - 1), col] = np.sqrt(n1 + 1) * np.sqrt(n2)
        if n1 > 0 and n2 < cut.n2_max:
            jm[cut.index(n1 - 1, n2 + 1), col] = np.sqrt(n1) * np.sqrt(n2 + 1)
    return a1, a2, jp, jm


@pytest.mark.parametrize("n1_max,n2_max", [(3, 5), (5, 3), (0, 2), (2, 0), (4, 4)])
def test_generators_match_elementwise_definition(n1_max, n2_max):
    cut = FockCutoff(n1_max, n2_max)
    g = build_generators(cut)
    a1, a2, jp, jm = _elementwise_generators(cut)
    np.testing.assert_array_equal(g.a1.to_dense(), a1)
    np.testing.assert_array_equal(g.a2.to_dense(), a2)
    np.testing.assert_array_equal(g.a1_dag.to_dense(), a1.T)
    np.testing.assert_array_equal(g.a2_dag.to_dense(), a2.T)
    np.testing.assert_array_equal(g.j_plus.to_dense(), jp)
    np.testing.assert_array_equal(g.j_minus.to_dense(), jm)


@pytest.mark.parametrize("n1_max,n2_max", [(3, 5), (5, 3), (0, 4), (6, 6)])
def test_index_sets_match_comprehensions(n1_max, n2_max):
    cut = FockCutoff(n1_max, n2_max)
    for degree in range(min(n1_max, n2_max) + 1):
        expected = [cut.index(n1, n2)
                    for n1 in range(n1_max - degree + 1)
                    for n2 in range(n2_max - degree + 1)]
        assert interior_indices(cut, degree).tolist() == expected
    for s_max in range(-1, n1_max + n2_max + 2):
        expected = [cut.index(n1, n2) for n1, n2 in cut.states() if n1 + n2 <= s_max]
        assert shell_indices(cut, s_max).tolist() == expected


@settings(max_examples=40, deadline=None)
@given(n1_max=st.integers(1, 8), n2_max=st.integers(1, 8),
       density=st.floats(0.05, 1.0), seed=st.integers(0, 10 ** 6), data=st.data())
def test_interior_residual_equals_projector_sandwich(n1_max, n2_max, density, seed, data):
    cut = FockCutoff(n1_max, n2_max)
    rng = np.random.default_rng(seed)
    shape = (cut.dim, cut.dim)
    m = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) \
        * 10.0 ** rng.uniform(-6, 6, size=shape) * (rng.random(shape) < density)
    op = Operator(cut, m)
    degree = data.draw(st.integers(0, min(n1_max, n2_max)))
    proj = interior_projector(cut, degree)
    assert interior_residual(op, interior_indices(cut, degree)) == (proj @ op @ proj).norm()
    s_max = data.draw(st.integers(-1, n1_max + n2_max))
    sproj = shell_projector(cut, s_max)
    assert interior_residual(op, shell_indices(cut, s_max)) == (sproj @ op @ sproj).norm()


GENERATOR_NAMES = ("a1", "a2", "a1_dag", "a2_dag", "j_plus", "j_minus", "n_op", "j3",
                   "identity")


@pytest.mark.parametrize("n1_max,n2_max", ORACLE_CUTOFFS)
def test_generators_match_the_kronecker_product_build(n1_max, n2_max):
    cut = FockCutoff(n1_max, n2_max)
    g, ref = build_generators(cut), kron_generators(cut)
    for name in GENERATOR_NAMES:
        assert_same_csr(getattr(g, name), getattr(ref, name))


def test_generator_build_takes_no_kronecker_product(monkeypatch):
    def kron(*args, **kwargs):
        raise AssertionError("build_generators called sp.kron")

    monkeypatch.setattr(sp, "kron", kron)
    build_generators(FockCutoff(6, 4))


@pytest.mark.parametrize("n1_max,n2_max", [(0, 0), (5, 1), (6, 6)])
def test_combine_is_the_chained_operator_sum_in_any_order(n1_max, n2_max):
    g = build_generators(FockCutoff(n1_max, n2_max))
    terms = [("identity", 0.25 - 1j), ("a1", 0.5j), ("j3", -1.5), ("j_minus", 2.0),
             ("n_op", 0.75 + 0.5j), ("a2_dag", -0.3), ("j_plus", 0.0)]
    ref = (g.n_op * (0.75 + 0.5j) + g.j3 * -1.5 + g.identity * (0.25 - 1j)
           + g.a1 * 0.5j + g.j_minus * 2.0 + g.a2_dag * -0.3)
    assert_same_csr(g.combine(terms), ref)
    assert_same_csr(g.combine(terms[::-1]), ref)
    # n_op - j3 = a2'a2 cancels to zero on n2 = 0: those entries are dropped
    assert g.combine([("n_op", 1.0), ("j3", -1.0)]).nnz == (n1_max + 1) * n2_max


def test_combine_with_a_non_finite_coefficient_stays_on_the_grid():
    # 0 * inf is NaN: a non-finite c_k must not put entries where a shift
    # leaves the grid
    g = build_generators(FockCutoff(3, 2))
    with np.errstate(invalid="ignore"):
        op = g.combine([("a1", np.inf), ("j_plus", complex(np.nan, 1.0)), ("n_op", 1.0)])
    ref = (g.a1 + g.j_plus + g.n_op).mat
    np.testing.assert_array_equal(op.mat.indptr, ref.indptr)
    np.testing.assert_array_equal(op.mat.indices, ref.indices)


@pytest.mark.parametrize("n1_max,n2_max", ORACLE_CUTOFFS)
def test_block_is_the_combined_csr_restricted(n1_max, n2_max, rng):
    # shell and interior index sets from the least to the whole grid, each
    # with random complex terms over all nine generators, some zero and some
    # not finite
    g = build_generators(FockCutoff(n1_max, n2_max))
    top = min(n1_max, n2_max)
    index_sets = ([shell_indices(g.cutoff, s) for s in sorted({0, 1, top // 2, top,
                                                               n1_max + n2_max})]
                  + [interior_indices(g.cutoff, d) for d in sorted({0, top // 2, top})])
    names = ["a1", "a2", "a1_dag", "a2_dag", "j_plus", "j_minus", "n_op", "j3", "identity"]
    odd = [0.0, np.inf, -np.inf, complex(np.nan, 1.0), complex(1.0, np.inf)]
    for draw in range(8):
        coeffs = rng.normal(size=9) + 1j * rng.normal(size=9)
        coeffs[rng.random(9) < 0.3] = 0
        if draw % 2:
            coeffs[rng.integers(9)] = odd[rng.integers(len(odd))]
        terms = list(zip(names, coeffs))
        with np.errstate(invalid="ignore"):
            full = g.combine(terms).mat
            for keep in index_sets:
                got = block(g, terms, keep)
                want = full[keep][:, keep].toarray()
                assert got.shape == want.shape
                np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_operator_leaves_its_argument_unchanged():
    arrays = (np.array([1.0, 0.0, 2.0, 3.0], dtype=complex), np.array([0, 1, 2, 3], dtype=np.int32),
              np.array([0, 1, 2, 3, 4], dtype=np.int32))
    before = [arr.copy() for arr in arrays]
    m = sp.csr_matrix(arrays, shape=(4, 4))
    real = sp.csr_matrix((arrays[0].real.copy(), *arrays[1:]), shape=(4, 4))
    for arg in (m, real, arrays):
        assert Operator(FockCutoff(1, 1), arg).nnz == 3
        assert m.nnz == 4
        for arr, kept in zip(arrays, before):
            np.testing.assert_array_equal(arr, kept)
    unsorted = sp.csr_matrix((np.array([2.0, 1.0], dtype=complex), np.array([3, 0]),
                              np.array([0, 2, 2, 2, 2])), shape=(4, 4))
    op = Operator(FockCutoff(1, 1), unsorted)
    assert unsorted.indices.tolist() == [3, 0]
    assert op.mat.indices.tolist() == [0, 3]


@pytest.mark.parametrize("n1_max,n2_max", [(12, 16), (40, 40)])
def test_norms_are_scipys_frobenius_norm(n1_max, n2_max):
    # Operator.norm is scipy's sparse Frobenius norm, and interior_residual
    # equals it on the projector sandwich bit for bit, on the generators,
    # the catalogue's H and A and their ladder identity, restricted to
    # interior boxes and to a shell
    cut = FockCutoff(n1_max, n2_max)
    g = build_generators(cut)
    ops = [getattr(g, name) for name in GENERATOR_NAMES]
    for row in appendix_catalogue(Bindings()):
        h, a = build_hamiltonian(row.params, g), build_ladder(row.coeffs, g)
        ops += [h, a, commutator(h, a) + a]
    boxes = [(interior_indices(cut, d), interior_projector(cut, d)) for d in (1, 3)]
    boxes.append((shell_indices(cut, n1_max // 2), shell_projector(cut, n1_max // 2)))
    for op in ops:
        assert op.norm() == csr_frobenius(op)
        for keep, proj in boxes:
            assert interior_residual(op, keep) == csr_frobenius(proj @ op @ proj)


def test_operator_sums_duplicate_entries():
    # canonical form has no duplicates, so the norm of the stored entries
    # is the matrix's (a pair that cancels is dropped); the lent arrays stay
    # as they were, though scipy keeps a view of the data and converts the
    # int64 indices
    arrays = (np.array([3.0, 4.0, 1.0, -1.0], dtype=complex), np.array([0, 0, 3, 3]),
              np.array([0, 2, 4, 4, 4]))
    before = [arr.copy() for arr in arrays]
    op = Operator(FockCutoff(1, 1), arrays)
    assert op.mat.indices.tolist() == [0] and op.mat.data.tolist() == [7.0]
    assert op.norm() == 7.0 == np.linalg.norm(op.to_dense())
    for arr, kept in zip(arrays, before):
        np.testing.assert_array_equal(arr, kept)


# ---------------------------------------------------------------------------
# weighted shifts: products, mat-vecs, adjoints and the commutator kernel on
# operators beyond the generators' seven shifts, against their CSR forms
# ---------------------------------------------------------------------------

def _random_terms(rng):
    picked = rng.choice(GENERATOR_NAMES, size=rng.integers(1, 6), replace=False)
    return [(str(n), complex(*rng.normal(size=2))) for n in picked]


@pytest.mark.parametrize("n1_max,n2_max", [*ORACLE_CUTOFFS, (6, 6)])
def test_shift_products_are_the_sparse_products(n1_max, n2_max, rng):
    # products of combinations with up to seven shifts each, several pairs
    # landing on one product shift, and a product of three; their mat-vecs
    # are scipy's bit for bit, the sign of zero included
    g = build_generators(FockCutoff(n1_max, n2_max))
    for _ in range(12):
        x, y, z = (_random_terms(rng) for _ in range(3))
        xs, ys, zs = g.shifts(x), g.shifts(y), g.shifts(z)
        xy = g.combine(x) @ g.combine(y)
        xyz = xy @ g.combine(z)
        assert_same_csr((xs @ ys).csr(), xy)
        assert_same_csr((xs @ ys @ zs).csr(), xyz)
        v = [1, 1j] @ rng.normal(size=(2, g.cutoff.dim))
        for op, ref in ((xs, g.combine(x)), (xs @ ys, xy), (xs @ ys @ zs, xyz)):
            assert np.array_equal(op.matvec(v).view(np.uint64), (ref.mat @ v).view(np.uint64))
        assert (zero_signed_bits((xs @ ys).dag().csr().to_dense())
                == zero_signed_bits(xy.dag().to_dense())).all()


@pytest.mark.parametrize("n1_max,n2_max", [(8, 8), (9, 13), (16, 12)])
def test_commutator_residual_on_any_shifts_is_the_csr_one(n1_max, n2_max, rng):
    # operands that are products of combinations move the grid by up to two
    # in each mode, so each shift set gets its own product table, and the
    # identity is formed on boxes down to degree 0, where the shifted slices
    # run off the padded grid
    cut = FockCutoff(n1_max, n2_max)
    g = build_generators(cut)
    for degree in [0, 1, 2, 4]:
        x, y, z = (g.shifts(_random_terms(rng)) @ g.shifts(_random_terms(rng))
                   for _ in range(3))
        got = commutator_residual(g, x, y, z, degree)
        xc, yc, zc = x.csr(), y.csr(), z.csr()
        want = interior_residual(commutator(xc, yc) + zc, interior_indices(cut, degree))
        assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64), degree
