import numpy as np
import pytest

from gaplab import rep_markov
from gaplab.group_core import build_cyclic, build_sl2_quotient, word_ball
from gaplab.measures import (
    DiscreteMeasure,
    dirac,
    lazy_uniform,
    uniform_on,
)
from gaplab.rep_markov import (
    DENSE_LIMIT,
    Decomposition,
    DenseLimitError,
    MarkovOperator,
    Representation,
    defect_curve,
    markov_operator,
    neumann_projection,
    operator_identities_check,
    require_dense,
    restricted_norm,
)


def _translate(el, f):
    """(pi_g f)(x) = f(g^-1 x)."""
    return f[el.inverse().perm_array()]


def _z4_setup(p=2.0, d=1):
    act = build_cyclic(4)
    rep = Representation(act, p=p, d=d)
    mu = uniform_on(
        [act.identity_element(), act.generator_element("g"), act.generator_element("g^-1")]
    )
    return act, rep, markov_operator(rep, mu)


def _z2_setup():
    act = build_cyclic(2)
    rep = Representation(act, p=2.0)
    mu = uniform_on([act.identity_element(), act.generator_element("g")])
    return act, rep, markov_operator(rep, mu)


def test_markov_dirac_is_identity():
    act = build_cyclic(5)
    rep = Representation(act)
    op = markov_operator(rep, dirac(act.identity_element()))
    assert np.allclose(op.dense(), np.eye(5))


def test_markov_one_point_action():
    act = build_cyclic(1)
    rep = Representation(act)
    op = markov_operator(rep, dirac(act.identity_element()))
    assert op.dense().shape == (1, 1)
    assert op.dense()[0, 0] == 1.0
    est = restricted_norm(op)
    assert est.value == 0.0 and est.quality == "exact"


def test_markov_z4_circulant_stencil():
    _act, _rep, op = _z4_setup()
    a = op.dense()
    expected_row = np.array([1 / 3, 1 / 3, 0.0, 1 / 3])
    for i in range(4):
        assert np.allclose(a[i], np.roll(expected_row, i))
    assert np.allclose(a.sum(axis=1), 1.0)


def test_markov_rejects_foreign_measure():
    act = build_cyclic(4)
    other = build_cyclic(5)
    rep = Representation(act)
    mu = uniform_on([other.identity_element(), other.generator_element("g")])
    with pytest.raises(ValueError):
        markov_operator(rep, mu)


def test_restricted_norm_z2_is_zero():
    _act, _rep, op = _z2_setup()
    est = restricted_norm(op)
    assert est.quality == "exact"
    assert est.value == pytest.approx(0.0, abs=1e-10)


def _fourier_eigenvalues_z4():
    # oracle: circulant eigenvalues (1 + 2 cos(2 pi k / 4)) / 3 on modes k=1,2,3
    return [(1.0 + 2.0 * np.cos(2.0 * np.pi * k / 4)) / 3.0 for k in (1, 2, 3)]


def test_restricted_norm_z4_fourier_oracle():
    _act, _rep, op = _z4_setup()
    oracle = max(abs(e) for e in _fourier_eigenvalues_z4())
    assert oracle == pytest.approx(1 / 3)
    est = restricted_norm(op)
    assert est.quality == "exact"
    assert est.value == pytest.approx(oracle, abs=1e-10)


def test_restricted_norm_z4_fiber_dimension_invariant():
    _act, _rep, op = _z4_setup(d=3)
    est = restricted_norm(op)
    assert est.value == pytest.approx(1 / 3, abs=1e-9)


def test_restricted_norm_identity_operator():
    act = build_cyclic(4)
    rep = Representation(act)
    op = markov_operator(rep, dirac(act.identity_element()))
    est = restricted_norm(op)
    assert est.value == pytest.approx(1.0, abs=1e-10)


def test_restricted_norm_lp_lower_bound_quality():
    _act, _rep, op = _z4_setup(p=3.0)
    est = restricted_norm(op, seed=1, n_starts=4)
    assert est.quality == "lower_bound"
    assert est.upper == 1.0
    # the spectral radius 1/3 is attained by an eigenvector, so the lower
    # bound cannot fall below it
    assert est.value >= 1 / 3 - 1e-9
    assert est.value <= 1.0 + 1e-12


def test_isometry_of_generators():
    act = build_sl2_quotient(3, variant="b")
    rng = np.random.default_rng(3)
    for p in (1.5, 2.0, 3.0):
        rep = Representation(act, p=p, d=2)
        f = rng.standard_normal((act.n_points, 2))
        for lab in act.gens.labels:
            g = act.generator_element(lab)
            assert rep.norm(_translate(g, f)) == pytest.approx(
                rep.norm(f), abs=1e-12
            )


def test_markov_contraction_on_random_fields():
    _act, rep, op = _z4_setup(p=1.5)
    rng = np.random.default_rng(11)
    for _ in range(20):
        f = rng.standard_normal((4, 1))
        assert rep.norm(op.apply(f)) <= rep.norm(f) + 1e-12


def test_mean_preservation():
    act = build_sl2_quotient(4, variant="b")
    rep = Representation(act)
    mu = uniform_on([act.identity_element()] + [act.generator_element(l) for l in act.gens.labels])
    op = markov_operator(rep, mu)
    dec = op.decomposition
    rng = np.random.default_rng(5)
    f = rng.standard_normal((act.n_points, 1))
    assert np.allclose(dec.mean(op.apply(f)), dec.mean(f), atol=1e-12)


def test_dense_refusals_share_one_limit():
    # SL2(Z/17) has 4,896 points: the dense operator and projector are both
    # refused through require_dense, whose error is a ValueError
    require_dense(DENSE_LIMIT, "operator")
    with pytest.raises(DenseLimitError, match="refusing dense 4097 x 4097 operator"):
        require_dense(DENSE_LIMIT + 1, "operator")
    act = build_sl2_quotient(17, "a")
    op = markov_operator(Representation(act), uniform_on([act.generator_element("e12")]))
    with pytest.raises(DenseLimitError, match="4896 x 4896 operator"):
        op.dense()
    with pytest.raises(DenseLimitError, match="4896 x 4896 projector"):
        op.decomposition.mean_matrix()
    assert issubclass(DenseLimitError, ValueError)


def test_neumann_projection_trivial_rep():
    act = build_cyclic(1)
    rep = Representation(act)
    op = markov_operator(rep, dirac(act.identity_element()))
    p = neumann_projection(op)
    assert np.allclose(p, np.eye(1))


def test_neumann_projection_z2_single_term():
    _act, _rep, op = _z2_setup()
    p = neumann_projection(op)
    assert np.allclose(p, np.full((2, 2), 0.5), atol=1e-14)


def test_neumann_projection_z4_matches_mean_projector():
    _act, _rep, op = _z4_setup()
    p = neumann_projection(op)
    assert np.max(np.abs(p - op.decomposition.mean_matrix())) <= 1e-10


def test_neumann_rejects_non_gapped():
    act = build_cyclic(4)
    rep = Representation(act)
    op = markov_operator(rep, dirac(act.generator_element("g")))
    with pytest.raises(ValueError):
        neumann_projection(op)


def test_neumann_agrees_with_iteration_limit():
    _act, _rep, op = _z4_setup()
    p = neumann_projection(op)
    ak = np.linalg.matrix_power(op.dense(), 60)
    assert np.max(np.abs(ak - p)) <= 1e-9


def test_iterate_defect_k0_is_one():
    _act, _rep, op = _z4_setup()
    assert defect_curve(op, 0)[0] == pytest.approx(1.0, abs=1e-12)


def test_iterate_defect_z2_collapses_after_one_step():
    _act, _rep, op = _z2_setup()
    assert defect_curve(op, 1)[1] == pytest.approx(0.0, abs=1e-14)


def test_iterate_defect_z4_five_steps():
    _act, _rep, op = _z4_setup()
    defect = defect_curve(op, 5)[5]
    lam = restricted_norm(op).value
    assert defect <= lam**5 + 1e-12
    assert defect == pytest.approx((1 / 3) ** 5, abs=1e-12)


def test_iterate_defect_lp_mode():
    _act, _rep, op = _z4_setup(p=1.5)
    curve = defect_curve(op, 6, seed=2)
    assert curve[3] <= 1.0 + 1e-12
    assert curve[6] <= curve[3] + 1e-12  # contraction in k


def test_projector_algebra():
    _act, _rep, op = _z4_setup()
    a = op.dense()
    p = op.decomposition.mean_matrix()
    assert np.max(np.abs(p @ p - p)) <= 1e-12
    assert np.max(np.abs(a @ p - p)) <= 1e-12
    assert np.max(np.abs(p @ a - p)) <= 1e-12


def test_projectors_commute_with_generators():
    act = build_sl2_quotient(3, variant="b")
    rep = Representation(act)
    dec = Decomposition(rep)
    rng = np.random.default_rng(17)
    f = rng.standard_normal((act.n_points, 1))
    for lab in act.gens.labels:
        g = act.generator_element(lab)
        lhs = dec.mean(_translate(g, f))
        rhs = _translate(g, dec.mean(f))
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_identities_trivial_measures():
    act = build_cyclic(4)
    rep = Representation(act)
    e = dirac(act.identity_element())
    report = operator_identities_check(rep, e, e)
    assert report.ok
    assert report.convolution_defect == 0.0


def test_identities_z4():
    act = build_cyclic(4)
    rep = Representation(act)
    mu = uniform_on([act.identity_element(), act.generator_element("g"),
                     act.generator_element("g^-1")])
    nu = dirac(act.generator_element("g"))
    report = operator_identities_check(rep, mu, nu)
    assert report.ok, report.violations()


def _random_action(rng, n=8, n_gens=3):
    from gaplab.group_core import FiniteAction, GeneratorSystem

    labels = []
    inverses = {}
    perms = {}
    for i in range(n_gens):
        lab, inv = f"s{i}", f"s{i}^-1"
        perm = rng.permutation(n)
        labels += [lab, inv]
        inverses[lab] = inv
        inverses[inv] = lab
        perms[lab] = perm
        q = np.empty(n, dtype=np.int64)
        q[perm] = np.arange(n)
        perms[inv] = q
    gens = GeneratorSystem(labels=tuple(labels), inverses=inverses)
    return FiniteAction(list(range(n)), np.full(n, 1.0 / n), gens, perms)


def test_identities_random_actions_seeded():
    rng = np.random.default_rng(99)
    for _ in range(10):
        act = _random_action(rng)
        rep = Representation(act)
        ball = word_ball(act, 2)
        idx = rng.choice(len(ball), size=3, replace=False)
        w = rng.random(3) + 0.1
        w /= w.sum()
        mu = DiscreteMeasure({ball[i]: float(x) for i, x in zip(idx, w)})
        idx2 = rng.choice(len(ball), size=2, replace=False)
        w2 = rng.random(2) + 0.1
        w2 /= w2.sum()
        nu = DiscreteMeasure({ball[i]: float(x) for i, x in zip(idx2, w2)})
        report = operator_identities_check(rep, mu, nu)
        assert report.ok, report.violations()


def test_csr_apply_matches_atom_gathers():
    # reference: the per-atom sums A f = sum mu(g) f(g^-1 .), A* f = sum mu(g) f(g .)
    rng = np.random.default_rng(5)
    act = _random_action(rng)
    ball = word_ball(act, 2)
    idx = rng.choice(len(ball), size=5, replace=False)
    w = rng.random(5) + 0.1
    mu = DiscreteMeasure({ball[i]: float(x) for i, x in zip(idx, w / w.sum())})
    op = markov_operator(Representation(act, d=2), mu)
    f = rng.standard_normal((act.n_points, 2))
    gather = sum(x * f[el.inverse().perm_array()] for el, x in mu.items())
    scatter = sum(x * f[el.perm_array()] for el, x in mu.items())
    assert np.allclose(op.apply(f), gather, rtol=0, atol=1e-15)
    assert np.allclose(op.apply_transpose(f), scatter, rtol=0, atol=1e-15)


def test_submultiplicativity_of_restricted_norm():
    act = build_cyclic(6)
    rep = Representation(act)
    mu = uniform_on([act.identity_element(), act.generator_element("g")])
    nu = uniform_on([act.generator_element("g"), act.generator_element("g^-1")])
    from gaplab.measures import convolve

    lam_mu = restricted_norm(markov_operator(rep, mu)).value
    lam_nu = restricted_norm(markov_operator(rep, nu)).value
    lam_conv = restricted_norm(markov_operator(rep, convolve(mu, nu))).value
    assert lam_conv <= lam_mu * lam_nu + 1e-9


def test_torus_action_per_orbit_decomposition():
    act = build_sl2_quotient(4, variant="b")
    rep = Representation(act)
    dec = Decomposition(rep)
    assert dec.n_orbits == len(act.orbits()) > 1
    rng = np.random.default_rng(23)
    f = rng.standard_normal((act.n_points, 1))
    m = dec.mean(f)
    # invariant under every generator
    for lab in act.gens.labels:
        assert np.allclose(_translate(act.generator_element(lab), m), m)
    # idempotent
    assert np.allclose(dec.mean(m), m, atol=1e-14)
    mu = uniform_on([act.identity_element()] + [act.generator_element(l) for l in act.gens.labels])
    op = markov_operator(rep, mu)
    est = restricted_norm(op)
    assert est.value < 1.0 - 1e-6
    pn = neumann_projection(op, norm=est)
    assert np.max(np.abs(pn - dec.mean_matrix())) <= 1e-10


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("d", [1, 2])
def test_stacked_norm_matches_per_field(p, d):
    act = build_sl2_quotient(4, "b")
    rep = Representation(act, p=p, d=d)
    stack = np.random.default_rng(3).standard_normal((5, act.n_points, d))
    norms = rep.norm(stack)
    assert isinstance(norms, np.ndarray) and norms.shape == (5,)
    per_field = np.array([rep.norm(f) for f in stack])
    assert np.allclose(norms, per_field, rtol=1e-15, atol=0.0)
    single = rep.norm(stack[0])
    assert type(single) is float
    assert single == norms[0]
    with pytest.raises(ValueError):
        rep.norm(np.zeros((5, act.n_points, d + 1)))
    with pytest.raises(ValueError):
        rep.norm(np.zeros((5, act.n_points + 1, d)))
    with pytest.raises(ValueError):
        Decomposition(rep).mean(stack)


def test_operator_coo_export():
    _act, _rep, op = _z4_setup()
    coo = op.to_coo()
    total = sum(v for _, _, v in coo)
    assert total == pytest.approx(4.0)  # rows sum to 1 each
    dense = np.zeros((4, 4))
    for i, j, v in coo:
        dense[i, j] += v
    assert np.allclose(dense, op.dense())


def test_restricted_norm_z1024_closed_form_with_error_bound():
    act = build_cyclic(1024)
    est = restricted_norm(markov_operator(Representation(act), lazy_uniform(act)))
    closed = (1.0 + 2.0 * np.cos(2.0 * np.pi / 1024)) / 3.0
    assert est.quality == "exact" and est.converged
    assert abs(est.value - closed) <= 1e-12
    assert 0.0 <= est.upper - est.value <= 1e-12
    assert est.iterations > 0


@pytest.mark.parametrize("m", [4, 8])  # 16 points go dense, 64 go to Lanczos
@pytest.mark.parametrize("k", [1, 3, 7])
def test_iterate_defect_matches_dense_svd(m, k):
    act = build_sl2_quotient(m, variant="b")
    rep = Representation(act)
    # a non-self-adjoint measure: A* has the inverse generators
    mu = DiscreteMeasure({act.identity_element(): 0.5,
                          act.generator_element("e12"): 0.3,
                          act.generator_element("e21"): 0.2})
    op = markov_operator(rep, mu)
    assert not np.allclose(op.dense(), op.dense().T)
    sw = np.sqrt(act.weights)
    diff = np.linalg.matrix_power(op.dense(), k) - op.decomposition.mean_matrix()
    reference = np.linalg.norm(diff * (sw[:, None] / sw[None, :]), 2)
    assert abs(defect_curve(op, k)[k] - reference) <= 1e-12


def test_defect_curve_non_self_adjoint_matches_dense_svd_per_k(monkeypatch):
    act = build_sl2_quotient(8, variant="b")
    rep = Representation(act)
    mu = DiscreteMeasure({act.identity_element(): 0.5,
                          act.generator_element("e12"): 0.3,
                          act.generator_element("e21"): 0.2})
    op = markov_operator(rep, mu)
    solved = []
    gram_defect = rep_markov._gram_defect
    monkeypatch.setattr(rep_markov, "_gram_defect",
                        lambda op, k: solved.append(k) or gram_defect(op, k))
    curve = defect_curve(op, 7)
    assert solved == list(range(8))  # one solve per k: A is not self-adjoint
    sw = np.sqrt(act.weights)
    a, p = op.dense(), op.decomposition.mean_matrix()
    for k in range(8):
        diff = np.linalg.matrix_power(a, k) - p
        reference = np.linalg.norm(diff * (sw[:, None] / sw[None, :]), 2)
        assert abs(curve[k] - reference) <= 1e-12


def test_defect_curve_self_adjoint_agrees_with_per_k_solves():
    # the lazy walk on the m = 8 torus, which is also the warped level m = 8
    act = build_sl2_quotient(8, variant="b")
    op = markov_operator(Representation(act), lazy_uniform(act))
    assert (op.matrix != op.matrix.T).nnz == 0
    curve = defect_curve(op, 30)
    assert len(curve) == 31
    for k in range(31):
        per_k = rep_markov._gram_defect(op, k)
        assert abs(curve[k] - per_k) <= 1e-12 * per_k


@pytest.mark.parametrize("act", [build_cyclic(4), build_sl2_quotient(8, variant="b")],
                         ids=["z4", "torus-8"])
def test_defect_curve_lp_matches_per_k_sampling_bit_for_bit(act):
    op = markov_operator(Representation(act, p=1.5), lazy_uniform(act))
    seed, k_max = 5, 12
    curve = defect_curve(op, k_max, seed=seed)
    for k in range(k_max + 1):
        # the per-k reference: the same seeded fields drawn afresh, A^k applied anew
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(16):
            f = rng.standard_normal((act.n_points, 1))
            residual = op.apply_power(f, k) - op.decomposition.mean(f)
            worst = max(worst, op.rep.norm(residual) / op.rep.norm(f))
        assert curve[k] == worst


def _small_spectra():
    from gaplab.expanders import poincare_scalar
    from gaplab.group_core import CayleyGraph

    out = []
    for act in (build_cyclic(2), build_cyclic(3), build_cyclic(4),
                build_sl2_quotient(3, variant="a")):
        op = markov_operator(Representation(act), lazy_uniform(act))
        out.append((restricted_norm(op).value, poincare_scalar(CayleyGraph(act)).lambda2))
    return out


def test_small_spectra_replay_bit_identical():
    before = _small_spectra()
    big = build_sl2_quotient(16, variant="b")
    restricted_norm(markov_operator(Representation(big), lazy_uniform(big)))
    assert _small_spectra() == before


def _whole_group_uniform(act):
    g = act.generator_element("g")
    elements = [act.identity_element()]
    for _ in range(act.n_points - 1):
        elements.append(elements[-1].compose(g))
    return uniform_on(elements)


@pytest.mark.parametrize("build", [
    lambda: (build_cyclic(3), lazy_uniform),  # dense: the lazy walk on Z/3 is P
    lambda: (build_cyclic(64), _whole_group_uniform),  # Lanczos: A = P as well
], ids=["z3-lazy-dense", "z64-uniform-lanczos"])
def test_spectral_values_at_rounding_level_when_a_is_projection(build):
    act, measure = build()
    op = markov_operator(Representation(act), measure(act))
    assert np.allclose(op.dense(), op.decomposition.mean_matrix(), atol=1e-15)
    # sqrt of the kernel eigenvalue can be off by about 1e-8 here (1.1e-8 on Z/3)
    assert restricted_norm(op).value <= 1e-14
    assert np.all(defect_curve(op, 20)[1:] <= 1e-14)
