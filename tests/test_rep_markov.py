import os
import subprocess
import sys
from pathlib import Path

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
    return f[el.inverse().perm]


def _z4_setup(p=2.0):
    act = build_cyclic(4)
    rep = Representation(act, p=p)
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
        rep = Representation(act, p=p)
        f = rng.standard_normal(act.n_points)
        for lab in act.gens.labels:
            g = act.generator_element(lab)
            assert rep.norm(_translate(g, f)) == pytest.approx(
                rep.norm(f), abs=1e-12
            )


def test_markov_contraction_on_random_fields():
    _act, rep, op = _z4_setup(p=1.5)
    rng = np.random.default_rng(11)
    for _ in range(20):
        f = rng.standard_normal(4)
        assert rep.norm(op.apply(f)) <= rep.norm(f) + 1e-12


def test_mean_preservation():
    act = build_sl2_quotient(4, variant="b")
    rep = Representation(act)
    mu = uniform_on([act.identity_element()] + [act.generator_element(l) for l in act.gens.labels])
    op = markov_operator(rep, mu)
    dec = op.decomposition
    rng = np.random.default_rng(5)
    f = rng.standard_normal(act.n_points)
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


def _neumann_series_reference(op):
    """I - sum_{n<N} A^n (I - A) summed term by term, N the first n with a small term."""
    a = op.dense()
    term = np.eye(op.n_points) - a
    series = np.zeros_like(a)
    while True:
        series += term
        term = a @ term
        if np.linalg.norm(term, "fro") < rep_markov.NEUMANN_TERM_TOL:
            return np.eye(op.n_points) - series


@pytest.mark.parametrize("build", [
    lambda: build_cyclic(4),
    lambda: build_sl2_quotient(5, variant="a"),
])
def test_neumann_squaring_matches_term_by_term_series(build):
    act = build()
    op = markov_operator(Representation(act), lazy_uniform(act))
    p = neumann_projection(op)
    assert np.max(np.abs(p - _neumann_series_reference(op))) <= 1e-13
    # the Neumann term at the returned power is below the stopping tolerance
    residual = p - p @ op.dense()
    assert np.linalg.norm(residual, "fro") < rep_markov.NEUMANN_TERM_TOL


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
    f = rng.standard_normal(act.n_points)
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
    assert report.ok, report


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
        assert report.ok, report


def test_csr_apply_matches_atom_gathers():
    # reference: the per-atom sums A f = sum mu(g) f(g^-1 .), A* f = sum mu(g) f(g .)
    rng = np.random.default_rng(5)
    act = _random_action(rng)
    ball = word_ball(act, 2)
    idx = rng.choice(len(ball), size=5, replace=False)
    w = rng.random(5) + 0.1
    mu = DiscreteMeasure({ball[i]: float(x) for i, x in zip(idx, w / w.sum())})
    op = markov_operator(Representation(act), mu)
    f = rng.standard_normal(act.n_points)
    gather = sum(x * f[el.inverse().perm] for el, x in mu.items())
    scatter = sum(x * f[el.perm] for el, x in mu.items())
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
    f = rng.standard_normal(act.n_points)
    m = dec.mean(f)
    # invariant under every generator
    for lab in act.gens.labels:
        assert np.allclose(_translate(act.generator_element(lab), m), m)
    # idempotent
    assert np.allclose(dec.mean(m), m, atol=1e-14)
    mu = uniform_on([act.identity_element()] + [act.generator_element(l) for l in act.gens.labels])
    op = markov_operator(rep, mu)
    assert restricted_norm(op).value < 1.0 - 1e-6
    pn = neumann_projection(op)
    assert np.max(np.abs(pn - dec.mean_matrix())) <= 1e-10


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("k", [1, 2])  # fields in the stack: one still gives an array
def test_stacked_norm_matches_per_field(p, k):
    act = build_sl2_quotient(4, "b")
    rep = Representation(act, p=p)
    stack = np.random.default_rng(3).standard_normal((k, act.n_points))
    norms = rep.norm(stack)
    assert isinstance(norms, np.ndarray) and norms.shape == (k,)
    per_field = np.array([rep.norm(f) for f in stack])
    assert np.array_equal(norms, per_field)  # bit for bit, as the docstring says
    single = rep.norm(stack[0])
    assert type(single) is float
    assert single == norms[0]
    with pytest.raises(ValueError):
        rep.norm(np.zeros((k, act.n_points, 1)))
    with pytest.raises(ValueError):
        rep.norm(np.zeros((k, act.n_points + 1)))
    with pytest.raises(ValueError):
        Decomposition(rep).mean(stack)


def test_column_fields_are_refused():
    # fields are (n_points,) arrays; an (n_points, 1) column is not one
    _act, rep, op = _z4_setup()
    column = np.ones((4, 1))
    with pytest.raises(ValueError, match=r"shape \(4, 1\) does not match"):
        rep.norm(column)
    with pytest.raises(ValueError, match=r"shape \(4, 1\) does not match"):
        op.decomposition.mean(column)
    with pytest.raises(ValueError, match=r"shape \(4, 1\) does not match"):
        op.apply(column)


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


def _dense_defect(op, k):
    """|A^k - P| in the weighted 2-norm, from the dense matrices."""
    sw = np.sqrt(op.rep.action.weights)
    diff = np.linalg.matrix_power(op.dense(), k) - op.decomposition.mean_matrix()
    return np.linalg.norm(diff * (sw[:, None] / sw[None, :]), 2)


def _sampled_defects(op, k_max, seed):
    """The p != 2 curve, each k from the same seeded fields drawn afresh with
    A^k applied anew."""
    curve = []
    for k in range(k_max + 1):
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(16):
            f = rng.standard_normal(op.n_points)
            residual = op.apply_power(f, k) - op.decomposition.mean(f)
            worst = max(worst, op.rep.norm(residual) / op.rep.norm(f))
        curve.append(worst)
    return curve


@pytest.mark.parametrize("m", [4, 8])  # 16 points go dense, 64 go to Lanczos
@pytest.mark.parametrize("k", [1, 3, 7])
def test_iterate_defect_matches_dense_svd(m, k):
    act = build_sl2_quotient(m, variant="b")
    op = markov_operator(Representation(act), lazy_uniform(act))
    assert op.self_adjoint
    assert abs(defect_curve(op, k)[k] - _dense_defect(op, k)) <= 1e-12


def test_defect_curve_refuses_non_self_adjoint_at_p2():
    act = build_sl2_quotient(8, variant="b")
    # a one-sided measure: A* has the inverse generators
    mu = DiscreteMeasure({act.identity_element(): 0.5,
                          act.generator_element("e12"): 0.3,
                          act.generator_element("e21"): 0.2})
    op = markov_operator(Representation(act), mu)
    assert not op.self_adjoint
    with pytest.raises(ValueError, match="self-adjoint"):
        defect_curve(op, 7)
    # the sampled curve of p != 2 needs no adjoint
    op = markov_operator(Representation(act, p=1.5), mu)
    assert defect_curve(op, 7, seed=5).tolist() == _sampled_defects(op, 7, seed=5)


def test_defect_curve_self_adjoint_agrees_with_per_k_solves():
    # the lazy walk on the m = 8 torus, which is also the warped level m = 8
    act = build_sl2_quotient(8, variant="b")
    op = markov_operator(Representation(act), lazy_uniform(act))
    assert op.self_adjoint and np.array_equal(op.dense(), op.dense().T)
    curve = defect_curve(op, 30)
    assert len(curve) == 31
    for k in range(31):
        per_k = _dense_defect(op, k)
        assert abs(curve[k] - per_k) <= 1e-12 * per_k


@pytest.mark.parametrize("act", [build_cyclic(4), build_sl2_quotient(8, variant="b")],
                         ids=["z4", "torus-8"])
def test_defect_curve_lp_matches_per_k_sampling_bit_for_bit(act):
    op = markov_operator(Representation(act, p=1.5), lazy_uniform(act))
    assert defect_curve(op, 12, seed=5).tolist() == _sampled_defects(op, 12, seed=5)


def _small_spectra():
    from gaplab.expanders import poincare_scalar
    from gaplab.group_core import CayleyGraph

    out = []
    for act in (build_cyclic(2), build_cyclic(3), build_cyclic(4),
                build_sl2_quotient(3, variant="a")):
        op = markov_operator(Representation(act), lazy_uniform(act))
        out.append((restricted_norm(op).value, poincare_scalar(CayleyGraph(act)).lambda2))
    return out


def _dense_shifted(op):
    """S - 2P of the kernel, densely, with S = (A + A*) / 2 and uniform weights."""
    a = op.dense()
    m = (a + a.T) / 2.0 - 2.0 * op.decomposition.mean_matrix()
    return (m + m.T) / 2.0


def test_kernel_top_three_match_dense_eigh_on_torus():
    act = build_sl2_quotient(8, "b")  # 64 points, 4 orbits: the Lanczos branch
    assert act.n_points > rep_markov.DENSE_EIG_SIZE
    op = markov_operator(Representation(act), lazy_uniform(act))
    top = rep_markov._symmetrized_top(op, k=3)
    m = _dense_shifted(op)
    want = np.linalg.eigvalsh(m)[::-1][:3]
    assert np.max(np.abs(top.values - want)) <= 1e-12
    x = top.vectors * np.sqrt(act.weights)  # unit coordinate vectors
    for theta, xi in zip(top.values, x):
        assert np.linalg.norm(m @ xi - theta * xi) <= 1e-10
    assert np.max(np.abs(x @ x.T - np.eye(3))) <= 1e-10
    assert top.value == top.values[0]
    assert np.array_equal(top.vector, top.vectors[0])


def test_kernel_top_three_are_eigenvalues_but_may_skip_copies():
    # Lanczos from one start vector may return a multiple eigenvalue once (the
    # pair at (1 + sqrt 5) / 4 of this operator did); every value it returns
    # is still an eigenvalue, and the first is the top one
    act = build_sl2_quotient(8, "b")
    op = markov_operator(Representation(act),
                         uniform_on([act.generator_element(lab) for lab in act.gens.labels]))
    top = rep_markov._symmetrized_top(op, k=3)
    dense = np.linalg.eigvalsh(_dense_shifted(op))
    assert abs(top.values[0] - dense[-1]) <= 1e-12
    assert np.all(np.diff(top.values) <= 0)
    for theta in top.values:
        assert np.min(np.abs(dense - theta)) <= 1e-12


def _symmetrized_reference(op, k):
    return rep_markov._top_eigenpair(lambda f: (op.apply(f) + op.apply_transpose(f)) / 2.0,
                                     op.decomposition, k)


@pytest.mark.parametrize("build", [lambda: build_cyclic(512),
                                   lambda: build_sl2_quotient(32, "b")],
                         ids=["Z/512", "torus-32"])
def test_symmetrized_top_applies_a_self_adjoint_operator_alone(build, monkeypatch):
    act = build()
    op = markov_operator(Representation(act), lazy_uniform(act))
    assert op.self_adjoint
    want = _symmetrized_reference(op, 3)

    def refuse(values):
        raise AssertionError("applied the transpose of a self-adjoint operator")

    monkeypatch.setattr(op, "apply_transpose", refuse)
    top = rep_markov._symmetrized_top(op, k=3)
    assert np.array_equal(top.values, want.values)
    assert np.array_equal(top.vectors, want.vectors)
    assert top.applications == want.applications


def test_symmetrized_top_still_symmetrizes_an_asymmetric_operator(monkeypatch):
    act = build_cyclic(3)
    op = markov_operator(Representation(act), uniform_on([act.generator_element("g")]))
    assert not op.self_adjoint
    want = _symmetrized_reference(op, 1)
    calls = []
    transpose = op.apply_transpose
    monkeypatch.setattr(op, "apply_transpose", lambda f: calls.append(1) or transpose(f))
    top = rep_markov._symmetrized_top(op)
    assert calls
    assert np.array_equal(top.values, want.values)
    assert abs(top.value + 0.5) <= 1e-12  # cos(2 pi / 3), not an eigenvalue of the shift


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


def _lp_ascent_reference(op, f0):
    """The ascent loop as first written: A f, |A f|_p and |f|_p recomputed at
    every step.  Returns the ratio and the number of accepted steps."""
    dec, rep = op.decomposition, op.rep

    def norm_and_grad(g):
        nrm = rep.norm(g)
        if nrm == 0.0:
            return 0.0, np.zeros_like(g)
        return nrm, rep_markov._lp_grad(rep, g, nrm)

    f = dec.complement(f0)
    f /= rep.norm(f)
    ratio, step, accepted = 0.0, 1.0, 0
    for _ in range(rep_markov.LP_ASCENT_MAX_ITER):
        af = op.apply(f)
        naf, gaf = norm_and_grad(af)
        nf, gf = norm_and_grad(f)
        ratio = naf / nf
        if naf == 0.0:
            break
        grad = dec.complement(op.apply_transpose(gaf) / naf - gf / nf)
        if float(np.max(np.abs(grad))) < 1e-13:
            break
        improved = False
        while step > 1e-12:
            cand = dec.complement(f + step * grad)
            ncand = rep.norm(cand)
            if ncand > 0:
                cand = cand / ncand
                r_cand = rep.norm(op.apply(cand)) / rep.norm(cand)
                if r_cand > ratio + 1e-15:
                    f, ratio, improved, accepted = cand, r_cand, True, accepted + 1
                    step *= 1.5
                    break
            step *= 0.5
        if not improved:
            break
    return float(ratio), accepted


@pytest.mark.parametrize("p", [1.5, 3.0])
@pytest.mark.parametrize("build", [lambda: build_cyclic(4),
                                   lambda: build_sl2_quotient(5, variant="a")],
                         ids=["z4", "sl2-5"])
def test_lp_ascent_reuses_the_accepted_candidate_bit_for_bit(build, p):
    # unequal weights: on Z/4 the lazy walk's ratio is flat, and no step is taken
    act = build()
    labels = act.gens.labels
    atoms = {act.identity_element(): 0.4}
    for k, lab in enumerate(labels):
        atoms[act.generator_element(lab)] = 0.6 * (k + 1) / (len(labels) * (len(labels) + 1) / 2)
    op = markov_operator(Representation(act, p=p), DiscreteMeasure(atoms))
    f0 = np.random.default_rng(11).standard_normal(act.n_points)
    ratio, accepted = _lp_ascent_reference(op, f0)
    assert accepted >= 2  # the carried-over values are used at least once
    assert rep_markov._lp_ascent(op, f0) == ratio


def _csr_reference(op):
    """The CSR matrix the operator was once stored as (scipy as a reference
    only): row x holds mu(g) at column g^-1 x, repeats summed."""
    from scipy.sparse import csr_matrix

    atoms = list(op.measure.items())
    cols = np.stack([el.inverse().perm for el, _ in atoms], axis=1)
    vals = np.tile([float(w) for _, w in atoms], op.n_points)
    indptr = np.arange(0, cols.size + 1, len(atoms))
    matrix = csr_matrix((vals, cols.ravel(), indptr), shape=(op.n_points,) * 2)
    matrix.sum_duplicates()
    return matrix


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fixed_degree_operator_equals_the_csr_matrix(seed):
    # the torus origin is fixed by every element, so all five atoms of the
    # lazy measure land on one column of row 0; skewed weights make the sum
    # depend on its order
    rng = np.random.default_rng(seed)
    act = build_sl2_quotient(6, "b")
    support = lazy_uniform(act).support
    weights = rng.random(len(support)) + 0.1
    mu = DiscreteMeasure({el: float(w) for el, w in zip(support, weights / weights.sum())})
    op = markov_operator(Representation(act), mu)
    reference = _csr_reference(op)
    rows, cols, vals = op.matrix.entries()
    assert len(vals) < len(support) * act.n_points  # some atoms were merged
    assert np.array_equal(op.dense(), reference.toarray())
    assert np.array_equal(op.transposed.toarray(), reference.T.toarray())
    coo = reference.tocoo()
    assert op.to_coo() == sorted(zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist()))
    f = rng.standard_normal(act.n_points)
    assert np.array_equal(op.apply(f), reference @ f)
    assert np.array_equal(op.apply_transpose(f), reference.T.tocsr() @ f)
    rows_in = rng.standard_normal((3, act.n_points))
    assert np.array_equal(op.transposed.apply_rows(rows_in), rows_in @ reference)
    assert op.self_adjoint == ((reference != reference.T).nnz == 0)


def _spectrum_case(rng, n, top):
    """A seeded symmetric n x n matrix whose largest eigenvalues are ``top``
    and whose others lie in [-1, 0.5)."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    spectrum = np.concatenate([top, rng.uniform(-1.0, 0.5, n - len(top))])
    return (q * spectrum) @ q.T, np.sort(spectrum)


TOP_SPECTRA = {
    "simple": [1.0, 0.9, 0.8],
    "clustered": [1.0, 1.0 - 1e-3, 1.0 - 2e-3, 1.0 - 3e-3],
    "repeated": [1.0, 1.0, 1.0, 0.9, 0.9],
}


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("kind", TOP_SPECTRA)
@pytest.mark.parametrize("n", [33, 64, 200, 500])
def test_lanczos_top_agrees_with_dense_eigh(n, kind, k):
    rng = np.random.default_rng(1000 * n + k)
    a, spectrum = _spectrum_case(rng, n, TOP_SPECTRA[kind])
    values, vectors, residuals = rep_markov._euclidean_top(lambda x: a @ x, n, k)
    assert n > rep_markov.DENSE_EIG_SIZE and len(values) == k
    assert abs(values[0] - spectrum[-1]) <= 1e-12
    assert np.all(np.diff(values) <= 1e-12)
    for theta in values:  # an eigenvalue, though a copy of a multiple one may be skipped
        assert np.min(np.abs(spectrum - theta)) <= 1e-12
    if kind != "repeated":  # distinct values: exactly the top k
        assert np.max(np.abs(values - spectrum[::-1][:k])) <= 1e-12
    assert np.max(residuals) <= 1e-12
    assert np.max(np.abs(vectors.T @ vectors - np.eye(k))) <= 1e-12
    for theta, x, r in zip(values, vectors.T, residuals):
        assert abs(np.linalg.norm(a @ x - theta * x) - r) <= 1e-14


def test_lanczos_cap_raises_invariant_failure(monkeypatch):
    monkeypatch.setattr(rep_markov, "LANCZOS_APPLICATIONS_PER_COORDINATE", 0.1)
    a, _spectrum = _spectrum_case(np.random.default_rng(3), 100, TOP_SPECTRA["clustered"])
    with pytest.raises(rep_markov.InvariantFailure) as info:
        rep_markov._euclidean_top(lambda x: a @ x, 100, 1)
    assert info.value.name == "eigensolve-not-converged"


def _recorded_basis_product(c, span, monkeypatch):
    """``_basis_product(c, span)`` and (multiply-adds, columns) of each block."""
    blocks = []
    matmul = np.matmul

    def recording(a, b, **kwargs):
        blocks.append((a.size * b.shape[1], b.shape[1]))
        return matmul(a, b, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(np, "matmul", recording)
        got = rep_markov._basis_product(c, span)
    assert len(blocks) > 1 and sum(cols for _, cols in blocks) == span.shape[1]
    assert max(madds for madds, _ in blocks) <= rep_markov.BLAS_ONE_THREAD_MADDS == 2 ** 18
    return got, blocks


# (c shape, columns): a restart's 16 Ritz combinations at 4,800 coordinates,
# one row and one vector at 51,000 and 30,000, and 7 rows in six blocks of
# 1,536 columns and one of 784
@pytest.mark.parametrize("shape", [((16, 24), 4800), ((1, 24), 51000), ((24,), 30000),
                                   ((7, 24), 10000)],
                         ids=["restart", "one-row", "vector", "uneven"])
def test_basis_product_matches_one_call_in_small_blocks(shape, monkeypatch):
    c_shape, size = shape
    rng = np.random.default_rng(size)
    c = rng.standard_normal(c_shape)
    span = rng.standard_normal((c_shape[-1], size))
    got, _blocks = _recorded_basis_product(c, span, monkeypatch)
    assert np.array_equal(got, c @ span)


def test_basis_product_past_the_last_multiple_of_8_columns(monkeypatch):
    # a one-call product above 10^6 multiply-adds computes its ragged last
    # columns by another OpenBLAS kernel than the blocks do, so only those may
    # differ, and only in the last bits
    rng = np.random.default_rng(5)
    c = rng.standard_normal((7, 24))
    span = rng.standard_normal((24, 10001))
    got, _blocks = _recorded_basis_product(c, span, monkeypatch)
    want = c @ span
    assert np.array_equal(got[:, :10000], want[:, :10000])
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(c) @ np.abs(span))


def _numpy_blas_is_openblas() -> bool:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "openblas" in str(blas.get("name", "")).lower()


POOL_PROBE = """
import json, os, sys, time
from pathlib import Path
from gaplab import cli, warped_cone as wc

def pool_cpu():
    ticks = 0  # utime + stime of every thread but the main one
    for task in os.listdir("/proc/self/task"):
        if int(task) != os.getpid():
            with open(f"/proc/self/task/{task}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
            ticks += int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")

out = Path(sys.argv[1])
config = out / "config.json"
config.write_text(json.dumps({"kind": "expander",
                              "fixture": {"family": "sl2", "moduli": [17, 31]}}))
level = wc.build_warped_level(64)
time.sleep(0.3)
before = pool_cpu()
code = cli.main(["run", str(config), "--out-dir", str(out / "out")])
wc.ball_measure_profile(level, 3.0)
time.sleep(0.3)
print(code, pool_cpu() - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux") or len(os.sched_getaffinity(0)) < 2
                    or not _numpy_blas_is_openblas(),
                    reason="reads Linux per-thread CPU times of a 2-thread OpenBLAS pool")
def test_kernel_and_ball_profile_leave_the_blas_pool_asleep(tmp_path):
    # a woken OpenBLAS pool thread spins for about 0.13 s of CPU; the Lanczos
    # products of the SL2(Z/17) and SL2(Z/31) expander blocks and the m = 64
    # ball measures all stay below its one-thread size
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="2")
    out = subprocess.run([sys.executable, "-c", POOL_PROBE, str(tmp_path)], env=env,
                         check=True, stdout=subprocess.PIPE, text=True, timeout=120).stdout
    code, pool_s = out.split()[-2:]
    assert int(code) == 0
    assert float(pool_s) < 0.03
