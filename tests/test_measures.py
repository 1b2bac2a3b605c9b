import numpy as np
import pytest

from gaplab import measures
from gaplab.group_core import GroupElement, build_cyclic, build_sl2_quotient, word_ball
from gaplab.measures import (
    AdmissibilityCertificate,
    NotAdmissibleError,
    certify_admissible,
    convolve,
    dirac,
    lazy_uniform,
    power,
    translate,
    uniform_extended,
    uniform_on,
)


@pytest.fixture
def z2():
    return build_cyclic(2)


@pytest.fixture
def z4():
    return build_cyclic(4)


def test_measure_validation(z4):
    e = z4.identity_element()
    g = z4.generator_element("g")
    with pytest.raises(ValueError):
        uniform_on([])
    with pytest.raises(ValueError):
        from gaplab.measures import DiscreteMeasure

        DiscreteMeasure({e: 0.7, g: 0.2})  # does not sum to 1


def test_uniform_extended_z2(z2):
    e = z2.identity_element()
    g = z2.generator_element("g")
    mu, cert = uniform_extended([g], e)
    assert len(mu) == 2
    assert mu.weight(e) == pytest.approx(0.5)
    assert mu.weight(g) == pytest.approx(0.5)
    assert cert.M == pytest.approx(2.0)
    cert.verify(mu)


def test_uniform_extended_z4(z4):
    e = z4.identity_element()
    q = [z4.generator_element("g"), z4.generator_element("g^-1")]
    mu, cert = uniform_extended(q, e)
    assert len(mu) == 3
    assert cert.M == pytest.approx(3.0)
    assert cert.M <= len(q) + 1
    cert.verify(mu)


def test_uniform_extended_rejections(z4):
    e = z4.identity_element()
    g = z4.generator_element("g")
    with pytest.raises(ValueError):
        uniform_extended([], g)  # empty Kazhdan set
    with pytest.raises(ValueError):
        uniform_extended([g], g)  # g inside Q
    with pytest.raises(ValueError):
        uniform_extended([e, g], z4.generator_element("g^-1"))  # identity in Q


def test_certify_uniform_extended_optimum_at_most_cert(z4):
    e = z4.identity_element()
    q = [z4.generator_element("g"), z4.generator_element("g^-1")]
    mu, cert = uniform_extended(q, e)
    opt = certify_admissible(mu, q)
    assert opt.M <= cert.M + 1e-9
    opt.verify(mu, tol=1e-7)


def test_certify_refuses_dirac_with_moved_support(z4):
    e = z4.identity_element()
    g = z4.generator_element("g")
    with pytest.raises(NotAdmissibleError) as exc:
        certify_admissible(dirac(e), [g])
    assert "escaping" in exc.value.witness


def _grid_oracle_m(rho, q_set, steps=60, rounds=5):
    """Brute-force the optimal normalizing factor on a 3-point support.

    For fixed alpha on the support simplex the minimal feasible M is
    max_i (alpha_i + max_s alpha(s^-1 x_i)) / rho_i; zoom a simplex grid.
    """
    support = rho.support
    index = {el: i for i, el in enumerate(support)}
    w = np.array([rho.atoms[el] for el in support])
    trans = []  # trans[i] = list of j with x_i = s x_j
    for i, el in enumerate(support):
        js = []
        for s in q_set:
            for j, other in enumerate(support):
                if s.compose(other) == el:
                    js.append(j)
        trans.append(js)
    escapes = [
        j
        for j, el in enumerate(support)
        if any(s.compose(el) not in index for s in q_set)
    ]

    def min_m(alpha):
        if any(alpha[j] > 1e-15 for j in escapes):
            return np.inf
        m = 0.0
        for i in range(len(support)):
            need = alpha[i] + (max((alpha[j] for j in trans[i]), default=0.0))
            m = max(m, need / w[i])
        return m

    center = np.full(3, 1.0 / 3)
    width = 1.0
    best = np.inf
    for _ in range(rounds):
        a0 = np.linspace(max(0, center[0] - width), min(1, center[0] + width), steps)
        a1 = np.linspace(max(0, center[1] - width), min(1, center[1] + width), steps)
        for x in a0:
            for y in a1:
                z = 1.0 - x - y
                if z < -1e-12:
                    continue
                alpha = np.array([x, y, max(z, 0.0)])
                m = min_m(alpha)
                if m < best:
                    best = m
                    center = alpha
        width /= steps / 4.0
    return best


def test_certify_matches_grid_oracle_on_three_point_support(z4):
    e = z4.identity_element()
    q = [z4.generator_element("g"), z4.generator_element("g^-1")]
    mu = uniform_on([e, q[0], q[1]])
    opt = certify_admissible(mu, q)
    oracle = _grid_oracle_m(mu, q)
    assert opt.M == pytest.approx(oracle, abs=1e-6)


def test_certify_monotone_in_q(z4):
    e = z4.identity_element()
    g = z4.generator_element("g")
    gi = z4.generator_element("g^-1")
    mu = uniform_on([e, g, gi])
    cert_full = certify_admissible(mu, [g, gi])
    cert_sub = certify_admissible(mu, [g])  # smaller Q stays admissible
    cert_sub.verify(mu, tol=1e-7)
    assert cert_sub.M <= cert_full.M + 1e-9


def test_convolution_identity_and_translation(z4):
    e = z4.identity_element()
    g = z4.generator_element("g")
    mu = uniform_on([e, g])
    assert convolve(dirac(e), mu).atoms == mu.atoms
    shifted = convolve(mu, dirac(g))
    assert shifted.weight(g) == pytest.approx(0.5)
    assert shifted.weight(g.compose(g)) == pytest.approx(0.5)


def test_convolution_z2_hand_expansion(z2):
    e = z2.identity_element()
    g = z2.generator_element("g")
    mu = uniform_on([e, g])
    sq = convolve(mu, mu)
    # (e+g)/2 * (e+g)/2 = (e + 2g + g^2)/4 = e/2 + g/2 in Z/2
    assert sq.weight(e) == pytest.approx(0.5)
    assert sq.weight(g) == pytest.approx(0.5)


def test_power_z4_nine_term_expansion(z4):
    e = z4.identity_element()
    g = z4.generator_element("g")
    gi = z4.generator_element("g^-1")
    mu = uniform_on([e, g, gi])
    sq = power(mu, 2)
    assert sq.weight(e) == pytest.approx(1.0 / 3)
    assert sq.weight(g) == pytest.approx(2.0 / 9)
    assert sq.weight(gi) == pytest.approx(2.0 / 9)
    assert sq.weight(g.compose(g)) == pytest.approx(2.0 / 9)


def test_power_trivial_cases(z4):
    g = z4.generator_element("g")
    mu = uniform_on([z4.identity_element(), g])
    p0 = power(mu, 0)
    assert len(p0) == 1 and next(iter(p0.atoms)).is_identity()
    assert power(mu, 1).atoms == mu.atoms
    with pytest.raises(ValueError):
        power(mu, -1)


def test_power_additivity_and_associativity_random():
    act = build_sl2_quotient(3, variant="b")
    ball = word_ball(act, 2)
    rng = np.random.default_rng(7)
    for _ in range(10):
        picks = rng.choice(len(ball), size=3, replace=False)
        raw = rng.random(3) + 0.1
        raw /= raw.sum()
        from gaplab.measures import DiscreteMeasure

        mu = DiscreteMeasure({ball[i]: w for i, w in zip(picks, raw)})
        picks2 = rng.choice(len(ball), size=2, replace=False)
        raw2 = rng.random(2) + 0.1
        raw2 /= raw2.sum()
        nu = DiscreteMeasure({ball[i]: w for i, w in zip(picks2, raw2)})
        om = uniform_on([ball[int(p)] for p in rng.choice(len(ball), size=2, replace=False)])
        lhs = convolve(convolve(mu, nu), om)
        rhs = convolve(mu, convolve(nu, om))
        keys = set(lhs.atoms) | set(rhs.atoms)
        assert max(abs(lhs.weight(k) - rhs.weight(k)) for k in keys) < 1e-12
        jk = convolve(power(mu, 2), power(mu, 3))
        direct = power(mu, 5)
        keys = set(jk.atoms) | set(direct.atoms)
        assert max(abs(jk.weight(k) - direct.weight(k)) for k in keys) < 1e-12


def test_translate_and_reflect(z4):
    e = z4.identity_element()
    g = z4.generator_element("g")
    mu = uniform_on([e, g])
    tg = translate(g, mu)
    assert tg.weight(g) == pytest.approx(0.5)
    assert tg.weight(g.compose(g)) == pytest.approx(0.5)


def test_mixed_realizations_rejected(z2, z4):
    mu2 = uniform_on([z2.identity_element(), z2.generator_element("g")])
    mu4 = uniform_on([z4.identity_element(), z4.generator_element("g")])
    with pytest.raises(ValueError):
        convolve(mu2, mu4)


def test_certificate_reverification_catches_tampering(z4):
    e = z4.identity_element()
    q = [z4.generator_element("g"), z4.generator_element("g^-1")]
    mu, cert = uniform_extended(q, e)
    bad = AdmissibilityCertificate(
        alpha=dict(cert.alpha),
        beta={k: v * 0.5 for k, v in cert.beta.items()},
        kazhdan_set=cert.kazhdan_set,
        M=cert.M,
    )
    with pytest.raises(ValueError):
        bad.verify(mu)


def test_certificate_is_pinned():
    act = build_cyclic(7)
    q = [act.generator_element(lab) for lab in act.gens.labels]
    cert = certify_admissible(power(lazy_uniform(act), 2), q)
    assert (cert.M, cert.M_lower, cert.optimal) == (3.0, 3.0, True)
    assert {el.key(): w for el, w in cert.alpha.items()} == {
        "0,1,2,3,4,5,6": 0.3333333333333333,
        "1,2,3,4,5,6,0": 0.3333333333333333,
        "6,0,1,2,3,4,5": 0.3333333333333333}
    assert {el.key(): w for el, w in cert.beta.items()} == {
        "0,1,2,3,4,5,6": 0.6666666666666667,
        "1,2,3,4,5,6,0": 0.3333333333333333,
        "2,3,4,5,6,0,1": 0.3333333333333333,
        "5,6,0,1,2,3,4": 0.3333333333333333,
        "6,0,1,2,3,4,5": 0.3333333333333333}
    assert sorted(el.key() for el in cert.kazhdan_set) == ["1,2,3,4,5,6,0", "6,0,1,2,3,4,5"]


def test_support_is_sorted_once(monkeypatch):
    mu = power(lazy_uniform(build_cyclic(9)), 2)
    first, first_items = mu.support, mu.items()
    calls = []
    real = GroupElement.sort_key
    monkeypatch.setattr(GroupElement, "sort_key",
                        lambda el: calls.append(el) or real(el))
    assert mu.support == first and mu.items() == first_items
    assert calls == []
    assert first == sorted(mu.atoms, key=real)


# -- the admissibility LP ------------------------------------------------------


def _cyclic_elements(n):
    act = build_cyclic(n)
    els = [act.identity_element()]
    for _ in range(n - 1):
        els.append(act.generator_element("g").compose(els[-1]))
    return els


def _certify_recording(monkeypatch, rho, q):
    """certify_admissible, also returning the packing LP (a, b) it solved."""
    seen = []
    real = measures._packing_simplex

    def recording(a, b):
        seen.append((a.copy(), b.copy()))
        return real(a, b)

    monkeypatch.setattr(measures, "_packing_simplex", recording)
    cert = certify_admissible(rho, q)
    monkeypatch.setattr(measures, "_packing_simplex", real)
    assert len(seen) == 1
    assert cert.M_lower <= cert.M
    return cert, seen[0]


def _highs_max(a, b):
    from scipy.optimize import linprog  # reference only; gaplab never imports it

    res = linprog(-np.ones(a.shape[1]), A_ub=a, b_ub=b, bounds=(0.0, None),
                  method="highs")
    assert res.status == 0
    return -res.fun


def test_packing_simplex_matches_highs_on_random_lps(monkeypatch):
    rng = np.random.default_rng(20)
    solved = 0
    while solved < 20:
        n = int(rng.integers(2, 41))
        els = _cyclic_elements(n)
        picked = rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False)
        w = rng.random(len(picked)) + 0.05
        rho = measures.DiscreteMeasure(
            {els[i]: wi for i, wi in zip(picked, w / w.sum())})
        q = [els[i] for i in rng.choice(n, size=int(rng.integers(1, min(n, 4) + 1)),
                                        replace=False)]
        try:
            cert, (a, b) = _certify_recording(monkeypatch, rho, q)
        except NotAdmissibleError:
            continue
        y, z = measures._packing_simplex(a, b)
        best = _highs_max(a, b)
        assert np.all(a @ y <= b + 1e-15) and np.all(y >= 0.0)
        assert y.sum() == pytest.approx(best, rel=1e-12)
        assert cert.M == pytest.approx(1.0 / best, rel=1e-12)
        assert cert.optimal and cert.M - cert.M_lower <= measures.OPT_GAP * cert.M
        solved += 1


def test_certify_degenerate_uniform_cycle(monkeypatch):
    # every ratio test ties on the 8-cycle: y_j + y_{j+-1} <= 1/8
    els = _cyclic_elements(8)
    cert, (a, b) = _certify_recording(monkeypatch, uniform_on(els), [els[1], els[7]])
    assert cert.M == 2.0 and cert.M_lower == 2.0 and cert.optimal
    assert 1.0 / _highs_max(a, b) == pytest.approx(2.0, rel=1e-12)


def test_certify_identity_in_q_doubles_its_row(monkeypatch):
    # rho uniform on {0, 1} in Z/4, Q = {e, g}: alpha sits on 0 alone, and
    # beta(0) >= alpha(0) for s = e gives 2 y_0 <= 1/2, so M = 4 (not 2)
    els = _cyclic_elements(4)
    cert, (a, b) = _certify_recording(monkeypatch, uniform_on(els[:2]), [els[0], els[1]])
    assert 2.0 in a
    assert cert.M == 4.0 and cert.M_lower == 4.0 and cert.optimal
    assert cert.alpha == {els[0]: 1.0}


def test_certify_flags_a_suboptimal_primal_point(monkeypatch):
    els = _cyclic_elements(8)
    rho, q = uniform_on(els), [els[1], els[7]]
    real = measures._packing_simplex

    def scaled(a, b):  # the whole point halved: alpha is normalized, M stays
        y, z = real(a, b)
        return y / 2, z

    def dented(a, b):  # one coordinate halved: a feasible, suboptimal vertex
        y, z = real(a, b)
        y = y.copy()
        y[np.argmax(y)] /= 2
        return y, z

    monkeypatch.setattr(measures, "_packing_simplex", scaled)
    cert = certify_admissible(rho, q)
    assert cert.M == 2.0 and cert.optimal
    monkeypatch.setattr(measures, "_packing_simplex", dented)
    cert = certify_admissible(rho, q)  # verifies itself
    assert cert.M_lower == 2.0 and cert.M == pytest.approx(16 / 7)
    assert not cert.optimal
    cert.verify(rho, tol=1e-12)


def test_verify_rejects_an_unbacked_optimality_claim(z4):
    e = z4.identity_element()
    q = [z4.generator_element("g"), z4.generator_element("g^-1")]
    mu, cert = uniform_extended(q, e)
    assert cert.M_lower is None and not cert.optimal
    for lower in (None, cert.M - 0.5):
        cert.optimal, cert.M_lower = True, lower
        with pytest.raises(ValueError, match="claimed optimal"):
            cert.verify(mu)
    cert.optimal, cert.M_lower = False, cert.M + 0.5
    with pytest.raises(ValueError, match="lower bound"):
        cert.verify(mu)
