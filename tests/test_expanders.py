import math

import numpy as np
import pytest

from gaplab import expanders
from gaplab.group_core import (
    SL2_GENERATOR_MATRICES,
    CayleyGraph,
    FiniteAction,
    GeneratorSystem,
    build_cyclic,
    build_sl2_quotient,
    sl2_induced_blocks,
)
from gaplab.expanders import (
    QuotientSequence,
    certify_sequence,
    poincare_ratio,
    poincare_scalar,
    poincare_vector_lower,
)
from gaplab.measures import DiscreteMeasure
from gaplab.rep_markov import (Representation, _euclidean_top, _symmetrized_top,
                               markov_operator)


def test_poincare_scalar_z3_complete_graph():
    # Q = {g, g^-1} = {g, g^2} in Z/3: the complete graph on 3 vertices
    act = build_cyclic(3)
    res = poincare_scalar(CayleyGraph(act))
    assert res.lambda2 == pytest.approx(-0.5, abs=1e-12)
    assert res.kappa == pytest.approx(1.0 / 6.0, abs=1e-12)


def test_poincare_scalar_z3_against_quadratic_expansion():
    # ordered-pair identity: sum_{u != v} |f(u)-f(v)|^2 = 2 n sum |f - Mf|^2
    act = build_cyclic(3)
    graph = CayleyGraph(act)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(200):
        f = rng.standard_normal(3)
        worst = max(worst, poincare_ratio(graph, f))
    assert worst <= 1.0 / 6.0 + 1e-12
    # and the bound is attained (any mean-zero f is optimal here)
    assert poincare_ratio(graph, np.array([1.0, -1.0, 0.0])) == pytest.approx(1 / 6)


def test_poincare_scalar_four_cycle():
    act = build_cyclic(4)
    res = poincare_scalar(CayleyGraph(act))
    # circulant eigenvalues cos(2 pi k / 4): top mean-zero is 0
    assert res.lambda2 == pytest.approx(0.0, abs=1e-12)
    assert res.kappa == pytest.approx(0.25, abs=1e-12)


def test_poincare_scalar_single_vertex():
    act = build_cyclic(1)
    res = poincare_scalar(CayleyGraph(act))
    assert res.kappa == 0.0
    assert res.lambda2 is None


def test_poincare_scalar_disconnected_flagged():
    act = build_sl2_quotient(4, variant="b")  # origin is a fixed point
    res = poincare_scalar(CayleyGraph(act))
    assert not res.connected
    assert math.isinf(res.kappa)


def test_relation_holds_on_connected_fixtures():
    for act in (build_cyclic(3), build_cyclic(8), build_sl2_quotient(3, variant="a")):
        graph = CayleyGraph(act)
        res = poincare_scalar(graph)
        ratio = poincare_ratio(graph, res.eigenvector)
        assert ratio * 2 * res.n_labels * (1 - res.lambda2) == pytest.approx(
            1.0, abs=1e-9
        )


def _z4_with_extra_generator():
    idx = np.arange(4)
    gens = GeneratorSystem(
        labels=("g", "g^-1", "g2"),
        inverses={"g": "g^-1", "g^-1": "g", "g2": "g2"},
    )
    perms = {"g": (idx + 1) % 4, "g^-1": (idx - 1) % 4, "g2": (idx + 2) % 4}
    return FiniteAction(list(range(4)), np.full(4, 0.25), gens, perms, name="Z/4+g2")


def test_adding_generators_never_increases_kappa():
    base = poincare_scalar(CayleyGraph(build_cyclic(4)))
    bigger = poincare_scalar(CayleyGraph(_z4_with_extra_generator()))
    assert bigger.kappa <= base.kappa + 1e-12
    assert bigger.kappa == pytest.approx(1.0 / 8.0, abs=1e-12)


def test_sl2_order_and_primality_agree_with_trial_division():
    from gaplab.group_core import _sl2_order

    def order(m):
        primes = [q for q in range(2, m + 1) if m % q == 0 and all(q % r for r in range(2, q))]
        return m ** 3 * math.prod(q * q - 1 for q in primes) // math.prod(q * q for q in primes)

    for m in range(1, 400):
        assert expanders._is_prime(m) == (m >= 2 and all(m % q for q in range(2, m)))
        assert _sl2_order(m) == order(m)
    # the least strong pseudoprimes to the prime bases up to 31 and up to 37
    assert not expanders._is_prime(3_825_123_056_546_413_051)
    assert not expanders._is_prime(318_665_857_834_031_151_167_461)
    assert expanders._is_prime(2 ** 61 - 1) and expanders._is_prime(2 ** 89 - 1)
    q = 1_000_000_007  # |SL2(Z/2q)| = 8 q^3 (3 / 4) (1 - q^-2)
    assert _sl2_order(2 * q) == 6 * q * (q - 1) * (q + 1)


def test_vector_lower_matches_scalar_p2_d1():
    for act in (build_cyclic(3), build_cyclic(4), build_sl2_quotient(2, variant="a")):
        graph = CayleyGraph(act)
        scal = poincare_scalar(graph)
        lower = poincare_vector_lower(graph, scal, p=2.0, d=1, budget=300, seed=1)
        assert lower == pytest.approx(scal.kappa, abs=1e-6)
        assert lower <= scal.kappa + 1e-9


def test_vector_lower_p2_decouples_over_coordinates():
    graph = CayleyGraph(build_cyclic(4))
    scal = poincare_scalar(graph)
    for d in (2, 3):
        lower = poincare_vector_lower(graph, scal, p=2.0, d=d, budget=400, seed=2)
        assert lower == pytest.approx(scal.kappa, abs=1e-6)


def test_vector_lower_rejects_zero_budget():
    graph = CayleyGraph(build_cyclic(4))
    with pytest.raises(ValueError):
        poincare_vector_lower(graph, poincare_scalar(graph), 2.0, 1, 0, 0)


def test_vector_lower_p3_is_genuine_lower_bound():
    graph = CayleyGraph(build_cyclic(4))
    lower = poincare_vector_lower(graph, poincare_scalar(graph), p=3.0, d=2, budget=500, seed=3)
    assert lower > 0.0
    rng = np.random.default_rng(9)
    sampled = max(
        poincare_ratio(graph, rng.standard_normal((4, 2)), p=3.0) for _ in range(50)
    )
    assert lower >= sampled * 0.0  # sanity: finite and positive
    assert math.isfinite(lower)


def test_certify_sequence_solves_each_quotient_once_for_the_vector_bound(monkeypatch):
    # the block solve gives the row, and its lifted vector the ascent's start
    solved = []
    solve = expanders._block_solve

    def counting(p, weights):
        solved.append(p)
        return solve(p, weights)

    monkeypatch.setattr(expanders, "_block_solve", counting)
    seq = QuotientSequence([expanders.Sl2Quotient(5), expanders.Sl2Quotient(7)])
    report = certify_sequence(seq, vector_budget=10)
    assert solved == [5, 7]
    values = [r.vector_lower.hex() for r in report.rows]
    assert values == ["0x1.4f1bbcdcbfa54p-1", "0x1.b504f333f9de6p-1"]
    # the values of the two-solve route and of the three-block solve
    for got, old in zip(values, ["0x1.4f1bbcdcbfa53p-1", "0x1.b504f333f9de6p-1"]):
        assert abs(float.fromhex(got) - float.fromhex(old)) <= 1e-12 * float.fromhex(old)
    # the ascent from the kernel's eigenvector on the built group reaches the same
    for member, row in zip(seq.members, report.rows):
        graph = CayleyGraph(build_sl2_quotient(member.m, "a"))
        lower = poincare_vector_lower(graph, poincare_scalar(graph), 2.0, 1, 10, 0)
        assert abs(row.vector_lower - lower) <= 1e-12


def test_certify_sequence_requires_two():
    with pytest.raises(ValueError):
        certify_sequence(QuotientSequence([build_cyclic(4)]))


def test_certify_sequence_mixed_labels_rejected():
    with pytest.raises(ValueError):
        QuotientSequence([build_cyclic(4), _z4_with_extra_generator()])


def test_certify_constant_sequence_trivially_uniform():
    act = build_cyclic(5)
    report = certify_sequence(QuotientSequence([act, act, act]))
    assert report.uniform
    assert report.growth_slope == 0.0


def test_certify_sl2_family_uniform():
    seq = QuotientSequence(
        [build_sl2_quotient(p, variant="a") for p in (3, 5, 7)]
    )
    report = certify_sequence(seq)
    assert report.uniform
    assert report.epsilon0 is not None and report.epsilon0 > 0.0
    for row in report.rows:
        assert row.connected
        assert row.relation_residual <= 1e-9


def test_certify_cycle_family_not_uniform():
    seq = QuotientSequence([build_cyclic(n) for n in (4, 8, 16)])
    report = certify_sequence(seq)
    assert not report.uniform
    assert report.growth_slope > 1.5  # kappa_P grows like n^2
    kappas = {row.n_vertices: row.kappa_p for row in report.rows}
    # quadratic growth: kappa_P / n^2 approaches 1 / (8 pi^2)
    assert kappas[16] / 16**2 == pytest.approx(1.0 / (8 * math.pi**2), rel=0.05)


def test_certify_flags_disconnected_member():
    torus = build_sl2_quotient(4, variant="b")
    seq = QuotientSequence([torus, torus])
    report = certify_sequence(seq)
    assert not report.uniform
    assert any(not row.connected for row in report.rows)


def test_report_serialization():
    seq = QuotientSequence([build_cyclic(n) for n in (4, 8)])
    doc = certify_sequence(seq).to_json_dict()
    assert len(doc["quotients"]) == 2
    assert doc["uniform"] in (True, False)


# -- induced blocks of SL2(Z/p) -------------------------------------------------

UNIFORM = {lab: 0.25 for lab in SL2_GENERATOR_MATRICES}
SKEWED = {"e12": 0.4, "e12^-1": 0.1, "e21": 0.3, "e21^-1": 0.2}


def _generator_operator(act, weights):
    atoms = {}
    for lab, w in weights.items():
        el = act.generator_element(lab)
        atoms[el] = atoms.get(el, 0.0) + w
    return markov_operator(Representation(act), DiscreteMeasure(atoms))


@pytest.mark.parametrize("weights", [UNIFORM, SKEWED], ids=["uniform", "skewed"])
@pytest.mark.parametrize("p", [5, 7])
def test_induced_block_spectra_make_up_the_full_spectrum(p, weights):
    act = build_sl2_quotient(p, "a")
    a = _generator_operator(act, weights).dense()
    full = np.linalg.eigvalsh((a + a.T) / 2.0)  # uniform weights: A* = A^T
    blocks = []
    for block in sl2_induced_blocks(p, range(p), weights):
        block = block.toarray()
        assert block.shape == (p * p - 1,) * 2
        assert np.array_equal(block, block.conj().T)
        blocks.append(np.linalg.eigvalsh(block))
    assert np.max(np.abs(np.sort(np.concatenate(blocks)) - full)) <= 1e-13


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_block_lambda2_matches_the_kernel_and_its_lift_the_relation(p):
    act = build_sl2_quotient(p, "a")
    graph = CayleyGraph(act)
    value, x, classes = expanders._block_solve(p, UNIFORM)
    assert abs(value - poincare_scalar(graph).lambda2) <= 1e-13  # the kernel
    vec = expanders._lift(act, p, x, classes)
    assert vec.shape == (act.n_points,) and np.all(np.isfinite(vec))
    assert abs(vec.sum()) <= 1e-9 * np.linalg.norm(vec)
    ratio = poincare_ratio(graph, vec)
    assert abs(ratio * 2.0 * len(graph.labels) * (1.0 - value) - 1.0) <= 1e-9


@pytest.mark.parametrize("weights", [UNIFORM, SKEWED], ids=["uniform", "skewed"])
def test_induced_eigensolve_lifts_an_eigenvector_of_the_full_operator(weights):
    act = build_sl2_quotient(11, "a")
    op = _generator_operator(act, weights)
    value, x, classes = expanders._block_solve(11, weights)
    vec = expanders._lift(act, 11, x, classes)
    assert abs(value - _symmetrized_top(op).value) <= 1e-13
    image = (op.apply(vec) + op.apply_transpose(vec)) / 2.0
    assert np.linalg.norm(image - value * vec) <= 1e-12 * np.linalg.norm(vec)


def _least_non_square(p):
    squares = {x * x % p for x in range(1, p)}
    return next(a for a in range(2, p) if a not in squares)


@pytest.mark.parametrize("weights", [UNIFORM, SKEWED], ids=["uniform", "skewed"])
@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_kept_blocks_hold_block_0s_spectrum_but_the_constants(p, weights):
    kept = expanders._character_classes(p)
    assert kept == ([1, _least_non_square(p)] if p % 4 == 1 else [1])
    extra = [_least_non_square(p)] if p % 4 == 3 else []
    zero, *blocks = [np.linalg.eigvalsh(block.toarray())
                     for block in sl2_induced_blocks(p, [0] + kept + extra, weights)]
    assert abs(zero[-1] - 1.0) <= 1e-12  # the constants; eigvalsh is ascending
    spectrum = np.concatenate(blocks[:len(kept)])
    assert np.max(np.min(np.abs(zero[:-1, None] - spectrum), axis=1)) <= 1e-12
    if extra:  # block n0 is block -1, the conjugate of block 1
        assert np.max(np.abs(blocks[-1] - blocks[0])) <= 1e-12
    elif len(kept) == 2:  # for p = 1 mod 4 it has eigenvalues block 1 lacks
        assert np.max(np.min(np.abs(blocks[1][:, None] - blocks[0]), axis=1)) > 1e-3


@pytest.mark.parametrize("labels", [("e12", "e21"), ("e12", "e21^-1", "e21"),
                                    ("e12^-1", "e21")])
@pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
def test_block_lambda2_of_a_non_symmetric_measure_is_the_whole_groups(p, labels):
    row, _solve = expanders._block_row(p, labels)
    a = _generator_operator(build_sl2_quotient(p, "a"), expanders._label_weights(labels)).dense()
    full = np.linalg.eigvalsh((a + a.T) / 2.0)  # uniform weights: A* = A^T
    assert abs(full[-1] - 1.0) <= 1e-12 and full[-2] < 1.0 - 1e-6  # connected
    assert abs(row.lambda2 - full[-2]) <= 1e-13


def _three_block_lambda2(p, weights):
    """lambda_2 by one real Lanczos solve on blocks 0, 1 and the least
    non-square, block 0's constants shifted to -1 (M - 2P)."""
    classes = [0, 1, _least_non_square(p)]
    n = p * p - 1
    total = expanders._direct_sum(sl2_induced_blocks(p, classes, weights))
    field = np.empty(total.n, dtype=complex)

    def matvec(x):
        field[:n], field[n:] = x[:n], np.ascontiguousarray(x[n:]).view(complex)
        image = total @ field
        y = np.empty_like(x)
        y[:n] = image[:n].real - (2.0 / n) * x[:n].sum()
        y[n:].view(complex)[:] = image[n:]
        return y

    return float(_euclidean_top(matvec, 5 * n)[0][0])


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_block_lambda2_matches_the_three_block_solve(p):
    for weights in (UNIFORM, SKEWED):
        value, _x, _classes = expanders._block_solve(p, weights)
        assert abs(value - _three_block_lambda2(p, weights)) <= 1e-13


def _no_blocks(*args):
    raise AssertionError("solved by the induced blocks")


# poincare_scalar is the kernel on every action, prime SL2(Z/p) included
@pytest.mark.parametrize("act", [build_sl2_quotient(8, "a"), build_sl2_quotient(9, "a"),
                                 build_sl2_quotient(7, "b"), build_sl2_quotient(7, "a")],
                         ids=["sl2-8", "sl2-9", "torus-7", "sl2-7"])
def test_composite_moduli_and_the_torus_keep_the_kernel(act, monkeypatch):
    monkeypatch.setattr(expanders, "_block_solve", _no_blocks)
    value, _vec = expanders._averaging_eigensolve(CayleyGraph(act))
    assert value == _symmetrized_top(_generator_operator(act, UNIFORM)).value


# -- prime members from the blocks alone ----------------------------------------


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_block_row_matches_the_built_group(p):
    row, (_value, x, classes) = expanders._block_row(p, tuple(SL2_GENERATOR_MATRICES))
    graph = CayleyGraph(build_sl2_quotient(p, "a"))
    scal = poincare_scalar(graph)  # the kernel on the whole space
    assert row.connected and row.n_vertices == graph.n_vertices
    assert abs(row.lambda2 - scal.lambda2) <= 1e-13
    assert abs(row.kappa_p - scal.kappa) <= 1e-12 * scal.kappa
    # the reference: the full-graph ratio of the lifted eigenvector
    lifted = expanders._lift(graph.action, p, x, classes)
    full = abs(poincare_ratio(graph, lifted) * 2.0 * scal.n_labels
               * (1.0 - row.lambda2) - 1.0)
    assert abs(row.relation_residual - full) <= 1e-13


def _refuse_builds(monkeypatch):
    from gaplab import cli, group_core

    def refuse(*args, **kwargs):
        raise AssertionError("built an SL2 quotient")

    for module in (group_core, expanders, cli):
        monkeypatch.setattr(module, "build_sl2_quotient", refuse)


def test_certify_family_builds_no_prime_quotient(monkeypatch):
    from gaplab import cli

    _refuse_builds(monkeypatch)
    report = cli.certify_family(cli.ExperimentConfig(
        "expander", {"family": "sl2", "moduli": [5, 7, 31]}))
    # the rows of the in-house Lanczos kernel on the blocks of
    # _character_classes; the three-block solve (block 0 shifted) and the
    # route that built each group, lifted its eigenvector and solved by
    # ARPACK gave the rows below them, which these match to 1e-12
    rows = [(r.name, r.n_vertices, r.lambda2.hex(), r.kappa_p.hex(), r.connected,
             r.vector_lower) for r in report.rows]
    assert rows == [
        ("SL2(Z/5)", 120, "0x1.9e3779b97f4a1p-1", "0x1.4f1bbcdcbfa3dp-1", True, None),
        ("SL2(Z/7)", 336, "0x1.b504f333f9de5p-1", "0x1.b504f333f9ddfp-1", True, None),
        ("SL2(Z/31)", 29760, "0x1.e2e96f5ce49bep-1", "0x1.19a07399657e6p+1", True, None)]
    three_blocks = [("0x1.9e3779b97f4aep-1", "0x1.4f1bbcdcbfa69p-1"),
                    ("0x1.b504f333f9de8p-1", "0x1.b504f333f9df0p-1"),
                    ("0x1.e2e96f5ce49e0p-1", "0x1.19a073996592fp+1")]
    arpack = [("0x1.9e3779b97f4a7p-1", "0x1.4f1bbcdcbfa51p-1"),
              ("0x1.b504f333f9de6p-1", "0x1.b504f333f9de5p-1"),
              ("0x1.e2e96f5ce4a09p-1", "0x1.19a0739965abcp+1")]
    for row, *olds in zip(rows, three_blocks, arpack):
        for old in olds:
            for got, want in zip(row[2:4], map(float.fromhex, old)):
                assert abs(float.fromhex(got) - want) <= 1e-12 * want
    # the three-block solve gave residuals 3.7e-15, 1.3e-15 and 6.9e-15, and
    # ARPACK's vectors 4.4e-16, 2.2e-16 and 7.4e-14
    for row, residual in zip(report.rows, [3.552713678800501e-15, 8.881784197001252e-16,
                                           7.30526750203353e-14]):
        assert abs(row.relation_residual - residual) <= 1e-15
    # three blocks: 0x1.d1690a31b6200p-5 and 0x1.bcff572ab2950p-3;
    # ARPACK: 0x1.d1690a31b5f70p-5 and 0x1.bcff572ab2b96p-3
    assert report.epsilon0.hex() == "0x1.d1690a31b6420p-5"
    assert report.growth_slope.hex() == "0x1.bcff572ab27a7p-3"
    for got, olds in [(report.epsilon0, ("0x1.d1690a31b6200p-5", "0x1.d1690a31b5f70p-5")),
                      (report.growth_slope, ("0x1.bcff572ab2950p-3", "0x1.bcff572ab2b96p-3"))]:
        for old in map(float.fromhex, olds):
            assert abs(got - old) <= 1e-12 * old
    assert report.uniform


@pytest.mark.parametrize("labels", [("e21", "e21^-1"), ("e21",), ("e12", "e12^-1"),
                                    ("e12^-1", "e21"), ("e12", "e21^-1", "e21")])
@pytest.mark.parametrize("p", [2, 5, 7])
def test_block_connectivity_is_that_of_the_cayley_graph(p, labels):
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    row, _solve = expanders._block_row(p, labels)
    act = build_sl2_quotient(p, "a")
    n = act.n_points
    targets = np.concatenate([act.perms[lab] for lab in labels])
    graph = csr_matrix((np.ones(len(targets)), (np.tile(np.arange(n), len(labels)), targets)),
                       shape=(n, n))
    assert row.connected == (connected_components(graph, directed=False)[0] == 1)


@pytest.mark.parametrize("moduli", [(5, 7), (4, 6)], ids=["blocks", "built"])
def test_lower_unipotent_labels_give_a_disconnected_row(moduli):
    # the composite moduli are built, and their graph is connected under
    # these labels only if all four generators are counted
    seq = QuotientSequence([expanders.Sl2Quotient(m, ("e21", "e21^-1")) for m in moduli])
    report = certify_sequence(seq)
    assert [(r.connected, r.kappa_p) for r in report.rows] == [(False, math.inf)] * 2
    assert all(math.isnan(r.relation_residual) for r in report.rows)
    assert not report.uniform


def test_sl2_quotient_members_share_labels():
    with pytest.raises(ValueError):
        QuotientSequence([expanders.Sl2Quotient(5), build_cyclic(4)])
    with pytest.raises(ValueError):
        QuotientSequence([expanders.Sl2Quotient(5), expanders.Sl2Quotient(7, ("e12", "e21"))])
    QuotientSequence([expanders.Sl2Quotient(5), build_sl2_quotient(4, "a")])


def test_a_wrong_block_eigenvalue_fails_the_relation(tmp_path, monkeypatch):
    import json

    from gaplab.cli import main

    solve = expanders._block_solve

    def off_by_a_little(p, weights):
        value, x, classes = solve(p, weights)
        return value - 1e-6, x, classes

    monkeypatch.setattr(expanders, "_block_solve", off_by_a_little)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"kind": "expander",
                                "fixture": {"family": "sl2", "moduli": [5, 7]}}))
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 1
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["failed_invariant"] == "poincare-relation"


def test_block_lambda2_at_31_and_61():
    report = certify_sequence(QuotientSequence([expanders.Sl2Quotient(p) for p in (31, 61)]))
    lambdas = [r.lambda2 for r in report.rows]
    assert lambdas == [0.9431872177977352, 0.9536370794533435]
    # the three-block solve gave 0.943187217797739 and 0.9536370794533443,
    # ARPACK 0.9431872177977435 and 0.9536370794533505
    for olds in [(0.943187217797739, 0.9536370794533443),
                 (0.9431872177977435, 0.9536370794533505)]:
        assert all(abs(got - old) <= 1e-12 for got, old in zip(lambdas, olds))
    assert [r.n_vertices for r in report.rows] == [29760, 226920]
    assert all(r.relation_residual <= 1e-12 for r in report.rows)
