"""Checks on the benchmark's tracer and on BENCHMARK.json.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from run import END_TO_END, per_layer_units
from tracer import Tracer, gaplab_modules, unwrapped_references
from workloads import WORKLOADS


@pytest.fixture
def tracer():
    t = Tracer()
    t.install()
    yield t
    t.uninstall()


def test_no_module_keeps_an_unwrapped_reference(tracer):
    assert unwrapped_references(tracer._wrapped) == []
    mods = gaplab_modules()
    originals = {wrapper: fn for fn, wrapper in tracer._wrapped.items()}
    # names imported directly, and a call made inside the defining module
    for mod in ("acceptance", "cli", "ergodic_walk", "warped_cone"):
        for name in ("restricted_norm", "markov_operator"):
            assert getattr(mods[mod], name) in originals, f"{mod}.{name}"
    assert mods["ergodic_walk"].estimate_drift_mc in originals
    assert all(fn in originals for _cid, _name, fn in mods["acceptance"].CRITERIA)

    mods["acceptance"].criterion_11(0)
    names = [span[0] for span in tracer.spans]
    assert names[0] == "acceptance.criterion_11"
    assert "rep_markov.restricted_norm" in names
    assert "kazhdan.kazhdan_constant_oracle" in names
    assert all(span[4] == 0 for span in tracer.spans)  # one op
    assert tracer.counts["rep_markov.matvecs"] > 0
    assert tracer.counts["rep_markov.restricted_norm.iterations"] > 0


def test_uninstall_restores_every_binding():
    mods = gaplab_modules()
    before = {(m, a): v for m, mod in mods.items() for a, v in vars(mod).items()}
    apply = mods["rep_markov"].MarkovOperator.apply
    t = Tracer()
    t.install()
    t.uninstall()
    after = {(m, a): v for m, mod in mods.items() for a, v in vars(mod).items()}
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before if k[1] != "CRITERIA")
    assert [fn for *_, fn in after[("acceptance", "CRITERIA")]] == \
        [fn for *_, fn in before[("acceptance", "CRITERIA")]]
    assert mods["rep_markov"].MarkovOperator.apply is apply


def test_self_time_is_duration_minus_children():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 6.5, 10.0, 20.0, 21.0])
    t = Tracer(clock=lambda: next(ticks))

    inner = t.wrap("m.inner", lambda: None)

    def outer_body():
        inner()
        inner()

    outer = t.wrap("m.outer", outer_body)
    outer()  # [0, 10] with children [1, 3] and [4, 6.5]
    inner()  # [20, 21], a second op
    metrics = t.layer_metrics()
    assert metrics["m.outer.calls"] == 1
    assert metrics["m.outer.s"] == 10.0
    assert metrics["m.outer.self_s"] == 10.0 - 2.0 - 2.5
    assert metrics["m.inner.calls"] == 3
    assert metrics["m.inner.self_s"] == 2.0 + 2.5 + 1.0
    assert metrics["m.self_s"] == 11.0
    assert [span[3] for span in t.spans] == [None, 0, 0, None]
    assert [span[4] for span in t.spans] == [0, 0, 0, 3]


def test_benchmark_json_names_every_metric():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                      .read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_units()
