"""Self-tests of the benchmark: span arithmetic, tracer removal, oracles, generators.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import polyref as pr  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.fixture(scope="module")
def nambu():
    pkg = importlib.import_module("nambu")
    for layer in spans.LAYERS:
        importlib.import_module(f"nambu.{layer}")
    return pkg


# span arithmetic

def test_self_times_on_a_synthetic_tree():
    # structures [0,100] -> cartan [10,60] -> cartan [20,40] -> ratpoly [25,35]
    #                    -> ratpoly [70,80]
    parent = [-1, 0, 1, 2, 0]
    name = [0, 1, 2, 3, 3]
    start = [0, 10, 20, 25, 70]
    end = [100, 60, 40, 35, 80]
    layer = {0: "structures", 1: "cartan", 2: "cartan", 3: "ratpoly"}
    by_layer = {}
    for nid, t in spans.self_times(parent, name, start, end).items():
        by_layer[layer[nid]] = by_layer.get(layer[nid], 0) + t
    # The nested cartan span counts once: 30 + 10, not 50 + 20.
    assert by_layer == {"structures": 40, "cartan": 40, "ratpoly": 20}
    assert sum(by_layer.values()) == end[0] - start[0]


def test_inclusive_time_counts_same_name_nesting_once():
    parent = [-1, 0, 1, -1]
    name = [7, 7, 8, 7]
    start = [0, 10, 12, 200]
    end = [100, 50, 20, 230]
    out = spans.inclusive_times(parent, name, start, end, {7, 8})
    assert out == {7: 130, 8: 8}


# tracer

def _bindings(nambu):
    """Every binding the tracer may patch: module attributes and class dicts."""
    owners = [nambu] + [getattr(nambu, layer) for layer in spans.LAYERS]
    out = {}
    for owner in owners:
        for attr, obj in vars(owner).items():
            out[(id(owner), attr)] = obj
            if inspect.isclass(obj) and obj.__module__.startswith("nambu."):
                for cattr, raw in vars(obj).items():
                    out[(id(obj), cattr)] = raw
    return out


def test_end_item_restores_every_binding(nambu):
    before = _bindings(nambu)
    tracer = spans.Tracer()
    tracer.prepare(nambu)
    tracer.begin_item()
    try:
        assert nambu.structures.schouten is not before[(id(nambu.structures), "schouten")]
        assert nambu.formsbialg.schouten is nambu.structures.schouten
        assert nambu.schouten is nambu.cartan.schouten
        assert vars(nambu.ratpoly.Poly)["__mul__"] is not before[(id(nambu.ratpoly.Poly), "__mul__")]
        assert isinstance(vars(nambu.ratpoly.Poly)["zero"], staticmethod)
    finally:
        tracer.end_item()
    after = _bindings(nambu)
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def _traced_counts(nambu, workload, tmp_path, n_items):
    items, _ = workload.setup(nambu, 3, tmp_path)
    tracer = spans.Tracer()
    tracer.prepare(nambu)
    for item in items[:n_items]:
        tracer.begin_item()
        try:
            out = workload.run(item)
        finally:
            tracer.end_item()
        assert workload.check(item, out) is None
    metrics = tracer.metrics(1.0)
    return {k: v for k, (v, unit) in metrics.items() if unit == "count"}


@pytest.mark.parametrize("name,n_items", [("fi_sweep", 3), ("sessions", 4), ("kernel_dense", 4)])
def test_counts_repeat_exactly(nambu, tmp_path, name, n_items):
    first = _traced_counts(nambu, wl.WORKLOADS[name](), tmp_path, n_items)
    second = _traced_counts(nambu, wl.WORKLOADS[name](), tmp_path, n_items)
    assert first == second
    assert first["trace.spans"] > 0
    assert first["ratpoly.calls"] > 0


def test_traced_fi_check_records_layers(nambu, tmp_path):
    counts = _traced_counts(nambu, wl.FiSweep(), tmp_path, 1)
    assert counts["structures.fi.f_tuples"] > 0
    assert counts["cartan.de_rham_d.distinct"] > 0
    assert counts["ratpoly.mul.terms_out"] > 0
    assert counts["parser.calls"] == counts["geomaps.calls"] == 0


# oracles reject wrong answers

def test_fi_oracle_rejects_wrong_verdict_and_witness(nambu, tmp_path):
    w = wl.FiSweep()
    items, _ = w.setup(nambu, 0, tmp_path)
    refuted = next(i for i in items if i.expected == "REFUTED")
    verified = next(i for i in items if i.expected == "VERIFIED_ON_FAMILY")
    rep = w.run(refuted)
    assert w.check(refuted, rep) is None
    assert w.check(verified, rep) is not None
    wrong = nambu.structures.FiWitness(rep.witness.fs, rep.witness.gs,
                                       rep.witness.defect + nambu.ratpoly.Poly.one(
                                           refuted.structure.chart))
    forged = nambu.structures.FiReport(rep.verdict, rep.degree, rep.family_size, wrong)
    assert w.check(refuted, forged) is not None


def test_session_oracle_rejects_wrong_exit_lines_and_values(nambu, tmp_path):
    w = wl.Sessions()
    items, _ = w.setup(nambu, 0, tmp_path)
    forms = next(i for i in items if i.verdicts and any(v for _, v in i.verdicts))
    corpus = next(i for i in items if i.lines)
    for item in (forms, corpus):
        rc, stdout = w.run(item)
        text = Path(item.json_path).read_text()
        assert w.check(item, (rc, stdout)) is None
        Path(item.json_path).write_text(text)
        assert w.check(item, (rc + 1, stdout)) is not None
        Path(item.json_path).write_text(text)
        flipped = stdout.replace("PASS", "FAIL", 1) if "PASS" in stdout else stdout.replace(
            "FAIL", "PASS", 1)
        assert w.check(item, (rc, flipped)) is not None
    # A value that disagrees with the closed form, consistently in the
    # document and in the replay cache, is still caught.
    rc, stdout = w.run(forms)
    doc = json.loads(Path(forms.json_path).read_text())
    k = next(i for i, (_, v) in enumerate(forms.verdicts) if v and v[0] == "poly")
    doc["reports"][k]["value"] = "1"
    Path(forms.json_path).write_text(json.dumps(doc))
    w.replays[forms.path] = [(r["command"], r["verdict"], r["witness"], r["value"])
                             for r in doc["reports"]]
    assert w.check(forms, (rc, stdout)) is not None
    assert w.check(forms, (rc, stdout)) is not None  # missing document


def test_kernel_oracle_rejects_a_changed_coefficient(nambu, tmp_path):
    w = wl.KernelDense()
    items, _ = w.setup(nambu, 0, tmp_path)
    for item in items[:w.cycle:2]:
        out = w.run(item)
        assert w.check(item, out) is None
        first = out[0] if isinstance(out, list) else out
        exps = next(iter(first.terms))
        first.terms[exps] += Fraction(1, 3)
        assert w.check(item, out) is not None


# generators

def test_generators_are_seeded(tmp_path):
    s = wl.Sessions()
    assert s.scripts(5) == s.scripts(5)
    assert s.scripts(5) != s.scripts(6)
    assert wl.FiSweep().specs(5) == wl.FiSweep().specs(5)
    assert wl.FiSweep().specs(5) != wl.FiSweep().specs(6)
    assert wl.KernelDense().specs(5) == wl.KernelDense().specs(5)
    assert wl.KernelDense().specs(5) != wl.KernelDense().specs(6)


def test_fi_seed_draws_coefficients_only():
    # Every seed puts the same supports in each pool position, so runs on
    # different seeds sweep the same monomial patterns and stop at the same
    # witnesses.
    def supports(seed):
        return [(dim, order, degree, {idx: sorted(p) for idx, p in comps.items()}, expected)
                for dim, order, degree, comps, expected in wl.FiSweep().specs(seed)]
    assert supports(5) == supports(6)


def test_generated_scripts_are_byte_identical_on_disk(nambu, tmp_path):
    s = wl.Sessions()
    s.setup(nambu, 9, tmp_path / "a")
    s.setup(nambu, 9, tmp_path / "b")
    for f in sorted((tmp_path / "a").glob("*.nmb")):
        assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()


def test_canonical_text_round_trips(nambu):
    ch = nambu.ratpoly.Chart(("x", "y'", "z"))
    p = {(2, 1, 0): Fraction(3, 2), (0, 0, 0): Fraction(-1), (0, 1, 3): Fraction(-4)}
    assert pr.parse_canonical(nambu.ratpoly.Poly(ch, p).canonical_str(), ch.coords) == p
    form = nambu.exterior.Form(ch, 1, {(0,): nambu.ratpoly.Poly(ch, p),
                                       (2,): nambu.ratpoly.Poly(ch, {(0, 0, 1): 2})})
    assert pr.parse_tensor(form.canonical_str(), ch.coords) == {
        (0,): p, (2,): {(0, 0, 1): Fraction(2)}}
    session = nambu.parser.parse(f"chart C (x, y', z)\nq := {pr.to_nmb(p, ch.coords)}\n")
    env_value = nambu.session.run_session(
        nambu.parser.parse(session.canonical_text() + "q\n")).reports[0].value
    assert pr.parse_canonical(env_value, ch.coords) == p
