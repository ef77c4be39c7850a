"""Quick tests of the benchmark itself: tiny workloads, references, checks."""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import streamcalc as sc  # noqa: E402

from perfbench import refs, run, tracing, workloads  # noqa: E402
from perfbench.refs import Arith  # noqa: E402

FIELDS = [Arith(None), Arith(refs.WORD_PRIME)]


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload to one instance of small sizes."""
    sizes = {"small": 2, "medium": 3, "large": 3}
    for name in ("CONVERT_DIMS", "ROUNDTRIP_DIMS", "EXPAND_DIMS", "IDENTIFY_DIMS"):
        monkeypatch.setattr(workloads, name, sizes)
    for name, value in (("EXPAND_TERMS", 24), ("MATVEC_STEPS", 12), ("PREFIX_TERMS", 8),
                        ("DERIVATIVES", 5), ("POWERS", 3)):
        monkeypatch.setattr(workloads, name, dict.fromkeys(workloads.CLASSES, value))
    monkeypatch.setattr(
        workloads, "INSTANCES",
        {w: dict.fromkeys(workloads.CLASSES, 1) for w in workloads.WORKLOADS},
    )


@pytest.fixture
def keep_streamcalc():
    """run.main imports streamcalc afresh; put back the modules the other tests use."""
    saved = {k: v for k, v in sys.modules.items() if k.split(".")[0] == "streamcalc"}
    yield
    for name in [k for k in sys.modules if k.split(".")[0] == "streamcalc"]:
        del sys.modules[name]
    sys.modules.update(saved)


def tiny_jobs(workload):
    specs = workloads.make_specs(workload, 7)
    return [(spec, workloads.build(sc, spec, workloads.expect(spec))) for spec in specs]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_workload_passes_its_checks(tiny, workload):
    pairs = tiny_jobs(workload)
    assert {spec.field for spec, _ in pairs} == {"q", "gf"}
    assert {spec.size for spec, _ in pairs} == set(workloads.CLASSES)
    for spec, job in pairs:
        assert job.check(job.run(tracing.NO_TRACE)) is None, spec.name


def test_inputs_follow_the_seed():
    first = [(s.name, s.data) for s in workloads.make_specs("identify", 3)]
    assert first == [(s.name, s.data) for s in workloads.make_specs("identify", 3)]
    assert first != [(s.name, s.data) for s in workloads.make_specs("identify", 4)]


# --- references against streamcalc ---------------------------------------


def program_stream(ar, p, q):
    F = workloads.program_field(sc, ar)
    return sc.RationalStream(sc.Polynomial(F, p), sc.Polynomial(F, q))


@pytest.mark.parametrize("ar", FIELDS, ids=lambda a: a.name)
def test_references_agree_with_streamcalc(ar):
    rng = random.Random(11)
    F = workloads.program_field(sc, ar)
    for n in (1, 2, 4):
        p, q = workloads.closed_form(ar, rng, n)
        s = program_stream(ar, p, q)
        # reduction and normal form
        assert workloads.plain_list(s.num.coeffs) == p
        assert workloads.plain_list(s.den.coeffs) == q
        factor = [ar(3), ar(6)]
        assert refs.reduce_quotient(
            ar, refs.poly_mul(ar, p, factor), refs.poly_mul(ar, q, factor)
        ) == (p, q)
        # expansion
        assert workloads.plain_list(s.expand(30)) == refs.series(ar, p, q, 30)
        # mat-vec sequence of a dense realization
        f, h, v = workloads.dense_realization(ar, rng, p, q)
        pointed = workloads._pointed(sc, F, f, h, v)
        assert [workloads.plain(o[0]) for o in pointed.step_outputs(12)] == refs.output_sequence(
            ar, f, h, v, 12
        ) == refs.series(ar, p, q, 12)
        # Euclid
        a = refs.poly_mul(ar, p, [ar(2), ar(1), ar(1)])
        b = refs.poly_mul(ar, q, [ar(2), ar(1), ar(1)])
        g = sc.Polynomial(F, a).gcd(sc.Polynomial(F, b))
        assert workloads.plain_list(g.coeffs) == refs.poly_gcd(ar, a, b)
    # Hankel determinants decide full rank
    prefix = workloads.triangular_indicator(ar, 0, ar(1), 25)
    for m in range(1, 12):
        full = sc.hankel_rank([F.coerce(x) for x in prefix], m) == m
        assert full == (refs.hankel_det(ar, prefix, m) != 0)


def test_hankel_det_values():
    ar = Arith(None)
    # Catalan numbers have every Hankel determinant equal to 1
    for m in range(1, 7):
        assert refs.hankel_det(ar, workloads.catalan(ar, 0, ar(1), 2 * m), m) == 1
    assert refs.det(ar, [[ar(2), ar(1)], [ar(7), ar(4)]]) == 1
    assert refs.det(Arith(7), [[0, 1], [1, 0]]) == 6


# --- every check rejects a planted wrong answer --------------------------


def bumped_stream(s):
    F = s.field
    return sc.RationalStream(s.num + sc.Polynomial.one(F), s.den)


def plant_errors(kind, out):
    """Wrong answers close to the right one, for a job of this kind."""
    if kind == "roundtrip":
        s, dim, (a, b, c) = out
        return [(s, dim + 1, (a, b, c)), (s, dim, (a, bumped_stream(b), c)),
                (bumped_stream(s), dim, (a, b, c))]
    if kind == "system":
        return [bumped_stream(out)]
    if kind == "minimize":
        system = out.system
        output = sc.Matrix(system.field, [[x + 1 for x in system.output.entries[0]]])
        padded = sc.PointedLinearSystem(
            sc.LinearSystem(
                sc.Matrix(system.field, [list(r) + [0] for r in system.dynamics.entries]
                          + [[0] * (out.dim + 1)]),
                sc.Matrix(system.field, [list(system.output.entries[0]) + [0]]),
            ),
            tuple(out.initial) + (0,),
        )
        return [sc.PointedLinearSystem(sc.LinearSystem(system.dynamics, output), out.initial),
                padded]
    if kind == "first_difference":
        return [0 if out is None else out + 1, None if out is not None else 3]
    if kind in ("expand", "step_outputs", "simulate", "prefix", "path_sum", "derivative", "power"):
        return [out[:-1] + [out[-1] + 1], [out[0] + 1] + out[1:]]
    if kind == "rational":
        low, high, below, at, rec = out
        wrong_rec = (rec[0] + 1,) + tuple(rec[1:])
        return [(low - 1, high, below, at, rec), (low, high, at, at, rec),
                (low, high, below, below, rec), (low, high, below, at, wrong_rec),
                (low, high, below, at, None), (low, high, below, at, rec + (rec[0],))]
    if kind == "nonrational":
        rank, probe, rec = out
        return [(rank - 1, probe, rec), (rank, probe, (probe.rank,)),
                (rank, sc.RankReport(probe.prefix_len, probe.hankel_size, probe.rank - 1,
                                     "RationalWitnessConsistent"), rec)]
    raise AssertionError(kind)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_checks_reject_planted_errors(tiny, workload):
    kinds = set()
    for spec, job in tiny_jobs(workload):
        out = job.run(tracing.NO_TRACE)
        for wrong in plant_errors(spec.kind, out):
            assert job.check(wrong) is not None, (spec.name, wrong)
        kinds.add(spec.kind)
    assert kinds


# --- the entry point -----------------------------------------------------


def last_json(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", (0, 1))
def test_entry_point_prints_every_metric(tiny, keep_streamcalc, monkeypatch, tmp_path, capsys, trace):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    code = run.main(["--workload", "identify", "--seed", "2", "--seconds", "0.05",
                     "--trace", str(trace)])
    assert code == 0
    result = last_json(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    expected = tracing.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(expected)
    if trace:
        assert (tmp_path / "trace-identify-2.json").is_file()
        assert result["metrics"]["matrix.eliminate_calls"]["value"] > 0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_entry_point_fails_without_sources(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "convert", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.PER_LAYER
    assert all(m["better"] == "lower" for m in spec["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_layer_of_maps_sources_to_layers():
    assert tracing.layer_of("src/streamcalc/poly.py") == "poly"
    assert tracing.layer_of("lib/python3.11/fractions.py") == "fields"
    assert tracing.layer_of("lib/python3.11/abc.py") is None
    assert tracing._bits(Fraction(-8, 3)) == 4
