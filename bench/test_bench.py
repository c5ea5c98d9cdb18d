"""Self-tests of the benchmark code: python -m pytest bench/test_bench.py"""
from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def fake_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_times_of_nested_spans():
    # a [0, 20] holds b [1, 7], which holds c [2, 4], and one aggregated
    # format_float call [8, 10]
    tracer = tracing.Tracer(clock=fake_clock(0, 1, 2, 4, 7, 8, 10, 20))
    c = tracer.wrap("dmd.truncated_svd", lambda: None)
    b = tracer.wrap("dmd.exact_dmd", lambda: c())
    leaf = tracer.wrap("snapshots.format_float", lambda: None)
    a = tracer.wrap("cli.main", lambda: (b(), leaf()))
    a()
    assert tracer.self_times() == [12, 4, 2]
    self_s, calls = tracer.by_function()
    assert self_s == {"cli.main": 12, "dmd.exact_dmd": 4, "dmd.truncated_svd": 2,
                      "snapshots.format_float": 2}
    assert calls["snapshots.format_float"] == 1
    assert sum(self_s.values()) == 20


def test_layer_metrics_add_up_to_the_wall(tmp_path):
    tracer = tracing.Tracer(clock=fake_clock(0, 1, 3, 4, 5, 10))
    svd = tracer.wrap("dmd.truncated_svd", lambda: None)
    build = tracer.wrap("snapshots.build_pairs", lambda: None)
    root = tracer.wrap("cli.main", lambda: (svd(), build()))
    root()
    metrics = tracing.layer_metrics(tracer, wall=10.5, warnings_raised=0, out_dir=tmp_path)
    assert list(metrics) == list(tracing.LAYER_METRICS)
    assert metrics["dmd.svd_s"] == 2 and metrics["snapshots.other_s"] == 1
    assert metrics["cli.self_s"] == 7
    assert metrics["trace.remainder_s"] == pytest.approx(0.5)
    times = sum(v for k, v in metrics.items() if k.endswith("_s") and not k.startswith("trace."))
    assert times + metrics["trace.remainder_s"] == pytest.approx(metrics["trace.wall_s"])


def test_instrument_rebinds_imported_names_and_restores():
    from koopmode import cli, spdmd
    original = spdmd.quadratic_form
    restore = tracing.instrument(tracing.Tracer())
    try:
        assert cli.quadratic_form is not original
        assert cli.quadratic_form is spdmd.quadratic_form
        assert hasattr(spdmd.quadratic_form, "__wrapped__")
        assert not hasattr(spdmd.soft_threshold, "__wrapped__")  # left untraced
    finally:
        restore()
    assert cli.quadratic_form is original and spdmd.quadratic_form is original


def write_sweep(out: Path, cards, losses) -> None:
    out.mkdir(parents=True, exist_ok=True)
    gammas = np.geomspace(1e-3, 1e3, len(cards))
    with open(out / "sweep.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["gamma", "cardinality", "cost", "loss_percent", "iterations", "converged"])
        for g, c, loss in zip(gammas, cards, losses):
            w.writerow([repr(float(g)), float(c), 1.0, repr(loss), 10.0, "true"])
    (out / "pareto.csv").write_text("")


def test_sweep_check_accepts_the_reference_and_rejects_changes(tmp_path):
    ref = checks.reference("sweep_monthly")
    cards, losses = list(ref["cardinality"]), list(ref["loss_percent"])
    write_sweep(tmp_path, cards, losses)
    facts = checks.check_sweep(tmp_path, ref)
    assert facts["cardinality_range"] == [50, cards[-1]]

    rising = cards[:]
    rising[-1] = rising[-2] + 1  # cardinality rises at the largest gamma
    write_sweep(tmp_path, rising, losses)
    with pytest.raises(checks.CheckError, match="cardinality"):
        checks.check_sweep(tmp_path, ref)

    falling = losses[:]
    falling[-1] = losses[0] * 0.5
    write_sweep(tmp_path, cards, falling)
    with pytest.raises(checks.CheckError, match="loss"):
        checks.check_sweep(tmp_path, ref)

    write_sweep(tmp_path, cards[:-1], losses[:-1])
    with pytest.raises(checks.CheckError, match="rows"):
        checks.check_sweep(tmp_path, ref)


def write_roundtrip(tmp: Path, eigenvalues, error: float) -> tuple[Path, Path]:
    art, rec = tmp / "art", tmp / "rec"
    art.mkdir(exist_ok=True)
    rec.mkdir(exist_ok=True)
    rows = ["index,re,im,magnitude,e_folding,period,amp_re,amp_im,amp_abs"]
    rows += [f"{j},{lam.real!r},{lam.imag!r},1,1,1,1,0,1" for j, lam in enumerate(eigenvalues)]
    (art / "eigenvalues.csv").write_text("\n".join(rows) + "\n")
    report = {"relative_errors": {"0": error, "5": error}}
    (rec / "recon_report.json").write_text(json.dumps(report))
    for k in (0, 5):
        (rec / f"recon_{k}.csv").write_text("1\n")
    (rec / "forecast.csv").write_text("1,2,3\n4,5,6\n")
    return art, rec


def test_roundtrip_check_rejects_corrupted_artifacts(tmp_path):
    planted = gen.planted_eigenvalues()
    cubed = [mu**3 for mu in planted] + [0.5 + 0.1j]
    args = dict(planted=planted, cycles=3, indices=[0, 5], horizon=3)

    art, rec = write_roundtrip(tmp_path, cubed, 1e-12)
    assert checks.check_roundtrip(art, rec, **args)["max_eigenvalue_miss"] < 1e-12

    art, rec = write_roundtrip(tmp_path, [lam * 1.01 for lam in cubed], 1e-12)
    with pytest.raises(checks.CheckError, match="planted eigenvalue"):
        checks.check_roundtrip(art, rec, **args)

    art, rec = write_roundtrip(tmp_path, cubed, 1e-3)
    with pytest.raises(checks.CheckError, match="reconstruction"):
        checks.check_roundtrip(art, rec, **args)


def test_tree_digest_sees_one_changed_byte(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "a.csv").write_text("1.5,2\n")
    before = checks.tree_digest(tmp_path)
    assert checks.tree_digest(tmp_path) == before
    (tmp_path / "sub" / "a.csv").write_text("1.5,3\n")
    assert checks.tree_digest(tmp_path) != before


def test_generator_is_deterministic_per_seed(tmp_path):
    one = gen.write_inputs(1, tmp_path / "a").read_bytes()
    assert gen.write_inputs(1, tmp_path / "b").read_bytes() == one
    assert gen.write_inputs(2, tmp_path / "c").read_bytes() != one
    half = np.loadtxt(tmp_path / "a" / "half.csv", delimiter=",")
    assert np.array_equal(half, gen.generate(1)[:, :gen.HALF_MONTHS])
    # another seed permutes the grid points of the same field
    assert sorted(map(tuple, gen.generate(1))) == sorted(map(tuple, gen.generate(2)))


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expected = dict(tracing.LAYER_METRICS)
    expected.update({"t1." + m: tracing.LAYER_METRICS[m] for m in run.SINGLE_THREAD})
    assert per_layer == expected
