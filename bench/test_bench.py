"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import check
import probe
import run
import workloads

sys.path.insert(0, run.SRC)


def _small(workload: workloads.Workload, lines: int) -> workloads.Workload:
    """The first ``lines`` records of a pow workload."""
    stdin = b"".join(workload.stdin.splitlines(keepends=True)[:lines])
    return workloads.Workload(workload.name, workload.argv, stdin, lines,
                              workload.expected[:lines], workload.layers)


def _pass(tmp_path, workload, mode="off"):
    (tmp_path / "stdin.txt").write_bytes(workload.stdin)
    return run._spawn(str(tmp_path), mode, workload, 0)


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_same_seed_gives_identical_inputs(name):
    first, again, other = (workloads.generate(name, s) for s in (7, 7, 8))
    assert (first.argv, first.stdin, first.expected) == (again.argv, again.stdin, again.expected)
    assert (first.argv, first.stdin) != (other.argv, other.stdin)


def test_pow_check_catches_corrupted_residue_and_dropped_line(tmp_path):
    workload = _small(workloads.generate("batch-mixed", 3), 200)
    report = _pass(tmp_path, workload, mode="lat")
    assert len(report["latency_s"]) == 200
    lines = report["output"].splitlines(keepends=True)
    assert len(lines) == 200
    assert check.failed_records(workload, report["exit"], report["output"]) == 0

    record = json.loads(lines[57])
    record["residue"] = str((int(record["residue"]) + 1) % max(2, int(record["m"])))
    corrupted = lines[:57] + [json.dumps(record) + "\n"] + lines[58:]
    assert check.failed_records(workload, 0, "".join(corrupted)) == 1

    dropped = lines[:120] + lines[121:]
    assert check.failed_records(workload, 0, "".join(dropped)) >= 1
    assert check.failed_records(workload, 0, "".join(lines[:-1])) == 1
    assert check.failed_records(workload, 1, report["output"]) == 1


def test_verify_check_needs_every_pair_and_no_failures(tmp_path):
    workload = workloads.Workload("verify-sweep", ("verify", "--a", "-5..5", "--m", "1..10"),
                                  b"", 110, (), frozenset())
    report = _pass(tmp_path, workload)
    assert report["output"] == "110 checked, 0 failures\n"
    assert check.failed_records(workload, report["exit"], report["output"]) == 0
    assert check.failed_records(workload, 0, "109 checked, 0 failures\n") == 1
    assert check.failed_records(workload, 0, "110 checked, 2 failures\n") == 2
    assert check.failed_records(workload, 3, "110 checked, 0 failures\n") == 110
    assert check.failed_records(workload, 0, "") == 110


def test_traced_pass_reports_every_per_layer_metric(tmp_path):
    workload = _small(workloads.generate("factor-hard", 1), 16)
    report = _pass(tmp_path, workload, mode="on")
    assert check.failed_records(workload, report["exit"], report["output"]) == 0
    layers = run.per_layer([report], [report])
    run.check_layers(workload, layers)
    for metric in run._load_spec()["per_layer"]:
        assert metric["name"] in layers
        assert metric["unit"] == run.unit_of(metric["name"])


def test_end_to_end_metrics_match_the_spec():
    passes = [{"wall_s": 2.0, "reference_s": 0.03, "reference_before_s": 0.02,
               "setup_wall_s": 0.1, "latency_s": [0.001, 0.002], "maxrss_kb": 2048}]
    metrics, notes = run.end_to_end(passes, passes, passes, workloads.verify_sweep(0))
    assert metrics["setup_s"] == pytest.approx(0.1 * run.REF_NOMINAL_S / 0.02)
    for metric in run._load_spec()["end_to_end"]:
        assert metrics[metric["name"]] > 0
        assert metric["unit"] == run.unit_of(metric["name"])
        assert metric["name"] in notes


def test_silent_expected_seam_fails_loudly():
    workload = workloads.verify_sweep(0)
    layers = {f"{name}.calls": 1 for name in workload.layers}
    run.check_layers(workload, layers)
    layers["reduction.verify_theorem.calls"] = 0
    with pytest.raises(run.BenchError, match="verify_theorem"):
        run.check_layers(workload, layers)


def test_seams_wrap_every_reference_and_restore_them(capsys):
    from gencong import arith, cli, reduction

    modules = (sys.modules["gencong"], arith, cli, reduction)
    before = [dict(vars(mod)) for mod in modules]
    tracer = probe.Tracer()
    tracer.install()
    try:
        assert cli.mod_pow is reduction.mod_pow is arith.mod_pow  # re-exports share one wrapper
        assert cli.mod_pow is not before[2]["mod_pow"]
        assert cli.main(["pow", "6", "25604", "105765"]) == 0
    finally:
        tracer.restore()
    assert "residue = 1296" in capsys.readouterr().out
    for mod, snapshot in zip(modules, before):
        for key, value in snapshot.items():
            assert vars(mod)[key] is value, f"{mod.__name__}.{key} not restored"
    stats = tracer.report(1.0)
    for name in ("cli.parse", "reduction.build_chain", "reduction.reduce_exponent",
                 "arith.totient", "arith.mod_pow"):
        assert stats[f"{name}.calls"] >= 1
    assert stats["cli.parse.calls"] == 3
    assert stats["reduction.verify_theorem.calls"] == 0


def test_missing_seam_fails_loudly():
    import gencong.cli  # noqa: F401

    tracer = probe.Tracer(probe.SEAMS + (("cli.gone", "gencong.cli", "no_such_function", None),))
    with pytest.raises(probe.SeamError, match="no_such_function"):
        tracer.install()
    tracer.restore()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(run.ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "verify-sweep",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
