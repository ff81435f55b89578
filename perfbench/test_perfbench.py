"""Tests for the benchmark's own code (not part of the tier-1 suite).

Run from the repository root: ``python -m pytest perfbench``.  The
workload tests shrink every cell to a few hundred accesses per core.
"""

import dataclasses
import io
import json
from contextlib import redirect_stdout

import pytest

import layers
import run
import workloads
from spans import SpanLog, timed

from repro.experiments import runner, scale
from repro.harness import runner as harness_runner

TINY = {"warmup_per_core": 150, "measure_per_core": 150}


def _tiny(name: str) -> workloads.Workload:
    return dataclasses.replace(workloads.WORKLOADS[name], **TINY)


def _digests(name: str, seed: int, workdir, traced: bool = False):
    workload = _tiny(name)
    workdir.mkdir()
    log = SpanLog()
    with layers.Probes(log, traced):
        cells = workload.run(workload.config(seed), str(workdir), log)
    assert [cell.errors for cell in cells if cell.errors] == []
    return {cell.name: cell.digest for cell in cells}


class ScriptedClock:
    def __init__(self, *ticks: float) -> None:
        self.ticks = list(ticks)

    def __call__(self) -> float:
        return self.ticks.pop(0)


def test_self_time_subtracts_direct_children_only():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and a second c [5, 9].
    log = SpanLog(clock=ScriptedClock(0, 1, 2, 3, 4, 5, 9, 10))
    a, b, c = log.name_id("a"), log.name_id("b"), log.name_id("c")
    outer = log.open(a)
    middle = log.open(b)
    log.close(log.open(c))
    log.close(middle)
    log.close(log.open(c))
    log.close(outer)
    assert list(log.self_times()) == [3.0, 2.0, 1.0, 4.0]
    assert log.self_by_name() == {"a": 3.0, "b": 2.0, "c": 5.0}
    assert log.total_by_name() == {"a": 10.0, "b": 3.0, "c": 5.0}
    assert log.count_by_name() == {"a": 1, "b": 1, "c": 2}
    assert list(log.parent) == [-1, 0, 1, 0]


def test_within_sums_inner_spans_per_outer_span():
    # cell [0, 10] holds build [1, 2] and run [3, 4]; cell [11, 20] holds
    # build [12, 15]; build [21, 22] is outside every cell.
    log = SpanLog(clock=ScriptedClock(0, 1, 2, 3, 4, 10, 11, 12, 15, 20, 21, 22))
    cell, build, other = (log.name_id(n) for n in ("cell", "build", "run"))
    for spans in ((build, other), (build,)):
        outer = log.open(cell)
        for nid in spans:
            log.close(log.open(nid))
        log.close(outer)
    log.close(log.open(build))
    assert list(log.within("cell", ("build",))) == [1.0, 3.0]
    assert list(log.within("cell", ("missing",))) == [0.0, 0.0]


def test_timed_closes_its_span_when_the_call_raises():
    log = SpanLog()

    def boom():
        raise ValueError("boom")

    outer = timed(log, "outer", lambda: timed(log, "inner", boom)())
    with pytest.raises(ValueError):
        outer()
    timed(log, "after", lambda: None)()
    assert log.names == ["outer", "inner", "after"]
    assert list(log.parent) == [-1, 0, -1]


def test_spans_closed_out_of_order_are_rejected():
    log = SpanLog()
    first = log.open(log.name_id("a"))
    log.open(log.name_id("b"))
    with pytest.raises(RuntimeError):
        log.close(first)


def test_probes_restore_every_patched_name():
    patched = [
        (module, attr)
        for module in (runner, scale)
        for attr in ("make_workload", "build_design", "CmpSystem")
    ] + [
        (runner, "make_mix"),
        (scale, "load_checkpoint"),
        (harness_runner, "check_system_incremental"),
        (harness_runner, "save_checkpoint"),
        (harness_runner.HarnessRunner, "run"),
        (runner.StatsCache, "append_record"),
    ]
    originals = {key: vars(key[0])[key[1]] for key in patched}
    probes = layers.Probes(SpanLog(), traced=True).install()
    assert runner.build_design is not originals[(runner, "build_design")]
    probes.remove()
    for (owner, attr), value in originals.items():
        assert vars(owner)[attr] is value


def test_traced_and_resumed_scaled_cells_match_untraced(tmp_path):
    untraced = _digests("scale16-harness", 3, tmp_path / "plain")
    traced = _digests("scale16-harness", 3, tmp_path / "traced", traced=True)
    assert untraced == traced
    assert len(untraced) == 2


def test_seed_reaches_workload_generation(tmp_path):
    first = _digests("mix-eventq", 1, tmp_path / "a")
    again = _digests("mix-eventq", 1, tmp_path / "b")
    other = _digests("mix-eventq", 2, tmp_path / "c")
    assert first == again
    assert all(first[name] != other[name] for name in first)


def test_tampered_expected_fingerprint_counts_as_failed_cell(
    tmp_path, monkeypatch
):
    seed = 4
    digests = _digests("sweep-oltp", seed, tmp_path / "ref")
    tampered = dict(digests)
    victim = sorted(tampered)[0]
    tampered[victim] = "0" * 16
    expected = tmp_path / "expected.json"
    expected.write_text(json.dumps(
        {"seeds": {str(seed): {"sweep-oltp": tampered}}}
    ))
    monkeypatch.setattr(run, "EXPECTED", expected)
    monkeypatch.setattr(run, "TMP", tmp_path / "scratch")
    monkeypatch.setattr(run, "IMPORT_SAMPLES", 1)
    monkeypatch.setitem(workloads.WORKLOADS, "sweep-oltp", _tiny("sweep-oltp"))
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(["--workload", "sweep-oltp", "--seed", str(seed),
                         "--seconds", "0", "--trace", "0"])
    lines = out.getvalue().strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 0
    assert result["correct"] is False
    assert result["attempted"] == len(digests)
    assert result["failed"] == 1
    assert any(line.startswith(f"FAILED {victim}") for line in lines)
    assert set(result["metrics"]) == {
        metric["name"] for metric in run.benchmark_spec()["end_to_end"]
    }
