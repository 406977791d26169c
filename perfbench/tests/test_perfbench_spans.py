"""Self-tests of the benchmark's tracing: span arithmetic, cross-thread
parents, rebinding and restoring, and the metric lists in BENCHMARK.json.

Run: python3 -m pytest perfbench/tests -q   (from the repository root)
"""

import json
import sys
import threading
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
if (ROOT / "src" / "sfglab").is_dir() and str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from tracer import Patcher, Tracer, propagating_executor, self_times, traced, union_length  # noqa: E402
from workloads import forwards_per_eval, guided_evals  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_union_length_merges_overlaps_and_clips():
    assert union_length([(1, 6), (4, 8)], 0, 10) == 7
    assert union_length([(1, 2), (3, 4)], 0, 10) == 2
    assert union_length([(-5, 2), (9, 15)], 0, 10) == 3
    assert union_length([], 0, 10) == 0


def test_nested_self_time():
    clock = FakeClock()
    tr = Tracer(clock)
    outer, t_outer = tr.open("outer")
    clock.now = 2.0
    mid, t_mid = tr.open("mid")
    clock.now = 3.0
    inner, t_inner = tr.open("inner")
    clock.now = 4.0
    tr.close(inner, t_inner)
    clock.now = 5.0
    tr.close(mid, t_mid)
    clock.now = 6.0
    sib, t_sib = tr.open("sibling")
    clock.now = 7.5
    tr.close(sib, t_sib)
    clock.now = 10.0
    tr.close(outer, t_outer)

    assert (mid.parent, inner.parent, sib.parent) == (outer, mid, outer)
    selfs = self_times(tr.spans)
    assert selfs[id(outer)] == pytest.approx(10.0 - 3.0 - 1.5)
    assert selfs[id(mid)] == pytest.approx(3.0 - 1.0)
    assert selfs[id(inner)] == pytest.approx(1.0)
    assert selfs[id(sib)] == pytest.approx(1.5)
    after, _ = tr.open("after")
    assert after.parent is None


def test_sibling_spans_from_two_threads_hang_under_the_submitter():
    tr = Tracer()
    both_open = threading.Barrier(2, timeout=10)
    release = threading.Event()

    def work(_):
        span, token = tr.open("child")
        both_open.wait()
        release.wait(timeout=10)
        tr.close(span, token)
        return span

    parent, token = tr.open("parent")
    with propagating_executor(ThreadPoolExecutor)(max_workers=2) as pool:
        futures = [pool.submit(work, i) for i in range(2)]
        release.set()
        kids = [f.result(timeout=10) for f in futures]
    tr.close(parent, token)

    assert all(k.parent is parent for k in kids)
    assert kids[0].thread != kids[1].thread
    # the two children overlap, so the covered time is their union, not their sum
    covered = max(k.end for k in kids) - min(k.start for k in kids)
    assert covered < sum(k.duration for k in kids)
    assert self_times(tr.spans)[id(parent)] == pytest.approx(parent.duration - covered)


def test_plain_executor_threads_start_without_a_parent():
    tr = Tracer()
    parent, token = tr.open("parent")
    with ThreadPoolExecutor(max_workers=1) as pool:
        orphan = pool.submit(lambda: tr.open("child")[0]).result(timeout=10)
    tr.close(parent, token)
    assert orphan.parent is None


def test_patcher_rebinds_every_binding_and_restores_identity(monkeypatch):
    def original(x):
        return x + 1

    class Owner:
        def method(self):
            return "m"

    pkg = types.ModuleType("fakepkg")
    sub = types.ModuleType("fakepkg.sub")
    pkg.original = original
    sub.alias = original  # the `from .pkg import original as alias` binding
    monkeypatch.setitem(sys.modules, "fakepkg", pkg)
    monkeypatch.setitem(sys.modules, "fakepkg.sub", sub)

    tr = Tracer()
    p = Patcher("fakepkg")
    assert p.patch_function(original, traced(tr, original, "fake.original")) == 2
    p.patch_attr(Owner, "method", traced(tr, Owner.method, "fake.method"))
    assert pkg.original(1) == sub.alias(1) == 2
    assert Owner().method() == "m"
    assert [s.name for s in tr.spans] == ["fake.original", "fake.original", "fake.method"]

    assert p.restore() == []
    assert pkg.original is original and sub.alias is original
    assert vars(Owner)["method"].__name__ == "method" and not hasattr(vars(Owner)["method"], "__wrapped__")
    with pytest.raises(LookupError):
        p.patch_function(lambda: None, None)


def test_install_and_restore_on_sfglab():
    instrument = pytest.importorskip("instrument")
    cli = pytest.importorskip("sfglab.cli")
    from sfglab import model, oracle, sampler

    before = (cli.train, cli.load_checkpoint, oracle.score, sampler.classifier_grad,
              sampler.ThreadPoolExecutor, vars(model.ScoreModel)["_forward"])
    p = instrument.install(Tracer())
    assert cli.train is not before[0] and sampler.classifier_grad is not before[3]
    assert p.restore() == []
    after = (cli.train, cli.load_checkpoint, oracle.score, sampler.classifier_grad,
             sampler.ThreadPoolExecutor, vars(model.ScoreModel)["_forward"])
    assert all(a is b for a, b in zip(before, after))


def test_cost_contract_formulas():
    assert guided_evals(("sfg",), 40, heun=True) / 40 == pytest.approx(2.975)
    assert guided_evals(("autoguidance", "sfg"), 100, heun=True) / 100 == pytest.approx(2.99)
    assert forwards_per_eval(("autoguidance", "sfg")) == 2
    assert guided_evals(("classifier",), 40, heun=False) / 40 == 1.0
    assert forwards_per_eval(("classifier",)) == 1


def test_benchmark_json_lists_what_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    instrument = pytest.importorskip("instrument")
    run = pytest.importorskip("run")
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == instrument.LAYER_UNITS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
