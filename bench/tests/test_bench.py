"""Tests of the benchmark itself: inputs, metric names and failure counting.

    python -m pytest bench/tests -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import inputs  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import OFF  # noqa: E402
from strictcat.demos import parity_term  # noqa: E402
from strictcat.functors import nonstrictify  # noqa: E402
from strictcat.strict import canonical_d  # noqa: E402
from strictcat.syntax import parse_cmor  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)
SMALL_BLOCKS = {"oracle-coherence": 10, "adapter-walks": 1,
                "generator-queries": 1}


@pytest.fixture(scope="module", params=NAMES)
def workload(request):
    return workloads.WORKLOADS[request.param]()


def test_fingerprint_follows_the_seed(workload):
    blocks = SMALL_BLOCKS[workload.name]
    first = inputs.fingerprint(workload.make_inputs(1, blocks))
    assert inputs.fingerprint(workload.make_inputs(1, blocks)) == first
    assert inputs.fingerprint(workload.make_inputs(2, blocks)) != first


def test_query_text_parses_to_the_built_terms():
    for q in inputs.query_inputs(3, 1):
        assert parse_cmor(q.f_text) == q.f
        assert parse_cmor(q.g_text) == q.g


def test_parity_inputs_are_the_read_back_parity_circuit():
    sig = workloads.GeneratorQueries().sigs["parity"]
    for n in (2, 3, 7, 12):
        assert inputs.parity_strict(n) == parity_term(n)
        assert inputs.parity_circuit(n) == nonstrictify(parity_term(n), sig)


def test_distinct_pairs_differ_in_the_oracle():
    oracle = reference.Oracle()
    for q in inputs.query_inputs(4, 2):
        if q.kind == "distinct":
            assert oracle.equal(q.f, q.g, q.dom) is False


def test_reference_canonical_matches_the_engine():
    for w in inputs.walk_inputs(5, 1):
        if w.dom != w.cod:
            assert reference.canonical(w.dom, w.cod) == canonical_d(w.dom, w.cod)


def test_wrong_expected_answer_is_counted(workload):
    pool = workload.make_inputs(6, SMALL_BLOCKS[workload.name])
    inp = next(i for i in pool if not isinstance(i, inputs.NatIso))
    if isinstance(inp, inputs.WalkPair):
        wrong = inp._replace(a=inputs.Tensor(inp.a, inputs.UNIT))
    elif isinstance(inp, inputs.Walk):
        wrong = inp._replace(cod=inp.cod + (inputs.UNIT,))
    else:
        wrong = inp._replace(cod=inputs.Tensor(inp.cod, inputs.UNIT))
    tally = run.Tally()
    tally.add(workload, inp, run.run_op(workload, inp, OFF))
    assert (tally.attempted, tally.failed) == (1, 0)
    tally.add(workload, wrong, run.run_op(workload, wrong, OFF))
    assert (tally.attempted, tally.failed) == (2, 1)


def _last_line(*args):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        capture_output=True, text=True, timeout=170, check=True, cwd=ROOT)
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_smoke_run_emits_every_metric(name, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    result = _last_line("--workload", name, "--seed", "7", "--seconds",
                        "0.5", "--trace", str(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted


def test_refuses_to_run_without_engine_sources(tmp_path):
    copy = tmp_path / "bench"
    copy.mkdir()
    for path in BENCH.glob("*.py"):
        (copy / path.name).write_text(path.read_text())
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", NAMES[0], "--seed",
         "1", "--seconds", "1"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
