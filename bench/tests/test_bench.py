"""The benchmark's own tests: smoke runs, seeded inputs, planted faults."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import inputs  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(*argv):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *argv], cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_names_every_workload_and_metric():
    assert sorted(WORKLOADS) == sorted(jobs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    from tracing import PER_LAYER

    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_smoke_run(workload, trace):
    result = _bench("--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", trace, "--size", "tiny")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= (100 if trace == "0" else 1)
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_missing_program_is_an_error(tmp_path):
    bench_copy = tmp_path / "bench"
    bench_copy.mkdir()
    for source in BENCH.glob("*.py"):
        (bench_copy / source.name).write_text(source.read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "image", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def _population_bytes(seed: int) -> bytes:
    docs, machine_warmup, machine_jobs = inputs.machines_population(seed, "full")
    parts = (
        inputs.crosscheck_population(seed, "full"),
        inputs.image_population(seed, "full"),
        sorted(docs.items()),
        machine_warmup,
        machine_jobs,
    )
    return repr(parts).encode()


def test_one_seed_gives_identical_inputs():
    assert _population_bytes(7) == _population_bytes(7)
    assert _population_bytes(7) != _population_bytes(8)


def test_populations_keep_the_frozen_witnesses():
    _, population = inputs.crosscheck_population(5, "full")
    values = {(job.series.p, job.series.n, job.series.values) for job in population}
    assert inputs.FINDING_1 in values and inputs.FINDING_3 in values
    assert {(job.series.p, job.series.n) for job in population} == set(inputs.CONFIGS)


def test_delay_1_families_get_their_verdicts_by_construction():
    fixed = {"mp-passing": ("pass", "pass", None), "mp-failing": ("pass", "fail", None),
             "ergodic-passing": ("pass", "pass", "pass")}
    for seed in range(3):
        for job in inputs.crosscheck_population(seed, "full")[1]:
            s = job.series
            if s.n == 1 and s.family in fixed:
                verdicts = jobs.conditions_at_delay_1(s.p, list(s.values))
                assert all(want in (None, got) for got, want in zip(verdicts, fixed[s.family])), s


def test_simulated_coefficients_of_the_echo_machine():
    # the one-letter echo realizes f(x) = floor(x / 2)
    echo = ("schema padic-transducer-v1\np 2\nkind async\ninitial w\n"
            "trans w 0 e :\ntrans w 1 e :\ntrans e 0 e : 0\ntrans e 1 e : 1\n")
    values = [jobs.simulate(echo, x, 8) for x in range(6)]
    assert values == [x // 2 for x in range(6)]
    # Delta^i of floor(x/2) at 0: 0, 0, 1, -2, 4, -8 (mod 2^8)
    assert jobs.forward_differences(values, 256) == [0, 0, 1, 254, 4, 248]


def _failed_in_one_pass(prog, workload):
    return run.Runner(jobs.WORKLOADS[workload](prog, 5, "tiny")).run(0, rounds=1).failed


def test_planted_wrong_verdict_fails_crosscheck(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    prog = run.load_program()
    assert _failed_in_one_pass(prog, "crosscheck") == 0
    # the delay conditions PASS the mp-failing draws at n = 1
    monkeypatch.setattr(prog.mahler, "check_measure_preserving_conditions", prog.mahler.check_delay_conditions)
    assert _failed_in_one_pass(prog, "crosscheck") > 0


def test_planted_wrong_coefficient_fails_machines(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    prog = run.load_program()
    assert _failed_in_one_pass(prog, "machines") == 0
    honest = prog.mahler.coeffs_from_oracle

    def planted(f, count, precision):
        series = honest(f, count, precision)
        values = list(series.coefficient_values())
        values[-1] = (values[-1] + 1) % f.p ** precision
        return prog.mahler.MahlerSeries.from_ints(series.p, series.n, precision, values)

    monkeypatch.setattr(prog.mahler, "coeffs_from_oracle", planted)
    assert _failed_in_one_pass(prog, "machines") > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_planted_wrong_oracle_value_fails_jobs(workload, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    prog = run.load_program()
    assert _failed_in_one_pass(prog, workload) == 0
    honest = prog.oracle.FunctionOracle.values

    def planted(self, m, count):
        out = honest(self, m, count)
        if count > 1:
            out[1] = (out[1] + 1) % self.p ** m
        return out

    monkeypatch.setattr(prog.oracle.FunctionOracle, "values", planted)
    assert _failed_in_one_pass(prog, workload) > 0
