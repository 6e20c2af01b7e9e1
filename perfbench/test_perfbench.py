"""The benchmark's own tests: ``python3 -m pytest -q perfbench``."""
import json
import os
import random

import pytest

import run
import tracing
import workloads as wl


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(wl.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(wl.NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    with open(os.path.join(wl.HERE, "interactions.json")) as fh:
        interactions = json.load(fh)
    mapped = [m for entry in interactions["interaction"] for m in entry["metrics"]]
    assert sorted(mapped) == sorted(name for name, _ in run.PER_LAYER)
    assert tuple(interactions["holdout_corpus_seeds"]) == wl.HOLDOUT_CORPUS_SEEDS


def _small(name, workdir):
    jobs = run.setup(name, wl.DEFAULT_CORPUS_SEEDS, workdir)
    return jobs if name == "cli_cold" else jobs[:2]  # two small 2-D corpus jobs


@pytest.mark.parametrize("name", wl.NAMES)
def test_smoke_untraced_and_traced(name, tmp_path):
    jobs = _small(name, str(tmp_path))
    checker = run.Checker(wl.load_reference())
    durations, probes = run.measure(jobs, 0, random.Random(1), checker, min_jobs=len(jobs))
    assert len(durations) == len(jobs) and len(probes) == len(jobs) + 1
    before = [(module, attr, getattr(module, attr)) for module, attr, _ in tracing.sites()]

    tracer, passes, _ = run.measure_traced(jobs, 0, random.Random(2), checker,
                                           in_process=name != "cli_cold")

    assert passes == 1
    assert checker.failed == 0 and checker.attempted == 3 * len(jobs)
    assert tracer.unreached(wl.EXPECTED_LAYERS[name]) == []
    for module, attr, original in before:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr} left wrapped"
    metrics = run.layer_metrics(tracer, passes, 0.0, 0.0)
    assert list(metrics) == [metric for metric, _ in run.PER_LAYER]


def test_normalise_cancels_a_host_slowdown_seen_by_the_probes():
    ref = run.PROBE_REF_S
    # the host runs at full speed, then at half speed from the fourth job on
    probes = [ref] * 4 + [2 * ref] * 6
    durations = [0.010] * 3 + [0.020] * 6
    scaled = run.normalise(durations, probes, window=1)
    assert scaled[:3] == pytest.approx([0.010] * 3)
    assert scaled[4:] == pytest.approx([0.010] * 5)
    # a job no probe saw slow down keeps its slowdown
    assert run.normalise([0.020], [ref, ref]) == pytest.approx([0.020])


def test_layers_outside_the_route_are_reported_unreached(tmp_path):
    jobs = _small("facesum", str(tmp_path))
    checker = run.Checker(wl.load_reference())
    tracer, _, _ = run.measure_traced(jobs, 0, random.Random(0), checker, in_process=True)
    assert tracer.unreached(wl.EXPECTED_LAYERS["todd"]) == list(tracing.TODD_LAYERS)


def test_corrupted_digest_and_raising_job_count_as_failures(tmp_path):
    job = _small("todd", str(tmp_path))[0]
    reference = wl.load_reference()
    corrupted = dict(reference, **{job.key: "0" * 64})
    checker = run.Checker(corrupted)
    checker.run(job)
    assert (checker.attempted, checker.failed) == (1, 1)

    def broken(tracer):
        raise RuntimeError("invariant broken")

    checker.run(wl.Job(job.key, broken))
    assert (checker.attempted, checker.failed) == (2, 2)

    checker = run.Checker(reference)
    checker.run(job)
    assert checker.failed == 0


def test_holdout_corpus_gives_the_same_job_counts():
    lg = wl.import_latticegfun()
    reference = wl.load_reference()
    counts = []
    for seeds in (wl.DEFAULT_CORPUS_SEEDS, wl.HOLDOUT_CORPUS_SEEDS):
        jobs = {"facesum": wl.facesum_jobs(lg, seeds), "todd": wl.todd_jobs(lg, seeds)}
        assert all(job.key in reference for batch in jobs.values() for job in batch)
        counts.append({name: len(batch) for name, batch in jobs.items()})
    assert counts[0] == counts[1]
