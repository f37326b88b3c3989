"""The benchmark's own tests: ground truth, checks, wall limit and tracing.

Run with `python3 -m pytest bench` from the repository root.
"""

from __future__ import annotations

import itertools
import random
import shutil
import subprocess
import sys
import time

import pytest

import run
from germs import Factor, Germ, random_germ, slope_of_height
from tracer import WRAPPED, Tracer
from workloads import WORKLOADS, Case, cycles, execute

rc = run.load_library()

HAND_BUILT = [
    # (germ, expected verdict, expected real fiber points)
    (Germ((Factor("line", 0, 1), Factor("conj", 0, 1, 1))), "manifold-point-at-singularity", 1),
    (Germ((Factor("irr2", 0, 2, 2), Factor("line", 3, 1))), "not-manifold-point", 3),
    (Germ((Factor("line", 1, 1),)), "smooth-manifold-point", None),
    (Germ((Factor("cusp", 0, 1),)), "not-manifold-point", 1),
    (Germ((Factor("conj", 1, 2, 3),)), "isolated-point", 0),
    (Germ((Factor("irr3", 0, 1, 5),)), "manifold-point-at-singularity", 1),
    (Germ((Factor("tacnode", 2, 1),)), "not-manifold-point", 2),
    (Germ((Factor("tacnode", 1, 1), Factor("tacnode", 2, 1))), "not-manifold-point", 4),
]


def _first(workload: str, seed: int, n: int) -> list[Case]:
    return list(itertools.islice(itertools.chain.from_iterable(cycles(workload, seed, run.ROOT)), n))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_determines_the_cases(workload):
    assert _first(workload, 3, 40) == _first(workload, 3, 40)
    assert _first(workload, 3, 40) != _first(workload, 4, 40)


def test_hand_built_expectations_come_from_the_factors():
    assert HAND_BUILT[0][0].ideal_text() == "vars: x, y\n(1*y - 0*x) * ((1*y - 0*x)^2 + 1*x^2)\n"
    for germ, verdict, real in HAND_BUILT:
        assert (germ.expected_verdict(), germ.expected_real_points()) == (verdict, real)


def test_oracle_counts_twice_the_real_branches():
    rng = random.Random(11)
    sample = [g for g, _, _ in HAND_BUILT]
    sample += [random_germ(rng, kinds) for kinds in (("cusp", "irr2"), ("conj", "irr3"), ("line", "tacnode"))]
    for germ in sample:
        i = rc.parse_ideal(germ.ideal_text())
        assert rc.halfbranch_count(i, [0, 0]) == 2 * germ.real_branches, germ.ideal_text()


@pytest.mark.parametrize("germ", [g for g, _, _ in HAND_BUILT])
def test_decider_matches_hand_built_germs(germ):
    assert execute(rc, Case("hand", "germ", germ), time.perf_counter()) is None


@pytest.mark.parametrize("workload", ["plane-germs", "fourbar-family"])
def test_goldens_and_first_cases_pass(workload):
    n = 8 if workload == "plane-germs" else 2  # goldens first, then generated cases
    for case in _first(workload, 0, n):
        assert run.run_one(rc, case)[1] is None, case.label


class _Mislabelled(Germ):
    def expected_verdict(self) -> str:
        return "isolated-point"


def test_a_wrong_answer_is_reported():
    germ = _Mislabelled((Factor("irr2", 0, 1, 2),))
    assert run.run_one(rc, Case("mislabelled", "germ", germ))[1].endswith(
        "expected ('isolated-point', 2, 2), got ('not-manifold-point', 2, 2)"
    )
    node = next(c for c in _first("plane-germs", 0, 5) if c.label == "golden:node")
    tampered = Case("tampered", "golden-plane", node.payload.replace("not-manifold", "isolated"))
    assert run.run_one(rc, tampered)[1] == "machine report differs from golden"


def test_case_over_the_limit_fails_and_the_run_goes_on():
    rng = random.Random(5)
    slopes = [slope_of_height(rng, 9.0, 9.1) for _ in range(2)]
    huge = Germ(tuple(Factor("tacnode", p, q) for p, q in slopes))
    started = time.perf_counter()
    _, error = run.run_one(rc, Case("height 1e9", "germ", huge), limit=0.5)
    assert error == "over the 0.5 s case limit"
    assert time.perf_counter() - started < 5
    assert run.run_one(rc, Case("next", "germ", HAND_BUILT[0][0]))[1] is None


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    results = [run.CaseResult(n, "", float(n), None) for n in range(40)]
    stats = run.latency_stats(results)
    assert stats["tail"] == 29.0 and stats["tail_pct"] == 75.0 and stats["n"] == 40
    results[0] = run.CaseResult(0, "", 0.1, "over the limit")
    # counted at its 0.1 s the median would be 19.5; a failure counts as at least the limit
    assert run.latency_stats(results)["p50"] == 20.0


def test_tracer_wraps_every_binding_site_and_restores_them():
    originals = {q: getattr(getattr(rc, q.split(".")[0]), q.split(".")[1]) for q in WRAPPED}
    tracer = Tracer()
    assert tracer.install() > len(WRAPPED)
    try:
        assert rc.blowup.saturate is not originals["ideals.saturate"]
        assert rc.zerodim.quotient is rc.ideals.quotient is not originals["ideals.quotient"]
        tracer.begin_case(0)
        germ = Germ((Factor("tacnode", 1, 1), Factor("cusp", -1, 1)))
        assert execute(rc, Case("traced", "germ", germ), time.perf_counter()) is None
    finally:
        tracer.uninstall()
    assert rc.blowup.saturate is originals["ideals.saturate"]
    assert rc.zerodim.quotient is originals["ideals.quotient"]
    layer = tracer.metrics()
    assert layer["decide.classify_point.calls"] == 1
    assert layer["parsing.parse_ideal.calls"] == 1
    assert layer["ideals.saturate.calls"] > 0 and layer["ideals.saturate.iterations"] > 0
    assert layer["blowup.depth_max"] == 2
    assert 0 < layer["groebner.buchberger.repeat_share"] < 1
    residuals = tracer.self_time_residuals(("decide.classify_point",))
    assert len(residuals) == 1 and residuals[0] < 1e-9


def test_fails_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    argv = ["bench/run.py", "--workload", "plane-germs", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run([sys.executable, *argv], cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
