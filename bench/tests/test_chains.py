"""The workload generators are reproducible, distinct per operation, and
refuse chains that break their workload's invariants; the references find
known limits; the tracer sums spans as documented.

    python3 -m pytest bench/tests
"""

import hashlib
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import chains  # noqa: E402
import reference  # noqa: E402

GENERATORS = {
    "dag": chains.dag_chain,
    "dense": chains.dense_chain,
    "fallback": chains.fallback_chain,
    "periodic": chains.periodic_chain,
}
# the same digest, computed in a fresh interpreter
CHILD = """
import hashlib, sys
sys.path.insert(0, sys.argv[1])
import chains
generate = getattr(chains, sys.argv[2] + "_chain")
print(hashlib.sha256(b"".join(generate(1234, i).to_bytes() for i in range(6))).hexdigest())
"""


def _digest(name: str) -> str:
    generate = GENERATORS[name]
    return hashlib.sha256(b"".join(generate(1234, i).to_bytes() for i in range(6))).hexdigest()


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_fixed_seed_reproduces_chains_byte_for_byte(name):
    here = _digest(name)
    assert _digest(name) == here
    bench = str(Path(__file__).resolve().parents[1])
    fresh = subprocess.run([sys.executable, "-c", CHILD, bench, name], capture_output=True, text=True,
                           timeout=120, check=True)
    assert fresh.stdout.strip() == here


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_chains_are_distinct_across_operations_and_seeds(name):
    generate = GENERATORS[name]
    seen = {generate(seed, i).to_bytes() for seed in (1, 2) for i in range(6)}
    assert len(seen) == 12


def test_certifiable_check_rejects_a_matrix_block_below_the_top_root():
    Q = np.array([[0.5, 0.0, 0.0], [0.1, 0.2, 0.1], [0.1, 0.1, 0.2]])
    with pytest.raises(chains.InvariantError):
        chains._check_certifiable(Q, [range(0, 1), range(1, 3)], 0.5)


def test_check_rejects_a_reducible_block():
    Q = np.array([[0.5, 0.0], [0.2, 0.5]])
    with pytest.raises(chains.InvariantError):
        chains._check_common(Q, np.array([0.5, 0.5]), [range(0, 2)])


@pytest.mark.parametrize(
    "Q, pi, period, limit",
    [
        # two scalar blocks at one root: the conditioned chain splits its time evenly
        ([[0.6, 0.0], [0.1, 0.6]], [0.0, 1.0], 1, [0.5, 0.5]),
        # an asymmetric 2-cycle: the phase-averaged limit is even too
        ([[0.0, 0.244], [0.648, 0.0]], [0.74, 0.26], 2, [0.5, 0.5]),
    ],
)
def test_extrapolated_profile_finds_known_limits(Q, pi, period, limit):
    got, err = reference.extrapolated_profile(np.array(Q), np.array(pi), period)
    assert np.max(np.abs(got - limit)) < 1e-8
    assert err < 1e-8


def test_extrapolated_profile_agrees_with_the_eigendecomposition():
    Q = np.random.default_rng(0).uniform(0.0, 0.2, (6, 6))
    v, u = reference.perron_pair(Q)
    got, _ = reference.extrapolated_profile(Q, np.full(6, 1 / 6))
    assert np.max(np.abs(got - u * v / (u @ v))) < 1e-8


def test_tracer_sums_outermost_spans_and_self_times():
    import tracing

    tracer = tracing.Tracer(clock=lambda: 0.0)
    # full_qed [0, 10] s holds state_qed [2, 6], which holds block_qed [3, 5]
    tracer.spans.extend([
        ["limits.full_qed", 0.0, 10.0, -1, None],
        ["limits.state_qed", 2.0, 6.0, 0, None],
        ["limits.block_qed", 3.0, 5.0, 1, None],
        ["structure.condense", 6.0, 7.0, 0, {"structure.blocks": 3, "structure.edges": 2}],
    ])
    tracer.end_op()
    m = tracer.metrics()
    assert m["limits.measure_ms"] == 4000.0  # block_qed inside state_qed is not counted twice
    assert m["limits.full_qed_self_ms"] == 5000.0  # 10 s minus its direct children, 4 s and 1 s
    assert m["structure.condense_calls"] == 1 and m["structure.blocks"] == 3
    assert m["paths.dominant_frac"] == 0.0  # no paths classified


def test_fallback_check_passes_an_outlier_only_if_it_replays_its_seed():
    import json

    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
    import workloads

    wl = workloads.WORKLOADS["fallback"]
    tol = json.loads((Path(__file__).resolve().parents[1] / "spec.json").read_text())["workloads"]["fallback"][
        "tolerances"]
    # chain 58 of this seed: the CLI's Monte Carlo puts one state 5.3 exact stderr out
    inp, ref = wl.prepare(wl.generate(585053263, 58), 585053263, 58, tol)
    code, text = wl.run(inp)
    doc = json.loads(text)
    mc = doc["result"]["monte_carlo"]
    z = np.abs(np.asarray(mc["values"]) - ref[1]) / np.sqrt(ref[2] / mc["trials_surviving"])
    assert z.max() > tol["mc_z"]
    assert wl.check((code, text), ref, tol) is None
    mc["values"][int(np.argmax(z))] += 1e-9
    assert wl.check((code, json.dumps(doc)), ref, tol) is not None
