"""The four workloads: how each prepares an input and its reference (never
timed), runs one operation through qergodic's public API or CLI (timed), and
checks the result.

An operation touches qergodic only through module attributes looked up at
call time (`qg.full_qed`, `cli.main`), so the traced run can swap in its
wrappers without the workloads knowing.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import sys
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

import qergodic as qg
import chains
import reference
from chains import Chain

FALLBACK_N = 2000
FALLBACK_TRIALS = 2000
FALLBACK_MC_N = chains.FALLBACK_MC_N  # the CLI runs Monte Carlo at min(--n, 200)


class ReferenceInaccurate(Exception):
    """The reference itself is not accurate enough to judge a result."""


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: int  # chains per round of the generator's size cycle
    generate: Callable[[int, int], Chain]
    prepare: Callable[[Chain, int, int, dict], tuple]  # -> (input, reference)
    run: Callable[[Any], Any]
    check: Callable[[Any, Any, dict], Optional[str]]  # -> None or a reason


def _max_dev(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a, dtype=float) - b)))


# --- dag and periodic: validate + full_qed against the extrapolated profile -----


def _prepare_closed_form(chain: Chain, seed: int, index: int, tol: dict):
    ref, err = reference.extrapolated_profile(chain.Q, chain.pi, chain.period)
    if err > tol["reference_err"]:
        ref, err = reference.extrapolated_profile(chain.Q, chain.pi, chain.period, log2_m=26)
    if err > tol["reference_err"]:
        raise ReferenceInaccurate(f"extrapolated profile uncertain by {err:.3g}")
    return (chain.Q, chain.pi), ref


def _run_closed_form(inp):
    Q, pi = inp
    return qg.full_qed(qg.validate(Q, pi)).state_measure_input


def _check_closed_form(out, ref, tol: dict) -> Optional[str]:
    dev = _max_dev(out, ref)
    return None if dev <= tol["state_measure_abs"] else f"state measure off by {dev:.3g}"


# --- dense: validate + full_qed + QSD against numpy.linalg.eig ------------------


def _prepare_dense(chain: Chain, seed: int, index: int, tol: dict):
    v, u = reference.perron_pair(chain.Q)
    uv = u * v
    return (chain.Q, chain.pi), (uv / uv.sum(), u)


def _run_dense(inp):
    Q, pi = inp
    model = qg.validate(Q, pi)
    return qg.full_qed(model).state_measure_input, qg.quasi_stationary_distribution(model.Q)


def _check_dense(out, ref, tol: dict) -> Optional[str]:
    dev = _max_dev(out[0], ref[0])
    if dev > tol["state_measure_abs"]:
        return f"state measure off by {dev:.3g}"
    dev = _max_dev(out[1], ref[1])
    return None if dev <= tol["qsd_abs"] else f"QSD off by {dev:.3g}"


# --- fallback: `qergodic analyze` on an uncertifiable chain ---------------------


def _prepare_fallback(chain: Chain, seed: int, index: int, tol: dict):
    doc = json.dumps({"Q": chain.Q.tolist(), "pi": chain.pi.tolist()})
    mc_seed = (seed * 1_000_003 + index) % 2**31
    argv = ["analyze", "-", "--format", "json", "--n", str(FALLBACK_N), "--trials", str(FALLBACK_TRIALS),
            "--seed", str(mc_seed)]
    ref = (
        reference.occupation_profile_exact(chain.Q, chain.pi, FALLBACK_N),
        *reference.occupation_moments(chain.Q, chain.pi, FALLBACK_MC_N),
        functools.partial(reference.monte_carlo_replay, chain.Q, chain.pi, FALLBACK_MC_N, FALLBACK_TRIALS, mc_seed),
    )
    return (doc, argv), ref


def _run_fallback(inp):
    from qergodic import cli

    doc, argv = inp
    out = io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(doc)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    finally:
        sys.stdin = stdin
    return code, out.getvalue()


def _check_fallback(out, ref, tol: dict) -> Optional[str]:
    code, text = out
    if code != 2:
        return f"exit code {code}, expected 2"
    result = json.loads(text)["result"]
    fh = result["finite_horizon"]
    if fh["n"] != FALLBACK_N:
        return f"finite_horizon n = {fh['n']}"
    dev = _max_dev(fh["state_occupation"], ref[0])
    if dev > tol["finite_horizon_abs"]:
        return f"finite_horizon off by {dev:.3g}"
    mc = result["monte_carlo"]
    if "error" in mc:
        return f"monte_carlo: {mc['error']}"
    if mc["n"] != FALLBACK_MC_N:
        return f"monte_carlo n = {mc['n']}"
    # exact standard errors: the sample ones are too small when a state is rarely visited
    stderr = np.sqrt(ref[2] / mc["trials_surviving"])
    worst = float(np.max(np.abs(np.asarray(mc["values"]) - ref[1]) / stderr))
    if worst <= tol["mc_z"]:
        return None
    # The sample means of rarely visited states are skewed, so correct runs
    # land beyond mc_z now and then.  Such a value passes only if it is
    # exactly what the trajectories of this seed give.
    values, surviving = ref[3]()
    if surviving == mc["trials_surviving"] and _max_dev(mc["values"], values) <= tol["mc_replay_abs"]:
        return None
    return f"monte_carlo value {worst:.3g} stderr from exact, and not the replay of its seed"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("dag", len(chains.DAG_K), chains.dag_chain, _prepare_closed_form, _run_closed_form,
                 _check_closed_form),
        Workload("dense", len(chains.DENSE_CELLS), chains.dense_chain, _prepare_dense, _run_dense, _check_dense),
        Workload("fallback", len(chains.FALLBACK_M), chains.fallback_chain, _prepare_fallback, _run_fallback,
                 _check_fallback),
        Workload("periodic", chains.PERIODIC_CYCLE, chains.periodic_chain, _prepare_closed_form, _run_closed_form,
                 _check_closed_form),
    )
}
