"""Command-line interface: file ingestion, command dispatch, reporting.

Input is a JSON document {"Q": [[...]], "pi": [...], "observable": [...],
"options": {...}} or a CSV matrix with pi on a trailing line.  JSON output is
canonical: sorted keys, floats printed with 17 significant digits, so
identical invocations produce identical bytes and re-emitting a parsed report
is a fixed point.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import model as core
from . import limits
from .errors import AssumptionViolation, NumericalError, ParseError, QergodicError, ValidationError

SCHEMA = "qergodic/1"
_DOC_KEYS = {"Q", "pi", "observable", "options"}
_DEFAULT_OPTIONS = {
    "validation_tol": 1e-12,
    "rho_eq_tol": 1e-9,
    "alpha_tol": 1e-12,
    "pi_restriction": True,
}
# `verify` passes when the closed form is within this margin of the
# extrapolated profile: _JUDGE_ATOL plus _JUDGE_ERR_FACTOR times its error
_JUDGE_ATOL = 1e-9
_JUDGE_ERR_FACTOR = 2.0


@dataclass
class ChainDocument:
    Q: List[List[float]]
    pi: List[float]
    observable: Optional[List[float]] = None
    options: Dict = field(default_factory=dict)


# --- canonical JSON ------------------------------------------------------


def emit_json(obj) -> str:
    """Serialize with sorted keys and fixed float formatting (17 significant
    digits), so emitted reports are byte-stable and round-trip exactly."""
    pieces: List[str] = []
    _emit(obj, pieces)
    return "".join(pieces)


def _emit(obj, out: List[str]) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        import json

        out.append(json.dumps(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        if math.isfinite(obj):
            out.append(format(obj, ".17g"))
        else:
            raise ValueError(f"cannot serialize non-finite float {obj}")
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if i:
                out.append(",")
            _emit(str(key), out)
            out.append(":")
            _emit(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _emit(item, out)
        out.append("]")
    elif isinstance(obj, np.ndarray):
        _emit(obj.tolist(), out)
    elif isinstance(obj, (np.floating,)):
        _emit(float(obj), out)
    elif isinstance(obj, (np.integer,)):
        _emit(int(obj), out)
    else:
        raise ValueError(f"cannot serialize {type(obj)}")


# --- parsing -------------------------------------------------------------


def parse_document(path: str) -> ChainDocument:
    """Read a chain document from a file path or '-' for standard input."""
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ParseError(f"cannot read {path}: {exc}") from exc
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _parse_json(text)
    return _parse_csv(text)


def _parse_json(text: str) -> ChainDocument:
    import json

    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ParseError("document must be a JSON object")
    unknown = set(data) - _DOC_KEYS
    if unknown:
        raise ParseError(f"unknown keys: {sorted(unknown)}")
    if "Q" not in data:
        raise ParseError("document is missing 'Q'")
    Q = data["Q"]
    if not isinstance(Q, list) or not all(isinstance(r, list) for r in Q):
        raise ParseError("'Q' must be a list of rows")
    if len({len(r) for r in Q}) > 1:
        raise ParseError("rows of 'Q' have differing lengths")
    pi = data.get("pi")
    if pi is None:
        print("warning: no 'pi' given, defaulting to uniform", file=sys.stderr)
        pi = [1.0 / len(Q)] * len(Q)
    options = dict(data.get("options") or {})
    unknown = set(options) - set(_DEFAULT_OPTIONS)
    if unknown:
        raise ParseError(f"unknown option keys: {sorted(unknown)}")
    return ChainDocument(
        Q=Q,
        pi=pi,
        observable=data.get("observable"),
        options={**_DEFAULT_OPTIONS, **options},
    )


def _parse_csv(text: str) -> ChainDocument:
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            rows.append([float(x) for x in line.replace(",", " ").split()])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
    if not rows:
        raise ParseError("empty document")
    d = len(rows[0])
    if len(rows) == d + 1:
        Q, pi = rows[:d], rows[d]
    elif len(rows) == d:
        print("warning: no 'pi' line, defaulting to uniform", file=sys.stderr)
        Q, pi = rows, [1.0 / d] * d
    else:
        raise ParseError(f"expected {d} matrix rows plus an optional pi line, got {len(rows)} rows")
    return ChainDocument(Q=Q, pi=pi, options=dict(_DEFAULT_OPTIONS))


def _build_model(doc: ChainDocument) -> core.SubstochasticModel:
    return core.validate(doc.Q, doc.pi, tol=doc.options["validation_tol"])


# --- report assembly -----------------------------------------------------


def _analyze(doc: ChainDocument, model: core.SubstochasticModel, args) -> limits.Analysis:
    return limits.analyze(
        model,
        rho_eq_tol=doc.options["rho_eq_tol"] if args.rho_tol is None else args.rho_tol,
        alpha_tol=doc.options["alpha_tol"],
        restrict_to_pi_support=doc.options["pi_restriction"] and not args.no_pi_restriction,
    )


def _analysis_payload(analysis: limits.Analysis) -> Dict:
    form, spectra, family, report = analysis.form, analysis.spectra, analysis.family, analysis.report
    maximal = {p.theta for p in family.maximal}
    return {
        "schema": SCHEMA,
        "permutation": [p + 1 for p in form.perm],
        "block_sizes": list(form.block_sizes),
        "blocks": [
            {
                "rho": s.rho,
                "period": s.period,
                "primitive": s.primitive,
                "scalar": s.scalar,
                "sub_modulus": s.sub_modulus,
                "v": s.v,
                "u": s.u,
            }
            for s in spectra.blocks
        ],
        "rho_max": spectra.rho_max,
        "paths": [
            {
                "theta": list(p.theta),
                "rho": p.rho_theta,
                "h_plus": p.h_plus,
                "h_minus": p.h_minus,
                "alpha": p.alpha,
                "pi_mass": p.pi_mass,
                "maximal": p.theta in maximal,
            }
            for p in family.all
        ],
        "h_max": family.h_max,
        "assumptions": {
            "scalar_ok": report.scalar_ok,
            "witness_path": list(report.witness_path.theta) if report.witness_path else None,
            "violations": list(report.violations),
            "pi_restriction": report.used_pi_restriction,
            "certified": report.certified,
        },
    }


def _result_payload(result: limits.QuasiErgodicResult) -> Dict:
    return {
        "block_measure": result.block_measure,
        "state_measure_normal_form": result.state_measure,
        "state_measure_input_order": result.state_measure_input,
        "rho_max": result.rho_max,
        "h_max": result.h_max,
    }


def _violations(exc: AssumptionViolation) -> List[str]:
    return list(exc.report.violations) if exc.report else [str(exc)]


def _fallback_payload(model: core.SubstochasticModel, n: int, trials: int, seed: int) -> Dict:
    payload: Dict = {"banner": "no closed form certified; finite-horizon and Monte Carlo estimates follow"}
    try:
        payload["finite_horizon"] = {"n": n, "state_occupation": core.occupation_profile(model, n)}
    except NumericalError as exc:
        # a chain absorbed within n steps has no profile; its violations must still show
        payload["finite_horizon"] = {"error": str(exc)}
    try:
        estimates = core.monte_carlo_occupation(model, min(n, 200), trials, seed)
        payload["monte_carlo"] = {
            "n": min(n, 200),
            "trials": trials,
            "seed": seed,
            "values": [e.value for e in estimates],
            "stderr": [e.stderr for e in estimates],
            "trials_surviving": estimates[0].trials_surviving,
        }
    except QergodicError as exc:
        payload["monte_carlo"] = {"error": str(exc)}
    return payload


def _print_payload(payload: Dict, fmt: str) -> None:
    if fmt == "json":
        print(emit_json(payload))
        return
    _print_table(payload, indent=0)


def _print_table(obj, indent: int, key: str = "") -> None:
    pad = "  " * indent
    label = f"{key}: " if key else ""
    if isinstance(obj, dict):
        if key:
            print(f"{pad}{key}:")
        for k in obj:
            _print_table(obj[k], indent + (1 if key else 0), k)
    elif isinstance(obj, np.ndarray):
        print(f"{pad}{label}{'  '.join(format(float(x), '.10g') for x in obj.reshape(-1))}")
    elif isinstance(obj, (list, tuple)) and obj and isinstance(obj[0], dict):
        print(f"{pad}{key}:")
        for i, item in enumerate(obj):
            _print_table(item, indent + 1, f"[{i}]")
    elif isinstance(obj, (list, tuple)):
        body = "  ".join(format(float(x), ".10g") if isinstance(x, (int, float)) else str(x) for x in obj)
        print(f"{pad}{label}{body}")
    else:
        print(f"{pad}{label}{obj}")


# --- commands ------------------------------------------------------------


def cmd_analyze(doc: ChainDocument, args) -> int:
    model = _build_model(doc)
    analysis = _analyze(doc, model, args)
    payload = _analysis_payload(analysis)
    try:
        payload["quasi_stationary"] = limits.quasi_stationary_distribution(model.Q)
    except NumericalError as exc:
        # the QSD is a side result: its failure must not hide the closed form
        payload["quasi_stationary"] = {"error": str(exc)}
    code = 0
    try:
        payload["result"] = _result_payload(limits.limit_measure(analysis))
    except AssumptionViolation:
        payload["result"] = _fallback_payload(model, args.n, args.trials, args.seed)
        code = 2
    _print_payload(payload, args.format)
    return code


def cmd_qed(doc: ChainDocument, args) -> int:
    model = _build_model(doc)
    try:
        result = limits.limit_measure(_analyze(doc, model, args))
    except AssumptionViolation as exc:
        payload = {"schema": SCHEMA, "violations": _violations(exc)}
        payload.update(_fallback_payload(model, args.n, args.trials, args.seed))
        _print_payload(payload, args.format)
        return 2
    payload = {"schema": SCHEMA, **_result_payload(result)}
    if doc.observable is not None:
        payload["observable_limit"] = limits.observable_limit(result, doc.observable)
    _print_payload(payload, args.format)
    return 0


def cmd_qsd(doc: ChainDocument, args) -> int:
    model = _build_model(doc)
    payload = {"schema": SCHEMA, "quasi_stationary": limits.quasi_stationary_distribution(model.Q)}
    _print_payload(payload, args.format)
    return 0


def cmd_paths(doc: ChainDocument, args) -> int:
    model = _build_model(doc)
    payload = _analysis_payload(_analyze(doc, model, args))
    payload = {k: payload[k] for k in ("schema", "permutation", "block_sizes", "paths", "h_max", "rho_max")}
    _print_payload(payload, args.format)
    return 0


def cmd_finite_n(doc: ChainDocument, args) -> int:
    model = _build_model(doc)
    profile = core.occupation_profile(model, args.n)
    payload = {
        "schema": SCHEMA,
        "n": args.n,
        "state_occupation": profile,
        "log_survival": core.log_survival_probability(model, args.n),
    }
    if doc.observable is not None:
        payload["observable_average"] = float(np.asarray(doc.observable, dtype=float) @ profile)
    _print_payload(payload, args.format)
    return 0


def cmd_simulate(doc: ChainDocument, args) -> int:
    model = _build_model(doc)
    estimates = core.monte_carlo_occupation(model, args.n, args.trials, args.seed)
    payload = {
        "schema": SCHEMA,
        "n": args.n,
        "trials": args.trials,
        "seed": args.seed,
        "values": [e.value for e in estimates],
        "stderr": [e.stderr for e in estimates],
        "trials_surviving": estimates[0].trials_surviving,
    }
    _print_payload(payload, args.format)
    return 0


def cmd_verify(doc: ChainDocument, args) -> int:
    model = _build_model(doc)
    analysis = _analyze(doc, model, args)
    try:
        limit = limits.limit_measure(analysis).state_measure_input
    except AssumptionViolation as exc:
        _print_payload({"schema": SCHEMA, "violations": _violations(exc)}, args.format)
        return 2
    if model.d <= core.EXTRAPOLATION_MAX_STATES:
        period = math.lcm(*(s.period for s in analysis.spectra.blocks))
        profile, err = core.extrapolated_occupation(model, period)
        dev = float(np.max(np.abs(limit - profile)))
        name, ok = "limit_vs_extrapolated_profile", dev <= _JUDGE_ATOL + _JUDGE_ERR_FACTOR * err
        detail = f"deviation {dev:.3g}, extrapolation error {err:.3g}"
    else:  # the extrapolation holds d^3 floats
        grid = [args.n_max // 4, args.n_max // 2, args.n_max]
        errors = [float(np.max(np.abs(core.occupation_profile(model, n) - limit))) for n in grid]
        name, ok = "finite_horizon_trend", all(b <= a * 1.05 + 1e-12 for a, b in zip(errors, errors[1:]))
        detail = "errors " + ", ".join(f"n={n}: {e:.3g}" for n, e in zip(grid, errors))
    checks = [{"check": name, "pass": ok, "detail": detail}]
    _print_payload({"schema": SCHEMA, "checks": checks, "pass": ok}, args.format)
    return 0 if ok else 1


# --- dispatch ------------------------------------------------------------


def _int_at_least(low: int):
    """argparse type: an integer >= low, else a usage error (exit 2)."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {value}")
        return value

    parse.__name__ = "integer"  # named in argparse's "invalid integer value"
    return parse


def _horizon_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=_int_at_least(0), default=1000, help="horizon for finite-n and fallback estimates")


def _sampling_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trials", type=_int_at_least(1), default=10000)
    # main sets the default from QERGODIC_SEED at every call; a string
    # default goes through the type check too
    p.add_argument("--seed", type=_int_at_least(0))


def _analysis_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rho-tol", dest="rho_tol", type=float, default=None)
    p.add_argument("--no-pi-restriction", dest="no_pi_restriction", action="store_true")


def _trend_flags(p: argparse.ArgumentParser) -> None:
    # n-max/4, n-max/2 and n-max: three distinct positive horizons
    p.add_argument("--n-max", dest="n_max", type=_int_at_least(4), default=2000)


# each command with the flag groups its cmd_* reads
COMMANDS = {
    "analyze": (cmd_analyze, (_horizon_flags, _sampling_flags, _analysis_flags)),
    "qed": (cmd_qed, (_horizon_flags, _sampling_flags, _analysis_flags)),
    "qsd": (cmd_qsd, ()),
    "paths": (cmd_paths, (_analysis_flags,)),
    "finite-n": (cmd_finite_n, (_horizon_flags,)),
    "simulate": (cmd_simulate, (_horizon_flags, _sampling_flags)),
    "verify": (cmd_verify, (_analysis_flags, _trend_flags)),
}


@functools.lru_cache(maxsize=None)
def _parser() -> Tuple[argparse.ArgumentParser, Tuple[argparse.ArgumentParser, ...]]:
    """The parser, built once per process, and the subparsers that take
    --seed."""
    parser = argparse.ArgumentParser(prog="qergodic", description="Conditioned limits of absorbing Markov chains")
    sub = parser.add_subparsers(dest="command", required=True)
    seeded = []
    for name, (fn, flag_groups) in COMMANDS.items():
        # no prefix matching: `paths --n` must not pass for --no-pi-restriction
        p = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("file", help="chain document (JSON or CSV), or - for stdin")
        p.add_argument("--format", choices=("json", "table"), default="table")
        for add_flags in flag_groups:
            add_flags(p)
        p.set_defaults(fn=fn)
        if _sampling_flags in flag_groups:
            seeded.append(p)
    return parser, tuple(seeded)


def main(argv=None) -> int:
    parser, seeded = _parser()
    for p in seeded:
        p.set_defaults(seed=os.environ.get("QERGODIC_SEED") or "0")
    args = parser.parse_args(argv)
    try:
        return args.fn(parse_document(args.file), args)
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssumptionViolation as exc:
        print(f"assumption violation: {exc}", file=sys.stderr)
        return 2
    except QergodicError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
