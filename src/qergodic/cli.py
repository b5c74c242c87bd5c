"""Command-line interface: file ingestion, command dispatch, reporting.

Input is a JSON document {"Q": [[...]], "pi": [...], "labels": [...],
"observable": [...], "options": {...}} or a CSV matrix with pi on a trailing
line.  JSON output is canonical: sorted keys, floats printed with 17
significant digits, so identical invocations produce identical bytes and
re-emitting a parsed report is a fixed point.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from . import model as core
from . import limits
from .asymptotics import (
    asymptotic_ratio_diagnostic,
    hat_q_ell,
    path_numerator_closed,
    path_numerator_sequence,
    q_block_power,
    q_theta_n,
)
from .errors import AssumptionViolation, NumericalError, ParseError, QergodicError, ValidationError
from .paths import classify_path, enumerate_paths, maximal_paths
from .spectral import spectrum_set
from .structure import condense

SCHEMA = "qergodic/1"
_DOC_KEYS = {"Q", "pi", "labels", "observable", "options"}
_OPTION_KEYS = {"validation_tol", "rho_eq_tol", "alpha_tol", "pi_restriction", "exact_scalar_compare"}
_DEFAULT_OPTIONS = {
    "validation_tol": 1e-12,
    "rho_eq_tol": 1e-9,
    "alpha_tol": 1e-12,
    "pi_restriction": True,
    "exact_scalar_compare": True,
}


@dataclass
class ChainDocument:
    Q: List[List[float]]
    pi: List[float]
    labels: Optional[List[str]] = None
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
    unknown = set(options) - _OPTION_KEYS
    if unknown:
        raise ParseError(f"unknown option keys: {sorted(unknown)}")
    return ChainDocument(
        Q=Q,
        pi=pi,
        labels=data.get("labels"),
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


def _analysis_payload(doc: ChainDocument, model: core.SubstochasticModel) -> Dict:
    form = condense(model)
    spectra = spectrum_set(form, doc.options["rho_eq_tol"])
    pi_nf = model.pi[list(form.perm)]
    classified = [classify_path(form, spectra, th, pi_nf) for th in enumerate_paths(form)]
    family = maximal_paths(classified, spectra, doc.options["pi_restriction"])
    report = limits.check_assumptions(form, spectra, family, doc.options["alpha_tol"])
    payload = {
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
                "maximal": p in family.maximal,
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
    try:
        payload["quasi_stationary"] = limits.quasi_stationary_distribution(model.Q)
    except NumericalError as exc:
        # the QSD is a side result: its failure must not hide the closed form
        payload["quasi_stationary"] = {"error": str(exc)}
    return payload


def _result_payload(result: limits.QuasiErgodicResult) -> Dict:
    return {
        "block_measure": result.block_measure,
        "state_measure_normal_form": result.state_measure,
        "state_measure_input_order": result.state_measure_input,
        "rho_max": result.rho_max,
        "h_max": result.h_max,
    }


def _fallback_payload(model: core.SubstochasticModel, n: int, trials: int, seed: int) -> Dict:
    profile = core.occupation_profile(model, n)
    payload = {
        "banner": "no closed form certified; finite-horizon and Monte Carlo estimates follow",
        "finite_horizon": {"n": n, "state_occupation": profile},
    }
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
    payload = _analysis_payload(doc, model)
    code = 0
    try:
        result = limits.full_qed(
            model,
            rho_eq_tol=doc.options["rho_eq_tol"],
            alpha_tol=doc.options["alpha_tol"],
            restrict_to_pi_support=doc.options["pi_restriction"],
        )
        payload["result"] = _result_payload(result)
    except AssumptionViolation:
        payload["result"] = _fallback_payload(model, args.n, args.trials, args.seed)
        code = 2
    _print_payload(payload, args.format)
    return code


def cmd_qed(doc: ChainDocument, args) -> int:
    model = _build_model(doc)
    try:
        result = limits.full_qed(
            model,
            rho_eq_tol=doc.options["rho_eq_tol"],
            alpha_tol=doc.options["alpha_tol"],
            restrict_to_pi_support=doc.options["pi_restriction"],
        )
    except AssumptionViolation as exc:
        payload = {"schema": SCHEMA, "violations": list(exc.report.violations) if exc.report else [str(exc)]}
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
    payload = _analysis_payload(doc, model)
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
    form = condense(model)
    spectra = spectrum_set(form, doc.options["rho_eq_tol"])
    pi_nf = model.pi[list(form.perm)]
    thetas = enumerate_paths(form)
    checks: List[Dict] = []
    ok = True

    def record(name: str, passed: bool, detail: str = "") -> None:
        nonlocal ok
        ok = ok and passed
        checks.append({"check": name, "pass": passed, "detail": detail})

    n_small = min(args.n_max, 12)
    # block powers agree with path sums
    worst = 0.0
    for i in range(1, form.k + 1):
        for j in range(1, i + 1):
            group = [th for th in thetas if th[0] == i and th[-1] == j]
            for n in range(n_small + 1):
                direct = q_block_power(form, i, j, n)
                summed = sum((q_theta_n(form, th, n) for th in group), np.zeros_like(direct))
                scale = max(np.max(np.abs(direct)), 1e-300)
                worst = max(worst, float(np.max(np.abs(direct - summed)) / scale))
    record("block_power_vs_path_sums", worst <= 1e-12, f"max relative deviation {worst:.3g}")

    # split-dwell sums: enumeration vs convolution
    worst = 0.0
    for th in thetas:
        for ell in th:
            for n in range(min(args.n_max, 8) + 1):
                a = hat_q_ell(form, th, ell, n, method="enum")
                b = hat_q_ell(form, th, ell, n, method="conv")
                scale = max(np.max(np.abs(a)), 1e-300)
                worst = max(worst, float(np.max(np.abs(a - b)) / scale))
    record("split_dwell_enum_vs_conv", worst <= 1e-12, f"max relative deviation {worst:.3g}")

    # survival decomposes over paths
    worst = 0.0
    for n in range(n_small + 1):
        direct = math.exp(core.log_survival_probability(model, n))
        summed = sum(path_numerator_sequence(form, pi_nf, th, n) for th in thetas)
        worst = max(worst, abs(direct - summed) / max(direct, 1e-300))
    record("survival_vs_path_numerators", worst <= 1e-12, f"max relative deviation {worst:.3g}")

    # closed form against the finite-horizon trend
    try:
        result = limits.full_qed(
            model,
            rho_eq_tol=doc.options["rho_eq_tol"],
            alpha_tol=doc.options["alpha_tol"],
            restrict_to_pi_support=doc.options["pi_restriction"],
        )
        grid = [n for n in (args.n_max // 4, args.n_max // 2, args.n_max) if n > 0]
        errors = []
        for n in grid:
            profile = core.occupation_profile(model, n)
            errors.append(float(np.max(np.abs(profile - result.state_measure_input))))
        shrinking = all(b <= a * 1.05 + 1e-12 for a, b in zip(errors, errors[1:]))
        record(
            "finite_horizon_trend",
            shrinking,
            "errors " + ", ".join(f"n={n}: {e:.3g}" for n, e in zip(grid, errors)),
        )
    except AssumptionViolation:
        # growth-rate diagnostics must flag the dominant paths as diverging
        classified = [classify_path(form, spectra, th, pi_nf) for th in thetas]
        family = maximal_paths(classified, spectra, doc.options["pi_restriction"])
        verdicts = []
        for p in family.maximal:
            diag = asymptotic_ratio_diagnostic(
                lambda n, th=p.theta: path_numerator_sequence(form, pi_nf, th, n),
                lambda n, pp=p: path_numerator_closed(pp, spectra, n),
                n_grid=range(20, min(args.n_max, 400) + 1, 20),
            )
            verdicts.append(diag.verdict)
        record(
            "uncertified_divergence_flagged",
            "DIVERGING" in verdicts or not verdicts,
            f"verdicts {verdicts}",
        )

    payload = {"schema": SCHEMA, "checks": checks, "pass": ok}
    _print_payload(payload, args.format)
    return 0 if ok else 1


# --- dispatch ------------------------------------------------------------


def _default_seed() -> int:
    env = os.environ.get("QERGODIC_SEED")
    return int(env) if env else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qergodic", description="Conditioned limits of absorbing Markov chains")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "analyze": cmd_analyze,
        "qed": cmd_qed,
        "qsd": cmd_qsd,
        "paths": cmd_paths,
        "finite-n": cmd_finite_n,
        "simulate": cmd_simulate,
        "verify": cmd_verify,
    }
    for name, fn in commands.items():
        p = sub.add_parser(name)
        p.add_argument("file", help="chain document (JSON or CSV), or - for stdin")
        p.add_argument("--format", choices=("json", "table"), default="table")
        p.add_argument("--n", type=int, default=1000, help="horizon for finite-n and fallback estimates")
        p.add_argument("--trials", type=int, default=10000)
        p.add_argument("--seed", type=int, default=_default_seed())
        p.add_argument("--n-max", dest="n_max", type=int, default=2000)
        p.add_argument("--rho-tol", dest="rho_tol", type=float, default=None)
        p.add_argument("--no-pi-restriction", dest="no_pi_restriction", action="store_true")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        doc = parse_document(args.file)
        if args.rho_tol is not None:
            doc.options["rho_eq_tol"] = args.rho_tol
        if args.no_pi_restriction:
            doc.options["pi_restriction"] = False
        return args.fn(doc, args)
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
