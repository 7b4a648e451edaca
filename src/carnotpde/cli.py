"""Batch command-line front end.

Subcommands: lemma-check, solve, verify, cc-distance, growth-check. Every run
is driven by a single JSON config (validated against the shipped schema) plus
the flags --config and --out. lemma-check also takes --trials (a positive draw
count), and lemma-check, verify and growth-check take --seed (nonnegative) to
override the config seed; solve and cc-distance use no randomness. Exit codes:
0 success, 1 property failure, 2 config error or bad flag, 3 non-convergence /
no path, 4 a failed hypothesis or, on verify, any failed Holder check. verify
refuses a grid past the Holder scan's node cap (exit 2) before it solves.
Reports are strict JSON: a non-finite number is written as null.

Each command imports the modules it runs when it starts, so a cold
cc-distance never loads the solver, and no command but solve and verify
loads scipy.sparse.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import symmat
from .config import build_setup, load_config
from .errors import CarnotPDEError, ConfigError, NoPathError, NumericalError, PreconditionError
from .structures import (
    engel1,
    heisenberg1,
    heisenberg_sqrt_transposed_variant,
    p_matrix_at,
    preset,
    sigma_at,
)

SCHEMA_VERSION = 1


def _finite_or_null(value):
    """value with each non-finite float, at any depth, replaced by None."""
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    if isinstance(value, (float, np.floating)) and not math.isfinite(value):
        return None
    return value


def _write_json(out_dir: Path, name: str, payload: dict) -> Path:
    """Write payload as strict JSON: a non-finite float becomes null."""
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = _finite_or_null({"schema_version": SCHEMA_VERSION, **payload})
    path = out_dir / name
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, default=float, allow_nan=False)
        fh.write("\n")
    return path


def _suite_spectra(trials: int, seed: int, extra_structure=None) -> dict:
    rng = np.random.default_rng(seed)
    worst = 0.0
    checked = 0
    structures = [heisenberg1(), engel1(), preset("euclidean:3")]
    if extra_structure is not None:
        structures.append(extra_structure)
    for s in structures:
        for _ in range(8):
            x = rng.uniform(-2.0, 2.0, size=s.n)
            rep = symmat.spectra_match_lemma(sigma_at(s, x))
            worst = max(worst, rep.max_mismatch)
            checked += 1
            if not rep.matched:
                return {"passed": False, "detail": f"preset {s.name} mismatch {rep.max_mismatch:.3e}"}
    for _ in range(trials):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, n + 1))
        rep = symmat.spectra_match_lemma(rng.normal(size=(m, n)))
        worst = max(worst, rep.max_mismatch)
        checked += 1
        if not rep.matched:
            return {"passed": False, "detail": f"random sigma mismatch {rep.max_mismatch:.3e}"}
    return {"passed": True, "detail": f"{checked} factorizations, worst mismatch {worst:.3e}"}


def _suite_trace_identity(trials: int, seed: int) -> dict:
    rng = np.random.default_rng(seed + 1)
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, n + 1))
        s1 = rng.normal(size=(m, n))
        s2 = rng.normal(size=(m, n))
        a = symmat.symmetrize(rng.normal(size=(n, n)))
        b = symmat.symmetrize(rng.normal(size=(n, n)))
        scale = max(1.0, abs(float(np.trace(s1.T @ s1 @ a))), abs(float(np.trace(s2.T @ s2 @ b))))
        gap = symmat.trace_identity_check(s1, s2, a, b)
        worst = max(worst, gap / scale)
        if gap > 1e-10 * scale:
            return {"passed": False, "detail": f"trace identity gap {gap:.3e}"}
    return {"passed": True, "detail": f"{trials} draws, worst scaled gap {worst:.3e}"}


def _suite_diagonal_falsifier() -> dict:
    witness = symmat.diagonal_lemma_falsifier()
    if witness.min_eigenvalue >= 0.0:
        return {"passed": False, "detail": "expected a negative eigenvalue witness"}
    if float(np.linalg.eigvalsh(np.eye(2)).min()) <= 0.0:
        return {"passed": False, "detail": "identity misclassified"}
    return {
        "passed": True,
        "detail": f"positive-diagonal witness has eigenvalue {witness.min_eigenvalue:.3g}",
    }


def _suite_sqrt_erratum(trials: int, seed: int) -> dict:
    rng = np.random.default_rng(seed + 2)
    s = heisenberg1()
    worst = 0.0
    for _ in range(max(trials, 8)):
        x = rng.uniform(-2.0, 2.0, size=3)
        p = p_matrix_at(s, x)
        root = symmat.sqrt_psd(p)
        gap = float(np.abs(root @ root - p).max())
        worst = max(worst, gap)
        if gap > 1e-8 * max(1.0, float(np.abs(p).max())):
            return {"passed": False, "detail": f"spectral root fails to square back: {gap:.3e}"}
    x0 = np.array([1.0, 0.0, 0.0])
    variant = heisenberg_sqrt_transposed_variant(x0)
    p0 = p_matrix_at(s, x0)
    variant_gap = float(np.abs(variant @ variant - p0).max())
    if variant_gap <= 1e-3:
        return {
            "passed": False,
            "detail": "the transposed closed form unexpectedly squares back to P",
        }
    return {
        "passed": True,
        "detail": f"spectral root ok (worst {worst:.2e}); variant off by {variant_gap:.3g}",
    }


def _suite_doubling_hessian(seed: int) -> dict:
    from . import doubling

    rng = np.random.default_rng(seed + 3)
    for n in (1, 2, 3):
        for _ in range(20):
            x = rng.uniform(-2.0, 2.0, size=n)
            y = rng.uniform(-2.0, 2.0, size=n)
            gap = x - y
            r = float(np.linalg.norm(gap))
            if r < 0.5:
                y = x - (gap if r > 0 else np.ones(n)) * (0.8 / max(r, 1e-3))
                r = float(np.linalg.norm(x - y))
            level = float(rng.uniform(0.5, 3.0))
            alpha = float(rng.uniform(0.1, 1.0))
            m, block = doubling.phi_hessian_block(x, y, level, alpha)
            fd = doubling.finite_difference_hessian(
                lambda z: doubling.phi_value(z[:n], z[n:], level, alpha),
                np.concatenate([x, y]),
            )
            # difference-quotient roundoff scales with the function value
            scale = max(1.0, float(np.abs(block).max()), doubling.phi_value(x, y, level, alpha))
            if float(np.abs(block - fd).max()) > 1e-5 * scale:
                return {"passed": False, "detail": f"Hessian mismatch at n={n}"}
            m2 = doubling.phi_hessian_square(x, y, level, alpha)
            if float(np.abs(m2 - m @ m).max()) > 1e-12 * max(1.0, float(np.abs(m2).max())):
                return {"passed": False, "detail": "closed-form square disagrees with M @ M"}
            evals = np.linalg.eigvalsh(m)
            radial = level * alpha * (alpha - 1.0) * r ** (alpha - 2.0)
            if abs(float(evals[0]) - radial) > 1e-9 * max(1.0, abs(radial)):
                return {"passed": False, "detail": "radial eigenvalue formula mismatch"}
            if alpha < 1.0 and float(evals[0]) >= 0.0:
                return {"passed": False, "detail": "radial eigenvalue lost its sign"}
    return {"passed": True, "detail": "finite differences, squares and eigenvalues agree"}


def _suite_touching_pair(trials: int, seed: int) -> dict:
    """The touching pair (A, B) at eta = 1.1 meets the block inequality
    blockdiag(A, -B) <= eta theta [[I, -I], [-I, I]] and, with the preset
    frames at x and y, the frame trace inequality of sums_trace_bound."""
    from . import doubling

    rng = np.random.default_rng(seed + 4)
    eta = 1.1
    worst_block = worst_trace = -np.inf
    for s in (heisenberg1(), engel1(), preset("euclidean:3")):
        eye = np.eye(s.n)
        for _ in range(trials):
            x = rng.uniform(-2.0, 2.0, size=s.n)
            d = rng.normal(size=s.n)
            y = x + rng.uniform(0.25, 2.0) * d / np.linalg.norm(d)
            level = float(rng.uniform(0.5, 3.0))
            alpha = float(rng.uniform(0.1, 1.0))
            r = float(np.linalg.norm(x - y))
            theta = level * alpha * r ** (alpha - 2.0)
            a, b, _ = doubling.touching_pair(x, y, level, alpha, eta)
            block = np.block([[a, np.zeros_like(a)], [np.zeros_like(b), -b]])
            bound = eta * theta * np.block([[eye, -eye], [-eye, eye]])
            slack = float(np.linalg.eigvalsh(block - bound).max())
            worst_block = max(worst_block, slack)
            if slack > 1e-9 * max(1.0, theta):
                return {"passed": False, "detail": f"{s.name}: block inequality off by {slack:.3e}"}
            lhs, rhs = doubling.sums_trace_bound(
                sigma_at(s, x), sigma_at(s, y), a, b, level, alpha, r, eta
            )
            worst_trace = max(worst_trace, lhs - rhs)
            if lhs - rhs > 1e-9 * max(1.0, abs(lhs), rhs):
                return {"passed": False, "detail": f"{s.name}: trace bound off by {lhs - rhs:.3e}"}
    return {
        "passed": True,
        "detail": f"{3 * trials} pairs, worst block slack {worst_block:.3e}, "
        f"worst trace slack {worst_trace:.3e}",
    }


def cmd_lemma_check(args) -> int:
    seed = args.seed if args.seed is not None else 0
    trials = args.trials
    extra = None
    if args.config:
        setup = build_setup(load_config(args.config), need_solve=False)
        if isinstance(setup.raw["structure"], dict):
            extra = setup.structure
        seed = args.seed if args.seed is not None else setup.seed
    suites = {
        "spectra_factorization": _suite_spectra(trials, seed, extra),
        "trace_rearrangement": _suite_trace_identity(trials, seed),
        "positive_diagonal_falsifier": _suite_diagonal_falsifier(),
        "sqrt_erratum": _suite_sqrt_erratum(min(trials, 200), seed),
        "doubling_hessian": _suite_doubling_hessian(seed),
        "touching_pair_trace_bound": _suite_touching_pair(min(trials, 200), seed),
    }
    all_pass = all(s["passed"] for s in suites.values())
    for name, result in suites.items():
        tag = "PASS" if result["passed"] else "FAIL"
        print(f"[{tag}] {name}: {result['detail']}")
    _write_json(
        Path(args.out),
        "lemma_report.json",
        {"seed": seed, "trials": trials, "suites": suites, "all_passed": all_pass},
    )
    if not all_pass:
        failing = [k for k, v in suites.items() if not v["passed"]]
        print(f"failed suites: {', '.join(failing)}", file=sys.stderr)
        return 1
    return 0


def cmd_solve(args) -> int:
    from .grids import to_csv
    from .solver import solve, two_box_sensitivity

    setup = build_setup(load_config(args.config), need_solve=True)
    u, report = solve(setup.spec, setup.coeffs, setup.grid, setup.solve_cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    to_csv(u, out / "solution.csv")
    payload = {"seed": setup.seed, **report.to_dict()}
    if report.converged and setup.raw.get("solver", {}).get("two_box_check"):
        payload["two_box_gap"] = two_box_sensitivity(setup.spec, setup.coeffs, u, setup.solve_cfg)
    _write_json(out, "solve_report.json", payload)
    print(
        f"solve: {'converged' if report.converged else 'NOT converged'} "
        f"after {report.iterations} iterations, residual {report.final_residual:.3e}"
    )
    return 0 if report.converged else 3


def cmd_verify(args) -> int:
    from . import holder
    from .solver import solve

    raw = load_config(args.config)
    if "grid" in raw:  # the schema requires its integer shape
        holder.check_scan_size(raw["grid"]["shape"])
    setup = build_setup(raw, need_solve=True)
    seed = args.seed if args.seed is not None else setup.seed
    u, report = solve(setup.spec, setup.coeffs, setup.grid, setup.solve_cfg)
    if not report.converged:
        print("verify: solve did not converge", file=sys.stderr)
        return 3
    bundle = holder.bundle_for_instance(
        setup.spec, setup.coeffs, u, eta=setup.eta, seed=seed
    )
    growth_radii = setup.raw.get("analysis", {}).get("growth_radii")
    hreport = holder.verify_theorem(
        setup.spec, setup.coeffs, u, bundle, report, seed=seed, growth_radii=growth_radii
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "increments.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["distance", "max_increment", "pairs"])
        for row in hreport.increments:
            writer.writerow([row["distance"], row["max_increment"], row["pairs"]])
    _write_json(
        out,
        "holder_report.json",
        {"solve": report.to_dict(), "bundle": bundle.to_dict(), **hreport.to_dict()},
    )
    print(
        f"verify: alpha_fit={hreport.alpha_fit:.4f} L_fit={hreport.L_fit:.4g} "
        f"bound={hreport.theorem_bound:.4g} violations<=0: {hreport.max_violation <= 0.0}"
    )
    if hreport.failures:
        print(f"verify failed: {', '.join(hreport.failures)}", file=sys.stderr)
        return 4
    return 0


def cmd_cc_distance(args) -> int:
    from .ccdist import cc_search

    raw = load_config(args.config)
    if "cc" not in raw:
        raise ConfigError("cc-distance needs a 'cc' section in the config")
    setup = build_setup(raw, need_solve=False)
    cc = raw["cc"]
    try:
        result = cc_search(
            setup.structure,
            np.array(cc["a"], dtype=float),
            np.array(cc["b"], dtype=float),
            float(cc["resolution"]),
            box=cc.get("box"),
        )
    except ValueError as exc:
        raise ConfigError(f"bad cc section: {exc}") from exc
    _write_json(
        Path(args.out),
        "cc_report.json",
        {
            "structure": setup.structure.name,
            "a": list(map(float, cc["a"])),
            "b": list(map(float, cc["b"])),
            "resolution": float(cc["resolution"]),
            **asdict(result),
        },
    )
    print(f"cc-distance: {result.distance:.6g}")
    return 0


def cmd_growth_check(args) -> int:
    from . import doubling

    raw = load_config(args.config)
    if "growth" not in raw:
        raise ConfigError("growth-check needs a 'growth' section in the config")
    setup = build_setup(raw, need_solve=False)
    g = raw["growth"]
    seed = args.seed if args.seed is not None else setup.seed
    try:
        asym, margins, satisfied = doubling.growth_verdict(
            setup.structure, float(g["c0"]), float(g["Lambda"]), g["radii"], seed=seed
        )
    except ValueError as exc:
        raise ConfigError(f"bad growth section: {exc}") from exc
    _write_json(
        Path(args.out),
        "growth_report.json",
        {
            "structure": setup.structure.name,
            "seed": seed,
            "radii": list(map(float, g["radii"])),
            "margins": margins,
            "asymptotic_margin": asym,
            "box_local": asym is None,
            "satisfied": satisfied,
        },
    )
    print(f"growth-check: {'satisfied' if satisfied else 'violated'}")
    return 0 if satisfied else 4


def _int_at_least(low: int):
    """An argparse type: an integer of at least `low`, else a usage error (exit 2)."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return integer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="carnotpde",
        description="Lemma checks, degenerate-elliptic solves and Holder verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "lemma-check": (cmd_lemma_check, False, ("--trials", "--seed")),
        "solve": (cmd_solve, True, ()),
        "verify": (cmd_verify, True, ("--seed",)),
        "cc-distance": (cmd_cc_distance, True, ()),
        "growth-check": (cmd_growth_check, True, ("--seed",)),
    }
    for name, (_, config_required, flags) in specs.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=config_required, help="path to a run config JSON")
        p.add_argument("--out", default="out", help="output directory for reports")
        if "--trials" in flags:
            p.add_argument(
                "--trials", type=_int_at_least(1), default=1000, help="randomized trial count"
            )
        if "--seed" in flags:
            p.add_argument(
                "--seed", type=_int_at_least(0), default=None, help="override the config seed"
            )
    args = parser.parse_args(argv)
    handler = specs[args.command][0]
    try:
        return handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return 2
    except (NoPathError, NumericalError) as exc:
        print(f"did not converge: {exc}", file=sys.stderr)
        return 3
    except CarnotPDEError as exc:
        print(f"property failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
