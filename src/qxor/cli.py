"""Command-line interface: batch analysis, file formats, reports.

File formats (all JSON, schema-versioned, unknown fields rejected):

* game ``qxor/1``: ``n``, ``m``, ``G_re``, ``G_im`` as (n*m) x (n*m)
  row-major nested lists under the composite index ``(i, k) -> i*m + k``.
  An optional ``episodes`` list of ``{"p", "c", "rho_re", "rho_im"}``, as
  earlier versions wrote it, is checked against ``G`` and then dropped.
* tuple ``qxor-tuple/1``: ``entries_re``/``entries_im`` lists of matrices.
* tensor ``qxor-tensor/1``: ``X``/``Y`` space descriptors
  (``{"kind": "matrix"|"dual", "dim": n}``) and ``coeff_re``/``coeff_im``.

JSON reports are byte-identical for identical inputs and seed; wall-clock
timings appear only in CSV reports, whose timing columns are excluded from
the determinism guarantee. Exit codes: 0 success, 1 selftest failure,
2 parse error, 3 validation error, 4 solver quality below minimum.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time

import numpy as np

from .budget import SolverBudget, normalize_schedule
from .config import ValidationError
from .factor import TensorElement, gamma_rc_upper, gamma_to_Gamma
from .games import (
    QuantumXorGame,
    chsh,
    density_matrix,
    diagonal_game,
    hadamard_game,
    random_game,
    swap_game,
)
from .maps import Space
from .solvers import HierarchyReport, analyze_game
from .tuples import col_norm, row_norm, rplus2c_split

EXIT_OK = 0
EXIT_SELFTEST_FAIL = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_QUALITY = 4

# Every dimension a flag sets is capped, so that no flag asks numpy for more
# than it can allocate: --n, --m, each --ancilla and --levels entry and the
# rows and columns of --coeffs are at most MAX_REGISTER_DIM, so games are at
# most 64 x 64 (the solvers target n, m <= 4); each --messages entry is at
# most twice the register cap.
MAX_REGISTER_DIM = 8


class SchemaError(ValueError):
    """The payload does not match the declared schema."""


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _lists_to_matrix(re, im, what: str) -> np.ndarray:
    try:
        re, im = np.asarray(re, dtype=float), np.asarray(im, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"field {what} is not a numeric matrix: {exc}") from exc
    if re.ndim != 2 or re.shape != im.shape:
        raise SchemaError(f"field {what} must be two 2-d arrays of one shape")
    # assigned, not ``re + 1j * im``: 1j * inf puts a NaN in the real part
    out = re.astype(complex)
    out.imag = im
    return out


def game_to_payload(game: QuantumXorGame) -> dict:
    return {"schema": "qxor/1", "n": game.n, "m": game.m,
            "G_re": game.G.real.tolist(), "G_im": game.G.imag.tolist()}


def _check_fields(obj, what: str, schema: str | None, required, optional=()):
    """Reject a non-object, a wrong schema tag, an unknown field or a
    missing field; ``what`` names the object ("" for the whole payload)."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{what or 'top-level payload'} must be an object")
    if schema is not None:
        if obj.get("schema") != schema:
            raise SchemaError(f"field schema must be '{schema}'")
        required = ("schema", *required)
    prefix = f"{what}." if what else ""
    unknown = sorted(set(obj) - {*required, *optional})
    if unknown:
        raise SchemaError(f"unknown field {prefix}{unknown[0]}")
    missing = [key for key in required if key not in obj]
    if missing:
        raise SchemaError(f"missing field {prefix}{missing[0]}")


def _read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # bad JSON or UTF-8, deep nesting
        raise SchemaError(f"cannot read {path}: {exc}") from exc


def game_from_payload(payload: dict) -> QuantumXorGame:
    """The game of a ``qxor/1`` payload. Each entry of an ``episodes`` list,
    then the game, then ``sum c p rho = G`` over the list are checked, and
    the list is dropped."""
    _check_fields(payload, "", "qxor/1", ("n", "m", "G_re", "G_im"), ("episodes",))
    n, m = payload["n"], payload["m"]
    # exact types: JSON true is a bool, which isinstance(..., int) accepts
    if type(n) is not int or type(m) is not int or n < 1 or m < 1:
        raise SchemaError("fields n and m must be positive integers")
    g = _lists_to_matrix(payload["G_re"], payload["G_im"], "G_re/G_im")
    if g.shape != (n * m, n * m):
        raise SchemaError("field G_re has wrong shape for (n, m)")
    entries = payload.get("episodes", [])
    if not isinstance(entries, list):
        raise SchemaError("field episodes must be a list")
    episodes = []
    for idx, e in enumerate(entries):
        what = f"episodes[{idx}]"
        _check_fields(e, what, None, ("p", "c", "rho_re", "rho_im"))
        rho = _lists_to_matrix(e["rho_re"], e["rho_im"], f"{what}.rho")
        not_numbers = SchemaError(f"fields {what}.p and {what}.c must be numbers")
        if type(e["p"]) not in (int, float) or type(e["c"]) not in (int, float):
            raise not_numbers
        try:
            p, c = float(e["p"]), float(e["c"])
        except OverflowError as exc:  # an integer beyond the float range
            raise not_numbers from exc
        if not c.is_integer():
            raise SchemaError(f"field {what}.c must be an integer, got {e['c']!r}")
        if not math.isfinite(p) or p < -1e-15:
            raise ValidationError(
                f"episode probability must be finite and nonnegative, got {p!r}")
        if c not in (-1, 1):
            raise ValidationError("episode sign must be +1 or -1")
        episodes.append((int(c), p, density_matrix(rho, "episode state")))
    game = QuantumXorGame(n, m, g)
    if not episodes:
        return game
    for _, _, rho in episodes:
        # checked before the sum, which would broadcast a 1 x 1 state
        if rho.shape != game.G.shape:
            raise ValidationError(f"episode state must be {game.dim} x {game.dim}, "
                                  f"got {rho.shape[0]} x {rho.shape[1]}")
    total = sum(p for _, p, _ in episodes)
    if abs(total - 1.0) > 1e-12:
        raise ValidationError(f"episode probabilities sum to {total:.15f}, not 1")
    if np.abs(sum(c * p * rho for c, p, rho in episodes) - game.G).max() > 1e-10:
        raise ValidationError("episodes do not reproduce the game operator")
    return game


def _check_out(path: str):
    """Refuse an ``--out`` path that is a directory or whose directory does
    not exist; ``main`` calls this before any solver runs."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        raise SchemaError(f"--out {path} is a directory")
    if not os.path.isdir(parent):
        raise SchemaError(f"--out {path}: no directory {parent}")


def _write_out(path: str | None, write):
    """``write(fh)`` on ``path`` opened for writing, or on standard output
    without a path; an ``OSError`` becomes a :class:`SchemaError` naming
    the path."""
    if not path:
        write(sys.stdout)
        return
    try:
        with open(path, "w", newline="") as fh:
            write(fh)
    except OSError as exc:
        raise SchemaError(f"cannot write {path}: {exc.strerror or exc}") from None


def _dump_json(obj, path: str | None):
    text = json.dumps(obj, indent=2, sort_keys=True)
    _write_out(path, lambda fh: fh.write(text + "\n"))


def _row_to_csv(row, elapsed: float) -> dict:
    owc = ";".join(
        f"{d}:{iv.lower!r}:{iv.upper!r}" for d, iv in row.beta_owc_per_d
    )
    return {
        "game_id": row.game_id,
        "n": row.n,
        "m": row.m,
        "beta_owq": repr(row.beta_owq),
        "beta_product_lower": repr(row.beta_product.lower),
        "beta_product_upper": repr(row.beta_product.upper),
        "beta_entangled_lower": repr(row.beta_entangled.lower),
        "beta_entangled_upper": repr(row.beta_entangled.upper),
        "ent_dA": row.entangled_dims[0],
        "ent_dB": row.entangled_dims[1],
        "pi1o": repr(row.beta_owq),  # both are the trace norm of G
        "pi1cb_lower": repr(row.pi1cb.lower),
        "pi1cb_upper": repr(row.pi1cb.upper),
        "ratio_entangled_vs_owc": repr(row.ratio_entangled_vs_owc),
        "violations": ";".join(row.violations),
        "owc_bounds": owc,  # per-message d:lower:upper triples joined by ';'
        "time_total_s": f"{elapsed:.3f}",  # excluded from the determinism guarantee
    }


def _emit_report(report: HierarchyReport, timings: dict, fmt: str, out: str | None):
    if fmt == "json":
        _dump_json(report.to_dict(), out)
        return
    rows = [_row_to_csv(r, timings.get(r.game_id, 0.0)) for r in report.rows]

    def write(fh):
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)

    _write_out(out, write)


def _budget(args) -> SolverBudget:
    return SolverBudget(
        restarts=args.restarts, max_sweeps=args.sweeps, tol=args.tol, seed=args.seed,
    )


def _check_register_dims(args, *flags):
    """Reject a register dimension flag outside ``[1, MAX_REGISTER_DIM]``."""
    for flag in flags:
        value = getattr(args, flag)
        if not 1 <= value <= MAX_REGISTER_DIM:
            raise ValidationError(f"--{flag} must be an integer in [1, {MAX_REGISTER_DIM}], "
                                  f"got {value}")


def _analyze_many(named_games, args) -> int:
    """The :class:`HierarchyReport` of ``analyze_game`` on each game, plus its
    wall time, for CSV; writes the report and returns the exit code."""
    messages = _capped_schedule(args, "messages", 2 * MAX_REGISTER_DIM)
    ancilla = tuple((v, v) for v in _capped_schedule(args, "ancilla", MAX_REGISTER_DIM))
    budget = _budget(args)
    rows, timings = [], {}
    for gid, game in named_games:
        t0 = time.perf_counter()
        rows.append(analyze_game(
            game, gid, budget, d_schedule=messages, ancilla_schedule=ancilla,
        ))
        timings[gid] = time.perf_counter() - t0
    report = HierarchyReport.of(rows)
    _emit_report(report, timings, args.format, args.out)
    if report.violations:
        print(
            f"solver quality below minimum: {report.violations[0]}", file=sys.stderr
        )
        return EXIT_QUALITY
    return EXIT_OK


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_analyze(args) -> int:
    game = game_from_payload(_read_json(args.game_file))
    return _analyze_many([(args.game_file, game)], args)


def cmd_hierarchy(args) -> int:
    if args.count < 1:
        raise ValidationError("count must be at least one")
    _check_register_dims(args, "n", "m")
    # drawn lazily, so the seed is checked by the budget before any game
    games = (
        (f"random-{i:04d}",
         random_game(args.n, args.m, seed=np.random.SeedSequence([args.seed, i])))
        for i in range(args.count)
    )
    return _analyze_many(games, args)


def cmd_gallery(args) -> int:
    _check_register_dims(args, "n")
    name, n, coeffs = args.name, args.n, args.coeffs
    if name == "swap":
        game = swap_game(n)
    elif name == "chsh":
        game = chsh()
    elif name == "hadamard":
        game = hadamard_game(n)
    else:  # "diagonal", the last name argparse admits
        if not coeffs:
            raise ValidationError("diagonal needs --coeffs 'a,b;c,d'")
        try:
            m = np.array([row.split(",") for row in coeffs.split(";")], dtype=float)
        except ValueError:
            raise SchemaError(f"--coeffs must be rows 'a,b;c,d' of numbers, got {coeffs!r}") from None
        if max(m.shape) > MAX_REGISTER_DIM:
            raise ValidationError(f"--coeffs must have at most {MAX_REGISTER_DIM} rows and "
                                  f"columns, got {m.shape[0]} x {m.shape[1]}")
        game = diagonal_game(m)
    _dump_json(game_to_payload(game), args.out)
    return EXIT_OK


def cmd_norms(args) -> int:
    payload = _read_json(args.tuple_file)
    _check_fields(payload, "", "qxor-tuple/1", ("entries_re", "entries_im"))
    re_list, im_list = payload["entries_re"], payload["entries_im"]
    if not (isinstance(re_list, list) and isinstance(im_list, list)
            and len(re_list) == len(im_list)):
        raise SchemaError("fields entries_re and entries_im must be lists of one length")
    entries = [
        _lists_to_matrix(re, im, f"entries[{i}]")
        for i, (re, im) in enumerate(zip(re_list, im_list))
    ]
    if len({e.shape for e in entries}) != 1:
        raise SchemaError("entries must be one or more matrices of one shape")
    t = np.stack(entries)
    res = rplus2c_split(t)
    row, col = row_norm(t), col_norm(t)
    out = {"row": row, "col": col, "rc": max(row, col), "rplus2c": res.value, "weight": res.weight}
    # an upper beyond the float range is reported as unbounded (null) and
    # the lower is rounded down to the largest float
    out = {k: v if math.isfinite(v) else None for k, v in out.items()}
    out.update(rplus2c_lower=min(res.lower, sys.float_info.max), converged=res.converged)
    _dump_json(out, args.out)
    return EXIT_OK


def _space_from_payload(p: dict, what: str) -> Space:
    if not isinstance(p, dict) or set(p) - {"kind", "dim"}:
        raise SchemaError(f"field {what} must be {{kind, dim}}")
    kind, dim = p.get("kind"), p.get("dim")
    if kind not in ("matrix", "dual") or type(dim) is not int:
        raise SchemaError(f"field {what} has invalid kind or dim")
    return Space(kind, dim)


def cmd_factor(args) -> int:
    levels = _capped_schedule(args, "levels", MAX_REGISTER_DIM)
    budget = _budget(args)
    payload = _read_json(args.tensor_file)
    _check_fields(payload, "", "qxor-tensor/1", ("X", "Y", "coeff_re", "coeff_im"))
    x_space = _space_from_payload(payload["X"], "X")
    y_space = _space_from_payload(payload["Y"], "Y")
    coeff = _lists_to_matrix(payload["coeff_re"], payload["coeff_im"], "coeff")
    z = TensorElement(x_space, y_space, coeff)
    res = gamma_rc_upper(z, budget)
    out = {
        "gamma_upper": res.gamma_upper if math.isfinite(res.gamma_upper) else None,
        "x_norm_upper": res.x_norm_upper,
        "y_norm_upper": res.y_norm_upper,
        "evaluations": res.evaluations,
    }
    if x_space.kind == "dual":
        iv = gamma_to_Gamma(z, res.gamma_upper, budget, schedule=levels)
        out["factorization_interval"] = iv.to_dict()
    _dump_json(out, args.out)
    return EXIT_OK


def cmd_selftest(args) -> int:
    from .acceptance import CRITERIA

    if args.list_only:
        for crit in CRITERIA:
            print(f"{crit.id}: {crit.title}")
        return EXIT_OK
    first_failure = None
    results = []
    for crit in CRITERIA:
        t0 = time.perf_counter()
        try:
            crit.run()
            result, status = "pass", "pass"
        except AssertionError as exc:
            result, status = "fail", f"FAIL ({exc})"
            if first_failure is None:
                first_failure = crit.id
        elapsed = time.perf_counter() - t0
        results.append({"id": crit.id, "result": result, "seconds": elapsed})
        if not args.json:
            print(f"[{crit.id}] {crit.title}: {status} ({elapsed:.1f}s)")
    if args.json:
        _dump_json({"criteria": results}, None)
    if first_failure is not None:
        print(f"selftest failed, first failing criterion: {first_failure}",
              file=sys.stderr)
        return EXIT_SELFTEST_FAIL
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_budget(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, default=SolverBudget.seed,
                   help="seed of every random start, and of hierarchy's games, in [0, 2**32)")
    p.add_argument("--restarts", type=int, default=8,
                   help="random starts per see-saw; an entangled or amplified-norm level "
                        "above a ladder's first see-saw level runs one, a one-way-classical "
                        "level max(1, RESTARTS // 2), one more from 3 messages")
    p.add_argument("--sweeps", type=int, default=120,
                   help="sweeps a see-saw start may run")
    p.add_argument("--tol", type=float, default=SolverBudget.tol,
                   help="relative gain in (0, 1) at or below which a start stops")


def _add_analysis(p: argparse.ArgumentParser):
    """The flags of the two subcommands that run ``analyze_game``."""
    _add_budget(p)
    p.add_argument("--messages", type=str, default="1,2",
                   help="comma-separated message counts")
    p.add_argument("--ancilla", type=str, default="1,2",
                   help="comma-separated ancilla dimensions (used symmetrically)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", type=str, default=None)


def _parse_schedule(text: str, flag: str) -> tuple:
    """Comma-separated positive integers, sorted and deduplicated; anything
    else is a :class:`SchemaError` naming ``flag``."""
    try:
        values = [int(v) for v in text.split(",")]
        if min(values) < 1:
            raise ValueError
    except ValueError:
        raise SchemaError(
            f"{flag} must be comma-separated positive integers, got {text!r}"
        ) from None
    return normalize_schedule(values, flag)


def _capped_schedule(args, flag: str, cap: int) -> tuple:
    """The schedule of ``--flag``; an entry above ``cap`` is a
    :class:`ValidationError` naming the flag."""
    schedule = _parse_schedule(getattr(args, flag), f"--{flag}")
    if schedule[-1] > cap:
        raise ValidationError(f"--{flag} entries must be at most {cap}, got {schedule[-1]}")
    return schedule


def build_parser() -> argparse.ArgumentParser:
    """Each subcommand registers only the flags it reads, so argparse
    rejects any other flag with exit 2."""
    parser = argparse.ArgumentParser(
        prog="qxor",
        description="Bias bounds and operator-space norms for quantum XOR games",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="analyze one game file")
    p.add_argument("game_file")
    _add_analysis(p)
    p.set_defaults(run=cmd_analyze)

    p = sub.add_parser("hierarchy", help="analyze random games and aggregate")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--m", type=int, default=2)
    _add_analysis(p)
    p.set_defaults(run=cmd_hierarchy)

    p = sub.add_parser("gallery", help="emit a named game as JSON")
    p.add_argument("name", choices=("swap", "chsh", "hadamard", "diagonal"))
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--coeffs", type=str, default=None)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(run=cmd_gallery)

    p = sub.add_parser("norms", help="tuple-norm calculator on a tuple file")
    p.add_argument("tuple_file")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(run=cmd_norms)

    p = sub.add_parser("factor", help="decomposition/factorization bounds on a tensor file")
    p.add_argument("tensor_file")
    _add_budget(p)
    p.add_argument("--levels", type=str, default="1,2",
                   help="comma-separated amplification levels")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(run=cmd_factor)

    p = sub.add_parser("selftest", help="run the acceptance criteria")
    p.add_argument("--list", action="store_true", dest="list_only")
    p.add_argument("--json", action="store_true",
                   help="print one JSON object: id, result and seconds per criterion")
    p.set_defaults(run=cmd_selftest)

    return parser


def main(argv=None) -> int:
    """Run one subcommand. Every malformed file or flag value, and an
    ``--out`` path that cannot be written, ends here as a parse error
    (exit 2) and every invalid object as a validation error (exit 3),
    whichever subcommand met it."""
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "out", None):
            _check_out(args.out)
        return args.run(args)
    except SchemaError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
