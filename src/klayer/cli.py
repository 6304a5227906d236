"""Command-line front end: steady solves, evolution runs, verification sweeps.

Commands
    steady-radial   nonlocal steady state on the ball, CSV profile r,W,U
    steady-2d       nonlocal steady state on a masked 2D domain, CSV x,y,W,U
                    plus a curvature/thickness table along the boundary
    evolve          radial time integration from a perturbed steady state,
                    CSV diagnostics (evolve_radial.COLUMNS); dt defaults to t_end / 1000
    verify          small-eps expansion suite (boundary slopes, lambda_eps,
                    layer thickness); exit code 2 when a gap exceeds its
                    tolerance
    sweep           steady solves over eps-list x p-list, one row per pair

Configuration comes from key=value files plus command-line flags (flags win).
Numbers are serialised with 17 significant digits so repeated runs produce
byte-identical CSVs.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import asymptotics, evolve_radial, planar2d
from .core import Params, make_graded_grid
from .errors import SolverError
from .mass_constraint import solve_nonlocal
from .radial_steady import lambda_leading, layer_width

__all__ = ["ConfigError", "RunConfig", "parse_config", "run", "main"]


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    command: str
    params: Params
    R: float = 1.0
    shape: object = "disk"  # steady-2d: the planar2d shape parse_config makes of it
    h: float = 0.01
    grid_count: int = 2500
    out: Path = Path(".")
    seed: int = 0
    eps_list: tuple = ()
    p_list: tuple = ()
    t_end: float = 20.0
    dt: float = 0.0  # 0: t_end / 1000, which parse_config puts in its place
    perturb: float = 0.01
    level_c: float = 0.0  # 0: b / 2, which parse_config puts in its place
    samples: int = 48
    output_every: int = 20


# config key -> (type, flag, commands that take it; empty: every command).
# The same rule admits a key from a config file and its flag on a sub-command.
# 'command' has no flag: the sub-command sets it.
_OPTIONS = {
    "command": (str, None, ()),
    "out": (Path, "--out", ()),
    "epsilon": (float, "--eps", ()),
    "p": (float, "--p", ()),
    "b": (float, "--b", ()),
    "m": (float, "--m", ()),
    "n": (int, "--n", ()),
    "R": (float, "--R", ()),
    # steady-2d builds no radial grid, and evolve reports no thickness
    "grid_count": (int, "--grid-count", ("steady-radial", "evolve", "verify", "sweep")),
    "level_c": (float, "--level-c", ("steady-radial", "steady-2d", "verify", "sweep")),
    "shape": (str, "--shape", ("steady-2d",)),
    "h": (float, "--h", ("steady-2d",)),
    "samples": (int, "--samples", ("steady-2d",)),
    "seed": (int, "--seed", ("evolve",)),
    "t_end": (float, "--t-end", ("evolve",)),
    "dt": (float, "--dt", ("evolve",)),
    "perturb": (float, "--perturb", ("evolve",)),
    "output_every": (int, "--output-every", ("evolve",)),
    "eps_list": (str, "--eps-list", ("verify", "sweep")),
    "p_list": (str, "--p-list", ("sweep",)),
}

_PARAMS = ("epsilon", "p", "b", "m", "n")
_REQUIRED = _PARAMS + ("R",)


def _takes(command: str, key: str) -> bool:
    commands = _OPTIONS[key][2]
    return not commands or command in commands


def _parse_file(path: str) -> dict:
    entries = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _OPTIONS:
                raise ConfigError(f"{path}:{lineno}: unknown key '{key}'")
            caster = _OPTIONS[key][0]
            try:
                entries[key] = caster(value)
            except ValueError:
                raise ConfigError(
                    f"{path}:{lineno}: value for '{key}' must be {caster.__name__}, got {value!r}"
                ) from None
    return entries


def _float_list(text: str) -> tuple:
    try:
        return tuple(float(tok) for tok in text.replace(",", " ").split())
    except ValueError:
        raise ConfigError(f"cannot parse number list from {text!r}") from None


def parse_config(path: str | None, overrides: dict) -> RunConfig:
    """Merge a key=value file with flag overrides into a validated RunConfig."""
    entries = _parse_file(path) if path else {}
    for key, value in overrides.items():
        if value is None:
            continue
        if key not in _OPTIONS:
            raise ConfigError(f"unknown override '{key}'")
        entries[key] = _OPTIONS[key][0](value)

    command = entries.pop("command", None)
    if command is None:
        raise ConfigError("missing required key 'command'")
    if command not in COMMANDS:
        raise ConfigError(f"unknown command '{command}' (choose from {', '.join(COMMANDS)})")
    for key in entries:
        if not _takes(command, key):
            raise ConfigError(
                f"'{key}' applies only to {' and '.join(_OPTIONS[key][2])}, not to {command}"
            )

    for key in ("eps_list", "p_list"):
        if key in entries:
            entries[key] = _float_list(entries[key])
            bad = [x for x in entries[key] if not (x > 0 and math.isfinite(x))]
            if bad:
                raise ConfigError(f"'{key}' entries must be finite and positive, got {bad[0]}")
    if command == "sweep" and entries.get("eps_list"):
        entries.setdefault("epsilon", entries["eps_list"][0])
    missing = [key for key in _REQUIRED if key not in entries]
    if missing:
        raise ConfigError(
            "missing required key" + ("s" if len(missing) > 1 else "") + ": "
            + ", ".join(f"'{k}'" for k in missing)
        )

    try:
        params = Params(**{key: entries.pop(key) for key in _PARAMS})
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    cfg = RunConfig(command=command, params=params, **entries)

    # 0 means the default for dt and level_c; any other value out of range
    # is rejected here, before a solve or a written file
    if not (cfg.dt >= 0 and math.isfinite(cfg.dt)):
        raise ConfigError(f"'dt' must be finite and >= 0 (0: t_end / 1000), got {cfg.dt}")
    if not (cfg.t_end > 0 and math.isfinite(cfg.t_end)):
        raise ConfigError(f"'t_end' must be finite and positive, got {cfg.t_end}")
    if cfg.output_every < 1:
        raise ConfigError(f"'output_every' must be >= 1, got {cfg.output_every}")
    cfg.dt = cfg.dt or cfg.t_end / 1000
    cfg.level_c = cfg.level_c or params.b / 2.0
    # the rows at t = 0, after every output_every steps and after the last
    rows = 1 + -(-evolve_radial.step_count(cfg.dt, cfg.t_end) // cfg.output_every)
    if rows < evolve_radial.FIT_MIN_SAMPLES:
        raise ConfigError(f"'dt' and 'output_every' give {rows} diagnostic rows, fewer than "
                          f"the {evolve_radial.FIT_MIN_SAMPLES} the decay-rate fit needs")
    if not (cfg.R > 0 and math.isfinite(cfg.R)):
        raise ConfigError(f"'R' must be finite and positive, got {cfg.R}")
    if not abs(cfg.perturb) < 1:  # u0 = U (1 + perturb cos(...)) must stay positive
        raise ConfigError(f"'perturb' must lie in (-1, 1), got {cfg.perturb}")
    if cfg.seed < 0:
        raise ConfigError(f"'seed' must be >= 0, got {cfg.seed}")
    if not (cfg.h > 0 and math.isfinite(cfg.h)):
        raise ConfigError(f"'h' must be finite and positive, got {cfg.h}")
    if cfg.samples < 1:
        raise ConfigError(f"'samples' must be >= 1, got {cfg.samples}")
    if command != "evolve" and cfg.grid_count < 16:  # evolve clamps it to [64, 512]
        raise ConfigError(f"'grid_count' must be >= 16, got {cfg.grid_count}")
    if command == "steady-2d":
        if params.n != 2:
            raise ConfigError(f"'n' must be 2 for steady-2d, a planar domain, got {params.n}")
        cfg.shape = _parse_shape(cfg.shape, cfg.R)
    if not 0 <= cfg.level_c < params.b:
        raise ConfigError(f"'level_c' must lie in [0, b) = [0, {params.b}) (0: b/2), "
                          f"got {cfg.level_c}")
    eps = cfg.eps_list
    if command == "verify" and eps and (len(eps) < 3 or not np.all(np.diff(eps) < 0)):
        raise ConfigError(f"'eps_list' of verify must be decreasing with >= 3 entries, "
                          f"got {' '.join(map(str, eps))}")
    return cfg


# ---------------------------------------------------------------------------
# output helpers


# rows that _write_csv joins and writes at a time; at 4096 its traced peak on
# the README ellipse's field (h = 0.01) reached 2.3 MB, the file's own size
CSV_BLOCK_ROWS = 2048


def _write_csv(path: Path, header: str, columns) -> None:
    """One line per index of the columns, which must all have the same
    length (ValueError otherwise, before the file is opened).  A numpy
    column of dtype object holds str, written as it stands; any other column
    holds numbers, each written with %.17g.

    A number column formats each distinct bit pattern once, and each row
    looks its text up among them: a steady-2d field holds each value on
    every mirror image of its node, and its x and y only the grid
    coordinates.  Bits, not values, so that -0.0 and 0.0 keep their own
    text.  The rows are written CSV_BLOCK_ROWS at a time, each block one
    join over its cells, separators included: no str is made per line, and
    neither the text of the whole table nor a per-row text or index array
    is held: on the README ellipse's 31k-row field at h = 0.01, a 2.3 MB
    file, the traced peak is 1.8 MB."""
    columns = [
        col if isinstance(col, np.ndarray) and col.dtype == object
        else np.asarray(col, dtype=float).view(np.int64)
        for col in columns
    ]
    count = len(columns[0])
    if any(len(col) != count for col in columns):
        raise ValueError(f"columns of unequal lengths {[len(col) for col in columns]}")
    # each number column's distinct bit patterns, ascending, and their texts
    distinct = [None if col.dtype == object else np.unique(col) for col in columns]
    texts = [
        None if bits is None
        else np.array(["%.17g" % x for x in bits.view(float).tolist()], dtype=object)
        for bits in distinct
    ]
    width = 2 * len(columns)
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for start in range(0, count, CSV_BLOCK_ROWS):
            block = slice(start, start + CSV_BLOCK_ROWS)
            rows = min(count - start, CSV_BLOCK_ROWS)
            # the block's row-major cells, separators included
            cells = [","] * (rows * width)
            for k, (col, bits, text) in enumerate(zip(columns, distinct, texts)):
                part = col[block]
                cells[2 * k :: width] = part if bits is None else text[np.searchsorted(bits, part)]
            cells[width - 1 :: width] = ["\n"] * rows
            fh.write("".join(cells))


def _write_summary(path: Path, items: dict) -> None:
    _write_csv(path, "key,value", (np.array(list(items), dtype=object), list(items.values())))


# keys each --shape accepts, e.g. 'ellipse:a=1.4142,b=0.7071'
_SHAPE_KEYS = {"disk": ("r",), "ellipse": ("a", "b"), "star": ("r0", "amplitude", "k")}


def _parse_shape(text: str, R: float):
    """The planar2d shape that text names; R is the default disk and star radius."""
    name, _, args = text.strip().lower().partition(":")
    if name not in _SHAPE_KEYS:
        raise ConfigError(
            f"unknown shape '{text}' "
            "(disk:r=.. | ellipse:a=..,b=.. | star:r0=..,amplitude=..,k=..)"
        )
    kv = {}
    if args:
        for token in args.replace(";", ",").split(","):
            k, eq, v = (part.strip() for part in token.partition("="))
            if not eq:
                raise ConfigError(f"shape argument '{token.strip()}' is not key=value")
            if k not in _SHAPE_KEYS[name]:
                raise ConfigError(
                    f"unknown key '{k}' for shape '{name}' "
                    f"(keys: {', '.join(_SHAPE_KEYS[name])})"
                )
            try:
                kv[k] = float(v)
            except ValueError:
                raise ConfigError(f"shape key '{k}' must be a number, got {v!r}") from None
    try:
        if name == "disk":
            return planar2d.Disk(kv.get("r", R))
        if name == "ellipse":
            return planar2d.Ellipse(kv.get("a", math.sqrt(2.0)), kv.get("b", 1.0 / math.sqrt(2.0)))
        return planar2d.Star(kv.get("r0", R), kv.get("amplitude", 0.15), kv.get("k", 5))
    except ValueError as exc:
        raise ConfigError(f"shape '{text}': {exc}") from None


# ---------------------------------------------------------------------------
# command implementations


def _constants(steady) -> dict:
    """The constants every steady summary and sweep row opens with."""
    return {"lambda_eps": steady.lambda_eps, "amplitude": steady.amplitude, "sigma": steady.sigma}


def _run_steady_radial(cfg: RunConfig) -> int:
    st = solve_nonlocal(cfg.params, cfg.R, cfg.grid_count)
    columns = (st.W.grid.nodes, st.W.values, st.U.values)
    _write_csv(cfg.out / "steady_profile.csv", "r,W,U", columns)
    summary = {
        **_constants(st),
        **asymptotics.measure(st, cfg.level_c),
        "bisection_iters": st.bisection_iters,
        "constraint_residual": st.constraint_residual,
    }
    _write_summary(cfg.out / "steady_summary.csv", summary)
    return 0


def _run_steady_2d(cfg: RunConfig) -> int:
    grid = planar2d.build_domain(cfg.shape, cfg.h)
    samples = planar2d.boundary_samples(cfg.shape, cfg.samples)
    st = planar2d.solve_nonlocal_2d(cfg.params, grid)
    mask = grid.inside
    i, j = np.nonzero(mask)  # the inside nodes, in the C order of [mask]
    columns = (grid.coords[i], grid.coords[j], st.W.values[mask], st.U.values[mask])
    _write_csv(cfg.out / "steady_field.csv", "x,y,W,U", columns)
    table = planar2d.curvature_thickness_report(st.W, samples, cfg.level_c, cfg.params)
    _write_csv(cfg.out / "curvature_thickness.csv", "arclength,curvature,thickness", table.T)
    _write_summary(
        cfg.out / "steady_summary.csv",
        {
            **_constants(st),
            "area": grid.area(),
            "bisection_iters": st.bisection_iters,
            "constraint_residual": st.constraint_residual,
        },
    )
    return 0


def _evolve_grid(cfg: RunConfig):
    ell = layer_width(
        cfg.params.epsilon**2 * lambda_leading(cfg.params, cfg.R), cfg.params
    )
    count = min(max(64, cfg.grid_count), 512)
    lw = min(max(ell, 1e-3 * cfg.R), 10.0 * cfg.R / (count - 1))
    return make_graded_grid(cfg.R, cfg.params.n, lw, count)


def _run_evolve(cfg: RunConfig) -> int:
    grid = _evolve_grid(cfg)
    reference = evolve_radial.relax_to_discrete_steady(grid, cfg.params)

    rng = np.random.default_rng(cfg.seed)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    r = grid.nodes
    u0 = reference.U.values * (1.0 + cfg.perturb * np.cos(math.pi * r / cfg.R + phase))
    v_shape = np.cos(math.pi * r / (2.0 * cfg.R))  # vanishes at r = R
    V = np.log(reference.W.values)
    w0 = np.exp(V * (1.0 + cfg.perturb * math.cos(phase) * v_shape))
    series = evolve_radial.evolve(reference, u0, w0, cfg.dt, cfg.t_end, cfg.output_every)
    _write_csv(cfg.out / "evolve_diagnostics.csv", ",".join(evolve_radial.COLUMNS),
               [getattr(series, name) for name in evolve_radial.COLUMNS])
    d, mass = series.distance(), series.mass
    summary = {"mu_hat": evolve_radial.fit_decay_rate(series.t, d),
               "initial_distance": d[0], "final_distance": d[-1],
               "mass_drift": float(np.max(np.abs(mass - mass[0])) / mass[0]),
               "dt": cfg.dt, "perturb": cfg.perturb, "seed": cfg.seed}
    _write_summary(cfg.out / "evolve_summary.csv", summary)
    return 0


def _run_verify(cfg: RunConfig) -> int:
    eps_list = cfg.eps_list or (4e-3, 2e-3, 1e-3)
    reports = asymptotics.verify_expansion(
        cfg.params, cfg.R, eps_list, level_c=cfg.level_c, count=cfg.grid_count
    )
    passed = []
    for quantity, report in reports.items():
        tol = asymptotics.EXPANSION[quantity][1]
        ok = report.relative_gap <= tol
        passed.append(ok)
        print(
            f"verify {quantity}: gap {report.relative_gap:.4f} "
            f"({'ok' if ok else 'EXCEEDS'} tol {tol})"
        )
    rows = reports.values()
    columns = (
        np.array(list(reports), dtype=object),
        [report.leading_coefficient for report in rows],
        [report.extrapolated_coefficient for report in rows],
        [report.relative_gap for report in rows],
        passed,
    )
    _write_csv(cfg.out / "verify_report.csv",
               "quantity,predicted,extrapolated,relative_gap,pass", columns)
    return 0 if all(passed) else 2


def _run_sweep(cfg: RunConfig) -> int:
    eps_list = cfg.eps_list or (cfg.params.epsilon,)
    p_list = cfg.p_list or (cfg.params.p,)
    rows = []
    for eps, p in sorted((eps, p) for eps in eps_list for p in p_list):
        par = replace(cfg.params, epsilon=eps, p=p)
        st = solve_nonlocal(par, cfg.R, cfg.grid_count)
        rows.append({"eps": eps, "p": p, **_constants(st), **asymptotics.measure(st, cfg.level_c)})
    _write_csv(cfg.out / "sweep.csv", ",".join(rows[0]), zip(*(row.values() for row in rows)))
    return 0


COMMANDS = {
    "steady-radial": _run_steady_radial,
    "steady-2d": _run_steady_2d,
    "evolve": _run_evolve,
    "verify": _run_verify,
    "sweep": _run_sweep,
}


# ---------------------------------------------------------------------------
# entry point


def run(config: RunConfig) -> int:
    """Execute a validated configuration; returns the process exit code.  A
    failed command removes the directories made for config.out while empty."""
    import tempfile  # here, so that `import klayer.cli` pays nothing for it

    made = [d for d in (config.out, *config.out.parents) if not d.exists()]  # deepest first
    config.out.mkdir(parents=True, exist_ok=True)
    try:
        try:
            # an unnamed file, so no file of the user's is touched; it goes on close
            tempfile.TemporaryFile(dir=config.out).close()
        except OSError as exc:
            raise OSError(f"output directory {config.out} is not writable: {exc}") from exc
        return COMMANDS[config.command](config)
    except BaseException:
        with contextlib.suppress(OSError):  # rmdir stops at the first that is not empty
            for directory in made:
                directory.rmdir()
        raise


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The klayer parser.  Every sub-command is listed, but only command's
    (every one's, when command is None) takes its options: argparse reads
    only the invoked sub-parser, and each add_argument queries the terminal
    size."""
    parser = argparse.ArgumentParser(
        prog="klayer",
        description="Boundary-layer steady states and stability of a singular "
        "chemotaxis system",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        # no prefix matching: '--h' on a command without --h would be --help
        cmd = sub.add_parser(name, allow_abbrev=False)
        if command is not None and name != command:
            continue
        cmd.add_argument("--config", default=None)
        for key, (caster, flag, _) in _OPTIONS.items():
            if flag and _takes(name, key):
                cmd.add_argument(flag, dest=key, type=caster, default=None)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
    overrides = {key: value for key, value in vars(args).items() if key in _OPTIONS}
    try:
        config = parse_config(args.config, overrides)
        return run(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (SolverError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
