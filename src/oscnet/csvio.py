"""CSV writers for simulation artifacts.

Every cell is rendered with 12 significant digits ("%.12g"): indices and
0/1 flags print as plain integers, missing values as ``nan``, and rows
come in a fixed deterministic order, so repeated runs of the same
scenario produce byte-identical files.
"""

from __future__ import annotations

import os

import numpy as np

_FORMAT = "%.12g"
#: Rows whose varying cells are copied out and formatted together.
_ROW_BLOCK = 64


def fmt(x) -> str:
    """12-significant-digit rendering used by every writer."""
    return _FORMAT % float(x)


def _open(path):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    return open(path, "w", newline="\n")


def _constant_columns(table) -> np.ndarray:
    """Columns whose float64 bits are the same in every row (none if no rows)."""
    bits = table.view(np.uint64)
    return bits.min(axis=0, initial=np.iinfo(np.uint64).max) == bits.max(axis=0, initial=0)


def _write_table(path, header, columns) -> None:
    """Header line, then one "%.12g" row per row of the stacked columns.

    A column whose float64 bits are the same in every row (so 0.0 and -0.0
    do not match) is formatted once, into the row template; only the other
    columns go through "%", a block of _ROW_BLOCK rows at a time.  The
    bytes are those of formatting every cell.
    """
    table = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    constant = _constant_columns(table)
    line = ",".join(
        fmt(table[0, k]).replace("%", "%%") if constant[k] else _FORMAT
        for k in range(table.shape[1])
    ) + "\n"
    with _open(path) as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, table.shape[0], _ROW_BLOCK):
            for row in table[start:start + _ROW_BLOCK, ~constant].tolist():
                fh.write(line % tuple(row))


def write_trajectory(path, traj) -> None:
    """Per-time moments: t, then per node (mean_q, mean_p, var_q, var_p,
    cov_qp), then total_energy."""
    header = ["t"]
    for j in range(traj.n):
        header += [
            f"mean_q_{j}", f"mean_p_{j}", f"var_q_{j}", f"var_p_{j}", f"cov_qp_{j}",
        ]
    header.append("total_energy")
    per_node = np.stack(
        [traj.mean_q, traj.mean_p, traj.var_q, traj.var_p, traj.cov_qp], axis=2
    )
    _write_table(path, header, [
        traj.times, per_node.reshape(traj.times.shape[0], -1), traj.energy,
    ])


def write_pair_measures(path, times, pairs, corr, info, discord, logneg) -> None:
    """Per (time, pair) rows: t, pair_i, pair_j, C, I, discord, logneg.

    Value arrays have shape (len(times), len(pairs)); NaN marks windows
    or points where a quantity is undefined.
    """
    header = ["t", "pair_i", "pair_j", "C", "I", "discord", "logneg"]
    ij = np.tile(np.asarray(pairs, dtype=float).reshape(-1, 2), (len(times), 1))
    _write_table(path, header, [
        np.repeat(times, len(pairs)), ij,
        *(np.ravel(v) for v in (corr, info, discord, logneg)),
    ])


def write_aggregate(path, times, sync, avg_discord, avg_info, avg_logneg) -> None:
    """Collective series: t, S, avg_discord, avg_I, avg_logneg."""
    header = ["t", "S", "avg_discord", "avg_I", "avg_logneg"]
    _write_table(path, header, [times, sync, avg_discord, avg_info, avg_logneg])


def write_modes(path, decomp) -> None:
    """Mode table: mode, Omega, kappa, Gamma, D (rates nan if absent)."""
    header = ["mode", "Omega", "kappa", "Gamma", "D"]
    rates = [
        np.full(decomp.n, np.nan) if r is None else r
        for r in (decomp.eff_coupling, decomp.damping, decomp.diffusion)
    ]
    _write_table(path, header, [np.arange(decomp.n), decomp.freqs, *rates])


def write_transform(path, decomp) -> None:
    """The node-to-mode matrix F, one node per row, one mode per column."""
    _write_table(path, [f"mode_{m}" for m in range(decomp.n)], [decomp.modes])


def write_scan(path, scan) -> None:
    """Tuning scan: value, kappa_sigma, sigma_index, stable, swapped."""
    name = "_".join(str(p) for p in scan.param)
    header = [name, "kappa_sigma", "sigma_index", "stable", "swapped"]
    _write_table(path, header, [
        scan.values, scan.kappa_sigma, scan.sigma_index, scan.stable, scan.swapped,
    ])


def write_sweep_map(path, param_name, table) -> None:
    """Sweep map, an already ordered (rows, 4) table of value, t, S,
    avg_discord."""
    _write_table(path, [param_name, "t", "S", "avg_discord"], [table])


def write_text(path, text: str) -> None:
    with _open(path) as fh:
        fh.write(text)
