"""CSV writers for simulation artifacts.

Every cell is rendered with 12 significant digits ("%.12g"): indices and
0/1 flags print as plain integers, missing values as ``nan``, and rows
come in a fixed deterministic order, so repeated runs of the same
scenario produce byte-identical files.

The bytes are those of ``"%.12g" % x`` for every cell, but one numpy
kernel, ``_render``, prints most cells, a block of rows at a time.  For
finite x with |x| >= 1e-296 it takes e = floor(log10|x|) and
m = |x|·10^(11−e), where 10^(11−e) is the correctly rounded double, so m
carries at most two roundings: an error below 2.3e-4, since m < 1e12.  The
12 significant digits are r = rint(m), laid out from lookup tables in the
fixed or exponent notation that "%g" picks for the exponent e.  A cell
goes through "%" instead when the product cannot decide its digits:

- m within _GUARD of a half-integer (exact ties included);
- m < 1e11 or r > 1e12: log10 misjudged e;
- |x| < 1e-296 (subnormals included), nan and ±inf.

r = 1e12 carries into the next exponent.  On the shipped presets only the
nan cells and about two in a thousand guard cells take that path.
"""

from __future__ import annotations

import functools
import os
from types import SimpleNamespace

import numpy as np

_FORMAT = "%.12g"
#: Cells rendered together; blocks of rows this large are streamed to the
#: file one at a time, so the kernel's temporaries stay small.
_BLOCK_CELLS = 8192
#: A cell's slot, before its separator: 2 unused bytes, "-0.000", the 12
#: digits each followed by "." (the byte after the last digit is "e"),
#: then the exponent's sign and 3 digits.  A cell printed by "%" has its
#: text (at most 19 bytes) copied to bytes 8 on.
_SLOT = 36
#: m this close to a half-integer may round either way: the cell uses "%".
_GUARD = 1e-3
#: The smallest |x| the kernel prints: 10^(11-e) is then at most 1e308.
_TINY = 1e-296
_EMIN, _EMAX = -297, 308


def fmt(x) -> str:
    """12-significant-digit rendering used by every writer."""
    return _FORMAT % float(x)


def _open(path, binary=False):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    return open(path, "wb") if binary else open(path, "w", newline="\n")


@functools.cache
def _digit_tables() -> SimpleNamespace:
    """The kernel's lookup tables, built on first use.

    A slot keeps the bytes that ``keep[key]`` selects, with
    key = (class·12 + s − 1)·2 + negative: class 0..15 is fixed notation
    with exponent −4..11, 16 and 17 exponent notation with 2 and 3 exponent
    digits, and s the significant digits left once trailing zeros go.  The
    rows after those keep the "%" text copied to byte 8, one row per length.
    """
    p = np.arange(_SLOT)
    x = np.arange(-4, 14)[:, None, None, None]
    s = np.arange(1, 13)[None, :, None, None]
    neg = np.arange(2)[None, None, :, None]
    fixed, whole = x < 12, (x >= 0) & (x < 12)
    di, odd = np.divmod(p - 8, 2)
    digit = (p >= 8) & (p < 32) & (odd == 0)
    dot = (p >= 8) & (p < 31) & (odd == 1)
    keep = (
        # the sign; "0." and -x - 1 zeros below 1 in fixed notation
        ((p == 2) & (neg == 1))
        | (fixed & (x < 0) & (p >= 3) & (p < 4 - x))
        # the integer digits and the fraction's, or the s digits
        | (digit & np.where(whole, di <= np.maximum(x, s - 1), di < s))
        # the "." after digit x, or after the first in exponent notation
        | (dot & np.where(whole, (di == x) & (s - 1 > x), ~fixed & (di == 0) & (s > 1)))
        # "e", the sign and 2 or 3 exponent digits
        | (~fixed & (p >= 31) & ((p != 33) | (x == 13)))
    ).reshape(-1, _SLOT)
    copied = (p >= 8) & (p < 8 + np.arange(_SLOT - 7)[:, None])

    e = np.arange(_EMIN, _EMAX + 1)
    cls = np.where((e >= -4) & (e < 12), e + 4, np.where(abs(e) < 100, 16, 17))
    exp = (np.where(e < 0, ord("-"), ord("+")) + ((48 + abs(e) // 100) << 8)
           + ((48 + abs(e) // 10 % 10) << 16) + ((48 + abs(e) % 10) << 24))

    # r in three words of four digits: word i's digits with their "."
    # (the last word ends in "e"), and 2·s when the word holds r's last
    # nonzero digit; r = 0 prints one digit
    g = np.arange(10000)
    quad = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], 1) + 48
    after = np.full(4, ord("."))
    words = [quad + after * 256, quad + after * 256, quad + np.append(after[:3], ord("e")) * 256]
    zeros = np.where(g % 10 > 0, 0, np.where(g % 100 > 0, 1, np.where(g % 1000 > 0, 2, 3)))
    sig = np.where(g > 0, 4 * np.arange(1, 4)[:, None] - zeros, 0)
    sig[0, 0] = 1
    return SimpleNamespace(
        keep=np.concatenate([keep, copied]),
        copied=keep.shape[0],
        base=cls * 24 - 2,
        exp=exp.astype(np.uint32),
        scale=np.array([float(f"1e{11 - v}") for v in e]),
        quad=np.concatenate(words).astype(np.uint16).view(np.uint64).ravel(),
        sig=(2 * sig).astype(np.uint8).ravel(),
        template=np.frombuffer(b"  -0.000", np.uint8),
    )


def _render(t, block, slots, keep_table, column_keys, keep) -> None:
    """Print a (rows, k) block into its (rows, k, width) slots, and pick each
    slot's kept bytes into keep: row key + column_keys of keep_table."""
    x = block.ravel()
    a = np.abs(x)
    kernel = (a >= _TINY) & (a < np.inf)
    ex = np.floor(np.log10(np.where(kernel, a, 1.0))).astype(np.intp) - _EMIN
    m = np.where(kernel, a, 0.0) * t.scale[ex]
    r = np.rint(m)
    ok = (np.abs(m - r) < 0.5 - _GUARD) & (m >= 1e11) & (r <= 1e12) | (a == 0.0)
    # r = 10^12 carries into the next exponent
    carry = r == 1e12
    r = np.where(carry, 1e11, r)
    ex += carry
    # r as three words of four digits, each indexing its own 10^4 entries
    ri = r.astype(np.int64)
    high = ri // 10**8
    low = ri - high * 10**8
    mid = low // 10**4
    words = np.stack([high, mid + 10**4, low - mid * 10**4 + 2 * 10**4])
    key = t.base[ex] + t.sig[words].max(axis=0) + np.signbit(x)
    digits = t.quad[words]
    slot_words = slots.view(np.uint64).reshape(x.size, -1)
    for i in range(3):
        slot_words[:, 1 + i] = digits[i]
    slots.view(np.uint32).reshape(x.size, -1)[:, 8] = t.exp[ex]
    other = np.flatnonzero(~ok)
    if other.size:
        text = np.array([_FORMAT % v for v in x[other].tolist()], dtype=f"S{_SLOT - 8}")
        text = text.view(np.uint8).reshape(other.size, -1)
        slots.reshape(x.size, -1)[other, 8:_SLOT] = text
        key[other] = t.copied + np.count_nonzero(text, axis=1)
    # mode="clip" lets take write straight into keep, without a buffer
    np.take(keep_table, key.reshape(block.shape) + column_keys, axis=0, out=keep, mode="clip")


def _constant_columns(table) -> np.ndarray:
    """Columns whose float64 bits are the same in every row (none if no rows)."""
    bits = table.view(np.uint64)
    return bits.min(axis=0, initial=np.iinfo(np.uint64).max) == bits.max(axis=0, initial=0)


def _write_table(path, header, columns, order=None) -> None:
    """Header line, then one "%.12g" row per row of the columns (1-D
    columns, or 2-D blocks of them), a block of rows at a time.

    The table's columns are the given ones side by side, or those picked
    by ``order``, an index into them, so a writer can pass the arrays it
    holds without copying them into the table's column order.

    A column whose float64 bits are the same in every row (so 0.0 and -0.0
    do not match) is formatted once, with "%", into the separator after
    the varying cell before it; the first row's leading constant cells end
    the previous row's separator and are cut after the last row.  Each
    varying cell gets a fixed-width slot, ``_render`` prints it there and
    marks the bytes to keep, and one flat ``np.compress`` per block of
    about _BLOCK_CELLS cells gives the bytes to append to the file.
    """
    columns = [np.asarray(c, dtype=float) for c in columns]
    columns = [c[:, None] if c.ndim == 1 else c for c in columns]
    rows = columns[0].shape[0]
    if order is None:
        order = np.arange(sum(c.shape[1] for c in columns))
    varying = np.flatnonzero(~np.concatenate([_constant_columns(c) for c in columns])[order])
    with _open(path, binary=True) as fh:
        fh.write((",".join(header) + "\n").encode())
        if rows == 0:
            return
        cells = [fmt(v) for v in np.concatenate([c[0] for c in columns])[order]]
        if varying.size == 0:
            fh.write((",".join(cells) + "\n").encode() * rows)
            return
        lead = "".join(c + "," for c in cells[: varying[0]]).encode()
        ends = [*varying[1:], len(cells)]
        seps = [
            "".join("," + c for c in cells[j + 1:end]).encode()
            + (b"," if end < len(cells) else b"\n" + lead)
            for j, end in zip(varying, ends)
        ]
        t = _digit_tables()
        # one keep table per separator length, its bytes kept after the
        # slot; whole 8-byte words per cell, as _render writes them
        lengths = sorted({len(sep) for sep in seps})
        width = -(-(_SLOT + lengths[-1]) // 8) * 8
        keep_table = np.zeros((len(lengths), t.keep.shape[0], width), bool)
        keep_table[:, :, :_SLOT] = t.keep
        for i, size in enumerate(lengths):
            keep_table[i, :, _SLOT:_SLOT + size] = True
        keep_table = keep_table.reshape(-1, width)
        column_keys = np.array([lengths.index(len(sep)) for sep in seps]) * t.keep.shape[0]

        block_rows = min(rows, max(1, _BLOCK_CELLS // varying.size))
        slots = np.zeros((block_rows, varying.size, width), np.uint8)
        slots[:, :, :8] = t.template
        for j, sep in enumerate(seps):
            slots[:, j, _SLOT:_SLOT + len(sep)] = np.frombuffer(sep, np.uint8)
        keep = np.empty(slots.shape, bool)
        gather = order[varying]
        fh.write(lead)
        for start in range(0, rows, block_rows):
            block = np.hstack([c[start:start + block_rows] for c in columns])[:, gather]
            n = block.shape[0]
            _render(t, block, slots[:n], keep_table, column_keys, keep[:n])
            text = np.compress(keep[:n].ravel(), slots[:n].ravel())
            fh.write(text[: text.size - len(lead)] if start + n == rows else text)


def write_trajectory(path, traj) -> None:
    """Per-time moments: t, then per node (mean_q, mean_p, var_q, var_p,
    cov_qp), then total_energy."""
    header = ["t"]
    for j in range(traj.n):
        header += [
            f"mean_q_{j}", f"mean_p_{j}", f"var_q_{j}", f"var_p_{j}", f"cov_qp_{j}",
        ]
    header.append("total_energy")
    # columns of [times, means (q..., p...), blocks (node by node), energy]
    n = traj.n
    node = np.arange(n)[:, None]
    per_node = np.hstack([1 + node, 1 + n + node, 1 + 2 * n + 3 * node + np.arange(3)])
    order = np.concatenate([[0], per_node.ravel(), [1 + 5 * n]])
    _write_table(path, header, [
        traj.times, traj.means, np.reshape(traj.blocks, (-1, 3 * n)), traj.energy,
    ], order)


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
    """Mode table: mode, Omega, kappa, Gamma, D."""
    header = ["mode", "Omega", "kappa", "Gamma", "D"]
    _write_table(path, header, [
        np.arange(decomp.n), decomp.freqs, decomp.eff_coupling, decomp.damping, decomp.diffusion,
    ])


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
