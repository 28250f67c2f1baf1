"""The lemma-2 power sweep against its per-cell reference, bit for bit.

`_reference_sweep_power` is the sweep as it was before the cells after each
kernel call were certified in stacked windows: every cell tries the last
kernel call's active set on its own (one solve, two matrix-vector products)
and calls the kernel when that fails. The stacked gufunc forms compute each
cell with the same operations, and the kernel runs on the same cells, so
`sim._sweep_power` must give the same surface bytes and the same sequence of
kernel calls on every scenario.
"""

import dataclasses
import math

import numpy as np
import pytest

from ncprecode import cli, sim
from ncprecode.noisegeom import boundary_normals, chi2_scale
from ncprecode.wlalg import expand_row, symbol_rotation

from test_cli import LEMMA2_SMALL


def _reference_sweep_power(sc, h, h_j, q11, q12, symbols):
    """Average minimum power of the transmit-only design at each cell (q11[c], q12[c]).

    The per-user squared margin terms are affine in (q11, q12), so for each
    symbol draw the constraint matrix and its Gram matrix are fixed and only
    the QP bounds vary across the cells.
    """
    k = h.shape[0]
    omega = chi2_scale(sc.p)
    theta = sc.theta
    cos_t = math.cos(theta)
    normals = boundary_normals(theta)
    rho2 = sc.rho * sc.rho
    half_awgn = 0.5 * sc.awgn_var

    totals = np.zeros(len(q11))
    for s in symbols:
        rows = []
        coeffs = []
        for u in range(k):
            rows += sim._slp.margin_rows_pair(*expand_row(h[u]), s[u], theta)
            jv = symbol_rotation(s[u]).T @ expand_row([h_j[u]])
            for nvec in normals:
                w = jv.T @ nvec
                # w^T Q w = w2^2 + q11 (w1^2 - w2^2) + 2 q12 w1 w2
                coeffs.append((w[1] ** 2, w[0] ** 2 - w[1] ** 2, 2.0 * w[0] * w[1]))
        a = np.vstack(rows)
        gram = a @ a.T
        row_norm2 = np.einsum("ij,ij->i", a, a)
        const, lin11, lin12 = np.array(coeffs).T
        # bounds per cell: delta0 cos(theta) + sqrt(omega (rho^2 w^T Q w + awgn/2))
        qf = const[None, :] + q11[:, None] * lin11[None, :] + q12[:, None] * lin12[None, :]
        qf = np.maximum(qf, 0.0)
        bounds_all = sc.delta0 * cos_t + np.sqrt(omega * (rho2 * qf + half_awgn))
        # Adjacent cells usually share the optimal active set, so try to
        # certify the previous cell's set via the full KKT conditions before
        # falling back to the solver; either path returns the unique optimum.
        prev_active: list[int] = []
        eps_p = 1e-9 * max(1.0, float(np.max(bounds_all)))
        for ci in range(len(q11)):
            b = bounds_all[ci]
            power = None
            if prev_active:
                s_arr = np.asarray(prev_active)
                try:
                    mu = sim._solve(gram[s_arr[:, None], s_arr], 2.0 * b[s_arr])
                except np.linalg.LinAlgError:
                    mu = None
                if mu is not None and (mu >= 0.0).all():
                    x = 0.5 * (a[s_arr].T @ mu)
                    if (a @ x - b >= -eps_p).all():
                        power = float(x @ x)
            if power is None:
                x, _, prev_active = sim._min_norm_kernel(a, b, gram, row_norm2)
                power = float(x @ x)
            totals[ci] += power
    return totals / len(symbols)


def _lemma2_small(tmp_path):
    """The scenario and [grid] settings of `LEMMA2_SMALL` (m = k = 3, QPSK)."""
    path = tmp_path / "l2.cfg"
    path.write_text(LEMMA2_SMALL)
    base, _, grid = cli.load_config(str(path))
    return base, grid


def _scenario(tmp_path, **changes):
    return dataclasses.replace(_lemma2_small(tmp_path)[0], **changes)


def _surface_and_calls(monkeypatch, sweep, sc, draw, grid_n, n_symbols):
    """Surface bytes of one draw and the (cell, bounds) of every kernel call."""
    calls = []
    kernel = sim._min_norm_kernel

    def recording_kernel(a, b, gram, row_norm2):
        cell = (b.ctypes.data - b.base.ctypes.data) // b.base.strides[0]
        calls.append((cell, b.tobytes()))
        return kernel(a, b, gram, row_norm2)

    with monkeypatch.context() as patch:
        patch.setattr(sim, "_min_norm_kernel", recording_kernel)
        patch.setattr(sim, "_sweep_power", sweep)
        values = sim._draw_surface(sc, draw, grid_n, n_symbols, "power").values
    return values.tobytes(), calls


def _assert_same_as_reference(monkeypatch, sc, draw, grid_n, n_symbols):
    new = _surface_and_calls(monkeypatch, sim._sweep_power, sc, draw, grid_n, n_symbols)
    ref = _surface_and_calls(monkeypatch, _reference_sweep_power, sc, draw, grid_n, n_symbols)
    assert new[1] == ref[1]
    assert new[0] == ref[0]
    return ref[1]


CASES = {
    # the lemma2 bench shape: m = k = 3, QPSK, 21 x 21, 50 symbol vectors
    "bench-seed-0": ({"seed": 0}, 21, 50),
    "bench-seed-1": ({"seed": 1}, 21, 50),
    "bench-seed-2": ({"seed": 2}, 21, 50),
    "bpsk": ({"d": 2}, 21, 10),
    "8psk": ({"d": 8}, 21, 10),
    "one-user": ({"k": 1}, 21, 10),
    "m-k-4": ({"m": 4, "k": 4}, 21, 10),
}


@pytest.mark.parametrize("changes, grid_n, n_symbols", CASES.values(), ids=CASES.keys())
def test_surface_and_kernel_calls_match_reference(tmp_path, monkeypatch, changes, grid_n, n_symbols):
    calls = _assert_same_as_reference(monkeypatch, _scenario(tmp_path, **changes), 0, grid_n, n_symbols)
    # the stacked windows carry most cells, so the comparison covers them
    assert len(calls) < 0.5 * n_symbols * int(sim._feasible_mask(*sim._grid_axes(grid_n)).sum())


def test_lemma2_small_matches_reference(tmp_path, monkeypatch):
    sc, grid = _lemma2_small(tmp_path)
    for draw in range(grid["draws"]):
        _assert_same_as_reference(monkeypatch, sc, draw, grid["resolution"], grid["symbols_per_point"])


def test_zero_bounds_call_the_kernel_at_every_cell(tmp_path, monkeypatch):
    # no jammer, no AWGN and a zero preset margin: every bound is 0, x = 0 is
    # optimal with an empty active set, and nothing is left to certify
    sc = _scenario(tmp_path, rho2_db=-math.inf, awgn_std=0.0, psi_db=-math.inf)
    calls = _assert_same_as_reference(monkeypatch, sc, 0, 11, 3)
    assert len(calls) == 3 * int(sim._feasible_mask(*sim._grid_axes(11)).sum())


@pytest.mark.parametrize(
    "fails",
    [
        lambda g, rhs: g.shape[0] == 5,  # a singular active Gram block: every cell fails
        lambda g, rhs: (np.atleast_2d(rhs)[:, 0].view(np.int64) % 5 == 0).any(),  # some cells fail
    ],
    ids=["every-cell", "some-cells"],
)
def test_solve_failures_send_the_same_cells_to_the_kernel(tmp_path, monkeypatch, fails):
    solve = sim._solve

    def failing_solve(g, rhs):
        if fails(g, rhs):
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(g, rhs)

    monkeypatch.setattr(sim, "_solve", failing_solve)
    _assert_same_as_reference(monkeypatch, _scenario(tmp_path, seed=3), 0, 21, 10)
