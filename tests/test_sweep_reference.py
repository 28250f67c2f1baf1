"""The lemma-2 power sweep against its per-cell reference, bit for bit.

`_reference_sweep_power` is the sweep as it was before the cells after each
kernel call were certified in stacked windows: every cell tries the last
kernel call's active set on its own (one solve, two matrix-vector products)
and calls the kernel when that fails, one symbol chain after the other. The
stacked gufunc forms compute each cell with the same operations, the
lockstep kernel gives each problem the scalar kernel's bits, and the kernel
runs on the same cells, so `sim._sweep_power` must give the same surface
bytes and, taken chain by chain, the same sequence of kernel problems on
every scenario, and raise the same exception.
"""

import dataclasses
import math
import sys

import numpy as np
import pytest

from ncprecode import cli, sim
from ncprecode.errors import Infeasible, MaxIterations, PrecodingError
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


def _chain_and_cell(b, bases):
    """(chain, cell) of a reference kernel call's bound row, from its place in its array.

    The reference builds one (cell, row) array per chain, chain after chain,
    so its chain is the number of arrays seen before.
    """
    if not bases or b.base is not bases[-1]:
        bases.append(b.base)
    return len(bases) - 1, (b.ctypes.data - b.base.ctypes.data) // b.base.strides[0]


def _surface_and_calls(monkeypatch, sweep, sc, draw, grid_n, n_symbols, fail_at=None):
    """Surface bytes of one draw and the (chain, cell, bounds) of every kernel problem.

    The reference's problems are recorded at the scalar kernel, the sweep's
    at its one solver entry, ``solve_min_norm_batch``. The calls are returned
    in chain order; the sort is stable, so each chain's calls stay in the
    order it made them. A problem whose (chain, cell) is a key of `fail_at`
    fails with that exception instead.
    """
    calls = []
    bases = []
    fail_at = fail_at or {}
    kernel, batch = sim._min_norm_kernel, sim.solve_min_norm_batch

    def recording_kernel(a, b, gram, row_norm2):
        chain, cell = _chain_and_cell(b, bases)
        calls.append((chain, cell, b.tobytes()))
        if (chain, cell) in fail_at:
            raise fail_at[chain, cell]
        return kernel(a, b, gram, row_norm2)

    def recording_batch(a, b):
        # a and b are gathered copies of the live chains' matrices and bound
        # rows at their next cells, so the chains and cells are read from the
        # calling sweep
        sweep = sys._getframe(1).f_locals
        live = sweep["live"]
        problems = list(zip(live.tolist(), sweep["next_ci"][live].tolist()))
        calls.extend((chain, cell, row.tobytes()) for (chain, cell), row in zip(problems, b))
        out = batch(a, b)
        out.errors.update((j, fail_at[problem]) for j, problem in enumerate(problems) if problem in fail_at)
        return out

    with monkeypatch.context() as patch:
        patch.setattr(sim, "_min_norm_kernel", recording_kernel)
        patch.setattr(sim, "solve_min_norm_batch", recording_batch)
        patch.setattr(sim, "_sweep_power", sweep)
        values = sim._draw_surface(sc, draw, grid_n, n_symbols, "power").values
    calls.sort(key=lambda call: call[0])
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
    # the same with enough symbol chains to run the lockstep kernel
    "bpsk-50": ({"d": 2}, 21, 50),
    "8psk-50": ({"d": 8}, 21, 50),
    "one-user-50": ({"k": 1}, 21, 50),
    "m-k-4-50": ({"m": 4, "k": 4}, 21, 50),
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


def _every_cell(g, rhs):
    return g.shape[0] == 5   # a singular active Gram block: every cell fails


def _some_cells(g, rhs):
    return (np.atleast_2d(rhs)[:, 0].view(np.int64) % 5 == 0).any()


@pytest.mark.parametrize(
    "fails, n_symbols",
    [(_every_cell, 10), (_some_cells, 10), (_every_cell, 50), (_some_cells, 50)],
    ids=["every-cell", "some-cells", "every-cell-50", "some-cells-50"],
)
def test_solve_failures_send_the_same_cells_to_the_kernel(tmp_path, monkeypatch, fails, n_symbols):
    solve = sim._solve

    def failing_solve(g, rhs):
        if fails(g, rhs):
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(g, rhs)

    monkeypatch.setattr(sim, "_solve", failing_solve)
    _assert_same_as_reference(monkeypatch, _scenario(tmp_path, seed=3), 0, 21, n_symbols)


@pytest.mark.parametrize("lower_chain_fails", [True, False], ids=["lower-chain-late", "one-chain"])
def test_the_lowest_failed_chain_raises(tmp_path, monkeypatch, lower_chain_fails):
    # Chain 3 fails at its first cell, in the first round, when all 50 chains
    # run in the lockstep kernel. Chain 1 fails at its last kernel call,
    # which comes rounds later, on the scalar path once chain 3's failure
    # has stopped chains 3-49. A chain-by-chain loop meets chain 1's failure
    # first, and chain 3's when chain 1 does not fail.
    sc = _scenario(tmp_path, seed=0)
    ref_calls = _surface_and_calls(monkeypatch, _reference_sweep_power, sc, 0, 21, 50)[1]
    late = max(cell for chain, cell, _ in ref_calls if chain == 1)
    assert late > 0
    fail_at = {(3, 0): MaxIterations("chain 3 fails early")}
    if lower_chain_fails:
        fail_at[1, late] = Infeasible("chain 1 fails late")
    lockstep = []
    batch = sim.solve_min_norm_batch

    def counting_batch(a, b):
        lockstep.append(len(b))
        return batch(a, b)

    monkeypatch.setattr(sim, "solve_min_norm_batch", counting_batch)
    raised = []
    for sweep in (sim._sweep_power, _reference_sweep_power):
        with pytest.raises(PrecodingError) as info:
            _surface_and_calls(monkeypatch, sweep, sc, 0, 21, 50, fail_at)
        raised.append((type(info.value), str(info.value)))
    expected = fail_at[1, late] if lower_chain_fails else fail_at[3, 0]
    assert raised[0] == raised[1] == (type(expected), str(expected))
    assert lockstep[0] == 50
