"""Both columns against a 40-digit mpmath reference.

For the tuned state the reference builds the Toeplitz operator from its
cosine sum, eigensolves it with mp.eigsy and sums D(k|x,y) directly; for the
maximally entangled state it sums the closed form of I_d^max; all at 40
digits. A printed cell must be the reference's rounding to 12 significant
digits (12 decimals for idmax), the kernels of quantum and cglmp must be
within a few ulps of it, and the tuned state's EC term within its rounding.
A table cell must be the rounding of the reference r_ub's root, solved to
40 digits; every cell of the gated curves is within 4e-15 of the reference
before its rounding."""
import csv
import math

import numpy as np
import pytest

from diqkd_cc import LP_CGLMP_STATE, keyrate_curve, local_visibility
from diqkd_cc.cglmp import _idmax_column
from diqkd_cc.cli import BRANCH_OF_STATE, main
from diqkd_cc.quantum import _SETTING_SHIFTS, _cglmp_toeplitz, cglmp_state, difference_distribution
from diqkd_cc.scenario import Scenario
from test_cli import GATED_CURVES

mpmath = pytest.importorskip("mpmath")
mp, mpf = mpmath.mp, mpmath.mpf

DIGITS = 40


@pytest.fixture(autouse=True)
def forty_digits():
    with mp.workdps(DIGITS):
        yield


def reference_entries(d):
    """entries[m] = (4/d) sum_k w_k [cos(2 pi m (k + 1/4)/d) - cos(2 pi m (k + 3/4)/d)],
    from a table of cos(2 pi j/(4d))."""
    cos = [mp.cospi(mpf(j) / (2 * d)) for j in range(4 * d)]
    w = [1 - mpf(2 * k) / (d - 1) for k in range(d // 2)]
    return [4 * mp.fsum(w[k] * (cos[m * (4 * k + 1) % (4 * d)] - cos[m * (4 * k + 3) % (4 * d)])
                        for k in range(d // 2)) / d
            for m in range(d)]


def reference_differences(c):
    """D[k, x-1, y-1] = |sum_q c_q exp(2 pi i q (k + s_xy)/d)|^2 / d by direct sums,
    from a table of exp(2 pi i j/(4d)): q (k + s_xy) is a multiple of 1/4."""
    d = len(c)
    root = [mp.expjpi(mpf(j) / (2 * d)) for j in range(4 * d)]
    D = np.empty((d, 2, 3), dtype=object)
    for (x, y), s in np.ndenumerate(_SETTING_SHIFTS):
        for k in range(d):
            step = 4 * k + int(4 * s)
            D[k, x, y] = abs(mp.fdot(c, [root[q * step % (4 * d)] for q in range(d)])) ** 2 / d
    return D


def reference_tuned_state(d):
    """(lambda_max, c_q) of the Toeplitz operator by mp.eigsy."""
    entries = reference_entries(d)
    B = mp.matrix(d, d)
    for i in range(d):
        for j in range(d):
            B[i, j] = entries[abs(i - j)]
    E, Q = mp.eigsy(B)
    top = max(range(d), key=lambda i: E[i])
    return E[top], [Q[q, top] for q in range(d)]


def reference_entropy(key, V, d):
    """H_d of the mixed difference distribution V key + (1 - V)/d, 0 log 0 := 0."""
    mixed = [V * p + (1 - V) / d for p in key]
    return -mp.fsum(m * mp.log(m) for m in mixed if m) / mp.log(d)


def test_d7_tuned_curve_cell_is_the_reference_rounding(tmp_path):
    # the d7-cglmp curve's H_AB at V = 0.71 is 0.5654950756434999..., 8e-17
    # below the rounding midpoint; the cell must print ...643. V_L = 2/lambda_max
    # is 1.4 ulps from the reference's.
    d, row = 7, 11
    point = keyrate_curve(d, LP_CGLMP_STATE, 0.6, 1.0, 41)[row]
    assert f"{point.V:.12g}" == "0.71"
    lam, c = reference_tuned_state(d)
    V_L = local_visibility(d, LP_CGLMP_STATE)
    assert abs(V_L - 2 / lam) <= 4 * math.ulp(V_L)
    key = reference_differences(c)[:, Scenario.keyX - 1, Scenario.keyY - 1]
    h_ab = reference_entropy(key, mpf(point.V), d)
    assert mp.nstr(h_ab, 12) == "0.565495075643"

    target = tmp_path / "curve.csv"
    assert main(["curve", "--d", "7", "--state", "cglmp", "--v-min", "0.6", "--v-max", "1.0",
                 "--steps", "41", "--out", str(target)]) == 0
    cells = list(csv.DictReader(target.read_text().splitlines()))[row]
    assert cells["V"] == "0.71"
    assert cells["H_AB"] == mp.nstr(h_ab, 12)


@pytest.mark.parametrize("d", [3, 8, 16])
def test_tuned_state_ec_term_is_within_rounding_of_the_reference(d):
    # measured: at most 5.5e-16 (d = 16), most of it the float eigenvector's
    # rounding; at V = 1 and d = 8, D_key[4] is 0 and the rate drops the cell
    _, c = reference_tuned_state(d)
    key = reference_differences(c)[:, Scenario.keyX - 1, Scenario.keyY - 1]
    points = [p for p in keyrate_curve(d, LP_CGLMP_STATE, 0.8, 1.0, 5) if p.V in (0.8, 0.95, 1.0)]
    assert len(points) == 3
    for point in points:
        assert abs(point.ec_term - reference_entropy(key, mpf(point.V), d)) <= 2e-15, point.V


def test_fft_kernels_are_within_a_few_ulps_of_the_reference():
    # measured at d = 256: 0.56 ulp of the largest entry for the operator,
    # 2 ulps of the largest D for the difference distribution
    d = 256
    entries = _cglmp_toeplitz(d)[0]
    reference = np.array([float(e) for e in reference_entries(d)])
    assert np.max(np.abs(entries - reference)) <= 4 * np.spacing(np.max(np.abs(reference)))

    c = cglmp_state(d).amplitudes[:: d + 1].real
    reference = reference_differences([mpf(float(q)) for q in c]).astype(float)
    assert np.max(np.abs(difference_distribution(c) - reference)) <= 4 * np.spacing(reference.max())


def reference_idmax(d):
    """4d sum_k (1 - 2k/(d-1)) (f(k) - f(-(k+1))), f(k) = 1/(2 d^3 sin^2(pi (k + 1/4)/d))."""
    def f(k):
        return 1 / (2 * mpf(d) ** 3 * mp.sinpi((k + mpf(0.25)) / d) ** 2)

    return 4 * d * mp.fsum((1 - mpf(2 * k) / (d - 1)) * (f(k) - f(-(k + 1)))
                           for k in range(d // 2))


def test_idmax_column_is_within_a_few_ulps_of_the_reference(capsys):
    # measured: at most 2.5 ulps over d = 2..40, 97, 128, 500, 999, 1000, 4099
    ds = [*range(2, 41), 97, 500, 1000]
    references = [reference_idmax(d) for d in ds]
    for d, value, reference in zip(ds, _idmax_column(ds), references):
        assert abs(value - float(reference)) <= 4 * math.ulp(value), d

    for d, reference in zip(ds[:39], references):
        assert main(["idmax", "--d", str(d)]) == 0
        line = capsys.readouterr().out.splitlines()[1]
        # the reference rounded to 12 decimals at 40 digits
        n = int(mp.nint(reference * 10**12))
        assert line == f"I_max (closed form) = {n // 10**12}.{n % 10**12:012d}", d


@pytest.mark.parametrize("argv", list(GATED_CURVES), ids=["d7-cglmp", "d3-max", "d3-cglmp-bits"])
def test_gated_curve_cells_are_within_a_few_ulps_of_the_reference(argv, tmp_path):
    # every cell's value before its 12-digit rounding, against the reference
    # at the curve's float V (V itself against the decimal grid); measured: at
    # most 7.3e-16, r_ub of d3-max, and 4.5e-16 in bits
    opts = dict(zip(argv[1::2], argv[2::2]))
    d, steps, branch = int(opts["--d"]), int(opts["--steps"]), BRANCH_OF_STATE[opts["--state"]]
    bits = opts.get("--unit") == "bits"
    scale, unit = (math.log2(d), mp.log(d, 2)) if bits else (1.0, 1)
    if branch == LP_CGLMP_STATE:
        lam, c = reference_tuned_state(d)
        V_L, key = 2 / lam, reference_differences(c)[:, Scenario.keyX - 1, Scenario.keyY - 1]
    else:
        V_L, key = 2 / reference_idmax(d), [1] + [0] * (d - 1)
    lo, hi = mpf(opts["--v-min"]), mpf(opts["--v-max"])
    points = keyrate_curve(d, branch, float(lo), float(hi), steps)
    target = tmp_path / "curve.csv"
    assert main([*argv, "--out", str(target)]) == 0
    rows = list(csv.reader(target.read_text().splitlines()))[1:]
    assert len(rows) == len(points) == steps
    for i, (point, row) in enumerate(zip(points, rows)):
        values = [point.V, point.qL, point.pa_term * scale, point.ec_term * scale,
                  point.r_ub * scale]
        assert row == [f"{v:.12g}" for v in values], i
        V = mpf(point.V)
        qL = min(1, (1 - V) / (1 - V_L))
        h_ae, h_ab = 1 - qL, reference_entropy(key, V, d)
        references = [lo + (hi - lo) * i / (steps - 1), qL, h_ae * unit, h_ab * unit,
                      (h_ae - h_ab) * unit]
        for name, value, reference in zip(("V", "qL", "H_AE", "H_AB", "r_ub"), values, references):
            assert abs(value - reference) <= 4e-15 * scale, (i, name)


def reference_vcrit(V_L, ec):
    """The root on [V_L, 1] of the reference r_ub(V) = 1 - qL - ec(V), where
    qL = (1 - V)/(1 - V_L), by mpmath's bracketed Anderson-Bjorck solver at 40
    digits."""
    return mp.findroot(lambda V: 1 - (1 - V) / (1 - V_L) - ec(V), (V_L, mpf(1)),
                       solver="anderson")


def table_cells(argv, capsys):
    """{d: [vcrit_max, vcrit_cglmp]} of the table the CLI prints."""
    assert main(["table", *argv]) == 0
    rows = csv.reader(capsys.readouterr().out.splitlines()[1:])
    return {int(d): cells for d, *cells in rows}


def test_table_cells_are_the_reference_rounding(capsys):
    # every cell is the 12-digit rounding of the reference root; the test
    # samples the 999 analytic cells to d = 1000
    tuned = table_cells(["--state", "cglmp", "--d-min", "2", "--d-max", "16"], capsys)
    for d in range(2, 17):
        lam, c = reference_tuned_state(d)
        key = reference_differences(c)[:, Scenario.keyX - 1, Scenario.keyY - 1]
        v_crit = reference_vcrit(2 / lam, lambda V: reference_entropy(key, V, d))
        assert tuned[d] == ["", mp.nstr(v_crit, 12)], d

    analytic = table_cells(["--state", "max", "--d-min", "2", "--d-max", "1000"], capsys)
    for d in [*range(2, 41), 97, 500, 1000]:
        key = [1] + [0] * (d - 1)  # the perfectly correlated key table
        v_crit = reference_vcrit(2 / reference_idmax(d), lambda V: reference_entropy(key, V, d))
        assert analytic[d] == [mp.nstr(v_crit, 12), ""], d


@pytest.mark.parametrize("d", [20, 24, 29, 32])
def test_tuned_table_cell_is_the_reference_rounding_to_d32(d, capsys):
    # the tuned column beyond d = 16, one d per test: mp.eigsy takes up to
    # 0.7 s at d = 32
    tuned = table_cells(["--state", "cglmp", "--d-min", str(d), "--d-max", str(d)], capsys)
    lam, c = reference_tuned_state(d)
    key = reference_differences(c)[:, Scenario.keyX - 1, Scenario.keyY - 1]
    v_crit = reference_vcrit(2 / lam, lambda V: reference_entropy(key, V, d))
    assert tuned == {d: ["", mp.nstr(v_crit, 12)]}


def reference_ec_isotropic(V, d):
    """The isotropic EC term at 40 digits, its small log(small) term 0 at V = 1."""
    big, small = 1 + (d - 1) * V, 1 - V
    small_log = small * mp.log(small) if small else 0
    return 1 - (big * mp.log(big) + (d - 1) * small_log) / (d * mp.log(d))


#: Analytic cells whose root lies within about one ulp of a 12-digit tie, with
#: the root's rounding: 0.76677794492650009... and 0.76629460322250005...
TIE_CELLS = [(30522, "0.766777944927"), (46087, "0.766294603223")]


@pytest.mark.parametrize("d, cell", TIE_CELLS)
def test_tie_cell_is_the_reference_rounding(d, cell):
    # 1 to 1.5 s per d: the closed form of I_d^max sums d/2 terms
    v_crit = reference_vcrit(2 / reference_idmax(d), lambda V: reference_ec_isotropic(V, d))
    assert mp.nstr(v_crit, 12) == cell


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 3: a float root cannot decide a cell within "
                          "about one ulp of a 12-digit tie; the table prints the last digit 1 low")
@pytest.mark.parametrize("d, cell", TIE_CELLS)
def test_table_prints_the_tie_cell_reference_rounding(d, cell, capsys):
    analytic = table_cells(["--state", "max", "--d-min", str(d), "--d-max", str(d)], capsys)
    assert analytic == {d: [cell, ""]}
