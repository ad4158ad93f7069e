"""The certificate behind the tuned state's V_L = 2/lambda_max.

CGLMP is a Bell inequality with local bound 2, and white noise scores 0, so
V_L <= 2/lambda_max for the tuned state, whose CGLMP value is the top
eigenvalue lambda_max of the Toeplitz operator. The production path takes V_L
from that eigenvalue alone. Here the visibility LP is solved on the same
difference distribution, and its solution is checked outside the solver: the
primal is an explicit local model (so the true V_L is at least the LP's
value), and the dual on the Bell rows is the CGLMP functional (so the LP's
value is the Bell bound)."""
import numpy as np
import pytest

from diqkd_cc import LP_CGLMP_STATE, local_visibility, polytope
from diqkd_cc.cglmp import LOCAL_BOUND, _difference_coefficients
from diqkd_cc.polytope import LP_FEASIBILITY_TOL
from diqkd_cc.quantum import _cglmp_toeplitz, _top_eigenpair, difference_distribution
from diqkd_cc.scenario import Scenario


def certify_tuned_state(d: int, monkeypatch) -> dict:
    """Solve polytope.difference_visibility on the tuned state's difference
    distribution and check its solution against the eigenvalue. Returns the
    LP's V_L, 2/lambda_max, the primal residual, and the largest deviation
    of the gauge-fixed Bell-row duals from a multiple of the CGLMP
    coefficients C(k|x,y), relative to that multiple."""
    lam, c = _top_eigenpair(_cglmp_toeplitz(d))
    solves = []
    solve = polytope.linprog

    def recorded(*args, **kwargs):
        solves.append((kwargs, solve(*args, **kwargs)))
        return solves[-1][1]

    monkeypatch.setattr(polytope, "linprog", recorded)
    V_LP = polytope.difference_visibility(difference_distribution(c))
    [(lp, res)] = solves
    x = res.x
    assert x[-1] == V_LP
    # primal: equality rows recomputed from A_eq, and the bounds 0 <= x, V <= 1
    primal = max(float(np.max(np.abs(lp["A_eq"] @ x - lp["b_eq"]))),
                 float(-x.min()), float(x[-1] - 1.0))
    # dual: the observation rows come first, in (k, x, y) order. Adding a
    # constant to the duals of one (x, y) is absorbed by the consistency and
    # total-weight rows, so compare them with their mean over k removed
    y = res.eqlin.marginals[:d * Scenario.nA * Scenario.nB].reshape(d, Scenario.nA, Scenario.nB)
    y = y - y.mean(axis=0)
    C = _difference_coefficients(d)
    C = C - C.mean(axis=0)
    bell = y[:, :, :2]
    alpha = float((bell * C).sum() / (C * C).sum())
    dual = max(float(np.max(np.abs(bell - alpha * C))), float(np.max(np.abs(y[:, :, 2]))))
    return {"V_LP": V_LP, "V_eig": LOCAL_BOUND / lam, "alpha": alpha,
            "primal": primal, "dual": dual / abs(alpha)}


@pytest.mark.parametrize("d", [*range(2, 33), 48])
def test_visibility_lp_certifies_the_eigenvalue(d, monkeypatch):
    cert = certify_tuned_state(d, monkeypatch)
    assert cert["primal"] <= LP_FEASIBILITY_TOL
    # the Bell-row duals are the CGLMP functional scaled by V_L / 2 (and the
    # key setting's rows carry no weight)
    assert cert["dual"] <= 1e-9
    assert cert["alpha"] == pytest.approx(cert["V_LP"] / LOCAL_BOUND, rel=1e-9)
    assert abs(cert["V_LP"] - cert["V_eig"]) <= 1e-9
    # and the production path returns the eigenvalue's value
    monkeypatch.undo()
    assert local_visibility(d, LP_CGLMP_STATE) == cert["V_eig"]
