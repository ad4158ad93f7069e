"""The certificate behind both states' V_L: 2/I_d^max for the maximally
entangled state and 2/lambda_max for the tuned one.

CGLMP is a Bell inequality with local bound 2, and white noise scores 0, so
V_L <= 2/I for a table whose CGLMP value is I: the closed form I_d^max for
the maximally entangled state (Kaszlikowski et al., PRL 85, 4418 (2000);
Collins et al., PRL 88, 040404 (2002)), the top eigenvalue lambda_max of the
Toeplitz operator for the tuned state. The production path takes V_L from
that value alone, and check-local reads its slack from the first. Here the
visibility LP is solved on the same difference distribution, and its
solution is checked outside the solver: the primal is an explicit local
model (so the true V_L is at least the LP's value), and the dual on the Bell
rows is the CGLMP functional (so the LP's value is the Bell bound)."""
import numpy as np
import pytest

from diqkd_cc import ANALYTIC_MAX_ENTANGLED, LP_CGLMP_STATE, cglmp, cli, local_visibility, polytope
from diqkd_cc.cglmp import LOCAL_BOUND, _difference_coefficients
from diqkd_cc.polytope import LP_FEASIBILITY_TOL
from diqkd_cc.quantum import _cglmp_toeplitz, _top_eigenpair, difference_distribution
from diqkd_cc.scenario import Scenario

DIMENSIONS = [*range(2, 33), 48]


def certify(D: np.ndarray, monkeypatch) -> dict:
    """Solve polytope.difference_visibility on the difference distribution D
    and check its solution outside the solver. Returns the LP's V_L, the
    primal residual, the multiple alpha of the CGLMP coefficients C(k|x,y)
    that best fits the gauge-fixed Bell-row duals, and their largest
    deviation from it, relative to alpha."""
    d = D.shape[0]
    solves = []
    solve = polytope.linprog

    def recorded(*args, **kwargs):
        solves.append((kwargs, solve(*args, **kwargs)))
        return solves[-1][1]

    with monkeypatch.context() as patch:
        patch.setattr(polytope, "linprog", recorded)
        V_LP = polytope.difference_visibility(D)
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
    return {"V_LP": V_LP, "alpha": alpha, "primal": primal, "dual": dual / abs(alpha)}


def check_certificate(cert: dict, v_local: float) -> None:
    """The LP's local model is feasible, its Bell-row duals are the CGLMP
    functional scaled by V_L / 2 (the key setting's rows carry no weight), and
    its V_L is the closed-form v_local."""
    assert cert["primal"] <= LP_FEASIBILITY_TOL
    assert cert["dual"] <= 1e-9
    assert cert["alpha"] == pytest.approx(cert["V_LP"] / LOCAL_BOUND, rel=1e-9)
    assert abs(cert["V_LP"] - v_local) <= 1e-9


@pytest.mark.parametrize("d", DIMENSIONS)
def test_visibility_lp_certifies_the_eigenvalue(d, monkeypatch):
    lam, c = _top_eigenpair(_cglmp_toeplitz(d))
    check_certificate(certify(difference_distribution(c), monkeypatch), LOCAL_BOUND / lam)
    # and the production path returns the eigenvalue's value
    assert local_visibility(d, LP_CGLMP_STATE) == LOCAL_BOUND / lam


@pytest.mark.parametrize("d", DIMENSIONS)
def test_visibility_lp_certifies_the_closed_form(d, monkeypatch, capsys):
    v_local = cglmp.local_visibility_max_entangled(d)
    assert v_local == LOCAL_BOUND / cglmp.idmax_closed_form(d)
    check_certificate(certify(difference_distribution(np.full(d, d**-0.5)), monkeypatch),
                      v_local)
    # and the production paths, the analytic branch and check-local, use it
    assert local_visibility(d, ANALYTIC_MAX_ENTANGLED) == v_local
    calls = []
    closed = cglmp.local_visibility_max_entangled

    def recorded(e):
        calls.append(e)
        return closed(e)

    monkeypatch.setattr(cglmp, "local_visibility_max_entangled", recorded)
    assert cli.main(["check-local", "--d", str(d), "--vtilde", "0.9"]) == 0
    assert calls == [d]
    slack = 1.0 - v_local / 0.9
    assert capsys.readouterr().out.endswith(f"(slack {slack:.3e}, tolerance 1e-09)\n")
