import math

import numpy as np
import pytest

from ilc_sos import result, sdp
from ilc_sos.polyalg import AffinePoly, PolyMatrix
from ilc_sos.soscompiler import CertificateReport, SdpProblem

LAM = ("l1", "l2", "l3")


def _rate_block(variables, lam, degree):
    """[[gamma (sum of lam)^degree]] over ``variables``."""
    weights = sum((AffinePoly.variable(variables, v) for v in lam),
                  AffinePoly.zero(variables))
    return PolyMatrix.from_rows([[weights ** degree * AffinePoly.decision(variables, "gamma")]])


def _block():
    """[[gamma (l1 + l2 + l3)^2]]: a 1 x 1 rate block of lambda-degree 2 in
    three weights, a block whose level 0 is not known to be exact."""
    return _rate_block(LAM, LAM, 2)


def _stub_compile(monkeypatch):
    """Replace the compiler by one that records each level's block; level k's
    program carries k in its objective.  Returns the recorded blocks."""
    compiled = []

    def compile_sos(S, objective, bases=None):
        compiled.append(S)
        return SdpProblem([1], (), {"k": len(compiled) - 1}, np.zeros((0, 4), np.int64),
                          np.zeros(0), np.zeros((0, 0)), np.zeros(0))

    monkeypatch.setattr(result, "compile_sos", compile_sos)
    return compiled


def _ladder(monkeypatch, etas, passing):
    """Stub the solver so level k solves to gamma = sqrt(``etas[k]``) and its
    certificate passes iff ``etas[k]`` is in ``passing``; returns the result
    and the checked levels."""
    checked = []

    def solve(prob):
        gamma = math.sqrt(etas[prob.objective["k"]])
        return sdp.SdpSolution("optimal", gamma, {"gamma": gamma}, [])

    def ensure_certified(prob, S, sol):
        eta = etas[prob.objective["k"]]
        checked.append(prob.objective["k"])
        report = CertificateReport(0.0 if eta in passing else 1e-3, 1.0, [0.0],
                                   eta in passing)
        return sol, None, report

    _stub_compile(monkeypatch)
    monkeypatch.setattr(result.sdp, "solve", solve)
    monkeypatch.setattr(result.sdp, "ensure_certified", ensure_certified)
    res = result.escalate(_block(), LAM, None, k_max=len(etas) - 1, k_tol=0.0,
                          gain_list=lambda gains: [gains["gamma"]])
    return res, checked


def test_escalate_falls_back_to_next_certified_level(monkeypatch):
    res, checked = _ladder(monkeypatch, [0.50, 0.40, 0.45], passing={0.50, 0.45})
    # the lowest eta (k = 1) fails its certificate; k = 2 is next in eta
    assert checked == [1, 2]
    assert res.polya_k == 2
    assert res.certified
    assert res.gamma == pytest.approx(math.sqrt(0.45))
    assert res.gain_list == [pytest.approx(math.sqrt(0.45))]
    assert dict(res.k_trace) == pytest.approx({0: 0.50, 1: 0.40, 2: 0.40})
    assert dict(res.diagnostics["k_trace_raw"]) == pytest.approx({0: 0.50, 1: 0.40, 2: 0.45})


def test_escalate_keeps_best_level_when_none_certifies(monkeypatch):
    res, checked = _ladder(monkeypatch, [0.50, 0.40, 0.45], passing=set())
    assert checked == [1, 2, 0]
    assert res.polya_k == 1
    assert not res.certified
    assert res.gamma == pytest.approx(math.sqrt(0.40))


def test_escalate_checks_only_the_best_level_when_it_certifies(monkeypatch):
    res, checked = _ladder(monkeypatch, [0.50, 0.40, 0.45], passing={0.40})
    assert checked == [1]
    assert res.polya_k == 1


def test_escalate_margin_is_epsilon_times_the_gamma_coefficient(monkeypatch):
    compiled = _stub_compile(monkeypatch)
    monkeypatch.setattr(result.sdp, "solve",
                        lambda prob: sdp.SdpSolution("optimal", 0.5, {"gamma": 0.5}, []))
    monkeypatch.setattr(result.sdp, "ensure_certified",
                        lambda prob, S, sol: (sol, None, CertificateReport(0.0, 1.0, [0.0], True)))
    res = result.escalate(_block(), LAM, 1e-3, k_max=1, k_tol=0.0, gain_list=lambda gains: [])
    # lam -> lam^2, gamma -> gamma - eps, and level 1 multiplies by ||lam||^2
    l2 = sum((AffinePoly.variable(LAM, v) ** 2 for v in LAM), AffinePoly.zero(LAM))
    level0 = l2 * l2 * (AffinePoly.decision(LAM, "gamma") - 1e-3)

    def terms(p):
        return p.exps.tolist(), p.coeffs.tolist(), p.decisions

    assert [terms(S[0, 0]) for S in compiled] == [terms(level0), terms(level0 * l2)]
    assert res.epsilon == 1e-3
    assert res.diagnostics["deg_lambda"] == 2
    assert res.diagnostics["level0_exact"] is None


@pytest.mark.parametrize("variables, lam, degree, case", [
    pytest.param((), (), 0, "no_simplex", id="no-weights"),
    pytest.param(("l",), ("l",), 3, "two_weights", id="one-weight"),
    pytest.param(("l1", "l2"), ("l1", "l2"), 4, "two_weights", id="two-weights"),
    pytest.param(LAM, LAM, 1, "affine_in_lambda", id="three-weights-affine"),
    pytest.param(("x", "l1", "l2"), ("l1", "l2"), 1, "affine_in_lambda",
                 id="other-variable-affine"),
    pytest.param(("x", "l1", "l2"), ("l1", "l2"), 2, None, id="other-variable"),
    pytest.param(LAM, LAM, 2, None, id="three-weights"),
])
def test_escalate_solves_level0_alone_where_it_is_exact(monkeypatch, variables, lam,
                                                        degree, case):
    compiled = _stub_compile(monkeypatch)
    monkeypatch.setattr(result.sdp, "solve",
                        lambda prob: sdp.SdpSolution("optimal", 0.5, {"gamma": 0.5}, []))
    monkeypatch.setattr(result.sdp, "ensure_certified",
                        lambda prob, S, sol: (sol, None, CertificateReport(0.0, 1.0, [0.0], True)))
    groups = [(("x",), "graded", 0)] if "x" in variables else []
    res = result.escalate(_rate_block(variables, lam, degree), lam, None, k_max=2, k_tol=0.0,
                          gain_list=lambda gains: [], groups=groups)
    assert res.diagnostics["level0_exact"] == case
    assert len(compiled) == (1 if case else 3)
    assert [k for k, _ in res.k_trace] == list(range(len(compiled)))


def _rate_result(eta):
    return result.SynthesisResult(gamma=math.sqrt(eta), gains={}, gain_list=[],
                                  epsilon=None, polya_k=0, k_trace=[])


def test_rate_within_certificate_tolerance_of_one_is_not_monotone():
    # a bound a hair below 1 (pinned zero gain, true gamma = 1) is rounding
    res = _rate_result(1.0 - 2.4e-9)
    assert res.gamma < 1.0
    assert res.not_monotone


def test_rate_clearly_below_one_is_monotone():
    assert not _rate_result(0.98).not_monotone
