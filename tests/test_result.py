import pytest

from ilc_sos import result, sdp
from ilc_sos.polyalg import AffinePoly, PolyMatrix
from ilc_sos.soscompiler import CertificateReport, SdpProblem


def _ladder(monkeypatch, etas, passing):
    """Stub the solver so level k solves to ``etas[k]`` and its certificate
    passes iff ``etas[k]`` is in ``passing``; returns the checked levels."""
    checked = []

    def solve(prob, feas_tol, gap_tol):
        return sdp.SdpSolution("optimal", etas[prob.objective["k"]],
                               {"eta": etas[prob.objective["k"]]}, [])

    def ensure_certified(prob, S, sol):
        eta = sol.scalar_values["eta"]
        checked.append(prob.objective["k"])
        report = CertificateReport(0.0 if eta in passing else 1e-3, 1.0, [0.0],
                                   eta in passing)
        return sol, None, report

    monkeypatch.setattr(result.sdp, "solve", solve)
    monkeypatch.setattr(result.sdp, "ensure_certified", ensure_certified)
    base = PolyMatrix.from_rows([[AffinePoly.constant(("l",), 1.0)]])
    norm2 = AffinePoly.variable(("l",), "l") ** 2
    esc = result.escalate(base, norm2,
                          lambda S, k: SdpProblem([1], (), {"k": k}, []),
                          k_max=len(etas) - 1, k_tol=0.0, feas_tol=1e-8, gap_tol=1e-9)
    return esc, checked


def test_escalate_falls_back_to_next_certified_level(monkeypatch):
    esc, checked = _ladder(monkeypatch, [0.50, 0.40, 0.45], passing={0.50, 0.45})
    # the lowest eta (k = 1) fails its certificate; k = 2 is next in eta
    assert checked == [1, 2]
    assert esc.k == 2
    assert esc.report.passed
    assert esc.solution.scalar_values["eta"] == pytest.approx(0.45)
    assert esc.k_trace == [(0, 0.50), (1, 0.40), (2, 0.40)]


def test_escalate_keeps_best_level_when_none_certifies(monkeypatch):
    esc, checked = _ladder(monkeypatch, [0.50, 0.40, 0.45], passing=set())
    assert checked == [1, 2, 0]
    assert esc.k == 1
    assert not esc.report.passed
    assert esc.solution.scalar_values["eta"] == pytest.approx(0.40)


def test_escalate_checks_only_the_best_level_when_it_certifies(monkeypatch):
    esc, checked = _ladder(monkeypatch, [0.50, 0.40, 0.45], passing={0.40})
    assert checked == [1]
    assert esc.k == 1


def _rate_result(eta):
    sol = sdp.SdpSolution("optimal", eta, {"eta": eta}, [])
    return result.SynthesisResult.from_solution(sol, None, None, [], None, {})


def test_rate_within_certificate_tolerance_of_one_is_not_monotone():
    # a bound a hair below 1 (pinned zero gain, true gamma = 1) is rounding
    res = _rate_result(1.0 - 2.4e-9)
    assert res.gamma < 1.0
    assert res.not_monotone


def test_rate_clearly_below_one_is_monotone():
    assert not _rate_result(0.98).not_monotone
