"""Parameter algebra: regime classification, q <-> lambda maps, tail constants."""
import dataclasses
import hashlib
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from qrmt.analytic import log_partition
from qrmt.params import (
    EnsembleParams,
    MarginalTailError,
    NumericalError,
    ParameterError,
    Regime,
    RegimeError,
    alpha_scaling,
    characteristic_energy,
    dof,
    lambda_from_q,
    q_from_lambda,
    q_max,
    tail_params,
)


def test_dof_small_values():
    assert dof(1) == 1
    assert dof(2) == 3
    assert dof(3) == 6
    assert dof(50) == 1275


def test_dof_rejects_garbage():
    for bad in (0, -3, 2.0, True, "4"):
        with pytest.raises(ParameterError):
            dof(bad)


def test_q_max_values():
    assert q_max(1) == 3.0
    assert q_max(3) == 1 + 2 / 3
    with pytest.raises(ParameterError):
        q_max(0)


def test_lambda_from_q_basic():
    # f = 3: q = 1.25 gives 1/(0.25) - 1.5 = 2.5
    assert lambda_from_q(1.25, 3) == pytest.approx(2.5, abs=1e-15)
    # q < 1 lands on the negative branch
    assert lambda_from_q(0.0, 3) == pytest.approx(-2.5, abs=1e-15)


def test_lambda_from_q_gaussian_point_raises():
    with pytest.raises(RegimeError):
        lambda_from_q(1.0, 6)


def test_lambda_from_q_boundary_raises_naming_qmax():
    # f = 4 so q_max = 1.5 and lambda lands on 0.0 exactly in floats
    with pytest.raises(ParameterError, match="q_max"):
        lambda_from_q(q_max(4), 4)


@pytest.mark.parametrize("call", [lambda: lambda_from_q(1.25, 0), lambda: q_from_lambda(2.5, 0)],
                         ids=["lambda_from_q", "q_from_lambda"])
def test_q_lambda_maps_reject_element_count_below_one(call):
    with pytest.raises(ParameterError) as exc:
        call()
    assert str(exc.value) == "element count must be >= 1, got 0"


def test_lambda_from_q_minus_inf_is_bounded_trace():
    assert lambda_from_q(-math.inf, 6) == -3.0
    assert lambda_from_q(-math.inf, 3) == -1.5


@given(
    lam=st.floats(min_value=-1e6, max_value=1e6).filter(lambda x: abs(x) > 1e-9),
    n=st.integers(min_value=1, max_value=40),
)
def test_q_lambda_round_trip(lam, n):
    f = dof(n)
    if lam + f / 2.0 == 0.0:
        return
    q = q_from_lambda(lam, f)
    if q == 1.0:
        return  # lam astronomically large, map saturates in floats
    back = lambda_from_q(q, f)
    assert back == pytest.approx(lam, rel=1e-9, abs=1e-9)


def test_q_from_lambda_bounded_trace_limit():
    # lam = -f/2 maps back to q = -inf
    assert q_from_lambda(-3.0, 6) == -math.inf


def test_tail_params_gaussian_side():
    sigma, big = tail_params(3.0)
    assert sigma == 2.0
    assert big == pytest.approx(1.0 / 8.0, abs=1e-16)


def test_tail_params_stable_side_half():
    # lambda = 1/2: sigma = 1 and Gamma(1/2)/Gamma(3/2) = 2 exactly
    sigma, big = tail_params(0.5)
    assert sigma == 1.0
    assert big == 2.0


def test_tail_params_marginal_and_domain():
    with pytest.raises(MarginalTailError):
        tail_params(1.0)
    with pytest.raises(RegimeError):
        tail_params(0.0)
    with pytest.raises(RegimeError):
        tail_params(-2.0)


@given(lam=st.floats(min_value=1e-3, max_value=0.999))
def test_tail_params_stable_side_properties(lam):
    sigma, big = tail_params(lam)
    assert sigma == pytest.approx(2 * lam)
    assert 0 < sigma < 2
    assert big > 0


def test_alpha_scaling():
    assert alpha_scaling(4, 2.0) == 2.0
    assert alpha_scaling(9, 1.0) == 40.5
    with pytest.raises(ParameterError):
        alpha_scaling(3, 0.0)
    with pytest.raises(ParameterError):
        alpha_scaling(3, 2.5)
    with pytest.raises(ParameterError):
        alpha_scaling(0, 2.0)


def test_alpha_scaling_overflow_is_a_parameter_error():
    # n^(2/sigma) leaves float64 range: a typed error that names n and sigma
    with pytest.raises(ParameterError, match=r"n = 10, sigma = 0\.002; give an explicit alpha"):
        alpha_scaling(10, 0.002)
    with pytest.raises(ParameterError, match="overflows float64"):
        EnsembleParams.from_lambda(3, 0.001)
    assert EnsembleParams.from_lambda(3, 0.001, alpha=1.0).alpha == 1.0


def test_from_q_levy_branch():
    # n = 3 so f = 6; q = 1.125 gives lambda = 8 - 3 = 5 exactly
    p = EnsembleParams.from_q(3, 1.125, alpha=1.0)
    assert p.regime is Regime.LEVY_BRANCH
    assert p.lam == pytest.approx(5.0, abs=1e-14)
    assert p.f == 6
    assert p.sigma == 2.0
    assert p.big_lambda == pytest.approx(1.0 / 16.0)
    assert p.e_char == pytest.approx(math.sqrt(15.0))
    assert p.mu == pytest.approx(3.0)


def test_from_q_rejects_qmax_and_names_it():
    n = 3
    with pytest.raises(ParameterError, match="q_max"):
        EnsembleParams.from_q(n, q_max(dof(n)), alpha=1.0)
    with pytest.raises(ParameterError):
        EnsembleParams.from_q(n, 2.0, alpha=1.0)


def test_from_q_gaussian_point():
    p = EnsembleParams.from_q(4, 1.0, alpha=0.5)
    assert p.regime is Regime.GAUSSIAN
    assert math.isinf(p.lam) and p.lam > 0
    assert p.sigma == 2.0
    assert p.big_lambda is None
    assert p.e_char is None


def test_from_q_restricted_trace():
    p = EnsembleParams.from_q(3, 0.0, alpha=1.0)
    assert p.regime is Regime.RESTRICTED_TRACE
    assert p.lam == pytest.approx(-4.0)  # 1/(0-1) - 6/2
    assert p.sigma is None and p.big_lambda is None


def test_from_q_bounded_trace_limit():
    p = EnsembleParams.from_q(3, -math.inf, alpha=1.0)
    assert p.regime is Regime.RESTRICTED_TRACE
    assert p.lam == -3.0


def test_from_lambda_stores_lambda_exactly():
    p = EnsembleParams.from_lambda(4, 1.0, alpha="auto")
    assert p.lam == 1.0  # no q round-trip noise
    assert p.alpha == 2.0  # auto = n^(2/sigma)/2 with sigma = 2
    assert p.sigma == 2.0 and p.big_lambda is None  # marginal point


def test_from_lambda_auto_alpha_uses_tail_exponent():
    # lambda = 1/2: sigma = 1, so auto alpha = n^2/2
    p = EnsembleParams.from_lambda(4, 0.5)
    assert p.alpha == 8.0


def test_from_lambda_rejects_nonpositive():
    with pytest.raises(ParameterError):
        EnsembleParams.from_lambda(4, 0.0)
    with pytest.raises(ParameterError):
        EnsembleParams.from_lambda(4, -1.5)


def test_gaussian_constructor():
    p = EnsembleParams.gaussian(5, alpha=1.0)
    assert p.regime is Regime.GAUSSIAN
    assert p.q == 1.0


def test_alpha_validation():
    with pytest.raises(ParameterError):
        EnsembleParams.from_lambda(3, 1.0, alpha=0.0)
    with pytest.raises(ParameterError):
        EnsembleParams.from_lambda(3, 1.0, alpha=-2.0)
    with pytest.raises(ParameterError):
        EnsembleParams.from_lambda(3, 1.0, alpha=math.inf)


def test_alpha_that_is_not_a_number_is_a_parameter_error():
    with pytest.raises(ParameterError, match=r"^alpha must be a number or 'auto', got 'abc'$"):
        EnsembleParams.from_q(3, 0.5, alpha="abc")


def test_as_dict_json_safe():
    import json

    p = EnsembleParams.gaussian(3, alpha=1.0)
    d = p.as_dict()
    json.dumps(d)  # must not raise
    assert d["lambda"] == "inf"
    assert d["regime"] == "gaussian"

    p2 = EnsembleParams.from_q(3, -math.inf, alpha=1.0)
    d2 = p2.as_dict()
    json.dumps(d2)
    assert d2["q"] == "-inf"
    assert d2["lambda"] == -3.0


# sha256 of the as_dict() dumps below, computed with the code in which from_q
# and from_lambda each derived the fields themselves
GOLDEN_AS_DICT = "6bf52c5bb38cfc8e90242735e4767219be7ab2bd15f98582b49fc4da73428b42"


def test_as_dict_bits_frozen_for_every_constructor():
    docs = []
    for n in (1, 2, 3, 10, 50):
        f = dof(n)
        for q in (1.0, 0.5, 0.0, -3.0, -math.inf, 1.0 + 0.5 * (q_max(f) - 1.0)):
            for alpha in (None, "auto", 0.7):
                docs.append(EnsembleParams.from_q(n, q, alpha).as_dict())
        for lam in (0.5, 1.0, 1.5, 2.0, 10.0, 300.0):
            for alpha in (None, 0.7, "1.5"):
                docs.append(EnsembleParams.from_lambda(n, lam, alpha).as_dict())
        for alpha in (None, 0.7):
            docs.append(EnsembleParams.gaussian(n, alpha).as_dict())
    assert hashlib.sha256(json.dumps(docs).encode()).hexdigest() == GOLDEN_AS_DICT


def test_equality_and_hash_use_the_defining_fields_only():
    # a member is fixed by (n, q, lam, alpha); the derived fields follow from them
    p = EnsembleParams.from_lambda(3, 2.0, alpha=1.0)
    other = EnsembleParams(3, p.q, 2.0, 1.0)
    assert other == p and hash(other) == hash(p) == hash((3, p.q, 2.0, 1.0))
    assert p != EnsembleParams.from_lambda(3, 2.0, alpha=1.5)
    fields = dataclasses.fields(EnsembleParams)
    assert [f.name for f in fields if f.init] == ["n", "q", "lam", "alpha"]
    assert [f.name for f in fields if f.compare] == ["n", "q", "lam", "alpha"]


@pytest.mark.parametrize("build", [
    lambda alpha: EnsembleParams.from_lambda(10, 1.5, alpha=alpha),
    lambda alpha: EnsembleParams.from_q(3, 0.5, alpha=alpha),
    lambda alpha: EnsembleParams.gaussian(4, alpha=alpha),
], ids=["heavy", "restricted", "gaussian"])
def test_raw_constructor_and_replace_derive_the_same_member(build):
    p = build(1.0)
    assert EnsembleParams(p.n, p.q, p.lam, p.alpha).as_dict() == p.as_dict()
    assert EnsembleParams(p.n, p.q, p.lam, "auto").as_dict() == build("auto").as_dict()
    # replace re-derives mu, e_char and the rest from the new alpha
    assert dataclasses.replace(p, alpha=4.0).as_dict() == build(4.0).as_dict()


def test_raw_constructor_classifies_the_gaussian_member_by_lambda():
    assert EnsembleParams(3, 1.0, math.inf, "auto").regime is Regime.GAUSSIAN


def test_replace_rejects_a_derived_field():
    p = EnsembleParams.from_lambda(3, 2.0, alpha=1.0)
    with pytest.raises(ValueError):
        dataclasses.replace(p, mu=0.0)


@pytest.mark.parametrize("build", [
    lambda: EnsembleParams(3, 1.0, math.nan, 1.0),
    lambda: EnsembleParams(3, 1.0, -math.inf, 1.0),
    lambda: EnsembleParams(3, 0.5, 2.0, 1.0),
    lambda: EnsembleParams(3, 0.5, -1.0, 1.0),
    lambda: dataclasses.replace(EnsembleParams.from_lambda(3, 2.0, alpha=1.0), n=5),
    lambda: dataclasses.replace(EnsembleParams.from_q(3, 0.5, alpha=1.0), n=5),
], ids=["nan-lambda", "gaussian-q-inf-lambda", "heavy-lambda-q-below-1",
        "restricted-lambda-off-map", "replace-n-heavy", "replace-n-restricted"])
def test_constructor_rejects_q_and_lambda_that_name_no_member(build):
    with pytest.raises(ParameterError, match="do not name one member"):
        build()


def test_gate_keeps_the_q_max_edges():
    # a tiny lam maps to q_max itself; the gate tries q's map first, so it builds
    p = EnsembleParams.from_lambda(1, 1e-300, alpha=1.0)
    assert p.q == q_max(1) and p.regime is Regime.LEVY_BRANCH
    # at q_max a lam that q_from_lambda does not send there names no member
    with pytest.raises(ParameterError, match="q_max"):
        EnsembleParams(1, q_max(1), 0.5, 1.0)


def test_float64_edges_of_lambda_are_typed_errors():
    # Gamma(lambda) overflows below lambda ~ 5.6e-309, ln Gamma(lambda) above ~ 2.5e305
    with pytest.raises(ParameterError, match=r"Gamma\(lambda\) overflows"):
        EnsembleParams.from_lambda(3, 1e-310, alpha=1.0)
    with pytest.raises(NumericalError, match="log partition"):
        log_partition(EnsembleParams.from_lambda(1, 1e306, alpha=1.0))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(n=st.integers(min_value=1, max_value=30), q=st.floats(), lam=st.floats())
def test_every_member_the_gate_accepts_is_finite(n, q, lam):
    # any float pair, NaN and +-inf included, through every construction path;
    # above lam ~ 2.5e305 ln Gamma(lam) overflows and log_partition says so
    for build in (lambda: EnsembleParams(n, q, lam, 1.0), lambda: EnsembleParams.from_q(n, q, 1.0),
                  lambda: EnsembleParams.from_lambda(n, lam, 1.0)):
        try:
            p = build()
        except ParameterError:
            continue
        assert EnsembleParams(p.n, p.q, p.lam, p.alpha).as_dict() == p.as_dict()
        try:
            assert math.isfinite(log_partition(p))
        except NumericalError:
            assert p.lam > 1e305


def test_characteristic_energy_regime_guard():
    p = EnsembleParams.from_lambda(5, 2.0, alpha=1.0)
    assert characteristic_energy(p) == pytest.approx(math.sqrt(10.0))
    with pytest.raises(RegimeError):
        characteristic_energy(EnsembleParams.gaussian(5, alpha=1.0))
    with pytest.raises(RegimeError):
        characteristic_energy(EnsembleParams.from_q(3, 0.0, alpha=1.0))


def test_params_frozen():
    p = EnsembleParams.gaussian(3, alpha=1.0)
    with pytest.raises(Exception):
        p.alpha = 2.0


@given(
    n=st.integers(min_value=1, max_value=20),
    q=st.floats(min_value=-50.0, max_value=0.999),
)
def test_regime_classification_below_one(n, q):
    p = EnsembleParams.from_q(n, q, alpha=1.0)
    assert p.regime is Regime.RESTRICTED_TRACE
    assert p.lam < 0
    # support radius -lam/alpha is positive
    assert -p.lam / p.alpha > 0
