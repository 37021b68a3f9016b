"""Every stage's splitting and pair verdicts, and ``sweep``'s final label, against their exact closed forms
(``tests/closed_forms.py``), and every stage's printed ``sigma`` and ``mu`` against 60-digit values.

A stage's label must match the closed form or read ``boundary``, and ``sweep``'s must match it.  ``stage_state`` and
``analyze`` report a stage from closed forms in ``(r, epsilon)``, so no row is refused and no row reads the rounding
of the stage matrix, which past r ~ 18.37 is no longer positive definite.
"""

import json

import numpy as np
import pytest

from gaussent import ProtocolParams, stage_state, sweep_profile
from gaussent.cli import main
from gaussent.core import _pt_invariants
from gaussent.protocol import STAGE_FINAL_VIA_A, STAGE_FINAL_VIA_APRIME, STAGE_INITIAL, STAGE_SHARED, STAGES
from gaussent.separability import _CLASS_BY_COUNT, BOUNDARY_TOL

from closed_forms import SIGMA_MULTIPLES, pair_entangled, pair_products, stage_entangled, stage_sigmas

#: Squeezing up to just below the r ~ 18.37 where the rounded stage matrices stop being positive definite.
R_GRID = np.linspace(0.0, 18.3, 184)
EPSILONS = (0.0, 0.1, 1.0, 3.0, 5.0, 10.0, 20.0)


def cases(epsilons, stages=STAGES):
    for stage in stages:
        for eps in epsilons:
            yield pytest.param(stage, eps, id=f"{stage}-{eps}")


@pytest.mark.parametrize("stage,epsilon", cases(EPSILONS))
def test_labels_match_the_closed_form_or_read_boundary(stage, epsilon):
    wrong = []
    for r in R_GRID.tolist():
        report = stage_state(ProtocolParams(r, epsilon), stage).report
        want = stage_entangled(stage, r, epsilon)
        boundary = [v.boundary for v in report.verdicts]
        splittings_ok = all(v.entangled == w or v.boundary for v, w in zip(report.verdicts, want))
        class_ok = report.class_label == _CLASS_BY_COUNT[want.sum()] or any(boundary)
        if not (splittings_ok and class_ok):
            wrong.append(r)
    assert wrong == []


@pytest.mark.parametrize("stage,epsilon", cases(EPSILONS))
def test_pair_labels_match_the_closed_form_or_read_boundary(stage, epsilon):
    wrong = []
    for r in R_GRID.tolist():
        report = stage_state(ProtocolParams(r, epsilon), stage).report
        want = pair_entangled(stage, r, epsilon)
        if not all(m.entangled == w or m.boundary for (_, m), w in zip(report.pairwise, want)):
            wrong.append(r)
    assert wrong == []


@pytest.mark.parametrize("stage,epsilon", cases(EPSILONS, (STAGE_FINAL_VIA_APRIME,)))
def test_sweep_class_final_is_the_closed_form_label(stage, epsilon):
    # sweep builds no matrix, so no row is refused; the stacked sweep is bit for bit its rows (tests/test_protocol.py)
    labels = sweep_profile(R_GRID, epsilon)["class_final"].tolist()
    want = [_CLASS_BY_COUNT[stage_entangled(stage, r, epsilon).sum()] for r in R_GRID.tolist()]
    assert [r for r, got, w in zip(R_GRID.tolist(), labels, want) if got != w] == []


#: Bound on ``|printed sigma - closed form|`` in units of ``1 + |i1| + |i2| + |i3|``, the terms ``sigma`` cancels
#: on the matrix, and on ``|printed ppt_condition_value - closed form|`` relative to ``1 + |closed form|``, for
#: r <= 6 and epsilon <= 3, where the numpy forms of ``tests/closed_forms.py`` in ``exp(2r)`` keep their digits.
SIGMA_BOUND, PRODUCT_BOUND = 3e-12, 1e-12


@pytest.mark.parametrize("stage,epsilon", cases((0.0, 0.1, 1.0, 3.0)))
def test_printed_sigma_and_products_match_the_closed_form(stage, epsilon):
    for r in R_GRID[R_GRID <= 6.0].tolist():
        state = stage_state(ProtocolParams(r, epsilon), stage)
        printed = np.array([float(f"{v.sigma:.12g}") for v in state.report.verdicts])
        i1, i2, i3 = _pt_invariants(state.state.cm, [0, 1, 2])
        scale = 1.0 + np.abs(i1) + np.abs(i2) + np.abs(i3)
        assert (np.abs(printed - stage_sigmas(stage, r, epsilon)) <= SIGMA_BOUND * scale).all(), r
        products, want = [m.ppt_condition_value for _, m in state.report.pairwise], pair_products(stage, r, epsilon)
        assert (np.abs(np.array(products) - want) <= PRODUCT_BOUND * (1.0 + np.abs(want))).all(), r


#: ``analyze`` rows across the r ~ 18.2 where the rounded final stages are first not positive definite, 18.00 to
#: 20.00 by 0.01.
ANALYZE_RS = [f"{k / 100:.2f}" for k in range(1800, 2001)]


@pytest.mark.parametrize("stage,epsilon", cases((0.1, 3.0), (STAGE_FINAL_VIA_APRIME, STAGE_FINAL_VIA_A)))
def test_analyze_past_the_rounded_stages_prints_the_closed_form(capsys, stage, epsilon):
    wrong = []
    for r in ANALYZE_RS:
        assert main(["analyze", "--r", r, "--epsilon", str(epsilon), "--stage", stage]) == 0, r
        report = json.loads(capsys.readouterr().out)["report"]
        want = stage_entangled(stage, float(r), epsilon)
        splittings_ok = all(v["entangled"] == w or v["boundary"] for v, w in zip(report["verdicts"], want))
        class_ok = report["class"] == _CLASS_BY_COUNT[want.sum()] or any(v["boundary"] for v in report["verdicts"])
        # the JSON leaves out a pair's boundary flag: |mu - 1| within BOUNDARY_TOL
        pairs_ok = all(m["entangled"] == w or abs(m["mu"] - 1.0) <= BOUNDARY_TOL
                       for m, w in zip(report["pairwise"], pair_entangled(stage, float(r), epsilon)))
        if not (splittings_ok and class_ok and pairs_ok):
            wrong.append(r)
    assert wrong == []


#: Bounds on each stage's printed ``mu`` (relative) and ``sigma`` (``(1 + |r - epsilon|)`` ulp relative, the
#: rounding of ``expm1(2 (r - epsilon))``'s argument) against ``STAGE_REFERENCE``, as ``sweep``'s.  Measured
#: 3.6e-16 and 1.65 of that unit on these rows.
STAGE_MU_BOUND, STAGE_SIGMA_ULPS = 5e-16, 2.0

#: The shared ``A|(A'B)`` ``sigma`` and the ``mu`` of initial A-B, shared A-A' and A-B, and the final stage via A''s
#: A-A', A-B and A'-B, by (r, epsilon): 60-digit values from the stage matrices, rounded to float64
#: (``tests/derive_closed_forms.py``).  Every other splitting is a multiple of the shared one (``SIGMA_MULTIPLES``);
#: every other pair is one of these, mirrored, or a mode beside the vacuum, whose ``mu`` is 1.  The rows run from
#: r = 1e-170, where ``(1 - exp(-2r))^2`` is below the float64 range and ``sigma`` is too unless ``exp(2 epsilon)``
#: lifts it, past r ~ 18.37, to r 354, inside the ln(DBL_MAX) / 2 = 354.89 where ``exp(2r)`` overflows.
STAGE_REFERENCE = {
    (0.0, 0.0):
        (0.0, 1.0, 1.0, 1.0,
         1.0, 1.0, 1.0),
    (1e-170, 0.0):
        (-0.0, 1.0, 1.0, 1.0,
         1.0, 1.0, 1.0),
    (1e-08, 0.0):
        (-7.999999920000002e-24, 1.0, 1.0, 1.0,
         1.0000000047809365, 0.9999999938782337, 0.999999997192236),
    (0.01, 0.0):
        (-7.920794698507384e-06, 1.0, 1.0, 1.0000331845859438,
         1.0048085008215584, 0.99392048289208, 0.9972192182500997),
    (0.5, 0.0):
        (-0.6865848687367595, 1.0, 1.0, 1.060988256408345,
         1.2522526913503502, 0.7828203181677047, 0.9118071345051978),
    (2.0, 0.0):
        (-51.65276148718254, 1.0, 1.0, 1.2136202253955066,
         1.4407772230102676, 0.6311670323746533, 0.8680295981239361),
    (6.0, 0.0):
        (-162751.7914374365, 1.0, 1.0, 1.2247411088549376,
         1.449905873431584, 0.6221973894144729, 0.8660260689174057),
    (12.0, 0.0):
        (-26489122126.84347, 1.0, 1.0, 1.2247448713684712,
         1.4499089224886983, 0.6221943575637573, 0.8660254037885253),
    (18.3, 0.0):
        (-7855576054835266.0, 1.0, 1.0, 1.224744871391589,
         1.4499089225074324, 0.6221943575451289, 0.8660254037844387),
    (19.0, 0.0):
        (-3.185593175711375e+16, 1.0, 1.0, 1.224744871391589,
         1.4499089225074324, 0.6221943575451288, 0.8660254037844386),
    (50.0, 0.0):
        (-2.6881171418161356e+43, 1.0, 1.0, 1.224744871391589,
         1.4499089225074326, 0.6221943575451288, 0.8660254037844386),
    (200.0, 0.0):
        (-5.221469689764144e+173, 1.0, 1.0, 1.224744871391589,
         1.4499089225074326, 0.6221943575451288, 0.8660254037844386),
    (354.0, 0.0):
        (-3.023383144276055e+307, 1.0, 1.0, 1.224744871391589,
         1.4499089225074326, 0.6221943575451288, 0.8660254037844386),
    (0.0, 1e-08):
        (0.0, 1.0, 1.0, 1.0,
         1.0, 1.0, 1.0),
    (1e-170, 1e-08):
        (0.0, 1.0, 1.0, 1.0,
         1.0, 1.0, 1.0),
    (1e-08, 1e-08):
        (0.0, 1.0000000038196601, 1.00000001, 1.0000000029289322,
         1.0000000074118096, 1.0000000003407417, 1.0000000013397459),
    (0.01, 1e-08):
        (-7.92078685665653e-06, 1.0000000049500004, 1.0000000098019868, 1.0000331878676711,
         1.0048085047150919, 0.9939204896401793, 0.9972192225024105),
    (0.5, 1e-08):
        (-0.6865848607452314, 1.0000000026894142, 1.0000000036787944, 1.0609882577248304,
         1.2522526938589134, 0.7828203213966392, 0.9118071363790852),
    (2.0, 1e-08):
        (-51.652761467908455, 1.0000000001798621, 1.0000000001831564, 1.2136202254352801,
         1.4407772231234335, 0.6311670325748496, 0.8680295982289608),
    (6.0, 1e-08):
        (-162751.7914374165, 1.0000000000000615, 1.0000000000000615, 1.22474110885495,
         1.4499058734316215, 0.622197389414541, 0.8660260689174412),
    (12.0, 1e-08):
        (-26489122126.84347, 1.0, 1.0, 1.2247448713684712,
         1.4499089224886983, 0.6221943575637573, 0.8660254037885253),
    (18.3, 1e-08):
        (-7855576054835266.0, 1.0, 1.0, 1.224744871391589,
         1.4499089225074324, 0.6221943575451289, 0.8660254037844387),
    (19.0, 1e-08):
        (-3.185593175711375e+16, 1.0, 1.0, 1.224744871391589,
         1.4499089225074324, 0.6221943575451288, 0.8660254037844386),
    (50.0, 1e-08):
        (-2.6881171418161356e+43, 1.0, 1.0, 1.224744871391589,
         1.4499089225074326, 0.6221943575451288, 0.8660254037844386),
    (200.0, 1e-08):
        (-5.221469689764144e+173, 1.0, 1.0, 1.224744871391589,
         1.4499089225074326, 0.6221943575451288, 0.8660254037844386),
    (354.0, 1e-08):
        (-3.023383144276055e+307, 1.0, 1.0, 1.224744871391589,
         1.4499089225074326, 0.6221943575451288, 0.8660254037844386),
    (0.0, 0.1):
        (0.0, 1.0, 1.0, 1.0,
         1.0, 1.0, 1.0),
    (1e-170, 0.1):
        (0.0, 1.0, 1.0, 1.0,
         1.0, 1.0, 1.0),
    (1e-08, 0.1):
        (8.856109349284598e-17, 1.000000009999999, 1.00000001, 1.000000009999999,
         1.0000000099999997, 1.0000000099999997, 1.000000014999999),
    (0.01, 0.1):
        (7.888957484862681e-05, 1.0089659522162149, 1.010050167084168, 1.0088889992222163,
         1.0097206813229027, 1.0096423581720912, 1.0137321598351865),
    (0.1, 0.1):
        (0.0, 1.0357613048851178, 1.086862110353479, 1.0297564358350229,
         1.0786264862632167, 1.0031505372810985, 1.0132548895345888),
    (0.5, 0.1):
        (-0.5981175514831744, 1.0274342929424953, 1.0399276527459875, 1.074949900598424,
         1.279711798416053, 0.8175702639630633, 0.9322954353993672),
    (2.0, 0.1):
        (-51.43939472260615, 1.0019812348947246, 1.002025515127949, 1.2140595384984754,
         1.4420289938093795, 0.6333788205607024, 0.8691914585871989),
    (6.0, 0.1):
        (-162751.57003739904, 1.0000006801674453, 1.0000006801725496, 1.2247412476975084,
         1.4499062890576782, 0.622198143788834, 0.86602646161435),
    (12.0, 0.1):
        (-26489122126.62207, 1.000000000004179, 1.000000000004179, 1.2247448713693243,
         1.449908922491252, 0.6221943575683924, 0.8660254037909382),
    (18.3, 0.1):
        (-7855576054835266.0, 1.0, 1.0, 1.224744871391589,
         1.4499089225074324, 0.6221943575451289, 0.8660254037844387),
    (19.0, 0.1):
        (-3.185593175711375e+16, 1.0, 1.0, 1.224744871391589,
         1.4499089225074324, 0.6221943575451288, 0.8660254037844387),
    (50.0, 0.1):
        (-2.6881171418161356e+43, 1.0, 1.0, 1.224744871391589,
         1.4499089225074326, 0.6221943575451288, 0.8660254037844386),
    (200.0, 0.1):
        (-5.221469689764144e+173, 1.0, 1.0, 1.224744871391589,
         1.4499089225074326, 0.6221943575451288, 0.8660254037844386),
    (354.0, 0.1):
        (-3.023383144276055e+307, 1.0, 1.0, 1.224744871391589,
         1.4499089225074326, 0.6221943575451288, 0.8660254037844386),
    (0.0, 3.0):
        (0.0, 1.0, 1.0, 1.0,
         1.0, 1.0, 1.0),
    (1e-170, 3.0):
        (0.0, 1.0, 1.0, 1.0,
         1.0, 1.0, 1.0),
    (1e-08, 3.0):
        (1.6097151416966375e-13, 1.00000001, 1.00000001, 1.00000001,
         1.00000001, 1.00000001, 1.000000015),
    (0.01, 3.0):
        (0.15778140653716155, 1.009851638953188, 1.010050167084168, 1.0098516389287346,
         1.0100167241479718, 1.0100167162302593, 1.0149389140151641),
    (0.5, 3.0):
        (160.11446405109567, 1.2764908252927472, 1.6487212707001282, 1.2764897342933523,
         1.5568746733889773, 1.5548018053166113, 1.7404547761053621),
    (2.0, 3.0):
        (336.16955090607746, 1.3660470877234112, 2.8932231956836505, 1.370160040691423,
         2.425484193829671, 1.9647876065160688, 2.1026177259715193),
    (3.0, 3.0):
        (0.0, 1.2241125552966186, 1.413336919429806, 1.289857249636658,
         1.7060131950202986, 1.0190126798779062, 1.117549673336934),
    (6.0, 3.0):
        (-162349.36758914453, 1.0012324875554681, 1.0012355407017437, 1.2249931362279316,
         1.450660965236508, 0.6235668569744758, 0.8667395538036048),
    (12.0, 3.0):
        (-26489121724.41468, 1.000000007596114, 1.0000000075961142, 1.2247448729190216,
         1.4499089271303607, 0.6221943659885962, 0.8660254081741439),
    (18.3, 3.0):
        (-7855576054834863.0, 1.0000000000000255, 1.0000000000000255, 1.2247448713915943,
         1.4499089225074482, 0.6221943575451573, 0.8660254037844535),
    (19.0, 3.0):
        (-3.185593175711335e+16, 1.0000000000000062, 1.0000000000000062, 1.2247448713915903,
         1.4499089225074364, 0.6221943575451359, 0.8660254037844423),
    (50.0, 3.0):
        (-2.6881171418161356e+43, 1.0, 1.0, 1.224744871391589,
         1.4499089225074326, 0.6221943575451288, 0.8660254037844386),
    (200.0, 3.0):
        (-5.221469689764144e+173, 1.0, 1.0, 1.224744871391589,
         1.4499089225074326, 0.6221943575451288, 0.8660254037844386),
    (354.0, 3.0):
        (-3.023383144276055e+307, 1.0, 1.0, 1.224744871391589,
         1.4499089225074326, 0.6221943575451288, 0.8660254037844386),
    (0.0, 20.0):
        (0.0, 1.0, 1.0, 1.0,
         1.0, 1.0, 1.0),
    (1e-170, 20.0):
        (9.4e-323, 1.0, 1.0, 1.0,
         1.0, 1.0, 1.0),
    (1e-08, 20.0):
        (94.15410485172589, 1.00000001, 1.00000001, 1.00000001,
         1.00000001, 1.00000001, 1.000000015),
    (0.01, 20.0):
        (92292806873209.64, 1.009852131102987, 1.010050167084168, 1.009852131102987,
         1.0100168864498773, 1.0100168864498773, 1.014939408720234),
    (0.5, 20.0):
        (9.405439774614624e+16, 1.2775447384841587, 1.6487212707001282, 1.2775447384841587,
         1.556882283622088, 1.556882283622088, 1.7419363099359644),
    (2.0, 20.0):
        (2.2684176670297222e+17, 1.40772311237376, 7.38905609893065, 1.40772311237376,
         3.162706634160467, 3.1627066341604646, 7.422195915879604),
    (6.0, 20.0):
        (2.3538237433161475e+17, 1.4142113900640723, 403.4287934927351, 1.4142113900640723,
         3.4639854448977614, 3.463985444889294, 403.4294131764261),
    (12.0, 20.0):
        (2.3538524033012563e+17, 1.4142135225725592, 2980.9581547730377, 1.4142135225725638,
         3.464099818372966, 3.464098440106951, 2107.855784965375),
    (18.3, 20.0):
        (2.2752969078218467e+17, 1.4027489209767903, 5.564539518001195, 1.4031090128985366,
         3.05155337759938, 2.797061886730391, 3.966364837442275),
    (19.0, 20.0):
        (2.035293350799062e+17, 1.3714215537091001, 2.8963867315900083, 1.3760425215380516,
         2.458164548865738, 1.9825131858448999, 2.108204935357406),
    (20.0, 20.0):
        (0.0, 1.224744871391589, 1.4142135623730951, 1.2909944487358056,
         1.7074609292164138, 1.0190653688015627, 1.118033988749895),
    (50.0, 20.0):
        (-2.6881171418161356e+43, 1.0, 1.0, 1.224744871391589,
         1.4499089225074326, 0.6221943575451288, 0.8660254037844386),
    (200.0, 20.0):
        (-5.221469689764144e+173, 1.0, 1.0, 1.224744871391589,
         1.4499089225074326, 0.6221943575451288, 0.8660254037844386),
    (354.0, 20.0):
        (-3.023383144276055e+307, 1.0, 1.0, 1.224744871391589,
         1.4499089225074326, 0.6221943575451288, 0.8660254037844386),
    (0.0, 300.0):
        (0.0, 1.0, 1.0, 1.0,
         1.0, 1.0, 1.0),
    (1e-170, 300.0):
        (1.5092081203719758e-79, 1.0, 1.0, 1.0,
         1.0, 1.0, 1.0),
    (1e-08, 300.0):
        (1.5092080901878138e+245, 1.00000001, 1.00000001, 1.00000001,
         1.00000001, 1.00000001, 1.000000015),
    (0.01, 300.0):
        (1.479373108783119e+257, 1.009852131102987, 1.010050167084168, 1.009852131102987,
         1.0100168864498773, 1.0100168864498773, 1.014939408720234),
    (0.5, 300.0):
        (1.5076098723445562e+260, 1.2775447384841587, 1.6487212707001282, 1.2775447384841587,
         1.556882283622088, 1.556882283622088, 1.7419363099359644),
    (2.0, 300.0):
        (3.6360754535318273e+260, 1.4077231123737601, 7.38905609893065, 1.4077231123737601,
         3.1627066341604686, 3.1627066341604686, 7.422195915879604),
    (6.0, 300.0):
        (3.772973936596492e+260, 1.4142113900643165, 403.4287934927351, 1.4142113900643165,
         3.4639854449087943, 3.4639854449087943, 403.42941317649587),
    (12.0, 300.0):
        (3.7730203006450664e+260, 1.4142135623597478, 162754.79141900392, 1.4142135623597478,
         3.4641016144239436, 3.4641016144239436, 162754.79142054),
    (18.3, 300.0):
        (3.773020300929939e+260, 1.414213562373095, 88631687.64519419, 1.414213562373095,
         3.464101615137752, 3.464101615137752, 88631687.64519419),
    (19.0, 300.0):
        (3.7730203009299397e+260, 1.4142135623730951, 178482300.96318725, 1.4142135623730951,
         3.464101615137754, 3.464101615137754, 178482300.96318725),
    (50.0, 300.0):
        (3.7730203009299397e+260, 1.4142135623730951, 5.184705528587072e+21, 1.4142135623730951,
         3.4641016151377544, 3.4641016151377544, 5.184705528587072e+21),
    (200.0, 300.0):
        (3.7730203009299397e+260, 1.4142135623730951, 2.6881171418161356e+43, 1.4142135623730951,
         3.4641016151377544, 3.4641016151377544, 1.9007858596019896e+43),
    (300.0, 300.0):
        (0.0, 1.224744871391589, 1.4142135623730951, 1.2909944487358056,
         1.7074609292164138, 1.0190653688015627, 1.118033988749895),
    (354.0, 300.0):
        (-3.023383144276055e+307, 1.0, 1.0, 1.224744871391589,
         1.4499089225074326, 0.6221943575451288, 0.8660254037844386),
}


@pytest.mark.parametrize("eps", sorted({eps for _, eps in STAGE_REFERENCE}))
def test_stage_reports_against_the_60_digit_reference(eps):
    for (r, e), (sigma, *mu) in STAGE_REFERENCE.items():
        if e != eps:
            continue
        want_mu = {STAGE_INITIAL: (1.0, mu[0], 1.0), STAGE_SHARED: (mu[1], mu[2], mu[2]),
                   STAGE_FINAL_VIA_APRIME: (mu[3], mu[4], mu[5]), STAGE_FINAL_VIA_A: (mu[3], mu[5], mu[4])}
        for stage in STAGES:
            report = stage_state(ProtocolParams(r, eps), stage).report
            got, want = np.array([m.mu for _, m in report.pairwise]), np.array(want_mu[stage])
            assert (np.abs(got - want) <= STAGE_MU_BOUND * want).all(), (stage, r)
            got, want = np.array([v.sigma for v in report.verdicts]), sigma * np.array(SIGMA_MULTIPLES[stage])
            bound = STAGE_SIGMA_ULPS * np.finfo(float).eps * (1.0 + abs(r - eps)) * np.abs(want)
            assert (np.abs(got - want) <= bound).all(), (stage, r)
            assert not np.signbit(got).any(where=want == 0.0), (stage, r)  # exact zeros print as 0, not -0
            # each splitting's flags read its printed value
            flags = [(v.entangled, v.boundary) for v in report.verdicts]
            assert flags == [(x < 0.0, x == 0.0) for x in got.tolist()], (stage, r)


@pytest.mark.parametrize("eps", sorted({eps for _, eps in STAGE_REFERENCE}))
def test_sweep_sigma_against_the_60_digit_reference(eps):
    rs = np.array([r for r, e in STAGE_REFERENCE if e == eps])
    want = np.array([STAGE_REFERENCE[r, eps][0] for r in rs.tolist()])
    got = sweep_profile(rs, eps)["sigma_shared_A"]
    bound = STAGE_SIGMA_ULPS * np.finfo(float).eps * (1.0 + np.abs(rs - eps)) * np.abs(want)
    assert (np.abs(got - want) <= bound).all()
    assert not np.signbit(got).any(where=want == 0.0)
