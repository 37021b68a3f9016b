import functools
import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaussent import (
    DomainError,
    GaussianState,
    NumericalFailureError,
    UnphysicalError,
    apply_symplectic,
    beam_splitter,
    classify_three_mode,
    embed_vacuum,
    final_cm,
    gap_profile,
    initial_cm,
    localizable_mu,
    mu_m,
    numeric_threshold_r_e,
    numeric_threshold_r_m,
    partial_transpose,
    reduce_modes,
    reduced_pair_cm,
    shared_cm,
    splitting_sigma,
    stage_state,
    sweep_profile,
    symplectic_eigenvalues,
    threshold_r_e,
    threshold_r_l,
    threshold_r_m,
    threshold_report,
    two_mode_metrics,
    validate_cm,
)
from gaussent import protocol
from gaussent.protocol import (
    ROUTE_VIA_A,
    ROUTE_VIA_APRIME,
    STAGE_FINAL_VIA_A,
    STAGE_FINAL_VIA_APRIME,
    STAGE_INITIAL,
    STAGE_SHARED,
    STAGES,
    ProtocolParams,
)
from gaussent.core import _pt_invariants, _quadratures
from gaussent.separability import _CLASS_BY_COUNT, _splittings

from closed_forms import stage_entangled
from helpers import pt_mu_oracle, random_pure_cm


def pipeline_shared(params):
    return apply_symplectic(embed_vacuum(initial_cm(params), 1), beam_splitter(3, 0, 1))


def pipeline_final(params, route):
    shared = pipeline_shared(params)
    if route == ROUTE_VIA_APRIME:
        return apply_symplectic(shared, beam_splitter(3, 2, 1, "plus"))
    return apply_symplectic(shared, beam_splitter(3, 0, 2, "minus"))


class TestInitialCm:
    def test_no_squeezing_no_noise_is_vacuum(self):
        assert np.array_equal(initial_cm(ProtocolParams(0.0, 0.0)).cm, np.eye(4))

    def test_entries(self):
        cm = initial_cm(ProtocolParams(0.3, 0.1)).cm
        assert cm[0, 0] == pytest.approx(1 + np.exp(-0.6) * (np.exp(0.2) - 1), abs=1e-15)
        assert cm[1, 1] == pytest.approx(np.exp(0.6), abs=1e-15)
        assert cm[2, 2] == pytest.approx(2 - np.exp(-0.6), abs=1e-15)

    def test_correlation_block_is_singular_hence_separable(self):
        for r, eps in [(0.2, 0.0), (0.8, 0.3), (1.5, 1.0)]:
            cm = initial_cm(ProtocolParams(r, eps)).cm
            assert np.linalg.det(cm[:2, 2:]) == pytest.approx(0.0, abs=1e-15)
            assert two_mode_metrics(cm).mu >= 1 - 1e-9

    def test_physical_over_grid(self):
        for r in np.linspace(0, 1.5, 7):
            for eps in np.linspace(0, 1.5, 7):
                validate_cm(initial_cm(ProtocolParams(r, eps)).cm)

    def test_params_validated(self):
        with pytest.raises(ValueError):
            ProtocolParams(-0.1, 0.0)

    @pytest.mark.parametrize("r,eps", [
        (float("nan"), 0.1), (0.3, float("nan")), (float("inf"), 0.1), (0.3, float("inf")),
    ])
    def test_params_must_be_finite(self, r, eps):
        with pytest.raises(ValueError, match="finite"):
            ProtocolParams(r, eps)


#: sweep's (mu_pair, mu_m, sigma_shared_A) by (r, epsilon): 60-digit values from the stage matrices and the conditioned
#: pair, rounded to float64 (``tests/derive_closed_forms.py``).  ``sigma_shared_A`` is exactly 0 at r = 0 and at
#: r == epsilon.  The rows run past the r ~ 18.37 where the rounded stage matrices stop being positive definite,
#: to r and epsilon 354.8, inside the ln(DBL_MAX) / 2 = 354.89 where the forms overflow.
SWEEP_REFERENCE = {
    (0.0, 0.0): (1.0, 1.0, 0.0),
    (1e-08, 0.0): (0.9999999938782337, 0.9999999999999998, -7.999999920000002e-24),
    (0.0001, 0.0): (0.9999387865757381, 0.9999999800079973, -7.999200079994668e-12),
    (0.01, 0.0): (0.99392048289208, 0.9998077418494832, -7.920794698507384e-06),
    (0.5, 0.0): (0.7828203181677047, 0.8690107044169021, -0.6865848687367595),
    (1.0, 0.0): (0.6857076206466178, 0.7739805175123827, -4.776746309751754),
    (2.0, 0.0): (0.6311670323746533, 0.716724778960211, -51.65276148718254),
    (4.0, 0.0): (0.6223598702163928, 0.7072846547901843, -2977.958993317077),
    (6.0, 0.0): (0.6221973894144729, 0.7071100396363681, -162751.7914374365),
    (8.0, 0.0): (0.6221944130758867, 0.7071068408673328, -8886107.520508211),
    (12.0, 0.0): (0.6221943575637573, 0.7071067812065682, -26489122126.84347),
    (16.0, 0.0): (0.6221943575451351, 0.7071067811865542, -78962960182677.69),
    (18.3, 0.0): (0.6221943575451289, 0.7071067811865476, -7855576054835266.0),
    (50.0, 0.0): (0.6221943575451288, 0.7071067811865476, -2.6881171418161356e+43),
    (200.0, 0.0): (0.6221943575451288, 0.7071067811865476, -5.221469689764144e+173),
    (354.0, 0.0): (0.6221943575451288, 0.7071067811865476, -3.023383144276055e+307),
    (354.8, 0.0): (0.6221943575451288, 0.7071067811865476, -1.4974914744969295e+308),
    (0.0, 1e-08): (1.0, 1.0, 0.0),
    (1e-08, 1e-08): (1.0000000003407417, 1.0000000099999997, 0.0),
    (0.0001, 1e-08): (0.9999387934166705, 0.9999999900059978, -7.998400239968004e-12),
    (0.01, 1e-08): (0.9939204896401793, 0.9998077516533548, -7.92078685665653e-06),
    (0.5, 1e-08): (0.7828203213966392, 0.8690107086502152, -0.6865848607452314),
    (1.0, 1e-08): (0.6857076220060775, 0.7739805192609446, -4.776746294798852),
    (2.0, 1e-08): (0.6311670325748496, 0.7167247792157574, -51.652761467908455),
    (4.0, 1e-08): (0.6223598702201124, 0.7072846547949273, -2977.9589932970903),
    (6.0, 1e-08): (0.622197389414541, 0.707110039636455, -162751.7914374165),
    (8.0, 1e-08): (0.622194413075888, 0.7071068408673343, -8886107.52050819),
    (12.0, 1e-08): (0.6221943575637573, 0.7071067812065682, -26489122126.84347),
    (16.0, 1e-08): (0.6221943575451351, 0.7071067811865542, -78962960182677.69),
    (18.3, 1e-08): (0.6221943575451289, 0.7071067811865476, -7855576054835266.0),
    (50.0, 1e-08): (0.6221943575451288, 0.7071067811865476, -2.6881171418161356e+43),
    (200.0, 1e-08): (0.6221943575451288, 0.7071067811865476, -5.221469689764144e+173),
    (354.0, 1e-08): (0.6221943575451288, 0.7071067811865476, -3.023383144276055e+307),
    (354.8, 1e-08): (0.6221943575451288, 0.7071067811865476, -1.4974914744969295e+308),
    (0.0, 0.1): (1.0, 1.0, 0.0),
    (1e-08, 0.1): (1.0000000099999997, 1.00000001, 8.856109349284598e-17),
    (0.0001, 0.1): (1.000099971494799, 1.0001000050001667, 8.846340110886381e-09),
    (0.01, 0.1): (1.0096423581720912, 1.010050167084168, 7.888957484862681e-05),
    (0.1, 0.1): (1.0031505372810985, 1.073989267551084, 0.0),
    (0.5, 0.1): (0.8175702639630633, 0.9146743285656046, -0.5981175514831744),
    (1.0, 0.1): (0.7005676892795126, 0.7931011577810927, -4.611215628594101),
    (2.0, 0.1): (0.6333788205607024, 0.7195481510941396, -51.43939472260615),
    (4.0, 0.1): (0.6224010451887058, 0.7073371581167975, -2977.7377390787033),
    (6.0, 0.1): (0.622198143788834, 0.7071110015408527, -162751.57003739904),
    (8.0, 0.1): (0.6221944268928118, 0.7071068584853194, -8886107.299105503),
    (12.0, 0.1): (0.6221943575683924, 0.7071067812124784, -26489122126.62207),
    (16.0, 0.1): (0.6221943575451366, 0.7071067811865562, -78962960182677.47),
    (18.3, 0.1): (0.6221943575451289, 0.7071067811865476, -7855576054835266.0),
    (50.0, 0.1): (0.6221943575451288, 0.7071067811865476, -2.6881171418161356e+43),
    (200.0, 0.1): (0.6221943575451288, 0.7071067811865476, -5.221469689764144e+173),
    (354.0, 0.1): (0.6221943575451288, 0.7071067811865476, -3.023383144276055e+307),
    (354.8, 0.1): (0.6221943575451288, 0.7071067811865476, -1.4974914744969295e+308),
    (0.0, 0.2): (1.0, 1.0, 0.0),
    (1e-08, 0.2): (1.00000001, 1.00000001, 1.967298671219107e-16),
    (0.0001, 0.2): (1.000099988097555, 1.0001000050001667, 1.9661054566986733e-08),
    (0.01, 0.2): (1.009865581469867, 1.010050167084168, 0.00018491999965040013),
    (0.2, 0.2): (1.0058252303829585, 1.1171120480023276, 0.0),
    (0.5, 0.2): (0.8575303485243131, 0.9675287072297878, -0.49006332618261467),
    (1.0, 0.2): (0.7182273804306378, 0.8158474589325988, -4.409035998068011),
    (2.0, 0.2): (0.6360684264836183, 0.7229816680484518, -51.17878796785285),
    (4.0, 0.2): (0.6224513322253818, 0.707401280538287, -2977.467498541699),
    (6.0, 0.2): (0.6221990651823531, 0.7071121764118682, -162751.29961878262),
    (8.0, 0.2): (0.6221944437688417, 0.7071068800039763, -8886107.028683623),
    (12.0, 0.2): (0.6221943575740536, 0.7071067812196971, -26489122126.351646),
    (16.0, 0.2): (0.6221943575451385, 0.7071067811865587, -78962960182677.2),
    (18.3, 0.2): (0.6221943575451289, 0.7071067811865477, -7855576054835265.0),
    (50.0, 0.2): (0.6221943575451288, 0.7071067811865476, -2.6881171418161356e+43),
    (200.0, 0.2): (0.6221943575451288, 0.7071067811865476, -5.221469689764144e+173),
    (354.0, 0.2): (0.6221943575451288, 0.7071067811865476, -3.023383144276055e+307),
    (354.8, 0.2): (0.6221943575451288, 0.7071067811865476, -1.4974914744969295e+308),
    (0.0, 3.0): (1.0, 1.0, 0.0),
    (1e-08, 3.0): (1.00000001, 1.00000001, 1.6097151416966375e-13),
    (0.0001, 3.0): (1.0001000016503183, 1.0001000050001667, 1.60939246857294e-05),
    (0.01, 3.0): (1.0100167162302593, 1.010050167084168, 0.15778140653716155),
    (0.5, 3.0): (1.5548018053166113, 1.6487212707001282, 160.11446405109567),
    (1.0, 3.0): (2.1582359125742467, 2.718281828459045, 296.09715814321004),
    (2.0, 3.0): (1.9647876065160688, 2.8079235867126937, 336.16955090607746),
    (3.0, 3.0): (1.0190126798779062, 1.2244915446732305, 0.0),
    (4.0, 3.0): (0.6926397605016649, 0.7970266015073653, -2575.8001541781646),
    (6.0, 3.0): (0.6235668569744758, 0.7088562732450486, -162349.36758914453),
    (8.0, 3.0): (0.6222195265903635, 0.7071388631633586, -8885705.091805292),
    (12.0, 3.0): (0.6221943659885962, 0.7071067919490959, -26489121724.41468),
    (16.0, 3.0): (0.6221943575479613, 0.7071067811901579, -78962960182275.27),
    (18.3, 3.0): (0.6221943575451573, 0.7071067811865838, -7855576054834863.0),
    (50.0, 3.0): (0.6221943575451288, 0.7071067811865476, -2.6881171418161356e+43),
    (200.0, 3.0): (0.6221943575451288, 0.7071067811865476, -5.221469689764144e+173),
    (354.0, 3.0): (0.6221943575451288, 0.7071067811865476, -3.023383144276055e+307),
    (354.8, 3.0): (0.6221943575451288, 0.7071067811865476, -1.4974914744969295e+308),
    (0.0, 10.0): (1.0, 1.0, 0.0),
    (1e-08, 10.0): (1.00000001, 1.00000001, 1.940660738825946e-07),
    (0.0001, 10.0): (1.0001000016668888, 1.0001000050001667, 19.402726907610372),
    (0.01, 10.0): (1.010016886449736, 1.010050167084168, 190229.65281172495),
    (0.5, 10.0): (1.556882281915971, 1.6487212707001282, 193860561.534585),
    (1.0, 10.0): (2.2065443526139608, 2.718281828459045, 362731362.13124573),
    (2.0, 10.0): (3.1627046556497453, 7.38905609893065, 467555676.5437279),
    (4.0, 10.0): (3.4576044744770718, 54.598150033144236, 484836761.4667798),
    (6.0, 10.0): (3.4545648559733286, 54.60272873681013, 484996480.7207067),
    (8.0, 10.0): (3.0436733246884877, 7.42281280950897, 476278977.6929884),
    (10.0, 10.0): (1.0190653687577382, 1.2247448711812234, 0.0),
    (12.0, 10.0): (0.632258838586225, 0.7199414135048048, -26003956932.470314),
    (16.0, 10.0): (0.6221977648029705, 0.7071111257874183, -78962475017483.28),
    (18.3, 10.0): (0.6221943917944301, 0.7071068248578947, -7855575569670071.0),
    (50.0, 10.0): (0.6221943575451288, 0.7071067811865476, -2.6881171418161356e+43),
    (200.0, 10.0): (0.6221943575451288, 0.7071067811865476, -5.221469689764144e+173),
    (354.0, 10.0): (0.6221943575451288, 0.7071067811865476, -3.023383144276055e+307),
    (354.8, 10.0): (0.6221943575451288, 0.7071067811865476, -1.4974914744969295e+308),
    (0.0, 20.0): (1.0, 1.0, 0.0),
    (1e-08, 20.0): (1.00000001, 1.00000001, 94.15410485172589),
    (0.0001, 20.0): (1.0001000016668888, 1.0001000050001667, 9413527811.020191),
    (0.01, 20.0): (1.0100168864498773, 1.010050167084168, 92292806873209.64),
    (0.5, 20.0): (1.556882283622088, 1.6487212707001282, 9.405439774614624e+16),
    (1.0, 20.0): (2.206544391456128, 2.718281828459045, 1.7598463486990765e+17),
    (2.0, 20.0): (3.1627066341604646, 7.38905609893065, 2.2684176670297222e+17),
    (4.0, 20.0): (3.457776142350904, 54.598150033144236, 2.3522736740577376e+17),
    (6.0, 20.0): (3.463985444889294, 403.4287934927351, 2.3538237433161475e+17),
    (8.0, 20.0): (3.464099486234881, 2980.9579870417283, 2.353852138498926e+17),
    (12.0, 20.0): (3.464098440106951, 2980.958070907384, 2.3538524033012563e+17),
    (16.0, 20.0): (3.454679400896643, 54.60272875087589, 2.3530630387683136e+17),
    (18.3, 20.0): (2.797061886730391, 5.5194293226199544, 2.2752969078218467e+17),
    (20.0, 20.0): (1.0190653688015627, 1.224744871391589, 0.0),
    (50.0, 20.0): (0.6221943575451288, 0.7071067811865476, -2.6881171418161356e+43),
    (200.0, 20.0): (0.6221943575451288, 0.7071067811865476, -5.221469689764144e+173),
    (354.0, 20.0): (0.6221943575451288, 0.7071067811865476, -3.023383144276055e+307),
    (354.8, 20.0): (0.6221943575451288, 0.7071067811865476, -1.4974914744969295e+308),
    (0.0, 100.0): (1.0, 1.0, 0.0),
    (1e-08, 100.0): (1.00000001, 1.00000001, 2.8903894494425103e+71),
    (0.0001, 100.0): (1.0001000016668888, 1.0001000050001667, 2.8898114967854915e+79),
    (0.01, 100.0): (1.0100168864498773, 1.010050167084168, 2.833250400137711e+83),
    (0.5, 100.0): (1.556882283622088, 1.6487212707001282, 2.887328591220177e+86),
    (1.0, 100.0): (2.2065443914561285, 2.718281828459045, 5.402463681142942e+86),
    (2.0, 100.0): (3.1627066341604686, 7.38905609893065, 6.963701159962245e+86),
    (4.0, 100.0): (3.457776142351258, 54.598150033144236, 7.22112649300315e+86),
    (6.0, 100.0): (3.4639854449087943, 403.4287934927351, 7.225884972563957e+86),
    (8.0, 100.0): (3.4640994872997437, 2980.9579870417283, 7.2259721417734e+86),
    (12.0, 100.0): (3.4641016144239436, 162754.79141900392, 7.225973767580169e+86),
    (16.0, 100.0): (3.464101615137515, 8886110.520507872, 7.225973768125567e+86),
    (18.3, 100.0): (3.464101615137752, 88631687.64519419, 7.225973768125748e+86),
    (50.0, 100.0): (3.4641016151377544, 5.184705528587072e+21, 7.225973768125749e+86),
    (100.0, 100.0): (1.0190653688015627, 1.224744871391589, 0.0),
    (200.0, 100.0): (0.6221943575451288, 0.7071067811865476, -5.221469689764144e+173),
    (354.0, 100.0): (0.6221943575451288, 0.7071067811865476, -3.023383144276055e+307),
    (354.8, 100.0): (0.6221943575451288, 0.7071067811865476, -1.4974914744969295e+308),
    (0.0, 170.0): (1.0, 1.0, 0.0),
    (1e-08, 170.0): (1.00000001, 1.00000001, 1.8288741848430515e+132),
    (0.0001, 170.0): (1.0001000016668888, 1.0001000050001667, 1.8285084892463258e+140),
    (0.01, 170.0): (1.0100168864498773, 1.010050167084168, 1.79271984161426e+144),
    (0.5, 170.0): (1.556882283622088, 1.6487212707001282, 1.8269374477063416e+147),
    (1.0, 170.0): (2.2065443914561285, 2.718281828459045, 3.418371999282034e+147),
    (2.0, 170.0): (3.1627066341604686, 7.38905609893065, 4.406234351870124e+147),
    (4.0, 170.0): (3.457776142351258, 54.598150033144236, 4.569118473320934e+147),
    (6.0, 170.0): (3.4639854449087943, 403.4287934927351, 4.5721293687660254e+147),
    (8.0, 170.0): (3.4640994872997437, 2980.9579870417283, 4.572184524487997e+147),
    (12.0, 170.0): (3.4641016144239436, 162754.79141900392, 4.572185553206126e+147),
    (16.0, 170.0): (3.464101615137515, 8886110.520507872, 4.572185553551223e+147),
    (18.3, 170.0): (3.464101615137752, 88631687.64519419, 4.5721855535513376e+147),
    (50.0, 170.0): (3.4641016151377544, 5.184705528587072e+21, 4.572185553551339e+147),
    (170.0, 170.0): (1.0190653688015627, 1.224744871391589, 0.0),
    (200.0, 170.0): (0.6221943575451288, 0.7071067811865476, -5.221469689764144e+173),
    (354.0, 170.0): (0.6221943575451288, 0.7071067811865476, -3.023383144276055e+307),
    (354.8, 170.0): (0.6221943575451288, 0.7071067811865476, -1.4974914744969295e+308),
    (0.0, 200.0): (1.0, 1.0, 0.0),
    (1e-08, 200.0): (1.00000001, 1.00000001, 2.0885878341339007e+158),
    (0.0001, 200.0): (1.0001000016668888, 1.0001000050001667, 2.0881702070600167e+166),
    (0.01, 200.0): (1.0100168864498773, 1.010050167084168, 2.0472993069926884e+170),
    (0.5, 200.0): (1.556882283622088, 1.6487212707001282, 2.0863760660116475e+173),
    (1.0, 200.0): (2.2065443914561285, 2.718281828459045, 3.9038060843190977e+173),
    (2.0, 200.0): (3.1627066341604686, 7.38905609893065, 5.031952191095404e+173),
    (4.0, 200.0): (3.457776142351258, 54.598150033144236, 5.217967061475865e+173),
    (6.0, 200.0): (3.4639854449087943, 403.4287934927351, 5.22140552632412e+173),
    (8.0, 200.0): (3.4640994872997437, 2980.9579870417283, 5.221468514566202e+173),
    (12.0, 200.0): (3.4641016144239436, 162754.79141900392, 5.221469689369909e+173),
    (16.0, 200.0): (3.464101615137515, 8886110.520507872, 5.221469689764011e+173),
    (18.3, 200.0): (3.464101615137752, 88631687.64519419, 5.221469689764143e+173),
    (50.0, 200.0): (3.4641016151377544, 5.184705528587072e+21, 5.221469689764144e+173),
    (200.0, 200.0): (1.0190653688015627, 1.224744871391589, 0.0),
    (354.0, 200.0): (0.6221943575451288, 0.7071067811865476, -3.023383144276055e+307),
    (354.8, 200.0): (0.6221943575451288, 0.7071067811865476, -1.4974914744969295e+308),
    (0.0, 300.0): (1.0, 1.0, 0.0),
    (1e-08, 300.0): (1.00000001, 1.00000001, 1.5092080901878138e+245),
    (0.0001, 300.0): (1.0001000016668888, 1.0001000050001667, 1.5089063139597395e+253),
    (0.01, 300.0): (1.0100168864498773, 1.010050167084168, 1.479373108783119e+257),
    (0.5, 300.0): (1.556882283622088, 1.6487212707001282, 1.5076098723445562e+260),
    (1.0, 300.0): (2.2065443914561285, 2.718281828459045, 2.8208800361139496e+260),
    (2.0, 300.0): (3.1627066341604686, 7.38905609893065, 3.6360754535318273e+260),
    (4.0, 300.0): (3.457776142351258, 54.598150033144236, 3.7704893109168795e+260),
    (6.0, 300.0): (3.4639854449087943, 403.4287934927351, 3.772973936596492e+260),
    (8.0, 300.0): (3.4640994872997437, 2980.9579870417283, 3.77301945173499e+260),
    (12.0, 300.0): (3.4641016144239436, 162754.79141900392, 3.7730203006450664e+260),
    (16.0, 300.0): (3.464101615137515, 8886110.520507872, 3.773020300929844e+260),
    (18.3, 300.0): (3.464101615137752, 88631687.64519419, 3.773020300929939e+260),
    (50.0, 300.0): (3.4641016151377544, 5.184705528587072e+21, 3.7730203009299397e+260),
    (200.0, 300.0): (3.4641016151377544, 2.6881171418161356e+43, 3.7730203009299397e+260),
    (300.0, 300.0): (1.0190653688015627, 1.224744871391589, 0.0),
    (354.0, 300.0): (0.6221943575451288, 0.7071067811865476, -3.023383144276055e+307),
    (354.8, 300.0): (0.6221943575451288, 0.7071067811865476, -1.4974914744969295e+308),
    (0.0, 354.8): (1.0, 1.0, 0.0),
    (1e-08, 354.8): (1.00000001, 1.00000001, 5.989965778188401e+292),
    (0.0001, 354.8): (1.0001000016668888, 1.0001000050001667, 5.988768044562013e+300),
    (0.01, 354.8): (1.0100168864498773, 1.010050167084168, 5.871552340857324e+304),
    (0.5, 354.8): (1.556882283622088, 1.6487212707001282, 5.98362253748525e+307),
    (1.0, 354.8): (2.2065443914561285, 2.718281828459045, 1.1195921218918639e+308),
    (2.0, 354.8): (3.1627066341604686, 7.38905609893065, 1.443138800750538e+308),
    (4.0, 354.8): (3.457776142351258, 54.598150033144236, 1.4964869381668015e+308),
    (6.0, 354.8): (3.4639854449087943, 403.4287934927351, 1.4974730727422285e+308),
    (8.0, 354.8): (3.4640994872997437, 2980.9579870417283, 1.497491137456019e+308),
    (12.0, 354.8): (3.4641016144239436, 162754.79141900392, 1.4974914743838647e+308),
    (16.0, 354.8): (3.464101615137515, 8886110.520507872, 1.4974914744968915e+308),
    (18.3, 354.8): (3.464101615137752, 88631687.64519419, 1.497491474496929e+308),
    (50.0, 354.8): (3.4641016151377544, 5.184705528587072e+21, 1.4974914744969295e+308),
    (200.0, 354.8): (3.4641016151377544, 1.6935023304663462e+67, 1.4974914744969295e+308),
    (354.0, 354.8): (1.7400733602705203, 2.335172889615505, 1.195153160069324e+308),
    (354.8, 354.8): (1.0190653688015627, 1.224744871391589, 0.0),
}
SWEEP_EPSILONS = sorted({eps for _, eps in SWEEP_REFERENCE})
#: Bounds against ``SWEEP_REFERENCE``: ``mu_pair`` and ``mu_m`` relative, measured 3.6e-16 (at r = 6, epsilon = 0)
#: and 2.2e-16; ``sigma_shared_A`` relative, in ulp times ``1 + |r - epsilon|``, measured 1.65 (at r = 1e-8,
#: epsilon = 0): up to ``r - epsilon = 1`` its error grows like ``2 |r - epsilon|`` ulp at most, from rounding
#: ``r - epsilon`` before ``expm1``; past it, where the form takes ``exp(2r)`` out, it was 0.94 ulp at most.
SWEEP_MU_BOUND, SWEEP_SIGMA_ULPS = 5e-16, 2.0
#: ``sweep_profile`` against the one-state kernels on the built matrices, r <= 6 and epsilon <= 3: ``mu_pair``
#: relative and ``sigma_shared_A`` in units of ``1 + |i1| + |i2| + |i3|`` of the shared matrix.  Measured 7.0e-12
#: (at r = 6) and 1.1e-15 on the test's grid, 1.2e-11 and 3.6e-15 on 241 r in [0, 6] x 8 epsilon in [0, 3].
KERNEL_MU_BOUND, KERNEL_SIGMA_BOUND = 3e-11, 1e-14


class TestClosedFormsMatchPipeline:
    def test_shared_vacuum_limit(self):
        state, _ = shared_cm(ProtocolParams(0.0, 0.0))
        assert np.array_equal(state.cm, np.eye(6))

    def test_final_vacuum_limit(self):
        for route in (ROUTE_VIA_APRIME, ROUTE_VIA_A):
            assert np.allclose(final_cm(ProtocolParams(0.0, 0.0), route).cm, np.eye(6), atol=1e-15)

    def test_hundred_random_parameter_pairs(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            params = ProtocolParams(rng.uniform(0, 1.5), rng.uniform(0, 1.0))
            closed, _ = shared_cm(params)
            assert np.abs(closed.cm - pipeline_shared(params).cm).max() < 1e-12
            for route in (ROUTE_VIA_APRIME, ROUTE_VIA_A):
                dev = np.abs(final_cm(params, route).cm - pipeline_final(params, route).cm).max()
                assert dev < 1e-12

    @pytest.mark.pinned
    @pytest.mark.parametrize("eps", [0.1, 0.7, 3.0])
    def test_both_routes_reduce_to_the_same_pair(self, eps):
        # bit for bit, so the pair builder that reduced_pair_cm and the r_e root read is either route's pair;
        # tobytes so signed zeros count
        rs = np.concatenate((np.linspace(0.0, 1.5, 11), np.linspace(2.0, 18.0, 17)))
        for r in [rs, *rs.tolist()]:
            b = protocol._blocks(r, eps)
            pair = protocol._reduced_pair_matrix(b)
            for stage, modes in ((STAGE_FINAL_VIA_APRIME, [0, 2]), (STAGE_FINAL_VIA_A, [1, 2])):
                quads = _quadratures(modes)
                sliced = protocol._stage_matrix(b, stage)[..., quads[:, None], quads]
                assert (sliced.shape, sliced.tobytes()) == (pair.shape, pair.tobytes()), stage
            if np.ndim(r) == 0:
                params = ProtocolParams(r, eps)
                assert reduce_modes(final_cm(params, ROUTE_VIA_APRIME).cm, [0, 2]).tobytes() == pair.tobytes()
                assert reduce_modes(final_cm(params, ROUTE_VIA_A).cm, [1, 2]).tobytes() == pair.tobytes()

    @pytest.mark.parametrize("eps", SWEEP_EPSILONS)
    def test_sweep_profile_against_the_60_digit_reference(self, eps):
        rs = np.array([r for r, e in SWEEP_REFERENCE if e == eps])
        want_mu, want_mu_m, want_sigma = np.array([SWEEP_REFERENCE[r, eps] for r in rs.tolist()]).T
        profile = sweep_profile(rs, eps)
        assert np.array_equal(profile["r"], rs)
        assert (np.abs(profile["mu_pair"] - want_mu) <= SWEEP_MU_BOUND * want_mu).all()
        assert (np.abs(profile["mu_m"] - want_mu_m) <= SWEEP_MU_BOUND * want_mu_m).all()
        # r = 0 and r == epsilon are exact zeros, and print as 0, not -0
        sigma_bound = SWEEP_SIGMA_ULPS * np.finfo(float).eps * (1.0 + np.abs(rs - eps)) * np.abs(want_sigma)
        assert (np.abs(profile["sigma_shared_A"] - want_sigma) <= sigma_bound).all()
        assert not np.signbit(profile["sigma_shared_A"]).any(where=want_sigma == 0.0)
        assert np.array_equal(profile["mu_m"], [mu_m(ProtocolParams(r, eps)) for r in rs.tolist()])
        assert profile["class_final"].tolist() == [_CLASS_BY_COUNT[3 * (r > eps)] for r in rs.tolist()]

    @pytest.mark.parametrize("eps", [0.0, 0.001, 0.7, 3.0])
    def test_sweep_profile_matches_the_one_state_kernels(self, eps):
        # where the kernels resolve the values, r <= 6 and epsilon <= 3; their own error grows like exp(2r) ulp
        rs = np.concatenate((np.linspace(0.0, 1.5, 11), [eps, 4.0, 6.0]))
        profile = sweep_profile(rs, eps)
        for k, r in enumerate(rs.tolist()):
            params = ProtocolParams(r, eps)
            mu = two_mode_metrics(reduced_pair_cm(params)).mu
            assert abs(profile["mu_pair"][k] - mu) <= KERNEL_MU_BOUND * mu, r
            shared = shared_cm(params)[0].cm
            scale = 1.0 + sum(abs(x[0]) for x in _pt_invariants(shared, [0]))
            assert abs(profile["sigma_shared_A"][k] - splitting_sigma(shared, 0).sigma) <= KERNEL_SIGMA_BOUND * scale
            report = classify_three_mode(final_cm(params, ROUTE_VIA_APRIME).cm)
            assert profile["class_final"][k] == report.class_label or any(v.boundary for v in report.verdicts)

    @pytest.mark.pinned
    def test_sweep_rows_are_bitwise_one_row_calls(self):
        # so a sweep prints each row's bytes whatever grid holds it; mu_m is bitwise the one-state function
        rs = np.linspace(0.0, 0.6, 601)
        profile = sweep_profile(rs, 0.1)
        for k, r in enumerate(rs.tolist()):
            row = sweep_profile([r], 0.1)
            assert all(profile[name][k:k + 1].tobytes() == row[name].tobytes() for name in profile), r
        assert np.array_equal(profile["mu_m"], [mu_m(ProtocolParams(r, 0.1)) for r in rs.tolist()])

    @pytest.mark.pinned
    def test_mu_m_is_bitwise_the_sweep_column_where_pow_rounded_apart(self):
        # here a float64 scalar's ** rounds (exp(-2r) - 1)^2 one ulp away from an array's product
        r, eps = 1.4135713244209003, 0.9045877914410432
        assert sweep_profile([r], eps)["mu_m"][0] == mu_m(ProtocolParams(r, eps)) == 0.9198272463370877

    @pytest.mark.parametrize("r,eps", [([0.1, float("nan")], 0.1), ([0.1, -0.2], 0.1), ([0.1], float("inf"))])
    def test_sweep_profile_rejects_bad_input(self, r, eps):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            sweep_profile(r, eps)

    def test_bad_route(self):
        with pytest.raises(ValueError, match="route must be"):
            final_cm(ProtocolParams(0.1, 0.1), "via-B")

    @pytest.mark.pinned
    @pytest.mark.parametrize("eps", [0.1, 0.7, 3.0])
    def test_array_builders_are_bitwise_the_scalar_wrappers(self, eps):
        rs = np.concatenate((np.linspace(0.0, 1.5, 11), np.linspace(2.0, 18.0, 17)))
        blocks = protocol._blocks(rs, eps)
        shared = protocol._stage_matrix(blocks, STAGE_SHARED)
        finals = {route: protocol._stage_matrix(blocks, "final-" + route) for route in (ROUTE_VIA_APRIME, ROUTE_VIA_A)}
        pair = protocol._reduced_pair_matrix(blocks)
        mus = protocol._mu_m(rs, eps)
        assert shared.shape == (28, 6, 6) and pair.shape == (28, 4, 4)
        assert np.any(rs < threshold_r_l(eps)) and np.any(rs > threshold_r_l(eps))
        for k, r in enumerate(rs.tolist()):
            params = ProtocolParams(r, eps)
            assert np.array_equal(shared[k], shared_cm(params)[0].cm)
            for route, stack in finals.items():
                assert np.array_equal(stack[k], final_cm(params, route).cm)
            assert np.array_equal(pair[k], reduced_pair_cm(params))
            assert mus[k] == mu_m(params)

    @pytest.mark.pinned
    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.7, 3.0, 20.0, 300.0])
    @np.errstate(all="ignore")
    def test_stage_builders_are_bitwise_np_block(self, eps):
        # the np.block expressions the concatenating builders replaced; tobytes so signed zeros count, and the
        # overflowed rows (r = 400) so inf entries do; the via-A reference is its own layout, not the mirror
        rs = np.concatenate((np.linspace(0.0, 1.5, 11), np.linspace(2.0, 18.0, 17), [25.0, 400.0]))
        for r in [rs, *rs.tolist()]:
            b = protocol._blocks(r, eps)
            al, be, ta, de, s = b.alpha, b.beta, b.tau, b.delta, np.sqrt(2.0)
            reference = {
                STAGE_SHARED: np.block([[al, de, ta], [de, al, ta], [ta, ta, be]]),
                STAGE_FINAL_VIA_APRIME: np.block([
                    [al, (ta - de) / s, (ta + de) / s],
                    [(ta - de) / s, (al + be - 2.0 * ta) / 2.0, (be - al) / 2.0],
                    [(ta + de) / s, (be - al) / 2.0, (al + be + 2.0 * ta) / 2.0],
                ]),
                STAGE_FINAL_VIA_A: np.block([
                    [(al + be - 2.0 * ta) / 2.0, (de - ta) / s, (al - be) / 2.0],
                    [(de - ta) / s, al, (de + ta) / s],
                    [(al - be) / 2.0, (de + ta) / s, (al + be + 2.0 * ta) / 2.0],
                ]),
            }
            built = {stage: protocol._stage_matrix(b, stage) for stage in reference}
            reference["pair"] = np.block([[al, (de + ta) / s], [(de + ta) / s, (al + be + 2.0 * ta) / 2.0]])
            built["pair"] = protocol._reduced_pair_matrix(b)
            for key, expected in reference.items():
                assert (built[key].shape, built[key].tobytes()) == (expected.shape, expected.tobytes()), key

    @pytest.mark.pinned
    def test_shared_stage_is_bitwise_its_a_aprime_swap(self):
        # the homodyne root hands these stacks to the kernel with no bisymmetry check; their exchange
        # symmetry is structural: A and A' hold the same blocks, so the swap is exact, not within a tolerance
        swap = _quadratures([1, 0, 2])
        rs = np.concatenate((np.linspace(0.0, 5.0, 51), np.linspace(6.0, 18.0, 13)))
        for eps in (0.0, 1e-6, 0.1, 0.7, 3.0, 4.99, 30.0, 300.0):
            for r in [rs, *rs[::7].tolist()]:
                shared = protocol._stage_matrix(protocol._blocks(r, eps), STAGE_SHARED)
                assert np.array_equal(shared[..., swap[:, None], swap], shared)


#: (r_e, r_m) by epsilon: their closed forms at 80 digits, rounded to float64 (``tests/derive_closed_forms.py``).
THRESHOLD_REFERENCE = {
    1e-15: (1.0606601717798214e-15, 2.23606802749979e-08),
    1e-12: (1.0606601717797683e-12, 7.071072811866653e-07),
    1e-8: (1.0606601712501608e-08, 7.071567823650589e-05),
    1e-4: (0.0001060654875423661, 0.007121185663584908),
    1e-3: (0.0010606072305761752, 0.022864406741232843),
    0.1: (0.10556094378469452, 0.27735154257026773),
    1: (1.027637224042202, 1.3287272270765387),
    3: (3.0321263264454648, 3.346263457850675),
    30: (30.032210670111592, 30.346573590279974),
    300: (300.03221067011157, 300.34657359027995),
}


#: r_m - r_e by epsilon: the difference of their log terms at 80 digits, rounded to float64
#: (``tests/derive_closed_forms.py``).  From epsilon 30 it is the limit (1/2) ln(2 (8 sqrt 2 - 1) / 11) in float64.
GAP_REFERENCE = {
    0.1: 0.17179059878557318,
    3: 0.31413713140521027,
    30: 0.3143629201683815,
    1e3: 0.3143629201683815,
    1e6: 0.3143629201683815,
    1e12: 0.3143629201683815,
    1e16: 0.3143629201683815,
    1e300: 0.3143629201683815,
}


#: r_l by epsilon: the root of its cubic at 80 digits, rounded to float64 (``tests/derive_closed_forms.py``).
R_L_REFERENCE = {
    1e-15: 9.999999999999961e-16,
    1e-12: 9.99999999996e-13,
    1e-8: 9.99999960000004e-09,
    1e-4: 9.996003995113353e-05,
    1e-3: 0.0009960395172660108,
    0.01: 0.009635691136428192,
    0.03: 0.02719719301179882,
    0.1: 0.07875771606668633,
    1: 0.5364670395789302,
    3: 1.5060663219548602,
    30: 15.000000000000012,
    300: 150.0,
    354: 177.0,
    360: 180.0,
    700: 350.0,
}


class TestThresholds:
    def test_reference_values_at_tenth_noise(self):
        assert threshold_r_l(0.1) == pytest.approx(0.079, abs=1e-3)
        assert threshold_r_e(0.1) == pytest.approx(0.106, abs=1e-3)
        assert threshold_r_m(0.1) == pytest.approx(0.277, abs=1e-3)

    def test_zero_noise_thresholds_vanish(self):
        # the closed form for r_e collapses to (1/2) ln 1 at eps = 0:
        # (8 sqrt(2) - 2)^2 + 4 (8 sqrt(2) - 1) = 128 exactly
        assert abs(threshold_r_e(0.0)) < 1e-12
        assert threshold_r_m(0.0) == 0.0
        assert abs(threshold_r_l(0.0)) < 1e-12

    def test_no_overflow_at_large_noise(self):
        for eps in (10.0, 50.0, 150.0):
            report = threshold_report(eps)
            assert np.isfinite([report.r_l, report.r_e, report.r_m, report.gap]).all()

    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.5, 1.0])
    def test_pair_mu_is_one_at_r_e(self, eps):
        mu = two_mode_metrics(reduced_pair_cm(ProtocolParams(threshold_r_e(eps), eps))).mu
        assert mu == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.5, 1.0])
    def test_mu_m_is_one_at_r_m(self, eps):
        assert mu_m(ProtocolParams(threshold_r_m(eps), eps)) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.5, 1.0])
    def test_closed_forms_agree_with_bisection(self, eps):
        assert numeric_threshold_r_e(eps) == pytest.approx(threshold_r_e(eps), abs=1e-8)
        assert numeric_threshold_r_m(eps) == pytest.approx(threshold_r_m(eps), abs=1e-8)

    @pytest.mark.parametrize("eps", sorted(THRESHOLD_REFERENCE))
    def test_full_precision_against_the_reference(self, eps):
        # within 2 ulp: at small noise, 1 - exp(-2 eps) and a log of a number near 1 would cancel the leading digits
        want_e, want_m = THRESHOLD_REFERENCE[eps]
        assert abs(threshold_r_e(eps) - want_e) <= 4e-16 * want_e
        assert abs(threshold_r_m(eps) - want_m) <= 4e-16 * want_m

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            threshold_r_e(-0.1)

    @pytest.mark.parametrize("eps", sorted(R_L_REFERENCE))
    def test_r_l_full_precision_against_the_reference(self, eps):
        # past epsilon ~ 354, where exp(2 epsilon) overflows, too; no floating-point warning is raised
        with np.errstate(all="raise", under="ignore"):
            assert abs(threshold_r_l(eps) - R_L_REFERENCE[eps]) <= 4e-16 * R_L_REFERENCE[eps]
            assert np.array_equal(gap_profile([eps, 0.1])["r_l"], [threshold_r_l(eps), threshold_r_l(0.1)])

    def test_r_l_is_exact_at_zero_and_subnormal_noise(self):
        assert threshold_r_l(0.0) == 0.0 and threshold_r_l(5e-324) == 5e-324 and threshold_r_l(1e-300) == 1e-300

    @pytest.mark.parametrize("fn", [threshold_r_e, threshold_r_m, threshold_r_l, gap_profile])
    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), -0.1])
    def test_bad_noise_rejected(self, fn, eps):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            fn(eps if fn is not gap_profile else [0.1, eps])
        with pytest.raises(ValueError, match="finite and nonnegative"):
            fn(np.array([0.1, eps, 0.2]))

    @pytest.mark.pinned
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(eps=st.lists(st.floats(0.0, 350.0), min_size=1, max_size=40))
    def test_array_calls_are_bitwise_the_float_calls(self, eps):
        grid = np.array(eps)
        for fn in (threshold_r_e, threshold_r_m, threshold_r_l):
            assert np.array_equal(fn(grid), [fn(e) for e in eps])


#: Seeded noise values for the pinned numeric roots, both ends included.
PINNED_EPSILONS = np.concatenate(([0.0, 4.0], np.random.default_rng(2016).uniform(0.0, 4.0, 10)))


class TestNumericRoots:
    @pytest.mark.pinned
    def test_pinned_roots(self):
        # sha256 of the float64 roots, taken when each grid point was its own
        # scalar call; the whole-grid scan must find the same bits
        h = hashlib.sha256()
        for eps in PINNED_EPSILONS.tolist():
            h.update(np.float64(numeric_threshold_r_e(eps)).tobytes())
            h.update(np.float64(numeric_threshold_r_m(eps)).tobytes())
        assert h.hexdigest() == "318dad8661a2700f60251e1bc74aa7a872a70528e7ac7844d8fb7d69ec7fede9"

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(eps=st.just(0.0) | st.floats(1e-4, 4.0))
    def test_roots_match_closed_forms(self, eps):
        assert abs(numeric_threshold_r_e(eps) - threshold_r_e(eps)) <= 1e-8
        assert abs(numeric_threshold_r_m(eps) - threshold_r_m(eps)) <= 1e-8

    @pytest.mark.parametrize("root,closed,eps", [
        (numeric_threshold_r_e, threshold_r_e, 1e-6),
        (numeric_threshold_r_m, threshold_r_m, 3.171415415268996e-05),
    ])
    def test_roots_at_tiny_noise(self, root, closed, eps):
        assert abs(root(eps) - closed(eps)) <= 1e-8

    def test_roots_on_a_tiny_noise_log_grid(self):
        # grid points between the last one above the noise floor and the
        # crossing may sit in (0, floor]; the bracket must still find the root
        for eps in np.logspace(-6.0, -4.0, 41).tolist():
            assert abs(numeric_threshold_r_e(eps) - threshold_r_e(eps)) <= 1e-8
            assert abs(numeric_threshold_r_m(eps) - threshold_r_m(eps)) <= 1e-8

    @pytest.mark.parametrize("root", [numeric_threshold_r_e, numeric_threshold_r_m])
    def test_bad_noise_rejected(self, root):
        for eps in (float("nan"), -0.1, float("inf")):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                root(eps)

    @pytest.mark.parametrize("root", [numeric_threshold_r_e, numeric_threshold_r_m])
    def test_no_crossing_below_r_max(self, root):
        with pytest.raises(NumericalFailureError):
            root(5.0)

    @pytest.mark.parametrize("name,root,eps", [("_pair_mu", numeric_threshold_r_e, 4.99),
                                               ("_homodyne_mu", numeric_threshold_r_m, 4.7)], ids=["r_e", "r_m"])
    def test_no_crossing_after_the_scan(self, name, root, eps, monkeypatch):
        # epsilon is below the grid's end, so the grid is scanned, but r_e(4.99) = 5.022 and r_m(4.7) = 5.047
        # lie past it: mu - 1 never returns to <= 0 after its last value above the noise floor
        assert min(threshold_r_e(4.99), threshold_r_m(4.7)) > protocol._ROOT_R_MAX > eps
        calls, mu = [], getattr(protocol, name)
        monkeypatch.setattr(protocol, name, lambda r, epsilon: calls.append(epsilon) or mu(r, epsilon))
        with pytest.raises(NumericalFailureError, match=r"^no threshold crossing found on \[0, 5\.0\]$"):
            root(eps)
        assert calls == [eps]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("eps", [5.0, 21.4, 23.75, 50.0, 300.0, 400.0, 700.0])
    def test_no_crossing_from_r_max_on(self, eps, monkeypatch):
        # both thresholds are epsilon plus a nonnegative log1p, so no crossing lies on [0, 5]; scanning mu
        # there found spurious roots near 21.4 and 23.75, read 0.0 from 300 and warned from about 355
        def mu(r, epsilon):
            raise AssertionError("mu is not called")

        monkeypatch.setattr(protocol, "_pair_mu", mu)
        monkeypatch.setattr(protocol, "_homodyne_mu", mu)
        for root in (numeric_threshold_r_e, numeric_threshold_r_m):
            with pytest.raises(NumericalFailureError, match=r"^no threshold crossing found on \[0, 5\.0\]$"):
                root(eps)


def _one_midpoint_bisect(mu, epsilon, lo, hi):
    """Reference: one-midpoint bisection of ``[lo, hi]``, one one-element call of ``mu`` per step."""
    def f(r):
        return float(mu(np.array([r]), epsilon)[0]) - 1.0

    flo = f(lo)
    while hi - lo > protocol._ROOT_XTOL:
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if np.sign(fmid) == np.sign(flo):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@functools.cache
def _reference_roots(mu):
    """Hex roots of ``TestBisectionPath.EPSILONS``: the bracket of a scan on the threshold grid,
    then :func:`_one_midpoint_bisect`."""
    grid = np.concatenate(([0.0], np.logspace(-9.0, np.log10(5.0), 120)))
    roots = []
    for eps in TestBisectionPath.EPSILONS:
        vals = mu(grid, eps) - 1.0
        above = np.flatnonzero(vals > protocol._NOISE_FLOOR)
        if not above.size:
            roots.append(0.0.hex())
            continue
        k = above[-1] + np.flatnonzero(vals[above[-1]:] <= 0.0)[0]
        roots.append(float(_one_midpoint_bisect(mu, eps, grid[k - 1], grid[k])).hex())
    return roots


@pytest.mark.pinned
class TestBisectionPath:
    """The path walker must return the bits of one-midpoint bisection, whatever its hint."""

    EPSILONS = [0.0, *np.logspace(-6.0, -4.0, 41).tolist(), *np.random.default_rng(8).uniform(0.0, 4.0, 40).tolist()]
    #: The closed-form hint and wrong ones, as functions of the closed form.
    HINTS = {
        "closed-form": lambda x: x,
        "rel-1e-9": lambda x: x * (1.0 - 1e-9),
        "rel+1e-7": lambda x: x * (1.0 + 1e-7),
        "rel+1e-3": lambda x: x * (1.0 + 1e-3),
        "plus-0.3": lambda x: x + 0.3,
        "zero": lambda x: 0.0,
        "nan": lambda x: float("nan"),
        "beyond-grid": lambda x: 7.0,
    }

    @pytest.mark.parametrize("mu,closed", [(protocol._pair_mu, threshold_r_e), (protocol._homodyne_mu, threshold_r_m)],
                             ids=["r_e", "r_m"])
    @pytest.mark.parametrize("hint", list(HINTS))
    def test_roots_bitwise_equal_to_one_midpoint_bisection(self, mu, closed, hint):
        walked = [protocol._threshold_root(mu, eps, self.HINTS[hint](closed(eps))) for eps in self.EPSILONS]
        assert [float(x).hex() for x in walked] == _reference_roots(mu)

    @pytest.mark.parametrize("name,root", [("_pair_mu", numeric_threshold_r_e), ("_homodyne_mu", numeric_threshold_r_m)],
                             ids=["r_e", "r_m"])
    def test_one_mu_call_per_pinned_root(self, name, root, monkeypatch):
        calls, mu = [], getattr(protocol, name)
        monkeypatch.setattr(protocol, name, lambda r, epsilon: calls.append(epsilon) or mu(r, epsilon))
        for eps in PINNED_EPSILONS.tolist():
            root(eps)
        assert calls == PINNED_EPSILONS.tolist()

    def test_exact_zero_midpoint_is_returned(self):
        # c is the third midpoint of the grid bracket around r = 1: m1, then m2, then c
        grid = protocol._ROOT_GRID
        k = np.searchsorted(grid, 1.0)
        lo, hi = grid[k - 1], grid[k]
        m1 = 0.5 * (lo + hi)
        m2 = 0.5 * (lo + m1)
        c = 0.5 * (m2 + m1)
        calls = []

        def mu(r, epsilon):
            calls.append(r.size)
            return 1.0 + (c - r)  # exactly 1.0 at r = c

        assert protocol._threshold_root(mu, 0.0, c) == c
        assert len(calls) == 1
        assert protocol._threshold_root(mu, 0.0, float("nan")) == c == _one_midpoint_bisect(mu, 0.0, lo, hi)

    def test_bracket_already_narrow(self, monkeypatch):
        lo, hi = 0.25, 0.25 + 0.5 * protocol._ROOT_XTOL
        monkeypatch.setattr(protocol, "_ROOT_GRID", np.array([0.0, lo, hi, 1.0]))
        calls = []

        def mu(r, epsilon):
            calls.append(r.size)
            return np.where(r <= lo, 1.5, 0.5)

        # a hint inside the bracket predicts no midpoint, so the one call is the grid's
        assert protocol._threshold_root(mu, 0.0, lo + 0.25 * protocol._ROOT_XTOL) == 0.5 * (lo + hi)
        assert calls == [4]
        # a hint elsewhere evaluates a path the walk never reads, and needs no second call
        assert protocol._threshold_root(mu, 0.0, 0.6) == 0.5 * (lo + hi)
        assert len(calls) == 2

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(eps=st.floats(0.0, 4.0), r=st.lists(st.floats(0.0, 5.0), min_size=160, max_size=160))
    def test_array_calls_are_bitwise_per_element(self, eps, r):
        # one call evaluates the grid and the predicted path; each value must be the one-element value
        for mu in (protocol._pair_mu, protocol._homodyne_mu):
            single = np.array([mu(np.array([x]), eps)[0] for x in r])
            for n in (15, 63, 160):
                assert mu(np.array(r[:n]), eps).tobytes() == single[:n].tobytes()


class TestMuM:
    def test_first_branch_below_r_l(self):
        eps = 0.5
        r = 0.5 * threshold_r_l(eps)
        assert mu_m(ProtocolParams(r, eps)) == pytest.approx(np.exp(r), abs=1e-15)

    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.5, 1.0])
    def test_branch_continuity_at_r_l(self, eps):
        r_l = threshold_r_l(eps)
        em = np.exp(-2 * r_l)
        second = np.sqrt(1 + em * (np.exp(2 * eps) - 1) - (em - 1) ** 2 / (2 - em))
        assert abs(np.exp(r_l) - second) < 1e-6

    @pytest.mark.pinned
    @pytest.mark.parametrize("eps", [1e-12, 0.1, 3.0])
    def test_is_the_lower_pt_eigenvalue_of_the_conditioned_pair(self, eps):
        # x-homodyne on B leaves the (A, A') pair; its two PT eigenvalues are the branches exp(r) and homodyne
        r_l = threshold_r_l(eps)
        rs = [*(r_l * np.array([0.1, 0.5, 0.9, 1.1, 1.5, 2.0])).tolist(), 0.5, 1.0, 2.0]
        for r in rs:
            cm = shared_cm(ProtocolParams(r, eps))[0].cm
            conditioned = cm[:4, :4] - np.outer(cm[:4, 4], cm[:4, 4]) / cm[4, 4]
            want = pt_mu_oracle(conditioned)
            assert abs(protocol._mu_m(r, eps) - want) <= 1e-13 * want, r

    @pytest.mark.pinned
    def test_overflowed_noise_gives_the_exp_r_branch(self):
        # exp(2 epsilon) overflows, so the homodyne branch is inf and the lower one is exp(r)
        with np.errstate(over="ignore"):
            assert mu_m(ProtocolParams(1.0, 400.0)) == np.exp(1.0)

    @pytest.mark.pinned
    def test_outer_grid_is_bitwise_the_scalar_calls(self):
        rs, eps = np.linspace(0.0, 1.5, 31), np.linspace(0.0, 3.0, 17)
        grid = protocol._mu_m(rs[:, None], eps[None, :])
        assert grid.shape == (31, 17)
        for i, r in enumerate(rs.tolist()):
            for j, e in enumerate(eps.tolist()):
                assert grid[i, j] == mu_m(ProtocolParams(r, e))

    def test_agrees_with_numeric_conditioning(self):
        for eps in (0.05, 0.1, 0.5):
            for r in np.arange(0.1, 1.01, 0.1):
                state, _ = shared_cm(ProtocolParams(r, eps))
                diff = abs(localizable_mu(state.cm, 2) - mu_m(ProtocolParams(r, eps)))
                assert diff < 1e-9


class TestGapProfile:
    def test_gap_positive_and_monotone(self):
        gaps = gap_profile(np.linspace(0.001, 3.0, 60))["gap"].tolist()
        assert all(g > 0 for g in gaps)
        assert all(b >= a for a, b in zip(gaps, gaps[1:]))

    def test_report_is_the_profile_entry(self):
        grid = np.linspace(0.0, 5.0, 23)
        profile = gap_profile(grid)
        for k, eps in enumerate(grid.tolist()):
            assert threshold_report(eps).to_json_dict() == {name: col[k] for name, col in profile.items()}

    @pytest.mark.parametrize("eps", sorted(GAP_REFERENCE))
    def test_gap_against_the_reference(self, eps):
        # from the two log1p terms: r_m - r_e, two numbers near epsilon, read 0.375 at 1e15 and 0 from 1e16;
        # measured within 1.8e-16 relative
        with np.errstate(all="raise", under="ignore"):
            assert abs(threshold_report(eps).gap - GAP_REFERENCE[eps]) <= 4e-16 * GAP_REFERENCE[eps]

    def test_gap_at_zero_noise_vanishes(self):
        assert threshold_report(0.0).gap == pytest.approx(0.0, abs=1e-12)

    def test_large_noise_asymptote(self):
        limit = 0.5 * np.log(2 * (8 * np.sqrt(2) - 1) / 11)
        assert threshold_report(10.0).gap == pytest.approx(limit, abs=1e-3)

    def test_threshold_ordering_on_grid(self):
        for eps in np.linspace(0, 2, 51)[1:]:
            rep = threshold_report(eps)
            assert rep.r_l < rep.r_e < rep.r_m

    def test_report_json_keys(self):
        payload = threshold_report(0.1).to_json_dict()
        assert list(payload) == ["epsilon", "r_l", "r_e", "r_m", "gap"]


class TestStageLadder:
    def test_ladder_at_reference_point(self):
        params = ProtocolParams(0.3, 0.1)
        initial = stage_state(params, STAGE_INITIAL)
        assert initial.report.class_label == "ppt-all-splittings"
        assert all(m.mu >= 1 - 1e-9 for _, m in initial.report.pairwise)

        shared = stage_state(params, STAGE_SHARED)
        assert shared.report.class_label == "one-mode-biseparable"
        assert shared.report.separable_splitting == "B|(AA')"
        assert all(m.mu >= 1 - 1e-9 for _, m in shared.report.pairwise)

        for stage in (STAGE_FINAL_VIA_APRIME, STAGE_FINAL_VIA_A):
            assert stage_state(params, stage).report.class_label == "fully-inseparable"

    def test_ladder_for_random_parameters_above_threshold(self):
        rng = np.random.default_rng(51)
        for _ in range(10):
            eps = rng.uniform(0.02, 0.8)
            r = threshold_r_e(eps) + rng.uniform(0.02, 1.0)
            params = ProtocolParams(r, eps)
            assert stage_state(params, STAGE_INITIAL).report.class_label == "ppt-all-splittings"
            assert stage_state(params, STAGE_SHARED).report.class_label == "one-mode-biseparable"
            assert stage_state(params, STAGE_FINAL_VIA_APRIME).report.class_label == "fully-inseparable"

    @pytest.mark.parametrize("r", [4.0, 8.0, 12.0, 16.0])
    @pytest.mark.parametrize("eps", [0.01, 0.1, 1.0, 3.0])
    def test_ladder_at_large_squeezing(self, r, eps):
        # the analytic boundaries (every initial splitting, B|(AA') of the shared
        # stage) cancel to |sigma| of 1e-12 up to 0.3 here; the scaled band holds them
        labels = [stage_state(ProtocolParams(r, eps), stage).report.class_label for stage in STAGES]
        assert labels == ["ppt-all-splittings", "one-mode-biseparable", "fully-inseparable", "fully-inseparable"]

    def test_shared_stage_at_high_noise_is_ppt(self):
        # sigma_B is 0 analytically and A|(A'B) is separable for r < epsilon
        r = np.linspace(0.0, 1.5, 6000)
        _, entangled, boundary = _splittings(protocol._stage_matrix(protocol._blocks(r, 3.0), STAGE_SHARED))
        labels = _CLASS_BY_COUNT[entangled.sum(-1)]
        assert (labels == "ppt-all-splittings").all()
        assert not entangled.any()
        assert boundary[:, 2].all() and not boundary[1:, :2].any()  # sigma_A is 0 at r = 0 only

    def test_unknown_stage(self):
        with pytest.raises(ValueError):
            stage_state(ProtocolParams(0.1, 0.1), "halfway")


def _built_cm(params, stage):
    """``stage``'s matrix from the public builders, the initial stage beside the vacuum ancilla A'."""
    if stage == STAGE_INITIAL:
        return embed_vacuum(initial_cm(params), 1).cm
    if stage == STAGE_SHARED:
        return shared_cm(params)[0].cm
    return final_cm(params, stage[len("final-"):]).cm


class TestNoGate:
    """``stage_state`` judges no matrix: it reports from the closed forms, also where the rounded stage matrix is no
    longer positive definite and ``validate_cm``, the gate of ``classify``, refuses it (its envelope is
    ``TestAnalyzeEnvelope`` in ``tests/test_cli.py``)."""

    #: step 0.001 across the r ~ 18.37 where the rounded stages stop being positive definite
    R = np.linspace(18.30, 18.45, 151).tolist()

    @pytest.mark.parametrize("eps", [0.0, 0.1, 3.0, 20.0, 300.0])
    def test_stage_state_reports_where_validate_cm_refuses(self, eps):
        refused = 0
        for stage in STAGES:
            for r in self.R:
                report = stage_state(ProtocolParams(r, eps), stage).report
                assert [v.entangled for v in report.verdicts] == stage_entangled(stage, r, eps).tolist()
                try:
                    with np.errstate(over="ignore", invalid="ignore"):
                        validate_cm(_built_cm(ProtocolParams(r, eps), stage))
                except UnphysicalError:
                    refused += 1
        assert refused > 0

    # the library's default errstate, and the CLI's, which would raise at exp(2r)
    @pytest.mark.parametrize("over", ["warn", "ignore", "raise"])
    @pytest.mark.parametrize("stage", STAGES)
    def test_an_infinite_stage_raises(self, stage, over):
        edge = math.log(np.finfo(float).max) / 2.0
        past = np.nextafter(edge, np.inf)
        with np.errstate(over=over):
            for r, eps in ((400.0, 0.1), (0.1, 400.0), (past, 0.0), (0.0, past)):
                with pytest.raises(DomainError, match=r"^r and epsilon must be at most ln\(DBL_MAX\) / 2 = "):
                    stage_state(ProtocolParams(r, eps), stage)
            for r, eps in ((edge, 0.0), (0.0, edge)):
                assert np.isfinite(stage_state(ProtocolParams(r, eps), stage).state.cm).all()


EDGE = math.log(np.finfo(float).max) / 2.0
#: r or epsilon: log-uniform from 1e-160, where the shared sigma underflows, to the edge, or uniform up to it
PARAMETER = (st.floats(-160.0, math.log10(EDGE)).map(lambda e: min(10.0 ** e, EDGE)) | st.floats(0.0, EDGE)
             | st.just(0.0))


class TestOneEvaluator:
    """``sweep`` and ``analyze`` print one set of closed forms: a sweep row is, bit for bit, the final stage via
    A''s A-B ``mu`` and class and the shared ``A|(A'B)`` ``sigma`` that ``stage_state`` reports."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(r=PARAMETER, eps=PARAMETER)
    @example(r=5e-151, eps=0.0)  # sigma underflows to 0 although r > epsilon: both read the printed 0
    def test_sweep_row_is_the_stage_report(self, r, eps):
        row = sweep_profile([r], eps)
        params = ProtocolParams(r, eps)
        final = stage_state(params, STAGE_FINAL_VIA_APRIME).report
        shared = stage_state(params, STAGE_SHARED).report
        got = (repr(row["mu_pair"][0].item()), repr(row["sigma_shared_A"][0].item()), row["class_final"][0])
        assert got == (repr(final.pairwise[1][1].mu), repr(shared.verdicts[0].sigma), final.class_label)

    def test_mu_is_finite_near_the_corner(self):
        # from r = 354.866 the final stages' delta_tilde leaves float64, and where r and epsilon are both that
        # large ppt_condition_value does too; the quarter-scaled forms keep t, and so mu, finite
        grid = np.linspace(354.0, EDGE, 55).tolist()
        overflowed = 0
        for stage in STAGES:
            for r in grid:
                for eps in grid:
                    report = protocol._stage_report(stage, r, eps)
                    assert all(math.isfinite(v.sigma) for v in report.verdicts)
                    for _, m in report.pairwise:
                        assert math.isfinite(m.mu) and math.isfinite(m.log_negativity), (stage, r, eps)
                        overflowed += not math.isfinite(m.ppt_condition_value)
        assert overflowed > 0


def pure_products(count):
    """Seeded pure ``(A, A')`` states times a pure ``B``: the A-A' pair is a random
    pure two-mode state in even draws and a product of pure modes in odd ones."""
    rng = np.random.default_rng(52)
    for k in range(count):
        cm = np.zeros((6, 6))
        if k % 2 == 0:
            cm[:4, :4] = random_pure_cm(2, rng)
        else:
            cm[:2, :2], cm[2:4, 2:4] = random_pure_cm(1, rng), random_pure_cm(1, rng)
        cm[4:, 4:] = random_pure_cm(1, rng)
        yield cm


def pt_entangled(cm):
    """PT test on mode 0 by the full symplectic spectrum, which sees pure states;
    the pair ``mu`` formula loses half its digits on pure product pairs."""
    return symplectic_eigenvalues(partial_transpose(cm, 0))[0] < 1 - 1e-9


class TestPureStateObstruction:
    def test_no_pure_state_mimics_the_shared_separability_pattern(self):
        # with B|(AA') separable, a pure state is entangled across A|(A'B) exactly
        # when its A-A' pair is, so the shared stage's pattern (pair separable,
        # A|(A'B) entangled) needs a mixed state
        pair_entangled = []
        for cm in pure_products(200):
            pair_entangled.append(pt_entangled(reduce_modes(cm, [0, 1])))
            assert pt_entangled(cm) == pair_entangled[-1]
        assert 0 < sum(pair_entangled) < len(pair_entangled)

    @pytest.mark.xfail(strict=True, reason="sigma is 0 on every pure state (ROADMAP item 8)")
    def test_splitting_sigma_sees_pure_state_entanglement(self):
        entangled = [cm for cm in pure_products(20) if pt_entangled(cm)]
        assert entangled
        assert all(splitting_sigma(cm, 0).entangled for cm in entangled)
