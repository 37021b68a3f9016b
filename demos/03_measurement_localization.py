"""Measurement-based entanglement localization on the shared state.

Conditions the three-mode state on Gaussian measurements of mode B and
compares three routes to the minimal conditioned PT eigenvalue: the
closed form, the lower of the conditioned pair's two PT eigenvalues
``exp(r)`` and the homodyne branch, which cross at ``r_l``; homodyne
conditioning through the generic Schur machinery; and a brute-force scan
over measurement seeds.
"""

import numpy as np

from gaussent import (
    GaussianState,
    MeasurementSpec,
    ProtocolParams,
    condition_on_measurement,
    localizable_mu,
    measurement_scan_oracle,
    mu_m,
    shared_cm,
    threshold_r_l,
    two_mode_metrics,
)

EPSILON = 0.1


def main():
    r_l = threshold_r_l(EPSILON)
    print(f"epsilon = {EPSILON}, branch squeezing r_l = {r_l:.6f}\n")
    print(f"{'r':>5} {'closed form':>12} {'homodyne':>12} {'64x64 scan':>12}")
    for r in (0.05, 0.1, 0.2, 0.4, 0.8):
        params = ProtocolParams(r, EPSILON)
        state, _ = shared_cm(params)
        closed = mu_m(params)
        numeric = localizable_mu(state.cm, 2)
        scan = measurement_scan_oracle(state.cm, 2)
        branch = "e^r branch" if r < r_l else "conditional-variance branch"
        print(f"{r:5.2f} {closed:12.9f} {numeric:12.9f} {scan:12.9f}   {branch}")

    # the scan approaches homodyne-x at the strongly position-squeezed end
    # of the seed family diag(t, 1/t)
    state, _ = shared_cm(ProtocolParams(0.4, EPSILON))
    print("\nseed family diag(t, 1/t) on mode B at r = 0.4:")
    for t in (1e2, 1.0, 1e-2, 1e-4, 1e-6):
        spec = MeasurementSpec.general_gaussian(2, np.diag([t, 1.0 / t]))
        mu = two_mode_metrics(condition_on_measurement(GaussianState(state.cm), spec).cm).mu
        print(f"  t = {t:8.0e}: conditioned mu = {mu:.9f}")
    hx = condition_on_measurement(GaussianState(state.cm), MeasurementSpec.homodyne_x(2))
    print(f"  homodyne-x : conditioned mu = {two_mode_metrics(hx.cm).mu:.9f}")


if __name__ == "__main__":
    main()
