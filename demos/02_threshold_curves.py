"""Reproduce the two figure datasets: mu curves versus squeezing, and the
threshold curves versus noise.

Writes ``sweep_eps0.1.csv`` and ``gap_sweep.csv`` next to this script and,
when matplotlib is importable, renders ``threshold_curves.png``.
"""

from pathlib import Path

import numpy as np

from gaussent import gap_profile, sweep_profile, threshold_report

HERE = Path(__file__).resolve().parent
EPSILON = 0.1


def main():
    rep = threshold_report(EPSILON)
    print(f"thresholds at epsilon = {EPSILON}:")
    print(f"  r_l = {rep.r_l:.6f}  (branch point of the measurement curve)")
    print(f"  r_e = {rep.r_e:.6f}  (beam splitter entangles the pair)")
    print(f"  r_m = {rep.r_m:.6f}  (Gaussian measurement can localize entanglement)")
    print(f"  between r_e and r_m the unitary route wins and the measurement route fails\n")

    r_grid = np.linspace(0.0, 0.6, 601)
    profile = sweep_profile(r_grid, EPSILON)
    mu_pair, mu_meas = profile["mu_pair"], profile["mu_m"]
    rows = np.column_stack([r_grid, mu_pair, mu_meas])
    sweep_path = HERE / "sweep_eps0.1.csv"
    np.savetxt(sweep_path, rows, delimiter=",", header="r,mu_pair,mu_m", comments="")
    print(f"wrote {sweep_path}")

    eps_grid = np.linspace(0.001, 3.0, 120)
    gaps = gap_profile(eps_grid)
    gap_rows = np.column_stack(list(gaps.values()))
    gap_path = HERE / "gap_sweep.csv"
    np.savetxt(gap_path, gap_rows, delimiter=",", header=",".join(gaps), comments="")
    limit = 0.5 * np.log(2 * (8 * np.sqrt(2) - 1) / 11)
    print(f"wrote {gap_path}; final gap {gap_rows[-1, 4]:.6f} vs asymptote {limit:.6f}")

    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not available, skipping the plot")
        return

    fig, (left, right) = plt.subplots(1, 2, figsize=(10, 4))
    left.plot(r_grid, mu_pair, label="mu of the final A-B pair")
    left.plot(r_grid, mu_meas, "--", label="mu after optimal measurement")
    left.axhline(1.0, color="gray", lw=0.8)
    for value, name in ((rep.r_l, "r_l"), (rep.r_e, "r_e"), (rep.r_m, "r_m")):
        left.axvline(value, color="k", lw=0.6)
        left.text(value, 1.12, name, ha="center", fontsize=9)
    left.set_xlabel("squeezing r")
    left.set_ylabel("lower PT symplectic eigenvalue")
    left.legend(fontsize=8)

    right.plot(gap_rows[:, 0], gap_rows[:, 3], label="r_m")
    right.plot(gap_rows[:, 0], gap_rows[:, 2], "--", label="r_e")
    right.plot(gap_rows[:, 0], gap_rows[:, 4], ":", label="r_m - r_e")
    right.axhline(limit, color="gray", lw=0.8)
    right.set_xlabel("noise epsilon")
    right.legend(fontsize=8)

    fig.tight_layout()
    out = HERE / "threshold_curves.png"
    fig.savefig(out, dpi=150)
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
