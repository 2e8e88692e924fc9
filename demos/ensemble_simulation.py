"""Compare simulated Gaussian-ensemble edges with the limit laws.

Draws a modest number of GOE and GSE matrices, rescales their top
eigenvalues, and measures the Kolmogorov-Smirnov distance to the
corresponding F_beta(s, m) tables.
"""

import numpy as np
from scipy import stats

from edgedist import dist, painleve, rmt


def main():
    print("solving for the limit laws ...")
    sol = painleve.solve(painleve.SolverConfig(x_left=-13.5))
    grid = np.linspace(-13.0, 9.5, 1801)
    f1 = [dist.cdf(dist.DistRequest(beta=1, m=m, s_grid=grid), sol)
          for m in (1, 2)]
    f4 = dist.cdf(dist.DistRequest(beta=4, m=1, s_grid=grid), sol)

    print("sampling 1000 GOE matrices of dimension 200 ...")
    cfg = rmt.EnsembleConfig(ensemble="goe", size=200, reps=1000,
                             seed=12, top_k=2)
    samples, failures = rmt.collect(cfg)
    assert not failures
    for m in (1, 2):
        tab = f1[m - 1]
        ks = stats.ks_1samp(samples[:, m - 1],
                            lambda x, t=tab: np.interp(x, t.s, t.F))
        st = rmt.summarize(samples[:, m - 1])
        ref = dist.moments(tab)
        print("  m=%d: KS %.4f   mean %+.3f (limit %+.3f)   "
              "sd %.3f (limit %.3f)"
              % (m, ks.statistic, st.mean, ref.mean, st.sd, ref.sd))
    # the stream is keyed by (seed, rep index): any rep can be redrawn
    # on its own, bit for bit
    alone = rmt.sample_spectrum(cfg, 500).scaled_top
    print("  rep 500 drawn alone matches row 500: %s"
          % (alone.tobytes() == samples[500].tobytes()))

    print("sampling 1000 GSE matrices of quaternion dimension 100 ...")
    cfg = rmt.EnsembleConfig(ensemble="gse", size=100, reps=1000, seed=13)
    samples, failures = rmt.collect(cfg)
    assert not failures
    ks = stats.ks_1samp(samples[:, 0],
                        lambda x: np.interp(x, f4.s, f4.F))
    print("  m=1: KS %.4f against F4(s, 1)" % ks.statistic)
    print("(KS of a few hundredths is expected at these sizes; the")
    print("finite-size drift grows with the rank m)")


if __name__ == "__main__":
    main()
