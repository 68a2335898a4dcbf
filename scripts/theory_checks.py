#!/usr/bin/env python3
"""Monte Carlo checks of the two theoretical guarantees.

First the ensemble-size rate: on a fixed training set the gap between the
B1-block ensemble's test error and an effectively-infinite ensemble's
should shrink like 1/B1, so the log-log fit of gap against B1 has slope
near -1. Second the excess-risk bound: the voting ensemble's excess risk
over the Bayes rule is at most 1/min(alpha, 1-alpha) times the mean
excess risk of a single block winner.

Both checks print their verdicts; run with --help for the knobs.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from rpens import datagen as dg
from rpens import ensemble as en
from rpens import evaluation as ev


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--model", type=int, default=1)
    ap.add_argument("--p", type=int, default=50)
    ap.add_argument("--n", type=int, default=100)
    ap.add_argument("--d", type=int, default=2)
    ap.add_argument("--base", default="lda")
    ap.add_argument("--alpha", type=float, default=0.4)
    ap.add_argument("--grid", default="8,16,32,64,128,256")
    ap.add_argument("--mc-test", type=int, default=4000)
    ap.add_argument("--mc-n", type=int, default=20000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    model = dg.ModelSpec(model_id=args.model, p=args.p)
    cfg = en.EnsembleConfig(B1=1, B2=5, d=args.d, base=args.base, alpha=args.alpha)

    grid = tuple(int(b) for b in args.grid.split(","))
    rate = ev.theorem1_rate_diagnostic(
        model, cfg, n_train=args.n, b1_grid=grid,
        mc_test=args.mc_test, master_seed=args.seed,
    )
    print(f"rate check on model {args.model}: grid {grid}")
    for b1, err, gap, se in zip(rate.b1_grid, rate.errors_by_b1, rate.gaps, rate.gap_ses):
        print(f"  B1={b1:>4}: error {err:.4f}  gap {gap:+.4f} (se {se:.4f})")
    print(f"  proxy error (B1={rate.b1_proxy}): {rate.proxy_error:.4f}")
    if rate.insufficient_signal:
        print(f"  insufficient signal: max gap {rate.max_gap:.5f}, 3 se = {3 * rate.max_gap_se:.5f}")
    else:
        print(f"  fitted log-log slope: {rate.slope:.3f}")

    for alpha in (0.3, 0.5):
        bound = ev.theorem2_bound_diagnostic(
            model, en.EnsembleConfig(B1=1, B2=5, d=args.d, base=args.base, alpha=alpha),
            n_train=args.n, mc_n=args.mc_n, master_seed=args.seed,
        )
        print(
            f"bound check, alpha={alpha}: lhs {bound.lhs:.5f} <= "
            f"rhs {bound.rhs:.5f} + 3*{bound.margin_se:.5f} -> holds={bound.holds}"
        )
        print(
            f"  (bayes {bound.bayes_risk:.5f}, ensemble {bound.ensemble_risk:.5f}, "
            f"mean winner {bound.mean_winner_risk:.5f})"
        )


if __name__ == "__main__":
    main()
