#!/usr/bin/env python3
"""Misclassification-rate tables for the four built-in models.

Runs the projected-ensemble variants (LDA / QDA / knn bases at two
projected dimensions each) against the full-dimension comparators and
prints one table per model: mean error x100 with its standard error over
the repetitions, one column per training size.

Desk-scale defaults (20 repetitions, B1 = B2 = 50, test size 1000) finish
in a coffee break on one core. --full switches to the 100-repetition
B1 = B2 = 100 protocol the reference tables use; budget hours for it.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from rpens import datagen as dg
from rpens import ensemble as en
from rpens import evaluation as ev

DIMS = {"lda": (2, 5), "qda": (2, 5), "knn": (2, 5)}
COMPARATORS = ("lda", "qda", "knn")


def methods_for(b1, b2):
    out = []
    for base, dims in DIMS.items():
        for d in dims:
            out.append(
                ev.MethodSpec(
                    f"rp-{base}{d}", en.EnsembleConfig(B1=b1, B2=b2, d=d, base=base)
                )
            )
    out.extend(ev.MethodSpec(kind, ev.ComparatorSpec(kind)) for kind in COMPARATORS)
    return tuple(out)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--models", default="1,2,3,4")
    ap.add_argument("--sizes", default="50,200", help="training sizes, comma separated")
    ap.add_argument("--p", type=int, default=50)
    ap.add_argument("--reps", type=int, default=20)
    ap.add_argument("--B1", type=int, default=50)
    ap.add_argument("--B2", type=int, default=50)
    ap.add_argument("--n-test", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=20260816)
    ap.add_argument("--full", action="store_true", help="100 reps, B1=B2=100")
    args = ap.parse_args(argv)

    reps, b1, b2 = (100, 100, 100) if args.full else (args.reps, args.B1, args.B2)
    sizes = [int(s) for s in args.sizes.split(",")]
    methods = methods_for(b1, b2)

    for model_id in (int(m) for m in args.models.split(",")):
        print(f"\nmodel {model_id}  (p={args.p}, reps={reps}, B1={b1}, B2={b2})")
        header = f"{'method':>10}" + "".join(f"{'n=' + str(n):>16}" for n in sizes)
        print(header)
        rows = {m.method_id: [] for m in methods}
        for n in sizes:
            spec = ev.ExperimentSpec(
                source=dg.ModelSpec(model_id=model_id, p=args.p),
                n_train=n,
                n_test=args.n_test,
                repetitions=reps,
                methods=methods,
                master_seed=args.seed,
            )
            t0 = time.time()
            summary = ev.run(spec).summary()
            elapsed = time.time() - t0
            for mid, (mean, se, n_valid) in summary.items():
                cell = "N/A" if n_valid == 0 else f"{mean:.2f}_{{{se:.2f}}}"
                rows[mid].append(cell)
            print(f"  [n={n}: {elapsed:.0f}s]", file=sys.stderr)
        for mid, cells in rows.items():
            print(f"{mid:>10}" + "".join(f"{c:>16}" for c in cells))


if __name__ == "__main__":
    main()
