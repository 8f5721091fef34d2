"""Allocate collision-free targets and close the loop on a few junctions.

Shows the full planning chain: current frequencies -> spacing-constrained
targets -> required fractional shifts -> multi-shot recipes -> iterative
measure/anneal runs, each junction on its own child random stream.
"""

import argparse

import numpy as np

import jjtune as jt


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=6, help="junctions to tune")
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--spacing-mhz", type=float, default=60.0)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    resistances = 7781.0 * np.exp(0.01 * rng.standard_normal(args.n))
    freqs = [jt.qubit_frequency(float(r)) for r in resistances]
    targets = jt.allocate_targets(freqs, args.spacing_mhz * 1e6)

    print(f"{args.n} junctions, minimum spacing {args.spacing_mhz:.0f} MHz")
    print("id     f_now GHz  f_target GHz  shift     shots")
    plans = []
    for i, (f_now, f_target) in enumerate(zip(freqs, targets)):
        shift = jt.required_shift(f_now, f_target)
        shots = jt.recipe_for_shift(shift)
        plans.append((f"J{i:02d}", float(resistances[i]), f_target))
        print(
            f"J{i:02d}  {f_now / 1e9:10.6f}  {f_target / 1e9:12.6f}  "
            f"{shift:8.5f}  {len(shots)}"
        )

    print("\nclosed-loop runs:")
    for jid, r0, f_target in plans:
        trace = jt.iterative_tune(
            jt.JunctionState(resistance=r0),
            f_target,
            rng=jt.child_rng(args.seed, jid),
            junction_id=jid,
        )
        final_f = jt.qubit_frequency(trace.final_resistance)
        miss = (final_f - f_target) / 1e6
        print(
            f"  {jid}: {trace.outcome:9s} after {trace.n_anneals} anneals, "
            f"final {final_f / 1e9:.6f} GHz ({miss:+.2f} MHz from target)"
        )


if __name__ == "__main__":
    main()
