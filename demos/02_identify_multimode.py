"""Recover a two-mode affine input degradation from exact observations.

A linear system x' = A x + B u runs under a degradation that bends the
input inside two disjoint ball regions and leaves it alone elsewhere.
From a handful of state/velocity/input observations the identification
pipeline recovers both affine maps exactly and wraps each affected region
in inner/outer approximations.
"""

import numpy as np

from cdmkit.degradation import AffineMap, BallRegion, NModeCdm
from cdmkit.identification import (
    IdentificationConfig,
    QueryKind,
    build_reconstruction,
    query,
    viabilize,
)
from cdmkit.simulation import ControlSample, linear_system


def main():
    rng = np.random.default_rng(42)
    model = linear_system([[0.0, 1.0], [-1.0, -0.2]], [[1.0, 0.0], [0.0, 1.0]])

    squeeze = AffineMap(np.diag([0.5, 0.5]), np.array([0.2, 0.0]))
    swap = AffineMap(np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros(2))
    cdm = NModeCdm(
        modes=(
            (BallRegion([5.0, 0.0], 1.0), squeeze),
            (BallRegion([-5.0, 0.0], 1.0), swap),
        ),
        separation=5.0,
    )
    print("ground truth: inputs near (5, 0) are halved and shifted;")
    print("inputs near (-5, 0) have their channels swapped; all else passes.\n")

    def observe(u):
        x = rng.normal(size=2)
        v = model.drift(x) + model.input_map(x) @ cdm(u)
        return ControlSample(time=float(rng.uniform(0, 10)), state=x, velocity=v, input=u)

    samples = [observe(np.array([5.0, 0.0]) + rng.uniform(-0.6, 0.6, 2)) for _ in range(8)]
    samples += [observe(np.array([-5.0, 0.0]) + rng.uniform(-0.6, 0.6, 2)) for _ in range(8)]
    samples += [observe(rng.uniform(-1.0, 1.0, 2) + np.array([0.0, 8.0])) for _ in range(3)]

    config = IdentificationConfig(delta=4.0, n_modes=2, lipschitz=1.0)
    recon = build_reconstruction(samples, model, config)

    print(f"{len(recon.modes)} modes detected, "
          f"{len(recon.unaffected)} observations behaved as commanded")
    for i, mode in enumerate(recon.modes):
        print(f"\nmode {i} (max residual {mode.residual:.1e}):")
        print("  linear part:\n", np.round(mode.map.linear, 10))
        print("  translation:", np.round(mode.map.translation, 10))

    # points certified inside sit on segments from a mode center to a witness
    inside_0 = recon.modes[0].inner.center + 0.8 * (
        recon.modes[0].pairs[0, :recon.input_dim] - recon.modes[0].inner.center
    )
    inside_1 = recon.modes[1].inner.center + 0.8 * (
        recon.modes[1].pairs[0, :recon.input_dim] - recon.modes[1].inner.center
    )
    print("\npoint queries:")
    for u in (inside_0, inside_1, np.array([0.0, 16.0]), np.array([2.5, 0.0])):
        res = query(recon, u)
        u_str = np.round(u, 3)
        if res.kind == QueryKind.MAPPED:
            print(f"  {u_str} -> degraded to {np.round(res.value, 6)} (mode {res.mode_index})")
        elif res.kind == QueryKind.PASSTHROUGH:
            print(f"  {u_str} -> provably unaffected")
        else:
            print(f"  {u_str} -> inconclusive (between the inner and outer bounds)")

    wanted = recon.modes[0].map(inside_0)
    u_v = viabilize(recon, wanted)
    print(f"\nto make the plant see {np.round(wanted, 4)}, command {np.round(u_v, 4)}")
    print(f"check: degradation maps it to {np.round(np.asarray(cdm(u_v)), 4)}")


if __name__ == "__main__":
    main()
