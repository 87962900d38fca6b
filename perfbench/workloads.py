"""The benchmark's workloads: fixed lists of `leglab` command lines.

Every workload is a closed loop with one caller: ops run one at a time,
each as `legendrian_lab.cli.main([...])`, and the next op starts when the
previous one has returned.  The benchmark seed is appended to every op
as `--seed`; it drives the ambient contact perturbation of the torus
(`--epsilon > 0`) and the random points of the pointwise suite.

Each workload also carries at least one op of each kind (verify,
integrals, flow): the benchmark must print every end-to-end metric on
every workload, and a time with no op behind it would read 0.
"""

from __future__ import annotations

PERTURBED = ("--epsilon", "0.02")
FLOW = ("--epsilon", "0.02", "--tol", "1e-4")

# Each entry is (kind, args, repeat): the op runs `repeat` times in a row
# at that point of a pass.  An op may be listed several times; its samples
# are pooled.  Short ops are spread between the long ones rather than run
# in one burst, so that their samples cover the whole pass and meet the
# host's speed as the long ops do (see README.md, "Host speed").
V32 = ("verify", PERTURBED + ("--grid", "32"), 1)
I32 = ("integrals", PERTURBED + ("--grid", "32"), 3)
CERTIFY_SHORT = (
    ("verify", ("--grid", "32"), 1),
    ("verify", ("--surface", "clifford-s3", "--grid", "32"), 3),
    ("integrals", ("--grid", "64"), 2),
    ("flow", ("--grid", "64"), 2),
)
WORKLOADS = {
    # Dominated by the flow layer and by the derived_geometry rebuilds of
    # every step; grid_ops serves only per-step diagnostics.  Spectral
    # N=64 is the known stall of the spectral flow and stays in: on most
    # seeds it exits 1 with stalled=true and counts as a failed op.  The
    # N=32 verify/integrals pair certifies the flow's starting surface.
    "flow": [
        ("flow", FLOW + ("--grid", "32", "--scheme", "spectral"), 1), V32, I32,
        ("flow", FLOW + ("--grid", "32", "--scheme", "fd4"), 1), V32, I32,
        ("flow", FLOW + ("--grid", "64", "--scheme", "spectral"), 1), V32, I32,
    ],
    # Mid-size certification: each geometry is built once and read by
    # many operators, which loads grid_ops and extrinsic -- the opposite
    # use of derived_geometry from the flow.  The flow op on the exact
    # torus stops at step 0: it is the flow's stationarity certificate.
    "certify": [
        ("verify", PERTURBED + ("--grid", "64", "--scheme", "spectral"), 1), *CERTIFY_SHORT,
        ("verify", PERTURBED + ("--grid", "64", "--scheme", "fd4"), 1), *CERTIFY_SHORT,
        ("integrals", PERTURBED + ("--grid", "64"), 2), *CERTIFY_SHORT,
    ],
}

KINDS = ("verify", "integrals", "flow")


def op_argv(kind, args, seed, out):
    return [kind, *args, "--seed", str(seed), "--out", out]


def op_label(kind, args):
    return " ".join((kind, *args))


def grid_sizes(workload):
    """Every grid resolution N the workload builds.

    verify on the Legendrian torus family also builds 2N for its
    convergence orders; clifford-s3 is not Legendrian and stops at N.
    """
    sizes = set()
    for kind, args, _ in WORKLOADS[workload]:
        n = int(args[args.index("--grid") + 1])
        sizes.add(n)
        if kind == "verify" and "--surface" not in args:
            sizes.add(2 * n)
    return sorted(sizes)
