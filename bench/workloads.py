"""The benchmark's workloads: what each one asks the `ribbonsyz` CLI, and why.

Every workload is closed loop with one client: a fresh process per CLI
invocation, each invocation started only after the previous one finished.
The benchmark seed picks the CLI seed; benchmark seed 0 gives the CLI
input quoted in README.md for each workload.
"""

from __future__ import annotations

from dataclasses import dataclass

# Totals of the golden arithmetic-genus-9 table over F_101 (acceptance
# criterion 1), required of `betti-quartic` at benchmark seed 0.
GOLDEN_QUARTIC_TOTALS = [1, 21, 84, 154, 154, 84, 21, 1]

# The sweep's cost grows with the square of the rational-point pool, so
# every `strata-sweep` seed uses a curve with the pool of the default one.
STRATA_BASE_SEED = 2026
STRATA_POOL = 84
# Seed k searches CLI seeds from STRATA_BASE_SEED + k * STRATA_SEED_STRIDE.
STRATA_SEED_STRIDE = 1000
STRATA_SEED_SEARCH = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # CLI subcommand: "betti", "green" or "strata"
    why: str
    flags: tuple[str, ...]
    answers_per_call: int  # answers one CLI invocation gives

    def argv(self, cli_seed: int) -> list[str]:
        return [self.kind, *self.flags, "--seed", str(cli_seed), "--format", "json"]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="betti-quartic",
            kind="betti",
            why="few large sparse Koszul ranks in the blocked BLAS engine (p_a = 9); sets peak memory",
            flags=("--curve", "plane-quartic", "--random", "--p", "101", "--conormal", "-1"),
            answers_per_call=1,
        ),
        Workload(
            name="green-hyperelliptic",
            kind="green",
            why="only path through greenchk, the reduced-echelon calls and the commutativity check (p_a = 8)",
            flags=("--curve", "hyperelliptic", "--g", "2", "--conormal", "-5"),
            answers_per_call=1,
        ),
        Workload(
            name="strata-sweep",
            kind="strata",
            why="about 700 k rank calls on matrices of at most 4 x 6: per-call overhead and Python loops in strata",
            flags=("--curve", "elliptic-split", "--conormal", "-6", "--sweep", "100"),
            answers_per_call=100,
        ),
    )
}


def cli_seed(workload: Workload, seed: int) -> int:
    """The CLI seed for a benchmark seed (needs ribbonsyz importable for strata)."""
    if seed < 0:
        raise ValueError("the benchmark seed must be >= 0")
    if workload.name == "betti-quartic":
        return seed
    if workload.name == "green-hyperelliptic":
        return 1 + seed
    return strata_cli_seed(seed)


def strata_pool_size(cli_seed: int) -> int:
    """Rational points of the elliptic curve the CLI draws from this seed."""
    import numpy as np

    from ribbonsyz.curves import random_split_cubic, rational_points
    from ribbonsyz.fflinalg import PrimeField

    model = random_split_cubic(PrimeField(101), np.random.default_rng(cli_seed))
    return len(rational_points(model))


def strata_cli_seed(seed: int) -> int:
    """First CLI seed from STRATA_BASE_SEED + seed * stride whose pool is STRATA_POOL."""
    start = STRATA_BASE_SEED + seed * STRATA_SEED_STRIDE
    for candidate in range(start, start + STRATA_SEED_SEARCH):
        if strata_pool_size(candidate) == STRATA_POOL:
            return candidate
    raise RuntimeError(f"no curve with {STRATA_POOL} rational points from CLI seed {start}")
