"""Seeded state files for the classify workloads, with closed-form verdicts.

Only the standard library is used, so a change to ``boolefock.sampling``
cannot change the benchmark's inputs.  The slot index fixes each state's
shape (branch, rank, support size) from low-discrepancy sequences, so any
prefix of a run sees the same mix of shapes whatever the seed; the seed
fixes the values (amplitudes, weights, sites, gamma).  Every state is
distinct, so a cross-call cache cannot post a gain that real inputs would
not see.

Closed-form theory for ``gamma * psi_T + (1 - gamma) * omega_inf``:
symmetric iff gamma = 0 or T = |e_#><e_#|; expected iff gamma = 0 or
T e_# is parallel to e_#; iid iff symmetric; the verdicts are always
consistent.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Tuple

#: Branches cycled by slot: expected with a vacuum eigenvalue, expected
#: with the vacuum in the kernel, and not expected.
BRANCHES = ("expected_vacuum", "expected_kernel", "nonexpected")

#: Shape ranges per classify workload.
WIDE_RANKS = (2, 3, 4)
WIDE_SUPPORT = (16, 36)
DEEP_RANK = (8, 20)
DEEP_EXTRA = (4, 8)

#: Sites are drawn at or above this label, disjoint from the checkers' base
#: pool 1..8, so every state probes exactly ``support + 9`` sites.
FIRST_SITE = 9

#: Tolerance of the closed-form expectedness test; the generator keeps every
#: state far from it.
THEORY_TOL = 1e-10

#: Verdicts each ``boolefock.sampling`` branch label implies.
SWEEP_BRANCH_VERDICTS = {
    "vacuum": (True, True, True),
    "symmetric_mixed": (True, True, True),
    "infinity": (True, True, True),
    "expected_nonsymmetric": (False, True, False),
    "nonexpected": (False, False, False),
}

Vector = Dict[str, complex]


def _frac(x: float) -> float:
    return x - math.floor(x)


def _spread(index: int, step: float, lo: int, hi: int) -> int:
    """The index-th point of a Weyl sequence, scaled onto ``lo..hi``."""
    return lo + int((hi - lo + 1) * _frac((index + 1) * step))


GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SILVER = math.sqrt(2.0) - 1.0


def shape(workload: str, index: int) -> Tuple[str, int, int]:
    """``(branch, rank, support size)`` of slot ``index``."""
    branch = BRANCHES[index % len(BRANCHES)]
    if workload == "classify-wide":
        rank = WIDE_RANKS[(index // len(BRANCHES)) % len(WIDE_RANKS)]
        support = _spread(index, GOLDEN, *WIDE_SUPPORT)
    elif workload == "classify-deep":
        rank = _spread(index, GOLDEN, *DEEP_RANK)
        support = rank + _spread(index, SILVER, *DEEP_EXTRA)
    else:
        raise ValueError(f"no generated inputs for workload {workload!r}")
    return branch, rank, support


def _inner(u: Vector, v: Vector) -> complex:
    return sum(a * v[k].conjugate() for k, a in u.items() if k in v)


def _site_frame(rng: random.Random, sites: List[int], count: int) -> List[Vector]:
    """``count`` orthonormal vectors, dense over ``sites``.

    Gram-Schmidt with a second orthogonalisation pass keeps the inner
    products at rounding level, far inside the loader's 1e-10 check.
    """
    frame: List[Vector] = []
    while len(frame) < count:
        w = {str(s): complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for s in sites}
        for _ in range(2):
            for u in frame:
                c = _inner(w, u)
                w = {k: a - c * u[k] for k, a in w.items()}
        norm = math.sqrt(_inner(w, w).real)
        if norm > 1e-3:
            frame.append({k: a / norm for k, a in w.items()})
    return frame


def _weights(rng: random.Random, count: int, total: float = 1.0) -> List[float]:
    raw = [rng.uniform(0.1, 1.0) for _ in range(count)]
    s = sum(raw)
    return [total * r / s for r in raw]


def theory(gamma: float, eigenpairs: List[Tuple[float, Vector]]) -> Dict[str, bool]:
    """Closed-form verdicts for a state given as weights and vectors."""
    vacuum_only = (
        len(eigenpairs) == 1
        and all(abs(a) == 0 for k, a in eigenpairs[0][1].items() if k != "#")
    )
    # site part of T e_# = sum_k w_k conj(<e_#, xi_k>) xi_k
    image: Dict[str, complex] = {}
    for w, xi in eigenpairs:
        c = w * xi.get("#", 0j).conjugate()
        for k, a in xi.items():
            if k != "#":
                image[k] = image.get(k, 0j) + c * a
    residual = math.sqrt(sum(abs(a) ** 2 for a in image.values()))
    symmetric = gamma == 0.0 or vacuum_only
    expected = gamma == 0.0 or residual <= THEORY_TOL
    return {"symmetric": symmetric, "expected": expected, "iid": symmetric, "consistent": True}


def branch_theory(branch: str) -> Dict[str, bool]:
    """Verdicts a ``boolefock.sampling`` branch label implies."""
    symmetric, expected, iid = SWEEP_BRANCH_VERDICTS[branch]
    return {"symmetric": symmetric, "expected": expected, "iid": iid, "consistent": True}


def make_state(workload: str, seed: int, index: int) -> Tuple[dict, dict]:
    """The state-file object of slot ``index`` and its expected verdicts.

    Returns ``(state_json, info)`` where ``info`` holds the branch, rank,
    support size, probed pool size and the closed-form verdicts.
    """
    branch, rank, support = shape(workload, index)
    rng = random.Random(f"{workload}:{seed}:{index}")
    sites = sorted(rng.sample(range(FIRST_SITE, FIRST_SITE + 3 * support), support))
    gamma = 1.0 if rng.random() < 0.5 else rng.uniform(0.1, 0.95)
    if branch == "expected_vacuum":
        w0 = rng.uniform(0.1, 0.8)
        vectors = [{"#": 1 + 0j}] + _site_frame(rng, sites, rank - 1)
        weights = [w0] + _weights(rng, rank - 1, 1.0 - w0)
    elif branch == "expected_kernel":
        vectors = _site_frame(rng, sites, rank)
        weights = _weights(rng, rank)
    else:
        vectors = _site_frame(rng, sites, rank)
        alpha = rng.uniform(0.3, 0.8)
        beta = math.sqrt(1.0 - alpha * alpha)
        vectors[0] = {"#": complex(alpha), **{k: beta * a for k, a in vectors[0].items()}}
        weights = _weights(rng, rank)
    pairs = list(zip(weights, vectors))
    verdicts = theory(gamma, pairs)
    if verdicts["expected"] != branch.startswith("expected") or verdicts["symmetric"]:
        raise RuntimeError(f"slot {index} left its branch {branch}")
    state = {
        "gamma": gamma,
        "T": {
            "eigenpairs": [
                {"weight": w, "vector": {k: [a.real, a.imag] for k, a in xi.items()}}
                for w, xi in pairs
            ]
        },
    }
    info = {
        "branch": branch,
        "rank": rank,
        "support": support,
        "pool_sites": (FIRST_SITE - 1) + support + 1,
        "theory": verdicts,
    }
    return state, info
