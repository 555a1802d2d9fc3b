"""Shared fixtures: the randomized corpus and the acceptance summary hook."""

from __future__ import annotations

import numpy as np
import pytest

from mixcomp import (
    CandidateSet,
    candidate_set,
    maximally_mixed,
    random_density,
    validate_density,
)

# acceptance tests register one (passed, detail) entry per criterion here;
# pytest_terminal_summary prints them after the run
ACCEPTANCE_RESULTS: dict[int, tuple[bool, str]] = {}


def record_acceptance(criterion: int, passed: bool, detail: str) -> None:
    ACCEPTANCE_RESULTS[criterion] = (passed, detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for cid in sorted(ACCEPTANCE_RESULTS):
        passed, detail = ACCEPTANCE_RESULTS[cid]
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE {cid}: {verdict} - {detail}")


def gaussian_set(d: int, k: int, seed: int) -> CandidateSet:
    """k Gaussian-factor states with independently drawn ranks."""
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(k):
        rank = int(rng.integers(1, d + 1))
        states.append(random_density(d, rank, int(rng.integers(0, 2**31))))
    return candidate_set(states)


def diagonal_set(d: int, k: int, seed: int) -> CandidateSet:
    """Diagonal states with random basis-aligned supports.

    Shared eigenbases make exact support containments and equalities common,
    which exercises the reduction and the condition checkers far harder than
    generic Gaussian states do.
    """
    rng = np.random.default_rng(seed)
    states: list = []
    while len(states) < k:
        size = int(rng.integers(1, d + 1))
        where = rng.choice(d, size=size, replace=False)
        vals = rng.uniform(0.2, 1.0, size=size)
        diag = np.zeros(d)
        diag[where] = vals / vals.sum()
        m = np.diag(diag).astype(np.complex128)
        # size-1 supports repeat exactly; redraw collisions
        if any(np.max(np.abs(m - prev.matrix)) <= 1e-9 for prev in states):
            continue
        states.append(validate_density(m))
    return candidate_set(states)


def mixed_injected_set(d: int, k: int, seed: int) -> CandidateSet:
    """A Gaussian set with one state replaced by the maximally mixed one."""
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(k):
        rank = int(rng.integers(1, d + 1))
        states.append(random_density(d, rank, int(rng.integers(0, 2**31))))
    states[int(rng.integers(0, k))] = maximally_mixed(d)
    return candidate_set(states)


def near_degenerate_set(d: int, k: int, rank: int, theta: float, seed: int) -> CandidateSet:
    """k Gaussian states of one rank < d; state 1's support sits at angle theta to state 0's.

    State 1 takes state 0's support with one basis vector turned by theta
    toward the complement, and its own random spectrum, so the two stay far
    from a numerical duplicate even when theta is far below that threshold.
    """
    rng = np.random.default_rng(seed)
    states = [random_density(d, rank, int(rng.integers(0, 2**31))) for _ in range(k)]
    _, v = np.linalg.eigh(states[0].matrix)
    basis = v[:, d - rank:].copy()
    basis[:, 0] = np.cos(theta) * basis[:, 0] + np.sin(theta) * v[:, 0]
    weights = rng.uniform(0.2, 1.0, size=rank)
    m = (basis * (weights / weights.sum())) @ np.conj(basis.T)
    states[1] = validate_density(m)
    return candidate_set(states)


def build_corpus() -> list[tuple[str, CandidateSet, bool]]:
    """(name, set, contains_maximally_mixed) triples, >= 200 sets."""
    entries = []
    for d in (2, 3, 4):
        for k in (2, 3):
            for s in range(17):
                entries.append(
                    (f"gauss-d{d}-k{k}-s{s}", gaussian_set(d, k, 10_000 * d + 100 * k + s), False)
                )
            for s in range(14):
                entries.append(
                    (f"diag-d{d}-k{k}-s{s}", diagonal_set(d, k, 20_000 * d + 100 * k + s), False)
                )
            for s in range(3):
                entries.append(
                    (f"mixed-d{d}-k{k}-s{s}", mixed_injected_set(d, k, 30_000 * d + 100 * k + s), True)
                )
    return entries


@pytest.fixture(scope="session")
def corpus() -> list[tuple[str, CandidateSet, bool]]:
    entries = build_corpus()
    assert len(entries) >= 200
    return entries
