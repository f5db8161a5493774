"""Memory stays bounded while one process maps a long stream of distinct
inputs or enumerates a stream of distinct families: the per-input caches
keep at most CACHE_SIZE entries each, and nothing else accumulates across
calls."""

import random
import tracemalloc

from pathbij import (
    FamilySpec,
    WalkFamilySpec,
    end_height,
    enumerate_family,
    enumerate_walk_family,
    heights,
    match_faces,
    nu,
    nu_inv,
    omega,
    omega_inv,
    phi,
    phi_inv,
    phi_tilde,
    phi_tilde_inv,
    psi,
    psi_inv,
    psi_s,
    psi_s_inv,
    psi_tilde,
    psi_tilde_inv,
    psi_tilde_s,
    psi_tilde_s_inv,
    tri_heights,
    valid_ij,
    xi,
    xi_inv,
)
from pathbij._base import CACHE_SIZE
from pathbij.matching import unmatched_steps

from oracles import quadrant_walk

LENGTH = 256
COUNT = 2000
GROWTH_LIMIT_BYTES = 4 * 2**20


def _quadrant_walks(seed: int) -> list[str]:
    """COUNT seeded quadrant walks of length LENGTH that end weakly below
    the diagonal and whose upper paths P are pairwise distinct."""
    rng = random.Random(seed)
    walks: list[str] = []
    seen: set[str] = set()
    while len(walks) < COUNT:
        w = quadrant_walk(LENGTH, rng.choice)
        p = omega_inv(w)[0]
        if p not in seen:
            seen.add(p)
            walks.append(w)
    return walks


def test_stream_of_distinct_inputs_keeps_memory_bounded():
    walks = _quadrant_walks(seed=20140606)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for t, w in enumerate(walks):
            p, q = omega_inv(w)
            hp, hq = end_height(p), end_height(q)
            i, j = (hp + hq) // 2, (hp - hq) // 2
            s = i - 2 * (t % (i // 2 + 1))  # an end height at or below i, of its parity
            assert xi_inv(xi(p)) == p
            assert nu_inv(nu(p)) == p
            pt, qt, _ = phi(p, q)
            assert phi_inv(pt, qt, i, j)[:2] == (p, q)
            ph, qh, _ = psi(p, q)
            assert psi_inv(ph, qh)[:2] == (p, q)
            assert psi_s_inv(*psi_s(p, q, s)[:2])[:2] == (p, q)
            # the walk maps are phi and psi conjugated by omega
            assert phi_tilde(w) == omega(pt, qt)
            assert phi_tilde_inv(omega(pt, qt), i, j) == w
            assert psi_tilde(w) == omega(ph, qh)
            assert psi_tilde_inv(omega(ph, qh)) == w
            assert psi_tilde_s_inv(psi_tilde_s(w, s)) == w
        growth = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    for cache in (heights, tri_heights, unmatched_steps, match_faces):
        info = cache.cache_info()
        assert info.maxsize == CACHE_SIZE
        assert info.currsize <= CACHE_SIZE
    assert growth < GROWTH_LIMIT_BYTES, f"grew by {growth / 2**20:.1f} MiB"


def test_stream_of_distinct_families_keeps_memory_bounded():
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for n in range(11):
            assert enumerate_walk_family(WalkFamilySpec("H", n))
        for n in range(9):
            for i, j in valid_ij(n):
                assert enumerate_family(FamilySpec("M2", n, i=i, j=j))
        growth = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert growth < GROWTH_LIMIT_BYTES, f"grew by {growth / 2**20:.1f} MiB"
