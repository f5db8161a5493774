"""Definitions shared by several modules: input validation, the cache bound
and the position-wise map over a pair of paths."""

from __future__ import annotations

# Entries kept by each per-input cache (paths.heights, matching.tri_heights,
# matching.unmatched_steps, matching.match_faces). Every map builds each
# profile or set of unmatched steps it needs once per call, so the caches
# only serve repeats across nearby calls: the exhaustive sweeps, and the
# inverse of a psi map, which rereads the kernel of the word its forward
# map left unchanged. A bound keeps a stream of distinct inputs from
# growing the process.
CACHE_SIZE = 64

# The largest k of a path tuple: an enumeration builds its 2^k joint steps
# first, and det, product and apply's pp_to_tuple take the same cap
MAX_K = 10
# The largest n of a closed form, which pathbij count prints in full while
# int-to-str is quadratic (the slowest formula call takes about 0.3 s there,
# printing 2^n about 1 s), and of apply's --n, read by pp_to_tuple alone
MAX_FORMULA_N = 100_000


def require(cond: bool, msg: str, *args) -> None:
    """Raise ValueError(msg.format(*args)) unless cond holds.

    The message is formatted only when it is raised, so a passing check
    costs no string building.
    """
    if not cond:
        raise ValueError(msg.format(*args))


def need(obj, field: str):
    """The value of a one-letter field of obj; ValueError if it is not set."""
    value = getattr(obj, field, None)
    require(value is not None, "--{} is required here", field)
    return value


def reject_unread(obj, fields: str, reads: str, user: str) -> None:
    """Raise ValueError if a one-letter field of obj in fields is set but user does not read it."""
    unread = [f for f in fields if f not in reads and getattr(obj, f, None) is not None]
    require(not unread, "{} does not read {}", user, ", ".join(unread))


def step_pair_table(images: dict[str, str]) -> bytes:
    """Table for map_step_pairs from {"UU": c, "UD": c, "DU": c, "DD": c}."""
    codes = bytes(2 * ord(a) + ord(b) for a, b in images)
    return bytes.maketrans(codes, "".join(images.values()).encode())


def map_step_pairs(p: str, q: str, table: bytes) -> str:
    """Replace each step pair (P_a, Q_a) of two checked, equal-length U/D
    paths by its image under a step_pair_table.

    A pair is coded as the byte 2*ord(P_a) + ord(Q_a), at most 0xFF, so one
    big-integer sum codes every position at once, with no carry between
    bytes, and the lookup is a bytes.translate.
    """
    code = 2 * int.from_bytes(p.encode(), "big") + int.from_bytes(q.encode(), "big")
    return code.to_bytes(len(p), "big").translate(table).decode()
