"""The bijections the benchmark drives, each with its inverse and a check.

One entry per forward map. An input item is a dict whose fields depend on
its kind:

  prefix: p, s               (a Dyck path prefix and a valid end height s)
  pair:   p, q, i, j, s      (an M2(n,i;j) pair, (i, j) read off its ends)
  walk:   w, i, j, s         (a quadrant walk ending at (i, j), i >= j)
  tuple:  paths, a, p, q, k  (nested paths and their plane partition)

`forward(pb, x)` and `inverse_call(pb, x, y)` call the package `pb` on an
item and on its image; `back(x)` is what the inverse must return; `check(pb, x, y)` tests the forward image
with the benchmark's own predicates (oracles.py). The walk checks also call
the pair maps, since they test phi_tilde o omega = omega o phi and its psi
analogues.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from oracles import (
    decode_walk,
    encode_walk,
    end_height,
    in_g2,
    in_g2s,
    in_p2,
    is_path,
    is_plane_partition,
    low,
    profile,
)


@dataclass(frozen=True)
class Map:
    kind: str
    inverse: str
    forward: Callable
    inverse_call: Callable
    back: Callable
    check: Callable
    # command line: text of the input, extra flags of the forward and inverse calls
    text: Callable = lambda x: x["p"]
    flags: Callable = lambda x: {}
    inverse_flags: Callable = lambda x: {}
    cli: bool = True


def _pair(x):
    return x["p"], x["q"]


def _pair_text(x):
    return f"{x['p']},{x['q']}"


def _ij(x):
    return {"i": x["i"], "j": x["j"]}


def _lower_returns(q: str) -> int:
    h = profile(q)
    return sum(1 for a, c in enumerate(q, 1) if c == "U" and h[a] == 0)


def _xi_s_check(pb, x, y):
    i, s = end_height(x["p"]), x["s"]
    return is_path(y, len(x["p"])) and end_height(y) == s and low(y) == -((i - s) // 2)


MAPS: dict[str, Map] = {
    "xi": Map(
        "prefix", "xi_inv",
        lambda pb, x: pb.xi(x["p"]),
        lambda pb, x, y: pb.xi_inv(y),
        lambda x: x["p"],
        lambda pb, x, y: is_path(y, len(x["p"])) and end_height(y) == len(y) % 2,
    ),
    "xi_s": Map(
        "prefix", "xi_s_inv",
        lambda pb, x: pb.xi_s(x["p"], x["s"]),
        lambda pb, x, y: pb.xi_s_inv(y),
        lambda x: x["p"],
        _xi_s_check,
        flags=lambda x: {"s": x["s"]},
    ),
    "nu": Map(
        "prefix", "nu_inv",
        lambda pb, x: pb.nu(x["p"]),
        lambda pb, x, y: pb.nu_inv(y),
        lambda x: x["p"],
        lambda pb, x, y: is_path(y, len(x["p"])) and end_height(y) == -(len(y) % 2),
    ),
    "phi": Map(
        "pair", "phi_inv",
        lambda pb, x: pb.phi(x["p"], x["q"], x["i"], x["j"]),
        lambda pb, x, y: pb.phi_inv(y[0], y[1], x["i"], x["j"])[:2],
        _pair,
        lambda pb, x, y: in_p2(y[0], y[1], x["i"], x["j"]),
        _pair_text, _ij, _ij,
    ),
    "psi": Map(
        "pair", "psi_inv",
        lambda pb, x: pb.psi(x["p"], x["q"]),
        lambda pb, x, y: pb.psi_inv(y[0], y[1])[:2],
        _pair,
        lambda pb, x, y: in_g2(y[0], y[1], x["i"], x["j"]),
        _pair_text,
    ),
    "psi_s": Map(
        "pair", "psi_s_inv",
        lambda pb, x: pb.psi_s(x["p"], x["q"], x["s"]),
        lambda pb, x, y: pb.psi_s_inv(y[0], y[1])[:2],
        _pair,
        lambda pb, x, y: in_g2s(y[0], y[1], x["i"], x["j"], x["s"]),
        _pair_text, lambda x: {"s": x["s"]},
    ),
    "omega": Map(
        "pair", "omega_inv",
        lambda pb, x: pb.omega(x["p"], x["q"]),
        lambda pb, x, y: pb.omega_inv(y),
        _pair,
        lambda pb, x, y: y == encode_walk(x["p"], x["q"]),
        _pair_text,
    ),
    "flip_below": Map(
        "pair", "flip_below_inv",
        lambda pb, x: pb.flip_below(x["q"]),
        lambda pb, x, y: pb.flip_below_inv(y[0], y[1].r),
        lambda x: x["q"],
        lambda pb, x, y: (
            low(y[0]) >= 0
            and y[1].r == _lower_returns(x["q"])
            and end_height(y[0]) == end_height(x["q"]) + 2 * y[1].r
        ),
        cli=False,
    ),
    "phi_tilde": Map(
        "walk", "phi_tilde_inv",
        lambda pb, x: pb.phi_tilde(x["w"]),
        lambda pb, x, y: pb.phi_tilde_inv(y, x["i"], x["j"]),
        lambda x: x["w"],
        lambda pb, x, y: (
            in_p2(*decode_walk(y), x["i"], x["j"])
            and y == encode_walk(*pb.phi(*decode_walk(x["w"]), x["i"], x["j"])[:2])
        ),
        lambda x: x["w"], inverse_flags=_ij,
    ),
    "psi_tilde": Map(
        "walk", "psi_tilde_inv",
        lambda pb, x: pb.psi_tilde(x["w"]),
        lambda pb, x, y: pb.psi_tilde_inv(y),
        lambda x: x["w"],
        lambda pb, x, y: (
            in_g2(*decode_walk(y), x["i"], x["j"])
            and y == encode_walk(*pb.psi(*decode_walk(x["w"]))[:2])
        ),
        lambda x: x["w"],
    ),
    "psi_tilde_s": Map(
        "walk", "psi_tilde_s_inv",
        lambda pb, x: pb.psi_tilde_s(x["w"], x["s"]),
        lambda pb, x, y: pb.psi_tilde_s_inv(y),
        lambda x: x["w"],
        lambda pb, x, y: (
            in_g2s(*decode_walk(y), x["i"], x["j"], x["s"])
            and y == encode_walk(*pb.psi_s(*decode_walk(x["w"]), x["s"])[:2])
        ),
        lambda x: x["w"], lambda x: {"s": x["s"]},
    ),
    "tuple_to_pp": Map(
        "tuple", "pp_to_tuple",
        lambda pb, x: pb.tuple_to_pp(x["paths"], x["p"], x["q"]),
        lambda pb, x, y: pb.pp_to_tuple(y, x["k"], p=x["p"]),
        lambda x: x["paths"],
        lambda pb, x, y: y == x["a"] and is_plane_partition(y, x["p"], x["q"], x["k"]),
        lambda x: ",".join(x["paths"]), inverse_flags=lambda x: {"k": x["k"]},
    ),
}

BY_KIND: dict[str, list[str]] = {}
for _name, _m in MAPS.items():
    BY_KIND.setdefault(_m.kind, []).append(_name)


def verify_round_trip(pb, name: str, x: dict, y, z) -> bool:
    m = MAPS[name]
    return z == m.back(x) and bool(m.check(pb, x, y))


def cli_text(value) -> str:
    """The plain text the command line prints for a map result."""
    if isinstance(value, str):
        return value
    if value and all(isinstance(v, str) for v in value):
        return ",".join(value)
    if all(isinstance(row, tuple) for row in value):
        return "; ".join(" ".join(str(v) for v in row) for row in value)
    return f"{value[0]},{value[1]}"
