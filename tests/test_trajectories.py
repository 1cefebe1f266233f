"""Golden trajectories: fixed seeds must keep writing the same `.sol` bytes.

The digests below were recorded from the solvers before the flat-list
rewrite of the path, augmentation and cycle walks in `flow_ops`, which is
meant not to change any search trajectory.  A change that does alter a
trajectory on purpose (for example a different optimal witness for a
scenario) must say so in CHANGES.md and record new digests here.
"""
from __future__ import annotations

import hashlib

import pytest

from conftest import gen
from rmcif import format_solution
from rmcif.bench import solve_one
from rmcif.heuristics import SearchParams

PARAMS = SearchParams(generation_limit=10)

# (instance seed, variant, solver) -> SHA-256 of the `.sol` text; the
# solver seed equals the instance seed.
GOLDEN = {
    (1, "absolute", "ls1"): "2c616d5a895530fc6b1de2436328343ae2d1172ed8104316e3f53ddff2af36c3",
    (1, "absolute", "ls3"): "0ec274440283e492d4ece268de53db8dad26086fb83419eb4520e554c911dbcf",
    (1, "absolute", "ec1"): "cf4e3ba943de2417c7f31e2f96ee45c58d3a82c639ee4ff877612539143b90f9",
    (1, "absolute", "ec4"): "459fa6e7b18111114398bf4f8b54efb74666e58fb4fc024fb83d9ee89ee3c8a8",
    (1, "absolute", "ec7"): "be7ac80ad927d2a62130a1ec2044cdfc2894bade36fae9cfb91b6aaca29ddc40",
    (1, "absolute", "ec9"): "cc2dbf45abf0f3fbcb52d61c183b270ee4b8062d116a6d9addbc8e1206c24990",
    (1, "deviation", "ls1"): "62473e656eb8525deb19ed1917924e9ba26685dc139c8e09f7a48eac4d592d2e",
    (1, "deviation", "ls3"): "28d1bb3d67d1101d8d294697c5cc5e28f82736f3a87ed1028911a6bc28c3beed",
    (1, "deviation", "ec1"): "1a4149bc789d42c9ad454c7573fb6481a55861308c122c8c6e6068adec58a89f",
    (1, "deviation", "ec4"): "d8905270f2c1bc2b7d168eb0b2e6cf342e77190f16d3435a6b47b7391e42c890",
    (1, "deviation", "ec7"): "7aaebe7fcdb545f6c149f8c32744d321cde060ce6a74f0bc49195d75c0514f04",
    (1, "deviation", "ec9"): "804df032c10168d517c61ff622814261d9f66eb380eaba7a6de56e7a63e5aaab",
    (2, "absolute", "ls1"): "ba0f550b62a4bbf7d2cd0478271e2023586f050235966fb339e5e75e74a420a5",
    (2, "absolute", "ls3"): "99932b7dfb2e4d021f893ab18d3bdf699d27e901d00ce5a7478ed8d242b11558",
    (2, "absolute", "ec1"): "9e132ce92686110fb2826afc5979b8016d09c5b2311236ca8fec8ac489982816",
    (2, "absolute", "ec4"): "d53853aa1bf81a099494c0b92f0583f53d02891b8da9d9349a432a0352fe8ee6",
    (2, "absolute", "ec7"): "57da8265c35e3384aedd491fa0dc81cdfee2d846b354179b98ec1437f14f7a51",
    (2, "absolute", "ec9"): "de3f47a1cfe66c932b5d4891cbe9f1da46b532cb9c06e95711d7ef95060ee64f",
    (2, "deviation", "ls1"): "e1f20e8191e691d8b416f6cbe08ee82d7b2d00c38315d84ba93c182db191e59c",
    (2, "deviation", "ls3"): "dbf5de4ed7bf4b65e0ba32e6fd5f984add36febcb3b9729f61d9f8a43a24a12a",
    (2, "deviation", "ec1"): "f18d56e35780a6ae97e281dbba8f325c57d91129f2c3ab20d4ccf601c49b3d17",
    (2, "deviation", "ec4"): "7005299e2904583a4297f121124cd39be98f7c07b12078f1725031b3ccee35cf",
    (2, "deviation", "ec7"): "fe50bcc6d2db4bafa8ace0b402d6096d426cf700aa4ea44fc749ba49973a6d86",
    (2, "deviation", "ec9"): "f55601439e6416f0fbbbcda34f7b14f8d8d2a6e1d63e76e93f14e045ffa75c83",
}


@pytest.fixture(scope="module")
def instances():
    """Two 6x6x6 instances with five scenarios (84 arcs, F = 35 and 39)."""
    return {
        seed: gen(seed, widths=(6, 6, 6), scenarios=5, caps=(1, 20), costs=(0, 99))
        for seed in (1, 2)
    }


@pytest.mark.parametrize("seed, variant, solver", sorted(GOLDEN))
def test_solution_bytes_unchanged(instances, seed, variant, solver):
    instance = instances[seed]
    record = solve_one(instance, variant, solver, seed, PARAMS)
    text = format_solution(record, instance)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[seed, variant, solver]
