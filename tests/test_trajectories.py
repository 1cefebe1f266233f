"""Golden trajectories: fixed seeds must keep writing the same `.sol` bytes.

The digests below were recorded once scenario optima came from
successive shortest paths and the evolutionary loop drew its tournaments,
mutation coin and composition orders cheaply; both changed witnesses and
RNG streams on purpose.  A later change that alters a trajectory on
purpose must say so in CHANGES.md and record new digests here.
"""
from __future__ import annotations

import hashlib

import pytest

from conftest import gen
from rmcif import format_solution, write_instance
from rmcif.bench import solve_one
from rmcif.exact import export_lp
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
    (1, "absolute", "ec9"): "a17fc57550a276f13d4f1e3519cb881a6da890b20119467a128bb1201034f66c",
    (1, "deviation", "ls1"): "62473e656eb8525deb19ed1917924e9ba26685dc139c8e09f7a48eac4d592d2e",
    (1, "deviation", "ls3"): "28d1bb3d67d1101d8d294697c5cc5e28f82736f3a87ed1028911a6bc28c3beed",
    (1, "deviation", "ec1"): "b9a6976a0075e9654551e185f4b962724812c677eab260936bb1f162a15861e7",
    (1, "deviation", "ec4"): "79223dcd5005a1f8e4a31af26cb75203bf5b796e02c5cf0fdb069d2e1359888d",
    (1, "deviation", "ec7"): "59f5f1c32bd05bf69a2a159c3e0ad45a820174e51c3beea93c9cf333ede35d86",
    (1, "deviation", "ec9"): "13e540dd5784e63fbf62e8bdcd0d0f3e84a114655bf4300ad39b8ee9c240fe3a",
    (2, "absolute", "ls1"): "ba0f550b62a4bbf7d2cd0478271e2023586f050235966fb339e5e75e74a420a5",
    (2, "absolute", "ls3"): "3a49189a6bbcb114afa876d1f6987a18c1974120899c157c3c5e87df2d782a94",
    (2, "absolute", "ec1"): "0203cefb925253ee5523c7036e2d5a30ebfb736c3504e8ca2d4b5fd51766b125",
    (2, "absolute", "ec4"): "f5d02d6a5b3f8b0fec78769fe9a32ef936952f8c9929d9a7c1016dbb8663c618",
    (2, "absolute", "ec7"): "c97cc028124c735c461c6767b41ddfc0439ce3918b56b12c4bf0472e2ab89295",
    (2, "absolute", "ec9"): "de3f47a1cfe66c932b5d4891cbe9f1da46b532cb9c06e95711d7ef95060ee64f",
    (2, "deviation", "ls1"): "e1f20e8191e691d8b416f6cbe08ee82d7b2d00c38315d84ba93c182db191e59c",
    (2, "deviation", "ls3"): "49d959275fbdf8ddcb5c873530532e9dffb561881d9431636a97e2e1b6a909f8",
    (2, "deviation", "ec1"): "5c28ad87abbc0192df4679eb50c977773777653051b83fc1cc2bee19481365f8",
    (2, "deviation", "ec4"): "d9e3245e49c49eb20518993a55cf6dbbdb6c62d09bf6aad578b421b76fbdcd88",
    (2, "deviation", "ec7"): "d19d6d1fb085e07bc6330fd2d41a3050842ca32441dfda800bbe9842c07c2954",
    (2, "deviation", "ec9"): "bd20cfdd4c86199e910262b244bd5642480607bccf360d12540af8e9e6036e06",
}

# (instance seed, text) -> SHA-256 of `write_instance` and of `export_lp`
# for each variant, pinning the instance and LP text of a generator instance.
TEXT_GOLDEN = {
    (1, "instance"): "b245f2678e76c22073481a4a7c077cc08d2c25178ebbf1ae2f9cafc93a05f7e9",
    (1, "absolute"): "60a9c22f2aad863b4cd9c60e77d32cd692494371b8ee9c511fae2e60c4b5afad",
    (1, "deviation"): "a9712f1904bf437f1c0383bf3b530077187d6aa5fe87fa202f48527c10d5d92e",
    (2, "instance"): "9e10550d7126f4b8c6703d16a6e924d47974169b176375c236324f5e0d6031a6",
    (2, "absolute"): "880e7f6d5bf75f1065eac7f7572b95b220456a35967a42918d8cf4c4e59a2283",
    (2, "deviation"): "ab51fed175e72e0ad3f3d549ff563363eb4746a1d79a5460ed2d8dff7a11407e",
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


@pytest.mark.parametrize("seed, kind", sorted(TEXT_GOLDEN))
def test_instance_and_lp_bytes_unchanged(instances, seed, kind):
    instance = instances[seed]
    text = write_instance(instance) if kind == "instance" else export_lp(instance, kind)
    assert hashlib.sha256(text.encode()).hexdigest() == TEXT_GOLDEN[seed, kind]
