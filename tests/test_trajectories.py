"""Golden trajectories: fixed seeds must keep writing the same `.sol` bytes.

The digests below were recorded once scenario optima came from
successive shortest paths and the evolutionary loop drew its tournaments,
mutation coin and composition orders cheaply; both changed witnesses and
RNG streams on purpose.  A later change that alters a trajectory on
purpose must say so in CHANGES.md and record new digests here.
`MORE_GOLDEN` was recorded before the cycle searches came to read their
walks back the way the path searches do, and that rewrite kept every one.
"""
from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from conftest import gen
from rmcif import Instance, Network, ScenarioSet, format_solution, parse_instance, write_instance
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

# The rest of the tags on the same instances, and all thirteen on two
# networks with directed cycles: `data/cyc.rmcif`, whose arcs run both ways
# between most vertex pairs, and "rev", the seed-1 instance with a reverse
# of each inner arc.  On "rev" the cycle search meets finished vertices and
# every negative cycle runs through backward moves; on cyc.rmcif no
# negative cycle is ever found.  (instance, seed, variant, solver) ->
# SHA-256 of the `.sol` text; "gen" is the generator instance of that seed,
# and the solver seed is the seed.
MORE_GOLDEN = {
    ("gen", 1, "absolute", "ls2"): "1aff73ccf9b8ec30b4f60bab0aaade855ae0e3dc646b8e294b2bf5adb9bf9f72",
    ("gen", 1, "absolute", "ls4"): "182390d92b54ef4b3549a449c64ee1205aa3d86d49a25266b467f8f8a04eeb1d",
    ("gen", 1, "absolute", "ec2"): "d55021ea6cfd58c759a00dd65f8d58de32a5d7b239bb85ff5e3e68a6a145115a",
    ("gen", 1, "absolute", "ec3"): "e6754d6cbc0e409645914b6e0d2b2021bd619271a048266b53b59c281473034a",
    ("gen", 1, "absolute", "ec5"): "b608087ec6d86c9efd1cb86e212babe2fb26a46cbb2f0356971b2e300f3551c9",
    ("gen", 1, "absolute", "ec6"): "c65172f3141fdf524d66a39c68b74b8d5b12ffe7a7bca1d5ec239308d5d79a8c",
    ("gen", 1, "absolute", "ec8"): "1dea69a9bb9f9885bfc070f24f5976c77c70ce02dbb8dac920185cd38c9dd6cb",
    ("gen", 1, "deviation", "ls2"): "e72fe39a842ac3eb3b60f96bde021e93bb97ecf4cae5f534a2ebd9b3f82fdc7d",
    ("gen", 1, "deviation", "ls4"): "7b7511fbdc6038f71a04bc8a3db3c3555fe3a7f53e04aad0daf24e45d6ac232b",
    ("gen", 1, "deviation", "ec2"): "8133ad255e463e03e0999cc9c8d0edcd90af6627d064f1c39e5b06c3572eb746",
    ("gen", 1, "deviation", "ec3"): "6466c4fa2d7a5ee0243694fa962bb9235042c9a2077b5066bb53f62f855da01b",
    ("gen", 1, "deviation", "ec5"): "aff5df7459706691e7a760411aee49a21196b76aa4537b0b5dc2d1dc08ec63dc",
    ("gen", 1, "deviation", "ec6"): "6ed547990360bb5e79c7f86d487004dac5bca41f2dae71cf80fd66dd3c5aae2f",
    ("gen", 1, "deviation", "ec8"): "8dc5f1ebcb6aa6080b8e2496ab3c5fefc1ebcd0ebd861dda1f737b0652d4df6e",
    ("gen", 2, "absolute", "ls2"): "417c311dc8d7ebf39ea89ed58aa40f23091b32dcaefc580eeb9dd3aa4e26ecbc",
    ("gen", 2, "absolute", "ls4"): "3fd5a3cbe6e266eabb6b889fa2ce9b410a3b1b200b60d6c247bf5ee267f2acdb",
    ("gen", 2, "absolute", "ec2"): "fdfcd8af1539d79a360241c5d32872718c3a81afd72760f02e9fb620160439bd",
    ("gen", 2, "absolute", "ec3"): "7db131142e1122129786d921f117feaabaf0d8e2e227738e3685ff8c11895308",
    ("gen", 2, "absolute", "ec5"): "8e6d476dbadd1008f275a54c06b931c3e5cd933878eee7651ae94ce7748ef2ed",
    ("gen", 2, "absolute", "ec6"): "ada64a93fe8298ed75b67e8bf7018e8e1d63c2ae367775658a3685266de4fce4",
    ("gen", 2, "absolute", "ec8"): "0856f078f796f8aed0fea95e86900190cc1d8e9c1ed4defd76122b7b10c3d1a8",
    ("gen", 2, "deviation", "ls2"): "a5659adad3c91e63646802cb5523b444b3aa48da88fd3828701f7245a270837d",
    ("gen", 2, "deviation", "ls4"): "5fbfcd37dbdd8ffbfe1075a020c16f3dab12c23656bb36445746551267ef4d32",
    ("gen", 2, "deviation", "ec2"): "79c1d26e91cc61235ea8258cae70e4a0b807ec523a744ac2b77908da792c0a3b",
    ("gen", 2, "deviation", "ec3"): "f48469f1e60f7ccdce259fab8540f61156d3a0905e590362381134ceccda657d",
    ("gen", 2, "deviation", "ec5"): "f366ee7e5f9500deae3a534d36a48052c2b93d6b779ddd43ecd97afcbfe7980b",
    ("gen", 2, "deviation", "ec6"): "f885785824ffca4bfe373f7f24125d910223cb0f6facbb4d334774f00903fb36",
    ("gen", 2, "deviation", "ec8"): "e4fc85214ed9a156a33fbabdccbdebbf435e3e76b025f5aa67d93a42ca8dc257",
    ("cyc", 0, "absolute", "ec1"): "8bc46f3473339fa100005cc169ac2c4d3c02587bed2e8aabf46e88f26ba10aa1",
    ("cyc", 0, "absolute", "ec2"): "479434b9306dca522133108ab842a5bd5e69b1e958dea7dfc7deb32249ccedd9",
    ("cyc", 0, "absolute", "ec3"): "b4c8bb5a942333f72d3d87fcd871fa58cbbc5746fe778a0c873806be1dcae88e",
    ("cyc", 0, "absolute", "ec4"): "a4047c252356d77de75cf24701c592dd1f1705a3e09cd45be8d70077d43ed214",
    ("cyc", 0, "absolute", "ec5"): "97f11a6bc2c86439f5bb4f369fed14d6100f077616f3de3b6f0d6591bae9978d",
    ("cyc", 0, "absolute", "ec6"): "abdf1241f7c785160bbc10e8fe30cfb1ef68646b4bc99d47c9f960a04aeb21ef",
    ("cyc", 0, "absolute", "ec7"): "466400f9c0908e79f699fe28e6fc36c67942e4880670ff2161cb0c0572539217",
    ("cyc", 0, "absolute", "ec8"): "c0cdbfa9ab03d6c78f1724813175e3aa77ce5e89c409f26094114a94dbe27a92",
    ("cyc", 0, "absolute", "ec9"): "215302a90b18479ffbaebc349b0c561059f06937127d36fbb37de32c4a176898",
    ("cyc", 0, "absolute", "ls1"): "3c0e03e648b7c8c10ea45e78bc1ebdb0b1efd412502107ef2cd12cad55013dd5",
    ("cyc", 0, "absolute", "ls2"): "c67bef42e082683018e6db4981e84fef5336a88a7c5b279a1d99d0a09751308a",
    ("cyc", 0, "absolute", "ls3"): "cf28ccb98d74967846860af6c8cbeec249c9e61a019d5a5f94a73fccf9d875a7",
    ("cyc", 0, "absolute", "ls4"): "dc667e79d85c3c6bc53ed29687dbde3fd2b329e9ec23a639a3056a399f2d8937",
    ("cyc", 0, "deviation", "ec1"): "7faf84a013cb5f368c5c485c59d0c000d85ccf90a9d9759006bfe482ed5de6ef",
    ("cyc", 0, "deviation", "ec2"): "1eed30166263ed814e7c9015d4687b2fe496b5acc00ce5073c756d42e9c1dc75",
    ("cyc", 0, "deviation", "ec3"): "a056efc51e8aa42bd7247e0f86e8075c9853693978d10ef9ad02f77ad7ef4fd5",
    ("cyc", 0, "deviation", "ec4"): "aad2c03e5d65b29cc0081f873ca8286e10e1f469fa3b5033eef3ab9ea0304a52",
    ("cyc", 0, "deviation", "ec5"): "73d7656c0d4c10d7b28d4b683f58c6df5c6ec7efb0ec6e28835b7a152490cf6d",
    ("cyc", 0, "deviation", "ec6"): "567e86161aaa0a1953a4f4b6a54ea8c6710958b5728724537632462ccf21ea6e",
    ("cyc", 0, "deviation", "ec7"): "b27cf13431a6b07aa00c58c458997439ba846222a07d4c75b1eded91a42f1415",
    ("cyc", 0, "deviation", "ec8"): "03f8119d8f3bd3eb5801277d300cde7e70d90d8797ccd1254f7cf97b9b8d99fa",
    ("cyc", 0, "deviation", "ec9"): "afa9f38c731393ea6494676228bbe414e4e3b50cb3c32fc0dc3edaf2f03ad3f6",
    ("cyc", 0, "deviation", "ls1"): "7085842cf70f9e74d52bcb23ca0b0c2bc01331edf6b6f0be39c89c617aaec2d6",
    ("cyc", 0, "deviation", "ls2"): "041b7f721da7975bc907eb8b18c2b2e013ded411e64fe3b228a6b04395b8f0a6",
    ("cyc", 0, "deviation", "ls3"): "122a07f59484307c35fd67a049c926abb5a9af678c6ec142bf852824c5f69cac",
    ("cyc", 0, "deviation", "ls4"): "96e9d0e5ec42468c53169da3519cbc3747cd4248344f4fe99a20118869a9acd8",
    ("rev", 1, "absolute", "ec1"): "98ef812fdacb5ebfdd19910f8b4a95033f2ba2d2a420912d31d878517a4aff23",
    ("rev", 1, "absolute", "ec2"): "cf07b162c72ce931f106351ad403f44faa0c023b43d8dc74ba713b819a7aec53",
    ("rev", 1, "absolute", "ec3"): "0504868878727b1fa31686928051869423fac053e17df86a1afbf65a771ba79c",
    ("rev", 1, "absolute", "ec4"): "c77a4cd465e05ba0dc92be2232b484b0ace2c453ea1b1a23513936fabd786332",
    ("rev", 1, "absolute", "ec5"): "3010fef9d62210c1f5994f55356eb320103f36253fed691f8125e8abf32d6208",
    ("rev", 1, "absolute", "ec6"): "8890ec6bcb294e8b3646521b99cf9e2f0b7cdb5982d44ac4e91e9b4384d495d8",
    ("rev", 1, "absolute", "ec7"): "994d45aaaab469e9a97776a3210e5146927e6595d5f3e2aa82c46af5d499564c",
    ("rev", 1, "absolute", "ec8"): "d6085b2683fef7279c81526d9592ebf0c9163465bb7b60a0f0c80b7378c3738f",
    ("rev", 1, "absolute", "ec9"): "40915a6a8a342f3bcde8d2b79615a7e88b434b07b3917134eb85654cf2a6aef0",
    ("rev", 1, "absolute", "ls1"): "83fc639a120c8a77d6455771b7ff640df255acba2d6f1a7a8afa71c3a5d0e5ac",
    ("rev", 1, "absolute", "ls2"): "a162ad37884ab916e62acb9149212e9694ec0120e4cab7006c22283afea4bf3e",
    ("rev", 1, "absolute", "ls3"): "605591ea04006e599a9585966b6d61faac500140c4322aa75a2f4d666e420698",
    ("rev", 1, "absolute", "ls4"): "6610215c3573bada29065b96570946906bc063f6fa7e9548ddc695b1653d6415",
    ("rev", 1, "deviation", "ec1"): "b067cb4f748be903c095f00d75b7a25298cee166117fab1f28a985f1e66286ad",
    ("rev", 1, "deviation", "ec2"): "8bed98ad61dddfc766c3fc92643c43bf3a1348dbb65e4c959c69f7a455cea127",
    ("rev", 1, "deviation", "ec3"): "83e28377bdfe0901e506e60a7dbb7aeddb2ebd33d3d55ce73c0eeccaf4c43fb5",
    ("rev", 1, "deviation", "ec4"): "b7e9fc5e6f2cbc5a65c92d99641d90daf9bd365e97176991e3bdd92fab77dc3c",
    ("rev", 1, "deviation", "ec5"): "66462069226db79f51badcd3189a3ac57580dfe5b1a388f681961d121daac2d7",
    ("rev", 1, "deviation", "ec6"): "4d3f1eb90f511edbdaa3c00dc8d89693f1289dab93e14ac5dbb5628c49712bdd",
    ("rev", 1, "deviation", "ec7"): "4ffaf4e05026372ab4ebc471cad24eea2382d175946ed91fe76c8436175dbe69",
    ("rev", 1, "deviation", "ec8"): "f9c9fd75222f7c83d0153f00a4cb28bba2df3777e40ab1d055dd5f30a2cdceb6",
    ("rev", 1, "deviation", "ec9"): "9d3ca434d21a8559d5aa8ec5395998ded8a3bcc29d28de4f14b4a9e5278cdb79",
    ("rev", 1, "deviation", "ls1"): "4f50fb39a7c9a89f3ca7db09a24cea052fe07e5faef8f820dfa23cb5f177e6d9",
    ("rev", 1, "deviation", "ls2"): "db7a6909116b83d11ccda29c4052d8e4b91a1149548b73a03ec57710ababb477",
    ("rev", 1, "deviation", "ls3"): "5b9a0e90b25be55be07a3dfd8b029de4284dc0ac130f4e68cd5523fd3c8cbaa0",
    ("rev", 1, "deviation", "ls4"): "911df3e10d600f34a7ec56ce088627564b90d8ff3a08b47a526dd87ad4c5cb64",
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


def with_reversed_inner_arcs(instance):
    """`instance` with a reverse of each arc that touches neither the source
    nor the sink, declared after the arcs it had, with the arc's capacity
    and scenario costs."""
    net = instance.network
    inner = [i for i, (t, h) in enumerate(zip(net.tails, net.heads))
             if net.source not in (t, h) and net.sink not in (t, h)]
    network = Network(
        net.vertex_count,
        net.tails + tuple(net.heads[i] for i in inner),
        net.heads + tuple(net.tails[i] for i in inner),
        net.capacities + tuple(net.capacities[i] for i in inner),
    )
    rows = tuple(row + tuple(row[i] for i in inner) for row in instance.scenarios.costs)
    return Instance(network, ScenarioSet(rows), instance.flow_value)


@pytest.fixture(scope="module")
def cyclic(instances):
    return {
        "cyc": parse_instance((Path(__file__).parent / "data" / "cyc.rmcif").read_text()),
        "rev": with_reversed_inner_arcs(instances[1]),
    }


def test_rev_fixture_file_is_the_built_instance(cyclic):
    # CI's cyclic smoke runs the solvers on data/rev.rmcif; it must stay
    # the instance whose digests MORE_GOLDEN records under "rev"
    text = (Path(__file__).parent / "data" / "rev.rmcif").read_text()
    assert parse_instance(text) == cyclic["rev"]
    assert text == write_instance(cyclic["rev"])


@pytest.mark.parametrize("name, seed, variant, solver", sorted(MORE_GOLDEN))
def test_more_solution_bytes_unchanged(instances, cyclic, name, seed, variant, solver):
    instance = instances[seed] if name == "gen" else cyclic[name]
    record = solve_one(instance, variant, solver, seed, PARAMS)
    text = format_solution(record, instance)
    assert hashlib.sha256(text.encode()).hexdigest() == MORE_GOLDEN[name, seed, variant, solver]


@pytest.mark.parametrize("seed, kind", sorted(TEXT_GOLDEN))
def test_instance_and_lp_bytes_unchanged(instances, seed, kind):
    instance = instances[seed]
    text = write_instance(instance) if kind == "instance" else export_lp(instance, kind)
    assert hashlib.sha256(text.encode()).hexdigest() == TEXT_GOLDEN[seed, kind]
