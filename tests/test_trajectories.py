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
from rmcif import Instance, Network, format_solution, parse_instance, write_instance
from rmcif.bench import solve_one
from rmcif.exact import export_lp
from rmcif.heuristics import SearchParams

PARAMS = SearchParams(generation_limit=10)
DATA = Path(__file__).parent / "data"

# (instance seed, variant, solver) -> SHA-256 of the `.sol` text; the
# solver seed equals the instance seed.
GOLDEN = {
    (1, "absolute", "ec1"): "14c0b5b0cc502029c68d75ebf2bcc3c1ca24b5dc31e5f836c38883d9a1780344",
    (1, "absolute", "ec4"): "e864bf845d8e1feba5e5cbb64f43bdfc96f089c0c05486e8ec242142c198f113",
    (1, "absolute", "ec7"): "c3590b0cac2fe641492cfa6c1edbcc8a7e4db69335e93e86b07e28c9597de164",
    (1, "absolute", "ec9"): "71c734498f81cbd6f0866569e56edc09bfaa942092691f28072c38ed8223b4e7",
    (1, "absolute", "ls1"): "171f8456ffd967a155ffa60f658074ece535b4ca3225dda3665b7968258d9165",
    (1, "absolute", "ls3"): "81a8ae45889623907e5b95d46f9e6fb9a84a64160646d78744ea557ad5c38180",
    (1, "deviation", "ec1"): "bcf70d1dc24b5564466b0479752ade2ae3da3e2dfe32f894c467782122203397",
    (1, "deviation", "ec4"): "9f0300b2c64a7461307478e335ea1ecc64dab04bcac35bae99f691530c8d198d",
    (1, "deviation", "ec7"): "a1fa55ba0ea0a9a62c9126f8b5c953efb3afc96b5a2e54a9f9c7c30e51a705be",
    (1, "deviation", "ec9"): "ed38a8ad9cf394afc3d0b51996eab623d85a4fa93574108d0585b41d523b7efc",
    (1, "deviation", "ls1"): "4a8c7d6eb2ded812c1fde7b9b6f3f1c204cac7366a106772aea61670df1b21dc",
    (1, "deviation", "ls3"): "117976f462a22f62bc2ca8b1460b18f90f6f0411108a8d0a26c3b6ec385a9e88",
    (2, "absolute", "ec1"): "b1a1d0e04f1d78674be798daffd549a54fa954c076d5a530856fa919e340f0df",
    (2, "absolute", "ec4"): "0e2b1153b6e1170326450c0aba0315e1d4dd1dbf629142eb384caf67d0594c8c",
    (2, "absolute", "ec7"): "e868fcb15e1139dd7a28bc66b34ccb7130f9b596ef51808d686cc479511411a3",
    (2, "absolute", "ec9"): "f1ae4f4316f8f8283b2c6eaf398fcae7e766f973756375c00b2555b7e0aa7d44",
    (2, "absolute", "ls1"): "9a705e7fae4c3760aa36eb63f3677e192331068f5237567a9136ad24ce5e46e0",
    (2, "absolute", "ls3"): "6227c5c616d3643a1eb9ad42907f9db2c0faa136bfdeb385d4b51e7b88f9cc56",
    (2, "deviation", "ec1"): "6665de9447fb6c8223742b4bdafbd0a34660a131b5b0f5c7a463f565f6fdf96f",
    (2, "deviation", "ec4"): "0a5c48cf569d09520e51e0aa39b6c0b48da862b2568f880c747b3a10133d02ba",
    (2, "deviation", "ec7"): "7ec5d955e347fc51edffdd1434e9ad73cecd86e2dcaf58c289e75f10f669bcc5",
    (2, "deviation", "ec9"): "ec8b79194de01c3602ece42159fc7fb1ee365720a70a6d6732b6e116adf97841",
    (2, "deviation", "ls1"): "b5bb5f2b69142db9d05e8cba35fc3006bf7a0c583f8c7383b8fc2f21538f5690",
    (2, "deviation", "ls3"): "0ae3d8485e01c47b94d74cbe3b359f10dd03b62caa1eb7a6fc695b41a011d069",
}

# The rest of the tags on the same instances, and all thirteen on two
# networks with directed cycles: `data/cyc.rmcif`, whose arcs run both ways
# between most vertex pairs, and `data/rev.rmcif`, a 6x6x6 instance with
# a reverse of each inner arc.  On "rev" the cycle search meets finished vertices and
# every negative cycle runs through backward moves; on cyc.rmcif no
# negative cycle is ever found.  (instance, seed, variant, solver) ->
# SHA-256 of the `.sol` text; "gen" is the generator instance of that seed,
# and the solver seed is the seed.
MORE_GOLDEN = {
    ("gen", 1, "absolute", "ec2"): "3d77276c182acce61db68a4c9be825c968a1d8a2e8d80b852b7580943ebb2610",
    ("gen", 1, "absolute", "ec3"): "5c36ced9cf420d4439a558900a8eff65b503b8dec82f4fc25d2ec41882f3cadc",
    ("gen", 1, "absolute", "ec5"): "77dce3578eaccf9041bcf58830066702da0056f0bbf35502159ad2957f25a931",
    ("gen", 1, "absolute", "ec6"): "37aac2b653724fd952886967756d6a022da24c3efc3b3eedf278d20fb3167773",
    ("gen", 1, "absolute", "ec8"): "9081540436dbb4e5a6d59dd9e03f305abd7a94c88357cfeb943430b8cdc66eff",
    ("gen", 1, "absolute", "ls2"): "5945ff273d3e2f6a469721cdad7620eedc022bb177701459943481b767c01b9f",
    ("gen", 1, "absolute", "ls4"): "7b08713dfbd23831fa0f3d91bc7ed1196d2102b73b859f0a39a7f79fd766a434",
    ("gen", 1, "deviation", "ec2"): "91a2ec0a4c1f40578a4da3a45239d74cb4e314e05a4a1e5b2a266b3c0261d481",
    ("gen", 1, "deviation", "ec3"): "e23ca7b097367602ab128c321049087b8f506489e7066e4b011e8f53fa4be113",
    ("gen", 1, "deviation", "ec5"): "06f3de875e1ba16c80a789f2b1b00fb75753fea73236c0c53e709dcf86d45fb4",
    ("gen", 1, "deviation", "ec6"): "658f389761dd55191295ce1c16d93ef5696d23a7f1873593e2a91366ac4703ac",
    ("gen", 1, "deviation", "ec8"): "d1a95721c94a36b715ddec8ac1144854691f22e70102daa4a27faf5c34204a83",
    ("gen", 1, "deviation", "ls2"): "19d1c8478e3bdc6f7b3fdc65a6d03e4f8730f28727a67a1ce31c3cbad11b19b8",
    ("gen", 1, "deviation", "ls4"): "3442fca83ae4766c42c40e465fb1d5e4609f4eb13fae1b130f1e417ac1a6aee1",
    ("gen", 2, "absolute", "ec2"): "0742db3c7041cb66d772b6c2e3ea11bc099e0d7c74359f0fe32e93fc4f0e905e",
    ("gen", 2, "absolute", "ec3"): "1b1164b7b4bd3b69d7d71cd27987f7bd090126e763e4bb69bcc632cf0696107a",
    ("gen", 2, "absolute", "ec5"): "a6054f88060fa11bec3c3fa99f6332cd5f426569059738bbd00e9ad7e9671706",
    ("gen", 2, "absolute", "ec6"): "4efabdd5a72a5b3991bf9f410d977bfa2de1b05f38d5539b4ae0a5a2bf8303b5",
    ("gen", 2, "absolute", "ec8"): "17f58cb42e8c626dcea5c8f939261b10a6c706e40dbf1fee512f0dacf9d10405",
    ("gen", 2, "absolute", "ls2"): "0ca861258e539c060c6c6b6c8e84e8e1d4017e649501949e76937f20e3d43eed",
    ("gen", 2, "absolute", "ls4"): "fab8ad065359d5839fb834cf2b11239ca533998d14604187ad94051cd9bb044a",
    ("gen", 2, "deviation", "ec2"): "50ad390681aee97c5be1026579bf600d35b9ff0b8821dc07df21a99af9a2b9bf",
    ("gen", 2, "deviation", "ec3"): "cd7e2f78ab4d8e3d82e4718e4ff00d4f6798a173b4f32c9bf405b49f14c8e3de",
    ("gen", 2, "deviation", "ec5"): "baba86337cbca0d9152a323a91ad9470001c011be3fa825dd4e5d60711453a21",
    ("gen", 2, "deviation", "ec6"): "a3b83fc76fa581a688234da543d1211b308fe695e1e6e576cb7b038ce2fe6062",
    ("gen", 2, "deviation", "ec8"): "153815a46a6de5c6c931d2026ea9d92abeff8e10eb032fced65ff649a8d5a48c",
    ("gen", 2, "deviation", "ls2"): "2db1380b2121df5ce0c9729f978b5082e2e5a54ad8e2b92247710d0244ef9768",
    ("gen", 2, "deviation", "ls4"): "f50646ad2d251b9c29d22d6b64805e968a61d03d8a71d8f8b5ad321795cda336",
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
    ("rev", 1, "absolute", "ec1"): "5a9922e39fe02aa2a45ebd1e301a4322840bcf1d37762e11143bf33f3235178a",
    ("rev", 1, "absolute", "ec2"): "4b1edcf260299b223921d01223dc336b60fb83cebbf8af2e69e455423cdd2c83",
    ("rev", 1, "absolute", "ec3"): "d062a765c09571c662f7f1aa216419ace885898c71bbacc8574b09092280e708",
    ("rev", 1, "absolute", "ec4"): "02c3e0ef9c1c7d20f7fc32d4d2df328f3e1b6ffa3b57a1c58bdab1ffc445a107",
    ("rev", 1, "absolute", "ec5"): "95975b5d338f121a4d79245d66b8d3bc22738427ab37ae13537530de1b6238e5",
    ("rev", 1, "absolute", "ec6"): "8890ec6bcb294e8b3646521b99cf9e2f0b7cdb5982d44ac4e91e9b4384d495d8",
    ("rev", 1, "absolute", "ec7"): "4082d5674609f74f938f1d220af96f5c54d495715df285cc91e9b71869411cc2",
    ("rev", 1, "absolute", "ec8"): "b97fef0f7297588a7102f720acf5c67fdfd30657c69a06738e8570176b385b6f",
    ("rev", 1, "absolute", "ec9"): "40915a6a8a342f3bcde8d2b79615a7e88b434b07b3917134eb85654cf2a6aef0",
    ("rev", 1, "absolute", "ls1"): "83fc639a120c8a77d6455771b7ff640df255acba2d6f1a7a8afa71c3a5d0e5ac",
    ("rev", 1, "absolute", "ls2"): "a162ad37884ab916e62acb9149212e9694ec0120e4cab7006c22283afea4bf3e",
    ("rev", 1, "absolute", "ls3"): "605591ea04006e599a9585966b6d61faac500140c4322aa75a2f4d666e420698",
    ("rev", 1, "absolute", "ls4"): "6610215c3573bada29065b96570946906bc063f6fa7e9548ddc695b1653d6415",
    ("rev", 1, "deviation", "ec1"): "aa591e96c59d4982e6efe5c5b426daa98a15a217513f8825e7604504795ae35c",
    ("rev", 1, "deviation", "ec2"): "df36783a6c1d35bb6d7dc549d67fe17fa7e7f83c706a2f5977c273b81be99c31",
    ("rev", 1, "deviation", "ec3"): "83e28377bdfe0901e506e60a7dbb7aeddb2ebd33d3d55ce73c0eeccaf4c43fb5",
    ("rev", 1, "deviation", "ec4"): "b7e9fc5e6f2cbc5a65c92d99641d90daf9bd365e97176991e3bdd92fab77dc3c",
    ("rev", 1, "deviation", "ec5"): "80d0e9ccb3278311b349b8a47189b3c7f1ffdb127320fc47951d3fe76527e969",
    ("rev", 1, "deviation", "ec6"): "4d3f1eb90f511edbdaa3c00dc8d89693f1289dab93e14ac5dbb5628c49712bdd",
    ("rev", 1, "deviation", "ec7"): "ad7ed36fb592a93abe004bde00310506e29752023251f9536eb4b4af4288fc2f",
    ("rev", 1, "deviation", "ec8"): "9151a25eddb68211b60b9f7e6f62cc4a4d71f24b209bddfed4ba2a207974ee0a",
    ("rev", 1, "deviation", "ec9"): "710d3a151dc9ce8eb3972895f400b6cd2696e780602f9b4b294b2d04f274ec89",
    ("rev", 1, "deviation", "ls1"): "4f50fb39a7c9a89f3ca7db09a24cea052fe07e5faef8f820dfa23cb5f177e6d9",
    ("rev", 1, "deviation", "ls2"): "db7a6909116b83d11ccda29c4052d8e4b91a1149548b73a03ec57710ababb477",
    ("rev", 1, "deviation", "ls3"): "5b9a0e90b25be55be07a3dfd8b029de4284dc0ac130f4e68cd5523fd3c8cbaa0",
    ("rev", 1, "deviation", "ls4"): "911df3e10d600f34a7ec56ce088627564b90d8ff3a08b47a526dd87ad4c5cb64",
}

# (instance seed, text) -> SHA-256 of `write_instance` and of `export_lp`
# for each variant, pinning the instance and LP text of a generator instance.
TEXT_GOLDEN = {
    (1, "absolute"): "26758f6bafb53b7a9e5ad3c0e8077a1d9b4ff8ad0f70ba35b16a3fa99a865c9f",
    (1, "deviation"): "d7483907c2edd53b7e21ba52f8f42893fa43e055fa41abbdecd463f3959a160f",
    (1, "instance"): "9ffde4fd116c863926140b977f041b6d90f1bdf6b21220145fa87e2b7542912f",
    (2, "absolute"): "fccbbd50334fcc429cdb1835b13286320ea3d7ba75e359d41641162b4a14ff12",
    (2, "deviation"): "943681d36b371a20f3542b48ac40d6a49b18bcb1dd9c914c18b28db3a0b8f124",
    (2, "instance"): "7812c195e66de3dcea8953c4cba6f689b674c2945f55a68034cc9ee22bc944e9",
}


@pytest.fixture(scope="module")
def instances():
    """Two 6x6x6 instances with five scenarios (84 arcs, F = 20 and 13)."""
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
    rows = tuple(row + tuple(row[i] for i in inner) for row in instance.costs)
    return Instance(network, rows, instance.flow_value)


@pytest.fixture(scope="module")
def cyclic():
    return {name: parse_instance((DATA / f"{name}.rmcif").read_text()) for name in ("cyc", "rev")}


def test_rev_fixture_file_is_the_built_instance(cyclic):
    # data/rev.rmcif, whose digests MORE_GOLDEN records under "rev", is a
    # layered instance with its inner arcs reversed: the arcs before the
    # first reverse of an earlier arc, and then those reverses
    text = (DATA / "rev.rmcif").read_text()
    rev = cyclic["rev"]
    net = rev.network
    pairs = list(zip(net.tails, net.heads))
    m = next(i for i, (t, h) in enumerate(pairs) if (h, t) in pairs[:i])
    forward = Instance(
        Network(net.vertex_count, net.tails[:m], net.heads[:m], net.capacities[:m]),
        [row[:m] for row in rev.costs],
        rev.flow_value,
    )
    assert with_reversed_inner_arcs(forward) == rev
    assert text == write_instance(rev)


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
