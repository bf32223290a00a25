"""Byte-identity of `cyclicblocks enumerate` and `cyclicblocks oracle` output.

Each fixture descriptor is written to a file and enumerated through
`cli.main`, in JSON and in CSV; the sha256 of stdout and the exit code must
match the values recorded below.  A change to the corpus generator, to the
enumeration, to the characters or to the output format shows up here.  The
oracle runs pin its report, failure order included, on six grids, and the
`local` runs pin the dense character vectors of every parameter list on a
grid of small groups.
"""

import hashlib
import io
import json
import random
from contextlib import redirect_stdout
from dataclasses import replace

import pytest

from cyclicblocks.brauer_tree import (
    BlockDescriptor,
    Edge,
    group_algebra_block,
    star_tree,
)
from cyclicblocks.cli import descriptor_to_obj, main
from cyclicblocks.local_reps import EndoPermParams
from cyclicblocks.oracle import (
    block_params_for,
    general_params_for,
    random_block_descriptor,
    random_corpus,
)


def fixtures() -> dict[str, BlockDescriptor]:
    out = {
        f"corpus{k:02d}": desc
        for k, desc in enumerate(
            random_corpus(primes=(3, 5, 7), n_max=3, seed=4, count=12)
        )
    }
    out["random-41-2-40"] = random_block_descriptor(random.Random(14), 41, 2, 40)
    # large e, where the orbit minima come from the e-th-power key scan:
    # trivial W with a non-leaf exceptional vertex (hooks at index n), and
    # W = (1,) with an exceptional leaf (shape 3)
    out["random-67-2-66"] = random_block_descriptor(random.Random(4), 67, 2, 66)
    out["random-101-2-100"] = random_block_descriptor(random.Random(13), 101, 2, 100)
    # e = 12 with 16*e*e < p^n, where the orbit minima come from the
    # lattice lines, and the deepest n of the benchmark's sizes
    out["random-13-4-12"] = random_block_descriptor(random.Random(0), 13, 4, 12)
    out["random-3-9-2"] = random_block_descriptor(random.Random(0), 3, 9, 2)
    # e > 255, so that a count or position that does not fit a byte shows
    out["random-1009-2-1008"] = random_block_descriptor(
        random.Random(0), 1009, 2, 1008
    )
    # their sign-flipped twins, which print no exceptional part that is
    # non-zero at valuation level 0
    for name in ("random-13-4-12", "random-3-9-2"):
        desc = out[name]
        flipped = {v: -sign for v, sign in desc.signs.items()}
        out[f"{name}-flipped"] = replace(desc, signs=flipped)
    out["star-neg"] = star_tree(4, 5, 2, EndoPermParams((1,)), -1)
    out["star-pos"] = star_tree(4, 5, 2, EndoPermParams((1,)), 1)
    out["group-algebra-3-2"] = group_algebra_block(3, 2)
    out["m1-3-1-2"] = BlockDescriptor(
        p=3,
        n=1,
        e=2,
        vertices=("a", "b", "c"),
        signs={"a": 1, "b": -1, "c": 1},
        edges=(Edge("E1", ("a", "b")), Edge("E2", ("b", "c"))),
        cyclic_order={"a": ("E1",), "b": ("E1", "E2"), "c": ("E2",)},
        exceptional=None,
        w=EndoPermParams(()),
    )
    # ids that JSON must escape: quotes, backslashes, a tab, non-ASCII
    out["escaped-ids-7-2-3"] = _renamed(
        random_block_descriptor(random.Random(5), 7, 2, 3)
    )
    out["escaped-ids-m1"] = _renamed(out["m1-3-1-2"])
    return out


def _renamed(desc: BlockDescriptor) -> BlockDescriptor:
    """The same descriptor with every vertex and edge id replaced by one
    that needs escaping in JSON."""
    vertex = {v: f'\u00fc"{v}\\\u03bb' for v in desc.vertices}
    edge = {edge.id: f"\u00e9{edge.id}\t'\"" for edge in desc.edges}
    return BlockDescriptor(
        p=desc.p,
        n=desc.n,
        e=desc.e,
        vertices=tuple(vertex[v] for v in desc.vertices),
        signs={vertex[v]: s for v, s in desc.signs.items()},
        edges=tuple(
            Edge(edge[x.id], tuple(vertex[v] for v in x.ends)) for x in desc.edges
        ),
        cyclic_order={
            vertex[v]: tuple(edge[x] for x in order)
            for v, order in desc.cyclic_order.items()
        },
        exceptional=None if desc.exceptional is None else vertex[desc.exceptional],
        w=desc.w,
    )


# name -> (exit code, sha256 of JSON stdout, sha256 of CSV stdout)
GOLDEN = {
    "corpus00": (
        0,
        "3ded84df5fb6b1c2e9e2100b95d6b9704e051d3c12ea3e34f9e2fcedbf95b3c0",
        "c45d0945da6e3db365d07806af3602a249d454c93281718e158c1e7d028c1dd6",
    ),
    "corpus01": (
        0,
        "a2b12624b8f852adffc421fd18e73cd317df7beb55e91339aa48789dddd4e59c",
        "0d845951be481eb2df885be70bbbb8881ff0798ec3b7e90e3b026dc4d8be04fc",
    ),
    "corpus02": (
        0,
        "662f9ffa93e6edf48778f99a83aef9b6e55dce1cdca3b23218ced4a72dcf2954",
        "95b67932d5529d1016eb16a1494daf00899a8d2d1f19c8eec750e066645acccf",
    ),
    "corpus03": (
        0,
        "1e4ad5885a912997c7dede4f13ea65f5e6813de64c894deed5b352723a3dc120",
        "80c7bb6188ea1e0769ec7c2c06abe34683e18af4c0d4de682f4503b12d018cd1",
    ),
    "corpus04": (
        0,
        "5cb18467f840c777b55d125e64d5b2593a7b28689d88917c74daac4148378da6",
        "592812a30ca2d990058f8ea919adac22981c88ee12ae442db8457b3a1a949225",
    ),
    "corpus05": (
        0,
        "06cc02a4bfd1d3e9862eff44a07e2b92695a16e51032ce0c999cc0d775a8efa4",
        "62231bb6a53ec6c54cab3d2cc06a601984e132d60f492949e1b4be7a6fb971a4",
    ),
    "corpus06": (
        0,
        "7c2b4fb9ea7b1fd0923edf5afe745fbfe70fa4c026e1b8543a7504cebdd146f6",
        "988bb0b889fa99f7ccd4c259e535ca5419a0a4b4166500767834f6b7acc26140",
    ),
    "corpus07": (
        0,
        "1ee2a5ff1de854d8ed0decde310cc65734c88d291aad11fa825de68b904c1eb0",
        "716d954f0a87a6335732777c67b28684734d828e2d01e347a6da0d3ead7354a0",
    ),
    "corpus08": (
        0,
        "b21954c6c8b59d2453ace797fbdaf0971906061b96de418f8ddc8a81c0ef33ef",
        "326e1c09280c7167a0f5b7745dedde5f5e7000416417e47acbaaa0d2b565c48f",
    ),
    "corpus09": (
        0,
        "51cbed114f9284f717517e1189a19e5fdc6d225795f0f53b021684fd52346b00",
        "3ba03821a629aaed4065e91bc64c2b47d93e093a9c53033c42a39e38819ec4bf",
    ),
    "corpus10": (
        0,
        "3ded84df5fb6b1c2e9e2100b95d6b9704e051d3c12ea3e34f9e2fcedbf95b3c0",
        "c45d0945da6e3db365d07806af3602a249d454c93281718e158c1e7d028c1dd6",
    ),
    "corpus11": (
        0,
        "c9875c58e24aec43ec7cc92769f7dcaff2257eb70bc4abe77132b862ade82b0b",
        "381c40847a2b9e0f3f50f9acd45b6e263a7cf6fd3ad155a738dc6f35f06e3325",
    ),
    "random-41-2-40": (
        0,
        "3c7ec82a9c3920064bacc739b5c158f7abe92d6379755ba8c37968bd56b78115",
        "0a65d4afb9d10932058ebc655d318d6a4e8de987a9a64cd0510f96f5959fcc75",
    ),
    "random-67-2-66": (
        0,
        "9743e6874633cbf041faae5e886969e7c9de4fd98871bc7c77b083f5b5ec3bb6",
        "c7baee69b781b69b17bcbdfcff2f6cbd61e79c858aec9c1e5beb17bee0500f3f",
    ),
    "random-101-2-100": (
        0,
        "1580940178d7f0b93a50935b67ef4fbca43dbba344ef2de88f5a38a1f424e3e3",
        "053c0fb89b6df9654f5d854282e92f1c93f63e581f9711d3ceb8fd4118ef0e35",
    ),
    "random-13-4-12": (
        0,
        "0a5597a0e29ace08e6d9e1727256f5def7602b90b8e2618245ce6868631365f5",
        "a05bfc6d173a2f219a264559cd2a1218bfe7f688a8838387c82c6c3410f84064",
    ),
    "random-3-9-2": (
        0,
        "a9ec88b5a3a7d46a4cb2aa19b7140c23368fb26b287886af2e024559d91e0894",
        "9c6c774eb9061e453ffc26b5433e73cde669eef23186b410e79a1edea06b6098",
    ),
    "random-1009-2-1008": (
        0,
        "5e4b3a7dd6e22e0b182221dfa8bb1928898f374e0d4b19a8c8a2d6554c168ffa",
        "e71fbe892dac631f5979e3e1eefcaecf9d6f1448d8a5a7de3f4e39d6cd6e1b2e",
    ),
    "random-13-4-12-flipped": (
        0,
        "0c164bfce99ea847b7e26f8468beb5dabffde7be907dd092b036c692d1c2927f",
        "f380e5b95d9fc393bb8f2fc12a975dadbfc349d80363ba862b09bdc8072ebe7f",
    ),
    "random-3-9-2-flipped": (
        0,
        "612509a1f6cd5b07a659e4d571613d2dcced8b82adb5a8d10023a475ee5b12ba",
        "0d3d927f0c5fb73e417a6806099ce4aa66bc4c5364481aa87a0b499143860ea5",
    ),
    "star-neg": (
        0,
        "943c6bfeeba43d048bb882d8ec5e189edf5d8c79911decbf56cbc3cde46eae73",
        "a6111c7fa981ef67d33e526436dc27f12a60cc7d85a2f8259f930b6419a1f0e0",
    ),
    "star-pos": (
        0,
        "a89fa4c7e9b2592d142b24225d9e90f1dea8c19d66d213ce36a530bdf8638b60",
        "ba83c6432b2a9fa5ede5969e029cc0dc6d2ee8db73a83db26faae4e967494a5d",
    ),
    "group-algebra-3-2": (
        0,
        "68793b268d7c2fb3d2b185ad89469a1a4fbe3fbd6b2df259d5b60c563f81feac",
        "141d9af5a6b05c250a7c34bd87b90c85dc963656841455d95172fbe9af01c1c2",
    ),
    "m1-3-1-2": (
        0,
        "1194640c53e414e3f6b520979af024e2e39eb8659397bdf951ed5c8d9f028904",
        "29cbce119ecac849fa64cb7446b2d1874d0ca340fba97cec25449fc6db6a0d64",
    ),
    "escaped-ids-7-2-3": (
        0,
        "56960432a1a581ed2ddbb0506355d8df400d3e95e01751db318f067dec83be43",
        "68f7f9ac93e0bbbf5537f3bf6bcf5bc4219e4c0253d07756ddbe7650565d320f",
    ),
    "escaped-ids-m1": (
        0,
        "a85465c1fad9a594323d0ac0908771e8d25faa2b527ecfdffd8ad4eaa2c6017d",
        "f5eb7d4a873f2ce26b7e7bc94cffaa3c256e296e878154453e6ba8ac85ec5c2c",
    ),
}


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def test_enumerate_output_is_byte_identical(tmp_path):
    seen = {}
    for name, desc in fixtures().items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(descriptor_to_obj(desc)))
        code, as_json = _run(["enumerate", str(path)])
        code_csv, as_csv = _run(["enumerate", str(path), "--format", "csv"])
        assert code == code_csv
        seen[name] = (code, as_json, as_csv)
    assert seen == GOLDEN


# argv -> (exit code, sha256 of stdout)
ORACLE_GOLDEN = {
    ("oracle",): (
        0,
        "a5250d3939492a8ad788ca9639e29a54c2172a7f5e677fafd7ae5e1c3de26f0c",
    ),
    ("oracle", "--inject-fault"): (
        1,
        "ed69be86db4f10c97468e58b634f6772561b266cc62884e07e25d204258850c3",
    ),
    (
        "oracle", "--primes", "3", "5", "--nmax", "2", "--seed", "7",
        "--corpus-size", "10",
    ): (
        0,
        "3fd5734376f4c844ce68d0c670387d114da9590fa04b3f7dda6777acfb07baee",
    ),
    ("oracle", "--nmax", "4"): (
        0,
        "db82f2e606039e9540d65618abb1f7b68ac20fc309595d091eedb9aaefc8aaf0",
    ),
    ("oracle", "--nmax", "5"): (
        0,
        "7dea6d84b7f67adc2f2f5fb4f72410c7de8b5f2251ba9da843a49e40a932cfda",
    ),
    ("oracle", "--nmax", "6"): (
        0,
        "fcbbb0f1164da903134dbb8a6fd80cf479ca18dca910e45a1f47fdd5c95d20dc",
    ),
    ("oracle", "--nmax", "7"): (
        0,
        "667892a3e06baa9cc56792338bf1401bd3199d313bbf93b0b30a82dd067c77a5",
    ),
}


@pytest.mark.parametrize("argv", list(ORACLE_GOLDEN), ids=" ".join)
def test_oracle_output_is_byte_identical(argv):
    assert _run(list(argv)) == ORACLE_GOLDEN[argv]


LOCAL_GRID = [(3, n) for n in range(1, 5)] + [(5, n) for n in range(1, 4)] + [
    (7, n) for n in range(1, 3)
]


def _local_argvs(op: str, p: int, n: int) -> list[list[str]]:
    """`local det1-char` for every W inside 0..n-1, or `local morita-char`
    for every block-form W and vertex index."""
    base = ["local", op, "--p", str(p), "--n", str(n), "--w"]
    if op == "det1-char":
        return [base + [",".join(map(str, w.indices))] for w in general_params_for(n)]
    return [
        base + [",".join(map(str, w.indices)), "--vertex", str(i)]
        for w in block_params_for(n)
        for i in range(1, n + 1)
    ]


# (operation, p, n) -> sha256 of the transcript of all its runs, in the
# order of `_local_argvs`: each run adds its exit code, a newline and its
# stdout
LOCAL_GOLDEN = {
    ("det1-char", 3, 1): (
        "23b0ca4b216ea3db02ec750fbc27d11eb8cdbad003a7843db8a6c8b4275309bd"
    ),
    ("det1-char", 3, 2): (
        "cb09c805e6d438997a9894483a28181fda95ce07fb641a01e0170afa2c888f63"
    ),
    ("det1-char", 3, 3): (
        "aa0bcf5d0d590f63ce50dd8b839d6331c97cdc178987bd846a01a045608e80b9"
    ),
    ("det1-char", 3, 4): (
        "e206705c74d006e53c4ab7252a4c3f3c7d802126983ac5cae56993263d376569"
    ),
    ("det1-char", 5, 1): (
        "451b28b8459792baec84ddb60fab2d5cc381372c50830418ecbe8bd982e917cd"
    ),
    ("det1-char", 5, 2): (
        "8a35eb9b3ae2d0d1dc417d4a9cddc00ce8f3ee84c6acbb53a849a2e22427d61e"
    ),
    ("det1-char", 5, 3): (
        "88d3ee5de7ec2c0d72d6764413f46a8de21936b676c2f9d9c549005a8ca04a2c"
    ),
    ("det1-char", 7, 1): (
        "a93191641ffe706878d093d37994875d692eeeed9bfb7882e41cf0e0419eb523"
    ),
    ("det1-char", 7, 2): (
        "1cd6133c2fbbeaafc26063aa12217b94b622e9c628d0c631b1db6ea1475eb7f8"
    ),
    ("morita-char", 3, 1): (
        "9116570b70e64b455bd9c737e6e4c84eba0297f0e0da941164d159edc7b7d981"
    ),
    ("morita-char", 3, 2): (
        "15b8ac0998e9fbac674497d17649c71a5d2bb334428beff8c236dbd55757ec94"
    ),
    ("morita-char", 3, 3): (
        "7c99edc802a2bd81c6771ef2c5b5177d2a44b42e1ed8bf0637e2cb5b05d8ec8f"
    ),
    ("morita-char", 3, 4): (
        "17ecc3167dc3b45e5994b36aa8c528f59e6f0da355f115ae1b1be8aa3c8da782"
    ),
    ("morita-char", 5, 1): (
        "1d7d35f328f8df4044af74ce128af47c8fb56d6530edec20c674b48d58caa492"
    ),
    ("morita-char", 5, 2): (
        "5e9c4cc5053ae536099d7075334dd3dd69a748d8528629fc414eaeadd6b4e70e"
    ),
    ("morita-char", 5, 3): (
        "ad953fef4461909a013517494091f9ae8eff9dbb4dcfa7937699827497b74498"
    ),
    ("morita-char", 7, 1): (
        "30ddfa815b264f5982e0b9c33e18be3742233cc029016a0af2394aac64a76530"
    ),
    ("morita-char", 7, 2): (
        "89b94fd4c8b2aaa18a0ecaa9ebf6fee40b3de4d90b399fe720eef83491862c67"
    ),
}


def test_local_output_is_byte_identical():
    seen = {}
    for op in ("det1-char", "morita-char"):
        for p, n in LOCAL_GRID:
            transcript = []
            for argv in _local_argvs(op, p, n):
                out = io.StringIO()
                with redirect_stdout(out):
                    code = main(argv)
                transcript.append(f"{code}\n{out.getvalue()}")
            seen[(op, p, n)] = hashlib.sha256(
                "".join(transcript).encode("utf-8")
            ).hexdigest()
    assert seen == LOCAL_GOLDEN
