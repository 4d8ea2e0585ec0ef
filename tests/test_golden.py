"""Golden outputs: the exit code and the sha256 of stdout and stderr of
every subcommand on both fixtures, and of ``build`` on the seed-7 ladder.

Each subcommand runs in json and text format, ``build`` and ``develop``
also in dot.  ``develop`` runs with ``--part`` on every part and with
``--edge`` on the lowest- and the highest-label inter-edge (ties broken by
vertex names).  The invocations are read off the fixture files, not from
the package, so a change of the package's API leaves them alone.

``LADDER_GOLDEN`` pins ``build`` in json, text and dot on every instance
the benchmark's generator writes for seed 7 (``bench/instances.py``),
keyed by file name.  Those instances are larger than the fixtures, so
they reach spherical subsets, chains and 2-chains the fixtures do not.

Output must not depend on Python's string hashing, so the tables are
computed in child interpreters under three ``PYTHONHASHSEED`` values and
each must equal its golden table.

When a change alters an output on purpose, print the new tables with

    PYTHONPATH=src python tests/test_golden.py

paste them over ``GOLDEN`` and ``LADDER_GOLDEN`` below, and say in the
change's notes which invocations changed and why; the diff of this file
shows them.
"""
import contextlib
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ("affine_parts_join.json", "touching_triple_control.json")
SUBCOMMANDS = ("check-rel", "classify", "build", "links", "kpi1", "acyl")
HASH_SEEDS = ("0", "1", "20261018")
LADDER_SEED = "7"


def invocations() -> list[tuple[str, ...]]:
    """Argument lists after ``--input <fixture>``, keyed by fixture name."""
    out = []
    for name in FIXTURES:
        doc = json.loads((ROOT / "fixtures" / name).read_text())
        for sub in SUBCOMMANDS:
            for fmt in ("json", "text") + (("dot",) if sub == "build" else ()):
                out.append((name, sub, "--format", fmt))
        part_of = {v: i for i, part in enumerate(doc["family"]) for v in part}
        inter = sorted(
            (e["m"], *sorted((e["u"], e["v"])))
            for e in doc["edges"]
            if part_of[e["u"]] != part_of[e["v"]]
        )
        selectors = [("--part", str(i)) for i in range(len(doc["family"]))]
        selectors += [("--edge", u, v) for _, u, v in (inter[0], inter[-1])]
        for sel in selectors:
            for fmt in ("json", "text", "dot"):
                out.append((name, "develop", *sel, "--format", fmt))
    return out


def _row(argv: list[str]) -> list:
    """Exit code and the sha256 of stdout and stderr of one CLI call."""
    from relartin import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return [
        code,
        hashlib.sha256(out.getvalue().encode()).hexdigest(),
        hashlib.sha256(err.getvalue().encode()).hexdigest(),
    ]


def run_all() -> dict[str, list]:
    return {
        " ".join((name, sub, *rest)): _row([sub, "--input", str(ROOT / "fixtures" / name), *rest])
        for name, sub, *rest in invocations()
    }


def run_ladder() -> dict[str, list]:
    """``build`` in every format on each seed-7 ladder instance."""
    table = {}
    with tempfile.TemporaryDirectory() as out:
        subprocess.run(
            [sys.executable, str(ROOT / "bench" / "instances.py"), "--seed", LADDER_SEED, "--out", out],
            check=True,
        )
        for path in sorted(pathlib.Path(out).glob("*.json")):
            for fmt in ("json", "text", "dot"):
                table[f"{path.name} build --format {fmt}"] = _row(
                    ["build", "--input", str(path), "--format", fmt]
                )
    return table


GOLDEN = {
    'affine_parts_join.json check-rel --format json': [0, '217f77cd0ce625d9f64b4e228f9524a475c4214e3e646e40523515db49052982', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'affine_parts_join.json check-rel --format text': [0, 'ceb9be4f2d1caa7668580de367cfe9eb732b2fd114aaa5e539e26f4afa4f0a16', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'affine_parts_join.json classify --format json': [0, '969bc0ff3850eabdf3aaa47c446660cad784d493de2e6f57a14aae2bf23d366d', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'affine_parts_join.json classify --format text': [0, 'a7539870dde8ead53f57f8a886228f287de7d925f6b19f005a770138116da2b8', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'affine_parts_join.json build --format json': [0, '529cddde1870f0b0d7ae618dc353e90b0366de6cb980f4a6938e32d62d302b00', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'affine_parts_join.json build --format text': [0, 'f97250b77ead403dcc696fa692cc89d589ba1973792744e73cf11df8d52f8125', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'affine_parts_join.json build --format dot': [0, 'fdd3651783073379a88a14736fbee2249f7dd57bc2d6ad32f7fe3b14d834267f', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'affine_parts_join.json links --format json': [0, '2ca0ff63ef2a91a9136d9c2c5dedcbd3cbf43e5d300862833e9cccc8dba5254b', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'affine_parts_join.json links --format text': [0, '7b30afd4c2da4e278583353dd1f502a3a024729adfeacf7f7f5c0d55772861b2', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'affine_parts_join.json kpi1 --format json': [0, '5965a4aa69f4bda087c77f3a9aab5f4a5b10c6fafa26b5c05e138b5f6f2f758a', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'affine_parts_join.json kpi1 --format text': [0, '16c53373eebecb28fdb454bc93bce1c6f07c0ded6320a8d2aa348084433124a0', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'affine_parts_join.json acyl --format json': [0, '315e84276d3f21f63181bf2dd20538d213f4a1102dfa0ad3416bb94d6d6620fd', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'affine_parts_join.json acyl --format text': [0, '04df2dc6cdd734855930aa530bce1087617a7073e24b33b71a4cd53fabf8e67f', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'affine_parts_join.json develop --part 0 --format json': [1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'c55960e99cbb2f90048cd29ed2eb6d599652e5267cdea85ec7370783114ebf0a'],
    'affine_parts_join.json develop --part 0 --format text': [1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'c55960e99cbb2f90048cd29ed2eb6d599652e5267cdea85ec7370783114ebf0a'],
    'affine_parts_join.json develop --part 0 --format dot': [1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'c55960e99cbb2f90048cd29ed2eb6d599652e5267cdea85ec7370783114ebf0a'],
    'affine_parts_join.json develop --part 1 --format json': [1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '0c86eb686e0adafb3e362789aca0843ff1862705490e03f5fa1c99492a9987d4'],
    'affine_parts_join.json develop --part 1 --format text': [1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '0c86eb686e0adafb3e362789aca0843ff1862705490e03f5fa1c99492a9987d4'],
    'affine_parts_join.json develop --part 1 --format dot': [1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '0c86eb686e0adafb3e362789aca0843ff1862705490e03f5fa1c99492a9987d4'],
    'affine_parts_join.json develop --edge a1 a2 --format json': [0, '0357e242ad394ed7d784ed760312e793ef381ff14baf920e481ce622012c02aa', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'affine_parts_join.json develop --edge a1 a2 --format text': [0, '4171c5643f7420d671064a9fd09415db919bae0a9acb9418f986fb9a89e0c97b', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'affine_parts_join.json develop --edge a1 a2 --format dot': [0, '4cc930bb99cbf37292084f991d5e4964ab4f00ed25d5181fe943840db570f4f9', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'affine_parts_join.json develop --edge d1 d2 --format json': [0, 'f1d01ee737c892fa336b7951163eceb87567f9562adbcfeaad2346c5bc807420', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'affine_parts_join.json develop --edge d1 d2 --format text': [0, 'e50937e5a65b056ef0f05de0190a77cf23984ac98a47575ddc98de20492803dd', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'affine_parts_join.json develop --edge d1 d2 --format dot': [0, 'c0a3bf9df7ae5e3f206cfad811a010836b7b5924737b9c7b31a533592c9b7474', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'touching_triple_control.json check-rel --format json': [2, '2a1898873595b4ca7912e3ecedae94f94b669e0454f5a3a1f3954b2f72321653', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'touching_triple_control.json check-rel --format text': [2, 'f40bf23ea96d712b95c4b2ef1fbcf2e4b1386afdedcb120e7e58c1f8e124143a', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'touching_triple_control.json classify --format json': [0, 'bd108e7995b018c316dcb8c78d55f9241dca7683e664b421eeb2946865399a00', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'touching_triple_control.json classify --format text': [0, 'a9918c7eebd85e50fa02db3832aa2891743b2faf3b49871218727810d9a32626', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'touching_triple_control.json build --format json': [0, 'd5e7aa323a56ebe015a1b342caf12d982463180cee9e37d8a22290919f035078', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'touching_triple_control.json build --format text': [0, '241cba64c3655f8e2349cd8544abbef3097afa8698f471d189f11d2998514ef6', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'touching_triple_control.json build --format dot': [0, '1fc054e1385b97db667376ca87fe2f6438ae6d6eddde17d52b15f17257e4f04a', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'touching_triple_control.json links --format json': [2, 'a91d8fd6502ec4c655c86cb9d998c2e84e1ea32ea19a310f91005d05e7052ea3', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'touching_triple_control.json links --format text': [2, '3b78d145e1d09fdf2bb9a86e76500d246d468eb5d7b9d85300c61d014aed3137', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'touching_triple_control.json kpi1 --format json': [2, '9e25cc032b27e29db532aac8d4fa8f1f10e52dfc00a1a09008d59d8d1638c15d', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'touching_triple_control.json kpi1 --format text': [2, '8382be5c19c4f441f755fb128a1163e3d71d0d6c19e9be3e9d130514fe5e9e3d', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'touching_triple_control.json acyl --format json': [2, 'e89f063df725a012d1ad23e30b7d7e3cf4d6e85be968877ecf9a5d8bcc04fcc4', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'touching_triple_control.json acyl --format text': [2, '80ffcda29e0586be105637c698c311646a58845bbd9faedc8fe74f68ae70a2ec', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'touching_triple_control.json develop --part 0 --format json': [0, '09db0d42df174ef0f4f5122b656cc5e64e6d2d47b734c0bc328e685126a39aa0', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'touching_triple_control.json develop --part 0 --format text': [0, '70af8585d667baa89b24d95461392c7babb9a68ea51c415352579265af3d443e', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'touching_triple_control.json develop --part 0 --format dot': [0, '8f72054c41cfd7189282781d67b1dc387c38e173b55cdd607c0066631fd13e30', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'touching_triple_control.json develop --part 1 --format json': [0, 'c5b9528f2421c9fc32b9ec675abef23bb64b80b3d829654b2653c5589056a53a', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'touching_triple_control.json develop --part 1 --format text': [0, '872f0a82f1c8aaa61391b16587b502e3bc6ad24af81c6edcbe459fa4737a6ea6', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'touching_triple_control.json develop --part 1 --format dot': [0, '88785fc77bc1f6229669d6e464ec34dbdc93ef431b9d3bf9d9e303c181221bc8', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'touching_triple_control.json develop --edge a b --format json': [0, 'd942c4e468288e35b28bb1bfa7395c57bb395b3f3515869f22dc75321d6e1596', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'touching_triple_control.json develop --edge a b --format text': [0, '05ca55f3fe1bd66e6e67ecbd9212e188d99ac6041b3be3aee5071f2436b15ff9', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'touching_triple_control.json develop --edge a b --format dot': [0, '7cd1cacf8398a9762342a660cb1a78b9244c9fd180079a3ced65df2869d6fd9b', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'touching_triple_control.json develop --edge b c --format json': [0, '986d3f3ce0d787d4ba25bf58fe9ff9e446ea5d2e3e803e4f9aefc77198f3514b', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'touching_triple_control.json develop --edge b c --format text': [0, 'd8802129ef2b1cf69fd5b3be3ee7f55f6b7e923d79340bfe89d6df68a540f2fd', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'touching_triple_control.json develop --edge b c --format dot': [0, 'de3e1c60849783b5b7993f9737d377b0082e993030e5d3b02d4cfad52d4a51ed', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
}


LADDER_GOLDEN = {
    '20x2-twin.json build --format json': [0, 'c9209a86963278a2709d03b9c79c1641e17e1f24b8d0d624c3c3aa24ff488c25', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    '20x2-twin.json build --format text': [0, '6813f53a3d88b13f0e17af098927f7342f46ee3c22ea7288e6c011982cca22c6', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    '20x2-twin.json build --format dot': [0, 'c435f35f96983329bbb491bcf45c9b4bcfbc97609544760f0f968fb8cd6b83f4', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    '20x2.json build --format json': [0, '1ca519e7281f1ae965a0de4140ed7521be18bf08942b8e6a2286b0a6f57c28d2', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    '20x2.json build --format text': [0, '2dc9cf9721c786e8eebe65e0036ff19fcce32e2a53acb0d149165db7b861adb5', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    '20x2.json build --format dot': [0, 'cd796217cb9eb68a6881e868ddafcd8b9cb1f7b499450d14c2761aa23cf35097', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    '2x6.json build --format json': [0, '02728052026a8c3f6287200479a0c00f413b6253b7c81603d7c881e7173915d7', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    '2x6.json build --format text': [0, '7d1879288a5681f45902afd0b46b63bcb18f7d79d00e1f176ea5aa7133837e91', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    '2x6.json build --format dot': [0, 'bd19b1edf81ed9651b62e35c04e194377203cf0a84f9f9643eee7accdab4b511', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    '2x7.json build --format json': [0, 'b681a73179ae30e1ee22fdc66d7139ea01977eeaef0748ba37d370e5df7ed3d5', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    '2x7.json build --format text': [0, '86419153864ffef83748815f4fe5913006e6f83bfde23399c3097861b30232a9', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    '2x7.json build --format dot': [0, '41a548ddd6b75e8de8fd560fc3b6078d817eb6708b5b6ae6ce6bd41f6a680b85', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    '3x6.json build --format json': [0, '8c9c1c9b6e708bce449de36e0b6133a77e69567167b9bd40d362de0c929de798', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    '3x6.json build --format text': [0, 'da1478f84d68106a3d761475d29a232c4d139ed228e728eaddbe01f25223a6c0', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    '3x6.json build --format dot': [0, '7297050374e904190cb3294127fdbe708f2c1d18569a58bc985d40576fc38510', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    '40x2.json build --format json': [0, '95225f49394d936815c43c706080cb338a5f5c1ed674d018a0ce98f61ec47001', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    '40x2.json build --format text': [0, 'd4aaeb6d4f51d8f1b165ac3c97d8b0a8e5f66b9b76f5f438eafe752981ccfe21', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    '40x2.json build --format dot': [0, 'e446b38aef82d57d94f8be31d31684ae70121b69f1ea4e9affe335405a890654', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    '4x4.json build --format json': [0, 'ddae2910c641a9cbe238ff031ffaccab7079ce4e4f56cea680878aefe1c62d5e', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    '4x4.json build --format text': [0, '355dc6c9c05a40f5b92b8a00dd79d306f6693e56c118e476de66aa70cce51637', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    '4x4.json build --format dot': [0, '61b4413e9ea5fce7c5d0910a51ac8125fe7a5257e739be691817adf3a74c702d', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    '5x2-twin.json build --format json': [0, '5a90791d8e0673a208c6fa548a5e3c7ff686cdc66ec2cb688ce2d0853045fb3c', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    '5x2-twin.json build --format text': [0, '1e3edeb69e7bd595e4ee486b1cb119556033ec73053b1928d759ed826c2e2d5e', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    '5x2-twin.json build --format dot': [0, '4b1bf5f2e3e0fc1a1a3626c1113e2a14151ff20bc43ac16bebcfa97d6949e8de', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
}


def _assert_tables_under_hash_seeds(flag: str, golden: dict[str, list]) -> None:
    """Run this file with ``flag`` under each hash seed and compare."""
    import relartin

    src = str(pathlib.Path(relartin.__file__).resolve().parent.parent)
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    children = [
        subprocess.Popen(
            [sys.executable, __file__, flag],
            env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for seed in HASH_SEEDS
    ]
    for seed, child in zip(HASH_SEEDS, children):
        out, err = child.communicate(timeout=600)
        assert child.returncode == 0, err
        table = json.loads(out)
        changed = sorted(k for k in golden.keys() | table.keys() if table.get(k) != golden.get(k))
        assert changed == [], f"PYTHONHASHSEED={seed}: outputs differ for {changed}"


def test_golden_outputs_under_three_hash_seeds():
    _assert_tables_under_hash_seeds("--json", GOLDEN)


def test_ladder_build_outputs_under_three_hash_seeds():
    _assert_tables_under_hash_seeds("--ladder-json", LADDER_GOLDEN)


if __name__ == "__main__":
    if sys.argv[1:] == ["--json"]:
        print(json.dumps(run_all()))
    elif sys.argv[1:] == ["--ladder-json"]:
        print(json.dumps(run_ladder()))
    else:
        for name, table in (("GOLDEN", run_all()), ("LADDER_GOLDEN", run_ladder())):
            print(f"{name} = {{")
            for key, row in table.items():
                print(f"    {key!r}: {row!r},")
            print("}\n\n")
