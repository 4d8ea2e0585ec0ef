"""Pinned ``develop`` outputs on paths the golden table does not reach.

``GOLDEN`` in ``test_golden.py`` develops every fixture part and the
lowest- and highest-label inter-edges at the default radius and cap.
This table adds:

* an edgeless part of three vertices, the only development in which an
  element has more than two coset vertices;
* caps that stop a ball partway through expanding a level, and radius 1;
* a label-2 and a label-5 inter-edge.

Each row is the exit code and the sha256 of stdout and stderr.  To print
the table after a change that alters an output on purpose, run

    PYTHONPATH=src python tests/test_develop_golden.py
"""
import json
import pathlib
import tempfile

import pytest

from test_golden import ROOT, _row

# part 0 is edgeless; w-x (label 2) and w-y (label 5) are its inter-edges
EDGELESS_TRIPLE = {
    "vertices": ["w", "x", "y", "z"],
    "edges": [{"u": "w", "v": "x", "m": 2}, {"u": "w", "v": "y", "m": 5}],
    "family": [["x", "y", "z"], ["w"]],
}

SELECTIONS = (
    ("edgeless_triple.json", "--part", "0"),
    ("edgeless_triple.json", "--part", "0", "--cap", "100"),
    ("edgeless_triple.json", "--edge", "w", "x"),
    ("edgeless_triple.json", "--edge", "w", "y"),
    ("affine_parts_join.json", "--edge", "a1", "a2", "--cap", "30"),
    ("affine_parts_join.json", "--edge", "a1", "a2", "--cap", "100"),
    ("affine_parts_join.json", "--edge", "a1", "a2", "--cap", "4001"),
    ("affine_parts_join.json", "--edge", "a1", "a2", "--radius", "1"),
    ("touching_triple_control.json", "--part", "1", "--radius", "1"),
)
FORMATS = ("json", "text", "dot")


def _key(sel: tuple[str, ...], fmt: str) -> str:
    return " ".join((sel[0], "develop", *sel[1:], "--format", fmt))


def _argv(sel: tuple[str, ...], fmt: str, tmp: pathlib.Path) -> list[str]:
    name, *rest = sel
    path = ROOT / "fixtures" / name if name != "edgeless_triple.json" else tmp / name
    return ["develop", "--input", str(path), *rest, "--format", fmt]


def run_table() -> dict[str, list]:
    with tempfile.TemporaryDirectory() as out:
        tmp = pathlib.Path(out)
        (tmp / "edgeless_triple.json").write_text(json.dumps(EDGELESS_TRIPLE))
        return {_key(sel, fmt): _row(_argv(sel, fmt, tmp)) for sel in SELECTIONS for fmt in FORMATS}


DEVELOP_GOLDEN = {
    'edgeless_triple.json develop --part 0 --format json': [0, '94caf636ce46649be9f92fb527098b019449d8832daa103a1215db9583b39ee1', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'edgeless_triple.json develop --part 0 --format text': [0, 'a52d2aa80a8b52cb280813c13d828669561a6455ba9a3f4682194a28e7568897', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'edgeless_triple.json develop --part 0 --format dot': [0, '62540dbc73811bd74d13e12c636841aca4085c0b38287ef6af49987ed0d12904', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'edgeless_triple.json develop --part 0 --cap 100 --format json': [0, 'da6e413a39c9d0ff58ff77305d90e58fa0a6b2919127200288d63fd7b9e4ed8e', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'edgeless_triple.json develop --part 0 --cap 100 --format text': [0, 'a597b947d0835bdb5357816d9fa61e1d31e1668700b84674366e33e7b2445f38', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'edgeless_triple.json develop --part 0 --cap 100 --format dot': [0, '257e9cd7bfd301d888b2064564b99d4cd9b7d9f81ef9280c1463ed8462b40f24', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'edgeless_triple.json develop --edge w x --format json': [0, 'aed4dc14246aa456d0949bf3d16e0e782c9114938c5314827eecd1225de6f11d', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'edgeless_triple.json develop --edge w x --format text': [0, '31c2430385d121438a54c9feca41da3d690d7d2bcf253e6f7f96f5c023619e5b', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'edgeless_triple.json develop --edge w x --format dot': [0, 'b2038fe5affffa38eebb664ea4fe59b3dd16f5226dfb11f45c1d0d9cde586190', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'edgeless_triple.json develop --edge w y --format json': [0, '362536083ded3557e5b2a99e2d98b24e47d5030f8ade41d9cd8439f2b47e058e', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'edgeless_triple.json develop --edge w y --format text': [0, 'caa5c84d65debe1566c372474ff03ba4bedf78c7c1bf065c2b797ed189bc609a', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'edgeless_triple.json develop --edge w y --format dot': [0, 'f348553ef24c66e2c15bbe2536031c2f7e09f302be6b5fdc3a51a84e8e0d66f6', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'affine_parts_join.json develop --edge a1 a2 --cap 30 --format json': [0, 'fa436ca017f919bde9350dbd33ea94a5a009105f67e3d107462b2ff3a40451d1', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'affine_parts_join.json develop --edge a1 a2 --cap 30 --format text': [0, 'e8e00d53e3d9131306aa04ff63fe2ea51c853edc75bc38a7b492f99ea163dc3c', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'affine_parts_join.json develop --edge a1 a2 --cap 30 --format dot': [0, '461e2211db25d38a8757909f5f66579c2fadfae0a242fb719372dc0f8b106728', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'affine_parts_join.json develop --edge a1 a2 --cap 100 --format json': [0, 'f12031a05a5de92b00ccb21730e7831e19f6313321f27f14c877473fd590dabc', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'affine_parts_join.json develop --edge a1 a2 --cap 100 --format text': [0, '2c6cecfde4807ff8a4c2e35e9e24d9704d080a7388c99333c8fcfcef6028f906', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'affine_parts_join.json develop --edge a1 a2 --cap 100 --format dot': [0, 'a3dd8757aeb73b3297ca72e357308a28aa4c51b294d479be44332bbbea6f9736', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'affine_parts_join.json develop --edge a1 a2 --cap 4001 --format json': [0, 'cdb55588e8dbeab033a708852cb36af77c9e8278bb82335f4a5a1e1f76e45078', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'affine_parts_join.json develop --edge a1 a2 --cap 4001 --format text': [0, '12bc6bce128a4c7b3063b458ddbbe6213a263bab7e3ddc78fdae8904c68e4714', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'affine_parts_join.json develop --edge a1 a2 --cap 4001 --format dot': [0, '4cc930bb99cbf37292084f991d5e4964ab4f00ed25d5181fe943840db570f4f9', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'affine_parts_join.json develop --edge a1 a2 --radius 1 --format json': [0, 'b88b665a0dadd3fbc2c77ed19048719b8b8f9e4926a5ace10a0afa39e5e92306', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'affine_parts_join.json develop --edge a1 a2 --radius 1 --format text': [0, 'e8b61638cdaf489e0de86dabf32e147efa4f815efef041c251fe4b33e0e0985a', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'affine_parts_join.json develop --edge a1 a2 --radius 1 --format dot': [0, '84878755b2e022b59043cf34e18f791c01ccd74a0767fa1b494c9744199b3117', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'touching_triple_control.json develop --part 1 --radius 1 --format json': [0, '09eb819231a013a1161102aea616b3f3adeb4e34d72106751e688d80721daa08', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'touching_triple_control.json develop --part 1 --radius 1 --format text': [0, '38df2e198322e3e20e4e2698f673b6e03b2d7a89d5042f887c80df22bea420e3', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
    'touching_triple_control.json develop --part 1 --radius 1 --format dot': [0, 'f40ae2b79e23f3df91b9ca3c4b2433bedbbf44bd639d51a22eca7b0ca3478cf2', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
}


@pytest.mark.parametrize("sel", SELECTIONS, ids=" ".join)
def test_develop_outputs_match_the_pinned_digests(sel, tmp_path):
    (tmp_path / "edgeless_triple.json").write_text(json.dumps(EDGELESS_TRIPLE))
    for fmt in FORMATS:
        assert _row(_argv(sel, fmt, tmp_path)) == DEVELOP_GOLDEN[_key(sel, fmt)], fmt


if __name__ == "__main__":
    print("DEVELOP_GOLDEN = {")
    for key, row in run_table().items():
        print(f"    {key!r}: {row!r},")
    print("}")
