"""Byte-exact CLI output gate.

Every refactor of the library must leave the command line output unchanged.
The expected stdout of each command lives in ``tests/golden/<case>.txt``; for
a ``spec --dot`` case (``dot-*``) the file holds the DOT text it writes.
After a deliberate output change, re-record with::

    PYTHONPATH=src python tests/test_golden.py
"""

import io
from pathlib import Path

import pytest

from lattice_spectra import cli
from lattice_spectra.catalog import named_lattices, render_lattice
from lattice_spectra.lattices import build_lattice, product_lattice

GOLDEN = Path(__file__).parent / "golden"

HOMS = {
    "inc": ("hom inc from chain2 to m5\nmap 0 0\nmap 1 a\n", "chain2", "m5"),
    "id": ("hom id from m5 to m5\n" + "".join(f"map {x} {x}\n" for x in "0abc1"), "m5", "m5"),
    "sur": ("hom sur from diamond to chain2\nmap 0 0\nmap p 1\nmap q 0\nmap 1 1\n", "diamond", "chain2"),
}


def _diamond(k):
    """M_k: a bottom, k pairwise incomparable atoms and a top."""
    atoms = [f"a{i}" for i in range(1, k + 1)]
    covers = [("0", a) for a in atoms] + [(a, "1") for a in atoms]
    return build_lattice(["0", *atoms, "1"], covers, name=f"m{k}")


def _chain(k):
    names = [str(i) for i in range(k)]
    return build_lattice(names, list(zip(names, names[1:])), name=f"chain{k}")


def _boolean(k):
    """B_k: the product of k two-element chains (2^k elements)."""
    out = _chain(2)
    for _ in range(k - 1):
        out = product_lattice(out, _chain(2), name=f"b{k}")
    return out


def _lattices():
    lats = named_lattices()
    # non-distributive products with witnesses on 25 and 12 elements
    lats["m3xm3"] = product_lattice(_diamond(3), _diamond(3), name="m3xm3")
    lats["m4xc2"] = product_lattice(_diamond(4), lats["chain2"], name="m4xc2")
    # spectra of 30, 21 and 306 points; M18 has 2^18 tau-opens
    lats["m6"] = _diamond(6)
    lats["chain22"] = _chain(22)
    lats["m18"] = _diamond(18)
    # the largest distributive lattice here: 32 elements, 5 join-irreducibles
    lats["b5"] = _boolean(5)
    return lats


def _cases():
    """case name -> argv, with ``{name}`` standing for a lattice file path."""
    cases = {
        "verify-catalog": ["verify", "--catalog"],
        "verify-exhaustive-6": ["verify", "--exhaustive", "6"],
        "verify-random-42-200": ["verify", "--random", "42", "200"],
    }
    for name in named_lattices():
        cases[f"show-{name}"] = ["show", "{%s}" % name]
        cases[f"spec-bitop-{name}"] = ["spec", "{%s}" % name, "--bitop"]
        cases[f"spec-classical-{name}"] = ["spec", "{%s}" % name, "--classical"]
        cases[f"dot-bitop-{name}"] = ["spec", "{%s}" % name, "--bitop", "--dot", "{dot}"]
        cases[f"dot-classical-{name}"] = ["spec", "{%s}" % name, "--classical", "--dot", "{dot}"]
    for name in ("m3xm3", "m4xc2"):
        cases[f"show-{name}"] = ["show", "{%s}" % name]
    for name in ("m6", "chain22"):
        cases[f"spec-bitop-{name}"] = ["spec", "{%s}" % name, "--bitop"]
        cases[f"spec-classical-{name}"] = ["spec", "{%s}" % name, "--classical"]
        cases[f"verify-{name}"] = ["verify", "{%s}" % name]
    cases["spec-bitop-m18"] = ["spec", "{m18}", "--bitop"]
    cases["verify-m18"] = ["verify", "{m18}"]
    cases["show-b5"] = ["show", "{b5}"]
    cases["spec-classical-b5"] = ["spec", "{b5}", "--classical"]
    cases["verify-b5"] = ["verify", "{b5}"]
    for name, (_, src, tgt) in HOMS.items():
        cases[f"hom-{name}"] = ["hom", "{hom_%s}" % name, "{%s}" % src, "{%s}" % tgt]
    return cases


CASES = _cases()


def _write_inputs(directory: Path) -> dict[str, str]:
    paths = {}
    for name, lat in _lattices().items():
        path = directory / f"{name}.lat"
        path.write_text(render_lattice(lat), encoding="utf-8")
        paths[name] = str(path)
    for name, (text, _, _) in HOMS.items():
        path = directory / f"{name}.hom"
        path.write_text(text, encoding="utf-8")
        paths[f"hom_{name}"] = str(path)
    paths["dot"] = str(directory / "out.dot")
    return paths


def _run(argv, paths) -> str:
    """The command's stdout, or the text of the file it writes with ``--dot``."""
    args = [a.format(**paths) if a.startswith("{") else a for a in argv]
    dot = Path(paths["dot"])
    dot.unlink(missing_ok=True)
    buf = io.StringIO()
    cli.main(args, out=buf)
    if "--dot" in argv:
        return dot.read_text(encoding="utf-8")
    return buf.getvalue()


@pytest.fixture(scope="module")
def input_paths(tmp_path_factory):
    return _write_inputs(tmp_path_factory.mktemp("golden_inputs"))


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, input_paths):
    expected = (GOLDEN / f"{case}.txt").read_text(encoding="utf-8")
    assert _run(CASES[case], input_paths) == expected


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(CASES)


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        paths = _write_inputs(Path(tmp))
        for case, argv in sorted(CASES.items()):
            (GOLDEN / f"{case}.txt").write_text(_run(argv, paths), encoding="utf-8")
