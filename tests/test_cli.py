import io
import itertools
import json
import subprocess
import sys
from pathlib import Path

import pytest

from lattice_spectra.catalog import render_lattice
from lattice_spectra import cli

from oracles import validate_dot
from test_golden import _diamond


@pytest.fixture()
def lattice_dir(tmp_path, cat):
    for name, lat in cat.items():
        (tmp_path / f"{name}.lat").write_text(render_lattice(lat), encoding="utf-8")
    return tmp_path


def run_cli(args):
    buf = io.StringIO()
    code = cli.main(args, out=buf)
    return code, buf.getvalue()


def test_show_m5(lattice_dir):
    code, out = run_cli(["show", str(lattice_dir / "m5.lat")])
    assert code == 0
    assert "distributive: no" in out
    assert "m5 copy" in out
    assert "prime ideals: 0" in out


def test_show_n5(lattice_dir):
    code, out = run_cli(["show", str(lattice_dir / "n5.lat")])
    assert code == 0
    assert "prime ideals: 2" in out


def test_show_chain2(lattice_dir):
    code, out = run_cli(["show", str(lattice_dir / "chain2.lat")])
    assert code == 0
    assert "distributive: yes" in out


def test_spec_bitop_m5(lattice_dir):
    code, out = run_cli(["spec", str(lattice_dir / "m5.lat"), "--bitop"])
    assert code == 0
    assert "points: 6" in out
    assert "tau opens: 8" in out
    assert "tau == sigma: no" in out


def test_spec_limit_prints_nothing_before_the_error(lattice_dir, monkeypatch, capsys):
    # with the memo bound of count_opens below what these spectra need, the
    # opens are counted, and refused, before the first line
    from lattice_spectra import topology

    monkeypatch.setattr(topology, "_COUNT_MEMO_BOUND", 2)
    for name, mode in (("m5", "--bitop"), ("b3", "--classical")):
        code, out = run_cli(["spec", str(lattice_dir / f"{name}.lat"), mode])
        assert code == 2
        assert out == ""
        assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("k", [30, 40])
def test_spec_counts_opens_past_enumeration(tmp_path, k):
    # 2^k tau- and sigma-opens on k(k-1) points, too many to list
    path = tmp_path / f"m{k}.lat"
    path.write_text(render_lattice(_diamond(k)), encoding="utf-8")
    code, out = run_cli(["spec", str(path), "--bitop"])
    assert code == 0
    assert f"points: {k * (k - 1)}\n" in out
    assert f"tau opens: {1 << k}\nsigma opens: {1 << k}\n" in out


def test_spec_classical_m5(lattice_dir):
    code, out = run_cli(["spec", str(lattice_dir / "m5.lat"), "--classical"])
    assert code == 0
    assert "points: 0" in out


def test_spec_diamond_topologies_coincide(lattice_dir):
    code, out = run_cli(["spec", str(lattice_dir / "diamond.lat"), "--bitop"])
    assert code == 0
    assert "points: 2" in out
    assert "tau == sigma: yes" in out


def test_spec_dot_output(lattice_dir, tmp_path):
    dot_path = tmp_path / "m5.dot"
    code, _ = run_cli(["spec", str(lattice_dir / "m5.lat"), "--bitop", "--dot", str(dot_path)])
    assert code == 0
    validate_dot(dot_path.read_text(encoding="utf-8"))


def test_verify_single_file(lattice_dir):
    code, out = run_cli(["verify", str(lattice_dir / "m5.lat")])
    assert code == 0
    assert "PASS m5 essential_family" in out
    assert "failures: 0" in out


def test_verify_catalog_structured(lattice_dir):
    code, out = run_cli(["verify", "--catalog", "--format", "structured", "--jobs", "2"])
    assert code == 0
    lines = out.strip().splitlines()
    summary = json.loads(lines[-1])["summary"]
    assert summary["failures"] == 0
    for line in lines[:-1]:
        rec = json.loads(line)
        assert rec["status"] == "PASS"


def test_verify_deterministic_across_jobs(lattice_dir):
    _, out1 = run_cli(["verify", "--exhaustive", "4", "--jobs", "1"])
    _, out2 = run_cli(["verify", "--exhaustive", "4", "--jobs", "3"])
    assert out1 == out2


def test_verify_random(lattice_dir):
    code, out = run_cli(["verify", "--random", "5", "4"])
    assert code == 0
    assert "lattices: 4" in out


def test_verify_nothing_is_input_error(capsys):
    code, _ = run_cli(["verify"])
    assert code == 2
    assert capsys.readouterr().err == "error: nothing to verify: pass a file, --catalog, --exhaustive or --random\n"


_VERIFY_MODES = {
    "file": ["{dir}/m5.lat"],
    "catalog": ["--catalog"],
    "exhaustive": ["--exhaustive", "2"],
    "random": ["--random", "1", "3"],
}


@pytest.mark.parametrize("first, second", list(itertools.combinations(_VERIFY_MODES, 2)))
def test_verify_takes_one_input_mode(lattice_dir, capsys, first, second):
    # a second mode is refused, never silently dropped
    args = [a.format(dir=lattice_dir) for a in ["verify", *_VERIFY_MODES[second], *_VERIFY_MODES[first]]]
    with pytest.raises(SystemExit) as exc:
        run_cli(args)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "not allowed with argument" in err


def test_input_error_exit_code(tmp_path):
    bad = tmp_path / "bad.lat"
    bad.write_text("lattice x\nelements a b\ncover a a\n", encoding="utf-8")
    code, _ = run_cli(["show", str(bad)])
    assert code == 2
    code, _ = run_cli(["show", str(tmp_path / "missing.lat")])
    assert code == 2


def test_hom_command(lattice_dir, tmp_path):
    hom = tmp_path / "inc.hom"
    hom.write_text("hom inc from chain2 to m5\nmap 0 0\nmap 1 a\n", encoding="utf-8")
    code, out = run_cli(["hom", str(hom), str(lattice_dir / "chain2.lat"), str(lattice_dir / "m5.lat")])
    assert code == 0
    assert "proper: yes (vacuous: target spectrum empty)" in out
    assert "quasi-proper: no witness=" in out


def test_hom_without_header_is_input_error(lattice_dir, tmp_path, capsys):
    hom = tmp_path / "bare.hom"
    hom.write_text("map 0 0\nmap 1 a\n", encoding="utf-8")
    code, out = run_cli(["hom", str(hom), str(lattice_dir / "chain2.lat"), str(lattice_dir / "m5.lat")])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "error: line 1: missing 'hom' line\n"


def test_hom_identity(lattice_dir, tmp_path):
    hom = tmp_path / "id.hom"
    hom.write_text("hom id from m5 to m5\n" + "".join(f"map {x} {x}\n" for x in "0abc1"), encoding="utf-8")
    code, out = run_cli(["hom", str(hom), str(lattice_dir / "m5.lat"), str(lattice_dir / "m5.lat")])
    assert code == 0
    assert "quasi-proper: yes" in out
    assert "naturality square: PASS" in out


def test_hom_surjection(lattice_dir, tmp_path):
    hom = tmp_path / "sur.hom"
    hom.write_text(
        "hom sur from diamond to chain2\nmap 0 0\nmap p 1\nmap q 0\nmap 1 1\n", encoding="utf-8"
    )
    code, out = run_cli(["hom", str(hom), str(lattice_dir / "diamond.lat"), str(lattice_dir / "chain2.lat")])
    assert code == 0
    assert "quasi-proper: yes" in out
    assert "pbd-morphism conditions: PASS" in out


def test_hom_morphism_failure_exits_1(lattice_dir, tmp_path, monkeypatch):
    # a spectrum map sending every point to point 0 breaks the delta
    # preimage identity: reported on the conditions line, exit 1
    from lattice_spectra import duality

    real = duality.spec_b_on_hom

    def collapsed(hom):
        m = real(hom)
        return m._replace(mapping=(0,) * len(m.mapping))

    monkeypatch.setattr(duality, "spec_b_on_hom", collapsed)
    hom = tmp_path / "id.hom"
    hom.write_text("hom id from m5 to m5\n" + "".join(f"map {x} {x}\n" for x in "0abc1"), encoding="utf-8")
    code, out = run_cli(["hom", str(hom), str(lattice_dir / "m5.lat"), str(lattice_dir / "m5.lat")])
    assert code == 1
    assert out.splitlines()[-2:] == [
        "spectrum map: 6 points -> 6 points",
        "pbd-morphism conditions: FAIL witness=delta preimage identity fails",
    ]


@pytest.mark.parametrize(
    "planted, witness",
    [
        # E(spec_B(id)) read backwards: the square fails at the bottom
        ("functor", "0"),
        # embeddings into a larger lattice: every square holds, no isomorphism
        ("embedding", "None"),
    ],
)
def test_hom_naturality_failure_exits_1(lattice_dir, tmp_path, monkeypatch, planted, witness):
    import dataclasses

    from lattice_spectra import duality
    from lattice_spectra.catalog import named_lattices

    if planted == "functor":
        real = duality.essential_functor_on_morphism
        monkeypatch.setattr(
            duality, "essential_functor_on_morphism", lambda m: dataclasses.replace(real(m), mapping=real(m).mapping[::-1])
        )
    else:
        real = duality.delta_embedding
        b3 = named_lattices()["b3"]
        monkeypatch.setattr(duality, "delta_embedding", lambda lat: dataclasses.replace(real(lat), target=b3))
    hom = tmp_path / "id.hom"
    hom.write_text("hom id from m5 to m5\n" + "".join(f"map {x} {x}\n" for x in "0abc1"), encoding="utf-8")
    code, out = run_cli(["hom", str(hom), str(lattice_dir / "m5.lat"), str(lattice_dir / "m5.lat")])
    assert code == 1
    assert out.splitlines()[-2:] == [
        "pbd-morphism conditions: PASS",
        f"naturality square: FAIL witness={witness}",
    ]


def test_console_entrypoint_runs(lattice_dir):
    proc = subprocess.run(
        [sys.executable, "-m", "lattice_spectra.cli", "show", str(lattice_dir / "m5.lat")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "distributive: no" in proc.stdout


def test_jobs_env_cap(lattice_dir, monkeypatch):
    # verification is serial; LATTICE_SPECTRA_JOBS, even malformed, changes nothing
    monkeypatch.delenv("LATTICE_SPECTRA_JOBS", raising=False)
    code, expected = run_cli(["verify", "--exhaustive", "4"])
    assert code == 0
    for value in ("1", "3", "two"):
        monkeypatch.setenv("LATTICE_SPECTRA_JOBS", value)
        assert run_cli(["verify", "--exhaustive", "4"]) == (0, expected)


def test_jobs_flag_is_ignored():
    golden = Path(__file__).parent / "golden" / "verify-exhaustive-6.txt"
    code, out = run_cli(["verify", "--exhaustive", "6", "--jobs", "2"])
    assert code == 0
    assert out == golden.read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "args",
    [["--exhaustive", "0"], ["--exhaustive", "-2"], ["--random", "1", "0"]],
)
def test_verify_bad_size_is_input_error(args):
    proc = subprocess.run(
        [sys.executable, "-m", "lattice_spectra.cli", "verify", *args],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


# --- loading contract: each command imports only the modules it runs -------

_PRINT_LOADED = "import sys\nprint(*sorted(k for k in sys.modules if k.startswith('lattice_spectra.')))\n"


def _probe(code):
    """The stdout lines of ``code`` run in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_import_loads_no_submodule():
    assert _probe("import lattice_spectra\n" + _PRINT_LOADED) == [""]


@pytest.mark.parametrize(
    "command, absent",
    [
        ("show", {"spectra", "topology", "duality", "suites"}),
        ("spec", {"duality", "suites"}),
    ],
)
def test_command_loads_only_what_it_runs(lattice_dir, command, absent):
    args = [command, str(lattice_dir / "m5.lat")]
    run = f"import io\nfrom lattice_spectra import cli\nassert cli.main({args!r}, out=io.StringIO()) == 0\n"
    loaded = set(_probe(run + _PRINT_LOADED)[0].split())
    assert "lattice_spectra.lattices" in loaded
    assert not loaded & {f"lattice_spectra.{m}" for m in absent}


def test_dir_lists_names_before_first_access():
    listed, loaded = _probe("import lattice_spectra\nprint(*dir(lattice_spectra))\n" + _PRINT_LOADED)
    assert {"build_bitop_spectrum", "named_lattices", "LatticeToolError"} <= set(listed.split())
    assert loaded == ""


def test_public_names_resolve_lazily():
    import importlib

    import lattice_spectra

    exported = set(lattice_spectra.__all__)
    assert len(exported) == len(lattice_spectra.__all__) == 80
    for name in exported:
        module = importlib.import_module(f"lattice_spectra.{lattice_spectra._MODULE_OF[name]}")
        assert getattr(lattice_spectra, name) is getattr(module, name), name
    assert exported <= set(dir(lattice_spectra))
    assert lattice_spectra.suites is importlib.import_module("lattice_spectra.suites")
    with pytest.raises(AttributeError, match="no_such_name"):
        lattice_spectra.no_such_name
    namespace = {}
    exec("from lattice_spectra import *", namespace)
    assert exported <= set(namespace)
    assert namespace["build_bitop_spectrum"] is lattice_spectra.build_bitop_spectrum
