"""Tests for the command-line interface."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.cli import main


class TestList:
    def test_list_tests(self, capsys):
        assert main(["list", "tests"]) == 0
        out = capsys.readouterr().out
        assert "dekker" in out and "rnsw" in out

    def test_list_tests_suite_filter(self, capsys):
        assert main(["list", "tests", "--suite", "paper"]) == 0
        out = capsys.readouterr().out
        assert "dekker" in out and "iriw" not in out
        assert main(["list", "tests", "--suite", "standard"]) == 0
        out = capsys.readouterr().out
        assert "iriw" in out and "rnsw" not in out

    def test_list_tests_generated_suite(self, capsys):
        assert main(["list", "tests", "--suite", "gen:edges=4,size=3"]) == 0
        assert "Critical cycle" in capsys.readouterr().out

    def test_list_tests_unknown_suite(self, capsys):
        assert main(["list", "tests", "--suite", "nope"]) == 2

    def test_list_models(self, capsys):
        assert main(["list", "models"]) == 0
        out = capsys.readouterr().out
        assert "gam" in out and "alpha_like" in out

    def test_list_workloads(self, capsys):
        assert main(["list", "workloads"]) == 0
        out = capsys.readouterr().out
        assert "mcf" in out and "zeusmp" in out


class TestShowAndCheck:
    def test_show(self, capsys):
        assert main(["show", "dekker"]) == 0
        out = capsys.readouterr().out
        assert "St" in out and "Ld" in out and "asked" in out

    def test_show_litmus_format(self, capsys):
        assert main(["show", "dekker", "--format", "litmus"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("GAM dekker\n")
        assert "exists (0:r1=0 /\\ 1:r2=0)" in out
        from repro.litmus.frontend.parser import parse_litmus
        from repro.litmus.registry import get_test

        assert parse_litmus(out) == get_test("dekker")

    def test_check_allowed(self, capsys):
        assert main(["check", "dekker", "-m", "gam"]) == 0
        assert "ALLOWED" in capsys.readouterr().out

    def test_check_forbidden(self, capsys):
        assert main(["check", "dekker", "-m", "sc"]) == 0
        assert "FORBIDDEN" in capsys.readouterr().out

    def test_check_operational(self, capsys):
        assert main(["check", "corr", "-m", "gam", "--operational"]) == 0
        out = capsys.readouterr().out
        assert "FORBIDDEN" in out and "abstract machine" in out

    def test_check_operational_reference_machines(self, capsys):
        # sc/tso gained machines with the oracle abstraction; they run
        # through the same engine path as gam/gam0.
        assert main(["check", "dekker", "-m", "sc", "--operational"]) == 0
        out = capsys.readouterr().out
        assert "FORBIDDEN" in out and "abstract machine" in out

    def test_check_operational_rejects_machineless_models(self, capsys):
        assert main(["check", "corr", "-m", "arm", "--operational"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (
            captured.err
            == "error: --operational supports models: gam, gam0, sc, tso\n"
        )

    def test_check_unknown_test(self, capsys):
        assert main(["check", "not-a-test"]) == 2

    def test_outcomes(self, capsys):
        assert main(["outcomes", "dekker", "-m", "sc"]) == 0
        out = capsys.readouterr().out
        assert "3 outcome(s)" in out


_WITNESS_GOLDEN = {
    ("dekker", "gam", 0): """\
witness execution for 'dekker':

global memory order <mo:
   0. init   a = 0
   1. init   b = 0
   2. P0.I1: Ld b = 0
   3. P1.I0: St b = 1
   4. P1.I1: Ld a = 0
   5. P0.I0: St a = 1

read-from (store -> load):
  init   b = 0  -->  P0.I1: Ld b = 0
  init   a = 0  -->  P1.I1: Ld a = 0

final registers:
  P0.r1 = 0
  P1.r2 = 0
final memory:
  a = 1
  b = 1
""",
    ("corr", "gam0", 0): """\
witness execution for 'corr':

global memory order <mo:
   0. init   a = 0
   1. P1.I1: Ld a = 0
   2. P0.I0: St a = 1
   3. P1.I0: Ld a = 1

read-from (store -> load):
  P0.I0: St a = 1  -->  P1.I0: Ld a = 1
  init   a = 0  -->  P1.I1: Ld a = 0

final registers:
  P1.r1 = 1
  P1.r2 = 0
final memory:
  a = 1
""",
    ("rsw", "arm", 0): """\
witness execution for 'rsw':

global memory order <mo:
   0. init   a = 0
   1. init   b = 0
   2. init   c = 0
   3. P1.I3: Ld c = 0
   4. P1.I5: Ld a = 0
   5. P0.I0: St a = 1
   6. P0.I2: St b = 1
   7. P1.I0: Ld b = 1
   8. P1.I2: Ld c = 0

read-from (store -> load):
  P0.I2: St b = 1  -->  P1.I0: Ld b = 1
  init   c = 0  -->  P1.I2: Ld c = 0
  init   c = 0  -->  P1.I3: Ld c = 0
  init   a = 0  -->  P1.I5: Ld a = 0

final registers:
  P1.r1 = 1
  P1.r2 = 768
  P1.r3 = 0
  P1.r4 = 0
  P1.r5 = 256
  P1.r6 = 0
final memory:
  a = 1
  b = 1
  c = 0
""",
    ("corr+intervening-store", "plsc", 0): """\
witness execution for 'corr+intervening-store':

global memory order <mo:
   0. init   a = 0
   1. init   b = 0
   2. P1.I2: Ld b = 2
   3. P1.I4: Ld a = 0
   4. P0.I0: St a = 1
   5. P0.I2: St b = 1
   6. P1.I0: Ld b = 1
   7. P1.I1: St b = 2

read-from (store -> load):
  P0.I2: St b = 1  -->  P1.I0: Ld b = 1
  P1.I1: St b = 2  -->  P1.I2: Ld b = 2
  init   a = 0  -->  P1.I4: Ld a = 0

final registers:
  P1.r1 = 1
  P1.r2 = 2
  P1.r3 = 0
  P1.rt = 256
final memory:
  a = 1
  b = 2
""",
    ("rmw-swap", "gam", 1): """\
rmw-swap: no witness — gam forbids P0.r1=1, P1.r2=1 (no memory order satisfies the axioms)
""",
}
"""Full ``repro witness`` stdout, pinned: a change in which legal memory
order is found first (the enumeration order) fails the test."""

_RMW_WITNESS_GOLDEN = """\
witness execution for 'rmw+ld':

global memory order <mo:
   0. init   a = 0
   1. P0.I0 (load half): Ld a = 0
   2. P0.I0 (store half): St a = 7
   3. P1.I0: St a = 3
   4. P0.I1: Ld a = 3

read-from (store -> load):
  init   a = 0  -->  P0.I0 (load half): Ld a = 0
  P1.I0: St a = 3  -->  P0.I1: Ld a = 3

final registers:
  P0.r1 = 0
  P0.r2 = 3
final memory:
  a = 3
"""


class TestWitnessDiff:
    def test_witness_allowed(self, capsys):
        assert main(["witness", "dekker", "-m", "gam"]) == 0
        out = capsys.readouterr().out
        assert "global memory order" in out

    @pytest.mark.parametrize("test_name, model, status", sorted(_WITNESS_GOLDEN))
    def test_witness_golden_stdout(self, capsys, test_name, model, status):
        assert main(["witness", test_name, "-m", model]) == status
        assert capsys.readouterr().out == _WITNESS_GOLDEN[test_name, model, status]

    def test_rmw_witness_golden(self):
        # No registered RMW test has an allowed asked outcome, so pin the
        # rendered witness of an allowed one: the RMW's halves stay adjacent.
        from repro.analysis import find_witness, render_execution
        from repro.litmus.registry import get_test
        from repro.models.registry import get_model

        test = get_test("rmw+ld")
        outcome = test.parse_outcome({"P0.r1": 0, "P0.r2": 3})
        witness = find_witness(test, get_model("gam"), outcome)
        assert render_execution(test, witness) + "\n" == _RMW_WITNESS_GOLDEN

    def test_witness_forbidden(self, capsys):
        assert main(["witness", "oota", "-m", "gam"]) == 1
        assert "no witness" in capsys.readouterr().out

    def test_diff(self, capsys):
        assert main(["diff", "corr", "gam0", "gam"]) == 0
        assert "only gam0" in capsys.readouterr().out


class TestSynthStrength:
    def test_synth_dekker(self, capsys):
        assert main(["synth", "dekker", "-m", "gam"]) == 0
        out = capsys.readouterr().out
        assert "FenceSL" in out and "2 fences" in out

    def test_synth_already_sc(self, capsys):
        assert main(["synth", "mp+fences", "-m", "gam"]) == 0
        assert "no fences needed" in capsys.readouterr().out

    def test_synth_unfixable_budget(self, capsys):
        assert main(["synth", "dekker", "-m", "gam", "--max-fences", "0"]) == 1

    def test_strength_paper(self, capsys):
        assert main(["strength", "--suite", "paper"]) == 0
        out = capsys.readouterr().out
        assert "strength" in out.lower() and "<=" in out


class TestMatrixEquivSim:
    def test_matrix_paper(self, capsys):
        assert main(["matrix", "--suite", "paper"]) == 0
        out = capsys.readouterr().out
        assert "rsw" in out and "all verdicts agree" in out

    def test_equiv_on_named_tests(self, capsys):
        assert main(["equiv", "dekker", "corr", "--pairs", "gam"]) == 0
        out = capsys.readouterr().out
        assert out.count("ok ") == 2

    def test_matrix_generated_suite(self, capsys):
        assert main(["matrix", "--suite", "gen:edges=4,size=4"]) == 0
        out = capsys.readouterr().out
        assert "gen:edges=4,size=4 suite" in out
        assert "paper is silent on this suite" in out

    def test_equiv_suite_flag(self, capsys):
        assert main(
            ["equiv", "--suite", "gen:edges=4,size=2", "--pairs", "gam"]
        ) == 0
        assert capsys.readouterr().out.count("ok ") == 2

    def test_sim_small(self, capsys):
        assert main(["sim", "--workloads", "namd", "--length", "800"]) == 0
        out = capsys.readouterr().out
        assert "Figure 18" in out and "Table II" in out and "Table III" in out

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


class TestGenImportExport:
    @pytest.fixture(autouse=True)
    def _restore_registry(self):
        """Undo the global registrations ``repro gen`` makes in-process."""
        from repro.litmus import registry

        before = set(registry.test_names())
        yield
        for name in set(registry.test_names()) - before:
            registry.unregister(name)

    def test_gen_summary(self, capsys):
        assert main(["gen", "--edges", "4", "--quiet"]) == 0
        out = capsys.readouterr().out
        count = int(out.split("generated ")[1].split()[0])
        assert count >= 50

    def test_gen_is_idempotent_in_process(self, capsys):
        assert main(["gen", "--edges", "4", "--size", "1", "--quiet"]) == 0
        assert main(["gen", "--edges", "4", "--size", "1", "--quiet"]) == 0
        capsys.readouterr()

    def test_gen_registers_tests_in_process(self, capsys):
        assert main(["gen", "--edges", "4", "--size", "1", "--quiet"]) == 0
        capsys.readouterr()
        from repro.litmus.frontend.gen import generate_suite

        name = generate_suite(4, size=1)[0].name
        assert main(["show", name, "--format", "litmus"]) == 0
        assert f"GAM {name}" in capsys.readouterr().out

    def test_gen_writes_files(self, capsys, tmp_path):
        out_dir = tmp_path / "generated"
        assert main(
            ["gen", "--edges", "4", "--size", "3", "--seed", "1",
             "--quiet", "-o", str(out_dir)]
        ) == 0
        files = sorted(p.name for p in out_dir.glob("*.litmus"))
        assert len(files) == 3

    def test_export_import_round_trip(self, capsys, tmp_path):
        out_dir = tmp_path / "suite"
        assert main(["export", "--suite", "paper", "-o", str(out_dir)]) == 0
        capsys.readouterr()
        files = sorted(str(p) for p in out_dir.glob("*.litmus"))
        assert len(files) == 12
        assert main(["import", *files]) == 0
        out = capsys.readouterr().out
        assert "12 test(s) imported" in out and "imported dekker" in out

    def test_export_stdout(self, capsys):
        assert main(["export", "--suite", "paper"]) == 0
        out = capsys.readouterr().out
        headers = [l for l in out.splitlines() if l.startswith("GAM ")]
        assert len(headers) == 12

    def test_matrix_from_exported_directory(self, capsys, tmp_path):
        out_dir = tmp_path / "suite"
        assert main(["export", "--suite", "paper", "-o", str(out_dir)]) == 0
        capsys.readouterr()
        assert main(["matrix", "--suite", str(out_dir)]) == 0
        assert "all verdicts agree with the paper" in capsys.readouterr().out

    def test_import_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.litmus"
        bad.write_text("GAM broken\n{ a; }\n P0 ;\n Wat ;\n")
        assert main(["import", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "line 4" in err

    def test_import_duplicate_names(self, capsys, tmp_path):
        from repro.litmus.frontend.printer import print_litmus
        from repro.litmus.registry import get_test

        text = print_litmus(get_test("mp"))
        one = tmp_path / "one.litmus"
        two = tmp_path / "two.litmus"
        one.write_text(text)
        two.write_text(text)
        assert main(["import", str(one), str(two)]) == 2
        assert "collision" in capsys.readouterr().err


class TestCacheTransferCLI:
    def test_export_import_round_trip_serves_matrix(self, capsys, tmp_path):
        source, target = str(tmp_path / "src"), str(tmp_path / "dst")
        tarball = str(tmp_path / "warm.tar.gz")
        assert main(["matrix", "--suite", "paper", "--cache", source]) == 0
        filled = capsys.readouterr().out
        assert main(["cache", "export", source, tarball]) == 0
        exported = capsys.readouterr().out
        assert exported.startswith("exported ")
        assert main(["cache", "import", target, tarball]) == 0
        imported = capsys.readouterr().out
        count = exported.split()[1]
        assert imported.startswith(f"imported {count} entries into {target}")
        assert main(["matrix", "--suite", "paper", "--cache", target]) == 0
        assert capsys.readouterr().out == filled

    def test_engine_version_mismatch_exits_2(self, capsys, tmp_path, monkeypatch):
        import repro.engine.cache as cache_module

        source = str(tmp_path / "src")
        tarball = str(tmp_path / "stale.tar.gz")
        assert main(["check", "mp", "-m", "sc", "--cache", source]) == 0
        monkeypatch.setattr(cache_module, "ENGINE_VERSION", 999)
        assert main(["cache", "export", source, tarball]) == 0
        monkeypatch.undo()
        capsys.readouterr()
        assert main(["cache", "import", str(tmp_path / "dst"), tarball]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "engine version 999" in err


def test_matrix_process_imports_no_http_machinery():
    """The CLI is local-only: a matrix run never loads the HTTP stack."""
    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    result = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "repro",
         "matrix", "--suite", "paper"],
        capture_output=True, text=True, env=env, check=True,
    )
    imported = {
        line.rsplit("|", 1)[-1].strip()
        for line in result.stderr.splitlines()
        if line.startswith("import time:")
    }
    assert "all verdicts agree with the paper" in result.stdout
    assert "repro.cli" in imported
    assert not imported & {"http.client", "http.server"}
