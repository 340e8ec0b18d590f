import math
import subprocess
import sys

import pytest

from linlog.cli import main

G = "programs/g.lina"


def run_cli(*args):
    import io
    from contextlib import redirect_stdout
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(args))
    return code, buf.getvalue()


def test_typecheck():
    code, out = run_cli("typecheck", G)
    assert code == 0
    assert "(R; 1)" in out


def test_eval():
    code, out = run_cli("eval", G, "--point", "0.0 1.0")
    assert code == 0
    assert "value = 1" in out


def test_grad_forced_values():
    code, out = run_cli("grad", G, "--point", "0.0 1.0")
    assert code == 0
    assert "primal = 1" in out
    assert "grad   = (1, 0)" in out


def test_grad_pipelines_agree():
    _, out1 = run_cli("grad", G, "--point", "0.7 1.3", "--format", "machine")
    _, out2 = run_cli("grad", G, "--point", "0.7 1.3", "--pipeline", "tf",
                      "--format", "machine")
    g1 = [l for l in out1.splitlines() if l.startswith("grad=")]
    g2 = [l for l in out2.splitlines() if l.startswith("grad=")]
    assert g1 == g2


def test_machine_section_deterministic():
    _, out1 = run_cli("grad", G, "--point", "0.5 2.0", "--format", "machine")
    _, out2 = run_cli("grad", G, "--point", "0.5 2.0", "--format", "machine")
    assert out1 == out2


def test_workload_inequalities():
    code, out = run_cli("workload", G)
    assert code == 0
    assert out.count("PASS") >= 4
    assert "FAIL" not in out


def test_compare():
    code, out = run_cli("compare", G, "--point", "0.5 2.0")
    assert code == 0
    assert "finite diff" in out


def test_check_file():
    code, out = run_cli("check", G)
    assert code == 0
    assert "skip-unzipping" in out


@pytest.mark.parametrize("args", [
    ("compare", G, "--point", "0.5 2.0"),
    ("check", G),
    ("compare", "programs/pair_out.lll", "--point", "0.5 2.0"),
    ("check", "programs/pair_out.lll"),
])
def test_compare_and_check_pass(args):
    code, out = run_cli(*args, "--format", "machine")
    assert code == 0, out
    assert "status=ok" in out


def test_compare_prints_every_row_of_a_tuple_output():
    # (sin x, x*y) at (0.5, 2): rows (cos 0.5, 0) and (y, x) = (2, 0.5)
    _, out = run_cli("compare", "programs/pair_out.lll", "--point", "0.5 2.0",
                     "--format", "machine")
    rows = {k: eval(v) for k, v in (l.split("=", 1) for l in out.splitlines())
            if k.startswith("grad.")}
    assert rows.keys() == {f"grad.{k}.{i:02d}" for k in ("tuf", "tf", "fd")
                           for i in range(2)}
    for k in ("tuf", "tf", "fd"):
        assert rows[f"grad.{k}.00"] == pytest.approx([math.cos(0.5), 0.0], abs=1e-6)
        assert rows[f"grad.{k}.01"] == pytest.approx([2.0, 0.5], abs=1e-6)


def test_usage_error_exit_2():
    code = subprocess.run(
        [sys.executable, "-m", "linlog.cli", "grad", G],
        capture_output=True).returncode
    assert code == 2


def test_missing_file_exit_2():
    code = subprocess.run(
        [sys.executable, "-m", "linlog.cli", "typecheck", "no-such-file.lina"],
        capture_output=True).returncode
    assert code == 2


def test_stdin_input():
    text = open(G).read()
    proc = subprocess.run(
        [sys.executable, "-m", "linlog.cli", "eval", "-", "--point", "0 1"],
        input=text.encode(), capture_output=True)
    assert proc.returncode == 0
    assert b"value = 1" in proc.stdout


def test_eval_and_jvp_on_lll_file():
    code, out = run_cli("typecheck", "programs/pair_out.lll")
    assert code == 0
    code, out = run_cli("eval", "programs/pair_out.lll", "--point", "0.5 2.0")
    assert code == 0 and "value" in out
    code, out = run_cli("jvp", "programs/pair_out.lll",
                        "--point", "0.5 2.0", "--tangent", "1 0")
    assert code == 0
    # directional derivative along x: (cos 0.5, y) = (0.8775.., 2)
    assert "0.877583" in out and "2" in out


def test_grad_prints_every_jacobian_row_of_a_tuple_output():
    # (sin x, x*y) at (0.5, 2): rows (cos 0.5, 0) and (y, x) = (2, 0.5)
    code, out = run_cli("grad", "programs/pair_out.lll", "--point", "0.5 2.0")
    assert code == 0
    assert "grad[0] = (0.877583, 0)" in out and "grad[1] = (2, 0.5)" in out
    _, out = run_cli("grad", "programs/pair_out.lll", "--point", "0.5 2.0",
                     "--format", "machine")
    rows = {k: v for k, v in (l.split("=", 1) for l in out.splitlines())
            if k.startswith("grad")}
    assert rows.keys() == {"grad.00", "grad.01"}
    assert eval(rows["grad.00"]) == pytest.approx((math.cos(0.5), 0.0), abs=1e-12)
    assert eval(rows["grad.01"]) == pytest.approx((2.0, 0.5), abs=1e-12)


def test_grad_of_a_tuple_output_evaluates_the_primal_once():
    # two outputs: one primal run and two applications of the map, not two
    # full runs (18 flops)
    code, out = run_cli("grad", "programs/pair_out.lll", "--point", "0.5 2.0",
                        "--format", "machine")
    assert code == 0
    lines = dict(l.split("=", 1) for l in out.splitlines())
    assert lines["grad.00"] == "(0.8775825618903728, 0.0)"
    assert lines["grad.01"] == "(2.0, 0.5)"
    assert lines["primal"] == "(0.479425538604203, 1.0)"
    assert lines["flops"] == "13" and lines["workload_bound"] == "13"


# (output expression, printed primal): outputs of type ((), ()) and ()
NO_SCALAR_OUTPUTS = [("(ptup-e (ptup) (ptup))", "((), ())"), ("(ptup)", "()")]


def test_grad_and_compare_keep_the_primal_of_an_output_with_no_scalar_component(
        tmp_path):
    # the output has no basis cotangent, so no Jacobian row, yet the primal
    # is still computed
    for i, (expr, primal) in enumerate(NO_SCALAR_OUTPUTS):
        src = tmp_path / f"no_scalar{i}.lina"
        src.write_text("(linear-a (primal (x real)) "
                       f"(expr (let-p y (prim sin x) {expr})))")
        code, out = run_cli("grad", str(src), "--point", "0.3")
        assert code == 0 and f"primal = {primal}" in out
        assert "grad" not in out
        code, out = run_cli("grad", str(src), "--point", "0.3",
                            "--format", "machine")
        lines = dict(l.split("=", 1) for l in out.splitlines())
        assert code == 0
        assert lines["primal"] == primal
        assert lines["flops"] == "2" and lines["workload_bound"] == "2"
        assert not [k for k in lines if k.startswith("grad")]
        _, out = run_cli("eval", str(src), "--point", "0.3",
                         "--format", "machine")
        assert f"value={primal}" in out.splitlines()
        code, out = run_cli("compare", str(src), "--point", "0.3")
        assert code == 0 and f"primal          = {primal}" in out
        assert "grad" not in out


def test_compare_uses_fd_step():
    _, fine = run_cli("compare", G, "--point", "0.5 2.0", "--format", "machine")
    _, coarse = run_cli("compare", G, "--point", "0.5 2.0", "--fd-step", "0.1",
                        "--format", "machine")
    fd = [l for l in fine.splitlines() if l.startswith("grad.fd=")]
    fd_coarse = [l for l in coarse.splitlines() if l.startswith("grad.fd=")]
    assert fd != fd_coarse
    assert "status=fail" in coarse


def test_an_option_of_another_command_is_rejected():
    # --tol and --fd-step belong to compare, --seed to check; --stage to
    # no command
    for args in (("check", G, "--fd-step", "0.1"),
                 ("grad", G, "--point", "0.5 2.0", "--seed", "3"),
                 ("eval", G, "--point", "0.5 2.0", "--tol", "1e-3"),
                 ("workload", G, "--stage", "F")):
        assert run_cli(*args)[0] == 2, args
    assert run_cli("compare", G, "--point", "0.5 2.0", "--tol", "1e-6",
                   "--fd-step", "1e-6")[0] == 0
    assert run_cli("check", G, "--seed", "3")[0] == 0


def test_check_random_machine_deterministic():
    _, out1 = run_cli("check", "--random", "8", "--seed", "4",
                      "--format", "machine")
    _, out2 = run_cli("check", "--random", "8", "--seed", "4",
                      "--format", "machine")
    assert out1 == out2


def test_rejected_input_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.lina"
    bad.write_text("(linear-a (primal (x real)) (expr (var-p x)")
    code, out = run_cli("typecheck", str(bad))
    assert code == 2 and out == ""
    assert capsys.readouterr().err.startswith("error: SyntaxErrorAt")



def lina(expr, header="(primal (x real))"):
    return f"(linear-a {header} (expr {expr}))"


def lll(term, env="(env (bang x real))"):
    return f"(lll {env} (term {term}))"


MALFORMED = [
    # a subform missing
    lina("(prim)"), lina("(let-p y)"), lina("(var-p)"), lina("(pair x)"),
    lina("(let-ptup (a) x (var-p x))"), lina("(lit)"), lina("(drop)"),
    lina("(var-p x)", "(primal (x (tensor real)))"),
    lina("(var-p x)", "(primal (x))"),
    "(linear-a (primal (x real)) (expr))",
    lll("(tpair x)"), lll("(lam (x real))"), lll("(let (bang a real) (bangv x))"),
    lll("(num)"), lll("(bangv)"), lll("(app f)"),
    lll("f", "(env (f (lolli real)))"), lll("x", "(env (bang x))"),
    # a subform too many, a name declared twice, a section given twice
    lina("(var-p x y)"), lll("(bangv x y)"),
    lina("(var-p x)", "(primal (x real) (x real))"),
    lll("x", "(env (bang x real) (x real))"),
    "(linear-a (primal (x real)) (expr (var-p x)) (expr (var-p x)))",
    # a name that reads as a number
    "(lll (env (bang x real)) (term (let (bang nan real) (bangv x) (bangv nan))))",
    "(lll (env (bang inf real)) (term (bangv inf)))",
    "(linear-a (primal (inf real)) (expr (var-p inf)))",
]


@pytest.mark.parametrize("text", MALFORMED)
def test_a_malformed_form_exit_2(tmp_path, capsys, text):
    src = tmp_path / "bad.src"
    src.write_text(text)
    code, out = run_cli("typecheck", str(src))
    assert code == 2 and out == ""
    assert capsys.readouterr().err.startswith("error: SyntaxErrorAt")


def test_check_and_workload_of_a_tangent_program():
    """A program with free tangents takes the general Linear-A branch of
    `check`: its encoding typechecks, is safe and keeps the workload."""
    demo = "programs/tangent_demo.lina"
    code, out = run_cli("check", demo)
    assert code == 0
    for name in ("encoding-typechecks", "encoding-workload", "encoding-safe"):
        assert f"PASS {name}: 1 cases, 0 violations" in out
    code, out = run_cli("workload", demo, "--format", "machine")
    assert code == 0
    assert "workload.src=2" in out.splitlines()
    assert "workload.delta=2" in out.splitlines()

ADD2_OF_ONE = {
    "lina": "(linear-a (primal (x real)) (expr (prim add2 x)))",
    "lll": "(lll (env (bang x real)) (term (papp add2 (bangv x))))",
}


@pytest.mark.parametrize("dialect, args", [
    ("lina", ["check"]),
    ("lina", ["eval", "--point", "0.5"]),
    ("lll", ["typecheck"]),
])
def test_a_primitive_of_the_wrong_arity_exit_2(tmp_path, capsys, dialect,
                                               args):
    src = tmp_path / f"add2.{dialect}"
    src.write_text(ADD2_OF_ONE[dialect])
    code, out = run_cli(args[0], str(src), *args[1:])
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: SyntaxErrorAt: 1:")
    assert "add2 expects 2 arguments, got 1" in err


def test_linlog_error_in_a_command_exit_2(monkeypatch, capsys):
    from linlog import cli
    from linlog.errors import SortViolation

    def rejects(args, report):
        raise SortViolation("not a primal-sort term")

    monkeypatch.setattr(cli, "cmd_typecheck", rejects)
    code, _ = run_cli("typecheck", G)
    assert code == 2
    assert "error: SortViolation: not a primal-sort term" in capsys.readouterr().err


def test_internal_error_exit_3(monkeypatch, capsys):
    from linlog import cli

    def crashes(args, report):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_grad", crashes)
    code, out = run_cli("grad", G, "--point", "0 1", "--format", "machine")
    assert code == 3 and out == ""
    err = capsys.readouterr().err
    assert "internal error: RuntimeError: boom" in err
    assert "Traceback" in err
