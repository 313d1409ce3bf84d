"""The command-line surface: problem/certificate files, exit codes,
and determinism."""

import io
import contextlib

from frobsplit.cli import main, parse_problem, parse_mrat, CLIError
from frobsplit.fields import FieldSpec

import pytest

IDENTITY = """\
[field]
p = 2
ell = 1

[map]
n = 1
entry_1_1 = 1

[question]
d = 1
"""

DIAG_FF = """\
[field]
p = 2
ell = 1

[map]
n = 2
entry_1_1 = F
entry_1_2 = 0
entry_2_1 = 0
entry_2_2 = F

[question]
d = 1
"""

F_PLUS_1 = """\
[field]
p = 2
ell = 1

[map]
n = 1
entry_1_1 = 1 + F

[question]
d = 1
density_m = 25
density_d = 3
"""

LAMBDA = """\
[field]
p = 2
ell = 1

[lambda]
lambda = t1 + 1
c = 1 ; 1
"""


def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_parse_rejects_unknown_keys():
    with pytest.raises(CLIError):
        parse_problem("[field]\np = 2\nell = 1\nbogus = 3\n")
    with pytest.raises(CLIError):
        parse_problem("[bogus]\nx = 1\n")
    with pytest.raises(CLIError):
        parse_problem(IDENTITY + "entry_9_9 = F\n")


def test_parse_rejects_bad_modulus():
    code, _, _ = run_with_file("[field]\np = 2\nell = 2\nmodulus = [1,0,1]\n",
                               lambda p: ["tools", "minpoly", p])
    assert code == 1


def run_with_file(text, argv_fn, tmp_name="problem.txt"):
    import tempfile, os
    d = tempfile.mkdtemp()
    path = os.path.join(d, tmp_name)
    with open(path, "w") as fh:
        fh.write(text)
    return run(argv_fn(path)) + (path,)


def test_classify_identity_is_B(tmp_path):
    prob = tmp_path / "p.txt"
    prob.write_text(IDENTITY)
    cert = tmp_path / "c.txt"
    code, out = run(["classify", str(prob), "--out", str(cert)])
    assert code == 0
    assert "verdict = B" in out
    code, out = run(["verify", str(cert), str(prob)])
    assert code == 0
    assert "v*A^1 = v" in out


def test_classify_diag_is_C_and_tamper_fails(tmp_path):
    prob = tmp_path / "p.txt"
    prob.write_text(DIAG_FF)
    cert = tmp_path / "c.txt"
    code, out = run(["classify", str(prob), "--out", str(cert)])
    assert code == 0 and "verdict = C" in out
    assert "r = 1" in cert.read_text()
    code, _ = run(["verify", str(cert), str(prob)])
    assert code == 0
    tampered = tmp_path / "bad.txt"
    tampered.write_text(cert.read_text().replace("r = 1", "r = 2"))
    code, out = run(["verify", str(tampered), str(prob)])
    assert code == 4 and "identity fails" in out


def test_digest_mismatch(tmp_path):
    prob = tmp_path / "p.txt"
    prob.write_text(DIAG_FF)
    other = tmp_path / "q.txt"
    other.write_text(IDENTITY)
    cert = tmp_path / "c.txt"
    assert run(["classify", str(prob), "--out", str(cert)])[0] == 0
    code, _ = run(["verify", str(cert), str(other)])
    assert code == 3


def test_classify_A_with_density(tmp_path):
    prob = tmp_path / "p.txt"
    prob.write_text(F_PLUS_1)
    cert = tmp_path / "c.txt"
    code, out = run(["classify", str(prob), "--out", str(cert)])
    assert code == 0 and "verdict = A" in out
    assert "outcome = dense-up-to-D" in cert.read_text()
    code, out = run(["verify", str(cert), str(prob)])
    assert code == 0


def test_classify_g_f_over_f4_has_no_cap_option(tmp_path):
    # the root of x^2 - s squares to s: decided exactly, with no bound
    prob = tmp_path / "p.txt"
    prob.write_text("[field]\np = 2\nell = 2\n\n[map]\nn = 1\n"
                    "entry_1_1 = [0,1]*F\n\n[question]\nd = 1\n")
    code, out = run(["classify", str(prob)])
    assert code == 0 and "verdict = A" in out
    code, out = run(["tools", "split", str(prob)])
    assert code == 0 and "n = 2\n" in out
    # factor_i classifies the factors of A's own minimal polynomial
    assert out.endswith("factor_1 = FrobeniusType(n=2, j=1)\n")
    for argv in (["classify", str(prob)], ["tools", "split", str(prob)]):
        with pytest.raises(SystemExit):
            main(argv + ["--cap", "1"])


def test_companion_of_x7_x_1_is_verdict_b(tmp_path):
    # the root of x^7 + x + 1 has order 127 in F_128^*: v*A^127 = v
    entries = "".join("entry_%d_%d = %d\n" % (i, j, int(i == j + 1 or (
        j == 7 and i in (1, 2)))) for i in range(1, 8) for j in range(1, 8))
    prob = tmp_path / "p.txt"
    cert = tmp_path / "c.txt"
    prob.write_text("[field]\np = 2\nell = 1\n\n[map]\nn = 7\n" + entries
                    + "\n[question]\nd = 1\n")
    code, out = run(["classify", str(prob), "--out", str(cert)])
    assert code == 0 and "verdict = B" in out
    code, out = run(["verify", str(cert), str(prob)])
    assert code == 0 and out == "checked: v*A^127 = v\n"


def test_non_dominant_exit_1(tmp_path):
    prob = tmp_path / "p.txt"
    prob.write_text("[field]\np = 2\nell = 1\n\n[map]\nn = 1\n"
                    "entry_1_1 = 0\n\n[question]\nd = 1\n")
    code, _ = run(["classify", str(prob)])
    assert code == 1


def test_determinism_byte_identical(tmp_path):
    prob = tmp_path / "p.txt"
    prob.write_text(F_PLUS_1)
    outs = []
    for _ in range(2):
        code, out = run(["classify", str(prob), "--seed", "5"])
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_tools_minpoly_and_tilde(tmp_path):
    prob = tmp_path / "p.txt"
    prob.write_text("[field]\np = 2\nell = 2\n\n[map]\nn = 1\n"
                    "entry_1_1 = F\n")
    code, out = run(["tools", "minpoly", str(prob)])
    assert code == 0 and out.strip() == "minpoly = (s) + x^2"
    code, out = run(["tools", "tilde", str(prob)])
    assert code == 0
    assert "t_1_2 = [1,0]" in out and "t_2_1 = s" in out
    assert "t_1_1 = 0" in out and "t_2_2 = 0" in out


def test_tools_split_orbit_density(tmp_path):
    prob = tmp_path / "p.txt"
    prob.write_text(DIAG_FF)
    code, out = run(["tools", "split", str(prob)])
    assert code == 0 and "blocks = (1,2)" in out
    pt = tmp_path / "pt.txt"
    pt.write_text(F_PLUS_1.replace("[question]\nd = 1\ndensity_m = 25\n"
                                   "density_d = 3\n",
                                   "[point]\nnvars = 1\nx_1 = (1) / (t1)\n"))
    code, out = run(["tools", "orbit", str(pt), "--M", "3"])
    assert code == 0 and out.splitlines()[0] == "(1) / (t1)"
    code, out = run(["tools", "density", str(pt), "--M", "25", "--D", "3"])
    assert code == 0 and "outcome = dense-up-to-D" in out


def test_tools_lambda_density(tmp_path):
    prob = tmp_path / "p.txt"
    prob.write_text(LAMBDA)
    code, out = run(["tools", "lambda-density", str(prob), "--M", "512"])
    assert code == 0
    assert "count = 10/512" in out
    lines = out.splitlines()
    assert lines[0] == "m,solvable,tuple"
    assert lines[1] == "1,1,(1,)"
    assert lines[2] == "2,1,(2,)"
    assert lines[3] == "3,0,"


def test_tools_fset_and_independence(tmp_path):
    prob = tmp_path / "p.txt"
    prob.write_text("[field]\np = 2\nell = 1\n\n[fset]\ngamma0 = 0\n"
                    "gamma_1 = t1\nk_1 = 1\nb = 3\nmodule_bound = 0\n")
    code, out = run(["tools", "fset", str(prob)])
    assert code == 0 and "count = 3" in out
    assert "t1^2" in out and "t1^8" in out
    code, out = run(["tools", "independence", str(prob), "--M", "2",
                     "--D", "4"])
    assert code == 0 and "independent = true" in out


def test_parse_mrat_roundtrip():
    spec = FieldSpec.get(2, 1)
    for text in ("t1", "(1) / (t1)", "t1^2 + t1 + 1",
                 "(t1^3 + 1) / (t1^2 + t1)"):
        f = parse_mrat(text, spec, 1)
        assert parse_mrat(repr(f), spec, 1) == f


def test_fset_bad_nvars_is_error_exit_1(tmp_path, capsys):
    prob = tmp_path / "p.txt"
    prob.write_text("[field]\np = 2\nell = 1\n\n[fset]\nnvars = x\n"
                    "gamma0 = 0\ngamma_1 = t1\nk_1 = 1\n")
    assert main(["tools", "fset", str(prob)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "nvars" in err


def test_dimension_below_one_is_error_exit_1(tmp_path, capsys):
    prob = tmp_path / "p.txt"
    prob.write_text(IDENTITY.replace("d = 1", "d = 0"))
    assert main(["classify", str(prob)]) == 1
    assert capsys.readouterr().err == "error: dimension d must be >= 1\n"


def test_capacity_error_is_error_exit_2(tmp_path, capsys, monkeypatch):
    from frobsplit import split
    monkeypatch.setattr(split, "_DEGREE_CAP_X", 0)
    prob = tmp_path / "p.txt"
    prob.write_text(IDENTITY)
    assert main(["classify", str(prob)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: bound exhausted: x-degree")
    assert captured.err.count("\n") == 1
    assert "verdict" not in captured.out


# the minimal polynomial (x - s)(x - s^2) is squarefree with s-degree 3
DIAG_F_F2 = DIAG_FF.replace("entry_2_2 = F", "entry_2_2 = F^2")

S_CAP_SCRIPT = """\
import sys
from frobsplit import split
from frobsplit.cli import main
split._DEGREE_CAP_S = 0
sys.exit(main(["classify", sys.argv[1]]))
"""


def test_s_degree_cap_is_error_exit_2(tmp_path, capsys, monkeypatch):
    import os
    import subprocess
    import sys
    import frobsplit
    from frobsplit import split
    prob = tmp_path / "p.txt"
    prob.write_text(DIAG_F_F2)
    want = "error: bound exhausted: s-degree 3 exceeds cap 0\n"
    monkeypatch.setattr(split, "_DEGREE_CAP_S", 0)
    assert main(["classify", str(prob)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", want)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(os.path.abspath(
        frobsplit.__file__)))
    done = subprocess.run([sys.executable, "-O", "-c", S_CAP_SCRIPT,
                           str(prob)], env=env, capture_output=True,
                          text=True, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (2, "", want)


def test_self_check_failure_is_error_exit_4(tmp_path, capsys, monkeypatch):
    import importlib
    # the package re-exports the function `classify` under the module's name
    classify_mod = importlib.import_module("frobsplit.classify")
    monkeypatch.setattr(classify_mod, "verify_certificate",
                        lambda A, cert: (False, "forced mismatch"))
    with pytest.raises(classify_mod.CertificateSelfCheckError,
                       match="forced mismatch"):
        classify_mod.classify(parse_problem(IDENTITY).additive_map(), 1)
    prob = tmp_path / "p.txt"
    prob.write_text(DIAG_FF)
    cert = tmp_path / "c.txt"
    assert main(["classify", str(prob), "--out", str(cert)]) == 4
    captured = capsys.readouterr()
    assert captured.err == ("error: certificate self-check failed: "
                            "forced mismatch\n")
    assert not cert.exists()


def test_classify_under_optimize_flag_writes_same_certificate(tmp_path):
    import os
    import subprocess
    import sys
    import frobsplit
    prob = tmp_path / "p.txt"
    prob.write_text(DIAG_FF)
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        frobsplit.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    certs = []
    for flags in ([], ["-O"]):
        cert = tmp_path / ("c%d.txt" % len(certs))
        done = subprocess.run([sys.executable] + flags
                              + ["-m", "frobsplit.cli", "classify",
                                 str(prob), "--out", str(cert)],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        assert "verdict = C" in done.stdout
        certs.append(cert.read_bytes())
    assert certs[0] == certs[1]


FSET_K0 = ("[field]\np = 2\nell = 1\n\n[fset]\ngamma0 = 0\ngamma_1 = t1\n"
           "k_1 = 0\n")
LAMBDA_R4 = LAMBDA.replace("c = 1 ; 1", "c = 1 ; 1 ; 1 ; 1 ; 1")
FSET_BAD_H = FSET_K0.replace("k_1 = 0", "k_1 = 1\nh_1 = t1 ; t1")


def test_fset_zero_period_is_error_exit_1(tmp_path, capsys):
    prob = tmp_path / "p.txt"
    prob.write_text(FSET_K0)
    assert main(["tools", "fset", str(prob)]) == 1
    assert capsys.readouterr().err == "error: periods k_i must be >= 1\n"
    prob.write_text(FSET_K0.replace("k_1 = 0", "k_1 = 1\nmodule_bound = -1"))
    assert main(["tools", "fset", str(prob)]) == 1
    assert capsys.readouterr().err == "error: module_bound must be >= 0\n"
    prob.write_text(FSET_K0.replace("k_1 = 0", "k_1 = 1"))
    assert main(["tools", "fset", str(prob), "--M", "0"]) == 1
    assert capsys.readouterr().err == \
        "error: exponent bound b must be >= 1\n"
    prob.write_text(FSET_BAD_H)
    assert main(["tools", "fset", str(prob)]) == 1
    assert capsys.readouterr().err == \
        "error: module generators and gamma0 differ in dimension\n"


POINT = F_PLUS_1.replace("[question]\nd = 1\ndensity_m = 25\ndensity_d = 3\n",
                         "[point]\nnvars = 1\nx_1 = (1) / (t1)\n")


def _a_certificate(tmp_path):
    prob = tmp_path / "a.txt"
    prob.write_text(F_PLUS_1)
    cert = tmp_path / "a.cert"
    code, _ = run(["classify", str(prob), "--out", str(cert)])
    assert code == 0 and "\ndensity_m = 25\n" in cert.read_text()
    return prob, cert


@pytest.mark.parametrize("value", ["0", "-3"])
@pytest.mark.parametrize("case", [
    "lambda-density --M", "density --M", "density --D", "orbit --M",
    "independence --M",
    "classify --density-M", "classify --density-D", "question density_m",
    "question density_d", "certificate density_m", "certificate density_d"])
def test_count_below_one_is_error_exit_1(tmp_path, capsys, case, value):
    where, name = case.split()
    prob = tmp_path / "p.txt"
    if where == "certificate":
        prob, cert = _a_certificate(tmp_path)
        cert.write_text(cert.read_text().replace(
            "\n%s = " % name, "\n%s = %s\n# " % (name, value)))
        argv = ["verify", str(cert), str(prob)]
    elif where == "question":
        prob.write_text(F_PLUS_1.replace("\n%s = " % name,
                                         "\n%s = %s\n# " % (name, value)))
        argv = ["classify", str(prob)]
    elif where == "classify":
        prob.write_text(F_PLUS_1)
        argv = ["classify", str(prob), name, value]
    else:
        prob.write_text(LAMBDA if where == "lambda-density" else POINT)
        argv = ["tools", where, str(prob), name, value]
    capsys.readouterr()
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "must be >= 1, got %s" % value in err


@pytest.mark.parametrize("value", ["-1", "-3"])
def test_independence_negative_degree_is_error_exit_1(tmp_path, capsys,
                                                      value):
    prob = tmp_path / "p.txt"
    prob.write_text(POINT)
    capsys.readouterr()
    assert main(["tools", "independence", str(prob), "--D", value]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --D must be >= 0, got %s\n" % value
    # operator degree 0 is a valid question
    assert main(["tools", "independence", str(prob), "--D", "0"]) == 0
    assert "independent = " in capsys.readouterr().out


def test_lambda_with_four_terms_is_bound_exit_2(tmp_path, capsys):
    prob = tmp_path / "p.txt"
    prob.write_text(LAMBDA_R4)
    assert main(["tools", "lambda-density", str(prob), "--M", "4"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: bound exhausted: lambda equation with "
                          "r = 4 terms") and err.count("\n") == 1


def test_lambda_not_in_lowest_terms_gives_the_same_sweep(tmp_path):
    # (t1^2 + t1) / t1 = t1 + 1: lambda is reduced once, so its powers
    # are polynomials and the sweep matches the reduced form's
    outs = []
    for lam in ("t1 + 1", "(t1^2 + t1) / (t1)", "(t1^2 + 1) / (t1 + 1)"):
        prob = tmp_path / ("%d.txt" % len(outs))
        prob.write_text(LAMBDA.replace("t1 + 1", lam))
        code, out = run(["tools", "lambda-density", str(prob), "--M", "8"])
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]
    assert "count = 4/8\n" in outs[0]


def test_lambda_with_a_denominator_past_the_gcd_cap_exit_2(tmp_path, capsys):
    prob = tmp_path / "p.txt"
    prob.write_text(LAMBDA.replace("t1 + 1", "(t1^5000 + t1) / (t1)"))
    assert main(["tools", "lambda-density", str(prob), "--M", "4"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: bound exhausted: lambda with a "
                          "denominator has degree 5000") \
        and err.count("\n") == 1


def test_lambda_power_past_the_degree_cap_exit_2(tmp_path, capsys):
    # the sweep holds lambda^m dense: a sparse lambda of huge degree is
    # refused before its first power is formed
    prob = tmp_path / "p.txt"
    prob.write_text(LAMBDA.replace("t1 + 1", "t1^1000000000 + 1"))
    assert main(["tools", "lambda-density", str(prob), "--M", "4"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: bound exhausted: lambda^1 has degree 1000000000,"
                   " above the cap 1048576 of its dense powers\n")
    prob.write_text(LAMBDA.replace("t1 + 1", "t1^4096 + t1"))
    assert main(["tools", "lambda-density", str(prob), "--M", "300"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: bound exhausted: "
                                        "lambda^257 has degree 1052672")


def test_input_checks_fire_under_optimize_flag(tmp_path):
    import os
    import subprocess
    import sys
    import frobsplit
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        frobsplit.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for i, (text, tool, code) in enumerate(((FSET_K0, "fset", 1),
                                            (FSET_BAD_H, "fset", 1),
                                            (LAMBDA_R4, "lambda-density", 2))):
        prob = tmp_path / ("%d.txt" % i)
        prob.write_text(text)
        done = subprocess.run([sys.executable, "-O", "-m", "frobsplit.cli",
                               "tools", tool, str(prob), "--M", "4"],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == code, done.stderr
        assert done.stderr.startswith("error: ")
        assert done.stderr.count("\n") == 1


DIAG_F1_F1 = """\
[field]
p = 2
ell = 1

[map]
n = 2
entry_1_1 = 1 + F
entry_1_2 = 0
entry_2_1 = 0
entry_2_2 = 1 + F

[question]
d = 1
"""


def test_verify_rejects_b_row_longer_than_the_map(tmp_path, capsys):
    prob = tmp_path / "p.txt"
    prob.write_text(IDENTITY)
    cert = tmp_path / "c.txt"
    assert run(["classify", str(prob), "--out", str(cert)])[0] == 0
    long_row = tmp_path / "long.txt"
    long_row.write_text(cert.read_text().replace(
        "v_1 = 1\n", "v_1 = 1\nv_2 = F + 1\nv_3 = F^5\n"))
    code, out = run(["verify", str(long_row), str(prob)])
    assert code == 4
    assert out == ("checked: certificate row has 3 entries, the map has "
                   "dimension 1\n")
    assert capsys.readouterr().err == ""


def test_verify_rejects_c_rows_of_the_wrong_length(tmp_path):
    prob = tmp_path / "p.txt"
    prob.write_text(DIAG_FF)
    cert = tmp_path / "c.txt"
    assert run(["classify", str(prob), "--out", str(cert)])[0] == 0
    text = cert.read_text()
    assert "t_2_2 = " in text and "t_2_3" not in text
    wide = tmp_path / "wide.txt"
    wide.write_text(text.replace("t_2_2 = ", "t_2_3 = 0\nt_2_2 = "))
    code, out = run(["verify", str(wide), str(prob)])
    assert code == 4
    assert out == ("checked: certificate row 2 has 3 entries, the map has "
                   "dimension 2\n")


def test_verify_rejects_a_witness_of_the_wrong_dimension(tmp_path, capsys):
    prob = tmp_path / "p.txt"
    prob.write_text(DIAG_F1_F1)
    cert = tmp_path / "c.txt"
    code, out = run(["classify", str(prob), "--out", str(cert)])
    assert code == 0 and "verdict = A" in out
    text = cert.read_text()
    short = tmp_path / "short.txt"
    short.write_text("".join(line for line in text.splitlines(True)
                             if not line.startswith("alpha_2 =")))
    code, out = run(["verify", str(short), str(prob)])
    assert code == 4
    assert out == ("checked: witness point has 1 coordinates, the map has "
                   "dimension 2\n")
    assert capsys.readouterr().err == ""


def test_zero_denominator_is_error_exit_1(tmp_path, capsys):
    # also the field literals that are not integers or have more than
    # ell coefficients, in a [point], a [lambda] c and an A certificate;
    # each is one error line and exit 1, also under python -O
    import os
    import subprocess
    import sys
    import frobsplit
    no_question = "[question]\nd = 1\ndensity_m = 25\ndensity_d = 3\n"
    prob = tmp_path / "p.txt"
    prob.write_text(DIAG_F1_F1)
    cert = tmp_path / "c.txt"
    assert run(["classify", str(prob), "--out", str(cert)])[0] == 0
    capsys.readouterr()
    files = {
        "point": F_PLUS_1.replace(no_question,
                                  "[point]\nnvars = 1\nx_1 = (1) / (0)\n"),
        "lam": LAMBDA.replace("lambda = t1 + 1", "lambda = (1) / (0)"),
        "bad": cert.read_text().replace("alpha_1 = (1) / (t1)",
                                        "alpha_1 = (1) / (0)")}
    files["point_u"] = files["point"].replace("(1) / (0)", "u")
    files["point_f4"] = ("[field]\np = 2\nell = 2\n\n[map]\nn = 1\n"
                         "entry_1_1 = 1 + F\n\n[point]\nnvars = 1\n"
                         "x_1 = [1,1,1]*t1\n")
    files["lam_c"] = LAMBDA.replace("c = 1 ; 1", "c = u ; 1")
    files["bad_t2"] = files["bad"].replace("(1) / (0)", "(t2)")
    path = {}
    for name, text in files.items():
        path[name] = str(tmp_path / (name + ".txt"))
        (tmp_path / (name + ".txt")).write_text(text)
    zero = "error: zero denominator in '(1) / (0)'\n"
    literal = "error: bad field literal: %r\n"
    cases = [(["tools", "orbit", path["point"]], zero),
             (["tools", "lambda-density", path["lam"], "--M", "4"], zero),
             (["verify", path["bad"], str(prob)], zero),
             (["tools", "orbit", path["point_u"]], literal % "u"),
             (["tools", "orbit", path["point_f4"]],
              "error: too many coefficients for F_2^2: '[1,1,1]'\n"),
             (["tools", "lambda-density", path["lam_c"], "--M", "4"],
              literal % "u"),
             (["verify", path["bad_t2"], str(prob)], literal % "(t2)")]
    for argv, err in cases:
        code, out = run(argv)
        assert code == 1 and out == ""
        assert capsys.readouterr().err == err
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        frobsplit.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for argv, err in cases:
        done = subprocess.run([sys.executable, "-O", "-m", "frobsplit.cli"]
                              + argv, env=env, capture_output=True,
                              text=True, timeout=120)
        assert (done.returncode, done.stdout, done.stderr) == (1, "", err)


@pytest.mark.parametrize("kind,extra", [
    ("C", "t_2_4 = F^9"), ("C", "t_3_5 = F^9"), ("C", "v_1 = 1"),
    ("C", "bogus = 7"), ("B", "alpha_1 = t1"),
    ("B", "outcome = dense-up-to-D"), ("A", "n = 1"), ("A", "t_1_1 = F")])
def test_certificate_key_its_kind_does_not_read_is_error_exit_1(
        tmp_path, capsys, kind, extra):
    # diag(F, F) over F_2 gives C with t_1_1 .. t_2_2, the identity B with
    # v_1, and F + 1 gives A
    prob = tmp_path / "p.txt"
    prob.write_text({"B": IDENTITY, "C": DIAG_FF, "A": F_PLUS_1}[kind])
    cert = tmp_path / "c.txt"
    assert run(["classify", str(prob), "--out", str(cert)])[0] == 0
    assert run(["verify", str(cert), str(prob)])[0] == 0
    text = cert.read_text()
    section = text.split("\n\n[split]")[0]
    assert "kind = %s\n" % kind in section
    assert "\n%s = " % extra.split()[0] not in section
    cert.write_text(text.replace("\n\n[split]", "\n%s\n\n[split]" % extra))
    capsys.readouterr()
    assert main(["verify", str(cert), str(prob)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: unknown keys in [certificate]: %s\n" \
        % extra.split()[0]


def test_fset_enumeration_past_the_cap_is_bound_exit_2(tmp_path, capsys):
    # three gamma_i with b = 50 make 50^3 = 125000 exponent tuples
    prob = tmp_path / "p.txt"
    prob.write_text("[field]\np = 5\nell = 1\n\n[fset]\ngamma0 = 0\n"
                    "gamma_1 = t1\nk_1 = 1\ngamma_2 = t1^2\nk_2 = 1\n"
                    "gamma_3 = t1^3\nk_3 = 1\nb = 50\n")
    assert main(["tools", "fset", str(prob)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: bound exhausted: F-set enumeration of size "
                   "125000 exceeds cap 100000\n")


def test_empty_factor_in_an_entry_is_error_exit_1(tmp_path, capsys):
    prob = tmp_path / "p.txt"
    prob.write_text(IDENTITY.replace("entry_1_1 = 1", "entry_1_1 = F*-1"))
    assert main(["classify", str(prob)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: bad Ore polynomial for entry_1_1: empty factor "
                   "in term 'F*'\n")


@pytest.mark.parametrize("entry,k", [("F^99999999999", 99999999999),
                                     ("F^600000*F^600000", 1200000)])
def test_F_degree_past_the_cap_is_bound_exit_2(tmp_path, capsys, entry, k):
    import time
    prob = tmp_path / "p.txt"
    prob.write_text(IDENTITY.replace("entry_1_1 = 1", "entry_1_1 = " + entry))
    start = time.perf_counter()
    assert main(["classify", str(prob)]) == 2
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: bound exhausted: F^%d in term %r, above the cap "
                   "1048576 on the F-degree of a term\n" % (k, entry))


def test_include_zero_takes_only_true_or_false(tmp_path, capsys):
    prob = tmp_path / "p.txt"
    text = ("[field]\np = 2\nell = 1\n\n[fset]\ngamma0 = 0\ngamma_1 = t1\n"
            "k_1 = 1\nb = 3\ninclude_zero = %s\n")
    for value, count in (("true", 4), ("False", 3)):
        prob.write_text(text % value)
        code, out = run(["tools", "fset", str(prob)])
        assert code == 0 and out.endswith("count = %d\n" % count)
    prob.write_text(text % "yes")
    assert main(["tools", "fset", str(prob)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: include_zero in [fset] must be true or false, "
                   "got 'yes'\n")
