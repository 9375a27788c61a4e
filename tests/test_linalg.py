import re
import textwrap

import numpy as np
import pytest

import qnetid
from qnetid.dynamics import propagate, propagator, sample_times
from qnetid.linalg import (
    ABS_FLOOR,
    EPS,
    ConfigError,
    check_positive,
    hermitize,
    load_json,
    load_matrix,
    matrix_from_json,
    matrix_to_json,
    naming,
    numerical_rank,
    save_json,
    save_matrix,
    spectral_norm,
    vec,
)
from qnetid.partialinfo import reconstruct_hamiltonian
from qnetid.sweep import SweepConfig

from conftest import under_each_blas_setting

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


class TestKron:
    def test_identity_factor(self):
        out = np.kron(np.eye(2), SX)
        expected = np.zeros((4, 4), dtype=complex)
        expected[:2, :2] = SX
        expected[2:, 2:] = SX
        assert np.array_equal(out, expected)

    def test_diag_expansion(self):
        out = np.kron(np.diag([1.0, 2.0]), SX)
        expected = np.array(
            [
                [0, 1, 0, 0],
                [1, 0, 0, 0],
                [0, 0, 0, 2],
                [0, 0, 2, 0],
            ],
            dtype=complex,
        )
        assert np.array_equal(out, expected)

    def test_vec_product_identity(self):
        # vec(A X B) = (B^T kron A) vec(X), the fingerprint of column stacking
        rng = np.random.default_rng(3)
        a, x, b = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3))
        lhs = vec(a @ x @ b)
        rhs = np.kron(b.T, a) @ vec(x)
        assert np.allclose(lhs, rhs, atol=1e-14)

    def test_associative_bilinear(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
            b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            c = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
            assert np.allclose(np.kron(np.kron(a, b), c), np.kron(a, np.kron(b, c)), atol=1e-14)
            s, t = rng.normal(size=2)
            lhs = np.kron(s * a + t * a[::-1], b)
            rhs = s * np.kron(a, b) + t * np.kron(a[::-1], b)
            assert np.allclose(lhs, rhs, atol=1e-13)


class TestVec:
    def test_column_order(self):
        m = np.array([[1.0, 3.0], [2.0, 4.0]])
        assert np.array_equal(vec(m), np.array([1.0, 2.0, 3.0, 4.0]))

    def test_identity_positions(self):
        for d in (2, 3, 5):
            v = vec(np.eye(d))
            hot = {(k - 1) * d + k for k in range(1, d + 1)}  # 1-based index law
            for pos in range(d * d):
                assert v[pos] == (1.0 if (pos + 1) in hot else 0.0)

    @pytest.mark.parametrize("rows", range(1, 7))
    @pytest.mark.parametrize("cols", range(1, 7))
    def test_roundtrip_all_shapes(self, rows, cols):
        rng = np.random.default_rng(rows * 10 + cols)
        m = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
        assert np.array_equal(vec(m), m.T.ravel())


class TestNumericalRank:
    @pytest.mark.parametrize(
        "s, rtol, rank",
        [
            pytest.param([], 1e-9, 0, id="empty"),
            pytest.param([0.5 * ABS_FLOOR, 1e-22], 1e-9, 0, id="below-floor"),
            pytest.param([ABS_FLOOR, 1e-22], 1e-9, 1, id="at-floor"),
            pytest.param([1.0, 2e-9, 1e-9], 1e-9, 2, id="at-cut-not-counted"),
            pytest.param([4.0, 4.0000001e-9, 4e-9], 1e-9, 2, id="cut-scales-with-s0"),
            pytest.param([3.0, 2.0, 1.0], 1e-9, 3, id="full"),
            pytest.param([1.0, 1e-14], 1e-9, 1, id="threshold"),
            # the solvability label cut max(m, n) * eps of a 50 x 10 system
            pytest.param([2.0, 101 * EPS, 100 * EPS], 50 * EPS, 2, id="label-cut"),
            pytest.param([2.0, 101 * EPS, 100 * EPS], 1e-16, 3, id="below-label-cut"),
        ],
    )
    def test_table(self, s, rtol, rank):
        assert numerical_rank(np.asarray(s, dtype=float), rtol) == rank

    def test_stack_gives_each_vector_its_rank(self):
        # an int for one vector; over a stack, each row's rank
        s = np.array([[[3.0, 2.0, 1e-14], [0.5 * ABS_FLOOR, 1e-22, 0.0]],
                      [[1.0, 2e-9, 1e-9], [3.0, 2.0, 1.0]]])
        ranks = numerical_rank(s, 1e-9)
        assert ranks.tolist() == [[numerical_rank(v, 1e-9) for v in row] for row in s]
        assert ranks.tolist() == [[2, 0], [2, 3]]
        assert type(numerical_rank(s[0, 0], 1e-9)) is int
        assert numerical_rank(np.zeros((2, 0)), 1e-9).tolist() == [0, 0]

    @pytest.mark.parametrize("s", [[], [1.0, 0.5]])
    @pytest.mark.parametrize("rtol", [0.0, -1e-9, np.nan, np.inf])
    def test_rejects_nonpositive_rtol(self, s, rtol):
        # rtol = 0 would count every nonzero singular value: full rank
        with pytest.raises(ValueError, match="rtol must be positive"):
            numerical_rank(np.asarray(s, dtype=float), rtol)

    def test_matches_svd_of_deficient_matrix(self):
        rng = np.random.default_rng(21)
        full = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
        deficient = full[:, [0, 1, 0]]  # duplicated column, rank 2
        assert numerical_rank(np.linalg.svd(full, compute_uv=False), 1e-9) == 3
        assert numerical_rank(np.linalg.svd(deficient, compute_uv=False), 1e-9) == 2
        assert numerical_rank(np.linalg.svd(np.zeros((3, 2)), compute_uv=False), 1e-9) == 0


class TestCheckPositive:
    @pytest.mark.parametrize("value", [0, -1.0, np.nan, np.inf, -np.inf])
    def test_rejects_all_but_positive_finite(self, value):
        with pytest.raises(ConfigError, match=r"^x must be positive and finite, got "):
            check_positive("x", value)
        assert issubclass(ConfigError, ValueError)

    @pytest.mark.parametrize("value", [1e-300, 1, 1e300])
    def test_accepts_positive_finite(self, value):
        check_positive("x", value)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 10**400, -10**400],
                             ids=["nan", "inf", "-inf", "1e400", "-1e400"])
    @pytest.mark.parametrize("call, named", [
        (lambda v: check_positive("x", v), "x must be positive and finite, got "),
        (lambda v: sample_times(v, 0.01), "tau must be positive and finite"),
        (lambda v: sample_times(1.0, v), "dt must be positive and finite"),
        (lambda v: numerical_rank([1.0], v), "rtol must be positive and finite"),
        (lambda v: propagator(SX, v), "t must be finite"),
        (lambda v: propagate(SX, np.diag([1.0, 0.0]), v), "t must be nonnegative and finite"),
        (lambda v: reconstruct_hamiltonian(np.zeros((5, 2, 4)), np.eye(4), v),
         "period must be positive and finite"),
        # a config that still holds the removed hbar key is refused whatever its value
        (lambda v: SweepConfig.from_json({"hbar": v}), "unknown config keys: ['hbar']"),
        (lambda v: SweepConfig(p_link=v).validated(), "\n  p_link must be in (0, 1], got "),
        (lambda v: SweepConfig(taus=(v,)).validated(), "\n  tau must be positive and finite"),
        (lambda v: SweepConfig(dt=v).validated(), "\n  dt must be positive and finite"),
        (lambda v: SweepConfig(rtol=v).validated(), "\n  rtol must be positive and finite"),
    ], ids=["check_positive", "tau", "dt", "rtol", "propagator-t", "propagate-t", "period",
            "sweep-hbar", "sweep-p_link", "sweep-tau", "sweep-dt", "sweep-rtol"])
    def test_extreme_values_are_config_errors(self, call, named, value):
        # an integer beyond the float range raised OverflowError from
        # math.isfinite (TypeError from np.isfinite in propagate), and
        # propagator returned a NaN matrix at t = NaN or inf
        with pytest.raises(ConfigError) as info:
            call(value)
        assert named in str(info.value)

    @pytest.mark.parametrize("value", [10**400, -10**400, 10**5000], ids=["1e400", "-1e400",
                                                                          "1e5000"])
    def test_integer_beyond_float_range_named_by_its_kind(self, value):
        # not by its digits, which str refuses beyond 4300 of them
        with pytest.raises(ConfigError, match=r"^x must be positive and finite, got an integer "
                                              r"beyond the float range$"):
            check_positive("x", value)


class TestNaming:
    @pytest.mark.parametrize("raised, error, expected", [
        (ValueError("bad"), None, ValueError),
        (ConfigError("bad"), None, ConfigError),
        (ValueError("bad"), ConfigError, ConfigError),
        (ConfigError("bad"), ValueError, ValueError),
    ])
    def test_prefixes_the_source(self, raised, error, expected):
        with pytest.raises(ValueError) as info:
            with naming("f.csv", error):
                raise raised
        assert type(info.value) is expected and str(info.value) == "f.csv: bad"
        assert info.value.__cause__ is None and info.value.__suppress_context__

    def test_decode_error_becomes_a_plain_value_error(self):
        # UnicodeDecodeError's constructor takes five arguments, so its own
        # type cannot carry the prefixed message
        with pytest.raises(ValueError) as info:
            with naming("f.csv"):
                b"\xff".decode()
        assert type(info.value) is ValueError
        assert str(info.value).startswith("f.csv: 'utf-8' codec can't decode byte 0xff")

    def test_callable_source_called_only_on_failure(self):
        calls = []

        def source():
            calls.append(1)
            return "tau/dt = 1.0/0.1"

        with naming(source, ConfigError):
            pass
        assert calls == []
        with pytest.raises(ConfigError, match=r"^tau/dt = 1\.0/0\.1: bad$"):
            with naming(source, ConfigError):
                raise ValueError("bad")

    def test_other_errors_pass_unnamed(self):
        with pytest.raises(KeyError):
            with naming("f.csv"):
                raise KeyError("k")


class TestSpectralNorm:
    def test_diagonal(self):
        assert spectral_norm(np.diag([3.0, -5.0])) == pytest.approx(5.0)

    def test_pauli_x(self):
        assert spectral_norm(SX) == pytest.approx(1.0)

    def test_matches_svd_backend(self):
        rng = np.random.default_rng(31)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert spectral_norm(a) == pytest.approx(np.linalg.svd(a, compute_uv=False)[0])

    def test_stack_gives_each_matrix_its_norm(self):
        # bit for bit the norm of each matrix on its own; a float for one
        rng = np.random.default_rng(32)
        stack = rng.normal(size=(2, 3, 4, 4))
        norms = spectral_norm(stack)
        assert norms.shape == (2, 3)
        assert norms.tolist() == [[spectral_norm(m) for m in row] for row in stack]
        assert type(spectral_norm(stack[0, 0])) is float
        assert spectral_norm(np.zeros((2, 0, 0))).tolist() == [0.0, 0.0]


class TestHermitize:
    def test_symmetrizes_roundoff(self):
        h = SX + 1e-14 * np.array([[0, 1j], [0, 0]])
        out = hermitize(h)
        assert np.array_equal(out, out.conj().T)

    def test_rejects_large_asymmetry(self):
        with pytest.raises(ValueError, match="asymmetry"):
            hermitize(np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_stack_judged_matrix_by_matrix(self):
        # one asymmetric matrix rejects the stack; a small matrix next to a
        # large one is judged on its own scale
        stack = np.stack([1e6 * SX, SX + 1e-14 * np.array([[0, 1j], [0, 0]])])
        assert np.array_equal(hermitize(stack), np.stack([hermitize(m) for m in stack]))
        stack[0, 0, 1] += 1.0
        with pytest.raises(ValueError, match="asymmetry 1.000e-06"):
            hermitize(stack)
        with pytest.raises(ValueError, match="square"):
            hermitize(np.zeros((2, 3, 2)))

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)],
                             ids=["nan", "inf", "-inf", "imag-nan"])
    def test_rejects_non_finite(self, entry):
        # NaN > tol is False, so a NaN matrix passed as Hermitian; inf gave
        # inf - inf.  Alone and in a stack, before any arithmetic warns
        m = SX.copy()
        m[0, 1] = entry
        for x in (m, np.stack([SX, m]), np.stack([[m, SX]] * 2)):
            with pytest.raises(ValueError, match=r"^matrix is not finite"):
                hermitize(x)


class TestMatrixJson:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(41)
        m = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
        path = tmp_path / "m.json"
        save_matrix(path, m)
        back = load_matrix(path)
        assert np.array_equal(back, m)

    def test_integer_adjacency_roundtrip(self, tmp_path):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        path = tmp_path / "a.json"
        save_matrix(path, a)
        back = load_matrix(path)
        assert np.array_equal(back.real, a)
        assert np.array_equal(back.imag, np.zeros_like(a))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            matrix_from_json({"rows": 2, "cols": 2, "re": [[1.0, 2.0]], "im": [[0.0, 0.0]]})

    @pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("part", ["re", "im"])
    def test_non_finite_entries_rejected(self, tmp_path, text, part):
        # Python's json parses NaN and +-Infinity: simulate wrote a NaN
        # trajectory from such a Hamiltonian, the solvers hit "SVD did not converge"
        obj = matrix_to_json(SX)
        obj[part][1][0] = float(text)
        path = tmp_path / "m.json"
        save_json(path, obj)
        assert text in path.read_text()
        with pytest.raises(ValueError, match="^matrix entries must be finite"):
            matrix_from_json(obj)
        with pytest.raises(ConfigError, match=re.escape(f"{path}: matrix entries must be finite")):
            load_matrix(path)

    def test_missing_keys_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            matrix_from_json({"rows": 1})

    @pytest.mark.parametrize("rows, cols", [(2.9, True), ("2", 1), (2.0, 1), (2, None)])
    def test_sizes_are_integers(self, tmp_path, rows, cols):
        # is_integer judges the sizes; int() took 2.9 as 2 and True as 1
        obj = {"rows": rows, "cols": cols, "re": [[1.0], [2.0]], "im": [[0.0], [0.0]]}
        with pytest.raises(ValueError, match="^malformed matrix object: rows and cols must be "
                                             "integers"):
            matrix_from_json(obj)
        path = tmp_path / "m.json"
        save_json(path, obj)
        with pytest.raises(ConfigError, match=re.escape(f"{path}: malformed matrix object")):
            load_matrix(path)

    def test_json_fields(self):
        obj = matrix_to_json(np.array([[1 + 2j]]))
        assert obj == {"rows": 1, "cols": 1, "re": [[1.0]], "im": [[2.0]]}

    def test_unparsable_file_names_it(self, tmp_path):
        # json's JSONDecodeError did not name the file
        path = tmp_path / "bad.json"
        path.write_text('{"rows": 2,')
        for load in (load_json, load_matrix):
            with pytest.raises(ConfigError, match=re.escape(f"{path}: Expecting property name")):
                load(path)

    @pytest.mark.parametrize("text", ['{"rows": 2}', '[1, 2]', '{"rows": 1e400, "cols": 1}'])
    def test_non_matrix_object_names_the_file(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match=re.escape(f"{path}: malformed matrix object")):
            load_matrix(path)

    def test_save_json_layout(self, tmp_path):
        # indent 2, sorted keys, one final newline; save_matrix stays on one line
        path = tmp_path / "doc.json"
        save_json(path, {"b": [1, 2.5], "a": {"y": None, "x": True}})
        assert path.read_text() == (
            '{\n  "a": {\n    "x": true,\n    "y": null\n  },\n'
            '  "b": [\n    1,\n    2.5\n  ]\n}\n'
        )
        assert load_json(path) == {"a": {"x": True, "y": None}, "b": [1, 2.5]}
        save_matrix(path, np.array([[1 + 2j]]))
        assert path.read_text() == '{"rows": 1, "cols": 1, "re": [[1.0]], "im": [[2.0]]}\n'


class TestExports:
    def test_all_resolves_without_duplicates(self):
        assert len(qnetid.__all__) == len(set(qnetid.__all__))
        missing = [name for name in qnetid.__all__ if not hasattr(qnetid, name)]
        assert missing == []

    def test_one_config_error(self):
        assert qnetid.ConfigError is qnetid.sweep.ConfigError is qnetid.linalg.ConfigError


class TestOneBlasThread:
    def test_reports_pick_no_bits(self):
        # identify and partial-identify hold numpy's OpenBLAS at one thread:
        # with OPENBLAS_NUM_THREADS unset, at 1 and at 2, the d = 26 report
        # and the d = 7, 8 estimates (which a second BLAS thread moves when
        # unheld) are the same bits
        code = textwrap.dedent("""\
            import hashlib, json
            import numpy as np
            from qnetid import (basis_density, erdos_renyi, identify_topology,
                                output_stacks, physical_initial_batch, propagator,
                                reconstruct_hamiltonian, sample_trajectory, sampling_period)
            adjacency = erdos_renyi(26, 0.5, 7)
            traj = sample_trajectory(adjacency, basis_density(26, 1), 3.0, 0.01)
            report = identify_topology(traj, subsample=5, truth=adjacency, real_coupling=True)
            print("identify", json.dumps(report.to_json(), sort_keys=True))
            for d in (7, 8):
                for seed in (0, 1):
                    rng = np.random.default_rng(seed)
                    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                    h = 0.5 * (g + g.conj().T)
                    h = h * (1.0 / np.linalg.norm(h, 2))
                    period = sampling_period(h)
                    lambda0 = physical_initial_batch(d)[0]
                    ys = output_stacks(propagator(h, period), lambda0, d * d)
                    h_hat = reconstruct_hamiltonian(ys, lambda0, period)
                    print(d, seed, hashlib.sha256(h_hat.tobytes()).hexdigest())
            """)
        unset, one, two = under_each_blas_setting(code)
        assert one.splitlines() == unset.splitlines() == two.splitlines()

    def test_import_looks_up_nothing(self):
        # the decorators are made at import; the library is found on the
        # first solve, so that import qnetid stays as cheap as before
        code = ("import qnetid, qnetid.linalg; "
                "print(qnetid.linalg._openblas_threads.cache_info().currsize)")
        assert under_each_blas_setting(code) == ["0\n"] * 3
