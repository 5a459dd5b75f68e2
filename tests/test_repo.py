"""Repository hygiene: nothing generated or ignored is tracked, the
engine names the benchmark traces still exist, every library function and
method is reached, and every method the README names exists."""

import re
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.skipif(shutil.which("git") is None or not (ROOT / ".git").exists(),
                    reason="needs git and a git checkout")
def test_no_tracked_file_is_ignored():
    r = subprocess.run(["git", "ls-files", "-ci", "--exclude-standard"],
                       cwd=ROOT, capture_output=True, text=True)
    if r.returncode:
        pytest.skip(f"git ls-files failed: {r.stderr.strip()}")
    assert r.stdout.splitlines() == []


def _benchmark_targets():
    """The TARGETS list of perfbench/tracer.py, read from its source
    without importing or installing the tracer."""
    import ast
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    for node in tree.body:
        names = [t.id for t in getattr(node, "targets", [])
                 if isinstance(t, ast.Name)]
        if isinstance(node, ast.Assign) and names == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


def test_benchmark_traced_names_resolve():
    # the benchmark traces these names and reports a renamed or deleted
    # one as missing instead of failing, so a refactor must keep them
    import importlib
    for _prefix, modname, path in _benchmark_targets():
        owner = importlib.import_module(modname)
        for name in path.split("."):
            assert hasattr(owner, name), f"{modname}.{path}"
            owner = getattr(owner, name)
        assert callable(owner), f"{modname}.{path}"


def test_solve_linear_reexported_by_cohomology():
    import qexterior.cohomology
    import qexterior.snf
    assert qexterior.cohomology.solve_linear is qexterior.snf.solve_linear


def test_no_library_module_calls_solve_linear():
    # the SNF solve is a test oracle; the library only re-exports it
    import ast
    callers = []
    for path in sorted((ROOT / "src" / "qexterior").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            func = getattr(node, "func", None)
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if isinstance(node, ast.Call) and name == "solve_linear":
                callers.append(f"{path.name}:{node.lineno}")
    assert callers == []


def test_only_equivariant_mode_zero_takes_a_smith_normal_form():
    # the de Rham and Dolbeault tables read mode 0 off the constant
    # monomials and every table certifies its nonzero modes through
    # require_modes, which builds no per-mode certificate; outside
    # complexes.py and snf.py (whose solve_linear no library module calls)
    # only the equivariant Cartan complex of mode 0 reaches the SNF, in
    # one call
    import ast
    forbidden = {"complex_homology", "dense_complex", "smith_normal_form"}
    callers, certificates = [], []
    for path in sorted((ROOT / "src" / "qexterior").glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            where = f"{path.name}:{getattr(top, 'name', '<module>')}"
            for node in ast.walk(top):
                func = getattr(node, "func", None)
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if not isinstance(node, ast.Call):
                    continue
                if name in forbidden and \
                        path.name not in ("complexes.py", "snf.py"):
                    callers.append(f"{where}:{name}")
                elif name == "homotopy_certificate":
                    certificates.append(where)
    assert callers == [
        "equivariant.py:equivariant_cohomology_table:complex_homology",
        "equivariant.py:equivariant_cohomology_table:dense_complex"]
    assert certificates == []


def test_every_mode_is_settled_through_require_modes():
    # the three table drivers settle their Fourier modes through one call;
    # only require_modes builds a Koszul operator on the masks (those of
    # the unit modes), and no library module runs a per-mode certificate
    import ast
    calls = []
    for path in sorted((ROOT / "src" / "qexterior").glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                func = getattr(node, "func", None)
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if isinstance(node, ast.Call) and name in (
                        "require_modes", "require_acyclic", "koszul_columns",
                        "homotopy_certificate"):
                    calls.append(f"{path.name}:"
                                 f"{getattr(top, 'name', '<module>')}:{name}")
    assert calls == [
        "cohomology.py:quantum_derham_table:require_modes",
        "cohomology.py:quantum_dolbeault_table:require_modes",
        "complexes.py:require_modes:koszul_columns",
        "equivariant.py:equivariant_cohomology_table:require_modes"]


def unreached_names(root, bench, readme, public):
    """The library names under ``root`` that only tests could reach.

    Returns ``(functions, methods)``: ``module:name`` of every top-level
    function or class that no library module names, that is not in
    ``public`` and that is not a word of ``bench``; and
    ``module:Class.method`` of every method of a top-level class, other
    than a dunder, that no library module names and that is a word of
    neither ``bench`` nor ``readme``.  A name counts as named by a module
    where it appears there as a variable or an attribute.  A module-level
    PEP 562 hook (``__getattr__``, ``__dir__``) is reached: the interpreter
    calls it."""
    import ast
    defined, members, named = [], [], {"__getattr__", "__dir__"}
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.name, node.name))
            if isinstance(node, ast.ClassDef):
                members += [(path.name, node.name, sub.name)
                            for sub in node.body
                            if isinstance(sub, ast.FunctionDef)
                            and not (sub.name.startswith("__")
                                     and sub.name.endswith("__"))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)

    def said(name, text):
        return re.search(rf"\b{name}\b", text)
    functions = [f"{module}:{name}" for module, name in defined
                 if name not in named and name not in public
                 and not said(name, bench)]
    methods = [f"{module}:{cls}.{name}" for module, cls, name in members
               if name not in named and not said(name, bench)
               and not said(name, readme)]
    return functions, methods


def library_reach():
    import qexterior
    bench = "\n".join(p.read_text()
                      for p in sorted((ROOT / "perfbench").glob("*.py")))
    return unreached_names(ROOT / "src" / "qexterior", bench,
                           (ROOT / "README.md").read_text(encoding="utf-8"),
                           qexterior.__all__)


def test_every_library_function_is_reached():
    # a top-level function or class of the library must be named by
    # another part of it, by the benchmark or by the public API; anything
    # else is test code and lives in tests/oracles.py
    functions, _methods = library_reach()
    assert functions == []


def test_every_library_member_is_reached():
    # a method of a library class must be named by the library, by the
    # benchmark or by the README, which says why tests and scripts read
    # results through it; a method only tests call is test code
    _functions, methods = library_reach()
    assert methods == []


def test_reach_guard_finds_an_unreached_method(tmp_path):
    (tmp_path / "hpoly.py").write_text(
        "class HPoly:\n"
        "    def __init__(self, coeffs):\n"
        "        self.coeffs = coeffs\n"
        "    def __eq__(self, other):\n"
        "        return self.coeffs == other.coeffs\n"
        "    def degree(self):\n"
        "        return max(self.coeffs)\n"
        "    def evaluate(self, x):\n"
        "        return sum(c * x ** j for j, c in self.coeffs.items())\n"
        "    def divides(self, other):\n"
        "        return self.is_unit() or other.evaluate(0) == 0\n"
        "    def is_unit(self):\n"
        "        return self.degree() == 0\n"
        "    def normalized(self):\n"
        "        return self\n"
        "    def leading(self):\n"
        "        return self.coeffs[self.degree()]\n"
        "def helper(p):\n"
        "    return p\n"
        "def gcd(a, b):\n"
        "    return a\n")
    (tmp_path / "snf.py").write_text(
        "from . import hpoly\n"
        "class SNF:\n"
        "    def pivot(self, p):\n"
        "        return hpoly.HPoly(p).degree()\n")
    # the interpreter calls the two PEP 562 hooks, so they are reached; an
    # ordinary helper that nothing names is still flagged
    (tmp_path / "__init__.py").write_text(
        "import importlib\n"
        "def __getattr__(name):\n"
        "    return getattr(importlib.import_module('.snf', __name__), name)\n"
        "def __dir__():\n"
        "    return ['SNF']\n"
        "def _home(name):\n"
        "    return 'snf'\n")
    functions, methods = unreached_names(
        tmp_path, bench="p.normalized()", readme="`HPoly.leading()`",
        public=["gcd", "SNF"])
    assert functions == ["__init__.py:_home", "hpoly.py:helper"]
    assert methods == ["hpoly.py:HPoly.divides", "snf.py:SNF.pivot"]


def test_readme_names_only_existing_members():
    # the reverse of the reach guard: a `Class.method(` the README names
    # in backticks (a code span or a fenced block) exists on that library
    # class, so a stale line cannot keep a deleted name documented
    import ast
    import importlib
    classes = {}
    for path in sorted((ROOT / "src" / "qexterior").glob("*.py")):
        module = importlib.import_module(
            "qexterior" if path.stem == "__init__" else
            f"qexterior.{path.stem}")
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                classes[node.name] = getattr(module, node.name)
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    named = {(cls, name)
             for span in re.finditer(r"(`+)(.+?)\1", text, re.S)
             for cls, name in re.findall(r"\b([A-Z]\w*)\.(\w+)\(",
                                         span.group(2))
             if cls in classes}
    missing = [f"{cls}.{name}" for cls, name in sorted(named)
               if not hasattr(classes[cls], name)]
    assert missing == []
    assert ("RingTable", "class_index") in named


def test_only_the_plan_cache_is_global():
    # each bivector owns its minor table and each symplectic matrix its
    # star table; the mask-pair plan, which depends on neither, is the one
    # module-level cache
    import ast
    allowed, found = set(), []
    for path in sorted((ROOT / "src" / "qexterior").glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if path.name == "_kernels.py" and \
                    getattr(node, "name", None) == "qwedge_plan":
                allowed |= {id(sub) for dec in node.decorator_list
                            for sub in ast.walk(dec)}
        for node in ast.walk(tree):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            renamed = isinstance(node, ast.alias) and \
                node.name == "lru_cache" and node.asname
            if renamed or name == "lru_cache" and id(node) not in allowed:
                found.append(f"{path.name}:{node.lineno}")
    assert allowed and found == []


def masked_prefix_parities(root):
    """``module:line`` of every ``(x & (... - 1)).bit_count()`` in the
    library modules under ``root`` other than ``_kernels.py``: a sign
    worked out from the bits below one index."""
    import ast
    found = []
    for path in sorted(root.glob("*.py")):
        if path.name == "_kernels.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            func = getattr(node, "func", None)
            if not (isinstance(node, ast.Call)
                    and isinstance(func, ast.Attribute)
                    and func.attr == "bit_count"):
                continue
            masked = func.value
            if isinstance(masked, ast.BinOp) and \
                    isinstance(masked.op, ast.BitAnd) and \
                    isinstance(masked.right, ast.BinOp) and \
                    isinstance(masked.right.op, ast.Sub) and \
                    getattr(masked.right.right, "value", None) == 1:
                found.append((path.name, node.lineno))
    return [f"{name}:{line}" for name, line in sorted(found)]


def test_only_the_kernels_work_out_a_sign():
    # every wedge and contraction sign is read off the parity masks of
    # _kernels (odd_above, odd_below); tests/oracles.py keeps its own
    # bit-by-bit copies on purpose
    assert masked_prefix_parities(ROOT / "src" / "qexterior") == []


def test_sign_guard_finds_an_inline_sign(tmp_path):
    (tmp_path / "_kernels.py").write_text(
        "odd = (mask & (bit - 1)).bit_count() & 1\n")
    (tmp_path / "ops.py").write_text(
        "def f(mask, bit):\n"
        "    n = (mask >> 1).bit_count()\n"
        "    return (mask & ((1 << bit) - 1)).bit_count() & 1\n")
    assert masked_prefix_parities(tmp_path) == ["ops.py:3"]


def table_scale_divisions(root):
    """``module:line`` of every power of a name or attribute ``D``, by
    ``**`` or ``pow``, in the library modules under ``root`` other than
    ``_kernels.py``."""
    import ast

    def is_d(node):
        return getattr(node, "id", None) == "D" or \
            getattr(node, "attr", None) == "D"

    found = []
    for path in sorted(root.glob("*.py")):
        if path.name == "_kernels.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            power = isinstance(node, ast.BinOp) and \
                isinstance(node.op, ast.Pow) and is_d(node.left)
            call = isinstance(node, ast.Call) and \
                getattr(node.func, "id", None) == "pow" and \
                bool(node.args) and is_d(node.args[0])
            if power or call:
                found.append((path.name, node.lineno))
    return [f"{name}:{line}" for name, line in sorted(found)]


def test_only_the_kernels_divide_by_a_tables_scale():
    # a rational table holds D W, so an order-k minor is an int over D^k;
    # QTable.exact reads one back, and only the kernel's own loops
    # (qwedge_terms, qwedge_numerators) work with D^k inline
    assert table_scale_divisions(ROOT / "src" / "qexterior") == []


def test_scale_guard_finds_a_division(tmp_path):
    (tmp_path / "_kernels.py").write_text(
        "def exact(self, k, d):\n"
        "    return Fraction(d, self.D ** k)\n")
    (tmp_path / "forms.py").write_text(
        "def row(wstar, lam, k):\n"
        "    return Fraction(lam, wstar.D ** k)\n")
    (tmp_path / "lefschetz.py").write_text(
        "def lh_column(table, d, k):\n"
        "    D, x = table.D, 10 ** k\n"
        "    return d / pow(D, k) + x\n"
        "def column(d, D, k):\n"
        "    return d / D ** k\n")
    assert table_scale_divisions(tmp_path) == [
        "forms.py:2", "lefschetz.py:3", "lefschetz.py:5"]


def bivector_scalings(root):
    """``module:top-level name:callee`` of every call of
    ``gaussian_integers`` or ``is_real`` in the library modules under
    ``root``, and of every ``Bivector`` that ``cohomology.py`` constructs,
    sorted."""
    import ast
    found = []
    for path in sorted(root.glob("*.py")):
        callees = {"gaussian_integers", "is_real"} | (
            {"Bivector"} if path.name == "cohomology.py" else set())
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                func = getattr(node, "func", None)
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if isinstance(node, ast.Call) and name in callees:
                    found.append(f"{path.name}:"
                                 f"{getattr(top, 'name', '<module>')}:{name}")
    return sorted(found)


def test_only_the_bivector_scales_its_entries():
    # realness is decided once, by the model's constant bivector, and both
    # integer forms of w (the product table and the mode operators' (W, D))
    # are built by the Bivector; the equivariant table scales only the
    # action's generators
    assert bivector_scalings(ROOT / "src" / "qexterior") == [
        "equivariant.py:_integer_generators:gaussian_integers",
        "forms.py:Bivector:gaussian_integers",
        "models.py:PoissonModel:is_real"]


def test_scaling_guard_finds_a_second_scaling(tmp_path):
    (tmp_path / "forms.py").write_text(
        "class Bivector:\n"
        "    def integer(self):\n"
        "        return gaussian_integers(self.entries.values())\n")
    (tmp_path / "cohomology.py").write_text(
        "from .forms import Bivector\n"
        "def ring_table(model):\n"
        "    w = model.constant_bivector()\n"
        "    if all(c.is_real() for c in w.entries.values()):\n"
        "        return Bivector(w.dim, dict(w.entries)).table\n"
        "    return gaussian_integers(w.entries.values())\n")
    (tmp_path / "models.py").write_text(
        "def constant_bivector(self):\n"
        "    return Bivector(self.dim, {})\n")
    assert bivector_scalings(tmp_path) == [
        "cohomology.py:ring_table:Bivector",
        "cohomology.py:ring_table:gaussian_integers",
        "cohomology.py:ring_table:is_real",
        "forms.py:Bivector:gaussian_integers"]


def value_writes(root):
    """``module:line:target`` of every write outside an ``__init__`` in the
    library modules under ``root`` to ``.re``, ``.im`` or ``.coeffs``:
    an assignment (plain, augmented or annotated) or deletion of one, of
    an item of ``.coeffs``, or a call of a dict method that changes
    ``.coeffs``."""
    import ast
    fields = {"re", "im", "coeffs"}
    changes = {"pop", "popitem", "update", "clear", "setdefault"}

    def targets(node):
        if isinstance(node, (ast.Assign, ast.Delete)):
            todo = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            todo = [node.target]
        else:
            return []
        out = []
        while todo:
            t = todo.pop()
            if isinstance(t, (ast.Tuple, ast.List)):
                todo += t.elts
            elif isinstance(t, ast.Starred):
                todo.append(t.value)
            elif isinstance(t, ast.Attribute) and t.attr in fields:
                out.append(t.attr)
            elif isinstance(t, ast.Subscript) and \
                    getattr(t.value, "attr", None) == "coeffs":
                out.append("coeffs[]")
        return out

    def visit(node, path, constructor):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                visit(child, path,
                      getattr(child, "name", None) == "__init__")
                continue
            if not constructor:
                names = targets(child)
                func = getattr(child, "func", None)
                if isinstance(child, ast.Call) and \
                        getattr(func, "attr", None) in changes and \
                        getattr(func.value, "attr", None) == "coeffs":
                    names.append(f"coeffs.{func.attr}")
                found.extend(f"{path.name}:{child.lineno}:{name}"
                             for name in sorted(names))
            visit(child, path, constructor)

    found = []
    for path in sorted(root.glob("*.py")):
        visit(ast.parse(path.read_text()), path, False)
    return found


def test_scalars_and_ring_elements_are_written_only_when_built():
    # ring_table stores one element per distinct coordinate in every entry
    # that has it, and GRats share their parts: a write after construction
    # would change every holder at once
    assert value_writes(ROOT / "src" / "qexterior") == []


def test_value_write_guard_finds_a_write(tmp_path):
    (tmp_path / "scalars.py").write_text(
        "class GRat:\n"
        "    def __init__(self, re, im):\n"
        "        self.re, self.im = re, im\n"
        "        self.coeffs = {}\n"
        "    def conjugate(self):\n"
        "        self.im = -self.im\n"
        "        return self\n")
    (tmp_path / "cohomology.py").write_text(
        "def ring_table(structure, k):\n"
        "    for prod in structure.values():\n"
        "        for x in prod.values():\n"
        "            x.coeffs[k] = x.coeffs[k] * 2\n"
        "            x.coeffs.pop(k)\n"
        "            del x.coeffs[k]\n"
        "            x.re += 1\n"
        "            y, x.coeffs = x.coeffs, {}\n"
        "    return y.re\n")
    assert value_writes(tmp_path) == [
        "cohomology.py:4:coeffs[]", "cohomology.py:5:coeffs.pop",
        "cohomology.py:6:coeffs[]", "cohomology.py:7:re",
        "cohomology.py:8:coeffs", "scalars.py:6:im"]


def contract_terms_callers(root):
    """``module:top-level name`` of every call of ``contract_terms`` in the
    library modules under ``root`` other than ``_kernels.py``, sorted."""
    import ast
    found = []
    for path in sorted(root.glob("*.py")):
        if path.name == "_kernels.py":
            continue
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                func = getattr(node, "func", None)
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if isinstance(node, ast.Call) and name == "contract_terms":
                    found.append(f"{path.name}:"
                                 f"{getattr(top, 'name', '<module>')}")
    return sorted(found)


def test_only_the_kernel_contraction_contracts():
    # iota_X, iota_w and E = exp(h iota_w) all run _kernels.iota_terms,
    # the one caller of contract_terms
    assert contract_terms_callers(ROOT / "src" / "qexterior") == []


def test_contraction_guard_finds_a_second_loop(tmp_path):
    (tmp_path / "_kernels.py").write_text(
        "def iota_terms(terms, pairs):\n"
        "    return contract_terms(terms, pairs[0][0][0])\n")
    (tmp_path / "forms.py").write_text(
        "from . import _kernels as K\n"
        "def contract_vector(coeffs, a):\n"
        "    return K.iota_terms(a.terms, [((0,), coeffs[0])])\n"
        "def exp_contract_terms(w, terms):\n"
        "    for i, j, c in w:\n"
        "        terms = K.contract_terms(K.contract_terms(terms, i), j)\n"
        "    return terms\n")
    (tmp_path / "lefschetz.py").write_text(
        "from ._kernels import contract_terms\n"
        "class SpectrumReport:\n"
        "    def __init__(self, terms):\n"
        "        self.terms = contract_terms(terms, 0)\n")
    assert contract_terms_callers(tmp_path) == [
        "forms.py:exp_contract_terms", "forms.py:exp_contract_terms",
        "lefschetz.py:SpectrumReport"]


def spectrum_matrix_calls(root):
    """``module:top-level name:callee`` of every call of ``charpoly``,
    ``factor_charpoly`` or ``geometric_multiplicity`` in the library
    modules under ``root``, and of every call of ``rank`` or
    ``linalg.rank`` outside ``linalg.py`` (a method such as
    ``table.rank`` is another function)."""
    import ast
    found = []
    callees = {"charpoly", "factor_charpoly", "geometric_multiplicity"}
    for path in sorted(root.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                func = getattr(node, "func", None)
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                value = getattr(func, "value", None)
                elimination = name == "rank" and path.name != "linalg.py" \
                    and (value is None or getattr(value, "id", "") == "linalg")
                if isinstance(node, ast.Call) and \
                        (name in callees or elimination):
                    found.append(f"{path.name}:"
                                 f"{getattr(top, 'name', '<module>')}:{name}")
    return found


def test_no_library_module_takes_a_matrix_spectrum():
    # each M_h block is certified by transport, M_h = E (N + n) E^-1, with
    # rank N read off an sl(2) identity; the Hessenberg charpoly, its
    # factorization and the rank elimination stay in linalg only for the
    # benchmark's tracer and the test oracles
    assert spectrum_matrix_calls(ROOT / "src" / "qexterior") == []


def test_spectrum_guard_finds_a_matrix_spectrum(tmp_path):
    (tmp_path / "linalg.py").write_text(
        "def charpoly(rows):\n"
        "    return rows\n"
        "def geometric_multiplicity(rows, x):\n"
        "    return len(rows) - rank(rows)\n")
    (tmp_path / "lefschetz.py").write_text(
        "from . import linalg\n"
        "from .linalg import factor_charpoly, geometric_multiplicity, rank\n"
        "class SpectrumReport:\n"
        "    def __init__(self, matrix, n):\n"
        "        self.f = factor_charpoly(linalg.charpoly(matrix), n)\n"
        "        self.r = rank(matrix) + linalg.rank(matrix)\n"
        "def check(m, table):\n"
        "    return (geometric_multiplicity(m, 1), charpoly, table.rank(2),\n"
        "            table.complex.rank(2))\n")
    assert spectrum_matrix_calls(tmp_path) == [
        "lefschetz.py:SpectrumReport:factor_charpoly",
        "lefschetz.py:SpectrumReport:charpoly",
        "lefschetz.py:SpectrumReport:rank",
        "lefschetz.py:SpectrumReport:rank",
        "lefschetz.py:check:geometric_multiplicity"]


def lefschetz_form_products(root):
    """``lefschetz.py:top-level name:callee`` of every call of ``qwedge``
    or ``symplectic_star`` in ``lefschetz.py`` under ``root``."""
    import ast
    found = []
    for top in ast.parse((root / "lefschetz.py").read_text()).body:
        for node in ast.walk(top):
            func = getattr(node, "func", None)
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if isinstance(node, ast.Call) and \
                    name in ("qwedge", "symplectic_star"):
                found.append(f"lefschetz.py:{getattr(top, 'name', '<module>')}"
                             f":{name}")
    return found


def test_lefschetz_operators_are_their_columns():
    # L_h, L_h* and A_h have one implementation each, the DarbouxSpace
    # column stores (and the A_h factor of a label) that both certified
    # checks read; apply_Lh and apply_Lh_star are views of them, so no
    # form-level product or star is left in lefschetz.py
    assert lefschetz_form_products(ROOT / "src" / "qexterior") == []


def test_operator_guard_finds_a_form_level_product(tmp_path):
    (tmp_path / "lefschetz.py").write_text(
        "from . import forms\n"
        "from .quantum import qwedge\n"
        "def apply_Lh(x, space):\n"
        "    return qwedge(space.omega_form, x, space.w)\n"
        "def apply_Lh_star(x, space):\n"
        "    star = space.star\n"
        "    return -forms.symplectic_star(\n"
        "        apply_Lh(forms.symplectic_star(x, star), space), star)\n"
        "class DarbouxSpace:\n"
        "    def column(self, lab):\n"
        "        return self.star.row(lab[1]), self.qwedge\n")
    assert lefschetz_form_products(tmp_path) == [
        "lefschetz.py:apply_Lh:qwedge",
        "lefschetz.py:apply_Lh_star:symplectic_star",
        "lefschetz.py:apply_Lh_star:symplectic_star"]


def rng_draws(root):
    """``module:line:name`` of every attribute read off an ``rng`` (a name
    or an ``.rng`` attribute) in the library modules under ``root``, other
    than ``random`` and, in ``sampling.py``, ``getrandbits``."""
    import ast
    found = []
    for path in sorted(root.glob("*.py")):
        allowed = {"random"} | ({"getrandbits"}
                                if path.name == "sampling.py" else set())
        reads = [node for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Attribute)
                 and node.attr not in allowed
                 and "rng" in (getattr(node.value, "attr", None),
                               getattr(node.value, "id", None))]
        found += [f"{path.name}:{node.lineno}:{node.attr}" for node in
                  sorted(reads, key=lambda n: (n.lineno, n.col_offset))]
    return found


def test_every_draw_goes_through_the_sampler():
    # Sampler.below, randint and mask draw as random.Random does, from
    # getrandbits (tests/test_sampling.py checks them draw for draw); a
    # library module that calls randint, sample or choice on the generator
    # itself would bypass them
    assert rng_draws(ROOT / "src" / "qexterior") == []


def test_draw_guard_finds_a_direct_draw(tmp_path):
    (tmp_path / "sampling.py").write_text(
        "def below(self, n):\n"
        "    bits = self.rng.getrandbits\n"
        "    return self.rng.random() if n else bits(1)\n")
    (tmp_path / "suites.py").write_text(
        "def trial(s, rng):\n"
        "    x = s.rng.random() + s.randint(0, 3)\n"
        "    pick = s.rng.choice\n"
        "    return rng.getrandbits(2) + s.rng.randint(0, 3)\n")
    assert rng_draws(tmp_path) == ["suites.py:3:choice",
                                   "suites.py:4:getrandbits",
                                   "suites.py:4:randint"]


def float_uses(root):
    """``module:line`` of every float or complex literal, every call of
    ``float``, and every ``.random()`` or ``.uniform()`` call in the
    library modules under ``root``."""
    import ast
    found = set()
    for path in root.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            func = getattr(node, "func", None)
            literal = isinstance(node, ast.Constant) and \
                type(node.value) in (float, complex)
            call = isinstance(node, ast.Call) and (
                getattr(func, "id", None) == "float"
                or getattr(func, "attr", None) in ("random", "uniform"))
            if literal or call:
                found.add((path.name, node.lineno))
    return [f"{name}:{line}" for name, line in sorted(found)]


def test_no_library_module_uses_a_float():
    # exactness is the contract: every scalar is an int, Fraction, GRat or
    # ring element, and every draw is an integer from getrandbits
    assert float_uses(ROOT / "src" / "qexterior") == []


def test_float_guard_finds_a_float(tmp_path):
    (tmp_path / "sampling.py").write_text(
        "def keep(self):\n"
        "    return self.rng.random() < 4 / 5\n"
        "def scale(x):\n"
        "    return x * 0.5 + 2j\n")
    (tmp_path / "linalg.py").write_text(
        "def norm(rng, x):\n"
        "    y = float(x) + rng.uniform(0, 1)\n"
        "    return str(y) + '0.5'\n")
    assert float_uses(tmp_path) == ["linalg.py:2", "sampling.py:2",
                                    "sampling.py:4"]


def readme_cli_constants(text: str, cli) -> list:
    """The names of the `cli.NAME` constants that ``text`` names.  Each must
    be a number and appear with its value, formatted with thousands
    separators, in the same paragraph; an AssertionError names the first
    that is not or does not."""
    named = []
    for paragraph in re.split(r"\n\s*\n", text):
        for name in re.findall(r"`cli\.([A-Za-z_]\w*)", paragraph):
            value = getattr(cli, name)
            assert isinstance(value, (int, float)), \
                f"cli.{name} is not a number but a {type(value).__name__}"
            value = f"{value:,}"
            named.append(name)
            assert re.search(rf"(?<![\d,]){re.escape(value)}(?!,?\d)",
                             paragraph), f"cli.{name} = {value}"
    return named


def test_readme_states_every_cli_constant_it_names():
    # a budget or cap named as `cli.NAME` in the README appears with its
    # value in the same paragraph
    from qexterior import cli
    named = readme_cli_constants((ROOT / "README.md").read_text(
        encoding="utf-8"), cli)
    assert {"TABLE_BUDGET", "MODE_ZERO_BUDGET", "MAX_DEGREE", "CHECK_MAX_DIM",
            "CHECK_MAX_TRIALS", "LEFSCHETZ_MAX_N"} <= set(named)


def test_readme_constant_check_names_what_is_not_a_number():
    # a paragraph naming a function fails with a message naming it, and a
    # misstated value with the value it should state
    from qexterior import cli
    cap = "`lefschetz --n` is capped at `cli.LEFSCHETZ_MAX_N = 5`."
    assert readme_cli_constants(cap, cli) == ["LEFSCHETZ_MAX_N"]
    with pytest.raises(AssertionError, match=r"^cli\.main is not a number "
                       r"but a function\b"):
        readme_cli_constants(cap + "\n\nReports are written by `cli.main`.",
                             cli)
    with pytest.raises(AssertionError,
                       match=r"^cli\.LEFSCHETZ_MAX_N = 5(?!\d)"):
        readme_cli_constants(cap.replace("= 5", "= 6"), cli)


def test_only_the_listed_callers_skip_form_validation():
    # HForm._from_clean wraps a term dict without validating it; each
    # caller below guarantees the invariants itself and is covered by
    # tests/test_kernels.py::TestCleanKernelOutput, so a new caller must
    # join that test before it may skip validation
    import ast
    callers = []
    for path in sorted((ROOT / "src" / "qexterior").glob("*.py")):
        tree = ast.parse(path.read_text())
        scopes = [(top.name, top) for top in tree.body
                  if isinstance(top, ast.FunctionDef)]
        scopes += [(f"{top.name}.{sub.name}", sub) for top in tree.body
                   if isinstance(top, ast.ClassDef) for sub in top.body
                   if isinstance(sub, ast.FunctionDef)]
        for where, scope in scopes:
            for node in ast.walk(scope):
                if isinstance(node, ast.Call) and \
                        getattr(node.func, "attr", None) == "_from_clean":
                    callers.append(f"{path.name}:{where}")
        named = sum(getattr(node, "attr", None) == "_from_clean"
                    or getattr(node, "id", None) == "_from_clean"
                    for node in ast.walk(tree))
        calls = sum(c.startswith(f"{path.name}:") for c in callers)
        assert named == calls, f"{path.name} names _from_clean outside a call"
    assert sorted(callers) == [
        "forms.py:HForm.__add__", "forms.py:HForm.__neg__",
        "forms.py:HForm.to_laurent", "forms.py:symplectic_star",
        "forms.py:wedge", "quantum.py:qwedge"]
    from test_kernels import CLEAN_CALLERS
    assert sorted(c.split(":")[1] for c in callers) == sorted(CLEAN_CALLERS)


def report_writes(path):
    """``line:top-level name:what`` of every report write in the module at
    ``path`` outside ``main`` and ``_write``: a call of ``dump_json`` or
    ``print``, an ``open`` with a writing mode, and a ``.write`` on
    ``sys.stdout`` or ``sys.stderr``."""
    import ast
    found = []
    for top in ast.parse(path.read_text()).body:
        if getattr(top, "name", None) in ("main", "_write"):
            continue
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            mode = [a.value for a in node.args[1:2] + [
                k.value for k in node.keywords if k.arg == "mode"]
                if isinstance(a, ast.Constant)]
            stream = getattr(getattr(func, "value", None), "attr", None)
            if name in ("dump_json", "print") or \
                    (name == "open" and any(set(m) & set("wax+")
                                            for m in mode)) or \
                    (name == "write" and stream in ("stdout", "stderr")):
                found.append((node.lineno, getattr(top, "name", "<module>"),
                              name))
    return [f"{line}:{top}:{name}" for line, top, name in sorted(found)]


def test_only_main_writes_reports():
    # every cmd_* returns its report body; main adds the header, calls
    # dump_json once and writes through _write, which the error path uses
    assert report_writes(ROOT / "src" / "qexterior" / "cli.py") == []


def test_report_write_guard_finds_a_write(tmp_path):
    path = tmp_path / "cli.py"
    path.write_text(
        "import sys\n"
        "def _load_json(path):\n"
        "    with open(path, encoding='utf-8') as fh:\n"
        "        return fh.read()\n"
        "def cmd_check(args):\n"
        "    text = dump_json({'status': 'pass'})\n"
        "    with open(args.out, 'w') as fh:\n"
        "        fh.write(text)\n"
        "    sys.stdout.write(text)\n"
        "    return {}\n"
        "def cmd_lefschetz(args):\n"
        "    print(args.n, file=sys.stderr)\n"
        "    open(args.out, mode='a').close()\n"
        "    return {}\n"
        "def _write(text, path, stream):\n"
        "    with open(path, 'w') as fh:\n"
        "        fh.write(text)\n"
        "    stream.write(text)\n"
        "def main(argv=None):\n"
        "    _write(dump_json({}), None, sys.stdout)\n")
    assert report_writes(path) == [
        "6:cmd_check:dump_json", "7:cmd_check:open", "9:cmd_check:write",
        "12:cmd_lefschetz:print", "13:cmd_lefschetz:open"]


def json_writer_calls(root):
    """``module:line`` of every call of ``json.dumps`` or ``json.dump`` (or
    a name imported from ``json`` as one) in the modules under ``root``."""
    import ast
    found = []
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text())
        names = {alias.asname or alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module == "json"
                 for alias in node.names if alias.name in ("dump", "dumps")}
        for node in ast.walk(tree):
            func = getattr(node, "func", None)
            if isinstance(node, ast.Call) and (
                    getattr(func, "attr", None) in ("dump", "dumps")
                    and getattr(func.value, "id", None) == "json"
                    or getattr(func, "id", None) in names):
                found.append((path.name, node.lineno))
    return [f"{name}:{line}" for name, line in sorted(found)]


def test_reports_are_written_by_dump_json_alone():
    # serialize.dump_json writes every report; json.dumps with an indent
    # runs the pure-Python encoder, at twice the time
    assert json_writer_calls(ROOT / "src" / "qexterior") == []


def test_json_writer_guard_finds_a_call(tmp_path):
    (tmp_path / "serialize.py").write_text(
        "import json\n"
        "from json import dumps as text\n"
        "def dump_json(obj):\n"
        "    return json.dumps(obj, indent=2) + text(obj)\n"
        "def save(obj, fh):\n"
        "    json.dump(obj, fh)\n"
        "    return json.loads('{}')\n")
    assert json_writer_calls(tmp_path) == ["serialize.py:4", "serialize.py:4",
                                           "serialize.py:6"]


def test_a_command_loads_no_argparse():
    # the CLI reads argv against its own option table
    import json
    import sys
    from test_namespace import child_env
    code = ("import io, json, sys, contextlib\n"
            "import qexterior.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = qexterior.cli.main(['lefschetz', '--n', '1'])\n"
            "print(json.dumps([code, sorted(m for m in ('argparse', "
            "'gettext') if m in sys.modules)]))\n")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, env=child_env())
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout) == [0, []]
