"""The product-law suites on the kernel's integer numerators: the same
reports as the qwedge suites they replaced, on seeded draws, on special
draws and under kernel mutants; and the integer product itself against
``qwedge`` and ``HForm ==``."""

from fractions import Fraction

import pytest

import oracles
from qexterior import _kernels as K
from qexterior import suites
from qexterior.forms import Bivector, HForm
from qexterior.quantum import qwedge
from qexterior.sampling import Sampler
from qexterior.serialize import dump_json, model_from_json
from qexterior.suites import run_suite
from test_cli import break_suite_product

PRODUCT_SUITES = {"associativity": oracles.suite_associativity_by_qwedge,
                  "supercommutativity":
                      oracles.suite_supercommutativity_by_qwedge}


def report_pairs(monkeypatch, name, model, trials, seeds):
    """``[(engine report, oracle report)]``, each as report bytes, one pair
    per seed."""
    pairs = []
    for seed in seeds:
        got = dump_json(run_suite(name, model, trials, seed).to_json())
        with monkeypatch.context() as patch:
            patch.setitem(suites.SUITES, name, PRODUCT_SUITES[name])
            want = dump_json(run_suite(name, model, trials, seed).to_json())
        pairs.append((got, want))
    return pairs


def assert_same_reports(pairs):
    differ = [i for i, (got, want) in enumerate(pairs) if got != want]
    assert differ == []


def torus(dim):
    return model_from_json({"space": "torus", "dim": dim})


class TestReportsMatchTheQwedgeSuites:
    @pytest.mark.parametrize("name", sorted(PRODUCT_SUITES))
    def test_no_model(self, monkeypatch, name):
        # dimensions 2..8, drawn per trial
        assert_same_reports(report_pairs(monkeypatch, name, None, 2,
                                         range(200)))

    @pytest.mark.parametrize("name", sorted(PRODUCT_SUITES))
    @pytest.mark.parametrize("dim", range(1, 9))
    def test_torus_model(self, monkeypatch, name, dim):
        # seeds 0..199 spread over T^1..T^8, 25 on each
        trials = 1 if name == "associativity" else 3
        assert_same_reports(report_pairs(monkeypatch, name, torus(dim),
                                         trials, range(dim - 1, 200, 8)))


def zero_bivector(monkeypatch):
    draw = Sampler.bivector_entries

    def drawn(self, dim):
        draw(self, dim)
        return {}
    monkeypatch.setattr(Sampler, "bivector_entries", drawn)


def cancelling_forms(monkeypatch):
    """Every second term dict of one dimension is the one before it
    negated: a ^_h -a has every term cancel for odd a."""
    draw = Sampler.ext_terms

    def drawn(self, dim, *args, **kwargs):
        terms = draw(self, dim, *args, **kwargs)
        last = self.__dict__.pop("last_terms", None)
        if last is None or last[0] != dim:
            self.last_terms = dim, terms
            return terms
        return {key: -c for key, c in last[1].items()}
    monkeypatch.setattr(Sampler, "ext_terms", drawn)


def degree_zero_forms(monkeypatch):
    draw = Sampler.ext_terms

    def drawn(self, dim, degree=None, *args, **kwargs):
        return draw(self, dim, 0, *args, **kwargs)
    monkeypatch.setattr(Sampler, "ext_terms", drawn)


class TestSpecialDraws:
    @pytest.mark.parametrize("name", sorted(PRODUCT_SUITES))
    @pytest.mark.parametrize("draws", [zero_bivector, cancelling_forms,
                                       degree_zero_forms])
    def test_same_reports(self, monkeypatch, name, draws):
        with monkeypatch.context() as patch:
            draws(patch)
            pairs = report_pairs(patch, name, None, 3, range(40))
        assert_same_reports(pairs)

    def test_cancelling_forms_cancel(self, monkeypatch):
        # the draws reach products whose every term cancels
        cancelling_forms(monkeypatch)
        s = Sampler(3)
        w = s.antisymmetric_bivector(4)
        a = s.ext_form(4, degree=3, h_max=1)
        b = s.ext_form(4, degree=1, h_max=1)
        assert a and b == -a and not qwedge(a, b, w)


def oracle_product_broken(monkeypatch):
    """The broken product a ^_h b + h a on the oracle suites' qwedge."""
    product = oracles.qwedge

    def broken(a, b, w):
        ha = HForm(a.dim, {(j + 1, m): c for (j, m), c in a.terms.items()},
                   a.laurent)
        return product(a, b, w) + ha
    monkeypatch.setattr(oracles, "qwedge", broken)


def broken_product(monkeypatch):
    break_suite_product(monkeypatch)
    oracle_product_broken(monkeypatch)


def flipped_plan_sign(monkeypatch):
    """Every plan's w^12 term (S = {1}, T = {2}) with its sign flipped, in
    the full plans and in those given a paired table's partners alike."""
    plan = K.qwedge_plan

    def flipped(ma, mb, *pairs):
        return tuple((k, mask, tuple((S, T, -sign if (S, T) == (1, 2)
                                      else sign) for S, T, sign in group))
                     for k, mask, group in plan(ma, mb, *pairs))
    monkeypatch.setattr(K, "qwedge_plan", flipped)


def dropped_minor(monkeypatch):
    """The order-2 minor det W[{1, 2}, {1, 3}] read as 0."""
    minor = K.QTable.minor

    def dropped(self, S, T):
        return 0 if (S, T) == (0b11, 0b101) else minor(self, S, T)
    monkeypatch.setattr(K.QTable, "minor", dropped)


class TestKernelMutants:
    @pytest.mark.parametrize("name", sorted(PRODUCT_SUITES))
    @pytest.mark.parametrize("mutant", [broken_product, flipped_plan_sign,
                                        dropped_minor])
    def test_both_sides_fail_alike(self, monkeypatch, name, mutant):
        with monkeypatch.context() as patch:
            mutant(patch)
            # at most 5 trials, so a report lists every failed one
            pairs = report_pairs(patch, name, None, 5, range(30))
        assert_same_reports(pairs)
        assert any('"status": "fail"' in got for got, _want in pairs)


class TestIntegerPath:
    def test_suites_build_no_fraction_product(self, monkeypatch):
        # the product-law suites never reach qwedge's Fraction view
        def refuse(*args):
            raise AssertionError("_qwedge_integer called")
        monkeypatch.setattr(K, "_qwedge_integer", refuse)
        for name in PRODUCT_SUITES:
            assert run_suite(name, None, 30, 0).ok

    def test_passing_trials_build_no_form_or_bivector(self, monkeypatch):
        # the trials draw term and entry dicts straight into the integer
        # kernel; only a failure witness builds an HForm or a Bivector
        model = torus(4)
        built = count_constructions(monkeypatch)
        for name in PRODUCT_SUITES:
            assert run_suite(name, model, 30, 0).ok
        assert built == {"HForm": 0, "Bivector": 0}
        break_suite_product(monkeypatch)
        witnesses = {"associativity": {"HForm": 3, "Bivector": 1},
                     "supercommutativity": {"HForm": 2, "Bivector": 0}}
        for name, each in witnesses.items():
            built.update({"HForm": 0, "Bivector": 0})
            failed = len(run_suite(name, model, 30, 0).failures)
            assert failed > 0
            assert built == {k: n * failed for k, n in each.items()}

    def test_a_draw_without_numerators_is_named(self, monkeypatch):
        # no fallback: a draw the integer product cannot take raises
        draw = Sampler.ext_terms

        def drawn(self, dim, *args, **kwargs):
            draw(self, dim, *args, **kwargs)
            return {(0, 0): 1}
        monkeypatch.setattr(Sampler, "ext_terms", drawn)
        for name in PRODUCT_SUITES:
            with pytest.raises(AssertionError, match="drawn a has a "
                               "non-Fraction value"):
                run_suite(name, None, 1, 0)


def count_constructions(monkeypatch) -> dict:
    """Count every HForm (public or clean constructor) and Bivector built
    from here on, in the returned dict."""
    built = {"HForm": 0, "Bivector": 0}

    def counted(cls, init):
        def wrapper(self, *args, **kwargs):
            built[cls.__name__] += 1
            init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", wrapper)
    counted(HForm, HForm.__init__)
    counted(Bivector, Bivector.__init__)
    clean = HForm._from_clean

    def from_clean(cls, *args):
        built["HForm"] += 1
        return clean(*args)
    monkeypatch.setattr(HForm, "_from_clean", classmethod(from_clean))
    return built


def seeded_triples(seed, count):
    s = Sampler(seed)
    for _ in range(count):
        dim = s.randint(1, 6)
        w = s.antisymmetric_bivector(dim)
        yield w, [s.ext_form(dim, degree=s.randint(0, dim), h_max=1)
                  for _ in range(3)]


def fraction_view(triple):
    den, _top, terms = triple
    return {key: Fraction(n, den) for key, n in terms.items()}


class TestNumerators:
    def test_chained_products_are_qwedge(self):
        # keys, key order and values of (ab)c and a(bc), the top of each
        # product its largest exterior degree
        for w, (a, b, c) in seeded_triples(5, 200):
            na, nb, nc = (K._numerators(x.terms) for x in (a, b, c))
            table = w.table
            ab = K.qwedge_numerators(na, nb, table)
            for got, want in [
                    (K.qwedge_numerators(ab, nc, table),
                     qwedge(qwedge(a, b, w), c, w)),
                    (K.qwedge_numerators(
                        na, K.qwedge_numerators(nb, nc, table), table),
                     qwedge(a, qwedge(b, c, w), w))]:
                view = fraction_view(got)
                assert list(view.items()) == list(want.terms.items())
                assert got[1] == max((m.bit_count() for _j, m in want.terms),
                                     default=0)
            assert ab[1] == K._numerators(qwedge(a, b, w).terms)[1]

    def test_same_numerators_is_form_equality(self):
        seen = 0
        for w, (a, b, _c) in seeded_triples(6, 200):
            na, nb = K._numerators(a.terms), K._numerators(b.terms)
            table = w.table
            x = K.qwedge_numerators(na, nb, table)
            y = K.qwedge_numerators(nb, na, table)
            for sign in (1, -1):
                ys = (sign * y[0],) + y[1:]
                want = qwedge(a, b, w) == qwedge(b, a, w) * Fraction(sign)
                assert K.same_numerators(x, ys) == want
                assert K.same_numerators(ys, x) == want
                seen += want
            # the same value over another denominator, and a changed value
            assert K.same_numerators(x, (3 * x[0], x[1],
                                         {k: 3 * n for k, n in x[2].items()}))
            if x[2]:
                key = next(iter(x[2]))
                assert not K.same_numerators(
                    x, (x[0], x[1], {**x[2], key: x[2][key] + 1}))
        assert seen > 50
