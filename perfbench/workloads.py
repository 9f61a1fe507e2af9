"""The four workloads: seeded inputs, the timed operation, verdict checks.

Inputs come in cycles.  A cycle always holds the same kinds of input in
the same order (degree, residue class, corruption slot) and the seed draws
the concrete radicands and corruptions inside each kind.  Cost in this
library is set by the degree and by the residue class of m (which fixes
the basis shape), far more than by m itself, so stratifying on those keeps
the cost mix of a run the same from seed to seed while every seed still
builds different fields.  Runs time whole cycles.

Every verdict is checked right after its op, outside the timed region,
against an answer that does not come from the code path being timed:
Dedekind's criterion, the Newton polygon index, the p^2 | r partition of
residue classes, or the fact that a corrupted lattice differs from the
maximal order.
"""

from __future__ import annotations

import math
from time import perf_counter

from purefields import newton, oracle, periodicity, purebasis
from purefields.exactmath import QPolynomial
from purefields.oracle import CounterexampleFound, Proved
from purefields.periodicity import ParametricRow, SkippedClass
from purefields.purebasis import BasisElement, IntegralBasis, PureField


def square_free(m: int) -> bool:
    """Trial division, kept apart from the library's own square-free test."""
    m = abs(m)
    d = 2
    while d * d <= m:
        if m % (d * d) == 0:
            return False
        if m % d == 0:
            m //= d
        d += 1
    return True


def prime_divisors(n: int) -> list[int]:
    primes, d = [], 2
    while d * d <= n:
        if n % d == 0:
            primes.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        primes.append(n)
    return primes


def period(n: int) -> int:
    """prod over p | n of p^(v_p(n) + 1): m mod this fixes the basis shape."""
    n0 = 1
    for p in prime_divisors(n):
        k = 0
        while n % p ** (k + 1) == 0:
            k += 1
        n0 *= p ** (k + 1)
    return n0


def dedekind_primes(n: int, m: int) -> set[int]:
    """Primes p | n at which Z[m^(1/n)] is not p-maximal: p^2 | m^p - m."""
    return {p for p in prime_divisors(n) if (m ** p - m) % (p * p) == 0}


def draw_in_class(rng, r: int, n0: int, spread: int = 8) -> int:
    """A square-free m = r mod n0 with |m| < (spread + 1) * n0, either sign."""
    while True:
        m = r + n0 * rng.randrange(-spread, spread)
        if m not in (0, 1, -1) and square_free(m):
            return m


def draw_square_free(rng, bound: int) -> int:
    while True:
        m = rng.randrange(2, bound) * rng.choice((1, -1))
        if square_free(m):
            return m


def budget_for(fields) -> int:
    """An enumeration budget above p^n for every p | n of every field, so
    that no maximality check is skipped for budget."""
    return 1 + max(p ** n for n in fields for p in prime_divisors(n))


def power_order(field: PureField) -> IntegralBasis:
    return IntegralBasis(
        field, tuple(BasisElement(QPolynomial.x_power(i), 1) for i in range(field.n))
    )


class Workload:
    """One seeded input stream; ``cycle`` draws the next cycle of inputs.

    An input is a pair (key, payload): the key is plain data naming the
    input, and the payload holds any objects built from it.  ``run``
    executes one input inside the timed region; ``check`` turns its result
    into (verdicts, failure reasons).

    Entry points that tracing.WRAPPED rebinds are called plainly, so that
    a traced run gives them exactly one span; the others get their span
    at the call site here.
    """

    # (module, attribute, function that wraps the original) for the
    # observation hooks a workload needs on every run, traced or not
    hooks: tuple = ()

    def __init__(self, rng):
        self.rng = rng

    def install(self, tracer, clock) -> None:
        """Rebind the workload's hooks; ``restore`` puts the originals back."""
        self.tracer, self.clock = tracer, clock
        self._saved = []
        for module, attribute, wrap in self.hooks:
            original = getattr(module, attribute)
            self._saved.append((module, attribute, original))
            setattr(module, attribute, wrap(self, original))

    def restore(self) -> None:
        for module, attribute, original in reversed(self._saved):
            setattr(module, attribute, original)

    def run(self, item):
        """Time one input.

        Returns the result and, for every verdict it produced, the (start,
        end) wall-clock segments the verdict took.  Host-speed samples
        taken in the middle of an op fall between segments.
        """
        self._verdicts = [[]]
        self._since = perf_counter()
        result = self.tracer.call("op", self._op, item)
        self._split()
        return self._verdicts, result

    def _split(self, next_verdict: bool = False) -> None:
        # close the running segment, sample the host speed if one is due,
        # and start the next segment after the sample
        self._verdicts[-1].append((self._since, perf_counter()))
        self.tracer.call("host.sample", self.clock.sample_if_due)
        if next_verdict:
            self._verdicts.append([])
        self._since = perf_counter()


class LargeField(Workload):
    """integral_basis(PureField.create(n, m)) for composite 18 <= n <= 24.

    p-maximality is about 93% of an op here, so the certification kernel
    shows its effect on this workload first.  The slots take class 1
    (every p | n wildly ramified, largest index) at 18, 20, 21 and 24, and
    a class of another shape at 18, 21, 22 and 24; m takes either sign.  The eight slots make
    a cycle of 18 to 27 s, and p50 falls among the three ops at degrees 20
    and 21, which cost about the same.  Degrees 26 to 30 (5 to 13 s per
    op) are left out, so that a run still holds eight verdicts within the
    benchmark's time budget.
    """

    name = "large-field"
    SLOTS = ((18, 1), (18, 7), (20, 1), (21, 1), (21, 2), (22, 3), (24, 1), (24, 5))
    budget = budget_for(n for n, _ in SLOTS)

    def _capture_certify(self, original):
        # integral_basis keeps its certification report to itself; keep a
        # reference so the check can see every per-prime verdict
        def certify(basis, **kwargs):
            self.report = original(basis, **kwargs)
            return self.report

        return certify

    def _split_around_pmax(self, original):
        # an op runs for seconds, long enough for the host speed to change
        # under it, so take host-speed samples around each prime's proof too
        def p_maximality_enum(*args, **kwargs):
            self._split()
            result = original(*args, **kwargs)
            self._split()
            return result

        return p_maximality_enum

    hooks = (
        (oracle, "certify", _capture_certify),
        (oracle, "p_maximality_enum", _split_around_pmax),
    )

    def cycle(self):
        return [((n, draw_in_class(self.rng, r, period(n))), None) for n, r in self.SLOTS]

    def run(self, item):
        verdicts, (basis, ledger) = super().run(item)
        return verdicts, (basis, ledger, self.report)

    def _op(self, item):
        (n, m), _ = item
        field = self.tracer.call("purebasis.build", PureField.create, n, m)
        return self.tracer.call(
            "purebasis.build", purebasis.integral_basis, field, enum_budget=self.budget
        )

    def check(self, item, result):
        (n, m), _ = item
        basis, ledger, report = result
        primes = prime_divisors(n)
        if not report.certified or sorted(report.maximality) != primes:
            return 1, [f"({n}, {m}): not certified at every p | n"]
        if not all(isinstance(v, Proved) for v in report.maximality.values()):
            return 1, [f"({n}, {m}): a maximality check was not Proved"]
        denominators = math.prod(e.denominator for e in basis.elements)
        f = QPolynomial.x_power(n) - QPolynomial([m])
        for p in primes:
            index = ledger.per_prime.get(p, 0)
            bound, exact = newton.index_lower_bound(f, p)
            if (exact and bound != index) or bound > index:
                return 1, [f"({n}, {m}): ledger {index} vs polygon {bound} at {p}"]
            if denominators % p ** index or (denominators // p ** index) % p == 0:
                return 1, [f"({n}, {m}): denominators disagree with the ledger at {p}"]
        if (ledger.total_index == 1) != (not dedekind_primes(n, m)):
            return 1, [f"({n}, {m}): trivial index disagrees with Dedekind"]
        return 1, []


class Atlas(Workload):
    """Rows of atlas(n) for n in {8, 9, 10}: 108 rows and 35 skipped classes.

    Many small certifications plus square-free witness scans, so per-call
    overheads and any parallelism across classes show here and not in
    single-field latency.  atlas(n) takes no radicand, so a cycle is one
    pass over all three degrees and the seed only orders the degrees.
    """

    name = "atlas"
    DEGREES = (8, 9, 10)
    budget = budget_for(DEGREES)

    def _mark_rows(self, original):
        # atlas calls the witness scan once at the start of each certified
        # row, so a row runs from one call to the next; the first row also
        # carries the few steps before it
        def witnesses(r, n0, scan_bound):
            self._split(next_verdict=self._rows > 0)
            self._rows += 1
            self.tracer.op = (n0, r)
            return original(r, n0, scan_bound)

        return witnesses

    hooks = ((periodicity, "_square_free_witnesses", _mark_rows),)

    def cycle(self):
        degrees = list(self.DEGREES)
        self.rng.shuffle(degrees)
        return [(n, None) for n in degrees]

    def _op(self, item):
        n, _ = item
        self._rows = 0
        return self.tracer.call(
            "periodicity.atlas", periodicity.atlas, n, enum_budget=self.budget
        )

    def check(self, item, table):
        n, _ = item
        n0 = period(n)
        primes = prime_divisors(n)
        failures = []
        verdicts = 0
        if table.n0 != n0 or sorted(table.rows) != list(range(n0)):
            return 1, [f"atlas({n}): residues do not partition Z/{n0}"]
        for r, row in sorted(table.rows.items()):
            if any(r % (p * p) == 0 for p in primes):
                if not isinstance(row, SkippedClass):
                    verdicts += 1
                    failures.append(f"atlas({n}) class {r}: should be skipped")
                continue
            verdicts += 1
            if not isinstance(row, ParametricRow):
                failures.append(f"atlas({n}) class {r}: {type(row).__name__}")
                continue
            witnesses = (row.witness, row.second_witness)
            if row.witness == row.second_witness or any(
                w % n0 != r or not square_free(w) for w in witnesses
            ):
                failures.append(f"atlas({n}) class {r}: bad witnesses {witnesses}")
                continue
            power_basis = all(
                q == QPolynomial.x_power(i) for i, q in enumerate(row.polynomials)
            )
            if power_basis != (not dedekind_primes(n, row.witness)):
                failures.append(f"atlas({n}) class {r}: shape disagrees with Dedekind")
        return verdicts, failures


class Refute(Workload):
    """certify(candidate) on lattices that are not the maximal order.

    Five of every six candidates are single-element corruptions of a
    certified basis at n in {6, 8, 9, 10, 12}, as in the mutation-kill
    acceptance test; they die at integrality or closure in tens of
    milliseconds.  The sixth is the power order Z[alpha] of a field with
    index > 1 at 12 <= n <= 16, which takes the counterexample path.  So
    verdict_p50_s times rejection and verdict_p90_s the counterexample
    search.
    """

    name = "refute"
    BASE_DEGREES = (6, 8, 9, 10, 12)
    POWER_ORDER_SLOTS = ((12, 10), (12, 5), (12, 1), (16, 1), (14, 1), (15, 1))
    budget = budget_for(BASE_DEGREES + tuple(n for n, _ in POWER_ORDER_SLOTS))

    def __init__(self, rng):
        super().__init__(rng)
        self.bases = []
        for n in self.BASE_DEGREES:
            field = PureField.create(n, draw_in_class(rng, 1, period(n)))
            basis, _ = purebasis.integral_basis(field, enum_budget=self.budget)
            self.bases.append(basis)

    def _mutant(self, basis):
        n = basis.field.n
        while True:
            j = self.rng.randrange(n)
            element = basis.elements[j]
            kind = self.rng.randrange(4)
            if kind < 3:
                den = (element.denominator * 2, element.denominator * 3, element.denominator + 1)[kind]
                coeffs = list(element.numerator.integer_coefficients())
                description = ("den", j, den)
            else:
                i = self.rng.randrange(j + 1)
                den = element.denominator
                coeffs = list(element.numerator.integer_coefficients())
                coeffs[i] += 1
                description = ("bump", j, i)
            try:
                changed = BasisElement(QPolynomial(coeffs), den)
            except ValueError:
                # the corruption left the element out of lowest terms
                continue
            elements = list(basis.elements)
            elements[j] = changed
            mutant = IntegralBasis(basis.field, tuple(elements))
            if not purebasis.spans_equal(basis, mutant):
                return ("mutant", n, basis.field.m) + description, mutant

    def cycle(self):
        items = []
        for n, r in self.POWER_ORDER_SLOTS:
            items.extend(self._mutant(basis) for basis in self.bases)
            m = draw_in_class(self.rng, r, period(n))
            items.append((("power-order", n, m), power_order(PureField.create(n, m))))
        return items

    def _op(self, item):
        _, candidate = item
        return oracle.certify(candidate, enum_budget=self.budget)

    def check(self, item, report):
        description, _ = item
        if report.certified:
            return 1, [f"{description}: a wrong lattice was certified"]
        if description[0] == "power-order":
            _, n, m = description
            expected = dedekind_primes(n, m)
            for p in prime_divisors(n):
                result = report.maximality.get(p)
                want = CounterexampleFound if p in expected else Proved
                if not isinstance(result, want):
                    return 1, [f"{description}: {type(result).__name__} at {p}"]
        return 1, []


class Ledger(Workload):
    """index_lower_bound(X^(p^k) - m, p) plus the index_report closed form.

    Exercises newton and the F_p polynomial arithmetic, which no other
    workload reaches, and never calls the oracle: every oracle change is
    predicted to leave this workload unchanged.  Each p^k appears with
    three radicands, one of each kind below, since the kind sets the
    polygon's shape and so its cost (an Eisenstein one is 2 to 3 times
    cheaper).  An op takes about 0.5 to 7 ms.  Five prime powers make 15
    equally weighted strata, so the median falls in the middle of the 8th
    cheapest and p90 in the middle of the 2nd dearest, not on the border
    between two strata, where it would jump from run to run.  49 is left
    out for that reason: its ops take 10 to 16 ms, and with them p90 fell
    in the gap below them.
    """

    name = "ledger"
    PRIME_POWERS = ((3, 2), (2, 4), (5, 2), (3, 3), (2, 5))
    KINDS = ("Eisenstein", "Z[alpha] p-maximal", "Z[alpha] not p-maximal")

    @staticmethod
    def kind(p: int, m: int) -> str:
        if m % p == 0:
            return "Eisenstein"
        if (m ** p - m) % (p * p):
            return "Z[alpha] p-maximal"
        return "Z[alpha] not p-maximal"

    def cycle(self):
        items = []
        for p, k in self.PRIME_POWERS:
            for kind in self.KINDS:
                m = draw_square_free(self.rng, 1000)
                while self.kind(p, m) != kind:
                    m = draw_square_free(self.rng, 1000)
                f = QPolynomial.x_power(p ** k) - QPolynomial([m])
                items.append(((p, k, m), (f, PureField.create(p ** k, m))))
        return items

    def _op(self, item):
        (p, _, _), (f, field) = item
        bound = self.tracer.call("newton.index_bound", newton.index_lower_bound, f, p)
        return bound, purebasis.index_report(field)

    def check(self, item, result):
        (p, k, m), _ = item
        (bound, exact), report = result
        closed = report.per_prime[p]
        if (exact and bound != closed) or bound > closed:
            return 1, [f"X^{p ** k} - {m}: polygon {bound} vs closed form {closed}"]
        if (closed > 0) != bool(dedekind_primes(p ** k, m)):
            return 1, [f"X^{p ** k} - {m}: closed form disagrees with Dedekind"]
        return 1, []


WORKLOADS = {w.name: w for w in (LargeField, Atlas, Refute, Ledger)}
