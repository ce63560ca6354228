"""Machine checks for the counting, Gibbs, mixing, and mass-spread estimates.

Every inequality here is evaluated with exact integers (counts), exact
field elements (stationary masses, growth rates of small presentations),
or both; a failure names the check, the length, and the witness numbers.
The checks are the load-bearing estimates behind uniqueness of the measure
of maximal entropy: submultiplicativity and growth floors for the whole
language, product bounds and ceilings for the good cores under a certified
gluing time, summability of the obstruction tail, near-full coverage of
the filtration levels, cylinder-mass floors on good cores, two-window
mass floors, and the minimum cylinder count of positive-mass sets.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

from .decomposition import min_gluing_time
from .errors import InputError
from .orbits import OrbitCollection, count_separated
from .quadratic import QuadraticNumber


def _exact_beta(system):
    """Exact growth value when available, else a float."""
    beta = system.beta_value()
    if isinstance(beta, int):
        return Fraction(beta)
    if isinstance(beta, (Fraction, QuadraticNumber)):
        return beta
    return float(beta)


def _geq(count: int, power) -> bool:
    """count >= power, exact when power is exact."""
    if isinstance(power, (Fraction, QuadraticNumber)):
        return power <= count
    return math.log(count) >= math.log(float(power)) - 1e-9


def _scale_mass(mass, scale):
    """mass * scale, exact unless either side is already a float."""
    if isinstance(mass, float) or isinstance(scale, float):
        return float(mass) * float(scale)
    return mass * scale


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    summary: str
    details: dict = field(default_factory=dict)


@dataclass(frozen=True)
class CountingSuiteReport:
    checks: tuple
    tau: int
    c1: float
    c1_sup: float
    c2: float
    b_tails: dict
    coverage_table: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def counting_suite(
    system,
    scheme,
    n_max: int,
    j: int = 0,
    k_max: int = 3,
    tau: int | None = None,
    product_total: int = 18,
    gamma2_table=(Fraction(1, 2), Fraction(1, 4), Fraction(1, 10)),
    level_cap: int = 16,
) -> CountingSuiteReport:
    """Exact-arithmetic verification of the counting estimates.

    Runs, with counts at depth j: (a) submultiplicativity of language
    counts; (b) the growth floor count >= beta^n; (c) the gluing product
    bound for cores; (d) the core count ceiling beta^(n+tau); (e) the
    obstruction tail sums b_M, in closed form when the boundary counts are
    eventually periodic; (f) the count/growth ratio C1 over the tail
    window, with its all-n supremum; (g) coverage floors for the
    filtration levels at each requested gamma.
    """
    if n_max < 8:
        raise InputError("n_max must be at least 8")
    beta = _exact_beta(system)
    full = OrbitCollection.full_language(system)
    cores = scheme.cores()
    boundary = scheme.boundary()
    checks = []

    lang = {n: count_separated(full, n, j) for n in range(1, n_max + 1)}
    core_counts = {n: count_separated(cores, n, j) for n in range(1, n_max + 1)}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        boundary_counts = {
            n: count_separated(boundary, n, j) for n in range(1, n_max + 1)
        }

    # (a) submultiplicativity of language counts
    bad = next(
        (
            (m, n)
            for m in range(1, n_max)
            for n in range(1, n_max - m + 1)
            if lang[m + n] > lang[m] * lang[n]
        ),
        None,
    )
    checks.append(
        CheckResult(
            "product-bound",
            bad is None,
            "count(m+n) <= count(m) * count(n)"
            if bad is None
            else f"violated at m={bad[0]}, n={bad[1]}",
            {"witness": bad},
        )
    )

    # (b) growth floor
    bad = next((n for n in range(1, n_max + 1) if not _geq(lang[n], beta ** n)), None)
    checks.append(
        CheckResult(
            "growth-floor",
            bad is None,
            "count(n) >= beta^n" if bad is None else f"violated at n={bad}",
            {"witness": bad},
        )
    )

    # gluing time for the cores
    if tau is None:
        glue = min_gluing_time(system, cores, j=j, tau_max=4, lengths=range(1, 5))
        if not glue.found:
            raise InputError("cores admit no gluing time up to 4; pass tau explicitly")
        tau = glue.tau

    # (c) product bound under gluing
    def partitions(total, k):
        if k == 1:
            yield (total,)
            return
        for first in range(1, total - k + 2):
            for rest in partitions(total - first, k - 1):
                yield (first,) + rest

    bad = None
    for k in range(2, k_max + 1):
        for total in range(k, product_total + 1):
            if total + (k - 1) * tau > n_max:
                continue
            for parts in partitions(total, k):
                lhs = lang[total + (k - 1) * tau]
                rhs = 1
                for p in parts:
                    rhs *= core_counts[p]
                if lhs < rhs:
                    bad = (parts, lhs, rhs)
                    break
            if bad:
                break
        if bad:
            break
    checks.append(
        CheckResult(
            "gluing-product-bound",
            bad is None,
            f"count(sum n_i + (k-1)*{tau}) >= prod core-count(n_i)"
            if bad is None
            else f"violated at parts={bad[0]}: {bad[1]} < {bad[2]}",
            {"witness": bad, "tau": tau},
        )
    )

    # (d) core count ceiling
    bad = next(
        (
            n
            for n in range(1, n_max + 1)
            if not _geq_reversed(core_counts[n], beta ** (n + tau))
        ),
        None,
    )
    checks.append(
        CheckResult(
            "core-count-ceiling",
            bad is None,
            f"core-count(n) <= beta^(n+{tau})" if bad is None else f"violated at n={bad}",
            {"witness": bad, "tau": tau},
        )
    )

    # (e) obstruction tail sums
    b_tails, tail_ok, tail_note = _tail_sums(boundary_counts, beta, n_max)
    checks.append(CheckResult("tail-summability", tail_ok, tail_note, {}))

    # (f) count/growth ratio over the tail window
    ratios = {n: lang[n] / (beta ** n) for n in range(1, n_max + 1)}
    window = range((n_max + 1) // 2, n_max + 1)
    c1_exact = max((ratios[n] for n in window), key=float)
    c1 = float(c1_exact)
    c1_sup = max(float(ratios[n]) for n in range(1, n_max + 1))
    half = (len(list(window)) + 1) // 2
    first_half = list(window)[:half]
    second_half = list(window)[half:] or first_half
    stability = abs(
        max(float(ratios[n]) for n in first_half)
        - max(float(ratios[n]) for n in second_half)
    )
    c2 = math.log(c1) + math.log(2)
    checks.append(
        CheckResult(
            "count-ratio-ceiling",
            c1_sup <= 2 * c1,
            f"count(n) <= {c1_sup:.6f} * beta^n for n <= {n_max}, "
            f"tail value {c1:.6f}",
            {"c1": c1, "c1_sup": c1_sup, "stability": stability},
        )
    )

    # (g) coverage floors for the filtration levels
    coverage_rows = []
    cover_ok = True
    for gamma2 in gamma2_table:
        found = None
        for M in range(0, level_cap + 1):
            cov_min = min(
                Fraction(scheme.coverage_count(M, n), system.count_language(n))
                for n in range(1, n_max + 1)
            )
            if cov_min >= 1 - Fraction(gamma2):
                found = (M, cov_min)
                break
        if found is None:
            cover_ok = False
            coverage_rows.append((float(gamma2), None, None))
        else:
            coverage_rows.append((float(gamma2), found[0], float(found[1])))
    checks.append(
        CheckResult(
            "coverage-floor",
            cover_ok,
            "every level fraction reaches 1 - gamma within the level cap"
            if cover_ok
            else "some gamma needs a level beyond the cap",
            {"rows": coverage_rows},
        )
    )

    return CountingSuiteReport(
        checks=tuple(checks),
        tau=tau,
        c1=c1,
        c1_sup=c1_sup,
        c2=c2,
        b_tails=b_tails,
        coverage_table=tuple(coverage_rows),
    )


def _geq_reversed(count: int, power) -> bool:
    """count <= power, exact when power is exact."""
    if isinstance(power, (Fraction, QuadraticNumber)):
        return power >= count
    return math.log(max(count, 1)) <= math.log(float(power)) + 1e-9


def _tail_sums(counts: dict, beta, n_max: int):
    """b_M = sum_{i >= M} counts[i] * beta^-i, closed form when possible."""
    if isinstance(beta, float):
        inv = 1.0 / beta
    else:
        inv = 1 / beta
    period = None
    probe = range(max(1, n_max - 12), n_max + 1)
    for q in range(1, 7):
        if all(
            counts[i] == counts[i + q] for i in probe if i + q <= n_max
        ):
            period = q
            break
    m_top = min(12, n_max - 8)
    tails = {}
    if period is None:
        # no periodic tail: report partial sums; summable only if terms vanish
        terms = {i: counts[i] * inv ** i for i in range(1, n_max + 1)}
        vanishing = float(terms[n_max]) < 0.5 * float(terms[max(1, n_max // 2)]) and (
            float(terms[n_max]) < 1e-3
        )
        for m in range(1, m_top + 1):
            tails[m] = float(sum(terms[i] for i in range(m, n_max + 1)))
        note = (
            "no periodic boundary tail detected; partial sums only"
            if vanishing
            else "boundary terms do not vanish; tail is not summable"
        )
        return tails, vanishing, note
    anchor = max(1, n_max - 12)
    geom = 1 / (1 - inv ** period)
    for m in range(1, m_top + 1):
        start = max(m, anchor)
        head = sum((counts[i] * inv ** i for i in range(m, start)), inv * 0)
        tail = sum(counts[start + r] * inv ** (start + r) for r in range(period))
        tails[m] = head + tail * geom
    decreasing = all(
        float(tails[m + 1]) < float(tails[m]) + 1e-15 for m in range(1, m_top)
    )
    return (
        tails,
        decreasing,
        f"closed-form tails with eventual period {period}, decreasing to 0",
    )


# -- cylinder-mass floors -----------------------------------------------------------


@dataclass(frozen=True)
class GibbsReport:
    """Minimum of mass * growth^n over a word class, with violations."""

    word_class: str
    depth_offset: int
    constant: float
    constant_exact: object
    argmin: tuple
    per_length_min: dict
    violations: tuple
    proof_constant: float | None = None
    precondition_met: bool = True

    @property
    def passed(self) -> bool:
        return not self.violations and self.constant > 0


def gibbs_check(
    measure,
    system,
    scheme,
    M: int,
    n_range,
    j: int = 0,
    proof_constant: float | None = None,
) -> GibbsReport:
    """Floor for cylinder masses over level-M words: min mass([v]) * beta^n.

    Masses of all depth-(n + j) extensions of level-M words are scaled by
    beta^n; the report carries the minimum, the word attaining it, per-length
    minima, and any words of zero mass (violations).  The level words come
    with their end states from `scheme.level_words`, and the depth-j tails
    are listed once per end state.
    """
    beta = _exact_beta(system)
    per_length = {}
    best = None
    violations = []
    tails = {}
    for n in n_range:
        scale = beta ** n
        level_min = None
        for v, state in scheme.level_words(M, n):
            if state not in tails:
                tails[state] = system.presentation.tails(state, j)
            for ext in tails[state]:
                value = _scale_mass(measure.mass(v + ext), scale)
                if float(value) <= 0:
                    violations.append(v + ext)
                    continue
                if level_min is None or value < level_min[0]:
                    level_min = (value, v + ext)
        if level_min is not None:
            per_length[n] = float(level_min[0])
            if best is None or level_min[0] < best[0]:
                best = level_min
    constant_exact = best[0] if best else 0
    return GibbsReport(
        word_class=f"{scheme.name}:level{M}",
        depth_offset=j,
        constant=float(constant_exact),
        constant_exact=constant_exact,
        argmin=best[1] if best else (),
        per_length_min=per_length,
        violations=tuple(violations),
        proof_constant=proof_constant,
    )


def mass_floor_over_words(measure, system, words_by_length: dict, j: int = 0):
    """min mass * beta^n over an explicit word family; (value, argmin, per_n)."""
    beta = _exact_beta(system)
    best = None
    per_length = {}
    for n, words in sorted(words_by_length.items()):
        scale = beta ** n
        for v in words:
            value = _scale_mass(measure.mass(v), scale)
            if best is None or value < best[0]:
                best = (value, v)
            if n not in per_length or value < per_length[n]:
                per_length[n] = value
    return best, per_length


def mixing_check(
    measure,
    system,
    scheme,
    M: int,
    pairs,
    q: int,
    tau: int = 0,
    proof_constant: float | None = None,
) -> GibbsReport:
    """Floor for two-window masses: min mass([u] & shift^-(|u|+q) [v]) * beta^(|u|+|v|).

    The joint mass is the total mass of u . t . v over all length-q middles.
    The estimate is only claimed for q >= 2 * tau; reports for smaller q are
    marked as failing the precondition and are informational.
    """
    beta = _exact_beta(system)
    best = None
    violations = []
    for u, v in pairs:
        if not (scheme.in_level(u, M) and scheme.in_level(v, M)):
            raise InputError("pair words must lie in the requested level")
        joint = measure.joint_mass(u, q, v)
        value = _scale_mass(joint, beta ** (len(u) + len(v)))
        if float(value) <= 0:
            violations.append((u, v))
            continue
        if best is None or value < best[0]:
            best = (value, (u, v))
    constant_exact = best[0] if best else 0
    return GibbsReport(
        word_class=f"{scheme.name}:level{M}-pairs(q={q})",
        depth_offset=0,
        constant=float(constant_exact),
        constant_exact=constant_exact,
        argmin=best[1] if best else (),
        per_length_min={},
        violations=tuple(violations),
        proof_constant=proof_constant,
        precondition_met=q >= 2 * tau,
    )


def positive_mass_count(measure, gamma, n: int) -> int:
    """Minimum number of length-n cylinders whose total mass reaches gamma.

    Greedy accumulation in descending mass order attains the minimum for
    this objective exactly.
    """
    gamma = Fraction(gamma) if not isinstance(gamma, float) else gamma
    if not 0 < float(gamma) < 1:
        raise InputError("gamma must lie strictly between 0 and 1")
    masses = measure.masses_descending(n)
    # g is the float nearest gamma, so a float sum other than g lies on the
    # same side of gamma as of g; only acc == g needs the exact comparison
    g = float(gamma)
    acc = None
    for count, m in enumerate(masses, start=1):
        acc = m if acc is None else acc + m
        if acc > g if type(acc) is float and acc != g else acc >= gamma:
            return count
    return len(masses)


def mixing_liminf_probe(measure, u_words, v_words, m_range) -> dict:
    """mu(U & shift^-m V) for each m, with the running infimum attached.

    U and V are unions of cylinders given by word lists; overlapping windows
    are merged symbol-by-symbol and clashes contribute zero.
    """
    results = {}
    running = None
    for m in sorted(m_range):
        total = 0
        for u in u_words:
            for v in v_words:
                template = _two_window_template(u, m, v)
                if template is not None:
                    total = total + measure.pattern_mass(template)
        running = total if running is None else min(running, total, key=float)
        results[m] = (total, running)
    return results


def _two_window_template(u, m, v):
    length = max(len(u), m + len(v))
    template = [None] * length
    for i, a in enumerate(u):
        template[i] = a
    for i, a in enumerate(v):
        cur = template[m + i]
        if cur is not None and cur != a:
            return None
        template[m + i] = a
    return template


def gibbs_proof_constant(c1_sup: float, tau: int, entropy: float) -> float:
    """(4 C1)^-1 e^(-2 tau h): the constructive one-window floor."""
    return math.exp(-2 * tau * entropy) / (4 * c1_sup)


def mixing_proof_constant(c1_sup: float, tau: int, entropy: float) -> float:
    """(8 C1)^-1 e^(-4 tau h): the constructive two-window floor."""
    return math.exp(-4 * tau * entropy) / (8 * c1_sup)


def positive_mass_constant(c1: float, c2: float, gamma: float) -> float:
    """C1 e^(-C2 / gamma): the minimum-cylinder-count coefficient."""
    return c1 * math.exp(-c2 / float(gamma))


def correlation_floor_constant(c_gamma: float, k_prime: float) -> float:
    """c_gamma^2 k' / 4: the two-set correlation floor built from the
    positive-mass coefficient and the two-window mass floor."""
    return c_gamma ** 2 * k_prime / 4
