"""Machine checks for the counting, Gibbs, mixing, and mass-spread estimates,
and `verify_battery`, the rows of `verify` and how each is decided.

Every row but the obstruction rate is decided in one exact arithmetic of
integers, `Fraction`s and `QuadraticNumber`s; a failure names the check,
the length, and the witness numbers.  Beta enters as bounds lo <= beta
<= hi (`_growth`), and a growth comparison that they leave open reads
"not run: undecided".
Masses enter unrounded, as class weights times the exact per-length scale
S_n (`MassClasses.scales`).  So c1, c1_sup and the tails b_M, computed
with lo, are upper bounds, and the Gibbs and two-window constants,
computed with lo^n, lower bounds.  Exact values are held as quotients
(num, den) with den > 0, and floats exist only in the reported fields,
each the exact value rounded once.
The checks are the load-bearing estimates behind uniqueness of the measure
of maximal entropy: submultiplicativity and growth floors for the whole
language, product bounds and ceilings for the good cores under a certified
gluing time, summability of the obstruction tail, near-full coverage of
the filtration levels, cylinder-mass floors on good cores, two-window
mass floors, and the minimum cylinder count of positive-mass sets.
"""

from __future__ import annotations

import functools
import math
from decimal import MIN_EMIN, Context, Decimal
from fractions import Fraction
from itertools import accumulate, combinations, repeat
from operator import mul

from .automata import check_enumeration_cap
from .decomposition import filtration_coverage, min_gluing_time
from .errors import DepthError, InputError
from .orbits import OrbitCollection, count_separated, upper_entropy
from .perron import perron_eigendata, simplest_between
from .quadratic import QuadraticNumber
from .reports import fmt_float, fmt_number
from .words import overlay

# counting suite: most cores and largest sum of core lengths in the gluing
# product bound, the gammas of the coverage floors, and the highest level
# they may need
PRODUCT_K_MAX = 3
PRODUCT_TOTAL = 18
GAMMA2_TABLE = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 10))
LEVEL_CAP = 16


def _growth(system) -> tuple:
    """Bounds (lo, hi), lo <= beta <= hi, as quotients (num, den): beta twice
    when it is exact, else the Perron value's enclosure [a, b] widened to
    the simplest rationals within b - a of its ends, of half their bits."""
    beta = system.beta_value()
    if isinstance(beta, QuadraticNumber):
        return ((beta, 1),) * 2
    if isinstance(beta, (int, Fraction)):
        lo = hi = Fraction(beta)
    else:
        a, b = perron_eigendata(system.presentation).enclosure
        lo, hi = simplest_between(2 * a - b, a), simplest_between(b, 2 * b - a)
    return (lo.numerator, lo.denominator), (hi.numerator, hi.denominator)


def _powers(x, top: int) -> list:
    """[x^0, ..., x^top] for a quotient x = (num, den), each (num^i, den^i),
    each power one product of the last."""
    return list(zip(*(accumulate(repeat(v, top), mul, initial=v ** 0) for v in x)))


def _compare(a, b) -> int:
    """The sign of a - b for quotients (num, den) with den > 0."""
    x, y = a[0] * b[1], b[0] * a[1]
    return (x > y) - (x < y)


_by_value = functools.cmp_to_key(_compare)


def _rounded(q) -> float:
    """The float nearest q: int / int, and `float` of a field element, round
    correctly."""
    return float(q[0] / q[1])


def _significant(q, digits: int) -> str:
    """The quotient q to `digits` significant digits, as `g` formats its
    float, but worked out from q's integers where q is positive and below
    the least float, whose float would read 0."""
    x = _rounded(q)
    exact = None if x else _exact(q)
    if not (isinstance(exact, Fraction) and exact > 0):
        return f"{x:.{digits}g}"
    context = Context(prec=digits, Emin=MIN_EMIN)
    x = context.divide(Decimal(exact.numerator), Decimal(exact.denominator))
    return f"{x.normalize(context):.{digits}g}"


def _exact(q):
    """The quotient q as one number: a `Fraction` (one gcd), or a field
    element."""
    num, den = q
    if isinstance(num, QuadraticNumber) or isinstance(den, QuadraticNumber):
        return num / den
    return Fraction(num, den)


class CheckResult:
    def __init__(self, name: str, passed: bool, summary: str,
                 details: dict | None = None):
        self.name = name
        self.passed = passed
        self.summary = summary
        self.details = {} if details is None else details


class CountingSuiteReport:
    """The counting rows and constants: c1 and c1_sup as exact quotients
    (num, den) at lo, `c1_value` and `c1_sup_value`, and rounded once, `c1`
    and `c1_sup`; `bounds` is the (lo, hi) of `_growth`."""

    def __init__(self, checks: tuple, tau: int, c1_value: tuple, c1_sup_value: tuple,
                 b_tails: dict, bounds: tuple):
        self.checks = checks
        self.tau = tau
        self.c1_value, self.c1_sup_value = c1_value, c1_sup_value
        self.c1, self.c1_sup = _rounded(c1_value), _rounded(c1_sup_value)
        self.c2 = math.log(self.c1) + math.log(2)
        self.b_tails = b_tails
        self.bounds = bounds

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
    tau: int | None = None,
) -> CountingSuiteReport:
    """Exact-arithmetic verification of the counting estimates.

    Runs, with counts at depth j: (a) submultiplicativity of language
    counts; (b) the growth floor count >= beta^n; (c) the gluing product
    bound for cores; (d) the core count ceiling beta^(n+tau); (e) the
    obstruction tail sums b_M, in closed form when the boundary counts are
    eventually periodic, from one running sum; (f) the count/growth ratio
    C1 over the tail window, with its all-n supremum; (g) coverage floors
    for the filtration levels at each requested gamma, each level's least
    over n <= n_max found by integer cross-multiplication with |L_n|.
    (b) and (d) are decided on lo <= beta <= hi, (e) and (f) use lo.
    """
    if n_max < 8:
        raise InputError("n_max must be at least 8")
    full = OrbitCollection.full_language(system)
    cores = scheme.cores()
    boundary = scheme.boundary()
    checks = []

    # gluing time for the cores
    if tau is None:
        glue = min_gluing_time(system, cores, j=j, tau_max=4, lengths=range(1, 5))
        if not glue.found:
            raise InputError("cores admit no gluing time up to 4; pass tau explicitly")
        tau = glue.tau
    lo, hi = _growth(system)
    lo_pow = _powers(lo, n_max + tau)
    hi_pow = lo_pow if hi == lo else _powers(hi, n_max + tau)

    lang = {n: count_separated(full, n, j) for n in range(1, n_max + 1)}
    core_counts = {n: count_separated(cores, n, j) for n in range(1, n_max + 1)}
    boundary_counts = {n: count_separated(boundary, n, j) for n in range(1, n_max + 1)}

    # (a) submultiplicativity of language counts
    bad = next(((m, n) for m in range(1, n_max) for n in range(1, n_max - m + 1)
                if lang[m + n] > lang[m] * lang[n]), None)
    checks.append(CheckResult(
        "product-bound", bad is None,
        "count(m+n) <= count(m) * count(n)" if bad is None
        else f"violated at m={bad[0]}, n={bad[1]}",
        {"witness": bad},
    ))

    # (b) growth floor: holds where hi^n <= count, fails where count < lo^n
    checks.append(_decide(
        "growth-floor", "count(n) >= beta^n", range(1, n_max + 1), (lo, hi),
        lambda n: _compare(hi_pow[n], (lang[n], 1)) <= 0,
        lambda n: _compare((lang[n], 1), lo_pow[n]) < 0,
    ))

    # (c) product bound under gluing: a total's compositions are listed
    # only when its largest product fails, to report the first failure
    top = min(PRODUCT_TOTAL, n_max)
    bad = None
    for k in range(2, PRODUCT_K_MAX + 1):
        best = _largest_products(core_counts, k, top)
        for total in range(k, top + 1):
            if total + (k - 1) * tau > n_max:
                continue
            lhs = lang[total + (k - 1) * tau]
            if lhs < best[total]:
                bad = next(
                    (parts, lhs, rhs)
                    for parts in _compositions(total, k)
                    if lhs < (rhs := math.prod(core_counts[p] for p in parts))
                )
                break
        if bad:
            break
    checks.append(CheckResult(
        "gluing-product-bound", bad is None,
        f"count(sum n_i + (k-1)*{tau}) >= prod core-count(n_i)" if bad is None
        else f"violated at parts={bad[0]}: {bad[1]} < {bad[2]}",
        {"witness": bad, "tau": tau},
    ))

    # (d) core count ceiling: holds where count <= lo^(n+tau), fails where
    # count > hi^(n+tau)
    checks.append(_decide(
        "core-count-ceiling", f"core-count(n) <= beta^(n+{tau})", range(1, n_max + 1),
        (lo, hi),
        lambda n: _compare((core_counts[n], 1), lo_pow[n + tau]) <= 0,
        lambda n: _compare((core_counts[n], 1), hi_pow[n + tau]) > 0,
        tau=tau,
    ))

    # lo^-n = q^n / p^n for lo = p / q is unit[n] / p^n_max: one common
    # denominator for the tail terms and the ratios
    unit = {n: lo_pow[n][1] * lo_pow[n_max - n][0] for n in range(1, n_max + 1)}

    # (e) obstruction tail sums
    b_tails, tail_ok, tail_note = _tail_sums(boundary_counts, unit, lo_pow, n_max,
                                             lo == hi)
    checks.append(CheckResult("tail-summability", tail_ok, tail_note, {}))

    # (f) count/growth ratio count(n) / lo^n over the tail window; c1 and
    # c1_sup are kept as count(n) q^n / p^n at the n of their maxima, which
    # drops the factor p^(n_max - n) of the common denominator
    ratios = {n: lang[n] * unit[n] for n in range(1, n_max + 1)}
    top, top_sup = (max(ns, key=ratios.__getitem__)
                    for ns in (range((n_max + 1) // 2, n_max + 1), ratios))
    c1_value, c1_sup_value = ((lang[n] * lo_pow[n][1], lo_pow[n][0]) for n in (top, top_sup))
    c1, c1_sup = _rounded(c1_value), _rounded(c1_sup_value)
    checks.append(CheckResult(
        "count-ratio-ceiling", ratios[top_sup] <= 2 * ratios[top],
        f"count(n) <= {c1_sup:.6f} * beta^n for n <= {n_max}, tail value {c1:.6f}",
        {"c1": c1, "c1_sup": c1_sup},
    ))

    # (g) coverage floors for the filtration levels
    coverage_rows = []
    cover_ok = True
    coverage_minima: dict = {}  # level -> least coverage fraction, for every gamma
    sizes = {n: system.count_language(n) for n in range(1, n_max + 1)}
    for gamma2 in GAMMA2_TABLE:
        found = None
        for M in range(0, LEVEL_CAP + 1):
            if M not in coverage_minima:
                # the least n by integer cross-multiplication, then its fraction
                level = scheme.level_collection(M)
                counts = {n: count_separated(level, n, 0) for n in sizes}
                least = min(sizes, key=functools.cmp_to_key(
                    lambda a, b: counts[a] * sizes[b] - counts[b] * sizes[a]))
                coverage_minima[M] = filtration_coverage(system, scheme, M, least)
            cov_min = coverage_minima[M]
            if cov_min >= 1 - Fraction(gamma2):
                found = (M, cov_min)
                break
        if found is None:
            cover_ok = False
            coverage_rows.append((float(gamma2), None, None))
        else:
            coverage_rows.append((float(gamma2), found[0], float(found[1])))
    checks.append(CheckResult(
        "coverage-floor", cover_ok,
        "every level fraction reaches 1 - gamma within the level cap" if cover_ok
        else "some gamma needs a level beyond the cap",
        {"rows": coverage_rows},
    ))
    return CountingSuiteReport(checks=tuple(checks), tau=tau, c1_value=c1_value,
                               c1_sup_value=c1_sup_value, b_tails=b_tails, bounds=(lo, hi))


def _compositions(total: int, k: int):
    """The compositions of total into k positive parts, in increasing
    lexicographic order (that of their k - 1 cut points)."""
    for cuts in combinations(range(1, total), k - 1):
        yield tuple(b - a for a, b in zip((0,) + cuts, cuts + (total,)))


def _largest_products(counts: dict, k: int, top: int) -> dict:
    """t -> the largest product counts[n_1] ... counts[n_k] over the
    compositions of t into k parts, for k <= t <= top, by
    best_k(t) = max_f counts[f] best_(k-1)(t - f)."""
    best = counts
    for i in range(2, k + 1):
        best = {
            t: max(counts[f] * best[t - f] for f in range(1, t - i + 2))
            for t in range(i, top + 1)
        }
    return best


def _decide(name, claim, lengths, bounds, holds, fails, **details) -> CheckResult:
    """The row of `claim` over `lengths`: failed at the first n where
    fails(n), else passed where holds(n) at every n, else not run (passed
    None) at the first n that the bounds (lo, hi) leave undecided."""
    undecided = None
    for n in lengths:
        if holds(n):
            continue
        if fails(n):
            return CheckResult(name, False, f"violated at n={n}", {"witness": n, **details})
        undecided = undecided or n
    if undecided is None:
        return CheckResult(name, True, claim, {"witness": None, **details})
    return CheckResult(name, None, _undecided(bounds, f"n = {undecided}"),
                       {"witness": undecided, **details})


def _undecided(bounds, where: str) -> str:
    """The summary of a row that the bounds (lo, hi) leave open at `where`."""
    lo, hi = map(_rounded, bounds)
    return f"not run: undecided on the enclosure [{lo:.17g}, {hi:.17g}] at {where}"


def _tail_sums(counts: dict, unit: dict, power, n_max: int, exact: bool):
    """b_M = sum_{i >= M} counts[i] x^-i for 1 <= M <= min(12, n_max - 8)
    at the lower bound x = p / q (so above the sum at beta): in closed form
    when the counts are eventually periodic, else as partial sums to n_max.
    With x^-i = unit[i] / p^n_max and power[i] = (p^i, q^i), each tail is
    a numerator over one common denominator, and the heads are one running
    sum from the top down.  Closed-form tails stay exact when `exact` (x is
    beta), every other tail is rounded once."""
    probe = range(max(1, n_max - 12), n_max + 1)
    period = next((q for q in range(1, 7)
                   if all(counts[i] == counts[i + q] for i in probe if i + q <= n_max)), None)
    m_top = min(12, n_max - 8)
    # the heads end at n_max, or where the closed form's periodic tail starts
    end = n_max + 1 if period is None else max(1, n_max - 12)
    heads, acc = {}, 0
    for i in range(end - 1, 0, -1):
        acc += counts[i] * unit[i]
        heads[i] = acc
    den = power[n_max][0]
    if period is None:
        # no periodic tail: report partial sums; summable only if terms vanish
        last, mid = (counts[i] * unit[i] for i in (n_max, max(1, n_max // 2)))
        vanishing = 2 * last < mid and 1000 * last < den
        tails = {m: _rounded((heads[m], den)) for m in range(1, m_top + 1)}
        note = (
            "no periodic boundary tail detected; partial sums only"
            if vanishing
            else "boundary terms do not vanish; tail is not summable"
        )
        return tails, vanishing, note
    # from start on, a geometric series of ratio x^-period = Q / P, (P, Q) =
    # power[period]: its first period terms times P / (P - Q)
    big, small = power[period]

    def tail_from(start):
        return big * sum(counts[start + r] * unit[start + r] for r in range(period))

    tail = tail_from(end)
    sums = {m: (big - small) * heads[m] + tail if m < end else tail_from(m)
            for m in range(1, m_top + 1)}
    den *= big - small
    tails = {m: (_exact if exact else _rounded)((v, den)) for m, v in sums.items()}
    return (
        tails,
        all(sums[m + 1] <= sums[m] for m in range(1, m_top)),
        f"closed-form tails with eventual period {period}, decreasing to 0",
    )


# -- cylinder-mass floors -----------------------------------------------------------


class GibbsReport:
    """Minimum of mass * growth^n over a word class, with violations: the
    exact minimum `value` as a quotient (num, den), and its float."""

    def __init__(self, word_class: str, value: tuple, argmin: tuple,
                 per_length_min: dict, violations: tuple, precondition_met: bool = True):
        self.word_class = word_class
        self.value = value
        self.constant = _rounded(value)
        self.argmin = argmin
        self.per_length_min = per_length_min
        self.violations = violations
        self.precondition_met = precondition_met

    def __eq__(self, other):
        return type(other) is type(self) and vars(other) == vars(self)

    @property
    def constant_exact(self):
        return _exact(self.value)

    @property
    def passed(self) -> bool:
        return not self.violations and self.value[0] > 0


def _least(values) -> tuple:
    """The (quotient, word) pair of least value, the first one on ties;
    ((0, 1), ()) when there are none."""
    return min(values, key=lambda v: _by_value(v[0]), default=((0, 1), ()))


def gibbs_check(
    measure,
    system,
    scheme,
    M: int,
    n_range,
    j: int = 0,
    bounds: tuple | None = None,
) -> GibbsReport:
    """Floor for cylinder masses over level-M words: min mass([v]) * lo^n,
    for lo of `bounds`, the (lo, hi) of `_growth(system)` when not given.

    The exact masses of all depth-(n + j) extensions of level-M words are
    scaled by lo^n; the report carries the minimum, the word attaining it
    (the least one, on ties), per-length minima, and any words of zero mass
    (violations).

    No word is listed: the length-n words are grouped by (level state,
    mass class) along the scheme's level automaton, each group with the
    (group, symbol) it is first reached from, the last step of its least
    word; the level test is applied at length n and the groups are
    extended j more symbols.  The scale S_(n+j) lo^n is common to a length,
    so its minimum is the class of least positive weight, and only the
    least word of its first group is read back; only the words of a class
    of weight <= 0 are listed.
    """
    power = _powers((bounds or _growth(system))[0], max(n_range, default=0))
    classes = measure.classes
    weights = classes.weights
    start, level_moves, member = scheme.level_automaton(M)
    group_moves: dict = {}

    def moves(group):
        """(group after each symbol, (group, symbol)): a word leaves the
        table (class None) on a symbol its class has no child for."""
        if group not in group_moves:
            state, k = group
            kids = {} if k is None else classes.children[k]
            group_moves[group] = [
                ((after, kids.get(a)), (group, a)) for a, after in level_moves(state)
            ]
        return group_moves[group]

    def extend(layer):
        """The groups one symbol longer, each with the (group, symbol) of
        its first reach: the layer lists its groups in increasing order of
        their least words, so the first reach is the least word, and the
        result lists its groups in that order too."""
        out: dict = {}
        for group in layer:
            for after, back in moves(group):
                if after not in out:
                    out[after] = back
        return out

    layers = [{(start, classes.root): None}]
    per_length, minima, violations = {}, [], []
    for n in n_range:
        check_enumeration_cap(n, system.enumeration_cap)
        while len(layers) <= n:
            layers.append(extend(layers[-1]))
        chain = layers[1:n + 1]  # the back-pointers of lengths 1..n + j
        level = [g for g in layers[n] if member(g[0], n)]
        for _ in range(j):
            level = extend(level)
            chain.append(level)
        least: dict = {}  # class -> its group of least word
        for g in level:
            least.setdefault(g[1], g)
        if least and n + j > measure.depth:
            raise DepthError(
                f"cylinder depth {n + j} exceeds measure depth {measure.depth}"
            )
        zero = {k for k in least if k is None or weights[k] <= 0}
        lightest = min((k for k in least if k not in zero), key=weights.__getitem__,
                       default=None)
        if lightest is not None:
            num, den = classes.scales[n + j]
            p, q = power[n]
            word, g = [], least[lightest]
            for layer in reversed(chain):
                g, a = layer[g]
                word.append(a)
            minima.append(((weights[lightest] * num * p, den * q), tuple(word[::-1])))
            per_length[n] = _rounded(minima[-1][0])
        if zero:
            pres = system.presentation
            violations.extend(
                v + ext
                for v in scheme.level_words(M, n)
                for ext in pres.tails(pres.walk(v), j)
                if classes.class_of(v + ext) in zero
            )
    value, argmin = _least(minima)
    return GibbsReport(
        word_class=f"{scheme.name}:level{M}",
        value=value,
        argmin=argmin,
        per_length_min=per_length,
        violations=tuple(violations),
    )


def mixing_check(
    measure,
    system,
    scheme,
    M: int,
    pairs,
    q: int,
    tau: int = 0,
    bounds: tuple | None = None,
) -> GibbsReport:
    """Floor for two-window masses: min mass([u] & shift^-(|u|+q) [v]) * lo^(|u|+|v|),
    for lo of `bounds` as in `gibbs_check`.

    The joint mass is the total mass of u . t . v over all length-q middles:
    its pattern weight times S_(|u|+q+|v|).  The estimate is only claimed
    for q >= 2 * tau; reports for smaller q are marked as failing the
    precondition and are informational.

    Words u of one length and one mass class have equal extension masses,
    so the scaled joint mass is computed once per (length, class of u, v),
    from the first such u: v is read off that u's class paths through the
    gap, walked once.
    """
    power = _powers((bounds or _growth(system))[0],
                    max((len(u) + len(v) for u, v in pairs), default=0))
    classes = measure.classes
    in_level = functools.cache(lambda w: scheme.in_level(w, M))
    first: dict = {}  # (len(u), class of u) -> the first such u
    values, violations = [], []
    # the class paths of u . t over all length-q middles t, per representative u
    after_gap = functools.cache(lambda u: classes.paths((None,) * q, classes.paths(u)))

    @functools.cache
    def scaled_joint(u, v):
        n = len(u) + q + len(v)
        weight = classes.weight(classes.paths(v, after_gap(u)), n) or 0
        num, den = classes.scales[n]
        p, d = power[len(u) + len(v)]
        return weight * num * p, den * d

    for u, v in pairs:
        if not (in_level(u) and in_level(v)):
            raise InputError("pair words must lie in the requested level")
        k = classes.class_of(u)
        value = scaled_joint(u if k is None else first.setdefault((len(u), k), u), v)
        if value[0] <= 0:
            violations.append((u, v))
        else:
            values.append((value, (u, v)))
    value, argmin = _least(values)
    return GibbsReport(
        word_class=f"{scheme.name}:level{M}-pairs(q={q})",
        value=value,
        argmin=argmin,
        per_length_min={},
        violations=tuple(violations),
        precondition_met=q >= 2 * tau,
    )


def positive_mass_count(measure, gamma, n: int) -> int:
    """Minimum number of length-n cylinders whose total mass reaches gamma.

    Greedy accumulation in descending mass order attains the minimum for
    this objective exactly.  It runs over the length-n mass classes,
    largest weight first, each taken whole or up to the least t words with
    acc + t w >= theta, theta = gamma / S_n the weight sum that reaches
    gamma; an integer sum (a Parry measure with integer eigendata) reaches
    it when it reaches ceil(theta).  No mass is rounded.
    """
    gamma = Fraction(gamma)  # exact, also for a float gamma
    if not 0 < gamma < 1:
        raise InputError("gamma must lie strictly between 0 and 1")
    if n > measure.depth:
        raise DepthError(f"length {n} exceeds measure depth {measure.depth}")
    classes = measure.classes
    runs = classes.runs_descending(n)
    num, den = classes.scales[n]
    integer = all(type(classes.weights[k]) is int for k, _ in runs)
    theta = -(-gamma * den // num) if integer else gamma * den / num
    acc, count = 0, 0
    for k, c in runs:
        w = classes.weights[k]
        if w > 0 and acc + c * w >= theta:  # the least t with acc + t w >= theta
            return count - ((acc - theta) // w if integer else math.floor((acc - theta) / w))
        acc, count = acc + c * w, count + c
    return count


def mixing_liminf_probe(measure, u_words, v_words, m_range) -> dict:
    """mu(U & shift^-m V) for each m, with the running infimum attached.

    U and V are unions of cylinders given by word lists.  Each u's class
    paths are carried along the increasing gaps and every v is read off
    them; overlapping windows are merged symbol-by-symbol and clashes
    contribute zero.  The totals and their infimum are exact quotients
    (num, den), compared by cross-multiplication and not normalised: the
    caller normalises (`_exact`) or rounds what it reads.
    """
    classes = measure.classes
    results = {}
    after: dict = {}  # i -> (gap g, the class paths of u_words[i] and g free symbols)
    running = None
    for m in sorted(m_range):
        total = (0, 1)
        for i, u in enumerate(u_words):
            if m >= len(u):  # the gaps increase: each u's paths move on from the last
                gap, paths = after.get(i) or (0, classes.paths(u))
                after[i] = m - len(u), classes.paths((None,) * (m - len(u) - gap), paths)
            for v in v_words:
                n = max(len(u), m + len(v))
                if m >= len(u):
                    weight = classes.weight(classes.paths(v, after[i][1]), n)
                else:
                    template = overlay(((0, u), (m, v)), n)
                    if template is None:
                        continue
                    weight = classes.pattern_weight(template)
                num, den = classes.scales[n]
                total = (total[0] * den + (weight or 0) * num * total[1], total[1] * den)
        if running is None or _compare(total, running) < 0:
            running = total
        results[m] = (total, running)
    return results


def positive_mass_constant(c1: float, c2: float, gamma: float) -> float:
    """C1 e^(-C2 / gamma): the minimum-cylinder-count coefficient."""
    return c1 * math.exp(-c2 / float(gamma))


# -- the verify battery -------------------------------------------------------------

POSITIVE_MASS_GAMMAS = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
# the obstruction rate must sit this far below log beta
OBSTRUCTION_MARGIN = 0.05


def _glue_row(name: str, tau, note: str, summary: str) -> CheckResult:
    """A gluing row: passed with its time and evidence, or not run with why."""
    if tau is None:
        return CheckResult(name, None, note)
    return CheckResult(name, True, summary, {"tau": tau, "evidence": note})


def verify_battery(system, scheme, measure, *, level: int, j: int, tau_max: int,
                   n_max: int) -> tuple:
    """The rows of `verify`, and the counting suite whose constants they use.

    Each row is a `CheckResult` whose `details` are its rendered extra
    fields, and whose `passed` is None when it was not run or is undecided:
    a gluing time not established (or past tau_max), a check that needs
    one, a window past the measure's depth, or a comparison that lo <= beta
    <= hi leave open.  Only the obstruction row is decided on floats (its
    rate against log beta with a margin); every constant is its exact value
    rounded once.
    """
    rows = []
    # gluing times of the filtration levels, established as the scheme does:
    # (tau, how) or (None, why not)
    level_glue = {}
    for M in range(level + 1):
        gap, note = scheme.gluing_time(M, j, tau_max)
        if gap is not None and gap > tau_max:
            gap, note = None, f"certificate gluing time {gap} exceeds --tau-max {tau_max}"
        level_glue[M] = gap, note
        rows.append(_glue_row(f"gluing-level-{M}", gap, note, f"gluing time {gap} at depth {j}"))
    # the cores are level 0 in every scheme
    tau, note = level_glue[0]
    rows.append(_glue_row("gluing-cores", tau, note, f"gluing time {tau}"))

    # without a core gluing time the two checks that need one are not run;
    # the other checks and constants do not depend on tau
    suite = counting_suite(system, scheme, n_max=n_max, j=j,
                           tau=tau_max if tau is None else tau)
    for c in suite.checks:
        if tau is None and "tau" in c.details:
            rows.append(CheckResult(f"counting:{c.name}", None,
                                    "not run: gluing time not established"))
        else:
            rows.append(CheckResult(f"counting:{c.name}", c.passed, c.summary))
    lo, hi = suite.bounds
    c1 = suite.c1_value
    # None when the level's gluing time was not established
    level_tau = level_glue[level][0]

    def proof_fields(k):
        """The constructive k-window floor (4k C1_sup)^-1 beta^(-2k tau), at
        hi, so a lower bound; null without a gluing time."""
        if level_tau is None:
            return {"proof_constant": None,
                    "proof_constant_reason": "gluing time not established"}
        e, (num, den) = 2 * k * level_tau, suite.c1_sup_value
        return {"proof_constant": fmt_float(_rounded((hi[1] ** e * den,
                                                      hi[0] ** e * 4 * k * num)))}

    # lengths from the measure in use: a measure file sets its own depth
    gibbs = gibbs_check(measure, system, scheme, M=level, j=j, bounds=suite.bounds,
                        n_range=range(1, min(measure.depth - j, 12) + 1))
    rows.append(CheckResult(
        "mass-floor", gibbs.passed,
        f"min mass * growth^n = {gibbs.constant:.6g} on {gibbs.word_class}",
        {"constant": fmt_float(gibbs.constant), **proof_fields(1)},
    ))

    words = scheme.level_words(level, 1)
    mixing = None
    if level_tau is None:
        # the level's gluing rows are not run either: no gap to check the floor at
        rows.append(CheckResult("two-window-mass-floor", None,
                                "not run: gluing time not established"))
    else:
        q = max(2 * level_tau, 2)
        try:
            mixing = mixing_check(measure, system, scheme, M=level,
                                  pairs=[(u, v) for u in words for v in words],
                                  q=q, tau=level_tau, bounds=suite.bounds)
        except DepthError as exc:
            # the gap q does not fit in the measure's depth: no verdict either way
            rows.append(CheckResult("two-window-mass-floor", None, f"not run: {exc}"))
        else:
            rows.append(CheckResult(
                "two-window-mass-floor", mixing.passed,
                f"min joint mass * growth^(m+n) = {mixing.constant:.6g} at gap {q}",
                {"constant": fmt_float(mixing.constant), **proof_fields(2)},
            ))

    # count >= C1 (2 C1)^(-1/gamma) beta^n, for gamma = a / b, is
    # count^a >= x(beta): it holds where it holds at hi and fails where it
    # fails at lo
    n = min(10, measure.depth)

    def x(beta, a, b):
        """C1^a (2 C1)^-b beta^(an) = D^(b-a) beta^(an) / (2^b N^(b-a)), for
        C1 = N / D, as a quotient."""
        return (c1[1] ** (b - a) * beta[0] ** (a * n),
                2 ** b * c1[0] ** (b - a) * beta[1] ** (a * n))

    pm_rows, outcomes = [], []
    for gamma in POSITIVE_MASS_GAMMAS:
        count = positive_mass_count(measure, gamma, n)
        a, b = gamma.numerator, gamma.denominator
        x_hi = x(hi, a, b)
        outcomes.append(True if _compare((count ** a, 1), x_hi) >= 0
                        else False if _compare((count ** a, 1), x(lo, a, b)) < 0 else None)
        pm_rows.append({"gamma": fmt_number(gamma), "count": count,
                        "bound": fmt_float(_rounded(x_hi) ** (1 / a))})
    passed = False if False in outcomes else None if None in outcomes else True
    rows.append(CheckResult(
        "positive-mass-count", passed,
        _undecided((lo, hi), f"gamma = {POSITIVE_MASS_GAMMAS[outcomes.index(None)]}")
        if passed is None else f"at n = {n}",
        {"rows": pm_rows},
    ))

    top = max(1, measure.depth - 2)
    try:
        probe = mixing_liminf_probe(measure, [(0,)], [(0,)], range(1, top + 1))
    except DepthError as exc:
        # a depth-1 measure holds no two-symbol pattern
        rows.append(CheckResult("correlation-floor", None, f"not run: {exc}",
                                {"alpha_constant": None}))
    else:
        running = probe[top][1]
        # alpha = c^2 k' / 4 = k' / (64 C1^2) for the two-window floor k' and
        # the positive-mass coefficient c = C1 (2 C1)^-2 at gamma = 1/2
        alpha = None if mixing is None else fmt_float(_rounded(
            (mixing.value[0] * c1[1] ** 2, mixing.value[1] * 64 * c1[0] ** 2)))
        rows.append(CheckResult(
            "correlation-floor", running[0] > 0,
            f"running infimum {_significant(running, 6)} over gaps 1..{top}",
            {"running_infimum": _significant(running, 17), "alpha_constant": alpha},
        ))

    obstruction = upper_entropy(scheme.boundary(), j, n_max)
    entropy = system.log_beta()
    unglued = [str(M) for M, (t, _) in level_glue.items() if t is None]
    summary = f"obstruction rate {obstruction.rate:.6g} vs growth {entropy:.6g}"
    if unglued:
        summary += f"; gluing time not established at levels {', '.join(unglued)}"
    rows.append(CheckResult(
        "obstruction-below-entropy",
        obstruction.rate + OBSTRUCTION_MARGIN < entropy and not unglued, summary,
        {"obstruction_rate": fmt_float(obstruction.rate), "log_beta": fmt_float(entropy)},
    ))
    return rows, suite
