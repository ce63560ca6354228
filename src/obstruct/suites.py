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

import functools
import math
import sys
from fractions import Fraction
from itertools import accumulate, combinations

from .automata import check_enumeration_cap
from .decomposition import filtration_coverage, min_gluing_time
from .errors import DepthError, InputError
from .measures import MAX_TABLE_CYLINDERS, extend
from .orbits import OrbitCollection, count_separated
from .quadratic import QuadraticNumber
from .words import overlay

# counting suite: most cores and largest sum of core lengths in the gluing
# product bound, the gammas of the coverage floors, and the highest level
# they may need
PRODUCT_K_MAX = 3
PRODUCT_TOTAL = 18
GAMMA2_TABLE = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 10))
LEVEL_CAP = 16


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


def _power_table(x):
    """i -> x ** i, each power computed once.  Exact powers are built by
    products; a float's by `**`, so each float is the one `x ** i` gives."""
    table = [x ** 0]

    def power(i: int):
        while len(table) <= i:
            n = len(table)
            table.append(x ** n if isinstance(x, float) else table[-1] * x)
        return table[i]

    return power


def _scale_mass(mass, scale):
    """mass * scale, exact unless either side is already a float."""
    if isinstance(mass, float) or isinstance(scale, float):
        return float(mass) * float(scale)
    return mass * scale


class CheckResult:
    def __init__(self, name: str, passed: bool, summary: str,
                 details: dict | None = None):
        self.name = name
        self.passed = passed
        self.summary = summary
        self.details = {} if details is None else details


class CountingSuiteReport:
    def __init__(self, checks: tuple, tau: int, c1: float, c1_sup: float, c2: float,
                 b_tails: dict):
        self.checks = checks
        self.tau = tau
        self.c1 = c1
        self.c1_sup = c1_sup
        self.c2 = c2
        self.b_tails = b_tails

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
    """
    if n_max < 8:
        raise InputError("n_max must be at least 8")
    beta = _exact_beta(system)
    power = _power_table(beta)
    full = OrbitCollection.full_language(system)
    cores = scheme.cores()
    boundary = scheme.boundary()
    checks = []

    lang = {n: count_separated(full, n, j) for n in range(1, n_max + 1)}
    core_counts = {n: count_separated(cores, n, j) for n in range(1, n_max + 1)}
    boundary_counts = {n: count_separated(boundary, n, j) for n in range(1, n_max + 1)}

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
    bad = next((n for n in range(1, n_max + 1) if not _geq(lang[n], power(n))), None)
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
            if not _geq_reversed(core_counts[n], power(n + tau))
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
    ratios = {n: lang[n] / power(n) for n in range(1, n_max + 1)}
    window = range((n_max + 1) // 2, n_max + 1)
    c1_exact = max((ratios[n] for n in window), key=float)
    c1 = float(c1_exact)
    c1_sup = max(float(ratios[n]) for n in range(1, n_max + 1))
    c2 = math.log(c1) + math.log(2)
    checks.append(
        CheckResult(
            "count-ratio-ceiling",
            c1_sup <= 2 * c1,
            f"count(n) <= {c1_sup:.6f} * beta^n for n <= {n_max}, "
            f"tail value {c1:.6f}",
            {"c1": c1, "c1_sup": c1_sup},
        )
    )

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
    )


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


def _geq_reversed(count: int, power) -> bool:
    """count <= power, exact when power is exact."""
    if isinstance(power, (Fraction, QuadraticNumber)):
        return power >= count
    return math.log(max(count, 1)) <= math.log(float(power)) + 1e-9


def _tail_sums(counts: dict, beta, n_max: int):
    """b_M = sum_{i >= M} counts[i] * beta^-i for 1 <= M <= min(12, n_max - 8),
    in closed form when the counts are eventually periodic, else as partial
    sums to n_max.  The heads sum_{M <= i < end} are read off one running sum
    of the exact terms, from the top down; float terms (a float beta) are
    summed left to right from each M, so each float keeps its bits."""
    power = _power_table(1 / beta)
    period = None
    probe = range(max(1, n_max - 12), n_max + 1)
    for q in range(1, 7):
        if all(
            counts[i] == counts[i + q] for i in probe if i + q <= n_max
        ):
            period = q
            break
    m_top = min(12, n_max - 8)
    # the heads end at n_max, or where the closed form's periodic tail starts
    end = n_max + 1 if period is None else max(1, n_max - 12)
    terms = {i: counts[i] * power(i) for i in range(1, end)}
    if isinstance(beta, float):
        heads = {m: sum(terms[i] for i in range(m, end)) for m in range(1, m_top + 1)}
    else:
        heads = dict(zip(reversed(terms), accumulate(reversed(terms.values()))))
    if period is None:
        # no periodic tail: report partial sums; summable only if terms vanish
        vanishing = float(terms[n_max]) < 0.5 * float(terms[max(1, n_max // 2)]) and (
            float(terms[n_max]) < 1e-3
        )
        tails = {m: float(heads[m]) for m in range(1, m_top + 1)}
        note = (
            "no periodic boundary tail detected; partial sums only"
            if vanishing
            else "boundary terms do not vanish; tail is not summable"
        )
        return tails, vanishing, note
    geom = 1 / (1 - power(period))

    def tail_from(start):  # the terms from start on: a geometric series
        return sum(counts[start + r] * power(start + r) for r in range(period)) * geom

    tail = tail_from(end)
    tails = {m: heads[m] + tail if m < end else tail_from(m) for m in range(1, m_top + 1)}
    decreasing = all(
        float(tails[m + 1]) < float(tails[m]) + 1e-15 for m in range(1, m_top)
    )
    return (
        tails,
        decreasing,
        f"closed-form tails with eventual period {period}, decreasing to 0",
    )


# -- cylinder-mass floors -----------------------------------------------------------


class GibbsReport:
    """Minimum of mass * growth^n over a word class, with violations."""

    def __init__(self, word_class: str, depth_offset: int, constant: float,
                 constant_exact: object, argmin: tuple, per_length_min: dict,
                 violations: tuple, precondition_met: bool = True):
        self.word_class = word_class
        self.depth_offset = depth_offset
        self.constant = constant
        self.constant_exact = constant_exact
        self.argmin = argmin
        self.per_length_min = per_length_min
        self.violations = violations
        self.precondition_met = precondition_met

    def __eq__(self, other):
        return type(other) is type(self) and vars(other) == vars(self)

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
) -> GibbsReport:
    """Floor for cylinder masses over level-M words: min mass([v]) * beta^n.

    Masses of all depth-(n + j) extensions of level-M words are scaled by
    beta^n; the report carries the minimum, the word attaining it (the
    least one, on ties), per-length minima, and any words of zero mass
    (violations).

    No word is listed: the length-n words are grouped by (level state,
    mass class) along the scheme's level automaton, each group with its
    least word, the level test is applied at length n and the groups are
    extended j more symbols.  The minimum is then taken over the classes,
    visited in the order of their least words; only the classes that can
    tie the least weight's value are rounded (`_above_least`), and only
    the words of a zero-mass class are listed.
    """
    beta = _exact_beta(system)
    per_length = {}
    best = None
    violations = []
    minima = _level_minima(measure, system, scheme, M, n_range, j, beta)
    for n, level_min, zero in minima:
        violations.extend(zero)
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
    )


def _level_minima(measure, system, scheme, M, n_range, j, beta):
    """(n, (least scaled mass, its word) or None, zero-mass words) per n,
    from (level state, class) groups of words; see `gibbs_check`."""
    classes = measure.classes
    start, level_moves, member = scheme.level_automaton(M)
    group_moves: dict = {}

    def moves(group):
        """(symbol, group after it): a word leaves the table (class None)
        on a symbol its class has no child for."""
        if group not in group_moves:
            state, k = group
            kids = {} if k is None else classes.children[k]
            group_moves[group] = [
                (a, (after, kids.get(a))) for a, after in level_moves(state)
            ]
        return group_moves[group]

    layers = [{(start, classes.root): (1, ())}]
    for n in n_range:
        check_enumeration_cap(n, system.enumeration_cap)
        while len(layers) <= n:
            layers.append(extend(layers[-1], moves))
        level = {g: e for g, e in layers[n].items() if member(g[0], n)}
        for _ in range(j):
            level = extend(level, moves)
        least: dict = {}  # class -> least word of the level extensions in it
        for (_, k), (_, w) in level.items():
            least.setdefault(k, w)  # the groups come in least-word order
        if least and n + j > measure.depth:
            raise DepthError(
                f"cylinder depth {n + j} exceeds measure depth {measure.depth}"
            )
        scale = beta ** n
        if not measure.exact:
            # every mass is a float or 0, so `_scale_mass` would take the
            # float of the scale for each class
            scale = float(scale)
        skip = _above_least(classes, least, n + j, scale)
        level_min = None
        zero = set()
        for k, w in least.items():
            if k not in skip:
                value = _scale_mass(classes.mass(k, n + j), scale)
                if float(value) <= 0:
                    zero.add(k)
                elif level_min is None or value < level_min[0]:
                    level_min = (value, w)
        words = []
        if zero:
            pres = system.presentation
            words = [
                v + ext
                for v in scheme.level_words(M, n)
                for ext in pres.tails(pres.walk(v), j)
                if classes.class_of(v + ext) in zero
            ]
        yield n, level_min, words


def _above_least(classes, least, n, scale) -> set:
    """Classes of `least` whose scaled length-n mass is positive and above
    the least one, told from their weights alone.

    A scaled mass is nondecreasing in the class weight.  An exact value
    ties only an equal weight.  A float value is rounded at most twice
    (the mass, then its product with the scale), each time by at most
    2^-53 of itself, so a weight (1 + 2^-49) times the least has a value
    at least (1 + 2^-49) (1 - 2^-53)^2 / (1 + 2^-53)^2 > 1 times the least.
    None is named unless the least mass and value convert, correctly
    rounded, to positive normal floats (so not for zero, subnormal,
    overflow or quadratic numbers).
    """
    weights = classes.weights
    known = [k for k in least if k is not None]
    if not known or isinstance(weights[known[0]], QuadraticNumber):
        return set()
    positive = [k for k in known if weights[k] > 0]
    if not positive:
        return set()
    first = min(positive, key=weights.__getitem__)
    mass = classes.mass(first, n)
    value = _scale_mass(mass, scale)
    if not (_normal_float(mass) and _normal_float(value)):
        return set()
    # up to (1 + 2^-49) times the least weight can tie a float value
    cut = weights[first] * (2 ** 49 + isinstance(value, float))
    return {k for k in positive if weights[k] * 2 ** 49 > cut}


def _normal_float(x) -> bool:
    """Whether x converts, correctly rounded, to a positive normal float."""
    return (isinstance(x, (float, int, Fraction))
            and sys.float_info.min <= float(x) < math.inf)


def mixing_check(
    measure,
    system,
    scheme,
    M: int,
    pairs,
    q: int,
    tau: int = 0,
) -> GibbsReport:
    """Floor for two-window masses: min mass([u] & shift^-(|u|+q) [v]) * beta^(|u|+|v|).

    The joint mass is the total mass of u . t . v over all length-q middles.
    The estimate is only claimed for q >= 2 * tau; reports for smaller q are
    marked as failing the precondition and are informational.

    Words u of one length and one mass class have equal extension masses,
    so the scaled joint mass is computed once per (length, class of u, v).
    """
    beta = _exact_beta(system)
    in_level = functools.cache(lambda w: scheme.in_level(w, M))
    scaled: dict = {}  # (len(u), class of u, v) -> scaled joint mass
    best = None
    violations = []

    def scaled_joint(u, v):
        return _scale_mass(measure.joint_mass(u, q, v), beta ** (len(u) + len(v)))

    for u, v in pairs:
        if not (in_level(u) and in_level(v)):
            raise InputError("pair words must lie in the requested level")
        k = measure.classes.class_of(u)
        if k is None:
            value = scaled_joint(u, v)
        else:
            key = (len(u), k, v)
            if key not in scaled:
                scaled[key] = scaled_joint(u, v)
            value = scaled[key]
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
        precondition_met=q >= 2 * tau,
    )


def positive_mass_count(measure, gamma, n: int) -> int:
    """Minimum number of length-n cylinders whose total mass reaches gamma.

    Greedy accumulation in descending mass order attains the minimum for
    this objective exactly.  It runs over the length-n mass classes,
    largest weight first (the mass is nondecreasing in the weight), each
    taken with its word count, and rounds only the classes it reaches.
    Float masses, and any mass after a float sum, are added one word at a
    time, as a pass over the words adds them (equal floats commute in that
    sum, so the order among classes of one float mass does not matter); a
    layer of more than MAX_TABLE_CYLINDERS words of a measure with float
    masses is refused before any addition.  An exact class is taken whole,
    or up to the least t with acc + t m >= gamma; one of mass m <= 0 is
    taken whole.
    """
    gamma = Fraction(gamma)  # exact, also for a float gamma
    if not 0 < float(gamma) < 1:
        raise InputError("gamma must lie strictly between 0 and 1")
    if n > measure.depth:
        raise DepthError(f"length {n} exceeds measure depth {measure.depth}")
    # g is the float nearest gamma, so a float sum other than g lies on the
    # same side of gamma as of g; only acc == g needs the exact comparison
    g = float(gamma)
    classes = measure.classes
    float_words = 0 if measure.exact else sum(c for c, _ in classes.layers[n].values())
    if float_words > MAX_TABLE_CYLINDERS:
        raise InputError(
            f"positive-mass count over {float_words} float masses at length {n} "
            f"exceeds the cap {MAX_TABLE_CYLINDERS}"
        )
    acc, count = None, 0
    for k, c in classes.runs_descending(n):
        m = classes.mass(k, n)
        if type(m) is float or type(acc) is float:
            for _ in range(c):
                acc = m if acc is None else acc + m
                count += 1
                if acc > g or acc == g and acc >= gamma:
                    return count
            continue
        base = 0 if acc is None else acc
        if m > 0:
            need = -math.floor((base - gamma) / m)  # least t with base + t m >= gamma
            if need <= c:
                return count + need
        acc, count = base + c * m, count + c
    return count


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
                template = overlay(((0, u), (m, v)), max(len(u), m + len(v)))
                if template is not None:
                    total = total + measure.pattern_mass(template)
        running = total if running is None else min(running, total, key=float)
        results[m] = (total, running)
    return results


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
