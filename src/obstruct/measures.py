"""Cylinder measures: the empirical construction and the stationary oracle.

The empirical measure at time n puts uniform mass on one representative
point per admissible n-word (the word followed by zeros, which every
state of a digit-expansion presentation admits) and averages the first n
shift images.  Its cylinder masses are computed exactly from automaton
occurrence counts as rationals with denominator n * |L_n|: one n-term
product sum per (state, state) pair at the deepest length, additions for
every shorter length (extension counts satisfy e_j[t] = sum of e_{j-1}
over the edges out of t), and a closed-form test for pairs the
truncation marker poisons.

The stationary oracle is the Parry (Markov) measure built from Perron
eigendata of the presentation (see `obstruct.perron` for its three paths:
exact, renewal closed form, power iteration): the mass of [u] sums l_s r_t
over the walks s -> t of u, divided by x^|u| sum_s l_s r_s.  With exact
eigendata (rational or quadratic) the masses are exact field elements;
otherwise the POWER_DPS-digit eigendata are taken as fixed-point integers
(each vector scaled by its own binary exponent, so even entries like
x^-300 keep at least 255 significant bits), every sum over walks is
exact, and each mass is rounded to a float once.
A truncated system's provenance states the eigen-residual and, when beta
is exact, the gap beta - x to the true beta-shift.

A measure indexes its cylinder table by length once (sorted words,
shared with the table), so per-length queries read a slice of the index
instead of scanning and sorting the table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter, mul

import mpmath

from .errors import DepthError, EnumerationCapError, InputError, NonMixingError
from .perron import POWER_DPS, perron_eigendata
from .quadratic import QuadraticNumber
from .words import Word, format_word, parse_word

# largest n for empirical_mme: it lists every count and extension row up
# to n and takes one n-term product sum per deepest-length pair (shorter
# lengths add; poisoned pairs are found by a closed-form test before any sum)
MAX_EMPIRICAL_N = 10_000
# significant bits kept of the fixed-point Parry eigendata
FIXED_BITS = 256


@dataclass
class CylinderMeasure:
    """Masses of every admissible cylinder up to a fixed depth."""

    alphabet_size: int
    depth: int
    table: dict
    provenance: str
    exact: bool
    meta: dict = field(default_factory=dict)
    # length -> the table's words of that length, sorted; built once
    _by_length: dict = field(init=False, repr=False, compare=False)
    # length -> that length's masses, largest first; filled on first use
    _descending: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        by_length: dict[int, list] = {}
        for w in self.table:
            by_length.setdefault(len(w), []).append(w)
        for words in by_length.values():
            words.sort()
        self._by_length = by_length
        self._descending = {}

    def mass(self, u: Word):
        """Exact-or-float mass of [u]; inadmissible and unseen words get 0."""
        u = tuple(u)
        if len(u) > self.depth:
            raise DepthError(
                f"cylinder depth {len(u)} exceeds measure depth {self.depth}"
            )
        return self.table.get(u, 0)

    def mass_float(self, u: Word) -> float:
        return float(self.mass(u))

    def words_at(self, length: int) -> list[Word]:
        if length > self.depth:
            raise DepthError(
                f"length {length} exceeds measure depth {self.depth}"
            )
        return list(self._by_length.get(length, ()))

    def masses_descending(self, length: int) -> list:
        """Masses of the length-cylinders, largest first, ties in word order."""
        if length not in self._descending:
            self._descending[length] = sorted(
                (self.table[w] for w in self.words_at(length)),
                key=float,
                reverse=True,
            )
        return self._descending[length]

    def pattern_mass(self, template):
        """Total mass of words matching a fixed/free position template.

        Only the fixed positions are compared, and the matching masses are
        added in sorted word order.
        """
        if len(template) > self.depth:
            raise DepthError(
                f"pattern length {len(template)} exceeds measure depth {self.depth}"
            )
        words = self._by_length.get(len(template), ())
        fixed = [i for i, a in enumerate(template) if a is not None]
        if fixed:
            key = itemgetter(*fixed)
            want = key(template)
            words = [w for w in words if key(w) == want]
        total = 0
        for w in words:
            total = total + self.table[w]
        return total

    def joint_mass(self, u: Word, gap: int, v: Word):
        """Mass of [u] intersected with the gap-shifted cylinder of v."""
        return self.pattern_mass(tuple(u) + (None,) * gap + tuple(v))

    # -- serialization ---------------------------------------------------------

    def to_json_dict(self) -> dict:
        entries = []
        for w in sorted(self.table, key=lambda w: (len(w), w)):
            m = self.table[w]
            entry = {"word": format_word(w, self.alphabet_size)}
            if isinstance(m, (int, Fraction)):
                f = Fraction(m)
                entry["mass_num"] = str(f.numerator)
                entry["mass_den"] = str(f.denominator)
            else:
                entry["mass_float"] = f"{float(m):.17g}"
            entries.append(entry)
        return {
            "depth": self.depth,
            "alphabet_size": self.alphabet_size,
            "provenance": self.provenance,
            "entries": entries,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "CylinderMeasure":
        try:
            depth = int(data["depth"])
            alphabet = int(data.get("alphabet_size", 10))
            provenance = str(data["provenance"])
            entries = data["entries"]
            table = {}
            exact = True
            for entry in entries:
                w = parse_word(str(entry["word"]), alphabet)
                if "mass_num" in entry:
                    table[w] = Fraction(int(entry["mass_num"]), int(entry["mass_den"]))
                else:
                    table[w] = float(entry["mass_float"])
                    exact = False
            if () not in table:
                raise KeyError("entries")
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed measure file: {exc}") from exc
        return cls(
            alphabet_size=alphabet,
            depth=depth,
            table=table,
            provenance=provenance,
            exact=exact,
        )


def _verify_representative_tails(system) -> dict:
    """Check every live state the start reaches extends; return a lex-min
    tail cache.

    Only those states carry representative points.  On digit-expansion
    presentations the least continuation from any state is the zero tail,
    so representatives are word + 0^infinity there.
    """
    pres = system.presentation
    cache: dict = {}
    reached = {pres.start}
    stack = [pres.start]
    while stack:
        for t in pres.delta[stack.pop()].values():
            if t not in reached:
                reached.add(t)
                stack.append(t)
    for s in sorted(reached):
        if s == pres.marker:
            continue
        if pres.lex_min_tail(s, 1) is None:
            raise InputError(
                f"state {s} admits no continuation; representative points undefined"
            )
    return cache


def _tail_prefix(pres, cache, state, length):
    key = (state, length)
    if key not in cache:
        cache[key] = pres.lex_min_tail(state, length)
    return cache[key]


def empirical_mme(system, n: int, depth: int) -> CylinderMeasure:
    """Time-n empirical measure with exact rational cylinder masses.

    Representative points are word + least admissible tail (the zero tail
    on digit-expansion systems; verified to exist).  The mass of [u] is
    (1/n) sum over shifts k < n of the fraction of length-n words whose
    representative lies in the k-fold shift preimage of [u]; window
    positions past n read the representative tail exactly, and a tail the
    truncation marker leaves undecided raises HorizonError.

    A full window (k + |u| <= n) contributes state_counts(k)[s] *
    extensions(n - k - |u|)[t] for each state s whose walk of u ends at t.
    The window sums W(l, s, t) = sum_k state_counts(k)[s] * extensions(n - k -
    l)[t] are shared by every word of length l.  extensions(j)[t] sums
    extensions(j - 1) over the edges t -> t', so W(l, s, t) is the sum of
    W(l + 1, s, t') over those edges, plus state_counts(n - l)[s] when
    l >= 1.  Only a pair at the deepest length therefore takes a product
    sum (one C-level sum over s's count column and t's reversed extension
    column); a shorter length costs additions.  extensions(j)[t] is None
    (poisoned by the truncation marker) exactly for j >= p_t = 1 + the
    distance from t to the marker, so a pair is poisoned iff its longest
    continuation, n - l - first[s], is: that one lookup, made when the pair
    is first needed and before any sum, raises the HorizonError the
    per-shift sum raised.  A word costs one walk from each state plus its
    at most depth - 1 tail windows.  n above MAX_EMPIRICAL_N is refused
    before any counting.
    """
    if depth > n:
        raise InputError("measure depth cannot exceed n")
    if n < 1:
        raise InputError("n must be >= 1")
    if n > MAX_EMPIRICAL_N:
        raise InputError(f"empirical n {n} exceeds the cap {MAX_EMPIRICAL_N}")
    tails = _verify_representative_tails(system)
    pres = system.presentation
    # rows in increasing order, each counted once; |L_n| is the last one
    state_counts = [pres.state_counts(k) for k in range(n + 1)]
    denom = n * sum(state_counts[n])
    # first shift at which each state is reached (n + 1: never)
    first = [
        next((k for k in range(n + 1) if state_counts[k][s]), n + 1)
        for s in range(pres.n_states)
    ]
    successors = [list(pres.delta[t].values()) for t in range(pres.n_states)]
    # pairs at the deepest length read j = deep - k for k <= deep_last; the
    # poison tests read rows up to n
    deep = n - depth
    deep_last = min(deep, n - 1)
    ext_rows = [pres.extension_counts(j) for j in range(n + 1)]
    # columns of the states some deepest pair uses, built on first use
    count_columns: dict[int, list[int]] = {}
    ext_columns: dict[int, list] = {}
    window_sums: dict[tuple[int, int, int], int] = {}

    def deepest_sum(s, t):
        lo = first[s]
        if lo > deep_last:
            return 0
        if s not in count_columns:
            count_columns[s] = [row[s] for row in state_counts]
        if t not in ext_columns:
            ext_columns[t] = [row[t] for row in ext_rows]
        # the pair passed the poison test, so no entry read is None
        return sum(map(
            mul,
            count_columns[s][lo:deep_last + 1],
            reversed(ext_columns[t][deep - deep_last:deep - lo + 1]),
        ))

    def window(length, s, t):
        """W(length, s, t), filling the deeper sums it needs first."""
        stack = [(length, t)]
        while stack:
            ell, x = stack[-1]
            if (ell, s, x) in window_sums:
                stack.pop()
            elif ell == depth:
                window_sums[ell, s, x] = deepest_sum(s, x)
                stack.pop()
            else:
                todo = [(ell + 1, y) for y in successors[x]
                        if (ell + 1, s, y) not in window_sums]
                if todo:
                    stack.extend(todo)
                    continue
                stack.pop()
                w = sum(window_sums[ell + 1, s, y] for y in successors[x])
                window_sums[ell, s, x] = w + state_counts[n - ell][s] if ell else w
        return window_sums[length, s, t]

    table: dict[Word, Fraction] = {}
    for length in range(depth + 1):
        last_full = min(n - length, n - 1)
        starts = [s for s in range(pres.n_states) if first[s] <= last_full]
        for u in system.enumerate_language(length, cap=None):
            acc = 0
            for s in starts:
                t = pres.walk(u, state=s)
                if t is None:
                    continue
                if (length, s, t) not in window_sums:
                    # poison test: raises iff the pair's longest
                    # continuation is None
                    longest = n - length - first[s]
                    if ext_rows[longest][t] is None:
                        pres.extensions_from(t, longest)
                    window(length, s, t)
                acc += window_sums[length, s, t]
            for k in range(n - length + 1, n):
                head = n - k
                for s, c in enumerate(state_counts[k]):
                    if not c:
                        continue
                    t = pres.walk(u[:head], state=s)
                    if t is None:
                        continue
                    if u[head:] == _tail_prefix(pres, tails, t, length - head):
                        acc += c
            table[u] = Fraction(acc, denom)
    return CylinderMeasure(
        alphabet_size=system.alphabet_size,
        depth=depth,
        table=table,
        provenance=f"empirical({n})",
        exact=True,
        meta={"n": n},
    )


def parry_measure(system, depth: int) -> CylinderMeasure:
    """Stationary Markov measure from Perron eigendata of the presentation.

    With eigenvalue x, right/left vectors r, l on the essential part and
    v_u[t] = sum of l_s over the states s whose walk of u ends at t, the mass
    of [u] is sum_t v_u[t] r_t / (x^|u| sum_s l_s r_s).  One depth-first pass
    over the word tree, in lexicographic order, computes every cylinder; the
    vectors of the children of [u] follow from v_u alone, so each distinct
    vector's children, and its mass at each length, are computed once.
    Exact field arithmetic when the eigenvalue is rational or quadratic.
    Otherwise l and r are taken as integers L = l 2^(256 - e_l),
    R = r 2^(256 - e_r), with e_l, e_r the least binary exponents of their
    entries, and each scale 1 / (x^n sum_s l_s r_s) as S_n 2^(e_n - 256)
    (all to the nearest integer from the POWER_DPS-digit eigendata), so
    every entry keeps at least 255 significant bits however small; V and the
    sum over t are then exact integers, and the float mass is
    (sum_t V_u[t] R_t) S_n 2^(e_n + e_l + e_r - 768), rounded once.
    Refuses non-primitive presentations, and raises where enumerating the
    language up to `depth` would.
    """
    pres = system.presentation
    if not pres.is_primitive():
        raise NonMixingError(
            "presentation is not primitive; no stationary construction"
        )
    # fail as enumerating L_0..L_depth would: HorizonError when a shorter
    # path meets the truncation marker, else EnumerationCapError past the cap
    cap = system.enumeration_cap
    pres.state_counts(min(depth, cap))
    if depth > cap:
        raise EnumerationCapError(
            f"measure depth {depth} exceeds enumeration cap {cap}"
        )
    live = pres.essential_part()
    eigen = perron_eigendata(live, cache=system.perron_cache)
    lam = eigen.eigenvalue
    with mpmath.workdps(POWER_DPS):
        scale = [1 / sum(l * r for l, r in zip(eigen.left, eigen.right))]
        for _ in range(depth):
            scale.append(scale[-1] / lam)
        if eigen.exact:
            left, right = eigen.left, eigen.right

            def finish(acc, n):
                return acc * scale[n]
        else:
            # each vector and each scale is scaled by its own binary
            # exponent, so its smallest entry keeps FIXED_BITS - 1
            # significant bits however small (r_1 ~ x^-(z+1) after a run
            # of z zeros)
            e_left = _min_exponent(eigen.left)
            e_right = _min_exponent(eigen.right)
            left = [_to_fixed(x, -e_left) for x in eigen.left]
            right = [_to_fixed(x, -e_right) for x in eigen.right]
            exponents = [_min_exponent([x]) for x in scale]
            fixed_scale = [_to_fixed(x, -e) for x, e in zip(scale, exponents)]
            # sum_s l_s r_s >= 2^(e_left + e_right - 2) and x > 1, so
            # e + e_left + e_right <= 3 and every shift is positive
            shifts = [
                1 << (3 * FIXED_BITS - e - e_left - e_right) for e in exponents
            ]

            def finish(acc, n):
                return acc * fixed_scale[n] / shifts[n]
        # few distinct vectors occur (31 over the 110 407 cylinders of
        # `21001 period=5` at depth 12); each is numbered once
        vectors: list[dict] = []
        numbers: dict[tuple, int] = {}

        def number(v):
            key = tuple(sorted(v.items()))
            if key not in numbers:
                numbers[key] = len(vectors)
                vectors.append(v)
            return numbers[key]

        masses: dict[tuple[int, int], object] = {}
        children: dict[int, list] = {}
        table = {}
        stack = [((), number(dict(enumerate(left))))]
        while stack:
            u, k = stack.pop()
            n = len(u)
            if (k, n) not in masses:
                v = vectors[k]
                masses[k, n] = finish(sum(w * right[t] for t, w in v.items()), n)
            table[u] = masses[k, n]
            if n == depth:
                continue
            if k not in children:
                step: dict[int, dict] = {}
                for s, w in vectors[k].items():
                    for a, t in live.delta[s].items():
                        child = step.setdefault(a, {})
                        child[t] = child[t] + w if t in child else w
                # largest symbol first, so words leave the stack in
                # lexicographic order and the per-length index finds them sorted
                children[k] = [
                    (a, number(step[a])) for a in sorted(step, reverse=True)
                ]
            stack.extend((u + (a,), c) for a, c in children[k])
        if system.horizon is None:
            provenance = "parry-exact" if eigen.exact else "parry-numeric"
        else:
            provenance = (
                f"parry-truncated(horizon={system.horizon}, "
                f"residual={eigen.residual:.3g}{_beta_gap(system, lam)})"
            )
    return CylinderMeasure(
        alphabet_size=system.alphabet_size,
        depth=depth,
        table=table,
        provenance=provenance,
        exact=eigen.exact,
        meta={
            "eigenvalue": float(lam),
            "residual": eigen.residual,
            "exact_eigendata": eigen.exact,
        },
    )


def _min_exponent(values) -> int:
    """Least binary exponent e (x = m 2^e, 1/2 <= |m| < 1) of the values."""
    return min(int(mpmath.frexp(x)[1]) for x in values)


def _to_fixed(x, exponent: int) -> int:
    """x * 2^(FIXED_BITS + exponent), rounded to the nearest integer."""
    return int(mpmath.nint(mpmath.ldexp(x, FIXED_BITS + exponent)))


def _beta_gap(system, lam) -> str:
    """`, beta_gap=...` (beta - lam) when the system carries an exact beta."""
    beta = getattr(getattr(system, "expansion", None), "beta", None)
    if not isinstance(beta, (int, Fraction, QuadraticNumber)):
        return ""
    return f", beta_gap={float(_to_mpf(beta) - _to_mpf(lam)):.3g}"


def _to_mpf(x):
    if isinstance(x, QuadraticNumber):
        return _to_mpf(x.a) + _to_mpf(x.b) * mpmath.sqrt(x.D)
    if isinstance(x, Fraction):
        return mpmath.mpf(x.numerator) / x.denominator
    return mpmath.mpf(x)


def measure_entropy_rate(measure: CylinderMeasure, length: int) -> float:
    """(1/length) * sum of -m log m over length-cylinders."""
    total = 0.0
    for w in measure.words_at(length):
        m = float(measure.table[w])
        if m > 0:
            total -= m * math.log(m)
    return total / length


def max_depth_gap(a: CylinderMeasure, b: CylinderMeasure, length: int) -> float:
    """Largest absolute mass difference over cylinders of the given length."""
    words = set(a.words_at(length)) | set(b.words_at(length))
    return max(abs(a.mass_float(w) - b.mass_float(w)) for w in words)
