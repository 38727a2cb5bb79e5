"""Independent reference implementations used to validate library output.

Everything here is deliberately brute force: literal subset scans,
explicit monomial enumeration, exhaustive merge-order search.  The test
modules compare library results against these on golden cases and on
seeded random data.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import gcd

from wcikit import (
    CheckResult,
    FormalBasket,
    InvalidCandidate,
    Orbifold,
    ScreenReport,
    canonical,
    canonical_unpacking,
    check_codim_bound,
    check_cy_product,
    check_degree_weight_order,
    check_gcd_counts,
    check_weight_degree_divisibility,
    deltas,
    descendants,
    high_index_count_bounds,
    initial_basket,
    is_linear_cone,
    is_prime_packing,
    k3,
    normalize,
    pluri_growth_filter,
)
from wcikit.baskets import _unpacked


def mul_into_oracle(c, k):
    """Multiply c by (1 - t^k) in place, one coefficient at a time, top down."""
    for m in range(len(c) - 1, k - 1, -1):
        c[m] -= c[m - k]


def div_into_oracle(c, k):
    """Divide c by (1 - t^k) in place, one coefficient at a time, bottom up."""
    for m in range(k, len(c)):
        c[m] += c[m - k]


def clears_denominator_oracle(weights, degrees, poles, num):
    """Whether D prod(1 - t^d) / prod(1 - t^a) is a polynomial, deg <= num.

    D = (1 - t)^4 prod(1 - t^r) over the poles r.  Multiplies 1 by
    every factor of the numerator, then divides the series by each
    (1 - t^a), to the numerator's degree top.  The quotient is a
    polynomial of degree q = top - sum(a) exactly when its coefficients
    q + 1..top vanish: the series then agrees with a polynomial of
    degree q to t^top, and that polynomial times prod(1 - t^a) has
    degree at most top, so it is the numerator.
    """
    top = 4 + sum(poles) + sum(degrees)
    q = top - sum(weights)
    if q < 0:
        return False
    c = [1] + [0] * top
    for k in [1] * 4 + list(poles) + list(degrees):
        mul_into_oracle(c, k)
    for a in weights:
        div_into_oracle(c, a)
    return q <= num and not any(c[q + 1:])


def poincare_oracle(weights, degrees, bound):
    """Series coefficients by counting exponent vectors, one at a time.

    Multiplies the raw monomial count series by each (1 - t^d) via
    inclusion-exclusion over degree subsets.  Exponential in the input
    size; use small cases only.
    """
    counts = [0] * (bound + 1)

    def rec(i: int, deg: int) -> None:
        if i == len(weights):
            counts[deg] += 1
            return
        e = 0
        while deg + e * weights[i] <= bound:
            rec(i + 1, deg + e * weights[i])
            e += 1

    rec(0, 0)
    out = [0] * (bound + 1)
    for k in range(len(degrees) + 1):
        for subset in combinations(degrees, k):
            s = sum(subset)
            sign = -1 if k % 2 else 1
            for m in range(s, bound + 1):
                out[m] += sign * counts[m - s]
    return out


# A count tuple is a pair (mu, nu): mu[i] counts the weights of value
# i + 1, nu[i] the degrees of value i + 2, up to the horizon len(mu).

def weight_values(t) -> list[int]:
    """The counted weights of the count tuple t, in increasing order."""
    return [v for v, n in enumerate(t[0], start=1) for _ in range(n)]


def degree_values(t) -> list[int]:
    """The counted degrees of the count tuple t, in increasing order."""
    return [v for v, n in enumerate(t[1], start=2) for _ in range(n)]


def tuple_of_candidate(c, horizon):
    """The count tuple of a candidate's weights and degrees up to horizon."""
    return (tuple(c.weights.count(v) for v in range(1, horizon + 1)),
            tuple(c.degrees.count(v) for v in range(2, horizon + 1)))


def low_series_oracle(t) -> tuple[int, ...]:
    """c_0..c_h of a count tuple by the plain loops, one factor at a time."""
    c = [1] + [0] * len(t[0])
    for d in degree_values(t):
        mul_into_oracle(c, d)
    for a in weight_values(t):
        div_into_oracle(c, a)
    return tuple(c)


def chi_data_oracle(t, alpha):
    """(chi, chi_2, c_0..c_h) of a count tuple, off low_series_oracle.

    +1: c_1 = p_g = 1 - chi and c_2 = chi_2; -1: chi = 1 and
    c_1 = -chi_2.
    """
    p = low_series_oracle(t)
    return (1 - p[1], p[2], p) if alpha == 1 else (1, -p[1], p)


def iter_tuples_oracle(alpha):
    """Count tuples by the literal product scan and per-pair filters."""
    h = {-1: 5, 1: 6}[alpha]
    mu_cap, nu_cap = {-1: (7, 3), 1: (9, 5)}[alpha]
    nus = [n for n in product(range(nu_cap + 1), repeat=h - 1)
           if sum(n) <= nu_cap]
    for mu in product(range(mu_cap + 1), repeat=h):
        if sum(mu) > mu_cap:
            continue
        for nu in nus:
            if any(mu[i + 1] and nu[i] for i in range(h - 1)):
                continue
            if alpha == 1 and any(nu):
                if any(sum(nu[:s - 1]) > sum(mu[:s]) + 4 for s in range(2, 7)):
                    continue
            yield mu, nu


def fano_r_multisets_oracle(s, budget):
    """Index multisets r >= 5 with c_2 load sum(r - 1/r) within budget."""
    acc = []

    def rec(start, left, load):
        if left == 0:
            yield tuple(acc)
            return
        for r in range(start, 25):
            floor = load + left * (r - Fraction(1, r))
            if floor > budget:
                break
            acc.append(r)
            yield from rec(r, left - 1, load + r - Fraction(1, r))
            acc.pop()

    yield from rec(5, s, Fraction(0))


def gt_r_multisets_oracle(s, cap, headroom):
    """Index multisets r in [5, cap] spending 1/4 - 1/r each below headroom."""
    acc = []

    def rec(start, left, spent):
        if left == 0:
            yield tuple(acc)
            return
        for r in range(start, cap + 1):
            floor = spent + left * (Fraction(1, 4) - Fraction(1, r))
            if floor >= headroom:
                break
            acc.append(r)
            yield from rec(r, left - 1, spent + Fraction(1, 4) - Fraction(1, r))
            acc.pop()

    yield from rec(5, s, Fraction(0))


def tuple_baskets_oracle(t, alpha):
    """The sweep's front end for one count tuple, built from objects.

    Returns (hits, violations, pruned label or None), each hit the
    (b, r) of its basket's points with its case label, as
    classify._tuple_baskets gives them.  The gcd counts scan the
    counted values; the chi data comes off low_series_oracle; the
    roots are Orbifold lists made canonical, each reading descendants()
    with Fraction multiset bounds.
    """
    codim_max = {-1: 3, 1: 5}[alpha]
    mu, nu = t
    ws, ds = weight_values(t), degree_values(t)
    for h in range(2, len(mu) + 1):
        w = sum(1 for a in ws if a % h == 0)
        d = sum(1 for e in ds if e % h == 0)
        if w > codim_max + 1 or d + codim_max - len(ds) < w - 1:
            return [], [], "isolated_gcd_counts"
    p = low_series_oracle(t)
    if alpha == 1:
        pg, chi, chis = p[1], 1 - p[1], {m: p[m] for m in range(2, 7)}
    else:
        pg, chi, chis = 0, 1, {m: -p[m - 1] for m in range(2, 7)}
    if min(p) < 0:
        return [], [], "negative_sections"
    n12, n13, n14_plus, _ = _unpacked(chi, chis)
    if min(n12, n13, n14_plus) < 0:
        return [], [], "negative_unpacked_counts"
    lo, hi = high_index_count_bounds(chi, chis)
    if lo > hi:
        return [], [], "empty_sigma5_range"
    if alpha == 1:
        if not pluri_growth_filter({m: p[m] for m in range(1, 7)}, pg):
            return [], [], "pluri_growth"
        if Fraction(1 - pg - p[2] - p[3] + p[5], 12) <= Fraction(lo, 20):
            return [], [], "volume"

    chi2, targets = chis[2], {m: chis[m] for m in (3, 4, 5, 6)}
    violations, found = [], []
    ones = [Orbifold(1, 2)] * n12 + [Orbifold(1, 3)] * n13
    if alpha == 1:
        vol = k3(FormalBasket(canonical(
            ones + [Orbifold(1, 4)] * n14_plus), chi, chi2))
        ambient_capped = sum(mu) >= 5 or any(nu)
    for s in range(lo, hi + 1):
        base = ones + [Orbifold(1, 4)] * (n14_plus - s)
        if alpha == -1:
            load = c2_load_oracle(base)
            if load > 24:
                continue
            multisets = fano_r_multisets_oracle(s, 24 - load)
            case, prune = ("c2-capped" if s else "sigma5-zero"), "c2"
        elif s == 0:
            multisets, case, prune = [()], "sigma5-zero", "volume"
        else:
            beta = Fraction(1, 4) - vol + Fraction(s - 1, 20)
            caps = [31] if ambient_capped else []
            if beta > 0:
                caps.append(-(-1 // beta) - 1)  # largest r, r * beta < 1
            if not caps:
                violations.append(f"tuple mu={mu} nu={nu}: no index "
                                  f"cap for sigma5={s}")
                continue
            multisets = gt_r_multisets_oracle(s, min(caps), vol)
            case = "ambient-capped" if ambient_capped else "volume-capped"
            prune = "volume"
        for rs in multisets:
            b0 = canonical(base + [Orbifold(1, r) for r in rs])
            found.extend((tuple((q.b, q.r) for q in fb.basket), case)
                         for fb in descendants(b0, chi, chi2, targets,
                                               prune=prune))
    found.sort(key=lambda hit: hit[0])
    return found, violations, None


def isolated_subsets_ok(weights, degrees, codim) -> bool:
    """Literal subset form of the isolated-singularity screen."""
    for k in range(1, len(weights) + 1):
        for sub in combinations(weights, k):
            g = gcd(*sub) if k > 1 else sub[0]
            if g == 1:
                continue
            if k > codim + 1:
                return False
            if sum(1 for d in degrees if d % g == 0) < k - 1:
                return False
    return True


def terminal_subsets_ok(weights, degrees, codim, alpha) -> bool:
    """Literal subset form of the terminal-singularity screen."""
    idx = range(len(weights))
    for k in range(1, len(weights) + 1):
        for positions in combinations(idx, k):
            g = 0
            for i in positions:
                g = gcd(g, weights[i])
            if g == 1:
                continue
            need = min(k, codim + 1)
            d = sum(1 for dd in degrees if dd % g == 0)
            if d >= need:
                continue
            if d == need - 1:
                if alpha == 0:
                    outside = [weights[i] for i in idx if i not in positions]
                    if any(a % g == 0 for a in outside):
                        continue
                elif any((a + alpha) % g == 0 for a in weights):
                    continue
            return False
    return True


def hypersurface_quasismooth_oracle(weights, d) -> bool:
    """Iano-Fletcher's criterion (Thm 8.1) for a general X_d in P(weights).

    For every nonempty subset I of the variables, either some monomial
    in x_I has degree d, or at least |I| distinct e outside I have a
    monomial x_I^M x_e of degree d.  Brute force: the degrees of the
    monomials in x_I are listed up to d, one subset at a time.
    """
    idx = range(len(weights))
    for k in range(1, len(weights) + 1):
        for sub in combinations(idx, k):
            reach = [True] + [False] * d
            for i in sub:
                for m in range(weights[i], d + 1):
                    reach[m] = reach[m] or reach[m - weights[i]]
            if reach[d]:
                continue
            outside = sum(1 for e in idx if e not in sub
                          and weights[e] <= d and reach[d - weights[e]])
            if outside < k:
                return False
    return True


def wellformed_oracle(weights) -> bool:
    """Every size-n subset of the n+1 weights is coprime."""
    n = len(weights) - 1
    for sub in combinations(weights, n):
        g = 0
        for a in sub:
            g = gcd(g, a)
        if g > 1:
            return False
    return True


def necessary_screen_oracle(c) -> ScreenReport:
    """necessary_screen with each helper reading the candidate itself.

    Well-formedness drops one weight at a time and takes the gcd of the
    rest (quadratic), and degree_ratio_bound sums the ratios d_j/a_{j+dim}
    as Fractions against the cap c + amplitude + dim + 1.
    """
    checks: list[CheckResult] = []
    lc = is_linear_cone(c)
    checks.append(CheckResult(
        "not_linear_cone", not lc,
        None if not lc else
        f"shared value {min(set(c.weights) & set(c.degrees))}"))
    w = c.weights
    wellformed = True
    for i in range(len(w)):
        g = 0
        for j, a in enumerate(w):
            if j != i:
                g = gcd(g, a)
        if g > 1:
            wellformed = False
            break
    checks.append(CheckResult("well_formed_space", wellformed))
    order_ok = check_degree_weight_order(c)
    checks.append(CheckResult(
        "degrees_dominate", order_ok,
        None if order_ok else f"deltas {deltas(c)}"))
    checks.append(CheckResult("codim_bound", check_codim_bound(c)))
    checks.extend(check_weight_degree_divisibility(c))
    if c.dim == 3:
        checks.extend(check_gcd_counts(c))
        if c.amplitude == 0:
            checks.append(CheckResult("product_divides", check_cy_product(c)))
    if c.amplitude >= 0 and order_ok:
        dim, cc = c.dim, c.codim
        total = sum(Fraction(d, a)
                    for d, a in zip(c.degrees, c.weights[dim + 1:]))
        checks.append(CheckResult("degree_ratio_bound",
                                  total <= cc + c.amplitude + dim + 1))
    return ScreenReport(c, tuple(checks))


@lru_cache(maxsize=None)
def rr_correction(q: Orbifold, m: int) -> Fraction:
    """Riemann-Roch local term: sum_{j<m} jb(r - jb)/(2r) with jb taken mod r."""
    if q.r == 1:
        return Fraction(0)
    total = 0
    rho = 0
    for _ in range(1, m):
        rho = (rho + q.b) % q.r
        total += rho * (q.r - rho)
    return Fraction(total, 2 * q.r)


def local_correction(fb: FormalBasket, m: int) -> Fraction:
    """l(m): the basket's local terms summed point by point."""
    return sum((rr_correction(q, m) for q in fb.basket), Fraction(0))


@lru_cache(maxsize=None)
def k3_oracle(fb: FormalBasket) -> Fraction:
    """K^3 = 2(chi_2 + 3 chi - l(2)) in rational arithmetic."""
    return 2 * (fb.chi2 + 3 * fb.chi - local_correction(fb, 2))


def chi_m_oracle(fb: FormalBasket, m: int) -> Fraction:
    """chi_m = (2m-1)m(m-1)/12 K^3 - (2m-1) chi + l(m), m >= 1."""
    poly = Fraction((2 * m - 1) * m * (m - 1), 12)
    return poly * k3_oracle(fb) - (2 * m - 1) * fb.chi + local_correction(fb, m)


def merge_orbifolds(p: Orbifold, q: Orbifold) -> Orbifold | None:
    """Componentwise sum, or None when the sum leaves the normalized range."""
    b, r = p.b + q.b, p.r + q.r
    if b < 1 or 2 * b > r or gcd(b, r) != 1:
        return None
    return Orbifold(b, r)


def pack(basket, i: int, j: int):
    """Merge the points at positions i and j; None when the merge is invalid."""
    if i == j:
        raise ValueError("pack needs two distinct positions")
    merged = merge_orbifolds(basket[i], basket[j])
    if merged is None:
        return None
    rest = [q for k, q in enumerate(basket) if k not in (i, j)]
    rest.append(merged)
    return canonical(rest)


def count_five_packings(chi: int, chis, sigma5: int) -> int:
    """Number of index-five merges in the canonical sequence, given sigma5.

    sigma5 is the number of unpacked points with r >= 5; chis needs
    m = 3, 5, 6.  The formula five_merge_counts checks merge by merge.
    """
    return 2 * chi - chis[3] + 2 * chis[5] - chis[6] - sigma5


def descendants_oracle(b0, chi, chi2, targets, cut=None) -> list[FormalBasket]:
    """descendants() by literal breadth-first search over pack().

    cut, a callable on baskets, drops each basket it is true on and
    everything reached only through one.  Returns the kept baskets whose
    chi_m_oracle equals targets[m] for every listed m, sorted.
    """
    root = canonical(b0)
    seen = {root}
    frontier = [] if cut is not None and cut(root) else [root]
    kept = list(frontier)
    while frontier:
        nxt = []
        for basket in frontier:
            for i, j in combinations(range(len(basket)), 2):
                child = pack(basket, i, j)
                if child is None or child in seen:
                    continue
                seen.add(child)
                if cut is None or not cut(child):
                    nxt.append(child)
        kept += nxt
        frontier = nxt
    hits = [FormalBasket(b, chi, chi2) for b in kept]
    return sorted((fb for fb in hits
                   if all(chi_m_oracle(fb, m) == v for m, v in targets.items())),
                  key=lambda fb: fb.basket)


def fiber_oracle(b0, chi, chi2, targets, cut=None) -> list[FormalBasket]:
    """descendants_oracle kept to the baskets whose initial_basket is b0.

    b0 is itself an initial basket (every point (1, r)).  The cut drops
    a basket of the fiber only when every path to it meets one, which
    for a cut monotone under packing means when it holds on the basket.
    """
    root = canonical(b0)
    return [fb for fb in descendants_oracle(b0, chi, chi2, {}, cut)
            if initial_basket(fb.basket) == root
            and all(chi_m_oracle(fb, m) == v for m, v in targets.items())]


def c2_load_oracle(basket) -> Fraction:
    """sum(r - 1/r) over the basket."""
    return sum((q.r - Fraction(1, q.r) for q in basket), Fraction(0))


def table_method_oracle(c: list[int], max_entries: int | None,
                        max_weights: int | None = None,
                        max_degrees: int | None = None
                        ) -> tuple[list[int], list[int], bool]:
    """The table method run in place on the whole coefficient list c.

    Strips each entry from every later coefficient at once.  Returns the
    weights and degrees read off c and whether a cap (on all entries, on
    weights or on degrees) stopped the scan.
    """
    bound = len(c) - 1
    weights: list[int] = []
    degrees: list[int] = []
    m = 1
    while m <= bound:
        cm = c[m]
        if cm == 0:
            m += 1
            continue
        count = abs(cm)
        if max_entries is not None:
            budget = max_entries - len(weights) - len(degrees)
            if count > budget:
                return weights, degrees, True
        side_cap = max_weights if cm > 0 else max_degrees
        if side_cap is not None:
            have = len(weights) if cm > 0 else len(degrees)
            if have + count > side_cap:
                return weights, degrees, True
        if cm > 0:
            weights.extend([m] * count)
            for _ in range(count):
                for i in range(bound, m - 1, -1):
                    c[i] -= c[i - m]
        else:
            degrees.extend([m] * count)
            for _ in range(count):
                for i in range(m, bound + 1):
                    c[i] += c[i - m]
        m += 1
    return weights, degrees, False


def recover_oracle(coeffs, max_entries=None, max_weights=None,
                   max_degrees=None):
    """(weights, degrees, residual_clean, capped) from the in-place loop."""
    c = list(coeffs)
    weights, degrees, capped = table_method_oracle(c, max_entries,
                                                   max_weights, max_degrees)
    top = max(weights + degrees, default=0)
    clean = not capped and not any(c[1:]) and 2 * top <= len(c) - 1
    return tuple(weights), tuple(degrees), clean, capped


_FIVE_MEMO: dict[tuple[int, int], frozenset[int]] = {}


def five_merge_counts(q: Orbifold) -> frozenset[int]:
    """Counts of index <= 5 merges over all canonical reassemblies of q.

    Reassembles q from its canonical unpacking by prime merges performed
    in nondecreasing order of the produced index.  Returns the set of
    achievable counts; a singleton means the count is path independent.
    """
    key = (q.b, q.r)
    if key in _FIVE_MEMO:
        return _FIVE_MEMO[key]

    memo: dict[tuple, frozenset[int]] = {}

    def rec(state: tuple[tuple[int, int], ...], floor: int) -> frozenset[int]:
        if len(state) == 1:
            return frozenset({0})
        mkey = (state, floor)
        if mkey in memo:
            return memo[mkey]
        out: set[int] = set()
        for i in range(len(state)):
            for j in range(i + 1, len(state)):
                p, s = Orbifold(*state[i]), Orbifold(*state[j])
                m = merge_orbifolds(p, s)
                if m is None or not is_prime_packing(p, s) or m.r < floor:
                    continue
                rest = list(state)
                del rest[j]
                del rest[i]
                rest.append((m.b, m.r))
                inc = 1 if m.r <= 5 else 0
                for c in rec(tuple(sorted(rest)), m.r):
                    out.add(c + inc)
        result = frozenset(out)
        memo[mkey] = result
        return result

    pieces = tuple(sorted((p.b, p.r) for p in canonical_unpacking(q)))
    result = rec(pieces, 0)
    _FIVE_MEMO[key] = result
    return result


_REACH_MEMO: dict[tuple[int, int], bool] = {}


def prime_packing_reachable(q: Orbifold) -> bool:
    """True iff q reassembles from its canonical unpacking by prime merges."""
    key = (q.b, q.r)
    if key in _REACH_MEMO:
        return _REACH_MEMO[key]

    target = key
    seen: set[tuple] = set()

    def rec(state: tuple[tuple[int, int], ...]) -> bool:
        if len(state) == 1:
            return state[0] == target
        if state in seen:
            return False
        seen.add(state)
        for i in range(len(state)):
            for j in range(i + 1, len(state)):
                p, s = Orbifold(*state[i]), Orbifold(*state[j])
                m = merge_orbifolds(p, s)
                if m is None or not is_prime_packing(p, s):
                    continue
                rest = list(state)
                del rest[j]
                del rest[i]
                rest.append((m.b, m.r))
                if rec(tuple(sorted(rest))):
                    return True
        return False

    pieces = tuple(sorted((p.b, p.r) for p in canonical_unpacking(q)))
    result = rec(pieces)
    _REACH_MEMO[key] = result
    return result


def random_basket(rng, max_r=12, max_size=5):
    """Uniform-ish random basket of terminal orbifold points."""
    points = []
    for _ in range(rng.randint(0, max_size)):
        r = rng.randint(2, max_r)
        b = rng.choice([b for b in range(1, r // 2 + 1) if gcd(b, r) == 1])
        points.append(Orbifold(b, r))
    return points


def random_presentation(rng, max_weight=10, max_degree=30):
    """Random non-linear-cone (weights, degrees) pair for round trips."""
    n_d = rng.randint(1, 4)
    n_w = rng.randint(n_d + 2, n_d + 6)
    weights = sorted(rng.randint(1, max_weight) for _ in range(n_w))
    pool = [v for v in range(2, max_degree + 1) if v not in weights]
    degrees = sorted(rng.choice(pool) for _ in range(n_d))
    return weights, degrees


def random_screen_candidate(rng, big_share=0.0):
    """Seeded candidate of dimension 1-5 and amplitude -2..+2.

    Weights are at most 30, except that with probability big_share one
    weight is drawn up to 10^4.  The deltas sum to a_0 + ... + a_dim +
    amplitude, as every candidate's do; most are positive, some are not,
    so every check can fail.
    """
    while True:
        dim, cc = rng.randint(1, 5), rng.randint(1, 4)
        alpha = rng.randint(-2, 2)
        weights = [rng.randint(1, 30) for _ in range(dim + cc + 1)]
        if rng.random() < big_share:
            weights[-1] = rng.randint(31, 10**4)
        weights.sort()
        total = sum(weights[:dim + 1]) + alpha
        dv = [rng.randint(-2 if rng.random() < 0.1 else 1, max(total, 1))
              for _ in range(cc - 1)]
        dv.append(total - sum(dv))
        try:
            return normalize(weights, [a + v for a, v in
                                       zip(weights[dim + 1:], dv)])
        except InvalidCandidate:
            continue
