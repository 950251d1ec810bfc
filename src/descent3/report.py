"""Per-discriminant synthesis of the descent data.

Pulls together, for one seed discriminant D: the 3-rank r3(D) from the cubic
form class count, the monic rank r3(monic) computed two independent ways,
Selmer ranks of the two isogenies, rank bounds through the parity rule,
the conditional rank of Sha[lambda], Hasse verdicts for every class, and an
independent imaginary-quadratic class-group oracle for D < 0.

The monic rank is the dimension of the subspace of E_D'(Q)/lambda(E_D(Q))
spanned by the points attached to monic-representable classes, not the raw
count of such classes (several classes can sit in a small span).  A monic
form (1, b, c, d) sits at the point (4P, 4G) of E_D', P and G its Hessian
and cubic covariant at (1, 0) (syzygy_pair, syzygy_point).  The rank is
computed once from the class list (monic_representative on each class)
and once from the direct search over G^2 = 4P^3 - 27D
(search_monic_points); the two must agree, and a mismatch raises instead
of silently picking a side, since within sufficient bounds their equality
is a theorem.  Everything resting on finiteness of Sha[3^oo] is labeled so.
"""

import json
from dataclasses import dataclass
from fractions import Fraction

from . import __version__
from .arith import factorize, is_squarefree, xgcd
from .cubicforms import (BinaryCubicForm, enumerate_classes,
                         monic_representative, rank_of_class_count,
                         syzygy_pair)
from .errors import (ExcludedDiscriminant, InconsistencyError,
                     InconsistentInputs, PositiveDiscriminant)
from .genus1 import Genus1Verdict, HomogeneousSpace, hasse_verdict
from .mordell import (CurvePoint, MordellCurve, psi_prime_relations,
                      search_monic_points, span_dim_mod_3,
                      span_dim_mod_lambda, syzygy_point)
from .seeds import DiscriminantSeed


# --- 3-rank from the field count ---

def r3_from_fields(D: int) -> int:
    """The 3-rank of Cl(Q(sqrt(D))): the number of cubic fields of
    discriminant D is (3^r - 1)/2, and the class list supplies the count
    (enumerate_classes has checked that it has that shape)."""
    return rank_of_class_count(len(enumerate_classes(D)))


# --- imaginary quadratic class group (independent oracle, D < 0 only) ---

@dataclass(frozen=True)
class ClassGroup:
    disc: int
    forms: tuple          # reduced positive-definite (a, b, c), sorted
    invariants: tuple     # invariant factors, ascending divisibility chain

    @property
    def h(self) -> int:
        return len(self.forms)

    @property
    def rank3(self) -> int:
        return sum(1 for d in self.invariants if d % 3 == 0)

    def __str__(self):
        if not self.invariants:
            return "trivial"
        return " x ".join(f"Z/{d}" for d in reversed(self.invariants))


def _reduced_qforms(D: int):
    # -a < b <= a <= c, b^2 - 4ac = D, b >= 0 when |b| = a or a = c.
    # D = 1 (mod 4) forces b odd, so b = 0 and even-b branches never occur.
    forms = []
    b = 1
    while 3 * b * b <= -D:
        ac = (b * b - D) // 4
        a = b if b else 1
        while a * a <= ac:
            if a and ac % a == 0:
                c = ac // a
                forms.append((a, b, c))
                if a != b and a != c:
                    forms.append((a, -b, c))
            a += 1
        b += 2
    return sorted(forms)


def _qf_reduce(a: int, b: int, c: int):
    # plain Gauss reduction; no transform tracking needed here
    while True:
        if c < a or (c == a and b < 0):
            a, b, c = c, -b, a
            continue
        if b > a or b <= -a:
            k = (a - b) // (2 * a)
            c, b = a * k * k + b * k + c, b + 2 * a * k
            continue
        return (a, b, c)


def _qf_compose(f1, f2, D):
    """Gauss composition of primitive forms of discriminant D, reduced."""
    a1, b1, c1 = f1
    a2, b2, c2 = f2
    beta = (b1 + b2) // 2
    g, x1, y1 = xgcd(a1, a2)
    d1, x2, w = xgcd(g, beta)
    u, v = x2 * x1, x2 * y1
    # u*a1 + v*a2 + w*beta = d1 = gcd(a1, a2, beta)
    a3 = (a1 // d1) * (a2 // d1)
    num = u * a1 * b2 + v * a2 * b1 + w * (b1 * b2 + D) // 2
    assert num % d1 == 0
    b3 = (num // d1) % (2 * a3)
    assert (b3 * b3 - D) % (4 * a3) == 0
    return _qf_reduce(a3, b3, (b3 * b3 - D) // (4 * a3))


def _qf_pow(f, k: int, ident, D):
    out, base = ident, f
    while k:
        if k & 1:
            out = _qf_compose(out, base, D)
        base = _qf_compose(base, base, D)
        k >>= 1
    return out


def _exponent_of(n: int, q: int) -> int:
    e = 0
    while n % q == 0 and n > 1:
        n //= q
        e += 1
    assert n == 1, "kernel size was not a prime power"
    return e


def _abelian_invariants(forms, D) -> tuple:
    """Invariant factors of the form class group, via kernel sizes of the
    q^k-th power maps: log_q #ker(g -> g^(q^k)) counts the cyclic factors
    of q-exponent >= k."""
    h = len(forms)
    if h == 1:
        return ()
    ident = _qf_reduce(1, 1, (1 - D) // 4)
    per_prime = {}
    for q, e in sorted(factorize(h).items()):
        geq, prev = [], 0
        for k in range(1, e + 1):
            cnt = sum(1 for f in forms if _qf_pow(f, q**k, ident, D) == ident)
            log_cnt = _exponent_of(cnt, q)
            geq.append(log_cnt - prev)
            prev = log_cnt
            if log_cnt == e or geq[-1] == 0:
                break
        exps = [sum(1 for g in geq if g > i) for i in range(geq[0])]
        per_prime[q] = sorted(exps, reverse=True)
    width = max(len(v) for v in per_prime.values())
    factors = []
    for j in range(width):
        d = 1
        for q, exps in per_prime.items():
            if j < len(exps):
                d *= q ** exps[j]
        factors.append(d)
    factors.sort()
    prod = 1
    for d in factors:
        prod *= d
    if prod != h:
        raise InconsistencyError(
            f"invariant factors {factors} multiply to {prod}, class number {h}")
    return tuple(factors)


def class_group_imaginary(D: int) -> ClassGroup:
    """Reduced-form class group of an imaginary quadratic field in the
    family (D < 0, D = 1 mod 4, squarefree).  Serves as an oracle: its
    3-rank must match r3_from_fields(D)."""
    if D >= 0:
        raise PositiveDiscriminant(f"D = {D}")
    if D % 4 != 1:
        raise ExcludedDiscriminant(f"D = {D} is not 1 mod 4")
    if not is_squarefree(D):
        raise ExcludedDiscriminant(f"D = {D} is not squarefree")
    forms = _reduced_qforms(D)
    return ClassGroup(D, tuple(forms), _abelian_invariants(forms, D))


# --- Selmer ranks and rank bounds ---

def selmer_ranks(D: int, r3: int):
    """(d(S_lambda), d(S_lambda')): (r3, r3) for D < -4, (r3, r3 + 1) for
    D > 4."""
    if -4 <= D <= 4:
        raise ExcludedDiscriminant(f"D = {D} has |D| <= 4")
    return (r3, r3) if D < 0 else (r3, r3 + 1)


def rank_bounds(D: int, r3: int, r3_monic: int):
    """(lower, upper, note) for rank(E_D), conditional on finiteness of
    Sha(E_D)[3^oo].

    The parity of the 3-Selmer dimension bumps the monic lower bound by one
    in two of the four (sign of D) x (parity of r3(monic)) cases; the note
    records which case fired.  The upper bound is the Selmer bound and
    holds without the parity input: the sum of the two Selmer ranks.
    """
    ub = sum(selmer_ranks(D, r3))
    if r3_monic < 1 or r3_monic > r3:
        raise InconsistentInputs(
            f"r3(monic) = {r3_monic} outside [1, r3 = {r3}]")
    odd = r3_monic % 2 == 1
    if D < 0:
        lb = r3_monic + 1 if odd else r3_monic
    else:
        lb = r3_monic if odd else r3_monic + 1
    note = (f"r3(monic) = {r3_monic} ({'odd' if odd else 'even'}), "
            f"D {'<' if D < 0 else '>'} 0: {lb} <= rank <= {ub}; "
            "rank = dim S_3 (mod 2); "
            "conditional on finiteness of Sha[3^oo]")
    return lb, ub, note


def conditional_rank_sha3(D: int, r3: int, r3_monic: int, dim3_evidence: int = 0):
    """(rank, dim Sha[3], note): the smallest rank consistent with the
    bounds, the parity rule, and any point evidence, together with the
    Sha[3] dimension left over when the 3-Selmer group is as large as the
    per-isogeny ranks allow.  A consistency statement, not a computation:
    everything here is conditional on finiteness of Sha[3^oo]."""
    lb, ub, note = rank_bounds(D, r3, r3_monic)
    rank = max(lb, dim3_evidence)
    if (rank - lb) % 2:
        rank += 1
    if rank > ub:
        raise InconsistencyError(
            f"evidence dim {dim3_evidence} forces rank past the Selmer bound {ub}")
    sha3 = ub - rank
    return rank, sha3, (f"rank {rank} and dim Sha[3] = {sha3} assume "
                        f"dim S_3 = {ub} (full Selmer); parity-conditional")


# --- the report ---

@dataclass
class AnalysisReport:
    seed: DiscriminantSeed
    r3: int
    classes: list
    monic_flags: list
    r3_monic_lb: int
    selmer_lambda: int
    selmer_lambda_dual: int
    points: list
    dim_quotient_lambda: int
    dim_mod_3: int
    rank_lb: int
    rank_ub: int
    sha_lambda_rank_conditional: int
    parity_note: str
    hasse: list
    provenance: dict

    def __str__(self):
        seed = self.seed
        lines = [
            f"D = {seed.D}  (m, n) = ({seed.m}, {seed.n})",
            f"r3(D) = {self.r3}  [{len(self.classes)} classes]",
            f"r3(monic) >= {self.r3_monic_lb}  "
            f"[{self.monic_flags.count('already_monic') + self.monic_flags.count('found')}"
            f" of {len(self.classes)} classes monic within bound]",
            f"Selmer ranks: d(S_lambda) = {self.selmer_lambda}, "
            f"d(S_lambda') = {self.selmer_lambda_dual}",
            f"quotient dims: mod lambda = {self.dim_quotient_lambda}, "
            f"mod 3 = {self.dim_mod_3}  [{len(self.points)} points]",
            f"rank bounds: {self.rank_lb} <= rank(E_D) <= {self.rank_ub}",
            f"rank Sha[lambda] = {self.sha_lambda_rank_conditional} (conditional)",
            f"parity: {self.parity_note}",
        ]
        for v in self.hasse:
            lines.append(f"  {v.space}: {v}")
        return "\n".join(lines)


def build_report(seed: DiscriminantSeed, *, rep_bound: int = 10**3,
                 point_bound: int = 10**5, global_bound: int = 10**4,
                 run_hasse: bool = True) -> AnalysisReport:
    """Run the full pipeline for one seed.

    For D < 0 with |D| <= 10^7 the class group oracle also runs; it is the
    only sub-computation not needed by the descent itself.
    """
    D = seed.D
    classes = enumerate_classes(D)
    r3 = rank_of_class_count(len(classes))

    oracle_note = "class group oracle skipped"
    if D < 0 and -D <= 10**7:
        cg = class_group_imaginary(D)
        if cg.rank3 != r3:
            raise InconsistencyError(
                f"class group 3-rank {cg.rank3} != field-count rank {r3}")
        oracle_note = f"class group {cg} (h = {cg.h}), 3-rank {cg.rank3} = r3"

    reps = [monic_representative(F, rep_bound) for F in classes]
    monic_flags = [rep.status for rep in reps]
    found_count = sum(1 for rep in reps if rep.found)

    class_points = [syzygy_point(D, *syzygy_pair(rep.form))
                    for rep in reps if rep.found]
    searched = search_monic_points(D, point_bound)

    dim_from_classes = span_dim_mod_lambda(class_points, D)
    pts, rels = psi_prime_relations(dict.fromkeys(searched + class_points), D)
    dim_quotient_lambda = rels[:len(searched)].count(None)
    if dim_from_classes != dim_quotient_lambda:
        raise InconsistencyError(
            f"r3(monic) cross-check failed: {dim_from_classes} from "
            f"{found_count} monic classes (bound {rep_bound}) vs "
            f"{dim_quotient_lambda} from {len(searched)} searched points "
            f"(bound {point_bound}); one of the bounds is too small")
    r3_monic_lb = dim_quotient_lambda
    if r3_monic_lb and found_count > (3**r3_monic_lb - 1) // 2:
        raise InconsistencyError(
            f"{found_count} monic classes cannot sit inside a span of "
            f"dimension {r3_monic_lb}")

    points = sorted(pts, key=lambda P: (P.x, P.y))
    dim_mod_3 = span_dim_mod_3(pts, D, relations=(pts, rels))

    selmer_l, selmer_ld = selmer_ranks(D, r3)
    rank_ub = selmer_l + selmer_ld
    if r3_monic_lb >= 1:
        prop_lb, _, parity_note = rank_bounds(D, r3, r3_monic_lb)
        rank_lb = max(prop_lb, dim_mod_3)
    else:
        rank_lb = dim_mod_3
        parity_note = ("no monic class established within bounds; parity "
                       "branches not applied; rank = dim S_3 (mod 2) still "
                       "holds conditionally")
    if rank_lb > rank_ub:
        raise InconsistencyError(
            f"point evidence {rank_lb} exceeds the Selmer bound {rank_ub}")

    hasse = []
    if run_hasse:
        for F, rep in zip(classes, reps):
            C = HomogeneousSpace(F, seed)
            hasse.append(hasse_verdict(C, rep, global_bound=global_bound))

    provenance = {
        "version": __version__,
        "rep_bound": str(rep_bound),
        "point_bound": str(point_bound),
        "global_bound": str(global_bound),
        "class_group": oracle_note,
        "monic_search": "bounded; r3(monic) and Sha[lambda] rank are "
                        "exact only if both monic searches are exhaustive",
        "conditional": "rank bounds, parity branch, and Sha entries assume "
                       "finiteness of Sha[3^oo]; certified violations rest "
                       "on the monic dichotomy for enumerated classes",
        "hasse": "computed" if run_hasse else "skipped",
    }

    return AnalysisReport(
        seed=seed, r3=r3, classes=list(classes), monic_flags=monic_flags,
        r3_monic_lb=r3_monic_lb, selmer_lambda=selmer_l,
        selmer_lambda_dual=selmer_ld, points=list(points),
        dim_quotient_lambda=dim_quotient_lambda, dim_mod_3=dim_mod_3,
        rank_lb=rank_lb, rank_ub=rank_ub,
        sha_lambda_rank_conditional=r3 - r3_monic_lb,
        parity_note=parity_note, hasse=hasse, provenance=provenance)


# --- serialization: JSON (ints as decimal strings) and a CSV row ---

def _point_obj(P: CurvePoint):
    if P.infinite:
        return None
    return {"x": str(P.x), "y": str(P.y)}


def _verdict_obj(v: Genus1Verdict):
    return {
        "form": [str(c) for c in v.space.form.coeffs()],
        "kind": v.kind,
        "point": [str(c) for c in v.point] if v.point else None,
        "bad_prime": None,
        "primes_checked": [str(p) for p in v.primes_checked],
        "search_bound": str(v.search_bound),
        "monic_bound": str(v.monic_bound),
        "notes": v.notes,
    }


def report_to_json_dict(rep: AnalysisReport) -> dict:
    seed = rep.seed
    return {
        "seed": {"m": str(seed.m), "n": str(seed.n), "disc": str(seed.D)},
        "r3": str(rep.r3),
        "classes": [[str(c) for c in F.coeffs()] for F in rep.classes],
        "monic_flags": list(rep.monic_flags),
        "r3_monic_lb": str(rep.r3_monic_lb),
        "selmer_lambda": str(rep.selmer_lambda),
        "selmer_lambda_dual": str(rep.selmer_lambda_dual),
        "points": [_point_obj(P) for P in rep.points],
        "dim_quotient_lambda": str(rep.dim_quotient_lambda),
        "dim_mod_3": str(rep.dim_mod_3),
        "rank_lb": str(rep.rank_lb),
        "rank_ub": str(rep.rank_ub),
        "sha_lambda_rank_conditional": str(rep.sha_lambda_rank_conditional),
        "parity_note": rep.parity_note,
        "hasse": [_verdict_obj(v) for v in rep.hasse],
        "provenance": dict(rep.provenance),
    }


def report_to_json(rep: AnalysisReport) -> str:
    return json.dumps(report_to_json_dict(rep))


def report_from_json(text: str) -> AnalysisReport:
    obj = json.loads(text)
    s = obj["seed"]
    seed = DiscriminantSeed(int(s["m"]), int(s["n"]), int(s["disc"]))
    D = seed.D
    E = MordellCurve.e_d_prime(D)
    points = [CurvePoint(E, Fraction(p["x"]), Fraction(p["y"]))
              for p in obj["points"] if p is not None]
    classes = [BinaryCubicForm(*(int(c) for c in row))
               for row in obj["classes"]]
    hasse = []
    for h in obj["hasse"]:
        F = BinaryCubicForm(*(int(c) for c in h["form"]))
        hasse.append(Genus1Verdict(
            kind=h["kind"],
            space=HomogeneousSpace(F, seed),
            point=tuple(int(c) for c in h["point"]) if h["point"] else None,
            primes_checked=tuple(int(p) for p in h["primes_checked"]),
            search_bound=int(h["search_bound"]),
            monic_bound=int(h["monic_bound"]),
            notes=h["notes"],
        ))
    return AnalysisReport(
        seed=seed, r3=int(obj["r3"]), classes=classes,
        monic_flags=list(obj["monic_flags"]),
        r3_monic_lb=int(obj["r3_monic_lb"]),
        selmer_lambda=int(obj["selmer_lambda"]),
        selmer_lambda_dual=int(obj["selmer_lambda_dual"]),
        points=points,
        dim_quotient_lambda=int(obj["dim_quotient_lambda"]),
        dim_mod_3=int(obj["dim_mod_3"]),
        rank_lb=int(obj["rank_lb"]), rank_ub=int(obj["rank_ub"]),
        sha_lambda_rank_conditional=int(obj["sha_lambda_rank_conditional"]),
        parity_note=obj["parity_note"], hasse=hasse,
        provenance=dict(obj["provenance"]))


CSV_FIELDS = ("m", "n", "D", "r3", "n_classes", "n_monic_found",
              "r3_monic_lb", "selmer_lambda", "selmer_lambda_dual",
              "dim_quotient_lambda", "dim_mod_3", "rank_lb", "rank_ub",
              "sha_lambda_rank_conditional", "hasse_summary")


def report_csv_header() -> str:
    return ",".join(CSV_FIELDS)


def report_to_csv(rep: AnalysisReport) -> str:
    kinds = [v.kind for v in rep.hasse]
    summary = "/".join(f"{kinds.count(k)}{tag}" for k, tag in (
        ("has_global_point", "pt"), ("certified_violation", "viol")))
    found = sum(1 for f in rep.monic_flags if f in ("already_monic", "found"))
    row = (rep.seed.m, rep.seed.n, rep.seed.D, rep.r3, len(rep.classes),
           found, rep.r3_monic_lb, rep.selmer_lambda, rep.selmer_lambda_dual,
           rep.dim_quotient_lambda, rep.dim_mod_3, rep.rank_lb, rep.rank_ub,
           rep.sha_lambda_rank_conditional, summary)
    return ",".join(str(v) for v in row)
