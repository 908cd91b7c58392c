"""The gcd-argument families g(n) and their prime-claim maps.

Each variant states two things: its polynomial form residue_polys() =
(sel, polys) with g(n) = polys[sel(n)](n), where sel is an int period beta
(n mod beta) or a callable, and which values are asserted prime when the
recursion hits zero at index n (the claim map, claim_values).  The form is
the only definition of g: the engine's jumps and its naive stepping read it
(the latter through eval_form), and eval_arg(n) is derived from it by the
Family base.
"""
from __future__ import annotations

import inspect
import re
from dataclasses import dataclass, field


class NoClaimDefined(ValueError):
    """The variant has no zero-index prime claim (forward-record families)."""


class SpecParseError(ValueError):
    """Malformed spec string."""


# ---------------------------------------------------------------------------
# polynomial helpers (coefficients stored low degree first)

def poly_eval(coeffs, x: int) -> int:
    out = 0
    for c in reversed(coeffs):
        out = out * x + c
    return out


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


_TERM_RE = re.compile(r"^([+-]?\d*)(x(?:\^(\d+))?)?$")


def parse_poly(text: str):
    """Parse '2x^2-3x+1' style text into a low-first coefficient list."""
    s = text.replace(" ", "").replace("−", "-")
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1]
    if not s:
        raise SpecParseError("empty polynomial")
    chunks = re.findall(r"[+-]?[^+-]+", s)
    if "".join(chunks) != s:
        raise SpecParseError(f"dangling sign in polynomial {text!r}")
    coeffs: dict[int, int] = {}
    for chunk in chunks:
        m = _TERM_RE.match(chunk)
        if not m or (m.group(1) in ("", "+", "-") and not m.group(2)):
            raise SpecParseError(f"bad polynomial term {chunk!r} in {text!r}")
        sign_num, has_x, exp = m.groups()
        coef = int(sign_num) if sign_num not in ("", "+", "-") else (-1 if sign_num == "-" else 1)
        power = (int(exp) if exp else 1) if has_x else 0
        coeffs[power] = coeffs.get(power, 0) + coef
    deg = max(coeffs)
    out = [coeffs.get(i, 0) for i in range(deg + 1)]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    if not any(out):
        raise SpecParseError(f"zero polynomial {text!r}")
    return out


def poly_str(coeffs) -> str:
    parts = []
    for power in range(len(coeffs) - 1, -1, -1):
        c = coeffs[power]
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        if power == 0:
            body = str(mag)
        else:
            x = "x" if power == 1 else f"x^{power}"
            body = x if mag == 1 else f"{mag}{x}"
        parts.append(sign + body)
    return "".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# pi as an exact scaled integer: floor(pi*n) = _PI_NUM*n // _PI_DEN

_PI_NUM = 314159265358979323846264338327950288419716939937510582097494
_PI_DEN = 10**59
# |_PI_NUM - pi*_PI_DEN| < 0.46, so the stored floor can differ from floor(pi*n)
# only where ||pi*n|| < 0.46*|n|/10^59.  Below 7.4e25 the convergents of pi
# give ||pi*n|| >= 4.2e-27, so every |n| < _PI_DOMAIN is exact.
_PI_DOMAIN = 10**25


def floor_pi_times(n: int) -> int:
    """Exact floor(pi*n) for |n| < 10^25."""
    if abs(n) >= _PI_DOMAIN:
        raise ValueError(f"floor(pi*n) is exact only for |n| < 10^25, got n={n}")
    return _PI_NUM * n // _PI_DEN


def _sorted_claims(values):
    return sorted(set(values))


# ---------------------------------------------------------------------------
# variants


def eval_form(form, n: int) -> int:
    """g(n) = polys[sel(n)](n) for a residue_polys() form (sel, polys)."""
    sel, polys = form
    return poly_eval(polys[n % sel if isinstance(sel, int) else sel(n)], n)


class Family:
    """Base of the variants: g is stated once, as residue_polys() = (sel,
    polys), and eval_arg(n) = polys[sel(n)](n) is derived from it."""

    def eval_arg(self, n: int) -> int:
        return eval_form(self.residue_polys(), n)


@dataclass(frozen=True)
class AffineMinus(Family):
    """g(n) = m*n - 1; claims m(n+1)+m-1... i.e. m*n+m-1 at a zero index n."""

    m: int

    def claim_values(self, n: int):
        return [self.m * n + self.m - 1]

    def residue_polys(self):
        return 1, [[-1, self.m]]

    def spec_str(self) -> str:
        return f"affine:m={self.m}"


@dataclass(frozen=True)
class PowerMinus(Family):
    """g(n) = b*n^c - 1; claim b(n+1)^c - 1."""

    b: int
    c: int

    def __post_init__(self):
        if self.b < 1 or self.c < 1:
            raise ValueError(f"power needs b >= 1 and c >= 1, got b={self.b}, c={self.c}")

    def claim_values(self, n: int):
        return [self.b * (n + 1) ** self.c - 1]

    def residue_polys(self):
        return 1, [[-1] + [0] * (self.c - 1) + [self.b]]

    def spec_str(self) -> str:
        return f"power:b={self.b},c={self.c}"


@dataclass(frozen=True)
class PrimePowerMinusOne(Family):
    """g(n) = n^p - 1; claims n and ((n+1)^p - 1)/n."""

    p: int

    def __post_init__(self):
        if self.p < 1:
            raise ValueError(f"primepower needs p >= 1, got p={self.p}")

    def claim_values(self, n: int):
        return _sorted_claims([n, ((n + 1) ** self.p - 1) // n])

    def residue_polys(self):
        return 1, [[-1] + [0] * (self.p - 1) + [1]]

    def spec_str(self) -> str:
        return f"primepower:p={self.p}"


@dataclass(frozen=True)
class QuadShift(Family):
    """g(n) = n(n+2m); claims n+1 and n+2m+1."""

    m: int

    def claim_values(self, n: int):
        return _sorted_claims([n + 1, n + 2 * self.m + 1])

    def residue_polys(self):
        return 1, [[0, 2 * self.m, 1]]

    def spec_str(self) -> str:
        return f"quadshift:m={self.m}"


@dataclass(frozen=True)
class TripletProduct(Family):
    """g(n) = n(n+2)(n+6); claims the (p, p+2, p+6) triplet at n+1."""

    def claim_values(self, n: int):
        return [n + 1, n + 3, n + 7]

    def residue_polys(self):
        return 1, [[0, 12, 8, 1]]

    def spec_str(self) -> str:
        return "triplet"


@dataclass(frozen=True)
class Polynomial(Family):
    """g(n) = P(n) for an arbitrary integer polynomial; claim P(n+1)."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if not any(self.coeffs):
            raise ValueError("polynomial needs a nonzero coefficient")

    def claim_values(self, n: int):
        return [poly_eval(self.coeffs, n + 1)]

    def residue_polys(self):
        return 1, [list(self.coeffs)]

    def spec_str(self) -> str:
        return f"poly:p={poly_str(self.coeffs)}"


@dataclass(frozen=True)
class FactoredPolynomial(Family):
    """g(n) = prod Q_j(n); claims all Q_j(n+1) simultaneously prime."""

    factors: tuple

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(tuple(f) for f in self.factors))
        if not self.factors:
            raise ValueError("need at least one factor")

    def claim_values(self, n: int):
        return _sorted_claims(poly_eval(f, n + 1) for f in self.factors)

    def residue_polys(self):
        prod = [1]
        for f in self.factors:
            prod = poly_mul(prod, list(f))
        return 1, [prod]

    def spec_str(self) -> str:
        return "factored:q=" + "|".join(poly_str(f) for f in self.factors)


@dataclass(frozen=True)
class PeriodicAffine(Family):
    """g(n) = m*n + b(n) with beta-periodic offsets, b(n) = offsets[(n-1) % beta]."""

    m: int
    offsets: tuple

    def __post_init__(self):
        object.__setattr__(self, "offsets", tuple(self.offsets))
        if not self.offsets:
            raise ValueError("offsets must be non-empty")

    def claim_values(self, n: int):
        return _sorted_claims(self.m * (n + 1) + b for b in self.offsets)

    def residue_polys(self):
        # class r = n mod beta holds the offset b(n) = offsets[r - 1]
        offsets = self.offsets[-1:] + self.offsets[:-1]
        return len(offsets), [[b, self.m] for b in offsets]

    def spec_str(self) -> str:
        return f"periodic:m={self.m},offsets=" + ";".join(str(b) for b in self.offsets)


@dataclass(frozen=True)
class PeriodicFactorSchedule(Family):
    """g(n) = Q_{b(n)}(n) where b(n) = schedule[(n-1) % beta] cycles through
    a permutation of 1..beta."""

    factors: tuple
    schedule: tuple

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(tuple(f) for f in self.factors))
        object.__setattr__(self, "schedule", tuple(self.schedule))
        if sorted(self.schedule) != list(range(1, len(self.factors) + 1)):
            raise ValueError("schedule must be a permutation of 1..beta")

    def claim_values(self, n: int):
        return _sorted_claims(poly_eval(f, n + 1) for f in self.factors)

    def residue_polys(self):
        # class r = n mod beta holds Q_{schedule[r - 1]}
        schedule = self.schedule[-1:] + self.schedule[:-1]
        return len(schedule), [list(self.factors[j - 1]) for j in schedule]

    def spec_str(self) -> str:
        return (
            "periodic-factored:q="
            + "|".join(poly_str(f) for f in self.factors)
            + ",schedule="
            + ";".join(str(j) for j in self.schedule)
        )


@dataclass(frozen=True)
class ShiftedIndex(Family):
    """g(n) = n - 1; the claim at a zero is the index itself."""

    def claim_values(self, n: int):
        return [n]

    def residue_polys(self):
        return 1, [[-1, 1]]

    def spec_str(self) -> str:
        return "shifted"


@dataclass(frozen=True)
class AlternatingLinear(Family):
    """g(n) = n + (-1)^n; twin claim (n, n+2) at a zero."""

    def claim_values(self, n: int):
        return [n, n + 2]

    def residue_polys(self):
        # class 0: even n -> n+1 ; class 1: odd n -> n-1
        return 2, [[1, 1], [-1, 1]]

    def spec_str(self) -> str:
        return "alt-linear"


@dataclass(frozen=True)
class ShevelevLinear(Family):
    """g(n) = n - 1 + (-1)^n, the forward twin-record drive (no zero claim)."""

    def claim_values(self, n: int):
        raise NoClaimDefined("shevelev claims live on forward records, not zeros")

    def residue_polys(self):
        return 2, [[0, 1], [-2, 1]]

    def spec_str(self) -> str:
        return "shevelev"


@dataclass(frozen=True)
class AlternatingQuad(Family):
    """g(n) = 2n^2 + (-1)^n; twin claim (2(n+1)^2 - 1, 2(n+1)^2 + 1)."""

    def claim_values(self, n: int):
        base = 2 * (n + 1) ** 2
        return [base - 1, base + 1]

    def residue_polys(self):
        return 2, [[1, 0, 2], [-1, 0, 2]]

    def spec_str(self) -> str:
        return "alt-quad"


@dataclass(frozen=True)
class GoldbachProduct(Family):
    """g(n) = (n-1)(2N-n+1); decomposition claim (g_N, 2N-g_N)."""

    N: int

    def claim_values(self, n: int):
        return sorted([n, 2 * self.N - n])

    def residue_polys(self):
        # (n-1)(2N+1-n) = -(2N+1) + (2N+2) n - n^2
        return 1, [[-(2 * self.N + 1), 2 * self.N + 2, -1]]

    def spec_str(self) -> str:
        return f"goldbach:N={self.N}"


@dataclass(frozen=True)
class GoldbachAlt(Family):
    """g(n) = N - (-1)^n (N-n): n at even steps, 2N-n at odd steps.

    Claim at a zero g_N: the Goldbach pair (g_N+1, 2N-g_N-1).
    """

    N: int
    flip: bool = False  # swap the parity roles (used by the threshold scan)

    def claim_values(self, n: int):
        return sorted([n + 1, 2 * self.N - n - 1])

    def residue_polys(self):
        even_poly, odd_poly = [0, 1], [2 * self.N, -1]
        if self.flip:
            even_poly, odd_poly = odd_poly, even_poly
        return 2, [even_poly, odd_poly]

    def spec_str(self) -> str:
        return f"goldbach-alt:N={self.N}" + (",flip=1" if self.flip else "")


@dataclass(frozen=True)
class BeattyTwin(Family):
    """g(n) = n + r_n with r_n = 2(floor(pi n) - floor(pi (n-1)) - 3) in {0, 2}."""

    @staticmethod
    def select(n: int) -> int:
        """r_n / 2: 1 where g(n) = n + 2, 0 where g(n) = n."""
        return floor_pi_times(n) - floor_pi_times(n - 1) - 3

    def claim_values(self, n: int):
        return [n + 1, n + 3]

    def residue_polys(self):
        return self.select, [[0, 1], [2, 1]]

    def spec_str(self) -> str:
        return "beatty"


@dataclass(frozen=True)
class RowlandIndex(Family):
    """g(n) = n, the classic forward-additive drive (no zero claim)."""

    def claim_values(self, n: int):
        raise NoClaimDefined("rowland claims live on forward records, not zeros")

    def residue_polys(self):
        return 1, [[0, 1]]

    def spec_str(self) -> str:
        return "rowland"


# ---------------------------------------------------------------------------
# serialization

_NO_ARG = {
    "triplet": TripletProduct,
    "shifted": ShiftedIndex,
    "alt-linear": AlternatingLinear,
    "shevelev": ShevelevLinear,
    "alt-quad": AlternatingQuad,
    "beatty": BeattyTwin,
    "rowland": RowlandIndex,
}


def _ints(v: str) -> list:
    return [int(x) for x in v.split(";")]


def _polys(v: str) -> list:
    return [parse_poly(q) for q in v.split("|")]


def _flip(v: str) -> bool:
    if v not in ("0", "1"):
        raise ValueError(f"flip must be 0 or 1, got {v!r}")
    return v == "1"


# tag -> builder; the builder's parameters are the keys the tag reads, and
# one with a default may be left out
_KEYED = {
    "affine": lambda m: AffineMinus(m=int(m)),
    "power": lambda b, c: PowerMinus(b=int(b), c=int(c)),
    "primepower": lambda p: PrimePowerMinusOne(p=int(p)),
    "quadshift": lambda m: QuadShift(m=int(m)),
    "poly": lambda p: Polynomial(coeffs=parse_poly(p)),
    "factored": lambda q: FactoredPolynomial(factors=_polys(q)),
    "periodic": lambda m, offsets: PeriodicAffine(m=int(m), offsets=_ints(offsets)),
    "periodic-factored": lambda q, schedule: PeriodicFactorSchedule(
        factors=_polys(q), schedule=_ints(schedule)
    ),
    "goldbach": lambda N: GoldbachProduct(N=int(N)),
    "goldbach-alt": lambda N, flip="0": GoldbachAlt(N=int(N), flip=_flip(flip)),
}


def parse_spec(text: str):
    """Parse the compact CLI spec form, e.g. 'affine:m=5' or 'periodic:m=1,offsets=0;2'.

    A key the tag does not read, a key given twice and a missing key are
    each a SpecParseError that names the key."""
    text = text.strip()
    tag, _, body = text.partition(":")
    if tag in _NO_ARG:
        if body:
            raise SpecParseError(f"{tag} takes no parameters")
        return _NO_ARG[tag]()
    if tag not in _KEYED:
        raise SpecParseError(f"unknown spec tag {tag!r}")
    keys = inspect.signature(_KEYED[tag]).parameters
    given = {}
    for part in body.split(",") if body else ():
        key, eq, value = part.partition("=")
        if not eq:
            raise SpecParseError(f"bad spec {text!r}: expected key=value, got {part!r}")
        if key in given:
            raise SpecParseError(f"bad spec {text!r}: key {key!r} is given twice")
        if key not in keys:
            raise SpecParseError(f"bad spec {text!r}: {tag} reads {', '.join(keys)}, not {key!r}")
        given[key] = value
    missing = [key for key, p in keys.items() if p.default is p.empty and key not in given]
    if missing:
        raise SpecParseError(f"bad spec {text!r}: {tag} needs key {', '.join(missing)}")
    try:
        return _KEYED[tag](**given)
    except ValueError as exc:
        raise SpecParseError(f"bad spec {text!r}: {exc}") from exc
