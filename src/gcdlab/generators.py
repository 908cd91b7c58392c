"""The gcd-argument families g(n) and their prime-claim maps.

Each variant knows three things: how to evaluate g(n), which values are
asserted prime when the recursion hits zero at index n (the claim map), and
its polynomial form (sel, polys) with g(n) = polys[sel(n)](n), where sel is an
int period beta (n mod beta) or a callable, which powers the engine's jumps.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field


class NoClaimDefined(Exception):
    """The variant has no zero-index prime claim (forward-record families)."""


class SpecParseError(ValueError):
    """Malformed spec string."""


class BeattyPrecisionError(Exception):
    """pi*n came suspiciously close to an integer at the working precision."""


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
# Guard margin: reject if pi*n is within 1e-6 of an integer at this precision.
_PI_GUARD = 10**53


def floor_pi_times(n: int) -> int:
    """Exact floor(pi*n) with a loudness guard against precision loss."""
    if n == 0:
        return 0
    prod = _PI_NUM * n
    rem = prod % _PI_DEN
    if rem < _PI_GUARD or _PI_DEN - rem < _PI_GUARD:
        raise BeattyPrecisionError(
            f"pi*{n} is within 1e-6 of an integer at the stored precision"
        )
    return prod // _PI_DEN


def _least_multiple_in(a: int, m: int, lo: int, hi: int) -> int | None:
    """Least x >= 0 with lo <= a*x mod m <= hi, for 0 <= lo <= hi < m, or None.

    Euclid-style: if no multiple of a lies in [lo, hi], x = ceil((lo + m*y)/a)
    for the least y with (-m)*y mod a in [lo mod a, hi mod a].  Reflecting a
    to m - a first keeps a <= m/2, so each recursion at least halves m."""
    if lo == 0:
        return 0
    a %= m
    if 2 * a > m:
        return _least_multiple_in(m - a, m, m - hi, m - lo)
    if a == 0:
        return None
    x = -(-lo // a)
    if a * x <= hi:
        return x
    y = _least_multiple_in(-m % a, a, lo % a, hi % a)
    return None if y is None else -(-(lo + m * y) // a)


def first_imprecise(lo: int) -> int:
    """Least j >= max(lo, 1) for which floor_pi_times(j) raises.

    floor_pi_times(j) raises iff (_PI_NUM*j + _PI_GUARD - 1) mod _PI_DEN
    <= 2*_PI_GUARD - 2, a window that _least_multiple_in finds exactly."""
    lo = max(lo, 1)
    width = 2 * _PI_GUARD - 2
    b = (_PI_NUM * lo + _PI_GUARD - 1) % _PI_DEN
    if b <= width:
        return lo
    return lo + _least_multiple_in(_PI_NUM, _PI_DEN, _PI_DEN - b, _PI_DEN - b + width)


def _sorted_claims(values):
    return sorted(set(values))


# ---------------------------------------------------------------------------
# variants


@dataclass(frozen=True)
class AffineMinus:
    """g(n) = m*n - 1; claims m(n+1)+m-1... i.e. m*n+m-1 at a zero index n."""

    m: int

    def eval_arg(self, n: int) -> int:
        return self.m * n - 1

    def claim_values(self, n: int):
        return [self.m * n + self.m - 1]

    def residue_polys(self):
        return 1, [[-1, self.m]]

    def spec_str(self) -> str:
        return f"affine:m={self.m}"


@dataclass(frozen=True)
class PowerMinus:
    """g(n) = b*n^c - 1; claim b(n+1)^c - 1."""

    b: int
    c: int

    def eval_arg(self, n: int) -> int:
        return self.b * n**self.c - 1

    def claim_values(self, n: int):
        return [self.b * (n + 1) ** self.c - 1]

    def residue_polys(self):
        return 1, [[-1] + [0] * (self.c - 1) + [self.b]]

    def spec_str(self) -> str:
        return f"power:b={self.b},c={self.c}"


@dataclass(frozen=True)
class PrimePowerMinusOne:
    """g(n) = n^p - 1; claims n and ((n+1)^p - 1)/n."""

    p: int

    def eval_arg(self, n: int) -> int:
        return n**self.p - 1

    def claim_values(self, n: int):
        return _sorted_claims([n, ((n + 1) ** self.p - 1) // n])

    def residue_polys(self):
        return 1, [[-1] + [0] * (self.p - 1) + [1]]

    def spec_str(self) -> str:
        return f"primepower:p={self.p}"


@dataclass(frozen=True)
class QuadShift:
    """g(n) = n(n+2m); claims n+1 and n+2m+1."""

    m: int

    def eval_arg(self, n: int) -> int:
        return n * (n + 2 * self.m)

    def claim_values(self, n: int):
        return _sorted_claims([n + 1, n + 2 * self.m + 1])

    def residue_polys(self):
        return 1, [[0, 2 * self.m, 1]]

    def spec_str(self) -> str:
        return f"quadshift:m={self.m}"


@dataclass(frozen=True)
class TripletProduct:
    """g(n) = n(n+2)(n+6); claims the (p, p+2, p+6) triplet at n+1."""

    def eval_arg(self, n: int) -> int:
        return n * (n + 2) * (n + 6)

    def claim_values(self, n: int):
        return [n + 1, n + 3, n + 7]

    def residue_polys(self):
        return 1, [[0, 12, 8, 1]]

    def spec_str(self) -> str:
        return "triplet"


@dataclass(frozen=True)
class Polynomial:
    """g(n) = P(n) for an arbitrary integer polynomial; claim P(n+1)."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if not any(self.coeffs):
            raise ValueError("polynomial needs a nonzero coefficient")

    def eval_arg(self, n: int) -> int:
        return poly_eval(self.coeffs, n)

    def claim_values(self, n: int):
        return [poly_eval(self.coeffs, n + 1)]

    def residue_polys(self):
        return 1, [list(self.coeffs)]

    def spec_str(self) -> str:
        return f"poly:p={poly_str(self.coeffs)}"


@dataclass(frozen=True)
class FactoredPolynomial:
    """g(n) = prod Q_j(n); claims all Q_j(n+1) simultaneously prime."""

    factors: tuple

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(tuple(f) for f in self.factors))
        if not self.factors:
            raise ValueError("need at least one factor")

    def eval_arg(self, n: int) -> int:
        out = 1
        for f in self.factors:
            out *= poly_eval(f, n)
        return out

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
class PeriodicAffine:
    """g(n) = m*n + b(n) with beta-periodic offsets, b(n) = offsets[(n-1) % beta]."""

    m: int
    offsets: tuple

    def __post_init__(self):
        object.__setattr__(self, "offsets", tuple(self.offsets))
        if not self.offsets:
            raise ValueError("offsets must be non-empty")

    @property
    def beta(self) -> int:
        return len(self.offsets)

    def eval_arg(self, n: int) -> int:
        return self.m * n + self.offsets[(n - 1) % self.beta]

    def claim_values(self, n: int):
        return _sorted_claims(self.m * (n + 1) + b for b in self.offsets)

    def residue_polys(self):
        beta = self.beta
        return beta, [[self.offsets[(r - 1) % beta], self.m] for r in range(beta)]

    def spec_str(self) -> str:
        return f"periodic:m={self.m},offsets=" + ";".join(str(b) for b in self.offsets)


@dataclass(frozen=True)
class PeriodicFactorSchedule:
    """g(n) = Q_{b(n)}(n) where b cycles through a permutation of 1..beta."""

    factors: tuple
    schedule: tuple

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(tuple(f) for f in self.factors))
        object.__setattr__(self, "schedule", tuple(self.schedule))
        if sorted(self.schedule) != list(range(1, len(self.factors) + 1)):
            raise ValueError("schedule must be a permutation of 1..beta")

    @property
    def beta(self) -> int:
        return len(self.factors)

    def eval_arg(self, n: int) -> int:
        j = self.schedule[(n - 1) % self.beta]
        return poly_eval(self.factors[j - 1], n)

    def claim_values(self, n: int):
        return _sorted_claims(poly_eval(f, n + 1) for f in self.factors)

    def residue_polys(self):
        beta = self.beta
        return beta, [list(self.factors[self.schedule[(r - 1) % beta] - 1]) for r in range(beta)]

    def spec_str(self) -> str:
        return (
            "periodic-factored:q="
            + "|".join(poly_str(f) for f in self.factors)
            + ",schedule="
            + ";".join(str(j) for j in self.schedule)
        )


@dataclass(frozen=True)
class ShiftedIndex:
    """g(n) = n - 1; the claim at a zero is the index itself."""

    def eval_arg(self, n: int) -> int:
        return n - 1

    def claim_values(self, n: int):
        return [n]

    def residue_polys(self):
        return 1, [[-1, 1]]

    def spec_str(self) -> str:
        return "shifted"


@dataclass(frozen=True)
class AlternatingLinear:
    """g(n) = n + (-1)^n; twin claim (n, n+2) at a zero."""

    def eval_arg(self, n: int) -> int:
        return n + (1 if n % 2 == 0 else -1)

    def claim_values(self, n: int):
        return [n, n + 2]

    def residue_polys(self):
        # class 0: even n -> n+1 ; class 1: odd n -> n-1
        return 2, [[1, 1], [-1, 1]]

    def spec_str(self) -> str:
        return "alt-linear"


@dataclass(frozen=True)
class ShevelevLinear:
    """g(n) = n - 1 + (-1)^n, the forward twin-record drive (no zero claim)."""

    def eval_arg(self, n: int) -> int:
        return n - 1 + (1 if n % 2 == 0 else -1)

    def claim_values(self, n: int):
        raise NoClaimDefined("shevelev claims live on forward records, not zeros")

    def residue_polys(self):
        return 2, [[0, 1], [-2, 1]]

    def spec_str(self) -> str:
        return "shevelev"


@dataclass(frozen=True)
class AlternatingQuad:
    """g(n) = 2n^2 + (-1)^n; twin claim (2(n+1)^2 - 1, 2(n+1)^2 + 1)."""

    def eval_arg(self, n: int) -> int:
        return 2 * n * n + (1 if n % 2 == 0 else -1)

    def claim_values(self, n: int):
        base = 2 * (n + 1) ** 2
        return [base - 1, base + 1]

    def residue_polys(self):
        return 2, [[1, 0, 2], [-1, 0, 2]]

    def spec_str(self) -> str:
        return "alt-quad"


@dataclass(frozen=True)
class GoldbachProduct:
    """g(n) = (n-1)(2N-n+1); decomposition claim (g_N, 2N-g_N)."""

    N: int

    def eval_arg(self, n: int) -> int:
        return (n - 1) * (2 * self.N - n + 1)

    def claim_values(self, n: int):
        return sorted([n, 2 * self.N - n])

    def residue_polys(self):
        # (n-1)(2N+1-n) = -(2N+1) + (2N+2) n - n^2
        return 1, [[-(2 * self.N + 1), 2 * self.N + 2, -1]]

    def spec_str(self) -> str:
        return f"goldbach:N={self.N}"


@dataclass(frozen=True)
class GoldbachAlt:
    """g(n) = N - (-1)^n (N-n): n at even steps, 2N-n at odd steps.

    Claim at a zero g_N: the Goldbach pair (g_N+1, 2N-g_N-1).
    """

    N: int
    flip: bool = False  # swap the parity roles (used by the threshold scan)

    def eval_arg(self, n: int) -> int:
        even = n % 2 == 0
        if self.flip:
            even = not even
        return n if even else 2 * self.N - n

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
class BeattyTwin:
    """g(n) = n + r_n with r_n = 2(floor(pi n) - floor(pi (n-1)) - 3) in {0, 2}."""

    def eval_arg(self, n: int) -> int:
        return n + 2 * self.select(n)

    @staticmethod
    def select(n: int) -> int:
        """r_n / 2: 1 where g(n) = n + 2, 0 where g(n) = n."""
        return floor_pi_times(n) - floor_pi_times(n - 1) - 3

    @staticmethod
    def first_unsafe_index(n: int) -> int:
        """Least i > n at which eval_arg(i) may raise BeattyPrecisionError."""
        return n + 1 if n < 0 else max(first_imprecise(n), n + 1)

    def claim_values(self, n: int):
        return [n + 1, n + 3]

    def residue_polys(self):
        return self.select, [[0, 1], [2, 1]]

    def spec_str(self) -> str:
        return "beatty"


@dataclass(frozen=True)
class RowlandIndex:
    """g(n) = n, the classic forward-additive drive (no zero claim)."""

    def eval_arg(self, n: int) -> int:
        return n

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


def _kv_pairs(body: str) -> dict:
    out = {}
    for part in body.split(","):
        if "=" not in part:
            raise SpecParseError(f"expected key=value, got {part!r}")
        k, v = part.split("=", 1)
        out[k] = v
    return out


def parse_spec(text: str):
    """Parse the compact CLI spec form, e.g. 'affine:m=5' or 'periodic:m=1,offsets=0;2'."""
    text = text.strip()
    tag, _, body = text.partition(":")
    try:
        if tag in _NO_ARG:
            if body:
                raise SpecParseError(f"{tag} takes no parameters")
            return _NO_ARG[tag]()
        kv = _kv_pairs(body)
        if tag == "affine":
            return AffineMinus(m=int(kv["m"]))
        if tag == "power":
            return PowerMinus(b=int(kv["b"]), c=int(kv["c"]))
        if tag == "primepower":
            return PrimePowerMinusOne(p=int(kv["p"]))
        if tag == "quadshift":
            return QuadShift(m=int(kv["m"]))
        if tag == "poly":
            return Polynomial(coeffs=parse_poly(kv["p"]))
        if tag == "factored":
            return FactoredPolynomial(factors=[parse_poly(q) for q in kv["q"].split("|")])
        if tag == "periodic":
            return PeriodicAffine(m=int(kv["m"]), offsets=[int(b) for b in kv["offsets"].split(";")])
        if tag == "periodic-factored":
            return PeriodicFactorSchedule(
                factors=[parse_poly(q) for q in kv["q"].split("|")],
                schedule=[int(j) for j in kv["schedule"].split(";")],
            )
        if tag == "goldbach":
            return GoldbachProduct(N=int(kv["N"]))
        if tag == "goldbach-alt":
            return GoldbachAlt(N=int(kv["N"]), flip=bool(int(kv.get("flip", "0"))))
    except SpecParseError:
        raise
    except (KeyError, ValueError) as exc:
        raise SpecParseError(f"bad spec {text!r}: {exc}") from exc
    raise SpecParseError(f"unknown spec tag {tag!r}")
