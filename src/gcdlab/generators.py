"""The gcd-argument families g(n) and their prime-claim maps.

Each variant states g once, as residue_factors() = (sel, classes): g(n) is
the product of the factor polynomials Q_j in classes[sel(n)], sel being an
int period beta (n mod beta) or a callable.  The paper's claim is the same
for every such g: where the recursion reaches zero at n, each Q_j(n + 1) is
prime.  So the Family base derives residue_polys() = (sel, polys), the
class products that the engine reads (its naive stepping via eval_form);
eval_arg(n) = polys[sel(n)](n); and claim_values(n), the sorted Q_j(n + 1)
as the class's _claim keeps them: set drops a repeat, list (the Goldbach
pairs) keeps it, and None (rowland, shevelev) raises NoClaimDefined.

Its spec string, tag:key=value,..., is stated once too: the tag in its class
statement and a _key field per key, from which Family.spec_str and
parse_spec both derive.
"""
from __future__ import annotations

import re
from dataclasses import MISSING, dataclass, field, fields
from functools import cached_property, reduce


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


# ---------------------------------------------------------------------------
# variants


def eval_form(form, n: int) -> int:
    """g(n) = polys[sel(n)](n) for a residue_polys() form (sel, polys)."""
    sel, polys = form
    return poly_eval(polys[n % sel if isinstance(sel, int) else sel(n)], n)


def _flip(v: str) -> bool:
    if v not in ("0", "1"):
        raise ValueError(f"flip must be 0 or 1, got {v!r}")
    return v == "1"


# spec-key codecs: (read the text after "key=", write the field's value)
_INT = (int, str)
_INTS = (lambda v: [int(x) for x in v.split(";")], lambda t: ";".join(map(str, t)))
_POLY = (parse_poly, poly_str)
_POLYS = (lambda v: [parse_poly(q) for q in v.split("|")], lambda t: "|".join(map(poly_str, t)))
_FLAG = (_flip, lambda b: "1" if b else "0")


def _key(codec, key=None, **kw):
    """A spec-key field, read and written by codec; key is its name in spec
    strings where that is not the field's name."""
    return field(metadata={"codec": codec, "key": key}, **kw)


def _keys(cls) -> dict:
    """key -> field, for the spec keys of cls (all its fields) in field order."""
    return {f.metadata["key"] or f.name: f for f in fields(cls)}


_FAMILIES = {}  # tag -> family class


class Family:
    """Base of the variants.  g is stated once, as residue_factors() = (sel,
    classes), and residue_polys, eval_arg and claim_values derive from it.
    The spec string is stated once too: the tag in the class statement and a
    _key field per key, from which spec_str and parse_spec both derive."""

    def __init_subclass__(cls, tag: str, **kw):
        super().__init_subclass__(**kw)
        cls.tag = tag
        _FAMILIES[tag] = cls

    def residue_polys(self):
        """(sel, polys) with g(n) = polys[sel(n)](n): each class's product,
        a single factor copied as a list."""
        sel, classes = self.residue_factors()
        return sel, [reduce(poly_mul, rest, list(first)) for first, *rest in classes]

    @cached_property
    def _form(self):
        # eval_arg's copy of residue_polys(), made once per instance; the
        # engine calls residue_polys() itself, so its specs hold no copy
        return self.residue_polys()

    def eval_arg(self, n: int) -> int:
        return eval_form(self._form, n)

    _claim = set  # set, list or None: how claim_values keeps the Q_j(n + 1)

    def claim_values(self, n: int):
        """The values asserted prime when the recursion reaches zero at n."""
        if self._claim is None:
            raise NoClaimDefined(f"{self.tag} claims live on forward records, not zeros")
        return sorted(self._claim(poly_eval(f, n + 1) for factors in self.residue_factors()[1] for f in factors))

    def spec_str(self) -> str:
        """tag:key=value,... in field order, less the keys at their default."""
        body = ",".join(
            f"{key}={f.metadata['codec'][1](getattr(self, f.name))}"
            for key, f in _keys(type(self)).items()
            if getattr(self, f.name) != f.default
        )
        return f"{self.tag}:{body}" if body else self.tag


@dataclass(frozen=True)
class AffineMinus(Family, tag="affine"):
    """g(n) = m*n - 1; claims m(n+1)+m-1... i.e. m*n+m-1 at a zero index n."""

    m: int = _key(_INT)

    def residue_factors(self):
        return 1, [[[-1, self.m]]]


@dataclass(frozen=True)
class PowerMinus(Family, tag="power"):
    """g(n) = b*n^c - 1; claim b(n+1)^c - 1."""

    b: int = _key(_INT)
    c: int = _key(_INT)

    def __post_init__(self):
        if self.b < 1 or self.c < 1:
            raise ValueError(f"power needs b >= 1 and c >= 1, got b={self.b}, c={self.c}")

    def residue_factors(self):
        return 1, [[[-1] + [0] * (self.c - 1) + [self.b]]]


@dataclass(frozen=True)
class PrimePowerMinusOne(Family, tag="primepower"):
    """g(n) = n^p - 1 = (n-1)(1 + n + ... + n^(p-1)); claims n and ((n+1)^p - 1)/n."""

    p: int = _key(_INT)

    def __post_init__(self):
        if self.p < 1:
            raise ValueError(f"primepower needs p >= 1, got p={self.p}")

    def residue_factors(self):
        return 1, [[[-1, 1], [1] * self.p]]


@dataclass(frozen=True)
class QuadShift(Family, tag="quadshift"):
    """g(n) = n(n+2m); claims n+1 and n+2m+1."""

    m: int = _key(_INT)

    def residue_factors(self):
        return 1, [[[0, 1], [2 * self.m, 1]]]


@dataclass(frozen=True)
class TripletProduct(Family, tag="triplet"):
    """g(n) = n(n+2)(n+6); claims the (p, p+2, p+6) triplet at n+1."""

    def residue_factors(self):
        return 1, [[[0, 1], [2, 1], [6, 1]]]


@dataclass(frozen=True)
class Polynomial(Family, tag="poly"):
    """g(n) = P(n) for an arbitrary integer polynomial; claim P(n+1)."""

    coeffs: tuple = _key(_POLY, "p")

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if not any(self.coeffs):
            raise ValueError("polynomial needs a nonzero coefficient")

    def residue_factors(self):
        return 1, [[self.coeffs]]


@dataclass(frozen=True)
class FactoredPolynomial(Family, tag="factored"):
    """g(n) = prod Q_j(n); claims all Q_j(n+1) simultaneously prime."""

    factors: tuple = _key(_POLYS, "q")

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(tuple(f) for f in self.factors))
        if not self.factors:
            raise ValueError("need at least one factor")

    def residue_factors(self):
        return 1, [self.factors]


@dataclass(frozen=True)
class PeriodicAffine(Family, tag="periodic"):
    """g(n) = m*n + b(n) with beta-periodic offsets, b(n) = offsets[(n-1) % beta]."""

    m: int = _key(_INT)
    offsets: tuple = _key(_INTS)

    def __post_init__(self):
        object.__setattr__(self, "offsets", tuple(self.offsets))
        if not self.offsets:
            raise ValueError("offsets must be non-empty")

    def residue_factors(self):
        # class r = n mod beta holds the offset b(n) = offsets[r - 1]
        offsets = self.offsets[-1:] + self.offsets[:-1]
        return len(offsets), [[[b, self.m]] for b in offsets]


@dataclass(frozen=True)
class PeriodicFactorSchedule(Family, tag="periodic-factored"):
    """g(n) = Q_{b(n)}(n) where b(n) = schedule[(n-1) % beta] cycles through
    a permutation of 1..beta."""

    factors: tuple = _key(_POLYS, "q")
    schedule: tuple = _key(_INTS)

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(tuple(f) for f in self.factors))
        object.__setattr__(self, "schedule", tuple(self.schedule))
        if not self.factors:
            raise ValueError("need at least one factor")
        if sorted(self.schedule) != list(range(1, len(self.factors) + 1)):
            raise ValueError("schedule must be a permutation of 1..beta")

    def residue_factors(self):
        # class r = n mod beta holds Q_{schedule[r - 1]}
        schedule = self.schedule[-1:] + self.schedule[:-1]
        return len(schedule), [[self.factors[j - 1]] for j in schedule]


@dataclass(frozen=True)
class ShiftedIndex(Family, tag="shifted"):
    """g(n) = n - 1; the claim at a zero is the index itself."""

    def residue_factors(self):
        return 1, [[[-1, 1]]]


@dataclass(frozen=True)
class AlternatingLinear(Family, tag="alt-linear"):
    """g(n) = n + (-1)^n; twin claim (n, n+2) at a zero."""

    def residue_factors(self):
        # class 0: even n -> n+1 ; class 1: odd n -> n-1
        return 2, [[[1, 1]], [[-1, 1]]]


@dataclass(frozen=True)
class ShevelevLinear(Family, tag="shevelev"):
    """g(n) = n - 1 + (-1)^n, the forward twin-record drive (no zero claim)."""

    _claim = None

    def residue_factors(self):
        return 2, [[[0, 1]], [[-2, 1]]]


@dataclass(frozen=True)
class AlternatingQuad(Family, tag="alt-quad"):
    """g(n) = 2n^2 + (-1)^n; twin claim (2(n+1)^2 - 1, 2(n+1)^2 + 1)."""

    def residue_factors(self):
        return 2, [[[1, 0, 2]], [[-1, 0, 2]]]


@dataclass(frozen=True)
class GoldbachProduct(Family, tag="goldbach"):
    """g(n) = (n-1)(2N-n+1); decomposition claim (g_N, 2N-g_N), which keeps a
    repeated summand: N = 7 at n = 7 claims [7, 7]."""

    _claim = list

    N: int = _key(_INT)

    def residue_factors(self):
        return 1, [[[-1, 1], [2 * self.N + 1, -1]]]


@dataclass(frozen=True)
class GoldbachAlt(Family, tag="goldbach-alt"):
    """g(n) = N - (-1)^n (N-n): n at even steps, 2N-n at odd steps.

    Claim at a zero g_N: the Goldbach pair (g_N+1, 2N-g_N-1), which keeps a
    repeated summand: N = 7 at n = 6 claims [7, 7].
    """

    _claim = list

    N: int = _key(_INT)
    flip: bool = _key(_FLAG, default=False)  # swap the parity roles (used by the threshold scan)

    def residue_factors(self):
        even_poly, odd_poly = [0, 1], [2 * self.N, -1]
        if self.flip:
            even_poly, odd_poly = odd_poly, even_poly
        return 2, [[even_poly], [odd_poly]]


@dataclass(frozen=True)
class BeattyTwin(Family, tag="beatty"):
    """g(n) = n + r_n with r_n = 2(floor(pi n) - floor(pi (n-1)) - 3) in {0, 2}."""

    @staticmethod
    def select(n: int) -> int:
        """r_n / 2: 1 where g(n) = n + 2, 0 where g(n) = n."""
        return floor_pi_times(n) - floor_pi_times(n - 1) - 3

    def residue_factors(self):
        return self.select, [[[0, 1]], [[2, 1]]]


@dataclass(frozen=True)
class RowlandIndex(Family, tag="rowland"):
    """g(n) = n, the classic forward-additive drive (no zero claim)."""

    _claim = None

    def residue_factors(self):
        return 1, [[[0, 1]]]


# ---------------------------------------------------------------------------
# serialization


def parse_spec(text: str):
    """Parse the compact CLI spec form, e.g. 'affine:m=5' or 'periodic:m=1,offsets=0;2'.

    A key the tag does not read, a key given twice and a missing key are
    each a SpecParseError that names the key."""
    text = text.strip()
    tag, _, body = text.partition(":")
    if tag not in _FAMILIES:
        raise SpecParseError(f"unknown spec tag {tag!r}")
    keys = _keys(_FAMILIES[tag])
    if body and not keys:
        raise SpecParseError(f"{tag} takes no parameters")
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
    missing = [key for key, f in keys.items() if f.default is MISSING and key not in given]
    if missing:
        raise SpecParseError(f"bad spec {text!r}: {tag} needs key {', '.join(missing)}")
    try:
        read = {f.name: f.metadata["codec"][0](given[key]) for key, f in keys.items() if key in given}
        return _FAMILIES[tag](**read)
    except ValueError as exc:
        raise SpecParseError(f"bad spec {text!r}: {exc}") from exc
