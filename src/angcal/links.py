"""Label-generation links: affine maps composed with a base squashing function.

A link turns the linear index w'x into a Bernoulli success probability.
Three families are supported, each parametrized by slope `a` and
intercept `b` applied to the input before squashing:

    sigmoid : u -> 1 / (1 + exp(-(a*u + b)))
    probit  : u -> Phi(a*u + b), Phi the standard normal CDF
    crelu   : u -> min(1, max(0, a*u + b))

`a = 0` yields a constant link; it is allowed here (degenerate cases are
useful for tests and null experiments) and rejected only by operations
that genuinely divide by `a`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit, ndtr

from .errors import ContractError, _is_finite_real

LINK_KINDS = ("sigmoid", "probit", "crelu")

#: Slope of the probit that best matches the standard sigmoid,
#: sigmoid(x) ~= Phi(sqrt(pi/8) * x). Used to translate sigmoid-family
#: experiments into the probit parametrization.
SIGMOID_PROBIT_BRIDGE = math.sqrt(math.pi / 8.0)


@dataclass(frozen=True)
class LinkFunction:
    """An affine-then-squash link; immutable and vectorized over inputs; a and b are finite reals, kept as floats."""

    kind: str
    a: float
    b: float

    def __post_init__(self):
        if self.kind not in LINK_KINDS:
            raise ContractError(f"unknown link kind {self.kind!r}; expected one of {LINK_KINDS}")
        if not (_is_finite_real(self.a) and _is_finite_real(self.b)):
            raise ContractError(f"link parameters must be finite reals, got a={self.a!r}, b={self.b!r}")
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))

    def __call__(self, u):
        u = np.asarray(u, dtype=np.float64)
        t = np.empty_like(u)  # the one temporary: a*u, then + b and the squash in place
        with np.errstate(over="ignore"):  # +-inf squashes to exactly 0 or 1
            np.multiply(self.a, u, out=t)
            t += self.b
        if self.kind == "sigmoid":
            expit(t, out=t)
        elif self.kind == "probit":
            ndtr(t, out=t)
        else:
            np.clip(t, 0.0, 1.0, out=t)
        return t if t.ndim else t[()]  # a scalar in, a numpy scalar out

    def label(self) -> str:
        return f"{self.kind}({self.a:g}u{self.b:+g})"

    @classmethod
    def parse(cls, text: str) -> "LinkFunction":
        """Parse 'kind:a:b' (e.g. 'sigmoid:3:1', 'crelu:3:0.5').

        Omitted parameters default to the values used throughout the
        bundled experiments: sigmoid/probit a=3, b=1; crelu a=3, b=0.5.
        """
        parts = text.split(":")
        kind = parts[0].strip().lower()
        if kind not in LINK_KINDS:
            raise ContractError(f"cannot parse link {text!r}")
        defaults = {"sigmoid": (3.0, 1.0), "probit": (3.0, 1.0), "crelu": (3.0, 0.5)}
        a, b = defaults[kind]
        try:
            if len(parts) > 1 and parts[1]:
                a = float(parts[1])
            if len(parts) > 2 and parts[2]:
                b = float(parts[2])
        except ValueError as exc:
            raise ContractError(f"cannot parse link parameters in {text!r}") from exc
        if len(parts) > 3:
            raise ContractError(f"cannot parse link {text!r}")
        return cls(kind, a, b)


def _require_link(link) -> None:
    """ContractError unless `link` is a LinkFunction."""
    if not isinstance(link, LinkFunction):
        raise ContractError(f"link must be a LinkFunction, got {type(link).__name__}")
