"""Differentiation and quadrature on doubly periodic N x N grids.

Grids sample the parameter square [0, 2pi)^2 at u_a = 2pi a / N, with
axis 0 = u and axis 1 = v.  Fields may carry trailing component axes
(scalars (N,N), one-forms (N,N,2), ambient vectors (N,N,6)).

Three schemes are supported: second- and fourth-order central
differences ("fd2", "fd4") and Fourier spectral differentiation
("spectral", an rfft/irfft pair along the differentiated axis).
First-derivative stencils are antisymmetric circulants, so summation by
parts sum (D f) g = -sum f (D g) holds exactly on the grid for every
scheme; divergence-form quantities therefore integrate to zero to
rounding.

The module is also the one home of the Fourier convention: integer
frequencies in FFT order and a real 2-D filter by an even multiplier.
"""

from __future__ import annotations

import functools

import numpy as np

SCHEMES = ("fd2", "fd4", "spectral")
LENGTH = 2.0 * np.pi


def check_scheme(scheme):
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")


def _shift(f, s, axis):
    """f shifted so output[i] = f[i+s] (periodic)."""
    return np.roll(f, -s, axis=axis)


@functools.lru_cache(maxsize=32)
def _fourier_multiplier(n, order):
    """(ik)^order on the rfft frequencies 0..n/2 of n points, read-only (cached)."""
    k = np.fft.rfftfreq(n, d=1.0 / n)
    if order % 2 == 1:
        k[n // 2] = 0.0  # Nyquist mode has no well-defined odd derivative
    mult = (1j * k) ** order
    mult.setflags(write=False)
    return mult


def _spectral_deriv(f, axis, order):
    n = f.shape[axis]
    shape = [1] * f.ndim
    shape[axis] = n // 2 + 1
    mult = _fourier_multiplier(n, order).reshape(shape)
    return np.fft.irfft(np.fft.rfft(f, axis=axis) * mult, n=n, axis=axis)


def deriv(f, axis, scheme, order=1):
    """Periodic derivative of the given order (1 or 2) along axis 0 or 1."""
    check_scheme(scheme)
    f = np.asarray(f, dtype=float)
    n = f.shape[axis]
    h = LENGTH / n
    if scheme == "spectral":
        return _spectral_deriv(f, axis, order)
    if order == 1:
        if scheme == "fd2":
            return (_shift(f, 1, axis) - _shift(f, -1, axis)) / (2 * h)
        return (
            -_shift(f, 2, axis)
            + 8 * _shift(f, 1, axis)
            - 8 * _shift(f, -1, axis)
            + _shift(f, -2, axis)
        ) / (12 * h)
    if order == 2:
        if scheme == "fd2":
            return (_shift(f, 1, axis) - 2 * f + _shift(f, -1, axis)) / h**2
        return (
            -_shift(f, 2, axis)
            + 16 * _shift(f, 1, axis)
            - 30 * f
            + 16 * _shift(f, -1, axis)
            - _shift(f, -2, axis)
        ) / (12 * h**2)
    raise ValueError(f"unsupported derivative order {order}")


def frequencies(n):
    """Integer Fourier frequencies of n points in FFT order: 0, 1, ..., -1."""
    return np.fft.fftfreq(n, d=1.0 / n)


def fourier_filter(f, mult):
    """Real part of ifft2(fft2(f) * mult) for an (n, n) multiplier even in k, by rfft2/irfft2."""
    return np.fft.irfft2(np.fft.rfft2(f) * mult[:, : f.shape[1] // 2 + 1], s=f.shape)


def grid_nodes(n):
    """Node coordinates (U, V), each (n, n), u-major."""
    t = LENGTH * np.arange(n) / n
    return np.meshgrid(t, t, indexing="ij")


def cell_area(n):
    return (LENGTH / n) ** 2

