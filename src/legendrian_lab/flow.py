"""Legendrian-constrained steepest descent of area.

The descent potential is f = div(J0 H): among the Legendrian-preserving
normal deformations V_f = f R + (1/2) J0 grad f, it gives
dA = -int f^2 <= 0, and its zeros are exactly the contact stationary
surfaces.  The flow runs on a LegendrianGraph, the torus
arg z3 = h - arg z1 - arg z2, and a step h <- h + tau f / rho3 has
contact component rho3 dh = f, that of V_f: the same first-order descent,
and every iterate is Legendrian to rounding by construction.

The cone over a Legendrian surface is Lagrangian in C^3, with Lagrangian
angle beta = arg det_C(z, z_u, z_v) and 2H = J0 grad beta (Oh, Math. Z.
212, 1993; Schoen and Wolfson, J. Differential Geom. 58, 2001), so
f = -(1/2) Delta_g beta: raw_potential takes it from the graph's angle and
metric with four scalar derivatives.  A flow step builds no jets, frame or
DerivedGeometry; run_flow builds one, of the final surface, for the
certificates of its report.

Four numerical safeguards wrap the raw direction; all four keep descent
intact, and the stationarity metric ||div JH||_2 is always evaluated on
the raw field:

* the potential is preconditioned by 1/Q(lambda) on lambda > 6 in the
  flat Fourier basis, Q(lambda) = lambda(lambda - 6)/4 the flat minimal
  torus's second-variation spectrum, so tau = 1 is close to a Newton step
  (a Sobolev gradient: Renka and Neuberger, SIAM J. Sci. Comput. 16, 1995;
  unpreconditioned, the fourth-order flow would need tau ~ N^-4);
* the modes with lambda <= 6 are removed: the six with 0 < lambda < 6
  are the torus's area-lowering Legendrian saddle directions, and
  descending along their roundoff-seeded content runs away from the
  stationary set instead of certifying it; lambda = 0 and lambda = 6,
  where Q = 0, are the area-neutral phase and U(3) motions;
* the modes with |k_u| or |k_v| >= N/3 are removed (Orszag's 2/3 rule):
  there the raw div JH is mostly aliasing, and descending along it
  costs steps at every N and stalls the flow at N >= 64;
* each step caps tau max|V_f|, the node displacement of the matching V_f
  step, and a halving line search accepts only a trial that is a graph,
  whose angle stays on its branch, and that has a smaller area.

The 2/3 cut adds fixed points: surfaces whose raw div JH lies in the cut
band.  The descent field and the band part come from one transform of
each accepted potential.  run_flow stops as "under-resolved" when the
band part exceeds the target while the passband part meets it, or while
the band holds most of div JH at the start or after a stalled line search
(a stall on a larger passband part is the step size's, not the grid's).
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass, field

import numpy as np

from . import contact, extrinsic, grid_ops, grids
from .contact import dot
from .immersions import GridSurface, LegendrianGraph, variation_field_on_positions
from .report import Report

TAU_UNDERFLOW = 1e-12
MAX_HALVINGS = 20
DEFAULT_TAU0 = 1.0  # fraction of the preconditioned (Newton-like) step
DEFAULT_MAX_STEPS = 5000
DEFAULT_TOL = 1e-4
STEP_CAP = 1e-2  # largest node displacement of one step
DIV_JH_FLOOR = 1e-10  # absolute stationarity target of run_flow


def area_of_positions(surface: GridSurface):
    """Area of a grid surface from its (cached) metric alone: one line-search trial."""
    return grids.quadrature(1.0, surface.sqrt_det)


def first_variation_check(geo: grid_ops.DerivedGeometry, f, eps=1e-3):
    """Three independent evaluations of dA under the variation V_f.

    geometric:    -int <tr_g B, V_f> dmu  (= -2 int <H, V_f>, H the mean)
    divergence:   -int f div(J0 H) dmu
    finite diff:  [A(+eps) - A(-eps)] / (2 eps) along V_f with sphere
                  re-projection (the projection changes area only at
                  O(eps^2), symmetric in +-eps).
    """
    if not 0 < eps <= 1e-2:
        raise ValueError("finite-difference step eps must lie in (0, 1e-2]")
    geo.check_legendrian(what="first_variation_check")
    f = np.asarray(f, dtype=float)
    v = variation_field_on_positions(geo.surface, f, (geo.d(f, 0), geo.d(f, 1)))

    geometric = -2.0 * grid_ops.quadrature(dot(geo.data.Hvec, v), geo)
    divergence = -grid_ops.quadrature(f * grid_ops.div_JH(geo), geo)
    plus, minus = (GridSurface(contact.normalize(geo.frame.p + s * v), geo.scheme)
                   for s in (eps, -eps))
    fd = (area_of_positions(plus) - area_of_positions(minus)) / (2 * eps)
    return geometric, divergence, fd


@functools.lru_cache(maxsize=8)
def _aliased_band(n):
    """Modes cut by the 2/3 rule (J. Atmos. Sci. 28, 1971), |k_u| or |k_v| >= n/3; read-only."""
    cut = np.abs(grids.frequencies(n)) >= n / 3
    return grids.read_only(cut[:, None] | cut[None, :])


@functools.lru_cache(maxsize=8)
def torus_jacobi_multiplier(n):
    """Fourier multiplier of the preconditioned descent: 1/Q on lambda > 6, zero elsewhere.

    lambda(m, n) = 2(m^2 - mn + n^2) is the (negative of the) flat-torus
    Laplacian spectrum; Q = lambda(lambda-6)/4 the area Hessian on
    Legendrian potentials.  The array is cached and read-only.
    """
    k = grids.frequencies(n)
    km, kn = np.meshgrid(k, k, indexing="ij")
    lam = 2.0 * (km**2 - km * kn + kn**2)
    keep = (lam > 6.0) & ~_aliased_band(n)
    mult = np.zeros((n, n))
    mult[keep] = 4.0 / (lam[keep] * (lam[keep] - 6.0))
    return grids.read_only(mult)


def descent_potential(raw):
    """(f, band) of the raw potential by one transform: descent field and 2/3-rule cut band."""
    n = len(raw)
    return grids.fourier_filter(raw, torus_jacobi_multiplier(n), _aliased_band(n))


def raw_potential(graph: LegendrianGraph):
    """f = div(J0 H) = -(1/2) Delta_g beta from the graph's Lagrangian angle and metric.

    Delta_g beta = (1/sqrt g) d_i (sqrt g g^{ij} d_j beta): four scalar
    derivatives.  A ValueError from the angle means it left its branch.
    """
    E, F, G, _ = graph.metric
    sg = graph.sqrt_det
    beta = graph.lagrangian_angle

    def d(field, axis):
        return grids.deriv(field, axis, graph.scheme)

    bu, bv = d(beta, 0), d(beta, 1)
    return -0.5 * (d((G * bu - F * bv) / sg, 0) + d((E * bv - F * bu) / sg, 1)) / sg


def _band_split(div, band, surface: GridSurface):
    """L2 norms of div's 2/3-rule passband and cut-band (band) parts, as div_JH_l2 is taken."""
    return tuple(float(np.sqrt(grids.quadrature(part**2, surface.sqrt_det)))
                 for part in (div - band, band))


@dataclass
class FlowState:
    """Flow iterate: the current graph, div_JH = raw_potential(surface), (f, band) of div_JH.

    Every field describes the last accepted surface, set by _accept; f and band come from
    one transform of div_JH (descent_potential).  The metric is the surface's own, cached.
    """

    surface: LegendrianGraph
    div_JH: np.ndarray
    f: np.ndarray
    band: np.ndarray
    step_index: int = 0
    tau: float = DEFAULT_TAU0
    tau0: float = DEFAULT_TAU0
    area_history: list = field(default_factory=list)
    residual_history: list = field(default_factory=list)  # (divJH_l2, leg_res, frame)
    tau_history: list = field(default_factory=list)
    halvings_history: list = field(default_factory=list)
    stalled: bool = False

    @property
    def area(self):
        return self.area_history[-1]


def _residuals(surface: LegendrianGraph, div):
    """(||div||_2, max |alpha(x_i)|, frame) of a surface; det g is checked first.

    max |alpha(x_i)| is adapted_frame's, extrinsic.legendrian_residual of the
    cached first derivatives, and frame is the flag adapted_frame sets from it.
    """
    extrinsic.check_induced_metric(surface.metric[3])
    au, av = extrinsic.legendrian_residual(surface.positions, *surface.first_derivatives)
    leg = float(np.max(np.maximum(np.abs(au), np.abs(av))))
    frame = "legendrian" if leg <= extrinsic.LEGENDRIAN_FRAME_TOL else "generic"
    return float(np.sqrt(grids.quadrature(div**2, surface.sqrt_det))), leg, frame


def _accept(state: FlowState, surface: LegendrianGraph, div, area):
    """Make surface, of raw potential div, the iterate; a failed det g check changes nothing."""
    residuals = _residuals(surface, div)
    state.surface, state.div_JH = surface, div
    state.f, state.band = descent_potential(div)
    state.area_history.append(area)
    state.residual_history.append(residuals)


def start_flow(surface: LegendrianGraph, tau0=DEFAULT_TAU0) -> FlowState:
    if not isinstance(surface, LegendrianGraph):
        raise ValueError(f"the flow runs on a LegendrianGraph, got {type(surface).__name__}")
    state = FlowState(None, None, None, None, tau=tau0, tau0=tau0)
    _accept(state, surface, raw_potential(surface), grids.quadrature(1.0, surface.sqrt_det))
    return state


def flow_step(state: FlowState) -> FlowState:
    """One accepted descent step h <- h + tau f / rho3 with halving line search on the area.

    tau max|V_f| <= STEP_CAP, with |V_f|^2 = f^2 + (1/4) g^{ij} f_i f_j.
    Rejected trials never enter the histories; tau regrows by 1.5x
    (capped at tau0) after acceptance so one stiff rejection does not pin
    the flow at a tiny step forever.  A stalled step, or one with no
    descent direction, leaves the surface, its potential and the histories
    untouched.
    """
    f, surface = state.f, state.surface
    fu, fv = (grids.deriv(f, axis, surface.scheme) for axis in (0, 1))
    E, F, G, det = surface.metric
    grad2 = (G * fu**2 - 2.0 * F * fu * fv + E * fv**2) / det
    vmax = float(np.sqrt(np.max(f**2 + 0.25 * grad2)))
    if vmax == 0.0:
        state.stalled = True
        return state

    dh = f / surface.rho3
    area = state.area
    tau = min(state.tau, STEP_CAP / vmax)
    accepted = None
    for halvings in range(MAX_HALVINGS + 1):
        if tau < TAU_UNDERFLOW:
            break
        try:  # not a graph, non-finite, or its angle off the branch: halved, as a larger area is
            trial = LegendrianGraph(surface.h + tau * dh, surface.scheme)
            div = raw_potential(trial)
        except ValueError:
            trial = None
        if trial is not None and (trial_area := area_of_positions(trial)) < area:
            accepted = trial
            break
        tau *= 0.5
    if accepted is None:
        state.stalled = True
        return state

    _accept(state, accepted, div, trial_area)
    state.step_index += 1
    state.tau = min(tau * 1.5, state.tau0)
    state.tau_history.append(tau)
    state.halvings_history.append(halvings)
    return state


def write_flow_csv(state: FlowState, path):
    """History CSV: one row per accepted step, header mandatory."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "tau", "area", "div_JH_l2", "legendrian_residual",
                         "halvings", "frame", "rel_area_drop"])
        areas = state.area_history
        for i in range(1, len(areas)):
            div_l2, leg, frame = state.residual_history[i]
            writer.writerow([i] + [repr(float(x)) for x in (
                state.tau_history[i - 1], areas[i], div_l2, leg)]
                + [state.halvings_history[i - 1], frame,
                   repr(float((areas[i - 1] - areas[i]) / areas[i - 1]))])


@dataclass
class FlowResult:
    state: FlowState
    converged: bool
    report: Report
    geometry: grid_ops.DerivedGeometry  # of the final surface, the one run_flow builds


def run_flow(start, tau0=DEFAULT_TAU0, max_steps=DEFAULT_MAX_STEPS,
             tol=DEFAULT_TOL) -> FlowResult:
    """Iterate flow_step until ||div JH||_2 <= tol * initial or max_steps.

    start is a LegendrianGraph, or the FlowState start_flow made of one,
    which already holds its tau0 (the CLI builds it first, so that a start
    whose angle or metric is refused is reported as its start_error).
    Inputs already stationary at the absolute floor terminate at step 0
    (a purely relative target would chase roundoff).  The final report
    says why the flow stopped (stop_reason, see the module docstring for
    under-resolved) and carries the stationarity certificates of the last
    accepted surface: the Euler-Lagrange residual, and W, I1, I2, E and
    Sigma_Simons of grid_ops.surface_integrals, all read off the one
    DerivedGeometry the run builds, and final_div_JH_operator_dev, the
    largest gap between the flow's -(1/2) Delta_g beta and grid_ops.div_JH.
    """
    if not (tol > 0 and tau0 > 0):
        raise ValueError("tol and tau0 must be positive")
    state = start if isinstance(start, FlowState) else start_flow(start, tau0=tau0)
    initial_div = state.residual_history[0][0]
    target = max(tol * initial_div, DIV_JH_FLOOR)
    stop_reason = None
    while stop_reason is None:
        passband, band = _band_split(state.div_JH, state.band, state.surface)
        if state.residual_history[-1][0] <= target:
            stop_reason = "converged"
        elif band > target and (passband <= target
                                or ((state.stalled or state.step_index == 0) and band >= passband)):
            stop_reason = "under-resolved"
        elif state.stalled or state.step_index >= max_steps:
            stop_reason = "stalled" if state.stalled else "max_steps"
        else:
            flow_step(state)
    converged = stop_reason == "converged"

    geo = grid_ops.derived_geometry(state.surface)
    operator_dev = float(np.max(np.abs(state.div_JH - grid_ops.div_JH(geo))))
    integrals = grid_ops.surface_integrals(geo)
    el = grid_ops.el_residual(geo)
    rep = Report()
    rep.set("steps", state.step_index)
    rep.set("converged", converged)
    rep.set("stalled", bool(state.stalled))
    rep.set("stop_reason", stop_reason)
    rep.set("initial_area", state.area_history[0])
    rep.set("final_area", state.area_history[-1])
    rep.set("initial_div_JH_l2", initial_div)
    rep.set("final_div_JH_l2", state.residual_history[-1][0])
    rep.set("final_div_JH_band_l2", band)
    rep.set("final_div_JH_operator_dev", operator_dev)
    rep.set("final_el_residual_sup", float(np.max(contact.norm(el))))
    rep.set("max_legendrian_residual", max(r[1] for r in state.residual_history))
    rep.set("final_S_max_dev", float(np.max(np.abs(geo.data.S - 2.0))))
    for key in ("W", "I1", "I2", "E", "Sigma_Simons"):
        rep.set("final_" + key, integrals[key])
    return FlowResult(state=state, converged=converged, report=rep, geometry=geo)
