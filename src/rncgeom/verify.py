"""End-to-end verification campaigns with JSON-serializable reports.

Every campaign is driven by a seed and a trial count; exact genericity
failures trigger bounded resampling and, when persistent, an explicit
"inconclusive" verdict distinct from "fail".  All comparisons are exact.
The campaigns know no family: they reach a spec's curves through
``rnc`` and its specialness witness through ``spec.witness()``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from . import catalog, rnc
from .catalog import (
    ClassParams,
    declared_class,
    pi,
    pi_formula,
    ponderation,
    spec_to_json,
)
from .errors import (
    DegenerateCurveError,
    DegenerateParametrizationError,
    GeneralPositionError,
    GenericityError,
    SpecError,
    SplittingFieldRequiredError,
)
from .osculation import (
    contact_locus_dim_monomial,
    osculating_projection_map,
    project_curve,
)
from .poly import eval_homogeneous
from .rnc import certify_curve, curve_contains_point
from .sampling import MAX_RETRIES, rand_distinct_rationals

RESAMPLE_ERRORS = (
    GenericityError,
    GeneralPositionError,
    DegenerateCurveError,
    DegenerateParametrizationError,
)

SCHEMA_VERSION = 1


def _trial_rng(seed: int, trial: int) -> random.Random:
    return random.Random((int(seed) * 1_000_003 + trial) & 0xFFFFFFFFFFFFFFFF)


def _run_trials(report, trials: int, seed: int, attempt) -> None:
    """The trial-and-resample loop shared by the campaigns.

    ``attempt(rng, resamples)`` runs one attempt of a trial and returns its
    record fields and whether they pass.  An attempt raising one of
    RESAMPLE_ERRORS is drawn again from the same rng, at most MAX_RETRIES
    times.  A trial that needs a splitting field or runs out of retries
    records why and turns a passing campaign inconclusive; the first
    failing trial ends the campaign.  A campaign of no trials would pass
    on nothing, so ``trials`` must be at least 1.
    """
    if trials < 1:
        raise SpecError("trials must be at least 1")
    inconclusive = False
    for trial in range(trials):
        rng = _trial_rng(seed, trial)
        record = {"seed": trial}
        for resamples in range(MAX_RETRIES + 1):
            try:
                fields, ok = attempt(rng, resamples)
            except SplittingFieldRequiredError as exc:
                record.update(
                    fit="splitting_field_required",
                    resamples=resamples,
                    discriminant=str(exc.discriminant),
                )
                inconclusive = True
                break
            except RESAMPLE_ERRORS:
                continue
            record.update(fields)
            if not ok:
                report.verdict = "fail"
            break
        else:
            record.update(fit="genericity_exhausted", resamples=MAX_RETRIES)
            inconclusive = True
        report.trials.append(record)
        if report.verdict == "fail":
            break
    if report.verdict == "pass" and inconclusive:
        report.verdict = "inconclusive"


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


@dataclass
class MembershipReport:
    spec: dict
    declared: tuple  # (r, n, q)
    span_found: int
    span_expected: int
    trials: list = field(default_factory=list)
    verdict: str = "pass"

    def to_json(self) -> dict:
        r, n, q = self.declared
        return {
            "schema": SCHEMA_VERSION,
            "kind": "membership",
            "spec": self.spec,
            "class": {"r": r, "n": n, "q": q},
            "span": {"found": self.span_found, "expected": self.span_expected},
            "trials": self.trials,
            "verdict": self.verdict,
        }


def verify_membership(
    spec, trials: int = 20, seed: int = 0, declare: Optional[ClassParams] = None
) -> MembershipReport:
    """Class-membership check: span equals pi, fits certify as degree-q RNCs.

    ``declare`` overrides the declared class (used to exercise the fail
    path).  Persistent genericity failures give an inconclusive verdict.
    """
    variety = catalog.make_variety(spec)
    params = declare or declared_class(spec)
    expected_span = pi_formula(params)
    found_span = variety.span().dim
    report = MembershipReport(
        spec_to_json(spec), (params.r, params.n, params.q), found_span, expected_span
    )
    if found_span != expected_span:
        report.verdict = "fail"
        return report

    def attempt(rng, resamples):
        points = rnc.sample_parameter_points(spec, rng)
        curve = rnc.fit_rnc_through(spec, points)
        cert = certify_curve(curve)
        incidence = all(curve_contains_point(curve, variety.eval(p)) for p in points)
        record = {
            "fit": "ok",
            "resamples": resamples,
            "certificate": cert.to_json(),
            "incidence": incidence,
        }
        return record, cert.is_rnc and cert.degree == params.q and incidence

    _run_trials(report, trials, seed, attempt)
    return report


# ---------------------------------------------------------------------------
# osculating projections (Veronese images)
# ---------------------------------------------------------------------------


@dataclass
class ProjectionReport:
    spec: dict
    declared: tuple
    ponderation: tuple
    trials: list = field(default_factory=list)
    verdict: str = "pass"

    def to_json(self) -> dict:
        r, n, q = self.declared
        return {
            "schema": SCHEMA_VERSION,
            "kind": "veronese-projection",
            "spec": self.spec,
            "class": {"r": r, "n": n, "q": q},
            "ponderation": list(self.ponderation),
            "trials": self.trials,
            "verdict": self.verdict,
        }


def verify_veronese_projection(spec, trials: int = 3, seed: int = 0) -> ProjectionReport:
    """Project from osculators at an admissible (n-2)-tuple onto a Veronese.

    Checks, per trial: the image spans pi_{r,2}(rho); a fitted curve
    through the centers projects to a certified degree-rho RNC passing
    through the projected extra points, injectively at sampled
    parameters; and the single-point projection lands in the span of the
    class (r, n-1, q - rho_1 - 1).  The centers are drawn per trial from
    the seed, with the pondération of the class.  At n = 3 the single
    point is the whole center, so its image is the one already built.
    """
    params = declared_class(spec)
    if params.n < 3:
        raise SpecError("projection campaign needs a class with n >= 3")
    pond = ponderation(params)
    variety = catalog.make_variety(spec)
    report = ProjectionReport(
        spec_to_json(spec), (params.r, params.n, params.q), pond
    )
    rho = pond[-1]
    image_span_expected = pi(params.r, 2, rho)
    single_span_expected = pi(params.r, params.n - 1, params.q - pond[0] - 1)

    def attempt(rng, resamples):
        sampled = rnc.sample_parameter_points(spec, rng)
        centers = [(sampled[i], pond[i]) for i in range(params.n - 2)]
        proj, image = osculating_projection_map(variety, centers)
        span_found = image.span().dim
        record = {"image_span": {"found": span_found, "expected": image_span_expected}}

        curve = rnc.fit_rnc_through(spec, sampled)
        proj_curve = project_curve(proj, curve)
        cert = certify_curve(proj_curve)
        record["projected_curve"] = cert.to_json()

        extras = sampled[params.n - 2 :]
        incidence = all(
            curve_contains_point(proj_curve, image.eval(p)) for p in extras
        )
        record["projected_incidence"] = incidence

        tvals = rand_distinct_rationals(rng, 3)
        # a normalized curve has no base point, so no value is zero
        values = eval_homogeneous(proj_curve.integer_lists(), [(t, 1) for t in tvals])
        injective = not any(
            rnc._is_multiple(values[i], values[j])
            for i in range(len(values))
            for j in range(i + 1, len(values))
        )
        record["injective_at_samples"] = injective

        single_image = image
        if params.n > 3:
            _, single_image = osculating_projection_map(variety, [(sampled[0], pond[0])])
        single_found = single_image.span().dim
        record["single_point_span"] = {
            "found": single_found,
            "expected": single_span_expected,
        }

        ok = (
            span_found == image_span_expected
            and cert.is_rnc
            and cert.degree == rho
            and incidence
            and injective
            and single_found == single_span_expected
        )
        return record, ok

    _run_trials(report, trials, seed, attempt)
    return report


# ---------------------------------------------------------------------------
# specialness witnesses
# ---------------------------------------------------------------------------


@dataclass
class SpecialnessWitness:
    spec: dict
    kind: str  # "regularity-order" or "contact-dimension"
    measured: int
    standard_reference: int
    verdict: str  # "special" or "standard-compatible"
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "kind": "specialness",
            "spec": self.spec,
            "witness": self.kind,
            "measured": self.measured,
            "standard_reference": self.standard_reference,
            "verdict": self.verdict,
            "details": self.details,
        }


def specialness_witness(spec) -> SpecialnessWitness:
    """Separating invariant distinguishing a spec from the standard models."""
    doc = spec_to_json(spec)
    if not hasattr(spec, "witness"):
        raise SpecError(f"no specialness witness for {spec!r}")
    return SpecialnessWitness(doc, *spec.witness())


# ---------------------------------------------------------------------------
# scroll-model inequivalence invariants
# ---------------------------------------------------------------------------


@dataclass
class InequivalenceReport:
    scroll: tuple
    rho: int
    relation: str  # "equal-sets" | "swap-equivalent" | "inequivalent"
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "kind": "inequivalence",
            "scroll": list(self.scroll),
            "rho": self.rho,
            "relation": self.relation,
            "details": self.details,
        }


def inequivalence_invariants(a: catalog.ScrollSpec, rho: int) -> InequivalenceReport:
    """Compare the two standard models A(rho, -1) and A(rho-1, n-2).

    Cone scrolls give the same index set; n=3 balanced scrolls are
    related by swapping the parameters t and s_1; otherwise a contact
    dimension of codimension >= 2 separates the models.
    """
    n, r = a.n, a.r
    if rho < 2:
        raise SpecError("the branch q = -1 mod n-1 needs rho >= 2")
    big = catalog.build_A(a, rho, -1)
    small = catalog.build_A(a, rho - 1, n - 2)

    if a.is_cone:
        equal = big == small
        return InequivalenceReport(
            a.degrees,
            rho,
            "equal-sets" if equal else "inequivalent",
            {"set_equality": equal},
        )

    if n == 3 and a.degrees[0] == a.degrees[1] == 1:
        swapped = catalog.IndexSet(
            big.nvars,
            [(idx[1], idx[0]) + idx[2:] for idx in big.indices],
        )
        target = catalog.build_A(a, rho - 1, 1)
        ok = swapped == target
        return InequivalenceReport(
            a.degrees,
            rho,
            "swap-equivalent" if ok else "inequivalent",
            {"swap_matches_A(rho-1,1)": ok},
        )

    dim_big = contact_locus_dim_monomial(big.sorted_indices(), big.nvars, rho - 1)
    dim_small = contact_locus_dim_monomial(small.sorted_indices(), small.nvars, rho - 1)
    separated = dim_big <= r - 1 and dim_small == r
    return InequivalenceReport(
        a.degrees,
        rho,
        "inequivalent" if separated else "equal-sets",
        {
            "contact_dim_A(rho,-1)": dim_big,
            "contact_dim_A(rho-1,n-2)": dim_small,
            "codimension_ge_2": dim_big <= r - 1,
        },
    )
