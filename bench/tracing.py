"""Outside-in tracing of the program's layers.

Timing wrappers are installed from here, without editing the program: each
one replaces a name where its caller looks it up at call time (a module
global, or a method on a class), records a span (name, start, end, parent,
size) in memory, and is removed again after the traced round.  Per-layer
metrics are computed from the spans of one round; a layer's self time is its
spans' time minus the part covered by the named child spans.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Callable

import numpy as np

from mdlab import identities, qdilog, repcheck, suites
from mdlab.qalgebra import coeffs, ncpoly

IDENTITY_CHECKS = ("verify_tau_binomial", "verify_45", "verify_69")
QALGEBRA_CHECKS = (
    "verify_kac",
    "verify_mixed_commutators",
    "verify_serre_sum",
    "verify_commuting_cases",
    "verify_qbinomial",
    "verify_coproduct_hom",
)


def _points(args: tuple, kwargs: dict) -> int:
    return int(np.size(args[0]))


def _terms(args: tuple, kwargs: dict) -> int:
    return len(args[0].terms)


def _composed_terms(args: tuple, kwargs: dict) -> int:
    return len(args[0].terms) * len(args[1].terms)


class Tracer:
    """Span recorder plus the table of names it patches."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, size]
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def wrap(self, name: str, fn: Callable, size: Callable | None = None) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1,
                   size(args, kwargs) if size else 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()

        return traced

    def _patch(self, owner: Any, attr: str, name: str, size: Callable | None = None) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, size))

    def install(self) -> None:
        # qdilog: every caller that bound gb at import time, and the kernel
        # that gb looks up as a module global.
        for module in (qdilog, identities, suites):
            self._patch(module, "gb", "qdilog.gb", _points)
        self._patch(qdilog, "log_gb_strip", "qdilog.kernel", _points)
        # quadrature: integrate_line as identities sees it, with the
        # integrand wrapped so integrand time and points are separable.
        original_line = identities.integrate_line
        wrap = self.wrap

        def integrate_line(f, *args, **kwargs):
            return original_line(wrap("quadrature.integrand", f, _points), *args, **kwargs)

        self._saved.append((identities, "integrate_line", original_line))
        identities.integrate_line = self.wrap("quadrature.integrate_line", integrate_line)
        for check in IDENTITY_CHECKS:
            self._patch(suites, check, "identities.check")
        # qalgebra: canonicalisation where ncpoly and coeffs look it up,
        # normal ordering on both polynomial classes, and the checks.
        self._patch(ncpoly, "canon", "qalgebra.canon")
        self._patch(ncpoly, "is_zero", "qalgebra.canon")
        self._patch(coeffs, "canon", "qalgebra.canon")
        self._patch(ncpoly.NCPoly, "normal_order", "qalgebra.normal_order", _terms)
        self._patch(ncpoly.NCTensor, "normal_order", "qalgebra.tensor_normal_order", _terms)
        for check in QALGEBRA_CHECKS:
            self._patch(suites, check, "qalgebra.check")
        # repcheck: the module globals verify_relation and compose_all use.
        self._patch(repcheck, "compose", "repcheck.compose", _composed_terms)
        self._patch(repcheck, "apply_operator", "repcheck.apply", _terms)
        self._patch(repcheck, "term_magnitudes", "repcheck.magnitudes", _terms)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for name, start, end, parent, size in self.spans:
                out.write(json.dumps({"name": name, "start": start, "end": end,
                                      "parent": parent, "size": size}) + "\n")


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts and times of one round's spans."""
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)

    def dur(i: int) -> float:
        return spans[i][2] - spans[i][1]

    def covered(i: int, names: tuple[str, ...]) -> float:
        """Time of the outermost descendants of span i named in ``names``."""
        total, todo = 0.0, list(children[i])
        while todo:
            j = todo.pop()
            if spans[j][0] in names:
                total += dur(j)
            else:
                todo.extend(children[j])
        return total

    def outermost(names: tuple[str, ...]) -> list[int]:
        """Spans named in ``names`` with no ancestor named in ``names``."""
        out = []
        for i, s in enumerate(spans):
            if s[0] not in names:
                continue
            p = s[3]
            while p >= 0 and spans[p][0] not in names:
                p = spans[p][3]
            if p < 0:
                out.append(i)
        return out

    def named(name: str) -> list[int]:
        return [i for i, s in enumerate(spans) if s[0] == name]

    line, integrand = named("quadrature.integrate_line"), named("quadrature.integrand")
    gb, kernel = named("qdilog.gb"), named("qdilog.kernel")
    ordering = ("qalgebra.normal_order", "qalgebra.tensor_normal_order")
    canon = outermost(("qalgebra.canon",))
    polys = named("qalgebra.normal_order")
    apply, mags = named("repcheck.apply"), named("repcheck.magnitudes")
    compose = named("repcheck.compose")
    kernel_points = sum(spans[i][4] for i in kernel)
    metrics = {
        "quadrature.calls": len(line),
        "quadrature.integrand_calls": len(integrand),
        "quadrature.integrand_points": sum(spans[i][4] for i in integrand),
        "quadrature.self_s": sum(dur(i) - covered(i, ("quadrature.integrand",)) for i in line),
        "qdilog.gb_calls": len(gb),
        "qdilog.gb_points": sum(spans[i][4] for i in gb),
        "qdilog.reduce_s": sum(dur(i) - covered(i, ("qdilog.kernel",)) for i in gb),
        "qdilog.kernel_calls": len(kernel),
        "qdilog.kernel_points": kernel_points,
        "qdilog.kernel_s": sum(dur(i) for i in kernel),
        "qdilog.points_per_kernel_call": kernel_points / len(kernel) if kernel else 0.0,
        "identities.self_s": sum(
            dur(i) - covered(i, ("quadrature.integrate_line", "qdilog.gb"))
            for i in named("identities.check")
        ),
        "qalgebra.normal_order_calls": len(polys),
        "qalgebra.normal_order_input_terms": sum(spans[i][4] for i in polys),
        "qalgebra.normal_order_self_s": sum(
            dur(i) - covered(i, ("qalgebra.canon",)) for i in outermost(ordering)
        ),
        "qalgebra.canon_calls": len(canon),
        "qalgebra.canon_s": sum(dur(i) for i in canon),
        "qalgebra.build_s": sum(
            dur(i) - covered(i, ordering) for i in named("qalgebra.check")
        ),
        "repcheck.compose_calls": len(compose),
        "repcheck.compose_s": sum(dur(i) for i in compose),
        "repcheck.operator_terms": sum(spans[i][4] for i in apply),
        "repcheck.apply_s": sum(dur(i) for i in apply),
        "repcheck.magnitudes_s": sum(dur(i) for i in mags),
        "repcheck.term_evals": sum(spans[i][4] for i in apply + mags),
    }
    return {k: float(v) if k.endswith("_s") else v for k, v in metrics.items()}
