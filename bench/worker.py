"""One round of one workload, in a fresh interpreter.

``run.py`` starts this script once per round, so the program's module-level
caches start cold and the process's peak memory belongs to that round:

    python bench/worker.py --workload W --seed S --round I --trace 0|1 \
        --spawned-at T [--tiny] [--setup-only]

``T`` is the parent's ``time.monotonic()`` just before the spawn; set-up
time runs from it to the first timed task.  The script prints one JSON
object on stdout.  Every task checks its own outputs; a check that fails
or a call that raises is counted as a failed check of its layer, and the
round goes on.  A failure that is exactly one of ``KNOWN_DEFECTS`` is
counted as well, under that defect's id, and does not make the run
incorrect; where such a defect hides an output, the benchmark checks that
output its own way (``eq6_in_partner_order``).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import re
import resource
import shutil
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from plan import plan_round  # noqa: E402
from spans import Tracer  # noqa: E402

CLI_TIMEOUT_S = 120

# Defects of the program that the benchmark counts but that do not make a
# run incorrect.  Each is pinned to the checks it fails, and only a failure
# of exactly that shape is attributed to it.
KNOWN_DEFECTS = {
    "eq6-partner-order": (
        "toeplitz_residuals eq6 and cuntz_pimsner_residual eq6o call "
        "down_up(w_s, w_s') where the relation needs down_up(w_s', w_s); "
        "only relations with s != s' (r >= 2) are affected"
    ),
    "pair-validate-json": (
        "motzkin pair validate ends in a traceback: a numpy bool reaches json.dumps"
    ),
}
_EQ6_LABEL = re.compile(r"eq6o?\[s=(\d+),s'=(\d+)")
PAIR_VALIDATE_CRASH = "TypeError: Object of type bool is not JSON serializable"


def eq6_defect(label: str):
    """The defect id for an eq6/eq6o relation between two distinct partners."""
    hit = _EQ6_LABEL.match(label)
    return "eq6-partner-order" if hit and hit[1] != hit[2] else None


def cli_defect(argv, last_error_line):
    """The defect id when ``pair validate`` fails with the known traceback."""
    if argv[:2] == ["pair", "validate"] and last_error_line == PAIR_VALIDATE_CRASH:
        return "pair-validate-json"
    return None


class Checks:
    """Outcomes of the checks a round makes, by layer."""

    def __init__(self):
        self.records: list[dict] = []

    def add(self, layer, label, ok, residual=None, tol=None, error=None, known=None):
        # ``known``: the id of the known defect this check fails through, if it fails.
        self.records.append(
            {"layer": layer, "label": label, "ok": bool(ok),
             "residual": residual, "tol": tol, "error": error,
             "known": None if ok else known}
        )

    @contextlib.contextmanager
    def attempt(self, layer, label):
        # A call that raises is one failed check; the rest of the round runs.
        try:
            yield
        except Exception as exc:
            self.add(layer, label, False, error=f"{type(exc).__name__}: {exc}")

    def summary(self) -> dict:
        layers: dict[str, dict] = {}
        worst = None
        for r in self.records:
            entry = layers.setdefault(r["layer"], {"attempted": 0, "failed": 0, "known": 0})
            entry["attempted"] += 1
            entry["failed"] += not r["ok"]
            entry["known"] += r["known"] is not None
            if r["ok"] and r["residual"] is not None and r["tol"]:
                ratio = r["residual"] / r["tol"]
                worst = ratio if worst is None else max(worst, ratio)
        return {
            "layers": layers,
            "failures": [
                r["label"] + (f" ({r['error']})" if r["error"] else "")
                for r in self.records if not r["ok"] and r["known"] is None
            ],
            "known_failures": [
                f"{r['known']}: {r['label']}" for r in self.records if r["known"] is not None
            ],
            "residual_ratio_max": worst,
        }


# ---------------------------------------------------------------------------
# exact-operators, exact part: the Fraction kernel; numpy stays idle.


def exact_tower(plan, tr, ck, m):
    lam = Fraction(plan["lam"])
    kmax = plan["kmax"]
    cache = m.JWCache()
    with tr.task(f"exact lam={lam}"):
        tower = {}
        with ck.attempt("jones_wenzl", f"tower to g_{kmax}"):
            with tr.span("jones_wenzl.tower", k=kmax) as attrs:
                m.jones_wenzl(kmax, lam, cache)
            tower = {k: m.jones_wenzl(k, lam, cache) for k in range(1, kmax + 1)}
            attrs["terms"] = sum(len(g.terms) for g in tower.values())
            for k, g in tower.items():
                ck.add("jones_wenzl", f"g_{k} identity coefficient",
                       g.identity_coefficient() == 1)
                ck.add("jones_wenzl", f"g_{k} self-adjoint", m.adjoint(g) == g)

        for task in plan["order"]:
            if task == "report":
                for k in plan["report_ks"]:
                    with ck.attempt("jones_wenzl", f"jw_report({k})"):
                        with tr.span("jones_wenzl.report", k=k):
                            rep = m.jw_report(k, lam, cache)
                        ck.add("jones_wenzl", f"jw_report({k}).ok", rep.ok)
            elif task == "qk":
                for k in plan["qk_ks"]:
                    # qk_element raises StructureError when an identity fails.
                    with ck.attempt("jones_wenzl", f"qk_element({k})"):
                        with tr.span("jones_wenzl.qk", k=k):
                            q, _ = m.qk_element(k, lam, cache)
                        ck.add("jones_wenzl", f"qk_element({k}) nonzero", not q.is_zero())
            elif task == "uniqueness":
                for k in plan["uniqueness_ks"]:
                    with ck.attempt("jones_wenzl", f"uniqueness_probe({k})"):
                        with tr.span("jones_wenzl.uniqueness", k=k):
                            rep = m.uniqueness_probe(k, lam, cache)
                        ck.add("jones_wenzl", f"uniqueness_probe({k}).ok", rep.ok)
            elif task == "presentation":
                for k in plan["presentation_ks"]:
                    with ck.attempt("diagram_core", f"check_presentation({k})"):
                        with tr.span("diagram_core.presentation", k=k) as attrs:
                            rep = m.check_presentation(k, lam)
                        attrs["relations"] = rep.checked
                        ck.add("diagram_core", f"check_presentation({k}).ok", rep.ok)
            elif task == "phi":
                mmax = plan["phi_mmax"]
                with ck.attempt("qpoly", f"phi up to m={mmax}"):
                    with tr.span("qpoly.phi", m=mmax):
                        f = m.PhiFunction(lam)
                        values = [f(j) for j in range(mmax + 1)]
                    ck.add("qpoly", f"is_generic(lam, {mmax})", m.is_generic(lam, mmax))
                    ck.add("qpoly", "phi(m+1) = 1/(1 - lam - lam^2 phi(m))", all(
                        values[j + 1] == 1 / (1 - lam - lam * lam * values[j])
                        for j in range(mmax)
                    ))
            elif task == "product":
                # One direct product at width k: g_k absorbs i(g_{k-1}).
                k = plan["product_k"]
                with ck.attempt("diagram_core", f"g_{k} * i(g_{k - 1})"):
                    g = m.jones_wenzl(k, lam, cache)
                    padded = m.embed(m.jones_wenzl(k - 1, lam, cache))
                    with tr.span("diagram_core.multiply", k=k,
                                 compositions=len(g.terms) * len(padded.terms)) as attrs:
                        h = g * padded
                    attrs["result_terms"] = len(h.terms)
                    ck.add("diagram_core", f"g_{k} * i(g_{k - 1}) == g_{k}", h == g)


# ---------------------------------------------------------------------------
# fock-levels: the numeric subproduct layer.


def _pair(m, spec):
    return m.build_example_pair(spec["family"], spec["n"], spec["r"], Fraction(spec["lam"]))


def eq6_in_partner_order(w_blocks, dims, r, lam, level, coefficient) -> dict:
    """Residuals of eq6 at one level in the order the relation states,
    S_{w_s'}^* S_{w_s} = [s = s'] - c lam e^{i pi (s - s')/r} S_{w_s'} S_{w_s}^*,
    on the program's own creation blocks ``w_blocks[s]``."""
    import numpy as np

    out = {}
    eye = np.eye(dims[level])
    for s, bs in w_blocks.items():
        for sp, bsp in w_blocks.items():
            lhs = bsp[level].conj().T @ bs[level]
            down_up = bsp[level - 1] @ bs[level - 1].conj().T if level else 0.0
            rhs = (s == sp) * eye - coefficient * lam * np.exp(
                1j * np.pi * (s - sp) / r) * down_up
            out[(s, sp)] = float(np.linalg.norm(lhs - rhs))
    return out


def fock_levels(plan, tr, ck, m):
    from motzkin.config import TOL_CHECK, TOL_TOEPLITZ

    for spec in plan["pairs"]:
        n, levels = spec["n"], spec["levels"]
        tag = f"{spec['family']} n={n} r={spec['r']} lam={spec['lam']} L={levels}"
        with tr.task(tag):
            system = None
            with ck.attempt("fock", f"{tag}: build"):
                pair = _pair(m, spec)
                with tr.span("fock.build", n=n, levels=levels) as attrs:
                    system = m.build_subproduct(pair, levels)
                attrs.update(
                    dims=system.dims,
                    fock_dim=system.total_dimension,
                    frame_mb=sum(n**k * d * 16 for k, d in enumerate(system.dims)) / 2**20,
                    idempotent_residual_max=max(system.idempotent_residuals),
                    rounding_max=max(system.rounding_magnitudes),
                )
                expected = [m.dim_subproduct(n, k) for k in range(levels + 1)]
                ck.add("fock", f"{tag}: dims", system.dims == expected)
            if system is None:
                continue
            # The eq6 defect hides eq6 for r >= 2; check it on the operators here.
            w_blocks = {}
            with ck.attempt("fock", f"{tag}: operator_family"):
                fam = m.operator_family(system.pair)
                if fam.r >= 2:
                    w_blocks = {s: system.creation_blocks(fam.vector("w", s))
                                for s in range(1, 2 * fam.r)}
            lam = float(Fraction(spec["lam"]))

            for k in range(levels + 1):
                with ck.attempt("fock", f"{tag}: projection_rank({k})"):
                    with tr.span("fock.ranks", k=k, d_k=system.dims[k], dim=n**k):
                        rank, _ = m.projection_rank(system, k)
                    ck.add("fock", f"{tag}: rank({k}) == d_{k}", rank == system.dims[k])

            with ck.attempt("fock", f"{tag}: toeplitz_residuals"):
                with tr.span("fock.toeplitz", levels=levels,
                             fock_dim=system.total_dimension) as attrs:
                    rep = m.toeplitz_residuals(system)
                attrs["relations"] = len(rep.residuals)
                for label, value in rep.residuals.items():
                    ck.add("fock", f"{tag}: {label}", value < rep.tol, value, rep.tol,
                           known=eq6_defect(label))
            if w_blocks:
                for k in range(levels):
                    with ck.attempt("fock", f"{tag}: eq6 in partner order, m={k}"):
                        res = eq6_in_partner_order(w_blocks, system.dims, fam.r, lam, k,
                                                   float(system.phi(k)))
                        for (s, sp), value in res.items():
                            ck.add("fock", f"{tag}: eq6 in partner order [s={s},s'={sp},m={k}]",
                                   value < TOL_TOEPLITZ, value, TOL_TOEPLITZ)

            for k in range(min(3, levels) + 1):
                with ck.attempt("fock", f"{tag}: matrix_unit_dimension({k})"):
                    with tr.span("fock.matrix_units", k=k, d_k=system.dims[k]):
                        rep = m.matrix_unit_dimension(system, k)
                    ck.add("fock", f"{tag}: matrix units k={k}", rep.ok)

            for k in range(1, levels + 1):
                with ck.attempt("fock", f"{tag}: reverse_identity({k})"):
                    with tr.span("fock.reverse", k=k, d_k=system.dims[k - 1]):
                        rep = m.reverse_identity(system, k)
                    ck.add("fock", f"{tag}: reverse identity k={k}", rep.ok,
                           max(rep.residual, rep.closed_form_error), rep.tol)

            # Program's limit residual, and the same with eq6o in partner order.
            limit, ordered = {}, {}
            for j in range(1, levels):
                with ck.attempt("fock", f"{tag}: cuntz_pimsner_residual({j})"):
                    with tr.span("fock.limit", m=j, d_k=system.dims[j]):
                        rep = m.cuntz_pimsner_residual(system, j)
                    limit[j] = rep.residual
                    if w_blocks:
                        ordered[j] = max(
                            [v for label, v in rep.residuals.items() if not eq6_defect(label)]
                            + list(eq6_in_partner_order(w_blocks, system.dims, fam.r, lam, j,
                                                        system.phi.infinity).values()))
            for j in range(2, levels):
                if j in limit and j - 1 in limit:
                    ck.add("fock", f"{tag}: limit residual falls at m={j}",
                           limit[j] < limit[j - 1],
                           known="eq6-partner-order" if w_blocks else None)
                if j in ordered and j - 1 in ordered:
                    ck.add("fock", f"{tag}: limit residual, eq6o in partner order, "
                           f"falls at m={j}", ordered[j] < ordered[j - 1])

            with ck.attempt("fock", f"{tag}: ideal_generator"):
                with tr.span("fock.ideal", n=n):
                    rep = m.ideal_generator(system)
                ck.add("fock", f"{tag}: ideal generator", rep.ok,
                       max(rep.alignment, rep.annihilation, rep.complement), rep.tol)

            with ck.attempt("fock", f"{tag}: coassociativity_residuals"):
                with tr.span("fock.coassoc", n=n):
                    res = m.coassociativity_residuals(system)
                for label, value in res.items():
                    ck.add("fock", f"{tag}: coassociativity {label}",
                           value < TOL_CHECK, value, TOL_CHECK)


# ---------------------------------------------------------------------------
# exact-operators, operator part: dense operators on (C^n)^{(x)k}.


def word_products(word) -> int:
    """Dense products relation_residuals makes for one presentation word."""
    count = 0
    for token in word:
        count += 1
        if token[0] == "adj":
            count += word_products(token[1])
    return count


def relation_gflop(n: int, k: int) -> float:
    """8 N^3 flops per complex N x N product the presentation words imply."""
    from motzkin.diagram_core import presentation_relations

    products = sum(
        word_products(word)
        for _, lhs, rhs in presentation_relations(k)
        for _, word in lhs + rhs
    )
    return products * 8 * float(n**k) ** 3 / 1e9


def exact_operators(plan, tr, ck, m):
    import numpy as np
    from motzkin.config import TOL_CHECK

    for task in plan["order"]:
        if task == "exact":
            exact_tower(plan["exact"], tr, ck, m)
        elif task == "relations":
            for spec in plan["relations"]:
                n, k = spec["n"], spec["k"]
                tag = f"{spec['family']} n={n} r={spec['r']} lam={spec['lam']} k={k}"
                with tr.task(f"relations {tag}"):
                    with ck.attempt("representation", f"relation_residuals {tag}"):
                        pair = _pair(m, spec)
                        with tr.span("representation.relations", n=n, k=k, dim=n**k) as attrs:
                            res = m.relation_residuals(pair, k)
                        attrs.update(instances=len(res), gflop=relation_gflop(n, k))
                        for label, value in res.items():
                            ck.add("representation", f"{tag}: {label}",
                                   value < TOL_CHECK, value, TOL_CHECK)
        elif task == "span":
            spec, k = plan["span"]["pair"], plan["span"]["k"]
            with tr.task(f"span n={spec['n']} k={k}"):
                with ck.attempt("representation", f"span_dimension k={k}"):
                    pair = _pair(m, spec)
                    with tr.span("representation.span", n=spec["n"], k=k) as attrs:
                        dim, _ = m.span_dimension(pair, k)
                    attrs["dimension"] = dim
                    ck.add("representation", f"span_dimension(k={k}) == {plan['span']['expected']}",
                           dim == plan["span"]["expected"])
        elif task == "cross":
            spec = plan["cross"]["pair"]
            lam, n = Fraction(spec["lam"]), spec["n"]
            with tr.task(f"cross n={n} lam={lam}"):
                cache = m.JWCache()
                for k in range(1, plan["cross"]["kmax"] + 1):
                    with ck.attempt("representation", f"cross-check k={k}"):
                        pair = _pair(m, spec)
                        with tr.span("jones_wenzl.tower", k=k) as attrs:
                            g = m.jones_wenzl(k, lam, cache)
                        attrs["terms"] = len(g.terms)
                        with tr.span("representation.eval_element", k=k, dim=n**k,
                                     terms=len(g.terms)) as attrs:
                            E = m.evaluate_element(pair, g)
                        with tr.span("fock.projection", k=k, dim=n**k):
                            P = m.subproduct_projection(pair, k)
                        residual = float(np.linalg.norm(E - P))
                        attrs["cross_check_residual"] = residual
                        ck.add("representation", f"evaluate_element(g_{k}) == projection({k})",
                               residual <= TOL_CHECK, residual, TOL_CHECK)


# ---------------------------------------------------------------------------
# cli-mix: each command in a fresh interpreter, as users run it.


def _expected_format(argv) -> str:
    if argv[0] == "check-all":
        return "text"
    if "--format" in argv:
        return argv[argv.index("--format") + 1]
    return "csv" if argv[0] == "dims" or argv[:2] == ["fock", "matrix-units"] else "json"


def output_ok(argv, text: str) -> bool:
    """True when a command's output has the shape its format promises."""
    fmt = _expected_format(argv)
    if fmt == "text":
        lines = text.strip().splitlines()
        return (
            bool(lines)
            and all(line.startswith("PASS ") for line in lines[:-1])
            and lines[-1] == f"all {len(lines) - 1} checks passed"
        )
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        body = rows[1:] if rows and not rows[0][0].isdigit() else rows
        return (
            bool(body)
            and len({len(row) for row in rows}) == 1
            and all(cell.isdigit() for row in body for cell in row)
        )
    try:
        payload = json.loads(text)
    except ValueError:
        return False
    if not isinstance(payload, dict):
        return False
    return payload.get("ok", True) is True and payload.get("is_zero", True) is True


def cli_mix(plan, tr, ck, tmp: Path):
    with tr.task("cli"):
        with ck.attempt("cli", "interpreter start"):
            with tr.span("cli.startup"):
                proc = subprocess.run([sys.executable, "-c", "import motzkin.cli"],
                                      capture_output=True, timeout=CLI_TIMEOUT_S)
            ck.add("cli", "import motzkin.cli", proc.returncode == 0)

        for planned in plan["commands"]:
            label = " ".join(planned)
            argv = [a.replace("{tmp}", str(tmp)) for a in planned]
            name = "cli.check_all" if argv[0] == "check-all" else "cli.command"
            with ck.attempt("cli", label):
                with tr.span(name, command=" ".join(argv[:2])) as attrs:
                    proc = subprocess.run(
                        [sys.executable, "-m", "motzkin.cli", *argv],
                        cwd=tmp, capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
                    )
                output = proc.stdout
                if "--out" in argv:
                    output = Path(argv[argv.index("--out") + 1]).read_text()
                attrs.update(output_bytes=len(output.encode()),
                             nonzero_exit=int(proc.returncode != 0))
                error = (proc.stderr.strip().splitlines() or [""])[-1] if proc.returncode else None
                known = cli_defect(argv, error)
                ck.add("cli", f"{label}: exit 0", proc.returncode == 0, error=error, known=known)
                ck.add("cli", f"{label}: output parses", output_ok(argv, output), known=known)


# ---------------------------------------------------------------------------


def warm_up_blas(np):
    """Pay BLAS/LAPACK start-up (thread pool, workspaces) before timing."""
    n = 384
    x = np.linspace(-1.0, 1.0, n * n).reshape(n, n)
    h = (x + x.T) + 1j * (x - x.T)
    np.linalg.eigvalsh(h)
    np.linalg.eigh(h)
    np.linalg.svd(h[:, :64], compute_uv=False)
    h @ h


def _exit_on_signal(signum, frame):
    # Unwinds through subprocess.run, which kills and reaps a running child.
    raise SystemExit(128 + signum)


def import_program():
    import motzkin

    src = (ROOT / "src").resolve()
    if src not in Path(motzkin.__file__).resolve().parents:
        raise SystemExit(f"motzkin was imported from {motzkin.__file__}, not from {src}")
    return motzkin


RUNNERS = {
    "exact-operators": exact_operators,
    "fock-levels": fock_levels,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help="time the set-up and exit before the first task")
    args = parser.parse_args(argv)

    signal.signal(signal.SIGTERM, _exit_on_signal)

    t = time.monotonic()
    plan = plan_round(args.workload, args.seed, args.round, args.tiny)
    setup = {"inputs_s": time.monotonic() - t}
    tracer = Tracer(bool(args.trace))
    checks = Checks()
    cli = args.workload == "cli-mix"
    tmp = ROOT / ".bench_out" / f"tmp-{os.getpid()}"
    try:
        if cli:
            tmp.mkdir(parents=True, exist_ok=True)
        else:
            t = time.monotonic()
            program = import_program()
            setup["imports_s"] = time.monotonic() - t
            import numpy

            t = time.monotonic()
            warm_up_blas(numpy)
            setup["warmup_s"] = time.monotonic() - t

        first_task_at = time.monotonic()
        if args.setup_only:
            json.dump({"setup_s": first_task_at - args.spawned_at, "setup_parts": setup},
                      sys.stdout)
            return 0
        if cli:
            cli_mix(plan, tracer, checks, tmp)
        else:
            RUNNERS[args.workload](plan, tracer, checks, program)
        wall = time.monotonic() - first_task_at
    finally:
        if cli:
            shutil.rmtree(tmp, ignore_errors=True)

    who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    result = {
        "round": args.round,
        "traced": bool(args.trace),
        "setup_s": first_task_at - args.spawned_at,
        "setup_parts": setup,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "checks": checks.summary(),
        "spans": tracer.spans,
    }
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
