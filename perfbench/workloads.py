"""The three workloads: seeded generators, the item each runs, and its oracle.

A workload's `setup(nambu, seed, workdir)` turns the seed into inputs and
returns the item pool plus one extra warm-up item; `run(item)` is the timed
call, one verdict; `check(item, out)` is the known-answer oracle, run after
the item's timer has stopped. Generators depend on the seed alone, so one
seed always gives byte-identical scripts and polynomials. Every expected
answer is fixed when the input is built, from how it was built.

Items are scheduled round-robin over a fixed list of classes, so any prefix
of the pool holds each class in the same share whatever the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import polyref as pr

BENCH_DIR = Path(__file__).resolve().parent
OK_VERDICTS = ("PASS", "VERIFIED_ON_FAMILY")
VERDICT_WORDS = ("PASS", "FAIL", "ERROR", "VERIFIED_ON_FAMILY", "REFUTED")


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def _shape_rng(workload: str, index: int) -> random.Random:
    """Draws that set an item's cost (supports, coordinate roles), fixed per pool position.

    With coefficients alone drawn from the seed, every seed has the same
    cost mix, so the spread between runs measures the program, not the draw.
    """
    return random.Random(f"{workload}:shape:{index}")


def _sorted_sign(idx):
    """Sort distinct indices; the sign of the sorting permutation."""
    idx = list(idx)
    sign = 1
    for i in range(len(idx)):
        for j in range(len(idx) - 1 - i):
            if idx[j] > idx[j + 1]:
                idx[j], idx[j + 1] = idx[j + 1], idx[j]
                sign = -sign
    return sign, tuple(idx)


# ---------------------------------------------------------------- fi_sweep

# (chart dimension, order, sweep degree, construction, non-constant terms
# of the factor f). The costly `coordinate` classes are the baseline cases
# the roadmap names, R5 order 4 degree 2 and R5 order 3 degree 3. Refuted
# items stop at their witness, early or late. The R4 order 3 degree 2 sweeps
# with a linear f (about 50 ms) are listed four times and the short sweeps
# below them (10-40 ms) balance the costlier ones above, so the median falls
# in the middle of that cluster; the costliest cluster is large enough that
# p90 falls inside it. A quantile at the edge of a cluster moves with how
# much of a run the host happened to leave fast, far more than the mean does.
FI_CLASSES = (
    (4, 3, 2, "integrable", 1),
    (4, 3, 2, "nonintegrable", 1),
    (5, 3, 2, "integrable", 1),
    (4, 3, 2, "coordinate", 0),
    (4, 3, 2, "integrable", 1),
    (4, 3, 3, "nonintegrable", 1),
    (5, 4, 2, "coordinate", 0),
    (4, 3, 2, "coordinate", 1),
    (4, 3, 2, "integrable", 1),
    (5, 4, 2, "nonintegrable", 1),
    (4, 4, 2, "top", 1),
    (4, 3, 2, "integrable", 0),
    (5, 3, 2, "nonintegrable", 1),
    (4, 3, 2, "integrable", 1),
    (5, 3, 3, "coordinate", 0),
    (5, 3, 2, "coordinate", 0),
    (6, 3, 2, "block", 0),
    (6, 3, 2, "integrable", 1),
    (4, 3, 2, "coordinate", 1),
    (6, 4, 2, "nonintegrable", 0),
    (5, 3, 3, "coordinate", 0),
)


def fi_spec(shape, coef, dim: int, order: int, kind: str, f_terms: int, rational: bool):
    """Components {sorted index: coefficient dict} and the verdict they force.

    `integrable` and `nonintegrable` build f*da1^..^da(n-1)^(dc + h*dd) with
    coordinate fields da_i. Its distribution is integrable, so the tensor is
    Nambu, exactly when h does not depend on any x_(a_i); the nonintegrable
    case adds a term of h in one x_(a_i). `coordinate` is f*da1^..^dan and
    `top` a top-degree tensor, both always Nambu; `block` is a sum of two order-3 blocks on disjoint
    coordinates, which is not decomposable and so not Nambu.

    `shape` draws the supports and coordinate roles, which fix where a
    refuting sweep stops; `coef` draws the coefficients.
    """
    perm = shape.sample(range(dim), dim)
    every = range(dim)

    def coeff():
        return pr.random_poly(shape, dim, every, 1, f_terms, rational,
                              constant=pr.random_rational(coef, rational), coef=coef)

    if kind == "top":
        return {tuple(every): coeff()}, "VERIFIED_ON_FAMILY"
    if kind == "coordinate":
        return {tuple(sorted(perm[:order])): coeff()}, "VERIFIED_ON_FAMILY"
    if kind == "block":
        a, b = tuple(sorted(perm[:3])), tuple(sorted(perm[3:6]))
        return {a: coeff(), b: coeff()}, "REFUTED"
    a, c, d = perm[:order - 1], perm[order - 1], perm[order]
    f = coeff()
    free = [v for v in every if v not in a]
    h = pr.random_poly(shape, dim, free, 2, 1, rational, exact=True, coef=coef)
    expected = "VERIFIED_ON_FAMILY"
    if kind == "nonintegrable":
        e = [0] * dim
        e[shape.choice(a)] = 1
        e[shape.choice(free)] += shape.randint(0, 1)
        h = pr.add(h, {tuple(e): pr.random_rational(coef, rational)})
        expected = "REFUTED"
    comps = {}
    for tail, factor in ((c, f), (d, pr.mul(f, h))):
        if factor:
            sign, idx = _sorted_sign(list(a) + [tail])
            comps[idx] = pr.scale(factor, sign)
    return comps, expected


@dataclass
class FiItem:
    structure: object
    degree: int
    expected: str


class FiSweep:
    name = "fi_sweep"
    cycle = len(FI_CLASSES) * 2
    pool_cycles = 10
    trace_items = cycle

    def specs(self, seed: int):
        """Plain-data inputs: (dim, order, degree, components, expected verdict)."""
        out = []
        n = self.cycle * self.pool_cycles + 1
        for i in range(n):
            dim, order, degree, kind, f_terms = FI_CLASSES[(i // 2) % len(FI_CLASSES)]
            comps, expected = fi_spec(_shape_rng(self.name, i), _rng(self.name, seed, i),
                                      dim, order, kind, f_terms, i % 2 == 1)
            out.append((dim, order, degree, comps, expected))
        return out

    def setup(self, nambu, seed: int, workdir: Path):
        Poly, Chart = nambu.ratpoly.Poly, nambu.ratpoly.Chart
        charts = {d: Chart(tuple(f"x{i + 1}" for i in range(d)), f"R{d}") for d in (4, 5, 6)}
        items = []
        for dim, order, degree, comps, expected in self.specs(seed):
            ch = charts[dim]
            tensor = nambu.exterior.MultiVec(
                ch, order, {idx: Poly(ch, p) for idx, p in comps.items()})
            items.append(FiItem(nambu.structures.NambuStructure(ch, order, tensor),
                                degree, expected))
        self.st = nambu.structures
        return items[:-1], items[-1]

    def run(self, item: FiItem):
        return self.st.fi_check(item.structure, degree=item.degree)

    def check(self, item: FiItem, rep) -> str | None:
        if rep.verdict != item.expected:
            return f"verdict {rep.verdict}, constructed as {item.expected}"
        if rep.verdict == "REFUTED" and not rep.witness.reverify(item.structure):
            return "witness does not re-verify by nested brackets"
        if item.structure.order >= 3 and not self.st.plucker_check(item.structure).passed:
            if item.expected != "REFUTED":
                return "plucker_check refutes a structure built to be Nambu"
        return None


# ---------------------------------------------------------------- sessions

def _vol(names) -> str:
    return "(" + "^".join("@" + n for n in names) + ")"


def _det3(rows):
    """Determinant of a 3x3 matrix of polynomial dicts."""
    out = {}
    for perm in permutations(range(3)):
        sign, _ = _sorted_sign(perm)
        term = pr.const(3, sign)
        for r, c in enumerate(perm):
            term = pr.mul(term, rows[r][c])
        out = pr.add(out, term)
    return out


def _point_off(rng, g, n):
    """A small rational point where g does not vanish."""
    while True:
        pt = [Fraction(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(n)]
        if pr.evaluate(g, pt):
            return pt


def _nonzero_coeff(rng, rational, n, names):
    """c0 + c1*x_i + c2*x_j with i != j, as dict and session text.

    A fixed shape keeps the cost of the checks on it about the same across
    seeds; the nonzero constant keeps it nonzero on every locus.
    """
    g = pr.const(n, pr.random_rational(rng, rational))
    for i in rng.sample(range(n), 2):
        g = pr.add(g, pr.scale(pr.var(n, i), pr.random_rational(rng, rational)))
    return g, pr.to_nmb(g, names)


def gen_graph(rng, rational):
    """Relatedness under triangular maps: unimodular passes, scaling fails."""
    xs, ws = ["x1", "x2", "x3"], ["w1", "w2", "w3"]
    r, r_txt = _nonzero_coeff(rng, rational, 3, ws)
    p = pr.random_poly(rng, 3, [1, 2], 2, 2, rational)
    q = pr.random_poly(rng, 3, [2], 2, 1, rational)
    k = pr.random_rational(rng, rational)
    if k == 1:
        k = Fraction(2)
    x = [pr.var(3, i) for i in range(3)]
    lines = [
        "chart GM (x1, x2, x3)", "chart GN (w1, w2, w3)",
        f"rho := ({r_txt}) * {_vol(ws)}",
    ]
    expected = []
    for name, lead, verdict in (("phi", 1, "PASS"), ("psi", k, "FAIL")):
        comps = [pr.add(pr.scale(x[0], lead), p), pr.add(x[1], q), x[2]]
        # pi = (r o map) * vol: related to rho exactly when det J = lead = 1.
        g = pr.compose(r, comps, 3)
        lines += [
            f"map {name} : GM -> GN := ({', '.join(pr.to_nmb(c, xs) for c in comps)})",
            f"pi_{name} := ({pr.to_nmb(g, xs)}) * {_vol(xs)}",
            f"check graph {name} pi_{name} rho",
        ]
        expected.append((verdict, None))
    return lines, expected


def gen_group(rng, rational):
    """A law conjugated from translation by a unipotent triangular psi.

    pi is multiplicative exactly when psi_* pi has linear coefficients, so
    (l o psi)*vol passes and (l o psi + c)*vol fails at the unit.
    """
    names = ["a1", "a2", "a3"]
    doubled = names + [n + "'" for n in names]
    p = pr.scale(pr.mul(pr.var(3, 0), pr.var(3, 0)), pr.random_rational(rng, rational))
    q = pr.add(pr.scale(pr.mul(pr.var(3, 0), pr.var(3, 1)), pr.random_rational(rng, rational)),
               pr.scale(pr.var(3, 0), pr.random_rational(rng, rational)))

    def psi(a, n):
        return [a[0], pr.add(a[1], pr.compose(p, a, n)), pr.add(a[2], pr.compose(q, a, n))]

    def psi_inv(y, n):
        y2 = pr.sub(y[1], pr.compose(p, y, n))
        return [y[0], y2, pr.sub(y[2], pr.compose(q, [y[0], y2, y[2]], n))]

    left = [pr.var(6, i) for i in range(3)]
    right = [pr.var(6, i + 3) for i in range(3)]
    mult = psi_inv([pr.add(u, v) for u, v in zip(psi(left, 6), psi(right, 6))], 6)
    a = [pr.var(3, i) for i in range(3)]
    inv = psi_inv([pr.scale(u, -1) for u in psi(a, 3)], 3)
    ell = {}
    for i in range(3):
        ell = pr.add(ell, pr.scale(pr.var(3, i), pr.random_rational(rng, rational)))
    good = pr.compose(ell, psi(a, 3), 3)
    bad = pr.add(good, pr.const(3, pr.random_rational(rng, rational)))
    lines = [
        "chart H (a1, a2, a3)",
        f"group G := law H mult ({', '.join(pr.to_nmb(m, doubled) for m in mult)}) "
        f"unit (0, 0, 0) inv ({', '.join(pr.to_nmb(m, names) for m in inv)})",
        f"pi_g := ({pr.to_nmb(good, names)}) * {_vol(names)}",
        "check multiplicative G pi_g",
        f"bad_g := ({pr.to_nmb(bad, names)}) * {_vol(names)}",
        "check multiplicative G bad_g",
    ]
    return lines, [("PASS", None), ("FAIL", None)]


def gen_pair(rng, rational):
    """Pair models are multiplicative; a hypersurface restricts, a point where pi is nonzero does not."""
    names = ["u1", "u2", "u3"]
    g, g_txt = _nonzero_coeff(rng, rational, 3, names)
    s = pr.random_poly(rng, 3, [0, 1], 2, 2, rational, exact=True)
    pt = _point_off(rng, g, 3)
    lines = [
        "chart P3 (u1, u2, u3)",
        f"pi_p := ({g_txt}) * {_vol(names)}",
        "pair PP := pi_p",
        "check multiplicative PP pi_p",
        f"sub S := {{ u3 = {pr.to_nmb(s, names)} }}",
        "check subgroupoid PP S",
        "sub O := { " + ", ".join(f"{n} = {v}" for n, v in zip(names, pt)) + " }",
        "check subgroupoid PP O",
    ]
    return lines, [("PASS", None), ("PASS", None), ("FAIL", None)]


def gen_coiso(rng, rational):
    """Hypersurfaces and curves are coisotropic for g*vol; a point is exactly where g vanishes."""
    names = ["v1", "v2", "v3"]
    g, g_txt = _nonzero_coeff(rng, rational, 3, names)
    s = pr.random_poly(rng, 3, [0, 1], 2, 2, rational)
    c2 = pr.random_poly(rng, 3, [0], 2, 2, rational)
    c3 = pr.random_poly(rng, 3, [0], 2, 2, rational)
    pt = _point_off(rng, g, 3)
    a0 = Fraction(rng.randint(-3, 3))
    z = pr.mul(pr.sub(pr.var(3, 0), pr.const(3, a0)), g)
    zpt = [a0] + [Fraction(rng.randint(-3, 3)) for _ in range(2)]
    lines = [
        "chart C3 (v1, v2, v3)",
        f"pi_c := ({g_txt}) * {_vol(names)}",
        f"sub HS := {{ v3 = {pr.to_nmb(s, names)} }}",
        "check coisotropic pi_c HS",
        f"sub CV := {{ v2 = {pr.to_nmb(c2, names)}, v3 = {pr.to_nmb(c3, names)} }}",
        "check coisotropic pi_c CV",
        "sub PT := { " + ", ".join(f"{n} = {v}" for n, v in zip(names, pt)) + " }",
        "check coisotropic pi_c PT",
        f"pz := ({pr.to_nmb(z, names)}) * {_vol(names)}",
        "sub ZP := { " + ", ".join(f"{n} = {v}" for n, v in zip(names, zpt)) + " }",
        "check coisotropic pz ZP",
    ]
    return lines, [("PASS", None), ("PASS", None), ("FAIL", None), ("PASS", None)]


def gen_coinduce(rng, rational):
    """Projection along one coordinate: a fiber-independent coefficient descends, a dependent one does not."""
    names = ["y1", "y2", "y3", "y4"]
    drop = rng.randrange(4)
    kept = [i for i in range(4) if i != drop]
    order = rng.sample(kept, 3)
    g = pr.random_poly(rng, 4, kept, 2, 2, rational, constant=pr.random_rational(rng, rational))
    e = [0] * 4
    e[drop] = 1
    tw = pr.add(g, {tuple(e): pr.random_rational(rng, rational)})
    field_ = _vol([names[i] for i in kept])
    lines = [
        "chart Q (y1, y2, y3, y4)", "chart QN (s1, s2, s3)",
        f"map p : Q -> QN := ({', '.join(names[i] for i in order)})",
        f"sigma := ({pr.to_nmb(g, names)}) * {field_}",
        "coinduce p sigma",
        f"tw := ({pr.to_nmb(tw, names)}) * {field_}",
        "coinduce p tw",
    ]
    return lines, [("PASS", None), ("FAIL", None)]


def gen_forms(rng, rational):
    """wlfb on a top-degree structure, and brackets with values known in closed form.

    {f1, f2, f3} = g * det(df_i/dz_j), and on coordinate differentials the
    form bracket is d{z_i, z_j, z_k} = sign * dg.
    """
    names = ["z1", "z2", "z3"]
    g, g_txt = _nonzero_coeff(rng, rational, 3, names)
    fs = [pr.random_poly(rng, 3, range(3), 2, 2, rational, exact=True) for _ in range(3)]
    value = pr.mul(g, _det3([[pr.deriv(f, j) for j in range(3)] for f in fs]))
    ijk = rng.sample(range(3), 3)
    sign, _ = _sorted_sign(ijk)
    dg = {(m,): pr.scale(pr.deriv(g, m), sign) for m in range(3) if pr.deriv(g, m)}
    h = pr.random_poly(rng, 3, range(3), 1, 1, rational)
    lines = [
        "chart F3 (z1, z2, z3)",
        f"pi_f := ({g_txt}) * {_vol(names)}",
        "check wlfb pi_f",
        f"bracket pi_f ({'; '.join(pr.to_nmb(f, names) for f in fs)})",
        f"formbracket pi_f ({'; '.join('d ' + names[i] for i in ijk)})",
        f"formbracket pi_f (({pr.to_nmb(h, names)}) * d z1; d z2; d z3)",
    ]
    return lines, [("PASS", None), ("PASS", ("poly", value, names)),
                   ("PASS", ("form", dg, names)), ("PASS", None)]


GEN_FAMILIES = (gen_graph, gen_group, gen_pair, gen_coiso, gen_coinduce, gen_forms)


# Scripts by kind: every family (about 190 ms of checks on a 2-vCPU Xeon),
# or one of two halves of the families that cost about the same (95 ms).
SCRIPT_KINDS = (GEN_FAMILIES, GEN_FAMILIES[::2], GEN_FAMILIES, GEN_FAMILIES[1::2])


def gen_script(rng, first_rational: bool, families=GEN_FAMILIES):
    """One script with the given families, all with known verdicts.

    Families alternate between integer and non-integer rational
    coefficients, so every script of a kind costs about the same.
    """
    lines, expected = [], []
    for k, fam in enumerate(families):
        more, verdicts = fam(rng, (k % 2 == 0) == first_rational)
        lines += [f"# {fam.__name__[4:]}"] + more
        expected += verdicts
    return lines, expected


CORPUS_EXPECTED = BENCH_DIR / "expected" / "corpus.txt"


def verdict_lines(stdout: str) -> list[str]:
    """Verdict, value and witness lines: the report body without the summary."""
    keep = ("    = ", "    witness: ")
    return [ln for ln in stdout.splitlines()
            if ln.split("  ", 1)[0] in VERDICT_WORDS or ln.startswith(keep)]


def read_corpus_expected(path=CORPUS_EXPECTED) -> dict:
    """{relative script path: (exit code, expected verdict lines)}."""
    out, cur = {}, None
    for ln in path.read_text().splitlines():
        if ln.startswith("## "):
            rel, _, code = ln[3:].rpartition(" exit=")
            cur = out[rel] = (int(code), [])
        elif cur is not None and ln:
            cur[1].append(ln)
    return out


@dataclass
class ScriptItem:
    path: str
    json_path: str
    rc: int
    lines: list | None = None          # expected verdict lines (corpus)
    verdicts: list | None = None       # expected (verdict, value) per report (generated)


class Sessions:
    name = "sessions"
    corpus_scripts = 15
    # 14 of the corpus scripts are quicker than any generated one. With half
    # of the 24 generated scripts short and half long, the median falls in
    # the middle of the short ones and p90 in the upper part of the long
    # ones; a quantile near the lower edge of a cluster moves with how much
    # of a run the host happened to leave fast, far more than the mean does.
    generated_per_cycle = 24
    cycle = corpus_scripts + generated_per_cycle
    # One cycle of distinct scripts: a run repeats it, so each report-v1
    # document is replayed once per run rather than once per item.
    pool_cycles = 1
    trace_items = cycle

    def scripts(self, seed: int):
        """[(file name, text, expected (verdict, value) list)] for the generated pool."""
        out = []
        for i in range(self.generated_per_cycle * self.pool_cycles + 1):
            lines, expected = gen_script(_rng(self.name, seed, i), (i // 4) % 2 == 1,
                                         SCRIPT_KINDS[i % 4])
            text = f"# generated script {i}, seed {seed}\n" + "\n".join(lines) + "\n"
            out.append((f"gen_{i:03d}.nmb", text, expected))
        return out

    def setup(self, nambu, seed: int, workdir: Path):
        root = BENCH_DIR.parent
        workdir.mkdir(parents=True, exist_ok=True)
        generated = []
        for fname, text, expected in self.scripts(seed):
            path = workdir / fname
            path.write_text(text)
            rc = 0 if all(v in OK_VERDICTS for v, _ in expected) else 1
            generated.append(ScriptItem(str(path), str(path.with_suffix(".json")), rc,
                                        verdicts=expected))
        corpus = []
        for rel, (rc, lines) in sorted(read_corpus_expected().items()):
            path = root / "corpus" / rel
            if not path.is_file():
                raise FileNotFoundError(path)
            corpus.append(ScriptItem(str(path), str(workdir / ("corpus_" + rel.replace("/", "_") + ".json")),
                                     rc, lines=lines))
        if len(corpus) != self.corpus_scripts:
            raise ValueError(f"expected {self.corpus_scripts} corpus scripts, found {len(corpus)}")
        # One cycle: every corpus script once, interleaved with the generated ones.
        per_cycle = self.generated_per_cycle
        items = []
        for c in range(self.pool_cycles):
            gen = generated[c * per_cycle:(c + 1) * per_cycle]
            for k in range(per_cycle):
                if k < len(corpus):
                    items.append(corpus[k])
                items.append(gen[k])
        self.nambu = nambu
        self.replays = {}
        return items, generated[-1]

    def run(self, item: ScriptItem):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.nambu.cli.main(["run", item.path, "--json", item.json_path])
            except SystemExit as exc:
                rc = exc.code
        return rc, out.getvalue()

    def _replay(self, doc) -> list:
        """Re-run the report-v1 document's canonical session with its embedded seed."""
        result = self.nambu.session.run_session(
            self.nambu.parser.parse(doc["session"]), seed=doc["seed"], degree=doc["degree"])
        return [(r.command, r.verdict, r.witness, r.value) for r in result.reports]

    def check(self, item: ScriptItem, out) -> str | None:
        rc, stdout = out
        jpath = Path(item.json_path)
        try:
            doc = json.loads(jpath.read_text())
        except (OSError, ValueError) as exc:
            return f"no report-v1 document: {exc}"
        finally:
            jpath.unlink(missing_ok=True)
        if rc != item.rc:
            return f"exit code {rc}, expected {item.rc}"
        got = [(r["command"], r["verdict"], r["witness"], r["value"]) for r in doc["reports"]]
        if item.path not in self.replays:
            self.replays[item.path] = self._replay(doc)
        if got != self.replays[item.path]:
            return "replaying the report-v1 document gives other verdicts or witnesses"
        lines = verdict_lines(stdout)
        if item.lines is not None:
            return None if lines == item.lines else "verdict lines differ from the expected file"
        verdicts = [ln.split("  ", 1)[0] for ln in lines if not ln.startswith(" ")]
        if verdicts != [v for v, _ in item.verdicts]:
            return f"verdicts {verdicts}, constructed as {[v for v, _ in item.verdicts]}"
        for (_, value), rep in zip(item.verdicts, doc["reports"]):
            if value is None:
                continue
            kind, want, names = value
            parse = pr.parse_canonical if kind == "poly" else pr.parse_tensor
            if parse(rep["value"], names) != want:
                return f"value {rep['value']!r} differs from the closed form"
        return None


# ------------------------------------------------------------ kernel_dense

# (job, variables, size). pow: (a.x + b)^size; mul: two dense polynomials
# of degree size; subst: a dense polynomial of degree size under a map with
# quadratic components; partial: every partial of a dense polynomial of
# degree size. The 4-variable power is listed twice so that the median
# falls inside its cluster of times. Powers take integer coefficients, as
# (x+y+z+1)^20 does; the other jobs alternate integer and non-integer
# rational ones. A power with rational coefficients costs about 10% more,
# which would split each power class in two clusters with the median and
# p90 on the seam between them.
KERNEL_CLASSES = (
    ("pow", 3, 16),
    ("mul", 3, 7),
    ("pow", 4, 9),
    ("subst", 3, 4),
    ("partial", 4, 12),
    ("pow", 4, 9),
)


@dataclass
class KernelItem:
    job: str
    args: tuple
    ref: tuple
    points: list
    want: list | None = None           # reference values, filled by the first check


def kernel_spec(rng, job: str, nvars: int, size: int, rational: bool):
    """(reference dicts, extra) for one job; the oracle evaluates these itself."""
    if job == "pow":
        base = {}
        for i in range(nvars):
            base = pr.add(base, pr.scale(pr.var(nvars, i), pr.random_rational(rng, rational)))
        base = pr.add(base, pr.const(nvars, pr.random_rational(rng, rational)))
        return (base,), size
    if job == "mul":
        return (pr.dense_poly(rng, nvars, size, rational),
                pr.dense_poly(rng, nvars, size, rational)), None
    if job == "subst":
        images = tuple(pr.random_poly(rng, nvars, range(nvars), 2, 3, rational,
                                      constant=pr.random_rational(rng, rational))
                       for _ in range(nvars))
        return (pr.dense_poly(rng, nvars, size, rational),) + images, None
    return (pr.dense_poly(rng, nvars, size, rational),), None


class KernelDense:
    name = "kernel_dense"
    cycle = len(KERNEL_CLASSES) * 2
    pool_cycles = 4
    trace_items = cycle * 2

    def specs(self, seed: int):
        out = []
        n = self.cycle * self.pool_cycles + 1
        for i in range(n):
            job, nvars, size = KERNEL_CLASSES[(i // 2) % len(KERNEL_CLASSES)]
            rng = _rng(self.name, seed, i)
            ref, extra = kernel_spec(rng, job, nvars, size, i % 2 == 1 and job != "pow")
            points = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(nvars)]
                      for _ in range(2)]
            out.append((job, nvars, ref, extra, points))
        return out

    def setup(self, nambu, seed: int, workdir: Path):
        Poly, Chart = nambu.ratpoly.Poly, nambu.ratpoly.Chart
        source = {n: Chart(tuple(f"x{i + 1}" for i in range(n))) for n in (3, 4)}
        target = {n: Chart(tuple(f"t{i + 1}" for i in range(n))) for n in (3, 4)}
        items = []
        for job, nvars, ref, extra, points in self.specs(seed):
            ch = source[nvars]
            if job == "subst":
                tg = target[nvars]
                images = {c: Poly(tg, img) for c, img in zip(ch.coords, ref[1:])}
                args = (Poly(ch, ref[0]), tg, images)
            else:
                args = tuple(Poly(ch, p) for p in ref) + ((extra,) if extra else ())
            items.append(KernelItem(job, args, ref, points))
        return items[:-1], items[-1]

    def run(self, item: KernelItem):
        a = item.args
        if item.job == "pow":
            return a[0] ** a[1]
        if item.job == "mul":
            return a[0] * a[1]
        if item.job == "subst":
            return a[0].substitute(a[1], a[2])
        return [a[0].partial(i) for i in range(a[0].chart.dim)]

    def reference_values(self, item: KernelItem) -> list:
        """[values at each point] from the reference dicts alone."""
        ref, out = item.ref, []
        for pt in item.points:
            if item.job == "pow":
                out.append([pr.evaluate(ref[0], pt) ** item.args[1]])
            elif item.job == "mul":
                out.append([pr.evaluate(ref[0], pt) * pr.evaluate(ref[1], pt)])
            elif item.job == "subst":
                out.append([pr.evaluate(ref[0], [pr.evaluate(img, pt) for img in ref[1:]])])
            else:
                out.append([pr.evaluate(pr.deriv(ref[0], i), pt) for i in range(len(pt))])
        return out

    def check(self, item: KernelItem, out) -> str | None:
        if item.want is None:
            item.want = self.reference_values(item)
        results = out if isinstance(out, list) else [out]
        for pt, want in zip(item.points, item.want):
            got = [pr.evaluate(r.terms, pt) for r in results]
            if got != want:
                return f"{item.job} disagrees with the reference at {pt}"
        return None


WORKLOADS = {w.name: w for w in (FiSweep, Sessions, KernelDense)}
