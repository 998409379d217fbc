"""The benchmark's workloads.

A workload is made in two steps. The constructor builds the inputs from
the seed with :mod:`oracle` alone (structure constants, JSON documents) and
calls nothing of the program. ``load(api)`` is the program's set-up: it
hands those inputs to the program (algebra construction, document loading).
``setup_s`` times the package import plus ``load``, never the constructor.
A workload then lists the operations of one pass and checks every result
against :mod:`oracle` or a theorem -- never against stored output.
``prepare_checks`` computes the oracle's predictions once per run, outside
every timed region.

The program is reached only through module attributes looked up at call time
(``api.cli.main``, ``api.hochschild.cohomology_dimension``), so the traced
pass sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import statistics
from fractions import Fraction

import oracle as O


class Op:
    """One operation of a pass.

    ``known_fault`` marks an operation the program gets wrong at this commit
    on seed-independent inputs; a wrong result there counts as failed
    instead of making the run incorrect.
    """

    def __init__(self, label, fn, known_fault=False):
        self.label = label
        self.fn = fn
        self.known_fault = known_fault


def median_ms(seconds):
    return statistics.median(seconds) * 1000.0


# -- cohomology ---------------------------------------------------------------------------


class Cohomology:
    """Hochschild cohomology in degrees 0-2 of nine small algebras."""

    name = "cohomology"
    # Column additions col_x += c * col_y that twist M3's matrix-unit basis into
    # a dense, non-graded one. They are fixed because their choice sets the
    # cost of H^2 (from 0.35 s to 8 s over twelve random choices); the seed
    # picks the column signs, which change every structure constant's sign
    # pattern but not the work.
    TWIST_ADDITIONS = ((0, 1, 1), (5, 2, 2), (4, 3, 1))
    KNOWN = {"dual": (2, 1, 1)}  # everything else: (1, 0, 0)

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        self.signs = [rng.choice((1, -1)) for _ in range(9)]
        self.twisted_structure = self._twisted_m3()

    def load(self, api):
        self.api = api
        A = api.algebra
        self.algebras = [
            ("M2", A.full_matrix_algebra(2)),
            ("M3", A.full_matrix_algebra(3)),
            ("M4", A.full_matrix_algebra(4)),
            ("T3", A.upper_triangular_algebra(3)),
            ("T4", A.upper_triangular_algebra(4)),
            ("T5", A.upper_triangular_algebra(5)),
            ("dual", A.dual_number_algebra()),
            ("splitquat", A.split_quaternion_algebra()),
            ("M3twisted", A.Algebra("M3twisted", 9, [f"f{i}" for i in range(9)],
                                    self.twisted_structure, discover_unit=True)),
        ]

    def twist_matrices(self):
        """The change of basis ``P`` (columns are the new basis) and its inverse."""
        d = 9
        p = O.identity_map(d)
        p_inv = O.identity_map(d)
        for x, y, c in self.TWIST_ADDITIONS:
            cg = O.gauss(c)
            for i in range(d):
                p[i][x] = O.add(p[i][x], O.mul(cg, p[i][y]))
            # Undo on the left: row y -= c * row x.
            p_inv[y] = O.vsub(p_inv[y], O.vscale(cg, p_inv[x]))
        for j, s in enumerate(self.signs):
            sg = O.gauss(s)
            for i in range(d):
                p[i][j] = O.mul(sg, p[i][j])
            p_inv[j] = O.vscale(sg, p_inv[j])
        return p, p_inv

    def _twisted_m3(self):
        """The twisted M3's structure constants, as strings."""
        p, p_inv = self.twist_matrices()
        table = O.change_basis(O.matrix_units(3), p, p_inv)
        return {
            (a, b): {k: O.fmt(v) for k, v in enumerate(vec) if O.nonzero(v)}
            for a, row in enumerate(table)
            for b, vec in enumerate(row)
            if not O.is_zero_vector(vec)
        }

    def operations(self):
        ops = []
        for name, alg in self.algebras:
            for n in (0, 1, 2):
                fn = (lambda a, k: lambda: self.api.hochschild.cohomology_dimension(a, k))(alg, n)
                ops.append(Op(f"H{n}({name})", fn))
        return ops

    def prepare_checks(self):
        pass

    def check(self, op, result):
        name = op.label[3:-1]
        want = self.KNOWN.get(name, (1, 0, 0))[int(op.label[1])]
        return [] if result == want else [f"{op.label} = {result}, expected {want}"]

    def pass_metrics(self, timings):
        return {
            "main_op_s": timings["H2(M4)"],
            "second_op_s": timings["H2(M3twisted)"],
            "op_p50_ms": median_ms(timings.values()),
        }

# -- cli_gaussian --------------------------------------------------------------------------


def algebra_doc(name, table, labels):
    d = len(table)
    unit = O.unit_of(table)
    doc = {
        "name": name,
        "dim": d,
        "basis": labels,
        "structure": table_triples(table),
    }
    if unit is not None:
        doc["unit"] = [O.fmt(v) for v in unit]
    return doc


def table_triples(table):
    return [
        [a, b, k, O.fmt(v)]
        for a, row in enumerate(table)
        for b, vec in enumerate(row)
        for k, v in enumerate(vec)
        if O.nonzero(v)
    ]


def triples_table(triples, d):
    """An exported ``structure`` list as an oracle product table."""
    table = [[O.zeros(d) for _ in range(d)] for _ in range(d)]
    for a, b, k, s in triples:
        table[a][b][k] = O.add(table[a][b][k], O.parse(s))
    return table


def operator_doc(alg_name, rows):
    return {"algebra": alg_name, "matrix": [[O.fmt(v) for v in row] for row in rows]}


def diagonal_map(values):
    d = len(values)
    return [[values[i] if i == j else O.ZERO for j in range(d)] for i in range(d)]


def left_multiplication(table, k):
    d = len(table)
    cols = [O.bilinear(table, k, O.unit_vector(d, j)) for j in range(d)]
    return [[cols[j][i] for j in range(d)] for i in range(d)]


def matrix_labels(n):
    return [f"E{p + 1}{q + 1}" for p in range(n) for q in range(n)]


class CliGaussian:
    """In-process CLI invocations on JSON documents written at set-up."""

    name = "cli_gaussian"
    # K (row-major 4x4) before the seed acts. The seed picks signs s_p and
    # uses K'_pq = s_p s_q K_pq, that is S K S^-1 for S = diag(s). Conjugation
    # by S is an automorphism of M4 that fixes P_lambda, so every invocation
    # does the same arithmetic on numbers of the same sizes, only with some
    # signs flipped. (Negating or conjugating single entries instead changes
    # the cancellations: the hierarchy's cost moved by 12% between seeds.)
    K_PATTERN = ("1", "1i", "0", "0", "0", "-1", "0", "0",
                 "0", "0", "1", "1i", "1", "0", "0", "1/2")
    P_LAMBDA = "1/2+1i"

    def __init__(self, seed, workdir):
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        rng = random.Random(seed)
        signs = [rng.choice((1, -1)) for _ in range(4)]
        self.k = [O.parse(text) if signs[i // 4] == signs[i % 4] else O.neg(O.parse(text))
                  for i, text in enumerate(self.K_PATTERN)]
        self.tables = {
            "M2": O.matrix_units(2),
            "T3": O.upper_triangular(3),
            "dual": O.dual_numbers(),
            "splitquat": O.split_quaternions(),
            "M4": O.matrix_units(4),
        }
        labels = {
            "M2": matrix_labels(2),
            "T3": ["E11", "E12", "E13", "E22", "E23", "E33"],
            "dual": ["1", "eps"],
            "splitquat": ["I", "A", "B", "C"],
            "M4": matrix_labels(4),
        }
        self.paths = {}
        self.documents = {}  # document key -> (kind, algebra name)
        for name, table in self.tables.items():
            self._write(name.lower(), algebra_doc(name, table, labels[name]), "algebra", name)
        self.ops = self._operators()
        for key, (alg, rows) in self.ops.items():
            self._write(key, operator_doc(alg, rows), "operator", alg)
        self._write("split", {"part1": [0, 1, 3]}, "decomposition", "M2")
        self._write("diag_split", {"part1": [0, 3]}, "decomposition", "M2")
        self._write("circ1", self._circ1_doc(), "product", "M2")
        m2 = self.tables["M2"]
        forged = O.deformed(m2, self.ops["transpose"][1])
        self._write("forged", {
            "name": "M2-transpose-deformed", "algebra": "M2", "dim": 4,
            "basis": labels["M2"], "structure": table_triples(forged),
            "associative": True, "unit": None,
        }, "product", "M2")
        for key in ("m2_p1_def", "m4_lk_def", "m4_pl_def"):
            self.paths[key] = os.path.join(workdir, key + ".json")
        self.invocations = self._invocations()
        self.report_bytes = 0

    def _write(self, key, doc, kind, alg):
        path = os.path.join(self.workdir, key + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        self.paths[key] = path
        self.documents[key] = (kind, alg)

    def load(self, api):
        """Read and validate every written document through the program's loaders."""
        self.api = api
        D = api.documents
        algebras = {alg: D.algebra_from_doc(D.read_json(self.paths[key]))
                    for key, (kind, alg) in self.documents.items() if kind == "algebra"}
        loaders = {"operator": D.operator_from_doc, "decomposition": D.decomposition_from_doc,
                   "product": D.product_from_doc}
        for key, (kind, alg) in self.documents.items():
            if kind != "algebra":
                loaders[kind](algebras[alg], D.read_json(self.paths[key]))

    def _operators(self):
        """Operator matrices (rows) keyed by document name, with their algebra."""
        g = O.gauss
        m2, m4 = self.tables["M2"], self.tables["M4"]
        lam = O.parse(self.P_LAMBDA)
        upper4 = [p <= q for p in range(4) for q in range(4)]
        k2 = [g(1), g(0), g(0), g(2)]  # diag(1, 2)
        return {
            "p1": ("M2", diagonal_map([g(1), g(1), g(0), g(1)])),
            "transpose": ("M2", [[O.ONE if (i % 2) * 2 + i // 2 == j else O.ZERO
                                  for j in range(4)] for i in range(4)]),
            "nk": ("M2", left_multiplication(m2, k2)),
            "ad_h": ("M2", O.commutator_map(m2, O.unit_vector(4, 3))),
            "n1": ("M2", [[v if j in (0, 3) else O.ZERO for j, v in enumerate(row)]
                          for row in left_multiplication(m2, k2)]),
            "n2": ("M2", diagonal_map([g(0), g(1), g(1), g(0)])),
            "n1diag": ("M2", diagonal_map(k2)),
            "leps": ("dual", left_multiplication(self.tables["dual"], [g(0), g(1)])),
            "dder": ("dual", diagonal_map([g(0), g(1)])),
            "lk3": ("T3", left_multiplication(
                self.tables["T3"], [g(1), g(Fraction(1, 2)), g(0), g(-1), g(0), g(2)])),
            "proj_ic": ("splitquat", diagonal_map([g(1), g(0), g(0), g(1)])),
            "lk": ("M4", left_multiplication(m4, self.k)),
            "pl": ("M4", diagonal_map([O.ONE if up else lam for up in upper4])),
            "adk": ("M4", O.commutator_map(m4, self.k)),
        }

    def _circ1_doc(self):
        """(X, Y) -> K X Y on the diagonal of M2, K = diag(1, 2)."""
        m2 = self.tables["M2"]
        k2 = [O.gauss(1), O.ZERO, O.ZERO, O.gauss(2)]
        table = [[O.zeros(4) for _ in range(4)] for _ in range(4)]
        for i in (0, 3):
            for j in (0, 3):
                table[i][j] = O.bilinear(m2, O.bilinear(m2, k2, O.unit_vector(4, i)),
                                         O.unit_vector(4, j))
        return {"name": "M2-circ1", "algebra": "M2", "dim": 4, "basis": matrix_labels(2),
                "structure": table_triples(table), "associative": None, "unit": None}

    # -- the invocations and what each must report -------------------------------------

    def _invocations(self):
        P = self.paths
        inv = []

        def add(label, argv, expect, known_fault=False):
            inv.append((label, argv, expect, known_fault))

        def alg(name):
            return ["--algebra", P[name.lower()]]

        # Small algebras: every subcommand at least once.
        add("check-nijenhuis M2 P1", ["check-nijenhuis", *alg("M2"), "--operator", P["p1"]],
            self._expect_nijenhuis("M2", "p1"))
        add("cohomology M2 1", ["cohomology", *alg("M2"), "--degree", "1"],
            self._expect_cohomology(0))
        for name, dims in (("T3", (1, 0, 0)), ("dual", (2, 1, 1)), ("splitquat", (1, 0, 0))):
            for n in (0, 1, 2):
                add(f"cohomology {name} {n}", ["cohomology", *alg(name), "--degree", str(n)],
                    self._expect_cohomology(dims[n]))
        for name, op in (("M2", "transpose"), ("dual", "leps"), ("T3", "lk3"),
                         ("splitquat", "proj_ic")):
            add(f"check-nijenhuis {name} {op}",
                ["check-nijenhuis", *alg(name), "--operator", P[op]],
                self._expect_nijenhuis(name, op))
        add("torsion M2 transpose", ["torsion", *alg("M2"), "--operator", P["transpose"]],
            self._expect_torsion("M2", "transpose"))
        add("deform M2 P1", ["deform", *alg("M2"), "--operator", P["p1"], "--out", P["m2_p1_def"]],
            self._expect_deform("M2", "p1", "m2_p1_def"))
        add("criterion M2 transpose", ["criterion", *alg("M2"), "--operator", P["transpose"]],
            self._expect_criterion("M2", "transpose"))
        add("compat M2 mu P1-deformed",
            ["compat", *alg("M2"), "--product1", "mu", "--product2", P["m2_p1_def"]],
            self._expect_compat("M2", ("mu",), ("deformed", "p1")))
        add("tensors-compat M2 P1 NK",
            ["tensors-compat", *alg("M2"), "--operator", P["p1"], "--operator2", P["nk"]],
            self._expect_tensors_compat("M2", "p1", "nk"))
        add("hierarchy M2 NK 3",
            ["hierarchy", *alg("M2"), "--operator", P["nk"], "--max-power", "3"],
            self._expect_hierarchy("M2", "nk"))
        add("projection M2 1 1/2",
            ["projection", *alg("M2"), "--decomposition", P["split"], "--l1", "1", "--l2", "1/2"],
            self._expect_projection())
        add("contraction M2 diagonal",
            ["contraction", *alg("M2"), "--decomposition", P["diag_split"]],
            self._expect_contraction())
        add("theorem5 M2 diagonal",
            ["theorem5", *alg("M2"), "--decomposition", P["diag_split"], "--circ1", P["circ1"],
             "--n1", P["n1"], "--n2", P["n2"]],
            self._expect_theorem5())
        add("extend M2 diagonal",
            ["extend", *alg("M2"), "--decomposition", P["diag_split"], "--n1", P["n1diag"]],
            self._expect_extend())
        for op in ("nk", "transpose"):
            add(f"lie-check M2 {op}", ["lie-check", *alg("M2"), "--operator", P[op]],
                self._expect_lie("M2", op))
        for name, op in (("M2", "ad_h"), ("M2", "p1"), ("dual", "dder")):
            add(f"derivation-check {name} {op}",
                ["derivation-check", *alg(name), "--operator", P[op]],
                self._expect_derivation(name, op, ("mu",)))
        for name, op in (("M2", "ad_h"), ("dual", "dder")):
            add(f"inner-generator {name} {op}",
                ["inner-generator", *alg(name), "--operator", P[op]],
                self._expect_inner(name, op, ("mu",)))
        add("bihamiltonian M2 ad_h mu P1-deformed",
            ["bihamiltonian", *alg("M2"), "--derivation", P["ad_h"], "--product1", "mu",
             "--product2", P["m2_p1_def"]],
            self._expect_bihamiltonian("M2", "ad_h", ("mu",), ("deformed", "p1")))
        # The transpose-deformed product is not associative; its document claims
        # it is. A product that is not associative must be refused (exit 2).
        add("bihamiltonian M2 forged-associative",
            ["bihamiltonian", *alg("M2"), "--derivation", P["ad_h"], "--product1", "mu",
             "--product2", P["forged"]],
            self._expect_refused(), known_fault=True)
        for i in (1, 2, 3, 4):
            add(f"example {i}", ["example", "--id", str(i)], self._expect_all_pass())

        # M4 with the Gaussian left multiplication L_K and P1 + (1/2+i) P2.
        for op in ("lk", "pl"):
            add(f"check-nijenhuis M4 {op}", ["check-nijenhuis", *alg("M4"), "--operator", P[op]],
                self._expect_nijenhuis("M4", op))
            add(f"torsion M4 {op}", ["torsion", *alg("M4"), "--operator", P[op]],
                self._expect_torsion("M4", op))
            out = P[f"m4_{op}_def"]
            add(f"deform M4 {op}", ["deform", *alg("M4"), "--operator", P[op], "--out", out],
                self._expect_deform("M4", op, f"m4_{op}_def"))
            add(f"criterion M4 {op}", ["criterion", *alg("M4"), "--operator", P[op]],
                self._expect_criterion("M4", op))
            add(f"compat M4 mu {op}-deformed",
                ["compat", *alg("M4"), "--product1", "mu", "--product2", out],
                self._expect_compat("M4", ("mu",), ("deformed", op)))
        add("compat M4 lk-deformed pl-deformed",
            ["compat", *alg("M4"), "--product1", P["m4_lk_def"], "--product2", P["m4_pl_def"]],
            self._expect_compat("M4", ("deformed", "lk"), ("deformed", "pl")))
        add("tensors-compat M4 lk pl",
            ["tensors-compat", *alg("M4"), "--operator", P["lk"], "--operator2", P["pl"]],
            self._expect_tensors_compat("M4", "lk", "pl"))
        for op in ("lk", "pl"):
            add(f"hierarchy M4 {op} 6",
                ["hierarchy", *alg("M4"), "--operator", P[op], "--max-power", "6"],
                self._expect_hierarchy("M4", op))
            add(f"lie-check M4 {op}", ["lie-check", *alg("M4"), "--operator", P[op]],
                self._expect_lie("M4", op))
        mu, lk_def = ("mu",), ("deformed", "lk")
        for op, product in (("adk", mu), ("adk", lk_def), ("lk", mu)):
            spec = "mu" if product == mu else P["m4_lk_def"]
            add(f"derivation-check M4 {op} {product[-1]}",
                ["derivation-check", *alg("M4"), "--operator", P[op], "--product", spec],
                self._expect_derivation("M4", op, product))
        for product in (mu, lk_def):
            spec = "mu" if product == mu else P["m4_lk_def"]
            add(f"inner-generator M4 adk {product[-1]}",
                ["inner-generator", *alg("M4"), "--operator", P["adk"], "--product", spec],
                self._expect_inner("M4", "adk", product))
        for op in ("lk", "pl"):
            add(f"bihamiltonian M4 adk mu {op}-deformed",
                ["bihamiltonian", *alg("M4"), "--derivation", P["adk"], "--product1", "mu",
                 "--product2", P[f"m4_{op}_def"]],
                self._expect_bihamiltonian("M4", "adk", ("mu",), ("deformed", op)))
        return inv

    # -- oracle predictions ----------------------------------------------------------------

    def _memo(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    def _product(self, alg, spec):
        """An oracle table: ``("mu",)`` or ``("deformed", operator key)``."""
        if spec == ("mu",):
            return self.tables[alg]
        return self._deformed(alg, spec[1])

    def _deformed(self, alg, op):
        return self._memo(("deformed", alg, op),
                          lambda: O.deformed(self.tables[alg], self.ops[op][1]))

    def _associative(self, alg, spec):
        return self._memo(("assoc", alg, spec),
                          lambda: O.is_associative(self._product(alg, spec)))

    def _torsion_free(self, alg, op):
        return self._memo(("tfree", alg, op), lambda: O.first_nonzero_pair(
            O.torsion(self.tables[alg], self.ops[op][1])) is None)

    def _unit_preserved(self, alg, op):
        unit = O.unit_of(self.tables[alg])
        return O.apply(self.ops[op][1], unit) == unit

    def _expect_all_pass(self):
        def predict():
            def check(rep):
                bad = [c["name"] for c in rep["checks"] if not c["pass"]]
                return [f"failed checks {bad}"] if bad else []
            return 0, check
        return predict

    def _expect_cohomology(self, dim):
        def predict():
            def check(rep):
                got = rep["outputs"]["dimension"]
                return [] if got == dim else [f"dimension {got}, expected {dim}"]
            return 0, check
        return predict

    def _expect_nijenhuis(self, alg, op):
        def predict():
            want = {
                "torsion_zero": self._torsion_free(alg, op),
                "deformed_associative": self._associative(alg, ("deformed", op)),
                "unit_preserved": self._unit_preserved(alg, op),
            }
            return (0 if all(want.values()) else 1), checks_equal(want)
        return predict

    def _expect_torsion(self, alg, op):
        def predict():
            table = O.torsion(self.tables[alg], self.ops[op][1])
            zero = O.first_nonzero_pair(table) is None

            def check(rep):
                d = len(table)
                out = rep["outputs"]
                errors = [] if out["torsion_zero"] == zero else ["torsion_zero disagrees"]
                if triples_table(out["torsion"], d) != table:
                    errors.append("torsion table differs from the oracle")
                return errors
            return 0, check
        return predict

    def _expect_deform(self, alg, op, key):
        def predict():
            table = self._deformed(alg, op)
            assoc = self._associative(alg, ("deformed", op))
            unit = O.unit_of(self.tables[alg])
            want_unit = [O.fmt(v) for v in unit] if self._unit_preserved(alg, op) else None
            path = self.paths[key]

            def check(rep):
                d = len(table)
                doc = rep["outputs"]["product"]
                errors = []
                if triples_table(doc["structure"], d) != table:
                    errors.append("deformed table differs from the oracle")
                if doc["associative"] is not assoc:
                    errors.append("associative flag disagrees")
                if doc["unit"] != want_unit:
                    errors.append(f"unit {doc['unit']} != {want_unit}")
                with open(path, encoding="utf-8") as fh:
                    exported = json.load(fh)
                if triples_table(exported["structure"], d) != table:
                    errors.append(f"exported {key} differs from the oracle")
                return errors
            return 0, check
        return predict

    def _expect_criterion(self, alg, op):
        def predict():
            assoc = self._associative(alg, ("deformed", op))

            def check(rep):
                out = rep["outputs"]
                # Deformed associativity and the torsion being a 2-cocycle are
                # equivalent, so both must equal the oracle's associativity.
                if out["deformed_associative"] is assoc and out["torsion_is_2cocycle"] is assoc:
                    return checks_equal({"booleans_agree": True})(rep)
                return [f"criterion outputs {out} disagree with associativity {assoc}"]
            return 0, check
        return predict

    def _compatible(self, alg, spec1, spec2):
        return self._memo(("compat", alg, spec1, spec2), lambda: O.compatible(
            self._product(alg, spec1), self._product(alg, spec2)))

    def _expect_compat(self, alg, spec1, spec2):
        def predict():
            ok = self._compatible(alg, spec1, spec2)
            return (0 if ok else 1), checks_equal({"mixed_associators_cancel": ok})
        return predict

    def _expect_tensors_compat(self, alg, op1, op2):
        def predict():
            if not (self._torsion_free(alg, op1) and self._torsion_free(alg, op2)):
                return 2, None
            total = O.map_add(self.ops[op1][1], self.ops[op2][1])
            ok = O.first_nonzero_pair(O.torsion(self.tables[alg], total)) is None
            want = {"compatible": ok, "matches_sum_torsion_freeness": True}
            return (0 if ok else 1), checks_equal(want)
        return predict

    def _expect_hierarchy(self, alg, op):
        def predict():
            # The power hierarchy of a torsion-free operator holds in full.
            if not self._torsion_free(alg, op):
                return 2, None
            return 0, self._expect_all_pass()()[1]
        return predict

    def _expect_projection(self):
        def predict():
            g = O.gauss
            n = diagonal_map([g(1), g(1), g(Fraction(1, 2)), g(1)])
            table = O.deformed(self.tables["M2"], n)

            def check(rep):
                out = rep["outputs"]
                errors = self._expect_all_pass()()[1](rep)
                if triples_table(out["product"]["structure"], 4) != table:
                    errors.append("projection product differs from the oracle")
                if [[O.parse(v) for v in row] for row in out["operator"]["matrix"]] != n:
                    errors.append("projection operator differs")
                return errors
            ok = (O.first_nonzero_pair(O.torsion(self.tables["M2"], n)) is None
                  and O.is_associative(table))
            return (0 if ok else 1), check
        return predict

    def _expect_contraction(self):
        def predict():
            # A o B = A1 B1 + P2(A1 B2 + A2 B1) for the diagonal / off-diagonal split.
            m2, part1 = self.tables["M2"], {0, 3}
            table = [[O.zeros(4) for _ in range(4)] for _ in range(4)]
            for a in range(4):
                for b in range(4):
                    if a in part1 and b in part1:
                        table[a][b] = m2[a][b]
                    elif a in part1 or b in part1:
                        table[a][b] = [v if k not in part1 else O.ZERO
                                       for k, v in enumerate(m2[a][b])]
            ok = O.is_associative(table)

            def check(rep):
                errors = checks_equal({"associative": ok, "limit_interpolation_matches": True})(rep)
                if triples_table(rep["outputs"]["product"]["structure"], 4) != table:
                    errors.append("contraction product differs from the oracle")
                return errors
            return (0 if ok else 1), check
        return predict

    def _expect_theorem5(self):
        def predict():
            # circ1 = K X Y on the diagonal, N1 = L_K there, N2 = identity on the
            # off-diagonal part, so A o B = K A1 B1 + (K A1 B2 + A2 K B1)_2.
            m2, part1 = self.tables["M2"], {0, 3}
            k2 = [O.gauss(1), O.ZERO, O.ZERO, O.gauss(2)]
            lk = left_multiplication(m2, k2)
            table = [[O.zeros(4) for _ in range(4)] for _ in range(4)]
            for a in range(4):
                for b in range(4):
                    ea, eb = O.unit_vector(4, a), O.unit_vector(4, b)
                    if a in part1 and b in part1:
                        table[a][b] = O.bilinear(m2, O.apply(lk, ea), eb)
                    elif a in part1 or b in part1:
                        left = O.apply(lk, ea) if a in part1 else ea
                        right = O.apply(lk, eb) if b in part1 else eb
                        table[a][b] = [v if k not in part1 else O.ZERO
                                       for k, v in enumerate(O.bilinear(m2, left, right))]
            ok = O.is_associative(table)

            def check(rep):
                errors = checks_equal({"associative": ok})(rep)
                if triples_table(rep["outputs"]["product"]["structure"], 4) != table:
                    errors.append("two-part product differs from the oracle")
                return errors
            return (0 if ok else 1), check
        return predict

    def _expect_extend(self):
        def predict():
            n = self.ops["n1diag"][1]  # already zero off the diagonal part
            tfree = O.first_nonzero_pair(O.torsion(self.tables["M2"], n)) is None

            def check(rep):
                out = rep["outputs"]
                errors = checks_equal({"conditions_equal_torsion_freeness": True})(rep)
                if out["is_nijenhuis"] is not tfree:
                    errors.append("is_nijenhuis disagrees with the oracle torsion")
                if [[O.parse(v) for v in row] for row in out["operator"]["matrix"]] != n:
                    errors.append("extended operator differs")
                return errors
            return 0, check
        return predict

    def _expect_lie(self, alg, op):
        def predict():
            ok = O.lie_torsion_zero(self.tables[alg], self.ops[op][1])
            want = {"deformed_bracket_identity": True, "lie_torsion_zero": ok}
            return (0 if ok else 1), checks_equal(want)
        return predict

    def _expect_derivation(self, alg, op, spec):
        def predict():
            ok = O.is_derivation(self._product(alg, spec), self.ops[op][1])
            return (0 if ok else 1), checks_equal({"leibniz": ok})
        return predict

    def _inner(self, alg, op, spec):
        return self._memo(("inner", alg, op, spec), lambda: O.inner_generator(
            self._product(alg, spec), self.ops[op][1]) is not None)

    def _expect_inner(self, alg, op, spec):
        def predict():
            table, dmap = self._product(alg, spec), self.ops[op][1]
            inner = self._inner(alg, op, spec)
            deriv = O.is_derivation(table, dmap)

            def check(rep):
                out = rep["outputs"]
                errors = checks_equal({"inner": inner})(rep)
                if out["is_derivation"] is not deriv:
                    errors.append("is_derivation disagrees")
                if inner:
                    h = [O.parse(v) for v in out["generator"]]
                    if O.commutator_map(table, h) != dmap:
                        errors.append("generator does not reproduce the derivation")
                    zero = O.commutator_map(table, O.zeros(len(h)))
                    for z in out["ambiguity"]:
                        if O.commutator_map(table, [O.parse(v) for v in z]) != zero:
                            errors.append("ambiguity vector is not central")
                return errors
            return (0 if inner else 1), check
        return predict

    def _expect_bihamiltonian(self, alg, op, spec1, spec2):
        def predict():
            if not (self._associative(alg, spec1) and self._associative(alg, spec2)):
                return 2, None
            p1, p2 = self._product(alg, spec1), self._product(alg, spec2)
            c1, c2 = O.commutator_table(p1), O.commutator_table(p2)
            d = len(p1)
            bracket = [[O.vadd(c1[a][b], c2[a][b]) for b in range(d)] for a in range(d)]
            want = {
                "inner_first": self._inner(alg, op, spec1),
                "inner_second": self._inner(alg, op, spec2),
                "sum_bracket_jacobi": O.jacobi_holds(bracket),
                "products_compatible": self._compatible(alg, spec1, spec2),
            }
            want["weak"] = want["inner_first"] and want["inner_second"] and want["sum_bracket_jacobi"]
            want["strong"] = want["weak"] and want["products_compatible"]

            def check(rep):
                got = {k: rep["outputs"][k] for k in want}
                return [] if got == want else [f"outputs {got} != oracle {want}"]
            return 0, check
        return predict

    def _expect_refused(self):
        def predict():
            forged = O.deformed(self.tables["M2"], self.ops["transpose"][1])
            if O.is_associative(forged):
                raise AssertionError("the forged product was meant to be non-associative")
            return 2, None
        return predict

    # -- the pass -----------------------------------------------------------------------------

    def operations(self):
        ops = []
        for label, argv, _expect, known_fault in self.invocations:
            for repeat in (1, 2):
                fn = (lambda a: lambda: self._invoke(a))(argv)
                ops.append(Op(f"{label} #{repeat}", fn, known_fault))
        return ops

    def _invoke(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.api.cli.main(list(argv))
            except SystemExit as exc:  # argparse refusals
                code = exc.code
        return code, out.getvalue()

    def prepare_checks(self):
        self._cache = {}
        self.predictions = {label: expect() for label, _argv, expect, _kf in self.invocations}
        self._first_output = {}

    def check(self, op, result):
        label, repeat = op.label.rsplit(" #", 1)
        code, text = result
        want_code, check_report = self.predictions[label]
        self.report_bytes += len(text.encode("utf-8"))
        errors = []
        if repeat == "1":
            self._first_output[label] = text
        else:
            first = self._first_output.pop(label, None)  # None: the first one raised
            if first is not None and text != first:
                errors.append(f"{label}: report differs when repeated")
        if code != want_code:
            errors.append(f"{label}: exit {code}, expected {want_code}")
        elif check_report is not None:
            errors += [f"{label}: {e}" for e in check_report(json.loads(text))]
        return errors

    def pass_metrics(self, timings):
        flat = sorted(timings.values())
        return {
            "main_op_s": statistics.median(
                [timings["hierarchy M4 lk 6 #1"], timings["hierarchy M4 lk 6 #2"]]),
            # The highest percentile with at least ten invocations beyond it.
            "second_op_s": flat[len(flat) - 11],
            "op_p50_ms": median_ms(flat),
        }

def checks_equal(want):
    """A report check: its ``checks`` list must read exactly ``want``."""
    def check(rep):
        got = {c["name"]: c["pass"] for c in rep["checks"]}
        return [] if got == want else [f"checks {got} != oracle {want}"]
    return check


WORKLOADS = {w.name: w for w in (Cohomology, CliGaussian)}
