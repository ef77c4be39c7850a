"""Exact dense matrices over a scalar field or over the fraction field k(X).

One :class:`Matrix` class serves both: the ``domain`` attribute (a field
descriptor or a :class:`~streamcalc.poly.FractionField`) supplies identities,
coercion and an integer form, and every entry operation is exact.  The two
kernels run on that integer form and box nothing; each public function
boxes once, at its edge.  ``integer_orbit`` iterates a matrix on integers
over one denominator, and ``orbit`` boxes its terms.  ``_eliminate`` is the
one Gaussian elimination, fraction-free on rows in the integer form
(integers over Q and GF(p), polynomials over k(X)); ``rank`` reads its
pivots, and ``rref``, ``kernel_basis``, ``inverse`` and ``solve`` read its
rows through ``_reduced``, which boxes each pivot row once.  Besides its
constructors (``Matrix(domain, rows)``, ``zero``, ``identity``) a matrix
has only the operations the package calls: the product, ``transpose``,
``apply``, ``orbit`` and ``integer_orbit``; entries are read from
``entries``.
"""

from __future__ import annotations

from operator import mul
from typing import Iterable, List, Optional, Sequence, Tuple

from .errors import FieldMismatch, FormatError, ShapeMismatch, SingularMatrix, check_count
from .fields import Field
from .poly import FractionField, Polynomial, RationalFunction
from .ratstream import RationalStream


class Matrix:
    __slots__ = ("domain", "rows", "cols", "entries")

    def __init__(self, domain, rows_of_entries: Iterable[Iterable], cols: Optional[int] = None):
        table = tuple(tuple(domain.coerce(e) for e in row) for row in rows_of_entries)
        if table:
            widths = {len(row) for row in table}
            if len(widths) != 1:
                raise ShapeMismatch("ragged matrix rows")
            cols_found = widths.pop()
            if cols is not None and cols != cols_found:
                raise ShapeMismatch("explicit column count disagrees with rows")
            cols = cols_found
        elif cols is None:
            cols = 0
        self.domain = domain
        self.rows = len(table)
        self.cols = cols
        self.entries = table

    @classmethod
    def zero(cls, domain, rows: int, cols: int):
        z = domain.zero()
        return cls(domain, ((z,) * cols for _ in range(rows)), cols=cols)

    @classmethod
    def identity(cls, domain, n: int):
        z, o = domain.zero(), domain.one()
        return cls(
            domain,
            ((o if i == j else z for j in range(n)) for i in range(n)),
            cols=n,
        )

    def _check(self, other: "Matrix"):
        if other.domain != self.domain:
            raise FieldMismatch("matrices over different domains")

    def __mul__(self, other):
        self._check(other)
        if self.cols != other.rows:
            raise ShapeMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        dot, columns = self.domain.dot, other.transpose().entries
        return Matrix(
            self.domain,
            ((dot(row, column) for column in columns) for row in self.entries),
            cols=other.cols,
        )

    def transpose(self) -> "Matrix":
        return Matrix(
            self.domain,
            ((self.entries[i][j] for i in range(self.rows)) for j in range(self.cols)),
            cols=self.rows,
        )

    def apply(self, vector: Sequence) -> Tuple:
        """Matrix-vector product, on plain tuples."""
        dot, vec = self.domain.dot, self._vector(vector)
        return tuple(dot(row, vec) for row in self.entries)

    def orbit(self, vector: Sequence, steps: int, output: Optional["Matrix"] = None) -> List[Tuple]:
        """v, Mv, ..., M^(steps-1) v for this square M over Q or GF(p), or with
        an ``output`` matrix H of as many columns H v, H M v, ...,
        H M^(steps-1) v: ``integer_orbit``'s terms, each boxed by ``ratios``."""
        ratios = self.domain.ratios
        return [tuple(ratios(w, g)) for w, g in self.integer_orbit(vector, steps, output)]

    def integer_orbit(
        self, vector: Sequence, steps: int, output: Optional["Matrix"] = None
    ) -> List[Tuple[List[int], int]]:
        """``orbit``'s terms in the field's integer form, each (ints, g) with
        the term ints[i] / g: the one loop that applies a matrix to its own
        result, stopping at the last term.

        M's entries are integers over one denominator d (``integers``), so dM
        is kept as sparse rows of (column, integer) nonzeros, and each state
        is integers w over one denominator g; a step is w <- dM w and
        g <- d g, made smaller by ``shrink`` (over Q the common content of w
        and g stripped, over GF(p) w reduced mod p).  So a term without H is
        (w, g), its ints residues over GF(p).  With H, over one denominator
        e, a term is (eH w, e g), not reduced: ``ratios`` reduces it, and a
        zero test reads ``v % p if p else v``, p the ``characteristic``.
        A matrix over k(X) has no integer form and raises FieldMismatch."""
        if self.rows != self.cols:
            raise ShapeMismatch("an orbit needs a square matrix")
        if output is not None and output.cols != self.cols:
            raise ShapeMismatch(f"output matrix of {output.cols} columns for {self.cols}")
        check_count(steps, "orbit length")
        field = self.domain
        if isinstance(field, FractionField):
            raise FieldMismatch("an orbit expects a matrix over the scalar field")
        rows, d = self._integer_rows()
        w, g = field.integers(self._vector(vector))
        shrink = field.shrink
        if output is not None:
            read, e = output._integer_rows()
        terms = []
        for t in range(steps):
            if t:
                w, g = shrink(_sparse_times(rows, w), d * g)
            terms.append((w, g) if output is None else (_sparse_times(read, w), e * g))
        return terms

    def _integer_rows(self) -> Tuple[List[Tuple[List[int], List[int]]], int]:
        """(rows, d): this matrix as dM, each row the (columns, integers)
        of its nonzero entries, and d > 0 their one denominator."""
        flat, d = self.domain.integers(e for row in self.entries for e in row)
        rows, n = [], self.cols
        for i in range(self.rows):
            row = flat[i * n : (i + 1) * n]
            columns = [j for j, a in enumerate(row) if a]
            rows.append((columns, [row[j] for j in columns]))
        return rows, d

    def _vector(self, vector: Sequence) -> Tuple:
        vec = tuple(self.domain.coerce(v) for v in vector)
        if len(vec) != self.cols:
            raise ShapeMismatch(f"vector of length {len(vec)} for {self.cols} columns")
        return vec

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.domain == other.domain
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.domain, self.cols, self.entries))

    def __repr__(self):
        return f"Matrix({self.domain!r}, {[list(r) for r in self.entries]!r}, cols={self.cols})"

    def __str__(self):
        return format_matrix(self)


def _sparse_times(rows, w: List[int]) -> List[int]:
    # the integer mat-vec of _integer_rows' sparse rows
    return [sum(map(mul, weights, [w[j] for j in columns])) for columns, weights in rows]


def _eliminate(domain, rows: List[List], cols: int) -> Tuple[List[List], List[int]]:
    """The reduced row echelon form of ``rows`` in the integer form of
    ``domain`` (over GF(p) residues, over k(X) polynomials; a row's
    denominator dropped, since scaling a row leaves its reduced form alone):
    (rows, pivot columns), the rows reordered so that row i holds pivot i and
    updated in place, each a nonzero multiple of its reduced row; the rows
    past the pivots are zero.

    Fraction-free Gauss-Jordan (Bareiss 1968), the one loop for Q, GF(p) and
    k(X).  A pivot a at column c clears c from every other row r with r[c] =
    b by r <- a r - b pivot, which needs no division; a zero entry of the
    pivot row is never multiplied, nor a zero entry of r scaled.  ``shrink``
    then makes the row smaller (over Q its content stripped, over GF(p)
    reduced mod p, over k(X) divided by the gcd of its polynomials), unless
    it is all zero.  Reduced row i is ``ratios(rows[i], rows[i][pivots[i]])``.
    """
    shrink = domain.shrink
    pivots: List[int] = []
    for col in range(cols):
        done = len(pivots)  # the rows above hold the pivots so far
        found = next((r for r in range(done, len(rows)) if rows[r][col]), None)
        if found is None:
            continue
        rows[done], rows[found] = rows[found], rows[done]
        pivot = rows[done]
        a = pivot[col]
        support = [(j, c) for j, c in enumerate(pivot) if c]
        for r, row in enumerate(rows):
            b = row[col]
            if r == done or not b:
                continue
            row = [a * e if e else e for e in row]
            for j, c in support:
                row[j] -= b * c
            rows[r] = shrink(row, 0)[0] if any(row) else row
        pivots.append(col)
    return rows, pivots


def _integer_entries(matrix: Matrix) -> List[List]:
    """Each row of ``matrix`` in its domain's integer form, its denominator
    dropped: the rows that ``_eliminate`` takes."""
    return [matrix.domain.integers(row)[0] for row in matrix.entries]


def _reduced(matrix: Matrix) -> Tuple[List[List], List[int]]:
    """(rows, pivot columns) of ``matrix``'s reduced row echelon form, boxed:
    ``_eliminate`` on each row's ``integers``, each pivot row boxed once by
    ``ratios`` over its pivot, the rows past the pivots zero."""
    domain = matrix.domain
    rows, pivots = _eliminate(domain, _integer_entries(matrix), matrix.cols)
    zero = domain.zero()
    boxed = [domain.ratios(row, row[col]) for row, col in zip(rows, pivots)]
    boxed += [[zero] * matrix.cols for _ in rows[len(pivots) :]]
    return boxed, pivots


def rref(matrix: Matrix) -> Tuple[Matrix, Tuple[int, ...]]:
    rows, pivots = _reduced(matrix)
    return Matrix(matrix.domain, rows, cols=matrix.cols), tuple(pivots)


def rank(matrix: Matrix) -> int:
    return len(_eliminate(matrix.domain, _integer_entries(matrix), matrix.cols)[1])


def kernel_basis(matrix: Matrix) -> List[Tuple]:
    """Basis of the null space in reduced echelon parametrization."""
    rows, pivots = _reduced(matrix)
    zero, one = matrix.domain.zero(), matrix.domain.one()
    pivot_set = set(pivots)
    basis = []
    for free in range(matrix.cols):
        if free in pivot_set:
            continue
        vec = [zero] * matrix.cols
        vec[free] = one
        for row_index, pivot_col in enumerate(pivots):
            vec[pivot_col] = -rows[row_index][free]
        basis.append(tuple(vec))
    return basis


def inverse(matrix: Matrix) -> Matrix:
    """Exact inverse by Gauss-Jordan elimination on the augmented matrix."""
    if matrix.rows != matrix.cols:
        raise ShapeMismatch("only square matrices can be inverted")
    n = matrix.rows
    ident = Matrix.identity(matrix.domain, n)
    augmented = Matrix(
        matrix.domain,
        (tuple(matrix.entries[i]) + tuple(ident.entries[i]) for i in range(n)),
        cols=2 * n,
    )
    rows, pivots = _reduced(augmented)
    if list(pivots) != list(range(n)):
        raise SingularMatrix("matrix has zero determinant")
    return Matrix(matrix.domain, (row[n:] for row in rows), cols=n)


def solve(matrix: Matrix, rhs: Sequence) -> Optional[Tuple]:
    """One exact solution of M x = rhs (free variables set to 0), or None."""
    vec = tuple(matrix.domain.coerce(v) for v in rhs)
    if len(vec) != matrix.rows:
        raise ShapeMismatch("right-hand side length does not match row count")
    augmented = Matrix(
        matrix.domain,
        (tuple(matrix.entries[i]) + (vec[i],) for i in range(matrix.rows)),
        cols=matrix.cols + 1,
    )
    rows, pivots = _reduced(augmented)
    if matrix.cols in pivots:
        return None  # inconsistent
    zero = matrix.domain.zero()
    solution = [zero] * matrix.cols
    for row_index, pivot_col in enumerate(pivots):
        solution[pivot_col] = rows[row_index][matrix.cols]
    return tuple(solution)


def _shifted_complement(transition: Matrix) -> Matrix:
    """I - X*F over k(X) for a square matrix F over the field k."""
    if transition.rows != transition.cols:
        raise ShapeMismatch("resolvent needs a square matrix")
    field = transition.domain
    if isinstance(field, FractionField):
        raise FieldMismatch("resolvent expects a matrix over the scalar field")
    kx = FractionField(field)
    n = transition.rows
    one = Polynomial.one(field)
    entries = []
    for i in range(n):
        row = []
        for j in range(n):
            diag = one if i == j else Polynomial.zero(field)
            shifted = Polynomial.monomial(field, transition.entries[i][j], 1)
            row.append(RationalFunction.from_polynomial(diag - shifted))
        entries.append(row)
    return Matrix(kx, entries, cols=n)


def resolvent(transition: Matrix) -> Matrix:
    """(I - X*F)^-1 over k(X) for a square matrix F over the field k.

    Always invertible: det(I - X*F) has constant term 1.  Every entry has a
    denominator that is nonzero at 0, so entries reinterpret as rational
    streams; by construction the expansion of entry (i, j) enumerates the
    powers (F^t)_{ij}.
    """
    return inverse(_shifted_complement(transition))


def resolvent_streams(transition: Matrix, vector: Sequence) -> Tuple[RationalStream, ...]:
    """(I - X*F)^-1 applied to a constant vector, as rational streams.

    Solves the single linear system instead of inverting the whole matrix.
    Elimination over k(X) is far slower than ``LinearSystem.behaviour``'s
    Berlekamp-Massey path, which gives the same streams; this stays as the
    paper's definition and as the independent oracle in the tests.
    """
    system = _shifted_complement(transition)
    kx = system.domain
    solution = solve(system, [kx.coerce(v) for v in vector])
    assert solution is not None  # I - X*F is invertible over k(X)
    return tuple(RationalStream.from_fraction(entry) for entry in solution)


def format_matrix(matrix: Matrix) -> str:
    """Matrix text format: rows joined by ';', entries by ','."""
    return ";".join(
        ",".join(matrix.domain.format(e) for e in row) for row in matrix.entries
    )


def parse_matrix(field: Field, text: str) -> Matrix:
    """Parse the matrix text format over a scalar field."""
    rows = []
    for row_text in text.strip().split(";"):
        cells = row_text.split(",")
        if cells == [""]:
            raise FormatError("empty matrix row")
        if rows and len(cells) != len(rows[0]):
            raise FormatError("matrix rows of unequal length")
        rows.append([field.parse(cell) for cell in cells])
    return Matrix(field, rows)


def parse_vector(field: Field, text: str) -> Tuple:
    return tuple(field.parse(cell) for cell in text.strip().split(","))


def format_vector(field: Field, vector: Sequence) -> str:
    return ",".join(field.format(v) for v in vector)
