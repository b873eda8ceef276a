package optimize

import "math"

// cholFactor is a lower-triangular Cholesky factor in packed row-major
// storage: row i occupies l[i*(i+1)/2 : i*(i+1)/2+i+1]. The packed layout
// makes the two operations the incremental GP engine lives on cheap:
// appending a row is an append to the flat slice (O(n) memory movement,
// amortized zero allocation), and retracting trailing rows — how constant-
// liar fantasy observations are withdrawn — is a slice truncation, O(1).
type cholFactor struct {
	n int
	l []float64
}

// rowOff is the offset of row i in packed storage.
func rowOff(i int) int { return i * (i + 1) / 2 }

// reset empties the factor, keeping capacity.
func (f *cholFactor) reset() {
	f.n = 0
	f.l = f.l[:0]
}

// truncate retracts the factor to its leading n rows. Because appending
// rows never touches earlier rows, the leading submatrix factor is exactly
// the factor that would have been computed for the first n points alone.
func (f *cholFactor) truncate(n int) {
	if n < f.n {
		f.n = n
		f.l = f.l[:rowOff(n)]
	}
}

// factorize computes the factor of the symmetric matrix whose packed lower
// triangle (diagonal included) is in a, adding jitter to the diagonal. It
// reports whether the matrix (plus jitter) was positive definite. The
// elimination order and arithmetic match the textbook row-by-row algorithm,
// so an append performed later reproduces bit-identical entries.
func (f *cholFactor) factorize(a []float64, n int, jitter float64) bool {
	f.n = n
	need := rowOff(n)
	if cap(f.l) < need {
		f.l = make([]float64, need)
	}
	f.l = f.l[:need]
	l := f.l
	for i := 0; i < n; i++ {
		ri := rowOff(i)
		for j := 0; j <= i; j++ {
			s := a[ri+j]
			if i == j {
				s += jitter
			}
			rj := rowOff(j)
			for k := 0; k < j; k++ {
				s -= l[ri+k] * l[rj+k]
			}
			if i == j {
				if s <= 0 {
					return false
				}
				l[ri+i] = math.Sqrt(s)
			} else {
				l[ri+j] = s / l[rj+j]
			}
		}
	}
	return true
}

// appendRow extends an n-row factor to n+1 rows in O(n^2): row holds the
// covariances k(x_new, x_i) for the existing i < n and diag holds
// k(x_new, x_new) plus noise. It reports false — leaving the factor
// untouched — when the extended matrix is not positive definite, in which
// case the caller refactorizes from scratch with jitter escalation.
//
// The arithmetic is exactly the last row of factorize: the off-diagonal
// entries are the forward solve L c = row and the diagonal is
// sqrt(diag - c.c), so incremental growth is bit-identical to a from-
// scratch factorization of the extended matrix.
func (f *cholFactor) appendRow(row []float64, diag float64) bool {
	n := f.n
	off := rowOff(n)
	if cap(f.l) < off+n+1 {
		grown := make([]float64, off, 2*(off+n+1))
		copy(grown, f.l)
		f.l = grown
	}
	l := f.l[:off+n+1]
	for j := 0; j < n; j++ {
		s := row[j]
		rj := rowOff(j)
		for k := 0; k < j; k++ {
			s -= l[off+k] * l[rj+k]
		}
		l[off+j] = s / l[rj+j]
	}
	s := diag
	for k := 0; k < n; k++ {
		s -= l[off+k] * l[off+k]
	}
	if s <= 0 {
		return false
	}
	l[off+n] = math.Sqrt(s)
	f.l = l
	f.n = n + 1
	return true
}

// forwardInto solves L y = b into dst (dst may alias b).
func (f *cholFactor) forwardInto(dst, b []float64) {
	l := f.l
	for i := 0; i < f.n; i++ {
		ri := rowOff(i)
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l[ri+k] * dst[k]
		}
		dst[i] = s / l[ri+i]
	}
}

// backInto solves L^T x = y into dst (dst may alias y).
func (f *cholFactor) backInto(dst, y []float64) {
	l := f.l
	for i := f.n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < f.n; k++ {
			s -= l[rowOff(k)+i] * dst[k]
		}
		dst[i] = s / l[rowOff(i)+i]
	}
}

// extendForward computes the next forward-solve entry for a freshly
// appended row n-1: given the solve prefix w[0:n-1] for the first n-1
// rows, it returns w[n-1] for right-hand side entry b.
func (f *cholFactor) extendForward(w []float64, b float64) float64 {
	i := f.n - 1
	ri := rowOff(i)
	l := f.l
	s := b
	for k := 0; k < i; k++ {
		s -= l[ri+k] * w[k]
	}
	return s / l[ri+i]
}
