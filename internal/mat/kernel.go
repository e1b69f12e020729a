package mat

import "fmt"

// This file is the allocation-free compute core: flat row-major kernels that
// write into caller-provided slices, plus a Workspace arena for scratch
// buffers. The Matrix methods in mat.go are thin wrappers over these; hot
// paths (the neural network's batched forward/backward, the EKF update, the
// kriging solves) call them directly so no temporaries are allocated per
// operation.
//
// Determinism: every kernel accumulates in a fixed order. MatMulBTBias and
// Gemv use the per-row dot-product order (bias first, then k ascending),
// which is the exact accumulation order of the scalar per-neuron loops they
// replace — results are bit-for-bit identical, not merely close.

// gemmBlock is the tile edge for the blocked MatMul variants. Matrices at or
// below this size (everything in the EKF, and each NN layer dimension) run
// as a single tile, so blocking only kicks in for large kriging systems and
// wide minibatches.
const gemmBlock = 64

func checkKernelDims(name string, lenDst, lenA, m, k, n int) {
	if m < 0 || k < 0 || n < 0 {
		panic(fmt.Sprintf("mat: %s with negative shape m=%d k=%d n=%d", name, m, k, n))
	}
	if lenA < m*k {
		panic(fmt.Sprintf("mat: %s lhs has %d elements, need %d", name, lenA, m*k))
	}
	if lenDst < m*n {
		panic(fmt.Sprintf("mat: %s dst has %d elements, need %d", name, lenDst, m*n))
	}
}

// MatMul computes dst = a·b where a is m×k and b is k×n, all flat row-major.
// The multiply is blocked over k and n so large operands stay cache-resident;
// zero entries of a are skipped, which makes one-hot design matrices cheap.
func MatMul(dst, a, b []float64, m, k, n int) {
	checkKernelDims("MatMul", len(dst), len(a), m, k, n)
	if len(b) < k*n {
		panic(fmt.Sprintf("mat: MatMul rhs has %d elements, need %d", len(b), k*n))
	}
	dst = dst[:m*n]
	for i := range dst {
		dst[i] = 0
	}
	for kc := 0; kc < k; kc += gemmBlock {
		kEnd := min(kc+gemmBlock, k)
		for jc := 0; jc < n; jc += gemmBlock {
			jEnd := min(jc+gemmBlock, n)
			for i := 0; i < m; i++ {
				ai := a[i*k : (i+1)*k]
				ci := dst[i*n : (i+1)*n]
				for kk := kc; kk < kEnd; kk++ {
					av := ai[kk]
					if av == 0 {
						continue
					}
					brow := b[kk*n : (kk+1)*n]
					for j := jc; j < jEnd; j++ {
						ci[j] += av * brow[j]
					}
				}
			}
		}
	}
}

// MatMulBT computes dst = a·bᵀ where a is m×k and b is n×k, all flat
// row-major. Both operands stream row-contiguously, so this is the preferred
// layout for dense layers (activations × weight-rows).
func MatMulBT(dst, a, b []float64, m, k, n int) {
	checkKernelDims("MatMulBT", len(dst), len(a), m, k, n)
	if len(b) < n*k {
		panic(fmt.Sprintf("mat: MatMulBT rhs has %d elements, need %d", len(b), n*k))
	}
	for i := 0; i < m; i++ {
		ai := a[i*k : (i+1)*k]
		ci := dst[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			bj := b[j*k : (j+1)*k]
			var sum float64
			for kk, av := range ai {
				sum += av * bj[kk]
			}
			ci[j] = sum
		}
	}
}

// MatMulBTBias computes dst[i,j] = bias[j] + Σₖ a[i,k]·b[j,k] with a m×k and
// b n×k. Every (i,j) accumulator starts from bias[j] and sums in ascending
// k — the exact order of the scalar per-neuron loop `sum := bias;
// sum += w[k]*x[k]` that nn.Predict runs — so a whole batch is
// bit-identical to sample-at-a-time inference. The main path is a 2×4
// register-blocked micro-kernel: eight independent accumulator chains per
// k step, which breaks the add-latency dependency that throttles
// one-dot-at-a-time code while leaving each chain's own order untouched.
// (No data-dependent zero-skip here: the branch mispredictions cost more
// than the skipped multiplies, even on one-hot rows.)
func MatMulBTBias(dst, a, b, bias []float64, m, k, n int) {
	checkKernelDims("MatMulBTBias", len(dst), len(a), m, k, n)
	if len(b) < n*k {
		panic(fmt.Sprintf("mat: MatMulBTBias rhs has %d elements, need %d", len(b), n*k))
	}
	if len(bias) < n {
		panic(fmt.Sprintf("mat: MatMulBTBias bias has %d elements, need %d", len(bias), n))
	}
	i := 0
	for ; i+2 <= m; i += 2 {
		a0 := a[i*k : (i+1)*k]
		a1 := a[(i+1)*k : (i+2)*k]
		c0 := dst[i*n : (i+1)*n]
		c1 := dst[(i+1)*n : (i+2)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b[j*k : (j+1)*k]
			b1 := b[(j+1)*k : (j+2)*k]
			b2 := b[(j+2)*k : (j+3)*k]
			b3 := b[(j+3)*k : (j+4)*k]
			s00, s01, s02, s03 := bias[j], bias[j+1], bias[j+2], bias[j+3]
			s10, s11, s12, s13 := s00, s01, s02, s03
			for kk, v0 := range a0 {
				v1 := a1[kk]
				w0, w1, w2, w3 := b0[kk], b1[kk], b2[kk], b3[kk]
				s00 += w0 * v0
				s01 += w1 * v0
				s02 += w2 * v0
				s03 += w3 * v0
				s10 += w0 * v1
				s11 += w1 * v1
				s12 += w2 * v1
				s13 += w3 * v1
			}
			c0[j], c0[j+1], c0[j+2], c0[j+3] = s00, s01, s02, s03
			c1[j], c1[j+1], c1[j+2], c1[j+3] = s10, s11, s12, s13
		}
		for ; j < n; j++ {
			bj := b[j*k : (j+1)*k]
			s0, s1 := bias[j], bias[j]
			for kk, v0 := range a0 {
				w := bj[kk]
				s0 += w * v0
				s1 += w * a1[kk]
			}
			c0[j], c1[j] = s0, s1
		}
	}
	for ; i < m; i++ {
		ai := a[i*k : (i+1)*k]
		ci := dst[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			bj := b[j*k : (j+1)*k]
			sum := bias[j]
			for kk, av := range ai {
				sum += av * bj[kk]
			}
			ci[j] = sum
		}
	}
}

// MatMulAT computes dst = aᵀ·b where a is m×k and b is m×n (so dst is k×n),
// accumulating over rows in ascending order. This is the gradient shape
// ∇W = Δᵀ·X of the batched backward pass.
func MatMulAT(dst, a, b []float64, m, k, n int) {
	if len(a) < m*k {
		panic(fmt.Sprintf("mat: MatMulAT lhs has %d elements, need %d", len(a), m*k))
	}
	if len(b) < m*n {
		panic(fmt.Sprintf("mat: MatMulAT rhs has %d elements, need %d", len(b), m*n))
	}
	if len(dst) < k*n {
		panic(fmt.Sprintf("mat: MatMulAT dst has %d elements, need %d", len(dst), k*n))
	}
	dst = dst[:k*n]
	for i := range dst {
		dst[i] = 0
	}
	for r := 0; r < m; r++ {
		ar := a[r*k : (r+1)*k]
		br := b[r*n : (r+1)*n]
		for i, av := range ar {
			if av == 0 {
				continue
			}
			di := dst[i*n : (i+1)*n]
			for j, bv := range br {
				di[j] += av * bv
			}
		}
	}
}

// Gemv computes dst = a·x for a flat row-major m×n matrix, one dot product
// per row in ascending column order.
func Gemv(dst, a, x []float64, m, n int) {
	if len(a) < m*n {
		panic(fmt.Sprintf("mat: Gemv matrix has %d elements, need %d", len(a), m*n))
	}
	if len(x) < n {
		panic(fmt.Sprintf("mat: Gemv vector has %d elements, need %d", len(x), n))
	}
	if len(dst) < m {
		panic(fmt.Sprintf("mat: Gemv dst has %d elements, need %d", len(dst), m))
	}
	for i := 0; i < m; i++ {
		row := a[i*n : (i+1)*n]
		var sum float64
		for j, v := range row {
			sum += v * x[j]
		}
		dst[i] = sum
	}
}

// Axpy computes y += α·x element-wise.
func Axpy(alpha float64, x, y []float64) {
	if len(y) < len(x) {
		panic(fmt.Sprintf("mat: Axpy y has %d elements, x has %d", len(y), len(x)))
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// VecAdd computes dst += x element-wise.
func VecAdd(dst, x []float64) {
	if len(dst) < len(x) {
		panic(fmt.Sprintf("mat: VecAdd dst has %d elements, x has %d", len(dst), len(x)))
	}
	for i, v := range x {
		dst[i] += v
	}
}

// VecSub computes dst -= x element-wise.
func VecSub(dst, x []float64) {
	if len(dst) < len(x) {
		panic(fmt.Sprintf("mat: VecSub dst has %d elements, x has %d", len(dst), len(x)))
	}
	for i, v := range x {
		dst[i] -= v
	}
}

// VecMul computes the Hadamard product dst ·= x element-wise.
func VecMul(dst, x []float64) {
	if len(dst) < len(x) {
		panic(fmt.Sprintf("mat: VecMul dst has %d elements, x has %d", len(dst), len(x)))
	}
	for i, v := range x {
		dst[i] *= v
	}
}

// Symmetrize overwrites the n×n flat row-major a with (a + aᵀ)/2, the
// in-place form of Matrix.Symmetrize.
func Symmetrize(a []float64, n int) {
	if len(a) < n*n {
		panic(fmt.Sprintf("mat: Symmetrize has %d elements, need %d", len(a), n*n))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			avg := (a[i*n+j] + a[j*n+i]) / 2
			a[i*n+j], a[j*n+i] = avg, avg
		}
	}
}

// VecScale multiplies every element of dst by s in place.
func VecScale(s float64, dst []float64) {
	for i := range dst {
		dst[i] *= s
	}
}

// Workspace is a grow-only scratch arena for float64 buffers. Take carves
// zeroed slices off the arena; Reset reclaims them all at once. After the
// arena has warmed up to a workload's peak demand, Take never allocates —
// the pattern behind the NN's zero-allocation inference path. A Workspace is
// not safe for concurrent use; share via sync.Pool instead.
type Workspace struct {
	buf  []float64
	used int
}

// NewWorkspace returns an arena with the given initial capacity (in
// float64s). Zero is fine; the arena grows on demand.
func NewWorkspace(capacity int) *Workspace {
	if capacity < 0 {
		capacity = 0
	}
	return &Workspace{buf: make([]float64, capacity)}
}

// Take returns a zeroed length-n slice carved from the arena. Growing the
// arena orphans (but does not invalidate) slices taken earlier: they keep
// their own backing memory and stay usable until the caller drops them.
func (w *Workspace) Take(n int) []float64 {
	s := w.TakeUninit(n)
	for i := range s {
		s[i] = 0
	}
	return s
}

// TakeUninit is Take without the zeroing: the returned slice holds whatever
// a previous use left there. For buffers every element of which is about to
// be overwritten (GEMM destinations, gather targets), it skips a redundant
// memset on the hot path.
func (w *Workspace) TakeUninit(n int) []float64 {
	if n < 0 {
		panic(fmt.Sprintf("mat: Workspace.Take(%d)", n))
	}
	if w.used+n > len(w.buf) {
		grow := 2 * len(w.buf)
		if grow < w.used+n {
			grow = w.used + n
		}
		w.buf = make([]float64, grow)
		w.used = 0
	}
	s := w.buf[w.used : w.used+n : w.used+n]
	w.used += n
	return s
}

// Reset reclaims every outstanding Take at once. Slices taken before the
// Reset must no longer be used.
func (w *Workspace) Reset() { w.used = 0 }

// Cap reports the arena's current capacity in float64s.
func (w *Workspace) Cap() int { return len(w.buf) }

// CholFactor is a Cholesky factorisation A = L·Lᵀ of a symmetric
// positive-definite matrix, reusable for repeated solves — the kriging
// interpolator factors its covariance matrix once and solves per query.
type CholFactor struct {
	l *Matrix
}

// CholeskyFactor factors a symmetric positive-definite matrix for solving.
func CholeskyFactor(a *Matrix) (*CholFactor, error) {
	l, err := Cholesky(a)
	if err != nil {
		return nil, err
	}
	return &CholFactor{l: l}, nil
}

// Size returns the system dimension.
func (c *CholFactor) Size() int { return c.l.rows }

// Solve solves A·x = b for x.
func (c *CholFactor) Solve(b []float64) ([]float64, error) {
	x := make([]float64, len(b))
	if err := c.SolveInto(x, b); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveInto solves A·x = b into dst without allocating. dst and b may alias.
func (c *CholFactor) SolveInto(dst, b []float64) error {
	n := c.l.rows
	if len(b) != n {
		return fmt.Errorf("mat: rhs length %d, want %d", len(b), n)
	}
	if len(dst) < n {
		return fmt.Errorf("mat: dst length %d, want %d", len(dst), n)
	}
	dst = dst[:n]
	copy(dst, b)
	ld := c.l.data
	// Forward substitution: L·y = b.
	for i := 0; i < n; i++ {
		sum := dst[i]
		row := ld[i*n : i*n+i]
		for j, v := range row {
			sum -= v * dst[j]
		}
		dst[i] = sum / ld[i*n+i]
	}
	// Back substitution: Lᵀ·x = y.
	for i := n - 1; i >= 0; i-- {
		sum := dst[i]
		for j := i + 1; j < n; j++ {
			sum -= ld[j*n+i] * dst[j]
		}
		dst[i] = sum / ld[i*n+i]
	}
	return nil
}

// CholeskySolve factors A and solves A·x = b in one call.
func CholeskySolve(a *Matrix, b []float64) ([]float64, error) {
	f, err := CholeskyFactor(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}
