// Package tensor is a small tape-based automatic-differentiation
// engine over 2-D float64 tensors — the substrate for the GPT-2-style
// language model and the PPO trainer (the paper's PyTorch substitute).
//
// Design: every operation builds a node whose backward closure
// scatters gradients into its parents; Backward topologically sorts
// the tape and runs the closures. Ops are specialised for the
// transformer workload (matmul, layer norm, GELU, fused causal
// attention over a packed batch — sequences of any lengths end to end,
// delimited by row offsets — embedding and row gathers, cross-entropy)
// rather than offering general broadcasting. An op whose inputs require no
// gradients returns a plain value and records nothing, so a frozen
// model's forward pass costs its arithmetic and nothing else.
//
// Memory: a result lives in the Arena of its first parent that has
// one — its Data, its Grad and the scratch the op keeps for backward
// (LayerNorm's normalised rows, attention's probabilities, the softmax
// rows of the losses, the transposed weights of the input gradient).
// Parameters live on the heap and never name an arena, so a tape names
// one only where it starts: Embedding takes it. A tape that names none
// lives on the heap, as pretraining, the tests and any forward outside
// PPO training do. Arena memory is zeroed when handed out, so where a
// result lives cannot move a bit of it. Reset the arena only once
// nothing of the tape is read any more: after Backward and the
// optimizer step, and after the loss and anything else wanted from the
// tape have been read.
//
// Matrix products run as one form, A×B (mulAB): the forward pass, and
// the two gradients on an operand transposed once per call — the input
// gradient dOut×Bᵀ over the weight matrix transposed, the weight
// gradient Aᵀ×dOut over the activations transposed. It carries one
// guarantee, which the fleet's bit-identical trajectories rest on: an
// output element is the sum of its k products added one at a time in
// ascending inner index, on top of what the destination held, with the
// products of a zero left-hand factor skipped — exactly the order of the
// naive triple loop (matmulRef in the tests). Blocking, the parallel row
// split and the transpose only change which elements are in flight
// together, never the order within one. It follows that a batch row
// nothing reads — its output gradient is +0 throughout — adds only ±0
// terms to sums that start at +0, so leaving such rows out of a batch
// (nn.GPT.Hidden: no padding, a last block on the rows read) cannot move
// a bit of any gradient. That holds while the activations are finite;
// an infinite one times a +0 gradient is a NaN, but it has already
// poisoned the forward pass.
//
// A row of A×B is one call of the row kernel mulRow, dst += x×W, which
// the sampler also reaches for its matvecs (VecMatInto) and its
// attention (VecMatAdd, over K/V caches read narrower than they are
// stored). On amd64 with AVX2 it runs in assembly (matvec_amd64.s): a
// block of up to 32 elements of dst stays in registers while every row
// of W streams through it, so a product pays one load and one store of
// dst instead of one per row. Elsewhere, and as the oracle of the
// assembly, it is axpy4's Go loop, dst += a0·x0 + a1·x1 + a2·x2 + a3·x3,
// four rows at a time.
//
// The other kernel is math.Exp four lanes at a time (exp_amd64.s), under
// every softmax row (SoftmaxInto, LogSoftmaxAt, so cross-entropy, the
// PPO log-policy, attention and the sampler's scores) and every GELU row
// (GELUInto, the GELU op's forward and backward), whose tanh is
// math.tanh's three branches computed lane-wise and blended.
//
// In every kernel adjacent elements sit in the lanes of one register,
// a lane does to its element exactly what the kernel's scalar reference
// does, and lanes do not interact, so the bits are the reference's. For
// the row kernel the reference is the Go loop — multiply, round, add,
// round, one product after another — which stays as the path
// everywhere else and as the oracle of the tests; it never fuses a
// multiply and an add, since a fused multiply-add rounds once where the
// Go loop on amd64 rounds twice. The exp kernel's reference is
// math.archExp, which fuses exactly where math.useFMA holds (a CPU with
// AVX and FMA); the kernel is archExp's AVX+FMA body and runs only where
// math.Exp takes that body, checked against it at start-up (hasExp);
// elsewhere the rows call math.Exp. The softmax sums stay sequential,
// one element at a time in index order.
//
// Two things outside this package fix the recorded goldens. The Go
// compiler itself fuses x*y + z on arm64, and on amd64 when built with
// GOAMD64=v3, so they are those of the default amd64 build. And
// math.Exp differs in the last bit of some results between archExp's
// FMA and SSE2 bodies, so they are those of a CPU with AVX and FMA
// (TestExpPathMatchesGoldens fails plainly on any other).
//
//chatfuzz:deterministic package
package tensor

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

// Tensor is a row-major 2-D array with optional gradient storage.
type Tensor struct {
	R, C int
	Data []float64
	Grad []float64

	requires bool
	back     func()
	prev     []*Tensor
	arena    *Arena // where Data and Grad live; nil for the heap
}

// New returns a zero tensor that does not require gradients.
func New(r, c int) *Tensor {
	return &Tensor{R: r, C: c, Data: make([]float64, r*c)}
}

// Param returns a zero tensor that accumulates gradients (a trainable
// parameter).
func Param(r, c int) *Tensor {
	t := New(r, c)
	t.requires = true
	t.Grad = make([]float64, r*c)
	return t
}

// Requires reports whether the tensor participates in gradients.
func (t *Tensor) Requires() bool { return t.requires }

// Detach turns a parameter into a constant: it stops requiring
// gradients and drops its gradient buffer.
func (t *Tensor) Detach() {
	t.requires = false
	t.Grad = nil
}

// At returns element (i, j).
func (t *Tensor) At(i, j int) float64 { return t.Data[i*t.C+j] }

// Set assigns element (i, j).
func (t *Tensor) Set(i, j int, v float64) { t.Data[i*t.C+j] = v }

// Row returns a view of row i.
func (t *Tensor) Row(i int) []float64 { return t.Data[i*t.C : (i+1)*t.C] }

// ZeroGrad clears accumulated gradients.
func (t *Tensor) ZeroGrad() {
	for i := range t.Grad {
		t.Grad[i] = 0
	}
}

// Clone returns a detached deep copy (no tape history).
func (t *Tensor) Clone() *Tensor {
	out := New(t.R, t.C)
	copy(out.Data, t.Data)
	if t.requires {
		out.requires = true
		out.Grad = make([]float64, len(t.Data))
	}
	return out
}

// child creates the result tensor of an op over parents, inheriting
// gradient participation and the arena of the first parent that has
// one. A result none of whose parents requires gradients is a plain
// value: no Grad buffer, no link to its parents and (onBackward) no
// backward step, so a forward pass over frozen parameters leaves no
// tape behind and its intermediates are garbage as soon as the next op
// has read them.
func child(r, c int, parents ...*Tensor) *Tensor {
	var a *Arena
	for _, p := range parents {
		if p.arena != nil {
			a = p.arena
			break
		}
	}
	return childIn(a, r, c, parents)
}

// childIn is child with the result's arena named.
func childIn(a *Arena, r, c int, parents []*Tensor) *Tensor {
	t := &Tensor{R: r, C: c, Data: a.floats(r * c), arena: a}
	for _, p := range parents {
		if p.requires {
			t.requires = true
			t.Grad = a.floats(r * c)
			t.prev = parents
			break
		}
	}
	return t
}

// onBackward registers an op's backward step, which adds t.Grad into
// the parents that require gradients, unless t takes no part in them.
func (t *Tensor) onBackward(back func()) {
	if t.requires {
		t.back = back
	}
}

// Backward runs reverse-mode differentiation from t (which must be a
// scalar [1,1] unless seed gradients were placed manually).
func Backward(t *Tensor) {
	if t.Grad == nil {
		t.Grad = t.arena.floats(len(t.Data))
	}
	if t.R == 1 && t.C == 1 {
		t.Grad[0] = 1
	}
	// Topological order via iterative DFS.
	var order []*Tensor
	visited := map[*Tensor]bool{}
	type frame struct {
		n *Tensor
		i int
	}
	stack := []frame{{t, 0}}
	visited[t] = true
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.i < len(f.n.prev) {
			p := f.n.prev[f.i]
			f.i++
			if !visited[p] {
				visited[p] = true
				stack = append(stack, frame{p, 0})
			}
			continue
		}
		order = append(order, f.n)
		stack = stack[:len(stack)-1]
	}
	// order is post-order: children after parents; walk in reverse.
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		if n.back != nil && n.requires {
			n.back()
		}
	}
}

// ---------- Elementwise and reduction ops ----------

// binOp applies f elementwise; dfa/dfb give ∂out/∂a and ∂out/∂b.
func binOp(a, b *Tensor, f func(x, y float64) float64,
	dfa, dfb func(x, y float64) float64) *Tensor {
	if a.R != b.R || a.C != b.C {
		panic(fmt.Sprintf("tensor: shape mismatch %dx%d vs %dx%d", a.R, a.C, b.R, b.C))
	}
	out := child(a.R, a.C, a, b)
	for i := range out.Data {
		out.Data[i] = f(a.Data[i], b.Data[i])
	}
	out.onBackward(func() {
		for i, g := range out.Grad {
			if a.requires {
				a.Grad[i] += g * dfa(a.Data[i], b.Data[i])
			}
			if b.requires {
				b.Grad[i] += g * dfb(a.Data[i], b.Data[i])
			}
		}
	})
	return out
}

// unOp applies f elementwise with derivative df.
func unOp(a *Tensor, f, df func(x float64) float64) *Tensor {
	out := child(a.R, a.C, a)
	for i := range out.Data {
		out.Data[i] = f(a.Data[i])
	}
	out.onBackward(func() {
		for i, g := range out.Grad {
			a.Grad[i] += g * df(a.Data[i])
		}
	})
	return out
}

// Add returns a + b (same shape).
func Add(a, b *Tensor) *Tensor {
	return binOp(a, b,
		func(x, y float64) float64 { return x + y },
		func(x, y float64) float64 { return 1 },
		func(x, y float64) float64 { return 1 })
}

// Sub returns a - b.
func Sub(a, b *Tensor) *Tensor {
	return binOp(a, b,
		func(x, y float64) float64 { return x - y },
		func(x, y float64) float64 { return 1 },
		func(x, y float64) float64 { return -1 })
}

// Mul returns the elementwise product.
func Mul(a, b *Tensor) *Tensor {
	return binOp(a, b,
		func(x, y float64) float64 { return x * y },
		func(x, y float64) float64 { return y },
		func(x, y float64) float64 { return x })
}

// Min returns the elementwise minimum.
func Min(a, b *Tensor) *Tensor {
	return binOp(a, b,
		math.Min,
		func(x, y float64) float64 {
			if x <= y {
				return 1
			}
			return 0
		},
		func(x, y float64) float64 {
			if y < x {
				return 1
			}
			return 0
		})
}

// Scale returns a * k.
func Scale(a *Tensor, k float64) *Tensor {
	return unOp(a,
		func(x float64) float64 { return x * k },
		func(x float64) float64 { return k })
}

// Exp returns e^a.
func Exp(a *Tensor) *Tensor {
	return unOp(a, math.Exp, math.Exp)
}

// Square returns a².
func Square(a *Tensor) *Tensor {
	return unOp(a,
		func(x float64) float64 { return x * x },
		func(x float64) float64 { return 2 * x })
}

// Clamp limits values to [lo, hi]; the gradient is zero outside.
func Clamp(a *Tensor, lo, hi float64) *Tensor {
	return unOp(a,
		func(x float64) float64 { return math.Max(lo, math.Min(hi, x)) },
		func(x float64) float64 {
			if x < lo || x > hi {
				return 0
			}
			return 1
		})
}

// geluCoef is sqrt(2/pi) of the tanh GELU approximation.
var geluCoef = math.Sqrt(2 / math.Pi)

// GELUScalar is the tanh-approximated GELU of one value: the single
// definition behind the GELU op and the incremental sampler, so the
// sampled and the trained policy cannot drift apart. Both reach it
// through GELUInto, which computes it lane by lane.
func GELUScalar(x float64) float64 {
	return 0.5 * x * (1 + math.Tanh(geluCoef*(x+0.044715*x*x*x)))
}

func geluDF(x float64) float64 {
	inner := geluCoef * (x + 0.044715*x*x*x)
	th := math.Tanh(inner)
	sech2 := 1 - th*th
	return 0.5*(1+th) + 0.5*x*sech2*geluCoef*(1+3*0.044715*x*x)
}

// GELU applies the Gaussian error linear unit (tanh approximation, as
// in GPT-2): GELUInto forward, geluBack backward, over the whole tensor.
func GELU(a *Tensor) *Tensor {
	out := child(a.R, a.C, a)
	GELUInto(out.Data, a.Data)
	out.onBackward(func() { geluBack(a.Grad, out.Grad, a.Data) })
	return out
}

// Mean reduces to a scalar [1,1].
func Mean(a *Tensor) *Tensor {
	out := child(1, 1, a)
	sum := 0.0
	for _, v := range a.Data {
		sum += v
	}
	n := float64(len(a.Data))
	out.Data[0] = sum / n
	out.onBackward(func() {
		g := out.Grad[0] / n
		for i := range a.Grad {
			a.Grad[i] += g
		}
	})
	return out
}

// Sum reduces to a scalar [1,1].
func Sum(a *Tensor) *Tensor {
	out := child(1, 1, a)
	s := 0.0
	for _, v := range a.Data {
		s += v
	}
	out.Data[0] = s
	out.onBackward(func() {
		g := out.Grad[0]
		for i := range a.Grad {
			a.Grad[i] += g
		}
	})
	return out
}

// ---------- Linear algebra ----------

// matmulThreshold is the work size above which MatMul parallelises
// across rows.
const matmulThreshold = 1 << 16

// MatMul returns a×b for a [M,K] and b [K,N].
func MatMul(a, b *Tensor) *Tensor {
	if a.C != b.R {
		panic(fmt.Sprintf("tensor: matmul %dx%d × %dx%d", a.R, a.C, b.R, b.C))
	}
	m, k, n := a.R, a.C, b.C
	out := child(m, n, a, b)
	matmulInto(mulAB, out.Data, a.Data, b.Data, m, k, n)
	out.onBackward(func() {
		if a.requires {
			matmulInto(mulAB, a.Grad, out.Grad, transpose(out.arena, b.Data, k, n), m, n, k)
		}
		if b.requires {
			matmulInto(mulAB, b.Grad, transpose(out.arena, a.Data, m, k), out.Grad, k, m, n)
		}
	})
	return out
}

// matmulInto runs kern over the m rows of dst ([m,n], accumulated
// into, so gradients add up), in parallel row ranges once the m*k*n
// multiply-adds pass matmulThreshold. Every element of dst belongs to
// exactly one range and a kernel adds its k products in ascending p,
// skipping those whose A-side factor is zero, so the bits of the
// result do not depend on the worker count.
func matmulInto(kern func(dst, a, b []float64, m, k, n, lo, hi int), dst, a, b []float64, m, k, n int) {
	workers := runtime.GOMAXPROCS(0)
	if workers > m {
		workers = m
	}
	if m*k*n < matmulThreshold || workers < 2 {
		kern(dst, a, b, m, k, n, 0, m)
		return
	}
	var wg sync.WaitGroup
	chunk := (m + workers - 1) / workers
	for lo := 0; lo < m; lo += chunk {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			kern(dst, a, b, m, k, n, lo, hi)
		}(lo, min(lo+chunk, m))
	}
	wg.Wait()
}

// mulAB is the forward kernel, dst += A×B with A [m,k] and B [k,n]: a
// row of dst takes the rows of B scaled by its row of A, one mulRow per
// row, and stays as it is under a row of zeros (an unscored row of an
// output gradient).
func mulAB(dst, a, b []float64, m, k, n, lo, hi int) {
	for i := lo; i < hi; i++ {
		if ai := a[i*k : (i+1)*k]; !allZero(ai) {
			mulRow(dst[i*n:(i+1)*n], ai, b, n)
		}
	}
}

// mulRow adds x×W into dst, W being the len(x) rows of len(dst)
// elements that start stride apart in w: dst[j] += x[p]·w[p·stride+j]
// for ascending p, skipping the rows whose factor x[p] is zero. Where
// the CPU has AVX2, mulRowAVX keeps a block of dst in registers while
// every row of w streams through it — one call for the whole product.
// Elsewhere the rows go four at a time through axpy4's Go loop, the
// oracle of the assembly.
func mulRow(dst, x, w []float64, stride int) {
	n, k := len(dst), len(x)
	if n == 0 || k == 0 {
		return
	}
	w = w[:(k-1)*stride+n]
	if hasAVX2 {
		mulRowAVX(dst, x, w, stride)
		return
	}
	p := 0
	for ; p+4 <= k; p += 4 {
		axpy4(dst, x[p], x[p+1], x[p+2], x[p+3], w[p*stride:], stride)
	}
	for ; p < k; p++ {
		axpy(dst, x[p], w[p*stride:])
	}
}

// VecMatInto writes x×W into dst for x [W.R] and dst [W.C] (no
// autograd): the forward kernel at m = 1, for the incremental sampler,
// so a sampled position and the same row of a batch forward add the
// same products in the same order.
func VecMatInto(dst, x []float64, w *Tensor) {
	if len(x) != w.R || len(dst) != w.C {
		panic(fmt.Sprintf("tensor: vecmat %d × %dx%d into %d", len(x), w.R, w.C, len(dst)))
	}
	clear(dst)
	mulRow(dst, x, w.Data, w.C)
}

// VecMatAdd adds x×W into dst (no autograd), W being the len(x) rows of
// len(dst) elements that start stride apart in w: the forward kernel
// over a matrix read narrower than it is stored, such as the sampler's
// K/V caches, filled up to the current position.
func VecMatAdd(dst, x, w []float64, stride int) {
	if stride < len(dst) {
		panic(fmt.Sprintf("tensor: vecmat rows of %d read %d apart", len(dst), stride))
	}
	mulRow(dst, x, w, stride)
}

// transpose returns the [c,r] transpose of a [r,c], taken from ar, so
// that both gradients of MatMul are mulAB: the input gradient dOut×Bᵀ
// over B's transpose, element (i, j) adding dOut[i][p]·B[j][p] for
// ascending p, and the weight gradient Aᵀ×dOut over A's, element (i, j)
// adding A[p][i]·dOut[p][j] for ascending p and skipping the zero
// activations. It costs O(rc) beside the product's O(m·rc).
func transpose(ar *Arena, a []float64, r, c int) []float64 {
	t := ar.floats(len(a))
	for i := 0; i < r; i++ {
		for j, v := range a[i*c : (i+1)*c] {
			t[j*r+i] = v
		}
	}
	return t
}

// axpy computes dst += a*x unless a is zero.
func axpy(dst []float64, a float64, x []float64) {
	if a == 0 {
		return
	}
	x = x[:len(dst)]
	for j := range dst {
		dst[j] += a * x[j]
	}
}

// axpy4 is four axpys in a row, of the four rows of x that start stride
// apart: when no factor is zero, in one pass that holds each element of
// dst in a register while it takes its four products in order. It is
// mulRow's Go loop.
func axpy4(dst []float64, a0, a1, a2, a3 float64, x []float64, stride int) {
	n := len(dst)
	x0, x1, x2, x3 := x[:n], x[stride:stride+n], x[2*stride:2*stride+n], x[3*stride:3*stride+n]
	if a0 == 0 || a1 == 0 || a2 == 0 || a3 == 0 {
		axpy(dst, a0, x0)
		axpy(dst, a1, x1)
		axpy(dst, a2, x2)
		axpy(dst, a3, x3)
		return
	}
	for j := range dst {
		d := dst[j]
		d += a0 * x0[j]
		d += a1 * x1[j]
		d += a2 * x2[j]
		d += a3 * x3[j]
		dst[j] = d
	}
}

func allZero(v []float64) bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

// AddBias adds a [1,C] bias row to every row of a [R,C] tensor.
func AddBias(a, bias *Tensor) *Tensor {
	if bias.R != 1 || bias.C != a.C {
		panic(fmt.Sprintf("tensor: bias %dx%d for %dx%d", bias.R, bias.C, a.R, a.C))
	}
	out := child(a.R, a.C, a, bias)
	for i := 0; i < a.R; i++ {
		ar, or := a.Row(i), out.Row(i)
		for j := range or {
			or[j] = ar[j] + bias.Data[j]
		}
	}
	out.onBackward(func() {
		for i := 0; i < a.R; i++ {
			gr := out.Grad[i*a.C : (i+1)*a.C]
			if a.requires {
				agr := a.Grad[i*a.C : (i+1)*a.C]
				for j := range gr {
					agr[j] += gr[j]
				}
			}
			if bias.requires {
				for j := range gr {
					bias.Grad[j] += gr[j]
				}
			}
		}
	})
	return out
}
