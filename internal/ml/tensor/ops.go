package tensor

import (
	"fmt"
	"math"
)

const lnEps = 1e-5

// LayerNorm normalises each row of x and applies the learned scale
// gamma and shift beta (both [1,C]).
func LayerNorm(x, gamma, beta *Tensor) *Tensor {
	if gamma.C != x.C || beta.C != x.C || gamma.R != 1 || beta.R != 1 {
		panic("tensor: layernorm parameter shapes")
	}
	out := child(x.R, x.C, x, gamma, beta)
	n := float64(x.C)
	// Backward reads the normalised activations and inverse std-devs;
	// a result that takes no part in gradients keeps neither.
	var xhat, rstd []float64
	if out.requires {
		xhat, rstd = out.arena.floats(len(x.Data)), out.arena.floats(x.R)
	}
	for i := 0; i < x.R; i++ {
		xr := x.Row(i)
		mean := 0.0
		for _, v := range xr {
			mean += v
		}
		mean /= n
		variance := 0.0
		for _, v := range xr {
			d := v - mean
			variance += d * d
		}
		variance /= n
		rs := 1 / math.Sqrt(variance+lnEps)
		if rstd != nil {
			rstd[i] = rs
		}
		or := out.Row(i)
		for j, v := range xr {
			h := (v - mean) * rs
			if xhat != nil {
				xhat[i*x.C+j] = h
			}
			or[j] = gamma.Data[j]*h + beta.Data[j]
		}
	}
	out.onBackward(func() {
		dxh := out.arena.floats(x.C)
		for i := 0; i < x.R; i++ {
			gr := out.Grad[i*x.C : (i+1)*x.C]
			xh := xhat[i*x.C : (i+1)*x.C]
			if gamma.requires {
				for j := range gr {
					gamma.Grad[j] += gr[j] * xh[j]
				}
			}
			if beta.requires {
				for j := range gr {
					beta.Grad[j] += gr[j]
				}
			}
			if x.requires {
				// dxhat = dy * gamma
				var meanDx, meanDxXh float64
				for j := range gr {
					dxh[j] = gr[j] * gamma.Data[j]
					meanDx += dxh[j]
					meanDxXh += dxh[j] * xh[j]
				}
				meanDx /= n
				meanDxXh /= n
				xg := x.Grad[i*x.C : (i+1)*x.C]
				for j := range gr {
					xg[j] += rstd[i] * (dxh[j] - meanDx - xh[j]*meanDxXh)
				}
			}
		}
	})
	return out
}

// Embedding gathers rows of table ([V,D]) by ids, producing
// [len(ids), D] in a (nil: the heap). Backward scatter-adds into the
// table. An embedding starts a tape, so it is where a tape names its
// arena: every op downstream of it takes its memory from there.
func Embedding(a *Arena, table *Tensor, ids []int) *Tensor {
	out := childIn(a, len(ids), table.C, []*Tensor{table})
	for i, id := range ids {
		if id < 0 || id >= table.R {
			panic(fmt.Sprintf("tensor: embedding id %d out of range %d", id, table.R))
		}
		copy(out.Row(i), table.Row(id))
	}
	out.onBackward(func() {
		for i, id := range ids {
			gr := out.Grad[i*out.C : (i+1)*out.C]
			tg := table.Grad[id*table.C : (id+1)*table.C]
			for j := range gr {
				tg[j] += gr[j]
			}
		}
	})
	return out
}

// GatherRows selects rows of a by index, producing [len(rows), a.C];
// indices may repeat and come in any order. Backward adds each output
// row's gradient into the row it was read from, in output order. The
// model's last block uses it to carry on with the residual stream of
// the rows its caller will read only.
func GatherRows(a *Tensor, rows []int) *Tensor {
	out := child(len(rows), a.C, a)
	for i, r := range rows {
		copy(out.Row(i), a.Row(r))
	}
	out.onBackward(func() {
		for i, r := range rows {
			ag := a.Grad[r*a.C : (r+1)*a.C]
			for j, g := range out.Grad[i*a.C : (i+1)*a.C] {
				ag[j] += g
			}
		}
	})
	return out
}

// CausalSelfAttention is the fused multi-head attention of a GPT block
// over a packed batch. qkv is [N, 3D] (the concatenated Q,K,V
// projections), heads divides D, and offs has one entry per sequence
// plus one: rows offs[s]..offs[s+1] are sequence s, so offs starts at 0
// and ends at N. A query attends to the rows of its own sequence up to
// and including itself. queries names, ascending, the rows to compute
// an output for (nil = every row); the result has one row per query,
// in that order. Every row supplies keys and values whether or not it
// is a query, so the K/V gradients of an unqueried row are those later
// queries of its sequence send it.
func CausalSelfAttention(qkv *Tensor, heads int, offs, queries []int) *Tensor {
	if qkv.C%3 != 0 {
		panic("tensor: attention qkv width not divisible by 3")
	}
	d := qkv.C / 3
	if d%heads != 0 {
		panic("tensor: attention dim not divisible by heads")
	}
	if len(offs) == 0 || offs[0] != 0 || offs[len(offs)-1] != qkv.R {
		panic("tensor: attention offsets do not span the rows")
	}
	dh, w := d/heads, qkv.C
	scale := 1 / math.Sqrt(float64(dh))

	if queries == nil {
		queries = make([]int, qkv.R)
		for i := range queries {
			queries[i] = i
		}
	}
	out := child(len(queries), d, qkv)

	// ends[s] is one past the last output row whose query lies in
	// sequence s; kept counts the probabilities of one head, t+1 for a
	// query at position t of its sequence.
	ends := make([]int, len(offs)-1)
	o, kept, longest := 0, 0, 0
	for s := range ends {
		lo, hi := offs[s], offs[s+1]
		for ; o < len(queries) && lo <= queries[o] && queries[o] < hi; o++ {
			kept += queries[o] - lo + 1
		}
		ends[s] = o
		longest = max(longest, hi-lo)
	}
	if o != len(queries) {
		panic("tensor: attention queries are not ascending rows of the batch")
	}
	// Backward needs every query's post-softmax row; a forward that
	// needs no gradients reuses one.
	var probs []float64
	if out.requires {
		probs = out.arena.floats(heads * kept)
	} else {
		probs = out.arena.floats(longest)
	}
	// each visits (sequence, head, query) in that nesting — the order
	// backward adds K/V gradients in — and hands fn the sequence's first
	// row, the head's first column, the query's position t in its
	// sequence, its output row and its t+1 probabilities.
	each := func(fn func(lo, hc, t, o int, p []float64)) {
		first, pi := 0, 0
		for s, end := range ends {
			for h := 0; h < heads; h++ {
				for o := first; o < end; o++ {
					t := queries[o] - offs[s]
					fn(offs[s], h*dh, t, o, probs[pi:pi+t+1])
					if out.requires {
						pi += t + 1
					}
				}
			}
			first = end
		}
	}

	each(func(lo, hc, t, o int, p []float64) {
		q := qkv.Data[(lo+t)*w+hc : (lo+t)*w+hc+dh]
		// Scores over keys 0..t.
		for u := range p {
			k := qkv.Data[(lo+u)*w+d+hc : (lo+u)*w+d+hc+dh]
			sum := 0.0
			for j, qv := range q {
				sum += qv * k[j]
			}
			p[u] = sum * scale
		}
		SoftmaxInto(p, p)
		// Output = P·V.
		or := out.Data[o*d+hc : o*d+hc+dh]
		for u, pu := range p {
			if pu == 0 {
				continue
			}
			v := qkv.Data[(lo+u)*w+2*d+hc : (lo+u)*w+2*d+hc+dh]
			for j := range or {
				or[j] += pu * v[j]
			}
		}
	})

	out.onBackward(func() {
		dp := out.arena.floats(longest)
		each(func(lo, hc, t, o int, p []float64) {
			do := out.Grad[o*d+hc : o*d+hc+dh]
			// dV and dP.
			for u := range p {
				v := qkv.Data[(lo+u)*w+2*d+hc : (lo+u)*w+2*d+hc+dh]
				gv := qkv.Grad[(lo+u)*w+2*d+hc : (lo+u)*w+2*d+hc+dh]
				var sum float64
				for j, g := range do {
					gv[j] += p[u] * g
					sum += g * v[j]
				}
				dp[u] = sum
			}
			// Softmax backward: ds = p ⊙ (dp - Σ dp⊙p).
			var dot float64
			for u := range p {
				dot += dp[u] * p[u]
			}
			q := qkv.Data[(lo+t)*w+hc : (lo+t)*w+hc+dh]
			gq := qkv.Grad[(lo+t)*w+hc : (lo+t)*w+hc+dh]
			for u := range p {
				ds := p[u] * (dp[u] - dot) * scale
				if ds == 0 {
					continue
				}
				k := qkv.Data[(lo+u)*w+d+hc : (lo+u)*w+d+hc+dh]
				gk := qkv.Grad[(lo+u)*w+d+hc : (lo+u)*w+d+hc+dh]
				for j := range gq {
					gq[j] += ds * k[j]
					gk[j] += ds * q[j]
				}
			}
		})
	})
	return out
}

// CrossEntropy computes the mean negative log-likelihood of targets
// under row-wise softmax of logits [N,V]. Rows with target < 0 are
// ignored. Returns a scalar tensor.
func CrossEntropy(logits *Tensor, targets []int) *Tensor {
	if len(targets) != logits.R {
		panic("tensor: cross-entropy target length")
	}
	out := child(1, 1, logits)
	count := 0
	loss := 0.0
	soft := out.arena.floats(len(logits.Data))
	for i := 0; i < logits.R; i++ {
		if targets[i] < 0 {
			continue
		}
		row := logits.Row(i)
		sm := soft[i*logits.C : (i+1)*logits.C]
		SoftmaxInto(sm, row)
		loss += -math.Log(math.Max(sm[targets[i]], 1e-300))
		count++
	}
	if count > 0 {
		out.Data[0] = loss / float64(count)
	}
	out.onBackward(func() {
		if count == 0 {
			return
		}
		g := out.Grad[0] / float64(count)
		for i := 0; i < logits.R; i++ {
			if targets[i] < 0 {
				continue
			}
			sm := soft[i*logits.C : (i+1)*logits.C]
			lg := logits.Grad[i*logits.C : (i+1)*logits.C]
			for j := range lg {
				lg[j] += g * sm[j]
			}
			lg[targets[i]] -= g
		}
	})
	return out
}

// GatherLogSoftmax returns the log-probability of ids[i] under the
// softmax of row i, as an [N,1] tensor (the per-token log-policy
// needed by PPO).
func GatherLogSoftmax(logits *Tensor, ids []int) *Tensor {
	if len(ids) != logits.R {
		panic("tensor: gather length")
	}
	out := child(logits.R, 1, logits)
	soft := out.arena.floats(len(logits.Data))
	for i := 0; i < logits.R; i++ {
		row := logits.Row(i)
		sm := soft[i*logits.C : (i+1)*logits.C]
		SoftmaxInto(sm, row)
		out.Data[i] = math.Log(math.Max(sm[ids[i]], 1e-300))
	}
	out.onBackward(func() {
		for i := 0; i < logits.R; i++ {
			g := out.Grad[i]
			if g == 0 {
				continue
			}
			sm := soft[i*logits.C : (i+1)*logits.C]
			lg := logits.Grad[i*logits.C : (i+1)*logits.C]
			for j := range lg {
				lg[j] -= g * sm[j]
			}
			lg[ids[i]] += g
		}
	})
	return out
}

// SoftmaxInto writes softmax(src) into dst, which may be src itself and
// is as long (no autograd): the maximum, the exps of the row less it
// summed in index order, then each divided by the sum.
func SoftmaxInto(dst, src []float64) {
	z := expShiftSum(dst, src, rowMax(src), 0)
	for i := range dst {
		dst[i] /= z
	}
}

// LogSoftmaxAt returns entry id of log-softmax(src) without building
// the vector (no autograd): the log-probability of one token. The exps
// pass through a buffer on the stack, a chunk of the row at a time.
func LogSoftmaxAt(src []float64, id int) float64 {
	maxV := rowMax(src)
	var buf [128]float64
	var z float64
	for rest := src; len(rest) > 0; {
		n := min(len(rest), len(buf))
		z = expShiftSum(buf[:n], rest, maxV, z)
		rest = rest[n:]
	}
	return src[id] - (math.Log(z) + maxV)
}
