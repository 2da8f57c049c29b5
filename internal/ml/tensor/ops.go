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
	// Cache normalised activations and inverse std-devs for backward.
	xhat := make([]float64, len(x.Data))
	rstd := make([]float64, x.R)
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
		rstd[i] = rs
		or := out.Row(i)
		for j, v := range xr {
			h := (v - mean) * rs
			xhat[i*x.C+j] = h
			or[j] = gamma.Data[j]*h + beta.Data[j]
		}
	}
	out.onBackward(func() {
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
				dxh := make([]float64, x.C)
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
// [len(ids), D]. Backward scatter-adds into the table.
func Embedding(table *Tensor, ids []int) *Tensor {
	out := child(len(ids), table.C, table)
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
// row's gradient into the row it was read from, in output order. PPO
// uses it to run the heads and the loss on the scored positions of a
// padded batch only.
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

// CausalSelfAttention is the fused multi-head attention of a GPT
// block. qkv is [B*T, 3D] (the concatenated Q,K,V projections), heads
// divides D, and seqLen is T. Rows are grouped per sequence: rows
// [s*T, (s+1)*T) belong to sequence s. A causal mask is applied.
func CausalSelfAttention(qkv *Tensor, heads, seqLen int) *Tensor {
	if qkv.C%3 != 0 {
		panic("tensor: attention qkv width not divisible by 3")
	}
	d := qkv.C / 3
	if d%heads != 0 {
		panic("tensor: attention dim not divisible by heads")
	}
	if qkv.R%seqLen != 0 {
		panic("tensor: attention rows not divisible by seqLen")
	}
	b := qkv.R / seqLen
	dh := d / heads
	scale := 1 / math.Sqrt(float64(dh))

	out := child(qkv.R, d, qkv)
	// probs[s][h] is the [T,T] post-softmax attention matrix, kept for
	// backward; a forward that needs no gradients reuses one matrix.
	probs := make([][][]float64, b)
	var p []float64

	for s := 0; s < b; s++ {
		probs[s] = make([][]float64, heads)
		seq := qkv.Data[s*seqLen*qkv.C : (s+1)*seqLen*qkv.C]
		for h := 0; h < heads; h++ {
			if p == nil || out.requires {
				p = make([]float64, seqLen*seqLen)
			}
			for t := 0; t < seqLen; t++ {
				q := seq[t*qkv.C+h*dh : t*qkv.C+h*dh+dh]
				// Scores over keys 0..t.
				maxScore := math.Inf(-1)
				row := p[t*seqLen : (t+1)*seqLen]
				for u := 0; u <= t; u++ {
					k := seq[u*qkv.C+d+h*dh : u*qkv.C+d+h*dh+dh]
					sum := 0.0
					for j, qv := range q {
						sum += qv * k[j]
					}
					row[u] = sum * scale
					if row[u] > maxScore {
						maxScore = row[u]
					}
				}
				var z float64
				for u := 0; u <= t; u++ {
					row[u] = math.Exp(row[u] - maxScore)
					z += row[u]
				}
				for u := 0; u <= t; u++ {
					row[u] /= z
				}
				// Output = P·V.
				or := out.Data[(s*seqLen+t)*d+h*dh : (s*seqLen+t)*d+h*dh+dh]
				for u := 0; u <= t; u++ {
					pu := row[u]
					if pu == 0 {
						continue
					}
					v := seq[u*qkv.C+2*d+h*dh : u*qkv.C+2*d+h*dh+dh]
					for j := range or {
						or[j] += pu * v[j]
					}
				}
			}
			probs[s][h] = p
		}
	}

	out.onBackward(func() {
		dp := make([]float64, seqLen)
		for s := 0; s < b; s++ {
			seq := qkv.Data[s*seqLen*qkv.C : (s+1)*seqLen*qkv.C]
			gseq := qkv.Grad[s*seqLen*qkv.C : (s+1)*seqLen*qkv.C]
			for h := 0; h < heads; h++ {
				p := probs[s][h]
				for t := 0; t < seqLen; t++ {
					do := out.Grad[(s*seqLen+t)*d+h*dh : (s*seqLen+t)*d+h*dh+dh]
					row := p[t*seqLen : (t+1)*seqLen]
					// dV and dP.
					for u := 0; u <= t; u++ {
						v := seq[u*qkv.C+2*d+h*dh : u*qkv.C+2*d+h*dh+dh]
						gv := gseq[u*qkv.C+2*d+h*dh : u*qkv.C+2*d+h*dh+dh]
						var sum float64
						for j, g := range do {
							gv[j] += row[u] * g
							sum += g * v[j]
						}
						dp[u] = sum
					}
					// Softmax backward: ds = p ⊙ (dp - Σ dp⊙p).
					var dot float64
					for u := 0; u <= t; u++ {
						dot += dp[u] * row[u]
					}
					q := seq[t*qkv.C+h*dh : t*qkv.C+h*dh+dh]
					gq := gseq[t*qkv.C+h*dh : t*qkv.C+h*dh+dh]
					for u := 0; u <= t; u++ {
						ds := row[u] * (dp[u] - dot) * scale
						if ds == 0 {
							continue
						}
						k := seq[u*qkv.C+d+h*dh : u*qkv.C+d+h*dh+dh]
						gk := gseq[u*qkv.C+d+h*dh : u*qkv.C+d+h*dh+dh]
						for j := range gq {
							gq[j] += ds * k[j]
							gk[j] += ds * q[j]
						}
					}
				}
			}
		}
	})
	return out
}

// CrossEntropy computes the mean negative log-likelihood of targets
// under row-wise softmax of logits [N,V]. Rows with target < 0 are
// ignored (padding). Returns a scalar tensor.
func CrossEntropy(logits *Tensor, targets []int) *Tensor {
	if len(targets) != logits.R {
		panic("tensor: cross-entropy target length")
	}
	out := child(1, 1, logits)
	count := 0
	loss := 0.0
	soft := make([]float64, len(logits.Data))
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
	soft := make([]float64, len(logits.Data))
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

// SoftmaxInto writes softmax(src) into dst, which may be src itself
// (no autograd).
func SoftmaxInto(dst, src []float64) {
	maxV := math.Inf(-1)
	for _, v := range src {
		if v > maxV {
			maxV = v
		}
	}
	var z float64
	for i, v := range src {
		e := math.Exp(v - maxV)
		dst[i] = e
		z += e
	}
	for i := range dst {
		dst[i] /= z
	}
}

// LogSoftmaxAt returns entry id of log-softmax(src) without building
// the vector (no autograd): the log-probability of one token.
func LogSoftmaxAt(src []float64, id int) float64 {
	maxV := math.Inf(-1)
	for _, v := range src {
		if v > maxV {
			maxV = v
		}
	}
	var z float64
	for _, v := range src {
		z += math.Exp(v - maxV)
	}
	return src[id] - (math.Log(z) + maxV)
}
