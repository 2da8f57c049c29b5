// Package nn implements the GPT-2-style language model of ChatFuzz's
// LLM-based Input Generator, with a PPO value head, an Adam optimizer,
// and a KV-cached incremental sampler for fast generation inside the
// fuzzing loop.
//
// Two forward paths share the weights and must agree: the taped batch
// path (Hidden, then Head/Values on the rows it returns) that
// training differentiates, and the Sampler, which keeps every
// per-token vector in scratch it owns — the logits Next returns are
// valid until the next Next — and shares the GELU and softmax rows
// (tensor.GELUInto, tensor.SoftmaxInto) and the forward matmul kernel
// (tensor.VecMatInto, and for its attention over the K/V caches
// tensor.VecMatAdd) with the batch path so the sampled and the trained
// policy cannot drift. The caches are laid out for that kernel; see
// Sampler for the layout and why skipping zero factors there moves no
// bit.
//
// The batch path pays per row for what the loss reads: a batch is
// packed, one row per token and no padding, and from the last block's
// attention on only the rows the caller names are computed (PPO reads
// about a quarter of a batch). A sequence's last token predicts
// nothing, so neither PPO nor LMLoss feeds it. See Hidden.
//
// Generation pays per position for what is read there, as the batch
// path pays per row. A prompt position costs the backbone: nobody
// samples from its logits. A sampled position adds the LM head and a
// softmax over the top-k survivors. The sampled token's log-probability
// under the untempered policy and the value are PPO's rollout-time
// inputs, so they are taken only for a caller that trains on them
// (Sampler.Generate with record set: ppo.Trainer.Step always, a
// core.LLMGenerator when it has a learner).
// A token that ends a generation — eos, the last of the budget, the
// one that fills the context — is never fed forward. Each shortcut
// drops work whose result was unread, so tokens, recorded statistics
// and the RNG stream are bit for bit what the full computation gives
// (TestGeneratePromptEdges holds Generate to that computation).
//
//chatfuzz:deterministic package
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"chatfuzz/internal/ml/tensor"
)

// Config sizes the transformer.
type Config struct {
	Vocab  int // token vocabulary size
	Ctx    int // maximum sequence length
	Dim    int // embedding width
	Heads  int // attention heads
	Layers int // transformer blocks
}

// DefaultConfig is the laptop-scale model used by the fuzzing loop;
// the paper's GPT-2 is orders of magnitude larger, but the pipeline
// (tokenise → pretrain → PPO cleanup → PPO coverage) is identical.
func DefaultConfig(vocab int) Config {
	return Config{Vocab: vocab, Ctx: 96, Dim: 96, Heads: 4, Layers: 2}
}

// Block holds one transformer block's parameters.
type Block struct {
	LN1g, LN1b   *tensor.Tensor
	Wqkv, Bqkv   *tensor.Tensor // [D,3D], [1,3D]
	Wproj, Bproj *tensor.Tensor // [D,D], [1,D]
	LN2g, LN2b   *tensor.Tensor
	Wfc, Bfc     *tensor.Tensor // [D,4D], [1,4D]
	Wout, Bout   *tensor.Tensor // [4D,D], [1,D]
}

// GPT is the language model with an additional scalar value head used
// during PPO training.
type GPT struct {
	Cfg    Config
	TokEmb *tensor.Tensor // [V,D]
	PosEmb *tensor.Tensor // [Ctx,D]
	Blocks []*Block
	LNfg   *tensor.Tensor
	LNfb   *tensor.Tensor
	Head   *tensor.Tensor // [D,V]
	VHead  *tensor.Tensor // [D,1]
	VBias  *tensor.Tensor // [1,1]
}

func randInit(rng *rand.Rand, t *tensor.Tensor, std float64) {
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64() * std
	}
}

func ones(t *tensor.Tensor) {
	for i := range t.Data {
		t.Data[i] = 1
	}
}

// NewGPT builds a randomly initialised model (N(0, 0.02) like GPT-2).
func NewGPT(cfg Config, rng *rand.Rand) *GPT {
	d := cfg.Dim
	m := &GPT{Cfg: cfg}
	m.TokEmb = tensor.Param(cfg.Vocab, d)
	randInit(rng, m.TokEmb, 0.02)
	m.PosEmb = tensor.Param(cfg.Ctx, d)
	randInit(rng, m.PosEmb, 0.02)
	for l := 0; l < cfg.Layers; l++ {
		b := &Block{
			LN1g: tensor.Param(1, d), LN1b: tensor.Param(1, d),
			Wqkv: tensor.Param(d, 3*d), Bqkv: tensor.Param(1, 3*d),
			Wproj: tensor.Param(d, d), Bproj: tensor.Param(1, d),
			LN2g: tensor.Param(1, d), LN2b: tensor.Param(1, d),
			Wfc: tensor.Param(d, 4*d), Bfc: tensor.Param(1, 4*d),
			Wout: tensor.Param(4*d, d), Bout: tensor.Param(1, d),
		}
		ones(b.LN1g)
		ones(b.LN2g)
		randInit(rng, b.Wqkv, 0.02)
		randInit(rng, b.Wproj, 0.02/math.Sqrt(float64(2*cfg.Layers)))
		randInit(rng, b.Wfc, 0.02)
		randInit(rng, b.Wout, 0.02/math.Sqrt(float64(2*cfg.Layers)))
		m.Blocks = append(m.Blocks, b)
	}
	m.LNfg = tensor.Param(1, d)
	ones(m.LNfg)
	m.LNfb = tensor.Param(1, d)
	m.Head = tensor.Param(d, cfg.Vocab)
	randInit(rng, m.Head, 0.02)
	m.VHead = tensor.Param(d, 1)
	randInit(rng, m.VHead, 0.02)
	m.VBias = tensor.Param(1, 1)
	return m
}

// Params returns every trainable tensor (value head included).
func (m *GPT) Params() []*tensor.Tensor {
	out := []*tensor.Tensor{m.TokEmb, m.PosEmb}
	for _, b := range m.Blocks {
		out = append(out, b.LN1g, b.LN1b, b.Wqkv, b.Bqkv, b.Wproj, b.Bproj,
			b.LN2g, b.LN2b, b.Wfc, b.Bfc, b.Wout, b.Bout)
	}
	out = append(out, m.LNfg, m.LNfb, m.Head, m.VHead, m.VBias)
	return out
}

// NumParams returns the total number of scalar parameters.
func (m *GPT) NumParams() int {
	n := 0
	for _, p := range m.Params() {
		n += len(p.Data)
	}
	return n
}

// Freeze detaches every parameter from gradient tracking and returns
// m: a forward pass through a frozen model (PPO's KL reference) builds
// no gradient buffers and no tape. There is no way back; Clone first
// to keep a trainable copy.
func (m *GPT) Freeze() *GPT {
	for _, p := range m.Params() {
		p.Detach()
	}
	return m
}

// Clone returns a deep copy with parameters of its own, trainable or
// frozen as m's are.
func (m *GPT) Clone() *GPT {
	c := &GPT{Cfg: m.Cfg}
	c.TokEmb = m.TokEmb.Clone()
	c.PosEmb = m.PosEmb.Clone()
	for _, b := range m.Blocks {
		c.Blocks = append(c.Blocks, &Block{
			LN1g: b.LN1g.Clone(), LN1b: b.LN1b.Clone(),
			Wqkv: b.Wqkv.Clone(), Bqkv: b.Bqkv.Clone(),
			Wproj: b.Wproj.Clone(), Bproj: b.Bproj.Clone(),
			LN2g: b.LN2g.Clone(), LN2b: b.LN2b.Clone(),
			Wfc: b.Wfc.Clone(), Bfc: b.Bfc.Clone(),
			Wout: b.Wout.Clone(), Bout: b.Bout.Clone(),
		})
	}
	c.LNfg = m.LNfg.Clone()
	c.LNfb = m.LNfb.Clone()
	c.Head = m.Head.Clone()
	c.VHead = m.VHead.Clone()
	c.VBias = m.VBias.Clone()
	return c
}

// NumParamsOf is NumParams without building a model: the scalar
// parameter count a configuration implies (used to validate serialized
// weight vectors before assignment).
func NumParamsOf(cfg Config) int {
	d := cfg.Dim
	perBlock := 2*d + // LN1
		d*3*d + 3*d + // qkv
		d*d + d + // proj
		2*d + // LN2
		d*4*d + 4*d + // fc
		4*d*d + d // out
	return cfg.Vocab*d + cfg.Ctx*d + cfg.Layers*perBlock +
		2*d + // final LN
		d*cfg.Vocab + // head
		d + 1 // value head + bias
}

// FlattenParams appends every parameter scalar to dst (in Params()
// order) and returns the grown slice. The layout is stable for a given
// Config, which makes flattened vectors the currency of fleet weight
// averaging and of checkpoint serialization.
func (m *GPT) FlattenParams(dst []float64) []float64 {
	for _, p := range m.Params() {
		dst = append(dst, p.Data...)
	}
	return dst
}

// SetFlatParams assigns a flattened parameter vector (as produced by
// FlattenParams on a same-Config model) back into the model's tensors.
func (m *GPT) SetFlatParams(w []float64) error {
	if want := m.NumParams(); len(w) != want {
		return fmt.Errorf("nn: flat weight vector has %d scalars, model needs %d", len(w), want)
	}
	off := 0
	for _, p := range m.Params() {
		copy(p.Data, w[off:off+len(p.Data)])
		off += len(p.Data)
	}
	return nil
}

// Hidden runs the transformer backbone over a batch of variable-length
// sequences, packed: one row per token and nothing else, sequence after
// sequence, so row Σ len(batchSeqs[:s]) + t is position t of sequence
// s. It returns the final layer-norm states of the rows the caller will
// read — rows, ascending packed-row indices; nil (not empty) means
// every row — as [len(rows), D] in that order. Callers apply Head (and
// VHead/VBias) to them: every row for the LM loss, the scored rows for
// PPO. The tape lives in a (nil: the heap), and so does everything
// computed from its result; see tensor.Arena. PPO passes its
// trainer's arena and pretraining (LMLoss) its stage's; everything
// else passes nil.
//
// Rows only matter from the last block's attention on: its keys and
// values still come from every row (later queries of a sequence need
// them), but the queries, the projection, the residual, the MLP and the
// final layer norm run on rows alone. A row left out had no reader, so
// its gradient was an exact zero and the rows kept are bit for bit the
// rows of the full computation, forward and backward
// (TestPackedMatchesPaddedBitExact).
func (m *GPT) Hidden(a *tensor.Arena, batchSeqs [][]int, rows []int) *tensor.Tensor {
	offs := make([]int, 1, len(batchSeqs)+1)
	var ids, posIDs []int
	for _, seq := range batchSeqs {
		if len(seq) > m.Cfg.Ctx {
			panic("nn: sequence longer than model context")
		}
		ids = append(ids, seq...)
		for t := range seq {
			posIDs = append(posIDs, t)
		}
		offs = append(offs, len(ids))
	}
	x := tensor.Add(tensor.Embedding(a, m.TokEmb, ids), tensor.Embedding(a, m.PosEmb, posIDs))
	if rows != nil && len(m.Blocks) == 0 {
		x = tensor.GatherRows(x, rows)
	}
	for l, b := range m.Blocks {
		var queries []int // nil: every row
		if l == len(m.Blocks)-1 {
			queries = rows
		}
		h := tensor.LayerNorm(x, b.LN1g, b.LN1b)
		qkv := tensor.AddBias(tensor.MatMul(h, b.Wqkv), b.Bqkv)
		att := tensor.CausalSelfAttention(qkv, m.Cfg.Heads, offs, queries)
		att = tensor.AddBias(tensor.MatMul(att, b.Wproj), b.Bproj)
		if queries != nil {
			x = tensor.GatherRows(x, queries)
		}
		x = tensor.Add(x, att)
		h2 := tensor.LayerNorm(x, b.LN2g, b.LN2b)
		mlp := tensor.GELU(tensor.AddBias(tensor.MatMul(h2, b.Wfc), b.Bfc))
		mlp = tensor.AddBias(tensor.MatMul(mlp, b.Wout), b.Bout)
		x = tensor.Add(x, mlp)
	}
	return tensor.LayerNorm(x, m.LNfg, m.LNfb)
}

// Values applies the value head to hidden states h ([N, D], rows of
// Hidden) and returns [N, 1].
func (m *GPT) Values(h *tensor.Tensor) *tensor.Tensor {
	return tensor.AddBias(tensor.MatMul(h, m.VHead), m.VBias)
}

// LMLoss computes the next-token cross-entropy over a batch (training
// step 1), its tape in a (nil: the heap): every position but a
// sequence's last predicts its successor. Returns the loss node and its
// scalar value.
//
// Each sequence is fed without its last token, and its targets are
// seq[1:]. The last position predicts nothing and, attention being
// causal, no query reads it, so its loss term and every gradient it
// would send are exact zeros: leaving it out moves no bit, the argument
// PPO's batches rest on too (FuzzLMLossMatchesMasked). A sequence of
// one token or none predicts nothing and is dropped; a batch with no
// predicting token has loss 0.
func (m *GPT) LMLoss(a *tensor.Arena, batchSeqs [][]int) (*tensor.Tensor, float64) {
	seqs := make([][]int, 0, len(batchSeqs))
	var targets []int
	for _, seq := range batchSeqs {
		if len(seq) > 1 {
			seqs = append(seqs, seq[:len(seq)-1])
			targets = append(targets, seq[1:]...)
		}
	}
	loss := tensor.CrossEntropy(tensor.MatMul(m.Hidden(a, seqs, nil), m.Head), targets)
	return loss, loss.Data[0]
}
