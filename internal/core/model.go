package core

import (
	"fmt"

	"hpnn/internal/keys"
	"hpnn/internal/nn"
	"hpnn/internal/schedule"
	"hpnn/internal/tensor"
)

// Model is a (possibly key-locked) deep-learning model: the network, its
// configuration and its lock layers.
type Model struct {
	Config Config
	Net    *nn.Network

	// Scheme is the lock-scheme identifier the model was published under
	// (package lockscheme). Empty means the default HPNN XOR scheme, which
	// keeps pre-scheme serialized artifacts byte-identical.
	Scheme string

	locks []*nn.Lock

	// Cached batch-view header and shape for evaluation: Predict slices the
	// dataset into batch views without allocating tensor headers, so the
	// repeated Accuracy probes of the attack loops stay cheap.
	evalView  tensor.Tensor
	evalShape []int
	predsBuf  []int
}

// NewModel builds a model from cfg with freshly initialized weights.
// All locks start engaged with all-zero bits (every factor +1), which is
// functionally the unlocked baseline until a key is applied.
func NewModel(cfg Config) (*Model, error) {
	return newModel(cfg, true)
}

// NewBlankModel builds cfg's architecture with every weight zero, drawing
// no initial weights: the shape a decoder fills in with published values.
func NewBlankModel(cfg Config) (*Model, error) {
	return newModel(cfg, false)
}

func newModel(cfg Config, init bool) (*Model, error) {
	cfg = cfg.withDefaults()
	net, err := buildNetwork(cfg, init)
	if err != nil {
		return nil, err
	}
	return &Model{Config: cfg, Net: net, locks: net.Locks()}, nil
}

// MustModel is NewModel panicking on error, for tests and examples with
// static configs.
//
//hpnn:allow(unused) test fixture: tests in six packages build their models with it
func MustModel(cfg Config) *Model {
	m, err := NewModel(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Locks returns the model's lock layers in forward order.
func (m *Model) Locks() []*nn.Lock { return m.locks }

// LockedNeurons returns the total number of neurons in nonlinear layers —
// the "No. of neurons in nonlinear (ReLU) layers" column of Table I.
func (m *Model) LockedNeurons() int {
	n := 0
	for _, l := range m.locks {
		n += l.Neurons()
	}
	return n
}

// ApplyKey programs every lock from the device's sealed key through the
// hardware scheduling algorithm: neuron j of lock layer L is served by
// accumulator column sched.Assign(L.ID, ...)[j] and therefore locked with
// that column's key bit. This is both the owner's one-time training
// pre-processing (§III-D3) and the trusted-hardware inference behaviour.
func (m *Model) ApplyKey(dev *keys.Device, sched *schedule.Schedule) {
	for _, l := range m.locks {
		cols := sched.Assign(l.ID, l.Neurons())
		l.SetBits(dev.BitsForColumns(cols))
		l.Engage()
	}
}

// ApplyRawKey is ApplyKey for callers that hold the key value itself (the
// model owner during training).
func (m *Model) ApplyRawKey(key keys.Key, sched *schedule.Schedule) {
	m.ApplyKey(keys.NewDevice("owner-training", key), sched)
}

// DisengageLocks removes all lock layers' effect, modelling an attacker
// loading the stolen weights into the plain baseline architecture (no key,
// no trusted hardware).
func (m *Model) DisengageLocks() {
	for _, l := range m.locks {
		l.Disengage()
	}
}

// EngageLocks re-enables the lock layers with their current bits.
func (m *Model) EngageLocks() {
	for _, l := range m.locks {
		l.Engage()
	}
}

// KeyBits returns the concatenated per-neuron lock bits across all locks
// (diagnostics and serialization).
func (m *Model) KeyBits() []byte {
	var bits []byte
	for _, l := range m.locks {
		bits = append(bits, l.Bits()...)
	}
	return bits
}

// Predict returns the argmax class for each sample in x, evaluating in
// batches of batchSize to bound memory. The returned slice is freshly
// allocated; Accuracy uses a model-owned buffer instead.
func (m *Model) Predict(x *tensor.Tensor, batchSize int) []int {
	preds := make([]int, x.Shape[0])
	m.predictInto(preds, x, batchSize)
	return preds
}

func (m *Model) predictInto(preds []int, x *tensor.Tensor, batchSize int) {
	n := x.Shape[0]
	if batchSize <= 0 {
		batchSize = 64
	}
	feat := x.Len() / max(n, 1)
	for lo := 0; lo < n; lo += batchSize {
		hi := lo + batchSize
		if hi > n {
			hi = n
		}
		m.evalShape = append(m.evalShape[:0], x.Shape...)
		m.evalShape[0] = hi - lo
		bx := tensor.ViewInto(&m.evalView, x.Data[lo*feat:hi*feat], m.evalShape...)
		out := m.Net.Forward(bx, false)
		k := out.Shape[1]
		for i := 0; i < hi-lo; i++ {
			preds[lo+i] = tensor.Argmax(out.Data[i*k : (i+1)*k])
		}
	}
}

// Accuracy evaluates classification accuracy on (x, y). Predictions land in
// a model-owned buffer, so the repeated probes of the key-recovery attack
// (one per bit trial) cost no allocations.
func (m *Model) Accuracy(x *tensor.Tensor, y []int, batchSize int) float64 {
	if len(y) == 0 {
		return 0
	}
	m.predsBuf = tensor.EnsureInts(m.predsBuf, x.Shape[0])
	preds := m.predsBuf
	m.predictInto(preds, x, batchSize)
	correct := 0
	for i, p := range preds {
		if p == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(y))
}

// Clone returns a deep copy of the model: weights, batch-norm statistics,
// lock state and scheme identifier. Lock schemes that transform the weight
// space (ciphers, permutations) clone before unlocking so the published
// artifact itself stays untouched.
func (m *Model) Clone() (*Model, error) {
	c, err := NewModel(m.Config)
	if err != nil {
		return nil, err
	}
	if err := m.CloneWeightsTo(c); err != nil {
		return nil, err
	}
	for i, l := range m.locks {
		cl := c.locks[i]
		copy(cl.Factors, l.Factors)
		cl.Engaged = l.Engaged
	}
	c.Scheme = m.Scheme
	return c, nil
}

// CloneWeightsTo copies m's parameter values into dst, which must have an
// identical architecture. Lock state is not copied — this is exactly the
// "stolen weights" operation: an attacker obtains parameters, not key
// material.
func (m *Model) CloneWeightsTo(dst *Model) error {
	src := m.Net.Params()
	d := dst.Net.Params()
	if len(src) != len(d) {
		return fmt.Errorf("hpnn: parameter count mismatch %d vs %d", len(src), len(d))
	}
	for i := range src {
		if src[i].Value.Len() != d[i].Value.Len() {
			return fmt.Errorf("hpnn: parameter %d shape mismatch", i)
		}
		copy(d[i].Value.Data, src[i].Value.Data)
	}
	// Running batch-norm statistics travel with the weights.
	copyBatchNormStats(m.Net, dst.Net)
	return nil
}

func copyBatchNormStats(src, dst *nn.Network) {
	sbn := collectBatchNorms(src)
	dbn := collectBatchNorms(dst)
	for i := range sbn {
		copy(dbn[i].RunMean.Data, sbn[i].RunMean.Data)
		copy(dbn[i].RunVar.Data, sbn[i].RunVar.Data)
	}
}

// BatchNormStats returns mutable views of every batch-norm layer's running
// statistics (mean then variance per layer, in network order). Serialization
// uses it to ship inference statistics with the published weights.
func BatchNormStats(m *Model) [][]float64 {
	var out [][]float64
	for _, bn := range collectBatchNorms(m.Net) {
		out = append(out, bn.RunMean.Data, bn.RunVar.Data)
	}
	return out
}

func collectBatchNorms(net *nn.Network) []*nn.BatchNorm2D {
	var out []*nn.BatchNorm2D
	var walk func(l nn.Layer)
	walk = func(l nn.Layer) {
		switch v := l.(type) {
		case *nn.BatchNorm2D:
			out = append(out, v)
		case *nn.Residual:
			for _, ll := range v.Body.Layers {
				walk(ll)
			}
			if v.Skip != nil {
				for _, ll := range v.Skip.Layers {
					walk(ll)
				}
			}
			for _, ll := range v.Post.Layers {
				walk(ll)
			}
		}
	}
	for _, l := range net.Layers {
		walk(l)
	}
	return out
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
