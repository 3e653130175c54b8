package nn

import (
	"fmt"

	"hpnn/internal/tensor"
)

// Replica clones for the data-parallel trainer.
//
// A replica clone shares everything that is read-only during a training
// forward/backward — parameter values, lock factors, batch-norm running
// statistics — and privatizes everything that is written: gradient
// accumulators, layer scratch (outputs, lowering buffers, caches) and
// batch-norm statistic outputs. K clones can therefore run concurrent
// forward/backward passes over disjoint micro-shards while the master
// network stays the single owner of weights and optimizer state.

// cloneParam returns a parameter that aliases p's value tensor but owns a
// fresh zeroed gradient. The clone's Param identity is distinct from the
// master's, so optimizer slot maps (keyed on *Param) never see clone params.
func cloneParam(p *Param) *Param {
	return &Param{Name: p.Name, Value: p.Value, Grad: tensor.New(p.Value.Shape...)}
}

// ReplicaClone returns a network sharing n's weights but owning private
// gradients and scratch, safe to Forward/Backward concurrently with other
// clones of the same master. It panics on layer types it does not know how
// to clone — a new Layer implementation must be added here before it can be
// trained data-parallel.
func (n *Network) ReplicaClone() *Network {
	layers := make([]Layer, len(n.Layers))
	for i, l := range n.Layers {
		layers[i] = cloneLayer(l)
	}
	return NewNetwork(layers...)
}

func cloneLayer(l Layer) Layer {
	switch v := l.(type) {
	case *Conv2D:
		return &Conv2D{Geom: v.Geom, OutC: v.OutC, W: cloneParam(v.W), B: cloneParam(v.B)}
	case *Dense:
		return &Dense{In: v.In, Out: v.Out, W: cloneParam(v.W), B: cloneParam(v.B)}
	case *BatchNorm2D:
		// Clones ALWAYS carry a StatsOut redirect so a clone training
		// forward can never race on the shared running-stat tensors; the
		// replica driver repoints it at the per-shard buffer before each
		// shard and absorbs the stats serially afterwards.
		return &BatchNorm2D{
			C: v.C, Eps: v.Eps, Momentum: v.Momentum,
			Gamma: cloneParam(v.Gamma), Beta: cloneParam(v.Beta),
			RunMean: v.RunMean, RunVar: v.RunVar,
			StatsOut: make([]float64, 2*v.C),
		}
	case *Lock:
		// Factors is shared so SetBits on the master propagates; Engaged is
		// a copied bool, so the replica driver re-syncs engagement from the
		// master locks when a run starts.
		return &Lock{ID: v.ID, Factors: v.Factors, Engaged: v.Engaged}
	case *Residual:
		var skip *Network
		if v.Skip != nil {
			skip = v.Skip.ReplicaClone()
		}
		return &Residual{Body: v.Body.ReplicaClone(), Skip: skip, Post: v.Post.ReplicaClone()}
	case *ReLU:
		return &ReLU{}
	case *Sigmoid:
		return &Sigmoid{}
	case *Flatten:
		return &Flatten{}
	case *MaxPool:
		return &MaxPool{Geom: v.Geom}
	case *GlobalAvgPool:
		return &GlobalAvgPool{}
	default:
		panic(fmt.Sprintf("nn: ReplicaClone does not support layer %s", l.Name()))
	}
}

// BatchNorms returns every BatchNorm2D in the network in forward order,
// descending into residual blocks — the same traversal order as Locks, so
// master and clone collections correspond index-by-index.
func (n *Network) BatchNorms() []*BatchNorm2D {
	var out []*BatchNorm2D
	for _, l := range n.Layers {
		out = append(out, collectBatchNorms(l)...)
	}
	return out
}

func collectBatchNorms(l Layer) []*BatchNorm2D {
	switch v := l.(type) {
	case *BatchNorm2D:
		return []*BatchNorm2D{v}
	case *Residual:
		var out []*BatchNorm2D
		out = append(out, v.Body.BatchNorms()...)
		if v.Skip != nil {
			out = append(out, v.Skip.BatchNorms()...)
		}
		out = append(out, v.Post.BatchNorms()...)
		return out
	default:
		return nil
	}
}

// FlattenGrads rebases every parameter gradient in params onto one
// contiguous flat vector and returns it. Each Param.Grad becomes a view into
// the vector (same shapes, zero-copy), so a full-model gradient can be
// cleared, accumulated (tensor.AddTo) and copied as a single slice — the
// representation the replica tree reduction operates on.
func FlattenGrads(params []*Param) []float64 {
	total := 0
	for _, p := range params {
		total += p.Grad.Len()
	}
	flat := make([]float64, total)
	off := 0
	for _, p := range params {
		ln := p.Grad.Len()
		p.Grad = tensor.FromSlice(flat[off:off+ln:off+ln], p.Grad.Shape...)
		off += ln
	}
	return flat
}
