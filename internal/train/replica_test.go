package train

import (
	"math"
	"strings"
	"testing"

	"hpnn/internal/dataset"
	"hpnn/internal/nn"
	"hpnn/internal/rng"
	"hpnn/internal/tensor"
)

// convLockNet builds a small network exercising every layer family the
// replica engine must handle: convolution, batch norm, locks, a residual
// block and pooling — over [N, 2, 8, 8] inputs with 4 classes. Lock bits
// are programmed deterministically from seed.
func convLockNet(seed uint64) *nn.Network {
	r := rng.New(seed)
	g := tensor.ConvGeom{InC: 2, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 1, Pad: 1}
	g2 := tensor.ConvGeom{InC: 4, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 1, Pad: 1}
	body := nn.NewNetwork(nn.NewConv2D(g2, 4).InitHe(r), nn.NewBatchNorm2D(4))
	post := nn.NewNetwork(nn.NewLock("res.lock", 4*8*8), nn.NewReLU())
	layers := []nn.Layer{
		nn.NewConv2D(g, 4).InitHe(r),
		nn.NewBatchNorm2D(4),
		nn.NewLock("l1", 4*8*8),
		nn.NewReLU(),
		nn.NewResidual(body, nil, post),
		nn.NewMaxPool(tensor.ConvGeom{InC: 4, InH: 8, InW: 8, KH: 2, KW: 2, Stride: 2}),
		nn.NewFlatten(),
		nn.NewDense(4*4*4, 4).InitHe(r),
	}
	net := nn.NewNetwork(layers...)
	bitsRng := rng.New(seed + 7)
	for _, l := range net.Locks() {
		bits := make([]byte, l.Neurons())
		for i := range bits {
			bits[i] = byte(bitsRng.Intn(2))
		}
		l.SetBits(bits)
	}
	return net
}

// convData builds a deterministic [n, 2, 8, 8] batch with 4-way labels.
func convData(seed uint64, n int) (*tensor.Tensor, []int) {
	r := rng.New(seed)
	x := tensor.New(n, 2, 8, 8)
	for i := range x.Data {
		x.Data[i] = r.Norm()
	}
	y := make([]int, n)
	for i := range y {
		y[i] = r.Intn(4)
	}
	return x, y
}

// stateBits captures everything a bitwise comparison must cover: parameter
// values, batch-norm running statistics and lock bits.
func stateBits(net *nn.Network) []uint64 {
	out := netBits(net)
	for _, bn := range net.BatchNorms() {
		for _, v := range bn.RunMean.Data {
			out = append(out, math.Float64bits(v))
		}
		for _, v := range bn.RunVar.Data {
			out = append(out, math.Float64bits(v))
		}
	}
	for _, l := range net.Locks() {
		for _, b := range l.Bits() {
			out = append(out, uint64(b))
		}
	}
	return out
}

func sameBits(t *testing.T, label string, want, got []uint64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: state length %d vs %d", label, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: diverges at scalar %d", label, i)
		}
	}
}

// TestReplicaS1MatchesLegacy: with one micro-shard covering the whole
// batch, the replica engine must reproduce the sequential loop bitwise —
// weights, batch-norm running statistics, lock bits and the loss
// trajectory. The data size is chosen so the final batch is short.
func TestReplicaS1MatchesLegacy(t *testing.T) {
	x, y := convData(3, 30)
	base := Config{Epochs: 2, BatchSize: 12, LR: 0.05, Momentum: 0.9, Seed: 11}

	legacy := convLockNet(5)
	trL, err := New(legacy, base)
	if err != nil {
		t.Fatal(err)
	}
	resL, err := trL.Run(x, y, nil)
	if err != nil {
		t.Fatal(err)
	}

	rep := convLockNet(5)
	cfg := base
	cfg.Replicas, cfg.GradShards = 1, 1
	trR, err := New(rep, cfg)
	if err != nil {
		t.Fatal(err)
	}
	resR, err := trR.Run(x, y, nil)
	if err != nil {
		t.Fatal(err)
	}

	sameBits(t, "replica S=1 vs legacy", stateBits(legacy), stateBits(rep))
	for i := range resL.EpochLoss {
		if math.Float64bits(resL.EpochLoss[i]) != math.Float64bits(resR.EpochLoss[i]) {
			t.Fatalf("epoch %d loss %v vs %v", i, resL.EpochLoss[i], resR.EpochLoss[i])
		}
	}
}

// TestReplicaBitwiseAcrossK: for a fixed GradShards the run is bitwise
// identical for every replica count that divides it and for any worker-pool
// width — the replica count and SetMaxWorkers are pure execution knobs.
// The short final batch (30 % 12 = 6 rows over 8 shards) exercises empty
// ∅ leaves in the reduction tree.
func TestReplicaBitwiseAcrossK(t *testing.T) {
	x, y := convData(4, 30)
	run := func(k, workers int) ([]uint64, []float64) {
		if workers > 0 {
			old := tensor.SetMaxWorkers(workers)
			defer tensor.SetMaxWorkers(old)
		}
		net := convLockNet(6)
		cfg := Config{Epochs: 2, BatchSize: 12, LR: 0.05, Momentum: 0.9, Seed: 13,
			Replicas: k, GradShards: 8}
		tr, err := New(net, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := tr.Run(x, y, nil)
		if err != nil {
			t.Fatal(err)
		}
		return stateBits(net), res.EpochLoss
	}

	wantState, wantLoss := run(1, 0)
	for _, k := range []int{2, 4, 8} {
		gotState, gotLoss := run(k, 0)
		sameBits(t, "K variant", wantState, gotState)
		for i := range wantLoss {
			if math.Float64bits(wantLoss[i]) != math.Float64bits(gotLoss[i]) {
				t.Fatalf("K=%d epoch %d loss %v vs %v", k, i, gotLoss[i], wantLoss[i])
			}
		}
	}
	for _, w := range []int{1, 2, 8} {
		gotState, _ := run(4, w)
		sameBits(t, "worker variant", wantState, gotState)
	}
}

// TestReplicaConfigValidation: the shard/replica geometry is validated at
// construction, and GradShards alone implies a one-replica engine.
func TestReplicaConfigValidation(t *testing.T) {
	bad := []Config{
		{Replicas: 2, GradShards: 6}, // not a power of two
		{Replicas: 3, GradShards: 8}, // does not divide
		{Replicas: 16},               // exceeds the default 8 shards
		{Replicas: -1},
		{GradShards: -4},
	}
	for _, cfg := range bad {
		if _, err := New(blobNet(1), cfg); err == nil {
			t.Fatalf("config %+v accepted", cfg)
		}
	}
	tr, err := New(blobNet(1), Config{GradShards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if tr.eng == nil || tr.eng.k != 1 || tr.shardCount() != 4 {
		t.Fatalf("GradShards alone should imply a 1-replica engine, got %+v", tr.eng)
	}
	if tr, err := New(blobNet(1), Config{Replicas: 8}); err != nil || tr.eng.shards != 8 {
		t.Fatalf("Replicas=8 should default to 8 shards: %v", err)
	}
}

// TestReplicaResumeShardMismatch: a checkpoint's shard count must match the
// resuming trainer's — the replica count may change, the shard count fixes
// the numerics and may not.
func TestReplicaResumeShardMismatch(t *testing.T) {
	tr4, err := New(blobNet(2), Config{Epochs: 4, Replicas: 4, GradShards: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	st := tr4.Snapshot()
	if st.Shards != 8 {
		t.Fatalf("snapshot records %d shards, want 8", st.Shards)
	}

	// Same shard count, different replica count: accepted.
	tr2, err := New(blobNet(2), Config{Epochs: 4, Replicas: 2, GradShards: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr2.Restore(st); err != nil {
		t.Fatalf("K=2 resume of a K=4 run rejected: %v", err)
	}

	// Different shard count or a sequential trainer: rejected.
	trS, err := New(blobNet(2), Config{Epochs: 4, Replicas: 4, GradShards: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := trS.Restore(st); err == nil || !strings.Contains(err.Error(), "shards") {
		t.Fatalf("shard mismatch accepted: %v", err)
	}
	trL, err := New(blobNet(2), Config{Epochs: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := trL.Restore(st); err == nil {
		t.Fatal("sequential resume of a sharded run accepted")
	}
}

// TestReplicaEngineRestart: Run stops the replica goroutines on exit and a
// subsequent Run (or direct step) restarts them transparently.
func TestReplicaEngineRestart(t *testing.T) {
	x, y := blobData(21, 32)
	net := blobNet(21)
	tr, err := New(net, Config{Epochs: 1, BatchSize: 8, LR: 0.05, Seed: 9, Replicas: 2, GradShards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Run(x, y, nil); err != nil {
		t.Fatal(err)
	}
	if tr.eng.started {
		t.Fatal("engine still started after Run returned")
	}
	b := dataset.Batches(x, y, 8, ShuffleSeed(9, 0))[0]
	tr.step(b, 0, 0, 0.05) // must restart the goroutines, not deadlock
	if !tr.eng.started {
		t.Fatal("direct step did not restart the engine")
	}
	tr.eng.stop()
}
