package lockscheme

import (
	"bytes"
	"fmt"
	"math"

	"hpnn/internal/core"
	"hpnn/internal/dataset"
	"hpnn/internal/keys"
	"hpnn/internal/rng"
	"hpnn/internal/schedule"
	"hpnn/internal/tensor"
)

// This file is the shared scheme-contract suite: the behavioral obligations
// every registered backend must meet, checked against a freshly trained
// victim. The clauses are the security claims the rest of the repo builds
// on:
//
//  1. roundtrip  — Publish followed by Unlock on the owner's device restores
//     the owner's model bitwise (weights and predictions).
//  2. collapse   — the commodity view (Unlock with no device) loses at
//     least MinCollapse accuracy versus the owner.
//  3. far keys   — a key at maximal probed Hamming distance collapses too;
//     the full distance curve is reported for the cross-scheme bench.
//  4. no leakage — the published artifact contains no raw key bytes and no
//     engaged lock state; key material exists only inside keys.Device.
//  5. revocation — a revoked device unlocks to a collapsed model, never to
//     the owner's accuracy.
//
// The suite runs from `go test ./internal/lockscheme/` (all backends) and in
// quick form from scripts/check.sh.

// ContractConfig sizes the contract suite's victim and probes.
type ContractConfig struct {
	// Victim scale: a fashion-MLP victim of TrainN/TestN samples at
	// ImgSize² pixels, trained for Epochs.
	TrainN, TestN, ImgSize, Epochs int
	// Distances are the probed wrong-key Hamming distances; WrongKeys is
	// the number of sampled keys averaged per distance.
	Distances []int
	WrongKeys int
	// MinOwnerAcc gates the fixture (a victim that failed to train proves
	// nothing); MinCollapse is the accuracy drop demanded from the no-key,
	// far-key and revoked views.
	MinOwnerAcc, MinCollapse float64
	// Seed derives every random stream of the suite.
	Seed uint64
}

// QuickContract is the scripts/check.sh profile: a small victim, two probed
// distances, single-key sampling. Runs in seconds per scheme.
func QuickContract() ContractConfig {
	return ContractConfig{
		TrainN: 300, TestN: 150, ImgSize: 8, Epochs: 6,
		Distances:   []int{1, keys.KeyBits / 2},
		WrongKeys:   1,
		MinOwnerAcc: 0.55, MinCollapse: 0.15,
		Seed: 977,
	}
}

// FullContract is the go-test profile: a larger victim and a denser
// Hamming-sensitivity curve.
func FullContract() ContractConfig {
	return ContractConfig{
		TrainN: 500, TestN: 200, ImgSize: 8, Epochs: 8,
		Distances:   []int{1, 4, 16, 64, keys.KeyBits / 2},
		WrongKeys:   2,
		MinOwnerAcc: 0.6, MinCollapse: 0.2,
		Seed: 977,
	}
}

// ContractReport carries the measured numbers behind a contract run — the
// cross-scheme bench renders these side by side.
type ContractReport struct {
	Scheme      string
	OwnerAcc    float64
	UnlockedAcc float64 // published + Unlock(owner device)
	NoKeyAcc    float64 // published + Unlock(nil): the thief's view
	RevokedAcc  float64 // published + Unlock(revoked device)
	Distances   []int
	WrongKeyAcc []float64 // mean accuracy at each probed Hamming distance
}

// contractVictim is the shared fixture behind the contract suites: a
// trained owner model, its published clone, and the key infrastructure that
// produced them. Both RunContract and RunBatchedContract start from the
// same lifecycle so they judge the same artifact.
type contractVictim struct {
	ds       *dataset.Dataset
	owner    *core.Model // trained, pre-publish: the roundtrip reference
	pub      *core.Model // published clone
	key      keys.Key
	sched    *schedule.Schedule
	auth     *keys.Authority
	dev      *keys.Device
	ownerAcc float64
}

// trainContractVictim runs the owner lifecycle once: dataset, MLP victim,
// key issuance, scheme instrumentation, training (gated on MinOwnerAcc — a
// victim that failed to train proves nothing), and Publish on a clone.
func trainContractVictim(s Scheme, cfg ContractConfig) (*contractVictim, error) {
	ds, err := dataset.Generate(dataset.Config{
		Name: "fashion", TrainN: cfg.TrainN, TestN: cfg.TestN,
		H: cfg.ImgSize, W: cfg.ImgSize, Seed: cfg.Seed + 1,
	})
	if err != nil {
		return nil, err
	}
	m, err := core.NewModel(core.Config{
		Arch: core.MLP, InC: 1, InH: cfg.ImgSize, InW: cfg.ImgSize, Seed: cfg.Seed + 2,
	})
	if err != nil {
		return nil, err
	}
	v := &contractVictim{
		ds:    ds,
		owner: m,
		key:   keys.Generate(rng.New(cfg.Seed + 3)),
		sched: schedule.New(keys.KeyBits, cfg.Seed+4),
	}
	v.auth = keys.NewAuthority(v.key)
	v.dev, err = v.auth.Issue("contract-owner")
	if err != nil {
		return nil, err
	}

	// Owner lifecycle: instrument, train, measure the reference accuracy.
	if err := s.InstrumentTraining(m, v.dev, v.sched); err != nil {
		return nil, err
	}
	core.Train(m, ds.TrainX, ds.TrainY, ds.TestX, ds.TestY, core.TrainConfig{
		Epochs: cfg.Epochs, BatchSize: 32, LR: 0.05, Momentum: 0.9, Seed: cfg.Seed + 5,
	})
	v.ownerAcc = m.Accuracy(ds.TestX, ds.TestY, 64)
	if v.ownerAcc < cfg.MinOwnerAcc {
		return nil, fmt.Errorf("%s: victim failed to train (owner accuracy %.3f < %.3f)",
			s.Name(), v.ownerAcc, cfg.MinOwnerAcc)
	}

	// Publish on a clone; the owner's model stays the roundtrip reference.
	v.pub, err = m.Clone()
	if err != nil {
		return nil, err
	}
	if err := s.Publish(v.pub, v.dev, v.sched); err != nil {
		return nil, err
	}
	return v, nil
}

// RunContract trains a victim under the scheme's lifecycle and checks every
// contract clause, returning the measured report and the violations (empty
// means the scheme honors the contract).
func RunContract(s Scheme, cfg ContractConfig) (ContractReport, []error) {
	rep := ContractReport{Scheme: s.Name(), Distances: cfg.Distances}
	var violations []error
	fail := func(format string, args ...any) {
		violations = append(violations, fmt.Errorf("%s: "+format, append([]any{s.Name()}, args...)...))
	}

	v, err := trainContractVictim(s, cfg)
	if err != nil {
		return rep, append(violations, err)
	}
	ds, pub, key, sched, auth, dev := v.ds, v.pub, v.key, v.sched, v.auth, v.dev
	rep.OwnerAcc = v.ownerAcc
	ownerBits := paramBits(v.owner)
	ownerPreds := v.owner.Predict(ds.TestX, 64)

	if Canonical(pub.Scheme) != s.Name() {
		fail("Publish stamped scheme %q, want %q", pub.Scheme, s.Name())
	}

	// Clause 4 — no key material in the published artifact: the raw key must
	// not appear in the parameter image, and no lock layer may stay engaged
	// or keep non-identity factors (the wire format never carries them).
	if bytes.Contains(paramImage(pub), key.Bytes()) {
		fail("published parameters contain the raw device key")
	}
	for _, l := range pub.Locks() {
		if l.Engaged {
			fail("published artifact leaves lock %s engaged", l.ID)
		}
		for _, f := range l.Factors {
			if f != 1 {
				fail("published artifact leaks key bits through lock %s factors", l.ID)
				break
			}
		}
	}

	unlock := func(d *keys.Device) (*core.Model, error) {
		c, err := pub.Clone()
		if err != nil {
			return nil, err
		}
		if err := s.Unlock(c, d, sched); err != nil {
			return nil, err
		}
		return c, nil
	}

	// Clause 1 — roundtrip: unlocking on the owner's device restores the
	// trained weights bit-for-bit and reproduces the owner's predictions.
	got, err := unlock(dev)
	if err != nil {
		return rep, append(violations, err)
	}
	rep.UnlockedAcc = got.Accuracy(ds.TestX, ds.TestY, 64)
	if diff := bitsDiffer(ownerBits, paramBits(got)); diff != "" {
		fail("publish/unlock roundtrip is not bitwise: %s", diff)
	}
	for i, p := range got.Predict(ds.TestX, 64) {
		if p != ownerPreds[i] {
			fail("publish/unlock roundtrip changes prediction for test sample %d", i)
			break
		}
	}

	// Clause 2 — commodity collapse: the no-key view must be far below the
	// owner.
	noKey, err := unlock(nil)
	if err != nil {
		return rep, append(violations, err)
	}
	rep.NoKeyAcc = noKey.Accuracy(ds.TestX, ds.TestY, 64)
	if rep.NoKeyAcc > rep.OwnerAcc-cfg.MinCollapse {
		fail("no-key accuracy %.3f too close to owner %.3f (want a drop of at least %.2f)",
			rep.NoKeyAcc, rep.OwnerAcc, cfg.MinCollapse)
	}

	// Clause 3 — wrong-key sensitivity: measure the Hamming curve; the
	// farthest probed key must collapse.
	r := rng.New(cfg.Seed + 6)
	for _, d := range cfg.Distances {
		sum := 0.0
		for k := 0; k < cfg.WrongKeys; k++ {
			wrong, err := unlock(keys.NewDevice("contract-wrong", key.FlipRandomBits(r, d)))
			if err != nil {
				return rep, append(violations, err)
			}
			sum += wrong.Accuracy(ds.TestX, ds.TestY, 64)
		}
		rep.WrongKeyAcc = append(rep.WrongKeyAcc, sum/float64(cfg.WrongKeys))
	}
	if far := rep.WrongKeyAcc[len(rep.WrongKeyAcc)-1]; far > rep.OwnerAcc-cfg.MinCollapse {
		fail("key at Hamming distance %d still reaches %.3f (owner %.3f)",
			cfg.Distances[len(cfg.Distances)-1], far, rep.OwnerAcc)
	}

	// Clause 5 — revocation: a pulled license must not unlock the model.
	if err := auth.Revoke(dev.Serial()); err != nil {
		return rep, append(violations, err)
	}
	revoked, err := unlock(dev)
	if err != nil {
		return rep, append(violations, err)
	}
	rep.RevokedAcc = revoked.Accuracy(ds.TestX, ds.TestY, 64)
	if rep.RevokedAcc > rep.OwnerAcc-cfg.MinCollapse {
		fail("revoked device still unlocks to %.3f (owner %.3f)", rep.RevokedAcc, rep.OwnerAcc)
	}
	return rep, violations
}

// InferenceBackend abstracts an execution engine over published models so
// the contract suite can pin batched semantics without importing the tpu
// package (which imports this one). The external test in this package binds
// it to the accelerator's golden MMU path and its GEMM tier; any
// future engine that wants registry coverage implements the same pair.
type InferenceBackend interface {
	// Predict runs x (one sample per leading index) through the engine's
	// reference per-sample path on hardware holding dev (nil = commodity).
	Predict(s Scheme, m *core.Model, dev *keys.Device, sched *schedule.Schedule, x *tensor.Tensor) ([]int, error)
	// PredictBatch runs the same samples through the engine's batched path
	// in a single call.
	PredictBatch(s Scheme, m *core.Model, dev *keys.Device, sched *schedule.Schedule, x *tensor.Tensor) ([]int, error)
}

// batchProbeSizes picks the batch sizes the batched clauses probe: a lone
// sample, a small partial batch, and the full test set.
func batchProbeSizes(n int) []int {
	sizes := []int{}
	for _, p := range []int{1, 3} {
		if p < n {
			sizes = append(sizes, p)
		}
	}
	return append(sizes, n)
}

// RunBatchedContract extends the scheme contract to batched inference. A
// batch of N published-model samples must produce exactly the N predictions
// of the engine's per-sample path — on the owner's device, where a batched
// tier folds the key into its kernels and the fold must be invisible in the
// answers, and on commodity hardware, where batching must not rescue the
// no-key collapse the float contract already demands. Runs per registered
// scheme from the external contract test, so every backend in the registry
// is pinned automatically.
func RunBatchedContract(s Scheme, cfg ContractConfig, be InferenceBackend) (ContractReport, []error) {
	rep := ContractReport{Scheme: s.Name()}
	var violations []error
	fail := func(format string, args ...any) {
		violations = append(violations, fmt.Errorf("%s: "+format, append([]any{s.Name()}, args...)...))
	}

	v, err := trainContractVictim(s, cfg)
	if err != nil {
		return rep, append(violations, err)
	}
	rep.OwnerAcc = v.ownerAcc
	accuracy := func(preds []int) float64 {
		correct := 0
		for i, p := range preds {
			if p == v.ds.TestY[i] {
				correct++
			}
		}
		return float64(correct) / float64(len(preds))
	}
	total := v.ds.TestX.Shape[0]
	feat := len(v.ds.TestX.Data) / total
	prefix := func(n int) *tensor.Tensor {
		var view tensor.Tensor
		shape := append([]int{n}, v.ds.TestX.Shape[1:]...)
		return tensor.ViewInto(&view, v.ds.TestX.Data[:n*feat], shape...)
	}

	// Clause B1 — batch ≡ N single calls on the owner's device, for a lone
	// sample, a partial batch, and the full test set. The quantized engine
	// is deterministic, so any divergence is a kernel bug, not noise.
	single, err := be.Predict(s, v.pub, v.dev, v.sched, v.ds.TestX)
	if err != nil {
		return rep, append(violations, err)
	}
	var full []int
	for _, n := range batchProbeSizes(total) {
		batched, err := be.PredictBatch(s, v.pub, v.dev, v.sched, prefix(n))
		if err != nil {
			return rep, append(violations, err)
		}
		if len(batched) != n {
			fail("batch of %d returned %d predictions", n, len(batched))
			continue
		}
		for i := 0; i < n; i++ {
			if batched[i] != single[i] {
				fail("batch of %d diverges from the per-sample path at sample %d (class %d vs %d)",
					n, i, batched[i], single[i])
				break
			}
		}
		if n == total {
			full = batched
		}
	}
	if full == nil {
		return rep, violations
	}

	// Clause B2 — the batched engine serves the owner: its accuracy tracks
	// the float victim up to quantization.
	rep.UnlockedAcc = accuracy(full)
	if rep.UnlockedAcc < rep.OwnerAcc-0.1 {
		fail("batched owner accuracy %.3f too far below float owner %.3f",
			rep.UnlockedAcc, rep.OwnerAcc)
	}

	// Clause B3 — batching preserves the no-key collapse: the commodity
	// batch equals the commodity single calls elementwise and stays far
	// below the owner.
	noKeySingle, err := be.Predict(s, v.pub, nil, v.sched, v.ds.TestX)
	if err != nil {
		return rep, append(violations, err)
	}
	noKeyBatch, err := be.PredictBatch(s, v.pub, nil, v.sched, v.ds.TestX)
	if err != nil {
		return rep, append(violations, err)
	}
	for i := range noKeyBatch {
		if noKeyBatch[i] != noKeySingle[i] {
			fail("no-key batch diverges from no-key single calls at sample %d (class %d vs %d)",
				i, noKeyBatch[i], noKeySingle[i])
			break
		}
	}
	rep.NoKeyAcc = accuracy(noKeyBatch)
	if rep.NoKeyAcc > rep.OwnerAcc-cfg.MinCollapse {
		fail("batching rescued the no-key view: %.3f vs owner %.3f (want a drop of at least %.2f)",
			rep.NoKeyAcc, rep.OwnerAcc, cfg.MinCollapse)
	}
	return rep, violations
}

// paramBits snapshots every trainable parameter as raw float bits.
func paramBits(m *core.Model) []uint64 {
	var out []uint64
	for _, p := range m.Net.Params() {
		for _, v := range p.Value.Data {
			out = append(out, math.Float64bits(v))
		}
	}
	return out
}

// bitsDiffer reports the first mismatch between two parameter snapshots
// ("" when identical).
func bitsDiffer(a, b []uint64) string {
	if len(a) != len(b) {
		return fmt.Sprintf("parameter count %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Sprintf("parameter word %d: %016x vs %016x", i, a[i], b[i])
		}
	}
	return ""
}

// paramImage serializes the parameters (and lock factors) of a model into
// the byte image a published artifact would expose, for the leakage scan.
func paramImage(m *core.Model) []byte {
	var buf bytes.Buffer
	var w [8]byte
	putF64 := func(v float64) {
		bits := math.Float64bits(v)
		for j := 0; j < 8; j++ {
			w[j] = byte(bits >> (8 * j))
		}
		buf.Write(w[:])
	}
	for _, p := range m.Net.Params() {
		for _, v := range p.Value.Data {
			putF64(v)
		}
	}
	for _, l := range m.Locks() {
		for _, f := range l.Factors {
			putF64(f)
		}
	}
	return buf.Bytes()
}
