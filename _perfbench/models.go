package main

import (
	"bytes"
	"fmt"

	"hpnn/internal/core"
	"hpnn/internal/dataset"
	"hpnn/internal/keys"
	"hpnn/internal/lockscheme"
	"hpnn/internal/modelio"
	"hpnn/internal/rng"
	"hpnn/internal/schedule"
	"hpnn/internal/tensor"
	"hpnn/internal/tpu"
	"hpnn/internal/train"
)

// The served system's configuration is fixed; only the inputs (samples,
// arrival schedules, tenant mix, batch composition) follow --seed.
const (
	imgHW     = 16
	schedSeed = 77 // hpnn-serve's -sched-seed
)

// tenant is one published model: its lock scheme, key device, schedule and
// one or more published versions (zoo_swap alternates two).
type tenant struct {
	name   string
	scheme lockscheme.Scheme
	key    keys.Key
	dev    *keys.Device
	sched  *schedule.Schedule
	blobs  [][]byte
	models []*core.Model // decoded from blobs: exactly what the server runs
	// oracle[v][s] is the golden class of sample s under version v.
	oracle [][]int
	// wrongKey[s] is what version 0 answers for sample s on a device with
	// another key: what a server holding the wrong key would serve.
	wrongKey []int
}

// fitN and fitEpochs size the short training pass every published model
// gets. Untrained random weights answer one or two classes for almost every
// input, which would let a wrong model pass the answer check; a few epochs
// spread the answers over the classes.
const (
	fitN      = 256
	fitEpochs = 4
)

// fit trains m (already instrumented for key-dependent training) on a
// seeded fashion set whose labels are relabelled through perm, so every
// tenant learns its own class mapping and tenants disagree on most inputs.
func fit(m *core.Model, seed uint64, perm []int) error {
	x, y, err := inputs(seed, fitN)
	if err != nil {
		return err
	}
	for i := range y {
		y[i] = perm[y[i]]
	}
	tr, err := train.New(m.Net, train.Config{Epochs: fitEpochs, BatchSize: 32, LR: 0.05, Momentum: 0.9, Seed: seed})
	if err != nil {
		return err
	}
	_, err = tr.Run(x, y, nil)
	return err
}

// newTenant publishes one version per weight seed of an arch under
// schemeName, each trained briefly (fit) on the tenant's own class mapping.
// The quantized datapath is deterministic, so served answers must match
// the golden simulator bit for bit.
func newTenant(name, schemeName string, cfg core.Config, keySeed uint64, weightSeeds ...uint64) (*tenant, error) {
	scheme, err := lockscheme.Get(schemeName)
	if err != nil {
		return nil, err
	}
	key := keys.Generate(rng.New(keySeed))
	t := &tenant{
		name:   name,
		scheme: scheme,
		key:    key,
		dev:    keys.NewDevice("bench/"+name, key),
		sched:  schedule.New(keys.KeyBits, schedSeed),
	}
	perm := rng.New(keySeed).Perm(cfg.Classes)
	for _, ws := range weightSeeds {
		c := cfg
		c.Seed = ws
		m, err := core.NewModel(c)
		if err != nil {
			return nil, err
		}
		if err := scheme.InstrumentTraining(m, t.dev, t.sched); err != nil {
			return nil, err
		}
		if err := fit(m, ws, perm); err != nil {
			return nil, err
		}
		if err := scheme.Publish(m, t.dev, t.sched); err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := modelio.Save(&buf, m); err != nil {
			return nil, err
		}
		dec, err := modelio.Load(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return nil, err
		}
		t.blobs = append(t.blobs, buf.Bytes())
		t.models = append(t.models, dec)
	}
	return t, nil
}

// computeOracle runs every sample of x through the golden per-sample
// simulator on a fresh accelerator, per published version, and once more
// for version 0 under a wrong key.
func (t *tenant) computeOracle(x *tensor.Tensor) error {
	t.oracle = make([][]int, len(t.models))
	for v, m := range t.models {
		var err error
		if t.oracle[v], err = golden(t.scheme, t.dev, t.sched, m, x); err != nil {
			return fmt.Errorf("oracle %s v%d: %w", t.name, v, err)
		}
	}
	wrong := keys.NewDevice("bench/wrong", keys.Generate(rng.New(wrongKeySeed)))
	var err error
	if t.wrongKey, err = golden(t.scheme, wrong, t.sched, t.models[0], x); err != nil {
		return fmt.Errorf("oracle %s wrong key: %w", t.name, err)
	}
	return nil
}

// golden is the per-sample simulator's class for every sample of x.
func golden(scheme lockscheme.Scheme, dev *keys.Device, sched *schedule.Schedule, m *core.Model, x *tensor.Tensor) ([]int, error) {
	n := x.Shape[0]
	feat := x.Len() / n
	acc, err := tpu.NewAcceleratorFor(scheme, tpu.DefaultConfig(), dev, sched)
	if err != nil {
		return nil, err
	}
	out := make([]int, n)
	for i := range out {
		s := tensor.FromSlice(x.Data[i*feat:(i+1)*feat], x.Shape[1:]...)
		if out[i], err = acc.PredictSample(m, s); err != nil {
			return nil, fmt.Errorf("sample %d: %w", i, err)
		}
	}
	return out, nil
}

// The answer check can only catch a wrong model if the golden answers
// spread over the classes and differ from what a wrong key or another
// tenant's model gives. checkOracle enforces these floors on every run.
const (
	wrongKeySeed  = 999
	minClasses    = 5    // distinct golden classes per version
	maxClassShare = 0.5  // largest share of the samples one class may take
	minDisagree   = 0.25 // share of samples a wrong key or tenant must answer differently
)

// disagree is the share of samples on which two answer lists differ.
func disagree(a, b []int) float64 {
	d := 0
	for i := range a {
		if a[i] != b[i] {
			d++
		}
	}
	return float64(d) / float64(len(a))
}

// checkOracle prints how the golden answers spread and how often a wrong
// key, another version and another tenant answer differently, and returns
// an error when any falls below the floors above.
func checkOracle(ts []*tenant) error {
	var errs []string
	for ti, t := range ts {
		for v, o := range t.oracle {
			hist := make([]int, 10)
			top := 0
			distinct := 0
			for _, c := range o {
				if c >= 0 && c < len(hist) {
					hist[c]++
				}
			}
			for _, n := range hist {
				if n > 0 {
					distinct++
				}
				top = max(top, n)
			}
			share := float64(top) / float64(len(o))
			fmt.Printf("oracle %s v%d: classes %v (%d distinct, top share %.2f)\n", t.name, v, hist, distinct, share)
			if distinct < minClasses || share > maxClassShare {
				errs = append(errs, fmt.Sprintf("%s v%d answers collapse: %d distinct classes, top share %.2f", t.name, v, distinct, share))
			}
		}
		// Versions of one tenant learn the same mapping and may agree on
		// most inputs; the zoo check accepts either, so that share is
		// printed but has no floor.
		if len(t.oracle) > 1 {
			fmt.Printf("oracle %s v0 vs version 1: %.2f of samples differ\n", t.name, disagree(t.oracle[0], t.oracle[1]))
		}
		type other struct {
			what string
			with []int
		}
		pairs := []other{{"wrong key", t.wrongKey}}
		for _, u := range ts[ti+1:] {
			pairs = append(pairs, other{"tenant " + u.name, u.oracle[0]})
		}
		for _, p := range pairs {
			d := disagree(t.oracle[0], p.with)
			fmt.Printf("oracle %s v0 vs %s: %.2f of samples differ\n", t.name, p.what, d)
			if d < minDisagree {
				errs = append(errs, fmt.Sprintf("%s v0 vs %s differ on only %.2f of samples", t.name, p.what, d))
			}
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("answer check too weak: %v", errs)
	}
	return nil
}

// accepts reports whether class is a correct answer for sample s under any
// of the tenant's published versions.
func (t *tenant) accepts(s, class int) bool {
	for _, o := range t.oracle {
		if o[s] == class {
			return true
		}
	}
	return false
}

// inputs generates n seeded 16×16 single-channel images (the fashion
// generator: procedural garment-like shapes plus noise).
func inputs(seed uint64, n int) (*tensor.Tensor, []int, error) {
	d, err := dataset.Generate(dataset.Config{Name: "fashion", TrainN: n, TestN: 1, H: imgHW, W: imgHW, Seed: seed})
	if err != nil {
		return nil, nil, err
	}
	return d.TrainX, d.TrainY, nil
}

// cnn1 and resnet18 are the two served architectures.
var (
	cnn1     = core.Config{Arch: core.CNN1, InC: 1, InH: imgHW, InW: imgHW, Classes: 10}
	resnet18 = core.Config{Arch: core.ResNet18, InC: 1, InH: imgHW, InW: imgHW, Classes: 10, WidthScale: 0.25}
)
