package main

import (
	"fmt"
	"math"
	"time"

	"hpnn/internal/core"
	"hpnn/internal/keys"
	"hpnn/internal/lockscheme"
	"hpnn/internal/nn"
	"hpnn/internal/rng"
	"hpnn/internal/schedule"
	"hpnn/internal/tensor"
	"hpnn/internal/train"
)

const (
	trainBatch    = 32 // the workload's batch; "hi" load doubles it
	trainN        = 512
	trainReplicas = 2
	trainStarts   = 48 // set-up starts per run, spread over the rounds
	// epochsPerSecond fixes the step count from --seconds, so both sides of
	// a comparison train the same steps. The rounds' runs at batch 32 and
	// 64 and one K=1 replay of each fill about the budget on a 2-CPU box.
	epochsPerSecond = 12.0
)

// trainFixture is the locked CNN1 owner-side training job.
type trainFixture struct {
	x     *tensor.Tensor
	y     []int
	dev   *keys.Device
	sched *schedule.Schedule
	seed  uint64
}

func newTrainFixture(r *run) (*trainFixture, error) {
	x, y, err := inputs(r.seed, trainN)
	if err != nil {
		return nil, err
	}
	return &trainFixture{
		x: x, y: y,
		dev:   keys.NewDevice("bench/train", keys.Generate(rng.New(131))),
		sched: schedule.New(keys.KeyBits, schedSeed),
		seed:  r.seed,
	}, nil
}

// model builds the CNN1 and instruments it for key-dependent training.
func (f *trainFixture) model() (*core.Model, error) {
	c := cnn1
	c.Seed = 231
	m, err := core.NewModel(c)
	if err != nil {
		return nil, err
	}
	if err := lockscheme.Default().InstrumentTraining(m, f.dev, f.sched); err != nil {
		return nil, err
	}
	return m, nil
}

func (f *trainFixture) config(epochs, batch, replicas int, onStep func(train.StepInfo)) train.Config {
	return train.Config{
		Epochs: epochs, BatchSize: batch, LR: 0.05, Momentum: 0.9,
		Seed: f.seed, Replicas: replicas, GradShards: 8,
		Hooks: train.Hooks{OnStep: onStep},
	}
}

// measureTrain times model build, lock instrumentation, trainer
// construction and the first step, n times.
func (s *setups) measureTrain(f *trainFixture, n int) error {
	feat := f.x.Len() / trainN
	x1 := tensor.FromSlice(f.x.Data[:trainBatch*feat], trainBatch, 1, imgHW, imgHW)
	for i := 0; i < n; i++ {
		s.attempts++
		t0 := time.Now()
		m, err := f.model()
		if err != nil {
			return err
		}
		tr, err := train.New(m.Net, f.config(1, trainBatch, trainReplicas, nil))
		if err != nil {
			return err
		}
		if _, err := tr.Run(x1, f.y[:trainBatch], nil); err != nil {
			return err
		}
		s.times = append(s.times, time.Since(t0).Seconds())
	}
	return nil
}

// trainRun trains a fresh model for epochs at the given batch size and
// replica count and returns it with every step's duration in ms and the
// run's wall time.
func (f *trainFixture) trainRun(epochs, batch, replicas int) (*core.Model, []float64, time.Duration, error) {
	m, err := f.model()
	if err != nil {
		return nil, nil, 0, err
	}
	var steps []float64
	tr, err := train.New(m.Net, f.config(epochs, batch, replicas, func(s train.StepInfo) {
		steps = append(steps, ms(s.Duration))
	}))
	if err != nil {
		return nil, nil, 0, err
	}
	t0 := time.Now()
	if _, err := tr.Run(f.x, f.y, nil); err != nil {
		return nil, nil, 0, err
	}
	return m, steps, time.Since(t0), nil
}

// stateBits is every bit a trained network's behaviour depends on:
// parameters, batch-norm running statistics and lock bits.
func stateBits(net *nn.Network) []uint64 {
	var out []uint64
	for _, p := range net.Params() {
		for _, v := range p.Value.Data {
			out = append(out, math.Float64bits(v))
		}
	}
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

// sameBits reports the index of the first differing word, or -1.
func sameBits(a, b []uint64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// A run trains in trainRounds rounds, each a few set-up starts and one
// training run at batch 32 and at batch 64, so every measurement is spread
// over the whole run. Each round's steps are cut into chunksPerRound
// contiguous chunks. Contention from other tenants of the host only ever
// slows steps, in bursts of a second or more, so each run reports its
// least-disturbed chunk.
const (
	trainRounds    = 24
	chunksPerRound = 2
)

// bestChunk cuts steps (durations in ms, in order) into n contiguous
// chunks and returns the lowest per-chunk q-quantile and the highest
// per-chunk step rate (steps per second of step time).
func bestChunk(steps []float64, n int, q float64) (lat, rate float64) {
	lat = math.Inf(1)
	for _, c := range chunkStats(steps, n, q) {
		lat, rate = math.Min(lat, c[0]), math.Max(rate, c[1])
	}
	return lat, rate
}

// chunkStats returns each non-empty chunk's q-quantile step time and step
// rate, in order.
func chunkStats(steps []float64, n int, q float64) [][2]float64 {
	var out [][2]float64
	for i := 0; i < n; i++ {
		c := steps[i*len(steps)/n : (i+1)*len(steps)/n]
		if len(c) == 0 {
			continue
		}
		sum := 0.0
		for _, d := range c {
			sum += d
		}
		out = append(out, [2]float64{percentile(sortedCopy(c), q), float64(len(c)) / (sum / 1e3)})
	}
	return out
}

// trainEpochs is the epoch count of each round's training runs.
func (r *run) trainEpochs() int {
	return int(math.Max(1, math.Round(r.seconds*epochsPerSecond/trainRounds)))
}

// trainChecked trains at K=trainReplicas, replays the same steps at K=1
// and checks the two final states are bitwise equal. It returns the K
// replica run's step durations.
func trainChecked(r *run, f *trainFixture, epochs, batch int) ([]float64, error) {
	mK, steps, wall, err := f.trainRun(epochs, batch, trainReplicas)
	if err != nil {
		return nil, err
	}
	m1, _, _, err := f.trainRun(epochs, batch, 1)
	if err != nil {
		return nil, err
	}
	diverged := 0
	if i := sameBits(stateBits(m1.Net), stateBits(mK.Net)); i >= 0 {
		diverged = 1
		r.problem("batch %d: K=%d weights diverge from the K=1 replay at word %d", batch, trainReplicas, i)
	}
	r.count(fmt.Sprintf("train-b%d", batch), len(steps), diverged)
	fmt.Printf("  batch %d K=%d: %d steps, p50 %.3f ms, wall %.2fs\n", batch, trainReplicas, len(steps), median(steps), wall.Seconds())
	return steps, nil
}

// trainLoad is one batch size's share of a run: the step durations of every
// round at K=trainReplicas and each round's final state.
type trainLoad struct {
	batch int
	steps []float64
	bits  [][]uint64
}

// replayCheck trains the load's steps once at K=1 and checks every round's
// final state against it bitwise.
func (l *trainLoad) replayCheck(r *run, f *trainFixture, epochs int) error {
	m1, _, _, err := f.trainRun(epochs, l.batch, 1)
	if err != nil {
		return err
	}
	want := stateBits(m1.Net)
	diverged := 0
	for round, bits := range l.bits {
		if i := sameBits(want, bits); i >= 0 {
			diverged++
			r.problem("batch %d round %d: K=%d weights diverge from the K=1 replay at word %d", l.batch, round, trainReplicas, i)
		}
	}
	perRun := len(l.steps) / len(l.bits)
	r.count(fmt.Sprintf("train-b%d", l.batch), len(l.steps), diverged*perRun)
	s := sortedCopy(l.steps)
	fmt.Printf("  batch %d K=%d: %d rounds of %d steps, ms p10 %.3f p25 %.3f p50 %.3f p90 %.3f\n", l.batch, trainReplicas, len(l.bits), perRun,
		percentile(s, 0.1), percentile(s, 0.25), percentile(s, 0.5), percentile(s, 0.9))
	return nil
}

func trainCNN1(r *run) error {
	f, err := newTrainFixture(r)
	if err != nil {
		return err
	}
	epochs := r.trainEpochs()
	var st setups
	lo, hi := &trainLoad{batch: trainBatch}, &trainLoad{batch: 2 * trainBatch}
	for round := 0; round < trainRounds; round++ {
		if err := st.measureTrain(f, trainStarts/trainRounds); err != nil {
			return err
		}
		for _, l := range []*trainLoad{lo, hi} {
			m, steps, _, err := f.trainRun(epochs, l.batch, trainReplicas)
			if err != nil {
				return err
			}
			l.steps = append(l.steps, steps...)
			l.bits = append(l.bits, stateBits(m.Net))
		}
	}
	setup := st.report(r)
	for _, l := range []*trainLoad{lo, hi} {
		if err := l.replayCheck(r, f, epochs); err != nil {
			return err
		}
	}
	const n = trainRounds * chunksPerRound
	for _, l := range []*trainLoad{lo, hi} {
		fmt.Printf("  batch %d chunk p50 ms:", l.batch)
		for _, c := range chunkStats(l.steps, n, 0.5) {
			fmt.Printf(" %.2f", c[0])
		}
		fmt.Println()
	}
	latLo, rateLo := bestChunk(lo.steps, n, 0.5)
	latHi, rateHi := bestChunk(hi.steps, n, 0.5)
	p90Hi, _ := bestChunk(hi.steps, n, 0.9)
	r.set("lat_p50_ms", latLo, "ms")
	r.set("lat_p50_ms_hi", latHi, "ms")
	r.set("lat_p90_ms_hi", p90Hi, "ms")
	// The trainer's highest throughput is at the larger batch; the workload's
	// own batch gives samples_per_s.
	r.set("capacity_rps", rateHi*float64(hi.batch), "1/s")
	r.set("samples_per_s", rateLo*float64(lo.batch), "1/s")
	r.set("setup_s", setup, "s")
	return nil
}
