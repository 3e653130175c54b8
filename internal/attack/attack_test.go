package attack

import (
	"testing"

	"hpnn/internal/core"
	"hpnn/internal/dataset"
	"hpnn/internal/keys"
	"hpnn/internal/rng"
	"hpnn/internal/schedule"
)

// fixture trains a miniature locked victim model once per test binary.
type fixture struct {
	victim   *core.Model
	ds       *dataset.Dataset
	ownerAcc float64
}

var shared *fixture

func getFixture(t *testing.T) *fixture {
	t.Helper()
	if shared != nil {
		return shared
	}
	ds, err := dataset.Generate(dataset.Config{
		Name: "fashion", TrainN: 600, TestN: 200, H: 16, W: 16, Seed: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	victim := core.MustModel(core.Config{Arch: core.CNN1, InC: 1, InH: 16, InW: 16, Seed: 51})
	victim.ApplyRawKey(keys.Generate(rng.New(52)), schedule.New(keys.KeyBits, 53))
	res := core.Train(victim, ds.TrainX, ds.TrainY, ds.TestX, ds.TestY, core.TrainConfig{
		Epochs: 8, BatchSize: 32, LR: 0.02, Momentum: 0.9, Seed: 54,
	})
	shared = &fixture{victim: victim, ds: ds, ownerAcc: res.FinalTestAcc()}
	if shared.ownerAcc < 0.6 {
		t.Fatalf("victim failed to train: %.3f", shared.ownerAcc)
	}
	return shared
}

func defaultTrain() core.TrainConfig {
	return core.TrainConfig{Epochs: 6, BatchSize: 16, LR: 0.02, Momentum: 0.9, Seed: 55}
}

func TestFineTuneStolenInitLimitedByThiefSize(t *testing.T) {
	f := getFixture(t)
	small, _, err := FineTune(f.victim, f.ds, FineTuneConfig{
		ThiefFrac: 0.02, ThiefSeed: 1, Init: InitStolen, Train: defaultTrain(),
	})
	if err != nil {
		t.Fatal(err)
	}
	large, _, err := FineTune(f.victim, f.ds, FineTuneConfig{
		ThiefFrac: 0.3, ThiefSeed: 1, Init: InitStolen, Train: defaultTrain(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if small.ThiefSamples >= large.ThiefSamples {
		t.Fatal("thief sample counts not monotone in fraction")
	}
	if small.BestAcc >= large.BestAcc+0.05 {
		t.Fatalf("more thief data should not hurt: α=2%% %.3f vs α=30%% %.3f", small.BestAcc, large.BestAcc)
	}
	// The paper's core claim: a small thief set cannot recover the owner's
	// accuracy.
	if small.Success(f.ownerAcc, 0.05) {
		t.Fatalf("2%% thief attack recovered owner accuracy (%.3f vs %.3f)", small.BestAcc, f.ownerAcc)
	}
}

func TestFineTunePreAttackCollapse(t *testing.T) {
	f := getFixture(t)
	r, _, err := FineTune(f.victim, f.ds, FineTuneConfig{
		ThiefFrac: 0.05, ThiefSeed: 2, Init: InitStolen, Train: defaultTrain(),
	})
	if err != nil {
		t.Fatal(err)
	}
	// The stolen model on the baseline architecture (pre-retraining) must
	// be far below the owner's accuracy.
	if r.PreAttackAcc > f.ownerAcc-0.3 {
		t.Fatalf("stolen model pre-attack accuracy %.3f too close to owner %.3f", r.PreAttackAcc, f.ownerAcc)
	}
}

func TestFineTuneVictimUnchanged(t *testing.T) {
	f := getFixture(t)
	before := f.victim.Accuracy(f.ds.TestX, f.ds.TestY, 64)
	_, _, err := FineTune(f.victim, f.ds, FineTuneConfig{
		ThiefFrac: 0.05, ThiefSeed: 3, Init: InitStolen, Train: defaultTrain(),
	})
	if err != nil {
		t.Fatal(err)
	}
	after := f.victim.Accuracy(f.ds.TestX, f.ds.TestY, 64)
	if before != after {
		t.Fatalf("attack mutated the victim model: %.4f -> %.4f", before, after)
	}
	for _, l := range f.victim.Locks() {
		if !l.Engaged {
			t.Fatal("attack disengaged the victim's locks")
		}
	}
}

func TestFineTuneZeroFraction(t *testing.T) {
	f := getFixture(t)
	r, _, err := FineTune(f.victim, f.ds, FineTuneConfig{
		ThiefFrac: 0, Init: InitStolen, Train: defaultTrain(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.ThiefSamples != 0 || len(r.TestAcc) != 0 {
		t.Fatal("α=0 must not train")
	}
	if r.FinalAcc != r.PreAttackAcc {
		t.Fatal("α=0 final accuracy must equal pre-attack accuracy")
	}
}

func TestFineTuneRejectsBadFraction(t *testing.T) {
	f := getFixture(t)
	if _, _, err := FineTune(f.victim, f.ds, FineTuneConfig{ThiefFrac: 1.2}); err == nil {
		t.Fatal("fraction > 1 accepted")
	}
}

// TestInformationLeakage reproduces the §IV-C comparison: HPNN-initialized
// and random-initialized fine-tuning should land close to each other —
// the obfuscated weights give the attacker no meaningful head start.
func TestInformationLeakage(t *testing.T) {
	f := getFixture(t)
	cfg := FineTuneConfig{ThiefFrac: 0.1, ThiefSeed: 4, Train: defaultTrain()}
	cfg.Init = InitStolen
	hpnnFT, _, err := FineTune(f.victim, f.ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Init = InitRandom
	cfg.AttackerSeed = 99
	randFT, _, err := FineTune(f.victim, f.ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gap := LeakageGap(hpnnFT, randFT)
	if gap > 0.25 {
		t.Fatalf("information leakage gap %.3f too large (hpnn %.3f vs random %.3f)",
			gap, hpnnFT.FinalAcc, randFT.FinalAcc)
	}
	// Neither attack should recover the owner's accuracy.
	if hpnnFT.Success(f.ownerAcc, 0.02) && randFT.Success(f.ownerAcc, 0.02) {
		t.Fatalf("both attacks recovered owner accuracy %.3f", f.ownerAcc)
	}
}

func TestSweepThiefFractions(t *testing.T) {
	f := getFixture(t)
	fracs := []float64{0.02, 0.1}
	res, err := SweepThiefFractions(f.victim, f.ds, fracs, FineTuneConfig{
		Init: InitStolen, ThiefSeed: 5, Train: defaultTrain(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("got %d results", len(res))
	}
	for i, r := range res {
		if r.ThiefFrac != fracs[i] {
			t.Fatal("fractions not preserved in order")
		}
		if len(r.TestAcc) == 0 {
			t.Fatal("missing trajectory")
		}
	}
}

func TestSweepLearningRates(t *testing.T) {
	f := getFixture(t)
	lrs := []float64{0.01, 0.05}
	res, err := SweepLearningRates(f.victim, f.ds, lrs, FineTuneConfig{
		ThiefFrac: 0.1, ThiefSeed: 6, Init: InitStolen, Train: defaultTrain(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("got %d results", len(res))
	}
	// Results must differ: learning rate is not being ignored.
	if res[0].FinalAcc == res[1].FinalAcc && res[0].TestAcc[0] == res[1].TestAcc[0] {
		t.Fatal("learning-rate sweep produced identical trajectories")
	}
}

func TestInitString(t *testing.T) {
	if InitStolen.String() != "hpnn-finetune" || InitRandom.String() != "random-finetune" {
		t.Fatal("Init naming wrong")
	}
}

// SweepThiefFractions runs the α sweep of Fig. 5 / Fig. 7 for one victim:
// one fine-tuning attack per fraction, same initialization mode.
func SweepThiefFractions(victim *core.Model, ds *dataset.Dataset, fracs []float64, base FineTuneConfig) ([]Result, error) {
	out := make([]Result, 0, len(fracs))
	for i, f := range fracs {
		cfg := base
		cfg.ThiefFrac = f
		cfg.ThiefSeed = base.ThiefSeed + uint64(i)
		cfg.AttackerSeed = base.AttackerSeed + uint64(i)*101
		r, _, err := FineTune(victim, ds, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// LeakageGap quantifies the information-leakage comparison of §IV-C: the
// absolute accuracy difference between an HPNN-initialized and a
// random-initialized attack under the same budget. Small values mean the
// obfuscated weights leak nothing useful.
func LeakageGap(hpnnFT, randomFT Result) float64 {
	d := hpnnFT.FinalAcc - randomFT.FinalAcc
	if d < 0 {
		return -d
	}
	return d
}
