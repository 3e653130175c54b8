package attack

import (
	"testing"

	"hpnn/internal/core"
	"hpnn/internal/rng"
)

func TestTransformSweepShapes(t *testing.T) {
	f := getFixture(t)
	cfgs := []TransformConfig{
		{Kind: TransformScale, Strength: 1.5, Seed: 1},
		{Kind: TransformNoise, Strength: 0.02, Seed: 2},
		{Kind: TransformPrune, Strength: 0.2, Seed: 3},
	}
	res, err := TransformSweep(f.victim, f.ds, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("got %d results", len(res))
	}
	for _, r := range res {
		// No transformation unlocks the model: the no-key accuracy must
		// stay far below the owner's.
		if r.NoKeyAcc > f.ownerAcc-0.25 {
			t.Fatalf("%s (%.2f): transformed no-key accuracy %.3f approaches owner %.3f",
				r.Config.Kind, r.Config.Strength, r.NoKeyAcc, f.ownerAcc)
		}
	}
	// Mild transformations barely hurt the legitimate (with-key) function.
	if res[0].WithKeyAcc < f.ownerAcc-0.1 {
		t.Fatalf("uniform scaling should preserve the keyed function: %.3f vs %.3f",
			res[0].WithKeyAcc, f.ownerAcc)
	}
}

func TestTransformVictimUntouched(t *testing.T) {
	f := getFixture(t)
	before := f.victim.Accuracy(f.ds.TestX, f.ds.TestY, 64)
	_, err := TransformSweep(f.victim, f.ds, []TransformConfig{
		{Kind: TransformNoise, Strength: 0.5, Seed: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if after := f.victim.Accuracy(f.ds.TestX, f.ds.TestY, 64); after != before {
		t.Fatal("transform sweep mutated the victim")
	}
}

func TestApplyTransformScaleExact(t *testing.T) {
	m := core.MustModel(core.Config{Arch: core.MLP, InC: 1, InH: 8, InW: 8, Seed: 1})
	p0 := m.Net.Params()[0]
	p0.Value.Fill(2)
	if err := ApplyTransform(m, TransformConfig{Kind: TransformScale, Strength: 0.5}); err != nil {
		t.Fatal(err)
	}
	if p0.Value.Data[0] != 1 {
		t.Fatalf("scale 0.5 gave %v", p0.Value.Data[0])
	}
}

func TestApplyTransformPruneZeroesSmallest(t *testing.T) {
	m := core.MustModel(core.Config{Arch: core.MLP, InC: 1, InH: 8, InW: 8, Seed: 2})
	for _, p := range m.Net.Params() {
		p.Value.FillNorm(rng.New(77), 0, 1)
	}
	if err := ApplyTransform(m, TransformConfig{Kind: TransformPrune, Strength: 0.5}); err != nil {
		t.Fatal(err)
	}
	for _, p := range m.Net.Params() {
		zeros := 0
		for _, v := range p.Value.Data {
			if v == 0 {
				zeros++
			}
		}
		if frac := float64(zeros) / float64(p.Value.Len()); frac < 0.4 {
			t.Fatalf("prune 0.5 zeroed only %.2f of %s", frac, p.Name)
		}
	}
}

func TestApplyTransformValidation(t *testing.T) {
	m := core.MustModel(core.Config{Arch: core.MLP, InC: 1, InH: 8, InW: 8, Seed: 3})
	if err := ApplyTransform(m, TransformConfig{Kind: TransformScale, Strength: 0}); err == nil {
		t.Fatal("zero scale accepted")
	}
	if err := ApplyTransform(m, TransformConfig{Kind: TransformPrune, Strength: 2}); err == nil {
		t.Fatal("prune fraction > 1 accepted")
	}
	if err := ApplyTransform(m, TransformConfig{Kind: "fold"}); err == nil {
		t.Fatal("unknown transform accepted")
	}
}

func TestTransformsList(t *testing.T) {
	if len(Transforms()) != 3 {
		t.Fatal("expected 3 transforms")
	}
}

// Transforms lists the supported transformations.
func Transforms() []Transform {
	return []Transform{TransformScale, TransformNoise, TransformPrune}
}
