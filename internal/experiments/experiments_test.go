package experiments

import (
	"fmt"
	"strings"
	"testing"

	"hpnn/internal/core"
)

// micro is a minimal profile for the experiment-driver tests: every driver
// must produce sane, correctly shaped results; statistical strength is the
// benchmarks' job.
func micro() Profile {
	return Profile{
		Name:   "micro",
		TrainN: 200, TestN: 80, ImgSize: 16,
		WidthScale: map[core.Arch]float64{
			core.CNN1:     0.5,
			core.CNN2:     0.125,
			core.CNN3:     0.25,
			core.ResNet18: 0.125,
		},
		OwnerEpochs: 3, FTEpochs: 3,
		BatchSize: 32, LR: 0.02, Momentum: 0.9,
		Fig3Keys: 2,
		Seed:     3,
	}
}

func TestProfileByName(t *testing.T) {
	for _, n := range []string{"bench", "quick", "full", ""} {
		p, err := ProfileByName(n)
		if err != nil {
			t.Fatalf("%q: %v", n, err)
		}
		if p.TrainN <= 0 || p.OwnerEpochs <= 0 {
			t.Fatalf("%q: degenerate profile %+v", n, p)
		}
	}
	if _, err := ProfileByName("nope"); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

func TestTable1Shapes(t *testing.T) {
	rows, err := Table1(micro(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	for _, r := range rows {
		if r.OriginalAcc <= 0 || r.OriginalAcc > 1 {
			t.Fatalf("%s: bad original accuracy %v", r.Dataset, r.OriginalAcc)
		}
		if r.LockedAcc >= r.OriginalAcc {
			t.Fatalf("%s: locked accuracy %v did not drop from %v", r.Dataset, r.LockedAcc, r.OriginalAcc)
		}
		if r.LockedNeurons <= 0 {
			t.Fatalf("%s: no locked neurons", r.Dataset)
		}
	}
	out := RenderTable1(rows)
	if !strings.Contains(out, "TABLE I") || !strings.Contains(out, "fashion") {
		t.Fatal("Table I rendering incomplete")
	}
}

func TestFig3Shapes(t *testing.T) {
	res, err := Fig3(micro(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("got %d architectures, want 2", len(res))
	}
	for _, r := range res {
		if len(r.KeyAccs) != 2 {
			t.Fatalf("%s: got %d key accuracies, want 2", r.Arch, len(r.KeyAccs))
		}
		if r.Summary.N != 2 {
			t.Fatal("summary not computed")
		}
	}
	out := RenderFig3(res)
	if !strings.Contains(out, "Fig. 3") || !strings.Contains(out, "resnet18") {
		t.Fatal("Fig. 3 rendering incomplete")
	}
}

func TestFig5Shapes(t *testing.T) {
	res, err := Fig5(micro(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("got %d curve sets, want 2", len(res))
	}
	for _, s := range res {
		if len(s.Curves) != len(Fig5Alphas) {
			t.Fatalf("%s: %d curves, want %d", s.Arch, len(s.Curves), len(Fig5Alphas))
		}
		for _, c := range s.Curves {
			if len(c.Acc) != micro().FTEpochs {
				t.Fatalf("curve %s has %d epochs", c.Label, len(c.Acc))
			}
		}
	}
	out := RenderCurves("Fig. 5", res)
	if !strings.Contains(out, "α=10%") {
		t.Fatal("Fig. 5 rendering incomplete")
	}
}

func TestFig6Shapes(t *testing.T) {
	res, err := Fig6(micro(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("got %d curve sets, want 2", len(res))
	}
	for _, s := range res {
		if len(s.Curves) != len(Fig6LRs) {
			t.Fatalf("%s: %d curves, want %d", s.Dataset, len(s.Curves), len(Fig6LRs))
		}
	}
	out := RenderCurves("Fig. 6", res)
	if !strings.Contains(out, "lr=0.001") {
		t.Fatal("Fig. 6 rendering incomplete")
	}
}

func TestFig7Shapes(t *testing.T) {
	res, err := Fig7(micro(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("got %d results, want 3", len(res))
	}
	for _, r := range res {
		if len(r.HPNNFT) != len(Fig7Alphas) || len(r.RandomFT) != len(Fig7Alphas) {
			t.Fatalf("%s: series lengths wrong", r.Dataset)
		}
		// α = 0 entries: no retraining — the random attacker is at chance.
		if r.RandomFT[0] > 0.35 {
			t.Fatalf("%s: α=0 random-init accuracy %v should be near chance", r.Dataset, r.RandomFT[0])
		}
	}
	out := RenderFig7(res)
	if !strings.Contains(out, "random-ft") {
		t.Fatal("Fig. 7 rendering incomplete")
	}
}

func TestFig4HardwareShapes(t *testing.T) {
	res, err := Fig4Hardware(micro(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.XORGates != 4096 {
		t.Fatalf("gate report wrong: %+v", res.Report)
	}
	if res.CyclesLocked != res.CyclesPlain {
		t.Fatal("cycle overhead detected")
	}
	if !res.GateLevelAgrees {
		t.Fatal("gate-level datapath disagreed with fast datapath")
	}
	if res.TPUNoKey >= res.TPUWithKey {
		t.Fatalf("no-key TPU accuracy %v did not drop below with-key %v", res.TPUNoKey, res.TPUWithKey)
	}
	out := RenderHardware(res)
	if !strings.Contains(out, "XOR gates") {
		t.Fatal("hardware rendering incomplete")
	}
}

func TestCryptoBaselineShapes(t *testing.T) {
	rows, err := CryptoBaseline(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	// CNN2 (last row) is the largest network by far.
	if rows[2].Params < rows[0].Params {
		t.Fatal("CNN2 should have more parameters than CNN1")
	}
	for _, r := range rows {
		if r.EncryptMS < 0 || r.DecryptMS < 0 {
			t.Fatal("negative latency")
		}
	}
	out := RenderCrypto(rows)
	if !strings.Contains(out, "AES") {
		t.Fatal("crypto rendering incomplete")
	}
}

func TestAblationGranularity(t *testing.T) {
	rows, err := AblationLockGranularity(micro(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	if rows[0].DistinctBits <= rows[1].DistinctBits || rows[1].DistinctBits <= rows[2].DistinctBits {
		t.Fatalf("distinct bits should decrease with coarser granularity: %+v", rows)
	}
	if out := RenderGranularity(rows); !strings.Contains(out, "per-neuron") {
		t.Fatal("granularity rendering incomplete")
	}
}

func TestAblationLockedLayers(t *testing.T) {
	rows, err := AblationLockedLayers(micro(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	if rows[2].LockedNeurons <= rows[0].LockedNeurons {
		t.Fatal("all-layers subset should lock more neurons than first-only")
	}
	if out := RenderLayerSubsets(rows); !strings.Contains(out, "first-only") {
		t.Fatal("layer-subset rendering incomplete")
	}
}

func TestAblationKeyDistance(t *testing.T) {
	rows, ownerAcc, err := AblationKeyDistance(micro(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 || rows[0].Distance != 0 {
		t.Fatal("distance sweep malformed")
	}
	// d = 0 is the true key: accuracy must match the owner's.
	if rows[0].Acc < ownerAcc-1e-9 {
		t.Fatalf("d=0 accuracy %v below owner %v", rows[0].Acc, ownerAcc)
	}
	// Large distances must hurt.
	last := rows[len(rows)-1]
	if last.Acc > ownerAcc-0.1 {
		t.Fatalf("d=%d accuracy %v did not drop (owner %v)", last.Distance, last.Acc, ownerAcc)
	}
	if out := RenderKeyDistance(rows, ownerAcc); !strings.Contains(out, "distance") {
		t.Fatal("key-distance rendering incomplete")
	}
}

func TestArchFor(t *testing.T) {
	if a, err := archFor("cifar"); err != nil || a != core.CNN2 {
		t.Fatalf("archFor(cifar) = %v, %v", a, err)
	}
	if _, err := archFor("imagenet"); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestKeyRecoveryExperiment(t *testing.T) {
	res, err := KeyRecovery(micro(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TestAcc) != len(res.Budgets) || len(res.Budgets) == 0 {
		t.Fatalf("malformed result: %+v", res)
	}
	// The budgeted hill climber must stay below the owner.
	for i, a := range res.TestAcc {
		if a >= res.OwnerAcc {
			t.Fatalf("budget %d reached owner accuracy", res.Budgets[i])
		}
	}
	if out := RenderKeyRecovery(res); !strings.Contains(out, "queries") {
		t.Fatal("key-recovery rendering incomplete")
	}
}

func TestAblationQuantExperiment(t *testing.T) {
	rows, err := AblationQuant(micro(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 || rows[0].Bits != 8 {
		t.Fatalf("malformed rows: %+v", rows)
	}
	// 8-bit fidelity should beat 2-bit.
	if rows[0].TPUAcc < rows[3].TPUAcc {
		t.Fatalf("8-bit accuracy %v below 2-bit %v", rows[0].TPUAcc, rows[3].TPUAcc)
	}
	if out := RenderQuant(rows); !strings.Contains(out, "bits") {
		t.Fatal("quant rendering incomplete")
	}
}

func TestPlotCurves(t *testing.T) {
	s := CurveSet{
		Dataset: "fashion", Arch: core.CNN1, OwnerAcc: 0.9,
		Curves: []Curve{
			{Label: "α=1%", Acc: []float64{0.2, 0.3, 0.4}},
			{Label: "α=10%", Acc: []float64{0.5, 0.7, 0.8}},
		},
	}
	out := PlotCurves(s, 40, 10)
	if !strings.Contains(out, "=") || !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Fatalf("plot missing glyphs:\n%s", out)
	}
	if !strings.Contains(out, "α=10%") {
		t.Fatal("plot missing legend")
	}
	// Degenerate inputs must not panic.
	_ = PlotCurves(CurveSet{}, 1, 1)
	_ = PlotCurves(CurveSet{Curves: []Curve{{Label: "x", Acc: []float64{0.5}}}}, 20, 6)
}

func TestTransformAttacksExperiment(t *testing.T) {
	rows, owner, err := TransformAttacks(micro(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.NoKeyAcc >= owner {
			t.Fatalf("%s(%v): transformation unlocked the model", r.Kind, r.Strength)
		}
	}
	if out := RenderTransforms(rows, owner); !strings.Contains(out, "prune") {
		t.Fatal("transform rendering incomplete")
	}
}

func TestWatermarkVsHPNNExperiment(t *testing.T) {
	c, err := WatermarkVsHPNN(micro(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.WMEmbedBER > 0.05 {
		t.Fatalf("watermark embedding failed (BER %.3f)", c.WMEmbedBER)
	}
	// The motivating asymmetry: the watermarked pirate copy is usable,
	// the HPNN pirate copy is not better than its fine-tuned ceiling and
	// the raw stolen model collapsed.
	if c.WMPirateAcc < 0.3 {
		t.Fatalf("watermarked pirate copy unusable (%.3f) — scenario not demonstrated", c.WMPirateAcc)
	}
	if c.HPNNStolenAcc > 0.5 || c.HPNNStolenAcc >= c.HPNNOwnerAcc {
		t.Fatalf("HPNN stolen accuracy %.3f did not collapse (owner %.3f)", c.HPNNStolenAcc, c.HPNNOwnerAcc)
	}
	if out := RenderWatermarkComparison(c); !strings.Contains(out, "watermark") {
		t.Fatal("rendering incomplete")
	}
}

// archFor returns the Table I architecture for a dataset.
func archFor(dsName string) (core.Arch, error) {
	for _, b := range benchmarks {
		if b.Dataset == dsName {
			return b.Arch, nil
		}
	}
	return "", fmt.Errorf("experiments: no architecture mapped to dataset %q", dsName)
}
