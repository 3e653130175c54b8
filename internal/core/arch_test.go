package core

import (
	"strings"
	"testing"

	"hpnn/internal/dataset"
	"hpnn/internal/nn"
	"hpnn/internal/rng"
	"hpnn/internal/tensor"
	"hpnn/internal/train"
)

// countLayers tallies layer kinds, descending into residual blocks.
func countLayers(net *nn.Network) map[string]int {
	counts := map[string]int{}
	var walk func(l nn.Layer)
	walk = func(l nn.Layer) {
		switch v := l.(type) {
		case *nn.Conv2D:
			counts["conv"]++
		case *nn.Dense:
			counts["dense"]++
		case *nn.ReLU:
			counts["relu"]++
		case *nn.MaxPool:
			counts["maxpool"]++
		case *nn.BatchNorm2D:
			counts["bn"]++
		case *nn.Lock:
			counts["lock"]++
		case *nn.Residual:
			counts["residual"]++
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
	return counts
}

// TestCNN2Inventory: Table I says CNN2 = 6 C, 3 MP, 8 ReLU, 3 FC.
func TestCNN2Inventory(t *testing.T) {
	m := MustModel(Config{Arch: CNN2, InC: 3, InH: 32, InW: 32, Seed: 1})
	c := countLayers(m.Net)
	if c["conv"] != 6 || c["maxpool"] != 3 || c["relu"] != 8 || c["dense"] != 3 {
		t.Fatalf("CNN2 inventory %v, want 6C/3MP/8ReLU/3FC", c)
	}
	if c["lock"] != 8 {
		t.Fatalf("CNN2 has %d locks, want one per ReLU (8)", c["lock"])
	}
}

// TestCNN3Inventory: Table I says CNN3 = 3 C, 3 MP, 4 ReLU, 2 FC.
func TestCNN3Inventory(t *testing.T) {
	m := MustModel(Config{Arch: CNN3, InC: 3, InH: 32, InW: 32, Seed: 1})
	c := countLayers(m.Net)
	if c["conv"] != 3 || c["maxpool"] != 3 || c["relu"] != 4 || c["dense"] != 2 {
		t.Fatalf("CNN3 inventory %v, want 3C/3MP/4ReLU/2FC", c)
	}
}

// TestResNet18ConvCount: standard ResNet-18 has 20 convolutions (1 stem +
// 16 in blocks + 3 projection shortcuts) and a single FC.
func TestResNet18ConvCount(t *testing.T) {
	m := MustModel(Config{Arch: ResNet18, InC: 3, InH: 32, InW: 32, WidthScale: 0.125, Seed: 1})
	c := countLayers(m.Net)
	if c["conv"] != 20 {
		t.Fatalf("ResNet-18 has %d convs, want 20", c["conv"])
	}
	if c["dense"] != 1 {
		t.Fatalf("ResNet-18 has %d FC layers, want 1", c["dense"])
	}
	if c["bn"] != 20 {
		t.Fatalf("ResNet-18 has %d batch-norms, want 20 (one per conv)", c["bn"])
	}
	if c["lock"] != 17 {
		t.Fatalf("ResNet-18 has %d locks, want 17", c["lock"])
	}
}

// TestEveryReLUIsLocked: the paper locks every neuron of every nonlinear
// layer — each ReLU must be immediately preceded by a Lock.
func TestEveryReLUIsLocked(t *testing.T) {
	for _, arch := range []Arch{CNN1, CNN2, CNN3, MLP} {
		cfg := Config{Arch: arch, InC: 3, InH: 16, InW: 16, WidthScale: 0.25, Seed: 1}
		m := MustModel(cfg)
		layers := m.Net.Layers
		for i, l := range layers {
			if _, ok := l.(*nn.ReLU); !ok {
				continue
			}
			if i == 0 {
				t.Fatalf("%s: ReLU at position 0", arch)
			}
			if _, ok := layers[i-1].(*nn.Lock); !ok {
				t.Fatalf("%s: ReLU at %d not preceded by a Lock (%s)", arch, i, layers[i-1].Name())
			}
		}
	}
}

func TestWidthScaleChangesParamCount(t *testing.T) {
	small := MustModel(Config{Arch: CNN2, InC: 3, InH: 16, InW: 16, WidthScale: 0.125, Seed: 1})
	big := MustModel(Config{Arch: CNN2, InC: 3, InH: 16, InW: 16, WidthScale: 0.25, Seed: 1})
	if small.Net.ParamCount() >= big.Net.ParamCount() {
		t.Fatal("width scale did not change parameter count")
	}
}

func TestWidthScaleNeverBelowOne(t *testing.T) {
	// Tiny scales must clamp channel counts at 1, not 0.
	m := MustModel(Config{Arch: CNN2, InC: 1, InH: 16, InW: 16, WidthScale: 0.001, Seed: 1})
	x := tensor.New(1, 1, 16, 16)
	x.FillNorm(rng.New(2), 0, 1)
	out := m.Net.Forward(x, false)
	if out.Shape[1] != 10 {
		t.Fatalf("degenerate-width model broken: output %v", out.Shape)
	}
}

func TestLockIDsAreStable(t *testing.T) {
	a := MustModel(Config{Arch: CNN1, InC: 1, InH: 16, InW: 16, Seed: 1})
	b := MustModel(Config{Arch: CNN1, InC: 1, InH: 16, InW: 16, Seed: 999})
	la, lb := a.Locks(), b.Locks()
	if len(la) != len(lb) {
		t.Fatal("lock counts differ across seeds")
	}
	for i := range la {
		if la[i].ID != lb[i].ID {
			t.Fatalf("lock IDs depend on the weight seed: %s vs %s", la[i].ID, lb[i].ID)
		}
		if !strings.HasPrefix(la[i].ID, "cnn1/") {
			t.Fatalf("lock ID %q not namespaced by architecture", la[i].ID)
		}
	}
}

func TestArchitecturesList(t *testing.T) {
	if len(Architectures()) != 5 {
		t.Fatalf("expected 5 architectures, got %d", len(Architectures()))
	}
}

func TestTrainConfigDefaults(t *testing.T) {
	c := TrainConfig{}.withDefaults()
	if c.Epochs == 0 || c.BatchSize == 0 || c.LR == 0 {
		t.Fatalf("defaults not applied: %+v", c)
	}
	if c.ClipNorm != 5 {
		t.Fatalf("default clip norm %v, want 5", c.ClipNorm)
	}
	neg := TrainConfig{ClipNorm: -1}.withDefaults()
	if neg.ClipNorm != -1 {
		t.Fatal("negative ClipNorm (disable) overridden")
	}
}

func TestKeyBitsConcatenation(t *testing.T) {
	m := MustModel(Config{Arch: MLP, InC: 1, InH: 8, InW: 8, Seed: 1})
	bits := m.KeyBits()
	if len(bits) != m.LockedNeurons() {
		t.Fatalf("KeyBits length %d != locked neurons %d", len(bits), m.LockedNeurons())
	}
	for _, b := range bits {
		if b != 0 {
			t.Fatal("fresh model must have zero key bits")
		}
	}
}

func TestTrainPanicsOnLabelMismatch(t *testing.T) {
	m := MustModel(Config{Arch: MLP, InC: 1, InH: 8, InW: 8, Seed: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("label/sample mismatch did not panic")
		}
	}()
	Train(m, tensor.New(4, 1, 8, 8), []int{0, 1}, nil, nil, TrainConfig{Epochs: 1})
}

func TestPredictDefaultBatch(t *testing.T) {
	m := MustModel(Config{Arch: MLP, InC: 1, InH: 8, InW: 8, Seed: 2})
	x := tensor.New(3, 1, 8, 8)
	x.FillNorm(rng.New(3), 0, 1)
	a := m.Predict(x, 0) // 0 selects the default batch size
	b := m.Predict(x, 64)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("default batch size changed predictions")
		}
	}
}

func TestTrainOnEpochEarlyStop(t *testing.T) {
	ds, _ := dataset.Generate(dataset.Config{Name: "fashion", TrainN: 40, TestN: 20, H: 12, W: 12, Seed: 30})
	m := MustModel(Config{Arch: MLP, InC: 1, InH: 12, InW: 12, Seed: 31})
	calls := 0
	res := Train(m, ds.TrainX, ds.TrainY, ds.TestX, ds.TestY, TrainConfig{
		Epochs: 10, BatchSize: 16, LR: 0.02,
		Hooks: train.Hooks{OnEpoch: func(info train.EpochInfo) bool {
			calls++
			return info.Epoch < 2 // stop after the 3rd epoch
		}},
	})
	if calls != 3 {
		t.Fatalf("OnEpoch called %d times, want 3", calls)
	}
	if len(res.EpochLoss) != 3 {
		t.Fatalf("training ran %d epochs after early stop, want 3", len(res.EpochLoss))
	}
}

// Architectures lists the Table I / Fig. 3 architectures.
func Architectures() []Arch { return []Arch{CNN1, CNN2, CNN3, ResNet18, MLP} }
