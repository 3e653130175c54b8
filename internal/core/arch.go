// Package core is the core of the reproduction: it builds the paper's DNN
// architectures with HPNN locks on every nonlinear layer, trains them with
// the key-dependent backpropagation algorithm, and applies or removes keys
// for the owner / authorized-user / attacker scenarios.
package core

import (
	"fmt"
	"math"

	"hpnn/internal/nn"
	"hpnn/internal/rng"
	"hpnn/internal/tensor"
)

// Arch names a network architecture from the paper's evaluation (Table I
// and Fig. 3).
type Arch string

// Architectures. Channel/width plans are derived so that at native input
// sizes and WidthScale=1 the locked-neuron counts match Table I exactly:
// CNN1 has 4352, CNN2 has 198144 and CNN3 has 29696 ReLU neurons.
const (
	// CNN1: 2 conv, 2 maxpool, 2 ReLU, 1 FC (Fashion-MNIST row of Table I).
	CNN1 Arch = "cnn1"
	// CNN2: 6 conv, 3 maxpool, 8 ReLU, 3 FC (CIFAR-10 row of Table I).
	CNN2 Arch = "cnn2"
	// CNN3: 3 conv, 3 maxpool, 4 ReLU, 2 FC (SVHN row of Table I).
	CNN3 Arch = "cnn3"
	// ResNet18: the residual network of Fig. 3 and Fig. 5.
	ResNet18 Arch = "resnet18"
	// MLP: a small locked multi-layer perceptron used by analysis
	// experiments and examples (not part of the paper's table).
	MLP Arch = "mlp"
)

// Config describes a model to build.
type Config struct {
	Arch       Arch
	InC        int     // input channels
	InH, InW   int     // input spatial size
	Classes    int     // output classes
	WidthScale float64 // scales channel counts/hidden widths; 1.0 = paper widths, 0 = 1.0
	Seed       uint64  // weight-initialization seed
}

func (c Config) withDefaults() Config {
	if c.WidthScale == 0 {
		c.WidthScale = 1
	}
	if c.Classes == 0 {
		c.Classes = 10
	}
	return c
}

func (c Config) scale(w int) int {
	s := int(math.Round(float64(w) * c.WidthScale))
	if s < 1 {
		s = 1
	}
	return s
}

// builder assembles a locked network while tracking per-sample feature
// dimensions. With a nil r the weights are left zero instead of drawn.
type builder struct {
	cfg     Config
	r       *rng.Rand
	layers  []nn.Layer
	c, h, w int // current feature-map dims (spatial path)
	flat    int // current flat width (dense path); 0 while spatial
	nLocks  int
}

func newBuilder(cfg Config, init bool) *builder {
	b := &builder{cfg: cfg, c: cfg.InC, h: cfg.InH, w: cfg.InW}
	if init {
		b.r = rng.New(cfg.Seed)
	}
	return b
}

// newConv builds a conv layer, He-initialized unless the builder is blank.
func (b *builder) newConv(g tensor.ConvGeom, outC int) *nn.Conv2D {
	c := nn.NewConv2D(g, outC)
	if b.r != nil {
		c.InitHe(b.r)
	}
	return c
}

func (b *builder) conv(outC, k, stride, pad int) *builder {
	g := tensor.ConvGeom{InC: b.c, InH: b.h, InW: b.w, KH: k, KW: k, Stride: stride, Pad: pad}
	b.layers = append(b.layers, b.newConv(g, outC))
	b.c, b.h, b.w = outC, g.OutH(), g.OutW()
	return b
}

func (b *builder) maxpool(k, stride int) *builder {
	g := tensor.ConvGeom{InC: b.c, InH: b.h, InW: b.w, KH: k, KW: k, Stride: stride}
	b.layers = append(b.layers, nn.NewMaxPool(g))
	b.h, b.w = g.OutH(), g.OutW()
	return b
}

func (b *builder) lockedReLU() *builder {
	n := b.featSize()
	id := fmt.Sprintf("%s/lock%02d", b.cfg.Arch, b.nLocks)
	b.nLocks++
	b.layers = append(b.layers, nn.NewLock(id, n), nn.NewReLU())
	return b
}

func (b *builder) flatten() *builder {
	b.layers = append(b.layers, nn.NewFlatten())
	b.flat = b.c * b.h * b.w
	return b
}

func (b *builder) dense(out int) *builder {
	d := nn.NewDense(b.flat, out)
	if b.r != nil {
		d.InitHe(b.r)
	}
	b.layers = append(b.layers, d)
	b.flat = out
	return b
}

func (b *builder) featSize() int {
	if b.flat > 0 {
		return b.flat
	}
	return b.c * b.h * b.w
}

func (b *builder) build() *nn.Network { return nn.NewNetwork(b.layers...) }

// buildNetwork constructs the architecture's layer stack, He-initialized
// from cfg.Seed when init is set and all-zero otherwise.
func buildNetwork(cfg Config, init bool) (*nn.Network, error) {
	if cfg.InC <= 0 || cfg.InH <= 0 || cfg.InW <= 0 {
		return nil, fmt.Errorf("hpnn: invalid input dims %dx%dx%d", cfg.InC, cfg.InH, cfg.InW)
	}
	b := newBuilder(cfg, init)
	switch cfg.Arch {
	case CNN1:
		return buildCNN1(b), nil
	case CNN2:
		return buildCNN2(b), nil
	case CNN3:
		return buildCNN3(b), nil
	case ResNet18:
		return buildResNet18(b), nil
	case MLP:
		return buildMLP(b), nil
	default:
		return nil, fmt.Errorf("hpnn: unknown architecture %q", cfg.Arch)
	}
}

// buildCNN1: conv(→4, 5×5) · Lock · ReLU · pool2 · conv(→32, 5×5) · Lock ·
// ReLU · pool2 · FC. At 28×28×1 and scale 1 the two ReLU layers hold
// 4·24·24 + 32·8·8 = 4352 neurons, matching Table I.
func buildCNN1(b *builder) *nn.Network {
	cfg := b.cfg
	b.conv(cfg.scale(4), 5, 1, 0).lockedReLU().maxpool(2, 2)
	b.conv(cfg.scale(32), 5, 1, 0).lockedReLU().maxpool(2, 2)
	b.flatten().dense(cfg.Classes)
	return b.build()
}

// buildCNN2: VGG-style [conv-conv-pool]×3 with channels 64/96/128 plus
// FC(1024)·FC(512)·FC(classes); ReLU (locked) after all six convs and the
// first two FCs. At 32×32×3 and scale 1: 2·64·32² + 2·96·16² + 2·128·8² +
// 1024 + 512 = 198144 locked neurons, matching Table I.
func buildCNN2(b *builder) *nn.Network {
	cfg := b.cfg
	b.conv(cfg.scale(64), 3, 1, 1).lockedReLU()
	b.conv(cfg.scale(64), 3, 1, 1).lockedReLU().maxpool(2, 2)
	b.conv(cfg.scale(96), 3, 1, 1).lockedReLU()
	b.conv(cfg.scale(96), 3, 1, 1).lockedReLU().maxpool(2, 2)
	b.conv(cfg.scale(128), 3, 1, 1).lockedReLU()
	b.conv(cfg.scale(128), 3, 1, 1).lockedReLU().maxpool(2, 2)
	b.flatten()
	b.dense(cfg.scale(1024)).lockedReLU()
	b.dense(cfg.scale(512)).lockedReLU()
	b.dense(cfg.Classes)
	return b.build()
}

// buildCNN3: [conv-pool]×3 with channels 16/32/64 plus FC(1024)·FC(classes);
// ReLU (locked) after each conv and the first FC. At 32×32×3 and scale 1:
// 16·32² + 32·16² + 64·8² + 1024 = 29696 locked neurons, matching Table I.
func buildCNN3(b *builder) *nn.Network {
	cfg := b.cfg
	b.conv(cfg.scale(16), 3, 1, 1).lockedReLU().maxpool(2, 2)
	b.conv(cfg.scale(32), 3, 1, 1).lockedReLU().maxpool(2, 2)
	b.conv(cfg.scale(64), 3, 1, 1).lockedReLU().maxpool(2, 2)
	b.flatten()
	b.dense(cfg.scale(1024)).lockedReLU()
	b.dense(cfg.Classes)
	return b.build()
}

// buildMLP: Dense(64)·Lock·ReLU · Dense(64)·Lock·ReLU · Dense(classes).
func buildMLP(b *builder) *nn.Network {
	cfg := b.cfg
	b.flatten()
	b.dense(cfg.scale(64)).lockedReLU()
	b.dense(cfg.scale(64)).lockedReLU()
	b.dense(cfg.Classes)
	return b.build()
}

// buildResNet18 follows He et al.'s CIFAR-style ResNet-18: a 3×3 stem then
// four stages of two basic blocks with channel plan 64/128/256/512 (stages
// 2-4 downsample by stride 2 with a 1×1 projection skip), global average
// pooling and a final FC. Every ReLU — in the stem, inside each block and
// after each residual join — is locked.
func buildResNet18(b *builder) *nn.Network {
	cfg := b.cfg
	// Stem.
	b.conv(cfg.scale(64), 3, 1, 1)
	b.layers = append(b.layers, nn.NewBatchNorm2D(b.c))
	b.lockedReLU()
	// Stages.
	plan := []struct {
		ch     int
		stride int
	}{
		{64, 1}, {128, 2}, {256, 2}, {512, 2},
	}
	for _, st := range plan {
		ch := cfg.scale(st.ch)
		b.basicBlock(ch, st.stride)
		b.basicBlock(ch, 1)
	}
	b.layers = append(b.layers, nn.NewGlobalAvgPool())
	b.flat = b.c
	b.dense(cfg.Classes)
	return b.build()
}

// basicBlock appends one ResNet basic block:
//
//	body: conv3×3(stride) · BN · Lock · ReLU · conv3×3 · BN
//	skip: identity, or conv1×1(stride) · BN when shape changes
//	post: Lock · ReLU
func (b *builder) basicBlock(outC, stride int) {
	inC, inH, inW := b.c, b.h, b.w

	g1 := tensor.ConvGeom{InC: inC, InH: inH, InW: inW, KH: 3, KW: 3, Stride: stride, Pad: 1}
	midH, midW := g1.OutH(), g1.OutW()
	g2 := tensor.ConvGeom{InC: outC, InH: midH, InW: midW, KH: 3, KW: 3, Stride: 1, Pad: 1}

	innerLockID := fmt.Sprintf("%s/lock%02d", b.cfg.Arch, b.nLocks)
	b.nLocks++
	body := nn.NewNetwork(
		b.newConv(g1, outC),
		nn.NewBatchNorm2D(outC),
		nn.NewLock(innerLockID, outC*midH*midW),
		nn.NewReLU(),
		b.newConv(g2, outC),
		nn.NewBatchNorm2D(outC),
	)

	var skip *nn.Network
	if stride != 1 || inC != outC {
		sg := tensor.ConvGeom{InC: inC, InH: inH, InW: inW, KH: 1, KW: 1, Stride: stride, Pad: 0}
		skip = nn.NewNetwork(b.newConv(sg, outC), nn.NewBatchNorm2D(outC))
	}

	postLockID := fmt.Sprintf("%s/lock%02d", b.cfg.Arch, b.nLocks)
	b.nLocks++
	post := nn.NewNetwork(nn.NewLock(postLockID, outC*midH*midW), nn.NewReLU())

	b.layers = append(b.layers, nn.NewResidual(body, skip, post))
	b.c, b.h, b.w = outC, midH, midW
}
